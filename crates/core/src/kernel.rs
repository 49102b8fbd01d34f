//! The stack-based matching kernel (Fig. 3, unrolled per Fig. 7).
//!
//! One [`WarpKernel`] instance runs per warp. Its state is the explicit
//! call stack of the paper:
//!
//! * `storage` — the candidate sets `C[NUM_SETS][·][·]`, one flat
//!   pre-sized slab per warp with a slot per set and batch member ("global
//!   memory" in the paper; see [`StackArena`]),
//! * `iter`/`uiter`/`batch` — the per-level loop cursors ("shared memory"
//!   in the paper),
//! * the warp's [`Mirror`](crate::steal::Mirror) — the stealable region:
//!   iteration cursors and matched prefix for levels below `StopLevel`.
//!
//! Levels below `StopLevel` claim one iteration at a time through the
//! mirror (so concurrent stealers can take the tail of the range); deeper
//! levels iterate privately and claim a batch of iterations at once — as
//! wide as the plan's [`SlotTable`] grants the level, `UNROLL` at least —
//! whose candidate-set computations are combined into shared warp waves
//! (Fig. 8). At the last level candidates are counted instead of iterated:
//! a list computed there is clipped to its valid window ([`Clip`]); a lifted
//! one is counted against the warp's [`RankRow`], one rank per slot — or, in
//! a fused tail, per element of whichever of the pair is not in the row.
//!
//! What a level computes is read from the plan's own lowered stream
//! ([`MatchPlan::bytecode`], the `row_ptr` / `set_ops` encoding of Fig. 9b)
//! by one interpreter, [`WarpKernel::compute_sets`] — cold runs, warm runs,
//! shards and anchored delta launches alike, with or without hub-bitmap
//! rows routed into the set operations.
//!
//! All per-claim scratch (the unroll batches, ping/pong chain buffers, the
//! emit tail) is owned by the kernel and reused, and
//! set-operation outputs stream straight into the arena slabs — after the
//! first passes warm the scratch capacities, the steady-state claim loop
//! performs no heap allocation (see `tests/alloc_free.rs`).

//! ## Fault containment (transactional counting)
//!
//! The engine may run this kernel under `catch_unwind` with a
//! [`FaultPlan`] injecting panics. To keep counts exact across a warp
//! death, the kernel counts *transactionally*: matches accumulate in a
//! kernel-local `pending_matches` and only **commit** to the warp's
//! metrics at claim boundaries of the deepest shallow level — points
//! where the just-finished subtree is fully explored and the not-yet-
//! started work is fully described by the steal mirror. Between commits,
//! the single in-flight shallow iteration is recorded in `inflight`
//! (written inside the same mirror lock that claims the index, cleared
//! inside the lock that publishes the child level's range). On death,
//! [`WarpKernel::reclaim_on_death`] discards the uncommitted tally and
//! returns the mirror's remaining ranges plus the in-flight iteration as
//! [`StealPayload`]s — replaying them recounts exactly the dropped
//! subtree, nothing more. Emitted embeddings follow the same protocol
//! through a commit watermark (`emit_mark`).

mod last_level;
mod marker;
mod rank;

use self::last_level::{closed_form, count_valid_sorted, Against, Clip, TailSlot};
use self::marker::Marker;
use self::rank::RankRow;
use crate::arena::StackArena;
use crate::config::{EngineConfig, MAX_UNROLL};
use crate::fault::FaultPlan;
use crate::setops::{self, materialize_base_into};
use crate::steal::{Board, Source, StealPayload};
use stmatch_gpusim::{Close, Cost, Site, Warp};
use stmatch_graph::{Graph, HubBitmapIndex, VertexId};
use stmatch_pattern::bytecode::{OpCode, PlanBytecode, SlotTable, MAX_SETS, NO_POS};
use stmatch_pattern::symmetry::Bound;
use stmatch_pattern::{MatchPlan, OpKind, MAX_PATTERN_SIZE};

/// How a claimed level-0 virtual index becomes a data vertex. Chunk ranges
/// and reclaimed payloads stay in virtual index space, so they are portable
/// across every grid sharing the same map.
#[derive(Clone, Copy)]
pub enum Level0Map<'a> {
    /// Index `i` is vertex `i`.
    Identity,
    /// Index `i` is vertex `order[i]` (a sharded run's permutation).
    Order(&'a [VertexId]),
    /// One side of a delta batch: index `i` is endpoint `i % 2` of update
    /// edge `edges[i / 2]`, matched on that stage's graph `views[i / 2]`
    /// with level 1 pinned to the edge's other endpoint — so the run counts
    /// exactly the embeddings whose first two matched positions are a batch
    /// edge, in both orientations, each on its own stage view. The pin is
    /// keyed by the index, not the vertex: one vertex may end many batch
    /// edges.
    Staged {
        edges: &'a [(VertexId, VertexId)],
        views: &'a [Graph],
    },
}

/// What every warp kernel of one launch attempt shares: the request
/// resolved against one configuration (see `Engine::launch`).
#[derive(Clone, Copy)]
pub struct KernelEnv<'a> {
    /// The data graph (a staged run's warps move on to the stage views of
    /// [`KernelEnv::l0`]; this one sizes the slabs).
    pub graph: &'a Graph,
    /// The plan whose own stream ([`MatchPlan::bytecode`]) the kernel
    /// interprets.
    pub plan: &'a MatchPlan,
    pub cfg: &'a EngineConfig,
    /// Per-set slab-capacity bounds of a clean static verification
    /// (`Verification::footprint_caps`), present iff the launch carries a
    /// verdict (`Launch::verified`) whose certificate offers some: the
    /// arena is shaped to them. Ignored when the graph carries a hub index
    /// (set-bit rows assume uniform geometry).
    pub slab_caps: Option<&'a [u32]>,
    /// Level-0 translation.
    pub l0: Level0Map<'a>,
    /// Materialize every match as a pattern-vertex-indexed embedding
    /// (Fig. 3's `Output`) instead of only counting; drain with
    /// [`WarpKernel::take_emitted`] after the run.
    pub enumerate: bool,
}

impl KernelEnv<'_> {
    /// The positions whose [`Marker`] rows each warp of this launch holds
    /// and the length of one row in words. With an index routed, input rows
    /// come from it (hub rows, sealed result rows); the marker serves the
    /// launches that carry no rows at all.
    fn marker_rows(&self) -> (u8, usize) {
        let marked = if self.graph.hub_bitmap().is_none() {
            self.plan.bytecode().marked()
        } else {
            0
        };
        (marked, self.graph.num_vertices().div_ceil(64))
    }

    /// Global-memory bytes of rows per warp under StopLevel `stop` — marker
    /// rows and the rank row — which the launch budget reserves beside the
    /// stack slabs.
    pub fn row_bytes(&self, stop: usize) -> usize {
        let (marked, stride) = self.marker_rows();
        let ranked = self.last_levels(stop).1 != Row::None;
        marked.count_ones() as usize * stride * 8
            + usize::from(ranked) * RankRow::cells(self.graph.num_vertices()) * 4
    }

    /// Whether levels `k − 2` and `k − 1` run fused under StopLevel `stop`
    /// ([`WarpKernel::count_tail`]: the last level counts a lifted list in
    /// closed form and its parent is deep), and which list the warp's rank
    /// row holds. Under a shallow parent it is the lifted list W. In a tail,
    /// the one of W and the parent's list V defined at the shallower level
    /// (W on a tie), so it is rebuilt for fewer slots — but V only while its
    /// valid elements are a window less exclusions, without a residual label
    /// or a staged pin to test element by element. V and W the same slot of
    /// one set need no row (DESIGN.md §4c).
    fn last_levels(&self, stop: usize) -> (bool, Row) {
        let bc = self.plan.bytecode();
        let last = self.plan.num_levels() - 1;
        let (w_set, w_def) = bc.candidate(last);
        if self.enumerate || w_def == last || bc.level_meta(last).resid.is_some() {
            return (false, Row::None);
        }
        if last < stop + 1 {
            return (false, Row::Last);
        }
        let (v_set, v_def) = bc.candidate(last - 1);
        let pinned = last == 2 && matches!(self.l0, Level0Map::Staged { .. });
        let row = if bc.level_meta(last - 1).resid.is_some() || pinned {
            Row::Last
        } else if v_set == w_set {
            Row::None
        } else if v_def < w_def {
            Row::Parent
        } else {
            Row::Last
        };
        (true, row)
    }
}

/// The list a warp's [`RankRow`] holds ([`KernelEnv::last_levels`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Row {
    /// None: nothing lifted is counted in closed form, or a tail's two lists
    /// are one.
    None,
    /// The fused tail's level-`(k − 2)` list V.
    Parent,
    /// The lifted last-level list W.
    Last,
}

/// What the levels that claim are charged for the validity of what they
/// claim (DESIGN.md §4c, "Claims"), as level masks. A claim tests its
/// candidates on the host either way; this is only who pays on the device.
struct ClaimCost {
    /// A validity wave per claim: level 0, shallow lifted levels and lifted
    /// levels with a residual label.
    waves: u8,
    /// Deep lifted levels without a residual label: one key wave per batch
    /// places each slot's window and exclusions in the lifted list, and the
    /// claims read valid candidates off them.
    keyed: u8,
    /// Levels whose candidate set is computed at the level but read by more
    /// than the level's claims: the set's final stream closes each wave with
    /// a second ballot, of its lanes' validity ([`Close::Masked`]). Where the
    /// claims are the set's only reader ([`PlanBytecode::claim_only`]) its
    /// one ballot compacts exactly the valid candidates, for nothing.
    masked: u8,
}

impl ClaimCost {
    /// Classifies the levels that claim under StopLevel `stop`: every level
    /// but the last and, where a fused tail forms (`tail`), the level it
    /// counts instead.
    fn new(bc: &PlanBytecode, stop: usize, tail: bool) -> ClaimCost {
        let k = bc.num_levels();
        let mut c = ClaimCost {
            waves: 1,
            keyed: 0,
            masked: 0,
        };
        for l in (1..k - 1).filter(|&l| !(tail && l == k - 2)) {
            let bit = 1 << l;
            if bc.candidate(l).1 == l {
                if bc.claim_only() & bit == 0 {
                    c.masked |= bit;
                }
            } else if l >= stop && bc.level_meta(l).resid.is_none() {
                c.keyed |= bit;
            } else {
                c.waves |= bit;
            }
        }
        c
    }
}

/// Per-warp kernel state.
pub struct WarpKernel<'a> {
    /// The graph being matched: the launch's, or — in a staged run — the
    /// view of the stage the current level-0 index belongs to.
    g: &'a Graph,
    plan: &'a MatchPlan,
    /// `plan`'s lowered stream and side tables: all the claim loop reads.
    bc: &'a PlanBytecode,
    cfg: &'a EngineConfig,
    board: &'a Board,
    warp_id: usize,
    /// Pattern size (number of levels).
    k: usize,
    /// Effective stop level (stealable shallow depth).
    stop: usize,
    /// How many raw iterations each level claims at once, and the arena
    /// slots that affords each set (`bc.slot_table(cfg.unroll, stop)`).
    slots: SlotTable,
    /// The warp's flat candidate-set slab (the paper's `C` array).
    storage: StackArena,
    /// `batch[l]` = candidate vertices claimed for position `l-1` (the
    /// unroll slots of level `l`); `batch[0]` unused. Like the cursors
    /// below, fixed arrays inside the kernel: the per-level state is the
    /// paper's shared memory, not heap.
    batch: [Batch; MAX_PATTERN_SIZE + 1],
    /// Current unroll slot per level.
    uiter: [usize; MAX_PATTERN_SIZE + 1],
    /// Next candidate index within the current slot per level.
    iter: [usize; MAX_PATTERN_SIZE + 1],
    /// Vertex currently matched at each position.
    matched: [VertexId; MAX_PATTERN_SIZE],
    /// Level at which the current work item entered (0 for chunks,
    /// `payload.target` for stolen work).
    entry: usize,
    /// See [`KernelEnv::l0`].
    l0: Level0Map<'a>,
    /// The level-0 virtual index `matched[0]` was resolved from; published
    /// and stolen in its place (see [`StealPayload::matched`]).
    l0_index: usize,
    /// The level-1 pin of the current stage (staged runs only).
    pin: Option<VertexId>,
    /// Ping/pong scratch for multi-op set chains; the final chain op
    /// writes straight into the arena, so these only hold intermediates:
    /// one row per member of the widest batch whose level stages one
    /// ([`SlotTable::staged`]), none for a chain-free plan.
    ping: Vec<Vec<VertexId>>,
    pong: Vec<Vec<VertexId>>,
    /// Bitmap rows of the loop-invariant neighbor lists that lifted
    /// intersections re-read (see [`Marker`]).
    marker: Marker<'a>,
    /// The rank row of a lifted last level's counts, its cells lent by
    /// `storage`; `row` says which list it holds.
    rank: RankRow,
    row: Row,
    /// Levels `k - 2` and `k - 1` run fused ([`WarpKernel::count_tail`]): the
    /// last level counts a lifted list in closed form, its parent is deep.
    tail: bool,
    /// What the levels that claim are charged for validity.
    claim_cost: ClaimCost,
    /// Tail streams issued and the survivors they counted (`check hotpath`).
    tail_stats: [u64; 2],
    /// Valid last-level candidates scratch (enumeration only).
    emit_tail: Vec<VertexId>,
    /// Claims so far: the fault-injection ordinal ("die at the Nth claim").
    claims: u64,
    /// Raw iterations claimed since the clock was last read (see
    /// [`WarpKernel::cancelled`]).
    unpolled: usize,
    /// Mirror publishes so far (the fault-injection ordinal for
    /// poisoned-publish faults).
    publishes: u64,
    /// When enumerating, completed embeddings are appended here as
    /// `k`-strided records indexed by *pattern vertex* (not matching-order
    /// position).
    emit: Option<Vec<VertexId>>,
    /// Matches found since the last commit (see module docs on
    /// transactional counting).
    pending_matches: u64,
    /// `emit` length at the last commit; on death everything beyond it is
    /// discarded along with `pending_matches`.
    emit_mark: usize,
    /// The one shallow iteration claimed from the mirror but whose child
    /// range is not yet published (or, at the deepest shallow level, whose
    /// subtree is not yet committed): `(level, index)`.
    inflight: Option<(usize, usize)>,
    /// Work item being installed; authoritative over the (half-written)
    /// mirror if the warp dies mid-install.
    installing: Option<StealPayload>,
    /// Injected fault plan, if any (testing/chaos only; `None` on every
    /// production path).
    faults: Option<&'a FaultPlan>,
    /// The launch graph's hub-bitmap index, if it carries one: its rows are
    /// routed into the interpreter's set operations. `None` keeps every set
    /// operation on the classic element paths.
    hubs: Option<&'a HubBitmapIndex>,
}

impl<'a> WarpKernel<'a> {
    /// Builds warp `warp_id`'s kernel for one launch. A recycled
    /// [`StackArena`] (from a warm slot's pool) is reset to this kernel's
    /// geometry before use, reusing its heap blocks — the warm-pool path
    /// that amortizes the per-warp slab allocation across queries; `None`
    /// allocates fresh.
    pub fn new(
        env: &KernelEnv<'a>,
        board: &'a Board,
        warp_id: usize,
        faults: Option<&'a FaultPlan>,
        recycle: Option<StackArena>,
    ) -> Self {
        let KernelEnv {
            graph: g,
            plan,
            cfg,
            slab_caps,
            ..
        } = *env;
        // Hub rows follow the graph: routed iff it carries an index.
        let hubs = g.hub_bitmap();
        let k = plan.num_levels();
        let bc = plan.bytecode();
        let stop = board.stop();
        let slots = bc.slot_table(cfg.unroll, stop);
        // Tight slab capacity: every candidate list descends from some
        // neighbor list through shrinking ops, so no list outgrows the
        // graph's max degree. Budget accounting still reserves the paper's
        // fixed `max_degree_slab` per slot (see `Engine::attempt`); allocating
        // tighter just packs the slabs densely for the cache.
        let cap = cfg.max_degree_slab.min(g.max_degree().max(1));
        // Certificate-shaped slabs: the launch may carry per-set capacity
        // bounds from a clean static verification. They are sound upper
        // bounds on candidate-list sizes, so clamping each slab to
        // `min(bound, cap)` packs the arena tighter without introducing a
        // single new spill — a set either fit its bound (≤ shaped cap) or
        // would have spilled at `cap` anyway.
        let mut set_caps = [cap; MAX_SETS];
        if let Some(caps) = slab_caps.filter(|_| hubs.is_none()) {
            for (shaped, &bound) in set_caps.iter_mut().zip(caps) {
                *shaped = (bound as usize).clamp(1, cap);
            }
        }
        let set_caps = &set_caps[..slots.num_sets()];
        let (tail, row) = env.last_levels(stop);
        let row_cells = match row {
            Row::None => 0,
            _ => RankRow::cells(g.num_vertices()),
        };
        let mut storage = match recycle {
            Some(mut arena) => {
                arena.reset(&slots, set_caps, row_cells);
                arena
            }
            None => StackArena::new_shaped(&slots, set_caps, row_cells),
        };
        if let Some(hx) = hubs {
            // Result-row storage so bitmap-domain results cascade to
            // dependent sets; sized here (construction) to keep the claim
            // path allocation-free.
            storage.enable_set_bits(hx.stride());
        }
        let (marked, stride) = env.marker_rows();
        let words = storage.take_marker_words(marked.count_ones() as usize * stride);
        WarpKernel {
            g,
            plan,
            bc,
            cfg,
            board,
            warp_id,
            k,
            stop,
            slots,
            storage,
            batch: [Batch::EMPTY; MAX_PATTERN_SIZE + 1],
            uiter: [0; MAX_PATTERN_SIZE + 1],
            iter: [0; MAX_PATTERN_SIZE + 1],
            matched: [0; MAX_PATTERN_SIZE],
            entry: 0,
            ping: vec![Vec::new(); slots.staged()],
            pong: vec![Vec::new(); slots.staged()],
            marker: Marker::new(marked, stride, words),
            rank: RankRow::default(),
            row,
            tail,
            claim_cost: ClaimCost::new(bc, stop, tail),
            tail_stats: [0; 2],
            emit_tail: Vec::new(),
            claims: 0,
            unpolled: 0,
            publishes: 0,
            l0: env.l0,
            l0_index: 0,
            pin: None,
            emit: env.enumerate.then(Vec::new),
            pending_matches: 0,
            emit_mark: 0,
            inflight: None,
            installing: None,
            faults,
            hubs,
        }
    }

    /// Drains the embeddings collected under [`KernelEnv::enumerate`], as a
    /// flat buffer of `k`-strided records.
    pub fn take_emitted(&mut self) -> Vec<VertexId> {
        self.emit_mark = 0;
        self.emit.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Appends the embedding `matched[0..k-1] + v` remapped from matching
    /// order to pattern vertex ids, as one more `k`-strided record.
    fn emit_match(&mut self, v: VertexId) {
        let k = self.k;
        let order = self.plan.order();
        let emb = self.emit.as_mut().expect("enumeration enabled");
        let base = emb.len();
        emb.resize(base + k, 0);
        for pos in 0..k - 1 {
            emb[base + order.vertex_at(pos)] = self.matched[pos];
        }
        emb[base + order.vertex_at(k - 1)] = v;
    }

    /// Per-level validity context, including the level-1 pin of a staged
    /// run's current stage. Pins exist only at level 1, so every other
    /// level resolves exactly as before.
    #[inline]
    fn validity(&self, l: usize) -> Validity<'a> {
        let mut vy = Validity::new(self.bc, l);
        if l == 1 {
            vy.pin = self.pin;
        }
        vy
    }

    /// The data vertex of level-0 virtual index `idx`. A staged run also
    /// moves onto that stage's view and level-1 pin, which then hold for
    /// the index's whole subtree: level 0 is always shallow, so it is
    /// claimed one index at a time and every deeper batch shares the stage.
    #[inline]
    fn enter_level0(&mut self, idx: usize) -> VertexId {
        self.l0_index = idx;
        match self.l0 {
            Level0Map::Identity => idx as VertexId,
            Level0Map::Order(order) => order[idx],
            Level0Map::Staged { edges, views } => {
                let (a, b) = edges[idx / 2];
                let (v, pin) = if idx.is_multiple_of(2) {
                    (a, b)
                } else {
                    (b, a)
                };
                self.g = &views[idx / 2];
                self.pin = Some(pin);
                v
            }
        }
    }

    /// Periodic cooperative cancellation check on the claim paths: cheap
    /// flag read per claim, a real clock read every few thousand claimed
    /// raw iterations — iterations, not claims, so how long a cancelled run
    /// lingers does not grow with the width of its claims. Also the
    /// claim-ordinal fault-injection point (may panic or stall when a plan
    /// is attached).
    #[inline]
    fn cancelled(&mut self) -> bool {
        self.claims = self.claims.wrapping_add(1);
        if let Some(f) = self.faults {
            f.at_claim(self.warp_id, self.claims);
        }
        if self.unpolled >= 4096 {
            self.unpolled = 0;
            self.board.check_deadline()
        } else {
            self.board.aborted()
        }
    }

    /// Commits the open transaction: flushes the pending tally to the
    /// warp's counters, advances the emit watermark, and clears the
    /// in-flight marker (its subtree is now fully accounted for). Called
    /// at shallow claim boundaries and at run exit.
    fn commit(&mut self, warp: &mut Warp) {
        if self.pending_matches != 0 {
            warp.metrics_mut().matches_found += self.pending_matches;
            self.pending_matches = 0;
        }
        if let Some(emb) = self.emit.as_ref() {
            self.emit_mark = emb.len();
        }
        self.inflight = None;
    }

    /// Candidate-list spill events (slab overflows) observed so far.
    pub fn spill_events(&self) -> u64 {
        self.storage.spill_events()
    }

    /// High-water mark of live candidate cells across this warp's arena —
    /// the runtime observable audited against the static certificate's
    /// `ResourceCert::peak_cells` bound.
    pub fn peak_slab_cells(&self) -> u64 {
        self.storage.peak_slab_cells()
    }

    /// Tail streams issued and survivors counted ([`WarpKernel::count_tail`]).
    pub fn tail_stats(&self) -> [u64; 2] {
        self.tail_stats
    }

    /// Surrenders the kernel's arena for recycling (warm-pool path),
    /// leaving a zero-capacity placeholder behind. Call only when the
    /// kernel is done running.
    pub fn take_arena(&mut self) -> StackArena {
        self.storage
            .put_marker_words(std::mem::take(&mut self.marker).words);
        std::mem::replace(
            &mut self.storage,
            StackArena::new(&SlotTable::with_slots(&[]), 0),
        )
    }

    /// Death reclaim: rolls the open transaction back (uncommitted tally
    /// and emitted records are dropped) and returns every work item the
    /// dead warp still owned — the mirror's remaining shallow ranges, the
    /// in-flight iteration, or the item being installed — as payloads
    /// whose replay recounts exactly the dropped work. The mirror is
    /// zeroed so concurrent stealers see a drained victim.
    pub fn reclaim_on_death(&mut self) -> Vec<StealPayload> {
        self.pending_matches = 0;
        if let Some(emb) = self.emit.as_mut() {
            emb.truncate(self.emit_mark);
        }
        let mut out = Vec::new();
        let mut m = self.board.mirror(self.warp_id).lock();
        if let Some(p) = self.installing.take() {
            // Died mid-install: the mirror is half-written and the payload
            // itself is still the authoritative description of the work.
            m.clear();
            self.inflight = None;
            out.push(p);
            return out;
        }
        for l in 0..self.stop {
            if m.iter[l] < m.size[l] {
                out.push(m.payload(l, m.iter[l], m.size[l]));
            }
        }
        m.clear();
        if let Some((l, idx)) = self.inflight.take() {
            out.push(m.payload(l, idx, idx + 1));
        }
        out
    }

    /// Installs a work item — a level-0 chunk (`target == 0`, empty prefix:
    /// only the mirror moves) or a stolen/requeued stack: restores the
    /// matched prefix (resolving its level-0 index — and with it a staged
    /// run's view and pin), recomputes the candidate sets of every level up
    /// to the target (they are deterministic functions of the prefix), and
    /// points the mirror at the iteration range.
    pub fn install(&mut self, warp: &mut Warp, p: &StealPayload) {
        debug_assert_eq!(p.matched.len(), p.target);
        self.installing = Some(p.clone());
        self.marker.begin_item();
        self.matched[..p.target].copy_from_slice(&p.matched);
        if p.target >= 1 {
            self.matched[0] = self.enter_level0(p.matched[0] as usize);
        }
        for l in 1..=p.target {
            self.batch[l].clear();
            self.batch[l].push(self.matched[l - 1]);
            self.uiter[l] = 0;
            self.iter[l] = 0;
            self.compute_sets(warp, l);
        }
        let mut m = self.board.mirror(self.warp_id).lock();
        m.clear();
        m.matched[..p.target].copy_from_slice(&p.matched);
        m.iter[p.target] = p.lo;
        m.size[p.target] = p.hi;
        self.entry = p.target;
        self.installing = None;
    }

    /// Runs the installed work item to exhaustion, adding matches to the
    /// warp's counters.
    pub fn run(&mut self, warp: &mut Warp) {
        if self.k == 1 {
            // Degenerate single-vertex pattern: count valid level-0
            // candidates directly.
            while let Some(v) = self.claim_shallow(warp, 0) {
                self.pending_matches += 1;
                if let Some(emb) = self.emit.as_mut() {
                    emb.push(v);
                }
            }
            self.commit(warp);
            return;
        }
        let mut l = self.entry;
        loop {
            if !self.claim(warp, l) {
                if l == self.entry {
                    self.commit(warp);
                    return;
                }
                l -= 1;
                continue;
            }
            // `claim` filled `batch[l + 1]` with valid candidates for
            // position `l`.
            self.begin_level(warp, l + 1);
            if l + 1 == self.k - 1 {
                self.count_last_level(warp);
                // Stay at level l; keep claiming.
            } else if self.tail && l + 1 == self.k - 2 {
                self.count_tail(warp);
            } else {
                l += 1;
            }
        }
    }

    /// Claims the next batch of valid candidates for position `l` into
    /// `batch[l + 1]`. Returns false when level `l` is exhausted.
    fn claim(&mut self, warp: &mut Warp, l: usize) -> bool {
        if l < self.stop {
            match self.claim_shallow(warp, l) {
                Some(v) => {
                    self.batch[l + 1].clear();
                    self.batch[l + 1].push(v);
                    true
                }
                None => false,
            }
        } else {
            self.claim_deep(warp, l)
        }
    }

    /// Shallow claim: one validity-checked candidate through the mirror
    /// (charged a validity wave only where [`ClaimCost::waves`] says).
    fn claim_shallow(&mut self, warp: &mut Warp, l: usize) -> Option<VertexId> {
        // Claim boundary: the previously claimed iteration's subtree (if
        // any) is fully explored, and everything not yet started lives in
        // the mirror — commit the open transaction.
        self.commit(warp);
        loop {
            if self.cancelled() {
                return None;
            }
            let idx = {
                // This acquisition is the race checker's canonical "locked
                // access" to mirror[warp_id]: the simt_check kill gate
                // deletes exactly this kind of acquisition (see
                // `steal::mutation::claim_shallow_without_lock`) and the
                // detector must name this site as the racing partner.
                let mut m = self.board.mirror(self.warp_id).lock();
                if m.iter[l] < m.size[l] {
                    let i = m.iter[l];
                    m.iter[l] += 1;
                    // Record the in-flight iteration under the same lock
                    // that claims it: from here until the child range is
                    // published (or the subtree commits), this index exists
                    // nowhere else — on death it is requeued verbatim.
                    self.inflight = Some((l, i));
                    self.unpolled += 1;
                    Some(i)
                } else {
                    None
                }
            }?;
            // §V-B detection hook: when claiming at a level below
            // DetectLevel, a busy warp offers work to fully-idle blocks.
            if self.cfg.global_steal
                && l < self.cfg.detect_level
                && self.board.try_push_global(self.warp_id)
            {
                Source::GlobalPush.note(warp);
            }
            let v = if l == 0 {
                self.enter_level0(idx)
            } else {
                self.candidate_list(l, 0)[idx]
            };
            if self.claim_cost.waves >> l & 1 == 1 {
                warp.charge(Site::Claim, Cost::Lanes(1));
            }
            if self.valid(l, v) {
                return Some(v);
            }
        }
    }

    /// Deep claim: up to the level's width ([`SlotTable::width`]) of raw
    /// iterations from the current slot, validity-filtered into
    /// `batch[l + 1]` (slots never mix: all unroll candidates share one
    /// matched path) — one validity wave over the batch where
    /// [`ClaimCost::waves`] says, else free.
    fn claim_deep(&mut self, warp: &mut Warp, l: usize) -> bool {
        let vy = self.validity(l);
        loop {
            if self.cancelled() {
                return false;
            }
            if self.uiter[l] >= self.batch[l].len {
                return false;
            }
            let (cid, slot) = self.candidate_location(l, self.uiter[l]);
            let cl_len = self.storage.slot(cid, slot).len();
            if self.iter[l] >= cl_len {
                // Current slot exhausted: advance the unroll iterate, which
                // moves the matched vertex at position l-1 (Fig. 7 line 22).
                self.uiter[l] += 1;
                self.iter[l] = 0;
                if self.uiter[l] < self.batch[l].len {
                    self.matched[l - 1] = self.batch[l].slots[self.uiter[l]];
                }
                continue;
            }
            let start = self.iter[l];
            let take = (cl_len - start).min(self.slots.width(l));
            self.iter[l] += take;
            self.unpolled += take;
            // Validity filtering straight from the slab (disjoint fields:
            // storage vs batch).
            if self.claim_cost.waves >> l & 1 == 1 {
                warp.charge(Site::Claim, Cost::Lanes(take));
            }
            let (g, matched) = (self.g, &self.matched);
            let claimed = &self.storage.slot(cid, slot)[start..start + take];
            let next = &mut self.batch[l + 1];
            next.clear();
            for &v in claimed {
                if vy.check(g, matched, v) {
                    next.push(v);
                }
            }
            if next.len != 0 {
                return true;
            }
        }
    }

    /// Enters level `l`: resets its cursors, fixes `matched[l-1]` to the
    /// first slot, computes all of the level's sets for every slot, charges
    /// the batch's key wave where the level is [`ClaimCost::keyed`], and
    /// publishes the stealable state when `l` is shallow.
    fn begin_level(&mut self, warp: &mut Warp, l: usize) {
        debug_assert!(self.batch[l].len != 0);
        self.uiter[l] = 0;
        self.iter[l] = 0;
        self.matched[l - 1] = self.batch[l].slots[0];
        self.compute_sets(warp, l);
        if self.claim_cost.keyed >> l & 1 == 1 && !self.candidate_list(l, 0).is_empty() {
            // Per slot, the window the bounds leave of the lifted list and
            // the places of the `inj` positions' vertices in it: what the
            // claims then read valid candidates off, wave-free.
            let vy = self.validity(l);
            let keys = vy.bounds.len() + vy.inj.count_ones() as usize;
            warp.charge(Site::CountPass, Cost::Lanes(self.batch[l].len * keys));
        }
        // One mirror lock publishes the whole stealable view of the level:
        // `matched[l-1]`, plus level `l`'s iteration range when `l` itself
        // is shallow. Publishing after `compute_sets` is safe: a stealer
        // targeting level `l` needs `size[l] - iter[l] >= 2`, and until
        // this store lands the previous range at `l` is fully drained
        // (`iter == size`), so no stealer can observe a half-updated view.
        if l - 1 < self.stop {
            let size = if l < self.stop {
                let (cid, slot) = self.candidate_location(l, 0);
                Some(self.storage.slot(cid, slot).len())
            } else {
                None
            };
            let mut m = self.board.mirror(self.warp_id).lock();
            // Level 0 is published as its virtual index, the form a stolen
            // prefix travels in.
            m.matched[l - 1] = if l == 1 {
                self.l0_index as VertexId
            } else {
                self.batch[l].slots[0]
            };
            if let Some(size) = size {
                m.iter[l] = 0;
                m.size[l] = size;
                // The published range now describes the in-flight claim's
                // entire subtree; requeueing both on death would double
                // count, so the marker dies with the publish. (When `l ==
                // stop` no range is published and the marker survives until
                // the subtree commits.)
                self.inflight = None;
            }
            self.publishes = self.publishes.wrapping_add(1);
            if let Some(f) = self.faults {
                // Publish-ordinal injection point: a panic here unwinds
                // while holding the mirror lock, poisoning it — exactly the
                // torn-publish failure `Mirror::lock`'s recovery contract
                // covers. The tracked guard's release token still fires
                // during the unwind (before the mutex unlocks), so the
                // race checker sees a clean release even on this path —
                // see `FaultPlan::at_publish`.
                f.at_publish(self.warp_id, self.publishes);
            }
        }
    }

    /// Resolves the (set id, storage slot) of the candidate list for
    /// position `l`, slot `u`, honoring lifted (code-moved) candidate sets:
    /// a set computed at an earlier level is indexed by that level's
    /// current unroll slot.
    #[inline]
    fn candidate_location(&self, l: usize, u: usize) -> (usize, usize) {
        let (cid, def_level) = self.bc.candidate(l);
        let slot = if def_level == l {
            u
        } else {
            self.uiter[def_level]
        };
        (cid, slot)
    }

    /// The candidate list for position `l`, slot `u`.
    #[inline]
    fn candidate_list(&self, l: usize, u: usize) -> &[VertexId] {
        let (cid, slot) = self.candidate_location(l, u);
        self.storage.slot(cid, slot)
    }

    /// Computes every set of `level` for all slots of its batch, as combined
    /// warp-wide operations (Fig. 8) streaming straight into the arena: one
    /// set-operation call per instruction of the plan's lowered stream.
    ///
    /// Slot source/input/operand slices live in fixed stack arrays (no
    /// per-set `Vec` collects), and only multi-op chains touch the
    /// ping/pong scratch — a set's final instruction always lands in its
    /// arena slab via [`StackArena::split_for_write`], which the stream's
    /// dependencies-precede-dependents order makes alias-free.
    ///
    /// With a hub index attached, the same calls carry bitmap rows: an
    /// operand that is a hub brings its row; an `ApplyFromSet` input brings
    /// the hub row of the vertex whose neighbor list its dependency slab
    /// equals ([`Instr::dep_pos`](stmatch_pattern::Instr)) or, failing that,
    /// the slab's own sealed result row; and the slots of a neighbor-based
    /// chain whose base and every step operand are hubs skip the element
    /// stream and run the whole chain fused in the bitmap domain once its
    /// last step has landed.
    ///
    /// Without an index the only rows are the kernel's own: an intersection
    /// whose input is a lifted verbatim neighbor list
    /// ([`Instr::lifted_list_pos`](stmatch_pattern::Instr::lifted_list_pos))
    /// brings that list's [`Marker`] row as the input row of every slot, so
    /// slots whose operand is the shorter side stream it against the row —
    /// and are charged its lanes — instead of walking the long list again.
    /// Every other call is the classic element-path call.
    ///
    /// The one place that decides how a set operation's waves close
    /// ([`Close`]): a counting launch's last-level candidate only counts (no
    /// ballots) — Fig. 3 line 16 adds its survivors up and never iterates
    /// them; the candidate of a [`ClaimCost::masked`] level adds a validity
    /// ballot; every other write compacts.
    fn compute_sets(&mut self, warp: &mut Warp, level: usize) {
        let prog = self.bc.instrs_at(level);
        if prog.is_empty() {
            // The level's candidate was lifted to an earlier level.
            return;
        }
        let cand = self.bc.candidate(level).0;
        let last_close = if self.emit.is_none() && level == self.k - 1 {
            Close::Counted
        } else if self.claim_cost.masked >> level & 1 == 1 {
            Close::Masked
        } else {
            Close::Compacted
        };
        let batch = self.batch[level];
        let bat = batch.as_slice();
        let m = bat.len();
        debug_assert!(m >= 1 && m <= self.slots.width(level - 1));
        let g = self.g;
        let hubs = self.hubs;
        let tuning = self.cfg.setops;
        // Small copy of the matched prefix so no closure needs `self`.
        let matched = self.matched;
        let vertex_at = |pos: usize, u: usize| -> VertexId {
            if pos == level - 1 {
                bat[u]
            } else {
                matched[pos]
            }
        };
        const EMPTY: &[VertexId] = &[];
        const NO_BITS: Option<&[u64]> = None;
        let no_bits = [NO_BITS; MAX_UNROLL];
        // Hub rows of the vertices at `pos`, one per slot.
        let rows_at = |hx: &'a HubBitmapIndex, pos: usize| -> [Option<&'a [u64]>; MAX_UNROLL] {
            std::array::from_fn(|u| {
                if u < m {
                    hx.row(vertex_at(pos, u))
                } else {
                    None
                }
            })
        };
        // The open neighbor-based chain: where it began and which slots run
        // it fused (set by `BeginChain`, consumed by the chain's last step).
        let mut chain_at = 0usize;
        let mut fused = [false; MAX_UNROLL];
        let mut fused_any = false;
        for (i, ins) in prog.iter().enumerate() {
            let pos = ins.pos as usize;
            let dst = ins.dst as usize;
            let close = if ins.last && dst == cand {
                last_close
            } else {
                Close::Compacted
            };
            let mut lists = [EMPTY; MAX_UNROLL];
            for (u, l) in lists.iter_mut().enumerate().take(m) {
                *l = g.neighbors(vertex_at(pos, u));
            }
            // Combines `inputs` with the neighbor lists at `pos` into `$out`.
            macro_rules! apply {
                ($inputs:expr, $input_bits:expr, $out:expr) => {{
                    let operand_rows = hubs.map(|hx| rows_at(hx, pos));
                    setops::apply_op_into(
                        warp,
                        g,
                        &$inputs[..m],
                        &$input_bits[..m],
                        &lists[..m],
                        operand_rows.as_ref().map_or(&no_bits[..m], |r| &r[..m]),
                        ins.kind,
                        ins.mask,
                        tuning,
                        close,
                        $out,
                    )
                }};
            }
            match ins.code {
                OpCode::MaterializeBase => {
                    let (_, mut sink) = self.storage.split_for_write(dst, m);
                    materialize_base_into(warp, g, &lists[..m], ins.mask, close, &mut sink);
                }
                OpCode::BeginChain => {
                    chain_at = i;
                    fused_any = false;
                    if let Some(hx) = hubs {
                        let steps = prog[i + 1..]
                            .iter()
                            .take_while(|s| s.code == OpCode::ChainStep);
                        for (u, f) in fused.iter_mut().enumerate().take(m) {
                            *f = hx.is_hub(vertex_at(pos, u))
                                && steps
                                    .clone()
                                    .all(|s| hx.is_hub(vertex_at(s.pos as usize, u)));
                            if *f {
                                lists[u] = EMPTY;
                                fused_any = true;
                            }
                        }
                    }
                    materialize_base_into(
                        warp,
                        g,
                        &lists[..m],
                        ins.mask,
                        Close::Compacted,
                        &mut self.ping[..m],
                    );
                }
                OpCode::ApplyFromSet => {
                    fused_any = false;
                    let dep = ins.dep as usize;
                    let dep_level = ins.dep_level as usize;
                    // Split even when the result is staged: the split is
                    // also the shadow-store write event for `dst`, and
                    // dependency slots are read through its read view.
                    let (read, mut sink) = self.storage.split_for_write(dst, m);
                    let mut inputs = [EMPTY; MAX_UNROLL];
                    // One lifted list serves the whole batch: its marker
                    // row is every slot's input row (no index routed).
                    let mut input_rows = match ins.lifted_list_pos(level) {
                        Some(p) if hubs.is_none() => {
                            let list = g.neighbors(matched[p]);
                            debug_assert_eq!(
                                read.slot(dep, self.uiter[dep_level]),
                                list,
                                "dep_pos names another list"
                            );
                            Some([Some(self.marker.row(warp, p, list)); MAX_UNROLL])
                        }
                        _ => hubs.map(|_| no_bits),
                    };
                    for (u, inp) in inputs.iter_mut().enumerate().take(m) {
                        let slot = if dep_level == level {
                            u
                        } else {
                            self.uiter[dep_level]
                        };
                        *inp = read.slot(dep, slot);
                        let (Some(hx), Some(rows)) = (hubs, input_rows.as_mut()) else {
                            continue;
                        };
                        if ins.dep_pos != NO_POS {
                            let v = vertex_at(ins.dep_pos as usize, u);
                            debug_assert_eq!(*inp, g.neighbors(v), "dep_pos names another list");
                            rows[u] = hx.row(v);
                        }
                        // No hub row? A sealed arena row (the slot was
                        // itself produced by a bitmap merge) serves the
                        // same role, cascading word-parallel ops down whole
                        // dependency chains — the deep levels of
                        // clique-like queries.
                        if rows[u].is_none() {
                            rows[u] = read.slot_bits(dep, slot);
                            debug_assert!(rows[u].is_none_or(|bits| inp.len()
                                == bits.iter().map(|w| w.count_ones() as usize).sum::<usize>()));
                        }
                    }
                    let input_bits = input_rows.as_ref().unwrap_or(&no_bits);
                    if ins.last {
                        apply!(inputs, input_bits, &mut sink);
                    } else {
                        apply!(inputs, input_bits, &mut self.ping[..m]);
                    }
                }
                // Inputs are scratch lists, so never rows; hub operands
                // still upgrade the membership probes.
                OpCode::ChainStep => {
                    let mut inputs = [EMPTY; MAX_UNROLL];
                    for (u, inp) in inputs.iter_mut().enumerate().take(m) {
                        *inp = self.ping[u].as_slice();
                    }
                    if !ins.last {
                        apply!(inputs, no_bits, &mut self.pong[..m]);
                        std::mem::swap(&mut self.ping, &mut self.pong);
                        continue;
                    }
                    {
                        let (_, mut sink) = self.storage.split_for_write(dst, m);
                        apply!(inputs, no_bits, &mut sink);
                    }
                    if !fused_any {
                        continue;
                    }
                    // Fused slots: the whole chain in the bitmap domain,
                    // ping/pong word scratch lent by the arena, final op
                    // extracted straight into the slot (re-`begin`s it
                    // after the empty element leg above).
                    let hx = hubs.expect("fused slots imply an index");
                    let base_pos = prog[chain_at].pos as usize;
                    let steps = &prog[chain_at + 1..=i];
                    const NO_ROW: &[u64] = &[];
                    let mut chain = [(OpKind::Intersect, NO_ROW); MAX_PATTERN_SIZE];
                    let (_, mut sink, bits_ping, bits_pong) =
                        self.storage.split_for_write_bits(dst, m, hx.stride());
                    for u in (0..m).filter(|&u| fused[u]) {
                        let row = |pos: usize| hx.row(vertex_at(pos, u)).expect("fused on hubs");
                        for (c, s) in chain.iter_mut().zip(steps) {
                            *c = (s.kind, row(s.pos as usize));
                        }
                        setops::apply_chain_bits_into(
                            warp,
                            g,
                            u,
                            row(base_pos),
                            &chain[..steps.len()],
                            ins.mask,
                            close,
                            bits_ping,
                            bits_pong,
                            &mut sink,
                        );
                    }
                }
            }
        }
    }

    /// Last level: counts (or, when enumerating, outputs) the valid
    /// candidates of every slot instead of iterating them (Fig. 3 line 16).
    ///
    /// The counting path exploits sortedness: the symmetry bounds select a
    /// contiguous window of the candidate list and injectivity subtracts the
    /// matched vertices of the level's
    /// [`inj`](stmatch_pattern::bytecode::LevelMeta::inj) positions inside it.
    /// A list computed at this level is a fresh list per slot, searched per
    /// slot ([`count_valid_sorted`]); a lifted one — here only under a shallow
    /// parent level, a deep one runs [`WarpKernel::count_tail`] — is clipped
    /// ([`Clip`]) at the slot's own vertex by one rank in the warp's
    /// [`RankRow`] of it.
    ///
    /// On the simulated machine a list computed at this level gets no pass:
    /// its survivors were lanes of the level's final set-operation stream — a
    /// counting [`Cost::Stream`] (no ballots) unless enumerating —
    /// and the validity predicate rides in that lane instruction. A lifted
    /// list costs count lanes (private tallies, no ballot): one per slot in
    /// closed form — the shallow parent claimed and checked the slot on its
    /// own — and one per (slot, element) when `enumerate`, a residual label
    /// or a pin has to touch every element.
    fn count_last_level(&mut self, warp: &mut Warp) {
        let l = self.k - 1;
        let slots = self.batch[l].len;
        let vy = self.validity(l);
        let def = self.bc.candidate(l).1;
        let lifted = def != l;
        let closed = self.emit.is_none() && vy.resid.is_none() && vy.pin.is_none();
        if lifted {
            let n = self.candidate_list(l, 0).len();
            let lanes = if closed { slots } else { slots * n };
            warp.charge(Site::CountPass, Cost::Lanes(lanes));
        }
        let mut total = 0u64;
        for u in 0..slots {
            self.matched[l - 1] = self.batch[l].slots[u];
            let (cid, slot) = self.candidate_location(l, u);
            let g = self.g;
            if self.emit.is_some() {
                let mut tail = std::mem::take(&mut self.emit_tail);
                tail.clear();
                let cl = self.storage.slot(cid, slot);
                tail.extend(cl.iter().filter(|&&v| vy.check(g, &self.matched, v)));
                total += tail.len() as u64;
                for &v in &tail {
                    self.emit_match(v);
                }
                self.emit_tail = tail;
            } else if !closed {
                // Residual label checks — and the level-1 pin of a
                // 2-vertex staged run, which the closed form below does
                // not model — need a per-element probe.
                total += vy.count(g, &self.matched, self.storage.slot(cid, slot));
            } else if lifted {
                debug_assert!(self.row == Row::Last);
                let (read, cells) = self.storage.lists_and_row();
                let (cl, matched) = (read.slot(cid, slot), &self.matched);
                let mut ranks = self.rank.of(cells, cl, cid, self.l0_index, &matched[..def]);
                let (c, hit) = ranks.rank(matched[l - 1]);
                let n = Clip::new(cl.len(), matched, &vy, l - 1, |x| ranks.rank(x)).count(c, hit);
                total += closed_form(n, l, matched, cl, || vy.count(g, matched, cl));
            } else {
                let (cl, matched) = (self.storage.slot(cid, slot), &self.matched);
                let n = count_valid_sorted(cl, matched, &vy);
                total += closed_form(n, l, matched, cl, || vy.count(g, matched, cl));
            }
        }
        self.pending_matches += total;
    }

    /// The fused tail: the last level counts a lifted list in closed form and
    /// its parent level `l = k - 2` is deep, so the pair is one loop nest that
    /// computes no set, and it runs here for all of `batch[l]` at once instead
    /// of a `claim_deep` → `begin_level` → `count_last_level` round trip per
    /// claim. Each slot moves `matched[l - 1]` and counts the pairs of its
    /// level-`l` list V and the last level's list W that validity admits
    /// against the warp's [`RankRow`] of one of them ([`TailSlot::count`]).
    /// `cancelled` is polled per (slot, claim-width chunk of V), like the
    /// claims this replaces; [`charge_tail`] charges the warp once, from
    /// lengths.
    fn count_tail(&mut self, warp: &mut Warp) {
        let l = self.k - 2;
        let (vy, vz) = (self.validity(l), self.validity(l + 1));
        let width = self.slots.width(l);
        let m = self.batch[l].len;
        let (v_def, w_def) = (self.bc.candidate(l).1, self.bc.candidate(l + 1).1);
        let (mut streamed, mut survivors, mut total) = (0usize, 0u64, 0u64);
        'batch: for u in 0..m {
            self.uiter[l] = u;
            self.matched[l - 1] = self.batch[l].slots[u];
            let (v_cid, v_slot) = self.candidate_location(l, u);
            let (w_cid, w_slot) = self.candidate_location(l + 1, 0);
            let len = self.storage.slot(v_cid, v_slot).len();
            for start in (0..len).step_by(width) {
                let take = (len - start).min(width);
                self.unpolled += take;
                if self.cancelled() {
                    break 'batch;
                }
                streamed += take;
            }
            let (g, l0_index) = (self.g, self.l0_index);
            let (read, cells) = self.storage.lists_and_row();
            let (v, w) = (read.slot(v_cid, v_slot), read.slot(w_cid, w_slot));
            let matched = &self.matched;
            let against = match self.row {
                Row::Parent => {
                    Against::V(self.rank.of(cells, v, v_cid, l0_index, &matched[..v_def]))
                }
                Row::Last => Against::W(self.rank.of(cells, w, w_cid, l0_index, &matched[..w_def])),
                Row::None => Against::Itself,
            };
            let slot = TailSlot { v, w, vy, vz, l };
            let (s, n) = slot.count(g, matched, against);
            survivors += s;
            total += closed_form(n, l, matched, v, || slot.reference(g, matched));
        }
        let p = vz.bounds.iter().filter(|b| b.0 != l).count()
            + (vz.inj & !(1 << l)).count_ones() as usize;
        let here = self.bc.candidate(l).1 == l;
        self.tail_stats[0] += charge_tail(warp, width, here, m, p, streamed);
        self.tail_stats[1] += survivors;
        self.pending_matches += total;
    }

    /// Validity of candidate `v` at position `l`: label (level 0 only —
    /// deeper candidates come from label-filtered sets), injectivity, and
    /// symmetry bounds.
    #[inline]
    fn valid(&self, l: usize, v: VertexId) -> bool {
        if l == 0 {
            if let Some(lbl) = self.bc.level_meta(0).label {
                if self.g.label(v) != lbl {
                    return false;
                }
            }
        }
        self.validity(l).check(self.g, &self.matched, v)
    }
}

/// The simulated cost of one parent batch's fused tail
/// ([`WarpKernel::count_tail`]) — the only place it is charged, from lengths
/// alone: the batch's `m` slots, whether their level-`(k-2)` lists were
/// computed at that level (`here`), the `p` per-prefix searches of the last
/// level's key (its bounds and `inj` positions other than `k - 2`) and the
/// `streamed` elements of those lists. Two cost-table entries (DESIGN.md
/// §4c): a key wave of `m·p` [`Cost::Lanes`] (count pass), and one counting
/// [`Cost::Stream`] over all `streamed` elements (claim) whose size scan
/// maps lanes to `(slot, element)` — over `m` slots iff `here`, since a
/// lifted list has one length for every slot. In the stream each lane tests
/// its element's validity and, if it holds, finds the element's place in
/// the sorted lifted list and subtracts its hits — one lane instruction, as
/// a membership probe is — into a lane-private tally, so nothing is
/// compacted and no wave closes with a ballot. At `width` 1 (no unrolling)
/// every raw candidate is its own one-lane stream. Returns the streams
/// issued.
fn charge_tail(
    warp: &mut Warp,
    width: usize,
    here: bool,
    m: usize,
    p: usize,
    streamed: usize,
) -> u64 {
    if streamed == 0 {
        // Nothing to map or key, as for any empty stream.
        return 0;
    }
    warp.charge(Site::CountPass, Cost::Lanes(m * p));
    let span = if width == 1 { 1 } else { streamed };
    // Only the first stream maps the batch's slots.
    let mut slots = if here { m } else { 1 };
    for start in (0..streamed).step_by(span) {
        let lanes = span.min(streamed - start);
        warp.charge(
            Site::Claim,
            Cost::Stream {
                slots,
                lanes,
                close: Close::Counted,
            },
        );
        slots = 1;
    }
    streamed.div_ceil(span) as u64
}

/// Per-level validity context: the residual-label requirement, the
/// injectivity mask and the symmetry-bound list, resolved once per
/// claim/count pass instead of per candidate element (these lookups sit
/// inside million-element loops).
#[derive(Clone, Copy)]
struct Validity<'p> {
    resid: Option<stmatch_graph::Label>,
    /// [`LevelMeta::inj`](stmatch_pattern::bytecode::LevelMeta::inj): the
    /// positions a candidate can collide with.
    inj: u8,
    bounds: &'p [(usize, Bound)],
    /// The level-1 pin of a staged run's current stage (see
    /// [`Level0Map::Staged`]); `None` everywhere else.
    pin: Option<VertexId>,
}

/// The positions named by an injectivity mask, ascending.
#[inline]
fn positions(mut mask: u8) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let pos = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            pos
        })
    })
}

impl<'p> Validity<'p> {
    #[inline]
    fn new(bc: &'p PlanBytecode, l: usize) -> Self {
        let meta = bc.level_meta(l);
        Validity {
            resid: meta.resid,
            inj: meta.inj,
            bounds: bc.bounds(l),
            pin: None,
        }
    }

    /// Injectivity, residual-label and symmetry-bound check against the
    /// matched prefix.
    #[inline]
    fn check(&self, g: &Graph, matched: &[VertexId], v: VertexId) -> bool {
        if let Some(lbl) = self.resid {
            if g.label(v) != lbl {
                return false;
            }
        }
        if positions(self.inj).any(|pos| matched[pos] == v) {
            return false;
        }
        for &(pos, bound) in self.bounds {
            let ok = match bound {
                Bound::Less => v < matched[pos],
                Bound::Greater => v > matched[pos],
            };
            if !ok {
                return false;
            }
        }
        // Staged delta run: level 1 admits only the other endpoint of the
        // update edge level 0 was claimed from.
        self.pin.is_none_or(|pin| v == pin)
    }

    /// The elements of `cl` that pass [`Validity::check`].
    fn count(&self, g: &Graph, matched: &[VertexId], cl: &[VertexId]) -> u64 {
        cl.iter().filter(|&&v| self.check(g, matched, v)).count() as u64
    }
}

/// One level's claimed unroll slots: up to `MAX_UNROLL` vertices, in place.
#[derive(Clone, Copy)]
struct Batch {
    slots: [VertexId; MAX_UNROLL],
    len: usize,
}

impl Batch {
    const EMPTY: Batch = Batch {
        slots: [0; MAX_UNROLL],
        len: 0,
    };

    #[inline]
    fn as_slice(&self) -> &[VertexId] {
        &self.slots[..self.len]
    }

    #[inline]
    fn clear(&mut self) {
        self.len = 0;
    }

    #[inline]
    fn push(&mut self, v: VertexId) {
        self.slots[self.len] = v;
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use stmatch_gpusim::{Grid, GridConfig, WarpMetrics};
    use stmatch_graph::gen;
    use stmatch_pattern::{catalog, Pattern};

    /// One warp, no stealing.
    fn one_warp() -> EngineConfig {
        let mut cfg = EngineConfig::default().with_grid(GridConfig {
            num_blocks: 1,
            warps_per_block: 1,
            shared_mem_per_block: 100 * 1024,
        });
        cfg.local_steal = false;
        cfg.global_steal = false;
        cfg
    }

    /// Runs `body` with warp 0's kernel for `plan` on `g` under `cfg` (a
    /// [`one_warp`] config) and returns the warp's counters.
    fn with_kernel(
        g: &Graph,
        plan: &MatchPlan,
        cfg: EngineConfig,
        body: impl Fn(&mut WarpKernel<'_>, &mut Warp) + Sync,
    ) -> WarpMetrics {
        let stop = cfg.effective_stop(plan.num_levels());
        let board = Board::new(1, 1, stop, (0, g.num_vertices()), cfg.chunk_size);
        let env = KernelEnv {
            graph: g,
            plan,
            cfg: &cfg,
            slab_caps: None,
            l0: Level0Map::Identity,
            enumerate: false,
        };
        let grid = Grid::new(cfg.grid).unwrap();
        let metrics = grid.launch(|warp| {
            let mut kernel = WarpKernel::new(&env, &board, warp.id(), None, None);
            body(&mut kernel, warp);
        });
        metrics.total()
    }

    /// Runs the whole of `g` through one kernel.
    fn whole_graph(g: &Graph, plan: &MatchPlan, cfg: EngineConfig) -> WarpMetrics {
        with_kernel(g, plan, cfg, |kernel, warp| {
            kernel.install(warp, &StealPayload::chunk(0, g.num_vertices()));
            kernel.run(warp);
        })
    }

    /// Marker rows and the rank row outlive a work item, so a kernel that is
    /// handed its work in an unhelpful order — level-0 indices descending,
    /// every stolen level-1 range upper half first — must re-key both at each
    /// `install`. The pieces tile the whole-graph run exactly, with the
    /// last level's parent deep (a tail) and stealable (one rank per slot).
    /// (A debug build also cross-checks every marker row, every rank row and
    /// every closed-form count against the per-element reference.)
    #[test]
    fn installed_work_rekeys_the_marker_and_the_row() {
        let g = gen::preferential_attachment(64, 5, 21).degree_ordered();
        let n = g.num_vertices();
        // q1: a lifted last level under a bound on `l - 1`, V's row; q4: no
        // such bound, W's row; q7: V and W one list; q13: both lists lifted;
        // q3, q6, q2: marked intersections (q2 with both bound kinds at the
        // last level).
        for q in [1, 4, 7, 13, 3, 6, 2] {
            let plan = Engine::new(EngineConfig::default()).compile(&catalog::paper_query(q));
            let k = plan.num_levels();
            let lifted = plan.bytecode().candidate(k - 1).1 != k - 1;
            assert!(
                lifted || plan.bytecode().marked() != 0,
                "q{q} exercises neither"
            );
            for stop in [2, (k - 1).min(crate::steal::MAX_STOP)] {
                let mut cfg = one_warp();
                cfg.stop_level = stop;
                let whole = whole_graph(&g, &plan, cfg).matches_found;
                assert!(whole > 0, "q{q}");
                let pieces = with_kernel(&g, &plan, cfg, |kernel, warp| {
                    for idx in (0..n).rev() {
                        let stolen = |lo, hi| StealPayload {
                            target: 1,
                            matched: vec![idx as VertexId],
                            lo,
                            hi,
                        };
                        // An empty range installs the prefix (and computes
                        // level 1's sets), which is how the range's length
                        // is known.
                        kernel.install(warp, &stolen(0, 0));
                        let len = kernel.candidate_list(1, 0).len();
                        for (lo, hi) in [(len / 2, len), (0, len / 2)] {
                            kernel.install(warp, &stolen(lo, hi));
                            kernel.run(warp);
                        }
                    }
                });
                assert_eq!(pieces.matches_found, whole, "q{q} stop {stop}");
            }
        }
    }

    /// `m`'s claim and count-pass instructions, and that set operations are
    /// all it was charged beside them.
    fn sites(m: &WarpMetrics) -> (u64, u64) {
        let sites = (m.claim_instructions, m.count_pass_instructions);
        assert_eq!(
            m.simt_instructions,
            m.set_op_instructions + sites.0 + sites.1
        );
        sites
    }

    /// The simulated tail is [`charge_tail`]'s two entries, and the kernel
    /// charges nothing else there.
    #[test]
    fn the_last_level_is_charged_from_provenance_and_lengths() {
        // Three slots of a 40-element list, two searches per prefix:
        // `(claim, count_pass)` instructions, `(active, issued)` lanes.
        let charged = |width: usize, here: bool| {
            let grid = Grid::new(one_warp().grid).unwrap();
            let tail = |warp: &mut Warp| assert!(charge_tail(warp, width, here, 3, 2, 120) > 0);
            let m = grid.launch(tail).total();
            (sites(&m), (m.active_lane_slots, m.issued_lane_slots))
        };
        // Lifted: no scan, 4 counting waves (no ballot) and a key wave of 6
        // lanes. Computed at the level: the size scan on top. No unrolling: a
        // one-lane instruction per element.
        assert_eq!(charged(32, false), ((4, 1), (126, 160)));
        assert_eq!(charged(32, true), ((5 + 4, 1), (126 + 160, 160 + 160)));
        assert_eq!(charged(1, false), ((120, 1), (126, 32 * 121)));

        // In the kernel. Wedges on a 40-leaf star, level 1 deep: the last
        // level counts the lifted N(centre), so the centre's subtree is one
        // shallow claim and one tail — a counting stream of 40 (2 waves), no
        // key (the only bound is on position 1) — and each leaf's streams
        // and counts the one-element N(leaf). Without unrolling every element
        // is its own instruction.
        let star = gen::star(40);
        for (unroll, widths, centre, whole) in [
            (5, [1, 32], (1 + 2, 0), (41 + 2 + 40, 0)),
            (1, [1, 1], (1 + 40, 0), (41 + 40 + 40, 0)),
        ] {
            let mut cfg = one_warp().with_unroll(unroll);
            (cfg.stop_level, cfg.detect_level) = (1, 1);
            let wedge = Engine::new(cfg).compile(&catalog::wedge());
            assert_eq!(wedge.bytecode().candidate(2).1, 1, "lifted to level 1");
            assert_eq!(wedge.bytecode().slot_table(unroll, 1).widths(), widths);
            let m = with_kernel(&star, &wedge, cfg, |kernel, warp| {
                kernel.install(warp, &StealPayload::chunk(0, 1));
                kernel.run(warp);
            });
            assert_eq!(
                (m.matches_found, sites(&m)),
                (780, centre),
                "unroll {unroll}"
            );
            let m = whole_graph(&star, &wedge, cfg);
            assert_eq!(
                (m.matches_found, sites(&m)),
                (780, whole),
                "unroll {unroll}"
            );
        }

        // Triangles compute N(v0) ∩ N(v1) at the last level: the count rides
        // in that stream, no count-pass instruction is issued.
        let triangle = Engine::new(one_warp()).compile(&catalog::triangle());
        assert_eq!(triangle.bytecode().candidate(2).1, 2, "computed at level 2");
        let m = whole_graph(&gen::complete(9), &triangle, one_warp());
        assert_eq!((m.matches_found, sites(&m).1), (9 * 8 * 7 / 6, 0));
    }

    /// One parent batch whose slots hold an empty list, a list longer than a
    /// wave and one-element lists: tailed triangles from a hub 0 whose
    /// neighbours are 1 (nothing in common with 0), 2 (adjacent to 3..=40
    /// too) and 3..=40 (2 in common). The tail streams them together and
    /// counts what the per-element reference counts (a debug build holds
    /// every survivor's count to it inside `count_tail`).
    #[test]
    fn a_tail_spans_slots_of_any_length() {
        let mut edges: Vec<(VertexId, VertexId)> = (1..=40).map(|v| (0, v)).collect();
        edges.extend((3..=40).map(|v| (2, v)));
        let g = stmatch_graph::builder::graph_from_edges(41, &edges);
        let mut cfg = one_warp();
        (cfg.stop_level, cfg.detect_level) = (1, 1);
        let plan = Engine::new(cfg).compile(&catalog::tailed_triangle());
        let bc = plan.bytecode();
        assert_eq!((bc.candidate(2).1, bc.candidate(3).1), (2, 1));
        assert_eq!(bc.slot_table(cfg.unroll, 1).widths(), [1, 15, 32]);
        // The hub's subtree: a shallow claim, N(0) claimed as 15 + 15 + 10
        // slots — free: N(0) was computed at level 1, so its stream tested
        // their validity — one tail each — scan and a counting stream of
        // 0 + 38 + 13 elements (2 waves), then twice scan and one wave — 38
        // survivors, all under slot 2, counted in their own lanes, and a key
        // wave per tail (the last level's `inj` names position 1).
        let hub = with_kernel(&g, &plan, cfg, |kernel, warp| {
            kernel.install(warp, &StealPayload::chunk(0, 1));
            kernel.run(warp);
            assert_eq!(kernel.tail_stats(), [3, 38]);
        });
        let tails = ((5 + 2) + 2 * (5 + 1), 1 + 1 + 1);
        assert_eq!(sites(&hub), (1 + tails.0, tails.1));
        // The set operations: N(0)'s 40 elements in two waves, each closed by
        // a compacting ballot and a validity ballot (level 3 reads N(0) too);
        // N(0)'s marker row keyed once, 80 lanes; and each batch's N(0) ∩
        // N(v1), streaming the shorter N(v1) against that row — 1 + 39 + 13·2
        // lanes (scan, three waves, three ballots), then 15·2 and 10·2.
        let level2 = (5 + 3 + 3) + 2 * (5 + 1 + 1);
        assert_eq!(hub.set_op_instructions, (2 + 2 * 2) + 3 + level2);
        // 38 triangles {0, 2, j}: the tail on any other neighbour of 0 — or,
        // over the whole graph, of 2 (37 others) or of j (none).
        assert_eq!(hub.matches_found, 38 * 38);
        assert_eq!(whole_graph(&g, &plan, cfg).matches_found, 38 * (38 + 37));
    }

    /// Each claim kind (DESIGN.md §4c, "Claims"), totalled by hand on
    /// fixtures small enough to follow, one warp, level 1 already deep.
    #[test]
    fn every_claim_kind_is_charged_by_its_rule() {
        let mut cfg = one_warp();
        (cfg.stop_level, cfg.detect_level) = (1, 1);
        let engine = Engine::new(cfg);

        // The square on the 4-cycle 0-1-2-3, one match (0, 1, 2, 3). Level 1
        // claims v1 > v0 from N(v0), level 2 claims v2 > v0 from N(v1), and
        // level 3 counts N(v0) ∩ N(v2).
        let c4 = stmatch_graph::builder::graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let square = engine.compile(&catalog::square());
        let bc = square.bytecode();
        assert_eq!((bc.claim_only(), bc.marked()), (0b1100, 0b1));
        let m = whole_graph(&c4, &square, cfg);
        assert_eq!(m.matches_found, 1);
        // Level 0: one wave per vertex. Levels 1 and 2 compute their lists,
        // whose streams tested validity: their claims are free.
        assert_eq!(sites(&m), (4, 0));
        // Level 1's N(v0) is also level 3's input: each of its one-wave
        // streams closes with a compacting and a validity ballot. Level 2's
        // N(v1) has no reader but its claims, so its one ballot compacts the
        // valid candidates: N(1) and N(3) under v0 = 0 (a scan, a wave, a
        // ballot), N(2) under 1, N(3) under 2. N(0) and N(1) key a marker
        // row, four lanes each. Level 3 counts three two-lane streams.
        let (level1, level2, marker, level3) = (4 * 3, (5 + 2) + 2 + 2, 2, 3);
        assert_eq!(m.set_op_instructions, level1 + level2 + marker + level3);

        // A 4-leaf star on the 6-leaf star: C(6, 4) matches. Levels 2, 3 and
        // 4 iterate the lifted N(v0), each above the level before it.
        let (star, g) = (
            Pattern::new(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]),
            gen::star(6),
        );
        let plan = engine.compile(&star);
        assert!((2..5).all(|l| plan.bytecode().candidate(l).1 == 1));
        let m = whole_graph(&g, &plan, cfg);
        assert_eq!(m.matches_found, 15);
        // N(v0) is read past level 1: 7 one-wave streams of three
        // instructions. Level 2 is lifted and deep: one key wave per batch
        // (one bound) — six keys under the centre, one under each leaf — and
        // free claims. Levels 3 and 4 are a tail per level-3 batch: 5, 4, 3,
        // 2 and 1 slots of six elements each, one counting wave and one key
        // wave of two keys a slot each.
        assert_eq!(m.set_op_instructions, 7 * 3);
        assert_eq!(sites(&m), (7 + 5, (1 + 6) + 5));

        // A residual label keeps every lifted claim on its validity waves and
        // every last-level element in a count pass: level 2 claims six
        // six-lane batches under the centre and a lane under each leaf;
        // level 3 — no tail under a residual last level — one six-lane claim
        // for each of the 5 + 4 + 3 + 2 + 1 level-3 slots; level 4 counts the
        // 4, 3, 2, 1, 3, 2, 1, 2, 1 and 1 slots of the ten level-4 batches
        // six lanes each, one wave a batch.
        let labeled = engine.compile(&star.with_labels(&[64; 5]));
        let m = whole_graph(&g.relabeled(vec![64; 7]), &labeled, cfg);
        assert_eq!(m.matches_found, 15);
        assert_eq!(m.set_op_instructions, 7 * 3);
        assert_eq!(sites(&m), (7 + (6 + 6) + 15, 10));
    }

    /// A marker row's re-key is charged from its new list at its first use in
    /// each work item, so what the rows cost does not depend on which warp
    /// ran which chunk before: q22 marks positions 0 and 1, and a chunk can
    /// begin under the `N(v1)` the warp's last chunk ended with. Every grid
    /// of a steal-free run lands on the same totals.
    #[test]
    fn marker_rows_cost_the_same_on_any_grid() {
        let g = gen::preferential_attachment(64, 5, 21).degree_ordered();
        let q = catalog::paper_query(22);
        for chunk in [1, 3] {
            let [one, four] = [1, 4].map(|warps| {
                let mut cfg = EngineConfig::default().with_grid(GridConfig {
                    num_blocks: 1,
                    warps_per_block: warps,
                    shared_mem_per_block: 100 * 1024,
                });
                (cfg.local_steal, cfg.global_steal, cfg.chunk_size) = (false, false, chunk);
                let out = Engine::new(cfg).run(&g, &q).unwrap();
                assert_eq!(out.count, 1100);
                let t = out.metrics.total();
                (t.simt_instructions, t.active_lane_slots)
            });
            assert_eq!(one, four, "chunk {chunk}");
        }
        assert_eq!(
            Engine::new(one_warp()).compile(&q).bytecode().marked(),
            0b11
        );
    }

    /// `WarpMetrics`' split covers the total: set operations, claims and
    /// count passes, plus what moving work cost — nothing on a steal-free
    /// grid, the [`Source`] charges of the steals counted on a stealing one.
    #[test]
    fn the_instruction_split_sums_to_the_total() {
        let g = gen::preferential_attachment(64, 5, 21).degree_ordered();
        for (warps, stealing) in [(2, false), (4, true)] {
            let mut cfg = EngineConfig::default().with_grid(GridConfig {
                num_blocks: 1,
                warps_per_block: warps,
                shared_mem_per_block: 100 * 1024,
            });
            cfg.local_steal = stealing;
            cfg.global_steal = stealing;
            for q in [1, 3, 6] {
                let out = Engine::new(cfg).run(&g, &catalog::paper_query(q)).unwrap();
                let t = out.metrics.total();
                let burst = |src: Source| src.cost().map_or(0, |b| Cost::Transfer(b).price().0);
                let moved = burst(Source::LocalSteal) * t.local_steals
                    + burst(Source::GlobalSteal) * t.global_steal_receives
                    + burst(Source::GlobalPush) * t.global_steal_pushes;
                assert!(stealing || moved == 0, "q{q}");
                assert!(
                    t.count_pass_instructions > 0 || q != 1,
                    "q1 counts a lifted list"
                );
                assert_eq!(
                    t.set_op_instructions
                        + t.claim_instructions
                        + t.count_pass_instructions
                        + moved,
                    t.simt_instructions,
                    "q{q} stealing {stealing}"
                );
            }
        }
    }
}
