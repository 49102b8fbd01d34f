//! The stack-based matching kernel (Fig. 3, unrolled per Fig. 7).
//!
//! One [`WarpKernel`] runs per warp, a [`WarpKernel::step`] at a time. Its
//! state is the paper's explicit call stack, so a step can stop at any claim:
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
//! The unroll batches and cursors are the kernel's own fixed arrays; every
//! buffer it reuses across launches — the slabs, the rank row, the marker
//! and set-bit rows, the ping/pong chain rows — is its warp's arena
//! ([`WarpArena`]), borrowed for the run, and set-operation outputs stream
//! straight into the arena slabs — after the first passes warm the chain
//! rows' capacities, the steady-state steps perform no heap allocation (see
//! `tests/alloc_free.rs`).

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

mod interp;
mod last_level;
mod rank;
mod rows;
mod validity;

use self::last_level::{closed_form, count_valid_sorted, Against, Clip, TailSlot};
use self::rank::RankRow;
use self::rows::Rows;
use self::validity::{ClaimCost, Validity};
use crate::arena::{StackArena, WarpArena};
use crate::config::{EngineConfig, MAX_UNROLL};
use crate::engine::{Launch, Level0};
use crate::fault::FaultPlan;
use crate::steal::{Board, Poll, Source, StealPayload};
use std::time::Instant;
use stmatch_gpusim::{Close, Cost, Site, Warp};
use stmatch_graph::{Graph, VertexId};
use stmatch_pattern::bytecode::{PlanBytecode, SlotTable, MAX_SETS};
use stmatch_pattern::order::MatchOrder;
use stmatch_pattern::symmetry::Bound;
use stmatch_pattern::{MatchPlan, MAX_PATTERN_SIZE};
use stmatch_plan_verify::Verification;

/// One grid's launch, resolved once (`Engine::launch` builds one per grid):
/// the request every warp kernel of the grid reads, and what it decided —
/// the level-0 length, the StopLevel, the slot table, the slab caps, the
/// rank-row routing, the claim costs and the row bytes. Each warp's
/// [`WarpKernel::new`] only sizes its arena to these (`WarpArena::reset`)
/// and builds its rows.
pub struct KernelEnv<'a> {
    /// The request, its fault plan scoped to the grid (`None` if none of it
    /// reaches it); salvage passes run with injection off instead.
    pub(crate) launch: Launch<'a>,
    /// The engine's configuration; every grid is its `grid`.
    pub(crate) cfg: &'a EngineConfig,
    /// Level-0 virtual indices the grid's dispenser hands out.
    l0_len: usize,
    /// An anchored domain's orientation: the plan's level-1 bound against
    /// level 0, if it has one ([`Level0::Anchored`]).
    orient: Option<Bound>,
    /// The StopLevel (stealable shallow depth).
    stop: usize,
    /// How many raw iterations each level claims at once, and the arena
    /// slots that affords each set.
    pub(crate) slots: SlotTable,
    /// Per-set slab capacity: the graph's max degree within
    /// `max_degree_slab`, each clamped to the bound of a clean static
    /// verification where the launch carries one (`Launch::verified`) whose
    /// certificate offers some — but uniform when the launch routes hub rows
    /// ([`Rows::routed`]).
    pub(crate) set_caps: [usize; MAX_SETS],
    /// Levels `k - 2` and `k - 1` run fused ([`WarpKernel::count_tail`]): the
    /// last level counts a lifted list in closed form, its parent is deep.
    tail: bool,
    /// Which list a warp's [`RankRow`] holds ([`last_levels`]), and its cells.
    row: Row,
    pub(crate) row_cells: usize,
    /// Global-memory bytes of rows per warp — marker rows and the rank row —
    /// which the launch budget reserves beside the stack slabs.
    row_bytes: usize,
    /// What the levels that claim are charged for validity.
    claim_cost: ClaimCost,
}

impl<'a> KernelEnv<'a> {
    /// Resolves `launch` against `cfg`: the one place a grid's level-0
    /// domain, StopLevel and geometry are decided.
    pub fn new(launch: Launch<'a>, cfg: &'a EngineConfig) -> KernelEnv<'a> {
        let (graph, plan) = (launch.graph, launch.plan);
        let bc = plan.bytecode();
        let (l0_len, orient) = match launch.domain {
            Level0::Whole => (graph.num_vertices(), None),
            Level0::Slice(slice) => (slice.len(), None),
            // Anchored launches enumerate from the update edges' endpoints
            // only — the whole point of O(batch) delta cost. An orientation
            // bound admits one endpoint at level 0 (the higher under `Less`,
            // the lower under `Greater`): the other one's index could never
            // match.
            Level0::Anchored(side) => {
                let orient = bc.bounds(1).first().map(|&(_, b)| b);
                let per_stage = if orient.is_some() { 1 } else { 2 };
                (per_stage * side.edges.len(), orient)
            }
        };
        let stop = cfg.effective_stop(plan);
        let slots = bc.slot_table(cfg.unroll, stop);
        // Tight slab capacity: every candidate list descends from some
        // neighbor list through shrinking ops, so no list outgrows the
        // graph's max degree. Budget accounting still reserves the paper's
        // fixed `max_degree_slab` per slot; allocating tighter just packs
        // the slabs densely for the cache. A clean certificate's per-set
        // bounds are sound upper bounds on candidate-list sizes, so clamping
        // each slab to `min(bound, cap)` introduces no new spill.
        let cap = cfg.max_degree_slab.min(graph.max_degree().max(1));
        let mut set_caps = [cap; MAX_SETS];
        let shaped = launch.verified.and_then(Verification::footprint_caps);
        if let Some(caps) = shaped.filter(|_| !Rows::routed(graph)) {
            for (shaped, &bound) in set_caps.iter_mut().zip(&caps) {
                *shaped = (bound as usize).clamp(1, cap);
            }
        }
        let (tail, row) = last_levels(plan, stop, launch.collector.is_some());
        let n = graph.num_vertices();
        let row_cells = match row {
            Row::None => 0,
            _ => RankRow::cells(n),
        };
        let marked = bc.marked().count_ones() as usize;
        KernelEnv {
            launch,
            cfg,
            l0_len,
            orient,
            stop,
            slots,
            set_caps,
            tail,
            row,
            row_cells,
            row_bytes: marked * n.div_ceil(64) * 8 + row_cells * 4,
            claim_cost: ClaimCost::new(bc, stop, tail),
        }
    }

    /// Level-0 virtual indices the grid's dispenser hands out.
    pub fn l0_len(&self) -> usize {
        self.l0_len
    }

    /// The StopLevel the grid's board and kernels run under.
    pub fn stop(&self) -> usize {
        self.stop
    }

    /// Each level's claim width and each set's arena slots.
    pub(crate) fn slot_table(&self) -> &SlotTable {
        &self.slots
    }

    /// Global-memory bytes of rows per warp (marker rows and the rank row).
    pub(crate) fn row_bytes(&self) -> usize {
        self.row_bytes
    }
}

/// Whether levels `k − 2` and `k − 1` of `plan` run fused under StopLevel
/// `stop` ([`WarpKernel::count_tail`]: the last level counts a lifted list in
/// closed form and its parent is deep), and which list the warp's rank row
/// holds. Under a shallow parent it is the lifted list W. In a tail, the one
/// of W and the parent's list V defined at the shallower level (W on a tie),
/// so it is rebuilt for fewer slots — but V only while its valid elements
/// are a window less exclusions, without a residual label to test element by
/// element. V and W the same slot of one set need no row (DESIGN.md §4c).
/// Nothing is counted in closed form when `enumerate`.
fn last_levels(plan: &MatchPlan, stop: usize, enumerate: bool) -> (bool, Row) {
    let bc = plan.bytecode();
    let last = plan.num_levels() - 1;
    let (w_set, w_def) = bc.candidate(last);
    if enumerate || w_def == last || bc.level_meta(last).resid.is_some() {
        return (false, Row::None);
    }
    if last < stop + 1 {
        return (false, Row::Last);
    }
    let (v_set, v_def) = bc.candidate(last - 1);
    let row = if bc.level_meta(last - 1).resid.is_some() {
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

/// The list a warp's [`RankRow`] holds ([`last_levels`]).
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

/// What one [`WarpKernel::step`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Installed a work item, or claimed (or ran out of) the installed one's.
    Claimed,
    /// The board had nothing to hand out yet.
    Idle,
    /// The board says exit.
    Done,
}

/// Per-warp kernel state.
pub struct WarpKernel<'a> {
    /// The launch this kernel runs, resolved for its grid.
    env: &'a KernelEnv<'a>,
    /// The graph being matched: the launch's, or — in a staged run — the
    /// view of the stage the current level-0 index belongs to.
    g: &'a Graph,
    /// The plan's lowered stream and side tables: all the claim loop reads.
    bc: &'a PlanBytecode,
    board: &'a Board,
    warp_id: usize,
    /// Pattern size (number of levels).
    k: usize,
    /// The warp's flat candidate-set slab (the paper's `C` array), with its
    /// rank row and set-bit rows: its arena's stack.
    storage: &'a mut StackArena,
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
    /// Level of the next claim; `None` once the item is exhausted.
    level: Option<usize>,
    /// Start of the current item (`[0]`) and idle episode (`[1]`, [`Board::poll`]).
    since: [Option<Instant>; 2],
    /// The level-0 virtual index `matched[0]` was resolved from; published
    /// and stolen in its place (see [`StealPayload::matched`]).
    l0_index: usize,
    /// The current stage's other endpoint, level 1's one candidate (staged
    /// runs only; see [`WarpKernel::window`]).
    pin: Option<VertexId>,
    /// The arena's ping/pong rows for multi-op set chains; the final chain
    /// op writes straight into the slabs, so these only hold intermediates.
    ping: &'a mut [Vec<VertexId>],
    pong: &'a mut [Vec<VertexId>],
    /// The arena's word rows for fused bitmap chains.
    bits: [&'a mut [u64]; 2],
    /// Where every set operation's bitmap rows come from.
    rows: Rows<'a>,
    /// The rank row of a lifted last level's counts, its cells lent by
    /// `storage`; the env's `row` says which list it holds.
    rank: RankRow,
    /// Tail streams issued and the survivors they counted (`check hotpath`).
    tail_stats: [u64; 2],
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
}

impl<'a> WarpKernel<'a> {
    /// Builds warp `warp_id`'s kernel for `env`'s launch on `arena`, which
    /// it borrows for the run after sizing it to the launch
    /// (`WarpArena::reset`): a recycled arena's heap blocks are reused.
    pub fn new(
        env: &'a KernelEnv<'a>,
        board: &'a Board,
        warp_id: usize,
        faults: Option<&'a FaultPlan>,
        arena: &'a mut WarpArena,
    ) -> Self {
        debug_assert_eq!(board.stop(), env.stop, "the board runs the env's StopLevel");
        arena.reset(env);
        let WarpArena {
            stack,
            markers,
            ping,
            pong,
            bits: [bits_ping, bits_pong],
        } = arena;
        let plan = env.launch.plan;
        WarpKernel {
            env,
            g: env.launch.graph,
            bc: plan.bytecode(),
            board,
            warp_id,
            k: plan.num_levels(),
            storage: stack,
            batch: [Batch::EMPTY; MAX_PATTERN_SIZE + 1],
            uiter: [0; MAX_PATTERN_SIZE + 1],
            iter: [0; MAX_PATTERN_SIZE + 1],
            matched: [0; MAX_PATTERN_SIZE],
            entry: 0,
            level: None,
            since: [None; 2],
            ping,
            pong,
            bits: [bits_ping, bits_pong],
            rows: Rows::new(env, markers),
            rank: RankRow::default(),
            tail_stats: [0; 2],
            claims: 0,
            unpolled: 0,
            publishes: 0,
            l0_index: 0,
            pin: None,
            emit: env.launch.collector.map(|_| Vec::new()),
            pending_matches: 0,
            emit_mark: 0,
            inflight: None,
            installing: None,
            faults,
        }
    }

    /// Drains the embeddings collected when the launch has a collector
    /// (Fig. 3's `Output`), as a flat buffer of `k`-strided records.
    pub fn take_emitted(&mut self) -> Vec<VertexId> {
        self.emit_mark = 0;
        self.emit.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Per-level validity context, with level 0's label as a residual one
    /// (deeper candidates come from label-filtered sets).
    #[inline]
    fn validity(&self, l: usize) -> Validity<'a> {
        let mut vy = Validity::new(self.bc, l);
        if l == 0 {
            vy.resid = self.bc.level_meta(0).label;
        }
        vy
    }

    /// The data vertex of level-0 virtual index `idx`. A staged run also
    /// moves onto that stage's view and other endpoint, which then hold for
    /// the index's whole subtree: level 0 is always shallow, so it is
    /// claimed one index at a time and every deeper batch shares the stage.
    #[inline]
    fn enter_level0(&mut self, idx: usize) -> VertexId {
        self.l0_index = idx;
        match self.env.launch.domain {
            Level0::Whole => idx as VertexId,
            Level0::Slice(order) => order[idx],
            Level0::Anchored(side) => {
                let (s, from_hi) = match self.env.orient {
                    Some(bound) => (idx, bound == Bound::Less),
                    None => (idx / 2, idx % 2 == 1),
                };
                let (lo, hi) = side.edges[s];
                let (v, pin) = if from_hi { (hi, lo) } else { (lo, hi) };
                self.g = &side.views[s];
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

    /// Writes the kernel's own counters into the warp's metrics at exit:
    /// spill events, peak slab cells and [`WarpKernel::count_tail`]'s stats.
    pub fn finish(&self, warp: &mut Warp) {
        let m = warp.metrics_mut();
        m.spill_events = self.storage.spill_events();
        m.peak_slab_cells = self.storage.peak_slab_cells();
        [m.tail_streams, m.tail_survivors] = self.tail_stats;
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
        for l in 0..self.env.stop {
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
    /// run's stage), recomputes the candidate sets of every level up
    /// to the target (they are deterministic functions of the prefix), and
    /// points the mirror at the iteration range.
    pub fn install(&mut self, warp: &mut Warp, p: &StealPayload) {
        debug_assert_eq!(p.matched.len(), p.target);
        self.installing = Some(p.clone());
        self.rows.begin_item();
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
        self.level = Some(p.target);
        self.installing = None;
    }

    /// One step of the warp's body; it never blocks. With the installed
    /// item exhausted, polls the board and installs what it hands out.
    /// Otherwise makes one claim at the current level and does what follows
    /// it: descend, count the last level or the fused tail — or, the level
    /// exhausted, pop it, and at the entry level commit and close the item.
    pub fn step(&mut self, warp: &mut Warp) -> Step {
        let Some(l) = self.level else {
            let steal = (self.env.cfg.local_steal, self.env.cfg.global_steal);
            let m = warp.metrics_mut();
            return match self.board.poll(self.warp_id, steal, &mut self.since[1], m) {
                Poll::Work(p, src) => {
                    src.note(warp);
                    self.since[0] = Some(Instant::now());
                    self.install(warp, &p);
                    Step::Claimed
                }
                Poll::Idle => Step::Idle,
                Poll::Exit => Step::Done,
            };
        };
        let claimed = if l < self.env.stop {
            self.claim_shallow(warp, l)
        } else {
            self.claim_deep(warp, l)
        };
        if !claimed && l == self.entry {
            self.commit(warp);
            self.level = None;
            let t = self.since[0].take();
            warp.metrics_mut().busy_nanos += t.map_or(0, |t| t.elapsed().as_nanos() as u64);
        } else if !claimed {
            self.level = Some(l - 1);
        } else if l + 1 == self.k {
            // A single-vertex pattern: every valid candidate is a match.
            self.pending_matches += 1;
            if let Some(emb) = self.emit.as_mut() {
                emb.push(self.batch[1].slots[0]);
            }
        } else {
            self.begin_level(warp, l + 1);
            if l + 1 == self.k - 1 {
                self.count_last_level(warp);
            } else if self.env.tail && l + 1 == self.k - 2 {
                self.count_tail(warp);
            } else {
                self.level = Some(l + 1);
            }
        }
        Step::Claimed
    }

    /// Shallow claim: one validity-checked candidate through the mirror into
    /// `batch[l + 1]` (charged a validity wave only where [`ClaimCost::waves`]
    /// says). Returns false when level `l` is exhausted.
    fn claim_shallow(&mut self, warp: &mut Warp, l: usize) -> bool {
        // Claim boundary: the previously claimed iteration's subtree (if
        // any) is fully explored, and everything not yet started lives in
        // the mirror — commit the open transaction.
        self.commit(warp);
        loop {
            if self.cancelled() {
                return false;
            }
            let idx = {
                // This acquisition is the race checker's canonical "locked
                // access" to mirror[warp_id]: the simt_check kill gate
                // deletes exactly this kind of acquisition (see
                // `steal::mutation::claim_shallow_without_lock`) and the
                // detector must name this site as the racing partner.
                let mut m = self.board.mirror(self.warp_id).lock();
                let i = m.iter[l];
                if i >= m.size[l] {
                    return false;
                }
                m.iter[l] += 1;
                // Record the in-flight iteration under the same lock that
                // claims it: from here until the child range is published
                // (or the subtree commits), this index exists nowhere else —
                // on death it is requeued verbatim.
                self.inflight = Some((l, i));
                self.unpolled += 1;
                i
            };
            // §V-B detection hook: when claiming at a level below
            // DetectLevel, a busy warp offers work to fully-idle blocks.
            if self.env.cfg.global_steal
                && l < self.env.cfg.detect_level
                && self.board.try_push_global(self.warp_id)
            {
                Source::GlobalPush.note(warp);
            }
            let v = if l == 0 {
                self.enter_level0(idx)
            } else {
                self.candidate_list(l, 0)[idx]
            };
            if self.env.claim_cost.waves >> l & 1 == 1 {
                warp.charge(Site::Claim, Cost::Lanes(1));
            }
            if self.validity(l).check(self.g, &self.matched, v) {
                self.batch[l + 1].clear();
                self.batch[l + 1].push(v);
                return true;
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
            let take = (cl_len - start).min(self.env.slots.width(l));
            self.iter[l] += take;
            self.unpolled += take;
            // Validity filtering straight from the slab (disjoint fields:
            // storage vs batch).
            if self.env.claim_cost.waves >> l & 1 == 1 {
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

    /// Last level: counts (or, when enumerating, outputs) the valid
    /// candidates of every slot instead of iterating them (Fig. 3 line 16).
    ///
    /// The counting path exploits sortedness: the symmetry bounds select a
    /// contiguous window of the candidate list and injectivity subtracts the
    /// matched vertices of the level's
    /// [`inj`](stmatch_pattern::bytecode::LevelMeta::inj) positions inside it.
    /// A list computed at this level is a fresh list per slot, searched per
    /// slot ([`count_valid_sorted`]) inside its [`WarpKernel::window`]; a
    /// lifted one — here only under a shallow parent level, a deep one runs
    /// [`WarpKernel::count_tail`] — is clipped ([`Clip`]) at the slot's own
    /// vertex by one rank in the warp's [`RankRow`] of it.
    ///
    /// On the simulated machine a list computed at this level gets no pass:
    /// its survivors were lanes of the level's final set-operation stream — a
    /// counting [`Cost::Stream`] (no ballots) unless enumerating —
    /// and the validity predicate rides in that lane instruction. A lifted
    /// list costs count lanes (private tallies, no ballot): one per slot in
    /// closed form — the shallow parent claimed and checked the slot on its
    /// own — and one per (slot, element) when `enumerate` or a residual label
    /// has to touch every element.
    fn count_last_level(&mut self, warp: &mut Warp) {
        let l = self.k - 1;
        let slots = self.batch[l].len;
        let vy = self.validity(l);
        let def = self.bc.candidate(l).1;
        let lifted = def != l;
        let closed = self.emit.is_none() && vy.resid.is_none();
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
            let cl = self.storage.slot(cid, slot);
            let window = self.window(l, cl);
            if let Some(emb) = self.emit.as_mut() {
                let (order, matched) = (self.env.launch.plan.order(), &self.matched);
                for &v in cl[window].iter().filter(|&&v| vy.check(g, matched, v)) {
                    emit_match(emb, order, &matched[..l], v);
                    total += 1;
                }
            } else if !closed {
                // Residual label checks need a per-element probe.
                total += vy.count(g, &self.matched, &cl[window]);
            } else if lifted {
                debug_assert!(self.env.row == Row::Last);
                let (read, cells) = self.storage.lists_and_row();
                let (cl, matched) = (read.slot(cid, slot), &self.matched);
                let mut ranks = self.rank.of(cells, cl, cid, self.l0_index, &matched[..def]);
                let (c, hit) = ranks.rank(matched[l - 1]);
                let n = Clip::new(cl.len(), matched, &vy, l - 1, |x| ranks.rank(x)).count(c, hit);
                total += closed_form(n, l, matched, cl, || vy.count(g, matched, cl));
            } else {
                let (cl, matched) = (&cl[window], &self.matched);
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
        let width = self.env.slots.width(l);
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
            let against = match self.env.row {
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

/// Appends the embedding `matched + v`, remapped from matching order to
/// pattern vertex ids, to `emb` as one more `k`-strided record.
fn emit_match(emb: &mut Vec<VertexId>, order: &MatchOrder, matched: &[VertexId], v: VertexId) {
    let (base, k) = (emb.len(), matched.len() + 1);
    emb.resize(base + k, 0);
    for (pos, &u) in matched.iter().enumerate() {
        emb[base + order.vertex_at(pos)] = u;
    }
    emb[base + order.vertex_at(k - 1)] = v;
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
        (cfg.local_steal, cfg.global_steal) = (false, false);
        cfg
    }

    /// Runs `body` with warp 0's kernel for `plan` on `g` under `cfg` (a
    /// [`one_warp`] config, no level-0 range) and returns the warp's counters.
    fn with_kernel(
        g: &Graph,
        plan: &MatchPlan,
        cfg: EngineConfig,
        body: impl Fn(&mut WarpKernel<'_>, &mut Warp) + Sync,
    ) -> WarpMetrics {
        let env = KernelEnv::new(Launch::new(g, plan), &cfg);
        let board = Board::new(1, 1, env.stop(), (0, 0), cfg.chunk_size);
        let grid = Grid::new(cfg.grid).unwrap();
        let metrics = grid.launch(|warp| {
            let mut arena = WarpArena::default();
            let mut kernel = WarpKernel::new(&env, &board, warp.id(), None, &mut arena);
            body(&mut kernel, warp);
        });
        metrics.total()
    }

    /// Installs `p` and steps until the (empty) board says exit.
    fn drain(kernel: &mut WarpKernel<'_>, warp: &mut Warp, p: &StealPayload) {
        kernel.install(warp, p);
        while kernel.step(warp) != Step::Done {}
    }

    /// Runs the whole of `g` through one kernel.
    fn whole_graph(g: &Graph, plan: &MatchPlan, cfg: EngineConfig) -> WarpMetrics {
        let whole = StealPayload::chunk(0, g.num_vertices());
        with_kernel(g, plan, cfg, |kernel, warp| drain(kernel, warp, &whole))
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
                            drain(kernel, warp, &stolen(lo, hi));
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
            let m = with_kernel(&star, &wedge, cfg, |k, w| {
                drain(k, w, &StealPayload::chunk(0, 1))
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
            drain(kernel, warp, &StealPayload::chunk(0, 1));
            assert_eq!(kernel.tail_stats, [3, 38]);
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
            (cfg.local_steal, cfg.global_steal) = (stealing, stealing);
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
