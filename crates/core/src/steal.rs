//! Two-level work stealing (§V of the paper).
//!
//! Every warp exposes a [`Mirror`] of the *stealable* shallow region of its
//! stack — iteration cursors, remaining candidate counts, and the matched
//! vertex prefix for levels below `StopLevel`. Because candidate sets are
//! deterministic functions of the matched prefix, a stealer only needs the
//! prefix and an iteration range: it recomputes the candidate list itself
//! (the paper copies the sets instead; recomputation costs one extra
//! `getCandidates` and avoids cross-thread aliasing of the slabs — see
//! DESIGN.md).
//!
//! * **Local stealing** (§V-A, pull): an idle warp scans the mirrors of its
//!   block siblings, picks the victim with the most remaining shallow work,
//!   and takes half the remaining iterations at the shallowest level
//!   (divide-and-copy, Fig. 5).
//! * **Global stealing** (§V-B, push): an idle warp marks its bit in the
//!   per-block `is_idle` bitmap and spins; busy warps test for fully-idle
//!   blocks when claiming work at a level below `DetectLevel` and push half
//!   of their shallowest remaining range into the target block's
//!   `global_stks` slot (Fig. 6).
//!
//! A warp's whole acquisition order — level-0 chunk, requeued and stolen
//! stacks, the idle wait — is [`Board::acquire`]; every item it hands out
//! is a [`StealPayload`] tagged with its [`Source`], whose
//! [`cost`](Source::cost) is the fixed cost model of moving it.
//!
//! # Lock hierarchy (declared, checked by simt-check)
//!
//! Every lock in the stealing/containment machinery has a class and a
//! rank; a thread only ever acquires locks in strictly increasing rank.
//! This is the authoritative table — `simt_check::LockClass` mirrors it and
//! the deadlock analyzer enforces it at runtime:
//!
//! | rank | class        | lock                                       | nests inside        |
//! |------|--------------|--------------------------------------------|---------------------|
//! | 1    | `ServiceGraph` | `service::Inner::dynamic` (delta graph state, PR 10) | — (outermost; held only to fold a batch or clone out the current snapshot/watcher list, never across a launch, a compile, or another lock) |
//! | 2    | `ServiceAdmission` | `service::Inner::queue` (admission queue) | — (outermost) |
//! | 4    | `ServicePlanCache` | `service::Inner::cache` (canonical plan cache) | — (never held across engine locks) |
//! | 6    | `ServiceArenaPool` | `pool::ArenaPool` (reusable warp arenas) | — (never held across engine locks) |
//! | 8    | `ShardRail`  | `ShardRail::state` (cross-shard work rail) | — (leaf: queried from claim loops holding nothing; the death path releases every board lock before pushing to the rail) |
//! | 10   | `GlobalSlot` | `Board::slots[b]` (per-block steal slot)   | — (outermost engine lock) |
//! | 20   | `Requeue`    | `Board::requeue` (reclaimed-work queue)    | `GlobalSlot`        |
//! | 30   | `Mirror`     | `Mirror::state` (per-warp stealable stack) | `GlobalSlot`        |
//! | 40   | `DeathLog`   | engine death records (recovery path)       | — (leaf)            |
//! | 50   | `Collector`  | engine enumeration collector               | — (leaf)            |
//!
//! The rank-1/2/4/6 service locks (PRs 6 and 10) belong to the resident
//! `MatchService` layered *above* the engine: they rank below every
//! engine lock because a service thread may hold one while work that
//! eventually launches a grid is being admitted, but no engine code path
//! ever acquires a service lock — the service always releases its locks
//! before calling into the engine, and the hierarchy makes any future
//! violation of that rule a hard diagnostic.
//!
//! Observed nestings: [`Board::try_push_global`] holds a slot lock while
//! splitting its own mirror (10 → 30); [`Board::mark_dead`] drains a dead
//! block's slot into the requeue (10 → 20). Mirrors never nest in each
//! other (the steal scans drop each guard before locking the next), and the
//! engine's recovery/collection locks are leaves acquired with nothing
//! held.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use stmatch_gpusim::{Burst, Cost, Site, Warp, WarpMetrics};
use stmatch_graph::VertexId;

/// Upper bound on `StopLevel` (how deep the stealable region may reach).
pub const MAX_STOP: usize = 4;

/// The stealable shallow state of one warp's stack.
#[derive(Clone, Debug)]
pub struct MirrorState {
    /// Next unclaimed iteration index per shallow level. At level 0 these
    /// are level-0 *virtual indices* of the warp's current chunk (resolved
    /// to vertices by the launch's level-0 map, like `matched[0]`).
    pub iter: [usize; MAX_STOP],
    /// End of the iteration range per shallow level (`iter == size` means
    /// drained).
    pub size: [usize; MAX_STOP],
    /// What is currently matched at each shallow level, in the form a
    /// stolen prefix travels in (see [`StealPayload::matched`]).
    pub matched: [VertexId; MAX_STOP],
}

impl MirrorState {
    fn new() -> Self {
        MirrorState {
            iter: [0; MAX_STOP],
            size: [0; MAX_STOP],
            matched: [0; MAX_STOP],
        }
    }

    /// Remaining unclaimed iterations at `level`.
    #[inline]
    pub fn remaining(&self, level: usize) -> usize {
        self.size[level].saturating_sub(self.iter[level])
    }

    /// Drains every level (concurrent stealers see an empty victim).
    pub(crate) fn clear(&mut self) {
        self.iter = [0; MAX_STOP];
        self.size = [0; MAX_STOP];
    }

    /// The iterations `lo..hi` at `level` under this mirror's matched
    /// prefix, as a work item.
    pub(crate) fn payload(&self, level: usize, lo: usize, hi: usize) -> StealPayload {
        StealPayload {
            target: level,
            matched: self.matched[..level].to_vec(),
            lo,
            hi,
        }
    }
}

/// A lockable mirror. Cache-line padding is deliberately omitted: mirrors
/// are locked a handful of times per shallow iteration, far off any hot
/// path.
pub struct Mirror {
    /// Board instance this mirror belongs to (shadow-cell identity for the
    /// race checker — two concurrently live boards never alias cells).
    board: u32,
    /// Global warp id this mirror belongs to within its board.
    id: usize,
    state: Mutex<MirrorState>,
}

impl Mirror {
    fn new(board: u32, id: usize) -> Self {
        Mirror {
            board,
            id,
            state: Mutex::new(MirrorState::new()),
        }
    }

    /// Locks the mirror state.
    ///
    /// Poison handling: a poisoned mirror means some warp thread panicked
    /// while holding the lock. The state is plain cursors (`iter`/`size`/
    /// `matched` arrays) with no invariant spanning multiple fields that a
    /// mid-update panic could tear — any torn write at worst re-exposes
    /// already-claimed iterations, which the claim paths re-validate under
    /// the lock. So we recover the guard instead of propagating the
    /// poison; the original panic still unwinds through the grid launch.
    /// (`simt_check::tracked_lock` applies the same recovery.)
    ///
    /// Checker instrumentation: the acquisition is tracked (class
    /// `Mirror`, rank 30) and counts as a write access to the
    /// `mirror[id]` shadow cell at the *caller's* source line — locked
    /// accesses to the same mirror are serialized through the lock's
    /// clock, so the race checker only fires when some access bypasses
    /// this method (the seeded "lock-drop" mutation, or a future bug).
    #[track_caller]
    pub fn lock(&self) -> simt_check::Tracked<'_, MirrorState> {
        let guard = simt_check::tracked_lock(&self.state, simt_check::LockClass::Mirror, self.id);
        simt_check::note_write_at(
            simt_check::Cell::mirror(self.board, self.id),
            std::panic::Location::caller(),
        );
        guard
    }
}

/// Work migrated between warps: a matched prefix plus an iteration range of
/// the (recomputable) candidate list at `target` level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StealPayload {
    /// Level whose candidate iterations were stolen.
    pub target: usize,
    /// The matched prefix of levels `0..target`: `matched[0]` is the level-0
    /// *virtual index* the prefix was claimed as — like level-0 ranges, it
    /// stays in index space, and the installing kernel resolves it through
    /// the launch's level-0 map (to a vertex; in a staged delta run, where
    /// one vertex may end several update edges, also to the stage's view
    /// and level-1 pin). Deeper entries are data vertices.
    pub matched: Vec<VertexId>,
    /// Stolen range `lo..hi` (indices into the candidate list at `target`;
    /// level-0 virtual indices when `target == 0`: [`StealPayload::chunk`]).
    pub lo: usize,
    /// End of the stolen range.
    pub hi: usize,
}

impl StealPayload {
    /// The level-0 range `[lo, hi)` as a work item: no prefix to restore,
    /// and (`Vec::new()` being allocation-free) free to build.
    pub fn chunk(lo: usize, hi: usize) -> StealPayload {
        StealPayload {
            target: 0,
            matched: Vec::new(),
            lo,
            hi,
        }
    }
}

/// Where a work item came from, and with it what moving it costs and which
/// counter records it. The charges exist nowhere else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// A level-0 chunk off the board's dispenser or the warp's own shard
    /// queue: free, uncounted.
    Chunk,
    /// A level-0 chunk the rail served by stealing from another shard.
    RailSteal,
    /// A dead warp's stack (or a salvage preload) off the board's requeue.
    Requeue,
    /// A dead sibling *shard*'s stack off the rail.
    RailRequeue,
    /// Half of a block sibling's shallowest range (§V-A).
    LocalSteal,
    /// A stack pushed into this block's global slot (§V-B), received.
    GlobalSteal,
    /// The same transfer, charged to the busy warp that pushed it
    /// ([`Board::try_push_global`]).
    GlobalPush,
}

impl Source {
    /// The transfer burst the move costs (`None`: free): a short one for an
    /// intra-block stack copy, a longer one for a stack through global
    /// memory (either side), dearest for a device-to-device copy over the
    /// rail. The amounts are the cost table's ([`Cost::Transfer`]).
    pub const fn cost(self) -> Option<Burst> {
        match self {
            Source::Chunk => None,
            Source::LocalSteal => Some(Burst::Block),
            Source::Requeue | Source::GlobalSteal | Source::GlobalPush => Some(Burst::Global),
            Source::RailSteal | Source::RailRequeue => Some(Burst::Device),
        }
    }

    /// Charges [`Source::cost`] to `warp` and bumps the counter(s) that
    /// record this kind of transfer.
    pub fn note(self, warp: &mut Warp) {
        if let Some(burst) = self.cost() {
            warp.charge(Site::Transfer, Cost::Transfer(burst));
        }
        let m = warp.metrics_mut();
        match self {
            Source::Chunk => {}
            Source::RailSteal => m.shard_steal_receives += 1,
            Source::Requeue => m.requeue_claims += 1,
            Source::RailRequeue => {
                m.requeue_claims += 1;
                m.shard_steal_receives += 1;
            }
            Source::LocalSteal => m.local_steals += 1,
            Source::GlobalSteal => m.global_steal_receives += 1,
            Source::GlobalPush => m.global_steal_pushes += 1,
        }
    }
}

/// Counters published by the rail, read after the sharded run joins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RailStats {
    /// Cross-shard range steals (an idle shard took half of a loaded
    /// shard's unclaimed tail).
    pub cross_steals: u64,
    /// Reclaimed payloads pushed onto the rail by dying shards.
    pub requeue_pushes: u64,
    /// Rail payloads claimed by surviving shards.
    pub requeue_claims: u64,
    /// Whole-shard deaths recorded this run.
    pub shard_deaths: u64,
}

struct RailState {
    /// Per-shard unclaimed level-0 ranges (virtual indices). A shard owns
    /// the front of its own queue; cross-shard steals move the tail half of
    /// a victim's last range.
    queues: Vec<VecDeque<(usize, usize)>>,
    /// Payloads reclaimed from dead shards, claimable by any survivor.
    requeue: Vec<StealPayload>,
    /// Shards whose grids died entirely (bookkeeping for reports; a dead
    /// shard's unclaimed ranges stay in its queue, stealable by survivors
    /// or drained by the driver's recovery rounds).
    dead: Vec<bool>,
    stats: RailStats,
}

/// The cross-shard work rail: one shared queue of level-0 ranges and
/// reclaimed payloads connecting the per-shard [`Board`]s of a sharded run.
///
/// One mutex guards the whole rail (class `ShardRail`, rank 8 — below every
/// board lock, see the module hierarchy table). A single lock avoids
/// same-class nested acquisition when a steal touches two shard queues, and
/// the rail is far off any per-iteration hot path: it is consulted once per
/// level-0 chunk, not per candidate.
pub struct ShardRail {
    /// Process-unique instance id (shadow-cell identity for the race
    /// checker).
    check_id: u32,
    chunk_size: usize,
    /// Whether idle shards may steal ranges from loaded ones. Off, the rail
    /// degenerates to per-shard dispensers plus the shared requeue.
    cross_steal: bool,
    state: Mutex<RailState>,
}

impl ShardRail {
    /// Builds a rail whose shard `s` owns the range `[cuts[s], cuts[s+1])`.
    pub fn new(cuts: &[usize], chunk_size: usize, cross_steal: bool) -> ShardRail {
        assert!(cuts.len() >= 2, "need at least one shard");
        assert!(chunk_size >= 1);
        assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "cuts must be sorted");
        let queues = cuts
            .windows(2)
            .map(|w| {
                if w[0] < w[1] {
                    VecDeque::from([(w[0], w[1])])
                } else {
                    VecDeque::new()
                }
            })
            .collect::<Vec<_>>();
        Self::with_queues(queues, Vec::new(), chunk_size, cross_steal)
    }

    /// Builds a rail from leftover work of a previous round (recovery
    /// relaunch): `ranges` are distributed round-robin over `shards`.
    pub fn from_parts(
        shards: usize,
        chunk_size: usize,
        cross_steal: bool,
        ranges: Vec<(usize, usize)>,
        payloads: Vec<StealPayload>,
    ) -> ShardRail {
        assert!(shards >= 1);
        let mut queues: Vec<VecDeque<(usize, usize)>> =
            (0..shards).map(|_| VecDeque::new()).collect();
        for (i, r) in ranges.into_iter().filter(|r| r.0 < r.1).enumerate() {
            queues[i % shards].push_back(r);
        }
        Self::with_queues(queues, payloads, chunk_size, cross_steal)
    }

    fn with_queues(
        queues: Vec<VecDeque<(usize, usize)>>,
        requeue: Vec<StealPayload>,
        chunk_size: usize,
        cross_steal: bool,
    ) -> ShardRail {
        let shards = queues.len();
        ShardRail {
            check_id: simt_check::next_object_id(),
            chunk_size,
            cross_steal,
            state: Mutex::new(RailState {
                queues,
                requeue,
                dead: vec![false; shards],
                stats: RailStats::default(),
            }),
        }
    }

    /// Number of shards this rail coordinates.
    pub fn num_shards(&self) -> usize {
        self.lock_state().queues.len()
    }

    /// Locks the rail state (class `ShardRail`, rank 8). Counts as a write
    /// access to the `rail` shadow cell at the caller's line.
    #[track_caller]
    fn lock_state(&self) -> simt_check::Tracked<'_, RailState> {
        let guard = simt_check::tracked_lock(&self.state, simt_check::LockClass::ShardRail, 0);
        simt_check::note_write_at(
            simt_check::Cell::rail(self.check_id),
            std::panic::Location::caller(),
        );
        guard
    }

    /// Pops one chunk off the front range of `q`.
    fn carve(q: &mut VecDeque<(usize, usize)>, chunk: usize) -> Option<(usize, usize)> {
        let (lo, hi) = q.pop_front()?;
        let mid = (lo + chunk).min(hi);
        if mid < hi {
            q.push_front((mid, hi));
        }
        Some((lo, mid))
    }

    /// Claims the next chunk for `shard`: its own queue first, then (when
    /// cross-shard stealing is on) the tail half of the most-loaded other
    /// shard's last range — Fig. 5's divide-and-copy lifted one level up,
    /// between grids instead of between warps ([`Source::RailSteal`]).
    pub fn claim(&self, shard: usize) -> Option<(StealPayload, Source)> {
        let mut st = self.lock_state();
        if let Some((lo, hi)) = Self::carve(&mut st.queues[shard], self.chunk_size) {
            return Some((StealPayload::chunk(lo, hi), Source::Chunk));
        }
        if !self.cross_steal {
            return None;
        }
        // Victim: the shard with the most unclaimed vertices. Dead shards'
        // queues stay claimable — stealing them *is* the live recovery path.
        let victim = (0..st.queues.len())
            .filter(|&v| v != shard && !st.queues[v].is_empty())
            .max_by_key(|&v| st.queues[v].iter().map(|&(lo, hi)| hi - lo).sum::<usize>())?;
        let (lo, hi) = st.queues[victim]
            .pop_back()
            .expect("victim checked non-empty");
        // The victim keeps the front half; tiny ranges move whole.
        let keep = (hi - lo) / 2;
        let mid = lo + keep;
        if keep > 0 {
            st.queues[victim].push_back((lo, mid));
        }
        st.queues[shard].push_back((mid, hi));
        st.stats.cross_steals += 1;
        let (lo, hi) =
            Self::carve(&mut st.queues[shard], self.chunk_size).expect("just moved a range here");
        Some((StealPayload::chunk(lo, hi), Source::RailSteal))
    }

    /// Claims one reclaimed payload off the rail.
    pub fn pop_requeue(&self) -> Option<StealPayload> {
        let mut st = self.lock_state();
        let p = st.requeue.pop()?;
        st.stats.requeue_claims += 1;
        Some(p)
    }

    /// Returns work reclaimed from a dead shard to the rail. Called by the
    /// shard driver after that shard's grid joined — never from inside a
    /// warp, so no board lock is ever held across this acquisition.
    pub fn push_requeue(&self, payloads: Vec<StealPayload>) {
        if payloads.is_empty() {
            return;
        }
        let mut st = self.lock_state();
        st.stats.requeue_pushes += payloads.len() as u64;
        st.requeue.extend(payloads);
    }

    /// Records the death of a whole shard (every warp of its grid died).
    pub fn mark_shard_dead(&self, shard: usize) {
        let mut st = self.lock_state();
        if !st.dead[shard] {
            st.dead[shard] = true;
            st.stats.shard_deaths += 1;
        }
    }

    /// True while `shard`'s warps could still obtain work from the rail:
    /// its own queue, the shared requeue, or (with stealing on) any other
    /// shard's queue. Drives `Board::chunks_remain` — and through it the
    /// per-board termination test — for rail-attached boards.
    pub fn has_claimable(&self, shard: usize) -> bool {
        let st = self.lock_state();
        if !st.requeue.is_empty() || !st.queues[shard].is_empty() {
            return true;
        }
        self.cross_steal && st.queues.iter().any(|q| !q.is_empty())
    }

    /// Post-join drain for the driver's recovery rounds: every unclaimed
    /// range and every unclaimed payload still on the rail.
    pub fn drain_remaining(&self) -> (Vec<(usize, usize)>, Vec<StealPayload>) {
        let mut st = self.lock_state();
        let ranges: Vec<(usize, usize)> = st.queues.iter_mut().flat_map(std::mem::take).collect();
        let payloads = std::mem::take(&mut st.requeue);
        (ranges, payloads)
    }

    /// Rail counters (read after the run joins).
    pub fn stats(&self) -> RailStats {
        self.lock_state().stats
    }
}

/// Grid-wide coordination state shared by all warps of one launch.
pub struct Board {
    /// Process-unique instance id (shadow-cell identity: a resident
    /// service runs several boards concurrently, and their mirror/slot/
    /// requeue cells must not alias in the race checker).
    check_id: u32,
    mirrors: Vec<Mirror>,
    warps_per_block: usize,
    stop: usize,
    /// Per-block bitmap of idle warps (bit = warp index within block).
    is_idle: Vec<AtomicU32>,
    /// Per-block global-steal slot (`global_stks` of Fig. 6).
    slots: Vec<Mutex<Option<StealPayload>>>,
    /// Number of warps currently busy (grid starts all-busy).
    busy: AtomicUsize,
    /// Number of pushed-but-unclaimed payloads (global slots + requeue).
    pending: AtomicUsize,
    /// Live warps per block; a block whose count hits zero can never claim
    /// its global slot again, so [`Board::mark_dead`] drains it.
    alive: Vec<AtomicUsize>,
    /// Total contained warp deaths this launch.
    deaths: AtomicUsize,
    /// Work reclaimed from dead warps (and salvage preloads), claimable by
    /// any warp. Counted in `pending` so `finished()` cannot fire while a
    /// dead warp's work sits unclaimed.
    requeue: Mutex<Vec<StealPayload>>,
    /// Level-0 chunk dispenser: next unclaimed vertex id.
    chunk_next: AtomicUsize,
    num_vertices: usize,
    chunk_size: usize,
    /// Cooperative cancellation: set when the deadline passes; observed by
    /// every warp on its claim paths.
    abort: AtomicBool,
    /// Optional wall-clock deadline for the launch.
    deadline: Option<Instant>,
    /// Cross-shard attachment `(rail, my shard)`. When set, level-0 chunks
    /// come from the shared rail instead of this board's own dispenser
    /// (construct the board with an empty `(0, 0)` range).
    rail: Option<(Arc<ShardRail>, usize)>,
}

impl Board {
    /// Creates the board for a grid of `num_blocks × warps_per_block` warps
    /// over the level-0 vertex range `[start, end)` (a full graph uses
    /// `(0, num_vertices)`; sharded grids pass `(0, 0)` and draw from the rail).
    pub fn new(
        num_blocks: usize,
        warps_per_block: usize,
        stop: usize,
        (start, end): (usize, usize),
        chunk_size: usize,
    ) -> Board {
        assert!((1..=MAX_STOP).contains(&stop), "stop level out of range");
        assert!(chunk_size >= 1);
        assert!(start <= end);
        let total = num_blocks * warps_per_block;
        assert!(warps_per_block <= 32, "is_idle bitmap holds 32 warps");
        let check_id = simt_check::next_object_id();
        Board {
            check_id,
            mirrors: (0..total).map(|w| Mirror::new(check_id, w)).collect(),
            warps_per_block,
            stop,
            is_idle: (0..num_blocks).map(|_| AtomicU32::new(0)).collect(),
            slots: (0..num_blocks).map(|_| Mutex::new(None)).collect(),
            busy: AtomicUsize::new(total),
            pending: AtomicUsize::new(0),
            alive: (0..num_blocks)
                .map(|_| AtomicUsize::new(warps_per_block))
                .collect(),
            deaths: AtomicUsize::new(0),
            requeue: Mutex::new(Vec::new()),
            chunk_next: AtomicUsize::new(start),
            num_vertices: end,
            chunk_size,
            abort: AtomicBool::new(false),
            deadline: None,
            rail: None,
        }
    }

    /// Attaches this board to a cross-shard rail as shard `shard`. The
    /// board must have been built with an empty level-0 range — the rail
    /// replaces the local dispenser entirely.
    pub fn attach_rail(&mut self, rail: Arc<ShardRail>, shard: usize) {
        assert!(
            // Relaxed: `&mut self` means no concurrent dispenser traffic.
            self.chunk_next.load(Ordering::Relaxed) >= self.num_vertices,
            "rail-attached boards must not own a local level-0 range"
        );
        self.rail = Some((rail, shard));
    }

    /// Sets a wall-clock deadline; warps poll it via [`Board::check_deadline`]
    /// and abandon remaining work once it passes.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// True once the launch was cancelled (deadline passed).
    #[inline]
    pub fn aborted(&self) -> bool {
        // Relaxed: `abort` is a one-way advisory latch polled on claim
        // paths; observing it a few claims late only delays cancellation,
        // and no data is published under the flag.
        self.abort.load(Ordering::Relaxed)
    }

    /// Reads the clock against the deadline (called by warps every few
    /// thousand claims) and latches the abort flag when it has passed.
    pub fn check_deadline(&self) -> bool {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                // Relaxed: same advisory-latch argument as `aborted`.
                self.abort.store(true, Ordering::Relaxed);
                return true;
            }
        }
        self.aborted()
    }

    /// The mirror of warp `id`.
    pub fn mirror(&self, id: usize) -> &Mirror {
        &self.mirrors[id]
    }

    /// Locks block `b`'s global-steal slot (class `GlobalSlot`, rank 10 —
    /// the outermost lock of the hierarchy; see the module docs). Counts as
    /// a write access to the `slot[b]` shadow cell at the caller's line.
    #[track_caller]
    fn lock_slot(&self, b: usize) -> simt_check::Tracked<'_, Option<StealPayload>> {
        let guard = simt_check::tracked_lock(&self.slots[b], simt_check::LockClass::GlobalSlot, b);
        simt_check::note_write_at(
            simt_check::Cell::global_slot(self.check_id, b),
            std::panic::Location::caller(),
        );
        guard
    }

    /// Locks the reclaimed-work queue (class `Requeue`, rank 20). Counts as
    /// a write access to the `requeue` shadow cell at the caller's line.
    #[track_caller]
    fn lock_requeue(&self) -> simt_check::Tracked<'_, Vec<StealPayload>> {
        let guard = simt_check::tracked_lock(&self.requeue, simt_check::LockClass::Requeue, 0);
        simt_check::note_write_at(
            simt_check::Cell::requeue(self.check_id),
            std::panic::Location::caller(),
        );
        guard
    }

    /// The configured stop level.
    pub fn stop(&self) -> usize {
        self.stop
    }

    /// The per-warp driver's one acquisition point (§V): blocks until warp
    /// `me` owns a work item and returns it with its [`Source`], or `None`
    /// when the warp should exit (launch finished or cancelled, or — both
    /// steal levels off — level 0 exhausted). First hit wins; the warp is
    /// *busy* through step 4 and again once a step-6/7 claim succeeds:
    ///
    /// 1. a level-0 chunk — own dispenser, or the rail (own shard queue,
    ///    else a cross-shard range steal);
    /// 2. a stack on the board's requeue (dead warps, salvage preload);
    /// 3. a stack on the rail's requeue (dead sibling shards);
    /// 4. `local_steal`: half of a block sibling's shallowest range;
    /// 5. both steal levels off: exit. Otherwise mark idle and poll:
    ///    `finished()` or the deadline → exit; chunks remain or a local
    ///    victim appeared → mark busy, restart from 1;
    /// 6. `global_steal`: a stack pushed to the block's global slot;
    /// 7. the board's requeue again (a death can land work after step 2).
    ///
    /// `m` gets what belongs to acquiring, not to the item acquired:
    /// `local_steal_attempts` and `idle_nanos`. Charging the item is the
    /// caller's [`Source::note`].
    pub fn acquire(
        &self,
        me: usize,
        local_steal: bool,
        global_steal: bool,
        m: &mut WarpMetrics,
    ) -> Option<(StealPayload, Source)> {
        'outer: loop {
            if self.aborted() {
                return None;
            }
            // --- Busy phase: acquire work. ---
            if let Some(chunk) = self.claim_chunk() {
                return Some(chunk);
            }
            if let Some(p) = self.claim_requeued_busy() {
                return Some((p, Source::Requeue));
            }
            // Rail payloads are outside this board's `pending` count; the
            // termination test sees them through `chunks_remain`.
            if let Some(p) = self.rail.as_ref().and_then(|(rail, _)| rail.pop_requeue()) {
                return Some((p, Source::RailRequeue));
            }
            if local_steal {
                m.local_steal_attempts += 1;
                if let Some(p) = self.try_local_steal(me) {
                    return Some((p, Source::LocalSteal));
                }
            }
            if !local_steal && !global_steal {
                return None; // naive mode: exit on chunk exhaustion
            }
            // --- Idle phase: spin for stealable or pushed work. ---
            self.mark_idle(me);
            let idle_start = Instant::now();
            loop {
                // Poll the deadline here too: with every busy warp
                // stalled or dead, kernel-side polling alone would
                // leave idle spinners waiting out the hang.
                if self.finished() || self.check_deadline() {
                    m.idle_nanos += idle_start.elapsed().as_nanos() as u64;
                    return None;
                }
                if self.chunks_remain() || (local_steal && self.any_local_victim(me)) {
                    self.mark_busy(me);
                    m.idle_nanos += idle_start.elapsed().as_nanos() as u64;
                    continue 'outer;
                }
                if global_steal {
                    // try_claim_global marks us busy.
                    if let Some(p) = self.try_claim_global(me) {
                        m.idle_nanos += idle_start.elapsed().as_nanos() as u64;
                        return Some((p, Source::GlobalSteal));
                    }
                }
                // try_claim_requeued marks us busy.
                if let Some(p) = self.try_claim_requeued(me) {
                    m.idle_nanos += idle_start.elapsed().as_nanos() as u64;
                    return Some((p, Source::Requeue));
                }
                std::thread::yield_now();
            }
        }
    }

    /// Claims the next chunk of the level-0 domain (Fig. 4's
    /// `getCandidates` at level 0): off the rail when attached, else off
    /// the board's own dispenser.
    fn claim_chunk(&self) -> Option<(StealPayload, Source)> {
        if let Some((rail, shard)) = &self.rail {
            return rail.claim(*shard);
        }
        loop {
            // Relaxed CAS loop: the dispenser is a pure counter — chunk
            // ownership is established by the CAS itself and the claimed
            // range is derived from the exchanged values, not from data
            // published alongside the atomic.
            let lo = self.chunk_next.load(Ordering::Relaxed);
            if lo >= self.num_vertices {
                return None;
            }
            let hi = (lo + self.chunk_size).min(self.num_vertices);
            // Relaxed on both legs: the dispenser only hands out disjoint
            // vertex ranges; no other memory is published alongside the
            // claim, so the CAS needs atomicity, not ordering.
            if self
                .chunk_next
                .compare_exchange_weak(lo, hi, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Some((StealPayload::chunk(lo, hi), Source::Chunk));
            }
        }
    }

    /// True while unclaimed level-0 chunks remain.
    fn chunks_remain(&self) -> bool {
        if let Some((rail, shard)) = &self.rail {
            // Rail work (own queue, stealable victims, reclaimed payloads)
            // is not counted in `pending`; the termination test sees it
            // through this branch instead.
            return rail.has_claimable(*shard);
        }
        // Relaxed: the cursor is monotone, so a stale read can only claim
        // "chunks remain" when they are already gone — the caller then
        // issues a real `claim_chunk` (CAS) and learns the truth; spurious
        // non-termination for one spin iteration, never missed work.
        self.chunk_next.load(Ordering::Relaxed) < self.num_vertices
    }

    /// Marks warp `id` idle (sets its bitmap bit, decrements the busy
    /// counter).
    pub fn mark_idle(&self, id: usize) {
        let block = id / self.warps_per_block;
        let bit = 1u32 << (id % self.warps_per_block);
        // SeqCst on the idle bitmap and the busy/pending counters: the
        // termination protocol (`finished`) and the global-push detector
        // reason about a single global order of these updates across
        // *different* atomics (idle-bit set vs busy decrement vs pending
        // increment). Acquire/release alone does not order independent
        // variables; SeqCst buys the total order the proofs below rely on.
        self.is_idle[block].fetch_or(bit, Ordering::SeqCst);
        self.busy.fetch_sub(1, Ordering::SeqCst);
    }

    /// Marks warp `id` busy again (clears its bit, increments busy).
    fn mark_busy(&self, id: usize) {
        let block = id / self.warps_per_block;
        let bit = 1u32 << (id % self.warps_per_block);
        // SeqCst, and busy rises *before* the idle bit clears: a warp in
        // transition must look busy to `finished()` (fail-safe direction —
        // see the claim-ordering comments in try_claim_global).
        self.busy.fetch_add(1, Ordering::SeqCst);
        self.is_idle[block].fetch_and(!bit, Ordering::SeqCst);
    }

    /// Termination test for idle warps: nothing busy, nothing pending,
    /// no chunks left.
    fn finished(&self) -> bool {
        // SeqCst loads: both counters participate in the single total
        // order established by the SeqCst updates above, so once this
        // conjunction is observed true it is globally true (claims bump
        // busy before releasing pending, never the reverse).
        self.busy.load(Ordering::SeqCst) == 0
            && self.pending.load(Ordering::SeqCst) == 0
            && !self.chunks_remain()
    }

    /// Whether any block sibling of `me` has stealable work (used by idle
    /// spinners to decide whether a full steal attempt is worthwhile). Not a
    /// lock-free peek: it takes each sibling's mirror lock in turn, one at a
    /// time, on every idle spin that reaches it.
    fn any_local_victim(&self, me: usize) -> bool {
        let block = me / self.warps_per_block;
        let base = block * self.warps_per_block;
        (base..base + self.warps_per_block).any(|w| {
            if w == me {
                return false;
            }
            let m = self.mirrors[w].lock();
            (0..self.stop).any(|l| m.remaining(l) >= 2)
        })
    }

    /// Local stealing (§V-A): picks the sibling with the most remaining
    /// shallow work and takes half of its shallowest remaining range.
    fn try_local_steal(&self, me: usize) -> Option<StealPayload> {
        let block = me / self.warps_per_block;
        let base = block * self.warps_per_block;
        // Pass 1: score victims. Shallower targets dominate (their subtrees
        // are larger); remaining count breaks ties.
        let mut best: Option<(usize, usize, usize)> = None; // (victim, level, remaining)
        for w in base..base + self.warps_per_block {
            if w == me {
                continue;
            }
            let m = self.mirrors[w].lock();
            for l in 0..self.stop {
                let rem = m.remaining(l);
                if rem >= 2 {
                    let better = match best {
                        None => true,
                        Some((_, bl, brem)) => l < bl || (l == bl && rem > brem),
                    };
                    if better {
                        best = Some((w, l, rem));
                    }
                    break; // shallowest level of this victim found
                }
            }
        }
        let (victim, _, _) = best?;
        // Pass 2: re-validate under the victim's lock and split.
        let mut m = self.mirrors[victim].lock();
        let level = (0..self.stop).find(|&l| m.remaining(l) >= 2)?;
        Some(Self::split(&mut m, level))
    }

    /// Divide-and-copy (Fig. 5): halves the remaining range at `level` of a
    /// locked mirror and returns the stolen tail.
    fn split(m: &mut MirrorState, level: usize) -> StealPayload {
        let rem = m.remaining(level);
        debug_assert!(rem >= 2);
        let take = rem / 2;
        m.size[level] -= take;
        m.payload(level, m.size[level], m.size[level] + take)
    }

    /// A block's `is_idle` word when every one of its warps is idle. A
    /// right shift of the all-ones word, not `(1 << n) - 1`: the paper's
    /// block shape is `n == 32`, where the left shift overflows.
    fn full_idle_mask(&self) -> u32 {
        u32::MAX >> (32 - self.warps_per_block)
    }

    /// Global-steal detection + push (§V-B): called by a busy warp (`me`)
    /// when it claims work at a level `< DetectLevel`. If some *other* block
    /// is fully idle and its slot is free, half of this warp's shallowest
    /// remaining range is pushed there. Returns true if a push happened.
    pub fn try_push_global(&self, me: usize) -> bool {
        let my_block = me / self.warps_per_block;
        let full = self.full_idle_mask();
        for b in 0..self.is_idle.len() {
            // SeqCst: the idle-bitmap read must sit in the same total
            // order as mark_idle/mark_busy so a block observed fully idle
            // really had all warps past their busy decrement.
            if b == my_block || self.is_idle[b].load(Ordering::SeqCst) != full {
                continue;
            }
            let mut slot = self.lock_slot(b);
            if slot.is_some() {
                continue;
            }
            // Re-check liveness under the slot lock: a payload pushed to a
            // block whose last warp died would be stranded forever
            // (`mark_dead` drains the slot in the same lock order, so one
            // of the two always sees the other's effect). SeqCst: ordered
            // against mark_dead's alive decrement.
            if self.alive[b].load(Ordering::SeqCst) == 0 {
                continue;
            }
            // Split our own mirror. Mirror lock (rank 30) nests inside the
            // slot lock (rank 10) per the declared hierarchy; no other
            // path acquires them in the opposite order (the deadlock
            // checker enforces this).
            let payload = {
                let mut m = self.mirrors[me].lock();
                match (0..self.stop).find(|&l| m.remaining(l) >= 2) {
                    Some(level) => Self::split(&mut m, level),
                    None => return false,
                }
            };
            // SeqCst, and pending rises *before* the payload lands: a
            // `finished()` that observes the slot full also observes
            // pending > 0 (fail-safe: work in flight blocks termination).
            self.pending.fetch_add(1, Ordering::SeqCst);
            *slot = Some(payload);
            return true;
        }
        false
    }

    /// Claims a payload pushed to `block`'s slot, transitioning the caller
    /// busy in the same critical section.
    ///
    /// Plain grids serve only the caller's own block: `finished()` is
    /// stable there, so a pushed payload always has a live claimant in its
    /// target block. Rail-attached grids widen the scan to every block
    /// (own block first): a late rail requeue can leave a single warp in
    /// the loop after its siblings exited with their idle bits still set —
    /// the push detector then targets an *exited* block, and a payload
    /// parked on that slot would strand `pending` above zero forever,
    /// spinning the last warp on a termination test that can never pass.
    pub fn try_claim_global(&self, me: usize) -> Option<StealPayload> {
        let my_block = me / self.warps_per_block;
        let blocks = self.is_idle.len();
        let widen = self.rail.is_some();
        for b in std::iter::once(my_block).chain((0..blocks).filter(|&b| widen && b != my_block)) {
            let mut slot = self.lock_slot(b);
            if let Some(payload) = slot.take() {
                // Become busy *before* decrementing pending (SeqCst both)
                // so `finished()` can never observe both counters at zero
                // while work is in flight.
                self.mark_busy(me);
                self.pending.fetch_sub(1, Ordering::SeqCst);
                return Some(payload);
            }
        }
        None
    }

    // --- Fault containment and recovery ------------------------------

    /// Returns work reclaimed from a dead warp to the board. Called by the
    /// containment layer *before* [`Board::mark_dead`], while the dying
    /// warp still counts as busy — so `finished()` cannot fire between the
    /// requeue and the death bookkeeping.
    pub fn requeue_dead(&self, payloads: Vec<StealPayload>) {
        if payloads.is_empty() {
            return;
        }
        // SeqCst, pending before the queue grows: `finished()` observing
        // the requeued work also observes pending > 0.
        self.pending.fetch_add(payloads.len(), Ordering::SeqCst);
        self.lock_requeue().extend(payloads);
    }

    /// Records the death of warp `me`. Which side of the idle protocol the
    /// warp died on is read off its own idle bit (only the warp itself ever
    /// flips it, and no step between the bit and the busy count can
    /// unwind): busy warps release their busy count, idle warps release
    /// their idle bit (a dead warp must never read as idle, or its block
    /// could receive global pushes no one will claim). When the block's
    /// last live warp dies, any payload stranded in the block's global slot
    /// is moved to the requeue.
    pub fn mark_dead(&self, me: usize) {
        let block = me / self.warps_per_block;
        let bit = 1u32 << (me % self.warps_per_block);
        // SeqCst throughout: death bookkeeping joins the same total order
        // as the idle/busy/pending protocol (a dead warp must never read
        // as idle or busy to the termination test or the push detector).
        let was_busy = self.is_idle[block].load(Ordering::SeqCst) & bit == 0;
        self.deaths.fetch_add(1, Ordering::SeqCst);
        self.alive[block].fetch_sub(1, Ordering::SeqCst);
        if was_busy {
            self.busy.fetch_sub(1, Ordering::SeqCst);
        }
        self.is_idle[block].fetch_and(!bit, Ordering::SeqCst);
        if self.alive[block].load(Ordering::SeqCst) == 0 {
            // Last live warp of the block: drain the global slot (pushers
            // re-check `alive` under this same lock, so no new payload can
            // land after the drain). Slot (rank 10) then requeue (rank 20)
            // — increasing rank per the declared hierarchy.
            let stranded = self.lock_slot(block).take();
            if let Some(p) = stranded {
                // Already counted in `pending`; moving it keeps the count.
                self.lock_requeue().push(p);
            }
        }
    }

    /// Contained warp deaths so far.
    pub fn death_count(&self) -> usize {
        // SeqCst: read by post-launch reporting; cheap and consistent with
        // the writer side.
        self.deaths.load(Ordering::SeqCst)
    }

    /// Claims a requeued work item from the busy phase (the caller already
    /// counts as busy).
    fn claim_requeued_busy(&self) -> Option<StealPayload> {
        let p = self.lock_requeue().pop()?;
        // SeqCst: the claimer is already busy, so pending may drop without
        // a busy handoff — `finished()` still cannot pass while this warp
        // works the payload.
        self.pending.fetch_sub(1, Ordering::SeqCst);
        Some(p)
    }

    /// Claims a requeued work item from the idle phase, transitioning the
    /// caller busy before releasing the pending count (same ordering as
    /// [`Board::try_claim_global`]).
    fn try_claim_requeued(&self, me: usize) -> Option<StealPayload> {
        let p = self.lock_requeue().pop()?;
        self.mark_busy(me);
        // SeqCst: pending participates in the global termination protocol
        // — the decrement must totally order with idle-mask publishes so
        // quiescence detection never misses an in-flight item.
        self.pending.fetch_sub(1, Ordering::SeqCst);
        Some(p)
    }

    /// Latches the abort flag unconditionally (containment failure path:
    /// survivors must exit rather than spin on broken counters).
    pub fn force_abort(&self) {
        // SeqCst (unlike the deadline latch): the containment-failure path
        // must be visible to survivors before the failing thread resumes
        // its unwind; cheap, and this path is cold by definition.
        self.abort.store(true, Ordering::SeqCst);
    }

    /// Post-launch drain: any work still requeued (every warp has
    /// returned, so no claim can race this), plus anything still parked in
    /// a global slot — a warp that pushed to an *exited* block and then
    /// died leaves its payload in the slot with no claimant, and a
    /// requeue-only drain would silently drop that work. The engine hands
    /// leftovers to a salvage relaunch or reports them unrecovered.
    pub fn take_leftovers(&self) -> Vec<StealPayload> {
        let mut out = {
            let mut q = self.lock_requeue();
            std::mem::take(&mut *q)
        };
        for b in 0..self.is_idle.len() {
            if let Some(p) = self.lock_slot(b).take() {
                out.push(p);
            }
        }
        // SeqCst: post-join bookkeeping; the thread join already ordered
        // everything, the strong ordering just keeps the counter protocol
        // uniform.
        self.pending.fetch_sub(out.len(), Ordering::SeqCst);
        out
    }

    /// Post-launch chunk cursor: where a salvage relaunch must resume the
    /// level-0 range (an all-warps-dead grid leaves chunks unclaimed).
    pub fn chunk_cursor(&self) -> usize {
        // SeqCst: read after the launch joined; strong ordering is free
        // here and makes the salvage handoff unconditional.
        self.chunk_next
            .load(Ordering::SeqCst)
            .min(self.num_vertices)
    }

    /// Seeds the requeue with leftover work from a previous launch of the
    /// same logical run (salvage relaunch).
    pub fn preload(&mut self, payloads: Vec<StealPayload>) {
        // SeqCst: runs before the relaunch spawns warps (exclusive &mut
        // access); uniform with the rest of the pending protocol.
        self.pending.fetch_add(payloads.len(), Ordering::SeqCst);
        *self.lock_requeue() = payloads;
    }
}

/// Seeded concurrency-bug mutations for the `simt_check` kill gate.
///
/// Each function deterministically replays the *checker-visible event
/// stream* of a classic synchronization bug without making the board
/// memory-unsafe: the raw mutex still serializes memory (safe Rust cannot
/// tear the state), but the acquire/release events the checker would need
/// to establish happens-before are missing or inverted — exactly what the
/// analyzer would observe if the real bug were introduced. The `simt_check`
/// bin's `--mutate=...` modes and `tests/simt_check.rs` assert these are
/// caught; CI fails if either ever goes silent.
#[doc(hidden)]
pub mod mutation {
    use super::*;

    /// Mutation **lock-drop**: a shallow-claim read-modify-write of a
    /// mirror with the `Mirror::lock` acquisition deleted. No acquire
    /// event reaches the checker, so the access carries no happens-before
    /// edge to any locked access of the same mirror — the race detector
    /// must report it, naming this site and the racing locked site.
    pub fn claim_shallow_without_lock(board: &Board, victim: usize, level: usize) -> Option<usize> {
        let mut m = board.mirrors[victim]
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // The access event fires at *this* line (the mutation site).
        simt_check::note_write(simt_check::Cell::mirror(board.check_id, victim));
        if m.iter[level] < m.size[level] {
            let i = m.iter[level];
            m.iter[level] += 1;
            Some(i)
        } else {
            None
        }
    }

    /// Mutation **lock-invert**: [`Board::try_push_global`] with the
    /// declared slot → mirror nesting inverted to mirror → slot. Once the
    /// legitimate order has been observed (any real global push), this
    /// closes a cycle in the acquisition graph and the deadlock analyzer
    /// must report it.
    pub fn push_global_inverted(board: &Board, me: usize) -> bool {
        let my_block = me / board.warps_per_block;
        let full = board.full_idle_mask();
        // WRONG: mirror lock (rank 30) taken first and held across the
        // slot acquisition (rank 10).
        let mut m = board.mirrors[me].lock();
        for b in 0..board.is_idle.len() {
            // SeqCst loads/increment below: same termination-protocol
            // orderings as the correct push_global — only the lock order
            // is the seeded defect here.
            if b == my_block || board.is_idle[b].load(Ordering::SeqCst) != full {
                continue;
            }
            let mut slot = board.lock_slot(b);
            if slot.is_some() || board.alive[b].load(Ordering::SeqCst) == 0 {
                continue;
            }
            let payload = match (0..board.stop).find(|&l| m.remaining(l) >= 2) {
                Some(level) => Board::split(&mut m, level),
                None => return false,
            };
            // SeqCst: termination-protocol increment, before the slot
            // publish, exactly as in the correct push_global.
            board.pending.fetch_add(1, Ordering::SeqCst);
            *slot = Some(payload);
            return true;
        }
        false
    }

    /// Mutation **rail-drop**: a cross-shard rail claim with the
    /// `ShardRail::lock_state` acquisition deleted. No acquire event
    /// reaches the checker, so the access carries no happens-before edge to
    /// any tracked rail access — the race detector must report it, naming
    /// the `rail[id]` cell and both sites.
    pub fn rail_claim_without_lock(rail: &ShardRail) -> Option<(usize, usize)> {
        let mut st = rail.state.lock().unwrap_or_else(PoisonError::into_inner);
        // The access event fires at *this* line (the mutation site).
        simt_check::note_write(simt_check::Cell::rail(rail.check_id));
        let q = st.queues.iter_mut().find(|q| !q.is_empty())?;
        ShardRail::carve(q, rail.chunk_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board() -> Board {
        Board::new(2, 2, 2, (0, 100), 10)
    }

    #[test]
    fn chunks_partition_the_universe() {
        let b = board();
        let mut seen = Vec::new();
        while let Some((c, _)) = b.claim_chunk() {
            seen.push((c.lo, c.hi));
        }
        assert_eq!(seen.len(), 10);
        assert_eq!(seen.first(), Some(&(0, 10)));
        assert_eq!(seen.last(), Some(&(90, 100)));
        assert!(!b.chunks_remain());
    }

    #[test]
    fn idle_busy_counters() {
        let b = board();
        assert!(!b.finished());
        for w in 0..4 {
            b.mark_idle(w);
        }
        // Chunks still remain: not finished.
        assert!(!b.finished());
        while b.claim_chunk().is_some() {}
        assert!(b.finished());
        b.mark_busy(1);
        assert!(!b.finished());
    }

    #[test]
    fn local_steal_halves_the_victim() {
        let b = board();
        {
            let mut m = b.mirror(1).lock();
            m.iter[0] = 10;
            m.size[0] = 30;
            m.matched[0] = 42;
        }
        let p = b.try_local_steal(0).expect("stealable work");
        assert_eq!(p.target, 0);
        assert!(p.matched.is_empty());
        assert_eq!((p.lo, p.hi), (20, 30));
        let m = b.mirror(1).lock();
        assert_eq!(m.remaining(0), 10);
    }

    #[test]
    fn local_steal_prefers_shallow_levels() {
        let b = board();
        {
            let mut m = b.mirror(1).lock();
            m.iter[1] = 0;
            m.size[1] = 100; // lots of deep work
            m.matched[0] = 7;
        }
        {
            // Warp 1 also has a little level-0 work — that must win.
            let mut m = b.mirror(1).lock();
            m.iter[0] = 0;
            m.size[0] = 4;
        }
        let p = b.try_local_steal(0).unwrap();
        assert_eq!(p.target, 0);
    }

    #[test]
    fn local_steal_carries_matched_prefix() {
        let b = board();
        {
            let mut m = b.mirror(1).lock();
            m.matched[0] = 99;
            m.iter[1] = 5;
            m.size[1] = 9;
        }
        let p = b.try_local_steal(0).unwrap();
        assert_eq!(p.target, 1);
        assert_eq!(p.matched, vec![99]);
        assert_eq!((p.lo, p.hi), (7, 9));
    }

    #[test]
    fn local_steal_ignores_other_blocks() {
        let b = board();
        {
            let mut m = b.mirror(3).lock(); // block 1
            m.size[0] = 50;
        }
        assert!(b.try_local_steal(0).is_none()); // warp 0 is in block 0
        assert!(b.try_local_steal(2).is_some());
    }

    #[test]
    fn global_push_requires_fully_idle_block() {
        // 32 is the paper's block shape: it fills the whole `is_idle` word.
        for wpb in [2, 32] {
            let b = Board::new(2, wpb, 2, (0, 100), 10);
            b.mirror(0).lock().size[0] = 40;
            assert!(!b.try_push_global(0), "no idle block yet");
            for w in wpb..2 * wpb - 1 {
                b.mark_idle(w);
            }
            assert!(!b.try_push_global(0), "block 1 one warp short of idle");
            b.mark_idle(2 * wpb - 1);
            assert!(b.try_push_global(0), "wpb={wpb}");
            // Slot now full; a second push is refused.
            assert!(!b.try_push_global(0));
            let p = b.try_claim_global(wpb).unwrap();
            assert_eq!((p.lo, p.hi), (20, 40));
            assert!(b.try_claim_global(wpb + 1).is_none());
        }
    }

    #[test]
    fn source_table_is_the_cost_model() {
        // (source, burst, counters bumped: [shard_steal_receives,
        // requeue_claims, local_steals, global_steal_receives,
        // global_steal_pushes]) — the whole fixed cost model, with the
        // bursts' amounts pinned by the cost table's own test; a schedule
        // that charges in simulated cycles inherits exactly this.
        let table = [
            (Source::Chunk, None, [0, 0, 0, 0, 0]),
            (Source::RailSteal, Some(Burst::Device), [1, 0, 0, 0, 0]),
            (Source::Requeue, Some(Burst::Global), [0, 1, 0, 0, 0]),
            (Source::RailRequeue, Some(Burst::Device), [1, 1, 0, 0, 0]),
            (Source::LocalSteal, Some(Burst::Block), [0, 0, 1, 0, 0]),
            (Source::GlobalSteal, Some(Burst::Global), [0, 0, 0, 1, 0]),
            (Source::GlobalPush, Some(Burst::Global), [0, 0, 0, 0, 1]),
        ];
        let grid = stmatch_gpusim::Grid::new(stmatch_gpusim::GridConfig {
            num_blocks: 1,
            warps_per_block: 1,
            shared_mem_per_block: 0,
        })
        .unwrap();
        for (src, burst, [rail, requeue, local, receive, push]) in table {
            let got = grid.launch(|w| src.note(w)).warps[0];
            let want = WarpMetrics {
                simt_instructions: burst.map_or(0, |b| Cost::Transfer(b).price().0),
                shard_steal_receives: rail,
                requeue_claims: requeue,
                local_steals: local,
                global_steal_receives: receive,
                global_steal_pushes: push,
                ..WarpMetrics::default()
            };
            assert_eq!((src.cost(), got), (burst, want), "{src:?}");
        }
    }

    /// One `acquire` with both steal levels on: `(source, lo, hi)` served.
    fn serve(b: &Board, me: usize, m: &mut WarpMetrics) -> Option<(Source, usize, usize)> {
        let (p, src) = b.acquire(me, true, true, m)?;
        Some((src, p.lo, p.hi))
    }

    #[test]
    fn acquire_serves_a_plain_board_in_protocol_order() {
        // Warp 0 drives; warps 1 and 3 are parked idle, and warp 1's mirror
        // holds stealable work from the start — so each earlier source wins
        // *although* a later one is available.
        let mut m = WarpMetrics::default();
        let mut b = Board::new(2, 2, 2, (0, 10), 10);
        b.preload(vec![StealPayload::chunk(50, 60)]);
        b.mark_idle(1);
        b.mark_idle(3);
        b.mirror(1).lock().size[0] = 8;
        assert_eq!(serve(&b, 0, &mut m), Some((Source::Chunk, 0, 10)));
        assert_eq!(serve(&b, 0, &mut m), Some((Source::Requeue, 50, 60)));
        assert_eq!(m.local_steal_attempts, 0, "no steal attempt so far");
        assert_eq!(serve(&b, 0, &mut m), Some((Source::LocalSteal, 4, 8)));
        b.mirror(1).lock().size[0] = 0;
        // Global slot: block 1 goes fully idle, warp 0 pushes half of its
        // running range there; warp 2 wakes, finds nothing in its busy
        // phase, and reaches the slot from the idle phase.
        b.mark_idle(2);
        b.mirror(0).lock().size[0] = 40;
        assert!(b.try_push_global(0));
        b.mirror(0).lock().size[0] = 0;
        b.mark_busy(2);
        let mut m2 = WarpMetrics::default();
        assert_eq!(serve(&b, 2, &mut m2), Some((Source::GlobalSteal, 20, 40)));
        assert_eq!(m2.local_steal_attempts, 1, "busy phase ran first");
        // Warp 2 parks again; nothing is left anywhere, so warp 0 goes idle
        // last and is the one warp that observes termination.
        b.mark_idle(2);
        assert!(!b.finished());
        assert_eq!(serve(&b, 0, &mut m), None);
        assert!(b.finished());
        assert_eq!(m.local_steal_attempts, 2);
    }

    #[test]
    fn pending_prevents_premature_termination() {
        let b = board();
        while b.claim_chunk().is_some() {}
        {
            let mut m = b.mirror(0).lock();
            m.size[0] = 10;
        }
        b.mark_idle(2);
        b.mark_idle(3);
        assert!(b.try_push_global(0));
        // Warps 0,1 finish; 2,3 idle; one payload pending.
        b.mark_idle(0);
        b.mark_idle(1);
        assert!(!b.finished(), "pending payload must block termination");
        let _ = b.try_claim_global(2).unwrap();
        assert!(!b.finished(), "claimer is busy now");
        b.mark_idle(2);
        assert!(b.finished());
    }

    #[test]
    fn requeue_blocks_termination_until_claimed() {
        let b = board();
        while b.claim_chunk().is_some() {}
        for w in 0..4 {
            b.mark_idle(w);
        }
        assert!(b.finished());
        b.mark_busy(0);
        b.requeue_dead(vec![StealPayload::chunk(3, 7)]);
        b.mark_dead(0);
        assert_eq!(b.death_count(), 1);
        assert!(!b.finished(), "requeued work must block termination");
        let p = b.try_claim_requeued(1).expect("claimable");
        assert_eq!((p.lo, p.hi), (3, 7));
        assert!(!b.finished(), "claimer is busy");
        b.mark_idle(1);
        assert!(b.finished());
    }

    #[test]
    fn death_of_last_block_warp_drains_global_slot() {
        let b = board();
        {
            let mut m = b.mirror(0).lock();
            m.size[0] = 40;
        }
        // Block 1 goes fully idle, receives a push...
        b.mark_idle(2);
        b.mark_idle(3);
        assert!(b.try_push_global(0));
        // ...then both of its warps die before claiming it.
        b.mark_dead(2);
        b.mark_dead(3);
        let p = b.try_claim_requeued(1).expect("stranded payload reclaimed");
        assert_eq!((p.lo, p.hi), (20, 40));
        assert!(b.try_claim_global(2).is_none(), "slot was drained");
    }

    #[test]
    fn push_skips_dead_blocks() {
        let b = board();
        {
            let mut m = b.mirror(0).lock();
            m.size[0] = 40;
        }
        b.mark_idle(2);
        b.mark_idle(3);
        b.mark_dead(2);
        b.mark_dead(3);
        assert!(!b.try_push_global(0), "dead block must not receive pushes");
    }

    #[test]
    fn dead_idle_warp_never_reads_idle() {
        let b = board();
        b.mark_idle(2);
        b.mark_dead(2);
        b.mark_idle(3);
        {
            let mut m = b.mirror(0).lock();
            m.size[0] = 40;
        }
        // Block 1 has one idle live warp and one dead warp: not fully
        // idle, so no push lands.
        assert!(!b.try_push_global(0));
    }

    #[test]
    fn leftovers_drain_and_preload_roundtrip() {
        let b = board();
        b.requeue_dead(vec![
            StealPayload {
                target: 1,
                matched: vec![9],
                lo: 0,
                hi: 2,
            },
            StealPayload::chunk(5, 6),
        ]);
        let left = b.take_leftovers();
        assert_eq!(left.len(), 2);
        assert!(b.take_leftovers().is_empty());
        let mut b2 = Board::new(2, 2, 2, (b.chunk_cursor(), 100), 10);
        b2.preload(left);
        assert!(!b2.finished());
        assert!(b2.claim_requeued_busy().is_some());
        assert!(b2.claim_requeued_busy().is_some());
        assert!(b2.claim_requeued_busy().is_none());
    }

    /// One rail claim as `(lo, hi, source)`.
    fn grant(rail: &ShardRail, shard: usize) -> Option<(usize, usize, Source)> {
        rail.claim(shard).map(|(p, src)| (p.lo, p.hi, src))
    }

    #[test]
    fn rail_serves_own_range_then_steals() {
        let rail = ShardRail::new(&[0, 50, 100], 10, true);
        // Shard 0 drains its own range first, chunk by chunk.
        for lo in (0..50).step_by(10) {
            assert_eq!(grant(&rail, 0), Some((lo, lo + 10, Source::Chunk)));
        }
        // Next claim steals the tail half of shard 1's untouched range.
        assert_eq!(grant(&rail, 0), Some((75, 85, Source::RailSteal)));
        // The follow-up claim continues from the moved range, un-stolen.
        assert_eq!(grant(&rail, 0), Some((85, 95, Source::Chunk)));
        assert_eq!(rail.stats().cross_steals, 1);
        // Everything is eventually claimed exactly once.
        let mut covered = [false; 100];
        for (lo, hi) in [(0, 50), (75, 95)] {
            covered[lo..hi].fill(true);
        }
        for shard in [0, 1] {
            while let Some((lo, hi, _)) = grant(&rail, shard) {
                for c in covered.iter_mut().take(hi).skip(lo) {
                    assert!(!*c, "claimed twice");
                    *c = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c));
        assert!(!rail.has_claimable(0));
    }

    #[test]
    fn rail_without_cross_steal_keeps_shards_apart() {
        let rail = ShardRail::new(&[0, 50, 100], 10, false);
        while rail.claim(0).is_some() {}
        assert!(!rail.has_claimable(0), "no stealing: shard 0 is done");
        assert!(rail.has_claimable(1));
        let (ranges, payloads) = rail.drain_remaining();
        assert_eq!(ranges, vec![(50, 100)]);
        assert!(payloads.is_empty());
    }

    #[test]
    fn rail_requeue_blocks_termination_and_roundtrips() {
        let rail = ShardRail::new(&[0, 10], 10, true);
        while rail.claim(0).is_some() {}
        assert!(!rail.has_claimable(0));
        rail.mark_shard_dead(0);
        rail.push_requeue(vec![StealPayload::chunk(3, 7)]);
        assert!(rail.has_claimable(0), "requeued payload must be claimable");
        let p = rail.pop_requeue().unwrap();
        assert_eq!((p.lo, p.hi), (3, 7));
        let s = rail.stats();
        assert_eq!(s.requeue_pushes, 1);
        assert_eq!(s.requeue_claims, 1);
        assert_eq!(s.shard_deaths, 1);
    }

    #[test]
    fn acquire_serves_a_rail_attached_board_through_the_rail() {
        // Shard 0 of 2, warp 0 driving; warp 1's mirror is stealable from
        // the start and a dead sibling's payload already sits on the rail.
        let mut m = WarpMetrics::default();
        let rail = Arc::new(ShardRail::new(&[0, 10, 30], 10, true));
        rail.push_requeue(vec![StealPayload::chunk(70, 80)]);
        let mut b = Board::new(1, 2, 2, (0, 0), 10);
        b.attach_rail(rail.clone(), 0);
        b.mirror(1).lock().size[0] = 8;
        assert_eq!(serve(&b, 0, &mut m), Some((Source::Chunk, 0, 10)));
        // Own queue drained: the grant is the tail half of shard 1's range.
        assert_eq!(serve(&b, 0, &mut m), Some((Source::RailSteal, 20, 30)));
        while rail.claim(1).is_some() {}
        assert!(b.chunks_remain(), "rail payload must block termination");
        assert_eq!(serve(&b, 0, &mut m), Some((Source::RailRequeue, 70, 80)));
        assert!(!b.chunks_remain());
        assert_eq!(serve(&b, 0, &mut m), Some((Source::LocalSteal, 4, 8)));
        b.mirror(1).lock().size[0] = 0;
        b.mark_idle(1);
        assert!(!b.finished());
        assert_eq!(serve(&b, 0, &mut m), None);
        assert!(b.finished());
        let stats = rail.stats();
        assert_eq!((stats.cross_steals, stats.requeue_claims), (1, 1));
    }

    #[test]
    fn rail_from_parts_distributes_leftovers() {
        let rail = ShardRail::from_parts(2, 5, false, vec![(0, 5), (7, 9), (9, 9)], Vec::new());
        assert_eq!(rail.num_shards(), 2);
        assert_eq!(grant(&rail, 0), Some((0, 5, Source::Chunk)));
        assert_eq!(grant(&rail, 1), Some((7, 9, Source::Chunk)));
        assert!(rail.claim(0).is_none(), "empty range was dropped");
    }

    #[test]
    fn concurrent_chunk_claims_never_overlap() {
        let b = std::sync::Arc::new(Board::new(1, 4, 1, (0, 10_000), 7));
        let ranges: Vec<(StealPayload, Source)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let b = b.clone();
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(r) = b.claim_chunk() {
                            got.push(r);
                        }
                        got
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut covered = vec![false; 10_000];
        for (r, _) in ranges {
            for (v, c) in covered.iter_mut().enumerate().take(r.hi).skip(r.lo) {
                assert!(!*c, "vertex {v} claimed twice");
                *c = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }
}
