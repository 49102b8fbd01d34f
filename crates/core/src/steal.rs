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
//!   per-block `is_idle` bitmap and polls; busy warps test for fully-idle
//!   blocks when claiming work at a level below `DetectLevel` and push half
//!   of their shallowest remaining range into the target block's
//!   `global_stks` slot (Fig. 6).
//!
//! A warp's whole acquisition order — level-0 chunk, requeued and stolen
//! stacks, the idle wait — is [`Board::poll`], which never blocks: an idle
//! warp's poll makes one pass of the wait, and the driver steps again (the
//! one idle spin). Every item it hands out is a [`StealPayload`] tagged with
//! its [`Source`], whose [`cost`](Source::cost) is the cost of moving it.
//!
//! Every board belongs to one launch. A sharded run is one launch per
//! shard over that shard's own slice of the level-0 domain, as the paper's
//! multi-GPU split does (§VIII-B; [`crate::shard`]): shards share no board
//! state and never steal from each other.
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
//! | 1    | `ServiceGraph` | `service::Inner::dynamic` (delta graph state) | — (outermost; held only to fold a batch and pick its plan-cache entries, to register a watcher, or to clone out the current snapshot — never across a launch or a compile; it may take the plan-cache lock, to choose a batch's entries or register a watcher on one, and no other) |
//! | 2    | `ServiceAdmission` | `service::Inner::queue` (admission queue) | — (outermost) |
//! | 4    | `ServicePlanCache` | `service::Inner::cache` (canonical plan cache: the service's one record per pattern) | `ServiceGraph` (a batch's pick, a watcher's registration); never held across engine locks |
//! | 6    | `ServiceArenaPool` | `pool::WarmSlot`: every engine's arena free-list, which each warp of each launch checks out of and gives back to | — (never held across engine locks) |
//! | 10   | `GlobalSlot` | `Board::blocks[b].slot` (per-block slot)  | — (outermost engine lock) |
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
//!
//! The simulator's parked warp-thread list (`stmatch_gpusim::Grid`) and
//! each parked thread's hand-off cell sit outside the hierarchy: a launch
//! holds one only to pop or push threads, or to write a job or read a
//! result, with nothing else held, and no kernel code runs under either.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use stmatch_gpusim::{Burst, Cost, Site, Warp, WarpMetrics, MAX_WARPS_PER_BLOCK};
use stmatch_graph::VertexId;

/// Upper bound on `StopLevel` (how deep the stealable region may reach).
pub const MAX_STOP: usize = 4;

/// The stealable shallow state of one warp's stack.
#[derive(Clone, Debug, Default)]
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

/// A lockable mirror. Every warp locks its own mirror at each shallow claim
/// and publish, so these locks sit on the claim path. Mirrors are still not
/// padded to a cache line: 128-byte padding won `resident_tick`'s wall time
/// in only 7 of 10 alternating pairs (2-vCPU x86-64) and grew both
/// benchmark workloads' allocated bytes.
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
            state: Mutex::new(MirrorState::default()),
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
    /// A level-0 chunk off the board's dispenser: free, uncounted.
    Chunk,
    /// A dead warp's stack (or a salvage preload) off the board's requeue.
    Requeue,
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
    /// memory (either side). The amounts are the cost table's
    /// ([`Cost::Transfer`]).
    pub const fn cost(self) -> Option<Burst> {
        match self {
            Source::Chunk => None,
            Source::LocalSteal => Some(Burst::Block),
            Source::Requeue | Source::GlobalSteal | Source::GlobalPush => Some(Burst::Global),
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
            Source::Requeue => m.requeue_claims += 1,
            Source::LocalSteal => m.local_steals += 1,
            Source::GlobalSteal => m.global_steal_receives += 1,
            Source::GlobalPush => m.global_steal_pushes += 1,
        }
    }
}

/// What [`Board::poll`] hands a warp.
#[derive(Debug, PartialEq, Eq)]
pub enum Poll {
    /// A work item, and where it came from.
    Work(StealPayload, Source),
    /// Nothing to take yet: poll again.
    Idle,
    /// The warp exits.
    Exit,
}

/// One threadblock's share of the [`Board`].
struct Block {
    /// Bitmap of idle warps (bit = warp index within block).
    is_idle: AtomicU32,
    /// Global-steal slot (`global_stks` of Fig. 6).
    slot: Mutex<Option<StealPayload>>,
    /// Live warps; a block whose count hits zero can never claim its global
    /// slot again, so [`Board::mark_dead`] drains it.
    alive: AtomicUsize,
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
    /// Per-block state, one allocation for the grid.
    blocks: Vec<Block>,
    /// Number of warps currently busy (grid starts all-busy).
    busy: AtomicUsize,
    /// Number of pushed-but-unclaimed payloads (global slots + requeue).
    pending: AtomicUsize,
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
    /// Optional instruction cap for the launch, and the instructions its
    /// warps have charged against it ([`Board::charge`]).
    cap: Option<u64>,
    spent: AtomicU64,
}

impl Board {
    /// Creates the board for a grid of `num_blocks × warps_per_block` warps
    /// over the level-0 range `[start, end)` of virtual indices (a fresh
    /// launch passes `(0, len)`, a salvage pass resumes at the cursor).
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
        assert!(
            warps_per_block <= MAX_WARPS_PER_BLOCK,
            "is_idle bitmap holds {MAX_WARPS_PER_BLOCK} warps (Grid::new rejects more)"
        );
        let check_id = simt_check::next_object_id();
        Board {
            check_id,
            mirrors: (0..total).map(|w| Mirror::new(check_id, w)).collect(),
            warps_per_block,
            stop,
            blocks: (0..num_blocks)
                .map(|_| Block {
                    is_idle: AtomicU32::new(0),
                    slot: Mutex::new(None),
                    alive: AtomicUsize::new(warps_per_block),
                })
                .collect(),
            busy: AtomicUsize::new(total),
            pending: AtomicUsize::new(0),
            requeue: Mutex::new(Vec::new()),
            chunk_next: AtomicUsize::new(start),
            num_vertices: end,
            chunk_size,
            abort: AtomicBool::new(false),
            deadline: None,
            cap: None,
            spent: AtomicU64::new(0),
        }
    }

    /// Sets a wall-clock deadline; warps poll it via [`Board::check_deadline`]
    /// and abandon remaining work once it passes.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// Sets an instruction cap: the launch is cancelled, as at a deadline,
    /// once its warps have charged that many simulated instructions.
    pub fn set_cap(&mut self, cap: u64) {
        self.cap = Some(cap);
    }

    /// Adds `n` instructions a warp charged to the launch's total and
    /// cancels the launch once that reaches the cap; a no-op without one.
    #[inline]
    pub fn charge(&self, n: u64) {
        if let Some(cap) = self.cap {
            // Relaxed: a running total read only against the cap, and the
            // abort latch is advisory (see `aborted`).
            if self.spent.fetch_add(n, Ordering::Relaxed) + n >= cap {
                self.abort.store(true, Ordering::Relaxed);
            }
        }
    }

    /// True once the launch was cancelled (deadline passed or cap reached).
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
        let guard =
            simt_check::tracked_lock(&self.blocks[b].slot, simt_check::LockClass::GlobalSlot, b);
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

    /// The per-warp driver's one acquisition point (§V); it never blocks.
    /// Warp `me` gets a work item with its [`Source`], [`Poll::Idle`] or
    /// [`Poll::Exit`] (launch finished or cancelled, or — both steal levels
    /// off — level 0 exhausted); first hit wins. A busy warp runs steps 1–4
    /// once, a warp whose own `is_idle` bit is set one pass of 5–8 instead:
    ///
    /// 1. a level-0 chunk off the board's dispenser;
    /// 2. a stack on the board's requeue (dead warps, salvage preload);
    /// 3. `local_steal`: half of a block sibling's shallowest range;
    /// 4. both steal levels off: exit. Otherwise mark idle, once per idle
    ///    episode (timed from `idle`), and poll again;
    /// 5. `finished()` or the deadline → exit;
    /// 6. chunks remain or a local victim appeared → mark busy, go to 1;
    /// 7. `global_steal`: a stack pushed to the block's global slot;
    /// 8. the board's requeue again (a death can land work after step 2).
    ///
    /// `m` gets what belongs to acquiring, not to the item acquired:
    /// `local_steal_attempts`, and `idle_nanos` when an idle episode ends.
    /// Charging the item is the caller's [`Source::note`].
    pub fn poll(
        &self,
        me: usize,
        (local_steal, global_steal): (bool, bool),
        idle: &mut Option<Instant>,
        m: &mut WarpMetrics,
    ) -> Poll {
        // SeqCst, as every idle-bit access; only this warp flips its own bit.
        let bit = 1u32 << (me % self.warps_per_block);
        if self.blocks[me / self.warps_per_block]
            .is_idle
            .load(Ordering::SeqCst)
            & bit
            != 0
        {
            // Poll the deadline here too: with every busy warp stalled or
            // dead, kernel-side polling alone would leave idle warps
            // waiting out the hang.
            let got = if self.finished() || self.check_deadline() {
                Some(Poll::Exit)
            } else if self.chunks_remain() || (local_steal && self.any_local_victim(me)) {
                self.mark_busy(me);
                None
            } else if let Some(p) = global_steal.then(|| self.try_claim_global(me)).flatten() {
                Some(Poll::Work(p, Source::GlobalSteal)) // marks us busy
            } else if let Some(p) = self.try_claim_requeued(me) {
                Some(Poll::Work(p, Source::Requeue)) // marks us busy
            } else {
                return Poll::Idle;
            };
            m.idle_nanos += idle.take().map_or(0, |t| t.elapsed().as_nanos() as u64);
            if let Some(got) = got {
                return got;
            }
        }
        if self.aborted() {
            return Poll::Exit;
        }
        if let Some((p, src)) = self.claim_chunk() {
            return Poll::Work(p, src);
        }
        if let Some(p) = self.claim_requeued_busy() {
            return Poll::Work(p, Source::Requeue);
        }
        if local_steal {
            m.local_steal_attempts += 1;
            if let Some(p) = self.try_local_steal(me) {
                return Poll::Work(p, Source::LocalSteal);
            }
        }
        if !local_steal && !global_steal {
            return Poll::Exit; // naive mode: exit on chunk exhaustion
        }
        self.mark_idle(me);
        *idle = Some(Instant::now());
        Poll::Idle
    }

    /// Claims the next chunk of the level-0 domain (Fig. 4's
    /// `getCandidates` at level 0) off the board's dispenser.
    fn claim_chunk(&self) -> Option<(StealPayload, Source)> {
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
        // Relaxed: the cursor is monotone, so a stale read can only claim
        // "chunks remain" when they are already gone — the caller then
        // issues a real `claim_chunk` (CAS) and learns the truth; spurious
        // non-termination for one idle poll, never missed work.
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
        self.blocks[block].is_idle.fetch_or(bit, Ordering::SeqCst);
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
        self.blocks[block].is_idle.fetch_and(!bit, Ordering::SeqCst);
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
    /// polls to decide whether a full steal attempt is worthwhile). Not a
    /// lock-free peek: it takes each sibling's mirror lock in turn, one at a
    /// time, on every idle poll that reaches it.
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
        for b in 0..self.blocks.len() {
            // SeqCst: the idle-bitmap read must sit in the same total
            // order as mark_idle/mark_busy so a block observed fully idle
            // really had all warps past their busy decrement.
            if b == my_block || self.blocks[b].is_idle.load(Ordering::SeqCst) != full {
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
            if self.blocks[b].alive.load(Ordering::SeqCst) == 0 {
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

    /// Claims a payload pushed to the caller's block slot, transitioning
    /// the caller busy in the same critical section. Only the caller's own
    /// block is served: `finished()` is stable, so a pushed payload always
    /// has a live claimant in its target block.
    pub fn try_claim_global(&self, me: usize) -> Option<StealPayload> {
        let mut slot = self.lock_slot(me / self.warps_per_block);
        let payload = slot.take()?;
        // Become busy *before* decrementing pending (SeqCst both) so
        // `finished()` can never observe both counters at zero while work
        // is in flight.
        self.mark_busy(me);
        self.pending.fetch_sub(1, Ordering::SeqCst);
        Some(payload)
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
        let was_busy = self.blocks[block].is_idle.load(Ordering::SeqCst) & bit == 0;
        self.blocks[block].alive.fetch_sub(1, Ordering::SeqCst);
        if was_busy {
            self.busy.fetch_sub(1, Ordering::SeqCst);
        }
        self.blocks[block].is_idle.fetch_and(!bit, Ordering::SeqCst);
        if self.blocks[block].alive.load(Ordering::SeqCst) == 0 {
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
        for b in 0..self.blocks.len() {
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
        for b in 0..board.blocks.len() {
            // SeqCst loads/increment below: same termination-protocol
            // orderings as the correct push_global — only the lock order
            // is the seeded defect here.
            if b == my_block || board.blocks[b].is_idle.load(Ordering::SeqCst) != full {
                continue;
            }
            let mut slot = board.lock_slot(b);
            if slot.is_some() || board.blocks[b].alive.load(Ordering::SeqCst) == 0 {
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
            m.size[1] = 100; // lots of deep work
            m.matched[0] = 7;
            // Warp 1 also has a little level-0 work — that must win.
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
            assert!(
                b.try_claim_global(0).is_none(),
                "a block-0 warp cannot claim block 1's slot"
            );
            let p = b.try_claim_global(wpb).unwrap();
            assert_eq!((p.lo, p.hi), (20, 40));
            assert!(b.try_claim_global(wpb + 1).is_none());
        }
    }

    #[test]
    fn source_table_is_the_cost_model() {
        // (source, burst, counters bumped: [requeue_claims, local_steals,
        // global_steal_receives, global_steal_pushes]) — the whole fixed
        // cost model, with the bursts' amounts pinned by the cost table's
        // own test; a schedule that charges in simulated cycles inherits
        // exactly this.
        let table = [
            (Source::Chunk, None, [0, 0, 0, 0]),
            (Source::Requeue, Some(Burst::Global), [1, 0, 0, 0]),
            (Source::LocalSteal, Some(Burst::Block), [0, 1, 0, 0]),
            (Source::GlobalSteal, Some(Burst::Global), [0, 0, 1, 0]),
            (Source::GlobalPush, Some(Burst::Global), [0, 0, 0, 1]),
        ];
        let grid = stmatch_gpusim::Grid::new(stmatch_gpusim::GridConfig {
            num_blocks: 1,
            warps_per_block: 1,
            shared_mem_per_block: 0,
        })
        .unwrap();
        for (src, burst, [requeue, local, receive, push]) in table {
            let got = grid.launch(|w| src.note(w)).warps[0];
            let want = WarpMetrics {
                simt_instructions: burst.map_or(0, |b| Cost::Transfer(b).price().0),
                requeue_claims: requeue,
                local_steals: local,
                global_steal_receives: receive,
                global_steal_pushes: push,
                ..WarpMetrics::default()
            };
            assert_eq!((src.cost(), got), (burst, want), "{src:?}");
        }
    }

    /// Polls (both steal levels on) until warp `me` is served `(source, lo, hi)`.
    fn serve(b: &Board, me: usize, m: &mut WarpMetrics) -> Option<(Source, usize, usize)> {
        let mut idle = None;
        loop {
            match b.poll(me, (true, true), &mut idle, m) {
                Poll::Work(p, src) => return Some((src, p.lo, p.hi)),
                Poll::Idle => {}
                Poll::Exit => return None,
            }
        }
    }

    #[test]
    fn poll_serves_a_plain_board_in_protocol_order() {
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
        // last and is the one warp that observes termination. Until then
        // an idle warp's polls find nothing and mark nothing (SeqCst reads).
        b.mark_idle(2);
        let busy = b.busy.load(Ordering::SeqCst);
        for _ in 0..2 {
            assert_eq!(b.poll(2, (true, true), &mut None, &mut m2), Poll::Idle);
        }
        assert_eq!(b.busy.load(Ordering::SeqCst), busy);
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
