//! The flat warp-stack arena — the paper's fixed
//! `C[NUM_SETS][UNROLL][MAX_DEGREE]` global-memory slabs (§VIII-A, Fig. 7),
//! with the `UNROLL` axis sized per set.
//!
//! One contiguous `Vec<VertexId>` holds every candidate-set slot of one
//! warp's stack. The geometry is per set: a [`SlotTable`] says how many
//! slots each set owns — one for a set of a stealable level, the claim
//! width of its parent level for a deep one
//! ([`PlanBytecode::slot_table`](stmatch_pattern::PlanBytecode::slot_table))
//! — and slot `(set, u)` is the `cap`-element slab `u` slabs past the set's
//! first; a `Csize`-style length array records how much of each slab is
//! live. The table never hands out more than `NUM_SETS × UNROLL` slots, so
//! what the engine reports as `MatchOutcome::stack_bytes`
//! (`NUM_SETS × UNROLL × MAX_DEGREE × 4` bytes per warp) bounds the
//! allocation from above — and the steady-state claim path never touches
//! the heap: writes land in the pre-sized slab through [`ArenaWriter`].
//!
//! **Overflow policy (graceful fallback).** A candidate list longer than
//! `cap` spills to a per-slot heap vector, mirroring the paper's
//! CPU-memory spill for vertices with degree > `MAX_DEGREE`. On the first
//! overflowing push the slab prefix is copied into the spill vector so the
//! list stays contiguous; `len > cap` marks the slot as spilled. Spilling
//! allocates (it is the escape hatch, not the hot path) and the
//! zero-allocation guarantee applies only while candidate lists fit their
//! slabs — size `EngineConfig::max_degree_slab` accordingly.
//!
//! **The rank row rides in the same block.** A kernel that counts a lifted
//! last-level list in closed form asks for its rank row's cells; they follow
//! the slabs in `data`, so the row costs no heap block of its own.
//! [`StackArena::lists_and_row`] lends them beside a read view of every slot.
//!
//! **One arena per warp, lent by its engine.** A [`WarpArena`] is the
//! stack plus every other buffer a warp kernel reuses across launches — its
//! marker rows and its element and bitmap chain scratch. Its engine parks it
//! under the warp's id between launches ([`WarmSlot`](crate::WarmSlot)),
//! `WarpArena::reset` sizes all of it to a launch by `clear` + `resize`,
//! and the kernel borrows it for the warp's run: once an arena has served a
//! launch of a given size, no launch of that size allocates in it.
//!
//! Set-operation *outputs* never alias their inputs: a set's operands are
//! sets with strictly smaller ids (dependencies precede dependents in the
//! plan), so [`StackArena::split_for_write`] hands out a read view of the
//! slots below the written set and a write sink over the written set's
//! slots from one `split_at_mut`, with no copying and no locks.

use crate::kernel::KernelEnv;
use crate::setops::SetSink;
use stmatch_graph::VertexId;
use stmatch_pattern::bytecode::{SlotTable, MAX_SETS};

/// One warp's candidate-set storage: a flat slab plus per-slot lengths.
pub struct StackArena {
    /// The contiguous slab; see [`Geometry`] for who owns which cells. The
    /// cells from `row_at` on are the kernel's rank row.
    data: Vec<VertexId>,
    row_at: usize,
    /// `Csize`: live length per flat slot. `len > cap` means the slot
    /// spilled.
    len: Vec<u32>,
    /// Heap-side overflow per flat slot; holds the *entire* list when
    /// spilled.
    spill: Vec<Vec<VertexId>>,
    geo: Geometry,
    /// Candidate cells currently live across every slot (slab + spill
    /// elements), and the high-water mark since construction/reset. The
    /// peak is folded in at [`ArenaWriter`] drop — once per set rewrite,
    /// never per push — and surfaces as `MatchOutcome::peak_slab_cells`,
    /// the observable the static `ResourceCert` bound is audited against.
    live_cells: u64,
    peak_cells: u64,
    /// Slab-overflow migrations since construction (observability: the
    /// engine surfaces the total as `MatchOutcome::spill_events`; hub lists
    /// longer than a slab take this path, the paper's CPU-memory spill).
    events: u64,
    /// Per-slot result bitmap rows (`words_stride` words each), filled by
    /// the bitmap set-op paths through [`SetSink::put_word`] /
    /// [`SetSink::seal_bits`] so dependent sets can run in the bitmap
    /// domain without re-deriving rows from elements. Sized by
    /// [`StackArena::reset`] only when the launch routes hub rows:
    /// element-only configs pay nothing.
    words: Vec<u64>,
    /// Whether slot `i`'s row in `words` denotes exactly its element list.
    /// Cleared on every rewrite ([`SetSink::begin`]); set only by
    /// [`SetSink::seal_bits`].
    words_valid: Vec<bool>,
    /// Row stride of `words` in u64s; 0 while set-bits storage is off.
    words_stride: usize,
    /// Process-unique arena identity for the race checker's shadow cells
    /// (`arena[id].set[s]`). Arenas are warp-private by design; the
    /// instrumentation *proves* that — any cross-thread access without a
    /// happens-before edge (e.g. a future shared-slab refactor gone wrong)
    /// is reported, not assumed away.
    check_id: u32,
}

/// Where every slot lives, per set and in fixed arrays: set `s` owns the
/// flat slots `slots.base(s)..` (the index into every per-slot array) and
/// the cells `off[s]..`, one `cap[s]`-cell slab per slot. All slots of one
/// set share a capacity, so set-op writers keep a scalar cap.
#[derive(Clone, Copy)]
struct Geometry {
    slots: SlotTable,
    off: [usize; MAX_SETS],
    cap: [usize; MAX_SETS],
}

impl Geometry {
    /// The geometry of `slots` under per-set capacities (`set_caps[s]` cells
    /// for each slot of set `s`), plus the total cell count.
    fn shaped(slots: &SlotTable, set_caps: &[usize]) -> (Geometry, usize) {
        debug_assert_eq!(set_caps.len(), slots.num_sets());
        let (mut off, mut cap) = ([0; MAX_SETS], [0; MAX_SETS]);
        let mut at = 0usize;
        for (s, &c) in set_caps.iter().enumerate() {
            (off[s], cap[s]) = (at, c);
            at += slots.slots(s) * c;
        }
        let slots = *slots;
        (Geometry { slots, off, cap }, at)
    }

    /// Flat index of slot `(set, u)`.
    #[inline]
    fn idx(&self, set: usize, u: usize) -> usize {
        debug_assert!(u < self.slots.slots(set), "set {set} has no slot {u}");
        self.slots.base(set) + u
    }

    /// The live list of slot `(set, u)` given the split-out arena parts.
    #[inline]
    fn view<'s>(
        &self,
        data: &'s [VertexId],
        len: &[u32],
        spill: &'s [Vec<VertexId>],
        set: usize,
        u: usize,
    ) -> &'s [VertexId] {
        let i = self.idx(set, u);
        let n = len[i] as usize;
        if n <= self.cap[set] {
            let at = self.off[set] + u * self.cap[set];
            &data[at..at + n]
        } else {
            &spill[i]
        }
    }
}

impl Default for StackArena {
    /// An arena of no slots, holding no heap block; its first
    /// [`StackArena::reset`] sizes it.
    fn default() -> StackArena {
        StackArena {
            data: Vec::new(),
            row_at: 0,
            len: Vec::new(),
            spill: Vec::new(),
            geo: Geometry::shaped(&SlotTable::with_slots(&[]), &[]).0,
            live_cells: 0,
            peak_cells: 0,
            events: 0,
            words: Vec::new(),
            words_valid: Vec::new(),
            words_stride: 0,
            check_id: simt_check::next_object_id(),
        }
    }
}

impl StackArena {
    /// An arena for `slots`' slots of `cap` vertices each, without set-bit
    /// rows or a rank row.
    pub fn new(slots: &SlotTable, cap: usize) -> StackArena {
        let mut arena = StackArena::default();
        arena.reset(slots, &[cap; MAX_SETS][..slots.num_sets()], 0, 0);
        arena
    }

    /// Shapes the arena for a kernel's geometry, reusing its heap blocks
    /// wherever they are large enough: `clear` + `resize` only reallocates
    /// when the new geometry is strictly larger than anything the arena has
    /// served before. Each slot of set `s` gets `set_caps[s]` cells — the
    /// verifier's certified per-set bounds shrink the slab below
    /// `NUM_SETS × UNROLL × MAX_DEGREE` without changing spill behavior (a
    /// sound bound never overflows early) — `row_cells` zeroed cells follow
    /// the slabs in the same block (the kernel's rank row), and every slot
    /// gets a `bits_stride`-word result bitmap row (none at 0). The arena's
    /// `check_id` is deliberately kept: for the race checker a recycled
    /// arena *is* the same object, and the engine's tracked checkout /
    /// give-back lock provides the happens-before edge between its
    /// successive owners. Spill-event and set-bits state reset to the
    /// post-construction state so a recycled kernel's metrics are
    /// indistinguishable from a cold one's.
    pub fn reset(
        &mut self,
        slots: &SlotTable,
        set_caps: &[usize],
        row_cells: usize,
        bits_stride: usize,
    ) {
        let (geo, cells) = Geometry::shaped(slots, set_caps);
        let n = slots.total();
        self.data.clear();
        self.data.resize(cells + row_cells, 0);
        self.row_at = cells;
        self.len.clear();
        self.len.resize(n, 0);
        self.spill.truncate(n);
        for s in &mut self.spill {
            s.clear();
        }
        self.spill.resize_with(n, Vec::new);
        self.geo = geo;
        self.live_cells = 0;
        self.peak_cells = 0;
        self.events = 0;
        self.words.clear();
        self.words.resize(n * bits_stride, 0);
        self.words_stride = bits_stride;
        self.words_valid.clear();
        self.words_valid.resize(n, false);
    }

    /// The sealed result bitmap row of slot `(set, u)`, if its last
    /// rewrite went through a bitmap path with an unfiltered extraction.
    #[inline]
    pub fn set_bits(&self, set: usize, u: usize) -> Option<&[u64]> {
        let i = self.geo.idx(set, u);
        (self.words_stride > 0 && self.words_valid[i])
            .then(|| &self.words[i * self.words_stride..(i + 1) * self.words_stride])
    }

    /// Number of slab-overflow migrations (first overflowing push per
    /// rewrite) since construction.
    #[inline]
    pub fn spill_events(&self) -> u64 {
        self.events
    }

    /// High-water mark of candidate cells live across every slot (slab and
    /// spill elements) since construction/reset — the runtime observable
    /// the static resource certificate's `peak_cells` bound is audited
    /// against.
    #[inline]
    pub fn peak_slab_cells(&self) -> u64 {
        self.peak_cells
    }

    /// Total cells the arena's flat slab allocates (the footprint the
    /// shaped constructor shrinks), the rank row's excluded.
    #[inline]
    pub fn slab_cells(&self) -> usize {
        self.row_at
    }

    /// The live candidate list of slot `(set, u)`.
    #[inline]
    #[track_caller]
    pub fn slot(&self, set: usize, u: usize) -> &[VertexId] {
        simt_check::note_read(simt_check::Cell::arena(self.check_id, set));
        self.geo.view(&self.data, &self.len, &self.spill, set, u)
    }

    /// A read view of every slot beside the rank row's cells, which the
    /// caller may rewrite while it reads the lists.
    #[inline]
    pub fn lists_and_row(&mut self) -> (ArenaRead<'_>, &mut [VertexId]) {
        let (data, row) = self.data.split_at_mut(self.row_at);
        (
            ArenaRead {
                data,
                len: &self.len,
                spill: &self.spill,
                geo: &self.geo,
                words: &self.words,
                words_valid: &self.words_valid,
                words_stride: self.words_stride,
            },
            row,
        )
    }

    /// True if slot `(set, u)` outgrew its slab and lives on the heap.
    #[inline]
    pub fn spilled(&self, set: usize, u: usize) -> bool {
        self.len[self.geo.idx(set, u)] as usize > self.geo.cap[set]
    }

    /// Splits the arena at `set`: a read view over every slot of sets
    /// `< set` (the only sets a plan allows as operands) and a write sink
    /// over slots `(set, 0..m)`, from disjoint field borrows. Panics when
    /// the set owns fewer than `m` slots (the sink would reach into the next
    /// set's).
    #[track_caller]
    pub fn split_for_write(&mut self, set: usize, m: usize) -> (ArenaRead<'_>, ArenaWriter<'_>) {
        assert!(
            m >= 1 && m <= self.geo.slots.slots(set),
            "a batch of {m} does not fit set {set}'s {} slots",
            self.geo.slots.slots(set)
        );
        // One shadow write event covers the whole rewrite of `set`'s slots
        // (the writer half streams into them exclusively until dropped).
        simt_check::note_write(simt_check::Cell::arena(self.check_id, set));
        let at = self.geo.slots.base(set);
        let set_cap = self.geo.cap[set];
        let ws_stride = self.words_stride;
        let (rd, wd) = self.data.split_at_mut(self.geo.off[set]);
        let (rl, wl) = self.len.split_at_mut(at);
        let (rs, ws) = self.spill.split_at_mut(at);
        let (rw, ww) = self.words.split_at_mut(at * ws_stride);
        let (rv, wv) = self.words_valid.split_at_mut(at);
        (
            ArenaRead {
                data: rd,
                len: rl,
                spill: rs,
                geo: &self.geo,
                words: rw,
                words_valid: rv,
                words_stride: ws_stride,
            },
            ArenaWriter {
                data: &mut wd[..m * set_cap],
                len: &mut wl[..m],
                spill: &mut ws[..m],
                cap: set_cap,
                live: &mut self.live_cells,
                peak: &mut self.peak_cells,
                events: &mut self.events,
                words: &mut ww[..m * ws_stride],
                words_valid: &mut wv[..m],
                words_stride: ws_stride,
            },
        )
    }
}

/// Every buffer one warp's kernel reuses from launch to launch: the one
/// object its engine lends it by warp id ([`WarmSlot`](crate::WarmSlot)).
/// The kernel borrows it for the warp's run; nothing in it is moved out and
/// handed back.
#[derive(Default)]
pub struct WarpArena {
    /// The candidate-set slabs, the rank row and the set-bit rows.
    pub stack: StackArena,
    /// The kernel's marker rows (`kernel::rows`): one `⌈n/64⌉`-word row per
    /// marked position of the plan.
    pub(crate) markers: Vec<u64>,
    /// Ping/pong element rows of multi-op set chains, one per member of the
    /// widest batch whose level stages one ([`SlotTable::staged`]).
    pub(crate) ping: Vec<Vec<VertexId>>,
    pub(crate) pong: Vec<Vec<VertexId>>,
    /// Word-aligned ping/pong rows of fused bitmap chains
    /// (`setops::apply_chain_bits_into`): `⌈n/64⌉` words each when the
    /// launch routes hub rows and stages a chain, else empty.
    pub(crate) bits: [Vec<u64>; 2],
}

impl WarpArena {
    /// Sizes every buffer to `env`'s launch, zeroed, by `clear` + `resize`.
    /// The chain rows are only ever added to: a row dropped here would
    /// drop the capacity it grew.
    pub(crate) fn reset(&mut self, env: &KernelEnv<'_>) {
        let (graph, slots) = (env.launch.graph, &env.slots);
        let stride = graph.num_vertices().div_ceil(64);
        let routed = graph.hub_bitmap().is_some();
        let set_bits = if routed { stride } else { 0 };
        let set_caps = &env.set_caps[..slots.num_sets()];
        self.stack.reset(slots, set_caps, env.row_cells, set_bits);
        let marked = env.launch.plan.bytecode().marked().count_ones() as usize;
        self.markers.clear();
        self.markers.resize(marked * stride, 0);
        let staged = slots.staged();
        for rows in [&mut self.ping, &mut self.pong] {
            if rows.len() < staged {
                rows.resize_with(staged, Vec::new);
            }
        }
        let chain_bits = if staged > 0 { set_bits } else { 0 };
        for row in &mut self.bits {
            row.clear();
            row.resize(chain_bits, 0);
        }
    }
}

/// Read view over the sets below a [`StackArena::split_for_write`] point.
pub struct ArenaRead<'a> {
    data: &'a [VertexId],
    len: &'a [u32],
    spill: &'a [Vec<VertexId>],
    geo: &'a Geometry,
    words: &'a [u64],
    words_valid: &'a [bool],
    words_stride: usize,
}

impl ArenaRead<'_> {
    /// The live candidate list of slot `(set, u)`; `set` must be below the
    /// split point.
    #[inline]
    pub fn slot(&self, set: usize, u: usize) -> &[VertexId] {
        self.geo.view(self.data, self.len, self.spill, set, u)
    }

    /// The sealed result bitmap row of slot `(set, u)`, if its last
    /// rewrite went through a bitmap path with an unfiltered extraction
    /// — `Some` means the row denotes exactly [`ArenaRead::slot`]'s list,
    /// so dependents may intersect against it word-parallel.
    #[inline]
    pub fn slot_bits(&self, set: usize, u: usize) -> Option<&[u64]> {
        let i = self.geo.idx(set, u);
        (self.words_stride > 0 && self.words_valid[i])
            .then(|| &self.words[i * self.words_stride..(i + 1) * self.words_stride])
    }
}

/// Write sink over the `m` unroll slots of one set: implements
/// [`SetSink`] so the combined set operations stream survivors straight
/// into the slab (or its spill) with zero steady-state allocations.
pub struct ArenaWriter<'a> {
    data: &'a mut [VertexId],
    len: &'a mut [u32],
    spill: &'a mut [Vec<VertexId>],
    cap: usize,
    live: &'a mut u64,
    peak: &'a mut u64,
    events: &'a mut u64,
    words: &'a mut [u64],
    words_valid: &'a mut [bool],
    words_stride: usize,
}

impl Drop for ArenaWriter<'_> {
    fn drop(&mut self) {
        // Live cells only grow while a writer streams; folding the
        // high-water mark in here keeps the accounting off the per-push
        // path (one max per set rewrite).
        *self.peak = (*self.peak).max(*self.live);
    }
}

impl SetSink for ArenaWriter<'_> {
    #[inline]
    fn begin(&mut self, slot: usize, _capacity_hint: usize) {
        *self.live -= self.len[slot] as u64;
        self.len[slot] = 0;
        // Any rewrite — bitmap path or not — obsoletes the slot's stored
        // row until a fresh seal lands.
        self.words_valid[slot] = false;
        if !self.spill[slot].is_empty() {
            self.spill[slot].clear();
        }
    }

    #[inline]
    fn push(&mut self, slot: usize, value: VertexId) {
        let n = self.len[slot] as usize;
        if n < self.cap {
            self.data[slot * self.cap + n] = value;
        } else {
            if n == self.cap {
                // First overflow: migrate the slab prefix so the spilled
                // list stays one contiguous sorted slice.
                let base = slot * self.cap;
                let head = &self.data[base..base + self.cap];
                self.spill[slot].extend_from_slice(head);
                *self.events += 1;
            }
            self.spill[slot].push(value);
        }
        self.len[slot] = (n + 1) as u32;
        *self.live += 1;
    }

    /// Declines lists that may outgrow the slab: a spilling slot keeps the
    /// per-element `push` and its migration.
    #[inline]
    fn lend(&mut self, slot: usize, n: usize) -> Option<&mut [VertexId]> {
        debug_assert_eq!(self.len[slot], 0);
        (n <= self.cap).then(|| &mut self.data[slot * self.cap..][..n])
    }

    #[inline]
    fn commit(&mut self, slot: usize, kept: usize) {
        self.len[slot] = kept as u32;
        *self.live += kept as u64;
    }

    #[inline]
    fn extend(&mut self, slot: usize, values: &[VertexId]) {
        let n = self.len[slot] as usize;
        let end = n + values.len();
        if end <= self.cap {
            let base = slot * self.cap;
            self.data[base + n..base + end].copy_from_slice(values);
            self.len[slot] = end as u32;
            *self.live += values.len() as u64;
        } else {
            // Crosses the slab boundary: per-value pushes handle the
            // spill migration.
            for &v in values {
                self.push(slot, v);
            }
        }
    }

    #[inline]
    fn put_word(&mut self, slot: usize, word_index: usize, word: u64) {
        if self.words_stride > 0 {
            debug_assert!(word_index < self.words_stride);
            self.words[slot * self.words_stride + word_index] = word;
        }
    }

    #[inline]
    fn seal_bits(&mut self, slot: usize) {
        if self.words_stride > 0 {
            self.words_valid[slot] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(w: &mut ArenaWriter<'_>, slot: usize, vals: &[VertexId]) {
        w.begin(slot, vals.len());
        for &v in vals {
            w.push(slot, v);
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut a = StackArena::new(&SlotTable::with_slots(&[2; 3]), 4);
        {
            let (_, mut w) = a.split_for_write(1, 2);
            fill(&mut w, 0, &[5, 6, 7]);
            fill(&mut w, 1, &[9]);
        }
        assert_eq!(a.slot(1, 0), &[5, 6, 7]);
        assert_eq!(a.slot(1, 1), &[9]);
        assert_eq!(a.slot(0, 0), &[] as &[VertexId]);
        assert_eq!(a.slot(2, 1), &[] as &[VertexId]);
    }

    #[test]
    fn rewrite_resets_previous_contents() {
        let mut a = StackArena::new(&SlotTable::with_slots(&[1; 1]), 4);
        {
            let (_, mut w) = a.split_for_write(0, 1);
            fill(&mut w, 0, &[1, 2, 3, 4]);
        }
        {
            let (_, mut w) = a.split_for_write(0, 1);
            fill(&mut w, 0, &[8]);
        }
        assert_eq!(a.slot(0, 0), &[8]);
    }

    #[test]
    fn read_view_sees_lower_sets_during_write() {
        let mut a = StackArena::new(&SlotTable::with_slots(&[1; 2]), 4);
        {
            let (_, mut w) = a.split_for_write(0, 1);
            fill(&mut w, 0, &[2, 4, 6]);
        }
        let (r, mut w) = a.split_for_write(1, 1);
        assert_eq!(r.slot(0, 0), &[2, 4, 6]);
        w.begin(0, 2);
        w.push(0, r.slot(0, 0)[1]);
        drop((r, w)); // the writer's Drop folds the peak; end the borrow
        assert_eq!(a.slot(1, 0), &[4]);
    }

    #[test]
    fn overflow_spills_transparently_and_recovers() {
        let mut a = StackArena::new(&SlotTable::with_slots(&[1; 1]), 3);
        {
            let (_, mut w) = a.split_for_write(0, 1);
            fill(&mut w, 0, &[1, 2, 3, 4, 5, 6]);
        }
        assert!(a.spilled(0, 0));
        assert_eq!(a.slot(0, 0), &[1, 2, 3, 4, 5, 6]);
        assert_eq!(a.spill_events(), 1);
        // Shrinking back under the cap returns to the slab.
        {
            let (_, mut w) = a.split_for_write(0, 1);
            fill(&mut w, 0, &[7, 8]);
        }
        assert!(!a.spilled(0, 0));
        assert_eq!(a.slot(0, 0), &[7, 8]);
    }

    #[test]
    fn sealed_set_bits_survive_until_the_next_rewrite() {
        let table = SlotTable::with_slots(&[1; 2]);
        let mut a = StackArena::new(&table, 4);
        assert_eq!(a.set_bits(0, 0), None); // storage off by default
        a.reset(&table, &[4; 2], 0, 2);
        {
            let (_, mut w) = a.split_for_write(0, 1);
            fill(&mut w, 0, &[1, 65]);
            w.put_word(0, 0, 0b10);
            w.put_word(0, 1, 0b10);
            w.seal_bits(0);
        }
        assert_eq!(a.set_bits(0, 0), Some(&[0b10u64, 0b10][..]));
        // The read view of a higher split sees the sealed row.
        {
            let (r, _) = a.split_for_write(1, 1);
            assert_eq!(r.slot_bits(0, 0), Some(&[0b10u64, 0b10][..]));
        }
        // An unsealed rewrite (classic element path) invalidates it.
        {
            let (_, mut w) = a.split_for_write(0, 1);
            fill(&mut w, 0, &[3]);
        }
        assert_eq!(a.set_bits(0, 0), None);
    }

    #[test]
    fn reset_matches_fresh_construction() {
        let mut a = StackArena::default();
        a.reset(&SlotTable::with_slots(&[2; 2]), &[3; 2], 0, 2);
        {
            let (_, mut w) = a.split_for_write(1, 2);
            fill(&mut w, 0, &[1, 2, 3, 4, 5]); // force a spill
            w.put_word(0, 0, 7);
            w.seal_bits(0);
        }
        assert_eq!(a.spill_events(), 1);
        let id_before = a.check_id;
        a.reset(&SlotTable::with_slots(&[1; 3]), &[4; 3], 0, 0);
        assert_eq!(a.check_id, id_before, "identity survives recycling");
        assert_eq!(a.spill_events(), 0);
        assert_eq!(a.set_bits(0, 0), None, "set-bits storage back off");
        for set in 0..3 {
            assert_eq!(a.slot(set, 0), &[] as &[VertexId]);
            assert!(!a.spilled(set, 0));
        }
        // The recycled arena serves the new geometry exactly like a fresh
        // one would.
        {
            let (_, mut w) = a.split_for_write(2, 1);
            fill(&mut w, 0, &[4, 8]);
        }
        assert_eq!(a.slot(2, 0), &[4, 8]);
    }

    /// The rank row's cells follow the slabs in the one block: lent beside
    /// a read view of every slot, outside `slab_cells`, zeroed by a reset.
    #[test]
    fn the_row_rides_past_the_slabs() {
        let table = SlotTable::with_slots(&[1, 2]);
        let mut a = StackArena::default();
        a.reset(&table, &[3, 3], 8, 0);
        let block = a.data.as_ptr();
        assert_eq!(a.slab_cells(), 9);
        {
            let (_, mut w) = a.split_for_write(1, 2);
            fill(&mut w, 1, &[4, 5, 6]);
        }
        let (r, row) = a.lists_and_row();
        row.fill(7);
        assert_eq!(r.slot(1, 1), &[4, 5, 6]);
        assert_eq!(row.len(), 8);
        a.reset(&table, &[3, 3], 8, 0);
        assert_eq!(a.data.as_ptr(), block, "no new block");
        assert_eq!(a.lists_and_row().1, &[0; 8]);
    }

    #[test]
    fn zero_sets_still_constructs() {
        let a = StackArena::new(&SlotTable::with_slots(&[]), 8);
        assert_eq!(a.slab_cells(), 0);
    }

    /// Slot counts are per set: one for a shallow set, a batch's worth for
    /// a deep one.
    #[test]
    fn each_set_owns_its_own_number_of_slots() {
        let table = SlotTable::with_slots(&[1, 3, 1, 2]);
        let mut a = StackArena::default();
        a.reset(&table, &[4; 4], 0, 1);
        assert_eq!(a.slab_cells(), 7 * 4);
        // Every slot gets its own list and row, written out of order.
        for set in [3, 0, 2, 1] {
            let m = table.slots(set);
            let (_, mut w) = a.split_for_write(set, m);
            for u in 0..m {
                let v = (10 * set + u) as VertexId;
                fill(&mut w, u, &[v, v + 100]);
                w.put_word(u, 0, 1 << v);
                w.seal_bits(u);
            }
        }
        let want = |set: usize, u: usize| {
            let v = (10 * set + u) as VertexId;
            ([v, v + 100], [1u64 << v])
        };
        // The read view below the last set resolves each (set, u) to the
        // slab and the row that slot was written through.
        {
            let (r, _) = a.split_for_write(3, 1);
            for set in 0..3 {
                for u in 0..table.slots(set) {
                    let (list, row) = want(set, u);
                    assert_eq!(r.slot(set, u), list, "set {set} slot {u}");
                    assert_eq!(r.slot_bits(set, u), Some(&row[..]), "set {set} slot {u}");
                }
            }
        }
        // A narrower batch rewrites a prefix of the set's slots only.
        {
            let (_, mut w) = a.split_for_write(1, 2);
            fill(&mut w, 0, &[7]);
            fill(&mut w, 1, &[8]);
        }
        assert_eq!(a.slot(1, 0), &[7]);
        assert_eq!(a.slot(1, 1), &[8]);
        assert_eq!(a.slot(1, 2), want(1, 2).0);
        assert_eq!(a.slot(2, 0), want(2, 0).0);
        assert_eq!(a.set_bits(1, 0), None);
        assert_eq!(a.set_bits(1, 2), Some(&want(1, 2).1[..]));
    }

    #[test]
    #[should_panic(expected = "a batch of 2 does not fit set 0's 1 slots")]
    fn a_batch_wider_than_the_set_is_refused() {
        let mut a = StackArena::new(&SlotTable::with_slots(&[1, 4]), 4);
        let _ = a.split_for_write(0, 2);
    }

    #[test]
    fn a_spill_migrates_in_the_slot_that_overflowed() {
        let mut a = StackArena::new(&SlotTable::with_slots(&[1, 3]), 2);
        {
            let (_, mut w) = a.split_for_write(1, 3);
            fill(&mut w, 0, &[1, 2]);
            fill(&mut w, 1, &[3, 4, 5, 6]);
            fill(&mut w, 2, &[7]);
        }
        assert_eq!(a.spill_events(), 1);
        assert!(!a.spilled(1, 0) && a.spilled(1, 1) && !a.spilled(1, 2));
        assert_eq!(a.slot(1, 0), &[1, 2]);
        assert_eq!(a.slot(1, 1), &[3, 4, 5, 6]);
        assert_eq!(a.slot(1, 2), &[7]);
    }

    #[test]
    fn reset_to_another_table_reuses_the_heap_blocks() {
        let mut a = StackArena::new(&SlotTable::with_slots(&[1, 1, 8, 8]), 16);
        let blocks = |a: &StackArena| (a.data.as_ptr(), a.len.as_ptr(), a.spill.as_ptr());
        let (before, cells) = (blocks(&a), a.data.capacity());
        // Fewer slots in another arrangement: the same blocks, re-cut.
        let table = SlotTable::with_slots(&[1, 4, 1, 4, 2]);
        a.reset(&table, &[16; 5], 0, 0);
        assert_eq!(blocks(&a), before);
        assert_eq!(a.data.capacity(), cells);
        assert_eq!(a.slab_cells(), 12 * 16);
        {
            let (_, mut w) = a.split_for_write(3, 4);
            fill(&mut w, 3, &[5, 6]);
        }
        assert_eq!(a.slot(3, 3), &[5, 6]);
        assert_eq!(a.slot(4, 1), &[] as &[VertexId]);
    }

    #[test]
    fn peak_cells_track_the_high_water_mark() {
        let mut a = StackArena::new(&SlotTable::with_slots(&[1; 2]), 4);
        assert_eq!(a.peak_slab_cells(), 0);
        {
            let (_, mut w) = a.split_for_write(0, 1);
            fill(&mut w, 0, &[1, 2, 3]);
        }
        {
            let (_, mut w) = a.split_for_write(1, 1);
            fill(&mut w, 0, &[4, 5]);
        }
        assert_eq!(a.peak_slab_cells(), 5);
        // Rewriting set 0 smaller lowers live occupancy but not the peak.
        {
            let (_, mut w) = a.split_for_write(0, 1);
            fill(&mut w, 0, &[9]);
        }
        assert_eq!(a.peak_slab_cells(), 5);
        // Spilled elements count too: they are live candidate cells.
        {
            let (_, mut w) = a.split_for_write(1, 1);
            fill(&mut w, 0, &[1, 2, 3, 4, 5, 6]);
        }
        assert_eq!(a.peak_slab_cells(), 7);
        a.reset(&SlotTable::with_slots(&[1; 2]), &[4; 2], 0, 0);
        assert_eq!(a.peak_slab_cells(), 0);
    }

    #[test]
    fn shaped_arena_packs_per_set_capacities() {
        let mut a = StackArena::default();
        a.reset(&SlotTable::with_slots(&[2; 2]), &[2, 5], 0, 0);
        assert_eq!(a.slab_cells(), 2 * 2 + 5 * 2);
        {
            let (_, mut w) = a.split_for_write(0, 2);
            fill(&mut w, 0, &[1, 2]);
            fill(&mut w, 1, &[3]);
        }
        {
            let (r, mut w) = a.split_for_write(1, 2);
            assert_eq!(r.slot(0, 0), &[1, 2]);
            assert_eq!(r.slot(0, 1), &[3]);
            fill(&mut w, 0, &[7, 8, 9, 10, 11]);
        }
        assert_eq!(a.slot(0, 0), &[1, 2]);
        assert_eq!(a.slot(1, 0), &[7, 8, 9, 10, 11]);
        assert!(!a.spilled(1, 0), "within its shaped cap");
        // Overflowing the *shaped* cap spills at that cap, not the uniform.
        {
            let (_, mut w) = a.split_for_write(0, 2);
            fill(&mut w, 0, &[1, 2, 3]);
        }
        assert!(a.spilled(0, 0));
        assert_eq!(a.slot(0, 0), &[1, 2, 3]);
        assert_eq!(a.spill_events(), 1);
        // A shaped reset recycles into a uniform geometry and back.
        a.reset(&SlotTable::with_slots(&[1; 3]), &[4, 1, 3], 0, 0);
        assert_eq!(a.slab_cells(), 8);
        assert_eq!(a.spill_events(), 0);
        {
            let (_, mut w) = a.split_for_write(2, 1);
            fill(&mut w, 0, &[6, 7, 8]);
        }
        assert_eq!(a.slot(2, 0), &[6, 7, 8]);
        assert!(!a.spilled(2, 0));
    }
}
