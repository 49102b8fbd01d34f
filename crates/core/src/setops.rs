//! Warp-wide set operations — the `getCandidates` primitives.
//!
//! Candidate sets are sorted vertex lists; intersections and differences
//! against neighbor lists are computed with one membership probe per
//! element, one element per SIMT lane (§IV of the paper). The *combined*
//! variants process the sets of several unroll slots in a single stream of
//! waves (Fig. 8): a prefix sum over set sizes maps each lane to a
//! `(set index, offset)` pair, lanes probe their own operand, a ballot
//! collects the survivors and each lane's rank in the ballot mask compacts
//! them into the output sets. With unroll size 1 the same code degrades to the naive
//! one-set-at-a-time operation whose lane utilization is bounded by the
//! data graph's (usually small) degrees — the effect Fig. 13 quantifies.
//!
//! **Data per slot, cost from lengths.** That stream is the *simulated*
//! machine's, and its cost is a pure function of the slot lengths: the cost
//! table's [`Cost::Stream`] entry — one scan over the sizes, `⌈Σ|S_u| / 32⌉`
//! waves over the streamed side `S_u` of each slot, each wave closed as the
//! [`Close`] every entry point takes says. An operation whose survivors are
//! only *counted* ([`Close::Counted`], set by the kernel for a counting
//! launch's last-level candidate — Fig. 3 line 16 adds `|C|`, it never
//! iterates it — and by the baselines' last step) compacts nothing, so its
//! waves close with no ballot: each lane probes, tests validity and adds to
//! a lane-private tally. One whose set a claim iterates beside other readers
//! ([`Close::Masked`]) issues a second ballot per wave, of its lanes'
//! validity. The output lands in the sink either way. Each entry point
//! charges its stream once, through [`Warp::charge`] at [`Site::SetOp`].
//! The host moves the data separately, one tight membership loop per slot
//! writing survivors straight into the slot's output ([`SetSink::lend`] /
//! [`SetSink::commit`]).
//!
//! **The slot's shape picks its host loop.** A slot may bring a bitmap row
//! for either side, from the kernel's one row provider (DESIGN.md §4f,
//! "Where the rows come from"): the hub row of a neighbor list, from the
//! graph's [`HubBitmapIndex`](stmatch_graph::HubBitmapIndex) when it carries
//! one, on either side; on the input side, else the kernel's per-warp
//! *marker* row of a loop-invariant neighbor list that a lifted
//! intersection re-reads (§4c), else a sealed arena result row. The lengths
//! `|A|` (input) and `|B|` (operand), the rows present and the op kind
//! decide the route, first match wins:
//!
//! | slot shape | host route | streams |
//! |---|---|---|
//! | both rows, `stride ≤ \|A\|+\|B\|` | word merge | words |
//! | operand row, `\|B\| ≥ \|A\|` | probe the operand's row | `A` |
//! | input row, `∩`, `\|B\| < \|A\|` | probe the input's row | `B` |
//! | `\|B\| ≤ 4·\|A\|` | merge | `A` |
//! | otherwise | binary search | `A` |
//!
//! * The two probes are one O(1) word probe per streamed element: the input
//!   against the operand's row (`bitmap_probe_words` counts these, `|A|` per
//!   slot), or the shorter operand of an intersection against the input's
//!   row ([`streams_operand`]; `operand_lanes` counts these).
//! * Merge walks a monotone operand cursor, `O(|A|+|B|)`; binary search is
//!   `O(log |B|)` per element. Both are correct because each slot's
//!   elements are visited in ascending order.
//! * An empty operand short-circuits the probe entirely: intersection drops
//!   every element, difference keeps every element.
//!
//! Every route but the word merge is an element-domain slot of one lane per
//! streamed element, and which side streams is decided from the lengths,
//! the input row's presence and the op kind alone: the operand's `|B|` for
//! an intersection whose input has a row and whose operand is shorter, the
//! input's `|A|` otherwise. Merge and binary search differ only in host
//! cost. The word merge ANDs the two rows, 32 words per wave, and extracts
//! survivors from the result words: it deliberately changes the simulated
//! wave structure (`ceil(stride/32)` waves instead of `ceil(|A|/32)`), the
//! Fig. 8 win it models; `bitmap_merge_words`/`_waves` account for it.
//!
//! [`apply_chain_bits_into`] fuses a whole op chain in the bitmap domain
//! when every operand of a slot is a hub, ping/ponging intermediate rows
//! through word-aligned rows of the warp's arena (see
//! [`WarpArena`](crate::arena::WarpArena)).
//! See DESIGN.md §4f for the encoding and the accounting contract.
//!
//! **Sinks.** Outputs land through the [`SetSink`] trait so callers
//! choose where survivors go: plain `[Vec<VertexId>]` buffers (the
//! baselines, tests) or the flat stack arena's
//! [`ArenaWriter`](crate::arena::ArenaWriter) (the kernel's
//! allocation-free hot path).

use stmatch_gpusim::{Close, Cost, Site, Warp, WARP_SIZE};
use stmatch_graph::bitmap::word_probe;
use stmatch_graph::{Graph, VertexId};
use stmatch_pattern::{LabelMask, OpKind};

/// Destination of a combined set operation: one output list per unroll
/// slot. `begin(u, hint)` resets slot `u`; its survivors then arrive in
/// ascending order, a whole slot at a time — either written in place
/// through [`SetSink::lend`] + [`SetSink::commit`] (the element-domain
/// loops) or `push`ed one by one (bitmap extractions, and slots whose sink
/// declined the lend). The sink sees data only: what the operation costs on
/// the simulated machine is charged from the slot lengths, elsewhere.
pub trait SetSink {
    fn begin(&mut self, slot: usize, capacity_hint: usize);
    fn push(&mut self, slot: usize, value: VertexId);

    /// Lends the first `n` cells of `slot`, which must be empty (fresh from
    /// `begin`), for writing in place — or declines (`None`) when the sink
    /// cannot hold `n` contiguous cells, and the caller `push`es instead.
    /// The cells' contents are unspecified; the caller writes a prefix and
    /// [`SetSink::commit`]s its length.
    fn lend(&mut self, slot: usize, n: usize) -> Option<&mut [VertexId]>;

    /// Makes the first `kept` cells of the preceding [`SetSink::lend`] the
    /// slot's elements.
    fn commit(&mut self, slot: usize, kept: usize);

    /// Bulk append, equivalent to pushing every value in order; sinks
    /// override this with a block copy for the unfiltered-copy fast path.
    fn extend(&mut self, slot: usize, values: &[VertexId]) {
        for &v in values {
            self.push(slot, v);
        }
    }

    /// Accepts one result word of a bitmap-domain op for `slot`. The
    /// bitmap paths call this for every word index of the result row (in
    /// ascending order) before [`SetSink::seal_bits`]; sinks that keep
    /// per-slot bitmap rows (the arena) store the word so dependents can
    /// run in the bitmap domain too. The default discards it.
    fn put_word(&mut self, _slot: usize, _word_index: usize, _word: u64) {}

    /// Marks `slot`'s stored bitmap row complete: every result word was
    /// delivered and the extraction mask filtered nothing, so the row
    /// denotes exactly the slot's element list. Never called for masked
    /// extractions (the row would be a superset of the elements).
    fn seal_bits(&mut self, _slot: usize) {}
}

/// Plain heap-vector sink; reuses each vector's capacity across calls.
impl SetSink for [Vec<VertexId>] {
    #[inline]
    fn begin(&mut self, slot: usize, capacity_hint: usize) {
        self[slot].clear();
        self[slot].reserve(capacity_hint);
    }

    #[inline]
    fn push(&mut self, slot: usize, value: VertexId) {
        self[slot].push(value);
    }

    #[inline]
    fn lend(&mut self, slot: usize, n: usize) -> Option<&mut [VertexId]> {
        debug_assert!(self[slot].is_empty());
        self[slot].resize(n, 0);
        Some(&mut self[slot])
    }

    #[inline]
    fn commit(&mut self, slot: usize, kept: usize) {
        self[slot].truncate(kept);
    }

    #[inline]
    fn extend(&mut self, slot: usize, values: &[VertexId]) {
        self[slot].extend_from_slice(values);
    }
}

/// Inert names, kept for `benchmark/`; defined in `config`.
pub use crate::config::{SetOpAlgo, SetOpTuning};

/// Host loop of one slot of a combined set op, picked by [`route`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    /// Word-parallel row ∩/∖ row, 32 words per wave.
    WordMerge,
    /// The input streams against the operand's row.
    ProbeOperandRow,
    /// The (shorter) operand of an intersection streams against the
    /// input's row.
    ProbeInputRow,
    /// A monotone operand cursor advanced element by element.
    Merge,
    /// Full-range binary search per streamed element.
    BinarySearch,
}

/// Merge when the operand is at most this many times as long as the input.
const MERGE_RATIO: usize = 4;

/// The host loop for one slot, from its shape alone (the module docs'
/// table, first match wins): `|A| = input_len`, `|B| = operand_len`,
/// `stride` the rows' length in words, `input_row` / `operand_row` which
/// sides carry a row. The bounds are inclusive and the product saturates:
/// `(100, 400)` merges, `(100, 401)` binary-searches.
fn route(
    input_len: usize,
    operand_len: usize,
    stride: usize,
    input_row: bool,
    operand_row: bool,
    kind: OpKind,
) -> Route {
    if input_row && operand_row && stride <= input_len + operand_len {
        Route::WordMerge
    } else if operand_row && operand_len >= input_len {
        Route::ProbeOperandRow
    } else if streams_operand(input_len, operand_len, input_row, kind) {
        Route::ProbeInputRow
    } else if operand_len <= input_len.saturating_mul(MERGE_RATIO) {
        Route::Merge
    } else {
        Route::BinarySearch
    }
}

/// Which side of an element-domain slot streams on the simulated machine:
/// true when the lanes walk the operand and probe the input's row — an
/// intersection whose operand is the shorter list and whose input has a row
/// (a bitmap probe is one word load, the price of any lane's membership
/// test). Decided from the lengths, the row's presence and the kind alone:
/// the slot is charged `|B|` lanes when true, `|A|` otherwise, and the host
/// streams the same side.
#[inline]
pub fn streams_operand(
    input_len: usize,
    operand_len: usize,
    has_input_bits: bool,
    kind: OpKind,
) -> bool {
    has_input_bits && kind == OpKind::Intersect && operand_len < input_len
}

/// Copies `sources[u]` into slot `u` of `out` keeping only vertices admitted
/// by `mask`, for all slots in one combined lane stream whose waves close as
/// `close` says: a block copy per slot, or a label filter where `mask`
/// restricts.
pub fn materialize_base_into<S: SetSink + ?Sized>(
    warp: &mut Warp,
    g: &Graph,
    sources: &[&[VertexId]],
    mask: LabelMask,
    close: Close,
    out: &mut S,
) {
    for (u, src) in sources.iter().enumerate() {
        out.begin(u, src.len());
        if mask.is_all() {
            out.extend(u, src);
        } else {
            filter_slot(out, u, src, |v| mask.allows(g.label(v)));
        }
    }
    let lanes = sources.iter().map(|s| s.len()).sum();
    let slots = sources.len();
    warp.charge(
        Site::SetOp,
        Cost::Stream {
            slots,
            lanes,
            close,
        },
    );
}

/// Computes slot `u` of `out` as `inputs[u] (∩ | −) operands[u]` filtered
/// by `mask`, for all slots in one combined lane stream whose waves close as
/// `close` says (module docs). Inputs and operands must be sorted ascending;
/// outputs are sorted ascending.
///
/// The host loop is per slot ([`route`], from the slot's shape): the
/// simulated cost is charged from the lengths of the side each slot streams
/// ([`streams_operand`]) — the simulated probe costs one lane instruction
/// whichever loop the host runs it in.
///
/// `input_bits[u]` / `operand_bits[u]`, when `Some`, must denote exactly
/// the same vertex set as `inputs[u]` / `operands[u]`: the kernel's row
/// provider attaches a hub row only to a list that *is* a hub's neighbor
/// list, and an input row is that, else the marker row of the lifted list
/// the input equals, else the input slab's sealed result row. Each
/// element-domain slot (every route but the word merge) runs its own
/// membership loop and together they are charged as one combined Fig. 8
/// stream over their streamed sides' lengths, and word-merge slots stream
/// their words as a separate combined word stream (scan + 32-word waves +
/// ballots), mirroring the element stream one level up. `close` closes the
/// waves of both streams.
#[allow(clippy::too_many_arguments)]
pub fn apply_op_into<S: SetSink + ?Sized>(
    warp: &mut Warp,
    g: &Graph,
    inputs: &[&[VertexId]],
    input_bits: &[Option<&[u64]>],
    operands: &[&[VertexId]],
    operand_bits: &[Option<&[u64]>],
    kind: OpKind,
    mask: LabelMask,
    close: Close,
    out: &mut S,
) {
    debug_assert_eq!(inputs.len(), operands.len());
    debug_assert_eq!(inputs.len(), input_bits.len());
    debug_assert_eq!(inputs.len(), operand_bits.len());
    debug_assert!(inputs.len() <= WARP_SIZE);
    let mut word_merge = [false; WARP_SIZE];
    let mut any_merge = false;
    // The element stream: its slots, its lanes and the lanes of slots that
    // stream their operand.
    let (mut slots, mut lanes, mut operand_lanes) = (0, 0, 0);
    // Survivor test, given the membership answer.
    let want = kind == OpKind::Intersect;
    let pass =
        |v: VertexId, found: bool| found == want && (mask.is_all() || mask.allows(g.label(v)));
    for (u, (&inp, &ops)) in inputs.iter().zip(operands).enumerate() {
        out.begin(u, inp.len());
        let stride = input_bits[u].map_or(usize::MAX, <[u64]>::len);
        let has_input_bits = input_bits[u].is_some();
        let route = route(
            inp.len(),
            ops.len(),
            stride,
            has_input_bits,
            operand_bits[u].is_some(),
            kind,
        );
        if route == Route::WordMerge {
            word_merge[u] = true;
            any_merge = true;
            continue;
        }
        slots += 1;
        if streams_operand(inp.len(), ops.len(), has_input_bits, kind) {
            lanes += ops.len();
            operand_lanes += ops.len();
        } else {
            lanes += inp.len();
        }
        if ops.is_empty() {
            // Empty operand: ∩ drops everything (the slot stays as `begin`
            // left it), − keeps everything.
            if !want {
                filter_slot(out, u, inp, |v| pass(v, false));
            }
            continue;
        }
        match route {
            Route::BinarySearch => {
                filter_slot(out, u, inp, |v| pass(v, ops.binary_search(&v).is_ok()))
            }
            Route::Merge => {
                // ∩ keeps nothing past the operand's last element: stop
                // there instead of walking the rest of the input.
                let last = ops[ops.len() - 1];
                let inp = match kind {
                    OpKind::Intersect => &inp[..inp.partition_point(|&v| v <= last)],
                    OpKind::Difference => inp,
                };
                let mut c = 0usize;
                filter_slot(out, u, inp, |v| {
                    while c < ops.len() && ops[c] < v {
                        c += 1;
                    }
                    pass(v, c < ops.len() && ops[c] == v)
                })
            }
            Route::ProbeInputRow => {
                // A ∩ B = B ∩ A: the shorter operand streams, ascending,
                // against the input's row.
                let bits = input_bits[u].expect("streams_operand implies an input row");
                filter_slot(out, u, ops, |v| pass(v, word_probe(bits, v)))
            }
            Route::ProbeOperandRow => {
                let bits = operand_bits[u].expect("the route requires an operand row");
                warp.metrics_mut().bitmap_probe_words += inp.len() as u64;
                filter_slot(out, u, inp, |v| pass(v, word_probe(bits, v)))
            }
            Route::WordMerge => unreachable!("merge slots stream words, not elements"),
        }
    }
    warp.charge(
        Site::SetOp,
        Cost::Stream {
            slots,
            lanes,
            close,
        },
    );
    let m = warp.metrics_mut();
    m.element_lanes += lanes as u64;
    m.operand_lanes += operand_lanes as u64;
    if any_merge {
        merge_bitmap_slots(
            warp,
            g,
            input_bits,
            operand_bits,
            &word_merge,
            kind,
            mask,
            close,
            out,
        );
    }
}

/// One slot's data movement: the elements of `inp` that `keep` admits
/// become `out`'s `slot`, in order — compacted in place at a running offset
/// when the sink lends the slot's cells, pushed one by one when it declines.
/// `keep` sees the elements in ascending order (what makes monotone-cursor
/// probes correct).
#[inline]
fn filter_slot<S: SetSink + ?Sized>(
    out: &mut S,
    slot: usize,
    inp: &[VertexId],
    mut keep: impl FnMut(VertexId) -> bool,
) {
    match out.lend(slot, inp.len()) {
        Some(cells) => {
            let mut n = 0usize;
            for &v in inp {
                cells[n] = v;
                n += usize::from(keep(v));
            }
            out.commit(slot, n);
        }
        None => {
            for &v in inp {
                if keep(v) {
                    out.push(slot, v);
                }
            }
        }
    }
}

/// Streams the word-merge slots of one combined op as a word stream:
/// a prefix scan over word counts (when more than one merge slot), waves
/// of 32 words with low-bit-contiguous active masks, closed as `close`
/// says, survivors extracted in ascending order from each result word.
#[allow(clippy::too_many_arguments)]
fn merge_bitmap_slots<S: SetSink + ?Sized>(
    warp: &mut Warp,
    g: &Graph,
    input_bits: &[Option<&[u64]>],
    operand_bits: &[Option<&[u64]>],
    word_merge: &[bool; WARP_SIZE],
    kind: OpKind,
    mask: LabelMask,
    close: Close,
    out: &mut S,
) {
    let merged = || (0..input_bits.len()).filter(|&u| word_merge[u]);
    let (mut slots, mut lanes) = (0, 0);
    for u in merged() {
        let a = input_bits[u].expect("a word merge requires input bits");
        let b = operand_bits[u].expect("a word merge requires operand bits");
        debug_assert_eq!(a.len(), b.len());
        // One word AND (or ANDN) per lane.
        for (w, (&x, &y)) in a.iter().zip(b).enumerate() {
            let c = match kind {
                OpKind::Intersect => x & y,
                OpKind::Difference => x & !y,
            };
            extract_word(g, mask, out, u, w, c);
        }
        slots += 1;
        lanes += a.len();
    }
    if lanes == 0 {
        return;
    }
    warp.charge(
        Site::SetOp,
        Cost::Stream {
            slots,
            lanes,
            close,
        },
    );
    let m = warp.metrics_mut();
    m.bitmap_merge_waves += lanes.div_ceil(WARP_SIZE) as u64;
    m.bitmap_merge_words += lanes as u64;
    if mask.is_all() {
        merged().for_each(|u| out.seal_bits(u));
    }
}

/// Delivers result word `w` of a bitmap-domain op to `slot`: the word
/// itself, then its set bits, ascending, as the vertices `mask` admits.
#[inline]
fn extract_word<S: SetSink + ?Sized>(
    g: &Graph,
    mask: LabelMask,
    out: &mut S,
    slot: usize,
    w: usize,
    mut c: u64,
) {
    out.put_word(slot, w, c);
    while c != 0 {
        let bit = c.trailing_zeros();
        c &= c - 1;
        let value = (w as VertexId) * 64 + bit;
        if mask.is_all() || mask.allows(g.label(value)) {
            out.push(slot, value);
        }
    }
}

/// Fuses a whole op chain of one slot in the bitmap domain: the
/// accumulator starts as `base_bits`, each non-final op word-ANDs (or
/// AND-NOTs) an operand row into the ping/pong scratch, and the final op
/// streams its result words once, extracting survivors ascending into
/// `out` under `mask`. Used by the kernel when a slot's base vertex *and*
/// every chain operand are hubs.
///
/// Accounting contract (DESIGN.md §4f): every op — including the final
/// extraction — costs `ceil(stride/32)` word waves (one SIMT instruction
/// plus one ballot each, `stride` active lanes total); survivor compaction
/// is the ballot's, as in the element stream — so the final op's waves
/// close as `close` says (no ballot when the result is only counted: the
/// popcount of its words is the count). The steps before it compact.
#[allow(clippy::too_many_arguments)]
pub fn apply_chain_bits_into<S: SetSink + ?Sized>(
    warp: &mut Warp,
    g: &Graph,
    slot: usize,
    base_bits: &[u64],
    ops: &[(OpKind, &[u64])],
    mask: LabelMask,
    close: Close,
    ping: &mut [u64],
    pong: &mut [u64],
    out: &mut S,
) {
    assert!(!ops.is_empty(), "a fused chain needs at least one operand");
    let stride = base_bits.len();
    debug_assert!(ping.len() >= stride && pong.len() >= stride);
    out.begin(slot, 0);
    for (i, &(kind, b)) in ops.iter().enumerate() {
        debug_assert_eq!(b.len(), stride);
        let is_last = i + 1 == ops.len();
        // Source row: the base for op 0, then whichever scratch buffer the
        // previous op wrote (ping, pong, ping, … alternating). Source and
        // destination are always distinct buffers.
        let (src, mut dst): (&[u64], Option<&mut [u64]>) = if i == 0 {
            (base_bits, (!is_last).then_some(&mut *ping))
        } else if i % 2 == 1 {
            (&*ping, (!is_last).then_some(&mut *pong))
        } else {
            (&*pong, (!is_last).then_some(&mut *ping))
        };
        for w in 0..stride {
            let c = match kind {
                OpKind::Intersect => src[w] & b[w],
                OpKind::Difference => src[w] & !b[w],
            };
            match &mut dst {
                Some(d) => d[w] = c,
                None => extract_word(g, mask, out, slot, w, c),
            }
        }
        warp.charge(
            Site::SetOp,
            Cost::Stream {
                slots: 1,
                lanes: stride,
                close: if is_last { close } else { Close::Compacted },
            },
        );
        let m = warp.metrics_mut();
        m.bitmap_merge_waves += stride.div_ceil(WARP_SIZE) as u64;
        m.bitmap_merge_words += stride as u64;
    }
    if mask.is_all() {
        out.seal_bits(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmatch_graph::gen;

    const NO_ROWS: [Option<&[u64]>; WARP_SIZE] = [None; WARP_SIZE];

    /// One compacting combined operation into heap vectors, no bitmap rows.
    fn apply_op(
        warp: &mut Warp,
        g: &Graph,
        inputs: &[&[VertexId]],
        operands: &[&[VertexId]],
        kind: OpKind,
        mask: LabelMask,
        outs: &mut [Vec<VertexId>],
    ) {
        let rows = &NO_ROWS[..inputs.len()];
        let close = Close::Compacted;
        apply_op_into(
            warp, g, inputs, rows, operands, rows, kind, mask, close, outs,
        )
    }

    // Helper that runs `f` on a real warp inside a 1-warp grid launch and
    // returns the warp's metrics.
    fn with_warp<F: Fn(&mut Warp) + Sync>(f: F) -> stmatch_gpusim::WarpMetrics {
        let grid = stmatch_gpusim::Grid::new(stmatch_gpusim::GridConfig {
            num_blocks: 1,
            warps_per_block: 1,
            shared_mem_per_block: 0,
        })
        .unwrap();
        let m = grid.launch(|w| f(w));
        m.warps[0]
    }

    #[test]
    fn intersect_matches_reference() {
        let g = gen::complete(2); // labels unused (mask ALL)
        let a: Vec<VertexId> = vec![1, 3, 5, 7, 9, 11];
        let b: Vec<VertexId> = vec![3, 4, 5, 6, 7];
        let _ = with_warp(move |w| {
            let mut outs = vec![Vec::new()];
            apply_op(
                w,
                &g,
                &[&a],
                &[&b],
                OpKind::Intersect,
                LabelMask::ALL,
                &mut outs,
            );
            assert_eq!(outs[0], vec![3, 5, 7]);
        });
    }

    #[test]
    fn difference_matches_reference() {
        let g = gen::complete(2);
        let a: Vec<VertexId> = vec![1, 3, 5, 7];
        let b: Vec<VertexId> = vec![3, 7, 8];
        let _ = with_warp(move |w| {
            let mut outs = vec![Vec::new()];
            apply_op(
                w,
                &g,
                &[&a],
                &[&b],
                OpKind::Difference,
                LabelMask::ALL,
                &mut outs,
            );
            assert_eq!(outs[0], vec![1, 5]);
        });
    }

    #[test]
    fn combined_slots_equal_individual_ops() {
        let g = gen::complete(2);
        let ins: Vec<Vec<VertexId>> = vec![vec![1, 2, 3], vec![10, 20, 30, 40], vec![5]];
        let ops: Vec<Vec<VertexId>> = vec![vec![2, 3, 4], vec![20, 40], vec![6]];
        let _ = with_warp(move |w| {
            let in_refs: Vec<&[VertexId]> = ins.iter().map(|v| v.as_slice()).collect();
            let op_refs: Vec<&[VertexId]> = ops.iter().map(|v| v.as_slice()).collect();
            let mut combined = vec![Vec::new(), Vec::new(), Vec::new()];
            apply_op(
                w,
                &g,
                &in_refs,
                &op_refs,
                OpKind::Intersect,
                LabelMask::ALL,
                &mut combined,
            );
            assert_eq!(combined[0], vec![2, 3]);
            assert_eq!(combined[1], vec![20, 40]);
            assert!(combined[2].is_empty());
        });
    }

    #[test]
    fn combined_ops_issue_fewer_waves() {
        // Eight 4-element sets: one-at-a-time needs 8 waves of 4/32 active;
        // combined needs ceil(32/32) = 1 wave of 32/32.
        let g = gen::complete(2);
        let sets: Vec<Vec<VertexId>> = (0..8).map(|s| vec![s, s + 10, s + 20, s + 30]).collect();
        let op: Vec<VertexId> = (0..64).collect();

        let m_single = with_warp(|w| {
            for s in &sets {
                let mut outs = vec![Vec::new()];
                apply_op(
                    w,
                    &g,
                    &[s.as_slice()],
                    &[op.as_slice()],
                    OpKind::Intersect,
                    LabelMask::ALL,
                    &mut outs,
                );
            }
        });
        let m_combined = with_warp(|w| {
            let in_refs: Vec<&[VertexId]> = sets.iter().map(|v| v.as_slice()).collect();
            let op_refs: Vec<&[VertexId]> = vec![op.as_slice(); 8];
            let mut outs: Vec<Vec<VertexId>> = vec![Vec::new(); 8];
            apply_op(
                w,
                &g,
                &in_refs,
                &op_refs,
                OpKind::Intersect,
                LabelMask::ALL,
                &mut outs,
            );
        });
        assert!(
            m_combined.lane_utilization() > m_single.lane_utilization(),
            "combined {} vs single {}",
            m_combined.lane_utilization(),
            m_single.lane_utilization()
        );
    }

    #[test]
    fn base_materialization_filters_labels() {
        let g = gen::complete(6).relabeled(vec![0, 1, 0, 1, 0, 1]);
        let src: Vec<VertexId> = vec![0, 1, 2, 3, 4, 5];
        let _ = with_warp(move |w| {
            let mut outs = [Vec::new()];
            let (mask, close) = (LabelMask::single(1), Close::Compacted);
            materialize_base_into(w, &g, &[&src], mask, close, &mut outs[..]);
            assert_eq!(outs[0], vec![1, 3, 5]);
        });
    }

    #[test]
    fn a_counted_operation_issues_no_ballot_and_moves_the_same_data() {
        // Three slots of 20, 30 and 0 elements, each with a row, against a
        // 14-element operand without a row: the shorter side streams against
        // the input rows, 14 + 14 + 0 lanes — a scan and one wave. With an
        // operand row too, a word stream over the 1-word rows: a scan and one
        // wave of 3 words. Each wave closes with no ballot when counted, one
        // when compacted, two when masked: same lanes, same output.
        let g = gen::complete(2);
        let ins: Vec<Vec<VertexId>> = vec![(0..40).step_by(2).collect(), (0..30).collect(), vec![]];
        let ops: Vec<VertexId> = (0..40).step_by(3).collect();
        let stride = 40usize.div_ceil(64);
        let rows: Vec<Vec<u64>> = ins.iter().map(|s| bits_of(s, stride)).collect();
        let op_row = bits_of(&ops, stride);
        for (words, lanes) in [(false, 28), (true, 3)] {
            let run = |close: Close| {
                let out = std::sync::Mutex::new(Vec::new());
                let m = with_warp(|w| {
                    let mut outs = vec![Vec::new(); 3];
                    let in_refs: Vec<&[VertexId]> = ins.iter().map(|v| v.as_slice()).collect();
                    let in_bits: Vec<Option<&[u64]>> = rows.iter().map(|r| Some(&r[..])).collect();
                    apply_op_into(
                        w,
                        &g,
                        &in_refs,
                        &in_bits,
                        &[&ops[..]; 3],
                        &[words.then_some(&op_row[..]); 3],
                        OpKind::Intersect,
                        LabelMask::ALL,
                        close,
                        &mut outs[..],
                    );
                    *out.lock().unwrap() = outs;
                });
                (out.into_inner().unwrap(), m)
            };
            let (want, c) = run(Close::Compacted);
            assert_eq!(c.active_lane_slots, 5 * 32 + lanes, "words {words}");
            let element = if words { 0 } else { lanes };
            assert_eq!((c.element_lanes, c.operand_lanes), (element, element));
            for (close, ballots) in [(Close::Counted, 0), (Close::Masked, 2)] {
                let (outs, m) = run(close);
                assert_eq!(outs, want, "words {words} {close:?}: host output");
                assert_eq!(m.simt_instructions, 5 + 1 + ballots, "{words} {close:?}");
                assert_eq!(m.set_op_instructions, m.simt_instructions);
                assert_eq!(
                    (m.active_lane_slots, m.issued_lane_slots),
                    (c.active_lane_slots, c.issued_lane_slots),
                    "words {words} {close:?}: lanes"
                );
                assert_eq!(
                    (m.bitmap_merge_words, m.bitmap_merge_waves),
                    (c.bitmap_merge_words, c.bitmap_merge_waves)
                );
            }
            assert_eq!(c.simt_instructions, 5 + 1 + 1, "words {words}");
        }
    }

    #[test]
    fn outputs_stay_sorted() {
        let g = gen::complete(2);
        let a: Vec<VertexId> = (0..100).collect();
        let b: Vec<VertexId> = (0..100).filter(|v| v % 3 == 0).collect();
        let _ = with_warp(move |w| {
            let mut outs = vec![Vec::new()];
            apply_op(
                w,
                &g,
                &[&a],
                &[&b],
                OpKind::Intersect,
                LabelMask::ALL,
                &mut outs,
            );
            assert!(outs[0].windows(2).all(|p| p[0] < p[1]));
            assert_eq!(outs[0].len(), 34);
        });
    }

    #[test]
    fn route_crossovers_match_docs() {
        // Table-driven mirror of the module docs' route table: every row is
        // a crossover the docs promise, first match wins.
        use OpKind::{Difference, Intersect};
        use Route::*;
        // (|A|, |B|, stride, input row, operand row, kind, expected)
        const TABLE: &[(usize, usize, usize, bool, bool, OpKind, Route)] = &[
            // Both rows: a word merge iff stride ≤ |A| + |B| (inclusive).
            (60, 60, 120, true, true, Intersect, WordMerge),
            (60, 60, 121, true, true, Intersect, ProbeOperandRow),
            // Operand row: probe it iff |B| ≥ |A| (inclusive).
            (50, 50, 10, false, true, Intersect, ProbeOperandRow),
            (50, 50, 10, false, true, Difference, ProbeOperandRow),
            (50, 49, 10, false, true, Intersect, Merge),
            // Input row: an intersection with a shorter operand streams the
            // operand against it; a difference cannot, and neither can an
            // operand at least as long as the input.
            (50, 49, 2, true, false, Intersect, ProbeInputRow),
            (50, 1, 2, true, false, Intersect, ProbeInputRow),
            (50, 49, 2, true, false, Difference, Merge),
            (50, 50, 2, true, false, Intersect, Merge),
            // No rows: merge iff |B| ≤ 4·|A| (inclusive), binary search above,
            // however long the operand.
            (100, 0, 0, false, false, Intersect, Merge),
            (100, 400, 0, false, false, Intersect, Merge),
            (100, 401, 0, false, false, Difference, BinarySearch),
            (100, 6400, 0, false, false, Intersect, BinarySearch),
            (1, 4, 0, false, false, Intersect, Merge),
            (1, 5, 0, false, false, Intersect, BinarySearch),
            (0, 0, 0, false, false, Intersect, Merge),
            (0, 1, 0, false, false, Intersect, BinarySearch),
            // The product saturates rather than wraps.
            (
                usize::MAX / 2,
                usize::MAX,
                0,
                false,
                false,
                Intersect,
                Merge,
            ),
        ];
        for &(a, b, s, ib, ob, kind, want) in TABLE {
            let got = route(a, b, s, ib, ob, kind);
            assert_eq!(got, want, "route({a}, {b}, {s}, {ib}, {ob}, {kind:?})");
            // The input row is probed exactly where the operand streams.
            let probe_input = got == ProbeInputRow;
            assert!(got == WordMerge || probe_input == streams_operand(a, b, ib, kind));
        }
    }

    #[test]
    fn merge_and_binary_search_agree_and_charge_the_same() {
        // The same 67-element input against a 100-element operand (merge)
        // and a 1000-element one with the same members below 200 (binary
        // search): same outputs, same simulated cost.
        let g = gen::complete(2);
        let a: Vec<VertexId> = (0..200).step_by(3).collect();
        for kind in [OpKind::Intersect, OpKind::Difference] {
            let runs = [200, 2000].map(|n| {
                let b: Vec<VertexId> = (0..n).step_by(2).collect();
                let out = std::sync::Mutex::new(Vec::new());
                let m = with_warp(|w| {
                    let mut outs = vec![Vec::new()];
                    apply_op(w, &g, &[&a], &[&b], kind, LabelMask::ALL, &mut outs);
                    *out.lock().unwrap() = outs.remove(0);
                });
                let out = out.into_inner().unwrap();
                (out, m.simt_instructions, m.issued_lane_slots)
            });
            assert_eq!(runs[0], runs[1], "{kind:?}");
        }
    }

    #[test]
    fn empty_operand_short_circuits_correctly() {
        let g = gen::complete(2);
        let a: Vec<VertexId> = vec![2, 4, 6];
        let _ = with_warp(move |w| {
            let mut outs = vec![Vec::new()];
            apply_op(
                w,
                &g,
                &[&a],
                &[&[]],
                OpKind::Intersect,
                LabelMask::ALL,
                &mut outs,
            );
            assert!(outs[0].is_empty());
            apply_op(
                w,
                &g,
                &[&a],
                &[&[]],
                OpKind::Difference,
                LabelMask::ALL,
                &mut outs,
            );
            assert_eq!(outs[0], vec![2, 4, 6]);
        });
    }

    /// Encodes a sorted vertex list as a `stride`-word bitmap row.
    fn bits_of(vals: &[VertexId], stride: usize) -> Vec<u64> {
        let mut bits = vec![0u64; stride];
        for &v in vals {
            bits[(v >> 6) as usize] |= 1u64 << (v & 63);
        }
        bits
    }

    #[test]
    fn bitmap_probe_agrees_and_keeps_metrics_identical() {
        // An operand row at least as long as the input is probed, an
        // element-stream route: identical outputs AND an identical (simt,
        // issued, active) tuple vs. the same slot without the row (a merge) —
        // only the host cost and the probe counter differ.
        let g = gen::complete(2);
        let a: Vec<VertexId> = (0..200).step_by(3).collect();
        let b: Vec<VertexId> = (0..200).step_by(2).collect();
        let stride = 200usize.div_ceil(64);
        let b_bits = bits_of(&b, stride);
        for kind in [OpKind::Intersect, OpKind::Difference] {
            let mut runs = Vec::new();
            for probe in [false, true] {
                let (a, b, b_bits, g) = (a.clone(), b.clone(), b_bits.clone(), g.clone());
                let out = std::sync::Mutex::new(Vec::new());
                let m = with_warp(|w| {
                    let mut outs = vec![Vec::new()];
                    let op_bits = if probe { Some(b_bits.as_slice()) } else { None };
                    apply_op_into(
                        w,
                        &g,
                        &[&a],
                        &[None],
                        &[&b],
                        &[op_bits],
                        kind,
                        LabelMask::ALL,
                        Close::Compacted,
                        &mut outs[..],
                    );
                    *out.lock().unwrap() = outs.remove(0);
                });
                runs.push((out.into_inner().unwrap(), m));
            }
            let (ref_out, ref_m) = &runs[0];
            let (probe_out, probe_m) = &runs[1];
            assert_eq!(probe_out, ref_out, "{kind:?} probe output diverged");
            assert_eq!(probe_m.simt_instructions, ref_m.simt_instructions);
            assert_eq!(probe_m.issued_lane_slots, ref_m.issued_lane_slots);
            assert_eq!(probe_m.active_lane_slots, ref_m.active_lane_slots);
            assert_eq!(ref_m.bitmap_probe_words, 0);
            assert_eq!(probe_m.bitmap_probe_words, a.len() as u64);
            assert_eq!(probe_m.bitmap_merge_words, 0);
        }
    }

    #[test]
    fn bitmap_merge_agrees_with_classic() {
        let g = gen::complete(2);
        let a: Vec<VertexId> = (0..150).step_by(3).collect();
        let b: Vec<VertexId> = (0..150).step_by(2).collect();
        let stride = 150usize.div_ceil(64);
        let (a_bits, b_bits) = (bits_of(&a, stride), bits_of(&b, stride));
        for kind in [OpKind::Intersect, OpKind::Difference] {
            let (a, b) = (a.clone(), b.clone());
            let (a_bits, b_bits, g) = (a_bits.clone(), b_bits.clone(), g.clone());
            let m = with_warp(move |w| {
                let mut classic = vec![Vec::new()];
                apply_op(w, &g, &[&a], &[&b], kind, LabelMask::ALL, &mut classic);
                let mut merged = [Vec::new()];
                apply_op_into(
                    w,
                    &g,
                    &[&a],
                    &[Some(a_bits.as_slice())],
                    &[&b],
                    &[Some(b_bits.as_slice())],
                    kind,
                    LabelMask::ALL,
                    Close::Compacted,
                    &mut merged[..],
                );
                assert_eq!(merged[0], classic[0], "{kind:?} merge diverged");
                assert!(merged[0].windows(2).all(|p| p[0] < p[1]));
            });
            assert!(m.bitmap_merge_words > 0);
        }
    }

    #[test]
    fn bitmap_merge_wave_accounting_is_exact() {
        // Two merge slots over a 130-vertex universe: stride 3 each, so
        // the combined word stream is one scan (5 instr, 160 issued+active)
        // plus one 6-word wave (1 instr, 32 issued, 6 active) plus one
        // ballot (1 instr) — 7 SIMT instructions total.
        let g = gen::complete(2);
        let a: Vec<VertexId> = vec![1, 64, 129];
        let b: Vec<VertexId> = vec![1, 65, 129];
        let stride = 130usize.div_ceil(64);
        let (a_bits, b_bits) = (bits_of(&a, stride), bits_of(&b, stride));
        let m = with_warp(move |w| {
            let mut outs = [Vec::new(), Vec::new()];
            apply_op_into(
                w,
                &g,
                &[&a, &a],
                &[Some(a_bits.as_slice()), Some(a_bits.as_slice())],
                &[&b, &b],
                &[Some(b_bits.as_slice()), Some(b_bits.as_slice())],
                OpKind::Intersect,
                LabelMask::ALL,
                Close::Compacted,
                &mut outs[..],
            );
            assert_eq!(outs[0], vec![1, 129]);
            assert_eq!(outs[1], vec![1, 129]);
        });
        assert_eq!(m.simt_instructions, 7);
        assert_eq!(m.issued_lane_slots, 5 * 32 + 32);
        assert_eq!(m.active_lane_slots, 5 * 32 + 6);
        assert_eq!(m.bitmap_merge_words, 6);
        assert_eq!(m.bitmap_merge_waves, 1);
    }

    #[test]
    fn mixed_element_and_merge_slots_agree() {
        // Slot 0 has rows on both sides (a word merge), slot 1 has none (a
        // merge); outputs must match per-slot element results.
        let g = gen::complete(2);
        let a0: Vec<VertexId> = (0..120).step_by(2).collect();
        let b0: Vec<VertexId> = (0..120).step_by(5).collect();
        let a1: Vec<VertexId> = vec![3, 9, 27, 81];
        let b1: Vec<VertexId> = vec![9, 81, 100];
        let stride = 120usize.div_ceil(64);
        let (a0_bits, b0_bits) = (bits_of(&a0, stride), bits_of(&b0, stride));
        let _ = with_warp(move |w| {
            let mut classic = vec![Vec::new(), Vec::new()];
            apply_op(
                w,
                &g,
                &[&a0, &a1],
                &[&b0, &b1],
                OpKind::Intersect,
                LabelMask::ALL,
                &mut classic,
            );
            let mut hub = vec![Vec::new(), Vec::new()];
            apply_op_into(
                w,
                &g,
                &[&a0, &a1],
                &[Some(a0_bits.as_slice()), None],
                &[&b0, &b1],
                &[Some(b0_bits.as_slice()), None],
                OpKind::Intersect,
                LabelMask::ALL,
                Close::Compacted,
                &mut hub[..],
            );
            assert_eq!(hub, classic);
        });
    }

    #[test]
    fn bitmap_merge_honors_label_masks() {
        let n = 80usize;
        let labels: Vec<u32> = (0..n as u32).map(|v| v % 2).collect();
        let g = gen::complete(n).relabeled(labels);
        let a: Vec<VertexId> = (0..n as VertexId).collect();
        let b: Vec<VertexId> = (0..n as VertexId).step_by(3).collect();
        let stride = n.div_ceil(64);
        let (a_bits, b_bits) = (bits_of(&a, stride), bits_of(&b, stride));
        let _ = with_warp(move |w| {
            let mut outs = [Vec::new()];
            apply_op_into(
                w,
                &g,
                &[&a],
                &[Some(a_bits.as_slice())],
                &[&b],
                &[Some(b_bits.as_slice())],
                OpKind::Intersect,
                LabelMask::single(1),
                Close::Compacted,
                &mut outs[..],
            );
            let want: Vec<VertexId> = b.iter().copied().filter(|&v| v % 2 == 1).collect();
            assert_eq!(outs[0], want);
        });
    }

    #[test]
    fn chain_bits_matches_sequential_classic_ops() {
        // base ∩ b1 ∖ b2 ∩ b3, fused in the bitmap domain, vs. the same
        // chain run through the classic element path one op at a time.
        let g = gen::complete(2);
        let n = 200usize;
        let base: Vec<VertexId> = (0..n as VertexId).step_by(2).collect();
        let b1: Vec<VertexId> = (0..n as VertexId).step_by(3).collect();
        let b2: Vec<VertexId> = (0..n as VertexId).step_by(5).collect();
        let b3: Vec<VertexId> = (0..n as VertexId).step_by(4).collect();
        let stride = n.div_ceil(64);
        let rows: Vec<Vec<u64>> = [&base, &b1, &b2, &b3]
            .iter()
            .map(|s| bits_of(s, stride))
            .collect();
        let _ = with_warp(move |w| {
            let mut t1 = vec![Vec::new()];
            apply_op(
                w,
                &g,
                &[&base],
                &[&b1],
                OpKind::Intersect,
                LabelMask::ALL,
                &mut t1,
            );
            let mut t2 = vec![Vec::new()];
            apply_op(
                w,
                &g,
                &[&t1[0]],
                &[&b2],
                OpKind::Difference,
                LabelMask::ALL,
                &mut t2,
            );
            let mut want = vec![Vec::new()];
            apply_op(
                w,
                &g,
                &[&t2[0]],
                &[&b3],
                OpKind::Intersect,
                LabelMask::ALL,
                &mut want,
            );

            let mut ping = vec![0u64; stride];
            let mut pong = vec![0u64; stride];
            let mut outs = [Vec::new()];
            let before = w.metrics_mut().bitmap_merge_waves;
            apply_chain_bits_into(
                w,
                &g,
                0,
                &rows[0],
                &[
                    (OpKind::Intersect, rows[1].as_slice()),
                    (OpKind::Difference, rows[2].as_slice()),
                    (OpKind::Intersect, rows[3].as_slice()),
                ],
                LabelMask::ALL,
                Close::Compacted,
                &mut ping,
                &mut pong,
                &mut outs[..],
            );
            assert_eq!(outs[0], want[0]);
            // 3 ops × ceil(4/32) = 3 word waves, 12 words.
            assert_eq!(w.metrics_mut().bitmap_merge_waves - before, 3);
        });
    }
}
