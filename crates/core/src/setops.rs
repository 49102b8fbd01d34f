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
//! table's [`Cost::Stream`] entry — one scan over the sizes, `⌈Σ|A_u| / 32⌉`
//! waves, one ballot per wave. An operation whose survivors are only
//! *counted* — the `counted` bit every entry point takes, set by the kernel
//! for a counting launch's last-level candidate (Fig. 3 line 16 adds `|C|`,
//! it never iterates it) and by the baselines' last step — compacts
//! nothing, so its waves close with no ballot: each lane probes, tests
//! validity and adds to a lane-private tally. The output still lands in the
//! sink. Each entry point charges its stream once, through
//! [`Warp::charge`] at [`Site::SetOp`]. The host moves the data separately,
//! one tight membership loop per slot writing survivors straight into the
//! slot's output ([`SetSink::lend`] / [`SetSink::commit`]), and is free to
//! pick the cheapest real algorithm per slot without perturbing any
//! simulator metric:
//!
//! * [`SetOpAlgo::BinarySearch`] — `O(log |B|)` per element; the
//!   always-correct default for mid-range size ratios.
//! * [`SetOpAlgo::Merge`] — a monotone cursor walked linearly; `O(|A|+|B|)`
//!   total, best when `|B|` is comparable to `|A|`. Correct because each
//!   slot's elements are visited in ascending order.
//! * [`SetOpAlgo::Gallop`] — exponential search from the monotone cursor,
//!   then binary search inside the bracket; best when `|B| ≫ |A|`.
//!
//! [`choose_algo`] picks per slot from the size ratio ([`MERGE_RATIO`],
//! [`GALLOP_RATIO`]) unless [`SetOpTuning::force`] pins one (an
//! [`EngineConfig`](crate::config::EngineConfig) knob). An empty operand
//! short-circuits the probe entirely: intersection drops every element,
//! difference keeps every element.
//!
//! **Bitmap-row paths.** A slot may bring a bitmap row for either side:
//! rows of the graph's [`HubBitmapIndex`](stmatch_graph::HubBitmapIndex)
//! and sealed arena result rows when the launch routes an index, or — with
//! no index — the kernel's per-warp *marker* row of a loop-invariant
//! neighbor list that a lifted intersection re-reads (DESIGN.md §4c; marker
//! rows only ever sit on the input side). Two further algorithms become
//! available through [`choose_algo_hub`]:
//!
//! * [`SetOpAlgo::BitmapProbe`] — one O(1) word probe per streamed element,
//!   streaming the *shorter* side against the other side's row: the input
//!   against the operand's row (`bitmap_probe_words` counts these, `|A|` per
//!   slot), or, for an intersection whose operand is shorter than its input,
//!   the operand against the input's row. Either way this is still an
//!   element-domain slot of `|A|` lanes, so wave/scan/ballot accounting
//!   stays **identical** to the classic paths — only the host cost changes.
//! * [`SetOpAlgo::BitmapMerge`] — both sides are bitmap rows; the op is a
//!   stream of word ANDs, 32 words per wave, survivors extracted from the
//!   result words. This path deliberately changes the simulated wave
//!   structure (`ceil(stride/32)` waves instead of `ceil(|A|/32)`), which
//!   is the Fig. 8 win it models; `bitmap_merge_words`/`_waves` account
//!   for it.
//!
//! [`apply_chain_bits_into`] fuses a whole op chain in the bitmap domain
//! when every operand of a slot is a hub, ping/ponging intermediate rows
//! through word-aligned arena scratch (see
//! [`StackArena::split_for_write_bits`](crate::arena::StackArena::split_for_write_bits)).
//! See DESIGN.md §4f for the encoding and the accounting contract.
//!
//! **Sinks.** Outputs land through the [`SetSink`] trait so callers
//! choose where survivors go: plain `[Vec<VertexId>]` buffers (the
//! baselines, tests) or the flat stack arena's
//! [`ArenaWriter`](crate::arena::ArenaWriter) (the kernel's
//! allocation-free hot path).

use stmatch_gpusim::{Cost, Site, Warp, WARP_SIZE};
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

/// Host-side membership algorithm for one slot of a combined set op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetOpAlgo {
    /// Full-range binary search per streamed element.
    BinarySearch,
    /// Linear merge: a monotone operand cursor advanced element by element.
    Merge,
    /// Galloping (exponential) search from the monotone cursor.
    Gallop,
    /// O(1) word probe of each streamed element against the other side's
    /// bitmap row: the input against the operand's row, or the (shorter)
    /// operand of an intersection against the input's row. Chosen by
    /// [`choose_algo_hub`] only.
    BitmapProbe,
    /// Word-parallel bitmap ∩/∖ bitmap, 32 words per wave. Requires bits
    /// on both sides; chosen by [`choose_algo_hub`] only.
    BitmapMerge,
}

/// [`choose_algo`] merges when the operand is at most this many times as
/// long as the input.
pub const MERGE_RATIO: usize = 4;
/// [`choose_algo`] gallops when the operand is at least this many times as
/// long as the input, and binary-searches between the two ratios.
pub const GALLOP_RATIO: usize = 64;
/// [`choose_algo_hub`] probes an operand's hub-bitmap row when
/// `|B| ≥ BITMAP_RATIO·|A|`: whenever the operand is at least as long as
/// the input.
pub const BITMAP_RATIO: usize = 1;

/// Host-side algorithm choice for [`choose_algo`] / [`choose_algo_hub`]:
/// the size-ratio rules, or `force`d to one algorithm for every slot
/// (tests, ablations).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SetOpTuning {
    pub force: Option<SetOpAlgo>,
}

impl SetOpTuning {
    /// A tuning that pins every slot to `algo` (bypasses the ratio test).
    pub fn forced(algo: SetOpAlgo) -> Self {
        SetOpTuning { force: Some(algo) }
    }
}

/// Picks the membership algorithm for one slot from the input/operand
/// size ratio. The exact crossovers, with `|A| = input_len` and
/// `|B| = operand_len` (asserted verbatim by the table-driven test
/// `choose_algo_crossovers_match_docs`):
///
/// * `force` set: that algorithm, unconditionally. Prefer
///   [`choose_algo_hub`] for the bitmap variants — it degrades a forced
///   bitmap choice to what the available rows actually support.
/// * `|B| ≤ MERGE_RATIO · |A|` → [`SetOpAlgo::Merge`]. The bound is
///   **inclusive**: with `MERGE_RATIO = 4`, `(100, 400)` merges and
///   `(100, 401)` binary-searches.
/// * `|B| ≥ GALLOP_RATIO · |A|` → [`SetOpAlgo::Gallop`], also inclusive:
///   with `GALLOP_RATIO = 64`, `(100, 6399)` binary-searches and
///   `(100, 6400)` gallops.
/// * otherwise → [`SetOpAlgo::BinarySearch`].
///
/// Products saturate rather than wrap. An empty input (`|A| = 0`)
/// classifies as `Merge` when `|B| = 0` and `Gallop` otherwise — vacuous
/// either way, since nothing streams.
#[inline]
pub fn choose_algo(input_len: usize, operand_len: usize, t: SetOpTuning) -> SetOpAlgo {
    if let Some(f) = t.force {
        return f;
    }
    if operand_len <= input_len.saturating_mul(MERGE_RATIO) {
        SetOpAlgo::Merge
    } else if operand_len >= input_len.saturating_mul(GALLOP_RATIO) {
        SetOpAlgo::Gallop
    } else {
        SetOpAlgo::BinarySearch
    }
}

/// [`choose_algo`] extended with the bitmap-row paths. `stride_words` is
/// the bitmap row length in words; `has_input_bits` / `has_operand_bits`
/// say which side of the op has a row available. Exact rules (asserted by
/// `choose_algo_hub_crossovers_match_docs`):
///
/// * A forced bitmap algorithm degrades to what the rows support:
///   [`SetOpAlgo::BitmapMerge`] needs both rows, falling back to
///   [`SetOpAlgo::BitmapProbe`] with only an operand row and to the
///   classic ladder (force cleared) with neither; a forced `BitmapProbe`
///   needs an operand row. Forced classic algorithms pass through. A forced
///   algorithm never streams the operand.
/// * Both rows present and `stride_words ≤ |A| + |B|` → `BitmapMerge`:
///   word-ANDing the rows touches no more words than the lists have
///   elements.
/// * Operand row present and `|B| ≥ BITMAP_RATIO · |A|` (inclusive,
///   saturating) → `BitmapProbe`: the input streams against the operand's
///   row.
/// * Input row present, `kind` is `Intersect` and `|B| < |A|` →
///   `BitmapProbe` too, the other way round ([`streams_operand`]): an
///   intersection is symmetric, so the shorter operand streams and the
///   input only answers probes. A difference must visit every input
///   element and stays on the ladder.
/// * Otherwise → the classic [`choose_algo`] ladder.
pub fn choose_algo_hub(
    input_len: usize,
    operand_len: usize,
    stride_words: usize,
    has_input_bits: bool,
    has_operand_bits: bool,
    kind: OpKind,
    t: SetOpTuning,
) -> SetOpAlgo {
    if let Some(f) = t.force {
        return match f {
            SetOpAlgo::BitmapMerge if has_input_bits && has_operand_bits => f,
            SetOpAlgo::BitmapMerge | SetOpAlgo::BitmapProbe => {
                if has_operand_bits {
                    SetOpAlgo::BitmapProbe
                } else {
                    choose_algo(input_len, operand_len, SetOpTuning::default())
                }
            }
            _ => f,
        };
    }
    if has_input_bits && has_operand_bits && stride_words <= input_len + operand_len {
        SetOpAlgo::BitmapMerge
    } else if (has_operand_bits && operand_len >= input_len.saturating_mul(BITMAP_RATIO))
        || streams_operand(input_len, operand_len, has_input_bits, kind, t)
    {
        SetOpAlgo::BitmapProbe
    } else {
        choose_algo(input_len, operand_len, t)
    }
}

/// Which side a [`SetOpAlgo::BitmapProbe`] slot streams: true when it walks
/// the operand and probes the input's row — an unforced intersection whose
/// operand is the shorter list and whose input has a row. Otherwise the
/// probe walks the input against the operand's row.
#[inline]
fn streams_operand(
    input_len: usize,
    operand_len: usize,
    has_input_bits: bool,
    kind: OpKind,
    t: SetOpTuning,
) -> bool {
    t.force.is_none() && has_input_bits && kind == OpKind::Intersect && operand_len < input_len
}

/// First index `i ≥ lo` with `ops[i] ≥ value`, found by exponential
/// probing from `lo` followed by binary search inside the bracket.
/// Amortized `O(log gap)` across a monotone scan.
#[inline]
fn gallop_to(ops: &[VertexId], lo: usize, value: VertexId) -> usize {
    let n = ops.len();
    if lo >= n || ops[lo] >= value {
        return lo;
    }
    // Invariant: ops[base] < value; limit is exclusive upper bound.
    let mut step = 1usize;
    let mut base = lo;
    let mut limit = n;
    while base + step < n {
        if ops[base + step] < value {
            base += step;
            step <<= 1;
        } else {
            limit = base + step;
            break;
        }
    }
    base + 1 + ops[base + 1..limit].partition_point(|&x| x < value)
}

/// Copies `sources[u]` into slot `u` of `out` keeping only vertices admitted
/// by `mask`, for all slots in one combined lane stream (ballot-free when
/// `counted`): a block copy per slot, or a label filter where `mask`
/// restricts.
pub fn materialize_base_into<S: SetSink + ?Sized>(
    warp: &mut Warp,
    g: &Graph,
    sources: &[&[VertexId]],
    mask: LabelMask,
    counted: bool,
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
            counted,
        },
    );
}

/// Computes slot `u` of `out` as `inputs[u] (∩ | −) operands[u]` filtered
/// by `mask`, for all slots in one combined lane stream — compacting, or
/// ballot-free when its survivors are only `counted` (module docs). Inputs
/// and operands must be sorted ascending; outputs are sorted ascending.
///
/// The algorithm choice is per slot and purely host-side: the simulated
/// cost is charged from the input lengths alone (the simulated probe costs
/// one lane instruction whichever way the host resolves it), so simulator
/// metrics are bit-identical regardless of tuning.
///
/// `input_bits[u]` / `operand_bits[u]`, when `Some`, must denote exactly
/// the same vertex set as `inputs[u]` / `operands[u]` (the caller attaches
/// rows from the graph's [`HubBitmapIndex`](stmatch_graph::HubBitmapIndex)
/// only for lists that *are* hub neighborhoods, sealed arena rows, or its
/// own marker of the list the input equals). [`choose_algo_hub`] picks
/// per slot; each element-domain slot (everything but `BitmapMerge`) runs
/// its own membership loop and together they are charged as one combined
/// Fig. 8 stream over their input lengths, and `BitmapMerge` slots stream
/// their words as a separate combined word stream (scan + 32-word waves +
/// ballot), mirroring the element stream one level up. `counted` drops the
/// ballots of both streams.
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
    tuning: SetOpTuning,
    counted: bool,
    out: &mut S,
) {
    debug_assert_eq!(inputs.len(), operands.len());
    debug_assert_eq!(inputs.len(), input_bits.len());
    debug_assert_eq!(inputs.len(), operand_bits.len());
    debug_assert!(inputs.len() <= WARP_SIZE);
    let mut algo = [SetOpAlgo::BinarySearch; WARP_SIZE];
    let mut any_merge = false;
    // Survivor test, given the membership answer.
    let want = kind == OpKind::Intersect;
    let pass =
        |v: VertexId, found: bool| found == want && (mask.is_all() || mask.allows(g.label(v)));
    for (u, (&inp, &ops)) in inputs.iter().zip(operands).enumerate() {
        out.begin(u, inp.len());
        let stride = input_bits[u].map_or(usize::MAX, <[u64]>::len);
        algo[u] = choose_algo_hub(
            inp.len(),
            ops.len(),
            stride,
            input_bits[u].is_some(),
            operand_bits[u].is_some(),
            kind,
            tuning,
        );
        if algo[u] == SetOpAlgo::BitmapMerge {
            any_merge = true;
            continue;
        }
        if ops.is_empty() {
            // Empty operand: ∩ drops everything (the slot stays as `begin`
            // left it), − keeps everything.
            if !want {
                filter_slot(out, u, inp, |v| pass(v, false));
            }
            continue;
        }
        match algo[u] {
            SetOpAlgo::BinarySearch => {
                filter_slot(out, u, inp, |v| pass(v, ops.binary_search(&v).is_ok()))
            }
            SetOpAlgo::Merge => {
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
            SetOpAlgo::Gallop => {
                let mut c = 0usize;
                filter_slot(out, u, inp, |v| {
                    c = gallop_to(ops, c, v);
                    pass(v, c < ops.len() && ops[c] == v)
                })
            }
            SetOpAlgo::BitmapProbe
                if streams_operand(inp.len(), ops.len(), input_bits[u].is_some(), kind, tuning) =>
            {
                // A ∩ B = B ∩ A: the shorter operand streams, ascending,
                // against the input's row. Charged below as `|A|` lanes like
                // any other element-domain slot.
                let bits = input_bits[u].expect("streams_operand implies an input row");
                filter_slot(out, u, ops, |v| pass(v, word_probe(bits, v)))
            }
            SetOpAlgo::BitmapProbe => {
                let bits = operand_bits[u].expect("probe requires operand bits");
                warp.metrics_mut().bitmap_probe_words += inp.len() as u64;
                filter_slot(out, u, inp, |v| pass(v, word_probe(bits, v)))
            }
            SetOpAlgo::BitmapMerge => unreachable!("merge slots stream words, not elements"),
        }
    }
    // Element-domain slots only: exactly the wave structure the classic
    // path would give these slots alone.
    let (mut slots, mut lanes) = (0, 0);
    for (inp, _) in inputs
        .iter()
        .zip(&algo)
        .filter(|(_, &a)| a != SetOpAlgo::BitmapMerge)
    {
        slots += 1;
        lanes += inp.len();
    }
    warp.charge(
        Site::SetOp,
        Cost::Stream {
            slots,
            lanes,
            counted,
        },
    );
    if any_merge {
        merge_bitmap_slots(
            warp,
            g,
            input_bits,
            operand_bits,
            &algo,
            kind,
            mask,
            counted,
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

/// Streams the `BitmapMerge` slots of one combined op as a word stream:
/// a prefix scan over word counts (when more than one merge slot), waves
/// of 32 words with low-bit-contiguous active masks, one ballot per wave
/// unless the survivors are only `counted`, survivors extracted in
/// ascending order from each result word.
#[allow(clippy::too_many_arguments)]
fn merge_bitmap_slots<S: SetSink + ?Sized>(
    warp: &mut Warp,
    g: &Graph,
    input_bits: &[Option<&[u64]>],
    operand_bits: &[Option<&[u64]>],
    algo: &[SetOpAlgo; WARP_SIZE],
    kind: OpKind,
    mask: LabelMask,
    counted: bool,
    out: &mut S,
) {
    let merged = || (0..input_bits.len()).filter(|&u| algo[u] == SetOpAlgo::BitmapMerge);
    let (mut slots, mut lanes) = (0, 0);
    for u in merged() {
        let a = input_bits[u].expect("BitmapMerge requires input bits");
        let b = operand_bits[u].expect("BitmapMerge requires operand bits");
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
            counted,
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
/// is the ballot's, as in the element stream — so when the result is only
/// `counted`, the final op's waves issue no ballot (the popcount of its
/// words is the count). The steps before it keep theirs.
#[allow(clippy::too_many_arguments)]
pub fn apply_chain_bits_into<S: SetSink + ?Sized>(
    warp: &mut Warp,
    g: &Graph,
    slot: usize,
    base_bits: &[u64],
    ops: &[(OpKind, &[u64])],
    mask: LabelMask,
    counted: bool,
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
        let counted = counted && is_last;
        warp.charge(
            Site::SetOp,
            Cost::Stream {
                slots: 1,
                lanes: stride,
                counted,
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
    fn apply_op_tuned(
        warp: &mut Warp,
        g: &Graph,
        (inputs, operands): (&[&[VertexId]], &[&[VertexId]]),
        kind: OpKind,
        mask: LabelMask,
        tuning: SetOpTuning,
        outs: &mut [Vec<VertexId>],
    ) {
        let rows = &NO_ROWS[..inputs.len()];
        apply_op_into(
            warp, g, inputs, rows, operands, rows, kind, mask, tuning, false, outs,
        )
    }

    /// [`apply_op_tuned`] with the default tuning.
    fn apply_op(
        warp: &mut Warp,
        g: &Graph,
        inputs: &[&[VertexId]],
        operands: &[&[VertexId]],
        kind: OpKind,
        mask: LabelMask,
        outs: &mut [Vec<VertexId>],
    ) {
        let tuning = SetOpTuning::default();
        apply_op_tuned(warp, g, (inputs, operands), kind, mask, tuning, outs)
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
            materialize_base_into(w, &g, &[&src], LabelMask::single(1), false, &mut outs[..]);
            assert_eq!(outs[0], vec![1, 3, 5]);
        });
    }

    #[test]
    fn a_counted_operation_issues_no_ballot_and_moves_the_same_data() {
        // Three slots, 20 + 30 + 0 elements: scan + 2 waves either way; a
        // compacting operation closes each wave with a ballot, a counted one
        // does not. Same lanes, same output — word streams alike.
        let g = gen::complete(2);
        let ins: Vec<Vec<VertexId>> = vec![(0..40).step_by(2).collect(), (0..30).collect(), vec![]];
        let ops: Vec<VertexId> = (0..40).step_by(3).collect();
        let stride = 40usize.div_ceil(64);
        let rows: Vec<Vec<u64>> = ins.iter().map(|s| bits_of(s, stride)).collect();
        let op_row = bits_of(&ops, stride);
        for (algo, scan) in [(SetOpAlgo::BinarySearch, 5), (SetOpAlgo::BitmapMerge, 5)] {
            let run = |counted: bool| {
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
                        &[Some(&op_row[..]); 3],
                        OpKind::Intersect,
                        LabelMask::ALL,
                        SetOpTuning::forced(algo),
                        counted,
                        &mut outs[..],
                    );
                    *out.lock().unwrap() = outs;
                });
                (out.into_inner().unwrap(), m)
            };
            let ((compacted, c), (counted, n)) = (run(false), run(true));
            assert_eq!(counted, compacted, "{algo:?}: host output");
            let waves = if algo == SetOpAlgo::BitmapMerge { 1 } else { 2 };
            assert_eq!(n.simt_instructions, scan + waves, "{algo:?}");
            assert_eq!(c.simt_instructions, scan + 2 * waves, "{algo:?}");
            assert_eq!(n.set_op_instructions, n.simt_instructions);
            assert_eq!(
                (n.active_lane_slots, n.issued_lane_slots),
                (c.active_lane_slots, c.issued_lane_slots),
                "{algo:?}: lanes"
            );
            assert_eq!(
                (n.bitmap_merge_words, n.bitmap_merge_waves),
                (c.bitmap_merge_words, c.bitmap_merge_waves)
            );
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
    fn choose_algo_crossovers_match_docs() {
        // Table-driven mirror of the `choose_algo` rustdoc: every row is a
        // crossover the docs promise. Ratio edits that move a boundary must
        // update both places.
        use SetOpAlgo::*;
        let t = SetOpTuning::default(); // merge ≤ 4×, gallop ≥ 64×, both inclusive
        const TABLE: &[(usize, usize, SetOpAlgo)] = &[
            (100, 0, Merge),   // |B| = 0 ≤ 4·|A|
            (100, 100, Merge), // equal sizes merge
            (100, 399, Merge), // just under the merge bound
            (100, 400, Merge), // inclusive upper merge crossover
            (100, 401, BinarySearch),
            (100, 6399, BinarySearch), // just under the gallop bound
            (100, 6400, Gallop),       // inclusive lower gallop crossover
            (100, 6401, Gallop),
            (1, 4, Merge), // crossovers scale with |A|
            (1, 5, BinarySearch),
            (1, 64, Gallop),
            (0, 0, Merge), // empty input: vacuous classifications
            (0, 1, Gallop),
        ];
        for &(a, b, want) in TABLE {
            assert_eq!(choose_algo(a, b, t), want, "choose_algo({a}, {b})");
        }
        // Products saturate rather than wrap: a huge input still merges.
        assert_eq!(choose_algo(usize::MAX / 2, usize::MAX, t), Merge);
        // Forces pass through verbatim.
        assert_eq!(choose_algo(1, 1_000_000, SetOpTuning::forced(Merge)), Merge);
    }

    #[test]
    fn choose_algo_hub_crossovers_match_docs() {
        use OpKind::{Difference, Intersect};
        use SetOpAlgo::*;
        let t = SetOpTuning::default(); // BITMAP_RATIO = 1
        type Row = (usize, usize, usize, bool, bool, OpKind, SetOpAlgo);
        // (|A|, |B|, stride, in_bits, op_bits, kind, expected)
        const TABLE: &[Row] = &[
            // Both rows: merge iff stride ≤ |A| + |B| (inclusive).
            (60, 60, 120, true, true, Intersect, BitmapMerge),
            (60, 60, 121, true, true, Intersect, BitmapProbe), // stride too wide; probe still wins
            // Operand row only: probe iff |B| ≥ BITMAP_RATIO·|A| (inclusive).
            (50, 50, 10, false, true, Intersect, BitmapProbe),
            (50, 50, 10, false, true, Difference, BitmapProbe),
            (50, 49, 10, false, true, Intersect, Merge), // |B| < |A| falls to the classic ladder
            // No rows: the classic ladder verbatim.
            (100, 400, 10, false, false, Intersect, Merge),
            (100, 401, 10, false, false, Intersect, BinarySearch),
            (100, 6400, 10, false, false, Intersect, Gallop),
            // Input row only: an intersection with a shorter operand streams
            // the operand against it; a difference cannot, and neither can an
            // operand at least as long as the input.
            (50, 49, 2, true, false, Intersect, BitmapProbe),
            (50, 49, 2, true, false, Difference, Merge),
            (50, 50, 2, true, false, Intersect, Merge),
            (50, 1, 2, true, false, Intersect, BitmapProbe),
        ];
        for &(a, b, s, ib, ob, kind, want) in TABLE {
            assert_eq!(
                choose_algo_hub(a, b, s, ib, ob, kind, t),
                want,
                "choose_algo_hub({a}, {b}, {s}, {ib}, {ob}, {kind:?})"
            );
        }
        // Only the input-row probe streams the operand.
        assert!(streams_operand(50, 49, true, Intersect, t));
        assert!(!streams_operand(50, 49, false, Intersect, t));
        // Forced bitmap choices degrade to what the rows support.
        let hub = |a, b, s, ib, ob, t| choose_algo_hub(a, b, s, ib, ob, Intersect, t);
        let fm = SetOpTuning::forced(BitmapMerge);
        assert_eq!(hub(9, 9, 500, true, true, fm), BitmapMerge);
        assert_eq!(hub(9, 9, 500, false, true, fm), BitmapProbe);
        assert_eq!(hub(9, 9, 500, false, false, fm), Merge);
        let fp = SetOpTuning::forced(BitmapProbe);
        assert_eq!(hub(9, 9, 1, true, true, fp), BitmapProbe);
        assert_eq!(hub(9, 900, 1, true, false, fp), Gallop);
        // Forced classic algorithms ignore available rows, and no forced
        // algorithm streams the operand.
        let fg = SetOpTuning::forced(Gallop);
        assert_eq!(hub(9, 9, 1, true, true, fg), Gallop);
        assert_eq!(
            hub(50, 49, 2, true, false, SetOpTuning::forced(Merge)),
            Merge
        );
        assert_eq!(hub(50, 49, 2, true, false, fp), Merge);
        assert!(!streams_operand(50, 49, true, Intersect, fp));
    }

    #[test]
    fn forced_algos_agree_and_keep_metrics_identical() {
        let g = gen::complete(2);
        let a: Vec<VertexId> = (0..200).step_by(3).collect();
        let b: Vec<VertexId> = (0..200).step_by(2).collect();
        let mut results: Vec<(Vec<VertexId>, u64, u64)> = Vec::new();
        for algo in [SetOpAlgo::BinarySearch, SetOpAlgo::Merge, SetOpAlgo::Gallop] {
            for kind in [OpKind::Intersect, OpKind::Difference] {
                let (a, b, g) = (a.clone(), b.clone(), g.clone());
                let out = std::sync::Mutex::new(Vec::new());
                let m = with_warp(|w| {
                    let mut outs = vec![Vec::new()];
                    let tuning = SetOpTuning::forced(algo);
                    apply_op_tuned(
                        w,
                        &g,
                        (&[&a], &[&b]),
                        kind,
                        LabelMask::ALL,
                        tuning,
                        &mut outs,
                    );
                    *out.lock().unwrap() = outs.remove(0);
                });
                results.push((
                    out.into_inner().unwrap(),
                    m.simt_instructions,
                    m.issued_lane_slots,
                ));
            }
        }
        // All three algorithms: same outputs, same simulated cost.
        for pair in results.chunks(2).skip(1) {
            assert_eq!(pair[0], results[0], "intersect path diverged");
            assert_eq!(pair[1], results[1], "difference path diverged");
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

    #[test]
    fn gallop_to_finds_lower_bounds() {
        let ops: Vec<VertexId> = vec![1, 3, 5, 7, 9, 11, 13];
        assert_eq!(gallop_to(&ops, 0, 0), 0);
        assert_eq!(gallop_to(&ops, 0, 1), 0);
        assert_eq!(gallop_to(&ops, 0, 2), 1);
        assert_eq!(gallop_to(&ops, 0, 13), 6);
        assert_eq!(gallop_to(&ops, 0, 14), 7);
        assert_eq!(gallop_to(&ops, 3, 8), 4);
        assert_eq!(gallop_to(&ops, 7, 99), 7);
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
        // The probe is an element-stream algorithm: identical outputs AND
        // an identical (simt, issued, active) tuple vs. binary search —
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
                    let tuning = SetOpTuning::forced(if probe {
                        SetOpAlgo::BitmapProbe
                    } else {
                        SetOpAlgo::BinarySearch
                    });
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
                        tuning,
                        false,
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
                    SetOpTuning::forced(SetOpAlgo::BitmapMerge),
                    false,
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
                SetOpTuning::forced(SetOpAlgo::BitmapMerge),
                false,
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
        // Slot 0 has rows on both sides (auto → BitmapMerge), slot 1 has
        // none (classic); outputs must match per-slot classic results.
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
                SetOpTuning::default(),
                false,
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
                SetOpTuning::forced(SetOpAlgo::BitmapMerge),
                false,
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
                false,
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
