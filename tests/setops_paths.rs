//! Property tests for the adaptive set-operation kernels: every host-side
//! membership algorithm (binary search, linear merge, galloping search,
//! bitmap probe) plus the ratio-driven auto selection must produce exactly
//! the output of a scalar reference — for both op kinds, with and without a
//! label mask, into every kind of sink — and charge exactly the closed form
//! of the streamed sides' lengths, whatever moved the data: the contract
//! *data per slot, cost from lengths* (DESIGN.md §4c).
//!
//! The sinks are plain vectors, an arena whose slabs hold every input (the
//! in-place `lend`/`commit` path) and an arena whose slab capacity is below
//! the input lengths (the lend is declined: per-element `push`, and the
//! spill migration once survivors outgrow the slab).
//!
//! `BitmapMerge` and the auto hub routing ride the same harness but must
//! match outputs only (their wave structure differs by design — see
//! DESIGN.md §4f).
//!
//! The symmetric leg: with a row on the *input* side, an intersection whose
//! operand is the shorter list streams the operand against that row — same
//! output, and the closed form of the *operand's* length for that slot. A
//! forced algorithm never takes that route on the host; the harness proves
//! it by handing the forced legs input rows that are all zeroes (an op that
//! read them would keep nothing), and holds them to the same charge all the
//! same: which side streams is decided by lengths, rows and kind, never by
//! the tuning. On failure the testkit harness shrinks the case and prints a
//! seeded reproduce line.

use std::sync::Mutex;

use stmatch_core::arena::StackArena;
use stmatch_core::setops::{apply_op_into, choose_algo, choose_algo_hub, streams_operand};
use stmatch_core::setops::{SetOpAlgo, SetOpTuning, GALLOP_RATIO, MERGE_RATIO};
use stmatch_gpusim::{Close, Cost, Grid, GridConfig, Warp, WarpMetrics};
use stmatch_graph::builder::graph_from_edges;
use stmatch_graph::{Graph, Label, VertexId};
use stmatch_pattern::{LabelMask, OpKind, SlotTable};
use stmatch_testkit::prop::forall;
use stmatch_testkit::rng::Rng;

/// Generated values stay below this; [`STRIDE`] words cover it.
const UNIVERSE: usize = 2048;
const STRIDE: usize = UNIVERSE / 64;
const NUM_LABELS: Label = 3;

/// An edgeless graph over the whole universe with `v % NUM_LABELS` labels:
/// the set operations only ever ask it for labels.
fn labeled_universe() -> Graph {
    graph_from_edges(UNIVERSE, &[])
        .relabeled((0..UNIVERSE as Label).map(|v| v % NUM_LABELS).collect())
}

fn with_warp<F: Fn(&mut Warp) + Sync>(f: F) -> WarpMetrics {
    let grid = Grid::new(GridConfig {
        num_blocks: 1,
        warps_per_block: 1,
        shared_mem_per_block: 0,
    })
    .unwrap();
    grid.launch(|w| f(w)).warps[0]
}

/// Sorts and dedups a raw (possibly shrunk) vector into a valid set.
fn normalize(raw: &[VertexId]) -> Vec<VertexId> {
    let mut v = raw.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// Scalar reference: per-slot intersection/difference by `contains`, then
/// the label filter.
fn reference(
    g: &Graph,
    input: &[VertexId],
    ops: &[VertexId],
    kind: OpKind,
    mask: LabelMask,
) -> Vec<VertexId> {
    input
        .iter()
        .copied()
        .filter(|v| match kind {
            OpKind::Intersect => ops.contains(v),
            OpKind::Difference => !ops.contains(v),
        })
        .filter(|&v| mask.allows(g.label(v)))
        .collect()
}

/// Where a run's survivors land.
#[derive(Clone, Copy, Debug)]
enum Sink {
    /// Plain `[Vec<VertexId>]` buffers.
    Vecs,
    /// A [`StackArena`] with this slab capacity per slot.
    Arena { cap: usize },
}

/// Which bitmap rows a run attaches (all slots alike).
#[derive(Clone, Copy, Debug, Default)]
struct Rows {
    input: bool,
    operand: bool,
    /// The input rows are attached but hold no bits: whoever reads one
    /// keeps nothing. Only for legs that must not read them.
    poisoned_input: bool,
}

type Slots = [(Vec<VertexId>, Vec<VertexId>)];

/// Runs one combined op over `slots`, every slot with the same `rows`, and
/// returns the outputs and the warp metrics.
fn run(
    g: &Graph,
    slots: &Slots,
    kind: OpKind,
    mask: LabelMask,
    tuning: SetOpTuning,
    rows: Rows,
    sink: Sink,
) -> (Vec<Vec<VertexId>>, WarpMetrics) {
    let rows = vec![rows; slots.len()];
    run_rows(g, slots, kind, mask, tuning, &rows, sink)
}

/// [`run`] with each slot's own rows.
fn run_rows(
    g: &Graph,
    slots: &Slots,
    kind: OpKind,
    mask: LabelMask,
    tuning: SetOpTuning,
    rows: &[Rows],
    sink: Sink,
) -> (Vec<Vec<VertexId>>, WarpMetrics) {
    let a_bits: Vec<Vec<u64>> = slots
        .iter()
        .zip(rows)
        .map(|((a, _), r)| bits_of(if r.poisoned_input { &[] } else { a }))
        .collect();
    let b_bits: Vec<Vec<u64>> = slots.iter().map(|(_, b)| bits_of(b)).collect();
    let out = Mutex::new(Vec::new());
    let m = with_warp(|w| {
        let inputs: Vec<&[VertexId]> = slots.iter().map(|(a, _)| a.as_slice()).collect();
        let operands: Vec<&[VertexId]> = slots.iter().map(|(_, b)| b.as_slice()).collect();
        let input_bits: Vec<Option<&[u64]>> = a_bits
            .iter()
            .zip(rows)
            .map(|(b, r)| r.input.then_some(b.as_slice()))
            .collect();
        let operand_bits: Vec<Option<&[u64]>> = b_bits
            .iter()
            .zip(rows)
            .map(|(b, r)| r.operand.then_some(b.as_slice()))
            .collect();
        macro_rules! apply {
            ($sink:expr) => {
                apply_op_into(
                    w,
                    g,
                    &inputs,
                    &input_bits,
                    &operands,
                    &operand_bits,
                    kind,
                    mask,
                    tuning,
                    Close::Compacted,
                    $sink,
                )
            };
        }
        *out.lock().unwrap() = match sink {
            Sink::Vecs => {
                let mut outs: Vec<Vec<VertexId>> = vec![Vec::new(); slots.len()];
                apply!(&mut outs[..]);
                outs
            }
            Sink::Arena { cap } => {
                let mut arena = StackArena::new(&SlotTable::with_slots(&[slots.len()]), cap);
                {
                    // ArenaWriter's Drop folds peak stats back into the
                    // arena, so the writer must end before the slots are
                    // read out.
                    let (_, mut writer) = arena.split_for_write(0, slots.len());
                    apply!(&mut writer);
                }
                (0..slots.len())
                    .map(|u| arena.slot(0, u).to_vec())
                    .collect()
            }
        };
    });
    (out.into_inner().unwrap(), m)
}

/// Packs a sorted set into a hub-bitmap row.
fn bits_of(vals: &[VertexId]) -> Vec<u64> {
    let mut words = vec![0u64; STRIDE];
    for &v in vals {
        words[(v >> 6) as usize] |= 1u64 << (v & 63);
    }
    words
}

/// The lanes one slot streams: the operand's `|B|` for an intersection
/// whose input has a row and whose operand is shorter, the input's `|A|`
/// otherwise.
fn streamed(a: &[VertexId], b: &[VertexId], input_row: bool, kind: OpKind) -> u64 {
    let short = kind == OpKind::Intersect && input_row && b.len() < a.len();
    (if short { b.len() } else { a.len() }) as u64
}

/// `(simt_instructions, issued_lane_slots, active_lane_slots)` of one
/// combined element stream over these slots (Fig. 8), each streaming the
/// side [`streamed`] names: a five-step size scan when more than one slot
/// streams, then `⌈total / 32⌉` waves, each closed by a ballot.
fn closed_form(slots: &Slots, input_row: bool, kind: OpKind) -> (u64, u64, u64) {
    let total: u64 = slots
        .iter()
        .map(|(a, b)| streamed(a, b, input_row, kind))
        .sum();
    if total == 0 {
        return (0, 0, 0);
    }
    let scan = if slots.len() > 1 { 5 } else { 0 };
    let waves = total.div_ceil(32);
    (scan + 2 * waves, 32 * (scan + waves), 32 * scan + total)
}

fn tuning(force: Option<SetOpAlgo>) -> SetOpTuning {
    SetOpTuning { force }
}

const TUNINGS: [(&str, Option<SetOpAlgo>); 4] = [
    ("auto", None),
    ("bsearch", Some(SetOpAlgo::BinarySearch)),
    ("merge", Some(SetOpAlgo::Merge)),
    ("gallop", Some(SetOpAlgo::Gallop)),
];

/// Slab capacity that holds every generated input (the lend is granted) and
/// one below most of them (declined; survivors beyond it spill).
const SINKS: [Sink; 3] = [Sink::Vecs, Sink::Arena { cap: 64 }, Sink::Arena { cap: 2 }];

/// Every element-domain algorithm agrees with the scalar reference and
/// charges the closed form of the streamed sides' lengths — on random
/// multi-slot workloads spanning the size ratios that trigger each algorithm
/// (empty, ≈1×, ≈8×, ≈200×, shorter), for both kinds, masked or not, into
/// every sink. Every leg that attaches the same input rows charges the same.
#[test]
fn all_paths_match_scalar_reference() {
    let g = labeled_universe();
    forall(
        "setops_paths_agree",
        |rng| {
            let nslots = rng.gen_range(1u64..4) as usize;
            (0..nslots)
                .map(|_| {
                    let a_len = rng.gen_range(0u64..40) as usize;
                    // Ratio class drives which algorithm `auto` picks; the
                    // short class puts the operand on the short side.
                    let b_len = match rng.gen_range(0u64..5) {
                        0 => 0,
                        1 => a_len.max(1),
                        2 => a_len.max(1) * 8,
                        3 => a_len.max(1) * 200,
                        _ => a_len / 4 + 1,
                    };
                    let mut draw = |n: usize| -> Vec<VertexId> {
                        (0..n)
                            .map(|_| rng.gen_range(0u64..2000) as VertexId)
                            .collect()
                    };
                    (draw(a_len), draw(b_len))
                })
                .collect::<Vec<_>>()
        },
        |raw| {
            let slots: Vec<(Vec<VertexId>, Vec<VertexId>)> = raw
                .iter()
                .map(|(a, b)| (normalize(a), normalize(b)))
                .collect();
            for kind in [OpKind::Intersect, OpKind::Difference] {
                for mask in [LabelMask::ALL, LabelMask::single(1)] {
                    let want: Vec<Vec<VertexId>> = slots
                        .iter()
                        .map(|(a, b)| reference(&g, a, b, kind, mask))
                        .collect();
                    // (name, forced algorithm, rows, element-domain?) — the
                    // probe is an element-domain algorithm, so it owes the
                    // closed form too; merge deliberately restructures
                    // waves (word wavefronts), and auto routing with rows on
                    // both sides picks merge or probe per slot: outputs only.
                    let operand_rows = Rows {
                        operand: true,
                        ..Rows::default()
                    };
                    let both_rows = Rows {
                        input: true,
                        operand: true,
                        ..Rows::default()
                    };
                    let input_rows = Rows {
                        input: true,
                        ..Rows::default()
                    };
                    let poisoned = Rows {
                        poisoned_input: true,
                        ..input_rows
                    };
                    let classic = TUNINGS.map(|(n, f)| (n, f, Rows::default(), true));
                    // An input row: auto streams whichever side is shorter
                    // (∩ only) and owes the closed form of that side; forced
                    // algorithms ignore the row on the host and owe the same.
                    let symmetric = [
                        ("input-row-auto", None, input_rows, true),
                        (
                            "input-row-bsearch",
                            Some(SetOpAlgo::BinarySearch),
                            poisoned,
                            true,
                        ),
                        ("input-row-merge", Some(SetOpAlgo::Merge), poisoned, true),
                        ("input-row-gallop", Some(SetOpAlgo::Gallop), poisoned, true),
                        (
                            "input-row-probe",
                            Some(SetOpAlgo::BitmapProbe),
                            Rows {
                                operand: true,
                                ..poisoned
                            },
                            true,
                        ),
                    ];
                    let hub = [
                        (
                            "bitmap-probe",
                            Some(SetOpAlgo::BitmapProbe),
                            operand_rows,
                            true,
                        ),
                        (
                            "bitmap-merge",
                            Some(SetOpAlgo::BitmapMerge),
                            both_rows,
                            false,
                        ),
                        ("bitmap-auto", None, both_rows, false),
                    ];
                    let legs = classic.into_iter().chain(symmetric).chain(hub);
                    for (name, force, rows, element_domain) in legs {
                        for sink in SINKS {
                            let (outs, m) = run(&g, &slots, kind, mask, tuning(force), rows, sink);
                            let leg = format!("{name} {kind:?} {mask:?} {sink:?}");
                            if outs != want {
                                return Err(format!("{leg}: got {outs:?}, want {want:?}"));
                            }
                            let charged = (
                                m.simt_instructions,
                                m.issued_lane_slots,
                                m.active_lane_slots,
                            );
                            let cost = closed_form(&slots, rows.input, kind);
                            if element_domain && charged != cost {
                                return Err(format!(
                                    "{leg}: charged {charged:?}, closed form {cost:?}"
                                ));
                            }
                        }
                    }
                }
            }
            Ok(())
        },
    );
}

/// Each classic algorithm, forced or reached by an operand at its size-ratio
/// crossover, is the one routed, and the routed result still matches.
#[test]
fn threshold_extremes_route_every_algorithm() {
    let g = labeled_universe();
    let a: Vec<VertexId> = (0..60).step_by(3).collect();
    let operand = |len: usize| -> Vec<VertexId> { (0..len as VertexId).collect() };
    for (b_len, expect) in [
        (MERGE_RATIO * a.len(), SetOpAlgo::Merge),
        (MERGE_RATIO * a.len() + 1, SetOpAlgo::BinarySearch),
        (GALLOP_RATIO * a.len(), SetOpAlgo::Gallop),
    ] {
        let b = operand(b_len);
        let forced = tuning(Some(expect));
        assert_eq!(
            choose_algo(a.len(), b.len(), SetOpTuning::default()),
            expect
        );
        assert_eq!(choose_algo(a.len(), 0, forced), expect);
        for kind in [OpKind::Intersect, OpKind::Difference] {
            let slots = [(a.clone(), b.clone())];
            let all = LabelMask::ALL;
            let (outs, _) = run(&g, &slots, kind, all, forced, Rows::default(), Sink::Vecs);
            assert_eq!(
                outs[0],
                reference(&g, &a, &b, kind, all),
                "{expect:?} {kind:?}"
            );
        }
    }
}

/// Empty operands short-circuit identically on every path, including when
/// mixed with non-empty slots in the same combined stream.
#[test]
fn empty_operand_mixed_slots_agree() {
    let g = labeled_universe();
    let slots: Vec<(Vec<VertexId>, Vec<VertexId>)> = vec![
        (vec![1, 4, 9], vec![]),
        (vec![], vec![2, 3]),
        (vec![5, 6, 7], vec![6]),
    ];
    for kind in [OpKind::Intersect, OpKind::Difference] {
        for (name, force) in TUNINGS {
            let all = LabelMask::ALL;
            let (outs, _) = run(
                &g,
                &slots,
                kind,
                all,
                tuning(force),
                Rows::default(),
                Sink::Vecs,
            );
            for (u, (a, b)) in slots.iter().enumerate() {
                assert_eq!(
                    outs[u],
                    reference(&g, a, b, kind, all),
                    "{name} {kind:?} slot {u}"
                );
            }
        }
    }
}

/// The symmetric route is taken exactly where the docs say: an unforced
/// intersection whose operand is shorter than an input that has a row. A
/// row that holds no bits makes the route observable (whoever reads it keeps
/// nothing), and `bitmap_probe_words` keeps counting operand-row probes
/// only. The charge follows the side `streams_operand` names, not the route
/// the host took: the shorter operand's lanes wherever the input has a row,
/// forced algorithms included.
#[test]
fn a_shorter_operand_streams_against_the_input_row() {
    let g = labeled_universe();
    let a: Vec<VertexId> = (0..60).collect();
    let short: Vec<VertexId> = vec![3, 10, 59, 70];
    let long: Vec<VertexId> = (0..120).step_by(2).collect();
    let all = LabelMask::ALL;
    let exact = Rows {
        input: true,
        ..Rows::default()
    };
    let poisoned = Rows {
        poisoned_input: true,
        ..exact
    };
    let auto = SetOpTuning::default();
    use OpKind::{Difference, Intersect};

    let charged = |m: &WarpMetrics| {
        (
            m.simt_instructions,
            m.issued_lane_slots,
            m.active_lane_slots,
        )
    };
    // Taken: same output, the closed form of |B| = 4 lanes, no probe words.
    let slots = [(a.clone(), short.clone())];
    assert_eq!(closed_form(&slots, true, Intersect), (2, 32, 4));
    for sink in SINKS {
        let (outs, m) = run(&g, &slots, Intersect, all, auto, exact, sink);
        assert_eq!(outs[0], [3, 10, 59], "{sink:?}");
        assert_eq!(
            charged(&m),
            closed_form(&slots, true, Intersect),
            "{sink:?}"
        );
        assert_eq!((m.element_lanes, m.operand_lanes), (4, 4), "{sink:?}");
        assert_eq!(m.bitmap_probe_words, 0);
    }
    let (outs, _) = run(&g, &slots, Intersect, all, auto, poisoned, Sink::Vecs);
    assert!(outs[0].is_empty(), "the input row was not what answered");

    // Not taken: a difference, an operand at least as long as the input, and
    // every forced algorithm leave the input row unread — each charged what
    // `streams_operand` names, so a forced ∩ with the shorter operand still
    // pays its 4 lanes.
    let unread = [
        (Difference, short.clone(), auto),
        (Intersect, long.clone(), auto),
        (Intersect, a.clone(), auto),
        (Intersect, short.clone(), tuning(Some(SetOpAlgo::Merge))),
        (
            Intersect,
            short.clone(),
            tuning(Some(SetOpAlgo::BinarySearch)),
        ),
        (Intersect, short.clone(), tuning(Some(SetOpAlgo::Gallop))),
        (
            Intersect,
            short.clone(),
            tuning(Some(SetOpAlgo::BitmapProbe)),
        ),
        (
            Intersect,
            short.clone(),
            tuning(Some(SetOpAlgo::BitmapMerge)),
        ),
    ];
    for (kind, b, t) in unread {
        let slots = [(a.clone(), b.clone())];
        let (outs, m) = run(&g, &slots, kind, all, t, poisoned, Sink::Vecs);
        assert_eq!(outs[0], reference(&g, &a, &b, kind, all), "{kind:?} {t:?}");
        let merged = t.force == Some(SetOpAlgo::BitmapMerge);
        if !merged {
            assert_eq!(
                charged(&m),
                closed_form(&slots, true, kind),
                "{kind:?} {t:?}"
            );
        }
    }
}

/// Every forced algorithm, and auto, on random slots each with or without
/// an input and an operand row: the same outputs, and the charge the cost
/// table gives the slots' streamed sides — `Σ_u (streams_u ? |B_u| :
/// |A_u|)` lanes in one element stream, plus one word stream over the slots
/// that merge rows (`choose_algo_hub`). The element lanes and their operand
/// share are what `WarpMetrics` reports.
#[test]
fn every_algorithm_charges_the_streamed_side() {
    let g = labeled_universe();
    forall(
        "setops_streamed_side",
        |rng| {
            let nslots = rng.gen_range(1u64..6) as usize;
            (0..nslots)
                .map(|_| {
                    let a_len = rng.gen_range(0u64..48) as usize;
                    let b_len = match rng.gen_range(0u64..3) {
                        0 => a_len / 3,
                        1 => a_len + 1,
                        _ => rng.gen_range(0u64..96) as usize,
                    };
                    let rows = rng.gen_range(0u64..4);
                    let mut draw = |n: usize| -> Vec<VertexId> {
                        (0..n)
                            .map(|_| rng.gen_range(0u64..2000) as VertexId)
                            .collect()
                    };
                    (draw(a_len), draw(b_len), rows & 1 == 1, rows & 2 == 2)
                })
                .collect::<Vec<_>>()
        },
        |raw| {
            let slots: Vec<(Vec<VertexId>, Vec<VertexId>)> = raw
                .iter()
                .map(|(a, b, _, _)| (normalize(a), normalize(b)))
                .collect();
            let rows: Vec<Rows> = raw
                .iter()
                .map(|&(_, _, input, operand)| Rows {
                    input,
                    operand,
                    ..Rows::default()
                })
                .collect();
            let forces = [
                None,
                Some(SetOpAlgo::BinarySearch),
                Some(SetOpAlgo::Merge),
                Some(SetOpAlgo::Gallop),
                Some(SetOpAlgo::BitmapProbe),
                Some(SetOpAlgo::BitmapMerge),
            ];
            for kind in [OpKind::Intersect, OpKind::Difference] {
                let all = LabelMask::ALL;
                let want: Vec<Vec<VertexId>> = slots
                    .iter()
                    .map(|(a, b)| reference(&g, a, b, kind, all))
                    .collect();
                for force in forces {
                    let t = tuning(force);
                    let (mut elements, mut lanes, mut operand_lanes) = (0, 0, 0);
                    let mut merged = 0;
                    for ((a, b), r) in slots.iter().zip(&rows) {
                        let algo =
                            choose_algo_hub(a.len(), b.len(), STRIDE, r.input, r.operand, kind, t);
                        if algo == SetOpAlgo::BitmapMerge {
                            merged += 1;
                            continue;
                        }
                        elements += 1;
                        lanes += streamed(a, b, r.input, kind);
                        if streams_operand(a.len(), b.len(), r.input, kind) {
                            operand_lanes += b.len() as u64;
                        }
                    }
                    let stream = |slots: usize, lanes: u64| {
                        Cost::Stream {
                            slots,
                            lanes: lanes as usize,
                            close: Close::Compacted,
                        }
                        .price()
                    };
                    let (e, w) = (
                        stream(elements, lanes),
                        stream(merged, (merged * STRIDE) as u64),
                    );
                    let cost = (e.0 + w.0, e.1 + w.1, e.2 + w.2);
                    let (outs, m) = run_rows(&g, &slots, kind, all, t, &rows, Sink::Vecs);
                    let leg = format!("{force:?} {kind:?} rows {rows:?}");
                    if outs != want {
                        return Err(format!("{leg}: got {outs:?}, want {want:?}"));
                    }
                    let charged = (
                        m.simt_instructions,
                        m.issued_lane_slots,
                        m.active_lane_slots,
                    );
                    if charged != cost
                        || (m.element_lanes, m.operand_lanes) != (lanes, operand_lanes)
                    {
                        return Err(format!(
                            "{leg}: charged {charged:?} over {} / {} lanes, want {cost:?} over \
                             {lanes} / {operand_lanes}",
                            m.element_lanes, m.operand_lanes
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}
