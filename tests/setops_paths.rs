//! Property tests for the adaptive set-operation kernels: every host route a
//! slot's shape picks — linear merge, binary search, a probe of the
//! operand's or of the input's bitmap row, a word merge of both rows — must
//! produce exactly the output of a scalar reference — for both op kinds,
//! with and without a label mask, into every kind of sink — and the element
//! routes must charge exactly the closed form of the streamed sides'
//! lengths, whatever moved the data: the contract *data per slot, cost from
//! lengths* (DESIGN.md §4c).
//!
//! The sinks are plain vectors, an arena whose slabs hold every input (the
//! in-place `lend`/`commit` path) and an arena whose slab capacity is below
//! the input lengths (the lend is declined: per-element `push`, and the
//! spill migration once survivors outgrow the slab).
//!
//! Slots with rows on both sides ride the same harness but must match
//! outputs only where the closed form of elements is asked for: the word
//! merge restructures waves by design (DESIGN.md §4f).
//!
//! The symmetric leg: with a row on the *input* side, an intersection whose
//! operand is the shorter list streams the operand against that row — same
//! output, and the closed form of the *operand's* length for that slot. A
//! difference, or an operand at least as long as the input, never reads that
//! row; the harness proves it by handing such slots input rows that are all
//! zeroes (an op that read them would keep nothing). On failure the testkit
//! harness shrinks the case and prints a seeded reproduce line.

use std::sync::Mutex;

use stmatch_core::arena::StackArena;
use stmatch_core::setops::{apply_op_into, streams_operand};
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

/// Which bitmap rows a slot attaches.
#[derive(Clone, Copy, Debug)]
struct Rows {
    input: bool,
    operand: bool,
    /// The input row is attached but holds no bits: whoever reads it keeps
    /// nothing. Only for slots that must not read it.
    poisoned_input: bool,
}

const NO_ROWS: Rows = Rows {
    input: false,
    operand: false,
    poisoned_input: false,
};
const INPUT_ROW: Rows = Rows {
    input: true,
    ..NO_ROWS
};
const OPERAND_ROW: Rows = Rows {
    operand: true,
    ..NO_ROWS
};
const BOTH_ROWS: Rows = Rows {
    input: true,
    operand: true,
    ..NO_ROWS
};

/// Every row shape a slot can have, named.
const SHAPES: [(&str, Rows); 4] = [
    ("no-rows", NO_ROWS),
    ("input-row", INPUT_ROW),
    ("operand-row", OPERAND_ROW),
    ("both-rows", BOTH_ROWS),
];

/// Whether a slot of this shape merges its rows word by word (the only
/// route off the element stream).
fn word_merges(a: &[VertexId], b: &[VertexId], r: Rows) -> bool {
    r.input && r.operand && STRIDE <= a.len() + b.len()
}

type Slots = [(Vec<VertexId>, Vec<VertexId>)];

/// Runs one combined op over `slots`, every slot with the same `rows`, and
/// returns the outputs and the warp metrics.
fn run(
    g: &Graph,
    slots: &Slots,
    kind: OpKind,
    mask: LabelMask,
    rows: Rows,
    sink: Sink,
) -> (Vec<Vec<VertexId>>, WarpMetrics) {
    run_rows(g, slots, kind, mask, &vec![rows; slots.len()], sink)
}

/// [`run`] with each slot's own rows.
fn run_rows(
    g: &Graph,
    slots: &Slots,
    kind: OpKind,
    mask: LabelMask,
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

fn charged(m: &WarpMetrics) -> (u64, u64, u64) {
    (
        m.simt_instructions,
        m.issued_lane_slots,
        m.active_lane_slots,
    )
}

/// Slab capacity that holds every generated input (the lend is granted) and
/// one below most of them (declined; survivors beyond it spill).
const SINKS: [Sink; 3] = [Sink::Vecs, Sink::Arena { cap: 64 }, Sink::Arena { cap: 2 }];

/// Every row shape agrees with the scalar reference, and the shapes that
/// keep every slot in the element stream charge the closed form of the
/// streamed sides' lengths — on random multi-slot workloads spanning the size
/// ratios that pick each route (empty, ≈1×, ≈8×, ≈200×, shorter), for both
/// kinds, masked or not, into every sink. The poisoned leg hands every slot
/// that must not read its input row a row with no bits.
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
                    // The ratio class drives which route a shape picks; the
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
                // Input rows: exact where the operand streams against them,
                // poisoned everywhere else.
                let poisoned: Vec<Rows> = slots
                    .iter()
                    .map(|(a, b)| Rows {
                        poisoned_input: !streams_operand(a.len(), b.len(), true, kind),
                        ..INPUT_ROW
                    })
                    .collect();
                let legs = SHAPES
                    .map(|(name, r)| (name, vec![r; slots.len()], !r.operand || !r.input))
                    .into_iter()
                    .chain([("poisoned-input-row", poisoned, true)]);
                for (name, rows, element_domain) in legs {
                    for mask in [LabelMask::ALL, LabelMask::single(1)] {
                        let want: Vec<Vec<VertexId>> = slots
                            .iter()
                            .map(|(a, b)| reference(&g, a, b, kind, mask))
                            .collect();
                        for sink in SINKS {
                            let (outs, m) = run_rows(&g, &slots, kind, mask, &rows, sink);
                            let leg = format!("{name} {kind:?} {mask:?} {sink:?}");
                            if outs != want {
                                return Err(format!("{leg}: got {outs:?}, want {want:?}"));
                            }
                            let cost = closed_form(&slots, rows[0].input, kind);
                            if element_domain && charged(&m) != cost {
                                return Err(format!(
                                    "{leg}: charged {:?}, closed form {cost:?}",
                                    charged(&m)
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

/// What only one route moves: the operand-row probe's `bitmap_probe_words`,
/// the input-row probe's `operand_lanes`, the word merge's
/// `bitmap_merge_words`; merge and binary search move none of them.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Moves {
    OperandRowProbe,
    InputRowProbe,
    WordMerge,
    Nothing,
}

/// Each of the five routes, reached from its shape alone, moves what only it
/// moves, and matches the scalar reference — including either side of the
/// `4·|A|` merge crossover and a `64·|A|` operand (binary search, however
/// long the operand). Every route but the word merge charges the closed
/// form of its streamed side.
#[test]
fn every_route_is_reached_by_its_shape() {
    use Moves::*;
    use OpKind::{Difference, Intersect};
    let g = labeled_universe();
    // (route, kind, |A|, |B|, rows, what it moves); STRIDE is 32 words.
    let table = [
        ("word merge", Intersect, 20, 20, BOTH_ROWS, WordMerge),
        (
            "word merge at stride = |A|+|B|",
            Difference,
            20,
            12,
            BOTH_ROWS,
            WordMerge,
        ),
        (
            "rows too wide to merge",
            Intersect,
            10,
            12,
            BOTH_ROWS,
            OperandRowProbe,
        ),
        (
            "operand-row probe",
            Difference,
            20,
            20,
            OPERAND_ROW,
            OperandRowProbe,
        ),
        (
            "operand row, |B| < |A|",
            Intersect,
            20,
            19,
            OPERAND_ROW,
            Nothing,
        ),
        (
            "input-row probe",
            Intersect,
            20,
            19,
            INPUT_ROW,
            InputRowProbe,
        ),
        ("input row, −", Difference, 20, 19, INPUT_ROW, Nothing),
        (
            "input row, |B| = |A|",
            Intersect,
            20,
            20,
            INPUT_ROW,
            Nothing,
        ),
        ("merge at 4·|A|", Intersect, 20, 80, NO_ROWS, Nothing),
        (
            "binary search at 4·|A|+1",
            Intersect,
            20,
            81,
            NO_ROWS,
            Nothing,
        ),
        (
            "binary search at 64·|A|",
            Difference,
            20,
            1280,
            NO_ROWS,
            Nothing,
        ),
    ];
    for (name, kind, a_len, b_len, rows, moves) in table {
        let a: Vec<VertexId> = (0..3 * a_len).step_by(3).collect();
        let b: Vec<VertexId> = (0..b_len).collect();
        let slots = [(a.clone(), b.clone())];
        for sink in SINKS {
            let all = LabelMask::ALL;
            let (outs, m) = run(&g, &slots, kind, all, rows, sink);
            let leg = format!("{name} {kind:?} {sink:?}");
            assert_eq!(outs[0], reference(&g, &a, &b, kind, all), "{leg}");
            let probed = if moves == OperandRowProbe { a.len() } else { 0 };
            assert_eq!(m.bitmap_probe_words, probed as u64, "{leg}");
            let operand = if moves == InputRowProbe { b.len() } else { 0 };
            assert_eq!(m.operand_lanes, operand as u64, "{leg}");
            assert_eq!(m.bitmap_merge_words > 0, moves == WordMerge, "{leg}");
            if moves != WordMerge {
                assert_eq!(charged(&m), closed_form(&slots, rows.input, kind), "{leg}");
            }
        }
    }
}

/// Empty operands short-circuit identically on every shape, including when
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
        for (name, rows) in SHAPES {
            let all = LabelMask::ALL;
            let (outs, _) = run(&g, &slots, kind, all, rows, Sink::Vecs);
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

/// The symmetric route is taken exactly where the docs say: an intersection
/// whose operand is shorter than an input that has a row. A row that holds
/// no bits makes the route observable (whoever reads it keeps nothing), and
/// `bitmap_probe_words` keeps counting operand-row probes only. The charge
/// follows the side `streams_operand` names.
#[test]
fn a_shorter_operand_streams_against_the_input_row() {
    let g = labeled_universe();
    let a: Vec<VertexId> = (0..60).collect();
    let short: Vec<VertexId> = vec![3, 10, 59, 70];
    let long: Vec<VertexId> = (0..120).step_by(2).collect();
    let all = LabelMask::ALL;
    let poisoned = Rows {
        poisoned_input: true,
        ..INPUT_ROW
    };
    use OpKind::{Difference, Intersect};

    // Taken: same output, the closed form of |B| = 4 lanes, no probe words.
    let slots = [(a.clone(), short.clone())];
    assert_eq!(closed_form(&slots, true, Intersect), (2, 32, 4));
    for sink in SINKS {
        let (outs, m) = run(&g, &slots, Intersect, all, INPUT_ROW, sink);
        assert_eq!(outs[0], [3, 10, 59], "{sink:?}");
        assert_eq!(
            charged(&m),
            closed_form(&slots, true, Intersect),
            "{sink:?}"
        );
        assert_eq!((m.element_lanes, m.operand_lanes), (4, 4), "{sink:?}");
        assert_eq!(m.bitmap_probe_words, 0);
    }
    let (outs, _) = run(&g, &slots, Intersect, all, poisoned, Sink::Vecs);
    assert!(outs[0].is_empty(), "the input row was not what answered");

    // Not taken: a difference and an operand at least as long as the input
    // leave the input row unread, each charged the input's lanes.
    for (kind, b) in [(Difference, &short), (Intersect, &long), (Intersect, &a)] {
        let slots = [(a.clone(), b.clone())];
        let (outs, m) = run(&g, &slots, kind, all, poisoned, Sink::Vecs);
        assert_eq!(outs[0], reference(&g, &a, b, kind, all), "{kind:?} {b:?}");
        assert_eq!(charged(&m), closed_form(&slots, true, kind), "{kind:?}");
        assert_eq!(m.operand_lanes, 0, "{kind:?}");
    }
}

/// Every row shape, for all slots alike and mixed per slot at random: the
/// same outputs, and the charge the cost table gives the slots' streamed
/// sides — `Σ_u (streams_u ? |B_u| : |A_u|)` lanes in one element stream,
/// plus one word stream over the slots that merge rows. The element lanes
/// and their operand share are what `WarpMetrics` reports.
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
            let mixed: Vec<Rows> = raw
                .iter()
                .map(|&(_, _, input, operand)| Rows {
                    input,
                    operand,
                    ..NO_ROWS
                })
                .collect();
            let legs = SHAPES
                .map(|(name, r)| (name, vec![r; slots.len()]))
                .into_iter()
                .chain([("mixed", mixed)]);
            for (name, rows) in legs {
                for kind in [OpKind::Intersect, OpKind::Difference] {
                    let all = LabelMask::ALL;
                    let want: Vec<Vec<VertexId>> = slots
                        .iter()
                        .map(|(a, b)| reference(&g, a, b, kind, all))
                        .collect();
                    let (mut elements, mut lanes, mut operand_lanes) = (0, 0, 0);
                    let mut merged = 0;
                    for ((a, b), &r) in slots.iter().zip(&rows) {
                        if word_merges(a, b, r) {
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
                    let (outs, m) = run_rows(&g, &slots, kind, all, &rows, Sink::Vecs);
                    let leg = format!("{name} {kind:?} rows {rows:?}");
                    if outs != want {
                        return Err(format!("{leg}: got {outs:?}, want {want:?}"));
                    }
                    if charged(&m) != cost
                        || (m.element_lanes, m.operand_lanes) != (lanes, operand_lanes)
                    {
                        return Err(format!(
                            "{leg}: charged {:?} over {} / {} lanes, want {cost:?} over \
                             {lanes} / {operand_lanes}",
                            charged(&m),
                            m.element_lanes,
                            m.operand_lanes
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}
