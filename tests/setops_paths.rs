//! Property tests for the adaptive set-operation kernels: every host-side
//! membership algorithm (binary search, linear merge, galloping search,
//! bitmap probe) plus the ratio-driven auto selection must produce exactly
//! the output of a scalar reference — for both op kinds, with and without a
//! label mask, into every kind of sink — and charge exactly the closed form
//! of the input lengths, whatever moved the data: the contract *data per
//! slot, cost from lengths* (DESIGN.md §4c).
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
//! The symmetric leg: with a row on the *input* side only, an intersection
//! whose operand is the shorter list streams the operand against that row —
//! same output, and still the closed form of the *input* lengths. A forced
//! algorithm never takes that route; the harness proves it by handing the
//! forced legs input rows that are all zeroes (an op that read them would
//! keep nothing). On failure the testkit harness shrinks the case and
//! prints a seeded reproduce line.

use std::sync::Mutex;

use stmatch_core::arena::StackArena;
use stmatch_core::setops::{apply_op_hub_into, choose_algo, SetOpAlgo, SetOpTuning};
use stmatch_gpusim::{Grid, GridConfig, Warp, WarpMetrics};
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

/// Runs one combined op over `slots` and returns the outputs and the warp
/// metrics.
fn run(
    g: &Graph,
    slots: &Slots,
    kind: OpKind,
    mask: LabelMask,
    tuning: SetOpTuning,
    rows: Rows,
    sink: Sink,
) -> (Vec<Vec<VertexId>>, WarpMetrics) {
    let a_bits: Vec<Vec<u64>> = slots
        .iter()
        .map(|(a, _)| bits_of(if rows.poisoned_input { &[] } else { a }))
        .collect();
    let b_bits: Vec<Vec<u64>> = slots.iter().map(|(_, b)| bits_of(b)).collect();
    let out = Mutex::new(Vec::new());
    let m = with_warp(|w| {
        let inputs: Vec<&[VertexId]> = slots.iter().map(|(a, _)| a.as_slice()).collect();
        let operands: Vec<&[VertexId]> = slots.iter().map(|(_, b)| b.as_slice()).collect();
        let input_bits: Vec<Option<&[u64]>> = a_bits
            .iter()
            .map(|b| rows.input.then_some(b.as_slice()))
            .collect();
        let operand_bits: Vec<Option<&[u64]>> = b_bits
            .iter()
            .map(|b| rows.operand.then_some(b.as_slice()))
            .collect();
        macro_rules! apply {
            ($sink:expr) => {
                apply_op_hub_into(
                    w,
                    g,
                    &inputs,
                    &input_bits,
                    &operands,
                    &operand_bits,
                    kind,
                    mask,
                    tuning,
                    false,
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

/// `(simt_instructions, issued_lane_slots, active_lane_slots)` of one
/// combined element stream over inputs of these lengths (Fig. 8): a
/// five-step size scan when more than one slot streams, then
/// `⌈total / 32⌉` waves, each closed by a ballot.
fn closed_form(slots: &Slots) -> (u64, u64, u64) {
    let total: u64 = slots.iter().map(|(a, _)| a.len() as u64).sum();
    if total == 0 {
        return (0, 0, 0);
    }
    let scan = if slots.len() > 1 { 5 } else { 0 };
    let waves = total.div_ceil(32);
    (scan + 2 * waves, 32 * (scan + waves), 32 * scan + total)
}

fn tuning(force: Option<SetOpAlgo>) -> SetOpTuning {
    SetOpTuning {
        force,
        ..SetOpTuning::default()
    }
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
/// charges the closed form of the input lengths — on random multi-slot
/// workloads spanning the size ratios that trigger each algorithm (empty,
/// ≈1×, ≈8×, ≈200×), for both kinds, masked or not, into every sink.
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
            let cost = closed_form(&slots);
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
                    // An input row alone: auto streams whichever side is
                    // shorter (∩ only) and owes the closed form of the input
                    // lengths either way; forced algorithms ignore the row.
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

/// Forcing the thresholds (rather than the `force` override) routes slots
/// through each algorithm, and the routed result still matches.
#[test]
fn threshold_extremes_route_every_algorithm() {
    let g = labeled_universe();
    let a: Vec<VertexId> = (0..60).step_by(3).collect();
    let b: Vec<VertexId> = (0..120).step_by(2).collect();
    for (tuning, expect) in [
        // merge_ratio 0 + gallop_ratio 1: everything non-trivial gallops.
        (
            SetOpTuning {
                merge_ratio: 0,
                gallop_ratio: 1,
                bitmap_ratio: 1,
                force: None,
            },
            SetOpAlgo::Gallop,
        ),
        // Huge merge_ratio: everything merges.
        (
            SetOpTuning {
                merge_ratio: usize::MAX,
                gallop_ratio: usize::MAX,
                bitmap_ratio: 1,
                force: None,
            },
            SetOpAlgo::Merge,
        ),
        // merge_ratio 0 + huge gallop_ratio: everything binary-searches.
        (
            SetOpTuning {
                merge_ratio: 0,
                gallop_ratio: usize::MAX,
                bitmap_ratio: 1,
                force: None,
            },
            SetOpAlgo::BinarySearch,
        ),
    ] {
        assert_eq!(choose_algo(a.len(), b.len(), tuning), expect);
        for kind in [OpKind::Intersect, OpKind::Difference] {
            let slots = [(a.clone(), b.clone())];
            let all = LabelMask::ALL;
            let (outs, _) = run(&g, &slots, kind, all, tuning, Rows::default(), Sink::Vecs);
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
/// only.
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

    // Taken: same output, the closed form of |A| = 60 lanes, no probe words.
    let slots = [(a.clone(), short.clone())];
    for sink in SINKS {
        let (outs, m) = run(&g, &slots, Intersect, all, auto, exact, sink);
        assert_eq!(outs[0], [3, 10, 59], "{sink:?}");
        let charged = (
            m.simt_instructions,
            m.issued_lane_slots,
            m.active_lane_slots,
        );
        assert_eq!(charged, closed_form(&slots), "{sink:?}");
        assert_eq!(m.bitmap_probe_words, 0);
    }
    let (outs, _) = run(&g, &slots, Intersect, all, auto, poisoned, Sink::Vecs);
    assert!(outs[0].is_empty(), "the input row was not what answered");

    // Not taken: a difference, an operand at least as long as the input, and
    // every forced algorithm leave the input row unread.
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
        let (outs, _) = run(&g, &slots, kind, all, t, poisoned, Sink::Vecs);
        assert_eq!(outs[0], reference(&g, &a, &b, kind, all), "{kind:?} {t:?}");
    }
}
