//! Stream-execution roundtrip properties: every way of launching a plan
//! interprets the plan's own lowered stream, and none of them may move a
//! simulated metric.
//!
//! The reference is a **pinned table**: `(count, total SIMT instructions,
//! active lane slots, issued lane slots)` for q1..q24 on both golden
//! fixture graphs under the deterministic steal-free schedule. The counts
//! were recorded at the last commit that still had the plan-walking
//! interpreter, by that interpreter, and have not moved since; the three
//! cost columns are the default launch's under the current cost model
//! (regenerated with the last-level rule of DESIGN.md §4c, every total at
//! or under the one it replaced). The default launch must reproduce the
//! table to the lane slot. A randomized `testkit` leg checks the default launch's
//! counts for q1..q24 on arbitrary graphs against the independent reference
//! matcher, and a seeded-mutation leg proves the comparison has teeth:
//! corrupting one opcode of an otherwise well-formed stream must change
//! counts (and carries a reproduce line).
//!
//! Regenerate the table — only for an intentional cost-model or planner
//! change, and say so in the commit message — with
//! `BYTECODE_ROUNDTRIP_PRINT=1 cargo test --test bytecode_roundtrip pinned -- --nocapture`.

use stmatch_baselines::reference::{self, RefOptions};
use stmatch_core::{Engine, EngineConfig, Launch, MatchOutcome};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, Graph};
use stmatch_pattern::bytecode::mutation;
use stmatch_pattern::{catalog, Pattern};
use stmatch_testkit::prop::forall;
use stmatch_testkit::rng::Rng;

fn grid() -> GridConfig {
    GridConfig {
        num_blocks: 2,
        warps_per_block: 2,
        shared_mem_per_block: 100 * 1024,
    }
}

/// Steal-free configuration: the deterministic schedule under which
/// instruction totals are reproducible across runs, so metric equality
/// can be asserted exactly (steal timing would perturb batch composition
/// run-to-run while leaving counts intact).
fn deterministic_cfg() -> EngineConfig {
    let mut cfg = EngineConfig::default().with_grid(grid());
    cfg.local_steal = false;
    cfg.global_steal = false;
    cfg
}

/// The same fixture graphs `tests/golden_counts.rs` pins counts on.
fn unlabeled_graph() -> Graph {
    gen::preferential_attachment(48, 4, 3).degree_ordered()
}

fn labeled_graph() -> Graph {
    gen::assign_random_labels(&gen::rmat(6, 4, 11).degree_ordered(), 10, 2022)
}

/// `(count, total instructions, active lane slots, issued lane slots)`.
type Fingerprint = (u64, u64, u64, u64);

fn fingerprint(out: &MatchOutcome) -> Fingerprint {
    let t = out.metrics.total();
    (
        out.count,
        t.simt_instructions,
        t.active_lane_slots,
        t.issued_lane_slots,
    )
}

fn run(cfg: EngineConfig, g: &Graph, q: &Pattern) -> Fingerprint {
    fingerprint(&Engine::new(cfg).run(g, q).unwrap())
}

/// `PINNED[fixture][q - 1]`: see the module docs.
#[rustfmt::skip]
const PINNED: [[Fingerprint; 24]; 2] = [
    // unlabeled
    [
        (119531, 6867, 136262, 165536),
        (5176, 7227, 190300, 213280),
        (9200, 4017, 91678, 113824),
        (34587, 7295, 160776, 190848),
        (1486, 2486, 27532, 47264),
        (2884, 4002, 90427, 113344),
        (88, 1139, 9875, 19616),
        (4, 1156, 8429, 18048),
        (915277, 63078, 1404900, 1619232),
        (31430, 43005, 1201986, 1308544),
        (967, 12393, 278827, 344800),
        (258862, 70811, 1733790, 1961056),
        (155617, 2509, 44736, 63360),
        (621, 5400, 102034, 130240),
        (3, 1215, 9409, 19424),
        (0, 1192, 8436, 18176),
        (6605944, 561940, 12762216, 14699264),
        (186933, 252786, 7175420, 7737504),
        (1783390, 657744, 16401054, 18503520),
        (129, 6952, 123300, 160736),
        (1294, 10442, 228884, 272928),
        (78, 16065, 294805, 392864),
        (0, 1196, 8436, 18176),
        (0, 1200, 8436, 18176),
    ],
    // labeled
    [
        (92, 228, 2825, 5760),
        (0, 144, 1057, 3584),
        (0, 84, 110, 2368),
        (12, 116, 401, 2944),
        (0, 136, 280, 3200),
        (7, 126, 781, 3392),
        (0, 100, 198, 2624),
        (0, 100, 160, 2624),
        (4, 120, 750, 3168),
        (2, 120, 932, 3296),
        (0, 138, 841, 3552),
        (14, 132, 950, 3488),
        (3, 123, 440, 3040),
        (0, 88, 118, 2432),
        (0, 104, 138, 2688),
        (0, 104, 198, 2688),
        (0, 84, 140, 2368),
        (0, 107, 704, 2976),
        (12, 394, 5851, 9664),
        (0, 88, 139, 2432),
        (0, 84, 116, 2368),
        (0, 100, 178, 2624),
        (0, 96, 150, 2560),
        (0, 100, 242, 2624),
    ],
];

#[test]
fn every_launch_flavour_reproduces_the_pinned_reference() {
    let print = std::env::var_os("BYTECODE_ROUNDTRIP_PRINT").is_some();
    let fixtures = [
        ("unlabeled", unlabeled_graph(), false),
        ("labeled", labeled_graph(), true),
    ];
    for ((gname, g, labeled), pinned) in fixtures.iter().zip(&PINNED) {
        if print {
            println!("    // {gname}\n    [");
        }
        for qi in 1..=24 {
            let q = if *labeled {
                catalog::paper_query(qi).with_random_labels(10, qi as u64)
            } else {
                catalog::paper_query(qi)
            };
            let got = run(deterministic_cfg(), g, &q);
            if print {
                let (c, i, a, s) = got;
                println!("        ({c}, {i}, {a}, {s}),");
                continue;
            }
            assert_eq!(
                got,
                pinned[qi - 1],
                "q{qi} on {gname}: drifted from the pinned plan-walk reference"
            );
        }
        if print {
            println!("    ],");
        }
    }
}

#[test]
fn default_launch_matches_the_reference_on_random_graphs() {
    forall(
        "default_launch_matches_the_reference_on_random_graphs",
        |rng| {
            (
                rng.gen_range(8usize..40),
                rng.gen_range(1usize..4),
                rng.gen_range(0u64..1000),
                rng.gen_range(1usize..25),
            )
        },
        |&(n, density, seed, qi)| {
            let n = n.clamp(2, 40);
            let g = gen::erdos_renyi(n, n * density.min(3), seed);
            let q = catalog::paper_query(qi.clamp(1, 24));
            let (got, ..) = run(deterministic_cfg(), &g, &q);
            let want = reference::count(&g, &q, RefOptions::default());
            if got != want {
                return Err(format!("{}: count {got} != reference {want}", q.name()));
            }
            Ok(())
        },
    );
}

/// The kill test for the pinned comparison: swapping the first
/// intersect/difference opcode of a plan's own verified stream is exactly
/// the class of bug the metric-identity suites exist to catch, so running
/// the mutant plan through the full engine must change the count.
#[test]
fn seeded_opcode_swap_is_caught_by_golden_counts() {
    let g = unlabeled_graph();
    let reproduce = "reproduce: bytecode::mutation::swap_first_op_kind on q8, \
                     PA(48,4,3) degree-ordered fixture";
    let engine = Engine::new(deterministic_cfg());
    let mut plan = engine.compile(&catalog::paper_query(8));
    let baseline = engine.launch(&Launch::new(&g, &plan)).unwrap().count;
    assert_eq!(baseline, 4, "golden q8 count on the unlabeled fixture");

    assert!(
        mutation::swap_first_op_kind(&mut plan),
        "q8's cascade has an opcode to corrupt"
    );
    plan.bytecode()
        .verify()
        .expect("the mutant is well-formed — only its semantics are wrong");
    let got = engine.launch(&Launch::new(&g, &plan)).unwrap().count;
    assert_ne!(
        got, baseline,
        "opcode swap escaped the golden count check ({reproduce})"
    );
}

/// Recycled arenas are behaviorally invisible: a launch on arenas an
/// earlier launch of the engine left parked has the same count and — under
/// the steal-free schedule — the same instruction total as a fresh engine's
/// first launch.
#[test]
fn launch_resources_are_metric_identical() {
    let g = unlabeled_graph();
    let cfg = deterministic_cfg();
    let engine = Engine::new(cfg);
    for qi in [1, 6, 8] {
        let plan = engine.compile(&catalog::paper_query(qi));
        let base = Engine::new(cfg).launch(&Launch::new(&g, &plan)).unwrap();
        engine.launch(&Launch::new(&g, &plan)).unwrap();
        let out = engine.launch(&Launch::new(&g, &plan)).unwrap();
        assert_eq!(out.count, base.count, "q{qi} warm");
        assert_eq!(
            out.total_instructions(),
            base.total_instructions(),
            "q{qi} warm"
        );
    }
}
