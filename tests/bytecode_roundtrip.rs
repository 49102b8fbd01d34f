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
//! or under the one it replaced). The default launch and a launch on an
//! index-carrying graph with hub routing off must each reproduce the table
//! to the lane slot. A randomized `testkit` leg checks the default launch's
//! counts for q1..q24 on arbitrary graphs against the independent reference
//! matcher, and a seeded-mutation leg proves the comparison has teeth:
//! corrupting one opcode of an otherwise well-formed stream must change
//! counts (and carries a reproduce line).
//!
//! Regenerate the table — only for an intentional cost-model or planner
//! change, and say so in the commit message — with
//! `BYTECODE_ROUNDTRIP_PRINT=1 cargo test --test bytecode_roundtrip pinned -- --nocapture`.

use stmatch_baselines::reference::{self, RefOptions};
use stmatch_core::{Engine, EngineConfig, MatchOutcome, WarmSlot};
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
        (119531, 7547, 140372, 188832),
        (5176, 9845, 240500, 298592),
        (9200, 5530, 123405, 163776),
        (34587, 8617, 174956, 223584),
        (1486, 2688, 29192, 66912),
        (2884, 5794, 128359, 172224),
        (88, 1385, 11257, 34848),
        (4, 1397, 9927, 35232),
        (915277, 67844, 1442560, 1773280),
        (31430, 57683, 1513161, 1779776),
        (967, 15808, 301890, 439264),
        (258862, 81347, 1861516, 2206592),
        (155617, 3010, 48257, 80928),
        (621, 6849, 112891, 184960),
        (3, 1456, 10907, 36608),
        (0, 1434, 9954, 35904),
        (6605944, 606109, 13083532, 16114208),
        (186933, 339730, 9089608, 10521248),
        (1783390, 746775, 17441410, 20635424),
        (129, 9201, 144779, 247904),
        (1294, 13591, 254093, 373376),
        (78, 20187, 328566, 537024),
        (0, 1438, 9954, 35904),
        (0, 1438, 9954, 35904),
    ],
    // labeled
    [
        (92, 254, 2877, 6592),
        (0, 170, 1103, 4416),
        (0, 85, 111, 2400),
        (12, 124, 411, 3200),
        (0, 142, 286, 3392),
        (7, 138, 792, 3776),
        (0, 104, 203, 2752),
        (0, 104, 164, 2752),
        (4, 127, 763, 3392),
        (2, 127, 945, 3520),
        (0, 145, 852, 3776),
        (14, 139, 961, 3712),
        (3, 129, 447, 3232),
        (0, 91, 121, 2528),
        (0, 110, 144, 2880),
        (0, 108, 202, 2816),
        (0, 86, 142, 2432),
        (0, 113, 713, 3168),
        (12, 471, 6034, 12128),
        (0, 88, 139, 2432),
        (0, 85, 117, 2400),
        (0, 101, 179, 2656),
        (0, 103, 157, 2784),
        (0, 103, 245, 2720),
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
        // Low threshold: most of either fixture's vertices get rows, all of
        // which the routing-off leg must ignore.
        let indexed = g.clone().with_hub_bitmap(4);
        if print {
            println!("    // {gname}\n    [");
        }
        for qi in 1..=24 {
            let q = if *labeled {
                catalog::paper_query(qi).with_random_labels(10, qi as u64)
            } else {
                catalog::paper_query(qi)
            };
            if print {
                let (c, i, a, s) = run(deterministic_cfg(), g, &q);
                println!("        ({c}, {i}, {a}, {s}),");
                continue;
            }
            let want = pinned[qi - 1];
            for (leg, cfg, graph) in [
                ("default", deterministic_cfg(), g),
                ("index attached, routing off", deterministic_cfg(), &indexed),
            ] {
                assert_eq!(
                    run(cfg, graph, &q),
                    want,
                    "q{qi} on {gname}, {leg}: drifted from the pinned plan-walk reference"
                );
            }
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
    let baseline = engine.run_plan(&g, &plan).unwrap().count;
    assert_eq!(baseline, 4, "golden q8 count on the unlabeled fixture");

    assert!(
        mutation::swap_first_op_kind(&mut plan),
        "q8's cascade has an opcode to corrupt"
    );
    plan.bytecode()
        .verify()
        .expect("the mutant is well-formed — only its semantics are wrong");
    let got = engine.run_plan(&g, &plan).unwrap().count;
    assert_ne!(
        got, baseline,
        "opcode swap escaped the golden count check ({reproduce})"
    );
}

/// A [`WarmSlot`] is behaviorally invisible: the same count and — under
/// the steal-free schedule — the same instruction total as a cold launch.
#[test]
fn launch_resources_are_metric_identical() {
    let g = unlabeled_graph();
    let cfg = deterministic_cfg();
    let engine = Engine::new(cfg);
    let slot = WarmSlot::new(cfg.grid).unwrap();
    for qi in [1, 6, 8] {
        let plan = engine.compile(&catalog::paper_query(qi));
        let base = engine.run_plan(&g, &plan).unwrap();
        let out = engine.run_plan_warm(&g, &plan, &slot).unwrap();
        assert_eq!(out.count, base.count, "q{qi} warm");
        assert_eq!(
            out.total_instructions(),
            base.total_instructions(),
            "q{qi} warm"
        );
    }
}
