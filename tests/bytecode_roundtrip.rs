//! Bytecode roundtrip properties (PR 7): the compiled tiers must be
//! *behaviorally invisible*. For every catalog paper query on both golden
//! fixture graphs, running with plan compilation on — at tier 0
//! (bytecode dispatch) and with specialization forced — must reproduce
//! the plan-walking engine's metrics bit-for-bit under the deterministic
//! steal-free schedule: same count, same total SIMT instructions, same
//! lane utilization. A randomized `testkit` leg extends the check to
//! arbitrary graphs, and a seeded-mutation leg proves the golden
//! comparison has teeth: corrupting one opcode in an otherwise
//! well-formed stream must change counts (and carries a reproduce line).

use stmatch_core::{CompiledPlan, Engine, EngineConfig, Launch, WarmSlot};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, Graph};
use stmatch_pattern::bytecode::{mutation, PlanBytecode};
use stmatch_pattern::catalog;
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

/// Runs `q` on `g` under `cfg` and returns the metric triple the golden
/// suites pin: `(count, total instructions, lane utilization)`.
fn fingerprint(cfg: EngineConfig, g: &Graph, q: &stmatch_pattern::Pattern) -> (u64, u64, f64) {
    let out = Engine::new(cfg).run(g, q).unwrap();
    (
        out.count,
        out.total_instructions(),
        out.metrics.total().lane_utilization(),
    )
}

#[test]
fn compiled_tiers_are_metric_identical_on_golden_fixtures() {
    let fixtures = [
        ("unlabeled", unlabeled_graph(), false),
        ("labeled", labeled_graph(), true),
    ];
    for (gname, g, labeled) in &fixtures {
        for qi in 1..=24 {
            let q = if *labeled {
                catalog::paper_query(qi).with_random_labels(10, qi as u64)
            } else {
                catalog::paper_query(qi)
            };
            let base = fingerprint(deterministic_cfg(), g, &q);

            let mut tier0 = deterministic_cfg();
            tier0.compile.enabled = true;
            tier0.compile.specialize = false;
            assert_eq!(
                fingerprint(tier0, g, &q),
                base,
                "q{qi} on {gname}: bytecode dispatch must be metric-identical"
            );

            let mut forced = deterministic_cfg();
            forced.compile.enabled = true;
            forced.compile.tier_up_after = 0;
            assert_eq!(
                fingerprint(forced, g, &q),
                base,
                "q{qi} on {gname}: forced specialization must be metric-identical"
            );
        }
    }
}

#[test]
fn compiled_tiers_are_metric_identical_on_random_graphs() {
    forall(
        "compiled_tiers_are_metric_identical_on_random_graphs",
        |rng| {
            (
                rng.gen_range(8usize..40),
                rng.gen_range(1usize..4),
                rng.gen_range(0u64..1000),
                rng.gen_range(1usize..25),
                rng.gen::<bool>(),
            )
        },
        |&(n, density, seed, qi, forced)| {
            let n = n.clamp(2, 40);
            let g = gen::erdos_renyi(n, n * density.min(3), seed);
            let q = catalog::paper_query(qi.clamp(1, 24));
            let base = fingerprint(deterministic_cfg(), &g, &q);
            let mut cfg = deterministic_cfg();
            cfg.compile.enabled = true;
            if forced {
                cfg.compile.tier_up_after = 0;
            } else {
                cfg.compile.specialize = false;
            }
            let got = fingerprint(cfg, &g, &q);
            if got == base {
                Ok(())
            } else {
                Err(format!(
                    "{} forced={forced}: compiled {got:?} != plan-walk {base:?}",
                    q.name()
                ))
            }
        },
    );
}

/// The kill test for the golden comparison: swapping the first
/// intersect/difference opcode of a verified stream is exactly the class
/// of bug the metric-identity suites exist to catch, so running the
/// mutant through the full engine must change the count.
#[test]
fn seeded_opcode_swap_is_caught_by_golden_counts() {
    let g = unlabeled_graph();
    let reproduce = "reproduce: bytecode::mutation::swap_first_op_kind on q8, \
                     PA(48,4,3) degree-ordered fixture";
    let q = catalog::paper_query(8);
    let plan = Engine::new(deterministic_cfg()).compile(&q);
    let baseline = Engine::new(deterministic_cfg())
        .run_plan(&g, &plan)
        .unwrap()
        .count;
    assert_eq!(baseline, 4, "golden q8 count on the unlabeled fixture");

    let mut bc = PlanBytecode::lower(&plan).unwrap();
    assert!(
        mutation::swap_first_op_kind(&mut bc),
        "q8's cascade has an opcode to corrupt"
    );
    bc.verify()
        .expect("the mutant is well-formed — only its semantics are wrong");
    let mut cfg = deterministic_cfg();
    cfg.compile.enabled = true;
    let mutant = CompiledPlan::from_bytecode(bc, cfg.compile);
    let engine = Engine::new(cfg);
    let mut req = Launch::new(&g, &plan);
    req.compiled = Some(&mutant);
    let got = engine.launch(&req).unwrap().count;
    assert_ne!(
        got, baseline,
        "opcode swap escaped the golden count check ({reproduce})"
    );
}

/// The optional resources of a [`Launch`] are behaviorally invisible: a
/// warm slot, a caller-held compiled plan, both, or neither give the same
/// count and — under the steal-free schedule — the same instruction total.
#[test]
fn launch_resources_are_metric_identical() {
    let g = unlabeled_graph();
    let mut cfg = deterministic_cfg();
    cfg.compile.enabled = true;
    let engine = Engine::new(cfg);
    let slot = WarmSlot::new(cfg.grid).unwrap();
    for qi in [1, 6, 8] {
        let plan = engine.compile(&catalog::paper_query(qi));
        let held = CompiledPlan::lower(&plan, cfg.compile).unwrap();
        let base = engine.launch(&Launch::new(&g, &plan)).unwrap();
        for (warm, compiled) in [
            (Some(&slot), None),
            (None, Some(&held)),
            (Some(&slot), Some(&held)),
        ] {
            let mut req = Launch::new(&g, &plan);
            req.warm = warm;
            req.compiled = compiled;
            let out = engine.launch(&req).unwrap();
            let tag = format!("q{qi} warm={} held={}", warm.is_some(), compiled.is_some());
            assert_eq!(out.count, base.count, "{tag}");
            assert_eq!(out.total_instructions(), base.total_instructions(), "{tag}");
        }
    }
}
