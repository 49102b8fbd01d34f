//! End-to-end fault-tolerance tests: injected warp deaths, poisoned steal
//! mirrors and stranded-work salvage must all preserve *exact* match counts
//! (DESIGN.md §4d), and a launch that does not fit its budgets fails at
//! planning, before any warp runs.
//!
//! The contract under test: a warp death rolls back the dead warp's open
//! counting transaction (`WarpKernel::reclaim_on_death`), requeues its
//! unfinished work on the `Board`, and survivors (or a salvage relaunch)
//! re-execute exactly the dropped subtrees — no match lost, none counted
//! twice.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use stmatch_core::{Engine, EngineConfig, FaultPlan, LaunchError, StagedBatch};
use stmatch_gpusim::{GridConfig, SharedBudget};
use stmatch_graph::{gen, DeltaOverlay, EdgeOp, Graph};
use stmatch_pattern::catalog;

/// The faults fixture: hub-heavy enough that shallow mirrors hold real
/// ranges when a fault fires, small enough that 24 queries stay fast.
fn fixture() -> Graph {
    gen::preferential_attachment(48, 4, 3).degree_ordered()
}

fn grid_2x4() -> GridConfig {
    GridConfig {
        num_blocks: 2,
        warps_per_block: 4,
        shared_mem_per_block: SharedBudget::RTX3090_BYTES,
    }
}

/// Two of eight warps die on every query of the paper's evaluation set;
/// every count must match the clean run exactly.
#[test]
fn two_warp_deaths_keep_all_paper_queries_exact() {
    let g = fixture();
    let cfg = EngineConfig::full().with_grid(grid_2x4());
    let clean = Engine::new(cfg);
    // Kill the first warp of each block, early enough that substantial
    // work is still pending and must be requeued. (First warps spawn
    // first, so they reliably win chunks even on a loaded host — later
    // warps can race to no work at all on a 48-vertex fixture.)
    let plan = FaultPlan::new().panic_at(0, 3).panic_at(4, 5);
    let faulty = Engine::new(cfg).with_fault_plan(plan);
    let mut deaths_seen = 0usize;
    for i in 1..=24 {
        let q = catalog::paper_query(i);
        let expected = clean.run(&g, &q).unwrap();
        let got = faulty.run(&g, &q).unwrap();
        assert_eq!(got.count, expected.count, "q{i} count drifted under faults");
        assert!(!got.timed_out, "q{i} must terminate despite deaths");
        if let Some(report) = &got.fault {
            deaths_seen += report.deaths.len();
            assert_eq!(report.escaped_panics, 0, "q{i}: containment must hold");
            assert!(report.fully_recovered(), "q{i}: work left stranded");
            assert!(report.deaths.len() <= 2);
        }
    }
    // The plan cannot fire on every query (tiny traversals may finish
    // before the Nth claim), but across 24 queries it must have killed
    // warps many times — otherwise the test is vacuous.
    assert!(
        deaths_seen >= 12,
        "only {deaths_seen} deaths across 24 queries — injection barely fired"
    );
}

/// A panic injected *inside* the mirror's publish critical section leaves
/// the mutex poisoned mid-update. `Mirror::lock`'s poison recovery plus
/// the requeue protocol must still deliver exact counts.
///
/// Deterministic setup: one block, two warps, a single level-0 chunk, and
/// the same publish fault armed on *both* warps — whichever warp ends up
/// doing the work provably reaches the fourth publish (q6 on this fixture
/// publishes far more than four child ranges) and dies holding the lock.
#[test]
fn poisoned_mirror_publish_recovers_exactly() {
    let g = fixture();
    let mut cfg = EngineConfig::full().with_grid(GridConfig {
        num_blocks: 1,
        warps_per_block: 2,
        shared_mem_per_block: SharedBudget::RTX3090_BYTES,
    });
    cfg.chunk_size = g.num_vertices();
    let expected = Engine::new(cfg).run(&g, &catalog::paper_query(6)).unwrap();
    let plan = FaultPlan::new()
        .poison_publish_at(0, 4)
        .poison_publish_at(1, 4);
    let got = Engine::new(cfg)
        .with_fault_plan(plan)
        .run(&g, &catalog::paper_query(6))
        .unwrap();
    assert_eq!(got.count, expected.count);
    let report = got.fault.expect("the publish fault must have fired");
    assert!(!report.deaths.is_empty());
    assert!(
        report.deaths.iter().any(|d| d.message.contains("publish")),
        "a death message should identify the poisoned publish: {report:?}"
    );
    assert!(report.fully_recovered(), "{report:?}");
}

/// Seeded plans are replayable: the same `FAULT_SEED` produces identical
/// fault schedules, identical death sets, and identical (exact) counts.
#[test]
fn seeded_plan_is_deterministic_and_exact() {
    let g = fixture();
    let cfg = EngineConfig::full().with_grid(grid_2x4());
    let expected = Engine::new(cfg).run(&g, &catalog::paper_query(1)).unwrap();
    let total = grid_2x4().total_warps();
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let plan = FaultPlan::seeded(0xfee1_dead, total, 2, 1);
            assert_eq!(plan.reproduce_line(), Some("FAULT_SEED=0xfee1dead"));
            Engine::new(cfg)
                .with_fault_plan(plan)
                .run(&g, &catalog::paper_query(1))
                .unwrap()
        })
        .collect();
    // The fault *schedule* is identical run to run (unit-tested in
    // `fault.rs`); warp scheduling on a host simulator is not, so here we
    // assert the recovery invariants: exact counts, and any death must be
    // one of the plan's chosen victims.
    let victims: Vec<usize> = FaultPlan::seeded(0xfee1_dead, total, 2, 1)
        .faults()
        .iter()
        .map(|f| f.warp)
        .collect();
    for out in &runs {
        assert_eq!(out.count, expected.count);
        if let Some(report) = &out.fault {
            assert!(report.fully_recovered(), "{report:?}");
            for d in &report.deaths {
                assert!(victims.contains(&d.warp), "unplanned victim {}", d.warp);
            }
        }
    }
}

/// Killing *every* warp strands all remaining work; the bounded salvage
/// relaunch (injection disabled) must finish the traversal exactly.
#[test]
fn all_warps_dead_salvage_relaunch_completes_the_count() {
    let g = fixture();
    let small = GridConfig {
        num_blocks: 1,
        warps_per_block: 2,
        shared_mem_per_block: SharedBudget::RTX3090_BYTES,
    };
    let cfg = EngineConfig::full().with_grid(small);
    let expected = Engine::new(cfg).run(&g, &catalog::paper_query(6)).unwrap();
    let plan = FaultPlan::new().panic_at(0, 2).panic_at(1, 3);
    let got = Engine::new(cfg)
        .with_fault_plan(plan)
        .run(&g, &catalog::paper_query(6))
        .unwrap();
    assert_eq!(got.count, expected.count);
    let report = got.fault.expect("both warps must have died");
    assert_eq!(report.deaths.len(), 2, "{report:?}");
    assert!(report.salvage_launches >= 1, "{report:?}");
    assert!(report.fully_recovered(), "{report:?}");
}

/// Deaths in naive mode (no stealing, no idle phase to absorb requeues):
/// the salvage pass is the only recovery path and must still be exact.
/// A 1×1 grid makes the schedule deterministic — the sole warp owns every
/// chunk and provably reaches the fault ordinal.
#[test]
fn naive_mode_death_recovers_via_salvage() {
    let g = fixture();
    let cfg = EngineConfig::naive().with_grid(GridConfig {
        num_blocks: 1,
        warps_per_block: 1,
        shared_mem_per_block: SharedBudget::RTX3090_BYTES,
    });
    let expected = Engine::new(cfg).run(&g, &catalog::paper_query(2)).unwrap();
    let got = Engine::new(cfg)
        .with_fault_plan(FaultPlan::new().panic_at(0, 10))
        .run(&g, &catalog::paper_query(2))
        .unwrap();
    assert_eq!(got.count, expected.count);
    let report = got.fault.expect("fault must fire");
    assert_eq!(report.deaths.len(), 1);
    assert!(report.salvage_launches >= 1, "{report:?}");
    assert!(report.fully_recovered(), "{report:?}");
}

/// Stalls perturb scheduling without killing anyone: counts exact, no
/// fault report (stalls are not deaths).
#[test]
fn stalls_change_timing_not_counts() {
    let g = fixture();
    let cfg = EngineConfig::full().with_grid(grid_2x4());
    let expected = Engine::new(cfg).run(&g, &catalog::paper_query(8)).unwrap();
    let plan = FaultPlan::new()
        .stall_at(0, 1, Duration::from_millis(20))
        .stall_at(5, 2, Duration::from_millis(10));
    let got = Engine::new(cfg)
        .with_fault_plan(plan)
        .run(&g, &catalog::paper_query(8))
        .unwrap();
    assert_eq!(got.count, expected.count);
    assert!(got.fault.is_none());
}

/// Enumeration under a warp death: the embedding *set* (not just the
/// count) must be identical — the emit watermark truncates uncommitted
/// records and survivors re-emit exactly the dropped subtrees.
#[test]
fn enumeration_survives_warp_death_with_identical_embeddings() {
    let g = fixture();
    let cfg = EngineConfig::full().with_grid(grid_2x4());
    let clean = Engine::new(cfg)
        .enumerate(&g, &catalog::paper_query(6))
        .unwrap();
    let faulty = Engine::new(cfg)
        .with_fault_plan(FaultPlan::new().panic_at(0, 3).panic_at(4, 2))
        .enumerate(&g, &catalog::paper_query(6))
        .unwrap();
    assert_eq!(faulty.embeddings, clean.embeddings);
    assert!(faulty
        .outcome
        .fault
        .map(|r| r.fully_recovered())
        .unwrap_or(true));
}

/// A launch is planned once, at its configured geometry, with no
/// degradation ladder behind it: a block exactly at q16's footprint runs
/// with the full count, and a block one byte short fails at planning with
/// the overflow named.
#[test]
fn degradation_ladder_end_to_end() {
    let g = fixture();
    let q = catalog::paper_query(16); // q16 = 6-clique: deep, set-heavy
    let full = Engine::new(EngineConfig::full().with_grid(grid_2x4()))
        .run(&g, &q)
        .unwrap();
    let mut cfg = EngineConfig::full().with_grid(grid_2x4());
    cfg.grid.shared_mem_per_block = full.shared_bytes_per_block;
    let exact = Engine::new(cfg).run(&g, &q).unwrap();
    assert_eq!(exact.count, full.count);
    assert_eq!(exact.shared_bytes_per_block, full.shared_bytes_per_block);
    cfg.grid.shared_mem_per_block = full.shared_bytes_per_block - 1;
    match Engine::new(cfg).run(&g, &q) {
        Err(LaunchError::SharedMemory(o)) => {
            assert_eq!(o.capacity, full.shared_bytes_per_block - 1, "{o}");
        }
        other => panic!("expected a shared-memory overflow, got {other:?}"),
    }
}

/// A tight budget and a warp death compose: at exactly q6's footprint a
/// run with a death still produces the exact count, and one byte short the
/// launch fails at planning, before any warp (or fault) runs.
#[test]
fn downgraded_run_with_warp_death_stays_exact() {
    let g = fixture();
    let q = catalog::paper_query(6);
    let full = Engine::new(EngineConfig::full().with_grid(grid_2x4()))
        .run(&g, &q)
        .unwrap();
    let plan = FaultPlan::new().panic_at(2, 3);
    let mut cfg = EngineConfig::full().with_grid(grid_2x4());
    cfg.grid.shared_mem_per_block = full.shared_bytes_per_block;
    let got = Engine::new(cfg)
        .with_fault_plan(plan.clone())
        .run(&g, &q)
        .unwrap();
    assert_eq!(got.count, full.count);
    assert!(got.fault.map(|r| r.fully_recovered()).unwrap_or(true));
    cfg.grid.shared_mem_per_block = full.shared_bytes_per_block - 1;
    match Engine::new(cfg).with_fault_plan(plan).run(&g, &q) {
        Err(LaunchError::SharedMemory(o)) => {
            assert_eq!(o.capacity, full.shared_bytes_per_block - 1, "{o}");
        }
        other => panic!("expected a shared-memory overflow, got {other:?}"),
    }
}

/// The shipped geometries fit with room to spare, so no launch at them
/// comes near the planning failure above: every paper query at the default
/// configuration plans within an eighth of an RTX 3090 block, at 4 and at
/// 32 (the most allowed) warps per block. The footprint depends only on the
/// plan and the geometry, so a tiny graph serves.
#[test]
fn the_shipped_geometries_fit_an_eighth_of_a_block() {
    let g = gen::complete(4);
    for warps_per_block in [4, 32] {
        let engine = Engine::new(EngineConfig::default().with_grid(GridConfig {
            num_blocks: 1,
            warps_per_block,
            shared_mem_per_block: SharedBudget::RTX3090_BYTES / 8,
        }));
        for i in 1..=24 {
            if let Err(e) = engine.run(&g, &catalog::paper_query(i)) {
                panic!("q{i} at {warps_per_block} warps/block: {e}");
            }
        }
    }
}

/// Every grid a launch builds is a shard, so a one-grid run and a delta
/// launch are each shard 0 of 1: shard 0's kill takes every warp of the
/// grid, whose salvage pass keeps the count exact, and a kill naming shard
/// 7 panics the launch.
#[test]
fn a_shard_kill_reaches_every_single_grid_launch() {
    let g = gen::preferential_attachment(120, 4, 7).degree_ordered();
    let q = catalog::paper_query(6);
    let cfg = EngineConfig::default();
    let kill = |shard| Engine::new(cfg).with_fault_plan(FaultPlan::new().shard_kill_at(shard, 1));
    let got = kill(0).run(&g, &q).unwrap();
    assert_eq!(got.count, 5_503);
    let report = got.fault.expect("shard 0's kill must take the grid");
    assert_eq!(report.deaths.len(), cfg.grid.total_warps(), "{report:?}");
    assert!(report.salvage_launches > 0, "{report:?}");
    assert!(report.fully_recovered(), "{report:?}");
    assert_eq!(report.reproduce.as_deref(), Some("SHARD_KILLS=0@1"));

    let mut overlay = DeltaOverlay::new(g.clone());
    let pre = overlay.snapshot();
    let ops: Vec<EdgeOp> = g.neighbors(0)[..4]
        .iter()
        .map(|&v| EdgeOp::delete(0, v))
        .collect();
    let batch = overlay.apply(&ops);
    let post = overlay.snapshot();
    let plans = kill(0).compile_delta(&catalog::triangle());
    let staged = StagedBatch::new(&pre, &post, &batch);
    let (want, _) = plans.count(&Engine::new(cfg), &staged).unwrap();
    assert!(want.removed > 0, "the batch destroyed triangles");
    let (delta, metrics) = plans.count(&kill(0), &staged).unwrap();
    assert_eq!(delta, want);
    assert!(
        metrics.total().requeue_claims > 0,
        "the kill never reached the delta grid"
    );

    let missing = |launch: &dyn Fn(&Engine)| {
        let engine = kill(7);
        let panic = catch_unwind(AssertUnwindSafe(|| launch(&engine)));
        let message = panic.expect_err("a one-grid launch has no shard 7");
        let message = message.downcast::<String>().expect("a formatted panic");
        assert!(message.contains("shard kill names shard 7, but the run has 1 shard(s)"));
    };
    missing(&|e| drop(e.run(&g, &q)));
    missing(&|e| drop(plans.count(e, &staged)));
}

/// Fault injection is strictly opt-in: engines without a plan never
/// produce a fault report, even over many runs.
#[test]
fn no_plan_means_no_fault_reports() {
    let g = fixture();
    let engine = Engine::new(EngineConfig::full().with_grid(grid_2x4()));
    for i in [1, 6, 8, 16] {
        let out = engine.run(&g, &catalog::paper_query(i)).unwrap();
        assert!(out.fault.is_none(), "q{i}");
    }
}
