//! Sharded-execution golden sweep: the q1..q24 paper evaluation set must
//! produce *exact* golden counts on both pinned fixture graphs when the
//! domain is split across shard grids — clean, under whole-shard death
//! (1-of-4 and 3-of-4 victims), through the shard recovery ladder, and
//! as the static multi-device split `--devices N` runs (DESIGN.md §4i).
//!
//! The contract under test: each shard works only its own slice; a dying
//! shard's reclaimed stacks land on the shared rail's requeue and are
//! re-executed by survivors, and the slice it never claimed by the
//! fewer-shards / cold single-grid recovery rounds — no match lost, none
//! counted twice, and every shard-death report carries a deterministic
//! reproduce line.

use stmatch_core::{Engine, EngineConfig, FaultPlan, RecoveryPolicy, ShardStep};
use stmatch_gpusim::{GridConfig, SharedBudget};
use stmatch_graph::{gen, Graph};
use stmatch_pattern::{catalog, Pattern};

/// Same fixtures as `tests/golden_counts.rs`; the expected numbers below
/// are that file's pinned columns (edge-induced and labeled).
fn unlabeled_graph() -> Graph {
    gen::preferential_attachment(48, 4, 3).degree_ordered()
}

fn labeled_graph() -> Graph {
    gen::assign_random_labels(&gen::rmat(6, 4, 11).degree_ordered(), 10, 2022)
}

/// Per-shard grid: 2 blocks x 2 warps, so a 4-shard run drives 16 warp
/// threads total — enough for real rail traffic, small enough that
/// 24-query sweeps stay fast.
fn grid_2x2() -> GridConfig {
    GridConfig {
        num_blocks: 2,
        warps_per_block: 2,
        shared_mem_per_block: SharedBudget::RTX3090_BYTES,
    }
}

/// (query, unlabeled edge-induced count, labeled count) — the golden
/// columns from `tests/golden_counts.rs`.
const GOLDEN: &[(usize, u64, u64)] = &[
    (1, 119_531, 92),
    (2, 5_176, 0),
    (3, 9_200, 0),
    (4, 34_587, 12),
    (5, 1_486, 0),
    (6, 2_884, 7),
    (7, 88, 0),
    (8, 4, 0),
    (9, 915_277, 4),
    (10, 31_430, 2),
    (11, 967, 0),
    (12, 258_862, 14),
    (13, 155_617, 3),
    (14, 621, 0),
    (15, 3, 0),
    (16, 0, 0),
    (17, 6_605_944, 0),
    (18, 186_933, 0),
    (19, 1_783_390, 12),
    (20, 129, 0),
    (21, 1_294, 0),
    (22, 78, 0),
    (23, 0, 0),
    (24, 0, 0),
];

fn sharded_cfg(shards: usize) -> EngineConfig {
    EngineConfig::default()
        .with_grid(grid_2x2())
        .with_shards(shards)
}

fn queries(labeled: bool) -> Vec<(usize, Pattern, u64)> {
    GOLDEN
        .iter()
        .map(|&(qi, unlabeled, lab)| {
            if labeled {
                (
                    qi,
                    catalog::paper_query(qi).with_random_labels(10, qi as u64),
                    lab,
                )
            } else {
                (qi, catalog::paper_query(qi), unlabeled)
            }
        })
        .collect()
}

/// Runs the full q1..q24 sweep on both fixtures with `kills` of 4 shards
/// seeded to die, asserting every count against the golden columns, and
/// on a clean sweep that every round-0 shard did work on its own slice.
/// Returns accumulated (warp deaths, shard deaths, requeue pushes+claims,
/// rail requeue receives) for the caller's vacuity guards.
fn sweep(kills: usize, seed: u64) -> (usize, u64, u64, u64) {
    let mut deaths = 0usize;
    let mut shard_deaths = 0u64;
    let mut requeues = 0u64;
    let mut rail_receives = 0u64;
    for (graph, labeled) in [(unlabeled_graph(), false), (labeled_graph(), true)] {
        for (qi, q, want) in queries(labeled) {
            let mut engine = Engine::new(sharded_cfg(4));
            if kills > 0 {
                engine = engine.with_fault_plan(FaultPlan::seeded_shard_kill(seed, 4, kills));
            }
            let out = engine.run_sharded(&graph, &q).unwrap();
            assert_eq!(
                out.outcome.count, want,
                "q{qi} labeled={labeled} kills={kills}: sharded count drifted from golden"
            );
            assert!(!out.outcome.timed_out, "q{qi}: sharded run must terminate");
            assert_eq!(out.shards, 4);
            assert_eq!(
                out.per_shard.len(),
                4,
                "q{qi}: round 0 must report every shard"
            );
            assert!(
                out.unfinished.is_empty(),
                "q{qi}: nothing may stay on the rail after recovery"
            );
            if kills == 0 {
                assert!(
                    out.per_shard.iter().all(|s| s.total_instructions() > 0),
                    "q{qi} labeled={labeled}: a round-0 shard did no work"
                );
            }
            if let Some(report) = &out.outcome.fault {
                deaths += report.deaths.len();
                assert_eq!(report.escaped_panics, 0, "q{qi}: containment must hold");
                assert!(report.fully_recovered(), "q{qi}: work left stranded");
                if !report.deaths.is_empty() {
                    assert!(
                        out.reproduce.is_some(),
                        "q{qi}: shard-death report lacks a reproduce line"
                    );
                    assert!(
                        out.reproduce.as_deref().unwrap().contains("FAULT_SEED"),
                        "q{qi}: seeded kill must reproduce by seed"
                    );
                }
            } else {
                assert_eq!(out.rail.shard_deaths, 0, "q{qi}: deaths without a report");
            }
            shard_deaths += out.rail.shard_deaths;
            requeues += out.rail.requeue_pushes + out.rail.requeue_claims;
            rail_receives += out.rail.requeue_claims;
        }
    }
    (deaths, shard_deaths, requeues, rail_receives)
}

/// Clean 4-shard sweep: every golden number exact on both fixtures, no
/// fault bookkeeping, and every shard at work on its own slice.
#[test]
fn clean_sharded_sweep_matches_golden_on_both_fixtures() {
    let (deaths, shard_deaths, _requeues, _rail_receives) = sweep(0, 0);
    assert_eq!(deaths, 0, "clean sweep must not report deaths");
    assert_eq!(shard_deaths, 0);
}

/// One of four shards dies mid-run on every query; survivors re-run its
/// reclaimed subtrees, and recovery rounds its unclaimed ranges.
#[test]
fn one_of_four_shard_death_keeps_counts_exact() {
    let (deaths, shard_deaths, requeues, rail_receives) = sweep(1, 0x5eed_0001);
    // A kill at claim ordinal N cannot fire on queries that finish
    // earlier, but across 48 runs the victim must have died many times —
    // otherwise the sweep proves nothing.
    assert!(deaths >= 16, "only {deaths} warp deaths across the sweep");
    assert!(shard_deaths >= 4, "only {shard_deaths} whole-shard deaths");
    assert!(requeues > 0, "no reclaimed work ever crossed the rail");
    assert!(rail_receives > 0, "survivors never received rail work");
}

/// Three of four shards die; the lone survivor (plus recovery rounds for
/// what the dead shards left) must still land every golden number.
#[test]
fn three_of_four_shard_death_keeps_counts_exact() {
    let (deaths, shard_deaths, requeues, rail_receives) = sweep(3, 0x5eed_0003);
    assert!(deaths >= 48, "only {deaths} warp deaths across the sweep");
    assert!(shard_deaths >= 12, "only {shard_deaths} whole-shard deaths");
    assert!(requeues > 0, "no reclaimed work ever crossed the rail");
    assert!(rail_receives > 0, "survivors never received rail work");
}

/// A shard killed at its first claim leaves the rest of its slice
/// untouched, and no sibling may take it: a recovery round must finish it,
/// count-exact.
#[test]
fn a_dead_shards_untouched_slice_is_finished_by_a_recovery_round() {
    let g = unlabeled_graph();
    let q = catalog::paper_query(6);
    // One warp per shard over equal slices (12 roots, three chunks): the
    // victim claims one chunk, dies, and never touches the rest.
    let mut cfg = sharded_cfg(4);
    cfg.grid.num_blocks = 1;
    cfg.grid.warps_per_block = 1;
    cfg.shard.work_aware = false;
    let out = Engine::new(cfg)
        .with_fault_plan(FaultPlan::new().shard_kill_at(0, 1))
        .run_sharded(&g, &q)
        .unwrap();
    assert_eq!(out.outcome.count, 2_884);
    assert_eq!(out.rail.shard_deaths, 1);
    assert!(
        !out.degradations.is_empty(),
        "the untouched slice needs a recovery round"
    );
    assert!(out.outcome.fault.as_ref().unwrap().fully_recovered());
    assert!(out.unfinished.is_empty());
}

/// Every shard dies, so round 0 strands the whole rail: the ladder must
/// halve the shard count, then (with the retry budget exhausted) fall back
/// to the cold single grid — and the count must still be exact, with a
/// deterministic `SHARD_KILLS=` line naming the hand-built kills.
#[test]
fn recovery_ladder_reaches_single_grid_and_stays_exact() {
    let g = unlabeled_graph();
    let q = catalog::paper_query(6);
    let cfg = sharded_cfg(4);
    let kill_all = FaultPlan::new()
        .shard_kill_at(0, 1)
        .shard_kill_at(1, 1)
        .shard_kill_at(2, 1)
        .shard_kill_at(3, 1);

    let out = Engine::new(cfg)
        .with_fault_plan(kill_all.clone())
        .run_sharded(&g, &q)
        .unwrap();
    assert_eq!(out.outcome.count, 2_884, "q6 must survive total shard loss");
    assert!(out.recovery_rounds >= 1);
    assert_eq!(
        out.degradations.first(),
        Some(&ShardStep::FewerShards { from: 4, to: 2 }),
        "ladder must halve before falling back"
    );
    assert!(out.outcome.fault.as_ref().unwrap().fully_recovered());
    let line = out
        .reproduce
        .expect("hand-built kills need a reproduce line");
    assert!(line.contains("SHARD_KILLS="), "got {line:?}");

    // With the retry budget zeroed the ladder skips straight to the cold
    // single-grid fallback.
    let mut cold = sharded_cfg(4);
    cold.recovery = RecoveryPolicy {
        shard_retries: 0,
        ..RecoveryPolicy::default()
    };
    let out = Engine::new(cold)
        .with_fault_plan(kill_all)
        .run_sharded(&g, &q)
        .unwrap();
    assert_eq!(out.outcome.count, 2_884);
    assert_eq!(out.degradations, vec![ShardStep::SingleGrid]);
    assert_eq!(out.recovery_rounds, 1);
}

/// Partitioning mode is count-invariant: contiguous splits (including a
/// shard count that does not divide the domain) land the same golden
/// numbers as the default work-aware split.
#[test]
fn contiguous_partitioning_is_count_invariant() {
    let g = unlabeled_graph();
    for &(qi, want, _) in GOLDEN
        .iter()
        .filter(|(qi, ..)| matches!(qi, 1 | 6 | 9 | 12))
    {
        let q = catalog::paper_query(qi);
        for shards in [3, 4] {
            let mut cfg = sharded_cfg(shards);
            cfg.shard.work_aware = false;
            let out = Engine::new(cfg).run_sharded(&g, &q).unwrap();
            assert_eq!(out.outcome.count, want, "q{qi} contiguous x{shards}");
        }
    }
}

/// The multi-device configuration (`--devices 4`: one shard per device
/// over the static split) is exact, reports every device, and stays exact
/// with a reproduce line when a device dies — the dead device's slice is
/// drained by the recovery ladder.
#[test]
fn static_multi_device_split_is_exact_and_recovers() {
    let g = unlabeled_graph();
    let q = catalog::paper_query(6);
    let cfg = sharded_cfg(4);

    let out = Engine::new(cfg).run_sharded(&g, &q).unwrap();
    assert_eq!(out.outcome.count, 2_884);
    assert_eq!(out.per_shard.len(), 4);
    assert!(out.unfinished.is_empty());

    let out = Engine::new(cfg)
        .with_fault_plan(FaultPlan::seeded_shard_kill(0xfade, 4, 1))
        .run_sharded(&g, &q)
        .unwrap();
    assert_eq!(out.outcome.count, 2_884);
    assert!(out.unfinished.is_empty());
    if let Some(report) = &out.outcome.fault {
        assert!(report.fully_recovered());
        if !report.deaths.is_empty() {
            assert!(out.reproduce.is_some());
        }
    }
}

/// A sharded run cut short by its deadline is partial but auditable: it
/// returns `Ok` flagged `timed_out`, counts no more than the full run, and
/// lists the level-0 ranges it never claimed — disjoint, inside the
/// domain.
#[test]
fn timed_out_sharded_run_lists_unfinished_ranges() {
    // Warps read the clock every 4096 claims, so even a zero budget lets
    // each warp work through its first claims: the domain must be wide
    // enough (8000 roots, >= 7 claims each, against 4 single-warp grids)
    // that most of it is still on the rail when the deadline is noticed.
    let g = gen::preferential_attachment(8000, 3, 5).degree_ordered();
    let q = catalog::triangle();
    let full = Engine::new(EngineConfig::default().with_grid(grid_2x2()))
        .run(&g, &q)
        .unwrap()
        .count;
    let mut cfg = sharded_cfg(4);
    cfg.grid.num_blocks = 1;
    cfg.grid.warps_per_block = 1;
    let out = Engine::new(cfg)
        .with_timeout(std::time::Duration::ZERO)
        .run_sharded(&g, &q)
        .unwrap();
    assert!(out.outcome.timed_out);
    assert!(out.outcome.count <= full);
    assert!(!out.unfinished.is_empty(), "the rail cannot have drained");
    let mut ranges = out.unfinished.clone();
    ranges.sort_unstable();
    assert!(ranges.iter().all(|&(lo, hi)| lo < hi));
    assert!(ranges.windows(2).all(|w| w[0].1 <= w[1].0), "{ranges:?}");
    assert!(ranges.last().unwrap().1 <= g.num_vertices());
}
