//! Sharded-execution golden sweep: the q1..q24 paper evaluation set must
//! produce *exact* golden counts on both pinned fixture graphs when the
//! domain is split across shard grids — clean, under whole-shard death
//! (1-of-4 and 3-of-4 victims, and every shard), and as the static
//! multi-device split `--devices N` runs (DESIGN.md §4i).
//!
//! The contract under test: each shard is one grid of the launch, over
//! its own slice; a shard whose warps all die finishes its reclaimed stacks
//! and the rest of its slice in its own injection-free salvage pass — no
//! match lost, none counted twice, and every shard-death report carries a
//! deterministic reproduce line.

use stmatch_core::{Engine, EngineConfig, FaultPlan, MatchOutcome};
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
/// threads total — enough for stealing inside each shard, small enough
/// that 24-query sweeps stay fast.
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

/// True when every warp of the shard's grid died: the whole shard did.
fn whole_shard_died(shard: &MatchOutcome) -> bool {
    shard
        .fault
        .as_ref()
        .is_some_and(|f| f.deaths.len() >= grid_2x2().total_warps())
}

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
/// on a clean sweep that every shard did work on its own slice. Returns
/// accumulated (warp deaths, whole-shard deaths, salvage launches) for the
/// caller's vacuity guards.
fn sweep(kills: usize, seed: u64) -> (usize, usize, u32) {
    let mut deaths = 0usize;
    let mut shard_deaths = 0usize;
    let mut salvages = 0u32;
    for (graph, labeled) in [(unlabeled_graph(), false), (labeled_graph(), true)] {
        for (qi, q, want) in queries(labeled) {
            let mut engine = Engine::new(sharded_cfg(4));
            if kills > 0 {
                engine = engine.with_fault_plan(FaultPlan::seeded_shard_kill(seed, 4, kills));
            }
            let out = engine.run(&graph, &q).unwrap();
            assert_eq!(
                out.count, want,
                "q{qi} labeled={labeled} kills={kills}: sharded count drifted from golden"
            );
            assert!(!out.timed_out, "q{qi}: sharded run must terminate");
            assert_eq!(out.shards.len(), 4, "q{qi}: must report every shard");
            if kills == 0 {
                assert!(
                    out.shards.iter().all(|s| s.total_instructions() > 0),
                    "q{qi} labeled={labeled}: a shard did no work"
                );
            }
            let dead = out.shards.iter().filter(|s| whole_shard_died(s)).count();
            if let Some(report) = &out.fault {
                deaths += report.deaths.len();
                salvages += report.salvage_launches;
                assert_eq!(report.escaped_panics, 0, "q{qi}: containment must hold");
                assert!(report.fully_recovered(), "q{qi}: work left stranded");
                if !report.deaths.is_empty() {
                    let line = report.reproduce.as_deref();
                    assert!(
                        line.is_some_and(|l| l.contains("FAULT_SEED")),
                        "q{qi}: a seeded kill must reproduce by seed, got {line:?}"
                    );
                }
            } else {
                assert_eq!(dead, 0, "q{qi}: deaths without a report");
            }
            shard_deaths += dead;
        }
    }
    (deaths, shard_deaths, salvages)
}

/// Clean 4-shard sweep: every golden number exact on both fixtures, no
/// fault bookkeeping, and every shard at work on its own slice.
#[test]
fn clean_sharded_sweep_matches_golden_on_both_fixtures() {
    let (deaths, shard_deaths, _salvages) = sweep(0, 0);
    assert_eq!(deaths, 0, "clean sweep must not report deaths");
    assert_eq!(shard_deaths, 0);
}

/// One of four shards dies mid-run on every query; its own salvage pass
/// re-runs its reclaimed subtrees and the rest of its slice.
#[test]
fn one_of_four_shard_death_keeps_counts_exact() {
    let (deaths, shard_deaths, salvages) = sweep(1, 0x5eed_0001);
    // A kill at claim ordinal N cannot fire on queries that finish
    // earlier, but across 48 runs the victim must have died many times —
    // otherwise the sweep proves nothing.
    assert!(deaths >= 16, "only {deaths} warp deaths across the sweep");
    assert!(shard_deaths >= 4, "only {shard_deaths} whole-shard deaths");
    assert!(salvages > 0, "no dead shard ever ran a salvage pass");
}

/// Three of four shards die; each salvages itself beside the lone
/// survivor, and every golden number must still land.
#[test]
fn three_of_four_shard_death_keeps_counts_exact() {
    let (deaths, shard_deaths, salvages) = sweep(3, 0x5eed_0003);
    assert!(deaths >= 48, "only {deaths} warp deaths across the sweep");
    assert!(shard_deaths >= 12, "only {shard_deaths} whole-shard deaths");
    assert!(salvages > 0, "no dead shard ever ran a salvage pass");
}

/// A shard killed at its first claim leaves the rest of its slice
/// untouched, and no sibling may take it: the dead shard's own salvage
/// pass must finish it, count-exact, while the other shards run clean.
#[test]
fn a_dead_shard_finishes_its_own_slice_in_a_salvage_pass() {
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
        .run(&g, &q)
        .unwrap();
    assert_eq!(out.count, 2_884);
    let victim = out.shards[0].fault.as_ref().expect("shard 0 died");
    assert_eq!(victim.deaths.len(), 1, "its one warp died");
    assert!(
        victim.salvage_launches > 0,
        "the untouched slice needs a salvage pass"
    );
    assert!(victim.fully_recovered());
    assert!(
        out.shards[1..].iter().all(|s| s.fault.is_none()),
        "the other three shards run clean"
    );
}

/// Every shard dies, so no live grid is left to take anything: each shard
/// must salvage itself, the count must still be exact, and a deterministic
/// `SHARD_KILLS=` line must name the hand-built kills.
#[test]
fn every_dead_shard_salvages_itself_and_stays_exact() {
    let g = unlabeled_graph();
    let q = catalog::paper_query(6);
    let kill_all = FaultPlan::new()
        .shard_kill_at(0, 1)
        .shard_kill_at(1, 1)
        .shard_kill_at(2, 1)
        .shard_kill_at(3, 1);
    let out = Engine::new(sharded_cfg(4))
        .with_fault_plan(kill_all)
        .run(&g, &q)
        .unwrap();
    assert_eq!(out.count, 2_884, "q6 must survive total shard loss");
    for (s, shard) in out.shards.iter().enumerate() {
        assert!(whole_shard_died(shard), "shard {s} must die");
        let report = shard.fault.as_ref().unwrap();
        assert!(report.salvage_launches > 0, "shard {s} must salvage itself");
    }
    let report = out.fault.expect("every shard died");
    assert!(report.fully_recovered());
    let line = report
        .reproduce
        .expect("hand-built kills need a reproduce line");
    assert!(line.contains("SHARD_KILLS="), "got {line:?}");
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
            let out = Engine::new(cfg).run(&g, &q).unwrap();
            assert_eq!(out.count, want, "q{qi} contiguous x{shards}");
        }
    }
}

/// The multi-device configuration (`--devices 4`: one shard per device
/// over the static split) is exact, reports every device, and stays exact
/// with a reproduce line when a device dies — the dead device's slice is
/// finished by its own salvage pass.
#[test]
fn static_multi_device_split_is_exact_and_recovers() {
    let g = unlabeled_graph();
    let q = catalog::paper_query(6);
    let cfg = sharded_cfg(4);

    let out = Engine::new(cfg).run(&g, &q).unwrap();
    assert_eq!(out.count, 2_884);
    assert_eq!(out.shards.len(), 4);

    let out = Engine::new(cfg)
        .with_fault_plan(FaultPlan::seeded_shard_kill(0xfade, 4, 1))
        .run(&g, &q)
        .unwrap();
    assert_eq!(out.count, 2_884);
    if let Some(report) = &out.fault {
        assert!(report.fully_recovered());
        if !report.deaths.is_empty() {
            assert!(report.reproduce.is_some());
        }
    }
}

/// A sharded run cut short by its deadline keeps the single-grid
/// partial-count contract: it returns `Ok` flagged `timed_out`, counts no
/// more than the full run, and still reports every shard.
#[test]
fn timed_out_sharded_run_keeps_the_partial_count_contract() {
    // Warps read the clock every 4096 claims, so even a zero budget lets
    // each warp work through its first claims: the domain must be wide
    // enough (8000 roots, >= 7 claims each, against 4 single-warp grids)
    // that the deadline is noticed before the slices drain.
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
        .run(&g, &q)
        .unwrap();
    assert!(out.timed_out);
    assert!(out.count <= full);
    assert_eq!(out.shards.len(), 4);
}
