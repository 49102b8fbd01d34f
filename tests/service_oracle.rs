//! Service-vs-oracle equivalence: every admission path of the resident
//! [`MatchService`] — cold (plan compiled), plan-cache hit, and batched
//! concurrent submission — must produce counts exactly equal to the
//! one-shot [`Engine::run`] golden oracle for q1..q24 on both fixture
//! graphs of `tests/golden_counts.rs`. The pinned numbers ARE the
//! `Engine::run` results (that file re-derives them every CI run), so
//! comparing against the table is comparing against the oracle without
//! paying for a second live sweep.
//!
//! A separate leg pins *metric* exactness: under the deterministic naive
//! schedule, a cache-hit service run must reproduce the cold `Engine::run`
//! outcome field for field — same instruction totals, same launch shape —
//! proving the warm path (recycled arenas, parked warp threads, cached
//! plan) changes where the work runs, not what work runs.

use std::sync::Arc;
use stmatch_core::{Engine, EngineConfig, MatchService, QueryOptions, ServiceConfig};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, Graph};
use stmatch_pattern::catalog;

fn grid() -> GridConfig {
    GridConfig {
        num_blocks: 2,
        warps_per_block: 2,
        shared_mem_per_block: 100 * 1024,
    }
}

fn unlabeled_graph() -> Graph {
    gen::preferential_attachment(48, 4, 3).degree_ordered()
}

fn labeled_graph() -> Graph {
    gen::assign_random_labels(&gen::rmat(6, 4, 11).degree_ordered(), 10, 2022)
}

/// `(query, edge-induced, vertex-induced, labeled)` — kept in lockstep
/// with `tests/golden_counts.rs` (which re-derives these from
/// `Engine::run` every run).
const GOLDEN: &[(usize, u64, u64, u64)] = &[
    (1, 119531, 17771, 92),
    (2, 5176, 633, 0),
    (3, 9200, 1568, 0),
    (4, 34587, 5603, 12),
    (5, 1486, 524, 0),
    (6, 2884, 617, 7),
    (7, 88, 48, 0),
    (8, 4, 4, 0),
    (9, 915277, 40034, 4),
    (10, 31430, 1021, 2),
    (11, 967, 20, 0),
    (12, 258862, 10979, 14),
    (13, 155617, 12324, 3),
    (14, 621, 40, 0),
    (15, 3, 3, 0),
    (16, 0, 0, 0),
    (17, 6605944, 73704, 0),
    (18, 186933, 1477, 0),
    (19, 1783390, 16736, 12),
    (20, 129, 0, 0),
    (21, 1294, 15, 0),
    (22, 78, 0, 0),
    (23, 0, 0, 0),
    (24, 0, 0, 0),
];

fn service(graph: Graph) -> MatchService {
    MatchService::new(
        Arc::new(graph),
        ServiceConfig::new(EngineConfig::default().with_grid(grid())).with_workers(2),
    )
}

/// Cold then hot on the unlabeled fixture: the first submission of each
/// query compiles (miss), the second must hit the cache — both paths
/// count-exact against the oracle for all 24 queries.
#[test]
fn cold_and_cache_hit_paths_match_oracle_unlabeled() {
    let svc = service(unlabeled_graph());
    for &(qi, edge_induced, _, _) in GOLDEN {
        let q = catalog::paper_query(qi);
        let cold = svc.submit(&q, QueryOptions::default()).unwrap();
        assert_eq!(cold.count, edge_induced, "cold q{qi}");
        let hot = svc.submit(&q, QueryOptions::default()).unwrap();
        assert_eq!(hot.count, edge_induced, "cache-hit q{qi}");
    }
    let stats = svc.cache_stats();
    assert_eq!(stats.hits, 24, "every second submission must hit");
    // Some paper queries are isomorphic to each other, so entries can be
    // below 24 — but never above, and every miss compiled at most once.
    assert!(stats.entries <= 24);
    assert_eq!(stats.misses as usize, stats.entries);
}

/// Same cold/hot discipline on the labeled fixture with the Table-3 label
/// derivation.
#[test]
fn cold_and_cache_hit_paths_match_oracle_labeled() {
    let svc = service(labeled_graph());
    for &(qi, _, _, labeled) in GOLDEN {
        let q = catalog::paper_query(qi).with_random_labels(10, qi as u64);
        let cold = svc.submit(&q, QueryOptions::default()).unwrap();
        assert_eq!(cold.count, labeled, "cold labeled q{qi}");
        let hot = svc.submit(&q, QueryOptions::default()).unwrap();
        assert_eq!(hot.count, labeled, "cache-hit labeled q{qi}");
    }
    assert_eq!(svc.cache_stats().hits, 24);
}

/// Batched-concurrent admission, unlabeled: all 24 queries enqueued at
/// once from four client threads, drained in batches by two workers onto
/// shared warm slots — every count still oracle-exact. The vertex-induced
/// semantics ride along via the per-query override, so this also proves
/// option plumbing through admission.
#[test]
fn batched_concurrent_submissions_match_oracle_unlabeled() {
    let svc = service(unlabeled_graph());
    let svc = &svc;
    std::thread::scope(|s| {
        for chunk in GOLDEN.chunks(6) {
            s.spawn(move || {
                for &(qi, edge_induced, vertex_induced, _) in chunk {
                    let q = catalog::paper_query(qi);
                    let edge = svc.enqueue(&q, QueryOptions::default());
                    let vertex = svc.enqueue(
                        &q,
                        QueryOptions {
                            induced: Some(true),
                            ..QueryOptions::default()
                        },
                    );
                    assert_eq!(edge.wait().unwrap().count, edge_induced, "edge q{qi}");
                    assert_eq!(vertex.wait().unwrap().count, vertex_induced, "vertex q{qi}");
                }
            });
        }
    });
}

/// Batched-concurrent admission on the labeled fixture.
#[test]
fn batched_concurrent_submissions_match_oracle_labeled() {
    let svc = service(labeled_graph());
    let svc = &svc;
    std::thread::scope(|s| {
        for chunk in GOLDEN.chunks(6) {
            s.spawn(move || {
                for &(qi, _, _, labeled) in chunk {
                    let q = catalog::paper_query(qi).with_random_labels(10, qi as u64);
                    let got = svc.submit(&q, QueryOptions::default()).unwrap();
                    assert_eq!(got.count, labeled, "concurrent labeled q{qi}");
                }
            });
        }
    });
}

/// Metric exactness on the cache-hit path: under the deterministic naive
/// schedule (no stealing, so instruction totals are schedule-independent)
/// a warm cache-hit run must reproduce the cold `Engine::run` outcome
/// field for field — count, instruction totals, launch geometry, spills.
#[test]
fn cache_hit_path_is_metric_exact_against_cold_engine() {
    let cfg = EngineConfig::naive().with_grid(grid());
    let graph = unlabeled_graph();
    let svc = MatchService::new(
        Arc::new(unlabeled_graph()),
        ServiceConfig::new(cfg).with_workers(1),
    );
    for qi in [1usize, 4, 6, 9, 12] {
        let q = catalog::paper_query(qi);
        let oracle = Engine::new(cfg).run(&graph, &q).unwrap();
        // Prime the cache, then take the measured (hit) run.
        svc.submit(&q, QueryOptions::default()).unwrap();
        let warm = svc.submit(&q, QueryOptions::default()).unwrap();
        assert_eq!(warm.count, oracle.count, "q{qi} count");
        // Note: only the *total* is schedule-independent — which warp
        // claims which chunk is a thread-timing artifact even in naive
        // mode, so per-warp maxima (simulated_cycles) may differ.
        assert_eq!(
            warm.total_instructions(),
            oracle.total_instructions(),
            "q{qi} instruction total"
        );
        assert_eq!(warm.num_sets, oracle.num_sets, "q{qi} num_sets");
        assert_eq!(warm.stack_bytes, oracle.stack_bytes, "q{qi} stack bytes");
        assert_eq!(
            warm.shared_bytes_per_block, oracle.shared_bytes_per_block,
            "q{qi} shared bytes"
        );
        assert_eq!(warm.spill_events, oracle.spill_events, "q{qi} spills");
        assert_eq!(warm.metrics.kernel_launches, oracle.metrics.kernel_launches);
        assert!(warm.fault.is_none() && !warm.timed_out);
    }
}
