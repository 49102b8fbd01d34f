//! Fault isolation on the resident service: queries carrying injected
//! warp deaths or expired deadlines fail (or recover) *per query*, while
//! concurrently admitted healthy queries on the same engine keep
//! returning exact counts — the shared grids, arenas, and plan cache are
//! never poisoned by a neighbour's death.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use stmatch_core::{
    Engine, EngineConfig, FaultPlan, MatchService, QueryOptions, ServiceConfig, ServiceError,
};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, EdgeOp, Graph};
use stmatch_pattern::catalog;

fn grid() -> GridConfig {
    GridConfig {
        num_blocks: 2,
        warps_per_block: 2,
        shared_mem_per_block: 100 * 1024,
    }
}

fn fixture_graph() -> Graph {
    gen::erdos_renyi(48, 192, 7).degree_ordered()
}

fn service() -> (MatchService, u64) {
    let graph = fixture_graph();
    let q = catalog::paper_query(6); // bowtie
    let oracle = Engine::new(EngineConfig::default().with_grid(grid()))
        .run(&graph, &q)
        .unwrap()
        .count;
    assert!(oracle > 0, "fixture must be non-trivial");
    let svc = MatchService::new(
        Arc::new(graph),
        ServiceConfig::new(EngineConfig::default().with_grid(grid())).with_workers(2),
    );
    (svc, oracle)
}

/// Injected warp deaths riding on one query recover to the exact count
/// (PR3 containment) and surface in that query's `FaultReport` — while
/// healthy queries admitted concurrently on the same pool stay exact and
/// fault-free.
#[test]
fn injected_deaths_are_contained_per_query() {
    let (svc, oracle) = service();
    let q = catalog::paper_query(6);
    let faulty_opts = QueryOptions {
        fault_plan: Some(FaultPlan::seeded(0xBEEF, grid().total_warps(), 2, 1)),
        ..QueryOptions::default()
    };
    let svc_ref = &svc;
    std::thread::scope(|s| {
        let faulty = s.spawn(move || svc_ref.submit(&q, faulty_opts));
        let healthy: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(move || svc_ref.submit(&catalog::paper_query(6), QueryOptions::default()))
            })
            .collect();
        let out = faulty
            .join()
            .unwrap()
            .expect("faulted query still completes");
        assert_eq!(out.count, oracle, "deaths recover to the exact count");
        let report = out.fault.expect("deaths must be reported");
        assert!(!report.deaths.is_empty(), "seeded plan kills warps");
        assert!(report.fully_recovered(), "all requeued work was drained");
        for h in healthy {
            let out = h.join().unwrap().expect("healthy query");
            assert_eq!(out.count, oracle, "neighbour unaffected");
            assert!(out.fault.is_none(), "no fault bleed-through");
        }
    });
    // The pool survives: one more query after the storm, still exact.
    let after = svc
        .submit(&catalog::paper_query(6), QueryOptions::default())
        .unwrap();
    assert_eq!(after.count, oracle);
    assert!(after.fault.is_none());
}

/// A deadline no clock can reach is no deadline: on a delta service the
/// query runs to its exact count, its cache miss's estimate included, and
/// the worker survives to serve the next query.
#[test]
fn an_unreachable_deadline_is_none() {
    let graph = gen::preferential_attachment(40, 3, 5).degree_ordered();
    let cfg = EngineConfig::default().with_grid(grid()).with_delta(true);
    let svc = MatchService::new(
        Arc::new(graph.clone()),
        ServiceConfig::new(cfg).with_workers(1),
    );
    let opts = QueryOptions {
        deadline: Some(Duration::MAX),
        ..QueryOptions::default()
    };
    for q in [catalog::triangle(), catalog::paper_query(4)] {
        let want = Engine::new(cfg).run(&graph, &q).unwrap().count;
        assert_eq!(svc.submit(&q, opts.clone()).unwrap().count, want);
    }
}

/// A deadline that expires while the query is stalled mid-run cancels
/// cooperatively: the query reports `DeadlineExceeded` with a partial
/// outcome, and the same engine then serves an exact healthy query.
#[test]
fn mid_run_deadline_returns_timeout_without_poisoning_pool() {
    let (svc, oracle) = service();
    let q = catalog::paper_query(6);
    // Stall every warp's first claim far past the deadline: the run
    // cannot finish inside 40ms regardless of scheduling.
    let mut plan = FaultPlan::new();
    for w in 0..grid().total_warps() {
        plan = plan.stall_at(w, 1, Duration::from_millis(250));
    }
    let opts = QueryOptions {
        deadline: Some(Duration::from_millis(40)),
        fault_plan: Some(plan),
        ..QueryOptions::default()
    };
    match svc.submit(&q, opts) {
        Err(ServiceError::DeadlineExceeded { partial: Some(out) }) => {
            assert!(out.timed_out);
            assert!(out.count <= oracle, "partial count is a lower bound");
        }
        other => panic!("expected mid-run deadline expiry, got {other:?}"),
    }
    // Expired-in-queue: a zero deadline can never launch.
    let expired = QueryOptions {
        deadline: Some(Duration::ZERO),
        ..QueryOptions::default()
    };
    match svc.submit(&q, expired) {
        Err(ServiceError::DeadlineExceeded { partial: None }) => {}
        other => panic!("expected queued deadline expiry, got {other:?}"),
    }
    // Same pool, next query: exact.
    let after = svc.submit(&q, QueryOptions::default()).unwrap();
    assert_eq!(after.count, oracle);
}

/// Deadlines and faults on *different* queries admitted in the same
/// batch never cross-contaminate: each reply matches its own options.
#[test]
fn mixed_batch_keeps_per_query_outcomes() {
    let (svc, oracle) = service();
    let q = catalog::paper_query(6);
    // Every warp dies at its first claim: whichever warps the host lets
    // reach the work die, so at least one death is certain (a fault pinned
    // to one warp never fires when its siblings drain the grid first).
    let deaths = (0..grid().total_warps()).fold(FaultPlan::new(), |p, w| p.panic_at(w, 1));
    let faulty = svc.enqueue(
        &q,
        QueryOptions {
            fault_plan: Some(deaths),
            ..QueryOptions::default()
        },
    );
    let expired = svc.enqueue(
        &q,
        QueryOptions {
            deadline: Some(Duration::ZERO),
            ..QueryOptions::default()
        },
    );
    let healthy = svc.enqueue(&q, QueryOptions::default());
    let out = faulty.wait().expect("death recovers");
    assert_eq!(out.count, oracle);
    assert!(!out.fault.expect("reported").deaths.is_empty());
    assert!(matches!(
        expired.wait(),
        Err(ServiceError::DeadlineExceeded { partial: None })
    ));
    let out = healthy.wait().expect("healthy");
    assert_eq!(out.count, oracle);
    assert!(out.fault.is_none());
}

/// A watcher whose callback panics on every event is contained like a
/// panicking query: `apply_batch` still returns the batch, the watcher
/// registered after it still receives this batch's exact delta, and the
/// next batch is served the same way (the bad watcher stays registered).
#[test]
fn panicking_watch_callback_is_contained() {
    let graph = fixture_graph();
    let absent: Vec<(u32, u32)> = (0..48u32)
        .flat_map(|u| (u + 1..48).map(move |v| (u, v)))
        .filter(|&(u, v)| !graph.has_edge(u, v))
        .take(2)
        .collect();
    let cfg = EngineConfig::default().with_grid(grid()).with_delta(true);
    let svc = MatchService::new(Arc::new(graph), ServiceConfig::new(cfg));
    let q = catalog::triangle();
    let mut running = svc.submit(&q, QueryOptions::default()).unwrap().count as i64;

    let bad_calls = Arc::new(AtomicU64::new(0));
    let calls = Arc::clone(&bad_calls);
    svc.submit_watch(&q, move |_| {
        // Relaxed: a plain call counter read after apply_batch returns on
        // this same thread.
        calls.fetch_add(1, Ordering::Relaxed);
        panic!("bad subscriber");
    });
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    svc.submit_watch(&q, move |e| sink.lock().unwrap().push(e));

    for (i, &(u, v)) in absent.iter().enumerate() {
        let batch = svc.apply_batch(&[EdgeOp::insert(u, v)]);
        assert_eq!(batch.inserts, vec![(u, v)], "the batch is returned");
        assert_eq!(bad_calls.load(Ordering::Relaxed), i as u64 + 1);
        let seen = events.lock().unwrap();
        assert_eq!(seen.len(), i + 1, "the later watcher is not starved");
        assert_eq!(seen[i].version, batch.version);
        running += seen[i].delta.clone().expect("delta computed").net();
        drop(seen);
        let full = svc.submit(&q, QueryOptions::default()).unwrap().count;
        assert_eq!(running, full as i64, "delta of batch {i} is exact");
    }
}
