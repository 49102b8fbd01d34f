//! `check service` (`ci.sh` phase `smoke:service`): re-proves the resident
//! [`MatchService`]'s core contracts in seconds and fails on any
//! violation:
//!
//! * cold and plan-cache-hit submissions reproduce the pinned golden
//!   counts of `tests/golden_counts.rs`;
//! * under the deterministic naive schedule, a cache-hit warm run is
//!   *metric*-exact against the one-shot cold `Engine::run` (identical
//!   instruction totals and launch shape);
//! * a query carrying injected warp deaths recovers to the exact count
//!   with a `FaultReport`, while concurrent healthy queries stay exact;
//! * an expired deadline fails per-query without poisoning the pool.

use crate::fixture;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use stmatch_core::{
    Engine, EngineConfig, FaultPlan, MatchService, QueryOptions, ServiceConfig, ServiceError,
};
use stmatch_gpusim::GridConfig;
use stmatch_pattern::catalog;

fn grid() -> GridConfig {
    crate::grid(2, 2)
}

/// `(query, edge-induced golden)` — the cheap rows of
/// `tests/golden_counts.rs`, big enough to exercise stealing, small
/// enough to run hundreds of times.
const GOLDEN: &[(usize, u64)] = &[
    (1, 119531),
    (4, 34587),
    (6, 2884),
    (7, 88),
    (8, 4),
    (10, 31430),
    (11, 967),
    (14, 621),
    (15, 3),
    (21, 1294),
    (22, 78),
];

pub fn run(args: &[String]) -> ExitCode {
    if let Err(code) = crate::flag("service", args, &[]) {
        return code;
    }
    let mut ok = gate_counts();
    ok &= gate_metric_exact();
    ok &= gate_faults_and_deadlines();
    if ok {
        println!("service: OK");
    } else {
        eprintln!("service: FAILED");
    }
    crate::exit_code(ok)
}

/// Cold + cache-hit counts against the goldens, plus cache accounting.
fn gate_counts() -> bool {
    let svc = MatchService::new(
        Arc::new(fixture()),
        ServiceConfig::new(EngineConfig::default().with_grid(grid())).with_workers(2),
    );
    let mut ok = true;
    for &(qi, want) in GOLDEN {
        let q = catalog::paper_query(qi);
        for leg in ["cold", "hit"] {
            match svc.submit(&q, QueryOptions::default()) {
                Ok(out) if out.count == want => {}
                Ok(out) => {
                    eprintln!("counts q{qi} {leg}: got {} want {want}", out.count);
                    ok = false;
                }
                Err(e) => {
                    eprintln!("counts q{qi} {leg}: error {e}");
                    ok = false;
                }
            }
        }
    }
    let stats = svc.cache_stats();
    if stats.hits != GOLDEN.len() as u64 {
        eprintln!(
            "counts: expected {} cache hits, saw {}",
            GOLDEN.len(),
            stats.hits
        );
        ok = false;
    }
    println!(
        "gate:counts OK ({} queries cold+hit, cache {} hits / {} misses / {} entries)",
        GOLDEN.len(),
        stats.hits,
        stats.misses,
        stats.entries
    );
    ok
}

/// Cache-hit warm runs must be metric-exact against the cold engine
/// under the deterministic naive schedule.
fn gate_metric_exact() -> bool {
    let cfg = EngineConfig::naive().with_grid(grid());
    let graph = fixture();
    let svc = MatchService::new(Arc::new(fixture()), ServiceConfig::new(cfg).with_workers(1));
    let mut ok = true;
    for qi in [4usize, 6, 10] {
        let q = catalog::paper_query(qi);
        let oracle = Engine::new(cfg).run(&graph, &q).expect("oracle run");
        let _prime = svc.submit(&q, QueryOptions::default()).expect("prime");
        let warm = svc.submit(&q, QueryOptions::default()).expect("warm");
        let same = warm.count == oracle.count
            && warm.total_instructions() == oracle.total_instructions()
            && warm.num_sets == oracle.num_sets
            && warm.stack_bytes == oracle.stack_bytes
            && warm.shared_bytes_per_block == oracle.shared_bytes_per_block
            && warm.spill_events == oracle.spill_events;
        if !same {
            eprintln!(
                "metric q{qi}: warm (count {}, instr {}) != oracle (count {}, instr {})",
                warm.count,
                warm.total_instructions(),
                oracle.count,
                oracle.total_instructions()
            );
            ok = false;
        }
    }
    println!("gate:metric OK (naive-schedule cache-hit runs metric-exact vs cold Engine::run)");
    ok
}

/// Fault and deadline isolation: per-query failure, shared pool intact.
fn gate_faults_and_deadlines() -> bool {
    let svc = MatchService::new(
        Arc::new(fixture()),
        ServiceConfig::new(EngineConfig::default().with_grid(grid())).with_workers(2),
    );
    let q = catalog::paper_query(6);
    let golden = 2884u64;
    let mut ok = true;

    // Fault leg: panic *every* warp at its first claim. Targeting one
    // warp is schedule-dependent in release — the fixture is small
    // enough that a fast warp can drain all chunks before its siblings
    // ever claim — but *some* warp always claims first, so this plan
    // guarantees at least one death, and the salvage relaunch (injection
    // disabled) recovers the exact count.
    let mut death_plan = FaultPlan::new();
    for w in 0..grid().total_warps() {
        death_plan = death_plan.panic_at(w, 1);
    }
    let faulty = svc.enqueue(
        &q,
        QueryOptions {
            fault_plan: Some(death_plan),
            ..QueryOptions::default()
        },
    );
    let healthy = svc.enqueue(&q, QueryOptions::default());
    match faulty.wait() {
        Ok(out) => {
            let report = out.fault.as_ref();
            if out.count != golden || report.is_none_or(|r| r.deaths.is_empty()) {
                eprintln!(
                    "fault leg: count {} (want {golden}), report {report:?}",
                    out.count
                );
                ok = false;
            }
        }
        Err(e) => {
            eprintln!("fault leg: error {e}");
            ok = false;
        }
    }
    match healthy.wait() {
        Ok(out) if out.count == golden && out.fault.is_none() => {}
        other => {
            eprintln!("fault leg neighbour: {other:?}");
            ok = false;
        }
    }

    // Deadline leg: every warp stalled past a short deadline.
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
        Err(ServiceError::DeadlineExceeded { partial: Some(out) }) if out.timed_out => {}
        other => {
            eprintln!("deadline leg: expected mid-run expiry, got {other:?}");
            ok = false;
        }
    }
    // The pool survives both storms.
    match svc.submit(&q, QueryOptions::default()) {
        Ok(out) if out.count == golden => {}
        other => {
            eprintln!("post-storm query: {other:?}");
            ok = false;
        }
    }
    println!("gate:faults OK (deaths recovered exactly, deadline failed per-query, pool intact)");
    ok
}
