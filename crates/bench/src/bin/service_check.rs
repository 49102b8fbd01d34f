//! CI gate + stress bench for the resident [`MatchService`] (`ci.sh`
//! phase `smoke:service`).
//!
//! Default mode re-proves the service's core contracts in seconds and
//! exits 1 on any violation:
//!
//! * cold and plan-cache-hit submissions reproduce the pinned golden
//!   counts of `tests/golden_counts.rs`;
//! * under the deterministic naive schedule, a cache-hit warm run is
//!   *metric*-exact against the one-shot cold `Engine::run` (identical
//!   instruction totals and launch shape);
//! * a query carrying injected warp deaths recovers to the exact count
//!   with a `FaultReport`, while concurrent healthy queries stay exact;
//! * an expired deadline fails per-query without poisoning the pool.
//!
//! `--stress` runs the many-clients soak: 8 client threads × 25 queries
//! each, every submission a randomly relabeled isomorphic copy of a
//! golden query, counts verified under load — with tier state on,
//! so resident cascades tier up while their cache entries are being hit
//! — and prints throughput, p50/p95 latency, and the tier counters;
//! `--out=<path>` additionally records them as JSON (PR 6's recording is
//! summarized in CHANGES.md).

use std::sync::Arc;
use std::time::{Duration, Instant};
use stmatch_core::{
    Engine, EngineConfig, FaultPlan, MatchService, QueryOptions, ServiceConfig, ServiceError,
};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, Graph};
use stmatch_pattern::{catalog, Pattern};
use stmatch_testkit::rng::{Rng, SmallRng};

fn grid() -> GridConfig {
    GridConfig {
        num_blocks: 2,
        warps_per_block: 2,
        shared_mem_per_block: 100 * 1024,
    }
}

fn fixture() -> Graph {
    gen::preferential_attachment(48, 4, 3).degree_ordered()
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

fn main() {
    let mut stress = false;
    let mut out_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--stress" {
            stress = true;
        } else if let Some(p) = arg.strip_prefix("--out=") {
            out_path = Some(p.to_string());
        } else {
            eprintln!(
                "service_check: unknown argument {arg:?} \
                 (usage: service_check [--stress] [--out=<path>])"
            );
            std::process::exit(2);
        }
    }
    let mut failed = false;
    failed |= !gate_counts();
    failed |= !gate_metric_exact();
    failed |= !gate_faults_and_deadlines();
    if stress {
        failed |= !run_stress(out_path.as_deref());
    }
    if failed {
        eprintln!("service_check: FAILED");
        std::process::exit(1);
    }
    println!("service_check: OK");
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

/// A uniformly random vertex relabeling (isomorphic by construction).
fn relabel(p: &Pattern, rng: &mut SmallRng) -> Pattern {
    let n = p.size();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i + 1);
        perm.swap(i, j);
    }
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if p.has_edge(u, v) {
                edges.push((perm[u], perm[v]));
            }
        }
    }
    Pattern::new(n, &edges)
}

/// Many-clients soak: throughput + latency percentiles, counts verified
/// under load, results recorded to `out_path` when one is given.
fn run_stress(out_path: Option<&str>) -> bool {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 25;
    let workers = 4usize;
    let batch_max = 8usize;
    // The soak runs with tier state on (default profile threshold):
    // resident cascades tier up under load while isomorphic relabelings
    // keep hitting their promoted cache entries, and the tier counters
    // land in the JSON below. Counts stay pinned to the same goldens as
    // the compile-off gates above.
    let mut engine_cfg = EngineConfig::default().with_grid(grid());
    engine_cfg.compile.enabled = true;
    let svc = MatchService::new(
        Arc::new(fixture()),
        ServiceConfig::new(engine_cfg)
            .with_workers(workers)
            .with_batch_max(batch_max),
    );
    let svc_ref = &svc;
    let wall = Instant::now();
    let results: Vec<(Vec<f64>, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(0x5052_3600 + c as u64);
                    let mut latencies = Vec::with_capacity(PER_CLIENT);
                    let mut mismatches = 0usize;
                    for _ in 0..PER_CLIENT {
                        let (qi, want) = GOLDEN[rng.gen_range(0..GOLDEN.len())];
                        let p = relabel(&catalog::paper_query(qi), &mut rng);
                        let t = Instant::now();
                        let out = svc_ref.submit(&p, QueryOptions::default());
                        latencies.push(t.elapsed().as_secs_f64() * 1e3);
                        match out {
                            Ok(o) if o.count == want => {}
                            Ok(o) => {
                                eprintln!("stress q{qi}: got {} want {want}", o.count);
                                mismatches += 1;
                            }
                            Err(e) => {
                                eprintln!("stress q{qi}: error {e}");
                                mismatches += 1;
                            }
                        }
                    }
                    (latencies, mismatches)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let mut latencies: Vec<f64> = results
        .iter()
        .flat_map(|(l, _)| l.iter().copied())
        .collect();
    let mismatches: usize = results.iter().map(|(_, m)| m).sum();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let total = latencies.len();
    let stats = svc.cache_stats();
    let throughput = total as f64 / (wall_ms / 1e3);
    println!(
        "stress: {total} queries / {CLIENTS} clients in {wall_ms:.0} ms \
         ({throughput:.1} q/s, p50 {:.2} ms, p95 {:.2} ms, {mismatches} mismatches, \
         cache {}/{} hit, {} tier-ups, {} specialized)",
        pct(0.50),
        pct(0.95),
        stats.hits,
        stats.hits + stats.misses,
        stats.tier_ups,
        stats.specialized_hits,
    );
    let Some(out_path) = out_path else {
        return mismatches == 0;
    };
    let json = format!(
        "{{\n  \"bench\": \"service_stress\",\n  \"unix_time\": {unix},\n  \
         \"config\": {{\n    \"grid\": \"2x2 warps, 100 KiB shared\",\n    \
         \"workers\": {workers},\n    \"batch_max\": {batch_max},\n    \
         \"clients\": {CLIENTS},\n    \"queries_per_client\": {PER_CLIENT},\n    \
         \"note\": \"each submission is a random vertex relabeling of a golden paper query (edge-induced, unlabeled PA(48,4,3) fixture)\"\n  }},\n  \
         \"results\": {{\n    \"total_queries\": {total},\n    \
         \"wall_ms\": {wall_ms:.1},\n    \"throughput_qps\": {throughput:.1},\n    \
         \"latency_ms\": {{ \"p50\": {p50:.3}, \"p95\": {p95:.3}, \"max\": {max:.3} }},\n    \
         \"count_mismatches\": {mismatches},\n    \
         \"plan_cache\": {{ \"hits\": {hits}, \"misses\": {misses}, \"entries\": {entries}, \
         \"tier_ups\": {tier_ups}, \"tier0_served\": {tier0}, \"specialized_hits\": {spec} }}\n  }}\n}}\n",
        unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        p50 = pct(0.50),
        p95 = pct(0.95),
        max = latencies[latencies.len() - 1],
        hits = stats.hits,
        misses = stats.misses,
        entries = stats.entries,
        tier_ups = stats.tier_ups,
        tier0 = stats.tier0_served,
        spec = stats.specialized_hits,
    );
    if let Err(e) = std::fs::write(out_path, json) {
        eprintln!("stress: failed to write {out_path}: {e}");
        return false;
    }
    println!("stress: wrote {out_path}");
    mismatches == 0
}
