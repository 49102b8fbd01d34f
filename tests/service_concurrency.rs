//! Property-based concurrency suite for the resident [`MatchService`]
//! (testkit harness — seeded, shrinking, reproducible via
//! `TESTKIT_SEED`/`TESTKIT_CASES`).
//!
//! Each case spins up a fresh service and 2–8 client threads. Every
//! client submits randomly *vertex-relabeled* copies of base patterns —
//! isomorphic by construction — so the whole interleaving must be
//! invisible in the results: every query's count equals the one-shot
//! `Engine::run` oracle of its base pattern (counts are isomorphism
//! invariants), and the plan cache converges to exactly one entry per
//! canonical form no matter how the racing compiles interleave.

use std::collections::HashSet;
use std::sync::Arc;
use stmatch_core::{Engine, EngineConfig, MatchService, QueryOptions, ServiceConfig};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, Graph};
use stmatch_pattern::{catalog, iso, Pattern};
use stmatch_testkit::prop::forall;
use stmatch_testkit::rng::{Rng, SmallRng};

fn grid() -> GridConfig {
    GridConfig {
        num_blocks: 2,
        warps_per_block: 2,
        shared_mem_per_block: 100 * 1024,
    }
}

fn fixture_graph() -> Graph {
    gen::erdos_renyi(40, 160, 7).degree_ordered()
}

/// Base patterns cheap enough to run dozens of times per property case.
fn base_patterns() -> Vec<Pattern> {
    vec![
        catalog::triangle(),
        catalog::square(),
        Pattern::new(4, &[(0, 1), (1, 2), (2, 3)]).with_name("p4"),
        catalog::paper_query(8),
    ]
}

/// A uniformly random vertex relabeling of `p`: same graph, permuted
/// vertex ids (labels carried along), so `iso::canonical_form` is
/// unchanged and so is every match count.
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
    let mut q = Pattern::new(n, &edges);
    if p.is_labeled() {
        let mut labels = vec![0u32; n];
        for u in 0..n {
            labels[perm[u]] = p.label(u);
        }
        q = q.with_labels(&labels);
    }
    q
}

/// The property: concurrent clients submitting relabeled isomorphic
/// patterns observe deterministic per-query counts, and the cache holds
/// at most (here: exactly) one entry per canonical form.
#[test]
fn concurrent_isomorphic_submissions_are_deterministic() {
    let graph = fixture_graph();
    let bases = base_patterns();
    let engine_cfg = EngineConfig::default().with_grid(grid());
    let oracle: Vec<u64> = bases
        .iter()
        .map(|p| Engine::new(engine_cfg).run(&graph, p).unwrap().count)
        .collect();
    assert!(oracle.iter().any(|&c| c > 0), "fixture must be non-trivial");

    forall(
        "service_concurrent_isomorphic_counts",
        |rng| {
            let clients = rng.gen_range(2usize..9);
            let per_client = rng.gen_range(1usize..4);
            let seed = rng.gen_range(0u64..u64::MAX);
            (clients, per_client, seed)
        },
        |&(clients, per_client, seed)| {
            let oracle = &oracle;
            let svc = MatchService::new(
                Arc::new(fixture_graph()),
                ServiceConfig::new(engine_cfg).with_workers(2),
            );
            // Pre-derive each client's submissions so the property is a
            // pure function of the case input (thread interleaving only
            // affects scheduling, never the checked values).
            let mut submissions: Vec<Vec<(usize, Pattern)>> = Vec::new();
            let mut forms: HashSet<(Vec<u32>, Vec<u8>)> = HashSet::new();
            for c in 0..clients {
                let mut rng = SmallRng::seed_from_u64(
                    seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64 + 1)),
                );
                let mut mine = Vec::new();
                for _ in 0..per_client {
                    let base = rng.gen_range(0..bases.len());
                    let p = relabel(&bases[base], &mut rng);
                    forms.insert(iso::canonical_form(&p));
                    mine.push((base, p));
                }
                submissions.push(mine);
            }
            let svc_ref = &svc;
            let failures: Vec<String> = std::thread::scope(|s| {
                let handles: Vec<_> = submissions
                    .iter()
                    .map(|mine| {
                        s.spawn(move || {
                            let mut errs = Vec::new();
                            for (base, p) in mine {
                                match svc_ref.submit(p, QueryOptions::default()) {
                                    Ok(out) if out.count == oracle[*base] => {}
                                    Ok(out) => errs.push(format!(
                                        "base {base}: got {} want {}",
                                        out.count, oracle[*base]
                                    )),
                                    Err(e) => errs.push(format!("base {base}: error {e}")),
                                }
                            }
                            errs
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread"))
                    .collect()
            });
            if !failures.is_empty() {
                return Err(failures.join("; "));
            }
            let stats = svc.cache_stats();
            if stats.entries != forms.len() {
                return Err(format!(
                    "cache entries {} != {} distinct canonical forms",
                    stats.entries,
                    forms.len()
                ));
            }
            let total = (clients * per_client) as u64;
            if stats.hits + stats.misses < total {
                return Err(format!(
                    "cache saw {} lookups for {total} submissions",
                    stats.hits + stats.misses
                ));
            }
            Ok(())
        },
    );
}

/// Canonical keying, checked directly: a pattern and any vertex
/// relabeling of it produce the same canonical form; structurally
/// different patterns produce different forms.
#[test]
fn relabeling_preserves_canonical_form() {
    let mut rng = SmallRng::seed_from_u64(0x5354_4d41);
    for base in base_patterns() {
        let form = iso::canonical_form(&base);
        for _ in 0..8 {
            let r = relabel(&base, &mut rng);
            assert!(iso::isomorphic(&base, &r));
            assert_eq!(iso::canonical_form(&r), form, "{}", base.name());
        }
    }
    let tri = iso::canonical_form(&catalog::triangle());
    let sq = iso::canonical_form(&catalog::square());
    assert_ne!(tri, sq);
}

/// The wake path: an idle worker sleeps until an admission wakes it, so a
/// lost wake-up strands a request. Clients submit bursts to a 4-worker
/// service, each burst after an idle gap long enough for every worker to
/// park; every ticket must resolve. The clients run detached and report
/// over a channel, so a stranded request fails the test by timeout
/// instead of hanging it.
#[test]
fn bursts_after_idle_gaps_all_resolve() {
    use std::sync::mpsc;
    use std::time::Duration;
    const CLIENTS: usize = 3;
    const BURSTS: usize = 6;
    const PER_BURST: usize = 4;
    let graph = fixture_graph();
    let engine_cfg = EngineConfig::default().with_grid(grid());
    let want = Engine::new(engine_cfg)
        .run(&graph, &catalog::triangle())
        .unwrap()
        .count;
    let svc = Arc::new(MatchService::new(
        Arc::new(graph),
        ServiceConfig::new(engine_cfg).with_workers(4),
    ));
    let (done, results) = mpsc::channel();
    for c in 0..CLIENTS {
        let (svc, done) = (Arc::clone(&svc), done.clone());
        std::thread::spawn(move || {
            let mut counts = Vec::new();
            for b in 0..BURSTS {
                // Staggered gaps: clients' bursts sometimes overlap, and
                // between them every worker goes idle.
                std::thread::sleep(Duration::from_millis(15 + 5 * ((b + c) % 3) as u64));
                let tickets: Vec<_> = (0..PER_BURST)
                    .map(|_| svc.enqueue(&catalog::triangle(), QueryOptions::default()))
                    .collect();
                counts.extend(tickets.into_iter().map(|t| t.wait().map(|o| o.count)));
            }
            let _ = done.send(counts);
        });
    }
    for c in 0..CLIENTS {
        let counts = results
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("client {c} of {CLIENTS} never heard back: a lost wake-up"));
        assert_eq!(counts.len(), BURSTS * PER_BURST);
        for count in counts {
            assert_eq!(count.expect("query failed"), want);
        }
    }
}

/// Dropping a service whose workers are all parked wakes and joins every
/// one of them promptly.
#[test]
fn dropping_an_idle_service_joins_its_workers_promptly() {
    use std::sync::mpsc;
    use std::time::{Duration, Instant};
    let svc = MatchService::new(
        Arc::new(fixture_graph()),
        ServiceConfig::new(EngineConfig::default().with_grid(grid())).with_workers(4),
    );
    svc.submit(&catalog::triangle(), QueryOptions::default())
        .unwrap();
    // Long enough for all four workers to find the queue empty and park.
    std::thread::sleep(Duration::from_millis(50));
    let (done, joined) = mpsc::channel();
    std::thread::spawn(move || {
        let t = Instant::now();
        drop(svc);
        let _ = done.send(t.elapsed());
    });
    let took = joined
        .recv_timeout(Duration::from_secs(30))
        .expect("drop never joined its parked workers");
    assert!(took < Duration::from_secs(2), "drop took {took:?}");
}
