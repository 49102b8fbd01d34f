//! A delta-enabled service maintains the count of every cached edge-induced
//! query that is read between batches, and every answer it gives — a
//! maintained count or a recount — is exact.
//!
//! Seeded mixed streams of inserts and deletes run through one- and
//! three-shard services that compact every third batch, so the stream
//! crosses compactions; every third batch also nets out entirely. After
//! every batch, every answer equals `Engine::run` on `current_graph()`.
//! Patterns asked after every batch are answered from maintained counts
//! (`CacheStats::maintained`). A pattern asked only every other batch,
//! a query carrying a `fault_plan` and a vertex-induced query always
//! recount. With one thread applying batches while two others submit,
//! each answer equals the count at some snapshot current while it ran.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use stmatch_core::{Engine, EngineConfig, FaultPlan, MatchService, QueryOptions, ServiceConfig};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, EdgeOp, Graph, VertexId};
use stmatch_pattern::{catalog, Pattern};

fn config(shards: usize) -> ServiceConfig {
    let grid = GridConfig {
        num_blocks: 2,
        warps_per_block: 2,
        shared_mem_per_block: 100 * 1024,
    };
    let mut engine = EngineConfig::default()
        .with_grid(grid)
        .with_delta(true)
        .with_shards(shards);
    engine.delta.compact_every = 3;
    ServiceConfig::new(engine)
}

/// A seeded stream of batches over the service's current graph: four
/// deletes of present edges and four inserts of absent pairs, or — every
/// third batch — an insert and a delete of the same absent pair plus a
/// delete and an insert of the same present edge, which net to nothing.
struct Stream(u64);

impl Stream {
    fn next(&mut self, m: usize) -> VertexId {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % m as u64) as VertexId
    }

    fn present(&mut self, g: &Graph) -> (VertexId, VertexId) {
        loop {
            let u = self.next(g.num_vertices());
            let row = g.neighbors(u);
            if !row.is_empty() {
                return (u, row[self.next(row.len()) as usize]);
            }
        }
    }

    fn absent(&mut self, g: &Graph) -> (VertexId, VertexId) {
        loop {
            let (u, v) = (self.next(g.num_vertices()), self.next(g.num_vertices()));
            if u != v && !g.has_edge(u, v) {
                return (u, v);
            }
        }
    }

    fn batch(&mut self, g: &Graph, round: usize) -> Vec<EdgeOp> {
        if round % 3 == 2 {
            let ((a, b), (c, d)) = (self.absent(g), self.present(g));
            return vec![
                EdgeOp::insert(a, b),
                EdgeOp::delete(a, b),
                EdgeOp::delete(c, d),
                EdgeOp::insert(c, d),
            ];
        }
        let mut named = BTreeSet::new();
        let mut ops = Vec::new();
        while ops.len() < 8 {
            let insert = ops.len() % 2 == 0;
            let (u, v) = if insert {
                self.absent(g)
            } else {
                self.present(g)
            };
            if named.insert((u.min(v), u.max(v))) {
                ops.push(if insert {
                    EdgeOp::insert(u, v)
                } else {
                    EdgeOp::delete(u, v)
                });
            }
        }
        ops
    }
}

fn fixture() -> Arc<Graph> {
    Arc::new(gen::preferential_attachment(80, 4, 9).degree_ordered())
}

/// How a query is asked, and whether its answers may be maintained.
struct Asked {
    pattern: Pattern,
    opts: QueryOptions,
    every_batch: bool,
    maintainable: bool,
}

fn asked(pattern: Pattern, opts: QueryOptions, every_batch: bool) -> Asked {
    let maintainable = every_batch && opts.fault_plan.is_none() && opts.induced.is_none();
    Asked {
        pattern,
        opts,
        every_batch,
        maintainable,
    }
}

#[test]
fn every_answer_is_exact_and_only_read_counts_are_maintained() {
    for shards in [1, 3] {
        let svc = MatchService::new(fixture(), config(shards));
        let oracle = Engine::new(config(1).engine);
        let induced_oracle = Engine::new(config(1).engine.induced(true));
        let queries = [
            asked(catalog::triangle(), QueryOptions::default(), true),
            asked(catalog::paper_query(2), QueryOptions::default(), true),
            asked(catalog::paper_query(6), QueryOptions::default(), true),
            asked(catalog::paper_query(4), QueryOptions::default(), false),
            asked(
                catalog::paper_query(1),
                QueryOptions {
                    fault_plan: Some(FaultPlan::new().panic_at(0, 2)),
                    ..QueryOptions::default()
                },
                true,
            ),
            asked(
                catalog::paper_query(3),
                QueryOptions {
                    induced: Some(true),
                    ..QueryOptions::default()
                },
                true,
            ),
        ];
        let mut stream = Stream(0x5eed_0000 + shards as u64);
        for round in 0..10 {
            let batch = svc.apply_batch(&stream.batch(&svc.current_graph(), round));
            assert_eq!(batch.is_empty(), round % 3 == 2, "round {round}");
            let g = svc.current_graph();
            for q in &queries {
                if !q.every_batch && round % 2 == 1 {
                    continue;
                }
                let before = svc.cache_stats().maintained;
                let out = svc.submit(&q.pattern, q.opts.clone()).unwrap();
                let maintained = svc.cache_stats().maintained - before;
                let label = format!("{shards} shard(s), round {round}, {}", q.pattern.name());
                let want = match q.opts.induced {
                    Some(true) => induced_oracle.run(&g, &q.pattern),
                    _ => oracle.run(&g, &q.pattern),
                };
                assert_eq!(out.count, want.unwrap().count, "{label}");
                // Every-batch patterns recount once, on their first ask.
                let expected = u64::from(q.maintainable && round > 0);
                assert_eq!(maintained, expected, "{label}: maintained answers");
                if maintained == 1 {
                    assert!(out.shards.is_empty() && out.fault.is_none(), "{label}");
                }
            }
        }
        assert_eq!(svc.cache_stats().maintained, 3 * 9, "{shards} shard(s)");
    }
}

#[test]
fn concurrent_submitters_see_the_count_of_a_current_snapshot() {
    for shards in [1, 3] {
        let svc = Arc::new(MatchService::new(fixture(), config(shards)));
        let mut snapshots = vec![svc.current_graph()];
        let done = Arc::new(AtomicBool::new(false));
        // The latest snapshot version each submitter has finished a round of
        // asks from: the applier waits for both before the next batch, so
        // that every count is read between batches and is maintained.
        let seen: Arc<[AtomicU64; 2]> = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let patterns = [
            vec![catalog::triangle(), catalog::paper_query(2)],
            vec![catalog::paper_query(6), catalog::triangle()],
        ];
        let submitters: Vec<_> = patterns
            .into_iter()
            .enumerate()
            .map(|(me, patterns)| {
                let (svc, done, seen) = (Arc::clone(&svc), Arc::clone(&done), Arc::clone(&seen));
                std::thread::spawn(move || {
                    let mut answers = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        let from = svc.current_graph().version();
                        for (i, p) in patterns.iter().enumerate() {
                            let count = svc.submit(p, QueryOptions::default()).unwrap().count;
                            answers.push((p.clone(), from, svc.current_graph().version(), count));
                            if i + 1 == patterns.len() {
                                seen[me].fetch_max(from, Ordering::AcqRel);
                            }
                        }
                    }
                    answers
                })
            })
            .collect();
        let mut stream = Stream(0xc0ff_ee00 + shards as u64);
        for round in 0..9 {
            let version = svc.current_graph().version();
            while seen.iter().any(|s| s.load(Ordering::Acquire) < version) {
                std::thread::yield_now();
            }
            svc.apply_batch(&stream.batch(&svc.current_graph(), round));
            snapshots.push(svc.current_graph());
        }
        done.store(true, Ordering::Release);
        let answers: Vec<_> = submitters
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let oracle = Engine::new(config(1).engine);
        let mut want = HashMap::new();
        for (p, from, to, count) in &answers {
            let counts: Vec<u64> = (*from..=*to)
                .map(|v| {
                    *want
                        .entry((p.name().to_string(), v))
                        .or_insert_with(|| oracle.run(&snapshots[v as usize], p).unwrap().count)
                })
                .collect();
            assert!(
                counts.contains(count),
                "{shards} shard(s): {} answered {count} between versions {from} and {to} ({counts:?})",
                p.name()
            );
        }
        assert!(svc.cache_stats().maintained > 0, "{shards} shard(s)");
    }
}
