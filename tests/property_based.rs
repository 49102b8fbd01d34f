//! Property-based tests: on arbitrary random graphs, every engine must
//! agree with the oracle for every catalog pattern, regardless of
//! configuration knobs that should be semantically invisible (grid
//! geometry, unroll size, chunk size, stealing).
//!
//! Runs on the in-tree `stmatch_testkit::prop` harness: each property
//! draws `TESTKIT_CASES` seeded inputs (default 24) as plain integer
//! tuples — so the harness can shrink them by halving — and the property
//! body maps them onto graphs/patterns, clamping shrunk values back into
//! their valid ranges. A failure panics with the minimal counterexample
//! and the `TESTKIT_SEED=... TESTKIT_CASES=1` line that replays it.

use stmatch_baselines::reference::{self, RefOptions};
use stmatch_core::{Engine, EngineConfig, Launch};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, Graph};
use stmatch_pattern::{catalog, Pattern};
use stmatch_testkit::prop::forall;
use stmatch_testkit::rng::Rng;

fn grid(blocks: usize, wpb: usize) -> GridConfig {
    GridConfig {
        num_blocks: blocks,
        warps_per_block: wpb,
        shared_mem_per_block: 100 * 1024,
    }
}

fn oracle(g: &Graph, p: &Pattern, induced: bool) -> u64 {
    reference::count(
        g,
        p,
        RefOptions {
            induced,
            symmetry_breaking: true,
        },
    )
}

/// Maps a shrinkable `(n, density, seed)` triple onto a small random
/// graph, clamping out-of-range (possibly shrunk) values.
fn make_graph(n: usize, density: usize, seed: u64) -> Graph {
    let n = n.clamp(2, 40);
    gen::erdos_renyi(n, n * density.min(3), seed)
}

/// Maps a shrinkable index onto a catalog pattern, biased toward small
/// ones so the counts stay cheap under the harness's case count.
fn make_pattern(idx: usize) -> Pattern {
    match idx % 11 {
        0 => catalog::triangle(),
        1 => catalog::wedge(),
        2 => catalog::square(),
        3 => catalog::diamond(),
        4 => catalog::star3(),
        5 => catalog::k4(),
        6 => catalog::tailed_triangle(),
        7 => catalog::paper_query(2),
        8 => catalog::paper_query(5),
        9 => catalog::paper_query(6),
        _ => catalog::paper_query(8),
    }
}

#[test]
fn engine_matches_oracle_on_random_graphs() {
    forall(
        "engine_matches_oracle_on_random_graphs",
        |rng| {
            (
                rng.gen_range(8usize..40),
                rng.gen_range(1usize..4),
                rng.gen_range(0u64..1000),
                rng.gen::<bool>(),
                rng.gen_range(0usize..11),
            )
        },
        |&(n, density, seed, induced, pidx)| {
            let g = make_graph(n, density, seed);
            let p = make_pattern(pidx);
            let want = oracle(&g, &p, induced);
            let mut cfg = EngineConfig::default().with_grid(grid(2, 2));
            cfg.induced = induced;
            let got = Engine::new(cfg).run(&g, &p).unwrap().count;
            if got == want {
                Ok(())
            } else {
                Err(format!("{}: engine {got} != oracle {want}", p.name()))
            }
        },
    );
}

#[test]
fn grid_geometry_is_invisible() {
    forall(
        "grid_geometry_is_invisible",
        |rng| {
            (
                rng.gen_range(8usize..40),
                rng.gen_range(1usize..4),
                rng.gen_range(0u64..1000),
                rng.gen_range(1usize..4),
                rng.gen_range(1usize..4),
            )
        },
        |&(n, density, seed, blocks, wpb)| {
            let g = make_graph(n, density, seed);
            let p = catalog::paper_query(6);
            let want = oracle(&g, &p, false);
            let cfg = EngineConfig::default().with_grid(grid(blocks.clamp(1, 4), wpb.clamp(1, 4)));
            let got = Engine::new(cfg).run(&g, &p).unwrap().count;
            if got == want {
                Ok(())
            } else {
                Err(format!("blocks={blocks} wpb={wpb}: {got} != {want}"))
            }
        },
    );
}

#[test]
fn unroll_and_chunk_are_invisible() {
    forall(
        "unroll_and_chunk_are_invisible",
        |rng| {
            (
                rng.gen_range(8usize..40),
                rng.gen_range(1usize..4),
                rng.gen_range(0u64..1000),
                rng.gen_range(1usize..16),
                rng.gen_range(1usize..32),
            )
        },
        |&(n, density, seed, unroll, chunk)| {
            let g = make_graph(n, density, seed);
            let p = catalog::k4();
            let want = oracle(&g, &p, false);
            let mut cfg = EngineConfig::default()
                .with_grid(grid(2, 2))
                .with_unroll(unroll.max(1));
            cfg.chunk_size = chunk.max(1);
            let got = Engine::new(cfg).run(&g, &p).unwrap().count;
            if got == want {
                Ok(())
            } else {
                Err(format!("unroll={unroll} chunk={chunk}: {got} != {want}"))
            }
        },
    );
}

#[test]
fn labeled_engine_matches_oracle() {
    forall(
        "labeled_engine_matches_oracle",
        |rng| {
            (
                rng.gen_range(8usize..40),
                rng.gen_range(1usize..4),
                rng.gen_range(0u64..1000),
                rng.gen_range(2u32..5),
                rng.gen_range(0u64..100),
            )
        },
        |&(n, density, seed, labels, lseed)| {
            let labels = labels.clamp(1, 4);
            let gl = gen::assign_random_labels(&make_graph(n, density, seed), labels, lseed);
            let p = catalog::paper_query(3).with_random_labels(labels, lseed);
            let want = reference::count(&gl, &p, RefOptions::default());
            let got = Engine::new(EngineConfig::default().with_grid(grid(2, 2)))
                .run(&gl, &p)
                .unwrap()
                .count;
            if got == want {
                Ok(())
            } else {
                Err(format!("labels={labels}: {got} != {want}"))
            }
        },
    );
}

#[test]
fn embeddings_equal_subgraphs_times_automorphisms() {
    forall(
        "embeddings_equal_subgraphs_times_automorphisms",
        |rng| {
            (
                rng.gen_range(8usize..40),
                rng.gen_range(1usize..4),
                rng.gen_range(0u64..1000),
            )
        },
        |&(n, density, seed)| {
            let g = make_graph(n, density, seed);
            for p in [catalog::triangle(), catalog::square(), catalog::star3()] {
                let aut = stmatch_pattern::symmetry::automorphism_count(&p) as u64;
                let mut sym = EngineConfig::default().with_grid(grid(2, 2));
                sym.symmetry_breaking = true;
                let mut nosym = sym;
                nosym.symmetry_breaking = false;
                let unique = Engine::new(sym).run(&g, &p).unwrap().count;
                let embeddings = Engine::new(nosym).run(&g, &p).unwrap().count;
                if embeddings != unique * aut {
                    return Err(format!(
                        "{}: {embeddings} embeddings != {unique} x {aut} automorphisms",
                        p.name()
                    ));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn alternative_matching_orders_agree() {
    forall(
        "alternative_matching_orders_agree",
        |rng| {
            (
                rng.gen_range(8usize..40),
                rng.gen_range(1usize..4),
                rng.gen_range(0u64..1000),
                rng.gen_range(1usize..=24),
            )
        },
        |&(n, density, seed, qi)| {
            use stmatch_pattern::order::MatchOrder;
            use stmatch_pattern::{MatchPlan, PlanOptions};
            let qi = qi.clamp(1, 24);
            let g = make_graph(n, density, seed);
            let q = catalog::paper_query(qi);
            // Skip the heavyweight sparse size-7 queries under the
            // property case count.
            if q.size() >= 7 && q.num_edges() < 10 {
                return Ok(());
            }
            let opts = PlanOptions::default();
            let engine = Engine::new(EngineConfig::default().with_grid(grid(2, 2)));
            let greedy = MatchPlan::compile_with_order(&q, MatchOrder::greedy(&q), opts);
            let degen = MatchPlan::compile_with_order(&q, MatchOrder::degeneracy(&q), opts);
            let a = engine.launch(&Launch::new(&g, &greedy)).unwrap().count;
            let b = engine.launch(&Launch::new(&g, &degen)).unwrap().count;
            if a == b {
                Ok(())
            } else {
                Err(format!("q{qi}: greedy {a} != degeneracy {b}"))
            }
        },
    );
}

#[test]
fn clique_counts_match_binomials() {
    forall(
        "clique_counts_match_binomials",
        |rng| (rng.gen_range(4usize..10),),
        |&(n,)| {
            // K_k in K_n: C(n, k) subgraphs.
            let n = n.clamp(4, 10);
            let g = gen::complete(n);
            let engine = Engine::new(EngineConfig::default().with_grid(grid(2, 2)));
            for k in 3..=4usize {
                let c = engine.run(&g, &catalog::clique(k)).unwrap().count;
                let binom = (0..k).fold(1u64, |acc, i| acc * (n - i) as u64)
                    / (1..=k).product::<usize>() as u64;
                if c != binom {
                    return Err(format!("K{k} in K{n}: {c} != C({n},{k}) = {binom}"));
                }
            }
            Ok(())
        },
    );
}
