//! Concurrency stress: work stealing must never change results, under any
//! stop/detect configuration, grid shape, chunking, or device count, and
//! results must be deterministic run-to-run even though steal timing is
//! scheduler-dependent.

use stmatch_core::{Engine, EngineConfig, Launch};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, Graph};
use stmatch_pattern::{catalog, Pattern};

fn grid(blocks: usize, wpb: usize) -> GridConfig {
    GridConfig {
        num_blocks: blocks,
        warps_per_block: wpb,
        shared_mem_per_block: 100 * 1024,
    }
}

/// A skewed graph that makes load imbalance (and hence stealing) likely.
fn skewed() -> Graph {
    gen::preferential_attachment(500, 3, 77).degree_ordered()
}

fn expected(g: &Graph, p: &Pattern) -> u64 {
    Engine::new(EngineConfig::naive().with_grid(grid(1, 1)))
        .run(g, p)
        .unwrap()
        .count
}

#[test]
fn stop_and_detect_levels_do_not_change_counts() {
    let g = skewed();
    let p = catalog::paper_query(8);
    let want = expected(&g, &p);
    for stop in 1..=4usize {
        for detect in 1..=stop {
            let mut cfg = EngineConfig::full().with_grid(grid(2, 2));
            cfg.stop_level = stop;
            cfg.detect_level = detect;
            cfg.chunk_size = 4;
            let got = Engine::new(cfg).run(&g, &p).unwrap().count;
            assert_eq!(got, want, "stop={stop} detect={detect}");
        }
    }
}

#[test]
fn tiny_chunks_force_contention_but_not_miscounts() {
    let g = skewed();
    let p = catalog::paper_query(6);
    let want = expected(&g, &p);
    for chunk in [1usize, 2, 3] {
        let mut cfg = EngineConfig::full().with_grid(grid(3, 3));
        cfg.chunk_size = chunk;
        assert_eq!(
            Engine::new(cfg).run(&g, &p).unwrap().count,
            want,
            "chunk={chunk}"
        );
    }
}

#[test]
fn repeated_runs_are_deterministic_in_count() {
    let g = skewed();
    let p = catalog::paper_query(7);
    let cfg = EngineConfig::full().with_grid(grid(4, 4));
    let engine = Engine::new(cfg);
    let first = engine.run(&g, &p).unwrap().count;
    for run in 0..6 {
        assert_eq!(engine.run(&g, &p).unwrap().count, first, "run {run}");
    }
}

#[test]
fn single_warp_grid_degenerates_gracefully() {
    // With one warp there is nobody to steal from; all configurations
    // must still terminate and agree.
    let g = gen::erdos_renyi(60, 220, 3);
    let p = catalog::paper_query(5);
    let want = expected(&g, &p);
    for cfg in [
        EngineConfig::naive(),
        EngineConfig::local_steal_only(),
        EngineConfig::local_global_steal(),
        EngineConfig::full(),
    ] {
        let got = Engine::new(cfg.with_grid(grid(1, 1)))
            .run(&g, &p)
            .unwrap()
            .count;
        assert_eq!(got, want);
    }
}

#[test]
fn one_warp_per_block_exercises_global_stealing_only() {
    // Blocks of one warp can never steal locally: only the push-based
    // global path can move work.
    let g = skewed();
    let p = catalog::paper_query(8);
    let want = expected(&g, &p);
    let mut cfg = EngineConfig::full().with_grid(grid(6, 1));
    cfg.chunk_size = g.num_vertices(); // single chunk: maximal imbalance
    let out = Engine::new(cfg).run(&g, &p).unwrap();
    assert_eq!(out.count, want);
}

#[test]
fn device_partitioning_is_exact_for_many_device_counts() {
    let g = skewed();
    let p = catalog::triangle();
    let cfg = EngineConfig::full().with_grid(grid(2, 2));
    let want = Engine::new(cfg).run(&g, &p).unwrap().count;
    // Non-power-of-two device counts, both static splits of the domain.
    for devices in [1usize, 2, 3, 5, 8] {
        for work_aware in [false, true] {
            let mut cfg = cfg.with_shards(devices);
            cfg.shard.work_aware = work_aware;
            let out = Engine::new(cfg).run(&g, &p).unwrap();
            assert_eq!(out.count, want, "devices={devices} work_aware={work_aware}");
            // A one-shard run is one grid.
            let grids = if devices > 1 { devices } else { 0 };
            assert_eq!(out.shards.len(), grids);
        }
    }
}

#[test]
fn timeout_yields_partial_monotone_counts() {
    // A timed-out run must flag itself and report no more matches than the
    // true total.
    let g = gen::rmat(8, 4, 123).degree_ordered();
    let p = catalog::paper_query(13); // heavy: triangle with three pendants
    let full = Engine::new(EngineConfig::full().with_grid(grid(2, 2)))
        .with_timeout(std::time::Duration::from_secs(60))
        .run(&g, &p)
        .unwrap();
    if full.timed_out {
        // A loaded or slow host can miss even the generous budget; there
        // is no reference total to compare against in that case.
        return;
    }
    let cut = Engine::new(EngineConfig::full().with_grid(grid(2, 2)))
        .with_timeout(std::time::Duration::from_millis(30))
        .run(&g, &p)
        .unwrap();
    if cut.timed_out {
        assert!(cut.count <= full.count);
    } else {
        assert_eq!(cut.count, full.count);
    }
}

#[test]
fn stack_bytes_follow_the_paper_formula() {
    // §VIII-A: the fixed stack allocation is
    // NUM_SETS x UNROLL x MAX_DEGREE x 4 B x NUM_WARP.
    let g = gen::complete(8);
    let p = catalog::paper_query(16); // K6
    let mut cfg = EngineConfig::full().with_grid(grid(2, 3));
    cfg.unroll = 4;
    cfg.max_degree_slab = 128;
    let engine = Engine::new(cfg);
    let plan = engine.compile(&p);
    let out = engine.launch(&Launch::new(&g, &plan)).unwrap();
    assert_eq!(
        out.stack_bytes,
        plan.num_sets() * 4 * 128 * 4 * 6,
        "NUM_SETS({}) x UNROLL(4) x MAX_DEGREE(128) x 4B x NUM_WARP(6)",
        plan.num_sets()
    );
    assert_eq!(out.num_sets, plan.num_sets());
    assert!(out.shared_bytes_per_block > 0);
    assert!(out.shared_bytes_per_block <= 100 * 1024);
}

#[test]
fn metrics_are_internally_consistent() {
    let g = skewed();
    let p = catalog::paper_query(8);
    let out = Engine::new(EngineConfig::full().with_grid(grid(2, 2)))
        .run(&g, &p)
        .unwrap();
    let total = out.metrics.total();
    assert_eq!(total.matches_found, out.count);
    assert!(total.active_lane_slots <= total.issued_lane_slots);
    assert!(out.metrics.lane_utilization() <= 1.0);
    assert!(out.metrics.load_imbalance() >= 1.0);
    assert!(total.local_steals <= total.local_steal_attempts);
    // Simulated cycles are bounded by the total instruction count.
    assert!(out.simulated_cycles() <= out.total_instructions());
}

#[test]
fn the_papers_block_shape_counts_exactly() {
    // 32 warps fill a block's whole `is_idle` word: the push detector's
    // "fully idle" mask must not be computed by shifting a `u32` by 32
    // (a debug build killed every warp at its first shallow claim and
    // counted 0; a release build wrapped the mask to "nobody idle").
    let g = gen::preferential_attachment(200, 4, 3);
    let p = catalog::triangle();
    let want = Engine::new(EngineConfig::default()).run(&g, &p).unwrap();
    assert!(want.count > 0, "workload must be non-trivial");
    let got = Engine::new(EngineConfig::default().with_grid(grid(2, 32)))
        .run(&g, &p)
        .unwrap();
    assert_eq!(got.count, want.count);
    assert!(got.fault.is_none(), "{:?}", got.fault);
}
