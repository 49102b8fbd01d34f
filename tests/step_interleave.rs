//! A warp's step returns: one OS thread steps the four kernels of a 2 × 2
//! board in turn, with both steal levels on, and the run counts exactly,
//! steals both ways and repeats itself to the instruction. A kernel whose
//! idle wait blocked could not be driven like this at all: its first idle
//! step would never hand the thread back. Stepping also places a steal at
//! a chosen claim: a staged delta launch's pinned level-1 range is split
//! before its owner's first claim of it.

use std::sync::atomic::{AtomicUsize, Ordering};
use stmatch_baselines::reference::{self, RefOptions};
use stmatch_core::kernel::{KernelEnv, Level0Map, Step, WarpKernel};
use stmatch_core::steal::Board;
use stmatch_core::{Engine, EngineConfig};
use stmatch_gpusim::{Grid, GridConfig, WarpMetrics};
use stmatch_graph::{gen, Graph, VertexId};
use stmatch_pattern::catalog;
use stmatch_pattern::symmetry::Bound;

fn grid(num_blocks: usize, warps_per_block: usize) -> GridConfig {
    GridConfig {
        num_blocks,
        warps_per_block,
        shared_mem_per_block: 100 * 1024,
    }
}

/// Query `q` on `g`: warps 0..4 of a 2 × 2 board, each its own kernel,
/// stepped round-robin until every one is done, all inside one 1 × 1 launch
/// whose warp they share. Returns that warp's counters.
fn interleaved(g: &Graph, q: usize) -> WarpMetrics {
    let mut cfg = EngineConfig::full().with_grid(grid(2, 2));
    // Eight level-0 chunks for four warps: the domain runs out while hub
    // subtrees still run, so warps go idle and steal.
    cfg.chunk_size = 32;
    assert!(cfg.local_steal && cfg.global_steal);
    let plan = Engine::new(cfg).compile(&catalog::paper_query(q));
    let stop = cfg.effective_stop(plan.num_levels());
    let board = Board::new(2, 2, stop, (0, g.num_vertices()), cfg.chunk_size);
    let env = KernelEnv {
        graph: g,
        plan: &plan,
        cfg: &cfg,
        slab_caps: None,
        l0: Level0Map::Identity,
        enumerate: false,
    };
    let metrics = Grid::new(grid(1, 1)).unwrap().launch(|warp| {
        let mut kernels: Vec<_> = (0..4)
            .map(|id| WarpKernel::new(&env, &board, id, None, None))
            .collect();
        let mut done = [false; 4];
        while done.contains(&false) {
            for (kernel, done) in kernels.iter_mut().zip(&mut done) {
                *done = *done || kernel.step(warp) == Step::Done;
            }
        }
    });
    metrics.warps[0]
}

#[test]
fn four_warps_stepped_on_one_thread_count_exactly_and_steal_deterministically() {
    let g = gen::preferential_attachment(240, 4, 7).degree_ordered();
    for q in [1, 6] {
        let want = reference::count(&g, &catalog::paper_query(q), RefOptions::default());
        let m = interleaved(&g, q);
        assert_eq!(m.matches_found, want, "q{q}");
        assert!(m.local_steals > 0, "q{q}: no local steal");
        assert!(m.global_steal_receives > 0, "q{q}: no global-steal receive");
        let counters = |m: &WarpMetrics| {
            (
                m.simt_instructions,
                m.local_steal_attempts,
                m.local_steals,
                m.global_steal_pushes,
                m.global_steal_receives,
            )
        };
        assert_eq!(counters(&interleaved(&g, q)), counters(&m), "q{q}");
    }
}

/// The C5 (q2) matches of `g` that use its edge `(0, v)`, counted by one
/// staged launch of q2's anchored plan on a 1 × 2 board stepped on one
/// thread. Vertex 0 is the degree-ordered graph's hub, and C5's plan starts
/// at an edge's lower endpoint: warp 0 claims the hub at level 0 and
/// publishes its level-1 range, then warp 1 steals half of that range
/// before warp 0's first level-1 claim. Returns the count, the steals, and
/// whether the pin sat in the stolen half.
fn stolen_pinned_range(g: &Graph, v: VertexId) -> (u64, u64, bool) {
    let mut cfg = EngineConfig::default().with_grid(grid(1, 2));
    (cfg.local_steal, cfg.global_steal) = (true, false);
    let plans = Engine::new(cfg).compile_delta(&catalog::paper_query(2));
    let plan = plans.plans().next().expect("C5 has one edge orbit");
    assert_eq!(plan.bytecode().bounds(1), [(0, Bound::Greater)]);
    let edges = [(0, v)];
    let views = g.staged_without_edges(&edges);
    let stop = cfg.effective_stop(plan.num_levels());
    let board = Board::new(1, 2, stop, (0, edges.len()), 1);
    let env = KernelEnv {
        graph: &views[0],
        plan,
        cfg: &cfg,
        slab_caps: None,
        l0: Level0Map::Staged {
            edges: &edges,
            views: &views,
            orient: Some(Bound::Greater),
        },
        enumerate: false,
    };
    let kept = AtomicUsize::new(0);
    let metrics = Grid::new(grid(1, 1)).unwrap().launch(|warp| {
        let mut kernels: Vec<_> = (0..2)
            .map(|id| WarpKernel::new(&env, &board, id, None, None))
            .collect();
        // Warp 0 installs the one level-0 index and claims it, publishing
        // the hub's row as its level-1 range.
        assert_eq!(kernels[0].step(warp), Step::Claimed);
        assert_eq!(kernels[0].step(warp), Step::Claimed);
        let published = board.mirror(0).lock().size[1];
        assert_eq!(published, g.degree(0), "level 1 walks the hub's row");
        // Warp 1 finds no chunk and steals the tail half.
        assert_eq!(kernels[1].step(warp), Step::Claimed);
        kept.store(board.mirror(0).lock().size[1], Ordering::Relaxed);
        let mut done = [false; 2];
        while done.contains(&false) {
            for (kernel, done) in kernels.iter_mut().zip(&mut done) {
                *done = *done || kernel.step(warp) == Step::Done;
            }
        }
    });
    let kept = kept.into_inner();
    assert!(
        kept < g.degree(0),
        "warp 1 stole no part of the level-1 range"
    );
    let m = &metrics.warps[0];
    let stolen_pin = g.neighbors(0).binary_search(&v).unwrap() >= kept;
    (m.matches_found, m.local_steals, stolen_pin)
}

#[test]
fn a_stolen_pinned_range_finds_its_pin_in_either_half() {
    let g = gen::preferential_attachment(240, 4, 7).degree_ordered();
    let q = catalog::paper_query(2);
    let e = Engine::new(EngineConfig::default());
    let hub_row = g.neighbors(0);
    for (v, in_stolen_half) in [(hub_row[hub_row.len() - 1], true), (hub_row[0], false)] {
        let without = g.without_edges(&[(0, v)]);
        let want = e.run(&g, &q).unwrap().count - e.run(&without, &q).unwrap().count;
        assert!(want > 0, "edge (0, {v}) lies on no C5");
        let (got, steals, stolen_pin) = stolen_pinned_range(&g, v);
        assert_eq!(stolen_pin, in_stolen_half, "edge (0, {v})");
        assert_eq!(steals, 1, "edge (0, {v})");
        assert_eq!(
            got, want,
            "edge (0, {v}): the delta is the recount difference"
        );
    }
}
