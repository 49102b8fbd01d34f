//! A warp's step returns: one OS thread steps the four kernels of a 2 × 2
//! board in turn, with both steal levels on, and the run counts exactly,
//! steals both ways and repeats itself to the instruction. A kernel whose
//! idle wait blocked could not be driven like this at all: its first idle
//! step would never hand the thread back.

use stmatch_baselines::reference::{self, RefOptions};
use stmatch_core::kernel::{KernelEnv, Level0Map, Step, WarpKernel};
use stmatch_core::steal::Board;
use stmatch_core::{Engine, EngineConfig};
use stmatch_gpusim::{Grid, GridConfig, WarpMetrics};
use stmatch_graph::{gen, Graph};
use stmatch_pattern::catalog;

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
