//! A warp's step returns: one OS thread steps the four kernels of a 2 × 2
//! board in turn, with both steal levels on, and the run counts exactly,
//! steals both ways and repeats itself to the instruction. A kernel whose
//! idle wait blocked could not be driven like this at all: its first idle
//! step would never hand the thread back. Stepping also shows what a thief
//! finds in a staged delta launch: a stage's level-1 range is its pin
//! alone, so a thief takes a stage, never half a row.

use stmatch_baselines::reference::{self, RefOptions};
use stmatch_core::delta::StagedSide;
use stmatch_core::kernel::{KernelEnv, Step, WarpKernel};
use stmatch_core::steal::Board;
use stmatch_core::{Engine, EngineConfig, Launch};
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
    let env = KernelEnv::new(Launch::new(g, &plan), &cfg);
    let board = Board::new(2, 2, env.stop(), (0, env.l0_len()), cfg.chunk_size);
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

/// The C5 (q2) matches of `g` that use one of the hub's edges `(0, v)` for
/// `v` in `pins`, counted by one staged launch of q2's anchored plan on a
/// 1 × 2 board stepped on one thread, one stage per level-0 chunk. Vertex 0
/// is the degree-ordered graph's hub, and C5's plan starts at an edge's
/// lower endpoint: warp 0 claims stage 0's hub at level 0 and publishes its
/// level-1 range, then warp 1 steps before warp 0's first level-1 claim.
/// Returns the count, the steals, the level-1 range warp 0 published, and
/// what warp 1's first step did.
fn staged_hub_edges(g: &Graph, pins: &[VertexId]) -> (u64, u64, (usize, usize), Step) {
    let mut cfg = EngineConfig::default().with_grid(grid(1, 2));
    (cfg.local_steal, cfg.global_steal) = (true, false);
    let plans = Engine::new(cfg).compile_delta(&catalog::paper_query(2));
    let plan = plans.plans().next().expect("C5 has one edge orbit");
    assert_eq!(plan.bytecode().bounds(1), [(0, Bound::Greater)]);
    let side = StagedSide::new(g, pins.iter().map(|&v| (0, v)).collect());
    let env = KernelEnv::new(side.request(plan).expect("a stage per pin"), &cfg);
    // The plan orients its anchor: one level-0 index per stage.
    assert_eq!(env.l0_len(), pins.len());
    let board = Board::new(1, 2, env.stop(), (0, env.l0_len()), 1);
    let seen = std::sync::Mutex::new(None);
    let metrics = Grid::new(grid(1, 1)).unwrap().launch(|warp| {
        let mut kernels: Vec<_> = (0..2)
            .map(|id| WarpKernel::new(&env, &board, id, None, None))
            .collect();
        // Warp 0 installs stage 0 and claims its level-0 index, publishing
        // its level-1 range; warp 1 then finds that range too short to
        // steal from and takes the next stage off the dispenser.
        assert_eq!(kernels[0].step(warp), Step::Claimed);
        assert_eq!(kernels[0].step(warp), Step::Claimed);
        let published = {
            let m = board.mirror(0).lock();
            (m.iter[1], m.size[1])
        };
        let first = kernels[1].step(warp);
        *seen.lock().unwrap() = Some((published, first));
        let mut done = [false; 2];
        while done.contains(&false) {
            for (kernel, done) in kernels.iter_mut().zip(&mut done) {
                *done = *done || kernel.step(warp) == Step::Done;
            }
        }
    });
    let (published, first) = seen.into_inner().unwrap().expect("warp 0 published");
    let m = &metrics.warps[0];
    (m.matches_found, m.local_steals, published, first)
}

#[test]
fn a_stage_publishes_its_pin_alone_so_a_thief_takes_a_stage() {
    let g = gen::preferential_attachment(240, 4, 7).degree_ordered();
    let q = catalog::paper_query(2);
    let e = Engine::new(EngineConfig::default());
    let hub_row = g.neighbors(0);
    // Stage 0 ends at the hub's last neighbour, so its one-element range
    // sits at the far end of the row; stage 1 is what warp 1 takes.
    let pins = [hub_row[hub_row.len() - 1], hub_row[0]];
    let edges: Vec<_> = pins.iter().map(|&v| (0, v)).collect();
    let want = e.run(&g, &q).unwrap().count - e.run(&g.without_edges(&edges), &q).unwrap().count;
    assert!(want > 0, "the hub's edges {edges:?} lie on no C5");
    let (got, steals, published, first) = staged_hub_edges(&g, &pins);
    let j = hub_row.len() - 1;
    assert_eq!(published, (j, j + 1), "level 1 publishes its pin alone");
    assert_eq!(first, Step::Claimed, "warp 1 installs stage 1");
    assert_eq!(steals, 0, "nothing shallow is long enough to split");
    assert_eq!(got, want, "the delta is the recount difference");
}
