//! Proves the allocation-free hot path: after one warmup pass has sized
//! the kernel's reusable scratch (arena slabs, unroll batches, ping/pong
//! chain buffers, the raw-claim buffer), a full steady-state matching run
//! performs **zero** heap allocations.
//!
//! A counting `#[global_allocator]` tallies every `alloc`/`realloc`; this
//! file deliberately holds a single `#[test]` so no concurrently running
//! test can pollute the counter between the reset and the snapshot.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use stmatch_core::kernel::{KernelEnv, Level0Map, WarpKernel};
use stmatch_core::steal::{Board, StealPayload};
use stmatch_core::EngineConfig;
use stmatch_gpusim::{Grid, GridConfig};
use stmatch_graph::gen;
use stmatch_pattern::catalog;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs warmup + steady-state passes of `paper_query(6)` over a PA graph,
/// returning `(steady_allocs, steady_matches, grid_total_matches,
/// bitmap_probe_words + bitmap_merge_words)`. When `bitmap` is set, the
/// graph carries a hub-bitmap index and the kernel routes through the
/// bitmap set-op paths (including the arena's lent word scratch).
fn steady_state_case(bitmap: bool) -> (u64, u64, u64, u64) {
    // Steal-free single-warp geometry: the claim loop is the whole kernel.
    let mut cfg = EngineConfig {
        grid: GridConfig {
            num_blocks: 1,
            warps_per_block: 1,
            shared_mem_per_block: 100 * 1024,
        },
        local_steal: false,
        global_steal: false,
        ..EngineConfig::default()
    };
    cfg.hub_bitmap.enabled = bitmap;
    cfg.validate();

    let mut g = gen::preferential_attachment(120, 6, 11).degree_ordered();
    if bitmap {
        // Low threshold so plenty of vertices qualify as hubs and both the
        // probe and merge/fused-chain paths actually run.
        g = g.with_hub_bitmap(6);
    }
    let n = g.num_vertices();
    let hubs = g.hub_bitmap();

    // A pattern whose plan exercises multi-op chains and the unrolled deep
    // levels (so the ping/pong scratch and every arena set slot are live).
    let pattern = catalog::paper_query(6);
    let plan = stmatch_core::Engine::new(cfg).compile(&pattern);

    let grid = Grid::new(cfg.grid).unwrap();
    let k = plan.num_levels();
    let board = Board::new(1, 1, cfg.effective_stop(k), (0, n), cfg.chunk_size);

    // Allocation count observed during the post-warmup run, and the match
    // count of that run (sanity: the steady-state pass did real work).
    static STEADY_ALLOCS: AtomicU64 = AtomicU64::new(0);
    static STEADY_MATCHES: AtomicU64 = AtomicU64::new(0);

    let metrics = grid.launch(|warp| {
        let env = KernelEnv {
            graph: &g,
            plan: &plan,
            cfg: &cfg,
            hubs,
            slab_caps: None,
            l0: Level0Map::Identity,
            enumerate: false,
        };
        let mut kernel = WarpKernel::new(&env, &board, warp.id(), None, None);
        // The whole level-0 domain as one work item, the shape every chunk
        // reaches the kernel in (allocation-free to build, and so is the
        // clone `install` keeps while it runs).
        let whole = StealPayload::chunk(0, n);

        // Warmup pass: sizes every reusable scratch buffer.
        kernel.install(warp, &whole);
        kernel.run(warp);
        let warm_matches = warp.metrics_mut().matches_found;

        // Steady-state pass over the identical workload: must be heap-free.
        let before = ALLOCS.load(Ordering::Relaxed);
        kernel.install(warp, &whole);
        kernel.run(warp);
        let after = ALLOCS.load(Ordering::Relaxed);

        STEADY_ALLOCS.store(after - before, Ordering::Relaxed);
        STEADY_MATCHES.store(
            warp.metrics_mut().matches_found - warm_matches,
            Ordering::Relaxed,
        );
    });

    let total = metrics.total();
    (
        STEADY_ALLOCS.load(Ordering::Relaxed),
        STEADY_MATCHES.load(Ordering::Relaxed),
        metrics.matches(),
        total.bitmap_probe_words + total.bitmap_merge_words,
    )
}

#[test]
fn steady_state_run_does_not_allocate() {
    let mut classic_matches = 0;
    for bitmap in [false, true] {
        let (steady_allocs, steady_matches, grid_matches, bitmap_words) = steady_state_case(bitmap);
        assert!(steady_matches > 0, "steady-state pass found no matches");
        assert_eq!(
            steady_matches * 2,
            grid_matches,
            "both passes must count the same workload (bitmap: {bitmap})"
        );
        assert_eq!(
            steady_allocs, 0,
            "steady-state run() allocated on the heap (bitmap: {bitmap})"
        );
        if bitmap {
            assert_eq!(
                steady_matches, classic_matches,
                "bitmap routing changed match counts"
            );
            assert!(
                bitmap_words > 0,
                "bitmap-enabled run never took a bitmap path"
            );
        } else {
            classic_matches = steady_matches;
            assert_eq!(bitmap_words, 0, "bitmap counters moved while disabled");
        }
    }
}
