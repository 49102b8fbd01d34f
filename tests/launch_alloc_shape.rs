//! A warm launch allocates only what its caller reads, and a maintained
//! count answers without one.
//!
//! A warm launch on a 1 × 2 grid makes at most three host allocations: the
//! per-warp metrics the outcome returns and the launch's steal board (its
//! per-warp mirrors and its per-block state). Planning the shared budget
//! records nothing, and the list of warp threads is the launching thread's
//! buffer from its last launch. (Before, the budget logged four `String`s
//! and a `Vec`, the board made four `Vec`s and the thread list one: 11.)
//!
//! A `submit` on a snapshot whose count the service maintains makes no
//! launch: the first answer after a batch carries the batch's delta
//! launches, a second one on the same snapshot none, and either allocates
//! less than a warm recount of a cached plan (a vertex-induced query, which
//! always recounts).
//!
//! A counting `#[global_allocator]` tallies every `alloc`/`realloc`, warp
//! threads included; as in `tests/alloc_free.rs`, this file holds a single
//! `#[test]` so nothing else runs between the two counter reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use stmatch_core::{Engine, EngineConfig, Launch, MatchService, QueryOptions, ServiceConfig};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, EdgeOp, Graph};
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

/// The value `f` returns and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// The benchmark's grid: one block of two warps.
fn config() -> EngineConfig {
    EngineConfig::default().with_grid(GridConfig {
        num_blocks: 1,
        warps_per_block: 2,
        ..GridConfig::default()
    })
}

/// `n` deletes of present edges and `n` inserts of absent pairs.
fn exchange(g: &Graph, n: usize) -> Vec<EdgeOp> {
    let nv = g.num_vertices() as u32;
    let stride = g.num_edges() / n;
    let deletes = g.edges().step_by(stride).take(n);
    let inserts = (0..nv)
        .map(|u| (u, (u + nv / 2) % nv))
        .filter(|&(u, v)| u < v && !g.has_edge(u, v))
        .take(n);
    deletes
        .map(|(u, v)| EdgeOp::delete(u, v))
        .chain(inserts.map(|(u, v)| EdgeOp::insert(u, v)))
        .collect()
}

#[test]
fn a_warm_launch_allocates_what_it_returns_and_a_maintained_answer_launches_nothing() {
    let graph = gen::preferential_attachment(256, 4, 9).degree_ordered();

    // A warm launch — the engine's arenas are recycled from its earlier
    // launches — stealing off so that no warp splits a range (a stolen
    // range is a payload of its own).
    let mut cfg = config();
    (cfg.local_steal, cfg.global_steal) = (false, false);
    let engine = Engine::new(cfg);
    let plan = engine.compile(&catalog::paper_query(4));
    let launch = || engine.launch(&Launch::new(&graph, &plan)).unwrap();
    let want = launch().count;
    for _ in 0..3 {
        launch();
    }
    let (out, allocs) = counted(launch);
    assert_eq!(out.count, want);
    assert!(allocs <= 3, "a warm 1 × 2 launch made {allocs} allocations");

    // A maintained answer.
    let svc = MatchService::new(
        Arc::new(graph.clone()),
        ServiceConfig::new(config().with_delta(true)).with_workers(1),
    );
    let q = catalog::paper_query(4);
    svc.submit(&q, QueryOptions::default()).unwrap();
    svc.apply_batch(&exchange(&graph, 16));
    let (first, first_allocs) = counted(|| svc.submit(&q, QueryOptions::default()).unwrap());
    let (again, again_allocs) = counted(|| svc.submit(&q, QueryOptions::default()).unwrap());
    let induced = QueryOptions {
        induced: Some(true),
        ..QueryOptions::default()
    };
    svc.submit(&q, induced.clone()).unwrap();
    let (recount, recount_allocs) = counted(|| svc.submit(&q, induced).unwrap());
    let post = svc.current_graph();
    assert_eq!(first.count, engine.run(&post, &q).unwrap().count);
    assert_eq!(again.count, first.count);
    assert!(recount.metrics.kernel_launches > 0);
    let plans = engine.compile_delta(&q).num_plans() as u64;
    assert_eq!(
        first.metrics.kernel_launches,
        2 * plans,
        "the first answer carries the batch's delta launches"
    );
    assert_eq!(again.metrics.kernel_launches, 0, "a second answer launched");
    assert_eq!(svc.cache_stats().maintained, 2);
    assert!(
        first_allocs.max(again_allocs) < recount_allocs,
        "maintained answers made {first_allocs} and {again_allocs} allocations, \
         a recount {recount_allocs}"
    );
}
