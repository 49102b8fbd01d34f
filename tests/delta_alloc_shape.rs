//! Host allocations of a delta batch grow with the batch, not with batch ×
//! stages: one launch per (batch side × edge orbit of the pattern; one for
//! the triangle) over stage views that share one versioned row table, so
//! doubling the batch may not much more than double the allocations. (Per-edge launches on per-stage
//! `without_edges` views — each re-merging the rows of every earlier stage —
//! took 3.26× on this fixture: 62 503 → 203 946.)
//!
//! A batch is staged once (`StagedBatch`), and a second pattern counted over
//! it allocates only its launches.
//!
//! A resident service's reply allocates the same whether its ticket is
//! waited on before or after the worker answers: the worker fills a slot
//! allocated at admission, and a wait that blocks registers nothing.
//!
//! A counting `#[global_allocator]` tallies every `alloc`/`realloc`, warp
//! threads included. The file's tests take one lock for their whole body,
//! so no other test allocates between a reading and the next; the test
//! harness itself may still allocate between tests, so an exact comparison
//! is taken as the least of a few paired readings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use stmatch_bench::tick;
use stmatch_core::{
    Engine, EngineConfig, FaultPlan, MatchService, QueryOptions, ServiceConfig, StagedBatch,
};
use stmatch_graph::{gen, DeltaOverlay, EdgeOp, Graph};
use stmatch_pattern::catalog;
use stmatch_testkit::rng::SmallRng;

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

/// Held by each test for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

/// `n` net updates on `g`, half deletes spread over its edge list and half
/// inserts of absent pairs.
fn exchange_batch(g: &Graph, n: usize) -> Vec<EdgeOp> {
    let nv = g.num_vertices() as u32;
    let stride = g.num_edges() / (n / 2);
    let deletes = g.edges().step_by(stride).take(n / 2);
    let inserts = (0..nv)
        .map(|u| (u, (u + nv / 2) % nv))
        .filter(|&(u, v)| u < v && !g.has_edge(u, v))
        .take(n / 2);
    deletes
        .map(|(u, v)| EdgeOp::delete(u, v))
        .chain(inserts.map(|(u, v)| EdgeOp::insert(u, v)))
        .collect()
}

/// Allocations of staging an `n`-edge batch and counting the triangle
/// over it.
fn batch_allocs(e: &Engine, base: &Graph, n: usize) -> u64 {
    let mut overlay = DeltaOverlay::new(base.clone());
    let pre = overlay.snapshot();
    let batch = overlay.apply(&exchange_batch(base, n));
    assert_eq!(
        batch.inserts.len() + batch.deletes.len(),
        n,
        "every op nets"
    );
    let post = overlay.snapshot();
    let plans = e.compile_delta(&catalog::triangle());
    let before = ALLOCS.load(Ordering::Relaxed);
    let (delta, _) = plans
        .count(e, &StagedBatch::new(&pre, &post, &batch))
        .expect("delta");
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(delta.removed > 0, "the batch destroyed triangles");
    after - before
}

#[test]
fn doubling_the_batch_at_most_doubles_and_a_half_the_allocations() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let base = gen::preferential_attachment(1024, 8, 9).degree_ordered();
    let e = Engine::new(EngineConfig::default().with_delta(true));
    // Warm-up: first-use allocations (thread-locals, lazy statics) are not
    // the batch's.
    batch_allocs(&e, &base, 16);
    let narrow = batch_allocs(&e, &base, 128);
    let wide = batch_allocs(&e, &base, 256);
    assert!(
        wide as f64 <= 2.5 * narrow as f64,
        "a 256-edge batch allocated {wide} times, a 128-edge batch {narrow}: more than 2.5×"
    );
}

/// A batch is staged once for every pattern counted over it. On the
/// `resident_tick` instance's 128-edge exchange batch, on the service's
/// 1 × 2 steal-free grid with its arenas parked: building the
/// `StagedBatch` allocates `STAGING_ALLOCS` times (the `staging` figure
/// of `check delta`'s `delta allocs:` line), and counting a second pattern
/// over the same batch allocates only its launches, `LAUNCH_ALLOCS`
/// each — nothing is restaged.
#[test]
fn a_batch_is_staged_once_and_a_second_count_allocates_only_its_launches() {
    const STAGING_ALLOCS: u64 = 14;
    const LAUNCH_ALLOCS: u64 = 3;
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = SmallRng::seed_from_u64(tick::SEED);
    let (start, mut present, mut absent) = tick::fixture(&mut rng);
    let mut overlay = DeltaOverlay::new(start);
    let pre = overlay.snapshot();
    let batch = overlay.apply(&tick::exchange(&mut present, &mut absent, &mut rng));
    let post = overlay.snapshot();
    let mut cfg = EngineConfig::default();
    (cfg.grid.num_blocks, cfg.grid.warps_per_block) = (1, 2);
    (cfg.local_steal, cfg.global_steal) = (false, false);
    let e = Engine::new(cfg);
    let (first, second) = (
        e.compile_delta(&catalog::triangle()),
        e.compile_delta(&catalog::paper_query(2)),
    );
    // Warm-up: the engine's arenas, parked as a service's are between ticks.
    let warm = StagedBatch::new(&pre, &post, &batch);
    first.count(&e, &warm).expect("warm-up delta");
    second.count(&e, &warm).expect("warm-up delta");
    let (mut staging, mut counted, mut launches) = (u64::MAX, u64::MAX, 0);
    for _ in 0..3 {
        let before = ALLOCS.load(Ordering::Relaxed);
        let staged = StagedBatch::new(&pre, &post, &batch);
        let built = ALLOCS.load(Ordering::Relaxed);
        first.count(&e, &staged).expect("first delta");
        let between = ALLOCS.load(Ordering::Relaxed);
        let (_, metrics) = second.count(&e, &staged).expect("second delta");
        let after = ALLOCS.load(Ordering::Relaxed);
        staging = staging.min(built - before);
        counted = counted.min(after - between);
        launches = metrics.kernel_launches;
    }
    assert_eq!(
        staging, STAGING_ALLOCS,
        "staging a 128-edge batch allocated {staging} times"
    );
    assert_eq!(launches, 2 * second.num_plans() as u64, "both sides launch");
    assert_eq!(
        counted,
        LAUNCH_ALLOCS * launches,
        "a second count over the staged batch allocated {counted} times for {launches} launches"
    );
}

/// A graph's name is shared by its views, not copied into each: a batch on
/// a named graph allocates exactly as often as on the same graph unnamed
/// (a per-view copy made one allocation per stage view, ~128 here).
#[test]
fn a_named_graph_costs_a_batch_no_allocations() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let unnamed = gen::preferential_attachment(1024, 8, 9).degree_ordered();
    assert_eq!(unnamed.name(), "");
    let named = unnamed.clone().with_name("PA(1024,8,9)");
    let e = Engine::new(EngineConfig::default().with_delta(true));
    batch_allocs(&e, &named, 16);
    let (mut plain, mut with_name) = (u64::MAX, u64::MAX);
    for _ in 0..3 {
        plain = plain.min(batch_allocs(&e, &unnamed, 128));
        with_name = with_name.min(batch_allocs(&e, &named, 128));
    }
    assert_eq!(
        with_name, plain,
        "a batch allocated {with_name} times on a named graph, {plain} unnamed"
    );
}

/// A ticket waited on after its reply and one waited on before it (the
/// query stalls its one warp, so that wait surely blocks) allocate the
/// same: the reply is a one-shot slot, and a blocking wait adds nothing.
#[test]
fn a_reply_allocates_the_same_whether_or_not_its_wait_blocks() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let mut cfg = EngineConfig::default();
    (cfg.grid.num_blocks, cfg.grid.warps_per_block) = (1, 1);
    let svc = MatchService::new(
        Arc::new(gen::complete(8)),
        ServiceConfig::new(cfg).with_workers(1),
    );
    let q = catalog::triangle();
    let stall = Duration::from_millis(20);
    let stalled = || QueryOptions {
        fault_plan: Some(FaultPlan::new().stall_at(0, 1, stall)),
        ..QueryOptions::default()
    };
    let ask = |wait_after_reply: bool| {
        let before = ALLOCS.load(Ordering::Relaxed);
        let ticket = svc.enqueue(&q, stalled());
        if wait_after_reply {
            std::thread::sleep(20 * stall);
        }
        let out = ticket.wait().expect("stalled query");
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(out.count, 56, "C(8, 3)");
        after - before
    };
    // Warm-up: the cache entry, the worker's idle registration.
    ask(true);
    let (mut after_reply, mut blocked) = (u64::MAX, u64::MAX);
    for _ in 0..3 {
        after_reply = after_reply.min(ask(true));
        blocked = blocked.min(ask(false));
    }
    assert_eq!(
        blocked, after_reply,
        "a blocking wait allocated {blocked} times, a wait after the reply {after_reply}"
    );
}
