//! Host allocations of a delta batch grow with the batch, not with batch ×
//! stages: one launch per (batch side × pattern edge) over stage views that
//! share one versioned row table, so doubling the batch may not much more
//! than double the allocations. (Per-edge launches on per-stage
//! `without_edges` views — each re-merging the rows of every earlier stage —
//! took 3.26× on this fixture: 62 503 → 203 946.)
//!
//! A counting `#[global_allocator]` tallies every `alloc`/`realloc`, warp
//! threads included; as in `tests/alloc_free.rs`, this file holds a single
//! `#[test]` so nothing else runs between the reset and the snapshot.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use stmatch_core::{Engine, EngineConfig};
use stmatch_graph::{gen, DeltaOverlay, EdgeOp, Graph};
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

/// Allocations of one `run_delta_plans_metered` over an `n`-edge batch.
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
    let (delta, _) = e
        .run_delta_plans_metered(&pre, &post, &batch, &plans)
        .expect("delta");
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(delta.removed > 0, "the batch destroyed triangles");
    after - before
}

#[test]
fn doubling_the_batch_at_most_doubles_and_a_half_the_allocations() {
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
