//! A delta overlay's host allocations follow the batch, not the history:
//! `snapshot()` shares the overlay's row table, so after 48 uncompacted
//! batches it allocates no more than after the first, and `apply` allocates
//! about once per endpoint of the batch's net edges (each rebuilt row) plus
//! a constant (netting, the two net lists, one copy of the row table while
//! the previous snapshot is alive). Re-merging every row touched since the
//! last compaction on each snapshot grew with the batch count instead.
//!
//! A counting `#[global_allocator]` tallies every `alloc`/`realloc`; as in
//! `tests/alloc_free.rs`, this file holds a single `#[test]` so nothing else
//! runs between the two counter reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use stmatch_graph::{gen, DeltaOverlay, EdgeOp, VertexId};

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

/// `half` deletes of present edges and `half` inserts of absent pairs, all
/// distinct, drawn against the overlay's current graph: every op nets.
fn exchange_batch(o: &DeltaOverlay, rng: &mut u64, half: usize) -> Vec<EdgeOp> {
    let n = o.num_vertices() as u64;
    let mut next = || {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng
    };
    let mut named: BTreeSet<(VertexId, VertexId)> = BTreeSet::new();
    let mut ops = Vec::with_capacity(2 * half);
    while ops.len() < half {
        let u = (next() % n) as VertexId;
        let row = o.neighbors(u);
        if row.is_empty() {
            continue;
        }
        let v = row[(next() % row.len() as u64) as usize];
        if named.insert((u.min(v), u.max(v))) {
            ops.push(EdgeOp::delete(u, v));
        }
    }
    while ops.len() < 2 * half {
        let (u, v) = ((next() % n) as VertexId, (next() % n) as VertexId);
        if u != v && !o.has_edge(u, v) && named.insert((u.min(v), u.max(v))) {
            ops.push(EdgeOp::insert(u, v));
        }
    }
    ops
}

#[test]
fn a_snapshot_costs_the_same_after_48_batches_as_after_one() {
    let base = gen::preferential_attachment(1024, 8, 9).degree_ordered();
    let mut overlay = DeltaOverlay::new(base);
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut snapshot_allocs = Vec::new();
    // The previous snapshot stays alive across the next `apply`, as a
    // resident service keeps its current view.
    let mut current = overlay.snapshot();
    for round in 1..=48 {
        let ops = exchange_batch(&overlay, &mut rng, 64);
        let (batch, apply) = counted(|| overlay.apply(&ops));
        assert_eq!(
            batch.inserts.len() + batch.deletes.len(),
            128,
            "every op nets"
        );
        let endpoints = batch.touched().len() as u64;
        assert!(
            apply <= endpoints + 64,
            "batch {round}: apply allocated {apply} times for {endpoints} endpoints"
        );
        let (view, snap) = counted(|| overlay.snapshot());
        assert_eq!(view.num_edges(), overlay.num_edges());
        snapshot_allocs.push(snap);
        current = view;
    }
    assert_eq!(current.version(), 48);
    let (first, last) = (snapshot_allocs[0], snapshot_allocs[47]);
    assert!(
        last <= first + 2,
        "snapshot allocated {first} times after batch 1 but {last} after batch 48"
    );
}
