//! A counting `#[global_allocator]` (the `tests/alloc_free.rs` idiom). It is
//! armed only for the counting pass, so the timed section pays one relaxed
//! load per allocation and no contended read-modify-write.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

// Relaxed throughout: the counters are statistics read after the counted
// work has been joined, and publish no other data.
static ARMED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    if ARMED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never touch the allocation itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations and bytes requested, by every thread of the process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Allocs {
    pub count: u64,
    pub bytes: u64,
}

impl std::ops::AddAssign for Allocs {
    fn add_assign(&mut self, o: Allocs) {
        self.count += o.count;
        self.bytes += o.bytes;
    }
}

/// Runs `f` with the counter armed and returns what it allocated. Not
/// reentrant: one counted region at a time, from the main thread.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let before = Allocs {
        count: COUNT.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    };
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    let allocs = Allocs {
        count: COUNT.load(Ordering::Relaxed) - before.count,
        bytes: BYTES.load(Ordering::Relaxed) - before.bytes,
    };
    (out, allocs)
}
