//! Memory accounting: global-memory budgets (OOM reproduction) and
//! per-block shared-memory budgets (launch-failure reproduction).

use std::sync::atomic::{AtomicUsize, Ordering};

/// A hard out-of-memory failure, as hit by the subgraph-centric baselines
/// on dense graphs (the '×' entries of Table II).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    pub requested: usize,
    pub in_use: usize,
    pub limit: usize,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of device memory: requested {} B with {} B of {} B in use",
            self.requested, self.in_use, self.limit
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Tracks device global-memory consumption against a hard limit.
///
/// Thread-safe: warps allocate concurrently. Peak usage is recorded so the
/// bench harness can report the memory advantage of the stack-based design
/// over materializing partial subgraphs.
#[derive(Debug)]
pub struct MemoryBudget {
    limit: usize,
    used: AtomicUsize,
    peak: AtomicUsize,
}

impl MemoryBudget {
    /// A budget of `limit` bytes.
    pub fn new(limit: usize) -> MemoryBudget {
        MemoryBudget {
            limit,
            used: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// An effectively unlimited budget.
    pub fn unlimited() -> MemoryBudget {
        Self::new(usize::MAX)
    }

    /// The configured limit in bytes.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Attempts to allocate `bytes`; fails when the limit would be crossed.
    pub fn try_alloc(&self, bytes: usize) -> Result<(), OutOfMemory> {
        // Relaxed everywhere: `used` is a pure quota counter — no data is
        // published under it, the CAS itself guarantees the limit is never
        // crossed, and callers that need their allocation visible to other
        // threads hand it over through a lock or thread join.
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = cur.checked_add(bytes).ok_or(OutOfMemory {
                requested: bytes,
                in_use: cur,
                limit: self.limit,
            })?;
            if next > self.limit {
                return Err(OutOfMemory {
                    requested: bytes,
                    in_use: cur,
                    limit: self.limit,
                });
            }
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    // Relaxed is legitimate for `peak` because fetch_max is
                    // monotone and atomic per update: concurrent maxima
                    // cannot lose the true high-water mark, only observe it
                    // late, and `peak()` is read for reporting after the
                    // launch has joined (a real happens-before edge) — a
                    // momentarily stale read mid-run is advisory only.
                    self.peak.fetch_max(next, Ordering::Relaxed);
                    return Ok(());
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Releases `bytes` previously allocated.
    ///
    /// Hardened against unpaired releases: a plain `fetch_sub` would wrap
    /// `used` past zero and every later `try_alloc` would spuriously OOM
    /// (or worse, succeed against a wrapped count). The decrement is
    /// checked: an underflow panics in debug builds, and in release builds
    /// saturates to zero and files a `budget-underflow` diagnostic with
    /// simt-check when any checker is enabled.
    pub fn free(&self, bytes: usize) {
        // Relaxed for the same reason as `try_alloc`: the counter is a
        // quota, not a publication point.
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let Some(next) = cur.checked_sub(bytes) else {
                if simt_check::any_on() {
                    simt_check::report_misuse(
                        "budget-underflow",
                        format!(
                            "MemoryBudget::free({bytes}) underflows the usage counter \
                             (only {cur} B in use) — unpaired or double free"
                        ),
                    );
                }
                debug_assert!(false, "freeing more than allocated: {bytes} > {cur}");
                self.used.store(0, Ordering::Relaxed);
                return;
            };
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Bytes currently in use.
    pub fn in_use(&self) -> usize {
        // Relaxed: advisory snapshot; exactness is only needed after a
        // join, which already orders it.
        self.used.load(Ordering::Relaxed)
    }

    /// Highest usage observed.
    pub fn peak(&self) -> usize {
        // Relaxed: see the fetch_max in `try_alloc` — monotone statistic,
        // read after join.
        self.peak.load(Ordering::Relaxed)
    }
}

/// Per-threadblock shared-memory budget, consumed at launch-planning time.
///
/// An engine lays out its per-block shared structures (the `Csize`, `iter`,
/// `uiter` arrays of the warp stacks, the compact plan encoding, steal
/// metadata) against this budget; overflow aborts the launch like CUDA's
/// `cudaErrorLaunchOutOfResources`. The default capacity matches the 100 KB
/// opt-in maximum of the RTX 3090 the paper evaluates on.
///
/// A reservation is a counter bump: nothing is recorded per structure, so
/// planning a launch allocates nothing unless it overflows.
#[derive(Clone, Debug)]
pub struct SharedBudget {
    capacity: usize,
    used: usize,
}

/// Shared-memory overflow at launch time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedOverflow {
    pub what: String,
    pub requested: usize,
    pub used: usize,
    pub capacity: usize,
}

impl std::fmt::Display for SharedOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shared memory overflow allocating `{}`: {} B requested, {}/{} B used",
            self.what, self.requested, self.used, self.capacity
        )
    }
}

impl std::error::Error for SharedOverflow {}

impl SharedBudget {
    /// RTX 3090 opt-in shared memory per block.
    pub const RTX3090_BYTES: usize = 100 * 1024;

    /// A budget with the given capacity.
    pub fn new(capacity: usize) -> SharedBudget {
        SharedBudget { capacity, used: 0 }
    }

    /// Reserves `bytes` for a named structure; the name is kept only in the
    /// overflow error.
    pub fn try_alloc(&mut self, what: &str, bytes: usize) -> Result<(), SharedOverflow> {
        if self.used + bytes > self.capacity {
            return Err(SharedOverflow {
                what: what.to_string(),
                requested: bytes,
                used: self.used,
                capacity: self.capacity,
            });
        }
        self.used += bytes;
        Ok(())
    }

    /// Bytes reserved so far.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let b = MemoryBudget::new(100);
        b.try_alloc(60).unwrap();
        assert_eq!(b.in_use(), 60);
        assert!(b.try_alloc(50).is_err());
        b.free(60);
        b.try_alloc(100).unwrap();
        assert_eq!(b.peak(), 100);
    }

    #[test]
    fn oom_reports_details() {
        let b = MemoryBudget::new(10);
        let err = b.try_alloc(11).unwrap_err();
        assert_eq!(err.requested, 11);
        assert_eq!(err.limit, 10);
        assert!(err.to_string().contains("out of device memory"));
    }

    #[test]
    fn concurrent_allocs_respect_limit() {
        // Eight warps, each on its own thread, race for the budget.
        let b = MemoryBudget::new(1000);
        let eight_warps = crate::GridConfig {
            num_blocks: 2,
            ..Default::default()
        };
        let grid = crate::Grid::new(eight_warps).unwrap();
        let metrics = grid.launch(|warp| {
            warp.metrics_mut().matches_found =
                (0..100).filter(|_| b.try_alloc(10).is_ok()).count() as u64;
        });
        assert_eq!(metrics.matches(), 100); // exactly 1000/10 allocations succeed
        assert_eq!(b.in_use(), 1000);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "freeing more than allocated")]
    fn unpaired_free_panics_in_debug() {
        let b = MemoryBudget::new(100);
        b.try_alloc(10).unwrap();
        b.free(11);
    }

    #[test]
    fn free_saturates_instead_of_wrapping() {
        // In release builds (no debug_assert) an unpaired free must clamp
        // to zero rather than wrap `used` to huge values that would make
        // every later allocation spuriously OOM. Exercise the saturation
        // arithmetic through the same checked_sub the hardened free() uses.
        assert_eq!(5usize.checked_sub(7), None);
        let b = MemoryBudget::new(100);
        b.try_alloc(60).unwrap();
        b.free(60);
        assert_eq!(b.in_use(), 0);
        b.try_alloc(100).unwrap();
        assert_eq!(b.in_use(), 100);
    }

    #[test]
    fn shared_budget_overflow() {
        let mut s = SharedBudget::new(64);
        s.try_alloc("Csize", 40).unwrap();
        let err = s.try_alloc("iter", 40).unwrap_err();
        assert_eq!((err.what.as_str(), err.used), ("iter", 40));
        assert_eq!(s.used(), 40, "a failed reservation reserves nothing");
        s.try_alloc("iter", 24).unwrap();
        assert_eq!(s.used(), 64);
    }
}
