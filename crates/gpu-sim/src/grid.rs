//! Grid launch: mapping warps onto the process's parked OS threads.

use crate::memory::SharedOverflow;
use crate::metrics::{GridMetrics, WarpMetrics};
use crate::warp::Warp;
use std::cell::Cell;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Most warps one threadblock holds: CUDA's 1024 threads per block, and the
/// width of a block's idle bitmap.
pub const MAX_WARPS_PER_BLOCK: usize = 32;

/// Grid geometry for a kernel launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridConfig {
    /// Number of threadblocks.
    pub num_blocks: usize,
    /// Warps per threadblock.
    pub warps_per_block: usize,
    /// Shared-memory capacity per block in bytes.
    pub shared_mem_per_block: usize,
}

impl Default for GridConfig {
    fn default() -> Self {
        // A modest default grid: enough warps to expose load imbalance and
        // stealing, few enough OS threads to run well on a laptop. The
        // paper's 82 SMs x 32 warps would oversubscribe a host CPU by 100x.
        GridConfig {
            num_blocks: 4,
            warps_per_block: 4,
            shared_mem_per_block: crate::memory::SharedBudget::RTX3090_BYTES,
        }
    }
}

impl GridConfig {
    /// Total warps in the grid.
    pub fn total_warps(&self) -> usize {
        self.num_blocks * self.warps_per_block
    }
}

/// Errors failing a launch before any warp runs.
#[derive(Clone, Debug)]
pub enum LaunchError {
    /// A per-block shared-memory budget was exceeded (CUDA:
    /// `cudaErrorLaunchOutOfResources`).
    SharedMemory(SharedOverflow),
    /// Device global memory was exhausted while preparing the launch.
    GlobalMemory(crate::memory::OutOfMemory),
    /// The grid geometry is unusable (zero blocks/warps, or more than
    /// [`MAX_WARPS_PER_BLOCK`] warps per block).
    BadGeometry(String),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::SharedMemory(e) => write!(f, "launch failed: {e}"),
            LaunchError::GlobalMemory(e) => write!(f, "launch failed: {e}"),
            LaunchError::BadGeometry(m) => write!(f, "launch failed: {m}"),
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<SharedOverflow> for LaunchError {
    fn from(e: SharedOverflow) -> Self {
        LaunchError::SharedMemory(e)
    }
}

impl From<crate::memory::OutOfMemory> for LaunchError {
    fn from(e: crate::memory::OutOfMemory) -> Self {
        LaunchError::GlobalMemory(e)
    }
}

/// A launchable grid.
///
/// [`Grid::launch`] runs one kernel closure per warp, each on its own OS
/// thread, and aggregates per-warp metrics. The threads are the process's
/// parked warp threads: a launch checks out one per warp, spawning only the
/// shortfall, and parks them again when it returns — the paper's persistent
/// warps, created once and reused by every launch. The closure receives a
/// mutable [`Warp`] carrying its identity and counters; all cross-warp
/// state (warp stacks, idle bitmaps, global steal slots) lives in the
/// engine and is shared through the closure's environment, mirroring how a
/// CUDA kernel addresses shared and global memory.
#[derive(Clone, Copy, Debug)]
pub struct Grid {
    config: GridConfig,
}

impl Grid {
    /// Creates a grid with the given geometry.
    pub fn new(config: GridConfig) -> Result<Grid, LaunchError> {
        if config.num_blocks == 0 || config.warps_per_block == 0 {
            return Err(LaunchError::BadGeometry(format!(
                "grid {}x{} has no warps",
                config.num_blocks, config.warps_per_block
            )));
        }
        if config.warps_per_block > MAX_WARPS_PER_BLOCK {
            return Err(LaunchError::BadGeometry(format!(
                "{} warps per block exceed the limit of {MAX_WARPS_PER_BLOCK}",
                config.warps_per_block
            )));
        }
        Ok(Grid { config })
    }

    /// The grid geometry.
    pub fn config(&self) -> GridConfig {
        self.config
    }

    /// Launches `kernel` on every warp concurrently and waits for all warps
    /// to finish (one "kernel launch" in CUDA terms — the `kernel_launches`
    /// counter in the returned metrics is 1).
    ///
    /// A panicking warp propagates: the launch itself panics once every
    /// warp has finished. Fault-tolerant callers should use
    /// [`Grid::launch_contained`] instead.
    pub fn launch<F>(&self, kernel: F) -> GridMetrics
    where
        F: Fn(&mut Warp) + Sync,
    {
        let (metrics, panics) = self.launch_contained(&kernel);
        if let Some(p) = panics.first() {
            panic!("warp thread panicked: warp {}: {}", p.warp, p.message);
        }
        metrics
    }

    /// [`Grid::launch`] with per-warp panic containment: each warp body
    /// runs under `catch_unwind`, a panicking warp's counters survive (it
    /// stops contributing work but its metrics up to the panic are kept),
    /// and the launch always returns — the hardware analogue of one SM
    /// faulting without resetting the device. The returned [`WarpPanic`]
    /// records (one per dead warp, in warp-id order) carry the panic
    /// payload rendered as a string; `GridMetrics::contained_panics`
    /// counts them. A contained panic never costs the pool its thread.
    ///
    /// Containment is a backstop, not a recovery protocol: any cross-warp
    /// state the closure shares (queues, counters, locks) is the caller's
    /// responsibility to repair — see `stmatch-core`'s engine, which
    /// performs its own containment with work requeue *inside* the
    /// closure and uses this layer only against escaped panics.
    pub fn launch_contained(
        &self,
        kernel: &(dyn Fn(&mut Warp) + Sync),
    ) -> (GridMetrics, Vec<WarpPanic>) {
        let start = Instant::now();
        let total = self.config.total_warps();
        let wpb = self.config.warps_per_block;
        // Every thread is in hand before the first job goes out, so a
        // failed spawn unwinds with no job in flight. The list is this
        // thread's buffer from its last launch, so a launch allocates none.
        let mut threads = LAUNCHING.take();
        checkout(&mut threads, total);
        // Launch fork point for the race checker: everything the launching
        // thread did so far happens-before every warp body.
        simt_check::launch_begin();
        // SAFETY: a thread holds this reference only while it runs the job
        // handed to it below, and stores its result after its last use of
        // it. Handing a job out (and awaiting its pickup) cannot fail: it
        // writes the thread's own cell, and the threads were all checked
        // out above. The loop after it waits for the result of every job
        // handed out, and nothing in it unwinds (`take` returns only what
        // its predicate accepts). So no job holding the erased reference is
        // in flight when this function returns or unwinds.
        let kernel: &'static (dyn Fn(&mut Warp) + Sync) = unsafe { std::mem::transmute(kernel) };
        // Warp 0's job is picked up before the other warps' jobs are handed
        // out, as when a launch spawned its warps in id order. That orders
        // the pickups only, not the claims: once its thread has the job,
        // warp 0 races the rest to its first claim, and with fewer cores
        // than warps another warp can drain a small launch first (`check
        // faults` kills warp 0 and needs it to claim; its retries cover the
        // race).
        for (id, t) in threads.iter().enumerate() {
            t.hand(Slot::Job { id, wpb, kernel });
            if id == 0 {
                t.await_pickup();
            }
        }
        let mut warps = Vec::with_capacity(total);
        let mut panics = Vec::new();
        for t in &threads {
            let Slot::Done((m, p)) = t.take(|s| matches!(s, Slot::Done(_))) else {
                unreachable!("`take` returns what `ready` accepts");
            };
            warps.push(m);
            panics.extend(p);
        }
        // Join point: every warp's history happens-before whatever the
        // launching thread does next (leftover preload, metrics, goldens).
        simt_check::launch_end();
        park(&mut threads);
        LAUNCHING.set(threads);
        let metrics = GridMetrics {
            warps,
            elapsed_nanos: start.elapsed().as_nanos() as u64,
            kernel_launches: 1,
            contained_panics: panics.len() as u64,
        };
        (metrics, panics)
    }
}

/// A [`Grid`] under the name it had when it alone kept its warp threads
/// parked. Kept for `benchmark/`; ROADMAP item 1 deletes it.
pub type WarmGrid = Grid;

/// What one warp reports back from a launch.
type WarpResult = (WarpMetrics, Option<WarpPanic>);

/// One warp's share of a launch, on the thread that hosts it: registers the
/// warp with the race checker, runs `kernel` under `catch_unwind`, and
/// returns the warp's counters — kept up to the panic if it died — with the
/// panic record, if any.
fn run_warp(id: usize, wpb: usize, kernel: &(dyn Fn(&mut Warp) + Sync)) -> WarpResult {
    simt_check::register_warp(id);
    let mut warp = Warp::new(id, id / wpb, id % wpb);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kernel(&mut warp)));
    // The exit hook runs after catch_unwind, so even a contained (e.g.
    // fault-injected) warp publishes its clock to the join point — dead
    // warps must not look racy to salvage relaunches.
    simt_check::warp_exit();
    let panic = caught.err().map(|payload| WarpPanic {
        warp: id,
        message: describe_panic(payload.as_ref()),
    });
    (warp.into_metrics(), panic)
}

/// Most warp threads kept parked between launches (the rest exit when their
/// launch returns): a parked thread holds its stack, so this bounds what a
/// burst of concurrent launches leaves behind, yet covers the most the
/// workspace runs at once (service workers' and shard drivers' grids).
const MAX_PARKED: usize = 256;

/// The parked warp threads. Its lock is held only to pop or push threads,
/// with nothing else held, so it sits outside the engine's lock hierarchy.
static PARKED: Mutex<Vec<Arc<WarpThread>>> = Mutex::new(Vec::new());

thread_local! {
    /// The launching thread's list of its launch's warp threads, empty
    /// between launches and kept for its capacity. A nested launch runs on
    /// a warp thread, so it uses that thread's own list.
    static LAUNCHING: Cell<Vec<Arc<WarpThread>>> = const { Cell::new(Vec::new()) };
}

/// Moves `n` parked threads into the empty `threads`, spawning the shortfall.
fn checkout(threads: &mut Vec<Arc<WarpThread>>, n: usize) {
    let mut parked = PARKED.lock().unwrap_or_else(PoisonError::into_inner);
    let keep = parked.len().saturating_sub(n);
    threads.extend(parked.drain(keep..));
    drop(parked);
    while threads.len() < n {
        match WarpThread::spawn() {
            Ok(t) => threads.push(t),
            Err(e) => {
                park(threads);
                panic!("failed to spawn a warp thread: {e}");
            }
        }
    }
}

/// Parks the idle `threads` again, up to [`MAX_PARKED`], and tells the rest
/// to exit; leaves `threads` empty.
fn park(threads: &mut Vec<Arc<WarpThread>>) {
    {
        let mut parked = PARKED.lock().unwrap_or_else(PoisonError::into_inner);
        let room = MAX_PARKED.saturating_sub(parked.len()).min(threads.len());
        parked.extend(threads.drain(..room));
    }
    for t in threads.drain(..) {
        t.hand(Slot::Exit);
    }
}

/// A warp thread's hand-off cell, allocated once at spawn: the launcher puts
/// a job in, the thread puts its result back. One condvar serves both ways,
/// as only one side waits at a time; no kernel runs under the lock.
struct WarpThread {
    slot: Mutex<Slot>,
    wake: Condvar,
}

#[allow(clippy::large_enum_variant)] // boxing `Done` would allocate per warp per launch
enum Slot {
    Idle,
    /// Run warp `id` of a grid with `wpb` warps per block. The kernel
    /// reference is lifetime-erased (see [`Grid::launch_contained`]).
    Job {
        id: usize,
        wpb: usize,
        kernel: &'static (dyn Fn(&mut Warp) + Sync),
    },
    Done(WarpResult),
    Exit,
}

impl WarpThread {
    fn spawn() -> std::io::Result<Arc<WarpThread>> {
        let t = Arc::new(WarpThread {
            slot: Mutex::new(Slot::Idle),
            wake: Condvar::new(),
        });
        let me = Arc::clone(&t);
        std::thread::Builder::new()
            .name("gpusim-warp".into())
            .spawn(move || me.serve())?;
        Ok(t)
    }

    /// The thread's loop: runs each job handed to it until told to exit.
    fn serve(&self) {
        let ready = |s: &Slot| matches!(s, Slot::Job { .. } | Slot::Exit);
        while let Slot::Job { id, wpb, kernel } = self.take(ready) {
            self.hand(Slot::Done(run_warp(id, wpb, kernel)));
        }
    }

    /// Yields until the thread has taken the job handed to it.
    fn await_pickup(&self) {
        while matches!(*self.lock(), Slot::Job { .. }) {
            std::thread::yield_now();
        }
    }

    /// Puts `order` in the cell and wakes the other side.
    fn hand(&self, order: Slot) {
        *self.lock() = order;
        self.wake.notify_one();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until the cell holds what `ready` accepts, and takes it out.
    fn take(&self, ready: fn(&Slot) -> bool) -> Slot {
        let wait = self.wake.wait_while(self.lock(), |s| !ready(s));
        let mut slot = wait.unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut *slot, Slot::Idle)
    }
}

/// Record of one warp whose kernel closure panicked during a
/// [`Grid::launch_contained`] run.
#[derive(Clone, Debug)]
pub struct WarpPanic {
    /// Global warp id of the dead warp.
    pub warp: usize,
    /// The panic payload, rendered (`&str` / `String` payloads verbatim;
    /// anything else as an opaque marker).
    pub message: String,
}

/// Renders a caught panic payload for reporting.
pub fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn geometry(num_blocks: usize, warps_per_block: usize) -> GridConfig {
        GridConfig {
            num_blocks,
            warps_per_block,
            shared_mem_per_block: 0,
        }
    }

    #[test]
    fn rejects_empty_geometry() {
        assert!(Grid::new(geometry(0, 4)).is_err());
    }

    #[test]
    fn launch_runs_every_warp_once() {
        let grid = Grid::new(geometry(3, 2)).unwrap();
        let counter = AtomicU64::new(0);
        let metrics = grid.launch(|warp| {
            counter.fetch_add(1, Ordering::Relaxed);
            warp.metrics_mut().matches_found = warp.id() as u64;
        });
        assert_eq!(counter.load(Ordering::Relaxed), 6);
        assert_eq!(metrics.warps.len(), 6);
        assert_eq!(metrics.matches(), (0..6).sum::<usize>() as u64);
        assert_eq!(metrics.kernel_launches, 1);
    }

    #[test]
    fn warp_identities_are_consistent() {
        let grid = Grid::new(geometry(2, 3)).unwrap();
        grid.launch(|warp| {
            assert_eq!(warp.block(), warp.id() / 3);
            assert_eq!(warp.index_in_block(), warp.id() % 3);
        });
    }

    #[test]
    fn contained_launch_survives_warp_panics_and_keeps_metrics() {
        let grid = Grid::new(geometry(2, 2)).unwrap();
        let (metrics, panics) = grid.launch_contained(&|warp| {
            warp.metrics_mut().matches_found = 10 + warp.id() as u64;
            if warp.id() == 2 {
                panic!("injected: warp {} down", warp.id());
            }
        });
        // The dead warp's pre-panic counters survive.
        assert_eq!(metrics.warps.len(), 4);
        assert_eq!(metrics.matches(), 10 + 11 + 12 + 13);
        assert_eq!(metrics.contained_panics, 1);
        assert_eq!(panics.len(), 1);
        assert_eq!(panics[0].warp, 2);
        assert!(panics[0].message.contains("warp 2 down"), "{panics:?}");
    }

    #[test]
    fn plain_launch_propagates_warp_panics() {
        let grid = Grid::new(geometry(1, 2)).unwrap();
        let res = std::panic::catch_unwind(|| {
            grid.launch(|warp| {
                if warp.id() == 1 {
                    panic!("boom");
                }
            })
        });
        assert!(res.is_err(), "launch must re-raise contained panics");
    }

    #[test]
    fn warm_grid_matches_cold_launch_semantics() {
        let grid = Grid::new(geometry(2, 2)).unwrap();
        // Several launches on the parked threads: every warp runs once per
        // launch, metrics arrive in warp-id order, panics are contained.
        for round in 0..3u64 {
            let (metrics, panics) = grid.launch_contained(&|warp| {
                warp.metrics_mut().matches_found = round * 100 + warp.id() as u64;
                if round == 1 && warp.id() == 3 {
                    panic!("injected: parked warp down");
                }
            });
            assert_eq!(metrics.warps.len(), 4);
            for (i, w) in metrics.warps.iter().enumerate() {
                assert_eq!(w.matches_found, round * 100 + i as u64);
            }
            if round == 1 {
                assert_eq!(metrics.contained_panics, 1);
                assert_eq!(panics.len(), 1);
                assert_eq!(panics[0].warp, 3);
            } else {
                assert_eq!(metrics.contained_panics, 0, "pool poisoned by round 1");
                assert!(panics.is_empty());
            }
        }
    }

    #[test]
    fn a_warp_can_launch_a_nested_grid() {
        let grid = Grid::new(geometry(1, 2)).unwrap();
        let outer = Mutex::new(Vec::new());
        let inner = Mutex::new(Vec::new());
        let metrics = grid.launch(|warp| {
            outer.lock().unwrap().push(std::thread::current().id());
            let nested = grid.launch(|w| {
                inner.lock().unwrap().push(std::thread::current().id());
                w.metrics_mut().matches_found = 1;
            });
            warp.metrics_mut().matches_found = nested.matches();
        });
        assert_eq!(metrics.matches(), 4);
        // A checked-out thread is never handed a second job: no inner warp
        // ran on a thread still hosting an outer one.
        let (outer, inner) = (outer.into_inner().unwrap(), inner.into_inner().unwrap());
        assert!(inner.iter().all(|t| !outer.contains(t)));
    }

    #[test]
    fn blocks_hold_at_most_32_warps() {
        assert!(Grid::new(geometry(1, MAX_WARPS_PER_BLOCK)).is_ok());
        for err in [
            Grid::new(geometry(1, 33)).err(),
            WarmGrid::new(geometry(1, 33)).err(),
        ] {
            match err {
                Some(LaunchError::BadGeometry(m)) => assert!(m.contains("limit of 32"), "{m}"),
                other => panic!("expected BadGeometry, got {other:?}"),
            }
        }
    }

    #[test]
    fn warps_run_concurrently() {
        // All warps must be alive at once (spin-wait semantics depend on
        // it): have every warp wait until all warps have arrived.
        let grid = Grid::new(geometry(2, 2)).unwrap();
        let arrived = AtomicU64::new(0);
        grid.launch(|_warp| {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
        });
    }
}
