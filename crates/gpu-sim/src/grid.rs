//! Grid launch: mapping warps onto OS threads.

use crate::memory::SharedOverflow;
use crate::metrics::{GridMetrics, WarpMetrics};
use crate::warp::Warp;
use std::time::Instant;

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
    /// The grid geometry is unusable (zero blocks/warps).
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
/// thread, and aggregates per-warp metrics. The closure receives a mutable
/// [`Warp`] carrying its identity and counters; all cross-warp state (warp
/// stacks, idle bitmaps, global steal slots) lives in the engine and is
/// shared through the closure's environment, mirroring how a CUDA kernel
/// addresses shared and global memory.
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
    /// warp thread has been joined. Fault-tolerant callers should use
    /// [`Grid::launch_contained`] instead.
    pub fn launch<F>(&self, kernel: F) -> GridMetrics
    where
        F: Fn(&mut Warp) + Sync,
    {
        let (metrics, panics) = self.launch_contained(kernel);
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
    /// counts them.
    ///
    /// Containment is a backstop, not a recovery protocol: any cross-warp
    /// state the closure shares (queues, counters, locks) is the caller's
    /// responsibility to repair — see `stmatch-core`'s engine, which
    /// performs its own containment with work requeue *inside* the
    /// closure and uses this layer only against escaped panics.
    pub fn launch_contained<F>(&self, kernel: F) -> (GridMetrics, Vec<WarpPanic>)
    where
        F: Fn(&mut Warp) + Sync,
    {
        let start = Instant::now();
        let total = self.config.total_warps();
        let wpb = self.config.warps_per_block;
        // Launch fork point for the race checker: everything the launching
        // thread did so far happens-before every warp body.
        simt_check::launch_begin();
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..total)
                .map(|id| {
                    let kernel = &kernel;
                    scope.spawn(move || run_warp(id, wpb, kernel))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("warp thread died outside catch_unwind"))
                .collect::<Vec<_>>()
        });
        // Join point: every warp's history happens-before whatever the
        // launching thread does next (leftover preload, metrics, goldens).
        simt_check::launch_end();
        gather(start, results.into_iter())
    }
}

/// What one warp reports back from a launch.
type WarpResult = (WarpMetrics, Option<WarpPanic>);

/// One warp's share of a launch, on whichever thread hosts it: registers
/// the warp with the race checker, runs `kernel` under `catch_unwind`, and
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

/// A launch's result: per-warp results in warp-id order folded into the
/// grid metrics and the panic records.
fn gather(
    start: Instant,
    results: impl ExactSizeIterator<Item = WarpResult>,
) -> (GridMetrics, Vec<WarpPanic>) {
    let mut warps = Vec::with_capacity(results.len());
    let mut panics = Vec::new();
    for (m, p) in results {
        warps.push(m);
        panics.extend(p);
    }
    let metrics = GridMetrics {
        warps,
        elapsed_nanos: start.elapsed().as_nanos() as u64,
        kernel_launches: 1,
        contained_panics: panics.len() as u64,
    };
    (metrics, panics)
}

/// One launch's work order for a warm worker: the kernel to run plus the
/// channel to report completion on. The kernel reference is lifetime-erased
/// (see the safety argument in [`WarmGrid::launch_contained`]).
enum Job {
    Run(
        &'static (dyn Fn(&mut Warp) + Sync),
        std::sync::mpsc::SyncSender<(usize, WarpResult)>,
    ),
    Exit,
}

/// A grid with a persistent thread pool: one OS thread per warp, kept warm
/// across launches.
///
/// [`Grid::launch_contained`] spawns and joins `total_warps` OS threads on
/// every call — fine for a one-shot run, pure overhead for a resident
/// service that launches thousands of kernels against the same geometry.
/// `WarmGrid` pays the spawn cost once; each launch is a message round-trip
/// per warp. The launch contract is identical to
/// [`Grid::launch_contained`]: per-warp panic containment, per-warp metrics
/// in warp-id order, and the same race-checker fork/join events (each
/// worker re-registers its warp identity per launch).
pub struct WarmGrid {
    config: GridConfig,
    senders: Vec<std::sync::mpsc::Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WarmGrid {
    /// Spawns the worker pool for `config` (one thread per warp).
    pub fn new(config: GridConfig) -> Result<WarmGrid, LaunchError> {
        // Same geometry validation as Grid::new.
        let _ = Grid::new(config)?;
        let total = config.total_warps();
        let wpb = config.warps_per_block;
        let mut senders = Vec::with_capacity(total);
        let mut handles = Vec::with_capacity(total);
        for id in 0..total {
            let (tx, rx) = std::sync::mpsc::channel::<Job>();
            let handle = std::thread::Builder::new()
                .name(format!("warm-warp-{id}"))
                .spawn(move || {
                    for job in rx {
                        match job {
                            Job::Run(kernel, done) => {
                                // A dropped receiver means the launcher is
                                // gone (poisoned/unwinding); nothing to do.
                                let _ = done.send((id, run_warp(id, wpb, kernel)));
                            }
                            Job::Exit => break,
                        }
                    }
                })
                .expect("failed to spawn warm warp thread");
            senders.push(tx);
            handles.push(handle);
        }
        Ok(WarmGrid {
            config,
            senders,
            handles,
        })
    }

    /// The grid geometry.
    pub fn config(&self) -> GridConfig {
        self.config
    }

    /// Runs `kernel` once per warp on the warm pool and blocks until every
    /// warp has reported back. Same contract as
    /// [`Grid::launch_contained`].
    pub fn launch_contained(
        &self,
        kernel: &(dyn Fn(&mut Warp) + Sync),
    ) -> (GridMetrics, Vec<WarpPanic>) {
        let start = Instant::now();
        let total = self.config.total_warps();
        // Launch fork point, as in Grid::launch_contained: everything the
        // launching thread did so far happens-before every warp body.
        simt_check::launch_begin();
        // Bounded at one result per warp, so no send ever blocks; the
        // buffer is sized once here, where an unbounded channel allocates a
        // 31-result block (or two, if two first senders race) per launch.
        let (done_tx, done_rx) = std::sync::mpsc::sync_channel(total);
        // SAFETY: the workers only hold this reference while executing the
        // Job we send below, and this function does not return until every
        // worker has sent its completion message for this launch — each
        // worker sends *after* its last use of the reference, and the
        // `recv` loop below blocks on exactly `total` such messages. So the
        // erased reference never outlives the borrow it came from.
        let kernel: &'static (dyn Fn(&mut Warp) + Sync) = unsafe { std::mem::transmute(kernel) };
        for tx in &self.senders {
            tx.send(Job::Run(kernel, done_tx.clone()))
                .expect("warm warp worker exited prematurely");
        }
        drop(done_tx);
        let mut results: Vec<Option<WarpResult>> = (0..total).map(|_| None).collect();
        for _ in 0..total {
            let (id, r) = done_rx
                .recv()
                .expect("warm warp worker died outside catch_unwind");
            results[id] = Some(r);
        }
        // Join point, as in Grid::launch_contained.
        simt_check::launch_end();
        let results = results
            .into_iter()
            .map(|r| r.expect("every warp reports exactly once"));
        gather(start, results)
    }
}

impl Drop for WarmGrid {
    fn drop(&mut self) {
        for tx in &self.senders {
            // A worker that already exited (send fails) needs no Exit.
            let _ = tx.send(Job::Exit);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
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

    #[test]
    fn rejects_empty_geometry() {
        assert!(Grid::new(GridConfig {
            num_blocks: 0,
            warps_per_block: 4,
            shared_mem_per_block: 0,
        })
        .is_err());
    }

    #[test]
    fn launch_runs_every_warp_once() {
        let grid = Grid::new(GridConfig {
            num_blocks: 3,
            warps_per_block: 2,
            shared_mem_per_block: 1024,
        })
        .unwrap();
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
        let grid = Grid::new(GridConfig {
            num_blocks: 2,
            warps_per_block: 3,
            shared_mem_per_block: 1024,
        })
        .unwrap();
        grid.launch(|warp| {
            assert_eq!(warp.block(), warp.id() / 3);
            assert_eq!(warp.index_in_block(), warp.id() % 3);
        });
    }

    #[test]
    fn contained_launch_survives_warp_panics_and_keeps_metrics() {
        let grid = Grid::new(GridConfig {
            num_blocks: 2,
            warps_per_block: 2,
            shared_mem_per_block: 0,
        })
        .unwrap();
        let (metrics, panics) = grid.launch_contained(|warp| {
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
        let grid = Grid::new(GridConfig {
            num_blocks: 1,
            warps_per_block: 2,
            shared_mem_per_block: 0,
        })
        .unwrap();
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
        let cfg = GridConfig {
            num_blocks: 2,
            warps_per_block: 2,
            shared_mem_per_block: 1024,
        };
        let warm = WarmGrid::new(cfg).unwrap();
        // Several launches on the same pool: every warp runs once per
        // launch, metrics arrive in warp-id order, panics are contained.
        for round in 0..3u64 {
            let (metrics, panics) = warm.launch_contained(&|warp: &mut Warp| {
                warp.metrics_mut().matches_found = round * 100 + warp.id() as u64;
                if round == 1 && warp.id() == 3 {
                    panic!("injected: warm warp down");
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
    fn warm_grid_rejects_empty_geometry() {
        assert!(WarmGrid::new(GridConfig {
            num_blocks: 1,
            warps_per_block: 0,
            shared_mem_per_block: 0,
        })
        .is_err());
    }

    #[test]
    fn warps_run_concurrently() {
        // All warps must be alive at once (spin-wait semantics depend on
        // it): have every warp wait until all warps have arrived.
        let grid = Grid::new(GridConfig {
            num_blocks: 2,
            warps_per_block: 2,
            shared_mem_per_block: 0,
        })
        .unwrap();
        let arrived = AtomicU64::new(0);
        grid.launch(|_warp| {
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < 4 {
                std::thread::yield_now();
            }
        });
    }
}
