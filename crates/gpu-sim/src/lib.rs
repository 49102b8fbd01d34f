//! A software GPU execution model.
//!
//! This crate is the substrate substitution for the CUDA runtime the paper
//! targets (see DESIGN.md §1): it preserves the *execution model* that
//! STMatch's design decisions are about, without the silicon:
//!
//! * [`Warp`] — the smallest scheduling unit: 32 SIMT lanes executed as
//!   vector waves with per-lane activity accounting.
//! * [`cost`] — the cost table: every simulated instruction is a [`Cost`]
//!   entry charged through [`Warp::charge`] and booked to one [`Site`] —
//!   lane waves, Fig. 8's combined set operation (size scan, waves, the
//!   ballots that close each wave) and fixed transfer bursts.
//! * Threadblocks group warps around a byte-budgeted shared-memory arena
//!   ([`SharedBudget`]); exceeding it fails the launch, exactly like CUDA —
//!   which is what motivates the paper's merged multi-label sets.
//! * [`Grid`] — maps every warp onto its own OS thread, so inter-warp load
//!   imbalance, spin-waiting and work-stealing traffic are *measured*, not
//!   modelled.
//! * [`MemoryBudget`] — global-memory accounting with hard out-of-memory
//!   failures, used to reproduce the subgraph-centric baselines' OOM
//!   behaviour ('×' entries of Table II).
//! * [`WarpMetrics`]/[`GridMetrics`] — instrumentation: lane-slot
//!   utilization (Fig. 13), warp occupancy, steal counters, kernel-launch
//!   counts.

pub mod cost;
pub mod grid;
pub mod memory;
pub mod metrics;
pub mod warp;

pub use cost::{Burst, Close, Cost, Site};
pub use grid::{describe_panic, Grid, GridConfig, LaunchError, WarmGrid, WarpPanic};
pub use memory::{MemoryBudget, OutOfMemory, SharedBudget};
pub use metrics::{GridMetrics, WarpMetrics};
pub use warp::{Warp, WARP_SIZE};
