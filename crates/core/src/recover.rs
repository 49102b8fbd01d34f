//! Graceful degradation: bounded retry with a downgraded configuration.
//!
//! When launch planning fails — the shared-memory budget overflows or the
//! global stack-slab reservation exceeds the device budget — the engine
//! does not surface the [`LaunchError`] immediately. Instead it walks a
//! **degradation ladder**: each rung trades throughput for footprint while
//! provably preserving counts (unroll size, grid width and slab capacity
//! are all count-invariant; slab shrinkage is backed by the arena's
//! transparent heap spill, the simulator analogue of spilling stacks to
//! global/CPU memory):
//!
//! 1. halve `unroll` (shared `Csize` rows and global slabs shrink with it),
//! 2. shrink `max_degree_slab` (global-memory pressure only — candidate
//!    lists longer than the slab spill to the heap at a spill-event cost),
//! 3. halve `warps_per_block` (fewer mirrors and cursor arrays per block).
//!
//! The walk is bounded by [`RecoveryPolicy::max_downgrades`] with a fixed
//! backoff sleep between attempts; every rung taken is recorded as a
//! [`DowngradeStep`] in the outcome so operators can see what the run paid
//! for surviving.

use crate::config::EngineConfig;
use std::time::Duration;
use stmatch_gpusim::LaunchError;

/// Bounds on the engine's automatic fault recovery. Lives on
/// [`EngineConfig`] (and is `Copy` like it); defaults are permissive
/// enough that fixture-scale runs recover fully, [`RecoveryPolicy::
/// disabled`] restores the fail-fast behavior of earlier revisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Maximum degradation-ladder rungs taken before the launch error is
    /// surfaced to the caller.
    pub max_downgrades: u32,
    /// Sleep between relaunch attempts (a real service would let the
    /// allocator/device settle; here it keeps retry storms bounded).
    pub backoff: Duration,
    /// Maximum salvage relaunches draining work requeued from dead warps
    /// after the main launch returned (naive mode has no idle phase to
    /// absorb a late requeue; an all-warps-dead grid — a whole dead shard
    /// of a sharded run — leaves everything).
    pub salvage_relaunches: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_downgrades: 12,
            backoff: Duration::from_millis(1),
            salvage_relaunches: 2,
        }
    }
}

impl RecoveryPolicy {
    /// No automatic recovery: launch errors surface immediately and
    /// leftover requeued work is abandoned (reported as `unrecovered`) —
    /// on a sharded run, a dead shard's work included.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            max_downgrades: 0,
            backoff: Duration::ZERO,
            salvage_relaunches: 0,
        }
    }
}

/// One rung of the degradation ladder, as recorded in
/// [`MatchOutcome::downgrades`](crate::MatchOutcome::downgrades).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DowngradeStep {
    /// `unroll` was halved.
    Unroll {
        /// Previous unroll size.
        from: usize,
        /// New unroll size.
        to: usize,
    },
    /// `max_degree_slab` was shrunk (lists beyond it spill to the heap).
    MaxDegreeSlab {
        /// Previous slab capacity.
        from: usize,
        /// New slab capacity.
        to: usize,
    },
    /// `warps_per_block` was halved.
    WarpsPerBlock {
        /// Previous warps per block.
        from: usize,
        /// New warps per block.
        to: usize,
    },
}

impl std::fmt::Display for DowngradeStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DowngradeStep::Unroll { from, to } => write!(f, "unroll {from} -> {to}"),
            DowngradeStep::MaxDegreeSlab { from, to } => {
                write!(f, "max_degree_slab {from} -> {to} (heap spill beyond)")
            }
            DowngradeStep::WarpsPerBlock { from, to } => {
                write!(f, "warps_per_block {from} -> {to}")
            }
        }
    }
}

/// Floor below which the slab is not shrunk further (spilling *every*
/// list defeats the arena; past this rung the ladder moves on to the
/// grid dimension).
const SLAB_FLOOR: usize = 64;

/// Picks the next rung down for a config that failed with `err`, or
/// `None` when the ladder is exhausted for that failure mode. Every rung
/// is count-invariant (see module docs).
pub fn degrade(cfg: &EngineConfig, err: &LaunchError) -> Option<(EngineConfig, DowngradeStep)> {
    let mut next = *cfg;
    match err {
        LaunchError::SharedMemory(_) => {
            // Shared budget: Csize rows scale with unroll, everything else
            // with warps_per_block.
            if cfg.unroll > 1 {
                next.unroll = cfg.unroll / 2;
                return Some((
                    next,
                    DowngradeStep::Unroll {
                        from: cfg.unroll,
                        to: next.unroll,
                    },
                ));
            }
            if cfg.grid.warps_per_block > 1 {
                next.grid.warps_per_block = cfg.grid.warps_per_block / 2;
                return Some((
                    next,
                    DowngradeStep::WarpsPerBlock {
                        from: cfg.grid.warps_per_block,
                        to: next.grid.warps_per_block,
                    },
                ));
            }
            None
        }
        LaunchError::GlobalMemory(_) => {
            // Stack slabs: num_sets × unroll × max_degree_slab × warps.
            if cfg.unroll > 1 {
                next.unroll = cfg.unroll / 2;
                return Some((
                    next,
                    DowngradeStep::Unroll {
                        from: cfg.unroll,
                        to: next.unroll,
                    },
                ));
            }
            if cfg.max_degree_slab > SLAB_FLOOR {
                next.max_degree_slab = (cfg.max_degree_slab / 4).max(SLAB_FLOOR);
                return Some((
                    next,
                    DowngradeStep::MaxDegreeSlab {
                        from: cfg.max_degree_slab,
                        to: next.max_degree_slab,
                    },
                ));
            }
            if cfg.grid.warps_per_block > 1 {
                next.grid.warps_per_block = cfg.grid.warps_per_block / 2;
                return Some((
                    next,
                    DowngradeStep::WarpsPerBlock {
                        from: cfg.grid.warps_per_block,
                        to: next.grid.warps_per_block,
                    },
                ));
            }
            None
        }
        // Bad geometry is a caller error; no rung fixes it.
        LaunchError::BadGeometry(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmatch_gpusim::memory::{OutOfMemory, SharedOverflow};

    fn shared_err() -> LaunchError {
        LaunchError::SharedMemory(SharedOverflow {
            what: "test".into(),
            requested: 1,
            used: 1,
            capacity: 1,
        })
    }

    fn global_err() -> LaunchError {
        LaunchError::GlobalMemory(OutOfMemory {
            requested: 1,
            in_use: 1,
            limit: 1,
        })
    }

    #[test]
    fn shared_ladder_unroll_then_warps_then_exhausts() {
        let mut cfg = EngineConfig::default();
        cfg.grid.warps_per_block = 4;
        let mut steps = Vec::new();
        while let Some((next, step)) = degrade(&cfg, &shared_err()) {
            steps.push(step);
            cfg = next;
        }
        assert_eq!(cfg.unroll, 1);
        assert_eq!(cfg.grid.warps_per_block, 1);
        // unroll 8->4->2->1, then wpb 4->2->1.
        assert_eq!(steps.len(), 5);
        assert!(matches!(steps[0], DowngradeStep::Unroll { from: 8, to: 4 }));
        assert!(matches!(
            steps[4],
            DowngradeStep::WarpsPerBlock { from: 2, to: 1 }
        ));
    }

    #[test]
    fn global_ladder_includes_slab_spill_with_floor() {
        let mut cfg = EngineConfig {
            unroll: 1,
            ..EngineConfig::default()
        };
        cfg.grid.warps_per_block = 1;
        let (next, step) = degrade(&cfg, &global_err()).unwrap();
        assert_eq!(next.max_degree_slab, 1024);
        assert!(matches!(
            step,
            DowngradeStep::MaxDegreeSlab {
                from: 4096,
                to: 1024
            }
        ));
        let mut cfg = next;
        while let Some((next, _)) = degrade(&cfg, &global_err()) {
            cfg = next;
        }
        assert_eq!(cfg.max_degree_slab, SLAB_FLOOR);
    }

    #[test]
    fn bad_geometry_has_no_rung() {
        let cfg = EngineConfig::default();
        assert!(degrade(&cfg, &LaunchError::BadGeometry("x".into())).is_none());
    }

    #[test]
    fn every_rung_yields_a_valid_config() {
        let mut cfg = EngineConfig::default();
        for err in [shared_err(), global_err()] {
            while let Some((next, _)) = degrade(&cfg, &err) {
                next.validate();
                cfg = next;
            }
        }
    }
}
