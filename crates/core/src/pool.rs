//! Warm execution resources for the resident match service: a persistent
//! warp-thread pool plus recyclable stack arenas.
//!
//! A cold [`Engine::run`](crate::Engine::run) pays two fixed costs per
//! query: spawning one OS thread per warp (the sim's warp model) and
//! allocating the fixed `NUM_SETS × UNROLL × MAX_DEGREE` stack slabs. A
//! [`WarmSlot`] amortizes both across queries — the [`WarmGrid`] keeps its
//! warp threads parked between launches, and the [`ArenaPool`] recycles
//! each warp's [`StackArena`] (reset, not reallocated) for the next query
//! whose geometry matches.
//!
//! ## Concurrency contract
//!
//! The arena pool is shared by all warps of one slot's grid, so checkout /
//! give-back go through a [`tracked_lock`](simt_check::tracked_lock) of
//! class `ServiceArenaPool` (rank 6): *below* every engine lock in the
//! declared hierarchy, because a warp returns its arena only after the
//! kernel tail released the board and collector locks, and checks one out
//! before acquiring any. The tracked lock also gives the race checker the
//! happens-before edge between successive owners of a recycled arena —
//! the arena keeps its shadow-cell identity across [`StackArena::reset`],
//! so without that edge every recycled write would (correctly!) look like
//! a cross-thread race.

use crate::arena::StackArena;
use std::sync::Mutex;
use stmatch_gpusim::{GridConfig, LaunchError, WarmGrid};

/// A bounded free-list of recyclable [`StackArena`]s.
///
/// `checkout` hands an arena to a warp (or `None` when the list is dry —
/// the warp then builds a fresh one); `give_back` returns it after the
/// launch. The pool is capped at the grid's warp count: arenas beyond the
/// cap (possible after a downgrade shrank the grid) are simply dropped.
pub struct ArenaPool {
    /// Distinct lock index for the hierarchy checker, so concurrent
    /// services' pools never alias in the lock-order graph.
    check_index: usize,
    pool: Mutex<Vec<StackArena>>,
    cap: usize,
}

impl ArenaPool {
    /// Creates an empty pool holding at most `cap` arenas.
    pub fn new(cap: usize) -> ArenaPool {
        ArenaPool {
            check_index: simt_check::next_object_id() as usize,
            pool: Mutex::new(Vec::new()),
            cap,
        }
    }

    /// Takes a recycled arena, or `None` when the pool is empty.
    pub fn checkout(&self) -> Option<StackArena> {
        simt_check::tracked_lock(
            &self.pool,
            simt_check::LockClass::ServiceArenaPool,
            self.check_index,
        )
        .pop()
    }

    /// Returns an arena for reuse; arenas beyond the cap are dropped.
    pub fn give_back(&self, arena: StackArena) {
        let mut pool = simt_check::tracked_lock(
            &self.pool,
            simt_check::LockClass::ServiceArenaPool,
            self.check_index,
        );
        if pool.len() < self.cap {
            pool.push(arena);
        }
    }

    /// Number of arenas currently parked in the pool.
    pub fn parked(&self) -> usize {
        simt_check::tracked_lock(
            &self.pool,
            simt_check::LockClass::ServiceArenaPool,
            self.check_index,
        )
        .len()
    }
}

/// One warm execution slot: a parked warp-thread pool plus its arena
/// free-list. A service worker owns one slot and serves its batch of
/// queries on it back-to-back.
pub struct WarmSlot {
    grid: WarmGrid,
    arenas: ArenaPool,
}

impl WarmSlot {
    /// Spawns the warp threads for `config` and an empty arena pool
    /// capped at the grid's warp count.
    pub fn new(config: GridConfig) -> Result<WarmSlot, LaunchError> {
        let grid = WarmGrid::new(config)?;
        let arenas = ArenaPool::new(config.total_warps());
        Ok(WarmSlot { grid, arenas })
    }

    /// The geometry this slot's threads were spawned for. The engine only
    /// routes a launch here when its (possibly downgraded) config matches
    /// exactly; otherwise it falls back to a cold grid.
    pub fn grid_config(&self) -> GridConfig {
        self.grid.config()
    }

    /// The parked warp-thread pool.
    pub fn grid(&self) -> &WarmGrid {
        &self.grid
    }

    /// The recyclable arena free-list.
    pub fn arenas(&self) -> &ArenaPool {
        &self.arenas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmatch_gpusim::SharedBudget;
    use stmatch_pattern::SlotTable;

    #[test]
    fn arena_pool_caps_and_recycles() {
        let pool = ArenaPool::new(2);
        assert!(pool.checkout().is_none());
        pool.give_back(StackArena::new(&SlotTable::with_slots(&[2; 2]), 8));
        pool.give_back(StackArena::new(&SlotTable::with_slots(&[2; 2]), 8));
        pool.give_back(StackArena::new(&SlotTable::with_slots(&[2; 2]), 8)); // beyond cap: dropped
        assert_eq!(pool.parked(), 2);
        let a = pool.checkout().unwrap();
        assert_eq!(pool.parked(), 1);
        pool.give_back(a);
        assert_eq!(pool.parked(), 2);
    }

    #[test]
    fn warm_slot_reports_config() {
        let cfg = GridConfig {
            num_blocks: 1,
            warps_per_block: 2,
            shared_mem_per_block: SharedBudget::RTX3090_BYTES,
        };
        let slot = WarmSlot::new(cfg).unwrap();
        assert_eq!(slot.grid_config(), cfg);
        assert_eq!(slot.arenas().parked(), 0);
    }
}
