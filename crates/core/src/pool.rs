//! Warm execution resources for the resident match service: recyclable
//! stack arenas.
//!
//! A cold [`Engine::run`](crate::Engine::run) allocates the fixed
//! `NUM_SETS × UNROLL × MAX_DEGREE` stack slabs per query. A [`WarmSlot`]
//! keeps the arenas a launch's warps ran on for the next launch's warps,
//! which reset them to their own geometry, so one slot serves any grid.
//! Arenas stay with the request; the warp threads are the simulator's
//! (`stmatch_gpusim::Grid`), parked between launches for every caller.
//!
//! ## Concurrency contract
//!
//! The free-list is shared by all warps of a launch, so checkout /
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
use stmatch_gpusim::{Grid, GridConfig, LaunchError};

/// A bounded free-list of recyclable [`StackArena`]s: one per resident
/// service, shared by its workers' queries and its batches' delta launches
/// (and one per engine that runs
/// [`DeltaPlans::count`](crate::DeltaPlans::count) outside a service, kept
/// across its calls). `checkout` hands an arena to a warp (or `None` when
/// the list is dry — the warp then builds a fresh one); `give_back` returns
/// it after the launch. The list is capped at the warp count of the grid
/// the slot was built for; arenas beyond it are dropped.
pub struct WarmSlot {
    /// Distinct lock index for the hierarchy checker, so concurrent
    /// slots never alias in the lock-order graph.
    check_index: usize,
    arenas: Mutex<Vec<StackArena>>,
    cap: usize,
}

impl WarmSlot {
    /// An empty free-list capped at `config`'s warp count; fails on a
    /// geometry no grid can launch.
    pub fn new(config: GridConfig) -> Result<WarmSlot, LaunchError> {
        Grid::new(config)?;
        Ok(WarmSlot {
            check_index: simt_check::next_object_id() as usize,
            arenas: Mutex::new(Vec::new()),
            cap: config.total_warps(),
        })
    }

    #[track_caller]
    fn lock(&self) -> simt_check::Tracked<'_, Vec<StackArena>> {
        simt_check::tracked_lock(
            &self.arenas,
            simt_check::LockClass::ServiceArenaPool,
            self.check_index,
        )
    }

    /// Takes a recycled arena, or `None` when the list is empty.
    pub fn checkout(&self) -> Option<StackArena> {
        self.lock().pop()
    }

    /// Returns an arena for reuse; arenas beyond the cap are dropped.
    pub fn give_back(&self, arena: StackArena) {
        let mut arenas = self.lock();
        if arenas.len() < self.cap {
            arenas.push(arena);
        }
    }

    /// Number of arenas currently parked in the list.
    pub fn parked(&self) -> usize {
        self.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmatch_pattern::SlotTable;

    #[test]
    fn arena_pool_caps_and_recycles() {
        let grid = |warps_per_block| GridConfig {
            num_blocks: 1,
            warps_per_block,
            shared_mem_per_block: 0,
        };
        assert!(
            WarmSlot::new(grid(0)).is_err(),
            "a slot checks its geometry"
        );
        let slot = WarmSlot::new(grid(2)).unwrap();
        assert!(slot.checkout().is_none());
        slot.give_back(StackArena::new(&SlotTable::with_slots(&[2; 2]), 8));
        slot.give_back(StackArena::new(&SlotTable::with_slots(&[2; 2]), 8));
        slot.give_back(StackArena::new(&SlotTable::with_slots(&[2; 2]), 8)); // beyond cap: dropped
        assert_eq!(slot.parked(), 2);
        let a = slot.checkout().unwrap();
        assert_eq!(slot.parked(), 1);
        slot.give_back(a);
        assert_eq!(slot.parked(), 2);
    }
}
