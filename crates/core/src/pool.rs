//! Recyclable stack arenas: the free-list every [`Engine`](crate::Engine)
//! owns. The paper sizes each warp's `NUM_SETS × UNROLL × MAX_DEGREE`
//! stack once and reuses it (§VIII-A); here every warp of every launch
//! checks its arena out of its engine's [`WarmSlot`], resets it to its own
//! geometry, and gives it back after the run. A fresh arena is built only
//! when the list is dry, so the list never holds more arenas than were out
//! at once.
//!
//! ## Concurrency contract
//!
//! Checkout / give-back go through a
//! [`tracked_lock`](simt_check::tracked_lock) of class `ServiceArenaPool`
//! (rank 6): *below* every engine lock in the declared hierarchy, because a
//! warp returns its arena only after the kernel tail released the board and
//! collector locks, and checks one out before acquiring any. The tracked
//! lock also gives the race checker the happens-before edge between
//! successive owners of a recycled arena — the arena keeps its shadow-cell
//! identity across [`StackArena::reset`], so without that edge every
//! recycled write would (correctly!) look like a cross-thread race.

use crate::arena::StackArena;
use std::sync::Mutex;
use stmatch_gpusim::{Grid, GridConfig, LaunchError};

/// A free-list of recyclable [`StackArena`]s, owned by one engine.
pub struct WarmSlot {
    /// Distinct lock index for the hierarchy checker, so concurrent
    /// slots never alias in the lock-order graph.
    check_index: usize,
    arenas: Mutex<Vec<StackArena>>,
}

impl WarmSlot {
    /// An empty free-list; fails on a geometry no grid can launch. Kept for
    /// `benchmark/`, whose slot [`Engine::run_plan_warm`](crate::Engine::run_plan_warm)
    /// ignores: `config` is only validated.
    pub fn new(config: GridConfig) -> Result<WarmSlot, LaunchError> {
        Grid::new(config)?;
        Ok(WarmSlot::empty())
    }

    /// An empty free-list.
    pub(crate) fn empty() -> WarmSlot {
        WarmSlot {
            check_index: simt_check::next_object_id() as usize,
            arenas: Mutex::new(Vec::new()),
        }
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

    /// Returns an arena for reuse.
    pub fn give_back(&self, arena: StackArena) {
        self.lock().push(arena);
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
    fn arena_pool_recycles() {
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
        for _ in 0..3 {
            slot.give_back(StackArena::new(&SlotTable::with_slots(&[2; 2]), 8));
        }
        assert_eq!(slot.parked(), 3, "no cap: every arena given back parks");
        let a = slot.checkout().unwrap();
        assert_eq!(slot.parked(), 2);
        slot.give_back(a);
        assert_eq!(slot.parked(), 3);
    }
}
