//! Recyclable warp arenas: the free-list every [`Engine`](crate::Engine)
//! owns. The paper sizes each warp's `NUM_SETS × UNROLL × MAX_DEGREE`
//! stack once and reuses it (§VIII-A); here warp `i` of every launch checks
//! out the [`WarpArena`] parked under `i` in its engine's [`WarmSlot`], its
//! kernel resizes and borrows it for the run, and the warp parks it under
//! `i` again. So which arena serves which warp never follows the order in
//! which warps finish, and a fresh arena is built only where none is parked:
//! one launch at a time leaves one arena per warp id, launches that overlap
//! (a split run's shards, a service's workers) at most as many as were out
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
//! identity across [`StackArena::reset`](crate::arena::StackArena::reset),
//! so without that edge every recycled write would (correctly!) look like a
//! cross-thread race.

use crate::arena::WarpArena;
use std::sync::Mutex;
use stmatch_gpusim::{Grid, GridConfig, LaunchError};

/// A free-list of recyclable [`WarpArena`]s keyed by warp id, owned by one
/// engine.
pub struct WarmSlot {
    /// Distinct lock index for the hierarchy checker, so concurrent
    /// slots never alias in the lock-order graph.
    check_index: usize,
    /// `arenas[i]`: the arenas parked under warp id `i`.
    arenas: Mutex<Vec<Vec<WarpArena>>>,
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
    fn lock(&self) -> simt_check::Tracked<'_, Vec<Vec<WarpArena>>> {
        simt_check::tracked_lock(
            &self.arenas,
            simt_check::LockClass::ServiceArenaPool,
            self.check_index,
        )
    }

    /// Takes an arena parked under warp `warp`, or a fresh empty one when
    /// none is.
    pub fn checkout(&self, warp: usize) -> WarpArena {
        let parked = self.lock().get_mut(warp).and_then(Vec::pop);
        parked.unwrap_or_default()
    }

    /// Parks `arena` under warp `warp` for the next launch's warp `warp`.
    pub fn give_back(&self, warp: usize, arena: WarpArena) {
        let mut arenas = self.lock();
        if arenas.len() <= warp {
            arenas.resize_with(warp + 1, Vec::new);
        }
        arenas[warp].push(arena);
    }

    /// Number of arenas currently parked in the list.
    pub fn parked(&self) -> usize {
        self.lock().iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::StackArena;
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
        let fresh = slot.checkout(1);
        assert_eq!(slot.parked(), 0, "a dry id builds a fresh arena");
        let arena = |cap| WarpArena {
            stack: StackArena::new(&SlotTable::with_slots(&[2; 2]), cap),
            ..WarpArena::default()
        };
        for (warp, cap) in [(0, 8), (1, 16), (1, 24)] {
            slot.give_back(warp, arena(cap));
        }
        slot.give_back(3, fresh);
        assert_eq!(slot.parked(), 4, "no cap: every arena given back parks");
        // Each warp id gets back what was parked under it.
        assert_eq!(slot.checkout(0).stack.slab_cells(), 4 * 8);
        assert_eq!(slot.checkout(1).stack.slab_cells(), 4 * 24);
        assert_eq!(slot.checkout(0).stack.slab_cells(), 0);
        assert_eq!(slot.parked(), 2);
    }
}
