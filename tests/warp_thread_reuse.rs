//! Warp threads are created once and reused: sequential launches check out
//! the threads the previous one parked. One `#[test]` per file, so no other
//! test checks out (or parks) threads between the launches it counts.

use std::collections::HashSet;
use std::sync::Mutex;
use stmatch_gpusim::{Grid, GridConfig};

#[test]
fn sequential_launches_reuse_the_parked_warp_threads() {
    let grid = Grid::new(GridConfig {
        num_blocks: 1,
        warps_per_block: 2,
        shared_mem_per_block: 0,
    })
    .unwrap();
    let seen = Mutex::new(HashSet::new());
    for _ in 0..20 {
        grid.launch(|_| {
            seen.lock().unwrap().insert(std::thread::current().id());
        });
    }
    let seen = seen.into_inner().unwrap();
    assert!(
        seen.len() <= 2,
        "20 launches of 2 warps ran on {} threads",
        seen.len()
    );
}
