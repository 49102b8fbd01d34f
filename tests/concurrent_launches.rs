//! Launches from several host threads at once share the parked warp threads:
//! each still runs every warp once and reports its metrics in warp-id order.

use stmatch_gpusim::{Grid, GridConfig};

#[test]
fn concurrent_launches_keep_their_metrics_apart() {
    let grid = Grid::new(GridConfig {
        num_blocks: 2,
        warps_per_block: 2,
        shared_mem_per_block: 0,
    })
    .unwrap();
    std::thread::scope(|scope| {
        for launcher in 0..4u64 {
            scope.spawn(move || {
                for round in 0..8u64 {
                    let tag = (launcher * 8 + round) * 100;
                    let metrics = grid.launch(|warp| {
                        warp.metrics_mut().matches_found = tag + warp.id() as u64;
                    });
                    let found: Vec<u64> = metrics.warps.iter().map(|w| w.matches_found).collect();
                    assert_eq!(
                        found,
                        [tag, tag + 1, tag + 2, tag + 3],
                        "launcher {launcher}"
                    );
                }
            });
        }
    });
}
