//! The host-side shortcuts of the kernel — the last-level closed form with
//! its lifted-list cursor, the marker rows and the symmetric probe they
//! feed — are cross-checked element by element only under `debug_assert`.
//! This suite holds their *counts* with hard asserts, so it means the same
//! thing under `cargo test --release` (ci.sh runs it there too): for every
//! paper query, on a hub-skewed and on a uniform fixture, with unrolling off
//! and on, steal-free on two warps and stealing on a 1×4 grid (work items
//! installed mid-list, in whatever order the race hands them out), the count
//! equals the independent oracle's *and* the number of embeddings the
//! `enumerate` route emits — which probes every last-level candidate
//! individually and never takes the closed form.

use stmatch_baselines::reference::{self, RefOptions};
use stmatch_core::{Engine, EngineConfig};
use stmatch_gpusim::GridConfig;
use stmatch_graph::gen;
use stmatch_pattern::catalog;

#[test]
fn every_route_agrees_with_the_oracle_and_with_enumeration() {
    let fixtures = [
        gen::preferential_attachment(36, 3, 3).degree_ordered(),
        gen::erdos_renyi(30, 75, 5).degree_ordered(),
    ];
    for g in &fixtures {
        for q in 1..=24 {
            let pattern = catalog::paper_query(q);
            let want = reference::count(g, &pattern, RefOptions::default());
            for unroll in [1, 8] {
                for stealing in [false, true] {
                    let mut cfg =
                        EngineConfig::default()
                            .with_unroll(unroll)
                            .with_grid(GridConfig {
                                num_blocks: 1,
                                warps_per_block: if stealing { 4 } else { 2 },
                                shared_mem_per_block: 100 * 1024,
                            });
                    cfg.local_steal = stealing;
                    cfg.global_steal = stealing;
                    let engine = Engine::new(cfg);
                    let plan = engine.compile(&pattern);
                    let leg = format!("q{q} on {} unroll {unroll} stealing {stealing}", g.name());
                    let counted = engine.run_plan(g, &plan).expect("count run").count;
                    assert_eq!(counted, want, "{leg}: closed form vs oracle");
                    let listed = engine.enumerate_plan(g, &plan).expect("enumeration");
                    assert_eq!(
                        listed.embeddings.len() as u64,
                        want,
                        "{leg}: per-element route vs oracle"
                    );
                }
            }
        }
    }
}
