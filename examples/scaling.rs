//! Scaling study: multi-device partitioning and the work-stealing /
//! unrolling ablation on one workload.
//!
//! ```text
//! cargo run --release --example scaling
//! ```

use stmatch_core::{Engine, EngineConfig};
use stmatch_graph::datasets::Dataset;
use stmatch_pattern::catalog;

fn main() {
    let graph = Dataset::MiCo.load();
    let query = catalog::paper_query(16);
    println!(
        "workload: unlabeled q16 (K6) on `{}` ({} vertices, {} edges)\n",
        graph.name(),
        graph.num_vertices(),
        graph.num_edges()
    );

    // --- Multi-device scaling (Fig. 11) ---
    // One shard grid per device over a static split of the outermost loop,
    // as in the paper.
    let sharded = |devices: usize| {
        let cfg = EngineConfig::default().with_shards(devices);
        Engine::new(cfg).run(&graph, &query).expect("launch")
    };
    let single = sharded(1);
    println!("multi-device scaling (simulated bottleneck time):");
    for devices in [1usize, 2, 4] {
        let out = sharded(devices);
        assert_eq!(
            out.count, single.count,
            "partitioning must not change counts"
        );
        println!(
            "  {devices} device(s): {:>8.2} Mcycles   speedup {:.2}x",
            out.simulated_cycles() as f64 / 1e6,
            single.simulated_cycles() as f64 / out.simulated_cycles() as f64
        );
    }

    // --- Ablation (Fig. 12) ---
    println!("\nwork-stealing / unrolling ablation:");
    let configs: [(&str, EngineConfig); 4] = [
        ("naive", EngineConfig::naive()),
        ("localsteal", EngineConfig::local_steal_only()),
        ("local+globalsteal", EngineConfig::local_global_steal()),
        ("unroll+local+global", EngineConfig::full()),
    ];
    let mut naive_cycles = None;
    for (name, cfg) in configs {
        let out = Engine::new(cfg).run(&graph, &query).expect("launch");
        let mc = out.simulated_cycles() as f64 / 1e6;
        let base = *naive_cycles.get_or_insert(mc);
        println!(
            "  {name:<20} {mc:>8.2} Mcycles   speedup {:.2}x   busy {:>5.1}%   steals L{} G{}",
            base / mc,
            out.metrics.busy_fraction() * 100.0,
            out.metrics.total().local_steals,
            out.metrics.total().global_steal_receives,
        );
        assert_eq!(out.count, single.count, "{name} must not change counts");
    }
}
