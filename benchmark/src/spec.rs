//! The benchmark's contract as constants: workloads, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repository root is the
//! rendering of these tables, and a unit test keeps the two equal, so a name
//! printed by the runner is a name the driver expects.

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`). ISSUE 13
/// sized the benchmark at 36 s × 3 workloads with this fallback: if a gated
/// time spread exceeds half its bound in the noise report, widen nothing,
/// take `clique_dense` out of `BENCHMARK.json` and measure the other two for
/// 56 s (4 + 22·2 = 48 runs). The first report in NOISE.md is why it was taken.
pub const RUN_SECONDS: u64 = 56;

/// Blocks of consecutive timed ops per run; every timing metric is computed
/// inside each block and reported for the quietest one.
pub const BLOCKS: usize = 20;

/// Cold starts timed after each block.
pub const SETUPS_PER_BLOCK: usize = 2;

/// Seconds past `--seconds` after which the watchdog fails the process.
pub const WATCHDOG_SLACK_S: u64 = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By how much `b` is worse than `a`, as a share of `a` (negative when
    /// `b` is better).
    pub fn worse_by(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// Goes into `BENCHMARK.json`; only the test that renders it reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub why: &'static str,
    /// Timed ops per second of `--seconds`: N = rate × seconds, sized so
    /// that all blocks and their cold starts fit into `--seconds` in an
    /// ordinary hour on the two-core box (≥ 460 ops at 56 s).
    pub rate: f64,
    /// Ops of the counting pass.
    pub counting_ops: usize,
    /// Listed in `BENCHMARK.json`. A workload that is not stays runnable by
    /// name.
    pub listed: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "census_sparse",
        why: "Hub-skewed sparse PA graph, cold runs of path/house/bowtie: claim loop, adaptive set ops, local stealing, arena and cold launches do all the work; service, delta and shard code do none.",
        rate: 9.5,
        counting_ops: 4,
        listed: true,
    },
    Workload {
        name: "clique_dense",
        why: "Dense ER graph, cold 5-clique runs: every level a deep intersection cascade, so set-op algorithm choice dominates and stealing barely matters; shows set-op changes that help sparse and hurt dense.",
        rate: 9.5,
        counting_ops: 6,
        listed: false,
    },
    Workload {
        name: "resident_tick",
        why: "Resident service tick: a 128-edge stationary exchange batch with a triangle watcher, then three cached queries on the new snapshot; carries warm grid, plan cache, overlay, views and anchored launches.",
        rate: 8.4,
        counting_ops: 4,
        listed: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse; also
    /// the limit two sets of runs of one commit must agree within.
    pub bound: f64,
}

// The three time bounds are the contract's maximum on purpose: see README.md,
// "Why host time is bounded at 0.25".
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_instr_per_op",
        unit: "instr",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "sim_lane_util",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "host_allocs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "host_alloc_kib_per_op",
        unit: "KiB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Goes into `BENCHMARK.json`; only the test that renders it reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric of the traced run, grouped by layer (= module of
/// this repository). All of them are printed on every workload; one whose
/// layer the workload's route does not reach reads 0.
pub const PER_LAYER: [PerLayer; 102] = [
    // graph (io, csr, stats, bitmap)
    lo("graph.parse_ms", "ms"),
    lo("graph.order_ms", "ms"),
    lo("graph.weights_ms", "ms"),
    lo("graph.hub_index_ms", "ms"),
    lo("graph.hub_index_bytes", "B"),
    lo("graph.bytes", "B"),
    // graph::delta
    lo("graph.delta_fold_us", "us"),
    lo("graph.delta_snapshot_us", "us"),
    lo("graph.delta_compact_ms", "ms"),
    lo("graph.view_us", "us"),
    lo("graph.view_allocs", "count"),
    // pattern
    lo("pattern.canon_us", "us"),
    lo("pattern.compile_us", "us"),
    lo("pattern.lower_us", "us"),
    lo("pattern.anchored_compile_us", "us"),
    // plan-verify
    lo("verify.plan_us", "us"),
    lo("verify.diagnostics", "count"),
    // gpu-sim
    lo("gpusim.cold_launch_us", "us"),
    lo("gpusim.cold_launch_allocs", "count"),
    lo("gpusim.warm_launch_us", "us"),
    // core::engine
    lo("engine.run_ms_p50", "ms"),
    lo("engine.kernel_ms_p50", "ms"),
    lo("engine.host_overhead_ms_p50", "ms"),
    lo("engine.warm_run_ms_p50", "ms"),
    lo("engine.q1_ms_p50", "ms"),
    lo("engine.q3_ms_p50", "ms"),
    lo("engine.q6_ms_p50", "ms"),
    lo("engine.q8_ms_p50", "ms"),
    lo("engine.q2_ms_p50", "ms"),
    lo("engine.q4_ms_p50", "ms"),
    // core::kernel
    lo("kernel.sim_instr", "instr"),
    hi("kernel.lane_util", "ratio"),
    hi("kernel.matches", "count"),
    lo("kernel.bottleneck_cycles_p50", "instr"),
    lo("kernel.load_imbalance_p50", "ratio"),
    hi("kernel.busy_fraction_p50", "ratio"),
    lo("kernel.host_ns_per_sim_instr", "ns"),
    // core::setops
    lo("setops.merge_run_ms_p50", "ms"),
    lo("setops.bsearch_run_ms_p50", "ms"),
    lo("setops.gallop_run_ms_p50", "ms"),
    lo("setops.bitmap_run_ms_p50", "ms"),
    lo("setops.bitmap_sim_instr", "instr"),
    hi("setops.bitmap_probe_words", "count"),
    hi("setops.bitmap_merge_words", "count"),
    hi("setops.bitmap_merge_waves", "count"),
    // core::compile
    lo("compile.tier0_run_ms_p50", "ms"),
    lo("compile.tier1_run_ms_p50", "ms"),
    hi("compile.served_tier", "tier"),
    // core::steal
    lo("steal.local_attempts", "count"),
    hi("steal.local_steals", "count"),
    hi("steal.success_ratio", "ratio"),
    lo("steal.idle_ms_per_op", "ms"),
    lo("steal.off_run_ms_p50", "ms"),
    hi("steal.global_pushes", "count"),
    hi("steal.global_receives", "count"),
    // core::arena
    lo("arena.spill_events", "count"),
    lo("arena.peak_slab_cells", "count"),
    lo("arena.stack_bytes", "B"),
    // core::shard (probe only, on census_sparse's q3)
    lo("shard.plan_us", "us"),
    lo("shard.load_spread", "ratio"),
    lo("shard.contiguous_run_ms_p50", "ms"),
    lo("shard.work_aware_run_ms_p50", "ms"),
    lo("shard.steal_run_ms_p50", "ms"),
    lo("shard.work_aware_bottleneck_cycles", "instr"),
    lo("shard.steal_bottleneck_cycles_p50_s16", "instr"),
    lo("shard.rail_steals_per_op", "count"),
    lo("shard.degradations", "count"),
    // core::service + pool
    lo("service.start_ms", "ms"),
    lo("service.shutdown_ms", "ms"),
    lo("service.cold_submit_ms_p50", "ms"),
    lo("service.submit_ms_p50", "ms"),
    lo("service.bare_warm_run_ms_p50", "ms"),
    lo("service.overhead_ms_p50", "ms"),
    lo("service.submit_allocs", "count"),
    lo("service.small_submit_ms_p50_w1", "ms"),
    lo("service.small_submit_ms_p50_w4", "ms"),
    hi("service.cache_hits", "count"),
    lo("service.cache_misses", "count"),
    lo("service.cache_entries", "count"),
    // core::delta
    lo("delta.apply_batch_ms_p50", "ms"),
    lo("delta.run_ms_p50", "ms"),
    lo("delta.sim_instr_per_batch", "instr"),
    lo("delta.allocs_per_batch", "count"),
    lo("delta.launches_per_batch", "count"),
    lo("delta.recount_ms_p50", "ms"),
    lo("delta.recount_sim_instr", "instr"),
    lo("delta.wall_vs_recount", "ratio"),
    lo("delta.instr_vs_recount", "ratio"),
    lo("delta.batch16_ms_p50", "ms"),
    lo("delta.batch256_ms_p50", "ms"),
    lo("delta.batch256_allocs", "count"),
    lo("delta.compactions", "count"),
    // core::fault / recover: nothing is injected and the harness never
    // retries, so these must stay 0.
    lo("fault.deaths", "count"),
    lo("recover.downgrades", "count"),
    lo("ops.failed", "count"),
    lo("ops.retried", "count"),
    // tracing
    lo("trace.overhead_pct", "%"),
    lo("trace.op_ms_p50", "ms"),
    lo("trace.op_ms_p90", "ms"),
    lo("trace.layer_calls_ms_p50", "ms"),
    lo("trace.harness_self_us_p50", "us"),
    hi("trace.spans", "count"),
];

/// The command the driver runs; it appends
/// `--workload W --seed S --seconds T --trace 0|1`.
#[cfg(test)]
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The text of `BENCHMARK.json`.
#[cfg(test)]
fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    let cmd: Vec<String> = COMMAND.iter().map(|c| format!("\"{c}\"")).collect();
    s += &format!("  \"command\": [{}],\n", cmd.join(", "));
    s += "  \"paths\": [\"benchmark\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    let rows: Vec<String> = WORKLOADS
        .iter()
        .filter(|w| w.listed)
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        let mut cs = n.chars();
        cs.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.len() <= 64
            && cs.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_equals_the_constants() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "BENCHMARK.json differs from spec.rs; the right-hand side is the text it should have"
        );
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.counting_ops >= 1 && w.rate > 0.0);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        let listed = WORKLOADS.iter().filter(|w| w.listed).count();
        assert!((2..=8).contains(&listed));
        assert!(PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
        // 4 + 22 per workload runs and two builds inside the driver's budget.
        let runs = 4 + 22 * listed as u64;
        assert!(runs * (RUN_SECONDS + 10) + 2 * 60 <= 3420);
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((Better::Lower.worse_by(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worse_by(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(Better::Lower.worse_by(100.0, 90.0) < 0.0);
    }
}
