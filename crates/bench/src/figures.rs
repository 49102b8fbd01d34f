//! Regeneration of the paper's figures and ablations.

use crate::harness::{self, print_table, QueryPlans, RunParams};
use crate::tables::{LABEL_SEED, NUM_LABELS};

/// Label count for the ablation figures. Fig. 12's scheduling effects only
/// show when per-query work dwarfs the fixed launch/steal overheads; at
/// stand-in scale the tables' 4-label setting leaves the size-6 queries
/// too light (< 0.1 Mcycles), so the ablations use 2 labels — still
/// labeled matching, with enough surviving candidates per level for the
/// load-balance effects the figure is about.
pub const ABLATION_LABELS: u32 = 2;
use stmatch_core::{Engine, EngineConfig, Launch};
use stmatch_graph::datasets::Dataset;
use stmatch_pattern::catalog;

/// Fig. 11: multi-device scaling. Labeled and unlabeled size-6 queries on
/// the LiveJournal/Orkut/MiCo stand-ins, 1/2/4 devices — one shard grid
/// per device over the static work-aware split of the outermost loop,
/// as in the paper; speedup is the single-device simulated time over the
/// bottleneck device's simulated time.
pub fn fig11(p: &RunParams, queries: &[usize]) {
    for labeled in [false, true] {
        for ds in [Dataset::LiveJournal, Dataset::Orkut, Dataset::MiCo] {
            let g = if labeled {
                ds.load_labeled(NUM_LABELS, LABEL_SEED)
            } else {
                ds.load()
            };
            let mut rows = Vec::new();
            for &qi in queries {
                let mut q = catalog::paper_query(qi);
                if labeled {
                    q = q.with_random_labels(NUM_LABELS, qi as u64);
                }
                let mut cfg = harness::default_stmatch_cfg(false, p);
                let mut cycles = Vec::new();
                let mut counts = Vec::new();
                let mut timed_out = false;
                for devices in [1usize, 2, 4] {
                    cfg.shard.shards = devices;
                    let engine = Engine::new(cfg).with_timeout(p.timeout);
                    match engine.run(&g, &q) {
                        Ok(out) => {
                            timed_out |= out.timed_out;
                            cycles.push(out.simulated_cycles());
                            counts.push(out.count);
                        }
                        Err(_) => {
                            cycles.push(0);
                            counts.push(0);
                        }
                    }
                }
                if timed_out {
                    rows.push(vec![format!("q{qi}"), "-".into(), "-".into(), "-".into()]);
                    continue;
                }
                assert!(
                    counts.windows(2).all(|w| w[0] == w[1]),
                    "device partitioning changed the count for q{qi}"
                );
                let base = cycles[0] as f64;
                rows.push(vec![
                    format!("q{qi}"),
                    "1.00".into(),
                    format!("{:.2}", base / cycles[1] as f64),
                    format!("{:.2}", base / cycles[2] as f64),
                ]);
            }
            print_table(
                &format!(
                    "Fig 11: multi-device speedup (simulated), {} {}",
                    ds.name(),
                    if labeled { "labeled" } else { "unlabeled" }
                ),
                &["query", "1 dev", "2 dev", "4 dev"],
                &rows,
            );
        }
    }
}

/// Fig. 12: the work-stealing / unrolling ablation on labeled size-6
/// queries. Reports simulated time per configuration, speedup over naive,
/// and the busy-fraction (occupancy) annotation the paper profiles.
pub fn fig12(p: &RunParams, queries: &[usize]) {
    let datasets = [
        Dataset::Enron,
        Dataset::Youtube,
        Dataset::MiCo,
        Dataset::LiveJournal,
    ];
    let configs: [(&str, EngineConfig); 4] = [
        ("naive", EngineConfig::naive()),
        ("localsteal", EngineConfig::local_steal_only()),
        ("local+global", EngineConfig::local_global_steal()),
        ("unroll+l+g", EngineConfig::full()),
    ];
    for ds in datasets {
        let g = ds.load_labeled(ABLATION_LABELS, LABEL_SEED);
        let mut rows = Vec::new();
        for &qi in queries {
            let q = catalog::paper_query(qi).with_random_labels(ABLATION_LABELS, qi as u64);
            let plans = QueryPlans::compile(&q, false);
            let mut row = vec![format!("q{qi}")];
            let mut naive_cycles: Option<f64> = None;
            for (name, cfg) in &configs {
                let mut cfg = cfg.with_grid(p.grid);
                cfg.induced = false;
                let cell = harness::run_stmatch_cfg(&g, &plans, cfg, p);
                let _ = name;
                match (cell.status, cell.sim_mcycles) {
                    (crate::harness::CellStatus::Done, Some(mc)) => {
                        if naive_cycles.is_none() {
                            naive_cycles = Some(mc);
                        }
                        let speedup = naive_cycles.unwrap() / mc;
                        row.push(format!("{mc:.2} ({speedup:.2}x)"));
                    }
                    _ => row.push("-".into()),
                }
            }
            rows.push(row);
        }
        print_table(
            &format!(
                "Fig 12: ablation, labeled size-6 queries, {} [Mcyc (speedup)]",
                ds.name()
            ),
            &["query", "naive", "localsteal", "local+global", "unroll+l+g"],
            &rows,
        );
    }
}

/// Fig. 13's sweep: the paper's 1..8 and on to `MAX_UNROLL`, so the knee
/// shows.
const FIG13_UNROLLS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Fig. 13: SIMT lane utilization vs unroll size.
pub fn fig13(p: &RunParams, queries: &[usize]) {
    let ds = Dataset::Enron;
    let g = ds.load_labeled(ABLATION_LABELS, LABEL_SEED);
    let mut header = vec!["query".to_string()];
    header.extend(FIG13_UNROLLS.map(|u| format!("u={u}")));
    let mut rows = Vec::new();
    for &qi in queries {
        let q = catalog::paper_query(qi).with_random_labels(ABLATION_LABELS, qi as u64);
        let plans = QueryPlans::compile(&q, false);
        let mut row = vec![format!("q{qi}")];
        for unroll in FIG13_UNROLLS {
            let cfg = harness::default_stmatch_cfg(false, p).with_unroll(unroll);
            let engine = Engine::new(cfg).with_timeout(p.timeout);
            match engine.launch(&Launch::new(&g, &plans.motion)) {
                Ok(out) => row.push(format!("{:.1}%", out.metrics.lane_utilization() * 100.0)),
                Err(_) => row.push("-".into()),
            }
        }
        rows.push(row);
    }
    print_table(
        &format!(
            "Fig 13: lane utilization vs unroll size, {} labeled",
            ds.name()
        ),
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
        &rows,
    );
}

/// §VIII-C: "If we disable code motion, the naive baseline will be about
/// 3x slower." Total SIMT instructions with and without code motion.
pub fn codemotion(p: &RunParams, queries: &[usize]) {
    let g = Dataset::Enron.load_labeled(ABLATION_LABELS, LABEL_SEED);
    let mut rows = Vec::new();
    for &qi in queries {
        let q = catalog::paper_query(qi).with_random_labels(ABLATION_LABELS, qi as u64);
        let plans = QueryPlans::compile(&q, false);
        let mut with_cfg = EngineConfig::naive().with_grid(p.grid);
        with_cfg.code_motion = true;
        let mut without_cfg = with_cfg;
        without_cfg.code_motion = false;
        let with = harness::run_stmatch_cfg(&g, &plans, with_cfg, p);
        let without = harness::run_stmatch_cfg(&g, &plans, without_cfg, p);
        let ratio = match (
            with.sim_mcycles,
            without.sim_mcycles,
            with.status,
            without.status,
        ) {
            (
                Some(a),
                Some(b),
                crate::harness::CellStatus::Done,
                crate::harness::CellStatus::Done,
            ) => {
                format!("{:.2}x", b / a)
            }
            _ => "-".into(),
        };
        rows.push(vec![
            format!("q{qi}"),
            with.sim_text(),
            without.sim_text(),
            ratio,
        ]);
    }
    print_table(
        "Code-motion ablation (naive engine, Enron-s labeled) [Mcyc]",
        &["query", "with motion", "without", "slowdown w/o"],
        &rows,
    );
}

/// Bonus ablation: sensitivity to StopLevel and DetectLevel.
pub fn sweep(p: &RunParams) {
    let g = Dataset::MiCo.load();
    let q = catalog::paper_query(16);
    let plans = QueryPlans::compile(&q, false);
    let mut rows = Vec::new();
    for stop in [1usize, 2, 3] {
        for detect in [1usize, 2] {
            if detect > stop {
                continue;
            }
            let mut cfg = EngineConfig::full().with_grid(p.grid);
            cfg.stop_level = stop;
            cfg.detect_level = detect;
            let cell = harness::run_stmatch_cfg(&g, &plans, cfg, p);
            rows.push(vec![
                stop.to_string(),
                detect.to_string(),
                cell.sim_text(),
                cell.ms_text(),
            ]);
        }
    }
    print_table(
        "StopLevel/DetectLevel sweep (q16 labeled, MiCo-s)",
        &["StopLevel", "DetectLevel", "Mcyc", "ms"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use stmatch_gpusim::GridConfig;

    fn quick() -> RunParams {
        RunParams {
            timeout: Duration::from_secs(2),
            grid: GridConfig {
                num_blocks: 2,
                warps_per_block: 2,
                shared_mem_per_block: 100 * 1024,
            },
            ..RunParams::default()
        }
    }

    #[test]
    fn fig13_runs_on_one_query() {
        fig13(&quick(), &[16]);
    }

    #[test]
    fn codemotion_runs_on_one_query() {
        codemotion(&quick(), &[16]);
    }
}
