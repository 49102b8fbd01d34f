//! Per-cell system runners and table formatting.

use std::time::Duration;
use stmatch_baselines::{cuts, dryadic, gsi};
use stmatch_core::{Engine, EngineConfig, Launch};
use stmatch_gpusim::GridConfig;
use stmatch_graph::Graph;
use stmatch_pattern::{MatchPlan, Pattern, PlanOptions};

/// Warp-issue rate of the paper's RTX 3090 in GHz. Converts simulated
/// cycles (slowest-warp SIMT instructions) into the estimated milliseconds
/// a real GPU would spend issuing that warp's instruction stream.
pub const GPU_GHZ: f64 = 1.4;

/// Core count of the paper's CPU platform (dual Xeon Gold 6226R). Scales
/// the CPU baseline's measured wall time to an estimated all-cores time
/// assuming perfect scaling — generous to the baseline.
pub const PAPER_CPU_CORES: f64 = 32.0;

/// How a cell finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// Completed within budget.
    Done,
    /// Hit the wall-clock budget (paper's '−').
    TimedOut,
    /// Exhausted device memory (paper's '×').
    Oom,
}

/// One table cell: a (system, graph, query) measurement.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Wall-clock milliseconds spent (up to the budget).
    pub ms: f64,
    /// Simulated mega-cycles (slowest warp; `None` for CPU systems).
    pub sim_mcycles: Option<f64>,
    /// Matches found (partial when not `Done`).
    pub count: u64,
    pub status: CellStatus,
    /// Estimated milliseconds at paper-scale hardware: simulated cycles at
    /// [`GPU_GHZ`] for the simulated-GPU systems, measured wall time scaled
    /// to [`PAPER_CPU_CORES`] for the CPU baseline. See EXPERIMENTS.md for
    /// the normalization rationale.
    pub est_ms: Option<f64>,
}

impl Cell {
    /// Paper-style cell text: milliseconds, '−' on timeout, '×' on OOM.
    pub fn ms_text(&self) -> String {
        match self.status {
            CellStatus::Done => format!("{:.1}", self.ms),
            CellStatus::TimedOut => "-".to_string(),
            CellStatus::Oom => "x".to_string(),
        }
    }

    /// Simulated-cycle cell text (Mcycles).
    pub fn sim_text(&self) -> String {
        match (self.status, self.sim_mcycles) {
            (CellStatus::Oom, _) => "x".to_string(),
            (CellStatus::TimedOut, _) => "-".to_string(),
            (_, Some(mc)) => format!("{mc:.2}"),
            (_, None) => "n/a".to_string(),
        }
    }

    /// Ratio of this cell's simulated cycles over another's (speedup of
    /// `other` over `self` in simulated time). `None` unless both are done.
    pub fn sim_speedup_over(&self, other: &Cell) -> Option<f64> {
        if self.status != CellStatus::Done || other.status != CellStatus::Done {
            return None;
        }
        Some(self.sim_mcycles? / other.sim_mcycles?)
    }

    /// Estimated-time cell text.
    pub fn est_text(&self) -> String {
        match (self.status, self.est_ms) {
            (CellStatus::Oom, _) => "x".to_string(),
            (CellStatus::TimedOut, _) => "-".to_string(),
            (_, Some(ms)) => format!("{ms:.2}"),
            (_, None) => "n/a".to_string(),
        }
    }

    /// Speedup of `other` over `self` in estimated paper-scale time.
    pub fn est_speedup_over(&self, other: &Cell) -> Option<f64> {
        if self.status != CellStatus::Done || other.status != CellStatus::Done {
            return None;
        }
        let (a, b) = (self.est_ms?, other.est_ms?);
        if b <= 0.0 {
            return None;
        }
        Some(a / b)
    }
}

/// Shared run parameters for one experiment invocation.
#[derive(Clone, Copy, Debug)]
pub struct RunParams {
    /// Per-cell wall-clock budget.
    pub timeout: Duration,
    /// Grid geometry for the simulated-GPU systems.
    pub grid: GridConfig,
    /// Device-memory budget for the subgraph-centric baselines.
    pub baseline_memory: usize,
    /// Threads for the CPU baseline.
    pub cpu_threads: usize,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            timeout: Duration::from_secs(2),
            grid: GridConfig {
                num_blocks: 4,
                warps_per_block: 4,
                shared_mem_per_block: 100 * 1024,
            },
            baseline_memory: 64 << 20,
            cpu_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Compiles the plan variants one query needs (shared across systems, as
/// the paper uses the same matching order for all systems).
pub struct QueryPlans {
    /// Code-motion plan for STMatch and Dryadic.
    pub motion: MatchPlan,
    /// Code-motion-free plan for the subgraph-centric baselines.
    pub naive: MatchPlan,
}

impl QueryPlans {
    pub fn compile(pattern: &Pattern, induced: bool) -> QueryPlans {
        QueryPlans {
            motion: MatchPlan::compile(
                pattern,
                PlanOptions {
                    induced,
                    code_motion: true,
                    symmetry_breaking: true,
                },
            ),
            naive: MatchPlan::compile(
                pattern,
                PlanOptions {
                    induced,
                    code_motion: false,
                    symmetry_breaking: true,
                },
            ),
        }
    }
}

/// Runs STMatch (full configuration) on one cell.
pub fn run_stmatch(g: &Graph, plans: &QueryPlans, induced: bool, p: &RunParams) -> Cell {
    run_stmatch_cfg(g, plans, default_stmatch_cfg(induced, p), p)
}

/// The full-system STMatch configuration used by the tables.
pub fn default_stmatch_cfg(induced: bool, p: &RunParams) -> EngineConfig {
    let mut cfg = EngineConfig::full().with_grid(p.grid);
    cfg.induced = induced;
    cfg
}

/// Runs STMatch with an explicit configuration (used by the ablations).
pub fn run_stmatch_cfg(g: &Graph, plans: &QueryPlans, cfg: EngineConfig, p: &RunParams) -> Cell {
    let engine = Engine::new(cfg).with_timeout(p.timeout);
    let plan = if cfg.code_motion {
        &plans.motion
    } else {
        &plans.naive
    };
    match engine.launch(&Launch::new(g, plan)) {
        Ok(out) => {
            let mc = out.simulated_cycles() as f64 / 1e6;
            Cell {
                ms: out.elapsed_ms(),
                sim_mcycles: Some(mc),
                count: out.count,
                status: if out.timed_out {
                    CellStatus::TimedOut
                } else {
                    CellStatus::Done
                },
                est_ms: Some(mc / GPU_GHZ),
            }
        }
        Err(_) => Cell {
            ms: 0.0,
            sim_mcycles: None,
            count: 0,
            status: CellStatus::Oom,
            est_ms: None,
        },
    }
}

/// Runs the cuTS-like baseline on one cell.
pub fn run_cuts(g: &Graph, plans: &QueryPlans, induced: bool, p: &RunParams) -> Cell {
    let cfg = cuts::CutsConfig {
        grid: p.grid,
        memory_limit: p.baseline_memory,
        induced,
        symmetry_breaking: true,
        batch_roots: 4096,
        timeout: Some(p.timeout),
    };
    match cuts::run_plan(g, &plans.naive, cfg) {
        Ok(out) => {
            let mc = out.simulated_cycles as f64 / 1e6;
            Cell {
                ms: out.elapsed_ms(),
                sim_mcycles: Some(mc),
                count: out.count,
                status: if out.timed_out {
                    CellStatus::TimedOut
                } else {
                    CellStatus::Done
                },
                est_ms: Some(mc / GPU_GHZ),
            }
        }
        Err(_) => Cell {
            ms: 0.0,
            sim_mcycles: None,
            count: 0,
            status: CellStatus::Oom,
            est_ms: None,
        },
    }
}

/// Runs the GSI-like baseline on one cell.
pub fn run_gsi(g: &Graph, plans: &QueryPlans, induced: bool, p: &RunParams) -> Cell {
    let cfg = gsi::GsiConfig {
        grid: p.grid,
        memory_limit: p.baseline_memory,
        induced,
        symmetry_breaking: true,
        timeout: Some(p.timeout),
    };
    match gsi::run_plan(g, &plans.naive, cfg) {
        Ok(out) => {
            let mc = out.simulated_cycles as f64 / 1e6;
            Cell {
                ms: out.elapsed_ms(),
                sim_mcycles: Some(mc),
                count: out.count,
                status: if out.timed_out {
                    CellStatus::TimedOut
                } else {
                    CellStatus::Done
                },
                est_ms: Some(mc / GPU_GHZ),
            }
        }
        Err(_) => Cell {
            ms: 0.0,
            sim_mcycles: None,
            count: 0,
            status: CellStatus::Oom,
            est_ms: None,
        },
    }
}

/// Runs the Dryadic-like CPU baseline on one cell.
pub fn run_dryadic(g: &Graph, plans: &QueryPlans, induced: bool, p: &RunParams) -> Cell {
    let cfg = dryadic::DryadicConfig {
        threads: p.cpu_threads,
        induced,
        code_motion: true,
        symmetry_breaking: true,
        chunk_size: 16,
        timeout: Some(p.timeout),
    };
    let out = dryadic::run_plan(g, &plans.motion, cfg);
    Cell {
        ms: out.elapsed_ms(),
        sim_mcycles: None,
        count: out.count,
        status: if out.timed_out {
            CellStatus::TimedOut
        } else {
            CellStatus::Done
        },
        est_ms: Some(out.elapsed_ms() * p.cpu_threads as f64 / PAPER_CPU_CORES),
    }
}

/// Prints an aligned text table: a header and rows of equal arity.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: Vec<&str>| {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>w$}"));
        }
        line
    };
    println!("{}", fmt_row(header.to_vec()));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row.iter().map(|s| s.as_str()).collect()));
    }
}

/// Geometric mean of an iterator of ratios, ignoring `None`s. `None` when
/// nothing survives.
pub fn geomean(ratios: impl Iterator<Item = Option<f64>>) -> Option<f64> {
    let vals: Vec<f64> = ratios.flatten().filter(|r| *r > 0.0).collect();
    if vals.is_empty() {
        None
    } else {
        Some((vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmatch_graph::gen;
    use stmatch_pattern::catalog;

    fn params() -> RunParams {
        RunParams {
            timeout: Duration::from_secs(5),
            grid: GridConfig {
                num_blocks: 2,
                warps_per_block: 2,
                shared_mem_per_block: 100 * 1024,
            },
            ..RunParams::default()
        }
    }

    #[test]
    fn all_systems_agree_on_one_cell() {
        let g = gen::erdos_renyi(40, 150, 4);
        let q = catalog::paper_query(6);
        let plans = QueryPlans::compile(&q, false);
        let p = params();
        let st = run_stmatch(&g, &plans, false, &p);
        let cu = run_cuts(&g, &plans, false, &p);
        let gs = run_gsi(&g, &plans, false, &p);
        let dr = run_dryadic(&g, &plans, false, &p);
        assert_eq!(st.status, CellStatus::Done);
        assert_eq!(st.count, cu.count);
        assert_eq!(st.count, gs.count);
        assert_eq!(st.count, dr.count);
    }

    #[test]
    fn timeout_cells_render_dash() {
        let c = Cell {
            ms: 1.0,
            sim_mcycles: Some(1.0),
            count: 5,
            status: CellStatus::TimedOut,
            est_ms: Some(1.0),
        };
        assert_eq!(c.ms_text(), "-");
        assert_eq!(c.sim_text(), "-");
        let o = Cell {
            ms: 0.0,
            sim_mcycles: None,
            count: 0,
            status: CellStatus::Oom,
            est_ms: None,
        };
        assert_eq!(o.ms_text(), "x");
    }

    #[test]
    fn speedup_requires_both_done() {
        let done = Cell {
            ms: 1.0,
            sim_mcycles: Some(8.0),
            count: 1,
            status: CellStatus::Done,
            est_ms: Some(8.0),
        };
        let fast = Cell {
            ms: 1.0,
            sim_mcycles: Some(2.0),
            count: 1,
            status: CellStatus::Done,
            est_ms: Some(2.0),
        };
        assert_eq!(done.sim_speedup_over(&fast), Some(4.0));
        let timeout = Cell {
            status: CellStatus::TimedOut,
            ..fast.clone()
        };
        assert_eq!(done.sim_speedup_over(&timeout), None);
    }

    #[test]
    fn geomean_basics() {
        assert!(geomean(std::iter::empty()).is_none());
        let g = geomean([Some(2.0), Some(8.0), None].into_iter()).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }
}
