//! Benchmark harness regenerating every table and figure of the paper.
//!
//! The `repro` binary (`cargo run --release -p stmatch-bench --bin repro`)
//! drives the modules here:
//!
//! * [`harness`] — per-cell runners for the four systems with a shared
//!   wall-clock budget, and the cell/table formatting ('−' for timeout,
//!   '×' for device OOM, exactly like the paper's tables).
//! * [`tables`] — Table I (dataset statistics), Table II(a) unlabeled
//!   edge-induced, Table II(b) unlabeled vertex-induced, Table III labeled.
//! * [`figures`] — Fig. 11 (multi-device scaling), Fig. 12 (work-stealing /
//!   unrolling ablation), Fig. 13 (lane utilization vs unroll size), the
//!   §VIII-C code-motion ablation, and a StopLevel/DetectLevel sweep.
//!
//! Because the substrate is a software-simulated GPU on a host CPU,
//! cross-system comparisons use *simulated cycles* (slowest-warp SIMT
//! instructions, plus launch overhead for the level-synchronous baselines)
//! alongside wall time. See DESIGN.md §1 and EXPERIMENTS.md.

pub mod figures;
pub mod harness;
pub mod hotpath;
pub mod tables;
pub mod tick;
