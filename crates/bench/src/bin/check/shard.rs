//! `check shard` (`ci.sh` phase `smoke:shard`), the gate for sharded
//! multi-grid execution.
//!
//! Default mode runs three legs over the pinned q1/q6 goldens on the
//! 48-vertex hub-skewed fixture:
//!
//! * **single** — a plain `Engine::run` (nobody asked for shards) lands the
//!   goldens across repeated runs with no requeue claims and no fault
//!   bookkeeping;
//! * **on** — a clean `Engine::run` on a 4-shard configuration must land
//!   the same goldens over four grids with no fault bookkeeping;
//! * **kill** — seeded whole-shard deaths (1-of-4 and 3-of-4) must keep
//!   counts exact, fully recover the dead shards' work (each dead shard
//!   finishes its own slice in a salvage pass, printed as `salvage=N`),
//!   and print the deterministic `FAULT_SEED=0x…` reproduce line.
//!
//! `--scaling` additionally runs the 1/2/4/8/16-shard sweep on a larger
//! skewed preferential-attachment fixture and prints the bottleneck-cycle
//! curve of both static splits, failing if counts drift across shard
//! counts or the work-aware split (the shipping one) loses to the
//! contiguous baseline on bottleneck time at 16 shards.
//!
//! Reproduce a kill-leg failure locally with the printed `FAULT_SEED=0x…`
//! line: the seed fully determines which shards die and when.

use crate::{fixture, GOLDEN};
use std::process::ExitCode;
use stmatch_core::{Engine, EngineConfig, FaultPlan};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, Graph};
use stmatch_pattern::catalog;

/// Default kill seed, pinned by CI because its victims reliably die on
/// this fixture (the gate then proves real recovery — a dead shard's
/// salvage pass observed, count still exact). With an overridden
/// `FAULT_SEED` the victims may race to no work, so the death expectation
/// only applies to the default seed.
const DEFAULT_SEED: u64 = 0x8a1d;

fn grid() -> GridConfig {
    crate::grid(2, 2)
}

pub fn run(args: &[String]) -> ExitCode {
    let scaling = match crate::flag("shard", args, &["--scaling"]) {
        Ok(f) => f.is_some(),
        Err(code) => return code,
    };
    let (seed, default_seed) = match crate::fault_seed("shard", DEFAULT_SEED) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut ok = run_gate(seed, default_seed);
    if scaling {
        ok &= run_scaling();
    }
    crate::exit_code(ok)
}

/// The single / on / kill legs over the pinned goldens.
fn run_gate(seed: u64, default_seed: bool) -> bool {
    let g = fixture();
    let mut ok = true;

    // --- Single leg: a run nobody sharded requeues nothing. ---
    let off_cfg = EngineConfig::default().with_grid(grid());
    for (qi, golden) in GOLDEN {
        let q = catalog::paper_query(qi);
        let mut errs = Vec::new();
        let mut counts = Vec::new();
        for _ in 0..2 {
            let out = Engine::new(off_cfg)
                .run(&g, &q)
                .expect("single-grid launch");
            if out.metrics.total().requeue_claims != 0 {
                errs.push("requeue claims on a clean single-grid run".to_string());
            }
            if out.fault.is_some() {
                errs.push("fault bookkeeping attached to a clean run".to_string());
            }
            counts.push(out.count);
        }
        if counts.iter().any(|&c| c != golden) {
            errs.push(format!("counts {counts:?} != golden {golden}"));
        }
        if counts[0] != counts[1] {
            errs.push(format!("repeat runs disagree: {counts:?}"));
        }
        ok &= report(qi, "single", &errs, || format!("count {}", counts[0]));
    }

    // --- On leg: clean 4-shard run, same goldens, nothing to recover. ---
    let on_cfg = EngineConfig::default().with_grid(grid()).with_shards(4);
    for (qi, golden) in GOLDEN {
        let q = catalog::paper_query(qi);
        let out = Engine::new(on_cfg).run(&g, &q).expect("on-leg launch");
        let mut errs = Vec::new();
        if out.count != golden {
            errs.push(format!("sharded count {} != golden {golden}", out.count));
        }
        if out.shards.len() != 4 {
            errs.push(format!("{} shard outcomes, not 4", out.shards.len()));
        }
        if out.fault.is_some() {
            errs.push("fault bookkeeping attached to a clean sharded run".to_string());
        }
        ok &= report(qi, "on", &errs, || format!("count {}", out.count));
    }

    // --- Kill legs: seeded shard deaths must recover exactly. ---
    let mut deaths_total = 0usize;
    let mut salvage_total = 0u32;
    for kills in [1usize, 3] {
        let plan = FaultPlan::seeded_shard_kill(seed, 4, kills);
        let reproduce = plan
            .shard_reproduce_line()
            .expect("seeded kill plans carry a reproduce line");
        for (qi, golden) in GOLDEN {
            let q = catalog::paper_query(qi);
            let out = Engine::new(on_cfg)
                .with_fault_plan(plan.clone())
                .run(&g, &q)
                .expect("kill-leg launch");
            let mut errs = Vec::new();
            if out.count != golden {
                errs.push(format!("count {} != golden {golden}", out.count));
            }
            if out.timed_out {
                errs.push("kill-leg run marked timed_out".to_string());
            }
            let (deaths, salvage) = match &out.fault {
                Some(r) => {
                    if !r.fully_recovered() {
                        errs.push(format!(
                            "not fully recovered: {} unrecovered, {} escaped",
                            r.unrecovered, r.escaped_panics
                        ));
                    }
                    if !r.deaths.is_empty() && r.reproduce.is_none() {
                        errs.push("shard-death report lacks a reproduce line".to_string());
                    }
                    (r.deaths.len(), r.salvage_launches)
                }
                None => (0, 0),
            };
            // A shard is dead when every warp of its grid died.
            let shard_deaths = out
                .shards
                .iter()
                .filter(|s| {
                    s.fault
                        .as_ref()
                        .is_some_and(|f| f.deaths.len() >= grid().total_warps())
                })
                .count();
            deaths_total += deaths;
            salvage_total += salvage;
            ok &= report(qi, &format!("kill{kills}"), &errs, || {
                format!(
                    "count {}, {deaths} deaths, {shard_deaths} shard-deaths, salvage={salvage}, \
                     {reproduce}",
                    out.count
                )
            });
        }
    }
    if default_seed && deaths_total == 0 {
        eprintln!("shard kill DRIFT: default-seed kills never fired: the gate exercised nothing");
        ok = false;
    }
    if default_seed && salvage_total == 0 {
        eprintln!("shard kill DRIFT: no kill-leg run salvaged under the default seed");
        ok = false;
    }
    ok
}

fn report(qi: usize, leg: &str, errs: &[String], detail: impl Fn() -> String) -> bool {
    crate::report(&format!("shard q{qi} {leg}"), errs, detail)
}

/// One scaling measurement: `(count, bottleneck cycles)` of a sharded
/// triangle count on one-block, two-warp shard grids.
fn measure(g: &Graph, shards: usize, work_aware: bool) -> (u64, u64) {
    let mut cfg = EngineConfig::default()
        .with_grid(crate::grid(1, 2))
        .with_shards(shards);
    cfg.shard.work_aware = work_aware;
    let out = Engine::new(cfg)
        .run(g, &catalog::triangle())
        .expect("scaling launch");
    (out.count, out.simulated_cycles())
}

/// 1/2/4/8/16-shard efficiency sweep on a 256-vertex skewed fixture.
/// Bottleneck time is `simulated_cycles()` — the slowest warp of any shard
/// — so the curve measures load balance, not host scheduling noise.
fn run_scaling() -> bool {
    let g = gen::preferential_attachment(256, 4, 9).degree_ordered();
    let (base_count, base_cycles) = measure(&g, 1, false);
    let mut ok = base_count > 0;
    let mut aware_16 = 0u64;
    let mut contig_16 = 0u64;
    for shards in [1usize, 2, 4, 8, 16] {
        // Both splits are static, so each bottleneck is exactly the
        // heaviest shard's work.
        let (c_contig, cyc_contig) = measure(&g, shards, false);
        let (c_aware, cyc_aware) = measure(&g, shards, true);
        for (label, c) in [("contiguous", c_contig), ("aware", c_aware)] {
            if c != base_count {
                eprintln!("scaling x{shards} {label}: count {c} != baseline {base_count}");
                ok = false;
            }
        }
        if shards == 16 {
            aware_16 = cyc_aware;
            contig_16 = cyc_contig;
        }
        let efficiency = base_cycles as f64 / (shards as f64 * cyc_aware as f64);
        println!(
            "scaling x{shards}: contiguous {cyc_contig} cyc, work-aware {cyc_aware} cyc, \
             efficiency {efficiency:.3}"
        );
    }
    if aware_16 >= contig_16 {
        eprintln!(
            "scaling: work-aware bottleneck {aware_16} >= contiguous {contig_16} at 16 shards \
             — the LPT split stopped paying for itself"
        );
        ok = false;
    }
    ok
}
