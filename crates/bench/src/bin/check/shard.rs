//! `check shard` (`ci.sh` phase `smoke:shard`), the gate for sharded
//! multi-grid execution.
//!
//! Default mode runs three legs over the pinned q1/q6 goldens on the
//! 48-vertex hub-skewed fixture:
//!
//! * **single** — a plain `Engine::run` (nobody asked for shards) lands the
//!   goldens across repeated runs with zero shard-rail metrics and no
//!   fault bookkeeping;
//! * **on** — a clean 4-shard `run_sharded` must land the same goldens
//!   with nothing left on the rail;
//! * **kill** — seeded whole-shard deaths (1-of-4 and 3-of-4) must keep
//!   counts exact, fully recover the dead shards' work over the rail
//!   (nonzero requeue/steal traffic), and print the deterministic
//!   `FAULT_SEED=0x…` reproduce line.
//!
//! `--scaling` additionally runs the 1/2/4/8/16-shard sweep on a larger
//! skewed preferential-attachment fixture and prints the bottleneck-cycle
//! curve, failing if counts drift across shard counts or the work-aware
//! split loses to the contiguous baseline on bottleneck time.
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
/// this fixture (the gate then proves real recovery — shard death
/// observed, count still exact). With an overridden `FAULT_SEED` the
/// victims may race to no work, so the death expectation only applies to
/// the default seed.
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

    // --- Single leg: a run nobody sharded never touches the rail. ---
    let off_cfg = EngineConfig::default().with_grid(grid());
    for (qi, golden) in GOLDEN {
        let q = catalog::paper_query(qi);
        let mut errs = Vec::new();
        let mut counts = Vec::new();
        for _ in 0..2 {
            let out = Engine::new(off_cfg)
                .run(&g, &q)
                .expect("single-grid launch");
            if out.metrics.total().shard_steal_receives != 0 {
                errs.push("shard-rail metric nonzero on a single-grid run".to_string());
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

    // --- On leg: clean 4-shard run, same goldens, rail drained. ---
    let on_cfg = EngineConfig::default().with_grid(grid()).with_shards(4);
    for (qi, golden) in GOLDEN {
        let q = catalog::paper_query(qi);
        let out = Engine::new(on_cfg)
            .run_sharded(&g, &q)
            .expect("on-leg launch");
        let mut errs = Vec::new();
        if out.outcome.count != golden {
            errs.push(format!(
                "sharded count {} != golden {golden}",
                out.outcome.count
            ));
        }
        if !out.unfinished.is_empty() {
            errs.push(format!("{} ranges left on the rail", out.unfinished.len()));
        }
        if out.rail.shard_deaths != 0 {
            errs.push("shard deaths on a clean run".to_string());
        }
        ok &= report(qi, "on", &errs, || {
            format!(
                "count {}, {} cross-steals",
                out.outcome.count, out.rail.cross_steals
            )
        });
    }

    // --- Kill legs: seeded shard deaths must recover exactly. ---
    let mut deaths_total = 0usize;
    let mut requeue_total = 0u64;
    for kills in [1usize, 3] {
        let plan = FaultPlan::seeded_shard_kill(seed, 4, kills);
        let reproduce = plan
            .shard_reproduce_line()
            .expect("seeded kill plans carry a reproduce line");
        for (qi, golden) in GOLDEN {
            let q = catalog::paper_query(qi);
            let out = Engine::new(on_cfg)
                .with_fault_plan(plan.clone())
                .run_sharded(&g, &q)
                .expect("kill-leg launch");
            let mut errs = Vec::new();
            if out.outcome.count != golden {
                errs.push(format!("count {} != golden {golden}", out.outcome.count));
            }
            if out.outcome.timed_out {
                errs.push("kill-leg run marked timed_out".to_string());
            }
            let deaths = match &out.outcome.fault {
                Some(r) => {
                    if !r.fully_recovered() {
                        errs.push(format!(
                            "not fully recovered: {} unrecovered, {} escaped",
                            r.unrecovered, r.escaped_panics
                        ));
                    }
                    if !r.deaths.is_empty() && out.reproduce.is_none() {
                        errs.push("shard-death report lacks a reproduce line".to_string());
                    }
                    r.deaths.len()
                }
                None => 0,
            };
            deaths_total += deaths;
            requeue_total += out.rail.requeue_pushes
                + out.rail.requeue_claims
                + out.outcome.metrics.total().shard_steal_receives;
            ok &= report(qi, &format!("kill{kills}"), &errs, || {
                format!(
                    "count {}, {deaths} deaths, {} shard-deaths, {} requeue-claims, \
                     {reproduce}",
                    out.outcome.count, out.rail.shard_deaths, out.rail.requeue_claims
                )
            });
        }
    }
    if default_seed && deaths_total == 0 {
        eprintln!("shard kill DRIFT: default-seed kills never fired: the gate exercised nothing");
        ok = false;
    }
    if default_seed && requeue_total == 0 {
        eprintln!("shard kill DRIFT: no work ever crossed the rail under the default seed");
        ok = false;
    }
    ok
}

fn report(qi: usize, leg: &str, errs: &[String], detail: impl Fn() -> String) -> bool {
    crate::report(&format!("shard q{qi} {leg}"), errs, detail)
}

/// One scaling measurement: `(count, bottleneck cycles)` of a sharded
/// triangle count on one-block, two-warp shard grids.
fn measure(g: &Graph, shards: usize, work_aware: bool, cross_steal: bool) -> (u64, u64) {
    let mut cfg = EngineConfig::default()
        .with_grid(crate::grid(1, 2))
        .with_shards(shards);
    cfg.shard.work_aware = work_aware;
    cfg.shard.cross_steal = cross_steal;
    let out = Engine::new(cfg)
        .run_sharded(g, &catalog::triangle())
        .expect("scaling launch");
    (out.outcome.count, out.outcome.simulated_cycles())
}

/// 1/2/4/8/16-shard efficiency sweep on a 256-vertex skewed fixture.
/// Bottleneck time is `simulated_cycles()` — the slowest warp of any shard
/// — so the curve measures load balance, not host scheduling noise.
fn run_scaling() -> bool {
    let g = gen::preferential_attachment(256, 4, 9).degree_ordered();
    let base_count = measure(&g, 1, true, true).0;
    let mut ok = base_count > 0;
    let base_cycles = measure(&g, 1, false, false).1;
    let mut aware_16 = 0u64;
    let mut contig_16 = 0u64;
    for shards in [1usize, 2, 4, 8, 16] {
        // Pure partition comparison: cross-steal off, so the bottleneck
        // is exactly the heaviest shard's work.
        let (c_contig, cyc_contig) = measure(&g, shards, false, false);
        let (c_aware, cyc_aware) = measure(&g, shards, true, false);
        // Shipping config: work-aware + cross-steal, for the efficiency
        // curve the rail actually delivers.
        let (c_ship, cyc_ship) = measure(&g, shards, true, true);
        for (label, c) in [
            ("contiguous", c_contig),
            ("aware", c_aware),
            ("ship", c_ship),
        ] {
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
             +steal {cyc_ship} cyc, efficiency {efficiency:.3}"
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
