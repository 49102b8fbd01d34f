//! `check faults` (`ci.sh` phase `smoke:faults`): runs q1 and q6 on the
//! 48-vertex hub-skewed fixture under a seeded fault plan (one warp panic
//! and one warp stall over a 2×4 grid) and fails if either count drifts
//! from the clean run or from the pinned goldens, if containment leaks an
//! escaped panic, or if requeued work is left stranded — or, on the default
//! seed, if no warp died (it retries a few times: the victim can race to no
//! work). (A containment bug
//! that deadlocks survivors shows up as a hang: `ci.sh`'s phase cap kills
//! it.)
//!
//! Reproduce a failure locally with the printed `FAULT_SEED=0x…` line:
//! the seed fully determines the fault schedule.

use crate::{fixture, GOLDEN};
use std::process::ExitCode;
use stmatch_core::{Engine, EngineConfig, FaultPlan};
use stmatch_pattern::catalog;

/// Default seed: warp 0 panics at its 2nd claim (and warp 6 stalls at its
/// 4th), so the death fires whenever the victim receives any work at all —
/// whatever the claim widths make of a run's claim count. The gate then
/// proves real containment — death observed, count still exact. With an
/// overridden `FAULT_SEED` the death expectation is dropped.
const DEFAULT_SEED: u64 = 0x16c8;

/// On a 48-vertex fixture the other seven warps can drain the level-0
/// chunks before the victim is scheduled once, and then nobody dies: the
/// default seed gets this many faulty runs to see a death. Every one of
/// them is held to the count.
const ATTEMPTS: usize = 6;

pub fn run(args: &[String]) -> ExitCode {
    if let Err(code) = crate::flag("faults", args, &[]) {
        return code;
    }
    let (seed, default_seed) = match crate::fault_seed("faults", DEFAULT_SEED) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let grid = crate::grid(2, 4);
    let cfg = EngineConfig::full().with_grid(grid);
    let g = fixture();
    let plan = FaultPlan::seeded(seed, grid.total_warps(), 1, 1);
    let reproduce = plan.reproduce_line().unwrap_or_default().to_string();

    let mut failed = false;
    for (qi, golden) in GOLDEN {
        let q = catalog::paper_query(qi);
        let clean = Engine::new(cfg).run(&g, &q).expect("clean launch");
        let mut errs = Vec::new();
        if clean.count != golden {
            errs.push(format!("clean count {} != golden {golden}", clean.count));
        }
        let (mut count, mut deaths, mut salvages) = (0, 0, 0);
        for _ in 0..if default_seed { ATTEMPTS } else { 1 } {
            let faulty = Engine::new(cfg)
                .with_fault_plan(plan.clone())
                .run(&g, &q)
                .expect("faulty launch");
            count = faulty.count;
            if faulty.count != clean.count {
                errs.push(format!(
                    "faulty count {} != clean {}",
                    faulty.count, clean.count
                ));
            }
            if faulty.timed_out {
                errs.push("faulty run marked timed_out".into());
            }
            if let Some(r) = &faulty.fault {
                if !r.fully_recovered() {
                    errs.push(format!(
                        "not fully recovered: {} unrecovered, {} escaped",
                        r.unrecovered, r.escaped_panics
                    ));
                }
                (deaths, salvages) = (r.deaths.len(), r.salvage_launches);
            }
            if deaths > 0 || !errs.is_empty() {
                break;
            }
        }
        if default_seed && deaths == 0 {
            errs.push("default-seed panic never fired: the gate exercised nothing".into());
        }
        if errs.is_empty() {
            println!(
                "faults q{qi}: OK (count {count}, {deaths} deaths, {salvages} salvages, {reproduce})"
            );
        } else {
            for e in errs {
                eprintln!("faults q{qi} DRIFT: {e}");
            }
            eprintln!("faults q{qi}: reproduce with {reproduce}");
            failed = true;
        }
    }
    crate::exit_code(!failed)
}
