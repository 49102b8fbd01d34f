//! `check faults` (`ci.sh` phase `smoke:faults`): runs q1 and q6 on the
//! 48-vertex hub-skewed fixture under a seeded fault plan (one warp panic
//! and one warp stall over a 2×4 grid) and fails if either count drifts
//! from the clean run or from the pinned goldens, if containment leaks an
//! escaped panic, or if requeued work is left stranded. (A containment bug
//! that deadlocks survivors shows up as a hang: `ci.sh`'s phase cap kills
//! it.)
//!
//! Reproduce a failure locally with the printed `FAULT_SEED=0x…` line:
//! the seed fully determines the fault schedule.

use crate::{fixture, GOLDEN};
use std::process::ExitCode;
use stmatch_core::{Engine, EngineConfig, FaultPlan};
use stmatch_pattern::catalog;

/// Default seed, chosen (and pinned by CI) because its panic victim
/// reliably receives work on this fixture: the gate then proves real
/// containment — death observed, count still exact — on every run. With
/// an overridden `FAULT_SEED` the victim may race to no work, so the
/// death expectation only applies to the default seed.
const DEFAULT_SEED: u64 = 0x1d;

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
        let faulty = Engine::new(cfg)
            .with_fault_plan(plan.clone())
            .run(&g, &q)
            .expect("faulty launch");
        let mut errs = Vec::new();
        if clean.count != golden {
            errs.push(format!("clean count {} != golden {golden}", clean.count));
        }
        if faulty.count != clean.count {
            errs.push(format!(
                "faulty count {} != clean {}",
                faulty.count, clean.count
            ));
        }
        if faulty.timed_out {
            errs.push("faulty run marked timed_out".into());
        }
        let (deaths, salvages) = match &faulty.fault {
            Some(r) => {
                if !r.fully_recovered() {
                    errs.push(format!(
                        "not fully recovered: {} unrecovered, {} escaped",
                        r.unrecovered, r.escaped_panics
                    ));
                }
                (r.deaths.len(), r.salvage_launches)
            }
            None => (0, 0),
        };
        if default_seed && deaths == 0 {
            errs.push("default-seed panic never fired: the gate exercised nothing".into());
        }
        if errs.is_empty() {
            println!(
                "faults q{qi}: OK (count {}, {deaths} deaths, {salvages} salvages, {reproduce})",
                faulty.count
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
