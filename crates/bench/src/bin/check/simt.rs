//! `check simt` (`ci.sh` phase `smoke:check`), the gate for the
//! `simt-check` concurrency analysis layer.
//!
//! Default mode runs q1 and q6 on the golden fixture — clean and under the
//! seeded fault plan — with every checker enabled, prints any diagnostics,
//! and exits 1 if an error-severity finding fires or a count drifts: the
//! zero-false-positive contract, enforced on every CI run.
//!
//! `--mutate=lock-drop` / `--mutate=lock-invert` / `--mutate=rail-drop`
//! replay the seeded concurrency bugs of `stmatch_core::steal::mutation`,
//! and `--mutate=cache-drop` replays `stmatch_core::service::mutation`'s
//! untracked plan-cache insert; each exits **1 when the checker catches
//! the bug** (printing the diagnostics and their reproduce lines) and 0
//! if the mutation escaped. CI inverts the exit code: a silent checker
//! fails the build.
//!
//! `SIMT_CHECK=races,deadlock,divergence` (also `all` / `none`) selects
//! which checkers run; the reproduce line printed with every diagnostic
//! uses the same syntax.

use crate::{fixture, GOLDEN};
use simt_check::{CheckConfig, Diagnostic, Severity};
use std::process::ExitCode;
use stmatch_core::steal::{mutation, Board, ShardRail};
use stmatch_core::{Engine, EngineConfig, FaultPlan};
use stmatch_pattern::catalog;

/// `check faults`' default plan (warp 0 dies at its 2nd claim), and the
/// shard-kill seed (shard 0 at its 3rd).
const FAULT_SEED: u64 = 0x16c8;
const SHARD_KILL_SEED: u64 = 0x1d;

const MUTATIONS: [&str; 4] = [
    "--mutate=lock-drop",
    "--mutate=lock-invert",
    "--mutate=cache-drop",
    "--mutate=rail-drop",
];

pub fn run(args: &[String]) -> ExitCode {
    let mutate = match crate::flag("simt", args, &MUTATIONS) {
        Ok(f) => f.map(|f| f.trim_start_matches("--mutate=")),
        Err(code) => return code,
    };
    let cfg = match CheckConfig::from_env("SIMT_CHECK") {
        Some(Ok(c)) => c,
        Some(Err(e)) => {
            eprintln!("check simt: {e}");
            return ExitCode::from(2);
        }
        None => CheckConfig::all(),
    };
    match mutate {
        Some(m) => run_mutation(m, cfg),
        None => run_clean_gate(cfg),
    }
}

fn print_diags(diags: &[Diagnostic]) {
    for d in diags {
        println!("{}", d.render());
    }
}

/// Clean + seeded-fault runs must produce zero error diagnostics.
fn run_clean_gate(cfg: CheckConfig) -> ExitCode {
    simt_check::enable(cfg);
    simt_check::set_reproduce(format!(
        "SIMT_CHECK={} cargo run --release -p stmatch-bench --bin check -- simt",
        cfg.spec()
    ));
    let grid = crate::grid(2, 4);
    let ecfg = EngineConfig::full().with_grid(grid);
    let g = fixture();
    let plan = FaultPlan::seeded(FAULT_SEED, grid.total_warps(), 1, 1);

    let mut failed = false;
    for (qi, golden) in GOLDEN {
        let q = catalog::paper_query(qi);
        for (label, fault) in [("clean", None), ("faulty", Some(plan.clone()))] {
            let mut engine = Engine::new(ecfg);
            if let Some(p) = fault {
                engine = engine.with_fault_plan(p);
            }
            let out = engine.run(&g, &q).expect("launch");
            if out.count != golden {
                eprintln!(
                    "check q{qi} {label}: count {} != golden {golden}",
                    out.count
                );
                failed = true;
            }
        }
    }
    // Sharded sweep: four grids trading work over the ShardRail (rank 8),
    // clean and under a seeded whole-shard kill. The checker must stay
    // silent while the cross-shard steal and requeue paths run hot.
    let scfg = EngineConfig::full().with_grid(grid).with_shards(4);
    let kill = FaultPlan::seeded_shard_kill(SHARD_KILL_SEED, 4, 1);
    for (qi, golden) in GOLDEN {
        let q = catalog::paper_query(qi);
        for (label, fault) in [("sharded", None), ("shard-kill", Some(kill.clone()))] {
            let mut engine = Engine::new(scfg);
            if let Some(p) = fault {
                engine = engine.with_fault_plan(p);
            }
            let out = engine.run_sharded(&g, &q).expect("sharded launch");
            if out.outcome.count != golden {
                eprintln!(
                    "check q{qi} {label}: count {} != golden {golden}",
                    out.outcome.count
                );
                failed = true;
            }
        }
    }
    let diags = simt_check::drain();
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    print_diags(&diags);
    if errors > 0 {
        eprintln!(
            "check: {errors} error diagnostic(s) on clean/faulty/sharded runs (false positives)"
        );
        failed = true;
    }
    if !failed {
        println!(
            "check: OK (q1/q6 clean+faulty+sharded under SIMT_CHECK={}, {} warning(s), 0 errors)",
            cfg.spec(),
            diags.len() - errors
        );
    }
    crate::exit_code(!failed)
}

/// Replays one seeded mutation; exit 1 = caught (CI inverts), 0 = escaped.
fn run_mutation(which: &str, cfg: CheckConfig) -> ExitCode {
    simt_check::enable(cfg);
    simt_check::set_reproduce(format!(
        "SIMT_CHECK={} cargo run --release -p stmatch-bench --bin check -- simt --mutate={which}",
        cfg.spec()
    ));
    match which {
        "lock-drop" => {
            // A worker seeds the mirror under the tracked lock; the host
            // thread then claims with the acquisition deleted. Thread
            // spawn/join is invisible to the checker, so only the lock
            // could have ordered the two accesses — and the mutation
            // dropped it.
            let board = Board::new(1, 2, 2, (0, 100), 10);
            std::thread::scope(|s| {
                s.spawn(|| {
                    board.mirror(0).lock().size[0] = 4;
                });
            });
            let _ = mutation::claim_shallow_without_lock(&board, 0, 0);
        }
        "lock-invert" => {
            // One legitimate push records slot → mirror; the inverted
            // push then closes the cycle.
            let board = Board::new(2, 1, 2, (0, 100), 10);
            board.mark_idle(1);
            board.mirror(0).lock().size[0] = 4;
            assert!(board.try_push_global(0), "legitimate push must land");
            assert!(board.try_claim_global(1).is_some());
            board.mark_idle(1);
            let _ = mutation::push_global_inverted(&board, 0);
        }
        "rail-drop" => {
            // A worker claims from the rail under the tracked lock
            // (rank 8); the host thread then claims with the acquisition
            // deleted. As with lock-drop, thread join is invisible to the
            // checker, so only the rail lock could have ordered the two
            // accesses to the `rail[id]` shadow cell.
            let rail = ShardRail::new(&[0, 50, 100], 10, true);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _ = rail.claim(0);
                });
            });
            let _ = mutation::rail_claim_without_lock(&rail);
        }
        "cache-drop" => {
            // A blocking submit makes a service worker write the plan
            // cache under the tracked lock; the untracked insert that
            // follows has no happens-before edge to it (the mpsc reply is
            // invisible to the checker) — a data race on plan-cache[id].
            let svc = stmatch_core::MatchService::new(
                std::sync::Arc::new(fixture()),
                stmatch_core::ServiceConfig::new(EngineConfig::full().with_grid(crate::grid(2, 4)))
                    .with_workers(1),
            );
            let out = svc
                .submit(&catalog::paper_query(8), Default::default())
                .expect("seeding query");
            assert_eq!(out.count, 4, "seeding query must stay at golden");
            stmatch_core::service::mutation::cache_insert_without_lock(
                &svc,
                &catalog::paper_query(7),
            );
        }
        _ => unreachable!("`MUTATIONS` bounds the mutation names"),
    }
    let diags = simt_check::drain();
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    print_diags(&diags);
    if errors > 0 {
        println!("mutation {which}: caught ({errors} error diagnostic(s))");
    } else {
        println!("mutation {which}: ESCAPED — the checker stayed silent");
    }
    crate::exit_code(errors == 0)
}
