//! `check bytecode` (`ci.sh` phase `smoke:bytecode`), the gate for the
//! execution tiers: runs q1/q6/q8 on the hotpath
//! graph and q8 on the dense ER clique workload, once holding **no tier
//! state** (the default), once with tier state and a profile threshold the
//! cascades cross mid-run, and once with forced specialization
//! (`tier_up_after == 0`), and fails unless
//!
//! * the off legs reproduce the pinned behaviour exactly — the full
//!   [`stmatch_bench::hotpath::GOLDEN`] rows for the PA workloads (count,
//!   instructions, utilization) and the pinned clique count — and report
//!   `served_tier: None`;
//! * every leg with tier state is *metric-bit-identical* to its off leg:
//!   same count, same total SIMT instructions, same lane utilization
//!   (every leg interprets the plan's own stream; the tier-1 bodies
//!   specialize that loop, not the cost-model-visible set operations);
//! * tier routing lands exactly where the policy says: under profiling,
//!   the q8 cascades reach tier 1 (their claim loops cross the
//!   threshold) while q1 (path: never auto-promoted) and q6 (general:
//!   no tier-1 body) stay on tier 0; under forced specialization, q1
//!   and q8 serve tier 1 and only q6 remains interpreted.
//!
//! The final `bytecode_check totals:` line is grepped by `ci.sh`'s
//! `smoke:bytecode` phase — nonzero specialized traffic proves the
//! tier-1 bodies actually ran rather than silently falling back.

use std::process::ExitCode;
use stmatch_bench::hotpath;
use stmatch_core::{Engine, EngineConfig, MatchOutcome};

/// Profile threshold for the tier-up leg: low enough that every q8
/// workload's claim loop crosses it mid-run, high enough to exercise the
/// counter batching rather than promote on the first flush.
const TIER_UP_AFTER: u64 = 256;

fn compiled_config(tier_up_after: u64) -> EngineConfig {
    let mut cfg = hotpath::config();
    cfg.compile.enabled = true;
    cfg.compile.tier_up_after = tier_up_after;
    cfg
}

/// One workload row: (name, graph, query, pinned count (None = GOLDEN
/// row), expected tier under profiling, expected tier under forced spec).
type Workload<'g> = (
    &'g str,
    &'g stmatch_graph::Graph,
    usize,
    Option<u64>,
    u8,
    u8,
);

pub fn run(args: &[String]) -> ExitCode {
    if let Err(code) = crate::flag("bytecode", args, &[]) {
        return code;
    }
    let pa = hotpath::graph();
    let er = hotpath::clique_graph();
    let suite: [Workload; 4] = [
        ("q1", &pa, 1, None, 0, 1),
        ("q6", &pa, 6, None, 0, 0),
        ("q8", &pa, 8, None, 1, 1),
        ("clique", &er, 8, Some(hotpath::CLIQUE_COUNT), 1, 1),
    ];

    let mut failed = false;
    let mut fail = |msg: String| {
        eprintln!("bytecode DRIFT: {msg}");
        failed = true;
    };
    let metrics_match = |leg: &MatchOutcome, off: &MatchOutcome| -> Result<(), String> {
        if leg.count != off.count {
            return Err(format!("count {} != {}", leg.count, off.count));
        }
        if leg.total_instructions() != off.total_instructions() {
            return Err(format!(
                "instructions {} != {}",
                leg.total_instructions(),
                off.total_instructions()
            ));
        }
        let (lu, ou) = (
            leg.metrics.total().lane_utilization(),
            off.metrics.total().lane_utilization(),
        );
        if lu != ou {
            return Err(format!("lane utilization {lu} != {ou}"));
        }
        Ok(())
    };

    let (mut specialized_runs, mut tier0_runs) = (0u64, 0u64);
    for (name, g, qi, pinned, wanted_profiled, wanted_forced) in suite {
        let q = hotpath::query(qi);

        let off = Engine::new(hotpath::config()).run(g, &q).unwrap();
        match pinned {
            // PA workloads: the leg without tier state must reproduce the
            // GOLDEN row.
            None => {
                if let Err(e) = hotpath::check(qi, hotpath::Leg::Plain, &off) {
                    fail(format!("{name} off-leg: {e}"));
                }
            }
            Some(want) if off.count != want => {
                fail(format!("{name} off-leg count {} != {want}", off.count));
            }
            Some(_) => {}
        }
        if off.served_tier.is_some() {
            fail(format!(
                "{name} off-leg reported tier {:?} without tier state",
                off.served_tier
            ));
        }

        for (leg, cfg, wanted) in [
            ("profiled", compiled_config(TIER_UP_AFTER), wanted_profiled),
            ("forced", compiled_config(0), wanted_forced),
        ] {
            let on = Engine::new(cfg).run(g, &q).unwrap();
            if let Err(e) = metrics_match(&on, &off) {
                fail(format!("{name} {leg}-leg: {e}"));
            }
            if on.served_tier != Some(wanted) {
                fail(format!(
                    "{name} {leg}-leg routed to tier {:?}, expected Some({wanted})",
                    on.served_tier
                ));
            }
            match on.served_tier {
                Some(1) => specialized_runs += 1,
                Some(_) => tier0_runs += 1,
                None => {}
            }
            println!(
                "bytecode {name} {leg}: count={} instr={} tier={:?}",
                on.count,
                on.total_instructions(),
                on.served_tier
            );
        }
    }
    println!("bytecode_check totals: specialized_runs={specialized_runs} tier0_runs={tier0_runs}");
    crate::exit_code(!failed)
}
