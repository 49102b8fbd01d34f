//! `check hotpath` (`ci.sh` phase `smoke:hotpath`): runs the `hotpath`
//! suite once each and fails if match counts, total SIMT
//! instructions, or lane utilization drift from the values recorded in
//! [`stmatch_bench::hotpath::GOLDEN`] — this gate pins simulated
//! behaviour, not host speed.
//!
//! `--print` emits the current values as a `GOLDEN` table, for
//! regeneration after an intentional cost-model change.
//!
//! Either way every row carries the split of its instruction total by
//! charging site (`set_op` / `claim` / `count_pass`, and `steal` for what
//! they leave: the work-transfer charges, 0 on this steal-free suite) — the
//! first thing to read when a total moves. `ci.sh` greps q1's and q8's
//! `count_pass`.

use std::process::ExitCode;
use stmatch_bench::hotpath;
use stmatch_core::MatchOutcome;

/// `out`'s instruction total by charging site.
fn split(out: &MatchOutcome) -> String {
    let t = out.metrics.total();
    let sites = t.set_op_instructions + t.claim_instructions + t.count_pass_instructions;
    format!(
        "set_op={} claim={} count_pass={} steal={}",
        t.set_op_instructions,
        t.claim_instructions,
        t.count_pass_instructions,
        t.simt_instructions - sites
    )
}

pub fn run(args: &[String]) -> ExitCode {
    let print = match crate::flag("hotpath", args, &["--print"]) {
        Ok(f) => f.is_some(),
        Err(code) => return code,
    };
    let mut ok = true;
    for (qi, leg) in hotpath::SUITE {
        let out = hotpath::run_once(qi, leg);
        if print {
            println!(
                "    // {}\n    Golden {{\n        query: {qi},\n        leg: Leg::{leg:?},\n        \
                 count: {},\n        total_instructions: {},\n        \
                 lane_utilization: {},\n    }},",
                split(&out),
                out.count,
                out.total_instructions(),
                out.metrics.lane_utilization()
            );
            continue;
        }
        match hotpath::check(qi, leg, &out) {
            Ok(()) => println!(
                "hotpath q{qi} {leg:?}: OK (count {}, {} instr, util {:.4}; {})",
                out.count,
                out.total_instructions(),
                out.metrics.lane_utilization(),
                split(&out)
            ),
            Err(e) => {
                eprintln!("hotpath DRIFT: {e}");
                ok = false;
            }
        }
    }
    crate::exit_code(ok)
}
