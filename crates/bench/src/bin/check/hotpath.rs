//! `check hotpath` (`ci.sh` phase `smoke:hotpath`): runs the `hotpath`
//! suite once each and fails if match counts, total SIMT
//! instructions, or lane utilization drift from the values recorded in
//! [`stmatch_bench::hotpath::GOLDEN`] — this gate pins simulated
//! behaviour, not host speed.
//!
//! `--print` emits the current values as a `GOLDEN` table, for
//! regeneration after an intentional cost-model change.

use std::process::ExitCode;
use stmatch_bench::hotpath;

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
                "    Golden {{\n        query: {qi},\n        leg: Leg::{leg:?},\n        \
                 count: {},\n        total_instructions: {},\n        \
                 lane_utilization: {},\n    }},",
                out.count,
                out.total_instructions(),
                out.metrics.lane_utilization()
            );
            continue;
        }
        match hotpath::check(qi, leg, &out) {
            Ok(()) => println!(
                "hotpath q{qi} {leg:?}: OK (count {}, {} instr, util {:.4})",
                out.count,
                out.total_instructions(),
                out.metrics.lane_utilization()
            ),
            Err(e) => {
                eprintln!("hotpath DRIFT: {e}");
                ok = false;
            }
        }
    }
    crate::exit_code(ok)
}
