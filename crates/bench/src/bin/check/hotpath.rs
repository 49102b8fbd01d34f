//! `check hotpath` (`ci.sh` phase `smoke:hotpath`): runs the `hotpath`
//! suite once each and fails if match counts, total SIMT
//! instructions, lane utilization or the fused tails' `[streams,
//! survivors]` drift from the values recorded in
//! [`stmatch_bench::hotpath::GOLDEN`] — this gate pins simulated
//! behaviour, not host speed.
//!
//! `--print` emits the current values as a `GOLDEN` table, for
//! regeneration after an intentional cost-model change.
//!
//! Either way every row carries the split of its instruction total by
//! charging site (`set_op` / `claim` / `count_pass`, each with the lane
//! utilization of what it issued after an `@` — `@-` where it issued no lane
//! — and `steal` for what they leave: the work-transfer charges, 0 on this
//! steal-free suite) — the first thing to read when a total or the
//! utilization moves — and the slot table it ran under: each level's claim
//! width and the arena slots they add up to against the `NUM_SETS × UNROLL`
//! budget (`widths=[…] slots=Σ/budget`) — and, between the two, the fused
//! tails it formed: streams issued over whole parent batches and the
//! survivors they counted (`tail=streams/survivors`, `0/0` where the plan
//! forms none), and the lanes of its combining set operations
//! (`streamed=operand/element`: the lanes of slots that streamed their
//! shorter operand against the input's row, of all element lanes). `ci.sh`
//! greps q1's and q8's `count_pass`, q1's, q4's and q8's `tail`, the
//! operand share of q1, q2, q3 and q6, q1's last claim width and every row's
//! slots.

use std::process::ExitCode;
use stmatch_bench::hotpath;
use stmatch_core::MatchOutcome;
use stmatch_gpusim::Site;
use stmatch_pattern::SlotTable;

/// `out`'s instruction total and lane utilization by charging site, its
/// fused tails, its streamed lanes, and the slot table the run claimed and
/// stored under.
fn split(out: &MatchOutcome, table: &SlotTable) -> String {
    let t = out.metrics.total();
    let site = |s: Site| {
        let [n, issued, active] = t.at(s);
        match issued {
            0 => format!("{n}@-"),
            _ => format!("{n}@{:.3}", active as f64 / issued as f64),
        }
    };
    format!(
        "set_op={} claim={} count_pass={} steal={} tail={}/{} streamed={}/{} widths={:?} slots={}/{}",
        site(Site::SetOp),
        site(Site::Claim),
        site(Site::CountPass),
        t.at(Site::Transfer)[0],
        out.tail[0],
        out.tail[1],
        t.operand_lanes,
        t.element_lanes,
        table.widths(),
        table.total(),
        table.budget()
    )
}

pub fn run(args: &[String]) -> ExitCode {
    let print = match crate::flag("hotpath", args, &["--print"]) {
        Ok(f) => f.is_some(),
        Err(code) => return code,
    };
    let mut ok = true;
    for (qi, leg) in hotpath::SUITE {
        let (g, q, engine) = hotpath::entry(qi, leg);
        let plan = engine.compile(&q);
        let table = engine.slot_table(&plan);
        if table.total() > table.budget() {
            eprintln!("hotpath DRIFT: q{qi} {leg:?} slots {table:?} exceed their budget");
            ok = false;
        }
        let out = engine.run_plan(&g, &plan).unwrap();
        if print {
            println!(
                "    // {}\n    Golden {{\n        query: {qi},\n        leg: Leg::{leg:?},\n        \
                 count: {},\n        total_instructions: {},\n        \
                 lane_utilization: {},\n        tail: {:?},\n    }},",
                split(&out, &table),
                out.count,
                out.total_instructions(),
                out.metrics.lane_utilization(),
                out.tail
            );
            continue;
        }
        match hotpath::check(qi, leg, &out) {
            Ok(()) => println!(
                "hotpath q{qi} {leg:?}: OK (count {}, {} instr, util {:.4}; {})",
                out.count,
                out.total_instructions(),
                out.metrics.lane_utilization(),
                split(&out, &table)
            ),
            Err(e) => {
                eprintln!("hotpath DRIFT: {e}");
                ok = false;
            }
        }
    }
    crate::exit_code(ok)
}
