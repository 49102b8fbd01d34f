//! `check bitmap` (`ci.sh` phase `smoke:bitmap`), the gate for hub-bitmap
//! routing: runs q1/q6 on the hotpath
//! graph, the 5-clique query on the dense ER clique workload, and the
//! same query on `K_32` (whose `C(32, 5)` count is closed-form) — there
//! also without code motion, so that every level is a multi-op chain on
//! hubs and runs fused — once on the plain graph (**off**: no index, so
//! no hub rows) and once on the same graph carrying a hub-bitmap index
//! (**on**: the index a graph carries is the routing decision), and fails
//! unless
//!
//! * the off legs reproduce the pinned behaviour exactly — for q1/q6 the
//!   full [`stmatch_bench::hotpath::GOLDEN`] row (count, instructions,
//!   utilization), for the clique legs their pinned/analytic counts — with
//!   zero bitmap counters;
//! * the on legs produce the identical match counts;
//! * the on legs reproduce their pinned [`ROUTED`] rows to the word:
//!   total SIMT instructions, probe words, merge words and merge waves —
//!   the three bitmap counters as recorded from the plan-walking hub path
//!   before it was folded into the stream interpreter, the instruction
//!   totals as the kernel's current cost model gives them. A silent
//!   fallback to the classic ladder, a row routed to the wrong operand, or
//!   a fused chain that stops fusing all move at least one of them; q1's
//!   row is all-zero on the bitmap side (its 5-path plan is pure neighbor
//!   materializations with no intersect/difference ops for a bitmap to
//!   serve).
//!
//! The final `bitmap_check totals:` line is grepped by `ci.sh`'s
//! `smoke:bitmap` phase.

use std::process::ExitCode;
use stmatch_bench::hotpath;
use stmatch_core::Engine;
use stmatch_graph::{gen, Graph};

/// Pinned on-leg behaviour per workload: `(total instructions, probe
/// words, merge words, merge waves)`. Regenerate from the `bitmap <name>:`
/// lines this gate prints — only for an intentional cost-model or routing
/// change, and say so in the commit message.
const ROUTED: [(u64, u64, u64, u64); 5] = [
    (542_793, 0, 0, 0),
    (266_087, 99_498, 854_959, 33_059),
    (1_096_890, 0, 3_268_120, 234_366),
    (34_346, 0, 41_416, 6_256),
    (200_728, 0, 118_296, 118_296),
];

pub fn run(args: &[String]) -> ExitCode {
    if let Err(code) = crate::flag("bitmap", args, &[]) {
        return code;
    }
    let pa = hotpath::graph();
    let er = hotpath::clique_graph();
    let k32 = gen::complete(32);
    // (name, graph, query, pinned count (None = GOLDEN row), code
    // motion), in `ROUTED` order.
    let suite: [(&str, &Graph, usize, Option<u64>, bool); 5] = [
        ("q1", &pa, 1, None, true),
        ("q6", &pa, 6, None, true),
        ("clique", &er, 8, Some(hotpath::CLIQUE_COUNT), true),
        ("k32", &k32, 8, Some(201_376), true), // C(32, 5)
        ("k32-chains", &k32, 8, Some(201_376), false),
    ];

    let mut failed = false;
    let mut fail = |msg: String| {
        eprintln!("bitmap DRIFT: {msg}");
        failed = true;
    };
    let (mut probe_words, mut merge_words, mut merge_waves) = (0u64, 0u64, 0u64);
    for ((name, g, qi, pinned, code_motion), routed) in suite.into_iter().zip(ROUTED) {
        let indexed = g.clone().with_hub_bitmap(hotpath::BITMAP_THRESHOLD);
        let q = hotpath::query(qi);
        let mut cfg = hotpath::config();
        cfg.code_motion = code_motion;

        let off = Engine::new(cfg).run(g, &q).unwrap();
        match pinned {
            // PA workloads: the off leg must reproduce the GOLDEN row.
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
        let t = off.metrics.total();
        if t.bitmap_probe_words + t.bitmap_merge_words + t.bitmap_merge_waves != 0 {
            fail(format!("{name} off-leg moved bitmap counters"));
        }

        let on = Engine::new(cfg).run(&indexed, &q).unwrap();
        if on.count != off.count {
            fail(format!(
                "{name} on-leg count {} != off-leg {}",
                on.count, off.count
            ));
        }
        let t = on.metrics.total();
        let got = (
            on.total_instructions(),
            t.bitmap_probe_words,
            t.bitmap_merge_words,
            t.bitmap_merge_waves,
        );
        if got != routed {
            fail(format!(
                "{name} on-leg (instr, probe words, merge words, merge waves) \
                 {got:?} != pinned {routed:?}"
            ));
        }
        probe_words += t.bitmap_probe_words;
        merge_words += t.bitmap_merge_words;
        merge_waves += t.bitmap_merge_waves;
        println!(
            "bitmap {name}: count={} off_instr={} on_instr={} probe_words={} \
             merge_words={} merge_waves={}",
            on.count,
            off.total_instructions(),
            on.total_instructions(),
            t.bitmap_probe_words,
            t.bitmap_merge_words,
            t.bitmap_merge_waves
        );
    }
    println!(
        "bitmap_check totals: probe_words={probe_words} merge_words={merge_words} \
         merge_waves={merge_waves}"
    );
    crate::exit_code(!failed)
}
