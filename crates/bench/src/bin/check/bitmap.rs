//! `check bitmap` (`ci.sh` phase `smoke:bitmap`), the gate for hub-bitmap
//! routing: runs q1/q6/q3 on the hotpath graph — q6 also without code
//! motion, where no input is a lifted list with a marker row, so short
//! inputs probe the hub rows of their operands — the 5-clique query on the
//! dense ER clique workload, and the same query on `K_32` (whose
//! `C(32, 5)` count is closed-form) — there also without code motion, so
//! that every level is a multi-op chain on hubs and runs fused — and the
//! vertex-induced C5 (q2) on the clique workload, once on the plain graph
//! (**off**: no index, so no hub rows) and once on the same graph carrying
//! a hub-bitmap index (**on**: the index a graph carries is the routing
//! decision), and fails unless
//!
//! * the off legs reproduce the pinned behaviour exactly — for q1/q6/q3 the
//!   full [`stmatch_bench::hotpath::GOLDEN`] row (count, instructions,
//!   utilization), for the other legs their pinned/analytic counts — with
//!   zero bitmap counters;
//! * the on legs produce the identical match counts;
//! * the on legs reproduce their pinned [`ROUTED`] rows to the word:
//!   total SIMT instructions, probe words, merge words and merge waves —
//!   the three bitmap counters as recorded from the plan-walking hub path
//!   before it was folded into the stream interpreter (`q2-induced`'s as
//!   this gate first read them), the instruction totals as the kernel's
//!   current cost model gives them. A silent
//!   fallback to the classic ladder, a row routed to the wrong operand, or
//!   a fused chain that stops fusing all move at least one of them; q1's
//!   row is all-zero on the bitmap side (its 5-path plan is pure neighbor
//!   materializations with no intersect/difference ops for a bitmap to
//!   serve).
//!
//! Which legs fuse chains: under default code motion an edge-induced plan
//! leaves no multi-op chain on hubs (q1, q6, q3, the clique and K32 legs
//! keep their rows bit for bit with fusion off), so only the two
//! `-chains` legs fuse among those. A vertex-induced plan's difference
//! chains fuse under default code motion too: `q2-induced` is the leg that
//! pins them (fused, its on-leg runs 10.6 M instructions; unfused, 17.2 M).
//!
//! Every leg prints a `bitmap <name> off:` / `bitmap <name> on:` line,
//! each with the lanes its intersections streamed
//! (`streamed=operand/element`, as `check hotpath` prints them). `ci.sh`'s
//! `smoke:bitmap` phase greps the q3 on-leg's nonzero operand share (the
//! marker rows of non-hub lifted lists), the `q2-induced` on-leg's nonzero
//! merge words and waves, and the final `bitmap_check totals:` line.

use std::process::ExitCode;
use stmatch_bench::hotpath;
use stmatch_core::{Engine, EngineConfig};
use stmatch_graph::{gen, Graph};

/// Pinned on-leg behaviour per workload: `(total instructions, probe
/// words, merge words, merge waves)`. Regenerate from the `bitmap <name> on:`
/// lines this gate prints — only for an intentional cost-model or routing
/// change, and say so in the commit message.
const ROUTED: [(u64, u64, u64, u64); 8] = [
    (542_793, 0, 0, 0),
    (272_942, 0, 914_200, 37_189),
    (197_871, 0, 741_118, 28_018),
    (1_833_400, 99_498, 854_959, 122_137),
    (1_096_890, 0, 3_268_120, 234_366),
    (34_346, 0, 41_416, 6_256),
    (200_728, 0, 118_296, 118_296),
    (10_621_794, 0, 57_807_072, 3_163_313),
];

pub fn run(args: &[String]) -> ExitCode {
    if let Err(code) = crate::flag("bitmap", args, &[]) {
        return code;
    }
    let pa = hotpath::graph();
    let er = hotpath::clique_graph();
    let k32 = gen::complete(32);
    let cfg = hotpath::config();
    let chains = EngineConfig {
        code_motion: false,
        ..cfg
    };
    let induced = cfg.induced(true);
    // (name, graph, query, pinned count (None = GOLDEN row), engine
    // configuration), in `ROUTED` order.
    let suite: [(&str, &Graph, usize, Option<u64>, EngineConfig); 8] = [
        ("q1", &pa, 1, None, cfg),
        ("q6", &pa, 6, None, cfg),
        ("q3", &pa, 3, None, cfg),
        ("q6-chains", &pa, 6, Some(hotpath::GOLDEN[1].count), chains),
        ("clique", &er, 8, Some(hotpath::CLIQUE_COUNT), cfg),
        ("k32", &k32, 8, Some(201_376), cfg), // C(32, 5)
        ("k32-chains", &k32, 8, Some(201_376), chains),
        ("q2-induced", &er, 2, Some(81_274_484), induced),
    ];

    let mut failed = false;
    let mut fail = |msg: String| {
        eprintln!("bitmap DRIFT: {msg}");
        failed = true;
    };
    let (mut probe_words, mut merge_words, mut merge_waves) = (0u64, 0u64, 0u64);
    for ((name, g, qi, pinned, cfg), routed) in suite.into_iter().zip(ROUTED) {
        let indexed = g.clone().with_hub_bitmap(hotpath::BITMAP_THRESHOLD);
        let q = hotpath::query(qi);

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
        for (leg, out) in [("off", &off), ("on", &on)] {
            let t = out.metrics.total();
            println!(
                "bitmap {name} {leg}: count={} instr={} probe_words={} merge_words={} \
                 merge_waves={} streamed={}/{}",
                out.count,
                out.total_instructions(),
                t.bitmap_probe_words,
                t.bitmap_merge_words,
                t.bitmap_merge_waves,
                t.operand_lanes,
                t.element_lanes
            );
        }
    }
    println!(
        "bitmap_check totals: probe_words={probe_words} merge_words={merge_words} \
         merge_waves={merge_waves}"
    );
    crate::exit_code(!failed)
}
