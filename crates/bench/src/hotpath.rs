//! The hot-path benchmark workloads (PR 2's allocation-free claim path).
//!
//! Four paper queries — q1 (5-path, unroll-heavy shallow work), q6
//! (bowtie, mixed intersect chains), q8 (5-clique, deep intersection
//! chains), q3 (the house: an `ApplyFromSet` and a `MaterializeBase` in
//! one level) — on one seeded preferential-attachment graph with the hub
//! skew of the paper's datasets; q3 also runs labeled (label-masked set
//! writes) and vertex-induced (difference ops), see [`Leg`]. The engine
//! config keeps the full hot path active (unroll 8, code motion) but
//! disables both stealing levels:
//! steal timing is host-scheduler-dependent and would perturb both the
//! wall-time medians and the fixed-cost-model instruction counters, while
//! the claim/`compute_sets`/set-op path — the thing this bench watches —
//! is identical with or without stealing.
//!
//! The recorded [`GOLDEN`] values pin behaviour: wall time may (should)
//! drop across host-side optimizations, but match counts, total SIMT
//! instructions, and lane utilization are deterministic for this
//! steal-free config and must not drift (see `ci.sh`'s hotpath smoke
//! phase and `check hotpath`).

use crate::tables;
use stmatch_core::{Engine, EngineConfig, MatchOutcome};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, Graph};
use stmatch_pattern::{catalog, Pattern};

/// How a suite entry runs its query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Leg {
    /// Unlabeled, edge-induced — the only leg the other gates share.
    Plain,
    /// Seeded random labels on the query and on the fixture, the way
    /// `tables.rs` builds Table 3.
    Labeled,
    /// Unlabeled, vertex-induced.
    Induced,
}

/// The hotpath suite: `(paper query, leg)`.
pub const SUITE: [(usize, Leg); 8] = [
    (1, Leg::Plain),
    (6, Leg::Plain),
    (8, Leg::Plain),
    (3, Leg::Plain),
    (3, Leg::Labeled),
    (3, Leg::Induced),
    (2, Leg::Plain),
    (4, Leg::Plain),
];

/// Vertices of the dense clique workload graph (PR 5's bitmap stressor).
pub const CLIQUE_N: usize = 256;

/// Edges of the clique workload graph: average degree 100, so every
/// vertex clears [`BITMAP_THRESHOLD`] and every intersection pits two
/// ~100-element hub lists against each other while survivors shrink
/// geometrically per level — the regime where one 4-word bitmap merge
/// replaces a ~200-step element merge.
pub const CLIQUE_M: usize = CLIQUE_N * 50;

/// 5-clique count on [`clique_graph`], pinned from the classic
/// (bitmap-off) engine and cross-checked against the bitmap paths by
/// `check bitmap` (which also keeps an analytic `C(32, 5)` leg on
/// `K_32` so the pin itself is anchored to closed-form ground truth).
pub const CLIQUE_COUNT: u64 = 766_243;

/// Hub threshold the bitmap bench legs attach to their graphs. Low enough
/// that the PA fixture's hub tail and every K64 vertex get bitmap rows;
/// the disabled-engine legs ignore the attached index entirely.
pub const BITMAP_THRESHOLD: usize = 16;

/// The seeded hub-skewed data graph every workload runs on.
pub fn graph() -> Graph {
    gen::preferential_attachment(420, 8, 7).degree_ordered()
}

/// The dense clique workload graph: a seeded dense Erdős–Rényi instance
/// where every vertex is a hub, so the 5-clique query (`q8`) runs its
/// whole intersection cascade in bitmap word waves when routing is
/// enabled (the level-2 sets merge hub rows, and sealed arena result
/// rows keep levels 3+ in the bitmap domain).
pub fn clique_graph() -> Graph {
    gen::erdos_renyi(CLIQUE_N, CLIQUE_M, 7).degree_ordered()
}

/// Steal-free full-hot-path engine config (see module docs).
pub fn config() -> EngineConfig {
    let mut cfg = EngineConfig::default().with_grid(GridConfig {
        num_blocks: 1,
        warps_per_block: 2,
        shared_mem_per_block: 100 * 1024,
    });
    cfg.local_steal = false;
    cfg.global_steal = false;
    cfg
}

/// One workload's pinned behaviour: `(query, leg, count,
/// total_instructions)`, and the fused tails it formed — `[streams,
/// survivors]` (`MatchOutcome::tail`), so a host rewrite that miscounts the
/// survivors but lands on the same count still drifts. Lane utilization is
/// derived and checked to 1e-9.
#[derive(Clone, Copy, Debug)]
pub struct Golden {
    pub query: usize,
    pub leg: Leg,
    pub count: u64,
    pub total_instructions: u64,
    pub lane_utilization: f64,
    pub tail: [u64; 2],
}

/// Recorded behaviour of the suite (deterministic for the steal-free
/// config). Regenerate with `--bin check -- hotpath --print` **only** when
/// an intentional cost-model or planner change lands, and say so in the
/// commit message. The comment above each row is the split of its
/// instruction total by charging site, printed by the same command.
pub const GOLDEN: [Golden; 8] = [
    // set_op=375498@0.957 claim=149994@0.961 count_pass=17301@0.635 steal=0 tail=11340/4421592 streamed=0/0 widths=[1, 1, 22, 32] slots=24/24
    Golden {
        query: 1,
        leg: Leg::Plain,
        count: 54844163,
        total_instructions: 542793,
        lane_utilization: 0.9440867645791495,
        tail: [11340, 4421592],
    },
    // set_op=326842@0.954 claim=420@0.031 count_pass=2435@0.217 steal=0 tail=0/0 streamed=5478923/6264698 widths=[1, 1, 32, 22] slots=24/24
    Golden {
        query: 6,
        leg: Leg::Plain,
        count: 559194,
        total_instructions: 329697,
        lane_utilization: 0.946726504177277,
        tail: [0, 0],
    },
    // set_op=22766@0.689 claim=420@0.031 count_pass=0@- steal=0 tail=0/0 streamed=48096/102327 widths=[1, 1, 15, 15] slots=32/32
    Golden {
        query: 8,
        leg: Leg::Plain,
        count: 769,
        total_instructions: 23186,
        lane_utilization: 0.6649314692982456,
        tail: [0, 0],
    },
    // set_op=257008@0.957 claim=420@0.031 count_pass=2415@0.219 steal=0 tail=0/0 streamed=4459110/5507284 widths=[1, 1, 32, 29] slots=32/32
    Golden {
        query: 3,
        leg: Leg::Plain,
        count: 1500436,
        total_instructions: 259843,
        lane_utilization: 0.9482453022040219,
        tail: [0, 0],
    },
    // set_op=5125@0.829 claim=420@0.031 count_pass=172@0.110 steal=0 tail=0/0 streamed=0/49069 widths=[1, 1, 32, 32] slots=36/40
    Golden {
        query: 3,
        leg: Leg::Labeled,
        count: 1023,
        total_instructions: 5717,
        lane_utilization: 0.730222972972973,
        tail: [0, 0],
    },
    // set_op=409233@0.955 claim=420@0.031 count_pass=0@- steal=0 tail=0/0 streamed=48096/8656759 widths=[1, 1, 17, 17] slots=55/56
    Golden {
        query: 3,
        leg: Leg::Induced,
        count: 330032,
        total_instructions: 409653,
        lane_utilization: 0.953908889229301,
        tail: [0, 0],
    },
    // set_op=668214@0.951 claim=420@0.031 count_pass=0@- steal=0 tail=0/0 streamed=9728231/9814647 widths=[1, 1, 15, 15] slots=32/32
    Golden {
        query: 2,
        leg: Leg::Plain,
        count: 1007981,
        total_instructions: 668634,
        lane_utilization: 0.9503110882173976,
        tail: [0, 0],
    },
    // set_op=248982@0.937 claim=80769@0.926 count_pass=17301@0.635 steal=0 tail=11340/208688 streamed=1243519/2578130 widths=[1, 1, 22, 32] slots=24/24
    Golden {
        query: 4,
        leg: Leg::Plain,
        count: 9448934,
        total_instructions: 347052,
        lane_utilization: 0.9128084419469084,
        tail: [11340, 208688],
    },
];

/// The query pattern of a [`Leg::Plain`] suite entry.
pub fn query(qi: usize) -> Pattern {
    catalog::paper_query(qi)
}

/// One suite entry's fixture, query and engine.
pub fn entry(qi: usize, leg: Leg) -> (Graph, Pattern, Engine) {
    let (g, q) = match leg {
        Leg::Labeled => (
            gen::assign_random_labels(&graph(), tables::NUM_LABELS, tables::LABEL_SEED),
            query(qi).with_random_labels(tables::NUM_LABELS, qi as u64),
        ),
        Leg::Plain | Leg::Induced => (graph(), query(qi)),
    };
    (g, q, Engine::new(config().induced(leg == Leg::Induced)))
}

/// Checks one outcome against its golden row; returns an error string
/// describing the first drift found.
pub fn check(qi: usize, leg: Leg, out: &MatchOutcome) -> Result<(), String> {
    let golden = GOLDEN
        .iter()
        .find(|g| g.query == qi && g.leg == leg)
        .ok_or_else(|| format!("q{qi} {leg:?} not in GOLDEN"))?;
    if out.count != golden.count {
        return Err(format!(
            "q{qi} count drifted: got {}, golden {}",
            out.count, golden.count
        ));
    }
    if out.total_instructions() != golden.total_instructions {
        return Err(format!(
            "q{qi} total_instructions drifted: got {}, golden {}",
            out.total_instructions(),
            golden.total_instructions
        ));
    }
    let util = out.metrics.lane_utilization();
    if (util - golden.lane_utilization).abs() > 1e-9 {
        return Err(format!(
            "q{qi} lane_utilization drifted: got {util}, golden {}",
            golden.lane_utilization
        ));
    }
    if out.tail != golden.tail {
        return Err(format!(
            "q{qi} tail [streams, survivors] drifted: got {:?}, golden {:?}",
            out.tail, golden.tail
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmatch_baselines::{cuts, gsi};
    use stmatch_gpusim::GridMetrics;

    fn one_warp() -> GridConfig {
        GridConfig {
            num_blocks: 1,
            warps_per_block: 1,
            shared_mem_per_block: 100 * 1024,
        }
    }

    /// `[simt_instructions, active_lane_slots, issued_lane_slots,
    /// simulated_cycles]`.
    fn totals(metrics: &GridMetrics, simulated_cycles: u64) -> [u64; 4] {
        let t = metrics.total();
        let (active, issued) = (t.active_lane_slots, t.issued_lane_slots);
        [t.simt_instructions, active, issued, simulated_cycles]
    }

    /// The comparators' simulated totals on the hotpath fixture. One warp
    /// makes them schedule-independent (`simulated_cycles` is a per-launch
    /// max), so a change to how `cuts_like` or `gsi_like` is charged moves
    /// a pinned number instead of a Table II(a) / III ratio nobody pins.
    #[test]
    fn the_comparators_are_charged_as_pinned() {
        const CUTS: [(usize, [u64; 4]); 3] = [
            (1, [11568102, 147547356, 362090240, 11584486]),
            (3, [2339722, 37566732, 52459072, 2356106]),
            (6, [3197459, 50278866, 71910144, 3213843]),
        ];
        const GSI: [(usize, [u64; 4]); 2] = [
            (1, [52821, 632973, 1548416, 69205]),
            (3, [21424, 227898, 493600, 37808]),
        ];
        for (qi, pinned) in CUTS {
            let (g, q, _) = entry(qi, Leg::Plain);
            let cfg = cuts::CutsConfig {
                grid: one_warp(),
                ..cuts::CutsConfig::default()
            };
            let out = cuts::run(&g, &q, cfg).unwrap();
            assert_eq!(
                totals(&out.metrics, out.simulated_cycles),
                pinned,
                "cuts q{qi}"
            );
        }
        for (qi, pinned) in GSI {
            let (g, q, _) = entry(qi, Leg::Labeled);
            let cfg = gsi::GsiConfig {
                grid: one_warp(),
                ..gsi::GsiConfig::default()
            };
            let out = gsi::run(&g, &q, cfg).unwrap();
            assert_eq!(
                totals(&out.metrics, out.simulated_cycles),
                pinned,
                "gsi q{qi}"
            );
        }
    }
}
