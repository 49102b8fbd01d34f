//! The host-side shortcuts of the kernel — the last-level closed form with
//! its rank row, the marker rows and the symmetric probe they
//! feed — are cross-checked element by element only under `debug_assert`.
//! This suite holds their *counts* with hard asserts, so it means the same
//! thing under `cargo test --release` (ci.sh runs it there too): for every
//! paper query, on a hub-skewed and on a uniform fixture, with unrolling off
//! and at unroll 2, 8 and 32 (per-level claim widths from 2 up to the whole
//! warp), steal-free on two warps and stealing on a 1×4 grid (work items
//! installed mid-list, in whatever order the race hands them out), the count
//! equals the independent oracle's *and* the number of embeddings the
//! `enumerate` route emits — which probes every last-level candidate
//! individually and never takes the closed form.
//!
//! The *simulated* charge is a function of the plan, the list lengths, the
//! rows the lists carry and whether the run counts or must touch every
//! last-level element (DESIGN.md §4c, "Last-level counting" and "Claims").
//! Where the last level computes its own list, or its parent level is
//! stealable, nothing is fused: the two counting legs (closed form,
//! per-element probe) issue the same claims and count passes on a steal-free
//! run — but for the claims of a lifted deep level, which a residual label
//! cannot key — and the same set operations wherever their lists carry the
//! same rows, and enumeration issues the counting run's very lanes too — it
//! only adds the ballots that compact the last level's final stream, which a
//! counting run does not issue. Where the last level's list is lifted and its
//! parent level is deep, a counting run fuses the two levels into a tail and
//! a run that must touch every element cannot: all of them compute the same
//! sets over the same lanes, and the two per-element legs agree with each
//! other on the same terms. Unrolling fills the lanes at the last level as it
//! does everywhere else.

use stmatch_baselines::reference::{self, RefOptions};
use stmatch_core::{Engine, EngineConfig, MatchOutcome};
use stmatch_gpusim::{GridConfig, Site, WarpMetrics};
use stmatch_graph::datasets::Dataset;
use stmatch_graph::{gen, Graph};
use stmatch_pattern::catalog;

fn fixtures() -> [Graph; 2] {
    [
        gen::preferential_attachment(36, 3, 3).degree_ordered(),
        gen::erdos_renyi(30, 75, 5).degree_ordered(),
    ]
}

/// One block of two warps, no stealing: every simulator total is exact.
fn steal_free() -> EngineConfig {
    let mut cfg = EngineConfig::default().with_grid(GridConfig {
        num_blocks: 1,
        warps_per_block: 2,
        shared_mem_per_block: 100 * 1024,
    });
    cfg.local_steal = false;
    cfg.global_steal = false;
    cfg
}

/// What a run cost on the simulated machine.
fn charge(out: &MatchOutcome) -> (u64, u64, u64) {
    let t = out.metrics.total();
    (
        t.simt_instructions,
        t.active_lane_slots,
        t.issued_lane_slots,
    )
}

#[test]
fn every_route_agrees_with_the_oracle_and_with_enumeration() {
    for g in &fixtures() {
        for q in 1..=24 {
            let pattern = catalog::paper_query(q);
            let want = reference::count(g, &pattern, RefOptions::default());
            for unroll in [1, 2, 8, 32] {
                for stealing in [false, true] {
                    let mut cfg =
                        EngineConfig::default()
                            .with_unroll(unroll)
                            .with_grid(GridConfig {
                                num_blocks: 1,
                                warps_per_block: if stealing { 4 } else { 2 },
                                shared_mem_per_block: 100 * 1024,
                            });
                    cfg.local_steal = stealing;
                    cfg.global_steal = stealing;
                    let engine = Engine::new(cfg);
                    let plan = engine.compile(&pattern);
                    let leg = format!("q{q} on {} unroll {unroll} stealing {stealing}", g.name());
                    let counted = engine.run_plan(g, &plan).expect("count run").count;
                    assert_eq!(counted, want, "{leg}: closed form vs oracle");
                    let listed = engine.enumerate_plan(g, &plan).expect("enumeration");
                    assert_eq!(
                        listed.embeddings.len() as u64,
                        want,
                        "{leg}: per-element route vs oracle"
                    );
                }
            }
        }
    }
}

#[test]
fn counting_drops_only_the_last_levels_ballots_where_no_tail_forms() {
    let cfg = steal_free();
    let engine = Engine::new(cfg);
    let set_ops = |out: &MatchOutcome| out.metrics.total().set_op_instructions;
    let lanes_and_passes = |out: &MatchOutcome| {
        let t = out.metrics.total();
        (
            t.active_lane_slots,
            t.issued_lane_slots,
            t.claim_instructions,
            t.count_pass_instructions,
        )
    };
    for g in &fixtures() {
        let n = g.num_vertices();
        // One label everywhere filters nothing, so both labelings below
        // compute the lists of the same plan; label 64 is beyond what a
        // label mask can hold, which leaves every level a residual check
        // and the last level on the per-element route.
        let [masked_g, residual_g] = [5, 64].map(|label| g.relabeled(vec![label; n]));
        for q in 1..=24 {
            let pattern = catalog::paper_query(q);
            let leg = format!("q{q} on {}", g.name());
            let plan = engine.compile(&pattern);
            let counted = engine.run_plan(g, &plan).expect("count run");
            let listed = engine
                .enumerate_plan(g, &plan)
                .expect("enumeration")
                .outcome;
            assert_eq!(counted.count, listed.count, "{leg}");
            let relabeled = |label| pattern.clone().with_labels(&vec![label; pattern.size()]);
            let [masked, residual] = [(&masked_g, 5), (&residual_g, 64)].map(|(g, label)| {
                let out = engine.run(g, &relabeled(label)).expect("labeled run");
                assert_eq!(out.count, counted.count, "{leg} labeled {label}");
                out
            });
            // A tail forms where the last level's list is lifted and its
            // parent level is deep — and only on a run free to count.
            let k = plan.num_levels();
            let lifted = plan.bytecode().candidate(k - 1).1 != k - 1;
            let tail = lifted && k >= cfg.effective_stop(k) + 2;
            for out in [&counted, &masked] {
                assert!(tail || out.tail == [0, 0], "{leg}: {:?}", out.tail);
                assert!(!tail || out.count == 0 || out.tail[1] > 0, "{leg}");
            }
            assert_eq!((listed.tail, residual.tail), ([0, 0], [0, 0]), "{leg}");
            // Label 5 masks every materialized list, so none is a graph row
            // verbatim and no intersection has a marker row to stream its
            // shorter operand against; label 64 is past what a mask holds, so
            // its lists are verbatim and keep their rows. The set operations
            // of a label-5 run and the residual run therefore agree exactly
            // where the residual run streamed no operand. Their claims and
            // count passes agree too, but for the claims of a lifted deep
            // level: a run free of residual labels keys them (one key wave
            // per batch, a count pass), the residual label cannot and leaves
            // each claim its own validity wave.
            let labeled = engine.compile(&relabeled(5));
            let stop = cfg.effective_stop(k);
            let keyed = (stop..k - 1).any(|lv| labeled.bytecode().candidate(lv).1 != lv);
            let r = residual.metrics.total();
            let same_rows = r.operand_lanes == 0;
            let agrees = |t: WarpMetrics| {
                assert_eq!(t.operand_lanes, 0, "{leg}");
                assert!(
                    !same_rows || t.at(Site::SetOp) == r.at(Site::SetOp),
                    "{leg}"
                );
                if keyed {
                    assert!(t.claim_instructions < r.claim_instructions, "{leg}");
                    assert!(
                        t.count_pass_instructions > r.count_pass_instructions,
                        "{leg}"
                    );
                } else {
                    let passes = |t: &WarpMetrics| (t.at(Site::Claim), t.at(Site::CountPass));
                    assert_eq!(
                        passes(&t),
                        passes(&r),
                        "{leg}: closed form vs residual probe"
                    );
                }
            };
            if !tail {
                agrees(masked.metrics.total());
                // Enumeration issues the counting run's lanes, claims and
                // count passes; what it adds issues no lane at the
                // set-operation site, so it is ballots — one per wave of the
                // last level's final stream: none where the last level
                // computes no set, at least one per 32 matches where it does
                // (every match is a lane).
                let (a, b) = (lanes_and_passes(&counted), lanes_and_passes(&listed));
                assert_eq!(a, b, "{leg}: lanes");
                let extra = charge(&listed).0 - charge(&counted).0;
                assert_eq!(extra, set_ops(&listed) - set_ops(&counted), "{leg}");
                if lifted {
                    assert_eq!(extra, 0, "{leg}: no last-level stream");
                } else {
                    assert!(extra >= counted.count.div_ceil(32), "{leg}: {extra}");
                }
                continue;
            }
            // Whatever the route, a plan computes the same sets over the same
            // lanes; where the tail level's list is computed there and read
            // beyond it, an enumeration (which claims there) adds its claims'
            // validity ballots, which a tail tests in its own stream. And the
            // two routes that touch every element — a residual probe, an
            // enumeration — charge alike.
            let [c, e] = [&counted, &listed].map(|o| o.metrics.total().at(Site::SetOp));
            assert_eq!(c[1..], e[1..], "{leg}: set-operation lanes");
            let bc = plan.bytecode();
            if bc.candidate(k - 2).1 == k - 2 && bc.claim_only() >> (k - 2) & 1 == 0 {
                assert!(e[0] >= c[0], "{leg}: set operations");
            } else {
                assert_eq!(e[0], c[0], "{leg}: set operations");
            }
            let listed = engine
                .enumerate_plan(&masked_g, &labeled)
                .expect("labeled enumeration");
            agrees(listed.outcome.metrics.total());
        }
    }
}

#[test]
fn unrolling_pays_at_the_last_level() {
    // q1 counts a lifted list: eight slots share the waves one slot leaves
    // mostly empty (the golden PA fixture of `tests/golden_counts.rs`).
    let g = gen::preferential_attachment(48, 4, 3).degree_ordered();
    let count_pass = |unroll| {
        let out = Engine::new(steal_free().with_unroll(unroll))
            .run(&g, &catalog::paper_query(1))
            .expect("q1");
        assert_eq!(out.count, 119_531);
        out.metrics.total().count_pass_instructions
    };
    assert!(count_pass(8) < count_pass(1));
    // Fig. 13 as code: lane utilization of the figure's labeled size-6
    // queries on its dataset does not fall as the unroll size grows (labels
    // as `repro fig13` draws them: two labels, the tables' seed).
    let enron = Dataset::Enron.load_labeled(2, 2022);
    for q in [11, 14] {
        let pattern = catalog::paper_query(q).with_random_labels(2, q as u64);
        let utilization: Vec<f64> = [1, 2, 4, 8]
            .into_iter()
            .map(|unroll| {
                let engine = Engine::new(steal_free().with_unroll(unroll));
                let out = engine.run(&enron, &pattern).expect("fig13 cell");
                out.metrics.lane_utilization()
            })
            .collect();
        assert!(
            utilization.windows(2).all(|w| w[0] <= w[1]),
            "q{q}: {utilization:?}"
        );
    }
}
