//! Batch-dynamic incremental matching (DESIGN.md §4k).
//!
//! Instead of recounting a pattern against the whole graph after every
//! update batch, the delta engine enumerates only the embeddings that the
//! batch created or destroyed. The decomposition:
//!
//! * `removed` = embeddings of the **pre**-batch graph containing at least
//!   one net-deleted edge;
//! * `added`   = embeddings of the **post**-batch graph containing at least
//!   one net-inserted edge.
//!
//! Each side is counted exactly once via two disciplines layered on the
//! ordinary warp kernel, and costs one launch per pattern edge — the update
//! set *is* the launch's level-0 domain, following the batch-dynamic GPU
//! matchers (PAPERS.md):
//!
//! 1. **Anchoring.** For every unordered pattern edge `{p, q}` we compile
//!    an anchored plan ([`MatchPlan::compile_anchored`]) whose matching
//!    order starts `[p, q, ...]`. A launch of that plan over one batch side
//!    has two level-0 indices per update edge `{a, b}` — its endpoints —
//!    and pins level 1 to the other endpoint, so it counts exactly the
//!    embeddings mapping `{p, q}` onto a batch edge. Injectivity means at
//!    most one pattern edge can land on a given data edge, so summing over
//!    the pattern's edges counts each embedding that *uses* `{a, b}`
//!    exactly once. Warps claim the indices as chunks off the ordinary
//!    dispenser and steal from each other as in any launch.
//! 2. **Staged views.** Within a batch, an embedding may contain several
//!    update edges. Order the net deletes `d_0..d_{m-1}`; stage `i`
//!    enumerates `d_i` against `pre ∖ {d_0..d_{i-1}}`, so an embedding
//!    containing several deleted edges is counted only at its
//!    lowest-indexed one. Inserts run symmetrically against
//!    `post ∖ {e_{i+1}..}`, counting at the highest-indexed insert. The
//!    kernel moves onto a stage's view when it claims one of the stage's
//!    level-0 indices (stolen and requeued work carries the index along).
//!    A side's views share one table of versioned rows
//!    ([`Graph::staged_without_edges`]): two materialized rows per update
//!    edge, never a copy of the graph or of its patch.
//!
//! Anchored plans are compiled with symmetry breaking off (a pinned edge
//! is incompatible with a global partial order on pattern vertices), so
//! stage counts are *embedding* counts; when the engine is configured for
//! canonical counting the totals divide by the automorphism group order —
//! the group acts freely on embeddings and preserves the set of data edges
//! used, so both deltas are exactly divisible.
//!
//! Vertex-induced mode is rejected outright: deleting an edge can *create*
//! induced embeddings that contain no update edge at all, which no
//! anchored enumeration can see.

use crate::config::EngineConfig;
use crate::engine::{Engine, Launch, Level0};
use crate::pool::WarmSlot;
use stmatch_gpusim::{GridMetrics, LaunchError};
use stmatch_graph::{AppliedBatch, Graph, VertexId};
use stmatch_pattern::{symmetry, MatchPlan, Pattern, PlanOptions};

/// Net effect of one update batch on a pattern's match count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchDelta {
    /// Matches present after the batch but not before.
    pub added: u64,
    /// Matches present before the batch but not after.
    pub removed: u64,
}

impl MatchDelta {
    /// Signed net change, for folding into a running total.
    pub fn net(&self) -> i64 {
        self.added as i64 - self.removed as i64
    }
}

/// Anchored plans for one pattern: one per unordered pattern edge, plus
/// the bookkeeping needed to convert embedding counts back to the
/// engine's counting convention. Compile once ([`Engine::compile_delta`]),
/// reuse across every batch.
pub struct DeltaPlans {
    k: usize,
    /// `|Aut(P)|`: divisor when the engine counts canonical matches.
    aut: u64,
    /// `(p, q, plan)` with the plan's order starting `[p, q, ...]`.
    anchored: Vec<(usize, usize, MatchPlan)>,
}

impl DeltaPlans {
    /// Pattern size the plans were compiled for.
    pub fn num_levels(&self) -> usize {
        self.k
    }

    /// Number of anchored plans (= the pattern's edge count).
    pub fn num_plans(&self) -> usize {
        self.anchored.len()
    }

    /// The anchored plans, one per pattern edge.
    pub fn plans(&self) -> impl Iterator<Item = &MatchPlan> {
        self.anchored.iter().map(|(_, _, plan)| plan)
    }
}

/// One side of a batch, staged: stage `s` matches update edge `edges[s]`
/// on `views[s]`.
struct StagedSide {
    edges: Vec<(VertexId, VertexId)>,
    views: Vec<Graph>,
}

impl StagedSide {
    /// Stages `edges` in the given order over `graph`: stage `s` sees
    /// `graph` without `edges[..s]`.
    fn new(graph: &Graph, edges: Vec<(VertexId, VertexId)>) -> StagedSide {
        let views = graph.staged_without_edges(&edges);
        StagedSide { edges, views }
    }
}

/// One update batch staged for anchored enumeration: both sides' stage
/// views plus the right-sized engine and warm slot their launches run on.
/// Built once per batch; every watcher's plans run on the same one.
pub(crate) struct StagedBatch {
    sub: Engine,
    warm: WarmSlot,
    /// Net deletes in batch order over `pre`: an embedding is counted at
    /// its lowest-indexed deleted edge.
    removed: StagedSide,
    /// Net inserts in *reverse* batch order over `post`, so that insert `i`
    /// sees `post ∖ {e_{i+1}..}`: an embedding is counted at its
    /// highest-indexed inserted edge.
    added: StagedSide,
}

impl StagedBatch {
    /// Stages `batch` between `pre` (the graph before it) and `post` (the
    /// graph after). `None` when the batch netted out: nothing to launch.
    ///
    /// Requires edge-induced matching (see the module docs for why
    /// vertex-induced deltas cannot be anchored). `engine`'s fault plan, if
    /// any, applies to every launch.
    pub(crate) fn new(
        engine: &Engine,
        pre: &Graph,
        post: &Graph,
        batch: &AppliedBatch,
    ) -> Result<Option<StagedBatch>, LaunchError> {
        let cfg = engine.config();
        assert!(
            !cfg.induced,
            "incremental matching is edge-induced only: deleting an edge can \
             create vertex-induced embeddings containing no update edge, which \
             anchored enumeration cannot see"
        );
        if batch.is_empty() {
            return Ok(None);
        }
        // Right-size the launches: a level-0 domain of 2 × batch indices
        // has no use for a service-sized grid. Stage views carry no hub
        // index, so the launches interpret the anchored plans' own streams
        // on the element paths.
        let mut dcfg: EngineConfig = *cfg;
        dcfg.grid = cfg.delta.grid;
        let mut sub = Engine::new(dcfg);
        if let Some(plan) = engine.fault_plan() {
            sub = sub.with_fault_plan(plan.clone());
        }
        Ok(Some(StagedBatch {
            sub,
            // One warm slot amortizes warp-thread spawn and arena
            // allocation across every launch of the batch.
            warm: WarmSlot::new(dcfg.grid)?,
            removed: StagedSide::new(pre, batch.deletes.clone()),
            added: StagedSide::new(post, batch.inserts.iter().rev().copied().collect()),
        }))
    }

    /// Counts the embeddings of `plans`' pattern the batch destroyed and
    /// created: one launch per (non-empty side × anchored plan). Also
    /// returns the launches' merged metrics.
    pub(crate) fn run(&self, plans: &DeltaPlans) -> Result<(MatchDelta, GridMetrics), LaunchError> {
        let mut metrics = GridMetrics::default();
        let mut count = |side: &StagedSide| -> Result<u64, LaunchError> {
            let Some(first) = side.views.first() else {
                return Ok(0);
            };
            let mut total = 0u64;
            for (_, _, plan) in &plans.anchored {
                let out = self.sub.launch(&Launch {
                    warm: Some(&self.warm),
                    domain: Level0::Anchored {
                        edges: &side.edges,
                        views: &side.views,
                    },
                    ..Launch::new(first, plan)
                })?;
                total += out.count;
                metrics.merge(&out.metrics);
            }
            Ok(total)
        };
        let mut removed = count(&self.removed)?;
        let mut added = count(&self.added)?;
        if self.sub.config().symmetry_breaking {
            // Not a debug_assert: a release build would otherwise truncate a
            // wrong embedding total into a plausible canonical delta.
            assert!(
                added.is_multiple_of(plans.aut) && removed.is_multiple_of(plans.aut),
                "delta not divisible by |Aut(P)|: anchored embedding totals \
                 added {added} / removed {removed} must both divide |Aut| = {} \
                 (a launch lost or double-counted embeddings)\n  reproduce: \
                 Engine::run_delta_plans_metered with deletes {:?}, inserts \
                 (reversed) {:?} on a {}-level pattern",
                plans.aut,
                self.removed.edges,
                self.added.edges,
                plans.k,
            );
            added /= plans.aut;
            removed /= plans.aut;
        }
        Ok((MatchDelta { added, removed }, metrics))
    }
}

impl Engine {
    /// Compiles the anchored plan set for incremental matching of
    /// `pattern` under this engine's options (vertex-induced mode is
    /// rejected at [`Engine::run_delta_plans_metered`] time).
    pub fn compile_delta(&self, pattern: &Pattern) -> DeltaPlans {
        let opts = PlanOptions {
            induced: false,
            code_motion: self.config().code_motion,
            // compile_anchored forces this off; spelled out for clarity.
            symmetry_breaking: false,
        };
        let mut anchored = Vec::new();
        for p in 0..pattern.size() {
            for q in p + 1..pattern.size() {
                if pattern.has_edge(p, q) {
                    anchored.push((p, q, MatchPlan::compile_anchored(pattern, (p, q), opts)));
                }
            }
        }
        DeltaPlans {
            k: pattern.size(),
            aut: symmetry::automorphism_count(pattern) as u64,
            anchored,
        }
    }

    /// [`Engine::run_delta_plans_metered`] with one-shot plan compilation,
    /// returning only the delta.
    pub fn run_delta(
        &self,
        pre: &Graph,
        post: &Graph,
        batch: &AppliedBatch,
        pattern: &Pattern,
    ) -> Result<MatchDelta, LaunchError> {
        let plans = self.compile_delta(pattern);
        Ok(self.run_delta_plans_metered(pre, post, batch, &plans)?.0)
    }

    /// Counts the embeddings `batch` destroyed (enumerated against `pre`,
    /// the graph before the batch) and created (against `post`, the graph
    /// after), in O(batch × affected neighborhoods) work and
    /// `2 × plans.num_plans()` launches — the graph size only enters
    /// through the degrees of the touched vertices.
    ///
    /// Also returns the total simulated SIMT instructions the anchored
    /// launches executed — the work measure the `smoke:delta` bench gate
    /// compares against full recomputation.
    ///
    /// Requires edge-induced matching (see the module docs for why
    /// vertex-induced deltas cannot be anchored); launches run on
    /// [`EngineConfig::delta`]`.grid`.
    pub fn run_delta_plans_metered(
        &self,
        pre: &Graph,
        post: &Graph,
        batch: &AppliedBatch,
        plans: &DeltaPlans,
    ) -> Result<(MatchDelta, u64), LaunchError> {
        let Some(staged) = StagedBatch::new(self, pre, post, batch)? else {
            return Ok((MatchDelta::default(), 0));
        };
        let (delta, metrics) = staged.run(plans)?;
        Ok((delta, metrics.total().simt_instructions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::collections::BTreeSet;
    use stmatch_graph::{gen, DeltaOverlay, EdgeOp};
    use stmatch_pattern::catalog;
    use stmatch_testkit::rng::SplitMix64;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default())
    }

    /// Oracle: applying `ops` to a PA graph, the delta must reconcile the
    /// full recomputed counts before and after, and when the batch is
    /// delete-only / insert-only the opposite side must be zero.
    fn check_against_recompute(base: Graph, ops: &[EdgeOp], pattern: &Pattern) {
        let e = engine();
        let before = e.run(&base, pattern).expect("pre count").count;
        let (pre, post, batch) = apply(base, ops);
        let after = e.run(&post, pattern).expect("post count").count;
        let delta = e.run_delta(&pre, &post, &batch, pattern).expect("delta");
        assert_eq!(
            before as i64 + delta.net(),
            after as i64,
            "delta {delta:?} does not reconcile {before} -> {after}"
        );
        if batch.inserts.is_empty() {
            assert_eq!(delta.added, 0, "delete-only batch added matches");
        }
        if batch.deletes.is_empty() {
            assert_eq!(delta.removed, 0, "insert-only batch removed matches");
        }
    }

    fn fixture() -> Graph {
        gen::preferential_attachment(32, 3, 7).degree_ordered()
    }

    #[test]
    fn single_insert_and_delete_reconcile_for_triangles() {
        let g = fixture();
        // Find one absent and one present edge deterministically.
        let present = (g.neighbors(0)[0], 0);
        let absent = (0..g.num_vertices() as u32)
            .flat_map(|u| (u + 1..g.num_vertices() as u32).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v))
            .expect("graph is not complete");
        check_against_recompute(
            g.clone(),
            &[EdgeOp::insert(absent.0, absent.1)],
            &catalog::triangle(),
        );
        check_against_recompute(
            g,
            &[EdgeOp::delete(present.0, present.1)],
            &catalog::triangle(),
        );
    }

    #[test]
    fn mixed_batch_reconciles_across_query_shapes() {
        let g = fixture();
        let n = g.num_vertices() as u32;
        let mut ops = Vec::new();
        // A deterministic mixed batch: toggle a band of vertex pairs.
        for u in 0..6u32 {
            for v in (u + 1..n).step_by(5) {
                if g.has_edge(u, v) {
                    ops.push(EdgeOp::delete(u, v));
                } else {
                    ops.push(EdgeOp::insert(u, v));
                }
            }
        }
        for q in [
            catalog::triangle(),
            catalog::path(3),
            catalog::clique(4),
            catalog::paper_query(5),
        ] {
            check_against_recompute(g.clone(), &ops, &q);
        }
    }

    #[test]
    fn labeled_patterns_reconcile() {
        let g = gen::assign_random_labels(&fixture(), 4, 11);
        let ops = [
            EdgeOp::insert(0, 31),
            EdgeOp::delete(g.neighbors(2)[0], 2),
            EdgeOp::insert(1, 30),
        ];
        let ops: Vec<EdgeOp> = ops
            .into_iter()
            .filter(|op| g.has_edge(op.u, op.v) != op.insert)
            .collect();
        for q in [
            catalog::triangle().with_random_labels(4, 3),
            catalog::path(4).with_random_labels(4, 9),
        ] {
            check_against_recompute(g.clone(), &ops, &q);
        }
    }

    #[test]
    fn edge_pattern_delta_is_the_batch_size() {
        let g = fixture();
        let absent = (0..g.num_vertices() as u32)
            .flat_map(|u| (u + 1..g.num_vertices() as u32).map(move |v| (u, v)))
            .filter(|&(u, v)| !g.has_edge(u, v))
            .take(3)
            .collect::<Vec<_>>();
        let ops: Vec<EdgeOp> = absent.iter().map(|&(u, v)| EdgeOp::insert(u, v)).collect();
        check_against_recompute(g, &ops, &catalog::path(2));
    }

    #[test]
    fn insert_then_delete_same_edge_nets_to_zero() {
        let g = fixture();
        let absent = (0..g.num_vertices() as u32)
            .flat_map(|u| (u + 1..g.num_vertices() as u32).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v))
            .expect("graph is not complete");
        let e = engine();
        let mut overlay = DeltaOverlay::new(g);
        let pre = overlay.snapshot();
        let batch = overlay.apply(&[
            EdgeOp::insert(absent.0, absent.1),
            EdgeOp::delete(absent.0, absent.1),
        ]);
        assert!(batch.is_empty(), "in-batch cancellation nets to nothing");
        let post = overlay.snapshot();
        let delta = e
            .run_delta(&pre, &post, &batch, &catalog::triangle())
            .expect("delta");
        assert_eq!(delta, MatchDelta::default());
    }

    /// A seeded batch of `n` distinct edge toggles, alternating between a
    /// present edge (a delete) and a random pair (almost always an insert).
    fn toggle_batch(g: &Graph, n: usize, seed: u64) -> Vec<EdgeOp> {
        let mut rng = SplitMix64::new(seed);
        let nv = g.num_vertices() as u64;
        let mut seen = BTreeSet::new();
        let mut ops = Vec::new();
        while ops.len() < n {
            let u = (rng.next_u64() % nv) as u32;
            let v = if ops.len() % 2 == 0 && g.degree(u) > 0 {
                g.neighbors(u)[(rng.next_u64() % g.degree(u) as u64) as usize]
            } else {
                (rng.next_u64() % nv) as u32
            };
            if u == v || !seen.insert((u.min(v), u.max(v))) {
                continue;
            }
            ops.push(if g.has_edge(u, v) {
                EdgeOp::delete(u, v)
            } else {
                EdgeOp::insert(u, v)
            });
        }
        ops
    }

    /// `(pre, post, batch)` of `ops` applied to `base`.
    fn apply(base: Graph, ops: &[EdgeOp]) -> (Graph, Graph, AppliedBatch) {
        let mut overlay = DeltaOverlay::new(base);
        let pre = overlay.snapshot();
        let batch = overlay.apply(ops);
        (pre, overlay.snapshot(), batch)
    }

    fn wide_fixture() -> Graph {
        gen::preferential_attachment(256, 4, 9).degree_ordered()
    }

    /// The batch is the level-0 domain, not a launch loop: the simulated
    /// work of three fixed cases was recorded from the per-(edge × plan)
    /// launches this route replaced and matched to the instruction. The
    /// totals follow the kernel's cost model (re-recorded, from this test's
    /// own failure output, when DESIGN.md §4c's last-level rule dropped the
    /// count passes over lists computed at the last level, and the two
    /// four-vertex totals again when their anchored plans' lifted last levels
    /// became fused tails, all three when a counting last level stopped
    /// issuing ballots, and all three again when an intersection was charged
    /// its streamed side and a claim stopped re-testing what its producing
    /// stream had tested); the deltas are the invariant.
    #[test]
    fn instruction_totals_match_the_per_edge_launches_they_replaced() {
        let small = gen::preferential_attachment(48, 4, 3).degree_ordered();
        let labeled = gen::assign_random_labels(&gen::rmat(7, 4, 11).degree_ordered(), 3, 2022);
        let cases = [
            (small, 16, 1, catalog::triangle(), (8, 11), 588),
            (wide_fixture(), 128, 2, catalog::diamond(), (124, 80), 10691),
            (
                labeled,
                32,
                3,
                catalog::tailed_triangle().with_random_labels(3, 5),
                (16, 205),
                799,
            ),
        ];
        for (g, n, seed, q, (added, removed), instructions) in cases {
            let e = engine();
            let (pre, post, batch) = apply(g.clone(), &toggle_batch(&g, n, seed));
            let got = e
                .run_delta_plans_metered(&pre, &post, &batch, &e.compile_delta(&q))
                .expect("delta");
            assert_eq!(
                got,
                (MatchDelta { added, removed }, instructions),
                "{} on a {n}-op batch",
                q.name()
            );
        }
    }

    #[test]
    fn a_batch_costs_two_launches_per_pattern_edge_at_any_width() {
        let g = wide_fixture();
        let e = engine();
        for q in [catalog::triangle(), catalog::diamond()] {
            let plans = e.compile_delta(&q);
            for n in [16, 128, 256] {
                let (pre, post, batch) = apply(g.clone(), &toggle_batch(&g, n, n as u64));
                assert!(!batch.inserts.is_empty() && !batch.deletes.is_empty());
                let staged = StagedBatch::new(&e, &pre, &post, &batch)
                    .expect("staging")
                    .expect("non-empty batch");
                let (_, metrics) = staged.run(&plans).expect("delta");
                assert_eq!(
                    metrics.kernel_launches,
                    2 * plans.num_plans() as u64,
                    "{} at batch {n}",
                    q.name()
                );
            }
        }
    }

    /// One hub in 16 deletes and 16 inserts: its vertex alone names 16
    /// stages per side, so work requeued below level 0 finds its stage's
    /// view and pin only through the level-0 index it carries. Every warp
    /// of a 1×4 delta grid dies at its third claim — with a level-1 range
    /// open — and the salvage pass must still land the exact delta.
    #[test]
    fn requeued_work_restores_its_stage() {
        let g = wide_fixture();
        let hub = 0u32;
        let mut ops: Vec<EdgeOp> = g.neighbors(hub)[..16]
            .iter()
            .map(|&v| EdgeOp::delete(hub, v))
            .collect();
        ops.extend(
            (1..256u32)
                .filter(|&v| !g.has_edge(hub, v))
                .take(16)
                .map(|v| EdgeOp::insert(hub, v)),
        );
        let (pre, post, batch) = apply(g, &ops);
        let q = catalog::triangle();
        let want = engine().run_delta(&pre, &post, &batch, &q).expect("delta");
        assert!(want.added > 0 && want.removed > 0, "fixture is non-trivial");

        let mut cfg = EngineConfig::default();
        cfg.delta.grid.warps_per_block = 4;
        let deaths = (0..4).fold(FaultPlan::new(), |plan, w| plan.panic_at(w, 3));
        let e = Engine::new(cfg).with_fault_plan(deaths);
        let staged = StagedBatch::new(&e, &pre, &post, &batch)
            .expect("staging")
            .expect("non-empty batch");
        let (got, metrics) = staged.run(&e.compile_delta(&q)).expect("delta");
        assert_eq!(got, want);
        assert!(
            metrics.total().requeue_claims > 0,
            "no dead warp's work was requeued: the fault plan never fired"
        );
    }

    #[test]
    #[should_panic(expected = "delta not divisible by |Aut(P)|")]
    fn indivisible_totals_are_rejected_in_every_build() {
        let g = fixture();
        let (pre, post, batch) = apply(g.clone(), &toggle_batch(&g, 8, 5));
        let e = engine();
        let mut plans = e.compile_delta(&catalog::triangle());
        // 7 divides neither side's embedding total.
        plans.aut = 7;
        let _ = e.run_delta_plans_metered(&pre, &post, &batch, &plans);
    }

    #[test]
    #[should_panic(expected = "edge-induced only")]
    fn induced_mode_is_rejected() {
        let e = Engine::new(EngineConfig::default().induced(true));
        let g = fixture();
        let mut overlay = DeltaOverlay::new(g);
        let pre = overlay.snapshot();
        let batch = overlay.apply(&[EdgeOp::delete(overlay.base().neighbors(0)[0], 0)]);
        let post = overlay.snapshot();
        let _ = e.run_delta(&pre, &post, &batch, &catalog::triangle());
    }

    #[test]
    fn a_default_config_engine_serves_deltas() {
        // Calling `run_delta` is the request: `engine()` is
        // `EngineConfig::default()`, and no knob arms it.
        check_against_recompute(fixture(), &[EdgeOp::insert(0, 31)], &catalog::triangle());
    }
}
