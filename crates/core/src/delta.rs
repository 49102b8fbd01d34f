//! Batch-dynamic incremental matching (DESIGN.md §4k).
//!
//! Instead of recounting a pattern against the whole graph after every
//! update batch, [`DeltaPlans::count`] enumerates only the subgraphs that
//! the batch created or destroyed, in anchored launches that
//! [`Engine::launch`] runs on the engine's own grid, with no deadline. The
//! decomposition:
//!
//! * `removed` = subgraphs of the **pre**-batch graph containing at least
//!   one net-deleted edge;
//! * `added`   = subgraphs of the **post**-batch graph containing at least
//!   one net-inserted edge.
//!
//! Each side counts every changed subgraph exactly once via two
//! disciplines layered on the ordinary warp kernel, and costs one launch
//! per edge orbit of the pattern — the update set *is* the launch's level-0
//! domain, following the batch-dynamic GPU matchers (PAPERS.md):
//!
//! 1. **Anchoring.** The pattern's edges fall into orbits under `Aut(P)`
//!    ([`symmetry::edge_orbits`]). For each orbit's representative
//!    `{p, q}` we compile an anchored plan
//!    ([`MatchPlan::compile_anchored`]) whose matching order starts
//!    `[p, q, ...]` and whose bounds break the setwise stabilizer of
//!    `{p, q}`. A launch of that plan over one batch side pins levels 0/1 to
//!    each update edge `{a, b}`; level 1 finds its pin with one search of
//!    level 0's row. When the stabilizer swaps `p` and `q`, the plan's
//!    orientation bound leaves one level-0 index per update edge, and puts
//!    the edge's higher endpoint (on a degree-ordered graph, the one with
//!    the shorter row) where level 2 expands from: at position 1 if level
//!    2's vertex is adjacent to `q` only, else at position 0. Otherwise
//!    there are two indices, one per endpoint. Why it is exact: take a
//!    subgraph S and an update edge `e` in S. The pattern edges some
//!    embedding of S maps onto `e` form exactly one orbit, so exactly one
//!    plan can see S through `e`, and of the embeddings that map its
//!    representative onto `e` — a coset of the stabilizer — its bounds keep
//!    exactly one. Warps claim the indices as chunks off the ordinary
//!    dispenser and steal from each other as in any launch.
//! 2. **Staged views.** Within a batch, a subgraph may contain several
//!    update edges. Order the net deletes `d_0..d_{m-1}`; stage `i`
//!    enumerates `d_i` against `pre ∖ {d_0..d_{i-1}}`, so a subgraph
//!    containing several deleted edges is counted only at its
//!    lowest-indexed one. Inserts run symmetrically against
//!    `post ∖ {e_{i+1}..}`, counting at the highest-indexed insert. The
//!    kernel moves onto a stage's view when it claims one of the stage's
//!    level-0 indices (stolen and requeued work carries the index along).
//!    A side's views share one table of versioned rows
//!    ([`Graph::staged_without_edges`]): two materialized rows per update
//!    edge, never a copy of the graph or of its patch.
//!
//! So the stage counts are *subgraph* counts. An engine configured without
//! symmetry breaking counts embeddings, and every subgraph has exactly
//! `|Aut(P)|` of them: its deltas are the subgraph counts times `|Aut(P)|`.
//!
//! Vertex-induced mode is rejected outright: deleting an edge can *create*
//! induced embeddings that contain no update edge at all, which no
//! anchored enumeration can see.

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

/// Anchored plans for one pattern: one per edge orbit of `Aut(P)`, plus
/// `|Aut(P)|` to turn their subgraph counts into embedding counts when the
/// engine asks for those. Compile once ([`Engine::compile_delta`]), reuse
/// across every batch.
pub struct DeltaPlans {
    k: usize,
    /// `|Aut(P)|`: multiplier when the engine counts embeddings.
    aut: u64,
    /// One plan per edge orbit, its order starting with the orbit's
    /// representative.
    anchored: Vec<MatchPlan>,
}

impl DeltaPlans {
    /// Pattern size the plans were compiled for.
    pub fn num_levels(&self) -> usize {
        self.k
    }

    /// Number of anchored plans (= the pattern's edge orbits under
    /// `Aut(P)`); a batch costs `2 × num_plans()` launches.
    pub fn num_plans(&self) -> usize {
        self.anchored.len()
    }

    /// The anchored plans, one per edge orbit.
    pub fn plans(&self) -> impl Iterator<Item = &MatchPlan> {
        self.anchored.iter()
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
/// views. Built once per batch; a service runs each distinct plan set of
/// its watchers and maintained counts on the same one.
pub(crate) struct StagedBatch {
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
    /// graph after). A batch that netted out stages two empty sides:
    /// nothing to launch.
    pub(crate) fn new(pre: &Graph, post: &Graph, batch: &AppliedBatch) -> StagedBatch {
        StagedBatch {
            removed: StagedSide::new(pre, batch.deletes.clone()),
            added: StagedSide::new(post, batch.inserts.iter().rev().copied().collect()),
        }
    }

    /// Counts the matches of `plans`' pattern the batch destroyed and
    /// created: one `engine` launch per (non-empty side × anchored plan),
    /// each recycling arenas through `warm`. Also returns the launches'
    /// merged metrics. Requires edge-induced matching.
    pub(crate) fn run(
        &self,
        engine: &Engine,
        plans: &DeltaPlans,
        warm: Option<&WarmSlot>,
    ) -> Result<(MatchDelta, GridMetrics), LaunchError> {
        assert!(
            !engine.config().induced,
            "incremental matching is edge-induced only: deleting an edge can \
             create vertex-induced embeddings containing no update edge, which \
             anchored enumeration cannot see"
        );
        let mut metrics = GridMetrics::default();
        // Subgraph counts; embedding counts when the engine breaks no symmetry.
        let scale = if engine.config().symmetry_breaking {
            1
        } else {
            plans.aut
        };
        let mut count = |side: &StagedSide| -> Result<u64, LaunchError> {
            let Some(first) = side.views.first() else {
                return Ok(0);
            };
            let mut total = 0u64;
            for plan in &plans.anchored {
                let out = engine.launch(&Launch {
                    warm,
                    domain: Level0::Anchored {
                        edges: &side.edges,
                        views: &side.views,
                    },
                    ..Launch::new(first, plan)
                })?;
                total += out.count;
                metrics.absorb(out.metrics);
            }
            Ok(total * scale)
        };
        let removed = count(&self.removed)?;
        let added = count(&self.added)?;
        Ok((MatchDelta { added, removed }, metrics))
    }
}

impl DeltaPlans {
    /// Counts the matches `batch` destroyed (enumerated against `pre`, the
    /// graph before the batch) and created (against `post`, the graph
    /// after) in `2 × num_plans()` launches of `engine` on its grid:
    /// O(batch × affected neighborhoods) work. The launches recycle arenas
    /// through one free-list of the call's own, sized for that grid. Also
    /// returns the launches' merged metrics. Requires edge-induced matching
    /// (see the module docs).
    pub fn count(
        &self,
        engine: &Engine,
        pre: &Graph,
        post: &Graph,
        batch: &AppliedBatch,
    ) -> Result<(MatchDelta, GridMetrics), LaunchError> {
        let warm = WarmSlot::new(engine.config().grid)?;
        StagedBatch::new(pre, post, batch).run(engine, self, Some(&warm))
    }
}

impl Engine {
    /// Compiles the anchored plan set for incremental matching of
    /// `pattern` under this engine's options: one plan per edge orbit,
    /// anchored on its representative (vertex-induced mode is rejected at
    /// [`DeltaPlans::count`] time).
    pub fn compile_delta(&self, pattern: &Pattern) -> DeltaPlans {
        let opts = PlanOptions {
            induced: false,
            code_motion: self.config().code_motion,
            // compile_anchored breaks the anchor's stabilizer regardless.
            symmetry_breaking: true,
        };
        let anchored = symmetry::edge_orbits(pattern)
            .iter()
            .map(|orbit| MatchPlan::compile_anchored(pattern, orbit.rep, opts))
            .collect();
        DeltaPlans {
            k: pattern.size(),
            aut: symmetry::automorphism_count(pattern) as u64,
            anchored,
        }
    }

    /// [`DeltaPlans::count`] with only the launches' simulated
    /// instructions. Kept for `benchmark/`; ROADMAP item 1 deletes it.
    pub fn run_delta_plans_metered(
        &self,
        pre: &Graph,
        post: &Graph,
        batch: &AppliedBatch,
        plans: &DeltaPlans,
    ) -> Result<(MatchDelta, u64), LaunchError> {
        plans
            .count(self, pre, post, batch)
            .map(|(delta, metrics)| (delta, metrics.total().simt_instructions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
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
        let delta = delta(&e, &pre, &post, &batch, pattern);
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

    /// `pattern`'s delta under `batch` on `e`.
    fn delta(
        e: &Engine,
        pre: &Graph,
        post: &Graph,
        batch: &AppliedBatch,
        pattern: &Pattern,
    ) -> MatchDelta {
        let plans = e.compile_delta(pattern);
        plans.count(e, pre, post, batch).expect("delta").0
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
            catalog::paper_query(2),
            catalog::paper_query(5),
            catalog::paper_query(10),
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
    fn a_batch_plans_against_the_engines_memory_limit() {
        let g = fixture();
        let (pre, post, batch) = apply(g.clone(), &[EdgeOp::delete(g.neighbors(0)[0], 0)]);
        let tight = Engine::with_memory_budget(EngineConfig::default(), 1024);
        match tight
            .compile_delta(&catalog::triangle())
            .count(&tight, &pre, &post, &batch)
        {
            Err(LaunchError::GlobalMemory(oom)) => assert_eq!(oom.limit, 1024),
            other => panic!("expected OOM, got {other:?}"),
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
        let got = delta(&e, &pre, &post, &batch, &catalog::triangle());
        assert_eq!(got, MatchDelta::default());
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

    /// The batch is the level-0 domain, not a launch loop, and each changed
    /// subgraph is enumerated once: the simulated work of three fixed
    /// cases, pinned to the instruction on a one-warp grid, where no steal
    /// moves them. The totals follow the kernel's cost model (re-record them
    /// from this test's own failure output when it moves); the deltas are
    /// the invariant.
    #[test]
    fn instruction_totals_of_one_plan_per_edge_orbit() {
        let small = gen::preferential_attachment(48, 4, 3).degree_ordered();
        let labeled = gen::assign_random_labels(&gen::rmat(7, 4, 11).degree_ordered(), 3, 2022);
        let cases = [
            (small, 16, 1, catalog::triangle(), (8, 11), 96),
            (wide_fixture(), 128, 2, catalog::diamond(), (124, 80), 2963),
            (
                labeled,
                32,
                3,
                catalog::tailed_triangle().with_random_labels(3, 5),
                (16, 205),
                799,
            ),
        ];
        let mut cfg = EngineConfig::default();
        (cfg.grid.num_blocks, cfg.grid.warps_per_block) = (1, 1);
        let e = Engine::new(cfg);
        for (g, n, seed, q, (added, removed), instructions) in cases {
            let (pre, post, batch) = apply(g.clone(), &toggle_batch(&g, n, seed));
            let (got, metrics) = e
                .compile_delta(&q)
                .count(&e, &pre, &post, &batch)
                .expect("delta");
            assert_eq!(
                (got, metrics.total().simt_instructions),
                (MatchDelta { added, removed }, instructions),
                "{} on a {n}-op batch",
                q.name()
            );
        }
    }

    #[test]
    fn a_batch_costs_two_launches_per_edge_orbit_at_any_width() {
        let g = wide_fixture();
        let e = engine();
        // The triangle's three edges are one orbit; the diamond's diagonal
        // is an orbit of its own beside the four rim edges.
        for (q, orbits) in [(catalog::triangle(), 1), (catalog::diamond(), 2)] {
            let plans = e.compile_delta(&q);
            assert_eq!(plans.num_plans(), orbits, "{}", q.name());
            for n in [16, 128, 256] {
                let (pre, post, batch) = apply(g.clone(), &toggle_batch(&g, n, n as u64));
                assert!(!batch.inserts.is_empty() && !batch.deletes.is_empty());
                let (_, metrics) = plans.count(&e, &pre, &post, &batch).expect("delta");
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
    /// of a 1×4 grid dies at its third claim — with a level-1 range open —
    /// and the salvage pass must still land the exact delta.
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
        let want = delta(&engine(), &pre, &post, &batch, &q);
        assert!(want.added > 0 && want.removed > 0, "fixture is non-trivial");

        let mut cfg = EngineConfig::default();
        (cfg.grid.num_blocks, cfg.grid.warps_per_block) = (1, 4);
        let deaths = (0..4).fold(FaultPlan::new(), |plan, w| plan.panic_at(w, 3));
        let e = Engine::new(cfg).with_fault_plan(deaths);
        let (got, metrics) = e
            .compile_delta(&q)
            .count(&e, &pre, &post, &batch)
            .expect("delta");
        assert_eq!(got, want);
        assert!(
            metrics.total().requeue_claims > 0,
            "no dead warp's work was requeued: the fault plan never fired"
        );
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
        let _ = e
            .compile_delta(&catalog::triangle())
            .count(&e, &pre, &post, &batch);
    }

    #[test]
    fn a_default_config_engine_serves_deltas() {
        // Calling `DeltaPlans::count` is the request: `engine()` is
        // `EngineConfig::default()`, and no knob arms it.
        check_against_recompute(fixture(), &[EdgeOp::insert(0, 31)], &catalog::triangle());
    }
}
