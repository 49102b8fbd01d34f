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
//!    `[p, q, ...]` or `[q, p, ...]` and whose bounds break the setwise
//!    stabilizer of `{p, q}`. [`Engine::compile_delta`] takes
//!    [`MatchOrder::anchored`]; [`Engine::compile_delta_on`] takes the
//!    cheapest of [`MatchOrder::anchored_candidates`] on a sample of a
//!    graph ([`crate::estimate`]). A launch of that plan over one batch
//!    side pins levels 0/1 to each update edge `{a, b}`: entering level 1,
//!    one search of level 0's row finds the other endpoint, and level 1's
//!    range is that one element, claimed like any shallow index and never
//!    split by a thief. When the stabilizer swaps `p` and `q`, the plan's
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

use crate::engine::{Engine, Launch, Level0, MatchOutcome};
use crate::estimate::Estimator;
use std::time::Instant;
use stmatch_gpusim::{GridMetrics, LaunchError};
use stmatch_graph::{AppliedBatch, Graph, VertexId};
use stmatch_pattern::order::MatchOrder;
use stmatch_pattern::symmetry::{self, EdgeOrbit};
use stmatch_pattern::{MatchPlan, Pattern, PlanOptions};

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
#[derive(Clone)]
pub struct DeltaPlans {
    k: usize,
    /// `|Aut(P)|`: multiplier when the engine counts embeddings.
    aut: u64,
    /// The pattern's edge orbits under `Aut(P)`.
    orbits: Vec<EdgeOrbit>,
    /// One plan per edge orbit, its order starting with the orbit's
    /// representative in either direction.
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

    /// These plans with orbit `orbit`'s compiled from `order` instead —
    /// for a caller that chose the order itself, e.g. among
    /// [`MatchOrder::anchored_candidates`] of the orbit's representative.
    ///
    /// # Panics
    /// Panics if `order` does not start with an edge of that orbit.
    #[doc(hidden)]
    pub fn with_order(mut self, orbit: usize, order: MatchOrder) -> DeltaPlans {
        let (a, b) = (order.vertex_at(0), order.vertex_at(1));
        assert!(
            self.orbits[orbit].edges.contains(&(a.min(b), a.max(b))),
            "{order:?} does not start with an edge of orbit {orbit}"
        );
        let old = &self.anchored[orbit];
        self.anchored[orbit] = MatchPlan::compile_anchored(old.pattern(), order, old.options());
        self
    }

    /// Replaces each picked orbit's plan ([`Engine::anchored_picks`]).
    pub(crate) fn take_picks(&mut self, picks: Vec<(usize, MatchPlan)>) {
        for (orbit, plan) in picks {
            self.anchored[orbit] = plan;
        }
    }
}

/// One side of a batch, staged: stage `s` matches update edge `edges[s]`
/// on `views[s]` — an anchored launch's level-0 domain. Public for tests
/// that step a staged launch's kernels ([`StagedSide::request`]).
#[doc(hidden)]
pub struct StagedSide {
    pub(crate) edges: Vec<(VertexId, VertexId)>,
    pub(crate) views: Vec<Graph>,
}

impl StagedSide {
    /// Stages `edges` in the given order over `graph`: stage `s` sees
    /// `graph` without `edges[..s]`. Checks once what every anchored launch
    /// over the side relies on: one view per edge, each edge `(lo, hi)` with
    /// `lo < hi`, at most `VertexId::MAX / 2` edges (level-0 indices travel
    /// in stolen prefixes as `VertexId`s), and stage views that carry no hub
    /// index, so these launches never route hub rows.
    pub fn new(graph: &Graph, edges: Vec<(VertexId, VertexId)>) -> StagedSide {
        let views = graph.staged_without_edges(&edges);
        assert_eq!(edges.len(), views.len(), "one stage view per update edge");
        debug_assert!(
            edges.iter().all(|&(lo, hi)| lo < hi),
            "update edges are (lo, hi)"
        );
        assert!(
            edges.len() <= (VertexId::MAX / 2) as usize,
            "batch side too wide"
        );
        if let Some(hx) = views.iter().find_map(Graph::hub_bitmap) {
            panic!(
                "stage views carry no hub index; this one has {} hubs",
                hx.num_hubs()
            );
        }
        StagedSide { edges, views }
    }

    /// The anchored request of `plan` over every stage; `None` for an empty
    /// side. Its graph is stage 0's view, which sizes the slabs.
    pub fn request<'a>(&'a self, plan: &'a MatchPlan) -> Option<Launch<'a>> {
        let first = self.views.first()?;
        Some(Launch {
            domain: Level0::Anchored(self),
            ..Launch::new(first, plan)
        })
    }

    /// One `engine` launch of the anchored `plan` over every stage, given
    /// up at a `deadline` and instruction `cap` (see [`Launch`]); `None` for
    /// an empty side.
    pub(crate) fn launch(
        &self,
        engine: &Engine,
        plan: &MatchPlan,
        deadline: Option<Instant>,
        cap: Option<u64>,
    ) -> Option<Result<MatchOutcome, LaunchError>> {
        let req = self.request(plan)?;
        Some(engine.launch(&Launch {
            deadline,
            cap,
            ..req
        }))
    }
}

/// One update batch staged for anchored enumeration: both sides' stage
/// views, the unit every delta is counted over. Build it once per batch
/// with [`StagedBatch::new`], the one place that knows the staging order,
/// and count each plan set over it ([`DeltaPlans::count`]): a service runs
/// every watcher's and maintained count's plan set on the same one.
pub struct StagedBatch {
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
    pub fn new(pre: &Graph, post: &Graph, batch: &AppliedBatch) -> StagedBatch {
        StagedBatch {
            removed: StagedSide::new(pre, batch.deletes.clone()),
            added: StagedSide::new(post, batch.inserts.iter().rev().copied().collect()),
        }
    }

    /// The removed side, then the added one — for a caller that measures
    /// one side at a time ([`Estimator::over`]).
    #[doc(hidden)]
    pub fn into_sides(self) -> [StagedSide; 2] {
        [self.removed, self.added]
    }
}

impl DeltaPlans {
    /// Counts the matches `staged`'s batch destroyed (enumerated against
    /// the graph before it) and created (against the graph after) in one
    /// `engine` launch per (non-empty side × anchored plan) on its grid:
    /// O(batch × affected neighborhoods) work. The launches recycle the
    /// engine's arenas, as every launch does. Also returns the launches'
    /// merged metrics. Requires an edge-induced engine (see the module
    /// docs).
    pub fn count(
        &self,
        engine: &Engine,
        staged: &StagedBatch,
    ) -> Result<(MatchDelta, GridMetrics), LaunchError> {
        assert!(
            !engine.config().induced,
            "incremental matching is edge-induced only: deleting an edge can \
             create vertex-induced embeddings containing no update edge, which \
             anchored enumeration cannot see"
        );
        self.count_edge_induced(engine, staged)
    }

    /// [`DeltaPlans::count`] whatever `engine`'s default semantics: the
    /// plans are edge-induced by construction. For the service, which
    /// counts its edge-induced entries on its one engine.
    pub(crate) fn count_edge_induced(
        &self,
        engine: &Engine,
        staged: &StagedBatch,
    ) -> Result<(MatchDelta, GridMetrics), LaunchError> {
        let mut metrics = GridMetrics::default();
        // Subgraph counts; embedding counts when the engine breaks no symmetry.
        let scale = if engine.config().symmetry_breaking {
            1
        } else {
            self.aut
        };
        let mut count = |side: &StagedSide| -> Result<u64, LaunchError> {
            let mut total = 0u64;
            for plan in &self.anchored {
                let Some(out) = side.launch(engine, plan, None, None) else {
                    break;
                };
                let out = out?;
                total += out.count;
                metrics.absorb(out.metrics);
            }
            Ok(total * scale)
        };
        let removed = count(&staged.removed)?;
        let added = count(&staged.added)?;
        Ok((MatchDelta { added, removed }, metrics))
    }
}

impl Engine {
    /// Compiles the anchored plan set for incremental matching of
    /// `pattern` under this engine's options: one plan per edge orbit,
    /// anchored on its representative with [`MatchOrder::anchored`]'s
    /// order. Graph-free, so the same on every graph; see
    /// [`Engine::compile_delta_on`] for orders chosen on one
    /// (vertex-induced mode is rejected at [`DeltaPlans::count`] time).
    pub fn compile_delta(&self, pattern: &Pattern) -> DeltaPlans {
        let opts = PlanOptions {
            induced: false,
            code_motion: self.config().code_motion,
            // compile_anchored breaks the anchor's stabilizer regardless.
            symmetry_breaking: true,
        };
        let orbits = symmetry::edge_orbits(pattern);
        let anchored = orbits
            .iter()
            .map(|orbit| {
                MatchPlan::compile_anchored(pattern, MatchOrder::anchored(pattern, orbit.rep), opts)
            })
            .collect();
        DeltaPlans {
            k: pattern.size(),
            aut: symmetry::automorphism_count(pattern) as u64,
            orbits,
            anchored,
        }
    }

    /// [`Engine::compile_delta`] with each orbit's order chosen on
    /// `graph`: the candidates are [`MatchOrder::anchored_candidates`] of
    /// its representative, and [`Estimator::pick`] keeps the graph-free
    /// order unless another costs clearly less on `graph`'s sample.
    /// Deterministic: the same graph gives the same plans. The estimate
    /// runs under this engine's timeout ([`Engine::with_timeout`]), counted
    /// from the call; an orbit whose estimate fails to launch or runs out
    /// of that time keeps the graph-free order, as does every orbit after
    /// the time has run out.
    pub fn compile_delta_on(&self, pattern: &Pattern, graph: &Graph) -> DeltaPlans {
        let mut plans = self.compile_delta(pattern);
        let picks = self.anchored_picks(&plans, graph, self.deadline());
        plans.take_picks(picks);
        plans
    }

    /// The orbits of the graph-free `plans` whose order
    /// [`Engine::compile_delta_on`]'s estimate moves on `graph`, each with
    /// its chosen plan; the estimate is given up at `deadline` instead of
    /// the engine's timeout.
    pub(crate) fn anchored_picks(
        &self,
        plans: &DeltaPlans,
        graph: &Graph,
        deadline: Option<Instant>,
    ) -> Vec<(usize, MatchPlan)> {
        let mut picks = Vec::new();
        let mut estimator = None;
        for (i, (orbit, today)) in plans.orbits.iter().zip(&plans.anchored).enumerate() {
            let pattern = today.pattern();
            let candidates = MatchOrder::anchored_candidates(pattern, orbit.rep);
            if candidates.len() < 2 {
                continue;
            }
            let mut compiled: Vec<MatchPlan> = candidates
                .into_iter()
                .map(|order| MatchPlan::compile_anchored(pattern, order, today.options()))
                .collect();
            let estimator =
                estimator.get_or_insert_with(|| Estimator::new(self, graph).until(deadline));
            // The first candidate is today's order: keeping it moves nothing.
            if let Ok(best @ 1..) = estimator.pick(&compiled) {
                picks.push((i, compiled.swap_remove(best)));
            }
        }
        picks
    }

    /// [`DeltaPlans::count`] over `batch` staged between `pre` and `post`,
    /// with only the launches' simulated instructions. Kept for
    /// `benchmark/`; ROADMAP item 1 deletes it.
    pub fn run_delta_plans_metered(
        &self,
        pre: &Graph,
        post: &Graph,
        batch: &AppliedBatch,
        plans: &DeltaPlans,
    ) -> Result<(MatchDelta, u64), LaunchError> {
        plans
            .count(self, &StagedBatch::new(pre, post, batch))
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
        let (staged, post, batch) = apply(base, ops);
        let after = e.run(&post, pattern).expect("post count").count;
        let delta = delta(&e, &staged, pattern);
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

    /// `pattern`'s delta under the `staged` batch on `e`.
    fn delta(e: &Engine, staged: &StagedBatch, pattern: &Pattern) -> MatchDelta {
        e.compile_delta(pattern).count(e, staged).expect("delta").0
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
        let (staged, _, _) = apply(g.clone(), &[EdgeOp::delete(g.neighbors(0)[0], 0)]);
        let tight = Engine::with_memory_budget(EngineConfig::default(), 1024);
        match tight
            .compile_delta(&catalog::triangle())
            .count(&tight, &staged)
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
        let staged = StagedBatch::new(&pre, &post, &batch);
        let got = delta(&e, &staged, &catalog::triangle());
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

    /// `ops` applied to `base`: the batch staged, the graph after it and
    /// the batch.
    fn apply(base: Graph, ops: &[EdgeOp]) -> (StagedBatch, Graph, AppliedBatch) {
        let mut overlay = DeltaOverlay::new(base);
        let pre = overlay.snapshot();
        let batch = overlay.apply(ops);
        let post = overlay.snapshot();
        (StagedBatch::new(&pre, &post, &batch), post, batch)
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
            let (staged, _, _) = apply(g.clone(), &toggle_batch(&g, n, seed));
            let (got, metrics) = e.compile_delta(&q).count(&e, &staged).expect("delta");
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
                let (staged, _, batch) = apply(g.clone(), &toggle_batch(&g, n, n as u64));
                assert!(!batch.inserts.is_empty() && !batch.deletes.is_empty());
                let (_, metrics) = plans.count(&e, &staged).expect("delta");
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
        let (staged, _, _) = apply(g, &ops);
        let q = catalog::triangle();
        let want = delta(&engine(), &staged, &q);
        assert!(want.added > 0 && want.removed > 0, "fixture is non-trivial");

        let mut cfg = EngineConfig::default();
        (cfg.grid.num_blocks, cfg.grid.warps_per_block) = (1, 4);
        let deaths = (0..4).fold(FaultPlan::new(), |plan, w| plan.panic_at(w, 3));
        let e = Engine::new(cfg).with_fault_plan(deaths);
        let (got, metrics) = e.compile_delta(&q).count(&e, &staged).expect("delta");
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
            .count(&e, &StagedBatch::new(&pre, &post, &batch));
    }

    #[test]
    fn a_default_config_engine_serves_deltas() {
        // Calling `DeltaPlans::count` is the request: `engine()` is
        // `EngineConfig::default()`, and no knob arms it.
        check_against_recompute(fixture(), &[EdgeOp::insert(0, 31)], &catalog::triangle());
    }
}
