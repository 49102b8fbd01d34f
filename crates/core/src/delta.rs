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
//! ordinary warp kernel:
//!
//! 1. **Anchoring.** For every unordered pattern edge `{p, q}` we compile
//!    an anchored plan ([`MatchPlan::compile_anchored`]) whose matching
//!    order starts `[p, q, ...]`. A launch then pins level 0 to an update
//!    edge's endpoints `[a, b]` and level 1 to the paired endpoint, so the
//!    run counts exactly the embeddings mapping `{p, q}` onto `{a, b}`.
//!    Injectivity means at most one pattern edge can land on a given data
//!    edge, so summing over the pattern's edges counts each embedding that
//!    *uses* `{a, b}` exactly once.
//! 2. **Staged views.** Within a batch, an embedding may contain several
//!    update edges. Order the net deletes `d_0..d_{m-1}`; stage `i`
//!    enumerates `d_i` against `pre ∖ {d_0..d_{i-1}}`, so an embedding
//!    containing several deleted edges is counted only at its
//!    lowest-indexed one. Inserts run symmetrically against
//!    `post ∖ {e_{i+1}..}`, counting at the highest-indexed insert. The
//!    stage views are O(touched) patches ([`Graph::without_edges`]), never
//!    copies of the graph.
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
use stmatch_gpusim::LaunchError;
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
    /// after), in O(batch × affected neighborhoods) work — the graph size
    /// only enters through the degrees of the touched vertices.
    ///
    /// Also returns the total simulated SIMT instructions the anchored
    /// launches executed — the work measure the `smoke:delta` bench gate
    /// compares against full recomputation (host wall-clock on the
    /// simulator is dominated by per-launch scheduling, not by the
    /// matching work the paper's claim is about).
    ///
    /// Requires [`EngineConfig::delta`] to be enabled and edge-induced
    /// matching (see the module docs for why vertex-induced deltas cannot
    /// be anchored).
    pub fn run_delta_plans_metered(
        &self,
        pre: &Graph,
        post: &Graph,
        batch: &AppliedBatch,
        plans: &DeltaPlans,
    ) -> Result<(MatchDelta, u64), LaunchError> {
        let cfg = self.config();
        assert!(
            cfg.delta.enabled,
            "incremental matching requires EngineConfig::with_delta(true)"
        );
        assert!(
            !cfg.induced,
            "incremental matching is edge-induced only: deleting an edge can \
             create vertex-induced embeddings containing no update edge, which \
             anchored enumeration cannot see"
        );
        if batch.is_empty() || plans.anchored.is_empty() {
            // Vertex patterns (k = 1) never change under edge updates, and
            // a batch that netted out changes nothing.
            return Ok((MatchDelta::default(), 0));
        }
        // Right-size the launch: a two-vertex level-0 domain has no use
        // for a service-sized grid, and the auxiliary subsystems (hub
        // routing, sharding, static verification, bytecode tiering) are
        // pure overhead at this scale.
        let mut dcfg: EngineConfig = *cfg;
        dcfg.grid = cfg.delta.grid;
        dcfg.hub_bitmap.enabled = false;
        dcfg.shard.enabled = false;
        dcfg.verify.enabled = false;
        dcfg.compile.enabled = false;
        let sub = Engine::new(dcfg);
        // One warm slot amortizes warp-thread spawn and arena allocation
        // across every (plan × update edge) launch of the batch.
        let warm = WarmSlot::new(dcfg.grid)?;

        let mut instructions = 0u64;
        let mut removed = 0u64;
        for (i, &edge) in batch.deletes.iter().enumerate() {
            let view = pre.without_edges(&batch.deletes[..i]);
            let (n, instr) = self.anchored_count(&sub, &view, plans, edge, &warm)?;
            removed += n;
            instructions += instr;
        }
        let mut added = 0u64;
        for (i, &edge) in batch.inserts.iter().enumerate() {
            let view = post.without_edges(&batch.inserts[i + 1..]);
            let (n, instr) = self.anchored_count(&sub, &view, plans, edge, &warm)?;
            added += n;
            instructions += instr;
        }

        if cfg.symmetry_breaking {
            debug_assert!(
                added.is_multiple_of(plans.aut) && removed.is_multiple_of(plans.aut),
                "anchored embedding deltas must divide |Aut| = {}",
                plans.aut
            );
            added /= plans.aut;
            removed /= plans.aut;
        }
        Ok((MatchDelta { added, removed }, instructions))
    }

    /// Embeddings in `view` containing the data edge `(a, b)` plus the
    /// simulated instructions spent finding them: one anchored launch per
    /// pattern edge, level 0 pinned to `[a, b]`.
    fn anchored_count(
        &self,
        sub: &Engine,
        view: &Graph,
        plans: &DeltaPlans,
        (a, b): (VertexId, VertexId),
        warm: &WarmSlot,
    ) -> Result<(u64, u64), LaunchError> {
        let domain = Level0::Anchored {
            ends: &[a, b],
            pins: &[(a, b), (b, a)],
        };
        let mut total = 0u64;
        let mut instructions = 0u64;
        for (_, _, plan) in &plans.anchored {
            let out = sub.launch(&Launch {
                warm: Some(warm),
                domain,
                ..Launch::new(view, plan)
            })?;
            total += out.count;
            instructions += out.metrics.total().simt_instructions;
        }
        Ok((total, instructions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmatch_graph::{gen, DeltaOverlay, EdgeOp};
    use stmatch_pattern::catalog;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default().with_delta(true))
    }

    /// Oracle: applying `ops` to a PA graph, the delta must reconcile the
    /// full recomputed counts before and after, and when the batch is
    /// delete-only / insert-only the opposite side must be zero.
    fn check_against_recompute(base: Graph, ops: &[EdgeOp], pattern: &Pattern) {
        let e = engine();
        let before = e.run(&base, pattern).expect("pre count").count;
        let mut overlay = DeltaOverlay::new(base);
        let pre = overlay.snapshot();
        let batch = overlay.apply(ops);
        let post = overlay.snapshot();
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

    #[test]
    #[should_panic(expected = "edge-induced only")]
    fn induced_mode_is_rejected() {
        let mut cfg = EngineConfig::default().with_delta(true);
        cfg.induced = true;
        let e = Engine::new(cfg);
        let g = fixture();
        let mut overlay = DeltaOverlay::new(g);
        let pre = overlay.snapshot();
        let batch = overlay.apply(&[EdgeOp::delete(overlay.base().neighbors(0)[0], 0)]);
        let post = overlay.snapshot();
        let _ = e.run_delta(&pre, &post, &batch, &catalog::triangle());
    }

    #[test]
    #[should_panic(expected = "with_delta")]
    fn delta_disabled_is_rejected() {
        let e = Engine::new(EngineConfig::default());
        let g = fixture();
        let mut overlay = DeltaOverlay::new(g);
        let pre = overlay.snapshot();
        let batch = overlay.apply(&[EdgeOp::insert(0, 31)]);
        let post = overlay.snapshot();
        let _ = e.run_delta(&pre, &post, &batch, &catalog::triangle());
    }
}
