//! The sampled cost estimator (DESIGN.md §4k, *Compile*): candidate plans
//! measured on a small, fixed sample of the graph at hand, so a caller that
//! has a graph can choose among them by the simulated work they cost there.
//!
//! An anchored plan is measured the way a delta batch runs it. The sample
//! is a stride of [`SAMPLE_EDGES`] of the graph's edges (all of them if it
//! has fewer): the middle edge of each of that many equal stretches of
//! [`Graph::edges`], so on a degree-ordered graph it never starts at the
//! two top hubs' edge. It is staged as the deleted side of a batch, and
//! each candidate runs one anchored launch over it on the engine's grid
//! with stealing off, so its instruction total is the same on every run.
//! [`Estimator::pick`] keeps the first candidate — the graph-free default —
//! unless another is at least [`MARGIN_PERCENT`] % cheaper.
//!
//! The whole estimate runs under the engine's timeout
//! ([`Engine::with_timeout`]), counted from [`Estimator::new`], or under
//! the deadline its caller gives it: once that passes, every pick keeps
//! the first candidate.

use crate::delta::StagedSide;
use crate::engine::Engine;
use std::time::Instant;
use stmatch_gpusim::LaunchError;
use stmatch_graph::Graph;
use stmatch_pattern::MatchPlan;

/// Edges in an [`Estimator::new`] sample. On the `resident_tick` fixture
/// (`check plans`), every size from 4 to 8 picks within 1.10× of the best
/// order on every orbit of the tick's queries. Over the rest of q1–q14, 6
/// missed nowhere, 4 picked a C6 (q10) order costing 1.96× the default's,
/// and 5, 7 and 8 missed on 5, 9 and 2 orbits; each edge adds to every
/// cache miss's launches. Pick quality off that fixture is checked only by
/// `tests/delta_oracle.rs` on its golden fixtures (ROADMAP item 17).
const SAMPLE_EDGES: usize = 6;

/// How much cheaper, in percent of the first candidate's sampled
/// instructions, another candidate must be for [`Estimator::pick`] to take
/// it.
const MARGIN_PERCENT: u64 = 5;

/// Measures anchored plans over one staged sample of a graph.
pub struct Estimator {
    /// The caller's configuration with stealing off; its launches recycle
    /// the arenas of this engine's own free-list.
    engine: Engine,
    /// When the estimate's time runs out, if it has a budget.
    deadline: Option<Instant>,
    sample: StagedSide,
}

impl Estimator {
    /// An estimator for `engine`'s configuration and timeout over
    /// `graph`'s sample: a stride of [`SAMPLE_EDGES`] of its edges, staged
    /// as a batch's deleted side.
    pub fn new(engine: &Engine, graph: &Graph) -> Estimator {
        let m = graph.num_edges();
        let n = SAMPLE_EDGES.min(m);
        // The middle edge of each of n equal stretches of the edge list.
        let mut at = (0..n).map(|i| (2 * i + 1) * m / (2 * n)).peekable();
        let sample = graph
            .edges()
            .enumerate()
            .filter(|&(j, _)| at.next_if_eq(&j).is_some())
            .map(|(_, e)| e)
            .take(n)
            .collect();
        Estimator::over(engine, StagedSide::new(graph, sample))
    }

    /// An estimator for `engine`'s configuration and timeout over `side`,
    /// one side of a [`StagedBatch`](crate::StagedBatch)
    /// ([`into_sides`](crate::StagedBatch::into_sides)):
    /// [`Estimator::cost`] is exactly what that side's launch of a plan
    /// costs.
    pub fn over(engine: &Engine, side: StagedSide) -> Estimator {
        let mut cfg = *engine.config();
        (cfg.local_steal, cfg.global_steal) = (false, false);
        Estimator {
            engine: Engine::new(cfg),
            deadline: engine.deadline(),
            sample: side,
        }
    }

    /// This estimator given up at `deadline` instead of the engine's
    /// timeout.
    pub(crate) fn until(self, deadline: Option<Instant>) -> Estimator {
        Estimator { deadline, ..self }
    }

    /// Simulated instructions of one launch of the anchored `plan` over the
    /// sample (0 over an empty one); `None` once the estimate's time has
    /// run out.
    pub fn cost(&self, plan: &MatchPlan) -> Result<Option<u64>, LaunchError> {
        self.run(plan, None)
    }

    /// The candidate to keep among `plans`: the one with the fewest sampled
    /// instructions (the earliest among equals) if that is at least
    /// [`MARGIN_PERCENT`] % below the first's, else the first — also when
    /// the estimate's time runs out before every candidate is measured.
    /// Measures the first in full, then each other one only until it can
    /// no longer be taken — its launch is given up once its warps have
    /// charged past that — so a costly candidate costs the estimate little
    /// more than the one it loses to. Which one is kept does not depend on
    /// where a launch was given up: only a candidate that could not be
    /// taken is.
    pub fn pick(&self, plans: &[MatchPlan]) -> Result<usize, LaunchError> {
        let Some((first, rest)) = plans.split_first() else {
            return Ok(0);
        };
        let Some(first) = self.cost(first)? else {
            return Ok(0);
        };
        let (mut best, mut low) = (0, first);
        for (i, plan) in rest.iter().enumerate() {
            let Some(limit) = limit(first, low) else {
                break;
            };
            match self.run(plan, Some(limit + 1))? {
                Some(c) if c <= limit => (best, low) = (i + 1, c),
                None if self.out_of_time() => return Ok(0),
                _ => {}
            }
        }
        Ok(best)
    }

    /// One launch of `plan` over the sample, given up at the estimate's
    /// deadline or once its warps have charged `cap` instructions: its
    /// total, or `None` if given up.
    fn run(&self, plan: &MatchPlan, cap: Option<u64>) -> Result<Option<u64>, LaunchError> {
        assert!(
            plan.anchor().is_some(),
            "the estimator measures anchored plans"
        );
        if self.out_of_time() {
            return Ok(None);
        }
        match self.sample.launch(&self.engine, plan, self.deadline, cap) {
            None => Ok(Some(0)),
            Some(out) => {
                let out = out?;
                Ok((!out.timed_out).then(|| out.metrics.total().simt_instructions))
            }
        }
    }

    fn out_of_time(&self) -> bool {
        self.deadline.is_some_and(|d| d <= Instant::now())
    }
}

/// The most sampled instructions a candidate may cost and still be taken
/// over the current pick, which costs `low`, when the first candidate
/// costs `first`: [`MARGIN_PERCENT`] % below `first`, and below `low` (ties
/// go to the earlier candidate). `None` when no cost can be.
fn limit(first: u64, low: u64) -> Option<u64> {
    let margin = u128::from(first) * u128::from(100 - MARGIN_PERCENT) / 100;
    Some((margin as u64).min(low.checked_sub(1)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use std::time::Duration;
    use stmatch_graph::gen;
    use stmatch_pattern::{catalog, order::MatchOrder, symmetry, PlanOptions};

    #[test]
    fn a_candidate_is_taken_five_percent_below_the_first_and_below_the_pick() {
        assert_eq!(limit(100, 100), Some(95));
        assert_eq!(limit(100, 90), Some(89), "ties go to the earlier candidate");
        assert_eq!(limit(19, 19), Some(18));
        assert_eq!(limit(1, 1), Some(0));
        assert_eq!(limit(0, 0), None);
    }

    #[test]
    fn a_sample_is_deterministic_and_small_graphs_use_every_edge() {
        let q4 = catalog::paper_query(4);
        let order = MatchOrder::anchored(&q4, (0, 4));
        let plan = &MatchPlan::compile_anchored(&q4, order, PlanOptions::default());
        let g = gen::preferential_attachment(256, 4, 9).degree_ordered();
        let engine = Engine::new(EngineConfig::default());
        let est = Estimator::new(&engine, &g);
        assert_eq!(est.sample.edges.len(), SAMPLE_EDGES);
        let cost = est.cost(plan).unwrap().unwrap();
        assert!(cost > 0);
        let again = Estimator::new(&engine, &g);
        assert_eq!(again.cost(plan).unwrap(), Some(cost));

        let path = gen::path(4);
        assert_eq!(
            Estimator::new(&engine, &path).sample.edges,
            [(0, 1), (1, 2), (2, 3)],
            "fewer edges than a sample: all of them"
        );
        let empty = stmatch_graph::builder::graph_from_edges(4, &[]);
        assert_eq!(Estimator::new(&engine, &empty).cost(plan).unwrap(), Some(0));
    }

    /// The capped search keeps what the rule over every candidate's full
    /// cost keeps, some orbit of the paper's queries moves off the
    /// graph-free order on a power-law graph, and with no time left every
    /// pick keeps it.
    #[test]
    fn the_capped_pick_is_the_rule_over_full_costs() {
        let g = gen::preferential_attachment(256, 4, 9).degree_ordered();
        let engine = Engine::new(EngineConfig::default());
        let est = Estimator::new(&engine, &g);
        let spent = Estimator::new(&engine.with_timeout(Duration::ZERO), &g);
        let mut moved = 0;
        for q in (1..=8).map(catalog::paper_query) {
            for orbit in symmetry::edge_orbits(&q) {
                let plans: Vec<MatchPlan> = MatchOrder::anchored_candidates(&q, orbit.rep)
                    .into_iter()
                    .map(|o| MatchPlan::compile_anchored(&q, o, PlanOptions::default()))
                    .collect();
                let costs: Vec<u64> = plans
                    .iter()
                    .map(|p| est.cost(p).unwrap().unwrap())
                    .collect();
                let (argmin, &low) = costs
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &c)| (c, i))
                    .unwrap();
                let want = if low * 100 <= costs[0] * (100 - MARGIN_PERCENT) {
                    argmin
                } else {
                    0
                };
                assert_eq!(est.pick(&plans).unwrap(), want, "{} {costs:?}", q.name());
                moved += usize::from(want != 0);
                assert_eq!(spent.pick(&plans).unwrap(), 0);
                assert_eq!(spent.cost(&plans[0]).unwrap(), None);
            }
        }
        assert!(moved > 0, "no orbit moved off the first candidate");
    }
}
