//! Sharded multi-grid execution with shard-death recovery (DESIGN.md §4i).
//!
//! A *shard* is one independent grid working a slice of the level-0
//! domain — the paper's multi-GPU scheme (§VIII-B: "duplicating the input
//! graph and dividing the outermost loop iterations across GPUs"), and the
//! only multi-device path: `shards` is the device count. Shards share a
//! [`ShardRail`]: every shard's slice lives on the rail as chunk ranges
//! over one global *permutation* of the level-0 vertices, so ranges (and
//! reclaimed stack payloads) stay portable across shards. Three
//! mechanisms ride on that portability:
//!
//! * **Work-aware partitioning** ([`ShardPlan::work_aware`]): the domain
//!   is split by the degree/triangle weight proxy of
//!   [`stmatch_graph::stats::level0_weights`] (LPT assignment), not by
//!   position, so a skew-heavy graph does not hand one shard all the
//!   hubs. [`ShardPlan::contiguous`] keeps the positional split for
//!   comparison.
//! * **A static split**: a shard claims only its own slice
//!   ([`ShardRail::claim`]) and stops when it is drained, as in the paper;
//!   shards never steal from each other.
//! * **Shard-death recovery**: when a whole shard grid dies (injected
//!   via [`FaultPlan::shard_kill_at`](crate::fault::FaultPlan) or real),
//!   its reclaimed payloads land on the rail's requeue for live siblings;
//!   the slice it never claimed stays in its queue. Whatever the join
//!   leaves behind is relaunched through a bounded, count-invariant ladder
//!   ([`ShardStep`]): halve the shard count per round
//!   ([`RecoveryPolicy::shard_retries`](crate::RecoveryPolicy) rounds,
//!   injection off), then one cold single-grid pass.
//!
//! Calling [`Engine::run_plan_sharded`] is the request; it reads the shard
//! count and balancing features from
//! [`EngineConfig::shard`](crate::EngineConfig), and the resident service
//! routes queries here iff that count exceeds 1. Each shard's grid is one
//! [`Launch`](crate::Launch) over the crate-private `Level0::Rail` domain.

use crate::engine::{Engine, Launch, Level0, MatchOutcome};
use crate::fault::{FaultPlan, FaultReport};
use crate::recover::ShardStep;
use crate::steal::{RailStats, ShardRail};
use std::sync::Arc;
use stmatch_gpusim::{GridMetrics, LaunchError};
use stmatch_graph::{stats, Graph, VertexId};
use stmatch_pattern::{MatchPlan, Pattern};

/// How the level-0 domain is split across shards: one global permutation
/// of the vertices plus cut points. Shard `s` owns the virtual indices
/// `cuts[s]..cuts[s+1]` of `order`; the kernel maps a virtual index `i`
/// back to the data vertex `order[i]`. Keeping chunk ranges virtual is
/// what makes them portable across shards (requeues and recovery rounds
/// never re-translate).
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// `order[virtual_index] = vertex_id`.
    pub order: Vec<VertexId>,
    /// `shards + 1` cut points into `order`, `cuts[0] == 0`,
    /// `cuts[shards] == order.len()`.
    pub cuts: Vec<usize>,
}

impl ShardPlan {
    /// Positional split: identity order, near-equal slice widths. On a
    /// degree-ordered graph this hands every hub to shard 0 — kept as
    /// the baseline the work-aware split is benchmarked against.
    pub fn contiguous(graph: &Graph, shards: usize) -> ShardPlan {
        assert!(shards >= 1);
        let n = graph.num_vertices();
        let order: Vec<VertexId> = graph.vertices().collect();
        let base = n / shards;
        let rem = n % shards;
        let mut cuts = Vec::with_capacity(shards + 1);
        let mut at = 0usize;
        cuts.push(0);
        for s in 0..shards {
            at += base + usize::from(s < rem);
            cuts.push(at);
        }
        ShardPlan { order, cuts }
    }

    /// Work-aware split: longest-processing-time assignment of vertices
    /// (heaviest first, each to the currently lightest shard) under the
    /// per-root weight proxy of [`stats::level0_weights`] — degree plus
    /// bounded intersection work, the dominant cost of expanding that
    /// root. Deterministic: ties break on vertex id, then lowest shard.
    pub fn work_aware(graph: &Graph, shards: usize) -> ShardPlan {
        ShardPlan::work_aware_with_weights(graph, shards, &stats::level0_weights(graph))
    }

    /// [`ShardPlan::work_aware`] with caller-supplied per-root weights —
    /// the incremental-service path: a tracked
    /// [`stmatch_graph::DeltaOverlay`] keeps the weight vector adjusted
    /// per batch ([`stats::adjust_level0_weights`], touched vertices
    /// only), so sharded queries between batches skip the O(graph)
    /// recompute. `weights[v]` must cover every vertex of `graph`.
    pub fn work_aware_with_weights(graph: &Graph, shards: usize, weights: &[u64]) -> ShardPlan {
        assert!(shards >= 1);
        assert_eq!(weights.len(), graph.num_vertices(), "one weight per vertex");
        let mut verts: Vec<VertexId> = graph.vertices().collect();
        verts.sort_by(|&a, &b| {
            weights[b as usize]
                .cmp(&weights[a as usize])
                .then(a.cmp(&b))
        });
        let mut loads = vec![0u64; shards];
        let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); shards];
        for v in verts {
            let s = (0..shards).min_by_key(|&s| loads[s]).expect("shards >= 1");
            loads[s] += weights[v as usize];
            buckets[s].push(v);
        }
        let mut order = Vec::with_capacity(graph.num_vertices());
        let mut cuts = Vec::with_capacity(shards + 1);
        cuts.push(0);
        for b in buckets {
            order.extend(b);
            cuts.push(order.len());
        }
        ShardPlan { order, cuts }
    }

    /// Number of shards in the plan.
    pub fn num_shards(&self) -> usize {
        self.cuts.len() - 1
    }

    /// Total weight each shard was assigned under `weights` (used by the
    /// bench harness to report split balance).
    pub fn shard_loads(&self, weights: &[u64]) -> Vec<u64> {
        (0..self.num_shards())
            .map(|s| {
                self.order[self.cuts[s]..self.cuts[s + 1]]
                    .iter()
                    .map(|&v| weights[v as usize])
                    .sum()
            })
            .collect()
    }

    /// Static exactly-once coverage check
    /// ([`stmatch_plan_verify::check_shard_cover`]): the cuts must tile
    /// `order` monotonically and `order` must visit each of the graph's
    /// `num_vertices` vertices exactly once. Empty means the plan covers
    /// the level-0 domain; diagnostics name the offending vertex or cut.
    pub fn verify_cover(
        &self,
        num_vertices: usize,
        repro: &str,
    ) -> Vec<stmatch_plan_verify::Diagnostic> {
        stmatch_plan_verify::check_shard_cover(&self.order, &self.cuts, num_vertices, repro)
    }
}

/// Seeded shard-plan mutations for the static verifier's kill gate (see
/// `ci.sh smoke:verify`): deliberately corrupt a [`ShardPlan`] the way a
/// partitioning bug would, so the coverage check can be shown to catch it
/// *by name*. Never called on production paths.
pub mod mutation {
    use super::ShardPlan;
    use stmatch_graph::VertexId;

    /// Makes shard boundaries overlap on a vertex: the first vertex of
    /// shard 1's slice is overwritten with shard 0's first vertex, so one
    /// vertex is owned twice and the overwritten one is never expanded.
    /// Returns `(duplicated, orphaned)`, or `None` when the plan is too
    /// small to mutate (fewer than two shards or two vertices).
    pub fn overlap_cut(plan: &mut ShardPlan) -> Option<(VertexId, VertexId)> {
        let at = *plan.cuts.get(1)?;
        if plan.num_shards() < 2 || at == 0 || at >= plan.order.len() {
            return None;
        }
        let duplicated = plan.order[0];
        let orphaned = std::mem::replace(&mut plan.order[at], duplicated);
        Some((duplicated, orphaned))
    }
}

/// Result of a sharded run: the merged outcome plus shard-level
/// bookkeeping mirroring what [`FaultReport`] records per grid.
#[derive(Clone, Debug)]
pub struct ShardedOutcome {
    /// Merged outcome. `count` sums every round (shard grids, recovery
    /// rounds, fallback); `metrics.warps` is the *concatenation* of all
    /// per-warp counters, so
    /// [`simulated_cycles`](MatchOutcome::simulated_cycles) is the true
    /// global bottleneck (the slowest warp of any shard), not a per-slot
    /// sum.
    pub outcome: MatchOutcome,
    /// Round-0 per-shard outcomes, indexed by shard.
    pub per_shard: Vec<MatchOutcome>,
    /// Shard count of round 0.
    pub shards: usize,
    /// Rail traffic accumulated over all rounds: requeue pushes/claims,
    /// shard deaths observed.
    pub rail: RailStats,
    /// Recovery rounds run after the initial join (0 for clean runs).
    pub recovery_rounds: u32,
    /// Shard-ladder rungs taken, in order.
    pub degradations: Vec<ShardStep>,
    /// Reproduce line of the active fault plan, if any (`FAULT_SEED=…`
    /// for seeded plans, `SHARD_KILLS=…` for hand-built kills).
    pub reproduce: Option<String>,
    /// Virtual level-0 ranges (over [`ShardPlan::order`]) still on the
    /// rail when the driver stopped — non-empty only for timed-out runs
    /// or an interrupted fallback, where `outcome.count` is a partial
    /// lower bound. Reclaimed payloads that also remained are counted in
    /// the fault report's `unrecovered`, not here (they are subtree
    /// stacks, not ranges).
    pub unfinished: Vec<(usize, usize)>,
}

impl Engine {
    /// Sharded run of `pattern`: compiles and calls
    /// [`Engine::run_plan_sharded`].
    pub fn run_sharded(
        &self,
        graph: &Graph,
        pattern: &Pattern,
    ) -> Result<ShardedOutcome, LaunchError> {
        let plan = self.compile(pattern);
        self.run_plan_sharded(graph, &plan)
    }

    /// Runs `plan` across [`EngineConfig::shard`](crate::EngineConfig)
    /// `.shards` grids sharing one [`ShardRail`], then drives the
    /// recovery ladder until the rail is drained (or the retry budget
    /// ends in the cold single-grid fallback). Counts are exact whenever
    /// the merged report says
    /// [`fully_recovered`](FaultReport::fully_recovered) — the same
    /// contract as the single-grid fault path.
    ///
    /// An attached [`FaultPlan`](crate::FaultPlan) is re-scoped per
    /// shard: shard kills expand to every warp of the victim grid, and
    /// warp-level faults replicate to each shard. Recovery rounds always
    /// run with injection off.
    pub fn run_plan_sharded(
        &self,
        graph: &Graph,
        plan: &MatchPlan,
    ) -> Result<ShardedOutcome, LaunchError> {
        self.run_plan_sharded_weighted(graph, plan, None)
    }

    /// [`Engine::run_plan_sharded`] with caller-maintained level-0
    /// weights for the work-aware split (see
    /// [`ShardPlan::work_aware_with_weights`]); `None` recomputes them
    /// from the graph.
    pub(crate) fn run_plan_sharded_weighted(
        &self,
        graph: &Graph,
        plan: &MatchPlan,
        weights: Option<&[u64]>,
    ) -> Result<ShardedOutcome, LaunchError> {
        let cfg = *self.config();
        cfg.validate();
        let tuning = cfg.shard;
        let shards = tuning.shards;
        let splan = if tuning.work_aware {
            match weights {
                Some(w) => ShardPlan::work_aware_with_weights(graph, shards, w),
                None => ShardPlan::work_aware(graph, shards),
            }
        } else {
            ShardPlan::contiguous(graph, shards)
        };
        let reproduce = self.fault_plan().and_then(FaultPlan::shard_reproduce_line);
        // Both built-in partitioners tile the domain by construction, so a
        // coverage diagnostic (DESIGN.md §4j) is a partitioning bug: fail
        // loudly in debug builds before a wrong count escapes.
        debug_assert!(
            splan
                .verify_cover(graph.num_vertices(), "Engine::run_plan_sharded")
                .is_empty(),
            "shard plan ({shards} shards, work_aware={}) fails exactly-once coverage",
            tuning.work_aware
        );

        let rail = Arc::new(ShardRail::new(&splan.cuts, cfg.chunk_size));
        let per_shard = self.shard_round(graph, plan, &splan.order, &rail, true)?;
        let mut rail_stats = rail.stats();
        let mut merged = merge_round(&per_shard, reproduce.clone());

        // --- Shard recovery ladder: drain what the join left behind. ---
        let mut degradations: Vec<ShardStep> = Vec::new();
        let mut recovery_rounds = 0u32;
        let mut cur_shards = shards;
        let mut live_rail = rail;
        let mut unfinished: Vec<(usize, usize)> = Vec::new();
        loop {
            let (ranges, payloads) = live_rail.drain_remaining();
            if ranges.is_empty() && payloads.is_empty() {
                break;
            }
            if merged.timed_out {
                // Past the deadline the count is partial by contract;
                // leftovers are reported, not relaunched.
                report_mut(&mut merged).unrecovered += ranges.len() + payloads.len();
                unfinished = ranges;
                break;
            }
            let step = if recovery_rounds >= cfg.recovery.shard_retries || cur_shards <= 1 {
                ShardStep::SingleGrid
            } else {
                ShardStep::FewerShards {
                    from: cur_shards,
                    to: (cur_shards / 2).max(1),
                }
            };
            let next = match step {
                ShardStep::FewerShards { to, .. } => to,
                ShardStep::SingleGrid => 1,
            };
            degradations.push(step);
            recovery_rounds += 1;
            live_rail = Arc::new(ShardRail::from_parts(
                next,
                cfg.chunk_size,
                ranges,
                payloads,
            ));
            let round = self.shard_round(graph, plan, &splan.order, &live_rail, false)?;
            accumulate(&mut rail_stats, live_rail.stats());
            merge_into(&mut merged, &round);
            cur_shards = next;
            if matches!(step, ShardStep::SingleGrid) {
                // The ladder's last rung: whatever a timed-out or
                // containment-failed fallback leaves is unrecovered.
                let (r, p) = live_rail.drain_remaining();
                if !r.is_empty() || !p.is_empty() {
                    report_mut(&mut merged).unrecovered += r.len() + p.len();
                    unfinished = r;
                }
                break;
            }
        }
        if let Some(f) = merged.fault.as_ref() {
            debug_assert!(
                f.reproduce.is_some() || self.fault_plan().is_none_or(|p| !p.kills_shards()),
                "shard-death reports must carry a reproduce line"
            );
        }
        Ok(ShardedOutcome {
            outcome: merged,
            per_shard,
            shards,
            rail: rail_stats,
            recovery_rounds,
            degradations,
            reproduce,
            unfinished,
        })
    }

    /// One round: a driver thread per shard, each running its grid
    /// against the shared rail. Joins all shards before returning (a shard
    /// exits once its own slice and the rail's requeue are empty).
    fn shard_round(
        &self,
        graph: &Graph,
        plan: &MatchPlan,
        order: &[VertexId],
        rail: &Arc<ShardRail>,
        inject: bool,
    ) -> Result<Vec<MatchOutcome>, LaunchError> {
        let shards = rail.num_shards();
        let total_warps = self.config().grid.total_warps();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|sh| {
                    scope.spawn(move || {
                        // Per-shard engine: same config and timeout; the
                        // fault plan is re-scoped so a shard kill only
                        // reaches its victim grid.
                        let mut e = Engine::new(*self.config());
                        if let Some(t) = self.timeout_budget() {
                            e = e.with_timeout(t);
                        }
                        if inject {
                            if let Some(fp) = self.fault_plan() {
                                let scoped = fp.for_shard(sh, total_warps);
                                if !scoped.is_empty() {
                                    e = e.with_fault_plan(scoped);
                                }
                            }
                        }
                        e.launch(&Launch {
                            domain: Level0::Rail {
                                rail,
                                shard: sh,
                                order,
                            },
                            ..Launch::new(graph, plan)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard driver thread panicked"))
                .collect()
        })
    }
}

/// Ensures the merged outcome carries a fault report and returns it.
fn report_mut(o: &mut MatchOutcome) -> &mut FaultReport {
    o.fault.get_or_insert_with(FaultReport::default)
}

/// Field-wise sum of two rail-traffic snapshots.
fn accumulate(into: &mut RailStats, s: RailStats) {
    into.requeue_pushes += s.requeue_pushes;
    into.requeue_claims += s.requeue_claims;
    into.shard_deaths += s.shard_deaths;
}

/// Merges one round's per-shard outcomes into a fresh outcome. Warp
/// metric vectors are concatenated (not summed pairwise): the merged
/// `simulated_cycles` must be the max over *all* warps of *all* shards,
/// the quantity the scaling bench calls bottleneck time.
fn merge_round(round: &[MatchOutcome], reproduce: Option<String>) -> MatchOutcome {
    let first = round.first().expect("at least one shard");
    let mut merged = MatchOutcome {
        count: 0,
        metrics: GridMetrics::default(),
        shared_bytes_per_block: first.shared_bytes_per_block,
        stack_bytes: first.stack_bytes,
        num_sets: first.num_sets,
        timed_out: false,
        fault: None,
        downgrades: Vec::new(),
        spill_events: 0,
        peak_slab_cells: 0,
        tail: [0; 2],
        served_tier: None,
    };
    if let Some(r) = reproduce {
        report_mut(&mut merged).reproduce = Some(r);
    }
    merge_into(&mut merged, round);
    // A clean merge should not pin a report just for the reproduce line.
    if merged.fault.as_ref().is_some_and(FaultReport::is_clean) {
        merged.fault = None;
    }
    merged
}

/// Folds `round` into `merged`: counts and traffic sum, warp vectors
/// concatenate, wall time takes the round's parallel max.
fn merge_into(merged: &mut MatchOutcome, round: &[MatchOutcome]) {
    let mut round_elapsed = 0u64;
    for o in round {
        merged.count += o.count;
        merged.metrics.warps.extend(o.metrics.warps.iter().copied());
        merged.metrics.kernel_launches += o.metrics.kernel_launches;
        merged.metrics.contained_panics += o.metrics.contained_panics;
        round_elapsed = round_elapsed.max(o.metrics.elapsed_nanos);
        merged.timed_out |= o.timed_out;
        merged.downgrades.extend(o.downgrades.iter().copied());
        if let Some(f) = &o.fault {
            let r = report_mut(merged);
            r.deaths.extend(f.deaths.iter().cloned());
            r.requeued += f.requeued;
            r.salvage_launches += f.salvage_launches;
            r.unrecovered += f.unrecovered;
            r.escaped_panics += f.escaped_panics;
        }
    }
    // Shards of one round run in parallel; successive rounds serialize.
    merged.metrics.elapsed_nanos += round_elapsed;
    // Over every warp of every shard: spills and tails sum, the peak is the
    // worst warp's.
    let total = merged.metrics.total();
    merged.spill_events = total.spill_events;
    merged.peak_slab_cells = total.peak_slab_cells;
    merged.tail = [total.tail_streams, total.tail_survivors];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::fault::FaultPlan;
    use stmatch_gpusim::GridConfig;
    use stmatch_graph::gen;
    use stmatch_pattern::catalog;

    fn small_grid() -> GridConfig {
        GridConfig {
            num_blocks: 2,
            warps_per_block: 2,
            shared_mem_per_block: stmatch_gpusim::SharedBudget::RTX3090_BYTES,
        }
    }

    fn skewed() -> Graph {
        gen::preferential_attachment(120, 4, 7).degree_ordered()
    }

    #[test]
    fn shard_plan_partitions_the_domain() {
        let g = skewed();
        for shards in [1, 3, 4, 7] {
            for plan in [
                ShardPlan::contiguous(&g, shards),
                ShardPlan::work_aware(&g, shards),
            ] {
                assert_eq!(plan.num_shards(), shards);
                assert_eq!(plan.cuts[0], 0);
                assert_eq!(*plan.cuts.last().unwrap(), g.num_vertices());
                assert!(plan.cuts.windows(2).all(|w| w[0] <= w[1]));
                // The order must be a permutation of the vertex set.
                let mut sorted = plan.order.clone();
                sorted.sort_unstable();
                let all: Vec<VertexId> = g.vertices().collect();
                assert_eq!(sorted, all);
            }
        }
    }

    #[test]
    fn work_aware_split_balances_skew_better() {
        let g = skewed();
        let w = stats::level0_weights(&g);
        let shards = 4;
        let spread = |loads: &[u64]| loads.iter().max().unwrap() - loads.iter().min().unwrap();
        let contiguous = ShardPlan::contiguous(&g, shards).shard_loads(&w);
        let aware = ShardPlan::work_aware(&g, shards).shard_loads(&w);
        assert_eq!(
            contiguous.iter().sum::<u64>(),
            aware.iter().sum::<u64>(),
            "both splits cover the same total weight"
        );
        assert!(
            spread(&aware) < spread(&contiguous),
            "LPT must beat positional on a degree-ordered skewed graph: {aware:?} vs {contiguous:?}"
        );
    }

    #[test]
    fn sharded_counts_match_single_grid() {
        let g = skewed();
        let base = Engine::new(EngineConfig::default().with_grid(small_grid()));
        for q in [1, 6, 8] {
            let p = catalog::paper_query(q);
            let expected = base.run(&g, &p).unwrap().count;
            for shards in [1, 2, 4] {
                for work_aware in [false, true] {
                    let mut cfg = EngineConfig::default()
                        .with_grid(small_grid())
                        .with_shards(shards);
                    cfg.shard.work_aware = work_aware;
                    let out = Engine::new(cfg).run_sharded(&g, &p).unwrap();
                    assert_eq!(
                        out.outcome.count, expected,
                        "q{q} shards={shards} work_aware={work_aware}"
                    );
                    assert!(out.recovery_rounds == 0 && out.degradations.is_empty());
                    assert_eq!(out.per_shard.len(), shards);
                }
            }
        }
    }

    #[test]
    fn shard_kill_recovers_exactly() {
        let g = skewed();
        let p = catalog::paper_query(6);
        let base = Engine::new(EngineConfig::default().with_grid(small_grid()));
        let expected = base.run(&g, &p).unwrap().count;
        let cfg = EngineConfig::default()
            .with_grid(small_grid())
            .with_shards(4);
        // The victim's reclaimed payloads cross the rail's requeue; its
        // unclaimed ranges go to a recovery round.
        let plan = FaultPlan::seeded_shard_kill(0x5eed, 4, 1);
        let out = Engine::new(cfg)
            .with_fault_plan(plan)
            .run_sharded(&g, &p)
            .unwrap();
        assert_eq!(out.outcome.count, expected);
        let report = out.outcome.fault.as_ref().expect("deaths were injected");
        assert!(report.fully_recovered());
        assert!(report.deaths.len() >= small_grid().total_warps());
        assert!(report.reproduce.is_some(), "seeded plans carry a line");
        assert_eq!(out.rail.shard_deaths, 1);
        assert!(
            out.rail.requeue_pushes > 0,
            "a killed shard's reclaimed stacks must cross the rail's requeue"
        );
    }

    #[test]
    fn all_shards_dead_falls_back_to_single_grid() {
        let g = skewed();
        let p = catalog::paper_query(6);
        let base = Engine::new(EngineConfig::default().with_grid(small_grid()));
        let expected = base.run(&g, &p).unwrap().count;
        let mut cfg = EngineConfig::default()
            .with_grid(small_grid())
            .with_shards(2);
        cfg.recovery.shard_retries = 0; // straight to the cold fallback
        let plan = FaultPlan::new().shard_kill_at(0, 1).shard_kill_at(1, 1);
        let out = Engine::new(cfg)
            .with_fault_plan(plan)
            .run_sharded(&g, &p)
            .unwrap();
        assert_eq!(out.outcome.count, expected, "fallback stays count-exact");
        assert_eq!(out.degradations, vec![ShardStep::SingleGrid]);
        assert_eq!(out.recovery_rounds, 1);
        assert_eq!(out.rail.shard_deaths, 2);
        assert!(out.outcome.fault.as_ref().unwrap().fully_recovered());
    }

    #[test]
    fn recovery_ladder_halves_before_fallback() {
        let g = skewed();
        let p = catalog::paper_query(1);
        let base = Engine::new(EngineConfig::default().with_grid(small_grid()));
        let expected = base.run(&g, &p).unwrap().count;
        // Kill every shard so the join is guaranteed to leave work; the
        // first recovery round must be FewerShards under the default
        // retry budget.
        let cfg = EngineConfig::default()
            .with_grid(small_grid())
            .with_shards(4);
        let plan = FaultPlan::new()
            .shard_kill_at(0, 1)
            .shard_kill_at(1, 1)
            .shard_kill_at(2, 1)
            .shard_kill_at(3, 1);
        let out = Engine::new(cfg)
            .with_fault_plan(plan)
            .run_sharded(&g, &p)
            .unwrap();
        assert_eq!(out.outcome.count, expected);
        assert!(out.recovery_rounds >= 1);
        assert!(matches!(
            out.degradations[0],
            ShardStep::FewerShards { from: 4, to: 2 }
        ));
        assert!(out.outcome.fault.as_ref().unwrap().fully_recovered());
    }

    #[test]
    fn merged_cycles_are_global_bottleneck() {
        let g = skewed();
        let p = catalog::paper_query(6);
        let cfg = EngineConfig::default()
            .with_grid(small_grid())
            .with_shards(2);
        let out = Engine::new(cfg).run_sharded(&g, &p).unwrap();
        let per_shard_max = out
            .per_shard
            .iter()
            .map(MatchOutcome::simulated_cycles)
            .max()
            .unwrap();
        assert_eq!(out.outcome.simulated_cycles(), per_shard_max);
        assert_eq!(
            out.outcome.metrics.warps.len(),
            2 * small_grid().total_warps()
        );
    }
}
