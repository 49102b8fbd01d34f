//! Sharded multi-grid execution (DESIGN.md §4i): the partition and the
//! fold.
//!
//! A *shard* is one independent grid working a static slice of the level-0
//! domain — the paper's multi-GPU scheme (§VIII-B: "duplicating the input
//! graph and dividing the outermost loop iterations across GPUs"), and the
//! only multi-device path: `shards` is the device count. The slices cut one
//! global *permutation* of the level-0 vertices ([`ShardPlan`]), and each
//! shard is one grid of [`Engine::launch`] over its own slice (the
//! crate-private `Level0::Slice` domain). Shards share no state and never
//! steal from each other.
//!
//! * **Work-aware partitioning** ([`ShardPlan::work_aware`]): the domain
//!   is split by the degree/triangle weight proxy of
//!   [`stmatch_graph::stats::level0_weights`] (LPT assignment), not by
//!   position, so a skew-heavy graph does not hand one shard all the
//!   hubs. [`ShardPlan::contiguous`] keeps the positional split for
//!   comparison.
//! * **Shard-death recovery is the launch's own**: a shard whose warps all
//!   die (injected via [`FaultPlan::shard_kill_at`](crate::fault::FaultPlan)
//!   or real) finishes its own slice and reclaimed stacks in the
//!   injection-free salvage pass every launch has (at most two; see
//!   [`FaultReport::salvage_launches`]).
//!
//! The shard count is the route: [`Engine::launch`] splits every
//! whole-graph request — [`Engine::run`], [`Engine::enumerate`], the
//! resident service's queries — iff
//! [`EngineConfig::shard`](crate::EngineConfig)`.shards` exceeds 1.

use crate::config::ShardTuning;
use crate::engine::{Engine, Launch, MatchOutcome};
use crate::fault::FaultReport;
use std::convert::Infallible;
use stmatch_gpusim::{GridMetrics, LaunchError};
use stmatch_graph::{stats, Graph, VertexId};
use stmatch_pattern::MatchPlan;

/// How the level-0 domain is split across shards: one global permutation
/// of the vertices plus cut points. Shard `s` owns the virtual indices
/// `cuts[s]..cuts[s+1]` of `order`; the kernel maps a virtual index `i`
/// back to the data vertex `order[i]`, so shard `s`'s launch runs over the
/// slice `order[cuts[s]..cuts[s+1]]`.
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
    /// root — computed from `graph` itself, so a delta service's split
    /// follows the snapshot its query runs on. Deterministic: ties break
    /// on vertex id, then lowest shard.
    pub fn work_aware(graph: &Graph, shards: usize) -> ShardPlan {
        assert!(shards >= 1);
        let weights = stats::level0_weights(graph);
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

    /// Shard `s`'s slice of the level-0 order.
    pub fn slice(&self, s: usize) -> &[VertexId] {
        &self.order[self.cuts[s]..self.cuts[s + 1]]
    }

    /// Total weight each shard was assigned under `weights` (used by the
    /// bench harness to report split balance).
    pub fn shard_loads(&self, weights: &[u64]) -> Vec<u64> {
        (0..self.num_shards())
            .map(|s| self.slice(s).iter().map(|&v| weights[v as usize]).sum())
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

/// Inert, kept because `benchmark/` reads [`ShardedOutcome::rail`]:
/// shards share no rail, so nothing crosses one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RailStats {
    /// Always 0: shards never steal from each other.
    pub cross_steals: u64,
}

/// The split [`Engine::launch`] runs a sharded request over:
/// `tuning.shards` slices of `graph`, work-aware or contiguous.
pub(crate) fn split(graph: &Graph, tuning: ShardTuning) -> ShardPlan {
    let shards = tuning.shards;
    let splan = if tuning.work_aware {
        ShardPlan::work_aware(graph, shards)
    } else {
        ShardPlan::contiguous(graph, shards)
    };
    // Both built-in partitioners tile the domain by construction, so a
    // coverage diagnostic (DESIGN.md §4j) is a partitioning bug: fail
    // loudly in debug builds before a wrong count escapes.
    debug_assert!(
        splan
            .verify_cover(graph.num_vertices(), "shard::split")
            .is_empty(),
        "shard plan ({shards} shards, work_aware={}) fails exactly-once coverage",
        tuning.work_aware
    );
    splan
}

/// Result of [`Engine::run_plan_sharded`]: the launch's outcome (its
/// [`shards`](MatchOutcome::shards) holds the per-shard ones).
#[derive(Clone, Debug)]
pub struct ShardedOutcome {
    /// The launch's outcome.
    pub outcome: MatchOutcome,
    /// Inert, always zero: kept for `benchmark/`.
    pub rail: RailStats,
    /// Inert, empty by type: kept for `benchmark/`.
    pub degradations: Vec<Infallible>,
}

impl Engine {
    /// [`Engine::launch`] of a cold whole-graph request. Kept for
    /// `benchmark/`; ROADMAP item 1 deletes it.
    pub fn run_plan_sharded(
        &self,
        graph: &Graph,
        plan: &MatchPlan,
    ) -> Result<ShardedOutcome, LaunchError> {
        self.launch(&Launch::new(graph, plan))
            .map(|outcome| ShardedOutcome {
                outcome,
                rail: RailStats::default(),
                degradations: Vec::new(),
            })
    }
}

/// Merges the per-shard outcomes: counts and traffic sum, warp metric
/// vectors concatenate (not summed pairwise: the merged
/// `simulated_cycles` must be the max over *all* warps of *all* shards,
/// the quantity the scaling bench calls bottleneck time), and wall time
/// is the slowest shard's, since shards run in parallel. The shards' own
/// outcomes move into [`MatchOutcome::shards`].
pub(crate) fn merge(shards: Vec<MatchOutcome>) -> MatchOutcome {
    let mut metrics = GridMetrics::default();
    let mut fault: Option<FaultReport> = None;
    for o in &shards {
        metrics.warps.extend_from_slice(&o.metrics.warps);
        metrics.kernel_launches += o.metrics.kernel_launches;
        metrics.contained_panics += o.metrics.contained_panics;
        metrics.elapsed_nanos = metrics.elapsed_nanos.max(o.metrics.elapsed_nanos);
        if let Some(f) = &o.fault {
            let r = fault.get_or_insert_with(FaultReport::default);
            r.deaths.extend_from_slice(&f.deaths);
            r.requeued += f.requeued;
            r.salvage_launches += f.salvage_launches;
            r.unrecovered += f.unrecovered;
            r.escaped_panics += f.escaped_panics;
            // Every shard's scoped plan carries the launch's one line.
            r.reproduce = r.reproduce.take().or_else(|| f.reproduce.clone());
        }
    }
    // Over every warp of every shard: spills and tails sum, the peak is the
    // worst warp's.
    let total = metrics.total();
    let first = shards.first().expect("at least one shard");
    MatchOutcome {
        count: shards.iter().map(|o| o.count).sum(),
        metrics,
        shared_bytes_per_block: first.shared_bytes_per_block,
        stack_bytes: first.stack_bytes,
        num_sets: first.num_sets,
        timed_out: shards.iter().any(|o| o.timed_out),
        fault,
        downgrades: [],
        spill_events: total.spill_events,
        peak_slab_cells: total.peak_slab_cells,
        tail: [total.tail_streams, total.tail_survivors],
        served_tier: None,
        shards,
    }
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

    /// Every verb splits a whole-graph launch iff the configuration asks
    /// for more than one shard, and lands the single-grid count. The merged
    /// outcome concatenates the shards' warps, so its bottleneck is the
    /// slowest shard's.
    #[test]
    fn the_shard_count_is_the_route_for_every_verb() {
        let g = skewed();
        let single = Engine::new(EngineConfig::default().with_grid(small_grid()));
        let warps = small_grid().total_warps();
        for q in [1, 6, 8] {
            let p = catalog::paper_query(q);
            let one = single.run(&g, &p).unwrap();
            assert!(one.shards.is_empty(), "one grid ran");
            for shards in [1, 2, 4] {
                for work_aware in [false, true] {
                    let mut cfg = EngineConfig::default()
                        .with_grid(small_grid())
                        .with_shards(shards);
                    cfg.shard.work_aware = work_aware;
                    let out = Engine::new(cfg).run(&g, &p).unwrap();
                    let case = format!("q{q} shards={shards} work_aware={work_aware}");
                    assert_eq!(out.count, one.count, "{case}");
                    assert!(out.fault.is_none(), "{case}");
                    assert_eq!(out.metrics.warps.len(), shards * warps, "{case}");
                    // A one-shard run is one grid.
                    let grids = if shards > 1 { shards } else { 0 };
                    assert_eq!(out.shards.len(), grids, "{case}");
                    if let Some(slowest) =
                        out.shards.iter().map(MatchOutcome::simulated_cycles).max()
                    {
                        assert_eq!(out.simulated_cycles(), slowest, "{case}");
                    }
                }
            }
        }
        let p = catalog::paper_query(6);
        let sharded = Engine::new(
            EngineConfig::default()
                .with_grid(small_grid())
                .with_shards(4),
        );
        let launched = sharded
            .launch(&Launch::new(&g, &sharded.compile(&p)))
            .unwrap();
        let enumerated = sharded.enumerate(&g, &p).unwrap();
        let want = single.enumerate(&g, &p).unwrap();
        assert_eq!(enumerated.embeddings, want.embeddings);
        for out in [&launched, &enumerated.outcome] {
            assert_eq!(out.count, want.outcome.count);
            assert_eq!(out.shards.len(), 4);
            assert_eq!(out.metrics.warps.len(), 4 * warps);
        }
    }

    #[test]
    fn shards_plan_against_the_engines_memory_limit() {
        let g = gen::complete(5);
        let t = catalog::triangle();
        let cfg = EngineConfig::default().with_shards(2);
        let reserved = match Engine::with_memory_budget(cfg, 1024).run(&g, &t) {
            Err(LaunchError::GlobalMemory(oom)) => oom.requested,
            other => panic!("expected OOM, got {:?}", other.map(|o| o.count)),
        };
        // Each shard is its own device: a limit that fits the single-grid
        // launch fits every shard's launch, whichever runs first.
        let single = Engine::with_memory_budget(EngineConfig::default(), reserved)
            .run(&g, &t)
            .unwrap();
        let sharded = Engine::with_memory_budget(cfg, reserved)
            .run(&g, &t)
            .unwrap();
        assert_eq!(sharded.count, single.count);
        assert_eq!(sharded.count, 10);
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
        // Every warp of the victim dies; its salvage pass finishes the
        // reclaimed stacks and the slice it never claimed.
        let plan = FaultPlan::seeded_shard_kill(0x5eed, 4, 1);
        let out = Engine::new(cfg).with_fault_plan(plan).run(&g, &p).unwrap();
        assert_eq!(out.count, expected);
        let report = out.fault.as_ref().expect("deaths were injected");
        assert!(report.fully_recovered());
        assert!(report.reproduce.is_some(), "seeded plans carry a line");
        let salvaged: Vec<usize> = (0..4)
            .filter(|&s| {
                out.shards[s].fault.as_ref().is_some_and(|f| {
                    f.deaths.len() >= small_grid().total_warps() && f.salvage_launches > 0
                })
            })
            .collect();
        assert_eq!(
            salvaged.len(),
            1,
            "the victim salvages itself: {salvaged:?}"
        );
    }

    #[test]
    #[should_panic(expected = "shard kill names shard 7, but the run has 4 shard(s)")]
    fn a_kill_naming_a_missing_shard_is_rejected() {
        let cfg = EngineConfig::default()
            .with_grid(small_grid())
            .with_shards(4);
        let _ = Engine::new(cfg)
            .with_fault_plan(FaultPlan::new().shard_kill_at(7, 1))
            .run(&skewed(), &catalog::paper_query(1));
    }
}
