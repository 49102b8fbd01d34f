//! Engine configuration and the paper's ablation presets.

use crate::steal::MAX_STOP;
use stmatch_gpusim::{GridConfig, WARP_SIZE};

/// Largest supported unroll size, and the widest claim a level's slot
/// table may grant. The combined set operations map one unroll slot's size
/// per prefix-scan lane (Fig. 8), so a batch can never span more slots than
/// the warp has lanes.
pub const MAX_UNROLL: usize = stmatch_pattern::bytecode::MAX_UNROLL;
const _: () = assert!(MAX_UNROLL == WARP_SIZE);

/// Configuration of the STMatch engine.
///
/// Field defaults follow §VIII-A of the paper — `StopLevel = 2`, unroll
/// size 8, `MAX_DEGREE = 4096` — except `DetectLevel` (see its field doc).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Grid geometry (blocks × warps per block).
    pub grid: GridConfig,
    /// Loop-unrolling size (Fig. 7/8): the *floor* of how many iterations a
    /// deep level claims at once — their set operations combined into one
    /// warp-wide operation — and, as `NUM_SETS × unroll` slots, the arena's
    /// byte budget. Each level's actual width is the widest the budget
    /// affords (`PlanBytecode::slot_table`, DESIGN.md §4): up to
    /// [`MAX_UNROLL`] where the claimed batch writes no set. 1 disables
    /// unrolling at every level.
    pub unroll: usize,
    /// Levels `< stop_level` are stealable (Algorithm 2's `StopLevel`); at
    /// most [`MAX_STOP`], the depth of the stealable mirror.
    pub stop_level: usize,
    /// Busy warps test for idle blocks when claiming work at a level
    /// `< detect_level` (§V-B's `DetectLevel`). Meaningful values are
    /// `1..=stop_level`. The paper uses 1 on a 2624-warp GPU; with the
    /// simulator's much smaller grids, detection must fire on every
    /// shallow claim or endgame imbalance dominates, so the default is 2.
    pub detect_level: usize,
    /// Number of outermost-loop vertices claimed per level-0 chunk (Fig. 4).
    pub chunk_size: usize,
    /// Enable intra-threadblock work stealing (§V-A).
    pub local_steal: bool,
    /// Enable cross-threadblock work stealing (§V-B).
    pub global_steal: bool,
    /// Enable loop-invariant code motion (§VII).
    pub code_motion: bool,
    /// Count each subgraph once (true) or each embedding (false).
    pub symmetry_breaking: bool,
    /// Vertex-induced (true) vs edge-induced (false) matching.
    pub induced: bool,
    /// Candidate-set slab capacity per (set, unroll slot); the paper's
    /// `MAX_DEGREE`. Sizes both the memory accounting and the flat stack
    /// arena's per-slot slabs — slabs spill transparently to the heap when
    /// a candidate list outgrows them, like the paper's CPU-memory
    /// overflow for hubs (see `arena`).
    pub max_degree_slab: usize,
    /// Inert; see [`SetOpTuning`].
    pub setops: SetOpTuning,
    /// Inert; see [`HubBitmapTuning`].
    pub hub_bitmap: HubBitmapTuning,
    /// Inert; see [`CompileTuning`].
    pub compile: CompileTuning,
    /// Sharded multi-grid execution (see `shard` and DESIGN.md §4i): a
    /// static, work-aware split of the level-0 domain. The shard count is
    /// the route: `Engine::launch` splits every whole-graph request —
    /// `run`, `enumerate`, the resident service's queries — iff
    /// `shards > 1`.
    pub shard: ShardTuning,
    /// Batch-dynamic incremental matching (see `delta` and DESIGN.md §4k):
    /// whether a `MatchService` keeps a mutable overlay
    /// (`apply_batch`/`submit_watch`), and how often it compacts. Anchored
    /// delta launches run on [`EngineConfig::grid`], like every launch.
    pub delta: DeltaTuning,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            grid: GridConfig::default(),
            unroll: 8,
            stop_level: 2,
            detect_level: 2,
            chunk_size: 4,
            local_steal: true,
            global_steal: true,
            code_motion: true,
            symmetry_breaking: true,
            induced: false,
            max_degree_slab: 4096,
            setops: SetOpTuning,
            hub_bitmap: HubBitmapTuning::default(),
            compile: CompileTuning::default(),
            shard: ShardTuning::default(),
            delta: DeltaTuning::default(),
        }
    }
}

/// Incremental-matching tuning: whether a resident service keeps a mutable
/// overlay, and how often it folds it.
///
/// No engine path reads `enabled`: calling `DeltaPlans::count` is the
/// request. Delta mode is exact (oracle-tested against full
/// recomputation), but it is a *different* workload: level-0 domains of
/// update-edge endpoints, with each anchored plan breaking only its anchor
/// edge's stabilizer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaTuning {
    /// Service only: keep a delta overlay over the resident graph, so the
    /// service accepts `apply_batch` / `submit_watch` (default `false`:
    /// the graph is immutable and shared as is).
    pub enabled: bool,
    /// Service only: fold the overlay into a fresh CSR after this many
    /// applied batches (0 = never compact). Compaction re-indexes vertices
    /// that became hubs and resets per-query patch-lookup overhead.
    pub compact_every: u32,
}

impl Default for DeltaTuning {
    fn default() -> Self {
        DeltaTuning {
            enabled: false,
            compact_every: 64,
        }
    }
}

/// Sharding tuning: how many concurrently running grids ("shards") a
/// whole-graph launch is split over, and how the level-0 domain is split.
/// The split is static, as in the paper: each shard works only its own
/// slice.
///
/// Sharding never changes match results — the shards partition the level-0
/// domain exactly, and shard-death recovery is count-invariant (see
/// `shard` and DESIGN.md §4i).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardTuning {
    /// Number of shards (concurrent grids) per whole-graph launch (default
    /// 1: one grid). Every route splits iff this exceeds 1.
    pub shards: usize,
    /// Partition the level-0 domain by per-vertex work weights
    /// (degree/intersection skew) instead of contiguous equal slices
    /// (default `true`).
    pub work_aware: bool,
    /// Inert, kept for `benchmark/`: no engine path reads it. Shards never
    /// steal from each other, whatever it says.
    pub cross_steal: bool,
}

impl Default for ShardTuning {
    fn default() -> Self {
        ShardTuning {
            shards: 1,
            work_aware: true,
            cross_steal: false,
        }
    }
}

/// Inert, kept for `benchmark/`: no engine or service path reads any field
/// (one interpreter runs every plan's lowered stream, DESIGN.md §4h).
/// Deleted with the benchmark's `compile.*` legs by ROADMAP item 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompileTuning {
    pub enabled: bool,
    pub tier_up_after: u64,
    pub specialize: bool,
}

impl Default for CompileTuning {
    fn default() -> Self {
        CompileTuning {
            enabled: false,
            tier_up_after: 4096,
            specialize: true,
        }
    }
}

/// Inert, kept for `benchmark/`: no engine or service path reads it.
/// Hub rows follow the graph — a launch routes them into its set operations
/// iff the graph carries a
/// [`HubBitmapIndex`](stmatch_graph::HubBitmapIndex), attached by the
/// caller with `Graph::with_hub_bitmap(threshold)` (DESIGN.md §4f).
/// `hub_threshold` (32) is only a default a caller may pass there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HubBitmapTuning {
    pub hub_threshold: usize,
}

impl Default for HubBitmapTuning {
    fn default() -> Self {
        HubBitmapTuning { hub_threshold: 32 }
    }
}

/// Inert, kept for `benchmark/`: no engine path reads it, and a forced
/// tuning equals the default. Each set-operation slot's host loop follows
/// from its shape — the lengths, which sides carry a bitmap row and the op
/// kind (`setops` module docs, DESIGN.md §4) — and the simulated charge
/// never read it. Deleted with the benchmark's `setops.*_run_ms_p50` legs by
/// ROADMAP item 1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SetOpTuning;

impl SetOpTuning {
    /// Inert: the default tuning, whatever `algo` names.
    pub fn forced(_algo: SetOpAlgo) -> Self {
        SetOpTuning
    }
}

/// Inert names of the host loops [`SetOpTuning::forced`] used to pin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetOpAlgo {
    BinarySearch,
    Merge,
    Gallop,
}

impl EngineConfig {
    /// The `naive` ablation point of Fig. 12: outer-loop parallelization
    /// with neither stealing nor unrolling (code motion stays on, as in the
    /// paper's ablation).
    pub fn naive() -> Self {
        EngineConfig {
            local_steal: false,
            global_steal: false,
            unroll: 1,
            ..Self::default()
        }
    }

    /// `localsteal`: intra-block stealing only.
    pub fn local_steal_only() -> Self {
        EngineConfig {
            local_steal: true,
            global_steal: false,
            unroll: 1,
            ..Self::default()
        }
    }

    /// `local+globalsteal`: both stealing levels, no unrolling.
    pub fn local_global_steal() -> Self {
        EngineConfig {
            local_steal: true,
            global_steal: true,
            unroll: 1,
            ..Self::default()
        }
    }

    /// `unroll+local+globalsteal`: the full system.
    pub fn full() -> Self {
        Self::default()
    }

    /// Effective stop level for a pattern of `k` levels: stealing below the
    /// last level only.
    pub fn effective_stop(&self, k: usize) -> usize {
        self.stop_level.min(k.saturating_sub(1)).max(1)
    }

    /// Returns a copy with the given induced mode.
    pub fn induced(mut self, induced: bool) -> Self {
        self.induced = induced;
        self
    }

    /// Returns a copy with the given unroll size.
    pub fn with_unroll(mut self, unroll: usize) -> Self {
        assert!(
            (1..=MAX_UNROLL).contains(&unroll),
            "unroll must be in 1..={MAX_UNROLL}"
        );
        self.unroll = unroll;
        self
    }

    /// Returns a copy with the given grid geometry.
    pub fn with_grid(mut self, grid: GridConfig) -> Self {
        self.grid = grid;
        self
    }

    /// Inert; see [`HubBitmapTuning`].
    pub fn with_hub_bitmap(self, _enabled: bool) -> Self {
        self
    }

    /// Inert; see [`CompileTuning`].
    pub fn with_compile(mut self, enabled: bool) -> Self {
        self.compile.enabled = enabled;
        self
    }

    /// Returns a copy whose resident service keeps (or not) a delta
    /// overlay; see [`DeltaTuning::enabled`].
    pub fn with_delta(mut self, enabled: bool) -> Self {
        self.delta.enabled = enabled;
        self
    }

    /// Returns a copy with the given shard count for sharded runs.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        self.shard.shards = shards;
        self
    }

    /// Validates internal consistency; every launch entry point calls this
    /// before building warp state, so a malformed config fails loudly at
    /// the API boundary instead of corrupting a lane mapping deep in the
    /// set-op stream.
    pub fn validate(&self) {
        assert!(
            self.unroll >= 1 && self.unroll <= MAX_UNROLL,
            "unroll must be in 1..={MAX_UNROLL}: the combined set ops map \
             one unroll slot per warp lane (got {})",
            self.unroll
        );
        assert!(
            self.detect_level <= self.stop_level,
            "DetectLevel ({}) must not exceed StopLevel ({})",
            self.detect_level,
            self.stop_level
        );
        assert!(
            self.stop_level <= MAX_STOP,
            "stop_level ({}) must not exceed MAX_STOP ({MAX_STOP}), the depth of \
             the stealable mirror",
            self.stop_level
        );
        assert!(self.max_degree_slab >= 1, "max_degree_slab must be >= 1");
        assert!(self.chunk_size >= 1, "chunk_size must be >= 1");
        assert!(self.shard.shards >= 1, "shard count must be >= 1");
        // Malformed *streams* are rejected when the plan is compiled, by
        // `PlanBytecode::verify` with a named BytecodeError (same fail-loud
        // boundary as the unroll assertion above).
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = EngineConfig::default();
        assert_eq!(c.unroll, 8);
        assert_eq!(c.stop_level, 2);
        assert_eq!(c.detect_level, 2);
        assert_eq!(c.max_degree_slab, 4096);
        assert!(c.code_motion);
        // Inert, but `benchmark/` builds its legs from these defaults.
        assert_eq!(c.hub_bitmap.hub_threshold, 32);
        assert_eq!(c.with_hub_bitmap(true), c);
        assert!(!c.compile.enabled);
        assert_eq!(c.compile.tier_up_after, 4096);
        assert!(c.compile.specialize);
        assert!(c.with_compile(true).compile.enabled);
        for algo in [SetOpAlgo::BinarySearch, SetOpAlgo::Merge, SetOpAlgo::Gallop] {
            assert_eq!(SetOpTuning::forced(algo), c.setops);
        }
        // One shard by default (the service then stays on the single-grid
        // route), with the work-aware split armed for wider runs.
        assert_eq!(c.shard.shards, 1);
        assert!(c.shard.work_aware);
        assert_eq!(c.with_shards(8).shard.shards, 8);
        // A resident service keeps no overlay by default.
        assert!(!c.delta.enabled);
        assert_eq!(c.delta.compact_every, 64);
        assert!(c.with_delta(true).delta.enabled);
    }

    #[test]
    fn ablation_presets_differ_as_expected() {
        assert!(!EngineConfig::naive().local_steal);
        assert!(EngineConfig::local_steal_only().local_steal);
        assert!(!EngineConfig::local_steal_only().global_steal);
        assert!(EngineConfig::local_global_steal().global_steal);
        assert_eq!(EngineConfig::local_global_steal().unroll, 1);
        assert_eq!(EngineConfig::full().unroll, 8);
    }

    #[test]
    fn effective_stop_clamps_to_pattern_depth() {
        let c = EngineConfig::default();
        assert_eq!(c.effective_stop(7), 2);
        assert_eq!(c.effective_stop(2), 1);
        assert_eq!(c.effective_stop(3), 2);
    }

    #[test]
    #[should_panic(expected = "unroll")]
    fn rejects_zero_unroll() {
        let _ = EngineConfig::default().with_unroll(0);
    }

    #[test]
    fn validate_accepts_all_presets() {
        EngineConfig::default().validate();
        EngineConfig::naive().validate();
        EngineConfig::local_steal_only().validate();
        EngineConfig::local_global_steal().validate();
        EngineConfig::full().with_unroll(MAX_UNROLL).validate();
    }

    #[test]
    #[should_panic(expected = "warp lane")]
    fn validate_rejects_unroll_beyond_warp_width() {
        let c = EngineConfig {
            unroll: MAX_UNROLL + 1,
            ..EngineConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "DetectLevel")]
    fn validate_rejects_detect_above_stop() {
        let mut c = EngineConfig::default();
        c.detect_level = c.stop_level + 1;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "stop_level (5) must not exceed MAX_STOP (4)")]
    fn validate_rejects_stop_level_beyond_max_stop() {
        let c = EngineConfig {
            stop_level: MAX_STOP + 1,
            ..EngineConfig::default()
        };
        c.validate();
    }
}
