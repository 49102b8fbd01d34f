//! Engine configuration and the paper's ablation presets.

use crate::recover::RecoveryPolicy;
use crate::setops::SetOpTuning;
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
    /// Levels `< stop_level` are stealable (Algorithm 2's `StopLevel`).
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
    /// Size-ratio thresholds steering the adaptive set-operation kernels
    /// (binary search / linear merge / galloping search, plus the
    /// hub-bitmap probe/merge paths when [`EngineConfig::hub_bitmap`] is
    /// enabled). Host-side only for the element-stream algorithms: tuning
    /// never changes results, and only the bitmap-merge paths change
    /// simulator metrics.
    pub setops: SetOpTuning,
    /// Hub-bitmap index routing (see `stmatch_graph::bitmap` and
    /// DESIGN.md §4f): whether the stream interpreter's set operations
    /// carry hub rows. Disabled by default: the engine then ignores any
    /// index attached to the graph, and every simulated metric is the
    /// element paths'.
    pub hub_bitmap: HubBitmapTuning,
    /// Bounds on automatic fault recovery: the degradation ladder taken on
    /// launch-planning failures and the salvage relaunches draining work
    /// requeued from dead warps (see `recover` and DESIGN.md §4d).
    /// [`RecoveryPolicy::disabled`] restores fail-fast launches.
    pub recovery: RecoveryPolicy,
    /// Inert; see [`CompileTuning`].
    pub compile: CompileTuning,
    /// Sharded multi-grid execution (see `shard` and DESIGN.md §4i):
    /// work-aware partitioning of the level-0 domain, cross-shard range
    /// stealing, and shard-level fault recovery. Calling
    /// `Engine::run_plan_sharded` is the request; the resident service
    /// routes its queries there iff `shards > 1`.
    pub shard: ShardTuning,
    /// Batch-dynamic incremental matching (see `delta` and DESIGN.md §4k):
    /// how `Engine::run_delta`'s anchored launches are shaped, and whether
    /// a `MatchService` keeps a mutable overlay
    /// (`apply_batch`/`submit_watch`).
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
            setops: SetOpTuning::default(),
            hub_bitmap: HubBitmapTuning::default(),
            recovery: RecoveryPolicy::default(),
            compile: CompileTuning::default(),
            shard: ShardTuning::default(),
            delta: DeltaTuning::default(),
        }
    }
}

/// Incremental-matching tuning: how delta launches are shaped, and whether
/// a resident service keeps a mutable overlay.
///
/// No engine path reads `enabled`: calling `Engine::run_delta` is the
/// request. Delta mode is exact (oracle-tested against full
/// recomputation), but it is a *different* workload: level-0 domains of
/// update-edge endpoints on small grids, with symmetry breaking replaced by
/// automorphism division.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaTuning {
    /// Service only: keep a delta overlay over the resident graph, so the
    /// service accepts `apply_batch` / `submit_watch` (default `false`:
    /// the graph is immutable and shared as is).
    pub enabled: bool,
    /// Grid geometry for anchored delta launches. A launch's level-0 domain
    /// is one side of the batch — two indices per update edge, claimed as
    /// chunks off the ordinary dispenser — and a batch makes two launches
    /// per pattern edge, so the default is a single warp: a service-sized
    /// grid would park dozens of warps on a few hundred indices. Wider
    /// grids are exact too (stolen and requeued work carries its stage).
    pub grid: GridConfig,
    /// Service only: fold the overlay into a fresh CSR after this many
    /// applied batches (0 = never compact). Compaction re-indexes vertices
    /// that became hubs and resets per-query patch-lookup overhead.
    pub compact_every: u32,
}

impl Default for DeltaTuning {
    fn default() -> Self {
        DeltaTuning {
            enabled: false,
            grid: GridConfig {
                num_blocks: 1,
                warps_per_block: 1,
                ..GridConfig::default()
            },
            compact_every: 64,
        }
    }
}

/// Sharding tuning: how many concurrently running grids ("shards") a
/// sharded run is split over, and which balancing features are on.
///
/// Sharding never changes match results — the shards partition the level-0
/// domain exactly, and shard-death recovery is count-invariant (see
/// `shard` and DESIGN.md §4i).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardTuning {
    /// Number of shards (concurrent grids) per sharded run (default 1).
    /// The resident service serves queries sharded iff this exceeds 1.
    pub shards: usize,
    /// Partition the level-0 domain by per-vertex work weights
    /// (degree/intersection skew) instead of contiguous equal slices
    /// (default `true`).
    pub work_aware: bool,
    /// Let idle shards steal level-0 ranges from loaded ones over the
    /// cross-shard rail (default `true`).
    pub cross_steal: bool,
}

impl Default for ShardTuning {
    fn default() -> Self {
        ShardTuning {
            shards: 1,
            work_aware: true,
            cross_steal: true,
        }
    }
}

/// Inert, kept for `benchmark/`: no engine or service path reads any field
/// (one interpreter runs every plan's lowered stream, DESIGN.md §4h).
/// Deleted with the benchmark's `compile.*` legs by ROADMAP item 2.
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

/// Hub-bitmap index knob: whether the stream interpreter routes bitmap rows
/// into its set operations, and which degree makes a vertex a hub.
///
/// When `enabled`, the engine uses the graph's attached
/// [`HubBitmapIndex`](stmatch_graph::HubBitmapIndex) or builds one at
/// `hub_threshold` per run; the interpreter then hands each set operation
/// the rows of its hub operands, of inputs that are a hub's neighbor list
/// or a sealed bitmap result, and runs all-hub chains fused. Bitmap routing
/// never changes match results — only host algorithms and the wave
/// structure of bitmap merges. Composes with every other knob; anchored
/// delta launches alone run without it (stage views carry no index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HubBitmapTuning {
    /// Route set operations through hub-bitmap paths (default `false`).
    pub enabled: bool,
    /// Vertices with `degree > hub_threshold` (strict) get bitmap rows
    /// when the engine builds the index itself (default 32). Ignored when
    /// the graph already carries an index.
    pub hub_threshold: usize,
}

impl Default for HubBitmapTuning {
    fn default() -> Self {
        HubBitmapTuning {
            enabled: false,
            hub_threshold: 32,
        }
    }
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

    /// Returns a copy with hub-bitmap routing switched on or off.
    pub fn with_hub_bitmap(mut self, enabled: bool) -> Self {
        self.hub_bitmap.enabled = enabled;
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
        assert!(self.max_degree_slab >= 1, "max_degree_slab must be >= 1");
        assert!(self.chunk_size >= 1, "chunk_size must be >= 1");
        assert!(self.shard.shards >= 1, "shard count must be >= 1");
        assert!(
            self.delta.grid.num_blocks >= 1 && self.delta.grid.warps_per_block >= 1,
            "delta grid must have at least one warp"
        );
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
        // Recovery is on by default, fault injection is not (plans attach
        // to the Engine, never to the config).
        assert!(c.recovery.max_downgrades > 0);
        assert!(c.recovery.salvage_relaunches > 0);
        // Bitmap routing defaults off so baselines stay bit-identical.
        assert!(!c.hub_bitmap.enabled);
        assert_eq!(c.hub_bitmap.hub_threshold, 32);
        assert!(c.with_hub_bitmap(true).hub_bitmap.enabled);
        // Inert, but `benchmark/` builds its legs from these defaults.
        assert!(!c.compile.enabled);
        assert_eq!(c.compile.tier_up_after, 4096);
        assert!(c.compile.specialize);
        assert!(c.with_compile(true).compile.enabled);
        // One shard by default (the service then stays on the single-grid
        // route), with the balancing features armed for wider runs.
        assert_eq!(c.shard.shards, 1);
        assert!(c.shard.work_aware);
        assert!(c.shard.cross_steal);
        assert_eq!(c.with_shards(8).shard.shards, 8);
        // A resident service keeps no overlay by default; anchored delta
        // launches run on a one-warp grid.
        assert!(!c.delta.enabled);
        assert_eq!(c.delta.grid.num_blocks, 1);
        assert_eq!(c.delta.grid.warps_per_block, 1);
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
}
