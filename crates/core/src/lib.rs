//! # stmatch-core — the STMatch engine
//!
//! A Rust reproduction of *STMatch: Accelerating Graph Pattern Matching on
//! GPU with Stack-Based Loop Optimizations* (SC 2022), running on the
//! software GPU execution model of [`stmatch_gpusim`].
//!
//! The engine implements the paper's full design:
//!
//! * a **stack-based matching kernel** (Fig. 3): the whole match runs in a
//!   single grid launch, with each warp simulating the recursive
//!   backtracking procedure on an explicit call stack — no per-level
//!   synchronization, no materialized partial subgraphs;
//! * **two-level work stealing** (§V): pull-based stealing inside a
//!   threadblock, push-based stealing across threadblocks through the
//!   `is_idle` bitmap and `global_stks` slots;
//! * **loop unrolling** (§VI): up to `UNROLL` iterations' candidate-set
//!   computations combined into shared warp-wide waves (Fig. 8),
//!   recovering SIMT lane utilization on sparse graphs;
//! * **loop-invariant code motion** (§VII): executed from the compact
//!   dependence encoding compiled by [`stmatch_pattern::MatchPlan`],
//!   including merged multi-label intermediate sets.
//!
//! On top of the paper's design the engine is **fault tolerant**: warp
//! panics are contained per warp and the dead warp's unfinished work is
//! requeued for survivors ([`fault`]), launch-planning failures walk a
//! count-invariant degradation ladder ([`recover`]), and a deterministic
//! fault-injection plan ([`FaultPlan`]) makes all of it testable.
//!
//! ## Quick start
//!
//! ```
//! use stmatch_core::{Engine, EngineConfig};
//! use stmatch_graph::gen;
//! use stmatch_pattern::catalog;
//!
//! let graph = gen::erdos_renyi(100, 400, 42);
//! let engine = Engine::new(EngineConfig::default());
//! let triangles = engine.run(&graph, &catalog::triangle()).unwrap();
//! println!("{} triangles", triangles.count);
//! ```

pub mod arena;
pub mod config;
pub mod delta;
pub mod engine;
pub mod fault;
pub mod kernel;
pub mod pool;
pub mod recover;
pub mod service;
pub mod setops;
pub mod shard;
pub mod steal;

pub use config::{CompileTuning, DeltaTuning, EngineConfig, HubBitmapTuning, ShardTuning};
pub use delta::{DeltaPlans, MatchDelta};
pub use engine::{Engine, Enumeration, Launch, MatchOutcome};
pub use fault::{FaultKind, FaultPlan, FaultReport, WarpDeath};
pub use pool::{ArenaPool, WarmSlot};
pub use recover::{DowngradeStep, RecoveryPolicy, ShardStep};
pub use service::{
    CacheStats, MatchService, Priority, QueryOptions, ServiceConfig, ServiceError, Ticket,
    WatchEvent, WatchId,
};
pub use shard::{ShardPlan, ShardedOutcome};
pub use steal::RailStats;
pub use stmatch_gpusim::LaunchError;
