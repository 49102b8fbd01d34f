//! Query patterns and matching plans for the STMatch reproduction.
//!
//! This crate owns everything that is computed *per query* before matching
//! starts:
//!
//! * [`Pattern`] — a small (≤ 8 vertex) connected query graph with optional
//!   vertex labels.
//! * [`catalog`] — the 24 evaluation queries `q1..q24` of the paper plus
//!   classic motifs used in tests.
//! * [`order`] — Dryadic-style static matching-order selection.
//! * [`symmetry`] — automorphism-group computation and symmetry-breaking
//!   partial orders, so each subgraph is counted once.
//! * [`plan`] — compilation of (pattern, order) into a [`plan::MatchPlan`]:
//!   the per-level candidate-set programs, with or without loop-invariant
//!   code motion (§VII of the paper), including the compact dependence-graph
//!   encoding of Fig. 9b and the merged multi-label intermediate sets of
//!   Fig. 10b.

pub mod bytecode;
pub mod catalog;
pub mod iso;
pub mod order;
pub mod pattern;
pub mod plan;
pub mod symmetry;

pub use bytecode::{BytecodeError, Instr, OpCode, PlanBytecode, SlotTable};
pub use pattern::{Pattern, MAX_PATTERN_SIZE};
pub use plan::{LabelMask, MatchPlan, OpKind, PlanOptions, SetDef};
