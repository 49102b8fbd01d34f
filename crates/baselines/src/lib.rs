//! Baseline pattern-matching systems.
//!
//! Four comparators for the STMatch engine:
//!
//! * [`reference`] — a trivially-correct recursive enumerator used as the
//!   test oracle. It shares no set-operation machinery with the engines
//!   (adjacency is checked edge-by-edge), so agreement is meaningful.
//! * [`dryadic`] — a Dryadic-like multicore CPU engine: nested-loop
//!   backtracking over the compiled [`stmatch_pattern::MatchPlan`] (with
//!   code motion), parallelized over first-level chunks with a shared work
//!   queue. This is the paper's state-of-the-art CPU comparator.
//! * [`cuts`] — a cuTS-like subgraph-centric engine on the simulated GPU:
//!   level-synchronous expansion with materialized partial subgraphs, one
//!   kernel launch per extension step, and a device-memory budget that
//!   makes it fail with OOM on dense inputs (the '×' entries of Table II).
//! * [`gsi`] — a GSI-like BFS join engine for labeled matching with a
//!   partial-subgraph table.

pub mod cuts;
pub mod dryadic;
mod extend;
pub mod gsi;
pub mod reference;
