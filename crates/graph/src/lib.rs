//! Graph substrate for the STMatch reproduction.
//!
//! This crate provides the data-graph representation shared by every engine in
//! the workspace:
//!
//! * [`Graph`] — an immutable, label-aware CSR (compressed sparse row) graph
//!   with sorted adjacency lists, the format the STMatch kernel expects for
//!   its binary-search set operations.
//! * [`GraphBuilder`] — incremental construction from edge lists.
//! * [`bitmap`] — the optional hub-bitmap neighbor index: dense bitmap rows
//!   for high-degree vertices, enabling O(1) adjacency probes and
//!   word-parallel intersections in the matching engines.
//! * [`gen`] — deterministic synthetic generators (Erdős–Rényi, RMAT
//!   power-law, cliques, stars, …) used both by tests and by the dataset
//!   stand-ins.
//! * [`io`] — loaders for SNAP edge-list files and the `.lg` labeled-graph
//!   format, so real datasets can be dropped in.
//! * [`stats`] — degree statistics reproducing the columns of Table I of the
//!   paper.
//! * [`datasets`] — the registry of scaled-down stand-ins for the paper's
//!   SNAP graphs (WikiVote, Enron, MiCo, Youtube, LiveJournal, Orkut,
//!   Friendster).
//! * [`delta`] — batch-dynamic edge updates: a [`delta::DeltaOverlay`]
//!   holding the current rows of updated vertices over the immutable CSR,
//!   with O(1) snapshot views and hub-bitmap rows patched word-wise per
//!   batch (DESIGN.md §4k).

pub mod bitmap;
pub mod builder;
pub mod csr;
pub mod datasets;
pub mod delta;
pub mod gen;
pub mod io;
pub mod stats;

pub use bitmap::HubBitmapIndex;
pub use builder::GraphBuilder;
pub use csr::{mutation, Graph, VertexId};
pub use delta::{AppliedBatch, DeltaOverlay, EdgeOp};
pub use stats::GraphStats;

/// A vertex label. Label `0` is the default for unlabeled graphs.
pub type Label = u32;
