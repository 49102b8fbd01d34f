//! Named diagnostics with deterministic reproduce lines.
//!
//! Every finding the verifier emits is a [`Diagnostic`]: a machine-matchable
//! [`DiagKind`] naming the offending level/set/vertex, a human-readable
//! message, and a `reproduce:` line that re-derives the finding from scratch
//! (the PR4/PR6/PR8 convention — a diagnostic nobody can replay is a rumor,
//! not a bug report).

use stmatch_graph::VertexId;
use stmatch_pattern::symmetry::Bound;

/// What the verifier found, with the offending locus named. Kill tests match
/// on these variants (and their fields) rather than on message text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiagKind {
    /// Set `set` (computed at `level`) is never read: no level iterates it
    /// as a candidate and no other set consumes it as a dependency. Dead
    /// sets burn `unroll × MAX_DEGREE` arena cells per warp for nothing.
    DeadSet { set: u16, level: u8 },
    /// Level `level`'s candidate chain carries no intersection with any
    /// matched prefix position — candidates would be unconstrained by
    /// connectivity, enumerating the whole vertex universe.
    DisconnectedLevel { level: usize },
    /// The pattern has edge `(order[level], order[pos])` but level `level`'s
    /// candidate chain never intersects with position `pos` — the plan
    /// over-counts.
    MissingAdjacency { level: usize, pos: usize },
    /// Level `level`'s chain intersects with position `pos` although the
    /// pattern has no such edge — the plan under-counts.
    SpuriousAdjacency { level: usize, pos: usize },
    /// Vertex-induced mode: the non-edge `(order[level], order[pos])` is
    /// never subtracted at `level`.
    MissingDifference { level: usize, pos: usize },
    /// The chain subtracts position `pos` although the pattern *has* that
    /// edge (or the plan is edge-induced and must not difference at all).
    SpuriousDifference { level: usize, pos: usize },
    /// The automorphism group (an anchored plan: its anchor's setwise
    /// stabilizer) requires bound `(pos, dir)` at `level` but the plan does
    /// not carry it — some subgraphs would be counted more than once.
    MissingSymmetryBound {
        level: usize,
        pos: usize,
        dir: Bound,
    },
    /// The plan carries a bound at `level` its group does not justify —
    /// some subgraphs would never be counted.
    ExtraSymmetryBound {
        level: usize,
        pos: usize,
        dir: Bound,
    },
    /// A shard cut array is malformed at index `cut` (not starting at 0,
    /// not monotone, or not ending at the domain size).
    ShardCutMalformed { cut: usize },
    /// Vertex appears in two shard slices (`first` and `second`): its
    /// level-0 subtree would be counted twice.
    ShardOverlap {
        vertex: VertexId,
        first: usize,
        second: usize,
    },
    /// Vertex appears in no shard slice: its level-0 subtree is never
    /// expanded.
    ShardGap { vertex: VertexId },
    /// The plan failed structural bytecode validation before any dataflow
    /// analysis could run.
    BytecodeReject { detail: String },
}

/// One verifier finding: the named kind plus presentation strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub kind: DiagKind,
    /// One-line human-readable description (also names the locus).
    pub message: String,
    /// Deterministic command that re-derives this diagnostic.
    pub reproduce: String,
}

impl Diagnostic {
    pub(crate) fn new(kind: DiagKind, message: String, repro: &str) -> Diagnostic {
        Diagnostic {
            kind,
            message,
            reproduce: repro.to_string(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\n  reproduce: {}", self.message, self.reproduce)
    }
}
