//! Batch-dynamic edge updates: a delta overlay on the immutable CSR.
//!
//! The paper's engine — and every engine in this workspace — runs on a
//! frozen [`Graph`]. Live workloads (continuous motif monitoring,
//! fraud-ring alerting) instead stream edge inserts/deletes and want each
//! batch applied for O(batch) work, not an O(graph) rebuild. Following the
//! batch-dynamic literature (see PAPERS.md), [`DeltaOverlay`] keeps the
//! base CSR untouched and holds the **current sorted row** of every vertex
//! whose row differs from the base's, in the one shared table its views
//! read:
//!
//! * [`DeltaOverlay::apply`] normalizes a batch against the current state
//!   (re-deleting an absent edge or re-inserting a present one nets to
//!   nothing, insert-then-delete inside one batch cancels), rebuilds the
//!   row of each vertex the net edges touch once, bumps the version, and
//!   returns the net [`AppliedBatch`] — the exact edge set incremental
//!   matching anchors on;
//! * [`DeltaOverlay::neighbors`] is a vertex's current row: the table's,
//!   else the base's;
//! * [`DeltaOverlay::snapshot`] is that table behind an `Arc` clone,
//!   stamped as a [`Graph`] *view* the whole engine stack consumes
//!   unchanged; a base hub-bitmap index is word-patched with each batch's
//!   net edges as the batch applies, so a snapshot only clones it;
//! * [`DeltaOverlay::compact`] folds the rows into a fresh CSR once the
//!   overlay grows past taste, re-indexing any vertices that became hubs.
//!
//! The vertex set is fixed at overlay creation; only edges change.

use crate::bitmap::HubBitmapIndex;
use crate::csr::{Graph, GraphPatch, RowMap, VertexId};
use std::sync::Arc;

/// One edge insert or delete. Endpoints are unordered (the graph is
/// undirected); self-loops are rejected at [`DeltaOverlay::apply`] time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeOp {
    pub u: VertexId,
    pub v: VertexId,
    pub insert: bool,
}

impl EdgeOp {
    /// An edge insertion.
    pub fn insert(u: VertexId, v: VertexId) -> EdgeOp {
        EdgeOp { u, v, insert: true }
    }

    /// An edge deletion.
    pub fn delete(u: VertexId, v: VertexId) -> EdgeOp {
        EdgeOp {
            u,
            v,
            insert: false,
        }
    }
}

/// The *net* effect of one applied batch: edges present after but not
/// before (`inserts`), edges present before but not after (`deletes`),
/// both normalized `u < v` and sorted, plus the overlay version the batch
/// produced. Ops that cancel inside the batch (insert-then-delete of the
/// same edge) or restate current state appear in neither list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppliedBatch {
    pub inserts: Vec<(VertexId, VertexId)>,
    pub deletes: Vec<(VertexId, VertexId)>,
    /// Overlay version after this batch (every `apply` bumps it by one,
    /// even when the batch nets to nothing).
    pub version: u64,
}

impl AppliedBatch {
    /// True when the batch netted to no topology change.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Sorted, deduplicated endpoints of all net edges — the affected
    /// vertex frontier that incremental enumeration seeds from.
    pub fn touched(&self) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = self
            .inserts
            .iter()
            .chain(&self.deletes)
            .flat_map(|&(u, v)| [u, v])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The current rows of a base [`Graph`] under a stream of edge batches.
///
/// See the module docs for the lifecycle. Not `Sync`-shared: a service
/// serializes `apply`/`snapshot` behind one lock and hands out snapshot
/// views (cheap `Arc`-backed graphs) for concurrent readers.
#[derive(Clone, Debug)]
pub struct DeltaOverlay {
    base: Graph,
    /// The current row of every vertex whose row differs from the base's,
    /// the current edge count and a running upper bound on the degree.
    /// Shared with every snapshot still alive; `apply` copies the table
    /// only while one is.
    patch: Arc<GraphPatch>,
    /// The base's hub-bitmap index patched through the last batch.
    index: Option<HubBitmapIndex>,
    /// Bumped once per `apply`; snapshots and patched hub indexes carry it.
    version: u64,
}

/// A patch with no rows over `base`: its edge count and degree bound.
fn no_rows(base: &Graph) -> Arc<GraphPatch> {
    Arc::new(GraphPatch {
        rows: RowMap::default(),
        num_edges: base.num_edges(),
        max_degree: base.max_degree(),
    })
}

impl DeltaOverlay {
    /// Wraps `base` (which must be a plain CSR, not itself a patched
    /// view — compact a view before layering a new overlay on it).
    pub fn new(base: Graph) -> DeltaOverlay {
        assert!(
            !base.is_view(),
            "DeltaOverlay requires a plain CSR base; compact the view first"
        );
        DeltaOverlay {
            version: base.version(),
            patch: no_rows(&base),
            index: base.hub_bitmap().cloned(),
            base,
        }
    }

    /// The base CSR (pre-overlay; use [`DeltaOverlay::snapshot`] for the
    /// current graph).
    pub fn base(&self) -> &Graph {
        &self.base
    }

    /// Current overlay version (bumped once per applied batch).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of vertices (fixed for the overlay's lifetime).
    pub fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    /// Undirected edge count of the current graph.
    pub fn num_edges(&self) -> usize {
        self.patch.num_edges
    }

    /// Degree of `v` in the current graph.
    pub fn degree(&self, v: VertexId) -> usize {
        self.neighbors(v).len()
    }

    /// Edge test against the current graph: a binary search of `u`'s
    /// current row.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The current sorted neighbor list of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self.patch.rows.get(&v) {
            Some(row) => row,
            None => self.base.neighbors(v),
        }
    }

    /// Applies `ops` in order and returns the batch's net effect. Cost is
    /// O(batch × log + Σ rows of the net edges' endpoints), one allocation
    /// per endpoint, plus one copy of the row table while an earlier
    /// snapshot is alive — independent of graph size.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints (the vertex set is
    /// fixed at overlay creation).
    pub fn apply(&mut self, ops: &[EdgeOp]) -> AppliedBatch {
        let n = self.num_vertices() as u32;
        let mut named: Vec<(VertexId, VertexId, bool)> = Vec::with_capacity(ops.len());
        for op in ops {
            assert!(op.u != op.v, "self-loop {}-{} in edge batch", op.u, op.v);
            assert!(
                op.u < n && op.v < n,
                "edge {}-{} out of range (|V| = {n}, fixed at overlay creation)",
                op.u,
                op.v
            );
            named.push((op.u.min(op.v), op.u.max(op.v), op.insert));
        }
        // Stable: each edge's ops keep their batch order, so its last op
        // decides whether the edge is present after the batch.
        named.sort_by_key(|&(u, v, _)| (u, v));
        let mut inserts = Vec::with_capacity(named.len());
        let mut deletes = Vec::with_capacity(named.len());
        for ops in named.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (u, v, post) = ops[ops.len() - 1];
            match (self.has_edge(u, v), post) {
                (false, true) => inserts.push((u, v)),
                (true, false) => deletes.push((u, v)),
                _ => {}
            }
        }
        if !(inserts.is_empty() && deletes.is_empty()) {
            self.fold(&inserts, &deletes);
        }
        self.version += 1;
        self.index = self
            .index
            .as_ref()
            .map(|idx| idx.patched(self.version, &inserts, &deletes));
        AppliedBatch {
            inserts,
            deletes,
            version: self.version,
        }
    }

    /// Rebuilds the row of every endpoint of the net edges once: its
    /// current row merged with its sorted net inserts and deletes in one
    /// scratch buffer, then one `Arc` per row. A row that lands back on its
    /// base row leaves the table.
    fn fold(&mut self, inserts: &[(VertexId, VertexId)], deletes: &[(VertexId, VertexId)]) {
        // (endpoint, neighbor, insert) in both directions, sorted by
        // endpoint then neighbor.
        let mut ends = Vec::with_capacity(2 * (inserts.len() + deletes.len()));
        for (edges, insert) in [(inserts, true), (deletes, false)] {
            for &(u, v) in edges {
                ends.push((u, v, insert));
                ends.push((v, u, insert));
            }
        }
        ends.sort_unstable();
        let patch = Arc::make_mut(&mut self.patch);
        patch.num_edges = patch.num_edges + inserts.len() - deletes.len();
        // No merged row outgrows the degree bound plus its own inserts.
        let mut buf: Vec<VertexId> = Vec::with_capacity(patch.max_degree + ends.len());
        for changes in ends.chunk_by(|a, b| a.0 == b.0) {
            let x = changes[0].0;
            let base = self.base.neighbors(x);
            let mut rest = patch.rows.get(&x).map_or(base, |row| row);
            buf.clear();
            for &(_, t, insert) in changes {
                let at = rest.partition_point(|&u| u < t);
                buf.extend_from_slice(&rest[..at]);
                rest = &rest[at..];
                if insert {
                    debug_assert_ne!(rest.first(), Some(&t), "edge absent by netting");
                    buf.push(t);
                } else {
                    debug_assert_eq!(rest.first(), Some(&t), "edge present by netting");
                    rest = &rest[1..];
                }
            }
            buf.extend_from_slice(rest);
            if buf == base {
                patch.rows.remove(&x);
            } else {
                patch.max_degree = patch.max_degree.max(buf.len());
                patch.rows.insert(x, Arc::from(&buf[..]));
            }
        }
    }

    /// The current graph as a patched *view* of the base: the overlay's
    /// row table and hub index shared, version stamped — O(1). The whole
    /// engine stack runs on the view unchanged.
    pub fn snapshot(&self) -> Graph {
        if self.version == self.base.version() {
            return self.base.clone();
        }
        self.base
            .with_patch(Arc::clone(&self.patch), self.version, self.index.clone())
    }

    /// Folds the rows into a fresh CSR: O(n + m). The new base carries
    /// the current version, and — when the old base was hub-indexed — a
    /// rebuilt index at the same threshold, which is where vertices that
    /// *became* hubs under inserts finally get rows.
    pub fn compact(&mut self) {
        let n = self.num_vertices();
        let mut b = crate::GraphBuilder::with_capacity(n, self.num_edges());
        for v in 0..n as VertexId {
            b.set_label(v, self.base.label(v));
            for &u in self.neighbors(v) {
                if v < u {
                    b.add_edge(v, u);
                }
            }
        }
        let g = b
            .build()
            .with_name_of(&self.base)
            .with_version(self.version);
        self.base = match self.base.hub_bitmap() {
            Some(idx) => g.with_hub_bitmap(idx.threshold()),
            None => g,
        };
        self.patch = no_rows(&self.base);
        self.index = self.base.hub_bitmap().cloned();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use std::collections::BTreeSet;

    fn path4() -> Graph {
        // 0-1-2-3
        let mut b = crate::GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn apply_nets_inserts_and_deletes() {
        let mut o = DeltaOverlay::new(path4());
        let batch = o.apply(&[
            EdgeOp::insert(0, 3),
            EdgeOp::delete(1, 2),
            EdgeOp::insert(1, 0), // already present → no net
            EdgeOp::delete(0, 2), // already absent → no net
        ]);
        assert_eq!(batch.inserts, vec![(0, 3)]);
        assert_eq!(batch.deletes, vec![(1, 2)]);
        assert_eq!(batch.version, 1);
        assert_eq!(batch.touched(), vec![0, 1, 2, 3]);
        assert_eq!(o.num_edges(), 3);
        assert!(o.has_edge(0, 3) && o.has_edge(3, 0));
        assert!(!o.has_edge(1, 2));
        assert_eq!(o.neighbors(0), [1, 3]);
        assert_eq!(o.neighbors(1), [0]);
        assert_eq!(o.degree(2), 1);
    }

    #[test]
    fn insert_then_delete_same_edge_cancels_in_batch() {
        let mut o = DeltaOverlay::new(path4());
        let batch = o.apply(&[EdgeOp::insert(0, 2), EdgeOp::delete(2, 0)]);
        assert!(batch.is_empty(), "in-batch cancel must net to nothing");
        assert_eq!(batch.version, 1, "version still advances");
        assert!(!o.has_edge(0, 2));
        assert_eq!(o.num_edges(), 3);
        // And the mirror: delete a base edge then re-insert it.
        let batch = o.apply(&[EdgeOp::delete(1, 2), EdgeOp::insert(1, 2)]);
        assert!(batch.is_empty());
        assert!(o.has_edge(1, 2));
    }

    #[test]
    fn reinsert_across_batches_cancels_pending_delete() {
        let mut o = DeltaOverlay::new(path4());
        o.apply(&[EdgeOp::delete(1, 2)]);
        let batch = o.apply(&[EdgeOp::insert(2, 1)]);
        assert_eq!(batch.inserts, vec![(1, 2)]);
        assert!(o.has_edge(1, 2));
        // Both rows are their base rows again: the snapshot is a
        // version-stamped view with no replacement rows.
        assert!(o.patch.rows.is_empty());
        let view = o.snapshot();
        assert_eq!(view.num_edges(), 3);
        assert_eq!(view.version(), 2);
        assert_eq!(view.neighbors(1), path4().neighbors(1));
    }

    /// The graph on `n` vertices with exactly `edges`, built from scratch.
    fn scratch(n: usize, edges: &BTreeSet<(VertexId, VertexId)>) -> Graph {
        let mut b = crate::GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    #[test]
    fn snapshot_views_agree_with_scratch_rebuild() {
        for threshold in [None, Some(6)] {
            let g = gen::preferential_attachment(64, 4, 7).degree_ordered();
            let g = threshold.map_or(g.clone(), |t| g.with_hub_bitmap(t));
            let mut o = DeltaOverlay::new(g.clone());
            let mut edges: BTreeSet<(VertexId, VertexId)> = g.edges().collect();
            // An absent edge that batch 0 inserts and batch 2 deletes; no
            // other op touches its endpoints, so their rows return to base.
            let (a, b) = (0..64)
                .rev()
                .flat_map(|u| (0..u).rev().map(move |v| (v, u)))
                .find(|&(v, u)| !g.has_edge(v, u))
                .unwrap();
            let mut rng = 0x9e3779b97f4a7c15u64;
            let mut next = move |m: u32| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % m as u64) as u32
            };
            for round in 0..8 {
                let mut ops = Vec::new();
                for _ in 0..10 {
                    let (u, v) = (next(64), next(64));
                    if u == v || [u, v].iter().any(|x| [a, b].contains(x)) {
                        continue;
                    }
                    ops.push(if next(2) == 0 {
                        EdgeOp::insert(u, v)
                    } else {
                        EdgeOp::delete(u, v)
                    });
                }
                match round {
                    0 => ops.push(EdgeOp::insert(a, b)),
                    2 => ops.push(EdgeOp::delete(b, a)),
                    4 => o.compact(),
                    _ => {}
                }
                o.apply(&ops);
                for op in &ops {
                    let e = (op.u.min(op.v), op.u.max(op.v));
                    if op.insert {
                        edges.insert(e);
                    } else {
                        edges.remove(&e);
                    }
                }
                if round == 2 {
                    for x in [a, b] {
                        assert!(!o.patch.rows.contains_key(&x), "row {x} is its base row");
                        assert_eq!(o.neighbors(x), g.neighbors(x), "row {x}");
                    }
                }
                let want = scratch(64, &edges);
                let view = o.snapshot();
                assert_eq!(view.num_edges(), want.num_edges(), "round {round}");
                assert_eq!(o.num_edges(), want.num_edges(), "round {round}");
                for v in view.vertices() {
                    assert_eq!(
                        view.neighbors(v),
                        want.neighbors(v),
                        "round {round} row {v}"
                    );
                    assert_eq!(o.neighbors(v), want.neighbors(v), "round {round} row {v}");
                    assert_eq!(view.degree(v), o.degree(v));
                }
                assert!(view.max_degree() >= want.max_degree());
                for u in view.vertices() {
                    for v in view.vertices() {
                        assert_eq!(view.has_edge(u, v), want.has_edge(u, v), "({u},{v})");
                        assert_eq!(o.has_edge(u, v), want.has_edge(u, v), "({u},{v})");
                    }
                }
                // The index patched batch by batch answers every hub row
                // exactly.
                assert_eq!(view.hub_bitmap().is_some(), threshold.is_some());
                if let Some(idx) = view.hub_bitmap() {
                    assert_eq!(idx.version(), view.version());
                    for h in view.vertices().filter(|&h| idx.is_hub(h)) {
                        for x in view.vertices() {
                            assert_eq!(idx.contains(h, x), Some(o.has_edge(h, x)), "({h},{x})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn compact_folds_and_rebuilds_hub_index() {
        let g = gen::preferential_attachment(64, 4, 7)
            .degree_ordered()
            .with_hub_bitmap(6);
        let mut o = DeltaOverlay::new(g.clone());
        // Promote a low-degree vertex to hub by wiring it widely.
        let leaf = 63u32;
        let ops: Vec<EdgeOp> = (0..10)
            .filter(|&t| t != leaf && !g.has_edge(leaf, t))
            .map(|t| EdgeOp::insert(leaf, t))
            .collect();
        assert!(ops.len() > 6);
        o.apply(&ops);
        // Pre-compaction: the view's patched index has no row for the new
        // hub (correct, just unindexed)…
        let view = o.snapshot();
        let idx = view.hub_bitmap().expect("view carries patched index");
        assert!(!idx.is_hub(leaf));
        assert!(view.has_edge(leaf, ops[0].v), "CSR fallback still answers");
        o.compact();
        // …post-compaction it is indexed, and the folded CSR matches.
        let base = o.base().clone();
        assert_eq!(base.version(), 1);
        assert_eq!(base.num_edges(), view.num_edges());
        let idx = base.hub_bitmap().expect("compaction rebuilds the index");
        assert_eq!(idx.version(), 1);
        assert!(idx.is_hub(leaf), "new hub indexed on compaction");
        for v in base.vertices() {
            assert_eq!(base.neighbors(v), view.neighbors(v), "row {v}");
        }
        // The overlay keeps working on the new base.
        let b2 = o.apply(&[EdgeOp::delete(leaf, ops[0].v)]);
        assert_eq!(b2.version, 2);
        assert!(!o.has_edge(leaf, ops[0].v));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_are_rejected() {
        DeltaOverlay::new(path4()).apply(&[EdgeOp::insert(2, 2)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoints_are_rejected() {
        DeltaOverlay::new(path4()).apply(&[EdgeOp::insert(0, 9)]);
    }

    #[test]
    #[should_panic(expected = "plain CSR base")]
    fn overlay_on_a_view_is_rejected() {
        let mut o = DeltaOverlay::new(path4());
        o.apply(&[EdgeOp::insert(0, 2)]);
        DeltaOverlay::new(o.snapshot());
    }
}
