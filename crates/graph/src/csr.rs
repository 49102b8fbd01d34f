//! Immutable CSR graph with sorted adjacency lists and vertex labels.
//!
//! Since the batch-dynamic work (DESIGN.md §4k) the CSR arrays are
//! `Arc`-shared and a [`Graph`] value can additionally carry a *patch*: a
//! small table of materialized replacement rows for the vertices an edge
//! batch touched. A patched graph ("view") answers every query through the
//! same API — `neighbors` consults the patch first — so the whole engine
//! stack runs on views unchanged, while constructing one costs O(touched),
//! not O(graph). Views are produced by [`crate::delta::DeltaOverlay`],
//! [`Graph::without_edges`] and — a whole family sharing one versioned row
//! table — [`Graph::staged_without_edges`]; graphs built normally never
//! carry a patch.

use crate::bitmap::HubBitmapIndex;
use crate::Label;
use std::collections::HashMap;
use std::sync::Arc;

/// Vertex identifier. `u32` keeps the warp stacks compact (the paper stores
/// candidate sets as 32-bit node ids in GPU global memory).
pub type VertexId = u32;

/// Materialized replacement rows for the vertices an edge batch touched,
/// plus the patched global aggregates. Shared by every clone of a view.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct GraphPatch {
    /// Fully merged, sorted neighbor list per touched vertex.
    pub(crate) rows: HashMap<VertexId, Arc<[VertexId]>>,
    /// Undirected edge count of the patched graph.
    pub(crate) num_edges: usize,
    /// Upper bound on the patched graph's maximum degree (exact unless a
    /// deletion shrank the unique maximum-degree vertex; see
    /// [`Graph::max_degree`]). Only sizes host-side slabs, so an upper
    /// bound is always safe.
    pub(crate) max_degree: usize,
}

/// One materialized row of a staged view family: `vertex`'s neighbor list
/// as seen by every stage from `from_stage` up to its next version.
#[derive(Debug, PartialEq, Eq)]
struct RowVersion {
    vertex: VertexId,
    from_stage: u32,
    /// `pool[start..end]` is the row.
    start: usize,
    end: usize,
}

/// The versioned row table shared by every view of one
/// [`Graph::staged_without_edges`] family. A vertex's row changes only at
/// the stages of its own edges, so the table holds two rows per removed
/// edge — linear in the batch, however many stages there are.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct StagedRows {
    /// The staged graph's own patch (`None` = plain CSR): answers for a
    /// vertex with no version at or below the asking stage. Shared, never
    /// copied.
    under: Option<Arc<GraphPatch>>,
    /// Sorted by `(vertex, from_stage)`: stage `s` reads the last version
    /// of the vertex with `from_stage <= s`.
    versions: Vec<RowVersion>,
    /// Every version's row, concatenated.
    pool: Vec<VertexId>,
    /// Edge count of the staged graph (stage `s` has `s` fewer).
    num_edges: usize,
    /// The staged graph's degree bound; removal only shrinks rows.
    max_degree: usize,
}

impl StagedRows {
    #[inline]
    fn row(&self, v: VertexId, stage: u32) -> Option<&[VertexId]> {
        let after = self
            .versions
            .partition_point(|r| (r.vertex, r.from_stage) <= (v, stage));
        match after.checked_sub(1).map(|i| &self.versions[i]) {
            Some(r) if r.vertex == v => Some(&self.pool[r.start..r.end]),
            _ => self.under.as_ref()?.rows.get(&v).map(|row| &**row),
        }
    }
}

/// How a view overrides rows of the shared CSR arrays.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Patch {
    /// One replacement row per touched vertex (overlay snapshots and
    /// [`Graph::without_edges`]).
    Rows(Arc<GraphPatch>),
    /// Stage `stage` of a [`Graph::staged_without_edges`] family.
    Staged { rows: Arc<StagedRows>, stage: u32 },
}

impl Patch {
    #[inline]
    fn row(&self, v: VertexId) -> Option<&[VertexId]> {
        match self {
            Patch::Rows(p) => p.rows.get(&v).map(|row| &**row),
            Patch::Staged { rows, stage } => rows.row(v, *stage),
        }
    }

    fn num_edges(&self) -> usize {
        match self {
            Patch::Rows(p) => p.num_edges,
            Patch::Staged { rows, stage } => rows.num_edges - *stage as usize,
        }
    }

    fn max_degree(&self) -> usize {
        match self {
            Patch::Rows(p) => p.max_degree,
            Patch::Staged { rows, .. } => rows.max_degree,
        }
    }

    /// This view's replacement rows as one `Rows` table: the shared `Arc`
    /// for a `Rows` patch, a flattened copy for a stage view (only reached
    /// when a stage view is itself patched further).
    fn as_rows(&self) -> Arc<GraphPatch> {
        match self {
            Patch::Rows(p) => Arc::clone(p),
            Patch::Staged { rows, stage } => {
                let mut flat = rows
                    .under
                    .as_ref()
                    .map(|p| p.rows.clone())
                    .unwrap_or_default();
                // Ascending (vertex, from_stage): a later insert is the
                // newer version and overwrites the older.
                for r in rows.versions.iter().filter(|r| r.from_stage <= *stage) {
                    flat.insert(r.vertex, rows.pool[r.start..r.end].into());
                }
                Arc::new(GraphPatch {
                    rows: flat,
                    num_edges: self.num_edges(),
                    max_degree: rows.max_degree,
                })
            }
        }
    }
}

/// An undirected, vertex-labeled graph in CSR form.
///
/// Adjacency lists are sorted ascending, which every engine in the workspace
/// relies on for binary-search set intersection/difference — the core
/// primitive of the STMatch `getCandidates` step.
///
/// The graph is immutable after construction; build one with
/// [`crate::GraphBuilder`] or a generator from [`crate::gen`], or derive a
/// batch-updated *view* through [`crate::delta::DeltaOverlay`]. Cloning is
/// cheap: the CSR arrays are `Arc`-shared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// `row_ptr[v]..row_ptr[v+1]` indexes `col_idx` for vertex `v`.
    row_ptr: Arc<Vec<usize>>,
    /// Concatenated sorted neighbor lists.
    col_idx: Arc<Vec<VertexId>>,
    /// One label per vertex; all zero for unlabeled graphs.
    labels: Arc<Vec<Label>>,
    /// Number of distinct labels in use (at least 1).
    num_labels: u32,
    /// Human-readable name (dataset id), used by the bench harness.
    name: String,
    /// Topology version: 0 for freshly built graphs, bumped by every
    /// applied [`crate::delta::DeltaOverlay`] batch. A hub-bitmap index is
    /// stamped with the version it was built (or patched) for, and every
    /// probe checks the stamp — see [`Graph::has_edge`].
    version: u64,
    /// Replacement rows for batch-touched vertices (`None` = plain CSR).
    patch: Option<Patch>,
    /// Optional hub-bitmap neighbor index (see [`crate::bitmap`]); derived
    /// data attached with [`Graph::with_hub_bitmap`], absent by default.
    /// The engine routes hub rows into its set operations iff the graph it
    /// runs on carries one.
    hub_bitmap: Option<HubBitmapIndex>,
}

/// `max(label) + 1`, the label count a graph carrying `labels` reports.
///
/// # Panics
/// Panics if a label is `Label::MAX`: its count does not fit a `u32`, and a
/// wrapped 0 would report the graph unlabeled.
fn label_count(labels: &[Label]) -> u32 {
    let max = labels.iter().copied().max().unwrap_or(0);
    max.checked_add(1).unwrap_or_else(|| {
        panic!("label {max} leaves no room for the label count (labels must stay below {max})")
    })
}

impl Graph {
    pub(crate) fn from_parts(
        row_ptr: Vec<usize>,
        col_idx: Vec<VertexId>,
        labels: Vec<Label>,
        name: String,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), labels.len() + 1);
        let num_labels = label_count(&labels);
        Graph {
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            labels: Arc::new(labels),
            num_labels,
            name,
            version: 0,
            patch: None,
            hub_bitmap: None,
        }
    }

    /// A view sharing this graph's arrays, with `patch` rows overriding the
    /// touched vertices, stamped `version`, and (when this graph carries a
    /// hub index) `patched_index` attached in its place. O(1) beyond what
    /// the caller already materialized.
    pub(crate) fn with_patch(
        &self,
        patch: GraphPatch,
        version: u64,
        patched_index: Option<HubBitmapIndex>,
    ) -> Graph {
        self.with_patch_of(Patch::Rows(Arc::new(patch)), version, patched_index)
    }

    fn with_patch_of(
        &self,
        patch: Patch,
        version: u64,
        patched_index: Option<HubBitmapIndex>,
    ) -> Graph {
        Graph {
            row_ptr: Arc::clone(&self.row_ptr),
            col_idx: Arc::clone(&self.col_idx),
            labels: Arc::clone(&self.labels),
            num_labels: self.num_labels,
            name: self.name.clone(),
            version,
            patch: Some(patch),
            hub_bitmap: patched_index,
        }
    }

    /// A view of this graph with the given undirected edges removed — the
    /// staged-view primitive behind exactly-once delta enumeration: stage
    /// `i` of a batch enumerates its update edge against the graph minus
    /// the batch's earlier (deletes) or later (inserts) edges. O(sum of
    /// touched degrees), independent of graph size. Every listed edge must
    /// be present; self-loops and duplicates are the caller's bug.
    ///
    /// The view keeps this graph's version (it is a *hypothetical* stage
    /// graph, not a new topology) and, unless `edges` is empty (this graph
    /// is returned as is), carries no hub index, so launches on it run the
    /// element paths.
    pub fn without_edges(&self, edges: &[(VertexId, VertexId)]) -> Graph {
        if edges.is_empty() {
            return self.clone();
        }
        let mut removed: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        for &(u, v) in edges {
            debug_assert_ne!(u, v, "self-loop in without_edges");
            removed.entry(u).or_default().push(v);
            removed.entry(v).or_default().push(u);
        }
        // Start from the existing patch (if any) so rows overridden by an
        // earlier view survive; removal rows then overwrite the touched
        // vertices.
        let mut rows = self
            .patch
            .as_ref()
            .map(|p| p.as_rows().rows.clone())
            .unwrap_or_default();
        for (v, gone) in removed {
            let row: Arc<[VertexId]> = self
                .neighbors(v)
                .iter()
                .copied()
                .filter(|u| !gone.contains(u))
                .collect();
            debug_assert_eq!(
                row.len() + gone.len(),
                self.degree(v),
                "without_edges: an edge at vertex {v} is absent or duplicated"
            );
            rows.insert(v, row);
        }
        let patch = GraphPatch {
            rows,
            num_edges: self.num_edges() - edges.len(),
            // Removal can only shrink degrees; the old bound stays safe
            // for slab sizing.
            max_degree: self.max_degree(),
        };
        self.with_patch(patch, self.version, None)
    }

    /// One view per edge of an ordered batch side: element `s` is this graph
    /// without `edges[..s]` — what stage `s` of exactly-once delta
    /// enumeration matches `edges[s]` against — row for row equal to
    /// [`Graph::without_edges`]`(&edges[..s])`. (The last edge is removed
    /// from no view.) Where building each stage with `without_edges` costs
    /// O(stages × touched), this materializes every changed row once into
    /// one shared table ([`StagedRows`]: two rows per edge); each view is an
    /// O(1) clone carrying its stage number, and this graph's own patch is
    /// shared, not copied. Like `without_edges`, the views keep this graph's
    /// version, carry no hub index, and expect every listed edge present,
    /// distinct and loop-free.
    pub fn staged_without_edges(&self, edges: &[(VertexId, VertexId)]) -> Vec<Graph> {
        let Some((last, removed)) = edges.split_last() else {
            return Vec::new();
        };
        // (vertex, first stage not seeing the edge, lost neighbor), grouped
        // by vertex in stage order.
        let mut lost: Vec<(VertexId, u32, VertexId)> = Vec::with_capacity(2 * removed.len());
        for (s, &(u, v)) in removed.iter().enumerate() {
            debug_assert_ne!(u, v, "self-loop in staged_without_edges");
            lost.push((u, s as u32 + 1, v));
            lost.push((v, s as u32 + 1, u));
        }
        lost.sort_unstable();
        let mut versions: Vec<RowVersion> = Vec::with_capacity(lost.len());
        let mut pool: Vec<VertexId> =
            Vec::with_capacity(lost.iter().map(|&(v, ..)| self.degree(v)).sum());
        for &(vertex, from_stage, gone) in &lost {
            let start = pool.len();
            let before = match versions.last() {
                // The vertex's previous version is the row to shrink.
                Some(prev) if prev.vertex == vertex => {
                    for i in prev.start..prev.end {
                        if pool[i] != gone {
                            pool.push(pool[i]);
                        }
                    }
                    prev.end - prev.start
                }
                _ => {
                    let row = self.neighbors(vertex);
                    pool.extend(row.iter().copied().filter(|&u| u != gone));
                    row.len()
                }
            };
            debug_assert_eq!(
                pool.len() - start + 1,
                before,
                "staged_without_edges: edge {vertex}-{gone} is absent or duplicated"
            );
            versions.push(RowVersion {
                vertex,
                from_stage,
                start,
                end: pool.len(),
            });
        }
        let rows = Arc::new(StagedRows {
            under: self.patch.as_ref().map(Patch::as_rows),
            versions,
            pool,
            num_edges: self.num_edges(),
            max_degree: self.max_degree(),
        });
        let views: Vec<Graph> = (0..edges.len() as u32)
            .map(|stage| {
                let rows = Arc::clone(&rows);
                self.with_patch_of(Patch::Staged { rows, stage }, self.version, None)
            })
            .collect();
        debug_assert!(
            views[removed.len()].has_edge(last.0, last.1),
            "staged_without_edges: edge {}-{} is absent or duplicated",
            last.0,
            last.1
        );
        views
    }

    /// Topology version stamp: 0 for freshly built graphs; views produced
    /// by a [`crate::delta::DeltaOverlay`] carry the overlay's batch count.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// True when this graph is a patched view (carries replacement rows)
    /// rather than a plain CSR.
    #[inline]
    pub fn is_view(&self) -> bool {
        self.patch.is_some()
    }

    /// Re-stamps the version (used by `DeltaOverlay::compact`, whose folded
    /// CSR represents the overlay's current version, not a fresh graph).
    pub(crate) fn with_version(mut self, version: u64) -> Graph {
        self.version = version;
        self
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges (each edge counted once).
    #[inline]
    pub fn num_edges(&self) -> usize {
        match &self.patch {
            Some(p) => p.num_edges(),
            None => self.col_idx.len() / 2,
        }
    }

    /// The graph's dataset name (empty for ad-hoc graphs).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the graph (used by the dataset registry).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        if let Some(p) = &self.patch {
            if let Some(row) = p.row(v) {
                return row;
            }
        }
        let v = v as usize;
        &self.col_idx[self.row_ptr[v]..self.row_ptr[v + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        if let Some(p) = &self.patch {
            if let Some(row) = p.row(v) {
                return row.len();
            }
        }
        let v = v as usize;
        self.row_ptr[v + 1] - self.row_ptr[v]
    }

    /// The label of `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v as usize]
    }

    /// Number of distinct labels (1 for unlabeled graphs).
    #[inline]
    pub fn num_labels(&self) -> u32 {
        self.num_labels
    }

    /// True if the graph carries non-trivial labels.
    #[inline]
    pub fn is_labeled(&self) -> bool {
        self.num_labels > 1
    }

    /// The attached index after the version-stamp check, or `None`.
    ///
    /// Probing an index built for a different topology version would
    /// silently answer adjacency from a stale bitmap — the classic overlay
    /// hazard — so any mismatch is a hard, named diagnostic rather than a
    /// wrong count.
    #[inline]
    fn checked_index(&self) -> Option<&HubBitmapIndex> {
        let idx = self.hub_bitmap.as_ref()?;
        if idx.version() != self.version {
            panic!(
                "stale hub-bitmap probe on graph '{}': index stamped for \
                 version {} but the graph is at version {}. An overlay \
                 advanced the topology without patching the index — derive \
                 views via DeltaOverlay::snapshot (word-patched rows) or \
                 rebuild through compact().\n  reproduce: attach a \
                 version-{} index to a version-{} view, e.g. \
                 stmatch_graph::mutation::attach_stale_index, then call \
                 has_edge/hub_bits",
                self.name,
                idx.version(),
                self.version,
                idx.version(),
                self.version,
            );
        }
        Some(idx)
    }

    /// Edge test. With a hub-bitmap index attached, an endpoint that is a
    /// hub answers with one O(1) word probe; otherwise (and always without
    /// an index) this binary-searches the (sorted) smaller adjacency list.
    ///
    /// # Panics
    /// Panics with a named diagnostic if the attached index's version
    /// stamp does not match the graph's (a stale index would answer
    /// adjacency for a different topology).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if let Some(idx) = self.checked_index() {
            if let Some(hit) = idx.contains(u, v).or_else(|| idx.contains(v, u)) {
                return hit;
            }
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Attaches a freshly built hub-bitmap index (see [`crate::bitmap`])
    /// covering every vertex with `degree > threshold`. Replaces any index
    /// already attached.
    pub fn with_hub_bitmap(mut self, threshold: usize) -> Self {
        self.hub_bitmap = Some(HubBitmapIndex::build(&self, threshold));
        self
    }

    /// The attached hub-bitmap index, if any.
    #[inline]
    pub fn hub_bitmap(&self) -> Option<&HubBitmapIndex> {
        self.hub_bitmap.as_ref()
    }

    /// The bitmap row of `v` when an index is attached and `v` is a hub.
    ///
    /// # Panics
    /// Panics with a named diagnostic on a stale index (see
    /// [`Graph::has_edge`]).
    #[inline]
    pub fn hub_bits(&self, v: VertexId) -> Option<&[u64]> {
        self.checked_index()?.row(v)
    }

    /// Iterator over all vertices.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Maximum degree over all vertices (0 for the empty graph). On a
    /// patched view this is an upper bound (exact unless a deletion shrank
    /// the unique maximum-degree vertex): it only sizes host-side slab
    /// capacities, where an upper bound is always safe.
    pub fn max_degree(&self) -> usize {
        match &self.patch {
            Some(p) => p.max_degree(),
            None => self.vertices().map(|v| self.degree(v)).max().unwrap_or(0),
        }
    }

    /// Returns a copy of this graph with labels replaced by `labels`.
    ///
    /// # Panics
    /// Panics if `labels.len() != num_vertices()`, or if a label is
    /// `Label::MAX` (the label count, `max + 1`, would not fit a `u32`).
    pub fn relabeled(&self, labels: Vec<Label>) -> Graph {
        assert_eq!(labels.len(), self.num_vertices(), "label count mismatch");
        let num_labels = label_count(&labels);
        Graph {
            row_ptr: Arc::clone(&self.row_ptr),
            col_idx: Arc::clone(&self.col_idx),
            labels: Arc::new(labels),
            num_labels,
            name: self.name.clone(),
            version: self.version,
            patch: self.patch.clone(),
            // The hub index depends only on topology, which is unchanged.
            hub_bitmap: self.hub_bitmap.clone(),
        }
    }

    /// Returns the same topology with all labels cleared to 0.
    pub fn unlabeled(&self) -> Graph {
        self.relabeled(vec![0; self.num_vertices()])
    }

    /// Approximate in-memory footprint in bytes (CSR arrays + labels +
    /// patch rows — for a stage view, its whole family's table — +
    /// hub-bitmap index when attached).
    pub fn memory_bytes(&self) -> usize {
        let row_cells = |p: &GraphPatch| p.rows.values().map(|r| r.len()).sum::<usize>();
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<VertexId>()
            + self.labels.len() * std::mem::size_of::<Label>()
            + std::mem::size_of::<VertexId>()
                * match &self.patch {
                    None => 0,
                    Some(Patch::Rows(p)) => row_cells(p),
                    Some(Patch::Staged { rows, .. }) => {
                        rows.pool.len() + rows.under.as_deref().map_or(0, row_cells)
                    }
                }
            + self.hub_bitmap.as_ref().map_or(0, |b| b.memory_bytes())
    }

    /// Returns a new graph whose vertex ids are permuted so that vertices are
    /// ordered by descending degree. This is the standard relabeling that
    /// graph-mining systems apply so that symmetry-breaking comparisons
    /// (`v > u`) prune the search tree early.
    pub fn degree_ordered(&self) -> Graph {
        let n = self.num_vertices();
        let mut order: Vec<VertexId> = (0..n as VertexId).collect();
        // Stable sort for determinism across runs.
        order.sort_by(|&a, &b| self.degree(b).cmp(&self.degree(a)).then(a.cmp(&b)));
        // old id -> new id
        let mut rank = vec![0 as VertexId; n];
        for (new_id, &old_id) in order.iter().enumerate() {
            rank[old_id as usize] = new_id as VertexId;
        }
        let mut builder = crate::GraphBuilder::with_capacity(n, self.num_edges());
        for old in 0..n as VertexId {
            builder.set_label(rank[old as usize], self.label(old));
        }
        for (u, v) in self.edges() {
            builder.add_edge(rank[u as usize], rank[v as usize]);
        }
        let g = builder.build().with_name(self.name.clone());
        // Vertex ids changed, so a carried index must be rebuilt (same
        // threshold) rather than copied.
        match &self.hub_bitmap {
            Some(idx) => g.with_hub_bitmap(idx.threshold()),
            None => g,
        }
    }
}

/// Seeded misuse helpers for the version-stamp safety net. Never called
/// from production paths — they exist so tests can prove the stale-probe
/// diagnostic fires by name (mirrors `stmatch-core`'s `mutation` modules).
pub mod mutation {
    use super::*;

    /// Attaches `donor`'s hub index to `view` *without* patching it — the
    /// exact bug the version stamp exists to catch: a view whose topology
    /// moved on while its index still answers for the old graph. Any
    /// subsequent `has_edge`/`hub_bits` on the returned graph must panic
    /// with the `stale hub-bitmap probe` diagnostic.
    pub fn attach_stale_index(view: &Graph, donor: &Graph) -> Graph {
        let idx = donor
            .hub_bitmap()
            .expect("donor must carry a hub index")
            .clone();
        assert_ne!(
            idx.version(),
            view.version(),
            "mutation needs a genuine version mismatch"
        );
        let mut g = view.clone();
        g.hub_bitmap = Some(idx);
        g
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn triangle_plus_tail() -> crate::Graph {
        // 0-1, 1-2, 2-0 triangle; 2-3 tail.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn counts_vertices_and_edges() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.version(), 0, "fresh graphs sit at version 0");
    }

    #[test]
    fn adjacency_is_sorted() {
        let g = triangle_plus_tail();
        for v in g.vertices() {
            let ns = g.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "unsorted at {v}");
        }
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle_plus_tail();
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
            }
        }
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn degrees_match_neighbor_lengths() {
        let g = triangle_plus_tail();
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn degree_ordering_puts_hubs_first() {
        let g = triangle_plus_tail();
        let d = g.degree_ordered();
        assert_eq!(d.num_edges(), g.num_edges());
        // New vertex 0 must be the old hub (degree 3).
        assert_eq!(d.degree(0), 3);
        let mut degs: Vec<_> = d.vertices().map(|v| d.degree(v)).collect();
        let mut sorted = degs.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        degs.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(degs, sorted);
    }

    #[test]
    fn relabel_roundtrip() {
        let g = triangle_plus_tail();
        let labeled = g.relabeled(vec![1, 2, 1, 0]);
        assert!(labeled.is_labeled());
        assert_eq!(labeled.num_labels(), 3);
        assert_eq!(labeled.label(1), 2);
        let back = labeled.unlabeled();
        assert!(!back.is_labeled());
        assert_eq!(back.num_edges(), g.num_edges());
    }

    #[test]
    #[should_panic(expected = "label 4294967295 leaves no room for the label count")]
    fn a_label_with_no_room_for_the_count_panics_by_name() {
        triangle_plus_tail().relabeled(vec![0, 0, u32::MAX, 0]);
    }

    #[test]
    fn clones_share_storage() {
        let g = crate::gen::preferential_attachment(200, 4, 1);
        let c = g.clone();
        // Arc-backed arrays: a clone is a pointer copy, not a CSR copy.
        assert!(std::ptr::eq(
            g.neighbors(0).as_ptr(),
            c.neighbors(0).as_ptr()
        ));
        assert_eq!(g, c);
    }

    #[test]
    fn has_edge_agrees_with_csr_under_hub_bitmap() {
        // Satellite: the O(1) hub probe must answer exactly like the
        // binary-search path for every vertex pair of a PA graph.
        let plain = crate::gen::preferential_attachment(130, 5, 17).degree_ordered();
        let indexed = plain.clone().with_hub_bitmap(7);
        assert!(
            indexed.hub_bitmap().is_some_and(|b| b.num_hubs() > 0),
            "fixture must contain hubs above degree 7"
        );
        for u in plain.vertices() {
            for v in plain.vertices() {
                assert_eq!(
                    indexed.has_edge(u, v),
                    plain.has_edge(u, v),
                    "hub probe diverged from CSR at ({u},{v})"
                );
            }
        }
        assert!(indexed.memory_bytes() > plain.memory_bytes());
    }

    #[test]
    fn hub_bitmap_survives_relabel_and_reorder() {
        let g = crate::gen::preferential_attachment(80, 4, 5).with_hub_bitmap(6);
        let labeled = g.relabeled(vec![1; 80]);
        assert_eq!(
            labeled.hub_bitmap(),
            g.hub_bitmap(),
            "relabeling keeps topology, so the index is copied verbatim"
        );
        let ordered = g.degree_ordered();
        let idx = ordered.hub_bitmap().expect("reorder rebuilds the index");
        assert_eq!(idx.threshold(), 6);
        for v in ordered.vertices() {
            assert_eq!(idx.is_hub(v), ordered.degree(v) > 6);
        }
    }

    #[test]
    fn stale_index_probe_panics_with_named_diagnostic() {
        // Satellite (version-stamp safety): a view whose topology advanced
        // past its attached index must fail loudly, not answer stale bits.
        let base = crate::gen::preferential_attachment(60, 4, 3)
            .degree_ordered()
            .with_hub_bitmap(5);
        let mut overlay = crate::delta::DeltaOverlay::new(base.clone());
        let (u, v) = base.edges().next().expect("fixture has edges");
        overlay.apply(&[crate::delta::EdgeOp::delete(u, v)]);
        let view = overlay.snapshot();
        // The honest view probes fine (its index was word-patched).
        assert!(!view.has_edge(u, v));
        let broken = crate::csr::mutation::attach_stale_index(&view, &base);
        let err =
            std::panic::catch_unwind(|| broken.has_edge(u, v)).expect_err("stale probe must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(
            msg.contains("stale hub-bitmap probe"),
            "diagnostic must be named: {msg}"
        );
        assert!(
            msg.contains("reproduce:"),
            "diagnostic must reproduce: {msg}"
        );
    }

    /// `views[s]` of `base.staged_without_edges(edges)` must be row for row
    /// the `base.without_edges(&edges[..s])` it replaces.
    fn assert_stages_equal_prefix_views(base: &crate::Graph, edges: &[(u32, u32)]) {
        let views = base.staged_without_edges(edges);
        assert_eq!(views.len(), edges.len(), "one view per edge");
        for (s, view) in views.iter().enumerate() {
            let want = base.without_edges(&edges[..s]);
            assert_eq!(view.num_edges(), want.num_edges(), "stage {s}");
            assert_eq!(
                view.version(),
                base.version(),
                "stage {s} keeps the version"
            );
            assert!(
                view.hub_bitmap().is_none(),
                "stage views carry no hub index"
            );
            assert!(view.max_degree() >= view.vertices().map(|v| view.degree(v)).max().unwrap());
            for v in base.vertices() {
                assert_eq!(view.neighbors(v), want.neighbors(v), "stage {s} row {v}");
                assert_eq!(view.degree(v), want.degree(v), "stage {s} degree {v}");
                for u in base.vertices() {
                    assert_eq!(
                        view.has_edge(u, v),
                        want.has_edge(u, v),
                        "stage {s} ({u},{v})"
                    );
                }
            }
        }
    }

    /// A seeded batch side over `g`: every edge at the heaviest vertex (a
    /// hub touched many times) plus a third of the rest, shuffled.
    fn hub_heavy_edges(g: &crate::Graph, seed: u64) -> (u32, Vec<(u32, u32)>) {
        let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
        let mut edges: Vec<(u32, u32)> = g
            .edges()
            .enumerate()
            .filter(|&(i, (u, v))| u == hub || v == hub || i % 3 == 0)
            .map(|(_, e)| e)
            .collect();
        let mut rng = seed | 1;
        for i in (1..edges.len()).rev() {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            edges.swap(i, (rng % (i as u64 + 1)) as usize);
        }
        (hub, edges)
    }

    #[test]
    fn staged_views_equal_prefix_views_on_a_plain_csr() {
        for seed in [3u64, 17, 2022] {
            let g = crate::gen::preferential_attachment(40, 3, seed).degree_ordered();
            let (hub, edges) = hub_heavy_edges(&g, seed);
            let touches = edges.iter().filter(|e| e.0 == hub || e.1 == hub).count();
            assert!(touches >= 8, "fixture hub is in {touches} batch edges");
            assert_stages_equal_prefix_views(&g, &edges);
        }
        let g = triangle_plus_tail();
        assert!(g.staged_without_edges(&[]).is_empty());
        assert_stages_equal_prefix_views(&g, &[(2, 3)]);
    }

    #[test]
    fn staged_views_share_a_patched_base_and_serve_the_insert_order() {
        use crate::delta::{DeltaOverlay, EdgeOp};
        for seed in [5u64, 41] {
            let g = crate::gen::preferential_attachment(40, 3, seed).degree_ordered();
            let hub = g.vertices().max_by_key(|&v| g.degree(v)).unwrap();
            // An overlay snapshot whose own patch rewrites the hub's row
            // (and a few others) underneath the staged table.
            let mut overlay = DeltaOverlay::new(g.clone());
            let mut ops: Vec<EdgeOp> = g
                .vertices()
                .filter(|&v| v != hub && !g.has_edge(hub, v))
                .take(6)
                .map(|v| EdgeOp::insert(hub, v))
                .collect();
            ops.extend(g.edges().step_by(7).map(|(u, v)| EdgeOp::delete(u, v)));
            overlay.apply(&ops);
            let post = overlay.snapshot();
            assert!(post.is_view(), "the base is itself patched");
            let (hub, inserts) = hub_heavy_edges(&post, seed);
            assert!(inserts.iter().filter(|e| e.0 == hub || e.1 == hub).count() >= 8);
            assert_stages_equal_prefix_views(&post, &inserts);
            // The insert side of a delta batch stages the reversed list:
            // insert `i` is matched against `post` minus every later insert.
            let reversed: Vec<(u32, u32)> = inserts.iter().rev().copied().collect();
            let views = post.staged_without_edges(&reversed);
            for i in 0..inserts.len() {
                let view = &views[inserts.len() - 1 - i];
                let want = post.without_edges(&inserts[i + 1..]);
                assert_eq!(view.num_edges(), want.num_edges(), "insert {i}");
                for v in post.vertices() {
                    assert_eq!(view.neighbors(v), want.neighbors(v), "insert {i} row {v}");
                }
            }
            // A stage view patched further flattens its family's table.
            let mid = inserts.len() / 2;
            let again = views[mid].without_edges(&reversed[mid..mid + 1]);
            let want = post.without_edges(&reversed[..mid + 1]);
            for v in post.vertices() {
                assert_eq!(again.neighbors(v), want.neighbors(v), "re-patched row {v}");
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }
}
