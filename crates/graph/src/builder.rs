//! Incremental graph construction.

use crate::{Graph, Label, VertexId};

/// Builds an undirected [`Graph`] from an edge list.
///
/// Duplicate edges and self-loops are silently dropped (the standard
/// preprocessing applied to the SNAP datasets in the paper's artifact).
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    labels: Vec<Label>,
}

impl GraphBuilder {
    /// A builder for a graph with `num_vertices` vertices and no edges.
    pub fn new(num_vertices: usize) -> Self {
        Self::with_capacity(num_vertices, 0)
    }

    /// Like [`GraphBuilder::new`] but pre-reserves space for `edge_hint` edges.
    pub fn with_capacity(num_vertices: usize, edge_hint: usize) -> Self {
        GraphBuilder {
            num_vertices,
            edges: Vec::with_capacity(edge_hint),
            labels: vec![0; num_vertices],
        }
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are ignored. Vertex ids
    /// beyond the current vertex count grow the graph.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        if u == v {
            return;
        }
        let hi = u.max(v) as usize + 1;
        if hi > self.num_vertices {
            self.num_vertices = hi;
            self.labels.resize(hi, 0);
        }
        self.edges.push((u.min(v), u.max(v)));
    }

    /// Sets the label of `u`, growing the graph if needed.
    pub fn set_label(&mut self, u: VertexId, label: Label) {
        let hi = u as usize + 1;
        if hi > self.num_vertices {
            self.num_vertices = hi;
            self.labels.resize(hi, 0);
        }
        self.labels[u as usize] = label;
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Finalizes into a CSR [`Graph`]: deduplicates edges, sorts adjacency.
    ///
    /// # Panics
    /// Panics if a label is `Label::MAX` (the label count, `max + 1`, would
    /// not fit a `u32`).
    pub fn build(self) -> Graph {
        let n = self.num_vertices;
        let mut edges = self.edges;
        edges.sort_unstable();
        edges.dedup();

        let mut degree = vec![0usize; n];
        for &(u, v) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        row_ptr.push(0);
        for d in &degree {
            acc += d;
            row_ptr.push(acc);
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0 as VertexId; acc];
        for &(u, v) in &edges {
            col_idx[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            col_idx[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Each adjacency run is already mostly sorted (edges were sorted by
        // (min,max)), but the mixture of "as u" and "as v" entries is not:
        // sort each run.
        for v in 0..n {
            col_idx[row_ptr[v]..row_ptr[v + 1]].sort_unstable();
        }
        Graph::from_parts(row_ptr, col_idx, self.labels, String::new())
    }
}

/// Convenience: builds a graph directly from an edge slice.
pub fn graph_from_edges(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Graph {
    let mut b = GraphBuilder::with_capacity(num_vertices, edges.len());
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_duplicates_and_self_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0); // duplicate, reversed
        b.add_edge(0, 1); // duplicate
        b.add_edge(2, 2); // self-loop
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn grows_on_out_of_range_ids() {
        let mut b = GraphBuilder::new(1);
        b.add_edge(0, 5);
        b.set_label(7, 3);
        let g = b.build();
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.label(7), 3);
        assert!(g.has_edge(5, 0));
    }

    #[test]
    fn from_edges_helper() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(g.num_edges(), 4);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
    }
}
