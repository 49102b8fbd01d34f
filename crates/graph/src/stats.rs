//! Degree statistics reproducing Table I of the paper.

use crate::Graph;

/// Summary statistics for a data graph — the columns of Table I:
/// `#nodes, #edges, max degree, median degree, fraction of nodes with
/// degree > threshold` (the paper uses 4096, the `MAX_DEGREE` slab size).
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    pub name: String,
    pub num_vertices: usize,
    pub num_edges: usize,
    pub max_degree: usize,
    pub median_degree: usize,
    /// Fraction (0..=1) of vertices whose degree exceeds `deg_threshold`.
    pub frac_above_threshold: f64,
    pub deg_threshold: usize,
}

impl GraphStats {
    /// Computes statistics with the paper's 4096 threshold.
    pub fn of(g: &Graph) -> GraphStats {
        Self::with_threshold(g, 4096)
    }

    /// Computes statistics with an explicit degree threshold.
    pub fn with_threshold(g: &Graph, deg_threshold: usize) -> GraphStats {
        let mut degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        degrees.sort_unstable();
        let n = degrees.len();
        let median_degree = if n == 0 { 0 } else { degrees[n / 2] };
        let above = degrees.iter().filter(|&&d| d > deg_threshold).count();
        GraphStats {
            name: g.name().to_string(),
            num_vertices: n,
            num_edges: g.num_edges(),
            max_degree: *degrees.last().unwrap_or(&0),
            median_degree,
            frac_above_threshold: if n == 0 { 0.0 } else { above as f64 / n as f64 },
            deg_threshold,
        }
    }

    /// Average degree `2m / n`.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_vertices as f64
        }
    }
}

/// Per-vertex work weights for level-0 domain partitioning.
///
/// The cost of rooting the search at `v` is dominated by `v`'s degree (the
/// level-1 candidate list) and by how many of those candidates survive the
/// level-2 intersection — approximated per neighbor `u` by
/// `min(deg(u), deg(v))`, the set-intersection bound. The `1 +` floor keeps
/// isolated vertices from weighing zero, so every vertex lands in some
/// shard's accounting.
pub fn level0_weights(g: &Graph) -> Vec<u64> {
    g.vertices()
        .map(|v| {
            let dv = g.degree(v) as u64;
            let isect: u64 = g
                .neighbors(v)
                .iter()
                .map(|&u| (g.degree(u) as u64).min(dv))
                .sum();
            1 + dv + isect
        })
        .collect()
}

/// The `min(k, n)` largest vertex degrees, descending.
///
/// This is the degree summary the static plan verifier's abstract
/// interpretation runs on: a candidate set contained in the neighbor lists
/// of `j` *distinct* matched vertices is no larger than the smallest of
/// their degrees, which is at most `top_degrees(g, k)[j - 1]` — the `j`-th
/// largest degree in the whole graph. O(n) selection + O(k log k) sort.
pub fn top_degrees(g: &Graph, k: usize) -> Vec<usize> {
    let mut degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
    let k = k.min(degrees.len());
    if k == 0 {
        return Vec::new();
    }
    degrees.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
    degrees.truncate(k);
    degrees.sort_unstable_by(|a, b| b.cmp(a));
    degrees
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<16} |V|={:<9} |E|={:<10} max_deg={:<6} med_deg={:<4} deg>{}: {:.4}%",
            self.name,
            self.num_vertices,
            self.num_edges,
            self.max_degree,
            self.median_degree,
            self.deg_threshold,
            self.frac_above_threshold * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn stats_of_star() {
        let g = gen::star(100).with_name("star100");
        let s = GraphStats::with_threshold(&g, 50);
        assert_eq!(s.num_vertices, 101);
        assert_eq!(s.num_edges, 100);
        assert_eq!(s.max_degree, 100);
        assert_eq!(s.median_degree, 1);
        // Exactly the hub exceeds 50.
        assert!((s.frac_above_threshold - 1.0 / 101.0).abs() < 1e-12);
        assert!((s.avg_degree() - 200.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty() {
        let g = crate::GraphBuilder::new(0).build();
        let s = GraphStats::of(&g);
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.max_degree, 0);
        assert_eq!(s.frac_above_threshold, 0.0);
    }

    #[test]
    fn level0_weights_track_skew() {
        let g = gen::star(10);
        let w = level0_weights(&g);
        assert_eq!(w.len(), 11);
        // Hub: deg 10, each neighbor contributes min(1, 10) = 1.
        assert_eq!(w[0], 1 + 10 + 10);
        // Leaf: deg 1, the hub neighbor contributes min(10, 1) = 1.
        assert_eq!(w[1], 1 + 1 + 1);
        // Isolated vertices still weigh 1.
        let empty = crate::GraphBuilder::new(3).build();
        assert_eq!(level0_weights(&empty), vec![1, 1, 1]);
    }

    #[test]
    fn top_degrees_orders_and_clamps() {
        let g = gen::star(5);
        assert_eq!(top_degrees(&g, 3), vec![5, 1, 1]);
        assert_eq!(top_degrees(&g, 100).len(), 6);
        assert_eq!(top_degrees(&g, 0), Vec::<usize>::new());
        let empty = crate::GraphBuilder::new(0).build();
        assert!(top_degrees(&empty, 4).is_empty());
    }

    #[test]
    fn display_is_stable() {
        let g = gen::complete(4).with_name("k4");
        let line = GraphStats::of(&g).to_string();
        assert!(line.contains("k4"));
        assert!(line.contains("|V|=4"));
    }
}
