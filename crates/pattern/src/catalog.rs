//! The query catalog: the paper's 24 evaluation queries plus classic motifs.
//!
//! The paper tests 24 distinct undirected queries: `q1..q8` of size 5,
//! `q9..q16` of size 6 and `q17..q24` of size 7, where `q8`, `q16` and `q24`
//! are cliques and `q7`, `q8`, `q15`, `q16`, `q23`, `q24` cover the cuTS
//! query set. The paper selected the non-clique queries *randomly* from the
//! motif catalogs and does not publish their exact shapes, so this module
//! fixes a deterministic, documented selection with the same constraints and
//! a spread from sparse (paths) to dense (clique minus an edge) — the axis
//! that drives the performance differences in the evaluation.

use crate::Pattern;

/// Classic 3-vertex patterns.
pub fn triangle() -> Pattern {
    Pattern::new(3, &[(0, 1), (1, 2), (2, 0)]).with_name("triangle")
}

/// Path with two edges (wedge / open triangle).
pub fn wedge() -> Pattern {
    Pattern::new(3, &[(0, 1), (1, 2)]).with_name("wedge")
}

/// 4-vertex cycle.
pub fn square() -> Pattern {
    Pattern::new(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).with_name("square")
}

/// 4-clique.
pub fn k4() -> Pattern {
    clique(4)
}

/// Diamond: K4 minus one edge.
pub fn diamond() -> Pattern {
    Pattern::new(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).with_name("diamond")
}

/// Tailed triangle: triangle with a pendant edge.
pub fn tailed_triangle() -> Pattern {
    Pattern::new(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).with_name("tailed-triangle")
}

/// 3-star (claw).
pub fn star3() -> Pattern {
    Pattern::new(4, &[(0, 1), (0, 2), (0, 3)]).with_name("star3")
}

/// The clique K_n.
pub fn clique(n: usize) -> Pattern {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    Pattern::new(n, &edges).with_name(format!("K{n}"))
}

/// The clique K_n minus the edge {0, 1}.
pub fn clique_minus_edge(n: usize) -> Pattern {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2 - 1);
    for u in 0..n {
        for v in (u + 1)..n {
            if !(u == 0 && v == 1) {
                edges.push((u, v));
            }
        }
    }
    Pattern::new(n, &edges).with_name(format!("K{n}-e"))
}

/// Simple path P_n (n vertices, n-1 edges).
pub fn path(n: usize) -> Pattern {
    let edges: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
    Pattern::new(n, &edges).with_name(format!("P{n}"))
}

/// Cycle C_n.
pub fn cycle(n: usize) -> Pattern {
    let mut edges: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
    edges.push((n - 1, 0));
    Pattern::new(n, &edges).with_name(format!("C{n}"))
}

/// Cycle C_{n-1} plus a pendant vertex attached to vertex 0.
pub fn tailed_cycle(n: usize) -> Pattern {
    let c = n - 1;
    let mut edges: Vec<_> = (1..c).map(|v| (v - 1, v)).collect();
    edges.push((c - 1, 0));
    edges.push((0, c));
    Pattern::new(n, &edges).with_name(format!("tailed-C{c}"))
}

/// Wheel: hub vertex 0 connected to every vertex of the rim cycle 1..n.
pub fn wheel(n: usize) -> Pattern {
    let rim = n - 1;
    let mut edges: Vec<_> = (1..=rim).map(|v| (0, v)).collect();
    for v in 1..rim {
        edges.push((v, v + 1));
    }
    edges.push((rim, 1));
    Pattern::new(n, &edges).with_name(format!("W{rim}"))
}

/// Returns query `qi` for `i` in `1..=24`, the paper's evaluation set.
///
/// # Panics
/// Panics if `i` is outside `1..=24`.
pub fn paper_query(i: usize) -> Pattern {
    let p = match i {
        // ---- size 5: q1..q8 ----
        1 => path(5),
        2 => cycle(5),
        // House: 4-cycle 0-1-2-3 with a roof vertex 4 over edge {0,1}.
        3 => Pattern::new(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]).with_name("house"),
        4 => tailed_cycle(5),
        // Lollipop: K4 on {0,1,2,3} plus pendant 4 on vertex 3.
        5 => Pattern::new(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
            .with_name("lollipop5"),
        // Bowtie: triangles {0,1,2} and {2,3,4} sharing vertex 2.
        6 => Pattern::new(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]).with_name("bowtie"),
        7 => clique_minus_edge(5),
        8 => clique(5),
        // ---- size 6: q9..q16 ----
        9 => path(6),
        10 => cycle(6),
        // Prism (triangular prism): triangles {0,1,2}, {3,4,5} joined by a
        // perfect matching.
        11 => Pattern::new(
            6,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (3, 4),
                (4, 5),
                (5, 3),
                (0, 3),
                (1, 4),
                (2, 5),
            ],
        )
        .with_name("prism"),
        12 => tailed_cycle(6),
        // Net: triangle {0,1,2} with one pendant per corner.
        13 => Pattern::new(6, &[(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)]).with_name("net"),
        14 => wheel(6),
        15 => clique_minus_edge(6),
        16 => clique(6),
        // ---- size 7: q17..q24 ----
        17 => path(7),
        18 => cycle(7),
        19 => tailed_cycle(7),
        // Two K4s sharing vertex 3.
        20 => Pattern::new(
            7,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (3, 6),
                (4, 5),
                (4, 6),
                (5, 6),
            ],
        )
        .with_name("double-K4"),
        21 => wheel(7),
        // Complete bipartite K{3,4}: parts {0,1,2} and {3,4,5,6}.
        22 => Pattern::new(
            7,
            &[
                (0, 3),
                (0, 4),
                (0, 5),
                (0, 6),
                (1, 3),
                (1, 4),
                (1, 5),
                (1, 6),
                (2, 3),
                (2, 4),
                (2, 5),
                (2, 6),
            ],
        )
        .with_name("K3,4"),
        23 => clique_minus_edge(7),
        24 => clique(7),
        other => panic!("paper query index {other} out of range 1..=24"),
    };
    p.with_name(format!("q{i}"))
}

/// All 24 paper queries, in order.
pub fn all_paper_queries() -> Vec<Pattern> {
    (1..=24).map(paper_query).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iso::next_permutation;

    #[test]
    fn sizes_match_paper_grouping() {
        for i in 1..=24 {
            let p = paper_query(i);
            let expected = if i <= 8 {
                5
            } else if i <= 16 {
                6
            } else {
                7
            };
            assert_eq!(p.size(), expected, "q{i}");
        }
    }

    #[test]
    fn q8_q16_q24_are_cliques() {
        for i in [8, 16, 24] {
            assert!(paper_query(i).is_clique(), "q{i} must be a clique");
        }
        for i in [7, 15, 23] {
            let p = paper_query(i);
            assert!(!p.is_clique());
            assert_eq!(p.num_edges(), p.size() * (p.size() - 1) / 2 - 1);
        }
    }

    #[test]
    fn queries_are_pairwise_distinct() {
        let qs = all_paper_queries();
        for i in 0..qs.len() {
            for j in (i + 1)..qs.len() {
                if qs[i].size() != qs[j].size() {
                    continue;
                }
                // Cheap distinctness check: degree multiset or edge count.
                let mut di: Vec<_> = (0..qs[i].size()).map(|u| qs[i].degree(u)).collect();
                let mut dj: Vec<_> = (0..qs[j].size()).map(|u| qs[j].degree(u)).collect();
                di.sort_unstable();
                dj.sort_unstable();
                assert!(
                    di != dj
                        || qs[i].num_edges() != qs[j].num_edges()
                        || !isomorphic(&qs[i], &qs[j]),
                    "q{} and q{} are isomorphic",
                    i + 1,
                    j + 1
                );
            }
        }
    }

    /// Brute-force isomorphism test for catalog sanity (≤ 7! permutations).
    fn isomorphic(a: &Pattern, b: &Pattern) -> bool {
        let n = a.size();
        let mut perm: Vec<usize> = (0..n).collect();
        loop {
            if (0..n)
                .all(|u| (0..n).all(|v| u == v || a.has_edge(u, v) == b.has_edge(perm[u], perm[v])))
            {
                return true;
            }
            if !next_permutation(&mut perm) {
                return false;
            }
        }
    }

    #[test]
    fn wheel_and_prism_shapes() {
        let w = wheel(6);
        assert_eq!(w.degree(0), 5);
        assert_eq!(w.num_edges(), 10);
        let pr = paper_query(11);
        assert!((0..6).all(|u| pr.degree(u) == 3));
    }

    #[test]
    fn classics_are_well_formed() {
        assert!(triangle().is_clique());
        assert_eq!(wedge().num_edges(), 2);
        assert_eq!(diamond().num_edges(), 5);
        assert_eq!(star3().degree(0), 3);
        assert_eq!(square().num_edges(), 4);
        assert_eq!(tailed_triangle().num_edges(), 4);
        assert_eq!(k4().num_edges(), 6);
    }
}
