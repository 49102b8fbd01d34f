//! Pattern automorphisms and symmetry-breaking partial orders.
//!
//! Without symmetry breaking, a pattern with `|Aut(P)|` automorphisms is
//! reported `|Aut(P)|` times per subgraph. Graph-mining systems (Dryadic
//! included) break the symmetry with a partial order over the pattern
//! vertices derived from the automorphism group, so each subgraph is
//! enumerated exactly once. We use the classic orbit–stabilizer scheme:
//! repeatedly pick the first vertex not fixed by the remaining group, order
//! it below its orbit, and restrict the group to the stabilizer.

use crate::order::MatchOrder;
use crate::Pattern;

/// Enumerates all automorphisms of `p` (label-preserving adjacency-preserving
/// permutations). Brute force over at most `8! = 40320` permutations, which
/// is instant for pattern-sized graphs.
pub fn automorphisms(p: &Pattern) -> Vec<Vec<usize>> {
    let n = p.size();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut result = Vec::new();
    loop {
        if p.is_automorphism(&perm) {
            result.push(perm.clone());
        }
        if !next_permutation(&mut perm) {
            break;
        }
    }
    result
}

fn next_permutation(p: &mut [usize]) -> bool {
    let n = p.len();
    if n < 2 {
        return false;
    }
    let mut i = n - 1;
    while i > 0 && p[i - 1] >= p[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    let mut j = n - 1;
    while p[j] <= p[i - 1] {
        j -= 1;
    }
    p.swap(i - 1, j);
    p[i..].reverse();
    true
}

/// A single symmetry-breaking constraint: the data vertex matched to pattern
/// vertex `small` must be numerically less than the one matched to `large`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LessThan {
    pub small: usize,
    pub large: usize,
}

/// Computes a set of [`LessThan`] constraints over pattern vertices such
/// that, of the injective maps a permutation group `group` carries onto one
/// another, exactly one satisfies all of them.
///
/// Orbit–stabilizer: while the remaining group `A` is non-trivial, take the
/// first vertex `v` of `visit` moved by `A`, add `v < u` for every other
/// vertex `u` in `v`'s orbit under `A`, then restrict `A` to the stabilizer
/// of `v`. A whole-graph plan breaks `Aut(P)` visiting `0..n`; an anchored
/// plan breaks its anchor's setwise stabilizer (see [`anchored_bounds`]).
pub fn breaking_constraints(group: &[Vec<usize>], visit: &[usize]) -> Vec<LessThan> {
    let mut group = group.to_vec();
    let mut constraints = Vec::new();
    while group.len() > 1 {
        // The first vertex, in visiting order, moved by the group.
        let Some(&v) = visit.iter().find(|&&v| group.iter().any(|g| g[v] != v)) else {
            break;
        };
        // Orbit of v.
        let mut orbit: Vec<usize> = group.iter().map(|g| g[v]).collect();
        orbit.sort_unstable();
        orbit.dedup();
        for &u in orbit.iter().filter(|&&u| u != v) {
            constraints.push(LessThan { small: v, large: u });
        }
        // Stabilizer of v.
        group.retain(|g| g[v] == v);
    }
    constraints
}

/// One orbit of the pattern's edges under `Aut(P)`: the pattern edges some
/// automorphism maps onto one another.
#[derive(Clone, Debug)]
pub struct EdgeOrbit {
    /// The orbit's representative `(p, q)`, `p < q`: the anchor its
    /// anchored plan matches first.
    pub rep: (usize, usize),
    /// The orbit's edges, each `(p, q)` with `p < q`, ascending.
    pub edges: Vec<(usize, usize)>,
    /// The setwise stabilizer of `rep`: every automorphism mapping `{p, q}`
    /// onto itself, in either direction.
    pub stabilizer: Vec<Vec<usize>>,
}

/// The automorphisms of `group` that map the edge `{p, q}` onto itself.
fn setwise_stabilizer(group: &[Vec<usize>], (p, q): (usize, usize)) -> Vec<Vec<usize>> {
    let fixes = |g: &Vec<usize>| (g[p] == p && g[q] == q) || (g[p] == q && g[q] == p);
    group.iter().filter(|g| fixes(g)).cloned().collect()
}

/// The orbits of `p`'s edges under `Aut(P)`. Edges `(a, b)`, `a < b`, are
/// visited by `b`, then `a`, and each orbit is represented by the first of
/// its edges visited. Every pattern edge lies in exactly one orbit, and by
/// the orbit–stabilizer theorem `|Aut(P)| = |orbit| × |stabilizer|` for each.
pub fn edge_orbits(p: &Pattern) -> Vec<EdgeOrbit> {
    let group = automorphisms(p);
    let n = p.size();
    let mut seen = vec![false; n * n];
    let mut orbits = Vec::new();
    for b in 0..n {
        for a in 0..b {
            if !p.has_edge(a, b) || seen[a * n + b] {
                continue;
            }
            let mut edges: Vec<(usize, usize)> = group
                .iter()
                .map(|g| (g[a].min(g[b]), g[a].max(g[b])))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            for &(x, y) in &edges {
                seen[x * n + y] = true;
            }
            orbits.push(EdgeOrbit {
                rep: (a, b),
                edges,
                stabilizer: setwise_stabilizer(&group, (a, b)),
            });
        }
    }
    orbits
}

/// Direction of a per-level bound during matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// The candidate must be numerically less than the referenced match.
    Less,
    /// The candidate must be numerically greater than the referenced match.
    Greater,
}

/// Per-level symmetry bounds: `bounds[l]` lists `(earlier_position, Bound)`
/// pairs the candidate at level `l` must satisfy against already-matched
/// vertices. Breaks all of `Aut(P)`, so each subgraph is matched once.
pub fn bounds_for_order(p: &Pattern, order: &MatchOrder) -> Vec<Vec<(usize, Bound)>> {
    let visit: Vec<usize> = (0..p.size()).collect();
    level_bounds(&breaking_constraints(&automorphisms(p), &visit), order)
}

/// Per-level bounds of an anchored plan, whose order starts with its anchor
/// edge `[p, q, …]`: they break the anchor's setwise stabilizer. If the
/// stabilizer swaps `p` and `q`, the first bound is the orientation bound
/// at level 1 against level 0; the rest come from the pointwise stabilizer
/// of `p` and `q`, and are the same in either orientation. Of the
/// embeddings of one subgraph that map `{p, q}` onto one given data edge,
/// exactly one satisfies them.
///
/// The orientation puts the lower-degree end of a data edge (on a
/// degree-ordered graph, the higher-numbered one) where level 2 expands
/// from: `m[1] > m[0]` (visiting `[p, q, …]`) when level 2's vertex is
/// adjacent to `q` only, so the row it streams is position 1's; `m[1] <
/// m[0]` (visiting `[q, p, …]`) otherwise, so it is position 0's.
pub fn anchored_bounds(p: &Pattern, order: &MatchOrder) -> Vec<Vec<(usize, Bound)>> {
    let anchor = (order.vertex_at(0), order.vertex_at(1));
    let stabilizer = setwise_stabilizer(&automorphisms(p), anchor);
    let mut visit: Vec<usize> = (0..order.len()).map(|l| order.vertex_at(l)).collect();
    let from_q =
        order.len() > 2 && p.has_edge(visit[2], anchor.1) && !p.has_edge(visit[2], anchor.0);
    if !from_q {
        visit.swap(0, 1);
    }
    level_bounds(&breaking_constraints(&stabilizer, &visit), order)
}

/// Places each constraint at the level of whichever of its two vertices
/// `order` matches later.
fn level_bounds(constraints: &[LessThan], order: &MatchOrder) -> Vec<Vec<(usize, Bound)>> {
    let mut bounds: Vec<Vec<(usize, Bound)>> = vec![Vec::new(); order.len()];
    for c in constraints {
        let ps = order.position_of(c.small);
        let pl = order.position_of(c.large);
        if ps < pl {
            // `large` matched later: its candidate must exceed m[ps].
            bounds[pl].push((ps, Bound::Greater));
        } else {
            // `small` matched later: its candidate must be below m[pl].
            bounds[ps].push((pl, Bound::Less));
        }
    }
    bounds
}

/// `|Aut(P)|`, the factor separating embedding counts from subgraph counts.
pub fn automorphism_count(p: &Pattern) -> usize {
    automorphisms(p).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    /// The whole-graph constraints: all of `Aut(P)`, visiting `0..n`.
    fn whole(p: &Pattern) -> Vec<LessThan> {
        let visit: Vec<usize> = (0..p.size()).collect();
        breaking_constraints(&automorphisms(p), &visit)
    }

    #[test]
    fn automorphism_counts_of_known_patterns() {
        assert_eq!(automorphism_count(&catalog::triangle()), 6);
        assert_eq!(automorphism_count(&catalog::wedge()), 2);
        assert_eq!(automorphism_count(&catalog::square()), 8);
        assert_eq!(automorphism_count(&catalog::clique(5)), 120);
        assert_eq!(automorphism_count(&catalog::path(4)), 2);
        assert_eq!(automorphism_count(&catalog::star3()), 6);
        // Diamond (K4 - e): swap the two degree-3 vertices and/or the two
        // degree-2 vertices.
        assert_eq!(automorphism_count(&catalog::diamond()), 4);
    }

    #[test]
    fn labels_shrink_the_group() {
        let t = catalog::triangle();
        assert_eq!(automorphism_count(&t), 6);
        let labeled = t.with_labels(&[0, 0, 1]);
        assert_eq!(automorphism_count(&labeled), 2);
    }

    #[test]
    fn triangle_constraints_form_total_order() {
        let cs = whole(&catalog::triangle());
        // v0 < v1, v0 < v2 from orbit of 0; then v1 < v2 from stabilizer.
        assert_eq!(cs.len(), 3);
        assert!(cs.contains(&LessThan { small: 0, large: 1 }));
        assert!(cs.contains(&LessThan { small: 0, large: 2 }));
        assert!(cs.contains(&LessThan { small: 1, large: 2 }));
    }

    #[test]
    fn clique_constraints_count() {
        // K_n symmetry breaking yields a full chain: n*(n-1)/2 pairs... the
        // orbit-stabilizer scheme emits (n-1) + (n-2) + ... + 1 constraints.
        let cs = whole(&catalog::clique(5));
        assert_eq!(cs.len(), 10);
    }

    #[test]
    fn asymmetric_pattern_has_no_constraints() {
        // The smallest asymmetric tree: a 6-path with one extra leaf hung
        // off vertex 2, giving the center three branches of distinct
        // lengths (1, 2, 3).
        let p = Pattern::new(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)]);
        assert_eq!(automorphism_count(&p), 1);
        assert!(whole(&p).is_empty());
    }

    #[test]
    fn bounds_reference_earlier_positions_only() {
        for q in catalog::all_paper_queries() {
            let order = MatchOrder::greedy(&q);
            let bounds = bounds_for_order(&q, &order);
            for (l, bs) in bounds.iter().enumerate() {
                for &(pos, _) in bs {
                    assert!(pos < l, "{}: bound at level {l} references {pos}", q.name());
                }
            }
        }
    }

    #[test]
    fn wedge_bounds_pick_endpoints() {
        // Wedge 0-1-2 (center 1): constraints 0 < 2.
        let p = catalog::wedge();
        let cs = whole(&p);
        assert_eq!(cs, vec![LessThan { small: 0, large: 2 }]);
        let order = MatchOrder::greedy(&p);
        let bounds = bounds_for_order(&p, &order);
        let total: usize = bounds.iter().map(|b| b.len()).sum();
        assert_eq!(total, 1);
    }

    /// Whether some automorphism of the stabilizer swaps the anchor's two
    /// endpoints (its anchored plan then carries an orientation bound).
    fn swaps_anchor(o: &EdgeOrbit) -> bool {
        let (p, q) = o.rep;
        o.stabilizer.iter().any(|g| g[p] == q)
    }

    fn orbit_sizes(p: &Pattern) -> Vec<usize> {
        edge_orbits(p).iter().map(|o| o.edges.len()).collect()
    }

    #[test]
    fn edge_orbits_partition_the_edges_by_orbit_stabilizer() {
        let mut patterns = catalog::all_paper_queries();
        patterns.push(catalog::triangle());
        for q in patterns {
            let aut = automorphism_count(&q);
            let mut all: Vec<(usize, usize)> = Vec::new();
            for o in edge_orbits(&q) {
                assert!(
                    o.edges.contains(&o.rep),
                    "{}: rep outside its orbit",
                    q.name()
                );
                assert_eq!(
                    aut,
                    o.edges.len() * o.stabilizer.len(),
                    "{}: orbit of {:?}",
                    q.name(),
                    o.rep
                );
                all.extend(&o.edges);
            }
            all.sort_unstable();
            let want: Vec<(usize, usize)> = (0..q.size())
                .flat_map(|a| (a + 1..q.size()).map(move |b| (a, b)))
                .filter(|&(a, b)| q.has_edge(a, b))
                .collect();
            assert_eq!(all, want, "{}: orbits must partition E(P)", q.name());
        }
    }

    #[test]
    fn pinned_edge_orbits() {
        let triangle = edge_orbits(&catalog::triangle());
        assert_eq!(orbit_sizes(&catalog::triangle()), [3]);
        assert!(swaps_anchor(&triangle[0]));
        assert_eq!(orbit_sizes(&catalog::paper_query(2)), [5]); // C5
        let tailed = catalog::paper_query(4); // tailed C4
        assert_eq!(orbit_sizes(&tailed), [2, 2, 1]);
        assert!(!edge_orbits(&tailed).iter().any(swaps_anchor));
        assert_eq!(orbit_sizes(&catalog::paper_query(3)), [1, 2, 1, 2]); // house
        assert_eq!(orbit_sizes(&catalog::clique(5)), [10]);

        let bowtie = catalog::paper_query(6);
        assert_eq!(orbit_sizes(&bowtie), [2, 4]);
        let wing = &edge_orbits(&bowtie)[0];
        assert_eq!(wing.rep, (0, 1));
        assert_eq!(wing.stabilizer.len(), 4);
        assert!(swaps_anchor(wing));
        assert!(
            wing.stabilizer.contains(&vec![0, 1, 2, 4, 3]),
            "fixes {{0,1}} pointwise while swapping 3 and 4"
        );
    }

    #[test]
    fn anchored_bounds_break_only_the_stabilizer() {
        // Triangle anchored on {0, 1}: the orientation bound m[1] < m[0] and
        // nothing else — vertex 2 is fixed once 0 and 1 are.
        let t = catalog::triangle();
        let bounds = anchored_bounds(&t, &MatchOrder::anchored(&t, (0, 1)));
        assert_eq!(bounds, vec![vec![], vec![(0, Bound::Less)], vec![]]);
        // Bowtie on its wing {0, 1}: orientation, then the far wing's two
        // vertices ordered against each other.
        let b = catalog::paper_query(6);
        let order = MatchOrder::anchored(&b, (0, 1));
        let bounds = anchored_bounds(&b, &order);
        assert_eq!(bounds[1], vec![(0, Bound::Less)]);
        assert_eq!(bounds.iter().map(Vec::len).sum::<usize>(), 2);
        // Tailed C4: no stabilizer swaps, so no orientation bound.
        let t4 = catalog::paper_query(4);
        for o in edge_orbits(&t4) {
            let bounds = anchored_bounds(&t4, &MatchOrder::anchored(&t4, o.rep));
            assert!(bounds[1].is_empty(), "{:?}", o.rep);
        }
    }

    #[test]
    fn anchored_plans_orient_by_where_level_2_expands() {
        // Level 1 of every edge orbit's anchored plan, for `q`.
        let level1 = |q: &Pattern| -> Vec<Vec<(usize, Bound)>> {
            edge_orbits(q)
                .iter()
                .map(|o| anchored_bounds(q, &MatchOrder::anchored(q, o.rep))[1].clone())
                .collect()
        };
        // C5 and C6: level 2 hangs off position 1 alone, so position 1 takes
        // the lower-degree end.
        for q in [2, 10] {
            let bounds = level1(&catalog::paper_query(q));
            assert_eq!(bounds, vec![vec![(0, Bound::Greater)]], "q{q}");
        }
        // The triangle's and the bowtie wing's level 2 is adjacent to both.
        assert_eq!(level1(&catalog::triangle()), vec![vec![(0, Bound::Less)]]);
        assert_eq!(level1(&catalog::paper_query(6))[0], vec![(0, Bound::Less)]);
        // Tailed C4: no stabilizer swaps its anchors.
        assert!(level1(&catalog::paper_query(4)).iter().all(Vec::is_empty));
    }
}
