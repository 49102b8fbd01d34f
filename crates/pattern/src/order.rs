//! Static matching-order selection.
//!
//! The paper adopts Dryadic's static matching order for all systems "for
//! fairness". We implement the same family of connectivity-constrained
//! greedy orders: start from a max-degree pattern vertex, then repeatedly
//! pick the unmatched vertex with the most already-matched neighbors
//! (maximizing pruning by set intersection), breaking ties by pattern degree
//! and then by vertex id for determinism.

use crate::Pattern;
use std::collections::HashSet;

/// Calls `visit` with every completion of `prefix` that places, at each
/// level, one of the unplaced vertices with the most placed neighbors, in
/// ascending vertex order at every branch.
fn extend_max_back(p: &Pattern, prefix: &mut Vec<usize>, visit: &mut impl FnMut(&[usize])) {
    let n = p.size();
    if prefix.len() == n {
        visit(prefix);
        return;
    }
    let back = |u: usize| prefix.iter().filter(|&&v| p.has_edge(u, v)).count();
    let open: Vec<usize> = (0..n).filter(|u| !prefix.contains(u)).collect();
    let most = open.iter().map(|&u| back(u)).max().unwrap_or(0);
    let ties: Vec<usize> = open.into_iter().filter(|&u| back(u) == most).collect();
    for u in ties {
        prefix.push(u);
        extend_max_back(p, prefix, visit);
        prefix.pop();
    }
}

/// A matching order `π` over the pattern's vertices.
///
/// Invariant: for every level `l >= 1`, `π[l]` is adjacent in the pattern to
/// at least one of `π[0..l]` — the property the backtracking loop relies on
/// to seed each candidate set from a neighbor list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchOrder {
    order: Vec<usize>,
    /// `backward[l]` = bitmask over *positions* `< l` whose pattern vertices
    /// are adjacent to `π[l]`.
    backward: Vec<u8>,
}

impl MatchOrder {
    /// Degeneracy (k-core) order: repeatedly remove the minimum-degree
    /// vertex; the *reverse* removal order places dense-core vertices
    /// first. An alternative to [`MatchOrder::greedy`] that favours early
    /// pruning on clique-like patterns; exposed so users can plug in
    /// Dryadic-style order search of their own.
    pub fn degeneracy(p: &Pattern) -> MatchOrder {
        let n = p.size();
        let mut removed = [false; crate::MAX_PATTERN_SIZE];
        let mut removal = Vec::with_capacity(n);
        for _ in 0..n {
            let next = (0..n)
                .filter(|&u| !removed[u])
                .min_by_key(|&u| {
                    let live_deg = (0..n).filter(|&v| !removed[v] && p.has_edge(u, v)).count();
                    (live_deg, u)
                })
                .expect("vertex remains");
            removed[next] = true;
            removal.push(next);
        }
        removal.reverse();
        // The reversed removal order may violate connectivity for sparse
        // patterns (e.g. paths); repair by stable-moving each offender
        // after one of its neighbors.
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut pending = removal;
        while !pending.is_empty() {
            let pos = pending
                .iter()
                .position(|&u| order.is_empty() || order.iter().any(|&v| p.has_edge(u, v)))
                .expect("pattern is connected");
            order.push(pending.remove(pos));
        }
        MatchOrder::from_order(p, order)
    }

    /// Greedy max-connectivity order (see module docs).
    pub fn greedy(p: &Pattern) -> MatchOrder {
        let n = p.size();
        let start = (0..n)
            .max_by_key(|&u| (p.degree(u), std::cmp::Reverse(u)))
            .expect("pattern is non-empty");
        let mut order = Vec::with_capacity(n);
        let mut in_order = [false; crate::MAX_PATTERN_SIZE];
        order.push(start);
        in_order[start] = true;
        while order.len() < n {
            let next = (0..n)
                .filter(|&u| !in_order[u])
                .max_by_key(|&u| {
                    let back = order.iter().filter(|&&v| p.has_edge(u, v)).count();
                    (back, p.degree(u), std::cmp::Reverse(u))
                })
                .expect("some vertex remains");
            // Connectivity of the pattern guarantees back >= 1 once the
            // frontier is non-empty; assert in debug builds.
            debug_assert!(
                order.iter().any(|&v| p.has_edge(next, v)),
                "greedy order broke connectivity"
            );
            order.push(next);
            in_order[next] = true;
        }
        MatchOrder::from_order(p, order)
    }

    /// Edge-anchored order for incremental (delta) matching: matches
    /// pattern edge `(p, q)` at levels 0/1 and extends greedily with the
    /// same tie-breaking as [`MatchOrder::greedy`]. The incremental engine
    /// pins levels 0/1 to the two endpoints of an updated data edge, so
    /// every embedding counted through this order uses that edge — the
    /// anchor discipline of delta decomposition (DESIGN.md §4k).
    ///
    /// This is the graph-free default, and the first of
    /// [`MatchOrder::anchored_candidates`]: a caller with a graph at hand
    /// (a delta-enabled service's plan-cache miss) keeps it unless a
    /// sampled estimate finds another candidate cheaper.
    ///
    /// # Panics
    /// Panics if `(p, q)` is not an edge of the pattern.
    pub fn anchored(p: &Pattern, edge: (usize, usize)) -> MatchOrder {
        let n = p.size();
        assert!(
            p.has_edge(edge.0, edge.1),
            "anchor ({}, {}) is not a pattern edge",
            edge.0,
            edge.1
        );
        let mut order = vec![edge.0, edge.1];
        let mut in_order = [false; crate::MAX_PATTERN_SIZE];
        in_order[edge.0] = true;
        in_order[edge.1] = true;
        while order.len() < n {
            let next = (0..n)
                .filter(|&u| !in_order[u])
                .max_by_key(|&u| {
                    let back = order.iter().filter(|&&v| p.has_edge(u, v)).count();
                    (back, p.degree(u), std::cmp::Reverse(u))
                })
                .expect("some vertex remains");
            order.push(next);
            in_order[next] = true;
        }
        MatchOrder::from_order(p, order)
    }

    /// The anchored orders worth measuring for the edge orbit of `(p, q)`:
    /// [`MatchOrder::anchored`] first, then every connected order that
    /// starts `[p, q, …]` or `[q, p, …]` and places, at each level, a
    /// vertex with the most already-placed neighbors (ties stay open
    /// instead of falling to degree and id). Orders that an automorphism
    /// fixing `{p, q}` maps onto an earlier one are dropped: their plans
    /// are the same plan relabeled, at the same cost. Anchoring on another
    /// edge of the orbit would only give automorphic images too.
    ///
    /// # Panics
    /// Panics if `(p, q)` is not an edge of the pattern.
    pub fn anchored_candidates(p: &Pattern, edge: (usize, usize)) -> Vec<MatchOrder> {
        let first = MatchOrder::anchored(p, edge);
        let stabilizer: Vec<Vec<usize>> = crate::symmetry::automorphisms(p)
            .into_iter()
            .filter(|g| {
                let image = (g[edge.0], g[edge.1]);
                image == edge || image == (edge.1, edge.0)
            })
            .collect();
        // Every image of a kept order: a later order among them is a
        // relabeling of one already kept.
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        let mut kept: Vec<MatchOrder> = Vec::new();
        let mut keep = |order: &[usize]| {
            if seen.contains(order) {
                return;
            }
            for g in &stabilizer {
                seen.insert(order.iter().map(|&u| g[u]).collect());
            }
            kept.push(MatchOrder::from_order(p, order.to_vec()));
        };
        keep(first.as_slice());
        for start in [[edge.0, edge.1], [edge.1, edge.0]] {
            extend_max_back(p, &mut start.to_vec(), &mut keep);
        }
        kept
    }

    /// Wraps an explicit order, validating the connectivity invariant.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of the pattern's vertices or
    /// violates the connectivity invariant.
    pub fn from_order(p: &Pattern, order: Vec<usize>) -> MatchOrder {
        let n = p.size();
        assert_eq!(order.len(), n, "order length mismatch");
        let mut seen = [false; crate::MAX_PATTERN_SIZE];
        for &u in &order {
            assert!(u < n, "vertex {u} out of range");
            assert!(!seen[u], "vertex {u} repeated in order");
            seen[u] = true;
        }
        let mut backward = Vec::with_capacity(n);
        for l in 0..n {
            let mut mask = 0u8;
            for (pos, &v) in order[..l].iter().enumerate() {
                if p.has_edge(order[l], v) {
                    mask |= 1 << pos;
                }
            }
            assert!(
                l == 0 || mask != 0,
                "order position {l} (vertex {}) has no matched neighbor",
                order[l]
            );
            backward.push(mask);
        }
        MatchOrder { order, backward }
    }

    /// Pattern size.
    #[inline]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the order is empty (never, for valid patterns).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The pattern vertex matched at level `l`.
    #[inline]
    pub fn vertex_at(&self, l: usize) -> usize {
        self.order[l]
    }

    /// The full order `π`.
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        &self.order
    }

    /// The position of pattern vertex `u` in the order.
    pub fn position_of(&self, u: usize) -> usize {
        self.order
            .iter()
            .position(|&v| v == u)
            .expect("vertex in order")
    }

    /// Bitmask over positions `< l` adjacent to `π[l]`.
    #[inline]
    pub fn backward_mask(&self, l: usize) -> u8 {
        self.backward[l]
    }

    /// Iterator over backward-neighbor positions of level `l` in ascending
    /// order.
    pub fn backward_positions(&self, l: usize) -> impl Iterator<Item = usize> {
        let mut mask = self.backward[l];
        std::iter::from_fn(move || {
            if mask == 0 {
                None
            } else {
                let pos = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                Some(pos)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn greedy_order_is_connected_for_all_paper_queries() {
        for q in catalog::all_paper_queries() {
            let o = MatchOrder::greedy(&q);
            assert_eq!(o.len(), q.size());
            for l in 1..o.len() {
                assert_ne!(o.backward_mask(l), 0, "{} level {l}", q.name());
            }
        }
    }

    #[test]
    fn clique_order_has_full_backward_masks() {
        let o = MatchOrder::greedy(&catalog::clique(5));
        for l in 0..5 {
            assert_eq!(o.backward_mask(l), (1u8 << l) - 1);
        }
    }

    #[test]
    fn path_order_prefers_dense_frontier() {
        // For P4 = 0-1-2-3 the greedy order starts at an interior vertex
        // (degree 2) and must stay connected.
        let p = catalog::path(4);
        let o = MatchOrder::greedy(&p);
        assert!(p.degree(o.vertex_at(0)) == 2);
    }

    #[test]
    fn explicit_order_validation() {
        let p = catalog::triangle();
        let o = MatchOrder::from_order(&p, vec![2, 0, 1]);
        assert_eq!(o.position_of(0), 1);
        assert_eq!(o.backward_positions(2).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "no matched neighbor")]
    fn rejects_disconnected_order() {
        // 0-1-2-3 path: order [0, 3, ...] breaks connectivity at level 1.
        let p = catalog::path(4);
        let _ = MatchOrder::from_order(&p, vec![0, 3, 1, 2]);
    }

    #[test]
    fn degeneracy_order_is_valid_for_all_paper_queries() {
        for q in catalog::all_paper_queries() {
            let o = MatchOrder::degeneracy(&q);
            assert_eq!(o.len(), q.size());
            for l in 1..o.len() {
                assert_ne!(o.backward_mask(l), 0, "{} level {l}", q.name());
            }
        }
    }

    #[test]
    fn degeneracy_order_puts_core_first_on_lollipop() {
        // K4 with a pendant: the pendant is removed first, so it lands
        // last in the matching order.
        let p = catalog::paper_query(5);
        let o = MatchOrder::degeneracy(&p);
        assert_eq!(o.vertex_at(o.len() - 1), 4, "pendant vertex matched last");
    }

    #[test]
    fn anchored_order_pins_the_edge_and_stays_connected() {
        for q in catalog::all_paper_queries() {
            for u in 0..q.size() {
                for v in 0..q.size() {
                    if !q.has_edge(u, v) {
                        continue;
                    }
                    let o = MatchOrder::anchored(&q, (u, v));
                    assert_eq!(o.vertex_at(0), u);
                    assert_eq!(o.vertex_at(1), v);
                    for l in 1..o.len() {
                        assert_ne!(o.backward_mask(l), 0, "{} level {l}", q.name());
                    }
                }
            }
        }
    }

    #[test]
    fn anchored_candidates_start_with_todays_order_and_keep_max_back_edges() {
        for q in catalog::all_paper_queries().into_iter().take(14) {
            for orbit in crate::symmetry::edge_orbits(&q) {
                let (a, b) = orbit.rep;
                let candidates = MatchOrder::anchored_candidates(&q, orbit.rep);
                assert_eq!(candidates[0], MatchOrder::anchored(&q, orbit.rep));
                for o in &candidates {
                    let start = (o.vertex_at(0), o.vertex_at(1));
                    assert!(start == (a, b) || start == (b, a), "{}: {o:?}", q.name());
                    for l in 2..o.len() {
                        let back =
                            |u: usize| (0..l).filter(|&j| q.has_edge(u, o.vertex_at(j))).count();
                        let most = (0..q.size())
                            .filter(|&u| o.position_of(u) >= l)
                            .map(back)
                            .max()
                            .unwrap();
                        assert_eq!(back(o.vertex_at(l)), most, "{}: {o:?} level {l}", q.name());
                    }
                }
            }
        }
    }

    #[test]
    fn anchored_candidates_drop_images_under_the_anchors_stabilizer() {
        // Every order of a clique is an image of every other under the
        // edge's stabilizer; the triangle's `[1, 0, 2]` is `[0, 1, 2]` with
        // the anchor swapped.
        assert_eq!(
            MatchOrder::anchored_candidates(&catalog::clique(5), (0, 1)).len(),
            1
        );
        assert_eq!(
            MatchOrder::anchored_candidates(&catalog::triangle(), (0, 1)).len(),
            1
        );
        // The tailed C4's rim edge {0, 1} has a trivial stabilizer: both
        // directions stay, each with its open ties.
        let q4 = catalog::paper_query(4);
        let rim = MatchOrder::anchored_candidates(&q4, (0, 1));
        assert!(rim.iter().any(|o| o.vertex_at(0) == 1), "{rim:?}");
        let distinct: HashSet<&[usize]> = rim.iter().map(MatchOrder::as_slice).collect();
        assert_eq!(distinct.len(), rim.len());
    }

    #[test]
    #[should_panic(expected = "not a pattern edge")]
    fn anchored_rejects_non_edges() {
        let _ = MatchOrder::anchored(&catalog::path(4), (0, 3));
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn rejects_duplicate_vertices() {
        let p = catalog::triangle();
        let _ = MatchOrder::from_order(&p, vec![0, 1, 1]);
    }
}
