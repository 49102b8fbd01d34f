//! Pattern-level isomorphism utilities.
//!
//! Patterns are at most [`crate::MAX_PATTERN_SIZE`] vertices, so exact
//! brute force over vertex permutations (≤ 8! = 40320) is affordable, if
//! not free: [`canonical_form`] only permutes vertices within their
//! `(label, degree)` class and builds each candidate on the stack, which
//! leaves milliseconds only for an 8-vertex pattern whose vertices share
//! one class (e.g. the 8-cycle). These helpers back the catalog's
//! distinctness checks, key the service's plan cache, and give users a way
//! to canonicalize and deduplicate query sets — e.g. when enumerating all
//! motifs of a size class.

use crate::{Pattern, MAX_PATTERN_SIZE};

/// Tests whether two patterns are isomorphic (labels must correspond too).
pub fn isomorphic(a: &Pattern, b: &Pattern) -> bool {
    if a.size() != b.size() || a.num_edges() != b.num_edges() {
        return false;
    }
    // Cheap invariant: sorted (degree, label) multisets must match.
    let mut da: Vec<(usize, u32)> = (0..a.size()).map(|u| (a.degree(u), a.label(u))).collect();
    let mut db: Vec<(usize, u32)> = (0..b.size()).map(|u| (b.degree(u), b.label(u))).collect();
    da.sort_unstable();
    db.sort_unstable();
    if da != db {
        return false;
    }
    let n = a.size();
    let mut perm: Vec<usize> = (0..n).collect();
    loop {
        if is_mapping(a, b, &perm) {
            return true;
        }
        if !next_permutation(&mut perm) {
            return false;
        }
    }
}

fn is_mapping(a: &Pattern, b: &Pattern, perm: &[usize]) -> bool {
    for u in 0..a.size() {
        if a.label(u) != b.label(perm[u]) {
            return false;
        }
        for v in (u + 1)..a.size() {
            if a.has_edge(u, v) != b.has_edge(perm[u], perm[v]) {
                return false;
            }
        }
    }
    true
}

/// Steps `p` to its next permutation in lexicographic order; `false`, and
/// `p` untouched, once it is the last (descending) one.
pub(crate) fn next_permutation(p: &mut [usize]) -> bool {
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

/// A canonical form for a pattern: over every vertex order that lists the
/// vertices in blocks of ascending `(label, degree)` class, the
/// lexicographically smallest `(label vector, adjacency bitmask vector)`.
/// The class is an isomorphism invariant, so two patterns are isomorphic
/// iff their canonical forms are equal, and this key can deduplicate motif
/// sets in hash maps. The orders tried are the product of the classes'
/// permutations; the two `Vec`s are the only allocations.
pub fn canonical_form(p: &Pattern) -> (Vec<u32>, Vec<u8>) {
    let n = p.size();
    let class = |u: usize| (p.label(u), p.degree(u));
    // order[i] = the vertex at position i; each block starts ascending.
    let mut order: [usize; MAX_PATTERN_SIZE] = std::array::from_fn(|i| i);
    let order = &mut order[..n];
    order.sort_unstable_by_key(|&u| (class(u), u));
    // Block b is order[bounds[b]..bounds[b + 1]].
    let mut bounds = [0usize; MAX_PATTERN_SIZE + 1];
    let mut blocks = 0;
    for i in 1..=n {
        if i == n || class(order[i]) != class(order[i - 1]) {
            blocks += 1;
            bounds[blocks] = i;
        }
    }
    let bounds = &bounds[..=blocks];
    let mut labels = [0u32; MAX_PATTERN_SIZE];
    for (label, &u) in labels.iter_mut().zip(order.iter()) {
        *label = p.label(u);
    }
    // No vertex is its own neighbor, so no real row is all ones and the
    // first candidate replaces this.
    let mut best = [u8::MAX; MAX_PATTERN_SIZE];
    loop {
        let mut at = [0usize; MAX_PATTERN_SIZE];
        for (pos, &u) in order.iter().enumerate() {
            at[u] = pos;
        }
        let mut adj = [0u8; MAX_PATTERN_SIZE];
        for (row, &u) in adj.iter_mut().zip(order.iter()) {
            let mut rest = p.adj_mask(u);
            while rest != 0 {
                *row |= 1 << at[rest.trailing_zeros() as usize];
                rest &= rest - 1;
            }
        }
        if adj[..n] < best[..n] {
            best = adj;
        }
        if !next_within_blocks(order, bounds) {
            break;
        }
    }
    (labels[..n].to_vec(), best[..n].to_vec())
}

/// Steps `order` to its next arrangement that moves vertices only within
/// their blocks, odometer-style from the last block; false (every block
/// back at its first, ascending arrangement) once all have been seen.
fn next_within_blocks(order: &mut [usize], bounds: &[usize]) -> bool {
    for block in bounds.windows(2).rev() {
        let block = &mut order[block[0]..block[1]];
        if next_permutation(block) {
            return true;
        }
        // The last permutation is descending: reversed, it is the first.
        block.reverse();
    }
    false
}

/// Enumerates all connected unlabeled patterns of `n` vertices, up to
/// isomorphism, by filtering edge subsets through [`canonical_form`].
/// Practical for `n <= 5` (the size-5 motif catalog has 21 entries); the
/// tests use it to validate the paper-query catalog's claims.
pub fn all_connected_motifs(n: usize) -> Vec<Pattern> {
    assert!(
        (1..=5).contains(&n),
        "motif enumeration supported for n <= 5"
    );
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect();
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for mask in 0u32..(1 << pairs.len()) {
        let edges: Vec<(usize, usize)> = pairs
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &e)| e)
            .collect();
        if edges.len() + 1 < n {
            continue; // cannot be connected
        }
        // Pattern::new panics on disconnected graphs; pre-check.
        if !connected(n, &edges) {
            continue;
        }
        let p = Pattern::new(n, &edges);
        if seen.insert(canonical_form(&p)) {
            out.push(p);
        }
    }
    out
}

fn connected(n: usize, edges: &[(usize, usize)]) -> bool {
    let mut adj = vec![0u8; n];
    for &(u, v) in edges {
        adj[u] |= 1 << v;
        adj[v] |= 1 << u;
    }
    let mut seen: u8 = 1;
    loop {
        let mut next = seen;
        let mut m = seen;
        while m != 0 {
            let u = m.trailing_zeros() as usize;
            m &= m - 1;
            next |= adj[u];
        }
        if next == seen {
            break;
        }
        seen = next;
    }
    seen.count_ones() as usize == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use stmatch_testkit::prop::forall;
    use stmatch_testkit::rng::{Rng, SmallRng};

    #[test]
    fn paths_are_isomorphic_under_relabeling() {
        let a = Pattern::new(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = Pattern::new(4, &[(2, 0), (0, 3), (3, 1)]); // P4 scrambled
        assert!(isomorphic(&a, &b));
    }

    #[test]
    fn star_and_path_are_not_isomorphic() {
        assert!(!isomorphic(&catalog::star3(), &catalog::path(4)));
    }

    #[test]
    fn labels_break_isomorphism() {
        let a = catalog::triangle().with_labels(&[0, 0, 1]);
        let b = catalog::triangle().with_labels(&[0, 1, 1]);
        assert!(!isomorphic(&a, &b));
        let c = catalog::triangle().with_labels(&[1, 0, 0]);
        assert!(isomorphic(&a, &c));
    }

    #[test]
    fn canonical_forms_agree_iff_isomorphic() {
        let pats = [
            catalog::square(),
            catalog::diamond(),
            catalog::star3(),
            catalog::path(4),
            catalog::tailed_triangle(),
            catalog::k4(),
        ];
        for (i, a) in pats.iter().enumerate() {
            for (j, b) in pats.iter().enumerate() {
                assert_eq!(
                    canonical_form(a) == canonical_form(b),
                    i == j,
                    "{} vs {}",
                    a.name(),
                    b.name()
                );
            }
        }
    }

    #[test]
    fn motif_counts_match_oeis() {
        // Connected graphs on n nodes up to isomorphism (OEIS A001349):
        // 1, 1, 2, 6, 21.
        assert_eq!(all_connected_motifs(1).len(), 1);
        assert_eq!(all_connected_motifs(2).len(), 1);
        assert_eq!(all_connected_motifs(3).len(), 2);
        assert_eq!(all_connected_motifs(4).len(), 6);
        assert_eq!(all_connected_motifs(5).len(), 21);
    }

    /// The canonical form as first written — the smallest key over all n!
    /// permutations, three `Vec`s per candidate — kept as the reference
    /// the class-blocked form must induce the same equality as.
    fn reference_form(p: &Pattern) -> (Vec<u32>, Vec<u8>) {
        let n = p.size();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut best: Option<(Vec<u32>, Vec<u8>)> = None;
        loop {
            let mut labels = vec![0u32; n];
            let mut adj = vec![0u8; n];
            let mut inverse = vec![0usize; n];
            for (new, &old) in perm.iter().enumerate() {
                inverse[old] = new;
            }
            for old in 0..n {
                let new = inverse[old];
                labels[new] = p.label(old);
                let mut mask = 0u8;
                for (other, &inv) in inverse.iter().enumerate() {
                    if p.has_edge(old, other) {
                        mask |= 1 << inv;
                    }
                }
                adj[new] = mask;
            }
            let key = (labels, adj);
            if best.as_ref().is_none_or(|b| key < *b) {
                best = Some(key);
            }
            if !next_permutation(&mut perm) {
                break;
            }
        }
        best.expect("non-empty pattern")
    }

    /// A connected pattern on `n` vertices: a random spanning tree plus the
    /// pairs `extra` selects, labeled from `0..labels`.
    fn random_pattern(n: usize, extra: u64, labels: u32, seed: u64) -> Pattern {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (rng.gen_range(0..v), v)).collect();
        let pairs = (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v)));
        for (i, e) in pairs.enumerate() {
            if extra >> i & 1 == 1 && !edges.contains(&e) {
                edges.push(e);
            }
        }
        let labels: Vec<u32> = (0..n).map(|_| rng.gen_range(0..labels)).collect();
        Pattern::new(n, &edges).with_labels(&labels)
    }

    /// `p` with vertex `u` renamed `perm[u]`, labels carried along.
    fn renamed(p: &Pattern, perm: &[usize]) -> Pattern {
        let n = p.size();
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .filter(|&(u, v)| p.has_edge(u, v))
            .map(|(u, v)| (perm[u], perm[v]))
            .collect();
        let mut labels = vec![0u32; n];
        for u in 0..n {
            labels[perm[u]] = p.label(u);
        }
        Pattern::new(n, &edges).with_labels(&labels)
    }

    #[test]
    fn canonical_forms_are_invariant_and_agree_with_the_reference() {
        forall(
            "canonical_forms_are_invariant_and_agree_with_the_reference",
            |rng| {
                (
                    rng.gen_range(2usize..=8),
                    rng.gen::<u64>(),
                    rng.gen::<u64>(),
                    rng.gen_range(1u32..=3),
                    rng.gen::<u64>(),
                )
            },
            |&(n, extra, other, labels, seed)| {
                let n = n.clamp(2, 8);
                let labels = labels.max(1);
                // Sparse extras keep classes apart, dense ones merge them.
                let p = random_pattern(n, extra & other, labels, seed);
                let q = random_pattern(n, other & (extra >> 7), labels, seed ^ 1);
                let mut perm: Vec<usize> = (0..n).collect();
                SmallRng::seed_from_u64(seed).shuffle(&mut perm);
                let form = canonical_form(&p);
                if canonical_form(&renamed(&p, &perm)) != form {
                    return Err(format!("relabeling by {perm:?} moved the form"));
                }
                let same = form == canonical_form(&q);
                if same != isomorphic(&p, &q) {
                    return Err(format!("forms equal: {same}, isomorphic: {}", !same));
                }
                if same != (reference_form(&p) == reference_form(&q)) {
                    return Err(format!("forms equal: {same}, reference forms: {}", !same));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn size5_paper_queries_are_among_the_21_motifs() {
        let motifs = all_connected_motifs(5);
        for i in 1..=8 {
            let q = catalog::paper_query(i);
            assert!(
                motifs.iter().any(|m| isomorphic(m, &q)),
                "q{i} missing from the size-5 motif catalog"
            );
        }
    }
}
