//! The kernel's per-warp rank row (DESIGN.md §4c, "Loop invariants on the
//! host").

use stmatch_graph::VertexId;
use stmatch_pattern::MAX_PATTERN_SIZE;

/// Cells a row spends per 64-vertex word: the stamp of the key the word was
/// last written under, the number of list elements below the word, and the
/// word's bits (low half, high half).
const CELLS: usize = 4;

/// One sorted arena list as a row over the graph's vertex range: per 64-vertex
/// word, its bits and the number of list elements below it, so
/// `rank(x) = #{v ∈ list : v < x}` is a prefix plus a popcount and `x ∈ list`
/// is a bit — no search and no branch on the data. The list is a function of
/// its key — the set it was computed into, the level-0 index (a staged run's
/// view) and the matched prefix below the set's definition level — so the row
/// is rebuilt only when the key moves, and then sparsely: a word is live only
/// under the current key's stamp, walking the new list stamps the words that
/// hold its elements, and any other word a query reaches takes its prefix from
/// one search of the list, once. A re-key costs `|new|` plus the words queried,
/// never the row's length. The cells are lent by the warp's arena
/// ([`StackArena::lists_and_row`](crate::arena::StackArena::lists_and_row)).
#[derive(Default)]
pub(super) struct RankRow {
    /// The key: set, level-0 index and the prefix's `len` vertices. Unset
    /// while `stamp` is 0.
    set: usize,
    l0_index: usize,
    prefix: [VertexId; MAX_PATTERN_SIZE],
    len: usize,
    stamp: u32,
}

impl RankRow {
    /// Cells of a row over `n` vertices.
    pub(super) fn cells(n: usize) -> usize {
        n.div_ceil(64) * CELLS
    }

    /// The ranks of `list` in `cells`, `list` being set `set`'s list under
    /// `prefix` (the matched vertices below the set's definition level) on the
    /// view of `l0_index`; rebuilt only when that key moves.
    pub(super) fn of<'r>(
        &mut self,
        cells: &'r mut [VertexId],
        list: &'r [VertexId],
        set: usize,
        l0_index: usize,
        prefix: &[VertexId],
    ) -> Ranks<'r> {
        let words = cells.as_chunks_mut::<CELLS>().0;
        // (Element by element: a slice compare is a call, and this runs once
        // per slot over a few vertices.)
        let held = |row: &Self| {
            row.stamp != 0
                && (row.set, row.l0_index, row.len) == (set, l0_index, prefix.len())
                && row.prefix.iter().zip(prefix).all(|(a, b)| a == b)
        };
        if !held(self) {
            (self.set, self.l0_index, self.len) = (set, l0_index, prefix.len());
            self.prefix[..prefix.len()].copy_from_slice(prefix);
            self.stamp = self.stamp.wrapping_add(1);
            if self.stamp == 0 {
                // Wrapped: no stale stamp may pass for the new one.
                words.iter_mut().for_each(|w| w[0] = 0);
                self.stamp = 1;
            }
            for (i, &v) in list.iter().enumerate() {
                let w = &mut words[(v >> 6) as usize];
                if w[0] != self.stamp {
                    *w = [self.stamp, i as VertexId, 0, 0];
                }
                w[2 + (v >> 5 & 1) as usize] |= 1 << (v & 31);
            }
        }
        let mut ranks = Ranks {
            words,
            list,
            stamp: self.stamp,
        };
        debug_assert!(list
            .iter()
            .enumerate()
            .all(|(i, &v)| ranks.rank(v) == (i, true)));
        ranks
    }
}

/// A keyed row and the list it holds ([`RankRow::of`]).
pub(super) struct Ranks<'r> {
    words: &'r mut [[VertexId; CELLS]],
    list: &'r [VertexId],
    stamp: u32,
}

impl Ranks<'_> {
    /// `(#{v ∈ list : v < x}, x ∈ list)`.
    #[inline]
    pub(super) fn rank(&mut self, x: VertexId) -> (usize, bool) {
        let w = &mut self.words[(x >> 6) as usize];
        if w[0] != self.stamp {
            // The rebuild stamped every word holding an element: this one
            // holds none, and its prefix is found once.
            let below = self.list.partition_point(|&v| v < x & !63);
            *w = [self.stamp, below as VertexId, 0, 0];
        }
        let bits = u64::from(w[2]) | u64::from(w[3]) << 32;
        let bit = x & 63;
        let below = (bits & ((1 << bit) - 1)).count_ones() as usize;
        (w[1] as usize + below, bits >> bit & 1 == 1)
    }

    /// Over the elements `xs`: Σ (clamp(rank(x), a, b) − a) — how many of
    /// the list's window `a..b` lie below each — and how many of `xs` lie in
    /// that window, each summed only if `need`ed (0 otherwise).
    pub(super) fn window_sums(
        &mut self,
        xs: &[VertexId],
        a: usize,
        b: usize,
        need: (bool, bool),
    ) -> (u64, u64) {
        let (mut below, mut inside) = (0u64, 0u64);
        for &x in xs {
            let (r, hit) = self.rank(x);
            if need.0 {
                below += (r.max(a).min(b) - a) as u64;
            }
            if need.1 {
                inside += u64::from(hit && a <= r && r < b);
            }
        }
        (below, inside)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sorted distinct vertices below `n` at the given stride.
    fn spaced(from: VertexId, n: usize, step: usize) -> Vec<VertexId> {
        (from..n as VertexId).step_by(step).collect()
    }

    #[test]
    fn rank_and_has_are_the_searches_at_every_word_edge() {
        let n = 200;
        let mut cells = vec![0; RankRow::cells(n)];
        let mut row = RankRow::default();
        let lists = [
            vec![0, 62, 63, 64, 65, 127, 128, 191, 192, 199],
            vec![63],
            vec![64, 199],
            spaced(1, n, 3),
            vec![],
        ];
        for (i, list) in lists.iter().enumerate() {
            let mut ranks = row.of(&mut cells, list, 0, i, &[]);
            // Every x, the words' edges (63, 64, …, n − 1) included.
            for x in 0..n as VertexId {
                let want = (
                    list.partition_point(|&v| v < x),
                    list.binary_search(&x).is_ok(),
                );
                assert_eq!(ranks.rank(x), want, "list {i}, x {x}");
            }
        }
    }

    #[test]
    fn the_row_rekeys_on_a_new_prefix_index_or_view() {
        let n = 300;
        let mut cells = vec![0; RankRow::cells(n)];
        let mut row = RankRow::default();
        let (a, b) = (spaced(0, n, 7), spaced(5, n, 11));
        let check = |ranks: &mut Ranks<'_>, list: &[VertexId]| {
            for x in 0..n as VertexId {
                assert_eq!(ranks.rank(x).0, list.partition_point(|&v| v < x));
            }
        };
        check(&mut row.of(&mut cells, &a, 3, 0, &[4, 9]), &a);
        let held = row.stamp;
        // The key stands: nothing is rebuilt.
        check(&mut row.of(&mut cells, &a, 3, 0, &[4, 9]), &a);
        assert_eq!(row.stamp, held);
        // Another prefix, another level-0 index (the vertex behind it, or —
        // in a staged run — another stage's view) or another set is another
        // list.
        for (set, l0, prefix, list) in [
            (3, 0, [4, 8], &b),
            (3, 1, [4, 8], &a),
            (3, 2, [4, 8], &b),
            (2, 2, [4, 8], &a),
        ] {
            let stamp = row.stamp;
            check(&mut row.of(&mut cells, list, set, l0, &prefix), list);
            assert_ne!(row.stamp, stamp, "set {set} l0 {l0} {prefix:?}");
        }
    }

    /// The workspace builds at x86-64-v3 (`.cargo/config.toml`), where a rank
    /// is one `bzhi` + `popcnt`; a lost or shadowed config falls back to a
    /// software popcount without a word. An explicit `RUSTFLAGS` picks its
    /// own level and skips the check.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn the_rank_row_is_built_for_a_hardware_popcount() {
        if option_env!("RUSTFLAGS").is_some() || option_env!("CARGO_ENCODED_RUSTFLAGS").is_some() {
            return;
        }
        let missing: Vec<&str> = [
            ("popcnt", cfg!(target_feature = "popcnt")),
            ("bmi2", cfg!(target_feature = "bmi2")),
            ("avx2", cfg!(target_feature = "avx2")),
        ]
        .into_iter()
        .filter_map(|(name, on)| (!on).then_some(name))
        .collect();
        assert!(
            missing.is_empty(),
            "built without {missing:?}: cargo did not read the repo's .cargo/config.toml \
             (it reads config from the working directory up, not from --manifest-path)"
        );
    }

    #[test]
    fn a_rekey_touches_the_lists_and_the_queries_not_the_row() {
        // A row 1000 words long for lists of a dozen elements.
        let n = 64 * 1000;
        let mut cells = vec![0; RankRow::cells(n)];
        let mut row = RankRow::default();
        let touched = |before: &[VertexId], after: &[VertexId]| {
            let (b, a) = (before.as_chunks::<CELLS>().0, after.as_chunks::<CELLS>().0);
            b.iter().zip(a).filter(|(x, y)| x != y).count()
        };
        let queries: Vec<VertexId> = (0..n as VertexId).step_by(6400).collect();
        let mut old: Vec<VertexId> = Vec::new();
        for key in 0..4 {
            let new = spaced(key * 977, n, 5003 + key as usize);
            let before = cells.clone();
            let mut ranks = row.of(&mut cells, &new, 0, key as usize, &[]);
            for &x in &queries {
                ranks.rank(x);
            }
            let bound = 2 * (old.len() + new.len()) + queries.len();
            let t = touched(&before, &cells);
            assert!(t <= bound, "key {key}: {t} words touched, bound {bound}");
            old = new;
        }
    }
}
