//! The kernel's per-warp marker rows (DESIGN.md §4c, "Loop invariants on the
//! host").

use stmatch_graph::bitmap::word_probe;
use stmatch_graph::VertexId;
use stmatch_pattern::MAX_PATTERN_SIZE;

/// The row the graph does not carry: per marked position `p`
/// ([`PlanBytecode::marked`](stmatch_pattern::bytecode::PlanBytecode::marked)), one `⌈n/64⌉`-word bitmap row holding the bits
/// of the neighbor list `N(matched[p])` that lifted intersections re-read —
/// a loop invariant of every level below the one that fixes `matched[p]`.
/// Rows are rebuilt lazily, at the consumer: [`Marker::row`] compares the
/// identity of the list it is asked for with the one it holds, so a moved
/// vertex, another stage view's row for the same vertex and a freshly
/// installed stack all re-key it without being told. The words are lent by
/// the warp's arena, so a warm pool recycles them.
#[derive(Default)]
pub(super) struct Marker<'a> {
    /// One `stride`-word row per set bit of `positions`, in position order.
    pub(super) words: Vec<u64>,
    stride: usize,
    positions: u8,
    /// `lists[p]`: the neighbor list whose bits position `p`'s row holds
    /// (empty: an all-zero row).
    lists: [&'a [VertexId]; MAX_PATTERN_SIZE],
}

impl<'a> Marker<'a> {
    /// `words` must hold `positions.count_ones() * stride` zeroed words.
    pub(super) fn new(positions: u8, stride: usize, words: Vec<u64>) -> Self {
        debug_assert_eq!(words.len(), positions.count_ones() as usize * stride);
        debug_assert!(words.iter().all(|&w| w == 0));
        Marker {
            words,
            stride,
            positions,
            lists: [&[]; MAX_PATTERN_SIZE],
        }
    }

    /// Position `p`'s row, holding exactly the bits of `list`. Neighbor
    /// lists are immutable for the launch lifetime (staged views included),
    /// so pointer and length identify one: an unchanged list costs one
    /// compare, a changed one is re-marked sparsely — the old list's words
    /// cleared by walking it again, the new one's set.
    pub(super) fn row(&mut self, p: usize, list: &'a [VertexId]) -> &[u64] {
        debug_assert!(self.positions >> p & 1 == 1, "position {p} is not marked");
        let rank = (self.positions & ((1 << p) - 1)).count_ones() as usize;
        let row = &mut self.words[rank * self.stride..][..self.stride];
        let old = std::mem::replace(&mut self.lists[p], list);
        if !std::ptr::eq(old, list) {
            for &v in old {
                row[(v >> 6) as usize] = 0;
            }
            for &v in list {
                row[(v >> 6) as usize] |= 1u64 << (v & 63);
            }
        }
        debug_assert!(list.iter().all(|&v| word_probe(row, v)));
        debug_assert_eq!(
            row.iter().map(|w| w.count_ones() as usize).sum::<usize>(),
            list.len()
        );
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmatch_graph::gen;

    /// A row's set bits, ascending.
    fn bits(row: &[u64]) -> Vec<VertexId> {
        let bit = |v: &VertexId| word_probe(row, *v);
        (0..row.len() as VertexId * 64).filter(bit).collect()
    }

    #[test]
    fn the_marker_follows_the_list_it_is_asked_for() {
        let g = gen::preferential_attachment(96, 4, 9).degree_ordered();
        let stride = g.num_vertices().div_ceil(64);
        // Positions 0 and 2 marked: two rows, in position order.
        let mut m = Marker::new(0b101, stride, vec![0; 2 * stride]);
        let (a, b) = (g.neighbors(0), g.neighbors(1));
        assert_ne!(a, b);
        assert_eq!(bits(m.row(0, a)), a);
        assert_eq!(bits(m.row(2, b)), b);
        // The vertex at a position moves: its row is re-keyed, the other
        // position's row is left alone.
        assert_eq!(bits(m.row(0, b)), b);
        assert_eq!(bits(m.row(2, b)), b);
        assert_eq!(bits(m.row(0, &[])), []);
        // Two stage views give one vertex different rows (the deletes share
        // an endpoint): same vertex, other list, and the marker follows.
        let hub: VertexId = 0;
        let lost = [(hub, a[0]), (hub, a[1]), (hub, a[2])];
        let views = g.staged_without_edges(&lost);
        for view in &views {
            let row = view.neighbors(hub);
            assert_eq!(bits(m.row(0, row)), row);
        }
        assert_ne!(views[0].neighbors(hub), views[2].neighbors(hub));
        // An equal list elsewhere in memory is a different identity, and
        // re-marking it lands on the same bits.
        let copy = views[2].neighbors(hub).to_vec();
        assert_eq!(bits(m.row(0, &copy)), copy);
    }
}
