//! The kernel's per-warp marker rows (DESIGN.md §4c, "Loop invariants on the
//! host").

use stmatch_gpusim::{Cost, Site, Warp};
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
///
/// A row is a device object: a re-key costs the warp a lane per element of
/// the new list to clear and one to set (`Cost::Lanes(2·|list|)`). On the
/// device every work item begins with no row keyed ([`Marker::begin_item`]),
/// and the charge reads only the new list: what the host's words still hold
/// from an earlier item, and the old list's length, depend on which work
/// the warp ran before, and the charge must not.
#[derive(Default)]
pub(super) struct Marker<'a> {
    /// One `stride`-word row per set bit of `positions`, in position order.
    pub(super) words: Vec<u64>,
    stride: usize,
    positions: u8,
    /// `lists[p]`: the neighbor list whose bits position `p`'s row holds
    /// (empty: an all-zero row).
    lists: [&'a [VertexId]; MAX_PATTERN_SIZE],
    /// The positions whose row the current work item has keyed.
    keyed: u8,
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
            keyed: 0,
        }
    }

    /// A work item begins: its first use of each row re-keys it on the
    /// device, whatever the host's words still hold.
    pub(super) fn begin_item(&mut self) {
        self.keyed = 0;
    }

    /// Position `p`'s row, holding exactly the bits of `list`. Neighbor
    /// lists are immutable for the launch lifetime (staged views included),
    /// so pointer and length identify one: an unchanged list costs one
    /// compare, a changed one is re-marked sparsely — the old list's words
    /// cleared by walking it again, the new one's set. `warp` is charged the
    /// re-key whenever the list changed or the work item has not keyed the
    /// row yet.
    pub(super) fn row(&mut self, warp: &mut Warp, p: usize, list: &'a [VertexId]) -> &[u64] {
        debug_assert!(self.positions >> p & 1 == 1, "position {p} is not marked");
        let rank = (self.positions & ((1 << p) - 1)).count_ones() as usize;
        let row = &mut self.words[rank * self.stride..][..self.stride];
        let old = std::mem::replace(&mut self.lists[p], list);
        let moved = !std::ptr::eq(old, list);
        if moved {
            for &v in old {
                row[(v >> 6) as usize] = 0;
            }
            for &v in list {
                row[(v >> 6) as usize] |= 1u64 << (v & 63);
            }
        }
        if moved || self.keyed >> p & 1 == 0 {
            self.keyed |= 1 << p;
            warp.charge(Site::SetOp, Cost::Lanes(2 * list.len()));
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
    use stmatch_gpusim::{Grid, GridConfig};
    use stmatch_graph::gen;

    /// A row's set bits, ascending.
    fn bits(row: &[u64]) -> Vec<VertexId> {
        let bit = |v: &VertexId| word_probe(row, *v);
        (0..row.len() as VertexId * 64).filter(bit).collect()
    }

    /// Runs `body` on a one-warp grid.
    fn on_a_warp(body: impl Fn(&mut Warp) + Sync) {
        let grid = Grid::new(GridConfig {
            num_blocks: 1,
            warps_per_block: 1,
            shared_mem_per_block: 0,
        })
        .unwrap();
        grid.launch(body);
    }

    #[test]
    fn the_marker_follows_the_list_it_is_asked_for() {
        let g = gen::preferential_attachment(96, 4, 9).degree_ordered();
        let stride = g.num_vertices().div_ceil(64);
        on_a_warp(|w| {
            // The active lanes `row` charged: two per element of a re-keyed
            // list, none for a row the item already keyed.
            let lanes = |w: &mut Warp, row: &mut dyn FnMut(&mut Warp)| {
                let before = w.metrics().active_lane_slots;
                row(w);
                w.metrics().active_lane_slots - before
            };
            // Positions 0 and 2 marked: two rows, in position order.
            let mut m = Marker::new(0b101, stride, vec![0; 2 * stride]);
            let (a, b) = (g.neighbors(0), g.neighbors(1));
            assert_ne!(a, b);
            let n = |l: &[VertexId]| 2 * l.len() as u64;
            assert_eq!(lanes(w, &mut |w| assert_eq!(bits(m.row(w, 0, a)), a)), n(a));
            assert_eq!(lanes(w, &mut |w| assert_eq!(bits(m.row(w, 2, b)), b)), n(b));
            assert_eq!(lanes(w, &mut |w| assert_eq!(bits(m.row(w, 2, b)), b)), 0);
            // The vertex at a position moves: its row is re-keyed, the other
            // position's row is left alone.
            assert_eq!(lanes(w, &mut |w| assert_eq!(bits(m.row(w, 0, b)), b)), n(b));
            assert_eq!(lanes(w, &mut |w| assert_eq!(bits(m.row(w, 2, b)), b)), 0);
            assert_eq!(bits(m.row(w, 0, &[])), []);
            // A new work item keys each row at its first use, whatever the
            // host's words still hold.
            m.begin_item();
            assert_eq!(lanes(w, &mut |w| assert_eq!(bits(m.row(w, 2, b)), b)), n(b));
            // Two stage views give one vertex different rows (the deletes
            // share an endpoint): same vertex, other list, and the marker
            // follows.
            let hub: VertexId = 0;
            let lost = [(hub, a[0]), (hub, a[1]), (hub, a[2])];
            let views = g.staged_without_edges(&lost);
            for view in &views {
                let row = view.neighbors(hub);
                assert_eq!(bits(m.row(w, 0, row)), row);
            }
            assert_ne!(views[0].neighbors(hub), views[2].neighbors(hub));
            // An equal list elsewhere in memory is a different identity, and
            // re-marking it lands on the same bits.
            let copy = views[2].neighbors(hub).to_vec();
            assert_eq!(bits(m.row(w, 0, &copy)), copy);
        });
    }
}
