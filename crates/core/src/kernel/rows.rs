//! Where a slot's bitmap rows come from (DESIGN.md §4f, "Where the rows
//! come from"): the kernel's only reader of the graph's hub index and of its
//! own marker rows. The interpreter asks [`Rows`] for each instruction's
//! rows and hands them to the set operations.

use super::KernelEnv;
use crate::arena::ArenaRead;
use crate::config::MAX_UNROLL;
use stmatch_gpusim::{Cost, Site, Warp};
use stmatch_graph::bitmap::word_probe;
use stmatch_graph::{Graph, HubBitmapIndex, VertexId};
use stmatch_pattern::bytecode::NO_POS;
use stmatch_pattern::{Instr, OpCode, OpKind, MAX_PATTERN_SIZE};

/// One row (or none) per slot of a batch.
pub(super) type PerSlot<'r> = [Option<&'r [u64]>; MAX_UNROLL];

/// A fused chain's base row and its steps' ops and operand rows.
pub(super) type Chain<'a> = (&'a [u64], [(OpKind, &'a [u64]); MAX_PATTERN_SIZE]);

/// One warp's row provider: the graph's hub index, if it carries one, and
/// the warp's **marker** rows, which every launch holds — per marked
/// position `p` ([`PlanBytecode::marked`](stmatch_pattern::PlanBytecode::marked)),
/// one `⌈n/64⌉`-word row of the non-hub list `N(matched[p])` that lifted
/// intersections re-read, a loop invariant of every level below `p`'s. A
/// marker row is rebuilt lazily ([`Rows::marker_row`]), in the warp's
/// arena's marker words, and is a device object: a re-key costs the warp two lanes
/// per element of the new list (clear and set). Every work item begins with
/// no row keyed ([`Rows::begin_item`]) and the charge reads only the new
/// list, so what rows cost does not depend on which work the warp ran
/// before.
pub(super) struct Rows<'a> {
    hubs: Option<&'a HubBitmapIndex>,
    /// One `stride`-word marker row per set bit of `positions`, in order.
    words: &'a mut [u64],
    stride: usize,
    positions: u8,
    /// `lists[p]`: the neighbor list whose bits position `p`'s row holds
    /// (empty: an all-zero row).
    lists: [&'a [VertexId]; MAX_PATTERN_SIZE],
    /// The positions whose row the current work item has keyed.
    keyed: u8,
}

impl<'a> Rows<'a> {
    /// Whether a launch on `graph` routes hub rows. Its sealed result rows
    /// then assume uniform slab geometry, so the launch's slabs are never
    /// certificate-shaped.
    pub(super) fn routed(graph: &Graph) -> bool {
        graph.hub_bitmap().is_some()
    }

    /// The rows of one warp of `env`'s launch, keyed in `words`: its
    /// arena's marker words, zeroed and sized to the launch.
    pub(super) fn new(env: &KernelEnv<'a>, words: &'a mut [u64]) -> Rows<'a> {
        let graph = env.launch.graph;
        Rows {
            hubs: graph.hub_bitmap(),
            words,
            stride: graph.num_vertices().div_ceil(64),
            positions: env.launch.plan.bytecode().marked(),
            lists: [&[]; MAX_PATTERN_SIZE],
            keyed: 0,
        }
    }

    /// A work item begins: its first use of each marker row re-keys it on
    /// the device, whatever the host's words still hold.
    pub(super) fn begin_item(&mut self) {
        self.keyed = 0;
    }

    /// The operand rows of `m` slots whose operand is the neighbor list of
    /// the vertex `of(u)`: its hub row. `None` without an index.
    pub(super) fn operands(&self, m: usize, of: impl Fn(usize) -> VertexId) -> Option<PerSlot<'a>> {
        let hx = self.hubs?;
        let mut rows = [None; MAX_UNROLL];
        for (u, r) in rows.iter_mut().enumerate().take(m) {
            *r = hx.row(of(u));
        }
        Some(rows)
    }

    /// The input lists of `ins`, an `ApplyFromSet` run at `level` over `m`
    /// slots (its dependency's slots in `read`, under the cursors `uiter`),
    /// and their rows, first match wins:
    /// 1. the hub row of the vertex whose neighbor list the input is
    ///    ([`Instr::dep_pos`]);
    /// 2. else its marker row, when the input is a lifted verbatim list
    ///    ([`Instr::lifted_list_pos`]): one list, so one row, for every slot;
    /// 3. else the slot's sealed result row (a bitmap result, exact).
    pub(super) fn inputs<'r>(
        &'r mut self,
        warp: &mut Warp,
        g: &'a Graph,
        (ins, level, m): (&Instr, usize, usize),
        read: &'r ArenaRead<'_>,
        uiter: &[usize],
        at: impl Fn(usize, usize) -> VertexId,
    ) -> ([&'r [VertexId]; MAX_UNROLL], PerSlot<'r>) {
        let (dep, dep_level) = (ins.dep as usize, ins.dep_level as usize);
        let lifted = uiter[dep_level];
        let slot = |u: usize| if dep_level == level { u } else { lifted };
        let (mut inputs, mut rows) = ([&[][..]; MAX_UNROLL], [None; MAX_UNROLL]);
        for (u, inp) in inputs.iter_mut().enumerate().take(m) {
            *inp = read.slot(dep, slot(u));
        }
        // Only an index brings hub and sealed rows; a slab `dep_pos` names
        // is a neighbor list, never a sealed result.
        if let Some(hx) = self.hubs {
            for (u, r) in rows.iter_mut().enumerate().take(m) {
                *r = match ins.dep_pos {
                    NO_POS => read.slot_bits(dep, slot(u)),
                    p => hx.row(at(p as usize, u)),
                };
                debug_assert!(r.is_none_or(|bits| inputs[u].len()
                    == bits.iter().map(|w| w.count_ones() as usize).sum::<usize>()));
            }
        }
        if let (Some(p), None) = (ins.lifted_list_pos(level), rows[0]) {
            let list = g.neighbors(at(p, 0));
            debug_assert_eq!(inputs[0], list, "dep_pos names another list");
            rows[..m].fill(Some(self.marker_row(warp, p, list)));
        }
        (inputs, rows)
    }

    /// A slot's hub rows of the chain that begins at `ins[0]` (a
    /// `BeginChain` and the `ChainStep`s after it) over the vertices
    /// `of(pos)`: the base's, and each step's op and operand row — `None`
    /// unless every one is a hub's, so the slot runs the chain fused.
    pub(super) fn chain(&self, ins: &[Instr], of: impl Fn(usize) -> VertexId) -> Option<Chain<'a>> {
        let row = |pos: u8| self.hubs?.row(of(pos as usize));
        let mut steps = [(OpKind::Intersect, &[][..]); MAX_PATTERN_SIZE];
        let chain = ins[1..].iter().take_while(|s| s.code == OpCode::ChainStep);
        for (step, s) in steps.iter_mut().zip(chain) {
            *step = (s.kind, row(s.pos)?);
        }
        Some((row(ins[0].pos)?, steps))
    }

    /// Position `p`'s marker row, holding exactly the bits of `list`.
    /// Neighbor lists are immutable for the launch lifetime (staged views
    /// included), so pointer and length identify one: an unchanged list
    /// costs one compare, a changed one is re-marked sparsely — the old
    /// list's words cleared by walking it again, the new one's set. `warp` is
    /// charged the re-key whenever the list changed or the work item has not
    /// keyed the row yet.
    fn marker_row(&mut self, warp: &mut Warp, p: usize, list: &'a [VertexId]) -> &[u64] {
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

    /// Keys position `p`'s row of `rows` to `list`, checks its bits and
    /// returns the active lanes it charged.
    fn key<'a>(rows: &mut Rows<'a>, w: &mut Warp, p: usize, list: &'a [VertexId]) -> u64 {
        let before = w.metrics().active_lane_slots;
        assert_eq!(bits(rows.marker_row(w, p, list)), list);
        w.metrics().active_lane_slots - before
    }

    #[test]
    fn the_marker_follows_the_list_it_is_asked_for() {
        let g = gen::preferential_attachment(96, 4, 9).degree_ordered();
        let stride = g.num_vertices().div_ceil(64);
        on_a_warp(|w| {
            // Positions 0 and 2 marked: two rows, in position order.
            let mut m = Rows {
                hubs: None,
                words: &mut vec![0; 2 * stride],
                stride,
                positions: 0b101,
                lists: [&[]; MAX_PATTERN_SIZE],
                keyed: 0,
            };
            let (a, b) = (g.neighbors(0), g.neighbors(1));
            assert_ne!(a, b);
            // Two lanes per element of a re-keyed list, none for a row the
            // item already keyed.
            let n = |l: &[VertexId]| 2 * l.len() as u64;
            assert_eq!(key(&mut m, w, 0, a), n(a));
            assert_eq!(key(&mut m, w, 2, b), n(b));
            assert_eq!(key(&mut m, w, 2, b), 0);
            // The vertex at a position moves: its row is re-keyed, the other
            // position's row is left alone.
            assert_eq!(key(&mut m, w, 0, b), n(b));
            assert_eq!(key(&mut m, w, 2, b), 0);
            assert_eq!(key(&mut m, w, 0, &[]), 0);
            // A new work item keys each row at its first use, whatever the
            // host's words still hold.
            m.begin_item();
            assert_eq!(key(&mut m, w, 2, b), n(b));
            // Two stage views give one vertex different rows (the deletes
            // share an endpoint): same vertex, other list, and the marker
            // follows.
            let hub: VertexId = 0;
            let lost = [(hub, a[0]), (hub, a[1]), (hub, a[2])];
            let views = g.staged_without_edges(&lost);
            for view in &views {
                key(&mut m, w, 0, view.neighbors(hub));
            }
            assert_ne!(views[0].neighbors(hub), views[2].neighbors(hub));
            // An equal list elsewhere in memory is a different identity, and
            // re-marking it lands on the same bits.
            let copy = views[2].neighbors(hub).to_vec();
            key(&mut m, w, 0, &copy);
        });
    }
}
