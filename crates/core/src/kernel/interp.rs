//! The plan interpreter: a level's sets for every slot of its batch.

use super::WarpKernel;
use crate::config::MAX_UNROLL;
use crate::setops::{self, materialize_base_into};
use std::ops::Range;
use stmatch_gpusim::{Close, Cost, Site, Warp};
use stmatch_graph::VertexId;
use stmatch_pattern::bytecode::OpCode;

impl WarpKernel<'_> {
    /// Enters level `l`: resets its cursors, fixes `matched[l-1]` to the
    /// first slot, computes all of the level's sets for every slot, charges
    /// the batch's key wave where the level is [`ClaimCost::keyed`], and
    /// publishes the stealable state when `l` is shallow.
    pub(super) fn begin_level(&mut self, warp: &mut Warp, l: usize) {
        debug_assert!(self.batch[l].len != 0);
        self.uiter[l] = 0;
        self.iter[l] = 0;
        self.matched[l - 1] = self.batch[l].slots[0];
        self.compute_sets(warp, l);
        if self.env.claim_cost.keyed >> l & 1 == 1 && !self.candidate_list(l, 0).is_empty() {
            // Per slot, the window the bounds leave of the lifted list and
            // the places of the `inj` positions' vertices in it: what the
            // claims then read valid candidates off, wave-free.
            let vy = self.validity(l);
            let keys = vy.bounds.len() + vy.inj.count_ones() as usize;
            warp.charge(Site::CountPass, Cost::Lanes(self.batch[l].len * keys));
        }
        // One mirror lock publishes the whole stealable view of the level:
        // `matched[l-1]`, plus level `l`'s iteration range when `l` itself
        // is shallow. Publishing after `compute_sets` is safe: a stealer
        // targeting level `l` needs `size[l] - iter[l] >= 2`, and until
        // this store lands the previous range at `l` is fully drained
        // (`iter == size`), so no stealer can observe a half-updated view.
        if l - 1 < self.env.stop {
            let range = (l < self.env.stop).then(|| self.window(l, self.candidate_list(l, 0)));
            let mut m = self.board.mirror(self.warp_id).lock();
            // Level 0 is published as its virtual index, the form a stolen
            // prefix travels in.
            m.matched[l - 1] = if l == 1 {
                self.l0_index as VertexId
            } else {
                self.batch[l].slots[0]
            };
            if let Some(range) = range {
                m.iter[l] = range.start;
                m.size[l] = range.end;
                // The published range now describes the in-flight claim's
                // entire subtree; requeueing both on death would double
                // count, so the marker dies with the publish. (When `l ==
                // stop` no range is published and the marker survives until
                // the subtree commits.)
                self.inflight = None;
            }
            self.publishes = self.publishes.wrapping_add(1);
            if let Some(f) = self.faults {
                // Publish-ordinal injection point: a panic here unwinds
                // while holding the mirror lock, poisoning it — exactly the
                // torn-publish failure `Mirror::lock`'s recovery contract
                // covers. The tracked guard's release token still fires
                // during the unwind (before the mutex unlocks), so the
                // race checker sees a clean release even on this path —
                // see `FaultPlan::at_publish`.
                f.at_publish(self.warp_id, self.publishes);
            }
        }
    }

    /// The part of level `l`'s candidate list `cl` that its claims or its
    /// count walk: all of it — except at a staged run's level 1, whose one
    /// candidate is the stage's other endpoint: its place, found by one
    /// search per stage, or nothing where the stage's list lacks it (a
    /// label filters it out). So level 1 is published as a one-element range
    /// and claimed like any other, and no thief can split a row that holds
    /// one valid candidate.
    pub(super) fn window(&self, l: usize, cl: &[VertexId]) -> Range<usize> {
        match self.pin {
            Some(pin) if l == 1 => match cl.binary_search(&pin) {
                Ok(j) => j..j + 1,
                Err(j) => j..j,
            },
            _ => 0..cl.len(),
        }
    }

    /// Resolves the (set id, storage slot) of the candidate list for
    /// position `l`, slot `u`, honoring lifted (code-moved) candidate sets:
    /// a set computed at an earlier level is indexed by that level's
    /// current unroll slot.
    #[inline]
    pub(super) fn candidate_location(&self, l: usize, u: usize) -> (usize, usize) {
        let (cid, def_level) = self.bc.candidate(l);
        let slot = if def_level == l {
            u
        } else {
            self.uiter[def_level]
        };
        (cid, slot)
    }

    /// The candidate list for position `l`, slot `u`.
    #[inline]
    pub(super) fn candidate_list(&self, l: usize, u: usize) -> &[VertexId] {
        let (cid, slot) = self.candidate_location(l, u);
        self.storage.slot(cid, slot)
    }

    /// Computes every set of `level` for all slots of its batch, as combined
    /// warp-wide operations (Fig. 8) streaming straight into the arena: one
    /// set-operation call per instruction of the plan's lowered stream.
    ///
    /// Slot source/input/operand slices live in fixed stack arrays (no
    /// per-set `Vec` collects), and only multi-op chains touch the
    /// ping/pong scratch — a set's final instruction always lands in its
    /// arena slab via [`StackArena::split_for_write`], which the stream's
    /// dependencies-precede-dependents order makes alias-free.
    ///
    /// Every call carries the bitmap rows [`Rows`] provides for it (DESIGN.md
    /// §4f), and the slots of a chain whose operands are all hubs run the
    /// whole chain fused in the bitmap domain once its last step has landed.
    ///
    /// The one place that decides how a set operation's waves close
    /// ([`Close`]): a counting launch's last-level candidate only counts (no
    /// ballots) — Fig. 3 line 16 adds its survivors up and never iterates
    /// them; the candidate of a [`ClaimCost::masked`] level adds a validity
    /// ballot; every other write compacts.
    pub(super) fn compute_sets(&mut self, warp: &mut Warp, level: usize) {
        let prog = self.bc.instrs_at(level);
        if prog.is_empty() {
            // The level's candidate was lifted to an earlier level.
            return;
        }
        let cand = self.bc.candidate(level).0;
        let last_close = if self.emit.is_none() && level == self.k - 1 {
            Close::Counted
        } else if self.env.claim_cost.masked >> level & 1 == 1 {
            Close::Masked
        } else {
            Close::Compacted
        };
        let batch = self.batch[level];
        let bat = batch.as_slice();
        let m = bat.len();
        debug_assert!(m >= 1 && m <= self.env.slots.width(level - 1));
        let g = self.g;
        // Small copy of the matched prefix so no closure needs `self`.
        let matched = self.matched;
        let vertex_at = |pos: usize, u: usize| -> VertexId {
            if pos == level - 1 {
                bat[u]
            } else {
                matched[pos]
            }
        };
        const EMPTY: &[VertexId] = &[];
        let no_bits = [None; MAX_UNROLL];
        // The open neighbor-based chain: where it began and which slots run
        // it fused (set by `BeginChain`, consumed by the chain's last step).
        let mut chain_at = 0usize;
        let mut fused = [false; MAX_UNROLL];
        for (i, ins) in prog.iter().enumerate() {
            let pos = ins.pos as usize;
            let dst = ins.dst as usize;
            let close = if ins.last && dst == cand {
                last_close
            } else {
                Close::Compacted
            };
            let mut lists = [EMPTY; MAX_UNROLL];
            for (u, l) in lists.iter_mut().enumerate().take(m) {
                *l = g.neighbors(vertex_at(pos, u));
            }
            let operand_rows = self.rows.operands(m, |u| vertex_at(pos, u));
            // Combines `inputs` with the neighbor lists at `pos` into `$out`.
            macro_rules! apply {
                ($inputs:expr, $input_bits:expr, $out:expr) => {
                    setops::apply_op_into(
                        warp,
                        g,
                        &$inputs[..m],
                        &$input_bits[..m],
                        &lists[..m],
                        operand_rows.as_ref().map_or(&no_bits[..m], |r| &r[..m]),
                        ins.kind,
                        ins.mask,
                        close,
                        $out,
                    )
                };
            }
            match ins.code {
                OpCode::MaterializeBase => {
                    let (_, mut sink) = self.storage.split_for_write(dst, m);
                    materialize_base_into(warp, g, &lists[..m], ins.mask, close, &mut sink);
                }
                OpCode::BeginChain => {
                    chain_at = i;
                    for (u, l) in lists.iter_mut().enumerate().take(m) {
                        let at = |pos| vertex_at(pos, u);
                        fused[u] = self.rows.chain(&prog[i..], at).is_some();
                        if fused[u] {
                            *l = EMPTY;
                        }
                    }
                    materialize_base_into(
                        warp,
                        g,
                        &lists[..m],
                        ins.mask,
                        Close::Compacted,
                        &mut self.ping[..m],
                    );
                }
                OpCode::ApplyFromSet => {
                    fused = [false; MAX_UNROLL];
                    // Split even when the result is staged: the split is
                    // also the shadow-store write event for `dst`, and
                    // dependency slots are read through its read view.
                    let (read, mut sink) = self.storage.split_for_write(dst, m);
                    let (inputs, input_bits) =
                        self.rows
                            .inputs(warp, g, (ins, level, m), &read, &self.uiter, vertex_at);
                    if ins.last {
                        apply!(inputs, input_bits, &mut sink);
                    } else {
                        apply!(inputs, input_bits, &mut self.ping[..m]);
                    }
                }
                // Inputs are scratch lists, so never rows; hub operands
                // still upgrade the membership probes.
                OpCode::ChainStep => {
                    let mut inputs = [EMPTY; MAX_UNROLL];
                    for (u, inp) in inputs.iter_mut().enumerate().take(m) {
                        *inp = self.ping[u].as_slice();
                    }
                    if !ins.last {
                        apply!(inputs, no_bits, &mut self.pong[..m]);
                        std::mem::swap(&mut self.ping, &mut self.pong);
                        continue;
                    }
                    {
                        let (_, mut sink) = self.storage.split_for_write(dst, m);
                        apply!(inputs, no_bits, &mut sink);
                    }
                    if !fused.contains(&true) {
                        continue;
                    }
                    // Fused slots: the whole chain in the bitmap domain,
                    // through the arena's word rows, final op extracted
                    // straight into the slot (re-`begin`s it after the
                    // empty element leg above).
                    let steps = &prog[chain_at..=i];
                    let (_, mut sink) = self.storage.split_for_write(dst, m);
                    let [bits_ping, bits_pong] = &mut self.bits;
                    for u in (0..m).filter(|&u| fused[u]) {
                        let at = |pos| vertex_at(pos, u);
                        let (base, chain) = self.rows.chain(steps, at).expect("fused on hubs");
                        setops::apply_chain_bits_into(
                            warp,
                            g,
                            u,
                            base,
                            &chain[..steps.len() - 1],
                            ins.mask,
                            close,
                            bits_ping,
                            bits_pong,
                            &mut sink,
                        );
                    }
                }
            }
        }
    }
}
