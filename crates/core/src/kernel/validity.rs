//! What a candidate must satisfy at a level, and who pays for the test.

use stmatch_graph::{Graph, VertexId};
use stmatch_pattern::bytecode::PlanBytecode;
use stmatch_pattern::symmetry::Bound;

/// What the levels that claim are charged for the validity of what they
/// claim (DESIGN.md §4c, "Claims"), as level masks. A claim tests its
/// candidates on the host either way; this is only who pays on the device.
pub(super) struct ClaimCost {
    /// A validity wave per claim: level 0, shallow lifted levels and lifted
    /// levels with a residual label.
    pub(super) waves: u8,
    /// Deep lifted levels without a residual label: one key wave per batch
    /// places each slot's window and exclusions in the lifted list, and the
    /// claims read valid candidates off them.
    pub(super) keyed: u8,
    /// Levels whose candidate set is computed at the level but read by more
    /// than the level's claims: the set's final stream closes each wave with
    /// a second ballot, of its lanes' validity ([`Close::Masked`]). Where the
    /// claims are the set's only reader ([`PlanBytecode::claim_only`]) its
    /// one ballot compacts exactly the valid candidates, for nothing.
    pub(super) masked: u8,
}

impl ClaimCost {
    /// Classifies the levels that claim under StopLevel `stop`: every level
    /// but the last and, where a fused tail forms (`tail`), the level it
    /// counts instead.
    pub(super) fn new(bc: &PlanBytecode, stop: usize, tail: bool) -> ClaimCost {
        let k = bc.num_levels();
        let mut c = ClaimCost {
            waves: 1,
            keyed: 0,
            masked: 0,
        };
        for l in (1..k - 1).filter(|&l| !(tail && l == k - 2)) {
            let bit = 1 << l;
            if bc.candidate(l).1 == l {
                if bc.claim_only() & bit == 0 {
                    c.masked |= bit;
                }
            } else if l >= stop && bc.level_meta(l).resid.is_none() {
                c.keyed |= bit;
            } else {
                c.waves |= bit;
            }
        }
        c
    }
}

/// Per-level validity context: the residual-label requirement, the
/// injectivity mask and the symmetry-bound list, resolved once per
/// claim/count pass instead of per candidate element (these lookups sit
/// inside million-element loops).
#[derive(Clone, Copy)]
pub(super) struct Validity<'p> {
    pub(super) resid: Option<stmatch_graph::Label>,
    /// [`LevelMeta::inj`](stmatch_pattern::bytecode::LevelMeta::inj): the
    /// positions a candidate can collide with.
    pub(super) inj: u8,
    pub(super) bounds: &'p [(usize, Bound)],
}

/// The positions named by an injectivity mask, ascending.
#[inline]
pub(super) fn positions(mut mask: u8) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let pos = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            pos
        })
    })
}

impl<'p> Validity<'p> {
    #[inline]
    pub(super) fn new(bc: &'p PlanBytecode, l: usize) -> Self {
        let meta = bc.level_meta(l);
        Validity {
            resid: meta.resid,
            inj: meta.inj,
            bounds: bc.bounds(l),
        }
    }

    /// Injectivity, residual-label and symmetry-bound check against the
    /// matched prefix.
    #[inline]
    pub(super) fn check(&self, g: &Graph, matched: &[VertexId], v: VertexId) -> bool {
        if let Some(lbl) = self.resid {
            if g.label(v) != lbl {
                return false;
            }
        }
        if positions(self.inj).any(|pos| matched[pos] == v) {
            return false;
        }
        for &(pos, bound) in self.bounds {
            let ok = match bound {
                Bound::Less => v < matched[pos],
                Bound::Greater => v > matched[pos],
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// The elements of `cl` that pass [`Validity::check`].
    pub(super) fn count(&self, g: &Graph, matched: &[VertexId], cl: &[VertexId]) -> u64 {
        cl.iter().filter(|&&v| self.check(g, matched, v)).count() as u64
    }
}
