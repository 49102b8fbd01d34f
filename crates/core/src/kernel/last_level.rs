//! The last level's closed forms (DESIGN.md §4c, "Last-level counting"):
//! how many of a sorted candidate list are valid, clipped at the slot's own
//! vertex or not, and the fused tail's pair counts against the warp's rank
//! row.

use super::rank::Ranks;
use super::validity::{positions, Validity};
use stmatch_graph::{Graph, VertexId};
use stmatch_pattern::symmetry::Bound;
use stmatch_pattern::MAX_PATTERN_SIZE;

/// Where a strictly sorted candidate list is valid at one level, with the
/// slot's own position `here` set aside: the window the bounds on the other
/// positions clip (`lo..hi`), the list indices inside it of the matched
/// vertices at the other `inj` positions, and what the level asks of `here`
/// itself — `v < m`, `v > m` (symmetry bounds) or `v != m` (injectivity).
/// Each matched vertex is placed by one rank: a search of the list
/// ([`sorted`]), or its rank row. With nothing asked of `here` (a tail's
/// level-`(k − 2)` list) [`Clip::size`] is the valid count; otherwise
/// [`Clip::count`] closes the window at the rank of `here`'s vertex.
pub(super) struct Clip {
    lo: usize,
    hi: usize,
    found: [usize; MAX_PATTERN_SIZE],
    n_found: usize,
    less: bool,
    greater: bool,
    distinct: bool,
}

impl Clip {
    /// The clip of a list of `len` elements whose `rank(m)` is the index of
    /// its first element `≥ m` and whether that element is `m`.
    pub(super) fn new(
        len: usize,
        matched: &[VertexId],
        vy: &Validity<'_>,
        here: usize,
        mut rank: impl FnMut(VertexId) -> (usize, bool),
    ) -> Clip {
        let on_here = |kind: Bound| vy.bounds.contains(&(here, kind));
        let (mut lo, mut hi) = (0, len);
        for &(pos, bound) in vy.bounds.iter().filter(|b| b.0 != here) {
            let (c, hit) = rank(matched[pos]);
            match bound {
                Bound::Less => hi = hi.min(c),
                Bound::Greater => lo = lo.max(c + usize::from(hit)),
            }
        }
        let hi = hi.max(lo);
        let mut clip = Clip {
            lo,
            hi,
            found: [0; MAX_PATTERN_SIZE],
            n_found: 0,
            less: on_here(Bound::Less),
            greater: on_here(Bound::Greater),
            distinct: vy.inj >> here & 1 == 1,
        };
        for pos in positions(vy.inj & !(1 << here)) {
            match rank(matched[pos]) {
                (i, true) if lo <= i && i < hi => {
                    clip.found[clip.n_found] = i;
                    clip.n_found += 1;
                }
                _ => {}
            }
        }
        clip
    }

    fn found(&self) -> &[usize] {
        &self.found[..self.n_found]
    }

    /// Which of a tail's two window sums ([`pair_count`]) this last-level
    /// clip's relation to `here` reads: the ranks below (`>`, `<`) and the
    /// hits (`<`, injectivity).
    fn sums(&self) -> (bool, bool) {
        (
            self.greater || self.less,
            !self.greater && (self.less || self.distinct),
        )
    }

    /// The valid count when nothing is asked of `here`; `None` when the
    /// subtraction would underflow (a list that is not a strictly sorted
    /// set, or a matched prefix that repeats a vertex).
    fn size(&self) -> Option<u64> {
        (self.hi - self.lo)
            .checked_sub(self.n_found)
            .map(|n| n as u64)
    }

    /// The valid count for the slot whose vertex `m` at `here` has rank `c`
    /// in the list (first index of an element `≥ m`) and is in it iff `hit`:
    /// `v < m` ends the window at `c`, `v > m` starts it past a hit, and the
    /// hit is the injectivity collision. `None` as for [`Clip::size`].
    #[inline]
    pub(super) fn count(&self, c: usize, hit: bool) -> Option<u64> {
        let hi = if self.less { self.hi.min(c) } else { self.hi };
        let lo = if self.greater {
            self.lo.max(c + usize::from(hit))
        } else {
            self.lo
        };
        if lo >= hi {
            return Some(0);
        }
        let inside = |i: usize| lo <= i && i < hi;
        let dup = self.found().iter().filter(|&&i| inside(i)).count()
            + usize::from(self.distinct && hit && inside(c));
        (hi - lo).checked_sub(dup).map(|n| n as u64)
    }
}

/// What a tail slot ranks against
/// ([`last_levels`](super::last_levels)): the row of V,
/// the row of W, or — V and W being one list — that list itself.
pub(super) enum Against<'r> {
    V(Ranks<'r>),
    W(Ranks<'r>),
    Itself,
}

/// One slot of a fused tail
/// ([`WarpKernel::count_tail`](super::WarpKernel::count_tail)): the level-`l`
/// list `v` (V) under `vy` and the last level's lifted list `w` (W) under
/// `vz`.
pub(super) struct TailSlot<'s> {
    pub(super) v: &'s [VertexId],
    pub(super) w: &'s [VertexId],
    pub(super) vy: Validity<'s>,
    pub(super) vz: Validity<'s>,
    pub(super) l: usize,
}

impl TailSlot<'_> {
    /// The survivors of V and the last-level count they add up to:
    ///
    /// * against W's row, V is walked and each survivor closes W's window at
    ///   its rank ([`Clip::count`]);
    /// * against V's row, V's survivors are a window of V less exclusions, so
    ///   each element of W's window ranks into it once ([`pair_count`]);
    /// * V and W one list, it ranks against itself in closed form
    ///   ([`self_sums`]).
    ///
    /// `None` for a count that would underflow.
    pub(super) fn count(
        &self,
        g: &Graph,
        matched: &[VertexId],
        against: Against<'_>,
    ) -> (u64, Option<u64>) {
        let (v, w, l) = (self.v, self.w, self.l);
        if let Against::W(mut ranks) = against {
            let cw = Clip::new(w.len(), matched, &self.vz, l, |x| ranks.rank(x));
            let mut survivors = 0;
            let n = v
                .iter()
                .filter(|&&x| self.vy.check(g, matched, x))
                .map(|&x| {
                    survivors += 1;
                    let (c, hit) = ranks.rank(x);
                    cw.count(c, hit)
                })
                .sum();
            return (survivors, n);
        }
        let cw = Clip::new(w.len(), matched, &self.vz, l, sorted(w));
        let (cv, n) = match against {
            Against::V(mut ranks) => {
                let cv = Clip::new(v.len(), matched, &self.vy, l, |x| ranks.rank(x));
                let sums = ranks.window_sums(&w[cw.lo..cw.hi], cv.lo, cv.hi, cw.sums());
                let n = pair_count(v, &cv, w, &cw, sums, |x| ranks.rank(x));
                (cv, n)
            }
            _ => {
                debug_assert!(std::ptr::eq(v, w), "V and W are one list");
                let cv = Clip::new(v.len(), matched, &self.vy, l, sorted(v));
                let sums = self_sums(cw.lo, cw.hi, cv.lo, cv.hi);
                let n = pair_count(v, &cv, w, &cw, sums, sorted(v));
                (cv, n)
            }
        };
        (cv.size().unwrap_or(0), n)
    }

    /// The per-element reference: every survivor of V counts W's survivors
    /// by [`Validity::check`].
    pub(super) fn reference(&self, g: &Graph, matched: &[VertexId]) -> u64 {
        let mut at = [0; MAX_PATTERN_SIZE];
        at[..self.l].copy_from_slice(&matched[..self.l]);
        let mut n = 0;
        for &x in self.v {
            if self.vy.check(g, &at, x) {
                at[self.l] = x;
                n += self.vz.count(g, &at, self.w);
            }
        }
        n
    }
}

/// A tail slot's count when V's survivors are its window `a..b` less the
/// exclusions `cv` found: over the elements `x` of W that `cw` admits, the
/// survivors `y` of V that `x` admits at position `k − 2` — `y < x` under a
/// `>` bound, `y > x` under `<`, `y ≠ x` under injectivity, any otherwise.
/// `sums` are, over W's window `cw.lo..cw.hi`, Σ (clamp(rank_V(x), a, b) − a)
/// and how many of it lie in `V[a..b)`; V's exclusions (one search of W's
/// window each) and W's found elements (one `rank_v` each) are corrected
/// here. `None` for a negative count.
fn pair_count(
    v: &[VertexId],
    cv: &Clip,
    w: &[VertexId],
    cw: &Clip,
    sums: (u64, u64),
    mut rank_v: impl FnMut(VertexId) -> (usize, bool),
) -> Option<u64> {
    let (a, b) = (cv.lo as i64, cv.hi as i64);
    let excl = cv.found();
    let window = &w[cw.lo..cw.hi];
    let (mut below, mut inside) = (sums.0 as i64, sums.1 as i64);
    // An exclusion sat below every element of the window above it, and in
    // V's window where W holds it too.
    for &e in excl {
        let (c, hit) = sorted(window)(v[e]);
        below -= (window.len() - c - usize::from(hit)) as i64;
        inside -= i64::from(hit);
    }
    // W's found elements leave with what they added.
    for &f in cw.found() {
        let (r, hit) = rank_v(w[f]);
        let excluded_below = excl.iter().filter(|&&e| e < r).count();
        below -= (r as i64).clamp(a, b) - a - excluded_below as i64;
        inside -= i64::from(hit && cv.lo <= r && r < cv.hi && !excl.contains(&r));
    }
    let pairs = (window.len() as i64 - cw.n_found as i64) * cv.size()? as i64;
    let n = if cw.greater {
        below
    } else if cw.less {
        pairs - below - inside
    } else if cw.distinct {
        pairs - inside
    } else {
        pairs
    };
    u64::try_from(n).ok()
}

/// Valid-candidate count of a strictly sorted candidate list, in closed
/// form: every symmetry bound (`v < matched[pos]` / `v > matched[pos]`)
/// clips a contiguous window of the sorted list, and injectivity removes
/// the matched vertices of the `inj` positions that land inside the window.
/// `None` when the subtraction would underflow (a list that is not a
/// strictly sorted set).
pub(super) fn count_valid_sorted(
    cl: &[VertexId],
    matched: &[VertexId],
    vy: &Validity<'_>,
) -> Option<u64> {
    let mut lo = 0usize;
    let mut hi = cl.len();
    for &(pos, bound) in vy.bounds {
        let m = matched[pos];
        match bound {
            Bound::Less => hi = hi.min(cl.partition_point(|&v| v < m)),
            Bound::Greater => lo = lo.max(cl.partition_point(|&v| v <= m)),
        }
    }
    if lo >= hi {
        return Some(0);
    }
    let window = &cl[lo..hi];
    let dup = positions(vy.inj)
        .filter(|&pos| window.binary_search(&matched[pos]).is_ok())
        .count();
    window.len().checked_sub(dup).map(|n| n as u64)
}

/// The rank of `m` in the strictly sorted `cl` by one search: the index of
/// its first element `≥ m`, and whether that element is `m`.
fn sorted(cl: &[VertexId]) -> impl Fn(VertexId) -> (usize, bool) + '_ {
    |m| {
        let c = cl.partition_point(|&v| v < m);
        (c, cl.get(c) == Some(&m))
    }
}

/// [`Ranks::window_sums`] of a list's window `lo..hi` against its own window
/// `a..b`, in closed form: the rank of its `j`-th element is `j`.
fn self_sums(lo: usize, hi: usize, a: usize, b: usize) -> (u64, u64) {
    let (p, q) = (lo.max(a), hi.min(b));
    let (mid, inside) = if p < q {
        ((p - a + q - 1 - a) * (q - p) / 2, q - p)
    } else {
        (0, 0)
    };
    let top = hi.saturating_sub(lo.max(b)) * (b - a);
    ((mid + top) as u64, inside as u64)
}

/// Unwraps the closed-form count `n` of candidate list `cl` at level `l`: an
/// underflow fails the launch (a release build would otherwise wrap into
/// ~2^64 matches), and a debug build holds `n` to the per-element
/// `reference`.
#[inline]
pub(super) fn closed_form(
    n: Option<u64>,
    l: usize,
    matched: &[VertexId],
    cl: &[VertexId],
    reference: impl FnOnce() -> u64,
) -> u64 {
    let n = n.unwrap_or_else(|| closed_form_underflow(l, matched, cl));
    debug_assert_eq!(n, reference());
    n
}

/// The closed-form last-level count went negative: fail the launch loudly
/// rather than report a wrapped count.
#[cold]
fn closed_form_underflow(l: usize, matched: &[VertexId], cl: &[VertexId]) -> ! {
    panic!(
        "last-level closed form underflow at level {l}: more matched vertices than \
         elements inside the bound window (the candidate list is not a strictly sorted \
         set, or the matched prefix repeats a vertex)\n  reproduce: count the \
         `Validity::check` survivors of candidate list {cl:?} under matched prefix {:?}",
        &matched[..l]
    )
}

#[cfg(test)]
mod tests {
    use super::super::rank::RankRow;
    use super::*;
    use stmatch_graph::gen;
    use stmatch_testkit::rng::SplitMix64;

    /// A random strictly sorted subset of `0..n`: all of it down to about
    /// one in six.
    fn sorted_set(rng: &mut SplitMix64, n: u32) -> Vec<VertexId> {
        let sparsity = 1 + rng.next_u64() % 6;
        (0..n)
            .filter(|_| rng.next_u64().is_multiple_of(sparsity))
            .collect()
    }

    /// The fused tail's per-slot sums against the per-element reference,
    /// over random sorted lists crossing word edges: each of `>`, `<`,
    /// injectivity and nothing asked of position `l`, with and without
    /// exclusions in V and found elements in W (other positions' `inj` bits
    /// and bounds, matched vertices drawn from the lists), against V's row,
    /// W's row and — V and W one list — the list itself.
    #[test]
    fn the_tail_sums_are_the_brute_force_sums() {
        const L: usize = 4;
        let n = 200;
        let g = gen::complete(2); // only asked for labels, and `resid` is off
                                  // Matched vertices reach past both lists.
        let mut cells = vec![0; RankRow::cells(n as usize + 40)];
        let mut row = RankRow::default();
        let mut rng = SplitMix64::new(0x7a11);
        let mut cases = [0usize; 4];
        for case in 0..3000 {
            let same = case % 4 == 0;
            let v = sorted_set(&mut rng, n);
            let own_w = if same {
                Vec::new()
            } else {
                sorted_set(&mut rng, n)
            };
            let w = if same { &v[..] } else { &own_w[..] };
            let kind = rng.next_u64() % 4;
            let other_bounds = |rng: &mut SplitMix64| {
                let mut b = Vec::new();
                for pos in 0..L {
                    match rng.next_u64() % 5 {
                        0 => b.push((pos, Bound::Less)),
                        1 => b.push((pos, Bound::Greater)),
                        _ => {}
                    }
                }
                b
            };
            let vy_bounds = other_bounds(&mut rng);
            let mut vz_bounds = other_bounds(&mut rng);
            match kind {
                0 => vz_bounds.push((L, Bound::Greater)),
                1 => vz_bounds.push((L, Bound::Less)),
                _ => {}
            }
            let vy = Validity {
                resid: None,
                inj: (rng.next_u64() % 16) as u8,
                bounds: &vy_bounds,
            };
            let vz = Validity {
                resid: None,
                inj: (rng.next_u64() % 16) as u8 | u8::from(kind == 2) << L,
                bounds: &vz_bounds,
            };
            // Positions 0..L, distinct, drawn from V, W or anywhere (past
            // both lists too) — but, as in a plan, V holds no prefix vertex its
            // `inj` mask leaves out (such a position is an intersection with
            // the vertex's own neighbours).
            let mut matched = [0; MAX_PATTERN_SIZE];
            for pos in 0..L {
                loop {
                    let pool = [&v[..], w][pos % 2];
                    let x = match rng.next_u64() % 3 {
                        0 if !pool.is_empty() => pool[rng.next_u64() as usize % pool.len()],
                        _ => (rng.next_u64() % u64::from(n + 40)) as VertexId,
                    };
                    let unexcluded = vy.inj >> pos & 1 == 0 && v.contains(&x);
                    if !matched[..pos].contains(&x) && !unexcluded {
                        matched[pos] = x;
                        break;
                    }
                }
            }
            cases[kind as usize] += 1;
            let slot = TailSlot {
                v: &v,
                w,
                vy,
                vz,
                l: L,
            };
            let want = slot.reference(&g, &matched);
            let survivors = vy.count(&g, &matched, &v);
            let what = format!(
                "case {case}: V {v:?} W {w:?} vy {vy_bounds:?}/{:#b} vz {vz_bounds:?}/{:#b} \
                 matched {:?}",
                vy.inj,
                vz.inj,
                &matched[..L]
            );
            let on_v = Against::V(row.of(&mut cells, &v, 0, case, &[]));
            assert_eq!(
                slot.count(&g, &matched, on_v),
                (survivors, Some(want)),
                "V's row, {what}"
            );
            let on_w = Against::W(row.of(&mut cells, w, 1, case, &[]));
            assert_eq!(
                slot.count(&g, &matched, on_w),
                (survivors, Some(want)),
                "W's row, {what}"
            );
            if same {
                let itself = slot.count(&g, &matched, Against::Itself);
                assert_eq!(itself, (survivors, Some(want)), "one list, {what}");
            }
        }
        assert!(cases.iter().all(|&c| c > 500), "{cases:?}");
    }

    #[test]
    fn the_closed_form_refuses_to_wrap() {
        // A matched prefix that repeats a vertex finds it twice in a
        // one-element window: 1 - 2 must be `None`, not 2^64 - 1 — at the
        // level itself, clipped at the slot's own position, or as a tail.
        let vy = Validity {
            resid: None,
            inj: 0b011,
            bounds: &[],
        };
        let (cl, matched) = ([5], [5, 5, 9, 0]);
        assert_eq!(count_valid_sorted(&cl, &matched, &vy), None);
        let clip = Clip::new(cl.len(), &matched, &vy, 2, sorted(&cl));
        assert_eq!(clip.count(1, false), None);
        let slot = TailSlot {
            v: &cl,
            w: &cl,
            vy,
            vz: vy,
            l: 2,
        };
        assert_eq!(
            slot.count(&gen::complete(2), &matched, Against::Itself).1,
            None
        );
    }

    #[test]
    #[should_panic(
        expected = "reproduce: count the `Validity::check` survivors of candidate list [5] \
                               under matched prefix [5, 5]"
    )]
    fn an_underflow_fails_the_launch_by_name() {
        closed_form_underflow(2, &[5, 5, 9], &[5]);
    }
}
