//! Abstract interpretation of per-set candidate-list sizes.
//!
//! The abstract domain tracks, per plan set, the collection of *distinct*
//! order positions whose neighbor lists have been intersected into it
//! (following `Base::Set` dependency edges, so a code-motion chain
//! accumulates its whole prefix). The concretization argument: the matched
//! vertices at `k` distinct order positions are `k` distinct data vertices,
//! so a list contained in all `k` of their neighbor lists is no longer than
//! the *smallest* of those degrees — which is at most the `k`-th largest
//! degree in the graph. Difference ops and label masks only shrink sets and
//! are ignored (sound, conservative).
//!
//! The resulting [`ResourceCert`] bounds every slab the arena will ever
//! hold: when each per-set bound fits the configured slab capacity, no
//! [`ArenaWriter`](../../core/arena) push can ever take the spill path and
//! the certificate claims *spill-freedom* — the property a real GPU backend
//! (which has no heap to spill into) would require as a launch precondition.

use stmatch_graph::Graph;
use stmatch_pattern::plan::{Base, MatchPlan, OpKind};
use stmatch_pattern::SlotTable;

/// How many of the graph's largest degrees the profile retains. Sets that
/// intersect more than this many distinct positions are bounded by the
/// deepest retained degree (still sound: the k-th largest degree is
/// non-increasing in k).
pub const TOP_DEGREES: usize = 16;

/// Degree summary of a data graph, the verifier's only knowledge of it.
/// Built once per graph (O(n) + a bounded selection) and reused across
/// every plan verified against it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphProfile {
    pub num_vertices: usize,
    pub max_degree: usize,
    /// The `min(TOP_DEGREES, n)` largest degrees, descending.
    pub top_degrees: Vec<usize>,
}

impl GraphProfile {
    /// Profiles `g` via [`stmatch_graph::stats::top_degrees`].
    pub fn of(g: &Graph) -> GraphProfile {
        let top = stmatch_graph::stats::top_degrees(g, TOP_DEGREES);
        GraphProfile {
            num_vertices: g.num_vertices(),
            max_degree: top.first().copied().unwrap_or(0),
            top_degrees: top,
        }
    }

    /// Upper bound on the size of a set contained in the neighbor lists of
    /// `k >= 1` distinct vertices: the `k`-th largest degree (clamped to the
    /// retained prefix, which only loosens the bound).
    pub fn kth_degree(&self, k: usize) -> usize {
        debug_assert!(k >= 1);
        match self.top_degrees.get(k.saturating_sub(1)) {
            Some(&d) => d,
            None => self.top_degrees.last().copied().unwrap_or(0),
        }
    }
}

/// The machine-checkable resource certificate: worst-case candidate-list
/// size per plan set, the recursion-stack depth, and whether every bound
/// fits the slab capacity the arena will be built with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResourceCert {
    /// `set_bounds[s]` = worst-case element count of set `s`, any claim.
    pub set_bounds: Vec<usize>,
    /// Level each set is computed at (mirrors `SetDef::level`; kept so the
    /// certificate is self-contained).
    pub set_levels: Vec<u8>,
    /// Worst-case recursion depth (= pattern size: the DFS stack of Fig. 4).
    pub stack_depth: usize,
    /// Slab capacity (cells per (set, unroll) slot) the bounds were checked
    /// against — `min(max_degree_slab, max_degree)` on the engine path.
    pub slab_cap: usize,
    /// True iff every set bound fits `slab_cap`: no arena write can take
    /// the spill path, so `MatchOutcome::spill_events` must be 0.
    pub spill_free: bool,
}

impl ResourceCert {
    /// Largest per-set bound (the binding constraint for `slab_cap`).
    pub fn max_set_bound(&self) -> usize {
        self.set_bounds.iter().copied().max().unwrap_or(0)
    }

    /// Worst-case total cells live across one warp's arena under `slots`
    /// (the launch's [`PlanBytecode::slot_table`]): every slot of every set
    /// simultaneously at the set's bound. Runtime
    /// `MatchOutcome::peak_slab_cells` must never exceed this. (`Σ bound ×
    /// unroll` is no bound: a deep set may own more than `unroll` slots.)
    ///
    /// [`PlanBytecode::slot_table`]: stmatch_pattern::PlanBytecode::slot_table
    pub fn peak_cells(&self, slots: &SlotTable) -> u64 {
        debug_assert_eq!(slots.num_sets(), self.set_bounds.len());
        self.set_bounds
            .iter()
            .enumerate()
            .map(|(s, &b)| b as u64 * slots.slots(s) as u64)
            .sum()
    }

    /// Per-set slab capacities for the opt-in footprint hint: each set's
    /// slab shrunk to its certified bound (never above `slab_cap`, never
    /// zero so degenerate sets keep a valid slot).
    pub fn shaped_caps(&self) -> Vec<u32> {
        self.set_bounds
            .iter()
            .map(|&b| b.clamp(1, self.slab_cap.max(1)) as u32)
            .collect()
    }
}

/// Runs the abstract interpretation of `plan` against `profile`, checking
/// bounds against `slab_cap` (the per-slot cell capacity the engine will
/// size the arena with).
pub fn certify(plan: &MatchPlan, profile: &GraphProfile, slab_cap: usize) -> ResourceCert {
    let sets = plan.sets();
    // positions[s] = bitmask of distinct order positions intersected into
    // set s (MAX_PATTERN_SIZE <= 8, so u32 is roomy).
    let mut positions: Vec<u32> = Vec::with_capacity(sets.len());
    let mut set_bounds = Vec::with_capacity(sets.len());
    let mut set_levels = Vec::with_capacity(sets.len());
    for def in sets {
        let mut mask: u32 = match def.base {
            Base::Neighbors(p) => 1 << p,
            // Dependencies precede dependents, so the dep's mask is final.
            Base::Set(d) => positions[d as usize],
        };
        for op in &def.ops {
            if op.kind == OpKind::Intersect {
                mask |= 1 << op.pos;
            }
        }
        let k = mask.count_ones() as usize;
        let bound = if k == 0 {
            // Unreachable for well-formed plans (every chain roots at a
            // neighbor list); bounded by the universe to stay sound.
            profile.num_vertices
        } else {
            profile.kth_degree(k)
        };
        positions.push(mask);
        set_bounds.push(bound.min(profile.num_vertices));
        set_levels.push(def.level);
    }
    let spill_free = set_bounds.iter().all(|&b| b <= slab_cap);
    ResourceCert {
        set_bounds,
        set_levels,
        stack_depth: plan.num_levels(),
        slab_cap,
        spill_free,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmatch_graph::gen;
    use stmatch_pattern::plan::PlanOptions;
    use stmatch_pattern::{catalog, MatchPlan};

    fn profile_of_star() -> GraphProfile {
        GraphProfile::of(&gen::star(10))
    }

    #[test]
    fn profile_retains_descending_top_degrees() {
        let p = profile_of_star();
        assert_eq!(p.num_vertices, 11);
        assert_eq!(p.max_degree, 10);
        assert_eq!(p.top_degrees[0], 10);
        assert!(p.top_degrees.windows(2).all(|w| w[0] >= w[1]));
        // k-th degree clamps past the retained prefix.
        assert_eq!(p.kth_degree(1), 10);
        assert_eq!(p.kth_degree(2), 1);
        assert_eq!(p.kth_degree(100), *p.top_degrees.last().unwrap());
    }

    #[test]
    fn clique_cascade_bounds_shrink_with_depth() {
        let g = gen::complete(20);
        let prof = GraphProfile::of(&g);
        let plan = MatchPlan::compile(&catalog::clique(5), PlanOptions::default());
        let cert = certify(&plan, &prof, 4096);
        assert!(cert.spill_free);
        assert_eq!(cert.stack_depth, 5);
        // Each deeper cascade set intersects one more distinct position, so
        // the bounds are non-increasing along the set order.
        for w in cert.set_bounds.windows(2) {
            assert!(w[0] >= w[1], "bounds not monotone: {:?}", cert.set_bounds);
        }
        assert_eq!(cert.set_bounds[0], 19); // N(v0) on K20
    }

    #[test]
    fn tight_slab_cap_denies_spill_freedom() {
        let g = gen::star(100);
        let prof = GraphProfile::of(&g);
        let plan = MatchPlan::compile(&catalog::wedge(), PlanOptions::default());
        let spacious = certify(&plan, &prof, 4096);
        assert!(spacious.spill_free);
        let tight = certify(&plan, &prof, 4);
        assert!(!tight.spill_free);
        assert_eq!(tight.max_set_bound(), 100);
        // peak_cells weighs each set's bound by the slots the set owns.
        let bounds = &spacious.set_bounds;
        assert_eq!(bounds.len(), 1);
        let slots = |n| SlotTable::with_slots(&[n]);
        assert_eq!(spacious.peak_cells(&slots(1)), bounds[0] as u64);
        assert_eq!(spacious.peak_cells(&slots(32)), 32 * bounds[0] as u64);
    }

    #[test]
    fn shaped_caps_clamp_into_slab() {
        let g = gen::star(100);
        let prof = GraphProfile::of(&g);
        let plan = MatchPlan::compile(&catalog::wedge(), PlanOptions::default());
        let cert = certify(&plan, &prof, 50);
        for &c in &cert.shaped_caps() {
            assert!((1..=50).contains(&c));
        }
    }

    #[test]
    fn bounds_are_sound_for_every_paper_query() {
        // Structural soundness check: a set's bound is at least the bound
        // of intersecting all its positions' actual neighbor lists on a
        // concrete skewed graph (here: degree diversity via rmat).
        let g = gen::rmat(6, 4, 11).degree_ordered();
        let prof = GraphProfile::of(&g);
        for q in catalog::all_paper_queries() {
            for induced in [false, true] {
                let plan = MatchPlan::compile(
                    &q,
                    PlanOptions {
                        induced,
                        ..PlanOptions::default()
                    },
                );
                let cert = certify(&plan, &prof, 4096);
                assert_eq!(cert.set_bounds.len(), plan.num_sets());
                for (sid, (&b, def)) in cert.set_bounds.iter().zip(plan.sets()).enumerate() {
                    assert!(b <= prof.max_degree, "{}: bound above Δ", q.name());
                    assert_eq!(cert.set_levels[sid], def.level, "{}", q.name());
                }
            }
        }
    }
}
