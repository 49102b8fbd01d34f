//! Static plan verification for STMatch (DESIGN.md §4j).
//!
//! STMatch's performance story rests on statically-shaped storage — the
//! `C[NUM_SETS][UNROLL][MAX_DEGREE]` warp-stack geometry of §VIII-A — yet a
//! [`MatchPlan`]/[`PlanBytecode`] pair used to be trusted blindly: slab
//! overflow surfaced as runtime spills, a corrupted plan as wrong counts.
//! This crate runs three static analyses *before* launch and turns those
//! runtime surprises into machine-checkable certificates and named
//! diagnostics:
//!
//! 1. [`absint`] — abstract interpretation of per-set candidate-list sizes
//!    over the graph's degree profile, yielding a [`ResourceCert`] that
//!    bounds slab occupancy and stack depth and certifies *spill-freedom*
//!    when every bound fits the slab capacity (the precondition a real GPU
//!    backend, which cannot heap-spill, would demand).
//! 2. [`liveness`] — def/last-use dataflow over the bytecode stream: dead
//!    sets (named diagnostics), live intervals, and slot-reuse legality.
//! 3. [`soundness`] — adjacency/connectivity of every level against the
//!    pattern, symmetry-break completeness against the automorphism group,
//!    and exactly-once shard coverage of the level-0 domain.
//!
//! Every diagnostic carries a deterministic `reproduce:` line, and the
//! sanctioned plan mutations (`stmatch_pattern::plan::mutation`, the
//! engine's shard mutation) are each caught *by name* — see the kill legs
//! of `ci.sh smoke:verify`.

pub mod absint;
pub mod diag;
pub mod liveness;
pub mod soundness;

pub use absint::{certify, GraphProfile, ResourceCert, TOP_DEGREES};
pub use diag::{DiagKind, Diagnostic};
pub use liveness::{analyze as analyze_liveness, LivenessReport, SetLiveness};
pub use soundness::{check_adjacency, check_shard_cover, check_symmetry};

use stmatch_pattern::{MatchPlan, PlanBytecode};

/// Everything one verification pass produces: the resource certificate,
/// the liveness report, and any diagnostics (empty = the plan is clean).
#[derive(Clone, Debug)]
pub struct Verification {
    pub cert: ResourceCert,
    pub liveness: Option<LivenessReport>,
    pub diagnostics: Vec<Diagnostic>,
}

impl Verification {
    /// True when no analysis raised a diagnostic.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Per-set slab capacities for the opt-in footprint hint; `None` unless
    /// the plan is clean (shrinking slabs of a suspect plan compounds the
    /// damage) and the certificate actually shrinks something.
    pub fn footprint_caps(&self) -> Option<Vec<u32>> {
        if !self.is_clean() {
            return None;
        }
        let caps = self.cert.shaped_caps();
        let cap = self.cert.slab_cap as u32;
        caps.iter().any(|&c| c < cap).then_some(caps)
    }
}

/// Runs all three analyses on `plan` against `profile`, checking resource
/// bounds at `slab_cap` cells per (set, unroll) slot. `repro` is the
/// deterministic command stamped on every diagnostic's `reproduce:` line.
///
/// The bytecode for the dataflow pass is lowered internally (lowering is
/// cheap and deterministic); a stream the lowerer itself rejects becomes a
/// [`DiagKind::BytecodeReject`] diagnostic rather than an error.
pub fn verify_plan(
    plan: &MatchPlan,
    profile: &GraphProfile,
    slab_cap: usize,
    repro: &str,
) -> Verification {
    let cert = certify(plan, profile, slab_cap);
    let mut diagnostics = Vec::new();
    let liveness = match PlanBytecode::lower(plan) {
        Ok(bc) => {
            let report = analyze_liveness(&bc);
            diagnostics.extend(liveness::dead_set_diagnostics(&report, repro));
            Some(report)
        }
        Err(e) => {
            diagnostics.push(Diagnostic::new(
                DiagKind::BytecodeReject {
                    detail: e.to_string(),
                },
                format!("plan-verify: bytecode lowering rejected the plan: {e}"),
                repro,
            ));
            None
        }
    };
    diagnostics.extend(check_adjacency(plan, repro));
    diagnostics.extend(check_symmetry(plan, repro));
    Verification {
        cert,
        liveness,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmatch_graph::gen;
    use stmatch_pattern::catalog;
    use stmatch_pattern::plan::{mutation, PlanOptions};

    #[test]
    fn clean_plans_verify_clean_with_usable_certs() {
        let g = gen::preferential_attachment(48, 4, 3).degree_ordered();
        let prof = GraphProfile::of(&g);
        for q in catalog::all_paper_queries() {
            let plan = MatchPlan::compile(&q, PlanOptions::default());
            let v = verify_plan(&plan, &prof, 4096, "test");
            assert!(v.is_clean(), "{}: {:?}", q.name(), v.diagnostics);
            assert!(v.cert.spill_free, "{}", q.name());
            assert!(v.liveness.is_some());
            // Slab already fits the max degree: nothing to shrink below a
            // cap of max_degree, but shaped caps must stay within it.
            let caps = v.cert.shaped_caps();
            assert_eq!(caps.len(), plan.num_sets());
        }
    }

    #[test]
    fn footprint_caps_appear_only_when_clean_and_shrinking() {
        let g = gen::rmat(6, 4, 11).degree_ordered();
        let prof = GraphProfile::of(&g);
        // K5 cascade on a skewed graph: deeper sets certify below Δ, so a
        // slab cap of Δ leaves room to shrink.
        let plan = MatchPlan::compile(&catalog::paper_query(8), PlanOptions::default());
        let v = verify_plan(&plan, &prof, prof.max_degree, "test");
        assert!(v.is_clean());
        let caps = v.footprint_caps().expect("cascade bounds shrink");
        assert!(caps.iter().any(|&c| (c as usize) < prof.max_degree));
        // A mutated plan never yields caps.
        let mut bad = MatchPlan::compile(&catalog::paper_query(8), PlanOptions::default());
        mutation::insert_dead_set(&mut bad);
        let vb = verify_plan(&bad, &prof, prof.max_degree, "test");
        assert!(!vb.is_clean());
        assert!(vb.footprint_caps().is_none());
    }

    #[test]
    fn mutations_are_caught_by_name_at_the_top_level() {
        let g = gen::preferential_attachment(48, 4, 3).degree_ordered();
        let prof = GraphProfile::of(&g);
        let mut plan = MatchPlan::compile(&catalog::paper_query(6), PlanOptions::default());
        let dead = mutation::insert_dead_set(&mut plan);
        let v = verify_plan(&plan, &prof, 4096, "check verify --mutate=dead-set");
        assert!(v
            .diagnostics
            .iter()
            .any(|d| matches!(d.kind, DiagKind::DeadSet { set, .. } if set == dead)));
        assert!(v.diagnostics[0].reproduce.contains("--mutate=dead-set"));

        let mut plan = MatchPlan::compile(&catalog::paper_query(8), PlanOptions::default());
        let (level, pos) = mutation::drop_symmetry_bound(&mut plan).unwrap();
        let v = verify_plan(&plan, &prof, 4096, "test");
        assert!(v.diagnostics.iter().any(|d| matches!(
            d.kind,
            DiagKind::MissingSymmetryBound { level: l, pos: p, .. } if l == level && p == pos
        )));
    }
}
