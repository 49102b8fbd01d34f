//! Soundness checks: does the plan actually implement the pattern?
//!
//! Three independent proofs, each reported as named diagnostics on failure:
//!
//! * **Adjacency/connectivity** — for every level `l >= 1`, the closure of
//!   its candidate chain (following `Base::Set` dependencies back to the
//!   rooting neighbor list) must intersect with *exactly* the backward
//!   pattern neighbors of `order[l]`, and in vertex-induced mode subtract
//!   exactly the backward non-neighbors. A missing intersection over-counts,
//!   a spurious one under-counts, and an empty intersection set means the
//!   level is disconnected from the matched prefix entirely.
//! * **Symmetry-break completeness** — the per-level bounds the plan
//!   carries must equal (as multisets) the bounds the orbit–stabilizer
//!   construction derives for the plan's own matching order: from the
//!   pattern's automorphism group, or for an anchored plan from its anchor
//!   edge's setwise stabilizer. A dropped bound multiplies counts by an
//!   orbit factor; an invented one silently discards subgraphs.
//! * **Shard coverage** — the virtual cuts of a `ShardPlan` must tile the
//!   level-0 domain exactly once: cuts monotone from `0` to `n`, and the
//!   order a permutation of the vertex universe. (Taken as plain slices so
//!   this crate needs no dependency on the engine.)

use crate::diag::{DiagKind, Diagnostic};
use stmatch_graph::VertexId;
use stmatch_pattern::plan::{Base, MatchPlan, OpKind};
use stmatch_pattern::symmetry;

/// Checks every level's candidate chain against the pattern's adjacency.
pub fn check_adjacency(plan: &MatchPlan, repro: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let pattern = plan.pattern();
    let order = plan.order();
    let sets = plan.sets();
    for l in 1..plan.num_levels() {
        let Some(cand) = plan.candidate_set(l) else {
            continue; // structural absence is caught by bytecode lowering
        };
        // Closure of the chain: walk Base::Set deps down to the rooting
        // neighbor list, collecting (position, kind) of every op.
        let mut intersects = 0u32;
        let mut differences = 0u32;
        let mut sid = cand as usize;
        loop {
            let def = &sets[sid];
            for op in &def.ops {
                match op.kind {
                    OpKind::Intersect => intersects |= 1 << op.pos,
                    OpKind::Difference => differences |= 1 << op.pos,
                }
            }
            match def.base {
                Base::Neighbors(p) => {
                    intersects |= 1 << p;
                    break;
                }
                Base::Set(d) => sid = d as usize,
            }
        }
        let u = order.vertex_at(l);
        let mut expected_int = 0u32;
        let mut expected_diff = 0u32;
        for j in 0..l {
            if pattern.has_edge(u, order.vertex_at(j)) {
                expected_int |= 1 << j;
            } else if plan.induced() {
                expected_diff |= 1 << j;
            }
        }
        if intersects == 0 {
            diags.push(Diagnostic::new(
                DiagKind::DisconnectedLevel { level: l },
                format!(
                    "plan-verify: level {l} candidate chain has no intersection \
                     with the matched prefix (disconnected level)"
                ),
                repro,
            ));
        }
        for pos in 0..l {
            let bit = 1u32 << pos;
            if expected_int & bit != 0 && intersects & bit == 0 {
                diags.push(Diagnostic::new(
                    DiagKind::MissingAdjacency { level: l, pos },
                    format!(
                        "plan-verify: level {l} never intersects position {pos} \
                         although the pattern has that edge (over-count)"
                    ),
                    repro,
                ));
            }
            if expected_int & bit == 0 && intersects & bit != 0 {
                diags.push(Diagnostic::new(
                    DiagKind::SpuriousAdjacency { level: l, pos },
                    format!(
                        "plan-verify: level {l} intersects position {pos} without \
                         a pattern edge (under-count)"
                    ),
                    repro,
                ));
            }
            if expected_diff & bit != 0 && differences & bit == 0 {
                diags.push(Diagnostic::new(
                    DiagKind::MissingDifference { level: l, pos },
                    format!(
                        "plan-verify: induced level {l} never subtracts \
                         non-neighbor position {pos} (over-count)"
                    ),
                    repro,
                ));
            }
            if expected_diff & bit == 0 && differences & bit != 0 {
                diags.push(Diagnostic::new(
                    DiagKind::SpuriousDifference { level: l, pos },
                    format!(
                        "plan-verify: level {l} subtracts position {pos} it must \
                         not (under-count)"
                    ),
                    repro,
                ));
            }
        }
    }
    diags
}

/// Checks the plan's symmetry bounds against the automorphism group, or,
/// for a plan that records an anchor, against that anchor's setwise
/// stabilizer. Skipped (empty result) when the plan was compiled without
/// symmetry breaking — all-embedding counting carries no bounds by design.
pub fn check_symmetry(plan: &MatchPlan, repro: &str) -> Vec<Diagnostic> {
    if !plan.options().symmetry_breaking {
        return Vec::new();
    }
    let (expected, group) = match plan.anchor() {
        Some(_) => (
            symmetry::anchored_bounds(plan.pattern(), plan.order()),
            "anchor's stabilizer",
        ),
        None => (
            symmetry::bounds_for_order(plan.pattern(), plan.order()),
            "automorphism group",
        ),
    };
    let mut diags = Vec::new();
    for (l, level_bounds) in expected.iter().enumerate().take(plan.num_levels()) {
        let mut want = level_bounds.clone();
        let mut have = plan.bounds(l).to_vec();
        want.sort_unstable_by_key(|&(p, d)| (p, d == symmetry::Bound::Greater));
        have.sort_unstable_by_key(|&(p, d)| (p, d == symmetry::Bound::Greater));
        // Multiset difference in both directions.
        for &(pos, dir) in &want {
            if !remove_one(&mut have, (pos, dir)) {
                diags.push(Diagnostic::new(
                    DiagKind::MissingSymmetryBound { level: l, pos, dir },
                    format!(
                        "plan-verify: level {l} drops the symmetry bound against \
                         position {pos} ({dir:?}) required by the {group} \
                         (duplicate counting)"
                    ),
                    repro,
                ));
            }
        }
        for &(pos, dir) in &have {
            diags.push(Diagnostic::new(
                DiagKind::ExtraSymmetryBound { level: l, pos, dir },
                format!(
                    "plan-verify: level {l} carries an unjustified symmetry bound \
                     against position {pos} ({dir:?}) (lost subgraphs)"
                ),
                repro,
            ));
        }
    }
    diags
}

fn remove_one(v: &mut Vec<(usize, symmetry::Bound)>, item: (usize, symmetry::Bound)) -> bool {
    match v.iter().position(|&x| x == item) {
        Some(i) => {
            v.remove(i);
            true
        }
        None => false,
    }
}

/// Proves a shard split tiles the level-0 domain exactly once. `order` and
/// `cuts` are the fields of the engine's `ShardPlan`; `num_vertices` is the
/// data-graph universe size.
pub fn check_shard_cover(
    order: &[VertexId],
    cuts: &[usize],
    num_vertices: usize,
    repro: &str,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let malformed = |cut: usize| {
        Diagnostic::new(
            DiagKind::ShardCutMalformed { cut },
            format!("plan-verify: shard cut {cut} is malformed (must run 0..=n monotonically)"),
            repro,
        )
    };
    if cuts.len() < 2 || cuts[0] != 0 {
        diags.push(malformed(0));
    }
    for c in 1..cuts.len() {
        if cuts[c] < cuts[c - 1] || cuts[c] > order.len() {
            diags.push(malformed(c));
        }
    }
    if let Some(&last) = cuts.last() {
        if last != order.len() {
            diags.push(malformed(cuts.len() - 1));
        }
    }
    // shard_of[v] = first shard that covers v (usize::MAX = uncovered).
    let shard_of_idx = |i: usize| -> usize {
        match cuts.iter().position(|&c| c > i) {
            Some(s) => s.saturating_sub(1),
            None => cuts.len().saturating_sub(2),
        }
    };
    let mut first_shard = vec![usize::MAX; num_vertices];
    for (i, &v) in order.iter().enumerate() {
        let vu = v as usize;
        if vu >= num_vertices {
            diags.push(Diagnostic::new(
                DiagKind::ShardGap { vertex: v },
                format!("plan-verify: shard order names vertex {v} outside the universe"),
                repro,
            ));
            continue;
        }
        let s = shard_of_idx(i);
        if first_shard[vu] == usize::MAX {
            first_shard[vu] = s;
        } else {
            diags.push(Diagnostic::new(
                DiagKind::ShardOverlap {
                    vertex: v,
                    first: first_shard[vu],
                    second: s,
                },
                format!(
                    "plan-verify: vertex {v} covered twice (shards {} and {s}) — \
                     its level-0 subtree would be double counted",
                    first_shard[vu]
                ),
                repro,
            ));
        }
    }
    for (vu, &s) in first_shard.iter().enumerate() {
        if s == usize::MAX {
            diags.push(Diagnostic::new(
                DiagKind::ShardGap {
                    vertex: vu as VertexId,
                },
                format!("plan-verify: vertex {vu} covered by no shard — its subtree is lost"),
                repro,
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmatch_pattern::plan::{mutation, MatchPlan, PlanOptions};
    use stmatch_pattern::{catalog, order::MatchOrder};

    #[test]
    fn paper_queries_are_sound_in_every_mode() {
        for q in catalog::all_paper_queries() {
            for induced in [false, true] {
                for symmetry_breaking in [false, true] {
                    let plan = MatchPlan::compile(
                        &q,
                        PlanOptions {
                            induced,
                            symmetry_breaking,
                            ..PlanOptions::default()
                        },
                    );
                    let a = check_adjacency(&plan, "test");
                    let s = check_symmetry(&plan, "test");
                    assert!(a.is_empty(), "{}: {:?}", q.name(), a);
                    assert!(s.is_empty(), "{}: {:?}", q.name(), s);
                }
            }
        }
    }

    #[test]
    fn dropped_symmetry_bound_is_named() {
        let mut plan = MatchPlan::compile(&catalog::paper_query(8), PlanOptions::default());
        let (level, pos) = mutation::drop_symmetry_bound(&mut plan).expect("K5 carries bounds");
        let diags = check_symmetry(&plan, "test");
        assert_eq!(diags.len(), 1);
        assert!(
            matches!(
                diags[0].kind,
                DiagKind::MissingSymmetryBound { level: l, pos: p, .. } if l == level && p == pos
            ),
            "{:?}",
            diags[0]
        );
    }

    #[test]
    fn anchored_plans_are_sound_for_every_edge_orbit() {
        for q in catalog::all_paper_queries() {
            for orbit in symmetry::edge_orbits(&q) {
                for order in MatchOrder::anchored_candidates(&q, orbit.rep) {
                    let plan = MatchPlan::compile_anchored(&q, order, PlanOptions::default());
                    let s = check_symmetry(&plan, "test");
                    assert!(
                        s.is_empty(),
                        "{} anchored as {:?}: {:?}",
                        q.name(),
                        plan.order(),
                        s
                    );
                }
            }
        }
    }

    #[test]
    fn a_dropped_stabilizer_bound_is_named() {
        let bowtie = catalog::paper_query(6);
        let order = MatchOrder::anchored(&bowtie, (0, 1));
        let mut plan = MatchPlan::compile_anchored(&bowtie, order, PlanOptions::default());
        let (level, pos) =
            mutation::drop_symmetry_bound(&mut plan).expect("the {0,1} stabilizer has bounds");
        let diags = check_symmetry(&plan, "test");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            matches!(
                diags[0].kind,
                DiagKind::MissingSymmetryBound { level: l, pos: p, .. } if l == level && p == pos
            ),
            "{:?}",
            diags[0]
        );
        assert!(
            diags[0].message.contains("anchor's stabilizer"),
            "{:?}",
            diags[0]
        );
    }

    #[test]
    fn shard_cover_accepts_exact_tilings() {
        let order: Vec<VertexId> = vec![3, 1, 0, 2];
        let cuts = vec![0, 2, 4];
        assert!(check_shard_cover(&order, &cuts, 4, "test").is_empty());
    }

    #[test]
    fn shard_overlap_and_gap_are_named() {
        // Vertex 3 covered twice (shards 0 and 1), vertex 2 never.
        let order: Vec<VertexId> = vec![3, 1, 0, 3];
        let cuts = vec![0, 2, 4];
        let diags = check_shard_cover(&order, &cuts, 4, "test");
        assert!(diags.iter().any(|d| matches!(
            d.kind,
            DiagKind::ShardOverlap {
                vertex: 3,
                first: 0,
                second: 1
            }
        )));
        assert!(diags
            .iter()
            .any(|d| matches!(d.kind, DiagKind::ShardGap { vertex: 2 })));
    }

    #[test]
    fn malformed_cuts_are_named() {
        let order: Vec<VertexId> = vec![0, 1, 2];
        assert!(!check_shard_cover(&order, &[1, 3], 3, "t").is_empty());
        assert!(!check_shard_cover(&order, &[0, 2], 3, "t").is_empty());
        assert!(check_shard_cover(&order, &[0, 3, 2, 3], 3, "t")
            .iter()
            .any(|d| matches!(d.kind, DiagKind::ShardCutMalformed { cut: 2 })));
    }
}
