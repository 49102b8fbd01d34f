//! What the comparators share: the subgraph-centric engines' extension step
//! (`cuts_like`, `gsi_like`), charged through the cost table, and the
//! validity test every comparator applies.

use stmatch_core::setops::{self, SetOpTuning};
use stmatch_gpusim::{Close, Cost, Site, Warp};
use stmatch_graph::{Graph, VertexId};
use stmatch_pattern::plan::Base;
use stmatch_pattern::symmetry::Bound;
use stmatch_pattern::{LabelMask, MatchPlan};

/// Extends one partial embedding, `prefix` (its matched vertices, outermost
/// first), by pattern level `prefix.len()` and returns how many candidates
/// are valid.
///
/// Two charges besides the set operations, both transfers: fetching the
/// prefix (a trie walk or a table row, one lane per vertex) and storing each
/// valid extension as `node_words` words of global memory — the cost the
/// stack-based design avoids. The level's whole candidate chain is
/// evaluated each time (no loop hierarchy, so no code motion). Validity is
/// a lane predicate of the chain's final operation: on the `last` level that
/// operation is a counting stream and nothing is stored (the engine's
/// last-level rule, DESIGN.md §4c); elsewhere the materialized list has no
/// reader but the validity test, so the ballot that compacts it keeps
/// exactly the valid candidates (the engine's claim-only rule), and `emit`
/// receives each of them, ascending.
#[allow(clippy::too_many_arguments)]
pub(crate) fn step(
    graph: &Graph,
    plan: &MatchPlan,
    warp: &mut Warp,
    prefix: &[VertexId],
    last: bool,
    node_words: usize,
    scratch: &mut [Vec<VertexId>; 2],
    mut emit: impl FnMut(VertexId),
) -> u64 {
    let level = prefix.len();
    warp.charge(Site::Transfer, Cost::Lanes(level));
    let cid = plan.candidate_set(level).expect("level >= 1") as usize;
    let def = &plan.sets()[cid];
    let Base::Neighbors(pos) = def.base else {
        panic!("a subgraph-centric comparator requires a code-motion-free plan");
    };
    let src = graph.neighbors(prefix[pos as usize]);
    let base_mask = if def.ops.is_empty() {
        def.mask
    } else {
        LabelMask::ALL
    };
    let close = |final_op: bool| {
        if last && final_op {
            Close::Counted
        } else {
            Close::Compacted
        }
    };
    let base_close = close(def.ops.is_empty());
    setops::materialize_base_into(
        warp,
        graph,
        &[src],
        base_mask,
        base_close,
        &mut scratch[..1],
    );
    for (i, op) in def.ops.iter().enumerate() {
        let final_op = i + 1 == def.ops.len();
        let mask = if final_op { def.mask } else { LabelMask::ALL };
        let operand = graph.neighbors(prefix[op.pos as usize]);
        let [input, out] = &mut *scratch;
        setops::apply_op_into(
            warp,
            graph,
            &[&input[..]],
            &[None],
            &[operand],
            &[None],
            op.kind,
            mask,
            SetOpTuning::default(),
            close(final_op),
            std::slice::from_mut(out),
        );
        scratch.swap(0, 1);
    }
    let residual = plan.residual_label_check(level);
    let bounds = plan.bounds(level);
    let admits =
        |v: VertexId| residual.is_none_or(|lbl| graph.label(v) == lbl) && valid(prefix, bounds, v);
    if last {
        return scratch[0].iter().filter(|&&v| admits(v)).count() as u64;
    }
    let mut kept = 0;
    for &v in &scratch[0] {
        if admits(v) {
            emit(v);
            kept += 1;
        }
    }
    warp.charge(Site::Transfer, Cost::Lanes(node_words * kept));
    kept as u64
}

/// Injectivity against the matched `prefix`, and the symmetry bounds.
#[inline]
pub(crate) fn valid(prefix: &[VertexId], bounds: &[(usize, Bound)], v: VertexId) -> bool {
    !prefix.contains(&v)
        && bounds.iter().all(|&(pos, b)| match b {
            Bound::Less => v < prefix[pos],
            Bound::Greater => v > prefix[pos],
        })
}
