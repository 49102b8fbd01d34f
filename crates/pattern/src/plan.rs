//! Compilation of a (pattern, matching order) pair into a [`MatchPlan`] —
//! the per-level candidate-set program that every engine in the workspace
//! executes.
//!
//! For each level `l >= 1` the candidate set is defined by a *chain* of set
//! operations over the neighbor lists of already-matched vertices:
//! intersections for pattern neighbors and (in vertex-induced mode)
//! differences for pattern non-neighbors. Without code motion the whole
//! chain is evaluated at level `l` (the nested loop of Fig. 1 of the paper).
//! With code motion (§VII), shared chain prefixes are lifted into
//! *intermediate sets* computed at the earliest level where their operands
//! are available — the dependence graph of Fig. 9a — and stored in a compact
//! per-level encoding (Fig. 9b). For labeled queries, intermediate sets
//! shared by candidate sets of different labels carry a *merged* multi-label
//! filter (Fig. 10b), which keeps the number of sets (and hence the warp
//! stack's shared-memory footprint) small.

use crate::bytecode::PlanBytecode;
use crate::order::MatchOrder;
use crate::symmetry::{self, Bound};
use crate::Pattern;
use std::collections::HashMap;
use stmatch_graph::Label;

/// Set-operation kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Keep elements also present in the operand neighbor list.
    Intersect,
    /// Keep elements absent from the operand neighbor list.
    Difference,
}

/// A label filter over set elements.
///
/// Bit `i` allows label `i`; labels ≥ 64 are conservatively always allowed
/// (the exact per-candidate label check happens at the candidate set).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LabelMask(u64);

impl LabelMask {
    /// The mask allowing every label (unlabeled queries).
    pub const ALL: LabelMask = LabelMask(u64::MAX);

    /// The empty mask.
    pub const NONE: LabelMask = LabelMask(0);

    /// Mask allowing exactly `label`.
    pub fn single(label: Label) -> LabelMask {
        if label >= 64 {
            LabelMask::ALL
        } else {
            LabelMask(1u64 << label)
        }
    }

    /// Union of two masks.
    #[inline]
    pub fn union(self, other: LabelMask) -> LabelMask {
        LabelMask(self.0 | other.0)
    }

    /// True if the mask admits `label`.
    #[inline]
    pub fn allows(self, label: Label) -> bool {
        self.0 == u64::MAX || label >= 64 || self.0 & (1u64 << label) != 0
    }

    /// True if this is the all-pass mask.
    #[inline]
    pub fn is_all(self) -> bool {
        self.0 == u64::MAX
    }

    /// Number of distinct (small) labels admitted; `None` for the all-mask.
    pub fn label_count(self) -> Option<u32> {
        if self.is_all() {
            None
        } else {
            Some(self.0.count_ones())
        }
    }
}

/// The base operand a set is computed from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Base {
    /// The data-graph neighbor list of the vertex matched at this order
    /// position.
    Neighbors(u8),
    /// A previously computed set (by id).
    Set(u16),
}

/// One chained set operation: combine with the neighbor list of the vertex
/// matched at order position `pos`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChainOp {
    pub pos: u8,
    pub kind: OpKind,
}

/// Definition of one set in the plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetDef {
    /// The recursion level at which this set is computed. All operands are
    /// available once positions `0..level` are matched.
    pub level: u8,
    /// Base operand.
    pub base: Base,
    /// Chained operations applied to the base, in order. Code-motion plans
    /// have at most one op per set; naive plans carry whole chains.
    pub ops: Vec<ChainOp>,
    /// Label filter applied to elements written into this set.
    pub mask: LabelMask,
    /// For candidate sets of labeled queries: the exact required label.
    pub target_label: Option<Label>,
}

/// Plan construction options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanOptions {
    /// Vertex-induced (true) vs edge-induced (false) matching.
    pub induced: bool,
    /// Apply loop-invariant code motion (§VII).
    pub code_motion: bool,
    /// Apply symmetry-breaking bounds so each subgraph is counted once.
    pub symmetry_breaking: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            induced: false,
            code_motion: true,
            symmetry_breaking: true,
        }
    }
}

/// A compiled matching plan, shared by every engine.
#[derive(Clone, Debug)]
pub struct MatchPlan {
    pattern: Pattern,
    order: MatchOrder,
    options: PlanOptions,
    /// All sets, grouped by `level` ascending; within a level, dependencies
    /// precede dependents.
    sets: Vec<SetDef>,
    /// `level_ptr[l]..level_ptr[l+1]` indexes `sets` computed when entering
    /// level `l` (the `row_ptr` array of Fig. 9b). Indexed `0..=size`.
    level_ptr: Vec<usize>,
    /// `cand[l]` = id of the candidate set iterated at level `l` (None at
    /// level 0, where candidates are the vertex universe).
    cand: Vec<Option<u16>>,
    /// Per-level symmetry bounds (empty when symmetry breaking is off).
    bounds: Vec<Vec<(usize, Bound)>>,
    /// Required data-vertex label per level (None when unlabeled).
    level_labels: Vec<Option<Label>>,
    /// The executable form of everything above, lowered once by
    /// `compile*` (see [`MatchPlan::bytecode`]).
    pub(crate) bytecode: PlanBytecode,
}

impl MatchPlan {
    /// Compiles `pattern` with the greedy matching order.
    pub fn compile(pattern: &Pattern, options: PlanOptions) -> MatchPlan {
        let order = MatchOrder::greedy(pattern);
        Self::compile_with_order(pattern, order, options)
    }

    /// Compiles an edge-anchored plan for incremental (delta) matching:
    /// the matching order is [`MatchOrder::anchored`] on `edge`, and
    /// symmetry breaking is forced **off** — anchored runs count
    /// *embeddings* through a pinned data edge, and the delta engine
    /// divides by `symmetry::automorphism_count` afterwards (the
    /// symmetry bounds assume the free greedy order and would miscount
    /// under pinned levels).
    pub fn compile_anchored(
        pattern: &Pattern,
        edge: (usize, usize),
        mut options: PlanOptions,
    ) -> MatchPlan {
        options.symmetry_breaking = false;
        let order = MatchOrder::anchored(pattern, edge);
        Self::compile_with_order(pattern, order, options)
    }

    /// Compiles `pattern` with an explicit matching order.
    pub fn compile_with_order(
        pattern: &Pattern,
        order: MatchOrder,
        options: PlanOptions,
    ) -> MatchPlan {
        let k = pattern.size();
        debug_assert_eq!(order.len(), k);

        // Per-level constraint chains. chain[l] (for l >= 1) starts with an
        // Intersect (connectivity guarantees one exists) followed by the
        // remaining ops ascending by position.
        let mut chains: Vec<Vec<ChainOp>> = Vec::with_capacity(k);
        chains.push(Vec::new()); // level 0 iterates the universe
        for l in 1..k {
            let u = order.vertex_at(l);
            let mut ops: Vec<ChainOp> = Vec::new();
            for j in 0..l {
                let v = order.vertex_at(j);
                if pattern.has_edge(u, v) {
                    ops.push(ChainOp {
                        pos: j as u8,
                        kind: OpKind::Intersect,
                    });
                } else if options.induced {
                    ops.push(ChainOp {
                        pos: j as u8,
                        kind: OpKind::Difference,
                    });
                }
            }
            // Rotate the first Intersect to the front so the base operand is
            // always a materialisable neighbor list.
            let first_int = ops
                .iter()
                .position(|op| op.kind == OpKind::Intersect)
                .expect("matching order guarantees a backward neighbor");
            ops.swap(0, first_int);
            // Keep the rest sorted ascending by position so shared prefixes
            // line up across levels (maximizing code-motion reuse).
            ops[1..].sort_unstable_by_key(|op| op.pos);
            chains.push(ops);
        }

        let labeled = pattern.is_labeled();
        let level_labels: Vec<Option<Label>> = (0..k)
            .map(|l| labeled.then(|| pattern.label(order.vertex_at(l))))
            .collect();

        let mut sets: Vec<SetDef> = Vec::new();
        let mut cand: Vec<Option<u16>> = vec![None; k];

        if options.code_motion {
            Self::build_code_motion_sets(&chains, &level_labels, &mut sets, &mut cand);
            Self::fold_unshared_sets(&mut sets, &mut cand);
        } else {
            // Naive: one whole-chain set per level, evaluated at that level.
            for (l, chain) in chains.iter().enumerate().skip(1) {
                let id = sets.len() as u16;
                sets.push(SetDef {
                    level: l as u8,
                    base: Base::Neighbors(chain[0].pos),
                    ops: chain[1..].to_vec(),
                    mask: level_labels[l]
                        .map(LabelMask::single)
                        .unwrap_or(LabelMask::ALL),
                    target_label: level_labels[l],
                });
                cand[l] = Some(id);
            }
        }

        // Group sets by level (stable: preserves dependency order).
        let mut perm: Vec<usize> = (0..sets.len()).collect();
        perm.sort_by_key(|&i| sets[i].level);
        let mut remap = vec![0u16; sets.len()];
        for (new_id, &old_id) in perm.iter().enumerate() {
            remap[old_id] = new_id as u16;
        }
        let mut grouped: Vec<SetDef> = perm.iter().map(|&i| sets[i].clone()).collect();
        for set in &mut grouped {
            if let Base::Set(dep) = &mut set.base {
                *dep = remap[*dep as usize];
            }
        }
        for c in cand.iter_mut().flatten() {
            *c = remap[*c as usize];
        }
        let mut level_ptr = vec![0usize; k + 1];
        for set in &grouped {
            level_ptr[set.level as usize + 1] += 1;
        }
        for l in 0..k {
            level_ptr[l + 1] += level_ptr[l];
        }

        let bounds = if options.symmetry_breaking {
            symmetry::bounds_for_order(pattern, &order)
        } else {
            vec![Vec::new(); k]
        };

        let mut plan = MatchPlan {
            pattern: pattern.clone(),
            order,
            options,
            sets: grouped,
            level_ptr,
            cand,
            bounds,
            level_labels,
            bytecode: PlanBytecode::unlowered(),
        };
        plan.bytecode =
            PlanBytecode::lower(&plan).expect("a plan built by compile_with_order always lowers");
        plan
    }

    /// Builds the code-motion set DAG: a trie over chain prefixes.
    ///
    /// Unlabeled queries use trie nodes directly as candidate sets (full
    /// chains are just trie leaves, shared when identical). Labeled queries
    /// keep candidate sets separate with exact label filters, while shared
    /// intermediate prefixes carry merged multi-label masks (Fig. 10b).
    fn build_code_motion_sets(
        chains: &[Vec<ChainOp>],
        level_labels: &[Option<Label>],
        sets: &mut Vec<SetDef>,
        cand: &mut [Option<u16>],
    ) {
        let labeled = level_labels.iter().any(|l| l.is_some());
        // Trie over prefixes: key = prefix of chain ops, value = set id.
        let mut trie: HashMap<Vec<ChainOp>, u16> = HashMap::new();
        // Merged label masks for intermediate nodes, computed up front:
        // the union of target labels of every candidate whose chain passes
        // strictly through the prefix.
        let mut masks: HashMap<Vec<ChainOp>, LabelMask> = HashMap::new();
        if labeled {
            for (l, chain) in chains.iter().enumerate().skip(1) {
                let target = LabelMask::single(level_labels[l].unwrap_or(0));
                for plen in 1..chain.len() {
                    let key = chain[..plen].to_vec();
                    let entry = masks.entry(key).or_insert(LabelMask::NONE);
                    *entry = entry.union(target);
                }
            }
        }

        let intern_prefix = |prefix: &[ChainOp],
                             sets: &mut Vec<SetDef>,
                             trie: &mut HashMap<Vec<ChainOp>, u16>|
         -> u16 {
            if let Some(&id) = trie.get(prefix) {
                return id;
            }
            // Intern parents first (recursively, iteratively here).
            let mut parent: Option<u16> = None;
            for plen in 1..=prefix.len() {
                let key = &prefix[..plen];
                if let Some(&id) = trie.get(key) {
                    parent = Some(id);
                    continue;
                }
                let level = key.iter().map(|op| op.pos + 1).max().unwrap();
                let mask = if labeled {
                    masks.get(key).copied().unwrap_or(LabelMask::NONE)
                } else {
                    LabelMask::ALL
                };
                let def = if plen == 1 {
                    SetDef {
                        level,
                        base: Base::Neighbors(key[0].pos),
                        ops: Vec::new(),
                        mask,
                        target_label: None,
                    }
                } else {
                    SetDef {
                        level,
                        base: Base::Set(parent.expect("parent interned")),
                        ops: vec![*key.last().unwrap()],
                        mask,
                        target_label: None,
                    }
                };
                let id = sets.len() as u16;
                sets.push(def);
                trie.insert(key.to_vec(), id);
                parent = Some(id);
            }
            parent.unwrap()
        };

        // Dedup of labeled candidate sets by (chain, label).
        let mut cand_cache: HashMap<(Vec<ChainOp>, Label), u16> = HashMap::new();

        for (l, chain) in chains.iter().enumerate().skip(1) {
            if !labeled {
                // Candidate = trie node of the full chain.
                let id = intern_prefix(chain, sets, &mut trie);
                cand[l] = Some(id);
                continue;
            }
            let label = level_labels[l].unwrap_or(0);
            if let Some(&id) = cand_cache.get(&(chain.clone(), label)) {
                cand[l] = Some(id);
                continue;
            }
            let level = chain.iter().map(|op| op.pos + 1).max().unwrap();
            let def = if chain.len() == 1 {
                SetDef {
                    level,
                    base: Base::Neighbors(chain[0].pos),
                    ops: Vec::new(),
                    mask: LabelMask::single(label),
                    target_label: Some(label),
                }
            } else {
                let dep = intern_prefix(&chain[..chain.len() - 1], sets, &mut trie);
                SetDef {
                    level,
                    base: Base::Set(dep),
                    ops: vec![*chain.last().unwrap()],
                    mask: LabelMask::single(label),
                    target_label: Some(label),
                }
            };
            let id = sets.len() as u16;
            sets.push(def);
            cand_cache.insert((chain.clone(), label), id);
            cand[l] = Some(id);
        }
    }

    /// Shrinks the set DAG: an intermediate set used by exactly one
    /// dependent *at the same level* provides neither sharing nor
    /// loop-invariant reuse, so it is folded into its dependent (the ops
    /// chains concatenate). This keeps `NUM_SETS` — and hence the warp
    /// stack's memory budget — small for vertex-induced queries whose
    /// difference chains share few prefixes.
    fn fold_unshared_sets(sets: &mut Vec<SetDef>, cand: &mut [Option<u16>]) {
        loop {
            let n = sets.len();
            // usage[i] = (dependent count, last dependent id, candidate uses)
            let mut dep_count = vec![0usize; n];
            let mut last_dep = vec![usize::MAX; n];
            for (id, s) in sets.iter().enumerate() {
                if let Base::Set(d) = s.base {
                    dep_count[d as usize] += 1;
                    last_dep[d as usize] = id;
                }
            }
            let mut cand_used = vec![false; n];
            for c in cand.iter().flatten() {
                cand_used[*c as usize] = true;
            }
            let victim = (0..n).find(|&i| {
                dep_count[i] == 1
                    && !cand_used[i]
                    && sets[i].target_label.is_none()
                    && sets[last_dep[i]].level == sets[i].level
            });
            let Some(v) = victim else { break };
            let t = last_dep[v];
            let mut merged_ops = sets[v].ops.clone();
            merged_ops.extend_from_slice(&sets[t].ops);
            sets[t].ops = merged_ops;
            sets[t].base = sets[v].base;
            // Remove v; remap ids above it.
            sets.remove(v);
            for s in sets.iter_mut() {
                if let Base::Set(d) = &mut s.base {
                    if *d as usize > v {
                        *d -= 1;
                    }
                }
            }
            for c in cand.iter_mut().flatten() {
                if *c as usize > v {
                    *c -= 1;
                }
            }
        }
    }

    /// The compiled pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The matching order.
    pub fn order(&self) -> &MatchOrder {
        &self.order
    }

    /// The options the plan was compiled with.
    pub fn options(&self) -> PlanOptions {
        self.options
    }

    /// Number of levels (= pattern size).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.order.len()
    }

    /// Total number of sets (`NUM_SETS` in the paper's memory budget).
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// All set definitions, grouped by level.
    #[inline]
    pub fn sets(&self) -> &[SetDef] {
        &self.sets
    }

    /// Ids of the sets to compute when entering `level`.
    pub fn sets_at_level(&self, level: usize) -> std::ops::Range<usize> {
        self.level_ptr[level]..self.level_ptr[level + 1]
    }

    /// The candidate set id iterated at `level` (None at level 0).
    #[inline]
    pub fn candidate_set(&self, level: usize) -> Option<u16> {
        self.cand[level]
    }

    /// Symmetry bounds at `level`: `(earlier position, bound direction)`.
    #[inline]
    pub fn bounds(&self, level: usize) -> &[(usize, Bound)] {
        &self.bounds[level]
    }

    /// Required data-vertex label at `level` (None when unlabeled).
    #[inline]
    pub fn level_label(&self, level: usize) -> Option<Label> {
        self.level_labels[level]
    }

    /// Labels that [`LabelMask`] cannot represent (>= 64) pass the set
    /// filters conservatively, so candidates at such levels need an exact
    /// label check at match time. Returns that label when required.
    #[inline]
    pub fn residual_label_check(&self, level: usize) -> Option<Label> {
        self.level_labels[level].filter(|&l| LabelMask::single(l).is_all())
    }

    /// True if this plan matches vertex-induced subgraphs.
    #[inline]
    pub fn induced(&self) -> bool {
        self.options.induced
    }

    /// The plan's executable form: the instruction stream and per-level
    /// side tables every launch interprets, lowered exactly once when the
    /// plan was compiled. The [`mutation`] helpers below corrupt the
    /// structured plan *without* re-lowering, which is why the static
    /// verifier lowers afresh instead of trusting this stream.
    #[inline]
    pub fn bytecode(&self) -> &PlanBytecode {
        &self.bytecode
    }
}

/// Seeded-mutation hooks for the verifier kill-test suite (tests and the
/// `check verify` gate legs only, mirroring `bytecode::mutation`): each
/// helper produces a *structurally well-formed but wrong* plan — it still
/// lowers and passes `PlanBytecode::verify`, so only the static analyses of
/// `stmatch-plan-verify` (or the golden counts) can catch it. Never called
/// from production paths.
pub mod mutation {
    use super::{Base, LabelMask, MatchPlan, SetDef};

    /// Appends a set nothing ever reads: computed at the deepest level from
    /// the level-0 neighbor list, never a candidate, never a dependency.
    /// Models a code-motion pass that lifts a prefix and then forgets to
    /// retire it. Returns the dead set's id.
    pub fn insert_dead_set(plan: &mut MatchPlan) -> u16 {
        let k = plan.order.len();
        let level = k.saturating_sub(1) as u8;
        let id = plan.sets.len() as u16;
        // Appending at the tail of the deepest level keeps the grouped-by-
        // level invariant; only the terminal level_ptr entry moves.
        plan.sets.push(SetDef {
            level,
            base: Base::Neighbors(0),
            ops: Vec::new(),
            mask: LabelMask::ALL,
            target_label: None,
        });
        plan.level_ptr[k] += 1;
        id
    }

    /// Removes the last symmetry bound of the deepest bounded level,
    /// modelling a plan whose symmetry-breaking predicate was dropped
    /// between compilation and launch. Returns `(level, position)` of the
    /// dropped bound, or `None` when the plan carries no bounds.
    pub fn drop_symmetry_bound(plan: &mut MatchPlan) -> Option<(usize, usize)> {
        for l in (0..plan.bounds.len()).rev() {
            if let Some((pos, _)) = plan.bounds[l].pop() {
                return Some((l, pos));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    /// The paper's running example (Fig. 2): u0 adjacent to u1, u2, u3;
    /// u3 adjacent to everyone; u1–u2 not adjacent.
    fn paper_example() -> Pattern {
        Pattern::new(4, &[(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]).with_name("fig2")
    }

    fn opts(induced: bool, code_motion: bool) -> PlanOptions {
        PlanOptions {
            induced,
            code_motion,
            symmetry_breaking: false,
        }
    }

    #[test]
    fn fig9_example_has_four_sets() {
        // Vertex-induced, code motion, order [0,1,2,3] (u0 is max degree
        // together with u3; greedy picks one of them). Force the paper's
        // order explicitly.
        let p = paper_example();
        let order = MatchOrder::from_order(&p, vec![0, 1, 2, 3]);
        let plan = MatchPlan::compile_with_order(&p, order, opts(true, true));
        // C1 = N(v0); C2 = C1 - N(v1); C21 = C1 ∩ N(v1); C3 = C21 ∩ N(v2).
        assert_eq!(plan.num_sets(), 4, "{:?}", plan.sets());
        // Levels: C1 at 1; C2 and C21 at 2; C3 at 3.
        assert_eq!(plan.sets_at_level(1).len(), 1);
        assert_eq!(plan.sets_at_level(2).len(), 2);
        assert_eq!(plan.sets_at_level(3).len(), 1);
        // Candidate of level 3 depends on the intermediate set.
        let c3 = plan.candidate_set(3).unwrap() as usize;
        assert!(matches!(plan.sets()[c3].base, Base::Set(_)));
    }

    #[test]
    fn naive_plan_evaluates_whole_chains() {
        let p = paper_example();
        let order = MatchOrder::from_order(&p, vec![0, 1, 2, 3]);
        let plan = MatchPlan::compile_with_order(&p, order, opts(true, false));
        assert_eq!(plan.num_sets(), 3); // one per level >= 1
        let c3 = plan.candidate_set(3).unwrap() as usize;
        // Level-3 chain: ∩N(v0) ∩N(v1) ∩N(v2) — two chained ops on the base.
        assert_eq!(plan.sets()[c3].ops.len(), 2);
        assert_eq!(plan.sets()[c3].level, 3);
    }

    #[test]
    fn edge_induced_drops_difference_ops() {
        let p = paper_example();
        let order = MatchOrder::from_order(&p, vec![0, 1, 2, 3]);
        let plan = MatchPlan::compile_with_order(&p, order, opts(false, true));
        for s in plan.sets() {
            for op in &s.ops {
                assert_eq!(op.kind, OpKind::Intersect);
            }
        }
    }

    #[test]
    fn lifted_candidate_reuse_across_levels() {
        // Star S3 (center 0, leaves 1..3), edge-induced: every leaf level
        // has the identical chain [(0, ∩)], so with code motion all three
        // candidate sets collapse into one set computed at level 1.
        let p = catalog::star3();
        let order = MatchOrder::from_order(&p, vec![0, 1, 2, 3]);
        let plan = MatchPlan::compile_with_order(&p, order, opts(false, true));
        assert_eq!(plan.num_sets(), 1);
        let c = plan.candidate_set(1);
        assert_eq!(plan.candidate_set(2), c);
        assert_eq!(plan.candidate_set(3), c);
        assert_eq!(plan.sets()[c.unwrap() as usize].level, 1);
    }

    #[test]
    fn paper_claim_num_sets_at_most_15_for_size7() {
        // §VIII: "For queries of no more than seven nodes, NUM_SETS <= 15".
        for q in catalog::all_paper_queries() {
            for induced in [false, true] {
                let labeled = q.clone().with_random_labels(10, 7);
                for p in [q.clone(), labeled] {
                    let plan = MatchPlan::compile(&p, opts(induced, true));
                    assert!(
                        plan.num_sets() <= 15,
                        "{} induced={induced} labeled={} has {} sets",
                        q.name(),
                        p.is_labeled(),
                        plan.num_sets()
                    );
                }
            }
        }
    }

    #[test]
    fn labeled_intermediates_merge_masks() {
        // Pattern where two candidate sets with different labels share a
        // prefix: K4 labeled with distinct labels on the last two vertices.
        let p = catalog::clique(4).with_labels(&[0, 0, 1, 2]);
        let plan = MatchPlan::compile(&p, opts(false, true));
        // Some intermediate must admit both label 1 and label 2... find the
        // shared prefix set (an intermediate with no target label).
        let merged = plan
            .sets()
            .iter()
            .filter(|s| s.target_label.is_none() && !s.mask.is_all())
            .any(|s| s.mask.label_count().unwrap_or(0) >= 2);
        assert!(
            merged,
            "expected a merged multi-label intermediate: {:?}",
            plan.sets()
        );
    }

    #[test]
    fn label_mask_semantics() {
        let m = LabelMask::single(3).union(LabelMask::single(7));
        assert!(m.allows(3));
        assert!(m.allows(7));
        assert!(!m.allows(4));
        assert!(m.allows(100)); // conservative for large labels
        assert!(LabelMask::ALL.allows(0));
        assert_eq!(m.label_count(), Some(2));
        assert_eq!(LabelMask::single(64), LabelMask::ALL);
    }

    #[test]
    fn dependencies_precede_dependents() {
        for q in catalog::all_paper_queries() {
            for induced in [false, true] {
                let plan = MatchPlan::compile(&q, opts(induced, true));
                for (id, s) in plan.sets().iter().enumerate() {
                    if let Base::Set(dep) = s.base {
                        assert!((dep as usize) < id, "{}: set {id} dep {dep}", q.name());
                        assert!(
                            plan.sets()[dep as usize].level <= s.level,
                            "{}: dep level ordering",
                            q.name()
                        );
                    }
                    for op in &s.ops {
                        assert!((op.pos as usize) < s.level as usize + 1);
                    }
                }
            }
        }
    }

    #[test]
    fn lowered_encoding_is_small() {
        // The paper: the `row_ptr` / `set_ops` arrays of Fig. 9b take "only
        // tens of bytes". The lowered stream is that encoding plus its side
        // tables; for the 7-clique it stays a sliver of a block's shared
        // memory.
        let plan = MatchPlan::compile(&catalog::paper_query(24), opts(false, true));
        let bytes = plan.bytecode().byte_size();
        assert!(bytes < 512, "{bytes} bytes");
        assert_eq!(plan.bytecode().num_sets(), plan.num_sets());
    }

    #[test]
    fn mutations_stay_structurally_well_formed() {
        use crate::PlanBytecode;
        // Dead set: one extra set at the deepest level, stream still lowers
        // and verifies (the corruption is semantic, not structural).
        let mut plan = MatchPlan::compile(&catalog::paper_query(6), PlanOptions::default());
        let before = plan.num_sets();
        let id = mutation::insert_dead_set(&mut plan);
        assert_eq!(plan.num_sets(), before + 1);
        assert_eq!(id as usize, before);
        assert_eq!(
            plan.sets()[id as usize].level as usize,
            plan.num_levels() - 1
        );
        PlanBytecode::lower(&plan).expect("dead-set plan lowers cleanly");

        // Dropped bound: exactly one bound disappears, everything else holds.
        let mut plan = MatchPlan::compile(&catalog::clique(4), PlanOptions::default());
        let total = |p: &MatchPlan| {
            (0..p.num_levels())
                .map(|l| p.bounds(l).len())
                .sum::<usize>()
        };
        let n = total(&plan);
        assert!(n > 0);
        let (level, pos) = mutation::drop_symmetry_bound(&mut plan).unwrap();
        assert!(pos < level);
        assert_eq!(total(&plan), n - 1);
        PlanBytecode::lower(&plan).expect("dropped-bound plan lowers cleanly");

        // No bounds to drop when symmetry breaking is off.
        let mut plain = MatchPlan::compile(&catalog::clique(4), opts(false, true));
        assert!(mutation::drop_symmetry_bound(&mut plain).is_none());
    }

    #[test]
    fn candidate_sets_exist_for_every_level_past_zero() {
        for q in catalog::all_paper_queries() {
            for code_motion in [false, true] {
                for induced in [false, true] {
                    let plan = MatchPlan::compile(&q, opts(induced, code_motion));
                    assert!(plan.candidate_set(0).is_none());
                    for l in 1..plan.num_levels() {
                        let c = plan.candidate_set(l).expect("candidate set");
                        assert!(
                            plan.sets()[c as usize].level as usize <= l,
                            "{}: candidate of level {l} computed later",
                            q.name()
                        );
                    }
                }
            }
        }
    }
}
