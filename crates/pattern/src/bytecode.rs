//! Bytecode lowering of a [`MatchPlan`] (DESIGN.md §4h).
//!
//! A [`MatchPlan`] describes each level's candidate sets as structured
//! [`SetDef`](crate::plan::SetDef)s: a base operand plus a chain of set
//! operations. [`PlanBytecode::lower`] interprets that structure exactly
//! once — base variant, op chain, ping/pong staging, the final masked write —
//! into a flat stream of fixed-width [`Instr`]s whose order *is* the
//! execution order: the `row_ptr` / `set_ops` encoding of the paper's
//! Fig. 9b. The stream is the plan's only executable form:
//! `MatchPlan::compile*` lowers once and the plan owns the result
//! ([`MatchPlan::bytecode`]), so every launch of every route interprets the
//! same stream and none lowers. The kernel's interpreter walks
//! `instrs_at(level)` and issues one set-operation call per instruction.
//!
//! Everything a launch decides per set is in the stream, including what
//! hub-bitmap routing needs: an [`OpCode::ApplyFromSet`] records whether its
//! dependency slab is verbatim some matched vertex's neighbor list
//! ([`Instr::dep_pos`]), and a chain's steps are contiguous, so "is every
//! operand of this chain a hub" is a scan of the instructions that follow
//! its [`OpCode::BeginChain`].
//!
//! Streams are validated at lower time by the walk behind
//! [`PlanBytecode::verify`] (which also derives each level's injectivity
//! mask, [`LevelMeta::inj`], the positions whose neighbor lists are
//! re-read as lifted intersection inputs, [`PlanBytecode::marked`], and the
//! levels whose candidate set nothing else reads,
//! [`PlanBytecode::claim_only`]) — a
//! malformed stream (out-of-range set ids,
//! forward dependencies, chains past [`MAX_PATTERN_SIZE`]) is rejected with
//! a named [`BytecodeError`] instead of debug-asserting inside the
//! interpreter.

use crate::pattern::MAX_PATTERN_SIZE;
use crate::plan::{Base, LabelMask, MatchPlan, OpKind};
use crate::symmetry::Bound;
use stmatch_graph::Label;

/// Sentinel for "no set reference" in [`Instr::dep`] and [`LevelMeta::cand`].
pub const NO_SET: u16 = u16::MAX;

/// Sentinel for "not a verbatim neighbor list" in [`Instr::dep_pos`].
pub const NO_POS: u8 = u8::MAX;

/// Most raw iterations one claim takes: the combined set operations map one
/// unroll slot's size per prefix-scan lane (Fig. 8), so a batch never spans
/// more slots than the warp has lanes.
pub const MAX_UNROLL: usize = 32;

/// Most sets a stream may write, so per-set tables ([`SlotTable`]) are fixed
/// arrays. The code-motion trie of a [`MAX_PATTERN_SIZE`]-vertex pattern has
/// at most `8 · 7 / 2 = 28` nodes (one per chain prefix); the rest is slack
/// for the sanctioned mutations that add a set.
pub const MAX_SETS: usize = 32;

/// Instruction opcodes. Each maps to exactly one set-operation call shape in
/// the kernel's interpreter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpCode {
    /// Materialize the (mask-filtered) neighbor list of the vertex at order
    /// position `pos` straight into the arena slab of set `dst`. Encodes a
    /// chain-free `Base::Neighbors` set; always `last`.
    MaterializeBase,
    /// Materialize the *unfiltered* neighbor list of the vertex at `pos`
    /// into the ping staging buffer, opening a chain that subsequent
    /// [`OpCode::ChainStep`]s consume. Encodes a `Base::Neighbors` set with
    /// a non-empty op chain; never `last`.
    BeginChain,
    /// Combine previously computed set `dep` (an arena slab, resolved
    /// through `dep_level`'s unroll cursor) with the neighbor list at `pos`
    /// under `kind`. When `last`, the masked result lands in `dst`'s arena
    /// slab; otherwise the unfiltered result opens a chain in ping.
    ApplyFromSet,
    /// Combine the open chain value (ping) with the neighbor list at `pos`
    /// under `kind`. When `last`, the masked result lands in `dst`'s arena
    /// slab and closes the chain; otherwise it goes to pong and the staging
    /// buffers swap.
    ChainStep,
}

/// One fixed-width bytecode instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Instr {
    /// What to execute.
    pub code: OpCode,
    /// Combining operator (meaningful for `ApplyFromSet` / `ChainStep`;
    /// `Intersect` otherwise).
    pub kind: OpKind,
    /// Order position of the neighbor-list operand.
    pub pos: u8,
    /// Destination set id. Every instruction of a set's program carries the
    /// same `dst`; only the `last` one writes to its arena slab.
    pub dst: u16,
    /// Input set id for `ApplyFromSet`; [`NO_SET`] otherwise.
    pub dep: u16,
    /// Level at which `dep` was computed (selects its unroll slot).
    pub dep_level: u8,
    /// For `ApplyFromSet`: the order position `p` when `dep` was written by
    /// an unmasked `MaterializeBase` of position `p` — its slab then equals
    /// `N(vertex at p)` verbatim, so that vertex's hub row (if it has one)
    /// denotes the input exactly. [`NO_POS`] otherwise.
    pub dep_pos: u8,
    /// True on the final instruction of a set's program: the write that
    /// applies `mask` and lands in the arena.
    pub last: bool,
    /// Label filter for the produced elements ([`LabelMask::ALL`] on
    /// non-final steps).
    pub mask: LabelMask,
}

impl Instr {
    /// The order position `p` when this instruction, run at `level`,
    /// intersects a *lifted verbatim* input: `N(matched[p])` materialized at
    /// an earlier level ([`Instr::dep_pos`] set, `dep_level < level`), hence
    /// one list for every slot of every batch until `matched[p]` moves — the
    /// loop invariant the kernel keeps a marker row for. `None` for every
    /// other instruction.
    #[inline]
    pub fn lifted_list_pos(&self, level: usize) -> Option<usize> {
        (self.code == OpCode::ApplyFromSet
            && self.kind == OpKind::Intersect
            && self.dep_pos != NO_POS
            && (self.dep_level as usize) < level)
            .then_some(self.dep_pos as usize)
    }

    /// An instruction whose only operand is `N(vertex at pos)`: no set
    /// dependency. `write` is the mask of a final (arena) write, `None` for
    /// a step that stages an unfiltered intermediate.
    fn on_neighbors(
        code: OpCode,
        kind: OpKind,
        pos: u8,
        dst: u16,
        write: Option<LabelMask>,
    ) -> Instr {
        Instr {
            code,
            kind,
            pos,
            dst,
            dep: NO_SET,
            dep_level: 0,
            dep_pos: NO_POS,
            last: write.is_some(),
            mask: write.unwrap_or(LabelMask::ALL),
        }
    }
}

/// Per-level side table: everything the claim loop needs besides the
/// instruction stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelMeta {
    /// Candidate set iterated at this level ([`NO_SET`] at level 0).
    pub cand: u16,
    /// Level at which the candidate set is computed (lifted sets are
    /// computed at an earlier level and re-read).
    pub cand_level: u8,
    /// Required data-vertex label (None when unlabeled).
    pub label: Option<Label>,
    /// Label needing an exact match-time check because the mask cannot
    /// represent it (see `MatchPlan::residual_label_check`).
    pub resid: Option<Label>,
    /// Injectivity mask: bit `j` is set for each position `j < level` whose
    /// matched vertex a candidate of this level can still equal — the only
    /// positions the validity check must probe. Position `j` is exempt when
    /// the candidate set is (transitively, through its dependencies) an
    /// intersection with `N(matched[j])` — graphs carry no self-loops, so
    /// `matched[j]` is not in it — or when the level holds a symmetry bound
    /// on `j`, whose strict inequality already excludes `matched[j]`.
    /// Derived from the stream and the bounds themselves, never from the
    /// pattern, and re-derived by [`PlanBytecode::verify`].
    pub inj: u8,
}

/// Named lower-time validation failures (satellite: mirrors
/// `EngineConfig::validate()`'s style — reject early, by name, instead of
/// debug-asserting per claim).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BytecodeError {
    /// `level_ptr` must be monotonically non-decreasing and span the stream.
    LevelPtrNotMonotonic { level: usize },
    /// The stream writes more than [`MAX_SETS`] sets.
    TooManySets { sets: u16 },
    /// An instruction's destination set id is outside `0..num_sets`.
    SetOutOfRange { instr: usize, set: u16 },
    /// An `ApplyFromSet` dependency is out of range or not yet computed
    /// (forward reference) at the point it is read.
    DepOutOfRange { instr: usize, dep: u16 },
    /// The recorded `dep_level` disagrees with where `dep` was written.
    DepLevelMismatch { instr: usize, dep: u16 },
    /// The recorded `dep_pos` disagrees with how `dep` was written: it must
    /// name the position iff an unmasked `MaterializeBase` produced `dep`.
    DepPosMismatch { instr: usize, dep: u16 },
    /// A neighbor-operand position is not strictly below its level.
    PosOutOfRange { instr: usize, pos: u8 },
    /// A set's program chains more ops than [`MAX_PATTERN_SIZE`].
    ChainTooLong { set: u16 },
    /// A `ChainStep` with no open chain to consume.
    DanglingChainStep { instr: usize },
    /// A level ends (or a new set's program begins) with a chain still open.
    UnterminatedChain { level: usize },
    /// Two `last` instructions target the same set.
    DuplicateWrite { set: u16 },
    /// A set is never written by any `last` instruction.
    MissingWrite { set: u16 },
    /// A non-final instruction carries a restrictive mask (masks are only
    /// applied on the final arena write).
    MaskedIntermediate { instr: usize },
    /// A level's candidate reference is out of range or computed too late.
    CandidateOutOfRange { level: usize },
    /// A level's recorded injectivity mask is not the one its stream and
    /// bounds derive.
    InjMismatch { level: usize },
    /// The recorded marked-position mask is not the one the stream derives.
    MarkedMismatch,
    /// The recorded claim-only level mask is not the one the stream derives.
    ClaimOnlyMismatch,
}

impl std::fmt::Display for BytecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BytecodeError::LevelPtrNotMonotonic { level } => {
                write!(f, "bytecode: level_ptr not monotonic at level {level}")
            }
            BytecodeError::TooManySets { sets } => {
                write!(f, "bytecode: {sets} sets exceed MAX_SETS ({MAX_SETS})")
            }
            BytecodeError::SetOutOfRange { instr, set } => {
                write!(f, "bytecode: instr {instr} targets out-of-range set {set}")
            }
            BytecodeError::DepOutOfRange { instr, dep } => {
                write!(
                    f,
                    "bytecode: instr {instr} reads unwritten/out-of-range set {dep}"
                )
            }
            BytecodeError::DepLevelMismatch { instr, dep } => {
                write!(
                    f,
                    "bytecode: instr {instr} records wrong dep_level for set {dep}"
                )
            }
            BytecodeError::DepPosMismatch { instr, dep } => {
                write!(
                    f,
                    "bytecode: instr {instr} records wrong dep_pos for set {dep}"
                )
            }
            BytecodeError::PosOutOfRange { instr, pos } => {
                write!(
                    f,
                    "bytecode: instr {instr} operand position {pos} not below its level"
                )
            }
            BytecodeError::ChainTooLong { set } => {
                write!(
                    f,
                    "bytecode: set {set} chains past MAX_PATTERN_SIZE ({MAX_PATTERN_SIZE})"
                )
            }
            BytecodeError::DanglingChainStep { instr } => {
                write!(
                    f,
                    "bytecode: instr {instr} is a ChainStep with no open chain"
                )
            }
            BytecodeError::UnterminatedChain { level } => {
                write!(f, "bytecode: level {level} leaves a chain unterminated")
            }
            BytecodeError::DuplicateWrite { set } => {
                write!(f, "bytecode: set {set} written twice")
            }
            BytecodeError::MissingWrite { set } => {
                write!(f, "bytecode: set {set} never written")
            }
            BytecodeError::MaskedIntermediate { instr } => {
                write!(
                    f,
                    "bytecode: non-final instr {instr} carries a restrictive mask"
                )
            }
            BytecodeError::CandidateOutOfRange { level } => {
                write!(f, "bytecode: level {level} candidate reference invalid")
            }
            BytecodeError::InjMismatch { level } => {
                write!(
                    f,
                    "bytecode: level {level} records an injectivity mask its stream does not derive"
                )
            }
            BytecodeError::MarkedMismatch => {
                write!(
                    f,
                    "bytecode: records a marked-position mask its stream does not derive"
                )
            }
            BytecodeError::ClaimOnlyMismatch => {
                write!(
                    f,
                    "bytecode: records a claim-only level mask its stream does not derive"
                )
            }
        }
    }
}

impl std::error::Error for BytecodeError {}

/// A lowered plan: flat instruction stream plus per-level side tables.
///
/// Construction via [`PlanBytecode::lower`] always verifies; the fields stay
/// private so a verified stream cannot be silently edited (the test-only
/// [`mutation`] module is the sanctioned back door).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanBytecode {
    /// The flat stream, grouped by level ascending; within a level,
    /// execution order (dependencies precede dependents, chain programs are
    /// contiguous).
    instrs: Vec<Instr>,
    /// `instrs[level_ptr[l]..level_ptr[l+1]]` runs when entering level `l`.
    level_ptr: Vec<u32>,
    /// Per-level candidate/label metadata, indexed by level.
    levels: Vec<LevelMeta>,
    /// Flattened symmetry bounds; `bounds[bound_ptr[l]..bound_ptr[l+1]]`
    /// guards level `l`. Same element type as `MatchPlan::bounds`.
    bounds: Vec<(usize, Bound)>,
    bound_ptr: Vec<u32>,
    /// Number of sets the arena must hold (`NUM_SETS`).
    num_sets: u16,
    /// Bit `p` is set when some instruction's [`Instr::lifted_list_pos`] is
    /// `p`. Derived from the stream, never from the pattern, and re-derived
    /// by [`PlanBytecode::verify`].
    marked: u8,
    /// Bit `l` is set when level `l`'s candidate set is computed at `l` and
    /// read by nothing but level `l` itself. Derived and re-derived like
    /// `marked`.
    claim_only: u8,
}

/// What [`PlanBytecode::walk`] derives from a structurally valid stream.
struct Derived {
    inj: [u8; MAX_PATTERN_SIZE],
    marked: u8,
    claim_only: u8,
}

impl PlanBytecode {
    /// Lowers `plan` into a verified instruction stream.
    ///
    /// Encoding rules:
    ///
    /// | set definition            | emitted program                                  |
    /// |---------------------------|--------------------------------------------------|
    /// | `Neighbors(p)`, no ops    | `MaterializeBase(p, mask)`                       |
    /// | `Neighbors(p)` + n ops    | `BeginChain(p)` then n `ChainStep`s              |
    /// | `Set(d)` + 1 op           | `ApplyFromSet(d, op, mask, last)`                |
    /// | `Set(d)` + n ops          | `ApplyFromSet(d, op0)` then n−1 `ChainStep`s     |
    ///
    /// Only the final instruction of each program carries the set's label
    /// mask and the `last` flag (the arena write); intermediates stage
    /// unfiltered values through ping/pong.
    pub fn lower(plan: &MatchPlan) -> Result<PlanBytecode, BytecodeError> {
        let k = plan.num_levels();
        let sets = plan.sets();
        // Sized once: one instruction per op, plus at most an opener per
        // set.
        let mut instrs = Vec::with_capacity(sets.iter().map(|d| 1 + d.ops.len()).sum());
        let mut level_ptr = Vec::with_capacity(k + 1);
        for level in 0..k {
            level_ptr.push(instrs.len() as u32);
            for sid in plan.sets_at_level(level) {
                let def = &sets[sid];
                let dst = sid as u16;
                match def.base {
                    Base::Neighbors(pos) if def.ops.is_empty() => {
                        instrs.push(Instr::on_neighbors(
                            OpCode::MaterializeBase,
                            OpKind::Intersect,
                            pos,
                            dst,
                            Some(def.mask),
                        ));
                    }
                    Base::Neighbors(pos) => {
                        instrs.push(Instr::on_neighbors(
                            OpCode::BeginChain,
                            OpKind::Intersect,
                            pos,
                            dst,
                            None,
                        ));
                        Self::push_chain(&mut instrs, dst, def.mask, &def.ops);
                    }
                    Base::Set(dep) => {
                        let first = def.ops[0];
                        let one = def.ops.len() == 1;
                        let dep_def = &sets[dep as usize];
                        let dep_pos = match dep_def.base {
                            Base::Neighbors(p)
                                if dep_def.ops.is_empty() && dep_def.mask.is_all() =>
                            {
                                p
                            }
                            _ => NO_POS,
                        };
                        instrs.push(Instr {
                            dep,
                            dep_level: dep_def.level,
                            dep_pos,
                            ..Instr::on_neighbors(
                                OpCode::ApplyFromSet,
                                first.kind,
                                first.pos,
                                dst,
                                one.then_some(def.mask),
                            )
                        });
                        if !one {
                            Self::push_chain(&mut instrs, dst, def.mask, &def.ops[1..]);
                        }
                    }
                }
            }
        }
        level_ptr.push(instrs.len() as u32);

        let mut levels = Vec::with_capacity(k);
        let mut bounds = Vec::with_capacity((0..k).map(|l| plan.bounds(l).len()).sum());
        let mut bound_ptr = Vec::with_capacity(k + 1);
        for l in 0..k {
            bound_ptr.push(bounds.len() as u32);
            bounds.extend_from_slice(plan.bounds(l));
            let (cand, cand_level) = match plan.candidate_set(l) {
                Some(cid) => (cid, sets[cid as usize].level),
                None => (NO_SET, 0),
            };
            levels.push(LevelMeta {
                cand,
                cand_level,
                label: plan.level_label(l),
                resid: plan.residual_label_check(l),
                inj: 0,
            });
        }
        bound_ptr.push(bounds.len() as u32);

        let mut bc = PlanBytecode {
            instrs,
            level_ptr,
            levels,
            bounds,
            bound_ptr,
            num_sets: plan.num_sets() as u16,
            marked: 0,
            claim_only: 0,
        };
        bc.rederive()?;
        Ok(bc)
    }

    /// Records the injectivity masks, the marked positions and the
    /// claim-only levels the (validated) stream derives.
    fn rederive(&mut self) -> Result<(), BytecodeError> {
        let derived = self.walk()?;
        for (meta, inj) in self.levels.iter_mut().zip(derived.inj) {
            meta.inj = inj;
        }
        self.marked = derived.marked;
        self.claim_only = derived.claim_only;
        Ok(())
    }

    /// The placeholder a [`MatchPlan`] holds while `compile` is still
    /// assembling it; replaced by the real stream before the plan escapes.
    pub(crate) fn unlowered() -> PlanBytecode {
        PlanBytecode {
            instrs: Vec::new(),
            level_ptr: Vec::new(),
            levels: Vec::new(),
            bounds: Vec::new(),
            bound_ptr: Vec::new(),
            num_sets: 0,
            marked: 0,
            claim_only: 0,
        }
    }

    fn push_chain(
        instrs: &mut Vec<Instr>,
        dst: u16,
        mask: LabelMask,
        ops: &[crate::plan::ChainOp],
    ) {
        let n = ops.len();
        for (i, op) in ops.iter().enumerate() {
            let last = i + 1 == n;
            instrs.push(Instr::on_neighbors(
                OpCode::ChainStep,
                op.kind,
                op.pos,
                dst,
                last.then_some(mask),
            ));
        }
    }

    /// Validates the stream with a small abstract machine: walks every level
    /// tracking the open-chain state and the set of already-written slabs,
    /// rejecting the first structural violation by name, and holds every
    /// level's recorded [`LevelMeta::inj`], the recorded
    /// [`PlanBytecode::marked`] and [`PlanBytecode::claim_only`] to the masks
    /// the walk derives.
    pub fn verify(&self) -> Result<(), BytecodeError> {
        let derived = self.walk()?;
        let inj = derived.inj;
        if let Some(level) = (0..self.levels.len()).find(|&l| self.levels[l].inj != inj[l]) {
            return Err(BytecodeError::InjMismatch { level });
        }
        if self.marked != derived.marked {
            return Err(BytecodeError::MarkedMismatch);
        }
        if self.claim_only != derived.claim_only {
            return Err(BytecodeError::ClaimOnlyMismatch);
        }
        Ok(())
    }

    /// The abstract machine behind [`PlanBytecode::verify`]; a structurally
    /// valid stream yields its per-level injectivity masks, its
    /// marked-position mask and its claim-only level mask.
    fn walk(&self) -> Result<Derived, BytecodeError> {
        let k = self.levels.len();
        let num_sets = self.num_sets as usize;
        if self.level_ptr.len() != k + 1
            || self.bound_ptr.len() != k + 1
            || self.level_ptr[0] != 0
            || *self.level_ptr.last().unwrap() as usize != self.instrs.len()
        {
            return Err(BytecodeError::LevelPtrNotMonotonic { level: 0 });
        }
        if num_sets > MAX_SETS {
            return Err(BytecodeError::TooManySets {
                sets: self.num_sets,
            });
        }
        /// What the walk knows of one set's slab.
        #[derive(Clone, Copy)]
        struct Slab {
            /// `Some(level)` once the set's arena slab has been produced;
            /// dependency reads must refer back to one of these.
            written: Option<u8>,
            /// `p` once an unmasked `MaterializeBase` of position p wrote
            /// the set: what a reader's `dep_pos` must say.
            pure: u8,
            /// The positions j with slab ⊆ N(matched[j]): every neighbor
            /// list the set's program starts from or intersects, plus those
            /// of the set it reads. A difference only shrinks the slab.
            within: u8,
            /// Some `ApplyFromSet` reads the slab.
            read: bool,
            /// The levels whose candidate the set is.
            iterated: u8,
        }
        let mut slabs = vec![
            Slab {
                written: None,
                pure: NO_POS,
                within: 0,
                read: false,
                iterated: 0,
            };
            num_sets
        ];
        let mut marked = 0u8;
        for level in 0..k {
            let (lo, hi) = (self.level_ptr[level], self.level_ptr[level + 1]);
            if lo > hi {
                return Err(BytecodeError::LevelPtrNotMonotonic { level });
            }
            // Open-chain state: Some((dst, steps so far)), and the
            // `within` of the value the open program has built so far.
            let mut chain: Option<(u16, usize)> = None;
            let mut acc = 0u8;
            for i in lo as usize..hi as usize {
                let ins = self.instrs[i];
                if ins.dst as usize >= num_sets {
                    return Err(BytecodeError::SetOutOfRange {
                        instr: i,
                        set: ins.dst,
                    });
                }
                if (ins.pos as usize) >= level.max(1) || (ins.pos as usize) >= MAX_PATTERN_SIZE {
                    return Err(BytecodeError::PosOutOfRange {
                        instr: i,
                        pos: ins.pos,
                    });
                }
                if !ins.last && !ins.mask.is_all() {
                    return Err(BytecodeError::MaskedIntermediate { instr: i });
                }
                match ins.code {
                    OpCode::ChainStep => {
                        let Some((dst, steps)) = chain else {
                            return Err(BytecodeError::DanglingChainStep { instr: i });
                        };
                        if dst != ins.dst {
                            return Err(BytecodeError::DanglingChainStep { instr: i });
                        }
                        if steps + 1 > MAX_PATTERN_SIZE {
                            return Err(BytecodeError::ChainTooLong { set: dst });
                        }
                        chain = if ins.last {
                            None
                        } else {
                            Some((dst, steps + 1))
                        };
                        if ins.kind == OpKind::Intersect {
                            acc |= 1 << ins.pos;
                        }
                    }
                    code => {
                        if chain.is_some() {
                            return Err(BytecodeError::UnterminatedChain { level });
                        }
                        if code == OpCode::ApplyFromSet {
                            let dep = ins.dep as usize;
                            if dep >= num_sets {
                                return Err(BytecodeError::DepOutOfRange {
                                    instr: i,
                                    dep: ins.dep,
                                });
                            }
                            match slabs[dep].written {
                                // Same-level deps are legal (within a level,
                                // dependencies precede dependents).
                                Some(at) if at as usize <= level => {}
                                _ => {
                                    return Err(BytecodeError::DepOutOfRange {
                                        instr: i,
                                        dep: ins.dep,
                                    })
                                }
                            }
                            if slabs[dep].written != Some(ins.dep_level) {
                                return Err(BytecodeError::DepLevelMismatch {
                                    instr: i,
                                    dep: ins.dep,
                                });
                            }
                            if slabs[dep].pure != ins.dep_pos {
                                return Err(BytecodeError::DepPosMismatch {
                                    instr: i,
                                    dep: ins.dep,
                                });
                            }
                            acc = slabs[dep].within;
                            slabs[dep].read = true;
                            if ins.kind == OpKind::Intersect {
                                acc |= 1 << ins.pos;
                            }
                            if let Some(p) = ins.lifted_list_pos(level) {
                                marked |= 1 << p;
                            }
                        } else if ins.dep != NO_SET || ins.dep_pos != NO_POS {
                            return Err(BytecodeError::DepOutOfRange {
                                instr: i,
                                dep: ins.dep,
                            });
                        } else {
                            acc = 1 << ins.pos;
                        }
                        let opens = matches!(code, OpCode::BeginChain)
                            || (code == OpCode::ApplyFromSet && !ins.last);
                        if opens {
                            chain = Some((ins.dst, 1));
                        }
                    }
                }
                if ins.last {
                    let slab = &mut slabs[ins.dst as usize];
                    if slab.written.is_some() {
                        return Err(BytecodeError::DuplicateWrite { set: ins.dst });
                    }
                    slab.written = Some(level as u8);
                    slab.within = acc;
                    if ins.code == OpCode::MaterializeBase && ins.mask.is_all() {
                        slab.pure = ins.pos;
                    }
                }
            }
            if chain.is_some() {
                return Err(BytecodeError::UnterminatedChain { level });
            }
        }
        if let Some(s) = slabs.iter().position(|s| s.written.is_none()) {
            return Err(BytecodeError::MissingWrite { set: s as u16 });
        }
        let mut inj = [0u8; MAX_PATTERN_SIZE];
        for (l, meta) in self.levels.iter().enumerate().skip(1) {
            let cand = meta.cand as usize;
            if cand >= num_sets
                || slabs[cand].written != Some(meta.cand_level)
                || meta.cand_level as usize > l
            {
                return Err(BytecodeError::CandidateOutOfRange { level: l });
            }
            let bounded = self.bounds(l).iter().fold(0u8, |m, &(pos, _)| m | 1 << pos);
            inj[l] = ((1u8 << l) - 1) & !slabs[cand].within & !bounded;
            slabs[cand].iterated |= 1 << l;
        }
        let claim_only = (1..k).fold(0u8, |mask, l| {
            let (meta, slab) = (self.levels[l], slabs[self.levels[l].cand as usize]);
            let alone = meta.cand_level as usize == l && !slab.read && slab.iterated == 1 << l;
            mask | u8::from(alone) << l
        });
        Ok(Derived {
            inj,
            marked,
            claim_only,
        })
    }

    /// The instructions to execute when entering `level`.
    #[inline]
    pub fn instrs_at(&self, level: usize) -> &[Instr] {
        &self.instrs[self.level_ptr[level] as usize..self.level_ptr[level + 1] as usize]
    }

    /// The whole stream, grouped by level.
    #[inline]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// `(candidate set id, level it is computed at)` for `level` (≥ 1).
    #[inline]
    pub fn candidate(&self, level: usize) -> (usize, usize) {
        let meta = self.levels[level];
        (meta.cand as usize, meta.cand_level as usize)
    }

    /// Per-level metadata.
    #[inline]
    pub fn level_meta(&self, level: usize) -> LevelMeta {
        self.levels[level]
    }

    /// Symmetry bounds guarding `level`.
    #[inline]
    pub fn bounds(&self, level: usize) -> &[(usize, Bound)] {
        &self.bounds[self.bound_ptr[level] as usize..self.bound_ptr[level + 1] as usize]
    }

    /// Number of levels (= pattern size).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of arena sets the stream writes.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.num_sets as usize
    }

    /// The order positions whose neighbor lists some instruction re-reads
    /// as a lifted intersection input (bit `p` ⇔ position `p`; see
    /// [`Instr::lifted_list_pos`]): the rows a launch's marker needs.
    #[inline]
    pub fn marked(&self) -> u8 {
        self.marked
    }

    /// The levels whose candidate set is computed at the level and read by
    /// nothing but the level itself — no instruction's input, no other
    /// level's candidate (bit `l` ⇔ level `l`): a claim there is the set's
    /// only reader, so the ballot that compacts the set may compact exactly
    /// the valid candidates.
    #[inline]
    pub fn claim_only(&self) -> u8 {
        self.claim_only
    }

    /// How wide each level claims and how many arena slots each set owns
    /// when the stream runs at unroll size `unroll` with levels below `stop`
    /// stealable — the one place the kernel, the arena, the engine's
    /// accounting and the static verifier learn either (DESIGN.md §4,
    /// "Unrolling"). `unroll` is the floor of every deep width and, as
    /// `num_sets × unroll` slots, the arena's budget; 1 means no unrolling.
    ///
    /// * A level below `stop` claims 1: it goes through the steal mirror one
    ///   iteration at a time, so the sets of every level `≤ stop` are only
    ///   ever computed for one slot — and own one.
    /// * A deep level whose child level has an empty program (its candidate
    ///   was lifted) claims [`MAX_UNROLL`]: the batch is written nowhere, so
    ///   filling the warp costs no slot.
    /// * Every other deep level claims the largest uniform `w` in
    ///   `unroll..=MAX_UNROLL` whose slots — `w` per set its child level
    ///   writes — still fit the budget beside the one-slot sets.
    pub fn slot_table(&self, unroll: usize, stop: usize) -> SlotTable {
        debug_assert!((1..=MAX_UNROLL).contains(&unroll) && stop >= 1);
        let k = self.levels.len();
        let num_sets = self.num_sets as usize;
        let deep_sets = (stop + 1..k)
            .map(|l| self.instrs_at(l).iter().filter(|i| i.last).count())
            .sum::<usize>();
        let budget = num_sets * unroll;
        let shared = (budget - (num_sets - deep_sets))
            .checked_div(deep_sets)
            .map_or(unroll, |w| w.min(MAX_UNROLL));
        let mut width = [0u8; MAX_PATTERN_SIZE];
        for (l, w) in width.iter_mut().enumerate().take(k.saturating_sub(1)) {
            *w = if l < stop || unroll == 1 {
                1
            } else if self.instrs_at(l + 1).is_empty() {
                MAX_UNROLL as u8
            } else {
                shared as u8
            };
        }
        // A set owns a slot per member of the batch its level is computed
        // for: its parent level's claim.
        let mut slots = [1usize; MAX_SETS];
        let mut staged = 0;
        for l in 1..k {
            let batch = width[l - 1];
            for ins in self.instrs_at(l) {
                if ins.last {
                    slots[ins.dst as usize] = batch as usize;
                } else {
                    staged = staged.max(batch);
                }
            }
        }
        let table = SlotTable {
            width,
            levels: k as u8,
            budget: budget as u16,
            staged,
            ..SlotTable::with_slots(&slots[..num_sets])
        };
        debug_assert!(table.total() <= budget);
        table
    }

    /// Resident footprint of the stream plus side tables, for budget
    /// accounting and diagnostics.
    pub fn byte_size(&self) -> usize {
        self.instrs.len() * std::mem::size_of::<Instr>()
            + self.level_ptr.len() * std::mem::size_of::<u32>()
            + self.levels.len() * std::mem::size_of::<LevelMeta>()
            + self.bounds.len() * std::mem::size_of::<(usize, Bound)>()
            + self.bound_ptr.len() * std::mem::size_of::<u32>()
    }
}

/// Claim width per level and arena slots per set
/// ([`PlanBytecode::slot_table`]): fixed arrays, no heap, `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotTable {
    /// `width[l]`: raw iterations level `l` claims at once, for the levels
    /// that claim (`0..levels - 1`; the last level is counted).
    width: [u8; MAX_PATTERN_SIZE],
    /// Set `s` owns the flat slots `base[s]..base[s + 1]`.
    base: [u16; MAX_SETS + 1],
    levels: u8,
    num_sets: u16,
    /// `num_sets × unroll`: what a uniform `C[NUM_SETS][UNROLL]` would hold.
    budget: u16,
    /// Widest batch of a level whose program stages an intermediate (a
    /// non-`last` instruction): the ping/pong rows a kernel needs. Zero for
    /// chain-free streams.
    staged: u8,
}

impl SlotTable {
    /// A table of the given slots per set and no levels: the geometry of an
    /// arena that serves no stream (unit tests, placeholders).
    pub fn with_slots(slots: &[usize]) -> SlotTable {
        assert!(slots.len() <= MAX_SETS && slots.iter().all(|&n| n <= MAX_UNROLL));
        let mut base = [0; MAX_SETS + 1];
        for (s, &n) in slots.iter().enumerate() {
            base[s + 1] = base[s] + n as u16;
        }
        SlotTable {
            width: [0; MAX_PATTERN_SIZE],
            base,
            levels: 0,
            num_sets: slots.len() as u16,
            budget: base[slots.len()],
            staged: 0,
        }
    }

    /// Raw iterations `level` claims at once.
    #[inline]
    pub fn width(&self, level: usize) -> usize {
        self.width[level] as usize
    }

    /// The claim widths of the levels that claim, outermost first.
    pub fn widths(&self) -> &[u8] {
        &self.width[..(self.levels as usize).saturating_sub(1)]
    }

    /// Sets the table covers.
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.num_sets as usize
    }

    /// Flat index of `set`'s first slot.
    #[inline]
    pub fn base(&self, set: usize) -> usize {
        self.base[set] as usize
    }

    /// Slots `set` owns: the widest batch its level is ever computed for.
    #[inline]
    pub fn slots(&self, set: usize) -> usize {
        (self.base[set + 1] - self.base[set]) as usize
    }

    /// Slots of every set together (`≤` [`SlotTable::budget`]).
    #[inline]
    pub fn total(&self) -> usize {
        self.base[self.num_sets as usize] as usize
    }

    /// The uniform geometry's slot count, `num_sets × unroll`.
    #[inline]
    pub fn budget(&self) -> usize {
        self.budget as usize
    }

    /// Widest batch whose level stages an intermediate (0: none does).
    #[inline]
    pub fn staged(&self) -> usize {
        self.staged as usize
    }
}

/// Seeded-mutation hooks for the kill-test suite (tests only, mirroring
/// `service::mutation`): the sanctioned back door into a plan's own stream.
/// Each helper leaves a *well-formed but semantically wrong* stream — it
/// still passes [`PlanBytecode::verify`], so only the golden-count/metric
/// gates can catch it. Never called from production paths.
pub mod mutation {
    use super::OpCode;
    use crate::plan::{MatchPlan, OpKind};

    /// Swaps the [`OpKind`] of the first combining instruction of `plan`'s
    /// own stream (`Intersect` ↔ `Difference`), modelling an encoder that
    /// writes the wrong opcode. Returns false when the stream has no
    /// combining instruction to corrupt (pure materialization plans).
    pub fn swap_first_op_kind(plan: &mut MatchPlan) -> bool {
        let bc = &mut plan.bytecode;
        for ins in &mut bc.instrs {
            if matches!(ins.code, OpCode::ApplyFromSet | OpCode::ChainStep) {
                ins.kind = match ins.kind {
                    OpKind::Intersect => OpKind::Difference,
                    OpKind::Difference => OpKind::Intersect,
                };
                // The masks follow the stream: an intersection turned
                // difference loses its exemption (and its marker).
                bc.rederive().expect("one swapped kind stays well-formed");
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::plan::{MatchPlan, PlanOptions};

    /// A compiled paper query and (a copy of) the stream it owns.
    fn lower_query(q: usize) -> (MatchPlan, PlanBytecode) {
        let plan = MatchPlan::compile(&catalog::paper_query(q), PlanOptions::default());
        let bc = plan.bytecode().clone();
        (plan, bc)
    }

    #[test]
    fn the_plan_owns_exactly_what_lowering_it_yields() {
        for q in 1..=24 {
            let (plan, bc) = lower_query(q);
            assert_eq!(PlanBytecode::lower(&plan), Ok(bc), "q{q}");
        }
    }

    #[test]
    fn all_paper_queries_lower_and_verify() {
        for q in 1..=24 {
            let (plan, bc) = lower_query(q);
            assert_eq!(bc.num_levels(), plan.num_levels(), "q{q}");
            assert_eq!(bc.num_sets(), plan.num_sets(), "q{q}");
            bc.verify().unwrap_or_else(|e| panic!("q{q}: {e}"));
        }
    }

    #[test]
    fn side_tables_agree_with_plan_accessors() {
        for q in 1..=24 {
            let (plan, bc) = lower_query(q);
            for l in 0..plan.num_levels() {
                assert_eq!(bc.bounds(l), plan.bounds(l), "q{q} level {l} bounds");
                let meta = bc.level_meta(l);
                assert_eq!(meta.label, plan.level_label(l), "q{q} level {l} label");
                assert_eq!(
                    meta.resid,
                    plan.residual_label_check(l),
                    "q{q} level {l} resid"
                );
                match plan.candidate_set(l) {
                    Some(cid) => {
                        assert_eq!(bc.candidate(l).0, cid as usize, "q{q} level {l} cand");
                        assert_eq!(
                            bc.candidate(l).1,
                            plan.sets()[cid as usize].level as usize,
                            "q{q} level {l} cand level"
                        );
                    }
                    None => assert_eq!(meta.cand, NO_SET, "q{q} level {l}"),
                }
            }
        }
    }

    #[test]
    fn instruction_programs_mirror_set_defs() {
        for q in 1..=24 {
            let (plan, bc) = lower_query(q);
            for level in 0..plan.num_levels() {
                let prog = bc.instrs_at(level);
                // One program per set, in set order; programs are contiguous
                // and end with exactly one `last` write per set.
                let expected: usize = plan
                    .sets_at_level(level)
                    .map(|sid| {
                        let def = &plan.sets()[sid];
                        match def.base {
                            Base::Neighbors(_) if def.ops.is_empty() => 1,
                            Base::Neighbors(_) => 1 + def.ops.len(),
                            Base::Set(_) => def.ops.len(),
                        }
                    })
                    .sum();
                assert_eq!(prog.len(), expected, "q{q} level {level}");
                let writes: Vec<u16> = prog.iter().filter(|i| i.last).map(|i| i.dst).collect();
                let want: Vec<u16> = plan.sets_at_level(level).map(|s| s as u16).collect();
                assert_eq!(writes, want, "q{q} level {level} write order");
            }
        }
    }

    #[test]
    fn slot_tables_fill_the_budget_and_never_exceed_it() {
        for q in 1..=24 {
            let (_, bc) = lower_query(q);
            let k = bc.num_levels();
            let def_level = |set: usize| {
                let writes = |l: &usize| {
                    bc.instrs_at(*l)
                        .iter()
                        .any(|i| i.last && i.dst == set as u16)
                };
                (0..k).find(writes).expect("every set is written")
            };
            for unroll in [1, 2, 4, 8, 16, 32] {
                for stop in [1, 2] {
                    let t = bc.slot_table(unroll, stop);
                    let leg = format!("q{q} unroll {unroll} stop {stop}: {t:?}");
                    assert_eq!(t.num_sets(), bc.num_sets(), "{leg}");
                    assert_eq!(t.budget(), bc.num_sets() * unroll, "{leg}");
                    assert!(t.total() <= t.budget(), "{leg}");
                    assert_eq!(t.widths().len(), k - 1, "{leg}");
                    let mut staged = 0;
                    for (l, &w) in t.widths().iter().enumerate() {
                        let w = w as usize;
                        let child = bc.instrs_at(l + 1);
                        if l < stop || unroll == 1 {
                            assert_eq!(w, 1, "{leg}: level {l}");
                        } else if child.is_empty() {
                            assert_eq!(w, MAX_UNROLL, "{leg}: level {l} writes nothing");
                        } else {
                            assert!((unroll..=MAX_UNROLL).contains(&w), "{leg}: level {l}");
                        }
                        if child.iter().any(|i| !i.last) {
                            staged = staged.max(w);
                        }
                    }
                    assert_eq!(t.staged(), staged, "{leg}");
                    // A set owns as many slots as the batch it is computed
                    // for is wide: its parent level's claim.
                    let mut base = 0;
                    for set in 0..bc.num_sets() {
                        assert_eq!(t.base(set), base, "{leg}: set {set}");
                        assert_eq!(
                            t.slots(set),
                            t.width(def_level(set) - 1),
                            "{leg}: set {set}"
                        );
                        base += t.slots(set);
                    }
                    assert_eq!(t.total(), base, "{leg}");
                    // The shared width is the widest the budget affords:
                    // one more slot per deep set would not fit.
                    let deep = (0..bc.num_sets()).filter(|&s| def_level(s) > stop).count();
                    let shared = (stop..k - 1)
                        .filter(|&l| !bc.instrs_at(l + 1).is_empty())
                        .map(|l| t.width(l))
                        .max();
                    if let Some(w) = shared.filter(|&w| w < MAX_UNROLL && unroll > 1) {
                        assert!(
                            t.total() + deep > t.budget(),
                            "{leg}: {w} is not the widest"
                        );
                    }
                }
            }
        }
        // q1 at the defaults: three neighbor lists, the last level's lifted —
        // its parent claims a full warp for free, and the one deep set takes
        // what the two one-slot sets leave of 3 × 8.
        let t = lower_query(1).1.slot_table(8, 2);
        assert_eq!(t.widths(), [1, 1, 22, 32]);
        assert_eq!((t.slots(0), t.slots(1), t.slots(2)), (1, 1, 22));
        assert_eq!((t.total(), t.budget(), t.staged()), (24, 24, 0));
    }

    #[test]
    fn verifier_rejects_more_sets_than_a_slot_table_holds() {
        let (_, mut bc) = lower_query(8);
        bc.num_sets = MAX_SETS as u16 + 1;
        assert_eq!(
            bc.verify(),
            Err(BytecodeError::TooManySets {
                sets: MAX_SETS as u16 + 1
            })
        );
    }

    #[test]
    fn verifier_rejects_out_of_range_set() {
        let (_, mut bc) = lower_query(8);
        let bad = bc.num_sets + 3;
        bc.instrs[0].dst = bad;
        assert!(matches!(
            bc.verify(),
            Err(BytecodeError::SetOutOfRange { set, .. }) if set == bad
        ));
    }

    #[test]
    fn verifier_rejects_forward_dependency() {
        let (_, mut bc) = lower_query(8);
        let i = bc
            .instrs
            .iter()
            .position(|x| x.code == OpCode::ApplyFromSet)
            .expect("clique cascade has ApplyFromSet");
        bc.instrs[i].dep = bc.instrs[i].dst; // self-reference: unwritten at read time
        assert!(matches!(
            bc.verify(),
            Err(BytecodeError::DepOutOfRange { .. })
        ));
    }

    #[test]
    fn verifier_rejects_wrong_dep_level() {
        let (_, mut bc) = lower_query(8);
        let i = bc
            .instrs
            .iter()
            .position(|x| x.code == OpCode::ApplyFromSet)
            .expect("cascade");
        bc.instrs[i].dep_level += 1;
        assert!(matches!(
            bc.verify(),
            Err(BytecodeError::DepLevelMismatch { .. })
        ));
    }

    #[test]
    fn dep_pos_names_exactly_the_verbatim_neighbor_lists() {
        // q8's cascade: level 2 intersects the unmasked N(v0) slab, deeper
        // levels intersect results of intersections.
        let (_, bc) = lower_query(8);
        let deps: Vec<u8> = bc
            .instrs
            .iter()
            .filter(|x| x.code == OpCode::ApplyFromSet)
            .map(|x| x.dep_pos)
            .collect();
        assert_eq!(deps, [0, NO_POS, NO_POS]);
        // A masked materialization is a subset of the neighbor list, never
        // the list itself.
        let labeled = catalog::triangle().with_labels(&[1, 1, 1]);
        let plan = MatchPlan::compile(&labeled, PlanOptions::default());
        assert!(plan.bytecode().instrs.iter().all(|x| x.dep_pos == NO_POS));
        // The verifier holds the stream to it, both ways.
        let (_, mut bc) = lower_query(8);
        let first = bc
            .instrs
            .iter()
            .position(|x| x.code == OpCode::ApplyFromSet)
            .expect("cascade");
        bc.instrs[first].dep_pos = NO_POS;
        assert!(matches!(
            bc.verify(),
            Err(BytecodeError::DepPosMismatch { .. })
        ));
        bc.instrs[first].dep_pos = 0;
        bc.instrs[first + 1].dep_pos = 0;
        assert!(matches!(
            bc.verify(),
            Err(BytecodeError::DepPosMismatch { .. })
        ));
    }

    #[test]
    fn marked_names_the_lifted_verbatim_intersection_inputs() {
        // q3, the house: level 2 intersects N(v0) — materialized at level
        // 1, so lifted and verbatim — with N(v1).
        let (_, bc) = lower_query(3);
        let lifted: Vec<(usize, usize)> = (0..bc.num_levels())
            .flat_map(|l| {
                let at = move |i: &Instr| i.lifted_list_pos(l).map(|p| (l, p));
                bc.instrs_at(l).iter().filter_map(at)
            })
            .collect();
        assert!(!lifted.is_empty());
        let mask = lifted.iter().fold(0u8, |m, &(_, p)| m | 1 << p);
        assert_eq!(bc.marked(), mask);
        // q1 is all `MaterializeBase`: nothing to mark. q8's cascade reads
        // N(v0) at level 2 and results of intersections below.
        assert_eq!(lower_query(1).1.marked(), 0);
        assert_eq!(lower_query(8).1.marked(), 0b1);
        // A difference never takes the symmetric route, so it marks nothing;
        // the mask follows the stream and the verifier holds it.
        let mut plan = MatchPlan::compile(&catalog::paper_query(8), PlanOptions::default());
        assert!(mutation::swap_first_op_kind(&mut plan));
        assert_eq!(plan.bytecode().marked(), 0);
        let (_, mut bc) = lower_query(8);
        bc.marked = 0b10;
        assert_eq!(bc.verify(), Err(BytecodeError::MarkedMismatch));
    }

    #[test]
    fn claim_only_names_the_levels_nothing_else_reads() {
        // q1, the 5-path: level 2's N(v1) is read by its own claims alone;
        // level 1's N(v0) is level 3's candidate too, and level 3's list is
        // level 4's. Levels 3 and 4 compute none of their own.
        let (_, bc) = lower_query(1);
        assert_eq!(bc.claim_only(), 0b100);
        // q3, the house: level 1's N(v0) is an input of levels 2 and 4, and
        // level 2 computes level 3's list beside its own.
        let (_, bc) = lower_query(3);
        assert_eq!(bc.claim_only(), 0b1_0100);
        // A clique's every list is the next level's input: only the last is
        // read by its level alone.
        assert_eq!(lower_query(8).1.claim_only(), 0b1_0000);
        // The verifier holds the recorded mask to the stream's.
        let (_, mut bc) = lower_query(3);
        bc.claim_only = 0b1_0110;
        assert_eq!(bc.verify(), Err(BytecodeError::ClaimOnlyMismatch));
    }

    #[test]
    fn inj_probes_only_positions_a_candidate_can_equal() {
        let inj = |bc: &PlanBytecode| -> Vec<u8> {
            (0..bc.num_levels()).map(|l| bc.level_meta(l).inj).collect()
        };
        // q1, the 5-path matched centre-out: the last level iterates the
        // (lifted) N(v2) under a symmetry bound on v3, so only v0 and v1
        // can collide.
        let (_, bc) = lower_query(1);
        assert_eq!(bc.level_meta(4).inj, 0b0011);
        // A clique level intersects the neighbor lists of every earlier
        // position: nothing to probe, anywhere.
        let (_, bc) = lower_query(8);
        assert_eq!(inj(&bc), [0; 5]);
        // Vertex-induced square, matched around the cycle with symmetry
        // breaking off: v2 comes from N(v1) − N(v0) and v3 from
        // (N(v0) − N(v1)) ∩ N(v2). A subtracted neighbor list exempts
        // nothing, so each keeps its one non-adjacent position.
        let plan = MatchPlan::compile(
            &catalog::square(),
            PlanOptions {
                induced: true,
                symmetry_breaking: false,
                ..PlanOptions::default()
            },
        );
        assert_eq!(inj(plan.bytecode()), [0, 0, 0b001, 0b010]);
    }

    #[test]
    fn inj_follows_the_stream_and_the_verifier_holds_it() {
        // Turning the 5-clique's first intersection (level 2, with N(v1))
        // into a difference loses position 1's exemption there and at every
        // level whose candidate descends from that set, and gains none.
        // (Symmetry breaking off: q8's bounds exempt every position anyway.)
        let mut plan = MatchPlan::compile(
            &catalog::paper_query(8),
            PlanOptions {
                symmetry_breaking: false,
                ..PlanOptions::default()
            },
        );
        let before = plan.bytecode().clone();
        assert!((0..5).all(|l| before.level_meta(l).inj == 0));
        assert!(mutation::swap_first_op_kind(&mut plan));
        let after = plan.bytecode();
        let swapped = after
            .instrs
            .iter()
            .find(|i| i.kind == OpKind::Difference)
            .expect("one swapped instruction");
        for l in 0..after.num_levels() {
            let (was, now) = (before.level_meta(l).inj, after.level_meta(l).inj);
            assert_eq!(was & !now, 0, "level {l} gained an exemption");
            assert_eq!(now & (1 << swapped.pos) != 0, l >= 2, "level {l}");
        }
        // A recorded mask the stream does not derive is rejected, whether
        // it probes too little or too much.
        let (_, mut bc) = lower_query(1);
        bc.levels[4].inj = 0;
        assert_eq!(bc.verify(), Err(BytecodeError::InjMismatch { level: 4 }));
        bc.levels[4].inj = 0b1111;
        assert_eq!(bc.verify(), Err(BytecodeError::InjMismatch { level: 4 }));
    }

    #[test]
    fn verifier_rejects_position_at_or_above_level() {
        let (_, mut bc) = lower_query(8);
        bc.instrs[0].pos = MAX_PATTERN_SIZE as u8; // level-1 instr: pos must be 0
        assert!(matches!(
            bc.verify(),
            Err(BytecodeError::PosOutOfRange { .. })
        ));
    }

    #[test]
    fn verifier_rejects_dangling_and_overlong_chains() {
        // q16 (5-house, naive chains under code motion still chain on some
        // level) may not chain; build a naive plan which surely does.
        let plan = MatchPlan::compile(
            &catalog::paper_query(8),
            PlanOptions {
                code_motion: false,
                ..PlanOptions::default()
            },
        );
        let bc = PlanBytecode::lower(&plan).expect("naive plans lower too");
        let i = bc
            .instrs
            .iter()
            .position(|x| x.code == OpCode::ChainStep)
            .expect("naive clique plan carries chains");
        // Dangling: promote a mid-chain step to a fresh program head's slot.
        let mut dangling = bc.clone();
        dangling.instrs[i - 1].last = true;
        // i-1 was BeginChain/non-last; forcing last makes step i dangle
        // (and may also duplicate a write — either named error is a catch,
        // but chain integrity must be flagged before dispatch ever runs).
        assert!(dangling.verify().is_err());
        // Overlong: inflate the recorded chain by redirecting level_ptr is
        // invasive; instead append ChainSteps past the cap.
        let dst = bc.instrs[i].dst;
        let level = (0..bc.num_levels())
            .find(|&l| {
                let lo = bc.level_ptr[l] as usize;
                let hi = bc.level_ptr[l + 1] as usize;
                (lo..hi).contains(&i)
            })
            .unwrap();
        let end = bc.level_ptr[level + 1] as usize;
        let tail = Instr::on_neighbors(OpCode::ChainStep, OpKind::Intersect, 0, dst, None);
        // Re-open the chain at the end of the level and run it past the cap.
        let mut overlong = bc.clone();
        let insert_at = end;
        let mut prog = vec![Instr::on_neighbors(
            OpCode::BeginChain,
            OpKind::Intersect,
            0,
            dst,
            None,
        )];
        prog.extend(std::iter::repeat_n(tail, MAX_PATTERN_SIZE + 1));
        let n = prog.len() as u32;
        overlong.instrs.splice(insert_at..insert_at, prog);
        for p in overlong.level_ptr.iter_mut().skip(level + 1) {
            *p += n;
        }
        assert!(matches!(
            overlong.verify(),
            Err(BytecodeError::ChainTooLong { .. }) | Err(BytecodeError::DuplicateWrite { .. })
        ));
    }

    #[test]
    fn verifier_rejects_masked_intermediate_and_duplicate_write() {
        // Code-motion plans have at most one op per set (no intermediates);
        // a naive clique plan stages whole chains through ping/pong.
        let plan = MatchPlan::compile(
            &catalog::paper_query(8),
            PlanOptions {
                code_motion: false,
                ..PlanOptions::default()
            },
        );
        let mut bc = PlanBytecode::lower(&plan).unwrap();
        let i = bc
            .instrs
            .iter()
            .position(|x| !x.last)
            .expect("naive plans have staged intermediates");
        bc.instrs[i].mask = LabelMask::single(3);
        assert!(matches!(
            bc.verify(),
            Err(BytecodeError::MaskedIntermediate { .. })
        ));

        let (_, mut bc) = lower_query(8);
        let dup = bc.instrs[0];
        bc.instrs.insert(1, dup);
        for p in bc.level_ptr.iter_mut().skip(2) {
            *p += 1;
        }
        assert!(matches!(
            bc.verify(),
            Err(BytecodeError::DuplicateWrite { .. })
        ));
    }

    #[test]
    fn mutation_swaps_exactly_one_opcode_and_stays_well_formed() {
        let (mut plan, before) = lower_query(8);
        assert!(mutation::swap_first_op_kind(&mut plan));
        let bc = plan.bytecode();
        assert_eq!(bc.verify(), Ok(()), "mutated stream must still verify");
        let diffs: Vec<usize> = before
            .instrs
            .iter()
            .zip(&bc.instrs)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diffs.len(), 1, "exactly one instruction changed");
        // Pure path plans have nothing to corrupt.
        let (mut path, _) = lower_query(1);
        assert!(!mutation::swap_first_op_kind(&mut path));
    }
}
