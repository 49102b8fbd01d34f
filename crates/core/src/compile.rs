//! Compiled-plan execution tiers (DESIGN.md §4h).
//!
//! Every launch interprets the instruction stream its [`MatchPlan`] owns
//! ([`MatchPlan::bytecode`]); nothing here holds or produces bytecode. A
//! [`CompiledPlan`] is the optional, heap-free *tier state* that rides
//! beside a plan when `CompileTuning::enabled` is set:
//!
//! * **Tier 0 — the interpreter.** The kernel's one loop over
//!   `instrs_at(level)`; what every launch without tier state runs, too.
//! * **Tier 1 — specialized.** For the dominant stream shapes (the clique
//!   cascade and path plans, [`SpecShape`]), monomorphized kernel bodies
//!   const-generic over `(UNROLL, NUM_SETS)` replace the interpreter —
//!   on launches that route no hub-bitmap rows; a routed launch stays on
//!   tier 0 whatever the state says. A plan reaches tier 1 through its
//!   profile counter: once the claim loops that share this `CompiledPlan`
//!   have recorded `CompileTuning::tier_up_after` claims, the plan is
//!   promoted. Because the service's plan cache holds the `CompiledPlan`
//!   next to the canonical-form entry, warm resident queries start
//!   straight at the promoted tier on cache hit.
//!
//! Promotion policy: profile-driven tier-up applies to **cascades only** —
//! they are the compute-bound shape where monomorphized unroll bounds pay.
//! Path plans are memory-bound block copies whose dispatch overhead is
//! already negligible, so they are specialized only when profiling is
//! explicitly skipped (`tier_up_after == 0`). This is why, under default
//! tuning, q8-on-clique reaches tier 1 while q1 stays on tier 0 no matter
//! how many claims it records.
//!
//! Concurrency: the claim loop's fast paths touch only relaxed atomics
//! (claim counter batches in, tier snapshot out). Actual tier *transitions*
//! — and every read of the transition counters — happen under a
//! [`simt_check`]-tracked lock of class [`LockClass::PlanTierUp`], with the
//! shared state registered as the `tier-state[p]` shadow cell, so the race
//! and lock-order analyzers see every cross-thread hand-off (service
//! workers tiering up while other workers hit the cache).

use crate::config::CompileTuning;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use stmatch_pattern::bytecode::SpecShape;
use stmatch_pattern::MatchPlan;

/// The execution tier a compiled plan is currently served at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The instruction-stream interpreter.
    Bytecode,
    /// Monomorphized shape-specialized kernel body.
    Specialized,
}

impl Tier {
    /// Stable numeric form for outcome reporting (`0` / `1`).
    #[inline]
    pub fn index(self) -> u8 {
        match self {
            Tier::Bytecode => 0,
            Tier::Specialized => 1,
        }
    }
}

/// Shared tier/profile state of one plan. One instance is shared by every
/// warp of a run — and, through the service plan cache, by every run of the
/// same canonical query. Holds no heap memory: a one-shot launch builds it
/// on the stack.
#[derive(Debug)]
pub struct CompiledPlan {
    /// The shape of the plan's stream: which tier-1 body, if any, serves it.
    shape: SpecShape,
    tuning: CompileTuning,
    /// Total claims recorded by kernels executing this plan (relaxed;
    /// batched in from per-warp counters, never read on the fast path).
    claims: AtomicU64,
    /// Current tier (0/1). Relaxed-loaded per level entry by the dispatch
    /// loop; stored only inside [`CompiledPlan::tier_up`] under the lock.
    tier: AtomicU8,
    /// Number of tier transitions performed (0 or 1 today; a counter so
    /// cache stats can sum over entries and future tiers can extend it).
    tier_ups: AtomicU64,
    /// Guards tier transitions and stat reads (class `PlanTierUp`).
    tier_lock: Mutex<()>,
    /// simt-check object id: names this plan's `tier-state` shadow cell and
    /// its lock instance.
    check_id: u32,
}

impl CompiledPlan {
    /// Fresh profile state for `plan` under `tuning`; with
    /// `tier_up_after == 0` a specializable plan starts at tier 1.
    pub fn new(plan: &MatchPlan, tuning: CompileTuning) -> CompiledPlan {
        let shape = plan.bytecode().shape();
        let pre_specialize =
            tuning.tier_up_after == 0 && tuning.specialize && shape != SpecShape::General;
        CompiledPlan {
            shape,
            tuning,
            claims: AtomicU64::new(0),
            tier: AtomicU8::new(u8::from(pre_specialize)),
            tier_ups: AtomicU64::new(0),
            tier_lock: Mutex::new(()),
            check_id: simt_check::next_object_id(),
        }
    }

    /// Detected specialization shape.
    #[inline]
    pub fn shape(&self) -> SpecShape {
        self.shape
    }

    /// Current tier, as seen by the dispatch loop: a relaxed snapshot.
    /// Reading a stale tier 0 is harmless (one more bytecode-dispatched
    /// level); both tiers are metric-identical by construction.
    #[inline]
    pub fn tier(&self) -> Tier {
        // Relaxed: a stale tier is self-correcting (next level entry
        // re-reads) and both tiers compute identical results, so no
        // ordering with other memory is needed on this fast path.
        if self.tier.load(Ordering::Relaxed) == 0 {
            Tier::Bytecode
        } else {
            Tier::Specialized
        }
    }

    /// Records `n` claims from a kernel's local batch and runs the tier-up
    /// check. Called at commit boundaries and every 4096th claim — never
    /// per claim — so the shared counter stays off the fast path.
    pub fn note_claims(&self, n: u64) {
        if n == 0 {
            return;
        }
        // Relaxed: the claim counter is a monotone tally with no data
        // guarded behind it — the only consumer is the threshold test
        // below, and a late-observed crossing merely delays promotion by
        // one batch. The tier peek piggybacks on the same reasoning.
        let total = self.claims.fetch_add(n, Ordering::Relaxed) + n;
        if self.tier.load(Ordering::Relaxed) == 0
            && self.auto_promotes()
            && total >= self.tuning.tier_up_after
        {
            self.tier_up();
        }
    }

    /// Whether the profile counter may promote this plan: cascades only
    /// (see module docs for the policy rationale).
    fn auto_promotes(&self) -> bool {
        self.tuning.specialize && self.shape() == SpecShape::Cascade
    }

    /// Locked tier transition. Cold: runs at most once per plan per
    /// promotion, racing only with concurrent promoters and stat readers.
    #[cold]
    fn tier_up(&self) {
        let _g = simt_check::tracked_lock(
            &self.tier_lock,
            simt_check::LockClass::PlanTierUp,
            self.check_id as usize,
        );
        simt_check::note_write(simt_check::Cell::tier_state(self.check_id));
        // Double-checked under the lock: several claim loops can observe
        // the threshold crossing at once; only the first transitions.
        // Relaxed suffices for all three accesses because the tier_lock
        // mutex already orders them against every other locked section,
        // and lock-free readers tolerate staleness (see `tier`).
        if self.tier.load(Ordering::Relaxed) == 0 {
            self.tier.store(1, Ordering::Relaxed);
            self.tier_ups.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Locked snapshot of `(current tier, tier-ups, claims)` for stats and
    /// routing assertions. Takes the same lock as [`CompiledPlan::tier_up`]
    /// so the shadow store sees the read ordered against transitions.
    pub fn profile(&self) -> (Tier, u64, u64) {
        let _g = simt_check::tracked_lock(
            &self.tier_lock,
            simt_check::LockClass::PlanTierUp,
            self.check_id as usize,
        );
        simt_check::note_read(simt_check::Cell::tier_state(self.check_id));
        // Relaxed: the tier_lock held above orders these reads against
        // every transition; the claims tally is advisory (concurrent
        // claim loops may still be batching).
        (
            self.tier(),
            self.tier_ups.load(Ordering::Relaxed),
            self.claims.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stmatch_pattern::{catalog, MatchPlan, PlanOptions};

    fn compiled(q: usize, tuning: CompileTuning) -> CompiledPlan {
        let plan = MatchPlan::compile(&catalog::paper_query(q), PlanOptions::default());
        CompiledPlan::new(&plan, tuning)
    }

    #[test]
    fn cascade_tiers_up_at_threshold_exactly_once() {
        let c = compiled(
            8,
            CompileTuning {
                enabled: true,
                tier_up_after: 100,
                specialize: true,
            },
        );
        assert_eq!(c.tier(), Tier::Bytecode);
        c.note_claims(99);
        assert_eq!(c.tier(), Tier::Bytecode);
        c.note_claims(1);
        assert_eq!(c.tier(), Tier::Specialized);
        c.note_claims(5000);
        let (tier, ups, claims) = c.profile();
        assert_eq!(tier, Tier::Specialized);
        assert_eq!(ups, 1, "promotion happens once");
        assert_eq!(claims, 5100);
    }

    #[test]
    fn paths_never_auto_promote_but_pre_specialize() {
        let profiled = compiled(
            1,
            CompileTuning {
                enabled: true,
                tier_up_after: 10,
                specialize: true,
            },
        );
        profiled.note_claims(1_000_000);
        assert_eq!(profiled.tier(), Tier::Bytecode, "paths stay on tier 0");
        let forced = compiled(
            1,
            CompileTuning {
                enabled: true,
                tier_up_after: 0,
                specialize: true,
            },
        );
        assert_eq!(
            forced.tier(),
            Tier::Specialized,
            "threshold 0 skips profiling"
        );
    }

    #[test]
    fn specialize_off_pins_tier_zero() {
        let c = compiled(
            8,
            CompileTuning {
                enabled: true,
                tier_up_after: 0,
                specialize: false,
            },
        );
        assert_eq!(c.tier(), Tier::Bytecode);
        c.note_claims(1 << 20);
        assert_eq!(c.tier(), Tier::Bytecode);
    }

    #[test]
    fn general_shapes_stay_bytecode_even_when_forced() {
        // q6 mixes intersect/difference: General shape, no tier-1 body.
        let c = compiled(
            6,
            CompileTuning {
                enabled: true,
                tier_up_after: 0,
                specialize: true,
            },
        );
        assert_eq!(c.shape(), SpecShape::General);
        assert_eq!(c.tier(), Tier::Bytecode);
        c.note_claims(1 << 20);
        assert_eq!(c.tier(), Tier::Bytecode);
    }

    #[test]
    fn concurrent_promoters_record_one_tier_up() {
        let c = std::sync::Arc::new(compiled(
            8,
            CompileTuning {
                enabled: true,
                tier_up_after: 1,
                specialize: true,
            },
        ));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..64 {
                        c.note_claims(7);
                    }
                });
            }
        });
        let (tier, ups, claims) = c.profile();
        assert_eq!(tier, Tier::Specialized);
        assert_eq!(ups, 1);
        assert_eq!(claims, 8 * 64 * 7);
    }
}
