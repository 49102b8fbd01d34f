//! Deterministic fault injection and fault reporting.
//!
//! A [`FaultPlan`] attaches to an [`Engine`](crate::Engine) launch and
//! perturbs chosen warps at precise points of their execution:
//!
//! * **panic** at the Nth claim — the warp dies mid-traversal and the
//!   engine's containment layer must requeue its unfinished work;
//! * **stall** at the Nth claim — the warp sleeps while holding a full
//!   steal mirror, forcing siblings onto the stealing paths;
//! * **poison** at the Nth mirror publish — the warp panics *inside* the
//!   mirror's critical section, leaving the lock poisoned exactly between
//!   publish and unlock (the scenario `steal.rs`'s poison-recovery
//!   contract is written for).
//!
//! Plans are deterministic: [`FaultPlan::seeded`] derives every fault from
//! a single `u64` through the testkit's SplitMix64, and the seed travels
//! with the plan as a `FAULT_SEED=0x…` reproduce line that failure reports
//! print verbatim. Injection sites are claim/publish *ordinals*, not
//! wall-clock times, so a replay under the same seed perturbs the same
//! logical points of the traversal.
//!
//! Injected panics carry a [`FaultPanic`] payload. While a plan with
//! panic-type faults is live, the engine installs a process-wide panic
//! hook shim (see [`silence_fault_panics`]) that swallows the default
//! "thread panicked" stderr noise for `FaultPanic` payloads only; real
//! panics still reach the previously installed hook.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use stmatch_testkit::rng::SplitMix64;

/// What a fault does to its warp when its trigger point is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic (via [`FaultPanic`]) at the warp's `at_claim`-th claim.
    Panic {
        /// 1-based claim ordinal that triggers the panic.
        at_claim: u64,
    },
    /// Sleep for `delay` at the warp's `at_claim`-th claim, with the steal
    /// mirror published and unlocked — stealable.
    Stall {
        /// 1-based claim ordinal that triggers the stall.
        at_claim: u64,
        /// How long the warp sleeps.
        delay: Duration,
    },
    /// Panic *inside* the mirror critical section at the warp's
    /// `at_publish`-th stealable-state publish, poisoning the mirror lock
    /// between publish and unlock.
    PoisonPublish {
        /// 1-based publish ordinal that triggers the poisoned panic.
        at_publish: u64,
    },
    /// Kill a whole grid: [`FaultPlan::for_shard`] expands this into a
    /// panic at claim `at_claim` for every warp of shard `shard`'s grid.
    /// Every grid a launch builds is a shard (a one-grid launch is shard 0
    /// of 1), and a kill naming a shard the launch lacks panics it.
    ShardKill {
        /// Shard index whose grid dies.
        shard: usize,
        /// 1-based claim ordinal at which every warp of the shard panics.
        at_claim: u64,
    },
}

/// One scheduled fault: a warp plus a trigger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Global warp id the fault targets.
    pub warp: usize,
    /// The fault trigger and effect.
    pub kind: FaultKind,
}

/// Panic payload of injected faults. Carrying a dedicated type (instead of
/// a string) lets the containment layer and the panic-hook shim recognize
/// injected deaths without parsing messages.
#[derive(Clone, Copy, Debug)]
pub struct FaultPanic {
    /// The warp that was killed.
    pub warp: usize,
    /// The claim/publish ordinal at which it died.
    pub at: u64,
    /// True when the panic fired inside the mirror critical section.
    pub poisoned_publish: bool,
}

impl FaultPanic {
    /// Human-readable rendering used in [`WarpDeath`] records.
    pub fn describe(&self) -> String {
        if self.poisoned_publish {
            format!(
                "injected fault: poisoned mirror publish #{} of warp {}",
                self.at, self.warp
            )
        } else {
            format!(
                "injected fault: panic at claim #{} of warp {}",
                self.at, self.warp
            )
        }
    }
}

/// A deterministic schedule of warp faults for one launch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    /// Reproduce line (`FAULT_SEED=0x…`) for seeded plans.
    reproduce: Option<String>,
}

impl FaultPlan {
    /// An empty plan; add faults with the builder methods.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules a panic for `warp` at its `at_claim`-th claim (1-based).
    pub fn panic_at(mut self, warp: usize, at_claim: u64) -> FaultPlan {
        assert!(at_claim >= 1, "claim ordinals are 1-based");
        self.faults.push(Fault {
            warp,
            kind: FaultKind::Panic { at_claim },
        });
        self
    }

    /// Schedules a stall for `warp` at its `at_claim`-th claim (1-based).
    pub fn stall_at(mut self, warp: usize, at_claim: u64, delay: Duration) -> FaultPlan {
        assert!(at_claim >= 1, "claim ordinals are 1-based");
        self.faults.push(Fault {
            warp,
            kind: FaultKind::Stall { at_claim, delay },
        });
        self
    }

    /// Schedules a poisoned-publish panic for `warp` at its
    /// `at_publish`-th mirror publish (1-based).
    pub fn poison_publish_at(mut self, warp: usize, at_publish: u64) -> FaultPlan {
        assert!(at_publish >= 1, "publish ordinals are 1-based");
        self.faults.push(Fault {
            warp,
            kind: FaultKind::PoisonPublish { at_publish },
        });
        self
    }

    /// Schedules the death of whole shard `shard` at claim ordinal
    /// `at_claim` (1-based): every warp of that shard's grid panics there
    /// (see [`FaultKind::ShardKill`]; the `warp` field of the stored fault
    /// is unused).
    pub fn shard_kill_at(mut self, shard: usize, at_claim: u64) -> FaultPlan {
        assert!(at_claim >= 1, "claim ordinals are 1-based");
        self.faults.push(Fault {
            warp: 0,
            kind: FaultKind::ShardKill { shard, at_claim },
        });
        self
    }

    /// Derives a shard-kill plan from a single seed: `kills` distinct
    /// shards of a `shards`-shard run die, each at a claim ordinal in the
    /// first handful of claims (so survivors inherit real unfinished
    /// work). Deterministic per `(seed, shards, kills)`; the reproduce
    /// line `FAULT_SEED=0x…` travels in the resulting [`FaultReport`].
    pub fn seeded_shard_kill(seed: u64, shards: usize, kills: usize) -> FaultPlan {
        assert!(shards >= 1);
        assert!(kills <= shards, "cannot kill more shards than the run has");
        let mut rng = SplitMix64::new(seed);
        let mut victims: Vec<usize> = (0..shards).collect();
        for i in 0..kills {
            let j = i + (rng.next_u64() as usize) % (shards - i);
            victims.swap(i, j);
        }
        let mut plan = FaultPlan::new();
        for &s in victims.iter().take(kills) {
            plan = plan.shard_kill_at(s, 1 + rng.next_u64() % 8);
        }
        plan.reproduce = Some(format!("FAULT_SEED=0x{seed:x}"));
        plan
    }

    /// Restricts this plan to shard `shard` of a launch whose grids have
    /// `total_warps` warps each: warp-level faults apply to every shard's
    /// grid verbatim (each grid numbers its warps from 0), and a matching
    /// [`FaultKind::ShardKill`] expands into a panic for every warp of the
    /// shard. The plan's reproduce line
    /// ([`FaultPlan::shard_reproduce_line`]) travels with each sub-plan.
    pub fn for_shard(&self, shard: usize, total_warps: usize) -> FaultPlan {
        let mut out = FaultPlan {
            faults: Vec::new(),
            reproduce: self.shard_reproduce_line(),
        };
        for f in &self.faults {
            match f.kind {
                FaultKind::ShardKill { shard: s, at_claim } if s == shard => {
                    for w in 0..total_warps {
                        out.faults.push(Fault {
                            warp: w,
                            kind: FaultKind::Panic { at_claim },
                        });
                    }
                }
                FaultKind::ShardKill { .. } => {}
                _ => out.faults.push(*f),
            }
        }
        out
    }

    /// A deterministic reproduce line for a launch: the seeded
    /// `FAULT_SEED=0x…` line when present, otherwise a literal rendering
    /// of the plan's shard kills (`SHARD_KILLS=shard@claim,…` — a
    /// hand-built plan is its own reproduction recipe). `None` when the
    /// plan neither was seeded nor kills shards.
    pub fn shard_reproduce_line(&self) -> Option<String> {
        if let Some(r) = &self.reproduce {
            return Some(r.clone());
        }
        let kills: Vec<String> = self
            .faults
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::ShardKill { shard, at_claim } => Some(format!("{shard}@{at_claim}")),
                _ => None,
            })
            .collect();
        (!kills.is_empty()).then(|| format!("SHARD_KILLS={}", kills.join(",")))
    }

    /// Panics, naming the shard, when the plan kills a shard a
    /// `shards`-shard launch does not have: such a kill could never fire,
    /// and a test built on it would prove nothing.
    pub(crate) fn check_shard_kills(&self, shards: usize) {
        for f in &self.faults {
            if let FaultKind::ShardKill { shard, .. } = f.kind {
                assert!(
                    shard < shards,
                    "shard kill names shard {shard}, but the run has {shards} shard(s)"
                );
            }
        }
    }

    /// Derives a plan from a single seed: `panics` warp deaths and
    /// `stalls` stalls, over distinct warps of a `total_warps`-warp grid.
    /// Trigger ordinals land in the first few dozen claims so the faults
    /// fire even on small fixture workloads. The same `(seed, total_warps,
    /// panics, stalls)` always yields the same plan; the reproduce line
    /// `FAULT_SEED=0x…` travels in the resulting [`FaultReport`].
    pub fn seeded(seed: u64, total_warps: usize, panics: usize, stalls: usize) -> FaultPlan {
        assert!(total_warps >= 1);
        assert!(
            panics + stalls <= total_warps,
            "cannot fault more warps than the grid has"
        );
        let mut rng = SplitMix64::new(seed);
        // Distinct victims via a seeded partial Fisher-Yates draw.
        let mut warps: Vec<usize> = (0..total_warps).collect();
        for i in 0..(panics + stalls) {
            let j = i + (rng.next_u64() as usize) % (total_warps - i);
            warps.swap(i, j);
        }
        let mut plan = FaultPlan::new();
        for &w in warps.iter().take(panics) {
            plan = plan.panic_at(w, 1 + rng.next_u64() % 48);
        }
        for &w in warps.iter().skip(panics).take(stalls) {
            let at = 1 + rng.next_u64() % 48;
            let ms = 5 + rng.next_u64() % 20;
            plan = plan.stall_at(w, at, Duration::from_millis(ms));
        }
        plan.reproduce = Some(format!("FAULT_SEED=0x{seed:x}"));
        plan
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// True when the plan can kill warps (panics or poisoned publishes) —
    /// the engine only installs the quiet panic-hook shim for such plans.
    pub fn injects_panics(&self) -> bool {
        self.faults
            .iter()
            .any(|f| !matches!(f.kind, FaultKind::Stall { .. }))
    }

    /// The reproduce line: `FAULT_SEED=0x…` for seeded plans, and the
    /// `SHARD_KILLS=…` rendering for a [`FaultPlan::for_shard`] scope of a
    /// hand-built plan that kills shards.
    pub fn reproduce_line(&self) -> Option<&str> {
        self.reproduce.as_deref()
    }

    /// Claim-path injection hook: called by the kernel once per claim with
    /// the warp's 1-based claim ordinal. Stalls sleep here; panic faults
    /// unwind with a [`FaultPanic`] payload. Called *before* an iteration
    /// index is taken, so a killed warp loses no claimed-but-unprocessed
    /// index.
    ///
    /// simt-check interaction: this hook fires *outside* every board lock,
    /// so the injected unwind holds nothing. The dying warp's vector clock
    /// is still published at the grid's join hook (which runs after
    /// `catch_unwind`), so the recovery path's reads of the dead warp's
    /// mirror are happens-before-ordered and the race checker stays silent
    /// across every fault-injection test — by construction, not by
    /// suppression.
    pub fn at_claim(&self, warp: usize, nth: u64) {
        for f in &self.faults {
            if f.warp != warp {
                continue;
            }
            match f.kind {
                FaultKind::Panic { at_claim } if at_claim == nth => {
                    std::panic::panic_any(FaultPanic {
                        warp,
                        at: nth,
                        poisoned_publish: false,
                    });
                }
                FaultKind::Stall { at_claim, delay } if at_claim == nth => {
                    std::thread::sleep(delay);
                }
                _ => {}
            }
        }
    }

    /// Publish-path injection hook: called inside the mirror critical
    /// section with the warp's 1-based publish ordinal; a matching poison
    /// fault panics while the lock is held.
    ///
    /// simt-check interaction: the panic unwinds through the tracked
    /// mirror guard, whose release token drops *before* the mutex unlocks
    /// (declaration order in `simt_check::Tracked`). The checker therefore
    /// observes a well-formed release even for a poisoned lock, and the
    /// containment path's subsequent `Mirror::lock` (poison-recovering)
    /// inherits the dead warp's clock through the lock clock — a poisoned
    /// publish is indistinguishable from a clean release to the race
    /// detector, which is exactly the guarantee the recovery protocol
    /// needs.
    pub fn at_publish(&self, warp: usize, nth: u64) {
        for f in &self.faults {
            if f.warp == warp {
                if let FaultKind::PoisonPublish { at_publish } = f.kind {
                    if at_publish == nth {
                        std::panic::panic_any(FaultPanic {
                            warp,
                            at: nth,
                            poisoned_publish: true,
                        });
                    }
                }
            }
        }
    }
}

/// Record of one contained warp death.
#[derive(Clone, Debug)]
pub struct WarpDeath {
    /// Global warp id that died.
    pub warp: usize,
    /// Rendered panic payload ([`FaultPanic::describe`] for injected
    /// faults, the panic message otherwise).
    pub message: String,
    /// Work items (steal payloads) reclaimed from the dead warp's mirror
    /// and in-flight state back onto the board.
    pub requeued: usize,
}

/// What the fault-tolerant execution layer observed during a run; attached
/// to [`MatchOutcome`](crate::MatchOutcome) whenever anything non-clean
/// happened (injected or real).
#[derive(Clone, Debug, Default)]
pub struct FaultReport {
    /// Contained warp deaths, in order of containment.
    pub deaths: Vec<WarpDeath>,
    /// Total work items requeued from dead warps.
    pub requeued: usize,
    /// Salvage relaunches performed to drain leftover requeued work: at
    /// most two per grid, injection-free, after its main pass (naive mode
    /// has no idle phase to absorb a late requeue; an all-warps-dead grid —
    /// a whole dead shard of a sharded run — leaves everything).
    pub salvage_launches: u32,
    /// Work items abandoned after the salvage budget ran out; when
    /// nonzero the count is a lower bound.
    pub unrecovered: usize,
    /// Panics that escaped the engine's containment layer (caught only by
    /// the grid backstop); when nonzero the count is a lower bound.
    pub escaped_panics: usize,
    /// Reproduce line when a seeded plan (`FAULT_SEED=0x…`) or a
    /// hand-built shard kill (`SHARD_KILLS=…`) was active.
    pub reproduce: Option<String>,
}

impl FaultReport {
    /// True when nothing fault-related happened (the engine then attaches
    /// no report at all).
    pub fn is_clean(&self) -> bool {
        self.deaths.is_empty()
            && self.requeued == 0
            && self.salvage_launches == 0
            && self.unrecovered == 0
            && self.escaped_panics == 0
    }

    /// True when every death was contained and every requeued work item
    /// was completed — the count is exact despite the deaths.
    pub fn fully_recovered(&self) -> bool {
        self.unrecovered == 0 && self.escaped_panics == 0
    }
}

/// Renders a caught panic payload, recognizing [`FaultPanic`].
pub(crate) fn describe_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(fp) = payload.downcast_ref::<FaultPanic>() {
        fp.describe()
    } else {
        stmatch_gpusim::describe_panic(payload)
    }
}

/// True when the payload is an injected [`FaultPanic`].
fn is_fault_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.downcast_ref::<FaultPanic>().is_some()
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send + 'static>;

/// Refcount of live [`SilenceGuard`]s plus the displaced original hook.
static SILENCE: Mutex<Option<PanicHook>> = Mutex::new(None);
static SILENCE_REFS: AtomicUsize = AtomicUsize::new(0);

/// Suppresses the default panic-hook output for [`FaultPanic`] payloads
/// process-wide until the returned guard drops. Reentrant (refcounted) and
/// transparent to real panics: non-fault payloads are forwarded to the
/// hook that was installed before the first guard. The engine wraps every
/// panic-injecting launch in one of these so deliberate warp deaths do not
/// spray "thread panicked" noise over test and benchmark output.
pub fn silence_fault_panics() -> SilenceGuard {
    let mut prev = SILENCE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // SeqCst: the refcount transition 0->1 / 1->0 decides who swaps the
    // process-wide hook; both sides also hold the SILENCE mutex, so SeqCst
    // is belt-and-braces ordering the count against the hook swap.
    if SILENCE_REFS.fetch_add(1, Ordering::SeqCst) == 0 {
        *prev = Some(std::panic::take_hook());
        std::panic::set_hook(Box::new(|info| {
            if is_fault_payload(info.payload()) {
                return; // injected fault: containment will report it
            }
            let prev = SILENCE
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(hook) = prev.as_ref() {
                hook(info);
            }
        }));
    }
    SilenceGuard(())
}

/// RAII guard of [`silence_fault_panics`]; restores the previous hook when
/// the last live guard drops.
pub struct SilenceGuard(());

impl Drop for SilenceGuard {
    fn drop(&mut self) {
        // SeqCst: the refcount serializes hook install/restore across
        // threads; the last decrement must totally order before the
        // hook swap below so no guard elsewhere still counts itself.
        if SILENCE_REFS.fetch_sub(1, Ordering::SeqCst) == 1 {
            let hook = SILENCE
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take();
            if let Some(hook) = hook {
                std::panic::set_hook(hook);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_distinct_per_seed() {
        let a = FaultPlan::seeded(0xfeed, 8, 2, 1);
        let b = FaultPlan::seeded(0xfeed, 8, 2, 1);
        assert_eq!(a, b);
        assert_eq!(a.faults().len(), 3);
        assert_eq!(a.reproduce_line(), Some("FAULT_SEED=0xfeed"));
        let c = FaultPlan::seeded(0xbeef, 8, 2, 1);
        assert_ne!(a.faults(), c.faults());
        // Victims are distinct warps.
        let mut warps: Vec<usize> = a.faults().iter().map(|f| f.warp).collect();
        warps.sort_unstable();
        warps.dedup();
        assert_eq!(warps.len(), 3);
    }

    #[test]
    fn shard_kill_expands_to_every_warp_of_its_grid() {
        let plan = FaultPlan::seeded_shard_kill(0xabc, 4, 2);
        assert_eq!(plan, FaultPlan::seeded_shard_kill(0xabc, 4, 2));
        assert_eq!(plan.reproduce_line(), Some("FAULT_SEED=0xabc"));
        // Distinct victim shards.
        let mut victims: Vec<usize> = plan
            .faults()
            .iter()
            .filter_map(|f| match f.kind {
                FaultKind::ShardKill { shard, .. } => Some(shard),
                _ => None,
            })
            .collect();
        assert_eq!(victims.len(), 2);
        victims.dedup();
        assert_eq!(victims.len(), 2);
        // Exactly the killed shards' sub-plans carry panics, one per warp.
        let killed: Vec<usize> = (0..4)
            .filter(|&s| !plan.for_shard(s, 6).is_empty())
            .collect();
        assert_eq!(killed.len(), 2);
        let sub = plan.for_shard(killed[0], 6);
        assert_eq!(sub.faults().len(), 6);
        assert!(sub.injects_panics());
        assert_eq!(sub.reproduce_line(), Some("FAULT_SEED=0xabc"));
        // The warp-level hooks never fire on the raw plan.
        plan.at_claim(0, 1);
        plan.at_publish(0, 1);
        // Warp-level faults replicate to every shard's sub-plan.
        let mixed = FaultPlan::new().panic_at(1, 3).shard_kill_at(0, 2);
        assert_eq!(mixed.for_shard(1, 4).faults().len(), 1);
        assert_eq!(mixed.for_shard(0, 4).faults().len(), 5);
        // A hand-built kill is its own reproduction recipe.
        assert_eq!(
            mixed.for_shard(1, 4).reproduce_line(),
            Some("SHARD_KILLS=0@2")
        );
    }

    #[test]
    fn injects_panics_classification() {
        assert!(!FaultPlan::new().injects_panics());
        assert!(!FaultPlan::new()
            .stall_at(0, 1, Duration::from_millis(1))
            .injects_panics());
        assert!(FaultPlan::new().panic_at(0, 1).injects_panics());
        assert!(FaultPlan::new().poison_publish_at(0, 1).injects_panics());
    }

    #[test]
    fn at_claim_panics_with_fault_payload_at_the_exact_ordinal() {
        let plan = FaultPlan::new().panic_at(3, 2);
        plan.at_claim(3, 1); // not yet
        plan.at_claim(2, 2); // wrong warp
        let _quiet = silence_fault_panics();
        let err = std::panic::catch_unwind(|| plan.at_claim(3, 2)).unwrap_err();
        let fp = err
            .downcast_ref::<FaultPanic>()
            .expect("FaultPanic payload");
        assert_eq!((fp.warp, fp.at, fp.poisoned_publish), (3, 2, false));
        assert!(describe_payload(err.as_ref()).contains("claim #2"));
    }

    #[test]
    fn silence_guard_restores_previous_hook_and_forwards_real_panics() {
        {
            let _g1 = silence_fault_panics();
            let _g2 = silence_fault_panics(); // reentrant
            let msg = std::panic::catch_unwind(|| panic!("real panic"))
                .map_err(|p| describe_payload(p.as_ref()))
                .unwrap_err();
            assert_eq!(msg, "real panic");
        }
        // SeqCst: pairs with the guard Drop's SeqCst decrement.
        assert_eq!(SILENCE_REFS.load(Ordering::SeqCst), 0);
    }
}
