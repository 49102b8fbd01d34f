//! Lock-order deadlock analysis and the instrumented lock guard.
//!
//! Every instrumented mutex belongs to a [`LockClass`] with a declared
//! rank. The rule (the static hierarchy, declared next to the locks in
//! `core/src/steal.rs` and mirrored in [`DECLARED_HIERARCHY`]): **a thread
//! may only acquire a lock of strictly greater rank than every lock it
//! already holds.** Any schedule that obeys the rule is deadlock-free.
//!
//! Independently of the declared ranks, each observed nesting `A held while
//! acquiring B` adds a class-level edge `A -> B` to a runtime acquisition
//! graph; a cycle in that graph is reported with the call sites that
//! created each edge. The rank check catches a violation on its first
//! occurrence; the cycle check proves that two observed orders actually
//! close a loop.
//!
//! [`tracked_lock`] also feeds the race detector: the acquired lock acts as
//! a happens-before sync object (acquire joins the thread clock from the
//! lock clock; release publishes the thread clock into it). The release
//! event fires *before* the mutex actually unlocks — see the field order in
//! [`Tracked`].

use crate::clock::VClock;
use crate::{with_my_clock, Severity};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::panic::Location;
use std::sync::{LazyLock, Mutex, MutexGuard, PoisonError};

/// The classes of instrumented locks, with their declared ranks.
///
/// See the hierarchy table in `core/src/steal.rs` (the authoritative,
/// code-adjacent copy) and DESIGN.md §4e.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockClass {
    /// The match service's mutable graph state (`service::Inner::dynamic`):
    /// the delta overlay and current snapshot. Ranked below everything:
    /// `apply_batch` holds it to fold a batch and pick the plan-cache
    /// entries it runs, `submit_watch` to register a watcher on an entry —
    /// both take the plan-cache lock inside it, never across a launch — and
    /// workers take it alone to fetch the current snapshot.
    ServiceGraph,
    /// The match service's admission queue (`service::Inner::queue`).
    /// Service locks rank *below* every engine lock: they are never held
    /// across a kernel launch, while engine locks are taken deep inside
    /// one — so "service before engine" is the only safe order.
    ServiceAdmission,
    /// The match service's canonical-form plan cache (`service::Inner::cache`):
    /// one entry per pattern — plan, verdict, anchored plans, maintained
    /// count and watchers — plus the cache statistics.
    ServicePlanCache,
    /// An engine's reusable-arena free-list (`pool::WarmSlot`).
    ServiceArenaPool,
    /// Per-block global steal slot (`Board::blocks[b].slot`).
    GlobalSlot,
    /// The engine-wide reclaimed-work queue (`Board::requeue`).
    Requeue,
    /// Per-warp stealable mirror stack (`Mirror::state`).
    Mirror,
    /// The engine's death-record log (recovery path).
    DeathLog,
    /// The enumeration result collector.
    Collector,
}

impl LockClass {
    /// Declared rank: acquisitions must be in strictly increasing rank.
    pub fn rank(self) -> u32 {
        match self {
            LockClass::ServiceGraph => 1,
            LockClass::ServiceAdmission => 2,
            LockClass::ServicePlanCache => 4,
            LockClass::ServiceArenaPool => 6,
            LockClass::GlobalSlot => 10,
            LockClass::Requeue => 20,
            LockClass::Mirror => 30,
            LockClass::DeathLog => 40,
            LockClass::Collector => 50,
        }
    }

    /// Human-readable class name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            LockClass::ServiceGraph => "ServiceGraph",
            LockClass::ServiceAdmission => "ServiceAdmission",
            LockClass::ServicePlanCache => "ServicePlanCache",
            LockClass::ServiceArenaPool => "ServiceArenaPool",
            LockClass::GlobalSlot => "GlobalSlot",
            LockClass::Requeue => "Requeue",
            LockClass::Mirror => "Mirror",
            LockClass::DeathLog => "DeathLog",
            LockClass::Collector => "Collector",
        }
    }

    fn all() -> [LockClass; 9] {
        [
            LockClass::ServiceGraph,
            LockClass::ServiceAdmission,
            LockClass::ServicePlanCache,
            LockClass::ServiceArenaPool,
            LockClass::GlobalSlot,
            LockClass::Requeue,
            LockClass::Mirror,
            LockClass::DeathLog,
            LockClass::Collector,
        ]
    }
}

/// The declared hierarchy, lowest rank first — rendered into diagnostics so
/// a violation message carries the rule it broke.
pub const DECLARED_HIERARCHY: &str = "ServiceGraph(1) < ServiceAdmission(2) < \
     ServicePlanCache(4) < ServiceArenaPool(6) < GlobalSlot(10) < \
     Requeue(20) < Mirror(30) < DeathLog(40) < Collector(50)";

thread_local! {
    /// Locks this thread currently holds, in acquisition order.
    static HELD: RefCell<Vec<(LockClass, usize, String)>> = const { RefCell::new(Vec::new()) };
}

struct OrderGraph {
    /// Observed class-level nesting edges: `(outer, inner) -> (site that
    /// held outer, site that acquired inner)`.
    edges: BTreeMap<(LockClass, LockClass), (String, String)>,
}

static ORDER: LazyLock<Mutex<OrderGraph>> = LazyLock::new(|| {
    Mutex::new(OrderGraph {
        edges: BTreeMap::new(),
    })
});

/// Per-(class, index) lock clocks for the race detector's happens-before
/// edges.
static LOCK_CLOCKS: LazyLock<Mutex<HashMap<(LockClass, usize), VClock>>> =
    LazyLock::new(|| Mutex::new(HashMap::new()));

pub(crate) fn reset() {
    ORDER.lock().unwrap().edges.clear();
    LOCK_CLOCKS.lock().unwrap().clear();
    // HELD is thread-local and self-balancing (guards pop on drop); live
    // guards across an enable() boundary keep their entries, which is the
    // conservative choice.
}

fn site_of(loc: &'static Location<'static>) -> String {
    format!("{}:{}", loc.file(), loc.line())
}

/// Looks for a cycle through `start` in the observed edge graph and, if one
/// exists, renders it (`A -> B at <site> -> ... -> A`).
fn find_cycle(graph: &OrderGraph, start: LockClass) -> Option<String> {
    // The class alphabet is tiny (see LockClass::all), so a depth-first
    // walk over all simple paths is plenty.
    fn dfs(
        graph: &OrderGraph,
        start: LockClass,
        here: LockClass,
        path: &mut Vec<LockClass>,
    ) -> bool {
        for next in LockClass::all() {
            if !graph.edges.contains_key(&(here, next)) {
                continue;
            }
            if next == start {
                path.push(next);
                return true;
            }
            if path.contains(&next) {
                continue;
            }
            path.push(next);
            if dfs(graph, start, next, path) {
                return true;
            }
            path.pop();
        }
        false
    }
    let mut path = vec![start];
    if !dfs(graph, start, start, &mut path) {
        return None;
    }
    let mut rendered = String::new();
    for pair in path.windows(2) {
        let (outer, inner) = (pair[0], pair[1]);
        let (held_at, acquired_at) = &graph.edges[&(outer, inner)];
        rendered.push_str(&format!(
            "{} -> {} (held at {held_at}, acquired at {acquired_at}); ",
            outer.name(),
            inner.name()
        ));
    }
    rendered.pop();
    rendered.pop();
    Some(rendered)
}

fn on_acquire_intent(class: LockClass, index: usize, loc: &'static Location<'static>) {
    let site = site_of(loc);
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        let mut order = ORDER.lock().unwrap();
        for (outer, outer_idx, outer_site) in held.iter() {
            order
                .edges
                .entry((*outer, class))
                .or_insert_with(|| (outer_site.clone(), site.clone()));
            if *outer == class && *outer_idx == index {
                crate::report(
                    Severity::Error,
                    "lock-cycle",
                    format!("recursive:{}:{index}:{site}", class.name()),
                    format!(
                        "recursive acquisition of {}[{index}] at {site} while already \
                         held (acquired at {outer_site}) — self-deadlock ({})",
                        class.name(),
                        crate::describe_self()
                    ),
                );
                continue;
            }
            if class.rank() <= outer.rank() {
                // A rank violation. If the opposite order has also been
                // observed, report the closed cycle (names both sites);
                // otherwise report the hierarchy violation itself.
                if let Some(cycle) = find_cycle(&order, class) {
                    crate::report(
                        Severity::Error,
                        "lock-cycle",
                        format!("cycle:{}:{}", outer.name(), class.name()),
                        format!(
                            "lock-order cycle: acquiring {}[{index}] at {site} while \
                             holding {}[{outer_idx}] (acquired at {outer_site}) closes \
                             the cycle {cycle} — declared hierarchy is {DECLARED_HIERARCHY}",
                            class.name(),
                            outer.name()
                        ),
                    );
                } else {
                    crate::report(
                        Severity::Error,
                        "lock-order",
                        format!("order:{}:{}:{site}", outer.name(), class.name()),
                        format!(
                            "lock-order violation: acquiring {}[{index}] (rank {}) at \
                             {site} while holding {}[{outer_idx}] (rank {}, acquired at \
                             {outer_site}) — declared hierarchy is {DECLARED_HIERARCHY}",
                            class.name(),
                            class.rank(),
                            outer.name(),
                            outer.rank()
                        ),
                    );
                }
            }
        }
        held.push((class, index, site));
    });
}

fn on_release(class: LockClass, index: usize) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held
            .iter()
            .rposition(|(c, i, _)| *c == class && *i == index)
        {
            held.remove(pos);
        }
    });
}

/// RAII token that emits the checker's release events. Declared as the
/// *first* field of [`Tracked`] so it drops before the inner `MutexGuard`:
/// the release event (publishing the holder's clock into the lock clock)
/// must be visible to the checker before any other thread can acquire the
/// mutex, otherwise a well-locked successor would look racy.
struct ReleaseToken {
    class: LockClass,
    index: usize,
    deadlock: bool,
    races: bool,
}

impl Drop for ReleaseToken {
    fn drop(&mut self) {
        if self.races {
            with_my_clock(|slot, clock| {
                let mut clocks = LOCK_CLOCKS.lock().unwrap();
                clocks
                    .entry((self.class, self.index))
                    .or_default()
                    .join(clock);
                clock.tick(slot);
            });
        }
        if self.deadlock {
            on_release(self.class, self.index);
        }
    }
}

/// An instrumented `MutexGuard`: derefs to the protected data, emits
/// acquire/release events for the deadlock and race checkers, and recovers
/// from poisoning (a poisoned instrumented lock means a warp died while
/// holding it; the engine's containment protocol repairs the protected
/// state, so propagating the poison would only turn one contained fault
/// into a cascade — same contract as `Mirror::lock`).
pub struct Tracked<'a, T> {
    // Field order is load-bearing: the token must be declared before
    // `guard` so Rust's declaration-order drop runs the release event while
    // the mutex is still held. (Underscore name: the field is only ever
    // "read" by its Drop impl.)
    _token: Option<ReleaseToken>,
    guard: MutexGuard<'a, T>,
}

impl<T> std::ops::Deref for Tracked<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for Tracked<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Locks `m` with checker instrumentation.
///
/// Event order: acquisition *intent* is checked against the held-lock stack
/// before blocking (a thread about to deadlock still reports the order
/// violation); the happens-before join from the lock clock happens after
/// the mutex is actually held. With all checkers off this compiles down to
/// `m.lock()` plus two relaxed flag loads.
#[inline] // checkers off: this must cost `m.lock()` plus two flag loads, inlined
#[track_caller]
pub fn tracked_lock<'a, T>(m: &'a Mutex<T>, class: LockClass, index: usize) -> Tracked<'a, T> {
    let deadlock = crate::deadlock_on();
    let races = crate::races_on();
    if deadlock {
        on_acquire_intent(class, index, Location::caller());
    }
    let guard = m.lock().unwrap_or_else(PoisonError::into_inner);
    if races {
        with_my_clock(|_, clock| {
            if let Some(lc) = LOCK_CLOCKS.lock().unwrap().get(&(class, index)) {
                clock.join(lc);
            }
        });
    }
    let token = (deadlock || races).then_some(ReleaseToken {
        class,
        index,
        deadlock,
        races,
    });
    Tracked {
        _token: token,
        guard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These unit tests mutate process-global checker state; the `serial`
    // guard keeps them (and only them — this is the only test binary in
    // the crate that enables checkers) from interleaving.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn increasing_rank_order_is_clean() {
        let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        crate::enable(crate::CheckConfig::all());
        let slot = Mutex::new(0u32);
        let mirror = Mutex::new(0u32);
        {
            let _a = tracked_lock(&slot, LockClass::GlobalSlot, 0);
            let _b = tracked_lock(&mirror, LockClass::Mirror, 1);
        }
        let diags = crate::drain();
        crate::disable();
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn inverted_order_reports_violation_then_cycle() {
        let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        crate::enable(crate::CheckConfig::all());
        let slot = Mutex::new(0u32);
        let mirror = Mutex::new(0u32);
        {
            let _a = tracked_lock(&slot, LockClass::GlobalSlot, 0);
            let _b = tracked_lock(&mirror, LockClass::Mirror, 1);
        }
        {
            let _b = tracked_lock(&mirror, LockClass::Mirror, 1);
            let _a = tracked_lock(&slot, LockClass::GlobalSlot, 0);
        }
        let diags = crate::drain();
        crate::disable();
        assert!(
            diags.iter().any(|d| d.code == "lock-cycle"
                && d.message.contains("cycle")
                && d.message.contains("GlobalSlot")
                && d.message.contains("Mirror")),
            "{diags:?}"
        );
    }

    #[test]
    fn recursive_acquisition_is_reported() {
        let _s = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        crate::enable(crate::CheckConfig::all());
        // Intent is recorded before blocking, so the diagnostic fires even
        // though actually re-locking would deadlock; use intent + manual
        // release to simulate.
        super::on_acquire_intent(LockClass::Mirror, 3, Location::caller());
        super::on_acquire_intent(LockClass::Mirror, 3, Location::caller());
        super::on_release(LockClass::Mirror, 3);
        super::on_release(LockClass::Mirror, 3);
        let diags = crate::drain();
        crate::disable();
        assert!(
            diags
                .iter()
                .any(|d| d.code == "lock-cycle" && d.message.contains("recursive")),
            "{diags:?}"
        );
    }
}
