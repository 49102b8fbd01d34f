//! simt-check: concurrency-correctness analysis for the software GPU.
//!
//! Three checkers, all off by default and zero-cost when off (every public
//! hook opens with a relaxed load of one `AtomicU8` and returns):
//!
//! 1. **Vector-clock data-race detection** ([`race`]): instrumented shared
//!    state (Board mirrors, global steal slots, the requeue queue, stack
//!    arena set slabs) is mapped to *shadow cells*. Each OS thread — the
//!    host plus one per simulated warp — carries a vector clock;
//!    happens-before edges come from instrumented lock acquire/release
//!    ([`lock::tracked_lock`]) and launch fork/join ([`launch_begin`] /
//!    [`register_warp`] / [`warp_exit`] / [`launch_end`]). An access whose
//!    clock does not dominate the cell's last conflicting access epoch is a
//!    data race; the diagnostic names both racing sites.
//!
//! 2. **Lock-order deadlock analysis** ([`lock`]): every instrumented lock
//!    belongs to a [`lock::LockClass`] with a declared rank (the static
//!    hierarchy table lives in `core/src/steal.rs` and is mirrored in
//!    [`lock::DECLARED_HIERARCHY`]). Acquiring a lock whose rank does not
//!    exceed the rank of a lock already held is a hierarchy violation;
//!    independently, class-level acquisition edges are accumulated into a
//!    runtime graph and any cycle is reported with the call sites that
//!    created each edge.
//!
//! 3. **SIMT divergence lints** ([`diverge`]): the software warp tracks its
//!    current active-lane mask. A ballot/shfl/scan that involves lanes
//!    inactive under a divergent mask mirrors real-GPU undefined behavior
//!    (`__ballot_sync` with non-participating lanes) and is a hard
//!    diagnostic. Per call site, wave occupancy is accumulated and
//!    sustained sub-warp utilization is reported as a warning.
//!
//! Checkers are process-global (enable once, run a scenario, [`drain`]).
//! Tests that enable them must serialize against each other; the
//! workspace's `tests/simt_check.rs` does so behind a single mutex.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::Mutex;

pub mod clock;
pub mod diverge;
pub mod lock;
pub mod race;

use clock::VClock;

// ---------------------------------------------------------------------------
// Checker flags
// ---------------------------------------------------------------------------

const F_RACES: u8 = 1 << 0;
const F_DEADLOCK: u8 = 1 << 1;
const F_DIVERGENCE: u8 = 1 << 2;

/// Which checkers a scenario enables, plus divergence-lint thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheckConfig {
    /// Vector-clock data-race detection over shadow cells.
    pub races: bool,
    /// Lock-order hierarchy + runtime acquisition-graph cycle analysis.
    pub deadlock: bool,
    /// Ballot-mask contract + sub-warp utilization lints.
    pub divergence: bool,
    /// A wave call site is only eligible for the sub-warp-utilization
    /// warning once it has issued at least this many waves (one-off partial
    /// tail waves are normal).
    pub util_min_waves: u64,
    /// Utilization (active lane slots / issued lane slots) at or below
    /// which a sustained wave site is flagged.
    pub util_threshold: f64,
}

impl CheckConfig {
    /// All checkers on, default thresholds.
    pub fn all() -> CheckConfig {
        CheckConfig {
            races: true,
            deadlock: true,
            divergence: true,
            util_min_waves: 8,
            util_threshold: 0.5,
        }
    }

    /// All checkers off (the process default).
    pub fn off() -> CheckConfig {
        CheckConfig {
            races: false,
            deadlock: false,
            divergence: false,
            util_min_waves: 8,
            util_threshold: 0.5,
        }
    }

    /// Parses a checker list like `races,deadlock,divergence` (also accepts
    /// `all` / `none`). Unknown names are an error so typos in reproduce
    /// lines fail loudly.
    pub fn parse(spec: &str) -> Result<CheckConfig, String> {
        let mut cfg = CheckConfig::off();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            match part {
                "races" => cfg.races = true,
                "deadlock" => cfg.deadlock = true,
                "divergence" => cfg.divergence = true,
                "all" => {
                    cfg.races = true;
                    cfg.deadlock = true;
                    cfg.divergence = true;
                }
                "none" => {}
                other => return Err(format!("unknown checker {other:?} in {spec:?}")),
            }
        }
        Ok(cfg)
    }

    /// Reads a [`CheckConfig`] from an environment variable (the reproduce
    /// lines use `SIMT_CHECK=races,deadlock,divergence`). `None` when the
    /// variable is unset.
    pub fn from_env(var: &str) -> Option<Result<CheckConfig, String>> {
        std::env::var(var).ok().map(|v| CheckConfig::parse(&v))
    }

    /// Renders the enabled-checker list in the form `parse` accepts —
    /// the `SIMT_CHECK=` value of a reproduce line.
    pub fn spec(&self) -> String {
        let mut parts = Vec::new();
        if self.races {
            parts.push("races");
        }
        if self.deadlock {
            parts.push("deadlock");
        }
        if self.divergence {
            parts.push("divergence");
        }
        if parts.is_empty() {
            parts.push("none");
        }
        parts.join(",")
    }
}

/// The single global flag byte. Every instrumentation hook in `gpu-sim` and
/// `core` gates on one relaxed load of this static, so a disabled checker
/// costs one predictable branch per hook — the "zero-cost no-op statics"
/// contract. `check hotpath` verifies metrics stay bit-identical with
/// checkers off.
static FLAGS: AtomicU8 = AtomicU8::new(0);

/// Sub-warp utilization thresholds, fixed at `enable` time.
/// (bits 0..63: min_waves, stored separately for simplicity.)
static UTIL_MIN_WAVES: Mutex<u64> = Mutex::new(8);
static UTIL_THRESHOLD_MILLI: AtomicU32 = AtomicU32::new(500);

/// Enables the given checkers and clears all analysis state (shadow cells,
/// lock graph, wave-site stats, pending diagnostics). Thread clocks of
/// live threads are *not* reset — clocks are monotone, so stale entries can
/// only over-approximate happens-before, never invent a race.
pub fn enable(cfg: CheckConfig) {
    reset_state();
    *UTIL_MIN_WAVES.lock().unwrap() = cfg.util_min_waves;
    UTIL_THRESHOLD_MILLI.store(
        (cfg.util_threshold * 1000.0).round() as u32,
        Ordering::Relaxed,
    );
    let mut bits = 0;
    if cfg.races {
        bits |= F_RACES;
    }
    if cfg.deadlock {
        bits |= F_DEADLOCK;
    }
    if cfg.divergence {
        bits |= F_DIVERGENCE;
    }
    FLAGS.store(bits, Ordering::SeqCst);
}

/// Turns every checker off (instrumentation hooks return to no-ops).
/// Pending diagnostics survive until the next [`drain`] or [`enable`].
pub fn disable() {
    FLAGS.store(0, Ordering::SeqCst);
}

#[inline(always)]
pub fn races_on() -> bool {
    FLAGS.load(Ordering::Relaxed) & F_RACES != 0
}

#[inline(always)]
pub fn deadlock_on() -> bool {
    FLAGS.load(Ordering::Relaxed) & F_DEADLOCK != 0
}

#[inline(always)]
pub fn divergence_on() -> bool {
    FLAGS.load(Ordering::Relaxed) & F_DIVERGENCE != 0
}

#[inline(always)]
pub fn any_on() -> bool {
    FLAGS.load(Ordering::Relaxed) != 0
}

fn reset_state() {
    race::reset();
    lock::reset();
    diverge::reset();
    let mut sink = SINK.lock().unwrap();
    sink.diags.clear();
    sink.seen.clear();
    sink.errors = 0;
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// Diagnostic severity: `Error` fails a gate, `Warning` is advisory
/// (sub-warp utilization).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

/// One checker finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    pub severity: Severity,
    /// Stable machine-grepable code: `race`, `lock-cycle`, `lock-order`,
    /// `ballot-mask`, `shfl-mask`, `scan-mask`, `subwarp-util`,
    /// `budget-underflow`.
    pub code: &'static str,
    pub message: String,
    /// Deterministic reproduce line (set via [`set_reproduce`]).
    pub reproduce: Option<String>,
}

impl Diagnostic {
    /// Renders the diagnostic the way the `simt_check` bin prints it.
    pub fn render(&self) -> String {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let mut out = format!("{sev}[{}]: {}", self.code, self.message);
        if let Some(rep) = &self.reproduce {
            out.push_str(&format!("\n    reproduce: {rep}"));
        }
        out
    }
}

struct Sink {
    diags: Vec<Diagnostic>,
    /// Dedup keys so a hot loop reports each distinct finding once.
    seen: std::collections::HashSet<String>,
    errors: usize,
    reproduce: Option<String>,
}

static SINK: std::sync::LazyLock<Mutex<Sink>> = std::sync::LazyLock::new(|| {
    Mutex::new(Sink {
        diags: Vec::new(),
        seen: std::collections::HashSet::new(),
        errors: 0,
        reproduce: None,
    })
});

/// Sets the command rendered into every subsequent diagnostic's
/// `reproduce:` line. The convention (documented in the README) is
/// `SIMT_CHECK=<spec> <command>` so a reader can re-run the exact scenario.
pub fn set_reproduce(line: impl Into<String>) {
    SINK.lock().unwrap().reproduce = Some(line.into());
}

/// Files a diagnostic, deduplicating by `(code, dedup_key)`.
pub(crate) fn report(severity: Severity, code: &'static str, dedup_key: String, message: String) {
    let mut sink = SINK.lock().unwrap();
    if !sink.seen.insert(format!("{code}:{dedup_key}")) {
        return;
    }
    if severity == Severity::Error {
        sink.errors += 1;
    }
    let reproduce = sink.reproduce.clone();
    sink.diags.push(Diagnostic {
        severity,
        code,
        message,
        reproduce,
    });
}

/// Files an API-misuse diagnostic from outside the crate (e.g. the memory
/// budget's underflow guard).
pub fn report_misuse(code: &'static str, message: String) {
    report(Severity::Error, code, message.clone(), message);
}

/// Number of error-severity diagnostics filed since the last
/// [`enable`]/[`drain`].
pub fn error_count() -> usize {
    SINK.lock().unwrap().errors
}

/// Removes and returns all pending diagnostics, appending sub-warp
/// utilization warnings computed from the accumulated wave-site stats
/// (which are cleared too).
pub fn drain() -> Vec<Diagnostic> {
    let min_waves = *UTIL_MIN_WAVES.lock().unwrap();
    let threshold = UTIL_THRESHOLD_MILLI.load(Ordering::Relaxed) as f64 / 1000.0;
    for (site, waves, issued, active) in diverge::drain_sites() {
        if waves < min_waves || issued == 0 {
            continue;
        }
        let util = active as f64 / issued as f64;
        if util <= threshold {
            report(
                Severity::Warning,
                "subwarp-util",
                site.clone(),
                format!(
                    "sustained sub-warp utilization at {site}: {waves} waves, \
                     {active}/{issued} lane slots active ({:.1}%) — combine work \
                     across slots (Fig. 8) or lower the unroll factor",
                    util * 100.0
                ),
            );
        }
    }
    let mut sink = SINK.lock().unwrap();
    sink.errors = 0;
    sink.seen.clear();
    std::mem::take(&mut sink.diags)
}

// ---------------------------------------------------------------------------
// Thread registry: per-thread vector clocks and warp identity
// ---------------------------------------------------------------------------

static NEXT_SLOT: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static SLOT: std::cell::Cell<u32> = const { std::cell::Cell::new(u32::MAX) };
    static WARP_ID: std::cell::Cell<i64> = const { std::cell::Cell::new(-1) };
    static CLOCK: std::cell::RefCell<VClock> = const { std::cell::RefCell::new(VClock::new()) };
}

/// This thread's clock slot, lazily assigned. Slots are never reused;
/// clocks are monotone for the life of the process.
pub(crate) fn my_slot() -> u32 {
    SLOT.with(|s| {
        let mut v = s.get();
        if v == u32::MAX {
            v = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
            s.set(v);
            CLOCK.with(|c| c.borrow_mut().tick(v));
        }
        v
    })
}

/// Runs `f` with this thread's clock (slot assigned on first use).
pub(crate) fn with_my_clock<R>(f: impl FnOnce(u32, &mut VClock) -> R) -> R {
    let slot = my_slot();
    CLOCK.with(|c| f(slot, &mut c.borrow_mut()))
}

/// Advances this thread's epoch — called after releasing a lock and at warp
/// ballots/barriers so distinct synchronization intervals get distinct
/// epochs.
#[inline] // called per simulated ballot; the races-off path is one flag load
pub fn epoch_advance() {
    if !races_on() {
        return;
    }
    with_my_clock(|slot, clock| clock.tick(slot));
}

/// The simulated warp id this OS thread is running, if any (for
/// diagnostics).
pub fn current_warp() -> Option<usize> {
    let id = WARP_ID.with(|w| w.get());
    (id >= 0).then_some(id as usize)
}

pub(crate) fn describe_self() -> String {
    match current_warp() {
        Some(w) => format!("warp {w}"),
        None => "host thread".to_string(),
    }
}

// ---------------------------------------------------------------------------
// Launch fork/join happens-before
// ---------------------------------------------------------------------------

static FORK_CLOCK: Mutex<VClock> = Mutex::new(VClock::new());
static JOIN_CLOCK: Mutex<VClock> = Mutex::new(VClock::new());

/// Called by the grid on the launching thread just before warp threads
/// spawn: merges the launcher's clock into the fork point. Joining (rather
/// than overwriting) keeps the hook correct when several launchers are in
/// flight at once — a resident service's pool workers launch concurrently,
/// and an overwrite would erase launcher A's pre-launch history just as A's
/// warps inherit the fork clock, inventing races on state A prepared (e.g.
/// `Board::preload`'s requeue write). The join is a conservative
/// over-approximation: it can only add happens-before edges, never remove
/// them, so it may mask a cross-launcher race but cannot report a false one.
pub fn launch_begin() {
    if !races_on() {
        return;
    }
    with_my_clock(|_, clock| {
        FORK_CLOCK.lock().unwrap().join(clock);
    });
}

/// Called on each warp thread as it starts: inherits the fork-point clock
/// (everything the launcher did happens-before every warp) and records the
/// warp id for diagnostics.
pub fn register_warp(warp_id: usize) {
    WARP_ID.with(|w| w.set(warp_id as i64));
    if !races_on() {
        return;
    }
    with_my_clock(|slot, clock| {
        clock.join(&FORK_CLOCK.lock().unwrap());
        clock.tick(slot);
    });
}

/// Called on each warp thread after its kernel body returns (or is caught
/// panicking): contributes its clock to the join point. Injected fault
/// panics are contained before this hook, so a dead warp still publishes
/// its clock — that is what keeps salvage relaunches and post-join state
/// reads race-free in the checker's eyes.
pub fn warp_exit() {
    WARP_ID.with(|w| w.set(-1));
    if !races_on() {
        return;
    }
    with_my_clock(|_, clock| {
        JOIN_CLOCK.lock().unwrap().join(clock);
    });
}

/// Called by the grid on the launching thread after all warp threads have
/// been joined: every warp's history happens-before everything the launcher
/// does next (leftover preloading, metrics aggregation, golden checks).
pub fn launch_end() {
    if !races_on() {
        return;
    }
    with_my_clock(|slot, clock| {
        clock.join(&JOIN_CLOCK.lock().unwrap());
        clock.tick(slot);
    });
}

// ---------------------------------------------------------------------------
// Object identity for instrumented containers
// ---------------------------------------------------------------------------

static NEXT_OBJECT: AtomicU32 = AtomicU32::new(0);

/// Allocates a process-unique id for an instrumented container (e.g. a
/// stack arena), so shadow cells from different instances never alias.
pub fn next_object_id() -> u32 {
    NEXT_OBJECT.fetch_add(1, Ordering::Relaxed)
}

// Re-export the workhorse types at the crate root: instrumentation sites
// read better as `simt_check::tracked_lock(...)` / `simt_check::Cell::...`.
pub use lock::{tracked_lock, LockClass, Tracked};
pub use race::{note_read, note_write, note_write_at, Cell};
