//! The resident match service: one shared graph, a canonical plan cache,
//! and batched admission onto one resident engine.
//!
//! [`Engine::run`] is the one-shot API: it compiles the pattern, builds a
//! grid, allocates the stack slabs, runs, and drops them. A workload that
//! answers many pattern queries against the *same* graph repays none of
//! that setup.
//! [`MatchService`] keeps the expensive state resident (DESIGN.md §4g):
//!
//! * **Shared graph** — the service holds an immutable `Arc<Graph>`. A
//!   hub-bitmap index, if the caller attached one
//!   ([`Graph::with_hub_bitmap`]), travels with it: every query routes hub
//!   rows, and every delta snapshot carries a word-patched copy.
//! * **Canonical plan cache** — compiled [`MatchPlan`]s are cached keyed
//!   by [`iso::canonical_form`], so relabeled/isomorphic submissions hit
//!   the same entry (counts are isomorphism-invariant). Compilation runs
//!   *outside* the cache lock; racing compiles of the same form collapse
//!   to one entry through the entry API.
//! * **Admission** — clients [`submit`](MatchService::submit) from any
//!   number of threads; each admission wakes one idle worker (an idle
//!   worker parks until then, and never polls); each worker thread pops
//!   one request per admission-lock acquisition and serves it on the
//!   service's one
//!   [`Engine`], whose arena free-list every query and every batch's delta
//!   launches recycle through ([`crate::pool`]). A query's deadline and
//!   fault plan travel on its [`Launch`]. Warp threads are the
//!   simulator's, parked between launches for every caller alike.
//! * **Maintained counts** (DESIGN.md §4k) — on a delta-enabled service,
//!   each cached edge-induced plan keeps its last exact count, and every
//!   [`apply_batch`](MatchService::apply_batch) advances the counts that
//!   were read since the last one, or are watched, by its [`MatchDelta`]
//!   (the rest drop, and recount when next asked). A query on that
//!   snapshot, unless vertex-induced or carrying a `fault_plan`, is
//!   answered without a launch: see [`MatchOutcome`] for what such an
//!   answer holds. A watcher ([`submit_watch`](MatchService::submit_watch))
//!   is a callback subscribed to the same entry, so a batch runs each
//!   entry's plan set once for its watchers and its count alike.
//! * **Fault isolation** — each query runs under its own containment:
//!   injected warp deaths, launch failures, expired deadlines, and even
//!   escaped panics produce a per-query [`ServiceError`] without
//!   poisoning the shared pool; concurrently admitted healthy queries
//!   still return exact counts.
//!
//! ## Lock hierarchy
//!
//! The service adds three classes *below* every engine lock (see
//! `simt_check::LockClass`): `ServiceAdmission(2)` (the queue),
//! `ServicePlanCache(4)` (the registry: one entry per canonical pattern,
//! holding its plan, verdict, anchored plans, maintained count and
//! watchers, plus the cache statistics), and `ServiceArenaPool(6)` (the
//! engine's arena free-list). A delta-enabled service's `ServiceGraph(1)`
//! lock may take the cache lock inside it: a batch picks the entries it
//! runs, and a watcher registers, under both. None is ever held across an
//! engine launch, and the cache lock is never held while compiling: a
//! batch picks its entries under it, releases it for the launches, and
//! commits each count only if it is still at the pre-batch version. The
//! plan cache carries a shadow cell (`Cell::plan_cache(id)`) so the race
//! checker can prove every access goes through the tracked lock — and
//! kill the seeded [`mutation::cache_insert_without_lock`] by name.

use crate::config::EngineConfig;
use crate::delta::{DeltaPlans, MatchDelta, StagedBatch};
use crate::engine::{Engine, Launch, MatchOutcome};
use crate::fault::FaultPlan;
use std::collections::{hash_map, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};
use stmatch_gpusim::{GridMetrics, LaunchError};
use stmatch_graph::{AppliedBatch, DeltaOverlay, EdgeOp, Graph};
use stmatch_pattern::{iso, MatchPlan, Pattern, PlanOptions};
use stmatch_plan_verify::Verification;

/// Admission lane of a query. High-priority requests dequeue ahead of
/// every queued normal request, with one guardrail: after seven high
/// requests in a row while a normal request waits, the *oldest* normal
/// request goes next. A sustained high-priority flood
/// therefore delays the normal lane, but can never starve it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// The default lane.
    #[default]
    Normal,
    /// Dequeues ahead of queued normal requests (bounded by the
    /// starvation guardrail above).
    High,
}

/// The most high requests served in a row while a normal request waits:
/// one normal in eight.
const HIGH_RUN: u32 = 7;

/// Per-query options carried through admission.
#[derive(Clone, Debug, Default)]
pub struct QueryOptions {
    /// Wall-clock budget measured from *admission* (not launch): a query
    /// that expires while still queued fails without running; one that
    /// expires mid-run is cancelled cooperatively and returns
    /// [`ServiceError::DeadlineExceeded`] with the partial outcome.
    pub deadline: Option<Duration>,
    /// Deterministic fault injection for this query only (testing/chaos).
    pub fault_plan: Option<FaultPlan>,
    /// Overrides the service engine's `induced` semantics for this query.
    /// Plans cache separately per semantics (the flag is part of the key).
    pub induced: Option<bool>,
    /// Admission lane (see [`Priority`]).
    pub priority: Priority,
}

/// Why a query failed. Always per-query: no variant implies anything
/// about the health of the service or its engine.
#[derive(Debug)]
pub enum ServiceError {
    /// The deadline expired — in the queue (`partial == None`) or mid-run
    /// (`partial` holds the cancelled outcome, a lower-bound count).
    DeadlineExceeded {
        /// The partial outcome of a mid-run cancellation.
        partial: Option<Box<MatchOutcome>>,
    },
    /// The launch did not fit its shared or global budget at the
    /// configured geometry (the error names what overflowed).
    Launch(LaunchError),
    /// The run panicked past containment; the panic was caught at the
    /// query boundary, so the worker and the engine survive.
    QueryPanicked(String),
    /// The service is shutting down; the query was not run.
    ShuttingDown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::DeadlineExceeded { partial: None } => {
                write!(f, "deadline expired before the query launched")
            }
            ServiceError::DeadlineExceeded { partial: Some(out) } => {
                write!(f, "deadline expired mid-run (partial count {})", out.count)
            }
            ServiceError::Launch(e) => write!(f, "launch failed: {e}"),
            ServiceError::QueryPanicked(msg) => write!(f, "query panicked: {msg}"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Service sizing: the engine template plus the worker count.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Template configuration for every query (per-query options may
    /// override `induced`): the configuration of the service's one engine,
    /// and the plan options baked into cache entries.
    pub engine: EngineConfig,
    /// Worker threads, sharing the service's engine. Minimum 1.
    pub workers: usize,
}

impl ServiceConfig {
    /// Two workers — small enough for tests, enough parallelism to
    /// exercise the shared structures.
    pub fn new(engine: EngineConfig) -> ServiceConfig {
        ServiceConfig { engine, workers: 2 }
    }

    /// Sets the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> ServiceConfig {
        self.workers = workers.max(1);
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig::new(EngineConfig::default())
    }
}

/// Plan-cache hit/miss/occupancy counters, kept under the cache lock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (a racer whose compile lost to
    /// another's entry is served from it too).
    pub hits: u64,
    /// Lookups that landed an entry: one per entry.
    pub misses: u64,
    /// Entries resident — at most one per (canonical form, induced).
    pub entries: usize,
    /// Cache entries that went through static verification (at most one
    /// verification per canonical entry; zero until somebody asks
    /// [`MatchService::verification`]).
    pub verified: u64,
    /// Total diagnostics those verifications raised (0 = every cached
    /// plan is certified clean).
    pub diagnostics: u64,
    /// Answers served from a maintained count, without a launch.
    pub maintained: u64,
}

/// Identifier of a watcher registered with
/// [`MatchService::submit_watch`]; pass to
/// [`MatchService::cancel_watch`] to stop deliveries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WatchId(u64);

/// One per-batch notification delivered to a watcher: the net batch that
/// was applied plus the pattern's [`MatchDelta`] under it. A failed delta
/// computation (launch error or contained panic) is delivered as `Err`
/// without unregistering the watcher or affecting other watchers — the
/// same per-query fault isolation the one-shot lanes get.
#[derive(Clone, Debug)]
pub struct WatchEvent {
    /// The watcher this event belongs to.
    pub watch: WatchId,
    /// Graph version after the batch (see [`DeltaOverlay::version`]).
    pub version: u64,
    /// The net effect of the applied batch.
    pub batch: AppliedBatch,
    /// The pattern's match-count delta under the batch.
    pub delta: Result<MatchDelta, String>,
}

/// A registered watcher: its id and its callback.
type Watcher = (WatchId, Arc<dyn Fn(WatchEvent) + Send + Sync>);

/// The mutable topology of a delta-enabled service, guarded by the
/// rank-1 `ServiceGraph` lock: held only to fold a batch and pick its
/// entries, or to register a watcher — never across a launch, a compile,
/// or a watcher callback, so batch application structurally cannot
/// starve the admission or query lanes.
struct GraphState {
    overlay: DeltaOverlay,
    /// Snapshot of the current topology; queries resolve this `Arc` at
    /// execute time and run against it unlocked.
    current: Arc<Graph>,
}

/// A query's result.
type Outcome = Result<MatchOutcome, ServiceError>;

/// The one-shot slot a ticket waits on, filled once by its [`Reply`].
#[derive(Default)]
struct ReplySlot {
    result: Mutex<Option<Outcome>>,
    filled: Condvar,
}

/// A pending reply: hold it and [`wait`](Ticket::wait) when the result is
/// needed, so a client can overlap submissions.
pub struct Ticket {
    slot: Arc<ReplySlot>,
}

impl Ticket {
    /// Blocks until the query finishes. A service dropped with the query
    /// still queued reports [`ServiceError::ShuttingDown`].
    pub fn wait(self) -> Outcome {
        let ReplySlot { result, filled } = &*self.slot;
        let result = result.lock().unwrap_or_else(PoisonError::into_inner);
        let mut result = filled
            .wait_while(result, |r| r.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        result.take().expect("filled")
    }
}

/// The worker's end of a ticket's slot. Dropped unfilled — a request the
/// service never ran — it fills the slot with
/// [`ServiceError::ShuttingDown`].
struct Reply(Option<Arc<ReplySlot>>);

impl Reply {
    fn fill(&mut self, result: Outcome) {
        if let Some(slot) = self.0.take() {
            *slot.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            slot.filled.notify_one();
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        self.fill(Err(ServiceError::ShuttingDown));
    }
}

/// One admitted query.
struct Request {
    pattern: Pattern,
    opts: QueryOptions,
    admitted: Instant,
    reply: Reply,
}

/// The two-lane admission queue (see [`Priority`]). Both lanes are FIFO;
/// the starvation guardrail lives in [`AdmissionQueue::pop`].
#[derive(Default)]
struct AdmissionQueue {
    high: VecDeque<Request>,
    normal: VecDeque<Request>,
    /// High requests served in a row while a normal request waited.
    high_run: u32,
    /// Workers that found both lanes empty and parked: each admission
    /// takes one and unparks it.
    idle: Vec<Thread>,
}

impl AdmissionQueue {
    fn push(&mut self, req: Request) {
        match req.opts.priority {
            Priority::High => self.high.push_back(req),
            Priority::Normal => self.normal.push_back(req),
        }
    }

    /// Removes the next request: the high lane's oldest, unless
    /// [`HIGH_RUN`] high requests in a row have passed a waiting normal
    /// request — then the normal lane's oldest.
    fn pop(&mut self) -> Option<Request> {
        if self.normal.is_empty() || self.high_run < HIGH_RUN {
            if let Some(r) = self.high.pop_front() {
                self.high_run += u32::from(!self.normal.is_empty());
                return Some(r);
            }
        }
        self.high_run = 0;
        self.normal.pop_front()
    }
}

/// Cache key: the canonical labeled form plus the matching semantics the
/// plan was compiled for. Two patterns map to the same key iff they are
/// isomorphic (as labeled graphs) and ask for the same semantics.
#[derive(Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    labels: Vec<u32>,
    adj: Vec<u8>,
    induced: bool,
}

impl PlanKey {
    fn new(pattern: &Pattern, induced: bool) -> PlanKey {
        let (labels, adj) = iso::canonical_form(pattern);
        PlanKey {
            labels,
            adj,
            induced,
        }
    }
}

/// The service's one record per canonical pattern.
struct Entry {
    /// The canonical plan, with the stream every query on it interprets.
    plan: Arc<MatchPlan>,
    /// Static verification verdict, filled at most once per canonical
    /// entry, by the first [`MatchService::verification`] ask (the graph is
    /// resident, so the certificate stays valid for the service's
    /// lifetime). Every later launch of the entry carries it.
    verification: Arc<OnceLock<Arc<Verification>>>,
    /// The anchored plans that advance the entry's count and that its
    /// watchers run (delta-enabled services, edge-induced entries): they
    /// land graph-free with the entry, and the miss that landed it swaps in
    /// the orders its estimate chose.
    delta: Option<Arc<DeltaPlans>>,
    /// The entry's exact count at one snapshot, if it keeps one.
    count: Option<Maintained>,
    /// Watchers subscribed to the entry's deltas.
    watchers: Vec<Watcher>,
}

/// The registry: the entries, and the statistics kept with them.
#[derive(Default)]
struct PlanCache {
    entries: HashMap<PlanKey, Entry>,
    /// Every counter but `entries`, which is read off the map.
    stats: CacheStats,
    /// The id of the next watcher to register.
    next_watch: u64,
}

/// An entry's exact count at one snapshot (see the module docs).
struct Maintained {
    version: u64,
    /// The last recount's outcome, its count advanced by every batch since
    /// and its metrics the delta launches' since the last answer.
    answer: MatchOutcome,
    /// Answered since its last advance: an unwatched count advances only
    /// if it was.
    read: bool,
}

/// An entry a batch runs, as the batch picked it: the entry's plan (which
/// identifies it), its delta plans and its watchers.
type Run = (Arc<MatchPlan>, Arc<DeltaPlans>, Vec<Watcher>);

/// State shared between clients and workers.
struct Inner {
    graph: Arc<Graph>,
    cfg: ServiceConfig,
    /// Instance id scoping this service's lock indices and its plan-cache
    /// shadow cell, so concurrent services never alias in the checker.
    check_id: u32,
    queue: Mutex<AdmissionQueue>,
    cache: Mutex<PlanCache>,
    shutdown: AtomicBool,
    /// The engine every query and batch runs on, and every cache miss's
    /// cost estimate derives its steal-free engine from. On a geometry no
    /// grid can launch, each query fails by name.
    engine: Engine,
    /// The mutable topology — `Some` iff `EngineConfig::delta` is
    /// enabled. Without it the service is the classic immutable-graph
    /// resident service, bit for bit.
    dynamic: Option<Mutex<GraphState>>,
}

impl Inner {
    fn lock_queue(&self) -> simt_check::Tracked<'_, AdmissionQueue> {
        simt_check::tracked_lock(
            &self.queue,
            simt_check::LockClass::ServiceAdmission,
            self.check_id as usize,
        )
    }

    /// The registry, noted as written: every access but
    /// [`MatchService::cache_stats`] writes at least a counter.
    fn lock_cache(&self) -> simt_check::Tracked<'_, PlanCache> {
        let cache = simt_check::tracked_lock(
            &self.cache,
            simt_check::LockClass::ServicePlanCache,
            self.check_id as usize,
        );
        simt_check::note_write(simt_check::Cell::plan_cache(self.check_id));
        cache
    }

    /// The graph-state lock, rank 1 — acquired before any other tracked
    /// lock; only the cache lock is ever taken inside it. `None` when
    /// delta mode is off.
    fn lock_graph(&self) -> Option<simt_check::Tracked<'_, GraphState>> {
        self.dynamic.as_ref().map(|m| {
            simt_check::tracked_lock(
                m,
                simt_check::LockClass::ServiceGraph,
                self.check_id as usize,
            )
        })
    }

    /// The graph a query should run against right now: the current delta
    /// snapshot, or the immutable shared graph.
    fn resolve_graph(&self) -> Arc<Graph> {
        match self.lock_graph() {
            Some(state) => Arc::clone(&state.current),
            None => Arc::clone(&self.graph),
        }
    }

    /// The count `key`'s entry maintains at snapshot `at`, if it keeps one,
    /// with the metrics of the delta launches since its last answer moved
    /// out.
    fn answer(&self, key: &PlanKey, at: u64) -> Option<MatchOutcome> {
        let mut cache = self.lock_cache();
        let m = cache.entries.get_mut(key)?.count.as_mut();
        let m = m.filter(|m| m.version == at)?;
        m.read = true;
        let metrics = std::mem::take(&mut m.answer.metrics);
        let answer = MatchOutcome {
            metrics,
            ..m.answer.clone()
        };
        cache.stats.maintained += 1;
        Some(answer)
    }

    /// Cached-or-compiled plan for `pattern` (its canonical `key`), with
    /// its verdict cell. The fast path is one lock acquisition and a map
    /// probe; the miss path compiles outside the lock and inserts through
    /// the entry API, so two racers compiling the same canonical form
    /// still land exactly one entry, and only the one that landed it
    /// counts a miss. That racer then chooses the delta plans' orders on
    /// `graph`, the snapshot it resolved ([`Engine::compile_delta_on`]),
    /// by `deadline` if it has one (orbits left unchosen at the deadline
    /// keep the graph-free order), and swaps them into the entry; until
    /// then the entry serves its graph-free orders, and no other racer
    /// waits for the estimate or repeats it.
    fn plan_for(
        &self,
        pattern: &Pattern,
        key: &PlanKey,
        graph: &Graph,
        deadline: Option<Instant>,
    ) -> (Arc<MatchPlan>, Arc<OnceLock<Arc<Verification>>>) {
        let found = |e: &Entry| (Arc::clone(&e.plan), Arc::clone(&e.verification));
        {
            let mut cache = self.lock_cache();
            if let Some(got) = cache.entries.get(key).map(found) {
                cache.stats.hits += 1;
                return got;
            }
        }
        let entry = self.compile(pattern, key);
        let (got, landed) = {
            let mut guard = self.lock_cache();
            let cache = &mut *guard;
            match cache.entries.entry(key.clone()) {
                hash_map::Entry::Occupied(e) => {
                    cache.stats.hits += 1;
                    (found(e.get()), None)
                }
                hash_map::Entry::Vacant(slot) => {
                    cache.stats.misses += 1;
                    let entry = slot.insert(entry);
                    (found(entry), entry.delta.clone())
                }
            }
        };
        if let Some(plans) = landed {
            let picks = self.engine.anchored_picks(&plans, graph, deadline);
            drop(plans);
            if !picks.is_empty() {
                let mut cache = self.lock_cache();
                if let Some(delta) = cache.entries.get_mut(key).and_then(|e| e.delta.as_mut()) {
                    Arc::make_mut(delta).take_picks(picks);
                }
            }
        }
        got
    }

    /// A fresh entry for `pattern` (its canonical `key`): its plan, and on a
    /// delta-enabled service an edge-induced entry's graph-free anchored
    /// plans.
    fn compile(&self, pattern: &Pattern, key: &PlanKey) -> Entry {
        let options = PlanOptions {
            induced: key.induced,
            code_motion: self.cfg.engine.code_motion,
            symmetry_breaking: self.cfg.engine.symmetry_breaking,
        };
        let delta = (self.dynamic.is_some() && !key.induced)
            .then(|| Arc::new(self.engine.compile_delta(pattern)));
        Entry {
            plan: Arc::new(MatchPlan::compile(pattern, options)),
            verification: Arc::default(),
            delta,
            count: None,
            watchers: Vec::new(),
        }
    }

    /// Keeps a recount's exact `outcome` as `key`'s count at snapshot
    /// `version`, unless the entry already holds one as new.
    fn store(&self, key: &PlanKey, version: u64, outcome: &MatchOutcome) {
        let mut cache = self.lock_cache();
        let Some(entry) = cache.entries.get_mut(key) else {
            return;
        };
        if !matches!(&entry.count, Some(m) if m.version >= version) {
            entry.count = Some(Maintained {
                version,
                answer: MatchOutcome {
                    metrics: GridMetrics::default(),
                    fault: None,
                    shards: Vec::new(),
                    ..*outcome
                },
                read: true,
            });
        }
    }

    /// The entries a batch from snapshot `pre` runs: those with watchers,
    /// and those whose count is at `pre` and was read since its last
    /// advance. Every other count drops, unless a recount already stored a
    /// newer one.
    fn pick(&self, pre: u64) -> Vec<Run> {
        let mut cache = self.lock_cache();
        let mut runs = Vec::new();
        for e in cache.entries.values_mut() {
            let watched = !e.watchers.is_empty();
            let kept =
                |m: &Maintained| m.version > pre || (m.version == pre && (m.read || watched));
            if !e.count.as_ref().is_some_and(kept) {
                e.count = None;
            }
            let advances = e.count.as_ref().is_some_and(|m| m.version == pre);
            if let (Some(delta), true) = (&e.delta, watched || advances) {
                runs.push((Arc::clone(&e.plan), Arc::clone(delta), e.watchers.clone()));
            }
        }
        runs
    }

    /// Commits an entry's delta over a batch `pre → post`: its count, if
    /// still at `pre`, moves to `post`, or drops if the delta failed.
    fn commit(
        &self,
        plan: &Arc<MatchPlan>,
        pre: u64,
        post: u64,
        ran: Result<(MatchDelta, GridMetrics), String>,
    ) {
        let mut cache = self.lock_cache();
        let Some(entry) = cache
            .entries
            .values_mut()
            .find(|e| Arc::ptr_eq(&e.plan, plan))
        else {
            return;
        };
        let Some(m) = entry.count.as_mut().filter(|m| m.version == pre) else {
            return;
        };
        match ran {
            Ok((d, metrics)) => {
                m.version = post;
                m.read = false;
                m.answer.count = m.answer.count + d.added - d.removed;
                m.answer.metrics.absorb(metrics);
            }
            Err(_) => entry.count = None,
        }
    }

    /// Runs one admitted query to a reply. Every failure mode maps to a
    /// per-query error; nothing here can take the worker down.
    fn execute(
        &self,
        pattern: &Pattern,
        opts: &QueryOptions,
        admitted: Instant,
    ) -> Result<MatchOutcome, ServiceError> {
        let induced = opts.induced.unwrap_or(self.cfg.engine.induced);
        // The deadline clock starts at admission: time spent queued
        // behind other queries counts against the budget, and so does a
        // plan-cache miss's compile.
        let deadline = opts.deadline.and_then(|d| admitted.checked_add(d));
        let live = || match deadline {
            Some(d) if d <= Instant::now() => Err(ServiceError::DeadlineExceeded { partial: None }),
            _ => Ok(()),
        };
        live()?;
        // Resolve the topology once, up front (rank-1 lock, released
        // immediately): the query runs against this snapshot even if a
        // batch lands mid-flight.
        let graph = self.resolve_graph();
        // Only these may take (and leave) a maintained count.
        let at = (self.dynamic.is_some() && !induced && opts.fault_plan.is_none())
            .then(|| graph.version());
        let key = PlanKey::new(pattern, induced);
        if let Some(answer) = at.and_then(|v| self.answer(&key, v)) {
            return Ok(answer);
        }
        let (plan, verification) = self.plan_for(pattern, &key, &graph, deadline);
        live()?;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            self.engine.launch(&Launch {
                verified: verification.get().map(Arc::as_ref),
                deadline,
                faults: opts.fault_plan.as_ref(),
                ..Launch::new(&graph, &plan)
            })
        }));
        match ran {
            Err(payload) => Err(ServiceError::QueryPanicked(crate::fault::describe_payload(
                payload.as_ref(),
            ))),
            Ok(Err(e)) => Err(ServiceError::Launch(e)),
            Ok(Ok(outcome)) => {
                if outcome.timed_out {
                    Err(ServiceError::DeadlineExceeded {
                        partial: Some(Box::new(outcome)),
                    })
                } else {
                    if let (Some(version), None) = (at, &outcome.fault) {
                        self.store(&key, version, &outcome);
                    }
                    Ok(outcome)
                }
            }
        }
    }
}

/// A resident matching service over one shared graph. See the module docs.
///
/// ```
/// use std::sync::Arc;
/// use stmatch_core::{EngineConfig, MatchService, QueryOptions, ServiceConfig};
/// use stmatch_graph::gen;
/// use stmatch_pattern::catalog;
///
/// let graph = Arc::new(gen::complete(6));
/// let service = MatchService::new(graph, ServiceConfig::new(EngineConfig::default()));
/// let out = service
///     .submit(&catalog::triangle(), QueryOptions::default())
///     .unwrap();
/// assert_eq!(out.count, 20); // C(6,3)
/// ```
pub struct MatchService {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl MatchService {
    /// Builds the service's one engine at the configured geometry (on one
    /// no grid can launch, every query fails by name) and starts the worker
    /// threads.
    /// # Panics
    /// With [`EngineConfig::delta`] enabled, `graph` must be a plain CSR
    /// (not a patched view): the delta overlay folds batches against it.
    pub fn new(graph: Arc<Graph>, cfg: ServiceConfig) -> MatchService {
        // The field is public: clamp it as the builder does.
        let cfg = cfg.with_workers(cfg.workers);
        cfg.engine.validate();
        let dynamic = cfg.engine.delta.enabled.then(|| {
            Mutex::new(GraphState {
                current: Arc::clone(&graph),
                overlay: DeltaOverlay::new((*graph).clone()),
            })
        });
        let inner = Arc::new(Inner {
            graph,
            cfg,
            check_id: simt_check::next_object_id(),
            queue: Mutex::new(AdmissionQueue::default()),
            cache: Mutex::default(),
            shutdown: AtomicBool::new(false),
            engine: Engine::new(cfg.engine),
            dynamic,
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("match-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn service worker")
            })
            .collect();
        MatchService { inner, workers }
    }

    /// Admits a query without blocking; the [`Ticket`] delivers the
    /// result. Deadlines start now.
    pub fn enqueue(&self, pattern: &Pattern, opts: QueryOptions) -> Ticket {
        let slot = Arc::new(ReplySlot::default());
        let req = Request {
            pattern: pattern.clone(),
            opts,
            admitted: Instant::now(),
            reply: Reply(Some(Arc::clone(&slot))),
        };
        let idle = {
            let mut queue = self.inner.lock_queue();
            queue.push(req);
            queue.idle.pop()
        };
        // Outside the lock, so the woken worker does not block on it. An
        // unpark that lands before its `park` is kept as the thread's token.
        if let Some(worker) = idle {
            worker.unpark();
        }
        Ticket { slot }
    }

    /// Admits a query and blocks for its result.
    pub fn submit(
        &self,
        pattern: &Pattern,
        opts: QueryOptions,
    ) -> Result<MatchOutcome, ServiceError> {
        self.enqueue(pattern, opts).wait()
    }

    /// Plan-cache counters. Note for checker-based tests: this takes the
    /// tracked cache lock, which publishes the workers' cache history to
    /// the calling thread.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.inner.lock_cache();
        CacheStats {
            entries: cache.entries.len(),
            ..cache.stats
        }
    }

    /// Statically verifies `pattern`'s cached plan (under the service's
    /// default `induced` semantics) against the resident graph and returns
    /// the verdict, creating the cache entry if it does not exist yet. The
    /// first ask verifies ([`Engine::verify`]); the verdict then stays on
    /// the canonical entry, every later launch of that entry carries it
    /// ([`Launch::verified`]), and later asks return it. `None` for
    /// delta-enabled services: a certificate is computed against one
    /// topology and the graph moves under `apply_batch`.
    pub fn verification(&self, pattern: &Pattern) -> Option<Arc<Verification>> {
        let inner = &self.inner;
        if inner.dynamic.is_some() {
            return None;
        }
        let key = PlanKey::new(pattern, inner.cfg.engine.induced);
        let (plan, verification) = inner.plan_for(pattern, &key, &inner.graph, None);
        // Counted once per entry: the `OnceLock` runs one initializer, and
        // no thread waiting on it holds the cache lock.
        let verdict = verification.get_or_init(|| {
            let v = inner.engine.verify(&inner.graph, &plan);
            let mut cache = inner.lock_cache();
            cache.stats.verified += 1;
            cache.stats.diagnostics += v.diagnostics.len() as u64;
            Arc::new(v)
        });
        Some(Arc::clone(verdict))
    }

    /// Applies one batch of edge updates to the service graph
    /// (delta-enabled services only) and returns its net effect. Cost is
    /// O(batch × affected neighborhoods): the overlay folds the ops,
    /// O(touched) snapshots replace the current view, and per
    /// [`EngineConfig::delta`]`.compact_every` batches the overlay folds
    /// into a fresh CSR. Queries admitted before the call finish against
    /// the old snapshot; queries admitted after see the new one.
    ///
    /// Deltas are computed and delivered *on the caller's thread*, after
    /// the graph lock is released — a slow watcher delays only its own
    /// `apply_batch` caller, never the admission or query lanes, and a
    /// panicking one is contained: the batch still returns and every other
    /// watcher still gets its event. The service's engine runs each picked
    /// entry's plan set once — the entries with watchers and those whose
    /// count was read since the last batch (see the module docs) — so a
    /// watched pattern that is also queried costs one delta, and its count
    /// advances with it.
    ///
    /// # Panics
    /// Panics if the service was not built with
    /// [`EngineConfig::with_delta`]`(true)`, or on malformed ops
    /// (self-loops, out-of-range endpoints).
    pub fn apply_batch(&self, ops: &[EdgeOp]) -> AppliedBatch {
        let inner = &self.inner;
        let (pre, post, batch, runs) = {
            let mut state = inner
                .lock_graph()
                .expect("apply_batch requires EngineConfig::with_delta(true)");
            let pre = Arc::clone(&state.current);
            let batch = state.overlay.apply(ops);
            // The overlay's version counts the batches since the service
            // began (at least one, so `compact_every = 0` never compacts).
            let batches = batch.version - inner.graph.version();
            if batches.is_multiple_of(u64::from(inner.cfg.engine.delta.compact_every)) {
                state.overlay.compact();
            }
            let post = Arc::new(state.overlay.snapshot());
            state.current = Arc::clone(&post);
            // Under the graph lock: a watcher that registers after this
            // batch's fold first sees the next one.
            let runs = inner.pick(pre.version());
            (pre, post, batch, runs)
        };
        if runs.is_empty() {
            return batch;
        }
        // Stage each batch side once: every plan set runs on the same stage
        // views and the service's engine, contained — a launch error or a
        // panic becomes the `Err` its watchers' events carry.
        let staged = StagedBatch::new(&pre, &post, &batch);
        for (plan, delta, watchers) in runs {
            let launches = || delta.count_edge_induced(&inner.engine, &staged);
            let ran = match catch_unwind(AssertUnwindSafe(launches)) {
                Ok(Ok(v)) => Ok(v),
                Ok(Err(e)) => Err(format!("launch failed: {e}")),
                Err(payload) => Err(crate::fault::describe_payload(payload.as_ref())),
            };
            for (watch, cb) in &watchers {
                let event = WatchEvent {
                    watch: *watch,
                    version: batch.version,
                    batch: batch.clone(),
                    delta: ran.as_ref().map(|&(delta, _)| delta).map_err(String::clone),
                };
                // Contained like the launch above: one bad subscriber must
                // not unwind into the updater (the graph is already
                // swapped) or starve the later watchers of this batch. The
                // watcher stays registered; its panic has no ticket to be
                // reported on and is dropped.
                let _ = catch_unwind(AssertUnwindSafe(|| cb(event)));
            }
            inner.commit(&plan, pre.version(), batch.version, ran);
        }
        batch
    }

    /// Registers a pattern watcher: `cb` receives one [`WatchEvent`] per
    /// subsequent [`MatchService::apply_batch`], carrying the pattern's
    /// exact match-count delta under that batch. The watcher subscribes to
    /// the plan cache's entry for the pattern (edge-induced), compiled
    /// outside every lock on a miss, and registers under the graph lock,
    /// so the first batch it sees is the first folded after this call.
    /// While it is registered, the entry's count advances with every batch.
    ///
    /// # Panics
    /// Panics unless the service is delta-enabled and edge-induced.
    pub fn submit_watch(
        &self,
        pattern: &Pattern,
        cb: impl Fn(WatchEvent) + Send + Sync + 'static,
    ) -> WatchId {
        let inner = &self.inner;
        assert!(
            inner.dynamic.is_some(),
            "submit_watch requires EngineConfig::with_delta(true)"
        );
        assert!(
            !inner.cfg.engine.induced,
            "incremental watching is edge-induced only (see stmatch_core::delta)"
        );
        let key = PlanKey::new(pattern, false);
        inner.plan_for(pattern, &key, &inner.resolve_graph(), None);
        let _state = inner.lock_graph().expect("delta mode checked above");
        let mut cache = inner.lock_cache();
        let id = WatchId(cache.next_watch);
        cache.next_watch += 1;
        let entry = cache
            .entries
            .get_mut(&key)
            .expect("the cache keeps every entry");
        entry.watchers.push((id, Arc::new(cb)));
        id
    }

    /// Unregisters a watcher; returns whether it was still registered. A
    /// batch that picked its entries before this call can still deliver
    /// one event after it returns: `apply_batch` takes each entry's
    /// watchers when it picks the entry and delivers after releasing every
    /// lock.
    pub fn cancel_watch(&self, id: WatchId) -> bool {
        assert!(
            self.inner.dynamic.is_some(),
            "cancel_watch requires EngineConfig::with_delta(true)"
        );
        let mut cache = self.inner.lock_cache();
        cache.entries.values_mut().any(|e| {
            let before = e.watchers.len();
            e.watchers.retain(|&(w, _)| w != id);
            e.watchers.len() != before
        })
    }

    /// The graph queries currently run against: the latest delta snapshot
    /// for delta-enabled services, the shared immutable graph otherwise.
    pub fn current_graph(&self) -> Arc<Graph> {
        self.inner.resolve_graph()
    }

    /// The shared graph the service was built with (for delta-enabled
    /// services this stays the *initial* topology; see
    /// [`MatchService::current_graph`]).
    pub fn graph(&self) -> &Arc<Graph> {
        &self.inner.graph
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.cfg
    }
}

impl Drop for MatchService {
    /// Graceful shutdown: workers drain the queue (every admitted query
    /// gets a reply), then exit and are joined.
    fn drop(&mut self) {
        // Release: publishes everything before shutdown to the worker
        // loop's Acquire load.
        self.inner.shutdown.store(true, Ordering::Release);
        // Every worker, idle or not: one that read the flag clear and is
        // about to park finds the token and sees the flag on its next pass.
        for h in &self.workers {
            h.thread().unpark();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Worker: pop one request per admission-lock acquisition and serve it on
/// the service's engine; with both lanes empty, register as idle and park
/// until an admission (or shutdown) wakes it. Exits when shutdown is
/// flagged *and* the queue is empty, so pending clients always hear back.
fn worker_loop(inner: &Inner) {
    let me = std::thread::current();
    loop {
        let next = {
            let mut queue = inner.lock_queue();
            // A worker holding the lock is awake: drop a registration a
            // spurious wake-up left behind, so an admission never spends
            // its wake on a busy worker.
            queue.idle.retain(|t| t.id() != me.id());
            let next = queue.pop();
            // Acquire: pairs with Drop's Release store; checked only after
            // an empty pop so every admitted query still gets a reply.
            if next.is_none() {
                if inner.shutdown.load(Ordering::Acquire) {
                    break;
                }
                queue.idle.push(me.clone());
            }
            next
        };
        let Some(mut req) = next else {
            std::thread::park();
            continue;
        };
        let result = inner.execute(&req.pattern, &req.opts, req.admitted);
        // A client that dropped its ticket is not an error.
        req.reply.fill(result);
    }
}

/// Seeded concurrency bugs for the `simt-check` harness (mirrors
/// `steal::mutation`): each reintroduces a historically plausible bug the
/// checker must kill by name. Never called from production paths.
pub mod mutation {
    use super::*;

    /// Inserts a plan-cache entry through the raw mutex, *bypassing* the
    /// tracked cache lock — the classic "it's just one insert" shortcut.
    /// The data stays intact (the raw mutex still excludes), but the
    /// checker must flag the unprotected shadow-cell write against the
    /// workers' locked accesses as `data race on plan-cache[id]`.
    ///
    /// Deterministic kill: call after at least one blocking
    /// [`MatchService::submit`] (so a worker's locked cache access has
    /// happened), and do NOT call [`MatchService::cache_stats`] in
    /// between — that takes the tracked lock and would order this thread
    /// after the workers, hiding the race.
    pub fn cache_insert_without_lock(svc: &MatchService, pattern: &Pattern) {
        let inner = &svc.inner;
        let key = PlanKey::new(pattern, inner.cfg.engine.induced);
        let entry = inner.compile(pattern, &key);
        simt_check::note_write(simt_check::Cell::plan_cache(inner.check_id));
        let mut cache = inner.cache.lock().unwrap_or_else(PoisonError::into_inner);
        cache.entries.insert(key, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use stmatch_gpusim::{GridConfig, SharedBudget};
    use stmatch_graph::gen;
    use stmatch_pattern::catalog;

    fn small_cfg() -> ServiceConfig {
        let grid = GridConfig {
            num_blocks: 2,
            warps_per_block: 2,
            shared_mem_per_block: SharedBudget::RTX3090_BYTES,
        };
        ServiceConfig::new(EngineConfig::default().with_grid(grid))
    }

    #[test]
    fn submit_matches_engine_run() {
        let graph = Arc::new(gen::erdos_renyi(40, 160, 7));
        let svc = MatchService::new(Arc::clone(&graph), small_cfg());
        let q = catalog::paper_query(6);
        let expected = Engine::new(small_cfg().engine).run(&graph, &q).unwrap();
        let got = svc.submit(&q, QueryOptions::default()).unwrap();
        assert_eq!(got.count, expected.count);
        assert_eq!(got.num_sets, expected.num_sets);
        assert_eq!(got.stack_bytes, expected.stack_bytes);
    }

    #[test]
    fn isomorphic_submissions_share_one_cache_entry() {
        let graph = Arc::new(gen::erdos_renyi(30, 100, 3));
        let svc = MatchService::new(Arc::clone(&graph), small_cfg());
        // A path relabeled two ways: same canonical form.
        let a = Pattern::new(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = Pattern::new(4, &[(3, 2), (2, 1), (1, 0)]);
        let first = svc.submit(&a, QueryOptions::default()).unwrap();
        let second = svc.submit(&b, QueryOptions::default()).unwrap();
        assert_eq!(first.count, second.count);
        let stats = svc.cache_stats();
        assert_eq!(stats.entries, 1, "isomorphic patterns share an entry");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn expired_deadline_fails_without_running() {
        let graph = Arc::new(gen::complete(6));
        let svc = MatchService::new(graph, small_cfg());
        let opts = QueryOptions {
            deadline: Some(Duration::ZERO),
            ..QueryOptions::default()
        };
        match svc.submit(&catalog::triangle(), opts) {
            Err(ServiceError::DeadlineExceeded { partial: None }) => {}
            other => panic!("expected queued-deadline expiry, got {other:?}"),
        }
        // The pool is not poisoned: the next query succeeds.
        let ok = svc
            .submit(&catalog::triangle(), QueryOptions::default())
            .unwrap();
        assert_eq!(ok.count, 20);
    }

    /// Builds a throwaway request whose deadline seconds act as an id tag
    /// (never executed — only pushed through the admission queue).
    fn tagged_request(priority: Priority, tag: u64) -> Request {
        Request {
            pattern: catalog::triangle(),
            opts: QueryOptions {
                deadline: Some(Duration::from_secs(tag)),
                priority,
                ..QueryOptions::default()
            },
            admitted: Instant::now(),
            reply: Reply(None),
        }
    }

    fn tag(r: &Request) -> u64 {
        r.opts.deadline.unwrap().as_secs()
    }

    /// The high lane goes first, but never more than `HIGH_RUN` high
    /// requests in a row while a normal one waits.
    #[test]
    fn admission_serves_high_first_without_starving_normal() {
        let mut q = AdmissionQueue::default();
        for t in 0..10 {
            q.push(tagged_request(Priority::High, t));
        }
        for t in 100..103 {
            q.push(tagged_request(Priority::Normal, t));
        }
        let order = |q: &mut AdmissionQueue| {
            std::iter::from_fn(|| q.pop().as_ref().map(tag)).collect::<Vec<_>>()
        };
        assert_eq!(order(&mut q), [0, 1, 2, 3, 4, 5, 6, 100, 7, 8, 9, 101, 102]);
        // A high request admitted after a waiting normal one is still
        // served first.
        q.push(tagged_request(Priority::Normal, 103));
        q.push(tagged_request(Priority::High, 10));
        assert_eq!(order(&mut q), [10, 103]);
    }

    #[test]
    fn an_oversized_block_fails_the_query() {
        let mut cfg = small_cfg();
        cfg.engine.grid.warps_per_block = 33;
        let svc = MatchService::new(Arc::new(gen::complete(6)), cfg);
        match svc.submit(&catalog::triangle(), QueryOptions::default()) {
            Err(ServiceError::Launch(e)) => assert!(e.to_string().contains("limit of 32"), "{e}"),
            other => panic!("expected a launch error, got {other:?}"),
        }
    }

    #[test]
    fn mixed_priority_flood_completes_everything() {
        let graph = Arc::new(gen::erdos_renyi(40, 160, 7));
        let cfg = small_cfg().with_workers(1);
        let expected = Engine::new(cfg.engine)
            .run(&graph, &catalog::triangle())
            .unwrap()
            .count;
        let svc = MatchService::new(Arc::clone(&graph), cfg);
        let mut tickets = Vec::new();
        for i in 0..12 {
            let opts = QueryOptions {
                priority: if i % 4 == 0 {
                    Priority::Normal
                } else {
                    Priority::High
                },
                ..QueryOptions::default()
            };
            tickets.push(svc.enqueue(&catalog::triangle(), opts));
        }
        for t in tickets {
            assert_eq!(t.wait().unwrap().count, expected);
        }
    }

    #[test]
    fn sharded_route_serves_exact_counts() {
        let graph = Arc::new(gen::preferential_attachment(100, 4, 5).degree_ordered());
        let q = catalog::paper_query(6);
        let expected = Engine::new(small_cfg().engine)
            .run(&graph, &q)
            .unwrap()
            .count;
        let mut cfg = small_cfg();
        cfg.engine = cfg.engine.with_shards(2);
        let svc = MatchService::new(Arc::clone(&graph), cfg);
        let clean = svc.submit(&q, QueryOptions::default()).unwrap();
        assert_eq!(clean.count, expected);
        assert_eq!(clean.metrics.total().requeue_claims, 0);
        // A shard kill injected per query recovers exactly, and the
        // worker survives to serve the next query. Both shards are marked,
        // and neither can take the other's slice: each works its own until
        // its warps reach their fatal claim, and each dead shard's own
        // salvage pass finishes the rest of its slice.
        let opts = QueryOptions {
            fault_plan: Some(FaultPlan::seeded_shard_kill(0x7a, 2, 2)),
            ..QueryOptions::default()
        };
        let faulted = svc.submit(&q, opts).unwrap();
        assert_eq!(faulted.count, expected);
        let report = faulted.fault.expect("a shard died");
        assert!(report.fully_recovered());
        assert!(report.salvage_launches > 0, "a dead shard salvages itself");
        assert!(report.reproduce.is_some());
        // A kill naming a shard the run does not have fails that query.
        let opts = QueryOptions {
            fault_plan: Some(FaultPlan::new().shard_kill_at(7, 1)),
            ..QueryOptions::default()
        };
        match svc.submit(&q, opts) {
            Err(ServiceError::QueryPanicked(m)) => assert!(m.contains("shard 7"), "{m}"),
            other => panic!("expected QueryPanicked, got {other:?}"),
        }
        // The next clean query runs on the arenas the faulted ones parked.
        let after = svc.submit(&q, QueryOptions::default()).unwrap();
        assert_eq!(after.count, expected);
        assert_eq!(after.metrics.total().requeue_claims, 0);
    }

    /// A sharded, work-aware, delta-enabled service splits each recount by
    /// the weights of the snapshot it runs on (three shards) and maintains
    /// the counts asked every round (no launch, no shards): after every
    /// seeded mixed batch, each count equals a one-grid run on the current
    /// graph.
    #[test]
    fn sharded_delta_service_counts_the_current_snapshot() {
        let graph = Arc::new(gen::preferential_attachment(80, 4, 9).degree_ordered());
        let mut cfg = delta_cfg();
        cfg.engine = cfg.engine.with_shards(3);
        assert!(cfg.engine.shard.work_aware);
        let svc = MatchService::new(Arc::clone(&graph), cfg);
        let single = Engine::new(small_cfg().engine);
        let queries = [1, 4, 6].map(catalog::paper_query);
        let mut rng = 0x5eed_cafe_u64;
        let mut next = move |m: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % m as u64) as u32
        };
        for round in 0..5 {
            let g = svc.current_graph();
            let mut ops = Vec::new();
            for _ in 0..8 {
                let (u, v) = (next(80), next(80));
                if u != v {
                    ops.push(EdgeOp::insert(u, v));
                }
                let x = next(80);
                let row = g.neighbors(x);
                if !row.is_empty() {
                    ops.push(EdgeOp::delete(x, row[next(row.len()) as usize]));
                }
            }
            let batch = svc.apply_batch(&ops);
            assert!(!batch.inserts.is_empty() && !batch.deletes.is_empty());
            let g = svc.current_graph();
            assert_eq!(g.version(), batch.version);
            // One pattern first asked this round: a sharded recount.
            let fresh = catalog::paper_query([2, 3, 5, 7, 8][round]);
            for q in queries.iter().chain([&fresh]) {
                let out = svc.submit(q, QueryOptions::default()).unwrap();
                let want = single.run(&g, q).unwrap().count;
                assert_eq!(out.count, want, "round {round} {}", q.name());
                let shards = if round == 0 || std::ptr::eq(q, &fresh) {
                    3
                } else {
                    0
                };
                assert_eq!(out.shards.len(), shards, "round {round} {}", q.name());
            }
        }
        assert_eq!(svc.cache_stats().maintained, 3 * 4);
    }

    /// The service runs one engine: after concurrent queries and a batch
    /// on a two-worker delta service, every count is exact and the engine
    /// holds no more arenas than were out at once — one grid's per worker
    /// and one for the batch. No clean query, some of them on recycled
    /// arenas, requeues a claim (`sharded_route_serves_exact_counts` holds
    /// the same on two shards).
    #[test]
    fn one_engine_serves_every_query_and_batch() {
        let graph = Arc::new(gen::preferential_attachment(100, 4, 5).degree_ordered());
        let cfg = delta_cfg();
        let svc = MatchService::new(Arc::clone(&graph), cfg);
        svc.submit_watch(&catalog::triangle(), |_| {});
        let queries = [1, 4, 6].map(catalog::paper_query);
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|q| svc.enqueue(q, QueryOptions::default()))
            .collect();
        let absent = (1..100).find(|&v| !graph.has_edge(0, v)).unwrap();
        svc.apply_batch(&[EdgeOp::insert(0, absent)]);
        let post = svc.current_graph();
        let single = Engine::new(cfg.engine);
        for (q, t) in queries.iter().zip(tickets) {
            let out = t.wait().unwrap();
            let want = |g: &Graph| single.run(g, q).unwrap().count;
            let got = out.count;
            assert!(got == want(&graph) || got == want(&post), "{}", q.name());
            assert_eq!(out.metrics.total().requeue_claims, 0, "{}", q.name());
        }
        let parked = svc.inner.engine.arenas().parked();
        let most = (cfg.workers + 1) * cfg.engine.grid.total_warps();
        assert!(parked > 0 && parked <= most, "{parked} arenas parked");
    }

    fn delta_cfg() -> ServiceConfig {
        let mut cfg = small_cfg();
        cfg.engine = cfg.engine.with_delta(true);
        cfg
    }

    #[test]
    fn apply_batch_moves_queries_to_the_new_topology() {
        let graph = Arc::new(gen::preferential_attachment(40, 3, 5).degree_ordered());
        let svc = MatchService::new(Arc::clone(&graph), delta_cfg());
        let q = catalog::triangle();
        let before = svc.submit(&q, QueryOptions::default()).unwrap().count;
        assert_eq!(
            Engine::new(small_cfg().engine)
                .run(&graph, &q)
                .unwrap()
                .count,
            before
        );
        // Delete one edge, insert one absent edge.
        let present = (graph.neighbors(0)[0], 0);
        let absent = (0..40u32)
            .flat_map(|u| (u + 1..40).map(move |v| (u, v)))
            .find(|&(u, v)| !graph.has_edge(u, v))
            .unwrap();
        let batch = svc.apply_batch(&[
            EdgeOp::delete(present.0, present.1),
            EdgeOp::insert(absent.0, absent.1),
        ]);
        assert_eq!((batch.inserts.len(), batch.deletes.len()), (1, 1));
        assert_eq!(svc.current_graph().version(), 1);
        let after = svc.submit(&q, QueryOptions::default()).unwrap().count;
        let expected = Engine::new(small_cfg().engine)
            .run(&svc.current_graph(), &q)
            .unwrap()
            .count;
        assert_eq!(after, expected, "queries see the post-batch snapshot");
        assert_ne!(svc.graph().version(), 1, "the seed graph is untouched");
    }

    #[test]
    fn compact_every_zero_never_compacts() {
        let graph = Arc::new(gen::preferential_attachment(40, 3, 5).degree_ordered());
        let mut cfg = delta_cfg();
        cfg.engine.delta.compact_every = 0;
        let svc = MatchService::new(Arc::clone(&graph), cfg);
        let absent = (0..40u32)
            .flat_map(|u| (u + 1..40).map(move |v| (u, v)))
            .filter(|&(u, v)| !graph.has_edge(u, v));
        for (u, v) in absent.take(3) {
            svc.apply_batch(&[EdgeOp::insert(u, v)]);
            assert!(svc.current_graph().is_view(), "compacted at 0");
        }
        assert_eq!(svc.current_graph().version(), 3);
    }

    #[test]
    fn watchers_receive_exact_deltas_per_batch() {
        let graph = Arc::new(gen::preferential_attachment(40, 3, 5).degree_ordered());
        let mut cfg = delta_cfg();
        // Compact every batch: the fold must be invisible to watchers.
        cfg.engine.delta.compact_every = 1;
        let svc = MatchService::new(Arc::clone(&graph), cfg);
        let q = catalog::triangle();
        let events: Arc<Mutex<Vec<WatchEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        let id = svc.submit_watch(&q, move |e| sink.lock().unwrap().push(e));
        // The watcher runs the plan cache's entry: a relabeled triangle's
        // query hits it, and one plan set serves both in the next batch.
        let tri = Pattern::new(3, &[(2, 1), (1, 0), (0, 2)]);
        let mut running = svc.submit(&tri, QueryOptions::default()).unwrap().count as i64;
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "{stats:?}");
        let cached = {
            let cache = svc.inner.lock_cache();
            let entry = &cache.entries[&PlanKey::new(&q, false)];
            assert!(matches!(&entry.watchers[..], [(w, _)] if *w == id));
            entry.delta.clone().unwrap()
        };
        let runs = svc.inner.pick(0);
        assert!(matches!(&runs[..], [(_, d, w)] if Arc::ptr_eq(d, &cached) && w.len() == 1));
        let absent: Vec<(u32, u32)> = (0..40u32)
            .flat_map(|u| (u + 1..40).map(move |v| (u, v)))
            .filter(|&(u, v)| !graph.has_edge(u, v))
            .take(4)
            .collect();
        for (i, &(u, v)) in absent.iter().enumerate() {
            svc.apply_batch(&[EdgeOp::insert(u, v)]);
            let ev = events.lock().unwrap().last().cloned().unwrap();
            assert_eq!(ev.watch, id);
            assert_eq!(ev.version, i as u64 + 1);
            let delta = ev.delta.expect("delta computed");
            assert_eq!(delta.removed, 0, "insert-only batch");
            running += delta.net();
            let full = svc.submit(&q, QueryOptions::default()).unwrap().count;
            assert_eq!(running, full as i64, "cumulative deltas track recompute");
        }
        assert!(svc.cancel_watch(id));
        assert!(!svc.cancel_watch(id), "second cancel is a no-op");
        svc.apply_batch(&[EdgeOp::delete(absent[0].0, absent[0].1)]);
        assert_eq!(
            events.lock().unwrap().len(),
            4,
            "cancelled watcher is quiet"
        );
    }

    /// A delta-enabled service's cache miss chooses each orbit's anchored
    /// order on the snapshot it resolved: two services on one graph choose
    /// the same orders, whether a watcher or a query missed; a chosen
    /// plan's sampled cost is never above the graph-free plan's; the
    /// watcher runs the cache entry's own plans; and a miss out of time
    /// keeps the graph-free orders.
    #[test]
    fn a_cache_miss_chooses_anchored_orders_on_its_snapshot() {
        let graph = Arc::new(gen::preferential_attachment(256, 4, 9).degree_ordered());
        let q = catalog::paper_query(4);
        let key = PlanKey::new(&q, false);
        let cached = |svc: &MatchService| -> Arc<DeltaPlans> {
            let cache = svc.inner.lock_cache();
            Arc::clone(cache.entries[&key].delta.as_ref().expect("delta plans"))
        };
        let orders = |plans: &DeltaPlans| -> Vec<Vec<usize>> {
            plans
                .plans()
                .map(|p| p.order().as_slice().to_vec())
                .collect()
        };
        let watched = MatchService::new(Arc::clone(&graph), delta_cfg());
        watched.submit_watch(&q, |_| {});
        let queried = MatchService::new(Arc::clone(&graph), delta_cfg());
        queried.submit(&q, QueryOptions::default()).unwrap();
        let chosen = cached(&watched);
        assert_eq!(orders(&chosen), orders(&cached(&queried)));

        let engine = Engine::new(delta_cfg().engine);
        let today = engine.compile_delta(&q);
        let sample = crate::estimate::Estimator::new(&engine, &graph);
        for (pick, default) in chosen.plans().zip(today.plans()) {
            let (pick_cost, default_cost) = (
                sample.cost(pick).unwrap().unwrap(),
                sample.cost(default).unwrap().unwrap(),
            );
            assert!(
                pick_cost <= default_cost,
                "{:?} costs {pick_cost} on the sample, {:?} {default_cost}",
                pick.order(),
                default.order()
            );
        }
        assert_ne!(
            orders(&chosen),
            orders(&today),
            "no orbit moved on this graph"
        );

        let runs = watched.inner.pick(0);
        assert!(matches!(&runs[..], [(_, d, w)] if Arc::ptr_eq(d, &chosen) && w.len() == 1));

        // A miss with no time left keeps every graph-free order.
        let late = MatchService::new(Arc::clone(&graph), delta_cfg());
        late.inner.plan_for(&q, &key, &graph, Some(Instant::now()));
        assert_eq!(orders(&cached(&late)), orders(&today));
    }

    /// Misses racing on one cold key land one entry and run one estimate:
    /// one miss, and the entry holds the orders `compile_delta_on` chooses.
    #[test]
    fn racing_misses_land_one_entry_with_the_chosen_orders() {
        let graph = Arc::new(gen::preferential_attachment(256, 4, 9).degree_ordered());
        let q = catalog::paper_query(4);
        let svc = MatchService::new(Arc::clone(&graph), delta_cfg().with_workers(4));
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    svc.submit(&q, QueryOptions::default()).unwrap()
                });
            }
        });
        let stats = svc.cache_stats();
        assert_eq!(
            (stats.misses, stats.entries, stats.hits),
            (1, 1, 3),
            "{stats:?}"
        );
        let orders = |plans: &DeltaPlans| -> Vec<Vec<usize>> {
            plans
                .plans()
                .map(|p| p.order().as_slice().to_vec())
                .collect()
        };
        let cache = svc.inner.lock_cache();
        let entry = &cache.entries[&PlanKey::new(&q, false)];
        let chosen = Engine::new(delta_cfg().engine).compile_delta_on(&q, &graph);
        assert_eq!(orders(entry.delta.as_ref().unwrap()), orders(&chosen));
    }

    /// A watched count advances with its watchers' delta even when nobody
    /// read it: left unread across two batches, it still answers without a
    /// launch, carrying both batches' delta launches.
    #[test]
    fn a_watched_count_advances_while_unread() {
        let graph = Arc::new(gen::preferential_attachment(40, 3, 5).degree_ordered());
        let svc = MatchService::new(Arc::clone(&graph), delta_cfg());
        let q = catalog::triangle();
        svc.submit_watch(&q, |_| {});
        svc.submit(&q, QueryOptions::default()).unwrap();
        let absent = (0..40u32)
            .flat_map(|u| (u + 1..40).map(move |v| (u, v)))
            .filter(|&(u, v)| !graph.has_edge(u, v));
        for (u, v) in absent.take(2) {
            svc.apply_batch(&[EdgeOp::insert(u, v)]);
        }
        let before = svc.cache_stats().maintained;
        let out = svc.submit(&q, QueryOptions::default()).unwrap();
        assert_eq!(
            svc.cache_stats().maintained,
            before + 1,
            "answered by a launch"
        );
        assert_eq!(
            out.metrics.kernel_launches, 2,
            "one insert-side launch a batch"
        );
        let want = Engine::new(small_cfg().engine)
            .run(&svc.current_graph(), &q)
            .unwrap()
            .count;
        assert_eq!(out.count, want);
    }

    /// A watcher registered after `apply_batch` returns gets no event for
    /// that batch, and one for the next.
    #[test]
    fn a_watcher_sees_only_batches_after_it_registered() {
        let graph = Arc::new(gen::preferential_attachment(40, 3, 5).degree_ordered());
        let svc = MatchService::new(Arc::clone(&graph), delta_cfg());
        let absent: Vec<(u32, u32)> = (0..40u32)
            .flat_map(|u| (u + 1..40).map(move |v| (u, v)))
            .filter(|&(u, v)| !graph.has_edge(u, v))
            .take(2)
            .collect();
        svc.apply_batch(&[EdgeOp::insert(absent[0].0, absent[0].1)]);
        let versions = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&versions);
        svc.submit_watch(&catalog::triangle(), move |e| {
            sink.lock().unwrap().push(e.version)
        });
        assert!(versions.lock().unwrap().is_empty());
        svc.apply_batch(&[EdgeOp::insert(absent[1].0, absent[1].1)]);
        assert_eq!(*versions.lock().unwrap(), [2]);
    }

    /// Satellite starvation guarantee: a stream of `apply_batch` calls
    /// with registered watchers never blocks the one-shot admission lane —
    /// watcher deltas run on the applier's thread, outside every service
    /// lock, so concurrently submitted queries keep completing.
    #[test]
    fn watch_deltas_never_starve_the_one_shot_lane() {
        let graph = Arc::new(gen::preferential_attachment(40, 3, 5).degree_ordered());
        let cfg = delta_cfg().with_workers(1);
        let svc = Arc::new(MatchService::new(Arc::clone(&graph), cfg));
        let expected = Engine::new(delta_cfg().engine)
            .run(&graph, &catalog::triangle())
            .unwrap()
            .count;
        let hits = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&hits);
        svc.submit_watch(&catalog::triangle(), move |e| {
            assert_eq!(e.delta.expect("delta computed"), MatchDelta::default());
            // Relaxed: a plain event counter — the join below is the
            // happens-before edge the final read relies on.
            sink.fetch_add(1, Ordering::Relaxed);
        });
        // Net-zero batches: the topology never changes, so one-shot counts
        // stay deterministic while watch deltas are being computed.
        let absent = (0..40u32)
            .flat_map(|u| (u + 1..40).map(move |v| (u, v)))
            .find(|&(u, v)| !graph.has_edge(u, v))
            .unwrap();
        let applier = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                for _ in 0..6 {
                    let batch = svc.apply_batch(&[
                        EdgeOp::insert(absent.0, absent.1),
                        EdgeOp::delete(absent.0, absent.1),
                    ]);
                    assert!(batch.is_empty());
                }
            })
        };
        let tickets: Vec<Ticket> = (0..8)
            .map(|_| svc.enqueue(&catalog::triangle(), QueryOptions::default()))
            .collect();
        for t in tickets {
            assert_eq!(t.wait().unwrap().count, expected, "one-shot lane ran");
        }
        applier.join().unwrap();
        // Relaxed: the applier join() above already ordered every
        // watcher delivery before this read.
        assert_eq!(hits.load(Ordering::Relaxed), 6, "every batch was delivered");
    }

    #[test]
    #[should_panic(expected = "with_delta")]
    fn apply_batch_requires_delta_mode() {
        let svc = MatchService::new(Arc::new(gen::complete(6)), small_cfg());
        let _ = svc.apply_batch(&[EdgeOp::insert(0, 2)]);
    }

    #[test]
    fn drop_drains_pending_queries() {
        let graph = Arc::new(gen::complete(6));
        let svc = MatchService::new(graph, small_cfg());
        let tickets: Vec<Ticket> = (0..6)
            .map(|_| svc.enqueue(&catalog::triangle(), QueryOptions::default()))
            .collect();
        drop(svc);
        for t in tickets {
            assert_eq!(t.wait().unwrap().count, 20, "drained before shutdown");
        }
    }
}
