//! The resident match service: one shared graph, a canonical plan cache,
//! and batched admission onto warm execution slots.
//!
//! [`Engine::run`] is the one-shot API: it compiles the pattern, builds a
//! grid (spawning one OS thread per simulated warp), allocates the stack
//! slabs, runs, and tears everything down. A workload that answers many
//! pattern queries against the *same* graph repays none of that setup.
//! [`MatchService`] keeps the expensive state resident (DESIGN.md §4g):
//!
//! * **Shared graph** — the service holds an immutable `Arc<Graph>`; the
//!   hub-bitmap index is built lazily exactly once via
//!   [`Graph::ensure_hub_bitmap`] and shared by every query thereafter.
//! * **Canonical plan cache** — compiled [`MatchPlan`]s are cached keyed
//!   by [`iso::canonical_form`], so relabeled/isomorphic submissions hit
//!   the same entry (counts are isomorphism-invariant). Compilation runs
//!   *outside* the cache lock; racing compiles of the same form collapse
//!   to one entry through the entry API.
//! * **Batched admission** — clients [`submit`](MatchService::submit)
//!   from any number of threads; worker threads drain the admission
//!   queue in batches and serve each batch back-to-back on a warm slot
//!   ([`WarmSlot`]: parked warp threads + recycled stack arenas).
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
//! `ServicePlanCache(4)`, and `ServiceArenaPool(6)`. None is ever held
//! across an engine launch, and the cache lock is never held while
//! compiling. The plan cache carries a shadow cell
//! (`Cell::plan_cache(id)`) so the race checker can prove every access
//! goes through the tracked lock — and kill the seeded
//! [`mutation::cache_insert_without_lock`] by name.

use crate::config::EngineConfig;
use crate::delta::{DeltaPlans, MatchDelta, StagedBatch};
use crate::engine::{Engine, Launch, MatchOutcome};
use crate::fault::FaultPlan;
use crate::pool::WarmSlot;
use crate::recover::RecoveryPolicy;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};
use stmatch_gpusim::LaunchError;
use stmatch_graph::{AppliedBatch, DeltaOverlay, EdgeOp, Graph};
use stmatch_pattern::{iso, MatchPlan, Pattern, PlanOptions};
use stmatch_plan_verify::Verification;

/// Admission lane of a query. High-priority requests dequeue ahead of
/// every queued normal request, with one guardrail: a drain that would
/// fill its whole batch from the high lane while normal requests wait
/// reserves one slot for the *oldest* normal request. A sustained
/// high-priority flood therefore delays the normal lane, but can never
/// starve it — every drain makes normal-lane progress.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Priority {
    /// The default lane.
    #[default]
    Normal,
    /// Dequeues ahead of queued normal requests (bounded by the
    /// starvation reservation above).
    High,
}

/// Per-query options carried through admission.
#[derive(Clone, Debug, Default)]
pub struct QueryOptions {
    /// Wall-clock budget measured from *admission* (not launch): a query
    /// that expires while still queued fails without running; one that
    /// expires mid-run is cancelled cooperatively and returns
    /// [`ServiceError::DeadlineExceeded`] with the partial outcome.
    pub deadline: Option<Duration>,
    /// Overrides the service engine's recovery policy for this query.
    pub recovery: Option<RecoveryPolicy>,
    /// Deterministic fault injection for this query only (testing/chaos).
    pub fault_plan: Option<FaultPlan>,
    /// Overrides the service engine's `induced` semantics for this query.
    /// Plans cache separately per semantics (the flag is part of the key).
    pub induced: Option<bool>,
    /// Admission lane (see [`Priority`]).
    pub priority: Priority,
}

/// Why a query failed. Always per-query: no variant implies anything
/// about the health of the service or its warm pool.
#[derive(Debug)]
pub enum ServiceError {
    /// The deadline expired — in the queue (`partial == None`) or mid-run
    /// (`partial` holds the cancelled outcome, a lower-bound count).
    DeadlineExceeded {
        /// The partial outcome of a mid-run cancellation.
        partial: Option<Box<MatchOutcome>>,
    },
    /// Launch planning failed even after the degradation ladder.
    Launch(LaunchError),
    /// The run panicked past containment; the panic was caught at the
    /// query boundary, so the worker and its warm slot survive.
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

/// Service sizing: the engine template plus worker/batch knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Template configuration for every query (per-query options may
    /// override `induced` and `recovery`). Also fixes the warm-slot grid
    /// geometry and the plan options baked into cache entries.
    pub engine: EngineConfig,
    /// Worker threads, each owning one warm slot. Minimum 1.
    pub workers: usize,
    /// Most queries a worker drains per admission-lock acquisition.
    /// Bounds tail latency under a flood without a lock round-trip per
    /// query. Minimum 1.
    pub batch_max: usize,
}

impl ServiceConfig {
    /// Two workers, batches of eight — small enough for tests, enough
    /// parallelism to exercise the shared structures.
    pub fn new(engine: EngineConfig) -> ServiceConfig {
        ServiceConfig {
            engine,
            workers: 2,
            batch_max: 8,
        }
    }

    /// Sets the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> ServiceConfig {
        self.workers = workers.max(1);
        self
    }

    /// Sets the per-drain batch bound (clamped to at least 1).
    pub fn with_batch_max(mut self, batch_max: usize) -> ServiceConfig {
        self.batch_max = batch_max.max(1);
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig::new(EngineConfig::default())
    }
}

/// Plan-cache hit/miss/occupancy counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that compiled (the racing-compile case counts one miss per
    /// racer even though only one entry lands).
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

type WatchCallback = Arc<dyn Fn(WatchEvent) + Send + Sync>;

/// One registered watcher: anchored plans compiled once at registration,
/// reused for every batch.
#[derive(Clone)]
struct WatchEntry {
    id: WatchId,
    plans: Arc<DeltaPlans>,
    cb: WatchCallback,
}

/// The mutable topology of a delta-enabled service, guarded by the
/// rank-1 `ServiceGraph` lock: held only to fold a batch and clone out
/// snapshots/watchers — never across a launch, a compile, or a watcher
/// callback, so batch application structurally cannot starve the
/// admission or query lanes.
struct GraphState {
    overlay: DeltaOverlay,
    /// Snapshot of the current topology; queries resolve this `Arc` at
    /// execute time and run against it unlocked.
    current: Arc<Graph>,
    watchers: Vec<WatchEntry>,
    next_watch: u64,
    batches_since_compact: u32,
}

/// A pending reply: hold it and [`wait`](Ticket::wait) when the result is
/// needed, so a client can overlap submissions.
pub struct Ticket {
    rx: mpsc::Receiver<Result<MatchOutcome, ServiceError>>,
}

impl Ticket {
    /// Blocks until the query finishes. A service dropped with the query
    /// still queued reports [`ServiceError::ShuttingDown`].
    pub fn wait(self) -> Result<MatchOutcome, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }
}

/// One admitted query.
struct Request {
    pattern: Pattern,
    opts: QueryOptions,
    admitted: Instant,
    reply: mpsc::Sender<Result<MatchOutcome, ServiceError>>,
}

/// The two-lane admission queue (see [`Priority`]). Both lanes are FIFO;
/// the starvation guardrail lives in [`AdmissionQueue::drain`].
#[derive(Default)]
struct AdmissionQueue {
    high: VecDeque<Request>,
    normal: VecDeque<Request>,
}

impl AdmissionQueue {
    fn push(&mut self, req: Request) {
        match req.opts.priority {
            Priority::High => self.high.push_back(req),
            Priority::Normal => self.normal.push_back(req),
        }
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.high.is_empty() && self.normal.is_empty()
    }

    /// Removes up to `max` requests: high lane first, but when the normal
    /// lane is non-empty one slot of the batch is reserved for its oldest
    /// request — the starvation-freedom invariant (`max >= 1` always
    /// holds; `ServiceConfig::batch_max` is clamped).
    fn drain(&mut self, max: usize) -> Vec<Request> {
        let mut batch = Vec::new();
        let high_cap = if self.normal.is_empty() { max } else { max - 1 };
        while batch.len() < high_cap {
            match self.high.pop_front() {
                Some(r) => batch.push(r),
                None => break,
            }
        }
        while batch.len() < max {
            match self.normal.pop_front() {
                Some(r) => batch.push(r),
                None => break,
            }
        }
        batch
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

/// One plan-cache entry: the canonical plan (with the stream every query
/// on it interprets) and its verdict.
#[derive(Clone)]
struct CachedPlan {
    plan: Arc<MatchPlan>,
    /// Static verification verdict, filled at most once per canonical
    /// entry, by the first [`MatchService::verification`] ask (the graph is
    /// resident, so the certificate stays valid for the service's
    /// lifetime). Every later launch of the entry carries it.
    verification: Arc<OnceLock<Arc<Verification>>>,
}

/// State shared between clients and workers.
struct Inner {
    graph: Arc<Graph>,
    cfg: ServiceConfig,
    /// Instance id scoping this service's lock indices and its plan-cache
    /// shadow cell, so concurrent services never alias in the checker.
    check_id: u32,
    queue: Mutex<AdmissionQueue>,
    cache: Mutex<HashMap<PlanKey, CachedPlan>>,
    shutdown: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Cache entries verified / diagnostics raised (verification runs
    /// once per canonical entry; see `CachedPlan::verification`).
    verified: AtomicU64,
    diags: AtomicU64,
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

    fn lock_cache(&self) -> simt_check::Tracked<'_, HashMap<PlanKey, CachedPlan>> {
        simt_check::tracked_lock(
            &self.cache,
            simt_check::LockClass::ServicePlanCache,
            self.check_id as usize,
        )
    }

    /// The graph-state lock, rank 1 — acquired before (never while
    /// holding) any other tracked lock. `None` when delta mode is off.
    fn lock_graph(&self) -> Option<simt_check::Tracked<'_, GraphState>> {
        self.dynamic.as_ref().map(|m| {
            simt_check::tracked_lock(
                m,
                simt_check::LockClass::ServiceGraph,
                self.check_id as usize,
            )
        })
    }

    /// The graph a query should run against right now (and, when the
    /// overlay tracks them, the level-0 weights for the sharded split):
    /// the current delta snapshot, or the immutable shared graph.
    fn resolve_graph(&self) -> (Arc<Graph>, Option<Vec<u64>>) {
        match self.lock_graph() {
            Some(state) => (
                Arc::clone(&state.current),
                state.overlay.weights().map(<[u64]>::to_vec),
            ),
            None => (Arc::clone(&self.graph), None),
        }
    }

    /// Cached-or-compiled plan for `pattern`. The fast path is one lock
    /// acquisition and a map probe; the miss path compiles outside the lock
    /// and inserts through the entry API, so two racers compiling the same
    /// canonical form still land exactly one entry.
    fn plan_for(&self, pattern: &Pattern, induced: bool) -> CachedPlan {
        let key = PlanKey::new(pattern, induced);
        {
            let cache = self.lock_cache();
            simt_check::note_read(simt_check::Cell::plan_cache(self.check_id));
            if let Some(entry) = cache.get(&key) {
                // Relaxed: pure statistic, no ordering with cache state
                // (which the tracked lock above already serializes).
                self.hits.fetch_add(1, Ordering::Relaxed);
                return entry.clone();
            }
        }
        let plan = Arc::new(MatchPlan::compile(
            pattern,
            PlanOptions {
                induced,
                code_motion: self.cfg.engine.code_motion,
                symmetry_breaking: self.cfg.engine.symmetry_breaking,
            },
        ));
        // Relaxed: pure statistic, see the hit counter above.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut cache = self.lock_cache();
        simt_check::note_write(simt_check::Cell::plan_cache(self.check_id));
        match cache.entry(key) {
            Entry::Occupied(e) => e.get().clone(),
            Entry::Vacant(slot) => slot
                .insert(CachedPlan {
                    plan,
                    verification: Arc::default(),
                })
                .clone(),
        }
    }

    /// Runs one admitted query to a reply. Every failure mode maps to a
    /// per-query error; nothing here can take the worker down.
    fn execute(
        &self,
        warm: Option<&WarmSlot>,
        pattern: &Pattern,
        opts: &QueryOptions,
        admitted: Instant,
    ) -> Result<MatchOutcome, ServiceError> {
        let induced = opts.induced.unwrap_or(self.cfg.engine.induced);
        // The deadline clock starts at admission: time spent queued
        // behind other queries counts against the budget.
        let remaining = match opts.deadline {
            Some(d) => match d.checked_sub(admitted.elapsed()) {
                Some(r) if !r.is_zero() => Some(r),
                _ => return Err(ServiceError::DeadlineExceeded { partial: None }),
            },
            None => None,
        };
        let entry = self.plan_for(pattern, induced);
        let plan = &entry.plan;
        // Resolve the topology once, up front (rank-1 lock, released
        // immediately): the query runs against this snapshot even if a
        // batch lands mid-flight.
        let (graph, weights) = self.resolve_graph();
        let mut cfg = self.cfg.engine;
        cfg.induced = induced;
        if let Some(r) = opts.recovery {
            cfg.recovery = r;
        }
        if cfg.hub_bitmap.enabled {
            // Shared-index handoff: built at most once for the service's
            // lifetime, then every engine below sees graph.hub_bitmap().
            // Delta snapshots already carry a word-patched copy of the
            // base index (stamped with their version), so this is a no-op
            // for them.
            graph.ensure_hub_bitmap(cfg.hub_bitmap.hub_threshold);
        }
        let mut engine = Engine::new(cfg);
        if let Some(r) = remaining {
            engine = engine.with_timeout(r);
        }
        if let Some(f) = opts.fault_plan.clone() {
            engine = engine.with_fault_plan(f);
        }
        let ran = catch_unwind(AssertUnwindSafe(|| {
            if cfg.shard.shards > 1 {
                // Sharded route: the driver builds one grid per shard, so
                // the worker's single-grid warm slot cannot serve it; the
                // merged outcome keeps the service's count/metrics shape.
                // A delta overlay that tracks weights hands the split its
                // incrementally adjusted vector, skipping the O(graph)
                // recompute per query.
                engine
                    .run_plan_sharded_weighted(&graph, plan, weights.as_deref())
                    .map(|s| s.outcome)
            } else {
                engine.launch(&Launch {
                    warm,
                    verified: entry.verification.get().map(Arc::as_ref),
                    ..Launch::new(&graph, plan)
                })
            }
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
    /// Starts the worker threads; each builds its own warm slot at the
    /// configured grid geometry (falling back to cold per-query grids if
    /// that fails, e.g. on a degenerate geometry).
    /// # Panics
    /// With [`EngineConfig::delta`] enabled, `graph` must be a plain CSR
    /// (not a patched view): the delta overlay folds batches against it.
    pub fn new(graph: Arc<Graph>, cfg: ServiceConfig) -> MatchService {
        cfg.engine.validate();
        let dynamic = cfg.engine.delta.enabled.then(|| {
            if cfg.engine.hub_bitmap.enabled {
                // Build the shared index on the base *before* the first
                // snapshot, so every snapshot carries a version-stamped
                // patched copy instead of rebuilding from scratch.
                graph.ensure_hub_bitmap(cfg.engine.hub_bitmap.hub_threshold);
            }
            let mut overlay = DeltaOverlay::new((*graph).clone());
            if cfg.engine.shard.shards > 1 && cfg.engine.shard.work_aware {
                // Sharded queries split by level-0 weights; track them on
                // the overlay so each batch adjusts the touched vertices
                // instead of recomputing O(graph) per query.
                overlay.track_weights();
            }
            Mutex::new(GraphState {
                current: Arc::clone(&graph),
                overlay,
                watchers: Vec::new(),
                next_watch: 0,
                batches_since_compact: 0,
            })
        });
        let inner = Arc::new(Inner {
            graph,
            cfg,
            check_id: simt_check::next_object_id(),
            queue: Mutex::new(AdmissionQueue::default()),
            cache: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            verified: AtomicU64::new(0),
            diags: AtomicU64::new(0),
            dynamic,
        });
        let workers = (0..cfg.workers.max(1))
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
        let (reply, rx) = mpsc::channel();
        // Acquire: pairs with the Release store in Drop, so a client that
        // observes shutdown also observes every effect sequenced before it.
        if self.inner.shutdown.load(Ordering::Acquire) {
            let _ = reply.send(Err(ServiceError::ShuttingDown));
            return Ticket { rx };
        }
        let req = Request {
            pattern: pattern.clone(),
            opts,
            admitted: Instant::now(),
            reply,
        };
        self.inner.lock_queue().push(req);
        Ticket { rx }
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
        let entries = self.inner.lock_cache().len();
        // Relaxed: all four counters are pure statistics; the tracked
        // cache lock above already ordered this thread after the workers'
        // cache (and counter) updates.
        CacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            entries,
            verified: self.inner.verified.load(Ordering::Relaxed),
            // Relaxed: statistics snapshot; the tracked cache lock above
            // already ordered us after every entry that landed.
            diagnostics: self.inner.diags.load(Ordering::Relaxed),
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
        let entry = inner.plan_for(pattern, inner.cfg.engine.induced);
        let verdict = entry.verification.get_or_init(|| {
            let v = Engine::new(inner.cfg.engine).verify(&inner.graph, &entry.plan);
            // Relaxed: pure statistics, ticked once per entry (the OnceLock
            // runs one initializer) and read by cache_stats only.
            inner.verified.fetch_add(1, Ordering::Relaxed);
            inner
                .diags
                .fetch_add(v.diagnostics.len() as u64, Ordering::Relaxed);
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
    /// Watcher deltas are computed and delivered *on the caller's
    /// thread*, after the graph lock is released — a slow watcher delays
    /// only its own `apply_batch` caller, never the admission or query
    /// lanes, and a panicking one is contained: the batch still returns
    /// and every other watcher still gets its event.
    ///
    /// # Panics
    /// Panics if the service was not built with
    /// [`EngineConfig::with_delta`]`(true)`, or on malformed ops
    /// (self-loops, out-of-range endpoints).
    pub fn apply_batch(&self, ops: &[EdgeOp]) -> AppliedBatch {
        let inner = &self.inner;
        let (pre, post, batch, watchers) = {
            let mut state = inner
                .lock_graph()
                .expect("apply_batch requires EngineConfig::with_delta(true)");
            let pre = Arc::clone(&state.current);
            let batch = state.overlay.apply(ops);
            state.batches_since_compact += 1;
            if state.batches_since_compact >= inner.cfg.engine.delta.compact_every {
                state.overlay.compact();
                state.batches_since_compact = 0;
            }
            let post = Arc::new(state.overlay.snapshot());
            state.current = Arc::clone(&post);
            (pre, post, batch, state.watchers.clone())
        };
        // A delta step run contained: a launch error or a panic becomes the
        // `Err` its watchers' events carry.
        fn contained<T>(step: impl FnOnce() -> Result<T, LaunchError>) -> Result<T, String> {
            match catch_unwind(AssertUnwindSafe(step)) {
                Ok(Ok(v)) => Ok(v),
                Ok(Err(e)) => Err(format!("launch failed: {e}")),
                Err(payload) => Err(crate::fault::describe_payload(payload.as_ref())),
            }
        }
        // Stage each batch side once: every watcher's plans run on the same
        // stage views, delta engine and warm slot.
        let staged = if watchers.is_empty() {
            Ok(None)
        } else {
            let engine = Engine::new(inner.cfg.engine);
            contained(|| StagedBatch::new(&engine, &pre, &post, &batch))
        };
        for w in &watchers {
            let delta = match &staged {
                Ok(Some(staged)) => contained(|| staged.run(&w.plans)).map(|(delta, _)| delta),
                Ok(None) => Ok(MatchDelta::default()),
                Err(e) => Err(e.clone()),
            };
            let event = WatchEvent {
                watch: w.id,
                version: batch.version,
                batch: batch.clone(),
                delta,
            };
            // Contained like the launch above: one bad subscriber must not
            // unwind into the updater (the graph is already swapped) or
            // starve the later watchers of this batch. The watcher stays
            // registered; its panic has no ticket to be reported on and is
            // dropped.
            let _ = catch_unwind(AssertUnwindSafe(|| (w.cb)(event)));
        }
        batch
    }

    /// Registers a pattern watcher: `cb` receives one [`WatchEvent`] per
    /// subsequent [`MatchService::apply_batch`], carrying the pattern's
    /// exact match-count delta under that batch. Anchored plans compile
    /// here, once, outside the graph lock.
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
        let plans = Arc::new(Engine::new(inner.cfg.engine).compile_delta(pattern));
        let mut state = inner.lock_graph().expect("delta mode checked above");
        let id = WatchId(state.next_watch);
        state.next_watch += 1;
        state.watchers.push(WatchEntry {
            id,
            plans,
            cb: Arc::new(cb),
        });
        id
    }

    /// Unregisters a watcher; returns whether it was still registered.
    pub fn cancel_watch(&self, id: WatchId) -> bool {
        let mut state = self
            .inner
            .lock_graph()
            .expect("cancel_watch requires EngineConfig::with_delta(true)");
        let before = state.watchers.len();
        state.watchers.retain(|w| w.id != id);
        state.watchers.len() != before
    }

    /// The graph queries currently run against: the latest delta snapshot
    /// for delta-enabled services, the shared immutable graph otherwise.
    pub fn current_graph(&self) -> Arc<Graph> {
        self.inner.resolve_graph().0
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
        // Release: publishes everything before shutdown to the Acquire
        // loads in `enqueue` and the worker loop.
        self.inner.shutdown.store(true, Ordering::Release);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Worker: drain up to `batch_max` requests per admission-lock
/// acquisition, serve them back-to-back on this worker's warm slot, park
/// briefly when idle. Exits when shutdown is flagged *and* the queue is
/// empty, so pending clients always hear back.
fn worker_loop(inner: &Inner) {
    let warm = WarmSlot::new(inner.cfg.engine.grid).ok();
    loop {
        let batch = inner.lock_queue().drain(inner.cfg.batch_max);
        if batch.is_empty() {
            // Acquire: pairs with Drop's Release store; checked only after
            // an empty drain so every admitted query still gets a reply.
            if inner.shutdown.load(Ordering::Acquire) {
                break;
            }
            std::thread::yield_now();
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        for req in batch {
            let result = inner.execute(warm.as_ref(), &req.pattern, &req.opts, req.admitted);
            // A client that dropped its ticket is not an error.
            let _ = req.reply.send(result);
        }
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
        let induced = inner.cfg.engine.induced;
        let key = PlanKey::new(pattern, induced);
        let plan = Arc::new(MatchPlan::compile(
            pattern,
            PlanOptions {
                induced,
                code_motion: inner.cfg.engine.code_motion,
                symmetry_breaking: inner.cfg.engine.symmetry_breaking,
            },
        ));
        simt_check::note_write(simt_check::Cell::plan_cache(inner.check_id));
        inner
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                key,
                CachedPlan {
                    plan,
                    verification: Arc::default(),
                },
            );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let (reply, _rx) = mpsc::channel();
        Request {
            pattern: catalog::triangle(),
            opts: QueryOptions {
                deadline: Some(Duration::from_secs(tag)),
                priority,
                ..QueryOptions::default()
            },
            admitted: Instant::now(),
            reply,
        }
    }

    fn tag(r: &Request) -> u64 {
        r.opts.deadline.unwrap().as_secs()
    }

    #[test]
    fn full_batch_reserves_a_slot_for_the_normal_lane() {
        let mut q = AdmissionQueue::default();
        for t in 0..6 {
            q.push(tagged_request(Priority::High, t));
        }
        for t in 100..103 {
            q.push(tagged_request(Priority::Normal, t));
        }
        // A drain the high lane could fill alone must still carry the
        // oldest normal request — the starvation-freedom invariant.
        let batch = q.drain(4);
        assert_eq!(
            batch.iter().map(tag).collect::<Vec<_>>(),
            vec![0, 1, 2, 100],
            "three high (FIFO) plus the oldest normal"
        );
        // Next drain: the remaining high requests, then the reserve again.
        let batch = q.drain(4);
        assert_eq!(
            batch.iter().map(tag).collect::<Vec<_>>(),
            vec![3, 4, 5, 101]
        );
        // High lane empty: the normal lane gets the whole batch.
        let batch = q.drain(4);
        assert_eq!(batch.iter().map(tag).collect::<Vec<_>>(), vec![102]);
        assert!(q.is_empty());
    }

    #[test]
    fn high_lane_dequeues_ahead_of_earlier_normals() {
        let mut q = AdmissionQueue::default();
        q.push(tagged_request(Priority::Normal, 100));
        q.push(tagged_request(Priority::High, 0));
        // Admitted later, served first; the waiting normal keeps the
        // reserved slot.
        let batch = q.drain(2);
        assert_eq!(batch.iter().map(tag).collect::<Vec<_>>(), vec![0, 100]);
        // A batch of one never deadlocks the reservation arithmetic.
        q.push(tagged_request(Priority::High, 1));
        q.push(tagged_request(Priority::Normal, 101));
        assert_eq!(q.drain(1).iter().map(tag).collect::<Vec<_>>(), vec![101]);
        assert_eq!(q.drain(1).iter().map(tag).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn mixed_priority_flood_completes_everything() {
        let graph = Arc::new(gen::erdos_renyi(40, 160, 7));
        let cfg = small_cfg().with_workers(1).with_batch_max(2);
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
        // A shard kill injected per query recovers exactly, and the
        // worker survives to serve the next query. Both shards are marked:
        // with one victim, its sibling can steal the whole rail before the
        // victim's warps reach their fatal claim (about one run in ten on a
        // 2-vCPU box), and then nobody dies.
        let opts = QueryOptions {
            fault_plan: Some(FaultPlan::seeded_shard_kill(0x7a, 2, 2)),
            ..QueryOptions::default()
        };
        let faulted = svc.submit(&q, opts).unwrap();
        assert_eq!(faulted.count, expected);
        let report = faulted.fault.expect("a shard died");
        assert!(report.fully_recovered());
        assert!(report.reproduce.is_some());
        assert_eq!(
            svc.submit(&q, QueryOptions::default()).unwrap().count,
            expected
        );
    }

    #[test]
    fn the_shard_count_is_the_route() {
        let graph = Arc::new(gen::preferential_attachment(100, 4, 5).degree_ordered());
        let q = catalog::paper_query(6);
        let expected = Engine::new(small_cfg().engine)
            .run(&graph, &q)
            .unwrap()
            .count;
        // Serve on a slot of our own to watch it: the single-grid route
        // parks its arenas there, the sharded driver builds its own grids
        // and leaves it untouched.
        for (shards, single_grid) in [(1, true), (2, false)] {
            let mut cfg = small_cfg();
            cfg.engine = cfg.engine.with_shards(shards);
            let svc = MatchService::new(Arc::clone(&graph), cfg);
            let slot = WarmSlot::new(cfg.engine.grid).unwrap();
            let out = svc
                .inner
                .execute(Some(&slot), &q, &QueryOptions::default(), Instant::now())
                .unwrap();
            assert_eq!(out.count, expected, "{shards} shard(s)");
            assert_eq!(slot.arenas().parked() > 0, single_grid, "{shards} shard(s)");
            if single_grid {
                assert_eq!(out.metrics.total().shard_steal_receives, 0);
            }
        }
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
        let mut running = svc.submit(&q, QueryOptions::default()).unwrap().count as i64;
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

    /// Satellite starvation guarantee: a stream of `apply_batch` calls
    /// with registered watchers never blocks the one-shot admission lane —
    /// watcher deltas run on the applier's thread, outside every service
    /// lock, so concurrently submitted queries keep completing.
    #[test]
    fn watch_deltas_never_starve_the_one_shot_lane() {
        let graph = Arc::new(gen::preferential_attachment(40, 3, 5).degree_ordered());
        let cfg = delta_cfg().with_workers(1).with_batch_max(2);
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
