//! The STMatch engine: launch planning, the per-warp driver (a loop over
//! [`WarpKernel::step`] that holds the one idle spin), and the matching API.
//!
//! ## Fault-tolerant execution
//!
//! The engine survives two failure classes without giving up the run
//! (see DESIGN.md §4d):
//!
//! * **Warp deaths** (injected via [`FaultPlan`] or real panics): every
//!   warp body runs under its own `catch_unwind`; a dying warp's
//!   unfinished work is reclaimed from its kernel ([`WarpKernel::
//!   reclaim_on_death`]) and requeued on the [`Board`] for survivors, so
//!   counts stay exact. Deaths are recorded in a [`FaultReport`] on the
//!   outcome.
//! * **Stranded work** (all warps of a grid died — a whole shard included —
//!   or naive mode had no idle phase left to absorb a late requeue):
//!   at most two *salvage relaunches* drain leftover payloads and unclaimed
//!   chunks with fault injection disabled.
//!
//! A grid is planned once, at its configured geometry, as the paper sizes
//! its stacks once. One that does not fit fails before any warp runs, with
//! the [`LaunchError`] that names what overflowed: the shared-memory
//! reservation that did not fit the block, or the global stacks that did
//! not fit the device budget.

use crate::config::EngineConfig;
use crate::delta::StagedSide;
use crate::fault::{FaultPlan, FaultReport, WarpDeath};
use crate::kernel::{KernelEnv, Step, WarpKernel};
use crate::pool::WarmSlot;
use crate::shard;
use crate::steal::{Board, StealPayload};
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use stmatch_gpusim::{Grid, GridMetrics, LaunchError, MemoryBudget, SharedBudget};
use stmatch_graph::{Graph, VertexId};
use stmatch_pattern::{MatchPlan, Pattern, PlanOptions, SlotTable};
use stmatch_plan_verify::Verification;

/// The most salvage relaunches one grid runs after its main pass (see
/// [`FaultReport::salvage_launches`]).
const SALVAGE_PASSES: u32 = 2;

/// Result of an enumeration run: the embeddings plus the usual outcome.
#[derive(Clone, Debug)]
pub struct Enumeration {
    /// One entry per match, indexed by pattern vertex: `embeddings[i][u]`
    /// is the data vertex matched to pattern vertex `u`. Sorted
    /// lexicographically for run-to-run determinism.
    pub embeddings: Vec<Vec<VertexId>>,
    /// Metrics of the run.
    pub outcome: MatchOutcome,
}

/// Result of one matching run.
///
/// A delta-enabled [`MatchService`](crate::MatchService) may answer from a
/// count it maintains, with no launch: then `metrics` are the merged metrics
/// of the delta launches that advanced the count since the previous answer
/// (none on a second answer for the same snapshot), `shards` is empty,
/// `fault` is `None`, and every other field is the last recount's.
#[derive(Clone, Debug)]
pub struct MatchOutcome {
    /// Number of matches (subgraphs with symmetry breaking on, embeddings
    /// otherwise).
    pub count: u64,
    /// Execution metrics (lane utilization, steals, load balance, wall
    /// time).
    pub metrics: GridMetrics,
    /// Shared-memory bytes reserved per threadblock at launch.
    pub shared_bytes_per_block: usize,
    /// Global-memory bytes reserved for the warp stacks (the paper's fixed
    /// `NUM_SETS × UNROLL × MAX_DEGREE × NUM_WARP` budget).
    pub stack_bytes: usize,
    /// The compiled plan's set count (`NUM_SETS`).
    pub num_sets: usize,
    /// True when the run was cut short by [`Engine::with_timeout`]; the
    /// count is then a partial lower bound (the paper's '−' cells).
    pub timed_out: bool,
    /// What the fault-tolerance layer observed: warp deaths, requeued
    /// work, salvage relaunches. `None` for clean runs; when present and
    /// [`FaultReport::fully_recovered`], the count is still exact.
    pub fault: Option<FaultReport>,
    /// Inert, empty by type and zero-sized: a launch runs as configured or
    /// fails. Kept for `benchmark/`; deleted by ROADMAP item 1.
    pub downgrades: [Infallible; 0],
    /// The kernel counters of `metrics.total()`, kept as fields for
    /// `benchmark/`. Candidate-list slab overflows that spilled to the heap
    /// (see `arena`): hub lists longer than `max_degree_slab`.
    pub spill_events: u64,
    /// Largest per-warp high-water mark of live candidate cells across
    /// the run's stack arenas (see `arena`). When the launch carries a
    /// verdict ([`Launch::verified`]), debug builds audit this against the
    /// certificate's `ResourceCert::peak_cells` bound.
    pub peak_slab_cells: u64,
    /// Fused tails (DESIGN.md §4c, "Last-level counting"): the streams the
    /// kernels issued over whole parent batches of the last claim level and
    /// the survivors those counted in closed form; `[0, 0]` when the plan forms
    /// no tail. `check hotpath` prints and pins it.
    pub tail: [u64; 2],
    /// Always `None`: one interpreter serves every launch. Inert, kept for
    /// `benchmark/`'s `compile.served_tier` leg; deleted with
    /// [`CompileTuning`](crate::config::CompileTuning) by ROADMAP item 1.
    pub served_tier: Option<u8>,
    /// A split launch's per-shard outcomes, indexed by shard (a dead shard's
    /// salvage shows in its own fault report); empty when one grid ran.
    pub shards: Vec<MatchOutcome>,
}

impl MatchOutcome {
    /// Wall-clock milliseconds of the launch.
    pub fn elapsed_ms(&self) -> f64 {
        self.metrics.elapsed_nanos as f64 / 1e6
    }

    /// Simulated GPU time: the maximum SIMT instruction count over all
    /// warps. On hardware the grid finishes when its slowest warp finishes;
    /// this deterministic proxy makes load-balance effects measurable on
    /// any host (see DESIGN.md §1, "What time means here").
    pub fn simulated_cycles(&self) -> u64 {
        self.metrics
            .warps
            .iter()
            .map(|w| w.simt_instructions)
            .max()
            .unwrap_or(0)
    }

    /// Total SIMT instructions across warps (the work metric that code
    /// motion and unrolling reduce).
    pub fn total_instructions(&self) -> u64 {
        self.metrics.total().simt_instructions
    }
}

/// The STMatch matching engine.
///
/// ```
/// use stmatch_core::{Engine, EngineConfig};
/// use stmatch_graph::gen;
/// use stmatch_pattern::catalog;
///
/// let graph = gen::complete(6);
/// let engine = Engine::new(EngineConfig::default());
/// let outcome = engine.run(&graph, &catalog::triangle()).unwrap();
/// assert_eq!(outcome.count, 20); // C(6,3) triangles
/// ```
pub struct Engine {
    cfg: EngineConfig,
    memory: MemoryBudget,
    timeout: Option<std::time::Duration>,
    faults: Option<FaultPlan>,
    /// The arenas every launch of this engine runs on: each warp checks
    /// out the one parked under its id and gives it back (see
    /// [`crate::pool`]).
    arenas: WarmSlot,
}

/// One launch request: what to match, on which graph, and under which
/// limits. Every route — one-shot runs, enumeration, the
/// service's cached queries, each (batch side × anchored plan) of a delta
/// batch — builds one of these and hands it to [`Engine::launch`], which
/// picks the grids it runs on. The warps' stack arenas are the engine's,
/// recycled from one launch to the next.
///
/// ```
/// use stmatch_core::{Engine, EngineConfig, Launch};
/// use stmatch_graph::gen;
/// use stmatch_pattern::catalog;
///
/// let graph = gen::complete(6);
/// let engine = Engine::new(EngineConfig::default());
/// let plan = engine.compile(&catalog::triangle());
/// let outcome = engine.launch(&Launch::new(&graph, &plan)).unwrap();
/// assert_eq!(outcome.count, 20);
/// ```
#[derive(Clone, Copy)]
pub struct Launch<'a> {
    /// The data graph.
    pub graph: &'a Graph,
    /// The compiled matching plan.
    pub plan: &'a MatchPlan,
    /// A static verification of `plan` against `graph`
    /// ([`Engine::verify`]; the service attaches its cached verdict). The
    /// launch runs on certificate-shaped slabs whenever the verdict's
    /// `footprint_caps()` offers some, and debug builds audit the run's
    /// spill and peak counters against the certificate. A verdict computed
    /// for another graph can make lists spill to the heap, never miscount.
    pub verified: Option<&'a Verification>,
    /// Enumeration sink: warps append `k`-strided embedding records.
    pub(crate) collector: Option<&'a Mutex<Vec<VertexId>>>,
    /// Where level-0 work comes from.
    pub(crate) domain: Level0<'a>,
    /// When the launch gives up (a timed-out outcome): a service query's
    /// deadline, a cost estimate's ([`crate::estimate`]). Left `None`, a
    /// whole-graph launch takes [`Engine::with_timeout`]'s and an anchored
    /// one runs to the end — a partial delta is a wrong one, not a lower
    /// bound.
    pub(crate) deadline: Option<Instant>,
    /// The launch's fault plan (a service query's own); left `None`, the
    /// engine's ([`Engine::with_fault_plan`]).
    pub(crate) faults: Option<&'a FaultPlan>,
    /// Gives the launch up (a timed-out outcome) once its warps have
    /// charged this many simulated instructions between them: a cost
    /// estimate past it is out of the running ([`crate::estimate`]).
    pub(crate) cap: Option<u64>,
}

impl<'a> Launch<'a> {
    /// A cold counting launch of `plan` over the whole of `graph`.
    pub fn new(graph: &'a Graph, plan: &'a MatchPlan) -> Launch<'a> {
        Launch {
            graph,
            plan,
            verified: None,
            collector: None,
            domain: Level0::Whole,
            deadline: None,
            faults: None,
            cap: None,
        }
    }
}

/// The level-0 domain of a launch: which outermost-loop iterations it owns
/// and how a claimed virtual index becomes a data vertex
/// ([`WarpKernel`]'s `enter_level0`). Chunk ranges and reclaimed payloads
/// stay in virtual index space, so they are portable across every grid of
/// one domain.
#[derive(Clone, Copy)]
pub(crate) enum Level0<'a> {
    /// Every vertex of the graph: index `i` is vertex `i`, off the grid's
    /// own chunk dispenser (one `Slice` per shard when the launch splits).
    Whole,
    /// One shard's grid ([`crate::shard`]): the shard's slice of the
    /// level-0 order, off the grid's own dispenser, with
    /// `slice[virtual_index]` the data vertex.
    Slice(&'a [VertexId]),
    /// One side of a delta batch ([`crate::delta`]): the level-0 domain is
    /// the update set itself. Index `i` names a stage `s` and one endpoint
    /// of update edge `edges[s]` (each `(lo, hi)`, `lo < hi`), matched on
    /// that stage's graph `views[s]`, and level 1's range is the edge's
    /// other endpoint alone — so one launch counts every match that places
    /// the plan's first two order positions on a batch edge, each against
    /// its own stage graph, and the warps of [`EngineConfig::grid`] claim
    /// stages as chunks off the ordinary dispenser, as in any launch. When
    /// the plan orients its anchor (a level-1 bound against level 0) only
    /// one endpoint can start a match: stage `s = i` starts at `hi` under
    /// `Bound::Less` and at `lo` under `Bound::Greater`. Otherwise `s = i /
    /// 2` and `i % 2` picks the endpoint. The stage is keyed by the index,
    /// not the vertex: one vertex may end many batch edges. `Launch::graph`
    /// is stage 0's view (the side's graph, row for row); it only sizes the
    /// slabs.
    Anchored(&'a StagedSide),
}

impl Engine {
    /// Creates an engine with the given configuration and an unlimited
    /// device-memory budget.
    pub fn new(cfg: EngineConfig) -> Engine {
        Engine {
            cfg,
            memory: MemoryBudget::unlimited(),
            timeout: None,
            faults: None,
            arenas: WarmSlot::empty(),
        }
    }

    /// Creates an engine with a device-memory budget (bytes); each shard
    /// and each anchored delta launch plans against a fresh budget at the
    /// same limit.
    pub fn with_memory_budget(cfg: EngineConfig, bytes: usize) -> Engine {
        Engine {
            memory: MemoryBudget::new(bytes),
            ..Engine::new(cfg)
        }
    }

    /// Sets a wall-clock budget after which a whole-graph run that carries
    /// no deadline of its own is cancelled cooperatively; a cancelled
    /// outcome has `timed_out == true` and a partial count. Delta batches
    /// never take it: a partial count of an anchored launch would be a
    /// wrong delta, not a lower bound. [`Engine::compile_delta_on`] bounds
    /// its estimate by it.
    pub fn with_timeout(mut self, timeout: std::time::Duration) -> Engine {
        self.timeout = Some(timeout);
        self
    }

    /// Attaches a deterministic [`FaultPlan`] to every subsequent launch
    /// that carries none of its own (testing/chaos engineering; injection
    /// is off unless this is called or a service query carries a plan).
    /// Each grid of a launch runs the plan scoped to it
    /// ([`FaultPlan::for_shard`]; see [`FaultKind::ShardKill`](crate::fault::FaultKind)).
    /// Salvage relaunches always run with injection disabled.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Engine {
        self.faults = Some(plan);
        self
    }

    /// When a run started now would pass [`Engine::with_timeout`]'s
    /// budget, if it set one that a clock can reach.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.timeout.and_then(|t| Instant::now().checked_add(t))
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The free-list this engine's launches recycle their warps' arenas
    /// through. Public for tests that read what a launch left parked.
    #[doc(hidden)]
    pub fn arenas(&self) -> &WarmSlot {
        &self.arenas
    }

    /// Compiles the plan for `pattern` under this engine's options.
    pub fn compile(&self, pattern: &Pattern) -> MatchPlan {
        MatchPlan::compile(
            pattern,
            PlanOptions {
                induced: self.cfg.induced,
                code_motion: self.cfg.code_motion,
                symmetry_breaking: self.cfg.symmetry_breaking,
            },
        )
    }

    /// Statically verifies `plan` against `graph` (DESIGN.md §4j): resource
    /// certificate at this engine's slab capacity, bytecode liveness, plan
    /// soundness. Nothing verifies unless the caller asks; attach the
    /// verdict to a launch through [`Launch::verified`].
    ///
    /// ```
    /// use stmatch_core::{Engine, EngineConfig, Launch};
    /// use stmatch_graph::gen;
    /// use stmatch_pattern::catalog;
    ///
    /// let graph = gen::complete(6);
    /// let engine = Engine::new(EngineConfig::default());
    /// let plan = engine.compile(&catalog::triangle());
    /// let verdict = engine.verify(&graph, &plan);
    /// assert!(verdict.is_clean());
    /// let mut request = Launch::new(&graph, &plan);
    /// request.verified = Some(&verdict);
    /// assert_eq!(engine.launch(&request).unwrap().count, 20);
    /// ```
    pub fn verify(&self, graph: &Graph, plan: &MatchPlan) -> Verification {
        let slab_cap = self.cfg.max_degree_slab.min(graph.max_degree().max(1));
        let repro = format!(
            "Engine::verify on graph '{}' ({} vertices), slab_cap {slab_cap}",
            graph.name(),
            graph.num_vertices(),
        );
        stmatch_plan_verify::verify_plan(
            plan,
            &stmatch_plan_verify::GraphProfile::of(graph),
            slab_cap,
            &repro,
        )
    }

    /// The claim widths and per-set arena slots `req`'s kernels run with
    /// under this engine's configuration (its [`KernelEnv`]'s): what a
    /// certificate's
    /// [`peak_cells`](stmatch_plan_verify::ResourceCert::peak_cells) is
    /// taken over.
    pub fn slot_table(&self, req: &Launch<'_>) -> SlotTable {
        *KernelEnv::new(*req, &self.cfg).slot_table()
    }

    /// Matches `pattern` in `graph` and returns the count plus metrics.
    pub fn run(&self, graph: &Graph, pattern: &Pattern) -> Result<MatchOutcome, LaunchError> {
        self.launch(&Launch::new(graph, &self.compile(pattern)))
    }

    /// Matches `pattern` and materializes every embedding (Fig. 3's
    /// `Output` path). Match counts explode quickly — prefer [`Engine::run`]
    /// unless the embeddings themselves are needed.
    pub fn enumerate(&self, graph: &Graph, pattern: &Pattern) -> Result<Enumeration, LaunchError> {
        let plan = self.compile(pattern);
        self.enumerate_plan(graph, &plan)
    }

    /// [`Engine::enumerate`] with a pre-compiled plan.
    pub fn enumerate_plan(
        &self,
        graph: &Graph,
        plan: &MatchPlan,
    ) -> Result<Enumeration, LaunchError> {
        let collector = Mutex::new(Vec::new());
        let outcome = self.launch(&Launch {
            collector: Some(&collector),
            ..Launch::new(graph, plan)
        })?;
        // Warps emit flat k-strided records; chunk them into per-embedding
        // vectors here, off the hot path.
        let k = plan.num_levels();
        let flat = collector
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let mut embeddings: Vec<Vec<VertexId>> =
            flat.chunks_exact(k).map(<[VertexId]>::to_vec).collect();
        embeddings.sort_unstable();
        debug_assert_eq!(embeddings.len() as u64, outcome.count);
        Ok(Enumeration {
            embeddings,
            outcome,
        })
    }

    /// [`Engine::launch`] of a cold whole-graph request. Kept for
    /// `benchmark/`; ROADMAP item 1 deletes it.
    pub fn run_plan(&self, graph: &Graph, plan: &MatchPlan) -> Result<MatchOutcome, LaunchError> {
        self.launch(&Launch::new(graph, plan))
    }

    /// [`Engine::launch`] of a whole-graph request; `_warm` is ignored,
    /// since every launch recycles the engine's own arenas. Kept for
    /// `benchmark/`; ROADMAP item 1 deletes it.
    pub fn run_plan_warm(
        &self,
        graph: &Graph,
        plan: &MatchPlan,
        _warm: &WarmSlot,
    ) -> Result<MatchOutcome, LaunchError> {
        self.launch(&Launch::new(graph, plan))
    }

    /// Runs one [`Launch`] request — the single way into the kernel, and
    /// the one place a request becomes grids: one per shard of a
    /// whole-graph request when [`EngineConfig::shard`] asks for more than
    /// one (merged), else one. Every grid is [`EngineConfig::grid`], and its
    /// warps run on the engine's recycled arenas. A limit the request leaves
    /// unset is the engine's ([`Engine::with_timeout`],
    /// [`Engine::with_fault_plan`]), except that an anchored request never
    /// takes the engine's timeout. A grid that does not fit its budget fails
    /// the launch before its warps run.
    pub fn launch(&self, req: &Launch<'_>) -> Result<MatchOutcome, LaunchError> {
        let cfg = &self.cfg;
        cfg.validate();
        let whole = matches!(req.domain, Level0::Whole);
        let split = whole && cfg.shard.shards > 1;
        let mut req = *req;
        req.faults = req.faults.or(self.faults.as_ref());
        if whole {
            req.deadline = req.deadline.or_else(|| self.deadline());
        }
        if let Some(plan) = req.faults {
            plan.check_shard_kills(if split { cfg.shard.shards } else { 1 });
        }
        let device = || MemoryBudget::new(self.memory.limit());
        match req.domain {
            Level0::Whole if split => {
                let splan = shard::split(req.graph, cfg.shard);
                let run_shard = |s| {
                    let mut slice = req;
                    slice.domain = Level0::Slice(splan.slice(s));
                    self.launch_grid(&slice, s, &device())
                };
                let shards = std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..splan.num_shards())
                        .map(|s| scope.spawn(move || run_shard(s)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("shard driver thread panicked"))
                        .collect::<Result<_, _>>()
                })?;
                Ok(shard::merge(shards))
            }
            Level0::Anchored(_) => self.launch_grid(&req, 0, &device()),
            _ => self.launch_grid(&req, 0, &self.memory),
        }
    }

    /// Runs `req` as shard `shard`'s grid, at [`EngineConfig::grid`]: scopes
    /// the request's fault plan to the grid, resolves the launch once
    /// ([`KernelEnv::new`]), plans the shared budget and the global one
    /// (`memory`) from it, and runs until the grid's work is done, its
    /// deadline passes or salvage gives up.
    fn launch_grid(
        &self,
        req: &Launch<'_>,
        shard: usize,
        memory: &MemoryBudget,
    ) -> Result<MatchOutcome, LaunchError> {
        let cfg = &self.cfg;
        let faults = req
            .faults
            .map(|p| p.for_shard(shard, cfg.grid.total_warps()))
            .filter(|p| !p.is_empty());
        let env = KernelEnv::new(
            Launch {
                faults: faults.as_ref(),
                ..*req
            },
            cfg,
        );
        let sim = Grid::new(cfg.grid)?;
        let plan = req.plan;
        let k = plan.num_levels();

        // --- Launch planning: shared-memory budget (per block). ---
        let mut shared = SharedBudget::new(cfg.grid.shared_mem_per_block);
        let wpb = cfg.grid.warps_per_block;
        // Csize: one u32 per set per unroll slot per warp (Fig. 7).
        shared.try_alloc("Csize", plan.num_sets() * cfg.unroll * 4 * wpb)?;
        // iter/uiter/level cursors per warp.
        shared.try_alloc("iter+uiter+level", (2 * k + 1) * 8 * wpb)?;
        // Dependence encoding (Fig. 9b), shared by the block: a u32 row
        // pointer per level (plus the end) and a 4-byte op triple per set.
        shared.try_alloc("set_ops+row_ptr", (k + 1 + plan.num_sets()) * 4)?;
        // Steal mirrors: cursors + matched prefix for the stealable levels.
        shared.try_alloc("steal mirrors", (3 * env.stop() * 8 + 8) * wpb)?;
        let shared_bytes = shared.used();

        // --- Global memory: fixed stack slabs (paper §VIII-A). ---
        let num_warps = cfg.grid.total_warps();
        let stack_bytes = plan.num_sets() * cfg.unroll * cfg.max_degree_slab * 4 * num_warps;
        // Beside them, the rows every warp holds (the marker rows of the
        // plan's marked positions, the rank row of a lifted last level);
        // `MatchOutcome::stack_bytes` stays the paper's formula.
        let reserved = stack_bytes + env.row_bytes() * num_warps;
        memory.try_alloc(reserved)?;
        let (metrics, timed_out, report) = self.run_passes(&env, &sim);
        memory.free(reserved);
        let total = metrics.total();
        let outcome = MatchOutcome {
            count: total.matches_found,
            metrics,
            shared_bytes_per_block: shared_bytes,
            stack_bytes,
            num_sets: plan.num_sets(),
            timed_out,
            fault: (!report.is_clean()).then_some(report),
            downgrades: [],
            spill_events: total.spill_events,
            peak_slab_cells: total.peak_slab_cells,
            tail: [total.tail_streams, total.tail_survivors],
            served_tier: None,
            shards: Vec::new(),
        };
        // Runtime audit of the static certificate: the launch ran at the
        // certified slab capacity, so a spill under a spill-free cert — or a
        // peak above the abstract bound — is a verifier soundness bug (or a
        // verdict attached to the wrong plan or graph).
        if let Some(v) = req.verified {
            if v.cert.spill_free {
                debug_assert_eq!(
                    outcome.spill_events, 0,
                    "certificate claims spill-freedom but the run spilled"
                );
            }
            let bound = v.cert.peak_cells(env.slot_table());
            debug_assert!(
                outcome.peak_slab_cells <= bound,
                "runtime peak {} exceeds certified bound {bound}",
                outcome.peak_slab_cells,
            );
        }
        Ok(outcome)
    }

    /// Runs the grid over the resolved level-0 domain: one pass, plus
    /// bounded salvage relaunches for work stranded by warp deaths. Returns
    /// the passes' metrics, whether the deadline cut them short, and what
    /// the fault layer saw.
    fn run_passes(&self, env: &KernelEnv<'_>, grid: &Grid) -> (GridMetrics, bool, FaultReport) {
        let (cfg, req) = (env.cfg, &env.launch);
        // While a plan can kill warps, swallow the default panic-hook
        // output for injected payloads (real panics still print).
        let mut faults = req.faults;
        let _quiet = faults
            .filter(|p| p.injects_panics())
            .map(|_| crate::fault::silence_fault_panics());

        let mut report = FaultReport {
            reproduce: faults.and_then(|p| p.reproduce_line().map(String::from)),
            ..FaultReport::default()
        };
        let mut metrics = GridMetrics::default();
        let mut timed_out = false;
        // Salvage state threaded between passes: where the level-0 range
        // stops and which reclaimed payloads are still unfinished.
        let mut cursor = 0usize;
        let mut preload: Vec<StealPayload> = Vec::new();
        loop {
            let mut board = Board::new(
                cfg.grid.num_blocks,
                cfg.grid.warps_per_block,
                env.stop(),
                (cursor, env.l0_len()),
                cfg.chunk_size,
            );
            if !preload.is_empty() {
                board.preload(std::mem::take(&mut preload));
            }
            if let Some(d) = req.deadline {
                board.set_deadline(d);
            }
            if let Some(cap) = req.cap {
                board.set_cap(cap);
            }
            let deaths: Mutex<Vec<WarpDeath>> = Mutex::new(Vec::new());
            let body = |warp: &mut stmatch_gpusim::Warp| {
                self.warp_body(env, &board, faults, &deaths, warp);
            };
            let (pass_metrics, escaped) = grid.launch_contained(&body);
            // The first pass's metrics are the run's, moved rather than
            // merged into an empty copy; a salvage pass adds to them.
            metrics.absorb(pass_metrics);
            report.escaped_panics += escaped.len();
            for d in deaths.into_inner().unwrap_or_else(PoisonError::into_inner) {
                report.requeued += d.requeued;
                report.deaths.push(d);
            }
            let aborted = board.aborted();
            timed_out = timed_out || aborted;
            cursor = board.chunk_cursor();
            let leftovers = board.take_leftovers();
            let work_remains = !leftovers.is_empty() || cursor < env.l0_len();
            if aborted || !work_remains {
                // Timed-out (or containment-failed) runs are partial by
                // contract; completed runs have nothing left to salvage.
                report.unrecovered += leftovers.len();
                break;
            }
            if report.salvage_launches >= SALVAGE_PASSES {
                report.unrecovered += leftovers.len();
                break;
            }
            // Salvage relaunch: drain the stranded work with injection off
            // (an all-warps-dead grid, or a naive-mode requeue that landed
            // after every warp had exited, leaves work behind).
            report.salvage_launches += 1;
            preload = leftovers;
            faults = None;
        }
        (metrics, timed_out, report)
    }

    /// One warp's driver loop over [`WarpKernel::step`], wrapped in the
    /// containment protocol: on panic, the kernel's unfinished work is
    /// reclaimed and requeued, the board's liveness bookkeeping is repaired,
    /// and the death is recorded — survivors finish with exact counts.
    fn warp_body(
        &self,
        env: &KernelEnv<'_>,
        board: &Board,
        faults: Option<&FaultPlan>,
        deaths: &Mutex<Vec<WarpDeath>>,
        warp: &mut stmatch_gpusim::Warp,
    ) {
        let me = warp.id();
        // The arena parked under this warp's id (reset, not reallocated);
        // only a warp with none parked builds a fresh one. Building the
        // kernel injects no fault: its reset and rows are outside the claim
        // loop the containment below covers.
        let mut arena = self.arenas.checkout(me);
        let mut kernel = WarpKernel::new(env, board, me, faults, &mut arena);
        // Instructions this warp has charged to the board's cap so far.
        let mut charged = 0;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            // The one idle spin of the kernel and steal path: no step blocks.
            loop {
                match kernel.step(warp) {
                    Step::Claimed => {
                        let now = warp.metrics().simt_instructions;
                        board.charge(now - charged);
                        charged = now;
                    }
                    Step::Idle => std::thread::yield_now(),
                    Step::Done => break,
                }
            }
        }));
        if let Err(payload) = caught {
            // Containment: roll the kernel's open transaction back, return
            // its unfinished work to the board, repair the liveness
            // bookkeeping — all under a second catch so a failure here
            // cannot leave survivors spinning on broken counters.
            let contained = catch_unwind(AssertUnwindSafe(|| {
                let reclaimed = kernel.reclaim_on_death();
                let n = reclaimed.len();
                board.requeue_dead(reclaimed);
                board.mark_dead(me);
                n
            }));
            match contained {
                Ok(requeued) => {
                    // Tracked as class DeathLog (rank 40): a recovery-path
                    // leaf lock, acquired with nothing else held (requeue
                    // and mark_dead above have already released theirs).
                    simt_check::tracked_lock(deaths, simt_check::LockClass::DeathLog, 0).push(
                        WarpDeath {
                            warp: me,
                            message: crate::fault::describe_payload(payload.as_ref()),
                            requeued,
                        },
                    );
                }
                Err(_) => {
                    // Containment itself failed: abort the launch so
                    // survivors exit, and let the original panic escape to
                    // the grid's backstop (reported as `escaped_panics`).
                    board.force_abort();
                    resume_unwind(payload);
                }
            }
        }
        kernel.finish(warp);
        if let Some(c) = env.launch.collector {
            // Poison recovery as in steal.rs (tracked_lock applies it):
            // embeddings are appended atomically per warp, so a panicking
            // sibling cannot tear this vector. A dead warp's own uncommitted
            // records were truncated by `reclaim_on_death`; the committed
            // prefix is exact and must still be collected. Tracked as class
            // Collector (rank 50), a leaf lock acquired with nothing held.
            simt_check::tracked_lock(c, simt_check::LockClass::Collector, 0)
                .append(&mut kernel.take_emitted());
        }
        // Park the arena under this warp's id for the engine's next launch,
        // once the kernel that borrowed it is gone (the pool lock ranks
        // below every engine lock and is taken with none held). Dead warps
        // park theirs too: the next kernel's reset makes torn state
        // irrelevant.
        drop(kernel);
        self.arenas.give_back(me, arena);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use stmatch_gpusim::GridConfig;
    use stmatch_graph::gen;
    use stmatch_pattern::catalog;

    fn small_grid() -> GridConfig {
        GridConfig {
            num_blocks: 2,
            warps_per_block: 2,
            shared_mem_per_block: SharedBudget::RTX3090_BYTES,
        }
    }

    fn run_cfg(cfg: EngineConfig, g: &Graph, p: &Pattern) -> u64 {
        Engine::new(cfg.with_grid(small_grid()))
            .run(g, p)
            .unwrap()
            .count
    }

    #[test]
    fn triangles_in_k6() {
        let g = gen::complete(6);
        assert_eq!(
            run_cfg(EngineConfig::default(), &g, &catalog::triangle()),
            20
        );
    }

    #[test]
    fn triangle_embeddings_without_symmetry() {
        let g = gen::complete(6);
        let cfg = EngineConfig {
            symmetry_breaking: false,
            ..EngineConfig::default()
        };
        assert_eq!(run_cfg(cfg, &g, &catalog::triangle()), 120);
    }

    #[test]
    fn k4_in_k7() {
        let g = gen::complete(7);
        assert_eq!(run_cfg(EngineConfig::default(), &g, &catalog::k4()), 35);
    }

    #[test]
    fn squares_in_grid_vertex_induced() {
        let g = gen::grid(3, 3);
        let cfg = EngineConfig::default().induced(true);
        assert_eq!(run_cfg(cfg, &g, &catalog::square()), 4);
    }

    #[test]
    fn ablation_configs_agree_on_counts() {
        let g = gen::erdos_renyi(60, 240, 5);
        let p = catalog::paper_query(6); // bowtie
        let expected = run_cfg(EngineConfig::naive(), &g, &p);
        assert!(expected > 0, "workload must be non-trivial");
        for cfg in [
            EngineConfig::local_steal_only(),
            EngineConfig::local_global_steal(),
            EngineConfig::full(),
        ] {
            assert_eq!(run_cfg(cfg, &g, &p), expected);
        }
    }

    #[test]
    fn code_motion_does_not_change_counts() {
        let g = gen::erdos_renyi(50, 200, 9);
        for q in [catalog::paper_query(3), catalog::paper_query(7)] {
            let with = EngineConfig {
                code_motion: true,
                ..EngineConfig::default()
            };
            let without = EngineConfig {
                code_motion: false,
                ..EngineConfig::default()
            };
            assert_eq!(
                run_cfg(with, &g, &q),
                run_cfg(without, &g, &q),
                "{}",
                q.name()
            );
        }
    }

    #[test]
    fn unroll_sizes_agree_on_counts() {
        let g = gen::erdos_renyi(40, 160, 2);
        let p = catalog::paper_query(2); // C5
        let expected = run_cfg(EngineConfig::default().with_unroll(1), &g, &p);
        for u in [2, 4, 8, 16] {
            assert_eq!(
                run_cfg(EngineConfig::default().with_unroll(u), &g, &p),
                expected
            );
        }
    }

    #[test]
    fn labeled_matching_filters() {
        let g = gen::complete(6).relabeled(vec![0, 0, 0, 1, 1, 1]);
        let t = catalog::triangle().with_labels(&[0, 0, 0]);
        // Triangles within {0,1,2}: exactly 1 (with symmetry breaking).
        assert_eq!(run_cfg(EngineConfig::default(), &g, &t), 1);
        let mixed = catalog::triangle().with_labels(&[0, 0, 1]);
        // Two label-0 vertices (C(3,2) choices) x 3 label-1: 9 subgraphs...
        // with symmetry breaking on the labeled pattern: Aut = swap of the
        // two label-0 nodes: 3 * 3 = 9.
        assert_eq!(run_cfg(EngineConfig::default(), &g, &mixed), 9);
    }

    #[test]
    fn single_vertex_pattern_counts_vertices() {
        let g = gen::star(5).relabeled(vec![1, 0, 0, 0, 0, 0]);
        let p = Pattern::new(1, &[]).with_labels(&[0]);
        assert_eq!(run_cfg(EngineConfig::default(), &g, &p), 5);
    }

    #[test]
    fn memory_budget_oom_fails_launch() {
        // 1 KiB cannot hold the configured stacks, and the error reports
        // what the configured launch asked for.
        let g = gen::complete(5);
        let free = Engine::new(EngineConfig::default())
            .run(&g, &catalog::triangle())
            .unwrap();
        let engine = Engine::with_memory_budget(EngineConfig::default(), 1024);
        match engine.run(&g, &catalog::triangle()) {
            Err(LaunchError::GlobalMemory(oom)) => {
                assert!(oom.requested >= free.stack_bytes, "{oom}");
                assert_eq!(oom.limit, 1024);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn memory_budget_covers_marker_rows() {
        // q3 marks a position, so every warp holds a marker row beside its
        // stack slabs, whether or not the graph carries a hub index: a
        // budget of the slabs alone must refuse the launch. q1 marks none,
        // but its lifted last level has every warp hold a rank row: a budget
        // one byte below the env's stack and row bytes refuses the launch,
        // and that exact budget runs it to the same count.
        let plain = gen::erdos_renyi(200, 800, 3);
        let p = catalog::paper_query(3);
        let cfg = EngineConfig::default().with_grid(small_grid());
        let engine = Engine::new(cfg);
        let plan = engine.compile(&p);
        assert_ne!(plan.bytecode().marked(), 0);
        for g in [plain.clone(), plain.clone().with_hub_bitmap(8)] {
            let free = engine.launch(&Launch::new(&g, &plan)).unwrap();
            let rows = plan.bytecode().marked().count_ones() as usize;
            let marker_bytes = rows * g.num_vertices().div_ceil(64) * 8 * cfg.grid.total_warps();
            match Engine::with_memory_budget(cfg, free.stack_bytes).launch(&Launch::new(&g, &plan))
            {
                Err(LaunchError::GlobalMemory(_)) => {}
                other => panic!("expected OOM, got {other:?}"),
            }
            let fits = Engine::with_memory_budget(cfg, free.stack_bytes + marker_bytes)
                .launch(&Launch::new(&g, &plan))
                .unwrap();
            assert_eq!(fits.count, free.count);
            assert_eq!(fits.stack_bytes, free.stack_bytes);
        }
        let q1 = engine.compile(&catalog::paper_query(1));
        assert_eq!(q1.bytecode().marked(), 0);
        let req = Launch::new(&plain, &q1);
        let rows = KernelEnv::new(req, &cfg).row_bytes();
        assert!(rows > 0, "q1's warps hold a rank row");
        let free = engine.launch(&req).unwrap();
        let reserved = free.stack_bytes + rows * cfg.grid.total_warps();
        match Engine::with_memory_budget(cfg, reserved - 1).launch(&req) {
            Err(LaunchError::GlobalMemory(oom)) => assert_eq!(oom.requested, reserved, "{oom}"),
            other => panic!("expected OOM, got {other:?}"),
        }
        let fits = Engine::with_memory_budget(cfg, reserved)
            .launch(&req)
            .unwrap();
        assert_eq!(fits.count, free.count);
    }

    #[test]
    fn an_oversized_block_fails_the_launch() {
        let grid = GridConfig {
            num_blocks: 1,
            warps_per_block: 33,
            ..GridConfig::default()
        };
        let engine = Engine::new(EngineConfig::default().with_grid(grid));
        match engine.run(&gen::complete(5), &catalog::triangle()) {
            Err(LaunchError::BadGeometry(m)) => assert!(m.contains("limit of 32"), "{m}"),
            other => panic!("expected BadGeometry, got {other:?}"),
        }
    }

    #[test]
    fn shared_memory_overflow_fails_launch() {
        let g = gen::complete(5);
        let cfg = EngineConfig {
            grid: GridConfig {
                num_blocks: 1,
                warps_per_block: 2,
                shared_mem_per_block: 64, // absurdly small
            },
            ..EngineConfig::default()
        };
        match Engine::new(cfg).run(&g, &catalog::triangle()) {
            Err(LaunchError::SharedMemory(_)) => {}
            other => panic!("expected shared-memory overflow, got {other:?}"),
        }
    }

    #[test]
    fn a_block_one_byte_short_fails_the_launch() {
        let g = gen::erdos_renyi(60, 240, 5);
        let p = catalog::paper_query(6); // bowtie
        let full = Engine::new(EngineConfig::default().with_grid(small_grid()))
            .run(&g, &p)
            .unwrap();
        // One byte below what the configured launch needs: it is planned
        // once, at that geometry, and fails naming the block's capacity.
        let mut cfg = EngineConfig::default().with_grid(small_grid());
        cfg.grid.shared_mem_per_block = full.shared_bytes_per_block - 1;
        match Engine::new(cfg).run(&g, &p) {
            Err(LaunchError::SharedMemory(o)) => {
                assert_eq!(o.capacity, full.shared_bytes_per_block - 1, "{o}");
                assert!(o.used + o.requested > o.capacity, "{o}");
            }
            other => panic!("expected shared-memory overflow, got {other:?}"),
        }
    }

    #[test]
    fn enumerate_matches_count_and_validity() {
        let g = gen::erdos_renyi(30, 100, 8);
        let p = catalog::paper_query(6); // bowtie
        let engine = Engine::new(EngineConfig::default().with_grid(small_grid()));
        let counted = engine.run(&g, &p).unwrap().count;
        let en = engine.enumerate(&g, &p).unwrap();
        assert_eq!(en.embeddings.len() as u64, counted);
        assert_eq!(en.outcome.count, counted);
        for emb in &en.embeddings {
            assert_eq!(emb.len(), p.size());
            for u in 0..p.size() {
                for v in (u + 1)..p.size() {
                    assert_ne!(emb[u], emb[v], "injective");
                    if p.has_edge(u, v) {
                        assert!(g.has_edge(emb[u], emb[v]), "edge preserved");
                    }
                }
            }
        }
        // Determinism across runs (embeddings are sorted).
        let en2 = engine.enumerate(&g, &p).unwrap();
        assert_eq!(en.embeddings, en2.embeddings);
    }

    #[test]
    fn enumerate_single_vertex_pattern() {
        let g = gen::star(4).relabeled(vec![1, 0, 0, 0, 0]);
        let p = Pattern::new(1, &[]).with_labels(&[0]);
        let engine = Engine::new(EngineConfig::default().with_grid(small_grid()));
        let en = engine.enumerate(&g, &p).unwrap();
        assert_eq!(en.embeddings, vec![vec![1], vec![2], vec![3], vec![4]]);
    }

    #[test]
    fn stealing_happens_under_skew() {
        // One chunk covering the whole graph: a single warp grabs all the
        // work and every other warp can only make progress by stealing.
        // An injected stall holds every warp's second claim long enough
        // that the chunk owner's block sibling provably sees the full
        // mirror and steals — deterministic, where the previous version
        // retried and hoped the host scheduler would cooperate.
        let g = gen::preferential_attachment(4000, 4, 1).degree_ordered();
        let q = catalog::paper_query(8);
        let expected = Engine::new(EngineConfig::naive().with_grid(small_grid()))
            .run(&g, &q)
            .unwrap()
            .count;
        let mut cfg = EngineConfig::local_steal_only().with_grid(small_grid());
        cfg.chunk_size = g.num_vertices(); // a single chunk
        let mut plan = FaultPlan::new();
        for w in 0..small_grid().total_warps() {
            plan = plan.stall_at(w, 2, Duration::from_millis(50));
        }
        let out = Engine::new(cfg).with_fault_plan(plan).run(&g, &q).unwrap();
        assert_eq!(out.count, expected);
        assert!(
            out.metrics.total().local_steals >= 1,
            "a 50ms stall on the chunk owner must force a local steal"
        );
        assert!(out.fault.is_none(), "stalls are not deaths");
    }
}
