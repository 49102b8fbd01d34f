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
use crate::fault::{FaultPlan, FaultReport, WarpDeath};
use crate::kernel::{KernelEnv, Level0Map, Step, WarpKernel};
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
}

/// One launch request: what to match, on which graph, and which resident
/// resources to reuse. Every route — one-shot runs, enumeration, the
/// service's cached queries, each (batch side × anchored plan) of a delta
/// batch — builds one of these and hands it to [`Engine::launch`], which
/// picks the grids it runs on.
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
    /// Recycled stack arenas to run on instead of allocating per launch.
    /// Counts, metrics and fault semantics are identical to a cold launch.
    /// A recycled arena is reshaped to the launch's grid and plan, so a
    /// slot serves any grid; a launch split across shards uses none.
    pub warm: Option<&'a WarmSlot>,
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
}

impl<'a> Launch<'a> {
    /// A cold counting launch of `plan` over the whole of `graph`.
    pub fn new(graph: &'a Graph, plan: &'a MatchPlan) -> Launch<'a> {
        Launch {
            graph,
            plan,
            warm: None,
            verified: None,
            collector: None,
            domain: Level0::Whole,
        }
    }
}

/// The level-0 domain of a launch: which outermost-loop iterations it owns
/// and how a claimed virtual index becomes a data vertex.
#[derive(Clone, Copy)]
pub(crate) enum Level0<'a> {
    /// Every vertex of the graph, identity-mapped, off the grid's own
    /// chunk dispenser (one `Slice` per shard when the launch splits).
    Whole,
    /// One shard's grid ([`crate::shard`]): the shard's slice of the
    /// level-0 order, off the grid's own dispenser, with
    /// `slice[virtual_index]` the data vertex.
    Slice(&'a [VertexId]),
    /// One side of a delta batch ([`crate::delta`]): the level-0 domain is
    /// the update set itself — per stage, the endpoints of `edges[s]`
    /// matched on `views[s]` with level 1 pinned to the other endpoint
    /// ([`Level0Map::Staged`]) — so one launch counts every match that
    /// places the plan's first two order positions on a batch edge, each
    /// against its own stage graph, and the warps of
    /// [`EngineConfig::grid`] claim stages as chunks off the ordinary
    /// dispenser, as in any launch. A stage has one virtual index when the
    /// plan orients its anchor (a level-1 bound against level 0: only one
    /// endpoint can start a match), two otherwise. `Launch::graph`
    /// is stage 0's view (the side's graph, row for row); it only sizes the
    /// slabs. Stage views carry no hub index, so these launches never route
    /// hub rows.
    Anchored {
        edges: &'a [(VertexId, VertexId)],
        views: &'a [Graph],
    },
}

/// A [`Launch`] resolved against one grid of it.
struct Resolved<'a> {
    /// What every warp's kernel borrows (the grid's config included).
    env: KernelEnv<'a>,
    /// The request's warm slot, if any.
    warm: Option<&'a WarmSlot>,
    collector: Option<&'a Mutex<Vec<VertexId>>>,
    /// Level-0 virtual indices the grid's own dispenser hands out.
    l0_len: usize,
    deadline: Option<Instant>,
    /// The engine's fault plan scoped to this grid, if any of it reaches it.
    faults: Option<&'a FaultPlan>,
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
        }
    }

    /// Creates an engine with a device-memory budget (bytes); each shard
    /// and each anchored delta launch plans against a fresh budget at the
    /// same limit.
    pub fn with_memory_budget(cfg: EngineConfig, bytes: usize) -> Engine {
        Engine {
            cfg,
            memory: MemoryBudget::new(bytes),
            timeout: None,
            faults: None,
        }
    }

    /// Sets a wall-clock budget after which the run is cancelled
    /// cooperatively; a cancelled outcome has `timed_out == true` and a
    /// partial count. Delta batches never carry one: a partial count of an
    /// anchored launch would be a wrong delta, not a lower bound.
    pub fn with_timeout(mut self, timeout: std::time::Duration) -> Engine {
        self.timeout = Some(timeout);
        self
    }

    /// Attaches a deterministic [`FaultPlan`] to every subsequent launch
    /// (testing/chaos engineering; injection is off unless this is
    /// called). Each grid of a launch runs the plan scoped to it
    /// ([`FaultPlan::for_shard`]; see [`FaultKind::ShardKill`](crate::fault::FaultKind)).
    /// Salvage relaunches always run with injection disabled.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Engine {
        self.faults = Some(plan);
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
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

    /// The claim widths and per-set arena slots `plan`'s kernels run with
    /// under this engine's configuration: what a certificate's
    /// [`peak_cells`](stmatch_plan_verify::ResourceCert::peak_cells) is
    /// taken over.
    pub fn slot_table(&self, plan: &MatchPlan) -> SlotTable {
        let stop = self.cfg.effective_stop(plan.num_levels());
        plan.bytecode().slot_table(self.cfg.unroll, stop)
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

    /// [`Engine::launch`] of a whole-graph request on a [`WarmSlot`]'s
    /// recycled arenas. Kept for `benchmark/`; ROADMAP item 1 deletes it.
    pub fn run_plan_warm(
        &self,
        graph: &Graph,
        plan: &MatchPlan,
        warm: &WarmSlot,
    ) -> Result<MatchOutcome, LaunchError> {
        self.launch(&Launch {
            warm: Some(warm),
            ..Launch::new(graph, plan)
        })
    }

    /// Runs one [`Launch`] request — the single way into the kernel, and
    /// the one place a request becomes grids: one per shard of a
    /// whole-graph request when [`EngineConfig::shard`] asks for more than
    /// one (merged), else one. Every grid is [`EngineConfig::grid`]; a delta
    /// batch side runs with no deadline (see [`Engine::with_timeout`]). A
    /// grid that does not fit its budget fails the launch before its warps
    /// run.
    pub fn launch(&self, req: &Launch<'_>) -> Result<MatchOutcome, LaunchError> {
        let cfg = &self.cfg;
        cfg.validate();
        let split = matches!(req.domain, Level0::Whole) && cfg.shard.shards > 1;
        if let Some(plan) = &self.faults {
            plan.check_shard_kills(if split { cfg.shard.shards } else { 1 });
        }
        let deadline = self.timeout.map(|t| Instant::now() + t);
        let device = || MemoryBudget::new(self.memory.limit());
        match req.domain {
            Level0::Whole if split => {
                let splan = shard::split(req.graph, cfg.shard);
                let run_shard = |s| {
                    let mut slice = *req;
                    slice.warm = None;
                    slice.domain = Level0::Slice(splan.slice(s));
                    self.launch_grid(&slice, s, &device(), deadline)
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
            Level0::Anchored { .. } => self.launch_grid(req, 0, &device(), None),
            _ => self.launch_grid(req, 0, &self.memory, deadline),
        }
    }

    /// Runs `req` as shard `shard`'s grid, at [`EngineConfig::grid`]: resolves the
    /// request's optional resources and the fault plan's scope, plans the
    /// shared budget and the global one (`memory`) once, and runs until the
    /// grid's work is done, `deadline` passes or salvage gives up.
    fn launch_grid(
        &self,
        req: &Launch<'_>,
        shard: usize,
        memory: &MemoryBudget,
        deadline: Option<Instant>,
    ) -> Result<MatchOutcome, LaunchError> {
        let cfg = &self.cfg;
        let (graph, plan, grid) = (req.graph, req.plan, cfg.grid);
        let faults = self
            .faults
            .as_ref()
            .map(|p| p.for_shard(shard, grid.total_warps()))
            .filter(|p| !p.is_empty());
        // A verdict the caller attached shapes the slabs wherever its clean
        // certificate shrinks one, and is audited after the run below.
        let slab_caps = req.verified.and_then(Verification::footprint_caps);
        // The one place the level-0 domain is decided: how many virtual
        // indices the grid's dispenser hands out, and how the kernel maps an
        // index to a data vertex.
        let (l0_len, l0) = match req.domain {
            Level0::Whole => (graph.num_vertices(), Level0Map::Identity),
            Level0::Slice(slice) => (slice.len(), Level0Map::Order(slice)),
            // Anchored launches enumerate from the update edges' endpoints
            // only — the whole point of O(batch) delta cost.
            Level0::Anchored { edges, views } => {
                assert_eq!(edges.len(), views.len(), "one stage view per update edge");
                debug_assert!(
                    edges.iter().all(|&(lo, hi)| lo < hi),
                    "update edges are (lo, hi)"
                );
                // Level-0 indices travel in stolen prefixes as `VertexId`s.
                assert!(
                    edges.len() <= (VertexId::MAX / 2) as usize,
                    "batch side too wide"
                );
                if let Some(hx) = graph.hub_bitmap() {
                    panic!(
                        "stage views carry no hub index; this one has {} hubs",
                        hx.num_hubs()
                    );
                }
                // An orientation bound admits one endpoint at level 0 (the
                // higher under `Less`, the lower under `Greater`): the other
                // one's index could never match.
                let orient = plan.bytecode().bounds(1).first().map(|&(_, b)| b);
                let per_stage = if orient.is_some() { 1 } else { 2 };
                let map = Level0Map::Staged {
                    edges,
                    views,
                    orient,
                };
                (per_stage * edges.len(), map)
            }
        };
        let r = Resolved {
            env: KernelEnv {
                graph,
                plan,
                cfg,
                slab_caps: slab_caps.as_deref(),
                l0,
                enumerate: req.collector.is_some(),
            },
            warm: req.warm,
            collector: req.collector,
            l0_len,
            deadline,
            faults: faults.as_ref(),
        };
        let sim = Grid::new(grid)?;
        let k = plan.num_levels();
        let stop = cfg.effective_stop(k);

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
        shared.try_alloc("steal mirrors", (3 * stop * 8 + 8) * wpb)?;
        let shared_bytes = shared.used();

        // --- Global memory: fixed stack slabs (paper §VIII-A). ---
        let num_warps = cfg.grid.total_warps();
        let stack_bytes = plan.num_sets() * cfg.unroll * cfg.max_degree_slab * 4 * num_warps;
        // Beside them, the rows every warp holds (the marker rows of the
        // plan's marked positions, the rank row of a lifted last level);
        // `MatchOutcome::stack_bytes` stays the paper's formula.
        let reserved = stack_bytes + r.env.row_bytes(stop) * num_warps;
        memory.try_alloc(reserved)?;
        let (metrics, timed_out, report) = self.run_passes(&r, &sim, stop);
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
            debug_assert!(
                outcome.peak_slab_cells <= v.cert.peak_cells(&self.slot_table(plan)),
                "runtime peak {} exceeds certified bound {}",
                outcome.peak_slab_cells,
                v.cert.peak_cells(&self.slot_table(plan))
            );
        }
        Ok(outcome)
    }

    /// Runs the grid over the resolved level-0 domain: one pass, plus
    /// bounded salvage relaunches for work stranded by warp deaths. Returns
    /// the passes' metrics, whether the deadline cut them short, and what
    /// the fault layer saw.
    fn run_passes(
        &self,
        r: &Resolved<'_>,
        grid: &Grid,
        stop: usize,
    ) -> (GridMetrics, bool, FaultReport) {
        let cfg = r.env.cfg;
        // While a plan can kill warps, swallow the default panic-hook
        // output for injected payloads (real panics still print).
        let _quiet = r
            .faults
            .filter(|p| p.injects_panics())
            .map(|_| crate::fault::silence_fault_panics());

        let mut report = FaultReport {
            reproduce: r.faults.and_then(|p| p.reproduce_line().map(String::from)),
            ..FaultReport::default()
        };
        let mut metrics = GridMetrics::default();
        let mut timed_out = false;
        // Salvage state threaded between passes: where the level-0 range
        // stops and which reclaimed payloads are still unfinished.
        let mut cursor = 0usize;
        let mut preload: Vec<StealPayload> = Vec::new();
        let mut faults = r.faults;
        loop {
            let mut board = Board::new(
                cfg.grid.num_blocks,
                cfg.grid.warps_per_block,
                stop,
                (cursor, r.l0_len),
                cfg.chunk_size,
            );
            if !preload.is_empty() {
                board.preload(std::mem::take(&mut preload));
            }
            if let Some(d) = r.deadline {
                board.set_deadline(d);
            }
            let deaths: Mutex<Vec<WarpDeath>> = Mutex::new(Vec::new());
            let body = |warp: &mut stmatch_gpusim::Warp| {
                self.warp_body(r, &board, faults, &deaths, warp);
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
            let work_remains = !leftovers.is_empty() || cursor < r.l0_len;
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
        r: &Resolved<'_>,
        board: &Board,
        faults: Option<&FaultPlan>,
        deaths: &Mutex<Vec<WarpDeath>>,
        warp: &mut stmatch_gpusim::Warp,
    ) {
        let me = warp.id();
        let mut kernel: Option<WarpKernel> = None;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            // Warm path: recycle a parked arena (reset, not reallocated)
            // instead of building fresh slabs for this query.
            let recycled = r.warm.and_then(WarmSlot::checkout);
            let kernel = kernel.insert(WarpKernel::new(&r.env, board, me, faults, recycled));
            // The one idle spin of the kernel and steal path: no step blocks.
            loop {
                match kernel.step(warp) {
                    Step::Claimed => {}
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
                let reclaimed = kernel
                    .as_mut()
                    .map(WarpKernel::reclaim_on_death)
                    .unwrap_or_default();
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
        if let Some(k) = kernel.as_mut() {
            k.finish(warp);
            if let Some(slot) = r.warm {
                // Return the arena for the next query on this slot — after
                // `finish` read its counters, before the collector leaf
                // lock below (both respect the declared hierarchy: the
                // pool lock ranks below every engine lock and is never
                // held across one). Dead warps return theirs too: the
                // reset at the next checkout makes torn state irrelevant.
                slot.give_back(k.take_arena());
            }
            if let Some(c) = r.collector {
                // Poison recovery as in steal.rs (tracked_lock applies it):
                // embeddings are appended atomically per warp, so a
                // panicking sibling cannot tear this vector. A dead warp's
                // own uncommitted records were truncated by
                // `reclaim_on_death`; the committed prefix is exact and
                // must still be collected. Tracked as class Collector
                // (rank 50), a leaf lock acquired with nothing held.
                simt_check::tracked_lock(c, simt_check::LockClass::Collector, 0)
                    .append(&mut k.take_emitted());
            }
        }
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
        // budget of the slabs alone must refuse the launch.
        let plain = gen::erdos_renyi(200, 800, 3);
        let p = catalog::paper_query(3);
        let cfg = EngineConfig::default().with_grid(small_grid());
        let engine = Engine::new(cfg);
        let plan = engine.compile(&p);
        assert_ne!(plan.bytecode().marked(), 0);
        for g in [plain.clone(), plain.with_hub_bitmap(8)] {
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
