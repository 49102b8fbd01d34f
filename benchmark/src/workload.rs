//! Running a workload from outside: cold start, ops, the timed section, the
//! counting pass and the oracle. Every engine is `EngineConfig::default()`
//! with only the grid geometry fixed (and `delta.enabled` where the workload
//! is that route), so a later change of a default shows up as a gain or a
//! loss here.

use crate::alloc::{self, Allocs};
use crate::gen::{Instance, Op, Presentation};
use crate::spec::{BLOCKS, SETUPS_PER_BLOCK};
use crate::sys;
use crate::trace::{Recorder, NO_OP};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use stmatch_baselines::reference::{self, RefOptions};
use stmatch_core::{
    Engine, EngineConfig, MatchDelta, MatchOutcome, MatchService, QueryOptions, ServiceConfig,
};
use stmatch_gpusim::GridConfig;
use stmatch_graph::builder::graph_from_edges;
use stmatch_graph::{io, AppliedBatch, Graph, VertexId};
use stmatch_pattern::MatchPlan;

/// One block of two warps: never more than two runnable compute threads on
/// the two-core box the benchmark is judged on.
pub fn grid() -> GridConfig {
    GridConfig {
        num_blocks: 1,
        warps_per_block: 2,
        ..GridConfig::default()
    }
}

/// The configuration every measured engine and service runs with.
pub fn engine_config(inst: &Instance) -> EngineConfig {
    EngineConfig::default()
        .with_grid(grid())
        .with_delta(inst.watch.is_some())
}

/// The counting pass's configuration: stealing off, the only schedule under
/// which `tests/bytecode_roundtrip.rs` certifies instruction totals as
/// deterministic.
pub fn steal_free(mut cfg: EngineConfig) -> EngineConfig {
    cfg.local_steal = false;
    cfg.global_steal = false;
    cfg
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

type Events = Arc<Mutex<Vec<Result<MatchDelta, String>>>>;

/// A started program: what a cold start leaves behind.
// One value per cold start, never in a collection: boxing the engine variant
// would only add an allocation to every measured set-up.
#[allow(clippy::large_enum_variant)]
pub enum Live {
    Engine {
        engine: Engine,
        graph: Graph,
        plans: Vec<MatchPlan>,
    },
    Service {
        service: MatchService,
        events: Events,
    },
}

/// What one op returned.
pub struct OpOutput {
    /// Outcome per query, in submission order, with its slot.
    pub outcomes: Vec<(usize, MatchOutcome)>,
    pub applied: Option<AppliedBatch>,
    pub delta: Option<MatchDelta>,
    /// The first `Err` any call of the op returned.
    pub error: Option<String>,
}

/// What the oracle needs of an op, kept after the outcomes are dropped.
#[derive(Clone, Debug)]
pub struct Record {
    pub op: usize,
    /// Count per query slot.
    pub counts: Vec<u64>,
    pub delta: Option<MatchDelta>,
    /// The applied batch equals the instance's net batch.
    pub batch_ok: bool,
    pub error: Option<String>,
    /// Warp deaths and degradation rungs seen (nothing is injected: both
    /// must stay 0).
    pub deaths: usize,
    pub downgrades: usize,
}

pub fn record(inst: &Instance, op: usize, out: &OpOutput) -> Record {
    let mut counts = vec![u64::MAX; inst.queries.len()];
    for (slot, o) in &out.outcomes {
        counts[*slot] = o.count;
    }
    let batch_ok = match (&out.applied, inst.batches.get(op)) {
        (Some(a), Some(net)) => a.inserts == net.inserts && a.deletes == net.deletes,
        (None, None) => true,
        _ => false,
    };
    Record {
        op,
        counts,
        delta: out.delta,
        batch_ok,
        error: out.error.clone(),
        deaths: out
            .outcomes
            .iter()
            .map(|(_, o)| o.fault.as_ref().map_or(0, |f| f.deaths.len()))
            .sum(),
        downgrades: out.outcomes.iter().map(|(_, o)| o.downgrades.len()).sum(),
    }
}

fn outcome_counters(o: &MatchOutcome) -> Vec<(&'static str, f64)> {
    let t = o.metrics.total();
    vec![
        ("count", o.count as f64),
        ("sim_instr", t.simt_instructions as f64),
        ("kernel_ns", o.metrics.elapsed_nanos as f64),
        ("local_steals", t.local_steals as f64),
        ("spill_events", o.spill_events as f64),
    ]
}

impl OpOutput {
    /// An empty output with room for `op`'s outcomes, so that `run_op`
    /// itself allocates nothing the counting pass would count.
    pub fn for_op(op: &Op) -> OpOutput {
        OpOutput {
            outcomes: Vec::with_capacity(op.order.len()),
            applied: None,
            delta: None,
            error: None,
        }
    }
}

impl Live {
    /// Runs op `id` into `out`. The caller times the call; the spans inside
    /// cost one branch each while the recorder is off.
    pub fn run_op(&self, op: &Op, id: u64, rec: &mut Recorder, out: &mut OpOutput) {
        let open = rec.begin("op", id);
        match self {
            Live::Engine {
                engine,
                graph,
                plans,
            } => {
                for &slot in &op.order {
                    let ran = rec.span(
                        "core::engine.run_plan",
                        id,
                        || engine.run_plan(graph, &plans[slot]),
                        |r| r.as_ref().map_or(Vec::new(), outcome_counters),
                    );
                    match ran {
                        Ok(o) => out.outcomes.push((slot, o)),
                        Err(e) => drop(out.error.get_or_insert(e.to_string())),
                    }
                }
            }
            Live::Service { service, events } => {
                let applied = rec.span(
                    "core::service.apply_batch",
                    id,
                    || service.apply_batch(&op.batch),
                    |b| {
                        vec![
                            ("inserts", b.inserts.len() as f64),
                            ("deletes", b.deletes.len() as f64),
                            ("version", b.version as f64),
                        ]
                    },
                );
                out.applied = Some(applied);
                // The watcher callback ran on this thread, inside
                // `apply_batch`.
                let event = events.lock().unwrap_or_else(PoisonError::into_inner).pop();
                match event {
                    Some(Ok(d)) => out.delta = Some(d),
                    Some(Err(e)) => out.error = Some(e),
                    None => out.error = Some("no watch event for the batch".into()),
                }
                for (&slot, pattern) in op.order.iter().zip(&op.patterns) {
                    let ran = rec.span(
                        "core::service.submit",
                        id,
                        || service.submit(pattern, QueryOptions::default()),
                        |r| r.as_ref().map_or(Vec::new(), outcome_counters),
                    );
                    match ran {
                        Ok(o) => out.outcomes.push((slot, o)),
                        Err(e) => drop(out.error.get_or_insert(e.to_string())),
                    }
                }
            }
        }
        rec.end(open, &[]);
    }
}

pub struct ColdStart {
    pub live: Live,
    /// Output of op 0, the first answer.
    pub first: OpOutput,
    /// Fixture bytes in memory → first answer.
    pub seconds: f64,
}

/// Starts the program from nothing: parse the fixture, order it, build the
/// engine or the service, compile or register, run op 0. Fresh objects every
/// time.
pub fn cold_start(
    inst: &Instance,
    pres: &Presentation,
    cfg: EngineConfig,
    rec: &mut Recorder,
) -> Result<ColdStart, String> {
    let t = Instant::now();
    let open = rec.begin("cold_start", NO_OP);
    let parsed = rec
        .span(
            "graph::io.read_lg",
            NO_OP,
            || io::read_lg(&pres.lg[..]),
            |r| {
                vec![
                    ("bytes", pres.lg.len() as f64),
                    ("ok", r.is_ok() as u8 as f64),
                ]
            },
        )
        .map_err(|e| e.to_string())?;
    let graph = rec.span(
        "graph::csr.degree_ordered",
        NO_OP,
        || parsed.degree_ordered(),
        |g| vec![("edges", g.num_edges() as f64)],
    );
    let live = match &inst.watch {
        None => {
            let engine = rec.span("core::engine.new", NO_OP, || Engine::new(cfg), |_| vec![]);
            let plans = rec.span(
                "core::engine.compile",
                NO_OP,
                || inst.queries.iter().map(|q| engine.compile(q)).collect(),
                |p: &Vec<MatchPlan>| vec![("plans", p.len() as f64)],
            );
            Live::Engine {
                engine,
                graph,
                plans,
            }
        }
        Some(watch) => {
            let service = rec.span(
                "core::service.new",
                NO_OP,
                || MatchService::new(Arc::new(graph), ServiceConfig::new(cfg).with_workers(1)),
                |_| vec![],
            );
            let events: Events = Arc::default();
            let sink = Arc::clone(&events);
            rec.span(
                "core::service.submit_watch",
                NO_OP,
                || {
                    service.submit_watch(watch, move |e| {
                        sink.lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(e.delta)
                    })
                },
                |_| vec![],
            );
            Live::Service { service, events }
        }
    };
    let mut first = OpOutput::for_op(&pres.ops[0]);
    live.run_op(&pres.ops[0], 0, rec, &mut first);
    rec.end(open, &[]);
    Ok(ColdStart {
        live,
        first,
        seconds: t.elapsed().as_secs_f64(),
    })
}

/// One block of consecutive timed ops.
pub struct Block {
    pub op_ms: Vec<f64>,
    /// Process CPU time over the block's ops, per op.
    pub cpu_ms_per_op: f64,
    /// Seconds of the cold starts that followed the block's ops.
    pub setups: Vec<f64>,
}

pub struct Timed {
    pub blocks: Vec<Block>,
    /// One record per timed op and per cold start's op 0.
    pub records: Vec<Record>,
    /// Cold starts that failed before their first answer.
    pub setup_errors: Vec<String>,
}

/// The timed section: `BLOCKS` blocks of consecutive ops on one resident
/// program, each followed by cold starts of fresh programs and by the
/// oracle's work for the block's ticks. Stops before a block that would
/// overrun `seconds`, counted from `started` (the start of the process), so
/// a slow hour shortens the sample instead of the driver's patience: what
/// is left to do after the section — two counting passes and one oracle
/// checkpoint — does not grow with the number of blocks run.
pub fn timed_section(
    inst: &Instance,
    pres: &Presentation,
    started: Instant,
    seconds: f64,
    oracle: &mut Oracle,
) -> Result<Timed, String> {
    let cfg = engine_config(inst);
    let mut rec = Recorder::new(false);
    let resident = cold_start(inst, pres, cfg, &mut rec)?;
    let mut timed = Timed {
        blocks: Vec::new(),
        records: vec![record(inst, 0, &resident.first)],
        setup_errors: Vec::new(),
    };
    let per_block = ((pres.ops.len() - 1) / BLOCKS).max(1);
    let mut longest = 0.0f64;
    let mut middle_checked = false;
    let mut last = 0;
    for b in 0..BLOCKS {
        let first = 1 + b * per_block;
        if first + per_block > pres.ops.len()
            || started.elapsed().as_secs_f64() + longest * 1.05 > seconds
        {
            break;
        }
        let block_start = Instant::now();
        let mut op_ms = Vec::with_capacity(per_block);
        let mut cpu_ns = 0;
        for i in first..first + per_block {
            let cpu = sys::process_cpu_ns();
            let mut out = OpOutput::for_op(&pres.ops[i]);
            let t = Instant::now();
            resident
                .live
                .run_op(&pres.ops[i], i as u64, &mut rec, &mut out);
            op_ms.push(ms_since(t));
            cpu_ns += sys::process_cpu_ns() - cpu;
            timed.records.push(record(inst, i, &out));
        }
        last = first + per_block - 1;
        let mut setups = Vec::new();
        for _ in 0..SETUPS_PER_BLOCK {
            match cold_start(inst, pres, cfg, &mut rec) {
                Ok(c) => {
                    setups.push(c.seconds);
                    timed.records.push(record(inst, 0, &c.first));
                }
                Err(e) => timed.setup_errors.push(e),
            }
        }
        timed.blocks.push(Block {
            op_ms,
            cpu_ms_per_op: cpu_ns as f64 / 1e6 / per_block as f64,
            setups,
        });
        // The middle checkpoint: the first block that ends in the second
        // half of the section.
        let middle = !middle_checked && started.elapsed().as_secs_f64() >= seconds / 2.0;
        middle_checked |= middle;
        oracle.advance(last, middle);
        longest = longest.max(block_start.elapsed().as_secs_f64());
    }
    if last == 0 {
        return Err("no block was run".into());
    }
    // The last checkpoint, and the resident program's own graph against the
    // mirror at the last tick it was given.
    oracle.advance(last, true);
    if let Live::Service { service, .. } = &resident.live {
        oracle.check_graph(last, &service.current_graph());
    }
    Ok(timed)
}

/// Exact work of a fixed prefix of ops.
#[derive(Clone, Debug)]
pub struct Counted {
    pub ops: usize,
    pub sim_instr: u64,
    pub active_lanes: u64,
    pub issued_lanes: u64,
    pub matches: u64,
    pub allocs: Allocs,
    pub records: Vec<Record>,
}

impl Counted {
    /// What two passes over the same ops must agree on exactly. Allocation
    /// counts are not in it: on the service path they move by a few hundred
    /// in 205 000 from pass to pass. Every warm launch makes a completion
    /// channel that both warps send into, and in `std::sync::mpsc` a sender
    /// that loses the race to install the channel's block has allocated a
    /// spare one (a bare loop of such launches makes 3038–3066 allocations
    /// per 1000).
    pub fn exact(&self) -> (u64, u64, u64, u64) {
        (
            self.sim_instr,
            self.active_lanes,
            self.issued_lanes,
            self.matches,
        )
    }
}

/// The counting pass, separate from the timed section and untimed: a fresh
/// cold start with stealing off replays ops `1..=counting_ops` with the
/// allocation counter armed. The delta route exposes no instruction
/// counters through `apply_batch`, so the tick's batch is run again through
/// `Engine::run_delta_plans_metered` on the same `(pre, post, batch)`, with
/// the allocation counter off.
pub fn counting_pass(inst: &Instance, pres: &Presentation) -> Result<Counted, String> {
    let cfg = steal_free(engine_config(inst));
    let mut rec = Recorder::new(false);
    let cold = cold_start(inst, pres, cfg, &mut rec)?;
    let metered = inst
        .watch
        .as_ref()
        .map(|w| (Engine::new(cfg), Engine::new(cfg).compile_delta(w)));
    let mut c = Counted {
        ops: inst.workload.counting_ops,
        sim_instr: 0,
        active_lanes: 0,
        issued_lanes: 0,
        matches: 0,
        allocs: Allocs::default(),
        records: vec![record(inst, 0, &cold.first)],
    };
    for i in 1..=c.ops {
        let pre = match &cold.live {
            Live::Service { service, .. } => Some(service.current_graph()),
            Live::Engine { .. } => None,
        };
        let mut out = OpOutput::for_op(&pres.ops[i]);
        let ((), allocs) =
            alloc::counted(|| cold.live.run_op(&pres.ops[i], i as u64, &mut rec, &mut out));
        c.allocs += allocs;
        for (_, o) in &out.outcomes {
            let t = o.metrics.total();
            c.sim_instr += t.simt_instructions;
            c.active_lanes += t.active_lane_slots;
            c.issued_lanes += t.issued_lane_slots;
            c.matches += o.count;
        }
        let mut r = record(inst, i, &out);
        if let (Live::Service { service, .. }, Some((engine, plans)), Some(applied)) =
            (&cold.live, &metered, &out.applied)
        {
            let pre = pre.expect("taken above for services");
            let post = service.current_graph();
            match engine.run_delta_plans_metered(&pre, &post, applied, plans) {
                Ok((delta, instr)) => {
                    c.sim_instr += instr;
                    c.matches += delta.added + delta.removed;
                    if Some(delta) != out.delta {
                        r.error = Some(format!(
                            "metered delta {delta:?} differs from the watcher's {:?}",
                            out.delta
                        ));
                    }
                }
                Err(e) => r.error = Some(e.to_string()),
            }
        }
        c.records.push(r);
    }
    Ok(c)
}

/// What the oracle found.
#[derive(Default)]
pub struct Verdict {
    pub attempted: usize,
    pub failed: usize,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
    pub deaths: usize,
    pub downgrades: usize,
}

impl Verdict {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

fn query_counts(g: &Graph, inst: &Instance) -> Vec<u64> {
    inst.queries
        .iter()
        .map(|q| reference::count(g, q, RefOptions::default()))
        .collect()
}

/// Checks records against `stmatch_baselines::reference::count`.
///
/// The engine workloads compare every op with the oracle's count of each
/// query on the fixture. `resident_tick` replays the instance's net batches
/// on a mirror edge set the program never sees: every tick's watcher delta
/// must equal the difference of the oracle's triangle counts of consecutive
/// mirror graphs, and the query counts must equal the oracle's at the ticks
/// chosen as checkpoints (tick 0, one in the middle, the last timed one;
/// about 0.7 s each). The replay is incremental (`advance`), so its cost is
/// paid between the blocks, inside `--seconds`; `check` only compares.
pub struct Oracle<'a> {
    inst: &'a Instance,
    /// The mirror after `want_net.len()` ticks.
    mirror: BTreeSet<(VertexId, VertexId)>,
    /// The oracle's count of the watched pattern on the mirror.
    watched: u64,
    /// Net change of the watched pattern per tick replayed.
    want_net: Vec<i64>,
    /// Query counts per checkpoint tick.
    want_counts: BTreeMap<usize, Vec<u64>>,
    /// The query counts of every op of an engine workload.
    fixed_counts: Option<Vec<u64>>,
    pub verdict: Verdict,
}

impl<'a> Oracle<'a> {
    /// Counts the fixture; on `resident_tick`, replays tick 0 — what every
    /// cold start applies — as the first checkpoint.
    pub fn new(inst: &'a Instance) -> Oracle<'a> {
        let mut oracle = Oracle {
            inst,
            mirror: BTreeSet::new(),
            watched: 0,
            want_net: Vec::new(),
            want_counts: BTreeMap::new(),
            fixed_counts: None,
            verdict: Verdict::default(),
        };
        match &inst.watch {
            None => oracle.fixed_counts = Some(query_counts(&inst.graph, inst)),
            Some(watch) => {
                oracle.mirror = inst.graph.edges().collect();
                oracle.watched = reference::count(&inst.graph, watch, RefOptions::default());
                oracle.advance(0, true);
            }
        }
        oracle
    }

    fn mirror_graph(&self) -> Graph {
        let edges: Vec<_> = self.mirror.iter().copied().collect();
        graph_from_edges(self.inst.graph.num_vertices(), &edges)
    }

    /// Replays the ticks up to and including `upto` that were not replayed
    /// yet. With `checkpoint`, `upto` must be the last tick replayed, and
    /// the queries are counted on the mirror as it stands after it.
    pub fn advance(&mut self, upto: usize, checkpoint: bool) {
        let Some(watch) = &self.inst.watch else {
            return;
        };
        while self.want_net.len() <= upto {
            let net = &self.inst.batches[self.want_net.len()];
            for e in &net.deletes {
                self.mirror.remove(e);
            }
            self.mirror.extend(net.inserts.iter().copied());
            let after = reference::count(&self.mirror_graph(), watch, RefOptions::default());
            self.want_net.push(after as i64 - self.watched as i64);
            self.watched = after;
        }
        if checkpoint && !self.want_counts.contains_key(&upto) {
            assert_eq!(
                self.want_net.len(),
                upto + 1,
                "a checkpoint is taken at the last tick replayed"
            );
            let counts = query_counts(&self.mirror_graph(), self.inst);
            self.want_counts.insert(upto, counts);
        }
    }

    /// `g`, the program's own graph after tick `tick`, must have the
    /// mirror's edges. `tick` must be the last tick replayed.
    pub fn check_graph(&mut self, tick: usize, g: &Graph) {
        assert_eq!(
            self.want_net.len(),
            tick + 1,
            "the mirror stands at another tick"
        );
        self.verdict.attempted += 1;
        if !g.edges().eq(self.mirror.iter().copied()) {
            self.verdict.fail(format!(
                "resident graph differs from the mirror at tick {tick}"
            ));
        }
    }

    pub fn setup_failed(&mut self, error: &str) {
        self.verdict.attempted += 1;
        self.verdict.fail(format!("cold start failed: {error}"));
    }

    /// Compares records of ticks already replayed.
    pub fn check(&mut self, records: &[Record]) {
        let v = &mut self.verdict;
        for r in records {
            v.attempted += 1;
            v.deaths += r.deaths;
            v.downgrades += r.downgrades;
            let mut bad = Vec::new();
            if let Some(e) = &r.error {
                bad.push(format!("error: {e}"));
            }
            if !r.batch_ok {
                bad.push("applied batch differs from the net batch".into());
            }
            let want = self.fixed_counts.as_ref().or(self.want_counts.get(&r.op));
            if let Some(want) = want {
                if &r.counts != want {
                    bad.push(format!("counts {:?}, oracle {want:?}", r.counts));
                }
            } else if r.counts.contains(&u64::MAX) {
                bad.push("a query returned no count".into());
            }
            if self.inst.watch.is_some() {
                match self.want_net.get(r.op) {
                    Some(&want) if r.delta.map(|d| d.net()) == Some(want) => {}
                    Some(want) => bad.push(format!("delta {:?}, oracle net {want}", r.delta)),
                    None => bad.push("the oracle did not replay this tick".into()),
                }
            }
            if !bad.is_empty() {
                v.fail(format!("op {}: {}", r.op, bad.join("; ")));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::spec::WORKLOADS;

    /// The sequence of a timed run on a small resident instance whose timed
    /// section ends at tick 2, before the counting pass's last op.
    fn short_run() -> (Instance, Vec<Record>, Arc<Graph>) {
        let w = &WORKLOADS[2];
        assert!(w.counting_ops > 2);
        let ops = 1 + w.counting_ops;
        let universe = stmatch_graph::gen::preferential_attachment(96, 4, 3);
        let inst = gen::ticking(w, &universe, "PA(96,4,3)/2", 6, ops);
        let pres = gen::present(&inst, 3, ops);
        let mut rec = Recorder::new(false);
        let resident = cold_start(&inst, &pres, engine_config(&inst), &mut rec).unwrap();
        let mut records = vec![record(&inst, 0, &resident.first)];
        for i in 1..=2 {
            let mut out = OpOutput::for_op(&pres.ops[i]);
            resident
                .live
                .run_op(&pres.ops[i], i as u64, &mut rec, &mut out);
            records.push(record(&inst, i, &out));
        }
        let Live::Service { service, .. } = &resident.live else {
            panic!("a ticking instance starts a service");
        };
        let graph = service.current_graph();
        let counted = counting_pass(&inst, &pres).unwrap();
        assert_eq!(counted.records.last().unwrap().op, w.counting_ops);
        records.extend(counted.records);
        (inst, records, graph)
    }

    #[test]
    fn a_section_shorter_than_the_counting_pass_verifies() {
        let (inst, records, graph) = short_run();
        let mut oracle = Oracle::new(&inst);
        oracle.advance(2, true);
        oracle.check_graph(2, &graph);
        oracle.advance(inst.workload.counting_ops, false);
        oracle.check(&records);
        let v = &oracle.verdict;
        assert_eq!(v.failed, 0, "{:?}", v.notes);
        assert_eq!(v.attempted, records.len() + 1);
    }

    #[test]
    fn the_oracle_names_a_wrong_delta_count_and_graph() {
        let (inst, mut records, _) = short_run();
        let mut oracle = Oracle::new(&inst);
        // The graph before any tick is not the mirror after tick 2.
        oracle.advance(2, true);
        oracle.check_graph(2, &inst.graph);
        oracle.advance(inst.workload.counting_ops, false);
        let delta = records[1].delta.as_mut().unwrap();
        delta.added += 1;
        records[2].counts[0] += 1;
        oracle.check(&records);
        let v = &oracle.verdict;
        assert_eq!(v.failed, 3, "{:?}", v.notes);
        assert!(v.notes[0].contains("differs from the mirror at tick 2"));
        assert!(v.notes[1].starts_with("op 1: delta"));
        assert!(v.notes[2].starts_with("op 2: counts"));
    }
}
