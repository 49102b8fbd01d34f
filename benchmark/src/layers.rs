//! The traced run: one traced cold start, a section of ops with the span
//! recorder alternately off and on, then one standalone probe per layer on
//! the workload's own fixture. Layers hidden behind one call (inside
//! `submit`, inside `apply_batch`) are attributed by calling the same public
//! building blocks directly, not by guessing.
//!
//! Times of the probes are p50s over a few repetitions and are not gated;
//! the counters taken on steal-free legs repeat exactly.

use crate::alloc::counted;
use crate::gen::{self, Instance, NetBatch, Presentation};
use crate::spec::PER_LAYER;
use crate::stats::{p50, percentile};
use crate::trace::{Recorder, NO_OP};
use crate::workload::{
    cold_start, engine_config, grid, ms_since, record, steal_free, Live, OpOutput, Oracle, Record,
    Verdict,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use stmatch_core::setops::{SetOpAlgo, SetOpTuning};
use stmatch_core::{
    Engine, EngineConfig, MatchOutcome, MatchService, QueryOptions, ServiceConfig, ShardPlan,
    WarmSlot,
};
use stmatch_gpusim::{Grid, GridConfig, WarmGrid};
use stmatch_graph::{gen as graphgen, io, stats, DeltaOverlay, EdgeOp, Graph, HubBitmapIndex};
use stmatch_pattern::{catalog, iso, MatchPlan, Pattern, PlanBytecode};
use stmatch_plan_verify::{verify_plan, GraphProfile};
use stmatch_testkit::rng::SmallRng;

/// Repetitions behind each probe's p50.
const REPS: usize = 5;

/// Ops per chunk of the section; the recorder flips between chunks.
const CHUNK: usize = 6;

/// Every per-layer metric by name; 0 until a probe sets it.
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    fn new() -> Metrics {
        Metrics(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot = self.0.get_mut(name);
        *slot.unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// p50 of `reps` timings of `f` in milliseconds.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            ms_since(t)
        })
        .collect();
    p50(&samples)
}

/// Repeated rounds of the workload's queries on a bare engine.
struct Leg {
    round_ms: Vec<f64>,
    kernel_ms: Vec<f64>,
    /// Per slot, one sample per round.
    query_ms: Vec<Vec<f64>>,
    /// Every outcome, round-major.
    outcomes: Vec<MatchOutcome>,
}

impl Leg {
    fn run(cfg: EngineConfig, g: &Graph, queries: &[Pattern], reps: usize, warm: bool) -> Leg {
        let engine = Engine::new(cfg);
        let plans: Vec<MatchPlan> = queries.iter().map(|q| engine.compile(q)).collect();
        let slot = warm.then(|| WarmSlot::new(cfg.grid).expect("probe grid is valid"));
        let mut leg = Leg {
            round_ms: Vec::new(),
            kernel_ms: Vec::new(),
            query_ms: vec![Vec::new(); queries.len()],
            outcomes: Vec::new(),
        };
        for _ in 0..reps {
            let (mut round, mut kernel) = (0.0, 0.0);
            for (i, plan) in plans.iter().enumerate() {
                let t = Instant::now();
                let out = match &slot {
                    Some(w) => engine.run_plan_warm(g, plan, w),
                    None => engine.run_plan(g, plan),
                }
                .expect("probe launch");
                let ms = ms_since(t);
                round += ms;
                kernel += out.elapsed_ms();
                leg.query_ms[i].push(ms);
                leg.outcomes.push(out);
            }
            leg.round_ms.push(round);
            leg.kernel_ms.push(kernel);
        }
        leg
    }

    /// Sum of `f` over all outcomes, per round.
    fn per_round(&self, f: impl Fn(&MatchOutcome) -> f64) -> f64 {
        self.outcomes.iter().map(f).sum::<f64>() / self.round_ms.len() as f64
    }
}

fn graph_layer(m: &mut Metrics, pres: &Presentation, g: &Graph) {
    m.set(
        "graph.parse_ms",
        time_ms(REPS, || io::read_lg(&pres.lg[..])),
    );
    let parsed = io::read_lg(&pres.lg[..]).expect("fixture parses");
    m.set("graph.order_ms", time_ms(REPS, || parsed.degree_ordered()));
    m.set(
        "graph.weights_ms",
        time_ms(REPS, || stats::level0_weights(g)),
    );
    let threshold = EngineConfig::default().hub_bitmap.hub_threshold;
    m.set(
        "graph.hub_index_ms",
        time_ms(REPS, || HubBitmapIndex::build(g, threshold)),
    );
    m.set(
        "graph.hub_index_bytes",
        HubBitmapIndex::build(g, threshold).memory_bytes() as f64,
    );
    m.set("graph.bytes", g.memory_bytes() as f64);
}

fn pattern_layer(m: &mut Metrics, inst: &Instance, g: &Graph, cfg: EngineConfig) {
    let engine = Engine::new(cfg);
    // p50 over `REPS` calls of `f` on each item, in microseconds.
    fn per_item<I, T>(items: &[I], f: impl Fn(&I) -> T) -> f64 {
        let mut samples = Vec::new();
        for item in items {
            for _ in 0..REPS {
                let t = Instant::now();
                std::hint::black_box(f(item));
                samples.push(us_since(t));
            }
        }
        p50(&samples)
    }
    let plans: Vec<MatchPlan> = inst.queries.iter().map(|q| engine.compile(q)).collect();
    m.set(
        "pattern.canon_us",
        per_item(&inst.queries, iso::canonical_form),
    );
    m.set(
        "pattern.compile_us",
        per_item(&inst.queries, |q| engine.compile(q)),
    );
    m.set("pattern.lower_us", per_item(&plans, PlanBytecode::lower));
    let anchored = match &inst.watch {
        Some(w) => std::slice::from_ref(w),
        None => &inst.queries[..],
    };
    m.set(
        "pattern.anchored_compile_us",
        per_item(anchored, |q| engine.compile_delta(q)),
    );

    // plan-verify, off by default today.
    let profile = GraphProfile::of(g);
    let slab_cap = cfg.max_degree_slab.min(g.max_degree().max(1));
    let verify =
        |plan: &MatchPlan| verify_plan(plan, &profile, slab_cap, "stmatch-benchmark --trace 1");
    m.set("verify.plan_us", per_item(&plans, verify));
    let diagnostics: usize = plans.iter().map(|p| verify(p).diagnostics.len()).sum();
    m.set("verify.diagnostics", diagnostics as f64);
}

fn gpusim_layer(m: &mut Metrics) {
    let cold = Grid::new(grid()).expect("probe grid is valid");
    let mut us = Vec::new();
    let mut allocs = 0;
    for _ in 0..4 * REPS {
        let t = Instant::now();
        let (_, a) = counted(|| cold.launch(|_| {}));
        us.push(us_since(t));
        allocs = a.count;
    }
    m.set("gpusim.cold_launch_us", p50(&us));
    m.set("gpusim.cold_launch_allocs", allocs as f64);
    let warm = WarmGrid::new(grid()).expect("probe grid is valid");
    let us: Vec<f64> = (0..20 * REPS)
        .map(|_| {
            let t = Instant::now();
            warm.launch_contained(&|_| {});
            us_since(t)
        })
        .collect();
    m.set("gpusim.warm_launch_us", p50(&us));
}

/// engine, kernel, setops, compile, steal and arena: legs of rounds of the
/// workload's own queries under one changed knob each.
fn engine_layers(m: &mut Metrics, inst: &Instance, g: &Graph, cfg: EngineConfig) {
    let q = &inst.queries;
    let leg = |cfg: EngineConfig, g: &Graph, warm: bool| Leg::run(cfg, g, q, REPS, warm);

    let base = leg(cfg, g, false);
    let run = p50(&base.round_ms);
    let kernel = p50(&base.kernel_ms);
    m.set("engine.run_ms_p50", run);
    m.set("engine.kernel_ms_p50", kernel);
    m.set("engine.host_overhead_ms_p50", run - kernel);
    for (slot, id) in inst.query_ids.iter().enumerate() {
        let name = PER_LAYER
            .iter()
            .map(|m| m.name)
            .find(|n| *n == format!("engine.q{id}_ms_p50"))
            .expect("every workload query has a per-layer metric");
        m.set(name, p50(&base.query_ms[slot]));
    }
    let rounds: Vec<&[MatchOutcome]> = base.outcomes.chunks(q.len()).collect();
    let cycles: Vec<f64> = rounds
        .iter()
        .map(|r| r.iter().map(|o| o.simulated_cycles()).sum::<u64>() as f64)
        .collect();
    m.set("kernel.bottleneck_cycles_p50", p50(&cycles));
    let per_run =
        |f: &dyn Fn(&MatchOutcome) -> f64| p50(&base.outcomes.iter().map(f).collect::<Vec<_>>());
    m.set(
        "kernel.load_imbalance_p50",
        per_run(&|o| o.metrics.load_imbalance()),
    );
    m.set(
        "kernel.busy_fraction_p50",
        per_run(&|o| o.metrics.busy_fraction()),
    );
    let base_instr = base.per_round(|o| o.total_instructions() as f64);
    m.set("kernel.host_ns_per_sim_instr", kernel * 1e6 / base_instr);
    let attempts = base.per_round(|o| o.metrics.total().local_steal_attempts as f64);
    let steals = base.per_round(|o| o.metrics.total().local_steals as f64);
    m.set("steal.local_attempts", attempts);
    m.set("steal.local_steals", steals);
    m.set(
        "steal.success_ratio",
        if attempts > 0.0 {
            steals / attempts
        } else {
            0.0
        },
    );
    m.set(
        "steal.idle_ms_per_op",
        base.per_round(|o| o.metrics.total().idle_nanos as f64 / 1e6),
    );
    m.set(
        "arena.spill_events",
        base.per_round(|o| o.spill_events as f64),
    );
    let max = |f: &dyn Fn(&MatchOutcome) -> u64| base.outcomes.iter().map(f).max().unwrap_or(0);
    m.set("arena.peak_slab_cells", max(&|o| o.peak_slab_cells) as f64);
    m.set("arena.stack_bytes", max(&|o| o.stack_bytes as u64) as f64);

    let warm = leg(cfg, g, true);
    m.set("engine.warm_run_ms_p50", p50(&warm.round_ms));

    // Exact counters come from the steal-free leg.
    let exact = leg(steal_free(cfg), g, false);
    let round = &exact.outcomes[..q.len()];
    let total = |f: &dyn Fn(&MatchOutcome) -> u64| round.iter().map(f).sum::<u64>() as f64;
    m.set("kernel.sim_instr", total(&|o| o.total_instructions()));
    m.set(
        "kernel.lane_util",
        total(&|o| o.metrics.total().active_lane_slots)
            / total(&|o| o.metrics.total().issued_lane_slots),
    );
    m.set("kernel.matches", total(&|o| o.count));
    m.set("steal.off_run_ms_p50", p50(&exact.round_ms));

    for (name, algo) in [
        ("setops.merge_run_ms_p50", SetOpAlgo::Merge),
        ("setops.bsearch_run_ms_p50", SetOpAlgo::BinarySearch),
        ("setops.gallop_run_ms_p50", SetOpAlgo::Gallop),
    ] {
        let mut c = cfg;
        c.setops = SetOpTuning::forced(algo);
        let forced = leg(c, g, false);
        m.set(name, p50(&forced.round_ms));
    }
    // The hub leg runs on a graph that already carries the index, so the
    // rounds time the set-op paths and not the build (graph.hub_index_ms).
    let hubbed = g.clone().with_hub_bitmap(cfg.hub_bitmap.hub_threshold);
    let hub_cfg = cfg.with_hub_bitmap(true);
    let hub = leg(hub_cfg, &hubbed, false);
    m.set("setops.bitmap_run_ms_p50", p50(&hub.round_ms));
    let hub_exact = Leg::run(steal_free(hub_cfg), &hubbed, q, 1, false);
    let hub =
        |f: &dyn Fn(&MatchOutcome) -> u64| hub_exact.outcomes.iter().map(f).sum::<u64>() as f64;
    m.set("setops.bitmap_sim_instr", hub(&|o| o.total_instructions()));
    m.set(
        "setops.bitmap_probe_words",
        hub(&|o| o.metrics.total().bitmap_probe_words),
    );
    m.set(
        "setops.bitmap_merge_words",
        hub(&|o| o.metrics.total().bitmap_merge_words),
    );
    m.set(
        "setops.bitmap_merge_waves",
        hub(&|o| o.metrics.total().bitmap_merge_waves),
    );

    let mut tier0 = cfg.with_compile(true);
    tier0.compile.specialize = false;
    let tier0 = leg(tier0, g, false);
    m.set("compile.tier0_run_ms_p50", p50(&tier0.round_ms));
    let mut tier1 = cfg.with_compile(true);
    tier1.compile.tier_up_after = 0;
    let tier1 = leg(tier1, g, false);
    m.set("compile.tier1_run_ms_p50", p50(&tier1.round_ms));
    let served = tier1.outcomes.iter().filter_map(|o| o.served_tier).max();
    m.set("compile.served_tier", served.unwrap_or(0) as f64);

    // Global stealing needs two blocks: the same two warps as 2×1.
    let two_blocks = cfg.with_grid(GridConfig {
        num_blocks: 2,
        warps_per_block: 1,
        ..grid()
    });
    let two = leg(two_blocks, g, false);
    m.set(
        "steal.global_pushes",
        two.per_round(|o| o.metrics.total().global_steal_pushes as f64),
    );
    m.set(
        "steal.global_receives",
        two.per_round(|o| o.metrics.total().global_steal_receives as f64),
    );
}

/// core::shard, probe only: q3 of `census_sparse` on one-warp shard grids.
/// The two timed splits run 2 shards (the box has two cores); the
/// bottleneck-cycle pair runs 16 shards, where BENCH_PR8 recorded the
/// stealing cliff, and the rail counters come from that leg.
fn shard_layer(m: &mut Metrics, inst: &Instance, g: &Graph, cfg: EngineConfig) {
    let Some(slot) = inst.query_ids.iter().position(|&id| id == 3) else {
        return;
    };
    let one_warp = GridConfig {
        num_blocks: 1,
        warps_per_block: 1,
        ..grid()
    };
    let sharded = |shards: usize, work_aware: bool, cross_steal: bool| {
        let mut c = cfg.with_grid(one_warp).with_shards(shards);
        c.shard.work_aware = work_aware;
        c.shard.cross_steal = cross_steal;
        let engine = Engine::new(c);
        let plan = engine.compile(&inst.queries[slot]);
        let (mut ms, mut outs) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            let t = Instant::now();
            let out = engine.run_plan_sharded(g, &plan).expect("probe launch");
            ms.push(ms_since(t));
            outs.push(out);
        }
        (p50(&ms), outs)
    };
    let mut us = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(ShardPlan::work_aware(g, 2));
        us.push(us_since(t));
    }
    m.set("shard.plan_us", p50(&us));
    let weights = stats::level0_weights(g);
    let loads = ShardPlan::work_aware(g, 16).shard_loads(&weights);
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    m.set(
        "shard.load_spread",
        *loads.iter().max().expect("16 shards") as f64 / mean,
    );
    let mut degradations = 0;
    let mut note = |outs: &[stmatch_core::ShardedOutcome]| {
        degradations += outs.iter().map(|o| o.degradations.len()).sum::<usize>();
    };
    let (ms, outs) = sharded(2, false, false);
    m.set("shard.contiguous_run_ms_p50", ms);
    note(&outs);
    let (ms, outs) = sharded(2, true, false);
    m.set("shard.work_aware_run_ms_p50", ms);
    note(&outs);
    let (ms, outs) = sharded(2, true, true);
    m.set("shard.steal_run_ms_p50", ms);
    note(&outs);
    let (_, outs) = sharded(16, true, false);
    m.set(
        "shard.work_aware_bottleneck_cycles",
        outs[0].outcome.simulated_cycles() as f64,
    );
    note(&outs);
    let (_, outs) = sharded(16, true, true);
    let cycles: Vec<f64> = outs
        .iter()
        .map(|o| o.outcome.simulated_cycles() as f64)
        .collect();
    m.set("shard.steal_bottleneck_cycles_p50_s16", p50(&cycles));
    m.set(
        "shard.rail_steals_per_op",
        outs.iter().map(|o| o.rail.cross_steals).sum::<u64>() as f64 / outs.len() as f64,
    );
    note(&outs);
    m.set("shard.degradations", degradations as f64);
}

fn edge_ops(net: &NetBatch) -> Vec<EdgeOp> {
    let del = net.deletes.iter().map(|&(u, v)| EdgeOp::delete(u, v));
    let ins = net.inserts.iter().map(|&(u, v)| EdgeOp::insert(u, v));
    del.chain(ins).collect()
}

/// graph::delta and core::delta, `resident_tick` only: the building blocks
/// of `apply_batch` called directly on the tick's own batches.
fn delta_layers(m: &mut Metrics, inst: &Instance, g: &Graph, cfg: EngineConfig) {
    let Some(watch) = &inst.watch else { return };
    let engine = Engine::new(cfg);
    let plans = engine.compile_delta(watch);
    let recount_plan = engine.compile(watch);

    // One pass over batches of a given size: fold, snapshot, staged views,
    // and the metered delta run, on an overlay that moves on like the
    // service's.
    struct Pass {
        fold_us: Vec<f64>,
        snapshot_us: Vec<f64>,
        view_us: Vec<f64>,
        view_allocs: f64,
        run_ms: Vec<f64>,
        instr: f64,
        allocs: f64,
        launches: f64,
        overlay: DeltaOverlay,
    }
    let pass = |batches: &[NetBatch]| {
        let mut p = Pass {
            fold_us: Vec::new(),
            snapshot_us: Vec::new(),
            view_us: Vec::new(),
            view_allocs: 0.0,
            run_ms: Vec::new(),
            instr: 0.0,
            allocs: 0.0,
            launches: 0.0,
            overlay: DeltaOverlay::new(g.clone()),
        };
        for net in batches {
            let ops = edge_ops(net);
            let pre = p.overlay.snapshot();
            let t = Instant::now();
            let batch = p.overlay.apply(&ops);
            p.fold_us.push(us_since(t));
            let t = Instant::now();
            let post = p.overlay.snapshot();
            p.snapshot_us.push(us_since(t));
            // The staged views `run_delta_plans_metered` builds: every
            // prefix of the deletes on `pre`, every suffix of the inserts
            // on `post`.
            let t = Instant::now();
            let (_, a) = counted(|| {
                for i in 0..batch.deletes.len() {
                    std::hint::black_box(pre.without_edges(&batch.deletes[..i]));
                }
                for i in 0..batch.inserts.len() {
                    std::hint::black_box(post.without_edges(&batch.inserts[i + 1..]));
                }
            });
            p.view_us.push(us_since(t));
            p.view_allocs = a.count as f64;
            let t = Instant::now();
            let (ran, a) = counted(|| engine.run_delta_plans_metered(&pre, &post, &batch, &plans));
            p.run_ms.push(ms_since(t));
            let (_, instr) = ran.expect("probe launch");
            p.instr = instr as f64;
            p.allocs = a.count as f64;
            p.launches = ((batch.deletes.len() + batch.inserts.len()) * plans.num_plans()) as f64;
        }
        p
    };

    let tick = pass(&inst.batches[..REPS]);
    m.set("graph.delta_fold_us", p50(&tick.fold_us));
    m.set("graph.delta_snapshot_us", p50(&tick.snapshot_us));
    m.set("graph.view_us", p50(&tick.view_us));
    m.set("graph.view_allocs", tick.view_allocs);
    m.set(
        "graph.delta_compact_ms",
        time_ms(REPS, || tick.overlay.clone().compact()),
    );
    let run = p50(&tick.run_ms);
    m.set("delta.run_ms_p50", run);
    m.set("delta.sim_instr_per_batch", tick.instr);
    m.set("delta.allocs_per_batch", tick.allocs);
    m.set("delta.launches_per_batch", tick.launches);

    // A full recount of the watched pattern on the graph after those ticks.
    let post = tick.overlay.snapshot();
    let recount = time_ms(REPS, || engine.run_plan(&post, &recount_plan));
    let (exact, a) = counted(|| Engine::new(steal_free(cfg)).run_plan(&post, &recount_plan));
    let recount_instr = exact.expect("probe launch").total_instructions() as f64;
    m.set("delta.recount_ms_p50", recount);
    m.set("delta.recount_sim_instr", recount_instr);
    m.set("delta.wall_vs_recount", run / recount);
    m.set("delta.instr_vs_recount", tick.instr / recount_instr);
    println!("info delta: a full recount makes {} allocations", a.count);

    // Handoff-bound batch sizes, probes only (see README): 16 and 256 edge
    // ops, drawn by the same exchange from the same pools.
    for (per_side, ms) in [(8, "delta.batch16_ms_p50"), (128, "delta.batch256_ms_p50")] {
        let (mut present, mut absent) = (inst.present.clone(), inst.absent.clone());
        let mut rng = SmallRng::seed_from_u64(per_side as u64);
        let batches = gen::exchange(&mut present, &mut absent, per_side, 3, &mut rng);
        let p = pass(&batches);
        m.set(ms, p50(&p.run_ms));
        if per_side == 128 {
            m.set("delta.batch256_allocs", p.allocs);
        }
        println!(
            "info delta: a batch of {} edge ops runs {} simulated instructions and makes {} allocations",
            2 * per_side,
            p.instr,
            p.allocs
        );
    }
}

/// core::service + pool, `resident_tick` only. Times are per round of the
/// tick's three queries.
fn service_layer(m: &mut Metrics, inst: &Instance, g: &Graph, cfg: EngineConfig) {
    if inst.watch.is_none() {
        return;
    }
    let scfg = ServiceConfig::new(cfg).with_workers(1);
    let shared = Arc::new(g.clone());
    let round = |svc: &MatchService| {
        let t = Instant::now();
        for q in &inst.queries {
            svc.submit(q, QueryOptions::default())
                .expect("probe submit");
        }
        ms_since(t)
    };
    let (mut start, mut stop, mut cold) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let svc = MatchService::new(Arc::clone(&shared), scfg);
        start.push(ms_since(t));
        cold.push(round(&svc));
        let t = Instant::now();
        drop(svc);
        stop.push(ms_since(t));
    }
    m.set("service.start_ms", p50(&start));
    m.set("service.shutdown_ms", p50(&stop));
    m.set("service.cold_submit_ms_p50", p50(&cold));

    let svc = MatchService::new(Arc::clone(&shared), scfg);
    round(&svc);
    let warm: Vec<f64> = (0..REPS).map(|_| round(&svc)).collect();
    let (_, a) = counted(|| round(&svc));
    let bare = p50(&Leg::run(cfg, g, &inst.queries, REPS, true).round_ms);
    m.set("service.submit_ms_p50", p50(&warm));
    m.set("service.bare_warm_run_ms_p50", bare);
    m.set("service.overhead_ms_p50", p50(&warm) - bare);
    m.set("service.submit_allocs", a.count as f64);

    // Handoff-bound small queries, probe only: closed loop with one query in
    // flight against four; the difference is admission wait.
    let small = Arc::new(graphgen::preferential_attachment(96, 4, 3).degree_ordered());
    let svc = MatchService::new(small, scfg);
    let qs: Vec<Pattern> = [2, 3, 6, 11].map(catalog::paper_query).to_vec();
    for q in &qs {
        svc.submit(q, QueryOptions::default())
            .expect("probe submit");
    }
    let (mut w1, mut w4) = (Vec::new(), Vec::new());
    for _ in 0..10 {
        for q in &qs {
            let t = Instant::now();
            svc.submit(q, QueryOptions::default())
                .expect("probe submit");
            w1.push(ms_since(t));
        }
        let t = Instant::now();
        let tickets: Vec<_> = qs
            .iter()
            .map(|q| svc.enqueue(q, QueryOptions::default()))
            .collect();
        for ticket in tickets {
            ticket.wait().expect("probe submit");
            w4.push(ms_since(t));
        }
    }
    m.set("service.small_submit_ms_p50_w1", p50(&w1));
    m.set("service.small_submit_ms_p50_w4", p50(&w4));
}

pub struct Traced {
    pub metrics: Metrics,
    pub verdict: Verdict,
    pub recorder: Recorder,
    /// Ops of the section.
    pub ops: usize,
}

pub fn traced_run(inst: &Instance, pres: &Presentation) -> Result<Traced, String> {
    let cfg = engine_config(inst);
    let mut m = Metrics::new();
    let mut rec = Recorder::new(true);
    let resident = cold_start(inst, pres, cfg, &mut rec)?;
    let mut records: Vec<Record> = vec![record(inst, 0, &resident.first)];

    // The section: chunks alternate recorder off / on; the difference of
    // their op-latency p50s is the recorder's overhead.
    let ops = pres.ops.len() - 1;
    let (mut off_ms, mut on_ms) = (Vec::new(), Vec::new());
    let mut compactions = 0;
    for i in 1..=ops {
        let on = ((i - 1) / CHUNK) % 2 == 1;
        rec.set_enabled(on);
        let mut out = OpOutput::for_op(&pres.ops[i]);
        let t = Instant::now();
        resident
            .live
            .run_op(&pres.ops[i], i as u64, &mut rec, &mut out);
        (if on { &mut on_ms } else { &mut off_ms }).push(ms_since(t));
        records.push(record(inst, i, &out));
        if let Live::Service { service, .. } = &resident.live {
            // A compaction leaves a plain CSR behind instead of a view.
            compactions += usize::from(!service.current_graph().is_view());
        }
    }
    rec.set_enabled(true);
    let (off, on) = (p50(&off_ms), p50(&on_ms));
    m.set("trace.overhead_pct", (on - off) / off * 100.0);
    m.set("trace.op_ms_p50", on);
    m.set("trace.op_ms_p90", percentile(&on_ms, 90.0));
    let own = rec.self_ns();
    let op_spans: Vec<&crate::trace::Span> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "op" && s.op_id != NO_OP && s.op_id != 0)
        .collect();
    let calls: Vec<f64> = op_spans
        .iter()
        .map(|s| (s.duration_ns() - own[s.id as usize]) as f64 / 1e6)
        .collect();
    let harness: Vec<f64> = op_spans
        .iter()
        .map(|s| own[s.id as usize] as f64 / 1e3)
        .collect();
    m.set("trace.layer_calls_ms_p50", p50(&calls));
    m.set("trace.harness_self_us_p50", p50(&harness));
    let apply: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "core::service.apply_batch" && s.op_id != 0)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    m.set("delta.apply_batch_ms_p50", p50(&apply));
    m.set("delta.compactions", compactions as f64);
    let mut oracle = Oracle::new(inst);
    oracle.advance(ops, true);
    if let Live::Service { service, .. } = &resident.live {
        let c = service.cache_stats();
        m.set("service.cache_hits", c.hits as f64);
        m.set("service.cache_misses", c.misses as f64);
        m.set("service.cache_entries", c.entries as f64);
        oracle.check_graph(ops, &service.current_graph());
    }
    oracle.check(&records);
    let verdict = oracle.verdict;
    drop(resident);

    // One standalone probe per layer, each under a span of its own.
    let g = io::read_lg(&pres.lg[..])
        .map_err(|e| e.to_string())?
        .degree_ordered();
    let mut probe = |name: &'static str, f: &mut dyn FnMut(&mut Metrics)| {
        let open = rec.begin(name, NO_OP);
        f(&mut m);
        rec.end(open, &[]);
    };
    probe("probe:graph", &mut |m| graph_layer(m, pres, &g));
    probe("probe:pattern+plan-verify", &mut |m| {
        pattern_layer(m, inst, &g, cfg)
    });
    probe("probe:gpu-sim", &mut gpusim_layer);
    probe("probe:core::engine..arena", &mut |m| {
        engine_layers(m, inst, &g, cfg)
    });
    probe("probe:core::shard", &mut |m| shard_layer(m, inst, &g, cfg));
    probe("probe:delta", &mut |m| delta_layers(m, inst, &g, cfg));
    probe("probe:core::service", &mut |m| {
        service_layer(m, inst, &g, cfg)
    });

    m.set("fault.deaths", verdict.deaths as f64);
    m.set("recover.downgrades", verdict.downgrades as f64);
    m.set("ops.failed", verdict.failed as f64);
    // The harness never retries an op.
    m.set("ops.retried", 0.0);
    m.set("trace.spans", rec.spans().len() as f64);
    Ok(Traced {
        metrics: m,
        verdict,
        recorder: rec,
        ops,
    })
}
