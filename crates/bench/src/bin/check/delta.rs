//! `check delta` (`ci.sh` phase `smoke:delta`), the gate for batch-dynamic
//! incremental matching.
//!
//! Three legs over the pinned q1/q6 goldens on the 48-vertex hub-skewed
//! fixture plus a larger scaling fixture:
//!
//! * **stream** — seeded update streams on a default-config engine
//!   (calling `DeltaPlans::count` is the request; no knob arms it) must
//!   reconcile exactly: the running count seeded from a full run and folded
//!   through each batch's [`MatchDelta`](stmatch_core::MatchDelta) equals
//!   full recomputation on the post-batch snapshot after every batch;
//! * **service** — a delta-enabled [`MatchService`] must deliver exact
//!   per-batch deltas to a watcher through `apply_batch` while one-shot
//!   submissions against the moving graph stay exact;
//! * **work** — interleaved delta-vs-recompute streams on the
//!   1024-vertex preferential-attachment fixture, compared in **simulated
//!   SIMT instructions** (the simulator's work measure), for the triangle,
//!   C5 (q2), the tailed C4 (q4) and the bowtie (q6), each row with its
//!   launches per batch
//!   (`2 × num_plans`, one plan per edge orbit): fails if any query's
//!   amortized per-batch delta work at batch size 16 rises above its
//!   recorded ceiling (exact: the deltas are metered on a 1 × 1 grid, where
//!   no steal moves them; the recounts run on the leg's 2 × 2 grid), if the
//!   triangle's is not at least 10x below one full recount, or if a
//!   triangle batch takes more than 2 launches.
//!
//! Three more lines, ungated, attribute the delta layer's host cost: the
//! host nanoseconds per `Graph::neighbors` call on a plain CSR, an overlay
//! snapshot and a stage view of a `resident_tick`-sized fixture; the host
//! nanoseconds per simulated instruction of the tick's anchored launches
//! against a whole-graph launch on the same snapshot; and the allocations
//! and bytes of one tick batch, split by the step that made them.
//!
//! Every stream is seeded; a failure prints the stream seed so the exact
//! batch sequence replays locally.

use crate::{fixture, report, GOLDEN};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use stmatch_bench::tick;
use stmatch_core::{
    DeltaPlans, Engine, EngineConfig, Launch, MatchService, QueryOptions, ServiceConfig,
    StagedBatch, WatchEvent,
};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, DeltaOverlay, EdgeOp, Graph};
use stmatch_pattern::{catalog, Pattern};
use stmatch_testkit::rng::{SmallRng, SplitMix64};

/// Stream seed for the exactness legs, printed on failure.
const STREAM_SEED: u64 = 0xd17a_00c1;

/// Minimum amortized instruction speedup over recompute at batch 16.
const SPEEDUP_FLOOR: f64 = 10.0;

/// Most launches a triangle batch may take: its three edges are one orbit,
/// so one anchored plan per batch side.
const TRIANGLE_LAUNCHES: usize = 2;

fn grid() -> GridConfig {
    crate::grid(2, 2)
}

pub fn run(args: &[String]) -> ExitCode {
    if let Err(code) = crate::flag("delta", args, &[]) {
        return code;
    }
    let mut ok = run_stream();
    ok &= run_service();
    ok &= run_work();
    report_lookups();
    report_host_cost();
    report_allocs();
    if ok {
        println!("delta: all legs OK");
    } else {
        eprintln!("delta: FAILED (reproduce: STREAM_SEED=0x{STREAM_SEED:x})");
    }
    crate::exit_code(ok)
}

/// One seeded batch of `ops` random edge toggles against the overlay's
/// current state (same discipline as `tests/delta_oracle.rs`).
fn seeded_batch(overlay: &DeltaOverlay, rng: &mut SplitMix64, ops: usize) -> Vec<EdgeOp> {
    let n = overlay.num_vertices() as u32;
    let mut out: Vec<EdgeOp> = Vec::with_capacity(ops);
    while out.len() < ops {
        let u = (rng.next_u64() % n as u64) as u32;
        let v = (rng.next_u64() % n as u64) as u32;
        if u == v {
            continue;
        }
        let mut present = overlay.has_edge(u, v);
        for op in &out {
            let (a, b) = (op.u.min(op.v), op.u.max(op.v));
            if (a, b) == (u.min(v), u.max(v)) {
                present = op.insert;
            }
        }
        out.push(if present {
            EdgeOp::delete(u, v)
        } else {
            EdgeOp::insert(u, v)
        });
    }
    out
}

/// Stream leg: q1/q6 seeded update streams reconcile against full
/// recomputation after every batch.
fn run_stream() -> bool {
    let engine = Engine::new(EngineConfig::default().with_grid(grid()));
    let mut ok = true;
    for (qi, golden) in GOLDEN {
        let q = catalog::paper_query(qi);
        let plans = engine.compile_delta(&q);
        let base = fixture();
        let mut running = engine.run(&base, &q).expect("base count").count as i64;
        if running != golden as i64 {
            eprintln!("delta q{qi} stream DRIFT: base count {running} != golden {golden}");
            ok = false;
        }
        let mut overlay = DeltaOverlay::new(base);
        let mut rng = SplitMix64::new(STREAM_SEED ^ qi as u64);
        let mut errs = Vec::new();
        for step in 0..3 {
            let pre = overlay.snapshot();
            let ops = seeded_batch(&overlay, &mut rng, 8);
            let batch = overlay.apply(&ops);
            if step == 1 {
                overlay.compact();
            }
            let post = overlay.snapshot();
            let (delta, _) = plans
                .count(&engine, &StagedBatch::new(&pre, &post, &batch))
                .expect("delta launch");
            running += delta.net();
            let full = engine.run(&post, &q).expect("recompute").count as i64;
            if running != full {
                errs.push(format!(
                    "step {step}: running {running} != recompute {full} \
                     (batch {batch:?}, delta {delta:?})"
                ));
            }
        }
        ok &= report(&format!("delta q{qi} stream"), &errs, || {
            format!("3 batches x 8 ops reconciled, final count {running}")
        });
    }
    ok
}

/// Service leg: watcher deltas off `apply_batch` reconcile, and one-shot
/// submissions against the moving graph stay exact.
fn run_service() -> bool {
    let cfg = ServiceConfig::new(EngineConfig::default().with_grid(grid()).with_delta(true));
    let service = MatchService::new(Arc::new(fixture()), cfg);
    let q = catalog::triangle();
    let events: Arc<Mutex<Vec<WatchEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&events);
    let _watch = service.submit_watch(&q, move |ev| sink.lock().unwrap().push(ev));
    let oracle = Engine::new(EngineConfig::default().with_grid(grid()));
    let mut running = service
        .submit(&q, QueryOptions::default())
        .expect("base submit")
        .count as i64;
    let mut shadow = DeltaOverlay::new((*service.current_graph()).clone());
    let mut rng = SplitMix64::new(STREAM_SEED ^ 0x5e41);
    let mut errs = Vec::new();
    for step in 0..3 {
        let ops = seeded_batch(&shadow, &mut rng, 6);
        shadow.apply(&ops);
        let applied = service.apply_batch(&ops);
        let ev = {
            let evs = events.lock().unwrap();
            evs.last().cloned()
        };
        let Some(ev) = ev else {
            errs.push(format!("step {step}: no watch event delivered"));
            break;
        };
        if ev.batch != applied {
            errs.push(format!(
                "step {step}: watch event batch {:?} != applied {applied:?}",
                ev.batch
            ));
        }
        match &ev.delta {
            Ok(delta) => running += delta.net(),
            Err(e) => errs.push(format!("step {step}: watch delta failed: {e}")),
        }
        let now = service.current_graph();
        let full = oracle.run(&now, &q).expect("oracle recompute").count as i64;
        if running != full {
            errs.push(format!(
                "step {step}: cumulative watch count {running} != recompute {full}"
            ));
        }
        let one_shot = service
            .submit(&q, QueryOptions::default())
            .expect("one-shot submit")
            .count as i64;
        if one_shot != full {
            errs.push(format!(
                "step {step}: one-shot count {one_shot} != recompute {full} on the new topology"
            ));
        }
    }
    report("delta service", &errs, || {
        format!("3 batches watched + one-shots exact, final count {running}")
    })
}

/// One interleaved stream at a given batch size: every batch is processed
/// twice — once through `metered`'s delta launches and once by `engine`'s
/// full recomputation (the exactness oracle *and* the work baseline).
/// Returns the per-batch `(delta, full)` simulated instruction means.
fn measure_stream(
    g: &Graph,
    (metered, engine): (&Engine, &Engine),
    q: &Pattern,
    plans: &DeltaPlans,
    batch_size: usize,
    batches: usize,
) -> Result<(f64, f64), String> {
    let mut running = engine
        .run(g, q)
        .map_err(|e| format!("base run: {e}"))?
        .count as i64;
    let mut overlay = DeltaOverlay::new(g.clone());
    let mut rng = SplitMix64::new(STREAM_SEED);
    let (mut d_instr, mut f_instr) = (0u64, 0u64);
    for step in 0..batches {
        let pre = overlay.snapshot();
        let ops = seeded_batch(&overlay, &mut rng, batch_size);
        let batch = overlay.apply(&ops);
        let post = overlay.snapshot();
        let (delta, metrics) = plans
            .count(metered, &StagedBatch::new(&pre, &post, &batch))
            .map_err(|e| format!("delta launch: {e}"))?;
        d_instr += metrics.total().simt_instructions;
        running += delta.net();
        let full = engine
            .run(&post, q)
            .map_err(|e| format!("recompute: {e}"))?;
        f_instr += full.metrics.total().simt_instructions;
        if running != full.count as i64 {
            return Err(format!(
                "batch {batch_size} step {step}: running {running} != recompute {} \
                 (delta {delta:?})",
                full.count
            ));
        }
    }
    Ok((
        d_instr as f64 / batches as f64,
        f_instr as f64 / batches as f64,
    ))
}

/// A work-leg row: the query, its `(batch size, batches)` streams and its
/// batch-16 delta ceiling in instructions per batch (exact on the 1 × 1
/// metering grid; re-record it from the `delta work` line when the cost
/// model moves on purpose).
type WorkRow = (Pattern, &'static [(usize, usize)], f64);

/// Work leg on the 1024-vertex PA fixture: amortized per-batch delta work
/// vs one full recount — for the triangle at batch sizes 1 / 16 / 256, for
/// q2, q4 and q6 at 16, each batch-16 mean held to its row's ceiling.
/// (Per-edge delta cost is a small constant plus
/// the touched endpoints' degrees; the fixture is sized so one full recount
/// dwarfs a 16-edge batch, the regime the O(batch)-vs-O(graph) claim is
/// about. At batch 256 on this graph the batch is a sizable fraction of the
/// edge set and recompute catches up — the printed curve shows that
/// crossover honestly.)
fn run_work() -> bool {
    let g = gen::preferential_attachment(1024, 4, 9).degree_ordered();
    let engine = Engine::new(EngineConfig::default().with_grid(grid()));
    let metered = Engine::new(EngineConfig::default().with_grid(crate::grid(1, 1)));
    let rows: [WorkRow; 4] = [
        (catalog::triangle(), &[(1, 12), (16, 6), (256, 2)], 96.0),
        (catalog::paper_query(2), &[(16, 3)], 1443.0),
        (catalog::paper_query(4), &[(16, 3)], 6717.0),
        (catalog::paper_query(6), &[(16, 3)], 593.0),
    ];
    let mut ok = true;
    for (q, sizes, ceiling) in rows {
        let plans = engine.compile_delta(&q);
        let launches = 2 * plans.num_plans();
        let triangle = q.name() == catalog::triangle().name();
        if triangle && launches > TRIANGLE_LAUNCHES {
            eprintln!(
                "delta work DRIFT: a triangle batch takes {launches} launches, more than \
                 {TRIANGLE_LAUNCHES} — its edges are one orbit"
            );
            ok = false;
        }
        for &(batch_size, batches) in sizes {
            match measure_stream(&g, (&metered, &engine), &q, &plans, batch_size, batches) {
                Ok((delta, full)) => {
                    let speedup = full / delta.max(1.0);
                    println!(
                        "delta work {} batch={batch_size}: {delta:.0} delta instr vs {full:.0} \
                         full instr per batch ({speedup:.1}x work reduction, {launches} \
                         launches per batch)",
                        q.name()
                    );
                    if batch_size == 16 && delta.round() > ceiling {
                        eprintln!(
                            "delta work DRIFT: {} batch-16 delta work {delta:.0} instr is above \
                             its {ceiling} ceiling — if the cost model moved on purpose, \
                             re-record the ceiling in `run_work` (crates/bench/src/bin/check/\
                             delta.rs) from this line",
                            q.name()
                        );
                        ok = false;
                    }
                    if triangle && batch_size == 16 && speedup < SPEEDUP_FLOOR {
                        eprintln!(
                            "delta work DRIFT: batch-16 speedup {speedup:.1}x below the \
                             {SPEEDUP_FLOOR}x floor — delta work no longer scales with the batch"
                        );
                        ok = false;
                    }
                }
                Err(e) => {
                    eprintln!("delta work DRIFT: {} {e}", q.name());
                    ok = false;
                }
            }
        }
    }
    ok
}

/// Prints host ns per `neighbors()` call, ungated (a time, not a count):
/// every vertex of a plain CSR, of an overlay snapshot one 128-edge
/// exchange batch on, and of each stage view of a 64-edge delete side
/// staged over that snapshot — the fixture, batch and sides of
/// `resident_tick`. Best of a few rounds.
fn report_lookups() {
    use std::hint::black_box;
    const ROUNDS: usize = 20;
    const SIDE: usize = 64;
    let plain = gen::preferential_attachment(1024, 8, 9).degree_ordered();
    let nv = plain.num_vertices() as u32;
    let deletes: Vec<(u32, u32)> = plain
        .edges()
        .step_by(plain.num_edges() / SIDE)
        .take(SIDE)
        .collect();
    let inserts = (0..nv)
        .map(|u| (u, (u + nv / 2) % nv))
        .filter(|&(u, v)| u < v && !plain.has_edge(u, v))
        .take(SIDE);
    let mut overlay = DeltaOverlay::new(plain.clone());
    let ops: Vec<EdgeOp> = deletes
        .iter()
        .map(|&(u, v)| EdgeOp::delete(u, v))
        .chain(inserts.map(|(u, v)| EdgeOp::insert(u, v)))
        .collect();
    overlay.apply(&ops);
    let snapshot = overlay.snapshot();
    let stride = snapshot.num_edges() / SIDE;
    let next: Vec<(u32, u32)> = snapshot
        .edges()
        .skip(stride / 2)
        .step_by(stride)
        .take(SIDE)
        .collect();
    let stages = snapshot.staged_without_edges(&next);
    let ns_per_call = |graphs: &[Graph]| {
        let calls = graphs.len() * nv as usize;
        let best = (0..ROUNDS)
            .map(|_| {
                let t = Instant::now();
                for g in graphs {
                    for v in 0..nv {
                        black_box(g.neighbors(black_box(v)));
                    }
                }
                t.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min);
        best / calls as f64
    };
    println!(
        "delta lookup: {:.1} ns per neighbors() on a plain CSR, {:.1} on an overlay snapshot, \
         {:.1} on a stage view (PA(1024,8,9), one {}-edge exchange batch, {SIDE} stages; \
         ungated)",
        ns_per_call(std::slice::from_ref(&plain)),
        ns_per_call(std::slice::from_ref(&snapshot)),
        ns_per_call(&stages),
        ops.len(),
    );
}

/// Prints host ns per simulated instruction, ungated (a time, not a count):
/// both anchored launches of each of the tick's entries (the triangle, q2,
/// q4 and q6, with the plans a delta service compiles on the snapshot) over
/// one 64 + 64 exchange batch, against a whole-graph q4 on the post-batch
/// snapshot — `check plans`' `resident_tick` instance, one warp, stealing
/// off. Best of a few rounds.
fn report_host_cost() {
    const ROUNDS: usize = 5;
    let mut cfg = EngineConfig::default().with_grid(crate::grid(1, 1));
    (cfg.local_steal, cfg.global_steal) = (false, false);
    let engine = Engine::new(cfg);
    let mut rng = SmallRng::seed_from_u64(tick::SEED);
    let (start, mut present, mut absent) = tick::fixture(&mut rng);
    let mut overlay = DeltaOverlay::new(start);
    let pre = overlay.snapshot();
    let batch = overlay.apply(&tick::exchange(&mut present, &mut absent, &mut rng));
    let post = overlay.snapshot();
    let staged = StagedBatch::new(&pre, &post, &batch);
    // Best host ns per simulated instruction of `launch`, which returns the
    // instructions it ran.
    let ns_per_instr = |launch: &dyn Fn() -> u64| {
        (0..ROUNDS)
            .map(|_| {
                let t = Instant::now();
                let instr = launch();
                t.elapsed().as_nanos() as f64 / instr.max(1) as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let anchored: Vec<String> = std::iter::once(catalog::triangle())
        .chain([2, 4, 6].map(catalog::paper_query))
        .map(|q| {
            let plans = engine.compile_delta_on(&q, &pre);
            let ns = ns_per_instr(&|| {
                let (_, metrics) = plans.count(&engine, &staged).expect("delta");
                metrics.total().simt_instructions
            });
            format!("{} {ns:.0}", q.name())
        })
        .collect();
    let q4 = engine.compile(&catalog::paper_query(4));
    let whole = ns_per_instr(&|| {
        let out = engine.launch(&Launch::new(&post, &q4)).expect("recount");
        out.total_instructions()
    });
    println!(
        "delta host cost: ns per simulated instruction, anchored {} vs whole-graph q4 {whole:.0} \
         (resident_tick's instance, one 128-edge exchange batch, one snapshot, one warp; ungated)",
        anchored.join(", ")
    );
}

/// Prints the allocations and bytes of one 128-edge exchange batch of the
/// tick instance (`check plans`' fixture), ungated, by the step that made
/// them: `DeltaOverlay::apply`, `snapshot`, staging the batch once
/// (`StagedBatch::new`), and each of the tick's entries' `DeltaPlans::count`
/// over it (the triangle, q2, q4 and q6, plans chosen on the snapshot
/// before the batch) — its launches alone, as in a service. The engine is
/// the service's 1 × 2 grid with stealing off, warmed by counting every
/// entry over the batch before, so its arenas are parked, as a service's
/// are between ticks.
fn report_allocs() {
    let mut cfg = EngineConfig::default().with_grid(crate::grid(1, 2));
    (cfg.local_steal, cfg.global_steal) = (false, false);
    let engine = Engine::new(cfg);
    let mut rng = SmallRng::seed_from_u64(tick::SEED);
    let (start, mut present, mut absent) = tick::fixture(&mut rng);
    let mut overlay = DeltaOverlay::new(start);
    let before = overlay.snapshot();
    let warm = overlay.apply(&tick::exchange(&mut present, &mut absent, &mut rng));
    let pre = overlay.snapshot();
    let entries = std::iter::once(catalog::triangle()).chain([2, 4, 6].map(catalog::paper_query));
    let plans: Vec<(String, DeltaPlans)> = entries
        .map(|q| (q.name().to_string(), engine.compile_delta_on(&q, &pre)))
        .collect();
    let warm = StagedBatch::new(&before, &pre, &warm);
    for (_, p) in &plans {
        p.count(&engine, &warm).expect("warm-up delta");
    }
    let ops = tick::exchange(&mut present, &mut absent, &mut rng);
    let kib = |(n, bytes): (u64, u64)| format!("{n} / {:.1} KiB", bytes as f64 / 1024.0);
    let (batch, apply) = crate::allocs(|| overlay.apply(&ops));
    let (post, snapshot) = crate::allocs(|| overlay.snapshot());
    let (staged, staging) = crate::allocs(|| StagedBatch::new(&pre, &post, &batch));
    let counts: Vec<String> = plans
        .iter()
        .map(|(name, p)| {
            let (_, n) = crate::allocs(|| p.count(&engine, &staged).expect("delta"));
            format!("{name} {}", kib(n))
        })
        .collect();
    println!(
        "delta allocs: apply {}, snapshot {}, staging {}, count {} (allocations / bytes of one \
         {}-op exchange batch of resident_tick's instance, warm 1 x 2 steal-free engine; ungated)",
        kib(apply),
        kib(snapshot),
        kib(staging),
        counts.join(", "),
        ops.len(),
    );
}
