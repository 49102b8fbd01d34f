//! CI smoke gate for batch-dynamic incremental matching (`ci.sh` phase
//! `smoke:delta`).
//!
//! Four legs over the pinned q1/q6 goldens on the 48-vertex hub-skewed
//! fixture plus a larger scaling fixture:
//!
//! * **off** — the delta knob defaults off, and flipping it on must leave
//!   ordinary full runs bit-identical: golden counts and identical
//!   simulated instruction totals with the knob in either position;
//! * **stream** — seeded update streams must reconcile exactly: the
//!   running count seeded from a full run and folded through each batch's
//!   [`MatchDelta`] equals full recomputation on the post-batch snapshot
//!   after every batch;
//! * **service** — a delta-enabled [`MatchService`] must deliver exact
//!   per-batch deltas to a watcher through `apply_batch` while one-shot
//!   submissions against the moving graph stay exact;
//! * **timing** — an interleaved delta-vs-recompute stream on the
//!   1024-vertex preferential-attachment fixture, recorded as JSON only
//!   when `--out=<path>` is given (PR 10's recording is summarized in
//!   CHANGES.md; the default run leaves the work tree alone). The gate compares **simulated
//!   SIMT instructions** — the simulator's work measure, as in the PR 8
//!   scaling curve — and fails if the amortized per-batch delta work is
//!   not at least 10x below one full recount at batch size 16.
//!
//! Every stream is seeded; a failure prints the stream seed so the exact
//! batch sequence replays locally.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use stmatch_core::{
    DeltaPlans, Engine, EngineConfig, MatchService, QueryOptions, ServiceConfig, WatchEvent,
};
use stmatch_gpusim::{GridConfig, SharedBudget};
use stmatch_graph::{gen, DeltaOverlay, EdgeOp, Graph};
use stmatch_pattern::{catalog, Pattern};
use stmatch_testkit::rng::SplitMix64;

/// `(query, pinned clean count)` — same fixture and goldens as
/// `faults_check` and `shard_check`.
const GOLDEN: [(usize, u64); 2] = [(1, 119531), (6, 2884)];

/// Per-leg wall cap; anything near it means a launch hung.
const WALL_CAP: Duration = Duration::from_secs(60);

/// Stream seed for the exactness legs, printed on failure.
const STREAM_SEED: u64 = 0xd17a_00c1;

/// Minimum amortized instruction speedup over recompute at batch 16.
const SPEEDUP_FLOOR: f64 = 10.0;

fn grid() -> GridConfig {
    GridConfig {
        num_blocks: 2,
        warps_per_block: 2,
        shared_mem_per_block: SharedBudget::RTX3090_BYTES,
    }
}

fn fixture() -> Graph {
    gen::preferential_attachment(48, 4, 3).degree_ordered()
}

fn main() {
    let mut out_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if let Some(p) = arg.strip_prefix("--out=") {
            out_path = Some(p.to_string());
        } else {
            eprintln!("delta_check: unknown argument {arg:?} (usage: delta_check [--out=<path>])");
            std::process::exit(2);
        }
    }
    let mut ok = run_off();
    ok &= run_stream();
    ok &= run_service();
    ok &= run_timing(out_path.as_deref());
    if ok {
        println!("delta_check: all legs OK");
    } else {
        eprintln!("delta_check: FAILED (reproduce: STREAM_SEED=0x{STREAM_SEED:x})");
        std::process::exit(1);
    }
}

fn report(leg: &str, errs: &[String], detail: impl Fn() -> String) -> bool {
    if errs.is_empty() {
        println!("delta {leg}: OK ({})", detail());
        true
    } else {
        for e in errs {
            eprintln!("delta {leg} DRIFT: {e}");
        }
        false
    }
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

/// Off leg: the knob defaults off, and enabling it must not perturb
/// ordinary full runs — identical counts *and* instruction totals.
/// Stealing is disabled for the comparison, as in the hotpath gate:
/// steal timing is host-scheduler-dependent and would make instruction
/// totals race run to run (counts are exact either way).
fn run_off() -> bool {
    let mut ok = true;
    if EngineConfig::default().delta.enabled {
        eprintln!("delta off DRIFT: EngineConfig::default().delta.enabled is true");
        ok = false;
    }
    let g = fixture();
    let mut cfg = EngineConfig::default().with_grid(grid());
    cfg.local_steal = false;
    cfg.global_steal = false;
    let off = Engine::new(cfg);
    let on = Engine::new(cfg.with_delta(true));
    for (qi, golden) in GOLDEN {
        let q = catalog::paper_query(qi);
        let t = Instant::now();
        let a = off.run(&g, &q).expect("off-leg launch");
        let b = on.run(&g, &q).expect("knob-on launch");
        let wall = t.elapsed();
        let mut errs = Vec::new();
        if a.count != golden {
            errs.push(format!("knob-off count {} != golden {golden}", a.count));
        }
        if b.count != golden {
            errs.push(format!("knob-on count {} != golden {golden}", b.count));
        }
        let (ia, ib) = (
            a.metrics.total().simt_instructions,
            b.metrics.total().simt_instructions,
        );
        if ia != ib {
            errs.push(format!(
                "instruction totals diverge with the knob: off {ia} vs on {ib}"
            ));
        }
        if wall > WALL_CAP {
            errs.push(format!("wall {wall:?} exceeded the {WALL_CAP:?} cap"));
        }
        ok &= report(&format!("q{qi} off"), &errs, || {
            format!("count {}, {ia} instructions either way", a.count)
        });
    }
    ok
}

/// Stream leg: q1/q6 seeded update streams reconcile against full
/// recomputation after every batch.
fn run_stream() -> bool {
    let engine = Engine::new(EngineConfig::default().with_grid(grid()).with_delta(true));
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
        let t = Instant::now();
        for step in 0..3 {
            let pre = overlay.snapshot();
            let ops = seeded_batch(&overlay, &mut rng, 8);
            let batch = overlay.apply(&ops);
            if step == 1 {
                overlay.compact();
            }
            let post = overlay.snapshot();
            let delta = engine
                .run_delta_plans_metered(&pre, &post, &batch, &plans)
                .expect("delta launch")
                .0;
            running += delta.net();
            let full = engine.run(&post, &q).expect("recompute").count as i64;
            if running != full {
                errs.push(format!(
                    "step {step}: running {running} != recompute {full} \
                     (batch {batch:?}, delta {delta:?})"
                ));
            }
        }
        let wall = t.elapsed();
        if wall > WALL_CAP {
            errs.push(format!("wall {wall:?} exceeded the {WALL_CAP:?} cap"));
        }
        ok &= report(&format!("q{qi} stream"), &errs, || {
            format!(
                "3 batches x 8 ops reconciled, final count {running}, {:.0}ms",
                wall.as_secs_f64() * 1e3
            )
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
    let t = Instant::now();
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
    let wall = t.elapsed();
    if wall > WALL_CAP {
        errs.push(format!("wall {wall:?} exceeded the {WALL_CAP:?} cap"));
    }
    report("service", &errs, || {
        format!(
            "3 batches watched + one-shots exact, final count {running}, {:.0}ms",
            wall.as_secs_f64() * 1e3
        )
    })
}

/// One interleaved stream at a given batch size: every batch is processed
/// twice — once through the delta engine (metered) and once by full
/// recomputation (the exactness oracle *and* the timing baseline).
struct TimingRow {
    batch: usize,
    batches: usize,
    delta_instr: f64,
    full_instr: f64,
    delta_wall_ms: f64,
    full_wall_ms: f64,
}

impl TimingRow {
    fn speedup(&self) -> f64 {
        self.full_instr / self.delta_instr.max(1.0)
    }
}

fn measure_stream(
    g: &Graph,
    engine: &Engine,
    q: &Pattern,
    plans: &DeltaPlans,
    batch_size: usize,
    batches: usize,
    seed: u64,
) -> Result<TimingRow, String> {
    let mut running = engine
        .run(g, q)
        .map_err(|e| format!("base run: {e}"))?
        .count as i64;
    let mut overlay = DeltaOverlay::new(g.clone());
    let mut rng = SplitMix64::new(seed);
    let (mut d_instr, mut f_instr) = (0u64, 0u64);
    let (mut d_wall, mut f_wall) = (Duration::ZERO, Duration::ZERO);
    for step in 0..batches {
        let pre = overlay.snapshot();
        let ops = seeded_batch(&overlay, &mut rng, batch_size);
        let batch = overlay.apply(&ops);
        let post = overlay.snapshot();
        let t = Instant::now();
        let (delta, instr) = engine
            .run_delta_plans_metered(&pre, &post, &batch, plans)
            .map_err(|e| format!("delta launch: {e}"))?;
        d_wall += t.elapsed();
        d_instr += instr;
        running += delta.net();
        let t = Instant::now();
        let full = engine
            .run(&post, q)
            .map_err(|e| format!("recompute: {e}"))?;
        f_wall += t.elapsed();
        f_instr += full.metrics.total().simt_instructions;
        if running != full.count as i64 {
            return Err(format!(
                "batch {batch_size} step {step}: running {running} != recompute {} \
                 (delta {delta:?})",
                full.count
            ));
        }
    }
    Ok(TimingRow {
        batch: batch_size,
        batches,
        delta_instr: d_instr as f64 / batches as f64,
        full_instr: f_instr as f64 / batches as f64,
        delta_wall_ms: d_wall.as_secs_f64() * 1e3 / batches as f64,
        full_wall_ms: f_wall.as_secs_f64() * 1e3 / batches as f64,
    })
}

/// Timing leg on the 1024-vertex PA fixture: amortized per-batch delta
/// work vs one full recount, at batch sizes 1 / 16 / 256. (Per-edge delta
/// cost is a small constant plus the touched endpoints' degrees; the
/// fixture is sized so one full recount dwarfs a 16-edge batch, the
/// regime the O(batch)-vs-O(graph) claim is about. At batch 256 on this
/// graph the batch is a sizable fraction of the edge set and recompute
/// catches up — the curve records that crossover honestly.)
fn run_timing(out_path: Option<&str>) -> bool {
    let g = gen::preferential_attachment(1024, 4, 9).degree_ordered();
    let engine = Engine::new(EngineConfig::default().with_grid(grid()).with_delta(true));
    let q = catalog::triangle();
    let plans = engine.compile_delta(&q);
    let mut ok = true;
    let mut rows = Vec::new();
    for (batch_size, batches) in [(1usize, 12usize), (16, 6), (256, 2)] {
        let t = Instant::now();
        match measure_stream(&g, &engine, &q, &plans, batch_size, batches, STREAM_SEED) {
            Ok(row) => {
                println!(
                    "delta timing batch={}: {:.0} delta instr vs {:.0} full instr per batch \
                     ({:.1}x work reduction; wall {:.2}ms vs {:.2}ms)",
                    row.batch,
                    row.delta_instr,
                    row.full_instr,
                    row.speedup(),
                    row.delta_wall_ms,
                    row.full_wall_ms,
                );
                if batch_size == 16 && row.speedup() < SPEEDUP_FLOOR {
                    eprintln!(
                        "delta timing DRIFT: batch-16 speedup {:.1}x below the {SPEEDUP_FLOOR}x \
                         floor — delta work no longer scales with the batch",
                        row.speedup()
                    );
                    ok = false;
                }
                rows.push(row);
            }
            Err(e) => {
                eprintln!("delta timing DRIFT: {e}");
                ok = false;
            }
        }
        if t.elapsed() > WALL_CAP {
            eprintln!("delta timing DRIFT: batch={batch_size} exceeded the {WALL_CAP:?} cap");
            ok = false;
        }
    }
    let Some(out_path) = out_path else {
        return ok;
    };
    let curve = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"batch\": {}, \"batches\": {}, \"delta_instr_per_batch\": {:.1}, \
                 \"full_instr_per_batch\": {:.1}, \"speedup_instr\": {:.2}, \
                 \"delta_wall_ms_per_batch\": {:.3}, \"full_wall_ms_per_batch\": {:.3} }}",
                r.batch,
                r.batches,
                r.delta_instr,
                r.full_instr,
                r.speedup(),
                r.delta_wall_ms,
                r.full_wall_ms,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"delta_amortized\",\n  \"unix_time\": {unix},\n  \
         \"config\": {{\n    \"fixture\": \"preferential_attachment(1024, 4, 9) degree-ordered\",\n    \
         \"pattern\": \"triangle\",\n    \"grid\": \"2 blocks x 2 warps (delta launches on the delta sub-grid)\",\n    \
         \"stream_seed\": \"0x{STREAM_SEED:x}\",\n    \
         \"note\": \"interleaved stream: every batch runs the delta engine and a full recount; instr = total simulated SIMT instructions, the simulator's work measure (host wall on the simulator is launch-scheduling bound)\"\n  }},\n  \
         \"results\": {{\n    \"speedup_floor_at_batch_16\": {SPEEDUP_FLOOR},\n    \
         \"curve\": [\n{curve}\n    ]\n  }}\n}}\n",
        unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    );
    if let Err(e) = std::fs::write(out_path, json) {
        eprintln!("delta timing: failed to write {out_path}: {e}");
        return false;
    }
    println!("delta timing: wrote {out_path}");
    ok
}
