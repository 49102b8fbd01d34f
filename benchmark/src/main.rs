//! `stmatch-benchmark`: the repository's benchmark runner.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload W --seed S --seconds T --trace 0|1 [--quick]
//! ```
//!
//! prints every metric by name with its unit, checks every count against the
//! independent oracle `stmatch_baselines::reference::count`, and ends with
//! one JSON line `{correct, attempted, failed, metrics}`. `--trace 0` gives
//! the end-to-end metrics, `--trace 1` the per-layer ones and writes the
//! span file. `--noise K` runs what the driver does before it accepts the
//! benchmark. See README.md beside this package.

mod alloc;
mod gen;
mod layers;
mod noise;
mod spec;
mod stats;
mod sys;
mod trace;
mod workload;

use spec::{Workload, BLOCKS, END_TO_END, PER_LAYER, RUN_SECONDS, WATCHDOG_SLACK_S};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Oracle;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    noise: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        noise: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(spec::workload(&name).ok_or(format!(
                    "unknown workload {name}; known: {}",
                    spec::WORKLOADS.map(|w| w.name).join(", ")
                ))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&a.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--noise" => {
                // The count is optional: `--noise` alone means 10 runs a set.
                let k = it.peek().and_then(|v| v.parse::<usize>().ok());
                if k.is_some() {
                    it.next();
                }
                a.noise = Some(k.unwrap_or(10).max(2));
            }
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Timed ops of a run: N = rate × seconds, a whole number of blocks.
/// `--quick` measures a tenth of that, for smoke tests only.
fn timed_ops(w: &Workload, seconds: u64, quick: bool) -> usize {
    let n = (w.rate * seconds as f64) as usize;
    let n = if quick { n / 10 } else { n };
    (n / BLOCKS).max(1) * BLOCKS
}

fn header(a: &Args, w: &Workload, n: usize, digest: u64) {
    println!(
        "stmatch-benchmark workload={} seed={} seconds={} trace={} quick={}",
        w.name, a.seed, a.seconds, a.trace as u8, a.quick
    );
    println!(
        "host nproc={} {} | N={} timed ops in {} blocks, C={} counted ops, op-list digest {:016x}",
        sys::nproc(),
        sys::rustc_version(),
        n,
        BLOCKS,
        w.counting_ops,
        digest
    );
}

/// Prints the metrics and the result line; the exit code follows `correct`.
fn report(metrics: &[(&str, &str, f64)], attempted: usize, failed: usize, sound: bool) -> ExitCode {
    for (name, unit, value) in metrics {
        println!("metric {name} {value} {unit}");
    }
    let correct = sound && failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_timed(a: &Args, w: &'static Workload, started: Instant) -> Result<ExitCode, String> {
    let n = timed_ops(w, a.seconds, a.quick);
    let ops = 1 + n.max(w.counting_ops);
    let inst = gen::instance(w, ops);
    let pres = gen::present(&inst, a.seed, ops);
    header(a, w, n, pres.digest);

    let mut oracle = Oracle::new(&inst);
    let timed = workload::timed_section(&inst, &pres, started, a.seconds as f64, &mut oracle)?;
    let blocks = &timed.blocks;
    let setups: Vec<f64> = blocks
        .iter()
        .flat_map(|b| b.setups.iter().copied())
        .collect();
    println!(
        "timed section: {} of {BLOCKS} blocks run, {} ops, 1 + {} cold starts, done {:.1} s after start",
        blocks.len(),
        blocks.iter().map(|b| b.op_ms.len()).sum::<usize>(),
        setups.len(),
        started.elapsed().as_secs_f64()
    );

    // The counting pass runs twice; a run whose two passes disagree in
    // instructions, lanes or matches is not measuring a deterministic
    // schedule and fails.
    let c1 = workload::counting_pass(&inst, &pres)?;
    let c2 = workload::counting_pass(&inst, &pres)?;
    let deterministic = c1.exact() == c2.exact();
    if !deterministic {
        println!(
            "counting passes disagree: {:?} against {:?}",
            c1.exact(),
            c2.exact()
        );
    }
    println!(
        "counting pass: {} ops, {} sim instr, {} matches; allocations {} and {}",
        c1.ops, c1.sim_instr, c1.matches, c1.allocs.count, c2.allocs.count
    );

    // A short section may have ended before the counting pass's last op.
    oracle.advance(w.counting_ops, false);
    for e in &timed.setup_errors {
        oracle.setup_failed(e);
    }
    oracle.check(&timed.records);
    oracle.check(&c1.records);
    oracle.check(&c2.records);
    let verdict = &oracle.verdict;
    for note in &verdict.notes {
        println!("FAILED {note}");
    }

    // Host times: interference on a shared box only ever adds time and
    // arrives in plateaus longer than a block, so each is computed inside
    // every block and reported for the best one.
    let op_ms: Vec<&Vec<f64>> = blocks.iter().map(|b| &b.op_ms).collect();
    let (quiet, wall_p50) = stats::quietest_block(&op_ms, 50.0).ok_or("no op was run")?;
    let (_, wall_p90) = stats::quietest_block(&op_ms, 90.0).ok_or("no op was run")?;
    let cpu = blocks
        .iter()
        .map(|b| b.cpu_ms_per_op)
        .fold(f64::INFINITY, f64::min);
    // Ungated on purpose (see README): p90 spreads 2.5 times as much as p50,
    // and ops_per_s is 1 / mean latency of one closed loop.
    let samples: usize = op_ms.iter().map(|b| b.len()).sum();
    let block_p50s: Vec<f64> = op_ms.iter().map(|b| stats::p50(b)).collect();
    println!(
        "info quietest block #{quiet}; block p50s {:.2}..{:.2} ms; wall_ms_p90 {wall_p90} ms; \
         ops_per_s {} 1/s over {samples} samples",
        wall_p50,
        block_p50s.iter().copied().fold(0.0, f64::max),
        samples as f64 * 1e3 / op_ms.iter().copied().flatten().sum::<f64>()
    );
    let per_op = (c1.ops + c2.ops) as f64;
    let values = [
        stats::percentile(&setups, 10.0),
        wall_p50,
        cpu,
        c1.sim_instr as f64 / c1.ops as f64,
        c1.active_lanes as f64 / c1.issued_lanes as f64,
        (c1.allocs.count + c2.allocs.count) as f64 / per_op,
        (c1.allocs.bytes + c2.allocs.bytes) as f64 / 1024.0 / per_op,
        sys::peak_rss_mib(),
    ];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, m.unit, v))
        .collect();
    Ok(report(
        &metrics,
        verdict.attempted,
        verdict.failed,
        deterministic,
    ))
}

fn run_traced(a: &Args, w: &'static Workload) -> Result<ExitCode, String> {
    // A fifth of a timed run's ops, but at a full run's length no fewer than
    // 66, so that the resident service compacts once (every 64 batches).
    let n = (timed_ops(w, a.seconds, a.quick) / 5).max(if a.quick { 12 } else { 66 });
    let ops = 1 + n;
    let inst = gen::instance(w, ops);
    let pres = gen::present(&inst, a.seed, ops);
    header(a, w, n, pres.digest);
    let traced = layers::traced_run(&inst, &pres)?;
    for note in &traced.verdict.notes {
        println!("FAILED {note}");
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // <target dir>/release/stmatch-benchmark → <target dir>
    let dir = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("the executable has no target directory")?
        .join("stmatch-benchmark-trace");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}.trace.jsonl", w.name));
    let file = std::fs::File::create(&path).map_err(|e| e.to_string())?;
    traced
        .recorder
        .write_jsonl(std::io::BufWriter::new(file))
        .map_err(|e| e.to_string())?;
    println!(
        "traced section: {} ops, {} spans written to {}",
        traced.ops,
        traced.recorder.spans().len(),
        path.display()
    );
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, traced.metrics.get(m.name)))
        .collect();
    Ok(report(
        &metrics,
        traced.verdict.attempted,
        traced.verdict.failed,
        true,
    ))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stmatch-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("stmatch-benchmark: refusing to measure a debug build; pass --release");
        return ExitCode::from(2);
    }
    if let Some(runs) = args.noise {
        return noise::report(runs, args.seconds);
    }
    let Some(w) = args.workload else {
        eprintln!("stmatch-benchmark: --workload is required");
        return ExitCode::from(2);
    };
    // A hung launch must fail the process, not the driver's patience.
    let limit = Duration::from_secs(args.seconds + WATCHDOG_SLACK_S);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "stmatch-benchmark: watchdog: still running after {:.0} s, giving up",
            started.elapsed().as_secs_f64()
        );
        std::process::exit(3);
    });
    let ran = if args.trace {
        run_traced(&args, w)
    } else {
        run_timed(&args, w, started)
    };
    ran.unwrap_or_else(|e| {
        eprintln!("stmatch-benchmark: {e}");
        ExitCode::FAILURE
    })
}
