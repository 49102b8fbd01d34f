//! `check counters` (`ci.sh` phase `smoke:counters`): the simulated
//! machine's exact counters on the benchmark's workloads, rebuilt from the
//! crates (nothing of `benchmark/` is imported), so that a change meant to
//! leave the machine alone proves it here before the benchmark runs.
//!
//! Every leg runs on the benchmark's 1 × 2 grid with stealing off, the
//! schedule of its counting pass, under which the totals repeat exactly:
//!
//! * **census_sparse** — `Engine::run`s of q1, q3 and q6 on degree-ordered
//!   PA(420, 6, 7), one op's worth;
//! * **clique_dense** — an `Engine::run` of q8 on degree-ordered
//!   ER(192, 7200, 5);
//! * **tick** — a `resident_tick` replica: `check plans`' half of
//!   PA(1024, 8, 9), [`TICKS`] 64 + 64 exchange batches, each staged once
//!   (`StagedBatch::new`), and per batch `DeltaPlans::count` over it of the
//!   triangle (the watcher) and of q2, q4 and q6 (the maintained counts),
//!   each with the anchored plans a delta service compiles at its cache
//!   miss (`Engine::compile_delta_on` the starting graph). Its per-entry
//!   split prints beside the totals.
//!
//! Each leg pins its instructions, active and issued lane slots and matches
//! (for the tick, the deltas' added plus removed) in [`PINS`]. A drift fails
//! the leg by name and prints the re-bless command; `--print` prints the
//! current values as `PINS` rows.

use crate::{grid, report};
use std::process::ExitCode;
use stmatch_bench::tick::{exchange, fixture, SEED};
use stmatch_core::{Engine, EngineConfig, StagedBatch};
use stmatch_gpusim::WarpMetrics;
use stmatch_graph::{gen, DeltaOverlay, Graph};
use stmatch_pattern::{catalog, Pattern};
use stmatch_testkit::rng::SmallRng;

/// Exchange batches the tick leg applies.
const TICKS: usize = 8;

/// One leg's exact counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counters {
    instr: u64,
    active: u64,
    issued: u64,
    matches: u64,
}

impl Counters {
    fn add(&mut self, t: &WarpMetrics, matches: u64) {
        self.instr += t.simt_instructions;
        self.active += t.active_lane_slots;
        self.issued += t.issued_lane_slots;
        self.matches += matches;
    }

    fn util(&self) -> f64 {
        self.active as f64 / self.issued.max(1) as f64
    }
}

/// What each leg must count exactly. Re-bless only for an intentional
/// change of the cost model or of a fixture, and say so in the commit.
const PINS: [(&str, Counters); 3] = [
    (
        "census_sparse",
        Counters {
            instr: 460_004,
            active: 10_896_235,
            issued: 11_933_984,
            matches: 18_670_578,
        },
    ),
    (
        "clique_dense",
        Counters {
            instr: 671_762,
            active: 13_930_204,
            issued: 15_240_192,
            matches: 182_227,
        },
    ),
    (
        "tick",
        Counters {
            instr: 803_211,
            active: 20_784_093,
            issued: 23_228_512,
            matches: 990_018,
        },
    ),
];

/// The benchmark's engine with its counting pass's schedule.
fn engine() -> Engine {
    let mut cfg = EngineConfig::default().with_grid(grid(1, 2));
    (cfg.local_steal, cfg.global_steal) = (false, false);
    Engine::new(cfg)
}

pub fn run(args: &[String]) -> ExitCode {
    let print = match crate::flag("counters", args, &["--print"]) {
        Ok(f) => f.is_some(),
        Err(code) => return code,
    };
    let engine = engine();
    let legs = [
        engine_op(
            &engine,
            &gen::preferential_attachment(420, 6, 7).degree_ordered(),
            &[1, 3, 6],
        ),
        engine_op(
            &engine,
            &gen::erdos_renyi(192, 7200, 5).degree_ordered(),
            &[8],
        ),
        tick(&engine),
    ];
    let mut ok = true;
    for ((name, pinned), leg) in PINS.iter().zip(legs) {
        let (now, split) = match leg {
            Ok(leg) => leg,
            Err(e) => {
                eprintln!("counters {name} DRIFT: {e}");
                ok = false;
                continue;
            }
        };
        if print {
            println!(
                "    (\n        \"{name}\",\n        Counters {{\n            instr: {},\n            \
                 active: {},\n            issued: {},\n            matches: {},\n        }},\n    ),",
                now.instr, now.active, now.issued, now.matches
            );
            continue;
        }
        let errs = if now == *pinned {
            Vec::new()
        } else {
            vec![format!("pinned {pinned:?}, counted {now:?}")]
        };
        ok &= report(&format!("counters {name}"), &errs, || {
            format!(
                "{} instr, util {:.6}, {} matches; {split}",
                now.instr,
                now.util(),
                now.matches
            )
        });
    }
    if !ok {
        eprintln!(
            "counters: re-bless an intentional change with `cargo run --release --offline \
             -p stmatch-bench --bin check -- counters --print` and paste its rows into PINS \
             (crates/bench/src/bin/check/counters.rs)"
        );
    }
    crate::exit_code(ok)
}

/// One engine op: a run of each of `queries` on `g`, and the split of its
/// instructions by query.
fn engine_op(engine: &Engine, g: &Graph, queries: &[usize]) -> Result<(Counters, String), String> {
    let mut c = Counters::default();
    let mut split = Vec::new();
    for &qi in queries {
        let out = engine
            .run(g, &catalog::paper_query(qi))
            .map_err(|e| format!("q{qi}: {e}"))?;
        let t = out.metrics.total();
        c.add(&t, out.count);
        split.push(format!(
            "q{qi} {} instr, {} matches",
            t.simt_instructions, out.count
        ));
    }
    Ok((c, split.join(" + ")))
}

/// The tick replica, and the split of its instructions, launches and
/// deltas by entry.
fn tick(engine: &Engine) -> Result<(Counters, String), String> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let (start, mut present, mut absent) = fixture(&mut rng);
    let entries: Vec<Pattern> = std::iter::once(catalog::triangle())
        .chain([2, 4, 6].map(catalog::paper_query))
        .collect();
    let plans: Vec<_> = entries
        .iter()
        .map(|q| engine.compile_delta_on(q, &start))
        .collect();
    let mut overlay = DeltaOverlay::new(start);
    let mut total = Counters::default();
    let mut per_entry = vec![(Counters::default(), 0u64); entries.len()];
    for _ in 0..TICKS {
        let pre = overlay.snapshot();
        let batch = overlay.apply(&exchange(&mut present, &mut absent, &mut rng));
        // Staged once, as the service stages a batch for all its entries.
        let staged = StagedBatch::new(&pre, &overlay.snapshot(), &batch);
        for ((q, plans), (entry, launches)) in entries.iter().zip(&plans).zip(&mut per_entry) {
            let (delta, metrics) = plans
                .count(engine, &staged)
                .map_err(|e| format!("{}: {e}", q.name()))?;
            let t = metrics.total();
            let matches = delta.added + delta.removed;
            total.add(&t, matches);
            entry.add(&t, matches);
            *launches += metrics.kernel_launches;
        }
    }
    let split = entries
        .iter()
        .zip(&per_entry)
        .map(|(q, (c, launches))| {
            format!(
                "{} {} instr ({:.1}%), {launches} launches, {} matches",
                q.name(),
                c.instr,
                100.0 * c.instr as f64 / total.instr.max(1) as f64,
                c.matches
            )
        })
        .collect::<Vec<_>>();
    Ok((total, format!("{TICKS} batches: {}", split.join(", "))))
}
