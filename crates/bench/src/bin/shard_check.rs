//! CI smoke gate for sharded multi-grid execution (`ci.sh` phase
//! `smoke:shard`).
//!
//! Default mode runs three legs over the pinned q1/q6 goldens on the
//! 48-vertex hub-skewed fixture:
//!
//! * **off** — sharding disabled (the default config) must stay
//!   bit-identical to the baseline: golden counts across repeated runs,
//!   zero shard-rail metrics, no fault bookkeeping;
//! * **on** — a clean 4-shard run must land the same goldens with
//!   nothing left on the rail;
//! * **kill** — seeded whole-shard deaths (1-of-4 and 3-of-4) must keep
//!   counts exact, fully recover the dead shards' work over the rail
//!   (nonzero requeue/steal traffic), and print the deterministic
//!   `FAULT_SEED=0x…` reproduce line.
//!
//! `--scaling` additionally runs the 1/2/4/8/16-shard efficiency sweep on
//! a larger skewed preferential-attachment fixture and prints the curve
//! (`--out=<path>` additionally records it as JSON; PR 8's recording is
//! summarized in CHANGES.md), failing if counts drift across shard counts
//! or the work-aware split loses to the contiguous baseline on bottleneck
//! time.
//!
//! Reproduce a kill-leg failure locally with the printed `FAULT_SEED=0x…`
//! line: the seed fully determines which shards die and when.

use std::time::{Duration, Instant};
use stmatch_core::{Engine, EngineConfig, FaultPlan, ShardPlan};
use stmatch_gpusim::{GridConfig, SharedBudget};
use stmatch_graph::{gen, stats, Graph};
use stmatch_pattern::catalog;

/// `(query, pinned clean count)` — same fixture and goldens as
/// `faults_check`.
const GOLDEN: [(usize, u64); 2] = [(1, 119531), (6, 2884)];

/// Per-leg wall cap; anything near it means a shard hung on the rail.
const WALL_CAP: Duration = Duration::from_secs(60);

/// Default kill seed, pinned by CI because its victims reliably die on
/// this fixture (the gate then proves real recovery — shard death
/// observed, count still exact). With an overridden `FAULT_SEED` the
/// victims may race to no work, so the death expectation only applies to
/// the default seed.
const DEFAULT_SEED: u64 = 0x8a1d;

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
    let mut scaling = false;
    let mut out_path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--scaling" {
            scaling = true;
        } else if let Some(p) = arg.strip_prefix("--out=") {
            out_path = Some(p.to_string());
        } else {
            eprintln!(
                "shard_check: unknown argument {arg:?} \
                 (usage: shard_check [--scaling] [--out=<path>])"
            );
            std::process::exit(2);
        }
    }
    let (seed, default_seed) = match std::env::var("FAULT_SEED") {
        Ok(s) => {
            let t = s.trim().trim_start_matches("0x").trim_start_matches("0X");
            let seed = u64::from_str_radix(t, 16).unwrap_or_else(|e| {
                eprintln!("shard_check: bad FAULT_SEED {s:?}: {e}");
                std::process::exit(2);
            });
            (seed, false)
        }
        Err(_) => (DEFAULT_SEED, true),
    };
    let mut failed = !run_gate(seed, default_seed);
    if scaling {
        failed |= !run_scaling(out_path.as_deref());
    }
    if failed {
        std::process::exit(1);
    }
}

/// The off / on / kill legs over the pinned goldens.
fn run_gate(seed: u64, default_seed: bool) -> bool {
    let g = fixture();
    let mut ok = true;

    // --- Off leg: the knob default must leave the engine untouched. ---
    let off_cfg = EngineConfig::default().with_grid(grid());
    assert!(!off_cfg.shard.enabled, "sharding must be off by default");
    for (qi, golden) in GOLDEN {
        let q = catalog::paper_query(qi);
        let mut errs = Vec::new();
        let mut counts = Vec::new();
        for _ in 0..2 {
            let out = Engine::new(off_cfg).run(&g, &q).expect("off-leg launch");
            if out.metrics.total().shard_steal_receives != 0 {
                errs.push("shard-rail metric nonzero with sharding off".to_string());
            }
            if out.fault.is_some() {
                errs.push("fault bookkeeping attached to a clean run".to_string());
            }
            counts.push(out.count);
        }
        if counts.iter().any(|&c| c != golden) {
            errs.push(format!("counts {counts:?} != golden {golden}"));
        }
        if counts[0] != counts[1] {
            errs.push(format!("repeat runs disagree: {counts:?}"));
        }
        ok &= report(qi, "off", &errs, || format!("count {}", counts[0]));
    }

    // --- On leg: clean 4-shard run, same goldens, rail drained. ---
    let on_cfg = EngineConfig::default()
        .with_grid(grid())
        .with_shard(true)
        .with_shards(4);
    for (qi, golden) in GOLDEN {
        let q = catalog::paper_query(qi);
        let t = Instant::now();
        let out = Engine::new(on_cfg)
            .run_sharded(&g, &q)
            .expect("on-leg launch");
        let wall = t.elapsed();
        let mut errs = Vec::new();
        if out.outcome.count != golden {
            errs.push(format!(
                "sharded count {} != golden {golden}",
                out.outcome.count
            ));
        }
        if !out.unfinished.is_empty() {
            errs.push(format!("{} ranges left on the rail", out.unfinished.len()));
        }
        if out.rail.shard_deaths != 0 {
            errs.push("shard deaths on a clean run".to_string());
        }
        if wall > WALL_CAP {
            errs.push(format!("took {wall:?} (cap {WALL_CAP:?})"));
        }
        ok &= report(qi, "on", &errs, || {
            format!(
                "count {}, {} cross-steals, {:.1}ms",
                out.outcome.count,
                out.rail.cross_steals,
                wall.as_secs_f64() * 1e3
            )
        });
    }

    // --- Kill legs: seeded shard deaths must recover exactly. ---
    let mut deaths_total = 0usize;
    let mut requeue_total = 0u64;
    for kills in [1usize, 3] {
        let plan = FaultPlan::seeded_shard_kill(seed, 4, kills);
        let reproduce = plan
            .shard_reproduce_line()
            .expect("seeded kill plans carry a reproduce line");
        for (qi, golden) in GOLDEN {
            let q = catalog::paper_query(qi);
            let t = Instant::now();
            let out = Engine::new(on_cfg)
                .with_fault_plan(plan.clone())
                .run_sharded(&g, &q)
                .expect("kill-leg launch");
            let wall = t.elapsed();
            let mut errs = Vec::new();
            if out.outcome.count != golden {
                errs.push(format!("count {} != golden {golden}", out.outcome.count));
            }
            if out.outcome.timed_out {
                errs.push("kill-leg run marked timed_out".to_string());
            }
            if wall > WALL_CAP {
                errs.push(format!("took {wall:?} (cap {WALL_CAP:?})"));
            }
            let deaths = match &out.outcome.fault {
                Some(r) => {
                    if !r.fully_recovered() {
                        errs.push(format!(
                            "not fully recovered: {} unrecovered, {} escaped",
                            r.unrecovered, r.escaped_panics
                        ));
                    }
                    if !r.deaths.is_empty() && out.reproduce.is_none() {
                        errs.push("shard-death report lacks a reproduce line".to_string());
                    }
                    r.deaths.len()
                }
                None => 0,
            };
            deaths_total += deaths;
            requeue_total += out.rail.requeue_pushes
                + out.rail.requeue_claims
                + out.outcome.metrics.total().shard_steal_receives;
            ok &= report(qi, &format!("kill{kills}"), &errs, || {
                format!(
                    "count {}, {deaths} deaths, {} shard-deaths, {} requeue-claims, \
                     {:.1}ms, {reproduce}",
                    out.outcome.count,
                    out.rail.shard_deaths,
                    out.rail.requeue_claims,
                    wall.as_secs_f64() * 1e3
                )
            });
        }
    }
    if default_seed && deaths_total == 0 {
        eprintln!("shard kill DRIFT: default-seed kills never fired: the gate exercised nothing");
        ok = false;
    }
    if default_seed && requeue_total == 0 {
        eprintln!("shard kill DRIFT: no work ever crossed the rail under the default seed");
        ok = false;
    }
    ok
}

fn report(qi: usize, leg: &str, errs: &[String], detail: impl Fn() -> String) -> bool {
    if errs.is_empty() {
        println!("shard q{qi} {leg}: OK ({})", detail());
        true
    } else {
        for e in errs {
            eprintln!("shard q{qi} {leg} DRIFT: {e}");
        }
        false
    }
}

/// One scaling measurement: bottleneck cycles of a sharded triangle count.
fn measure(g: &Graph, shards: usize, work_aware: bool, cross_steal: bool) -> (u64, u64, f64) {
    let mut cfg = EngineConfig::default()
        .with_grid(GridConfig {
            num_blocks: 1,
            warps_per_block: 2,
            shared_mem_per_block: SharedBudget::RTX3090_BYTES,
        })
        .with_shard(true)
        .with_shards(shards);
    cfg.shard.work_aware = work_aware;
    cfg.shard.cross_steal = cross_steal;
    let t = Instant::now();
    let out = Engine::new(cfg)
        .run_sharded(g, &catalog::triangle())
        .expect("scaling launch");
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    (out.outcome.count, out.outcome.simulated_cycles(), wall_ms)
}

/// 1/2/4/8/16-shard efficiency sweep on a 256-vertex skewed fixture,
/// recorded to `out_path` when one is given. Bottleneck time is `simulated_cycles()` — the
/// slowest warp of any shard — so the curve measures load balance, not
/// host scheduling noise.
fn run_scaling(out_path: Option<&str>) -> bool {
    let g = gen::preferential_attachment(256, 4, 9).degree_ordered();
    let weights = stats::level0_weights(&g);
    let base_count = measure(&g, 1, true, true).0;
    let mut ok = base_count > 0;
    let base_cycles = measure(&g, 1, false, false).1;
    let mut rows = Vec::new();
    let mut aware_16 = 0u64;
    let mut contig_16 = 0u64;
    for shards in [1usize, 2, 4, 8, 16] {
        // Pure partition comparison: cross-steal off, so the bottleneck
        // is exactly the heaviest shard's work.
        let (c_contig, cyc_contig, _) = measure(&g, shards, false, false);
        let (c_aware, cyc_aware, _) = measure(&g, shards, true, false);
        // Shipping config: work-aware + cross-steal, for the efficiency
        // curve the rail actually delivers.
        let (c_ship, cyc_ship, wall_ms) = measure(&g, shards, true, true);
        for (label, c) in [
            ("contiguous", c_contig),
            ("aware", c_aware),
            ("ship", c_ship),
        ] {
            if c != base_count {
                eprintln!("scaling x{shards} {label}: count {c} != baseline {base_count}");
                ok = false;
            }
        }
        if shards == 16 {
            aware_16 = cyc_aware;
            contig_16 = cyc_contig;
        }
        let spread = |p: &ShardPlan| {
            let loads = p.shard_loads(&weights);
            let max = loads.iter().copied().max().unwrap_or(0);
            let mean = loads.iter().sum::<u64>() as f64 / loads.len().max(1) as f64;
            max as f64 / mean.max(1.0)
        };
        let efficiency = base_cycles as f64 / (shards as f64 * cyc_aware as f64);
        println!(
            "scaling x{shards}: contiguous {cyc_contig} cyc, work-aware {cyc_aware} cyc, \
             +steal {cyc_ship} cyc, efficiency {efficiency:.3}, wall {wall_ms:.0}ms"
        );
        rows.push(format!(
            "    {{ \"shards\": {shards}, \"bottleneck_cycles\": {{ \"contiguous\": {cyc_contig}, \
             \"work_aware\": {cyc_aware}, \"work_aware_steal\": {cyc_ship} }}, \
             \"efficiency_work_aware\": {efficiency:.4}, \
             \"load_spread\": {{ \"contiguous\": {:.3}, \"work_aware\": {:.3} }}, \
             \"wall_ms\": {wall_ms:.1} }}",
            spread(&ShardPlan::contiguous(&g, shards)),
            spread(&ShardPlan::work_aware(&g, shards)),
        ));
    }
    if aware_16 >= contig_16 {
        eprintln!(
            "scaling: work-aware bottleneck {aware_16} >= contiguous {contig_16} at 16 shards \
             — the LPT split stopped paying for itself"
        );
        ok = false;
    }
    let Some(out_path) = out_path else {
        return ok;
    };
    let json = format!(
        "{{\n  \"bench\": \"shard_scaling\",\n  \"unix_time\": {unix},\n  \
         \"config\": {{\n    \"fixture\": \"preferential_attachment(256, 4, 9) degree-ordered\",\n    \
         \"pattern\": \"triangle\",\n    \"grid_per_shard\": \"1 block x 2 warps\",\n    \
         \"note\": \"bottleneck_cycles = max per-warp simt instructions over every shard; cross-steal off isolates the partitioner, work_aware_steal is the shipping config\"\n  }},\n  \
         \"results\": {{\n    \"count\": {base_count},\n    \"baseline_cycles\": {base_cycles},\n    \
         \"curve\": [\n{curve}\n    ]\n  }}\n}}\n",
        unix = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        curve = rows.join(",\n"),
    );
    if let Err(e) = std::fs::write(out_path, json) {
        eprintln!("scaling: failed to write {out_path}: {e}");
        return false;
    }
    println!("scaling: wrote {out_path}");
    ok
}
