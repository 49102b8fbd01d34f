//! `check verify` (`ci.sh` phase `smoke:verify`), the gate for the static
//! plan verifier.
//!
//! Default mode runs two legs:
//!
//! * **clean** — every catalog paper query (q1..q24), compiled for both
//!   fixture graphs in edge-induced, vertex-induced, and labeled form,
//!   must verify with *zero* diagnostics and a usable resource
//!   certificate (no false positives, the verifier's prime directive);
//! * **dynamic** — a golden subset actually runs carrying its verdict
//!   (`Engine::verify` attached through `Launch::verified`, so the
//!   certificate's capacity bounds shape the arenas): counts must stay on
//!   the pinned goldens, certified spill-free plans must record zero
//!   `spill_events`, and the runtime `peak_slab_cells` must stay under the
//!   certificate's bound.
//!
//! `--mutate=dead-set|drop-bound|shard-overlap` runs one seeded plan
//! mutation instead: the verifier must catch it *by name* — the leg
//! prints the diagnostic (with its deterministic `reproduce:` line) and
//! exits nonzero, which `ci.sh` inverts and greps. A mutation the
//! verifier misses exits zero, failing the inverted gate.

use crate::{fixture as unlabeled, report};
use std::process::ExitCode;
use stmatch_core::shard::{self, ShardPlan};
use stmatch_core::{Engine, EngineConfig, Launch};
use stmatch_graph::{gen, Graph};
use stmatch_pattern::catalog;
use stmatch_pattern::plan::{mutation, MatchPlan, PlanOptions};
use stmatch_plan_verify::{verify_plan, DiagKind, GraphProfile};

/// `(query, edge-induced golden)` on the unlabeled fixture — the subset
/// the dynamic leg runs end-to-end (a path, a general shape, and the
/// cascade whose certificate shapes the arenas).
const GOLDEN: [(usize, u64); 3] = [(1, 119531), (6, 2884), (8, 4)];

const MUTATIONS: [&str; 3] = [
    "--mutate=dead-set",
    "--mutate=drop-bound",
    "--mutate=shard-overlap",
];

fn labeled() -> Graph {
    gen::assign_random_labels(&gen::rmat(6, 4, 11).degree_ordered(), 10, 2022)
}

pub fn run(args: &[String]) -> ExitCode {
    let mutate = match crate::flag("verify", args, &MUTATIONS) {
        Ok(f) => f.map(|f| f.trim_start_matches("--mutate=")),
        Err(code) => return code,
    };
    crate::exit_code(match mutate {
        None => run_clean() && run_dynamic(),
        Some(m) => run_mutation(m),
    })
}

/// Zero-false-positive sweep: q1..q24 × both fixtures × all plan modes.
fn run_clean() -> bool {
    let mut ok = true;
    let fixtures = [("unlabeled", unlabeled()), ("labeled", labeled())];
    // The slot tables the peak bounds are taken over: the default engine's.
    let engine = Engine::new(EngineConfig::default());
    for (fname, g) in &fixtures {
        let prof = GraphProfile::of(g);
        for qi in 1..=24 {
            let mut errs = Vec::new();
            let mut bound = 0u64;
            for induced in [false, true] {
                // Labeled verification pairs the labeled fixture with the
                // labeled query derivation the Table 3 harness uses.
                let q = if *fname == "labeled" {
                    catalog::paper_query(qi).with_random_labels(10, qi as u64)
                } else {
                    catalog::paper_query(qi)
                };
                let plan = MatchPlan::compile(
                    &q,
                    PlanOptions {
                        induced,
                        ..PlanOptions::default()
                    },
                );
                let repro = "cargo run -p stmatch-bench --bin check -- verify";
                let v = verify_plan(&plan, &prof, 4096, repro);
                for d in &v.diagnostics {
                    errs.push(format!("induced={induced}: false positive: {d}"));
                }
                if !v.cert.spill_free {
                    errs.push(format!(
                        "induced={induced}: 4096-cell slabs not certified spill-free \
                         on a {}-max-degree fixture",
                        prof.max_degree
                    ));
                }
                if v.liveness.is_none() {
                    errs.push(format!("induced={induced}: liveness pass missing"));
                }
                bound = bound.max(v.cert.peak_cells(&engine.slot_table(&plan)));
            }
            ok &= report(&format!("verify q{qi} {fname} clean"), &errs, || {
                format!("0 diagnostics, peak bound {bound} cells over the unroll-8 slot table")
            });
        }
    }
    ok
}

/// Runs the golden subset with each launch carrying its verdict (so the
/// certificate shapes the arenas), auditing the certificate against the
/// runtime spill/peak counters.
fn run_dynamic() -> bool {
    let g = unlabeled();
    let engine = Engine::new(EngineConfig::default().with_grid(crate::grid(2, 2)));
    let mut ok = true;
    for (qi, golden) in GOLDEN {
        let plan = engine.compile(&catalog::paper_query(qi));
        let v = engine.verify(&g, &plan);
        let mut errs = Vec::new();
        if !v.is_clean() {
            errs.push(format!(
                "{} diagnostics on a clean plan",
                v.diagnostics.len()
            ));
        }
        let mut request = Launch::new(&g, &plan);
        request.verified = Some(&v);
        let out = engine.launch(&request).expect("verified launch");
        if out.count != golden {
            errs.push(format!("verified count {} != golden {golden}", out.count));
        }
        if v.cert.spill_free && out.spill_events != 0 {
            errs.push(format!(
                "{} spills under a spill-free certificate",
                out.spill_events
            ));
        }
        let bound = v.cert.peak_cells(&engine.slot_table(&plan));
        if out.peak_slab_cells > bound {
            errs.push(format!(
                "runtime peak {} exceeds certified bound {bound}",
                out.peak_slab_cells
            ));
        }
        if out.peak_slab_cells == 0 && out.count > 0 {
            errs.push("peak tracking recorded nothing on a matching run".to_string());
        }
        ok &= report(&format!("verify q{qi} dynamic"), &errs, || {
            format!(
                "count {}, peak {}/{} cells, {} spills",
                out.count, out.peak_slab_cells, bound, out.spill_events
            )
        });
    }
    ok
}

/// One seeded mutation: print the named diagnostic and exit nonzero when
/// the verifier catches it (ci.sh inverts and greps this output).
fn run_mutation(which: &str) -> bool {
    let g = unlabeled();
    let prof = GraphProfile::of(&g);
    let repro = format!("cargo run -p stmatch-bench --bin check -- verify --mutate={which}");
    let diags = match which {
        "dead-set" => {
            let mut plan = MatchPlan::compile(&catalog::paper_query(6), PlanOptions::default());
            let set = mutation::insert_dead_set(&mut plan);
            println!("verify mutate dead-set: inserted dead set {set} into q6");
            let v = verify_plan(&plan, &prof, 4096, &repro);
            let named = v
                .diagnostics
                .iter()
                .any(|d| matches!(d.kind, DiagKind::DeadSet { set: s, .. } if s == set));
            if !named {
                eprintln!("verify mutate dead-set: diagnostics never name set {set}");
                return true; // missed: exit 0, failing the inverted gate
            }
            v.diagnostics
        }
        "drop-bound" => {
            let mut plan = MatchPlan::compile(&catalog::paper_query(8), PlanOptions::default());
            let Some((level, pos)) = mutation::drop_symmetry_bound(&mut plan) else {
                eprintln!("verify mutate drop-bound: K5 plan carried no bounds to drop");
                return true;
            };
            println!(
                "verify mutate drop-bound: dropped q8 symmetry bound at level {level} \
                 against position {pos}"
            );
            let v = verify_plan(&plan, &prof, 4096, &repro);
            let named = v.diagnostics.iter().any(|d| {
                matches!(
                    d.kind,
                    DiagKind::MissingSymmetryBound { level: l, pos: p, .. }
                        if l == level && p == pos
                )
            });
            if !named {
                eprintln!(
                    "verify mutate drop-bound: diagnostics never name level {level} pos {pos}"
                );
                return true;
            }
            v.diagnostics
        }
        "shard-overlap" => {
            let mut splan = ShardPlan::work_aware(&g, 4);
            let Some((dup, orphan)) = shard::mutation::overlap_cut(&mut splan) else {
                eprintln!("verify mutate shard-overlap: plan too small to mutate");
                return true;
            };
            println!(
                "verify mutate shard-overlap: duplicated vertex {dup} across the first \
                 cut, orphaning vertex {orphan}"
            );
            let diags = splan.verify_cover(g.num_vertices(), &repro);
            let overlap_named = diags
                .iter()
                .any(|d| matches!(d.kind, DiagKind::ShardOverlap { vertex, .. } if vertex == dup));
            let gap_named = diags
                .iter()
                .any(|d| matches!(d.kind, DiagKind::ShardGap { vertex } if vertex == orphan));
            if !overlap_named || !gap_named {
                eprintln!(
                    "verify mutate shard-overlap: diagnostics never name vertex {dup} \
                     (overlap) and vertex {orphan} (gap)"
                );
                return true;
            }
            diags
        }
        _ => unreachable!("`MUTATIONS` bounds the mutation names"),
    };
    for d in &diags {
        println!("verify CAUGHT: {d}");
    }
    false // caught: exit 1; ci.sh inverts this into a pass
}
