//! Integration gate for the `simt-check` concurrency analysis layer.
//!
//! Two obligations, both load-bearing for the checker's credibility:
//!
//! * **Zero false positives.** Every checker enabled over real engine
//!   runs — the paper-query goldens and the fault-injection scenarios —
//!   must produce no error diagnostics. A checker that cries wolf on
//!   correct code is worse than no checker.
//! * **Mutation kill.** The seeded concurrency bugs in
//!   `stmatch_core::steal::mutation` (a deleted mirror-lock acquisition,
//!   an inverted slot/mirror lock order) must be caught with diagnostics
//!   naming the involved sites. If a refactor ever lets one go silent,
//!   this file (and the `smoke:check` CI phase) fails.
//!
//! The checkers are process-global, so every test takes the [`SERIAL`]
//! mutex and re-`enable`s (which resets shadow cells, the lock graph,
//! wave-site stats, and pending diagnostics).

use std::sync::Mutex;

use simt_check::{CheckConfig, Diagnostic, Severity};
use stmatch_core::steal::{mutation, Board};
use stmatch_core::{Engine, EngineConfig, FaultPlan};
use stmatch_gpusim::{Close, Cost, Grid, GridConfig, SharedBudget, Site};
use stmatch_graph::{gen, DeltaOverlay, EdgeOp};
use stmatch_pattern::catalog;

/// Checker state is process-global; tests enabling it must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned guard only means another checker test failed; the state
    // is re-`enable`d (reset) below, so continuing is sound.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn grid() -> GridConfig {
    GridConfig {
        num_blocks: 2,
        warps_per_block: 4,
        shared_mem_per_block: SharedBudget::RTX3090_BYTES,
    }
}

/// The hub-skewed golden fixture of `tests/golden_counts.rs`.
fn fixture() -> stmatch_graph::Graph {
    gen::preferential_attachment(48, 4, 3).degree_ordered()
}

fn errors(diags: &[Diagnostic]) -> Vec<String> {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(Diagnostic::render)
        .collect()
}

/// All checkers over the full paper-query sweep on the golden fixture:
/// counts must match the pinned goldens (instrumentation must not perturb
/// results) and no error diagnostic may fire (no false positives). The
/// biggest queries (q9/q17/q19, millions of matches) are skipped here —
/// shadow-cell tracking serializes on a global map, and q1..q8 + the rest
/// already cover every distinct synchronization pattern the engine has.
#[test]
fn clean_queries_produce_no_diagnostics() {
    let _g = serial();
    // Edge-induced golden counts from tests/golden_counts.rs.
    const GOLDEN: &[(usize, u64)] = &[
        (1, 119531),
        (2, 5176),
        (3, 9200),
        (4, 34587),
        (5, 1486),
        (6, 2884),
        (7, 88),
        (8, 4),
        (10, 31430),
        (11, 967),
        (12, 258862),
        (13, 155617),
        (14, 621),
        (15, 3),
        (16, 0),
        (18, 186933),
        (20, 129),
        (21, 1294),
        (22, 78),
        (23, 0),
        (24, 0),
    ];
    simt_check::enable(CheckConfig::all());
    let g = fixture();
    let cfg = EngineConfig::full().with_grid(grid());
    for &(qi, want) in GOLDEN {
        let got = Engine::new(cfg)
            .run(&g, &catalog::paper_query(qi))
            .expect("launch")
            .count;
        assert_eq!(got, want, "q{qi} count drifted under instrumentation");
    }
    let diags = simt_check::drain();
    simt_check::disable();
    let errs = errors(&diags);
    assert!(
        errs.is_empty(),
        "false positives on clean paper queries:\n{}",
        errs.join("\n")
    );
}

/// All checkers on a graph carrying a hub-bitmap index: the bitmap probe, the
/// word-wave merge, and the fused chain paths issue their own `wave` /
/// `ballot` sequences, so they must satisfy the divergence lint's ballot
/// ⊆ active contract and perturb no counts. Runs both with and without
/// code motion (the fused chains mostly live in the no-motion recompute).
#[test]
fn hub_bitmap_paths_produce_no_diagnostics() {
    let _g = serial();
    const GOLDEN: &[(usize, u64)] = &[(1, 119531), (6, 2884), (8, 4)];
    simt_check::enable(CheckConfig::all());
    let g = fixture().with_hub_bitmap(6);
    for motion in [true, false] {
        let mut cfg = EngineConfig::full().with_grid(grid());
        cfg.code_motion = motion;
        for &(qi, want) in GOLDEN {
            let got = Engine::new(cfg)
                .run(&g, &catalog::paper_query(qi))
                .expect("launch")
                .count;
            assert_eq!(got, want, "q{qi} drifted under bitmap + motion={motion}");
        }
    }
    let diags = simt_check::drain();
    simt_check::disable();
    let errs = errors(&diags);
    assert!(
        errs.is_empty(),
        "false positives on hub-bitmap paths:\n{}",
        errs.join("\n")
    );
}

/// All checkers over the fault-injection scenarios: contained panics,
/// stalls, and poisoned publishes are *correct* executions (the
/// containment protocol orders every recovery path), so the checkers must
/// stay silent while recovery machinery runs — by construction of the
/// happens-before edges, not by suppression.
#[test]
fn fault_injection_produces_no_diagnostics() {
    let _g = serial();
    simt_check::enable(CheckConfig::all());
    let g = fixture();
    let cfg = EngineConfig::full().with_grid(grid());
    let q = catalog::paper_query(1);

    // Seeded plan: one panic + one stall (the smoke:faults scenario).
    let plan = FaultPlan::seeded(0x16c8, grid().total_warps(), 1, 1);
    let r = Engine::new(cfg)
        .with_fault_plan(plan)
        .run(&g, &q)
        .expect("faulty launch");
    assert_eq!(r.count, 119531, "count must survive the seeded faults");
    if let Some(f) = &r.fault {
        assert!(f.fully_recovered(), "seeded plan must be fully recovered");
    }

    // Poisoned publishes: panics mid-critical-section, exercising the
    // poison-recovery paths of every tracked lock.
    let plan = FaultPlan::new()
        .poison_publish_at(0, 4)
        .poison_publish_at(5, 4);
    let r = Engine::new(cfg)
        .with_fault_plan(plan)
        .run(&g, &q)
        .expect("poisoned launch");
    assert_eq!(r.count, 119531, "count must survive poisoned publishes");

    let diags = simt_check::drain();
    simt_check::disable();
    let errs = errors(&diags);
    assert!(
        errs.is_empty(),
        "false positives under fault injection:\n{}",
        errs.join("\n")
    );
}

/// Divergence lint, positive case: a star graph under the naive config
/// (no unrolling) streams one-element candidate sets through 32-wide
/// waves — exactly the sustained sub-warp utilization the paper's loop
/// unrolling exists to fix. The lint must fire and name the set-op
/// streaming site (`setops.rs`), not a wrapper.
#[test]
fn skewed_fixture_trips_subwarp_lint_at_setops_site() {
    let _g = serial();
    simt_check::enable(CheckConfig {
        races: false,
        deadlock: false,
        ..CheckConfig::all()
    });
    let g = gen::star(40).degree_ordered();
    let cfg = EngineConfig::naive().with_grid(grid());
    let _ = Engine::new(cfg)
        .run(&g, &catalog::paper_query(1))
        .expect("launch");
    let diags = simt_check::drain();
    simt_check::disable();
    let hits: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "subwarp-util").collect();
    assert!(
        !hits.is_empty(),
        "star graph + unroll 1 must trip the sub-warp lint; got: {:?}",
        diags.iter().map(|d| d.code).collect::<Vec<_>>()
    );
    assert!(
        hits.iter().any(|d| d.message.contains("setops.rs")),
        "lint must name the set-op streaming site:\n{}",
        hits.iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        hits.iter().all(|d| d.severity == Severity::Warning),
        "sub-warp utilization is advisory, not an error"
    );
}

/// A counting stream (`Cost::Stream` closed `Close::Counted`: no ballot
/// closes its waves) is seen wave by wave at the site that charged it, and the warp
/// reconverges after it without a charged instruction — so the scan that
/// opens the next stream is not issued while diverged, and no error fires.
#[test]
fn a_counting_stream_reports_its_site_and_reconverges() {
    let _g = serial();
    simt_check::enable(CheckConfig {
        races: false,
        deadlock: false,
        ..CheckConfig::all()
    });
    let grid = Grid::new(GridConfig {
        num_blocks: 1,
        warps_per_block: 1,
        shared_mem_per_block: 0,
    })
    .expect("grid");
    let m = grid.launch(|w| {
        for i in 0..8 {
            // One one-lane wave, left diverged; the last stream opens with
            // a two-slot scan.
            let slots = if i == 7 { 2 } else { 1 };
            let counted = Cost::Stream {
                slots,
                lanes: 1,
                close: Close::Counted,
            };
            w.charge(Site::SetOp, counted);
        }
    });
    let diags = simt_check::drain();
    simt_check::disable();
    assert_eq!(m.warps[0].simt_instructions, 8 + 5, "no ballots");
    assert!(errors(&diags).is_empty(), "{:?}", errors(&diags));
    assert!(
        diags
            .iter()
            .any(|d| d.code == "subwarp-util" && d.message.contains("simt_check.rs")),
        "the half-empty waves are attributed to this file: {:?}",
        diags.iter().map(Diagnostic::render).collect::<Vec<_>>()
    );
}

/// Divergence lint, negative case: a complete graph under the full config
/// keeps candidate sets warp-sized and batches eight unroll slots per
/// wave — utilization stays high and the lint must stay quiet.
#[test]
fn balanced_fixture_stays_clean() {
    let _g = serial();
    simt_check::enable(CheckConfig {
        races: false,
        deadlock: false,
        ..CheckConfig::all()
    });
    let g = gen::complete(32).degree_ordered();
    let cfg = EngineConfig::full().with_grid(grid());
    let _ = Engine::new(cfg)
        .run(&g, &catalog::paper_query(1))
        .expect("launch");
    let diags = simt_check::drain();
    simt_check::disable();
    let subwarp: Vec<String> = diags
        .iter()
        .filter(|d| d.code == "subwarp-util")
        .map(Diagnostic::render)
        .collect();
    assert!(
        subwarp.is_empty(),
        "balanced fixture must not trip the sub-warp lint:\n{}",
        subwarp.join("\n")
    );
    assert!(errors(&diags).is_empty());
}

/// Mutation kill, race detector: `claim_shallow_without_lock` replays a
/// shallow claim whose `Mirror::lock` acquisition was deleted. A worker
/// thread seeds the mirror *under* the tracked lock; `std::thread`
/// spawn/join is invisible to the checker (only tracked locks and launch
/// fork/join create happens-before), so the unlocked claim from the host
/// thread has no edge to the worker's locked write — a data race naming
/// both sites.
#[test]
fn mutation_lock_drop_is_caught_as_race() {
    let _g = serial();
    simt_check::enable(CheckConfig {
        divergence: false,
        ..CheckConfig::all()
    });
    simt_check::set_reproduce(
        "SIMT_CHECK=races,deadlock cargo run --release -p stmatch-bench \
         --bin simt_check -- --mutate=lock-drop",
    );
    let board = Board::new(1, 2, 2, (0, 100), 10);
    std::thread::scope(|s| {
        s.spawn(|| {
            // The legitimate, locked seeding write (the racing site).
            let mut m = board.mirror(0).lock();
            m.size[0] = 4;
        });
    });
    let claimed = mutation::claim_shallow_without_lock(&board, 0, 0);
    assert_eq!(claimed, Some(0), "mutation must still claim work");
    let diags = simt_check::drain();
    simt_check::disable();
    let races: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "race").collect();
    assert!(
        !races.is_empty(),
        "deleted lock acquisition must be reported as a race; got: {:?}",
        diags.iter().map(|d| d.code).collect::<Vec<_>>()
    );
    let msg = &races[0].message;
    assert!(
        msg.contains("mirror[0]"),
        "race must name the mirror cell: {msg}"
    );
    assert!(
        msg.contains("steal.rs") && msg.contains("simt_check.rs"),
        "race must name both the mutation site and the locked site: {msg}"
    );
    assert!(
        races[0]
            .reproduce
            .as_deref()
            .unwrap_or("")
            .contains("SIMT_CHECK="),
        "diagnostic must carry a deterministic reproduce line"
    );
}

/// Mutation kill, deadlock analyzer: after one legitimate global push has
/// recorded the declared slot → mirror nesting, `push_global_inverted`
/// (mirror held across the slot acquisition) closes a cycle in the
/// runtime acquisition graph and must be reported with both edge sites.
#[test]
fn mutation_lock_invert_is_caught_as_cycle() {
    let _g = serial();
    simt_check::enable(CheckConfig {
        races: false,
        divergence: false,
        ..CheckConfig::all()
    });
    simt_check::set_reproduce(
        "SIMT_CHECK=races,deadlock cargo run --release -p stmatch-bench \
         --bin simt_check -- --mutate=lock-invert",
    );
    // Two blocks × one warp: warp 0 pushes into block 1's slot.
    let board = Board::new(2, 1, 2, (0, 100), 10);
    board.mark_idle(1);
    board.mirror(0).lock().size[0] = 4;
    // Legitimate push: slot (rank 10) then mirror (rank 30).
    assert!(board.try_push_global(0), "the legitimate push must land");
    // Drain the slot and restore idleness so the mutation can re-push.
    assert!(board.try_claim_global(1).is_some());
    board.mark_idle(1);
    // Inverted push: mirror held across the slot acquisition.
    assert!(mutation::push_global_inverted(&board, 0));
    let diags = simt_check::drain();
    simt_check::disable();
    let cycles: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "lock-cycle").collect();
    assert!(
        !cycles.is_empty(),
        "inverted lock order must be reported as a cycle; got: {:?}",
        diags.iter().map(|d| d.code).collect::<Vec<_>>()
    );
    let msg = &cycles[0].message;
    assert!(
        msg.contains("GlobalSlot") && msg.contains("Mirror"),
        "cycle must name both lock classes: {msg}"
    );
    assert!(
        msg.contains("steal.rs"),
        "cycle must carry the acquisition sites: {msg}"
    );
    assert!(
        cycles[0]
            .reproduce
            .as_deref()
            .unwrap_or("")
            .contains("--mutate=lock-invert"),
        "diagnostic must carry a deterministic reproduce line"
    );
}

/// All checkers over the resident service's concurrent-submission path:
/// multiple client threads racing into the admission queue, two workers
/// draining batches onto warm slots (recycled arenas) and the parked warp
/// threads, plan-cache hits and misses, a fault-injected query, a
/// queued-deadline expiry and `cache_stats` sweeps — all while the race
/// detector watches the service's shadow state (`plan-cache[id]`,
/// per-instance boards, recycled arena cells). Then a delta-enabled
/// service: one thread applies batches while another registers and
/// cancels watchers and a third queries, so the graph lock takes the cache
/// lock inside it (a batch picks its entries, a watcher registers) beside
/// the workers' cache accesses. Zero error diagnostics allowed, and every
/// count must stay at the golden value under instrumentation.
#[test]
fn service_concurrent_submissions_produce_no_diagnostics() {
    let _g = serial();
    simt_check::enable(CheckConfig::all());
    let svc = stmatch_core::MatchService::new(
        std::sync::Arc::new(fixture()),
        stmatch_core::ServiceConfig::new(EngineConfig::full().with_grid(grid())).with_workers(2),
    );
    // Edge-induced goldens from tests/golden_counts.rs (cheap queries).
    const GOLDEN: &[(usize, u64)] = &[(1, 119531), (6, 2884), (8, 4)];
    let svc_ref = &svc;
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(move || {
                for &(qi, want) in GOLDEN {
                    let out = svc_ref
                        .submit(&catalog::paper_query(qi), Default::default())
                        .expect("clean query");
                    assert_eq!(out.count, want, "q{qi} drifted under instrumentation");
                }
            });
        }
        s.spawn(move || {
            // A fault-injected neighbour: deaths contained per query.
            let opts = stmatch_core::QueryOptions {
                fault_plan: Some(FaultPlan::seeded(0x16c8, grid().total_warps(), 1, 1)),
                ..Default::default()
            };
            let out = svc_ref
                .submit(&catalog::paper_query(1), opts)
                .expect("faulted query recovers");
            assert_eq!(out.count, 119531);
        });
        s.spawn(move || {
            // A queued-deadline expiry: replies without launching.
            let opts = stmatch_core::QueryOptions {
                deadline: Some(std::time::Duration::ZERO),
                ..Default::default()
            };
            assert!(svc_ref.submit(&catalog::paper_query(1), opts).is_err());
        });
        s.spawn(move || {
            // Stat sweeps racing the submissions: each takes the tracked
            // cache lock the workers' hits and misses take.
            for _ in 0..16 {
                let _ = svc_ref.cache_stats();
                std::thread::yield_now();
            }
        });
    });
    drop(svc); // graceful shutdown is part of the checked surface

    let delta_cfg = EngineConfig::full().with_grid(grid()).with_delta(true);
    let svc = stmatch_core::MatchService::new(
        std::sync::Arc::new(fixture()),
        stmatch_core::ServiceConfig::new(delta_cfg).with_workers(2),
    );
    let g = fixture();
    let (u, v) = (1..48u32)
        .map(|v| (0, v))
        .find(|&(u, v)| !g.has_edge(u, v))
        .expect("vertex 0 has a non-neighbour");
    let triangle = catalog::triangle();
    let mut overlay = DeltaOverlay::new(fixture());
    overlay.apply(&[EdgeOp::insert(u, v)]);
    let engine = Engine::new(delta_cfg);
    let counts = [&g, &overlay.snapshot()].map(|g| engine.run(g, &triangle).unwrap().count);
    let (svc_ref, triangle) = (&svc, &triangle);
    std::thread::scope(|s| {
        s.spawn(move || {
            for i in 0..6 {
                let op = if i % 2 == 0 {
                    EdgeOp::insert(u, v)
                } else {
                    EdgeOp::delete(u, v)
                };
                svc_ref.apply_batch(&[op]);
            }
        });
        s.spawn(move || {
            for _ in 0..6 {
                let id = svc_ref.submit_watch(triangle, |e| {
                    e.delta.expect("watched delta");
                });
                assert!(svc_ref.cancel_watch(id));
            }
        });
        s.spawn(move || {
            for _ in 0..4 {
                let out = svc_ref
                    .submit(triangle, Default::default())
                    .expect("query beside batches");
                assert!(
                    counts.contains(&out.count),
                    "{} not in {counts:?}",
                    out.count
                );
            }
        });
    });
    drop(svc);
    let diags = simt_check::drain();
    simt_check::disable();
    let errs = errors(&diags);
    assert!(
        errs.is_empty(),
        "false positives on the service path:\n{}",
        errs.join("\n")
    );
}

/// Mutation kill, race detector, service edition:
/// `cache_insert_without_lock` inserts a plan through the raw mutex,
/// bypassing the tracked `ServicePlanCache` lock. A prior blocking submit
/// guarantees a worker has already written the cache *under* the tracked
/// lock, and the ticket's reply slot is invisible to the checker — so the
/// untracked insert has no happens-before edge to the worker's write and
/// must be reported as a data race naming the `plan-cache` cell.
#[test]
fn mutation_cache_drop_is_caught_as_race() {
    let _g = serial();
    simt_check::enable(CheckConfig {
        divergence: false,
        ..CheckConfig::all()
    });
    simt_check::set_reproduce(
        "SIMT_CHECK=races,deadlock cargo run --release -p stmatch-bench \
         --bin simt_check -- --mutate=cache-drop",
    );
    let svc = stmatch_core::MatchService::new(
        std::sync::Arc::new(fixture()),
        stmatch_core::ServiceConfig::new(EngineConfig::full().with_grid(grid())).with_workers(1),
    );
    // Seed the cache through the front door: the worker's locked write.
    // (No cache_stats() call after this — that takes the tracked lock and
    // would order this thread after the worker, hiding the race.)
    let out = svc
        .submit(&catalog::paper_query(8), Default::default())
        .expect("seeding query");
    assert_eq!(out.count, 4);
    stmatch_core::service::mutation::cache_insert_without_lock(&svc, &catalog::paper_query(7));
    let diags = simt_check::drain();
    simt_check::disable();
    let races: Vec<&Diagnostic> = diags.iter().filter(|d| d.code == "race").collect();
    assert!(
        !races.is_empty(),
        "untracked cache insert must be reported as a race; got: {:?}",
        diags.iter().map(|d| d.code).collect::<Vec<_>>()
    );
    let msg = &races[0].message;
    assert!(
        msg.contains("plan-cache["),
        "race must name the plan-cache cell: {msg}"
    );
    assert!(
        msg.contains("service.rs"),
        "race must carry the service sites: {msg}"
    );
    assert!(
        races[0]
            .reproduce
            .as_deref()
            .unwrap_or("")
            .contains("--mutate=cache-drop"),
        "diagnostic must carry a deterministic reproduce line"
    );
}

/// The checkers default to off, and a disabled checker files nothing even
/// when instrumented state is exercised.
#[test]
fn disabled_checkers_are_silent() {
    let _g = serial();
    simt_check::enable(CheckConfig::off());
    let board = Board::new(1, 2, 2, (0, 100), 10);
    let _ = mutation::claim_shallow_without_lock(&board, 0, 0);
    let _ = board.mirror(0).lock();
    let diags = simt_check::drain();
    assert!(diags.is_empty(), "checkers off must mean zero diagnostics");
}
