//! Static-verifier soundness: the resource certificate's claims must
//! hold against the *actual* runtime counters, on arbitrary random
//! graphs, for every catalog plan, across slab configurations — and the
//! verifier must catch seeded plan corruptions *by name*, not merely
//! "something looks off".
//!
//! Verification is a request, not a knob: `Engine::verify` produces the
//! verdict, `Launch::verified` attaches it, `MatchService::verification`
//! asks the service for one. Four legs:
//!
//! * property — on seeded random graphs × catalog patterns, a launch
//!   carrying its verdict keeps the runtime `peak_slab_cells` within
//!   `ResourceCert::peak_cells` over the launch's slot table (and one
//!   pinned case holds the peak *above* the uniform `Σ bound × unroll`), and
//!   a `spill_free` certificate
//!   implies zero `spill_events`. Small `max_degree_slab` values are drawn
//!   too, exercising certificates that (soundly) refuse the spill-free
//!   claim;
//! * mutation kill tests — `insert_dead_set`, `drop_symmetry_bound`, and
//!   `overlap_cut` must each surface a diagnostic naming the exact
//!   set/level/vertex that was corrupted, with a `reproduce:` line;
//! * service — [`MatchService`] verifies an entry on the first
//!   `verification()` ask and never otherwise, keeps the verdict on the
//!   canonical cache entry, and counts it in `cache_stats`;
//! * shaping — an attached verdict shapes the warp arenas to the
//!   certificate's capacity bounds, and a verdict for the wrong graph
//!   cannot move a count.

use std::sync::Arc;
use stmatch_baselines::reference::{self, RefOptions};
use stmatch_core::shard::{self, ShardPlan};
use stmatch_core::{
    Engine, EngineConfig, Launch, MatchService, QueryOptions, ServiceConfig, WarmSlot,
};
use stmatch_gpusim::GridConfig;
use stmatch_graph::builder::graph_from_edges;
use stmatch_graph::{gen, Graph};
use stmatch_pattern::catalog;
use stmatch_pattern::plan::{mutation, MatchPlan, PlanOptions};
use stmatch_plan_verify::{verify_plan, DiagKind, GraphProfile, Verification};
use stmatch_testkit::prop::forall;
use stmatch_testkit::rng::Rng;

fn grid() -> GridConfig {
    GridConfig {
        num_blocks: 2,
        warps_per_block: 2,
        shared_mem_per_block: 100 * 1024,
    }
}

/// Maps a shrinkable `(n, density, seed)` triple onto a small random
/// graph, clamping out-of-range (possibly shrunk) values.
fn make_graph(n: usize, density: usize, seed: u64) -> Graph {
    let n = n.clamp(2, 40);
    gen::erdos_renyi(n, n * density.min(3), seed)
}

fn make_pattern(idx: usize) -> stmatch_pattern::Pattern {
    match idx % 8 {
        0 => catalog::triangle(),
        1 => catalog::wedge(),
        2 => catalog::square(),
        3 => catalog::diamond(),
        4 => catalog::k4(),
        5 => catalog::paper_query(2),
        6 => catalog::paper_query(6),
        _ => catalog::paper_query(8),
    }
}

/// One launch of `plan` carrying `verdict`, on `warm` when given.
fn launch_verified(
    engine: &Engine,
    g: &Graph,
    plan: &MatchPlan,
    verdict: &Verification,
    warm: Option<&WarmSlot>,
) -> Result<stmatch_core::MatchOutcome, stmatch_core::LaunchError> {
    let mut request = Launch::new(g, plan);
    request.verified = Some(verdict);
    request.warm = warm;
    engine.launch(&request)
}

/// Certificate vs reality: the static peak bound dominates the runtime
/// high-water mark, and spill-freedom is never claimed falsely — across
/// random graphs, catalog plans, and slab capacities small enough to
/// force the verifier into the "may spill" verdict.
#[test]
fn runtime_peak_never_exceeds_certified_bound() {
    forall(
        "runtime_peak_never_exceeds_certified_bound",
        |rng| {
            (
                rng.gen_range(4usize..40),
                rng.gen_range(1usize..4),
                rng.gen_range(0u64..1000),
                rng.gen_range(0usize..8),
                // Slab capacities from pathologically tiny (certificates
                // must refuse spill-freedom) up past any fixture degree.
                rng.gen_range(2usize..64),
            )
        },
        |&(n, density, seed, pidx, slab)| {
            let g = make_graph(n, density, seed);
            let p = make_pattern(pidx);
            let mut cfg = EngineConfig::default().with_grid(grid());
            cfg.max_degree_slab = slab.max(2);
            let engine = Engine::new(cfg);
            let plan = engine.compile(&p);
            // The engine certifies at its own effective slab sizing, so the
            // verdict is the one the launch actually runs under.
            let v = engine.verify(&g, &plan);
            if !v.diagnostics.is_empty() {
                return Err(format!(
                    "false positive on a catalog plan: {}",
                    v.diagnostics[0]
                ));
            }
            let out = launch_verified(&engine, &g, &plan, &v, None).map_err(|e| e.to_string())?;
            let bound = v.cert.peak_cells(&engine.slot_table(&plan));
            if out.peak_slab_cells > bound {
                return Err(format!(
                    "{}: runtime peak {} cells exceeds certified bound {bound}",
                    p.name(),
                    out.peak_slab_cells
                ));
            }
            if v.cert.spill_free && out.spill_events != 0 {
                return Err(format!(
                    "{}: {} spills under a spill-free certificate (slab_cap {})",
                    p.name(),
                    out.spill_events,
                    v.cert.slab_cap
                ));
            }
            Ok(())
        },
    );
}

/// Tight slabs must sometimes yield non-spill-free certificates — if the
/// verifier always said "spill free" the property above would be vacuous.
#[test]
fn tight_slabs_refuse_the_spill_free_claim() {
    let g = gen::preferential_attachment(48, 4, 3).degree_ordered();
    let profile = GraphProfile::of(&g);
    let plan = MatchPlan::compile(&catalog::paper_query(6), PlanOptions::default());
    let tight = verify_plan(&plan, &profile, 2, "tests/plan_verify.rs tight");
    assert!(
        !tight.cert.spill_free,
        "2-cell slabs certified spill-free on a max-degree-{} graph",
        profile.max_degree
    );
    let roomy = verify_plan(&plan, &profile, 4096, "tests/plan_verify.rs roomy");
    assert!(roomy.cert.spill_free, "4096-cell slabs must be spill-free");
    assert!(roomy.is_clean());
}

/// Kill test 1: a set written but never read must be reported as exactly
/// that set, with the level that defines it.
#[test]
fn mutation_dead_set_is_caught_by_name() {
    let g = gen::preferential_attachment(48, 4, 3).degree_ordered();
    let profile = GraphProfile::of(&g);
    let mut plan = MatchPlan::compile(&catalog::paper_query(6), PlanOptions::default());
    let set = mutation::insert_dead_set(&mut plan);
    let v = verify_plan(&plan, &profile, 4096, "tests/plan_verify.rs dead-set");
    let hit = v
        .diagnostics
        .iter()
        .find(|d| matches!(d.kind, DiagKind::DeadSet { set: s, .. } if s == set))
        .unwrap_or_else(|| panic!("dead set {set} not named in {:?}", v.diagnostics));
    assert!(hit.message.contains(&format!("dead set {set}")));
    assert!(
        hit.reproduce.contains("dead-set"),
        "diagnostic must carry its reproduce line"
    );
}

/// Kill test 2: deleting one symmetry-break bound must be reported at
/// its exact (level, position), as duplicate counting.
#[test]
fn mutation_dropped_symmetry_bound_is_caught_by_name() {
    let g = gen::preferential_attachment(48, 4, 3).degree_ordered();
    let profile = GraphProfile::of(&g);
    let mut plan = MatchPlan::compile(&catalog::paper_query(8), PlanOptions::default());
    let (level, pos) = mutation::drop_symmetry_bound(&mut plan)
        .expect("the K5 plan carries symmetry bounds to drop");
    let v = verify_plan(&plan, &profile, 4096, "tests/plan_verify.rs drop-bound");
    assert!(
        v.diagnostics.iter().any(|d| matches!(
            d.kind,
            DiagKind::MissingSymmetryBound { level: l, pos: p, .. } if l == level && p == pos
        )),
        "dropped bound at level {level} pos {pos} not named in {:?}",
        v.diagnostics
    );
}

/// Kill test 3: corrupting a shard cut so one vertex is owned twice and
/// another by nobody must name both vertices.
#[test]
fn mutation_overlapping_shard_cut_is_caught_by_name() {
    let g = gen::preferential_attachment(48, 4, 3).degree_ordered();
    let mut splan = ShardPlan::work_aware(&g, 4);
    let (dup, orphan) = shard::mutation::overlap_cut(&mut splan).expect("4-shard plan is mutable");
    let diags = splan.verify_cover(g.num_vertices(), "tests/plan_verify.rs shard-overlap");
    assert!(
        diags
            .iter()
            .any(|d| matches!(d.kind, DiagKind::ShardOverlap { vertex, .. } if vertex == dup)),
        "duplicated vertex {dup} not named in {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| matches!(d.kind, DiagKind::ShardGap { vertex } if vertex == orphan)),
        "orphaned vertex {orphan} not named in {diags:?}"
    );
    // An untouched plan must pass the same check.
    let clean = ShardPlan::work_aware(&g, 4).verify_cover(g.num_vertices(), "clean");
    assert!(clean.is_empty(), "clean shard plan flagged: {clean:?}");
}

/// The service verifies when asked, once per canonical cache entry: later
/// submissions and asks reuse the cached verdict, the counters in
/// `cache_stats` track entries (not submissions or asks), and an entry
/// nobody asked about is never verified.
#[test]
fn service_verifies_once_per_canonical_plan() {
    let g = gen::preferential_attachment(48, 4, 3).degree_ordered();
    let expected = Engine::new(EngineConfig::default().with_grid(grid()))
        .run(&g, &catalog::paper_query(6))
        .unwrap()
        .count;
    let svc = MatchService::new(
        Arc::new(g),
        ServiceConfig::new(EngineConfig::default().with_grid(grid()).with_compile(true))
            .with_workers(2),
    );
    let q = catalog::paper_query(6);
    let v = svc
        .verification(&q)
        .expect("the resident graph is immutable");
    assert!(v.is_clean());
    assert!(v.cert.spill_free);
    for _ in 0..3 {
        let out = svc.submit(&q, QueryOptions::default()).unwrap();
        assert_eq!(out.count, expected, "verified service run drifted");
        assert_eq!(out.spill_events, 0, "certified-clean plan spilled");
    }
    // Asking for the certificate again must not re-verify.
    let again = svc.verification(&q).expect("still resident");
    assert!(
        Arc::ptr_eq(&v, &again),
        "the verdict lives on the cache entry"
    );
    let stats = svc.cache_stats();
    assert_eq!(stats.verified, 1, "one canonical entry → one verification");
    assert_eq!(stats.diagnostics, 0, "clean plan raised diagnostics");
    // A different canonical plan is verified only once somebody asks.
    let _ = svc
        .submit(&catalog::triangle(), QueryOptions::default())
        .unwrap();
    assert_eq!(svc.cache_stats().verified, 1);
    let _ = svc.verification(&catalog::triangle());
    assert_eq!(svc.cache_stats().verified, 2);
}

/// A service nobody asks verifies nothing and its stats stay zero; a
/// delta-enabled one declines the ask — its topology moves under the
/// certificate.
#[test]
fn service_verification_is_opt_in() {
    let g = Arc::new(gen::preferential_attachment(48, 4, 3).degree_ordered());
    let cfg = ServiceConfig::new(EngineConfig::default().with_grid(grid())).with_workers(1);
    let svc = MatchService::new(Arc::clone(&g), cfg);
    svc.submit(&catalog::triangle(), QueryOptions::default())
        .unwrap();
    let stats = svc.cache_stats();
    assert_eq!(stats.verified, 0);
    assert_eq!(stats.diagnostics, 0);

    let mut dynamic = cfg;
    dynamic.engine = dynamic.engine.with_delta(true);
    let svc = MatchService::new(g, dynamic);
    assert!(svc.verification(&catalog::triangle()).is_none());
    assert_eq!(svc.cache_stats().verified, 0);
}

/// The peak bound weighs each set by the slots it owns, not by `unroll`: a
/// deep set may own more. A hub adjacent to everyone beside a 7-clique
/// (Δ = 39, every other degree ≤ 7), the tailed triangle without code
/// motion at unroll 2: `N(v0)` and `N(v0) ∩ N(v1)` belong to stealable
/// levels and own one slot each, which leaves the tail's candidates —
/// `N(v0)` again, recomputed at the last level for every member of the
/// batch — four. With the hub at `v0` that is five copies of its list live
/// at once: more than `Σ bound × unroll` allows, within `Σ bound × slots`.
#[test]
fn a_set_wider_than_unroll_is_bounded_by_its_own_slots() {
    let n = 40;
    let hub = (1..n).map(|v| (0, v));
    let clique = (1..8).flat_map(|a| (a + 1..8).map(move |b| (a, b)));
    let g = graph_from_edges(n as usize, &hub.chain(clique).collect::<Vec<_>>());
    let mut cfg = EngineConfig::default()
        .with_unroll(2)
        .with_grid(GridConfig {
            num_blocks: 1,
            warps_per_block: 1,
            shared_mem_per_block: 100 * 1024,
        });
    (cfg.code_motion, cfg.local_steal, cfg.global_steal) = (false, false, false);
    let engine = Engine::new(cfg);
    let q = catalog::tailed_triangle();
    let plan = engine.compile(&q);
    let table = engine.slot_table(&plan);
    assert_eq!(table.widths(), [1, 1, 4]);
    assert_eq!((table.total(), table.budget()), (6, 6));
    let v = engine.verify(&g, &plan);
    assert!(v.is_clean());
    let uniform: u64 = v.cert.set_bounds.iter().map(|&b| 2 * b as u64).sum();
    let bound = v.cert.peak_cells(&table);
    // The launch audits its own peak against `bound` (debug builds).
    let out = launch_verified(&engine, &g, &plan, &v, None).unwrap();
    assert_eq!(out.count, reference::count(&g, &q, RefOptions::default()));
    assert!(
        uniform < out.peak_slab_cells && out.peak_slab_cells <= bound,
        "uniform {uniform}, peak {}, bound {bound}",
        out.peak_slab_cells
    );
}

/// An attached verdict needs no knob: the launch packs its arenas to the
/// certificate's per-set bounds — strictly fewer slab cells than the
/// uniform geometry — and stays spill-free on the exact count. The warm
/// slot is only the window: it hands back the arenas the launch ran on.
#[test]
fn capacity_hints_shape_the_arena() {
    // K5 cascade on a skewed graph: deeper sets certify well below Δ.
    let g = gen::rmat(6, 4, 11).degree_ordered();
    let q = catalog::paper_query(8);
    let want = reference::count(&g, &q, RefOptions::default());
    let engine = Engine::new(EngineConfig::default().with_grid(grid()));
    let plan = engine.compile(&q);
    let verdict = engine.verify(&g, &plan);
    assert!(verdict.cert.spill_free);
    let cells_after = |attached: Option<&Verification>| {
        let slot = WarmSlot::new(grid()).unwrap();
        let out = match attached {
            Some(v) => launch_verified(&engine, &g, &plan, v, Some(&slot)),
            None => engine.run_plan_warm(&g, &plan, &slot),
        }
        .unwrap();
        assert_eq!(out.count, want);
        assert_eq!(out.spill_events, 0);
        assert!(out.peak_slab_cells <= verdict.cert.peak_cells(&engine.slot_table(&plan)));
        let arena = slot
            .arenas()
            .checkout()
            .expect("the launch parked its arenas");
        arena.slab_cells()
    };
    let uniform = cells_after(None);
    let hinted = cells_after(Some(&verdict));
    assert!(
        hinted < uniform,
        "hinted arena has {hinted} slab cells, uniform {uniform}: the hints were dropped"
    );
}

/// A verdict computed for a *different*, denser graph still shapes the
/// slabs (clamped to this graph's capacity): lists may spill to the heap,
/// the count may not move.
#[test]
fn a_verdict_for_another_graph_never_miscounts() {
    let g = gen::rmat(6, 4, 11).degree_ordered();
    let denser = gen::rmat(7, 8, 11).degree_ordered();
    assert!(denser.max_degree() > g.max_degree());
    let engine = Engine::new(EngineConfig::default().with_grid(grid()));
    for q in [catalog::paper_query(6), catalog::paper_query(8)] {
        let plan = engine.compile(&q);
        let foreign = engine.verify(&denser, &plan);
        assert!(
            foreign.footprint_caps().is_some(),
            "{}: the foreign certificate shapes nothing, the leg is vacuous",
            q.name()
        );
        let out = launch_verified(&engine, &g, &plan, &foreign, None).unwrap();
        assert_eq!(
            out.count,
            reference::count(&g, &q, RefOptions::default()),
            "{}",
            q.name()
        );
    }
}
