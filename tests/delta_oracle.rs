//! Incremental-matching oracle: on seeded update streams, cumulative
//! [`MatchDelta`]s must reconcile with full recomputation *after every
//! batch* — the exactness contract of DESIGN.md §4k — and each side of a
//! delta must equal, on its own, the matches of the pre/post graph that use
//! an update edge. Runs the paper's full q1..q24 catalog on both golden
//! fixture graphs (the same seeded generators `tests/golden_counts.rs`
//! pins), plus adversarial batch shapes and two shrinking properties: one
//! over arbitrary graphs and streams, one over random connected patterns,
//! with symmetry breaking on (subgraph counts) and off (embedding counts)
//! and under a seeded fault plan.

use std::collections::BTreeSet;
use stmatch_core::{Engine, EngineConfig, FaultPlan, LaunchError, MatchDelta};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, AppliedBatch, DeltaOverlay, EdgeOp, Graph};
use stmatch_pattern::{catalog, symmetry, Pattern};
use stmatch_testkit::prop::forall;
use stmatch_testkit::rng::{Rng, SplitMix64};

fn grid() -> GridConfig {
    GridConfig {
        num_blocks: 2,
        warps_per_block: 2,
        shared_mem_per_block: 100 * 1024,
    }
}

fn engine() -> Engine {
    Engine::new(EngineConfig::default().with_grid(grid()).with_delta(true))
}

/// The two golden fixture graphs (same derivation as
/// `tests/golden_counts.rs` — if those shapes change, these streams
/// change with them).
/// `q`'s delta under `batch` on `e`: its anchored plans, counted on both
/// sides.
fn delta_of(
    e: &Engine,
    pre: &Graph,
    post: &Graph,
    batch: &AppliedBatch,
    q: &Pattern,
) -> Result<MatchDelta, LaunchError> {
    Ok(e.compile_delta(q).count(e, pre, post, batch)?.0)
}

fn unlabeled_graph() -> Graph {
    gen::preferential_attachment(48, 4, 3).degree_ordered()
}

fn labeled_graph() -> Graph {
    gen::assign_random_labels(&gen::rmat(6, 4, 11).degree_ordered(), 10, 2022)
}

/// One seeded batch of `ops` random edge toggles against the overlay's
/// current state: delete when present, insert when absent. Ops on the
/// same pair may repeat within a batch (exercising in-batch
/// cancellation); the overlay's net lists are what the delta runs on.
fn seeded_batch(overlay: &DeltaOverlay, rng: &mut SplitMix64, ops: usize) -> Vec<EdgeOp> {
    let n = overlay.num_vertices() as u32;
    let mut out: Vec<EdgeOp> = Vec::with_capacity(ops);
    while out.len() < ops {
        let u = (rng.next_u64() % n as u64) as u32;
        let v = (rng.next_u64() % n as u64) as u32;
        if u == v {
            continue;
        }
        // Toggle against the overlay *plus* the ops already in this
        // batch, so repeats flip back and forth deterministically.
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

/// Independent oracle for one side of a delta: the matches of `q` in `g`
/// (full enumeration) that map some pattern edge onto one of `edges`.
fn matches_using(e: &Engine, g: &Graph, q: &Pattern, edges: &[(u32, u32)]) -> u64 {
    let edges: BTreeSet<(u32, u32)> = edges.iter().copied().collect();
    let all = e.enumerate_plan(g, &e.compile(q)).expect("enumeration");
    let uses_update_edge = |emb: &Vec<u32>| {
        (0..q.size()).any(|a| {
            (a + 1..q.size()).any(|b| {
                q.has_edge(a, b) && edges.contains(&(emb[a].min(emb[b]), emb[a].max(emb[b])))
            })
        })
    };
    all.embeddings
        .iter()
        .filter(|m| uses_update_edge(m))
        .count() as u64
}

/// What `delta` must be, side by side: `removed` from `pre` and the net
/// deletes, `added` from `post` and the net inserts.
fn assert_sides_exact(
    e: &Engine,
    q: &Pattern,
    (pre, post): (&Graph, &Graph),
    batch: &AppliedBatch,
    delta: MatchDelta,
) {
    let want = MatchDelta {
        added: matches_using(e, post, q, &batch.inserts),
        removed: matches_using(e, pre, q, &batch.deletes),
    };
    assert_eq!(delta, want, "query {} under batch {batch:?}", q.name());
}

/// Drives `batches` seeded batches over `base`, reconciling every
/// query's running count (seeded from a full run on the base graph)
/// against full recomputation on the post-batch snapshot after each
/// step. Compacts mid-stream to prove folding is invisible.
fn check_stream(base: Graph, queries: &[Pattern], seed: u64, batches: usize, ops: usize) {
    let e = engine();
    let plans: Vec<_> = queries.iter().map(|q| e.compile_delta(q)).collect();
    let mut running: Vec<i64> = queries
        .iter()
        .map(|q| e.run(&base, q).expect("base count").count as i64)
        .collect();
    let mut overlay = DeltaOverlay::new(base);
    let mut rng = SplitMix64::new(seed);
    for step in 0..batches {
        let pre = overlay.snapshot();
        let ops = seeded_batch(&overlay, &mut rng, ops);
        let batch = overlay.apply(&ops);
        if step == batches / 2 {
            // Mid-stream compaction: the folded CSR and the patched view
            // must be indistinguishable to both full and delta runs.
            overlay.compact();
        }
        let post = overlay.snapshot();
        for (i, q) in queries.iter().enumerate() {
            let (delta, _) = plans[i].count(&e, &pre, &post, &batch).expect("delta run");
            running[i] += delta.net();
            let full = e.run(&post, q).expect("recompute").count;
            assert_eq!(
                running[i],
                full as i64,
                "query {} diverged at step {step} (batch {batch:?}, delta {delta:?})",
                q.name(),
            );
            // The net can hide two errors that cancel; each side has its
            // own oracle. (Enumeration materializes every match, so only
            // where the recount says that stays small.)
            if full <= 200_000 {
                assert_sides_exact(&e, q, (&pre, &post), &batch, delta);
            }
        }
    }
}

#[test]
fn update_stream_reconciles_q1_to_q24_on_the_unlabeled_fixture() {
    let queries: Vec<Pattern> = (1..=24).map(catalog::paper_query).collect();
    check_stream(unlabeled_graph(), &queries, 0xd17a_0001, 3, 6);
}

#[test]
fn update_stream_reconciles_q1_to_q24_on_the_labeled_fixture() {
    let queries: Vec<Pattern> = (1..=24)
        .map(|i| catalog::paper_query(i).with_random_labels(10, i as u64))
        .collect();
    check_stream(labeled_graph(), &queries, 0xd17a_0002, 3, 6);
}

/// Delete-only stream: strip a hub vertex bare one batch at a time. The
/// added side must stay zero the whole way.
#[test]
fn delete_only_stream_reports_no_additions() {
    let base = unlabeled_graph();
    let hub = 0u32; // degree-ordered: vertex 0 is the heaviest hub
    let victims: Vec<u32> = base.neighbors(hub).to_vec();
    let e = engine();
    let q = catalog::triangle();
    let mut running = e.run(&base, &q).unwrap().count as i64;
    let mut overlay = DeltaOverlay::new(base);
    for chunk in victims.chunks(4) {
        let pre = overlay.snapshot();
        let ops: Vec<EdgeOp> = chunk.iter().map(|&v| EdgeOp::delete(hub, v)).collect();
        let batch = overlay.apply(&ops);
        let post = overlay.snapshot();
        let delta = delta_of(&e, &pre, &post, &batch, &q).unwrap();
        assert_eq!(delta.added, 0, "deletes cannot add edge-induced matches");
        running += delta.net();
        assert_eq!(running, e.run(&post, &q).unwrap().count as i64);
    }
    assert_eq!(overlay.degree(hub), 0, "the hub was stripped bare");
}

/// One hub in 16 deletes and 16 inserts, among updates elsewhere: the hub
/// names 16 stages per side, so a range stolen (or requeued from a dead
/// warp) below level 0 is only exact if it carries its stage along. Run on
/// a 1×4 grid with local stealing on, clean and under a seeded warp death
/// mid-launch.
#[test]
fn star_heavy_batch_is_exact_under_stealing_and_warp_death() {
    let base = gen::preferential_attachment(96, 4, 9).degree_ordered();
    let hub = 0u32;
    let mut ops: Vec<EdgeOp> = base.neighbors(hub)[..16]
        .iter()
        .map(|&v| EdgeOp::delete(hub, v))
        .collect();
    ops.extend(
        (1..96u32)
            .filter(|&v| !base.has_edge(hub, v))
            .take(16)
            .map(|v| EdgeOp::insert(hub, v)),
    );
    let mut overlay = DeltaOverlay::new(base);
    ops.extend(seeded_batch(&overlay, &mut SplitMix64::new(0x57a2), 12));
    let pre = overlay.snapshot();
    let batch = overlay.apply(&ops);
    let post = overlay.snapshot();
    let hub_edges = |side: &[(u32, u32)]| side.iter().filter(|e| e.0 == hub || e.1 == hub).count();
    assert!(hub_edges(&batch.deletes) >= 16 && hub_edges(&batch.inserts) >= 16);

    let mut cfg = EngineConfig::default().with_grid(grid()).with_delta(true);
    (cfg.grid.num_blocks, cfg.grid.warps_per_block) = (1, 4);
    assert!(
        cfg.local_steal && cfg.stop_level >= 2,
        "level 1 is stealable"
    );
    for q in [catalog::triangle(), catalog::diamond(), catalog::path(4)] {
        for seed in [None, Some(0x1d), Some(0xabc)] {
            let mut e = Engine::new(cfg);
            if let Some(seed) = seed {
                e = e.with_fault_plan(FaultPlan::seeded(seed, 4, 1, 0));
            }
            let delta = delta_of(&e, &pre, &post, &batch, &q).expect("delta");
            assert_sides_exact(&engine(), &q, (&pre, &post), &batch, delta);
        }
    }
}

/// Deletes that share an endpoint, on a one-warp grid: the stages of one
/// side run back to back on one kernel, each on its own view,
/// so the shared endpoint is the same matched vertex with a different
/// neighbor row from one stage to the next — and wherever an anchored plan
/// re-reads that row as a lifted intersection input, the kernel's marker has
/// to follow the row, not the vertex.
#[test]
fn deletes_sharing_an_endpoint_give_one_vertex_a_row_per_stage() {
    let base = gen::preferential_attachment(96, 4, 9).degree_ordered();
    let hub = 0u32;
    let ops: Vec<EdgeOp> = base.neighbors(hub)[..6]
        .iter()
        .map(|&v| EdgeOp::delete(hub, v))
        .collect();
    let mut overlay = DeltaOverlay::new(base);
    let pre = overlay.snapshot();
    let batch = overlay.apply(&ops);
    let post = overlay.snapshot();
    assert_eq!(batch.deletes.len(), 6);
    assert!(batch.deletes.iter().all(|e| e.0 == hub || e.1 == hub));
    let mut cfg = EngineConfig::default().with_grid(grid());
    (cfg.grid.num_blocks, cfg.grid.warps_per_block) = (1, 1);
    let e = Engine::new(cfg);
    for q in [
        catalog::triangle(),
        catalog::diamond(),
        catalog::paper_query(3),
        catalog::paper_query(6),
    ] {
        let plans = e.compile_delta(&q);
        assert!(
            plans.plans().any(|p| p.bytecode().marked() != 0),
            "{}: no anchored plan re-reads a lifted neighbor list",
            q.name()
        );
        let (delta, _) = plans.count(&e, &pre, &post, &batch).expect("delta");
        assert_eq!(delta.added, 0);
        assert_sides_exact(&e, &q, (&pre, &post), &batch, delta);
    }
}

/// StopLevel 1 makes level 1 deep, so a pinned level 1 is claimed by the
/// deep claim — under C5's, C6's and the tailed C4's plans; the triangle's
/// level 1 is counted in its fused tail instead.
#[test]
fn a_deep_pinned_level_1_is_exact() {
    let mut cfg = EngineConfig::default();
    (cfg.stop_level, cfg.detect_level) = (1, 1);
    let e = Engine::new(cfg);
    let mut overlay = DeltaOverlay::new(unlabeled_graph());
    let pre = overlay.snapshot();
    let batch = overlay.apply(&seeded_batch(&overlay, &mut SplitMix64::new(0x5701), 24));
    let post = overlay.snapshot();
    for q in [2, 4, 10]
        .map(catalog::paper_query)
        .into_iter()
        .chain([catalog::triangle()])
    {
        let delta = delta_of(&e, &pre, &post, &batch, &q).expect("delta");
        assert_sides_exact(&engine(), &q, (&pre, &post), &batch, delta);
    }
}

/// `Engine::launch` runs a delta launch on the engine's own grid, like any
/// launch, but never under the engine's deadline: a partial anchored count
/// would be a wrong delta, not a lower bound.
#[test]
fn delta_launches_run_on_the_engine_grid_without_a_deadline() {
    let cfg = EngineConfig::default().with_grid(grid());
    let mut overlay = DeltaOverlay::new(unlabeled_graph());
    let pre = overlay.snapshot();
    let batch = overlay.apply(&seeded_batch(&overlay, &mut SplitMix64::new(5), 32));
    let post = overlay.snapshot();
    // q9's launches run past the kernel's periodic deadline poll.
    let q = catalog::paper_query(9);
    let untimed = Engine::new(EngineConfig::default());
    let want = delta_of(&untimed, &pre, &post, &batch, &q).unwrap();
    assert!(want.added > 0 && want.removed > 0, "{want:?}");
    let timed = Engine::new(cfg).with_timeout(std::time::Duration::from_nanos(1));
    assert_eq!(delta_of(&timed, &pre, &post, &batch, &q).unwrap(), want);
    let plans = timed.compile_delta(&q);
    let (got, metrics) = plans.count(&Engine::new(cfg), &pre, &post, &batch).unwrap();
    assert_eq!(got, want);
    assert_eq!(metrics.kernel_launches, 2 * plans.num_plans() as u64);
    // Launches merge warp by warp: each ran the engine grid's four warps.
    assert_eq!(metrics.warps.len(), cfg.grid.total_warps());
}

/// In-batch cancellation: inserting and deleting the same edge within
/// one batch (in both orders, alongside a real update) nets to exactly
/// the real update's delta.
#[test]
fn insert_then_delete_same_edge_within_a_batch_cancels() {
    let base = unlabeled_graph();
    let absent: Vec<(u32, u32)> = (0..48u32)
        .flat_map(|u| (u + 1..48).map(move |v| (u, v)))
        .filter(|&(u, v)| !base.has_edge(u, v))
        .take(2)
        .collect();
    let (x, y) = absent[0];
    let (a, b) = absent[1];
    let e = engine();
    let q = catalog::triangle();
    let before = e.run(&base, &q).unwrap().count as i64;
    let mut overlay = DeltaOverlay::new(base);
    let pre = overlay.snapshot();
    let batch = overlay.apply(&[
        EdgeOp::insert(x, y), // cancels below
        EdgeOp::insert(a, b), // the real update
        EdgeOp::delete(x, y),
    ]);
    assert_eq!(batch.inserts, vec![(a.min(b), a.max(b))]);
    assert!(batch.deletes.is_empty());
    let post = overlay.snapshot();
    let delta = delta_of(&e, &pre, &post, &batch, &q).unwrap();
    assert_eq!(delta.removed, 0);
    assert_eq!(
        before + delta.net(),
        e.run(&post, &q).unwrap().count as i64,
        "only the surviving insert contributes"
    );
}

/// Shrinking property: on arbitrary Erdős–Rényi graphs and seeded
/// streams, a two-batch stream reconciles for a rotating catalog
/// pattern. Failures shrink to a minimal `(n, density, seed, pattern)`
/// tuple with a `TESTKIT_SEED=...` reproduce line.
#[test]
fn prop_random_streams_reconcile() {
    forall(
        "delta stream reconciles with recompute",
        |rng| {
            (
                rng.gen_range(6usize..32),
                rng.gen_range(1usize..4),
                rng.gen_range(0u64..1000),
                rng.gen_range(0usize..6),
            )
        },
        |&(n, density, seed, qidx)| {
            let n = n.clamp(4, 32);
            let base = gen::erdos_renyi(n, n * density.clamp(1, 3), seed);
            let q = match qidx % 6 {
                0 => catalog::triangle(),
                1 => catalog::wedge(),
                2 => catalog::square(),
                3 => catalog::diamond(),
                4 => catalog::k4(),
                _ => catalog::tailed_triangle(),
            };
            let e = engine();
            let plans = e.compile_delta(&q);
            let mut running = e.run(&base, &q).map_err(|e| e.to_string())?.count as i64;
            let mut overlay = DeltaOverlay::new(base);
            let mut rng = SplitMix64::new(seed ^ 0xde17a);
            for _ in 0..2 {
                let pre = overlay.snapshot();
                let ops = seeded_batch(&overlay, &mut rng, 5);
                let batch = overlay.apply(&ops);
                let post = overlay.snapshot();
                let (delta, _) = plans
                    .count(&e, &pre, &post, &batch)
                    .map_err(|e| e.to_string())?;
                running += delta.net();
                let full = e.run(&post, &q).map_err(|e| e.to_string())?.count;
                if running != full as i64 {
                    return Err(format!(
                        "query {} diverged: running {running} vs full {full} \
                         after batch {batch:?} (delta {delta:?})",
                        q.name()
                    ));
                }
            }
            Ok(())
        },
    );
}

/// The per-batch cost must scale with the batch, not the graph: a
/// single-edge delta on a 4x larger graph does strictly less simulated
/// work than one full recount on the small graph. Stealing is off, so
/// every instruction total repeats.
#[test]
fn delta_work_scales_with_batch_not_graph() {
    let small = unlabeled_graph();
    let big = gen::preferential_attachment(192, 4, 9).degree_ordered();
    let q = catalog::triangle();
    let mut cfg = EngineConfig::default().with_grid(grid()).with_delta(true);
    (cfg.local_steal, cfg.global_steal) = (false, false);
    let e = Engine::new(cfg);
    let instr = |g: &Graph| e.run(g, &q).unwrap().metrics.total().simt_instructions;
    let full_small = instr(&small);
    let absent = (0..192u32)
        .flat_map(|u| (u + 1..192).map(move |v| (u, v)))
        .find(|&(u, v)| !big.has_edge(u, v))
        .unwrap();
    let mut overlay = DeltaOverlay::new(big);
    let pre = overlay.snapshot();
    let batch = overlay.apply(&[EdgeOp::insert(absent.0, absent.1)]);
    let post = overlay.snapshot();
    let (delta, metrics) = e.compile_delta(&q).count(&e, &pre, &post, &batch).unwrap();
    let delta_instr = metrics.total().simt_instructions;
    assert!(
        instr(&post) > full_small,
        "sanity: the big graph costs more to recount"
    );
    assert!(
        delta_instr < full_small,
        "a single-edge delta ({delta_instr} instr) must cost less than one \
         small-graph recount ({full_small} instr)"
    );
    // The delta of a single inserted edge touches two endpoints'
    // neighborhoods; its added count is bounded by the smaller endpoint
    // degree, far below the graph's triangle count.
    assert!(delta.added <= post.degree(absent.0).min(post.degree(absent.1)) as u64);
    assert_eq!(delta.removed, 0);
}

/// A connected pattern of `k` vertices drawn from `seed`: a random spanning
/// tree plus each other pair with probability 1/3, its vertices labeled
/// from two labels when `labeled`. Covers orbits of mixed sizes, and
/// anchors whose stabilizer does and does not swap their endpoints.
fn random_pattern(k: usize, seed: u64, labeled: bool) -> Pattern {
    let mut rng = SplitMix64::new(seed);
    let mut edges: Vec<(usize, usize)> = (1..k)
        .map(|v| ((rng.next_u64() % v as u64) as usize, v))
        .collect();
    for v in 1..k {
        for u in 0..v {
            if !edges.contains(&(u, v)) && rng.next_u64().is_multiple_of(3) {
                edges.push((u, v));
            }
        }
    }
    let p = Pattern::new(k, &edges).with_name(format!("random{k}-{seed:#x}"));
    if labeled {
        p.with_random_labels(2, seed)
    } else {
        p
    }
}

/// `ops` distinct net updates on `g`: deletes of present edges alternating
/// with inserts of absent pairs.
fn mixed_batch(g: &Graph, rng: &mut SplitMix64, ops: usize) -> Vec<EdgeOp> {
    let n = g.num_vertices() as u64;
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(ops);
    while out.len() < ops {
        let u = (rng.next_u64() % n) as u32;
        let delete = out.len() % 2 == 0;
        let v = if delete {
            if g.degree(u) == 0 {
                continue;
            }
            g.neighbors(u)[(rng.next_u64() % g.degree(u) as u64) as usize]
        } else {
            (rng.next_u64() % n) as u32
        };
        if u == v || g.has_edge(u, v) != delete || !seen.insert((u.min(v), u.max(v))) {
            continue;
        }
        out.push(if delete {
            EdgeOp::delete(u, v)
        } else {
            EdgeOp::insert(u, v)
        });
    }
    out
}

/// Shrinking property over random connected patterns of 2–6 vertices,
/// labeled and unlabeled, and a mixed batch on a small PA graph: each side
/// of the delta equals the matches using an update edge, counted by full
/// enumeration — subgraphs with symmetry breaking on, embeddings (subgraphs
/// × |Aut|) with it off, and subgraphs again on a one-block four-warp grid
/// under a seeded warp death. A failure shrinks to a minimal
/// `(k, pattern seed, labeled, graph seed)` and prints its `reproduce:`
/// line.
#[test]
fn prop_each_side_counts_the_matches_using_its_updates() {
    forall(
        "each delta side equals the matches using an update edge",
        |rng| {
            (
                rng.gen_range(2usize..=6),
                rng.gen_range(0u64..1 << 20),
                rng.gen::<bool>(),
                rng.gen_range(0u64..1 << 20),
            )
        },
        |&(k, pattern_seed, labeled, graph_seed)| {
            let q = random_pattern(k.clamp(2, 6), pattern_seed, labeled);
            let mut g = gen::preferential_attachment(40, 3, graph_seed).degree_ordered();
            if labeled {
                g = gen::assign_random_labels(&g, 2, graph_seed);
            }
            let ops = mixed_batch(&g, &mut SplitMix64::new(graph_seed ^ 0xba7c), 10);
            let mut overlay = DeltaOverlay::new(g);
            let pre = overlay.snapshot();
            let batch = overlay.apply(&ops);
            let post = overlay.snapshot();

            let subgraphs = engine();
            let mut cfg = *subgraphs.config();
            cfg.symmetry_breaking = false;
            let embeddings = Engine::new(cfg);
            let mut cfg = *subgraphs.config();
            (cfg.grid.num_blocks, cfg.grid.warps_per_block) = (1, 4);
            let faulty = Engine::new(cfg).with_fault_plan(FaultPlan::seeded(graph_seed, 4, 1, 0));
            let want = |e: &Engine| MatchDelta {
                added: matches_using(e, &post, &q, &batch.inserts),
                removed: matches_using(e, &pre, &q, &batch.deletes),
            };
            let (want_sub, want_emb) = (want(&subgraphs), want(&embeddings));
            let aut = symmetry::automorphism_count(&q) as u64;
            if (want_emb.added, want_emb.removed) != (want_sub.added * aut, want_sub.removed * aut)
            {
                return Err(format!(
                    "oracle: embeddings {want_emb:?} are not subgraphs {want_sub:?} x |Aut| {aut}"
                ));
            }
            for (mode, e, want) in [
                ("symmetry on", &subgraphs, want_sub),
                ("symmetry off", &embeddings, want_emb),
                ("FAULT_SEED", &faulty, want_sub),
            ] {
                let got =
                    delta_of(e, &pre, &post, &batch, &q).map_err(|err| format!("{mode}: {err}"))?;
                if got != want {
                    return Err(format!(
                        "{mode}: {} (|Aut| {aut}) delta {got:?}, matches using the batch \
                         {want:?}, batch {batch:?}",
                        q.name()
                    ));
                }
            }
            Ok(())
        },
    );
}
