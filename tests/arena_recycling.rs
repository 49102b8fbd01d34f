//! Arenas belong to the engine: every launch checks its warps' stack arenas
//! out of the engine's one free-list and gives them back there, whatever
//! the route. The free-list is read through `Engine::arenas`, which exists
//! for tests like this one.

use stmatch_core::{Engine, EngineConfig, StagedBatch};
use stmatch_gpusim::{GridConfig, GridMetrics};
use stmatch_graph::{gen, DeltaOverlay, EdgeOp};
use stmatch_pattern::catalog;

/// One engine serves every route on its own arenas: a whole-graph run, an
/// enumeration and a delta batch on one 1 × 2 engine, and a 2-shard run on
/// another. Each matches a fresh engine's count and simulated counters
/// (steal-free, so they repeat exactly) and requeues no claim. A call
/// gives back every arena it took and builds one only when the list runs
/// dry, so the list never shrinks and never holds more than can be out at
/// once. A single-grid engine parks exactly its grid's warps after its
/// first call, one arena under each warp id, and every later call checks
/// out and parks those same arenas. The split run's shards overlap as the
/// scheduler has them, so its list holds between one and both shards'.
#[test]
fn one_engine_every_route() {
    let mut cfg = EngineConfig::default().with_grid(GridConfig {
        num_blocks: 1,
        warps_per_block: 2,
        ..GridConfig::default()
    });
    (cfg.local_steal, cfg.global_steal) = (false, false);
    let g = gen::preferential_attachment(200, 4, 3).degree_ordered();
    let q = catalog::paper_query(6);
    let mut overlay = DeltaOverlay::new(g.clone());
    let pre = overlay.snapshot();
    let absent = (1..200).filter(|&v| !g.has_edge(0, v)).take(4);
    let ops: Vec<_> = g
        .edges()
        .step_by(97)
        .take(4)
        .map(|(u, v)| EdgeOp::delete(u, v))
        .chain(absent.map(|v| EdgeOp::insert(0, v)))
        .collect();
    let batch = overlay.apply(&ops);
    let post = overlay.snapshot();
    assert!(!batch.inserts.is_empty() && !batch.deletes.is_empty());
    let staged = StagedBatch::new(&pre, &post, &batch);
    let plans = Engine::new(cfg).compile_delta(&q);

    type Route<'r> = &'r dyn Fn(&Engine) -> ([u64; 2], GridMetrics);
    let whole = |e: &Engine| {
        let out = e.run(&g, &q).unwrap();
        ([out.count, 0], out.metrics)
    };
    let listed = |e: &Engine| {
        let en = e.enumerate(&g, &q).unwrap();
        let listed = en.embeddings.len() as u64;
        ([en.outcome.count, listed], en.outcome.metrics)
    };
    let delta = |e: &Engine| {
        let (d, metrics) = plans.count(e, &staged).unwrap();
        ([d.added, d.removed], metrics)
    };
    let one_grid = Engine::new(cfg);
    let split = Engine::new(cfg.with_shards(2));
    let routes: [(&str, &Engine, Route, usize); 4] = [
        ("whole", &one_grid, &whole, 2),
        ("enumeration", &one_grid, &listed, 2),
        ("delta", &one_grid, &delta, 2),
        ("split", &split, &whole, 4),
    ];
    let sim = |m: &GridMetrics| {
        let t = m.total();
        (
            t.simt_instructions,
            t.active_lane_slots,
            t.issued_lane_slots,
        )
    };
    for (name, engine, route, out_at_once) in routes {
        let (want, fresh) = route(&Engine::new(*engine.config()));
        assert_ne!(want, [0, 0], "{name} counts nothing");
        for call in 0..3 {
            let before = engine.arenas().parked();
            let (got, metrics) = route(engine);
            let parked = engine.arenas().parked();
            assert_eq!(got, want, "{name} call {call}");
            assert_eq!(sim(&metrics), sim(&fresh), "{name} call {call}");
            assert_eq!(metrics.total().requeue_claims, 0, "{name} call {call}");
            if name == "split" {
                assert!(
                    (before.max(1)..=out_at_once).contains(&parked),
                    "{name} call {call}: {before} → {parked} parked"
                );
            } else {
                assert_eq!(parked, out_at_once, "{name} call {call}");
            }
        }
    }
    assert!(one_grid.arenas().parked() > 0 && split.arenas().parked() > 0);
}
