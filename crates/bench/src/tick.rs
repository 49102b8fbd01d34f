//! The `resident_tick` instance outside `benchmark/`: the graph and the
//! exchange batches `check plans`, `check counters`, `check delta` and
//! `probe --delta` rebuild with the benchmark's generator.

use stmatch_graph::builder::graph_from_edges;
use stmatch_graph::{gen, EdgeOp, Graph, VertexId};
use stmatch_testkit::rng::{Rng, SmallRng};

/// Seed of the instance: the benchmark's `INSTANCE_SEED`.
pub const SEED: u64 = 0x57a7_10a2;

/// Deletes (and as many inserts) per batch, as in the benchmark's tick.
pub const PER_SIDE: usize = 64;

type Edge = (VertexId, VertexId);

/// The benchmark's `resident_tick` instance, rebuilt with its generator:
/// a seeded half of PA(1024, 8, 9)'s edges, renamed so the graph is
/// degree-ordered, with its present and absent edges in those names.
pub fn fixture(rng: &mut SmallRng) -> (Graph, Vec<Edge>, Vec<Edge>) {
    let universe = gen::preferential_attachment(1024, 8, 9);
    let mut edges: Vec<Edge> = universe.edges().collect();
    rng.shuffle(&mut edges);
    let half = edges.len() / 2;
    let start = graph_from_edges(universe.num_vertices(), &edges[..half]);
    // Graph::degree_ordered's renaming, applied to both halves.
    let mut order: Vec<VertexId> = start.vertices().collect();
    order.sort_by(|&x, &y| start.degree(y).cmp(&start.degree(x)).then(x.cmp(&y)));
    let mut rank = vec![0 as VertexId; order.len()];
    for (new, &old) in order.iter().enumerate() {
        rank[old as usize] = new as VertexId;
    }
    let rename = |&(u, v): &Edge| {
        let (x, y) = (rank[u as usize], rank[v as usize]);
        (x.min(y), x.max(y))
    };
    let present: Vec<Edge> = edges[..half].iter().map(rename).collect();
    let absent: Vec<Edge> = edges[half..].iter().map(rename).collect();
    let graph = graph_from_edges(universe.num_vertices(), &present);
    assert!(
        graph.degree_ordered() == graph,
        "the renamed fixture is degree-ordered"
    );
    (graph, present, absent)
}

/// One exchange batch: [`PER_SIDE`] uniformly drawn present edges deleted
/// and as many absent ones inserted; the two lists trade them.
pub fn exchange(present: &mut [Edge], absent: &mut [Edge], rng: &mut SmallRng) -> Vec<EdgeOp> {
    for i in 0..PER_SIDE {
        let j = rng.gen_range(i..present.len());
        present.swap(i, j);
        let j = rng.gen_range(i..absent.len());
        absent.swap(i, j);
    }
    let deletes = present[..PER_SIDE]
        .iter()
        .map(|&(u, v)| EdgeOp::delete(u, v));
    let inserts = absent[..PER_SIDE]
        .iter()
        .map(|&(u, v)| EdgeOp::insert(u, v));
    let ops = deletes.chain(inserts).collect();
    present[..PER_SIDE].swap_with_slice(&mut absent[..PER_SIDE]);
    ops
}
