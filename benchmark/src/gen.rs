//! Inputs. An [`Instance`] is what a workload measures and is the same for
//! every seed: the fixture graph, the catalog queries, the net edge batches.
//! A [`Presentation`] is how `--seed` shows that instance to the program:
//! order and orientation of the fixture's edge lines, the order of the
//! queries inside an op, vertex relabelings of submitted patterns, op order
//! and orientation inside a batch. The parsed graph, the plans and the net
//! batches — and therefore every work counter — do not depend on the seed.

use crate::spec::Workload;
use stmatch_graph::builder::graph_from_edges;
use stmatch_graph::{gen, EdgeOp, Graph, VertexId};
use stmatch_pattern::{catalog, Pattern};
use stmatch_testkit::rng::{Rng, SmallRng};

type Edge = (VertexId, VertexId);

/// Edge ops of one tick's batch: as many deletes of present edges as inserts
/// of absent universe edges, so size and skew of the resident graph never
/// drift.
pub const TICK_DELETES: usize = 64;

/// Seed of the instances themselves. Not `--seed`.
const INSTANCE_SEED: u64 = 0x57a7_10a2;

/// One tick's net batch, each list sorted with `u < v`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetBatch {
    pub deletes: Vec<Edge>,
    pub inserts: Vec<Edge>,
}

pub struct Instance {
    pub workload: &'static Workload,
    /// The fixture, a fixed point of `Graph::degree_ordered`, so vertex ids
    /// in batches stay valid after the program orders the parsed graph.
    pub graph: Graph,
    /// Paper query numbers of the query slots.
    pub query_ids: Vec<usize>,
    /// Catalog form of each slot.
    pub queries: Vec<Pattern>,
    /// The watched pattern (`resident_tick` only).
    pub watch: Option<Pattern>,
    /// Net batch of every op (`resident_tick` only, else empty).
    pub batches: Vec<NetBatch>,
    /// The universe edges present and absent before the first batch
    /// (`resident_tick` only, else empty).
    pub present: Vec<Edge>,
    pub absent: Vec<Edge>,
}

/// One op as the program receives it.
pub struct Op {
    /// The tick's edge ops (`resident_tick` only).
    pub batch: Vec<EdgeOp>,
    /// Query slots in submission order.
    pub order: Vec<usize>,
    /// The pattern submitted for each entry of `order` (`resident_tick`
    /// only; the engine workloads run the plans compiled at cold start).
    pub patterns: Vec<Pattern>,
}

pub struct Presentation {
    /// The fixture as `.lg` text.
    pub lg: Vec<u8>,
    /// Op 0 belongs to the cold start; timed and counted ops follow.
    pub ops: Vec<Op>,
    /// FNV-1a over every generated line, pattern and batch.
    pub digest: u64,
}

/// Permutes vertex ids so the graph is a fixed point of `degree_ordered`,
/// and maps `extra` edges along.
fn degree_ordered_with(g: &Graph, extra: &mut [Edge]) -> Graph {
    let n = g.num_vertices();
    let mut order: Vec<VertexId> = g.vertices().collect();
    order.sort_by(|&a, &b| g.degree(b).cmp(&g.degree(a)).then(a.cmp(&b)));
    let mut rank = vec![0 as VertexId; n];
    for (new, &old) in order.iter().enumerate() {
        rank[old as usize] = new as VertexId;
    }
    let map = |(u, v): Edge| {
        let (a, b) = (rank[u as usize], rank[v as usize]);
        (a.min(b), a.max(b))
    };
    let edges: Vec<Edge> = g.edges().map(map).collect();
    for e in extra.iter_mut() {
        *e = map(*e);
    }
    let out = graph_from_edges(n, &edges);
    assert!(
        out.degree_ordered() == out,
        "fixture must be a fixed point of Graph::degree_ordered"
    );
    out
}

/// The stationary exchange: every batch deletes `per_side` distinct present
/// edges and inserts as many distinct absent ones, drawn uniformly.
pub fn exchange(
    present: &mut [Edge],
    absent: &mut [Edge],
    per_side: usize,
    batches: usize,
    rng: &mut SmallRng,
) -> Vec<NetBatch> {
    assert!(present.len() >= per_side && absent.len() >= per_side);
    (0..batches)
        .map(|_| {
            // Partial Fisher–Yates: the first `per_side` slots of each list
            // become this batch's draw, then trade places.
            for i in 0..per_side {
                let j = rng.gen_range(i..present.len());
                present.swap(i, j);
                let j = rng.gen_range(i..absent.len());
                absent.swap(i, j);
            }
            let mut deletes = present[..per_side].to_vec();
            let mut inserts = absent[..per_side].to_vec();
            present[..per_side].swap_with_slice(&mut absent[..per_side]);
            deletes.sort_unstable();
            inserts.sort_unstable();
            NetBatch { deletes, inserts }
        })
        .collect()
}

/// A resident instance: a random half of `universe`'s edges present at the
/// start, a triangle watcher, and `ops` net batches of `per_side` deletes and
/// as many inserts, followed by q2, q4 and q6.
pub fn ticking(
    workload: &'static Workload,
    universe: &Graph,
    name: &str,
    per_side: usize,
    ops: usize,
) -> Instance {
    let mut edges: Vec<Edge> = universe.edges().collect();
    let mut rng = SmallRng::seed_from_u64(INSTANCE_SEED);
    rng.shuffle(&mut edges);
    let half = edges.len() / 2;
    let start = graph_from_edges(universe.num_vertices(), &edges[..half]);
    let graph = degree_ordered_with(&start, &mut edges).with_name(name);
    let (present, absent) = (edges[..half].to_vec(), edges[half..].to_vec());
    let (mut p, mut a) = (present.clone(), absent.clone());
    let batches = exchange(&mut p, &mut a, per_side, ops, &mut rng);
    let ids = [2, 4, 6];
    Instance {
        workload,
        graph,
        query_ids: ids.to_vec(),
        queries: ids.iter().map(|&i| catalog::paper_query(i)).collect(),
        watch: Some(catalog::triangle()),
        batches,
        present,
        absent,
    }
}

pub fn instance(workload: &'static Workload, ops: usize) -> Instance {
    let catalog_forms =
        |ids: &[usize]| -> Vec<Pattern> { ids.iter().map(|&i| catalog::paper_query(i)).collect() };
    // An engine workload: a fixture and the queries run on it.
    let rounds = |g: Graph, name: &str, ids: &[usize]| Instance {
        workload,
        graph: degree_ordered_with(&g, &mut []).with_name(name),
        query_ids: ids.to_vec(),
        queries: catalog_forms(ids),
        watch: None,
        batches: Vec::new(),
        present: Vec::new(),
        absent: Vec::new(),
    };
    match workload.name {
        "census_sparse" => rounds(
            gen::preferential_attachment(420, 6, 7),
            "PA(420,6,7)",
            &[1, 3, 6],
        ),
        "clique_dense" => rounds(gen::erdos_renyi(192, 7200, 5), "ER(192,7200,5)", &[8]),
        // The edge universe is PA(1024,8,9); a fixed random half of it is
        // present at the start.
        "resident_tick" => ticking(
            workload,
            &gen::preferential_attachment(1024, 8, 9),
            "PA(1024,8,9)/2",
            TICK_DELETES,
            ops,
        ),
        other => unreachable!("unknown workload {other}"),
    }
}

/// `p` with vertex `u` renamed `perm[u]`.
pub fn relabel(p: &Pattern, perm: &[usize]) -> Pattern {
    let n = p.size();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if p.has_edge(u, v) {
                edges.push((perm[u], perm[v]));
            }
        }
    }
    Pattern::new(n, &edges).with_name(p.name())
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

pub fn present(inst: &Instance, seed: u64, ops: usize) -> Presentation {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut fnv = Fnv::new();

    // The fixture: vertex lines in id order (they fix the vertex count),
    // edge lines shuffled, each in a random orientation.
    let g = &inst.graph;
    let mut lg = format!("t # {}\n", g.name()).into_bytes();
    for v in g.vertices() {
        lg.extend_from_slice(format!("v {v} {}\n", g.label(v)).as_bytes());
    }
    let mut edges: Vec<Edge> = g.edges().collect();
    rng.shuffle(&mut edges);
    for (u, v) in edges {
        let (a, b) = if rng.gen::<bool>() { (u, v) } else { (v, u) };
        lg.extend_from_slice(format!("e {a} {b}\n").as_bytes());
    }
    fnv.bytes(&lg);

    let slots = inst.queries.len();
    let ticking = inst.watch.is_some();
    assert!(!ticking || inst.batches.len() >= ops);
    let ops: Vec<Op> = (0..ops)
        .map(|i| {
            let mut batch = Vec::new();
            if ticking {
                let net = &inst.batches[i];
                let del = net.deletes.iter().map(|&e| (e, false));
                let ins = net.inserts.iter().map(|&e| (e, true));
                let mut flat: Vec<(Edge, bool)> = del.chain(ins).collect();
                rng.shuffle(&mut flat);
                for ((u, v), insert) in flat {
                    let (u, v) = if rng.gen::<bool>() { (u, v) } else { (v, u) };
                    batch.push(EdgeOp { u, v, insert });
                    fnv.word((u as u64) << 33 | (v as u64) << 1 | insert as u64);
                }
            }
            let mut order: Vec<usize> = (0..slots).collect();
            rng.shuffle(&mut order);
            let mut patterns = Vec::new();
            for &slot in &order {
                fnv.word(slot as u64);
                if !ticking {
                    continue;
                }
                let q = &inst.queries[slot];
                let mut perm: Vec<usize> = (0..q.size()).collect();
                // Op 0 submits the catalog forms: the first submission of a
                // canonical form is the one the service compiles and caches,
                // so this keeps the cached plans the same for every seed.
                if i > 0 {
                    rng.shuffle(&mut perm);
                }
                let p = relabel(q, &perm);
                for u in 0..p.size() {
                    fnv.word(p.adj_mask(u) as u64);
                }
                patterns.push(p);
            }
            Op {
                batch,
                order,
                patterns,
            }
        })
        .collect();
    Presentation {
        lg,
        ops,
        digest: fnv.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use std::collections::BTreeSet;
    use stmatch_graph::io;
    use stmatch_pattern::iso;

    #[test]
    fn exchange_is_stationary_and_well_formed() {
        let universe = gen::preferential_attachment(200, 5, 3);
        let mut edges: Vec<Edge> = universe.edges().collect();
        let all: BTreeSet<Edge> = edges.iter().copied().collect();
        let half = edges.len() / 2;
        let (present, absent) = edges.split_at_mut(half);
        let mut live: BTreeSet<Edge> = present.iter().copied().collect();
        let size = live.len();
        let mut rng = SmallRng::seed_from_u64(1);
        for b in exchange(present, absent, TICK_DELETES, 50, &mut rng) {
            assert_eq!(b.deletes.len(), TICK_DELETES);
            assert_eq!(b.inserts.len(), TICK_DELETES);
            let named: BTreeSet<Edge> = b.deletes.iter().chain(&b.inserts).copied().collect();
            assert_eq!(named.len(), 2 * TICK_DELETES, "in-batch duplicate");
            for &(u, v) in &named {
                assert!(u < v, "self-loop or unnormalized edge {u}-{v}");
                assert!(all.contains(&(u, v)), "edge outside the universe");
            }
            for e in &b.deletes {
                assert!(live.remove(e), "no-op delete of an absent edge");
            }
            for e in &b.inserts {
                assert!(live.insert(*e), "no-op insert of a present edge");
            }
            assert_eq!(live.len(), size, "edge count drifted");
        }
        let after: BTreeSet<Edge> = present.iter().copied().collect();
        assert_eq!(after, live, "present list out of step with the batches");
    }

    #[test]
    fn seed_changes_presentation_and_digest_but_not_the_instance() {
        for w in &spec::WORKLOADS {
            let inst = instance(w, 6);
            let a = present(&inst, 1, 6);
            let a2 = present(&inst, 1, 6);
            let b = present(&inst, 2, 6);
            assert_eq!(a.digest, a2.digest, "{}: equal seeds, equal digest", w.name);
            assert_eq!(a.lg, a2.lg);
            assert_ne!(
                a.digest, b.digest,
                "{}: another seed, another digest",
                w.name
            );
            assert_ne!(a.lg, b.lg);
            for p in [&a, &b] {
                let parsed = io::read_lg(&p.lg[..]).unwrap().degree_ordered();
                let want: Vec<Edge> = inst.graph.edges().collect();
                assert_eq!(parsed.edges().collect::<Vec<_>>(), want);
                assert_eq!(parsed.num_vertices(), inst.graph.num_vertices());
                for (i, op) in p.ops.iter().enumerate() {
                    let mut slots = op.order.clone();
                    slots.sort_unstable();
                    assert_eq!(slots, (0..inst.queries.len()).collect::<Vec<_>>());
                    for (&slot, pat) in op.order.iter().zip(&op.patterns) {
                        assert!(iso::isomorphic(pat, &inst.queries[slot]));
                        if i == 0 {
                            assert_eq!(
                                iso::canonical_form(pat),
                                iso::canonical_form(&inst.queries[slot])
                            );
                            assert_eq!(pat.adj_mask(0), inst.queries[slot].adj_mask(0));
                        }
                    }
                    if inst.watch.is_some() {
                        // Whatever the order and orientation, the batch nets
                        // to the instance's batch.
                        let norm = |insert: bool| {
                            let mut v: Vec<Edge> = op
                                .batch
                                .iter()
                                .filter(|o| o.insert == insert)
                                .map(|o| (o.u.min(o.v), o.u.max(o.v)))
                                .collect();
                            v.sort_unstable();
                            v
                        };
                        assert_eq!(norm(false), inst.batches[i].deletes);
                        assert_eq!(norm(true), inst.batches[i].inserts);
                    }
                }
            }
        }
    }

    #[test]
    fn relabel_keeps_the_isomorphism_class() {
        let q = catalog::paper_query(3);
        let r = relabel(&q, &[4, 2, 0, 1, 3]);
        assert!(iso::isomorphic(&q, &r));
        assert_ne!(q.adj_mask(0), r.adj_mask(0));
    }
}
