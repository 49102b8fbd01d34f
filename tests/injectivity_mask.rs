//! The lowered injectivity mask (`LevelMeta::inj`) is sound, checked with
//! hard asserts so the property holds in release builds too — the kernel's
//! own cross-check of the last-level closed form is a `debug_assert_eq!`.
//!
//! On random small graphs, for every paper query under every combination of
//! symmetry breaking and induced matching:
//!
//! * the engine's count — validity probes and the last-level closed form
//!   both driven by the mask — equals the brute-force oracle's;
//! * a scalar interpreter of the plan's own stream, which probes *every*
//!   earlier position, never finds a matched vertex inside a candidate
//!   list's symmetry window at a position the mask exempts (and reaches the
//!   oracle's count itself, so the interpreter is the stream's semantics).

use stmatch_baselines::reference::{self, RefOptions};
use stmatch_core::{Engine, EngineConfig};
use stmatch_gpusim::GridConfig;
use stmatch_graph::{gen, Graph, VertexId};
use stmatch_pattern::bytecode::{OpCode, PlanBytecode};
use stmatch_pattern::symmetry::Bound;
use stmatch_pattern::{catalog, MatchPlan, OpKind, PlanOptions};
use stmatch_testkit::prop::forall;
use stmatch_testkit::rng::Rng;

/// Depth-first scalar interpretation of a lowered stream (unlabeled plans).
struct Walk<'a> {
    g: &'a Graph,
    bc: &'a PlanBytecode,
    sets: Vec<Vec<VertexId>>,
    matched: Vec<VertexId>,
    /// Per level: the positions whose matched vertex turned up among the
    /// candidates that pass the level's symmetry bounds.
    collided: Vec<u8>,
    count: u64,
}

impl Walk<'_> {
    fn run(g: &Graph, bc: &PlanBytecode) -> (Vec<u8>, u64) {
        let mut w = Walk {
            g,
            bc,
            sets: vec![Vec::new(); bc.num_sets()],
            matched: Vec::new(),
            collided: vec![0; bc.num_levels()],
            count: 0,
        };
        for v in g.vertices() {
            w.matched.push(v);
            w.descend(1);
            w.matched.pop();
        }
        (w.collided, w.count)
    }

    fn descend(&mut self, l: usize) {
        let mut chain = Vec::new();
        for ins in self.bc.instrs_at(l) {
            assert!(ins.mask.is_all(), "unlabeled plans only");
            let nb = self.g.neighbors(self.matched[ins.pos as usize]);
            let combine = |input: &[VertexId]| -> Vec<VertexId> {
                let want = ins.kind == OpKind::Intersect;
                let keep = |v: &&VertexId| nb.binary_search(v).is_ok() == want;
                input.iter().filter(keep).copied().collect()
            };
            let value = match ins.code {
                OpCode::MaterializeBase | OpCode::BeginChain => nb.to_vec(),
                OpCode::ApplyFromSet => combine(&self.sets[ins.dep as usize]),
                OpCode::ChainStep => combine(&chain),
            };
            if ins.last {
                self.sets[ins.dst as usize] = value;
            } else {
                chain = value;
            }
        }
        let cand = self.sets[self.bc.candidate(l).0].clone();
        for v in cand {
            let in_window = self.bc.bounds(l).iter().all(|&(pos, b)| match b {
                Bound::Less => v < self.matched[pos],
                Bound::Greater => v > self.matched[pos],
            });
            if !in_window {
                continue;
            }
            if let Some(pos) = self.matched.iter().position(|&m| m == v) {
                self.collided[l] |= 1 << pos;
            } else if l + 1 == self.bc.num_levels() {
                self.count += 1;
            } else {
                self.matched.push(v);
                self.descend(l + 1);
                self.matched.pop();
            }
        }
    }
}

#[test]
fn inj_covers_every_collision_and_counts_stay_exact() {
    forall(
        "inj_covers_every_collision_and_counts_stay_exact",
        |rng| {
            (
                rng.gen_range(5usize..13),
                rng.gen_range(1usize..4),
                rng.gen_range(0u64..1000),
            )
        },
        |&(n, density, seed)| {
            let n = n.clamp(5, 12);
            let g = gen::erdos_renyi(n, n * density.clamp(1, 3), seed);
            for q in 1..=24 {
                let p = catalog::paper_query(q);
                for (symmetry_breaking, induced) in
                    [(true, false), (false, false), (true, true), (false, true)]
                {
                    let leg = format!("q{q} symmetry={symmetry_breaking} induced={induced}");
                    let plan = MatchPlan::compile(
                        &p,
                        PlanOptions {
                            induced,
                            symmetry_breaking,
                            ..PlanOptions::default()
                        },
                    );
                    let want = reference::count(
                        &g,
                        &p,
                        RefOptions {
                            induced,
                            symmetry_breaking,
                        },
                    );
                    let mut cfg = EngineConfig::default().with_grid(GridConfig {
                        num_blocks: 1,
                        warps_per_block: 2,
                        shared_mem_per_block: 100 * 1024,
                    });
                    cfg.induced = induced;
                    cfg.symmetry_breaking = symmetry_breaking;
                    let got = Engine::new(cfg).run_plan(&g, &plan).unwrap().count;
                    if got != want {
                        return Err(format!("{leg}: engine {got} != oracle {want}"));
                    }
                    let bc = plan.bytecode();
                    let (collided, walked) = Walk::run(&g, bc);
                    if walked != want {
                        return Err(format!("{leg}: stream walk {walked} != oracle {want}"));
                    }
                    for (l, &seen) in collided.iter().enumerate() {
                        let inj = bc.level_meta(l).inj;
                        if seen & !inj != 0 {
                            return Err(format!(
                                "{leg}: level {l} candidates hit positions {seen:#b}, \
                                 mask probes only {inj:#b}"
                            ));
                        }
                    }
                }
            }
            Ok(())
        },
    );
}
