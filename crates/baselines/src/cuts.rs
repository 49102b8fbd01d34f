//! A cuTS-like subgraph-centric engine on the simulated GPU.
//!
//! cuTS [30] is the state-of-the-art subgraph-isomorphism system the paper
//! compares against. Its defining properties, all reproduced here:
//!
//! * **Subgraph-centric, level-synchronous**: partial embeddings are
//!   materialized and extended one pattern vertex at a time, with a kernel
//!   launch (and grid-wide synchronization) per extension step.
//! * **Trie-compressed storage**: embeddings are stored as
//!   `(parent, vertex)` nodes per level, sharing prefixes — cuTS's compact
//!   trie data structure.
//! * **Hybrid BFS/DFS**: the outer-loop roots are processed in batches
//!   sized to the device-memory budget; a batch that still overflows is
//!   halved and retried, and a single root that overflows aborts with OOM
//!   (the '×' entries of Table II).
//! * **No loop hierarchy**: because the computation is driven by
//!   individual subgraphs, loop-invariant code motion is impossible — each
//!   extension re-evaluates the whole constraint chain of its level
//!   (compiled with `code_motion = false`).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use stmatch_core::setops::{self, SetOpTuning};
use stmatch_gpusim::{Grid, GridConfig, GridMetrics, MemoryBudget, OutOfMemory, Warp};
use stmatch_graph::{Graph, VertexId};
use stmatch_pattern::plan::Base;
use stmatch_pattern::symmetry::Bound;
use stmatch_pattern::{LabelMask, MatchPlan, Pattern, PlanOptions};

/// Simulated cost of one kernel launch, in SIMT instructions. A real launch
/// plus grid synchronization costs ~5 µs of fixed overhead; at ~1 GHz warp
/// issue that is a few thousand instruction slots.
pub const LAUNCH_OVERHEAD_CYCLES: u64 = 4096;

/// Configuration of the cuTS-like engine.
#[derive(Clone, Copy, Debug)]
pub struct CutsConfig {
    /// Grid geometry per kernel launch.
    pub grid: GridConfig,
    /// Device-memory budget for the materialized trie, in bytes.
    pub memory_limit: usize,
    /// Vertex-induced vs edge-induced (cuTS itself is edge-induced only).
    pub induced: bool,
    /// Count each subgraph once.
    pub symmetry_breaking: bool,
    /// Initial number of roots per hybrid batch.
    pub batch_roots: usize,
    /// Optional wall-clock budget; passing it cancels the run cooperatively
    /// and flags the outcome `timed_out`.
    pub timeout: Option<std::time::Duration>,
}

impl Default for CutsConfig {
    fn default() -> Self {
        CutsConfig {
            grid: GridConfig::default(),
            memory_limit: 1 << 30,
            induced: false,
            symmetry_breaking: true,
            batch_roots: 4096,
            timeout: None,
        }
    }
}

/// Result of a cuTS-like run.
#[derive(Clone, Debug)]
pub struct CutsOutcome {
    /// Matches found.
    pub count: u64,
    /// Aggregated metrics over all kernel launches.
    pub metrics: GridMetrics,
    /// Simulated time: Σ over launches of (slowest warp's instructions +
    /// launch overhead).
    pub simulated_cycles: u64,
    /// Peak device memory used by the embedding trie.
    pub peak_memory: usize,
    /// True when the run hit its wall-clock budget (partial count).
    pub timed_out: bool,
}

impl CutsOutcome {
    /// Wall-clock milliseconds across all launches.
    pub fn elapsed_ms(&self) -> f64 {
        self.metrics.elapsed_nanos as f64 / 1e6
    }
}

/// One trie node: an embedding extension `(parent at previous level, v)`.
#[derive(Clone, Copy, Debug)]
struct TrieNode {
    parent: u32,
    vertex: VertexId,
}

const NODE_BYTES: usize = std::mem::size_of::<TrieNode>();

/// Runs `pattern` over `graph`, or fails with device OOM.
pub fn run(graph: &Graph, pattern: &Pattern, cfg: CutsConfig) -> Result<CutsOutcome, OutOfMemory> {
    let plan = MatchPlan::compile(
        pattern,
        PlanOptions {
            induced: cfg.induced,
            // Subgraph-centric systems lose the loop hierarchy: no motion.
            code_motion: false,
            symmetry_breaking: cfg.symmetry_breaking,
        },
    );
    run_plan(graph, &plan, cfg)
}

/// Runs a pre-compiled plan. The plan should be compiled without code
/// motion to model cuTS faithfully (see [`run`]).
pub fn run_plan(
    graph: &Graph,
    plan: &MatchPlan,
    cfg: CutsConfig,
) -> Result<CutsOutcome, OutOfMemory> {
    let start = Instant::now();
    let deadline = cfg.timeout.map(|t| start + t);
    let mut timed_out = false;
    let memory = MemoryBudget::new(cfg.memory_limit);
    let grid = Grid::new(cfg.grid).expect("non-empty grid");
    let mut agg = GridMetrics::default();
    let mut sim_cycles = 0u64;
    let mut count = 0u64;

    // Level-0 roots, label-filtered.
    let roots: Vec<VertexId> = graph
        .vertices()
        .filter(|&v| plan.level_label(0).is_none_or(|l| graph.label(v) == l))
        .collect();
    if plan.num_levels() == 1 {
        let elapsed = start.elapsed().as_nanos() as u64;
        return Ok(CutsOutcome {
            count: roots.len() as u64,
            metrics: GridMetrics {
                warps: Vec::new(),
                elapsed_nanos: elapsed,
                ..GridMetrics::default()
            },
            simulated_cycles: 0,
            peak_memory: 0,
            timed_out: false,
        });
    }

    // Hybrid BFS/DFS: batches of roots, halved on OOM.
    let mut next_root = 0usize;
    let mut batch_size = cfg.batch_roots.max(1);
    while next_root < roots.len() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            timed_out = true;
            break;
        }
        let batch_end = (next_root + batch_size).min(roots.len());
        match run_batch(
            graph,
            plan,
            &grid,
            &memory,
            &roots[next_root..batch_end],
            &mut agg,
            &mut sim_cycles,
            deadline,
        ) {
            Ok(batch_count) => {
                count += batch_count;
                next_root = batch_end;
            }
            Err(oom) => {
                if batch_size == 1 {
                    return Err(oom);
                }
                batch_size = (batch_size / 2).max(1);
            }
        }
    }
    // A batch whose launch was truncated by the deadline has produced a
    // partial count; the clock being past the deadline is the witness.
    timed_out |= deadline.is_some_and(|d| Instant::now() >= d);
    agg.elapsed_nanos = start.elapsed().as_nanos() as u64;
    Ok(CutsOutcome {
        count,
        metrics: agg,
        simulated_cycles: sim_cycles,
        peak_memory: memory.peak(),
        timed_out,
    })
}

/// Extends one root batch level-synchronously to completion. Frees its trie
/// memory before returning (hybrid DFS behaviour).
#[allow(clippy::too_many_arguments)] // one call site; the args are the launch context
fn run_batch(
    graph: &Graph,
    plan: &MatchPlan,
    grid: &Grid,
    memory: &MemoryBudget,
    roots: &[VertexId],
    agg: &mut GridMetrics,
    sim_cycles: &mut u64,
    deadline: Option<Instant>,
) -> Result<u64, OutOfMemory> {
    let k = plan.num_levels();
    // levels[l] = trie nodes at level l; level 0 parents are u32::MAX.
    let mut levels: Vec<Vec<TrieNode>> = Vec::with_capacity(k - 1);
    let mut allocated = 0usize;
    memory.try_alloc(roots.len() * NODE_BYTES)?;
    allocated += roots.len() * NODE_BYTES;
    levels.push(
        roots
            .iter()
            .map(|&v| TrieNode {
                parent: u32::MAX,
                vertex: v,
            })
            .collect(),
    );

    let mut total = 0u64;
    for l in 1..k {
        let frontier = levels.last().expect("frontier exists");
        if frontier.is_empty() {
            break;
        }
        let last = l == k - 1;
        // One kernel launch: warps claim frontier chunks and extend them.
        let cursor = AtomicUsize::new(0);
        let matches = AtomicU64::new(0);
        let results: Vec<std::sync::Mutex<Vec<TrieNode>>> = (0..grid.config().total_warps())
            .map(|_| std::sync::Mutex::new(Vec::new()))
            .collect();
        let oom_hit = AtomicU64::new(0);
        let levels_ref = &levels;
        let metrics = grid.launch(|warp| {
            let t = Instant::now();
            let frontier = levels_ref.last().expect("frontier");
            let mut out: Vec<TrieNode> = Vec::new();
            let mut prefix = vec![0 as VertexId; k];
            let mut scratch = [Vec::new(), Vec::new()];
            'work: loop {
                let at = cursor.fetch_add(32, Ordering::Relaxed);
                if at >= frontier.len()
                    || oom_hit.load(Ordering::Relaxed) != 0
                    || deadline.is_some_and(|d| Instant::now() >= d)
                {
                    break;
                }
                let chunk = &frontier[at..(at + 32).min(frontier.len())];
                for (i, node) in chunk.iter().enumerate() {
                    let node_idx = (at + i) as u32;
                    // Recover the matched prefix by walking parents — the
                    // per-subgraph cost of losing the loop hierarchy.
                    walk_prefix(levels_ref, l - 1, *node, &mut prefix);
                    warp.simt_for(l, |_| {});
                    extend_one(graph, plan, warp, l, &prefix, last, &mut scratch);
                    let residual = plan.residual_label_check(l);
                    if last {
                        // The list was produced by this step's own stream:
                        // the validity predicate rides in its lanes (the
                        // engine's last-level rule, DESIGN.md §4c).
                        let mut c = 0u64;
                        for &v in &scratch[0] {
                            if residual.is_some_and(|lbl| graph.label(v) != lbl) {
                                continue;
                            }
                            if valid(&prefix, plan.bounds(l), l, v) {
                                c += 1;
                            }
                        }
                        matches.fetch_add(c, Ordering::Relaxed);
                    } else {
                        // Validity pass over the materialized survivors.
                        warp.simt_for(scratch[0].len(), |_| {});
                        let before = out.len();
                        for &v in &scratch[0] {
                            if residual.is_some_and(|lbl| graph.label(v) != lbl) {
                                continue;
                            }
                            if valid(&prefix, plan.bounds(l), l, v) {
                                out.push(TrieNode {
                                    parent: node_idx,
                                    vertex: v,
                                });
                            }
                        }
                        // Materialization traffic: two words per trie node
                        // stored to global memory — the cost the
                        // stack-based design avoids.
                        warp.simt_for(2 * (out.len() - before), |_| {});
                        // Device allocation in page-sized bursts.
                        if out.len() >= 1024 {
                            if memory.try_alloc(out.len() * NODE_BYTES).is_err() {
                                oom_hit.store(1, Ordering::Relaxed);
                                break 'work;
                            }
                            results[warp.id()]
                                .lock()
                                .expect("own-warp result lock")
                                .append(&mut out);
                        }
                    }
                }
            }
            if !out.is_empty() {
                if memory.try_alloc(out.len() * NODE_BYTES).is_err() {
                    oom_hit.store(1, Ordering::Relaxed);
                } else {
                    results[warp.id()]
                        .lock()
                        .expect("own-warp result lock")
                        .append(&mut out);
                }
            }
            warp.metrics_mut().busy_nanos += t.elapsed().as_nanos() as u64;
        });
        *sim_cycles += metrics
            .warps
            .iter()
            .map(|w| w.simt_instructions)
            .max()
            .unwrap_or(0)
            + LAUNCH_OVERHEAD_CYCLES;
        agg.merge(&metrics);
        total += matches.load(Ordering::Relaxed);

        let produced: usize = results
            .iter()
            .map(|r| r.lock().expect("own-warp result lock").len() * NODE_BYTES)
            .sum();
        if oom_hit.load(Ordering::Relaxed) != 0 {
            // Free what this batch allocated and report OOM upward.
            memory.free(allocated + produced);
            return Err(OutOfMemory {
                requested: NODE_BYTES * 1024,
                in_use: memory.in_use(),
                limit: memory.limit(),
            });
        }
        if last {
            break;
        }
        allocated += produced;
        let mut next: Vec<TrieNode> = Vec::new();
        for r in &results {
            next.append(&mut r.lock().expect("own-warp result lock"));
        }
        levels.push(next);
    }
    memory.free(allocated);
    Ok(total)
}

/// Walks trie parents to recover the matched prefix for `node` at `level`.
fn walk_prefix(levels: &[Vec<TrieNode>], level: usize, node: TrieNode, prefix: &mut [VertexId]) {
    prefix[level] = node.vertex;
    let mut cur = node;
    let mut l = level;
    while l > 0 {
        let parent = levels[l - 1][cur.parent as usize];
        prefix[l - 1] = parent.vertex;
        cur = parent;
        l -= 1;
    }
}

/// Evaluates the candidate chain of `level` for one embedding (the full
/// chain each time: no code motion). Result lands in `scratch[0]`; when it
/// is only `counted` (the last step), its final operation issues no
/// ballots, as the engine's last level does (DESIGN.md §4c).
fn extend_one(
    graph: &Graph,
    plan: &MatchPlan,
    warp: &mut Warp,
    level: usize,
    prefix: &[VertexId],
    counted: bool,
    scratch: &mut [Vec<VertexId>; 2],
) {
    let cid = plan.candidate_set(level).expect("level >= 1") as usize;
    let def = &plan.sets()[cid];
    let Base::Neighbors(pos) = def.base else {
        panic!("cuTS-like engine requires a code-motion-free plan");
    };
    let src = graph.neighbors(prefix[pos as usize]);
    let base_mask = if def.ops.is_empty() {
        def.mask
    } else {
        LabelMask::ALL
    };
    {
        let (a, _b) = scratch.split_at_mut(1);
        let counted = counted && def.ops.is_empty();
        setops::materialize_base_into(warp, graph, &[src], base_mask, counted, &mut a[..1]);
    }
    for (i, op) in def.ops.iter().enumerate() {
        let last = i + 1 == def.ops.len();
        let mask = if last { def.mask } else { LabelMask::ALL };
        let operand = graph.neighbors(prefix[op.pos as usize]);
        let (a, b) = scratch.split_at_mut(1);
        {
            let input: &[VertexId] = &a[0];
            setops::apply_op_into(
                warp,
                graph,
                &[input],
                &[operand],
                op.kind,
                mask,
                SetOpTuning::default(),
                counted && last,
                &mut b[..1],
            );
        }
        scratch.swap(0, 1);
    }
}

/// Injectivity + symmetry bounds.
#[inline]
fn valid(prefix: &[VertexId], bounds: &[(usize, Bound)], level: usize, v: VertexId) -> bool {
    for &m in &prefix[..level] {
        if m == v {
            return false;
        }
    }
    for &(pos, b) in bounds {
        let ok = match b {
            Bound::Less => v < prefix[pos],
            Bound::Greater => v > prefix[pos],
        };
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, RefOptions};
    use stmatch_graph::gen;
    use stmatch_pattern::catalog;

    fn cfg() -> CutsConfig {
        CutsConfig {
            grid: GridConfig {
                num_blocks: 2,
                warps_per_block: 2,
                shared_mem_per_block: 100 * 1024,
            },
            ..CutsConfig::default()
        }
    }

    #[test]
    fn triangles_in_k6() {
        let g = gen::complete(6);
        let out = run(&g, &catalog::triangle(), cfg()).unwrap();
        assert_eq!(out.count, 20);
        // Level-synchronous: one launch per extension step.
        assert_eq!(out.metrics.kernel_launches, 2);
    }

    #[test]
    fn agrees_with_oracle() {
        let g = gen::erdos_renyi(32, 110, 5);
        for i in [1, 4, 6, 8, 12, 16] {
            let q = catalog::paper_query(i);
            let want = reference::count(&g, &q, RefOptions::default());
            let got = run(&g, &q, cfg()).unwrap().count;
            assert_eq!(got, want, "q{i}");
        }
    }

    #[test]
    fn vertex_induced_agrees_with_oracle() {
        let g = gen::erdos_renyi(28, 90, 6);
        let q = catalog::paper_query(3);
        let want = reference::count(
            &g,
            &q,
            RefOptions {
                induced: true,
                symmetry_breaking: true,
            },
        );
        let mut c = cfg();
        c.induced = true;
        assert_eq!(run(&g, &q, c).unwrap().count, want);
    }

    #[test]
    fn tight_memory_fails_with_oom() {
        // Dense graph + tiny budget: the materialized trie cannot fit even
        // for a single root.
        let g = gen::complete(24);
        let mut c = cfg();
        c.memory_limit = 512;
        c.batch_roots = 64;
        match run(&g, &catalog::paper_query(8), c) {
            Err(oom) => assert_eq!(oom.limit, 512),
            Ok(out) => panic!("expected OOM, got count {}", out.count),
        }
    }

    #[test]
    fn hybrid_batching_survives_moderate_budgets() {
        // A budget too small for pure BFS but fine batch-by-batch.
        let g = gen::erdos_renyi(64, 512, 3);
        let q = catalog::paper_query(8); // K5
        let want = reference::count(&g, &q, RefOptions::default());
        let mut c = cfg();
        c.memory_limit = 64 * 1024;
        c.batch_roots = 8;
        let out = run(&g, &q, c).unwrap();
        assert_eq!(out.count, want);
        assert!(out.peak_memory <= 64 * 1024);
        // Hybrid mode costs extra launches compared to pure BFS.
        assert!(out.metrics.kernel_launches > 4);
    }

    #[test]
    fn launch_overhead_accumulates_in_sim_time() {
        let g = gen::erdos_renyi(40, 140, 9);
        let q = catalog::paper_query(1);
        let out = run(&g, &q, cfg()).unwrap();
        assert!(out.simulated_cycles >= out.metrics.kernel_launches * LAUNCH_OVERHEAD_CYCLES);
    }
}
