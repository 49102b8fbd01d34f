//! A GSI-like BFS join engine for labeled matching on the simulated GPU.
//!
//! GSI [32] extends partial subgraphs breadth-first with one kernel launch
//! per query vertex, storing *full embedding rows* in a prealloc-combine
//! table. Compared to the cuTS-like engine this means:
//!
//! * rows of `l` vertex ids per partial embedding (no trie compression),
//! * pure BFS — the whole frontier is materialized at every step, so
//!   dense or large graphs exhaust device memory (the paper: "GSI fails
//!   for all queries on MiCo, LiveJournal, Orkut and Friendster"),
//! * label filtering drives candidate generation (GSI targets labeled
//!   matching).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use stmatch_core::setops::{self, SetOpTuning};
use stmatch_gpusim::{Grid, GridConfig, GridMetrics, MemoryBudget, OutOfMemory, Warp};
use stmatch_graph::{Graph, VertexId};
use stmatch_pattern::plan::Base;
use stmatch_pattern::symmetry::Bound;
use stmatch_pattern::{LabelMask, MatchPlan, Pattern, PlanOptions};

/// Configuration of the GSI-like engine.
#[derive(Clone, Copy, Debug)]
pub struct GsiConfig {
    /// Grid geometry per kernel launch.
    pub grid: GridConfig,
    /// Device-memory budget for embedding tables, in bytes.
    pub memory_limit: usize,
    /// Vertex-induced vs edge-induced.
    pub induced: bool,
    /// Count each subgraph once.
    pub symmetry_breaking: bool,
    /// Optional wall-clock budget; passing it cancels the run cooperatively
    /// and flags the outcome `timed_out`.
    pub timeout: Option<std::time::Duration>,
}

impl Default for GsiConfig {
    fn default() -> Self {
        GsiConfig {
            grid: GridConfig::default(),
            memory_limit: 1 << 30,
            induced: false,
            symmetry_breaking: true,
            timeout: None,
        }
    }
}

/// Result of a GSI-like run.
#[derive(Clone, Debug)]
pub struct GsiOutcome {
    /// Matches found.
    pub count: u64,
    /// Aggregated metrics over all kernel launches.
    pub metrics: GridMetrics,
    /// Simulated time (Σ per-launch slowest warp + launch overhead).
    pub simulated_cycles: u64,
    /// Peak table memory.
    pub peak_memory: usize,
    /// True when the run hit its wall-clock budget (partial count).
    pub timed_out: bool,
}

impl GsiOutcome {
    /// Wall-clock milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.metrics.elapsed_nanos as f64 / 1e6
    }
}

/// Runs `pattern` over `graph`, or fails with device OOM.
pub fn run(graph: &Graph, pattern: &Pattern, cfg: GsiConfig) -> Result<GsiOutcome, OutOfMemory> {
    let plan = MatchPlan::compile(
        pattern,
        PlanOptions {
            induced: cfg.induced,
            code_motion: false, // subgraph-centric: no loop hierarchy
            symmetry_breaking: cfg.symmetry_breaking,
        },
    );
    run_plan(graph, &plan, cfg)
}

/// Runs a pre-compiled (code-motion-free) plan.
pub fn run_plan(
    graph: &Graph,
    plan: &MatchPlan,
    cfg: GsiConfig,
) -> Result<GsiOutcome, OutOfMemory> {
    let start = Instant::now();
    let deadline = cfg.timeout.map(|t| start + t);
    let mut timed_out = false;
    let memory = MemoryBudget::new(cfg.memory_limit);
    let grid = Grid::new(cfg.grid).expect("non-empty grid");
    let k = plan.num_levels();
    let mut agg = GridMetrics::default();
    let mut sim_cycles = 0u64;

    // Level-0 table: label-filtered roots, one row each.
    let roots: Vec<VertexId> = graph
        .vertices()
        .filter(|&v| plan.level_label(0).is_none_or(|l| graph.label(v) == l))
        .collect();
    if k == 1 {
        return Ok(GsiOutcome {
            count: roots.len() as u64,
            metrics: GridMetrics {
                warps: Vec::new(),
                elapsed_nanos: start.elapsed().as_nanos() as u64,
                ..GridMetrics::default()
            },
            simulated_cycles: 0,
            peak_memory: 0,
            timed_out: false,
        });
    }
    // table: row-major `width` (= level) vertices per embedding.
    let mut table: Vec<VertexId> = roots;
    memory.try_alloc(table.len() * 4)?;
    let mut table_bytes = table.len() * 4;

    let mut count = 0u64;
    for l in 1..k {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            timed_out = true;
            break;
        }
        let width = l;
        let rows = table.len() / width;
        if rows == 0 {
            break;
        }
        let last = l == k - 1;
        let cursor = AtomicUsize::new(0);
        let matches = AtomicU64::new(0);
        let oom_hit = AtomicU64::new(0);
        let results: Vec<std::sync::Mutex<Vec<VertexId>>> = (0..grid.config().total_warps())
            .map(|_| std::sync::Mutex::new(Vec::new()))
            .collect();
        let table_ref = &table;
        let metrics = grid.launch(|warp| {
            let t = Instant::now();
            let mut out: Vec<VertexId> = Vec::new();
            let mut scratch = [Vec::new(), Vec::new()];
            'work: loop {
                let at = cursor.fetch_add(32, Ordering::Relaxed);
                if at >= rows
                    || oom_hit.load(Ordering::Relaxed) != 0
                    || deadline.is_some_and(|d| Instant::now() >= d)
                {
                    break;
                }
                for row in at..(at + 32).min(rows) {
                    let prefix = &table_ref[row * width..(row + 1) * width];
                    // Row fetch from the global-memory table.
                    warp.simt_for(width, |_| {});
                    extend_row(graph, plan, warp, l, prefix, last, &mut scratch);
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
                            if valid(prefix, plan.bounds(l), v) {
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
                            if valid(prefix, plan.bounds(l), v) {
                                out.extend_from_slice(prefix);
                                out.push(v);
                            }
                        }
                        // Materialization traffic: a full row per emitted
                        // embedding stored to global memory.
                        warp.simt_for(out.len() - before, |_| {});
                        if out.len() >= 4096 {
                            if memory.try_alloc(out.len() * 4).is_err() {
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
                if memory.try_alloc(out.len() * 4).is_err() {
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
        sim_cycles += metrics
            .warps
            .iter()
            .map(|w| w.simt_instructions)
            .max()
            .unwrap_or(0)
            + crate::cuts::LAUNCH_OVERHEAD_CYCLES;
        agg.merge(&metrics);
        count += matches.load(Ordering::Relaxed);

        let produced: usize = results
            .iter()
            .map(|r| r.lock().expect("own-warp result lock").len() * 4)
            .sum();
        if oom_hit.load(Ordering::Relaxed) != 0 {
            memory.free(table_bytes + produced);
            return Err(OutOfMemory {
                requested: 4096 * 4,
                in_use: memory.in_use(),
                limit: memory.limit(),
            });
        }
        if last {
            break;
        }
        // Pure BFS: swap in the next table, free the previous one.
        let mut next: Vec<VertexId> = Vec::new();
        for r in &results {
            next.append(&mut r.lock().expect("own-warp result lock"));
        }
        memory.free(table_bytes);
        table_bytes = produced;
        table = next;
    }
    memory.free(table_bytes);
    // A level whose launch was truncated by the deadline produced a partial
    // frontier or count.
    timed_out |= deadline.is_some_and(|d| Instant::now() >= d);
    agg.elapsed_nanos = start.elapsed().as_nanos() as u64;
    Ok(GsiOutcome {
        count,
        metrics: agg,
        simulated_cycles: sim_cycles,
        peak_memory: memory.peak(),
        timed_out,
    })
}

/// Candidate generation for one row: full chain evaluation (no motion).
/// When the result is only `counted` (the last step), its final operation
/// issues no ballots, as the engine's last level does (DESIGN.md §4c).
fn extend_row(
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
        panic!("GSI-like engine requires a code-motion-free plan");
    };
    let src = graph.neighbors(prefix[pos as usize]);
    let base_mask = if def.ops.is_empty() {
        def.mask
    } else {
        LabelMask::ALL
    };
    {
        let (a, _) = scratch.split_at_mut(1);
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

/// Injectivity + symmetry bounds against a full row prefix.
#[inline]
fn valid(prefix: &[VertexId], bounds: &[(usize, Bound)], v: VertexId) -> bool {
    if prefix.contains(&v) {
        return false;
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

    fn cfg() -> GsiConfig {
        GsiConfig {
            grid: GridConfig {
                num_blocks: 2,
                warps_per_block: 2,
                shared_mem_per_block: 100 * 1024,
            },
            ..GsiConfig::default()
        }
    }

    #[test]
    fn labeled_triangles_agree_with_oracle() {
        let g = gen::assign_random_labels(&gen::erdos_renyi(40, 200, 4), 3, 5);
        let q = catalog::triangle().with_random_labels(3, 1);
        let want = reference::count(&g, &q, RefOptions::default());
        assert_eq!(run(&g, &q, cfg()).unwrap().count, want);
    }

    #[test]
    fn labeled_paper_queries_agree() {
        let g = gen::assign_random_labels(&gen::erdos_renyi(30, 100, 8), 4, 2);
        for i in [2, 5, 10, 16] {
            let q = catalog::paper_query(i).with_random_labels(4, i as u64);
            let want = reference::count(&g, &q, RefOptions::default());
            assert_eq!(run(&g, &q, cfg()).unwrap().count, want, "q{i}");
        }
    }

    #[test]
    fn unlabeled_also_works() {
        let g = gen::complete(7);
        assert_eq!(run(&g, &catalog::k4(), cfg()).unwrap().count, 35);
    }

    #[test]
    fn pure_bfs_ooms_where_hybrid_survives() {
        // Budget that the cuTS-like hybrid survives but pure BFS does not:
        // a dense ER graph whose triangle table alone exceeds the budget.
        let g = gen::erdos_renyi(128, 2048, 3);
        let q = catalog::paper_query(8);
        let mut gc = cfg();
        gc.memory_limit = 48 * 1024;
        assert!(run(&g, &q, gc).is_err(), "GSI-like must OOM at 48 KiB");
        let mut cc = crate::cuts::CutsConfig {
            memory_limit: 48 * 1024,
            batch_roots: 8,
            ..crate::cuts::CutsConfig::default()
        };
        cc.grid = gc.grid;
        assert!(crate::cuts::run(&g, &q, cc).is_ok());
    }

    #[test]
    fn launches_once_per_level() {
        let g = gen::erdos_renyi(30, 90, 2);
        let out = run(&g, &catalog::paper_query(8), cfg()).unwrap();
        assert_eq!(out.metrics.kernel_launches, 4); // K5: levels 1..=4
    }
}
