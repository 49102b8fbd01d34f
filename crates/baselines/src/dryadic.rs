//! A Dryadic-like CPU engine: nested-loop backtracking with loop-invariant
//! code motion, parallelized over outer-loop chunks.
//!
//! This is the workspace's stand-in for the paper's state-of-the-art CPU
//! comparator (Dryadic, [16]). It executes the same compiled
//! [`MatchPlan`] as the STMatch engine — including lifted intermediate
//! sets — but as plain recursive CPU code: scalar binary-search set
//! operations, no warps, no stealing (threads share an atomic chunk
//! counter over the outermost loop, Dryadic's first-two-level
//! distribution collapsed to level 0 + chunking).

use crate::extend::valid;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use stmatch_graph::{Graph, VertexId};
use stmatch_pattern::plan::Base;
use stmatch_pattern::{LabelMask, MatchPlan, OpKind, Pattern, PlanOptions};

/// Configuration for the CPU engine.
#[derive(Clone, Copy, Debug)]
pub struct DryadicConfig {
    /// Worker threads (the paper runs Dryadic with 64).
    pub threads: usize,
    /// Vertex-induced vs edge-induced.
    pub induced: bool,
    /// Loop-invariant code motion on/off (Dryadic's signature optimization).
    pub code_motion: bool,
    /// Count each subgraph once.
    pub symmetry_breaking: bool,
    /// Outer-loop chunk size per claim.
    pub chunk_size: usize,
    /// Optional wall-clock budget; the run is cancelled cooperatively when
    /// it passes and the outcome is flagged `timed_out`.
    pub timeout: Option<std::time::Duration>,
}

impl Default for DryadicConfig {
    fn default() -> Self {
        DryadicConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            induced: false,
            code_motion: true,
            symmetry_breaking: true,
            chunk_size: 16,
            timeout: None,
        }
    }
}

/// Result of a CPU run.
#[derive(Clone, Debug)]
pub struct DryadicOutcome {
    /// Matches found.
    pub count: u64,
    /// Wall-clock nanoseconds.
    pub elapsed_nanos: u64,
    /// Total set-op element operations (binary searches + copies) — the
    /// machine-independent work metric used for cross-system comparisons.
    pub element_ops: u64,
    /// True when the run hit its wall-clock budget (partial count).
    pub timed_out: bool,
}

impl DryadicOutcome {
    /// Wall-clock milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_nanos as f64 / 1e6
    }
}

/// Runs `pattern` over `graph` with the CPU engine.
pub fn run(graph: &Graph, pattern: &Pattern, cfg: DryadicConfig) -> DryadicOutcome {
    let plan = MatchPlan::compile(
        pattern,
        PlanOptions {
            induced: cfg.induced,
            code_motion: cfg.code_motion,
            symmetry_breaking: cfg.symmetry_breaking,
        },
    );
    run_plan(graph, &plan, cfg)
}

/// Runs a pre-compiled plan (the bench harness compiles once per query and
/// hands the same plan to every system).
pub fn run_plan(graph: &Graph, plan: &MatchPlan, cfg: DryadicConfig) -> DryadicOutcome {
    let start = Instant::now();
    let deadline = cfg.timeout.map(|t| start + t);
    let next = AtomicUsize::new(0);
    let total_count = AtomicU64::new(0);
    let total_ops = AtomicU64::new(0);
    let abort = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..cfg.threads.max(1) {
            s.spawn(|| {
                let mut worker = Worker::new(graph, plan, deadline, &abort);
                loop {
                    let lo = next.fetch_add(cfg.chunk_size, Ordering::Relaxed);
                    if lo >= graph.num_vertices() || abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let hi = (lo + cfg.chunk_size).min(graph.num_vertices());
                    for v in lo..hi {
                        worker.try_root(v as VertexId);
                    }
                }
                total_count.fetch_add(worker.count, Ordering::Relaxed);
                total_ops.fetch_add(worker.ops, Ordering::Relaxed);
            });
        }
    });
    DryadicOutcome {
        count: total_count.load(Ordering::Relaxed),
        elapsed_nanos: start.elapsed().as_nanos() as u64,
        element_ops: total_ops.load(Ordering::Relaxed),
        timed_out: abort.load(Ordering::Relaxed),
    }
}

/// Per-thread matching state.
struct Worker<'a> {
    g: &'a Graph,
    plan: &'a MatchPlan,
    k: usize,
    /// One slab per set id (no unroll dimension on CPU).
    sets: Vec<Vec<VertexId>>,
    matched: Vec<VertexId>,
    count: u64,
    ops: u64,
    deadline: Option<Instant>,
    abort: &'a std::sync::atomic::AtomicBool,
    tick: u32,
}

impl<'a> Worker<'a> {
    fn new(
        g: &'a Graph,
        plan: &'a MatchPlan,
        deadline: Option<Instant>,
        abort: &'a std::sync::atomic::AtomicBool,
    ) -> Self {
        Worker {
            g,
            plan,
            k: plan.num_levels(),
            sets: vec![Vec::new(); plan.num_sets()],
            matched: vec![0; plan.num_levels()],
            count: 0,
            ops: 0,
            deadline,
            abort,
            tick: 0,
        }
    }

    /// Cooperative cancellation: clock check every few thousand extends.
    #[inline]
    fn cancelled(&mut self) -> bool {
        self.tick = self.tick.wrapping_add(1);
        if self.tick.is_multiple_of(4096) {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    self.abort.store(true, Ordering::Relaxed);
                }
            }
            self.abort.load(Ordering::Relaxed)
        } else if self.tick.is_multiple_of(64) {
            self.abort.load(Ordering::Relaxed)
        } else {
            false
        }
    }

    fn try_root(&mut self, v: VertexId) {
        self.ops += 1;
        if let Some(lbl) = self.plan.level_label(0) {
            if self.g.label(v) != lbl {
                return;
            }
        }
        self.matched[0] = v;
        if self.k == 1 {
            self.count += 1;
            return;
        }
        self.extend(1);
    }

    /// Enters `level`: computes its sets, then iterates the candidate set.
    fn extend(&mut self, level: usize) {
        if self.cancelled() {
            return;
        }
        self.compute_sets(level);
        let cid = self.plan.candidate_set(level).expect("level >= 1") as usize;
        if level == self.k - 1 {
            // Count instead of iterating at the last level.
            let bounds = self.plan.bounds(level);
            let residual = self.plan.residual_label_check(level);
            let mut local = 0u64;
            for &v in &self.sets[cid] {
                if residual.is_some_and(|l| self.g.label(v) != l) {
                    continue;
                }
                if valid(&self.matched[..level], bounds, v) {
                    local += 1;
                }
            }
            self.ops += self.sets[cid].len() as u64;
            self.count += local;
            return;
        }
        let residual = self.plan.residual_label_check(level);
        let len = self.sets[cid].len();
        for i in 0..len {
            let v = self.sets[cid][i];
            self.ops += 1;
            if residual.is_some_and(|l| self.g.label(v) != l) {
                continue;
            }
            if valid(&self.matched[..level], self.plan.bounds(level), v) {
                self.matched[level] = v;
                self.extend(level + 1);
            }
        }
    }

    /// Evaluates every set scheduled at `level` (scalar chain evaluation).
    fn compute_sets(&mut self, level: usize) {
        for sid in self.plan.sets_at_level(level) {
            let def = &self.plan.sets()[sid];
            let mut buf = std::mem::take(&mut self.sets[sid]);
            buf.clear();
            match def.base {
                Base::Neighbors(pos) => {
                    let src = self.g.neighbors(self.matched[pos as usize]);
                    let mask = if def.ops.is_empty() {
                        def.mask
                    } else {
                        LabelMask::ALL
                    };
                    self.ops += src.len() as u64;
                    if mask.is_all() {
                        buf.extend_from_slice(src);
                    } else {
                        let g = self.g;
                        buf.extend(src.iter().copied().filter(|&v| mask.allows(g.label(v))));
                    }
                    let ops = def.ops.clone();
                    self.apply_chain(&ops, def.mask, &mut buf);
                }
                Base::Set(dep) => {
                    let op = *def.ops.first().expect("set base carries an op");
                    let operand = self.g.neighbors(self.matched[op.pos as usize]);
                    let mask = if def.ops.len() == 1 {
                        def.mask
                    } else {
                        LabelMask::ALL
                    };
                    let input = &self.sets[dep as usize];
                    self.ops += input.len() as u64;
                    scalar_op(self.g, input, operand, op.kind, mask, &mut buf);
                    let rest = def.ops[1..].to_vec();
                    self.apply_chain(&rest, def.mask, &mut buf);
                }
            }
            self.sets[sid] = buf;
        }
    }

    /// Applies remaining chained ops in place.
    fn apply_chain(
        &mut self,
        ops: &[stmatch_pattern::plan::ChainOp],
        final_mask: LabelMask,
        buf: &mut Vec<VertexId>,
    ) {
        let mut scratch: Vec<VertexId> = Vec::with_capacity(buf.len());
        for (i, op) in ops.iter().enumerate() {
            let mask = if i + 1 == ops.len() {
                final_mask
            } else {
                LabelMask::ALL
            };
            let operand = self.g.neighbors(self.matched[op.pos as usize]);
            self.ops += buf.len() as u64;
            scratch.clear();
            scalar_op(self.g, buf, operand, op.kind, mask, &mut scratch);
            std::mem::swap(buf, &mut scratch);
        }
    }
}

/// Scalar intersection/difference with label filtering.
fn scalar_op(
    g: &Graph,
    input: &[VertexId],
    operand: &[VertexId],
    kind: OpKind,
    mask: LabelMask,
    out: &mut Vec<VertexId>,
) {
    out.reserve(input.len());
    for &v in input {
        let found = operand.binary_search(&v).is_ok();
        let keep = match kind {
            OpKind::Intersect => found,
            OpKind::Difference => !found,
        };
        if keep && (mask.is_all() || mask.allows(g.label(v))) {
            out.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, RefOptions};
    use stmatch_graph::gen;
    use stmatch_pattern::catalog;

    fn cfg(induced: bool) -> DryadicConfig {
        DryadicConfig {
            threads: 2,
            induced,
            ..DryadicConfig::default()
        }
    }

    #[test]
    fn triangles_in_k6() {
        let g = gen::complete(6);
        assert_eq!(run(&g, &catalog::triangle(), cfg(false)).count, 20);
    }

    #[test]
    fn agrees_with_oracle_on_paper_queries() {
        let g = gen::erdos_renyi(32, 110, 5);
        for i in [1, 2, 5, 7, 8, 11, 14, 16, 20, 23] {
            let q = catalog::paper_query(i);
            for induced in [false, true] {
                let want = reference::count(
                    &g,
                    &q,
                    RefOptions {
                        induced,
                        symmetry_breaking: true,
                    },
                );
                assert_eq!(
                    run(&g, &q, cfg(induced)).count,
                    want,
                    "q{i} induced={induced}"
                );
            }
        }
    }

    #[test]
    fn labeled_agrees_with_oracle() {
        let g = gen::assign_random_labels(&gen::erdos_renyi(30, 100, 8), 4, 2);
        for i in [3, 6, 9, 15] {
            let q = catalog::paper_query(i).with_random_labels(4, i as u64);
            let want = reference::count(&g, &q, RefOptions::default());
            assert_eq!(run(&g, &q, cfg(false)).count, want, "q{i}");
        }
    }

    #[test]
    fn code_motion_toggle_preserves_counts_and_reduces_work() {
        let g = gen::erdos_renyi(60, 400, 4);
        let q = catalog::paper_query(16); // K6: deep intersect chains
        let with = run(
            &g,
            &q,
            DryadicConfig {
                code_motion: true,
                threads: 1,
                ..cfg(false)
            },
        );
        let without = run(
            &g,
            &q,
            DryadicConfig {
                code_motion: false,
                threads: 1,
                ..cfg(false)
            },
        );
        assert_eq!(with.count, without.count);
        assert!(
            with.element_ops < without.element_ops,
            "code motion must reduce work: {} vs {}",
            with.element_ops,
            without.element_ops
        );
    }

    #[test]
    fn thread_counts_agree() {
        let g = gen::preferential_attachment(80, 3, 7);
        let q = catalog::paper_query(6);
        let one = run(
            &g,
            &q,
            DryadicConfig {
                threads: 1,
                ..cfg(false)
            },
        );
        let four = run(
            &g,
            &q,
            DryadicConfig {
                threads: 4,
                ..cfg(false)
            },
        );
        assert_eq!(one.count, four.count);
        assert_eq!(one.element_ops, four.element_ops);
    }
}
