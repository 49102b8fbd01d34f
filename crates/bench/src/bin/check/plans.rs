//! `check plans` (`ci.sh` phase `smoke:plans`), the gate for anchored delta
//! plans chosen on a graph (`Engine::compile_delta_on`, what a
//! delta-enabled service compiles at a plan-cache miss).
//!
//! The fixture is tick-like: a seeded half of PA(1024, 8, 9)'s edges,
//! degree-ordered, then seeded exchange batches of 64 deletes of present
//! edges and 64 inserts of absent ones. Batch 0 moves the graph to the
//! snapshot the plans are chosen on; batches 1–4 measure them. Per edge
//! orbit of the triangle and q1–q14, every connected order anchored on the
//! orbit's representative (either direction) runs over both sides of every
//! measured batch, on a 1 × 2 grid with stealing off: the exact simulated
//! instructions those batches cost that orbit's launches.
//!
//! Each orbit prints today's graph-free order (`MatchOrder::anchored`), the
//! pick, the exhaustive best and their instructions, plus the estimator's
//! sampled instructions for today's order and the pick, and what all
//! candidates cost on the sample, what the estimate runs. Fails if any
//! pick costs more than today's order, or if a pick of the tick's own
//! queries (the triangle, q2, q4, q6) costs more than [`BEST_SLACK`] × the
//! best. For the other queries that second test is a survey: its misses
//! print, and do not fail the gate — how many there are moves with the
//! sample's size and edges (ROADMAP item 17).

use crate::{grid, report};
use std::process::ExitCode;
use stmatch_bench::tick::{exchange, fixture, SEED};
use stmatch_core::estimate::Estimator;
use stmatch_core::{Engine, EngineConfig, StagedBatch};
use stmatch_graph::DeltaOverlay;
use stmatch_pattern::order::MatchOrder;
use stmatch_pattern::{catalog, symmetry, MatchPlan, Pattern};
use stmatch_testkit::rng::SmallRng;

/// Batches measured after the one the plans are chosen behind.
const MEASURED: usize = 4;

/// A pick may cost at most this much more than the exhaustive best.
const BEST_SLACK: f64 = 1.10;

pub fn run(args: &[String]) -> ExitCode {
    if let Err(code) = crate::flag("plans", args, &[]) {
        return code;
    }
    let mut rng = SmallRng::seed_from_u64(SEED);
    let (start, mut present, mut absent) = fixture(&mut rng);
    let engine = Engine::new(EngineConfig::default().with_grid(grid(1, 2)));
    let mut overlay = DeltaOverlay::new(start);
    overlay.apply(&exchange(&mut present, &mut absent, &mut rng));
    let chosen_on = overlay.snapshot();
    // Each measured batch side, staged as the delta route stages it.
    let mut sides = Vec::new();
    for _ in 0..MEASURED {
        let pre = overlay.snapshot();
        let batch = overlay.apply(&exchange(&mut present, &mut absent, &mut rng));
        let staged = StagedBatch::new(&pre, &overlay.snapshot(), &batch);
        sides.extend(
            staged
                .into_sides()
                .map(|side| Estimator::over(&engine, side)),
        );
    }
    let sampled = Estimator::new(&engine, &chosen_on);
    let cost = |plan: &MatchPlan| -> Result<u64, String> {
        sides.iter().map(|side| full_cost(side, plan)).sum()
    };
    let tick = [2, 4, 6].map(catalog::paper_query);
    let survey = [1, 3, 5, 7, 8, 9, 10, 11, 12, 13, 14].map(catalog::paper_query);
    let gated = std::iter::once(catalog::triangle()).chain(tick);
    let (mut errs, mut misses) = (Vec::new(), Vec::new());
    let mut totals = [(0u64, 0u64); 2];
    for (q, gate) in gated.map(|q| (q, true)).chain(survey.map(|q| (q, false))) {
        let plans = engine.compile_delta_on(&q, &chosen_on);
        for (orbit, pick) in symmetry::edge_orbits(&q).iter().zip(plans.plans()) {
            let name = format!("{} {:?}", q.name(), orbit.rep);
            let m = match measure(&q, orbit.rep, pick, &cost, &sampled) {
                Ok(m) => m,
                Err(e) => {
                    errs.push(format!("{name}: {e}"));
                    continue;
                }
            };
            let leg = if gate { "plans" } else { "plans survey" };
            println!("{leg} {name}: {}", m.line());
            let total = &mut totals[usize::from(!gate)];
            total.0 += m.today.1;
            total.1 += m.pick.1;
            if m.pick.1 > m.today.1 {
                errs.push(format!("{name}: pick {:?} costs more than today's", m.pick));
            }
            let found = if gate { &mut errs } else { &mut misses };
            if m.pick.1 as f64 > BEST_SLACK * m.best.1 as f64 {
                found.push(format!(
                    "{name}: pick {:?} costs more than {BEST_SLACK}x the best {:?}",
                    m.pick, m.best
                ));
            }
        }
    }
    let ratio = |(today, pick): (u64, u64)| pick as f64 / today.max(1) as f64;
    for miss in &misses {
        println!("plans survey miss: {miss}");
    }
    println!(
        "plans survey: {} misses; picks cost {:.3} of today's instructions",
        misses.len(),
        ratio(totals[1])
    );
    let ok = report("plans", &errs, || {
        format!(
            "no pick costs more than today's order and the tick's are within \
             {BEST_SLACK}x of the best; they cost {:.3} of today's instructions",
            ratio(totals[0])
        )
    });
    crate::exit_code(ok)
}

/// One orbit's measurement: `(order, instructions over the measured
/// batches)` of today's order, the pick and the best connected order, with
/// the estimator's sampled instructions.
struct Measured {
    today: (Vec<usize>, u64),
    pick: (Vec<usize>, u64),
    best: (Vec<usize>, u64),
    /// Sampled instructions of today's order and of the pick.
    sampled: (u64, u64),
    /// Sampled instructions of every candidate (what the estimate runs),
    /// and their number.
    estimate: (u64, usize),
}

impl Measured {
    fn line(&self) -> String {
        let ratio = |c: u64| c as f64 / self.today.1.max(1) as f64;
        format!(
            "today {:?} {} | pick {:?} {} ({:.3}) | best {:?} {} ({:.3}) | \
             sampled {} -> {}, all {} candidates {}",
            self.today.0,
            self.today.1,
            self.pick.0,
            self.pick.1,
            ratio(self.pick.1),
            self.best.0,
            self.best.1,
            ratio(self.best.1),
            self.sampled.0,
            self.sampled.1,
            self.estimate.1,
            self.estimate.0,
        )
    }
}

fn measure(
    q: &Pattern,
    rep: (usize, usize),
    pick: &MatchPlan,
    cost: &impl Fn(&MatchPlan) -> Result<u64, String>,
    sampled: &Estimator,
) -> Result<Measured, String> {
    let opts = pick.options();
    let compile = |order: MatchOrder| MatchPlan::compile_anchored(q, order, opts);
    let sample = |plan: &MatchPlan| full_cost(sampled, plan);
    let today = compile(MatchOrder::anchored(q, rep));
    let mut estimate = (0, 0);
    for order in MatchOrder::anchored_candidates(q, rep) {
        estimate.0 += sample(&compile(order))?;
        estimate.1 += 1;
    }
    let mut best: Option<(Vec<usize>, u64)> = None;
    for order in connected_orders(q, rep) {
        let c = cost(&compile(MatchOrder::from_order(q, order.clone())))?;
        if best.as_ref().is_none_or(|b| c < b.1) {
            best = Some((order, c));
        }
    }
    let entry = |plan: &MatchPlan| cost(plan).map(|c| (plan.order().as_slice().to_vec(), c));
    Ok(Measured {
        today: entry(&today)?,
        pick: entry(pick)?,
        best: best.expect("an anchored order exists"),
        sampled: (sample(&today)?, sample(pick)?),
        estimate,
    })
}

/// What `plan` costs over `est`'s edges (the gate's estimators have no
/// timeout, so none runs out of time).
fn full_cost(est: &Estimator, plan: &MatchPlan) -> Result<u64, String> {
    est.cost(plan)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "an estimate without a timeout ran out of time".to_string())
}

/// Every connected order of `q` starting `[p, q, …]` or `[q, p, …]`.
fn connected_orders(q: &Pattern, (a, b): (usize, usize)) -> Vec<Vec<usize>> {
    fn extend(q: &Pattern, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if prefix.len() == q.size() {
            out.push(prefix.clone());
            return;
        }
        for u in 0..q.size() {
            if !prefix.contains(&u) && prefix.iter().any(|&v| q.has_edge(u, v)) {
                prefix.push(u);
                extend(q, prefix, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    for start in [[a, b], [b, a]] {
        extend(q, &mut start.to_vec(), &mut out);
    }
    out
}
