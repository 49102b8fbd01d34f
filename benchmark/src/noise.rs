//! `--noise K`: what the driver does before it accepts the benchmark. Per
//! workload, two consecutive sets of K runs, every run its own process and
//! another seed; per end-to-end metric both medians, by how much the second
//! is worse, the spread of each set (interquartile range over median, the
//! `statistics.quantiles(n=4)` convention) and a verdict against the bound.

use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_over_median, median};
use crate::sys;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// One child run's end-to-end metrics, read back from its `metric` lines.
fn run_once(workload: &str, seed: u64, seconds: u64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: {}\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let metrics: BTreeMap<String, f64> = text
        .lines()
        .filter_map(|l| {
            let mut it = l.strip_prefix("metric ")?.split_whitespace();
            Some((it.next()?.to_string(), it.next()?.parse().ok()?))
        })
        .collect();
    for m in &END_TO_END {
        if !metrics.contains_key(m.name) {
            return Err(format!(
                "{workload} seed {seed}: no {} in the output",
                m.name
            ));
        }
    }
    Ok(metrics)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every reading of both sets is the same number.
    Exact,
    Pass,
    /// Accepted, but a spread is above a third of the bound: measure longer.
    Lengthen,
    Fail,
}

/// The driver's acceptance rule for one metric of one workload. `gate_spread`
/// is false for `setup_s`, whose spread the driver does not gate.
pub fn judge(a: &[f64], b: &[f64], worse_by: f64, bound: f64, gate_spread: bool) -> Verdict {
    if a.iter().chain(b).all(|&v| v == a[0]) {
        return Verdict::Exact;
    }
    let spread = iqr_over_median(a).max(iqr_over_median(b));
    if worse_by > bound || (gate_spread && spread > bound) {
        Verdict::Fail
    } else if gate_spread && spread > bound / 3.0 {
        Verdict::Lengthen
    } else {
        Verdict::Pass
    }
}

pub fn report(runs: usize, seconds: u64) -> ExitCode {
    println!("# Noise report: `stmatch-benchmark --noise {runs} --seconds {seconds}`\n");
    println!(
        "Host: nproc={}, {}. Per workload two consecutive sets (A, then B) of {runs} runs, \
         every run its own process and another seed.\n",
        sys::nproc(),
        sys::rustc_version()
    );
    let mut failed = false;
    let mut seed = 0;
    for w in WORKLOADS.iter().filter(|w| w.listed) {
        let mut sets: [Vec<BTreeMap<String, f64>>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for _ in 0..runs {
                seed += 1;
                match run_once(w.name, seed, seconds) {
                    Ok(m) => set.push(m),
                    Err(e) => {
                        println!("RUN FAILED: {e}\n");
                        failed = true;
                    }
                }
            }
        }
        if sets.iter().any(|s| s.len() < 2) {
            failed = true;
            continue;
        }
        println!("## {}\n", w.name);
        println!("| metric | unit | median A | median B | B worse by | IQR/median A | IQR/median B | bound | verdict |");
        println!("|---|---|---|---|---|---|---|---|---|");
        let mut readings = Vec::new();
        for m in &END_TO_END {
            let [a, b] = [0, 1].map(|i| sets[i].iter().map(|r| r[m.name]).collect::<Vec<f64>>());
            let (ma, mb) = (median(&a), median(&b));
            let worse = m.better.worse_by(ma, mb);
            let verdict = judge(&a, &b, worse, m.bound, m.name != "setup_s");
            failed |= verdict == Verdict::Fail;
            println!(
                "| {} | {} | {:.6} | {:.6} | {:+.2} % | {:.2} % | {:.2} % | {:.0} % | {} |",
                m.name,
                m.unit,
                ma,
                mb,
                worse * 100.0,
                iqr_over_median(&a) * 100.0,
                iqr_over_median(&b) * 100.0,
                m.bound * 100.0,
                format!("{verdict:?}").to_uppercase()
            );
            readings.push(format!("- {} A {a:?} B {b:?}", m.name));
        }
        println!("\nReadings:\n\n{}\n", readings.join("\n"));
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_acceptance_rule() {
        let flat = [5.0; 10];
        assert_eq!(judge(&flat, &flat, 0.0, 0.01, true), Verdict::Exact);
        let steady: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.1).collect();
        assert_eq!(judge(&steady, &steady, 0.001, 0.25, true), Verdict::Pass);
        // IQR/median of 100..=118 step 2 is 11/109 ≈ 10 %: above a third of
        // 25 %, within it.
        let wide: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 2.0).collect();
        assert_eq!(judge(&steady, &wide, 0.0, 0.25, true), Verdict::Lengthen);
        assert_eq!(judge(&steady, &wide, 0.0, 0.05, true), Verdict::Fail);
        // setup_s: the spread is not gated, the drift of the median is.
        assert_eq!(judge(&steady, &wide, 0.0, 0.05, false), Verdict::Pass);
        assert_eq!(judge(&steady, &steady, 0.3, 0.25, false), Verdict::Fail);
    }
}
