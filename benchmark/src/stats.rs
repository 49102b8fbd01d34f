//! Order statistics: nearest-rank percentiles for the metrics, the
//! quietest-block estimator, and the quartile convention of Python's
//! `statistics.quantiles(values, n=4)` for the noise report.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Nearest-rank percentile: the smallest value with at least `p` percent of
/// the sample at or below it. 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn p50(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The block whose `p`-th percentile is lowest, with that percentile.
///
/// Interference on a shared box is one-sided (it only ever adds time) and
/// arrives in plateaus longer than a block, so the quietest block is the
/// best estimate of what the code costs when nothing else runs. A plateau
/// that outlasts the run moves every block; the time bounds are the widest
/// the contract allows for that reason.
pub fn quietest_block<B: AsRef<[f64]>>(blocks: &[B], p: f64) -> Option<(usize, f64)> {
    blocks
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.as_ref().is_empty())
        .map(|(i, b)| (i, percentile(b.as_ref(), p)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("measurements are never NaN"))
}

/// Median as `statistics.median` computes it (mean of the middle two for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)` (method
/// "exclusive") computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_computed_vectors() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), 15.0);
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 90.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        // Order of the sample does not matter; even counts take the lower
        // middle value.
        assert_eq!(p50(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        // 10th percentile of 40 values is the 4th smallest.
        let forty: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&forty, 10.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn quietest_block_takes_the_lowest_block_percentile() {
        let blocks = vec![
            vec![10.0, 11.0, 30.0],
            vec![9.0, 9.5, 50.0],
            vec![],
            vec![12.0, 12.0, 12.0],
        ];
        assert_eq!(quietest_block(&blocks, 50.0), Some((1, 9.5)));
        // The p90 of a three-value block is its maximum.
        assert_eq!(quietest_block(&blocks, 90.0), Some((3, 12.0)));
        assert_eq!(quietest_block(&[Vec::<f64>::new(), Vec::new()], 50.0), None);
    }

    #[test]
    fn quartiles_follow_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
