//! Order statistics and the repetition-minimum estimator.
//!
//! The sandbox adds time in multi-second bursts and never removes any,
//! so the minimum of an operation's wall time over identical
//! repetitions is the steadiest estimate of what the operation costs
//! undisturbed; every end-to-end timing is built on it.

/// Nearest-rank percentile of an ascending sample (`p` in `(0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    // The epsilon keeps 0.9 × 100 = 90.000000000000014 at rank 90.
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile_of(xs: &[f64], p: f64) -> f64 {
    percentile(&sorted(xs), p)
}

/// The highest reportable percentile of an `n`-sample: the largest of
/// 50/90/99/99.9 that leaves at least ten samples beyond it, or `None`
/// when even the median does not (n < 20).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // (numerator, denominator) pairs, so the rank is exact.
    [(999, 1000), (99, 100), (9, 10), (1, 2)]
        .into_iter()
        .find(|&(num, den)| n >= (n * num).div_ceil(den) + 10)
        .map(|(num, den)| num as f64 / den as f64)
}

/// Per-operation minimum over repetitions: `reps[r][j]` is the wall
/// time of operation `j` in repetition `r`. All repetitions must run the
/// same operations.
pub fn repetition_minimum(reps: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    let mut min = first.clone();
    for rep in &reps[1..] {
        assert_eq!(rep.len(), min.len(), "repetitions differ in op count");
        for (m, &t) in min.iter_mut().zip(rep) {
            *m = m.min(t);
        }
    }
    min
}

/// Smallest of a sample (infinite when it is empty).
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) gives them — the
/// rule the acceptance driver applies to ten runs.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// Inter-quartile range as a share of the median — the spread the
/// driver holds against a metric's bound.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.90), 90.0);
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        // 100 ops: exactly ten lie beyond the 90th percentile.
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    /// Synthetic bursty data: every op costs 100 + j/10 undisturbed, and
    /// each repetition suffers one burst that triples a different
    /// 30-op stretch. The plain mean is off by the burst; the
    /// repetition-minimum recovers the undisturbed cost exactly.
    #[test]
    fn repetition_minimum_removes_one_sided_bursts() {
        let ops = 120;
        let clean: Vec<f64> = (0..ops).map(|j| 100.0 + j as f64 / 10.0).collect();
        let reps: Vec<Vec<f64>> = (0..5)
            .map(|r| {
                clean
                    .iter()
                    .enumerate()
                    .map(|(j, &t)| {
                        let burst = (r * 20..r * 20 + 30).contains(&j);
                        if burst {
                            t * 3.0
                        } else {
                            t
                        }
                    })
                    .collect()
            })
            .collect();
        let min = repetition_minimum(&reps);
        assert_eq!(min, clean);
        let plain: f64 = reps.iter().flatten().sum::<f64>() / 5.0;
        let undisturbed: f64 = min.iter().sum();
        assert!(plain > undisturbed * 1.4, "the bursts must be visible");
        // A burst that hits the same ops in every repetition is not
        // noise but cost, and stays.
        let mut stuck = reps.clone();
        for rep in &mut stuck {
            rep[0] = 500.0;
        }
        assert_eq!(repetition_minimum(&stuck)[0], 500.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4)
        //   == [1.25, 3.5, 5.75]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
            [1.25, 3.5, 5.75]
        );
        // Two samples: both outer cut points extrapolate, as Python's do.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }
}
