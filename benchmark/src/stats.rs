//! Order statistics and the regression rule the scoreboard reports with.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so spreads printed here match the driver's.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median: the run-to-run
/// spread the acceptance rule compares with a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Samples that lie beyond the `q`-quantile of an `n`-sample distribution.
/// A percentile is only reported when at least ten do.
pub fn samples_beyond(q: f64, n: u64) -> u64 {
    (n as f64 * (1.0 - q)).floor() as u64
}

/// Whether the `q`-quantile of `n` samples may be reported (>= 10 beyond).
pub fn percentile_supported(q: f64, n: u64) -> bool {
    samples_beyond(q, n) >= 10
}

/// Nearest-rank `q`-quantile of a non-empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// By what share of `base` the value `new` is worse (positive) or better
/// (negative), in the metric's own direction.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / base.abs()
    }
}

/// The regression rule: `new` may be worse than `base` by at most `bound`.
pub fn within_bound(base: f64, new: f64, better: Better, bound: f64) -> bool {
    worsening(base, new, better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartile_spread(&v), 1.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples has exactly ten beyond it; 999 has nine.
        assert!(percentile_supported(0.99, 1000));
        assert!(!percentile_supported(0.99, 999));
        // fleet_user's ~3.7k samples support p99 but not p999.
        assert!(percentile_supported(0.99, 3700));
        assert!(!percentile_supported(0.999, 3700));
        assert_eq!(samples_beyond(0.5, 21), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        // Lower is better: +9 % is within a 10 % bound, +11 % is over, -50 % is fine.
        assert!(within_bound(2.0, 2.18, Better::Lower, 0.10));
        assert!(!within_bound(2.0, 2.22, Better::Lower, 0.10));
        assert!(within_bound(2.0, 1.0, Better::Lower, 0.10));
        // Higher is better: the same numbers flip.
        assert!(within_bound(100.0, 91.0, Better::Higher, 0.10));
        assert!(!within_bound(100.0, 89.0, Better::Higher, 0.10));
        assert!(within_bound(100.0, 150.0, Better::Higher, 0.10));
        // An exact count (bound 0) must repeat exactly when it gets worse.
        assert!(within_bound(5.0, 5.0, Better::Lower, 0.0));
        assert!(!within_bound(5.0, 6.0, Better::Lower, 0.0));
        assert!(within_bound(0.0, 0.0, Better::Lower, 0.0));
        assert!(!within_bound(0.0, 1.0, Better::Lower, 0.0));
    }
}
