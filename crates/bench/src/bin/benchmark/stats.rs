//! Order statistics over measured samples.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least `⌈len·q⌉` samples at or below it (`None` when the
/// sample is empty).
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts a copy of `values` ascending (NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest of the standard tail percentiles (p50 … p99.99) that has at
/// least `min_beyond` samples strictly above its rank, as `(q, value)`.
/// `None` when not even the median has that many samples beyond it.
pub fn highest_supported(sorted: &[f64], min_beyond: usize) -> Option<(f64, f64)> {
    const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];
    let n = sorted.len();
    LADDER
        .iter()
        .rev()
        .find(|&&q| {
            let rank = (n as f64 * q).ceil() as usize;
            rank >= 1 && n - rank >= min_beyond
        })
        .and_then(|&q| percentile(sorted, q).map(|v| (q, v)))
}

/// Median and quartiles of a small set of repeat values, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of values.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let s = sorted(values);
        let n = s.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            0.5 * (s[n / 2 - 1] + s[n / 2])
        };
        let (min, max) = (s[0], s[n - 1]);
        if n == 1 {
            return Some(Summary {
                min,
                max,
                median,
                q1: median,
                q3: median,
                n,
            });
        }
        // Python's exclusive method verbatim, including its extrapolation
        // past the ends of very small samples
        let at = |i: i64| {
            let m = n as i64 + 1;
            let j = (i * m / 4).clamp(1, n as i64 - 1);
            let delta = (i * m - j * 4) as f64;
            let j = j as usize;
            (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
        };
        Some(Summary {
            min,
            max,
            median,
            q1: at(1),
            q3: at(3),
            n,
        })
    }
}

/// Median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(f64::NAN, |s| s.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(500.0));
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        assert_eq!(percentile(&s, 0.999), Some(999.0));
        assert_eq!(percentile(&s, 1.0), Some(1000.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        // ⌈2·0.5⌉ = 1 picks the first of two samples
        assert_eq!(percentile(&[1.0, 2.0], 0.5), Some(1.0));
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves 1 beyond, p99 leaves 10
        assert_eq!(highest_supported(&s, 10), Some((0.99, 990.0)));
        let s: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(highest_supported(&s, 10), Some((0.9999, 99_990.0)));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(highest_supported(&s, 10), Some((0.9, 90.0)));
        assert_eq!(highest_supported(&[1.0, 2.0, 3.0], 10), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[3.0, 1.0, 2.0, 5.0, 4.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]: three
        // repeats put the quartiles on the extremes
        let s = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!(
            (s.q1, s.median, s.q3, s.min, s.max),
            (1.0, 2.0, 3.0, 1.0, 3.0)
        );
        let one = Summary::of(&[4.0]).expect("non-empty");
        assert_eq!((one.q1, one.median, one.q3), (4.0, 4.0, 4.0));
        assert!(Summary::of(&[]).is_none());
    }
}
