//! Order statistics for latency samples, and the tail percentiles a
//! workload may report.

/// Fewest samples a tail percentile must have beyond it before the
/// benchmark reports it.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile a workload may report as `cpu_tail_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// The 99th percentile.
    P99,
    /// The 95th percentile.
    P95,
    /// The 90th percentile.
    P90,
}

impl Tail {
    /// The percentile as a whole number.
    #[must_use]
    pub fn percent(self) -> usize {
        match self {
            Tail::P99 => 99,
            Tail::P95 => 95,
            Tail::P90 => 90,
        }
    }

    /// The printed name, `p99` and so on.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Tail::P99 => "p99",
            Tail::P95 => "p95",
            Tail::P90 => "p90",
        }
    }

    /// How many of `n` samples lie strictly beyond this percentile.
    #[must_use]
    pub fn beyond(self, n: usize) -> usize {
        n - nearest_rank(n, self.percent())
    }
}

/// The 1-based nearest rank of the `percent`-th percentile of `n`
/// samples: the smallest rank whose share of the sample reaches it.
fn nearest_rank(n: usize, percent: usize) -> usize {
    (percent * n).div_ceil(100).clamp(1, n.max(1))
}

/// The nearest-rank `percent`-th percentile of an ascending sample; 0
/// for an empty one.
#[must_use]
pub fn percentile(sorted: &[f64], percent: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), percent) - 1]
}

/// The median (mean of the two middle values for an even count); 0 for
/// an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The arithmetic mean; 0 for an empty sample.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `numerator / denominator`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_beyond_a_tail() {
        assert_eq!(Tail::P99.beyond(1000), 10);
        assert_eq!(Tail::P99.beyond(999), 9);
        assert_eq!(Tail::P95.beyond(600), 30);
        assert_eq!(Tail::P90.beyond(101), 10);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 50), 50.0);
        assert_eq!(percentile(&sample, 90), 90.0);
        assert_eq!(percentile(&sample, 99), 99.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        assert_eq!(percentile(&[], 50), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(3, 0), 0.0);
        assert_eq!(ratio(16, 8), 2.0);
    }
}
