//! Metric arithmetic: percentiles with the sample-count rule, geometric
//! means and failure ratios.
//!
//! A tail percentile is only reported where at least ten samples lie
//! beyond it, so a run of `n` samples supports p99 from `n = 1000` on and
//! falls back to the highest of p99 / p95 / p90 / p50 it can support.
//! Failed ops count as missing every latency limit: they sort above every
//! completed op, so a percentile that lands on one reads as `None`.

/// Percentiles tried for the tail metric, highest first, in permille.
pub const TAIL_PERMILLE: [u64; 4] = [990, 950, 900, 500];

/// Samples needed beyond a percentile before it may be reported.
pub const MIN_BEYOND: u64 = 10;

/// Whether `n` samples support the `permille` percentile: at least
/// [`MIN_BEYOND`] samples lie above it.
pub fn supports(n: u64, permille: u64) -> bool {
    // n * (1 - p) >= MIN_BEYOND, in integers.
    n * (1000 - permille) >= MIN_BEYOND * 1000
}

/// The highest tail percentile (permille) that `n` samples support, or
/// the median when even p50 lacks ten samples beyond it.
pub fn tail_permille(n: u64) -> u64 {
    TAIL_PERMILLE
        .iter()
        .copied()
        .find(|&p| supports(n, p))
        .unwrap_or(500)
}

/// Nearest-rank percentile over op latencies, where `None` is a failed
/// op that ranks above every completed one. Returns `None` when the rank
/// lands on a failed op (or there are no samples).
pub fn percentile(samples: &[Option<u64>], permille: u64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut done: Vec<u64> = samples.iter().flatten().copied().collect();
    done.sort_unstable();
    let n = samples.len() as u64;
    // Nearest rank: ceil(p * n), 1-based.
    let rank = (permille * n).div_ceil(1000).max(1);
    done.get(rank as usize - 1).copied()
}

/// Geometric mean of positive values; `None` for an empty slice or a
/// non-positive value.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Outcome of one op as the benchmark judges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome {
    /// Completed `Ok` and its output matched the golden data.
    Ok,
    /// Completed with a typed error.
    Failed,
    /// Never completed: the simulation stalled or a program was left
    /// unfinished.
    Wedged,
    /// Completed `Ok` with output that differs from the golden data.
    Wrong,
}

/// Ops that did not complete `Ok` with golden data, divided by ops
/// attempted. Wedged and wrong ops count as failed.
pub fn failed_ratio(outcomes: &[OpOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let failed = outcomes.iter().filter(|&&o| o != OpOutcome::Ok).count();
    failed as f64 / outcomes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_count_rule() {
        assert!(supports(1000, 990));
        assert!(!supports(999, 990));
        assert!(supports(200, 950));
        assert!(!supports(199, 950));
        assert_eq!(tail_permille(5000), 990);
        assert_eq!(tail_permille(999), 950);
        assert_eq!(tail_permille(150), 900);
        assert_eq!(tail_permille(60), 500);
        assert_eq!(tail_permille(3), 500);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<Option<u64>> = (1..=100).map(Some).collect();
        assert_eq!(percentile(&s, 500), Some(50));
        assert_eq!(percentile(&s, 990), Some(99));
        assert_eq!(percentile(&s, 1000), Some(100));
        // Order of input does not matter.
        let rev: Vec<Option<u64>> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 990), Some(99));
        assert_eq!(percentile(&[Some(7)], 990), Some(7));
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn failed_ops_miss_every_limit() {
        // Two failures out of 100 push p99 onto a failed op.
        let mut s: Vec<Option<u64>> = (1..=98).map(Some).collect();
        s.extend([None, None]);
        assert_eq!(percentile(&s, 990), None);
        assert_eq!(percentile(&s, 980), Some(98));
        assert_eq!(percentile(&s, 500), Some(50));
    }

    #[test]
    fn geometric_mean() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        let g = geomean(&[2.0, 8.0, 4.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn failed_ratio_counts_wedges_and_wrong_data() {
        use OpOutcome::*;
        assert_eq!(failed_ratio(&[Ok, Ok, Ok, Ok]), 0.0);
        assert_eq!(failed_ratio(&[Ok, Failed, Wedged, Wrong]), 0.75);
        assert_eq!(failed_ratio(&[Wedged, Ok]), 0.5);
        assert_eq!(failed_ratio(&[]), 0.0);
    }
}
