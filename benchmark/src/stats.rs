//! Sample statistics the reports are built from.
//!
//! Order statistics are *selected*, never interpolated: a reported
//! latency is a latency some operation actually had. The upper
//! percentile follows the rule of the metrics guide — report the
//! highest percentile that still has at least ten samples beyond it —
//! so a run with few samples reports a median and nothing else.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Ascending copy of `xs`. Panics on NaN: a timing or count is never
/// NaN, so one here is a bug in the benchmark.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in sample set"));
    v
}

/// Nearest-rank `q`-quantile (0 < q ≤ 1) of an ascending sample set:
/// the smallest sample with at least `q·n` samples at or below it.
pub fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample set");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median by selection: the lower middle sample for even counts.
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// The fastest sample: what a timed operation costs when it has the
/// machine. Interference only ever adds time, and this sandbox slows
/// the CPU itself by 1.4x for minutes on end (CPU seconds per step rise
/// with the wall), so the median and even the 10th percentile of a run
/// move between two modes; some sample of a run still gets the machine,
/// and the minimum stays put.
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of an empty sample set");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Samples strictly beyond the nearest-rank `q`-quantile position.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(((q * n as f64).ceil() as usize).max(1))
}

/// May the `q`-quantile of `n` samples be reported? Only with at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn reportable(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// The highest whole percentile (1–99) of `n` samples that keeps
/// [`MIN_BEYOND`] samples beyond it, or `None` below 20 samples, where
/// even the median does not qualify.
pub fn highest_reportable_percentile(n: usize) -> Option<u32> {
    (1..=99u32).rev().find(|&p| reportable(n, f64::from(p) / 100.0)).filter(|&p| p >= 50)
}

/// "n samples, median m[, pNN v]": the median and the highest
/// reportable percentile of a latency sample set, for the run notes.
pub fn describe(xs: &[f64]) -> String {
    let v = sorted(xs);
    let upper = highest_reportable_percentile(v.len())
        .filter(|&p| p > 50)
        .map_or("no upper percentile below 21 samples".to_string(), |p| {
            format!("p{p} {:.4} s", quantile_sorted(&v, f64::from(p) / 100.0))
        });
    format!("{} samples, median {:.4} s, {upper}", v.len(), quantile_sorted(&v, 0.5))
}

/// The `q`-quantile when it is reportable, else `None`.
pub fn upper_quantile(xs: &[f64], q: f64) -> Option<f64> {
    reportable(xs.len(), q).then(|| quantile_sorted(&sorted(xs), q))
}

/// Quartile spread as a share of the median — the steadiness figure
/// the driver computes from ten runs: `(Q3 − Q1) / median`, quartiles
/// by the exclusive method (Python's `statistics.quantiles(v, n=4)`).
pub fn quartile_spread(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(v.len() >= 2, "quartiles need two samples");
    let q = |k: usize| {
        // exclusive method: position k·(n+1)/4 on 1-based order statistics
        let pos = k as f64 * (v.len() + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = q(2);
    if med == 0.0 {
        0.0
    } else {
        (q(3) - q(1)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_selects_a_real_sample() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // even count: lower middle, not the 2.5 an interpolating median invents
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.8), 80.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[5.0, 9.0], 0.01), 5.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p80 of 50 samples sits at rank 40: exactly ten beyond
        assert_eq!(beyond(50, 0.8), 10);
        assert!(reportable(50, 0.8));
        assert!(!reportable(49, 0.8));
        // the median needs twenty samples
        assert!(reportable(20, 0.5));
        assert!(!reportable(19, 0.5));
        assert_eq!(highest_reportable_percentile(19), None);
        assert_eq!(highest_reportable_percentile(20), Some(50));
        assert_eq!(highest_reportable_percentile(50), Some(80));
        assert_eq!(highest_reportable_percentile(80), Some(87));
        assert_eq!(highest_reportable_percentile(1000), Some(99));
        assert_eq!(upper_quantile(&[1.0; 30], 0.8), None);
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(upper_quantile(&v, 0.8), Some(48.0));
    }

    #[test]
    fn descriptions_state_the_sample_count() {
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(
            describe(&few),
            "12 samples, median 6.0000 s, no upper percentile below 21 samples"
        );
        let many: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(describe(&many), "50 samples, median 25.0000 s, p80 40.0000 s");
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[2.0; 10]), 0.0);
    }
}
