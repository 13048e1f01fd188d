//! Order statistics used by the reports and by `--compare`.

/// Percentiles the benchmark is willing to report, in tenths of a percent,
/// lowest first.
pub const LADDER_PER_MILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile of the ladder that still has at least ten of `n`
/// samples beyond it (the median when even p75 has not).
pub fn tail_percentile(n: usize) -> f64 {
    LADDER_PER_MILLE
        .iter()
        .rev()
        .find(|&&p| n * (1000 - p) / 1000 >= 10)
        .map_or(50.0, |&p| p as f64 / 10.0)
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `p` (0–100) of an ascending slice, linearly interpolated
/// between the two closest ranks.  Empty input gives NaN.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 50.0)
}

/// Geometric mean of positive values; NaN when empty.
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (its default "exclusive" method), which is what the acceptance check
/// uses for spreads.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 50.0), 2.5);
        assert_eq!(percentile_sorted(&v, 100.0), 4.0);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
        assert!(percentile_sorted(&[], 50.0).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4)
        let q = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]).unwrap();
        assert_eq!(q, [1.5, 4.0, 12.0]);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn geo_mean_of_ratios() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
