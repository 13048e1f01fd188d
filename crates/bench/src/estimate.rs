//! Error-estimation techniques: variational subsampling and the baselines it
//! is compared against in the paper's evaluation (bootstrap, traditional
//! subsampling, closed-form CLT).
//!
//! Two layers are provided:
//!
//! * **array-based estimators** operating on an in-memory sample of values —
//!   these power the statistical-accuracy experiments (Figures 8, 12, 13, 14)
//!   and the property tests on estimator correctness;
//! * **SQL generators** ([`sql_baselines`]) that express traditional
//!   subsampling and consolidated bootstrap as middleware-issued SQL, used by
//!   the Figure 7 runtime-overhead comparison (their cost is `O(b·n)` versus
//!   `O(n)` for variational subsampling).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use verdict_core::stats::{normal_critical_value, quantile, stddev};

/// A confidence interval around a point estimate of a population mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The point estimate.
    pub estimate: f64,
    /// Lower bound of the interval.
    pub lower: f64,
    /// Upper bound of the interval.
    pub upper: f64,
    /// Confidence level the interval was computed at (e.g. 0.95).
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Half of the interval width.
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }

    /// Relative half-width with respect to the point estimate.
    ///
    /// A degenerate point estimate (near zero, NaN, or infinite) cannot
    /// anchor a relative error; reporting 0.0 there would claim *perfect*
    /// accuracy exactly when the estimate is most suspect, so the relative
    /// error is `f64::INFINITY` instead — except for an estimate of 0 with a
    /// zero-width interval, which is an exact zero, not a degenerate one.
    /// Callers that average relative errors must skip non-finite entries.
    pub fn relative_error(&self) -> f64 {
        if !self.estimate.is_finite() || self.estimate.abs() < f64::EPSILON {
            if self.estimate == 0.0 && self.half_width().abs() < f64::EPSILON {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.half_width() / self.estimate.abs()
        }
    }

    /// True when the interval contains `value`.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The honest interval for a sample too small to estimate spread from
/// (`n < 2`): the point estimate (NaN when the sample is empty) with
/// unbounded error, instead of the silently zero-width interval that
/// `stddev`'s 0.0 / `quantile`'s NaN fallbacks used to produce.
fn degenerate_interval(sample: &[f64], confidence: f64) -> ConfidenceInterval {
    ConfidenceInterval {
        estimate: mean(sample),
        lower: f64::NEG_INFINITY,
        upper: f64::INFINITY,
        confidence,
    }
}

/// Closed-form central-limit-theorem interval for the mean.
pub fn clt_interval(sample: &[f64], confidence: f64) -> ConfidenceInterval {
    if sample.len() < 2 {
        return degenerate_interval(sample, confidence);
    }
    let m = mean(sample);
    let z = normal_critical_value(confidence);
    let half = z * stddev(sample) / (sample.len() as f64).sqrt();
    ConfidenceInterval {
        estimate: m,
        lower: m - half,
        upper: m + half,
        confidence,
    }
}

/// Classical bootstrap: `b` resamples of size `n` drawn with replacement.
/// Cost is O(b·n), which is exactly why the paper avoids it at a middleware.
pub fn bootstrap_interval(
    sample: &[f64],
    b: usize,
    confidence: f64,
    seed: u64,
) -> ConfidenceInterval {
    let n = sample.len();
    if n < 2 {
        return degenerate_interval(sample, confidence);
    }
    let g0 = mean(sample);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut deltas = Vec::with_capacity(b);
    for _ in 0..b {
        let mut sum = 0.0;
        for _ in 0..n {
            sum += sample[rng.gen_range(0..n)];
        }
        deltas.push(sum / n as f64 - g0);
    }
    let alpha = 1.0 - confidence;
    ConfidenceInterval {
        estimate: g0,
        lower: g0 - quantile(&deltas, 1.0 - alpha / 2.0),
        upper: g0 - quantile(&deltas, alpha / 2.0),
        confidence,
    }
}

/// Traditional subsampling: `b` subsamples of size `ns` drawn *without*
/// replacement; the empirical quantiles are rescaled by `sqrt(ns/n)`.
/// Constructing the subsamples costs O(b·ns) (and O(b·n) when done in SQL).
pub fn traditional_subsampling_interval(
    sample: &[f64],
    b: usize,
    ns: usize,
    confidence: f64,
    seed: u64,
) -> ConfidenceInterval {
    let n = sample.len();
    if n < 2 {
        return degenerate_interval(sample, confidence);
    }
    let ns = ns.min(n).max(1);
    let g0 = mean(sample);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut deltas = Vec::with_capacity(b);
    let mut indices: Vec<usize> = (0..n).collect();
    for _ in 0..b {
        // partial Fisher–Yates: the first ns entries form the subsample
        for i in 0..ns {
            let j = rng.gen_range(i..n);
            indices.swap(i, j);
        }
        let sub_mean = indices[..ns].iter().map(|&i| sample[i]).sum::<f64>() / ns as f64;
        deltas.push(sub_mean - g0);
    }
    let alpha = 1.0 - confidence;
    let scale = (ns as f64 / n as f64).sqrt();
    ConfidenceInterval {
        estimate: g0,
        lower: g0 - quantile(&deltas, 1.0 - alpha / 2.0) * scale,
        upper: g0 - quantile(&deltas, alpha / 2.0) * scale,
        confidence,
    }
}

/// Variational subsampling (§4.2): every element is assigned to exactly one of
/// `b = n/ns` subsamples; the empirical distribution of
/// `sqrt(ns_i)·(ĝ_i − ĝ_0)` (Equation 2) yields the interval after a `1/sqrt(n)`
/// rescaling.  Cost is a single O(n) pass.
pub fn variational_subsampling_interval(
    sample: &[f64],
    ns: usize,
    confidence: f64,
    seed: u64,
) -> ConfidenceInterval {
    let n = sample.len();
    if n < 2 {
        return degenerate_interval(sample, confidence);
    }
    let ns = ns.clamp(1, n.max(1));
    let b = (n / ns).max(1);
    let g0 = mean(sample);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut sums = vec![0.0f64; b];
    let mut counts = vec![0usize; b];
    for &v in sample {
        let sid = rng.gen_range(0..b);
        sums[sid] += v;
        counts[sid] += 1;
    }
    let mut deviations = Vec::with_capacity(b);
    for i in 0..b {
        if counts[i] == 0 {
            continue;
        }
        let gi = sums[i] / counts[i] as f64;
        deviations.push((counts[i] as f64).sqrt() * (gi - g0));
    }
    let alpha = 1.0 - confidence;
    let root_n = (n.max(1) as f64).sqrt();
    ConfidenceInterval {
        estimate: g0,
        lower: g0 - quantile(&deviations, 1.0 - alpha / 2.0) / root_n,
        upper: g0 - quantile(&deviations, alpha / 2.0) / root_n,
        confidence,
    }
}

/// The paper's default subsample-size policy: `ns = √n` (Appendix B.3 shows
/// this minimises the asymptotic error of variational subsampling).
pub fn default_subsample_size(n: usize) -> usize {
    (n as f64).sqrt().round().max(1.0) as usize
}

/// SQL formulations of the error-estimation baselines, used to measure the
/// middleware runtime overhead each technique would impose (Figure 7).
///
/// Each query has two entry points: a `*_sql` convenience that renders
/// generic SQL, and a `*_sql_for` variant taking the target backend's
/// [`Dialect`](verdict_sql::dialect::Dialect) so the nondeterministic draw is
/// spelled the way that backend expects (`rand()` vs `random()`).
pub mod sql_baselines {
    use verdict_sql::dialect::{Dialect, GenericDialect};

    /// Variational subsampling as a single O(n) SQL query (paper Query 4):
    /// assign each tuple one subsample id and aggregate per (group, sid).
    pub fn variational_subsampling_sql(
        sample_table: &str,
        value_expr: &str,
        group_col: Option<&str>,
        b: u64,
    ) -> String {
        variational_subsampling_sql_for(sample_table, value_expr, group_col, b, &GenericDialect)
    }

    /// [`variational_subsampling_sql`] rendered for an explicit dialect.
    pub fn variational_subsampling_sql_for(
        sample_table: &str,
        value_expr: &str,
        group_col: Option<&str>,
        b: u64,
        dialect: &dyn Dialect,
    ) -> String {
        let rand = dialect.random_function();
        let (group_sel, group_by) = match group_col {
            Some(g) => (format!("{g}, "), format!("{g}, verdict_sid")),
            None => (String::new(), "verdict_sid".to_string()),
        };
        format!(
            "SELECT {group_sel}sum({value_expr}) AS sub_sum, count(*) AS sub_size \
             FROM (SELECT *, CAST(1 + floor({rand} * {b}) AS BIGINT) AS verdict_sid \
                   FROM {sample_table}) AS verdict_vt \
             GROUP BY {group_by}"
        )
    }

    /// Traditional subsampling expressed in SQL (paper Query 1 style): `b`
    /// independent Bernoulli subsamples, each materialised as a separate
    /// conditional-aggregation column, so every input row is touched `b` times.
    pub fn traditional_subsampling_sql(
        sample_table: &str,
        value_expr: &str,
        group_col: Option<&str>,
        b: u64,
        subsample_fraction: f64,
    ) -> String {
        traditional_subsampling_sql_for(
            sample_table,
            value_expr,
            group_col,
            b,
            subsample_fraction,
            &GenericDialect,
        )
    }

    /// [`traditional_subsampling_sql`] rendered for an explicit dialect.
    pub fn traditional_subsampling_sql_for(
        sample_table: &str,
        value_expr: &str,
        group_col: Option<&str>,
        b: u64,
        subsample_fraction: f64,
        dialect: &dyn Dialect,
    ) -> String {
        let rand = dialect.random_function();
        let mut columns = Vec::with_capacity(b as usize * 2);
        for k in 0..b {
            columns.push(format!(
                "sum(CASE WHEN {rand} < {subsample_fraction} THEN ({value_expr}) ELSE 0 END) AS sub_sum_{k}"
            ));
            columns.push(format!(
                "sum(CASE WHEN {rand} < {subsample_fraction} THEN 1 ELSE 0 END) AS sub_cnt_{k}"
            ));
        }
        let (group_sel, group_by) = match group_col {
            Some(g) => (format!("{g}, "), format!(" GROUP BY {g}")),
            None => (String::new(), String::new()),
        };
        format!(
            "SELECT {group_sel}{} FROM {sample_table}{group_by}",
            columns.join(", ")
        )
    }

    /// Cumulative CDF thresholds of a Poisson(1) count truncated at 4:
    /// P(X ≤ k) for k = 0..3 (P(0)=P(1)=e⁻¹≈.3679, P(2)≈.1839, P(3)≈.0613).
    /// A CASE over **one** uniform draw compared against these cumulative
    /// values emulates one Poisson(1) multiplicity.
    pub const POISSON1_CDF: [f64; 4] = [0.3679, 0.7358, 0.9197, 0.9810];

    /// The per-replicate Poisson(1) multiplicity CASE expression over a
    /// single pre-drawn uniform column `u`.
    fn poisson1_case(u: &str) -> String {
        format!(
            "CASE WHEN {u} < {p0} THEN 0 WHEN {u} < {p1} THEN 1 \
             WHEN {u} < {p2} THEN 2 WHEN {u} < {p3} THEN 3 ELSE 4 END",
            p0 = POISSON1_CDF[0],
            p1 = POISSON1_CDF[1],
            p2 = POISSON1_CDF[2],
            p3 = POISSON1_CDF[3],
        )
    }

    /// Consolidated bootstrap expressed in SQL: `b` resamples approximated by
    /// per-row Poisson(1) multiplicities (the standard SQL emulation), again
    /// touching every row `b` times.
    ///
    /// Each replicate's multiplicity comes from a **single** `rand()` draw
    /// (materialised as a derived `verdict_u{k}` column) compared against the
    /// cumulative [`POISSON1_CDF`] thresholds.  The previous formulation
    /// re-drew `rand()` in every WHEN branch and mixed conditional with
    /// cumulative thresholds, so the emulated multiplicities were not
    /// Poisson(1) — their mean was ≈0.94 instead of 1, biasing every
    /// bootstrap total low.
    pub fn consolidated_bootstrap_sql(
        sample_table: &str,
        value_expr: &str,
        group_col: Option<&str>,
        b: u64,
    ) -> String {
        consolidated_bootstrap_sql_for(sample_table, value_expr, group_col, b, &GenericDialect)
    }

    /// [`consolidated_bootstrap_sql`] rendered for an explicit dialect.
    pub fn consolidated_bootstrap_sql_for(
        sample_table: &str,
        value_expr: &str,
        group_col: Option<&str>,
        b: u64,
        dialect: &dyn Dialect,
    ) -> String {
        let rand = dialect.random_function();
        let draws = (0..b)
            .map(|k| format!("{rand} AS verdict_u{k}"))
            .collect::<Vec<_>>()
            .join(", ");
        let columns = (0..b)
            .map(|k| {
                format!(
                    "sum(({value_expr}) * ({})) AS boot_sum_{k}",
                    poisson1_case(&format!("verdict_u{k}"))
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let (group_sel, group_by) = match group_col {
            Some(g) => (format!("{g}, "), format!(" GROUP BY {g}")),
            None => (String::new(), String::new()),
        };
        format!(
            "SELECT {group_sel}{columns} \
             FROM (SELECT *, {draws} FROM {sample_table}) AS verdict_boot{group_by}"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::distributions::Distribution;

    fn synthetic_sample(n: usize, mean: f64, sd: f64, seed: u64) -> Vec<f64> {
        // Sum of 12 uniforms minus 6 approximates a standard normal (Irwin–Hall).
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = rand::distributions::Uniform::new(0.0f64, 1.0);
        (0..n)
            .map(|_| {
                let z: f64 = (0..12).map(|_| dist.sample(&mut rng)).sum::<f64>() - 6.0;
                mean + sd * z
            })
            .collect()
    }

    #[test]
    fn all_estimators_agree_on_large_samples() {
        let sample = synthetic_sample(20_000, 10.0, 10.0, 1);
        let clt = clt_interval(&sample, 0.95);
        let boot = bootstrap_interval(&sample, 100, 0.95, 2);
        let tsub = traditional_subsampling_interval(&sample, 100, 200, 0.95, 3);
        let vsub = variational_subsampling_interval(
            &sample,
            default_subsample_size(sample.len()),
            0.95,
            4,
        );
        for ci in [&clt, &boot, &tsub, &vsub] {
            assert!((ci.estimate - 10.0).abs() < 0.3, "estimate {}", ci.estimate);
            // all intervals should be in the same ballpark as the CLT interval
            assert!(ci.half_width() > 0.0);
            assert!(ci.half_width() < clt.half_width() * 3.0 + 1e-9);
            assert!(ci.half_width() > clt.half_width() / 3.0);
        }
    }

    #[test]
    fn coverage_of_variational_subsampling_is_close_to_nominal() {
        // Repeatedly sample and check how often the interval covers the true mean.
        let true_mean = 10.0;
        let mut covered = 0;
        let trials = 200;
        for t in 0..trials {
            let sample = synthetic_sample(4_000, true_mean, 10.0, 100 + t);
            let ci =
                variational_subsampling_interval(&sample, default_subsample_size(4_000), 0.95, t);
            if ci.contains(true_mean) {
                covered += 1;
            }
        }
        let coverage = covered as f64 / trials as f64;
        assert!(
            coverage > 0.85,
            "variational subsampling coverage {coverage} is far below nominal 0.95"
        );
    }

    #[test]
    fn interval_width_shrinks_with_sample_size() {
        let small = synthetic_sample(1_000, 10.0, 10.0, 5);
        let large = synthetic_sample(100_000, 10.0, 10.0, 6);
        let ci_small =
            variational_subsampling_interval(&small, default_subsample_size(1_000), 0.95, 7);
        let ci_large =
            variational_subsampling_interval(&large, default_subsample_size(100_000), 0.95, 8);
        assert!(ci_large.half_width() < ci_small.half_width());
    }

    #[test]
    fn default_subsample_size_is_sqrt_n() {
        assert_eq!(default_subsample_size(10_000), 100);
        assert_eq!(default_subsample_size(1_000_000), 1_000);
        assert_eq!(default_subsample_size(0), 1);
    }

    #[test]
    fn degenerate_samples_report_unbounded_error_not_perfection() {
        for sample in [Vec::new(), vec![42.0]] {
            let cis = [
                clt_interval(&sample, 0.95),
                bootstrap_interval(&sample, 50, 0.95, 1),
                traditional_subsampling_interval(&sample, 50, 10, 0.95, 2),
                variational_subsampling_interval(&sample, 5, 0.95, 3),
            ];
            for ci in cis {
                assert!(
                    ci.half_width().is_infinite(),
                    "{sample:?}: half width must be unbounded, got {ci:?}"
                );
                assert!(ci.relative_error().is_infinite());
                assert!(
                    ci.contains(123.456),
                    "an unbounded interval contains everything"
                );
                if sample.is_empty() {
                    assert!(ci.estimate.is_nan(), "no data → no point estimate");
                } else {
                    assert_eq!(ci.estimate, 42.0);
                }
            }
        }
    }

    #[test]
    fn relative_error_is_infinite_for_degenerate_estimates() {
        let ci = |estimate: f64| ConfidenceInterval {
            estimate,
            lower: estimate - 5.0,
            upper: estimate + 5.0,
            confidence: 0.95,
        };
        assert!(ci(0.0).relative_error().is_infinite());
        assert!(ci(f64::NAN).relative_error().is_infinite());
        assert!((ci(100.0).relative_error() - 0.05).abs() < 1e-12);
        // an exact zero (zero estimate, zero-width interval) is not degenerate
        let exact_zero = ConfidenceInterval {
            estimate: 0.0,
            lower: 0.0,
            upper: 0.0,
            confidence: 0.95,
        };
        assert_eq!(exact_zero.relative_error(), 0.0);
    }

    #[test]
    fn bootstrap_case_emulates_poisson1_multiplicities() {
        // Simulate the single-draw CASE the SQL emits: mean and variance of
        // the (truncated-at-4) Poisson(1) multiplicity are both ≈ 1.
        let mut rng = StdRng::seed_from_u64(9);
        let n = 200_000usize;
        let (mut sum, mut sum2) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let u: f64 = rng.gen();
            let m = sql_baselines::POISSON1_CDF
                .iter()
                .position(|&t| u < t)
                .unwrap_or(4) as f64;
            sum += m;
            sum2 += m * m;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(
            (mean - 1.0).abs() < 0.02,
            "multiplicity mean {mean} is not ~1"
        );
        assert!(
            (var - 1.0).abs() < 0.08,
            "multiplicity variance {var} is not ~1"
        );
        // one rand() draw per replicate — not one per WHEN branch
        let sql = sql_baselines::consolidated_bootstrap_sql("t", "x", None, 5);
        assert_eq!(sql.matches("rand()").count(), 5);
        verdict_sql::parse_statement(&sql).unwrap();
    }

    #[test]
    fn sql_baselines_parse_and_scale_with_b() {
        let v =
            sql_baselines::variational_subsampling_sql("orders_sample", "price", Some("city"), 100);
        verdict_sql::parse_statement(&v).unwrap();
        let t = sql_baselines::traditional_subsampling_sql(
            "orders_sample",
            "price",
            Some("city"),
            10,
            0.01,
        );
        verdict_sql::parse_statement(&t).unwrap();
        let c = sql_baselines::consolidated_bootstrap_sql("orders_sample", "price", None, 10);
        verdict_sql::parse_statement(&c).unwrap();
        // the O(b·n) baselines blow up linearly in b, the variational one does not
        assert!(t.len() > v.len() * 3);
        assert!(c.len() > v.len() * 3);
    }
}
