//! Benchmark harness reproducing the tables and figures of the VerdictDB
//! evaluation (§6 and Appendix B of the paper).
//!
//! Each experiment is a plain function returning printable rows, which the
//! `reproduce` binary prints as EXPERIMENTS.md-style tables; the kernel perf
//! snapshot and its gate are the `verdict-bench` binary over [`kernel`].
//! Scales are parameters: the defaults
//! target seconds-per-experiment on a laptop; the shapes — who wins, by
//! roughly what factor, where the crossovers fall — are what the paper's
//! conclusions rest on and are preserved at any scale.
//!
//! The models the paper compares against, which no SQL statement of the
//! product reaches, live here too: the error-estimation baselines
//! ([`estimate`]), the per-engine latency profiles ([`profile`]) and the
//! tightly-integrated AQP baseline ([`integrated`]) — and so does the scalar
//! reference the Answer Rewriter is tested against ([`scalar_assemble`]).

pub mod estimate;
pub mod integrated;
pub mod kernel;
pub mod profile;
pub mod scalar_assemble;

pub use profile::EngineProfile;

use estimate::{
    bootstrap_interval, clt_interval, default_subsample_size, sql_baselines,
    traditional_subsampling_interval, variational_subsampling_interval,
};
use integrated::{IntegratedAqp, IntegratedSample};
use std::sync::Arc;
use std::time::{Duration, Instant};
use verdict_core::sample::{SampleType, SAMPLE_TABLE_PREFIX};
use verdict_core::{
    VerdictAnswer, VerdictConfig, VerdictContext, VerdictResponse, VerdictResult, VerdictSession,
};
use verdict_data::{
    instacart_queries, tpch_queries, InstacartGenerator, SyntheticGenerator, TpchGenerator,
};
use verdict_engine::{Backend, Engine, ExecStats};

/// One per-query row of the speedup/error experiments (Figures 4, 9, 10).
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    pub query: String,
    pub exact_rows_scanned: u64,
    pub approx_rows_scanned: u64,
    pub exact_elapsed: Duration,
    pub approx_elapsed: Duration,
    /// Modeled speedup per engine profile, in [redshift, sparksql, impala] order.
    pub speedups: Vec<f64>,
    /// Worst actual relative error of the approximate answer vs the exact one.
    pub actual_relative_error: f64,
    /// True when VerdictDB fell back to exact execution.
    pub fell_back: bool,
}

/// Builds one scramble through the SQL DDL, under the name the default
/// sampling policy derives for it.
fn create_scramble(
    session: &mut VerdictSession,
    table: &str,
    method: &str,
    on: &[&str],
) -> VerdictResult<VerdictResponse> {
    let mut name = format!("{SAMPLE_TABLE_PREFIX}_{table}_{method}");
    let mut clause = String::new();
    if !on.is_empty() {
        name = format!("{name}_{}", on.join("_"));
        clause = format!(" ON {}", on.join(", "));
    }
    session.execute(&format!(
        "CREATE SCRAMBLE {name} FROM {table} METHOD {method}{clause}"
    ))
}

/// The answer to one query statement (`BYPASS <query>` for the exact one).
fn answer(session: &mut VerdictSession, sql: &str) -> VerdictResult<VerdictAnswer> {
    session.execute(sql)?.into_answer()
}

/// Builds a fully-sampled workload context shared by the speedup experiments.
pub fn workload_context(
    insta_scale: f64,
    tpch_scale: f64,
    sampling_ratio: f64,
) -> Arc<VerdictContext> {
    let engine = Arc::new(Engine::with_seed(20180610));
    InstacartGenerator::new(insta_scale).register(&engine);
    TpchGenerator::new(tpch_scale).register(&engine);
    let conn: Arc<dyn Backend> = engine;
    let mut config = VerdictConfig::default();
    config.min_table_rows = 10_000;
    config.sampling_ratio = sampling_ratio;
    config.io_budget = (sampling_ratio * 2.5).min(0.5);
    config.seed = Some(4);
    let ctx = Arc::new(VerdictContext::new(conn, config));
    let mut session = VerdictSession::new(Arc::clone(&ctx));
    for table in ["order_products", "lineitem", "tpch_orders", "orders"] {
        let _ = create_scramble(&mut session, table, "uniform", &[]);
    }
    for (table, method, on) in [
        ("orders", "hashed", &["order_id"][..]),
        ("order_products", "hashed", &["order_id"]),
        ("lineitem", "hashed", &["l_orderkey"]),
        ("tpch_orders", "hashed", &["o_orderkey"]),
        ("lineitem", "stratified", &["l_returnflag", "l_linestatus"]),
        ("orders", "stratified", &["city"]),
    ] {
        let _ = create_scramble(&mut session, table, method, on);
    }
    ctx
}

/// Figures 4, 9, 10: per-query speedups (under the three engine profiles) and
/// actual relative errors for the full tq-*/iq-* workload.
pub fn speedup_experiment(ctx: &Arc<VerdictContext>) -> Vec<SpeedupRow> {
    let mut session = VerdictSession::new(Arc::clone(ctx));
    let mut rows = Vec::new();
    for q in tpch_queries().iter().chain(instacart_queries().iter()) {
        let Ok(exact) = answer(&mut session, &format!("BYPASS {}", q.sql)) else {
            continue;
        };
        let Ok(approx) = answer(&mut session, &q.sql) else {
            continue;
        };
        let exact_stats = ExecStats {
            rows_scanned: exact.rows_scanned,
            elapsed: exact.elapsed,
        };
        let approx_stats = ExecStats {
            rows_scanned: approx.rows_scanned,
            elapsed: approx.elapsed,
        };
        let speedups: Vec<f64> = EngineProfile::all()
            .iter()
            .map(|p| {
                if approx.exact {
                    1.0
                } else {
                    p.speedup(&exact_stats, &approx_stats)
                }
            })
            .collect();
        rows.push(SpeedupRow {
            query: q.id.to_string(),
            exact_rows_scanned: exact.rows_scanned,
            approx_rows_scanned: approx.rows_scanned,
            exact_elapsed: exact.elapsed,
            approx_elapsed: approx.elapsed,
            speedups,
            actual_relative_error: actual_relative_error(&approx.table, &exact.table),
            fell_back: approx.exact,
        });
    }
    rows
}

/// Worst relative difference between the numeric columns of an approximate
/// and an exact result (rows matched positionally after both are sorted by
/// their first column).
pub fn actual_relative_error(approx: &verdict_engine::Table, exact: &verdict_engine::Table) -> f64 {
    if approx.num_rows() == 0 || exact.num_rows() == 0 || approx.num_rows() != exact.num_rows() {
        return 0.0;
    }
    // Rows are matched on the first column's value (the group key) so that
    // answers ordered by an *estimated* aggregate are still compared
    // group-to-group; single-row answers match trivially.
    let mut exact_by_key: std::collections::HashMap<verdict_engine::KeyValue, usize> =
        std::collections::HashMap::new();
    for r in 0..exact.num_rows() {
        exact_by_key.insert(
            verdict_engine::KeyValue::from_value(&exact.value_at(r, 0)),
            r,
        );
    }
    let mut worst: f64 = 0.0;
    for ra in 0..approx.num_rows() {
        let key = verdict_engine::KeyValue::from_value(&approx.value_at(ra, 0));
        let Some(&re) = exact_by_key.get(&key) else {
            continue;
        };
        for c in 0..exact.num_columns().min(approx.num_columns()) {
            let (Some(a), Some(e)) = (approx.value(ra, c).as_f64(), exact.value(re, c).as_f64())
            else {
                continue;
            };
            if e.abs() > 1e-9 {
                worst = worst.max((a - e).abs() / e.abs());
            }
        }
    }
    worst
}

/// Figure 5: speedup versus original data size with the sample size held
/// fixed.  Returns `(scale, modeled redshift speedup)` pairs for tq-6.
pub fn scaling_experiment(scales: &[f64]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let sql = &tpch_queries()
        .iter()
        .find(|q| q.id == "tq-6")
        .unwrap()
        .sql
        .clone();
    for &scale in scales {
        let engine = Arc::new(Engine::with_seed(3));
        TpchGenerator::new(scale).register(&engine);
        let conn: Arc<dyn Backend> = engine;
        let mut config = VerdictConfig::default();
        config.min_table_rows = 10_000;
        // fixed-size sample: ratio shrinks as the data grows
        config.sampling_ratio = (0.02 / scale).min(0.5);
        config.io_budget = (config.sampling_ratio * 2.5).min(0.6);
        config.seed = Some(9);
        let ctx = Arc::new(VerdictContext::new(conn, config));
        let mut session = VerdictSession::new(ctx);
        let _ = create_scramble(&mut session, "lineitem", "uniform", &[]);
        let exact = answer(&mut session, &format!("BYPASS {sql}")).unwrap();
        let approx = answer(&mut session, sql).unwrap();
        let profile = EngineProfile::redshift();
        let speedup = profile.speedup(
            &ExecStats {
                rows_scanned: exact.rows_scanned,
                elapsed: exact.elapsed,
            },
            &ExecStats {
                rows_scanned: approx.rows_scanned,
                elapsed: approx.elapsed,
            },
        );
        out.push((scale, speedup));
    }
    out
}

/// Figure 6: VerdictDB versus the tightly-integrated AQP baseline.
/// Returns `(query id, verdict latency, integrated latency, verdict wins)`.
pub fn integrated_comparison(ctx: &Arc<VerdictContext>) -> Vec<(String, Duration, Duration, bool)> {
    let mut session = VerdictSession::new(Arc::clone(ctx));
    let mut integrated = IntegratedAqp::new(Arc::clone(ctx.connection()));
    for meta in ctx.meta().all() {
        if matches!(meta.sample_type, SampleType::Uniform) {
            integrated.register_sample(IntegratedSample {
                base_table: meta.base_table.clone(),
                sample_table: meta.sample_table.clone(),
                ratio: meta.ratio,
            });
        }
    }
    let mut rows = Vec::new();
    for q in instacart_queries().iter().chain(tpch_queries().iter()) {
        let Ok(verdict) = answer(&mut session, &q.sql) else {
            continue;
        };
        let Ok(snappy) = integrated.execute(&q.sql) else {
            continue;
        };
        // model the latency so the fixed middleware overhead matters the same
        // way for both systems
        let profile = EngineProfile::spark_sql();
        let v = profile.model_latency(&ExecStats {
            rows_scanned: verdict.rows_scanned,
            elapsed: verdict.elapsed,
        });
        let s = profile.model_latency(&ExecStats {
            rows_scanned: snappy.rows_scanned,
            elapsed: snappy.elapsed,
        });
        rows.push((q.id.to_string(), v, s, v < s));
    }
    rows
}

/// Table 2: sampling-based count-distinct / median versus the engine's native
/// approximate aggregates (full-scan sketches).  Returns rows of
/// `(label, verdict rows scanned, native rows scanned, verdict err, native err)`.
pub fn native_approx_comparison(ctx: &Arc<VerdictContext>) -> Vec<(String, u64, u64, f64, f64)> {
    let mut session = VerdictSession::new(Arc::clone(ctx));
    let conn = ctx.connection();
    let mut rows = Vec::new();

    let exact_distinct = conn
        .execute("SELECT count(DISTINCT order_id) AS d FROM order_products")
        .unwrap();
    let truth = exact_distinct.table.value(0, 0).as_f64().unwrap();
    let verdict = answer(
        &mut session,
        "SELECT count(DISTINCT order_id) AS d FROM order_products",
    )
    .unwrap();
    let native = conn
        .execute("SELECT ndv(order_id) AS d FROM order_products")
        .unwrap();
    rows.push((
        "count-distinct".to_string(),
        verdict.rows_scanned,
        native.stats.rows_scanned,
        (verdict.table.value(0, 0).as_f64().unwrap() - truth).abs() / truth,
        (native.table.value(0, 0).as_f64().unwrap() - truth).abs() / truth,
    ));

    let exact_median = conn
        .execute("SELECT median(price) AS m FROM order_products")
        .unwrap();
    let truth = exact_median.table.value(0, 0).as_f64().unwrap();
    let verdict = answer(
        &mut session,
        "SELECT median(price) AS m FROM order_products",
    )
    .unwrap();
    let native = conn
        .execute("SELECT approx_median(price) AS m FROM order_products")
        .unwrap();
    rows.push((
        "median".to_string(),
        verdict.rows_scanned,
        native.stats.rows_scanned,
        (verdict.table.value(0, 0).as_f64().unwrap() - truth).abs() / truth,
        (native.table.value(0, 0).as_f64().unwrap() - truth).abs() / truth,
    ));
    rows
}

/// Figure 7: middleware runtime of the three SQL error-estimation strategies
/// over a sample table, for flat / join / nested query shapes.  Returns
/// `(shape, variational, traditional, consolidated bootstrap)` latencies.
pub fn estimation_overhead(
    sample_rows: usize,
    b: u64,
) -> Vec<(String, Duration, Duration, Duration)> {
    let engine = Engine::with_seed(17);
    SyntheticGenerator::paper_default(sample_rows).register(&engine);
    // a second sample table for the join shape
    engine
        .execute_sql("CREATE TABLE synthetic_dim AS SELECT grp, avg(value) AS grp_value FROM synthetic GROUP BY grp")
        .unwrap();

    let time = |sql: &str| {
        let start = Instant::now();
        engine.execute_sql(sql).unwrap();
        start.elapsed()
    };

    let mut out = Vec::new();
    // flat
    out.push((
        "flat".to_string(),
        time(&sql_baselines::variational_subsampling_sql(
            "synthetic",
            "value",
            Some("grp"),
            b,
        )),
        time(&sql_baselines::traditional_subsampling_sql(
            "synthetic",
            "value",
            Some("grp"),
            b,
            0.01,
        )),
        time(&sql_baselines::consolidated_bootstrap_sql(
            "synthetic",
            "value",
            Some("grp"),
            b,
        )),
    ));
    // join: the same estimators over a joined source
    let join_src = "synthetic INNER JOIN synthetic_dim ON synthetic.grp = synthetic_dim.grp";
    out.push((
        "join".to_string(),
        time(&sql_baselines::variational_subsampling_sql(
            join_src,
            "value",
            Some("grp"),
            b,
        )),
        time(&sql_baselines::traditional_subsampling_sql(
            join_src,
            "value",
            Some("grp"),
            b,
            0.01,
        )),
        time(&sql_baselines::consolidated_bootstrap_sql(
            join_src,
            "value",
            Some("grp"),
            b,
        )),
    ));
    // nested: estimators over an aggregate-in-FROM derived table
    let nested_src =
        "(SELECT grp, id, sum(value) AS value FROM synthetic GROUP BY grp, id) AS nested_t";
    out.push((
        "nested".to_string(),
        time(&sql_baselines::variational_subsampling_sql(
            nested_src,
            "value",
            Some("grp"),
            b,
        )),
        time(&sql_baselines::traditional_subsampling_sql(
            nested_src,
            "value",
            Some("grp"),
            b,
            0.01,
        )),
        time(&sql_baselines::consolidated_bootstrap_sql(
            nested_src,
            "value",
            Some("grp"),
            b,
        )),
    ));
    out
}

/// Figures 8a/8b/12/13/14: error-estimation accuracy experiments on the
/// synthetic dataset.  All return `(x, estimated relative error)` series,
/// with the method-specific comparisons bundled where the figure needs them.
pub mod accuracy {
    use super::*;

    /// Figure 8a: estimated count error across selectivities (n = 10K).
    pub fn selectivity_sweep(selectivities: &[f64]) -> Vec<(f64, f64, f64)> {
        let n = 10_000;
        let gen = SyntheticGenerator::paper_default(200_000);
        let values = gen.values();
        let mut out = Vec::new();
        for &sel in selectivities {
            // groundtruth: count estimate error for a Bernoulli(sel) predicate
            // estimated from a sample of size n out of the population
            let population = values.len() as f64;
            let truth_count = population * sel;
            let sample: Vec<f64> = values.iter().take(n).copied().collect();
            // the estimator counts qualifying sample rows scaled to the population
            let qualifying: Vec<f64> = sample
                .iter()
                .enumerate()
                .map(|(i, _)| {
                    if (i as f64 / n as f64) < sel {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            let ci =
                variational_subsampling_interval(&qualifying, default_subsample_size(n), 0.95, 7);
            let estimated_rel = ci.half_width() / sel.max(1e-9);
            let groundtruth_rel = 1.96 * ((sel * (1.0 - sel) / n as f64).sqrt()) / sel;
            out.push((sel, estimated_rel, groundtruth_rel));
            let _ = truth_count;
        }
        out
    }

    /// Figures 8b/12: relative error of the estimated bound per method, for
    /// several sample sizes. Returns `(n, clt, bootstrap, subsampling, variational)`.
    pub fn sample_size_sweep(sizes: &[usize], b: usize) -> Vec<(usize, f64, f64, f64, f64)> {
        let mut out = Vec::new();
        for &n in sizes {
            let values = SyntheticGenerator::paper_default(n).values();
            let truth = 1.96 * 10.0 / (n as f64).sqrt() / 10.0; // true relative error of the mean
            let rel = |hw: f64| ((hw / 10.0) - truth).abs() / truth;
            let clt = clt_interval(&values, 0.95);
            let boot = bootstrap_interval(&values, b, 0.95, 1);
            let tsub =
                traditional_subsampling_interval(&values, b, default_subsample_size(n), 0.95, 2);
            let vsub =
                variational_subsampling_interval(&values, default_subsample_size(n), 0.95, 3);
            out.push((
                n,
                rel(clt.half_width()),
                rel(boot.half_width()),
                rel(tsub.half_width()),
                rel(vsub.half_width()),
            ));
        }
        out
    }

    /// Figure 13: accuracy and latency versus the number of resamples b.
    /// Returns `(b, bootstrap err, subsampling err, variational err, bootstrap time, variational time)`.
    pub fn resample_count_sweep(
        n: usize,
        bs: &[usize],
    ) -> Vec<(usize, f64, f64, f64, Duration, Duration)> {
        let values = SyntheticGenerator::paper_default(n).values();
        let truth = 1.96 * 10.0 / (n as f64).sqrt() / 10.0;
        let rel = |hw: f64| ((hw / 10.0) - truth).abs() / truth;
        let mut out = Vec::new();
        for &b in bs {
            let t0 = Instant::now();
            let boot = bootstrap_interval(&values, b, 0.95, 1);
            let boot_time = t0.elapsed();
            let tsub = traditional_subsampling_interval(&values, b, n / b.max(1), 0.95, 2);
            let t1 = Instant::now();
            let vsub = variational_subsampling_interval(&values, n / b.max(1), 0.95, 3);
            let vsub_time = t1.elapsed();
            out.push((
                b,
                rel(boot.half_width()),
                rel(tsub.half_width()),
                rel(vsub.half_width()),
                boot_time,
                vsub_time,
            ));
        }
        out
    }

    /// Figure 14: relative error of the error bound versus the subsample size
    /// exponent (ns = n^x).  Returns `(exponent, relative error)`.
    pub fn subsample_size_sweep(n: usize, exponents: &[f64]) -> Vec<(f64, f64)> {
        let values = SyntheticGenerator::paper_default(n).values();
        let truth = 1.96 * 10.0 / (n as f64).sqrt() / 10.0;
        exponents
            .iter()
            .map(|&x| {
                let ns = (n as f64).powf(x).round().max(2.0) as usize;
                let ci = variational_subsampling_interval(&values, ns, 0.95, 11);
                (x, ((ci.half_width() / 10.0) - truth).abs() / truth)
            })
            .collect()
    }
}

/// Figure 11: sample-preparation time versus baseline data-movement work.
/// Returns `(task, duration)` rows.
pub fn preparation_time(scale: f64) -> Vec<(String, Duration)> {
    let engine = Arc::new(Engine::with_seed(23));
    InstacartGenerator::new(scale).register(&engine);
    let conn: Arc<dyn Backend> = engine.clone();
    let mut config = VerdictConfig::default();
    config.min_table_rows = 10_000;
    let mut session = VerdictSession::new(Arc::new(VerdictContext::new(conn, config)));

    // baseline: "data transfer" modelled as a full copy of the fact table
    let t0 = Instant::now();
    engine
        .execute_sql("CREATE TABLE order_products_copy AS SELECT * FROM order_products")
        .unwrap();
    let copy_time = t0.elapsed();

    let t1 = Instant::now();
    create_scramble(&mut session, "order_products", "uniform", &[]).unwrap();
    let uniform_time = t1.elapsed();

    let t2 = Instant::now();
    create_scramble(&mut session, "orders", "stratified", &["city"]).unwrap();
    let stratified_time = t2.elapsed();

    vec![
        ("full data copy (transfer baseline)".to_string(), copy_time),
        ("uniform sample creation".to_string(), uniform_time),
        ("stratified sample creation".to_string(), stratified_time),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_experiment_produces_rows_with_speedups_over_one() {
        let ctx = workload_context(0.05, 0.08, 0.05);
        let rows = speedup_experiment(&ctx);
        assert!(rows.len() >= 30);
        let sped_up = rows
            .iter()
            .filter(|r| !r.fell_back && r.speedups[0] > 1.0)
            .count();
        assert!(sped_up >= 20, "only {sped_up} queries sped up");
        // fallback queries report 1x
        assert!(rows
            .iter()
            .filter(|r| r.fell_back)
            .all(|r| r.speedups[0] == 1.0));
    }

    #[test]
    fn estimation_overhead_shows_variational_beats_bootstrap() {
        // Note: on the vectorized in-memory engine the O(b·n) baselines are
        // cheaper than they would be on the paper's distributed engines (a
        // CASE column costs far less than re-materialising resamples), so the
        // gap here is smaller than the paper's 100-350x; the invariant that
        // must hold is that variational subsampling never loses to the
        // consolidated-bootstrap formulation on flat and join queries.
        let rows = estimation_overhead(50_000, 100);
        for (shape, vsub, _tsub, boot) in rows {
            if shape == "nested" {
                continue;
            }
            assert!(
                vsub < boot,
                "{shape}: variational {vsub:?} should beat bootstrap {boot:?}"
            );
        }
    }

    #[test]
    fn subsample_size_sweep_has_minimum_near_sqrt_n() {
        let rows = accuracy::subsample_size_sweep(100_000, &[0.25, 0.5, 0.75]);
        let at = |x: f64| rows.iter().find(|(e, _)| (*e - x).abs() < 1e-9).unwrap().1;
        assert!(at(0.5) <= at(0.25) * 1.5 + 0.05);
        assert!(at(0.5) <= at(0.75) * 1.5 + 0.05);
    }
}
