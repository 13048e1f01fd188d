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
//! Every latency the harness reports is measured: [`time_alternating`] runs
//! the two sides of a comparison three times each, alternating, and keeps
//! the median.  Errors are matched by group key ([`actual_relative_error`]).
//!
//! The baselines the paper compares against, which no SQL statement of the
//! product reaches, live here too: the error-estimation baselines
//! ([`estimate`]) and the tightly-integrated AQP baseline ([`integrated`]) —
//! and so does the scalar reference the Answer Rewriter is tested against
//! ([`scalar_assemble`]).

pub mod estimate;
pub mod integrated;
pub mod kernel;
pub mod scalar_assemble;

use estimate::{
    bootstrap_interval, clt_interval, default_subsample_size, sql_baselines,
    traditional_subsampling_interval, variational_subsampling_interval,
};
use integrated::{IntegratedAqp, IntegratedSample};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use verdict_core::sample::{SampleType, SAMPLE_TABLE_PREFIX};
use verdict_core::{
    VerdictAnswer, VerdictConfig, VerdictContext, VerdictError, VerdictResponse, VerdictResult,
    VerdictSession,
};
use verdict_data::{
    instacart_queries, tpch_queries, InstacartGenerator, SyntheticGenerator, TpchGenerator,
};
use verdict_engine::{Backend, Engine, KeyValue, Table};

/// One per-query row of the speedup/error experiments (Figures 4, 9, 10).
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    pub query: String,
    pub exact_rows_scanned: u64,
    pub approx_rows_scanned: u64,
    /// Median elapsed time of the exact (`BYPASS`) runs.
    pub exact_elapsed: Duration,
    /// Median elapsed time of the approximate runs.
    pub approx_elapsed: Duration,
    /// The approximate answer matched to the exact one by group key.
    pub accuracy: Accuracy,
    /// The error the approximate answer claims for itself
    /// ([`VerdictAnswer::max_relative_error`]).
    pub claimed_relative_error: f64,
    /// True when VerdictDB fell back to exact execution.
    pub fell_back: bool,
}

/// Exact latency over approximate latency.
pub fn speedup(exact: Duration, approx: Duration) -> f64 {
    exact.as_secs_f64() / approx.as_secs_f64().max(1e-9)
}

/// How many times [`time_alternating`] runs each side of a comparison.
pub const TIMED_RUNS: usize = 3;

/// An answer and the median elapsed time of [`TIMED_RUNS`] runs.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// The first run's answer.
    pub answer: T,
    pub median: Duration,
}

fn timed<T>(runs: Vec<(Duration, T)>) -> Timed<T> {
    let mut times: Vec<Duration> = runs.iter().map(|r| r.0).collect();
    times.sort();
    let (_, answer) = runs.into_iter().next().expect("TIMED_RUNS > 0");
    Timed {
        answer,
        median: times[TIMED_RUNS / 2],
    }
}

/// Runs `a` and `b` [`TIMED_RUNS`] times each, alternating, so that a change
/// in the machine's load falls on both sides.  Each run returns its elapsed
/// time and its answer.  Every repeat is computed: a context's answer cache
/// holds nothing unless `answer_cache_capacity` is set.
pub fn time_alternating<S, A, B>(
    state: &mut S,
    mut a: impl FnMut(&mut S) -> VerdictResult<(Duration, A)>,
    mut b: impl FnMut(&mut S) -> VerdictResult<(Duration, B)>,
) -> VerdictResult<(Timed<A>, Timed<B>)> {
    let (mut runs_a, mut runs_b) = (Vec::new(), Vec::new());
    for _ in 0..TIMED_RUNS {
        runs_a.push(a(state)?);
        runs_b.push(b(state)?);
    }
    Ok((timed(runs_a), timed(runs_b)))
}

/// `sql` answered exactly (`BYPASS`) and approximately on one session, timed
/// by [`time_alternating`].
pub fn time_exact_and_approx(
    session: &mut VerdictSession,
    sql: &str,
) -> VerdictResult<(Timed<VerdictAnswer>, Timed<VerdictAnswer>)> {
    let bypass = format!("BYPASS {sql}");
    let run = |s: &mut VerdictSession, sql: &str| answer(s, sql).map(|a| (a.elapsed, a));
    time_alternating(session, |s| run(s, &bypass), |s| run(s, sql))
}

/// Names the query a statement failure belongs to.
fn failed(query: &str) -> impl FnOnce(VerdictError) -> String + '_ {
    move |e| format!("{query}: {e}")
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

/// Figures 4, 9, 10: per-query measured speedups and actual relative errors
/// for the full tq-*/iq-* workload.  A statement the session refuses fails
/// the experiment, named by its query id.
pub fn speedup_experiment(ctx: &Arc<VerdictContext>) -> Result<Vec<SpeedupRow>, String> {
    let mut session = VerdictSession::new(Arc::clone(ctx));
    session
        .execute("SET error_columns = on")
        .map_err(failed("SET error_columns"))?;
    let mut rows = Vec::new();
    for q in tpch_queries().iter().chain(instacart_queries().iter()) {
        let (exact, approx) = time_exact_and_approx(&mut session, &q.sql).map_err(failed(q.id))?;
        rows.push(SpeedupRow {
            query: q.id.to_string(),
            exact_rows_scanned: exact.answer.rows_scanned,
            approx_rows_scanned: approx.answer.rows_scanned,
            exact_elapsed: exact.median,
            approx_elapsed: approx.median,
            accuracy: actual_relative_error(&approx.answer.table, &exact.answer.table),
            claimed_relative_error: approx.answer.max_relative_error(),
            fell_back: approx.answer.exact,
        });
    }
    Ok(rows)
}

/// An approximate answer matched to the exact one by group key.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accuracy {
    /// Worst relative error over the matched aggregate cells.
    pub worst_relative_error: f64,
    /// Aggregate cells compared: a matched group's estimates whose truth is
    /// nonzero.
    pub matched_cells: usize,
    /// Exact groups the approximate answer does not have.
    pub missing_groups: usize,
}

/// Matches the rows of an approximate answer, shaped with error columns
/// (`SET error_columns = on`), to the rows of the exact one.  A column with a
/// `<name>_err` companion is an aggregate; every other column the exact
/// answer also has is part of the group key, so a one-row answer matches on
/// the empty key and row order plays no part.
pub fn actual_relative_error(approx: &Table, exact: &Table) -> Accuracy {
    let names = approx.schema.names();
    let (mut approx_keys, mut exact_keys, mut aggregates) = (Vec::new(), Vec::new(), Vec::new());
    for (a, name) in names.iter().enumerate() {
        let Some(e) = exact.schema.index_of(name) else {
            continue;
        };
        if names.contains(&format!("{name}_err")) {
            aggregates.push((a, e));
        } else {
            approx_keys.push(a);
            exact_keys.push(e);
        }
    }
    let key_of = |table: &Table, row: usize, cols: &[usize]| -> Vec<KeyValue> {
        cols.iter()
            .map(|&c| KeyValue::from_value(&table.value_at(row, c)))
            .collect()
    };
    let approx_rows: HashMap<Vec<KeyValue>, usize> = (0..approx.num_rows())
        .map(|r| (key_of(approx, r, &approx_keys), r))
        .collect();
    let mut out = Accuracy::default();
    for re in 0..exact.num_rows() {
        let Some(&ra) = approx_rows.get(&key_of(exact, re, &exact_keys)) else {
            out.missing_groups += 1;
            continue;
        };
        for &(a, e) in &aggregates {
            let (Some(est), Some(truth)) =
                (approx.value(ra, a).as_f64(), exact.value(re, e).as_f64())
            else {
                continue;
            };
            if truth.abs() < 1e-12 || !est.is_finite() {
                continue;
            }
            out.worst_relative_error = out
                .worst_relative_error
                .max((est - truth).abs() / truth.abs());
            out.matched_cells += 1;
        }
    }
    out
}

/// Figure 5: speedup versus original data size with the sample size held
/// fixed.  Returns `(scale, exact, approximate)` median latencies of tq-6.
pub fn scaling_experiment(scales: &[f64]) -> Result<Vec<(f64, Duration, Duration)>, String> {
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
        create_scramble(&mut session, "lineitem", "uniform", &[]).map_err(failed("tq-6"))?;
        let (exact, approx) = time_exact_and_approx(&mut session, sql).map_err(failed("tq-6"))?;
        out.push((scale, exact.median, approx.median));
    }
    Ok(out)
}

/// Figure 6: VerdictDB versus the tightly-integrated AQP baseline.  Returns
/// `(query id, verdict latency, integrated latency)` medians; the integrated
/// side is the baseline's refusal where it has one.
pub fn integrated_comparison(
    ctx: &Arc<VerdictContext>,
) -> Result<Vec<(String, Duration, VerdictResult<Duration>)>, String> {
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
        let (verdict, baseline) = time_alternating(
            &mut session,
            |s| answer(s, &q.sql).map(|a| (a.elapsed, ())),
            |_| {
                Ok(match integrated.execute(&q.sql) {
                    Ok(a) => (a.elapsed, Ok(())),
                    Err(e) => (Duration::ZERO, Err(e)),
                })
            },
        )
        .map_err(failed(q.id))?;
        let baseline = baseline.answer.map(|()| baseline.median);
        rows.push((q.id.to_string(), verdict.median, baseline));
    }
    Ok(rows)
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
    use verdict_engine::TableBuilder;

    #[test]
    fn speedup_experiment_produces_rows_with_speedups_over_one() {
        // Wall-clock ratios are the box's; what the sampling plan decides is
        // not: most queries read a sample, and every sampled answer is
        // compared to the truth somewhere.
        let ctx = workload_context(0.05, 0.08, 0.05);
        let rows = speedup_experiment(&ctx).unwrap();
        assert_eq!(rows.len(), 33);
        let approximated: Vec<&SpeedupRow> = rows.iter().filter(|r| !r.fell_back).collect();
        let sampled = approximated
            .iter()
            .filter(|r| r.approx_rows_scanned < r.exact_rows_scanned)
            .count();
        assert!(sampled >= 20, "only {sampled} queries scanned fewer rows");
        for r in &approximated {
            assert!(
                r.accuracy.matched_cells >= 1,
                "{}: {:?}",
                r.query,
                r.accuracy
            );
            let s = speedup(r.exact_elapsed, r.approx_elapsed);
            assert!(s.is_finite() && s > 0.0);
        }
    }

    fn answer_table(keys: &[(&str, &[&str])], aggregates: &[(&str, &[f64])]) -> Table {
        let mut b = TableBuilder::new();
        for (name, values) in keys {
            b = b.str_column(name, values.iter().map(|v| v.to_string()).collect());
        }
        for (name, values) in aggregates {
            b = b.float_column(name, values.to_vec());
        }
        b.build().unwrap()
    }

    #[test]
    fn a_one_row_answer_is_matched_to_the_truth() {
        let approx = answer_table(&[], &[("s", &[110.0]), ("s_err", &[5.0])]);
        let exact = answer_table(&[], &[("s", &[100.0])]);
        let acc = actual_relative_error(&approx, &exact);
        assert!((acc.worst_relative_error - 0.10).abs() < 1e-12, "{acc:?}");
        assert_eq!((acc.matched_cells, acc.missing_groups), (1, 0));
    }

    #[test]
    fn a_missing_group_is_counted_and_the_others_still_compared() {
        let approx = answer_table(
            &[("city", &["a", "c"])],
            &[("n", &[105.0, 30.0]), ("n_err", &[1.0, 1.0])],
        );
        let exact = answer_table(
            &[("city", &["a", "b", "c"])],
            &[("n", &[100.0, 50.0, 40.0])],
        );
        let acc = actual_relative_error(&approx, &exact);
        assert_eq!((acc.matched_cells, acc.missing_groups), (2, 1));
        assert!((acc.worst_relative_error - 0.25).abs() < 1e-12, "{acc:?}");
    }

    #[test]
    fn an_answer_ordered_by_its_estimate_is_matched_by_key() {
        // GROUP BY city, dow ORDER BY n: the estimates put the two groups
        // in the other order, and `city` alone does not tell them apart.
        let approx = answer_table(
            &[("city", &["a", "a"]), ("dow", &["2", "1"])],
            &[("n", &[99.0, 110.0]), ("n_err", &[1.0, 1.0])],
        );
        let exact = answer_table(
            &[("city", &["a", "a"]), ("dow", &["1", "2"])],
            &[("n", &[100.0, 90.0])],
        );
        let acc = actual_relative_error(&approx, &exact);
        assert_eq!((acc.matched_cells, acc.missing_groups), (2, 0));
        assert!((acc.worst_relative_error - 0.10).abs() < 1e-12, "{acc:?}");
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
