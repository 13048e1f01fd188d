//! Error-estimation techniques side by side.
//!
//! Reproduces the spirit of §6.4/§6.5: on a synthetic sample with known
//! statistics, compare the confidence intervals and runtimes of the central
//! limit theorem, bootstrap, traditional subsampling, and variational
//! subsampling, and show the O(n) vs O(b·n) gap of their SQL formulations.
//!
//! Run with: `cargo run --release --example error_estimation`

use std::time::Instant;
use verdict_bench::estimate::{
    bootstrap_interval, clt_interval, default_subsample_size, sql_baselines,
    traditional_subsampling_interval, variational_subsampling_interval,
};
use verdictdb::data::SyntheticGenerator;
use verdictdb::Engine;

fn main() {
    let n = 200_000;
    let sample = SyntheticGenerator::paper_default(n).values();
    let confidence = 0.95;
    let b = 100;
    let ns = default_subsample_size(n);

    println!("sample: n = {n}, true mean = 10.0, true stddev = 10.0, confidence = {confidence}");
    println!(
        "{:<26} {:>10} {:>22} {:>12}",
        "method", "estimate", "95% interval", "time"
    );

    let report = |name: &str, f: &dyn Fn() -> verdict_bench::estimate::ConfidenceInterval| {
        let start = Instant::now();
        let ci = f();
        let elapsed = start.elapsed();
        println!(
            "{:<26} {:>10.4} [{:>9.4}, {:>9.4}] {:>9.2?}",
            name, ci.estimate, ci.lower, ci.upper, elapsed
        );
    };

    report("CLT (closed form)", &|| clt_interval(&sample, confidence));
    report("bootstrap (b=100)", &|| {
        bootstrap_interval(&sample, b, confidence, 1)
    });
    report("traditional subsampling", &|| {
        traditional_subsampling_interval(&sample, b, ns, confidence, 2)
    });
    report("variational subsampling", &|| {
        variational_subsampling_interval(&sample, ns, confidence, 3)
    });

    // SQL-level comparison: run the three SQL formulations against the
    // in-memory engine and compare latencies (Figure 7's shape).
    println!("\nSQL formulations executed by the underlying engine (sample of 100K rows):");
    let engine = Engine::with_seed(9);
    SyntheticGenerator::paper_default(100_000).register(&engine);

    let variational =
        sql_baselines::variational_subsampling_sql("synthetic", "value", Some("grp"), 100);
    let traditional =
        sql_baselines::traditional_subsampling_sql("synthetic", "value", Some("grp"), 100, 0.01);
    let bootstrap =
        sql_baselines::consolidated_bootstrap_sql("synthetic", "value", Some("grp"), 100);

    for (name, sql) in [
        ("variational subsampling", &variational),
        ("traditional subsampling", &traditional),
        ("consolidated bootstrap", &bootstrap),
    ] {
        let start = Instant::now();
        let result = engine.execute_sql(sql).unwrap();
        println!(
            "  {:<26} {:>8} result rows   {:>10.2?}",
            name,
            result.table.num_rows(),
            start.elapsed()
        );
    }
    println!("\nvariational subsampling touches every row once (O(n)); the baselines touch every row b times (O(b\u{b7}n)).");

    // Session-level view: the same machinery through the SQL-only surface,
    // with the confidence level set per session (`SET confidence = c`).
    // Higher confidence → wider interval → larger estimated relative error,
    // all without touching any shared configuration.
    println!("\nper-session confidence via SQL (SET confidence = c):");
    let conn: std::sync::Arc<dyn verdictdb::Backend> = std::sync::Arc::new(engine);
    let mut config = verdictdb::VerdictConfig::for_testing();
    config.min_table_rows = 1_000;
    let ctx = std::sync::Arc::new(verdictdb::VerdictContext::new(conn, config));
    let mut session = verdictdb::VerdictSession::new(ctx);
    session
        .execute("CREATE SCRAMBLE syn_scramble FROM synthetic METHOD uniform RATIO 0.01")
        .unwrap();
    for confidence in ["0.90", "0.95", "0.99"] {
        session
            .execute(&format!("SET confidence = {confidence}"))
            .unwrap();
        let answer = session
            .execute("SELECT avg(value) AS m FROM synthetic")
            .unwrap()
            .into_answer()
            .unwrap();
        println!(
            "  confidence {confidence}: estimate {:>8.4}, max relative error {:.4}%",
            answer.table.value(0, 0).as_f64().unwrap_or(f64::NAN),
            100.0 * answer.max_relative_error()
        );
    }
}
