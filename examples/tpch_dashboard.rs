//! TPC-H decision-support queries with and without VerdictDB.
//!
//! Runs a subset of the tq-* workload twice — once exactly (`BYPASS`) and
//! once through VerdictDB — and reports the data-read reduction, the modeled
//! latency under the three engine profiles of the paper (Redshift / Spark
//! SQL / Impala), and the actual relative error of every aggregate,
//! mirroring the structure of Figures 4, 9, and 10.  Scramble preparation
//! and both execution modes are all SQL statements on one session.
//!
//! Run with: `cargo run --release --example tpch_dashboard`
//! (`VERDICT_EXAMPLE_SCALE` overrides the dataset scale, e.g. CI uses 0.02.)

use std::sync::Arc;
use verdict_bench::EngineProfile;
use verdictdb::engine::ExecStats;
use verdictdb::{Backend, Engine, VerdictConfig, VerdictContext, VerdictSession};

fn main() {
    let engine = Arc::new(Engine::with_seed(7));
    verdictdb::data::TpchGenerator::new(verdictdb::example_scale(1.0)).register(&engine);
    let conn: Arc<dyn Backend> = engine.clone();

    let mut config = VerdictConfig::default();
    config.min_table_rows = 50_000;
    config.seed = Some(5);
    let mut session = VerdictSession::new(Arc::new(VerdictContext::new(conn, config)));

    println!("building scrambles for lineitem ...");
    for ddl in [
        "CREATE SCRAMBLE li_uniform FROM lineitem METHOD uniform",
        "CREATE SCRAMBLE li_by_flag FROM lineitem METHOD stratified \
         ON l_returnflag, l_linestatus",
        "CREATE SCRAMBLE li_by_order FROM lineitem METHOD hashed ON l_orderkey",
    ] {
        session.execute(ddl).unwrap();
    }

    let queries = verdictdb::data::tpch_queries();
    let subset = ["tq-1", "tq-6", "tq-12", "tq-14", "tq-19"];

    println!(
        "\n{:<7} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "query", "exact rows", "aqp rows", "redshift", "spark", "impala", "max err%"
    );
    for q in queries.iter().filter(|q| subset.contains(&q.id)) {
        let exact = session
            .execute(&format!("BYPASS {}", q.sql))
            .unwrap()
            .into_answer()
            .unwrap();
        let approx = session.execute(&q.sql).unwrap().into_answer().unwrap();
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
            .map(|p| p.speedup(&exact_stats, &approx_stats))
            .collect();
        println!(
            "{:<7} {:>12} {:>12} {:>9.1}x {:>9.1}x {:>9.1}x {:>9.3}",
            q.id,
            exact.rows_scanned,
            approx.rows_scanned,
            speedups[0],
            speedups[1],
            speedups[2],
            100.0 * approx.max_relative_error()
        );
    }
    println!("\n(speedups are modeled engine latencies: fixed overhead + per-row scan cost + measured CPU time)");
}
