//! TPC-H decision-support queries with and without VerdictDB.
//!
//! Runs a subset of the tq-* workload both exactly (`BYPASS`) and through
//! VerdictDB, three times each and alternating, and reports the data-read
//! reduction, the median latency of each side and their ratio, and the
//! claimed and actual relative errors of every answer, mirroring the
//! structure of Figures 4, 9, and 10.  Scramble preparation and both
//! execution modes are all SQL statements on one session.
//!
//! Run with: `cargo run --release --example tpch_dashboard`
//! (`VERDICT_EXAMPLE_SCALE` overrides the dataset scale, e.g. CI uses 0.02.)

use std::sync::Arc;
use verdict_bench::{actual_relative_error, speedup, time_exact_and_approx};
use verdictdb::{Backend, Engine, VerdictConfig, VerdictContext, VerdictSession};

fn main() {
    let scale = verdictdb::example_scale(1.0);
    let engine = Arc::new(Engine::with_seed(7));
    verdictdb::data::TpchGenerator::new(scale).register(&engine);
    let conn: Arc<dyn Backend> = engine.clone();

    // The paper's τ = 1% and 2% I/O budget at scale 1; a smaller dataset
    // samples a larger share of a smaller table (at most 10%), so its
    // scrambles still hold enough rows to approximate.
    let mut config = VerdictConfig::default();
    config.min_table_rows = (50_000.0 * scale) as u64;
    config.sampling_ratio = (0.01 / scale).clamp(0.01, 0.1);
    config.io_budget = 2.0 * config.sampling_ratio;
    let mut session = VerdictSession::new(Arc::new(VerdictContext::new(conn, config)));

    println!("building scrambles for lineitem ...");
    for ddl in [
        "CREATE SCRAMBLE li_uniform FROM lineitem METHOD uniform",
        "CREATE SCRAMBLE li_by_flag FROM lineitem METHOD stratified \
         ON l_returnflag, l_linestatus",
        "CREATE SCRAMBLE li_by_order FROM lineitem METHOD hashed ON l_orderkey",
        // `<aggregate>_err` columns let the answers be matched to the truth
        "SET error_columns = on",
    ] {
        session.execute(ddl).unwrap();
    }

    let queries = verdictdb::data::tpch_queries();
    let subset = ["tq-1", "tq-6", "tq-12", "tq-14", "tq-19"];

    println!(
        "\n{:<7} {:>12} {:>12} {:>10} {:>10} {:>8} {:>9} {:>9}",
        "query", "exact rows", "aqp rows", "exact ms", "aqp ms", "speedup", "claimed%", "actual%"
    );
    let mut approximated = 0;
    for q in queries.iter().filter(|q| subset.contains(&q.id)) {
        let (exact, approx) = time_exact_and_approx(&mut session, &q.sql).unwrap();
        approximated += usize::from(approx.answer.rows_scanned < exact.answer.rows_scanned);
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        println!(
            "{:<7} {:>12} {:>12} {:>10.2} {:>10.2} {:>7.1}x {:>9.3} {:>9.3}",
            q.id,
            exact.answer.rows_scanned,
            approx.answer.rows_scanned,
            ms(exact.median),
            ms(approx.median),
            speedup(exact.median, approx.median),
            100.0 * approx.answer.max_relative_error(),
            100.0
                * actual_relative_error(&approx.answer.table, &exact.answer.table)
                    .worst_relative_error
        );
    }
    println!("\n(latencies are medians of 3 runs per side, measured on this machine)");
    if approximated == 0 {
        eprintln!("tpch_dashboard: no query scanned fewer rows approximately than exactly");
        std::process::exit(1);
    }
}
