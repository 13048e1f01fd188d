//! Quickstart: the complete VerdictDB workflow in one file — all through the
//! SQL-only session surface.
//!
//! 1. load data into the "underlying database" (the in-memory engine),
//! 2. build scrambles offline with `CREATE SCRAMBLE … FROM …`,
//! 3. run an analytical query, tune per-session accuracy with `SET`, and
//!    compare against the exact answer via `BYPASS`.
//!
//! Run with: `cargo run --release --example quickstart`
//! (`VERDICT_EXAMPLE_SCALE` overrides the dataset scale, e.g. CI uses 0.02.)

use std::sync::Arc;
use verdictdb::{Backend, Engine, VerdictConfig, VerdictContext, VerdictResponse, VerdictSession};

fn main() {
    // --- 1. the underlying database -------------------------------------
    let engine = Arc::new(Engine::with_seed(42));
    verdictdb::data::InstacartGenerator::new(verdictdb::example_scale(0.5)).register(&engine);
    let conn: Arc<dyn Backend> = engine.clone();

    let mut config = VerdictConfig::default();
    config.min_table_rows = 10_000;
    config.include_error_columns = true;
    let ctx = Arc::new(VerdictContext::new(conn, config));

    // --- 2. offline sample preparation: plain SQL DDL --------------------
    // A session speaks only SQL; this is exactly what a JDBC-style client
    // would send over the wire.
    let mut session = VerdictSession::new(ctx);
    println!("building scrambles ...");
    for ddl in [
        "CREATE SCRAMBLE op_scramble FROM order_products METHOD uniform",
        "CREATE SCRAMBLE orders_by_city FROM orders METHOD stratified ON city",
    ] {
        match session.execute(ddl).unwrap() {
            VerdictResponse::ScramblesCreated(metas) => {
                for m in metas {
                    println!(
                        "  {} -> {} rows (ratio {:.3}%)",
                        m.sample_table,
                        m.sample_rows,
                        100.0 * m.actual_ratio()
                    );
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    if let VerdictResponse::Answer(a) = session.execute("SHOW SCRAMBLES").unwrap() {
        println!("\nSHOW SCRAMBLES:\n{}", a.table.to_ascii(10));
    }

    // --- 3. online query processing ---------------------------------------
    let sql = "SELECT city, count(*) AS n, avg(p.price) AS avg_price \
               FROM orders o INNER JOIN order_products p ON o.order_id = p.order_id \
               GROUP BY city ORDER BY n DESC LIMIT 5";

    let approx = session.execute(sql).unwrap().into_answer().unwrap();
    // BYPASS <query> is the exact-mode escape hatch — same session, same SQL.
    let exact = session
        .execute(&format!("BYPASS {sql}"))
        .unwrap()
        .into_answer()
        .unwrap();

    println!("approximate answer (exact = {}):", approx.exact);
    println!("{}", approx.table.to_ascii(10));
    println!("exact answer:");
    println!("{}", exact.table.to_ascii(10));

    println!("estimated errors per aggregate column:");
    for e in &approx.errors {
        println!(
            "  {:<12} mean relative error {:.3}%  max {:.3}%",
            e.column,
            100.0 * e.mean_relative_error,
            100.0 * e.max_relative_error
        );
    }
    println!(
        "\nrows scanned: approximate = {}, exact = {}  (speedup in data read: {:.1}x)",
        approx.rows_scanned,
        exact.rows_scanned,
        exact.rows_scanned as f64 / approx.rows_scanned.max(1) as f64
    );
    println!("rewritten SQL sent to the underlying database:");
    for sql in &approx.rewritten_sql {
        println!("  {sql}");
    }

    // --- 4. per-session accuracy contract ---------------------------------
    // An unattainably tight target error makes the middleware rerun the
    // query exactly (§2.4) — configured with SQL, scoped to this session.
    session.execute("SET target_error = 0.00001").unwrap();
    let contracted = session.execute(sql).unwrap().into_answer().unwrap();
    println!(
        "\nwith SET target_error = 0.00001 the answer is exact: {}",
        contracted.exact
    );
}
