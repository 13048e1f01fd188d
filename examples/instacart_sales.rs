//! Instacart sales analytics: the paper's motivating "interactive analyst"
//! scenario, driven entirely through the SQL-only session surface.  An
//! analyst dashboards revenue, basket sizes, and distinct-buyer counts over
//! a large sales fact table; `CREATE SCRAMBLES FROM <t>` applies VerdictDB's
//! default sampling policy (Appendix F), and every panel is answered from
//! those 1% scrambles, falling back to exact execution only where AQP
//! cannot help.
//!
//! Run with: `cargo run --release --example instacart_sales`
//! (`VERDICT_EXAMPLE_SCALE` overrides the dataset scale, e.g. CI uses 0.02.)

use std::sync::Arc;
use verdictdb::{Backend, Engine, VerdictConfig, VerdictContext, VerdictResponse, VerdictSession};

fn main() {
    let engine = Arc::new(Engine::with_seed(2024));
    verdictdb::data::InstacartGenerator::new(verdictdb::example_scale(0.5)).register(&engine);
    let conn: Arc<dyn Backend> = engine.clone();

    let mut config = VerdictConfig::default();
    config.min_table_rows = 10_000;
    let mut session = VerdictSession::new(Arc::new(VerdictContext::new(conn, config)));

    // Let the default policy decide which scrambles to build (uniform +
    // hashed on high-cardinality keys + stratified on low-cardinality
    // columns) — one SQL statement per table.
    for table in ["orders", "order_products"] {
        match session
            .execute(&format!("CREATE SCRAMBLES FROM {table}"))
            .unwrap()
        {
            VerdictResponse::ScramblesCreated(created) => {
                println!(
                    "default policy built {} scrambles for {table}:",
                    created.len()
                );
                for s in &created {
                    println!(
                        "  {:<55} {:>9} rows  ({})",
                        s.sample_table, s.sample_rows, s.sample_type
                    );
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    if let VerdictResponse::Answer(a) = session.execute("SHOW SCRAMBLES").unwrap() {
        println!("\nSHOW SCRAMBLES:\n{}", a.table.to_ascii(12));
    }

    let dashboard = [
        (
            "revenue by city",
            "SELECT city, sum(p.price * p.quantity) AS revenue \
             FROM orders o INNER JOIN order_products p ON o.order_id = p.order_id \
             GROUP BY city ORDER BY revenue DESC LIMIT 8",
        ),
        (
            "average basket line value by day of week",
            "SELECT order_dow, avg(p.price) AS avg_price, count(*) AS lines \
             FROM orders o INNER JOIN order_products p ON o.order_id = p.order_id \
             GROUP BY order_dow ORDER BY order_dow",
        ),
        (
            "distinct buyers",
            "SELECT count(DISTINCT user_id) AS buyers FROM orders",
        ),
        (
            "evening premium items",
            "SELECT count(*) AS n, avg(p.price) AS avg_price \
             FROM orders o INNER JOIN order_products p ON o.order_id = p.order_id \
             WHERE o.order_hour >= 18 AND p.price > 15",
        ),
    ];

    for (title, sql) in dashboard {
        let answer = session.execute(sql).unwrap().into_answer().unwrap();
        println!("\n=== {title} ===  (approximate: {})", !answer.exact);
        println!("{}", answer.table.to_ascii(10));
        if !answer.errors.is_empty() {
            let worst = answer.max_relative_error();
            println!("worst estimated relative error: {:.3}%", 100.0 * worst);
        }
        println!("rows scanned: {}", answer.rows_scanned);
    }
}
