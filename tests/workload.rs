//! Workload-level integration test: every benchmark query of the evaluation
//! (tq-* and iq-*) must run through VerdictDB, and the queries that are not
//! expected to fall back must produce approximate answers whose headline
//! aggregates stay close to the exact ones.

mod common;

use std::collections::HashMap;
use std::sync::Arc;
use verdictdb::data::{instacart_queries, tpch_queries, InstacartGenerator, TpchGenerator};
use verdictdb::{Backend, Engine, VerdictConfig, VerdictContext, VerdictSession};

fn workload_context() -> Arc<VerdictContext> {
    let engine = Arc::new(Engine::with_seed(1234));
    InstacartGenerator::new(0.2).register(&engine);
    TpchGenerator::new(0.3).register(&engine);
    let conn: Arc<dyn Backend> = engine;
    let mut config = VerdictConfig::default();
    config.min_table_rows = 10_000;
    config.sampling_ratio = 0.05;
    config.io_budget = 0.12;
    config.seed = Some(7);
    let ctx = Arc::new(VerdictContext::new(conn, config));

    // Sample preparation mirroring §6.1: uniform + universe samples for the
    // large fact tables, stratified samples on common grouping columns —
    // all declared as one SQL script on a session.
    let mut session = VerdictSession::new(Arc::clone(&ctx));
    session
        .execute_script(
            "CREATE SCRAMBLE verdict_sample_order_products_uniform FROM order_products;
             CREATE SCRAMBLE verdict_sample_lineitem_uniform FROM lineitem;
             CREATE SCRAMBLE verdict_sample_tpch_orders_uniform FROM tpch_orders;
             CREATE SCRAMBLE verdict_sample_orders_uniform FROM orders;
             CREATE SCRAMBLE verdict_sample_tpch_orders_hashed_o_orderkey FROM tpch_orders
               METHOD hashed ON o_orderkey;
             CREATE SCRAMBLE verdict_sample_orders_hashed_order_id FROM orders
               METHOD hashed ON order_id;
             CREATE SCRAMBLE verdict_sample_order_products_hashed_order_id FROM order_products
               METHOD hashed ON order_id;
             CREATE SCRAMBLE verdict_sample_lineitem_hashed_l_orderkey FROM lineitem
               METHOD hashed ON l_orderkey;
             CREATE SCRAMBLE verdict_sample_lineitem_stratified_l_returnflag_l_linestatus
               FROM lineitem METHOD stratified ON l_returnflag, l_linestatus;
             CREATE SCRAMBLE verdict_sample_orders_stratified_city FROM orders
               METHOD stratified ON city;",
        )
        .unwrap();
    ctx
}

#[test]
fn every_workload_query_runs_through_verdictdb() {
    let ctx = workload_context();
    let mut approximated = 0usize;
    let mut fallbacks: Vec<&str> = Vec::new();
    for q in tpch_queries().iter().chain(instacart_queries().iter()) {
        let answer = common::answer(&ctx, &q.sql)
            .unwrap_or_else(|e| panic!("{} failed through VerdictDB: {e}\n{}", q.id, q.sql));
        assert!(
            answer.table.num_rows() > 0 || answer.exact,
            "{} returned no rows",
            q.id
        );
        if answer.exact {
            fallbacks.push(q.id);
        } else {
            approximated += 1;
        }
        if q.expect_fallback {
            assert!(
                answer.exact,
                "{} groups by a high-cardinality key and should have fallen back",
                q.id
            );
        }
    }
    // The bulk of the workload must actually be approximated, mirroring the
    // paper where 30 of 33 queries benefit from AQP.
    assert!(
        approximated >= 25,
        "only {approximated} queries were approximated; fallbacks: {fallbacks:?}"
    );
}

#[test]
fn approximate_answers_track_exact_answers_on_scalar_queries() {
    let ctx = workload_context();
    // Queries whose first output column is a single scalar aggregate.
    let scalar_queries = ["tq-6", "tq-19", "iq-1", "iq-2", "iq-3", "iq-8", "iq-14"];
    let all: HashMap<&str, String> = tpch_queries()
        .iter()
        .chain(instacart_queries().iter())
        .map(|q| (q.id, q.sql.clone()))
        .collect();
    for id in scalar_queries {
        let sql = &all[id];
        let approx = common::answer(&ctx, sql).unwrap();
        let exact = common::exact(&ctx, sql).unwrap();
        let col = approx.table.num_columns() - 1; // last column is an aggregate in these queries
        let first_agg_col = approx
            .table
            .schema
            .fields
            .iter()
            .position(|f| f.data_type == verdictdb::engine::DataType::Float)
            .unwrap_or(col);
        let a = approx.table.value(0, first_agg_col).as_f64().unwrap();
        let e = exact.table.value(0, first_agg_col).as_f64().unwrap();
        let rel = if e.abs() < f64::EPSILON {
            0.0
        } else {
            (a - e).abs() / e.abs()
        };
        // At this laptop scale the samples hold only a few thousand rows, so
        // highly selective queries legitimately carry ~10-15% error; at the
        // paper's 500 GB scale the same 1% samples hold millions of rows and
        // errors drop below 3% (see EXPERIMENTS.md).
        assert!(
            rel < 0.20,
            "{id}: relative error {rel:.4} too large (approx {a}, exact {e})"
        );
    }
}

#[test]
fn sampled_queries_scan_far_fewer_rows() {
    let ctx = workload_context();
    let all: HashMap<&str, String> = tpch_queries()
        .iter()
        .chain(instacart_queries().iter())
        .map(|q| (q.id, q.sql.clone()))
        .collect();
    for id in ["tq-1", "tq-6", "iq-2", "iq-4"] {
        let sql = &all[id];
        let approx = common::answer(&ctx, sql).unwrap();
        let exact = common::exact(&ctx, sql).unwrap();
        assert!(!approx.exact, "{id} should be approximated");
        assert!(
            approx.rows_scanned * 5 < exact.rows_scanned,
            "{id}: expected a large reduction in rows scanned ({} vs {})",
            approx.rows_scanned,
            exact.rows_scanned
        );
    }
}
