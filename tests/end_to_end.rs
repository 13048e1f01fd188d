//! End-to-end integration tests: the full middleware stack (parser → planner
//! → rewriter → in-memory engine → answer rewriter) against exact answers.

use std::sync::Arc;
use verdictdb::{Engine, VerdictConfig, VerdictContext, VerdictSession};

mod common;

/// Builds the test context.  Honours `VERDICT_BACKEND=remote` (see
/// `tests/common/mod.rs`): the same engine then sits behind a spawned
/// server and every statement below travels the wire protocol.
fn context(scale: f64) -> common::TestContext {
    let engine = Arc::new(Engine::with_seed(99));
    verdictdb::data::InstacartGenerator::new(scale).register(&engine);
    let mut config = VerdictConfig::default();
    config.min_table_rows = 5_000;
    config.sampling_ratio = 0.05;
    config.io_budget = 0.12;
    config.include_error_columns = false;
    config.seed = Some(17);
    let ctx = common::context_over(engine, config);
    // Sample preparation through the SQL surface, exactly as an application
    // (or a remote client) would issue it.
    let mut session = VerdictSession::new(Arc::clone(&ctx.ctx));
    for ddl in [
        "CREATE SCRAMBLE verdict_sample_order_products_uniform FROM order_products",
        "CREATE SCRAMBLE verdict_sample_orders_stratified_city FROM orders \
         METHOD stratified ON city",
        "CREATE SCRAMBLE verdict_sample_orders_hashed_order_id FROM orders \
         METHOD hashed ON order_id",
        "CREATE SCRAMBLE verdict_sample_order_products_hashed_order_id FROM order_products \
         METHOD hashed ON order_id",
    ] {
        session.execute(ddl).unwrap();
    }
    ctx
}

fn scalar(ctx: &Arc<VerdictContext>, sql: &str) -> (f64, f64, bool) {
    let approx = common::answer(ctx, sql).unwrap();
    let exact = common::exact(ctx, sql).unwrap();
    (
        approx.table.value(0, 0).as_f64().unwrap(),
        exact.table.value(0, 0).as_f64().unwrap(),
        approx.exact,
    )
}

#[test]
fn global_count_is_estimated_within_a_few_percent() {
    let ctx = context(0.25);
    let (approx, exact, was_exact) = scalar(&ctx, "SELECT count(*) AS n FROM order_products");
    assert!(!was_exact, "query should have been approximated");
    let rel = (approx - exact).abs() / exact;
    assert!(
        rel < 0.05,
        "relative error {rel:.4} too large ({approx} vs {exact})"
    );
}

#[test]
fn global_sum_and_avg_are_estimated_within_a_few_percent() {
    let ctx = context(0.25);
    let (approx_sum, exact_sum, _) = scalar(
        &ctx,
        "SELECT sum(price * quantity) AS rev FROM order_products",
    );
    let rel = (approx_sum - exact_sum).abs() / exact_sum;
    assert!(rel < 0.05, "sum relative error {rel:.4}");

    let (approx_avg, exact_avg, _) = scalar(&ctx, "SELECT avg(price) AS ap FROM order_products");
    let rel = (approx_avg - exact_avg).abs() / exact_avg;
    assert!(rel < 0.03, "avg relative error {rel:.4}");
}

#[test]
fn selective_predicates_are_respected() {
    let ctx = context(0.25);
    let (approx, exact, _) = scalar(
        &ctx,
        "SELECT count(*) AS n FROM order_products WHERE price > 10 AND reordered = 1",
    );
    let rel = (approx - exact).abs() / exact;
    assert!(rel < 0.08, "relative error {rel:.4} ({approx} vs {exact})");
}

#[test]
fn group_by_query_covers_all_groups_with_small_errors() {
    let ctx = context(0.25);
    let sql = "SELECT order_dow, count(*) AS n, avg(price) AS ap \
               FROM orders o INNER JOIN order_products p ON o.order_id = p.order_id \
               GROUP BY order_dow ORDER BY order_dow";
    let approx = common::answer(&ctx, sql).unwrap();
    let exact = common::exact(&ctx, sql).unwrap();
    assert!(!approx.exact);
    assert_eq!(
        approx.table.num_rows(),
        exact.table.num_rows(),
        "missing groups"
    );
    for r in 0..exact.table.num_rows() {
        assert_eq!(
            approx.table.value(r, 0).as_i64(),
            exact.table.value(r, 0).as_i64(),
            "group order mismatch"
        );
        let (a, e) = (
            approx.table.value(r, 1).as_f64().unwrap(),
            exact.table.value(r, 1).as_f64().unwrap(),
        );
        let rel = (a - e).abs() / e;
        assert!(rel < 0.25, "group count error {rel:.3} at row {r}");
    }
}

#[test]
fn join_of_two_samples_works_via_universe_samples() {
    let ctx = context(0.25);
    let sql = "SELECT count(*) AS n, avg(p.price) AS ap \
               FROM orders o INNER JOIN order_products p ON o.order_id = p.order_id";
    let approx = common::answer(&ctx, sql).unwrap();
    let exact = common::exact(&ctx, sql).unwrap();
    assert!(!approx.exact);
    // both sides should be answered from samples, so far fewer rows are read
    assert!(approx.rows_scanned * 4 < exact.rows_scanned);
    let (a, e) = (
        approx.table.value(0, 0).as_f64().unwrap(),
        exact.table.value(0, 0).as_f64().unwrap(),
    );
    let rel = (a - e).abs() / e;
    assert!(
        rel < 0.15,
        "join count relative error {rel:.4} ({a} vs {e})"
    );
}

#[test]
fn count_distinct_is_estimated_from_hashed_sample() {
    let ctx = context(0.25);
    let sql = "SELECT count(DISTINCT order_id) AS orders_with_items FROM order_products";
    let approx = common::answer(&ctx, sql).unwrap();
    let exact = common::exact(&ctx, sql).unwrap();
    assert!(!approx.exact);
    let (a, e) = (
        approx.table.value(0, 0).as_f64().unwrap(),
        exact.table.value(0, 0).as_f64().unwrap(),
    );
    let rel = (a - e).abs() / e;
    assert!(
        rel < 0.15,
        "count distinct relative error {rel:.4} ({a} vs {e})"
    );
}

#[test]
fn extreme_statistics_are_exact() {
    let ctx = context(0.1);
    let sql = "SELECT max(price) AS mx, count(*) AS n FROM order_products";
    let approx = common::answer(&ctx, sql).unwrap();
    let exact = common::exact(&ctx, sql).unwrap();
    // max must match exactly even though count is approximated
    assert_eq!(
        approx.table.value(0, 0).as_f64().unwrap(),
        exact.table.value(0, 0).as_f64().unwrap()
    );
}

#[test]
fn unsupported_queries_are_passed_through_unchanged() {
    let ctx = context(0.05);
    // no aggregates -> passthrough
    let answer = common::answer(
        &ctx,
        "SELECT city FROM orders GROUP BY city ORDER BY city LIMIT 3",
    )
    .unwrap();
    assert!(answer.exact);
    assert_eq!(answer.table.num_rows(), 3);
    // DDL -> passthrough
    let answer = common::answer(&ctx, "DROP TABLE IF EXISTS not_a_table").unwrap();
    assert!(answer.exact);
}

#[test]
fn error_columns_are_attached_when_configured() {
    let engine = Arc::new(Engine::with_seed(3));
    verdictdb::data::InstacartGenerator::new(0.1).register(&engine);
    let mut config = VerdictConfig::default();
    config.min_table_rows = 5_000;
    config.sampling_ratio = 0.05;
    config.io_budget = 0.12;
    config.seed = Some(2);
    let ctx = common::context_over(engine, config);
    let mut session = VerdictSession::new(Arc::clone(&ctx.ctx));
    session
        .execute("CREATE SCRAMBLE op_scr FROM order_products METHOD uniform")
        .unwrap();

    // Error columns requested per session, through SQL.
    session.execute("SET error_columns = on").unwrap();
    let answer = session
        .execute("SELECT count(*) AS n, avg(price) AS ap FROM order_products")
        .unwrap()
        .into_answer()
        .unwrap();
    assert!(!answer.exact);
    assert!(answer.table.schema.index_of("n_err").is_some());
    assert!(answer.table.schema.index_of("ap_err").is_some());
    // estimated errors should be positive and small relative to the estimates
    let n = answer.table.value(0, 0).as_f64().unwrap();
    let n_err = answer.table.value(0, 1).as_f64().unwrap();
    assert!(n_err > 0.0 && n_err < n * 0.2);
}

#[test]
fn accuracy_contract_triggers_exact_rerun() {
    let engine = Arc::new(Engine::with_seed(8));
    verdictdb::data::InstacartGenerator::new(0.1).register(&engine);
    let mut config = VerdictConfig::default();
    config.min_table_rows = 5_000;
    config.sampling_ratio = 0.05;
    config.io_budget = 0.12;
    config.seed = Some(4);
    let ctx = common::context_over(engine, config);
    let mut session = VerdictSession::new(Arc::clone(&ctx.ctx));
    session
        .execute("CREATE SCRAMBLE op_scr FROM order_products METHOD uniform")
        .unwrap();

    // An impossible accuracy requirement: any sampling error violates it.
    session.execute("SET target_error = 0.000000001").unwrap();
    let answer = session
        .execute("SELECT avg(price) AS ap FROM order_products")
        .unwrap()
        .into_answer()
        .unwrap();
    assert!(answer.exact, "HAC should have forced an exact rerun");
    let exact = session
        .execute("BYPASS SELECT avg(price) AS ap FROM order_products")
        .unwrap()
        .into_answer()
        .unwrap();
    assert_eq!(
        answer.table.value(0, 0).as_f64().unwrap(),
        exact.table.value(0, 0).as_f64().unwrap()
    );
}

#[test]
fn high_cardinality_grouping_falls_back_to_exact() {
    let ctx = context(0.1);
    // grouping by the join key: every group has a handful of rows, AQP is useless
    let sql = "SELECT order_id, sum(price) AS s FROM order_products GROUP BY order_id ORDER BY s DESC LIMIT 5";
    let answer = common::answer(&ctx, sql).unwrap();
    assert!(
        answer.exact,
        "expected fallback for high-cardinality grouping"
    );
}

#[test]
fn having_and_order_by_are_applied_to_the_approximate_answer() {
    let ctx = context(0.25);
    let sql = "SELECT city, count(*) AS n FROM orders o \
               INNER JOIN order_products p ON o.order_id = p.order_id \
               GROUP BY city HAVING count(*) > 100 ORDER BY n DESC";
    let approx = common::answer(&ctx, sql).unwrap();
    let exact = common::exact(&ctx, sql).unwrap();
    assert!(!approx.exact);
    // ordering must be descending in the estimate column
    let col = approx.table.schema.index_of("n").unwrap();
    let values: Vec<f64> = (0..approx.table.num_rows())
        .map(|r| approx.table.value(r, col).as_f64().unwrap())
        .collect();
    assert!(values.windows(2).all(|w| w[0] >= w[1]));
    // the approximate row count should be close to the exact one (groups near
    // the HAVING threshold may differ)
    let diff = (approx.table.num_rows() as i64 - exact.table.num_rows() as i64).abs();
    assert!(diff <= 2, "group count differs too much: {diff}");
}

#[test]
fn uncorrelated_comparison_subquery_is_answered() {
    let ctx = context(0.2);
    let sql = "SELECT count(*) AS n FROM order_products \
               WHERE price > (SELECT avg(price) FROM order_products)";
    let approx = common::answer(&ctx, sql).unwrap();
    let exact = common::exact(&ctx, sql).unwrap();
    let (a, e) = (
        approx.table.value(0, 0).as_f64().unwrap(),
        exact.table.value(0, 0).as_f64().unwrap(),
    );
    let rel = (a - e).abs() / e;
    assert!(rel < 0.1, "relative error {rel:.4}");
}

/// The `(item, value)` rows of `EXPLAIN <sql>`.
fn explain(ctx: &Arc<VerdictContext>, sql: &str) -> Vec<(String, String)> {
    let t = common::answer(ctx, &format!("EXPLAIN {sql}"))
        .unwrap()
        .table;
    (0..t.num_rows())
        .map(|r| (t.value(r, 0).to_string(), t.value(r, 1).to_string()))
        .collect()
}

fn explain_item<'a>(rows: &'a [(String, String)], item: &str) -> &'a str {
    let found = rows.iter().find(|(i, _)| i == item);
    found.map_or_else(|| panic!("no `{item}` row: {rows:?}"), |(_, v)| v)
}

/// A correlated comparison subquery is a WHERE predicate like any other: the
/// rewritten statement reads the scramble and carries the subquery as
/// written, over the base table.  An engine that cannot evaluate it answers
/// the approximate statement with the same error as the exact one.
#[test]
fn correlated_comparison_subquery_reaches_the_backend_as_written() {
    let ctx = context(0.2);
    let sub = "(SELECT avg(price) FROM order_products WHERE product_id = p.product_id)";
    let sql = format!("SELECT count(*) AS n FROM order_products p WHERE p.price > {sub}");
    let rows = explain(&ctx, &sql);
    assert_eq!(explain_item(&rows, "plan"), "approximate", "{rows:?}");
    let rewritten = explain_item(&rows, "rewritten[0]");
    assert!(
        rewritten.contains(&format!("WHERE p.price > {sub}")),
        "{rewritten}"
    );
    assert!(
        rewritten.contains("verdict_sample_order_products"),
        "{rewritten}"
    );

    let approx = common::answer(&ctx, &sql).unwrap_err();
    let exact = common::exact(&ctx, &sql).unwrap_err();
    assert_eq!(approx, exact);
    assert!(exact.to_string().contains("correlated subquery"), "{exact}");
}

/// An aggregate over a derived table runs exactly, and says why without
/// naming a path the planner does not have.
#[test]
fn derived_table_in_from_plans_exact_with_a_true_reason() {
    let ctx = context(0.2);
    let rows = explain(
        &ctx,
        "SELECT avg(n) AS a FROM (SELECT order_id, count(*) AS n \
         FROM order_products GROUP BY order_id) t",
    );
    assert_eq!(explain_item(&rows, "plan"), "exact passthrough", "{rows:?}");
    assert_eq!(
        explain_item(&rows, "reason"),
        "derived tables in FROM are not approximated"
    );
    assert!(
        rows.iter().all(|(_, v)| !v.contains("nested-query")),
        "{rows:?}"
    );
}

/// A scalar aggregate answers one row, as SQL requires: a filter that leaves
/// the scramble (nearly) no row falls back to the exact answer instead of
/// answering zero rows.
#[test]
fn a_scalar_aggregate_over_a_thin_filter_answers_its_one_exact_row() {
    let ctx = context(0.2);
    let probes = [
        "SELECT count(*) AS n FROM order_products WHERE order_id = 17",
        "SELECT count(*) AS n, avg(price) AS ap FROM order_products WHERE price < 0",
    ];
    for sql in probes {
        let approx = common::answer(&ctx, sql).unwrap();
        let exact = common::exact(&ctx, sql).unwrap();
        assert!(approx.exact, "`{sql}` must fall back");
        assert_eq!(approx.table.num_rows(), 1, "`{sql}`");
        common::assert_tables_bit_identical(&approx.table, &exact.table, sql);
    }
    // SQL's answer over no rows: count 0, avg NULL.
    let empty = common::answer(&ctx, probes[1]).unwrap().table;
    assert_eq!(empty.value(0, 0).as_i64(), Some(0));
    assert!(empty.value(0, 1).is_null());
}

/// A 20,000-row `sales(k, price)` with a nullable integer key — NULL for
/// nine rows in ten, so the first group the scramble yields has a NULL key —
/// and a 20% scramble.
fn nullable_key_context() -> common::TestContext {
    let rows = 20_000usize;
    let keys = [Some(2), Some(10), Some(1)];
    let table = verdictdb::TableBuilder::new()
        .opt_int_column(
            "k",
            (0..rows)
                .map(|i| {
                    if i % 10 == 0 {
                        keys[(i / 10) % 3]
                    } else {
                        None
                    }
                })
                .collect(),
        )
        .float_column("price", (0..rows).map(|i| (i % 97) as f64).collect())
        .build()
        .unwrap();
    let engine = Arc::new(Engine::with_seed(7));
    engine.register_table("sales", table);
    let mut config = VerdictConfig::for_testing();
    config.io_budget = 0.5;
    config.include_error_columns = false;
    let ctx = common::context_over(engine, config);
    VerdictSession::new(Arc::clone(&ctx.ctx))
        .execute("CREATE SCRAMBLE sales_scramble FROM sales RATIO 0.2")
        .unwrap();
    ctx
}

#[test]
fn group_keys_keep_the_backend_type_when_the_first_group_has_a_null_key() {
    let ctx = nullable_key_context();
    for sql in [
        "SELECT k, avg(price) AS ap FROM sales GROUP BY k",
        "SELECT k, avg(price) AS ap FROM sales GROUP BY k ORDER BY k",
    ] {
        let approx = common::answer(&ctx, sql).unwrap();
        let exact = common::exact(&ctx, sql).unwrap();
        assert!(!approx.exact, "{sql} should have been approximated");
        assert_eq!(approx.table.num_rows(), 4);
        assert_eq!(
            approx.table.columns[0].data_type(),
            exact.table.columns[0].data_type(),
            "{sql}: key column type"
        );
        if sql.ends_with("ORDER BY k") {
            // numeric order — NULL, 1, 2, 10 — not the lexicographic one
            assert_eq!(approx.table.columns[0], exact.table.columns[0], "{sql}");
        } else {
            assert!(
                approx.table.value(0, 0).is_null(),
                "the fixture should yield the NULL-key group first"
            );
        }
    }
}

#[test]
fn having_drops_a_group_whose_predicate_is_unknown() {
    let ctx = nullable_key_context();
    let sql = "SELECT k, count(*) AS n FROM sales GROUP BY k HAVING k > 1 ORDER BY k";
    let approx = common::answer(&ctx, sql).unwrap();
    let exact = common::exact(&ctx, sql).unwrap();
    assert!(!approx.exact);
    // `NULL > 1` is unknown: the NULL-key group goes, exactly and approximately
    assert_eq!(exact.table.num_rows(), 2);
    assert_eq!(approx.table.columns[0], exact.table.columns[0]);
}
