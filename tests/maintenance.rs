//! Execution-level coverage for incremental sample maintenance (Appendix D)
//! and for approximate-answer cache invalidation on appends and rebuilds.
//!
//! The `sample/maintenance.rs` unit tests only check the *shape* of the
//! generated SQL; these tests actually run it against the engine — which is
//! how the `SELECT *`-leaks-`verdict_rand` arity bug was caught.

mod common;

use std::sync::Arc;
use verdictdb::core::{SampleMeta, SampleType};
use verdictdb::{
    Backend, Engine, TableBuilder, VerdictConfig, VerdictContext, VerdictResponse, VerdictSession,
};

fn sales_table(rows: usize, offset: usize) -> verdictdb::Table {
    TableBuilder::new()
        .int_column("id", (0..rows).map(|i| (offset + i) as i64).collect())
        .float_column(
            "price",
            (0..rows)
                .map(|i| ((offset + i) % 500) as f64 / 5.0)
                .collect(),
        )
        .str_column(
            "city",
            (0..rows)
                .map(|i| format!("city_{}", (offset + i) % 8))
                .collect(),
        )
        .build()
        .unwrap()
}

fn context_with_sales(seed: u64, cache_capacity: usize) -> (Arc<Engine>, Arc<VerdictContext>) {
    let engine = Arc::new(Engine::with_seed(seed));
    engine.register_table("sales", sales_table(20_000, 0));
    let conn: Arc<dyn Backend> = engine.clone();
    let mut config = VerdictConfig::for_testing();
    config.answer_cache_capacity = cache_capacity;
    (engine, Arc::new(VerdictContext::new(conn, config)))
}

/// Runs one statement through a fresh session on the shared context.
fn sql(ctx: &Arc<VerdictContext>, statement: &str) -> VerdictResponse {
    VerdictSession::new(Arc::clone(ctx))
        .execute(statement)
        .unwrap_or_else(|e| panic!("`{statement}`: {e}"))
}

/// `CREATE SCRAMBLE … FROM sales …`, returning the built scramble's metadata.
fn create_scramble(ctx: &Arc<VerdictContext>, name: &str, clauses: &str) -> SampleMeta {
    match sql(ctx, &format!("CREATE SCRAMBLE {name} FROM sales {clauses}")) {
        VerdictResponse::ScramblesCreated(mut metas) => metas.remove(0),
        other => panic!("expected a scramble, got {}", other.kind()),
    }
}

/// `REFRESH SCRAMBLES sales FROM sales_batch`, returning the refreshed count.
fn refresh_from_batch(ctx: &Arc<VerdictContext>) -> usize {
    match sql(ctx, "REFRESH SCRAMBLES sales FROM sales_batch") {
        VerdictResponse::ScramblesRefreshed(n) => n,
        other => panic!("expected a refresh count, got {}", other.kind()),
    }
}

/// The `status` column of `SHOW SCRAMBLES`.
fn scramble_status(ctx: &Arc<VerdictContext>) -> Vec<String> {
    let listing = sql(ctx, "SHOW SCRAMBLES");
    let table = listing.table().expect("SHOW SCRAMBLES returns a table");
    let status = table.schema.index_of("status").expect("status column");
    (0..table.num_rows())
        .map(|r| table.value(r, status).to_string())
        .collect()
}

#[test]
fn staleness_tracks_appends_and_shrinks_end_to_end() {
    let (engine, ctx) = context_with_sales(11, 0);
    create_scramble(&ctx, "sales_uniform", "RATIO 0.2");

    assert_eq!(scramble_status(&ctx), ["fresh"]);

    engine
        .catalog()
        .append("sales", &sales_table(5_000, 20_000))
        .unwrap();
    assert_eq!(scramble_status(&ctx), ["stale(+5000)"]);

    // A shrunk base table cannot be maintained incrementally.
    engine.register_table("sales", sales_table(1_000, 0));
    assert_eq!(scramble_status(&ctx), ["requires_rebuild"]);
}

#[test]
fn refresh_after_append_grows_uniform_and_stratified_samples() {
    let (_engine, ctx) = context_with_sales(13, 0);
    let uniform = create_scramble(&ctx, "sales_uniform", "RATIO 0.2");
    let stratified = create_scramble(
        &ctx,
        "sales_stratified",
        "METHOD stratified RATIO 0.2 ON city",
    );
    assert!(uniform.sample_rows > 0 && stratified.sample_rows > 0);

    // Stage a batch (including rows for a brand-new stratum city_new), append
    // it to the base table, then fold it into every sample.
    ctx.connection()
        .execute(
            "CREATE TABLE sales_batch AS \
             SELECT id + 20000 AS id, price, city FROM sales LIMIT 5000",
        )
        .unwrap();
    ctx.connection()
        .execute(
            "CREATE TABLE new_stratum AS \
             SELECT id + 40000 AS id, price, 'city_new' AS city FROM sales LIMIT 50",
        )
        .unwrap();
    ctx.connection()
        .execute("INSERT INTO sales_batch SELECT * FROM new_stratum")
        .unwrap();
    ctx.connection()
        .execute("INSERT INTO sales SELECT * FROM sales_batch")
        .unwrap();

    assert_eq!(refresh_from_batch(&ctx), 2);

    for meta in ctx.meta().samples_for("sales") {
        assert_eq!(
            meta.base_rows, 25_050,
            "recorded base size tracks the append"
        );
        let original = if meta.sample_table == uniform.sample_table {
            uniform.sample_rows
        } else {
            stratified.sample_rows
        };
        assert!(
            meta.sample_rows > original,
            "{} must gain sampled batch rows ({} vs {original})",
            meta.sample_table,
            meta.sample_rows
        );
        // The sample table stays arity-consistent and queryable.
        let r = ctx
            .connection()
            .execute(&format!("SELECT count(*) FROM {}", meta.sample_table))
            .unwrap();
        assert_eq!(
            r.table.value(0, 0).as_i64().unwrap() as u64,
            meta.sample_rows
        );
    }

    // New-stratum tuples enter the stratified sample with probability 1.0,
    // so every one of the 50 city_new rows must be present.
    let strat_meta = ctx
        .meta()
        .samples_for("sales")
        .into_iter()
        .find(|m| matches!(m.sample_type, SampleType::Stratified { .. }))
        .unwrap();
    let r = ctx
        .connection()
        .execute(&format!(
            "SELECT count(*) AS c, min(verdict_sampling_prob) AS p FROM {} WHERE city = 'city_new'",
            strat_meta.sample_table
        ))
        .unwrap();
    assert_eq!(r.table.value(0, 0).as_i64(), Some(50));
    assert_eq!(r.table.value(0, 1).as_f64(), Some(1.0));
}

#[test]
fn repeated_refresh_is_idempotent() {
    let (_engine, ctx) = context_with_sales(31, 0);
    create_scramble(&ctx, "sales_uniform", "RATIO 0.2");
    ctx.connection()
        .execute("CREATE TABLE sales_batch AS SELECT id + 20000 AS id, price, city FROM sales LIMIT 4000")
        .unwrap();
    ctx.connection()
        .execute("INSERT INTO sales SELECT * FROM sales_batch")
        .unwrap();

    assert_eq!(refresh_from_batch(&ctx), 1);
    let after_first = ctx.meta().samples_for("sales")[0].clone();

    // A retried REFRESH (e.g. after a partial failure elsewhere) must not
    // fold the same batch in twice: the sample is already Fresh, so nothing
    // is appended and the metadata is unchanged.
    assert_eq!(refresh_from_batch(&ctx), 0);
    let after_second = ctx.meta().samples_for("sales")[0].clone();
    assert_eq!(after_second.sample_rows, after_first.sample_rows);
    assert_eq!(after_second.base_rows, after_first.base_rows);
}

/// `id → verdict_subsample_u` for every row of a scramble.
fn draws_by_id(ctx: &Arc<VerdictContext>, sample_table: &str) -> Vec<(i64, f64)> {
    let r = ctx
        .connection()
        .execute(&format!(
            "SELECT id, verdict_subsample_u FROM {sample_table}"
        ))
        .unwrap();
    (0..r.table.num_rows())
        .map(|i| {
            let id = r.table.value(i, 0).as_i64().unwrap();
            (id, r.table.value(i, 1).as_f64().unwrap())
        })
        .collect()
}

#[test]
fn refresh_gives_an_appended_row_its_keys_build_time_draw() {
    let (_engine, ctx) = context_with_sales(37, 0);
    let meta = create_scramble(&ctx, "sales_hashed", "METHOD hashed RATIO 0.2 ON id");
    let built: std::collections::HashMap<i64, f64> =
        draws_by_id(&ctx, &meta.sample_table).into_iter().collect();
    assert_eq!(built.len() as u64, meta.sample_rows);

    // A batch of new rows for existing keys: the universe keeps exactly the
    // batch rows whose key it kept at build time.
    ctx.connection()
        .execute("CREATE TABLE sales_batch AS SELECT id, price + 1.0 AS price, city FROM sales")
        .unwrap();
    ctx.connection()
        .execute("INSERT INTO sales SELECT * FROM sales_batch")
        .unwrap();
    assert_eq!(refresh_from_batch(&ctx), 1);

    let refreshed = draws_by_id(&ctx, &meta.sample_table);
    assert_eq!(refreshed.len(), 2 * built.len());
    for (id, draw) in refreshed {
        let at_build = built.get(&id).copied();
        assert_eq!(at_build, Some(draw), "key {id}");
    }
}

#[test]
fn refresh_with_reordered_batch_columns_does_not_corrupt_the_sample() {
    let (_engine, ctx) = context_with_sales(29, 0);
    let meta = create_scramble(&ctx, "sales_uniform", "RATIO 0.3");

    // Stage the batch with the SAME columns in a DIFFERENT physical order;
    // the refresh projection must follow the base table's order, not the
    // batch's, or the positional INSERT writes values into wrong columns.
    ctx.connection()
        .execute(
            "CREATE TABLE sales_batch AS \
             SELECT city, id + 20000 AS id, price FROM sales LIMIT 3000",
        )
        .unwrap();
    ctx.connection()
        .execute("INSERT INTO sales SELECT id, price, city FROM sales_batch")
        .unwrap();
    assert_eq!(refresh_from_batch(&ctx), 1);

    // Every city value in the refreshed sample is still a real city label.
    let r = ctx
        .connection()
        .execute(&format!(
            "SELECT count(*) AS total, \
             sum(CASE WHEN city LIKE 'city_%' THEN 1 ELSE 0 END) AS well_typed \
             FROM {}",
            meta.sample_table
        ))
        .unwrap();
    let total = r.table.value(0, 0).as_i64().unwrap();
    let well_typed = r.table.value(0, 1).as_i64().unwrap();
    assert!(total > 0);
    assert_eq!(
        total, well_typed,
        "city column must hold city labels, not ids/prices"
    );
}

const REPEAT_QUERY: &str = "SELECT city, avg(price) AS ap FROM sales GROUP BY city ORDER BY city";

#[test]
fn cached_answer_is_bit_identical_and_append_invalidates_it() {
    let (engine, ctx) = context_with_sales(17, 32);
    create_scramble(&ctx, "sales_uniform", "");

    let first = common::answer(&ctx, REPEAT_QUERY).unwrap();
    assert!(!first.exact && !first.cached);
    assert!(!first.errors.is_empty());

    // Repeat with different surface syntax.  Projection output names (the
    // bare `city` column, the `ap` alias) keep their case because they shape
    // the result schema; everything else folds.  Identical answer, no
    // re-execution.
    let before = ctx.cache_stats();
    let second = common::answer(
        &ctx,
        "select city, avg(Price) as ap from SALES group by CITY order by CITY",
    )
    .unwrap();
    assert!(second.cached);
    assert_eq!(
        second.table, first.table,
        "estimates and intervals identical"
    );
    assert_eq!(second.errors, first.errors);
    assert_eq!(second.rewritten_sql, first.rewritten_sql);
    let after = ctx.cache_stats();
    assert_eq!(after.hits, before.hits + 1);

    // Append to the base table: the entry must be invalidated.
    engine
        .catalog()
        .append("sales", &sales_table(1_000, 20_000))
        .unwrap();
    let third = common::answer(&ctx, REPEAT_QUERY).unwrap();
    assert!(!third.cached, "append must force recomputation");
    assert_eq!(ctx.cache_stats().invalidations, 1);
}

#[test]
fn sample_rebuild_invalidates_cached_answers() {
    let (_engine, ctx) = context_with_sales(19, 32);
    create_scramble(&ctx, "sales_uniform", "");
    let first = common::answer(&ctx, REPEAT_QUERY).unwrap();
    assert!(!first.exact);
    assert!(common::answer(&ctx, REPEAT_QUERY).unwrap().cached);

    // Rebuilding the sample bumps the sample table's data version even though
    // the base table is untouched.
    create_scramble(&ctx, "sales_uniform", "");
    let recomputed = common::answer(&ctx, REPEAT_QUERY).unwrap();
    assert!(!recomputed.cached);
    assert!(ctx.cache_stats().invalidations >= 1);
}

#[test]
fn nondeterministic_and_ddl_statements_are_never_cached() {
    let (_engine, ctx) = context_with_sales(23, 32);
    let q = "SELECT count(*) AS c FROM sales WHERE rand() < 0.5";
    let a = common::answer(&ctx, q).unwrap();
    let b = common::answer(&ctx, q).unwrap();
    assert!(!a.cached && !b.cached, "rand() queries must re-draw");

    // rand() hiding inside a scalar subquery must also disable caching —
    // walk_query alone does not descend into predicate subqueries.
    let sub = "SELECT count(*) AS c FROM sales WHERE price * 0.01 < (SELECT rand())";
    let a = common::answer(&ctx, sub).unwrap();
    let b = common::answer(&ctx, sub).unwrap();
    assert!(
        !a.cached && !b.cached,
        "rand() in a subquery must re-draw, not serve a frozen first draw"
    );

    common::answer(&ctx, "CREATE TABLE copy1 AS SELECT * FROM sales LIMIT 10").unwrap();
    common::answer(&ctx, "DROP TABLE copy1").unwrap();
    // Re-running the DDL must actually re-execute (a cached CREATE would error).
    common::answer(&ctx, "CREATE TABLE copy1 AS SELECT * FROM sales LIMIT 10").unwrap();
    assert_eq!(ctx.cache_stats().insertions, 0);
}

/// A text answered before is found by its spelling, without a parse, and
/// the entry it resolves to is revalidated like any other: a write to any
/// table the answer read — the table the FROM names, a table a subquery
/// reads, the scramble the plan used — turns the repeat into a miss that
/// returns the fresh answer, which is then recorded again.
#[test]
fn a_spelling_hit_after_a_write_to_any_table_the_answer_read_is_a_fresh_miss() {
    let (engine, ctx) = context_with_sales(29, 32);
    let floor = TableBuilder::new()
        .float_column("p", vec![10.0])
        .build()
        .unwrap();
    engine.register_table("floor_prices", floor);
    create_scramble(&ctx, "sales_uniform", "");
    const Q: &str = "SELECT city, avg(price) AS ap FROM sales \
                     WHERE price > (SELECT max(p) FROM floor_prices) GROUP BY city ORDER BY city";
    let mut s = VerdictSession::new(Arc::clone(&ctx));
    let mut cold = VerdictSession::new(Arc::clone(&ctx));
    sql(
        &ctx,
        "BYPASS CREATE TABLE sales_batch AS SELECT id, price, city FROM sales LIMIT 500",
    );
    cold.execute("SET cache = off").unwrap();

    let first = s.execute(Q).unwrap().into_answer().unwrap();
    assert!(!first.cached);
    let hit = s.cached_spelling(Q).expect("the miss recorded its text");
    assert_eq!(hit.answer().table, first.table);
    for write in [
        "BYPASS INSERT INTO sales SELECT * FROM sales_batch",
        "BYPASS INSERT INTO floor_prices SELECT p + 30.0 AS p FROM floor_prices",
        "REFRESH SCRAMBLES sales",
    ] {
        s.execute(write).unwrap();
        let invalidations = ctx.cache_stats().invalidations;
        assert!(s.cached_spelling(Q).is_none(), "{write}: served stale");
        assert_eq!(ctx.cache_stats().invalidations, invalidations + 1);
        let fresh = s.execute(Q).unwrap().into_answer().unwrap();
        assert!(!fresh.cached, "{write}");
        let truth = cold.execute(Q).unwrap().into_answer().unwrap();
        common::assert_tables_bit_identical(&fresh.table, &truth.table, write);
        let hit = s
            .cached_spelling(Q)
            .expect("the fresh answer recorded its text");
        assert_eq!(hit.answer().table, fresh.table, "{write}");
    }
    // The subquery's write moved its floor: the answer did change.
    assert_ne!(s.execute(Q).unwrap().table().unwrap(), &first.table);
}
