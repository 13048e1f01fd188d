//! Set-up shared by the three workloads over the Instacart + TPC-H data:
//! generate the tables, then build the scrambles through the SQL surface
//! alone, under the fixed [`SAMPLING_SEED`].
//!
//! Two traps, both found while sizing (see README.md):
//!
//! * `CREATE SCRAMBLES FROM t` lets the policy pick a ratio (≈ 0.118) above
//!   any sane `io_budget`, after which every query silently runs exactly.
//!   Every scramble here is built with an explicit `RATIO`.
//! * Which queries fall back moves with the data size, because a table is
//!   only sampled above `min_table_rows`.  The threshold is therefore part
//!   of each [`Sizing`], chosen so that `part`/`customer`/`products` stay
//!   below it and every fact table stays above it.

use crate::json::Json;
use crate::spec::SAMPLING_SEED;
use std::sync::Arc;
use verdict_core::{VerdictConfig, VerdictContext, VerdictSession};
use verdict_data::{instacart_queries, tpch_queries, InstacartGenerator, TpchGenerator};
use verdict_engine::{Backend, Engine};

/// Data size and the planner settings that go with it.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub insta_scale: f64,
    pub tpch_scale: f64,
    pub min_table_rows: u64,
    /// `RATIO` of every scramble.
    pub ratio: f64,
    pub io_budget: f64,
}

/// The issue's sizing: `order_products` 1.70M, `orders` 600k, `lineitem`
/// 481k rows, far larger than any cache, so the engine's scan/join/group
/// does the work.
pub const LARGE: Sizing = Sizing {
    insta_scale: 3.0,
    tpch_scale: 2.0,
    min_table_rows: 50_000,
    ratio: 0.02,
    io_budget: 0.05,
};

/// Sixty times fewer rows (at the issue's twenty, `verdict_sql` +
/// `verdict_core` are 50.3% of statement time, at this size 64%), with the
/// ratio raised so that each subsample
/// cell keeps its ten rows: the scan is negligible and parse → analyze →
/// plan → rewrite → print → re-parse → assemble dominate.
pub const SMALL: Sizing = Sizing {
    insta_scale: 0.05,
    tpch_scale: 0.035,
    min_table_rows: 1_500,
    ratio: 0.1,
    io_budget: 0.25,
};

/// The tq-*/iq-* queries the seed commit answers from scrambles at these
/// settings.  A pinned query that falls back to exact execution is a failed
/// operation; tq-3, tq-8, tq-10 and tq-15 group by near-unique keys and fall
/// back by design, so they are not pinned.  iq-11, iq-12 and tq-16 are the
/// count-distinct queries: they need the hashed scrambles on
/// `orders(user_id)`, `order_products(product_id)` and `lineitem(l_suppkey)`,
/// without which they report `exact = false` yet take exact-query time.
pub const PINNED: [&str; 29] = [
    "tq-1", "tq-5", "tq-6", "tq-7", "tq-9", "tq-11", "tq-12", "tq-13", "tq-14", "tq-16", "tq-17",
    "tq-18", "tq-19", "tq-20", "iq-1", "iq-2", "iq-3", "iq-4", "iq-5", "iq-6", "iq-7", "iq-8",
    "iq-9", "iq-10", "iq-11", "iq-12", "iq-13", "iq-14", "iq-15",
];

/// A statement the workloads send, with a stable id for reports.
#[derive(Debug, Clone)]
pub struct Query {
    pub id: String,
    pub sql: String,
}

/// All 33 tq-*/iq-* queries; `.0` the pinned ones, `.1` the rest.
pub fn workload_queries() -> (Vec<Query>, Vec<Query>) {
    tpch_queries()
        .into_iter()
        .chain(instacart_queries())
        .map(|q| Query {
            id: q.id.to_string(),
            sql: q.sql,
        })
        .partition(|q| PINNED.contains(&q.id.as_str()))
}

pub fn scramble_ddl(ratio: f64) -> Vec<String> {
    [
        ("s_op_u", "order_products", "uniform", ""),
        ("s_li_u", "lineitem", "uniform", ""),
        ("s_to_u", "tpch_orders", "uniform", ""),
        ("s_o_u", "orders", "uniform", ""),
        ("s_o_h", "orders", "hashed", "order_id"),
        ("s_op_h", "order_products", "hashed", "order_id"),
        ("s_li_h", "lineitem", "hashed", "l_orderkey"),
        ("s_to_h", "tpch_orders", "hashed", "o_orderkey"),
        (
            "s_li_s",
            "lineitem",
            "stratified",
            "l_returnflag, l_linestatus",
        ),
        ("s_o_s", "orders", "stratified", "city"),
        ("s_o_hu", "orders", "hashed", "user_id"),
        ("s_op_hp", "order_products", "hashed", "product_id"),
        ("s_li_hs", "lineitem", "hashed", "l_suppkey"),
    ]
    .iter()
    .map(|(name, table, method, on)| {
        let on = if on.is_empty() {
            String::new()
        } else {
            format!(" ON {on}")
        };
        format!("CREATE SCRAMBLE {name} FROM {table} METHOD {method} RATIO {ratio}{on}")
    })
    .collect()
}

pub struct SqlEnv {
    pub engine: Arc<Engine>,
    pub ctx: Arc<VerdictContext>,
    pub config: VerdictConfig,
    /// `(table, rows)` of the generated base tables, sorted by name.
    pub rows: Vec<(String, u64)>,
}

/// Registers both datasets (the generators' own fixed seeds: the data is part
/// of the benchmark, like its queries) and builds the thirteen scrambles.
pub fn build_sql_env(sizing: &Sizing, cache_capacity: usize) -> Result<SqlEnv, String> {
    let engine = Arc::new(Engine::with_seed(SAMPLING_SEED));
    InstacartGenerator::new(sizing.insta_scale).register(&engine);
    TpchGenerator::new(sizing.tpch_scale).register(&engine);
    let mut rows: Vec<(String, u64)> = engine
        .catalog()
        .table_names()
        .into_iter()
        .map(|t| {
            let n = engine.catalog().row_count(&t) as u64;
            (t, n)
        })
        .collect();
    rows.sort();

    let config = VerdictConfig {
        min_table_rows: sizing.min_table_rows,
        io_budget: sizing.io_budget,
        seed: Some(SAMPLING_SEED),
        answer_cache_capacity: cache_capacity,
        ..VerdictConfig::default()
    };
    let conn: Arc<dyn Backend> = engine.clone();
    let ctx = Arc::new(VerdictContext::new(conn, config.clone()));
    let mut session = VerdictSession::new(Arc::clone(&ctx));
    for ddl in scramble_ddl(sizing.ratio) {
        session.execute(&ddl).map_err(|e| format!("{ddl}: {e}"))?;
    }
    Ok(SqlEnv {
        engine,
        ctx,
        config,
        rows,
    })
}

/// The 64 dashboard statements: eight shapes, eight parameter values each.
/// All are single-block aggregates the large data answers from scrambles.
pub fn dashboard_templates() -> Vec<Query> {
    let mut out = Vec::with_capacity(64);
    for p in 0..8u32 {
        let shapes = [
            format!(
                "SELECT reordered, count(*) AS n, avg(price) AS avg_price FROM order_products \
                 WHERE quantity >= {} AND add_to_cart_order <= {} GROUP BY reordered ORDER BY reordered",
                1 + p % 4,
                2 + p
            ),
            format!(
                "SELECT quantity, sum(price * quantity) AS revenue, count(*) AS n FROM order_products \
                 WHERE price > {} GROUP BY quantity ORDER BY quantity",
                2 + p
            ),
            format!(
                "SELECT count(*) AS n, avg(price) AS avg_price, sum(price) AS total FROM order_products \
                 WHERE price BETWEEN {} AND {}",
                p,
                p + 12
            ),
            format!(
                "SELECT order_dow, count(*) AS n, avg(days_since_prior) AS avg_gap FROM orders \
                 WHERE order_hour >= {} GROUP BY order_dow ORDER BY order_dow",
                p * 2
            ),
            format!(
                "SELECT city, count(*) AS n FROM orders WHERE order_hour BETWEEN {} AND {} \
                 GROUP BY city ORDER BY city",
                p,
                p + 14
            ),
            format!(
                "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, \
                 avg(l_extendedprice) AS avg_price, count(*) AS n FROM lineitem \
                 WHERE l_shipdate <= {} GROUP BY l_returnflag, l_linestatus \
                 ORDER BY l_returnflag, l_linestatus",
                1200 + 150 * p
            ),
            format!(
                "SELECT l_shipmode, sum(l_extendedprice * (1 - l_discount)) AS revenue FROM lineitem \
                 WHERE l_quantity >= {} GROUP BY l_shipmode ORDER BY l_shipmode",
                1 + 4 * p
            ),
            format!(
                "SELECT department_id, count(*) AS n, avg(p.price) AS avg_price FROM order_products p \
                 INNER JOIN products pr ON p.product_id = pr.product_id \
                 WHERE p.add_to_cart_order <= {} GROUP BY department_id ORDER BY department_id",
                1 + p
            ),
        ];
        for (s, sql) in shapes.into_iter().enumerate() {
            out.push(Query {
                id: format!("d{}-{p}", s + 1),
                sql,
            });
        }
    }
    out
}

pub fn config_json(c: &VerdictConfig) -> Json {
    Json::obj(vec![
        ("io_budget", Json::Num(c.io_budget)),
        ("sampling_ratio", Json::Num(c.sampling_ratio)),
        ("min_table_rows", Json::Num(c.min_table_rows as f64)),
        ("subsample_count", Json::Num(c.subsample_count as f64)),
        ("confidence", Json::Num(c.confidence)),
        ("min_rows_per_group", Json::Num(c.min_rows_per_group)),
        ("planner_top_k", Json::Num(c.planner_top_k as f64)),
        ("seed", c.seed.map_or(Json::Null, |s| Json::Num(s as f64))),
        (
            "answer_cache_capacity",
            Json::Num(c.answer_cache_capacity as f64),
        ),
        ("stream_block_rows", Json::Num(c.stream_block_rows as f64)),
        ("cache_fingerprint", Json::str(c.cache_fingerprint())),
    ])
}

pub fn rows_json(rows: &[(String, u64)]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|(t, n)| (t.clone(), Json::Num(*n as f64)))
            .collect(),
    )
}
