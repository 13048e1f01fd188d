//! Backend conformance suite.
//!
//! The middleware reaches storage only through the `Backend` trait, so any
//! implementation must be interchangeable: the same deterministic question
//! must come back **bit-identical** whether the engine is linked in-process
//! or sits behind the wire protocol as a [`RemoteBackend`], and a backend
//! that lacks optional capabilities (`data_version`, block scans) must
//! degrade gracefully — slower or uncached, never wrong.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use verdictdb::core::SampleMeta;
use verdictdb::engine::{BlockScan, EngineResult, QueryResult};
use verdictdb::sql::ImpalaDialect;
use verdictdb::{
    Backend, Engine, RemoteBackend, ServerHandle, Table, Value, VerdictConfig, VerdictContext,
    VerdictResponse, VerdictServer, VerdictSession,
};

mod common;

/// Engine preloaded with the Instacart-like dataset under a fixed seed.
fn seeded_engine(scale: f64) -> Arc<Engine> {
    let engine = Arc::new(Engine::with_seed(42));
    verdictdb::data::InstacartGenerator::new(scale).register(&engine);
    engine
}

fn config() -> VerdictConfig {
    let mut config = VerdictConfig::for_testing();
    config.sampling_ratio = 0.05;
    config.io_budget = 0.12;
    config
}

/// Builds one scramble over `table` through the SQL DDL and returns its
/// metadata (`clauses` is the `METHOD … ON …` tail, empty for uniform).
fn create_scramble(ctx: &Arc<VerdictContext>, table: &str, clauses: &str) -> SampleMeta {
    let ddl = format!("CREATE SCRAMBLE {table}_scramble FROM {table} {clauses}");
    match VerdictSession::new(Arc::clone(ctx)).execute(&ddl).unwrap() {
        VerdictResponse::ScramblesCreated(mut metas) => metas.remove(0),
        other => panic!("expected a scramble, got {}", other.kind()),
    }
}

/// Spawns a server over `engine` and builds a local context whose backend is
/// the wire protocol.  Scrambles registered on `source` are mirrored into
/// the new context — the scramble *tables* already live in the shared
/// engine, only the planning metadata needs copying.
fn remote_context_over(
    engine: Arc<Engine>,
    source: &VerdictContext,
    config: VerdictConfig,
) -> (Arc<VerdictContext>, ServerHandle) {
    let server_ctx = Arc::new(VerdictContext::new(
        engine as Arc<dyn Backend>,
        VerdictConfig::for_testing(),
    ));
    let handle = VerdictServer::bind("127.0.0.1:0", server_ctx)
        .expect("bind conformance server")
        .spawn()
        .expect("spawn conformance server");
    let remote = RemoteBackend::connect(handle.addr()).expect("connect remote backend");
    let ctx = Arc::new(VerdictContext::new(
        Arc::new(remote) as Arc<dyn Backend>,
        config,
    ));
    for meta in source.meta().all() {
        ctx.meta().register(meta);
    }
    (ctx, handle)
}

/// `SHOW STATS` as a name → value map (columns: section, stat, value).
fn stat_map(table: &Table) -> HashMap<String, i64> {
    (0..table.num_rows())
        .map(|r| {
            let name = match table.value_at(r, 1) {
                Value::Str(s) => s,
                other => panic!("stat name should be a string, got {other:?}"),
            };
            let value = table.value_at(r, 2).as_i64().expect("stat value");
            (name, value)
        })
        .collect()
}

#[test]
fn remote_backend_answers_are_bit_identical_to_in_process() {
    let engine = seeded_engine(0.1);
    let local = Arc::new(VerdictContext::new(
        engine.clone() as Arc<dyn Backend>,
        config(),
    ));
    create_scramble(&local, "order_products", "");
    create_scramble(&local, "orders", "METHOD hashed ON order_id");

    let (remote, _server) = remote_context_over(engine, &local, config());

    let mut approximated = 0;
    for sql in [
        "SELECT count(*) AS n FROM order_products",
        "SELECT sum(price * quantity) AS rev, avg(price) AS ap FROM order_products",
        "SELECT count(*) AS n FROM order_products WHERE price > 10 AND reordered = 1",
        "SELECT city, count(*) AS n FROM orders GROUP BY city ORDER BY city",
        "SELECT count(DISTINCT order_id) AS u FROM orders",
    ] {
        let a = common::answer(&local, sql).unwrap();
        let b = common::answer(&remote, sql).unwrap();
        assert_eq!(a.exact, b.exact, "exactness differs for {sql}");
        common::assert_tables_bit_identical(&a.table, &b.table, sql);
        if !a.exact {
            approximated += 1;
        }
    }
    assert!(
        approximated >= 2,
        "conformance must cover approximate answers, only {approximated} were sampled"
    );

    // Exact (bypass) answers travel the wire too.
    let sql = "SELECT count(*) AS n, avg(price) AS ap FROM order_products";
    let a = common::exact(&local, sql).unwrap();
    let b = common::exact(&remote, sql).unwrap();
    common::assert_tables_bit_identical(&a.table, &b.table, sql);
}

#[test]
fn remote_backend_without_data_version_never_caches_but_stays_correct() {
    let engine = seeded_engine(0.05);
    let local = Arc::new(VerdictContext::new(
        engine.clone() as Arc<dyn Backend>,
        config(),
    ));
    create_scramble(&local, "order_products", "");

    let mut cached_config = config();
    cached_config.answer_cache_capacity = 64;
    let (remote, _server) = remote_context_over(engine, &local, cached_config);

    let sql = "SELECT count(*) AS n FROM order_products";
    let first = common::answer(&remote, sql).unwrap();
    let second = common::answer(&remote, sql).unwrap();
    assert!(!first.exact, "query should have been approximated");
    assert!(
        !second.cached,
        "a backend without data_version must stay uncacheable"
    );
    common::assert_tables_bit_identical(&first.table, &second.table, sql);

    assert_eq!(
        remote.cache_stats().insertions,
        0,
        "no answer may enter the cache without version tracking"
    );
    let backend = remote.backend_stats();
    assert_eq!(backend.name, "remote");
    assert!(
        backend.identity.starts_with("remote@"),
        "unexpected identity {}",
        backend.identity
    );
    assert!(backend.queries_routed > 0);
    assert!(
        backend.version_fallbacks > 0,
        "missing data_version must be counted as a capability fallback"
    );
}

#[test]
fn streaming_over_remote_falls_back_to_a_single_frame() {
    let engine = seeded_engine(0.05);
    let local = Arc::new(VerdictContext::new(
        engine.clone() as Arc<dyn Backend>,
        config(),
    ));
    create_scramble(&local, "order_products", "");
    let (remote, _server) = remote_context_over(engine, &local, config());

    let mut session = VerdictSession::new(Arc::clone(&remote));
    let frames: Vec<_> = session
        .stream("STREAM SELECT count(*) AS n FROM order_products")
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    assert_eq!(
        frames.len(),
        1,
        "no block scans over the wire -> one consolidated frame"
    );

    let streams = remote.stream_stats();
    assert_eq!(streams.started, 1);
    assert_eq!(streams.fallbacks, 1);
    assert!(
        remote.backend_stats().scan_fallbacks >= 1,
        "declined block scan must be counted as a capability fallback"
    );
}

/// The in-process engine behind a `table_row_count` probe counter; every
/// capability the planner uses is forwarded.
struct CountingBackend {
    inner: Arc<Engine>,
    row_count_probes: Mutex<HashMap<String, u32>>,
}

impl Backend for CountingBackend {
    fn execute(&self, sql: &str) -> EngineResult<QueryResult> {
        self.inner.execute(sql)
    }

    fn table_row_count(&self, table: &str) -> EngineResult<u64> {
        *self
            .row_count_probes
            .lock()
            .unwrap()
            .entry(table.to_ascii_lowercase())
            .or_default() += 1;
        self.inner.table_row_count(table)
    }

    fn table_exists(&self, table: &str) -> bool {
        self.inner.table_exists(table)
    }

    fn data_version(&self, table: &str) -> Option<u64> {
        self.inner.data_version(table)
    }

    fn open_block_scan(&self, sql: &str) -> Option<Box<dyn BlockScan>> {
        self.inner.open_block_scan(sql)
    }
}

#[test]
fn a_single_frame_stream_plans_once() {
    // A join is outside the progressive class, so its STREAM is answered as
    // one frame — from the plan made when the stream opened, not from a
    // second planning pass: one row-count probe per referenced table.
    let backend = Arc::new(CountingBackend {
        inner: seeded_engine(0.1),
        row_count_probes: Mutex::new(HashMap::new()),
    });
    let ctx = Arc::new(VerdictContext::new(
        backend.clone() as Arc<dyn Backend>,
        config(),
    ));
    create_scramble(&ctx, "orders", "METHOD hashed ON order_id");
    create_scramble(&ctx, "order_products", "METHOD hashed ON order_id");
    backend.row_count_probes.lock().unwrap().clear();

    let mut session = VerdictSession::new(Arc::clone(&ctx));
    let frames: Vec<_> = session
        .stream(
            "STREAM SELECT count(*) AS n FROM orders o \
             INNER JOIN order_products p ON o.order_id = p.order_id",
        )
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    assert_eq!(frames.len(), 1, "joins stream as a single frame");
    assert!(
        !frames[0].answer.exact,
        "the join must run on the scrambles"
    );

    let probes = backend.row_count_probes.lock().unwrap();
    assert_eq!(probes.get("orders"), Some(&1), "{probes:?}");
    assert_eq!(probes.get("order_products"), Some(&1), "{probes:?}");
    assert_eq!(probes.len(), 2, "{probes:?}");
}

#[test]
fn show_stats_reports_per_backend_counters_over_the_wire() {
    let engine = seeded_engine(0.05);
    let local = Arc::new(VerdictContext::new(
        engine.clone() as Arc<dyn Backend>,
        config(),
    ));
    create_scramble(&local, "order_products", "");
    let (remote, _server) = remote_context_over(engine, &local, config());

    let mut session = VerdictSession::new(Arc::clone(&remote));
    session
        .execute("SELECT count(*) AS n FROM order_products")
        .unwrap();
    let response = session.execute("SHOW STATS").unwrap();
    let stats = stat_map(response.table().expect("SHOW STATS returns a table"));

    assert!(stats["backend_queries"] > 0, "{stats:?}");
    assert!(
        stats["backend_remote_round_trips"] > 0,
        "remote backend must expose its round-trip counter: {stats:?}"
    );
}

/// Regression for the Impala documentation note (scrambles built with
/// `rand()` in an `ORDER BY`-free position): the dialect that disallows
/// `rand()` in `WHERE` must still build working scrambles end to end.
#[test]
fn impala_dialect_builds_usable_scrambles_without_rand_in_where() {
    let engine = seeded_engine(0.05);
    let ctx = Arc::new(VerdictContext::with_dialect(
        engine as Arc<dyn Backend>,
        Box::new(ImpalaDialect),
        config(),
    ));

    let uniform = create_scramble(&ctx, "order_products", "");
    assert!(uniform.sample_rows > 0, "empty uniform scramble");
    let ratio = uniform.sample_rows as f64 / uniform.base_rows as f64;
    assert!(
        (0.01..0.25).contains(&ratio),
        "sampling ratio {ratio:.4} far from requested 0.05"
    );

    let stratified = create_scramble(&ctx, "orders", "METHOD stratified ON city");
    assert!(stratified.sample_rows > 0, "empty stratified scramble");

    let answer = common::answer(&ctx, "SELECT count(*) AS n FROM order_products").unwrap();
    assert!(
        !answer.exact,
        "Impala-built scramble must be usable for AQP"
    );
}
