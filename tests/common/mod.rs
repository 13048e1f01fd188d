//! Helpers shared by the integration-test binaries (`mod common;`).

// Each test binary compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

pub mod walk;

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use verdictdb::{
    Backend, Engine, RemoteBackend, ServerHandle, Store, StoreHandle, Table, Value, VerdictAnswer,
    VerdictConfig, VerdictContext, VerdictResult, VerdictServer, VerdictSession,
};

/// True when the run was asked to route every query through the wire
/// protocol (`VERDICT_BACKEND=remote`): the CI matrix leg proving the
/// middleware behaves the same when the engine sits behind a server.
pub fn remote_backend_requested() -> bool {
    std::env::var("VERDICT_BACKEND")
        .map(|v| v.eq_ignore_ascii_case("remote"))
        .unwrap_or(false)
}

/// The persistence matrix leg: with `VERDICT_DATA_DIR=<dir>` every
/// in-process test context writes its scrambles through a [`Store`] rooted
/// in a unique subdirectory of `<dir>` — the whole suite then exercises the
/// WAL-commit and write-through paths on top of its usual assertions.
/// (Ignored in remote mode: the store attaches to an in-process engine.)
pub fn data_dir_requested() -> Option<String> {
    std::env::var("VERDICT_DATA_DIR")
        .ok()
        .filter(|d| !d.is_empty())
}

/// Distinguishes contexts within one test binary; combined with the process
/// id it keeps concurrent tests from sharing a store directory.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A `VerdictContext` plus whatever keeps its backend alive: nothing extra
/// for the in-process engine, the spawned `verdict-server` in remote mode
/// (dropping the handle stops the server, so the fixture owns it).
pub struct TestContext {
    pub ctx: Arc<VerdictContext>,
    _server: Option<ServerHandle>,
}

impl Deref for TestContext {
    type Target = Arc<VerdictContext>;

    fn deref(&self) -> &Arc<VerdictContext> {
        &self.ctx
    }
}

/// The answer to one statement on a fresh session over `ctx` (the
/// context's base configuration, no `SET`).
pub fn answer(ctx: &Arc<VerdictContext>, sql: &str) -> VerdictResult<VerdictAnswer> {
    VerdictSession::new(Arc::clone(ctx))
        .execute(sql)?
        .into_answer()
}

/// The exact answer to one statement: `BYPASS <sql>` on a fresh session.
pub fn exact(ctx: &Arc<VerdictContext>, sql: &str) -> VerdictResult<VerdictAnswer> {
    answer(ctx, &format!("BYPASS {sql}"))
}

/// Builds a context over `engine`, honouring `VERDICT_BACKEND`.  In remote
/// mode the engine is hidden behind a freshly spawned server and the context
/// talks to it through a [`RemoteBackend`], so every statement the
/// middleware generates is rendered to SQL and round-tripped over TCP.
pub fn context_over(engine: Arc<Engine>, config: VerdictConfig) -> TestContext {
    if remote_backend_requested() {
        let server_ctx = Arc::new(VerdictContext::new(
            engine as Arc<dyn Backend>,
            VerdictConfig::for_testing(),
        ));
        let handle = VerdictServer::bind("127.0.0.1:0", server_ctx)
            .expect("bind test server")
            .spawn()
            .expect("spawn test server");
        let remote = RemoteBackend::connect(handle.addr()).expect("connect remote backend");
        TestContext {
            ctx: Arc::new(VerdictContext::new(Arc::new(remote), config)),
            _server: Some(handle),
        }
    } else if let Some(root) = data_dir_requested() {
        let dir = std::path::Path::new(&root).join(format!(
            "t{}_{}",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let store = Arc::new(Store::open(&dir).expect("open test store"));
        engine
            .catalog()
            .set_store(Arc::clone(&store) as Arc<dyn StoreHandle>);
        let ctx = VerdictContext::with_store(engine as Arc<dyn Backend>, config, store)
            .expect("attach test store");
        TestContext {
            ctx: Arc::new(ctx),
            _server: None,
        }
    } else {
        TestContext {
            ctx: Arc::new(VerdictContext::new(engine as Arc<dyn Backend>, config)),
            _server: None,
        }
    }
}

/// Exact variant-level equality: floats compare by bit pattern, so this is
/// stricter than `Value == Value` (which coerces Int vs Float).
pub fn values_bit_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        _ => false,
    }
}

/// Asserts two tables are bit-identical: same shape, same values, floats
/// compared by bits.  `context` labels the failing case (e.g. a seed).
pub fn assert_tables_bit_identical(a: &Table, b: &Table, context: &str) {
    assert_eq!(a.num_rows(), b.num_rows(), "{context}: row counts differ");
    assert_eq!(
        a.num_columns(),
        b.num_columns(),
        "{context}: column counts differ"
    );
    for r in 0..a.num_rows() {
        for c in 0..a.num_columns() {
            assert!(
                values_bit_identical(&a.value_at(r, c), &b.value_at(r, c)),
                "{context} ({r},{c}): {:?} vs {:?}",
                a.value_at(r, c),
                b.value_at(r, c)
            );
        }
    }
}
