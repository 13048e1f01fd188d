//! # verdictdb
//!
//! Facade crate for **VerdictDB-rs**, a Rust reproduction of
//! *"VerdictDB: Universalizing Approximate Query Processing"* (SIGMOD 2018).
//!
//! It re-exports the four member crates so applications can depend on a
//! single crate:
//!
//! * [`sql`] — SQL parser, AST, dialects, printer;
//! * [`engine`] — the in-memory columnar SQL engine used as the underlying
//!   database substitute (Impala / Spark SQL / Redshift stand-in);
//! * [`core`] — the VerdictDB middleware itself (sampling, planning,
//!   variational-subsampling rewriting, answer/error assembly) and the
//!   SQL-only [`VerdictSession`] surface (scramble DDL, `BYPASS`, `SET`);
//! * [`data`] — dataset generators and the benchmark workloads;
//! * [`server`] — concurrent TCP serving layer (line protocol, session
//!   threads, approximate-answer cache front) plus [`RemoteBackend`], the
//!   wire protocol packaged as a pluggable [`Backend`];
//! * [`store`] — the persistent scramble store (paged columnar block files,
//!   redo-only WAL, crash recovery) behind `--data-dir` / cold-start
//!   serving (see `docs/storage.md`).
//!
//! The middleware reaches whatever store sits underneath through the
//! [`Backend`] trait (see `docs/backends.md`): the in-process [`Engine`] is
//! one implementation, [`RemoteBackend`] is another.
//!
//! See `examples/quickstart.rs` for a five-minute tour, README.md for the
//! project overview, and `docs/` for architecture and serving details.

pub use verdict_core as core;
pub use verdict_data as data;
pub use verdict_engine as engine;
pub use verdict_server as server;
pub use verdict_sql as sql;
pub use verdict_store as store;

pub use verdict_core::{
    BackendStats, DialectBackend, ProgressFrame, ProgressStream, SampleType, VerdictAnswer,
    VerdictConfig, VerdictContext, VerdictError, VerdictResponse, VerdictResult, VerdictSession,
};
pub use verdict_engine::{Backend, Engine, StoreHandle, Table, TableBuilder, Value};
pub use verdict_server::{RemoteBackend, ServerHandle, VerdictServer};
pub use verdict_store::{Store, StoreStats};

/// Convenience constructor: a [`VerdictSession`] over a freshly-created
/// context (the SQL-only surface most applications should use).
pub fn session(ctx: VerdictContext) -> VerdictSession {
    VerdictSession::new(std::sync::Arc::new(ctx))
}

/// Dataset scale for the bundled `examples/`: the given default, unless the
/// `VERDICT_EXAMPLE_SCALE` environment variable overrides it (CI runs every
/// example against tiny datasets this way).
pub fn example_scale(default: f64) -> f64 {
    std::env::var("VERDICT_EXAMPLE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Convenience constructor: an in-memory engine preloaded with the
/// Instacart-like dataset at the given scale, wrapped in a [`VerdictContext`]
/// ready for sample creation.
pub fn instacart_context(
    scale: f64,
    config: VerdictConfig,
) -> (std::sync::Arc<Engine>, VerdictContext) {
    let engine = std::sync::Arc::new(Engine::with_seed(7));
    verdict_data::InstacartGenerator::new(scale).register(&engine);
    let conn: std::sync::Arc<dyn Backend> = engine.clone();
    (engine, VerdictContext::new(conn, config))
}

/// Convenience constructor: an in-memory engine preloaded with the TPC-H-like
/// dataset at the given scale factor, wrapped in a [`VerdictContext`].
pub fn tpch_context(scale: f64, config: VerdictConfig) -> (std::sync::Arc<Engine>, VerdictContext) {
    let engine = std::sync::Arc::new(Engine::with_seed(11));
    verdict_data::TpchGenerator::new(scale).register(&engine);
    let conn: std::sync::Arc<dyn Backend> = engine.clone();
    (engine, VerdictContext::new(conn, config))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_constructors_produce_working_contexts() {
        let (_engine, ctx) = instacart_context(0.005, VerdictConfig::for_testing());
        let exact = session(ctx)
            .execute("BYPASS SELECT count(*) FROM orders")
            .unwrap()
            .into_answer()
            .unwrap();
        assert!(exact.table.value(0, 0).as_i64().unwrap() > 0);
    }

    #[test]
    fn facade_session_speaks_sql_only() {
        let (_engine, ctx) = instacart_context(0.005, VerdictConfig::for_testing());
        let mut s = session(ctx);
        let answer = s
            .execute("BYPASS SELECT count(*) AS n FROM orders")
            .unwrap()
            .into_answer()
            .unwrap();
        assert!(answer.exact);
        assert!(answer.table.value(0, 0).as_i64().unwrap() > 0);
        let listing = s.execute("SHOW SCRAMBLES").unwrap();
        assert!(matches!(listing, VerdictResponse::Answer(_)));
    }
}
