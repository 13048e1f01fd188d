//! [`RemoteBackend`] — a [`Backend`] that reaches a remote VerdictDB server
//! over the crate's own wire protocol.
//!
//! This turns the serving layer into a *two-tier middleware-over-middleware*
//! deployment: a local [`verdict_core::VerdictContext`] plans and rewrites
//! queries, then ships the rendered SQL to a remote `verdict-server` through
//! [`VerdictClient`].  Every statement goes out as `BYPASS <sql>` so the
//! remote tier executes it verbatim instead of re-approximating SQL that the
//! local tier already rewrote.
//!
//! The backend deliberately advertises **no optional capabilities**: it
//! cannot observe remote writes, so [`Backend::data_version`] stays `None`
//! (answers over it are uncacheable) and [`Backend::open_block_scan`] stays
//! `None` (progressive queries fall back to one-shot execution).  Both
//! degradations are exactly the graceful paths the core layer already
//! implements for capability-poor backends, and both are observable through
//! `SHOW STATS`.

use crate::client::{ClientError, ClientResult, RemoteAnswer, VerdictClient};
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Duration;
use verdict_engine::engine::Backend;
use verdict_engine::{
    EngineError, EngineResult, ExecStats, Field, QueryResult, Schema, Table, Value,
};
use verdict_sql::dialect::{Dialect, GenericDialect};

/// A [`Backend`] implementation speaking the VerdictDB wire protocol.
///
/// The single client connection is shared behind a mutex: statement traffic
/// from one context is serialised anyway (the protocol is strictly
/// request/response), and the remote server happily accepts more connections
/// if callers want more parallelism — one `RemoteBackend` per context.
pub struct RemoteBackend {
    client: Mutex<VerdictClient>,
    identity: String,
    round_trips: AtomicU64,
}

impl RemoteBackend {
    /// Connects to a `verdict-server` at `addr` (e.g. `"127.0.0.1:4433"` or
    /// a [`std::net::SocketAddr`]).
    pub fn connect<A: ToSocketAddrs + std::fmt::Display>(addr: A) -> ClientResult<RemoteBackend> {
        let identity = format!("remote@{addr}");
        let client = VerdictClient::connect(addr)?;
        Ok(RemoteBackend {
            client: Mutex::new(client),
            identity,
            round_trips: AtomicU64::new(0),
        })
    }

    /// Wire round-trips performed so far (one per statement or probe).
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Relaxed)
    }

    /// Sends one session-level statement (`SQL <stmt>`) and returns the
    /// frame.
    fn send(&self, stmt: &str) -> ClientResult<RemoteAnswer> {
        self.round_trips.fetch_add(1, Relaxed);
        let mut client = self
            .client
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        client.sql(stmt)
    }

    /// Sends one raw statement as `BYPASS <sql>` and returns the frame.
    fn run(&self, sql: &str) -> ClientResult<RemoteAnswer> {
        self.send(&format!("BYPASS {sql}"))
    }
}

/// Maps a wire failure onto the engine error type backends must speak.
fn remote_err(e: ClientError) -> EngineError {
    EngineError::Execution(format!("remote backend: {e}"))
}

/// Rebuilds an engine [`Table`] from a wire frame (the protocol ships rows;
/// the columnar constructor wants per-column value vectors, so transpose).
fn table_from_answer(answer: &RemoteAnswer) -> EngineResult<Table> {
    let fields: Vec<Field> = answer
        .columns
        .iter()
        .zip(answer.types.iter())
        .map(|(name, dt)| Field::new(name, *dt))
        .collect();
    let schema = Schema::new(fields);
    let mut columns: Vec<Vec<Value>> =
        vec![Vec::with_capacity(answer.rows.len()); answer.types.len()];
    for row in &answer.rows {
        for (i, v) in row.iter().enumerate() {
            columns[i].push(v.clone());
        }
    }
    Table::from_value_columns(schema, columns)
}

impl Backend for RemoteBackend {
    fn execute(&self, sql: &str) -> EngineResult<QueryResult> {
        let answer = self.run(sql).map_err(remote_err)?;
        Ok(QueryResult {
            table: table_from_answer(&answer)?,
            stats: ExecStats {
                rows_scanned: answer.header.rows_scanned,
                elapsed: Duration::from_micros(answer.header.elapsed_us),
            },
        })
    }

    fn table_row_count(&self, table: &str) -> EngineResult<u64> {
        let sql = format!(
            "SELECT count(*) AS c FROM {}",
            GenericDialect.quote_ident(table)
        );
        let answer = self.run(&sql).map_err(remote_err)?;
        answer
            .rows
            .first()
            .and_then(|r| r.first())
            .and_then(|v| v.as_i64())
            .map(|n| n as u64)
            .ok_or_else(|| {
                EngineError::Execution(format!("remote backend: no count row for table {table}"))
            })
    }

    fn table_exists(&self, table: &str) -> bool {
        let sql = format!(
            "SELECT * FROM {} LIMIT 1",
            GenericDialect.quote_ident(table)
        );
        self.run(&sql).is_ok()
    }

    fn name(&self) -> &'static str {
        "remote"
    }

    fn identity(&self) -> String {
        self.identity.clone()
    }

    fn dialect(&self) -> &dyn Dialect {
        // The remote tier is another VerdictDB server fronting the in-repo
        // engine, which speaks the generic dialect.
        &GenericDialect
    }

    fn backend_stats(&self) -> Vec<(String, u64)> {
        vec![("remote_round_trips".to_string(), self.round_trips())]
    }

    fn set_parallelism(&self, threads: usize) {
        // A best-effort hint: not `BYPASS`, and the response is ignored.
        let _ = self.send(&format!("SET parallelism = {threads}"));
    }

    // data_version and open_block_scan keep their trait defaults (`None`):
    // the remote tier cannot push invalidations or stream blocks over this
    // protocol, so caching and progressive execution degrade gracefully.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::VerdictServer;
    use std::sync::Arc;
    use verdict_core::{VerdictConfig, VerdictContext};
    use verdict_engine::{Engine, TableBuilder};

    fn serve() -> (crate::server::ServerHandle, Engine) {
        let engine = Engine::with_seed(77);
        let table = TableBuilder::new()
            .int_column("id", (0..500).collect())
            .float_column("price", (0..500).map(|i| i as f64 * 0.25).collect())
            .str_column("city", (0..500).map(|i| format!("c{}", i % 7)).collect())
            .build()
            .unwrap();
        engine.register_table("sales", table);
        let ctx = Arc::new(VerdictContext::new(
            Arc::new(engine.clone()),
            VerdictConfig::default(),
        ));
        let handle = VerdictServer::bind("127.0.0.1:0", ctx)
            .unwrap()
            .spawn()
            .unwrap();
        (handle, engine)
    }

    #[test]
    fn remote_backend_matches_direct_execution() {
        let (handle, engine) = serve();
        let remote = RemoteBackend::connect(handle.addr()).unwrap();
        let sql = "SELECT city, count(*) AS cnt, avg(price) AS ap \
                   FROM sales GROUP BY city ORDER BY city";
        let direct = engine.execute_sql(sql).unwrap();
        let over_wire = remote.execute(sql).unwrap();
        assert_eq!(direct.table.num_rows(), over_wire.table.num_rows());
        for row in 0..direct.table.num_rows() {
            for col in 0..direct.table.num_columns() {
                assert_eq!(
                    direct.table.value_at(row, col),
                    over_wire.table.value_at(row, col),
                    "mismatch at ({row}, {col})"
                );
            }
        }
        assert!(remote.round_trips() >= 1);
        handle.stop();
    }

    #[test]
    fn remote_backend_probes_and_capabilities() {
        let (handle, _engine) = serve();
        let remote = RemoteBackend::connect(handle.addr()).unwrap();
        assert_eq!(remote.table_row_count("sales").unwrap(), 500);
        assert!(remote.table_exists("sales"));
        assert!(!remote.table_exists("nope"));
        assert!(remote.data_version("sales").is_none());
        assert!(remote
            .open_block_scan("SELECT avg(price) FROM sales")
            .is_none());
        assert_eq!(remote.name(), "remote");
        assert!(remote.identity().starts_with("remote@"));
        let stats = remote.backend_stats();
        assert_eq!(stats[0].0, "remote_round_trips");
        assert!(stats[0].1 >= 3);
        handle.stop();
    }
}
