//! The engine facade and the driver-level [`Backend`] trait.
//!
//! VerdictDB talks to the underlying database exclusively through a SQL
//! string interface (JDBC/ODBC in the paper).  [`Backend`] models that
//! interface; [`Engine`] is the in-memory implementation used as the
//! substitute for Impala / Spark SQL / Redshift.

use crate::catalog::Catalog;
use crate::error::EngineResult;
use crate::exec::progressive::{BlockScan, ProgressiveScan};
use crate::exec::Executor;
use crate::parallel::ThreadPool;
use crate::table::Table;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use verdict_sql::dialect::{Dialect, GenericDialect};

/// Execution statistics for one statement.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Number of base-table rows scanned (across all scans in the statement).
    pub rows_scanned: u64,
    /// Wall-clock time spent inside the engine.
    pub elapsed: Duration,
}

/// The result of executing one SQL statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The result rows (empty for DDL/DML).
    pub table: Table,
    /// Execution statistics.
    pub stats: ExecStats,
}

/// The driver-level interface VerdictDB uses to reach the underlying database.
///
/// Three methods are required — `execute`, `table_row_count`,
/// `table_exists` — and everything else is a *capability hook* with a
/// conservative default, so a minimal pass-through JDBC/ODBC-style backend
/// is three methods of glue.  Callers must tolerate every default: no
/// [`data_version`](Backend::data_version) means answers over this backend
/// are uncacheable, no [`open_block_scan`](Backend::open_block_scan) means
/// progressive queries fall back to one-shot execution, and the
/// [`dialect`](Backend::dialect) drives how the planner renders SQL
/// (identifier quoting, `rand()` spelling, rand-in-WHERE workarounds).
pub trait Backend: Send + Sync {
    /// Executes one SQL statement and returns the result set plus statistics.
    fn execute(&self, sql: &str) -> EngineResult<QueryResult>;

    /// Returns the number of rows in a table (used for sample planning and
    /// the default sampling policy), or an error when the table is missing.
    fn table_row_count(&self, table: &str) -> EngineResult<u64>;

    /// True when a table exists.
    fn table_exists(&self, table: &str) -> bool;

    /// A short static name for this backend kind (`"engine"`, `"remote"`).
    fn name(&self) -> &'static str {
        "backend"
    }

    /// A stable identity string distinguishing backend *instances* (for a
    /// remote backend, typically `remote@host:port`).  Answer-cache keys
    /// fold this in so answers computed against one backend are never
    /// replayed against another.
    fn identity(&self) -> String {
        self.name().to_string()
    }

    /// The SQL dialect this backend speaks.  All SQL the middleware
    /// generates — scramble builds, append maintenance, rewritten AQP
    /// queries, bootstrap replicates — is rendered through this dialect.
    fn dialect(&self) -> &dyn Dialect {
        &GenericDialect
    }

    /// Backend-specific observability counters surfaced by `SHOW STATS`
    /// (for example a remote backend's wire round-trips).  Names should be
    /// lowercase snake_case; the default backend has none.
    fn backend_stats(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    /// Requests that the connection use `threads` workers for query
    /// execution.  Connections without an execution engine of their own (the
    /// real JDBC/ODBC case the paper targets) ignore the hint; the in-memory
    /// [`Engine`] resizes its morsel pool.
    fn set_parallelism(&self, threads: usize) {
        let _ = threads;
    }

    /// The monotonic data version of a table, advanced by every write
    /// (create, append, drop, replace), or `None` when the connection cannot
    /// track mutations.  Answer caches use this to decide whether a stored
    /// answer is still valid; returning `None` (the default) makes cached
    /// answers for queries over this connection ineligible, which is the
    /// safe behaviour for pass-through JDBC/ODBC-style connections.  Keep it
    /// a local read, never a round trip: a serving layer validates a cache
    /// hit with it on the I/O thread that serves every other connection.
    fn data_version(&self, table: &str) -> Option<u64> {
        let _ = table;
        None
    }

    /// Materialises an exact snapshot of a table's current contents, when
    /// this backend can produce one cheaply (the in-process [`Engine`] hands
    /// out its catalog image).  The middleware's persistence layer uses this
    /// to capture a freshly-built scramble — physical row order included —
    /// for its initial write to the on-disk store.  `None` (the default)
    /// means the backend cannot snapshot tables and persistence is
    /// unavailable over it.
    fn table_snapshot(&self, table: &str) -> Option<Table> {
        let _ = table;
        None
    }

    /// Opens a resumable block-scan cursor for a statement, when this
    /// connection can execute it progressively (see
    /// [`crate::exec::progressive::BlockScan`]).  Returns `None` — the
    /// default, and the right answer for pass-through JDBC/ODBC-style
    /// connections — when progressive execution is unavailable or the
    /// statement's shape is outside the progressive class; callers fall back
    /// to one-shot execution.
    fn open_block_scan(&self, sql: &str) -> Option<Box<dyn BlockScan>> {
        let _ = sql;
        None
    }
}

/// The in-memory SQL engine: a catalog plus an executor per statement.
#[derive(Clone)]
pub struct Engine {
    catalog: Arc<Catalog>,
    /// Optional deterministic seed for `rand()`; incremented per statement so
    /// repeated sampling statements do not reuse the same randomness.
    seed: Arc<Mutex<Option<u64>>>,
    /// Morsel-parallel worker pool shared by every statement this engine
    /// executes.  Results are bit-identical at any pool size (partial states
    /// merge in morsel order); the size only changes wall-clock time.
    pool: Arc<ThreadPool>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Creates an engine with an empty catalog and nondeterministic `rand()`.
    pub fn new() -> Engine {
        Engine {
            catalog: Arc::new(Catalog::new()),
            seed: Arc::new(Mutex::new(None)),
            pool: Arc::new(ThreadPool::with_default_parallelism()),
        }
    }

    /// Creates an engine whose `rand()` calls are deterministic, for
    /// reproducible experiments and tests.
    pub fn with_seed(seed: u64) -> Engine {
        Engine {
            catalog: Arc::new(Catalog::new()),
            seed: Arc::new(Mutex::new(Some(seed))),
            pool: Arc::new(ThreadPool::with_default_parallelism()),
        }
    }

    /// Creates a deterministic engine with an explicit worker-thread count.
    pub fn with_seed_and_parallelism(seed: u64, threads: usize) -> Engine {
        let engine = Engine::with_seed(seed);
        engine.pool.set_parallelism(threads);
        engine
    }

    /// The current worker-thread count.
    pub fn parallelism(&self) -> usize {
        self.pool.parallelism()
    }

    /// Access to the underlying catalog (to register generated datasets).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Registers a table directly (bypassing SQL), used by data generators.
    pub fn register_table(&self, name: &str, table: Table) {
        self.catalog.register(name, table);
    }

    fn next_seed(&self) -> Option<u64> {
        let mut guard = self.seed.lock();
        match guard.as_mut() {
            Some(s) => {
                let current = *s;
                *s = s.wrapping_add(1);
                Some(current)
            }
            None => None,
        }
    }

    /// Executes a single SQL statement.
    pub fn execute_sql(&self, sql: &str) -> EngineResult<QueryResult> {
        let stmt = verdict_sql::parse_statement(sql)?;
        let start = Instant::now();
        let mut exec = Executor::with_pool(&self.catalog, self.next_seed(), Arc::clone(&self.pool));
        let table = exec.execute_statement(&stmt)?;
        Ok(QueryResult {
            table,
            stats: ExecStats {
                rows_scanned: exec.rows_scanned,
                elapsed: start.elapsed(),
            },
        })
    }
}

impl Backend for Engine {
    fn execute(&self, sql: &str) -> EngineResult<QueryResult> {
        self.execute_sql(sql)
    }

    fn table_row_count(&self, table: &str) -> EngineResult<u64> {
        // Answer from the catalog (or a persisted table's stored header)
        // without materialising store-backed tables.
        if !self.catalog.exists(table) {
            return Err(crate::error::EngineError::TableNotFound(table.to_string()));
        }
        Ok(self.catalog.row_count(table) as u64)
    }

    fn table_exists(&self, table: &str) -> bool {
        self.catalog.exists(table)
    }

    fn name(&self) -> &'static str {
        "engine"
    }

    fn set_parallelism(&self, threads: usize) {
        self.pool.set_parallelism(threads);
    }

    fn data_version(&self, table: &str) -> Option<u64> {
        Some(self.catalog.data_version(table))
    }

    fn table_snapshot(&self, table: &str) -> Option<Table> {
        self.catalog.get(table).ok().map(|t| (*t).clone())
    }

    fn open_block_scan(&self, sql: &str) -> Option<Box<dyn BlockScan>> {
        let stmt = verdict_sql::parse_statement(sql).ok()?;
        let query = match stmt {
            verdict_sql::ast::Statement::Query(q) => q,
            _ => return None,
        };
        ProgressiveScan::try_new(&self.catalog, &query, Arc::clone(&self.pool))
            .ok()
            .map(|scan| Box::new(scan) as Box<dyn BlockScan>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::value::Value;

    fn engine() -> Engine {
        let e = Engine::with_seed(11);
        let t = TableBuilder::new()
            .int_column("id", (0..1000).collect())
            .float_column("price", (0..1000).map(|i| i as f64).collect())
            .build()
            .unwrap();
        e.register_table("sales", t);
        e
    }

    #[test]
    fn executes_sql_and_reports_stats() {
        let e = engine();
        let r = e
            .execute_sql("SELECT count(*), avg(price) FROM sales WHERE price < 500")
            .unwrap();
        assert_eq!(r.table.value_at(0, 0), Value::Int(500));
        assert_eq!(r.stats.rows_scanned, 1000);
        assert!(r.stats.elapsed.as_nanos() > 0);
    }

    #[test]
    fn connection_trait_methods() {
        let e = engine();
        assert!(e.table_exists("sales"));
        assert!(!e.table_exists("nope"));
        assert_eq!(e.table_row_count("sales").unwrap(), 1000);
    }

    #[test]
    fn seeded_rand_is_reproducible_across_engines() {
        let run = || {
            let e = engine();
            let r = e
                .execute_sql("SELECT count(*) FROM sales WHERE rand() < 0.1")
                .unwrap();
            r.table.value(0, 0).as_i64().unwrap()
        };
        assert_eq!(run(), run());
    }
}
