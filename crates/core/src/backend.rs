//! Backend wrappers used by [`crate::context::VerdictContext`].
//!
//! The context never talks to a raw [`Backend`] directly: every backend is
//! wrapped in an instrumentation layer (`InstrumentedBackend`, crate-private)
//! that counts queries routed and
//! capability fallbacks taken (surfaced by `SHOW STATS`), and an explicit
//! dialect choice is expressed by stacking a [`DialectBackend`] underneath.
//! Both wrappers are transparent — they forward every call unchanged — so
//! the answers a wrapped backend produces are bit-identical to the bare one.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use verdict_engine::engine::Backend;
use verdict_engine::{BlockScan, EngineResult, QueryResult};
use verdict_sql::dialect::Dialect;

/// Snapshot of the per-backend routing counters (surfaced by `SHOW STATS`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// The backend's kind name ([`Backend::name`]).
    pub name: String,
    /// The backend's instance identity ([`Backend::identity`]).
    pub identity: String,
    /// SQL statements routed through [`Backend::execute`], plus block scans
    /// opened by [`Backend::open_block_scan`].
    pub queries_routed: u64,
    /// Times [`Backend::data_version`] answered `None` — each one is a
    /// cacheability check that had to assume "uncacheable".
    pub version_fallbacks: u64,
    /// Times [`Backend::open_block_scan`] answered `None` — each one is a
    /// progressive query that fell back to one-shot execution.
    pub scan_fallbacks: u64,
    /// Backend-specific counters ([`Backend::backend_stats`]), e.g. a remote
    /// backend's wire round-trips.
    pub extra: Vec<(String, u64)>,
}

/// Transparent wrapper counting queries routed and capability fallbacks.
pub(crate) struct InstrumentedBackend {
    inner: Arc<dyn Backend>,
    queries: AtomicU64,
    version_fallbacks: AtomicU64,
    scan_fallbacks: AtomicU64,
}

impl InstrumentedBackend {
    pub(crate) fn new(inner: Arc<dyn Backend>) -> InstrumentedBackend {
        InstrumentedBackend {
            inner,
            queries: AtomicU64::new(0),
            version_fallbacks: AtomicU64::new(0),
            scan_fallbacks: AtomicU64::new(0),
        }
    }

    /// Queries routed so far — a single atomic load, cheap enough to snapshot
    /// before/after a statement for per-trace backend attribution.
    pub(crate) fn queries_routed(&self) -> u64 {
        self.queries.load(Relaxed)
    }

    pub(crate) fn stats(&self) -> BackendStats {
        BackendStats {
            name: self.inner.name().to_string(),
            identity: self.inner.identity(),
            queries_routed: self.queries.load(Relaxed),
            version_fallbacks: self.version_fallbacks.load(Relaxed),
            scan_fallbacks: self.scan_fallbacks.load(Relaxed),
            extra: self.inner.backend_stats(),
        }
    }
}

impl Backend for InstrumentedBackend {
    fn execute(&self, sql: &str) -> EngineResult<QueryResult> {
        self.queries.fetch_add(1, Relaxed);
        self.inner.execute(sql)
    }

    fn table_row_count(&self, table: &str) -> EngineResult<u64> {
        self.inner.table_row_count(table)
    }

    fn table_exists(&self, table: &str) -> bool {
        self.inner.table_exists(table)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn identity(&self) -> String {
        self.inner.identity()
    }

    fn dialect(&self) -> &dyn Dialect {
        self.inner.dialect()
    }

    fn backend_stats(&self) -> Vec<(String, u64)> {
        self.inner.backend_stats()
    }

    fn set_parallelism(&self, threads: usize) {
        self.inner.set_parallelism(threads);
    }

    fn data_version(&self, table: &str) -> Option<u64> {
        let version = self.inner.data_version(table);
        if version.is_none() {
            self.version_fallbacks.fetch_add(1, Relaxed);
        }
        version
    }

    fn open_block_scan(&self, sql: &str) -> Option<Box<dyn BlockScan>> {
        let scan = self.inner.open_block_scan(sql);
        // An opened scan is a routed query; a declined one is answered
        // through `execute`, which counts itself.
        let counter = if scan.is_some() {
            &self.queries
        } else {
            &self.scan_fallbacks
        };
        counter.fetch_add(1, Relaxed);
        scan
    }

    fn table_snapshot(&self, table: &str) -> Option<verdict_engine::Table> {
        self.inner.table_snapshot(table)
    }
}

/// A backend wrapper that overrides the inner backend's SQL dialect.
///
/// [`crate::context::VerdictContext::with_dialect`] stacks one of these under
/// the instrumentation wrapper, so "the same store, addressed in Impala SQL"
/// is itself just another backend.  Everything except [`Backend::dialect`]
/// and [`Backend::identity`] forwards to the inner backend unchanged.
pub struct DialectBackend {
    inner: Arc<dyn Backend>,
    dialect: Box<dyn Dialect>,
}

impl DialectBackend {
    /// Wraps `inner` so that all generated SQL is rendered in `dialect`.
    pub fn new(inner: Arc<dyn Backend>, dialect: Box<dyn Dialect>) -> DialectBackend {
        DialectBackend { inner, dialect }
    }
}

impl Backend for DialectBackend {
    fn execute(&self, sql: &str) -> EngineResult<QueryResult> {
        self.inner.execute(sql)
    }

    fn table_row_count(&self, table: &str) -> EngineResult<u64> {
        self.inner.table_row_count(table)
    }

    fn table_exists(&self, table: &str) -> bool {
        self.inner.table_exists(table)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn identity(&self) -> String {
        format!("{}+{}", self.inner.identity(), self.dialect.name())
    }

    fn dialect(&self) -> &dyn Dialect {
        self.dialect.as_ref()
    }

    fn backend_stats(&self) -> Vec<(String, u64)> {
        self.inner.backend_stats()
    }

    fn set_parallelism(&self, threads: usize) {
        self.inner.set_parallelism(threads);
    }

    fn data_version(&self, table: &str) -> Option<u64> {
        self.inner.data_version(table)
    }

    fn open_block_scan(&self, sql: &str) -> Option<Box<dyn BlockScan>> {
        self.inner.open_block_scan(sql)
    }

    fn table_snapshot(&self, table: &str) -> Option<verdict_engine::Table> {
        self.inner.table_snapshot(table)
    }
}
