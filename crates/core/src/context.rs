//! [`VerdictContext`] — the shared state of the middleware.
//!
//! A context wraps a driver-level [`Backend`] to the underlying database
//! (paper Figure 1a) and holds what every session shares: the sample
//! registry, the answer cache, the observability registry and (optionally)
//! the persistent scramble store.  It carries the two stages of the
//! workflow (Figure 2):
//!
//! * **sample preparation** — the implementations behind the scramble DDL
//!   (`CREATE SCRAMBLE[S]` / `REFRESH SCRAMBLES` / `DROP SCRAMBLE[S]`, issued
//!   through a [`crate::session::VerdictSession`]) build sample tables with
//!   plain `CREATE TABLE … AS SELECT` statements and record their metadata;
//! * **query processing** — [`VerdictContext::run_statement`] (see
//!   [`crate::pipeline`]) plans which samples to use, rewrites the query,
//!   has the underlying database execute the rewritten SQL, and assembles
//!   the approximate answer plus error estimates.  Unsupported queries and
//!   queries for which no sampled plan fits the I/O budget are transparently
//!   passed through to the underlying database.

use crate::answer::ColumnErrorSummary;
use crate::backend::{BackendStats, DialectBackend, InstrumentedBackend};
use crate::cache::{AnswerCache, CacheStats};
use crate::config::VerdictConfig;
use crate::error::{VerdictError, VerdictResult};
use crate::meta::MetaStore;
use crate::obs::Obs;
use crate::sample::builder::build_sample_sql;
use crate::sample::maintenance::{append_sql, staleness, Staleness};
use crate::sample::policy::{default_policy, ColumnCardinality};
use crate::sample::{SampleMeta, SampleType};
use std::sync::Arc;
use std::time::Duration;
use verdict_engine::{Backend, Table};
use verdict_sql::dialect::Dialect;

/// The approximate (or exact, after fallback) answer to one query.
#[derive(Debug, Clone)]
pub struct VerdictAnswer {
    /// The result rows, shaped like the original query's output (plus
    /// optional `<column>_err` columns when configured).
    pub table: Table,
    /// True when the answer was computed exactly on the base tables
    /// (unsupported query, no viable sample plan, or accuracy-contract rerun).
    pub exact: bool,
    /// True when the answer was served from the approximate-answer cache
    /// without touching the underlying database.  `table`, `errors`,
    /// `rewritten_sql`, `rows_scanned`, and `used_samples` are bit-identical
    /// to the originally computed answer; only `elapsed` reflects the (much
    /// cheaper) cache lookup.
    pub cached: bool,
    /// Estimated error summaries per aggregate output column (empty for exact answers).
    pub errors: Vec<ColumnErrorSummary>,
    /// The SQL statements actually sent to the underlying database.
    pub rewritten_sql: Vec<String>,
    /// Wall-clock time spent end-to-end inside VerdictDB (including the
    /// underlying database's execution time).
    pub elapsed: Duration,
    /// Total base/sample rows scanned by the underlying database.
    pub rows_scanned: u64,
    /// Names of the sample tables used (empty for exact answers).
    pub used_samples: Vec<String>,
}

impl VerdictAnswer {
    /// An exact answer computed in-process, with nothing sent to the
    /// backend: a system relation's rows, or an `EXPLAIN` table.
    pub(crate) fn in_process(table: Table) -> VerdictAnswer {
        VerdictAnswer {
            table,
            exact: true,
            cached: false,
            errors: Vec::new(),
            rewritten_sql: Vec::new(),
            elapsed: Duration::ZERO,
            rows_scanned: 0,
            used_samples: Vec::new(),
        }
    }

    /// The largest estimated relative error across all aggregate columns.
    pub fn max_relative_error(&self) -> f64 {
        self.errors
            .iter()
            .map(|e| e.max_relative_error)
            .fold(0.0, f64::max)
    }
}

/// Monotonic counters describing progressive-stream activity on a context
/// (surfaced by `SHOW STATS`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Streams opened (progressive or fallback).
    pub started: u64,
    /// Frames emitted across all streams.
    pub frames: u64,
    /// Streams that stopped early because the target error was met.
    pub early_stops: u64,
    /// Streams that consumed every scramble block.
    pub completed: u64,
    /// Streams answered as a single frame because the query was outside the
    /// progressive class (joins, count-distinct, min/max, no usable
    /// scramble, or a connection without block scans).
    pub fallbacks: u64,
}

/// Interior-mutable holder for [`StreamStats`].
#[derive(Debug, Default)]
pub(crate) struct StreamCounters {
    pub(crate) started: std::sync::atomic::AtomicU64,
    pub(crate) frames: std::sync::atomic::AtomicU64,
    pub(crate) early_stops: std::sync::atomic::AtomicU64,
    pub(crate) completed: std::sync::atomic::AtomicU64,
    pub(crate) fallbacks: std::sync::atomic::AtomicU64,
}

/// Extra `verdict_stats` rows of one section, read at every scrape; `None`
/// once their owner is gone (see [`VerdictContext::set_stats_source`]).
pub type StatsSource = Box<dyn Fn() -> Option<Vec<(&'static str, u64)>> + Send + Sync>;

/// The VerdictDB middleware instance.
pub struct VerdictContext {
    /// The active backend, wrapped in routing instrumentation.  Kept as a
    /// type-erased `Arc<dyn Backend>` so [`Self::connection`] can hand out
    /// the trait object directly.
    pub(crate) conn: Arc<dyn Backend>,
    /// The same allocation as `conn`, concretely typed so the routing
    /// counters can be read back for `SHOW STATS`.
    pub(crate) instrumented: Arc<InstrumentedBackend>,
    /// The backend's [`Backend::identity`], read once: part of every
    /// answer-cache key.
    pub(crate) identity: Arc<str>,
    config: VerdictConfig,
    pub(crate) meta: MetaStore,
    pub(crate) cache: AnswerCache,
    pub(crate) streams: StreamCounters,
    /// Optional persistent scramble store ([`Self::with_store`]).  When
    /// present, every scramble build/refresh/drop writes through to disk and
    /// the context reloads persisted scrambles plus their metadata on
    /// construction (cold-start serving).
    pub(crate) store: Option<Arc<verdict_store::Store>>,
    /// Always-on observability registry: per-stage / per-class latency
    /// histograms, statement counters, and the ring of recent query traces
    /// (see [`crate::obs`]).  Served by `EXPLAIN ANALYZE`, `SHOW PROFILE`,
    /// and `SHOW METRICS`.
    pub(crate) obs: Obs,
    /// The embedding layer's section of `verdict_stats` (the server's
    /// `serving` counters), if one is installed.
    stats_source: parking_lot::RwLock<Option<(&'static str, StatsSource)>>,
}

/// Key of the store blob holding the serialized sample-metadata registry.
const META_BLOB: &str = "verdict_meta";

impl VerdictContext {
    /// Creates a context over a backend, speaking the backend's own dialect
    /// ([`Backend::dialect`] — the generic dialect unless the backend
    /// overrides it).
    pub fn new(conn: Arc<dyn Backend>, config: VerdictConfig) -> VerdictContext {
        let cache = AnswerCache::new(config.answer_cache_capacity);
        let instrumented = Arc::new(InstrumentedBackend::new(conn));
        VerdictContext {
            identity: instrumented.identity().into(),
            conn: instrumented.clone(),
            instrumented,
            config,
            meta: MetaStore::new(),
            cache,
            streams: StreamCounters::default(),
            store: None,
            obs: Obs::default(),
            stats_source: Default::default(),
        }
    }

    /// The observability registry: latency histograms, statement counters,
    /// and the recent-trace ring.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Creates a context backed by a persistent scramble store.
    ///
    /// The caller must already have attached the same store to the
    /// backend's catalog (so persisted tables are visible through SQL);
    /// this constructor then reloads the persisted sample metadata and
    /// re-registers every scramble whose table still exists — **healing**
    /// records that no longer match the on-disk truth: a missing table
    /// drops its record, and a row-count drift (e.g. a crash between a
    /// scramble write and the metadata write) is folded into
    /// `appended_rows`, which marks the scramble's shuffle as lost so
    /// progressive execution declines it rather than serving a biased
    /// prefix.
    pub fn with_store(
        conn: Arc<dyn Backend>,
        config: VerdictConfig,
        store: Arc<verdict_store::Store>,
    ) -> VerdictResult<VerdictContext> {
        let mut ctx = Self::new(conn, config);
        ctx.store = Some(store);
        ctx.reload_persisted_meta()?;
        Ok(ctx)
    }

    /// The persistent store, when one is attached.
    pub fn store(&self) -> Option<&Arc<verdict_store::Store>> {
        self.store.as_ref()
    }

    /// Snapshot of the store's activity counters, when a store is attached.
    pub fn store_stats(&self) -> Option<verdict_store::StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    fn reload_persisted_meta(&self) -> VerdictResult<usize> {
        let store = self.store.as_ref().expect("called with store attached");
        let bytes = match store
            .get_blob(META_BLOB)
            .map_err(|e| VerdictError::Metadata(format!("store: {e}")))?
        {
            Some(b) => b,
            None => return Ok(0),
        };
        let mut loaded = 0usize;
        for mut meta in crate::meta::decode_samples(&bytes)? {
            if !self.conn.table_exists(&meta.sample_table) {
                // The scramble's table is gone (e.g. a crash mid-rebuild
                // after the drop committed): drop the stale record.
                continue;
            }
            let actual = self.conn.table_row_count(&meta.sample_table)?;
            if actual != meta.sample_rows {
                // Table and metadata disagree; trust the table, and mark
                // the shuffle as lost so progressive execution declines it.
                meta.appended_rows += actual.abs_diff(meta.sample_rows);
                meta.sample_rows = actual;
            }
            self.meta.register(meta);
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Captures the current contents of `sample_table` from the backend and
    /// writes them through the store's WAL, making the table *tracked*:
    /// later catalog-level appends and drops write through automatically.
    fn persist_sample_table(&self, sample_table: &str) -> VerdictResult<()> {
        let store = match &self.store {
            Some(s) => s,
            None => return Ok(()),
        };
        let table = self.conn.table_snapshot(sample_table).ok_or_else(|| {
            VerdictError::Metadata(format!(
                "backend {} cannot snapshot {sample_table}; persistence requires an \
                 in-process engine backend",
                self.conn.name()
            ))
        })?;
        let version = self.conn.data_version(sample_table).unwrap_or(1);
        store
            .save_table(&sample_table.to_ascii_lowercase(), &table, version)
            .map_err(|e| VerdictError::Metadata(format!("store: {e}")))
    }

    /// Persists the entire sample-metadata registry as one atomic blob
    /// write.  Called after every registry mutation so a restarted instance
    /// reloads exactly the scrambles this one knew about.
    fn persist_meta(&self) -> VerdictResult<()> {
        let store = match &self.store {
            Some(s) => s,
            None => return Ok(()),
        };
        let bytes = crate::meta::encode_samples(&self.meta.all());
        store
            .put_blob(META_BLOB, &bytes)
            .map_err(|e| VerdictError::Metadata(format!("store: {e}")))
    }

    /// Creates a context with an explicit SQL dialect (Impala, Spark SQL,
    /// Redshift, …) overriding whatever the backend itself reports.
    pub fn with_dialect(
        conn: Arc<dyn Backend>,
        dialect: Box<dyn Dialect>,
        config: VerdictConfig,
    ) -> VerdictContext {
        Self::new(Arc::new(DialectBackend::new(conn, dialect)), config)
    }

    /// The immutable base configuration.
    ///
    /// The context's configuration is fixed at construction time: a context
    /// is shared by many sessions behind an `Arc`, so there is deliberately
    /// no mutation path.  Each [`crate::session::VerdictSession`] opens with
    /// a clone of it, which that session's `SET` statements change.
    pub fn config(&self) -> &VerdictConfig {
        &self.config
    }

    /// The sample-metadata registry.
    pub fn meta(&self) -> &MetaStore {
        &self.meta
    }

    /// The active backend (wrapped in routing instrumentation).
    pub fn connection(&self) -> &Arc<dyn Backend> {
        &self.conn
    }

    /// The SQL dialect used when talking to the underlying database — the
    /// active backend's [`Backend::dialect`], possibly overridden by
    /// [`Self::with_dialect`].
    pub fn dialect(&self) -> &dyn Dialect {
        self.conn.dialect()
    }

    /// Quotes one identifier for the active backend's dialect (no-op for
    /// identifiers that do not need quoting).
    fn quoted(&self, ident: &str) -> String {
        self.dialect().quote_ident(ident)
    }

    // ------------------------------------------------------------------
    // Sample preparation (offline stage)
    // ------------------------------------------------------------------

    /// Creates one sample (scramble) table, optionally under a caller-chosen
    /// name (`CREATE SCRAMBLE <name> FROM …`).
    ///
    /// An existing **scramble** with the same name is replaced: its
    /// registration and table are dropped before the new one is built.  A
    /// name that collides with an existing table that is *not* a registered
    /// scramble (e.g. a base table) is rejected — replace semantics must
    /// never be able to destroy user data.
    pub(crate) fn create_sample_named(
        &self,
        name: Option<&str>,
        base_table: &str,
        sample_type: SampleType,
        ratio: f64,
    ) -> VerdictResult<SampleMeta> {
        let base_rows = self.conn.table_row_count(base_table)?;
        let base_columns = self.column_names(base_table)?;
        let strata_count = match &sample_type {
            SampleType::Stratified { columns } => self.distinct_count(base_table, columns)?,
            _ => 0,
        };
        let sample_table = match name {
            Some(n) => n.to_string(),
            None => SampleMeta::table_name_for(base_table, &sample_type),
        };
        // Replace semantics: forget any scramble already registered under
        // this name (possibly over a different base table) before rebuilding.
        // If nothing was registered but a table with that name exists, the
        // name points at real data — refuse rather than clobber it.
        if self.meta.remove_sample(&sample_table).is_none() && self.conn.table_exists(&sample_table)
        {
            return Err(VerdictError::Metadata(format!(
                "{sample_table} already names a table that is not a registered scramble; \
                 refusing to replace it"
            )));
        }
        self.conn.execute(&format!(
            "DROP TABLE IF EXISTS {}",
            self.quoted(&sample_table)
        ))?;
        let plan = build_sample_sql(
            base_table,
            &sample_table,
            &sample_type,
            ratio,
            base_rows,
            strata_count,
            &base_columns,
            self.dialect(),
        );
        for stmt in &plan.statements {
            self.conn.execute(stmt)?;
        }
        let sample_rows = self.conn.table_row_count(&sample_table)?;
        let meta = SampleMeta {
            base_table: base_table.to_string(),
            sample_table,
            sample_type,
            ratio,
            sample_rows,
            base_rows,
            appended_rows: 0,
        };
        self.meta.register(meta.clone());
        self.persist_sample_table(&meta.sample_table)?;
        self.persist_meta()?;
        Ok(meta)
    }

    /// Applies the default sampling policy (Appendix F) — `CREATE SCRAMBLES
    /// <table>`: inspects column cardinalities and builds a uniform sample
    /// plus hashed/stratified samples for high-/low-cardinality columns.
    pub(crate) fn create_recommended_samples_with(
        &self,
        base_table: &str,
        config: &VerdictConfig,
    ) -> VerdictResult<Vec<SampleMeta>> {
        let base_rows = self.conn.table_row_count(base_table)?;
        let columns = self.column_names(base_table)?;
        let mut cardinalities = Vec::new();
        if !columns.is_empty() {
            let ndv_list = columns
                .iter()
                .map(|c| {
                    let q = self.quoted(c);
                    format!("ndv({q}) AS {q}")
                })
                .collect::<Vec<_>>()
                .join(", ");
            let result = self.conn.execute(&format!(
                "SELECT {ndv_list} FROM {}",
                self.quoted(base_table)
            ))?;
            for (i, c) in columns.iter().enumerate() {
                cardinalities.push(ColumnCardinality {
                    column: c.clone(),
                    distinct_values: result.table.value(0, i).as_i64().unwrap_or(0) as u64,
                });
            }
        }
        let decision = default_policy(base_rows, &cardinalities, config);
        let mut created = Vec::new();
        for sample_type in decision.sample_types {
            created.push(self.create_sample_named(
                None,
                base_table,
                sample_type,
                decision.ratio,
            )?);
        }
        Ok(created)
    }

    /// Refreshes every sample of `base_table` after a batch of new rows
    /// (available in `batch_table`) has been appended to it (Appendix D).
    ///
    /// The batch is projected in the **base table's** column order: the
    /// `INSERT` into each sample is positional, so a batch staged with the
    /// same columns in a different order must not end up writing values into
    /// the wrong sample columns.  (Columns are referenced by name, so order
    /// differences are harmless; a batch *missing* a base column fails
    /// loudly.)
    ///
    /// Only samples whose recorded base size lags the current base table
    /// (i.e. [`Staleness::Stale`]) are appended into; up-to-date samples are
    /// skipped.  This makes a retried `REFRESH` after a partial mid-loop
    /// failure idempotent — the samples that succeeded on the first attempt
    /// are not double-appended on the retry.
    pub(crate) fn refresh_samples_after_append(
        &self,
        base_table: &str,
        batch_table: &str,
    ) -> VerdictResult<usize> {
        let current_base_rows = self.conn.table_row_count(base_table)?;
        let batch_rows = self.conn.table_row_count(batch_table)?;
        let base_columns = self.column_names(base_table)?;
        let samples = self.meta.remove_for(base_table);
        let mut refreshed = 0usize;
        for (i, meta) in samples.iter().enumerate() {
            if !matches!(staleness(meta, current_base_rows), Staleness::Stale { .. }) {
                // Fresh (already refreshed, e.g. on a retried call) or
                // shrunk-base (needs a rebuild, not an append): keep as-is.
                self.meta.register(meta.clone());
                continue;
            }
            let appended = (|| -> VerdictResult<u64> {
                for stmt in append_sql(meta, batch_table, &base_columns, self.dialect()) {
                    self.conn.execute(&stmt)?;
                }
                Ok(self.conn.table_row_count(&meta.sample_table)?)
            })();
            match appended {
                Ok(sample_rows) => {
                    self.meta.register(SampleMeta {
                        // Appends land unshuffled at the sample's tail; the
                        // counter marks the prefix-uniformity property as
                        // lost until the next full rebuild (see
                        // `SampleMeta::appended_rows`).
                        appended_rows: meta.appended_rows
                            + sample_rows.saturating_sub(meta.sample_rows),
                        sample_rows,
                        base_rows: meta.base_rows + batch_rows,
                        ..meta.clone()
                    });
                    refreshed += 1;
                }
                Err(e) => {
                    // Re-register the failed and remaining samples untouched
                    // so a mid-loop error does not deregister them forever.
                    for m in &samples[i..] {
                        self.meta.register(m.clone());
                    }
                    // Best-effort metadata persistence: some samples may
                    // already have refreshed before the failure.
                    let _ = self.persist_meta();
                    return Err(e);
                }
            }
        }
        self.persist_meta()?;
        Ok(refreshed)
    }

    /// Drops every sample table built for `base_table` and forgets its metadata.
    pub(crate) fn drop_samples(&self, base_table: &str) -> VerdictResult<usize> {
        let samples = self.meta.remove_for(base_table);
        let mut dropped = 0usize;
        for meta in samples {
            self.conn.execute(&format!(
                "DROP TABLE IF EXISTS {}",
                self.quoted(&meta.sample_table)
            ))?;
            dropped += 1;
        }
        self.persist_meta()?;
        Ok(dropped)
    }

    /// Drops a single scramble by its (sample-table) name, returning whether
    /// one existed.  With `if_exists` a missing scramble is not an error.
    pub(crate) fn drop_sample_named(&self, name: &str, if_exists: bool) -> VerdictResult<bool> {
        match self.meta.remove_sample(name) {
            Some(meta) => {
                self.conn.execute(&format!(
                    "DROP TABLE IF EXISTS {}",
                    self.quoted(&meta.sample_table)
                ))?;
                self.persist_meta()?;
                Ok(true)
            }
            None if if_exists => Ok(false),
            None => Err(VerdictError::Metadata(format!(
                "no scramble named {name} is registered"
            ))),
        }
    }

    /// Rebuilds every sample of `base_table` from the current base data,
    /// keeping each sample's name, type, and ratio (a batchless
    /// `REFRESH SCRAMBLES` statement).  Returns the number of samples rebuilt.
    pub(crate) fn rebuild_samples(&self, base_table: &str) -> VerdictResult<usize> {
        let samples = self.meta.samples_for(base_table);
        let mut rebuilt = 0usize;
        for meta in &samples {
            // `create_sample_named` removes the old registration and drops
            // the old table itself; a failure leaves the remaining samples'
            // registrations untouched.
            self.create_sample_named(
                Some(&meta.sample_table),
                base_table,
                meta.sample_type.clone(),
                meta.ratio,
            )?;
            rebuilt += 1;
        }
        Ok(rebuilt)
    }

    // ------------------------------------------------------------------
    // Observability surface (verdict_stats, verdict_metrics)
    // ------------------------------------------------------------------

    /// Installs the one extra section of `verdict_stats`, replacing any
    /// earlier one.  The server installs `serving` over a `Weak` to its own
    /// state, so a stopped server's rows drop out instead of being kept
    /// alive by the context.
    pub fn set_stats_source(&self, section: &'static str, source: StatsSource) {
        *self.stats_source.write() = Some((section, source));
    }

    /// Every counter and gauge as `(section, stat, value)` — the one list
    /// behind both `verdict_stats` (these rows, sorted) and
    /// `verdict_metrics` (as `verdict_<stat>[_total]` series).
    pub(crate) fn stat_rows(&self) -> Vec<(&'static str, String, u64)> {
        let cache = self.cache_stats();
        let streams = self.stream_stats();
        let backend = self.backend_stats();
        let mut rows: Vec<(&'static str, String, u64)> = vec![
            (
                "cache",
                "cache_capacity".into(),
                self.cache.capacity() as u64,
            ),
            ("cache", "cache_entries".into(), self.cache.len() as u64),
            ("cache", "cache_evictions".into(), cache.evictions),
            ("cache", "cache_hits".into(), cache.hits),
            ("cache", "cache_insertions".into(), cache.insertions),
            ("cache", "cache_invalidations".into(), cache.invalidations),
            ("cache", "cache_misses".into(), cache.misses),
            ("streams", "stream_early_stops".into(), streams.early_stops),
            ("streams", "stream_fallbacks".into(), streams.fallbacks),
            ("streams", "stream_frames".into(), streams.frames),
            ("streams", "streams_completed".into(), streams.completed),
            ("streams", "streams_started".into(), streams.started),
            // Per-backend routing counters: which backend answered, how many
            // statements it was handed, and how often a missing capability
            // forced a degraded (but correct) path.
            ("backend", "backend_queries".into(), backend.queries_routed),
            (
                "backend",
                "backend_scan_fallbacks".into(),
                backend.scan_fallbacks,
            ),
            (
                "backend",
                "backend_version_fallbacks".into(),
                backend.version_fallbacks,
            ),
            ("backend", "scrambles".into(), self.meta.len() as u64),
        ];
        for (k, v) in &backend.extra {
            rows.push(("backend", format!("backend_{k}"), *v));
        }
        // Persistent-store activity, present only when the context was
        // opened over a data directory.
        if let Some(store) = self.store_stats() {
            rows.push(("store", "store_checkpoints".into(), store.checkpoints));
            rows.push(("store", "store_pages_read".into(), store.pages_read));
            rows.push(("store", "store_pages_written".into(), store.pages_written));
            rows.push(("store", "store_recoveries".into(), store.recoveries));
            rows.push(("store", "store_wal_records".into(), store.wal_records));
            rows.push(("store", "store_wal_syncs".into(), store.wal_syncs));
        }
        // The embedding layer's section, while its owner is alive.
        if let Some((section, source)) = &*self.stats_source.read() {
            for (stat, v) in source().unwrap_or_default() {
                rows.push((section, stat.to_string(), v));
            }
        }
        rows
    }

    /// Renders the full metrics exposition (`verdict_metrics`):
    /// observability-registry counters and histograms plus every
    /// `stat_rows` series, in Prometheus text format.
    pub fn metrics_text(&self) -> String {
        // Levels, not counts; every other stat is a `_total` counter.
        const GAUGES: [&str; 14] = [
            "cache_capacity",
            "cache_entries",
            "scrambles",
            "draining",
            "exec_p50_us",
            "exec_p99_us",
            "exec_workers",
            "io_shards",
            "queue_capacity",
            "queue_depth",
            "queue_peak_depth",
            "queue_wait_p50_us",
            "queue_wait_p99_us",
            "sessions_active",
        ];
        let (mut counters, mut gauges) = (Vec::new(), Vec::new());
        for (_, stat, v) in self.stat_rows() {
            match GAUGES.contains(&stat.as_str()) {
                true => gauges.push((format!("verdict_{stat}"), v)),
                false => counters.push((format!("verdict_{stat}_total"), v)),
            }
        }
        self.obs.render_prometheus(&counters, &gauges)
    }

    // ------------------------------------------------------------------
    // Answer cache
    // ------------------------------------------------------------------

    /// The approximate-answer cache (disabled unless
    /// [`VerdictConfig::answer_cache_capacity`] > 0).
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }

    /// Snapshot of the answer-cache activity counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Snapshot of the per-backend routing counters (queries routed,
    /// capability fallbacks taken, backend-specific extras).
    pub fn backend_stats(&self) -> BackendStats {
        self.instrumented.stats()
    }

    /// Snapshot of the progressive-stream activity counters.
    pub fn stream_stats(&self) -> StreamStats {
        use std::sync::atomic::Ordering::Relaxed;
        StreamStats {
            started: self.streams.started.load(Relaxed),
            frames: self.streams.frames.load(Relaxed),
            early_stops: self.streams.early_stops.load(Relaxed),
            completed: self.streams.completed.load(Relaxed),
            fallbacks: self.streams.fallbacks.load(Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn column_names(&self, table: &str) -> VerdictResult<Vec<String>> {
        let result = self
            .conn
            .execute(&format!("SELECT * FROM {} LIMIT 1", self.quoted(table)))?;
        Ok(result
            .table
            .schema
            .fields
            .iter()
            .map(|f| f.name.clone())
            .filter(|n| !n.starts_with("verdict_"))
            .collect())
    }

    fn distinct_count(&self, table: &str, columns: &[String]) -> VerdictResult<u64> {
        if columns.is_empty() {
            return Ok(0);
        }
        let col_list = columns
            .iter()
            .map(|c| self.quoted(c))
            .collect::<Vec<_>>()
            .join(", ");
        let sql = format!(
            "SELECT count(*) AS c FROM (SELECT {col_list} FROM {} GROUP BY {col_list}) AS verdict_card",
            self.quoted(table)
        );
        let result = self.conn.execute(&sql)?;
        Ok(result.table.value(0, 0).as_i64().unwrap_or(0) as u64)
    }
}
