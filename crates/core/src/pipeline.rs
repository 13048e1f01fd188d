//! The statement pipeline: one plan → execute → finish driver.
//!
//! The paper describes one flow — intercept a query, rewrite it, run it on
//! the backend, turn the result set into an answer plus error bounds, fall
//! back to the exact query when that cannot work.  This module is that flow,
//! written once, as plain functions over typed stages:
//!
//! ```text
//! canonicalize → cache_probe → analyze → plan → rewrite → backend_exec → assemble → finish
//! ```
//!
//! Every statement kind is the same stages stopped at a different point:
//!
//! | statement | stages |
//! |---|---|
//! | `SELECT` | all of them ([`VerdictContext::run_statement`], [`Route::Approximate`]) |
//! | `SELECT`, a recorded spelling ([`crate::VerdictSession::cached_spelling`]) | `cache_probe` by the raw text, before any parse; a miss records nothing and the text is parsed |
//! | `SELECT`, cache hit only ([`crate::VerdictSession::cached_answer`]) | `canonicalize → cache_probe`; a miss records nothing, and the statement runs as `SELECT` without printing its canonical form again |
//! | `SELECT` over system relations alone (`SHOW …`) | `control` only ([`Route::System`], answered in-process) |
//! | `BYPASS <stmt>`, `SET bypass = on` | `passthrough` only ([`Route::Exact`]) |
//! | DDL / DML | `canonicalize → cache_probe → control` (uncacheable, passed through) |
//! | `STREAM`, progressive ([`crate::ProgressStream`]) | `canonicalize → analyze → plan → rewrite`, then one `stream_frame` (block scan + assemble) per frame; the final frame runs `finish` |
//! | `STREAM`, single frame | `canonicalize → analyze → plan → rewrite` when the stream opens, then `backend_exec → assemble → finish` on its one pull; never reads the cache |
//! | `EXPLAIN <stmt>` | `canonicalize → analyze → plan → rewrite`, then stops and describes the `Planned` value |
//! | `EXPLAIN ANALYZE <stmt>` | whatever `<stmt>` runs (a stream drained as its final frame); the finished trace is the answer |
//!
//! The cache read/insert policy is one value ([`Route`], derived by
//! [`Route::of`]); the fallback policy is one function (`finish`); the trace
//! is opened, closed and observed in one place each (`open_trace` /
//! `close_trace`).

use crate::answer::{assemble_cells, MeanCells};
use crate::cache::{CacheHit, CacheKey, Input};
use crate::config::{AnswerSettings, Effective, VerdictConfig};
use crate::context::{VerdictAnswer, VerdictContext};
use crate::error::{VerdictError, VerdictResult};
use crate::obs::{QueryTrace, TraceBuilder};
use crate::planner::{PlanningContext, SamplePlan, SamplePlanner};
use crate::rewrite::{analyze_query, rewrite, RewriteOutput};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use verdict_engine::{QueryResult, TableBuilder};
use verdict_sql::ast::{Query, Statement};
use verdict_sql::dialect::GenericDialect;
use verdict_sql::printer::{print_query, print_statement};

/// How a statement travels through the pipeline: whether it is approximated
/// and what it may do with the answer cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Approximate when possible; probe the answer cache first and insert
    /// the computed answer.
    Approximate,
    /// Run the statement as written on the base tables; the cache is
    /// neither read nor written.
    Exact,
    /// A query over system relations alone ([`crate::system`]): answered
    /// in-process, never sent to the backend, never cached.
    System,
}

impl Route {
    /// The route a statement takes (`bypass` is the session-wide `SET bypass
    /// = on`, which a system query ignores), or `None` for statements that
    /// never enter the one-shot driver (`EXPLAIN`, `STREAM` — a
    /// [`crate::ProgressStream`] —, scramble DDL, `SET`).  A
    /// statement that uses a system relation name in any other way than a
    /// query over system relations alone is refused.
    pub fn of(stmt: &Statement, bypass: bool) -> VerdictResult<Option<Route>> {
        if crate::system::reads_only_system(stmt)? {
            return Ok(Some(Route::System));
        }
        let route = match stmt {
            Statement::Bypass(_) => Route::Exact,
            Statement::Query(_)
            | Statement::CreateTableAs { .. }
            | Statement::DropTable { .. }
            | Statement::InsertIntoSelect { .. } => Route::Approximate,
            _ => return Ok(None),
        };
        Ok(Some(if bypass { Route::Exact } else { route }))
    }
}

/// The outcome of planning one query.
pub(crate) enum Planned {
    /// A sampled plan exists.  The [`RewriteOutput`] carries the analysis
    /// and the sample plan it was produced under.
    Approximate(Box<RewriteOutput>),
    /// The query must be answered exactly on the base tables.
    Exact {
        /// Why (shown by `EXPLAIN`, and as the `passthrough` span's detail).
        reason: String,
        /// The all-base-table plan, when planning got that far.
        plan: Option<SamplePlan>,
    },
}

/// What the caller knows of a statement's text.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Source<'a> {
    /// The text may be a printing of the statement (`EXPLAIN ANALYZE`'s
    /// inner statement, a script's statements): nothing is learned from it.
    Printed,
    /// The text the statement was parsed from: its spelling is recorded
    /// against the cache entry the statement hits or inserts.  `canonical`
    /// is the statement's canonical text when a probe already printed it.
    Verbatim { canonical: Option<&'a str> },
}

/// A cacheable statement's keys under one configuration.
struct Keys {
    /// The entry key, made of the statement's canonical text.
    key: CacheKey,
    /// The key of the source text, when it is verbatim.
    spelling: Option<CacheKey>,
}

/// What `canonicalize → cache_probe` found.
enum Probe {
    /// A current cached answer.
    Hit(CacheHit),
    /// No current answer: the statement's keys (`None`: uncacheable).
    Miss(Option<Keys>),
}

/// One rewritten statement as sent — its SQL text and the backend's result:
/// the mean query run through SQL or snapshotted from a progressive block
/// scan, or a side (distinct / extreme) query.
pub(crate) type SampleResult = (String, QueryResult);

/// The right to insert a statement's answer into the cache: its key plus
/// the versions, snapshotted **before** execution, of everything it could
/// depend on.
pub(crate) struct CacheTicket {
    key: CacheKey,
    /// The spelling key to record against the inserted entry.
    spelling: Option<CacheKey>,
    /// Every referenced base table's rows and registered scrambles.
    inputs: Vec<(Input, u64)>,
    /// The data version of every sample registered for those tables: the
    /// plan's choices are among them.
    samples: HashMap<String, u64>,
}

/// A statement trace in progress, with the counters needed to attribute
/// backend and store work to it when it closes.
pub(crate) struct OpenTrace {
    pub(crate) tb: TraceBuilder,
    backend_before: u64,
    pages_before: u64,
}

impl VerdictContext {
    // ------------------------------------------------------------------
    // The driver
    // ------------------------------------------------------------------

    /// Runs one pipeline statement along `route` and returns its answer with
    /// the finished [`QueryTrace`] (already folded into the observability
    /// registry).  `sql` must be the statement's source text; `shed_tier` is
    /// the admission tier label recorded in the trace (`"none"` outside the
    /// serving layer).
    ///
    /// A `BYPASS` wrapper classifies the trace; what runs is the statement
    /// it wraps.  This is the one-shot execution entry point behind
    /// [`crate::session::VerdictSession`], `EXPLAIN ANALYZE` included.
    pub fn run_statement(
        &self,
        stmt: &Statement,
        sql: &str,
        config: &VerdictConfig,
        route: Route,
        shed_tier: &'static str,
    ) -> VerdictResult<(VerdictAnswer, QueryTrace)> {
        let effective = Effective::new(config.clone());
        self.run_from(stmt, sql, Source::Printed, &effective, route, shed_tier)
    }

    /// [`Self::run_statement`], told what `sql` is, under a configuration
    /// whose answer settings are already derived.
    pub(crate) fn run_from(
        &self,
        stmt: &Statement,
        sql: &str,
        source: Source<'_>,
        effective: &Effective,
        route: Route,
        shed_tier: &'static str,
    ) -> VerdictResult<(VerdictAnswer, QueryTrace)> {
        let class = match route {
            Route::System => "show",
            _ => statement_class(stmt),
        };
        let (query, inner) = match stmt {
            Statement::Bypass(inner) => (None, Some(print_statement(inner, self.dialect()))),
            Statement::Query(q) => (Some(q.as_ref()), None),
            _ => (None, None),
        };
        let sql = inner.as_deref().unwrap_or(sql);
        let mut open = self.open_trace();
        let mut answer = self.drive(query, sql, source, effective, route, &mut open.tb)?;
        let config = &effective.config;
        let trace = self.close_trace(open, class, sql, config, shed_tier, Some(&answer));
        answer.elapsed = trace.total;
        Ok((answer, trace))
    }

    /// Runs `sql` — `query`, when the statement is one and can therefore be
    /// approximated — along `route`.
    fn drive(
        &self,
        query: Option<&Query>,
        sql: &str,
        source: Source<'_>,
        effective: &Effective,
        route: Route,
        tb: &mut TraceBuilder,
    ) -> VerdictResult<VerdictAnswer> {
        if route == Route::Exact {
            tb.begin("passthrough");
            return self.passthrough(sql);
        }
        if let (Route::System, Some(query)) = (route, query) {
            tb.begin("control");
            return self.answer_system(query);
        }
        let keys = match self.cache_probe(query, sql, source, effective, tb, true) {
            Probe::Hit(hit) => return Ok(hit.into_answer()),
            Probe::Miss(keys) => keys,
        };
        let Some(query) = query else {
            // DDL / DML: nothing to approximate, passed through as written.
            tb.begin("control");
            return self.passthrough(sql);
        };
        let ticket = keys.and_then(|k| self.cache_ticket(k.key, k.spelling, query));
        let planned = self.plan_query(query, &effective.config, tb)?;
        self.run_planned(planned, sql, ticket, &effective.config, tb)
    }

    /// `canonicalize → cache_probe`: the statement's cache keys and the
    /// cached answer when a current one exists; a hit records a verbatim
    /// source's spelling against the entry.  A canonical text the source
    /// already carries is not printed again (no `canonicalize` span).
    /// Never calls [`Backend::execute`](verdict_engine::Backend::execute);
    /// the only backend calls are `data_version` reads.  `count_miss` is
    /// false for a caller that declines on a miss and leaves the statement
    /// to [`Self::run_statement`], which probes again and counts the miss.
    fn cache_probe(
        &self,
        query: Option<&Query>,
        sql: &str,
        source: Source<'_>,
        effective: &Effective,
        tb: &mut TraceBuilder,
        count_miss: bool,
    ) -> Probe {
        if !matches!(source, Source::Verbatim { canonical: Some(_) }) {
            tb.begin("canonicalize");
        }
        let keys = query.and_then(|q| self.cache_keys(q, sql, source, effective));
        tb.begin("cache_probe");
        let Some(keys) = keys else {
            tb.note("uncacheable".into());
            return Probe::Miss(None);
        };
        let version = |input: &Input| self.input_version(input);
        let found = match count_miss {
            true => self.cache.lookup(&keys.key, version),
            false => self.cache.find(&keys.key, version),
        };
        let Some(hit) = found else {
            tb.note("miss".into());
            return Probe::Miss(Some(keys));
        };
        if let Some(spelling) = keys.spelling {
            self.cache.record_spelling(&keys.key, spelling);
        }
        tb.note("hit".into());
        Probe::Hit(hit)
    }

    /// Answers a query parsed from `sql` from the answer cache alone: a hit
    /// is traced exactly as [`Self::run_statement`] traces one (class
    /// `query_cached`) and records `sql` as a spelling of the entry.  A miss
    /// returns the statement's canonical text (`None`: uncacheable) having
    /// recorded nothing — no trace, no cache miss — so the statement can
    /// still be run in full without printing it again.
    pub(crate) fn answer_from_cache(
        &self,
        query: &Query,
        sql: &str,
        effective: &Effective,
        shed_tier: &'static str,
    ) -> Result<CacheHit, Option<String>> {
        let mut open = self.open_trace();
        let source = Source::Verbatim { canonical: None };
        match self.cache_probe(Some(query), sql, source, effective, &mut open.tb, false) {
            Probe::Hit(hit) => Ok(self.close_hit(open, sql, &effective.config, shed_tier, hit)),
            Probe::Miss(keys) => Err(keys.map(|k| k.key.text.into_string())),
        }
    }

    /// Answers a statement from the answer cache by its raw text alone: the
    /// text must be a spelling recorded against a current entry under this
    /// configuration.  No parse and no canonical printing; a hit is traced
    /// as a `query_cached` statement with the one span `cache_probe`.  A
    /// miss returns `None` having recorded nothing.  The caller answers
    /// only statements that would take [`Route::Approximate`]: a spelling
    /// is recorded only for such a statement, so the one session state it
    /// must still check is `SET bypass`.
    pub(crate) fn answer_from_spelling(
        &self,
        sql: &str,
        effective: &Effective,
        shed_tier: &'static str,
    ) -> Option<CacheHit> {
        if !self.cache_enabled(&effective.config) {
            return None;
        }
        let mut open = self.open_trace();
        open.tb.begin("cache_probe");
        let spelling = self.key(sql, &effective.settings);
        let hit = self
            .cache
            .find_spelling(&spelling, |input| self.input_version(input))?;
        open.tb.note("hit".into());
        Some(self.close_hit(open, sql, &effective.config, shed_tier, hit))
    }

    /// Closes a cache hit's trace and stamps the hit's wall time.
    fn close_hit(
        &self,
        open: OpenTrace,
        sql: &str,
        config: &VerdictConfig,
        shed_tier: &'static str,
        mut hit: CacheHit,
    ) -> CacheHit {
        let trace = self.close_trace(open, "query", sql, config, shed_tier, Some(hit.answer()));
        hit.set_elapsed(trace.total);
        hit
    }

    /// `backend_exec → assemble → finish` for a planned query: the tail of
    /// the one-shot driver, and all that is left to do for a stream's
    /// single-frame fallback, which planned when it was opened.
    pub(crate) fn run_planned(
        &self,
        planned: Planned,
        sql: &str,
        ticket: Option<CacheTicket>,
        config: &VerdictConfig,
        tb: &mut TraceBuilder,
    ) -> VerdictResult<VerdictAnswer> {
        match planned {
            Planned::Exact { reason, .. } => {
                tb.begin_with("passthrough", reason);
                let answer = self.passthrough(sql)?;
                self.cache_insert(ticket, &answer, tb);
                Ok(answer)
            }
            Planned::Approximate(rewritten) => {
                let mean = match &rewritten.mean_query {
                    Some(q) => Some(self.backend_exec(q, "mean query", tb)?),
                    None => None,
                };
                self.finish(sql, &rewritten, mean, ticket, tb, config)
            }
        }
    }

    // ------------------------------------------------------------------
    // Stages
    // ------------------------------------------------------------------

    /// `analyze → plan → rewrite`: decides how a query will be answered.
    /// Queries outside the supported class, and queries for which no sampled
    /// plan fits the I/O budget, plan as [`Planned::Exact`] (§2.2) — only
    /// genuine failures are errors.
    pub(crate) fn plan_query(
        &self,
        query: &Query,
        config: &VerdictConfig,
        tb: &mut TraceBuilder,
    ) -> VerdictResult<Planned> {
        let unsupported = |e: VerdictError, plan: Option<SamplePlan>| match e {
            VerdictError::Unsupported(reason) | VerdictError::NoSampleAvailable(reason) => {
                Ok(Planned::Exact { reason, plan })
            }
            e => Err(e),
        };
        tb.begin("analyze");
        let analysis = match analyze_query(query) {
            Ok(a) => a,
            Err(e) => return unsupported(e, None),
        };

        tb.begin("plan");
        let mut row_counts: HashMap<String, u64> = HashMap::new();
        for t in &analysis.tables {
            match self.conn.table_row_count(&t.table) {
                Ok(rows) => row_counts.insert(t.table.to_ascii_lowercase(), rows),
                Err(e) => {
                    return Ok(Planned::Exact {
                        reason: format!("row count for {}: {e}", t.table),
                        plan: None,
                    })
                }
            };
        }
        let plan = SamplePlanner::new(&self.meta, config).plan(
            &analysis.table_refs(&row_counts),
            &PlanningContext {
                group_columns: analysis.group_column_names(),
                distinct_columns: analysis.distinct_column_names(),
                io_budget: config.io_budget,
            },
        );
        if !plan.uses_samples() {
            return Ok(Planned::Exact {
                reason: "no registered scramble fits the I/O budget".into(),
                plan: Some(plan),
            });
        }
        tb.note(format!(
            "{} sample(s), io_cost {}",
            plan.choices.iter().filter(|c| c.sample.is_some()).count(),
            plan.io_cost
        ));

        tb.begin("rewrite");
        match rewrite(&analysis, &plan, config) {
            Ok(rewritten) => Ok(Planned::Approximate(Box::new(rewritten))),
            Err(e) => unsupported(e, Some(plan)),
        }
    }

    /// `backend_exec`: prints one rewritten statement in the backend's
    /// dialect and runs it.
    fn backend_exec(
        &self,
        stmt: &Statement,
        label: &str,
        tb: &mut TraceBuilder,
    ) -> VerdictResult<SampleResult> {
        tb.begin_with("backend_exec", label.into());
        let sql = print_statement(stmt, self.dialect());
        let result = self.conn.execute(&sql)?;
        Ok((sql, result))
    }

    /// The endgame shared by a one-shot query and a completed stream's final
    /// frame, so both turn a mean result into *the* answer under exactly the
    /// same rules:
    ///
    /// * **feasibility** — grouped queries whose subsample cells are too
    ///   thin produce useless estimates and are answered exactly instead
    ///   (the paper's tq-3, tq-8, tq-15), before any side query is spent;
    /// * **side queries + assembly** — count-distinct and extreme parts run,
    ///   then the Answer Rewriter folds everything into estimates and error
    ///   bounds;
    /// * **High-level Accuracy Contract** (§2.4) — an estimated error above
    ///   `max_relative_error` reruns the query exactly;
    /// * **bookkeeping** — `rewritten_sql` lists every statement sent, in
    ///   order (attempted sample SQL first, the exact SQL last after a
    ///   fallback); `used_samples` is empty for exact answers;
    /// * **cache insert** under the pre-execution `ticket`.
    pub(crate) fn finish(
        &self,
        sql: &str,
        rewritten: &RewriteOutput,
        mean: Option<SampleResult>,
        ticket: Option<CacheTicket>,
        tb: &mut TraceBuilder,
        config: &VerdictConfig,
    ) -> VerdictResult<VerdictAnswer> {
        let mut sqls = Vec::new();
        let mut rows_scanned = 0u64;
        let mut sent = |(sql, result): SampleResult| {
            sqls.push(sql);
            rows_scanned += result.stats.rows_scanned;
            result.table
        };
        let mean = mean.map(&mut sent);
        // `Err` names the span the exact fallback runs under, and why.
        let sampled: Result<_, (&'static str, String)> = 'sampled: {
            // One clustering of the mean result serves both the
            // feasibility check and assembly.
            let cells = match &mean {
                Some(table) => Some(MeanCells::new(rewritten, table)?),
                None => None,
            };
            if cells.as_ref().is_some_and(|c| !c.feasible(config)) {
                break 'sampled Err(("passthrough", "subsample cells too thin".into()));
            }
            let distinct = match &rewritten.distinct_query {
                Some((q, _)) => Some(sent(self.backend_exec(q, "distinct query", tb)?)),
                None => None,
            };
            let extreme = match &rewritten.extreme_query {
                Some(q) => Some(sent(self.backend_exec(q, "extreme query", tb)?)),
                None => None,
            };
            tb.begin("assemble");
            let assembled = assemble_cells(
                rewritten,
                cells.as_ref(),
                distinct.as_ref(),
                extreme.as_ref(),
                config,
            )?;
            let worst = assembled
                .errors
                .iter()
                .map(|e| e.max_relative_error)
                .fold(0.0, f64::max);
            match config.max_relative_error {
                Some(max_rel) if worst > max_rel => Err((
                    "rerun",
                    format!("estimated error {worst:.4} > target {max_rel:.4}"),
                )),
                _ => Ok(assembled),
            }
        };
        let answer = match sampled {
            Ok(assembled) => {
                let used_samples = rewritten.plan.sample_tables();
                tb.note(format!("samples: {}", used_samples.join(", ")));
                VerdictAnswer {
                    table: assembled.table,
                    exact: false,
                    cached: false,
                    errors: assembled.errors,
                    rewritten_sql: sqls,
                    elapsed: tb.elapsed(),
                    rows_scanned,
                    used_samples,
                }
            }
            Err((stage, why)) => {
                tb.begin_with(stage, why);
                let mut exact = self.passthrough(sql)?;
                exact.rewritten_sql.splice(0..0, sqls);
                exact
            }
        };
        self.cache_insert(ticket, &answer, tb);
        Ok(answer)
    }

    /// Executes `sql` exactly as written on the backend.  `elapsed` is
    /// stamped when the statement's trace closes.
    pub(crate) fn passthrough(&self, sql: &str) -> VerdictResult<VerdictAnswer> {
        let result = self.conn.execute(sql)?;
        Ok(VerdictAnswer {
            rewritten_sql: vec![sql.to_string()],
            rows_scanned: result.stats.rows_scanned,
            ..VerdictAnswer::in_process(result.table)
        })
    }

    // ------------------------------------------------------------------
    // Answer cache policy
    // ------------------------------------------------------------------

    /// The canonical cache key for a query, or `None` when it must not be
    /// cached: the cache is disabled (globally, or for this statement by a
    /// per-session cache policy), or the query calls a nondeterministic
    /// function (`rand()`) anywhere — including inside scalar / `IN` /
    /// `EXISTS` subqueries — whose repeats must produce fresh draws.
    pub(crate) fn cache_key(&self, query: &Query, effective: &Effective) -> Option<CacheKey> {
        self.cache_keys(query, "", Source::Printed, effective)
            .map(|k| k.key)
    }

    /// [`Self::cache_key`] and, for a verbatim `sql`, the spelling key.  A
    /// canonical text the source carries stands for printing it: a probe
    /// printed it for this query, and only a cacheable query has one.
    fn cache_keys(
        &self,
        query: &Query,
        sql: &str,
        source: Source<'_>,
        effective: &Effective,
    ) -> Option<Keys> {
        if !self.cache_enabled(&effective.config) {
            return None;
        }
        let canonical = match source {
            Source::Verbatim {
                canonical: Some(canonical),
            } => canonical.to_string(),
            _ if contains_rand(query) => return None,
            _ => print_query(&verdict_sql::canonical_query(query), &GenericDialect),
        };
        Some(Keys {
            key: self.key(canonical, &effective.settings),
            spelling: matches!(source, Source::Verbatim { .. })
                .then(|| self.key(sql, &effective.settings)),
        })
    }

    /// True when `config` lets statements read and write the cache.
    fn cache_enabled(&self, config: &VerdictConfig) -> bool {
        self.cache.enabled() && config.answer_cache_capacity != 0
    }

    /// The cache key of a statement text (canonical for an entry, raw for
    /// a spelling) computed under `settings` against this context's
    /// backend.  Two sessions running the same query under different
    /// accuracy settings produce observably different answers, so they
    /// must not share a cache entry — and an answer computed against one
    /// backend must never be replayed against another, even if both can
    /// see tables with the same names.
    fn key(&self, text: impl Into<Box<str>>, settings: &AnswerSettings) -> CacheKey {
        CacheKey {
            identity: Arc::clone(&self.identity),
            text: text.into(),
            settings: *settings,
        }
    }

    /// The current version of a cached answer's input.
    fn input_version(&self, input: &Input) -> Option<u64> {
        match input {
            Input::Rows(table) => self.conn.data_version(table),
            Input::Scrambles(base) => Some(self.meta.version(base)),
        }
    }

    /// Snapshots the versions of everything `query` *could* depend on —
    /// every referenced base table's rows and registered scrambles, plus
    /// the rows of every sample currently registered for those tables (the
    /// plan's choices are a subset).
    ///
    /// Must be taken BEFORE executing (and before a block scan pins its
    /// input): if a concurrent write or scramble DDL lands mid-execution,
    /// the entry is stored under the pre-write versions and fails
    /// revalidation, instead of a post-execution snapshot masking the
    /// change and caching a stale answer under the new version.  Returns
    /// `None` when the connection cannot report versions — such an answer
    /// is never cached, because its invalidation could not be detected.
    pub(crate) fn cache_ticket(
        &self,
        key: CacheKey,
        spelling: Option<CacheKey>,
        query: &Query,
    ) -> Option<CacheTicket> {
        let mut inputs = Vec::new();
        let mut samples = HashMap::new();
        for name in verdict_sql::visitor::collect_base_tables(query) {
            let base = name.key();
            // Read before the samples: a scramble registered in between
            // leaves the entry stale, never current.
            inputs.push((Input::Scrambles(base.clone()), self.meta.version(&base)));
            for meta in self.meta.samples_for(&base) {
                let sample = meta.sample_table.to_ascii_lowercase();
                samples.insert(sample.clone(), self.conn.data_version(&sample)?);
            }
            let version = self.conn.data_version(&base)?;
            inputs.push((Input::Rows(base), version));
        }
        Some(CacheTicket {
            key,
            spelling,
            inputs,
            samples,
        })
    }

    /// `cache_insert`: stores `answer` under the versions of what it
    /// depends on — the ticket's base-table inputs plus the rows of every
    /// sample table the plan actually used, resolved against the ticket's
    /// pre-execution snapshot.  Skipped when a used sample is missing from
    /// the snapshot (registered mid-flight by another session): its
    /// pre-execution version is unknown, so the answer cannot be safely
    /// cached.
    fn cache_insert(
        &self,
        ticket: Option<CacheTicket>,
        answer: &VerdictAnswer,
        tb: &mut TraceBuilder,
    ) {
        let Some(CacheTicket {
            key,
            spelling,
            mut inputs,
            samples,
        }) = ticket
        else {
            return;
        };
        for used in &answer.used_samples {
            let sample = used.to_ascii_lowercase();
            let Some(&version) = samples.get(&sample) else {
                return;
            };
            inputs.push((Input::Rows(sample), version));
        }
        tb.begin("cache_insert");
        self.cache.insert(key, inputs, answer.clone(), spelling);
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// Starts a statement's trace clock.
    pub(crate) fn open_trace(&self) -> OpenTrace {
        OpenTrace {
            tb: TraceBuilder::new(),
            backend_before: self.instrumented.queries_routed(),
            pages_before: self.pages_read(),
        }
    }

    /// Closes a statement's trace, attributes the backend/store work done
    /// since it opened, and folds it into the observability registry.  For a
    /// statement that produced an answer, a cache hit is classed
    /// `query_cached`, and the caller stamps the answer's `elapsed` with
    /// the trace total (so span durations and the reported wall time
    /// agree); control statements pass `None`.
    pub(crate) fn close_trace(
        &self,
        open: OpenTrace,
        class: &'static str,
        sql: &str,
        config: &VerdictConfig,
        shed_tier: &'static str,
        answer: Option<&VerdictAnswer>,
    ) -> QueryTrace {
        let (total, spans) = open.tb.finish();
        let mut trace = QueryTrace {
            seq: 0,
            class,
            sql: sql.to_string(),
            total,
            spans,
            cached: false,
            exact: true,
            shed_tier,
            backend_queries: self.instrumented.queries_routed() - open.backend_before,
            store_pages_read: self.pages_read().saturating_sub(open.pages_before),
            rows_returned: 0,
            rows_scanned: 0,
            slow: config.slow_query_ms > 0 && total >= Duration::from_millis(config.slow_query_ms),
        };
        if let Some(answer) = answer {
            if answer.cached && class == "query" {
                trace.class = "query_cached";
            }
            trace.cached = answer.cached;
            trace.exact = answer.exact;
            trace.rows_returned = answer.table.num_rows() as u64;
            trace.rows_scanned = answer.rows_scanned;
        }
        self.obs.observe(trace)
    }

    fn pages_read(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.stats().pages_read)
    }

    // ------------------------------------------------------------------
    // EXPLAIN
    // ------------------------------------------------------------------

    /// `EXPLAIN <statement>`: the pipeline stopped after `rewrite`.
    /// Describes how the statement *would* execute — sample plan, rewritten
    /// SQL, cacheability — as a two-column `(item, value)` table, without
    /// executing it.  Traced under class `explain`.
    pub(crate) fn explain(
        &self,
        stmt: &Statement,
        sql: &str,
        effective: &Effective,
        shed_tier: &'static str,
    ) -> VerdictResult<VerdictAnswer> {
        let mut open = self.open_trace();
        let rows = self.explain_rows(stmt, effective, &mut open.tb)?;
        let config = &effective.config;
        let trace = self.close_trace(open, "explain", sql, config, shed_tier, None);
        let (items, values) = rows.into_iter().unzip();
        let table = TableBuilder::new()
            .str_column("item", items)
            .str_column("value", values)
            .build()
            .map_err(|e| VerdictError::Answer(format!("EXPLAIN table construction failed: {e}")))?;
        Ok(VerdictAnswer {
            elapsed: trace.total,
            ..VerdictAnswer::in_process(table)
        })
    }

    fn explain_rows(
        &self,
        stmt: &Statement,
        effective: &Effective,
        tb: &mut TraceBuilder,
    ) -> VerdictResult<Vec<(String, String)>> {
        let mut rows: Vec<(String, String)> = Vec::new();
        let mut row = |item: &str, value: String| rows.push((item.to_string(), value));
        // Unwrap execution-mode wrappers so the plan describes the query the
        // wrapper would run.
        let class = match Route::of(stmt, false)? {
            Some(Route::System) => "show",
            _ => statement_class(stmt),
        };
        row("statement", class.into());
        let query = match stmt {
            Statement::Query(q) | Statement::Stream(q) if class != "show" => q.as_ref(),
            other => {
                tb.begin("control");
                match other {
                    Statement::Bypass(inner) => {
                        row("plan", "exact (bypass)".into());
                        row("sql", print_statement(inner, self.dialect()));
                    }
                    Statement::Query(_) => row("plan", "system relation (in-process)".into()),
                    Statement::SetOption { .. } => row("plan", "session option".into()),
                    Statement::CreateTableAs { .. }
                    | Statement::DropTable { .. }
                    | Statement::InsertIntoSelect { .. } => {
                        row("plan", "passthrough to backend".into())
                    }
                    _ => row("plan", "scramble maintenance".into()),
                }
                return Ok(rows);
            }
        };
        tb.begin("canonicalize");
        let cacheable = self.cache_key(query, effective).is_some();
        row("cacheable", if cacheable { "yes" } else { "no" }.into());
        let planned = self.plan_query(query, &effective.config, tb)?;
        let plan = match &planned {
            Planned::Approximate(rewritten) => Some(&rewritten.plan),
            Planned::Exact { plan, .. } => plan.as_ref(),
        };
        for choice in plan.map_or(&[][..], |p| &p.choices) {
            let what = match &choice.sample {
                Some(s) => format!(
                    "scramble {} (ratio {}, rows {})",
                    s.sample_table, s.ratio, s.sample_rows
                ),
                None => format!("base table (rows {})", choice.table_ref.rows),
            };
            row(&format!("table {}", choice.table_ref.table), what);
        }
        if let Some(p) = plan.filter(|p| !p.universe.is_empty()) {
            row("universe join", p.universe.join(", "));
        }
        match planned {
            Planned::Exact { reason, .. } => {
                row("plan", "exact passthrough".into());
                row("reason", reason);
            }
            Planned::Approximate(rewritten) => {
                row("plan", "approximate".into());
                row("io_cost", rewritten.plan.io_cost.to_string());
                let parts = [
                    rewritten.mean_query.as_ref(),
                    rewritten.distinct_query.as_ref().map(|(s, _)| s),
                    rewritten.extreme_query.as_ref(),
                ];
                for (i, part) in parts.into_iter().flatten().enumerate() {
                    row(
                        &format!("rewritten[{i}]"),
                        print_statement(part, self.dialect()),
                    );
                }
            }
        }
        Ok(rows)
    }
}

/// The statement class used as the `class` label on latency histograms and
/// ring traces (one of [`crate::obs::CLASSES`]).  The cached-vs-computed
/// split (`"query_cached"`) is applied when the trace closes, not here.
pub fn statement_class(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Query(_) => "query",
        Statement::Bypass(_) => "bypass",
        Statement::Stream(_) => "stream",
        Statement::Explain { .. } => "explain",
        Statement::SetOption { .. } => "set",
        Statement::CreateTableAs { .. }
        | Statement::DropTable { .. }
        | Statement::InsertIntoSelect { .. }
        | Statement::CreateScramble { .. }
        | Statement::CreateScrambles { .. }
        | Statement::DropScramble { .. }
        | Statement::DropScrambles { .. }
        | Statement::RefreshScrambles { .. } => "ddl",
    }
}

/// True when the query calls `rand()`/`random()` anywhere, recursing into
/// predicate subqueries (which `walk_query` deliberately does not — the
/// analyzer relies on that to keep subquery aggregates out of the outer
/// query's classification).
fn contains_rand(query: &Query) -> bool {
    let mut found = false;
    verdict_sql::visitor::walk_query(query, &mut |e| {
        found |= e.is_rand() || e.subquery().is_some_and(contains_rand);
    });
    found
}
