//! [`VerdictSession`] — the SQL-first session API.
//!
//! The paper's core claim is *universality*: applications talk to VerdictDB
//! exactly as they would to any SQL database.  Sample management, exact-mode
//! escapes, and tuning are all plain SQL statements — not bespoke library
//! calls.  A session accepts **only SQL** and returns a unified
//! [`VerdictResponse`]:
//!
//! ```text
//! CREATE SCRAMBLE s_orders FROM orders METHOD uniform RATIO 0.01
//! SELECT city, avg(price) AS ap FROM orders GROUP BY city
//! SET target_error = 0.02
//! BYPASS SELECT count(*) FROM orders
//! REFRESH SCRAMBLES orders FROM orders_batch
//! SHOW SCRAMBLES
//! DROP SCRAMBLES orders
//! ```
//!
//! A session owns a shared [`VerdictContext`] (`Arc`, so many sessions share
//! one engine catalog, sample registry, and answer cache) plus its own
//! [`VerdictConfig`], cloned from the context's immutable base when the
//! session opens.  `SET` writes only this session's config, never shared
//! state; `SET <option> = default` copies the base's value back.  Two
//! settings are not part of a config: `bypass` and `deadline_ms`.
//! `SET parallelism` is the one engine-wide setting: it resizes the shared
//! connection's worker pool.

use crate::cache::CacheHit;
use crate::config::{Effective, VerdictConfig};
use crate::context::{VerdictAnswer, VerdictContext};
use crate::error::{VerdictError, VerdictResult};
use crate::obs::QueryTrace;
use crate::pipeline::{statement_class, Route, Source};
use crate::progress::ProgressStream;
use crate::sample::{SampleMeta, SampleType};
use std::sync::Arc;
use verdict_engine::{default_parallelism, Table, TableBuilder, MAX_PARALLELISM};
use verdict_sql::ast::{Literal, ScrambleMethod, SetValue, Statement};
use verdict_sql::printer::print_statement;

/// The unified result of one SQL statement executed on a [`VerdictSession`].
#[derive(Debug, Clone)]
pub enum VerdictResponse {
    /// A query answer (`SELECT`, `STREAM`, `BYPASS`, or passthrough DDL/DML)
    /// — also the table of a `SHOW …` (a query over system relations) and of
    /// `EXPLAIN [ANALYZE]`, both exact.
    Answer(VerdictAnswer),
    /// Scrambles built by `CREATE SCRAMBLE` / `CREATE SCRAMBLES`.
    ScramblesCreated(Vec<SampleMeta>),
    /// Number of scrambles removed by `DROP SCRAMBLE[S]`.
    ScramblesDropped(usize),
    /// Number of scrambles refreshed/rebuilt by `REFRESH SCRAMBLE[S]`.
    ScramblesRefreshed(usize),
    /// Acknowledgement of `SET <option> = <value>` (normalised name/value).
    OptionSet {
        /// The canonical option name.
        name: String,
        /// The applied value, rendered as text (`"default"` when cleared).
        value: String,
    },
}

impl VerdictResponse {
    /// The tabular part of the response: the answer's table, if this is an
    /// answer.
    pub fn table(&self) -> Option<&Table> {
        self.answer().map(|a| &a.table)
    }

    /// The query answer, if this response carries one.
    pub fn answer(&self) -> Option<&VerdictAnswer> {
        match self {
            VerdictResponse::Answer(a) => Some(a),
            _ => None,
        }
    }

    /// Consumes the response, returning the query answer or an error for
    /// non-answer responses (convenience for callers that know they sent a
    /// query).
    pub fn into_answer(self) -> VerdictResult<VerdictAnswer> {
        match self {
            VerdictResponse::Answer(a) => Ok(a),
            other => Err(VerdictError::Answer(format!(
                "statement produced a {} response, not a query answer",
                other.kind()
            ))),
        }
    }

    /// A short tag naming the response variant (used in protocol frames).
    pub fn kind(&self) -> &'static str {
        match self {
            VerdictResponse::Answer(_) => "answer",
            VerdictResponse::ScramblesCreated(_) => "scrambles_created",
            VerdictResponse::ScramblesDropped(_) => "scrambles_dropped",
            VerdictResponse::ScramblesRefreshed(_) => "scrambles_refreshed",
            VerdictResponse::OptionSet { .. } => "option_set",
        }
    }
}

/// A statement parsed from its source text, carrying what a cache probe
/// learned of it: the one form in which a statement's text may be recorded
/// as a spelling of its answer (see [`VerdictSession::cached_answer`]).
#[derive(Debug, Clone)]
pub struct Parsed {
    stmt: Statement,
    sql: String,
    /// The canonical text a missed probe printed (`None`: not probed, or
    /// uncacheable).
    canonical: Option<String>,
}

impl Parsed {
    /// Parses one SQL statement (a trailing `;` is allowed).
    pub fn new(sql: &str) -> VerdictResult<Parsed> {
        Ok(Parsed {
            stmt: verdict_sql::parse_statement(sql)?,
            sql: sql.to_string(),
            canonical: None,
        })
    }

    /// The parsed statement.
    pub fn statement(&self) -> &Statement {
        &self.stmt
    }

    /// The text it was parsed from.
    pub fn sql(&self) -> &str {
        &self.sql
    }
}

/// A SQL-only session over a shared [`VerdictContext`].
///
/// See the [module documentation](self) for the statement surface.  Sessions
/// are cheap to create (one `Arc` clone plus two config clones) and are *not*
/// shared between threads — each connection/actor gets its own.
pub struct VerdictSession {
    ctx: Arc<VerdictContext>,
    /// The context's base configuration as this session's `SET`s changed it.
    config: VerdictConfig,
    /// `config` with the shed tier applied, and its answer settings: what
    /// the next statement runs under.  Derived again only by `SET` and
    /// [`Self::set_shed_tier`].
    effective: Effective,
    /// `SET bypass = on`: every query runs exactly on the base tables (a
    /// session-wide `BYPASS`).
    bypass: bool,
    /// `SET deadline_ms = n`: the per-query deadline the serving layer's
    /// admission control enforces; in-process sessions ignore it.
    deadline_ms: Option<u64>,
    shed: crate::shed::ShedTier,
}

impl VerdictSession {
    /// Opens a session under the context's base configuration.
    pub fn new(ctx: Arc<VerdictContext>) -> VerdictSession {
        VerdictSession {
            config: ctx.config().clone(),
            effective: Effective::new(ctx.config().clone()),
            ctx,
            bypass: false,
            deadline_ms: None,
            shed: crate::shed::ShedTier::None,
        }
    }

    /// The shared middleware context.
    pub fn context(&self) -> &Arc<VerdictContext> {
        &self.ctx
    }

    /// The session's `SET deadline_ms`, if any: a statement still queued
    /// when it passes is answered with a typed `DEADLINE` error, and a
    /// progressive stream stops there.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline_ms
    }

    /// Applies a load-shedding tier to every subsequent statement's
    /// effective configuration (see [`crate::shed`]).  Set by the serving
    /// layer's admission control per admitted statement — deliberately not
    /// reachable through `SET`, so clients cannot un-shed themselves.
    pub fn set_shed_tier(&mut self, tier: crate::shed::ShedTier) {
        if tier != self.shed {
            self.shed = tier;
            self.derive_effective();
        }
    }

    /// The load-shedding tier currently applied to this session.
    pub fn shed_tier(&self) -> crate::shed::ShedTier {
        self.shed
    }

    /// The effective configuration the next statement would run under:
    /// the session's config with the shed tier applied.
    pub fn effective_config(&self) -> VerdictConfig {
        self.effective.config.clone()
    }

    /// Derives [`Self::effective_config`] and its answer settings from the
    /// session's config and shed tier.
    fn derive_effective(&mut self) {
        let mut config = self.config.clone();
        self.shed.apply(&mut config);
        self.effective = Effective::new(config);
    }

    /// Executes one SQL statement (a trailing `;` is allowed).  A text
    /// answered before under this session's settings is answered from the
    /// cache without being parsed ([`Self::cached_spelling`]).
    pub fn execute(&mut self, sql: &str) -> VerdictResult<VerdictResponse> {
        if let Some(hit) = self.cached_spelling(sql) {
            return Ok(VerdictResponse::Answer(hit.into_answer()));
        }
        self.execute_parsed(&Parsed::new(sql)?)
    }

    /// Answers a statement from the shared answer cache by its raw text,
    /// or declines: the probe that needs no parse.
    ///
    /// Every text that [`Self::execute`], [`Self::execute_parsed`] or
    /// [`Self::cached_answer`] answered from, or stored into, a cache
    /// entry is recorded as a spelling of that entry, keyed with the
    /// backend's identity and the session's answer settings.  Returns the
    /// entry's answer when `sql` is such a spelling under this session's
    /// settings and the entry is current (its versions revalidated as on
    /// any hit); the hit is traced and counted as a `query_cached`
    /// statement.  Returns `None` for any other text — and under `SET
    /// bypass = on` — having recorded nothing.  Never executes anything on
    /// the backend.
    pub fn cached_spelling(&self, sql: &str) -> Option<CacheHit> {
        if self.bypass {
            return None;
        }
        self.ctx
            .answer_from_spelling(sql, &self.effective, self.shed.label())
    }

    /// Answers a parsed query from the shared answer cache, or declines.
    ///
    /// Returns the cached answer when this session would take the
    /// [`Route::Approximate`] path and the cache holds a current answer for
    /// the statement under this session's settings; the hit is traced and
    /// counted exactly as [`Self::execute_statement`] would trace and count
    /// it, and the statement's text is recorded as a spelling of the entry.
    /// Returns `None` for every other statement and for a miss, having
    /// recorded nothing, so the caller runs it through
    /// [`Self::execute_parsed`]; a missed cacheable query keeps its
    /// canonical text, so that run does not print it again.  Never executes
    /// anything on the backend: the only backend calls are
    /// [`Backend::data_version`](verdict_engine::Backend::data_version)
    /// reads, which is why a serving layer can answer a hit on its I/O
    /// thread.
    pub fn cached_answer(&self, parsed: &mut Parsed) -> Option<CacheHit> {
        let Statement::Query(query) = &parsed.stmt else {
            return None;
        };
        if !matches!(
            Route::of(&parsed.stmt, self.bypass),
            Ok(Some(Route::Approximate))
        ) {
            return None;
        }
        match self
            .ctx
            .answer_from_cache(query, &parsed.sql, &self.effective, self.shed.label())
        {
            Ok(hit) => Some(hit),
            Err(canonical) => {
                parsed.canonical = canonical;
                None
            }
        }
    }

    /// Executes a statement parsed from its text: [`Self::execute_statement`],
    /// except that the text is recorded as a spelling of the cache entry the
    /// statement hits or stores, and a canonical text kept by
    /// [`Self::cached_answer`] is not printed again.
    pub fn execute_parsed(&mut self, parsed: &Parsed) -> VerdictResult<VerdictResponse> {
        let source = Source::Verbatim {
            canonical: parsed.canonical.as_deref(),
        };
        self.dispatch(&parsed.stmt, &parsed.sql, source)
    }

    /// Opens a progressive execution for a query: a pull-based iterator of
    /// [`ProgressFrame`](crate::progress::ProgressFrame)s whose estimates
    /// and confidence intervals refine block by block, ending with the
    /// one-shot answer (see [`crate::progress`]).  Accepts either a plain
    /// `SELECT …` or the `STREAM SELECT …` statement form.
    ///
    /// The stream runs under this session's current settings: `target_error`
    /// becomes the early-stop threshold, `stream_block_rows` shapes the
    /// frame cadence, and `bypass` degrades to a single exact frame.
    pub fn stream(&mut self, sql: &str) -> VerdictResult<ProgressStream> {
        match verdict_sql::parse_statement(sql)? {
            Statement::Query(q) => self.open_stream(&Statement::Stream(q)),
            stmt => self.open_stream(&stmt),
        }
    }

    /// Opens a progressive execution for a parsed `STREAM <query>`
    /// statement: the one entry behind [`Self::stream`], the in-process
    /// `STREAM` statement, `EXPLAIN ANALYZE STREAM` and a serving layer's
    /// `SQL STREAM` request.
    pub fn open_stream(&self, stmt: &Statement) -> VerdictResult<ProgressStream> {
        let Statement::Stream(query) = stmt else {
            return Err(VerdictError::Unsupported(
                "only queries can be streamed (SELECT … or STREAM SELECT …)".into(),
            ));
        };
        // A stream reads the backend: a system relation name in it is refused.
        crate::system::reads_only_system(stmt)?;
        Ok(ProgressStream::open(
            Arc::clone(&self.ctx),
            query,
            &self.effective,
            self.bypass,
            self.shed.label(),
        ))
    }

    /// Executes a `;`-separated script, returning one response per statement.
    /// Execution stops at the first error.
    pub fn execute_script(&mut self, sql: &str) -> VerdictResult<Vec<VerdictResponse>> {
        let stmts = verdict_sql::parse_statements(sql)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in &stmts {
            let text = print_statement(stmt, self.ctx.dialect());
            out.push(self.execute_statement(stmt, &text)?);
        }
        Ok(out)
    }

    /// Dispatches one parsed statement; `sql` must be its source text, or a
    /// printing of it.
    ///
    /// Every statement is traced: pipeline statements — `SHOW`, a query
    /// over system relations, included — by the context's driver
    /// ([`VerdictContext::run_statement`]), control statements (scramble
    /// DDL, `SET`) as a single `control` span — so the class histograms and
    /// the recent-trace ring cover the full statement surface.
    pub fn execute_statement(
        &mut self,
        stmt: &Statement,
        sql: &str,
    ) -> VerdictResult<VerdictResponse> {
        self.dispatch(stmt, sql, Source::Printed)
    }

    fn dispatch(
        &mut self,
        stmt: &Statement,
        sql: &str,
        source: Source<'_>,
    ) -> VerdictResult<VerdictResponse> {
        match stmt {
            Statement::Explain { analyze, statement } => Ok(VerdictResponse::Answer(if *analyze {
                // The trace of what `statement` runs: a stream is drained
                // by `final_frame`'s rules and explained by its own trace.
                let trace = match statement.as_ref() {
                    Statement::Stream(_) => self.open_stream(statement)?.drain()?.1,
                    _ => {
                        let text = print_statement(statement, self.ctx.dialect());
                        self.run_traced(statement, &text, Source::Printed)?.1
                    }
                };
                VerdictAnswer {
                    elapsed: trace.total,
                    ..VerdictAnswer::in_process(render_analyze(&trace))
                }
            } else {
                self.ctx
                    .explain(statement, sql, &self.effective, self.shed.label())?
            })),
            // In process, a stream answers with its final frame
            // (bit-identical to the one-shot answer when the stream
            // completes; the early-stopped prefix answer when a target
            // error is met first).
            Statement::Stream(_) => Ok(VerdictResponse::Answer(
                self.open_stream(stmt)?.final_frame()?.answer,
            )),
            _ => Ok(self.run_traced(stmt, sql, source)?.0),
        }
    }

    /// Executes one statement to completion under a trace: pipeline
    /// statements (plain SQL, `BYPASS`) along their [`Route`], everything
    /// else but a stream as a one-span `control` trace.
    fn run_traced(
        &mut self,
        stmt: &Statement,
        sql: &str,
        source: Source<'_>,
    ) -> VerdictResult<(VerdictResponse, QueryTrace)> {
        let shed = self.shed.label();
        if let Some(route) = Route::of(stmt, self.bypass)? {
            let effective = &self.effective;
            let (answer, trace) = self
                .ctx
                .run_from(stmt, sql, source, effective, route, shed)?;
            return Ok((VerdictResponse::Answer(answer), trace));
        }
        let mut open = self.ctx.open_trace();
        open.tb.begin("control");
        let response = self.execute_control(stmt)?;
        // Resolved after the statement ran: a `SET` applies to its own trace.
        let cfg = &self.effective.config;
        let class = statement_class(stmt);
        let trace = self.ctx.close_trace(open, class, sql, cfg, shed, None);
        Ok((response, trace))
    }

    /// Executes the control-statement surface (scramble DDL, `SET`);
    /// pipeline statements and `EXPLAIN` are dispatched before this is
    /// reached.
    fn execute_control(&mut self, stmt: &Statement) -> VerdictResult<VerdictResponse> {
        match stmt {
            Statement::CreateScramble {
                name,
                table,
                method,
                ratio,
                on,
            } => {
                let sample_type = scramble_sample_type(*method, on)?;
                let ratio = ratio.unwrap_or(self.effective.config.sampling_ratio);
                if !(ratio > 0.0 && ratio <= 1.0) {
                    return Err(VerdictError::Unsupported(format!(
                        "scramble RATIO must be in (0, 1], got {ratio}"
                    )));
                }
                let meta = self.ctx.create_sample_named(
                    Some(&name.key()),
                    &table.key(),
                    sample_type,
                    ratio,
                )?;
                Ok(VerdictResponse::ScramblesCreated(vec![meta]))
            }
            Statement::CreateScrambles { table } => {
                let created = self
                    .ctx
                    .create_recommended_samples_with(&table.key(), &self.effective.config)?;
                Ok(VerdictResponse::ScramblesCreated(created))
            }
            Statement::DropScramble { name, if_exists } => {
                let dropped = self.ctx.drop_sample_named(&name.key(), *if_exists)?;
                Ok(VerdictResponse::ScramblesDropped(usize::from(dropped)))
            }
            Statement::DropScrambles { table, if_exists } => {
                let dropped = self.ctx.drop_samples(&table.key())?;
                if dropped == 0 && !if_exists {
                    return Err(VerdictError::Metadata(format!(
                        "no scrambles are registered for table {table}"
                    )));
                }
                Ok(VerdictResponse::ScramblesDropped(dropped))
            }
            Statement::RefreshScrambles { table, batch } => {
                let refreshed = match batch {
                    Some(b) => self
                        .ctx
                        .refresh_samples_after_append(&table.key(), &b.key())?,
                    None => self.ctx.rebuild_samples(&table.key())?,
                };
                Ok(VerdictResponse::ScramblesRefreshed(refreshed))
            }
            Statement::SetOption { name, value } => {
                let (name, rendered) = self.set_option(name, value)?;
                self.derive_effective();
                Ok(VerdictResponse::OptionSet {
                    name,
                    value: rendered,
                })
            }
            _ => unreachable!("pipeline statements are dispatched before execute_control"),
        }
    }

    /// Applies `SET <option> = <value>`, returning the canonical option name
    /// and the applied value as text (`default` after a reset).  A value is
    /// validated, then written into this session's config; `default` (or
    /// `none`) copies the base configuration's value back.
    fn set_option(&mut self, name: &str, value: &SetValue) -> VerdictResult<(String, String)> {
        let reset = matches!(value, SetValue::Ident(w) if w == "default" || w == "none");
        // `Some(parsed value)`, or `None` on reset.
        fn parse<T>(reset: bool, f: impl FnOnce() -> VerdictResult<T>) -> VerdictResult<Option<T>> {
            (!reset).then(f).transpose()
        }
        let base = self.ctx.config();
        let cfg = &mut self.config;
        let (name, shown) = match name {
            "target_error" | "max_relative_error" => {
                let t = parse(reset, || {
                    let t = value_f64(value)?;
                    if t <= 0.0 {
                        return Err(VerdictError::Unsupported(format!(
                            "target_error must be positive, got {t}"
                        )));
                    }
                    Ok(t)
                })?;
                cfg.max_relative_error = t.or(base.max_relative_error);
                ("target_error", render(t))
            }
            "confidence" => {
                let c = parse(reset, || {
                    let c = value_f64(value)?;
                    if !(c > 0.0 && c < 1.0) {
                        return Err(VerdictError::Unsupported(format!(
                            "confidence must be in (0, 1), got {c}"
                        )));
                    }
                    Ok(c)
                })?;
                cfg.confidence = c.unwrap_or(base.confidence);
                ("confidence", render(c))
            }
            // `off` bypasses the shared cache for this session (no lookups,
            // no insertions); `on` restores the base capacity, so a cache
            // disabled at context construction cannot be enabled here.
            "cache" => {
                let on = parse(reset, || value_bool(value))?;
                cfg.answer_cache_capacity = match on {
                    Some(false) => 0,
                    _ => base.answer_cache_capacity,
                };
                ("cache", render(on))
            }
            // Engine-wide, not session-scoped: the engine has one worker
            // pool, so the value resizes the shared connection's pool.
            // Results are bit-identical at any setting; only latency moves.
            "parallelism" => {
                let n = parse(reset, || {
                    let n = value_uint(value, "parallelism", 1, "")?;
                    if n > MAX_PARALLELISM as u64 {
                        return Err(VerdictError::Unsupported(format!(
                            "parallelism must be at most {MAX_PARALLELISM}, got {n}"
                        )));
                    }
                    Ok(n as usize)
                })?;
                self.ctx
                    .connection()
                    .set_parallelism(n.unwrap_or_else(default_parallelism));
                ("parallelism", render(n))
            }
            "bypass" => {
                self.bypass = !reset && value_bool(value)?;
                ("bypass", self.bypass.to_string())
            }
            "error_columns" | "include_error_columns" => {
                let e = parse(reset, || value_bool(value))?;
                cfg.include_error_columns = e.unwrap_or(base.include_error_columns);
                ("error_columns", render(e))
            }
            "io_budget" => {
                let b = parse(reset, || value_fraction(value, "io_budget"))?;
                cfg.io_budget = b.unwrap_or(base.io_budget);
                ("io_budget", render(b))
            }
            "sampling_ratio" => {
                let r = parse(reset, || value_fraction(value, "sampling_ratio"))?;
                cfg.sampling_ratio = r.unwrap_or(base.sampling_ratio);
                ("sampling_ratio", render(r))
            }
            "stream_block_rows" => {
                let n = parse(reset, || value_uint(value, "stream_block_rows", 1, ""))?;
                cfg.stream_block_rows = n.map_or(base.stream_block_rows, |n| n as usize);
                ("stream_block_rows", render(n))
            }
            "deadline_ms" => {
                self.deadline_ms = parse(reset, || {
                    value_uint(value, "deadline_ms", 1, " number of milliseconds")
                })?;
                ("deadline_ms", render(self.deadline_ms))
            }
            "slow_query_ms" => {
                let ms = parse(reset, || {
                    value_uint(
                        value,
                        "slow_query_ms",
                        0,
                        " number of milliseconds (0 = disabled)",
                    )
                })?;
                cfg.slow_query_ms = ms.unwrap_or(base.slow_query_ms);
                ("slow_query_ms", render(ms))
            }
            other => {
                return Err(VerdictError::Unsupported(format!(
                    "unknown session option {other} (target_error, confidence, cache, \
                     parallelism, bypass, error_columns, io_budget, \
                     sampling_ratio, stream_block_rows, deadline_ms, slow_query_ms)"
                )))
            }
        };
        Ok((name.into(), shown))
    }
}

/// Renders a finished trace as the `EXPLAIN ANALYZE` table: one row per
/// span (offset + duration + detail), followed by `@`-prefixed attribution
/// rows (total wall time, cache/shed/backend/store attribution).  Span
/// durations tile the statement's wall time, so summing the non-`@` rows'
/// `duration_us` approximates `@total` closely.
fn render_analyze(trace: &QueryTrace) -> Table {
    let mut span = Vec::new();
    let mut start_us = Vec::new();
    let mut duration_us = Vec::new();
    let mut detail = Vec::new();
    for s in &trace.spans {
        span.push(s.stage.to_string());
        start_us.push(s.start.as_micros() as i64);
        duration_us.push(s.duration.as_micros() as i64);
        detail.push(s.detail.clone());
    }
    let mut attr = |name: &str, value: String| {
        span.push(name.to_string());
        start_us.push(0);
        duration_us.push(0);
        detail.push(value);
    };
    attr("@class", trace.class.to_string());
    attr("@cached", trace.cached.to_string());
    attr("@exact", trace.exact.to_string());
    attr("@shed_tier", trace.shed_tier.to_string());
    attr("@backend_queries", trace.backend_queries.to_string());
    attr("@store_pages_read", trace.store_pages_read.to_string());
    attr("@rows_returned", trace.rows_returned.to_string());
    attr("@rows_scanned", trace.rows_scanned.to_string());
    attr("@slow", trace.slow.to_string());
    // @total carries the wall time in duration_us, like the span rows.
    span.push("@total".to_string());
    start_us.push(0);
    duration_us.push(trace.total.as_micros() as i64);
    detail.push(format!("seq {}", trace.seq));
    TableBuilder::new()
        .str_column("span", span)
        .int_column("start_us", start_us)
        .int_column("duration_us", duration_us)
        .str_column("detail", detail)
        .build()
        .expect("analyze table construction cannot fail")
}

/// Maps `METHOD`/`ON` clauses onto a [`SampleType`], validating the
/// combination.
fn scramble_sample_type(
    method: Option<ScrambleMethod>,
    on: &[String],
) -> VerdictResult<SampleType> {
    let columns: Vec<String> = on.iter().map(|c| c.to_ascii_lowercase()).collect();
    match method.unwrap_or(ScrambleMethod::Uniform) {
        ScrambleMethod::Uniform => {
            if !columns.is_empty() {
                return Err(VerdictError::Unsupported(
                    "uniform scrambles take no ON columns; use METHOD stratified or hashed".into(),
                ));
            }
            Ok(SampleType::Uniform)
        }
        ScrambleMethod::Stratified => {
            if columns.is_empty() {
                return Err(VerdictError::Unsupported(
                    "METHOD stratified requires an ON column list".into(),
                ));
            }
            Ok(SampleType::Stratified { columns })
        }
        ScrambleMethod::Hashed => {
            if columns.is_empty() {
                return Err(VerdictError::Unsupported(
                    "METHOD hashed requires an ON column list".into(),
                ));
            }
            Ok(SampleType::Hashed { columns })
        }
    }
}

/// A numeric `SET` value constrained to the (0, 1] fraction range.
fn value_fraction(value: &SetValue, option: &str) -> VerdictResult<f64> {
    let v = value_f64(value)?;
    if !(v > 0.0 && v <= 1.0) {
        return Err(VerdictError::Unsupported(format!(
            "{option} must be in (0, 1], got {v}"
        )));
    }
    Ok(v)
}

/// A whole-number `SET` value of at least `min` (0 or 1); `unit` completes
/// the error text after "integer" (a unit, what 0 means).
fn value_uint(value: &SetValue, option: &str, min: u64, unit: &str) -> VerdictResult<u64> {
    let n = value_f64(value)?;
    if n < min as f64 || n.fract() != 0.0 {
        let sign = if min == 0 { "non-negative" } else { "positive" };
        return Err(VerdictError::Unsupported(format!(
            "{option} must be a {sign} integer{unit}, got {n}"
        )));
    }
    Ok(n as u64)
}

fn value_f64(value: &SetValue) -> VerdictResult<f64> {
    match value {
        SetValue::Literal(Literal::Float(f)) => Ok(*f),
        SetValue::Literal(Literal::Integer(i)) => Ok(*i as f64),
        other => Err(VerdictError::Unsupported(format!(
            "expected a numeric value, got {other}"
        ))),
    }
}

fn value_bool(value: &SetValue) -> VerdictResult<bool> {
    match value {
        SetValue::Literal(Literal::Boolean(b)) => Ok(*b),
        SetValue::Ident(w) if w == "on" => Ok(true),
        SetValue::Ident(w) if w == "off" => Ok(false),
        SetValue::Literal(Literal::Integer(1)) => Ok(true),
        SetValue::Literal(Literal::Integer(0)) => Ok(false),
        other => Err(VerdictError::Unsupported(format!(
            "expected on/off, got {other}"
        ))),
    }
}

fn render<T: std::fmt::Display>(v: Option<T>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "default".to_string(),
    }
}
