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
//! [`QueryOptions`].  Options are resolved against the context's immutable
//! base [`VerdictConfig`] *per statement*: `SET` mutates only this session's
//! options, never shared state — the replacement for the old
//! `config_mut()`-on-a-shared-context wart, which could not work behind the
//! server's `Arc<VerdictContext>` at all.

use crate::config::VerdictConfig;
use crate::context::{VerdictAnswer, VerdictContext};
use crate::error::{VerdictError, VerdictResult};
use crate::obs::QueryTrace;
use crate::pipeline::{statement_class, Route};
use crate::progress::ProgressStream;
use crate::sample::{SampleMeta, SampleType};
use std::sync::Arc;
use verdict_engine::{Table, TableBuilder};
use verdict_sql::ast::{Literal, ScrambleMethod, SetValue, Statement};
use verdict_sql::printer::print_statement;

/// Per-session (and therefore per-query) overrides of the context's base
/// configuration (§2.4 knobs).
///
/// Every field is optional; `None` inherits the base [`VerdictConfig`].
/// Options are set through SQL (`SET <option> = <value>`) or constructed
/// directly for embedded use.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryOptions {
    /// `SET target_error = r` — maximum tolerated relative error; when the
    /// estimated error exceeds it the query is re-run exactly (High-level
    /// Accuracy Contract).
    pub target_error: Option<f64>,
    /// `SET confidence = c` — confidence level for reported error bounds.
    pub confidence: Option<f64>,
    /// `SET cache = on|off` — per-session answer-cache policy.  `off`
    /// bypasses the shared cache for this session's statements (no lookups,
    /// no insertions); `on` restores the base behaviour.  A cache disabled
    /// at context construction cannot be enabled per session.
    pub cache: Option<bool>,
    /// `SET parallelism = n` — worker-thread hint for the underlying
    /// engine.  Results are bit-identical at any setting; only latency
    /// changes.  **Engine-wide, not session-scoped**: the hint is applied
    /// to the shared connection's morsel pool when set (the engine has one
    /// pool, so per-statement isolation is not possible); `SET parallelism
    /// = default` restores the base configuration's setting.
    pub parallelism: Option<usize>,
    /// `SET bypass = on|off` — when on, every query runs exactly on the
    /// base tables (a session-wide `BYPASS`).
    pub bypass: bool,
    /// `SET error_columns = on|off` — attach `<column>_err` columns to
    /// approximate results.
    pub error_columns: Option<bool>,
    /// `SET io_budget = f` — maximum fraction of each large table read per
    /// query.
    pub io_budget: Option<f64>,
    /// `SET sampling_ratio = r` — default τ for `CREATE SCRAMBLE` statements
    /// that omit `RATIO`.
    pub sampling_ratio: Option<f64>,
    /// `SET stream_block_rows = n` — scramble rows consumed per progressive
    /// frame (see [`VerdictConfig::stream_block_rows`]).
    pub stream_block_rows: Option<usize>,
    /// `SET stream_max_frames = n` — cap on frames per stream, 0 for
    /// unbounded (see [`VerdictConfig::stream_max_frames`]).
    pub stream_max_frames: Option<usize>,
    /// `SET deadline_ms = n` — per-query deadline in milliseconds, enforced
    /// by the serving layer's admission control (a statement still queued
    /// when its deadline passes is answered with a typed `DEADLINE` error;
    /// progressive streams stop at the deadline).  `None` (the default)
    /// means no deadline; in-process sessions ignore the option.
    pub deadline_ms: Option<u64>,
    /// `SET slow_query_ms = n` — slow-query threshold in milliseconds (see
    /// [`VerdictConfig::slow_query_ms`]); `0` disables the flag.  Purely
    /// observational: flagged statements are marked `slow` in the trace ring
    /// and counted in `verdict_slow_queries_total`.
    pub slow_query_ms: Option<u64>,
}

impl QueryOptions {
    /// Resolves these options against a base configuration, producing the
    /// effective per-statement [`VerdictConfig`].
    pub fn resolve(&self, base: &VerdictConfig) -> VerdictConfig {
        let mut cfg = base.clone();
        if let Some(te) = self.target_error {
            cfg.max_relative_error = Some(te);
        }
        if let Some(c) = self.confidence {
            cfg.confidence = c;
        }
        if self.cache == Some(false) {
            cfg.answer_cache_capacity = 0;
        }
        // `parallelism` is deliberately NOT folded in: the engine reads it
        // only at context construction, so the per-statement config cannot
        // carry it — SET applies the hint to the shared pool instead.
        if let Some(e) = self.error_columns {
            cfg.include_error_columns = e;
        }
        if let Some(b) = self.io_budget {
            cfg.io_budget = b;
        }
        if let Some(r) = self.sampling_ratio {
            cfg.sampling_ratio = r;
        }
        if let Some(b) = self.stream_block_rows {
            cfg.stream_block_rows = b;
        }
        if let Some(f) = self.stream_max_frames {
            cfg.stream_max_frames = f;
        }
        if let Some(ms) = self.slow_query_ms {
            cfg.slow_query_ms = ms;
        }
        cfg
    }
}

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

/// A SQL-only session over a shared [`VerdictContext`].
///
/// See the [module documentation](self) for the statement surface.  Sessions
/// are cheap to create (one `Arc` clone plus default options) and are *not*
/// shared between threads — each connection/actor gets its own.
pub struct VerdictSession {
    ctx: Arc<VerdictContext>,
    options: QueryOptions,
    shed: crate::shed::ShedTier,
}

impl VerdictSession {
    /// Opens a session with default (inherit-everything) options.
    pub fn new(ctx: Arc<VerdictContext>) -> VerdictSession {
        Self::with_options(ctx, QueryOptions::default())
    }

    /// Opens a session with explicit initial options.
    pub fn with_options(ctx: Arc<VerdictContext>, options: QueryOptions) -> VerdictSession {
        VerdictSession {
            ctx,
            options,
            shed: crate::shed::ShedTier::None,
        }
    }

    /// The shared middleware context.
    pub fn context(&self) -> &Arc<VerdictContext> {
        &self.ctx
    }

    /// The current session options.
    pub fn options(&self) -> &QueryOptions {
        &self.options
    }

    /// Applies a load-shedding tier to every subsequent statement's
    /// effective configuration (see [`crate::shed`]).  Set by the serving
    /// layer's admission control per admitted statement — deliberately not
    /// reachable through `SET`, so clients cannot un-shed themselves.
    pub fn set_shed_tier(&mut self, tier: crate::shed::ShedTier) {
        self.shed = tier;
    }

    /// The load-shedding tier currently applied to this session.
    pub fn shed_tier(&self) -> crate::shed::ShedTier {
        self.shed
    }

    /// The effective configuration the next statement would run under.
    pub fn effective_config(&self) -> VerdictConfig {
        let mut cfg = self.options.resolve(self.ctx.config());
        self.shed.apply(&mut cfg);
        cfg
    }

    /// Executes one SQL statement (a trailing `;` is allowed).
    pub fn execute(&mut self, sql: &str) -> VerdictResult<VerdictResponse> {
        let stmt = verdict_sql::parse_statement(sql)?;
        self.execute_statement(&stmt, sql)
    }

    /// Opens a progressive execution for a query: a pull-based iterator of
    /// [`ProgressFrame`](crate::progress::ProgressFrame)s whose estimates
    /// and confidence intervals refine block by block, ending with the
    /// one-shot answer (see [`crate::progress`]).  Accepts either a plain
    /// `SELECT …` or the `STREAM SELECT …` statement form.
    ///
    /// The stream runs under this session's current options: `target_error`
    /// becomes the early-stop threshold, `stream_block_rows` /
    /// `stream_max_frames` shape the frame cadence, and `bypass` degrades
    /// to a single exact frame.
    pub fn stream(&mut self, sql: &str) -> VerdictResult<ProgressStream> {
        match verdict_sql::parse_statement(sql)? {
            Statement::Query(q) => self.open_stream(Statement::Stream(q)),
            stmt => self.open_stream(stmt),
        }
    }

    fn open_stream(&mut self, stmt: Statement) -> VerdictResult<ProgressStream> {
        let route = Route::of(&stmt, self.options.bypass)?;
        let (Statement::Stream(query), Some(route)) = (stmt, route) else {
            return Err(VerdictError::Unsupported(
                "only queries can be streamed (SELECT … or STREAM SELECT …)".into(),
            ));
        };
        Ok(ProgressStream::open(
            Arc::clone(&self.ctx),
            *query,
            self.effective_config(),
            route,
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

    /// Dispatches one parsed statement; `sql` must be its source text.
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
        match stmt {
            Statement::Explain { analyze, statement } => Ok(VerdictResponse::Answer(if *analyze {
                let text = print_statement(statement, self.ctx.dialect());
                let trace = self.run_traced(statement, &text)?.1;
                VerdictAnswer {
                    elapsed: trace.total,
                    ..VerdictAnswer::in_process(render_analyze(&trace))
                }
            } else {
                let cfg = self.effective_config();
                self.ctx.explain(statement, sql, &cfg, self.shed.label())?
            })),
            // Single-response alias for the streaming surface: run the
            // progressive execution to its end and return the final frame
            // (bit-identical to the one-shot answer when the stream
            // completes; the early-stopped prefix answer when a target
            // error is met first).
            Statement::Stream(_) => {
                let stream = self.open_stream(stmt.clone())?;
                Ok(VerdictResponse::Answer(stream.final_frame()?.answer))
            }
            _ => Ok(self.run_traced(stmt, sql)?.0),
        }
    }

    /// Executes one statement to completion under a trace: pipeline
    /// statements (plain SQL, `BYPASS`, and — for `EXPLAIN ANALYZE` — the
    /// one-shot equivalent of `STREAM`) along their [`Route`], everything
    /// else as a one-span `control` trace.
    fn run_traced(
        &mut self,
        stmt: &Statement,
        sql: &str,
    ) -> VerdictResult<(VerdictResponse, QueryTrace)> {
        let shed = self.shed.label();
        if let Some(route) = Route::of(stmt, self.options.bypass)? {
            let cfg = self.effective_config();
            let (answer, trace) = self.ctx.run_statement(stmt, sql, &cfg, route, shed)?;
            return Ok((VerdictResponse::Answer(answer), trace));
        }
        let mut open = self.ctx.open_trace();
        open.tb.begin("control");
        let response = self.execute_control(stmt)?;
        // Resolved after the statement ran: a `SET` applies to its own trace.
        let cfg = self.effective_config();
        let class = statement_class(stmt);
        let trace = self.ctx.close_trace(open, class, sql, &cfg, shed, None);
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
                let cfg = self.effective_config();
                let sample_type = scramble_sample_type(*method, on)?;
                let ratio = ratio.unwrap_or(cfg.sampling_ratio);
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
                    &cfg,
                )?;
                Ok(VerdictResponse::ScramblesCreated(vec![meta]))
            }
            Statement::CreateScrambles { table } => {
                let cfg = self.effective_config();
                let created = self
                    .ctx
                    .create_recommended_samples_with(&table.key(), &cfg)?;
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
                    None => {
                        let cfg = self.effective_config();
                        self.ctx.rebuild_samples(&table.key(), &cfg)?
                    }
                };
                Ok(VerdictResponse::ScramblesRefreshed(refreshed))
            }
            Statement::SetOption { name, value } => {
                let (name, rendered) = self.set_option(name, value)?;
                Ok(VerdictResponse::OptionSet {
                    name,
                    value: rendered,
                })
            }
            _ => unreachable!("pipeline statements are dispatched before execute_control"),
        }
    }

    /// Applies `SET <option> = <value>`, returning the canonical option name
    /// and the rendered applied value.
    fn set_option(&mut self, name: &str, value: &SetValue) -> VerdictResult<(String, String)> {
        let reset = matches!(value, SetValue::Ident(w) if w == "default" || w == "none");
        match name {
            "target_error" | "max_relative_error" => {
                self.options.target_error = if reset {
                    None
                } else {
                    let t = value_f64(value)?;
                    if t <= 0.0 {
                        return Err(VerdictError::Unsupported(format!(
                            "target_error must be positive, got {t}"
                        )));
                    }
                    Some(t)
                };
                Ok(("target_error".into(), render(self.options.target_error)))
            }
            "confidence" => {
                let v = if reset {
                    None
                } else {
                    let c = value_f64(value)?;
                    if !(c > 0.0 && c < 1.0) {
                        return Err(VerdictError::Unsupported(format!(
                            "confidence must be in (0, 1), got {c}"
                        )));
                    }
                    Some(c)
                };
                self.options.confidence = v;
                Ok(("confidence".into(), render(self.options.confidence)))
            }
            "cache" => {
                self.options.cache = if reset {
                    None
                } else {
                    Some(value_bool(value)?)
                };
                Ok(("cache".into(), render(self.options.cache)))
            }
            "parallelism" => {
                let v = if reset {
                    None
                } else {
                    Some(value_uint(value, "parallelism", 1, "")? as usize)
                };
                self.options.parallelism = v;
                // The hint targets the shared engine pool (engine-wide, see
                // the field docs); results stay bit-identical at any
                // setting, only latency changes.  Reset restores the base
                // configuration's setting (or the machine default).
                let effective = v
                    .or(self.ctx.config().parallelism)
                    .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()));
                if let Some(n) = effective {
                    self.ctx.connection().set_parallelism(n);
                }
                Ok(("parallelism".into(), render(self.options.parallelism)))
            }
            "bypass" => {
                self.options.bypass = if reset { false } else { value_bool(value)? };
                Ok(("bypass".into(), self.options.bypass.to_string()))
            }
            "error_columns" | "include_error_columns" => {
                self.options.error_columns = if reset {
                    None
                } else {
                    Some(value_bool(value)?)
                };
                Ok(("error_columns".into(), render(self.options.error_columns)))
            }
            "io_budget" => {
                self.options.io_budget = if reset {
                    None
                } else {
                    Some(value_fraction(value, "io_budget")?)
                };
                Ok(("io_budget".into(), render(self.options.io_budget)))
            }
            "sampling_ratio" => {
                self.options.sampling_ratio = if reset {
                    None
                } else {
                    Some(value_fraction(value, "sampling_ratio")?)
                };
                Ok(("sampling_ratio".into(), render(self.options.sampling_ratio)))
            }
            "stream_block_rows" => {
                self.options.stream_block_rows = if reset {
                    None
                } else {
                    Some(value_uint(value, "stream_block_rows", 1, "")? as usize)
                };
                Ok((
                    "stream_block_rows".into(),
                    render(self.options.stream_block_rows),
                ))
            }
            "stream_max_frames" => {
                self.options.stream_max_frames = if reset {
                    None
                } else {
                    Some(value_uint(value, "stream_max_frames", 0, " (0 = unbounded)")? as usize)
                };
                Ok((
                    "stream_max_frames".into(),
                    render(self.options.stream_max_frames),
                ))
            }
            "deadline_ms" => {
                self.options.deadline_ms = if reset {
                    None
                } else {
                    Some(value_uint(
                        value,
                        "deadline_ms",
                        1,
                        " number of milliseconds",
                    )?)
                };
                Ok(("deadline_ms".into(), render(self.options.deadline_ms)))
            }
            "slow_query_ms" => {
                self.options.slow_query_ms = if reset {
                    None
                } else {
                    Some(value_uint(
                        value,
                        "slow_query_ms",
                        0,
                        " number of milliseconds (0 = disabled)",
                    )?)
                };
                Ok(("slow_query_ms".into(), render(self.options.slow_query_ms)))
            }
            other => Err(VerdictError::Unsupported(format!(
                "unknown session option {other} (target_error, confidence, cache, \
                 parallelism, bypass, error_columns, io_budget, \
                 sampling_ratio, stream_block_rows, stream_max_frames, deadline_ms, \
                 slow_query_ms)"
            ))),
        }
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
