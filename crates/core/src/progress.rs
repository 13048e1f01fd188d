//! Progressive query execution: streaming answers that refine block by
//! block, with early stop at the target error.
//!
//! The paper sells AQP as "answers in seconds, not minutes"; this module
//! turns that into a latency feature users can watch.  A [`ProgressStream`]
//! is the statement pipeline ([`crate::pipeline`]) pulled frame by frame: it
//! plans with the one-shot path's own `plan_query` (analysis → sample plan →
//! variational-subsampling rewrite), then — when the shape allows — executes
//! the rewritten mean query through the engine's resumable block-scan
//! cursor ([`verdict_engine::BlockScan`]): each pulled frame consumes the
//! next block of scramble rows (default: one 64K-row morsel,
//! [`VerdictConfig::stream_block_rows`]), folds the refreshed per-(group,
//! subsample) cells through the Answer Rewriter, and yields a
//! [`ProgressFrame`] whose estimate and confidence interval are **exactly**
//! the variational-subsampling answer for the scramble prefix seen so far.
//!
//! Invariants:
//!
//! * **monotone refinement** — intervals tighten in expectation as blocks
//!   accumulate (they are the estimator's honest intervals for a growing
//!   prefix, so individual frames may wobble, but never lie);
//! * **final-frame bit-identity** — a stream that consumes every block ends
//!   with the one-shot answer, bit for bit, at any engine parallelism: the
//!   block cursor pushes each block's evaluated rows into the engine's one
//!   running aggregation state, which folds them on the same evaluated-row
//!   morsel grid, in the same order, as a one-shot run over those rows
//!   (per-frame cost O(block + groups), nothing re-folded), and the
//!   final frame then runs the one-shot path's own `finish` endgame
//!   (feasibility check, High-level Accuracy Contract, cache insert), so it
//!   falls back to the exact answer under exactly the conditions a plain
//!   `SELECT` would;
//! * **early stop** — with `SET target_error = r`, the stream ends at the
//!   first frame whose worst relative error is within `r`, skipping the
//!   remaining blocks entirely.
//!
//! Queries outside the progressive class (joins, count-distinct, `min`/
//! `max`, no usable scramble, or a connection without block scans) degrade
//! gracefully to a single-frame stream: the plan made at open is executed by
//! the one-shot driver's own tail (`run_planned`), without a cache read, so
//! such a stream plans — and probes row counts — once.
//!
//! A completed stream's final frame is inserted into the shared answer
//! cache under the same key a plain `SELECT` would use — it *is* that
//! query's answer — so the next identical `SELECT` is served from memory.
//! Early-stopped streams saw only a prefix and are never cached.

use crate::answer::assemble;
use crate::config::{Effective, VerdictConfig};
use crate::context::{VerdictAnswer, VerdictContext};
use crate::error::{VerdictError, VerdictResult};
use crate::obs::QueryTrace;
use crate::pipeline::{CacheTicket, OpenTrace, Planned};
use crate::rewrite::{AggClass, RewriteOutput};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use verdict_engine::BlockScan;
use verdict_sql::ast::Query;
use verdict_sql::printer::{print_query, print_statement};

/// One refinement step of a progressive query: the approximate answer (and
/// its confidence intervals) for the scramble prefix consumed so far.
#[derive(Debug, Clone)]
pub struct ProgressFrame {
    /// The assembled answer for the prefix: estimates, error summaries, and
    /// (when `error_columns` is on) `<column>_err` interval half-widths.
    pub answer: VerdictAnswer,
    /// 1-based frame number within the stream.
    pub index: usize,
    /// Scramble rows consumed when this frame was assembled.
    pub rows_seen: u64,
    /// Total scramble rows the stream would consume if run to completion.
    pub total_rows: u64,
    /// `rows_seen / total_rows` (1.0 for a completed or single-frame stream).
    pub fraction: f64,
    /// True for the stream's final frame.
    pub last: bool,
    /// True when this (final) frame ended the stream because the target
    /// error was met before the scramble was exhausted.
    pub early_stopped: bool,
}

/// Internal state of a [`ProgressStream`].
enum StreamState {
    Progressive(Box<Progressive>),
    /// The query is outside the progressive class, or the session bypasses
    /// sampling: one frame, executing what was planned at open (a planning
    /// failure included — it surfaces on that frame).
    Single(VerdictResult<Planned>),
    /// Stream finished (or failed); no further frames.
    Done,
}

/// Block-by-block execution over the rewritten mean query: the pipeline
/// planned at open, one `stream_frame` span per pulled frame, `finish` on
/// the frame that completes the scan.
struct Progressive {
    scan: Box<dyn BlockScan>,
    rewritten: Box<RewriteOutput>,
    /// Printed SQL of the rewritten mean query (reported per frame).
    mean_sql: String,
}

/// A pull-based progressive execution: an iterator of
/// [`ProgressFrame`]s.  Obtain one from
/// [`VerdictSession::stream`](crate::session::VerdictSession::stream);
/// dropping it abandons the remaining blocks with no side effects.
pub struct ProgressStream {
    ctx: Arc<VerdictContext>,
    cfg: VerdictConfig,
    /// The streamed query's printed SQL.
    sql: String,
    shed_tier: &'static str,
    state: StreamState,
    /// Cache bookkeeping for the answer of a stream that runs to its end.
    ticket: Option<CacheTicket>,
    /// The stream statement's trace: opened with the stream, taken and
    /// closed (observed under class `stream`) with its last frame.
    trace: Option<OpenTrace>,
    /// The trace as the last frame closed it.
    closed: Option<QueryTrace>,
    /// Consume every remaining block in one frame ([`Self::final_frame`]
    /// without a target error, where no frame could end the stream early).
    drain_whole: bool,
    index: usize,
}

impl ProgressStream {
    /// Plans a progressive execution for `query` under an already-resolved
    /// configuration; under session `bypass` it is one exact frame.  Never
    /// fails for *unsupported* shapes — those fall back to a single-frame
    /// stream; errors surface on the first frame.
    pub(crate) fn open(
        ctx: Arc<VerdictContext>,
        query: &Query,
        effective: &Effective,
        bypass: bool,
        shed_tier: &'static str,
    ) -> ProgressStream {
        ctx.streams.started.fetch_add(1, Relaxed);
        let mut trace = ctx.open_trace();
        let (planned, ticket) = if bypass {
            let bypass = Planned::Exact {
                reason: String::new(),
                plan: None,
            };
            (Ok(bypass), None)
        } else {
            trace.tb.begin("canonicalize");
            // The ticket's version snapshot is taken BEFORE a scan pins its
            // input (see `cache_ticket`): a write landing between the two
            // leaves the completed answer stored under the pre-write
            // versions, where revalidation drops it.
            let key = ctx.cache_key(query, effective);
            let ticket = key.and_then(|k| ctx.cache_ticket(k, None, query));
            (
                ctx.plan_query(query, &effective.config, &mut trace.tb),
                ticket,
            )
        };
        let scan = match &planned {
            Ok(Planned::Approximate(rewritten)) => Self::open_scan(&ctx, rewritten),
            _ => None,
        };
        trace.tb.end();
        let state = match (planned, scan) {
            (Ok(Planned::Approximate(rewritten)), Some((scan, mean_sql))) => {
                StreamState::Progressive(Box::new(Progressive {
                    scan,
                    rewritten,
                    mean_sql,
                }))
            }
            (planned, _) => {
                ctx.streams.fallbacks.fetch_add(1, Relaxed);
                StreamState::Single(planned)
            }
        };
        let sql = print_query(query, ctx.dialect());
        ProgressStream {
            ctx,
            cfg: effective.config.clone(),
            sql,
            shed_tier,
            state,
            ticket,
            trace: Some(trace),
            closed: None,
            drain_whole: false,
            index: 0,
        }
    }

    /// Closes the stream's trace with its last frame's answer.
    fn close_trace(&mut self, answer: &mut VerdictAnswer) {
        let trace = self.trace.take().expect("closed once, by the last frame");
        let closed = self.ctx.close_trace(
            trace,
            "stream",
            &self.sql,
            &self.cfg,
            self.shed_tier,
            Some(answer),
        );
        answer.elapsed = closed.total;
        self.closed = Some(closed);
    }

    /// Opens the block scan over the rewritten mean query, with its printed
    /// SQL; `None` means "answer as a single frame".
    fn open_scan(
        ctx: &VerdictContext,
        rewritten: &RewriteOutput,
    ) -> Option<(Box<dyn BlockScan>, String)> {
        // Progressive execution covers the single-table, mean-like class;
        // count-distinct and extreme statistics would need their own side
        // queries per frame and take the one-shot path instead.
        let analysis = &rewritten.analysis;
        if analysis.tables.len() != 1
            || analysis.has_class(AggClass::Distinct)
            || analysis.has_class(AggClass::Extreme)
        {
            return None;
        }
        // Append maintenance inserts batch rows unshuffled at the sample's
        // tail, so a prefix of such a scramble is no longer a uniform
        // subsample — intermediate frames would be biased toward the old
        // data while claiming full-population coverage.  Decline and answer
        // one-shot (still correct); a batchless REFRESH rebuild restores
        // the shuffle and with it progressive execution.
        let mut samples = rewritten
            .plan
            .choices
            .iter()
            .filter_map(|c| c.sample.as_ref());
        if samples.any(|s| s.appended_rows > 0) {
            return None;
        }
        let mean_sql = print_statement(rewritten.mean_query.as_ref()?, ctx.dialect());
        let scan = ctx.connection().open_block_scan(&mean_sql)?;
        Some((scan, mean_sql))
    }

    /// The shared context this stream executes on.
    pub fn context(&self) -> &Arc<VerdictContext> {
        &self.ctx
    }

    /// True when the stream executes block by block (false: single-frame
    /// fallback).
    pub fn is_progressive(&self) -> bool {
        matches!(self.state, StreamState::Progressive(_))
    }

    /// Drives the stream to its end and returns the final frame (the
    /// in-process `STREAM` statement's answer).  Early-stop semantics are
    /// identical to pulling the frames one by one: with a target error set,
    /// blocks are consumed and evaluated frame-by-frame so the stream can
    /// stop on a strict prefix; without one, no frame can end the stream
    /// early, so the remaining blocks are consumed in one step (skipping the
    /// per-block snapshots a frame-by-frame drain would pay).
    pub fn final_frame(self) -> VerdictResult<ProgressFrame> {
        Ok(self.drain()?.0)
    }

    /// [`Self::final_frame`], with the stream's trace as its last frame
    /// closed it (what `EXPLAIN ANALYZE STREAM` renders).
    pub(crate) fn drain(mut self) -> VerdictResult<(ProgressFrame, QueryTrace)> {
        self.drain_whole = self.cfg.max_relative_error.is_none();
        let mut last = None;
        for frame in &mut self {
            last = Some(frame?);
        }
        let last =
            last.ok_or_else(|| VerdictError::Answer("stream produced no frames".to_string()))?;
        let trace = self.closed.take().expect("the last frame closes the trace");
        Ok((last, trace))
    }

    fn next_progressive(&mut self) -> VerdictResult<ProgressFrame> {
        let StreamState::Progressive(progressive) = &mut self.state else {
            unreachable!("next_progressive called on a non-progressive stream");
        };
        let Progressive {
            scan,
            rewritten,
            mean_sql,
        } = progressive.as_mut();
        self.index += 1;
        let tb = &mut self.trace.as_mut().expect("open until the last frame").tb;
        tb.begin_with("stream_frame", format!("frame {}", self.index));
        let block = self.cfg.stream_block_rows.max(1) as u64;
        loop {
            let consumed = scan.advance(block)?;
            if consumed == 0 || !self.drain_whole {
                break;
            }
        }
        let result = scan.snapshot()?;
        let complete = scan.done();
        let rows_seen = scan.rows_seen();
        let total_rows = scan.total_rows();
        let mut answer = if complete {
            // The completed scan's snapshot *is* the one-shot mean result:
            // the shared endgame turns it into the one-shot answer, exact
            // fallbacks and cache insert included.
            let mean = (mean_sql.clone(), result);
            let answer = self.ctx.finish(
                &self.sql,
                rewritten,
                Some(mean),
                self.ticket.take(),
                tb,
                &self.cfg,
            )?;
            self.ctx.streams.completed.fetch_add(1, Relaxed);
            answer
        } else {
            // A strict prefix sees each population tuple with probability
            // p·(k/n) rather than p (the scramble is shuffled at build time,
            // so the first k of its n rows are a uniform subsample): rescale
            // the Horvitz–Thompson totals (count/sum) by n/k so every frame
            // estimates the full-population answer.  Ratio and scale-free
            // statistics need no correction.
            let mean_table = if rows_seen == 0 {
                result.table
            } else {
                let inv_fraction = total_rows as f64 / rows_seen as f64;
                scale_prefix_totals(result.table, rewritten, inv_fraction)
            };
            let assembled = assemble(rewritten, Some(&mean_table), None, None, &self.cfg)?;
            VerdictAnswer {
                table: assembled.table,
                exact: false,
                cached: false,
                errors: assembled.errors,
                rewritten_sql: vec![mean_sql.clone()],
                elapsed: tb.elapsed(),
                rows_scanned: rows_seen,
                used_samples: rewritten.plan.sample_tables(),
            }
        };
        tb.end();
        // Early stop: the target error is met by a strict prefix.  Guard
        // against trivially "perfect" empty frames — no groups means no
        // error summaries, not zero error.
        let worst = answer.max_relative_error();
        let early_stopped = !complete
            && !answer.errors.is_empty()
            && worst.is_finite()
            && self.cfg.max_relative_error.is_some_and(|t| worst <= t);
        if early_stopped {
            self.ctx.streams.early_stops.fetch_add(1, Relaxed);
        }
        let last = complete || early_stopped;
        if last {
            self.state = StreamState::Done;
            self.close_trace(&mut answer);
        }
        self.ctx.streams.frames.fetch_add(1, Relaxed);
        Ok(ProgressFrame {
            answer,
            index: self.index,
            rows_seen,
            total_rows,
            fraction: if total_rows == 0 {
                1.0
            } else {
                rows_seen as f64 / total_rows as f64
            },
            last,
            early_stopped,
        })
    }

    fn next_single(&mut self) -> VerdictResult<ProgressFrame> {
        let StreamState::Single(planned) = std::mem::replace(&mut self.state, StreamState::Done)
        else {
            unreachable!("next_single called on a non-single stream");
        };
        self.index += 1;
        let tb = &mut self.trace.as_mut().expect("open until the last frame").tb;
        let mut answer =
            self.ctx
                .run_planned(planned?, &self.sql, self.ticket.take(), &self.cfg, tb)?;
        self.close_trace(&mut answer);
        self.ctx.streams.frames.fetch_add(1, Relaxed);
        let rows = answer.rows_scanned;
        Ok(ProgressFrame {
            answer,
            index: self.index,
            rows_seen: rows,
            total_rows: rows,
            fraction: 1.0,
            last: true,
            early_stopped: false,
        })
    }
}

/// Rescales the per-subsample Horvitz–Thompson totals (`count`/`sum`
/// estimate columns) of a prefix mean-result by `inv_fraction = n/k`.  Cell
/// sizes and scale-free statistics (avg, variance, quantiles) are left
/// untouched; scaling every per-cell estimate scales the assembled point
/// estimate *and* its interval coherently.
fn scale_prefix_totals(
    mut table: verdict_engine::Table,
    rewritten: &RewriteOutput,
    inv_fraction: f64,
) -> verdict_engine::Table {
    for name in rewritten.program.total_columns() {
        if let Some(idx) = table.schema.index_of(name) {
            let col = &table.columns[idx];
            let scaled = (0..col.len())
                .map(|i| col.f64_at(i).map(|x| x * inv_fraction))
                .collect();
            table.columns[idx] = verdict_engine::Column::from_opt_f64(scaled);
        }
    }
    table
}

impl Iterator for ProgressStream {
    type Item = VerdictResult<ProgressFrame>;

    fn next(&mut self) -> Option<Self::Item> {
        let result = match &self.state {
            StreamState::Done => return None,
            StreamState::Single(_) => self.next_single(),
            StreamState::Progressive(_) => self.next_progressive(),
        };
        if result.is_err() {
            // An error ends the stream; later `next` calls return None.
            self.state = StreamState::Done;
        }
        Some(result)
    }
}
