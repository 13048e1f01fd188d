//! Statement execution on the worker pool.
//!
//! One [`Task`] is one admitted statement, parsed (and, for a cacheable
//! query, canonicalised) by the I/O shard: the worker locks the
//! connection's session, applies the statement's shed tier, executes, and
//! serialises response frames through the connection's [`ConnSink`]
//! (which backpressures against the per-connection outbound buffer —
//! workers never touch sockets).  Every statement ends with one terminal
//! frame; a `STREAM <query>` statement sends its progressive `FRAME`s
//! first and ends with `DONE`.  A cache hit the shard answers itself is
//! written by [`write_hit_frame`].
//!
//! A statement that panics, here or in the shard's cache probe, becomes a
//! plain `ERR` frame: execution runs inside `catch_unwind` with the session
//! guard held, so the panic poisons the session and its connection closes
//! once the frame is flushed.  The worker and the shard live on.

use crate::protocol::{
    write_coded_error_frame, write_error_frame, write_frame_body, write_result_frame,
    write_stream_done, ErrorCode, FrameHeader, StreamFrameHeader,
};
use crate::server::{ConnShared, ConnSink, Shared, SinkError, Task};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Instant;
use verdict_core::{
    CacheHit, ShedTier, VerdictAnswer, VerdictError, VerdictResponse, VerdictSession,
};
use verdict_sql::ast::Statement;

/// Why a statement ends without its answer.
enum Unanswered {
    /// Execution failed: an `ERR` frame.
    Failed(VerdictError),
    /// A send failed, or the deadline passed: see [`SinkError`].
    Sink(SinkError),
}

impl From<VerdictError> for Unanswered {
    fn from(e: VerdictError) -> Self {
        Unanswered::Failed(e)
    }
}

impl From<SinkError> for Unanswered {
    fn from(e: SinkError) -> Self {
        Unanswered::Sink(e)
    }
}

fn deadline_expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Appends a typed `DEADLINE` error frame and bumps the miss counters.
fn deadline_frame(shared: &Shared, out: &mut String) {
    shared.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
    shared.count_error();
    write_coded_error_frame(
        out,
        ErrorCode::Deadline,
        "deadline_ms elapsed before the answer completed",
    );
}

/// The `ERR` frame for a statement that panicked; its session is poisoned,
/// so the connection closes after the frame.
pub(crate) fn panic_frame(
    shared: &Shared,
    conn: &ConnShared,
    payload: &(dyn Any + Send),
    out: &mut String,
) {
    let cause = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message");
    shared.count_error();
    conn.close_when_flushed();
    write_error_frame(
        out,
        &format!("statement panicked ({cause}); the session is closed"),
    );
}

/// The `ERR` frame for a request on a connection whose session an earlier
/// panic poisoned; the connection closes after the frame.
pub(crate) fn poisoned_session_frame(shared: &Shared, conn: &ConnShared, out: &mut String) {
    shared.count_error();
    conn.close_when_flushed();
    write_error_frame(out, "the session was closed by a statement that panicked");
}

/// Executes one admitted task end to end: deadline gate, shed tier,
/// statement, terminal frame.  Admission release and the connection's busy
/// flag are handled by the caller's guard.
pub(crate) fn run_task(shared: &Shared, task: &Task) {
    let conn = &*task.conn;
    let sink = ConnSink {
        shared,
        conn,
        deadline: task.deadline,
    };
    let mut out = String::new();
    // A statement whose deadline passed while it sat on the run queue is
    // answered without touching the engine: under overload this is the
    // cheap path that keeps the queue draining.
    if deadline_expired(task.deadline) {
        deadline_frame(shared, &mut out);
    } else if let Ok(session) = conn.session.lock() {
        let ran = catch_unwind(AssertUnwindSafe(|| {
            // The guard moves in: an unwind drops it there and poisons the
            // session.
            let mut session = session;
            session.set_shed_tier(task.tier);
            let ran = execute(shared, task, &mut session, &sink);
            session.set_shed_tier(ShedTier::None);
            ran
        }));
        match ran {
            Ok(Ok(frame)) => out = frame,
            // The connection is gone: no terminal frame is owed.
            Ok(Err(Unanswered::Sink(SinkError::Gone))) => return,
            Ok(Err(Unanswered::Sink(SinkError::Deadline))) => deadline_frame(shared, &mut out),
            Ok(Err(Unanswered::Failed(e))) => {
                shared.count_error();
                write_error_frame(&mut out, &e.to_string());
            }
            Err(payload) => panic_frame(shared, conn, payload.as_ref(), &mut out),
        }
    } else {
        poisoned_session_frame(shared, conn, &mut out);
    }
    let _ = sink.send_terminal(&out);
}

/// Runs the task's statement through the connection's session and returns
/// its terminal frame: the unified [`VerdictResponse`] as one frame, or —
/// for `STREAM <query>` — `DONE` after the stream's frames.
fn execute(
    shared: &Shared,
    task: &Task,
    session: &mut VerdictSession,
    sink: &ConnSink<'_>,
) -> Result<String, Unanswered> {
    shared.stats.queries_served.fetch_add(1, Ordering::Relaxed);
    let mut out = String::new();
    if let Statement::Stream(_) = task.parsed.statement() {
        let frames = stream(task, session, sink)?;
        write_stream_done(&mut out, frames);
        return Ok(out);
    }
    let start = Instant::now();
    let response = session.execute_parsed(&task.parsed);
    if deadline_expired(task.deadline) {
        // The engine finished after the deadline: the contract says the
        // client gets a DEADLINE error, not a late answer.
        return Err(SinkError::Deadline.into());
    }
    match response? {
        VerdictResponse::Answer(answer) => write_answer_frame(&answer, None, task.tier, &mut out),
        response => write_response_frame(&response, start, &mut out),
    }
    Ok(out)
}

/// Sends a `STREAM <query>` statement's progressive frames, one `FRAME …`
/// result frame per refinement, and returns how many it sent.  Each frame
/// goes through the backpressured sink as soon as the execution produces
/// it, so clients see the estimate tighten in real time while a slow reader
/// is bounded by its own connection's buffer.  An error (or a missed
/// deadline) before or between frames ends the response with an `ERR`
/// frame in place of further `FRAME`s.
fn stream(task: &Task, session: &VerdictSession, sink: &ConnSink<'_>) -> Result<usize, Unanswered> {
    let mut frames = 0usize;
    for frame in session.open_stream(task.parsed.statement())? {
        if deadline_expired(task.deadline) {
            return Err(SinkError::Deadline.into());
        }
        let frame = frame?;
        frames += 1;
        let mut out = String::new();
        write_answer_frame(&frame.answer, Some(&frame), task.tier, &mut out);
        sink.send(&out)?;
    }
    Ok(frames)
}

/// Serialises an answer: a one-shot result frame, or — given the
/// progressive `frame` it belongs to — a `FRAME …` stream frame.  Both carry
/// the same status fields, per-aggregate `E` error summaries, and `S`
/// extras (samples used, degradation tier).
pub(crate) fn write_answer_frame(
    answer: &VerdictAnswer,
    frame: Option<&verdict_core::ProgressFrame>,
    tier: ShedTier,
    out: &mut String,
) {
    let base = answer_header(answer, tier);
    let Some(frame) = frame else {
        base.write_status(out);
        return write_answer_body(answer, tier, out);
    };
    let header = StreamFrameHeader {
        base,
        frame: frame.index,
        rows_seen: frame.rows_seen,
        total_rows: frame.total_rows,
        fraction: frame.fraction,
        last: frame.last,
        early_stopped: frame.early_stopped,
    };
    header.write_status(out);
    write_answer_body(answer, tier, out);
}

/// A cache hit answered by the I/O shard: its own status line (its
/// `elapsed_us`, `cached=1`, no shed tier) and a copy of the entry's body,
/// which the entry's first such hit encoded.  Byte for byte the frame
/// [`write_answer_frame`] writes for the same answer.
pub(crate) fn write_hit_frame(hit: &CacheHit, out: &mut String) {
    let answer = hit.answer();
    FrameHeader {
        elapsed_us: hit.elapsed().as_micros() as u64,
        ..answer_header(answer, ShedTier::None)
    }
    .write_status(out);
    out.push_str(hit.encoded(|answer| {
        let mut body = String::new();
        write_answer_body(answer, ShedTier::None, &mut body);
        body
    }));
}

/// The status-line fields of an answer's frame.
fn answer_header(answer: &VerdictAnswer, tier: ShedTier) -> FrameHeader {
    FrameHeader {
        rows: answer.table.num_rows(),
        cols: answer.table.schema.fields.len(),
        exact: answer.exact,
        cached: answer.cached,
        elapsed_us: answer.elapsed.as_micros() as u64,
        rows_scanned: answer.rows_scanned,
        degraded: tier.level(),
    }
}

/// An answer's frame body: its table, per-aggregate `E` error summaries,
/// and `S` extras (samples used, degradation tier).
fn write_answer_body(answer: &VerdictAnswer, tier: ShedTier, out: &mut String) {
    let errors: Vec<(String, f64, f64)> = answer
        .errors
        .iter()
        .map(|e| {
            (
                e.column.clone(),
                e.mean_relative_error,
                e.max_relative_error,
            )
        })
        .collect();
    let mut extras: Vec<(String, String)> = answer
        .used_samples
        .iter()
        .map(|s| ("used_sample".to_string(), s.clone()))
        .collect();
    if tier != ShedTier::None {
        extras.push(("degraded".to_string(), tier.label().to_string()));
    }
    write_frame_body(out, Some(&answer.table), &errors, &extras);
}

/// Serialises the non-answer [`VerdictResponse`] variants — scramble DDL
/// and `SET` acknowledgements — as row-less frames of `S key value` lines.
/// (`SHOW …` and `EXPLAIN` are answers: a table like any query's.)
fn write_response_frame(response: &VerdictResponse, start: Instant, out: &mut String) {
    let header = FrameHeader {
        elapsed_us: start.elapsed().as_micros() as u64,
        ..FrameHeader::default()
    };
    let mut extras: Vec<(String, String)> = vec![("response".to_string(), response.kind().into())];
    match response {
        VerdictResponse::Answer(_) => unreachable!("answers use write_answer_frame"),
        VerdictResponse::ScramblesCreated(metas) => {
            extras.push(("scrambles_created".to_string(), metas.len().to_string()));
            if let [meta] = metas.as_slice() {
                // Single-scramble shorthand keys.
                extras.push(("sample_table".to_string(), meta.sample_table.clone()));
                extras.push(("sample_rows".to_string(), meta.sample_rows.to_string()));
                extras.push(("base_rows".to_string(), meta.base_rows.to_string()));
            }
            for meta in metas {
                extras.push(("scramble".to_string(), meta.sample_table.clone()));
            }
        }
        VerdictResponse::ScramblesDropped(n) => {
            extras.push(("scrambles_dropped".to_string(), n.to_string()));
        }
        VerdictResponse::ScramblesRefreshed(n) => {
            extras.push(("refreshed_samples".to_string(), n.to_string()));
        }
        VerdictResponse::OptionSet { name, value } => {
            extras.push(("option".to_string(), name.clone()));
            extras.push(("value".to_string(), value.clone()));
        }
    }
    write_result_frame(out, &header, None, &[], &extras);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use verdict_core::{VerdictConfig, VerdictContext};
    use verdict_data::{InstacartGenerator, TpchGenerator};
    use verdict_engine::{Backend, Engine};

    /// The 64 dashboard statements: eight shapes, eight parameter values.
    fn dashboard() -> Vec<String> {
        (0..8u32)
            .flat_map(|p| {
                [
                    format!(
                        "SELECT reordered, count(*) AS n, avg(price) AS avg_price \
                         FROM order_products WHERE quantity >= {} AND add_to_cart_order <= {} \
                         GROUP BY reordered ORDER BY reordered",
                        1 + p % 4,
                        2 + p
                    ),
                    format!(
                        "SELECT quantity, sum(price * quantity) AS revenue, count(*) AS n \
                         FROM order_products WHERE price > {} GROUP BY quantity ORDER BY quantity",
                        2 + p
                    ),
                    format!(
                        "SELECT count(*) AS n, avg(price) AS avg_price, sum(price) AS total \
                         FROM order_products WHERE price BETWEEN {p} AND {}",
                        p + 12
                    ),
                    format!(
                        "SELECT order_dow, count(*) AS n, avg(days_since_prior) AS avg_gap \
                         FROM orders WHERE order_hour >= {} GROUP BY order_dow ORDER BY order_dow",
                        p * 2
                    ),
                    format!(
                        "SELECT city, count(*) AS n FROM orders \
                         WHERE order_hour BETWEEN {p} AND {} GROUP BY city ORDER BY city",
                        p + 14
                    ),
                    format!(
                        "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty, \
                         avg(l_extendedprice) AS avg_price, count(*) AS n FROM lineitem \
                         WHERE l_shipdate <= {} GROUP BY l_returnflag, l_linestatus \
                         ORDER BY l_returnflag, l_linestatus",
                        1200 + 150 * p
                    ),
                    format!(
                        "SELECT l_shipmode, sum(l_extendedprice * (1 - l_discount)) AS revenue \
                         FROM lineitem WHERE l_quantity >= {} GROUP BY l_shipmode \
                         ORDER BY l_shipmode",
                        1 + 4 * p
                    ),
                    format!(
                        "SELECT department_id, count(*) AS n, avg(p.price) AS avg_price \
                         FROM order_products p INNER JOIN products pr \
                         ON p.product_id = pr.product_id WHERE p.add_to_cart_order <= {} \
                         GROUP BY department_id ORDER BY department_id",
                        1 + p
                    ),
                ]
            })
            .collect()
    }

    /// A frame with its status line's `elapsed_us` field dropped.
    fn without_elapsed(frame: &str) -> String {
        let (status, body) = frame.split_once('\n').unwrap();
        let status: Vec<&str> = status
            .split(' ')
            .filter(|field| !field.starts_with("elapsed_us="))
            .collect();
        format!("{}\n{body}", status.join(" "))
    }

    #[test]
    fn a_hit_frame_is_the_answer_frame_but_for_its_elapsed_time() {
        let engine = Arc::new(Engine::with_seed(7));
        InstacartGenerator::new(0.05).register(&engine);
        TpchGenerator::new(0.035).register(&engine);
        let config = VerdictConfig {
            min_table_rows: 1_500,
            io_budget: 0.25,
            seed: Some(7),
            include_error_columns: true,
            answer_cache_capacity: 256,
            ..VerdictConfig::default()
        };
        let ctx = Arc::new(VerdictContext::new(engine as Arc<dyn Backend>, config));
        let mut session = VerdictSession::new(ctx);
        for ddl in [
            "CREATE SCRAMBLE s_op FROM order_products METHOD uniform RATIO 0.1",
            "CREATE SCRAMBLE s_o FROM orders METHOD uniform RATIO 0.1",
            "CREATE SCRAMBLE s_li FROM lineitem METHOD uniform RATIO 0.1",
        ] {
            session.execute(ddl).unwrap();
        }
        let mut approximate = 0;
        for sql in dashboard() {
            let computed = session.execute(&sql).unwrap().into_answer().unwrap();
            approximate += usize::from(!computed.exact);
            let mut worker = String::new();
            let stored = VerdictAnswer {
                cached: true,
                ..computed
            };
            write_answer_frame(&stored, None, ShedTier::None, &mut worker);
            // The first hit encodes the body; the second copies it.
            for _ in 0..2 {
                let hit = session.cached_spelling(&sql).expect("a recorded spelling");
                let mut shard = String::new();
                write_hit_frame(&hit, &mut shard);
                assert_eq!(without_elapsed(&shard), without_elapsed(&worker), "{sql}");
                let mut same = String::new();
                write_answer_frame(&hit.into_answer(), None, ShedTier::None, &mut same);
                assert_eq!(shard, same, "{sql}");
            }
        }
        assert!(approximate >= 48, "{approximate} of 64 approximate");
    }
}
