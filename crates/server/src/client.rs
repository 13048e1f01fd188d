//! Blocking TCP client for the VerdictDB wire protocol.
//!
//! One [`VerdictClient`] is one protocol *session*: a dedicated connection
//! whose requests are answered in order.  Many clients may be connected at
//! once; the server multiplexes them on its I/O shards over the shared
//! engine.
//!
//! Server-side admission control surfaces here as typed errors: a refused
//! statement is [`ClientError::Busy`], a missed `deadline_ms` is
//! [`ClientError::Deadline`].  A dead or vanished server is
//! [`ClientError::Disconnected`] — and with [`VerdictClient::set_read_timeout`]
//! a server that stops responding mid-frame becomes
//! [`ClientError::TimedOut`] instead of a forever-blocked read.

use crate::protocol::{
    parse_stream_done, parse_type_tag, parse_value, split_error_code, unescape_field, ErrorCode,
    FrameHeader, StreamFrameHeader, FRAME_END, NULL_FIELD,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use verdict_engine::{DataType, Value};

/// A parsed response frame.
#[derive(Debug, Clone, Default)]
pub struct RemoteAnswer {
    /// Status-line header (row/column counts, exact/cached flags, timings).
    pub header: FrameHeader,
    /// Column names (empty for row-less frames).
    pub columns: Vec<String>,
    /// Column types, parallel to `columns`.
    pub types: Vec<DataType>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Per-aggregate error summaries: `(column, mean_rel, max_rel)`.
    pub errors: Vec<(String, f64, f64)>,
    /// Informational `S key value` lines (samples used, scramble DDL and
    /// `SET` acknowledgements, …).
    pub extras: Vec<(String, String)>,
}

impl RemoteAnswer {
    /// Looks up an `S` line by key.
    pub fn extra(&self, key: &str) -> Option<&str> {
        self.extras
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The `value` of the row whose `stat` is `name`, in an answer over
    /// `verdict_stats` (`SHOW STATS`).
    pub fn stat(&self, name: &str) -> Option<i64> {
        let column = |c: &str| self.columns.iter().position(|n| n == c);
        let (stat, value) = (column("stat")?, column("value")?);
        let row = self
            .rows
            .iter()
            .find(|r| matches!(r.get(stat), Some(Value::Str(s)) if s == name))?;
        row.get(value)?.as_i64()
    }

    /// The value at (row, col).
    pub fn value(&self, row: usize, col: usize) -> &Value {
        &self.rows[row][col]
    }
}

/// One frame of a `SQL STREAM …` response: a regular answer plus the
/// stream position metadata from the `FRAME …` status line.
#[derive(Debug, Clone, Default)]
pub struct StreamFrame {
    /// The answer for the scramble prefix seen so far (rows, types, error
    /// summaries — same shape as a one-shot [`RemoteAnswer`]).
    pub answer: RemoteAnswer,
    /// 1-based frame number.
    pub frame: usize,
    /// Scramble rows consumed when the frame was assembled.
    pub rows_seen: u64,
    /// Scramble rows a run to completion would consume.
    pub total_rows: u64,
    /// `rows_seen / total_rows` (1.0 on completed / single-frame streams).
    pub fraction: f64,
    /// True on the stream's final frame.
    pub last: bool,
    /// True when the stream stopped early at the session's `target_error`.
    pub early_stopped: bool,
}

/// Error from a client call: transport failure, a malformed frame, or an
/// `ERR` frame from the server (typed refusals get their own variants).
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent an unparseable frame.
    Protocol(String),
    /// The server answered with an untyped `ERR` frame.
    Server(String),
    /// Admission control refused the statement (`ERR BUSY …`): the server's
    /// run queue is at capacity.  Retry with backoff.
    Busy(String),
    /// The statement's `deadline_ms` passed before a complete answer could
    /// be delivered (`ERR DEADLINE …`).
    Deadline(String),
    /// The server closed the connection (graceful close, crash, or a drain
    /// finishing).  The session is gone; reconnect to continue.
    Disconnected(String),
    /// No bytes arrived within the configured read timeout (see
    /// [`VerdictClient::set_read_timeout`]).  The connection may be
    /// mid-frame and is no longer usable for further requests.
    TimedOut(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Busy(m) => write!(f, "server busy: {m}"),
            ClientError::Deadline(m) => write!(f, "deadline exceeded: {m}"),
            ClientError::Disconnected(m) => write!(f, "disconnected: {m}"),
            ClientError::TimedOut(m) => write!(f, "timed out: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// Why a multi-line request cannot be safely collapsed to one line, or
/// `None` when collapsing preserves its meaning.  The scan tracks the three
/// quote forms the lexer accepts (`'…'` literals, `"…"` and `` `…` ``
/// identifiers; doubling the active quote is the escape form, which the
/// toggle handles naturally) and `--` line comments, whose extent *depends
/// on the line breaks* being collapsed.
fn multiline_collapse_hazard(s: &str) -> Option<&'static str> {
    let mut quote: Option<char> = None;
    let mut prev = '\0';
    for c in s.chars() {
        match (quote, c) {
            (None, '\'' | '"' | '`') => quote = Some(c),
            (None, '-') if prev == '-' => {
                return Some("it contains a `--` line comment, whose extent would change");
            }
            (Some(q), _) if c == q => quote = None,
            (Some(_), '\n' | '\r') => {
                return Some("it contains a line break inside a quoted string or identifier");
            }
            _ => {}
        }
        prev = c;
    }
    None
}

/// One protocol session over a TCP connection.
pub struct VerdictClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl VerdictClient {
    /// Connects to a running server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> ClientResult<VerdictClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(VerdictClient {
            reader,
            writer: stream,
        })
    }

    /// Executes one SQL statement on the connection's server-side session
    /// (`SQL` command) — the whole VerdictDB surface: queries, `CREATE
    /// SCRAMBLE …`, `DROP SCRAMBLE[S] …`, `REFRESH SCRAMBLE[S] …`,
    /// `SHOW SCRAMBLES`, `SHOW STATS`, `BYPASS <stmt>`, and `SET <option> =
    /// <value>` (session-scoped: options persist for this connection).  A
    /// `STREAM <query>` statement answers with its last frame's answer.
    pub fn sql(&mut self, statement: &str) -> ClientResult<RemoteAnswer> {
        self.sql_with(statement, |_| {})
    }

    /// [`Self::sql`], invoking `on_frame` for every frame of a `STREAM
    /// <query>` statement **as it is read off the socket** (any other
    /// statement has none), and returning its one answer.
    pub fn sql_with(
        &mut self,
        statement: &str,
        mut on_frame: impl FnMut(&StreamFrame),
    ) -> ClientResult<RemoteAnswer> {
        self.send_line(&format!("SQL {statement}"))?;
        self.read_response(&mut on_frame)
    }

    /// Round-trip liveness check (`PING`).  Answered on the server's I/O
    /// shards directly, so it succeeds even when the run queue is full.
    pub fn ping(&mut self) -> ClientResult<()> {
        self.request("PING").map(|_| ())
    }

    /// Asks the server to drain gracefully (`SHUTDOWN`): stop accepting,
    /// finish in-flight statements, flush responses, then close.  The
    /// acknowledgement frame arrives before the drain completes.
    pub fn shutdown_server(&mut self) -> ClientResult<RemoteAnswer> {
        self.request("SHUTDOWN")
    }

    /// Bounds every read on this connection: when the server produces no
    /// bytes for `timeout`, calls fail with [`ClientError::TimedOut`]
    /// instead of blocking forever on a dead or wedged server.  `None`
    /// restores unbounded blocking reads.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> ClientResult<()> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Ends the session gracefully (`QUIT`).
    pub fn quit(mut self) -> ClientResult<()> {
        self.request("QUIT").map(|_| ())
    }

    /// Sends one request line and reads its response: one frame, or the
    /// last frame's answer of a stream.
    ///
    /// The protocol is strictly one line per request, so embedded line
    /// breaks (legal in SQL, fatal to the framing) are collapsed to spaces —
    /// otherwise the server would treat the text as several requests and
    /// every later response on this session would answer the wrong call.
    /// Two constructs cannot be collapsed without changing the query's
    /// meaning and are rejected loudly instead: a line break inside a quoted
    /// string/identifier, and a `--` line comment (collapsing would swallow
    /// the rest of the statement into the comment).
    pub fn request(&mut self, line: &str) -> ClientResult<RemoteAnswer> {
        self.send_line(line)?;
        self.read_response(&mut |_| {})
    }

    /// Runs a query as a progressive stream (`SQL STREAM <query>`),
    /// returning every frame; the last one carries the final answer.  See
    /// [`Self::stream_with`] to observe frames as they arrive.
    pub fn stream(&mut self, query: &str) -> ClientResult<Vec<StreamFrame>> {
        self.stream_with(query, |_| {})
    }

    /// Runs a query as a progressive stream (`SQL STREAM <query>`), invoking
    /// `on_frame` for every frame as it is read off the socket — the
    /// estimate±CI refines in real time — and returning the full frame list
    /// once the server's `DONE` arrives.
    pub fn stream_with(
        &mut self,
        query: &str,
        mut on_frame: impl FnMut(&StreamFrame),
    ) -> ClientResult<Vec<StreamFrame>> {
        let mut frames = Vec::new();
        self.sql_with(&format!("STREAM {query}"), |frame| {
            on_frame(frame);
            frames.push(frame.clone());
        })?;
        Ok(frames)
    }

    /// Sends one request line, collapsing embedded line breaks (see
    /// [`Self::request`] for why, and when collapsing is refused).
    fn send_line(&mut self, line: &str) -> ClientResult<()> {
        let line = if line.contains(['\n', '\r']) {
            if let Some(reason) = multiline_collapse_hazard(line) {
                return Err(ClientError::Protocol(format!(
                    "multi-line request cannot be sent over the line-based protocol: {reason}"
                )));
            }
            std::borrow::Cow::Owned(line.replace(['\n', '\r'], " "))
        } else {
            std::borrow::Cow::Borrowed(line)
        };
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads and discards body lines up to the frame terminator.
    fn drain_frame(&mut self) -> ClientResult<()> {
        loop {
            if self.read_line()? == FRAME_END {
                return Ok(());
            }
        }
    }

    fn read_line(&mut self) -> ClientResult<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).map_err(|e| {
            match e.kind() {
                // A read timeout (set via `set_read_timeout`) surfaces as
                // WouldBlock or TimedOut depending on the platform.
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    ClientError::TimedOut("no response within the read timeout".into())
                }
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe => {
                    ClientError::Disconnected(format!("connection lost: {e}"))
                }
                _ => ClientError::Io(e),
            }
        })?;
        if n == 0 {
            return Err(ClientError::Disconnected(
                "server closed the connection".into(),
            ));
        }
        while line.ends_with(['\n', '\r']) {
            line.pop();
        }
        Ok(line)
    }

    /// Maps an `ERR` payload onto the matching error variant: typed `BUSY`
    /// and `DEADLINE` refusals get their own variants, everything else
    /// (including `SHUTDOWN`, which callers usually treat as a disconnect
    /// about to happen) stays a [`ClientError::Server`].
    fn server_error(payload: &str) -> ClientError {
        let message = unescape_field(payload);
        match split_error_code(&message) {
            (Some(ErrorCode::Busy), rest) => ClientError::Busy(rest.to_string()),
            (Some(ErrorCode::Deadline), rest) => ClientError::Deadline(rest.to_string()),
            _ => ClientError::Server(message),
        }
    }

    /// Reads one response — an `OK` frame, an `ERR` frame, or a stream's
    /// `FRAME …` frames closed by `DONE` — calling `on_frame` on each stream
    /// frame.  Returns the `OK` answer or the stream's last frame's answer.
    fn read_response(
        &mut self,
        on_frame: &mut dyn FnMut(&StreamFrame),
    ) -> ClientResult<RemoteAnswer> {
        let mut last = None;
        loop {
            let status = self.read_line()?;
            if let Some(msg) = status.strip_prefix("ERR ") {
                // Drain the terminator before reporting, keeping the stream
                // in sync.
                self.drain_frame()?;
                return Err(Self::server_error(msg));
            }
            if let Some(header) = FrameHeader::parse(&status) {
                return self.read_frame_body(header);
            }
            if parse_stream_done(&status).is_some() {
                self.drain_frame()?;
                return last
                    .ok_or_else(|| ClientError::Protocol("stream ended without a frame".into()));
            }
            let header = StreamFrameHeader::parse(&status)
                .ok_or_else(|| ClientError::Protocol(format!("bad status line: {status}")))?;
            let frame = StreamFrame {
                answer: self.read_frame_body(header.base)?,
                frame: header.frame,
                rows_seen: header.rows_seen,
                total_rows: header.total_rows,
                fraction: header.fraction,
                last: header.last,
                early_stopped: header.early_stopped,
            };
            on_frame(&frame);
            last = Some(frame.answer);
        }
    }

    /// Reads the `C`/`T`/`R`/`E`/`S` body lines of one frame up to the
    /// terminator, under an already-parsed status header.
    fn read_frame_body(&mut self, header: FrameHeader) -> ClientResult<RemoteAnswer> {
        let mut answer = RemoteAnswer {
            header,
            ..RemoteAnswer::default()
        };
        loop {
            let line = self.read_line()?;
            if line == FRAME_END {
                break;
            }
            let (tag, body) = match line.split_once(' ') {
                Some((t, b)) => (t, b),
                None => (line.as_str(), ""),
            };
            match tag {
                "C" => {
                    answer.columns = body.split('\t').map(unescape_field).collect();
                }
                "T" => {
                    answer.types = body.split('\t').map(parse_type_tag).collect();
                }
                "R" => {
                    let row: Vec<Value> = body
                        .split('\t')
                        .enumerate()
                        .map(|(i, field)| {
                            let dt = answer.types.get(i).copied().unwrap_or(DataType::Str);
                            parse_value(field, dt)
                        })
                        .collect();
                    answer.rows.push(row);
                }
                "E" => {
                    let mut parts = body.split('\t');
                    let column = unescape_field(parts.next().unwrap_or(NULL_FIELD));
                    let mean_rel = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(f64::NAN);
                    let max_rel = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(f64::NAN);
                    answer.errors.push((column, mean_rel, max_rel));
                }
                "S" => {
                    let (k, v) = body.split_once(' ').unwrap_or((body, ""));
                    answer.extras.push((unescape_field(k), unescape_field(v)));
                }
                other => {
                    return Err(ClientError::Protocol(format!("unknown frame tag {other}")));
                }
            }
        }
        Ok(answer)
    }
}
