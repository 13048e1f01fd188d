//! The line-based text wire protocol shared by the server and the client.
//!
//! Every request is one UTF-8 line (`\n`-terminated); every response is a
//! *frame*: a status line, zero or more tagged body lines, and a lone `.`
//! terminator line.  The format is deliberately trivial — `nc` is a usable
//! client — while still round-tripping every engine value bit-exactly (see
//! [`escape_field`] / [`format_value`]).
//!
//! ```text
//! request:  SQL SELECT city, avg(price) AS ap FROM orders GROUP BY city
//! response: OK rows=10 cols=2 exact=0 cached=1 elapsed_us=42 rows_scanned=16234
//!           C city<TAB>ap
//!           T VARCHAR<TAB>DOUBLE
//!           R city_0<TAB>49.7212
//!           …
//!           E ap<TAB>0.0132<TAB>0.0489
//!           .
//! ```
//!
//! See `docs/serving.md` for the full command reference and semantics.

use std::fmt::Write as _;
use verdict_engine::{Column, ColumnData, DataType, Table, Value};

/// Terminator line ending every response frame.
pub const FRAME_END: &str = ".";

/// Machine-readable code carried by a typed `ERR` frame (`ERR <CODE>
/// <message>`).  Untyped errors (plain `ERR <message>`) remain legal; old
/// clients simply see the code as the first word of the message, so the
/// extension is backward compatible in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control refused the statement: the run queue is at its
    /// capacity watermark.  Retry later (ideally with backoff).
    Busy,
    /// The statement's `deadline_ms` passed before a complete answer could
    /// be delivered.
    Deadline,
    /// The server is draining: in-flight work finishes, new statements are
    /// refused, the connection closes once its responses are flushed.
    Shutdown,
}

impl ErrorCode {
    /// The wire token for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Busy => "BUSY",
            ErrorCode::Deadline => "DEADLINE",
            ErrorCode::Shutdown => "SHUTDOWN",
        }
    }

    /// Parses a wire token (the first word of an `ERR` payload).
    pub fn parse(token: &str) -> Option<ErrorCode> {
        match token {
            "BUSY" => Some(ErrorCode::Busy),
            "DEADLINE" => Some(ErrorCode::Deadline),
            "SHUTDOWN" => Some(ErrorCode::Shutdown),
            _ => None,
        }
    }
}

/// Splits an `ERR` payload into its typed code (if any) and the
/// human-readable remainder.
pub fn split_error_code(payload: &str) -> (Option<ErrorCode>, &str) {
    match payload.split_once(' ') {
        Some((head, rest)) => match ErrorCode::parse(head) {
            Some(code) => (Some(code), rest),
            None => (None, payload),
        },
        None => (ErrorCode::parse(payload), ""),
    }
}

/// Marker for SQL NULL in a `R` (row) body line.
pub const NULL_FIELD: &str = "\\N";

/// Escapes one tab-separated field: `\` → `\\`, TAB → `\t`, LF → `\n`,
/// CR → `\r`.  The escaping is total (any byte sequence survives) so string
/// values containing separators or newlines round-trip unchanged.
pub fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape_field`], appended to `out`.
fn escape_into(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(at) = rest.find(['\\', '\t', '\n', '\r']) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'\\' => "\\\\",
            b'\t' => "\\t",
            b'\n' => "\\n",
            _ => "\\r",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// Reverses [`escape_field`].
pub fn unescape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => {
                // Unknown escape: keep it verbatim rather than failing the frame.
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// Renders a value for a `R` body line.  Floats use Rust's shortest
/// round-trip rendering, so the client re-parses the *bit-identical* f64;
/// NULL becomes [`NULL_FIELD`].
pub fn format_value(v: &Value) -> String {
    let mut out = String::new();
    match v {
        Value::Null => out.push_str(NULL_FIELD),
        Value::Int(i) => write_int(&mut out, *i),
        Value::Float(f) => write_float(&mut out, *f),
        Value::Str(s) => escape_into(&mut out, s),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
    out
}

/// Appends row `row` of `column` as [`format_value`] renders its value,
/// without materialising the value.
fn write_cell(out: &mut String, column: &Column, row: usize) {
    if !column.is_valid(row) {
        out.push_str(NULL_FIELD);
        return;
    }
    match column.data() {
        ColumnData::Int64(v) => write_int(out, v[row]),
        ColumnData::Float64(v) => write_float(out, v[row]),
        ColumnData::Utf8(v) => escape_into(out, &v[row]),
        ColumnData::Bool(v) => out.push_str(if v[row] { "true" } else { "false" }),
    }
}

fn write_int(out: &mut String, i: i64) {
    let _ = write!(out, "{i}");
}

/// Rust's shortest round-trip rendering, with the non-finite values
/// spelled `NaN`, `inf` and `-inf`.
fn write_float(out: &mut String, f: f64) {
    if f.is_nan() {
        out.push_str("NaN");
    } else if f == f64::INFINITY {
        out.push_str("inf");
    } else if f == f64::NEG_INFINITY {
        out.push_str("-inf");
    } else {
        let _ = write!(out, "{f}");
    }
}

/// Parses a `R` body field back into a value of the given column type.
pub fn parse_value(field: &str, data_type: DataType) -> Value {
    if field == NULL_FIELD {
        return Value::Null;
    }
    match data_type {
        DataType::Int => field.parse::<i64>().map(Value::Int).unwrap_or(Value::Null),
        DataType::Float => field
            .parse::<f64>()
            .map(Value::Float)
            .unwrap_or(Value::Null),
        DataType::Bool => field
            .parse::<bool>()
            .map(Value::Bool)
            .unwrap_or(Value::Null),
        DataType::Str => Value::Str(unescape_field(field)),
    }
}

/// Renders a wire type tag for a schema field.
pub fn type_tag(dt: DataType) -> &'static str {
    match dt {
        DataType::Int => "BIGINT",
        DataType::Float => "DOUBLE",
        DataType::Str => "VARCHAR",
        DataType::Bool => "BOOLEAN",
    }
}

/// Parses a wire type tag back into a [`DataType`] (defaults to `Str` for
/// unknown tags, which at worst loses numeric typing, never data).
pub fn parse_type_tag(tag: &str) -> DataType {
    match tag {
        "BIGINT" => DataType::Int,
        "DOUBLE" => DataType::Float,
        "BOOLEAN" => DataType::Bool,
        _ => DataType::Str,
    }
}

/// Summary values carried on the `OK` status line of a result frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameHeader {
    /// Number of `R` rows that follow.
    pub rows: usize,
    /// Number of columns per row.
    pub cols: usize,
    /// 1 when the answer was computed exactly on the base tables.
    pub exact: bool,
    /// 1 when the answer was served from the approximate-answer cache.
    pub cached: bool,
    /// Server-side wall-clock for the request, in microseconds.
    pub elapsed_us: u64,
    /// Base/sample rows scanned by the underlying database.
    pub rows_scanned: u64,
    /// Load-shedding level the statement ran under (`0` = unshedded; see
    /// [`verdict_core::shed::ShedTier::level`]).  Non-zero values mark a
    /// `DEGRADED` answer: admission control relaxed the accuracy contract
    /// to keep the server responsive.  Serialised as `shed=<n>` only when
    /// non-zero, so unshedded frames are byte-identical to the old format.
    pub degraded: u8,
}

impl FrameHeader {
    fn write_fields(&self, out: &mut String) {
        let _ = write!(
            out,
            "rows={} cols={} exact={} cached={} elapsed_us={} rows_scanned={}",
            self.rows,
            self.cols,
            self.exact as u8,
            self.cached as u8,
            self.elapsed_us,
            self.rows_scanned
        );
        if self.degraded > 0 {
            let _ = write!(out, " shed={}", self.degraded);
        }
    }

    /// Renders the `OK …` status line.
    pub fn status_line(&self) -> String {
        let mut line = String::new();
        self.write_status(&mut line);
        line.pop();
        line
    }

    /// Appends the `OK …` status line and its line break: what precedes a
    /// frame body ([`write_frame_body`]).
    pub fn write_status(&self, out: &mut String) {
        out.push_str("OK ");
        self.write_fields(out);
        out.push('\n');
    }

    /// Parses the `key=value` tail shared by `OK` and `FRAME` status lines
    /// (missing keys default to zero, unknown keys are skipped).
    fn parse_tail(rest: &str) -> Option<FrameHeader> {
        let mut header = FrameHeader::default();
        for kv in rest.split_whitespace() {
            let (key, value) = kv.split_once('=')?;
            match key {
                "rows" => header.rows = value.parse().ok()?,
                "cols" => header.cols = value.parse().ok()?,
                "exact" => header.exact = value == "1",
                "cached" => header.cached = value == "1",
                "elapsed_us" => header.elapsed_us = value.parse().ok()?,
                "rows_scanned" => header.rows_scanned = value.parse().ok()?,
                "shed" => header.degraded = value.parse().ok()?,
                _ => {}
            }
        }
        Some(header)
    }

    /// Parses an `OK …` status line (missing keys default to zero).
    pub fn parse(line: &str) -> Option<FrameHeader> {
        Self::parse_tail(line.strip_prefix("OK")?)
    }
}

/// Status-line metadata of one progressive frame (`FRAME …`), carried in
/// addition to the regular [`FrameHeader`] fields.
///
/// A `SQL STREAM <query>` request is answered by a *sequence* of result frames,
/// each introduced by a `FRAME …` status line (same body format as an `OK`
/// frame: `C`/`T`/`R`/`E`/`S` lines and a `.` terminator), followed by one
/// closing mini-frame whose status line is `DONE frames=<n>`:
///
/// ```text
/// request:  SQL STREAM SELECT city, avg(price) AS ap FROM orders GROUP BY city
/// response: FRAME rows=10 cols=2 … frame=1 rows_seen=65536 total_rows=983040 fraction=0.066667 last=0
///           C city<TAB>ap
///           …
///           .
///           FRAME … frame=2 … last=1
///           …
///           .
///           DONE frames=2
///           .
/// ```
///
/// Only a `STREAM` statement elicits a multi-frame response; every other
/// statement answers with one `OK` or `ERR` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamFrameHeader {
    /// The regular result-frame header.
    pub base: FrameHeader,
    /// 1-based frame number within the stream.
    pub frame: usize,
    /// Scramble rows consumed when the frame was assembled.
    pub rows_seen: u64,
    /// Scramble rows a run to completion would consume.
    pub total_rows: u64,
    /// `rows_seen / total_rows` (1.0 for completed / single-frame streams).
    pub fraction: f64,
    /// True on the stream's final frame.
    pub last: bool,
    /// True when the stream stopped early because the session's
    /// `target_error` was met before the scramble was exhausted.
    pub early_stopped: bool,
}

impl StreamFrameHeader {
    /// Renders the `FRAME …` status line.
    pub fn status_line(&self) -> String {
        let mut line = String::new();
        self.write_status(&mut line);
        line.pop();
        line
    }

    /// Appends the `FRAME …` status line and its line break: what precedes
    /// a frame body ([`write_frame_body`]).
    pub fn write_status(&self, out: &mut String) {
        out.push_str("FRAME ");
        self.base.write_fields(out);
        let _ = writeln!(
            out,
            " frame={} rows_seen={} total_rows={} fraction={:.6} last={} early_stop={}",
            self.frame,
            self.rows_seen,
            self.total_rows,
            self.fraction,
            self.last as u8,
            self.early_stopped as u8,
        );
    }

    /// Parses a `FRAME …` status line.
    pub fn parse(line: &str) -> Option<StreamFrameHeader> {
        let rest = line.strip_prefix("FRAME")?;
        let mut header = StreamFrameHeader {
            base: FrameHeader::parse_tail(rest)?,
            ..StreamFrameHeader::default()
        };
        for kv in rest.split_whitespace() {
            let (key, value) = kv.split_once('=')?;
            match key {
                "frame" => header.frame = value.parse().ok()?,
                "rows_seen" => header.rows_seen = value.parse().ok()?,
                "total_rows" => header.total_rows = value.parse().ok()?,
                "fraction" => header.fraction = value.parse().ok()?,
                "last" => header.last = value == "1",
                "early_stop" => header.early_stopped = value == "1",
                _ => {}
            }
        }
        Some(header)
    }
}

/// Renders the `DONE frames=<n>` mini-frame closing a stream response.
pub fn write_stream_done(out: &mut String, frames: usize) {
    let _ = writeln!(out, "DONE frames={frames}");
    out.push_str(FRAME_END);
    out.push('\n');
}

/// Parses a `DONE frames=<n>` status line.
pub fn parse_stream_done(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("DONE")?;
    for kv in rest.split_whitespace() {
        if let Some(("frames", value)) = kv.split_once('=') {
            return value.parse().ok();
        }
    }
    Some(0)
}

/// Serialises a full result frame (status, `C`/`T`/`R`/`E`/`S` body lines,
/// terminator) into `out`.  `extras` carries `S key value` informational
/// lines (cache stats, sample names, …).
pub fn write_result_frame(
    out: &mut String,
    header: &FrameHeader,
    table: Option<&Table>,
    errors: &[(String, f64, f64)],
    extras: &[(String, String)],
) {
    header.write_status(out);
    write_frame_body(out, table, errors, extras);
}

/// Appends everything of a frame after its status line: the `C`/`T`/`R`
/// lines of `table`, one `E` line per error summary, one `S key value` line
/// per extra, and the terminator.  Cells are written straight from the
/// column vectors.
pub fn write_frame_body(
    out: &mut String,
    table: Option<&Table>,
    errors: &[(String, f64, f64)],
    extras: &[(String, String)],
) {
    if let Some(table) = table.filter(|t| !t.schema.fields.is_empty()) {
        // A tag, then the line's fields separated by tabs.
        let sep = |col: usize| if col == 0 { ' ' } else { '\t' };
        out.push('C');
        for (col, field) in table.schema.fields.iter().enumerate() {
            out.push(sep(col));
            escape_into(out, &field.name);
        }
        out.push_str("\nT");
        for (col, field) in table.schema.fields.iter().enumerate() {
            out.push(sep(col));
            out.push_str(type_tag(field.data_type));
        }
        out.push('\n');
        for row in 0..table.num_rows() {
            out.push('R');
            for (col, column) in table.columns.iter().enumerate() {
                out.push(sep(col));
                write_cell(out, column, row);
            }
            out.push('\n');
        }
    }
    for (column, mean_rel, max_rel) in errors {
        out.push_str("E ");
        escape_into(out, column);
        let _ = writeln!(out, "\t{mean_rel}\t{max_rel}");
    }
    for (key, value) in extras {
        out.push_str("S ");
        escape_into(out, key);
        out.push(' ');
        escape_into(out, value);
        out.push('\n');
    }
    out.push_str(FRAME_END);
    out.push('\n');
}

/// Serialises an error frame.
pub fn write_error_frame(out: &mut String, message: &str) {
    let _ = writeln!(out, "ERR {}", escape_field(message));
    out.push_str(FRAME_END);
    out.push('\n');
}

/// Serialises a typed error frame (`ERR <CODE> <message>`).
pub fn write_coded_error_frame(out: &mut String, code: ErrorCode, message: &str) {
    write_error_frame(out, &format!("{} {message}", code.as_str()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrips_awkward_strings() {
        for s in [
            "plain",
            "tab\there",
            "line\nbreak",
            "back\\slash",
            "\\N",
            "",
        ] {
            assert_eq!(unescape_field(&escape_field(s)), s);
        }
    }

    #[test]
    fn float_values_roundtrip_bit_exactly() {
        for f in [
            0.1,
            -0.0,
            std::f64::consts::PI,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let wire = format_value(&Value::Float(f));
            match parse_value(&wire, DataType::Float) {
                Value::Float(back) => assert_eq!(back.to_bits(), f.to_bits(), "for {f}"),
                other => panic!("expected float, got {other:?}"),
            }
        }
        // NaN round-trips as NaN (bit pattern of parsed NaN is canonical).
        assert!(matches!(
            parse_value(&format_value(&Value::Float(f64::NAN)), DataType::Float),
            Value::Float(f) if f.is_nan()
        ));
    }

    #[test]
    fn null_marker_roundtrips() {
        assert_eq!(format_value(&Value::Null), "\\N");
        assert_eq!(parse_value("\\N", DataType::Int), Value::Null);
        // A *string* that happens to be "\N" is escaped, so it stays a string.
        let tricky = Value::Str("\\N".into());
        let wire = format_value(&tricky);
        assert_ne!(wire, "\\N");
        assert_eq!(parse_value(&wire, DataType::Str), tricky);
    }

    #[test]
    fn stream_header_and_done_roundtrip() {
        let h = StreamFrameHeader {
            base: FrameHeader {
                rows: 3,
                cols: 2,
                exact: false,
                cached: false,
                elapsed_us: 99,
                rows_scanned: 65_536,
                degraded: 0,
            },
            frame: 4,
            rows_seen: 65_536,
            total_rows: 983_040,
            fraction: 65_536.0 / 983_040.0,
            last: false,
            early_stopped: false,
        };
        let parsed = StreamFrameHeader::parse(&h.status_line()).unwrap();
        assert_eq!(parsed.frame, 4);
        assert_eq!(parsed.rows_seen, 65_536);
        assert_eq!(parsed.total_rows, 983_040);
        assert!(!parsed.last && !parsed.early_stopped);
        assert!((parsed.fraction - h.fraction).abs() < 1e-6);
        assert_eq!(parsed.base.rows, 3);
        assert!(StreamFrameHeader::parse("OK rows=1").is_none());

        let mut out = String::new();
        write_stream_done(&mut out, 7);
        let mut lines = out.lines();
        assert_eq!(parse_stream_done(lines.next().unwrap()), Some(7));
        assert_eq!(lines.next().unwrap(), FRAME_END);
        assert_eq!(parse_stream_done("DONE"), Some(0));
        assert_eq!(parse_stream_done("OK rows=1"), None);
    }

    /// The field escaping as it was written before it appended in place:
    /// one `char` at a time.
    fn reference_escape(s: &str) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '\t' => out.push_str("\\t"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                _ => out.push(c),
            }
        }
        out
    }

    /// The cell rendering as it was written before cells were written in
    /// place: one materialised value, one `String`.
    fn reference_value(v: &Value) -> String {
        match v {
            Value::Null => NULL_FIELD.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) if f.is_nan() => "NaN".to_string(),
            Value::Float(f) if *f == f64::INFINITY => "inf".to_string(),
            Value::Float(f) if *f == f64::NEG_INFINITY => "-inf".to_string(),
            Value::Float(f) => format!("{f}"),
            Value::Str(s) => reference_escape(s),
            Value::Bool(b) => b.to_string(),
        }
    }

    /// The frame body as it was built before cells were written in place:
    /// one materialised value and one `String` per cell.
    fn reference_body(
        table: &Table,
        errors: &[(String, f64, f64)],
        extras: &[(String, String)],
    ) -> String {
        let mut out = String::new();
        let names: Vec<String> = table
            .schema
            .fields
            .iter()
            .map(|f| reference_escape(&f.name))
            .collect();
        let _ = writeln!(out, "C {}", names.join("\t"));
        let tags: Vec<&str> = table
            .schema
            .fields
            .iter()
            .map(|f| type_tag(f.data_type))
            .collect();
        let _ = writeln!(out, "T {}", tags.join("\t"));
        for row in 0..table.num_rows() {
            let fields: Vec<String> = (0..table.schema.fields.len())
                .map(|col| reference_value(&table.value_at(row, col)))
                .collect();
            let _ = writeln!(out, "R {}", fields.join("\t"));
        }
        for (column, mean_rel, max_rel) in errors {
            let column = reference_escape(column);
            let _ = writeln!(out, "E {column}\t{mean_rel}\t{max_rel}");
        }
        for (key, value) in extras {
            let _ = writeln!(
                out,
                "S {} {}",
                reference_escape(key),
                reference_escape(value)
            );
        }
        out.push_str(FRAME_END);
        out.push('\n');
        out
    }

    #[test]
    fn cells_written_in_place_match_their_materialised_values() {
        use verdict_engine::TableBuilder;
        let table = TableBuilder::new()
            .opt_int_column("i", vec![Some(-3), None, Some(i64::MAX), Some(0)])
            .opt_float_column(
                "f\tx",
                vec![Some(0.1), Some(f64::NAN), None, Some(f64::NEG_INFINITY)],
            )
            .opt_str_column(
                "s",
                vec![
                    Some("tab\there".into()),
                    Some("\\N".into()),
                    None,
                    Some("line\nbreak\r\\".into()),
                ],
            )
            .column(
                "b",
                verdict_engine::Column::from_opt_bool(vec![Some(true), None, Some(false), None]),
            )
            .build()
            .unwrap();
        let errors = vec![("f\tx".to_string(), 0.012, 1.0 / 3.0)];
        let extras = vec![("k\tey".to_string(), "v\\al".to_string())];
        let mut body = String::new();
        write_frame_body(&mut body, Some(&table), &errors, &extras);
        assert_eq!(body, reference_body(&table, &errors, &extras));
        for cell in [
            Value::Float(1e-7),
            Value::Float(-0.0),
            Value::Int(i64::MIN),
            Value::Str("\r\t\n\\".into()),
        ] {
            assert_eq!(format_value(&cell), reference_value(&cell));
        }
    }

    #[test]
    fn header_roundtrips() {
        let h = FrameHeader {
            rows: 12,
            cols: 3,
            exact: false,
            cached: true,
            elapsed_us: 512,
            rows_scanned: 10_000,
            degraded: 0,
        };
        assert_eq!(FrameHeader::parse(&h.status_line()), Some(h));
        assert_eq!(FrameHeader::parse("garbage"), None);
    }

    #[test]
    fn degraded_header_roundtrips_and_stays_out_of_clean_frames() {
        let clean = FrameHeader::default();
        assert!(!clean.status_line().contains("shed="));

        let shed = FrameHeader {
            degraded: 2,
            ..FrameHeader::default()
        };
        let line = shed.status_line();
        assert!(line.contains("shed=2"), "{line}");
        assert_eq!(FrameHeader::parse(&line), Some(shed));
    }

    #[test]
    fn error_codes_roundtrip() {
        let mut out = String::new();
        write_coded_error_frame(&mut out, ErrorCode::Busy, "queue full (64)");
        let payload = unescape_field(out.lines().next().unwrap().strip_prefix("ERR ").unwrap());
        let (code, rest) = split_error_code(&payload);
        assert_eq!(code, Some(ErrorCode::Busy));
        assert_eq!(rest, "queue full (64)");

        // Untyped errors keep their full message.
        let (code, rest) = split_error_code("no such table t");
        assert_eq!(code, None);
        assert_eq!(rest, "no such table t");
        assert_eq!(
            split_error_code("DEADLINE"),
            (Some(ErrorCode::Deadline), "")
        );
    }
}
