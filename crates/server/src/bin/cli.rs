//! `verdict-cli` — interactive SQL shell / one-shot client for a running
//! `verdict-server`.
//!
//! ```text
//! verdict-cli [--addr HOST:PORT] [SQL…]
//! ```
//!
//! With SQL arguments, runs each as one statement and exits.  Without, it
//! behaves like a database shell: statements may span multiple lines and are
//! sent when a line ends with `;`.  Everything is SQL — queries,
//! `CREATE SCRAMBLE … FROM …`, `SHOW SCRAMBLES`, `SHOW STATS`,
//! `BYPASS <stmt>`, `SET <option> = <value>`, `REFRESH SCRAMBLES …`,
//! `DROP SCRAMBLE[S] …`, `EXPLAIN [ANALYZE] <stmt>`, `SHOW PROFILE
//! [LAST n]`, `SHOW METRICS`.  `\q` (or `^D`) quits; `\?` prints help.
//! Result tables (including `SHOW` listings) are rendered column-aligned.

use std::io::{IsTerminal, Write};
use verdict_server::{ClientError, RemoteAnswer, StreamFrame, VerdictClient};

/// Renders a result table column-aligned: each column as wide as its widest
/// cell (or header), numbers as sent by the server.
fn print_table(answer: &RemoteAnswer) {
    if answer.columns.is_empty() {
        return;
    }
    let mut widths: Vec<usize> = answer.columns.iter().map(|c| c.len()).collect();
    let rendered: Vec<Vec<String>> = answer
        .rows
        .iter()
        .map(|row| row.iter().map(|v| v.to_string()).collect())
        .collect();
    for row in &rendered {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", padded.join("  ").trim_end());
    };
    line(&answer.columns);
    line(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<String>>(),
    );
    for row in &rendered {
        line(row);
    }
}

fn print_answer(answer: &RemoteAnswer) {
    let h = &answer.header;
    print_table(answer);
    for (column, mean_rel, max_rel) in &answer.errors {
        println!("-- {column}: mean rel err {mean_rel:.4}, max rel err {max_rel:.4}");
    }
    for (key, value) in &answer.extras {
        println!("-- {key}: {value}");
    }
    println!(
        "-- {} row(s), {}{} in {} µs, {} rows scanned",
        h.rows,
        if h.exact { "exact" } else { "approximate" },
        if h.cached { " (cached)" } else { "" },
        h.elapsed_us,
        h.rows_scanned
    );
}

/// One-line summary of an intermediate frame: progress plus `est±err` for
/// single-row answers (the common global-aggregate case), or the group
/// count and worst relative error otherwise.
fn frame_summary(frame: &StreamFrame) -> String {
    let mut line = format!(
        "frame {:>3}  {:>5.1}%  {}/{} rows",
        frame.frame,
        100.0 * frame.fraction,
        frame.rows_seen,
        frame.total_rows
    );
    if frame.answer.rows.len() == 1 {
        for (i, name) in frame.answer.columns.iter().enumerate() {
            if name.ends_with("_err") {
                continue;
            }
            if let Some(v) = frame.answer.value(0, i).as_f64() {
                let err = frame
                    .answer
                    .columns
                    .iter()
                    .position(|c| c == &format!("{name}_err"))
                    .and_then(|j| frame.answer.value(0, j).as_f64());
                match err {
                    Some(e) => line.push_str(&format!("  {name}={v:.4}±{e:.4}")),
                    None => line.push_str(&format!("  {name}={v:.4}")),
                }
            }
        }
    } else {
        line.push_str(&format!("  {} group(s)", frame.answer.rows.len()));
    }
    if let Some((_, _, max_rel)) = frame.answer.errors.first() {
        line.push_str(&format!("  (max rel err {:.2}%)", 100.0 * max_rel));
    }
    line
}

/// Runs one statement and prints its answer.  A `STREAM …` statement's
/// intermediate frames render as a live-updating line (in place on a
/// terminal, one line each otherwise) as they arrive, and its final frame
/// as the answer's table.
fn run(client: &mut VerdictClient, sql: &str) -> Result<(), ClientError> {
    let live = std::io::stdout().is_terminal();
    // Frames seen, and the last one's early stop and scramble fraction.
    let (mut frames, mut early_stopped, mut fraction) = (0usize, false, 1.0);
    let answer = client.sql_with(sql, |frame| {
        (frames, early_stopped, fraction) = (frames + 1, frame.early_stopped, frame.fraction);
        if frame.last {
            if live {
                print!("\r\x1b[2K");
                let _ = std::io::stdout().flush();
            }
        } else if live {
            print!("\r\x1b[2K~ {}", frame_summary(frame));
            let _ = std::io::stdout().flush();
        } else {
            println!("~ {}", frame_summary(frame));
        }
    })?;
    print_answer(&answer);
    if frames > 0 {
        println!(
            "-- {frames} frame(s){}{}",
            if early_stopped {
                ", stopped early at the target error"
            } else {
                ""
            },
            if fraction < 1.0 {
                format!(" after {:.1}% of the scramble", 100.0 * fraction)
            } else {
                String::new()
            }
        );
    }
    Ok(())
}

/// True when the buffered text is a complete statement: it ends with `;`
/// *outside* any quoted string or identifier.  The scan tracks the three
/// quote forms the lexer accepts (`'…'`, `"…"`, `` `…` ``; doubling the
/// active quote is the escape form, which the toggle handles naturally), so
/// a `;` ending a line inside an unterminated literal keeps buffering
/// instead of sending half a statement.
fn statement_complete(buffer: &str) -> bool {
    let mut quote: Option<char> = None;
    for c in buffer.chars() {
        match quote {
            None if matches!(c, '\'' | '"' | '`') => quote = Some(c),
            Some(q) if c == q => quote = None,
            _ => {}
        }
    }
    quote.is_none() && buffer.trim_end().ends_with(';')
}

const HELP: &str = "\
every input is SQL, sent when a line ends with ';':
  SELECT …;                                    approximate query
  STREAM SELECT …;                             progressive query (live frames)
  BYPASS <statement>;                          exact execution
  CREATE SCRAMBLE <s> FROM <t> [METHOD m] [RATIO r] [ON cols];
  CREATE SCRAMBLES FROM <t>;                   recommended scramble set
  DROP SCRAMBLE <s>; / DROP SCRAMBLES <t>;
  REFRESH SCRAMBLES <t> [FROM <batch>];
  SHOW SCRAMBLES; / SHOW STATS;
  EXPLAIN [ANALYZE] <statement>;               plan (or executed span trace)
  SHOW PROFILE [LAST n]; / SHOW METRICS;       recent traces / text exposition
  SELECT … FROM verdict_stats WHERE …;         SHOW reads system relations:
                                               verdict_scrambles, verdict_stats,
                                               verdict_traces, verdict_metrics
  SET <option> = <value>;                      e.g. SET target_error = 0.02
                                               (stream_block_rows, slow_query_ms)
\\q quits, \\? shows this help";

fn main() {
    let mut addr = "127.0.0.1:6688".to_string();
    let mut one_shot: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => {
                    eprintln!("verdict-cli: missing value for --addr");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: verdict-cli [--addr HOST:PORT] [SQL…]");
                std::process::exit(0);
            }
            sql => one_shot.push(sql.to_string()),
        }
    }

    let mut client = match VerdictClient::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("verdict-cli: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    if !one_shot.is_empty() {
        for sql in one_shot {
            if let Err(e) = run(&mut client, &sql) {
                eprintln!("verdict-cli: {e}");
                std::process::exit(1);
            }
        }
        let _ = client.quit();
        return;
    }

    eprintln!("connected to {addr}; statements end with ';', \\q quits, \\? for help");
    let stdin = std::io::stdin();
    let mut line = String::new();
    // Multi-line statement buffer: lines accumulate until one ends with ';'.
    let mut buffer = String::new();
    loop {
        line.clear();
        match stdin.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if buffer.is_empty() {
            if trimmed.is_empty() {
                continue;
            }
            if trimmed == "\\q" || trimmed.eq_ignore_ascii_case("quit") {
                break;
            }
            if trimmed == "\\?" || trimmed.eq_ignore_ascii_case("help") {
                println!("{HELP}");
                continue;
            }
        }
        if !buffer.is_empty() {
            buffer.push('\n');
        }
        buffer.push_str(trimmed);
        if !statement_complete(&buffer) {
            // Statement incomplete (no ';' yet, or the ';' sits inside an
            // unterminated quoted string/identifier): keep buffering.
            continue;
        }
        let statement = std::mem::take(&mut buffer);
        if let Err(e) = run(&mut client, &statement) {
            eprintln!("verdict-cli: {e}");
            if matches!(e, ClientError::Io(_)) {
                break;
            }
        }
    }
    let _ = client.quit();
}
