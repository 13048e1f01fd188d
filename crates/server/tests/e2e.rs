//! End-to-end tests: spawn the server on an ephemeral port and drive it
//! through real TCP sessions, asserting the protocol answers are
//! bit-identical to the in-process path and that the approximate-answer
//! cache serves repeats / invalidates on appends.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use verdict_core::{VerdictAnswer, VerdictConfig, VerdictContext, VerdictResult, VerdictSession};
use verdict_engine::{Backend, Engine, TableBuilder, Value};
use verdict_server::{ClientError, FrameHeader, RemoteAnswer, VerdictClient, VerdictServer};

/// The twin-session walk shared with `tests/session.rs`.
#[path = "../../../tests/common/walk.rs"]
mod walk;

/// 50k-row synthetic sales table: 10 cities, deterministic prices.
fn sales_engine(seed: u64) -> Engine {
    sales_engine_of(seed, 50_000)
}

/// [`sales_engine`] with `rows` rows.
fn sales_engine_of(seed: u64, rows: usize) -> Engine {
    let engine = Engine::with_seed(seed);
    let table = TableBuilder::new()
        .int_column("id", (0..rows as i64).collect())
        .float_column(
            "price",
            (0..rows).map(|i| ((i * 37) % 1000) as f64 / 10.0).collect(),
        )
        .str_column(
            "city",
            (0..rows).map(|i| format!("city_{}", i % 10)).collect(),
        )
        .build()
        .unwrap();
    engine.register_table("sales", table);
    engine
}

fn serving_context(seed: u64, cache_capacity: usize) -> Arc<VerdictContext> {
    let engine = sales_engine(seed);
    let conn: Arc<dyn Backend> = Arc::new(engine);
    let mut config = VerdictConfig::for_testing();
    config.answer_cache_capacity = cache_capacity;
    let ctx = Arc::new(VerdictContext::new(conn, config));
    VerdictSession::new(Arc::clone(&ctx))
        .execute("CREATE SCRAMBLE verdict_sample_sales_uniform FROM sales")
        .unwrap();
    ctx
}

/// Exact variant-level equality: floats compare by bit pattern, so this is
/// stricter than `Value == Value` (which coerces Int vs Float).
fn values_bit_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        _ => false,
    }
}

/// One statement's answer on a fresh in-process session over `ctx`.
fn local_answer(ctx: &Arc<VerdictContext>, sql: &str) -> VerdictResult<VerdictAnswer> {
    VerdictSession::new(Arc::clone(ctx))
        .execute(sql)?
        .into_answer()
}

fn assert_remote_matches_local(remote: &RemoteAnswer, local: &VerdictAnswer) {
    assert_eq!(remote.header.rows, local.table.num_rows());
    assert_eq!(remote.header.cols, local.table.schema.fields.len());
    assert_eq!(remote.header.exact, local.exact);
    let names: Vec<String> = local
        .table
        .schema
        .fields
        .iter()
        .map(|f| f.name.clone())
        .collect();
    assert_eq!(remote.columns, names);
    for row in 0..local.table.num_rows() {
        for col in 0..names.len() {
            let l = local.table.value_at(row, col);
            let r = remote.value(row, col);
            assert!(
                values_bit_identical(r, &l),
                "row {row} col {col}: remote {r:?} != local {l:?}"
            );
        }
    }
    assert_eq!(remote.errors.len(), local.errors.len());
    for ((rc, rmean, rmax), le) in remote.errors.iter().zip(&local.errors) {
        assert_eq!(rc, &le.column);
        assert_eq!(rmean.to_bits(), le.mean_relative_error.to_bits());
        assert_eq!(rmax.to_bits(), le.max_relative_error.to_bits());
    }
}

const DASHBOARD_QUERY: &str =
    "SELECT city, avg(price) AS ap FROM sales GROUP BY city ORDER BY city";

/// A raw protocol connection: the exact bytes of each frame.
struct RawConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> RawConn {
        let writer = TcpStream::connect(addr).unwrap();
        writer
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        RawConn { writer, reader }
    }

    fn send(&mut self, lines: &str) {
        self.writer.write_all(lines.as_bytes()).unwrap();
    }

    /// The next frame's lines, up to and excluding the closing `.`.
    fn frame(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            assert!(
                self.reader.read_line(&mut line).unwrap() > 0,
                "EOF mid-frame"
            );
            let line = line.trim_end_matches(['\r', '\n']).to_string();
            if line == "." {
                return lines;
            }
            lines.push(line);
        }
    }

    /// One request's frame, with its status line parsed.
    fn request(&mut self, line: &str) -> (FrameHeader, Vec<String>) {
        self.send(&format!("{line}\n"));
        let mut frame = self.frame();
        let header = FrameHeader::parse(&frame.remove(0)).expect("an OK frame");
        (header, frame)
    }
}

/// The twin walk of `tests/session.rs` over the wire: two connections to
/// one server, the second with `SET cache = off`, send the same statements
/// (shed tiers aside: a server picks those from its queue depth), and every
/// response is the same, frame for frame, but for what [`response_text`]
/// leaves out — so an answer the I/O shard serves from the cache is checked
/// against the one a worker computes.
#[test]
fn a_cached_connection_answers_like_an_uncached_twin() {
    let mut config = VerdictConfig::for_testing();
    config.io_budget = 0.25;
    config.subsample_count = 25;
    config.answer_cache_capacity = 32;
    let conn: Arc<dyn Backend> = Arc::new(sales_engine_of(47, 4_000));
    let ctx = Arc::new(VerdictContext::new(conn, config));
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();
    let mut twins = [
        RawConn::connect(handle.addr()),
        RawConn::connect(handle.addr()),
    ];
    twins[1].request("SQL SET cache = off");
    for sql in walk::SETUP {
        twins[0].request(&format!("SQL {sql}"));
    }
    let mut hits = 0;
    for (i, step) in walk::walk(7, 800).into_iter().enumerate() {
        match step {
            walk::Step::Both(sql) => {
                let [cached, uncached] = twins.each_mut().map(|t| {
                    t.send(&format!("SQL {sql}\n"));
                    response_text(t)
                });
                hits += usize::from(cached.1);
                assert_eq!(cached.0, uncached.0, "step {i}: {sql}");
            }
            walk::Step::Once { sql, on } => {
                twins[on].send(&format!("SQL {sql}\n"));
                response_text(&mut twins[on]);
            }
            walk::Step::Shed(_) => {}
        }
    }
    assert!(hits >= 50, "{hits} cached answers");
    handle.stop();
}

/// One response as text — a stream's frames up to its `DONE` — with
/// `elapsed_us` and `cached` taken off every status line and `EXPLAIN`'s
/// `cacheable` row left out, and whether it was a cached answer.
fn response_text(raw: &mut RawConn) -> (String, bool) {
    let (mut text, mut cached) = (String::new(), false);
    loop {
        let frame = raw.frame();
        let (status, body) = frame.split_first().expect("a status line");
        cached |= status.split(' ').any(|field| field == "cached=1");
        let fields: Vec<&str> = status
            .split(' ')
            .filter(|f| !f.starts_with("elapsed_us=") && !f.starts_with("cached="))
            .collect();
        text.push_str(&fields.join(" "));
        for line in body.iter().filter(|l| !l.starts_with("R cacheable\t")) {
            text.push('\n');
            text.push_str(line);
        }
        text.push('\n');
        if !status.starts_with("FRAME ") {
            return (text, cached);
        }
    }
}

#[test]
fn four_concurrent_sessions_match_the_serial_in_process_path() {
    let ctx = serving_context(21, 64);
    // The serial in-process reference, computed before any session connects.
    let local_approx = local_answer(&ctx, DASHBOARD_QUERY).unwrap();
    assert!(
        !local_approx.exact,
        "query should be answered from the sample"
    );
    let local_exact = local_answer(
        &ctx,
        "BYPASS SELECT count(*) AS n, min(price) AS lo, max(price) AS hi FROM sales",
    )
    .unwrap();

    let handle = VerdictServer::bind("127.0.0.1:0", Arc::clone(&ctx))
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr();

    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut client = VerdictClient::connect(addr).unwrap();
                for _ in 0..5 {
                    let remote = client.sql(DASHBOARD_QUERY).unwrap();
                    assert!(remote.header.cached, "repeat must be served from cache");
                    assert_remote_matches_local(&remote, &local_approx);
                    let exact = client.sql("BYPASS SELECT count(*) AS n, min(price) AS lo, max(price) AS hi FROM sales",
                        )
                        .unwrap();
                    assert_remote_matches_local(&exact, &local_exact);
                }
                client.quit().unwrap();
            });
        }
    });

    assert!(
        handle
            .stats()
            .sessions_opened
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 4
    );
    handle.stop();
}

#[test]
fn cached_repeat_is_identical_and_append_invalidates() {
    let ctx = serving_context(5, 64);
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = VerdictClient::connect(handle.addr()).unwrap();

    let first = client.sql(DASHBOARD_QUERY).unwrap();
    assert!(!first.header.cached);
    assert!(!first.header.exact);
    assert!(
        !first.errors.is_empty(),
        "approximate answer carries error bounds"
    );

    // Same query, different whitespace / keyword case / table & predicate
    // identifier case (projection output names — the bare `city` column and
    // the `ap` alias — keep their case because they shape the result
    // schema): canonicalisation maps it to the same entry and the stored
    // answer comes back bit-identically.
    let second = client
        .sql("select   city, AVG(Price) as ap from Sales group by CITY order by CITY")
        .unwrap();
    assert!(second.header.cached);
    assert_eq!(second.header.rows_scanned, first.header.rows_scanned);
    assert_eq!(second.columns, first.columns);
    for (r1, r2) in first.rows.iter().zip(&second.rows) {
        for (v1, v2) in r1.iter().zip(r2) {
            assert!(values_bit_identical(v1, v2));
        }
    }
    for ((c1, m1, x1), (c2, m2, x2)) in first.errors.iter().zip(&second.errors) {
        assert_eq!(c1, c2);
        assert_eq!(m1.to_bits(), m2.to_bits());
        assert_eq!(x1.to_bits(), x2.to_bits());
    }

    // Append new rows to the base table through the same protocol: the next
    // repeat must be recomputed, not served stale.
    client
        .sql("BYPASS CREATE TABLE sales_batch AS SELECT id, price, city FROM sales LIMIT 1000")
        .unwrap();
    client
        .sql("BYPASS INSERT INTO sales SELECT * FROM sales_batch")
        .unwrap();
    // The I/O shard answered the hit; after the append it declines, and a
    // worker (one more admitted statement besides the SHOW) answers.
    let before = client.sql("SHOW STATS").unwrap();
    assert_eq!(before.stat("cache_hits_on_shard"), Some(1));
    let third = client.sql(DASHBOARD_QUERY).unwrap();
    assert!(
        !third.header.cached,
        "append must invalidate the cached answer"
    );

    let stats = client.sql("SHOW STATS").unwrap();
    assert_eq!(stats.stat("cache_invalidations"), Some(1));
    assert!(stats.stat("cache_hits").is_some());
    assert_eq!(stats.stat("cache_hits_on_shard"), Some(1));
    let admitted = |a: &RemoteAnswer| a.stat("queries_admitted").unwrap();
    assert_eq!(admitted(&stats) - admitted(&before), 2);

    // The shard encodes a hit exactly as a worker encodes the same answer:
    // the frames differ in `cached` and `elapsed_us` only.
    let mut raw = RawConn::connect(handle.addr());
    let sum = "SQL SELECT city, sum(price) AS sp FROM sales GROUP BY city ORDER BY city";
    let (worker, worker_body) = raw.request(sum);
    let (shard, shard_body) = raw.request(sum);
    assert!(!worker.cached && shard.cached);
    let same = FrameHeader {
        cached: true,
        elapsed_us: shard.elapsed_us,
        ..worker
    };
    assert_eq!(shard, same);
    assert_eq!(shard_body, worker_body);
    client.quit().unwrap();
    handle.stop();
}

#[test]
fn pipelined_hits_and_a_miss_are_answered_in_order() {
    let ctx = serving_context(8, 64);
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();
    let mut raw = RawConn::connect(handle.addr());
    let (warm, _) = raw.request(&format!("SQL {DASHBOARD_QUERY}"));
    assert!(!warm.cached);
    // hit (shard), miss (worker), hit (shard) in one write: the second hit
    // waits for the miss, and the three frames come back in request order.
    let miss = "SELECT count(*) AS n FROM sales WHERE price > 10";
    raw.send(&format!(
        "SQL {DASHBOARD_QUERY}\nSQL {miss}\nSQL {DASHBOARD_QUERY}\n"
    ));
    let shape = |frame: Vec<String>| {
        let header = FrameHeader::parse(&frame[0]).expect("an OK frame");
        (header.cols, header.rows, header.cached)
    };
    let dashboard = (warm.cols, warm.rows, true);
    assert_eq!(shape(raw.frame()), dashboard);
    assert!(!shape(raw.frame()).2, "the miss comes second");
    assert_eq!(shape(raw.frame()), dashboard);
    raw.send("QUIT\n");
    handle.stop();
}

#[test]
fn a_shard_hit_is_one_cached_trace_and_counts_like_a_worker_hit() {
    let ctx = serving_context(9, 64);
    let handle = VerdictServer::bind("127.0.0.1:0", Arc::clone(&ctx))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = VerdictClient::connect(handle.addr()).unwrap();
    let last_seq = || ctx.obs().ring().recent(1).first().map_or(0, |t| t.seq);
    let stages = |t: &verdict_core::QueryTrace| -> Vec<&'static str> {
        t.spans.iter().map(|s| s.stage).collect()
    };
    let shard_hits = |client: &mut VerdictClient| {
        client
            .sql("SHOW STATS")
            .unwrap()
            .stat("cache_hits_on_shard")
            .unwrap()
    };

    // The miss: one miss and one insertion, though the shard probed first.
    // The worker keys it by the canonical text the shard printed: its
    // trace has no `canonicalize` span.
    let cache = ctx.cache_stats();
    let seq = last_seq();
    assert!(!client.sql(DASHBOARD_QUERY).unwrap().header.cached);
    let after = ctx.cache_stats();
    assert_eq!((after.hits, after.misses), (cache.hits, cache.misses + 1));
    assert_eq!(after.insertions, cache.insertions + 1);
    assert_eq!(last_seq(), seq + 1, "one trace for the miss");
    let miss = &ctx.obs().ring().recent(1)[0];
    assert_eq!(stages(miss)[0], "cache_probe", "{:?}", stages(miss));
    assert!(!stages(miss).contains(&"canonicalize"));

    // The hit: the text the miss stored is found by its spelling, unparsed.
    // One hit, nothing else, and one cached query trace whose one span is
    // the probe.
    let before = shard_hits(&mut client);
    let cache = after;
    let seq = last_seq();
    assert!(client.sql(DASHBOARD_QUERY).unwrap().header.cached);
    let after = ctx.cache_stats();
    assert_eq!(
        after,
        verdict_core::CacheStats {
            hits: cache.hits + 1,
            ..cache
        }
    );
    let traces = ctx.obs().ring().recent(2);
    assert_eq!(traces[0].seq, seq + 1, "one trace for the hit");
    let hit = &traces[0];
    assert_eq!(
        (hit.class, hit.cached, hit.shed_tier),
        ("query_cached", true, "none")
    );
    assert_eq!(hit.sql, DASHBOARD_QUERY);
    assert_eq!(stages(hit), ["cache_probe"]);
    assert_eq!(hit.spans[0].detail, "hit");
    assert_eq!(hit.backend_queries, 0);

    // A new spelling of the statement is parsed and canonicalised once,
    // then found by its spelling too; both are shard hits.
    let respelled = "select  city, AVG(price)  as ap from SALES group by city order by CITY";
    assert!(client.sql(respelled).unwrap().header.cached);
    let first = &ctx.obs().ring().recent(1)[0];
    assert_eq!(stages(first), ["canonicalize", "cache_probe"]);
    assert_eq!(first.spans[1].detail, "hit");
    assert!(client.sql(respelled).unwrap().header.cached);
    assert_eq!(stages(&ctx.obs().ring().recent(1)[0]), ["cache_probe"]);
    // The SHOW STATS read between is no hit.
    assert_eq!(shard_hits(&mut client), before + 3);
    client.quit().unwrap();
    handle.stop();
}

/// A statement the shard missed is run by a worker, which keys it by the
/// shard's canonical text (no second `canonicalize`) and records its
/// spelling: the next identical request is a shard hit.
#[test]
fn a_missed_statement_is_canonicalised_once_and_its_repeat_is_a_shard_hit() {
    let ctx = serving_context(10, 64);
    let handle = VerdictServer::bind("127.0.0.1:0", Arc::clone(&ctx))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = VerdictClient::connect(handle.addr()).unwrap();
    let miss =
        "SELECT city, sum(price) AS sp FROM sales WHERE price > 5 GROUP BY city ORDER BY city";
    assert!(!client.sql(miss).unwrap().header.cached);
    let trace = &ctx.obs().ring().recent(1)[0];
    assert_eq!((trace.class, trace.sql.as_str()), ("query", miss));
    let stages: Vec<&str> = trace.spans.iter().map(|s| s.stage).collect();
    assert_eq!(&stages[..2], ["cache_probe", "analyze"], "{stages:?}");
    let shard = |client: &mut VerdictClient| {
        client
            .sql("SHOW STATS")
            .unwrap()
            .stat("cache_hits_on_shard")
            .unwrap()
    };
    let before = shard(&mut client);
    let repeat = client.sql(miss).unwrap();
    assert!(repeat.header.cached);
    assert_eq!(shard(&mut client), before + 1);
    client.quit().unwrap();
    handle.stop();
}

#[test]
fn sample_and_refresh_commands_round_trip() {
    let engine = sales_engine(3);
    let conn: Arc<dyn Backend> = Arc::new(engine);
    let mut config = VerdictConfig::for_testing();
    config.answer_cache_capacity = 16;
    let ctx = Arc::new(VerdictContext::new(conn, config));
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = VerdictClient::connect(handle.addr()).unwrap();

    let built = client
        .sql("CREATE SCRAMBLE verdict_sample_sales_uniform FROM sales METHOD uniform")
        .unwrap();
    let sample_table = built.extra("sample_table").unwrap().to_string();
    assert!(sample_table.contains("sales"));
    let sample_rows: u64 = built.extra("sample_rows").unwrap().parse().unwrap();
    assert!(sample_rows > 0);

    // Approximate queries now work over the freshly built sample.
    let answer = client.sql(DASHBOARD_QUERY).unwrap();
    assert!(!answer.header.exact);

    // Appendix D maintenance over the wire: append a batch, refresh samples.
    client
        .sql("BYPASS CREATE TABLE sales_batch AS SELECT id, price, city FROM sales LIMIT 2000")
        .unwrap();
    client
        .sql("BYPASS INSERT INTO sales SELECT * FROM sales_batch")
        .unwrap();
    let refreshed = client
        .sql("REFRESH SCRAMBLES sales FROM sales_batch")
        .unwrap();
    assert_eq!(refreshed.extra("refreshed_samples"), Some("1"));

    client.quit().unwrap();
    handle.stop();
}

#[test]
fn errors_are_frames_and_sessions_survive_them() {
    let ctx = serving_context(9, 4);
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = VerdictClient::connect(handle.addr()).unwrap();

    match client.sql("SELEKT nonsense") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("parse"), "got: {msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
    match client.request("FROBNICATE x") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("unknown command")),
        other => panic!("expected server error, got {other:?}"),
    }
    // The session is still usable after both error frames.
    let answer = client
        .sql("BYPASS SELECT count(*) AS n FROM sales")
        .unwrap();
    assert_eq!(answer.value(0, 0).as_i64(), Some(50_000));

    // Multi-line SQL must not desynchronize the request/response stream:
    // the client collapses the line breaks into one request line.
    let multiline = client
        .sql("BYPASS SELECT count(*) AS n\nFROM sales\r\nWHERE price < 50.0")
        .unwrap();
    assert_eq!(multiline.header.rows, 1);
    let next = client
        .sql("BYPASS SELECT count(*) AS n FROM sales")
        .unwrap();
    assert_eq!(
        next.value(0, 0).as_i64(),
        Some(50_000),
        "the frame after a multi-line request must answer the right call"
    );
    client.ping().unwrap();
    client.quit().unwrap();
    handle.stop();
}

#[test]
fn awkward_string_values_round_trip_over_the_wire() {
    let engine = Engine::with_seed(1);
    let table = TableBuilder::new()
        .int_column("id", vec![1, 2, 3, 4])
        .str_column(
            "label",
            vec![
                "plain".to_string(),
                "tab\there".to_string(),
                "line\nbreak".to_string(),
                "back\\slash \\N".to_string(),
            ],
        )
        .build()
        .unwrap();
    engine.register_table("notes", table);
    let conn: Arc<dyn Backend> = Arc::new(engine);
    let ctx = Arc::new(VerdictContext::new(conn, VerdictConfig::for_testing()));
    let local = local_answer(&ctx, "BYPASS SELECT id, label FROM notes ORDER BY id").unwrap();

    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = VerdictClient::connect(handle.addr()).unwrap();
    let remote = client
        .sql("BYPASS SELECT id, label FROM notes ORDER BY id")
        .unwrap();
    assert_remote_matches_local(&remote, &local);
    client.quit().unwrap();
    handle.stop();
}

// ---------------------------------------------------------------------------
// Progressive streaming over TCP (PR 5)
// ---------------------------------------------------------------------------

#[test]
fn stream_verb_emits_refining_frames_and_matches_the_one_shot_answer() {
    let ctx = serving_context(51, 64);
    let handle = VerdictServer::bind("127.0.0.1:0", Arc::clone(&ctx))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = VerdictClient::connect(handle.addr()).unwrap();

    // Small blocks force a multi-frame stream over the 1%-scramble.
    client.sql("SET stream_block_rows = 100").unwrap();
    let mut seen_live = 0usize;
    let frames = client
        .stream_with(DASHBOARD_QUERY, |_| seen_live += 1)
        .unwrap();
    assert!(
        frames.len() >= 2,
        "expected ≥2 frames, got {}",
        frames.len()
    );
    assert_eq!(seen_live, frames.len(), "callback fires once per frame");
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(f.frame, i + 1);
        assert_eq!(f.last, i + 1 == frames.len());
        if i > 0 {
            assert!(f.rows_seen > frames[i - 1].rows_seen);
        }
    }
    let last = frames.last().unwrap();
    assert!((last.fraction - 1.0).abs() < 1e-12);
    assert!(!last.early_stopped);

    // The final frame over the wire is bit-identical to the in-process
    // one-shot answer for the same query and options.
    let local = local_answer(&ctx, DASHBOARD_QUERY).unwrap();
    assert_remote_matches_local(&last.answer, &local);

    // The connection stays usable after a stream (framing is clean).
    client.ping().unwrap();
    let after = client.sql("SHOW STATS").unwrap();
    assert!(after.stat("streams_started").is_some());

    // `sql("STREAM …")` answers with the stream's last frame.
    let alias = client.sql(&format!("STREAM {DASHBOARD_QUERY}")).unwrap();
    assert_remote_matches_local(&alias, &local);
    let _ = client.quit();
    handle.stop();
}

#[test]
fn stream_early_stop_and_errors_keep_the_protocol_in_sync() {
    let ctx = serving_context(52, 64);
    let handle = VerdictServer::bind("127.0.0.1:0", Arc::clone(&ctx))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = VerdictClient::connect(handle.addr()).unwrap();

    // A loose target stops the stream after a strict prefix.
    client.sql("SET stream_block_rows = 50").unwrap();
    client.sql("SET target_error = 0.9").unwrap();
    let frames = client
        .stream("SELECT sum(price) AS total FROM sales")
        .unwrap();
    let last = frames.last().unwrap();
    assert!(last.early_stopped, "loose target must stop early");
    assert!(last.fraction < 1.0);

    // A bad statement answers with one ERR frame and leaves the session
    // usable.
    let err = client.stream("SELEKT nope").unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "{err:?}");
    client.ping().unwrap();

    // STREAM is a statement, not a verb: a bare STREAM line is an unknown
    // command, not a hang.
    match client.request("STREAM") {
        Err(ClientError::Server(msg)) => assert_eq!(msg, "unknown command STREAM"),
        other => panic!("expected an unknown-command error, got {other:?}"),
    }
    client.ping().unwrap();
    let _ = client.quit();
    handle.stop();
}

impl RawConn {
    /// The status lines of one `SQL STREAM …` response's `FRAME`s, then
    /// its `DONE` line.
    fn stream_status_lines(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let status = self.frame().remove(0);
            let done = status.starts_with("DONE");
            lines.push(status);
            if done {
                return lines;
            }
        }
    }
}

/// `SQL STREAM q` is the streaming request: `FRAME`s closed by `DONE`, the
/// last frame bit-identical to the in-process stream's final frame and to
/// the one-shot answer.
#[test]
fn sql_stream_streams_frames_and_ends_on_the_in_process_and_one_shot_answer() {
    const Q: &str =
        "SELECT city, count(*) AS n, avg(price) AS ap FROM sales GROUP BY city ORDER BY city";
    let ctx = serving_context(53, 0);
    let one_shot = local_answer(&ctx, Q).unwrap();
    assert!(!one_shot.exact);
    let mut local = VerdictSession::new(Arc::clone(&ctx));
    local.execute("SET stream_block_rows = 100").unwrap();
    let local_frames: Vec<_> = local.stream(Q).unwrap().map(Result::unwrap).collect();
    let handle = VerdictServer::bind("127.0.0.1:0", Arc::clone(&ctx))
        .unwrap()
        .spawn()
        .unwrap();

    let mut raw = RawConn::connect(handle.addr());
    raw.request("SQL SET stream_block_rows = 100");
    raw.send(&format!("SQL STREAM {Q}\n"));
    let status = raw.stream_status_lines();
    let (done, frames) = status.split_last().unwrap();
    assert_eq!(frames.len(), local_frames.len(), "{status:?}");
    assert!(frames.iter().all(|l| l.starts_with("FRAME ")), "{status:?}");
    assert_eq!(done, &format!("DONE frames={}", frames.len()));

    let mut client = VerdictClient::connect(handle.addr()).unwrap();
    client.sql("SET stream_block_rows = 100").unwrap();
    let remote = client.stream(Q).unwrap();
    assert_eq!(remote.len(), local_frames.len());
    let (remote, local) = (remote.last().unwrap(), local_frames.last().unwrap());
    assert!(remote.last && local.last);
    assert_eq!(remote.rows_seen, local.rows_seen);
    assert_remote_matches_local(&remote.answer, &local.answer);
    assert_remote_matches_local(&remote.answer, &one_shot);
    client.quit().unwrap();
    handle.stop();
}

/// STREAM is a statement, not a verb: the request line `STREAM q` is an
/// unknown command, and the session stays usable.
#[test]
fn the_stream_verb_is_an_unknown_command() {
    let ctx = serving_context(54, 64);
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = VerdictClient::connect(handle.addr()).unwrap();
    match client.request(&format!("STREAM {DASHBOARD_QUERY}")) {
        Err(ClientError::Server(msg)) => assert_eq!(msg, "unknown command STREAM"),
        other => panic!("expected an unknown-command error, got {other:?}"),
    }
    assert_eq!(client.sql(DASHBOARD_QUERY).unwrap().header.rows, 10);
    client.quit().unwrap();
    handle.stop();
}

/// A malformed `SQL STREAM …` is a parse error answered on the shard: it
/// never takes an admission slot.
#[test]
fn a_malformed_stream_is_refused_before_admission() {
    let ctx = serving_context(55, 64);
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = VerdictClient::connect(handle.addr()).unwrap();
    let before = handle.admission_stats().admitted;
    match client.stream("SELEKT nope") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("parse"), "got: {msg}"),
        other => panic!("expected a parse error, got {other:?}"),
    }
    assert_eq!(handle.admission_stats().admitted, before);
    client.ping().unwrap();
    client.quit().unwrap();
    handle.stop();
}

/// A stream and the statement pipelined behind it are answered in order:
/// the stream's frames and `DONE`, then the statement's `OK` frame.
#[test]
fn a_pipelined_stream_and_statement_are_answered_in_order() {
    let ctx = serving_context(56, 64);
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();
    let mut raw = RawConn::connect(handle.addr());
    raw.request("SQL SET stream_block_rows = 100");
    raw.send(&format!(
        "SQL STREAM {DASHBOARD_QUERY}\nSQL BYPASS SELECT count(*) AS n FROM sales\n"
    ));
    let status = raw.stream_status_lines();
    assert!(status.len() >= 3, "{status:?}");
    let frame = raw.frame();
    let header = FrameHeader::parse(&frame[0]).expect("an OK frame");
    assert_eq!((header.rows, header.cols), (1, 1));
    assert_eq!(frame.last().unwrap(), "R 50000");
    raw.send("QUIT\n");
    handle.stop();
}

/// `queue_depth` and `queue_peak_depth` count statements waiting for a
/// worker: the statement reading them is running, so an idle server reads 0.
#[test]
fn an_idle_server_reports_an_empty_run_queue() {
    let ctx = serving_context(57, 64);
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = VerdictClient::connect(handle.addr()).unwrap();
    for _ in 0..2 {
        let stats = client
            .sql("SELECT stat, value FROM verdict_stats WHERE section = 'serving'")
            .unwrap();
        assert_eq!(stats.stat("queue_depth"), Some(0));
        assert_eq!(stats.stat("queue_peak_depth"), Some(0));
    }
    client.quit().unwrap();
    handle.stop();
}

#[test]
fn system_relations_carry_the_serving_section_over_the_wire() {
    let ctx = serving_context(61, 16);
    let handle = VerdictServer::bind("127.0.0.1:0", Arc::clone(&ctx))
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = VerdictClient::connect(handle.addr()).unwrap();
    client.sql("SELECT count(*) AS n FROM sales").unwrap();

    // Every serving stat is a row of verdict_stats, in SHOW STATS order.
    let serving = client
        .sql("SELECT stat FROM verdict_stats WHERE section = 'serving'")
        .unwrap();
    assert!(serving.header.exact);
    let names: Vec<String> = serving.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(
        names,
        [
            "cache_hits_on_shard",
            "deadline_misses",
            "draining",
            "errors",
            "exec_count",
            "exec_p50_us",
            "exec_p99_us",
            "exec_workers",
            "io_shards",
            "queries_admitted",
            "queries_refused",
            "queries_served",
            "queries_shed",
            "queue_capacity",
            "queue_depth",
            "queue_peak_depth",
            "queue_wait_count",
            "queue_wait_p50_us",
            "queue_wait_p99_us",
            "sessions_active",
            "sessions_opened",
        ]
    );
    assert_eq!(
        client.sql("SHOW STATS").unwrap().stat("sessions_active"),
        Some(1)
    );

    // SHOW METRICS renders the same list: every series the hand-written
    // serving list used to emit, plus the two gauges it never reached.
    let metrics = client.sql("SHOW METRICS").unwrap();
    let series: Vec<String> = metrics
        .rows
        .iter()
        .map(|r| r[0].to_string())
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split(['{', ' ']).next().unwrap().to_string())
        .collect();
    for name in [
        "verdict_backend_queries_total",
        "verdict_backend_scan_fallbacks_total",
        "verdict_backend_version_fallbacks_total",
        "verdict_cache_capacity",
        "verdict_cache_entries",
        "verdict_cache_evictions_total",
        "verdict_cache_hits_total",
        "verdict_cache_insertions_total",
        "verdict_cache_invalidations_total",
        "verdict_cache_misses_total",
        "verdict_deadline_misses_total",
        "verdict_draining",
        "verdict_errors_total",
        "verdict_queries_admitted_total",
        "verdict_queries_refused_total",
        "verdict_queries_served_total",
        "verdict_queries_shed_total",
        "verdict_queue_capacity",
        "verdict_queue_depth",
        "verdict_queue_peak_depth",
        "verdict_scrambles",
        "verdict_sessions_active",
        "verdict_sessions_opened_total",
        "verdict_slow_queries_total",
        "verdict_stage_duration_us_bucket",
        "verdict_stage_duration_us_count",
        "verdict_stage_duration_us_sum",
        "verdict_statement_duration_us_bucket",
        "verdict_statement_duration_us_count",
        "verdict_statement_duration_us_sum",
        "verdict_statements_total",
        "verdict_stream_early_stops_total",
        "verdict_stream_fallbacks_total",
        "verdict_stream_frames_total",
        "verdict_streams_completed_total",
        "verdict_streams_started_total",
        "verdict_exec_workers",
        "verdict_io_shards",
        "verdict_cache_hits_on_shard_total",
        "verdict_exec_count_total",
        "verdict_queue_wait_count_total",
    ] {
        assert!(
            series.iter().any(|s| s == name),
            "SHOW METRICS lacks {name}"
        );
    }
    for gauge in [
        "verdict_exec_workers",
        "verdict_io_shards",
        "verdict_exec_p50_us",
        "verdict_exec_p99_us",
        "verdict_queue_wait_p50_us",
        "verdict_queue_wait_p99_us",
    ] {
        let line = format!("# TYPE {gauge} gauge");
        assert!(metrics.rows.iter().any(|r| r[0].to_string() == line));
    }
    client.quit().unwrap();

    // The context reads the server through a Weak: once stopped, the server
    // is gone, its rows drop out, and only the test's handle remains.
    handle.stop();
    assert_eq!(Arc::strong_count(&ctx), 1, "a stopped server is kept alive");
    let stats = VerdictSession::new(Arc::clone(&ctx))
        .execute("SELECT count(*) AS n FROM verdict_stats WHERE section = 'serving'")
        .unwrap()
        .into_answer()
        .unwrap();
    assert_eq!(stats.table.value(0, 0), Value::Int(0));
}
