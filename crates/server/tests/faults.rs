//! Fault-injection tests: drive the multiplexed server with deliberately
//! hostile clients — slow-loris writers, half-closed sockets, readers that
//! stop reading, oversized request lines, abrupt disconnects mid-query —
//! and assert the invariants the event loop exists to provide: no hostile
//! session can block another session's frames, no session leaks, and the
//! server stays drainable afterward.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use verdict_core::{VerdictConfig, VerdictContext, VerdictSession};
use verdict_engine::{Backend, Engine, EngineResult, QueryResult, TableBuilder};
use verdict_server::{ClientError, ServerHandle, VerdictClient, VerdictServer};

/// 50k-row synthetic sales table (same shape as the e2e fixture).
fn sales_engine(seed: u64) -> Engine {
    let engine = Engine::with_seed(seed);
    let rows = 50_000usize;
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

fn serving_context(seed: u64) -> Arc<VerdictContext> {
    let conn: Arc<dyn Backend> = Arc::new(sales_engine(seed));
    let mut config = VerdictConfig::for_testing();
    config.answer_cache_capacity = 64;
    let ctx = Arc::new(VerdictContext::new(conn, config));
    VerdictSession::new(Arc::clone(&ctx))
        .execute("CREATE SCRAMBLE verdict_sample_sales_uniform FROM sales")
        .unwrap();
    ctx
}

const QUERY: &str = "SELECT city, avg(price) AS ap FROM sales GROUP BY city ORDER BY city";

/// Waits (bounded) for the server's active-session gauge to come back to
/// `expected` — torn-down connections are reaped by the I/O shards on their
/// next poll tick, so the gauge trails the socket close by a few ms.
fn assert_sessions_settle(handle: &ServerHandle, expected: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let active = handle
            .stats()
            .sessions_active
            .load(std::sync::atomic::Ordering::Relaxed);
        if active == expected {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "sessions_active stuck at {active}, expected {expected} — leaked sessions"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The `SHOW STATS` wire view must agree with the in-process gauge: this is
/// the leak check a real operator would run.
fn wire_sessions_active(addr: std::net::SocketAddr) -> u64 {
    let mut client = VerdictClient::connect(addr).unwrap();
    let stats = client.sql("SHOW STATS").unwrap();
    let active = stats
        .stat("sessions_active")
        .expect("SHOW STATS reports sessions_active") as u64;
    client.quit().unwrap();
    // This probe connection was itself counted while it was open.
    active - 1
}

/// Drains the server and asserts it exits within the timeout — the final
/// invariant of every fault test: whatever the fault did, the server must
/// still shut down cleanly.
fn assert_drainable(handle: ServerHandle) {
    assert!(
        handle.drain(Duration::from_secs(10)),
        "server failed to drain after fault injection"
    );
}

#[test]
fn slow_loris_writer_does_not_block_other_sessions() {
    let ctx = serving_context(31);
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();

    // The loris trickles a request one byte at a time with long pauses; the
    // request is never completed.  Meanwhile a well-behaved client on the
    // same server must see normal latencies.
    let mut loris = TcpStream::connect(handle.addr()).unwrap();
    loris.set_nodelay(true).unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let loris_stop = Arc::clone(&stop);
    let loris_thread = std::thread::spawn(move || {
        for b in b"SQL SELECT count(*) AS n FROM sales".iter().cycle() {
            if loris_stop.load(std::sync::atomic::Ordering::Relaxed) {
                break;
            }
            if loris.write_all(&[*b]).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        loris
    });

    let mut client = VerdictClient::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for _ in 0..20 {
        let answer = client.sql(QUERY).expect("victim session must not stall");
        assert_eq!(answer.header.rows, 10);
    }
    client.quit().unwrap();

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let loris = loris_thread.join().unwrap();
    drop(loris);

    assert_sessions_settle(&handle, 0);
    assert_drainable(handle);
}

#[test]
fn half_closed_socket_still_receives_stream_frames() {
    let ctx = serving_context(32);
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();

    // Send a STREAM request, then close the write half.  EOF on the read
    // side must not tear down the connection while the response is still
    // being produced: the stream's frames and DONE must all arrive.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    raw.write_all(b"SQL SET stream_block_rows = 50\n").unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    // Consume the SET acknowledgement frame up to its terminator.
    loop {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0);
        assert!(
            !line.starts_with("ERR "),
            "SET refused over the raw socket: {line}"
        );
        if line.trim_end() == "." {
            break;
        }
    }
    raw.write_all(format!("SQL STREAM {QUERY}\n").as_bytes())
        .unwrap();
    raw.shutdown(Shutdown::Write).unwrap();

    let mut frames = 0usize;
    let mut done = false;
    loop {
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        let trimmed = line.trim_end();
        if trimmed.starts_with("FRAME ") {
            frames += 1;
        }
        if trimmed.starts_with("DONE ") {
            done = true;
        }
    }
    assert!(done, "half-closed session never saw DONE");
    assert!(
        frames >= 2,
        "expected a multi-frame stream over the half-closed socket, got {frames}"
    );
    drop(reader);
    drop(raw);

    assert_sessions_settle(&handle, 0);
    assert_drainable(handle);
}

#[test]
fn non_reading_client_is_isolated_by_write_backpressure() {
    let ctx = serving_context(33);
    // A small write buffer and a short stall timeout so the test observes
    // the backpressure path quickly.
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .with_write_buffer_bytes(4096)
        .with_write_stall_timeout(Duration::from_millis(500))
        .spawn()
        .unwrap();

    // The hog streams a large result but never reads a byte.  Its frames
    // back up in the server's bounded per-connection buffer (and the kernel
    // socket buffer); once no progress is made for the stall timeout the
    // server drops the connection rather than buffer without bound.
    let mut hog = TcpStream::connect(handle.addr()).unwrap();
    hog.set_nodelay(true).unwrap();
    hog.write_all(b"SQL SET stream_block_rows = 50\n").unwrap();
    hog.write_all(format!("SQL STREAM {QUERY}\n").as_bytes())
        .unwrap();
    // Do not read.  While the hog is wedged, other sessions must answer.

    let mut client = VerdictClient::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for _ in 0..10 {
        let answer = client
            .sql(QUERY)
            .expect("non-reading hog must not wedge other sessions");
        assert_eq!(answer.header.rows, 10);
    }
    client.quit().unwrap();

    // The server eventually gives up on the hog (stall timeout) or the hog
    // disconnects here; either way the session count must return to zero.
    drop(hog);
    assert_sessions_settle(&handle, 0);
    assert_drainable(handle);
}

#[test]
fn oversized_request_line_gets_an_error_frame_then_close() {
    let ctx = serving_context(34);
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();

    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    // 1 MiB + slack of request bytes with no newline.
    let chunk = vec![b'x'; 64 * 1024];
    let mut sent = 0usize;
    while sent < (1 << 20) + 4096 {
        match raw.write(&chunk) {
            Ok(n) => sent += n,
            // The server may have already errored the connection and closed
            // it; stopping here is fine — we still must find the ERR frame.
            Err(_) => break,
        }
    }
    raw.shutdown(Shutdown::Write).ok();

    let mut reply = String::new();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(raw);
    // The server answers with a protocol-limit ERR frame and closes.
    let mut saw_err = false;
    loop {
        reply.clear();
        match reader.read_line(&mut reply) {
            Ok(0) => break,
            Ok(_) => {
                if reply.starts_with("ERR ") && reply.contains("1 MiB") {
                    saw_err = true;
                }
            }
            Err(_) => break,
        }
    }
    assert!(
        saw_err,
        "oversized line did not produce the limit ERR frame"
    );
    drop(reader);

    // The server remains healthy for other clients.
    let mut client = VerdictClient::connect(handle.addr()).unwrap();
    assert_eq!(client.sql(QUERY).unwrap().header.rows, 10);
    client.quit().unwrap();

    assert_sessions_settle(&handle, 0);
    assert_drainable(handle);
}

#[test]
fn abrupt_disconnect_during_inflight_query_leaks_nothing() {
    let ctx = serving_context(35);
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();

    for _ in 0..8 {
        // Fire a query and slam the socket shut before the answer arrives.
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.set_nodelay(true).unwrap();
        raw.write_all(format!("SQL BYPASS {QUERY}\n").as_bytes())
            .unwrap();
        // Drop without QUIT: the close races the in-flight execution.
        drop(raw);
    }

    // The server must still answer and must reap every aborted session.
    let mut client = VerdictClient::connect(handle.addr()).unwrap();
    assert_eq!(client.sql(QUERY).unwrap().header.rows, 10);
    client.quit().unwrap();

    assert_sessions_settle(&handle, 0);
    assert_eq!(wire_sessions_active(handle.addr()), 0);
    assert_drainable(handle);
}

#[test]
fn client_times_out_instead_of_blocking_on_a_wedged_server() {
    // A raw listener that accepts and then never answers stands in for a
    // wedged server: the client's read timeout must fire.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || {
        let (sock, _) = listener.accept().unwrap();
        std::thread::sleep(Duration::from_secs(2));
        drop(sock);
    });

    let mut client = VerdictClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let t0 = Instant::now();
    match client.ping() {
        Err(ClientError::TimedOut(_)) => {}
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "read timeout did not bound the wait"
    );
    hold.join().unwrap();
}

#[test]
fn client_reports_disconnected_on_a_dead_server() {
    let ctx = serving_context(36);
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = VerdictClient::connect(handle.addr()).unwrap();
    assert_eq!(client.sql(QUERY).unwrap().header.rows, 10);

    // Kill the server out from under the live session.
    handle.stop();

    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    match client.sql(QUERY) {
        Err(ClientError::Disconnected(_)) | Err(ClientError::Io(_)) => {}
        Ok(_) => panic!("query succeeded against a stopped server"),
        Err(other) => panic!("expected Disconnected, got {other}"),
    }
}

#[test]
fn graceful_drain_finishes_inflight_work_and_rejects_new_statements() {
    let ctx = serving_context(37);
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();

    let mut worker = VerdictClient::connect(handle.addr()).unwrap();
    let mut shutter = VerdictClient::connect(handle.addr()).unwrap();

    // Kick off a statement, then request the drain from another session.
    // The in-flight statement must complete with a full answer.
    let answer = worker.sql(QUERY).unwrap();
    assert_eq!(answer.header.rows, 10);
    shutter.shutdown_server().unwrap();

    // Once draining, new statements get a typed SHUTDOWN refusal (or the
    // connection is already gone, depending on how far the drain got).
    match worker.sql(QUERY) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("SHUTDOWN"), "untyped drain refusal: {msg}")
        }
        Err(ClientError::Disconnected(_)) => {}
        // The write itself can race the socket teardown (EPIPE/ECONNRESET);
        // any of these means the statement was not admitted.
        Err(ClientError::Io(_)) => {}
        Ok(_) => panic!("statement admitted during drain"),
        Err(other) => panic!("unexpected drain-time error: {other}"),
    }

    assert!(
        handle.drain(Duration::from_secs(10)),
        "SHUTDOWN did not finish draining"
    );

    // New connections are refused once the listener is down.
    assert!(
        TcpStream::connect_timeout(&"127.0.0.1:1".parse().unwrap(), Duration::from_millis(1))
            .is_err()
    );
}

#[test]
fn admission_refusal_is_typed_and_ping_still_answers() {
    let ctx = serving_context(38);
    // One worker and a tiny queue: it is easy to fill.
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .with_workers(1)
        .with_queue_capacity(2)
        .spawn()
        .unwrap();

    // Saturate the queue with heavy cache-bypassed statements from several
    // sessions, then observe a typed BUSY refusal on a fresh session while
    // PING (answered on the I/O shard) still succeeds.
    let mut backlog: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for _ in 0..8 {
        let addr = handle.addr();
        backlog.push(std::thread::spawn(move || {
            if let Ok(mut c) = VerdictClient::connect(addr) {
                for _ in 0..16 {
                    if c.sql(&format!("BYPASS {QUERY}")).is_err() {
                        break;
                    }
                }
                let _ = c.quit();
            }
        }));
    }

    let mut probe = VerdictClient::connect(handle.addr()).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut saw_busy = false;
    for _ in 0..200 {
        probe.ping().expect("PING must answer even at capacity");
        match probe.sql(&format!("BYPASS {QUERY}")) {
            Ok(_) => {}
            Err(ClientError::Busy(_)) => {
                saw_busy = true;
                break;
            }
            Err(other) => panic!("expected Busy, got {other}"),
        }
    }
    let refused = handle.admission_stats().refused;
    assert!(
        saw_busy || refused > 0,
        "queue never refused: BUSY path untested (refused={refused})"
    );
    let _ = probe.quit();
    for h in backlog {
        h.join().unwrap();
    }

    assert_sessions_settle(&handle, 0);
    assert_drainable(handle);
}

#[test]
fn byte_at_a_time_request_still_parses() {
    // The inverse of slow-loris: a complete request delivered one byte at a
    // time must produce exactly one well-formed frame.
    let ctx = serving_context(39);
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();

    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    for b in format!("SQL {QUERY}\n").as_bytes() {
        raw.write_all(&[*b]).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("OK "),
        "bad status for trickled request: {line}"
    );
    let mut body = String::new();
    loop {
        body.clear();
        assert!(reader.read_line(&mut body).unwrap() > 0);
        if body.trim_end() == "." {
            break;
        }
    }
    raw.write_all(b"QUIT\n").unwrap();
    // Read until EOF so the close is graceful on both sides.
    let mut rest = String::new();
    let _ = reader.read_to_string(&mut rest);

    assert_sessions_settle(&handle, 0);
    assert_drainable(handle);
}

#[test]
fn a_cache_hit_answers_while_the_queue_refuses() {
    let ctx = serving_context(40);
    // One worker and a tiny queue, as in the BUSY test above.
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .with_workers(1)
        .with_queue_capacity(2)
        .spawn()
        .unwrap();
    let mut probe = VerdictClient::connect(handle.addr()).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    probe.sql(QUERY).unwrap();
    assert!(probe.sql(QUERY).unwrap().header.cached);

    // Keep the queue full with cache-bypassed statements until told to stop.
    let stop = Arc::new(AtomicBool::new(false));
    let mut backlog = Vec::new();
    for _ in 0..8 {
        let (addr, stop) = (handle.addr(), Arc::clone(&stop));
        backlog.push(std::thread::spawn(move || {
            let mut c = VerdictClient::connect(addr).unwrap();
            while !stop.load(Ordering::SeqCst) {
                match c.sql(&format!("BYPASS {QUERY}")) {
                    Ok(_) | Err(ClientError::Busy(_)) => {}
                    Err(other) => panic!("backlog statement failed: {other}"),
                }
            }
            let _ = c.quit();
        }));
    }
    let saw_busy = (0..500).any(|_| {
        matches!(
            probe.sql(&format!("BYPASS {QUERY}")),
            Err(ClientError::Busy(_))
        )
    });
    assert!(saw_busy, "the queue never refused: nothing was saturated");
    // A warmed SELECT is answered by the shard: no queue slot, so no BUSY,
    // and no shed tier.
    for _ in 0..50 {
        let hit = probe
            .sql(QUERY)
            .expect("a cache hit must not wait for the saturated queue");
        assert!(hit.header.cached);
        assert_eq!(hit.header.degraded, 0);
    }
    stop.store(true, Ordering::SeqCst);
    for h in backlog {
        h.join().unwrap();
    }
    let _ = probe.quit();
    assert_sessions_settle(&handle, 0);
    assert_drainable(handle);
}

/// A backend with only the three required methods, over an engine, that
/// panics on any statement naming `panic_marker`.
struct PanickingBackend(Engine);

impl Backend for PanickingBackend {
    fn execute(&self, sql: &str) -> EngineResult<QueryResult> {
        if sql.contains("panic_marker") {
            panic!("injected backend fault");
        }
        self.0.execute(sql)
    }

    fn table_row_count(&self, table: &str) -> EngineResult<u64> {
        self.0.table_row_count(table)
    }

    fn table_exists(&self, table: &str) -> bool {
        self.0.table_exists(table)
    }
}

#[test]
fn a_panicking_statement_is_an_error_frame_and_leaks_nothing() {
    let workers = 2;
    let conn: Arc<dyn Backend> = Arc::new(PanickingBackend(sales_engine(41)));
    let ctx = Arc::new(VerdictContext::new(conn, VerdictConfig::for_testing()));
    let handle = VerdictServer::bind("127.0.0.1:0", Arc::clone(&ctx))
        .unwrap()
        .with_workers(workers)
        .spawn()
        .unwrap();
    let connect = || {
        let mut c = VerdictClient::connect(handle.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        c
    };
    let count = "SELECT count(*) AS n FROM sales";
    let mut bystander = connect();
    assert_eq!(bystander.sql(count).unwrap().header.rows, 1);

    // More panics than workers: a worker that died with its statement would
    // leave the last one unanswered.
    for _ in 0..=workers {
        let mut victim = connect();
        match victim.sql("SELECT count(*) AS panic_marker FROM sales") {
            Err(ClientError::Server(msg)) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected an ERR frame, got {other:?}"),
        }
        // Its session is poisoned, so its connection is closed.
        assert!(victim.ping().is_err(), "a poisoned session kept serving");
    }

    assert_eq!(bystander.sql(count).unwrap().header.rows, 1);
    let mut fresh = connect();
    assert_eq!(fresh.sql(count).unwrap().header.rows, 1);
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.admission_stats().depth != 0 {
        assert!(Instant::now() < deadline, "admission slots leaked");
        std::thread::sleep(Duration::from_millis(10));
    }
    fresh.quit().unwrap();
    bystander.quit().unwrap();
    assert_sessions_settle(&handle, 0);
    assert_drainable(handle);
}
