//! Restart durability over the real wire: boot the `verdict-server` binary
//! with `--data-dir`, let it build scrambles, query it over TCP, **SIGKILL**
//! it, boot a fresh process on the same directory, and require
//!
//! * the replacement reports *restored* scrambles (cold-start serving, not
//!   a rebuild from base tables), and
//! * every recorded query answers **bit-identically** to its pre-kill
//!   answer.
//!
//! This is the end-to-end proof behind `docs/storage.md`: the WAL's commit
//! discipline plus the paged block format make a hard kill indistinguishable
//! from a graceful restart as far as answers are concerned.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use verdict_engine::Value;
use verdict_server::VerdictClient;

const ADDR: &str = "127.0.0.1:16711";

/// The query battery recorded before the kill and replayed after it.
const QUERIES: &[&str] = &[
    "SELECT count(*) AS n FROM order_products",
    "SELECT sum(price * quantity) AS rev, avg(price) AS ap FROM order_products",
    "SELECT count(*) AS n FROM orders WHERE order_dow <= 2",
    "SELECT reordered, count(*) AS n FROM order_products GROUP BY reordered ORDER BY reordered",
];

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("verdict_restart_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_server(data_dir: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_verdict-server"))
        .args([
            "--addr",
            ADDR,
            "--dataset",
            "instacart",
            "--scale",
            "0.02",
            "--seed",
            "7",
            "--data-dir",
            data_dir.to_str().expect("utf8 temp path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn verdict-server")
}

fn wait_until_serving(child: &mut Child, budget: Duration) {
    let deadline = Instant::now() + budget;
    loop {
        if let Ok(mut c) = VerdictClient::connect(ADDR) {
            if c.ping().is_ok() {
                let _ = c.quit();
                return;
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            let mut err = String::new();
            if let Some(mut s) = child.stderr.take() {
                let _ = s.read_to_string(&mut err);
            }
            panic!("server exited before serving: {status}\n{err}");
        }
        assert!(Instant::now() < deadline, "server never came up on {ADDR}");
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Drains a killed child's captured stdout (kill first — otherwise the read
/// blocks until the process exits on its own).
fn stdout_of(child: &mut Child) -> String {
    let mut out = String::new();
    if let Some(mut s) = child.stdout.take() {
        let _ = s.read_to_string(&mut out);
    }
    out
}

/// Exact variant-level equality: floats compare by bit pattern.  Both sides
/// travelled the same wire encoding, so any drift here is a real answer
/// difference, not formatting.
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

#[test]
fn sigkill_then_restart_serves_bit_identical_answers_over_tcp() {
    let dir = tempdir("tcp");

    // First life: boot on an empty data dir — the startup scrambles are
    // built fresh and persisted through the WAL as a side effect.
    let mut first = spawn_server(&dir);
    wait_until_serving(&mut first, Duration::from_secs(60));

    let mut client = VerdictClient::connect(ADDR).expect("connect");
    let before: Vec<_> = QUERIES
        .iter()
        .map(|q| client.sql(q).expect("query before kill"))
        .collect();
    drop(client);

    // Hard kill: no drain, no flush beyond what the WAL already forced.
    first.kill().expect("kill server");
    first.wait().expect("reap server");
    let first_out = stdout_of(&mut first);
    assert!(
        first_out.contains("scramble verdict_sample_"),
        "first life must have built scrambles:\n{first_out}"
    );

    // Second life: same directory.  Scrambles must come back from disk.
    let mut second = spawn_server(&dir);
    wait_until_serving(&mut second, Duration::from_secs(60));

    let mut client = VerdictClient::connect(ADDR).expect("reconnect");
    for (q, expected) in QUERIES.iter().zip(&before) {
        let after = client.sql(q).expect("query after restart");
        assert_eq!(expected.columns, after.columns, "{q}: columns differ");
        assert_eq!(expected.rows.len(), after.rows.len(), "{q}: row counts");
        for (r, (er, ar)) in expected.rows.iter().zip(&after.rows).enumerate() {
            for (c, (ev, av)) in er.iter().zip(ar).enumerate() {
                assert!(
                    values_bit_identical(ev, av),
                    "{q} ({r},{c}): {ev:?} vs {av:?}"
                );
            }
        }
    }

    // The replacement must be serving *restored* scrambles (cold start),
    // not freshly rebuilt ones, and its store counters must be visible.
    let stats = client.sql("SHOW STATS").expect("stats");
    let pages_read = stats
        .stat("store_pages_read")
        .expect("store counters in SHOW STATS");
    assert!(pages_read > 0, "restart must have read store pages");
    drop(client);

    second.kill().expect("kill second server");
    second.wait().expect("reap second server");
    let second_out = stdout_of(&mut second);
    assert!(
        second_out.contains("restored scramble verdict_sample_"),
        "second life must restore scrambles from the store:\n{second_out}"
    );
    assert!(
        !second_out.contains("\nscramble verdict_sample_"),
        "second life must not rebuild scrambles from base tables:\n{second_out}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
