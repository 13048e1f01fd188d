//! `verdict-loadgen` — drives N concurrent protocol sessions against a
//! running `verdict-server` and reports throughput and tail latency.
//!
//! ```text
//! verdict-loadgen [--addr HOST:PORT] [--sessions N[,N,…]] [--requests M]
//!                 [--duration-secs S] [--sql SQL] [--stream] [--chaos P]
//!                 [--seed N] [--json-out FILE] [--shutdown]
//! ```
//!
//! Each session opens its own connection and issues `SQL` requests for the
//! same statement (default: a grouped average over the Instacart
//! `order_products` table — the dashboard-repeat shape the answer cache
//! targets).  `--sessions` takes a comma-separated list to sweep a
//! qps-vs-sessions curve (e.g. `--sessions 1,8,64,256,1024`); each point
//! runs either a fixed request count per session (`--requests`) or a fixed
//! wall-clock budget (`--duration-secs`, the sensible mode for large
//! session counts).  The report shows per-point qps plus p50/p99 request
//! latency, and `--json-out FILE` writes the sweep to `FILE` with the box it
//! ran on (CPU model, core count, `rustc`; the committed curve is
//! `BENCH_serving.json`).
//!
//! Alongside the client-measured latencies, each point scrapes the server's
//! own statement-duration histogram (`SHOW METRICS`) immediately before and
//! after the run and reports **server-side** p50/p99 computed from the
//! bucket-count deltas — the gap between the two is queueing plus wire
//! time.  Server percentiles are bucket upper bounds (power-of-two µs), so
//! they are coarser than the client's exact samples; a point where the
//! scrape fails (server mid-restart) reports them as 0.
//!
//! `--chaos P` injects a fault mix with probability `P` per iteration:
//! abrupt disconnects (no `QUIT`, immediate reconnect) and
//! deadline-exceeding statements (`SET deadline_ms = 1` on a cache-bypassed
//! query, expecting a typed `DEADLINE` refusal).  `--shutdown` ends the run
//! by sending the `SHUTDOWN` verb and waiting for the server to finish its
//! graceful drain — useful for soak tests that assert a clean exit.
//!
//! With `--stream`, every request is a multi-frame `SQL STREAM <query>`:
//! sessions hold their connection open while frames arrive, which exercises
//! the server under long-lived, interleaved multi-frame responses.
//!
//! `--restart-mid-run "CMD ARGS…"` makes the loadgen manage the server
//! process itself: it spawns the given server command, waits until it
//! serves, runs the workload — and halfway through the run SIGKILLs the
//! server and respawns the same command, measuring **recovery time to
//! first answer**: wall-clock from the kill to the first successful
//! response from the restarted process.  Pointed at a `--data-dir` server
//! this measures WAL recovery plus cold-start scramble serving under live
//! traffic (sessions reconnect with patience across the outage).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use verdict_engine::Value;
use verdict_server::{ClientError, VerdictClient};

struct Options {
    addr: String,
    sessions: Vec<usize>,
    requests: usize,
    duration: Option<Duration>,
    sql: String,
    stream: bool,
    chaos: f64,
    seed: u64,
    json_out: Option<String>,
    shutdown: bool,
    restart_cmd: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:6688".into(),
            sessions: vec![4],
            requests: 200,
            duration: None,
            sql: "SELECT quantity, avg(price) AS ap FROM order_products \
                  GROUP BY quantity ORDER BY quantity"
                .into(),
            stream: false,
            chaos: 0.0,
            seed: 0x10adc3,
            json_out: None,
            shutdown: false,
            restart_cmd: None,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--sessions" => {
                opts.sessions = value("--sessions")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("bad --sessions: {e}")))
                    .collect::<Result<_, _>>()?;
                if opts.sessions.is_empty() {
                    return Err("--sessions needs at least one count".into());
                }
            }
            "--requests" => {
                opts.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad --requests: {e}"))?
            }
            "--duration-secs" => {
                let secs: f64 = value("--duration-secs")?
                    .parse()
                    .map_err(|e| format!("bad --duration-secs: {e}"))?;
                opts.duration = Some(Duration::from_secs_f64(secs.max(0.01)));
            }
            "--sql" => opts.sql = value("--sql")?,
            "--stream" => opts.stream = true,
            "--chaos" => {
                opts.chaos = value("--chaos")?
                    .parse()
                    .map_err(|e| format!("bad --chaos: {e}"))?;
                if !(0.0..=1.0).contains(&opts.chaos) {
                    return Err("--chaos must be in [0, 1]".into());
                }
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--json-out" => opts.json_out = Some(value("--json-out")?),
            "--shutdown" => opts.shutdown = true,
            "--restart-mid-run" => {
                let cmd = value("--restart-mid-run")?;
                if cmd.trim().is_empty() {
                    return Err("--restart-mid-run needs a server command".into());
                }
                opts.restart_cmd = Some(cmd);
            }
            "--help" | "-h" => {
                println!(
                    "usage: verdict-loadgen [--addr HOST:PORT] [--sessions N[,N,…]] \
                     [--requests M] [--duration-secs S] [--sql SQL] [--stream] \
                     [--chaos P] [--seed N] [--json-out FILE] [--shutdown] \
                     [--restart-mid-run \"SERVER CMD…\"]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

/// Tiny deterministic PRNG (LCG) so chaos runs are reproducible per seed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn chance(&mut self, p: f64) -> bool {
        (self.next() % 1_000_000) as f64 / 1_000_000.0 < p
    }
}

#[derive(Default)]
struct SessionOutcome {
    ok: u64,
    busy: u64,
    deadline: u64,
    disconnects: u64,
    errors: u64,
    latencies_us: Vec<u64>,
}

/// One measured point of the qps-vs-sessions curve.
struct Point {
    sessions: usize,
    wall_secs: f64,
    ok: u64,
    busy: u64,
    deadline: u64,
    disconnects: u64,
    errors: u64,
    qps: f64,
    p50_us: u64,
    p99_us: u64,
    server_p50_us: u64,
    server_p99_us: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Parses one `verdict_statement_duration_us_bucket{…,le="…"} N` exposition
/// line into `(le_bound_us, cumulative_count)`.  `+Inf` maps to `u64::MAX`
/// so the bucket map stays ordered with the open bucket last.
fn parse_bucket_line(line: &str) -> Option<(u64, u64)> {
    let rest = line.strip_prefix("verdict_statement_duration_us_bucket{")?;
    let le_start = rest.find("le=\"")? + 4;
    let le_end = le_start + rest[le_start..].find('"')?;
    let le = match &rest[le_start..le_end] {
        "+Inf" => u64::MAX,
        s => s.parse().ok()?,
    };
    let count: u64 = rest.rsplit(' ').next()?.trim().parse().ok()?;
    Some((le, count))
}

/// Scrapes the server's statement-duration histogram over `SHOW METRICS`,
/// summing cumulative bucket counts across statement classes (every class
/// series shares the same bucket bounds, so the sum is still cumulative).
fn scrape_statement_buckets(addr: &str) -> Option<BTreeMap<u64, u64>> {
    let mut client = VerdictClient::connect(addr).ok()?;
    let answer = client.sql("SHOW METRICS").ok()?;
    let _ = client.quit();
    let mut buckets = BTreeMap::new();
    for row in &answer.rows {
        if let Some(Value::Str(line)) = row.first() {
            if let Some((le, count)) = parse_bucket_line(line) {
                *buckets.entry(le).or_insert(0u64) += count;
            }
        }
    }
    Some(buckets)
}

/// A percentile from the delta of two cumulative bucket scrapes: the upper
/// bound of the bucket holding the target rank (the `+Inf` bucket reports
/// the largest finite bound).  Counter resets (server restarted mid-point)
/// saturate to partial-but-non-negative deltas.
fn bucket_percentile(before: &BTreeMap<u64, u64>, after: &BTreeMap<u64, u64>, p: f64) -> u64 {
    let deltas: Vec<(u64, u64)> = after
        .iter()
        .map(|(&le, &c)| (le, c.saturating_sub(before.get(&le).copied().unwrap_or(0))))
        .collect();
    let total = deltas.last().map_or(0, |&(_, c)| c);
    if total == 0 {
        return 0;
    }
    let rank = ((p * total as f64).ceil() as u64).max(1);
    let mut last_finite = 0u64;
    for (le, cum) in deltas {
        if le != u64::MAX {
            last_finite = le;
        }
        if cum >= rank {
            return if le == u64::MAX { last_finite } else { le };
        }
    }
    last_finite
}

/// Reconnects to the server, retrying for up to `patience` (the server may
/// be mid-restart when `--restart-mid-run` is active).
fn reconnect(addr: &str, patience: Duration) -> Option<VerdictClient> {
    let t0 = Instant::now();
    loop {
        match VerdictClient::connect(addr) {
            Ok(c) => return Some(c),
            Err(_) if t0.elapsed() < patience => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => return None,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_session(
    addr: &str,
    sql: &str,
    stream: bool,
    requests: usize,
    deadline: Option<Instant>,
    chaos: f64,
    seed: u64,
    patience: Duration,
) -> SessionOutcome {
    let mut out = SessionOutcome::default();
    let mut rng = Lcg(seed);
    let mut client = match reconnect(addr, patience) {
        Some(c) => c,
        None => {
            out.errors += 1;
            return out;
        }
    };
    let mut sent = 0usize;
    loop {
        match deadline {
            Some(d) => {
                if Instant::now() >= d {
                    break;
                }
            }
            None => {
                if sent >= requests {
                    break;
                }
            }
        }
        sent += 1;
        if chaos > 0.0 && rng.chance(chaos) {
            if rng.chance(0.5) {
                // Abrupt disconnect: drop the socket with no QUIT, then
                // come back as a brand-new session.
                drop(client);
                out.disconnects += 1;
                match reconnect(addr, patience) {
                    Some(c) => client = c,
                    None => {
                        out.errors += 1;
                        return out;
                    }
                }
                continue;
            }
            // Deadline-exceeding statement: a 1 ms deadline on a
            // cache-bypassed query, expecting a typed DEADLINE refusal.
            // (The SET itself can be refused BUSY under load; skip the
            // probe in that case.)
            if client.sql("SET deadline_ms = 1").is_ok() {
                match client.sql(&format!("BYPASS {sql}")) {
                    Ok(_) => {}
                    Err(ClientError::Deadline(_)) => out.deadline += 1,
                    Err(ClientError::Busy(_)) => out.busy += 1,
                    Err(_) => out.errors += 1,
                }
            }
            // Reconnect to restore default options: an in-band reset SET
            // would itself run under the 1 ms deadline and miss it.
            drop(client);
            match reconnect(addr, patience) {
                Some(c) => client = c,
                None => {
                    out.errors += 1;
                    return out;
                }
            }
            continue;
        }
        let t0 = Instant::now();
        let result = if stream {
            client.stream(sql).map(|_| ())
        } else {
            client.sql(sql).map(|_| ())
        };
        match result {
            Ok(()) => {
                out.ok += 1;
                out.latencies_us.push(t0.elapsed().as_micros() as u64);
            }
            Err(ClientError::Busy(_)) => out.busy += 1,
            Err(ClientError::Deadline(_)) => out.deadline += 1,
            Err(ClientError::Disconnected(_)) => {
                out.disconnects += 1;
                match reconnect(addr, patience) {
                    Some(c) => client = c,
                    None => return out,
                }
            }
            Err(_) => out.errors += 1,
        }
    }
    let _ = client.quit();
    out
}

fn run_point(opts: &Options, sessions: usize) -> Point {
    let before_buckets = scrape_statement_buckets(&opts.addr);
    let start = Instant::now();
    let wall_deadline = opts.duration.map(|d| start + d);
    // Sessions must survive the managed server's restart window.
    let patience = if opts.restart_cmd.is_some() {
        Duration::from_secs(30)
    } else {
        Duration::from_millis(500)
    };
    let outcomes: Vec<SessionOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|sid| {
                let addr = &opts.addr;
                let sql = &opts.sql;
                let seed = opts
                    .seed
                    .wrapping_add(sid as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15);
                scope.spawn(move || {
                    run_session(
                        addr,
                        sql,
                        opts.stream,
                        opts.requests,
                        wall_deadline,
                        opts.chaos,
                        seed,
                        patience,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();
    let after_buckets = scrape_statement_buckets(&opts.addr);
    let (server_p50_us, server_p99_us) = match (&before_buckets, &after_buckets) {
        (Some(before), Some(after)) => (
            bucket_percentile(before, after, 0.50),
            bucket_percentile(before, after, 0.99),
        ),
        _ => (0, 0),
    };
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let ok: u64 = outcomes.iter().map(|o| o.ok).sum();
    Point {
        sessions,
        wall_secs,
        ok,
        busy: outcomes.iter().map(|o| o.busy).sum(),
        deadline: outcomes.iter().map(|o| o.deadline).sum(),
        disconnects: outcomes.iter().map(|o| o.disconnects).sum(),
        errors: outcomes.iter().map(|o| o.errors).sum(),
        qps: ok as f64 / wall_secs.max(1e-9),
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        server_p50_us,
        server_p99_us,
    }
}

/// The machine the sweep ran on: CPU model, core count and the `rustc` on
/// the path.  Milliseconds do not travel between boxes, so a committed
/// curve carries its own.
fn box_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let quoted = |s: &str| format!("\"{}\"", s.replace(['"', '\\'], ""));
    format!(
        "{{ \"cpu\": {}, \"nproc\": {nproc}, \"rustc\": {} }}",
        quoted(&cpu),
        quoted(&rustc)
    )
}

/// The sweep as a JSON document of its own, one point per line.
fn sweep_json(opts: &Options, points: &[Point]) -> String {
    let mut json = String::from("{\n  \"generated_by\": \"verdict-loadgen\",\n");
    json.push_str(&format!("  \"box\": {},\n", box_json()));
    json.push_str(&format!("  \"chaos\": {:.3},\n", opts.chaos));
    json.push_str(&format!("  \"stream\": {},\n", opts.stream));
    match opts.duration {
        Some(d) => json.push_str(&format!("  \"duration_secs\": {:.3},\n", d.as_secs_f64())),
        None => json.push_str(&format!("  \"requests_per_session\": {},\n", opts.requests)),
    }
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"sessions\": {}, \"wall_secs\": {:.3}, \"qps\": {:.0}, \
             \"p50_us\": {}, \"p99_us\": {}, \
             \"server_p50_us\": {}, \"server_p99_us\": {}, \
             \"ok\": {}, \"busy\": {}, \"deadline\": {}, \"disconnects\": {}, \
             \"errors\": {} }}{}\n",
            p.sessions,
            p.wall_secs,
            p.qps,
            p.p50_us,
            p.p99_us,
            p.server_p50_us,
            p.server_p99_us,
            p.ok,
            p.busy,
            p.deadline,
            p.disconnects,
            p.errors,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// Spawns the managed server process for `--restart-mid-run` (command split
/// on whitespace; stdout silenced so the loadgen report stays readable).
fn spawn_server(cmd: &str) -> std::process::Child {
    let mut parts = cmd.split_whitespace();
    let bin = parts.next().expect("validated non-empty");
    match std::process::Command::new(bin)
        .args(parts)
        .stdout(std::process::Stdio::null())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => {
            eprintln!("verdict-loadgen: cannot spawn server `{cmd}`: {e}");
            std::process::exit(1);
        }
    }
}

/// Polls until the server at `addr` answers a PING, within `budget`.
fn wait_until_serving(addr: &str, budget: Duration) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < budget {
        if let Ok(mut c) = VerdictClient::connect(addr) {
            if c.ping().is_ok() {
                let _ = c.quit();
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

fn cache_line(client: &mut VerdictClient) -> String {
    match client.sql("SHOW STATS") {
        Ok(s) => {
            let stat = |name| s.stat(name).map_or_else(|| "?".into(), |v| v.to_string());
            format!(
                "hits={} misses={} entries={} sessions_active={} shed={} refused={}",
                stat("cache_hits"),
                stat("cache_misses"),
                stat("cache_entries"),
                stat("sessions_active"),
                stat("queries_shed"),
                stat("queries_refused"),
            )
        }
        Err(e) => format!("unavailable ({e})"),
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("verdict-loadgen: {e}");
            std::process::exit(2);
        }
    };

    // With --restart-mid-run the loadgen owns the server process.
    let managed: Option<std::sync::Arc<std::sync::Mutex<std::process::Child>>> =
        opts.restart_cmd.as_ref().map(|cmd| {
            let child = spawn_server(cmd);
            if !wait_until_serving(&opts.addr, Duration::from_secs(60)) {
                eprintln!(
                    "verdict-loadgen: managed server never came up at {}",
                    opts.addr
                );
                std::process::exit(1);
            }
            std::sync::Arc::new(std::sync::Mutex::new(child))
        });

    let mut probe = match VerdictClient::connect(&opts.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("verdict-loadgen: cannot connect to {}: {e}", opts.addr);
            std::process::exit(1);
        }
    };
    println!("server before: {}", cache_line(&mut probe));

    // Kill-and-respawn fires from a side thread while the workload runs;
    // the measurement is wall-clock from SIGKILL to the first successful
    // answer out of the restarted process (WAL recovery + cold start +
    // first query, under live reconnecting traffic).
    let restart_handle = managed.as_ref().map(|child| {
        let child = std::sync::Arc::clone(child);
        let cmd = opts.restart_cmd.clone().expect("managed implies cmd");
        let addr = opts.addr.clone();
        let sql = opts.sql.clone();
        let delay = opts
            .duration
            .map(|d| d / 2)
            .unwrap_or(Duration::from_secs(1));
        std::thread::spawn(move || -> Option<Duration> {
            std::thread::sleep(delay);
            let t0 = Instant::now();
            {
                let mut c = child.lock().expect("child lock");
                let _ = c.kill();
                let _ = c.wait();
                *c = spawn_server(&cmd);
            }
            while t0.elapsed() < Duration::from_secs(120) {
                if let Ok(mut probe) = VerdictClient::connect(&addr) {
                    if probe.sql(&sql).is_ok() {
                        let _ = probe.quit();
                        return Some(t0.elapsed());
                    }
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            None
        })
    });

    let mut points = Vec::with_capacity(opts.sessions.len());
    println!(
        "| sessions | q/s | p50 (µs) | p99 (µs) | srv p50 (µs) | srv p99 (µs) \
         | ok | busy | deadline | disconnects | errors |"
    );
    println!(
        "|---------:|----:|---------:|---------:|-------------:|-------------:\
         |---:|-----:|---------:|------------:|-------:|"
    );
    for &n in &opts.sessions {
        let p = run_point(&opts, n);
        println!(
            "| {} | {:.0} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            p.sessions,
            p.qps,
            p.p50_us,
            p.p99_us,
            p.server_p50_us,
            p.server_p99_us,
            p.ok,
            p.busy,
            p.deadline,
            p.disconnects,
            p.errors
        );
        points.push(p);
    }

    if let Some(handle) = restart_handle {
        match handle.join().expect("restart thread panicked") {
            Some(d) => println!(
                "restart mid-run: recovery to first answer {} ms",
                d.as_millis()
            ),
            None => {
                eprintln!("verdict-loadgen: restarted server never answered");
                std::process::exit(1);
            }
        }
        // The pre-restart probe connection died with the old process.
        match reconnect(&opts.addr, Duration::from_secs(5)) {
            Some(c) => probe = c,
            None => {
                eprintln!("verdict-loadgen: cannot reconnect after restart");
                std::process::exit(1);
            }
        }
    }

    println!("server after: {}", cache_line(&mut probe));
    let _ = probe.quit();

    if let Some(path) = &opts.json_out {
        match std::fs::write(path, sweep_json(&opts, &points)) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("verdict-loadgen: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if opts.shutdown {
        // Graceful drain: the acknowledgement arrives immediately; the
        // subsequent read observing a clean close is the drain completing.
        match VerdictClient::connect(&opts.addr) {
            Ok(mut c) => {
                if let Err(e) = c.shutdown_server() {
                    eprintln!("verdict-loadgen: SHUTDOWN failed: {e}");
                    std::process::exit(1);
                }
                match c.ping() {
                    // Any failure after the SHUTDOWN acknowledgement means
                    // the connection went down with the drain (surfaced as
                    // Disconnected, a SHUTDOWN-typed refusal, or a raw
                    // broken-pipe io error depending on timing).
                    Err(_) => println!("server drained"),
                    Ok(()) => println!("server acknowledged drain (still flushing)"),
                }
            }
            Err(e) => {
                eprintln!("verdict-loadgen: cannot connect for shutdown: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(child) = managed {
        let mut c = child.lock().expect("child lock");
        if opts.shutdown {
            // The drain above stops the managed process; reap it cleanly.
            let _ = c.wait();
        } else {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}
