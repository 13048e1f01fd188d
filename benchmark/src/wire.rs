//! `dashboard_wire`: an in-process `VerdictServer` with the default
//! `ServingConfig` over the large data and a 256-entry answer cache; one
//! closed-loop `VerdictClient` connection per core, each drawing from 64
//! dashboard statements by Zipf(1.1) and sending them in mangled spellings.
//! The working set fits the cache, so the server's event loop, protocol,
//! dispatch and admission, the SQL canonicaliser and the answer cache do
//! the work and the engine almost none — the mirror image of `adhoc_mix`.

use crate::adhoc::{accuracy_metrics, engine_truth, exact_leg, observe, open_session};
use crate::env::nproc;
use crate::grid::{accuracy, fingerprint, Grid};
use crate::json::Json;
use crate::report::{Checks, Outcome};
use crate::rng::{mangle, Rng, Zipf};
use crate::setup::{
    build_sql_env, config_json, dashboard_templates, rows_json, Query, SqlEnv, LARGE,
};
use crate::spec::DEFAULT_SEED;
use crate::stats::{geo_mean, median};
use std::time::{Duration, Instant};
use verdict_server::{ServerHandle, ServingConfig, VerdictClient, VerdictServer};

pub const CACHE_CAPACITY: usize = 256;
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Mangled spellings kept per statement; a request picks one at random.
pub const SPELLINGS: usize = 8;

pub struct WireEnv {
    /// Dropped first: stops the server and joins its threads.
    pub server: ServerHandle,
    pub sql: SqlEnv,
}

pub fn build_wire_env() -> Result<WireEnv, String> {
    let sql = build_sql_env(&LARGE, CACHE_CAPACITY)?;
    let server = VerdictServer::bind("127.0.0.1:0", sql.ctx.clone())
        .and_then(|s| s.spawn())
        .map_err(|e| format!("server: {e}"))?;
    Ok(WireEnv { server, sql })
}

pub fn serving_json(c: &ServingConfig) -> Json {
    Json::obj(vec![
        ("io_shards", Json::Num(c.io_shards as f64)),
        ("workers", Json::Num(c.workers as f64)),
        ("queue_capacity", Json::Num(c.queue_capacity as f64)),
        ("write_buffer_bytes", Json::Num(c.write_buffer_bytes as f64)),
    ])
}

/// The request stream's fixed parts: the statements, their spellings, and
/// which statement each Zipf rank stands for under this seed.
pub struct Traffic {
    pub templates: Vec<Query>,
    pub spellings: Vec<Vec<String>>,
    pub by_rank: Vec<usize>,
    pub zipf: Zipf,
}

impl Traffic {
    pub fn new(seed: u64) -> Traffic {
        let templates = dashboard_templates();
        let mut rng = Rng::fork(seed, 20);
        let spellings = templates
            .iter()
            .map(|q| (0..SPELLINGS).map(|_| mangle(&q.sql, &mut rng)).collect())
            .collect();
        let mut by_rank: Vec<usize> = (0..templates.len()).collect();
        rng.shuffle(&mut by_rank);
        let zipf = Zipf::new(templates.len(), ZIPF_EXPONENT);
        Traffic {
            templates,
            spellings,
            by_rank,
            zipf,
        }
    }

    /// The next request of one connection: `(statement index, text)`.
    pub fn draw(&self, rng: &mut Rng) -> (usize, &str) {
        let t = self.by_rank[self.zipf.sample(rng)];
        (t, &self.spellings[t][rng.below(SPELLINGS as u64) as usize])
    }
}

pub fn connect(server: &ServerHandle) -> Result<VerdictClient, String> {
    let mut client = VerdictClient::connect(server.addr()).map_err(|e| e.to_string())?;
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    client
        .sql("SET error_columns = on")
        .map_err(|e| e.to_string())?;
    Ok(client)
}

/// Answers every statement once in-process (clean spelling), which both
/// fills the cache and gives the reference each wire answer must equal.
pub fn reference_answers(
    env: &SqlEnv,
    templates: &[Query],
    seed: u64,
) -> Result<Vec<Grid>, String> {
    let mut session = open_session(env)?;
    let mut reference = Vec::with_capacity(templates.len());
    for q in templates {
        let seen = observe(&mut session, &q.sql).map_err(|e| format!("{}: {e}", q.id))?;
        if seen.exact && seed == DEFAULT_SEED {
            return Err(format!(
                "dashboard statement {} is not answered from a scramble",
                q.id
            ));
        }
        reference.push(seen.grid);
    }
    Ok(reference)
}

struct ClientLog {
    /// `(statement index, latency µs)` per completed request.
    latencies: Vec<(usize, f64)>,
    checks: Checks,
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let traffic = Traffic::new(seed);
    let started = Instant::now();
    let env = build_wire_env()?;
    out.metric("setup_s", started.elapsed().as_secs_f64());
    out.facts.push(("rows".into(), rows_json(&env.sql.rows)));
    out.facts
        .push(("config".into(), config_json(&env.sql.config)));
    out.facts
        .push(("serving".into(), serving_json(&ServingConfig::default())));

    let reference = reference_answers(&env.sql, &traffic.templates, seed)?;
    let fingerprints: Vec<u64> = reference.iter().map(Grid::fingerprint).collect();

    let connections = nproc();
    out.facts
        .push(("connections".into(), Json::Num(connections as f64)));
    let mut clients = Vec::with_capacity(connections);
    for _ in 0..connections {
        let mut client = connect(&env.server)?;
        for q in &traffic.templates {
            client
                .sql(&q.sql)
                .map_err(|e| format!("warm-up {}: {e}", q.id))?;
        }
        clients.push(client);
    }

    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (traffic, fingerprints) = (&traffic, &fingerprints);
                scope.spawn(move || {
                    let mut rng = Rng::fork(seed, 30 + c as u64);
                    let mut log = ClientLog {
                        latencies: Vec::with_capacity(1 << 17),
                        checks: Checks::default(),
                    };
                    while Instant::now() < deadline {
                        let (t, text) = traffic.draw(&mut rng);
                        let sent = Instant::now();
                        match client.sql(text) {
                            Ok(answer) => {
                                let us = sent.elapsed().as_secs_f64() * 1e6;
                                log.latencies.push((t, us));
                                let id = &traffic.templates[t].id;
                                log.checks.op(if answer.header.exact {
                                    Some(format!("{id} fell back to exact execution"))
                                } else if Grid::from_remote(&answer).fingerprint()
                                    != fingerprints[t]
                                {
                                    Some(format!("{id} over TCP differs from in-process"))
                                } else {
                                    None
                                });
                            }
                            Err(e) => log
                                .checks
                                .op(Some(format!("{}: {e}", traffic.templates[t].id))),
                        }
                    }
                    let _ = client.quit();
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();

    let mut all_us = Vec::new();
    let mut approx_us: Vec<Vec<f64>> = vec![Vec::new(); traffic.templates.len()];
    for log in logs {
        for (t, us) in log.latencies {
            all_us.push(us);
            approx_us[t].push(us);
        }
        out.checks.merge(log.checks);
    }
    out.samples.push(("requests", all_us.len() as u64));
    out.metric("op_p50_ms", median(&all_us) / 1e3);
    out.metric("stmts_per_s", all_us.len() as f64 / wall);

    // Exact leg over the same connection type: BYPASS on the wire.
    let truth = engine_truth(&env.sql.engine, &traffic.templates)?;
    let mut client = connect(&env.server)?;
    let exact = exact_leg(&traffic.templates, &truth, 1, &mut out.checks, |sql| {
        let sent = Instant::now();
        let answer = client.sql(sql).map_err(|e| e.to_string())?;
        let us = sent.elapsed().as_secs_f64() * 1e6;
        Ok((fingerprint(&answer.columns, &answer.rows), us))
    });
    let _ = client.quit();
    let exact_us = &exact.query_us;
    out.samples
        .push(("exact_passes", exact.pass_ms.len() as u64));
    out.metric("exact_pass_ms", median(&exact.pass_ms));

    let speedups: Vec<f64> = (0..traffic.templates.len())
        .filter(|&t| !approx_us[t].is_empty() && !exact_us[t].is_empty())
        .map(|t| median(&exact_us[t]) / median(&approx_us[t]))
        .collect();
    out.metric("speedup_geo", geo_mean(&speedups));
    let cells: Vec<_> = reference
        .iter()
        .zip(&truth)
        .flat_map(|(a, e)| accuracy(a, e).cells)
        .collect();
    let (rel, cover) = accuracy_metrics(&cells);
    out.samples.push(("accuracy_cells", cells.len() as u64));
    out.metric("actual_rel_error_med", rel);
    out.metric("ci_coverage", cover);
    Ok(out)
}
