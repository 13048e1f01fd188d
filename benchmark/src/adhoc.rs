//! `adhoc_mix` and `planner_bound`: one closed-loop client thread sending
//! the pinned tq-*/iq-* queries through `VerdictSession::execute`, answer
//! cache off.  The two workloads run the same statements and differ only in
//! [`Sizing`]: on the large data the engine's scan/join/group over scrambles
//! does the work; on the small data the statement pipeline around it does.

use crate::grid::{accuracy, Cell, Grid};
use crate::json::Json;
use crate::report::{Checks, Outcome};
use crate::rng::Rng;
use crate::setup::{
    build_sql_env, config_json, rows_json, workload_queries, Query, Sizing, SqlEnv,
};
use crate::spec::DEFAULT_SEED;
use crate::stats::{geo_mean, median};
use std::time::{Duration, Instant};
use verdict_core::VerdictSession;
use verdict_engine::Engine;

/// An open session with the interval half-widths switched on: the identity
/// checks and the coverage metric read the same answers.
pub fn open_session(env: &SqlEnv) -> Result<VerdictSession, String> {
    let mut session = VerdictSession::new(env.ctx.clone());
    session
        .execute("SET error_columns = on")
        .map_err(|e| e.to_string())?;
    Ok(session)
}

/// What one statement returned, reduced to what the checks need.
pub struct Observed {
    pub grid: Grid,
    pub fingerprint: u64,
    pub exact: bool,
    pub rows_scanned: u64,
    pub backend_stmts: usize,
    pub micros: f64,
}

pub fn observe(session: &mut VerdictSession, sql: &str) -> Result<Observed, String> {
    let started = Instant::now();
    let response = session.execute(sql).map_err(|e| e.to_string())?;
    let micros = started.elapsed().as_secs_f64() * 1e6;
    let answer = response.into_answer().map_err(|e| e.to_string())?;
    let grid = Grid::from_table(&answer.table);
    Ok(Observed {
        fingerprint: grid.fingerprint(),
        grid,
        exact: answer.exact,
        rows_scanned: answer.rows_scanned,
        backend_stmts: answer.rewritten_sql.len(),
        micros,
    })
}

/// The engine's own answer to each query: the truth for the error metrics,
/// and what every `BYPASS` answer must equal bit for bit.
pub fn engine_truth(engine: &Engine, queries: &[Query]) -> Result<Vec<Grid>, String> {
    queries
        .iter()
        .map(|q| {
            engine
                .execute_sql(&q.sql)
                .map(|result| Grid::from_table(&result.table))
                .map_err(|e| format!("{} on the engine: {e}", q.id))
        })
        .collect()
}

/// Latencies of the exact leg: per query in µs, per pass in ms.
pub struct ExactLeg {
    pub query_us: Vec<Vec<f64>>,
    pub pass_ms: Vec<f64>,
}

/// Sends `BYPASS <query>` for every query, `passes` times over, through
/// `bypass` (which returns the answer's fingerprint and the latency in µs),
/// and checks each answer against `truth`.
pub fn exact_leg(
    queries: &[Query],
    truth: &[Grid],
    passes: usize,
    checks: &mut Checks,
    mut bypass: impl FnMut(&str) -> Result<(u64, f64), String>,
) -> ExactLeg {
    let mut leg = ExactLeg {
        query_us: vec![Vec::new(); queries.len()],
        pass_ms: Vec::with_capacity(passes),
    };
    for _ in 0..passes {
        let mut total_us = 0.0;
        for (i, q) in queries.iter().enumerate() {
            match bypass(&format!("BYPASS {}", q.sql)) {
                Ok((fingerprint, us)) => {
                    total_us += us;
                    leg.query_us[i].push(us);
                    checks.op((fingerprint != truth[i].fingerprint())
                        .then(|| format!("BYPASS {} differs from Engine::execute_sql", q.id)));
                }
                Err(e) => checks.op(Some(format!("BYPASS {}: {e}", q.id))),
            }
        }
        leg.pass_ms.push(total_us / 1e3);
    }
    leg
}

/// Median actual relative error and interval coverage over `cells`.
pub fn accuracy_metrics(cells: &[Cell]) -> (f64, f64) {
    let rel: Vec<f64> = cells.iter().map(|c| c.actual_rel).collect();
    let covered = cells.iter().filter(|c| c.covered).count();
    (median(&rel), covered as f64 / cells.len().max(1) as f64)
}

pub fn run(
    sizing: &Sizing,
    exact_passes: usize,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (pinned, others) = workload_queries();

    let started = Instant::now();
    let env = build_sql_env(sizing, 0)?;
    out.metric("setup_s", started.elapsed().as_secs_f64());
    out.facts.push(("rows".into(), rows_json(&env.rows)));
    out.facts.push(("config".into(), config_json(&env.config)));

    // Warm-up pass in fixed order: the reference every timed pass must
    // reproduce bit for bit, and the answers the error metrics are taken on.
    let mut session = open_session(&env)?;
    let mut reference = Vec::with_capacity(pinned.len());
    for q in &pinned {
        let seen = observe(&mut session, &q.sql).map_err(|e| format!("{}: {e}", q.id))?;
        if seen.exact && seed == DEFAULT_SEED {
            return Err(format!(
                "set-up does not reproduce the pinned approximated set: {} fell back to exact",
                q.id
            ));
        }
        reference.push(seen);
    }
    let mut also_approximated = Vec::new();
    for q in &others {
        if !observe(&mut session, &q.sql)?.exact {
            also_approximated.push(Json::str(q.id.clone()));
        }
    }
    out.facts.push((
        "unpinned_but_approximated".into(),
        Json::Arr(also_approximated),
    ));

    // Timed passes: query order reshuffled by the seed each pass.
    let mut rng = Rng::fork(seed, 10);
    let mut order: Vec<usize> = (0..pinned.len()).collect();
    let mut approx_us: Vec<Vec<f64>> = vec![Vec::new(); pinned.len()];
    let mut pass_ms = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        rng.shuffle(&mut order);
        let mut total_us = 0.0;
        for &i in &order {
            let q = &pinned[i];
            match observe(&mut session, &q.sql) {
                Ok(seen) => {
                    total_us += seen.micros;
                    approx_us[i].push(seen.micros);
                    out.checks.op(if seen.exact {
                        Some(format!("{} fell back to exact execution", q.id))
                    } else if seen.fingerprint != reference[i].fingerprint {
                        Some(format!("{} changed between passes", q.id))
                    } else {
                        None
                    });
                }
                Err(e) => out.checks.op(Some(format!("{}: {e}", q.id))),
            }
        }
        pass_ms.push(total_us / 1e3);
    }
    out.samples.push(("passes", pass_ms.len() as u64));
    out.facts.push((
        "pass_ms".into(),
        Json::Arr(pass_ms.iter().map(|v| Json::Num(*v)).collect()),
    ));
    out.metric("op_p50_ms", median(&pass_ms));
    out.metric(
        "stmts_per_s",
        (pass_ms.len() * pinned.len()) as f64 / (pass_ms.iter().sum::<f64>() / 1e3),
    );

    // Exact leg, on the session the timed passes used.
    let truth = engine_truth(&env.engine, &pinned)?;
    let exact = exact_leg(&pinned, &truth, exact_passes, &mut out.checks, |sql| {
        observe(&mut session, sql).map(|seen| (seen.fingerprint, seen.micros))
    });
    let exact_us = &exact.query_us;
    out.samples
        .push(("exact_passes", exact.pass_ms.len() as u64));
    out.metric("exact_pass_ms", median(&exact.pass_ms));

    let mut speedups = Vec::new();
    let mut cells = Vec::new();
    println!(
        "{:<6} {:>10} {:>10} {:>8} {:>10} {:>10} {:>6} {:>5} {:>9}",
        "query",
        "exact_ms",
        "approx_ms",
        "speedup",
        "claimed",
        "actual",
        "cover",
        "stmts",
        "scanned"
    );
    for (i, q) in pinned.iter().enumerate() {
        let acc = accuracy(&reference[i].grid, &truth[i]);
        let (actual, cover) = accuracy_metrics(&acc.cells);
        let claimed = median(&acc.cells.iter().map(|c| c.claimed_rel).collect::<Vec<_>>());
        let (e, a) = (median(&exact_us[i]), median(&approx_us[i]));
        if e.is_finite() && a.is_finite() {
            speedups.push(e / a);
        }
        println!(
            "{:<6} {:>10.3} {:>10.3} {:>8.2} {:>10.5} {:>10.5} {:>6.2} {:>5} {:>9}",
            q.id,
            e / 1e3,
            a / 1e3,
            e / a,
            claimed,
            actual,
            cover,
            reference[i].backend_stmts,
            reference[i].rows_scanned
        );
        cells.extend(acc.cells);
    }
    out.metric("speedup_geo", geo_mean(&speedups));
    let (rel, cover) = accuracy_metrics(&cells);
    out.samples.push(("accuracy_cells", cells.len() as u64));
    out.metric("actual_rel_error_med", rel);
    out.metric("ci_coverage", cover);
    Ok(out)
}
