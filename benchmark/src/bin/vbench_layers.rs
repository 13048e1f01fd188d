//! Traced run: per-layer numbers for one workload.
//!
//! ```text
//! vbench_layers --workload <name> --seed <n> --seconds <s> --trace 1 [--out <dir>]
//! ```
//!
//! Every workload's traced run has the same three parts, so that every
//! per-layer metric is measured on every workload, on that workload's data:
//!
//! 1. the workload itself, replayed at about a fifth of its length, first
//!    with spans off and then with a root span per statement (request, cycle)
//!    through the product path and child spans around a replay of each public
//!    layer function on the same input — `trace-<workload>.jsonl`, the
//!    `share.*` metrics, the tiling check and `bench.trace_overhead_pct`;
//! 2. statement probes over the workload's distinct statements;
//! 3. the store cycle and the server probe.  For `stream_refresh` the store
//!    cycle *is* part 1; the other workloads run a few cycles of it over
//!    `order_products`/`orders`.  For `dashboard_wire` the server is the
//!    workload's own; the others spawn one over their context.
//!
//! This is the only file that calls below the SQL surface
//! (`analyze_query`, `SamplePlanner::plan`, `rewrite`, `assemble`,
//! `print_statement`, `protocol::*`, `Backend::open_block_scan`, `Store`).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use verdict_benchmark::adhoc::{accuracy_metrics, observe, open_session};
use verdict_benchmark::env::{self, nproc, TempDir};
use verdict_benchmark::grid::{accuracy, Grid};
use verdict_benchmark::json::Json;
use verdict_benchmark::report::{self, Checks, Outcome};
use verdict_benchmark::rng::Rng;
use verdict_benchmark::setup::{self, build_sql_env, workload_queries, Query, Sizing, SqlEnv};
use verdict_benchmark::spans::{SpanId, Tracer};
use verdict_benchmark::stats::{median, percentile_sorted, sorted, tail_percentile};
use verdict_benchmark::stream::{events_spec, CycleTimes, NoSpans, StepSpans, StoreEnv, StoreSpec};
use verdict_benchmark::wire::{self, Traffic};
use verdict_benchmark::{args, spec};
use verdict_core::answer::assemble;
use verdict_core::planner::{PlanningContext, SamplePlanner};
use verdict_core::rewrite::{analyze_query, rewrite};
use verdict_core::{CacheStats, VerdictConfig, VerdictContext, VerdictSession};
use verdict_engine::{Engine, ScanSource, Table};
use verdict_server::protocol::{self, FrameHeader};
use verdict_server::{ServerHandle, VerdictClient, VerdictServer};
use verdict_sql::{canonical_sql, parse_statement, print_statement, Statement};

type Metrics = BTreeMap<&'static str, f64>;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Answer-cache hits over lookups between two `cache_stats()` readings
/// (0 when nothing was looked up, as in a session with the cache off).
fn hit_ratio(before: CacheStats, after: CacheStats) -> f64 {
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    (after.hits - before.hits) as f64 / lookups.max(1) as f64
}

// ---------------------------------------------------------------------------
// Replay of the public stage functions on one statement
// ---------------------------------------------------------------------------

/// Time spent in each public stage function when one statement is replayed
/// outside the product path, in µs, plus what the replay saw.
#[derive(Debug, Clone, Copy, Default)]
struct Stages {
    parse: f64,
    analyze: f64,
    plan: f64,
    rewrite: f64,
    print: f64,
    /// `Engine::execute_sql` over every rewritten statement (its own parse of
    /// the rewritten text included).
    exec: f64,
    /// `parse_statement` over every rewritten statement: what the in-process
    /// engine pays a second time, measured on its own.
    reparse: f64,
    assemble: f64,
    rewritten_bytes: f64,
    backend_stmts: f64,
    rows_scanned: f64,
}

impl Stages {
    /// The stages that tile `VerdictSession::execute` (`reparse` lies inside
    /// `exec` and is not added again).
    fn tiled(&self) -> f64 {
        self.parse
            + self.analyze
            + self.plan
            + self.rewrite
            + self.print
            + self.exec
            + self.assemble
    }

    fn sql(&self) -> f64 {
        self.parse + self.print + self.reparse
    }

    fn core(&self) -> f64 {
        self.analyze + self.plan + self.rewrite + self.assemble
    }

    fn engine(&self) -> f64 {
        self.exec - self.reparse
    }
}

/// What the replay needs of a set-up.
struct Replayer<'a> {
    engine: &'a Engine,
    ctx: &'a VerdictContext,
    cfg: VerdictConfig,
}

impl Replayer<'_> {
    /// Replays `sql` stage by stage under `parent`, mirroring what
    /// `VerdictContext` does between parse and assemble.  A statement the
    /// middleware would pass through is replayed as parse + exact execution.
    fn replay(
        &self,
        tr: &mut Tracer,
        root: u64,
        parent: SpanId,
        sql: &str,
    ) -> Result<Stages, String> {
        let mut st = Stages::default();
        let p = Some(parent);
        let (stmt, us) = tr.leaf(root, p, "sql.parse", || parse_statement(sql));
        st.parse = us;
        let stmt = stmt.map_err(|e| format!("{sql}: {e}"))?;
        let rewritten = match &stmt {
            Statement::Query(query) => {
                let (analysis, us) = tr.leaf(root, p, "core.analyze", || analyze_query(query));
                st.analyze = us;
                analysis.ok().and_then(|analysis| {
                    let (plan, us) = tr.leaf(root, p, "core.plan", || {
                        let mut rows = std::collections::HashMap::new();
                        for t in &analysis.tables {
                            let n = self.ctx.connection().table_row_count(&t.table).ok()?;
                            rows.insert(t.table.to_ascii_lowercase(), n);
                        }
                        Some(SamplePlanner::new(self.ctx.meta(), &self.cfg).plan(
                            &analysis.table_refs(&rows),
                            &PlanningContext {
                                group_columns: analysis.group_column_names(),
                                distinct_columns: analysis.distinct_column_names(),
                                io_budget: self.cfg.io_budget,
                            },
                        ))
                    });
                    st.plan = us;
                    let plan = plan.filter(|p| p.uses_samples())?;
                    let (out, us) = tr.leaf(root, p, "core.rewrite", || {
                        rewrite(&analysis, &plan, &self.cfg)
                    });
                    st.rewrite = us;
                    out.ok()
                })
            }
            _ => None,
        };
        let Some(rewritten) = rewritten else {
            let (result, us) = tr.leaf(root, p, "engine.exec", || self.engine.execute_sql(sql));
            let result = result.map_err(|e| format!("{sql}: {e}"))?;
            st.exec = us;
            st.backend_stmts = 1.0;
            st.rewritten_bytes = sql.len() as f64;
            st.rows_scanned = result.stats.rows_scanned as f64;
            return Ok(st);
        };
        let run = |tr: &mut Tracer,
                   st: &mut Stages,
                   part: Option<&Statement>|
         -> Result<Option<Table>, String> {
            let Some(part) = part else {
                return Ok(None);
            };
            let (text, us) = tr.leaf(root, p, "sql.print", || {
                print_statement(part, self.ctx.dialect())
            });
            st.print += us;
            let (result, us) = tr.leaf(root, p, "engine.exec", || self.engine.execute_sql(&text));
            st.exec += us;
            let result = result.map_err(|e| format!("{text}: {e}"))?;
            let (_, us) = tr.leaf(root, p, "sql.reparse", || parse_statement(&text));
            st.reparse += us;
            st.backend_stmts += 1.0;
            st.rewritten_bytes += text.len() as f64;
            st.rows_scanned += result.stats.rows_scanned as f64;
            Ok(Some(result.table))
        };
        let mean = run(tr, &mut st, rewritten.mean_query.as_ref())?;
        let distinct = run(
            tr,
            &mut st,
            rewritten.distinct_query.as_ref().map(|(s, _)| s),
        )?;
        let extreme = run(tr, &mut st, rewritten.extreme_query.as_ref())?;
        let (assembled, us) = tr.leaf(root, p, "core.assemble", || {
            assemble(
                &rewritten,
                mean.as_ref(),
                distinct.as_ref(),
                extreme.as_ref(),
                &self.cfg,
            )
        });
        st.assemble = us;
        assembled.map_err(|e| format!("assemble {sql}: {e}"))?;
        Ok(st)
    }
}

/// Mean over statements of the median over repetitions of one stage.
fn stage_mean(reps: &[Vec<Stages>], f: impl Fn(&Stages) -> f64) -> f64 {
    let per_stmt: Vec<f64> = reps
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| median(&r.iter().map(&f).collect::<Vec<_>>()))
        .collect();
    per_stmt.iter().sum::<f64>() / per_stmt.len().max(1) as f64
}

/// For workloads whose part 1 does not replay statements: three product-path
/// executions and three stage replays of each statement, outside any trace.
/// Returns the replays and the median `VerdictSession::execute` time, µs.
fn probe_replays(
    session: &mut VerdictSession,
    replayer: &Replayer,
    statements: &[Query],
) -> Result<(Vec<Vec<Stages>>, Vec<f64>), String> {
    let mut reps = Vec::with_capacity(statements.len());
    let mut session_us = Vec::with_capacity(statements.len());
    let mut scratch = Tracer::new();
    for q in statements {
        let mut runs = Vec::new();
        let mut us = Vec::new();
        for _ in 0..3 {
            us.push(observe(session, &q.sql)?.micros);
            let root = scratch.open(0, None, "probe");
            runs.push(replayer.replay(&mut scratch, 0, root, &q.sql)?);
            scratch.close(root);
        }
        session_us.push(median(&us));
        reps.push(runs);
    }
    Ok((reps, session_us))
}

fn stage_metrics(m: &mut Metrics, reps: &[Vec<Stages>]) {
    m.insert("sql.parse_us", stage_mean(reps, |s| s.parse));
    m.insert("sql.print_us", stage_mean(reps, |s| s.print));
    m.insert("sql.reparse_us", stage_mean(reps, |s| s.reparse));
    m.insert(
        "sql.rewritten_bytes",
        stage_mean(reps, |s| s.rewritten_bytes),
    );
    m.insert("core.analyze_us", stage_mean(reps, |s| s.analyze));
    m.insert("core.plan_us", stage_mean(reps, |s| s.plan));
    m.insert("core.rewrite_us", stage_mean(reps, |s| s.rewrite));
    m.insert("core.assemble_us", stage_mean(reps, |s| s.assemble));
    m.insert(
        "core.backend_stmts_per_query",
        stage_mean(reps, |s| s.backend_stmts),
    );
    m.insert("engine.exec_us", stage_mean(reps, |s| s.exec));
    let rows: f64 = reps.iter().flatten().map(|s| s.rows_scanned).sum();
    let secs: f64 = reps.iter().flatten().map(|s| s.exec).sum::<f64>() / 1e6;
    m.insert("engine.rows_per_s", rows / secs);
}

// ---------------------------------------------------------------------------
// Part 2: statement probes
// ---------------------------------------------------------------------------

/// One statement run exactly on the engine, original text.
struct ExactRun {
    micros: f64,
    rows_scanned: u64,
    answer: Grid,
}

/// Probes that need only a context, its engine and a statement list.
/// `candidates` is the list `core.sampled_ratio` is taken over (all 33
/// tq-*/iq-* queries for the two query workloads).
fn statement_probes(
    m: &mut Metrics,
    env_ctx: &Arc<VerdictContext>,
    engine: &Engine,
    statements: &[Query],
    candidates: &[Query],
    reps: &[Vec<Stages>],
    session_us: &[f64],
) -> Result<Vec<ExactRun>, String> {
    stage_metrics(m, reps);
    m.insert(
        "core.session_self_us",
        mean(session_us) - m["engine.exec_us"],
    );

    let canonical: Vec<f64> = statements
        .iter()
        .map(|q| {
            median(
                &(0..5)
                    .map(|_| {
                        let t = Instant::now();
                        std::hint::black_box(canonical_sql(std::hint::black_box(&q.sql)).ok());
                        us_since(t)
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    m.insert("sql.canonical_us", mean(&canonical));

    // Hot-key execute: a session that leaves the cache on.
    let mut hot = VerdictSession::new(env_ctx.clone());
    hot.execute("SET error_columns = on")
        .map_err(|e| e.to_string())?;
    let mut hits = Vec::new();
    for q in statements {
        hot.execute(&q.sql).map_err(|e| format!("{}: {e}", q.id))?;
        let mut us = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            let answer = hot.execute(&q.sql).and_then(|r| r.into_answer());
            us.push(us_since(t));
            if !answer.map_err(|e| e.to_string())?.cached {
                return Err(format!("{} was not served from the answer cache", q.id));
            }
        }
        hits.push(median(&us));
    }
    m.insert("core.cache_hit_us", mean(&hits));

    // Exact execution of the original text: rows and time the scrambles save.
    let mut cold = VerdictSession::new(env_ctx.clone());
    cold.execute("SET cache = off").map_err(|e| e.to_string())?;
    let mut sampled = 0usize;
    for q in candidates {
        sampled += !observe(&mut cold, &q.sql)?.exact as usize;
    }
    m.insert(
        "core.sampled_ratio",
        sampled as f64 / candidates.len() as f64,
    );
    let mut exact = Vec::with_capacity(statements.len());
    for q in statements {
        let t = Instant::now();
        let result = engine
            .execute_sql(&q.sql)
            .map_err(|e| format!("{}: {e}", q.id))?;
        exact.push(ExactRun {
            micros: us_since(t),
            rows_scanned: result.stats.rows_scanned,
            answer: Grid::from_table(&result.table),
        });
    }
    m.insert(
        "engine.exact_exec_us",
        mean(&exact.iter().map(|e| e.micros).collect::<Vec<_>>()),
    );
    let approx_rows: f64 = reps
        .iter()
        .map(|r| r.first().map_or(0.0, |s| s.rows_scanned))
        .sum();
    let exact_rows: u64 = exact.iter().map(|e| e.rows_scanned).sum();
    m.insert("core.rows_scanned_ratio", approx_rows / exact_rows as f64);

    // One pool thread against the default pool, two passes each.
    let pass = |session: &mut VerdictSession| -> Result<f64, String> {
        let t = Instant::now();
        for _ in 0..2 {
            for q in statements {
                session
                    .execute(&q.sql)
                    .map_err(|e| format!("{}: {e}", q.id))?;
            }
        }
        Ok(us_since(t))
    };
    cold.execute("SET parallelism = 1")
        .map_err(|e| e.to_string())?;
    let serial = pass(&mut cold)?;
    cold.execute("SET parallelism = default")
        .map_err(|e| e.to_string())?;
    let pooled = pass(&mut cold)?;
    m.insert("engine.parallel_ratio", serial / pooled);
    Ok(exact)
}

// ---------------------------------------------------------------------------
// Part 3a: the store cycle
// ---------------------------------------------------------------------------

/// `StepSpans` over a tracer: a stack of open spans under one root.
struct CycleSpans<'a> {
    tracer: &'a mut Tracer,
    root: u64,
    stack: Vec<SpanId>,
}

impl StepSpans for CycleSpans<'_> {
    fn begin(&mut self, name: &'static str) {
        let id = self
            .tracer
            .open(self.root, self.stack.last().copied(), name);
        self.stack.push(id);
    }

    fn end(&mut self) {
        if let Some(id) = self.stack.pop() {
            self.tracer.close(id);
        }
    }
}

/// The store spec of the workloads that have no store of their own: the
/// stream/ingest cycle over their own fact tables.
fn instacart_store_spec(env: &SqlEnv, sizing: &Sizing) -> Result<StoreSpec, String> {
    let table = |name: &str| {
        env.engine
            .catalog()
            .get(name)
            .map(|t| (name.to_string(), t))
            .map_err(|e| e.to_string())
    };
    let config = VerdictConfig {
        min_table_rows: sizing.min_table_rows,
        io_budget: 1.0,
        seed: Some(spec::SAMPLING_SEED),
        ..VerdictConfig::default()
    };
    let batch = (env.engine.catalog().row_count("orders") / 100).max(100);
    Ok(StoreSpec {
        tables: vec![table("order_products")?, table("orders")?],
        ingest_table: "orders".into(),
        scrambles: vec![
            "CREATE SCRAMBLE p_stream FROM order_products METHOD uniform RATIO 1.0".into(),
            "CREATE SCRAMBLE p_ingest_u FROM orders METHOD uniform RATIO 0.05".into(),
            "CREATE SCRAMBLE p_ingest_s FROM orders METHOD stratified RATIO 0.05 ON city".into(),
        ],
        stream_scramble: "p_stream".into(),
        ingest_scrambles: vec!["p_ingest_u".into(), "p_ingest_s".into()],
        stream_query: "SELECT reordered, count(*) AS n, avg(price) AS avg_price, sum(price) AS total \
                       FROM order_products GROUP BY reordered"
            .into(),
        ingest_queries: vec![
            "SELECT city, count(*) AS n FROM orders GROUP BY city ORDER BY city".into(),
            "SELECT order_dow, count(*) AS n, avg(days_since_prior) AS avg_gap FROM orders \
             GROUP BY order_dow ORDER BY order_dow"
                .into(),
        ],
        accuracy_queries: Vec::new(),
        batch_ctas: format!(
            "CREATE TABLE batch AS SELECT order_id + {{offset}} AS order_id, user_id, city, order_dow, \
             order_hour, days_since_prior FROM orders WHERE order_id <= {batch}"
        ),
        config,
    })
}

/// Layer times of one store cycle, replayed after it, in µs.
#[derive(Debug, Clone, Copy, Default)]
struct CycleReplay {
    block_advance: f64,
    snapshot: f64,
    block_read: f64,
    select: Stages,
}

struct StoreSection {
    /// Answer-cache hits over lookups in the section's last context.
    cache_hit_ratio: f64,
    cycles: Vec<CycleTimes>,
    replays: Vec<CycleReplay>,
    untraced_cycle_us: f64,
    save_ms: f64,
    append_ms: f64,
    load_rows_per_s: f64,
    space_amp: f64,
    checks: Checks,
}

/// Opens a scan over `key` and reads every block; `(µs, rows)`.
fn read_blocks(store: &verdict_store::Store, key: &str) -> Result<(f64, usize), String> {
    let t = Instant::now();
    let scan = store.open_store_scan(key).map_err(|e| e.to_string())?;
    let rows = scan.num_rows();
    let mut start = 0;
    while start < rows {
        let len = (rows - start).min(verdict_store::BLOCK_ROWS as usize);
        std::hint::black_box(
            scan.read_range(None, start, len)
                .map_err(|e| e.to_string())?,
        );
        start += len;
    }
    Ok((us_since(t), rows))
}

/// Builds a store-backed set-up from `spec` and spends half of `budget` on
/// cycles with spans off and half on traced cycles (at least `min_cycles`
/// of those), replaying the layer calls after each traced cycle.
fn store_section(
    out: &Path,
    spec: StoreSpec,
    tracer: &mut Tracer,
    root_base: u64,
    budget: Duration,
    min_cycles: usize,
) -> Result<StoreSection, String> {
    let tmp = TempDir::new(out, "layers").map_err(|e| e.to_string())?;
    let mut env = StoreEnv::build(tmp.path(), spec)?;
    let ingest_queries = env.spec.ingest_queries.len();
    let mut checks = Checks::default();
    let stream_sql = env.spec.stream_query.clone();
    let one_shot = env
        .session()
        .execute(&stream_sql)
        .and_then(|r| r.into_answer())
        .map_err(|e| format!("stream query: {e}"))?;
    let reference = Grid::from_table(&one_shot.table).fingerprint();
    let mean_sql = one_shot
        .rewritten_sql
        .first()
        .cloned()
        .ok_or("the stream query has no rewritten statement")?;
    env.cycle(0, reference, &mut checks, &mut NoSpans)?;

    // Direct store calls on a scratch copy of the streamed scramble.
    let stream_scramble = env.spec.stream_scramble.clone();
    let snapshot = env
        .ctx()
        .connection()
        .table_snapshot(&stream_scramble)
        .ok_or("backend cannot snapshot the scramble")?;
    let store = env.store();
    let t = Instant::now();
    store
        .save_table("probe_copy", &snapshot, 1)
        .map_err(|e| e.to_string())?;
    let save_ms = us_since(t) / 1e3;
    let slice = snapshot.limit((snapshot.num_rows() / 100).max(1));
    let t = Instant::now();
    store
        .append_rows("probe_copy", &slice, 2)
        .map_err(|e| e.to_string())?;
    let append_ms = us_since(t) / 1e3;
    let (read_us, rows) = read_blocks(store, "probe_copy")?;
    let load_rows_per_s = rows as f64 / (read_us / 1e6);
    store
        .remove_table("probe_copy")
        .map_err(|e| e.to_string())?;
    let raw_bytes: usize = std::iter::once(&stream_scramble)
        .chain(&env.spec.ingest_scrambles)
        .filter_map(|name| env.ctx().connection().table_snapshot(name))
        .map(|t| t.approx_bytes())
        .sum();
    let space_amp = env::dir_bytes(env.dir()) as f64 / raw_bytes.max(1) as f64;

    // Spans off.
    let mut k = 1;
    let mut untraced = Vec::new();
    let deadline = Instant::now() + budget / 2;
    while untraced.len() < min_cycles.div_ceil(2) || Instant::now() < deadline {
        untraced.push(
            env.cycle(k % ingest_queries, reference, &mut checks, &mut NoSpans)?
                .total(),
        );
        k += 1;
    }

    // Spans on, each cycle followed by the replay of its layer calls.
    let mut cycles = Vec::new();
    let mut replays = Vec::new();
    let deadline = Instant::now() + budget / 2;
    while cycles.len() < min_cycles || Instant::now() < deadline {
        let root = root_base + k as u64;
        let cycle_span = tracer.open(root, None, "cycle");
        let times = {
            let mut spans = CycleSpans {
                tracer: &mut *tracer,
                root,
                stack: vec![cycle_span],
            };
            env.cycle(k % ingest_queries, reference, &mut checks, &mut spans)?
        };
        tracer.close(cycle_span);
        k += 1;

        let replay_span = tracer.open(root, None, "replay");
        let mut rp = CycleReplay::default();
        let mut scan = env
            .ctx()
            .connection()
            .open_block_scan(&mean_sql)
            .ok_or("the stream query is outside the progressive class")?;
        let block = env.spec.config.stream_block_rows as u64;
        loop {
            let (n, us) = tracer.leaf(root, Some(replay_span), "engine.block_advance", || {
                scan.advance(block)
            });
            rp.block_advance += us;
            if n.map_err(|e| e.to_string())? == 0 {
                break;
            }
            let (snap, us) = tracer.leaf(root, Some(replay_span), "engine.snapshot", || {
                scan.snapshot()
            });
            rp.snapshot += us;
            snap.map_err(|e| e.to_string())?;
        }
        drop(scan);
        let id = tracer.open(root, Some(replay_span), "store.block_read");
        read_blocks(env.store(), &stream_scramble)?;
        rp.block_read = tracer.close(id);
        let cfg = env.session().effective_config();
        let (engine, ctx) = (env.engine().clone(), env.ctx().clone());
        let select_sql = env.spec.ingest_queries[times.query].clone();
        rp.select = Replayer {
            engine: &engine,
            ctx: &ctx,
            cfg,
        }
        .replay(tracer, root, replay_span, &select_sql)?;
        tracer.close(replay_span);
        cycles.push(times);
        replays.push(rp);
    }
    Ok(StoreSection {
        cache_hit_ratio: hit_ratio(CacheStats::default(), env.ctx().cache_stats()),
        cycles,
        replays,
        untraced_cycle_us: median(&untraced),
        save_ms,
        append_ms,
        load_rows_per_s,
        space_amp,
        checks,
    })
}

fn store_metrics(m: &mut Metrics, s: &StoreSection) {
    let med = |f: fn(&CycleTimes) -> f64| median(&s.cycles.iter().map(f).collect::<Vec<_>>());
    m.insert("client.stream_ttff_ms", med(|c| c.stream_ttff) / 1e3);
    m.insert("client.stream_full_ms", med(|c| c.stream_full) / 1e3);
    m.insert("client.refresh_ms", med(|c| c.refresh) / 1e3);
    m.insert("client.cold_start_ms", med(|c| c.cold_start) / 1e3);
    m.insert(
        "core.stream_frame_us",
        med(|c| c.stream_full / c.stream_frames.max(1) as f64),
    );
    m.insert("store.open_ms", med(|c| c.store_open) / 1e3);
    m.insert("store.save_ms", s.save_ms);
    m.insert("store.append_ms", s.append_ms);
    m.insert("store.load_rows_per_s", s.load_rows_per_s);
    m.insert("store.space_amp", s.space_amp);
    m.insert(
        "store.wal_syncs_per_refresh",
        med(|c| c.refresh_wal_syncs as f64),
    );
    m.insert(
        "store.pages_written_per_refresh",
        med(|c| c.refresh_pages_written as f64),
    );
    m.insert(
        "store.pages_read_per_stream",
        med(|c| c.stream_pages_read as f64),
    );
    // Page-image records are logged whole; BEGIN and COMMIT markers (two per
    // sync) carry no payload and are left out.
    m.insert(
        "store.write_amp",
        med(|c| {
            let images = c
                .refresh_wal_records
                .saturating_sub(2 * c.refresh_wal_syncs);
            ((c.refresh_pages_written + images) * verdict_store::page::PAGE_SIZE as u64) as f64
                / c.batch_bytes.max(1) as f64
        }),
    );
    let blocks = |f: fn(&CycleReplay) -> f64| median(&s.replays.iter().map(f).collect::<Vec<_>>());
    let frames = med(|c| c.stream_frames as f64).max(1.0);
    m.insert(
        "engine.block_advance_us",
        blocks(|r| r.block_advance) / frames,
    );
    m.insert("engine.snapshot_us", blocks(|r| r.snapshot) / frames);
}

// ---------------------------------------------------------------------------
// Part 3b: the server probe
// ---------------------------------------------------------------------------

/// One `SHOW METRICS` scrape: cumulative statement-duration buckets by upper
/// bound (summed over statement classes) and the plain counters by name.
type Scrape = (BTreeMap<u64, u64>, BTreeMap<String, f64>);

fn scrape(addr: std::net::SocketAddr) -> Result<Scrape, String> {
    let mut client = VerdictClient::connect(addr).map_err(|e| e.to_string())?;
    let answer = client.sql("SHOW METRICS").map_err(|e| e.to_string())?;
    let _ = client.quit();
    let mut buckets = BTreeMap::new();
    let mut counters = BTreeMap::new();
    for row in &answer.rows {
        let Some(line) = row.first().and_then(|v| v.as_str_lossy()) else {
            continue;
        };
        if let Some(rest) = line.strip_prefix("verdict_statement_duration_us_bucket{") {
            let le = rest.split("le=\"").nth(1).and_then(|s| s.split('"').next());
            let count = rest
                .rsplit(' ')
                .next()
                .and_then(|c| c.trim().parse::<u64>().ok());
            if let (Some(le), Some(count)) = (le, count) {
                let le = if le == "+Inf" {
                    u64::MAX
                } else {
                    le.parse().unwrap_or(u64::MAX)
                };
                *buckets.entry(le).or_insert(0) += count;
            }
        } else if let Some((name, value)) = line.rsplit_once(' ') {
            if !name.contains('{') && !name.starts_with('#') {
                if let Ok(v) = value.trim().parse::<f64>() {
                    counters.insert(name.to_string(), v);
                }
            }
        }
    }
    Ok((buckets, counters))
}

/// Quantile of the statements between two scrapes of the cumulative
/// power-of-two histogram, interpolated linearly inside the bucket that
/// holds the rank (the open bucket reports its lower bound).
fn bucket_quantile(before: &BTreeMap<u64, u64>, after: &BTreeMap<u64, u64>, q: f64) -> f64 {
    let deltas: Vec<(u64, u64)> = after
        .iter()
        .map(|(&le, &c)| (le, c.saturating_sub(before.get(&le).copied().unwrap_or(0))))
        .collect();
    let total = deltas.last().map_or(0, |&(_, c)| c);
    if total == 0 {
        return 0.0;
    }
    let rank = q * total as f64;
    let (mut lower, mut below) = (0u64, 0u64);
    for (le, cum) in deltas {
        if cum as f64 >= rank {
            if le == u64::MAX {
                return lower as f64;
            }
            let inside = (cum - below).max(1) as f64;
            return lower as f64 + (le - lower) as f64 * (rank - below as f64) / inside;
        }
        lower = le;
        below = cum;
    }
    lower as f64
}

/// Drives `requests` cached statements per connection over one connection
/// per core and reads the layer's own view of them.
fn server_probe(
    m: &mut Metrics,
    server: &ServerHandle,
    ctx: &Arc<VerdictContext>,
    statements: &[Query],
    requests: usize,
) -> Result<(), String> {
    let mut session = VerdictSession::new(ctx.clone());
    session
        .execute("SET error_columns = on")
        .map_err(|e| e.to_string())?;
    let answer = session
        .execute(&statements[0].sql)
        .and_then(|r| r.into_answer())
        .map_err(|e| e.to_string())?;

    // Frame encode and decode on a representative answer.
    let header = FrameHeader {
        rows: answer.table.num_rows(),
        cols: answer.table.num_columns(),
        exact: answer.exact,
        cached: true,
        elapsed_us: 100,
        rows_scanned: answer.rows_scanned,
        degraded: 0,
    };
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
    let mut frame = String::new();
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    for _ in 0..200 {
        frame.clear();
        let t = Instant::now();
        protocol::write_result_frame(&mut frame, &header, Some(&answer.table), &errors, &[]);
        encode.push(us_since(t));
        let t = Instant::now();
        let mut lines = frame.lines();
        let parsed = lines.next().and_then(FrameHeader::parse);
        let mut types = Vec::new();
        let mut cells = 0usize;
        for line in lines {
            if let Some(tags) = line.strip_prefix("T ") {
                types = tags.split('\t').map(protocol::parse_type_tag).collect();
            } else if let Some(fields) = line.strip_prefix("R ") {
                for (field, dt) in fields.split('\t').zip(&types) {
                    std::hint::black_box(protocol::parse_value(field, *dt));
                    cells += 1;
                }
            }
        }
        decode.push(us_since(t));
        if parsed != Some(header) || cells != header.rows * header.cols {
            return Err("frame did not decode to what was encoded".into());
        }
    }
    m.insert("server.encode_us", median(&encode));
    m.insert("server.decode_us", median(&decode));

    let mut clients = Vec::new();
    for _ in 0..nproc() {
        let mut client = wire::connect(server)?;
        for q in statements {
            client.sql(&q.sql).map_err(|e| format!("{}: {e}", q.id))?;
        }
        clients.push(client);
    }
    let (buckets_before, counters_before) = scrape(server.addr())?;
    // Per connection: statement round trips, then ping round trips, in µs.
    type ProbeLog = Result<(Vec<f64>, Vec<f64>), String>;
    let logs: Vec<ProbeLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                scope.spawn(move || {
                    let mut rtt = Vec::with_capacity(requests);
                    for i in 0..requests {
                        let t = Instant::now();
                        let answer = client.sql(&statements[i % statements.len()].sql);
                        rtt.push(us_since(t));
                        if !answer.map_err(|e| e.to_string())?.header.cached {
                            return Err("server probe statement was not cached".to_string());
                        }
                    }
                    let mut ping = Vec::with_capacity(requests);
                    for _ in 0..requests {
                        let t = Instant::now();
                        client.ping().map_err(|e| e.to_string())?;
                        ping.push(us_since(t));
                    }
                    let _ = client.quit();
                    Ok((rtt, ping))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    let (buckets_after, counters_after) = scrape(server.addr())?;
    let (mut rtt, mut ping) = (Vec::new(), Vec::new());
    for log in logs {
        let (r, p) = log?;
        rtt.extend(r);
        ping.extend(p);
    }
    m.insert("client.wire_rtt_us", median(&rtt));
    m.insert("server.ping_rtt_us", median(&ping));
    m.insert(
        "server.wire_overhead_us",
        median(&rtt) - m["core.cache_hit_us"],
    );
    m.insert(
        "server.stmt_p50_us",
        bucket_quantile(&buckets_before, &buckets_after, 0.50),
    );
    m.insert(
        "server.stmt_p99_us",
        bucket_quantile(&buckets_before, &buckets_after, 0.99),
    );
    let delta = |name: &str| {
        counters_after.get(name).copied().unwrap_or(0.0)
            - counters_before.get(name).copied().unwrap_or(0.0)
    };
    let admitted = delta("verdict_queries_admitted_total").max(1.0);
    m.insert(
        "server.shed_ratio",
        delta("verdict_queries_shed_total") / admitted,
    );
    m.insert(
        "server.busy_ratio",
        delta("verdict_queries_refused_total") / admitted,
    );
    m.insert(
        "server.queue_peak_depth",
        server.admission_stats().peak_depth as f64,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Part 1 for the query workloads, and their detail artefact
// ---------------------------------------------------------------------------

fn share(
    m: &mut Metrics,
    total_us: f64,
    sql: f64,
    core: f64,
    engine: f64,
    store: f64,
    server: f64,
) {
    let pct = |x: f64| 100.0 * x / total_us;
    m.insert("share.sql_pct", pct(sql));
    m.insert("share.core_pct", pct(core));
    m.insert("share.engine_pct", pct(engine));
    m.insert("share.store_pct", pct(store));
    m.insert("share.server_pct", pct(server));
}

fn tail_metrics(m: &mut Metrics, statement_us: &[f64]) {
    let pct = tail_percentile(statement_us.len());
    m.insert("client.stmt_tail_pct", pct);
    m.insert(
        "client.stmt_tail_ms",
        percentile_sorted(&sorted(statement_us), pct) / 1e3,
    );
}

/// Sums the product's own `EXPLAIN ANALYZE` stage rows over `statements`.
fn explain_analyze(
    session: &mut VerdictSession,
    statements: &[Query],
) -> Result<BTreeMap<String, f64>, String> {
    let mut stages: BTreeMap<String, f64> = BTreeMap::new();
    for q in statements {
        let response = session
            .execute(&format!("EXPLAIN ANALYZE {}", q.sql))
            .map_err(|e| format!("EXPLAIN ANALYZE {}: {e}", q.id))?;
        let grid = Grid::from_table(
            response
                .table()
                .ok_or("EXPLAIN ANALYZE returned no table")?,
        );
        for row in &grid.rows {
            if let (Some(span), Some(us)) = (row[0].as_str_lossy(), row[2].as_f64()) {
                if !span.starts_with('@') || span == "@total" {
                    *stages.entry(span).or_insert(0.0) += us;
                }
            }
        }
    }
    Ok(stages)
}

fn query_workload(
    m: &mut Metrics,
    out: &mut Outcome,
    tracer: &mut Tracer,
    args: &args::Args,
    sizing: &Sizing,
) -> Result<(), String> {
    let env = build_sql_env(sizing, wire::CACHE_CAPACITY)?;
    out.facts.push(("rows".into(), setup::rows_json(&env.rows)));
    out.facts
        .push(("config".into(), setup::config_json(&env.config)));
    let (pinned, others) = workload_queries();
    let mut session = open_session(&env)?;
    session
        .execute("SET cache = off")
        .map_err(|e| e.to_string())?;
    let replayer = Replayer {
        engine: &env.engine,
        ctx: &env.ctx,
        cfg: session.effective_config(),
    };
    let mut reference = Vec::new();
    for q in &pinned {
        reference.push(observe(&mut session, &q.sql).map_err(|e| format!("{}: {e}", q.id))?);
    }

    let cache_before = env.ctx.cache_stats();
    let slice = Duration::from_secs_f64(args.seconds / 5.0);
    let mut rng = Rng::fork(args.seed, 10);
    let mut order: Vec<usize> = (0..pinned.len()).collect();

    // Spans off.
    let mut untraced_pass_us = Vec::new();
    let deadline = Instant::now() + slice;
    while Instant::now() < deadline {
        rng.shuffle(&mut order);
        let mut total = 0.0;
        for &i in &order {
            total += observe(&mut session, &pinned[i].sql)?.micros;
        }
        untraced_pass_us.push(total);
    }

    // Spans on: product path, then the replay of each stage.
    let mut reps: Vec<Vec<Stages>> = vec![Vec::new(); pinned.len()];
    let mut execute_us: Vec<Vec<f64>> = vec![Vec::new(); pinned.len()];
    let mut traced_pass_us = Vec::new();
    let mut tiling = Vec::new();
    let mut statement_id = 0u64;
    let deadline = Instant::now() + slice;
    while Instant::now() < deadline {
        rng.shuffle(&mut order);
        let mut total = 0.0;
        for &i in &order {
            statement_id += 1;
            let root = tracer.open(statement_id, None, "statement");
            let (seen, us) = tracer.leaf(statement_id, Some(root), "session.execute", || {
                observe(&mut session, &pinned[i].sql)
            });
            let seen = seen?;
            out.checks.op(if seen.exact {
                Some(format!("{} fell back to exact execution", pinned[i].id))
            } else if seen.fingerprint != reference[i].fingerprint {
                Some(format!("{} changed between passes", pinned[i].id))
            } else {
                None
            });
            let replay = tracer.open(statement_id, Some(root), "replay");
            let stages = replayer.replay(tracer, statement_id, replay, &pinned[i].sql)?;
            tracer.close(replay);
            tracer.close(root);
            total += us;
            tiling.push(stages.tiled() / us);
            execute_us[i].push(us);
            reps[i].push(stages);
        }
        traced_pass_us.push(total);
    }
    m.insert(
        "core.cache_hit_ratio",
        hit_ratio(cache_before, env.ctx.cache_stats()),
    );
    m.insert(
        "bench.trace_overhead_pct",
        100.0 * (mean(&traced_pass_us) - mean(&untraced_pass_us)) / mean(&untraced_pass_us),
    );
    m.insert("bench.tiling_ratio", median(&tiling));
    let total_us: f64 = execute_us.iter().flatten().sum();
    let sum = |f: fn(&Stages) -> f64| reps.iter().flatten().map(f).sum::<f64>();
    share(
        m,
        total_us,
        sum(Stages::sql),
        sum(Stages::core),
        sum(Stages::engine),
        0.0,
        0.0,
    );
    tail_metrics(m, &execute_us.iter().flatten().copied().collect::<Vec<_>>());
    out.samples.push(("traced_statements", statement_id));

    // Cross-check against the product's own spans; printed, not gated.
    let product = explain_analyze(&mut session, &pinned)?;
    let bench = |f: fn(&Stages) -> f64| {
        reps.iter()
            .map(|r| median(&r.iter().map(f).collect::<Vec<_>>()))
            .sum::<f64>()
    };
    println!("stage totals over one pass, µs (bench-side replay | product EXPLAIN ANALYZE)");
    for (name, ours, theirs) in [
        ("analyze", bench(|s| s.analyze), "analyze"),
        ("plan", bench(|s| s.plan), "plan"),
        ("rewrite", bench(|s| s.rewrite), "rewrite"),
        (
            "print + engine exec",
            bench(|s| s.print + s.exec),
            "backend_exec",
        ),
        ("assemble", bench(|s| s.assemble), "assemble"),
        ("parse + all of the above", bench(Stages::tiled), "@total"),
    ] {
        println!(
            "  {name:<26} {ours:>12.1} | {:>12.1}",
            product.get(theirs).copied().unwrap_or(0.0)
        );
    }

    let mut candidates = pinned.clone();
    candidates.extend(others);
    let session_us: Vec<f64> = execute_us.iter().map(|v| median(v)).collect();
    let exact = statement_probes(
        m,
        &env.ctx,
        &env.engine,
        &pinned,
        &candidates,
        &reps,
        &session_us,
    )?;

    // Per-query latency budget.
    let mut detail = Vec::new();
    println!(
        "{:<6} {:>9} {:>9} {:>7} {:>8} {:>8} {:>5} {:>5} {:>8} | {:>7} {:>7} {:>7} {:>7} {:>7} {:>9} {:>7} {:>8}",
        "query", "exact_ms", "apprx_ms", "speedup", "claimed", "actual", "cover", "stmts", "scanned",
        "parse", "analyze", "plan", "rewrite", "print", "exec", "reparse", "assemble"
    );
    for (i, q) in pinned.iter().enumerate() {
        let acc = accuracy(&reference[i].grid, &exact[i].answer);
        let exact_us = exact[i].micros;
        let (actual, cover) = accuracy_metrics(&acc.cells);
        let claimed = median(&acc.cells.iter().map(|c| c.claimed_rel).collect::<Vec<_>>());
        let st = |f: fn(&Stages) -> f64| median(&reps[i].iter().map(f).collect::<Vec<_>>());
        let approx = session_us[i];
        println!(
            "{:<6} {:>9.3} {:>9.3} {:>7.2} {:>8.5} {:>8.5} {:>5.2} {:>5} {:>8} | {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>7.1} {:>9.1} {:>7.1} {:>8.1}",
            q.id, exact_us / 1e3, approx / 1e3, exact_us / approx, claimed, actual, cover,
            reference[i].backend_stmts, reference[i].rows_scanned,
            st(|s| s.parse), st(|s| s.analyze), st(|s| s.plan), st(|s| s.rewrite), st(|s| s.print),
            st(|s| s.exec), st(|s| s.reparse), st(|s| s.assemble)
        );
        detail.push(Json::obj(vec![
            ("id", Json::str(q.id.clone())),
            ("exact_ms", Json::Num(exact_us / 1e3)),
            ("approx_ms", Json::Num(approx / 1e3)),
            ("speedup", Json::Num(exact_us / approx)),
            ("claimed_rel_error", Json::Num(claimed)),
            ("actual_rel_error", Json::Num(actual)),
            ("coverage", Json::Num(cover)),
            ("fallback", Json::Bool(reference[i].exact)),
            (
                "backend_statements",
                Json::Num(reference[i].backend_stmts as f64),
            ),
            ("rows_scanned", Json::Num(reference[i].rows_scanned as f64)),
            (
                "rows_scanned_exact",
                Json::Num(exact[i].rows_scanned as f64),
            ),
            (
                "stages_us",
                Json::obj(vec![
                    ("parse", Json::Num(st(|s| s.parse))),
                    ("analyze", Json::Num(st(|s| s.analyze))),
                    ("plan", Json::Num(st(|s| s.plan))),
                    ("rewrite", Json::Num(st(|s| s.rewrite))),
                    ("print", Json::Num(st(|s| s.print))),
                    ("engine_exec", Json::Num(st(|s| s.exec))),
                    ("reparse", Json::Num(st(|s| s.reparse))),
                    ("assemble", Json::Num(st(|s| s.assemble))),
                    ("session_execute", Json::Num(approx)),
                ]),
            ),
        ]));
    }
    let path = args.out.join(format!("detail-{}.json", args.workload));
    std::fs::write(&path, Json::Arr(detail).render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;

    // Store cycle over this workload's fact tables, and a server over its context.
    let section = store_section(
        &args.out,
        instacart_store_spec(&env, sizing)?,
        tracer,
        1 << 40,
        Duration::ZERO,
        3,
    )?;
    store_metrics(m, &section);
    out.checks.merge(section.checks);
    let server = VerdictServer::bind("127.0.0.1:0", env.ctx.clone())
        .and_then(|s| s.spawn())
        .map_err(|e| format!("server: {e}"))?;
    server_probe(m, &server, &env.ctx, &pinned, 1000)?;
    drop(server);
    Ok(())
}

// ---------------------------------------------------------------------------
// Part 1 for dashboard_wire
// ---------------------------------------------------------------------------

/// Per-request replay times, µs.
#[derive(Debug, Clone, Copy, Default)]
struct WireReplay {
    rtt: f64,
    ping: f64,
    cache_hit: f64,
    parse: f64,
    canonical: f64,
    /// Server-side time of answers that were not served from the cache.
    uncached_server: f64,
}

fn wire_workload(
    m: &mut Metrics,
    out: &mut Outcome,
    tracer: &mut Tracer,
    args: &args::Args,
) -> Result<(), String> {
    let env = wire::build_wire_env()?;
    out.facts
        .push(("rows".into(), setup::rows_json(&env.sql.rows)));
    out.facts
        .push(("config".into(), setup::config_json(&env.sql.config)));
    let traffic = Traffic::new(args.seed);
    let reference = wire::reference_answers(&env.sql, &traffic.templates, args.seed)?;
    let fingerprints: Vec<u64> = reference.iter().map(Grid::fingerprint).collect();
    let connections = nproc();
    let slice = Duration::from_secs_f64(args.seconds / 5.0);

    let connect_all = || -> Result<Vec<VerdictClient>, String> {
        (0..connections)
            .map(|_| {
                let mut client = wire::connect(&env.server)?;
                for q in &traffic.templates {
                    client
                        .sql(&q.sql)
                        .map_err(|e| format!("warm-up {}: {e}", q.id))?;
                }
                Ok(client)
            })
            .collect()
    };

    // Spans off.
    let deadline = Instant::now() + slice;
    let untraced: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = connect_all()?
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let traffic = &traffic;
                scope.spawn(move || {
                    let mut rng = Rng::fork(args.seed, 30 + c as u64);
                    let mut rtt = Vec::new();
                    while Instant::now() < deadline {
                        let (_, text) = traffic.draw(&mut rng);
                        let t = Instant::now();
                        client.sql(text).map_err(|e| e.to_string())?;
                        rtt.push(us_since(t));
                    }
                    let _ = client.quit();
                    Ok::<_, String>(rtt)
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client thread panicked")?);
        }
        Ok::<_, String>(all)
    })?;

    // Spans on: each connection keeps its own tracer; they are merged below.
    let cache_before = env.sql.ctx.cache_stats();
    let deadline = Instant::now() + slice;
    type Log = (Tracer, Vec<WireReplay>, Checks);
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let handles: Vec<_> = connect_all()?
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (traffic, fingerprints, ctx) = (&traffic, &fingerprints, &env.sql.ctx);
                let mut tr = tracer.sibling();
                scope.spawn(move || {
                    let mut rng = Rng::fork(args.seed, 30 + c as u64);
                    let mut replays = Vec::new();
                    let mut checks = Checks::default();
                    let mut session = VerdictSession::new(ctx.clone());
                    session
                        .execute("SET error_columns = on")
                        .map_err(|e| e.to_string())?;
                    let mut request = (c as u64) << 32;
                    while Instant::now() < deadline {
                        request += 1;
                        let (t, text) = traffic.draw(&mut rng);
                        let root = tr.open(request, None, "request");
                        let (answer, rtt) =
                            tr.leaf(request, Some(root), "client.sql", || client.sql(text));
                        let mut rp = WireReplay {
                            rtt,
                            ..WireReplay::default()
                        };
                        match answer {
                            Ok(answer) => {
                                checks.op((Grid::from_remote(&answer).fingerprint()
                                    != fingerprints[t])
                                    .then(|| {
                                        format!(
                                            "{} over TCP differs from in-process",
                                            traffic.templates[t].id
                                        )
                                    }));
                                if !answer.header.cached {
                                    rp.uncached_server = answer.header.elapsed_us as f64;
                                }
                            }
                            Err(e) => checks.op(Some(e.to_string())),
                        }
                        let replay = tr.open(request, Some(root), "replay");
                        let p = Some(replay);
                        rp.ping = tr.leaf(request, p, "server.ping", || client.ping()).1;
                        rp.cache_hit = tr
                            .leaf(request, p, "core.cache_hit", || session.execute(text))
                            .1;
                        rp.parse = tr
                            .leaf(request, p, "sql.parse", || parse_statement(text).is_ok())
                            .1;
                        rp.canonical = tr
                            .leaf(request, p, "sql.canonical", || canonical_sql(text).is_ok())
                            .1;
                        tr.close(replay);
                        tr.close(root);
                        replays.push(rp);
                    }
                    let _ = client.quit();
                    Ok::<Log, String>((tr, replays, checks))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    m.insert(
        "core.cache_hit_ratio",
        hit_ratio(cache_before, env.sql.ctx.cache_stats()),
    );

    let mut replays = Vec::new();
    for (tr, r, checks) in logs {
        tracer.absorb(tr);
        replays.extend(r);
        out.checks.merge(checks);
    }
    out.samples.push(("traced_requests", replays.len() as u64));
    let sum = |f: fn(&WireReplay) -> f64| replays.iter().map(f).sum::<f64>();
    let total = sum(|r| r.rtt);
    share(
        m,
        total,
        sum(|r| r.parse + r.canonical),
        sum(|r| r.cache_hit - r.parse - r.canonical),
        sum(|r| r.uncached_server),
        0.0,
        sum(|r| r.rtt - r.cache_hit),
    );
    let traced_rtt: Vec<f64> = replays.iter().map(|r| r.rtt).collect();
    m.insert(
        "bench.trace_overhead_pct",
        100.0 * (mean(&traced_rtt) - mean(&untraced)) / mean(&untraced),
    );
    tail_metrics(m, &untraced);

    // Statement probes over the 64 statements, cache off.
    let mut session = open_session(&env.sql)?;
    session
        .execute("SET cache = off")
        .map_err(|e| e.to_string())?;
    let replayer = Replayer {
        engine: &env.sql.engine,
        ctx: &env.sql.ctx,
        cfg: session.effective_config(),
    };
    let (reps, session_us) = probe_replays(&mut session, &replayer, &traffic.templates)?;
    statement_probes(
        m,
        &env.sql.ctx,
        &env.sql.engine,
        &traffic.templates,
        &traffic.templates,
        &reps,
        &session_us,
    )?;
    server_probe(m, &env.server, &env.sql.ctx, &traffic.templates, 1000)?;
    // ping + hot execute + encode + decode against the round trip.
    let codec = m["server.encode_us"] + m["server.decode_us"];
    m.insert(
        "bench.tiling_ratio",
        median(
            &replays
                .iter()
                .map(|r| (r.ping + r.cache_hit + codec) / r.rtt)
                .collect::<Vec<_>>(),
        ),
    );

    let section = store_section(
        &args.out,
        instacart_store_spec(&env.sql, &setup::LARGE)?,
        tracer,
        1 << 40,
        Duration::ZERO,
        3,
    )?;
    store_metrics(m, &section);
    out.checks.merge(section.checks);
    Ok(())
}

// ---------------------------------------------------------------------------
// Part 1 for stream_refresh
// ---------------------------------------------------------------------------

fn stream_workload(
    m: &mut Metrics,
    out: &mut Outcome,
    tracer: &mut Tracer,
    args: &args::Args,
) -> Result<(), String> {
    let spec = events_spec();
    out.facts
        .push(("config".into(), setup::config_json(&spec.config)));
    let section = store_section(
        &args.out,
        spec.clone(),
        tracer,
        0,
        Duration::from_secs_f64(args.seconds * 2.0 / 5.0),
        4,
    )?;
    out.samples
        .push(("traced_cycles", section.cycles.len() as u64));
    store_metrics(m, &section);
    m.insert("core.cache_hit_ratio", section.cache_hit_ratio);

    // Shares of the cycle: what the replays attribute, the rest stays
    // unattributed (REFRESH's maintenance SQL, session bookkeeping).
    let total: f64 = section.cycles.iter().map(CycleTimes::total).sum();
    let (mut sql, mut core, mut engine, mut store) = (0.0, 0.0, 0.0, 0.0);
    for (c, r) in section.cycles.iter().zip(&section.replays) {
        sql += r.select.sql();
        core += r.select.core() + (c.stream_full - r.block_advance - r.snapshot).max(0.0);
        engine += r.select.engine()
            + (r.block_advance + r.snapshot - r.block_read).max(0.0)
            + c.stage_batch
            + c.insert;
        store += r.block_read + c.store_open + section.append_ms * 1e3 * c.refresh_wal_syncs as f64;
    }
    share(m, total, sql, core, engine, store, 0.0);
    let traced = median(
        &section
            .cycles
            .iter()
            .map(CycleTimes::total)
            .collect::<Vec<_>>(),
    );
    m.insert(
        "bench.trace_overhead_pct",
        100.0 * (traced - section.untraced_cycle_us) / section.untraced_cycle_us,
    );
    // Replayed block scan against the product's STREAM drain.
    m.insert(
        "bench.tiling_ratio",
        median(
            &section
                .cycles
                .iter()
                .zip(&section.replays)
                .map(|(c, r)| (r.block_advance + r.snapshot) / c.stream_full)
                .collect::<Vec<_>>(),
        ),
    );
    let mut statement_us = Vec::new();
    for c in &section.cycles {
        statement_us.extend([
            c.stream_full,
            c.stage_batch / 2.0,
            c.stage_batch / 2.0,
            c.insert,
            c.refresh,
            c.show,
            c.select,
            c.cold_start,
        ]);
    }
    tail_metrics(m, &statement_us);
    out.checks.merge(section.checks);

    // Statement and server probes over a fresh set-up of the same tables
    // (the cycles above have grown the first one's ingest table).
    let tmp = TempDir::new(&args.out, "layers-probe").map_err(|e| e.to_string())?;
    let mut spec = spec;
    spec.config.answer_cache_capacity = wire::CACHE_CAPACITY;
    let mut env = StoreEnv::build(tmp.path(), spec)?;
    let mut statements = env.spec.statements();
    statements.truncate(1 + env.spec.ingest_queries.len());
    let ctx = env.ctx().clone();
    let engine = env.engine().clone();
    env.session()
        .execute("SET cache = off")
        .map_err(|e| e.to_string())?;
    let replayer = Replayer {
        engine: &engine,
        ctx: &ctx,
        cfg: env.session().effective_config(),
    };
    let (reps, session_us) = probe_replays(env.session(), &replayer, &statements)?;
    statement_probes(
        m,
        &ctx,
        &engine,
        &statements,
        &statements,
        &reps,
        &session_us,
    )?;
    let server = VerdictServer::bind("127.0.0.1:0", ctx.clone())
        .and_then(|s| s.spawn())
        .map_err(|e| format!("server: {e}"))?;
    server_probe(m, &server, &ctx, &statements, 1000)?;
    drop(server);
    Ok(())
}

fn main() -> ExitCode {
    env::prepare();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match args::parse(&argv) {
        Ok(a) if a.trace => a,
        Ok(_) => {
            eprintln!("--trace 0 is served by vbench");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("{}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let mut m = Metrics::new();
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let done = match args.workload.as_str() {
        "adhoc_mix" => query_workload(&mut m, &mut out, &mut tracer, &args, &setup::LARGE),
        "planner_bound" => query_workload(&mut m, &mut out, &mut tracer, &args, &setup::SMALL),
        "dashboard_wire" => wire_workload(&mut m, &mut out, &mut tracer, &args),
        _ => stream_workload(&mut m, &mut out, &mut tracer, &args),
    };
    if let Err(e) = done {
        eprintln!("{} (traced) aborted: {e}", args.workload);
        return ExitCode::from(2);
    }
    let trace_path = args.out.join(format!("trace-{}.jsonl", args.workload));
    if let Err(e) = tracer.write_jsonl(&trace_path) {
        eprintln!("{}: {e}", trace_path.display());
        return ExitCode::from(2);
    }
    println!(
        "self time by span name ({} spans in {})",
        tracer.spans().len(),
        trace_path.display()
    );
    for (name, t) in tracer.totals() {
        println!(
            "  {name:<26} n {:>8}  total {:>12.1} µs  self {:>12.1} µs",
            t.count,
            t.total_ns as f64 / 1e3,
            t.self_ns as f64 / 1e3
        );
    }
    out.metrics = m.into_iter().collect();
    report::finish(&args, &out, &spec::PER_LAYER)
}
