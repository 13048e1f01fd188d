//! `stream_refresh`: a store-backed context (`Store::open` on a fresh
//! directory + `VerdictContext::with_store`) used as reads beside writes.
//! `events_stream` carries a `RATIO 1.0` scramble of eight `MORSEL_ROWS`
//! blocks that is only read (progressively, off the store after each
//! re-open); `events_ingest` carries uniform and stratified `RATIO 0.05`
//! scrambles that are only written.  One cycle, from one thread:
//!
//! 1. `STREAM` drained frame by frame (no `target_error`);
//! 2. `DROP TABLE IF EXISTS batch` + `CREATE TABLE batch AS …` (5k rows);
//! 3. `INSERT INTO events_ingest SELECT * FROM batch`;
//! 4. `REFRESH SCRAMBLES events_ingest FROM batch` (WAL commit included);
//! 5. `SHOW SCRAMBLES` — every ingest scramble must have grown;
//! 6. one approximate `SELECT` over `events_ingest`;
//! 7. close everything, re-open the store, and ask the same `SELECT` again:
//!    the cold-start answer must equal the one before the close bit for bit.
//!
//! The same cycle, over `order_products`/`orders`, is the store probe of the
//! other workloads' traced runs, which is why it is parameterised.

use crate::adhoc::{accuracy_metrics, engine_truth, exact_leg, observe};
use crate::env::TempDir;
use crate::grid::{accuracy, Cell, Grid};
use crate::json::Json;
use crate::report::{Checks, Outcome};
use crate::rng::Rng;
use crate::setup::Query;
use crate::spec::SAMPLING_SEED;
use crate::stats::{geo_mean, median};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use verdict_core::{VerdictConfig, VerdictContext, VerdictResponse, VerdictSession};
use verdict_engine::{Backend, Engine, StoreHandle, Table, TableBuilder, MORSEL_ROWS};
use verdict_store::Store;

pub const STREAM_ROWS: usize = 8 * MORSEL_ROWS;
pub const INGEST_ROWS: usize = 500_000;
pub const BATCH_ROWS: usize = 5_000;
/// The error metrics are those of the scrambles after this many cycles of
/// the timed loop (the warm-up cycle comes before them).
pub const ACCURACY_AFTER_CYCLES: usize = 16;

/// Tables, scrambles and statements of one store-backed set-up.
#[derive(Clone)]
pub struct StoreSpec {
    pub tables: Vec<(String, Arc<Table>)>,
    pub ingest_table: String,
    pub scrambles: Vec<String>,
    /// Name of the `RATIO 1.0` scramble the stream reads.
    pub stream_scramble: String,
    /// Names of the scrambles `REFRESH` must grow.
    pub ingest_scrambles: Vec<String>,
    pub stream_query: String,
    /// The cycles ask these in turn.
    pub ingest_queries: Vec<String>,
    /// Asked once more at the end, with `ingest_queries`, for the error
    /// metrics only: more cells make the median error steadier.
    pub accuracy_queries: Vec<String>,
    /// `CREATE TABLE batch AS …` with `{offset}` standing for the id shift
    /// that keeps appended keys unique.
    pub batch_ctas: String,
    pub config: VerdictConfig,
}

impl StoreSpec {
    /// The stream query, the ingest queries and the accuracy-only queries,
    /// in that order, with ids for reports.
    pub fn statements(&self) -> Vec<Query> {
        let named = |prefix: &str, list: &[String]| -> Vec<Query> {
            list.iter()
                .enumerate()
                .map(|(i, sql)| Query {
                    id: format!("{prefix}-{i}"),
                    sql: sql.clone(),
                })
                .collect()
        };
        let mut all = vec![Query {
            id: "stream".into(),
            sql: self.stream_query.clone(),
        }];
        all.extend(named("ingest", &self.ingest_queries));
        all.extend(named("accuracy", &self.accuracy_queries));
        all
    }
}

/// A deterministic event log: `id` dense from 1, five `kind`s of very
/// uneven frequency (so the stratified scramble matters), sixteen regions,
/// eight shards (only there to give the error metrics many small groups).
pub fn events_table(rows: usize, seed: u64) -> Table {
    let mut rng = Rng::new(seed);
    let mut id = Vec::with_capacity(rows);
    let mut user = Vec::with_capacity(rows);
    let mut kind = Vec::with_capacity(rows);
    let mut region = Vec::with_capacity(rows);
    let mut shard = Vec::with_capacity(rows);
    let mut value = Vec::with_capacity(rows);
    for i in 0..rows {
        id.push(i as i64 + 1);
        user.push(rng.below(50_000) as i64);
        let k = match rng.below(100) {
            0..=49 => 0,
            50..=74 => 1,
            75..=89 => 2,
            90..=96 => 3,
            _ => 4,
        };
        kind.push(format!("k{k}"));
        region.push(rng.below(16) as i64);
        shard.push(rng.below(8) as i64);
        value.push(rng.below(100_000) as f64 / 100.0 + k as f64 * 25.0);
    }
    TableBuilder::new()
        .int_column("id", id)
        .int_column("user_id", user)
        .str_column("kind", kind)
        .int_column("region", region)
        .int_column("shard", shard)
        .float_column("value", value)
        .build()
        .expect("columns have equal length")
}

/// The two event tables are fixed data, sampled under [`SAMPLING_SEED`].
pub fn events_spec() -> StoreSpec {
    let config = VerdictConfig {
        min_table_rows: 50_000,
        // The read-only scramble is the whole table; the budget must allow it.
        io_budget: 1.0,
        seed: Some(SAMPLING_SEED),
        ..VerdictConfig::default()
    };
    StoreSpec {
        tables: vec![
            (
                "events_stream".into(),
                Arc::new(events_table(STREAM_ROWS, 0xE7E1)),
            ),
            (
                "events_ingest".into(),
                Arc::new(events_table(INGEST_ROWS, 0xE7E2)),
            ),
        ],
        ingest_table: "events_ingest".into(),
        scrambles: vec![
            "CREATE SCRAMBLE s_stream FROM events_stream METHOD uniform RATIO 1.0".into(),
            "CREATE SCRAMBLE s_ingest_u FROM events_ingest METHOD uniform RATIO 0.05".into(),
            "CREATE SCRAMBLE s_ingest_s FROM events_ingest METHOD stratified RATIO 0.05 ON kind"
                .into(),
        ],
        stream_scramble: "s_stream".into(),
        ingest_scrambles: vec!["s_ingest_u".into(), "s_ingest_s".into()],
        stream_query: "SELECT region, count(*) AS n, avg(value) AS avg_value, sum(value) AS total \
                       FROM events_stream GROUP BY region"
            .into(),
        ingest_queries: vec![
            "SELECT kind, count(*) AS n, avg(value) AS avg_value FROM events_ingest \
             GROUP BY kind ORDER BY kind"
                .into(),
            "SELECT region, count(*) AS n, sum(value) AS total FROM events_ingest \
             GROUP BY region ORDER BY region"
                .into(),
            "SELECT kind, region, count(*) AS n, avg(value) AS avg_value FROM events_ingest \
             WHERE value > 100 GROUP BY kind, region"
                .into(),
            "SELECT count(*) AS n, avg(value) AS avg_value, sum(value) AS total FROM events_ingest \
             WHERE region < 8"
                .into(),
        ],
        accuracy_queries: vec![
            "SELECT region, count(*) AS n, avg(value) AS avg_value FROM events_ingest \
             WHERE value < 500 GROUP BY region"
                .into(),
            "SELECT kind, region, shard, count(*) AS n, avg(value) AS avg_value \
             FROM events_ingest GROUP BY kind, region, shard"
                .into(),
            "SELECT region, shard, sum(value) AS total FROM events_ingest \
             WHERE user_id < 25000 GROUP BY region, shard"
                .into(),
            "SELECT region, count(*) AS n, sum(value) AS total, avg(value) AS avg_value \
             FROM events_ingest WHERE kind <> 'k0' GROUP BY region"
                .into(),
        ],
        batch_ctas: format!(
            "CREATE TABLE batch AS SELECT id + {{offset}} AS id, user_id, kind, region, shard, value \
             FROM events_ingest WHERE id <= {BATCH_ROWS}"
        ),
        config,
    }
}

struct Live {
    session: VerdictSession,
    ctx: Arc<VerdictContext>,
    store: Arc<Store>,
    engine: Arc<Engine>,
}

pub struct StoreEnv {
    live: Option<Live>,
    pub spec: StoreSpec,
    dir: PathBuf,
    /// Rows appended to the ingest table so far.
    pub appended: u64,
}

/// Observer of one cycle's steps; the end-to-end run passes [`NoSpans`].
pub trait StepSpans {
    fn begin(&mut self, name: &'static str);
    fn end(&mut self);
}

pub struct NoSpans;

impl StepSpans for NoSpans {
    fn begin(&mut self, _: &'static str) {}
    fn end(&mut self) {}
}

/// Client-side latencies of one cycle, in µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleTimes {
    pub stream_ttff: f64,
    pub stream_full: f64,
    pub stream_frames: usize,
    pub stage_batch: f64,
    pub insert: f64,
    pub refresh: f64,
    pub show: f64,
    pub select: f64,
    /// `Store::open` alone.
    pub store_open: f64,
    /// `Store::open` + `with_store` → first approximate answer.
    pub cold_start: f64,
    /// Which ingest query this cycle asked.
    pub query: usize,
    /// Store pages read while the stream drained.
    pub stream_pages_read: u64,
    /// Store activity of the `REFRESH` alone, and the batch's column bytes.
    pub refresh_pages_written: u64,
    pub refresh_wal_syncs: u64,
    pub refresh_wal_records: u64,
    pub batch_bytes: u64,
}

impl CycleTimes {
    /// Statements the client issued in one cycle.
    pub const STATEMENTS: usize = 8;

    pub fn total(&self) -> f64 {
        self.stream_full
            + self.stage_batch
            + self.insert
            + self.refresh
            + self.show
            + self.select
            + self.cold_start
    }
}

impl StoreEnv {
    /// Opens a fresh store in `dir`, registers the base tables, and builds
    /// the scrambles through SQL (each one is saved through the WAL).
    pub fn build(dir: &Path, spec: StoreSpec) -> Result<StoreEnv, String> {
        let mut env = StoreEnv {
            live: None,
            spec,
            dir: dir.to_path_buf(),
            appended: 0,
        };
        let tables = env.spec.tables.clone();
        env.open(&tables)?;
        for ddl in env.spec.scrambles.clone() {
            env.session()
                .execute(&ddl)
                .map_err(|e| format!("{ddl}: {e}"))?;
        }
        Ok(env)
    }

    /// `(Store::open µs, attach µs)`: a new engine holding only the base
    /// tables, the store opened and attached, the context reloaded from it.
    fn open(&mut self, tables: &[(String, Arc<Table>)]) -> Result<(f64, f64), String> {
        let engine = Arc::new(Engine::with_seed(SAMPLING_SEED));
        for (name, table) in tables {
            engine.register_table(name, Table::clone(table));
        }
        let t0 = Instant::now();
        let store = Arc::new(Store::open(&self.dir).map_err(|e| format!("Store::open: {e}"))?);
        let open_us = t0.elapsed().as_secs_f64() * 1e6;
        engine
            .catalog()
            .set_store(Arc::clone(&store) as Arc<dyn StoreHandle>);
        let conn: Arc<dyn Backend> = engine.clone();
        let ctx = Arc::new(
            VerdictContext::with_store(conn, self.spec.config.clone(), Arc::clone(&store))
                .map_err(|e| format!("with_store: {e}"))?,
        );
        let mut session = VerdictSession::new(Arc::clone(&ctx));
        session
            .execute("SET error_columns = on")
            .map_err(|e| e.to_string())?;
        let attach_us = t0.elapsed().as_secs_f64() * 1e6 - open_us;
        self.live = Some(Live {
            session,
            ctx,
            store,
            engine,
        });
        Ok((open_us, attach_us))
    }

    /// Closes session, context, store and engine, then re-opens the store
    /// under a new engine that holds the base tables as they are now (the
    /// "database" survives a middleware restart; the scrambles must come
    /// back from disk).  Returns `(Store::open µs, attach µs)`.
    pub fn reopen(&mut self) -> Result<(f64, f64), String> {
        let live = self.live.take().expect("environment is open");
        let tables: Vec<(String, Arc<Table>)> = self
            .spec
            .tables
            .iter()
            .map(|(name, _)| {
                live.engine
                    .catalog()
                    .get(name)
                    .map(|t| (name.clone(), t))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        drop(live);
        self.open(&tables)
    }

    fn live(&self) -> &Live {
        self.live.as_ref().expect("environment is open")
    }

    pub fn session(&mut self) -> &mut VerdictSession {
        &mut self.live.as_mut().expect("environment is open").session
    }

    pub fn ctx(&self) -> &Arc<VerdictContext> {
        &self.live().ctx
    }

    pub fn store(&self) -> &Arc<Store> {
        &self.live().store
    }

    pub fn engine(&self) -> &Arc<Engine> {
        &self.live().engine
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Approximate answer to `sql` as a grid, with its latency in µs.
    pub fn ask(&mut self, sql: &str, checks: &mut Checks, what: &str) -> Option<(Grid, f64)> {
        let started = Instant::now();
        let result = self.session().execute(sql);
        let us = started.elapsed().as_secs_f64() * 1e6;
        match result.and_then(VerdictResponse::into_answer) {
            Ok(answer) => {
                checks.op(answer
                    .exact
                    .then(|| format!("{what} fell back to exact execution")));
                Some((Grid::from_table(&answer.table), us))
            }
            Err(e) => {
                checks.op(Some(format!("{what}: {e}")));
                None
            }
        }
    }

    /// Row count of each ingest scramble, read through `SHOW SCRAMBLES`.
    fn ingest_scramble_rows(&mut self) -> Result<Vec<i64>, String> {
        let names = self.spec.ingest_scrambles.clone();
        let response = self
            .session()
            .execute("SHOW SCRAMBLES")
            .map_err(|e| e.to_string())?;
        let table = response.table().ok_or("SHOW SCRAMBLES returned no table")?;
        let grid = Grid::from_table(table);
        let col = |n: &str| {
            grid.names
                .iter()
                .position(|c| c == n)
                .ok_or(format!("no {n} column"))
        };
        let (name_col, rows_col) = (col("scramble")?, col("rows")?);
        names
            .iter()
            .map(|name| {
                grid.rows
                    .iter()
                    .find(|r| r[name_col].as_str_lossy().as_deref() == Some(name))
                    .and_then(|r| r[rows_col].as_i64())
                    .ok_or(format!("scramble {name} is not listed"))
            })
            .collect()
    }

    /// Compares the approximate answer to every ingest and accuracy query
    /// with the engine's exact one, as the tables and scrambles stand now.
    /// The stream query reads a `RATIO 1.0` scramble and is no estimate, so
    /// it is left out.
    pub fn accuracy_cells(&mut self, checks: &mut Checks) -> Result<Vec<Cell>, String> {
        let statements = self.spec.statements();
        let truth = engine_truth(self.engine(), &statements[1..])?;
        let mut cells = Vec::new();
        for (q, truth) in statements[1..].iter().zip(&truth) {
            if let Some((grid, _)) = self.ask(&q.sql, checks, &q.id) {
                cells.extend(accuracy(&grid, truth).cells);
            }
        }
        Ok(cells)
    }

    /// Runs one cycle (see the module docs) that asks ingest query `query`.
    /// `stream_reference` is the fingerprint of the one-shot answer to the
    /// stream query.
    pub fn cycle(
        &mut self,
        query: usize,
        stream_reference: u64,
        checks: &mut Checks,
        spans: &mut dyn StepSpans,
    ) -> Result<CycleTimes, String> {
        let mut times = CycleTimes {
            query,
            ..CycleTimes::default()
        };
        let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;

        // 1. progressive read
        spans.begin("stream");
        let stream_sql = self.spec.stream_query.clone();
        let pages_before = self.store().stats().pages_read;
        let t = Instant::now();
        let mut last = None;
        match self.session().stream(&stream_sql) {
            Ok(stream) => {
                spans.begin("stream.frame");
                for frame in stream {
                    spans.end();
                    let frame = frame.map_err(|e| format!("STREAM frame: {e}"))?;
                    times.stream_frames += 1;
                    if times.stream_frames == 1 {
                        times.stream_ttff = us(t);
                    }
                    last = Some(frame);
                    spans.begin("stream.frame");
                }
                spans.end();
            }
            Err(e) => return Err(format!("STREAM: {e}")),
        }
        times.stream_full = us(t);
        spans.end();
        times.stream_pages_read = self.store().stats().pages_read - pages_before;
        checks.op(match &last {
            Some(f) if !f.last => Some("STREAM ended without a last frame".into()),
            Some(f) if Grid::from_table(&f.answer.table).fingerprint() != stream_reference => {
                Some("STREAM final frame differs from the one-shot answer".into())
            }
            Some(_) => None,
            None => Some("STREAM produced no frame".into()),
        });

        // 2–4. stage a batch, append it, fold it into the scrambles
        let before = self.ingest_scramble_rows()?;
        let offset = self
            .spec
            .tables
            .iter()
            .map(|(_, t)| t.num_rows())
            .max()
            .unwrap_or(0) as u64
            + self.appended;
        let ctas = self
            .spec
            .batch_ctas
            .replace("{offset}", &offset.to_string());
        let ingest = self.spec.ingest_table.clone();
        let mut statement =
            |env: &mut StoreEnv, name: &'static str, sql: &str| -> (f64, Option<VerdictResponse>) {
                spans.begin(name);
                let t = Instant::now();
                let result = env.session().execute(sql);
                let elapsed = us(t);
                spans.end();
                match result {
                    Ok(r) => {
                        checks.op(None);
                        (elapsed, Some(r))
                    }
                    Err(e) => {
                        checks.op(Some(format!("{sql}: {e}")));
                        (elapsed, None)
                    }
                }
            };
        times.stage_batch = statement(self, "stage_batch.drop", "DROP TABLE IF EXISTS batch").0
            + statement(self, "stage_batch.ctas", &ctas).0;
        times.insert = statement(
            self,
            "insert",
            &format!("INSERT INTO {ingest} SELECT * FROM batch"),
        )
        .0;
        let store_before = self.store().stats();
        let (refresh_us, refreshed) = statement(
            self,
            "refresh",
            &format!("REFRESH SCRAMBLES {ingest} FROM batch"),
        );
        times.refresh = refresh_us;
        let store_after = self.store().stats();
        times.refresh_pages_written = store_after.pages_written - store_before.pages_written;
        times.refresh_wal_syncs = store_after.wal_syncs - store_before.wal_syncs;
        times.refresh_wal_records = store_after.wal_records - store_before.wal_records;
        if let Ok(batch) = self.engine().catalog().get("batch") {
            times.batch_bytes = batch.approx_bytes() as u64;
            self.appended += batch.num_rows() as u64;
        }
        let expected = self.spec.ingest_scrambles.len();
        if !matches!(refreshed, Some(VerdictResponse::ScramblesRefreshed(n)) if n == expected) {
            checks.fail(format!(
                "REFRESH did not fold the batch into {expected} scrambles"
            ));
        }

        // 5. the scrambles grew
        spans.begin("show_scrambles");
        let t = Instant::now();
        let after = self.ingest_scramble_rows();
        times.show = us(t);
        spans.end();
        checks.op(match after {
            Ok(after) if after.iter().zip(&before).all(|(a, b)| a > b) => None,
            Ok(after) => Some(format!(
                "scramble rows did not grow: {before:?} -> {after:?}"
            )),
            Err(e) => Some(e),
        });

        // 6. approximate answer over the refreshed scrambles
        let sql = self.spec.ingest_queries[times.query].clone();
        spans.begin("select");
        let warm = self.ask(&sql, checks, "ingest SELECT");
        spans.end();
        times.select = warm.as_ref().map_or(0.0, |(_, us)| *us);

        // 7. restart and ask again
        spans.begin("cold_start");
        spans.begin("cold_start.reopen");
        let (open_us, attach_us) = self.reopen()?;
        spans.end();
        spans.begin("cold_start.first_answer");
        let cold = self.ask(&sql, checks, "cold-start SELECT");
        spans.end();
        spans.end();
        times.store_open = open_us;
        times.cold_start = open_us + attach_us + cold.as_ref().map_or(0.0, |(_, us)| *us);
        if let (Some((w, _)), Some((c, _))) = (&warm, &cold) {
            if w.fingerprint() != c.fingerprint() {
                checks.fail("answer after re-open differs from the one before the close".into());
            }
        }
        Ok(times)
    }
}

pub fn run(seed: u64, seconds: f64, out_dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tmp = TempDir::new(out_dir, "stream").map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut env = StoreEnv::build(tmp.path(), events_spec())?;
    out.metric("setup_s", started.elapsed().as_secs_f64());
    out.facts.push((
        "rows".into(),
        Json::obj(vec![
            ("events_stream", Json::Num(STREAM_ROWS as f64)),
            ("events_ingest", Json::Num(INGEST_ROWS as f64)),
            ("batch", Json::Num(BATCH_ROWS as f64)),
        ]),
    ));
    out.facts
        .push(("config".into(), crate::setup::config_json(&env.spec.config)));

    // Warm-up: the one-shot answer the stream must end on, and one cycle.
    let stream_sql = env.spec.stream_query.clone();
    let (stream_grid, _) = env
        .ask(&stream_sql, &mut Checks::default(), "stream query")
        .ok_or("the stream query failed at warm-up")?;
    let stream_reference = stream_grid.fingerprint();
    let mut warm = Checks::default();
    env.cycle(0, stream_reference, &mut warm, &mut NoSpans)?;
    if warm.failed > 0 {
        return Err(format!("warm-up cycle failed: {:?}", warm.examples));
    }

    // The error metrics are read after a fixed number of cycles, so that
    // they do not depend on how many cycles the window holds;
    // a window too short for that many is topped up with untimed cycles.
    let mut rng = Rng::fork(seed, 40);
    let ingest_queries = env.spec.ingest_queries.len() as u64;
    let mut cycles: Vec<CycleTimes> = Vec::new();
    let mut cells = None;
    let mut done = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        let in_window = Instant::now() < deadline;
        if !in_window && cells.is_some() {
            break;
        }
        done += 1;
        let query = rng.below(ingest_queries) as usize;
        let times = env.cycle(query, stream_reference, &mut out.checks, &mut NoSpans)?;
        if in_window {
            cycles.push(times);
        }
        if done == ACCURACY_AFTER_CYCLES {
            cells = Some(env.accuracy_cells(&mut out.checks)?);
        }
    }
    let cells = cells.unwrap_or_default();
    let totals_ms: Vec<f64> = cycles.iter().map(|c| c.total() / 1e3).collect();
    out.samples.push(("cycles", cycles.len() as u64));
    out.metric("op_p50_ms", median(&totals_ms));
    out.metric(
        "stmts_per_s",
        (cycles.len() * CycleTimes::STATEMENTS) as f64 / (totals_ms.iter().sum::<f64>() / 1e3),
    );
    let part = |f: fn(&CycleTimes) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>()) / 1e3;
    println!(
        "cycle medians (ms): stream_ttff {:.3} stream_full {:.3} stage_batch {:.3} insert {:.3} \
         refresh {:.3} show {:.3} select {:.3} cold_start {:.3}",
        part(|c| c.stream_ttff),
        part(|c| c.stream_full),
        part(|c| c.stage_batch),
        part(|c| c.insert),
        part(|c| c.refresh),
        part(|c| c.show),
        part(|c| c.select),
        part(|c| c.cold_start),
    );

    // Exact leg over the stream query and the ingest queries as they stand.
    let mut queries = env.spec.statements();
    queries.truncate(1 + env.spec.ingest_queries.len());
    let truth = engine_truth(env.engine(), &queries)?;
    let exact = exact_leg(&queries, &truth, 10, &mut out.checks, |sql| {
        observe(env.session(), sql).map(|seen| (seen.fingerprint, seen.micros))
    });
    let exact_us = &exact.query_us;
    out.samples
        .push(("exact_passes", exact.pass_ms.len() as u64));
    out.metric("exact_pass_ms", median(&exact.pass_ms));

    // Over the ingest queries only: the stream reads a whole-table scramble
    // off disk, which is no faster than the exact query and not meant to be.
    let mut speedups = Vec::new();
    for q in 0..env.spec.ingest_queries.len() {
        let asked: Vec<f64> = cycles
            .iter()
            .filter(|c| c.query == q)
            .map(|c| c.select)
            .collect();
        if !asked.is_empty() {
            speedups.push(median(&exact_us[q + 1]) / median(&asked));
        }
    }
    out.metric("speedup_geo", geo_mean(&speedups));
    let (rel, cover) = accuracy_metrics(&cells);
    out.samples.push(("accuracy_cells", cells.len() as u64));
    out.metric("actual_rel_error_med", rel);
    out.metric("ci_coverage", cover);
    drop(env);
    Ok(out)
}
