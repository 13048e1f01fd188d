//! Scalar-vs-vectorized and serial-vs-parallel kernel micro-benchmarks
//! (no external harness).
//!
//! Compares the typed-column kernels that power the engine's scan / filter /
//! aggregate hot path against a scalar reference path that materialises every
//! cell as a dynamically-typed `Value` — exactly what the engine did before
//! the typed-columnar refactor — and then the morsel-parallel kernels against
//! the serial vectorized ones.  Run with:
//!
//! ```text
//! cargo bench -p verdict-bench --bench micro_kernels
//! ```
//!
//! Emits a human-readable table on stdout and writes a machine-readable
//! perf snapshot to `BENCH_kernels.json` at the workspace root (override
//! the path with the `BENCH_KERNELS_JSON` environment variable).  The pool
//! size defaults to `available_parallelism()` and can be pinned with
//! `VERDICT_PARALLELISM`.

use std::sync::Arc;
use std::time::Instant;
use verdict_bench::kernel::{
    self, median_secs, par_filter_mask, par_grouped_sum, par_sum_avg, progressive_stream,
    synthetic_columns, REPS, ROWS, STREAM_ROWS,
};
use verdict_core::{VerdictConfig, VerdictContext, VerdictResponse, VerdictSession};
use verdict_engine::{Backend, Engine, TableBuilder, ThreadPool};
use verdict_server::{VerdictClient, VerdictServer};

// ---------------------------------------------------------------------------
// Serving-layer benchmarks: cached vs uncached repeats of a dashboard query,
// and protocol throughput at 1 vs N concurrent sessions.
// ---------------------------------------------------------------------------

const SERVING_ROWS: usize = 200_000;
const SERVING_QUERY: &str = "SELECT city, avg(price) AS ap FROM sales GROUP BY city ORDER BY city";

fn serving_context(cache_capacity: usize) -> Arc<VerdictContext> {
    let engine = Engine::with_seed(29);
    let table = TableBuilder::new()
        .int_column("id", (0..SERVING_ROWS as i64).collect())
        .float_column(
            "price",
            (0..SERVING_ROWS)
                .map(|i| ((i * 37) % 1000) as f64 / 10.0)
                .collect(),
        )
        .str_column(
            "city",
            (0..SERVING_ROWS)
                .map(|i| format!("city_{}", i % 10))
                .collect(),
        )
        .build()
        .unwrap();
    engine.register_table("sales", table);
    let conn: Arc<dyn Backend> = Arc::new(engine);
    let mut config = VerdictConfig::for_testing();
    config.answer_cache_capacity = cache_capacity;
    let ctx = Arc::new(VerdictContext::new(conn, config));
    VerdictSession::new(Arc::clone(&ctx))
        .execute("CREATE SCRAMBLE verdict_sample_sales_uniform FROM sales")
        .unwrap();
    ctx
}

/// (uncached_secs, cached_secs): median latency of the dashboard repeat with
/// the answer cache off vs on (warm).
fn bench_answer_cache() -> (f64, f64) {
    let uncached_ctx = serving_context(0);
    let uncached = median_secs(|| uncached_ctx.execute(SERVING_QUERY).unwrap());

    let cached_ctx = serving_context(64);
    let warm = cached_ctx.execute(SERVING_QUERY).unwrap();
    assert!(!warm.exact && !warm.cached);
    let cached = median_secs(|| {
        let answer = cached_ctx.execute(SERVING_QUERY).unwrap();
        assert!(answer.cached, "repeat must hit the cache");
        answer
    });
    (uncached, cached)
}

/// (direct_secs, session_secs): median latency of the cache-hot dashboard
/// repeat through the direct `VerdictContext::execute` call vs the SQL-first
/// `VerdictSession` dispatch (parse → option resolution → statement match).
/// The cache-hot path is the *worst case* for relative dispatch overhead —
/// there is almost no execution time to hide it behind.
fn bench_session_dispatch() -> (f64, f64) {
    let ctx = serving_context(64);
    let warm = ctx.execute(SERVING_QUERY).unwrap();
    assert!(!warm.exact && !warm.cached);
    // Batch 1000 calls per timed rep: single cache hits are microsecond-scale,
    // too small for a stable per-call median on their own.
    const BATCH: usize = 1000;
    let direct = median_secs(|| {
        for _ in 0..BATCH {
            let answer = ctx.execute(SERVING_QUERY).unwrap();
            assert!(answer.cached);
            std::hint::black_box(answer);
        }
    }) / BATCH as f64;
    let mut session = VerdictSession::new(Arc::clone(&ctx));
    let session_secs = median_secs(|| {
        for _ in 0..BATCH {
            let response = session.execute(SERVING_QUERY).unwrap();
            assert!(response.answer().unwrap().cached);
            std::hint::black_box(response);
        }
    }) / BATCH as f64;
    (direct, session_secs)
}

/// (direct_secs, routed_secs): median latency of one engine statement called
/// directly on `Engine::execute_sql` vs routed through the type-erased
/// `Arc<dyn Backend>` plus the per-backend instrumentation layer every
/// `VerdictContext` now uses.  Isolates the cost of the pluggable-backend
/// indirection itself: one dynamic dispatch and one relaxed atomic
/// increment per statement.
fn bench_backend_dispatch() -> (f64, f64) {
    const DISPATCH_ROWS: i64 = 10_000;
    const DISPATCH_QUERY: &str = "SELECT count(*) AS n, sum(id) AS s FROM ticks";
    const BATCH: usize = 100;
    let engine = Arc::new(Engine::with_seed(31));
    let table = TableBuilder::new()
        .int_column("id", (0..DISPATCH_ROWS).collect())
        .build()
        .unwrap();
    engine.register_table("ticks", table);
    let ctx = VerdictContext::new(
        engine.clone() as Arc<dyn Backend>,
        VerdictConfig::for_testing(),
    );
    engine.execute_sql(DISPATCH_QUERY).unwrap();
    ctx.connection().execute(DISPATCH_QUERY).unwrap();
    // The indirection costs nanoseconds on a query that takes tens of
    // microseconds, so scheduler drift between two separately-timed loops
    // would dominate the difference.  Interleave the paths inside each rep
    // and take per-path medians instead.
    let mut direct_samples = Vec::with_capacity(REPS);
    let mut routed_samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            std::hint::black_box(engine.execute_sql(DISPATCH_QUERY).unwrap());
        }
        direct_samples.push(t0.elapsed().as_secs_f64() / BATCH as f64);
        let t0 = Instant::now();
        for _ in 0..BATCH {
            std::hint::black_box(ctx.connection().execute(DISPATCH_QUERY).unwrap());
        }
        routed_samples.push(t0.elapsed().as_secs_f64() / BATCH as f64);
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        samples[samples.len() / 2]
    };
    (median(&mut direct_samples), median(&mut routed_samples))
}

/// Aggregate protocol throughput (queries/second) at `sessions` concurrent
/// sessions issuing `requests` dashboard repeats each against a shared server.
fn bench_sessions_qps(sessions: usize, requests: usize) -> f64 {
    let ctx = serving_context(64);
    ctx.execute(SERVING_QUERY).unwrap(); // warm the cache once
    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.addr();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..sessions {
            scope.spawn(move || {
                let mut client = VerdictClient::connect(addr).unwrap();
                for _ in 0..requests {
                    let answer = client.query(SERVING_QUERY).unwrap();
                    assert!(answer.header.cached);
                }
                let _ = client.quit();
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    handle.stop();
    (sessions * requests) as f64 / secs.max(1e-9)
}

// ---------------------------------------------------------------------------
// Persistent store: cold-start load vs rebuilding the scramble from its base
// table, and streamed block-read throughput off disk.
// ---------------------------------------------------------------------------

/// Base-table rows for the store benchmark; the scramble is
/// `STORE_RATIO` of them.
const STORE_BASE_ROWS: usize = 1_000_000;
const STORE_RATIO: f64 = 0.25;

struct StoreBench {
    scramble_rows: u64,
    rebuild_secs: f64,
    cold_start_secs: f64,
    block_read_rows_per_sec: f64,
}

/// The restart question: with `--data-dir`, how fast is a scramble *back*
/// compared to rebuilding it from the base table?  Plus the sequential
/// block-decode throughput a cold-start `STREAM` reads at.
fn bench_store() -> StoreBench {
    let dir = std::env::temp_dir().join(format!("verdict_bench_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let base = TableBuilder::new()
        .int_column("id", (0..STORE_BASE_ROWS as i64).collect())
        .float_column(
            "price",
            (0..STORE_BASE_ROWS)
                .map(|i| ((i * 37) % 1000) as f64 / 10.0)
                .collect(),
        )
        .int_column(
            "quantity",
            (0..STORE_BASE_ROWS).map(|i| (i % 7) as i64 + 1).collect(),
        )
        .build()
        .unwrap();

    let key = "verdict_sample_sales_uniform";
    let store_scramble_ddl = format!("CREATE SCRAMBLE {key} FROM sales RATIO {STORE_RATIO}");

    // Rebuild path: a fresh engine + base table, CREATE SCRAMBLE through
    // the middleware (shuffle + subsample column), nothing persisted.
    let rebuild_secs = {
        let engine = Engine::with_seed(31);
        engine.register_table("sales", base.clone());
        let conn: Arc<dyn Backend> = Arc::new(engine);
        let mut config = VerdictConfig::for_testing();
        config.io_budget = 1.0;
        let mut session = VerdictSession::new(Arc::new(VerdictContext::new(conn, config)));
        let t0 = Instant::now();
        session.execute(&store_scramble_ddl).unwrap();
        t0.elapsed().as_secs_f64()
    };

    // Persist the same scramble once (an engine with a store attached
    // writes it through the WAL as a side effect of CREATE SCRAMBLE).
    let scramble_rows = {
        let engine = Engine::with_seed(31);
        engine.register_table("sales", base);
        let store = Arc::new(verdict_store::Store::open(&dir).unwrap());
        engine
            .catalog()
            .set_store(Arc::clone(&store) as Arc<dyn verdict_engine::StoreHandle>);
        let conn: Arc<dyn Backend> = Arc::new(engine);
        let mut config = VerdictConfig::for_testing();
        config.io_budget = 1.0;
        let ctx = VerdictContext::with_store(conn, config, Arc::clone(&store)).unwrap();
        let built = VerdictSession::new(Arc::new(ctx))
            .execute(&store_scramble_ddl)
            .unwrap();
        match built {
            VerdictResponse::ScramblesCreated(metas) => metas[0].sample_rows,
            other => panic!("expected a scramble, got {}", other.kind()),
        }
    };

    // Cold start: reopen the directory and materialise the scramble — the
    // work a restarted server does instead of the rebuild above.
    let cold_start_secs = {
        let t0 = Instant::now();
        let store = verdict_store::Store::open(&dir).unwrap();
        let (table, _version) = store.load_table(key).unwrap();
        assert_eq!(table.num_rows() as u64, scramble_rows);
        t0.elapsed().as_secs_f64()
    };

    // Streamed block reads: sequential `read_range` in store-block units,
    // the access pattern of a cold-start progressive STREAM.
    let block_read_rows_per_sec = {
        use verdict_engine::ScanSource;
        let store = verdict_store::Store::open(&dir).unwrap();
        let scan = store.open_store_scan(key).unwrap();
        let rows = scan.num_rows();
        let block = verdict_store::BLOCK_ROWS as usize;
        let t0 = Instant::now();
        let mut lo = 0usize;
        while lo < rows {
            let take = block.min(rows - lo);
            let cols = scan.read_range(None, lo, take).unwrap();
            assert_eq!(cols[0].len(), take);
            lo += take;
        }
        rows as f64 / t0.elapsed().as_secs_f64().max(1e-12)
    };

    let _ = std::fs::remove_dir_all(&dir);
    StoreBench {
        scramble_rows,
        rebuild_secs,
        cold_start_secs,
        block_read_rows_per_sec,
    }
}

struct Row {
    name: &'static str,
    baseline_secs: f64,
    candidate_secs: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.baseline_secs / self.candidate_secs.max(1e-12)
    }
}

fn print_table(title: &str, baseline: &str, candidate: &str, rows: &[Row]) {
    println!("\n## {title}\n");
    println!("| kernel | {baseline} (ms) | {candidate} (ms) | speedup |");
    println!("|--------|------------:|----------------:|--------:|");
    for r in rows {
        println!(
            "| {} | {:.2} | {:.2} | {:.2}x |",
            r.name,
            r.baseline_secs * 1e3,
            r.candidate_secs * 1e3,
            r.speedup()
        );
    }
}

fn json_rows(rows: &[Row], baseline_key: &str, candidate_key: &str) -> String {
    let mut out = String::new();
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"{}\": {:.6}, \"{}\": {:.6}, \"speedup\": {:.3} }}{}\n",
            r.name,
            baseline_key,
            r.baseline_secs,
            candidate_key,
            r.candidate_secs,
            r.speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out
}

fn main() {
    kernel::warn_if_few_cpus();
    let cpus = kernel::cpus();
    let rustc = kernel::rustc_version();
    let pool = ThreadPool::with_default_parallelism();
    let parallelism = pool.parallelism();
    println!(
        "# micro_kernels — scalar vs typed-column vs morsel-parallel \
         ({ROWS} rows, median of {REPS}, pool of {parallelism}, {cpus} cpu(s), {rustc})"
    );
    let (price, qty) = synthetic_columns(ROWS);

    // Sanity for the parallel section: partials merge in morsel order, so
    // every kernel is bit-identical at ANY pool size.  (The scalar-vs-
    // vectorized pairs are cross-checked inside scalar_vs_vectorized_rows.)
    let serial_pool = ThreadPool::serial();
    assert_eq!(
        par_filter_mask(&price, 15.0, &serial_pool),
        par_filter_mask(&price, 15.0, &pool),
        "parallel filter mask must equal the serial mask exactly"
    );
    let (p1s, p1a) = par_sum_avg(&price, &serial_pool);
    let (pns, pna) = par_sum_avg(&price, &pool);
    assert_eq!(p1s.to_bits(), pns.to_bits());
    assert_eq!(p1a.to_bits(), pna.to_bits());
    let par_groups_1 = par_grouped_sum(&qty, &price, &serial_pool);
    let par_groups_n = par_grouped_sum(&qty, &price, &pool);
    assert_eq!(par_groups_1.len(), par_groups_n.len());
    for (a, b) in par_groups_1.iter().zip(par_groups_n.iter()) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "parallel grouped sums must be bit-identical across pool sizes"
        );
    }

    // The gated section: the same rows `verdict-bench --check` re-runs.
    let vector_rows: Vec<Row> = kernel::scalar_vs_vectorized_rows()
        .into_iter()
        .map(|r| Row {
            name: r.name,
            baseline_secs: r.scalar_secs,
            candidate_secs: r.vectorized_secs,
        })
        .collect();
    print_table(
        "scalar Value path vs typed-column kernels",
        "scalar",
        "vectorized",
        &vector_rows,
    );

    let hot = vector_rows
        .iter()
        .filter(|r| r.name == "filter_gt" || r.name == "sum_avg")
        .map(|r| r.speedup())
        .fold(f64::INFINITY, f64::min);
    println!("\nminimum hot-path (filter + sum/avg) speedup: {hot:.2}x");

    // Serial vectorized vs morsel-parallel (same kernels, pool-sized).
    let parallel_rows = vec![
        Row {
            name: "filter_gt",
            baseline_secs: median_secs(|| par_filter_mask(&price, 15.0, &serial_pool)),
            candidate_secs: median_secs(|| par_filter_mask(&price, 15.0, &pool)),
        },
        Row {
            name: "sum_avg",
            baseline_secs: median_secs(|| par_sum_avg(&price, &serial_pool)),
            candidate_secs: median_secs(|| par_sum_avg(&price, &pool)),
        },
        Row {
            name: "grouped_sum",
            baseline_secs: median_secs(|| par_grouped_sum(&qty, &price, &serial_pool)),
            candidate_secs: median_secs(|| par_grouped_sum(&qty, &price, &pool)),
        },
    ];
    print_table(
        &format!("serial vectorized vs morsel-parallel ({parallelism} threads)"),
        "serial",
        "parallel",
        &parallel_rows,
    );

    let par_min = parallel_rows
        .iter()
        .filter(|r| r.name == "filter_gt" || r.name == "grouped_sum")
        .map(|r| r.speedup())
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nminimum parallel (filter + grouped_sum) speedup at {parallelism} threads: {par_min:.2}x"
    );

    // Serving layer: answer-cache hit vs full AQP execution, and protocol
    // throughput at 1 vs 4 concurrent sessions (cache-hot dashboard repeats).
    let (uncached_secs, cached_secs) = bench_answer_cache();
    let cache_speedup = uncached_secs / cached_secs.max(1e-12);
    println!(
        "\n## answer cache ({SERVING_ROWS} rows, dashboard repeat)\n\n\
         | path | latency (ms) |\n|------|-------------:|\n\
         | uncached AQP | {:.3} |\n| cache hit | {:.3} |\n\n\
         cache speedup: {cache_speedup:.1}x",
        uncached_secs * 1e3,
        cached_secs * 1e3
    );
    let requests = 200usize;
    let qps_1 = bench_sessions_qps(1, requests);
    let qps_4 = bench_sessions_qps(4, requests);
    println!(
        "\n## protocol throughput ({requests} cache-hot repeats per session)\n\n\
         | sessions | q/s |\n|---------:|----:|\n| 1 | {qps_1:.0} |\n| 4 | {qps_4:.0} |"
    );

    // Progressive streaming: time-to-first-frame and early-stop speedup on
    // a 1M-row scramble.
    let stream = progressive_stream();
    let first_frame_speedup = stream.one_shot_secs / stream.first_frame_secs.max(1e-12);
    let early_stop_speedup = stream.one_shot_secs / stream.early_stop_secs.max(1e-12);
    println!(
        "\n## progressive streaming ({STREAM_ROWS}-row scramble, 64K-row blocks)\n\n\
         | path | latency (ms) |\n|------|-------------:|\n\
         | one-shot AQP | {:.1} |\n| first frame | {:.1} |\n\
         | early stop (target_error = 0.01, {:.0}% of scramble) | {:.1} |\n\
         | full stream ({} frames) | {:.1} |\n\n\
         time-to-first-frame speedup: {first_frame_speedup:.1}x, \
         early-stop speedup: {early_stop_speedup:.1}x",
        stream.one_shot_secs * 1e3,
        stream.first_frame_secs * 1e3,
        100.0 * stream.early_stop_fraction,
        stream.early_stop_secs * 1e3,
        stream.frames,
        stream.full_stream_secs * 1e3,
    );

    // Persistent store: cold-start load vs rebuild, and streamed
    // block-read throughput.
    let store_bench = bench_store();
    let cold_start_speedup = store_bench.rebuild_secs / store_bench.cold_start_secs.max(1e-12);
    println!(
        "\n## persistent store ({} base rows, τ = {STORE_RATIO}, {}-row scramble)\n\n\
         | path | latency (ms) |\n|------|-------------:|\n\
         | rebuild scramble from base table | {:.1} |\n\
         | cold-start load from store | {:.1} |\n\n\
         cold-start speedup: {cold_start_speedup:.1}x, \
         streamed block reads: {:.1}M rows/s",
        STORE_BASE_ROWS,
        store_bench.scramble_rows,
        store_bench.rebuild_secs * 1e3,
        store_bench.cold_start_secs * 1e3,
        store_bench.block_read_rows_per_sec / 1e6,
    );

    // SQL-first session dispatch vs the direct context call, on the
    // cache-hot path where relative overhead is largest.
    let (direct_secs, session_secs) = bench_session_dispatch();
    let dispatch_overhead_pct = 100.0 * (session_secs / direct_secs.max(1e-12) - 1.0);
    println!(
        "\n## session dispatch (cache-hot repeat, worst case for relative overhead)\n\n\
         | path | latency (µs) |\n|------|-------------:|\n\
         | VerdictContext::execute | {:.3} |\n| VerdictSession::execute (SQL) | {:.3} |\n\n\
         dispatch overhead: {dispatch_overhead_pct:.2}%",
        direct_secs * 1e6,
        session_secs * 1e6
    );

    // Cost of the pluggable-backend indirection (dyn dispatch + routing
    // counters) relative to calling the engine directly.
    let (backend_direct_secs, backend_routed_secs) = bench_backend_dispatch();
    let backend_overhead_pct = 100.0 * (backend_routed_secs / backend_direct_secs.max(1e-12) - 1.0);
    println!(
        "\n## backend dispatch (Arc<dyn Backend> + instrumentation vs direct engine call)\n\n\
         | path | latency (µs) |\n|------|-------------:|\n\
         | Engine::execute_sql | {:.3} |\n| Backend::execute via context | {:.3} |\n\n\
         backend dispatch overhead: {backend_overhead_pct:.2}%",
        backend_direct_secs * 1e6,
        backend_routed_secs * 1e6
    );

    // Machine-readable snapshot, written at the workspace root (cargo bench
    // runs with the package directory as cwd).
    let path = std::env::var("BENCH_KERNELS_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_kernels.json", env!("CARGO_MANIFEST_DIR")));
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"rows\": {ROWS},\n  \"reps\": {REPS},\n  \"parallelism\": {parallelism},\n  \
         \"cpus\": {cpus},\n  \"rustc\": \"{rustc}\",\n  \"kernels\": [\n"
    ));
    json.push_str(&json_rows(&vector_rows, "scalar_secs", "vectorized_secs"));
    json.push_str(&format!(
        "  ],\n  \"min_hot_path_speedup\": {hot:.3},\n  \"parallel_kernels\": [\n"
    ));
    json.push_str(&json_rows(&parallel_rows, "serial_secs", "parallel_secs"));
    json.push_str(&format!(
        "  ],\n  \"min_parallel_speedup\": {par_min:.3},\n  \"serving\": {{\n"
    ));
    json.push_str(&format!(
        "    \"rows\": {SERVING_ROWS},\n    \"uncached_secs\": {uncached_secs:.6},\n    \
         \"cached_secs\": {cached_secs:.6},\n    \"cache_speedup\": {cache_speedup:.3},\n    \
         \"requests_per_session\": {requests},\n    \"sessions\": [\n"
    ));
    json.push_str(&format!(
        "      {{ \"sessions\": 1, \"qps\": {qps_1:.0} }},\n      {{ \"sessions\": 4, \"qps\": {qps_4:.0} }}\n"
    ));
    json.push_str("    ]\n  },\n  \"stream\": {\n");
    json.push_str(&format!(
        "    \"scramble_rows\": {STREAM_ROWS},\n    \
         \"block_rows\": 65536,\n    \
         \"one_shot_secs\": {:.6},\n    \
         \"time_to_first_frame_secs\": {:.6},\n    \
         \"full_stream_secs\": {:.6},\n    \
         \"full_stream_over_one_shot\": {:.3},\n    \
         \"frames\": {},\n    \
         \"early_stop_target\": 0.01,\n    \
         \"early_stop_secs\": {:.6},\n    \
         \"early_stop_fraction\": {:.4},\n    \
         \"stream_time_to_first_frame\": {first_frame_speedup:.3},\n    \
         \"stream_early_stop_speedup\": {early_stop_speedup:.3}\n",
        stream.one_shot_secs,
        stream.first_frame_secs,
        stream.full_stream_secs,
        stream.full_stream_secs / stream.one_shot_secs.max(1e-12),
        stream.frames,
        stream.early_stop_secs,
        stream.early_stop_fraction,
    ));
    json.push_str("  },\n  \"store\": {\n");
    json.push_str(&format!(
        "    \"base_rows\": {STORE_BASE_ROWS},\n    \
         \"ratio\": {STORE_RATIO},\n    \
         \"scramble_rows\": {},\n    \
         \"rebuild_secs\": {:.6},\n    \
         \"cold_start_secs\": {:.6},\n    \
         \"cold_start_speedup\": {cold_start_speedup:.3},\n    \
         \"block_read_rows_per_sec\": {:.0}\n",
        store_bench.scramble_rows,
        store_bench.rebuild_secs,
        store_bench.cold_start_secs,
        store_bench.block_read_rows_per_sec,
    ));
    json.push_str("  },\n  \"session_dispatch\": {\n");
    json.push_str(&format!(
        "    \"query\": \"cache-hot dashboard repeat\",\n    \
         \"direct_secs\": {direct_secs:.9},\n    \
         \"session_secs\": {session_secs:.9},\n    \
         \"overhead_pct\": {dispatch_overhead_pct:.2}\n"
    ));
    json.push_str("  },\n  \"backend_dispatch\": {\n");
    json.push_str(&format!(
        "    \"query\": \"count+sum over 10k rows, in-process engine\",\n    \
         \"direct_secs\": {backend_direct_secs:.9},\n    \
         \"routed_secs\": {backend_routed_secs:.9},\n    \
         \"overhead_pct\": {backend_overhead_pct:.2}\n"
    ));
    json.push_str("  }");
    // `verdict-loadgen --json-out` maintains a `serving_scale` section in
    // this file; carry it across the rewrite so a bench run does not erase
    // the latest qps-vs-sessions curve.
    if let Some(block) = std::fs::read_to_string(&path)
        .ok()
        .as_deref()
        .and_then(extract_serving_scale)
    {
        json.push_str(",\n  ");
        json.push_str(&block);
    }
    json.push_str("\n}\n");
    std::fs::write(&path, &json).expect("write perf snapshot");
    println!("wrote {path}");
}

/// Extracts the full `"serving_scale": { … }` text from a previous snapshot
/// (key through matching close brace; the section's string values contain no
/// braces, so brace counting is sufficient).
fn extract_serving_scale(json: &str) -> Option<String> {
    let start = json.find("\"serving_scale\"")?;
    let open = start + json[start..].find('{')?;
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(json[start..open + i + 1].to_string());
                }
            }
            _ => {}
        }
    }
    None
}
