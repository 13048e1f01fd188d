//! Observability acceptance tests: `EXPLAIN [ANALYZE]`, `SHOW PROFILE`,
//! `SHOW METRICS`, the sectioned `SHOW STATS` ordering, and the
//! `slow_query_ms` threshold.
//!
//! The load-bearing bar is the `EXPLAIN ANALYZE` contiguity invariant:
//! per-stage spans are closed back-to-back (each `begin` ends the previous
//! span at the same instant), so their durations must tile the measured
//! wall time — the test holds the span sum within 10% of `@total` (plus a
//! small absolute floor for per-span microsecond truncation).

mod common;

use std::collections::HashMap;
use std::sync::Arc;
use verdictdb::core::session::{VerdictResponse, VerdictSession};
use verdictdb::{
    Backend, Engine, Table, TableBuilder, Value, VerdictAnswer, VerdictConfig, VerdictContext,
    VerdictError,
};

/// Deterministic 50k-row sales table (same shape the session suite uses).
fn sales_context(seed: u64) -> Arc<VerdictContext> {
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
    let conn: Arc<dyn Backend> = Arc::new(engine);
    let mut config = VerdictConfig::for_testing();
    config.answer_cache_capacity = 64;
    // Leave room in the I/O budget for a 0.05-ratio scramble, so the
    // approximate plan (and its rewrite/assemble spans) is actually taken.
    config.sampling_ratio = 0.05;
    config.io_budget = 0.12;
    Arc::new(VerdictContext::new(conn, config))
}

fn str_at(t: &Table, row: usize, col: usize) -> String {
    match t.value_at(row, col) {
        Value::Str(s) => s,
        other => panic!("expected string at ({row},{col}), got {other:?}"),
    }
}

fn int_at(t: &Table, row: usize, col: usize) -> i64 {
    t.value_at(row, col)
        .as_i64()
        .unwrap_or_else(|| panic!("expected integer at ({row},{col})"))
}

/// The `SHOW METRICS` answer (one exposition line per row) as text.
fn metrics_text(t: &Table) -> String {
    (0..t.num_rows()).map(|r| str_at(t, r, 0) + "\n").collect()
}

/// The `EXPLAIN ANALYZE` table as a span → (duration_us, detail) map.
fn analyze_map(t: &Table) -> HashMap<String, (i64, String)> {
    (0..t.num_rows())
        .map(|r| (str_at(t, r, 0), (int_at(t, r, 2), str_at(t, r, 3))))
        .collect()
}

fn explain_table(resp: &VerdictResponse) -> &Table {
    match resp {
        VerdictResponse::Answer(VerdictAnswer { table: t, .. }) => t,
        other => panic!("expected an EXPLAIN response, got {}", other.kind()),
    }
}

#[test]
fn explain_analyze_spans_tile_wall_time_within_ten_percent() {
    let ctx = sales_context(11);
    let mut s = VerdictSession::new(Arc::clone(&ctx));
    s.execute("CREATE SCRAMBLE sales_scr FROM sales METHOD uniform RATIO 0.05")
        .unwrap();

    for sql in [
        "EXPLAIN ANALYZE SELECT city, avg(price) AS ap FROM sales GROUP BY city ORDER BY city",
        "EXPLAIN ANALYZE BYPASS SELECT count(*) AS n FROM sales",
        "EXPLAIN ANALYZE SHOW SCRAMBLES",
    ] {
        let resp = s.execute(sql).unwrap();
        let table = explain_table(&resp);
        let by_span = analyze_map(table);

        let total = by_span
            .get("@total")
            .unwrap_or_else(|| panic!("`{sql}`: missing @total row"))
            .0;
        assert!(total > 0, "`{sql}`: zero wall time");
        let span_sum: i64 = (0..table.num_rows())
            .filter(|&r| !str_at(table, r, 0).starts_with('@'))
            .map(|r| int_at(table, r, 2))
            .sum();
        // Spans are contiguous, so their sum tiles the wall time; allow 10%
        // plus a 16 µs floor for integer truncation across ~10 spans.
        let slack = total / 10 + 16;
        assert!(
            (span_sum - total).abs() <= slack,
            "`{sql}`: span sum {span_sum}µs vs wall {total}µs exceeds 10% (slack {slack}µs)"
        );

        // Attribution rows are always present.
        for attr in [
            "@class",
            "@cached",
            "@exact",
            "@shed_tier",
            "@backend_queries",
            "@store_pages_read",
            "@rows_returned",
            "@rows_scanned",
            "@slow",
        ] {
            assert!(by_span.contains_key(attr), "`{sql}`: missing {attr} row");
        }
    }

    // The approximate query's trace must attribute real backend work and
    // carry the rewrite pipeline stages.
    let resp = s
        .execute("EXPLAIN ANALYZE SELECT count(*) AS n FROM sales")
        .unwrap();
    let by_span = analyze_map(explain_table(&resp));
    assert_eq!(by_span["@class"].1, "query");
    assert!(
        by_span["@backend_queries"].1.parse::<u64>().unwrap() >= 1,
        "approximate execution must route at least one backend query"
    );
    for stage in [
        "canonicalize",
        "cache_probe",
        "analyze",
        "plan",
        "rewrite",
        "backend_exec",
    ] {
        assert!(by_span.contains_key(stage), "missing `{stage}` span");
    }
}

#[test]
fn explain_analyze_stream_never_reads_the_answer_cache() {
    let ctx = sales_context(21);
    let mut s = VerdictSession::new(Arc::clone(&ctx));
    s.execute("CREATE SCRAMBLE sales_scr FROM sales METHOD uniform RATIO 0.05")
        .unwrap();

    // Warm the cache with the plain SELECT; its repeat is a hit.
    let query = "SELECT city, avg(price) AS ap FROM sales GROUP BY city ORDER BY city";
    s.execute(query).unwrap();
    let repeat = s.execute(query).unwrap().into_answer().unwrap();
    assert!(repeat.cached, "the warm-up must have populated the cache");
    let hits_before = ctx.cache_stats().hits;

    // A stream observes current data: analyzing one must recompute, not
    // replay the cached answer, and is classed as the statement it wraps.
    // What it explains is the stream it ran: block-scan frames, not a
    // one-shot backend statement.
    let resp = s
        .execute(&format!("EXPLAIN ANALYZE STREAM {query}"))
        .unwrap();
    let by_span = analyze_map(explain_table(&resp));
    assert_eq!(by_span["@cached"].1, "false");
    assert_eq!(by_span["@class"].1, "stream");
    assert!(
        !by_span.contains_key("cache_probe"),
        "a stream's route has no cache_probe stage: {by_span:?}"
    );
    assert_eq!(ctx.cache_stats().hits, hits_before, "no cache read");
    assert!(
        by_span["@rows_scanned"].1.parse::<u64>().unwrap() >= 1,
        "the stream's query must actually run"
    );
    assert_eq!(
        by_span["@backend_queries"].1, "1",
        "the opened block scan is the one query the stream routed"
    );
    for stage in ["canonicalize", "analyze", "plan", "rewrite", "stream_frame"] {
        assert!(by_span.contains_key(stage), "missing `{stage}` span");
    }
    assert!(!by_span.contains_key("backend_exec"), "{by_span:?}");
}

/// `EXPLAIN ANALYZE STREAM q` runs the stream `STREAM q` runs, drained by
/// the same rules, and explains it by that stream's own trace: the span
/// stages of the in-process `STREAM q` trace in `verdict_traces`, one
/// `stream_frame` per frame, no one-shot `backend_exec`, and the final
/// frame's rows as `@rows_scanned`.
#[test]
fn explain_analyze_stream_traces_the_stream_it_runs() {
    let ctx = sales_context(23);
    let mut s = VerdictSession::new(Arc::clone(&ctx));
    s.execute("CREATE SCRAMBLE sales_scr FROM sales METHOD uniform RATIO 0.05")
        .unwrap();
    s.execute("SET stream_block_rows = 200").unwrap();
    let query = "SELECT city, avg(price) AS ap FROM sales GROUP BY city ORDER BY city";
    // The stages of an `EXPLAIN ANALYZE` table, in order.
    let stages = |t: &Table| -> Vec<String> {
        (0..t.num_rows())
            .map(|r| str_at(t, r, 0))
            .filter(|span| !span.starts_with('@'))
            .collect()
    };
    // The stages of the newest `stream` trace in `verdict_traces`.
    let traced = |s: &mut VerdictSession| -> Vec<String> {
        let resp = s
            .execute(
                "SELECT spans FROM verdict_traces WHERE class = 'stream' ORDER BY seq DESC LIMIT 1",
            )
            .unwrap();
        let spans = str_at(explain_table(&resp), 0, 0);
        let stages = spans.split(' ').map(|sp| sp.split('=').next().unwrap());
        stages.map(String::from).collect()
    };

    // Without a target error the stream drains in one step: one frame.
    let rows_seen = s.stream(query).unwrap().final_frame().unwrap().rows_seen;
    s.execute(&format!("STREAM {query}")).unwrap();
    let expected = traced(&mut s);
    let resp = s
        .execute(&format!("EXPLAIN ANALYZE STREAM {query}"))
        .unwrap();
    let table = explain_table(&resp);
    assert_eq!(stages(table), expected);
    let frames = expected.iter().filter(|st| *st == "stream_frame").count();
    assert_eq!(frames, 1, "{expected:?}");
    assert!(
        !expected.iter().any(|st| st == "backend_exec"),
        "{expected:?}"
    );
    let by_span = analyze_map(table);
    assert_eq!(by_span["@class"].1, "stream");
    assert_eq!(by_span["@rows_scanned"].1, rows_seen.to_string());

    // An early-stopping stream is pulled frame by frame: one `stream_frame`
    // per frame the iterator yields.
    s.execute("SET target_error = 0.2").unwrap();
    let pulled = s
        .stream(query)
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    assert!(pulled.last().unwrap().early_stopped);
    let pulled = pulled.len();
    s.execute(&format!("STREAM {query}")).unwrap();
    let expected = traced(&mut s);
    let resp = s
        .execute(&format!("EXPLAIN ANALYZE STREAM {query}"))
        .unwrap();
    assert_eq!(stages(explain_table(&resp)), expected);
    let frames = expected.iter().filter(|st| *st == "stream_frame").count();
    assert_eq!(frames, pulled, "{expected:?}");
    assert!(pulled > 1, "the target should stop after several frames");
}

#[test]
fn streams_record_frame_spans_and_one_stream_class_trace() {
    let ctx = sales_context(22);
    let mut s = VerdictSession::new(Arc::clone(&ctx));
    s.execute("CREATE SCRAMBLE sales_scr FROM sales METHOD uniform RATIO 0.05")
        .unwrap();
    s.execute("SET stream_block_rows = 500").unwrap();

    let frames = s
        .stream("SELECT city, avg(price) AS ap FROM sales GROUP BY city ORDER BY city")
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    assert!(frames.len() >= 3, "only {} frames", frames.len());

    // One `stream_frame` stage sample per progressive frame …
    let metrics = match s.execute("SHOW METRICS").unwrap() {
        VerdictResponse::Answer(a) => metrics_text(&a.table),
        other => panic!("expected a METRICS response, got {}", other.kind()),
    };
    let value_of = |needle: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(needle))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing series {needle} in:\n{metrics}"))
    };
    assert_eq!(
        value_of("verdict_stage_duration_us_count{stage=\"stream_frame\"}"),
        frames.len() as u64
    );
    // … and the completed stream is one statement of class `stream`: a
    // single ring entry, not one per frame.
    assert_eq!(value_of("verdict_statements_total{class=\"stream\"}"), 1);
    let traces = ctx.obs().ring().recent(usize::MAX);
    let stream_traces: Vec<_> = traces.iter().filter(|t| t.class == "stream").collect();
    assert_eq!(stream_traces.len(), 1);
    let frame_spans = stream_traces[0]
        .spans
        .iter()
        .filter(|sp| sp.stage == "stream_frame")
        .count();
    assert_eq!(frame_spans, frames.len());
}

#[test]
fn explain_without_analyze_plans_without_executing() {
    let ctx = sales_context(12);
    let mut s = VerdictSession::new(Arc::clone(&ctx));
    s.execute("CREATE SCRAMBLE sales_scr FROM sales METHOD uniform RATIO 0.05")
        .unwrap();
    let routed_before = ctx.backend_stats().queries_routed;

    let resp = s
        .execute("EXPLAIN SELECT count(*) AS n FROM sales")
        .unwrap();
    let table = explain_table(&resp);
    let items: Vec<String> = (0..table.num_rows()).map(|r| str_at(table, r, 0)).collect();
    assert!(items.contains(&"statement".to_string()), "{items:?}");
    assert!(items.contains(&"cacheable".to_string()), "{items:?}");
    assert!(
        items.iter().any(|i| i.starts_with("rewritten")),
        "an approximable query must show its rewritten form: {items:?}"
    );
    assert_eq!(
        ctx.backend_stats().queries_routed,
        routed_before,
        "EXPLAIN (without ANALYZE) must not execute the query"
    );
}

#[test]
fn explain_names_the_universe_join_group() {
    let ctx = sales_context(21);
    ctx.connection()
        .execute("CREATE TABLE returns AS SELECT id, price FROM sales")
        .unwrap();
    let mut s = VerdictSession::new(Arc::clone(&ctx));
    for t in ["sales", "returns"] {
        s.execute(&format!(
            "CREATE SCRAMBLE {t}_h FROM {t} METHOD hashed RATIO 0.05 ON id"
        ))
        .unwrap();
    }
    // the values of the EXPLAIN rows named `universe join`
    let universe = |s: &mut VerdictSession, sql: &str| -> Vec<String> {
        let table = table_of(s, &format!("EXPLAIN {sql}"));
        (0..table.num_rows())
            .filter(|&r| str_at(&table, r, 0) == "universe join")
            .map(|r| str_at(&table, r, 1))
            .collect()
    };
    let joined = "SELECT count(*) AS n FROM sales s INNER JOIN returns r ON s.id = r.id";
    assert_eq!(universe(&mut s, joined), ["s, r"]);
    // joined off the hash column: two independent samples, no row
    let off_key = "SELECT count(*) AS n FROM sales s INNER JOIN returns r ON s.price = r.price";
    assert!(universe(&mut s, off_key).is_empty());
    assert!(universe(&mut s, "SELECT count(*) AS n FROM sales").is_empty());
}

#[test]
fn show_profile_lists_recent_statements_most_recent_first() {
    let ctx = sales_context(13);
    let mut s = VerdictSession::new(ctx);
    s.execute("BYPASS SELECT count(*) AS n FROM sales").unwrap();
    s.execute("SELECT count(*) AS n FROM sales").unwrap();
    s.execute("SET target_error = 0.05").unwrap();

    let resp = s.execute("SHOW PROFILE LAST 2").unwrap();
    let table = match &resp {
        VerdictResponse::Answer(VerdictAnswer { table: t, .. }) => t,
        other => panic!("expected a PROFILE response, got {}", other.kind()),
    };
    assert_eq!(table.num_rows(), 2, "LAST 2 must cap the listing");
    let cols: Vec<&str> = table
        .schema
        .fields
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    assert_eq!(
        cols,
        [
            "seq",
            "class",
            "total_us",
            "cached",
            "slow",
            "shed_tier",
            "spans",
            "sql"
        ]
    );
    assert!(
        int_at(table, 0, 0) > int_at(table, 1, 0),
        "profile must list most recent first"
    );
    assert_eq!(
        str_at(table, 0, 1),
        "set",
        "most recent statement is the SET"
    );
    assert_eq!(str_at(table, 1, 1), "query");
    assert!(
        !str_at(table, 0, 6).is_empty(),
        "every trace carries at least one span"
    );
}

#[test]
fn show_stats_sections_are_ordered_and_alphabetical_within() {
    let ctx = sales_context(14);
    let mut s = VerdictSession::new(ctx);
    s.execute("CREATE SCRAMBLE sales_scr FROM sales METHOD uniform RATIO 0.02")
        .unwrap();
    s.execute("SELECT count(*) AS n FROM sales").unwrap();

    let resp = s.execute("SHOW STATS").unwrap();
    let table = resp.table().expect("SHOW STATS returns a table");
    let cols: Vec<&str> = table
        .schema
        .fields
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    assert_eq!(cols, ["section", "stat", "value"]);

    let rows: Vec<(String, String)> = (0..table.num_rows())
        .map(|r| (str_at(table, r, 0), str_at(table, r, 1)))
        .collect();

    // Section group order is pinned: cache, streams, backend (a memory-only
    // context has no store section), each internally alphabetical.
    let rank = |s: &str| match s {
        "cache" => 0u8,
        "streams" => 1,
        "backend" => 2,
        "store" => 3,
        other => panic!("unknown section {other}"),
    };
    for pair in rows.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert!(
            (rank(&a.0), a.1.as_str()) < (rank(&b.0), b.1.as_str()),
            "SHOW STATS ordering violated: {a:?} before {b:?}"
        );
    }

    // The cache and streams sections are pinned exactly.
    let in_section = |name: &str| -> Vec<String> {
        rows.iter()
            .filter(|(s, _)| s == name)
            .map(|(_, k)| k.clone())
            .collect()
    };
    assert_eq!(
        in_section("cache"),
        [
            "cache_capacity",
            "cache_entries",
            "cache_evictions",
            "cache_hits",
            "cache_insertions",
            "cache_invalidations",
            "cache_misses",
        ]
    );
    assert_eq!(
        in_section("streams"),
        [
            "stream_early_stops",
            "stream_fallbacks",
            "stream_frames",
            "streams_completed",
            "streams_started",
        ]
    );
    let backend = in_section("backend");
    for stat in [
        "backend_queries",
        "backend_scan_fallbacks",
        "backend_version_fallbacks",
        "scrambles",
    ] {
        assert!(
            backend.contains(&stat.to_string()),
            "missing {stat}: {backend:?}"
        );
    }
}

#[test]
fn show_metrics_exposition_is_well_formed_and_monotone() {
    let ctx = sales_context(15);
    let mut s = VerdictSession::new(ctx);
    s.execute("SELECT count(*) AS n FROM sales").unwrap();

    let scrape = |s: &mut VerdictSession| -> String {
        match s.execute("SHOW METRICS").unwrap() {
            VerdictResponse::Answer(a) => metrics_text(&a.table),
            other => panic!("expected a METRICS response, got {}", other.kind()),
        }
    };
    let first = scrape(&mut s);

    // Every histogram family is complete: each series has a cumulative
    // bucket chain ending at +Inf plus matching _sum and _count lines.
    let series: Vec<&str> = first.lines().filter(|l| l.contains("_count{")).collect();
    assert!(!series.is_empty(), "no histogram series in:\n{first}");
    for count_line in &series {
        let series_key = count_line.split("_count{").collect::<Vec<_>>().join("{");
        let (name, label) = series_key.split_once('{').unwrap();
        let label = label.split('}').next().unwrap();
        assert!(
            first.contains(&format!("{name}_sum{{{label}}}")),
            "series {name}{{{label}}} lacks a _sum line"
        );
        assert!(
            first.contains(&format!("{name}_bucket{{{label},le=\"+Inf\"}}")),
            "series {name}{{{label}}} lacks a +Inf bucket"
        );
    }
    assert!(first.contains("# TYPE verdict_statements_total counter"));
    assert!(first.contains("verdict_cache_hits_total"));

    // Counters are monotone across scrapes, and the statement counter moves.
    let count_of = |text: &str, needle: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(needle))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing counter {needle}"))
    };
    // A *different* query: repeating the first would hit the answer cache
    // and count as `query_cached` instead.
    s.execute("SELECT sum(price) AS sp FROM sales").unwrap();
    let second = scrape(&mut s);
    let key = "verdict_statements_total{class=\"query\"}";
    assert!(
        count_of(&second, key) > count_of(&first, key),
        "query counter must advance between scrapes"
    );
    let show_key = "verdict_statements_total{class=\"show\"}";
    assert!(
        count_of(&second, show_key) > count_of(&first, show_key),
        "the SHOW METRICS scrape itself is a counted statement"
    );
}

#[test]
fn slow_query_ms_threshold_flags_statements_in_profile_and_metrics() {
    let ctx = sales_context(16);
    let mut s = VerdictSession::new(Arc::clone(&ctx));

    // Threshold off: nothing is flagged slow.
    s.execute("BYPASS SELECT count(*) AS n FROM sales").unwrap();
    assert_eq!(ctx.obs().slow_queries(), 0);

    // A 1 ms threshold catches scramble construction over 50k rows.
    s.execute("SET slow_query_ms = 1").unwrap();
    s.execute("CREATE SCRAMBLE sales_scr FROM sales METHOD uniform RATIO 0.05")
        .unwrap();
    assert!(
        ctx.obs().slow_queries() >= 1,
        "scramble build under a 1 ms threshold must be flagged slow"
    );
    let resp = s.execute("SHOW PROFILE LAST 50").unwrap();
    let table = resp.table().expect("profile table");
    let flagged = (0..table.num_rows())
        .any(|r| str_at(table, r, 1) == "ddl" && str_at(table, r, 4) == "true");
    assert!(flagged, "the slow DDL must carry slow=true in SHOW PROFILE");

    // `SET slow_query_ms = 0` disables the threshold again.
    s.execute("SET slow_query_ms = 0").unwrap();
    let before = ctx.obs().slow_queries();
    s.execute("BYPASS SELECT count(*) AS n FROM sales").unwrap();
    assert_eq!(ctx.obs().slow_queries(), before);
}

/// Every row of a table, as values.
fn rows_of(t: &Table) -> Vec<Vec<Value>> {
    (0..t.num_rows())
        .map(|r| {
            (0..t.schema.fields.len())
                .map(|c| t.value_at(r, c))
                .collect()
        })
        .collect()
}

fn table_of(s: &mut VerdictSession, sql: &str) -> Table {
    s.execute(sql)
        .unwrap_or_else(|e| panic!("`{sql}`: {e}"))
        .into_answer()
        .unwrap_or_else(|e| panic!("`{sql}`: {e}"))
        .table
}

#[test]
fn system_relations_answer_sql_like_the_matching_filter_of_their_show_table() {
    let ctx = sales_context(17);
    let mut s = VerdictSession::new(ctx);
    s.execute("CREATE SCRAMBLE u FROM sales METHOD uniform RATIO 0.05")
        .unwrap();
    s.execute("CREATE SCRAMBLE h FROM sales METHOD hashed RATIO 0.1 ON id")
        .unwrap();
    s.execute("CREATE SCRAMBLE st FROM sales METHOD stratified RATIO 0.02 ON city")
        .unwrap();
    s.execute("SELECT count(*) AS n FROM sales").unwrap();

    // WHERE + ORDER BY over verdict_scrambles is the filtered, re-sorted
    // SHOW SCRAMBLES listing.
    let show = table_of(&mut s, "SHOW SCRAMBLES");
    let (scramble, method, rows) = (0, 2, 5);
    let mut expected: Vec<Vec<Value>> = rows_of(&show)
        .into_iter()
        .filter(|r| r[method] != Value::Str("uniform".into()))
        .map(|r| vec![r[scramble].clone(), r[rows].clone()])
        .collect();
    expected.sort_by_key(|r| std::cmp::Reverse(r[1].as_i64().unwrap()));
    let selected = table_of(
        &mut s,
        "SELECT scramble, rows FROM verdict_scrambles WHERE method <> 'uniform' \
         ORDER BY rows DESC",
    );
    assert_eq!(rows_of(&selected), expected);
    let count = table_of(&mut s, "SELECT count(*) AS n FROM verdict_scrambles");
    assert_eq!(count.value_at(0, 0).as_i64(), Some(show.num_rows() as i64));
    assert_eq!(show.num_rows(), 3);

    // A section of verdict_stats is the matching rows of SHOW STATS: system
    // queries move no cache counter between the two reads.
    let stats = table_of(&mut s, "SHOW STATS");
    let expected: Vec<Vec<Value>> = rows_of(&stats)
        .into_iter()
        .filter(|r| r[0] == Value::Str("cache".into()))
        .map(|r| r[1..].to_vec())
        .collect();
    assert_eq!(expected.len(), 7);
    let cache = table_of(
        &mut s,
        "SELECT stat, value FROM verdict_stats WHERE section = 'cache'",
    );
    assert_eq!(rows_of(&cache), expected);
}

#[test]
fn system_queries_touch_neither_the_backend_nor_the_cache() {
    let ctx = sales_context(18);
    let mut s = VerdictSession::new(Arc::clone(&ctx));
    s.execute("CREATE SCRAMBLE sales_scr FROM sales METHOD uniform RATIO 0.05")
        .unwrap();
    s.execute("SELECT count(*) AS n FROM sales").unwrap();
    let (queries, insertions) = (
        ctx.backend_stats().queries_routed,
        ctx.cache_stats().insertions,
    );
    for sql in [
        "SHOW SCRAMBLES",
        "SHOW STATS",
        "SHOW PROFILE",
        "SHOW METRICS",
        "SELECT count(*) AS n FROM verdict_traces",
        "SELECT stat FROM verdict_stats WHERE value > 0 ORDER BY stat",
    ] {
        let answer = s.execute(sql).unwrap().into_answer().unwrap();
        assert!(answer.exact && !answer.cached, "`{sql}`");
        assert!(answer.rewritten_sql.is_empty(), "`{sql}` sent SQL");
    }
    assert_eq!(ctx.backend_stats().queries_routed, queries);
    assert_eq!(ctx.cache_stats().insertions, insertions);
    let last = &ctx.obs().ring().recent(1)[0];
    assert_eq!(last.class, "show");
    let stages: Vec<&str> = last.spans.iter().map(|sp| sp.stage).collect();
    assert_eq!(stages, ["control"]);

    // A system query is chosen before session bypass.
    s.execute("SET bypass = on").unwrap();
    let listing = table_of(&mut s, "SHOW SCRAMBLES");
    assert_eq!(listing.num_rows(), 1);
    assert_eq!(str_at(&listing, 0, 0), "sales_scr");
    assert_eq!(ctx.backend_stats().queries_routed, queries);
}

#[test]
fn system_relation_names_are_reserved() {
    let ctx = sales_context(19);
    let mut s = VerdictSession::new(Arc::clone(&ctx));
    for sql in [
        "CREATE SCRAMBLE verdict_stats FROM sales",
        "CREATE SCRAMBLE s FROM verdict_scrambles",
        "CREATE TABLE verdict_traces AS SELECT * FROM sales",
        "CREATE TABLE t AS SELECT * FROM verdict_stats",
        "INSERT INTO verdict_metrics SELECT * FROM sales",
        "DROP TABLE verdict_scrambles",
        "STREAM SELECT count(*) AS n FROM verdict_traces",
        "BYPASS SELECT * FROM verdict_stats",
        "SELECT * FROM sales s JOIN verdict_stats v ON s.city = v.stat",
        "SELECT count(*) AS n FROM (SELECT stat FROM verdict_stats) AS d, sales",
        "SELECT count(*) AS n FROM sales WHERE price > (SELECT count(*) FROM verdict_traces)",
        "SELECT count(*) AS n FROM verdict_traces WHERE seq IN (SELECT id FROM sales)",
    ] {
        match s.execute(sql) {
            Err(VerdictError::Unsupported(msg)) => {
                assert!(msg.contains("system relation"), "`{sql}`: {msg}")
            }
            other => panic!("`{sql}` must be refused as Unsupported, got {other:?}"),
        }
    }
    assert!(matches!(
        s.stream("SELECT * FROM verdict_stats"),
        Err(VerdictError::Unsupported(_))
    ));
    assert!(matches!(
        common::exact(&ctx, "SELECT * FROM sales, verdict_metrics"),
        Err(VerdictError::Unsupported(_))
    ));
    assert!(ctx.meta().all().is_empty(), "no scramble may be registered");
    assert!(!ctx.connection().table_exists("verdict_traces"));
}

#[test]
fn explain_labels_statements_that_never_reach_the_backend() {
    let ctx = sales_context(20);
    let mut s = VerdictSession::new(ctx);
    for (sql, statement, plan) in [
        ("EXPLAIN SET target_error = 0.1", "set", "session option"),
        (
            "EXPLAIN CREATE SCRAMBLE x FROM sales RATIO 0.1",
            "ddl",
            "scramble maintenance",
        ),
        (
            "EXPLAIN REFRESH SCRAMBLES sales",
            "ddl",
            "scramble maintenance",
        ),
        ("EXPLAIN SHOW STATS", "show", "system relation (in-process)"),
        (
            "EXPLAIN SELECT count(*) FROM verdict_scrambles",
            "show",
            "system relation (in-process)",
        ),
        ("EXPLAIN DROP TABLE sales", "ddl", "passthrough to backend"),
    ] {
        let table = table_of(&mut s, sql);
        let item = |name: &str| {
            (0..table.num_rows())
                .find(|&r| str_at(&table, r, 0) == name)
                .map(|r| str_at(&table, r, 1))
        };
        assert_eq!(item("statement").as_deref(), Some(statement), "`{sql}`");
        assert_eq!(item("plan").as_deref(), Some(plan), "`{sql}`");
    }
    assert!(s.context().connection().table_exists("sales"));
}
