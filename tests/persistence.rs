//! Restart durability end-to-end: scrambles built against a persistent
//! store must reload on a fresh process image — without rebuilding from
//! the base tables — and answer the same queries **bit-identically**,
//! one-shot and progressive alike.
//!
//! Each test simulates a restart by dropping the entire engine + context +
//! store stack and reopening the store directory from scratch, exactly the
//! sequence `verdict-server --data-dir` performs on boot.  (The real-binary
//! SIGKILL variant lives in `crates/server/tests/restart.rs`.)

use std::path::PathBuf;
use std::sync::Arc;

use verdictdb::{
    Backend, Engine, Store, StoreHandle, VerdictConfig, VerdictContext, VerdictResponse,
    VerdictSession,
};

mod common;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("verdict_persist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The query battery replayed before and after the restart.  Mixed shapes:
/// global aggregates, predicates, and a group-by, all answerable from the
/// uniform scramble.
const QUERIES: &[&str] = &[
    "SELECT count(*) AS n FROM order_products",
    "SELECT sum(price * quantity) AS rev, avg(price) AS ap FROM order_products",
    "SELECT count(*) AS n FROM order_products WHERE price > 10 AND reordered = 1",
    "SELECT reordered, count(*) AS n, avg(price) AS ap FROM order_products \
     GROUP BY reordered ORDER BY reordered",
];

fn fresh_engine() -> Arc<Engine> {
    let engine = Arc::new(Engine::with_seed(99));
    verdictdb::data::InstacartGenerator::new(0.12).register(&engine);
    engine
}

fn config() -> VerdictConfig {
    let mut config = VerdictConfig::default();
    config.min_table_rows = 5_000;
    config.sampling_ratio = 0.1;
    config.io_budget = 0.12;
    config.include_error_columns = false;
    config.seed = Some(17);
    // Small frames so the cold-start stream provably refines step by step
    // (the scramble at this scale is a few thousand rows).
    config.stream_block_rows = 2_048;
    config
}

/// Opens the store at `dir`, attaches it to a fresh engine's catalog, and
/// builds a context over both — the cold-start path.
fn open_stack(dir: &PathBuf) -> (Arc<Engine>, Arc<Store>, VerdictContext) {
    let engine = fresh_engine();
    let store = Arc::new(Store::open(dir).expect("open store"));
    engine
        .catalog()
        .set_store(Arc::clone(&store) as Arc<dyn StoreHandle>);
    let conn: Arc<dyn Backend> = engine.clone();
    let ctx = VerdictContext::with_store(conn, config(), Arc::clone(&store))
        .expect("reload persisted metadata");
    (engine, store, ctx)
}

#[test]
fn scrambles_survive_restart_bit_identically() {
    if common::remote_backend_requested() {
        return; // the store attaches to an in-process engine only
    }
    let dir = tempdir("roundtrip");

    // First life: build the scramble (persisting through the WAL), answer
    // the battery, remember every answer table.
    let before: Vec<verdictdb::Table> = {
        let (_engine, _store, ctx) = open_stack(&dir);
        assert!(ctx.meta().all().is_empty(), "fresh store must start empty");
        let ctx = Arc::new(ctx);
        let mut session = VerdictSession::new(Arc::clone(&ctx));
        session
            .execute("CREATE SCRAMBLE verdict_sample_order_products_uniform FROM order_products")
            .expect("create scramble");
        QUERIES
            .iter()
            .map(|q| {
                let answer = common::answer(&ctx, q).expect("query before restart");
                assert!(!answer.exact, "query must be approximated: {q}");
                answer.table
            })
            .collect()
    }; // entire stack dropped here — the "crash"

    // Second life: reopen the directory.  The scramble and its metadata
    // must come back without any CREATE SCRAMBLE, and the store must have
    // actually been read (i.e. this is disk serving, not a rebuild).
    let (_engine, store, ctx) = open_stack(&dir);
    let metas = ctx.meta().all();
    assert_eq!(metas.len(), 1, "persisted scramble metadata must reload");
    assert_eq!(
        metas[0].sample_table,
        "verdict_sample_order_products_uniform"
    );
    assert!(
        StoreHandle::contains(store.as_ref(), "verdict_sample_order_products_uniform"),
        "scramble table must exist on disk"
    );

    let ctx = Arc::new(ctx);
    for (q, expected) in QUERIES.iter().zip(&before) {
        let after = common::answer(&ctx, q).expect("query after restart").table;
        common::assert_tables_bit_identical(expected, &after, q);
    }
    assert!(
        store.stats().pages_read > 0,
        "answers must have been served off disk pages"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_start_stream_matches_one_shot_bit_for_bit() {
    if common::remote_backend_requested() {
        return;
    }
    let dir = tempdir("stream");

    {
        let (_engine, _store, ctx) = open_stack(&dir);
        let ctx = Arc::new(ctx);
        let mut session = VerdictSession::new(Arc::clone(&ctx));
        session
            .execute("CREATE SCRAMBLE verdict_sample_order_products_uniform FROM order_products")
            .expect("create scramble");
    }

    // Cold start: the progressive stream must read blocks straight off disk
    // (multiple refinement frames, not a one-shot fallback) and its final
    // frame must equal the one-shot answer bit for bit.
    let (_engine, _store, ctx) = open_stack(&dir);
    let ctx = Arc::new(ctx);
    let mut session = VerdictSession::new(Arc::clone(&ctx));
    const Q: &str = "STREAM SELECT count(*) AS n, avg(price) AS ap FROM order_products";
    let frames: Vec<_> = session
        .stream(Q)
        .expect("open stream")
        .collect::<Result<Vec<_>, _>>()
        .expect("stream frames");
    assert!(
        frames.len() > 1,
        "cold-start stream must refine progressively, got {} frame(s)",
        frames.len()
    );
    let last = frames.last().expect("at least one frame");
    assert!(last.last);

    let one_shot = common::answer(
        &ctx,
        "SELECT count(*) AS n, avg(price) AS ap FROM order_products",
    )
    .expect("one-shot");
    common::assert_tables_bit_identical(
        &one_shot.table,
        &last.answer.table,
        "final stream frame vs one-shot",
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A progressive scan over a persisted scramble decodes the column
/// segments the statement names and no others, each once per block — also
/// when frames are shorter than a store block and when a wrapper's WHERE
/// makes the scan read its filter columns ahead of the rest.
#[test]
fn stream_reads_only_the_pages_of_the_columns_it_names() {
    if common::remote_backend_requested() {
        return;
    }
    let dir = tempdir("pages");
    let rows = 150_000usize; // three store blocks, the last one partial
    let stack = || {
        let engine = Arc::new(Engine::with_seed(99));
        let mut events = verdictdb::TableBuilder::new()
            .int_column("id", (0..rows as i64).collect())
            .str_column("region", (0..rows).map(|i| format!("r{}", i % 6)).collect())
            .float_column("value", (0..rows).map(|i| (i % 977) as f64 / 7.0).collect());
        for w in 0..5 {
            let wide = (0..rows).map(|i| ((i * (w + 3)) % 1000) as f64 / 1000.0);
            events = events.float_column(&format!("w{w}"), wide.collect());
        }
        engine.register_table("events", events.build().unwrap());
        let store = Arc::new(Store::open(&dir).expect("open store"));
        engine
            .catalog()
            .set_store(Arc::clone(&store) as Arc<dyn StoreHandle>);
        let mut config = config();
        config.io_budget = 1.0;
        // frames that do not line up with the 65 536-row store blocks
        config.stream_block_rows = 20_000;
        let conn: Arc<dyn Backend> = engine.clone();
        let ctx = VerdictContext::with_store(conn, config, Arc::clone(&store)).expect("context");
        (engine, store, Arc::new(ctx))
    };
    {
        let (_engine, _store, ctx) = stack();
        VerdictSession::new(ctx)
            .execute("CREATE SCRAMBLE ev_scr FROM events METHOD uniform RATIO 1.0")
            .expect("create scramble");
    }

    // Cold re-open: nothing of the scramble is in memory.
    let (engine, store, ctx) = stack();
    let header = store
        .open_store_scan("ev_scr")
        .expect("scan")
        .header()
        .clone();
    let pages_of = |names: &[&str]| -> u64 {
        let of = |name: &str| {
            let c = header.schema.index_of(name).expect("scramble column");
            let npages = header.blocks.iter().map(|b| b.chunks[c].npages as u64);
            npages.sum::<u64>()
        };
        names.iter().map(|n| of(n)).sum()
    };
    let all: Vec<String> = header.schema.names();
    let all: Vec<&str> = all.iter().map(String::as_str).collect();
    assert_eq!(all.len(), 10, "eight base columns + probability + draw");

    let drained = |sql: &str| {
        let before = store.stats().pages_read;
        let frames = VerdictSession::new(Arc::clone(&ctx))
            .stream(sql)
            .expect("open stream")
            .collect::<Result<Vec<_>, _>>()
            .expect("stream frames");
        assert!(frames.len() > 3, "{sql}: must refine block by block");
        assert!(!frames.last().unwrap().answer.exact, "{sql}");
        store.stats().pages_read - before
    };
    let named = [
        "region",
        "value",
        "verdict_sampling_prob",
        "verdict_subsample_u",
    ];
    assert_eq!(
        drained(
            "STREAM SELECT region, count(*) AS n, avg(value) AS a, sum(value) AS s \
             FROM events GROUP BY region"
        ),
        pages_of(&named),
        "four of ten columns"
    );
    assert_eq!(
        drained(
            "STREAM SELECT region, count(*) AS n, avg(value) AS a, sum(value) AS s \
             FROM events WHERE w1 > 0.25 GROUP BY region"
        ),
        pages_of(&named) + pages_of(&["w1"]),
        "the filter column is one more column, read once"
    );

    let scanned = |sql: &str| {
        let before = store.stats().pages_read;
        let mut scan = engine.open_block_scan(sql).expect("progressive shape");
        while !scan.done() {
            scan.advance(20_000).expect("advance");
        }
        store.stats().pages_read - before
    };
    // a wrapper's own WHERE is evaluated ahead of the gather: w1 is read
    // for the mask and must not be read again with value and w2
    assert_eq!(
        scanned(
            "SELECT count(*) AS n, sum(t.value) AS s FROM \
             (SELECT *, w2 * 2 AS x FROM ev_scr WHERE w1 > 0.5) AS t"
        ),
        pages_of(&["value", "w1", "w2"]),
    );
    // plain base-table scans are not pruned: every column, once
    assert_eq!(scanned("SELECT count(*) AS n FROM ev_scr"), pages_of(&all));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refresh_appends_persist_across_restart() {
    if common::remote_backend_requested() {
        return;
    }
    let dir = tempdir("refresh");

    // Build, then append a batch to the base table and REFRESH: the grown
    // scramble and its updated metadata must both survive the restart.
    let (sample_rows_before, appended_before) = {
        let (engine, _store, ctx) = open_stack(&dir);
        let ctx = Arc::new(ctx);
        let mut session = VerdictSession::new(Arc::clone(&ctx));
        session
            .execute("CREATE SCRAMBLE verdict_sample_order_products_uniform FROM order_products")
            .expect("create scramble");

        let base = engine.catalog().get("order_products").expect("base table");
        let batch = base.take(&(0..512).collect::<Vec<usize>>());
        engine.register_table("op_batch", batch.clone());
        engine
            .catalog()
            .append("order_products", &batch)
            .expect("append to base");
        let refreshed = session
            .execute("REFRESH SCRAMBLES order_products FROM op_batch")
            .expect("refresh");
        assert!(matches!(refreshed, VerdictResponse::ScramblesRefreshed(1)));
        let meta = &ctx.meta().all()[0];
        assert!(meta.appended_rows > 0, "refresh must mark the append");
        (meta.sample_rows, meta.appended_rows)
    };

    let (_engine, store, ctx) = open_stack(&dir);
    let metas = ctx.meta().all();
    assert_eq!(metas.len(), 1);
    assert_eq!(metas[0].sample_rows, sample_rows_before);
    assert_eq!(metas[0].appended_rows, appended_before);
    assert_eq!(
        StoreHandle::row_count(store.as_ref(), &metas[0].sample_table),
        Some(sample_rows_before),
        "on-disk scramble must include the refreshed rows"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drop_sample_removes_it_durably() {
    if common::remote_backend_requested() {
        return;
    }
    let dir = tempdir("drop");

    {
        let (_engine, _store, ctx) = open_stack(&dir);
        let mut session = VerdictSession::new(Arc::new(ctx));
        session
            .execute("CREATE SCRAMBLE verdict_sample_order_products_uniform FROM order_products")
            .expect("create scramble");
        let dropped = session
            .execute("DROP SCRAMBLES order_products")
            .expect("drop");
        assert!(matches!(dropped, VerdictResponse::ScramblesDropped(1)));
    }

    let (_engine, store, ctx) = open_stack(&dir);
    assert!(
        ctx.meta().all().is_empty(),
        "dropped scramble must stay dropped after restart"
    );
    assert!(
        !StoreHandle::contains(store.as_ref(), "verdict_sample_order_products_uniform"),
        "dropped scramble's table must not survive on disk"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
