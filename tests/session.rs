//! SQL-first session API end-to-end tests.
//!
//! The acceptance bar for the session surface: every capability previously
//! reachable only through Rust method calls (`create_sample*`,
//! `refresh_samples_after_append`, `drop_samples`, `execute_exact`) or
//! ad-hoc protocol verbs is reachable through **pure SQL** on a
//! [`VerdictSession`] — and the full scramble lifecycle (create → query with
//! a target error → append + refresh → show → drop) produces **bit-identical
//! answers** in-process and over a TCP connection.

mod common;

use common::walk::{self, Step};
use common::{assert_tables_bit_identical, values_bit_identical};
use std::sync::Arc;
use verdictdb::core::session::{VerdictResponse, VerdictSession};
use verdictdb::core::ShedTier;
use verdictdb::engine::{default_parallelism, MAX_PARALLELISM};
use verdictdb::server::{ClientError, RemoteAnswer, VerdictClient, VerdictServer};
use verdictdb::{
    Backend, Engine, Table, TableBuilder, Value, VerdictAnswer, VerdictConfig, VerdictContext,
    VerdictError, VerdictResult,
};

/// Deterministic 50k-row sales table; identical for every call with the same
/// seed, so two separately-built stacks stay bit-identical under the same
/// statement sequence.
fn sales_context(seed: u64) -> Arc<VerdictContext> {
    sales_stack(seed).1
}

/// [`sales_context`] plus the engine under it, for tests that read the
/// engine's worker pool.
fn sales_stack(seed: u64) -> (Arc<Engine>, Arc<VerdictContext>) {
    let engine = Arc::new(Engine::with_seed(seed));
    engine.register_table("sales", sales_table(50_000));
    let conn: Arc<dyn Backend> = engine.clone();
    let mut config = VerdictConfig::for_testing();
    config.answer_cache_capacity = 64;
    (engine, Arc::new(VerdictContext::new(conn, config)))
}

/// `rows` sales: ids from 0, prices in [0, 100), ten cities.
fn sales_table(rows: usize) -> Table {
    TableBuilder::new()
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
        .unwrap()
}

/// The statement script driven through both transports.  Each entry is
/// (statement, label); answers are compared pairwise by label.
const LIFECYCLE: &[&str] = &[
    "CREATE SCRAMBLE sales_scr FROM sales METHOD uniform RATIO 0.01",
    "SELECT city, avg(price) AS ap FROM sales GROUP BY city ORDER BY city",
    "SET target_error = 0.0000001",
    "SELECT city, avg(price) AS ap FROM sales GROUP BY city ORDER BY city",
    "SET target_error = default",
    "BYPASS CREATE TABLE sales_batch AS SELECT id, price, city FROM sales LIMIT 2000",
    "BYPASS INSERT INTO sales SELECT * FROM sales_batch",
    "REFRESH SCRAMBLES sales FROM sales_batch",
    "SHOW SCRAMBLES",
    "SELECT count(*) AS n FROM sales",
    "DROP SCRAMBLES sales",
    "SHOW SCRAMBLES",
    "SHOW STATS",
];

/// Flattens whatever a statement produced into a comparable (columns, rows)
/// table form; non-tabular responses become a single tagged row.
fn in_process_rows(resp: &VerdictResponse) -> (Vec<String>, Vec<Vec<Value>>) {
    match resp.table() {
        Some(t) => {
            let cols = t.schema.fields.iter().map(|f| f.name.clone()).collect();
            let rows = (0..t.num_rows())
                .map(|r| {
                    (0..t.schema.fields.len())
                        .map(|c| t.value_at(r, c))
                        .collect()
                })
                .collect();
            (cols, rows)
        }
        None => (Vec::new(), Vec::new()),
    }
}

fn remote_rows(answer: &RemoteAnswer) -> (Vec<String>, Vec<Vec<Value>>) {
    (answer.columns.clone(), answer.rows.clone())
}

#[test]
fn full_scramble_lifecycle_is_bit_identical_in_process_and_over_tcp() {
    // Two identically-seeded stacks: one driven in-process, one over TCP.
    let local_ctx = sales_context(71);
    let remote_ctx = sales_context(71);
    let mut local = VerdictSession::new(Arc::clone(&local_ctx));

    let handle = VerdictServer::bind("127.0.0.1:0", remote_ctx)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = VerdictClient::connect(handle.addr()).unwrap();

    for (i, stmt) in LIFECYCLE.iter().enumerate() {
        let local_resp = local
            .execute(stmt)
            .unwrap_or_else(|e| panic!("in-process `{stmt}` failed: {e}"));
        let remote_resp = client
            .sql(stmt)
            .unwrap_or_else(|e| panic!("remote `{stmt}` failed: {e}"));
        let (lcols, lrows) = in_process_rows(&local_resp);
        let (rcols, mut rrows) = remote_rows(&remote_resp);
        assert_eq!(lcols, rcols, "statement {i} `{stmt}`: column names differ");
        if stmt.eq_ignore_ascii_case("SHOW STATS") {
            // The served context carries the server's `serving` section of
            // verdict_stats; the core sections must still match bit-exactly.
            rrows.retain(|r| r.first() != Some(&Value::Str("serving".into())));
        }
        assert_eq!(
            lrows.len(),
            rrows.len(),
            "statement {i} `{stmt}`: row counts differ"
        );
        for (r, (lr, rr)) in lrows.iter().zip(&rrows).enumerate() {
            for (c, (lv, rv)) in lr.iter().zip(rr).enumerate() {
                assert!(
                    values_bit_identical(lv, rv),
                    "statement {i} `{stmt}` row {r} col {c}: {lv:?} != {rv:?}"
                );
            }
        }
        // Error bounds must match bit-exactly too.
        if let VerdictResponse::Answer(a) = &local_resp {
            assert_eq!(a.errors.len(), remote_resp.errors.len(), "at `{stmt}`");
            for (le, (rc, rmean, rmax)) in a.errors.iter().zip(&remote_resp.errors) {
                assert_eq!(&le.column, rc);
                assert_eq!(le.mean_relative_error.to_bits(), rmean.to_bits());
                assert_eq!(le.max_relative_error.to_bits(), rmax.to_bits());
            }
        }
    }

    client.quit().unwrap();
    handle.stop();
}

#[test]
fn lifecycle_semantics_hold_in_process() {
    let ctx = sales_context(5);
    let mut s = VerdictSession::new(Arc::clone(&ctx));

    // create: scramble is registered and usable.
    let created = s
        .execute("CREATE SCRAMBLE sales_scr FROM sales METHOD uniform RATIO 0.01")
        .unwrap();
    let VerdictResponse::ScramblesCreated(metas) = created else {
        panic!("expected ScramblesCreated");
    };
    assert_eq!(metas[0].sample_table, "sales_scr");
    assert_eq!(metas[0].base_table, "sales");

    // query: answered approximately from the scramble.
    let approx = s
        .execute("SELECT city, avg(price) AS ap FROM sales GROUP BY city ORDER BY city")
        .unwrap()
        .into_answer()
        .unwrap();
    assert!(!approx.exact, "query should run on the scramble");
    assert_eq!(approx.used_samples, vec!["sales_scr".to_string()]);

    // accuracy contract: an unattainable target error forces the exact rerun,
    // without mutating any shared config.
    s.execute("SET target_error = 0.0000001").unwrap();
    let exact = s
        .execute("SELECT city, avg(price) AS ap FROM sales GROUP BY city ORDER BY city")
        .unwrap()
        .into_answer()
        .unwrap();
    assert!(exact.exact, "tiny target error must force the exact rerun");
    assert!(
        ctx.config().max_relative_error.is_none(),
        "session SET must not leak into the shared base config"
    );
    s.execute("SET target_error = default").unwrap();

    // append + refresh.
    s.execute("BYPASS CREATE TABLE sales_batch AS SELECT id, price, city FROM sales LIMIT 2000")
        .unwrap();
    s.execute("BYPASS INSERT INTO sales SELECT * FROM sales_batch")
        .unwrap();
    let refreshed = s
        .execute("REFRESH SCRAMBLES sales FROM sales_batch")
        .unwrap();
    assert!(matches!(refreshed, VerdictResponse::ScramblesRefreshed(1)));

    // show: one fresh row with the custom name.
    let VerdictResponse::Answer(VerdictAnswer { table: listing, .. }) =
        s.execute("SHOW SCRAMBLES").unwrap()
    else {
        panic!("expected Scrambles");
    };
    assert_eq!(listing.num_rows(), 1);
    assert_eq!(listing.value(0, 0), Value::Str("sales_scr".into()));
    assert_eq!(listing.value(0, 7), Value::Str("fresh".into()));

    // drop: registry and table are gone.
    let VerdictResponse::ScramblesDropped(n) = s.execute("DROP SCRAMBLES sales").unwrap() else {
        panic!("expected ScramblesDropped");
    };
    assert_eq!(n, 1);
    let VerdictResponse::Answer(VerdictAnswer { table: listing, .. }) =
        s.execute("SHOW SCRAMBLES").unwrap()
    else {
        panic!("expected Scrambles");
    };
    assert_eq!(listing.num_rows(), 0);
    assert!(
        !ctx.connection().table_exists("sales_scr"),
        "dropped scramble table must be gone from the catalog"
    );
    // A second DROP errors without IF EXISTS, succeeds with it.
    assert!(s.execute("DROP SCRAMBLES sales").is_err());
    assert!(matches!(
        s.execute("DROP SCRAMBLES IF EXISTS sales").unwrap(),
        VerdictResponse::ScramblesDropped(0)
    ));
}

#[test]
fn named_scrambles_create_methods_and_drop_by_name() {
    let ctx = sales_context(9);
    let mut s = VerdictSession::new(ctx);
    s.execute("CREATE SCRAMBLE u FROM sales METHOD uniform RATIO 0.2")
        .unwrap();
    s.execute("CREATE SCRAMBLE h FROM sales METHOD hashed RATIO 0.2 ON id")
        .unwrap();
    s.execute("CREATE SCRAMBLE st FROM sales METHOD stratified RATIO 0.2 ON city")
        .unwrap();
    let VerdictResponse::Answer(VerdictAnswer { table: listing, .. }) =
        s.execute("SHOW SCRAMBLES").unwrap()
    else {
        panic!()
    };
    assert_eq!(listing.num_rows(), 3);

    // invalid combinations are rejected up front.
    assert!(s
        .execute("CREATE SCRAMBLE x FROM sales METHOD stratified")
        .is_err());
    assert!(s
        .execute("CREATE SCRAMBLE x FROM sales METHOD uniform ON city")
        .is_err());
    assert!(s.execute("CREATE SCRAMBLE x FROM sales RATIO 1.5").is_err());

    // A scramble name must never clobber a table that is not a registered
    // scramble — in particular, not the base table itself.
    let err = s
        .execute("CREATE SCRAMBLE sales FROM sales")
        .expect_err("naming the base table must be refused");
    assert!(
        err.to_string().contains("not a registered scramble"),
        "{err}"
    );
    assert!(
        s.context().connection().table_exists("sales"),
        "the refused CREATE SCRAMBLE must leave the base table intact"
    );
    // Re-creating an existing scramble under its own name still replaces it.
    assert!(matches!(
        s.execute("CREATE SCRAMBLE u FROM sales METHOD uniform RATIO 0.2")
            .unwrap(),
        VerdictResponse::ScramblesCreated(_)
    ));

    // SET values are range-checked: nonsense does not silently degrade AQP.
    assert!(s.execute("SET target_error = -0.02").is_err());
    assert!(s.execute("SET io_budget = -1").is_err());
    assert!(s.execute("SET io_budget = 1.5").is_err());
    assert!(s.execute("SET sampling_ratio = 0").is_err());
    assert!(s.execute("SET confidence = 1.5").is_err());

    let VerdictResponse::ScramblesDropped(n) = s.execute("DROP SCRAMBLE h").unwrap() else {
        panic!()
    };
    assert_eq!(n, 1);
    assert!(s.execute("DROP SCRAMBLE h").is_err());
    assert!(matches!(
        s.execute("DROP SCRAMBLE IF EXISTS h").unwrap(),
        VerdictResponse::ScramblesDropped(0)
    ));
    let VerdictResponse::Answer(VerdictAnswer { table: listing, .. }) =
        s.execute("SHOW SCRAMBLES").unwrap()
    else {
        panic!()
    };
    assert_eq!(listing.num_rows(), 2);
}

#[test]
fn refresh_without_batch_rebuilds_from_current_data() {
    let ctx = sales_context(13);
    let mut s = VerdictSession::new(Arc::clone(&ctx));
    s.execute("CREATE SCRAMBLE scr FROM sales METHOD uniform RATIO 0.01")
        .unwrap();
    s.execute("BYPASS CREATE TABLE b AS SELECT id, price, city FROM sales LIMIT 5000")
        .unwrap();
    s.execute("BYPASS INSERT INTO sales SELECT * FROM b")
        .unwrap();
    // Stale now; a batchless REFRESH rebuilds rather than appends.
    let VerdictResponse::Answer(VerdictAnswer { table: before, .. }) =
        s.execute("SHOW SCRAMBLES").unwrap()
    else {
        panic!()
    };
    assert!(matches!(before.value(0, 7), Value::Str(st) if st.starts_with("stale")));
    assert!(matches!(
        s.execute("REFRESH SCRAMBLES sales").unwrap(),
        VerdictResponse::ScramblesRefreshed(1)
    ));
    let VerdictResponse::Answer(VerdictAnswer { table: after, .. }) =
        s.execute("SHOW SCRAMBLES").unwrap()
    else {
        panic!()
    };
    assert_eq!(after.value(0, 7), Value::Str("fresh".into()));
    // base_rows reflects the appended base table.
    assert_eq!(after.value(0, 6), Value::Int(55_000));
}

#[test]
fn session_options_are_isolated_and_cache_keys_respect_them() {
    let ctx = sales_context(23);
    let mut a = VerdictSession::new(Arc::clone(&ctx));
    let mut b = VerdictSession::new(Arc::clone(&ctx));
    a.execute("CREATE SCRAMBLE scr FROM sales METHOD uniform RATIO 0.01")
        .unwrap();

    const Q: &str = "SELECT city, avg(price) AS ap FROM sales GROUP BY city ORDER BY city";

    // Session A runs with error columns on; session B with defaults (from
    // for_testing they are on; B turns them off).  The two must not share a
    // cache entry: their answers have different shapes.
    b.execute("SET error_columns = off").unwrap();
    let wide = a.execute(Q).unwrap().into_answer().unwrap();
    let narrow = b.execute(Q).unwrap().into_answer().unwrap();
    assert!(wide.table.schema.fields.len() > narrow.table.schema.fields.len());
    assert!(
        !narrow.cached,
        "different options must not share cache entries"
    );

    // Repeats inside each session do hit the cache.
    assert!(a.execute(Q).unwrap().into_answer().unwrap().cached);
    assert!(b.execute(Q).unwrap().into_answer().unwrap().cached);

    // SET cache = off bypasses the shared cache for that session only.
    b.execute("SET cache = off").unwrap();
    assert!(!b.execute(Q).unwrap().into_answer().unwrap().cached);
    assert!(a.execute(Q).unwrap().into_answer().unwrap().cached);

    // Session-wide bypass mode.
    a.execute("SET bypass = on").unwrap();
    assert!(a.execute(Q).unwrap().into_answer().unwrap().exact);
    a.execute("SET bypass = off").unwrap();
    assert!(!a.execute(Q).unwrap().into_answer().unwrap().exact);

    // Unknown options fail loudly — the removed engine grouping knob and
    // stream frame cap included — with a typed error listing the eleven
    // options that exist.
    assert!(a.execute("SET no_such_option = 1").is_err());
    for removed in ["group_strategy = hash", "stream_max_frames = 3"] {
        match a.execute(&format!("SET {removed}")) {
            Err(VerdictError::Unsupported(msg)) => {
                let name = removed.split(' ').next().unwrap();
                assert!(msg.starts_with(&format!("unknown session option {name} (")));
                let names = &msg[msg.find('(').unwrap() + 1..msg.rfind(')').unwrap()];
                assert_eq!(names.split(", ").count(), 11, "{names}");
            }
            other => panic!("expected the unknown-option error, got {other:?}"),
        }
    }
}

/// A recorded spelling is keyed with the settings it was answered under:
/// `BYPASS`, a `SET` that changes the cache fingerprint, and a shed tier
/// that changes the effective settings each miss the entry another
/// session's identical text recorded.
#[test]
fn a_recorded_spelling_never_serves_another_settings_entry() {
    let ctx = sales_context(31);
    let mut a = VerdictSession::new(Arc::clone(&ctx));
    a.execute("CREATE SCRAMBLE scr FROM sales METHOD uniform RATIO 0.01")
        .unwrap();
    const Q: &str = "SELECT city, avg(price) AS ap FROM sales GROUP BY city ORDER BY city";
    let stored = a.execute(Q).unwrap().into_answer().unwrap();
    assert!(!stored.cached && !stored.exact);
    let mut b = VerdictSession::new(Arc::clone(&ctx));
    assert!(
        b.cached_spelling(Q).is_some(),
        "the same settings share the entry"
    );

    // `BYPASS` as a wrapper is another text; as a session switch it
    // declines the probe.
    let wrapped = b.execute(&format!("BYPASS {Q}")).unwrap();
    assert!(wrapped.answer().is_some_and(|a| a.exact && !a.cached));
    b.execute("SET bypass = on").unwrap();
    assert!(b.cached_spelling(Q).is_none());
    let bypassed = b.execute(Q).unwrap().into_answer().unwrap();
    assert!(bypassed.exact && !bypassed.cached);
    b.execute("SET bypass = off").unwrap();

    // A fingerprint change: its own entry, with its own intervals.
    b.execute("SET confidence = 0.8").unwrap();
    assert!(b.cached_spelling(Q).is_none());
    let narrower = b.execute(Q).unwrap().into_answer().unwrap();
    assert!(!narrower.cached);
    assert_ne!(narrower.errors, stored.errors);
    let own = b
        .cached_spelling(Q)
        .expect("recorded under its own settings");
    assert_eq!(own.answer().errors, narrower.errors);
    b.execute("SET confidence = default").unwrap();
    let shared = b.cached_spelling(Q).unwrap();
    assert_eq!(shared.answer().table, stored.table);

    // A shed tier that halves the I/O budget.
    let mut c = VerdictSession::new(Arc::clone(&ctx));
    c.set_shed_tier(ShedTier::Heavy);
    assert!(c.cached_spelling(Q).is_none());
    assert!(!c.execute(Q).unwrap().into_answer().unwrap().cached);
    assert!(c.cached_spelling(Q).is_some());
    c.set_shed_tier(ShedTier::None);
    assert_eq!(c.cached_spelling(Q).unwrap().answer().table, stored.table);
}

/// Spellings are bounded by the entry set: ten times the capacity of
/// distinct texts — respellings of one statement, and distinct statements —
/// never grow the index past `capacity × SPELLINGS_PER_ENTRY`.
#[test]
fn distinct_spellings_stay_within_the_index_bound() {
    let engine = Arc::new(Engine::with_seed(37));
    let table = TableBuilder::new()
        .float_column("price", (0..5_000).map(|i| (i % 100) as f64).collect())
        .build()
        .unwrap();
    engine.register_table("sales", table);
    let mut config = VerdictConfig::for_testing();
    config.answer_cache_capacity = 4;
    let ctx = Arc::new(VerdictContext::new(engine as Arc<dyn Backend>, config));
    let bound = 4 * verdictdb::core::cache::SPELLINGS_PER_ENTRY;
    let mut s = VerdictSession::new(Arc::clone(&ctx));
    for i in 0..10 * bound {
        let blanks = " ".repeat(i + 1);
        let answer = s
            .execute(&format!("SELECT count(*) AS n FROM{blanks}sales"))
            .unwrap();
        assert_eq!(answer.answer().unwrap().cached, i > 0);
        assert!(ctx.cache().spellings() <= bound);
    }
    for i in 0..40 {
        s.execute(&format!(
            "SELECT count(*) AS n FROM sales WHERE price > {i}"
        ))
        .unwrap();
        assert!(ctx.cache().spellings() <= bound);
    }
    assert_eq!(ctx.cache().len(), 4);
}

/// Scramble DDL invalidates a cached answer like a data write: an exact
/// answer cached before `CREATE SCRAMBLE` is recomputed over the scramble,
/// and an answer over one scramble is recomputed once another scramble of
/// its table is dropped.  What `EXPLAIN` shows is what the session answers.
#[test]
fn scramble_ddl_invalidates_answers_cached_before_it() {
    const Q: &str = "SELECT count(*) AS n, avg(price) AS p FROM sales";
    let mut s = VerdictSession::new(sales_context(43));
    let run = |s: &mut VerdictSession| s.execute(Q).unwrap().into_answer().unwrap();

    let exact = run(&mut s);
    assert!(exact.exact && !exact.cached);
    assert!(run(&mut s).cached);
    s.execute("CREATE SCRAMBLE op FROM sales METHOD uniform RATIO 0.01")
        .unwrap();
    let approx = run(&mut s);
    assert!(
        !approx.cached,
        "an answer cached before CREATE SCRAMBLE was served"
    );
    assert!(!approx.exact);
    assert_eq!(approx.used_samples, ["op"]);
    let plan = s
        .execute(&format!("EXPLAIN {Q}"))
        .unwrap()
        .into_answer()
        .unwrap()
        .table;
    assert!(
        (0..plan.num_rows()).any(|r| plan.value_at(r, 1) == Value::Str("approximate".into())),
        "{plan:?}"
    );
    assert!(run(&mut s).cached);

    // A scramble of half the table never fits the 2% I/O budget: the
    // answer over `op` stays what it is, but it is computed afresh once
    // `wide` is dropped, as after any change to the table's scrambles.
    s.execute("CREATE SCRAMBLE wide FROM sales METHOD uniform RATIO 0.5")
        .unwrap();
    let over_op = run(&mut s);
    assert!(!over_op.cached && over_op.used_samples == ["op"]);
    assert!(run(&mut s).cached);
    s.execute("DROP SCRAMBLE wide").unwrap();
    let after_drop = run(&mut s);
    assert!(
        !after_drop.cached,
        "an answer cached before DROP SCRAMBLE was served"
    );
    assert_tables_bit_identical(&after_drop.table, &over_op.table, "over op");

    s.execute("DROP SCRAMBLE op").unwrap();
    let exact_again = run(&mut s);
    assert!(exact_again.exact && !exact_again.cached);
    assert_tables_bit_identical(&exact_again.table, &exact.table, "exact");
}

/// A response as text, bit for bit (a float prints as the shortest text
/// that reads back to its bits), without `cached`, the elapsed time and
/// `EXPLAIN`'s `cacheable` row.  The statements sent are compared by their
/// canonical form: a hit carries those of the run that computed it, spelled
/// as that run's text spelled them, and any spelling of the same canonical
/// text may have been that run.
fn render(response: &VerdictResult<VerdictResponse>) -> String {
    let answer = match response {
        Err(e) => return format!("error: {e}"),
        Ok(VerdictResponse::Answer(answer)) => answer,
        Ok(other) => return format!("{other:?}"),
    };
    let VerdictAnswer {
        table,
        exact,
        cached: _,
        errors,
        rewritten_sql,
        elapsed: _,
        rows_scanned,
        used_samples,
    } = answer;
    let sent: Vec<String> = rewritten_sql
        .iter()
        .map(|sql| verdictdb::sql::canonical_sql(sql).unwrap())
        .collect();
    let mut out = format!(
        "exact={exact} rows_scanned={rows_scanned} sql={sent:?} \
         samples={used_samples:?} errors={errors:?}\n{:?}\n",
        table.schema
    );
    for r in 0..table.num_rows() {
        let row: Vec<Value> = (0..table.num_columns())
            .map(|c| table.value_at(r, c))
            .collect();
        if row[0] != Value::Str("cacheable".into()) {
            out.push_str(&format!("{row:?}\n"));
        }
    }
    out
}

/// Twin sessions over one context — one with the base configuration's
/// answer cache, one with `SET cache = off` — take the same seeded random
/// steps (`common::walk`): dashboard SELECTs in four spellings, `BYPASS`,
/// `STREAM`, `EXPLAIN`, every other `SET`, shed tiers and, run once by
/// either twin, `INSERT`, `REFRESH`, `CREATE` and `DROP SCRAMBLE`.  After
/// every step both answer alike but for what [`render`] leaves out.  One
/// context, not twin engines: every executed statement advances the
/// engine's seed and a cache hit executes nothing, so twin engines would
/// build different scrambles.
#[test]
fn a_cached_session_answers_like_an_uncached_twin() {
    let engine = Arc::new(Engine::with_seed(47));
    engine.register_table("sales", sales_table(4_000));
    let mut config = VerdictConfig::for_testing();
    config.io_budget = 0.25;
    config.subsample_count = 25;
    config.answer_cache_capacity = 32;
    let ctx = Arc::new(VerdictContext::new(engine as Arc<dyn Backend>, config));
    let mut twins = [
        VerdictSession::new(Arc::clone(&ctx)),
        VerdictSession::new(Arc::clone(&ctx)),
    ];
    twins[1].execute("SET cache = off").unwrap();
    for sql in walk::SETUP {
        twins[0].execute(sql).unwrap();
    }
    let (mut hits, mut approximate) = (0, 0);
    for (i, step) in walk::walk(7, 800).into_iter().enumerate() {
        match step {
            Step::Both(sql) => {
                let [cached, uncached] = twins.each_mut().map(|s| s.execute(&sql));
                assert_eq!(render(&cached), render(&uncached), "step {i}: {sql}");
                if let Ok(VerdictResponse::Answer(a)) = cached {
                    hits += usize::from(a.cached);
                    approximate += usize::from(!a.exact);
                }
            }
            Step::Once { sql, on } => {
                let _ = twins[on].execute(&sql);
            }
            Step::Shed(level) => {
                for twin in &mut twins {
                    twin.set_shed_tier(ShedTier::from_level(level));
                }
            }
        }
    }
    assert!(
        hits >= 50 && approximate >= 50,
        "{hits} hits, {approximate} approximate"
    );
}

#[test]
fn stream_recomputes_fresh_answers() {
    let ctx = sales_context(31);
    let mut s = VerdictSession::new(ctx);
    s.execute("CREATE SCRAMBLE scr FROM sales METHOD uniform RATIO 0.01")
        .unwrap();
    const Q: &str = "SELECT avg(price) AS ap FROM sales";
    let first = s.execute(Q).unwrap().into_answer().unwrap();
    assert!(!first.exact);
    assert!(s.execute(Q).unwrap().into_answer().unwrap().cached);
    // STREAM ignores the cached entry and recomputes.
    let streamed = s
        .execute("STREAM SELECT avg(price) AS ap FROM sales")
        .unwrap()
        .into_answer()
        .unwrap();
    assert!(!streamed.cached, "STREAM must bypass the answer cache");
    assert!(!streamed.exact);
}

#[test]
fn execute_script_runs_statement_sequences() {
    let ctx = sales_context(41);
    let mut s = VerdictSession::new(ctx);
    let responses = s
        .execute_script(
            "CREATE SCRAMBLE scr FROM sales METHOD uniform RATIO 0.01; \
             SET confidence = 0.99; \
             SELECT avg(price) AS ap FROM sales;",
        )
        .unwrap();
    assert_eq!(responses.len(), 3);
    assert!(matches!(responses[0], VerdictResponse::ScramblesCreated(_)));
    assert!(matches!(responses[1], VerdictResponse::OptionSet { .. }));
    assert!(!responses[2].answer().unwrap().exact);
}

// ---------------------------------------------------------------------------
// Progressive streaming (PR 5)
// ---------------------------------------------------------------------------

#[test]
fn progressive_stream_refines_and_final_frame_matches_one_shot() {
    // Twin stacks built from the same seed and statement sequence hold
    // bit-identical data; stream on one, one-shot on the other.
    let mut a = VerdictSession::new(sales_context(77));
    let mut b = VerdictSession::new(sales_context(77));
    const SCRAMBLE: &str = "CREATE SCRAMBLE scr FROM sales METHOD uniform RATIO 0.2";
    const Q: &str = "SELECT city, avg(price) AS ap FROM sales GROUP BY city";
    a.execute(SCRAMBLE).unwrap();
    b.execute(SCRAMBLE).unwrap();
    // Large scrambles (20% of the base) need a matching I/O budget, or the
    // planner ignores them; both sessions must agree for bit-identity.
    a.execute("SET io_budget = 1").unwrap();
    b.execute("SET io_budget = 1").unwrap();
    let one_shot = b.execute(Q).unwrap().into_answer().unwrap();
    assert!(!one_shot.exact);

    a.execute("SET stream_block_rows = 1000").unwrap();
    let stream = a.stream(Q).unwrap();
    assert!(
        stream.is_progressive(),
        "single-table mean query must stream"
    );
    let frames: Vec<_> = stream.collect::<Result<Vec<_>, _>>().unwrap();
    assert!(
        frames.len() >= 5,
        "expected many frames, got {}",
        frames.len()
    );

    // Frames refine monotonically over the scramble prefix.
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(f.index, i + 1);
        assert!(!f.answer.cached && !f.answer.exact);
        assert_eq!(f.rows_seen, f.answer.rows_scanned);
        if i > 0 {
            assert!(f.rows_seen > frames[i - 1].rows_seen);
        }
        assert_eq!(f.last, i + 1 == frames.len());
    }
    let last = frames.last().unwrap();
    assert_eq!(last.fraction, 1.0);
    assert!(!last.early_stopped);

    // The completed stream's final frame IS the one-shot answer, bit for bit.
    assert_tables_bit_identical(&last.answer.table, &one_shot.table, "stream vs one-shot");
    assert_eq!(last.answer.errors.len(), one_shot.errors.len());
    for (x, y) in last.answer.errors.iter().zip(one_shot.errors.iter()) {
        assert_eq!(x.column, y.column);
        assert_eq!(
            x.mean_relative_error.to_bits(),
            y.mean_relative_error.to_bits()
        );
        assert_eq!(
            x.max_relative_error.to_bits(),
            y.max_relative_error.to_bits()
        );
    }
}

#[test]
fn completed_stream_populates_the_answer_cache() {
    let mut s = VerdictSession::new(sales_context(78));
    s.execute("CREATE SCRAMBLE scr FROM sales METHOD uniform RATIO 0.2")
        .unwrap();
    const Q: &str = "SELECT avg(price) AS ap FROM sales";
    s.execute("SET io_budget = 1").unwrap();
    s.execute("SET stream_block_rows = 2000").unwrap();
    let frames: Vec<_> = s.stream(Q).unwrap().collect::<Result<Vec<_>, _>>().unwrap();
    assert!(frames.len() >= 2);
    // The next identical SELECT is served from the cache, bit-identically.
    let repeat = s.execute(Q).unwrap().into_answer().unwrap();
    assert!(repeat.cached, "completed stream must populate the cache");
    assert_tables_bit_identical(
        &repeat.table,
        &frames.last().unwrap().answer.table,
        "cache repeat",
    );
}

#[test]
fn stream_early_stops_at_target_error_and_skips_the_cache() {
    let mut s = VerdictSession::new(sales_context(79));
    s.execute("CREATE SCRAMBLE scr FROM sales METHOD uniform RATIO 0.5")
        .unwrap();
    const Q: &str = "SELECT sum(price) AS total FROM sales";
    s.execute("SET io_budget = 1").unwrap();
    s.execute("SET stream_block_rows = 1000").unwrap();
    s.execute("SET target_error = 0.5").unwrap();
    let frames: Vec<_> = s.stream(Q).unwrap().collect::<Result<Vec<_>, _>>().unwrap();
    let last = frames.last().unwrap();
    assert!(
        last.early_stopped && last.fraction < 1.0,
        "a loose target must stop the stream early (fraction {})",
        last.fraction
    );
    assert!(last.answer.max_relative_error() <= 0.5);
    // An early-stopped answer saw only a prefix: it must NOT be cached.
    s.execute("SET target_error = default").unwrap();
    let repeat = s.execute(Q).unwrap().into_answer().unwrap();
    assert!(!repeat.cached, "prefix answers must never enter the cache");
}

#[test]
fn non_progressive_queries_fall_back_to_a_single_frame() {
    let mut s = VerdictSession::new(sales_context(81));
    s.execute("CREATE SCRAMBLE scr FROM sales METHOD uniform RATIO 0.2")
        .unwrap();
    // min/max is an extreme statistic: outside the progressive class.
    let stream = s.stream("SELECT max(price) AS top FROM sales").unwrap();
    assert!(!stream.is_progressive());
    let frames: Vec<_> = stream.collect::<Result<Vec<_>, _>>().unwrap();
    assert_eq!(frames.len(), 1);
    assert!(frames[0].last);
    assert_eq!(frames[0].fraction, 1.0);
    // Under session bypass every stream is one exact frame.
    s.execute("SET bypass = on").unwrap();
    let frames: Vec<_> = s
        .stream("SELECT avg(price) AS ap FROM sales")
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    assert_eq!(frames.len(), 1);
    assert!(frames[0].answer.exact);
}

#[test]
fn show_stats_reports_stream_and_cache_counters() {
    let mut s = VerdictSession::new(sales_context(82));
    s.execute("CREATE SCRAMBLE scr FROM sales METHOD uniform RATIO 0.2")
        .unwrap();
    s.execute("SET io_budget = 1").unwrap();
    s.execute("SET stream_block_rows = 2000").unwrap();
    let frames: Vec<_> = s
        .stream("SELECT avg(price) AS ap FROM sales")
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    let stats = match s.execute("SHOW STATS").unwrap() {
        VerdictResponse::Answer(VerdictAnswer { table: t, .. }) => t,
        other => panic!("expected stats, got {other:?}"),
    };
    let lookup = |name: &str| -> i64 {
        (0..stats.num_rows())
            .find(|&r| stats.value(r, 1) == Value::Str(name.into()))
            .map(|r| stats.value(r, 2).as_i64().unwrap())
            .unwrap_or_else(|| panic!("SHOW STATS is missing {name}"))
    };
    assert_eq!(lookup("streams_started"), 1);
    assert_eq!(lookup("streams_completed"), 1);
    assert_eq!(lookup("stream_frames"), frames.len() as i64);
    assert_eq!(lookup("stream_early_stops"), 0);
    assert_eq!(lookup("stream_fallbacks"), 0);
    // Cache activity counters are visible (the completed stream inserted).
    assert!(lookup("cache_insertions") >= 1);
    assert!(lookup("cache_capacity") >= 1);
}

#[test]
fn stream_statement_alias_early_stops_like_the_frame_iterator() {
    // The `STREAM <query>` statement (the single-response alias) must keep
    // the iterator's early-stop semantics: a loose target means a strict
    // prefix is read, not the whole scramble.
    let mut s = VerdictSession::new(sales_context(83));
    s.execute("CREATE SCRAMBLE scr FROM sales METHOD uniform RATIO 0.5")
        .unwrap();
    s.execute("SET io_budget = 1").unwrap();
    s.execute("SET stream_block_rows = 1000").unwrap();
    s.execute("SET target_error = 0.5").unwrap();
    let answer = s
        .execute("STREAM SELECT sum(price) AS total FROM sales")
        .unwrap()
        .into_answer()
        .unwrap();
    let scramble_rows = match s.execute("SHOW SCRAMBLES").unwrap() {
        VerdictResponse::Answer(VerdictAnswer { table: t, .. }) => {
            let idx = t.schema.index_of("rows").unwrap();
            t.value(0, idx).as_i64().unwrap() as u64
        }
        other => panic!("expected scrambles, got {other:?}"),
    };
    assert!(
        answer.rows_scanned < scramble_rows,
        "alias must stop after a prefix ({} of {scramble_rows} rows read)",
        answer.rows_scanned
    );
    // Without a target the alias consumes everything in one frame.
    s.execute("SET target_error = default").unwrap();
    let full = s
        .execute("STREAM SELECT sum(price) AS total FROM sales")
        .unwrap()
        .into_answer()
        .unwrap();
    assert_eq!(full.rows_scanned, scramble_rows);
}

#[test]
fn appended_scrambles_decline_progressive_execution_until_rebuilt() {
    // Append maintenance puts batch rows unshuffled at the scramble's tail,
    // losing the "any prefix is a uniform subsample" property; streams must
    // fall back to one-shot answers until a rebuild restores the shuffle.
    let mut s = VerdictSession::new(sales_context(84));
    s.execute("CREATE SCRAMBLE scr FROM sales METHOD uniform RATIO 0.2")
        .unwrap();
    s.execute("SET io_budget = 1").unwrap();
    s.execute("SET stream_block_rows = 1000").unwrap();
    const Q: &str = "SELECT avg(price) AS ap FROM sales";
    assert!(s.stream(Q).unwrap().is_progressive());

    // Append a batch and fold it into the scramble.
    s.execute("BYPASS CREATE TABLE batch AS SELECT id, price, city FROM sales LIMIT 5000")
        .unwrap();
    s.execute("BYPASS INSERT INTO sales SELECT * FROM batch")
        .unwrap();
    s.execute("REFRESH SCRAMBLES sales FROM batch").unwrap();
    let stream = s.stream(Q).unwrap();
    assert!(
        !stream.is_progressive(),
        "a tail-appended scramble must not stream block-by-block"
    );
    let frames: Vec<_> = stream.collect::<Result<Vec<_>, _>>().unwrap();
    assert_eq!(frames.len(), 1, "one-shot fallback is a single frame");

    // A batchless REFRESH rebuilds (and re-shuffles) the scramble.
    s.execute("REFRESH SCRAMBLES sales").unwrap();
    assert!(
        s.stream(Q).unwrap().is_progressive(),
        "a rebuilt scramble streams again"
    );
}

#[test]
fn sixty_four_interleaved_multiplexed_sessions_match_in_process_bit_for_bit() {
    // Two identically-seeded stacks.  The remote one is served by the
    // multiplexed event loop with 64 concurrent connections; the local one
    // mirrors each connection with an in-process session.  The workload is
    // interleaved round-robin statement-by-statement across all 64
    // sessions, so the server constantly switches between connections —
    // and every answer must still be bit-identical to the serial
    // in-process reference.
    const SESSIONS: usize = 64;
    let local_ctx = sales_context(93);
    let remote_ctx = sales_context(93);

    let handle = VerdictServer::bind("127.0.0.1:0", remote_ctx)
        .unwrap()
        .spawn()
        .unwrap();

    // Build the scramble once per stack before the fan-out.
    let ddl = "CREATE SCRAMBLE sales_scr FROM sales METHOD uniform RATIO 0.01";
    VerdictSession::new(Arc::clone(&local_ctx))
        .execute(ddl)
        .unwrap();
    {
        let mut admin = VerdictClient::connect(handle.addr()).unwrap();
        admin.sql(ddl).unwrap();
        admin.quit().unwrap();
    }

    let mut locals: Vec<VerdictSession> = (0..SESSIONS)
        .map(|_| VerdictSession::new(Arc::clone(&local_ctx)))
        .collect();
    let mut clients: Vec<VerdictClient> = (0..SESSIONS)
        .map(|_| VerdictClient::connect(handle.addr()).unwrap())
        .collect();

    // Deterministic per-session workload: a session-specific accuracy
    // contract, two session-specific queries, and a cache-hot repeat.
    let workload = |s: usize| -> Vec<String> {
        let thr = 10.0 + (s % 16) as f64 * 5.0;
        let set = match s % 3 {
            0 => "SET target_error = 0.0001".to_string(),
            1 => "SET target_error = 0.05".to_string(),
            _ => "SET target_error = default".to_string(),
        };
        vec![
            set,
            format!(
                "SELECT city, avg(price) AS ap FROM sales WHERE price < {thr} \
                 GROUP BY city ORDER BY city"
            ),
            format!("SELECT count(*) AS n, sum(price) AS total FROM sales WHERE price < {thr}"),
            format!(
                "SELECT city, avg(price) AS ap FROM sales WHERE price < {thr} \
                 GROUP BY city ORDER BY city"
            ),
        ]
    };
    let scripts: Vec<Vec<String>> = (0..SESSIONS).map(workload).collect();
    let steps = scripts[0].len();

    for step in 0..steps {
        for s in 0..SESSIONS {
            let stmt = &scripts[s][step];
            let local_resp = locals[s]
                .execute(stmt)
                .unwrap_or_else(|e| panic!("session {s} in-process `{stmt}` failed: {e}"));
            let remote_resp = clients[s]
                .sql(stmt)
                .unwrap_or_else(|e| panic!("session {s} remote `{stmt}` failed: {e}"));
            // No load shedding under this serial drive: answers must be
            // full-accuracy, never DEGRADED.
            assert_eq!(
                remote_resp.header.degraded, 0,
                "session {s} `{stmt}` was shed under an idle queue"
            );
            let (lcols, lrows) = in_process_rows(&local_resp);
            let (rcols, rrows) = remote_rows(&remote_resp);
            assert_eq!(lcols, rcols, "session {s} step {step} `{stmt}`: columns");
            assert_eq!(
                lrows.len(),
                rrows.len(),
                "session {s} step {step} `{stmt}`: row counts"
            );
            for (r, (lr, rr)) in lrows.iter().zip(&rrows).enumerate() {
                for (c, (lv, rv)) in lr.iter().zip(rr).enumerate() {
                    assert!(
                        values_bit_identical(lv, rv),
                        "session {s} step {step} `{stmt}` row {r} col {c}: {lv:?} != {rv:?}"
                    );
                }
            }
            if let VerdictResponse::Answer(a) = &local_resp {
                assert_eq!(a.errors.len(), remote_resp.errors.len());
                for (le, (rc, rmean, rmax)) in a.errors.iter().zip(&remote_resp.errors) {
                    assert_eq!(&le.column, rc);
                    assert_eq!(le.mean_relative_error.to_bits(), rmean.to_bits());
                    assert_eq!(le.max_relative_error.to_bits(), rmax.to_bits());
                }
            }
        }
    }

    for client in clients {
        client.quit().unwrap();
    }
    handle.stop();
}

#[test]
fn shedding_a_session_without_a_target_never_reruns_exactly() {
    // 500 scramble rows over 10 groups: the estimated error is far above the
    // light tier's 2% floor.  A session that set no `target_error` has no
    // contract to miss, so the shed answer must stay the sampled one — a
    // floor turned into a target would re-run it exactly on the base table,
    // adding a full scan to the very query the ladder meant to cheapen.
    const Q: &str = "SELECT city, avg(price) AS ap FROM sales GROUP BY city";
    let mut s = VerdictSession::new(sales_context(29));
    s.execute("CREATE SCRAMBLE sales_scr FROM sales METHOD uniform RATIO 0.01")
        .unwrap();
    s.set_shed_tier(ShedTier::Light);
    assert_eq!(s.effective_config().max_relative_error, None);
    let resp = s.execute(Q).unwrap();
    let answer = resp.answer().expect("a query answer");
    assert!(
        answer.max_relative_error() > 0.02,
        "the case needs an estimate over the tier floor, got {}",
        answer.max_relative_error()
    );
    assert!(!answer.exact, "a shed answer must not fall back to exact");
    assert_eq!(
        answer.rewritten_sql.len(),
        1,
        "one backend statement: {:?}",
        answer.rewritten_sql
    );

    // A session that did set a target keeps a (loosened) contract: 0.1% is
    // raised to the 2% floor, the estimate is still over it, and the re-run
    // is the session's own choice.
    s.execute("SET target_error = 0.001").unwrap();
    assert_eq!(s.effective_config().max_relative_error, Some(0.02));
    let resp = s.execute(Q).unwrap();
    assert!(resp.answer().expect("a query answer").exact);
}

/// A subquery in the select list or HAVING, or inside a function argument
/// in WHERE, takes the session's passthrough path even over a scrambled
/// table (answer assembly could not evaluate it) and is resolved by the
/// engine: the answer is the exact answer to the statement with each
/// subquery's value written in.
#[test]
fn subqueries_anywhere_in_an_expression_answer_through_the_session() {
    let mut s = VerdictSession::new(sales_context(31));
    s.execute("CREATE SCRAMBLE sales_scr FROM sales METHOD uniform RATIO 0.01")
        .unwrap();
    let mut answer = |sql: &str| {
        let resp = s.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let answer = resp.answer().expect("a query answer");
        assert!(answer.exact, "{sql} must pass through");
        answer.table.clone()
    };
    let min = answer("BYPASS SELECT min(price) FROM sales").value_at(0, 0);
    let avg = answer("BYPASS SELECT avg(price) FROM sales").value_at(0, 0);
    let (Value::Float(min), Value::Float(avg)) = (min, avg) else {
        panic!("float aggregates expected");
    };
    for sql in [
        "SELECT max(price) - {min} AS spread, count(*) AS n FROM sales \
         WHERE abs(price - {avg}) < 5",
        "SELECT city, count(*) AS n FROM sales GROUP BY city \
         HAVING avg(price) > {avg} ORDER BY city",
    ] {
        let with = answer(
            &sql.replace("{min}", "(SELECT min(price) FROM sales)")
                .replace("{avg}", "(SELECT avg(price) FROM sales)"),
        );
        let by_hand = answer(&format!(
            "BYPASS {}",
            sql.replace("{min}", &format!("{min:?}"))
                .replace("{avg}", &format!("{avg:?}"))
        ));
        assert_tables_bit_identical(&with, &by_hand, sql);
        assert!(with.num_rows() > 0, "{sql}");
    }
}

/// What one `SET` name does: a valid value and its acknowledgement, the
/// acknowledgement of `= default`, and an invalid value with its error.
/// The acknowledgements and error texts are those the session gave before
/// its settings became one `VerdictConfig`.
struct SetCase {
    name: &'static str,
    valid: &'static str,
    ack: (&'static str, &'static str),
    reset_ack: &'static str,
    invalid: &'static str,
    error: &'static str,
    /// The setting's current value as the session (or the engine under it)
    /// shows it.
    observe: fn(&mut VerdictSession, &Engine) -> String,
}

fn config_field(s: &mut VerdictSession, read: fn(&VerdictConfig) -> String) -> String {
    read(&s.effective_config())
}

const SET_CASES: &[SetCase] = &[
    SetCase {
        name: "target_error",
        valid: "0.05",
        ack: ("target_error", "0.05"),
        reset_ack: "default",
        invalid: "-0.02",
        error: "target_error must be positive, got -0.02",
        observe: |s, _| config_field(s, |c| format!("{:?}", c.max_relative_error)),
    },
    SetCase {
        name: "max_relative_error",
        valid: "0.05",
        ack: ("target_error", "0.05"),
        reset_ack: "default",
        invalid: "0",
        error: "target_error must be positive, got 0",
        observe: |s, _| config_field(s, |c| format!("{:?}", c.max_relative_error)),
    },
    SetCase {
        name: "confidence",
        valid: "0.9",
        ack: ("confidence", "0.9"),
        reset_ack: "default",
        invalid: "1.5",
        error: "confidence must be in (0, 1), got 1.5",
        observe: |s, _| config_field(s, |c| c.confidence.to_string()),
    },
    SetCase {
        name: "cache",
        valid: "off",
        ack: ("cache", "false"),
        reset_ack: "default",
        invalid: "maybe",
        error: "expected on/off, got maybe",
        observe: |s, _| config_field(s, |c| c.answer_cache_capacity.to_string()),
    },
    SetCase {
        name: "parallelism",
        valid: "5",
        ack: ("parallelism", "5"),
        reset_ack: "default",
        invalid: "0",
        error: "parallelism must be a positive integer, got 0",
        observe: |_, engine| engine.parallelism().to_string(),
    },
    SetCase {
        name: "bypass",
        valid: "on",
        ack: ("bypass", "true"),
        reset_ack: "false",
        invalid: "2",
        error: "expected on/off, got 2",
        observe: |s, _| {
            let response = s.execute("SELECT count(*) AS n FROM sales").unwrap();
            format!("exact={}", response.answer().unwrap().exact)
        },
    },
    SetCase {
        name: "error_columns",
        valid: "off",
        ack: ("error_columns", "false"),
        reset_ack: "default",
        invalid: "yes",
        error: "expected on/off, got yes",
        observe: |s, _| config_field(s, |c| c.include_error_columns.to_string()),
    },
    SetCase {
        name: "include_error_columns",
        valid: "off",
        ack: ("error_columns", "false"),
        reset_ack: "default",
        invalid: "0.5",
        error: "expected on/off, got 0.5",
        observe: |s, _| config_field(s, |c| c.include_error_columns.to_string()),
    },
    SetCase {
        name: "io_budget",
        valid: "0.5",
        ack: ("io_budget", "0.5"),
        reset_ack: "default",
        invalid: "1.5",
        error: "io_budget must be in (0, 1], got 1.5",
        observe: |s, _| config_field(s, |c| c.io_budget.to_string()),
    },
    SetCase {
        name: "sampling_ratio",
        valid: "0.05",
        ack: ("sampling_ratio", "0.05"),
        reset_ack: "default",
        invalid: "0",
        error: "sampling_ratio must be in (0, 1], got 0",
        observe: |s, _| config_field(s, |c| c.sampling_ratio.to_string()),
    },
    SetCase {
        name: "stream_block_rows",
        valid: "1000",
        ack: ("stream_block_rows", "1000"),
        reset_ack: "default",
        invalid: "1.5",
        error: "stream_block_rows must be a positive integer, got 1.5",
        observe: |s, _| config_field(s, |c| c.stream_block_rows.to_string()),
    },
    SetCase {
        name: "deadline_ms",
        valid: "250",
        ack: ("deadline_ms", "250"),
        reset_ack: "default",
        invalid: "0",
        error: "deadline_ms must be a positive integer number of milliseconds, got 0",
        observe: |s, _| format!("{:?}", s.deadline_ms()),
    },
    SetCase {
        name: "slow_query_ms",
        valid: "10",
        ack: ("slow_query_ms", "10"),
        reset_ack: "default",
        invalid: "-5",
        error: "slow_query_ms must be a non-negative integer number of milliseconds \
                (0 = disabled), got -5",
        observe: |s, _| config_field(s, |c| c.slow_query_ms.to_string()),
    },
];

/// Every `SET` name and alias: a valid value moves the setting, `= default`
/// puts the session back on the context's base (the pool back on the size
/// the engine started with), and an invalid value is refused with its
/// error text, leaving the setting alone.
#[test]
fn every_set_option_writes_the_session_and_resets_to_the_base() {
    let (engine, ctx) = sales_stack(41);
    let mut s = VerdictSession::new(Arc::clone(&ctx));
    s.execute("CREATE SCRAMBLE sales_scr FROM sales METHOD uniform RATIO 0.01")
        .unwrap();
    assert_eq!(s.effective_config(), *ctx.config());
    assert_eq!(engine.parallelism(), default_parallelism());
    assert_eq!(SET_CASES.len(), 13, "11 names and 2 aliases");
    let ack = |s: &mut VerdictSession, statement: &str| match s.execute(statement) {
        Ok(VerdictResponse::OptionSet { name, value }) => (name, value),
        other => panic!("`{statement}`: expected an OptionSet, got {other:?}"),
    };
    for case in SET_CASES {
        let name = case.name;
        let before = (case.observe)(&mut s, &engine);

        let (n, v) = ack(&mut s, &format!("SET {name} = {}", case.valid));
        assert_eq!((n.as_str(), v.as_str()), case.ack, "SET {name}");
        let set = (case.observe)(&mut s, &engine);
        assert_ne!(set, before, "SET {name} = {} must move it", case.valid);

        match s.execute(&format!("SET {name} = {}", case.invalid)) {
            Err(VerdictError::Unsupported(msg)) => assert_eq!(msg, case.error, "SET {name}"),
            other => panic!(
                "SET {name} = {}: expected an error, got {other:?}",
                case.invalid
            ),
        }
        assert_eq!((case.observe)(&mut s, &engine), set, "a refused SET {name}");

        let (n, v) = ack(&mut s, &format!("SET {name} = default"));
        assert_eq!((n.as_str(), v.as_str()), (case.ack.0, case.reset_ack));
        assert_eq!(
            (case.observe)(&mut s, &engine),
            before,
            "SET {name} = default"
        );
        assert_eq!(s.effective_config(), *ctx.config(), "SET {name} = default");
        assert_eq!(engine.parallelism(), default_parallelism(), "SET {name}");
        assert_eq!(s.deadline_ms(), None, "SET {name} = default");
    }
}

/// A worker count past the pool's cap is a typed error, in process and over
/// the wire, and the session answers its next aggregate (a count near
/// `usize::MAX` used to wrap the aggregation's chunk size to zero and panic).
#[test]
fn set_parallelism_past_the_pool_cap_is_refused_and_the_next_statement_answers() {
    const HUGE: &str = "SET parallelism = 4611686018427387904";
    let refusal = format!("parallelism must be at most {MAX_PARALLELISM}, got 4611686018427387904");
    const Q: &str = "SELECT city, count(*) AS n FROM sales GROUP BY city ORDER BY city";

    let (engine, ctx) = sales_stack(43);
    let mut s = VerdictSession::new(Arc::clone(&ctx));
    match s.execute(HUGE) {
        Err(VerdictError::Unsupported(msg)) => assert_eq!(msg, refusal),
        other => panic!("expected the cap error, got {other:?}"),
    }
    assert_eq!(engine.parallelism(), default_parallelism());
    let local = s.execute(Q).unwrap().into_answer().unwrap();
    assert_eq!(local.table.num_rows(), 10);
    let at_cap = format!("SET parallelism = {MAX_PARALLELISM}");
    assert!(s.execute(&at_cap).is_ok(), "the cap itself is allowed");
    assert_eq!(engine.parallelism(), MAX_PARALLELISM);
    s.execute("SET parallelism = default").unwrap();

    let handle = VerdictServer::bind("127.0.0.1:0", ctx)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = VerdictClient::connect(handle.addr()).unwrap();
    match client.sql(HUGE) {
        Err(ClientError::Server(msg)) => assert!(msg.contains(&refusal), "got: {msg}"),
        other => panic!("expected the cap error over the wire, got {other:?}"),
    }
    let remote = client.sql(Q).unwrap();
    assert_eq!(
        remote_rows(&remote),
        in_process_rows(&VerdictResponse::Answer(local))
    );
    client.quit().unwrap();
    handle.stop();
}
