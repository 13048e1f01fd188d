//! Progressive query execution: watch an approximate answer refine block by
//! block, and stop early the moment a target error is met.
//!
//! 1. load data and build a scramble (physically shuffled at build time, so
//!    any prefix is a uniform subsample),
//! 2. pull `ProgressFrame`s from `VerdictSession::stream` and print the
//!    estimate ± interval as it tightens,
//! 3. re-run with `SET target_error` and see the stream stop after a strict
//!    prefix of the scramble,
//! 4. verify the completed stream's final frame equals the one-shot answer
//!    bit for bit.
//!
//! Run with: `cargo run --release --example progressive_stream`
//! (`VERDICT_EXAMPLE_SCALE` overrides the dataset scale, e.g. CI uses 0.02.)

use std::sync::Arc;
use verdictdb::{Backend, Engine, Value, VerdictConfig, VerdictContext, VerdictSession};

fn main() {
    // --- 1. underlying database + a shuffled scramble ---------------------
    let engine = Arc::new(Engine::with_seed(7));
    verdictdb::data::InstacartGenerator::new(verdictdb::example_scale(0.5)).register(&engine);
    let conn: Arc<dyn Backend> = engine.clone();
    let mut config = VerdictConfig::default();
    config.min_table_rows = 1_000;
    config.io_budget = 1.0;
    config.include_error_columns = true;
    config.answer_cache_capacity = 16;
    let ctx = Arc::new(VerdictContext::new(conn, config));
    let mut session = VerdictSession::new(ctx);
    session
        .execute("CREATE SCRAMBLE op_scr FROM order_products METHOD uniform RATIO 0.25")
        .unwrap();

    const QUERY: &str = "SELECT avg(price) AS avg_price FROM order_products";

    // --- 2. pull frames: the estimate refines block by block --------------
    session.execute("SET stream_block_rows = 2000").unwrap();
    println!("streaming `{QUERY}`:");
    let mut final_estimate = f64::NAN;
    for frame in session.stream(QUERY).unwrap() {
        let frame = frame.unwrap();
        let est = frame.answer.table.value(0, 0).as_f64().unwrap_or(f64::NAN);
        let err = frame.answer.table.value(0, 1).as_f64().unwrap_or(f64::NAN);
        println!(
            "  frame {:>2}  {:>5.1}%  avg_price = {est:.4} ± {err:.4}",
            frame.index,
            100.0 * frame.fraction
        );
        if frame.last {
            final_estimate = est;
        }
    }

    // --- 3. early stop at a target error ----------------------------------
    session.execute("SET target_error = 0.02").unwrap();
    let frames: Vec<_> = session
        .stream(QUERY)
        .unwrap()
        .collect::<Result<Vec<_>, _>>()
        .unwrap();
    let last = frames.last().unwrap();
    println!(
        "\nwith SET target_error = 0.02: stopped after {} frame(s), {:.1}% of the scramble \
         (early_stopped = {})",
        frames.len(),
        100.0 * last.fraction,
        last.early_stopped
    );
    session.execute("SET target_error = default").unwrap();

    // --- 4. the completed stream populated the cache; a plain SELECT hits --
    let repeat = session.execute(QUERY).unwrap().into_answer().unwrap();
    println!(
        "\nrepeat SELECT: cached = {}, answer = {:?} (streamed final was {final_estimate:.4})",
        repeat.cached,
        repeat.table.value(0, 0)
    );
    assert!(
        repeat.cached,
        "the completed stream's final frame is reusable"
    );
    match repeat.table.value(0, 0) {
        Value::Float(v) => assert_eq!(v.to_bits(), final_estimate.to_bits()),
        other => panic!("expected a float estimate, got {other:?}"),
    }
    println!("cached repeat is bit-identical to the streamed final frame ✓");
}
