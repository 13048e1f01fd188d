//! Concurrent serving tour: spin up the TCP server over a shared context and
//! drive it from several client sessions at once — **everything over the
//! one-verb SQL protocol**: scramble DDL, dashboard queries, `SHOW STATS`,
//! and exact-mode appends via `BYPASS`.  Watch the approximate-answer cache
//! serve dashboard repeats without re-executing, then invalidate itself the
//! moment the data changes.
//!
//! ```sh
//! cargo run --release --example concurrent_serving
//! ```
//! (`VERDICT_EXAMPLE_SCALE` overrides the dataset scale, e.g. CI uses 0.02.)

use std::sync::Arc;
use verdictdb::server::{VerdictClient, VerdictServer};
use verdictdb::{instacart_context, VerdictConfig};

const DASHBOARD: &str =
    "SELECT quantity, avg(price) AS ap FROM order_products GROUP BY quantity ORDER BY quantity";

fn main() {
    // One engine + middleware context, shared by every session.
    let mut config = VerdictConfig::for_testing();
    config.answer_cache_capacity = 256;
    let (_engine, ctx) = instacart_context(verdictdb::example_scale(0.05), config);
    let ctx = Arc::new(ctx);

    let handle = VerdictServer::bind("127.0.0.1:0", Arc::clone(&ctx))
        .expect("bind")
        .spawn()
        .expect("spawn");
    let addr = handle.addr();
    println!("serving on {addr}\n");

    // Sample preparation is a SQL statement over the wire, like everything
    // else on this protocol.
    let mut admin = VerdictClient::connect(addr).expect("connect");
    let built = admin
        .sql("CREATE SCRAMBLE op_scramble FROM order_products METHOD uniform")
        .expect("scramble build");
    println!(
        "built scramble {} ({} rows)",
        built.extra("scramble").unwrap_or("?"),
        built.extra("sample_rows").unwrap_or("?"),
    );

    // Four sessions issue the same dashboard query concurrently.  The first
    // execution computes (sample scan + error assembly); every other request
    // is a cache hit with the bit-identical estimate and interval.
    std::thread::scope(|scope| {
        for session in 0..4 {
            scope.spawn(move || {
                let mut client = VerdictClient::connect(addr).expect("connect");
                for round in 0..3 {
                    let answer = client.sql(DASHBOARD).expect("query");
                    println!(
                        "session {session} round {round}: {} rows, {}{} in {} µs",
                        answer.header.rows,
                        if answer.header.exact {
                            "exact"
                        } else {
                            "approximate"
                        },
                        if answer.header.cached {
                            " (cached)"
                        } else {
                            ""
                        },
                        answer.header.elapsed_us
                    );
                }
                client.quit().expect("quit");
            });
        }
    });

    let stats = admin.sql("SHOW STATS").expect("stats");
    let stat = |name| {
        stats
            .stat(name)
            .map_or_else(|| "?".into(), |v| v.to_string())
    };
    println!(
        "\ncache: {} hits, {} misses, {} entries",
        stat("cache_hits"),
        stat("cache_misses"),
        stat("cache_entries"),
    );

    // Append a batch to the fact table: the cached dashboard answer is now
    // stale and the next request recomputes from the grown table.  BYPASS is
    // the exact/DDL path on the same SQL verb.
    admin
        .sql(
            "BYPASS CREATE TABLE op_batch AS SELECT order_id, product_id, price, quantity, \
             add_to_cart_order, reordered FROM order_products LIMIT 5000",
        )
        .expect("stage batch");
    admin
        .sql("BYPASS INSERT INTO order_products SELECT * FROM op_batch")
        .expect("append");
    let after = admin.sql(DASHBOARD).expect("query after append");
    println!(
        "\nafter append: cached={} (invalidated, recomputed in {} µs)",
        after.header.cached, after.header.elapsed_us
    );
    // Fold the batch into the scramble so future answers track the new data.
    let refreshed = admin
        .sql("REFRESH SCRAMBLES order_products FROM op_batch")
        .expect("refresh");
    println!(
        "refreshed {} scramble(s) from the batch",
        refreshed.extra("refreshed_samples").unwrap_or("?")
    );

    admin.quit().expect("quit");
    handle.stop();
}
