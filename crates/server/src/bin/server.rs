//! `verdict-server` — load a dataset into the in-memory engine, build
//! samples, and serve the VerdictDB wire protocol over TCP.
//!
//! ```text
//! verdict-server [--addr HOST:PORT] [--dataset instacart|tpch] [--scale F]
//!                [--cache N] [--seed N] [--no-samples] [--data-dir DIR]
//! ```
//!
//! Defaults: `--addr 127.0.0.1:6688 --dataset instacart --scale 0.05
//! --cache 256 --seed 7`.  With samples enabled (the default) a uniform
//! sample is built for every base table large enough to sample, so queries
//! are answered approximately out of the box.
//!
//! With `--data-dir DIR` (or env `VERDICT_DATA_DIR`) scrambles persist in a
//! crash-safe on-disk store: WAL recovery runs at startup, previously built
//! scrambles and their metadata reload without touching the base tables,
//! and the server answers approximate queries immediately after a restart —
//! bit-identically to the pre-restart answers.

use std::sync::Arc;
use verdict_core::{VerdictConfig, VerdictContext, VerdictResponse, VerdictSession};
use verdict_engine::{Backend, Engine};
use verdict_server::VerdictServer;

struct Options {
    addr: String,
    dataset: String,
    scale: f64,
    cache: usize,
    seed: u64,
    samples: bool,
    data_dir: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:6688".into(),
            dataset: "instacart".into(),
            scale: 0.05,
            cache: 256,
            seed: 7,
            samples: true,
            data_dir: std::env::var("VERDICT_DATA_DIR")
                .ok()
                .filter(|d| !d.is_empty()),
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--dataset" => opts.dataset = value("--dataset")?,
            "--scale" => {
                opts.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?
            }
            "--cache" => {
                opts.cache = value("--cache")?
                    .parse()
                    .map_err(|e| format!("bad --cache: {e}"))?
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--no-samples" => opts.samples = false,
            "--data-dir" => opts.data_dir = Some(value("--data-dir")?),
            "--help" | "-h" => {
                println!(
                    "usage: verdict-server [--addr HOST:PORT] [--dataset instacart|tpch] \
                     [--scale F] [--cache N] [--seed N] [--no-samples] [--data-dir DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("verdict-server: {e}");
            std::process::exit(2);
        }
    };

    let engine = Engine::with_seed(opts.seed);
    let tables: Vec<&str> = match opts.dataset.as_str() {
        "instacart" => {
            verdict_data::InstacartGenerator::new(opts.scale).register(&engine);
            vec!["orders", "order_products", "products"]
        }
        "tpch" => {
            verdict_data::TpchGenerator::new(opts.scale).register(&engine);
            vec!["lineitem", "tpch_orders", "customer", "part", "supplier"]
        }
        other => {
            eprintln!("verdict-server: unknown dataset {other} (instacart|tpch)");
            std::process::exit(2);
        }
    };
    for t in &tables {
        let rows = engine.catalog().row_count(t);
        println!("loaded {t}: {rows} rows");
    }

    let mut config = VerdictConfig::for_testing();
    config.answer_cache_capacity = opts.cache;

    // Attach the persistent store (if any) to the engine catalog BEFORE the
    // context reloads metadata, so persisted scramble tables are visible
    // through SQL and lazily load off disk on first touch.
    let store = match &opts.data_dir {
        Some(dir) => match verdict_store::Store::open(dir) {
            Ok(store) => {
                let store = Arc::new(store);
                engine
                    .catalog()
                    .set_store(Arc::clone(&store) as Arc<dyn verdict_engine::StoreHandle>);
                let stats = store.stats();
                println!(
                    "store {dir}: {} table(s), {} recovery replay(s)",
                    store.tables().len(),
                    stats.recoveries
                );
                Some(store)
            }
            Err(e) => {
                eprintln!("verdict-server: cannot open data dir {dir}: {e}");
                std::process::exit(1);
            }
        },
        None => None,
    };

    let conn: Arc<dyn Backend> = Arc::new(engine);
    let ctx = match store {
        Some(store) => match VerdictContext::with_store(conn, config, store) {
            Ok(ctx) => Arc::new(ctx),
            Err(e) => {
                eprintln!("verdict-server: cannot reload persisted metadata: {e}");
                std::process::exit(1);
            }
        },
        None => Arc::new(VerdictContext::new(conn, config)),
    };
    for meta in ctx.meta().all() {
        println!(
            "restored scramble {}: {} rows (τ = {})",
            meta.sample_table, meta.sample_rows, meta.ratio
        );
    }

    if opts.samples {
        // Sample preparation is plain SQL, exactly what a client would send.
        let mut session = VerdictSession::new(Arc::clone(&ctx));
        for t in &tables {
            // A scramble restored from the store serves as-is: rebuilding it
            // here would defeat cold-start serving (and change answers).
            if !ctx.meta().samples_for(t).is_empty() {
                continue;
            }
            let ddl = format!("CREATE SCRAMBLE verdict_sample_{t}_uniform FROM {t}");
            match session.execute(&ddl) {
                Ok(VerdictResponse::ScramblesCreated(metas)) => {
                    for meta in metas {
                        println!(
                            "scramble {}: {} rows (τ = {})",
                            meta.sample_table, meta.sample_rows, meta.ratio
                        );
                    }
                }
                Ok(_) => unreachable!("CREATE SCRAMBLE returns ScramblesCreated"),
                Err(e) => println!("no scramble for {t}: {e}"),
            }
        }
    }

    let server = match VerdictServer::bind(&opts.addr, ctx) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("verdict-server: cannot bind {}: {e}", opts.addr);
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("serving on {addr} (cache capacity {})", opts.cache),
        Err(_) => println!("serving on {}", opts.addr),
    }
    // serve_forever returns after a graceful drain: a SHUTDOWN request stops
    // the accept loop, in-flight statements finish, responses flush, and
    // every worker joins before control comes back here.
    if let Err(e) = server.serve_forever() {
        eprintln!("verdict-server: serving failed: {e}");
        std::process::exit(1);
    }
    println!("drained; exiting");
}
