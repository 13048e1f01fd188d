//! # verdict-core
//!
//! The VerdictDB middleware: a Rust reproduction of *"VerdictDB:
//! Universalizing Approximate Query Processing"* (SIGMOD 2018).
//!
//! VerdictDB is a **driver-level, platform-agnostic AQP engine**: it sits
//! between the user and an off-the-shelf SQL database, intercepts analytical
//! queries, and rewrites them into standard SQL that computes an unbiased
//! approximate answer together with probabilistic error bounds — all without
//! touching the database's internals.
//!
//! The crate is organised around the paper's components:
//!
//! | Paper component | Module |
//! |---|---|
//! | Sample preparation (§3), probabilistic stratified samples (§3.2, Lemma 1) | [`sample`], [`stats`] |
//! | Sample planning under an I/O budget (Appendix E) | [`planner`] |
//! | AQP rewriting with variational subsampling and joins (§4, §5) | [`rewrite`] |
//! | Answer rewriting: approximate answers + confidence intervals | [`answer`] |
//! | User interface / knobs (§2.4) | [`config`], [`session`] |
//! | The statement pipeline (plan → execute → finish) | [`pipeline`], [`context`], [`progress`] |
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use verdict_core::{VerdictConfig, VerdictContext, VerdictSession};
//! use verdict_engine::{Backend, Engine, TableBuilder};
//!
//! // The "underlying database": here the in-memory engine, but anything that
//! // speaks SQL through the Backend trait works (see [`backend`] and the
//! // server crate's remote wire-protocol backend).
//! let engine = Engine::with_seed(7);
//! let rows = 50_000usize;
//! let table = TableBuilder::new()
//!     .int_column("id", (0..rows as i64).collect())
//!     .float_column("price", (0..rows).map(|i| (i % 100) as f64).collect())
//!     .str_column("city", (0..rows).map(|i| format!("city_{}", i % 10)).collect())
//!     .build()
//!     .unwrap();
//! engine.register_table("orders", table);
//!
//! let conn: Arc<dyn Backend> = Arc::new(engine);
//! let ctx = Arc::new(VerdictContext::new(conn, VerdictConfig::for_testing()));
//! let mut session = VerdictSession::new(ctx);
//!
//! // Offline: build a 1% uniform scramble — plain SQL, like everything else.
//! session.execute("CREATE SCRAMBLE orders_scramble FROM orders").unwrap();
//!
//! // Online: the query is answered from the scramble, with error bounds.
//! let answer = session
//!     .execute("SELECT city, avg(price) AS ap FROM orders GROUP BY city ORDER BY city")
//!     .unwrap()
//!     .into_answer()
//!     .unwrap();
//! assert!(!answer.exact);
//! assert_eq!(answer.table.num_rows(), 10);
//! ```

#![warn(missing_docs)]

pub mod answer;
pub mod backend;
pub mod cache;
pub mod config;
pub mod context;
pub mod error;
pub mod meta;
pub mod obs;
pub mod pipeline;
pub mod planner;
pub mod progress;
pub mod rewrite;
pub mod sample;
pub mod session;
pub mod shed;
pub mod stats;
pub mod system;

pub use answer::{AggEstimate, ColumnErrorSummary};
pub use backend::{BackendStats, DialectBackend};
pub use cache::{AnswerCache, CacheHit, CacheStats};
pub use config::VerdictConfig;
pub use context::{StreamStats, VerdictAnswer, VerdictContext};
pub use error::{VerdictError, VerdictResult};
pub use obs::{Histogram, Obs, QueryTrace, SpanRecord, TraceBuilder, TraceRing};
pub use pipeline::{statement_class, Route};
pub use progress::{ProgressFrame, ProgressStream};
pub use sample::{SampleMeta, SampleType};
pub use session::{Parsed, VerdictResponse, VerdictSession};
pub use shed::{Admission, AdmissionController, AdmissionStats, ShedPolicy, ShedTier};
