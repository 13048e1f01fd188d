//! # verdict-server
//!
//! Concurrent query serving for VerdictDB-rs.
//!
//! The paper describes VerdictDB as a driver-level middleware that many
//! analysts query at once; this crate adds the serving surface the
//! reproduction was missing:
//!
//! * a **line-based text protocol** over plain TCP ([`protocol`]) with one
//!   work verb — `SQL <statement>` — simple enough to drive with `nc`,
//!   precise enough to round-trip every engine value bit-exactly;
//! * a **multiplexed event-loop server** ([`server`]): a handful of I/O
//!   shard threads poll thousands of nonblocking sockets, parsed statements
//!   go through admission control (accuracy shedding first, typed `BUSY`
//!   refusal only at the queue watermark, per-query `deadline_ms`) onto a
//!   bounded run queue drained by executor workers.  Each connection owns
//!   a [`verdict_core::VerdictSession`] (so the full SQL surface —
//!   scramble DDL, `BYPASS`, session-scoped `SET` — works over the wire),
//!   all sharing one [`verdict_core::VerdictContext`] (engine catalog,
//!   sample metadata, and the LRU approximate-answer cache) behind an
//!   `Arc`;
//! * a **blocking client** ([`client`]) used by the CLI, the load
//!   generator, the end-to-end tests, and the benchmark harness — with
//!   typed `Busy`/`Deadline` refusals, a `Disconnected` error for dead
//!   servers, and an optional read timeout;
//! * a **remote backend** ([`backend::RemoteBackend`]): the same wire
//!   protocol packaged as a [`verdict_engine::Backend`], so a *local*
//!   `VerdictContext` can plan queries and have a *remote* `verdict-server`
//!   execute the rendered SQL — a two-tier middleware-over-middleware
//!   deployment.
//!
//! Three binaries ship with the crate: `verdict-server` (load a dataset,
//! build samples, serve), `verdict-cli` (interactive shell / one-shot
//! queries), and `verdict-loadgen` (N-session throughput measurement).
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use verdict_core::{VerdictConfig, VerdictContext};
//! use verdict_engine::{Backend, Engine, TableBuilder};
//! use verdict_server::{VerdictClient, VerdictServer};
//!
//! let engine = Engine::with_seed(1);
//! let table = TableBuilder::new()
//!     .int_column("id", (0..100).collect())
//!     .float_column("price", (0..100).map(|i| i as f64).collect())
//!     .build()
//!     .unwrap();
//! engine.register_table("sales", table);
//! let conn: Arc<dyn Backend> = Arc::new(engine);
//! let mut config = VerdictConfig::for_testing();
//! config.answer_cache_capacity = 64;
//! let ctx = Arc::new(VerdictContext::new(conn, config));
//!
//! let handle = VerdictServer::bind("127.0.0.1:0", ctx).unwrap().spawn().unwrap();
//! let mut client = VerdictClient::connect(handle.addr()).unwrap();
//! let answer = client.sql("SELECT count(*) AS cnt FROM sales").unwrap();
//! assert_eq!(answer.value(0, 0).as_i64(), Some(100));
//! client.quit().unwrap();
//! handle.stop();
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod client;
mod dispatch;
pub mod protocol;
pub mod server;

pub use backend::RemoteBackend;
pub use client::{ClientError, ClientResult, RemoteAnswer, StreamFrame, VerdictClient};
pub use protocol::{ErrorCode, FrameHeader, StreamFrameHeader};
pub use server::{ServerHandle, ServerStats, ServingConfig, VerdictServer};
