//! # verdict-store
//!
//! Persistent scramble storage for VerdictDB-rs: an append-friendly paged
//! **columnar block file** per table plus a **redo-only write-ahead log**
//! shared by the whole store directory.
//!
//! The design goals, in order:
//!
//! 1. **Crash safety.** Every mutation — `CREATE SCRAMBLE`, a `REFRESH`
//!    append batch, a full rebuild, a drop — commits atomically through the
//!    WAL ([`wal`]): full page images are logged and fsynced *before* any
//!    data file is touched, so a crash at any instant leaves each table
//!    either fully old or fully new.  Recovery on open replays committed
//!    transactions and discards torn tails.
//! 2. **Integrity.** Every 8 KiB page carries an XXH64 checksum
//!    ([`page`]).  Torn writes, truncation, and bit flips surface as typed
//!    [`StoreError::Corruption`] errors — never a panic, never a silently
//!    wrong answer.
//! 3. **Streaming reads.** Rows are grouped into blocks sized to the
//!    engine's morsel ([`store::BLOCK_ROWS`]), each column a contiguous
//!    page-aligned segment, so the progressive executor's `BlockScan` can
//!    stream a scramble straight off disk one block at a time via
//!    [`StoreScan`] — including column-projected reads that touch only the
//!    filter columns' pages.
//! 4. **Bit-exactness.** `f64` values are stored as raw IEEE-754 bits, so a
//!    reloaded scramble answers queries bit-identically to the one that was
//!    built in memory — the restart-durability guarantee the server depends
//!    on.
//!
//! The crate deliberately uses only `std` (plus the workspace's existing
//! `parking_lot`): no serialization frameworks, no database libraries.
//! [`Store`] implements the engine's `StoreHandle` trait, which is how the
//! catalog lazily reloads persisted scrambles on cold start.

#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod page;
pub mod scan;
pub mod store;
pub mod tablefile;
pub mod wal;

pub use error::{StoreError, StoreResult};
pub use scan::StoreScan;
pub use store::{Store, StoreStats, BLOCK_ROWS};
