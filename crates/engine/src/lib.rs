//! # verdict-engine
//!
//! An in-memory columnar SQL execution engine used as the "underlying
//! database" substrate for VerdictDB-rs.
//!
//! The paper runs VerdictDB on top of Apache Impala, Apache Spark SQL, and
//! Amazon Redshift; none of those are available here, so this crate provides
//! a standards-conforming relational engine with the feature set VerdictDB
//! requires (§2.1 of the paper): `rand()`, hash functions, window functions,
//! `CREATE TABLE … AS SELECT`, equi-joins, grouping/aggregation, and derived
//! tables.  Because VerdictDB interacts with the engine purely through SQL
//! text (the [`Backend`] trait), the middleware code paths exercised are
//! identical to those against a production engine — and any other
//! [`Backend`] implementation (such as the server crate's remote
//! wire-protocol backend) can be swapped in.
//!
//! ## Example
//!
//! ```
//! use verdict_engine::{Engine, TableBuilder};
//!
//! let engine = Engine::with_seed(1);
//! let table = TableBuilder::new()
//!     .int_column("id", (0..100).collect())
//!     .float_column("price", (0..100).map(|i| i as f64).collect())
//!     .build()
//!     .unwrap();
//! engine.register_table("sales", table);
//!
//! let result = engine.execute_sql("SELECT count(*) AS cnt FROM sales WHERE price >= 50").unwrap();
//! assert_eq!(result.table.value(0, 0).as_i64(), Some(50));
//! ```

#![warn(missing_docs)]

pub mod approx;
pub mod catalog;
pub mod column;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod functions;
pub mod kernels;
pub mod parallel;
pub mod persist;
pub mod schema;
pub mod selvec;
pub mod table;
pub mod value;

pub use catalog::Catalog;
pub use column::{Bitmap, Column, ColumnData};
pub use engine::{Backend, Engine, ExecStats, QueryResult};
pub use error::{EngineError, EngineResult};
pub use exec::progressive::{BlockScan, ProgressiveScan};
pub use parallel::{default_parallelism, ThreadPool, MAX_PARALLELISM, MORSEL_ROWS};
pub use persist::{ScanSource, StoreHandle, TableSource};
pub use schema::{Field, Schema};
pub use selvec::SelVec;
pub use table::{Table, TableBuilder};
pub use value::{DataType, KeyValue, Value};
