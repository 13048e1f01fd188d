//! The repository benchmark: four workloads over the public SQL surface,
//! end-to-end metrics with spans off, and the shared pieces of the traced
//! run.  See `README.md` in this directory.
//!
//! Nothing in this library reaches below the SQL surface
//! (`VerdictSession::execute/stream`, `VerdictClient`, `VerdictServer`,
//! `Store::open` + `VerdictContext::with_store`) except to generate tables
//! and to ask the engine for the exact answer the checks compare against.
//! The probes of single layers live in `src/bin/vbench_layers.rs`, so that a
//! refactor of those signatures cannot take the end-to-end numbers down.

pub mod adhoc;
pub mod args;
pub mod compare;
pub mod env;
pub mod grid;
pub mod json;
pub mod report;
pub mod rng;
pub mod setup;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod stream;
pub mod wire;
