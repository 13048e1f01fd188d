//! Middleware configuration: the knobs exposed to VerdictDB users (§2.4).
//!
//! Instead of latency or accuracy knobs, VerdictDB exposes an **I/O budget**:
//! the maximum fraction of a large table that may be read when answering an
//! analytical query.  Optionally a minimum-accuracy requirement can be set;
//! it is enforced *after* execution (High-level Accuracy Contract): if the
//! estimated error violates the requirement, the query is re-run exactly.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Configuration for a [`crate::VerdictContext`].
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictConfig {
    /// Maximum fraction of each large table that query processing may read
    /// (paper default: 2%).
    pub io_budget: f64,
    /// Default sampling parameter τ used when building samples (paper default: 1%).
    pub sampling_ratio: f64,
    /// Tables smaller than this row count are never sampled (paper default: 10M;
    /// lowered here because generated datasets are laptop-scale).
    pub min_table_rows: u64,
    /// Number of subsamples `b` used by variational subsampling.  Kept a
    /// perfect square so the join reassignment function `h(i, j)` of Theorem 4
    /// partitions `I × J` exactly.
    pub subsample_count: u64,
    /// Confidence level for reported error bounds (e.g. 0.95).
    pub confidence: f64,
    /// Optional accuracy requirement: maximum tolerated relative error.  When
    /// the estimated error exceeds it, VerdictDB re-runs the query exactly
    /// (High-level Accuracy Contract).
    pub max_relative_error: Option<f64>,
    /// Attach `<column>_err` error columns to the returned result set.  Off by
    /// default so legacy applications can consume results unchanged (§2.4).
    pub include_error_columns: bool,
    /// When the estimated number of sample rows per output group falls below
    /// this threshold, the planner declares AQP infeasible and runs the
    /// original query (the paper's behaviour for tq-3, tq-8, tq-15).  A
    /// scalar query counts as one group.
    pub min_rows_per_group: f64,
    /// Heuristic sample-planner fan-out: number of best sample tables kept at
    /// each join point (Appendix E.2, default 10).
    pub planner_top_k: usize,
    /// A seed recorded with an experiment's configuration.  No query reads
    /// it: every random draw — subsample ids come from the scramble, and a
    /// scramble build's `rand()` from the engine's own seed
    /// (`Engine::with_seed`) — is seeded elsewhere, so it changes no answer.
    pub seed: Option<u64>,
    /// Capacity (in entries) of the approximate-answer cache keyed by
    /// canonical SQL.  `0` (the default) disables caching: every `execute`
    /// call runs against the underlying database.  The serving layer turns
    /// this on so repeated dashboard aggregates are answered from memory.
    /// An entry is keyed by the backend's identity, the statement's text and
    /// the [`AnswerSettings`] it was computed under, and is invalidated by
    /// any write to the tables it was computed from and by any scramble DDL
    /// on them (see [`crate::cache::AnswerCache`]).
    pub answer_cache_capacity: usize,
    /// Scramble rows consumed per progressive-execution block: each `STREAM`
    /// frame refines the answer with this many further rows.  Defaults to
    /// the engine's morsel size ([`verdict_engine::MORSEL_ROWS`], 64K rows)
    /// so frame boundaries line up with the parallel kernels' work units.
    /// Smaller blocks mean earlier (but noisier) first estimates.  Does not
    /// affect the final answer — only how often intermediate frames appear.
    pub stream_block_rows: usize,
    /// Slow-query threshold in milliseconds: statements whose end-to-end
    /// wall time meets or exceeds it are flagged `slow` in the trace ring
    /// (the slow-query log, see `SHOW PROFILE`) and counted in
    /// `verdict_slow_queries_total`.  `0` (the default) disables the flag.
    /// Purely observational: it never changes an answer.
    pub slow_query_ms: u64,
}

/// The settings an answer depends on, which
/// [`VerdictConfig::answer_settings`] picks out of a configuration.  Floats
/// compare and hash by their bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnswerSettings {
    io_budget: Bits,
    min_table_rows: u64,
    subsample_count: u64,
    confidence: Bits,
    max_relative_error: Option<Bits>,
    include_error_columns: bool,
    min_rows_per_group: Bits,
    planner_top_k: usize,
}

/// An `f64` setting, equal and hashed by its bit pattern.
#[derive(Clone, Copy)]
struct Bits(f64);

impl PartialEq for Bits {
    fn eq(&self, other: &Bits) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Eq for Bits {}

impl Hash for Bits {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl fmt::Debug for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// A configuration with its [`AnswerSettings`], derived once: a session
/// derives it again on `SET` and on a shed-tier change, not per statement.
#[derive(Debug)]
pub(crate) struct Effective {
    pub(crate) config: VerdictConfig,
    pub(crate) settings: AnswerSettings,
}

impl Effective {
    pub(crate) fn new(config: VerdictConfig) -> Effective {
        Effective {
            settings: config.answer_settings(),
            config,
        }
    }
}

impl Default for VerdictConfig {
    fn default() -> Self {
        VerdictConfig {
            io_budget: 0.02,
            sampling_ratio: 0.01,
            min_table_rows: 10_000,
            subsample_count: 100,
            confidence: 0.95,
            max_relative_error: None,
            include_error_columns: false,
            min_rows_per_group: 10.0,
            planner_top_k: 10,
            seed: None,
            answer_cache_capacity: 0,
            stream_block_rows: verdict_engine::MORSEL_ROWS,
            slow_query_ms: 0,
        }
    }
}

impl VerdictConfig {
    /// A configuration tuned for deterministic tests and experiments.
    pub fn for_testing() -> Self {
        VerdictConfig {
            min_table_rows: 1_000,
            seed: Some(0x5EED),
            include_error_columns: true,
            ..VerdictConfig::default()
        }
    }

    /// The settings an answer computed under this configuration depends
    /// on: the part of an answer-cache key that comes from the
    /// configuration.
    pub fn answer_settings(&self) -> AnswerSettings {
        // No `..`: a new field does not compile here until it is sorted
        // into the key or out of it.
        let VerdictConfig {
            io_budget,
            min_table_rows,
            subsample_count,
            confidence,
            max_relative_error,
            include_error_columns,
            min_rows_per_group,
            planner_top_k,
            // Read only when a scramble is built; scramble DDL invalidates
            // every answer over the table it builds for.
            sampling_ratio: _,
            // Read by no query.
            seed: _,
            // Whether an answer is looked up, not what it is.
            answer_cache_capacity: _,
            // How often a stream's frames appear; its final answer is the
            // one-shot answer.
            stream_block_rows: _,
            // Observational.
            slow_query_ms: _,
        } = *self;
        AnswerSettings {
            io_budget: Bits(io_budget),
            min_table_rows,
            subsample_count,
            confidence: Bits(confidence),
            max_relative_error: max_relative_error.map(Bits),
            include_error_columns,
            min_rows_per_group: Bits(min_rows_per_group),
            planner_top_k,
        }
    }

    /// A rendering of [`Self::answer_settings`], for reports.
    pub fn cache_fingerprint(&self) -> String {
        format!("{:?}", self.answer_settings())
    }

    /// √b as an integer; `subsample_count` is clamped to a perfect square.
    pub fn sqrt_subsamples(&self) -> u64 {
        (self.subsample_count as f64).sqrt().round().max(1.0) as u64
    }

    /// The effective subsample count (forced to a perfect square).
    pub fn effective_subsamples(&self) -> u64 {
        let s = self.sqrt_subsamples();
        s * s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_values() {
        let c = VerdictConfig::default();
        assert_eq!(c.io_budget, 0.02);
        assert_eq!(c.sampling_ratio, 0.01);
        assert_eq!(c.subsample_count, 100);
        assert_eq!(crate::sample::STRATIFIED_DELTA, 0.001);
        assert_eq!(c.planner_top_k, 10);
    }

    /// A field's name, and a change to it.
    type Change = (&'static str, fn(&mut VerdictConfig));

    #[test]
    fn every_answer_affecting_field_is_in_the_key_and_no_other() {
        let base = VerdictConfig::default();
        let key = base.answer_settings();
        let changed: [Change; 8] = [
            ("io_budget", |c| c.io_budget = 0.5),
            ("min_table_rows", |c| c.min_table_rows += 1),
            ("subsample_count", |c| c.subsample_count = 400),
            ("confidence", |c| c.confidence = 0.9),
            ("max_relative_error", |c| c.max_relative_error = Some(0.05)),
            ("include_error_columns", |c| {
                c.include_error_columns = !c.include_error_columns
            }),
            ("min_rows_per_group", |c| c.min_rows_per_group = 3.0),
            ("planner_top_k", |c| c.planner_top_k = 2),
        ];
        for (field, change) in changed {
            let mut c = base.clone();
            change(&mut c);
            assert_ne!(c, base, "{field}");
            assert_ne!(c.answer_settings(), key, "{field} must change the key");
            assert_ne!(c.cache_fingerprint(), base.cache_fingerprint(), "{field}");
        }
        let unchanged: [Change; 5] = [
            ("answer_cache_capacity", |c| c.answer_cache_capacity = 256),
            ("stream_block_rows", |c| c.stream_block_rows = 1_000),
            ("slow_query_ms", |c| c.slow_query_ms = 10),
            ("sampling_ratio", |c| c.sampling_ratio = 0.05),
            ("seed", |c| c.seed = Some(7)),
        ];
        for (field, change) in unchanged {
            let mut c = base.clone();
            change(&mut c);
            assert_ne!(c, base, "{field}");
            assert_eq!(c.answer_settings(), key, "{field} must not change the key");
        }
    }

    #[test]
    fn subsample_count_is_squared() {
        let mut c = VerdictConfig::default();
        c.subsample_count = 120;
        assert_eq!(c.sqrt_subsamples(), 11);
        assert_eq!(c.effective_subsamples(), 121);
    }
}
