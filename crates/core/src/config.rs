//! Middleware configuration: the knobs exposed to VerdictDB users (§2.4).
//!
//! Instead of latency or accuracy knobs, VerdictDB exposes an **I/O budget**:
//! the maximum fraction of a large table that may be read when answering an
//! analytical query.  Optionally a minimum-accuracy requirement can be set;
//! it is enforced *after* execution (High-level Accuracy Contract): if the
//! estimated error violates the requirement, the query is re-run exactly.

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
    /// Deterministic seed for subsample assignment randomness; `None` uses
    /// entropy.  Experiments set it for reproducibility.
    pub seed: Option<u64>,
    /// Capacity (in entries) of the approximate-answer cache keyed by
    /// canonical SQL.  `0` (the default) disables caching: every `execute`
    /// call runs against the underlying database.  The serving layer turns
    /// this on so repeated dashboard aggregates are answered from memory;
    /// entries are invalidated by any write to the tables they were computed
    /// from (see [`crate::cache::AnswerCache`]).
    pub answer_cache_capacity: usize,
    /// Scramble rows consumed per progressive-execution block: each `STREAM`
    /// frame refines the answer with this many further rows.  Defaults to
    /// the engine's morsel size ([`verdict_engine::MORSEL_ROWS`], 64K rows)
    /// so frame boundaries line up with the parallel kernels' work units.
    /// Smaller blocks mean earlier (but noisier) first estimates.  Does not
    /// affect the final answer — only how often intermediate frames appear —
    /// so it is not part of the cache fingerprint.
    pub stream_block_rows: usize,
    /// Slow-query threshold in milliseconds: statements whose end-to-end
    /// wall time meets or exceeds it are flagged `slow` in the trace ring
    /// (the slow-query log, see `SHOW PROFILE`) and counted in
    /// `verdict_slow_queries_total`.  `0` (the default) disables the flag.
    /// Purely observational — it never changes an answer — so it stays out
    /// of the cache fingerprint.
    pub slow_query_ms: u64,
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

    /// A compact rendering of every *answer-affecting* knob, appended to the
    /// approximate-answer cache key so sessions running under different
    /// accuracy settings never share a cache entry.
    ///
    /// Included: everything that changes the bytes of a computed answer —
    /// planning inputs (`io_budget`, `min_table_rows`, `planner_top_k`),
    /// estimation inputs (`subsample_count`, `confidence`, `seed`), result
    /// shaping (`include_error_columns`), and fallback thresholds
    /// (`max_relative_error`, `min_rows_per_group`).  Excluded: knobs that
    /// only change *how fast* the identical answer is produced
    /// (`answer_cache_capacity`), that only matter at sample-build time
    /// (`sampling_ratio`), that only change how often progressive frames
    /// appear while leaving the final answer bit-identical
    /// (`stream_block_rows`), or that are purely observational
    /// (`slow_query_ms`).
    pub fn cache_fingerprint(&self) -> String {
        format!(
            "io={:?};mtr={};b={};conf={:?};maxrel={:?};errcols={};mrpg={:?};topk={};seed={:?}",
            self.io_budget,
            self.min_table_rows,
            self.subsample_count,
            self.confidence,
            self.max_relative_error,
            self.include_error_columns,
            self.min_rows_per_group,
            self.planner_top_k,
            self.seed,
        )
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

    #[test]
    fn subsample_count_is_squared() {
        let mut c = VerdictConfig::default();
        c.subsample_count = 120;
        assert_eq!(c.sqrt_subsamples(), 11);
        assert_eq!(c.effective_subsamples(), 121);
    }
}
