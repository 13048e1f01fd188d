//! Engine latency profiles.
//!
//! The paper evaluates VerdictDB on three engines (Amazon Redshift, Apache
//! Spark SQL, Apache Impala) and observes that the *speedup* delivered by AQP
//! depends on how much of a query's latency is fixed overhead (catalog
//! access, planning) versus per-row data processing (§6.2): engines with
//! smaller fixed overheads (Redshift) see larger speedups.
//!
//! Since the real engines are not available in this environment, a profile
//! models each engine's latency as
//!
//! ```text
//! latency = fixed_overhead + rows_scanned * per_row_cost + measured_cpu_time
//! ```
//!
//! where `measured_cpu_time` is the wall-clock time our in-memory engine
//! spent.  Reported speedups therefore preserve the paper's *shape* (which
//! engine benefits more, how speedup scales with sample ratio) without
//! claiming to reproduce the absolute EC2 numbers.
//!
//! Since the engine executes kernels morsel-parallel
//! ([`verdict_engine::ThreadPool`]), `measured_cpu_time` already reflects
//! the configured thread count; the fixed and per-row components model the
//! *remote* engine and are unaffected by local parallelism, which keeps the
//! modeled speedup ratios comparable across pool sizes.

use std::time::Duration;
use verdict_engine::ExecStats;

/// A latency model for one underlying engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineProfile {
    /// Engine name as reported in benchmark output.
    pub name: &'static str,
    /// Fixed per-query overhead (planning, catalog, scheduling).
    pub fixed_overhead: Duration,
    /// Cost of scanning and processing one million rows.
    pub per_million_rows: Duration,
}

impl EngineProfile {
    /// Amazon Redshift: small fixed overhead, columnar scans — the engine
    /// where the paper saw the largest speedups (average 24×).
    pub fn redshift() -> EngineProfile {
        EngineProfile {
            name: "redshift",
            fixed_overhead: Duration::from_millis(180),
            per_million_rows: Duration::from_millis(950),
        }
    }

    /// Apache Spark SQL: large job-scheduling overhead per query, so relative
    /// speedups are the smallest of the three (average 12×).
    pub fn spark_sql() -> EngineProfile {
        EngineProfile {
            name: "sparksql",
            fixed_overhead: Duration::from_millis(1600),
            per_million_rows: Duration::from_millis(1400),
        }
    }

    /// Apache Impala: moderate overhead (average 18.6× in the paper).
    pub fn impala() -> EngineProfile {
        EngineProfile {
            name: "impala",
            fixed_overhead: Duration::from_millis(600),
            per_million_rows: Duration::from_millis(1100),
        }
    }

    /// All three paper engines.
    pub fn all() -> Vec<EngineProfile> {
        vec![Self::redshift(), Self::spark_sql(), Self::impala()]
    }

    /// Models the latency this engine would exhibit for a statement with the
    /// given execution statistics.
    pub fn model_latency(&self, stats: &ExecStats) -> Duration {
        let scan = self
            .per_million_rows
            .mul_f64(stats.rows_scanned as f64 / 1_000_000.0);
        self.fixed_overhead + scan + stats.elapsed
    }

    /// The speedup of running `fast` instead of `slow` under this profile.
    pub fn speedup(&self, slow: &ExecStats, fast: &ExecStats) -> f64 {
        let slow_latency = self.model_latency(slow).as_secs_f64();
        let fast_latency = self.model_latency(fast).as_secs_f64();
        if fast_latency <= 0.0 {
            return 1.0;
        }
        slow_latency / fast_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rows: u64, micros: u64) -> ExecStats {
        ExecStats {
            rows_scanned: rows,
            elapsed: Duration::from_micros(micros),
        }
    }

    #[test]
    fn sampling_fewer_rows_is_faster_under_every_profile() {
        let full = stats(10_000_000, 800_000);
        let sample = stats(100_000, 12_000);
        for p in EngineProfile::all() {
            assert!(
                p.speedup(&full, &sample) > 1.0,
                "{} should speed up",
                p.name
            );
        }
    }

    #[test]
    fn redshift_gets_larger_speedups_than_spark() {
        // Same workload, different fixed overheads: the engine with the lower
        // fixed overhead benefits more from the reduced data processing time,
        // matching the paper's observation in Section 6.2.
        let full = stats(10_000_000, 500_000);
        let sample = stats(100_000, 8_000);
        let redshift = EngineProfile::redshift().speedup(&full, &sample);
        let spark = EngineProfile::spark_sql().speedup(&full, &sample);
        assert!(
            redshift > spark,
            "expected redshift speedup {redshift:.1} > spark {spark:.1}"
        );
    }

    #[test]
    fn model_latency_is_monotone_in_rows() {
        let p = EngineProfile::impala();
        assert!(p.model_latency(&stats(1_000_000, 0)) < p.model_latency(&stats(5_000_000, 0)));
    }
}
