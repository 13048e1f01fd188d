//! Observability: per-query trace spans, latency histograms, and metrics.
//!
//! The paper's middleware argument rests on the rewrite/estimate pipeline
//! being cheap relative to the backend round-trip.  This module makes that
//! claim *observable at runtime*: every statement executed by
//! [`crate::VerdictContext`] carries a [`TraceBuilder`] that records one
//! contiguous [`SpanRecord`] per lifecycle stage (canonicalize → cache probe
//! → analyze → plan → rewrite → backend execution → answer assembly → …),
//! and the finished [`QueryTrace`] is folded into an [`Obs`] registry:
//!
//! * **log-bucketed latency histograms** per stage and per statement class
//!   (power-of-two microsecond buckets, mergeable across shards, p50/p95/p99
//!   within one bucket of exact),
//! * a **bounded ring buffer** of recent traces served by `SHOW PROFILE`,
//! * **counters** (statements by class, slow queries) rendered together with
//!   the histograms as Prometheus-style text exposition by `SHOW METRICS`.
//!
//! Tracing is always on: the cache-hot dispatch path records two spans and
//! one histogram sample, which keeps instrumentation overhead within the
//! PR 4 dispatch bar (≤2% on the `session_dispatch` bench).
//!
//! Statements slower than the session's `slow_query_ms` option are flagged
//! `slow` in the ring (the slow-query log) and counted in
//! `verdict_slow_queries_total`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of log-spaced histogram buckets: bucket `i` covers durations in
/// `(2^(i-1), 2^i]` microseconds, the last bucket is unbounded (`+Inf`).
pub const BUCKETS: usize = 32;

/// The lifecycle stages a query trace can record, in pipeline order.
///
/// Stage names are stable identifiers: they appear as the `stage` label in
/// the metrics exposition and in `EXPLAIN ANALYZE` / `SHOW PROFILE` output.
pub const STAGES: &[&str] = &[
    "canonicalize",
    "cache_probe",
    "analyze",
    "plan",
    "rewrite",
    "backend_exec",
    "assemble",
    "rerun",
    "passthrough",
    "cache_insert",
    "stream_frame",
    "control",
];

/// Statement classes used as the `class` label on per-statement histograms.
pub const CLASSES: &[&str] = &[
    "query",
    "query_cached",
    "bypass",
    "ddl",
    "set",
    "show",
    "stream",
    "explain",
    "other",
];

fn stage_index(stage: &str) -> usize {
    STAGES.iter().position(|s| *s == stage).unwrap_or(0)
}

fn class_index(class: &str) -> usize {
    CLASSES
        .iter()
        .position(|c| *c == class)
        .unwrap_or(CLASSES.len() - 1)
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// A lock-free log-bucketed latency histogram over microsecond durations.
///
/// Buckets are powers of two: recording a value `v` increments the bucket
/// whose upper bound is the smallest `2^i ≥ v`.  Quantile estimates are
/// therefore accurate to within one bucket (a factor of two), which is the
/// right trade-off for latency monitoring: cheap constant-time recording,
/// mergeable across shards, and stable tail percentiles.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    /// Sum of recorded values in microseconds.
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The bucket index a microsecond value falls into.
    pub fn bucket_of(micros: u64) -> usize {
        if micros <= 1 {
            0
        } else {
            ((64 - (micros - 1).leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// The inclusive upper bound (µs) of bucket `i` (the last bucket is
    /// unbounded; its nominal bound is returned).
    pub fn bucket_bound(i: usize) -> u64 {
        1u64 << i.min(63)
    }

    /// Records one duration.
    pub fn record(&self, d: Duration) {
        self.record_micros(d.as_micros() as u64);
    }

    /// Records one microsecond value.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(micros, Ordering::Relaxed);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values in microseconds.
    pub fn sum_micros(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (non-cumulative).
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The `q`-quantile (0 < q ≤ 1) as the upper bound of the bucket holding
    /// it, or `None` when the histogram is empty.  Accurate to within one
    /// bucket of the exact sample quantile.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(Self::bucket_bound(i));
            }
        }
        Some(Self::bucket_bound(BUCKETS - 1))
    }

    /// Folds another histogram into this one.  Merging per-shard histograms
    /// yields exactly the histogram of the concatenated value stream.
    pub fn merge_from(&self, other: &Histogram) {
        for i in 0..BUCKETS {
            let v = other.buckets[i].load(Ordering::Relaxed);
            if v != 0 {
                self.buckets[i].fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Spans and traces
// ---------------------------------------------------------------------------

/// One closed span inside a query trace: a stage with its offset from the
/// start of the statement, its duration, and a short free-form detail.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Stage name (one of [`STAGES`]).
    pub stage: &'static str,
    /// Offset from the start of the statement.
    pub start: Duration,
    /// Time spent in this stage.
    pub duration: Duration,
    /// Short human-readable annotation (`"hit"`, sample name, …).
    pub detail: String,
}

/// A finished per-statement trace: the span list plus end-to-end attribution
/// (cache, shed tier, backend round-trips, store page I/O).
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Monotonic sequence number assigned when the trace enters the ring.
    pub seq: u64,
    /// Statement class (one of [`CLASSES`]).
    pub class: &'static str,
    /// The statement text as received.
    pub sql: String,
    /// End-to-end wall time of the statement.
    pub total: Duration,
    /// Closed spans in execution order; contiguous, so their durations sum
    /// to (almost exactly) `total`.
    pub spans: Vec<SpanRecord>,
    /// Whether the answer came from the answer cache.
    pub cached: bool,
    /// Whether the answer was exact (bypass / passthrough / non-query).
    pub exact: bool,
    /// Shed-tier label in effect (`"none"` when not degraded).
    pub shed_tier: &'static str,
    /// Backend queries issued while executing this statement.
    pub backend_queries: u64,
    /// Store pages read while executing this statement.
    pub store_pages_read: u64,
    /// Rows in the returned table.
    pub rows_returned: u64,
    /// Source rows scanned to produce the answer.
    pub rows_scanned: u64,
    /// True when `total` exceeded the session's `slow_query_ms` threshold.
    pub slow: bool,
}

/// Records contiguous stage spans for one statement execution.
///
/// `begin(stage)` closes the currently open span at the same instant the
/// next one opens, so the recorded spans tile the statement's wall time
/// without gaps — the invariant behind `EXPLAIN ANALYZE`'s "durations sum
/// to total" property.
#[derive(Debug)]
pub struct TraceBuilder {
    start: Instant,
    spans: Vec<SpanRecord>,
    open: Option<(&'static str, String, Instant)>,
}

impl Default for TraceBuilder {
    fn default() -> Self {
        TraceBuilder::new()
    }
}

impl TraceBuilder {
    /// Starts the trace clock.
    pub fn new() -> Self {
        TraceBuilder {
            start: Instant::now(),
            spans: Vec::with_capacity(8),
            open: None,
        }
    }

    /// Closes the open span (if any) and opens a new one.
    pub fn begin(&mut self, stage: &'static str) {
        self.begin_with(stage, String::new());
    }

    /// Closes the open span (if any) and opens a new one with a detail
    /// annotation.
    pub fn begin_with(&mut self, stage: &'static str, detail: String) {
        let now = Instant::now();
        self.close_open(now);
        self.open = Some((stage, detail, now));
    }

    /// Replaces the detail annotation of the currently open span.
    pub fn note(&mut self, detail: String) {
        if let Some((_, d, _)) = self.open.as_mut() {
            *d = detail;
        }
    }

    /// Closes the open span, if any.
    pub fn end(&mut self) {
        self.close_open(Instant::now());
    }

    fn close_open(&mut self, now: Instant) {
        if let Some((stage, detail, since)) = self.open.take() {
            self.spans.push(SpanRecord {
                stage,
                start: since.duration_since(self.start),
                duration: now.duration_since(since),
                detail,
            });
        }
    }

    /// Wall time since the trace started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Closes any open span and returns `(total, spans)`.
    pub fn finish(mut self) -> (Duration, Vec<SpanRecord>) {
        let now = Instant::now();
        self.close_open(now);
        (now.duration_since(self.start), self.spans)
    }
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

/// A bounded ring of recent query traces (most recent last).
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    inner: Mutex<VecDeque<QueryTrace>>,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` traces.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity: capacity.max(1),
            inner: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
        }
    }

    /// Appends a trace, evicting the oldest when full.
    pub fn push(&self, trace: QueryTrace) {
        let mut ring = self.inner.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The `n` most recent traces, most recent first.
    pub fn recent(&self, n: usize) -> Vec<QueryTrace> {
        let ring = self.inner.lock().unwrap();
        ring.iter().rev().take(n).cloned().collect()
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// True when no traces have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Default capacity of the recent-trace ring.
pub const DEFAULT_RING_CAPACITY: usize = 128;

/// The per-context observability registry: stage and statement-class
/// histograms, statement counters, the slow-query counter, and the ring of
/// recent traces.
#[derive(Debug)]
pub struct Obs {
    stage_hist: Vec<Histogram>,
    class_hist: Vec<Histogram>,
    class_count: Vec<AtomicU64>,
    slow_queries: AtomicU64,
    seq: AtomicU64,
    ring: TraceRing,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new(DEFAULT_RING_CAPACITY)
    }
}

impl Obs {
    /// Creates a registry whose trace ring holds `ring_capacity` traces.
    pub fn new(ring_capacity: usize) -> Self {
        Obs {
            stage_hist: (0..STAGES.len()).map(|_| Histogram::new()).collect(),
            class_hist: (0..CLASSES.len()).map(|_| Histogram::new()).collect(),
            class_count: (0..CLASSES.len()).map(|_| AtomicU64::new(0)).collect(),
            slow_queries: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            ring: TraceRing::new(ring_capacity),
        }
    }

    /// The histogram for a lifecycle stage.
    pub fn stage_histogram(&self, stage: &str) -> &Histogram {
        &self.stage_hist[stage_index(stage)]
    }

    /// The end-to-end latency histogram for a statement class.
    pub fn class_histogram(&self, class: &str) -> &Histogram {
        &self.class_hist[class_index(class)]
    }

    /// Number of statements observed for a class.
    pub fn class_count(&self, class: &str) -> u64 {
        self.class_count[class_index(class)].load(Ordering::Relaxed)
    }

    /// Number of statements that exceeded their slow-query threshold.
    pub fn slow_queries(&self) -> u64 {
        self.slow_queries.load(Ordering::Relaxed)
    }

    /// The ring of recent traces.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Folds a finished trace into the histograms and the ring, assigning
    /// its sequence number.  Returns the stored trace (with `seq` set).
    pub fn observe(&self, mut trace: QueryTrace) -> QueryTrace {
        trace.seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let micros = trace.total.as_micros() as u64;
        self.class_hist[class_index(trace.class)].record_micros(micros);
        self.class_count[class_index(trace.class)].fetch_add(1, Ordering::Relaxed);
        for span in &trace.spans {
            self.stage_hist[stage_index(span.stage)].record(span.duration);
        }
        if trace.slow {
            self.slow_queries.fetch_add(1, Ordering::Relaxed);
        }
        self.ring.push(trace.clone());
        trace
    }

    /// Renders the registry as Prometheus-style text exposition, together
    /// with caller-supplied counters and gauges (cache/backend/store
    /// counters from the context; queue and session gauges from the
    /// server).  Histograms with no samples are omitted.
    pub fn render_prometheus(
        &self,
        counters: &[(String, u64)],
        gauges: &[(String, u64)],
    ) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# TYPE verdict_statements_total counter\n");
        for (i, class) in CLASSES.iter().enumerate() {
            let v = self.class_count[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "verdict_statements_total{{class=\"{class}\"}} {v}\n"
            ));
        }
        out.push_str("# TYPE verdict_slow_queries_total counter\n");
        out.push_str(&format!(
            "verdict_slow_queries_total {}\n",
            self.slow_queries()
        ));
        for (kind, series) in [("counter", counters), ("gauge", gauges)] {
            for (name, v) in series {
                out.push_str(&format!("# TYPE {name} {kind}\n{name} {v}\n"));
            }
        }
        render_histogram_family(
            &mut out,
            "verdict_statement_duration_us",
            "class",
            CLASSES.iter().zip(self.class_hist.iter()),
        );
        render_histogram_family(
            &mut out,
            "verdict_stage_duration_us",
            "stage",
            STAGES.iter().zip(self.stage_hist.iter()),
        );
        out
    }
}

fn render_histogram_family<'a>(
    out: &mut String,
    name: &str,
    label: &str,
    series: impl Iterator<Item = (&'a &'static str, &'a Histogram)>,
) {
    let mut wrote_type = false;
    for (value, hist) in series {
        if hist.count() == 0 {
            continue;
        }
        if !wrote_type {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            wrote_type = true;
        }
        let counts = hist.bucket_counts();
        let mut cum = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            let le = if i == BUCKETS - 1 {
                "+Inf".to_string()
            } else {
                Histogram::bucket_bound(i).to_string()
            };
            out.push_str(&format!(
                "{name}_bucket{{{label}=\"{value}\",le=\"{le}\"}} {cum}\n"
            ));
        }
        out.push_str(&format!(
            "{name}_sum{{{label}=\"{value}\"}} {}\n",
            hist.sum_micros()
        ));
        out.push_str(&format!(
            "{name}_count{{{label}=\"{value}\"}} {}\n",
            hist.count()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(5), 3);
        assert_eq!(Histogram::bucket_of(1 << 20), 20);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        for i in 0..BUCKETS {
            assert_eq!(Histogram::bucket_of(Histogram::bucket_bound(i)), i);
        }
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in [1u64, 2, 4, 100, 1000] {
            h.record_micros(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum_micros(), 1107);
        // p50 of {1,2,4,100,1000} = 4 → bucket bound 4.
        assert_eq!(h.quantile(0.5), Some(4));
        // p99 lands in the bucket holding 1000 → bound 1024.
        assert_eq!(h.quantile(0.99), Some(1024));
        assert_eq!(h.quantile(0.01), Some(1));
    }

    #[test]
    fn merged_histograms_equal_concatenated_stream() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in 0..100u64 {
            let target = if v % 2 == 0 { &a } else { &b };
            target.record_micros(v * 7);
            all.record_micros(v * 7);
        }
        a.merge_from(&b);
        assert_eq!(a.bucket_counts(), all.bucket_counts());
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum_micros(), all.sum_micros());
    }

    #[test]
    fn trace_builder_spans_tile_the_total() {
        let mut tb = TraceBuilder::new();
        tb.begin("analyze");
        std::thread::sleep(Duration::from_millis(2));
        tb.begin_with("rewrite", "2 aggregates".into());
        std::thread::sleep(Duration::from_millis(2));
        let (total, spans) = tb.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, "analyze");
        assert_eq!(spans[1].stage, "rewrite");
        assert_eq!(spans[1].detail, "2 aggregates");
        let sum: Duration = spans.iter().map(|s| s.duration).sum();
        // Contiguous spans: the sum matches the total to within clock jitter.
        let diff = total.checked_sub(sum).unwrap_or_else(|| sum - total);
        assert!(
            diff < Duration::from_millis(1),
            "span sum {sum:?} vs total {total:?}"
        );
        // Spans are contiguous: each starts where the previous ended.
        assert_eq!(spans[0].start + spans[0].duration, spans[1].start);
    }

    #[test]
    fn ring_keeps_most_recent_traces() {
        let ring = TraceRing::new(3);
        for i in 0..5 {
            ring.push(QueryTrace {
                seq: i,
                class: "query",
                sql: format!("q{i}"),
                total: Duration::from_micros(i),
                spans: Vec::new(),
                cached: false,
                exact: false,
                shed_tier: "none",
                backend_queries: 0,
                store_pages_read: 0,
                rows_returned: 0,
                rows_scanned: 0,
                slow: false,
            });
        }
        assert_eq!(ring.len(), 3);
        let recent = ring.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].sql, "q4");
        assert_eq!(recent[1].sql, "q3");
    }

    #[test]
    fn observe_assigns_sequence_and_feeds_histograms() {
        let obs = Obs::new(8);
        let trace = QueryTrace {
            seq: 0,
            class: "query",
            sql: "select 1".into(),
            total: Duration::from_micros(100),
            spans: vec![SpanRecord {
                stage: "rewrite",
                start: Duration::ZERO,
                duration: Duration::from_micros(40),
                detail: String::new(),
            }],
            cached: false,
            exact: false,
            shed_tier: "none",
            backend_queries: 1,
            store_pages_read: 0,
            rows_returned: 1,
            rows_scanned: 10,
            slow: true,
        };
        let stored = obs.observe(trace);
        assert_eq!(stored.seq, 1);
        assert_eq!(obs.class_count("query"), 1);
        assert_eq!(obs.class_histogram("query").count(), 1);
        assert_eq!(obs.stage_histogram("rewrite").count(), 1);
        assert_eq!(obs.slow_queries(), 1);
        assert_eq!(obs.ring().len(), 1);
    }

    #[test]
    fn exposition_is_well_formed() {
        let obs = Obs::new(8);
        obs.class_histogram("query").record_micros(50);
        obs.stage_histogram("rewrite").record_micros(10);
        let text = obs.render_prometheus(
            &[("verdict_cache_hits_total".into(), 3)],
            &[("verdict_queue_depth".into(), 0)],
        );
        assert!(text.contains("# TYPE verdict_statements_total counter"));
        assert!(text.contains("verdict_cache_hits_total 3"));
        assert!(text.contains("# TYPE verdict_queue_depth gauge"));
        assert!(
            text.contains("verdict_statement_duration_us_bucket{class=\"query\",le=\"+Inf\"} 1")
        );
        assert!(text.contains("verdict_statement_duration_us_sum{class=\"query\"} 50"));
        assert!(text.contains("verdict_statement_duration_us_count{class=\"query\"} 1"));
        assert!(text.contains("verdict_stage_duration_us_count{stage=\"rewrite\"} 1"));
        // Empty histogram series are omitted (the statement counters still
        // list every class).
        assert!(!text.contains("verdict_statement_duration_us_count{class=\"bypass\"}"));
        assert!(text.contains("verdict_statements_total{class=\"bypass\"} 0"));
        // Every histogram family has matching _sum and _count lines.
        let sums = text.matches("_sum{").count();
        let counts = text.matches("_count{").count();
        assert_eq!(sums, counts);
    }
}
