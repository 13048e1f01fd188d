//! The resumable block-scan executor behind progressive query execution.
//!
//! A [`ProgressiveScan`] executes a restricted class of aggregate queries —
//! a single base-table scan (optionally wrapped in one row-wise derived
//! table), a WHERE filter, and a grouped aggregation, which is exactly the
//! shape of VerdictDB's rewritten variational-subsampling ("mean") query —
//! **incrementally**: [`BlockScan::advance`] consumes the next block of base
//! rows (the FROM relation's frame for the block → filter →
//! group-key/argument evaluation, each element-wise and therefore identical
//! to evaluating the whole table at once) and pushes the evaluated rows
//! into a running [`AggState`] — the same aggregation core, and the same
//! `push`, the one-shot executor uses; [`BlockScan::snapshot`] is that state's
//! `snapshot` plus the shared post-aggregation projection.  The scan holds
//! no column that grows with the prefix: between calls it carries the
//! state (O(groups) for the moment-family aggregates) and the state's open
//! morsel (fewer than [`crate::parallel::MORSEL_ROWS`] evaluated rows).
//!
//! Two properties are load-bearing:
//!
//! * **prefix exactness** — a snapshot after `k` rows is *the* result the
//!   one-shot executor would produce for a table holding only those `k`
//!   rows: per-row work is element-wise (so block evaluation concatenates
//!   losslessly) and the state folds on the morsel grid of *evaluated rows
//!   counted from the start of the scan* (see [`AggState`]), which is the
//!   grid a one-shot run over those rows cuts — whatever the block size
//!   and however many rows the WHERE clause drops from each block;
//! * **final-frame bit-identity** — the last snapshot is the `k = n` case:
//!   the same folds and the same morsel-order merges as
//!   [`crate::Engine::execute_sql`] on the same statement, at any pool
//!   size, followed by the shared post-aggregation projection.
//!
//! The FROM relation is the bound view the one-shot executor builds for the
//! same statement ([`crate::exec::view`]; a plain table is the identity view
//! over every column): the base columns whose bare name the statement
//! spells are resolved once at open, and every block asks the source for
//! exactly those — `read_range(Some(cols), …)`, plus a `gather` of the
//! columns a wrapper's own WHERE does not read for the rows it keeps — so
//! an unnamed pass-through column of a wrapper is never read, sliced,
//! filtered or decoded.  A `*` / `alias.*` select list or a subquery keeps
//! every column, but no statement of the progressive class has either.
//!
//! The scan reads rows through a [`crate::persist::ScanSource`]
//! ([`crate::catalog::Catalog::scan_source`]): in-memory tables are
//! **pinned** at construction (`Arc` snapshot), so concurrent writes to the
//! catalog do not shift row ranges mid-stream; store-backed sources decode
//! columnar blocks from disk on demand — a cold-start `STREAM` never
//! materialises the whole scramble — and detect a concurrent rebuild with a
//! typed error instead of silently serving mixed versions.  Either way a
//! stream always answers over one consistent version of the data.
//!
//! Queries containing `rand()` anywhere are rejected (`Unsupported`):
//! replaying random draws across advance/snapshot interleavings cannot be
//! made deterministic.  VerdictDB's rewritten queries are rand-free — the
//! variational subsample id is derived from a uniform draw **stored in the
//! scramble** — so this costs nothing on the AQP path.

use crate::catalog::Catalog;
use crate::engine::{ExecStats, QueryResult};
use crate::error::{EngineError, EngineResult};
use crate::exec::aggregate::{collect_aggregate_calls, evaluate_inputs, AggState, AggregateItem};
use crate::exec::view::RowView;
use crate::exec::{predicate_mask_with, project_items, replace_in_projection};
use crate::parallel::ThreadPool;
use crate::table::Table;
use std::sync::Arc;
use std::time::{Duration, Instant};
use verdict_sql::ast::{Expr, Query, SelectItem, TableFactor};

/// A resumable cursor over a progressive aggregate execution.
///
/// Obtained from [`crate::Backend::open_block_scan`]; drive it with
/// [`advance`](Self::advance) and read refined results with
/// [`snapshot`](Self::snapshot).  A snapshot is always the exact answer for
/// the prefix of base rows consumed so far, and the snapshot taken once
/// [`done`](Self::done) is true is bit-identical to executing the statement
/// one-shot.
pub trait BlockScan: Send {
    /// Total base rows the scan will consume (pinned at open time).
    fn total_rows(&self) -> u64;

    /// Base rows consumed so far.
    fn rows_seen(&self) -> u64;

    /// True when every base row has been consumed.
    fn done(&self) -> bool;

    /// Consumes up to `max_rows` further base rows, returning how many were
    /// actually consumed (0 when the scan is done).
    fn advance(&mut self, max_rows: u64) -> EngineResult<u64>;

    /// The exact query result for the prefix consumed so far.  `rows_scanned`
    /// in the returned stats is the prefix size; `elapsed` is the cumulative
    /// time spent inside this scan.
    fn snapshot(&mut self) -> EngineResult<QueryResult>;
}

/// The engine's [`BlockScan`] implementation (see the [module
/// docs](self) for the execution model and its exactness guarantees).
pub struct ProgressiveScan {
    /// The row-wise half: base rows in, filtered (projected) frame out.
    frames: BlockFrames,
    /// Outer GROUP BY expressions.
    group_exprs: Vec<Expr>,
    /// The aggregate calls collected from the outer projection.
    aggs: Vec<AggregateItem>,
    /// Outer projection (over group keys and aggregates).
    projection: Vec<SelectItem>,
    /// Next base row to consume.
    pos: usize,
    /// The running aggregation over the evaluated rows of every block
    /// consumed so far.
    state: AggState,
    /// Cumulative wall-clock spent in `advance`/`snapshot`.
    spent: Duration,
}

/// Everything below the aggregation: the scanned relation and the outer
/// WHERE between a block of its rows and the frame the group keys and
/// arguments are evaluated over.
struct BlockFrames {
    /// The FROM relation, bound to its `Arc`-pinned or disk-backed base
    /// table: a row-wise derived table, or a plain scan as the identity view
    /// carrying the outer WHERE as its own.
    view: RowView,
    /// Outer WHERE over a derived table's frame.
    selection: Option<Expr>,
    pool: Arc<ThreadPool>,
}

/// The expression-side validation: no `rand()`, no window functions, no
/// subqueries anywhere in the query.
fn validate_expressions(query: &Query) -> EngineResult<()> {
    let mut offender: Option<&'static str> = None;
    verdict_sql::visitor::walk_query(query, &mut |e| {
        if offender.is_some() {
            return;
        }
        match e {
            Expr::Function(f)
                if f.name.eq_ignore_ascii_case("rand") || f.name.eq_ignore_ascii_case("random") =>
            {
                offender = Some("rand()")
            }
            Expr::Function(f) if f.over.is_some() => offender = Some("window function"),
            Expr::ScalarSubquery(_) | Expr::InSubquery { .. } | Expr::Exists { .. } => {
                offender = Some("subquery")
            }
            _ => {}
        }
    });
    match offender {
        Some(what) => Err(EngineError::Unsupported(format!(
            "progressive execution cannot replay {what} deterministically"
        ))),
        None => Ok(()),
    }
}

/// A query shape a [`ProgressiveScan`] cannot execute (the caller falls back
/// to one-shot execution).
fn unsupported(what: &str) -> EngineError {
    EngineError::Unsupported(format!("progressive execution does not support {what}"))
}

impl ProgressiveScan {
    /// Validates the query shape and opens a scan over the pinned input.
    /// Returns `Unsupported` for any shape outside the progressive class;
    /// callers treat that as "execute one-shot instead".
    pub fn try_new(
        catalog: &Catalog,
        query: &Query,
        pool: Arc<ThreadPool>,
    ) -> EngineResult<ProgressiveScan> {
        if query.distinct {
            return Err(unsupported("SELECT DISTINCT"));
        }
        if query.having.is_some() {
            return Err(unsupported("HAVING"));
        }
        if !query.order_by.is_empty() || query.limit.is_some() {
            return Err(unsupported("ORDER BY / LIMIT"));
        }
        let [twj] = query.from.as_slice() else {
            return Err(unsupported("multi-relation FROM"));
        };
        if !twj.joins.is_empty() {
            return Err(unsupported("joins"));
        }
        validate_expressions(query)?;

        // Bind the scanned relation: a plain table, or a row-wise derived
        // table around one.
        let open = |key: &str| catalog.scan_source(key);
        let (view, selection) = match &twj.relation {
            TableFactor::Table { name, alias } => {
                let binding = alias.as_deref().unwrap_or(name.base_name());
                let scan = RowView::scan(open(&name.key())?, binding, query.selection.clone());
                (scan, None)
            }
            TableFactor::Derived { subquery, alias } => {
                let view = RowView::bind(subquery, alias.as_deref(), query, open)?
                    .ok_or_else(|| unsupported("a derived table that is not row-wise"))?;
                (view, query.selection.clone())
            }
        };

        // Collect the outer aggregates; a query without any is not an
        // aggregation and takes the one-shot path.
        let mut out_exprs: Vec<&Expr> = Vec::new();
        for item in &query.projection {
            match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    return Err(unsupported("wildcard projections over an aggregation"));
                }
                _ => {}
            }
            if let Some(e) = item.expr() {
                out_exprs.push(e);
            }
        }
        let aggs = collect_aggregate_calls(&out_exprs)?;
        if aggs.is_empty() {
            return Err(unsupported("queries without aggregate functions"));
        }

        let frames = BlockFrames {
            view,
            selection,
            pool,
        };
        // A zero-row block fixes the schema the keys and arguments are
        // evaluated against, and surfaces an expression that does not
        // evaluate now rather than at the first `advance`.
        let empty = frames.frame(0, 0)?;
        let mut scan = ProgressiveScan {
            state: AggState::new(&query.group_by, &aggs, &empty.schema),
            frames,
            group_exprs: query.group_by.clone(),
            aggs,
            projection: query.projection.clone(),
            pos: 0,
            spent: Duration::ZERO,
        };
        scan.push_frame(&empty)?;
        Ok(scan)
    }

    /// Evaluates the group keys and aggregate arguments over a block frame
    /// and pushes the rows into the running state.
    fn push_frame(&mut self, frame: &Table) -> EngineResult<()> {
        let (keys, args) = evaluate_inputs(frame, &self.group_exprs, &self.aggs, &mut no_rand())?;
        self.state
            .push(keys, args, frame.num_rows(), &self.frames.pool);
        Ok(())
    }
}

impl BlockFrames {
    /// Builds the evaluated per-block frame for the contiguous base-row
    /// range `[start, start + len)`: the view's frame (scan of the columns
    /// the statement names → inner WHERE, late-materialised → computed
    /// items → alias), then the outer WHERE.  Every step is element-wise,
    /// so concatenating block frames equals building the frame for all rows
    /// at once.
    fn frame(&self, start: usize, len: usize) -> EngineResult<Table> {
        let mut rng = no_rand();
        let mut frame = self.view.frame(start, len, &mut rng, &self.pool)?;
        if let Some(pred) = &self.selection {
            let mask = predicate_mask_with(pred, &frame, &mut rng, &self.pool)?;
            frame = frame.filter_with(&mask, &self.pool);
        }
        Ok(frame)
    }
}

/// The rng handed to evaluation: validation rejected `rand()`, so any draw
/// is a bug — a fixed value keeps it deterministic even then.
fn no_rand() -> impl FnMut() -> f64 {
    || 0.5
}

impl BlockScan for ProgressiveScan {
    fn total_rows(&self) -> u64 {
        self.frames.view.num_rows() as u64
    }

    fn rows_seen(&self) -> u64 {
        self.pos as u64
    }

    fn done(&self) -> bool {
        self.pos >= self.frames.view.num_rows()
    }

    fn advance(&mut self, max_rows: u64) -> EngineResult<u64> {
        let t0 = Instant::now();
        let total = self.frames.view.num_rows();
        if self.pos >= total {
            return Ok(0);
        }
        let take = (max_rows.max(1)).min((total - self.pos) as u64) as usize;
        let start = self.pos;
        self.pos += take;
        let frame = self.frames.frame(start, take)?;
        if frame.num_rows() > 0 {
            self.push_frame(&frame)?;
        }
        self.spent += t0.elapsed();
        Ok(take as u64)
    }

    fn snapshot(&mut self) -> EngineResult<QueryResult> {
        let t0 = Instant::now();
        let aggregated = self.state.snapshot(&self.frames.pool)?;
        let projection = replace_in_projection(self.projection.clone(), &aggregated.replacements);
        let mut rng = no_rand();
        let table = project_items(&aggregated.table, &projection, &mut rng)?;
        self.spent += t0.elapsed();
        Ok(QueryResult {
            table,
            stats: ExecStats {
                rows_scanned: self.pos as u64,
                elapsed: self.spent,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Backend, Engine};
    use crate::parallel::MORSEL_ROWS;
    use crate::table::TableBuilder;
    use crate::value::Value;

    fn engine(rows: usize, seed: u64) -> Engine {
        let e = Engine::with_seed(seed);
        let t = TableBuilder::new()
            .int_column("k", (0..rows as i64).map(|i| i % 5).collect())
            .float_column(
                "price",
                (0..rows).map(|i| ((i * 31) % 997) as f64 / 9.7).collect(),
            )
            .float_column(
                "u",
                (0..rows).map(|i| ((i * 7) % 100) as f64 / 100.0).collect(),
            )
            .build()
            .unwrap();
        e.register_table("sales", t);
        e
    }

    fn assert_tables_bit_identical(a: &Table, b: &Table) {
        assert_eq!(a.num_rows(), b.num_rows());
        assert_eq!(a.num_columns(), b.num_columns());
        for r in 0..a.num_rows() {
            for c in 0..a.num_columns() {
                match (a.value_at(r, c), b.value_at(r, c)) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits(), "({r},{c}): {x} vs {y}")
                    }
                    (x, y) => assert_eq!(x, y, "({r},{c})"),
                }
            }
        }
    }

    const QUERY: &str = "SELECT vt.k AS k, 4 * sum((vt.price) / (0.5)) AS est, \
         CAST(1 + floor(vt.u * 4) AS BIGINT) AS sid, count(*) AS sz \
         FROM (SELECT *, price * 2 AS doubled FROM sales) AS vt \
         WHERE vt.price > 1.0 \
         GROUP BY vt.k, CAST(1 + floor(vt.u * 4) AS BIGINT)";

    #[test]
    fn final_snapshot_is_bit_identical_to_one_shot_execution() {
        for threads in [1usize, 4] {
            let rows = 2 * MORSEL_ROWS + 12_345;
            let e = engine(rows, 7);
            e.set_parallelism(threads);
            let one_shot = e.execute_sql(QUERY).unwrap();
            let mut scan = e.open_block_scan(QUERY).expect("progressive shape");
            let mut frames = 0;
            while !scan.done() {
                scan.advance(MORSEL_ROWS as u64).unwrap();
                let partial = scan.snapshot().unwrap();
                assert_eq!(partial.stats.rows_scanned, scan.rows_seen());
                frames += 1;
            }
            assert!(frames >= 3, "expected one frame per 64K block");
            let final_frame = scan.snapshot().unwrap();
            assert_tables_bit_identical(&final_frame.table, &one_shot.table);
            assert_eq!(final_frame.stats.rows_scanned, rows as u64);
        }
    }

    #[test]
    fn prefix_snapshot_equals_one_shot_over_the_prefix() {
        let rows = 10_000;
        let e = engine(rows, 9);
        let mut scan = e.open_block_scan(QUERY).unwrap();
        scan.advance(4_000).unwrap();
        let prefix = scan.snapshot().unwrap();
        // One-shot over a table holding only the first 4000 rows.
        let e2 = engine(4_000, 9);
        let one_shot = e2.execute_sql(QUERY).unwrap();
        assert_tables_bit_identical(&prefix.table, &one_shot.table);
    }

    #[test]
    fn unsupported_shapes_are_rejected() {
        let e = engine(100, 1);
        for sql in [
            "SELECT k FROM sales",                                          // no aggregate
            "SELECT count(*) FROM sales ORDER BY 1",                        // order by
            "SELECT count(*) FROM sales LIMIT 1",                           // limit
            "SELECT k, count(*) FROM sales GROUP BY k HAVING count(*) > 1", // having
            "SELECT count(*) FROM sales WHERE rand() < 0.5",                // rand
            "SELECT count(*) FROM sales a INNER JOIN sales b ON a.k = b.k", // join
            "SELECT * FROM sales",                                          // wildcard, no agg
            "SELECT sum(cnt) FROM (SELECT k, count(*) AS cnt FROM sales GROUP BY k) AS t", // agg inside derived
        ] {
            assert!(e.open_block_scan(sql).is_none(), "{sql}");
        }
        assert!(e
            .open_block_scan("SELECT k, avg(price) FROM sales GROUP BY k")
            .is_some());
    }

    #[test]
    fn scan_pins_the_input_against_concurrent_writes() {
        let e = engine(1_000, 3);
        let mut scan = e
            .open_block_scan("SELECT count(*) AS c FROM sales")
            .unwrap();
        assert_eq!(scan.total_rows(), 1_000);
        // Appending to the base table mid-stream must not change the scan.
        e.execute_sql("INSERT INTO sales SELECT * FROM sales")
            .unwrap();
        while !scan.done() {
            scan.advance(300).unwrap();
        }
        let result = scan.snapshot().unwrap();
        assert_eq!(result.table.value_at(0, 0), Value::Int(1_000));
    }

    #[test]
    fn late_materialized_scan_filter_matches_one_shot() {
        // A plain-table WHERE takes the late-materialized path (thin mask +
        // row gather); the answer must stay bit-identical to one-shot
        // execution at any pool size.
        const Q: &str = "SELECT k, sum(price) AS s, count(*) AS n FROM sales \
                         WHERE price > 50.0 AND u < 0.9 GROUP BY k";
        for threads in [1usize, 4] {
            let rows = MORSEL_ROWS + 4_321;
            let e = engine(rows, 13);
            e.set_parallelism(threads);
            let one_shot = e.execute_sql(Q).unwrap();
            let mut scan = e.open_block_scan(Q).expect("progressive shape");
            while !scan.done() {
                scan.advance(10_000).unwrap();
            }
            let last = scan.snapshot().unwrap();
            assert_tables_bit_identical(&last.table, &one_shot.table);
        }
    }

    #[test]
    fn empty_prefix_snapshot_is_well_formed() {
        let e = engine(1_000, 5);
        let mut scan = e
            .open_block_scan("SELECT k, sum(price) AS s FROM sales GROUP BY k")
            .unwrap();
        let empty = scan.snapshot().unwrap();
        assert_eq!(empty.table.num_rows(), 0);
        assert_eq!(empty.table.num_columns(), 2);
        assert_eq!(scan.rows_seen(), 0);
        assert!(!scan.done());
    }
}
