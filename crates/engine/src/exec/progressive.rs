//! The resumable block-scan executor behind progressive query execution.
//!
//! A [`ProgressiveScan`] executes a restricted class of aggregate queries —
//! a single base-table scan (optionally wrapped in one row-wise derived
//! table), a WHERE filter, and a grouped aggregation, which is exactly the
//! shape of VerdictDB's rewritten variational-subsampling ("mean") query —
//! **incrementally**: [`BlockScan::advance`] consumes the next block of base
//! rows (scan → derived projection → filter → group-key/argument
//! evaluation, each element-wise and therefore identical to evaluating the
//! whole table at once) and pushes the evaluated rows into a running
//! [`AggState`] — the same aggregation core, and the same `push`, the
//! one-shot executor uses; [`BlockScan::snapshot`] is that state's
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
//! The scan reads rows through a [`ScanSource`]
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
use crate::exec::{predicate_mask_with, project_items, replace_in_projection};
use crate::parallel::ThreadPool;
use crate::persist::ScanSource;
use crate::schema::Schema;
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

/// Everything below the aggregation: which table is scanned and the
/// element-wise steps (WHERE, derived projection) between a block of its
/// rows and the frame the group keys and arguments are evaluated over.
struct BlockFrames {
    /// The scanned base table: an `Arc`-pinned snapshot for in-memory
    /// tables, or a block-granular disk reader for persisted ones.
    input: Arc<dyn ScanSource>,
    /// `input`'s schema qualified with the inner scan binding.
    scan_schema: Schema,
    /// Row-wise derived-table projection wrapping the scan, if any.
    inner_projection: Option<Vec<SelectItem>>,
    /// WHERE of the derived table, applied before its projection.
    inner_selection: Option<Expr>,
    /// Alias the derived table is bound under in the outer query.
    derived_alias: Option<String>,
    /// Outer WHERE, applied to the (projected) frame.
    selection: Option<Expr>,
    /// Input-column indices read by the first predicate applied to the raw
    /// scan (the inner WHERE, or the outer WHERE when no derived projection
    /// intervenes).  When set, `frame` takes the **late-materialized**
    /// path: the predicate is evaluated over a thin frame holding only these
    /// columns, and full rows are gathered for the survivors alone.  `None`
    /// when there is no such predicate or a reference does not resolve; the
    /// block is then sliced wholesale.
    scan_filter_cols: Option<Vec<usize>>,
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

        // Resolve the scanned base table and the optional row-wise derived
        // wrapper around it.
        let (base, scan_binding, inner_projection, inner_selection, derived_alias) =
            match &twj.relation {
                TableFactor::Table { name, alias } => {
                    let binding = alias
                        .clone()
                        .unwrap_or_else(|| name.base_name().to_string());
                    (name.key(), binding, None, None, None)
                }
                TableFactor::Derived { subquery, alias } => {
                    let s = subquery.as_ref();
                    if s.distinct
                        || s.having.is_some()
                        || !s.order_by.is_empty()
                        || s.limit.is_some()
                        || !s.group_by.is_empty()
                    {
                        return Err(unsupported("a non-row-wise derived table"));
                    }
                    let [inner_twj] = s.from.as_slice() else {
                        return Err(unsupported("a derived table over several relations"));
                    };
                    if !inner_twj.joins.is_empty() {
                        return Err(unsupported("a derived table over a join"));
                    }
                    let TableFactor::Table {
                        name,
                        alias: inner_alias,
                    } = &inner_twj.relation
                    else {
                        return Err(unsupported("nested derived tables"));
                    };
                    let exprs: Vec<&Expr> = s.projection.iter().filter_map(|i| i.expr()).collect();
                    if !collect_aggregate_calls(&exprs)?.is_empty() {
                        return Err(unsupported("aggregates inside a derived table"));
                    }
                    let binding = inner_alias
                        .clone()
                        .unwrap_or_else(|| name.base_name().to_string());
                    (
                        name.key(),
                        binding,
                        Some(s.projection.clone()),
                        s.selection.clone(),
                        alias.clone(),
                    )
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

        let input = catalog.scan_source(&base)?;
        let scan_schema = input.schema().with_qualifier(&scan_binding);
        let scan_pred = inner_selection.as_ref().or_else(|| {
            if inner_projection.is_none() {
                query.selection.as_ref()
            } else {
                None
            }
        });
        let scan_filter_cols = scan_pred.and_then(|p| scan_filter_columns(p, &scan_schema));
        let frames = BlockFrames {
            input,
            scan_schema,
            inner_projection,
            inner_selection,
            derived_alias,
            selection: query.selection.clone(),
            scan_filter_cols,
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
    /// range `[start, start + len)`: scan slice → inner WHERE → inner
    /// projection → alias rebinding → outer WHERE.  Every step is
    /// element-wise, so concatenating block frames equals building the
    /// frame for all rows at once.
    ///
    /// The first predicate over the raw scan takes the late-materialized
    /// path when `scan_filter_cols` is set: only the columns it reads are
    /// sliced before masking, and the remaining columns are gathered for
    /// surviving rows alone.  `take` and `filter` select the same rows in
    /// the same order, so the frame is bit-identical to the wholesale
    /// slice-then-filter path.
    fn frame(&self, start: usize, len: usize) -> EngineResult<Table> {
        let mut rng = no_rand();
        let scan_pred = self.inner_selection.as_ref().or_else(|| {
            if self.inner_projection.is_none() {
                self.selection.as_ref()
            } else {
                None
            }
        });
        let mut frame = match (scan_pred, &self.scan_filter_cols) {
            (Some(pred), Some(cols)) => {
                let thin = Table {
                    schema: Schema::new(
                        cols.iter()
                            .map(|&i| self.scan_schema.fields[i].clone())
                            .collect(),
                    ),
                    columns: self.input.read_range(Some(cols), start, len)?,
                };
                let mask = predicate_mask_with(pred, &thin, &mut rng, &self.pool)?;
                let rows: Vec<usize> = mask.indices().iter().map(|&i| start + i).collect();
                Table {
                    schema: self.scan_schema.clone(),
                    columns: self.input.gather(&rows)?,
                }
            }
            (scan_pred, _) => {
                let mut frame = Table {
                    schema: self.scan_schema.clone(),
                    columns: self.input.read_range(None, start, len)?,
                };
                if let Some(pred) = scan_pred {
                    let mask = predicate_mask_with(pred, &frame, &mut rng, &self.pool)?;
                    frame = frame.filter_with(&mask, &self.pool);
                }
                frame
            }
        };
        if let Some(projection) = &self.inner_projection {
            let projected = project_items(&frame, projection, &mut rng)?;
            let schema = match &self.derived_alias {
                Some(a) => projected.schema.without_qualifiers().with_qualifier(a),
                None => projected.schema.without_qualifiers(),
            };
            frame = Table {
                schema,
                columns: projected.columns,
            };
            if let Some(pred) = &self.selection {
                let mask = predicate_mask_with(pred, &frame, &mut rng, &self.pool)?;
                frame = frame.filter_with(&mask, &self.pool);
            }
        }
        Ok(frame)
    }
}

/// Resolves the scan columns a predicate reads, for late materialization.
/// Returns `None` when the predicate reads no scan column or any reference
/// fails to resolve — the caller then slices whole blocks instead.
fn scan_filter_columns(pred: &Expr, scan_schema: &Schema) -> Option<Vec<usize>> {
    let mut cols: Vec<usize> = Vec::new();
    let mut failed = false;
    verdict_sql::visitor::walk_expr(pred, &mut |e| {
        if let Expr::Column { table, name } = e {
            match scan_schema.resolve(table.as_deref(), name) {
                Ok(i) => cols.push(i),
                Err(_) => failed = true,
            }
        }
    });
    if failed || cols.is_empty() {
        return None;
    }
    cols.sort_unstable();
    cols.dedup();
    Some(cols)
}

/// The rng handed to evaluation: validation rejected `rand()`, so any draw
/// is a bug — a fixed value keeps it deterministic even then.
fn no_rand() -> impl FnMut() -> f64 {
    || 0.5
}

impl BlockScan for ProgressiveScan {
    fn total_rows(&self) -> u64 {
        self.frames.input.num_rows() as u64
    }

    fn rows_seen(&self) -> u64 {
        self.pos as u64
    }

    fn done(&self) -> bool {
        self.pos >= self.frames.input.num_rows()
    }

    fn advance(&mut self, max_rows: u64) -> EngineResult<u64> {
        let t0 = Instant::now();
        let total = self.frames.input.num_rows();
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
    fn scan_filter_columns_are_precomputed() {
        let e = engine(1_000, 3);
        let open = |sql: &str| {
            let stmt = verdict_sql::parse_statement(sql).unwrap();
            let verdict_sql::ast::Statement::Query(q) = stmt else {
                panic!("not a query")
            };
            ProgressiveScan::try_new(
                e.catalog(),
                &q,
                Arc::new(ThreadPool::with_default_parallelism()),
            )
            .unwrap()
        };
        // Plain scan: the outer WHERE reads price (1) and u (2).
        let scan = open("SELECT count(*) AS c FROM sales WHERE price > 1 AND u < 0.5");
        assert_eq!(scan.frames.scan_filter_cols, Some(vec![1, 2]));
        // No predicate over the raw scan → wholesale slicing.
        let scan = open("SELECT k, sum(price) AS s FROM sales GROUP BY k");
        assert_eq!(scan.frames.scan_filter_cols, None);
        // A derived projection intervenes before the outer WHERE → the
        // predicate runs on the projected frame, not the raw scan.
        let scan =
            open("SELECT count(*) AS c FROM (SELECT price * 2 AS d FROM sales) AS t WHERE t.d > 1");
        assert_eq!(scan.frames.scan_filter_cols, None);
        // An inner WHERE is the scan predicate even under a derived wrapper.
        let scan = open(
            "SELECT count(*) AS c FROM \
             (SELECT price FROM sales WHERE u < 0.5) AS t WHERE t.price > 1",
        );
        assert_eq!(scan.frames.scan_filter_cols, Some(vec![2]));
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
