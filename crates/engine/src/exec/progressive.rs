//! The block scan: the one driver every `SELECT` runs through.
//!
//! A [`ProgressiveScan`] is a statement specialised once at **open** —
//! subqueries resolved and the FROM clause bound by
//! [`crate::exec::Executor`], aggregate and window calls collected and
//! replaced by their result columns in HAVING / the select list / ORDER BY —
//! whose only residual program is the per-block loop.
//! [`advance`](BlockScan::advance) consumes the next block of input rows:
//! the FROM relation's frame for the block → outer WHERE → group-key /
//! argument evaluation (each element-wise, hence identical to evaluating the
//! whole table at once) → a push into the running [`AggState`]; a statement
//! that does not aggregate keeps the filtered frame instead.  The **tail** —
//! window functions → HAVING → projection → ORDER BY → DISTINCT → LIMIT, over
//! the aggregated frame — is one function (`Tail::apply`) whoever reads an
//! answer: [`snapshot`](BlockScan::snapshot) over the state so far, `finish`
//! over the drained state.  One-shot execution
//! ([`crate::exec::Executor::execute_query`]) is open → advance until done
//! (or, under a `LIMIT` no later row can change, until its rows are in) →
//! finish; a stream ([`crate::Backend::open_block_scan`]) is the same struct
//! boxed, advanced and snapshotted by its caller.  An aggregating scan holds
//! no column that grows with the prefix: between calls it carries the state
//! (O(groups) for the moment-family aggregates) and the state's open morsel
//! (fewer than [`MORSEL_ROWS`] evaluated rows).
//!
//! Two properties are load-bearing:
//!
//! * **prefix exactness** — a snapshot after `k` rows is *the* answer to the
//!   statement over a table holding only those `k` rows, tail included:
//!   per-row work is element-wise (so block evaluation concatenates
//!   losslessly) and the state folds on the morsel grid of *evaluated rows
//!   counted from the start of the scan* (see [`AggState`]) — whatever the
//!   block size and however many rows the WHERE clause drops from each block;
//! * **block-size independence** — the `k = n` case: a drain yields the same
//!   table, bit for bit, at any block size and pool size, which is why the
//!   one-shot drain may pick its own (`ProgressiveScan::drain`).
//!
//! **Input.**  A lone plain table or row-wise derived table is a bound view
//! ([`crate::exec::view`]; a plain table is the identity view over every
//! column): the base columns whose bare name the statement spells
//! are resolved once at open, and every block asks the source for exactly
//! those — `read_range(Some(cols), …)`, plus a `gather` of the columns a
//! view's own WHERE does not read for the rows it keeps.  Everything else
//! (joins, any other derived table, a table-less select) was built at open
//! and is consumed as a single block.  A view reads rows through a
//! [`crate::persist::ScanSource`]: one-shot execution pins the materialised
//! table (`Catalog::get`); a stream takes
//! [`crate::catalog::Catalog::scan_source`] — in-memory tables are
//! **pinned** (`Arc` snapshot), so concurrent writes to the catalog do not
//! shift row ranges mid-stream, and store-backed sources decode columnar
//! blocks from disk on demand (a cold-start `STREAM` never materialises the
//! whole scramble) and detect a concurrent rebuild with a typed error instead
//! of silently serving mixed versions.
//!
//! **`rand()`.**  The order of draws is part of a seeded answer (scramble
//! builds are `rand()` statements), and it is "every row through the WHERE,
//! then every survivor through the next expression, …": a statement that
//! calls `rand()` anywhere is therefore drained as one block.  The
//! [`BlockScan`] entry refuses it — replaying draws across advance /
//! snapshot interleavings cannot be made deterministic — along with
//! subqueries and window functions (same reason: they are evaluated outside
//! the per-block loop), a FROM clause that is not one view (a prefix of a
//! join is not a join of prefixes) and a statement without aggregates
//! (nothing refines).  VerdictDB's rewritten queries are rand-free — the
//! variational subsample id is derived from a uniform draw **stored in the
//! scramble** — so this costs nothing on the AQP path.

use crate::catalog::Catalog;
use crate::column::Column;
use crate::engine::{ExecStats, QueryResult};
use crate::error::{EngineError, EngineResult};
use crate::exec::aggregate::{
    collect_aggregate_calls, evaluate_inputs, replace_exprs, AggState, AggregateItem,
};
use crate::exec::from_clause::{row_local, typed_schema};
use crate::exec::view::RowView;
use crate::exec::window::{collect_window_calls, eval_window};
use crate::exec::{default_output_name, draws, lone_view, predicate_mask_with};
use crate::expr::{eval_expr, infer_type, EvalContext};
use crate::kernels::group_rows_with;
use crate::parallel::{ThreadPool, MORSEL_ROWS};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::DataType;
use std::sync::Arc;
use std::time::{Duration, Instant};
use verdict_sql::ast::{Expr, FunctionCall, OrderByItem, Query, SelectItem};

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

/// The engine's [`BlockScan`] implementation, and its one-shot executor (see
/// the [module docs](self) for the execution model and its guarantees).
pub struct ProgressiveScan {
    input: Input,
    /// Rows of `input`, fixed at open.
    total: usize,
    /// Next input row to consume.
    pos: usize,
    /// WHERE over the input's frame.
    selection: Option<Expr>,
    group_exprs: Vec<Expr>,
    /// The aggregate calls of the select list, HAVING and ORDER BY.
    aggs: Vec<AggregateItem>,
    body: Body,
    tail: Tail,
    /// True when the statement calls `rand()`.
    draws: bool,
    pool: Arc<ThreadPool>,
    /// Cumulative wall-clock spent in `advance`/`snapshot`.
    spent: Duration,
}

/// What a scan reads.
pub(crate) enum Input {
    /// A lone plain table or row-wise derived table, read block by block.
    View(Box<RowView>),
    /// A FROM clause built at open; consumed whole, as one block.
    Built(Table),
}

/// What a scan has consumed so far.
enum Body {
    /// The running aggregation over the evaluated rows of every block.
    Aggregate(AggState),
    /// No aggregation: the filtered frames, appended.
    Rows(Table),
}

/// Everything after the aggregation, with aggregate calls, GROUP BY
/// expressions and window calls already replaced by references to the
/// columns that hold them.
struct Tail {
    /// Window call `i` is evaluated into [`window_column`]`(i)`.
    windows: Vec<FunctionCall>,
    having: Option<Expr>,
    projection: Vec<SelectItem>,
    order_by: Vec<OrderByItem>,
    distinct: bool,
    limit: Option<u64>,
}

/// Blocks the one-shot drain takes per pool worker, in morsels: large
/// enough that per-block work (expression dispatch, fork-join) is noise,
/// small enough that a scan's transient frame stays a few morsels per worker.
/// (`rand_statements_draw_in_whole_input_order` in tests/properties.rs sizes
/// its table past one such block of a serial pool.)
const DRAIN_MORSELS_PER_WORKER: usize = 8;

/// The frame column window call `i` of a statement is evaluated into.
fn window_column(i: usize) -> String {
    format!("__win{i}")
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
            e if e.is_rand() => offender = Some("rand()"),
            Expr::Function(f) if f.over.is_some() => offender = Some("window function"),
            e if e.subquery().is_some() => offender = Some("subquery"),
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

/// A query shape the [`BlockScan`] entry refuses (the caller falls back to
/// one-shot execution).
fn unsupported(what: &str) -> EngineError {
    EngineError::Unsupported(format!("progressive execution does not support {what}"))
}

/// The rng handed to a stream's evaluation: validation rejected `rand()`, so
/// any draw is a bug — a fixed value keeps it deterministic even then.
fn no_rand() -> impl FnMut() -> f64 {
    || 0.5
}

impl Input {
    fn num_rows(&self) -> usize {
        match self {
            Input::View(view) => view.num_rows(),
            Input::Built(table) => table.num_rows(),
        }
    }

    /// The frame of rows `[start, start + len)`; a built frame is handed
    /// over whole (or empty, for its schema).
    fn frame(
        &mut self,
        start: usize,
        len: usize,
        rng: &mut dyn FnMut() -> f64,
        pool: &ThreadPool,
    ) -> EngineResult<Table> {
        match self {
            Input::View(view) => view.frame(start, len, rng, pool),
            Input::Built(table) if len == 0 => Ok(Table::empty(table.schema.clone())),
            Input::Built(table) => Ok(std::mem::take(table)),
        }
    }
}

impl ProgressiveScan {
    /// Opens the [`BlockScan`] over a statement: the thin, validating open.
    /// Returns `Unsupported` for any shape a stream must refuse (see the
    /// [module docs](self)); callers treat that as "execute one-shot
    /// instead".
    pub fn try_new(
        catalog: &Catalog,
        query: &Query,
        pool: Arc<ThreadPool>,
    ) -> EngineResult<ProgressiveScan> {
        validate_expressions(query)?;
        let view = lone_view(query, &|key| catalog.scan_source(key))?
            .ok_or_else(|| unsupported("a FROM clause that is not one scanned relation"))?;
        let scan = ProgressiveScan::open(Input::View(view), query, pool, &mut no_rand())?;
        if scan.aggs.is_empty() {
            return Err(unsupported("queries without aggregate functions"));
        }
        Ok(scan)
    }

    /// Opens a scan of `input` — the bound FROM clause of `query` — for the
    /// rest of the statement, subqueries already resolved.
    pub(crate) fn open(
        input: Input,
        query: &Query,
        pool: Arc<ThreadPool>,
        rng: &mut dyn FnMut() -> f64,
    ) -> EngineResult<ProgressiveScan> {
        let tail = Tail {
            windows: Vec::new(),
            having: query.having.clone(),
            projection: query.projection.clone(),
            order_by: query.order_by.clone(),
            distinct: query.distinct,
            limit: query.limit,
        };
        let aggs = collect_aggregate_calls(&tail.exprs())?;
        let total = input.num_rows();
        let mut scan = ProgressiveScan {
            total,
            pos: 0,
            selection: query.selection.clone(),
            group_exprs: query.group_by.clone(),
            aggs,
            body: Body::Rows(Table::default()),
            tail,
            draws: draws(query),
            spent: Duration::ZERO,
            pool,
            input,
        };
        // A zero-row block fixes the schema the keys and arguments are
        // evaluated against, and surfaces an expression that does not
        // evaluate now rather than at the first `advance`.
        let empty = scan.frame(0, 0, rng)?;
        if !scan.group_exprs.is_empty() || !scan.aggs.is_empty() {
            let state = AggState::new(&scan.group_exprs, &scan.aggs, &empty.schema);
            scan.tail.replace(state.replacements());
            scan.body = Body::Aggregate(state);
        }
        scan.tail.windows = collect_window_calls(&scan.tail.exprs());
        let columns = scan
            .tail
            .windows
            .iter()
            .enumerate()
            .map(|(i, call)| (Expr::Function(call.clone()), Expr::col(window_column(i))));
        scan.tail.replace(&columns.collect::<Vec<_>>());
        scan.consume(empty, rng)?;
        Ok(scan)
    }

    /// One-shot execution: consumes the input and answers, with the number
    /// of input rows it read.
    ///
    /// The block size is worked out from the input, never set: the whole
    /// input when the statement calls `rand()` — draw order is part of the
    /// answer — or was built at open, else a few morsels per pool worker (a
    /// multiple of `parallelism × MORSEL_ROWS`, so every push hands the fold
    /// a morsel per worker).  The grid rule of [`AggState`] makes the answer
    /// independent of it.
    ///
    /// A `LIMIT n` that may end the scan ([`Self::stop_at`]) stops it once
    /// `n` rows have survived the WHERE: the first block is `n` rows, each
    /// later one twice the last, up to the drain block — at most about
    /// twice the rows the answer needs are read.
    pub(crate) fn drain(mut self, rng: &mut dyn FnMut() -> f64) -> EngineResult<(Table, usize)> {
        let full = match self.input {
            Input::View(_) if !self.draws => {
                DRAIN_MORSELS_PER_WORKER * self.pool.parallelism() * MORSEL_ROWS
            }
            _ => self.total,
        };
        let stop = self.stop_at()?;
        let mut block = stop.map_or(full, |n| n.min(full));
        let short = |body: &Body, n| matches!(body, Body::Rows(rows) if rows.num_rows() < n);
        while self.pos < self.total && stop.is_none_or(|n| short(&self.body, n)) {
            self.advance_with(block as u64, rng)?;
            block = (2 * block).min(full);
        }
        let frame = match self.body {
            Body::Aggregate(state) => state.finish(&self.pool)?,
            Body::Rows(rows) => rows,
        };
        Ok((self.tail.apply(frame, rng, &self.pool)?, self.pos))
    }

    /// The `n` of a `LIMIT n` that ends the one-shot drain once `n` rows
    /// have survived the WHERE.  The statement must keep its rows whole — no
    /// aggregation, one view read block by block — with nothing in its tail
    /// but the projection and the LIMIT (no HAVING, ORDER BY, DISTINCT or
    /// window function), call no `rand()`, and have a WHERE, select list and
    /// view that are [`row_local`]: reading fewer rows then changes no
    /// value, no type and no error, so the first `n` rows kept are the
    /// answer's.
    fn stop_at(&self) -> EngineResult<Option<usize>> {
        let (Input::View(view), Body::Rows(kept), Some(n)) =
            (&self.input, &self.body, self.tail.limit)
        else {
            return Ok(None);
        };
        let tail = &self.tail;
        if self.draws
            || tail.having.is_some()
            || !tail.order_by.is_empty()
            || tail.distinct
            || !tail.windows.is_empty()
        {
            return Ok(None);
        }
        // the rows kept so far (none, at open) hold the frame's column types
        let frame = typed_schema(kept);
        let items = tail.projection.iter().filter_map(SelectItem::expr);
        let local = items.chain(&self.selection).all(|e| row_local(e, &frame));
        Ok((local && view.row_local()?).then_some(n as usize))
    }

    /// The filtered frame of input rows `[start, start + len)`: the input's
    /// frame, then the outer WHERE.  Every step is element-wise, so
    /// concatenating block frames equals building the frame for all rows at
    /// once.
    fn frame(
        &mut self,
        start: usize,
        len: usize,
        rng: &mut dyn FnMut() -> f64,
    ) -> EngineResult<Table> {
        let mut frame = self.input.frame(start, len, rng, &self.pool)?;
        if let Some(pred) = &self.selection {
            let mask = predicate_mask_with(pred, &frame, rng, &self.pool)?;
            frame = frame.filter_with(&mask, &self.pool);
        }
        Ok(frame)
    }

    /// Takes a filtered frame into the body: group keys and aggregate
    /// arguments evaluated and pushed into the running state, or the rows
    /// themselves kept.
    fn consume(&mut self, frame: Table, rng: &mut dyn FnMut() -> f64) -> EngineResult<()> {
        match &mut self.body {
            Body::Aggregate(state) => {
                let (keys, args) = evaluate_inputs(&frame, &self.group_exprs, &self.aggs, rng)?;
                state.push(keys, args, frame.num_rows(), &self.pool);
            }
            Body::Rows(rows) if rows.num_rows() == 0 => *rows = frame,
            Body::Rows(rows) => rows.append(&frame)?,
        }
        Ok(())
    }

    /// [`BlockScan::advance`], drawing `rand()` from `rng`.  A built input
    /// is one block whatever `max_rows` says.
    fn advance_with(&mut self, max_rows: u64, rng: &mut dyn FnMut() -> f64) -> EngineResult<u64> {
        let rest = self.total - self.pos;
        let take = match self.input {
            Input::View(_) => rest.min(max_rows.max(1) as usize),
            Input::Built(_) => rest,
        };
        let start = self.pos;
        self.pos += take;
        if take > 0 {
            let frame = self.frame(start, take, rng)?;
            if frame.num_rows() > 0 {
                self.consume(frame, rng)?;
            }
        }
        Ok(take as u64)
    }
}

impl Tail {
    /// The expressions evaluated after the aggregation.
    fn exprs(&self) -> Vec<&Expr> {
        let items = self.projection.iter().filter_map(|item| item.expr());
        let order = self.order_by.iter().map(|o| &o.expr);
        items.chain(&self.having).chain(order).collect()
    }

    /// Swaps every sub-expression equal to a replacement key for the column
    /// reference that now holds its value.
    fn replace(&mut self, replacements: &[(Expr, Expr)]) {
        let items = self.projection.iter_mut().filter_map(SelectItem::expr_mut);
        let order = self.order_by.iter_mut().map(|o| &mut o.expr);
        for e in items.chain(&mut self.having).chain(order) {
            replace_exprs(e, replacements);
        }
    }

    /// The one tail: window functions over the (aggregated) `frame` →
    /// HAVING → projection → ORDER BY → DISTINCT → LIMIT.
    fn apply(
        &self,
        mut frame: Table,
        rng: &mut dyn FnMut() -> f64,
        pool: &ThreadPool,
    ) -> EngineResult<Table> {
        for (i, call) in self.windows.iter().enumerate() {
            let col = eval_window(call, &frame, rng)?;
            let dt = if col.null_count() == col.len() {
                DataType::Float
            } else {
                col.data_type()
            };
            frame.schema.fields.push(Field::new(&window_column(i), dt));
            frame.columns.push(col);
        }
        if let Some(h) = &self.having {
            let mask = predicate_mask_with(h, &frame, rng, pool)?;
            frame = frame.filter_with(&mask, pool);
        }
        let mut output = project_items(&frame, &self.projection, rng)?;

        // A bare ORDER BY key that names an output column (an alias) sorts
        // by it; any other key is evaluated over the pre-projection frame.
        if !self.order_by.is_empty() && output.num_rows() > 1 {
            let mut keys: Vec<Column> = Vec::with_capacity(self.order_by.len());
            for o in &self.order_by {
                let alias = match &o.expr {
                    Expr::Column { table: None, name } => output.schema.index_of(name),
                    _ => None,
                };
                keys.push(match alias {
                    Some(idx) => output.columns[idx].clone(),
                    None => eval_expr(&o.expr, &mut EvalContext { table: &frame, rng })?,
                });
            }
            let mut indices: Vec<usize> = (0..output.num_rows()).collect();
            indices.sort_by(|&a, &b| {
                for (k, o) in keys.iter().zip(&self.order_by) {
                    let ord = k.cmp_rows(a, b);
                    let ord = if o.asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            output = output.take(&indices);
        }
        if self.distinct {
            // the grouper's representatives are exactly the first occurrence
            // of each distinct row, in order
            let grouping = group_rows_with(&output.columns, output.num_rows(), pool);
            output = output.take(&grouping.representatives);
        }
        if let Some(limit) = self.limit {
            output = output.limit(limit as usize);
        }
        Ok(output)
    }
}

/// Evaluates a projection list over a frame into an output table (wildcards
/// expand to the frame's non-helper columns; expressions evaluate per row).
fn project_items(
    frame: &Table,
    projection: &[SelectItem],
    rng: &mut dyn FnMut() -> f64,
) -> EngineResult<Table> {
    let mut fields: Vec<Field> = Vec::new();
    let mut columns: Vec<Column> = Vec::new();
    for (i, item) in projection.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for (f, c) in frame.schema.fields.iter().zip(frame.columns.iter()) {
                    // hide internal helper columns from `SELECT *`
                    if f.name.starts_with("__") {
                        continue;
                    }
                    fields.push(f.clone());
                    columns.push(c.clone());
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                for (f, c) in frame.schema.fields.iter().zip(frame.columns.iter()) {
                    if f.qualifier.as_deref() == Some(q.to_ascii_lowercase().as_str()) {
                        fields.push(f.clone());
                        columns.push(c.clone());
                    }
                }
            }
            SelectItem::Expr(e) | SelectItem::ExprWithAlias { expr: e, .. } => {
                let col = eval_expr(e, &mut EvalContext { table: frame, rng })?;
                let name = match item.alias() {
                    Some(a) => a.to_string(),
                    None => default_output_name(e, i),
                };
                fields.push(Field::new(&name, infer_type(e, &frame.schema)));
                columns.push(col);
            }
        }
    }
    Table::new(Schema::new(fields), columns)
}

impl BlockScan for ProgressiveScan {
    fn total_rows(&self) -> u64 {
        self.total as u64
    }

    fn rows_seen(&self) -> u64 {
        self.pos as u64
    }

    fn done(&self) -> bool {
        self.pos >= self.total
    }

    fn advance(&mut self, max_rows: u64) -> EngineResult<u64> {
        let t0 = Instant::now();
        let taken = self.advance_with(max_rows, &mut no_rand());
        self.spent += t0.elapsed();
        taken
    }

    fn snapshot(&mut self) -> EngineResult<QueryResult> {
        let t0 = Instant::now();
        let frame = match &self.body {
            Body::Aggregate(state) => state.snapshot(&self.pool)?,
            Body::Rows(rows) => rows.clone(),
        };
        let table = self.tail.apply(frame, &mut no_rand(), &self.pool)?;
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

    /// Drains `sql` in blocks of `block` rows and returns the last snapshot.
    fn drained(e: &Engine, sql: &str, block: u64) -> Table {
        let mut scan = e.open_block_scan(sql).expect("progressive shape");
        while !scan.done() {
            scan.advance(block).unwrap();
        }
        assert_eq!(scan.rows_seen(), scan.total_rows());
        scan.snapshot().unwrap().table
    }

    #[test]
    fn draining_at_any_block_size_yields_identical_tables() {
        // One-shot and stream are the same code: `execute_sql` is one more
        // drain, at a block size of its own choosing.
        for threads in [1usize, 4] {
            let rows = 2 * MORSEL_ROWS + 12_345;
            let e = engine(rows, 7);
            e.set_parallelism(threads);
            let whole = drained(&e, QUERY, rows as u64);
            for block in [300, MORSEL_ROWS as u64] {
                assert_tables_bit_identical(&drained(&e, QUERY, block), &whole);
            }
            assert_tables_bit_identical(&e.execute_sql(QUERY).unwrap().table, &whole);

            // One row at a time (over the first rows only, to keep the test
            // quick), a snapshot per block along the way.
            let mut scan = e.open_block_scan(QUERY).unwrap();
            for seen in 1..=500 {
                scan.advance(1).unwrap();
                assert_eq!(scan.snapshot().unwrap().stats.rows_scanned, seen);
            }
            scan.advance(rows as u64).unwrap();
            let last = scan.snapshot().unwrap();
            assert_eq!(last.stats.rows_scanned, rows as u64);
            assert_tables_bit_identical(&last.table, &whole);
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
    fn the_entry_refuses_only_what_it_must() {
        let e = engine(1_000, 1);
        for sql in [
            "SELECT k FROM sales",                                          // no aggregate
            "SELECT * FROM sales",                                          // wildcard, no agg
            "SELECT count(*) FROM sales WHERE rand() < 0.5",                // rand
            "SELECT count(*) FROM sales a INNER JOIN sales b ON a.k = b.k", // join
            "SELECT count(*) FROM sales a, sales b",                        // two relations
            "SELECT count(*) FROM sales WHERE k IN (SELECT k FROM sales)",  // subquery
            "SELECT k, sum(count(*)) OVER () FROM sales GROUP BY k",        // window
            "SELECT sum(cnt) FROM (SELECT k, count(*) AS cnt FROM sales GROUP BY k) AS t", // agg inside derived
        ] {
            assert!(e.open_block_scan(sql).is_none(), "{sql}");
        }
        // The tail streams like everything else: every snapshot is the
        // statement's answer over the prefix, the last one the one-shot answer.
        for sql in [
            "SELECT k, avg(price) FROM sales GROUP BY k",
            "SELECT count(*) FROM sales ORDER BY 1",
            "SELECT count(*) FROM sales LIMIT 1",
            "SELECT k, count(*) FROM sales GROUP BY k HAVING count(*) > 1",
            "SELECT k, sum(price) AS s FROM sales GROUP BY k ORDER BY s DESC LIMIT 2",
            "SELECT DISTINCT count(*) FROM sales GROUP BY k",
        ] {
            let one_shot = e.execute_sql(sql).unwrap().table;
            assert_tables_bit_identical(&drained(&e, sql, 300), &one_shot);
        }
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
        // A view's own WHERE takes the late-materialized path (thin mask +
        // row gather); the answer must stay bit-identical to one-shot
        // execution at any pool size.
        const Q: &str = "SELECT k, sum(price) AS s, count(*) AS n \
                         FROM (SELECT * FROM sales WHERE price > 50.0 AND u < 0.9) AS t \
                         GROUP BY k";
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
