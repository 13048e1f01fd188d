//! The Answer Rewriter: turns the raw result of the rewritten query back into
//! the answer of the *original* query, together with error estimates.
//!
//! The rewritten (mean-like) query returns one row per (output group,
//! subsample id) with per-subsample unbiased estimates of every aggregate.
//! Following variational subsampling (Theorem 2), the point estimate for a
//! group is the subsample-size-weighted mean of the per-subsample estimates
//! (which algebraically equals the full-sample Horvitz–Thompson estimate),
//! and the error is derived from the spread of the per-subsample estimates,
//! scaled by `sqrt(avg(ns_i)) / sqrt(n_g)` exactly as in the paper's Query 9.
//!
//! Assembly is compile-once, run-columnar:
//!
//! * **compile** — when the rewriter builds a [`RewriteOutput`] it also
//!   builds an `AnswerProgram`: every aggregate output expression and the
//!   HAVING predicate with their aggregate calls resolved to dense slot
//!   numbers and their group columns to key positions, plus the per-expression
//!   facts assembly branches on.  A `STREAM` compiles once for all its frames;
//! * **group** — `MeanCells` clusters the mean result's rows by the
//!   `verdict_g*` columns with the engine's own grouping kernel, once; the
//!   feasibility check of [`crate::pipeline`] reads the same clustering;
//! * **evaluate** — each expression is evaluated over whole columns with the
//!   engine's expression kernels (so HAVING has the backend's three-valued
//!   semantics): once over the per-group point estimates, and, for the error
//!   of a mean-like expression, once over every (group, subsample) row;
//! * **reduce** — the per-group sums (`combine_estimates`, `stddev`, the
//!   scaling above) walk each group's rows in result-row order, so every
//!   floating-point sum is taken in one fixed order and an answer is a pure
//!   function of the result tables.

use crate::config::VerdictConfig;
use crate::error::{VerdictError, VerdictResult};
use crate::rewrite::{columns, AggClass, OutputColumn, QueryAnalysis, RewriteOutput};
use crate::stats::{normal_critical_value, stddev, weighted_mean};
use std::borrow::Cow;
use verdict_engine::kernels::{self, group_rows};
use verdict_engine::{Bitmap, Column, ColumnData, DataType, Field, Schema, Table, Value};
use verdict_sql::ast::{BinaryOp, Expr, Literal, UnaryOp};
use verdict_sql::dialect::GenericDialect;
use verdict_sql::printer::print_expr;

/// The estimate and error bound reported for one aggregate column of one group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggEstimate {
    /// The unbiased point estimate.
    pub estimate: f64,
    /// Half-width of the confidence interval at the configured confidence level.
    pub error: f64,
}

impl AggEstimate {
    /// Relative error (error / |estimate|).
    ///
    /// A degenerate point estimate (near zero, NaN, or infinite) cannot
    /// anchor a relative error; returning 0 there would claim *perfect*
    /// accuracy for exactly the groups whose estimates are most suspect, so
    /// the relative error is `f64::INFINITY` instead.  The one exception is
    /// an estimate of 0 with an error bound of 0: every subsample agreed on
    /// exactly zero, which is an exact answer, not a degenerate one — an
    /// infinite value there would force the accuracy contract to rerun
    /// queries the estimator already answered exactly.  Averaging callers
    /// must skip non-finite entries (see [`ColumnErrorSummary`]).
    pub fn relative_error(&self) -> f64 {
        if !self.estimate.is_finite() || self.estimate.abs() < f64::EPSILON {
            if self.estimate == 0.0 && self.error.abs() < f64::EPSILON {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.error / self.estimate.abs()
        }
    }
}

/// Error summary for one aggregate output column across all groups.
///
/// `mean_relative_error` averages the *finite* per-group relative errors
/// (degenerate groups would otherwise swamp the mean with infinity), while
/// `max_relative_error` keeps the worst value including `f64::INFINITY`, so
/// the accuracy contract still triggers an exact rerun when any group's
/// estimate is degenerate.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnErrorSummary {
    /// Output column name the summary refers to.
    pub column: String,
    /// Mean of the finite per-group relative errors.
    pub mean_relative_error: f64,
    /// Worst per-group relative error (may be `f64::INFINITY`).
    pub max_relative_error: f64,
}

/// The assembled approximate answer.
#[derive(Debug, Clone)]
pub struct AssembledAnswer {
    /// The result table in the shape of the original query (plus optional
    /// `<column>_err` columns when configured).
    pub table: Table,
    /// Per-aggregate-column error summaries.
    pub errors: Vec<ColumnErrorSummary>,
}

// ---------------------------------------------------------------------------
// Compile: once per statement, ahead of the data
// ---------------------------------------------------------------------------

/// What assembly needs to know about a statement, resolved once when the
/// statement is rewritten instead of once per result cell.
#[derive(Debug, Clone)]
pub(crate) struct AnswerProgram {
    /// One entry per `analysis.aggregates[slot]`.
    slots: Vec<Slot>,
    /// Names of the `verdict_g<i>` result columns, one per GROUP BY expression.
    group_columns: Vec<String>,
    /// Parallel to `analysis.output`.
    outputs: Vec<OutputProgram>,
    /// `None` without a HAVING clause, and for a predicate outside the
    /// evaluator's class, which filters nothing.
    having: Option<SlotExpr>,
}

#[derive(Debug, Clone)]
enum OutputProgram {
    /// The key of the i-th GROUP BY expression.
    Key(usize),
    /// An expression over aggregates; `None` when it is outside the
    /// evaluator's class, which makes the column NULL.
    Aggregate(Option<SlotExpr>),
}

/// One aggregate call of the statement.
#[derive(Debug, Clone)]
struct Slot {
    /// The rewritten-result column carrying it.
    column: String,
    class: AggClass,
    /// `count` / `sum`: the per-subsample estimates are Horvitz–Thompson
    /// totals (see [`combine_estimates`]).
    total: bool,
}

/// An output expression or HAVING predicate over aggregate slots and group
/// keys.  Expressions using anything else (a scalar function, `CASE`, a
/// subquery, a non-group column) are outside the evaluator's class and have
/// no `SlotExpr`.
#[derive(Debug, Clone)]
struct SlotExpr {
    root: Node,
    /// Every mentioned aggregate is mean-like: the error comes from the
    /// spread of the expression evaluated per subsample (so ratios like
    /// `sum(a)/sum(b)` get a proper variational error estimate).
    all_mean_like: bool,
    /// The expression is exactly one aggregate call, whose own error it
    /// reports when the per-subsample spread is not available.
    single_call: Option<usize>,
}

#[derive(Debug, Clone)]
enum Node {
    /// The aggregate in this slot.
    Slot(usize),
    /// The key of the i-th GROUP BY expression.
    Key(usize),
    Literal(Value),
    Negate(Box<Node>),
    Not(Box<Node>),
    Binary(Box<Node>, BinaryOp, Box<Node>),
}

impl AnswerProgram {
    /// Resolves every aggregate output expression and the HAVING predicate
    /// of `analysis` against its aggregate set.
    pub(crate) fn compile(analysis: &QueryAnalysis) -> AnswerProgram {
        let slots = analysis
            .aggregates
            .iter()
            .map(|spec| {
                let prefix = match spec.class {
                    AggClass::MeanLike => columns::EST_PREFIX,
                    AggClass::Distinct => columns::DISTINCT_PREFIX,
                    AggClass::Extreme => columns::EXTREME_PREFIX,
                };
                Slot {
                    column: format!("{prefix}{}", spec.index),
                    class: spec.class,
                    total: matches!(spec.call.name.as_str(), "count" | "sum"),
                }
            })
            .collect();
        let compiler = Compiler {
            analysis,
            calls: analysis
                .aggregates
                .iter()
                .map(|spec| print_expr(&Expr::Function(spec.call.clone()), &GenericDialect))
                .collect(),
        };
        AnswerProgram {
            slots,
            group_columns: (0..analysis.group_by.len())
                .map(|i| format!("{}{i}", columns::GROUP_PREFIX))
                .collect(),
            outputs: analysis
                .output
                .iter()
                .map(|out| match out {
                    OutputColumn::Aggregate { expr, .. } => {
                        OutputProgram::Aggregate(compiler.compile(expr))
                    }
                    OutputColumn::GroupKey { index, .. } => OutputProgram::Key(*index),
                })
                .collect(),
            having: analysis.having.as_ref().and_then(|h| compiler.compile(h)),
        }
    }

    /// Result columns holding per-subsample `count` / `sum` totals — the
    /// ones a stream rescales while it has seen only a prefix.
    pub(crate) fn total_columns(&self) -> impl Iterator<Item = &str> {
        self.slots
            .iter()
            .filter(|s| s.class == AggClass::MeanLike && s.total)
            .map(|s| s.column.as_str())
    }
}

struct Compiler<'a> {
    analysis: &'a QueryAnalysis,
    /// Printed SQL of each aggregate call: the analysis told calls apart by
    /// this text, so matching on it finds exactly the call it registered.
    calls: Vec<String>,
}

impl Compiler<'_> {
    fn compile(&self, expr: &Expr) -> Option<SlotExpr> {
        let mut slots: Vec<usize> = Vec::new();
        let root = self.node(expr, &mut slots)?;
        let class_of = |slot: &usize| self.analysis.aggregates[*slot].class;
        Some(SlotExpr {
            root,
            all_mean_like: slots.iter().all(|s| class_of(s) == AggClass::MeanLike),
            single_call: match slots[..] {
                [slot] if is_single_call(expr) => Some(slot),
                _ => None,
            },
        })
    }

    fn slot_of(&self, expr: &Expr) -> Option<usize> {
        match expr {
            Expr::Function(_) => {
                let text = print_expr(expr, &GenericDialect);
                self.calls.iter().position(|call| *call == text)
            }
            Expr::Nested(inner) => self.slot_of(inner),
            _ => None,
        }
    }

    fn key_of(&self, expr: &Expr) -> Option<usize> {
        let Expr::Column { name, .. } = expr else {
            return None;
        };
        self.analysis.group_by.iter().position(
            |g| matches!(g, Expr::Column { name: gname, .. } if gname.eq_ignore_ascii_case(name)),
        )
    }

    /// Aggregate calls and group columns are recognised at every node first;
    /// what is left must be arithmetic, comparison or boolean logic over
    /// them.  `slots` collects the aggregates the expression mentions.
    fn node(&self, expr: &Expr, slots: &mut Vec<usize>) -> Option<Node> {
        if let Some(slot) = self.slot_of(expr) {
            if !slots.contains(&slot) {
                slots.push(slot);
            }
            return Some(Node::Slot(slot));
        }
        if let Some(key) = self.key_of(expr) {
            return Some(Node::Key(key));
        }
        Some(match expr {
            Expr::Literal(l) => Node::Literal(match l {
                Literal::Null => Value::Null,
                Literal::Boolean(b) => Value::Bool(*b),
                // estimates are doubles; integer literals join them as such
                Literal::Integer(i) => Value::Float(*i as f64),
                Literal::Float(f) => Value::Float(*f),
                Literal::String(s) => Value::Str(s.clone()),
            }),
            Expr::Nested(e) => self.node(e, slots)?,
            Expr::UnaryOp { op, expr } => match op {
                UnaryOp::Minus => Node::Negate(Box::new(self.node(expr, slots)?)),
                UnaryOp::Plus => self.node(expr, slots)?,
                UnaryOp::Not => Node::Not(Box::new(self.node(expr, slots)?)),
            },
            Expr::BinaryOp { left, op, right } if *op != BinaryOp::Concat => Node::Binary(
                Box::new(self.node(left, slots)?),
                *op,
                Box::new(self.node(right, slots)?),
            ),
            _ => return None,
        })
    }
}

fn is_single_call(expr: &Expr) -> bool {
    matches!(expr, Expr::Function(_))
        || matches!(expr, Expr::Nested(inner) if is_single_call(inner))
}

// ---------------------------------------------------------------------------
// Evaluate: whole columns at a time
// ---------------------------------------------------------------------------

/// The columns a compiled expression reads, all `rows` long: one per
/// aggregate slot (`None` when this frame does not carry the slot) and one
/// per GROUP BY key.
struct Frame<'a> {
    slots: Vec<Option<Cow<'a, Column>>>,
    keys: &'a [Column],
    rows: usize,
}

/// Evaluates `node` over every row of `frame` with the engine's expression
/// kernels: NULL operands, division by zero and three-valued logic behave as
/// they do on the backend.  `None` when the operand types do not fit.
fn eval<'a>(node: &Node, frame: &'a Frame<'a>) -> Option<Cow<'a, Column>> {
    Some(match node {
        Node::Slot(slot) => Cow::Borrowed(frame.slots[*slot].as_deref()?),
        Node::Key(key) => Cow::Borrowed(&frame.keys[*key]),
        Node::Literal(value) => Cow::Owned(Column::repeat(value, frame.rows)),
        Node::Negate(inner) => Cow::Owned(kernels::negate(eval(inner, frame)?.as_ref())),
        Node::Not(inner) => Cow::Owned(kernels::bool_not(eval(inner, frame)?.as_ref())),
        Node::Binary(left, op, right) => {
            let (left, right) = (eval(left, frame)?, eval(right, frame)?);
            Cow::Owned(kernels::binary_op(&left, *op, &right).ok()?)
        }
    })
}

/// The numeric view of a column as a `Float64` column: floats are borrowed
/// in place, integers and booleans are converted, strings are NULL.
fn float_column(col: &Column) -> Cow<'_, Column> {
    match col.data() {
        ColumnData::Float64(_) => Cow::Borrowed(col),
        _ => Cow::Owned(Column::from_opt_f64(
            (0..col.len()).map(|i| col.f64_at(i)).collect(),
        )),
    }
}

// ---------------------------------------------------------------------------
// Group: the mean result, clustered once
// ---------------------------------------------------------------------------

/// The mean query's result clustered into output groups.  Built once per
/// statement (once per frame of a stream) and read by both the feasibility
/// check and assembly.
pub(crate) struct MeanCells<'a> {
    table: &'a Table,
    /// The `verdict_g*` columns.
    keys: Cow<'a, [Column]>,
    /// First result row of each group; groups are numbered by first
    /// appearance.
    representatives: Vec<usize>,
    /// Result rows ordered by group, rows of one group in result order:
    /// group `g` owns `rows[starts[g]..starts[g + 1]]`.
    rows: Vec<usize>,
    starts: Vec<usize>,
    /// `verdict_sub_size` per result row (0 when NULL).
    sizes: Vec<f64>,
}

impl<'a> MeanCells<'a> {
    /// Clusters `table`, the result of `rewrite.mean_query`.
    pub(crate) fn new(rewrite: &RewriteOutput, table: &'a Table) -> VerdictResult<MeanCells<'a>> {
        let sizes = column(table, columns::SUB_SIZE)?;
        let keys = key_columns(table, &rewrite.program.group_columns)?;
        let grouping = group_rows(&keys, table.num_rows());
        // Counting sort of the rows by group id keeps result order within a
        // group.
        let mut starts = vec![0usize; grouping.num_groups() + 1];
        for &gid in &grouping.gids {
            starts[gid + 1] += 1;
        }
        for g in 0..grouping.num_groups() {
            starts[g + 1] += starts[g];
        }
        let mut next = starts.clone();
        let mut rows = vec![0usize; table.num_rows()];
        for (row, &gid) in grouping.gids.iter().enumerate() {
            rows[next[gid]] = row;
            next[gid] += 1;
        }
        Ok(MeanCells {
            table,
            keys,
            representatives: grouping.representatives,
            rows,
            starts,
            sizes: (0..table.num_rows())
                .map(|row| sizes.f64_at(row).unwrap_or(0.0))
                .collect(),
        })
    }

    fn num_groups(&self) -> usize {
        self.representatives.len()
    }

    /// The result rows of group `g` (none for a group only a side result
    /// has).
    fn rows_of(&self, g: usize) -> &[usize] {
        match self.starts.get(g + 1) {
            Some(&end) => &self.rows[self.starts[g]..end],
            None => &[],
        }
    }

    /// The AQP feasibility test: a query whose subsample cells average fewer
    /// than [`VerdictConfig::min_rows_per_group`] rows per group produces
    /// useless estimates, so it is answered exactly instead (the paper's
    /// behaviour for tq-3, tq-8, tq-15).  A scalar query is one group, so a
    /// filter that leaves it no sampled row falls back too rather than
    /// answering zero rows.
    pub(crate) fn feasible(&self, config: &VerdictConfig) -> bool {
        let total: f64 = self.sizes.iter().sum();
        total / self.num_groups().max(1) as f64 >= config.min_rows_per_group
    }
}

fn required_column(table: &Table, name: &str) -> VerdictResult<usize> {
    table
        .schema
        .index_of(name)
        .ok_or_else(|| VerdictError::Answer(format!("rewritten result is missing column {name}")))
}

fn column<'t>(table: &'t Table, name: &str) -> VerdictResult<&'t Column> {
    Ok(&table.columns[required_column(table, name)?])
}

/// The group-key columns of a rewritten result.  The rewriter projects the
/// group expressions first, so they are normally one slice of the table.
fn key_columns<'a>(table: &'a Table, names: &[String]) -> VerdictResult<Cow<'a, [Column]>> {
    let idxs = names
        .iter()
        .map(|name| required_column(table, name))
        .collect::<VerdictResult<Vec<usize>>>()?;
    Ok(match idxs.first() {
        Some(&first) if idxs.iter().enumerate().all(|(i, &c)| c == first + i) => {
            Cow::Borrowed(&table.columns[first..first + idxs.len()])
        }
        _ => Cow::Owned(idxs.iter().map(|&c| table.columns[c].clone()).collect()),
    })
}

// ---------------------------------------------------------------------------
// Assemble
// ---------------------------------------------------------------------------

/// Assembles the final answer from the raw results of the rewritten parts.
pub fn assemble(
    rewrite: &RewriteOutput,
    mean_result: Option<&Table>,
    distinct_result: Option<&Table>,
    extreme_result: Option<&Table>,
    config: &VerdictConfig,
) -> VerdictResult<AssembledAnswer> {
    let cells = mean_result
        .map(|table| MeanCells::new(rewrite, table))
        .transpose()?;
    assemble_cells(
        rewrite,
        cells.as_ref(),
        distinct_result,
        extreme_result,
        config,
    )
}

/// How per-subsample estimates of one aggregate are combined into the group's
/// point estimate.
///
/// Count and sum estimates (`total`) are `b`-scaled HT totals of disjoint
/// subsamples, so summing them and dividing by the total number of
/// subsamples `b` recovers exactly the full-sample HT estimate (subsamples
/// that happened to receive no tuples contribute an implicit 0).  Ratio and
/// scale-free statistics (avg, variance, stddev, median, quantile) are
/// combined as a subsample-size-weighted mean.
fn combine_estimates(total: bool, values: &[f64], weights: &[f64], b: u64) -> f64 {
    if total {
        values.iter().sum::<f64>() / b.max(1) as f64
    } else {
        weighted_mean(values, weights)
    }
}

/// The output groups of a statement: the mean result's groups in
/// first-appearance order, then the groups only a side result has.
struct Groups {
    /// One column per GROUP BY expression, one row per group.
    keys: Vec<Column>,
    count: usize,
    /// The group of each row of the count-distinct result, which like the
    /// extreme result carries one row per group.
    distinct: Vec<usize>,
    /// The group of each row of the extreme result.
    extreme: Vec<usize>,
}

fn cluster_groups(
    program: &AnswerProgram,
    cells: Option<&MeanCells<'_>>,
    distinct_result: Option<&Table>,
    extreme_result: Option<&Table>,
) -> VerdictResult<Groups> {
    let mean_groups = cells.map_or(0, MeanCells::num_groups);
    let mut keys: Vec<Column> = match cells {
        Some(c) => c.keys.iter().map(|k| k.take(&c.representatives)).collect(),
        None => vec![Column::nulls(0); program.group_columns.len()],
    };
    if distinct_result.is_none() && extreme_result.is_none() {
        return Ok(Groups {
            keys,
            count: mean_groups,
            distinct: Vec::new(),
            extreme: Vec::new(),
        });
    }
    // Side rows find their group by one more clustering, over
    // [mean representatives, distinct rows, extreme rows]: the mean groups
    // keep their numbers and unseen keys are numbered after them.
    let mut universe = mean_groups;
    for table in [distinct_result, extreme_result].into_iter().flatten() {
        let side_keys = key_columns(table, &program.group_columns)?;
        for (key, side) in keys.iter_mut().zip(side_keys.iter()) {
            key.append(side);
        }
        universe += table.num_rows();
    }
    let grouping = group_rows(&keys, universe);
    let distinct_end = mean_groups + distinct_result.map_or(0, Table::num_rows);
    Ok(Groups {
        keys: keys
            .iter()
            .map(|k| k.take(&grouping.representatives))
            .collect(),
        count: grouping.num_groups(),
        distinct: grouping.gids[mean_groups..distinct_end].to_vec(),
        extreme: grouping.gids[distinct_end..].to_vec(),
    })
}

/// Per-group point estimates of one aggregate slot.
struct SlotEstimates {
    /// `Float64`, NULL where the group has no estimate of this aggregate.
    estimate: Column,
    /// The aggregate's own error bound (0 where there is no estimate).
    error: Vec<f64>,
}

impl SlotEstimates {
    fn new(groups: usize, known: impl IntoIterator<Item = (usize, AggEstimate)>) -> SlotEstimates {
        let mut estimate = vec![0.0f64; groups];
        let mut error = vec![0.0f64; groups];
        let mut valid = Bitmap::new_null(groups);
        for (g, e) in known {
            estimate[g] = e.estimate;
            error[g] = e.error;
            valid.set(g);
        }
        SlotEstimates {
            estimate: Column::from_parts(ColumnData::Float64(estimate), Some(valid)),
            error,
        }
    }
}

/// The frame of per-group point estimates.
fn estimates_frame<'a>(
    estimates: &'a [SlotEstimates],
    keys: &'a [Column],
    rows: usize,
) -> Frame<'a> {
    Frame {
        slots: estimates
            .iter()
            .map(|e| Some(Cow::Borrowed(&e.estimate)))
            .collect(),
        keys,
        rows,
    }
}

/// Scratch space for one group's per-subsample values and subsample sizes.
#[derive(Default)]
struct Spread {
    values: Vec<f64>,
    weights: Vec<f64>,
}

impl Spread {
    /// Loads group `g`'s cells of `col` (a `Float64` column over the mean
    /// result's rows) that are non-NULL and pass `keep`, in result-row
    /// order — the order every sum over them is then taken in.
    fn load(&mut self, cells: &MeanCells<'_>, g: usize, col: &Column, keep: impl Fn(f64) -> bool) {
        let data = col.as_f64s().expect("a float_column view");
        self.values.clear();
        self.weights.clear();
        for &row in cells.rows_of(g) {
            if col.is_valid(row) && keep(data[row]) {
                self.values.push(data[row]);
                self.weights.push(cells.sizes[row]);
            }
        }
    }

    /// Half-width of the confidence interval implied by the spread of the
    /// loaded values.
    fn error(&self, z: f64) -> f64 {
        let total: f64 = self.weights.iter().sum();
        let avg_size = total / self.weights.len() as f64;
        let sigma = if self.values.len() > 1 && total > 0.0 {
            stddev(&self.values) * avg_size.sqrt() / total.sqrt()
        } else {
            0.0
        };
        z * sigma
    }
}

/// [`assemble`] over an already clustered mean result.
pub(crate) fn assemble_cells(
    rewrite: &RewriteOutput,
    cells: Option<&MeanCells<'_>>,
    distinct_result: Option<&Table>,
    extreme_result: Option<&Table>,
    config: &VerdictConfig,
) -> VerdictResult<AssembledAnswer> {
    let analysis = &rewrite.analysis;
    let program = &rewrite.program;
    let z = normal_critical_value(config.confidence);
    let distinct = distinct_result.zip(rewrite.distinct_query.as_ref());
    let distinct_result = distinct.map(|(table, _)| table);
    let groups = cluster_groups(program, cells, distinct_result, extreme_result)?;
    let mut spread = Spread::default();

    // --- per-aggregate point estimates --------------------------------------
    // The mean-like estimate columns, read as doubles: the slots of the
    // per-subsample frame.
    let cell_slots: Vec<Option<Cow<'_, Column>>> = program
        .slots
        .iter()
        .map(|slot| match (cells, slot.class) {
            (Some(c), AggClass::MeanLike) => Ok(Some(float_column(column(c.table, &slot.column)?))),
            _ => Ok(None),
        })
        .collect::<VerdictResult<_>>()?;
    let mut estimates: Vec<SlotEstimates> = Vec::with_capacity(program.slots.len());
    for ((slot, cell_slot), spec) in program
        .slots
        .iter()
        .zip(&cell_slots)
        .zip(&analysis.aggregates)
    {
        let mut known: Vec<(usize, AggEstimate)> = Vec::new();
        match slot.class {
            AggClass::MeanLike => {
                if let (Some(c), Some(col)) = (cells, cell_slot) {
                    for g in 0..c.num_groups() {
                        spread.load(c, g, col, |_| true);
                        if spread.values.is_empty() {
                            continue;
                        }
                        let b = rewrite.subsample_count;
                        let estimate =
                            combine_estimates(slot.total, &spread.values, &spread.weights, b);
                        let error = spread.error(z);
                        known.push((g, AggEstimate { estimate, error }));
                    }
                }
            }
            AggClass::Distinct => {
                if let Some((table, (_, scales))) = distinct {
                    let col = column(table, &slot.column)?;
                    let scale = *scales.get(&spec.index).unwrap_or(&1.0);
                    for (row, &g) in groups.distinct.iter().enumerate() {
                        let raw = col.f64_at(row).unwrap_or(0.0);
                        // Binomial-style error: the observed distinct count is roughly
                        // Binomial(D, 1/scale), so sd(D̂) ≈ scale * sqrt(raw * (1 - 1/scale)).
                        let error = if scale > 1.0 {
                            z * scale * (raw * (1.0 - 1.0 / scale)).max(0.0).sqrt()
                        } else {
                            0.0
                        };
                        let estimate = raw * scale;
                        known.push((g, AggEstimate { estimate, error }));
                    }
                }
            }
            AggClass::Extreme => {
                if let Some(table) = extreme_result {
                    let col = column(table, &slot.column)?;
                    for (row, &g) in groups.extreme.iter().enumerate() {
                        let estimate = col.f64_at(row).unwrap_or(f64::NAN);
                        let error = 0.0;
                        known.push((g, AggEstimate { estimate, error }));
                    }
                }
            }
        }
        estimates.push(SlotEstimates::new(groups.count, known));
    }

    // --- HAVING, on the estimated aggregates --------------------------------
    // A group stays when the predicate is true; false and SQL NULL drop it.
    let mut keys = groups.keys;
    let mut selected: Vec<usize> = (0..groups.count).collect();
    if let Some(having) = &program.having {
        let frame = estimates_frame(&estimates, &keys, groups.count);
        if let Some(pred) = eval(&having.root, &frame) {
            selected.retain(|&g| pred.bool_at(g) == Some(true));
        }
    }
    if selected.len() < groups.count {
        keys = keys.iter().map(|k| k.take(&selected)).collect();
        for e in &mut estimates {
            e.estimate = e.estimate.take(&selected);
            e.error = selected.iter().map(|&g| e.error[g]).collect();
        }
    }

    // --- output columns -------------------------------------------------------
    let group_frame = estimates_frame(&estimates, &keys, selected.len());
    let cell_frame = cells.map(|c| Frame {
        slots: cell_slots,
        keys: &c.keys,
        rows: c.table.num_rows(),
    });
    let mut fields: Vec<Field> = Vec::new();
    let mut out_columns: Vec<Column> = Vec::new();
    let mut error_summaries: Vec<ColumnErrorSummary> = Vec::new();
    for (out, output) in analysis.output.iter().zip(&program.outputs) {
        let name = out.name();
        let expr = match output {
            // Group keys keep the type the backend returned them with.
            OutputProgram::Key(index) => {
                fields.push(Field::new(name, keys[*index].data_type()));
                out_columns.push(keys[*index].clone());
                continue;
            }
            OutputProgram::Aggregate(expr) => expr,
        };
        // Point estimate: the expression over the per-aggregate point
        // estimates (for a bare aggregate, that aggregate's).
        let point = expr.as_ref().and_then(|e| eval(&e.root, &group_frame));
        let point = point.as_deref().map(float_column);
        // Error: the spread of the expression over the subsamples, when
        // every aggregate in it has per-subsample estimates.
        let per_cell = match (&cell_frame, expr) {
            (Some(frame), Some(e)) if e.all_mean_like && point.is_some() => eval(&e.root, frame),
            _ => None,
        };
        let per_cell = per_cell.as_deref().map(float_column);
        let single_call = expr.as_ref().and_then(|e| e.single_call);
        let answers: Vec<Option<AggEstimate>> = selected
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                let estimate = point.as_ref()?.f64_at(i)?;
                // Without a spread (one usable subsample, or none), a bare
                // aggregate reports its own error bound.
                let mut error = single_call.map_or(0.0, |slot| estimates[slot].error[i]);
                if let (Some(c), Some(col)) = (cells, &per_cell) {
                    spread.load(c, g, col, |v| v.is_finite());
                    if spread.values.len() > 1 {
                        error = spread.error(z);
                    }
                }
                Some(AggEstimate { estimate, error })
            })
            .collect();

        fields.push(Field::new(name, DataType::Float));
        out_columns.push(Column::from_opt_f64(
            answers.iter().map(|a| a.map(|a| a.estimate)).collect(),
        ));
        if config.include_error_columns {
            fields.push(Field::new(&format!("{name}_err"), DataType::Float));
            out_columns.push(Column::from_opt_f64(
                answers.iter().map(|a| a.map(|a| a.error)).collect(),
            ));
        }
        let rel_errors: Vec<f64> = answers
            .iter()
            .flatten()
            .map(AggEstimate::relative_error)
            .collect();
        if !rel_errors.is_empty() {
            let finite: Vec<f64> = rel_errors
                .iter()
                .copied()
                .filter(|e| e.is_finite())
                .collect();
            let mean_relative_error = if finite.is_empty() {
                f64::INFINITY
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            };
            error_summaries.push(ColumnErrorSummary {
                column: name.to_string(),
                mean_relative_error,
                max_relative_error: rel_errors.iter().cloned().fold(0.0, f64::max),
            });
        }
    }

    let mut table = Table::new(Schema::new(fields), out_columns)
        .map_err(|e| VerdictError::Answer(e.to_string()))?;

    // ORDER BY and LIMIT, evaluated on the assembled output.
    if !analysis.order_by.is_empty() && table.num_rows() > 1 {
        let mut indices: Vec<usize> = (0..table.num_rows()).collect();
        let sort_keys: Vec<Option<usize>> = analysis
            .order_by
            .iter()
            .map(|o| order_key_column(&o.expr, analysis, &table))
            .collect();
        indices.sort_by(|&a, &b| {
            for (key, item) in sort_keys.iter().zip(analysis.order_by.iter()) {
                if let Some(col) = key {
                    let ord = table.columns[*col].cmp_rows(a, b);
                    let ord = if item.asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
            }
            std::cmp::Ordering::Equal
        });
        table = table.take(&indices);
    }
    if let Some(limit) = analysis.limit {
        table = table.limit(limit as usize);
    }

    Ok(AssembledAnswer {
        table,
        errors: error_summaries,
    })
}

/// Finds the output column an ORDER BY expression refers to (by alias, by
/// matching the projection expression, or by group column name).
fn order_key_column(expr: &Expr, analysis: &QueryAnalysis, table: &Table) -> Option<usize> {
    if let Expr::Column { name, .. } = expr {
        if let Some(idx) = table.schema.index_of(name) {
            return Some(idx);
        }
    }
    for (i, out) in analysis.output.iter().enumerate() {
        let matches = match out {
            OutputColumn::Aggregate { expr: e, .. } => e == expr,
            OutputColumn::GroupKey { index, .. } => analysis.group_by.get(*index) == Some(expr),
        };
        if matches {
            return table.schema.index_of(out.name()).or(Some(i));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compiles `sql` and evaluates its HAVING predicate (or, without one,
    /// its first output expression) over one group whose aggregate slots
    /// hold `slots` and whose single key holds `key`.
    fn eval_one(sql: &str, slots: &[f64], key: Value) -> Option<Value> {
        let Ok(verdict_sql::ast::Statement::Query(query)) = verdict_sql::parse_statement(sql)
        else {
            panic!("not a query: {sql}");
        };
        let analysis = crate::rewrite::analyze_query(&query).unwrap();
        let program = AnswerProgram::compile(&analysis);
        let expr = match (&analysis.having, &program.outputs[0]) {
            (Some(_), _) => program.having.as_ref()?,
            (None, OutputProgram::Aggregate(expr)) => expr.as_ref()?,
            (None, OutputProgram::Key(_)) => panic!("no expression in {sql}"),
        };
        let keys = [Column::repeat(&key, 1)];
        let frame = Frame {
            slots: slots
                .iter()
                .map(|v| Some(Cow::Owned(Column::from_f64(vec![*v]))))
                .collect(),
            keys: &keys,
            rows: 1,
        };
        eval(&expr.root, &frame).map(|col| col.value_at(0))
    }

    #[test]
    fn compiled_evaluator_handles_arithmetic_over_slots() {
        let v = eval_one(
            "SELECT 100 * sum(a) / sum(b) FROM t",
            &[30.0, 60.0],
            Value::Null,
        );
        assert!((v.unwrap().as_f64().unwrap() - 50.0).abs() < 1e-9);
        // division by zero is NULL, as on the backend
        let v = eval_one("SELECT sum(a) / sum(b) FROM t", &[30.0, 0.0], Value::Null);
        assert_eq!(v, Some(Value::Null));
    }

    #[test]
    fn compiled_evaluator_handles_comparisons() {
        let sql = "SELECT count(*) FROM t HAVING count(*) > 10 AND 2 + 2 = 4";
        assert_eq!(eval_one(sql, &[50.0], Value::Null), Some(Value::Bool(true)));
        assert_eq!(eval_one(sql, &[5.0], Value::Null), Some(Value::Bool(false)));
    }

    #[test]
    fn compiled_predicates_are_three_valued() {
        let sql = "SELECT k, count(*) FROM t GROUP BY k HAVING k > 1";
        assert_eq!(
            eval_one(sql, &[1.0], Value::Int(2)),
            Some(Value::Bool(true))
        );
        assert_eq!(
            eval_one(sql, &[1.0], Value::Int(1)),
            Some(Value::Bool(false))
        );
        // unknown is NULL (the group is dropped), not "could not evaluate"
        assert_eq!(eval_one(sql, &[1.0], Value::Null), Some(Value::Null));
        let sql = "SELECT k, count(*) FROM t GROUP BY k HAVING k > 1 OR count(*) > 0";
        assert_eq!(eval_one(sql, &[1.0], Value::Null), Some(Value::Bool(true)));
        // an expression outside the evaluator's class has no program at all
        let sql = "SELECT k, count(*) FROM t GROUP BY k HAVING round(count(*)) > 0";
        assert_eq!(eval_one(sql, &[1.0], Value::Int(2)), None);
    }

    #[test]
    fn relative_error_is_infinite_for_degenerate_estimate() {
        // A zero estimate must not claim perfect accuracy — it is the case
        // where the estimate is least trustworthy.
        let e = AggEstimate {
            estimate: 0.0,
            error: 5.0,
        };
        assert!(e.relative_error().is_infinite());
        let e = AggEstimate {
            estimate: f64::NAN,
            error: 5.0,
        };
        assert!(e.relative_error().is_infinite());
        // ... but an exact zero (zero estimate AND zero error) is not
        // degenerate and must not trigger accuracy-contract reruns
        let e = AggEstimate {
            estimate: 0.0,
            error: 0.0,
        };
        assert_eq!(e.relative_error(), 0.0);
        let e = AggEstimate {
            estimate: 100.0,
            error: 5.0,
        };
        assert!((e.relative_error() - 0.05).abs() < 1e-12);
    }
}
