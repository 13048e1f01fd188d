//! Vectorized hash aggregation: one running state, one caller.
//!
//! The executor collects the unique aggregate calls appearing in a query and
//! evaluates their argument expressions over each block's frame as typed
//! columns (`evaluate_inputs`).  The evaluated rows go into an [`AggState`]
//! — a group table plus one accumulator per aggregate — which is the only
//! fold in the engine: the block scan
//! ([`crate::exec::progressive::ProgressiveScan`]) pushes block by block,
//! snapshots per streamed frame and finishes a one-shot drain.  Each 64K-row
//! morsel of evaluated rows is clustered by the canonical-hash grouper
//! (`kernels::group_range`) and folded
//! over the typed argument slices in one pass per aggregate — no per-cell
//! [`Value`] boxing on the SUM/COUNT/AVG/MIN/MAX hot path that VerdictDB's
//! rewrites lean on — and the per-morsel partial states merge in morsel
//! order, so the result does not depend on the pool size or on how the rows
//! were cut into pushes.
//!
//! The resulting "aggregated frame" exposes the group keys under their
//! original column names (so later projection expressions still resolve) and
//! each aggregate under a synthetic `__aggN` column; [`replace_exprs`] swaps
//! the original aggregate calls for references to those columns.

use crate::approx::HyperLogLog;
use crate::column::{Column, ColumnData};
use crate::error::{EngineError, EngineResult};
use crate::expr::{eval_expr, infer_type, EvalContext};
use crate::functions::fnv1a_hash_value;
use crate::kernels::{group_range, GroupTable};
use crate::parallel::{ThreadPool, MORSEL_ROWS};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::{DataType, KeyValue, Value};
use std::collections::HashMap;
use std::collections::HashSet;
use std::ops::Range;
use verdict_sql::ast::{Expr, FunctionCall, Literal};
use verdict_sql::dialect::GenericDialect;
use verdict_sql::printer::print_expr;

/// The aggregate functions supported by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    /// `count(*)` — counts rows including NULLs.
    CountStar,
    /// `count(expr)` — counts non-NULL values.
    Count,
    /// `count(DISTINCT expr)` — counts distinct non-NULL values.
    CountDistinct,
    /// `sum(expr)`.
    Sum,
    /// `avg(expr)`.
    Avg,
    /// `min(expr)`.
    Min,
    /// `max(expr)`.
    Max,
    /// Sample variance.
    Variance,
    /// Sample standard deviation.
    Stddev,
    /// Exact median over the group's values.
    Median,
    /// Exact quantile at the given fraction (0..1).
    Quantile(f64),
    /// HyperLogLog-based approximate distinct count (full scan, Table 2 baseline).
    ApproxCountDistinct,
    /// Approximate median (full collect; models Redshift `approx_median`).
    ApproxMedian,
}

impl AggFunc {
    /// Maps a parsed function call to an aggregate kind, when it is an aggregate.
    pub fn from_call(call: &FunctionCall) -> EngineResult<Option<AggFunc>> {
        if !verdict_sql::ast::is_aggregate_function(&call.name) {
            return Ok(None);
        }
        let func = match call.name.as_str() {
            "count" => {
                if call.distinct {
                    AggFunc::CountDistinct
                } else if call.args.len() == 1 && matches!(call.args[0], Expr::Wildcard) {
                    AggFunc::CountStar
                } else {
                    AggFunc::Count
                }
            }
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "variance" | "var_samp" => AggFunc::Variance,
            "stddev" | "stddev_samp" => AggFunc::Stddev,
            "median" => AggFunc::Median,
            "quantile" | "percentile" => {
                let q = call
                    .args
                    .get(1)
                    .and_then(|e| match e {
                        Expr::Literal(Literal::Float(f)) => Some(*f),
                        Expr::Literal(Literal::Integer(i)) => Some(*i as f64),
                        _ => None,
                    })
                    .ok_or_else(|| {
                        EngineError::Execution(
                            "quantile/percentile requires a literal fraction as second argument"
                                .into(),
                        )
                    })?;
                if !(0.0..=1.0).contains(&q) {
                    return Err(EngineError::Execution(format!(
                        "quantile fraction {q} out of [0, 1]"
                    )));
                }
                AggFunc::Quantile(q)
            }
            "approx_count_distinct" | "ndv" => AggFunc::ApproxCountDistinct,
            "approx_median" => AggFunc::ApproxMedian,
            other => return Err(EngineError::Unsupported(format!("aggregate {other}"))),
        };
        Ok(Some(func))
    }

    /// Result type of the aggregate.
    pub fn output_type(&self, input: DataType) -> DataType {
        match self {
            AggFunc::CountStar
            | AggFunc::Count
            | AggFunc::CountDistinct
            | AggFunc::ApproxCountDistinct => DataType::Int,
            AggFunc::Min | AggFunc::Max => input,
            AggFunc::Sum => {
                if input == DataType::Int {
                    DataType::Int
                } else {
                    DataType::Float
                }
            }
            _ => DataType::Float,
        }
    }
}

/// Per-group accumulator vectors for one aggregate: one morsel's partial
/// state, or the running state the partials merge into.
#[derive(Clone)]
enum GroupAcc {
    Count(Vec<i64>),
    /// `sum` over a float argument, and `avg`: the sum and the count of the
    /// non-NULL values (a group that saw none sums to NULL, not 0).
    SumCount {
        sums: Vec<f64>,
        counts: Vec<i64>,
    },
    /// `sum` over a non-float argument, accumulated exactly in `i64` (an
    /// `f64` accumulator silently drops the low bits above 2^53); `None`
    /// until a group sees a value.  An overflowing addition is remembered
    /// here and reported by [`GroupAcc::finish`], which the fold closures
    /// cannot do themselves.
    SumInt {
        sums: Vec<Option<i64>>,
        overflowed: bool,
    },
    MinMaxI64 {
        best: Vec<Option<i64>>,
        is_min: bool,
    },
    MinMaxF64 {
        best: Vec<Option<f64>>,
        is_min: bool,
    },
    MinMaxVal {
        best: Vec<Option<Value>>,
        is_min: bool,
    },
    Moments {
        n: Vec<f64>,
        mean: Vec<f64>,
        m2: Vec<f64>,
    },
    Values(Vec<Vec<f64>>),
    Distinct(Vec<HashSet<KeyValue>>),
    Hll(Vec<HyperLogLog>),
}

impl GroupAcc {
    /// An accumulator of `groups` untouched slots for `func` over an
    /// argument of type `arg` (ignored by `count(*)`).
    fn new(func: &AggFunc, arg: DataType, groups: usize) -> GroupAcc {
        match func {
            AggFunc::CountStar | AggFunc::Count => GroupAcc::Count(vec![0; groups]),
            AggFunc::CountDistinct => GroupAcc::Distinct(vec![HashSet::new(); groups]),
            // a typed column is homogeneous, so "did we see a float?"
            // reduces to the column type (bools and ints stay integral)
            AggFunc::Sum if arg != DataType::Float => GroupAcc::SumInt {
                sums: vec![None; groups],
                overflowed: false,
            },
            AggFunc::Sum | AggFunc::Avg => GroupAcc::SumCount {
                sums: vec![0.0; groups],
                counts: vec![0; groups],
            },
            AggFunc::Min | AggFunc::Max => {
                let is_min = matches!(func, AggFunc::Min);
                match arg {
                    DataType::Int => GroupAcc::MinMaxI64 {
                        best: vec![None; groups],
                        is_min,
                    },
                    DataType::Float => GroupAcc::MinMaxF64 {
                        best: vec![None; groups],
                        is_min,
                    },
                    _ => GroupAcc::MinMaxVal {
                        best: vec![None; groups],
                        is_min,
                    },
                }
            }
            AggFunc::Variance | AggFunc::Stddev => GroupAcc::Moments {
                n: vec![0.0; groups],
                mean: vec![0.0; groups],
                m2: vec![0.0; groups],
            },
            AggFunc::Median | AggFunc::Quantile(_) | AggFunc::ApproxMedian => {
                GroupAcc::Values(vec![Vec::new(); groups])
            }
            AggFunc::ApproxCountDistinct => GroupAcc::Hll(vec![HyperLogLog::new(); groups]),
        }
    }

    /// Extends the state to `groups` slots; the new ones are untouched.
    fn grow(&mut self, groups: usize) {
        match self {
            GroupAcc::Count(counts) => counts.resize(groups, 0),
            GroupAcc::SumCount { sums, counts } => {
                sums.resize(groups, 0.0);
                counts.resize(groups, 0);
            }
            GroupAcc::SumInt { sums, .. } => sums.resize(groups, None),
            GroupAcc::MinMaxI64 { best, .. } => best.resize(groups, None),
            GroupAcc::MinMaxF64 { best, .. } => best.resize(groups, None),
            GroupAcc::MinMaxVal { best, .. } => best.resize(groups, None),
            GroupAcc::Moments { n, mean, m2 } => {
                n.resize(groups, 0.0);
                mean.resize(groups, 0.0);
                m2.resize(groups, 0.0);
            }
            GroupAcc::Values(per_group) => per_group.resize(groups, Vec::new()),
            GroupAcc::Distinct(sets) => sets.resize(groups, HashSet::new()),
            GroupAcc::Hll(sketches) => sketches.resize(groups, HyperLogLog::new()),
        }
    }

    /// Folds the rows of `range` (or, for `count(*)`, just their group ids)
    /// into the per-group states; `gids[i]` is the group of row
    /// `range.start + i`.
    fn update_range(&mut self, arg: Option<&Column>, gids: &[usize], range: Range<usize>) {
        debug_assert_eq!(gids.len(), range.len());
        let rows = range.zip(gids.iter().copied());
        match self {
            GroupAcc::Count(counts) => match arg {
                None => {
                    for &g in gids {
                        counts[g] += 1;
                    }
                }
                Some(col) => {
                    for (i, g) in rows {
                        if col.is_valid(i) {
                            counts[g] += 1;
                        }
                    }
                }
            },
            GroupAcc::SumCount { sums, counts } => {
                let col = arg.expect("sum/avg requires an argument");
                numeric_fold_range(col, rows, |g, x| {
                    sums[g] += x;
                    counts[g] += 1;
                });
            }
            GroupAcc::SumInt { sums, overflowed } => {
                let col = arg.expect("sum requires an argument");
                let mut add = |g: usize, x: i64| *overflowed |= add_exact(&mut sums[g], x);
                // Strings contribute nothing, as in `numeric_fold_range`.
                match col.data() {
                    ColumnData::Int64(v) => {
                        for (i, g) in rows {
                            if col.is_valid(i) {
                                add(g, v[i]);
                            }
                        }
                    }
                    ColumnData::Bool(v) => {
                        for (i, g) in rows {
                            if col.is_valid(i) {
                                add(g, v[i] as i64);
                            }
                        }
                    }
                    ColumnData::Float64(_) | ColumnData::Utf8(_) => {}
                }
            }
            GroupAcc::MinMaxI64 { best, is_min } => {
                let col = arg.expect("min/max requires an argument");
                let v = col.as_i64s().expect("Int64 accumulator for Int64 column");
                for (i, g) in rows {
                    if col.is_valid(i) {
                        keep_extreme(&mut best[g], v[i], *is_min);
                    }
                }
            }
            GroupAcc::MinMaxF64 { best, is_min } => {
                let col = arg.expect("min/max requires an argument");
                let v = col
                    .as_f64s()
                    .expect("Float64 accumulator for Float64 column");
                for (i, g) in rows {
                    if col.is_valid(i) {
                        keep_extreme(&mut best[g], v[i], *is_min);
                    }
                }
            }
            GroupAcc::MinMaxVal { best, is_min } => {
                let col = arg.expect("min/max requires an argument");
                for (i, g) in rows {
                    let v = col.value_at(i);
                    if !v.is_null() && minmax_val_replaces(&best[g], &v, *is_min) {
                        best[g] = Some(v);
                    }
                }
            }
            GroupAcc::Moments { n, mean, m2 } => {
                let col = arg.expect("variance requires an argument");
                numeric_fold_range(col, rows, |g, x| {
                    // Welford's online algorithm
                    n[g] += 1.0;
                    let delta = x - mean[g];
                    mean[g] += delta / n[g];
                    m2[g] += delta * (x - mean[g]);
                });
            }
            GroupAcc::Values(per_group) => {
                let col = arg.expect("median/quantile requires an argument");
                numeric_fold_range(col, rows, |g, x| per_group[g].push(x));
            }
            GroupAcc::Distinct(sets) => {
                let col = arg.expect("count distinct requires an argument");
                for (i, g) in rows {
                    let v = col.value_at(i);
                    if !v.is_null() {
                        sets[g].insert(KeyValue::from_value(&v));
                    }
                }
            }
            GroupAcc::Hll(sketches) => {
                let col = arg.expect("ndv requires an argument");
                for (i, g) in rows {
                    let v = col.value_at(i);
                    if !v.is_null() {
                        sketches[g].add_raw_hash(fnv1a_hash_value(&v));
                    }
                }
            }
        }
    }

    /// Merges a later morsel's partial state into this one: slot `l` of
    /// `other` goes to slot `to[l]` here.  Merge order is always morsel
    /// order, which makes the combined state deterministic and independent
    /// of the thread count.
    fn merge(&mut self, other: GroupAcc, to: &[usize]) {
        match (self, other) {
            (GroupAcc::Count(a), GroupAcc::Count(b)) => {
                for (&g, y) in to.iter().zip(b) {
                    a[g] += y;
                }
            }
            (
                GroupAcc::SumCount { sums, counts },
                GroupAcc::SumCount {
                    sums: os,
                    counts: oc,
                },
            ) => {
                for ((&g, s), c) in to.iter().zip(os).zip(oc) {
                    sums[g] += s;
                    counts[g] += c;
                }
            }
            (
                GroupAcc::SumInt { sums, overflowed },
                GroupAcc::SumInt {
                    sums: os,
                    overflowed: oo,
                },
            ) => {
                *overflowed |= oo;
                for (&g, other) in to.iter().zip(os) {
                    if let Some(x) = other {
                        *overflowed |= add_exact(&mut sums[g], x);
                    }
                }
            }
            (GroupAcc::MinMaxI64 { best, is_min }, GroupAcc::MinMaxI64 { best: ob, .. }) => {
                for (&g, x) in to.iter().zip(ob) {
                    x.into_iter()
                        .for_each(|x| keep_extreme(&mut best[g], x, *is_min));
                }
            }
            (GroupAcc::MinMaxF64 { best, is_min }, GroupAcc::MinMaxF64 { best: ob, .. }) => {
                for (&g, x) in to.iter().zip(ob) {
                    x.into_iter()
                        .for_each(|x| keep_extreme(&mut best[g], x, *is_min));
                }
            }
            (GroupAcc::MinMaxVal { best, is_min }, GroupAcc::MinMaxVal { best: ob, .. }) => {
                for (&g, incoming) in to.iter().zip(ob) {
                    if let Some(v) = incoming {
                        if minmax_val_replaces(&best[g], &v, *is_min) {
                            best[g] = Some(v);
                        }
                    }
                }
            }
            (
                GroupAcc::Moments { n, mean, m2 },
                GroupAcc::Moments {
                    n: on,
                    mean: om,
                    m2: om2,
                },
            ) => {
                // Chan et al. pairwise combination of (count, mean, M2).
                for (l, &g) in to.iter().enumerate() {
                    if on[l] == 0.0 {
                        continue;
                    }
                    if n[g] == 0.0 {
                        n[g] = on[l];
                        mean[g] = om[l];
                        m2[g] = om2[l];
                        continue;
                    }
                    let total = n[g] + on[l];
                    let delta = om[l] - mean[g];
                    m2[g] += om2[l] + delta * delta * n[g] * on[l] / total;
                    mean[g] += delta * on[l] / total;
                    n[g] = total;
                }
            }
            (GroupAcc::Values(a), GroupAcc::Values(b)) => {
                // morsel order == row order, so concatenation preserves the
                // serial value order within every group
                for (&g, mut src) in to.iter().zip(b) {
                    a[g].append(&mut src);
                }
            }
            (GroupAcc::Distinct(a), GroupAcc::Distinct(b)) => {
                for (&g, src) in to.iter().zip(b) {
                    a[g].extend(src);
                }
            }
            (GroupAcc::Hll(a), GroupAcc::Hll(b)) => {
                for (&g, src) in to.iter().zip(b) {
                    a[g].merge(&src);
                }
            }
            _ => unreachable!("partial states of one aggregate share a variant"),
        }
    }

    /// Finalises one output column (one slot per group); fails when an
    /// integral `sum` left the `i64` range.
    fn finish(self, func: &AggFunc) -> EngineResult<Column> {
        Ok(match self {
            GroupAcc::Count(counts) => Column::from_i64(counts),
            GroupAcc::SumCount { sums, counts } => {
                let avg = matches!(func, AggFunc::Avg);
                Column::from_opt_f64(
                    sums.iter()
                        .zip(counts.iter())
                        .map(|(&s, &c)| (c > 0).then(|| if avg { s / c as f64 } else { s }))
                        .collect(),
                )
            }
            GroupAcc::SumInt { sums, overflowed } => {
                if overflowed {
                    return Err(EngineError::Execution(
                        "integer overflow in sum: the total does not fit a 64-bit integer".into(),
                    ));
                }
                Column::from_opt_i64(sums)
            }
            GroupAcc::MinMaxI64 { best, .. } => Column::from_opt_i64(best),
            GroupAcc::MinMaxF64 { best, .. } => Column::from_opt_f64(best),
            GroupAcc::MinMaxVal { best, .. } => {
                let values: Vec<Value> =
                    best.into_iter().map(|b| b.unwrap_or(Value::Null)).collect();
                Column::from_values(&values)
            }
            GroupAcc::Moments { n, m2, .. } => {
                let sd = matches!(func, AggFunc::Stddev);
                Column::from_opt_f64(
                    n.iter()
                        .zip(m2.iter())
                        .map(|(&n, &m2)| {
                            (n >= 2.0).then(|| {
                                let var = m2 / (n - 1.0);
                                if sd {
                                    var.sqrt()
                                } else {
                                    var
                                }
                            })
                        })
                        .collect(),
                )
            }
            GroupAcc::Values(per_group) => {
                let q = match func {
                    AggFunc::Quantile(q) => *q,
                    _ => 0.5,
                };
                Column::from_opt_f64(
                    per_group
                        .into_iter()
                        .map(|v| quantile_of_opt(v, q))
                        .collect(),
                )
            }
            GroupAcc::Distinct(sets) => {
                Column::from_i64(sets.iter().map(|s| s.len() as i64).collect())
            }
            GroupAcc::Hll(sketches) => Column::from_i64(
                sketches
                    .iter()
                    .map(|h| h.estimate().round() as i64)
                    .collect(),
            ),
        })
    }
}

/// `*slot += x` in exact `i64` arithmetic, an empty slot counting as 0;
/// true (and the slot untouched) when the total leaves the `i64` range.
fn add_exact(slot: &mut Option<i64>, x: i64) -> bool {
    match slot.unwrap_or(0).checked_add(x) {
        Some(sum) => {
            *slot = Some(sum);
            false
        }
        None => true,
    }
}

/// True when `incoming` should replace the current best of a dynamically
/// typed MIN/MAX slot.
fn minmax_val_replaces(current: &Option<Value>, incoming: &Value, is_min: bool) -> bool {
    match current {
        None => true,
        Some(b) => match incoming.sql_cmp(b) {
            Some(std::cmp::Ordering::Less) => is_min,
            Some(std::cmp::Ordering::Greater) => !is_min,
            _ => false,
        },
    }
}

/// `best = x` when `x` beats it (or nothing was seen yet): the typed MIN/MAX
/// step, shared by the row fold and the partial-state merge.
fn keep_extreme<T: PartialOrd + Copy>(best: &mut Option<T>, x: T, is_min: bool) {
    if best.is_none_or(|b| if is_min { x < b } else { x > b }) {
        *best = Some(x);
    }
}

/// Folds the valid numeric slots of `rows` — `(row, gid)` pairs — into
/// `f(gid, x)`, dispatching on the column type once.  String columns
/// contribute nothing (matching `Value::as_f64`).
fn numeric_fold_range(
    col: &Column,
    rows: impl Iterator<Item = (usize, usize)>,
    mut f: impl FnMut(usize, f64),
) {
    match (col.data(), col.validity()) {
        (ColumnData::Float64(v), None) => {
            for (i, g) in rows {
                f(g, v[i]);
            }
        }
        (ColumnData::Float64(v), Some(bm)) => {
            for (i, g) in rows {
                if bm.get(i) {
                    f(g, v[i]);
                }
            }
        }
        (ColumnData::Int64(v), None) => {
            for (i, g) in rows {
                f(g, v[i] as f64);
            }
        }
        (ColumnData::Int64(v), Some(bm)) => {
            for (i, g) in rows {
                if bm.get(i) {
                    f(g, v[i] as f64);
                }
            }
        }
        (ColumnData::Bool(v), _) => {
            for (i, g) in rows {
                if col.is_valid(i) {
                    f(g, v[i] as u64 as f64);
                }
            }
        }
        (ColumnData::Utf8(_), _) => {}
    }
}

/// Exact interpolated quantile of a group's values (`None` for no values).
fn quantile_of_opt(mut values: Vec<f64>, q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q * (values.len() - 1) as f64;
    let lower = pos.floor() as usize;
    let upper = pos.ceil() as usize;
    let frac = pos - lower as f64;
    Some(values[lower] * (1.0 - frac) + values[upper] * frac)
}

/// One aggregate call to compute, tracked together with the printed form of
/// the original expression so replacement can find it again.
#[derive(Debug, Clone)]
pub struct AggregateItem {
    /// The original function call as parsed.
    pub call: FunctionCall,
    /// The resolved aggregate function.
    pub func: AggFunc,
    /// Name the computed column is exposed under in the aggregated frame.
    pub output_name: String,
}

/// Collects the unique aggregate calls (outside window specifications)
/// appearing in the given expressions, in first-appearance order.
pub fn collect_aggregate_calls(exprs: &[&Expr]) -> EngineResult<Vec<AggregateItem>> {
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut items: Vec<AggregateItem> = Vec::new();
    for expr in exprs {
        let mut err: Option<EngineError> = None;
        verdict_sql::visitor::walk_expr(expr, &mut |e| {
            if err.is_some() {
                return;
            }
            if let Some(call) = e.as_aggregate() {
                let key = print_expr(e, &GenericDialect);
                if let std::collections::hash_map::Entry::Vacant(entry) = seen.entry(key) {
                    match AggFunc::from_call(call) {
                        Ok(Some(func)) => {
                            let idx = items.len();
                            entry.insert(idx);
                            items.push(AggregateItem {
                                call: call.clone(),
                                func,
                                output_name: format!("__agg{idx}"),
                            });
                        }
                        Ok(None) => {}
                        Err(e) => err = Some(e),
                    }
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
    }
    Ok(items)
}

/// Evaluates the group-key and aggregate-argument expressions over `frame`
/// (`None` for `count(*)`, which has no argument).  Element-wise, so
/// evaluating block by block and concatenating equals evaluating at once.
pub(crate) fn evaluate_inputs(
    frame: &Table,
    group_exprs: &[Expr],
    aggs: &[AggregateItem],
    rng: &mut dyn FnMut() -> f64,
) -> EngineResult<(Vec<Column>, Vec<Option<Column>>)> {
    let mut eval = |e: &Expr| eval_expr(e, &mut EvalContext { table: frame, rng });
    let keys = group_exprs
        .iter()
        .map(&mut eval)
        .collect::<EngineResult<_>>()?;
    let args = aggs
        .iter()
        .map(|item| match item.func {
            AggFunc::CountStar => Ok(None),
            _ => {
                let arg = item.call.args.first().ok_or_else(|| {
                    EngineError::Execution(format!(
                        "aggregate {} requires an argument",
                        item.call.name
                    ))
                })?;
                eval(arg).map(Some)
            }
        })
        .collect::<EngineResult<_>>()?;
    Ok((keys, args))
}

/// One aggregate of an [`AggState`]: what to compute, over which argument
/// type, and the state merged so far.
#[derive(Clone)]
struct AggSlot {
    func: AggFunc,
    /// Type the accumulator was built for.  Until a pushed argument column
    /// holds a non-NULL value (`informed`) this is only the statically
    /// inferred type, and the first informative column replaces it.
    arg_type: DataType,
    informed: bool,
    acc: GroupAcc,
}

/// Everything folded so far: the groups seen and one accumulator per
/// aggregate over them.
#[derive(Clone, Default)]
struct Folded {
    table: GroupTable,
    slots: Vec<AggSlot>,
}

impl Folded {
    /// The only fold in the engine.  Cuts rows `0..n` of the evaluated
    /// columns into morsels, groups and folds each morsel on its own (across
    /// the pool when there are several), then — in morsel order — interns the
    /// morsel's groups into the table and merges its partial states.
    ///
    /// Morsels are taken a bounded batch at a time, so the partial states
    /// alive at once do not grow with `n`; the batch size changes which
    /// partials exist together, never the order they merge in.
    fn fold(&mut self, keys: &[Column], args: &[Option<Column>], n: usize, pool: &ThreadPool) {
        let morsels = ThreadPool::morsels(n);
        for batch in morsels.chunks(PARTIALS_PER_WORKER * pool.parallelism()) {
            let slots = &self.slots;
            let partials = pool.run(batch.len(), |i| {
                let range = batch[i].clone();
                let grouping = group_range(keys, range.clone());
                let accs: Vec<GroupAcc> = slots
                    .iter()
                    .zip(args)
                    .map(|(slot, arg)| {
                        let groups = grouping.num_groups();
                        let mut acc = GroupAcc::new(&slot.func, slot.arg_type, groups);
                        acc.update_range(arg.as_ref(), &grouping.gids, range.clone());
                        acc
                    })
                    .collect();
                (grouping.representatives, grouping.hashes, accs)
            });
            for (representatives, hashes, accs) in partials {
                let to = self.table.intern(keys, &representatives, &hashes);
                for (slot, partial) in self.slots.iter_mut().zip(accs) {
                    slot.acc.grow(self.table.num_groups());
                    slot.acc.merge(partial, &to);
                }
            }
        }
    }
}

/// Morsel partials one [`Folded::fold`] batch keeps per pool worker: enough
/// that the barrier between batches costs little, few enough that a long
/// scan's transient state stays a small multiple of one morsel's.
const PARTIALS_PER_WORKER: usize = 32;

/// The running state of one grouped aggregation — the engine's single
/// aggregation core.  [`push`](Self::push) takes evaluated key/argument
/// rows, [`snapshot`](Self::snapshot) answers for the rows pushed so far,
/// [`finish`](Self::finish) answers for all of them; a block scan is "push
/// per block", streamed "snapshot per frame", one-shot "finish at the end".
///
/// **The grid rule.**  Rows are folded on the [`MORSEL_ROWS`] grid of
/// *evaluated rows counted from the first push*: every full morsel becomes
/// one partial state merged in morsel order, and the rows past the last
/// full morsel (fewer than `MORSEL_ROWS`) are carried, unfolded, until
/// later pushes complete the morsel — `snapshot`/`finish` fold them as the
/// last, short partial.  How the rows were cut into pushes, and how many
/// threads ran the partials, therefore never changes the sequence of folds
/// and merges: any snapshot is bit-identical to a one-shot run over the
/// same rows.
///
/// Memory is O(groups) for the moment-family accumulators plus the carried
/// rows.  Two kinds of state keep O(rows) — the value lists of `median` /
/// `quantile` / `approx_median` and the exact sets of `count(DISTINCT)` —
/// and a `snapshot` clones them.
pub struct AggState {
    folded: Folded,
    /// Evaluated rows past the last full morsel.
    open_keys: Vec<Column>,
    open_args: Vec<Option<Column>>,
    open_rows: usize,
    /// Output schema: group keys, then one column per aggregate.
    schema: Schema,
    replacements: Vec<(Expr, Expr)>,
}

impl AggState {
    /// An empty state for `aggs` grouped by `group_exprs`; `input_schema` is
    /// the schema the expressions will be evaluated against (used for
    /// output-type inference only).
    pub fn new(group_exprs: &[Expr], aggs: &[AggregateItem], input_schema: &Schema) -> AggState {
        let mut fields: Vec<Field> = Vec::new();
        let mut replacements: Vec<(Expr, Expr)> = Vec::new();
        for (i, g) in group_exprs.iter().enumerate() {
            let data_type = infer_type(g, input_schema);
            let (field, reference) = match g {
                Expr::Column { table, name } => (
                    Field {
                        qualifier: table.as_ref().map(|t| t.to_ascii_lowercase()),
                        name: name.to_ascii_lowercase(),
                        data_type,
                    },
                    g.clone(),
                ),
                _ => {
                    let name = format!("__gk{i}");
                    (Field::new(&name, data_type), Expr::col(name))
                }
            };
            fields.push(field);
            replacements.push((g.clone(), reference));
        }
        let open_keys: Vec<Column> = fields
            .iter()
            .map(|f| Column::new_empty(f.data_type))
            .collect();
        let mut slots = Vec::with_capacity(aggs.len());
        let mut open_args = Vec::with_capacity(aggs.len());
        for item in aggs {
            let arg = match item.func {
                AggFunc::CountStar => None,
                _ => item.call.args.first(),
            };
            let arg_type = arg.map_or(DataType::Int, |a| infer_type(a, input_schema));
            fields.push(Field::new(
                &item.output_name,
                item.func.output_type(arg_type),
            ));
            replacements.push((
                Expr::Function(item.call.clone()),
                Expr::col(item.output_name.clone()),
            ));
            open_args.push(arg.map(|_| Column::new_empty(arg_type)));
            slots.push(AggSlot {
                func: item.func.clone(),
                arg_type,
                informed: false,
                acc: GroupAcc::new(&item.func, arg_type, 0),
            });
        }
        AggState {
            folded: Folded {
                table: GroupTable::new(open_keys.clone()),
                slots,
            },
            open_keys,
            open_args,
            open_rows: 0,
            schema: Schema::new(fields),
            replacements,
        }
    }

    /// Replacement pairs: GROUP BY expression or aggregate call → reference
    /// to the column of the aggregated frame that holds it.
    pub(crate) fn replacements(&self) -> &[(Expr, Expr)] {
        &self.replacements
    }

    /// Takes the next `n` evaluated rows (every column `n` long; `args[i]`
    /// is `None` exactly for `count(*)`), folds every morsel they complete,
    /// and carries the rest.
    pub fn push(
        &mut self,
        mut keys: Vec<Column>,
        mut args: Vec<Option<Column>>,
        mut n: usize,
        pool: &ThreadPool,
    ) {
        // An argument column's type picks its accumulator, and expression
        // types can follow the values (a CASE with mixed branches, an
        // all-NULL block): the first column holding a value decides, later
        // ones are coerced to it — what `Column::append` does to a buffer.
        for (slot, col) in self.folded.slots.iter_mut().zip(args.iter_mut()) {
            let Some(col) = col else { continue };
            let informative = col.null_count() < col.len();
            if col.data_type() != slot.arg_type {
                if informative && !slot.informed {
                    slot.arg_type = col.data_type();
                    slot.acc = GroupAcc::new(&slot.func, slot.arg_type, 0);
                } else {
                    *col = Column::from_values_typed(slot.arg_type, &col.to_values());
                }
            }
            slot.informed |= informative;
        }
        if self.open_rows > 0 {
            for (open, col) in self.open_keys.iter_mut().zip(&keys) {
                open.append(col);
            }
            for (open, col) in self.open_args.iter_mut().zip(&args) {
                if let (Some(open), Some(col)) = (open, col) {
                    open.append(col);
                }
            }
            keys = std::mem::take(&mut self.open_keys);
            args = std::mem::take(&mut self.open_args);
            n += self.open_rows;
        }
        let full = n - n % MORSEL_ROWS;
        if full > 0 {
            self.folded.fold(&keys, &args, full, pool);
            let rest = |c: &Column| c.slice(full, n - full);
            keys = keys.iter().map(rest).collect();
            args = args.iter().map(|c| c.as_ref().map(rest)).collect();
        }
        (self.open_keys, self.open_args, self.open_rows) = (keys, args, n - full);
    }

    /// The aggregated frame over every row pushed so far — group-key
    /// columns, then one column per aggregate (`AggState::replacements` says
    /// which expression each holds); the state is unchanged (what was folded
    /// is cloned, then closed like `finish`).
    pub fn snapshot(&self, pool: &ThreadPool) -> EngineResult<Table> {
        self.close(self.folded.clone(), pool)
    }

    /// The aggregated frame over every row pushed.
    pub fn finish(mut self, pool: &ThreadPool) -> EngineResult<Table> {
        let folded = std::mem::take(&mut self.folded);
        self.close(folded, pool)
    }

    /// Folds the carried rows as the last partial and finalises one output
    /// column per aggregate; fails when an integral `sum` has overflowed.
    fn close(&self, mut folded: Folded, pool: &ThreadPool) -> EngineResult<Table> {
        folded.fold(&self.open_keys, &self.open_args, self.open_rows, pool);
        // A global (keyless) aggregation over zero rows still produces one
        // output row.
        let keyless = self.open_keys.is_empty();
        let groups = folded.table.num_groups().max(keyless as usize);
        let mut columns = folded.table.into_keys();
        for mut slot in folded.slots {
            slot.acc.grow(groups);
            columns.push(slot.acc.finish(&slot.func)?);
        }
        Table::new(self.schema.clone(), columns)
    }
}

/// Replaces, top-down and in place, any sub-expression structurally equal to
/// a replacement key with the corresponding reference expression.
pub fn replace_exprs(expr: &mut Expr, replacements: &[(Expr, Expr)]) {
    match replacements.iter().find(|(from, _)| from == expr) {
        Some((_, to)) => *expr = to.clone(),
        None => expr.for_each_child_mut(|child| replace_exprs(child, replacements)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::seeded_uniform;
    use crate::table::TableBuilder;
    use verdict_sql::parse_expression;

    fn input() -> Table {
        TableBuilder::new()
            .str_column(
                "city",
                vec!["a", "a", "b", "b", "b"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
            )
            .float_column("price", vec![10.0, 20.0, 5.0, 15.0, 10.0])
            .int_column("qty", vec![1, 2, 3, 4, 5])
            .build()
            .unwrap()
    }

    fn run_agg(group: &[&str], aggs: &[&str]) -> Table {
        run_agg_on(input(), group, aggs)
    }

    fn run_agg_on(t: Table, group: &[&str], aggs: &[&str]) -> Table {
        aggregate(&t, group, aggs, &ThreadPool::serial())
    }

    /// Evaluates the keys and arguments over `t`, pushes the whole frame
    /// into a fresh [`AggState`] and finishes it.
    fn aggregate(t: &Table, group: &[&str], aggs: &[&str], pool: &ThreadPool) -> Table {
        let group_exprs: Vec<Expr> = group.iter().map(|g| parse_expression(g).unwrap()).collect();
        let agg_exprs: Vec<Expr> = aggs.iter().map(|a| parse_expression(a).unwrap()).collect();
        let refs: Vec<&Expr> = agg_exprs.iter().collect();
        let items = collect_aggregate_calls(&refs).unwrap();
        let mut rng = seeded_uniform(1);
        let (keys, args) = evaluate_inputs(t, &group_exprs, &items, &mut rng).unwrap();
        let mut state = AggState::new(&group_exprs, &items, &t.schema);
        state.push(keys, args, t.num_rows(), pool);
        state.finish(pool).unwrap()
    }

    #[test]
    fn grouped_sum_and_count() {
        let out = run_agg(&["city"], &["count(*)", "sum(price)"]);
        assert_eq!(out.num_rows(), 2);
        let city_idx = out.schema.index_of("city").unwrap();
        let cnt_idx = out.schema.index_of("__agg0").unwrap();
        let sum_idx = out.schema.index_of("__agg1").unwrap();
        for r in 0..2 {
            match out.value_at(r, city_idx) {
                Value::Str(s) if s == "a" => {
                    assert_eq!(out.value_at(r, cnt_idx), Value::Int(2));
                    assert_eq!(out.value_at(r, sum_idx), Value::Float(30.0));
                }
                Value::Str(s) if s == "b" => {
                    assert_eq!(out.value_at(r, cnt_idx), Value::Int(3));
                    assert_eq!(out.value_at(r, sum_idx), Value::Float(30.0));
                }
                other => panic!("unexpected group {other:?}"),
            }
        }
    }

    #[test]
    fn global_aggregation_produces_one_row() {
        let out = run_agg(
            &[],
            &["avg(price)", "min(qty)", "max(qty)", "stddev(price)"],
        );
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value_at(0, 0), Value::Float(12.0));
        assert_eq!(out.value_at(0, 1), Value::Int(1));
        assert_eq!(out.value_at(0, 2), Value::Int(5));
        let sd = out.value_at(0, 3).as_f64().unwrap();
        assert!((sd - 5.700877).abs() < 1e-4);
    }

    #[test]
    fn global_aggregation_over_zero_rows_still_yields_a_row() {
        let empty = TableBuilder::new().int_column("x", vec![]).build().unwrap();
        let out = run_agg_on(empty, &[], &["count(*)", "sum(x)", "min(x)"]);
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value_at(0, 0), Value::Int(0));
        assert!(out.value_at(0, 1).is_null());
        assert!(out.value_at(0, 2).is_null());
    }

    #[test]
    fn aggregates_skip_nulls() {
        let t = TableBuilder::new()
            .opt_float_column("v", vec![Some(1.0), None, Some(3.0), None])
            .build()
            .unwrap();
        let out = run_agg_on(
            t,
            &[],
            &["count(v)", "sum(v)", "avg(v)", "min(v)", "max(v)"],
        );
        assert_eq!(out.value_at(0, 0), Value::Int(2));
        assert_eq!(out.value_at(0, 1), Value::Float(4.0));
        assert_eq!(out.value_at(0, 2), Value::Float(2.0));
        assert_eq!(out.value_at(0, 3), Value::Float(1.0));
        assert_eq!(out.value_at(0, 4), Value::Float(3.0));
    }

    #[test]
    fn count_distinct_and_median() {
        let out = run_agg(&[], &["count(distinct city)", "median(price)"]);
        assert_eq!(out.value_at(0, 0), Value::Int(2));
        assert_eq!(out.value_at(0, 1), Value::Float(10.0));
    }

    #[test]
    fn quantile_interpolates() {
        let v = quantile_of_opt(vec![1.0, 2.0, 3.0, 4.0], 0.5);
        assert_eq!(v, Some(2.5));
        let v = quantile_of_opt(vec![1.0, 2.0, 3.0, 4.0, 5.0], 0.25);
        assert_eq!(v, Some(2.0));
        assert_eq!(quantile_of_opt(Vec::new(), 0.5), None);
    }

    #[test]
    fn replacement_rewrites_aggregates_to_column_refs() {
        let proj = parse_expression("sum(price) / count(*)").unwrap();
        let refs = [&proj];
        let items = collect_aggregate_calls(&refs).unwrap();
        assert_eq!(items.len(), 2);
        let replacements: Vec<(Expr, Expr)> = items
            .iter()
            .map(|i| {
                (
                    Expr::Function(i.call.clone()),
                    Expr::col(i.output_name.clone()),
                )
            })
            .collect();
        let mut replaced = proj.clone();
        replace_exprs(&mut replaced, &replacements);
        let printed = print_expr(&replaced, &GenericDialect);
        assert_eq!(printed, "__agg0 / __agg1");
    }

    #[test]
    fn replacement_reaches_a_key_under_every_composite_variant() {
        let key = parse_expression("sum(price)").unwrap();
        let replacements = [(key, Expr::col("__agg0"))];
        for shape in [
            "{} + 1",
            "-{}",
            "abs({})",
            "rank() OVER (PARTITION BY {} ORDER BY {})",
            "CASE {} WHEN {} THEN {} ELSE {} END",
            "{} IS NULL",
            "{} IN ({}, 2)",
            "{} IN (SELECT x FROM t)",
            "{} BETWEEN {} AND {}",
            "{} LIKE {}",
            "CAST({} AS DOUBLE)",
            "({})",
        ] {
            let mut e = parse_expression(&shape.replace("{}", "sum(price)")).unwrap();
            replace_exprs(&mut e, &replacements);
            let want = parse_expression(&shape.replace("{}", "__agg0")).unwrap();
            assert_eq!(e, want, "{shape}");
        }
    }

    #[test]
    fn approximate_count_distinct_close_to_exact() {
        let n = 20_000;
        let t = TableBuilder::new()
            .int_column("k", (0..n).map(|i| i % 5000).collect())
            .build()
            .unwrap();
        let out = run_agg_on(t, &[], &["ndv(k)"]);
        let est = out.value_at(0, 0).as_i64().unwrap() as f64;
        assert!((est - 5000.0).abs() / 5000.0 < 0.05);
    }

    #[test]
    fn integer_sum_stays_integer_and_float_sum_stays_float() {
        let out = run_agg(&[], &["sum(qty)", "sum(price)"]);
        assert_eq!(out.value_at(0, 0), Value::Int(15));
        assert_eq!(out.value_at(0, 1), Value::Float(60.0));
    }

    #[test]
    fn the_first_argument_column_holding_a_value_picks_the_accumulator() {
        // An expression's column type can follow its values block by block
        // (a CASE with mixed branches, an all-NULL block); `v` is declared Int.
        let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
        let calls = [
            parse_expression("sum(v)").unwrap(),
            parse_expression("min(v)").unwrap(),
        ];
        let items = collect_aggregate_calls(&calls.iter().collect::<Vec<_>>()).unwrap();
        let pool = ThreadPool::serial();
        let run = |blocks: &[&Column]| {
            let mut state = AggState::new(&[], &items, &schema);
            for &col in blocks {
                let args = vec![Some(col.clone()), Some(col.clone())];
                state.push(vec![], args, col.len(), &pool);
            }
            state.finish(&pool).unwrap()
        };
        let nulls = Column::from_opt_str(vec![None, None]);
        let floats = Column::from_f64(vec![1.5, 2.5]);
        let ints = Column::from_i64(vec![1, 2]);

        // An all-NULL block of whatever type decides nothing; the Float
        // block picks float accumulators; the later Int block is coerced to
        // them — the answer a single Float column of these values gives.
        let mixed = run(&[&nulls, &floats, &ints]);
        assert_eq!(mixed.row(0), vec![Value::Float(7.0), Value::Float(1.0)]);
        let at_once =
            Column::from_opt_f64(vec![None, None, Some(1.5), Some(2.5), Some(1.0), Some(2.0)]);
        assert_eq!(run(&[&at_once]).row(0), mixed.row(0));

        // Int first: the Float block is coerced to Int, which truncates —
        // as appending it to an Int column does.
        let truncated = run(&[&ints, &floats]);
        assert_eq!(truncated.row(0), vec![Value::Int(6), Value::Int(1)]);

        // No block ever holds a value: NULLs of the inferred type.
        let never = run(&[&nulls]);
        assert_eq!(never.row(0), vec![Value::Null, Value::Null]);
        assert_eq!(never.columns[0].data_type(), DataType::Int);
        assert_eq!(never.columns[1].data_type(), DataType::Int);
    }

    #[test]
    fn parallel_aggregation_is_bit_identical_across_thread_counts() {
        use crate::parallel::{ThreadPool, MORSEL_ROWS};
        // Multi-morsel nullable input exercising every mergeable accumulator.
        let n = MORSEL_ROWS * 2 + 999;
        let t = TableBuilder::new()
            .int_column("k", (0..n as i64).map(|i| i % 7).collect())
            .opt_float_column(
                "v",
                (0..n)
                    .map(|i| (i % 11 != 0).then(|| (i as f64 * 0.37).sin() * 100.0))
                    .collect(),
            )
            .build()
            .unwrap();
        let run_with = |threads: usize| {
            let aggs = [
                "count(*)",
                "count(v)",
                "sum(v)",
                "avg(v)",
                "min(v)",
                "max(v)",
                "stddev(v)",
                "median(v)",
            ];
            aggregate(&t, &["k"], &aggs, &ThreadPool::new(threads))
        };
        let serial = run_with(1);
        let parallel = run_with(4);
        assert_eq!(serial.num_rows(), parallel.num_rows());
        for r in 0..serial.num_rows() {
            for c in 0..serial.num_columns() {
                let (a, b) = (serial.value_at(r, c), parallel.value_at(r, c));
                match (&a, &b) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits(), "({r},{c}): {x} vs {y}")
                    }
                    _ => assert_eq!(a, b, "({r},{c})"),
                }
            }
        }
    }
}
