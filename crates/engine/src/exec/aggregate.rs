//! Vectorized hash aggregation.
//!
//! The executor collects the unique aggregate calls appearing in a query and
//! evaluates their argument expressions over the input frame as typed
//! columns.  Rows are clustered into groups with the canonical-hash grouper
//! ([`crate::kernels::group_rows`]); every accumulator then folds the typed
//! argument slices in one pass per aggregate — no per-cell [`Value`] boxing
//! on the SUM/COUNT/AVG/MIN/MAX hot path that VerdictDB's rewrites lean on.
//!
//! The resulting "aggregated frame" exposes the group keys under their
//! original column names (so later projection expressions still resolve) and
//! each aggregate under a synthetic `__aggN` column; [`replace_exprs`] swaps
//! the original aggregate calls for references to those columns.

use crate::approx::HyperLogLog;
use crate::column::{Column, ColumnData};
use crate::error::{EngineError, EngineResult};
use crate::expr::{eval_expr, infer_type, EvalContext};
use crate::kernels::group_rows_with;
use crate::parallel::ThreadPool;
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

/// Per-group accumulator vectors for one aggregate, folded over the typed
/// argument column in a single pass.
enum GroupAcc {
    Count(Vec<i64>),
    Sum {
        sums: Vec<f64>,
        seen: Vec<bool>,
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
    Avg {
        sums: Vec<f64>,
        counts: Vec<i64>,
    },
    MinMaxI64 {
        best: Vec<i64>,
        has: Vec<bool>,
        is_min: bool,
    },
    MinMaxF64 {
        best: Vec<f64>,
        has: Vec<bool>,
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
    fn new(func: &AggFunc, arg: Option<&Column>, groups: usize) -> GroupAcc {
        match func {
            AggFunc::CountStar | AggFunc::Count => GroupAcc::Count(vec![0; groups]),
            AggFunc::CountDistinct => GroupAcc::Distinct(vec![HashSet::new(); groups]),
            // a typed column is homogeneous, so "did we see a float?"
            // reduces to the column type (bools and ints stay integral)
            AggFunc::Sum if matches!(arg.map(|c| c.data_type()), Some(DataType::Float)) => {
                GroupAcc::Sum {
                    sums: vec![0.0; groups],
                    seen: vec![false; groups],
                }
            }
            AggFunc::Sum => GroupAcc::SumInt {
                sums: vec![None; groups],
                overflowed: false,
            },
            AggFunc::Avg => GroupAcc::Avg {
                sums: vec![0.0; groups],
                counts: vec![0; groups],
            },
            AggFunc::Min | AggFunc::Max => {
                let is_min = matches!(func, AggFunc::Min);
                match arg.map(|c| c.data_type()) {
                    Some(DataType::Int) => GroupAcc::MinMaxI64 {
                        best: vec![0; groups],
                        has: vec![false; groups],
                        is_min,
                    },
                    Some(DataType::Float) => GroupAcc::MinMaxF64 {
                        best: vec![0.0; groups],
                        has: vec![false; groups],
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

    /// True when this accumulator kind supports morsel-partial evaluation
    /// followed by [`GroupAcc::merge`].  The HLL sketch stays on the serial
    /// path because its update recomputes a whole-column hash vector.
    fn mergeable(func: &AggFunc) -> bool {
        !matches!(func, AggFunc::ApproxCountDistinct)
    }

    /// Folds the rows of `range` (or, for `count(*)`, just their group ids)
    /// into the per-group states.  Calling this once with `0..n` is the
    /// serial path; calling it per morsel and merging the partial states in
    /// morsel order is the parallel path, and the two agree exactly.
    fn update_range(&mut self, arg: Option<&Column>, gids: &[usize], range: Range<usize>) {
        match self {
            GroupAcc::Count(counts) => match arg {
                None => {
                    for i in range {
                        counts[gids[i]] += 1;
                    }
                }
                Some(col) => {
                    for i in range {
                        if col.is_valid(i) {
                            counts[gids[i]] += 1;
                        }
                    }
                }
            },
            GroupAcc::Sum { sums, seen } => {
                let col = arg.expect("sum requires an argument");
                numeric_fold_range(col, gids, range, |g, x| {
                    sums[g] += x;
                    seen[g] = true;
                });
            }
            GroupAcc::SumInt { sums, overflowed } => {
                let col = arg.expect("sum requires an argument");
                let mut add = |g: usize, x: i64| *overflowed |= add_exact(&mut sums[g], x);
                // Strings contribute nothing, as in `numeric_fold_range`.
                match col.data() {
                    ColumnData::Int64(v) => {
                        for i in range {
                            if col.is_valid(i) {
                                add(gids[i], v[i]);
                            }
                        }
                    }
                    ColumnData::Bool(v) => {
                        for i in range {
                            if col.is_valid(i) {
                                add(gids[i], v[i] as i64);
                            }
                        }
                    }
                    ColumnData::Float64(_) | ColumnData::Utf8(_) => {}
                }
            }
            GroupAcc::Avg { sums, counts } => {
                let col = arg.expect("avg requires an argument");
                numeric_fold_range(col, gids, range, |g, x| {
                    sums[g] += x;
                    counts[g] += 1;
                });
            }
            GroupAcc::MinMaxI64 { best, has, is_min } => {
                let col = arg.expect("min/max requires an argument");
                let v = col.as_i64s().expect("Int64 accumulator for Int64 column");
                let is_min = *is_min;
                for i in range {
                    if !col.is_valid(i) {
                        continue;
                    }
                    let (x, g) = (v[i], gids[i]);
                    if !has[g] || (is_min && x < best[g]) || (!is_min && x > best[g]) {
                        best[g] = x;
                        has[g] = true;
                    }
                }
            }
            GroupAcc::MinMaxF64 { best, has, is_min } => {
                let col = arg.expect("min/max requires an argument");
                let v = col
                    .as_f64s()
                    .expect("Float64 accumulator for Float64 column");
                let is_min = *is_min;
                for i in range {
                    if !col.is_valid(i) {
                        continue;
                    }
                    let (x, g) = (v[i], gids[i]);
                    if !has[g] || (is_min && x < best[g]) || (!is_min && x > best[g]) {
                        best[g] = x;
                        has[g] = true;
                    }
                }
            }
            GroupAcc::MinMaxVal { best, is_min } => {
                let col = arg.expect("min/max requires an argument");
                let is_min = *is_min;
                for i in range {
                    let v = col.value_at(i);
                    if v.is_null() {
                        continue;
                    }
                    let g = gids[i];
                    if minmax_val_replaces(&best[g], &v, is_min) {
                        best[g] = Some(v);
                    }
                }
            }
            GroupAcc::Moments { n, mean, m2 } => {
                let col = arg.expect("variance requires an argument");
                numeric_fold_range(col, gids, range, |g, x| {
                    // Welford's online algorithm
                    n[g] += 1.0;
                    let delta = x - mean[g];
                    mean[g] += delta / n[g];
                    m2[g] += delta * (x - mean[g]);
                });
            }
            GroupAcc::Values(per_group) => {
                let col = arg.expect("median/quantile requires an argument");
                numeric_fold_range(col, gids, range, |g, x| per_group[g].push(x));
            }
            GroupAcc::Distinct(sets) => {
                let col = arg.expect("count distinct requires an argument");
                for i in range {
                    let v = col.value_at(i);
                    if !v.is_null() {
                        sets[gids[i]].insert(KeyValue::from_value(&v));
                    }
                }
            }
            GroupAcc::Hll(sketches) => {
                let col = arg.expect("ndv requires an argument");
                let hashes = crate::functions::fnv_hash_column_raw(col);
                for i in range {
                    if let Some(h) = hashes[i] {
                        sketches[gids[i]].add_raw_hash(h);
                    }
                }
            }
        }
    }

    /// Merges a later morsel's partial state into this one.  Merge order is
    /// always morsel order, which makes the combined state deterministic and
    /// independent of the thread count.
    fn merge(&mut self, other: GroupAcc) {
        match (self, other) {
            (GroupAcc::Count(a), GroupAcc::Count(b)) => {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
            }
            (GroupAcc::Sum { sums, seen }, GroupAcc::Sum { sums: os, seen: ok }) => {
                for g in 0..sums.len() {
                    if ok[g] {
                        sums[g] += os[g];
                        seen[g] = true;
                    }
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
                for (sum, other) in sums.iter_mut().zip(os) {
                    if let Some(x) = other {
                        *overflowed |= add_exact(sum, x);
                    }
                }
            }
            (
                GroupAcc::Avg { sums, counts },
                GroupAcc::Avg {
                    sums: os,
                    counts: oc,
                },
            ) => {
                for g in 0..sums.len() {
                    sums[g] += os[g];
                    counts[g] += oc[g];
                }
            }
            (
                GroupAcc::MinMaxI64 { best, has, is_min },
                GroupAcc::MinMaxI64 {
                    best: ob, has: oh, ..
                },
            ) => {
                let is_min = *is_min;
                for g in 0..best.len() {
                    if !oh[g] {
                        continue;
                    }
                    let x = ob[g];
                    if !has[g] || (is_min && x < best[g]) || (!is_min && x > best[g]) {
                        best[g] = x;
                        has[g] = true;
                    }
                }
            }
            (
                GroupAcc::MinMaxF64 { best, has, is_min },
                GroupAcc::MinMaxF64 {
                    best: ob, has: oh, ..
                },
            ) => {
                let is_min = *is_min;
                for g in 0..best.len() {
                    if !oh[g] {
                        continue;
                    }
                    let x = ob[g];
                    if !has[g] || (is_min && x < best[g]) || (!is_min && x > best[g]) {
                        best[g] = x;
                        has[g] = true;
                    }
                }
            }
            (GroupAcc::MinMaxVal { best, is_min }, GroupAcc::MinMaxVal { best: ob, .. }) => {
                let is_min = *is_min;
                for (slot, incoming) in best.iter_mut().zip(ob) {
                    if let Some(v) = incoming {
                        if minmax_val_replaces(slot, &v, is_min) {
                            *slot = Some(v);
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
                for g in 0..n.len() {
                    if on[g] == 0.0 {
                        continue;
                    }
                    if n[g] == 0.0 {
                        n[g] = on[g];
                        mean[g] = om[g];
                        m2[g] = om2[g];
                        continue;
                    }
                    let total = n[g] + on[g];
                    let delta = om[g] - mean[g];
                    m2[g] += om2[g] + delta * delta * n[g] * on[g] / total;
                    mean[g] += delta * on[g] / total;
                    n[g] = total;
                }
            }
            (GroupAcc::Values(a), GroupAcc::Values(b)) => {
                // morsel order == row order, so concatenation preserves the
                // serial value order within every group
                for (dst, mut src) in a.iter_mut().zip(b) {
                    dst.append(&mut src);
                }
            }
            (GroupAcc::Distinct(a), GroupAcc::Distinct(b)) => {
                for (dst, src) in a.iter_mut().zip(b) {
                    dst.extend(src);
                }
            }
            (GroupAcc::Hll(a), GroupAcc::Hll(b)) => {
                for (dst, src) in a.iter_mut().zip(b) {
                    dst.merge(&src);
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
            GroupAcc::Sum { sums, seen } => Column::from_opt_f64(
                sums.iter()
                    .zip(seen.iter())
                    .map(|(&s, &ok)| ok.then_some(s))
                    .collect(),
            ),
            GroupAcc::SumInt { sums, overflowed } => {
                if overflowed {
                    return Err(EngineError::Execution(
                        "integer overflow in sum: the total does not fit a 64-bit integer".into(),
                    ));
                }
                Column::from_opt_i64(sums)
            }
            GroupAcc::Avg { sums, counts } => Column::from_opt_f64(
                sums.iter()
                    .zip(counts.iter())
                    .map(|(&s, &c)| (c > 0).then(|| s / c as f64))
                    .collect(),
            ),
            GroupAcc::MinMaxI64 { best, has, .. } => Column::from_opt_i64(
                best.iter()
                    .zip(has.iter())
                    .map(|(&b, &ok)| ok.then_some(b))
                    .collect(),
            ),
            GroupAcc::MinMaxF64 { best, has, .. } => Column::from_opt_f64(
                best.iter()
                    .zip(has.iter())
                    .map(|(&b, &ok)| ok.then_some(b))
                    .collect(),
            ),
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

/// Folds the valid numeric slots of rows `range` into `f(gid, x)`,
/// dispatching on the column type once.  String columns contribute nothing
/// (matching `Value::as_f64`).
fn numeric_fold_range(
    col: &Column,
    gids: &[usize],
    range: Range<usize>,
    mut f: impl FnMut(usize, f64),
) {
    match (col.data(), col.validity()) {
        (ColumnData::Float64(v), None) => {
            for i in range {
                f(gids[i], v[i]);
            }
        }
        (ColumnData::Float64(v), Some(bm)) => {
            for i in range {
                if bm.get(i) {
                    f(gids[i], v[i]);
                }
            }
        }
        (ColumnData::Int64(v), None) => {
            for i in range {
                f(gids[i], v[i] as f64);
            }
        }
        (ColumnData::Int64(v), Some(bm)) => {
            for i in range {
                if bm.get(i) {
                    f(gids[i], v[i] as f64);
                }
            }
        }
        (ColumnData::Bool(v), _) => {
            for i in range {
                if col.is_valid(i) {
                    f(gids[i], v[i] as u64 as f64);
                }
            }
        }
        (ColumnData::Utf8(_), _) => {}
    }
}

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

/// Exact interpolated quantile of a set of values (used by median/quantile
/// aggregates and exposed for tests).
pub fn quantile_of(values: Vec<f64>, q: f64) -> Value {
    match quantile_of_opt(values, q) {
        Some(v) => Value::Float(v),
        None => Value::Null,
    }
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

/// Output of the aggregation stage.
pub struct AggregatedFrame {
    /// The aggregated table: group-key columns followed by aggregate columns.
    pub table: Table,
    /// Replacement pairs: original expression -> column reference in `table`.
    pub replacements: Vec<(Expr, Expr)>,
}

/// Executes hash aggregation of `input` grouped by `group_exprs`, computing
/// `aggs`, on the calling thread.
pub fn execute_aggregation(
    input: &Table,
    group_exprs: &[Expr],
    aggs: &[AggregateItem],
    rng: &mut dyn FnMut() -> f64,
) -> EngineResult<AggregatedFrame> {
    execute_aggregation_with(input, group_exprs, aggs, rng, &ThreadPool::serial())
}

/// Morsel-parallel hash aggregation: grouping and the per-aggregate folds run
/// one partial state per morsel across the pool; partial states merge in
/// morsel order, so the result is bit-identical at any thread count.
pub fn execute_aggregation_with(
    input: &Table,
    group_exprs: &[Expr],
    aggs: &[AggregateItem],
    rng: &mut dyn FnMut() -> f64,
    pool: &ThreadPool,
) -> EngineResult<AggregatedFrame> {
    // Evaluate group keys and aggregate arguments over the input frame.
    let mut key_cols: Vec<Column> = Vec::with_capacity(group_exprs.len());
    for g in group_exprs {
        let mut ctx = EvalContext { table: input, rng };
        key_cols.push(eval_expr(g, &mut ctx)?);
    }
    let mut arg_cols: Vec<Option<Column>> = Vec::with_capacity(aggs.len());
    for item in aggs {
        if matches!(item.func, AggFunc::CountStar) {
            arg_cols.push(None);
        } else {
            let arg = item.call.args.first().ok_or_else(|| {
                EngineError::Execution(format!("aggregate {} requires an argument", item.call.name))
            })?;
            let mut ctx = EvalContext { table: input, rng };
            arg_cols.push(Some(eval_expr(arg, &mut ctx)?));
        }
    }
    aggregate_evaluated(
        &key_cols,
        &arg_cols,
        group_exprs,
        aggs,
        &input.schema,
        input.num_rows(),
        pool,
    )
}

/// The aggregation core over **pre-evaluated** group-key and argument
/// columns: canonical-hash grouping, one accumulator fold per aggregate, and
/// output-frame assembly.
///
/// This is the single numeric path shared by the one-shot executor
/// ([`execute_aggregation_with`], which evaluates the expressions itself) and
/// the progressive block-scan executor
/// ([`crate::exec::progressive::ProgressiveScan`], which buffers
/// block-evaluated columns and snapshots the prefix).  Sharing it is what
/// makes a progressive run's final frame bit-identical to the one-shot
/// answer: identical input columns take identical morsel decompositions,
/// accumulator folds, and morsel-order merges, at any pool size.
///
/// `input_schema` is the schema the group/argument expressions were
/// evaluated against (used only for output-type inference); `n` is the row
/// count of every evaluated column.
pub fn aggregate_evaluated(
    key_cols: &[Column],
    arg_cols: &[Option<Column>],
    group_exprs: &[Expr],
    aggs: &[AggregateItem],
    input_schema: &crate::schema::Schema,
    n: usize,
    pool: &ThreadPool,
) -> EngineResult<AggregatedFrame> {
    let grouping = group_rows_with(key_cols, n, pool);
    // A global aggregation over zero rows still produces one output row.
    let global_empty = group_exprs.is_empty() && grouping.num_groups() == 0;
    let num_groups = if global_empty {
        1
    } else {
        grouping.num_groups()
    };

    // Fold each aggregate over its typed argument column, one partial state
    // per morsel, merged in morsel order.  High-cardinality groupings fall
    // back to a single fold: replicating num_groups-sized accumulators per
    // morsel would cost more memory than the fold saves in time.  Both
    // conditions depend only on the data, never on the thread count, so a
    // given query always takes the same numeric path.
    let morsel_count = ThreadPool::morsels(n).len();
    let low_cardinality = num_groups.saturating_mul(morsel_count) <= 4 * n.max(1);
    let mut agg_columns: Vec<Column> = Vec::with_capacity(aggs.len());
    for (item, arg) in aggs.iter().zip(arg_cols.iter()) {
        let acc = if morsel_count > 1 && low_cardinality && GroupAcc::mergeable(&item.func) {
            let partials = pool.run_morsels(n, |range| {
                let mut partial = GroupAcc::new(&item.func, arg.as_ref(), num_groups);
                partial.update_range(arg.as_ref(), &grouping.gids, range);
                partial
            });
            partials
                .into_iter()
                .reduce(|mut merged, partial| {
                    merged.merge(partial);
                    merged
                })
                .unwrap_or_else(|| GroupAcc::new(&item.func, arg.as_ref(), num_groups))
        } else {
            let mut acc = GroupAcc::new(&item.func, arg.as_ref(), num_groups);
            acc.update_range(arg.as_ref(), &grouping.gids, 0..n);
            acc
        };
        agg_columns.push(acc.finish(&item.func)?);
    }

    // Build the output schema and columns.
    let mut fields: Vec<Field> = Vec::new();
    let mut replacements: Vec<(Expr, Expr)> = Vec::new();
    for (i, g) in group_exprs.iter().enumerate() {
        let (field, reference) = match g {
            Expr::Column { table, name } => (
                Field {
                    qualifier: table.as_ref().map(|t| t.to_ascii_lowercase()),
                    name: name.to_ascii_lowercase(),
                    data_type: infer_type(g, input_schema),
                },
                Expr::Column {
                    table: table.clone(),
                    name: name.clone(),
                },
            ),
            other => {
                let name = format!("__gk{i}");
                (
                    Field::new(&name, infer_type(other, input_schema)),
                    Expr::col(name.clone()),
                )
            }
        };
        fields.push(field);
        replacements.push((g.clone(), reference));
    }
    for item in aggs {
        let input_type = item
            .call
            .args
            .first()
            .map(|a| infer_type(a, input_schema))
            .unwrap_or(DataType::Int);
        fields.push(Field::new(
            &item.output_name,
            item.func.output_type(input_type),
        ));
        replacements.push((
            Expr::Function(item.call.clone()),
            Expr::col(item.output_name.clone()),
        ));
    }

    // Group-key columns are a typed gather of one representative row per group.
    let mut columns: Vec<Column> = key_cols
        .iter()
        .map(|c| c.take(&grouping.representatives))
        .collect();
    columns.extend(agg_columns);

    Ok(AggregatedFrame {
        table: Table::new(Schema::new(fields), columns)?,
        replacements,
    })
}

/// Replaces, top-down, any sub-expression structurally equal to a replacement
/// key with the corresponding reference expression.
pub fn replace_exprs(expr: &Expr, replacements: &[(Expr, Expr)]) -> Expr {
    for (from, to) in replacements {
        if expr == from {
            return to.clone();
        }
    }
    // No match at this node: rebuild children.
    use verdict_sql::ast::Expr as E;
    match expr {
        E::BinaryOp { left, op, right } => E::BinaryOp {
            left: Box::new(replace_exprs(left, replacements)),
            op: *op,
            right: Box::new(replace_exprs(right, replacements)),
        },
        E::UnaryOp { op, expr } => E::UnaryOp {
            op: *op,
            expr: Box::new(replace_exprs(expr, replacements)),
        },
        E::Function(f) => {
            let mut f = f.clone();
            f.args = f
                .args
                .iter()
                .map(|a| replace_exprs(a, replacements))
                .collect();
            if let Some(w) = &mut f.over {
                w.partition_by = w
                    .partition_by
                    .iter()
                    .map(|p| replace_exprs(p, replacements))
                    .collect();
                for o in &mut w.order_by {
                    o.expr = replace_exprs(&o.expr, replacements);
                }
            }
            E::Function(f)
        }
        E::Case {
            operand,
            when_then,
            else_expr,
        } => E::Case {
            operand: operand
                .as_ref()
                .map(|o| Box::new(replace_exprs(o, replacements))),
            when_then: when_then
                .iter()
                .map(|(w, t)| {
                    (
                        replace_exprs(w, replacements),
                        replace_exprs(t, replacements),
                    )
                })
                .collect(),
            else_expr: else_expr
                .as_ref()
                .map(|e| Box::new(replace_exprs(e, replacements))),
        },
        E::IsNull { expr, negated } => E::IsNull {
            expr: Box::new(replace_exprs(expr, replacements)),
            negated: *negated,
        },
        E::InList {
            expr,
            list,
            negated,
        } => E::InList {
            expr: Box::new(replace_exprs(expr, replacements)),
            list: list
                .iter()
                .map(|e| replace_exprs(e, replacements))
                .collect(),
            negated: *negated,
        },
        E::Between {
            expr,
            low,
            high,
            negated,
        } => E::Between {
            expr: Box::new(replace_exprs(expr, replacements)),
            low: Box::new(replace_exprs(low, replacements)),
            high: Box::new(replace_exprs(high, replacements)),
            negated: *negated,
        },
        E::Like {
            expr,
            pattern,
            negated,
        } => E::Like {
            expr: Box::new(replace_exprs(expr, replacements)),
            pattern: Box::new(replace_exprs(pattern, replacements)),
            negated: *negated,
        },
        E::Cast { expr, data_type } => E::Cast {
            expr: Box::new(replace_exprs(expr, replacements)),
            data_type: *data_type,
        },
        E::Nested(e) => E::Nested(Box::new(replace_exprs(e, replacements))),
        other => other.clone(),
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
        let group_exprs: Vec<Expr> = group.iter().map(|g| parse_expression(g).unwrap()).collect();
        let agg_exprs: Vec<Expr> = aggs.iter().map(|a| parse_expression(a).unwrap()).collect();
        let refs: Vec<&Expr> = agg_exprs.iter().collect();
        let items = collect_aggregate_calls(&refs).unwrap();
        let mut rng = seeded_uniform(1);
        execute_aggregation(&t, &group_exprs, &items, &mut rng)
            .unwrap()
            .table
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
        let v = quantile_of(vec![1.0, 2.0, 3.0, 4.0], 0.5);
        assert_eq!(v, Value::Float(2.5));
        let v = quantile_of(vec![1.0, 2.0, 3.0, 4.0, 5.0], 0.25);
        assert_eq!(v, Value::Float(2.0));
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
        let replaced = replace_exprs(&proj, &replacements);
        let printed = print_expr(&replaced, &GenericDialect);
        assert_eq!(printed, "__agg0 / __agg1");
    }

    #[test]
    fn approximate_count_distinct_close_to_exact() {
        let n = 20_000;
        let t = TableBuilder::new()
            .int_column("k", (0..n).map(|i| i % 5000).collect())
            .build()
            .unwrap();
        let e = parse_expression("ndv(k)").unwrap();
        let items = collect_aggregate_calls(&[&e]).unwrap();
        let mut rng = seeded_uniform(1);
        let out = execute_aggregation(&t, &[], &items, &mut rng)
            .unwrap()
            .table;
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
            let group = parse_expression("k").unwrap();
            let agg_exprs: Vec<Expr> = [
                "count(*)",
                "count(v)",
                "sum(v)",
                "avg(v)",
                "min(v)",
                "max(v)",
                "stddev(v)",
                "median(v)",
            ]
            .iter()
            .map(|a| parse_expression(a).unwrap())
            .collect();
            let refs: Vec<&Expr> = agg_exprs.iter().collect();
            let items = collect_aggregate_calls(&refs).unwrap();
            let mut rng = seeded_uniform(1);
            let pool = ThreadPool::new(threads);
            execute_aggregation_with(&t, std::slice::from_ref(&group), &items, &mut rng, &pool)
                .unwrap()
                .table
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
