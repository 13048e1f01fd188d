//! The scalar reference for the Answer Rewriter.
//!
//! This is `verdict_core::answer::assemble` as it stood before the compiled,
//! columnar rewrite, moved here verbatim: every row of the rewritten result
//! is boxed into `Value`s and keyed by a `Vec<KeyValue>`, every subsample
//! cell is a `HashMap<usize, f64>`, and the output expressions are
//! interpreted per cell, matching aggregate calls by their printed SQL text.
//! It stays as the oracle of the differential property test
//! (`tests/properties.rs`) and as the scalar side of the `assemble_6g_7agg`
//! kernel row; no product code calls it.
//!
//! Two behaviours of this reference are defects the product path fixed (and
//! the differential test exempts): a group-key column is typed from the
//! first group's `Value` (a leading NULL key types the column `Str`), and a
//! HAVING predicate that evaluates to SQL NULL keeps its group.

use std::collections::HashMap;
use verdict_core::answer::{AggEstimate, AssembledAnswer, ColumnErrorSummary};
use verdict_core::rewrite::{columns, AggClass, OutputColumn, QueryAnalysis, RewriteOutput};
use verdict_core::stats::{normal_critical_value, stddev, weighted_mean};
use verdict_core::{VerdictConfig, VerdictError, VerdictResult};
use verdict_engine::{Column, DataType, Field, KeyValue, Schema, Table, Value};
use verdict_sql::ast::{BinaryOp, Expr, UnaryOp};
use verdict_sql::dialect::GenericDialect;
use verdict_sql::printer::print_expr;

#[derive(Debug, Default, Clone)]
struct GroupData {
    key_values: Vec<Value>,
    /// One entry per subsample cell: (subsample size, per-aggregate estimate).
    cells: Vec<(f64, HashMap<usize, f64>)>,
    distinct: HashMap<usize, AggEstimate>,
    extreme: HashMap<usize, Value>,
}

/// Assembles the final answer from the raw results of the rewritten parts —
/// the reference implementation `verdict_core::answer::assemble` is compared
/// against.
pub fn scalar_assemble(
    rewrite: &RewriteOutput,
    mean_result: Option<&Table>,
    distinct_result: Option<&Table>,
    extreme_result: Option<&Table>,
    config: &VerdictConfig,
) -> VerdictResult<AssembledAnswer> {
    let analysis = &rewrite.analysis;
    let group_count = analysis.group_by.len();
    let mut groups: HashMap<Vec<KeyValue>, GroupData> = HashMap::new();
    let mut group_order: Vec<Vec<KeyValue>> = Vec::new();

    // --- mean-like part -----------------------------------------------------
    if let Some(table) = mean_result {
        let sid_idx = required_column(table, columns::SID)?;
        let size_idx = required_column(table, columns::SUB_SIZE)?;
        let group_idxs = group_columns(table, group_count)?;
        let mut est_idxs: HashMap<usize, usize> = HashMap::new();
        for spec in &analysis.aggregates {
            if spec.class == AggClass::MeanLike {
                let col = format!("{}{}", columns::EST_PREFIX, spec.index);
                est_idxs.insert(spec.index, required_column(table, &col)?);
            }
        }
        for row in 0..table.num_rows() {
            let key: Vec<KeyValue> = group_idxs
                .iter()
                .map(|&c| KeyValue::from_value(&table.value_at(row, c)))
                .collect();
            let entry = groups.entry(key.clone()).or_insert_with(|| {
                group_order.push(key.clone());
                GroupData {
                    key_values: group_idxs.iter().map(|&c| table.value_at(row, c)).collect(),
                    ..GroupData::default()
                }
            });
            let size = table.value(row, size_idx).as_f64().unwrap_or(0.0);
            let mut cell = HashMap::new();
            for (agg_idx, col_idx) in &est_idxs {
                if let Some(v) = table.value(row, *col_idx).as_f64() {
                    cell.insert(*agg_idx, v);
                }
            }
            let _ = table.value(row, sid_idx); // sid itself is not needed beyond grouping
            entry.cells.push((size, cell));
        }
    }

    // --- count-distinct part --------------------------------------------------
    if let (Some(table), Some((_, scales))) = (distinct_result, &rewrite.distinct_query) {
        let group_idxs = group_columns(table, group_count)?;
        for spec in &analysis.aggregates {
            if spec.class != AggClass::Distinct {
                continue;
            }
            let col = format!("{}{}", columns::DISTINCT_PREFIX, spec.index);
            let col_idx = required_column(table, &col)?;
            let scale = *scales.get(&spec.index).unwrap_or(&1.0);
            for row in 0..table.num_rows() {
                let key: Vec<KeyValue> = group_idxs
                    .iter()
                    .map(|&c| KeyValue::from_value(&table.value_at(row, c)))
                    .collect();
                let entry = groups.entry(key.clone()).or_insert_with(|| {
                    group_order.push(key.clone());
                    GroupData {
                        key_values: group_idxs.iter().map(|&c| table.value_at(row, c)).collect(),
                        ..GroupData::default()
                    }
                });
                let raw = table.value(row, col_idx).as_f64().unwrap_or(0.0);
                let estimate = raw * scale;
                // Binomial-style error: the observed distinct count is roughly
                // Binomial(D, 1/scale), so sd(D̂) ≈ scale * sqrt(raw * (1 - 1/scale)).
                let error = if scale > 1.0 {
                    normal_critical_value(config.confidence)
                        * scale
                        * (raw * (1.0 - 1.0 / scale)).max(0.0).sqrt()
                } else {
                    0.0
                };
                entry
                    .distinct
                    .insert(spec.index, AggEstimate { estimate, error });
            }
        }
    }

    // --- extreme part ---------------------------------------------------------
    if let Some(table) = extreme_result {
        let group_idxs = group_columns(table, group_count)?;
        for spec in &analysis.aggregates {
            if spec.class != AggClass::Extreme {
                continue;
            }
            let col = format!("{}{}", columns::EXTREME_PREFIX, spec.index);
            let col_idx = required_column(table, &col)?;
            for row in 0..table.num_rows() {
                let key: Vec<KeyValue> = group_idxs
                    .iter()
                    .map(|&c| KeyValue::from_value(&table.value_at(row, c)))
                    .collect();
                let entry = groups.entry(key.clone()).or_insert_with(|| {
                    group_order.push(key.clone());
                    GroupData {
                        key_values: group_idxs.iter().map(|&c| table.value_at(row, c)).collect(),
                        ..GroupData::default()
                    }
                });
                entry
                    .extreme
                    .insert(spec.index, table.value(row, col_idx).clone());
            }
        }
    }

    build_output(
        analysis,
        &groups,
        &group_order,
        config,
        rewrite.subsample_count,
    )
}

/// How per-subsample estimates of one aggregate are combined into the group's
/// point estimate.
///
/// Count and sum estimates are `b`-scaled HT totals of disjoint subsamples,
/// so summing them and dividing by the total number of subsamples `b`
/// recovers exactly the full-sample HT estimate (subsamples that happened to
/// receive no tuples contribute an implicit 0).  Ratio and scale-free
/// statistics (avg, variance, stddev, median, quantile) are combined as a
/// subsample-size-weighted mean.
fn combine_estimates(call_name: &str, values: &[f64], weights: &[f64], b: u64) -> f64 {
    match call_name {
        "count" | "sum" => values.iter().sum::<f64>() / b.max(1) as f64,
        _ => weighted_mean(values, weights),
    }
}

fn required_column(table: &Table, name: &str) -> VerdictResult<usize> {
    table
        .schema
        .index_of(name)
        .ok_or_else(|| VerdictError::Answer(format!("rewritten result is missing column {name}")))
}

fn group_columns(table: &Table, group_count: usize) -> VerdictResult<Vec<usize>> {
    (0..group_count)
        .map(|i| required_column(table, &format!("{}{i}", columns::GROUP_PREFIX)))
        .collect()
}

fn build_output(
    analysis: &QueryAnalysis,
    groups: &HashMap<Vec<KeyValue>, GroupData>,
    group_order: &[Vec<KeyValue>],
    config: &VerdictConfig,
    subsample_count: u64,
) -> VerdictResult<AssembledAnswer> {
    let z = normal_critical_value(config.confidence);

    // Per group, per aggregate index: point estimate and error.
    let mut per_group: Vec<(Vec<Value>, HashMap<usize, AggEstimate>, &GroupData)> = Vec::new();
    for key in group_order {
        let data = &groups[key];
        let mut estimates: HashMap<usize, AggEstimate> = HashMap::new();
        for spec in &analysis.aggregates {
            match spec.class {
                AggClass::MeanLike => {
                    let mut values = Vec::new();
                    let mut weights = Vec::new();
                    for (size, cell) in &data.cells {
                        if let Some(v) = cell.get(&spec.index) {
                            values.push(*v);
                            weights.push(*size);
                        }
                    }
                    if values.is_empty() {
                        continue;
                    }
                    let estimate =
                        combine_estimates(&spec.call.name, &values, &weights, subsample_count);
                    let total: f64 = weights.iter().sum();
                    let avg_size = total / weights.len() as f64;
                    let sigma = if values.len() > 1 && total > 0.0 {
                        stddev(&values) * avg_size.sqrt() / total.sqrt()
                    } else {
                        0.0
                    };
                    estimates.insert(
                        spec.index,
                        AggEstimate {
                            estimate,
                            error: z * sigma,
                        },
                    );
                }
                AggClass::Distinct => {
                    if let Some(e) = data.distinct.get(&spec.index) {
                        estimates.insert(spec.index, *e);
                    }
                }
                AggClass::Extreme => {
                    if let Some(v) = data.extreme.get(&spec.index) {
                        estimates.insert(
                            spec.index,
                            AggEstimate {
                                estimate: v.as_f64().unwrap_or(f64::NAN),
                                error: 0.0,
                            },
                        );
                    }
                }
            }
        }
        per_group.push((data.key_values.clone(), estimates, data));
    }

    // Apply HAVING using the estimated aggregates.
    if let Some(having) = &analysis.having {
        per_group.retain(|(key_values, estimates, _)| {
            evaluate_predicate(having, analysis, key_values, estimates).unwrap_or(true)
        });
    }

    // Build the output as typed columns: group keys keep their inferred
    // type, aggregate estimates and their `_err` companions are nullable
    // Float64 columns built without per-cell boxing.
    let mut fields: Vec<Field> = Vec::new();
    let mut columns: Vec<Column> = Vec::new();
    let mut error_summaries: Vec<ColumnErrorSummary> = Vec::new();

    for out in &analysis.output {
        match out {
            OutputColumn::GroupKey { index, name } => {
                let dt = per_group
                    .first()
                    .and_then(|(kv, _, _)| kv.get(*index))
                    .and_then(|v| v.data_type())
                    .unwrap_or(DataType::Str);
                fields.push(Field::new(name, dt));
                let keys: Vec<Value> = per_group
                    .iter()
                    .map(|(kv, _, _)| kv.get(*index).cloned().unwrap_or(Value::Null))
                    .collect();
                columns.push(Column::from_values_typed(dt, &keys));
            }
            OutputColumn::Aggregate { expr, name } => {
                let mut values: Vec<Option<f64>> = Vec::with_capacity(per_group.len());
                let mut errors: Vec<Option<f64>> = Vec::with_capacity(per_group.len());
                let mut rel_errors = Vec::new();
                for (key_values, estimates, data) in &per_group {
                    let est =
                        evaluate_aggregate_output(expr, analysis, key_values, estimates, data, z);
                    match est {
                        Some(e) => {
                            values.push(Some(e.estimate));
                            errors.push(Some(e.error));
                            rel_errors.push(e.relative_error());
                        }
                        None => {
                            values.push(None);
                            errors.push(None);
                        }
                    }
                }
                fields.push(Field::new(name, DataType::Float));
                columns.push(Column::from_opt_f64(values));
                if config.include_error_columns {
                    fields.push(Field::new(&format!("{name}_err"), DataType::Float));
                    columns.push(Column::from_opt_f64(errors));
                }
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
                        column: name.clone(),
                        mean_relative_error,
                        max_relative_error: rel_errors.iter().cloned().fold(0.0, f64::max),
                    });
                }
            }
        }
    }

    let mut table = Table::new(Schema::new(fields), columns)
        .map_err(|e| VerdictError::Answer(e.to_string()))?;

    // ORDER BY and LIMIT, evaluated on the assembled output.
    if !analysis.order_by.is_empty() && table.num_rows() > 1 {
        let mut indices: Vec<usize> = (0..table.num_rows()).collect();
        let keys: Vec<Option<usize>> = analysis
            .order_by
            .iter()
            .map(|o| order_key_column(&o.expr, analysis, &table))
            .collect();
        indices.sort_by(|&a, &b| {
            for (key, item) in keys.iter().zip(analysis.order_by.iter()) {
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

/// Evaluates an aggregate output expression for one group.
///
/// When every aggregate in the expression is mean-like, the expression is
/// evaluated per subsample and re-combined (so e.g. `sum(a)/sum(b)` gets a
/// proper variational error estimate); otherwise it is evaluated over the
/// point estimates, and the error is taken from the single aggregate call
/// when the expression is exactly one call.
fn evaluate_aggregate_output(
    expr: &Expr,
    analysis: &QueryAnalysis,
    key_values: &[Value],
    estimates: &HashMap<usize, AggEstimate>,
    data: &GroupData,
    z: f64,
) -> Option<AggEstimate> {
    let specs_in_expr: Vec<usize> = analysis
        .aggregates
        .iter()
        .filter(|s| expr_contains_call(expr, &s.call))
        .map(|s| s.index)
        .collect();
    let all_mean_like = specs_in_expr.iter().all(|i| {
        analysis
            .aggregates
            .iter()
            .any(|s| s.index == *i && s.class == AggClass::MeanLike)
    });

    // Point estimate: plug the per-aggregate point estimates into the
    // expression (for a bare aggregate this is just that aggregate's estimate).
    let lookup = |e: &Expr| -> Option<Value> {
        for spec in &analysis.aggregates {
            if expr_is_call(e, &spec.call) {
                return estimates.get(&spec.index).map(|v| Value::Float(v.estimate));
            }
        }
        group_value(e, analysis, key_values)
    };
    let value = eval_const(expr, &lookup)?.as_f64()?;

    // Error: when every aggregate in the expression is mean-like, derive it
    // from the spread of the expression evaluated per subsample (so ratios
    // like `sum(a)/sum(b)` get a proper variational error estimate).
    if all_mean_like && !data.cells.is_empty() {
        let mut values = Vec::new();
        let mut weights = Vec::new();
        for (size, cell) in &data.cells {
            let cell_lookup = |e: &Expr| -> Option<Value> {
                for spec in &analysis.aggregates {
                    if expr_is_call(e, &spec.call) {
                        return cell.get(&spec.index).map(|v| Value::Float(*v));
                    }
                }
                group_value(e, analysis, key_values)
            };
            if let Some(v) = eval_const(expr, &cell_lookup).and_then(|v| v.as_f64()) {
                if v.is_finite() {
                    values.push(v);
                    weights.push(*size);
                }
            }
        }
        if values.len() > 1 {
            let total: f64 = weights.iter().sum();
            let avg_size = total / weights.len() as f64;
            let sigma = if total > 0.0 {
                stddev(&values) * avg_size.sqrt() / total.sqrt()
            } else {
                0.0
            };
            return Some(AggEstimate {
                estimate: value,
                error: z * sigma,
            });
        }
    }

    // Fallback error: exact when the expression is a single aggregate call.
    let error = if specs_in_expr.len() == 1 && expr_is_single_call(expr) {
        estimates
            .get(&specs_in_expr[0])
            .map(|e| e.error)
            .unwrap_or(0.0)
    } else {
        0.0
    };
    Some(AggEstimate {
        estimate: value,
        error,
    })
}

fn evaluate_predicate(
    pred: &Expr,
    analysis: &QueryAnalysis,
    key_values: &[Value],
    estimates: &HashMap<usize, AggEstimate>,
) -> Option<bool> {
    let lookup = |e: &Expr| -> Option<Value> {
        for spec in &analysis.aggregates {
            if expr_is_call(e, &spec.call) {
                return estimates.get(&spec.index).map(|v| Value::Float(v.estimate));
            }
        }
        group_value(e, analysis, key_values)
    };
    eval_const(pred, &lookup)?.as_bool()
}

fn group_value(e: &Expr, analysis: &QueryAnalysis, key_values: &[Value]) -> Option<Value> {
    if let Expr::Column { name, .. } = e {
        for (i, g) in analysis.group_by.iter().enumerate() {
            if let Expr::Column { name: gname, .. } = g {
                if gname.eq_ignore_ascii_case(name) {
                    return key_values.get(i).cloned();
                }
            }
        }
    }
    None
}

fn expr_is_call(e: &Expr, call: &verdict_sql::ast::FunctionCall) -> bool {
    match e {
        Expr::Function(f) => {
            print_expr(&Expr::Function(f.clone()), &GenericDialect)
                == print_expr(&Expr::Function(call.clone()), &GenericDialect)
        }
        Expr::Nested(inner) => expr_is_call(inner, call),
        _ => false,
    }
}

fn expr_contains_call(expr: &Expr, call: &verdict_sql::ast::FunctionCall) -> bool {
    let mut found = false;
    verdict_sql::visitor::walk_expr(expr, &mut |e| {
        if expr_is_call(e, call) {
            found = true;
        }
    });
    found
}

fn expr_is_single_call(expr: &Expr) -> bool {
    matches!(expr, Expr::Function(_))
        || matches!(expr, Expr::Nested(inner) if expr_is_single_call(inner))
}

/// A tiny constant-expression evaluator used to recombine aggregate estimates
/// (e.g. `100 * sum(a) / sum(b)`) and to apply HAVING / ORDER BY on the
/// middleware side.  The `lookup` closure is consulted at every node first,
/// which is how aggregate calls and group columns get their values.
fn eval_const(expr: &Expr, lookup: &dyn Fn(&Expr) -> Option<Value>) -> Option<Value> {
    if let Some(v) = lookup(expr) {
        return Some(v);
    }
    match expr {
        Expr::Literal(l) => Some(match l {
            verdict_sql::ast::Literal::Null => Value::Null,
            verdict_sql::ast::Literal::Boolean(b) => Value::Bool(*b),
            verdict_sql::ast::Literal::Integer(i) => Value::Float(*i as f64),
            verdict_sql::ast::Literal::Float(f) => Value::Float(*f),
            verdict_sql::ast::Literal::String(s) => Value::Str(s.clone()),
        }),
        Expr::Nested(e) => eval_const(e, lookup),
        Expr::UnaryOp {
            op: UnaryOp::Minus,
            expr,
        } => {
            let v = eval_const(expr, lookup)?.as_f64()?;
            Some(Value::Float(-v))
        }
        Expr::UnaryOp {
            op: UnaryOp::Plus,
            expr,
        } => eval_const(expr, lookup),
        Expr::UnaryOp {
            op: UnaryOp::Not,
            expr,
        } => {
            let v = eval_const(expr, lookup)?.as_bool()?;
            Some(Value::Bool(!v))
        }
        Expr::BinaryOp { left, op, right } => {
            let l = eval_const(left, lookup)?;
            let r = eval_const(right, lookup)?;
            match op {
                BinaryOp::And => Some(Value::Bool(l.as_bool()? && r.as_bool()?)),
                BinaryOp::Or => Some(Value::Bool(l.as_bool()? || r.as_bool()?)),
                op if op.is_comparison() => {
                    let ord = l.sql_cmp(&r)?;
                    use std::cmp::Ordering::*;
                    let b = match op {
                        BinaryOp::Eq => ord == Equal,
                        BinaryOp::NotEq => ord != Equal,
                        BinaryOp::Lt => ord == Less,
                        BinaryOp::LtEq => ord != Greater,
                        BinaryOp::Gt => ord == Greater,
                        BinaryOp::GtEq => ord != Less,
                        _ => unreachable!(),
                    };
                    Some(Value::Bool(b))
                }
                _ => {
                    let (x, y) = (l.as_f64()?, r.as_f64()?);
                    let v = match op {
                        BinaryOp::Plus => x + y,
                        BinaryOp::Minus => x - y,
                        BinaryOp::Multiply => x * y,
                        BinaryOp::Divide => {
                            if y == 0.0 {
                                return Some(Value::Null);
                            }
                            x / y
                        }
                        BinaryOp::Modulo => {
                            if y == 0.0 {
                                return Some(Value::Null);
                            }
                            x % y
                        }
                        _ => return None,
                    };
                    Some(Value::Float(v))
                }
            }
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Synthetic rewritten results, for the differential test and the kernel row
// ---------------------------------------------------------------------------

/// Analyses and rewrites `sql` under a plan that gives every table a uniform
/// scramble, without touching any data: what assembly needs of a statement.
pub fn synthetic_rewrite(sql: &str, config: &VerdictConfig) -> RewriteOutput {
    use verdict_core::planner::{SamplePlan, TableChoice, TableRef};
    use verdict_core::rewrite::{analyze_query, rewrite};
    use verdict_core::{SampleMeta, SampleType};
    let query = match verdict_sql::parse_statement(sql) {
        Ok(verdict_sql::ast::Statement::Query(q)) => q,
        other => panic!("not a query: {sql}: {other:?}"),
    };
    let analysis = analyze_query(&query).expect("statement in the supported class");
    let rows = 1_000_000;
    let choices = analysis
        .tables
        .iter()
        .map(|t| TableChoice {
            table_ref: TableRef {
                alias: t.alias.clone(),
                table: t.table.clone(),
                rows,
                join_equalities: analysis.join_equalities.clone(),
            },
            sample: Some(SampleMeta {
                base_table: t.table.clone(),
                sample_table: format!("verdict_sample_{}_uniform", t.table),
                sample_type: SampleType::Uniform,
                ratio: 0.01,
                sample_rows: rows / 100,
                base_rows: rows,
                appended_rows: 0,
            }),
        })
        .collect();
    let plan = SamplePlan {
        choices,
        score: 1.0,
        io_cost: rows / 100,
        effective_ratio: 0.01,
        universe: Vec::new(),
    };
    rewrite(&analysis, &plan, config).expect("rewritable under a uniform plan")
}

/// The type of one synthetic group-key column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyKind {
    /// `Int64`.
    Int,
    /// `Float64` (non-integral values).
    Float,
    /// `Utf8`.
    Str,
}

/// Shape of a synthetic rewritten result.
#[derive(Debug, Clone)]
pub struct ResultShape {
    /// Output groups in the mean result (0 = an empty result).
    pub groups: usize,
    /// Subsample cells per group; with `ragged`, each group draws between 1
    /// and this many.
    pub cells: usize,
    /// Whether groups differ in their number of cells.
    pub ragged: bool,
    /// Probability that an estimate cell is NULL.
    pub null_rate: f64,
    /// Probability that an estimate cell is exactly 0 (divide-by-zero food).
    pub zero_rate: f64,
    /// Whether a group may have no valid cell at all for some aggregate.
    pub all_null_groups: bool,
    /// One entry per GROUP BY column.  The first of several columns is
    /// coarse (it repeats across groups); a lone or later column is unique
    /// per group.
    pub keys: Vec<KeyKind>,
    /// The group (never the first) whose last key column is NULL.
    pub null_key_group: Option<usize>,
}

/// Generates the (mean, distinct, extreme) results `rewrite`'s queries could
/// have returned, in the rewriter's column layout.  Mean rows are emitted
/// subsample-major so the rows of one group are scattered through the table.
/// The side results (one row per group) lack the mean result's first group
/// and carry one group the mean result does not have.
pub fn synthetic_results(
    rewrite: &RewriteOutput,
    shape: &ResultShape,
    seed: u64,
) -> (Option<Table>, Option<Table>, Option<Table>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use verdict_engine::TableBuilder;
    let mut rng = StdRng::seed_from_u64(seed);
    let analysis = &rewrite.analysis;

    // key columns for a list of group numbers
    let key_columns = |mut builder: TableBuilder, groups: &[usize]| -> TableBuilder {
        for (c, kind) in shape.keys.iter().enumerate() {
            let last = c + 1 == shape.keys.len();
            let ordinal = |g: usize| if last { g } else { g % 2 };
            let null = |g: usize| last && shape.null_key_group == Some(g);
            let name = format!("{}{c}", columns::GROUP_PREFIX);
            let column = match kind {
                KeyKind::Int => Column::from_opt_i64(
                    groups
                        .iter()
                        .map(|&g| (!null(g)).then_some(ordinal(g) as i64))
                        .collect(),
                ),
                KeyKind::Float => Column::from_opt_f64(
                    groups
                        .iter()
                        .map(|&g| (!null(g)).then_some(ordinal(g) as f64 + 0.5))
                        .collect(),
                ),
                KeyKind::Str => Column::from_opt_str(
                    groups
                        .iter()
                        .map(|&g| (!null(g)).then(|| format!("g{}", ordinal(g))))
                        .collect(),
                ),
            };
            builder = builder.column(&name, column);
        }
        builder
    };

    let mean = rewrite.mean_query.as_ref().map(|_| {
        let cells_of: Vec<usize> = (0..shape.groups)
            .map(|_| {
                if shape.ragged {
                    rng.gen_range(1..=shape.cells)
                } else {
                    shape.cells
                }
            })
            .collect();
        let mut row_groups = Vec::new();
        let mut sids = Vec::new();
        for sid in 0..shape.cells {
            for (g, &cells) in cells_of.iter().enumerate() {
                if sid < cells {
                    row_groups.push(g);
                    sids.push(sid as i64 + 1);
                }
            }
        }
        let mut builder = key_columns(TableBuilder::new(), &row_groups);
        for spec in &analysis.aggregates {
            if spec.class != AggClass::MeanLike {
                continue;
            }
            let estimates: Vec<Option<f64>> = sids
                .iter()
                .map(|&sid| {
                    let keep_valid = sid == 1 && !shape.all_null_groups;
                    if !keep_valid && rng.gen_bool(shape.null_rate) {
                        None
                    } else if rng.gen_bool(shape.zero_rate) {
                        Some(0.0)
                    } else {
                        Some(50.0 + 100.0 * rng.gen::<f64>())
                    }
                })
                .collect();
            let name = format!("{}{}", columns::EST_PREFIX, spec.index);
            builder = builder.column(&name, Column::from_opt_f64(estimates));
        }
        let sizes = row_groups.iter().map(|_| rng.gen_range(1..40)).collect();
        builder
            .int_column(columns::SID, sids)
            .int_column(columns::SUB_SIZE, sizes)
            .build()
            .expect("synthetic mean result")
    });

    let mut side = |class: AggClass, prefix: &str| {
        let groups: Vec<usize> = (1..=shape.groups).collect();
        let mut builder = key_columns(TableBuilder::new(), &groups);
        for spec in analysis.aggregates.iter().filter(|s| s.class == class) {
            let values = groups
                .iter()
                .map(|_| (!rng.gen_bool(shape.null_rate)).then(|| rng.gen_range(1..500) as f64))
                .collect();
            let name = format!("{prefix}{}", spec.index);
            builder = builder.column(&name, Column::from_opt_f64(values));
        }
        builder.build().expect("synthetic side result")
    };
    let distinct = rewrite
        .distinct_query
        .as_ref()
        .map(|_| side(AggClass::Distinct, columns::DISTINCT_PREFIX));
    let extreme = rewrite
        .extreme_query
        .as_ref()
        .map(|_| side(AggClass::Extreme, columns::EXTREME_PREFIX));
    (mean, distinct, extreme)
}
