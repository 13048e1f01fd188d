//! Vectorized expression evaluation over an in-memory [`Table`].
//!
//! Expressions are evaluated directly from the AST, producing one typed
//! output [`Column`] per call.  Arithmetic, comparisons, boolean logic,
//! BETWEEN, IS NULL, and CAST run as typed kernels (see [`crate::kernels`]);
//! only genuinely dynamic constructs (CASE branches, unusual type mixes) fall
//! back to per-row [`Value`] materialisation.
//!
//! Aggregate and window function calls are *not* handled here — the executor
//! replaces them with plain column references into the aggregated frame
//! before projecting (see `exec::aggregate`).

use crate::column::Column;
use crate::error::{EngineError, EngineResult};
use crate::functions::{eval_scalar_function, is_scalar_function, like_match};
use crate::kernels;
use crate::table::Table;
use crate::value::{DataType, Value};
use std::borrow::Cow;
use verdict_sql::ast::{BinaryOp, CastType, Expr, Literal, UnaryOp};

/// Evaluation context: the frame the expression is evaluated against plus a
/// uniform random source for `rand()`.
pub struct EvalContext<'a> {
    /// The frame whose rows the expression is evaluated against.
    pub table: &'a Table,
    /// Uniform `[0, 1)` random source backing `rand()` calls.
    pub rng: &'a mut dyn FnMut() -> f64,
}

/// Evaluates `expr` against every row of the context's table, returning a column.
pub fn eval_expr(expr: &Expr, ctx: &mut EvalContext<'_>) -> EngineResult<Column> {
    let n = ctx.table.num_rows();
    match expr {
        Expr::Column { table, name } => {
            let idx = ctx.table.schema.resolve(table.as_deref(), name)?;
            Ok(ctx.table.columns[idx].clone())
        }
        Expr::Literal(lit) => Ok(Column::repeat(&literal_value(lit), n)),
        Expr::Wildcard => Err(EngineError::Execution(
            "'*' is only valid inside count(*) or a select list".into(),
        )),
        Expr::BinaryOp { left, op, right } => {
            let l = eval_expr(left, ctx)?;
            let r = eval_expr(right, ctx)?;
            kernels::binary_op(&l, *op, &r)
        }
        Expr::UnaryOp { op, expr } => {
            let inner = eval_expr(expr, ctx)?;
            Ok(match op {
                UnaryOp::Not => kernels::bool_not(&inner),
                UnaryOp::Minus => kernels::negate(&inner),
                UnaryOp::Plus => inner,
            })
        }
        Expr::Function(f) => {
            if f.over.is_some() {
                return Err(EngineError::Execution(
                    "window function must be resolved by the executor before evaluation".into(),
                ));
            }
            if verdict_sql::ast::is_aggregate_function(&f.name) {
                return Err(EngineError::Execution(format!(
                    "aggregate function {} not allowed in this context",
                    f.name
                )));
            }
            if !is_scalar_function(&f.name) {
                return Err(EngineError::Unsupported(format!("function {}", f.name)));
            }
            let mut args = Vec::with_capacity(f.args.len());
            for a in &f.args {
                args.push(eval_expr(a, ctx)?);
            }
            eval_scalar_function(&f.name, &args, n, ctx.rng)
        }
        Expr::Case {
            operand,
            when_then,
            else_expr,
        } => {
            // Each branch's firing condition becomes a boolean mask; the
            // output is assembled row-wise from the first firing branch.
            let mut branch_cols: Vec<Column> = Vec::with_capacity(when_then.len());
            let mut fire_masks: Vec<crate::selvec::SelVec> = Vec::with_capacity(when_then.len());
            let operand_col = match operand {
                Some(op) => Some(eval_expr(op, ctx)?),
                None => None,
            };
            for (w, t) in when_then {
                let cond = eval_expr(w, ctx)?;
                let mask = match &operand_col {
                    Some(op_col) => {
                        kernels::column_to_mask(&kernels::compare(op_col, BinaryOp::Eq, &cond))
                    }
                    None => kernels::column_to_mask(&cond),
                };
                fire_masks.push(mask);
                branch_cols.push(eval_expr(t, ctx)?);
            }
            let else_col = match else_expr {
                Some(e) => Some(eval_expr(e, ctx)?),
                None => None,
            };
            let mut out = Vec::with_capacity(n);
            'rows: for i in 0..n {
                for (mask, col) in fire_masks.iter().zip(branch_cols.iter()) {
                    if mask.get(i) {
                        out.push(col.value_at(i));
                        continue 'rows;
                    }
                }
                out.push(
                    else_col
                        .as_ref()
                        .map(|c| c.value_at(i))
                        .unwrap_or(Value::Null),
                );
            }
            Ok(Column::from_values(&out))
        }
        Expr::IsNull { expr, negated } => {
            let inner = eval_expr(expr, ctx)?;
            Ok(kernels::is_null_column(&inner, *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let target = eval_expr(expr, ctx)?;
            let mut eq_masks: Vec<crate::selvec::SelVec> = Vec::with_capacity(list.len());
            for e in list {
                let item = eval_expr(e, ctx)?;
                eq_masks.push(kernels::column_to_mask(&kernels::compare(
                    &target,
                    BinaryOp::Eq,
                    &item,
                )));
            }
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                if target.is_null_at(i) {
                    out.push(None);
                    continue;
                }
                let found = eq_masks.iter().any(|m| m.get(i));
                out.push(Some(found != *negated));
            }
            Ok(Column::from_opt_bool(out))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_expr(expr, ctx)?;
            let lo = eval_expr(low, ctx)?;
            let hi = eval_expr(high, ctx)?;
            let ge = kernels::compare(&v, BinaryOp::GtEq, &lo);
            let le = kernels::compare(&v, BinaryOp::LtEq, &hi);
            // NULL when either bound comparison is NULL (matching sql_cmp),
            // which is stricter than 3VL AND.
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(match (ge.bool_at(i), le.bool_at(i)) {
                    (Some(a), Some(b)) => Some((a && b) != *negated),
                    _ => None,
                });
            }
            Ok(Column::from_opt_bool(out))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let text = eval_expr(expr, ctx)?;
            let like = |text: Option<Cow<'_, str>>, pattern: Option<&str>| {
                Some(like_match(&text?, pattern?) != *negated)
            };
            let out: Vec<Option<bool>> = match &**pattern {
                // A literal pattern is read once, not copied into every row.
                Expr::Literal(lit) => {
                    let pattern = literal_value(lit).as_str_lossy();
                    (0..n)
                        .map(|i| like(str_cell(&text, i), pattern.as_deref()))
                        .collect()
                }
                _ => {
                    let patterns = eval_expr(pattern, ctx)?;
                    (0..n)
                        .map(|i| like(str_cell(&text, i), str_cell(&patterns, i).as_deref()))
                        .collect()
                }
            };
            Ok(Column::from_opt_bool(out))
        }
        Expr::Cast { expr, data_type } => {
            let inner = eval_expr(expr, ctx)?;
            Ok(kernels::cast_column(&inner, *data_type))
        }
        Expr::Nested(e) => eval_expr(e, ctx),
        Expr::ScalarSubquery(_) | Expr::InSubquery { .. } | Expr::Exists { .. } => {
            Err(EngineError::Execution(
                "subquery must be resolved by the executor before evaluation".into(),
            ))
        }
    }
}

/// Row `i` of `col` as text, `None` when NULL: borrowed from a string
/// column, formatted from any other.
fn str_cell(col: &Column, i: usize) -> Option<Cow<'_, str>> {
    match col.as_strs() {
        Some(strs) => col.is_valid(i).then(|| Cow::Borrowed(strs[i].as_str())),
        None => col.value_at(i).as_str_lossy().map(Cow::Owned),
    }
}

/// Converts an AST literal into a runtime value.
pub fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Null => Value::Null,
        Literal::Boolean(b) => Value::Bool(*b),
        Literal::Integer(i) => Value::Int(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::String(s) => Value::Str(s.clone()),
    }
}

/// Converts a boolean column into a packed selection mask (NULL counts as
/// false).
pub fn column_to_mask(col: &Column) -> crate::selvec::SelVec {
    kernels::column_to_mask(col)
}

/// Infers the static output type of an expression against a schema.  Falls
/// back to `Float` for arithmetic and `Str` when nothing better is known; the
/// engine is dynamically typed so this only affects result-set metadata.
pub fn infer_type(expr: &Expr, schema: &crate::schema::Schema) -> DataType {
    match expr {
        Expr::Column { table, name } => schema
            .resolve(table.as_deref(), name)
            .map(|i| schema.fields[i].data_type)
            .unwrap_or(DataType::Str),
        Expr::Literal(Literal::Integer(_)) => DataType::Int,
        Expr::Literal(Literal::Float(_)) => DataType::Float,
        Expr::Literal(Literal::Boolean(_)) => DataType::Bool,
        Expr::Literal(Literal::String(_)) | Expr::Literal(Literal::Null) => DataType::Str,
        Expr::BinaryOp { left, op, right } => {
            if op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or) {
                DataType::Bool
            } else if matches!(op, BinaryOp::Concat) {
                DataType::Str
            } else {
                let lt = infer_type(left, schema);
                let rt = infer_type(right, schema);
                if matches!(op, BinaryOp::Divide) {
                    DataType::Float
                } else {
                    lt.unify(rt)
                }
            }
        }
        Expr::UnaryOp {
            op: UnaryOp::Not, ..
        } => DataType::Bool,
        Expr::UnaryOp { expr, .. } => infer_type(expr, schema),
        Expr::Function(f) => match f.name.as_str() {
            "count"
            | "ndv"
            | "approx_count_distinct"
            | "verdict_hash"
            | "fnv_hash"
            | "hash"
            | "crc32"
            | "strtol"
            | "length" => DataType::Int,
            "upper" | "lower" | "concat" | "substr" | "substring" => DataType::Str,
            "min" | "max" | "coalesce" | "least" | "greatest" | "if" | "nullif" => f
                .args
                .first()
                .map(|a| infer_type(a, schema))
                .unwrap_or(DataType::Float),
            _ => DataType::Float,
        },
        Expr::Case {
            when_then,
            else_expr,
            ..
        } => when_then
            .first()
            .map(|(_, t)| infer_type(t, schema))
            .or_else(|| else_expr.as_ref().map(|e| infer_type(e, schema)))
            .unwrap_or(DataType::Str),
        Expr::IsNull { .. }
        | Expr::InList { .. }
        | Expr::InSubquery { .. }
        | Expr::Between { .. }
        | Expr::Like { .. }
        | Expr::Exists { .. } => DataType::Bool,
        Expr::Cast { data_type, .. } => match data_type {
            CastType::Integer => DataType::Int,
            CastType::Double => DataType::Float,
            CastType::Varchar => DataType::Str,
            CastType::Boolean => DataType::Bool,
        },
        Expr::Nested(e) => infer_type(e, schema),
        Expr::ScalarSubquery(_) => DataType::Float,
        Expr::Wildcard => DataType::Int,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::seeded_uniform;
    use crate::table::TableBuilder;
    use verdict_sql::parse_expression;

    fn frame() -> Table {
        TableBuilder::new()
            .int_column("a", vec![1, 2, 3, 4])
            .float_column("price", vec![10.0, 25.0, 7.5, 100.0])
            .str_column(
                "city",
                vec!["aa", "dtw", "aa", "chi"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
            )
            .build()
            .unwrap()
    }

    fn eval(sql: &str, t: &Table) -> Vec<Value> {
        let e = parse_expression(sql).unwrap();
        let mut rng = seeded_uniform(7);
        let mut ctx = EvalContext {
            table: t,
            rng: &mut rng,
        };
        eval_expr(&e, &mut ctx).unwrap().to_values()
    }

    #[test]
    fn arithmetic_and_comparison() {
        let t = frame();
        let c = eval("a * 2 + 1", &t);
        assert_eq!(
            c,
            vec![Value::Int(3), Value::Int(5), Value::Int(7), Value::Int(9)]
        );
        let c = eval("price > 10", &t);
        assert_eq!(
            c,
            vec![
                Value::Bool(false),
                Value::Bool(true),
                Value::Bool(false),
                Value::Bool(true)
            ]
        );
    }

    #[test]
    fn integer_division_returns_float() {
        let t = frame();
        let c = eval("a / 2", &t);
        assert_eq!(c[0], Value::Float(0.5));
        assert_eq!(c[3], Value::Float(2.0));
    }

    #[test]
    fn case_expression() {
        let t = frame();
        let c = eval("CASE WHEN price > 20 THEN 'big' ELSE 'small' END", &t);
        assert_eq!(c[1], Value::Str("big".into()));
        assert_eq!(c[2], Value::Str("small".into()));
    }

    #[test]
    fn in_list_and_like_and_between() {
        let t = frame();
        let c = eval("city IN ('aa', 'chi')", &t);
        assert_eq!(
            c,
            vec![
                Value::Bool(true),
                Value::Bool(false),
                Value::Bool(true),
                Value::Bool(true)
            ]
        );
        let c = eval("city LIKE '%a%'", &t);
        assert_eq!(c[0], Value::Bool(true));
        assert_eq!(c[1], Value::Bool(false));
        let c = eval("price BETWEEN 7.5 AND 25", &t);
        assert_eq!(
            c,
            vec![
                Value::Bool(true),
                Value::Bool(true),
                Value::Bool(true),
                Value::Bool(false)
            ]
        );
    }

    /// Literal and per-row patterns, NULL on either side, and non-string
    /// operands read through their text form.
    #[test]
    fn like_over_literal_and_column_patterns_with_nulls() {
        let t = TableBuilder::new()
            .column(
                "s",
                Column::from_opt_str(vec![Some("日本a".into()), None, Some("ab".into())]),
            )
            .column(
                "p",
                Column::from_opt_str(vec![Some("_本%".into()), Some("%".into()), None]),
            )
            .int_column("n", vec![15, 21, 1])
            .build()
            .unwrap();
        let (yes, no, null) = (Value::Bool(true), Value::Bool(false), Value::Null);
        assert_eq!(
            eval("s LIKE '%a'", &t),
            vec![yes.clone(), null.clone(), no.clone()]
        );
        assert_eq!(
            eval("s NOT LIKE '%a'", &t),
            vec![no.clone(), null.clone(), yes.clone()]
        );
        assert_eq!(
            eval("s LIKE NULL", &t),
            vec![null.clone(), null.clone(), null.clone()]
        );
        assert_eq!(
            eval("s LIKE p", &t),
            vec![yes.clone(), null.clone(), null.clone()]
        );
        assert_eq!(
            eval("n LIKE '1%'", &t),
            vec![yes.clone(), no.clone(), yes.clone()]
        );
        assert_eq!(eval("'x1' LIKE '%' || n", &t), vec![no.clone(), no, yes]);
    }

    #[test]
    fn division_by_zero_is_null() {
        let t = frame();
        let c = eval("price / (a - a)", &t);
        assert!(c.iter().all(|v| v.is_null()));
    }

    #[test]
    fn aggregates_rejected_in_scalar_context() {
        let t = frame();
        let e = parse_expression("sum(price)").unwrap();
        let mut rng = seeded_uniform(7);
        let mut ctx = EvalContext {
            table: &t,
            rng: &mut rng,
        };
        assert!(eval_expr(&e, &mut ctx).is_err());
    }

    #[test]
    fn cast_conversions() {
        let t = frame();
        let c = eval("CAST(price AS BIGINT)", &t);
        assert_eq!(c[1], Value::Int(25));
        let c = eval("CAST(a AS VARCHAR)", &t);
        assert_eq!(c[0], Value::Str("1".into()));
    }

    #[test]
    fn null_literal_comparisons_are_null() {
        let t = frame();
        let c = eval("a = NULL", &t);
        assert!(c.iter().all(|v| v.is_null()));
        let c = eval("a IS NULL", &t);
        assert!(c.iter().all(|v| v == &Value::Bool(false)));
        let c = eval("a IS NOT NULL", &t);
        assert!(c.iter().all(|v| v == &Value::Bool(true)));
    }

    #[test]
    fn type_inference() {
        let t = frame();
        assert_eq!(
            infer_type(&parse_expression("a + 1").unwrap(), &t.schema),
            DataType::Int
        );
        assert_eq!(
            infer_type(&parse_expression("price > 1").unwrap(), &t.schema),
            DataType::Bool
        );
        assert_eq!(
            infer_type(&parse_expression("a / 2").unwrap(), &t.schema),
            DataType::Float
        );
        assert_eq!(
            infer_type(&parse_expression("count(*)").unwrap(), &t.schema),
            DataType::Int
        );
    }
}
