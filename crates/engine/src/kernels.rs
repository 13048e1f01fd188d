//! Vectorized kernels over typed [`Column`]s: arithmetic, comparison,
//! boolean logic, selection masks, casts, and hash-based row grouping.
//!
//! Every hash structure here — the join index, the morsel grouper and the
//! cross-morsel group table — is one layout, `HashChains`: a head map from
//! a row's canonical hash to the newest entry with that hash plus one
//! `next` link per entry, so no key owns an allocation, and each key row is
//! hashed exactly once.
//!
//! Each kernel dispatches on the operand types **once** and then runs a tight
//! loop over the typed slices; the per-row `Value` materialisation of the old
//! representation only survives in the `generic_*` fallbacks used for
//! unusual type mixes (e.g. arithmetic involving strings), which preserve the
//! exact semantics of the previous scalar evaluator.

use crate::column::{combine_validity, Bitmap, Column, ColumnData};
use crate::error::{EngineError, EngineResult};
use crate::parallel::ThreadPool;
use crate::selvec::SelVec;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use verdict_sql::ast::BinaryOp;

// ---------------------------------------------------------------------------
// Numeric views
// ---------------------------------------------------------------------------

/// True when every non-null row of the column has a numeric (`as_f64`) view:
/// ints, floats, and bools qualify; strings do not.
fn is_numeric_viewable(c: &Column) -> bool {
    !matches!(c.data(), ColumnData::Utf8(_))
}

/// Dispatches a two-operand numeric kernel over the typed slice pair without
/// copying or converting either operand: `$body` is monomorphised once per
/// (left, right) type combination with `$a`/`$b` bound to `Fn(usize) -> f64`
/// accessors that read the typed slices in place.
macro_rules! numeric_pair_dispatch {
    ($left:expr, $right:expr, |$a:ident, $b:ident| $body:expr) => {{
        #[inline(always)]
        fn as_f(v: &[f64]) -> impl Fn(usize) -> f64 + '_ {
            move |i| v[i]
        }
        #[inline(always)]
        fn as_i(v: &[i64]) -> impl Fn(usize) -> f64 + '_ {
            move |i| v[i] as f64
        }
        #[inline(always)]
        fn as_b(v: &[bool]) -> impl Fn(usize) -> f64 + '_ {
            move |i| v[i] as u64 as f64
        }
        match ($left.data(), $right.data()) {
            (ColumnData::Float64(l), ColumnData::Float64(r)) => {
                let ($a, $b) = (as_f(l), as_f(r));
                $body
            }
            (ColumnData::Float64(l), ColumnData::Int64(r)) => {
                let ($a, $b) = (as_f(l), as_i(r));
                $body
            }
            (ColumnData::Int64(l), ColumnData::Float64(r)) => {
                let ($a, $b) = (as_i(l), as_f(r));
                $body
            }
            (ColumnData::Int64(l), ColumnData::Int64(r)) => {
                let ($a, $b) = (as_i(l), as_i(r));
                $body
            }
            (ColumnData::Bool(l), ColumnData::Float64(r)) => {
                let ($a, $b) = (as_b(l), as_f(r));
                $body
            }
            (ColumnData::Float64(l), ColumnData::Bool(r)) => {
                let ($a, $b) = (as_f(l), as_b(r));
                $body
            }
            (ColumnData::Bool(l), ColumnData::Int64(r)) => {
                let ($a, $b) = (as_b(l), as_i(r));
                $body
            }
            (ColumnData::Int64(l), ColumnData::Bool(r)) => {
                let ($a, $b) = (as_i(l), as_b(r));
                $body
            }
            (ColumnData::Bool(l), ColumnData::Bool(r)) => {
                let ($a, $b) = (as_b(l), as_b(r));
                $body
            }
            _ => unreachable!("caller checked numeric view"),
        }
    }};
}

// ---------------------------------------------------------------------------
// Binary operators
// ---------------------------------------------------------------------------

/// Evaluates `left op right` element-wise.
pub fn binary_op(left: &Column, op: BinaryOp, right: &Column) -> EngineResult<Column> {
    debug_assert_eq!(left.len(), right.len());
    match op {
        BinaryOp::And => Ok(bool_and(left, right)),
        BinaryOp::Or => Ok(bool_or(left, right)),
        BinaryOp::Concat => Ok(concat(left, right)),
        op if op.is_comparison() => Ok(compare(left, op, right)),
        _ => arithmetic(left, op, right),
    }
}

fn arithmetic(left: &Column, op: BinaryOp, right: &Column) -> EngineResult<Column> {
    let n = left.len();
    // Int × Int stays integral for +, -, *, %; / always yields a double
    // (Hive/Spark semantics, as before).
    if let (ColumnData::Int64(a), ColumnData::Int64(b)) = (left.data(), right.data()) {
        let validity = combine_validity(left.validity(), right.validity());
        return Ok(match op {
            BinaryOp::Plus => Column::from_parts(
                ColumnData::Int64((0..n).map(|i| a[i].wrapping_add(b[i])).collect()),
                validity,
            ),
            BinaryOp::Minus => Column::from_parts(
                ColumnData::Int64((0..n).map(|i| a[i].wrapping_sub(b[i])).collect()),
                validity,
            ),
            BinaryOp::Multiply => Column::from_parts(
                ColumnData::Int64((0..n).map(|i| a[i].wrapping_mul(b[i])).collect()),
                validity,
            ),
            BinaryOp::Modulo => {
                let mut bm = validity.unwrap_or_else(|| Bitmap::new_valid(n));
                let data = (0..n)
                    .map(|i| {
                        if b[i] == 0 {
                            bm.clear(i);
                            0
                        } else {
                            // wrapping_rem: i64::MIN % -1 must not abort the query
                            a[i].wrapping_rem(b[i])
                        }
                    })
                    .collect();
                Column::from_parts(ColumnData::Int64(data), Some(bm))
            }
            BinaryOp::Divide => {
                let mut bm = validity.unwrap_or_else(|| Bitmap::new_valid(n));
                let data = (0..n)
                    .map(|i| {
                        if b[i] == 0 {
                            bm.clear(i);
                            0.0
                        } else {
                            a[i] as f64 / b[i] as f64
                        }
                    })
                    .collect();
                Column::from_parts(ColumnData::Float64(data), Some(bm))
            }
            other => {
                return Err(EngineError::Execution(format!(
                    "unexpected arithmetic operator {other}"
                )))
            }
        });
    }

    if is_numeric_viewable(left) && is_numeric_viewable(right) {
        let mut bm = combine_validity(left.validity(), right.validity())
            .unwrap_or_else(|| Bitmap::new_valid(n));
        let data: Vec<f64> = numeric_pair_dispatch!(left, right, |a, b| match op {
            BinaryOp::Plus => (0..n).map(|i| a(i) + b(i)).collect(),
            BinaryOp::Minus => (0..n).map(|i| a(i) - b(i)).collect(),
            BinaryOp::Multiply => (0..n).map(|i| a(i) * b(i)).collect(),
            BinaryOp::Divide => (0..n)
                .map(|i| {
                    let y = b(i);
                    if y == 0.0 {
                        bm.clear(i);
                        0.0
                    } else {
                        a(i) / y
                    }
                })
                .collect(),
            BinaryOp::Modulo => (0..n)
                .map(|i| {
                    let y = b(i);
                    if y == 0.0 {
                        bm.clear(i);
                        0.0
                    } else {
                        a(i) % y
                    }
                })
                .collect(),
            other => {
                return Err(EngineError::Execution(format!(
                    "unexpected arithmetic operator {other}"
                )));
            }
        });
        return Ok(Column::from_parts(ColumnData::Float64(data), Some(bm)));
    }

    // String-typed operand: error on any non-null pair (matching the scalar
    // evaluator), null otherwise.
    generic_arithmetic(left, op, right)
}

fn generic_arithmetic(left: &Column, op: BinaryOp, right: &Column) -> EngineResult<Column> {
    let n = left.len();
    let mut out: Vec<Value> = Vec::with_capacity(n);
    for i in 0..n {
        let (lv, rv) = (left.value_at(i), right.value_at(i));
        if lv.is_null() || rv.is_null() {
            out.push(Value::Null);
            continue;
        }
        match (lv.as_f64(), rv.as_f64()) {
            (Some(x), Some(y)) => out.push(match op {
                BinaryOp::Plus => Value::Float(x + y),
                BinaryOp::Minus => Value::Float(x - y),
                BinaryOp::Multiply => Value::Float(x * y),
                BinaryOp::Divide => {
                    if y == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(x / y)
                    }
                }
                BinaryOp::Modulo => {
                    if y == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(x % y)
                    }
                }
                _ => unreachable!(),
            }),
            _ => {
                return Err(EngineError::TypeMismatch(format!(
                    "cannot apply {op} to {lv} and {rv}"
                )))
            }
        }
    }
    Ok(Column::from_values(&out))
}

/// Resolves a comparison operator against an ordering.
#[inline]
fn decide(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("comparison operator"),
    }
}

/// Element-wise SQL comparison producing a nullable boolean column.
pub fn compare(left: &Column, op: BinaryOp, right: &Column) -> Column {
    let n = left.len();

    /// Hoists the operator match out of the element loop so each
    /// monomorphised loop body is a single branchless comparison.
    #[inline(always)]
    fn cmp_loop<T: PartialOrd + Copy>(
        n: usize,
        a: impl Fn(usize) -> T,
        b: impl Fn(usize) -> T,
        op: BinaryOp,
    ) -> Vec<bool> {
        #[inline(always)]
        fn run<T: Copy>(
            n: usize,
            a: impl Fn(usize) -> T,
            b: impl Fn(usize) -> T,
            f: impl Fn(T, T) -> bool,
        ) -> Vec<bool> {
            (0..n).map(|i| f(a(i), b(i))).collect()
        }
        match op {
            BinaryOp::Eq => run(n, a, b, |x, y| x == y),
            BinaryOp::NotEq => run(n, a, b, |x, y| x != y),
            BinaryOp::Lt => run(n, a, b, |x, y| x < y),
            BinaryOp::LtEq => run(n, a, b, |x, y| x <= y),
            BinaryOp::Gt => run(n, a, b, |x, y| x > y),
            BinaryOp::GtEq => run(n, a, b, |x, y| x >= y),
            _ => unreachable!("comparison operator"),
        }
    }

    // Fast typed paths.
    match (left.data(), right.data()) {
        (ColumnData::Int64(a), ColumnData::Int64(b)) => {
            let validity = combine_validity(left.validity(), right.validity());
            let data = cmp_loop(n, |i| a[i], |i| b[i], op);
            return Column::from_parts(ColumnData::Bool(data), validity);
        }
        (ColumnData::Utf8(a), ColumnData::Utf8(b)) => {
            let validity = combine_validity(left.validity(), right.validity());
            let data = (0..n).map(|i| decide(op, a[i].cmp(&b[i]))).collect();
            return Column::from_parts(ColumnData::Bool(data), validity);
        }
        _ => {}
    }

    if is_numeric_viewable(left) && is_numeric_viewable(right) {
        let mut bm = combine_validity(left.validity(), right.validity())
            .unwrap_or_else(|| Bitmap::new_valid(n));
        // NaN comparisons are NULL (sql_cmp semantics): the strict float
        // comparison answers false for NaN operands, so only a NaN scan is
        // needed to fix up the validity — it stays out of the hot loop.
        let data: Vec<bool> = numeric_pair_dispatch!(left, right, |a, b| {
            let has_nan = matches!(left.data(), ColumnData::Float64(v) if v.iter().any(|x| x.is_nan()))
                || matches!(right.data(), ColumnData::Float64(v) if v.iter().any(|x| x.is_nan()));
            if has_nan {
                for i in 0..n {
                    if a(i).is_nan() || b(i).is_nan() {
                        bm.clear(i);
                    }
                }
            }
            cmp_loop(n, a, b, op)
        });
        return Column::from_parts(ColumnData::Bool(data), Some(bm));
    }

    // Mixed string/numeric comparison: NULL everywhere (sql_cmp semantics),
    // except when one side is all-null anyway.
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(match left.value_at(i).sql_cmp(&right.value_at(i)) {
            Some(ord) => Value::Bool(decide(op, ord)),
            None => Value::Null,
        });
    }
    Column::from_values_typed(crate::value::DataType::Bool, &out)
}

/// SQL three-valued AND.
pub fn bool_and(left: &Column, right: &Column) -> Column {
    let n = left.len();
    let mut data = vec![false; n];
    let mut bm = Bitmap::new_null(n);
    if let (ColumnData::Bool(a), ColumnData::Bool(b)) = (left.data(), right.data()) {
        for i in 0..n {
            let lv = left.is_valid(i);
            let rv = right.is_valid(i);
            if (lv && !a[i]) || (rv && !b[i]) {
                bm.set(i); // definite false
            } else if lv && rv {
                data[i] = true;
                bm.set(i);
            }
        }
        return Column::from_parts(ColumnData::Bool(data), Some(bm));
    }
    for i in 0..n {
        match (left.bool_at(i), right.bool_at(i)) {
            (Some(false), _) | (_, Some(false)) => bm.set(i),
            (Some(true), Some(true)) => {
                data[i] = true;
                bm.set(i);
            }
            _ => {}
        }
    }
    Column::from_parts(ColumnData::Bool(data), Some(bm))
}

/// SQL three-valued OR.
pub fn bool_or(left: &Column, right: &Column) -> Column {
    let n = left.len();
    let mut data = vec![false; n];
    let mut bm = Bitmap::new_null(n);
    if let (ColumnData::Bool(a), ColumnData::Bool(b)) = (left.data(), right.data()) {
        for i in 0..n {
            let lv = left.is_valid(i);
            let rv = right.is_valid(i);
            if (lv && a[i]) || (rv && b[i]) {
                data[i] = true;
                bm.set(i);
            } else if lv && rv {
                bm.set(i); // definite false
            }
        }
        return Column::from_parts(ColumnData::Bool(data), Some(bm));
    }
    for i in 0..n {
        match (left.bool_at(i), right.bool_at(i)) {
            (Some(true), _) | (_, Some(true)) => {
                data[i] = true;
                bm.set(i);
            }
            (Some(false), Some(false)) => bm.set(i),
            _ => {}
        }
    }
    Column::from_parts(ColumnData::Bool(data), Some(bm))
}

/// String concatenation (`||`); NULL when either side is NULL.
pub fn concat(left: &Column, right: &Column) -> Column {
    let n = left.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(
            match (
                left.value_at(i).as_str_lossy(),
                right.value_at(i).as_str_lossy(),
            ) {
                (Some(a), Some(b)) => Some(format!("{a}{b}")),
                _ => None,
            },
        );
    }
    Column::from_opt_str(out)
}

/// Logical NOT with NULL propagation.
pub fn bool_not(col: &Column) -> Column {
    let n = col.len();
    if let ColumnData::Bool(v) = col.data() {
        let data = v.iter().map(|&b| !b).collect();
        return Column::from_parts(ColumnData::Bool(data), col.validity().cloned());
    }
    let mut data = vec![false; n];
    let mut bm = Bitmap::new_null(n);
    for i in 0..n {
        if let Some(b) = col.bool_at(i) {
            data[i] = !b;
            bm.set(i);
        }
    }
    Column::from_parts(ColumnData::Bool(data), Some(bm))
}

/// Arithmetic negation; non-numeric values become NULL.
pub fn negate(col: &Column) -> Column {
    match col.data() {
        ColumnData::Int64(v) => Column::from_parts(
            ColumnData::Int64(v.iter().map(|&x| x.wrapping_neg()).collect()),
            col.validity().cloned(),
        ),
        ColumnData::Float64(v) => Column::from_parts(
            ColumnData::Float64(v.iter().map(|&x| -x).collect()),
            col.validity().cloned(),
        ),
        // the scalar evaluator returned NULL for -bool and -string
        _ => Column::nulls(col.len()),
    }
}

/// Converts a column into a packed selection mask: a set bit where the value
/// is truthy, clear for false, NULL, and non-boolean-viewable values.
pub fn column_to_mask(col: &Column) -> SelVec {
    mask_range(col, 0..col.len())
}

/// Range-restricted [`column_to_mask`]: the morsel-level building block of
/// the parallel mask kernels.  All arms pack through [`SelVec::from_fn`], so
/// the per-row predicate loops stay branch-free and vectorizable.
fn mask_range(col: &Column, range: Range<usize>) -> SelVec {
    let start = range.start;
    match (col.data(), col.validity()) {
        (ColumnData::Bool(v), None) => SelVec::from_fn(range.len(), |k| v[start + k]),
        (ColumnData::Bool(v), Some(bm)) => {
            let mut m = SelVec::from_fn(range.len(), |k| v[start + k]);
            m.and_valid_words(bm.words(), start);
            m
        }
        _ => SelVec::from_fn(range.len(), |k| col.bool_at(start + k).unwrap_or(false)),
    }
}

/// Morsel-parallel filter mask: evaluates `left op right` per morsel and
/// folds the three-valued comparison into a packed selection mask (`NULL` →
/// deselected), concatenating the per-morsel masks in morsel order.
/// Semantically equal to `column_to_mask(&compare(left, op, right))` at any
/// thread count, without materialising the boolean column.
pub fn par_filter_mask(left: &Column, op: BinaryOp, right: &Column, pool: &ThreadPool) -> SelVec {
    let n = left.len();
    debug_assert_eq!(n, right.len());
    if pool.parallelism() <= 1 || n <= crate::parallel::MORSEL_ROWS {
        return filter_mask_range(left, op, right, 0..n);
    }
    let parts = pool.run_morsels(n, |range| filter_mask_range(left, op, right, range));
    let mut out = SelVec::empty();
    for p in parts {
        // MORSEL_ROWS is a multiple of 64, so every non-final part ends on a
        // word boundary and concatenation is a word-level memcpy.
        out.extend_aligned(&p);
    }
    out
}

/// Builds a comparison mask over `range` with the operator hoisted out of
/// the element loop, exactly like [`compare`]'s `cmp_loop`: each
/// monomorphised body is a single branchless comparison, so the packing
/// loop stays auto-vectorizable.  For floats every variant answers `false`
/// when an operand is NaN (matching `sql_cmp`'s NULL → deselected): the
/// strict comparisons do so natively, and `NotEq` uses `(x < y) | (x > y)`
/// instead of `x != y`, which a NaN would satisfy.
#[inline(always)]
fn cmp_mask_op<T: PartialOrd + Copy>(
    range: Range<usize>,
    a: impl Fn(usize) -> T,
    b: impl Fn(usize) -> T,
    op: BinaryOp,
) -> SelVec {
    #[inline(always)]
    fn run<T: Copy>(
        range: Range<usize>,
        a: impl Fn(usize) -> T,
        b: impl Fn(usize) -> T,
        f: impl Fn(T, T) -> bool,
    ) -> SelVec {
        let start = range.start;
        SelVec::from_fn(range.len(), |k| {
            let i = start + k;
            f(a(i), b(i))
        })
    }
    match op {
        BinaryOp::Eq => run(range, a, b, |x, y| x == y),
        BinaryOp::NotEq => run(range, a, b, |x, y| (x < y) | (x > y)),
        BinaryOp::Lt => run(range, a, b, |x, y| x < y),
        BinaryOp::LtEq => run(range, a, b, |x, y| x <= y),
        BinaryOp::Gt => run(range, a, b, |x, y| x > y),
        BinaryOp::GtEq => run(range, a, b, |x, y| x >= y),
        _ => unreachable!("comparison operator"),
    }
}

/// ANDs a column's validity words into `mask` (no-op for null-free columns).
#[inline(always)]
fn and_validity(mask: &mut SelVec, col: &Column, start: usize) {
    if let Some(bm) = col.validity() {
        mask.and_valid_words(bm.words(), start);
    }
}

/// One morsel of [`par_filter_mask`]: a typed comparison loop over `range`
/// with NULL (and NaN, which compares as NULL) folded to deselected.  The
/// comparison packs branch-free via [`cmp_mask_op`]; validity folds in
/// afterwards as a word-wise AND rather than a per-row check.
fn filter_mask_range(left: &Column, op: BinaryOp, right: &Column, range: Range<usize>) -> SelVec {
    let start = range.start;
    // Int × Int compares at full i64 precision (an f64 view would lose
    // precision beyond 2^53), matching the typed path of `compare`.
    if let (ColumnData::Int64(a), ColumnData::Int64(b)) = (left.data(), right.data()) {
        let mut m = cmp_mask_op(range, |i| a[i], |i| b[i], op);
        and_validity(&mut m, left, start);
        and_validity(&mut m, right, start);
        return m;
    }
    if let (ColumnData::Utf8(a), ColumnData::Utf8(b)) = (left.data(), right.data()) {
        // Strings keep the per-row validity short-circuit: skipping the
        // comparison on NULL rows saves real work here, unlike the
        // fixed-cost numeric lanes.
        let valid = |i: usize| left.is_valid(i) && right.is_valid(i);
        return SelVec::from_fn(range.len(), |k| {
            let i = start + k;
            valid(i) && decide(op, a[i].cmp(&b[i]))
        });
    }
    if is_numeric_viewable(left) && is_numeric_viewable(right) {
        let mut m = numeric_pair_dispatch!(left, right, |a, b| cmp_mask_op(range, a, b, op));
        and_validity(&mut m, left, start);
        and_validity(&mut m, right, start);
        return m;
    }
    // Mixed string/numeric: sql_cmp yields NULL → deselected.
    SelVec::from_fn(range.len(), |k| {
        let i = start + k;
        left.value_at(i)
            .sql_cmp(&right.value_at(i))
            .map(|ord| decide(op, ord))
            .unwrap_or(false)
    })
}

/// Morsel-parallel [`column_to_mask`]: each morsel packs its slice of the
/// mask independently and the word-aligned slices are concatenated in morsel
/// order, so the result is identical at any thread count.
pub fn par_column_to_mask(col: &Column, pool: &ThreadPool) -> SelVec {
    if pool.parallelism() <= 1 || col.len() <= crate::parallel::MORSEL_ROWS {
        return column_to_mask(col);
    }
    let parts = pool.run_morsels(col.len(), |range| mask_range(col, range));
    let mut out = SelVec::empty();
    for p in parts {
        out.extend_aligned(&p);
    }
    out
}

/// `IS [NOT] NULL` from the validity bitmap alone.
pub fn is_null_column(col: &Column, negated: bool) -> Column {
    let n = col.len();
    let data = (0..n).map(|i| col.is_null_at(i) != negated).collect();
    Column::from_parts(ColumnData::Bool(data), None)
}

/// `CAST(col AS type)` with the same coercion rules as the scalar evaluator
/// (string parsing included; failed casts yield NULL).
pub fn cast_column(col: &Column, to: verdict_sql::ast::CastType) -> Column {
    use verdict_sql::ast::CastType;
    let n = col.len();
    match to {
        CastType::Integer => {
            let mut out = Vec::with_capacity(n);
            match col.data() {
                ColumnData::Int64(v) => {
                    return Column::from_parts(
                        ColumnData::Int64(v.clone()),
                        col.validity().cloned(),
                    )
                }
                ColumnData::Float64(v) => {
                    for i in 0..n {
                        out.push(col.is_valid(i).then(|| v[i] as i64));
                    }
                }
                ColumnData::Bool(v) => {
                    for i in 0..n {
                        out.push(col.is_valid(i).then(|| v[i] as i64));
                    }
                }
                ColumnData::Utf8(v) => {
                    for i in 0..n {
                        out.push(if col.is_valid(i) {
                            v[i].trim().parse::<i64>().ok()
                        } else {
                            None
                        });
                    }
                }
            }
            Column::from_opt_i64(out)
        }
        CastType::Double => {
            let mut out = Vec::with_capacity(n);
            match col.data() {
                ColumnData::Float64(v) => {
                    return Column::from_parts(
                        ColumnData::Float64(v.clone()),
                        col.validity().cloned(),
                    )
                }
                ColumnData::Int64(v) => {
                    for i in 0..n {
                        out.push(col.is_valid(i).then(|| v[i] as f64));
                    }
                }
                ColumnData::Bool(v) => {
                    for i in 0..n {
                        out.push(col.is_valid(i).then(|| v[i] as u64 as f64));
                    }
                }
                ColumnData::Utf8(v) => {
                    for i in 0..n {
                        out.push(if col.is_valid(i) {
                            v[i].trim().parse::<f64>().ok()
                        } else {
                            None
                        });
                    }
                }
            }
            Column::from_opt_f64(out)
        }
        CastType::Varchar => {
            let out: Vec<Option<String>> = (0..n).map(|i| col.value_at(i).as_str_lossy()).collect();
            Column::from_opt_str(out)
        }
        CastType::Boolean => {
            let out: Vec<Option<bool>> = (0..n).map(|i| col.bool_at(i)).collect();
            Column::from_opt_bool(out)
        }
    }
}

// ---------------------------------------------------------------------------
// Hash-based row grouping (GROUP BY, DISTINCT, window partitions, join keys)
// ---------------------------------------------------------------------------

/// A no-op hasher for keys that are already well-mixed 64-bit hashes
/// (the canonical row hashes), avoiding a second SipHash pass per lookup.
#[derive(Default, Clone)]
struct Prehashed(u64);

impl std::hash::Hasher for Prehashed {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // generic path (unused by u64 keys); fold bytes in
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

impl std::hash::BuildHasher for Prehashed {
    type Hasher = Prehashed;

    #[inline]
    fn build_hasher(&self) -> Prehashed {
        Prehashed(0)
    }
}

type PrehashedMap<V> = HashMap<u64, V, Prehashed>;

/// The value every canonical row hash starts from.
const HASH_SEED: u64 = 0xcbf29ce484222325;

/// Combined canonical hash per row of `range` across the key columns.
fn hash_range(cols: &[Column], range: Range<usize>) -> Vec<u64> {
    let mut hashes = vec![HASH_SEED; range.len()];
    for c in cols {
        c.hash_range_into(range.clone(), &mut hashes);
    }
    hashes
}

/// Combined canonical hash per row `0..n` across the key columns, one
/// morsel per task; the per-morsel vectors are concatenated in morsel order,
/// so the result is the same at any thread count.
pub fn par_hash_rows(cols: &[Column], n: usize, pool: &ThreadPool) -> Vec<u64> {
    if pool.parallelism() <= 1 || n <= crate::parallel::MORSEL_ROWS {
        return hash_range(cols, 0..n);
    }
    pool.run_morsels(n, |range| hash_range(cols, range))
        .concat()
}

/// Ends a chain of [`HashChains`].
const CHAIN_END: usize = usize::MAX;

/// Allocation-free hash chains over entry ids `0..len` with caller-supplied
/// canonical hashes — the one hash layout behind the join index
/// ([`RowIndex`]), the morsel grouper (`hash_group_range`) and
/// [`GroupTable`].  `heads` maps a hash to the newest entry linked under it
/// and `next[e]` to the entry linked before `e`, so a chain lists its
/// entries newest first and no key owns a heap allocation.  Chains hold
/// every entry with an equal *hash*; callers tell keys apart with
/// [`rows_equal`].
#[derive(Clone, Default)]
pub(crate) struct HashChains {
    heads: PrehashedMap<usize>,
    next: Vec<usize>,
}

impl HashChains {
    /// Empty chains with room for `entries` entries under as many distinct
    /// hashes before anything grows.
    fn with_capacity(entries: usize) -> HashChains {
        HashChains {
            heads: PrehashedMap::with_capacity_and_hasher(entries, Prehashed::default()),
            next: Vec::with_capacity(entries),
        }
    }

    /// One past the largest entry id linked so far.
    fn len(&self) -> usize {
        self.next.len()
    }

    /// Links `entry` under `hash` as the newest entry of its chain; ids
    /// below it that were never linked stay on no chain.
    fn link(&mut self, hash: u64, entry: usize) {
        if entry >= self.next.len() {
            self.next.resize(entry + 1, CHAIN_END);
        }
        self.next[entry] = self.heads.insert(hash, entry).unwrap_or(CHAIN_END);
    }

    /// Links entry `len()` under `hash` and returns its id.
    fn push(&mut self, hash: u64) -> usize {
        let entry = self.len();
        self.link(hash, entry);
        entry
    }

    /// The entries linked under `hash`, newest first.
    fn chain(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let head = self.heads.get(&hash).copied();
        std::iter::successors(head, |&e| Some(self.next[e]).filter(|&n| n != CHAIN_END))
    }
}

/// True when row `i` of `a`'s key columns equals row `j` of `b`'s, with
/// NULL == NULL grouping semantics.
pub fn rows_equal(a: &[Column], i: usize, b: &[Column], j: usize) -> bool {
    a.iter()
        .zip(b.iter())
        .all(|(ca, cb)| ca.loose_eq_rows(i, cb, j))
}

/// The result of clustering rows by key columns.
pub struct Grouping {
    /// Group id per clustered row, in row order.
    pub gids: Vec<usize>,
    /// One representative row index per group, in first-appearance order.
    pub representatives: Vec<usize>,
    /// The canonical key hash of each representative row.
    pub(crate) hashes: Vec<u64>,
}

impl Grouping {
    /// Number of distinct groups.
    pub fn num_groups(&self) -> usize {
        self.representatives.len()
    }
}

/// Clusters `n` rows by the given key columns using canonical hashing with
/// collision verification.  With no key columns every row lands in group 0.
pub fn group_rows(cols: &[Column], n: usize) -> Grouping {
    group_rows_with(cols, n, &ThreadPool::serial())
}

/// Morsel-parallel [`group_rows`]: every morsel is clustered on its own
/// (`group_range`), in parallel, and the local groups are interned into one
/// `GroupTable` in morsel order.  Morsel 0 covers the lowest row indices
/// and interning walks morsels in order, so the global groups come out in
/// first-appearance order — exactly the serial grouping, at any thread count.
pub fn group_rows_with(cols: &[Column], n: usize, pool: &ThreadPool) -> Grouping {
    let locals = pool.run_morsels(n, |range| group_range(cols, range));
    let mut table = GroupTable::new(cols.iter().map(|c| c.slice(0, 0)).collect());
    let mut gids = Vec::with_capacity(n);
    let mut representatives = Vec::new();
    for local in locals {
        let translate = table.intern(cols, &local.representatives, &local.hashes);
        for (&g, &rep) in translate.iter().zip(&local.representatives) {
            if g == representatives.len() {
                representatives.push(rep);
            }
        }
        gids.extend(local.gids.into_iter().map(|lg| translate[lg]));
    }
    Grouping {
        gids,
        representatives,
        hashes: table.hashes,
    }
}

/// Clusters the rows `range` of the key columns on the calling thread:
/// `gids[i]` is the group of row `range.start + i`, groups are numbered in
/// first-appearance order within the range, and `representatives` are
/// absolute row indices.  This is the morsel-local half of every grouping
/// in the engine; [`GroupTable::intern`] is the other half.
///
/// Two clustering paths produce the identical [`Grouping`], and the key
/// columns of the range alone pick between them: dense dictionary codes
/// (`dict_group_range`) when every key column is integral with a small
/// value range, a local hash table (`hash_group_range`) for everything else.
/// Either way each group carries its key's canonical hash, which is all
/// [`GroupTable::intern`] needs to index it.
pub(crate) fn group_range(cols: &[Column], range: Range<usize>) -> Grouping {
    if cols.is_empty() {
        let representatives: Vec<usize> = range.clone().take(1).collect();
        return Grouping {
            gids: vec![0; range.len()],
            hashes: vec![HASH_SEED; representatives.len()],
            representatives,
        };
    }
    dict_group_range(cols, range.clone())
        .unwrap_or_else(|| hash_group_range(cols, range.clone(), &hash_range(cols, range)))
}

/// The hash clustering path of [`group_range`]: `hashes[i]` is the key hash
/// of row `range.start + i`.  Group ids are chained under their hash as
/// groups appear, in chains sized for one group per row so the head map
/// never grows.
fn hash_group_range(cols: &[Column], range: Range<usize>, hashes: &[u64]) -> Grouping {
    let mut chains = HashChains::with_capacity(range.len());
    let mut representatives: Vec<usize> = Vec::new();
    let mut rep_hashes = Vec::new();
    let gids = range
        .zip(hashes)
        .map(|(row, &hash)| {
            let known = chains
                .chain(hash)
                .find(|&g| rows_equal(cols, row, cols, representatives[g]));
            known.unwrap_or_else(|| {
                representatives.push(row);
                rep_hashes.push(hash);
                chains.push(hash)
            })
        })
        .collect();
    Grouping {
        gids,
        representatives,
        hashes: rep_hashes,
    }
}

/// The groups a grouping has seen so far: one typed key row and one key
/// hash per group, in first-appearance order, plus hash chains over them.
/// Morsel-local groupings are reconciled here, in morsel order — by
/// [`group_rows_with`] for a whole input at once and by the running
/// aggregation state (`exec::aggregate`) as a scan delivers them.
#[derive(Clone, Default)]
pub(crate) struct GroupTable {
    keys: Vec<Column>,
    hashes: Vec<u64>,
    /// Chains over groups `0..chains.len()`; the groups after those are
    /// linked when the next morsel arrives.
    chains: HashChains,
}

impl GroupTable {
    /// An empty table whose key rows will be appended to `keys` (zero-row
    /// columns that fix the key arity and, until a row arrives, the types).
    pub fn new(keys: Vec<Column>) -> GroupTable {
        GroupTable {
            keys,
            ..GroupTable::default()
        }
    }

    /// Number of groups seen so far.
    pub fn num_groups(&self) -> usize {
        self.hashes.len()
    }

    /// The key columns: row `g` holds the key of group `g`.
    pub fn into_keys(self) -> Vec<Column> {
        self.keys
    }

    /// Interns the rows `reps` of `cols`, whose key hashes are `hashes` —
    /// pairwise distinct keys, as the representatives of one
    /// [`group_range`] call are — and returns the table's group id for each.
    /// Unknown keys are appended in `reps` order.
    pub fn intern(&mut self, cols: &[Column], reps: &[usize], hashes: &[u64]) -> Vec<usize> {
        debug_assert_eq!(reps.len(), hashes.len());
        if self.hashes.is_empty() {
            // The first morsel's groups are the table, under their local
            // ids; they are chained only if a second morsel ever arrives
            // (most aggregations fit one morsel and never pay for an index).
            self.keys = cols.iter().map(|c| c.take(reps)).collect();
            self.hashes = hashes.to_vec();
            return (0..reps.len()).collect();
        }
        // Groups appended by this call stay unchained until the next one:
        // `reps` are distinct, so none of them can match another.
        for g in self.chains.len()..self.hashes.len() {
            self.chains.push(self.hashes[g]);
        }
        let mut fresh: Vec<usize> = Vec::new();
        let translate = reps
            .iter()
            .zip(hashes)
            .map(|(&row, &hash)| {
                let known = self
                    .chains
                    .chain(hash)
                    .find(|&g| rows_equal(cols, row, &self.keys, g));
                known.unwrap_or_else(|| {
                    fresh.push(row);
                    self.hashes.push(hash);
                    self.hashes.len() - 1
                })
            })
            .collect();
        for (dst, src) in self.keys.iter_mut().zip(cols) {
            dst.append(&src.take(&fresh));
        }
        translate
    }
}

/// Largest dictionary code space `dict_group_range` will allocate a dense
/// remap table for: 64K slots is a 256 KiB `u32` table — comfortably
/// cache-resident, and far above the group counts where dictionary keys win.
const MAX_DICT_SLOTS: u64 = 1 << 16;

/// Per-key-column statistics for the dictionary grouping path.
struct DictDim {
    /// Minimum valid value (0 when the column is all-NULL).
    min: i64,
    /// Code-space width of this column including the NULL slot.
    width: u64,
}

/// The dictionary clustering path of [`group_range`]: maps each key row to a
/// dense code and renumbers codes in first-appearance order — no hashing, no
/// hash table.
///
/// Applies when every key column is integral (`Int64`/`Bool`) and the
/// product of the per-column value ranges over the rows of `range` (plus one
/// NULL slot each) stays within [`MAX_DICT_SLOTS`] and within ~4x the row
/// count; returns `None` otherwise.  A row's code is `Σ slot_i · stride_i`
/// with `slot_i = 0` for NULL and `1 + (v - min_i)` for a valid value, so two
/// rows share a code exactly when [`rows_equal`] holds — NULLs grouping
/// together included — and the first-appearance renumber walk reproduces the
/// hash path's [`Grouping`] bit-for-bit.
fn dict_group_range(cols: &[Column], range: Range<usize>) -> Option<Grouping> {
    // Integral key columns only: exact equality on i64 codes then matches
    // loose_eq row equality.  Float/string keys never take this path.
    let views: Vec<DictView<'_>> = cols.iter().map(DictView::new).collect::<Option<_>>()?;

    // Code-space layout: row-major strides over the per-column widths.
    let mut dims = Vec::with_capacity(views.len());
    let mut total: u64 = 1;
    for view in &views {
        let (min, width) = match view.min_max_range(range.clone()) {
            Some((min, max)) => {
                let span = (max as i128) - (min as i128) + 1;
                if span + 1 > MAX_DICT_SLOTS as i128 {
                    return None;
                }
                (min, span as u64 + 1)
            }
            None => (0, 1), // no valid row: only the NULL slot exists
        };
        total = total.checked_mul(width)?;
        if total > MAX_DICT_SLOTS {
            return None;
        }
        dims.push(DictDim { min, width });
    }
    // A code space far larger than the input would spend more on the remap
    // table than the dictionary saves.
    if total > 4 * range.len() as u64 + 1024 {
        return None;
    }

    let mut codes = vec![0u32; range.len()];
    for (view, dim) in views.iter().zip(dims.iter()) {
        view.fold_codes(range.clone(), dim, &mut codes);
    }

    // Renumber the codes into dense group ids in first-appearance order —
    // the step that makes this path's `Grouping` identical to the hash path's.
    let mut remap = vec![u32::MAX; total as usize];
    let mut gids = Vec::with_capacity(codes.len());
    let mut representatives = Vec::new();
    for (row, code) in range.zip(codes) {
        let slot = &mut remap[code as usize];
        if *slot == u32::MAX {
            *slot = representatives.len() as u32;
            representatives.push(row);
        }
        gids.push(*slot as usize);
    }
    // No row was hashed on the way; hash just the groups' keys.
    let keys: Vec<Column> = cols.iter().map(|c| c.take(&representatives)).collect();
    Some(Grouping {
        gids,
        hashes: hash_range(&keys, 0..representatives.len()),
        representatives,
    })
}

/// A typed integral view of one dictionary key column.
enum DictView<'a> {
    Int(&'a [i64], &'a Column),
    Bool(&'a [bool], &'a Column),
}

impl<'a> DictView<'a> {
    fn new(col: &'a Column) -> Option<DictView<'a>> {
        match col.data() {
            ColumnData::Int64(v) => Some(DictView::Int(v, col)),
            ColumnData::Bool(v) => Some(DictView::Bool(v, col)),
            _ => None,
        }
    }

    /// `(min, max)` over the valid rows of `range`, `None` when there is none.
    fn min_max_range(&self, range: Range<usize>) -> Option<(i64, i64)> {
        #[inline(always)]
        fn scan<T: Copy>(
            v: &[T],
            col: &Column,
            range: Range<usize>,
            to_i64: impl Fn(T) -> i64,
        ) -> Option<(i64, i64)> {
            let mut mm: Option<(i64, i64)> = None;
            for i in range {
                if col.is_valid(i) {
                    let x = to_i64(v[i]);
                    mm = Some(match mm {
                        Some((lo, hi)) => (lo.min(x), hi.max(x)),
                        None => (x, x),
                    });
                }
            }
            mm
        }
        match self {
            DictView::Int(v, col) => scan(v, col, range, |x| x),
            DictView::Bool(v, col) => scan(v, col, range, |x| x as i64),
        }
    }

    /// Scales the accumulated codes by this column's width and adds its
    /// slot: `code = code * width + slot`, `slot = 0` for NULL else
    /// `1 + (v - min)`.  Branch-free over the valid/NULL choice.
    fn fold_codes(&self, range: Range<usize>, dim: &DictDim, codes: &mut [u32]) {
        #[inline(always)]
        fn fold<T: Copy>(
            v: &[T],
            col: &Column,
            range: Range<usize>,
            dim: &DictDim,
            codes: &mut [u32],
            to_i64: impl Fn(T) -> i64,
        ) {
            let width = dim.width as u32;
            let min = dim.min;
            let start = range.start;
            match col.validity() {
                None => {
                    for (k, code) in codes.iter_mut().enumerate().take(range.len()) {
                        let slot = 1 + to_i64(v[start + k]).wrapping_sub(min) as u32;
                        *code = *code * width + slot;
                    }
                }
                Some(bm) => {
                    for (k, code) in codes.iter_mut().enumerate().take(range.len()) {
                        let i = start + k;
                        let valid = bm.get(i) as u32;
                        // NULL rows carry an arbitrary data slot, so the raw
                        // slot uses wrapping arithmetic and the `valid`
                        // multiply zeroes it — no branch, no overflow trap.
                        let raw = (to_i64(v[i]).wrapping_sub(min) as u32).wrapping_add(1);
                        *code = *code * width + valid * raw;
                    }
                }
            }
        }
        match self {
            DictView::Int(v, col) => fold(v, col, range, dim, codes, |x| x),
            DictView::Bool(v, col) => fold(v, col, range, dim, codes, |x| x as i64),
        }
    }
}

/// A hash index over the key columns of a build-side table, used by hash
/// joins: `HashChains` whose entries are the build rows, verified with
/// typed equality at probe time.
pub struct RowIndex<'a> {
    keys: &'a [Column],
    chains: HashChains,
}

impl<'a> RowIndex<'a> {
    /// Indexes build rows `0..n`, skipping rows with a NULL in any key
    /// column (SQL equi-join semantics).  The rows are hashed morsel-parallel
    /// and linked serially from the last row down, so every chain lists its
    /// rows in ascending order at any thread count.
    pub fn build(keys: &'a [Column], n: usize, pool: &ThreadPool) -> RowIndex<'a> {
        let hashes = par_hash_rows(keys, n, pool);
        let mut chains = HashChains::with_capacity(n);
        for row in (0..n).rev() {
            if !keys.iter().any(|k| k.is_null_at(row)) {
                chains.link(hashes[row], row);
            }
        }
        RowIndex { keys, chains }
    }

    /// Streams the build-side rows matching the probe row in ascending
    /// order, without allocating per probe (this sits in the hash-join
    /// inner loop).  Probe rows with NULL keys never match.
    pub fn probe_each(
        &self,
        probe_keys: &[Column],
        probe_hash: u64,
        probe_row: usize,
        mut on_match: impl FnMut(usize),
    ) {
        if probe_keys.iter().any(|k| k.is_null_at(probe_row)) {
            return;
        }
        for r in self.chains.chain(probe_hash) {
            if rows_equal(probe_keys, probe_row, self.keys, r) {
                on_match(r);
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::value::Value;

    fn ints(v: Vec<i64>) -> Column {
        Column::from_i64(v)
    }

    #[test]
    fn int_arithmetic_stays_integral() {
        let a = ints(vec![1, 2, 3]);
        let b = ints(vec![10, 20, 30]);
        let c = binary_op(&a, BinaryOp::Plus, &b).unwrap();
        assert_eq!(
            c.to_values(),
            vec![Value::Int(11), Value::Int(22), Value::Int(33)]
        );
        let d = binary_op(&a, BinaryOp::Divide, &b).unwrap();
        assert_eq!(d.value_at(0), Value::Float(0.1));
    }

    #[test]
    fn division_by_zero_is_null() {
        let a = ints(vec![1, 2]);
        let z = ints(vec![0, 1]);
        let c = binary_op(&a, BinaryOp::Divide, &z).unwrap();
        assert!(c.value_at(0).is_null());
        assert_eq!(c.value_at(1), Value::Float(2.0));
        let m = binary_op(&a, BinaryOp::Modulo, &z).unwrap();
        assert!(m.value_at(0).is_null());
        assert_eq!(m.value_at(1), Value::Int(0));
    }

    #[test]
    fn modulo_overflow_wraps_instead_of_panicking() {
        let a = ints(vec![i64::MIN]);
        let b = ints(vec![-1]);
        let c = binary_op(&a, BinaryOp::Modulo, &b).unwrap();
        assert_eq!(c.value_at(0), Value::Int(0));
    }

    #[test]
    fn nulls_propagate_through_arithmetic() {
        let a = Column::from_opt_i64(vec![Some(1), None]);
        let b = ints(vec![5, 5]);
        let c = binary_op(&a, BinaryOp::Multiply, &b).unwrap();
        assert_eq!(c.value_at(0), Value::Int(5));
        assert!(c.value_at(1).is_null());
    }

    #[test]
    fn mixed_numeric_comparison() {
        let a = ints(vec![1, 5, 9]);
        let b = Column::from_f64(vec![2.0, 5.0, 3.5]);
        let lt = compare(&a, BinaryOp::Lt, &b);
        assert_eq!(
            lt.to_values(),
            vec![Value::Bool(true), Value::Bool(false), Value::Bool(false)]
        );
        let eq = compare(&a, BinaryOp::Eq, &b);
        assert_eq!(eq.value_at(1), Value::Bool(true));
    }

    #[test]
    fn string_numeric_comparison_is_null() {
        let a = Column::from_str(vec!["x".into()]);
        let b = ints(vec![1]);
        let c = compare(&a, BinaryOp::Eq, &b);
        assert!(c.value_at(0).is_null());
    }

    #[test]
    fn three_valued_logic() {
        let t = Column::from_opt_bool(vec![Some(true), Some(false), None]);
        let f = Column::from_opt_bool(vec![Some(false), Some(false), Some(false)]);
        let n = Column::from_opt_bool(vec![None, None, None]);
        // false AND null = false; true AND null = null
        assert_eq!(bool_and(&t, &n).value_at(0), Value::Null);
        assert_eq!(bool_and(&f, &n).value_at(0), Value::Bool(false));
        // true OR null = true; false OR null = null
        assert_eq!(bool_or(&t, &n).value_at(0), Value::Bool(true));
        assert_eq!(bool_or(&f, &n).value_at(0), Value::Null);
    }

    #[test]
    fn masks_treat_null_as_false() {
        let c = Column::from_opt_bool(vec![Some(true), None, Some(false)]);
        assert_eq!(column_to_mask(&c).to_bools(), vec![true, false, false]);
        let nums = ints(vec![0, 3]);
        assert_eq!(column_to_mask(&nums).to_bools(), vec![false, true]);
    }

    #[test]
    fn grouping_clusters_equal_keys_across_types() {
        let k1 = Column::from_values(&[
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(2),
            Value::Null,
            Value::Null,
        ]);
        let g = group_rows(&[k1], 5);
        assert_eq!(g.num_groups(), 3);
        assert_eq!(g.gids[0], g.gids[1], "1 and 1.0 must group together");
        assert_eq!(g.gids[3], g.gids[4], "NULLs group together");
    }

    /// Two-column integer keys `(a, b)`, pairwise distinct, whose canonical
    /// row hashes are all one value: each `b` is solved for from its `a` by
    /// inverting the row hash of `Column::hash_range_into` (integer values
    /// reach every element hash, and both mixing steps are bijections).
    pub(crate) fn colliding_int_keys(count: usize) -> (Vec<i64>, Vec<i64>) {
        const PRIME: u64 = 0x100000001b3;
        const GOLDEN: u64 = 0x9e3779b97f4a7c15;
        const M1: u64 = 0xbf58476d1ce4e5b9;
        fn inverse(odd: u64) -> u64 {
            // Newton's iteration doubles the correct low bits each step.
            (0..6).fold(odd, |x, _| {
                x.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(x)))
            })
        }
        fn unshift(y: u64, s: u32) -> u64 {
            (0..64 / s + 1).fold(y, |x, _| y ^ (x >> s))
        }
        let hash_i64 = |x: i64| {
            let z = (x as u64).wrapping_add(GOLDEN);
            let z = (z ^ (z >> 30)).wrapping_mul(M1);
            z ^ (z >> 31)
        };
        let unhash_i64 = |h: u64| {
            let z = unshift(h, 31).wrapping_mul(inverse(M1));
            unshift(z, 30).wrapping_sub(GOLDEN) as i64
        };
        let mix = |h: u64, e: u64| (h ^ e).wrapping_mul(PRIME).rotate_left(27);
        let target = 0x0123_4567_89ab_cdef_u64;
        let a: Vec<i64> = (0..count as i64).map(|i| 1_000_003 * i - 7).collect();
        let b: Vec<i64> = a
            .iter()
            .map(|&x| {
                let h = mix(HASH_SEED, hash_i64(x));
                unhash_i64(h ^ target.rotate_right(27).wrapping_mul(inverse(PRIME)))
            })
            .collect();
        let cols = [Column::from_i64(a.clone()), Column::from_i64(b.clone())];
        assert!(
            hash_range(&cols, 0..count).iter().all(|&h| h == target),
            "the row hash changed: update the inversion above"
        );
        (a, b)
    }

    /// Collects [`RowIndex::probe_each`]'s matches for one probe row.
    fn probe(index: &RowIndex<'_>, keys: &[Column], row: usize) -> Vec<usize> {
        let hash = hash_range(keys, row..row + 1)[0];
        let mut out = Vec::new();
        index.probe_each(keys, hash, row, |r| out.push(r));
        out
    }

    #[test]
    fn row_index_skips_null_keys() {
        let build = vec![Column::from_opt_i64(vec![Some(1), None, Some(2)])];
        let idx = RowIndex::build(&build, 3, &ThreadPool::serial());
        let probe_keys = vec![Column::from_opt_i64(vec![Some(1), None])];
        assert_eq!(probe(&idx, &probe_keys, 0), vec![0]);
        assert!(probe(&idx, &probe_keys, 1).is_empty());
    }

    /// Every hash structure behind identical hashes: chains list entries
    /// newest first, and matches and groups separate by key equality alone.
    #[test]
    fn hash_chains_separate_distinct_keys_with_identical_hashes() {
        let mut chains = HashChains::with_capacity(4);
        for e in (0..4).rev() {
            chains.link(7, e);
        }
        assert_eq!(chains.chain(7).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(chains.push(7), 4);
        assert_eq!(chains.chain(7).collect::<Vec<_>>(), vec![4, 0, 1, 2, 3]);
        assert_eq!(chains.chain(8).count(), 0);

        // The morsel grouper, every row under one hash.
        let n = 500;
        let keys = vec![Column::from_opt_f64(
            (0..n)
                .map(|i| {
                    (i % 11 != 0).then_some(match i % 5 {
                        0 => f64::NAN,
                        1 => -0.0,
                        _ => (i % 37) as f64,
                    })
                })
                .collect(),
        )];
        let g = hash_group_range(&keys, 0..n, &vec![0; n]);
        let (ref_gids, ref_reps) = reference_grouping(&keys, n);
        assert_eq!(g.gids, ref_gids);
        assert_eq!(g.representatives, ref_reps);

        // The group table, two morsels under one hash.
        let strs = vec![Column::from_str(
            (0..n).map(|i| format!("k{}", i % 23)).collect(),
        )];
        let mut table = GroupTable::new(vec![strs[0].slice(0, 0)]);
        let first: Vec<usize> = (0..10).collect();
        assert_eq!(table.intern(&strs, &first, &[9; 10]), first);
        let second: Vec<usize> = (5..23).rev().collect();
        let translate = table.intern(&strs, &second, &[9; 18]);
        let expected: Vec<usize> = (5..23)
            .rev()
            .scan(10, |fresh, k| {
                Some(if k < 10 {
                    k
                } else {
                    *fresh += 1;
                    *fresh - 1
                })
            })
            .collect();
        assert_eq!(translate, expected);
        assert_eq!(table.num_groups(), 23);

        // The join index, over keys whose real row hashes collide.
        let (a, b) = colliding_int_keys(40);
        let build_rows: Vec<usize> = (0..400).map(|i| (i * 7) % 40).collect();
        let build: Vec<Column> = [&a, &b]
            .iter()
            .map(|c| Column::from_i64(build_rows.iter().map(|&j| c[j]).collect()))
            .collect();
        let pool = ThreadPool::new(4);
        let idx = RowIndex::build(&build, build_rows.len(), &pool);
        let probe_keys = vec![Column::from_i64(a.clone()), Column::from_i64(b.clone())];
        for j in 0..40 {
            let expected: Vec<usize> = (0..build_rows.len())
                .filter(|&r| build_rows[r] == j)
                .collect();
            assert_eq!(expected.len(), 10);
            assert_eq!(probe(&idx, &probe_keys, j), expected, "key {j}");
        }
    }

    #[test]
    fn parallel_mask_matches_serial() {
        use crate::parallel::{ThreadPool, MORSEL_ROWS};
        let n = MORSEL_ROWS + 77;
        let col =
            Column::from_opt_bool((0..n).map(|i| (i % 7 != 0).then_some(i % 3 == 0)).collect());
        let pool = ThreadPool::new(3);
        assert_eq!(column_to_mask(&col), par_column_to_mask(&col, &pool));
    }

    #[test]
    fn parallel_filter_mask_matches_compare_plus_mask() {
        use crate::parallel::{ThreadPool, MORSEL_ROWS};
        let n = MORSEL_ROWS + 501;
        let pool = ThreadPool::new(4);
        // nullable floats with NaNs against a scalar threshold
        let floats = Column::from_opt_f64(
            (0..n)
                .map(|i| {
                    (i % 5 != 0).then(|| {
                        if i % 11 == 0 {
                            f64::NAN
                        } else {
                            i as f64 % 37.0
                        }
                    })
                })
                .collect(),
        );
        let threshold = Column::repeat(&Value::Float(15.0), n);
        // large ints that an f64 view could not order correctly
        let big = Column::from_i64((0..n as i64).map(|i| i64::MAX - i % 3).collect());
        let big2 = Column::from_i64(vec![i64::MAX - 1; n]);
        for op in [BinaryOp::Gt, BinaryOp::LtEq, BinaryOp::Eq] {
            assert_eq!(
                column_to_mask(&compare(&floats, op, &threshold)),
                par_filter_mask(&floats, op, &threshold, &pool),
                "{op:?} on nullable floats"
            );
            assert_eq!(
                column_to_mask(&compare(&big, op, &big2)),
                par_filter_mask(&big, op, &big2, &pool),
                "{op:?} on large ints"
            );
        }
    }

    /// First-appearance scalar reference for [`group_rows_with`]: rows share
    /// a group exactly when their canonical key strings match (NULLs group
    /// together, `-0.0` with `0.0`, every NaN with every NaN — the
    /// [`rows_equal`] rules).
    fn reference_grouping(cols: &[Column], n: usize) -> (Vec<usize>, Vec<usize>) {
        let mut first: HashMap<String, usize> = HashMap::new();
        let mut gids = Vec::with_capacity(n);
        let mut reps = Vec::new();
        for row in 0..n {
            let key: Vec<String> = cols
                .iter()
                .map(|c| match &c.value_at(row) {
                    Value::Float(f) if f.is_nan() => "F:NaN".to_string(),
                    Value::Float(f) if *f == 0.0 => "F:0".to_string(),
                    other => format!("{other:?}"),
                })
                .collect();
            let next = first.len();
            gids.push(*first.entry(key.join("|")).or_insert_with(|| {
                reps.push(row);
                next
            }));
        }
        (gids, reps)
    }

    /// `n` rows of two int key columns: every third row one of the 50
    /// [`colliding_int_keys`], the others ordinary keys.
    fn colliding_rows(n: usize) -> Vec<Column> {
        let (a, b) = colliding_int_keys(50);
        let (ka, kb): (Vec<i64>, Vec<i64>) = (0..n)
            .map(|i| match i % 3 {
                0 => (a[(i / 3) % 50], b[(i / 3) % 50]),
                _ => ((i % 1000) as i64, (i % 3) as i64),
            })
            .unzip();
        vec![Column::from_i64(ka), Column::from_i64(kb)]
    }

    #[test]
    fn group_rows_with_matches_first_appearance_reference_on_both_paths() {
        use crate::parallel::{ThreadPool, MORSEL_ROWS};
        let n = MORSEL_ROWS + 321;
        let slots = MAX_DICT_SLOTS as i64;
        // `n` non-NULL rows whose values span exactly `0..=max`.
        let spanning = |n: usize, max: i64| {
            let key = |i: i64| {
                if i + 1 == n as i64 {
                    max
                } else {
                    i % (max + 1)
                }
            };
            vec![Column::from_i64((0..n as i64).map(key).collect())]
        };
        // (label, key columns, rows, whether the dictionary path must accept)
        let cases: Vec<(&str, Vec<Column>, usize, bool)> = vec![
            (
                "nullable small ints",
                vec![Column::from_opt_i64(
                    (0..n as i64)
                        .map(|i| (i % 97 != 0).then_some(i % 13))
                        .collect(),
                )],
                n,
                true,
            ),
            (
                "nullable int x bool",
                vec![
                    Column::from_opt_i64(
                        (0..n as i64)
                            .map(|i| (i % 31 != 0).then_some(i % 7))
                            .collect(),
                    ),
                    Column::from_bool((0..n).map(|i| i % 2 == 0).collect()),
                ],
                n,
                true,
            ),
            // The code space is the value range plus one NULL slot.
            (
                "code space exactly MAX_DICT_SLOTS",
                spanning(n, slots - 2),
                n,
                true,
            ),
            (
                "code space one past MAX_DICT_SLOTS",
                spanning(n, slots - 1),
                n,
                false,
            ),
            // 100 rows allow a code space of 4 * 100 + 1024 = 1424.
            (
                "code space exactly 4n + 1024",
                spanning(100, 1422),
                100,
                true,
            ),
            (
                "code space one past 4n + 1024",
                spanning(100, 1423),
                100,
                false,
            ),
            (
                "integral x string",
                vec![
                    Column::from_i64((0..n as i64).map(|i| i % 5).collect()),
                    Column::from_str((0..n).map(|i| format!("s{}", i % 3)).collect()),
                ],
                n,
                false,
            ),
            (
                "nullable floats with -0.0 and NaN",
                vec![Column::from_opt_f64(
                    (0..n)
                        .map(|i| {
                            (i % 9 != 0).then_some(match i % 4 {
                                0 => 0.0,
                                1 => -0.0,
                                2 => f64::NAN,
                                _ => (i % 11) as f64 * 0.5,
                            })
                        })
                        .collect(),
                )],
                n,
                false,
            ),
            // Every key distinct over more than two morsels: the regime the
            // deleted radix path was written for, now hash.
            (
                "all-distinct wide ints",
                vec![Column::from_i64(
                    (0..(2 * MORSEL_ROWS + 321) as i64)
                        .map(|i| i * 104_729)
                        .collect(),
                )],
                2 * MORSEL_ROWS + 321,
                false,
            ),
            // Every third row carries one of 50 keys sharing one row hash,
            // recurring in every morsel: each morsel's chains and the
            // cross-morsel table must tell them apart by equality.
            (
                "colliding int pairs over three morsels",
                colliding_rows(2 * MORSEL_ROWS + 321),
                2 * MORSEL_ROWS + 321,
                false,
            ),
            (
                "nullable strings over three morsels",
                vec![Column::from_opt_str(
                    (0..2 * MORSEL_ROWS + 321)
                        .map(|i| (i % 41 != 0).then(|| format!("s{}", i % 5000)))
                        .collect(),
                )],
                2 * MORSEL_ROWS + 321,
                false,
            ),
        ];
        for (label, keys, rows, dict) in &cases {
            let (ref_gids, ref_reps) = reference_grouping(keys, *rows);
            for threads in [1usize, 4] {
                let pool = ThreadPool::new(threads);
                assert_eq!(
                    dict_group_range(keys, 0..*rows).is_some(),
                    *dict,
                    "{label}: dictionary eligibility"
                );
                let g = group_rows_with(keys, *rows, &pool);
                assert_eq!(g.gids, ref_gids, "{label}: gids at {threads} threads");
                assert_eq!(
                    g.representatives, ref_reps,
                    "{label}: representatives at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn cast_string_to_numbers() {
        let s = Column::from_str(vec!["42".into(), "x".into(), " 3.5 ".into()]);
        let i = cast_column(&s, verdict_sql::ast::CastType::Integer);
        assert_eq!(i.value_at(0), Value::Int(42));
        assert!(i.value_at(1).is_null());
        let d = cast_column(&s, verdict_sql::ast::CastType::Double);
        assert_eq!(d.value_at(2), Value::Float(3.5));
    }
}
