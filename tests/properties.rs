//! Property-based tests on the statistical and structural invariants of the
//! middleware, plus the kernel-correctness properties of the typed-columnar
//! engine: the vectorized kernels must agree with a scalar `Value`-based
//! reference evaluator on randomized columns including NULLs.
//!
//! The external property-testing harness is unavailable offline, so the
//! properties run as seeded randomized loops: every case is deterministic
//! given the seed, and failures print the seed of the offending case.

mod common;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use verdict_bench::estimate::{
    clt_interval, default_subsample_size, variational_subsampling_interval,
};
use verdictdb::core::stats::{
    build_staircase, lemma1_g, normal_critical_value, staircase_probability,
};
use verdictdb::engine::expr::{eval_expr, EvalContext};
use verdictdb::engine::functions::like_match;
use verdictdb::engine::{Column, Table, TableBuilder, Value};
use verdictdb::sql::ast::{BinaryOp, CastType, Expr, Literal, UnaryOp};
use verdictdb::sql::{parse_expression, parse_statement, print_statement, GenericDialect};

// ===========================================================================
// Vectorized kernels vs scalar reference evaluator
// ===========================================================================

/// Scalar reference evaluation of one expression over one row of values —
/// the semantics of the engine's pre-columnar `Vec<Value>` evaluator.
fn reference_eval_row(expr: &Expr, table: &Table, row: usize) -> Value {
    match expr {
        Expr::Column { table: q, name } => {
            let idx = table
                .schema
                .resolve(q.as_deref(), name)
                .expect("column resolves");
            table.value_at(row, idx)
        }
        Expr::Literal(lit) => match lit {
            Literal::Null => Value::Null,
            Literal::Boolean(b) => Value::Bool(*b),
            Literal::Integer(i) => Value::Int(*i),
            Literal::Float(f) => Value::Float(*f),
            Literal::String(s) => Value::Str(s.clone()),
        },
        Expr::Nested(e) => reference_eval_row(e, table, row),
        Expr::UnaryOp { op, expr } => {
            let v = reference_eval_row(expr, table, row);
            match op {
                UnaryOp::Not => match v.as_bool() {
                    Some(b) => Value::Bool(!b),
                    None => Value::Null,
                },
                UnaryOp::Minus => match v {
                    Value::Int(i) => Value::Int(-i),
                    Value::Float(f) => Value::Float(-f),
                    _ => Value::Null,
                },
                UnaryOp::Plus => v,
            }
        }
        Expr::BinaryOp { left, op, right } => {
            let l = reference_eval_row(left, table, row);
            let r = reference_eval_row(right, table, row);
            match op {
                BinaryOp::And => match (l.as_bool(), r.as_bool()) {
                    (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                    (Some(true), Some(true)) => Value::Bool(true),
                    _ => Value::Null,
                },
                BinaryOp::Or => match (l.as_bool(), r.as_bool()) {
                    (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                    (Some(false), Some(false)) => Value::Bool(false),
                    _ => Value::Null,
                },
                BinaryOp::Concat => match (l.as_str_lossy(), r.as_str_lossy()) {
                    (Some(a), Some(b)) => Value::Str(format!("{a}{b}")),
                    _ => Value::Null,
                },
                op if op.is_comparison() => match l.sql_cmp(&r) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(match op {
                        BinaryOp::Eq => ord == Ordering::Equal,
                        BinaryOp::NotEq => ord != Ordering::Equal,
                        BinaryOp::Lt => ord == Ordering::Less,
                        BinaryOp::LtEq => ord != Ordering::Greater,
                        BinaryOp::Gt => ord == Ordering::Greater,
                        BinaryOp::GtEq => ord != Ordering::Less,
                        _ => unreachable!(),
                    }),
                },
                _ => match (&l, &r) {
                    (Value::Null, _) | (_, Value::Null) => Value::Null,
                    (Value::Int(a), Value::Int(b)) => match op {
                        BinaryOp::Plus => Value::Int(a.wrapping_add(*b)),
                        BinaryOp::Minus => Value::Int(a.wrapping_sub(*b)),
                        BinaryOp::Multiply => Value::Int(a.wrapping_mul(*b)),
                        BinaryOp::Divide => {
                            if *b == 0 {
                                Value::Null
                            } else {
                                Value::Float(*a as f64 / *b as f64)
                            }
                        }
                        BinaryOp::Modulo => {
                            if *b == 0 {
                                Value::Null
                            } else {
                                Value::Int(a % b)
                            }
                        }
                        _ => unreachable!(),
                    },
                    (a, b) => {
                        let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                        match op {
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
                        }
                    }
                },
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = reference_eval_row(expr, table, row);
            Value::Bool(v.is_null() != *negated)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let target = reference_eval_row(expr, table, row);
            if target.is_null() {
                return Value::Null;
            }
            let found = list
                .iter()
                .any(|e| reference_eval_row(e, table, row) == target);
            Value::Bool(found != *negated)
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = reference_eval_row(expr, table, row);
            let lo = reference_eval_row(low, table, row);
            let hi = reference_eval_row(high, table, row);
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != Ordering::Less && b != Ordering::Greater;
                    Value::Bool(inside != *negated)
                }
                _ => Value::Null,
            }
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = reference_eval_row(expr, table, row);
            let p = reference_eval_row(pattern, table, row);
            match (v.as_str_lossy(), p.as_str_lossy()) {
                (Some(text), Some(pat)) => Value::Bool(like_match(&text, &pat) != *negated),
                _ => Value::Null,
            }
        }
        Expr::Cast { expr, data_type } => {
            let v = reference_eval_row(expr, table, row);
            if v.is_null() {
                return Value::Null;
            }
            match data_type {
                CastType::Integer => match &v {
                    Value::Str(s) => s
                        .trim()
                        .parse::<i64>()
                        .map(Value::Int)
                        .unwrap_or(Value::Null),
                    _ => v.as_i64().map(Value::Int).unwrap_or(Value::Null),
                },
                CastType::Double => match &v {
                    Value::Str(s) => s
                        .trim()
                        .parse::<f64>()
                        .map(Value::Float)
                        .unwrap_or(Value::Null),
                    _ => v.as_f64().map(Value::Float).unwrap_or(Value::Null),
                },
                CastType::Varchar => v.as_str_lossy().map(Value::Str).unwrap_or(Value::Null),
                CastType::Boolean => v.as_bool().map(Value::Bool).unwrap_or(Value::Null),
            }
        }
        Expr::Case {
            operand,
            when_then,
            else_expr,
        } => {
            for (w, t) in when_then {
                let fire = match operand {
                    Some(op) => {
                        let ov = reference_eval_row(op, table, row);
                        !ov.is_null() && ov == reference_eval_row(w, table, row)
                    }
                    None => reference_eval_row(w, table, row).as_bool().unwrap_or(false),
                };
                if fire {
                    return reference_eval_row(t, table, row);
                }
            }
            match else_expr {
                Some(e) => reference_eval_row(e, table, row),
                None => Value::Null,
            }
        }
        other => panic!("reference evaluator does not support {other:?}"),
    }
}

/// Builds a random table with nullable int, float, string, and bool columns.
fn random_table(rng: &mut StdRng, rows: usize) -> Table {
    let a: Vec<Option<i64>> = (0..rows)
        .map(|_| (!rng.gen_bool(0.15)).then(|| rng.gen_range(-20..20i64)))
        .collect();
    let b: Vec<Option<f64>> = (0..rows)
        .map(|_| (!rng.gen_bool(0.15)).then(|| (rng.gen_range(-10.0..10.0f64) * 4.0).round() / 4.0))
        .collect();
    let s: Vec<Option<String>> = (0..rows)
        .map(|_| {
            (!rng.gen_bool(0.15)).then(|| {
                let len = rng.gen_range(0..4usize);
                (0..len)
                    .map(|_| (b'a' + rng.gen_range(0..3u32) as u8) as char)
                    .collect()
            })
        })
        .collect();
    let c: Vec<Option<bool>> = (0..rows)
        .map(|_| (!rng.gen_bool(0.15)).then(|| rng.gen_bool(0.5)))
        .collect();
    TableBuilder::new()
        .opt_int_column("a", a)
        .opt_float_column("b", b)
        .opt_str_column("s", s)
        .column("c", Column::from_opt_bool(c))
        .build()
        .unwrap()
}

/// The expression corpus: arithmetic, comparison, boolean logic, NULL tests,
/// BETWEEN / IN / LIKE / CASE / CAST, across every column type.
const KERNEL_EXPRESSIONS: &[&str] = &[
    "a + 7",
    "a - b",
    "a * a",
    "b * 2.5 + a",
    "a / b",
    "b / (a - a)",
    "a % 3",
    "-b",
    "-a",
    "a = 5",
    "a != b",
    "b < 0.5",
    "a >= b",
    "s = 'ab'",
    "s < 'b'",
    "s = a",
    "c AND b > 0",
    "c OR a < 0",
    "NOT c",
    "a IS NULL",
    "b IS NOT NULL",
    "a BETWEEN -5 AND 5",
    "b BETWEEN a AND 5.0",
    "a IN (1, 2, 3)",
    "s IN ('a', 'ab', 'ba')",
    "s NOT IN ('b')",
    "s LIKE 'a%'",
    "s LIKE '_b'",
    "CASE WHEN a > 0 THEN b ELSE -b END",
    "CASE WHEN b IS NULL THEN 'none' WHEN b > 0 THEN 'pos' ELSE 'neg' END",
    "CAST(a AS DOUBLE)",
    "CAST(b AS BIGINT)",
    "CAST(a AS VARCHAR)",
    "CAST(s AS BIGINT)",
    "s || 'x'",
    "a + b * 2 > 3 AND NOT (s = 'ab')",
];

#[test]
fn vectorized_kernels_agree_with_scalar_reference_on_random_columns() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = rng.gen_range(1..200usize);
        let table = random_table(&mut rng, rows);
        for sql in KERNEL_EXPRESSIONS {
            let expr = parse_expression(sql).unwrap();
            let mut rng_fn = || 0.5f64;
            let mut ctx = EvalContext {
                table: &table,
                rng: &mut rng_fn,
            };
            let vectorized = eval_expr(&expr, &mut ctx)
                .unwrap_or_else(|e| panic!("seed {seed}: `{sql}` failed to evaluate: {e}"));
            assert_eq!(vectorized.len(), rows, "seed {seed}: `{sql}` wrong length");
            for row in 0..rows {
                let expected = reference_eval_row(&expr, &table, row);
                let got = vectorized.value_at(row);
                assert_eq!(
                    got,
                    expected,
                    "seed {seed}, row {row}: `{sql}` diverged (row values: {:?})",
                    table.row(row)
                );
            }
        }
    }
}

#[test]
fn filter_masks_agree_with_scalar_reference() {
    for seed in 100..112u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = random_table(&mut rng, 150);
        for sql in [
            "b > 0 AND a < 10",
            "s LIKE 'a%' OR c",
            "a IS NOT NULL AND b < 2.0",
        ] {
            let expr = parse_expression(sql).unwrap();
            let mut rng_fn = || 0.5f64;
            let mut ctx = EvalContext {
                table: &table,
                rng: &mut rng_fn,
            };
            let col = eval_expr(&expr, &mut ctx).unwrap();
            let mask = verdictdb::engine::kernels::column_to_mask(&col);
            for row in 0..table.num_rows() {
                let expected = reference_eval_row(&expr, &table, row)
                    .as_bool()
                    .unwrap_or(false);
                assert_eq!(
                    mask.get(row),
                    expected,
                    "seed {seed}, row {row}: `{sql}` mask diverged"
                );
            }
        }
    }
}

#[test]
fn packed_selection_vectors_agree_with_scalar_reference() {
    use verdictdb::engine::kernels;
    use verdictdb::engine::ThreadPool;

    // Random tables (NULL-bearing columns) plus one morsel-crossing size so
    // the parallel word-aligned concatenation path actually runs.
    let sizes: Vec<(u64, usize)> = (300..312u64)
        .map(|seed| (seed, (seed as usize * 37) % 400))
        .chain([(900u64, verdictdb::engine::MORSEL_ROWS + 137)])
        .collect();
    for (seed, rows) in sizes {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = random_table(&mut rng, rows);
        let a = &table.columns[0];
        let b = &table.columns[1];
        let c = &table.columns[3];
        for threads in [1usize, 4] {
            let pool = ThreadPool::new(threads);
            for op in [BinaryOp::Gt, BinaryOp::Eq, BinaryOp::LtEq] {
                let mask = kernels::par_filter_mask(a, op, b, &pool);
                assert_eq!(mask.len(), rows);
                for row in 0..rows {
                    let expected = table.value_at(row, 0).sql_cmp(&table.value_at(row, 1)).map(
                        |ord| match op {
                            BinaryOp::Gt => ord == Ordering::Greater,
                            BinaryOp::Eq => ord == Ordering::Equal,
                            BinaryOp::LtEq => ord != Ordering::Greater,
                            _ => unreachable!(),
                        },
                    );
                    assert_eq!(
                        mask.get(row),
                        expected.unwrap_or(false),
                        "seed {seed}, row {row}, {op:?}, {threads} thread(s): \
                         packed mask diverged (NULL must deselect)"
                    );
                }
                assert_eq!(
                    mask.count(),
                    (0..rows).filter(|&r| mask.get(r)).count(),
                    "popcount must match per-bit reads"
                );
            }
            // Bool column → mask: NULL and false both deselect.
            let cmask = kernels::par_column_to_mask(c, &pool);
            for row in 0..rows {
                let expected = table.value_at(row, 3).as_bool() == Some(true);
                assert_eq!(
                    cmask.get(row),
                    expected,
                    "seed {seed}, row {row}: bool mask"
                );
            }
            // AND / OR combine word-wise; the reference combines per element.
            let m1 = kernels::par_filter_mask(a, BinaryOp::Gt, b, &pool);
            let m2 = cmask.clone();
            let anded = m1.and(&m2);
            let ored = m1.or(&m2);
            for row in 0..rows {
                assert_eq!(anded.get(row), m1.get(row) && m2.get(row));
                assert_eq!(ored.get(row), m1.get(row) || m2.get(row));
            }
            // Edge masks: nothing selected, everything selected.
            let zero = Column::repeat(&Value::Int(0), rows);
            let one = Column::repeat(&Value::Int(1), rows);
            let none = kernels::par_filter_mask(&zero, BinaryOp::Gt, &one, &pool);
            assert_eq!(none.count(), 0);
            assert!(none.indices().is_empty());
            let all = kernels::par_filter_mask(&one, BinaryOp::Gt, &zero, &pool);
            assert_eq!(all.count(), rows);
            assert_eq!(all.indices(), (0..rows).collect::<Vec<_>>());
        }
    }
}

#[test]
fn grouping_agrees_with_scalar_reference() {
    use verdictdb::engine::kernels::group_rows_with;
    use verdictdb::engine::{ThreadPool, MORSEL_ROWS};

    // Scalar reference: first-appearance grouping over stringified key
    // tuples.  Whichever path the key columns select (dictionary or hash),
    // at every pool size, must reproduce it exactly — gids AND
    // representatives.
    // Canonical key part matching the engine's grouping equality
    // (`loose_eq_rows`): floats use IEEE `==` with NaNs grouped together,
    // so -0.0 keys like 0.0 and every NaN keys alike.
    let key_part = |v: &Value| match v {
        Value::Float(f) if f.is_nan() => "F:NaN".to_string(),
        Value::Float(f) if *f == 0.0 => "F:0".to_string(),
        other => format!("{other:?}"),
    };
    let check = |label: &str, key_cols: &[Column], rows: usize| {
        let mut first: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        let mut ref_gids = Vec::new();
        let mut ref_reps = Vec::new();
        for row in 0..rows {
            let key = key_cols
                .iter()
                .map(|c| key_part(&c.value_at(row)))
                .collect::<Vec<_>>()
                .join("|");
            let next = first.len();
            let gid = *first.entry(key).or_insert_with(|| {
                ref_reps.push(row);
                next
            });
            ref_gids.push(gid);
        }
        for threads in [1usize, 4] {
            let g = group_rows_with(key_cols, rows, &ThreadPool::new(threads));
            assert_eq!(g.gids, ref_gids, "{label}, {threads} thread(s): gids");
            assert_eq!(
                g.representatives, ref_reps,
                "{label}, {threads} thread(s): reps"
            );
        }
    };
    let sizes: Vec<(u64, usize)> = (400..406u64)
        .map(|seed| (seed, 37 + (seed as usize * 53) % 300))
        .chain([(901u64, MORSEL_ROWS + 211)])
        .collect();
    for (seed, rows) in sizes {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = random_table(&mut rng, rows);
        // Key sets: dict-eligible (nullable int + bool), dict-ineligible
        // (float + string → hash), single int, and integral + string (the
        // dictionary must decline the whole key, not just the string part).
        for cols in [vec![0usize, 3], vec![1, 2], vec![0], vec![0, 2]] {
            let key_cols: Vec<Column> = cols.iter().map(|&c| table.columns[c].clone()).collect();
            check(&format!("seed {seed}, cols {cols:?}"), &key_cols, rows);
        }
        // The float column with -0.0 and NaN written over some valid rows.
        let special: Vec<Option<f64>> = (0..rows)
            .map(|row| match (table.value_at(row, 1), row % 5) {
                (Value::Null, _) => None,
                (_, 0) => Some(-0.0),
                (_, 1) => Some(f64::NAN),
                (_, 2) => Some(0.0),
                (v, _) => v.as_f64(),
            })
            .collect();
        check(
            &format!("seed {seed}, -0.0/NaN floats"),
            &[Column::from_opt_f64(special)],
            rows,
        );
    }
    // Every key distinct over more than two morsels: too wide for the
    // dictionary, so the hash path carries the high-cardinality regime.
    let rows = 2 * MORSEL_ROWS + 17;
    let distinct = Column::from_i64((0..rows as i64).map(|i| i * 104_729 - 7).collect());
    check("all-distinct wide ints", &[distinct], rows);
}

#[test]
fn late_materialized_progressive_filter_agrees_with_reference() {
    use verdictdb::engine::{Backend, Engine};

    const Q: &str = "SELECT count(*) AS n, sum(b) AS s FROM t WHERE a > 0 AND c";
    for seed in 500..508u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = 1 + (seed as usize * 41) % 400;
        let table = random_table(&mut rng, rows);
        // Scalar reference: SQL three-valued AND keeps a row only when both
        // conjuncts are TRUE (NULL deselects).
        let expected_count = (0..rows)
            .filter(|&row| {
                table.value_at(row, 0).as_i64().map(|v| v > 0) == Some(true)
                    && table.value_at(row, 3).as_bool() == Some(true)
            })
            .count() as i64;
        for threads in [1usize, 4] {
            let e = Engine::with_seed(seed);
            e.set_parallelism(threads);
            e.register_table("t", table.clone());
            let one_shot = e.execute_sql(Q).unwrap().table;
            let mut scan = e.open_block_scan(Q).expect("progressive shape");
            while !scan.done() {
                scan.advance(64).unwrap();
            }
            let streamed = scan.snapshot().unwrap().table;
            assert_eq!(
                streamed.value_at(0, 0),
                Value::Int(expected_count),
                "seed {seed}, {threads} thread(s): late-materialized count"
            );
            assert!(
                common::values_bit_identical(&streamed.value_at(0, 0), &one_shot.value_at(0, 0))
                    && common::values_bit_identical(
                        &streamed.value_at(0, 1),
                        &one_shot.value_at(0, 1)
                    ),
                "seed {seed}, {threads} thread(s): streamed answer must be \
                 bit-identical to one-shot execution"
            );
        }
    }
}

#[test]
fn integral_sum_is_exact_above_2_pow_53_and_reports_overflow() {
    use std::sync::Arc;
    use verdictdb::engine::{Backend, Engine, EngineError, MORSEL_ROWS};
    use verdictdb::{VerdictConfig, VerdictContext, VerdictSession};

    // 2^53 + 1 + 1 has no f64 representation along the way: an f64
    // accumulator answers ...992.  The three terms sit in three different
    // morsels, so the pool-4 run also merges partial sums.
    let rows = 2 * MORSEL_ROWS + 3;
    let mut v = vec![0i64; rows];
    (v[0], v[MORSEL_ROWS], v[2 * MORSEL_ROWS]) = (1 << 53, 1, 1);
    let mut big = vec![0i64; rows];
    (big[1], big[rows - 2]) = (i64::MAX, 1);
    let table = TableBuilder::new()
        .int_column("g", (0..rows as i64).map(|i| i % 2).collect())
        .int_column("v", v)
        .int_column("big", big)
        .build()
        .unwrap();
    // The same sums within one morsel: a single fold, no merge.
    let small = TableBuilder::new()
        .int_column("g", vec![0, 0, 0])
        .int_column("v", vec![1 << 53, 1, 1])
        .int_column("big", vec![i64::MAX, 1, 0])
        .build()
        .unwrap();
    const EXACT: Value = Value::Int(9_007_199_254_740_994);

    for threads in [1usize, 4] {
        let e = Engine::with_seed(7);
        e.set_parallelism(threads);
        e.register_table("t", table.clone());
        e.register_table("small", small.clone());
        for from in ["t", "small"] {
            let sql = format!("SELECT sum(v) AS s FROM {from}");
            let global = e.execute_sql(&sql).unwrap().table;
            assert_eq!(global.value_at(0, 0), EXACT, "{sql}, {threads} thread(s)");
        }
        // Rows 0, MORSEL_ROWS and 2 * MORSEL_ROWS are all even: group 0.
        let grouped = e
            .execute_sql("SELECT g, sum(v) AS s FROM t GROUP BY g ORDER BY g")
            .unwrap()
            .table;
        assert_eq!(grouped.value_at(0, 1), EXACT, "{threads} thread(s)");
        assert_eq!(grouped.value_at(1, 1), Value::Int(0), "{threads} thread(s)");

        let mut scan = e
            .open_block_scan("SELECT sum(v) AS s FROM t")
            .expect("progressive shape");
        while !scan.done() {
            scan.advance(MORSEL_ROWS as u64).unwrap();
        }
        let streamed = scan.snapshot().unwrap().table;
        assert_eq!(streamed.value_at(0, 0), EXACT, "{threads} thread(s)");

        for sql in [
            "SELECT sum(big) AS s FROM t",
            "SELECT sum(big) AS s FROM small",
            "SELECT g, sum(big) AS s FROM t GROUP BY g",
        ] {
            match e.execute_sql(sql) {
                Err(EngineError::Execution(msg)) => assert!(msg.contains("overflow"), "{msg}"),
                other => panic!("{sql} at {threads} thread(s): expected overflow, got {other:?}"),
            }
        }
    }

    // Through the middleware: the final (here: only) frame of a STREAM.
    let e = Engine::with_seed(7);
    e.register_table("t", table);
    let ctx = VerdictContext::new(
        Arc::new(e) as Arc<dyn Backend>,
        VerdictConfig::for_testing(),
    );
    let last = VerdictSession::new(Arc::new(ctx))
        .stream("STREAM SELECT sum(v) AS s FROM t")
        .unwrap()
        .final_frame()
        .unwrap();
    assert_eq!(last.answer.table.value_at(0, 0), EXACT);
}

/// The engine has one aggregation core, and a progressive scan is that core
/// fed block by block: **every** snapshot must be bit-identical to
/// `Engine::execute_sql` over a table holding exactly the prefix consumed —
/// for every aggregate, with NULLs, at any block size and pool size, and
/// with a WHERE clause that makes base-block boundaries and the core's
/// evaluated-row morsel grid disagree.  `key_cols` are the table columns the
/// statements group by; in each of `shapes`, `{K}` stands for that key list
/// and `{W}` for the WHERE.  The first shape is the plain grouped
/// aggregation: its groups come out in first-appearance order, checked
/// against the scalar reference evaluator.  The others carry a tail (HAVING,
/// ORDER BY … LIMIT, DISTINCT), which a snapshot applies to the prefix
/// exactly as one-shot execution does to the table.
fn check_stream_snapshots_against_one_shot_prefixes(key_cols: &[usize], shapes: &[&str]) {
    use std::collections::{BTreeSet, HashMap};
    use verdictdb::engine::{Backend, Engine, MORSEL_ROWS};

    // ~37% of 3.7 morsels of base rows survive the filter: the evaluated
    // rows fill one morsel and open a second, and no block size below lands
    // a block boundary on the evaluated-row grid.
    let rows = 3 * MORSEL_ROWS + 45_678;
    let at = |i: usize, mul: usize, modulus: usize| (i.wrapping_mul(mul) % modulus) as i64;
    let table = TableBuilder::new()
        .float_column(
            "w",
            (0..rows)
                .map(|i| at(i, 2_654_435_761, 10_000) as f64 / 1e4)
                .collect(),
        )
        // groups 0..13, a NULL group, and groups 100.. that first appear
        // late in the scan
        .opt_int_column(
            "g",
            (0..rows)
                .map(|i| match i {
                    _ if i % 41 == 0 => None,
                    _ if i > rows / 2 && i % 5_003 == 0 => Some(100 + (i % 3) as i64),
                    _ => Some(at(i, 7_919, 13)),
                })
                .collect(),
        )
        .opt_str_column(
            "s",
            (0..rows)
                .map(|i| (i % 29 != 0).then(|| ["north", "south", "east"][i * 7 % 3].to_string()))
                .collect(),
        )
        .opt_float_column(
            "x",
            (0..rows)
                .map(|i| (i % 11 != 0).then(|| (i as f64 * 0.37).sin() * 1e3))
                .collect(),
        )
        .opt_int_column(
            "i",
            (0..rows)
                .map(|i| (i % 13 != 0).then(|| at(i, 48_271, 100_003) - 50_000))
                .collect(),
        )
        .opt_str_column(
            "s2",
            (0..rows)
                .map(|i| (i % 17 != 0).then(|| format!("v{:05}", at(i, 7_919, 50_021))))
                .collect(),
        )
        .build()
        .unwrap();
    const WHERE: &str = "w < 0.37";
    let keys: Vec<&str> = key_cols
        .iter()
        .map(|&c| table.schema.fields[c].name.as_str())
        .collect();
    let keys = keys.join(", ");

    // Scalar reference: which base rows the filter keeps, where the
    // evaluated-row count crosses the morsel boundary, and the groups in
    // first-appearance order, each with the base row it first appears in.
    let predicate = parse_expression(WHERE).unwrap();
    let kept: Vec<usize> = (0..rows)
        .filter(|&row| reference_eval_row(&predicate, &table, row) == Value::Bool(true))
        .collect();
    let selectivity = kept.len() as f64 / rows as f64;
    assert!((0.36..0.38).contains(&selectivity), "{selectivity}");
    assert_eq!(kept.len() / MORSEL_ROWS, 1, "{} evaluated rows", kept.len());
    let crossing = kept[MORSEL_ROWS - 1] + 1;
    let mut first_seen: Vec<(usize, Vec<Value>)> = Vec::new();
    for &row in &kept {
        let key: Vec<Value> = key_cols.iter().map(|&c| table.value_at(row, c)).collect();
        if !first_seen.iter().any(|(_, k)| *k == key) {
            first_seen.push((row, key));
        }
    }

    for (shape, template) in shapes.iter().enumerate() {
        let plain = shape == 0;
        let sql = template.replace("{K}", &keys).replace("{W}", WHERE);
        // One-shot answers do not depend on the pool size (pinned once, over the
        // whole table), so every stream is held against the serial one-shot run.
        let one_shot_over = |threads: usize, len: usize| {
            let columns = table.columns.iter().map(|c| c.slice(0, len)).collect();
            let e = Engine::with_seed(3);
            e.set_parallelism(threads);
            e.register_table("t", Table::new(table.schema.clone(), columns).unwrap());
            e.execute_sql(&sql).unwrap().table
        };
        let mut one_shots: HashMap<usize, Table> = HashMap::new();
        one_shots.insert(rows, one_shot_over(1, rows));
        common::assert_tables_bit_identical(
            &one_shot_over(4, rows),
            &one_shots[&rows],
            "one-shot at 4 threads vs 1",
        );

        for block in [1, 300, MORSEL_ROWS - 1, MORSEL_ROWS, 2 * MORSEL_ROWS + 7] {
            // Large blocks: a snapshot after every block.  Small ones: after the
            // first block, the last, and the three blocks around the crossing of
            // the evaluated-row grid (for block 1: one row before, at, after).
            let after = crossing.div_ceil(block) * block;
            let checkpoints: BTreeSet<usize> =
                [block, after - block, after, after + block, rows].into();
            for threads in [1usize, 4] {
                let e = Engine::with_seed(3);
                e.set_parallelism(threads);
                e.register_table("t", table.clone());
                let mut scan = e.open_block_scan(&sql).expect("progressive shape");
                let mut snapshots = 0;
                while !scan.done() {
                    // past its last checkpoint a small-block scan takes the
                    // rest of the table in one step
                    let small = block < MORSEL_ROWS - 1;
                    let past = scan.rows_seen() as usize >= after + block;
                    scan.advance(if small && past { rows } else { block } as u64)
                        .unwrap();
                    let seen = scan.rows_seen() as usize;
                    if small && !checkpoints.contains(&seen) {
                        continue;
                    }
                    snapshots += 1;
                    let case = format!("block {block}, {threads} thread(s), {seen} rows: {sql}");
                    let snapshot = scan.snapshot().unwrap().table;
                    let one_shot = one_shots
                        .entry(seen)
                        .or_insert_with(|| one_shot_over(1, seen));
                    common::assert_tables_bit_identical(&snapshot, one_shot, &case);

                    if !plain {
                        continue;
                    }
                    let order: Vec<&Vec<Value>> = first_seen
                        .iter()
                        .filter(|(row, _)| *row < seen)
                        .map(|(_, key)| key)
                        .collect();
                    assert_eq!(snapshot.num_rows(), order.len(), "{case}: group count");
                    for (r, key) in order.iter().enumerate() {
                        for (c, v) in key.iter().enumerate() {
                            assert!(
                                common::values_bit_identical(&snapshot.value_at(r, c), v),
                                "{case}: group {r} key {c} is {:?}, first appearance says {v:?}",
                                snapshot.value_at(r, c)
                            );
                        }
                    }
                }
                assert!(
                    snapshots >= 2,
                    "block {block}: {snapshots} snapshots checked"
                );
            }
        }
    }
}

/// Integral keys cluster through dictionary codes.
#[test]
fn every_stream_snapshot_is_the_one_shot_answer_over_its_prefix_dict_keys() {
    const PLAIN: &str = "SELECT {K}, count(*) AS n, count(x) AS nx, sum(i) AS si, sum(x) AS sx, \
         avg(x) AS ax, min(i) AS lo_i, max(i) AS hi_i, min(x) AS lo_x, max(x) AS hi_x \
         FROM t WHERE {W} GROUP BY {K}";
    check_stream_snapshots_against_one_shot_prefixes(
        &[1],
        &[
            PLAIN,
            // no group passes on a short prefix, the late groups never do
            &format!("{PLAIN} HAVING count(*) > 500"),
            &format!("{PLAIN} ORDER BY sx DESC, n LIMIT 5"),
        ],
    );
}

/// A string key clusters through the hash table.
#[test]
fn every_stream_snapshot_is_the_one_shot_answer_over_its_prefix_hash_keys() {
    check_stream_snapshots_against_one_shot_prefixes(
        &[2, 1],
        &[
            "SELECT {K}, min(s2) AS lo_s, max(s2) AS hi_s, variance(x) AS vx, stddev(x) AS sdx, \
             median(x) AS mx, quantile(x, 0.9) AS q9, count(DISTINCT i) AS di, ndv(i) AS ni \
             FROM t WHERE {W} GROUP BY {K}",
            // one row per (s, big?) pair, not per group
            "SELECT DISTINCT s, count(*) > 2000 AS big FROM t WHERE {W} GROUP BY {K} \
             HAVING count(x) > 0 ORDER BY big DESC, s",
        ],
    );
}

/// Two things a running aggregation state must get right *between* blocks:
/// an integral `sum` that leaves the `i64` range in block k fails the
/// snapshot of block k — not only the last one — and a group first seen in
/// the last block shows up there with its own keys.
#[test]
fn stream_snapshots_report_overflow_at_its_block_and_late_groups_with_their_keys() {
    use verdictdb::engine::{Backend, Engine, EngineError, MORSEL_ROWS};

    // (rows, block, rows holding i64::MAX and 1): within one open morsel,
    // and across two morsels (each partial is fine; their merge overflows).
    for (rows, block, (huge, one)) in [
        (3_000, 1_000, (1_500, 1_501)),
        (2 * MORSEL_ROWS + 9, MORSEL_ROWS, (10, MORSEL_ROWS + 5)),
    ] {
        let mut big = vec![0i64; rows];
        (big[huge], big[one]) = (i64::MAX, 1);
        let e = Engine::with_seed(5);
        e.register_table(
            "t",
            TableBuilder::new().int_column("big", big).build().unwrap(),
        );
        let mut scan = e
            .open_block_scan("SELECT sum(big) AS s, count(*) AS n FROM t")
            .expect("progressive shape");
        let mut frames = Vec::new();
        while !scan.done() {
            scan.advance(block as u64).unwrap();
            frames.push(scan.snapshot().map(|r| r.table.value_at(0, 1)));
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(
            frames[0],
            Ok(Value::Int(block as i64)),
            "block 1 has no overflow yet"
        );
        for (k, frame) in frames.iter().enumerate().skip(1) {
            match frame {
                Err(EngineError::Execution(msg)) => assert!(msg.contains("overflow"), "{msg}"),
                other => panic!(
                    "{rows} rows, block {}: expected overflow, got {other:?}",
                    k + 1
                ),
            }
        }
    }

    let rows = 2 * MORSEL_ROWS + 500;
    let late = |i: usize| i >= rows - 100;
    let table = TableBuilder::new()
        .int_column(
            "g",
            (0..rows)
                .map(|i| if late(i) { 77 } else { i as i64 % 5 })
                .collect(),
        )
        .str_column(
            "s",
            (0..rows)
                .map(|i| if late(i) { "late" } else { "early" }.to_string())
                .collect(),
        )
        .float_column("x", (0..rows).map(|i| i as f64 * 0.25).collect())
        .build()
        .unwrap();
    const Q: &str = "SELECT g, s, count(*) AS n, sum(x) AS sx FROM t GROUP BY g, s";
    let e = Engine::with_seed(5);
    e.register_table("t", table);
    let mut scan = e.open_block_scan(Q).expect("progressive shape");
    scan.advance(2 * MORSEL_ROWS as u64).unwrap();
    assert_eq!(scan.snapshot().unwrap().table.num_rows(), 5);
    scan.advance(MORSEL_ROWS as u64).unwrap();
    assert!(scan.done());
    let last = scan.snapshot().unwrap().table;
    assert_eq!(last.num_rows(), 6);
    assert_eq!(last.value_at(5, 0), Value::Int(77));
    assert_eq!(last.value_at(5, 1), Value::Str("late".into()));
    assert_eq!(last.value_at(5, 2), Value::Int(100));
    let expected: f64 = (rows - 100..rows).map(|i| i as f64 * 0.25).sum();
    assert_eq!(last.value_at(5, 3), Value::Float(expected));
    common::assert_tables_bit_identical(&last, &e.execute_sql(Q).unwrap().table, "late group");
}

#[test]
fn vectorized_aggregation_agrees_with_scalar_reference() {
    use verdictdb::engine::Engine;
    for seed in 200..208u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = random_table(&mut rng, 300);
        // scalar reference: per-group accumulation over materialised values
        let mut sums: std::collections::HashMap<String, (f64, i64, Option<f64>, Option<f64>)> =
            std::collections::HashMap::new();
        for row in 0..table.num_rows() {
            let key = match table.value_at(row, 0) {
                Value::Null => "<null>".to_string(),
                v => v.to_string(),
            };
            let entry = sums.entry(key).or_insert((0.0, 0, None, None));
            if let Some(x) = table.value_at(row, 1).as_f64() {
                entry.0 += x;
                entry.1 += 1;
                entry.2 = Some(entry.2.map_or(x, |m: f64| m.min(x)));
                entry.3 = Some(entry.3.map_or(x, |m: f64| m.max(x)));
            }
        }
        // vectorized path: the real engine executing SQL over the table
        let engine = Engine::with_seed(seed);
        engine.register_table("t", table.clone());
        let out = engine
            .execute_sql("SELECT a, sum(b), count(b), min(b), max(b) FROM t GROUP BY a")
            .unwrap()
            .table;
        assert_eq!(
            out.num_rows(),
            sums.len(),
            "seed {seed}: group count diverged"
        );
        for row in 0..out.num_rows() {
            let key = match out.value_at(row, 0) {
                Value::Null => "<null>".to_string(),
                v => v.to_string(),
            };
            let (sum, count, min, max) = sums[&key];
            if count == 0 {
                assert!(
                    out.value_at(row, 1).is_null(),
                    "seed {seed}: sum of empty group"
                );
                assert_eq!(out.value_at(row, 2), Value::Int(0));
                assert!(out.value_at(row, 3).is_null());
            } else {
                let got_sum = out.value_at(row, 1).as_f64().unwrap();
                assert!(
                    (got_sum - sum).abs() < 1e-9,
                    "seed {seed}, group {key}: sum {got_sum} vs {sum}"
                );
                assert_eq!(out.value_at(row, 2), Value::Int(count));
                assert_eq!(out.value_at(row, 3).as_f64(), min);
                assert_eq!(out.value_at(row, 4).as_f64(), max);
            }
        }
    }
}

/// Morsel-parallel execution must be **bit-identical** to serial execution:
/// the same queries over the same nullable columns, run once with a 1-thread
/// pool and once with a 4-thread pool, must produce exactly the same tables —
/// float cells compared by bit pattern, not tolerance.
#[test]
fn parallel_kernels_agree_exactly_with_serial_on_nullable_columns() {
    use verdictdb::engine::Engine;

    let queries = [
        "SELECT a, count(*), sum(b), avg(b), min(b), max(b), stddev(b) FROM t GROUP BY a",
        "SELECT count(*) AS n, sum(b) AS s FROM t WHERE b > 0 AND a IS NOT NULL",
        "SELECT DISTINCT a FROM t",
        "SELECT t1.a, sum(t2.b) AS s FROM t AS t1 INNER JOIN t AS t2 ON t1.a = t2.a GROUP BY t1.a",
        "SELECT a, median(b) AS m FROM t GROUP BY a HAVING count(*) > 2",
    ];
    let assert_tables_bit_equal =
        |sql: &str, s: &verdictdb::engine::Table, p: &verdictdb::engine::Table| {
            assert_eq!(s.num_rows(), p.num_rows(), "`{sql}`: row count diverged");
            assert_eq!(
                s.num_columns(),
                p.num_columns(),
                "`{sql}`: column count diverged"
            );
            for r in 0..s.num_rows() {
                for c in 0..s.num_columns() {
                    let (a, b) = (s.value_at(r, c), p.value_at(r, c));
                    match (&a, &b) {
                        (Value::Float(x), Value::Float(y)) => assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "`{sql}` ({r},{c}): {x} vs {y} differ in bits"
                        ),
                        _ => assert_eq!(a, b, "`{sql}` ({r},{c})"),
                    }
                }
            }
        };

    // Small randomized tables (single morsel: the inline path) ...
    for seed in 300..306u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = rng.gen_range(50..400usize);
        let table = random_table(&mut rng, rows);
        let serial = Engine::with_seed_and_parallelism(seed, 1);
        let parallel = Engine::with_seed_and_parallelism(seed, 4);
        serial.register_table("t", table.clone());
        parallel.register_table("t", table.clone());
        for sql in queries {
            let s = serial.execute_sql(sql).unwrap().table;
            let p = parallel.execute_sql(sql).unwrap().table;
            assert_tables_bit_equal(sql, &s, &p);
        }
    }

    // ... and one multi-morsel table (>64K rows) exercising partial-state
    // merges in the grouped aggregates, filters, and the join build.  The
    // self-join is skipped here: with ~40 distinct keys it would materialise
    // hundreds of millions of rows; the join path instead joins against a
    // small deduplicated dimension built from the same data.
    let mut rng = StdRng::seed_from_u64(777);
    let big = random_table(&mut rng, 150_000);
    let serial = Engine::with_seed_and_parallelism(9, 1);
    let parallel = Engine::with_seed_and_parallelism(9, 4);
    serial.register_table("t", big.clone());
    parallel.register_table("t", big);
    let big_queries = [
        queries[0],
        queries[1],
        queries[2],
        queries[4],
        "SELECT d.a, sum(t.b) AS s FROM t \
         INNER JOIN (SELECT DISTINCT a FROM t) AS d ON t.a = d.a GROUP BY d.a",
    ];
    for sql in big_queries {
        let s = serial.execute_sql(sql).unwrap().table;
        let p = parallel.execute_sql(sql).unwrap().table;
        assert_tables_bit_equal(sql, &s, &p);
    }
}

// ===========================================================================
// Statistical invariants (previously proptest-based, now seeded loops)
// ===========================================================================

/// Lemma 1: with p = f_m(n), the normal-approximated 1-δ lower tail of
/// Binomial(n, p) is at least m, and p is never below the naive m/n.
#[test]
fn staircase_probability_satisfies_lemma1() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..64 {
        let m = rng.gen_range(1..500u64);
        let n = m + rng.gen_range(1..10_000u64);
        let delta = 0.001;
        let p = staircase_probability(m, n, delta);
        assert!(p > 0.0 && p <= 1.0);
        assert!(p >= m as f64 / n as f64 - 1e-12);
        if p < 1.0 {
            assert!(
                lemma1_g(p, n as f64, delta) >= m as f64 - 1e-6,
                "m={m} n={n}"
            );
        }
    }
}

/// The staircase CASE steps are monotone: larger strata get smaller
/// sampling probabilities.
#[test]
fn staircase_steps_are_monotone() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..64 {
        let m = rng.gen_range(10..200u64);
        let max = rng.gen_range(1_000..1_000_000u64);
        let steps = build_staircase(m, max, 0.001);
        for w in steps.windows(2) {
            assert!(w[0].threshold > w[1].threshold);
            assert!(w[0].probability <= w[1].probability + 1e-9);
        }
    }
}

/// The variational-subsampling point estimate equals the sample mean and
/// its interval contains that mean.
#[test]
fn variational_estimate_is_the_sample_mean() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..64 {
        let len = rng.gen_range(100..2000usize);
        let values: Vec<f64> = (0..len).map(|_| rng.gen_range(-1000.0..1000.0)).collect();
        let ns = default_subsample_size(values.len());
        let ci = variational_subsampling_interval(&values, ns, 0.95, 42);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((ci.estimate - mean).abs() < 1e-9);
        assert!(ci.lower <= ci.estimate + 1e-9);
        assert!(ci.upper >= ci.estimate - 1e-9);
    }
}

/// Variational-subsampling intervals are in the same ballpark as CLT
/// intervals (they estimate the same asymptotic distribution).
#[test]
fn variational_interval_tracks_clt() {
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<f64> = (0..5000)
            .map(|_| {
                let z: f64 = (0..12).map(|_| rng.gen_range(0.0f64..1.0)).sum::<f64>() - 6.0;
                10.0 + 10.0 * z
            })
            .collect();
        let clt = clt_interval(&values, 0.95);
        let vs = variational_subsampling_interval(
            &values,
            default_subsample_size(values.len()),
            0.95,
            seed,
        );
        assert!(vs.half_width() < clt.half_width() * 4.0, "seed {seed}");
        assert!(vs.half_width() > clt.half_width() / 4.0, "seed {seed}");
    }
}

/// Normal critical values grow with the confidence level.
#[test]
fn critical_values_are_monotone() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..64 {
        let c1 = rng.gen_range(0.5..0.99f64);
        let c2 = (c1 + rng.gen_range(0.001..0.009f64)).min(0.999);
        assert!(normal_critical_value(c2) >= normal_critical_value(c1));
    }
}

/// A universe join is a cluster sample over its key: both hashed scrambles
/// keep or drop whole keys, so rows of one key rise and fall together.  With
/// heavy per-key clusters the 95% interval of a join aggregate must still
/// cover the truth in at least 90% of seeds, which needs each key's rows in
/// one subsample.  A hashed sample's randomness is the hash of the key, not
/// the engine seed, so each seed redraws the values against fixed key ids.
#[test]
fn universe_join_intervals_cover_the_truth_under_heavy_key_clusters() {
    use std::sync::Arc;
    use verdictdb::engine::{Backend, Engine};
    use verdictdb::{VerdictConfig, VerdictContext, VerdictSession};
    const KEYS: i64 = 2_000;
    const SEEDS: u64 = 200;
    let query =
        "SELECT avg(i.price) AS ap FROM orders o INNER JOIN items i ON o.order_id = i.order_id";
    let mut covered = 0;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut ids, mut prices) = (Vec::new(), Vec::new());
        for k in 0..KEYS {
            // a heavy-tailed key effect shared by 1..12 rows, plus small noise
            let effect = 50.0 * rng.gen_range(0.0..1.0f64).powi(3);
            for _ in 0..1 + k % 12 {
                ids.push(k);
                prices.push(effect + rng.gen_range(-1.0..1.0f64));
            }
        }
        let engine = Arc::new(Engine::with_seed(seed));
        let orders = TableBuilder::new().int_column("order_id", (0..KEYS).collect());
        engine.register_table("orders", orders.build().unwrap());
        let items = TableBuilder::new()
            .int_column("order_id", ids)
            .float_column("price", prices);
        engine.register_table("items", items.build().unwrap());
        let truth = engine.execute_sql(query).unwrap().table.value(0, 0);
        let truth = truth.as_f64().unwrap();

        let mut config = VerdictConfig::for_testing();
        // room for the two τ = 0.1 scrambles together, not for either alone
        config.io_budget = 0.15;
        let ctx = Arc::new(VerdictContext::new(engine as Arc<dyn Backend>, config));
        let mut session = VerdictSession::new(ctx);
        for t in ["orders", "items"] {
            session
                .execute(&format!(
                    "CREATE SCRAMBLE {t}_h FROM {t} METHOD hashed RATIO 0.1 ON order_id"
                ))
                .unwrap();
        }
        let answer = session.execute(query).unwrap().into_answer().unwrap();
        assert!(
            !answer.exact,
            "seed {seed}: the join must be answered from scrambles"
        );
        let estimate = answer.table.value(0, 0).as_f64().unwrap();
        let half_width = answer.table.value(0, 1).as_f64().unwrap();
        covered += usize::from((estimate - truth).abs() <= half_width);
    }
    assert!(
        covered as f64 >= 0.9 * SEEDS as f64,
        "covered in {covered} of {SEEDS} seeds"
    );
}

/// An approximate answer has the shape of the exact one.  Over seeded data
/// and scrambles, scalar, grouped and joined aggregates under predicates
/// that select 0, 1, 10 and 100 rows and 1% of the table either fall back to
/// the exact answer, or answer a scalar aggregate with exactly one row and
/// invent no group the exact answer lacks.  (A group the sample missed is
/// not checked here: that is recall, not shape.)
#[test]
fn approximate_answers_have_the_shape_of_the_exact_answer() {
    use std::collections::HashSet;
    use std::sync::Arc;
    use verdictdb::engine::{Backend, Engine};
    use verdictdb::{VerdictAnswer, VerdictConfig, VerdictContext, VerdictSession};
    const ROWS: i64 = 100_000;
    const SHAPES: [(&str, bool); 4] = [
        (
            "SELECT count(*) AS n, avg(f.v) AS av FROM facts f WHERE {p}",
            false,
        ),
        (
            "SELECT f.g, count(*) AS n, sum(f.v) AS sv FROM facts f WHERE {p} GROUP BY f.g",
            true,
        ),
        (
            "SELECT count(*) AS n, sum(f.v) AS sv FROM facts f \
             INNER JOIN dims d ON f.k = d.k WHERE {p}",
            false,
        ),
        (
            "SELECT d.region, avg(f.v) AS av FROM facts f \
             INNER JOIN dims d ON f.k = d.k WHERE {p} GROUP BY d.region",
            true,
        ),
    ];
    let selected = [0, 1, 10, 100, ROWS / 100];
    let mut approximated = 0;
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // `id` is a random permutation, so `f.id < m` selects m random rows.
        let mut ids: Vec<i64> = (0..ROWS).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        let facts = TableBuilder::new()
            .int_column("id", ids)
            .int_column("g", (0..ROWS).map(|_| rng.gen_range(0..8)).collect())
            .int_column("k", (0..ROWS).map(|_| rng.gen_range(0..50)).collect())
            .float_column("v", (0..ROWS).map(|_| rng.gen_range(0.0..100.0)).collect());
        let dims = TableBuilder::new()
            .int_column("k", (0..50).collect())
            .str_column("region", (0..50).map(|k| format!("r{}", k % 5)).collect());
        let engine = Arc::new(Engine::with_seed(seed));
        engine.register_table("facts", facts.build().unwrap());
        engine.register_table("dims", dims.build().unwrap());
        let mut config = VerdictConfig::for_testing();
        config.include_error_columns = false;
        config.io_budget = 0.5;
        let ctx = Arc::new(VerdictContext::new(engine as Arc<dyn Backend>, config));
        let mut session = VerdictSession::new(ctx);
        let ratio = [0.01, 0.1][seed as usize % 2];
        session
            .execute(&format!("CREATE SCRAMBLE facts_s FROM facts RATIO {ratio}"))
            .unwrap();
        let mut run =
            |sql: &str| -> VerdictAnswer { session.execute(sql).unwrap().into_answer().unwrap() };
        for (shape, grouped) in SHAPES {
            for m in selected {
                let sql = shape.replace("{p}", &format!("f.id < {m}"));
                let approx = run(&sql);
                if approx.exact {
                    continue;
                }
                approximated += 1;
                let case = format!("seed {seed}, ratio {ratio}: `{sql}`");
                if !grouped {
                    assert_eq!(approx.table.num_rows(), 1, "{case}");
                    continue;
                }
                let exact = run(&format!("BYPASS {sql}"));
                let keys: HashSet<String> = (0..exact.table.num_rows())
                    .map(|r| exact.table.value(r, 0).to_string())
                    .collect();
                for r in 0..approx.table.num_rows() {
                    let key = approx.table.value(r, 0).to_string();
                    assert!(keys.contains(&key), "{case}: invented group {key}");
                }
            }
        }
    }
    assert!(approximated > 0, "the sweep must approximate some answers");
}

/// One generated aggregate SELECT over `from`: a grouped count with a
/// filter, an ordering on the aggregate and a limit, on one of the columns
/// `a`, `b`, `c`.
fn generated_select(rng: &mut StdRng, from: &str, max_threshold: i64) -> String {
    let col = ["a", "b", "c"][rng.gen_range(0..3usize)];
    let threshold = rng.gen_range(0..max_threshold);
    let limit = rng.gen_range(1..50u64);
    format!(
        "SELECT {col}, count(*) AS cnt FROM {from} WHERE {col} > {threshold} GROUP BY {col} ORDER BY cnt DESC LIMIT {limit}"
    )
}

/// Printing and re-parsing a parsed statement is a fixpoint (printer
/// stability over the grammar of generated SELECTs).
#[test]
fn printer_is_stable_for_generated_selects() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..64 {
        let table = ["t", "u", "v"][rng.gen_range(0..3usize)];
        let sql = generated_select(&mut rng, table, 1000);
        let stmt = parse_statement(&sql).unwrap();
        let printed = print_statement(&stmt, &GenericDialect);
        let reparsed = parse_statement(&printed).unwrap();
        assert_eq!(print_statement(&reparsed, &GenericDialect), printed);
    }
}

// ===========================================================================
// Generated expression trees: printer, canonicaliser and the one traversal
// ===========================================================================

/// How the expression generator spells identifiers (columns, tables,
/// function names) — as given, or case-mangled.
type Spell<'a> = &'a mut dyn FnMut(&str) -> String;

/// A random expression tree of depth at most `depth` that prints to text
/// parsing back to the same tree: every variant the grammar allows, `*` only
/// inside `count(*)`, and an operand that does not delimit itself wrapped in
/// parentheses (a `Nested` node, which the printer keeps).
fn random_expr(rng: &mut StdRng, depth: u32, spell: Spell) -> Expr {
    use verdictdb::sql::ast::{FunctionCall, OrderByItem, WindowSpec};
    if depth == 0 || rng.gen_bool(0.2) {
        return match rng.gen_range(0..6u32) {
            0 => Expr::Column {
                table: None,
                name: spell(["x", "price", "city"][rng.gen_range(0..3usize)]),
            },
            1 => Expr::Column {
                table: Some(spell("t")),
                name: spell("qty"),
            },
            2 => Expr::int(rng.gen_range(0..1000i64)),
            3 => Expr::float(rng.gen_range(0..40i64) as f64 / 4.0),
            4 => Expr::string(["NYC", "it's", "%a_"][rng.gen_range(0..3usize)]),
            _ => Expr::Literal(
                [Literal::Null, Literal::Boolean(rng.gen())][rng.gen_range(0..2usize)].clone(),
            ),
        };
    }
    let d = depth - 1;
    let mut sub = |rng: &mut StdRng| random_expr(rng, d, spell);
    match rng.gen_range(0..13u32) {
        0 => {
            const OPS: [BinaryOp; 14] = [
                BinaryOp::Plus,
                BinaryOp::Minus,
                BinaryOp::Multiply,
                BinaryOp::Divide,
                BinaryOp::Modulo,
                BinaryOp::Eq,
                BinaryOp::NotEq,
                BinaryOp::Lt,
                BinaryOp::LtEq,
                BinaryOp::Gt,
                BinaryOp::GtEq,
                BinaryOp::And,
                BinaryOp::Or,
                BinaryOp::Concat,
            ];
            let left = operand(sub(rng));
            let op = OPS[rng.gen_range(0..OPS.len())];
            Expr::binary(left, op, operand(sub(rng)))
        }
        1 => Expr::UnaryOp {
            op: [UnaryOp::Not, UnaryOp::Minus, UnaryOp::Plus][rng.gen_range(0..3usize)],
            expr: Box::new(operand(sub(rng))),
        },
        2 => {
            let (name, args, over) = match rng.gen_range(0..4u32) {
                0 => ("count", vec![Expr::Wildcard], None),
                1 => ("abs", vec![sub(rng)], None),
                2 => ("coalesce", vec![sub(rng), sub(rng)], None),
                _ => {
                    let window = WindowSpec {
                        partition_by: vec![sub(rng)],
                        order_by: vec![OrderByItem {
                            expr: sub(rng),
                            asc: rng.gen(),
                        }],
                    };
                    ("sum", vec![sub(rng)], Some(window))
                }
            };
            Expr::Function(FunctionCall {
                name: spell(name),
                distinct: name == "abs" && rng.gen(),
                args,
                over,
            })
        }
        3 => Expr::Case {
            operand: rng.gen_bool(0.5).then(|| Box::new(sub(rng))),
            when_then: (0..rng.gen_range(1..3usize))
                .map(|_| (sub(rng), sub(rng)))
                .collect(),
            else_expr: rng.gen_bool(0.5).then(|| Box::new(sub(rng))),
        },
        4 => Expr::IsNull {
            expr: Box::new(operand(sub(rng))),
            negated: rng.gen(),
        },
        5 => Expr::InList {
            expr: Box::new(operand(sub(rng))),
            list: (0..rng.gen_range(1..4usize)).map(|_| sub(rng)).collect(),
            negated: rng.gen(),
        },
        6 => Expr::InSubquery {
            expr: Box::new(operand(sub(rng))),
            subquery: Box::new(random_subquery(rng, d, spell)),
            negated: rng.gen(),
        },
        7 => Expr::Between {
            expr: Box::new(operand(sub(rng))),
            low: Box::new(operand(sub(rng))),
            high: Box::new(operand(sub(rng))),
            negated: rng.gen(),
        },
        8 => Expr::Like {
            expr: Box::new(operand(sub(rng))),
            pattern: Box::new(operand(sub(rng))),
            negated: rng.gen(),
        },
        9 => Expr::ScalarSubquery(Box::new(random_subquery(rng, d, spell))),
        10 => Expr::Exists {
            subquery: Box::new(random_subquery(rng, d, spell)),
            negated: rng.gen(),
        },
        11 => Expr::Cast {
            expr: Box::new(sub(rng)),
            data_type: [
                CastType::Integer,
                CastType::Double,
                CastType::Varchar,
                CastType::Boolean,
            ][rng.gen_range(0..4usize)],
        },
        _ => Expr::Nested(Box::new(sub(rng))),
    }
}

/// `e` as an operand: itself when its text delimits itself, else in
/// parentheses (`NOT` before `EXISTS` would read as `NOT EXISTS`).
fn operand(e: Expr) -> Expr {
    match e {
        Expr::Exists { .. }
        | Expr::BinaryOp { .. }
        | Expr::UnaryOp { .. }
        | Expr::IsNull { .. }
        | Expr::InList { .. }
        | Expr::InSubquery { .. }
        | Expr::Between { .. }
        | Expr::Like { .. } => Expr::Nested(Box::new(e)),
        e => e,
    }
}

/// `SELECT max(x) AS m FROM t [WHERE <expr>]`.
fn random_subquery(rng: &mut StdRng, depth: u32, spell: Spell) -> verdictdb::sql::ast::Query {
    use verdictdb::sql::ast::{
        FunctionCall, ObjectName, Query, SelectItem, TableFactor, TableWithJoins,
    };
    let max = Expr::Function(FunctionCall {
        name: spell("max"),
        args: vec![Expr::col(spell("x"))],
        distinct: false,
        over: None,
    });
    Query {
        projection: vec![SelectItem::ExprWithAlias {
            expr: max,
            alias: "m".into(),
        }],
        from: vec![TableWithJoins {
            relation: TableFactor::Table {
                name: ObjectName::bare(spell("u")),
                alias: None,
            },
            joins: Vec::new(),
        }],
        selection: rng.gen_bool(0.5).then(|| random_expr(rng, depth, spell)),
        ..Query::empty()
    }
}

/// Random expression trees of depth ≤ 4 (covering all 16 `Expr` variants):
/// print∘parse is a fixpoint, `canonical_sql` is idempotent and blind to
/// identifier case, and an identity `transform_expr` changes nothing.
#[test]
fn generated_expression_trees_roundtrip_and_canonicalise() {
    use std::collections::HashSet;
    use verdictdb::sql::ast::{Query, SelectItem, Statement};
    use verdictdb::sql::canonical_sql;
    use verdictdb::sql::visitor::{transform_expr, walk_expr};

    let statement = |seed: u64, spell: Spell| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut query = random_subquery(&mut rng, 4, spell);
        query.projection = vec![SelectItem::ExprWithAlias {
            expr: random_expr(&mut rng, 4, spell),
            alias: "v".into(),
        }];
        query
    };
    let mut variants = HashSet::new();
    for seed in 0..1000u64 {
        let query: Query = statement(seed, &mut |s| s.to_string());
        let stmt = Statement::Query(Box::new(query.clone()));
        let text = print_statement(&stmt, &GenericDialect);
        let parsed =
            parse_statement(&text).unwrap_or_else(|e| panic!("seed {seed}: `{text}`: {e}"));
        assert_eq!(parsed, stmt, "seed {seed}: `{text}` parses to another tree");
        assert_eq!(
            print_statement(&parsed, &GenericDialect),
            text,
            "seed {seed}"
        );

        let canonical = canonical_sql(&text).unwrap();
        assert_eq!(canonical_sql(&canonical).unwrap(), canonical, "seed {seed}");
        let mut mangler = StdRng::seed_from_u64(!seed);
        let mangled = statement(seed, &mut |s| {
            s.chars()
                .map(|c| {
                    if mangler.gen() {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect()
        });
        let mangled = print_statement(&Statement::Query(Box::new(mangled)), &GenericDialect);
        assert_eq!(
            canonical_sql(&mangled).unwrap(),
            canonical,
            "seed {seed}: `{mangled}`"
        );

        for e in query.projection[0]
            .expr()
            .into_iter()
            .chain(&query.selection)
        {
            assert_eq!(&transform_expr(e.clone(), &mut |n| n), e, "seed {seed}");
            walk_expr(e, &mut |n| {
                variants.insert(std::mem::discriminant(n));
            });
        }
    }
    assert_eq!(variants.len(), 16, "every Expr variant generated");
}

// ===========================================================================
// Row-wise derived tables bound as views vs their materialisation
// ===========================================================================

/// A row-wise wrapper `(SELECT *, <expr> AS c FROM t [WHERE p])` is bound as
/// a view holding only the base columns the enclosing statement names.  That
/// must be invisible: every statement over the wrapper — alone, joined to a
/// base table, joined to a second wrapper on a shared column name — answers
/// bit for bit (or fails word for word) like the same statement over a
/// `CREATE TABLE … AS` materialisation of the wrapper, at pool sizes 1 and
/// 4, and through the progressive executor at any block size.
#[test]
fn statements_over_row_wise_wrappers_equal_statements_over_their_materialisation() {
    use std::sync::Arc;
    use verdictdb::engine::exec::Executor;
    use verdictdb::engine::{BlockScan, Catalog, ProgressiveScan, ThreadPool, MORSEL_ROWS};
    use verdictdb::sql::ast::Statement;

    const SEED: u64 = 7;
    let run = |catalog: &Catalog, sql: &str, threads: usize| -> Result<Table, String> {
        let stmt = parse_statement(sql).map_err(|e| e.to_string())?;
        let mut exec = Executor::with_pool(catalog, Some(SEED), Arc::new(ThreadPool::new(threads)));
        exec.execute_statement(&stmt).map_err(|e| e.to_string())
    };
    let assert_same =
        |view: &Result<Table, String>, stored: &Result<Table, String>, case: &str| match (
            view, stored,
        ) {
            (Ok(v), Ok(m)) => {
                assert_eq!(v.schema, m.schema, "{case}: schemas differ");
                common::assert_tables_bit_identical(v, m, case);
            }
            (Err(v), Err(m)) => assert_eq!(v, m, "{case}: errors differ"),
            _ => panic!("{case}: view gave {view:?}, materialisation gave {stored:?}"),
        };

    // The wrappers over `t`; `{V}` in a statement is either the wrapper in
    // parentheses or the table it was materialised into.
    let wrappers = [
        // a computed column beside `*`
        "SELECT *, a * 2 AS d FROM t",
        // no base column named by the wrapper itself
        "SELECT *, 1 AS d FROM t",
        // a computed alias equal to a base column name, and an inner WHERE
        // (the late-materialised scan)
        "SELECT *, b + 1 AS c, a AS d FROM t WHERE a > -5",
        // the rewriter's own shape: a subsample id from a stored column
        "SELECT *, CAST(1 + floor(b * b) AS BIGINT) AS d FROM t",
        // seeded rand() in the WHERE and in two items: the draw order is
        // part of the answer
        "SELECT *, rand() AS r, CAST(1 + floor(rand() * 4) AS BIGINT) AS d FROM t \
         WHERE rand() < 0.7",
    ];
    // The second wrapper, over `u`, for view-to-view joins.
    const SECOND: &str = "SELECT *, a + 1 AS e FROM u WHERE b IS NOT NULL";
    // Aggregations over the wrapper alone: also run through ProgressiveScan.
    let progressive = [
        "SELECT d, count(*) AS n, sum(b) AS sb FROM {V} AS v GROUP BY d",
        "SELECT v.a AS a, sum((v.b) / (0.5)) AS est, count(*) AS n FROM {V} AS v \
         WHERE v.s < 'b' GROUP BY v.a",
        "SELECT count(*) AS n, avg(c) AS m FROM {V} AS v",
        // no column named at all: the row count must survive
        "SELECT count(*) AS n FROM {V} AS v",
    ];
    let alone = [
        // wildcards keep every column
        "SELECT * FROM {V} AS v",
        "SELECT v.* FROM {V} AS v WHERE v.a > 0",
        // a column named only in ORDER BY
        "SELECT v.s FROM {V} AS v ORDER BY b, a, s",
        // a subquery keeps every column too
        "SELECT count(*) AS n FROM {V} AS v WHERE a IN (SELECT a FROM u WHERE b > 0)",
        // a name that exists nowhere fails the same way
        "SELECT nope FROM {V} AS v",
    ];
    let joined = [
        "SELECT v.s, count(*) AS n FROM {V} AS v INNER JOIN u ON v.a = u.a GROUP BY v.s",
        // an unqualified name present on both sides resolves to the first
        "SELECT b, count(*) AS n FROM {V} AS v INNER JOIN u ON v.a = u.a GROUP BY b",
        "SELECT u.s, sum(d) AS sd FROM u INNER JOIN {V} AS v ON v.a = u.a GROUP BY u.s",
        // columns named only in the JOIN constraint
        "SELECT count(*) AS n FROM {V} AS v INNER JOIN u ON v.a = u.a AND v.b < u.b",
        "SELECT v.a, u.s FROM {V} AS v LEFT JOIN u ON v.a = u.a AND u.b > 0 ORDER BY v.a, u.s",
        "SELECT * FROM {V} AS v INNER JOIN u ON v.a = u.a WHERE u.b > 8",
        // two views sharing every base column name
        "SELECT a, count(*) AS n FROM {V} AS v INNER JOIN {W} AS w ON v.a = w.a GROUP BY a",
        "SELECT s, sum(e) AS se, sum(d) AS sd FROM {V} AS v INNER JOIN {W} AS w \
         ON v.a = w.a AND v.s = w.s GROUP BY s ORDER BY s",
        "SELECT w.* FROM {V} AS v INNER JOIN {W} AS w ON v.a = w.a WHERE v.b > 8",
    ];

    let all_null = |rows: usize| {
        TableBuilder::new()
            .opt_int_column("a", vec![None; rows])
            .opt_float_column("b", vec![None; rows])
            .opt_str_column("s", vec![None; rows])
            .column("c", Column::from_opt_bool(vec![None; rows]))
            .build()
            .unwrap()
    };
    let mut rng = StdRng::seed_from_u64(17);
    // (label, t, with joins): the large table crosses a morsel boundary and
    // is too big to join against itself
    let tables = [
        ("random", random_table(&mut rng, 331), true),
        ("zero rows", random_table(&mut rng, 0), true),
        ("all NULL", all_null(40), true),
        (
            "two morsels",
            random_table(&mut rng, MORSEL_ROWS + 777),
            false,
        ),
    ];
    for (label, t, with_joins) in tables {
        let catalog = Catalog::new();
        catalog.register("t", t);
        catalog.register("u", random_table(&mut rng, 120));
        run(&catalog, &format!("CREATE TABLE m2 AS {SECOND}"), 1).unwrap();
        for (w, wrapper) in wrappers.iter().enumerate() {
            let stored = format!("m_{w}");
            run(&catalog, &format!("CREATE TABLE {stored} AS {wrapper}"), 1).unwrap();
            let has_rand = wrapper.contains("rand()");
            let over = |template: &str, view: bool| {
                let (v, w2) = if view {
                    (format!("({wrapper})"), format!("({SECOND})"))
                } else {
                    (stored.clone(), "m2".to_string())
                };
                template.replace("{V}", &v).replace("{W}", &w2)
            };
            let mut statements: Vec<String> = Vec::new();
            statements.extend(progressive.iter().map(|s| s.to_string()));
            statements.extend(alone.iter().map(|s| s.to_string()));
            statements.extend((0..6).map(|_| generated_select(&mut rng, "{V} AS v", 12)));
            if with_joins {
                statements.extend(joined.iter().map(|s| s.to_string()));
            }
            for template in &statements {
                let case = format!("{label}, wrapper {w}, {template}");
                let expected = run(&catalog, &over(template, false), 1);
                for threads in [1usize, 4] {
                    let bound = run(&catalog, &over(template, true), threads);
                    assert_same(&bound, &expected, &format!("{case}, {threads} thread(s)"));
                }
            }
            // The same aggregations block by block: the last snapshot is the
            // one-shot answer, whatever the block size.
            for template in progressive {
                let sql = over(template, true);
                let Statement::Query(query) = parse_statement(&sql).unwrap() else {
                    panic!("not a query")
                };
                let pool = Arc::new(ThreadPool::new(4));
                let scan = ProgressiveScan::try_new(&catalog, &query, Arc::clone(&pool));
                if has_rand {
                    assert!(scan.is_err(), "rand() cannot be replayed block by block");
                    continue;
                }
                let one_shot = run(&catalog, &sql, 4).unwrap();
                for block in [300u64, MORSEL_ROWS as u64] {
                    let mut scan = ProgressiveScan::try_new(&catalog, &query, Arc::clone(&pool))
                        .unwrap_or_else(|e| panic!("{label}: {sql}: {e}"));
                    while !scan.done() {
                        scan.advance(block).unwrap();
                    }
                    let streamed = scan.snapshot().unwrap().table;
                    let case = format!("{label}, wrapper {w}, {template}, block {block}");
                    assert_eq!(streamed.schema, one_shot.schema, "{case}");
                    common::assert_tables_bit_identical(&streamed, &one_shot, &case);
                }
            }
        }
    }
}

/// The order of `rand()` draws is part of a seeded answer — scramble builds
/// are such statements, and the benchmark's error metrics hold them to 1e-6.
/// It is "every row through the WHERE, then every survivor through the next
/// expression, …", which only holds while a `rand()` statement is executed
/// as one block: cut into several, the draws of two expressions evaluated
/// per block (the third statement's WHERE and `r`) would interleave.  The
/// reference draws from the same seeded `StdRng` in whole-input order.
#[test]
fn rand_statements_draw_in_whole_input_order() {
    use verdictdb::engine::{Backend, Engine, MORSEL_ROWS};

    const SEED: u64 = 41;
    // More rows than a serial pool's drain takes per block of a rand-free
    // statement (8 morsels per worker), so a cut would show.
    let rows = 9 * MORSEL_ROWS + 4_321;
    let table = TableBuilder::new()
        .int_column("id", (0..rows as i64).collect())
        .build()
        .unwrap();
    // (id, u) rows of the survivors, stably sorted by their sort key.
    let sorted = |survivors: Vec<(i64, f64)>, rng: &mut StdRng| -> Vec<Vec<Value>> {
        let keys: Vec<f64> = survivors.iter().map(|_| rng.gen::<f64>()).collect();
        let mut order: Vec<usize> = (0..survivors.len()).collect();
        order.sort_by(|&a, &b| keys[a].partial_cmp(&keys[b]).unwrap());
        let row = |&i: &usize| vec![Value::Int(survivors[i].0), Value::Float(survivors[i].1)];
        order.iter().map(row).collect()
    };

    // rand() in the WHERE: n draws for the filter, then one per survivor for
    // `u`, then one per survivor for the sort key.
    let mut rng = StdRng::seed_from_u64(SEED);
    let kept: Vec<i64> = (0..rows as i64)
        .filter(|_| rng.gen::<f64>() < 0.3)
        .collect();
    let drawn: Vec<(i64, f64)> = kept.iter().map(|&id| (id, rng.gen::<f64>())).collect();
    let in_where = sorted(drawn, &mut rng);

    // The Impala-safe form, through a row-wise wrapper: n draws for the
    // wrapper's column, which the survivors keep, then the sort keys.
    let mut rng = StdRng::seed_from_u64(SEED);
    let drawn: Vec<(i64, f64)> = (0..rows as i64).map(|id| (id, rng.gen::<f64>())).collect();
    let kept = drawn.into_iter().filter(|&(_, u)| u < 0.3).collect();
    let in_wrapper = sorted(kept, &mut rng);

    // Over a join, `t.id % 3 <> 0` names one relation but is not applied
    // before the join: one draw per joined row (every fifth id joins twice),
    // then one per survivor for `u`, then the sort keys.
    let twice = |id: i64| if id % 5 == 0 { 2 } else { 1 };
    let mut rng = StdRng::seed_from_u64(SEED);
    let joined = (0..rows as i64).flat_map(|id| std::iter::repeat_n(id, twice(id)));
    let kept: Vec<i64> = joined
        .filter(|&id| {
            let u = rng.gen::<f64>();
            id % 3 != 0 && u < 0.3
        })
        .collect();
    let drawn: Vec<(i64, f64)> = kept.iter().map(|&id| (id, rng.gen::<f64>())).collect();
    let in_join = sorted(drawn, &mut rng);
    let t2 = TableBuilder::new()
        .int_column(
            "id",
            (0..rows as i64)
                .chain((0..rows as i64).step_by(5))
                .collect(),
        )
        .build()
        .unwrap();

    for (select, expected) in [
        (
            "SELECT *, rand() AS u FROM t WHERE rand() < 0.3 ORDER BY rand()",
            &in_where,
        ),
        (
            "SELECT v.id, v.verdict_rand AS u FROM (SELECT *, rand() AS verdict_rand FROM t) AS v \
             WHERE v.verdict_rand < 0.3 ORDER BY rand()",
            &in_wrapper,
        ),
        (
            "SELECT v.id, v.r AS u FROM (SELECT *, rand() AS r FROM t WHERE rand() < 0.3) AS v \
             ORDER BY rand()",
            &in_where,
        ),
        (
            "SELECT t.id, rand() AS u FROM t INNER JOIN t2 ON t.id = t2.id \
             WHERE t.id % 3 <> 0 AND rand() < 0.3 ORDER BY rand()",
            &in_join,
        ),
    ] {
        assert!(expected.len() > rows / 5, "{} survivors", expected.len());
        for threads in [1usize, 4] {
            // the engine seeds its first statement with the seed itself
            let e = Engine::with_seed(SEED);
            e.set_parallelism(threads);
            e.register_table("t", table.clone());
            e.register_table("t2", t2.clone());
            e.execute_sql(&format!("CREATE TABLE s AS {select}"))
                .unwrap();
            let built = e.execute_sql("SELECT * FROM s").unwrap().table;
            let case = format!("{threads} thread(s): {select}");
            assert_eq!(built.num_rows(), expected.len(), "{case}");
            for (r, (got, want)) in built.iter_rows().zip(expected).enumerate() {
                let same = got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(g, w)| common::values_bit_identical(g, w));
                assert!(
                    same,
                    "{case}: row {r} is {got:?}, the reference drew {want:?}"
                );
            }
        }
    }
}

/// An outer join's `ON` is its match condition, non-equi conjuncts
/// included: a preserved row none of whose key matches passes them is
/// emitted once, null-extended.  Checked against a nested loop over the
/// scalar reference evaluator.
#[test]
fn outer_joins_with_residual_conditions_agree_with_scalar_reference() {
    use verdictdb::engine::Engine;

    const ON: &str = "l.a = r.a AND r.b > l.b";
    let on = parse_expression(ON).unwrap();
    for seed in 600..606u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let left = random_table(&mut rng, 5 + (seed as usize * 13) % 40);
        let right = random_table(&mut rng, 5 + (seed as usize * 29) % 40);
        let e = Engine::with_seed(seed);
        e.register_table("l", left.clone());
        e.register_table("r", right.clone());
        // every (l, r) pair as one row of a frame qualified like the join's
        let pairs = e.execute_sql("SELECT * FROM l CROSS JOIN r").unwrap().table;
        let matches = |l: usize, r: usize| {
            reference_eval_row(&on, &pairs, l * right.num_rows() + r).as_bool() == Some(true)
        };
        let null_row = |t: &Table| vec![Value::Null; t.num_columns()];
        let mut expected_left: Vec<Vec<Value>> = Vec::new();
        for l in 0..left.num_rows() {
            let hits: Vec<usize> = (0..right.num_rows()).filter(|&r| matches(l, r)).collect();
            for &r in &hits {
                expected_left.push([left.row(l), right.row(r)].concat());
            }
            if hits.is_empty() {
                expected_left.push([left.row(l), null_row(&right)].concat());
            }
        }
        let mut expected_right: Vec<Vec<Value>> = Vec::new();
        for r in 0..right.num_rows() {
            let hits: Vec<usize> = (0..left.num_rows()).filter(|&l| matches(l, r)).collect();
            for &l in &hits {
                expected_right.push([left.row(l), right.row(r)].concat());
            }
            if hits.is_empty() {
                expected_right.push([null_row(&left), right.row(r)].concat());
            }
        }
        for (kind, expected) in [("LEFT", expected_left), ("RIGHT", expected_right)] {
            let sql = format!("SELECT * FROM l {kind} JOIN r ON {ON}");
            let got = e.execute_sql(&sql).unwrap().table;
            assert_eq!(got.num_rows(), expected.len(), "seed {seed}: {sql}");
            for (i, (got, want)) in got.iter_rows().zip(&expected).enumerate() {
                assert!(
                    got.iter()
                        .zip(want)
                        .all(|(g, w)| common::values_bit_identical(g, w)),
                    "seed {seed}: {sql}, row {i}: {got:?} vs {want:?}"
                );
            }
        }
    }
}

// ===========================================================================
// WHERE conjuncts placed before the join vs filtering the joined rows
// ===========================================================================

/// `t` (a [`random_table`]) with some of its `b` floats NaN or −0.0.
fn with_nan_and_negative_zero(mut t: Table) -> Table {
    let b = (0..t.num_rows())
        .map(|i| match t.columns[1].value_at(i) {
            Value::Float(x) => Some(match i % 11 {
                3 => f64::NAN,
                7 => -0.0,
                _ => x,
            }),
            _ => None,
        })
        .collect();
    t.columns[1] = Column::from_opt_f64(b);
    t
}

/// One random WHERE conjunct over the FROM clause whose relations are bound
/// as `relations` (in FROM order; `v` is the row-wise wrapper with the
/// computed column `d`).  The second value is set for `X.s + 1 > 0`: the
/// column whose first non-NULL joined value makes it fail.
fn random_conjunct(rng: &mut StdRng, relations: &[&str]) -> (String, Option<String>) {
    let k = rng.gen_range(-10..10i64);
    let f = rng.gen_range(-20..20i64) as f64 / 4.0;
    let x = relations[rng.gen_range(0..relations.len())];
    let y = relations[rng.gen_range(0..relations.len())];
    let conjunct = match rng.gen_range(0..10u32) {
        // one relation
        0..=3 => [
            format!("{x}.a > {k}"),
            format!("{x}.b < {f}"),
            format!("{x}.b >= {x}.a"),
            format!("{x}.s LIKE 'a%'"),
            format!("{x}.s IN ('a', 'b', 'ab')"),
            format!("{x}.a IS NULL"),
            format!("{x}.b IS NOT NULL"),
            format!("{x}.c"),
            format!("{x}.a BETWEEN -5 AND {k}"),
            format!("{x}.a + 7 > {k}"),
            format!("({x}.a < 0 OR {x}.c)"),
            format!("{x}.b * 2.5 + {x}.a > 0"),
        ][rng.gen_range(0..12usize)]
        .clone(),
        // two relations (or one twice)
        4 | 5 => [
            format!("{x}.a < {y}.b"),
            format!("{x}.s = {y}.s"),
            format!("({x}.c OR {y}.a > 0)"),
            format!("{x}.a + {y}.a > {k}"),
        ][rng.gen_range(0..4usize)]
        .clone(),
        // no column
        6 => ["1 < 2", "NULL IS NULL", "'a' < 'b'", "2 < 1"][rng.gen_range(0..4usize)].into(),
        // an unqualified name every relation holds: the first one's
        7 => [
            format!("a > {k}"),
            format!("b < {f}"),
            "s LIKE '%b'".into(),
            "c".into(),
        ][rng.gen_range(0..4usize)]
        .clone(),
        // the wrapper's computed column
        8 if relations.contains(&"v") => {
            [format!("v.d > {f}"), format!("d < {f}")][rng.gen_range(0..2usize)].clone()
        }
        // arithmetic over text
        _ => return (format!("{x}.s + 1 > 0"), Some(format!("{x}.s"))),
    };
    (conjunct, None)
}

/// A WHERE conjunct that names one relation filters that relation before
/// the join (`exec::from_clause::Placement`).  That must be invisible: over
/// random tables sharing every column name (NULL, NaN, −0.0, strings),
/// `SELECT * FROM <join> WHERE <1–4 conjuncts>` — INNER / LEFT / RIGHT /
/// CROSS / comma, an optional second join, the first relation bare or as a
/// row-wise wrapper — answers, in order and bit for bit, the rows of the
/// same statement without its WHERE that the scalar reference keeps; and a
/// statement whose `X.s + 1` meets a string fails with the error the first
/// such joined row raises.  At pool sizes 1 and 4, and once over more than
/// a morsel of rows.
#[test]
fn where_conjuncts_placed_before_the_join_answer_like_filtering_the_joined_rows() {
    use std::sync::Arc;
    use verdictdb::engine::exec::Executor;
    use verdictdb::engine::{Catalog, ThreadPool, MORSEL_ROWS};

    let run = |catalog: &Catalog, sql: &str, threads: usize| -> Result<Table, String> {
        let stmt = parse_statement(sql).map_err(|e| e.to_string())?;
        let mut exec = Executor::with_pool(catalog, Some(1), Arc::new(ThreadPool::new(threads)));
        exec.execute_statement(&stmt).map_err(|e| e.to_string())
    };
    let check = |catalog: &Catalog, from: &str, conjuncts: &[(String, Option<String>)]| {
        let joined = run(catalog, &format!("SELECT * FROM {from}"), 1).unwrap();
        let texts: Vec<&str> = conjuncts.iter().map(|(c, _)| c.as_str()).collect();
        let sql = format!("SELECT * FROM {from} WHERE {}", texts.join(" AND "));
        // The whole WHERE over the joined rows: each conjunct over every row
        // in turn, so the first failing conjunct's first failing row fails.
        let failing = conjuncts.iter().find_map(|(_, text_column)| {
            let column = parse_expression(text_column.as_deref()?).unwrap();
            let v = (0..joined.num_rows())
                .map(|row| reference_eval_row(&column, &joined, row))
                .find(|v| !v.is_null())?;
            Some(format!("type mismatch: cannot apply + to {v} and 1"))
        });
        let expected = match failing {
            Some(error) => Err(error),
            None => {
                let pred = parse_expression(&texts.join(" AND ")).unwrap();
                let kept: Vec<usize> = (0..joined.num_rows())
                    .filter(|&row| reference_eval_row(&pred, &joined, row) == Value::Bool(true))
                    .collect();
                Ok(joined.take(&kept))
            }
        };
        for threads in [1, 4] {
            let case = format!("{threads} thread(s): {sql}");
            match (run(catalog, &sql, threads), &expected) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(got.schema, want.schema, "{case}");
                    common::assert_tables_bit_identical(&got, want, &case);
                }
                (Err(got), Err(want)) => assert_eq!(&got, want, "{case}"),
                (got, want) => panic!("{case}: got {got:?}, the reference {want:?}"),
            }
        }
    };
    const WRAPPER: &str = "(SELECT *, b * 2 AS d FROM l) AS v";

    for seed in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(800 + seed);
        let catalog = Catalog::new();
        for (name, rows) in [("l", 70), ("r", 60), ("s", 40)] {
            let rows = rows + rng.gen_range(0..20usize);
            catalog.register(
                name,
                with_nan_and_negative_zero(random_table(&mut rng, rows)),
            );
        }
        for join in ["INNER JOIN", "LEFT JOIN", "RIGHT JOIN", "CROSS JOIN", ","] {
            for second in ["", "INNER JOIN", "LEFT JOIN", "RIGHT JOIN"] {
                let wrapped = rng.gen_bool(0.5);
                let first = if wrapped { WRAPPER } else { "l" };
                let x = if wrapped { "v" } else { "l" };
                let mut from = match join {
                    "," => format!("{first}, r"),
                    "CROSS JOIN" => format!("{first} CROSS JOIN r"),
                    _ => format!("{first} {join} r ON {x}.a = r.a"),
                };
                let mut relations = vec![x, "r"];
                if !second.is_empty() {
                    from.push_str(&format!(" {second} s ON r.a = s.a"));
                    relations.push("s");
                }
                for _ in 0..3 {
                    let conjuncts: Vec<_> = (0..rng.gen_range(1..5usize))
                        .map(|_| random_conjunct(&mut rng, &relations))
                        .collect();
                    check(&catalog, &from, &conjuncts);
                }
            }
        }
    }

    // More than a morsel of joined rows.
    let mut rng = StdRng::seed_from_u64(900);
    let catalog = Catalog::new();
    let big = random_table(&mut rng, MORSEL_ROWS + 777);
    catalog.register("l", with_nan_and_negative_zero(big));
    catalog.register("r", with_nan_and_negative_zero(random_table(&mut rng, 40)));
    for from in [
        "l INNER JOIN r ON l.a = r.a",
        "l LEFT JOIN r ON l.a = r.a",
        &format!("{WRAPPER} INNER JOIN r ON v.a = r.a"),
    ] {
        let relations: &[&str] = if from.starts_with('(') {
            &["v", "r"]
        } else {
            &["l", "r"]
        };
        for _ in 0..2 {
            let conjuncts: Vec<_> = (0..rng.gen_range(1..5usize))
                .map(|_| random_conjunct(&mut rng, relations))
                .collect();
            check(&catalog, from, &conjuncts);
        }
    }
}

// ===========================================================================
// A LIMIT ends the one-shot scan at its rows
// ===========================================================================

/// `SELECT … LIMIT n` over one view stops reading once `n` rows survived the
/// WHERE (`ProgressiveScan::drain`).  Over random tables (NULL, strings)
/// with an `id` column holding each row's position, for `n` = 0, 1, a
/// random `k` and more rows than the table holds, with and without a WHERE,
/// bare and through a row-wise wrapper with a WHERE of its own, at pool
/// sizes 1 and 4: the answer is the fully drained answer's first `n` rows,
/// bit for bit, and `rows_scanned` lies between the rows the answer needs
/// (`m`: the position after its `n`-th row) and `2m + n` — the first block
/// is `n` rows and each later one doubles.
#[test]
fn a_limit_scan_answers_like_the_drained_scan_and_reads_about_its_rows() {
    use verdictdb::engine::{Backend, Engine};

    const FROMS: [&str; 2] = ["t", "(SELECT *, b * 2 AS d FROM t WHERE a > -15) AS v"];
    const SELECTS: [&str; 3] = [
        "*",
        "id, a, s",
        "id, b * 2.5 + a AS x, s || 'x' AS y, c AND a > 0 AS z",
    ];
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(1_100 + seed);
        let rows = 5_000 + rng.gen_range(0..3_000usize);
        let random = random_table(&mut rng, rows);
        let mut table = TableBuilder::new().int_column("id", (0..rows as i64).collect());
        for (field, column) in random.schema.fields.iter().zip(random.columns) {
            table = table.column(&field.name, column);
        }
        let table = table.build().unwrap();
        let k = rng.gen_range(-10..10i64);
        let wheres = [
            String::new(),
            format!(" WHERE a > {k}"),
            format!(" WHERE b < {} AND c", k as f64 / 4.0),
            " WHERE s LIKE 'a%'".into(),
            " WHERE a IS NULL OR b > 0".into(),
        ];
        let limits = [0, 1, rng.gen_range(2..300usize), rows + 10];
        for threads in [1usize, 4] {
            let e = Engine::with_seed(seed);
            e.set_parallelism(threads);
            e.register_table("t", table.clone());
            let run = |sql: &str| e.execute_sql(sql).unwrap();
            for from in FROMS {
                for filter in &wheres {
                    let survivors = run(&format!("SELECT id FROM {from}{filter}")).table;
                    for select in SELECTS {
                        let drained = run(&format!("SELECT {select} FROM {from}{filter}")).table;
                        for n in limits {
                            let sql = format!("SELECT {select} FROM {from}{filter} LIMIT {n}");
                            let case = format!("seed {seed}, {threads} thread(s): {sql}");
                            let got = run(&sql);
                            let want = drained.limit(n);
                            assert_eq!(got.table.schema, want.schema, "{case}");
                            common::assert_tables_bit_identical(&got.table, &want, &case);
                            let needed = match n {
                                0 => 0,
                                n if n <= survivors.num_rows() => {
                                    survivors.value_at(n - 1, 0).as_i64().unwrap() as usize + 1
                                }
                                _ => rows,
                            };
                            let read = got.stats.rows_scanned as usize;
                            assert!(
                                needed <= read && read <= (2 * needed + n).min(rows),
                                "{case}: read {read} rows, the answer needs {needed}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// A `LIMIT` whose answer or error could depend on rows past its `n`-th
/// still drains the whole input: ORDER BY, DISTINCT, HAVING without GROUP
/// BY, a window function, `rand()`, a select list typed by its values
/// (`coalesce`, `CASE`), and a WHERE doing arithmetic over text — whose
/// row 100,000 fails, so the `LIMIT 1` must fail too.
#[test]
fn a_limit_that_later_rows_could_change_drains_the_input() {
    use verdictdb::engine::Engine;

    let rows = 100_001;
    // `s` is NULL but at row 100,000
    let s = (0..rows).map(|i| (i == 100_000).then(|| "x".to_string()));
    let table = TableBuilder::new()
        .int_column("id", (0..rows as i64).collect())
        .opt_str_column("s", s.collect())
        .build()
        .unwrap();
    let e = Engine::with_seed(5);
    e.register_table("t", table);
    for sql in [
        "SELECT id FROM t ORDER BY id LIMIT 1",
        "SELECT DISTINCT id FROM t LIMIT 1",
        "SELECT id FROM t HAVING id >= 0 LIMIT 1",
        "SELECT id, count(*) OVER () AS n FROM t LIMIT 1",
        "SELECT id, rand() AS r FROM t LIMIT 1",
        "SELECT coalesce(s, 'none') AS s FROM t LIMIT 1",
        "SELECT CASE WHEN id > 0 THEN id END AS v FROM t LIMIT 1",
    ] {
        let read = e.execute_sql(sql).unwrap().stats.rows_scanned;
        assert_eq!(read, rows as u64, "{sql}");
    }
    let failing = "SELECT id FROM t WHERE s + 1 > 0 OR id >= 0";
    let error = e.execute_sql(failing).unwrap_err();
    assert_eq!(
        error.to_string(),
        "type mismatch: cannot apply + to x and 1"
    );
    assert_eq!(
        e.execute_sql(&format!("{failing} LIMIT 1")).unwrap_err(),
        error
    );
    // without the text arithmetic the same LIMIT reads its one row
    let stops = e
        .execute_sql("SELECT id FROM t WHERE id >= 0 LIMIT 1")
        .unwrap();
    assert_eq!(stops.stats.rows_scanned, 1);
}

/// Printer stability + canonical-form idempotence over randomized VerdictDB
/// control statements (scramble DDL, SET, BYPASS, STREAM, EXPLAIN
/// [ANALYZE], SHOW PROFILE/METRICS): print∘parse is a fixpoint,
/// canonicalisation is idempotent, and case-mangled spellings canonicalise
/// to the same key.
#[test]
fn control_statement_grammar_roundtrips_and_canonicalises() {
    use verdictdb::sql::canonical_sql;

    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let tables = ["orders", "Order_Products", "lineitem", "T1"];
    let columns = ["city", "Order_Id", "l_returnflag", "dow"];
    let methods = ["uniform", "stratified", "hashed"];
    let options = [
        "target_error",
        "confidence",
        "cache",
        "parallelism",
        "bypass",
        "io_budget",
        "slow_query_ms",
    ];
    for case in 0..320 {
        let table = tables[rng.gen_range(0..tables.len())];
        let col_a = columns[rng.gen_range(0..columns.len())];
        let col_b = columns[rng.gen_range(0..columns.len())];
        let method = methods[rng.gen_range(0..methods.len())];
        let ratio = rng.gen_range(1..100) as f64 / 100.0;
        let sql = match case % 10 {
            0 => {
                let on = if method == "uniform" {
                    String::new()
                } else if rng.gen_bool(0.5) || col_a == col_b {
                    format!(" ON {col_a}")
                } else {
                    format!(" ON {col_a}, {col_b}")
                };
                format!("CREATE SCRAMBLE scr_{case} FROM {table} METHOD {method} RATIO {ratio}{on}")
            }
            1 => format!("CREATE SCRAMBLES FROM {table}"),
            2 => {
                let ie = if rng.gen_bool(0.5) { "IF EXISTS " } else { "" };
                if rng.gen_bool(0.5) {
                    format!("DROP SCRAMBLE {ie}scr_{case}")
                } else {
                    format!("DROP SCRAMBLES {ie}{table}")
                }
            }
            3 => {
                if rng.gen_bool(0.5) {
                    format!("REFRESH SCRAMBLES {table} FROM {table}_batch")
                } else {
                    format!("REFRESH SCRAMBLES {table}")
                }
            }
            4 => {
                let opt = options[rng.gen_range(0..options.len())];
                let value = match rng.gen_range(0..4) {
                    0 => ratio.to_string(),
                    1 => rng.gen_range(1..16i64).to_string(),
                    2 => "on".to_string(),
                    _ => "default".to_string(),
                };
                format!("SET {opt} = {value}")
            }
            5 => format!("BYPASS SELECT count(*) AS n FROM {table} WHERE {col_a} > {ratio}"),
            6 => format!("STREAM SELECT {col_a}, avg({col_b}) AS m FROM {table} GROUP BY {col_a}"),
            7 => {
                if rng.gen_bool(0.5) {
                    "SHOW SCRAMBLES".to_string()
                } else {
                    "SHOW STATS".to_string()
                }
            }
            8 => {
                let analyze = if rng.gen_bool(0.5) {
                    "EXPLAIN ANALYZE"
                } else {
                    "EXPLAIN"
                };
                match rng.gen_range(0..3) {
                    0 => format!(
                        "{analyze} SELECT count(*) AS n FROM {table} WHERE {col_a} > {ratio}"
                    ),
                    1 => format!("{analyze} BYPASS SELECT sum({col_a}) AS s FROM {table}"),
                    _ => format!("{analyze} SET target_error = {ratio}"),
                }
            }
            _ => match rng.gen_range(0..3) {
                0 => "SHOW PROFILE".to_string(),
                1 => format!("SHOW PROFILE LAST {}", rng.gen_range(1..100u64)),
                _ => "SHOW METRICS".to_string(),
            },
        };

        // print∘parse fixpoint.
        let stmt = parse_statement(&sql).unwrap_or_else(|e| panic!("parse `{sql}`: {e}"));
        let printed = print_statement(&stmt, &GenericDialect);
        let reparsed =
            parse_statement(&printed).unwrap_or_else(|e| panic!("reparse `{printed}`: {e}"));
        assert_eq!(
            print_statement(&reparsed, &GenericDialect),
            printed,
            "printer not stable for `{sql}`"
        );

        // canonical form is idempotent …
        let canon = canonical_sql(&sql).unwrap();
        assert_eq!(canonical_sql(&canon).unwrap(), canon, "for `{sql}`");

        // … and insensitive to keyword/identifier case mangling.  Queries
        // with projection output names (the BYPASS/STREAM/EXPLAIN cases) are
        // excluded: projection aliases and bare projected columns name the
        // result schema, so their case is deliberately key-significant.
        if !matches!(case % 10, 5 | 6 | 8) {
            let mangled: String = sql
                .chars()
                .map(|c| {
                    if rng.gen_bool(0.5) {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect();
            assert_eq!(
                canonical_sql(&mangled).unwrap(),
                canon,
                "case mangling changed the canonical key of `{sql}`"
            );
        }
    }
}

/// Log-bucketed histogram quantiles are within one power-of-two bucket of
/// the exact sample quantile: the reported value is the upper bound of the
/// bucket holding the exact rank statistic, so `exact ≤ reported ≤
/// 2·max(exact, 1)` on every sample distribution.
#[test]
fn histogram_quantiles_are_within_one_bucket_of_exact() {
    use verdictdb::core::Histogram;

    let mut rng = StdRng::seed_from_u64(0x0b5e11);
    for case in 0..64 {
        let n = rng.gen_range(1..400usize);
        // Log-uniform samples spanning the bucket range (sub-µs .. minutes).
        let samples: Vec<u64> = (0..n)
            .map(|_| {
                let exp = rng.gen_range(0..30u32);
                (1u64 << exp) / 2 + rng.gen_range(0..(1u64 << exp))
            })
            .collect();
        let hist = Histogram::new();
        for &s in &samples {
            hist.record_micros(s);
        }
        let mut sorted = samples;
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = sorted[rank - 1];
            let reported = hist.quantile(q).expect("non-empty histogram");
            assert!(
                reported >= exact && reported <= exact.max(1) * 2,
                "case {case} q={q}: reported {reported} is not within one \
                 bucket of exact {exact} (n={n})"
            );
        }
    }
    assert_eq!(
        Histogram::new().quantile(0.5),
        None,
        "empty has no quantile"
    );
}

/// Merging per-shard histograms yields exactly the histogram of the
/// concatenated value stream: identical bucket counts, total count, sum,
/// and therefore identical quantiles — the property that makes per-shard
/// recording safe to aggregate at exposition time.
#[test]
fn merged_shard_histograms_equal_histogram_of_concatenated_stream() {
    use verdictdb::core::Histogram;

    let mut rng = StdRng::seed_from_u64(0x0b5e12);
    for case in 0..32 {
        let shards = rng.gen_range(1..9usize);
        let merged = Histogram::new();
        let whole = Histogram::new();
        for _ in 0..shards {
            let shard = Histogram::new();
            for _ in 0..rng.gen_range(0..200usize) {
                // Heavy-tailed mix: mostly fast, occasionally very slow.
                let v = if rng.gen_bool(0.9) {
                    rng.gen_range(0..10_000u64)
                } else {
                    rng.gen_range(10_000..600_000_000u64)
                };
                shard.record_micros(v);
                whole.record_micros(v);
            }
            merged.merge_from(&shard);
        }
        assert_eq!(
            merged.bucket_counts(),
            whole.bucket_counts(),
            "case {case}: bucket counts diverge after merge"
        );
        assert_eq!(merged.count(), whole.count(), "case {case}");
        assert_eq!(merged.sum_micros(), whole.sum_micros(), "case {case}");
        for q in [0.5, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "case {case} q={q}");
        }
    }
}

/// print∘parse must be a fixpoint under EVERY dialect the middleware can
/// render for, not just the generic one: each dialect's identifier-quoting
/// style and random-function spelling must survive its own round trip
/// (e.g. Redshift prints `rand()` as `random()`, itself a fixpoint, and
/// re-quotes backtick identifiers with double quotes — which the lexer
/// accepts back).
#[test]
fn printer_roundtrips_under_every_dialect() {
    use verdictdb::sql::{Dialect, ImpalaDialect, RedshiftDialect, SparkSqlDialect};

    let dialects: [&dyn Dialect; 4] = [
        &GenericDialect,
        &ImpalaDialect,
        &SparkSqlDialect,
        &RedshiftDialect,
    ];
    let mut rng = StdRng::seed_from_u64(0xD1A1EC7);
    let tables = ["orders", "order_products", "`weird table`", "t1"];
    let columns = ["city", "price", "`weird col`", "order_id"];
    let aggregates = [
        "count(*)",
        "sum(price)",
        "avg(price)",
        "count(DISTINCT order_id)",
    ];
    for case in 0..128 {
        let table = tables[rng.gen_range(0..tables.len())];
        let column = columns[rng.gen_range(0..columns.len())];
        let agg = aggregates[rng.gen_range(0..aggregates.len())];
        let threshold = rng.gen_range(0..500i64);
        let sql = match case % 4 {
            0 => format!("SELECT {agg} AS m FROM {table} WHERE {column} > {threshold}"),
            1 => format!(
                "SELECT {column}, {agg} AS m FROM {table} \
                 GROUP BY {column} ORDER BY m DESC LIMIT 7"
            ),
            // rand() in a predicate: the one spelling dialects disagree on.
            2 => format!("SELECT {agg} AS m FROM {table} WHERE rand() < 0.25"),
            _ => format!(
                "SELECT {agg} AS m FROM orders a \
                 INNER JOIN order_products b ON a.order_id = b.order_id \
                 WHERE a.{column} > {threshold}",
                column = "order_id"
            ),
        };
        let stmt = parse_statement(&sql).unwrap_or_else(|e| panic!("parse `{sql}`: {e}"));
        for dialect in dialects {
            let printed = print_statement(&stmt, dialect);
            let reparsed = parse_statement(&printed)
                .unwrap_or_else(|e| panic!("dialect {}: reparse `{printed}`: {e}", dialect.name()));
            assert_eq!(
                print_statement(&reparsed, dialect),
                printed,
                "printer not stable under dialect {} for `{sql}`",
                dialect.name()
            );
        }
    }
}

#[test]
fn sample_tables_shrink_with_the_requested_ratio() {
    use std::sync::Arc;
    use verdictdb::{
        Backend, Engine, VerdictConfig, VerdictContext, VerdictResponse, VerdictSession,
    };

    let engine = Arc::new(Engine::with_seed(5));
    verdictdb::data::InstacartGenerator::new(0.1).register(&engine);
    let conn: Arc<dyn Backend> = engine;
    let mut config = VerdictConfig::default();
    config.min_table_rows = 1_000;
    let ctx = Arc::new(VerdictContext::new(conn, config));
    let mut session = VerdictSession::new(Arc::clone(&ctx));

    let base_rows = ctx.connection().table_row_count("order_products").unwrap() as f64;
    for ratio in [0.01, 0.05, 0.2] {
        session
            .execute("DROP SCRAMBLES IF EXISTS order_products")
            .unwrap();
        let built = session
            .execute(&format!(
                "CREATE SCRAMBLE op_uniform FROM order_products RATIO {ratio}"
            ))
            .unwrap();
        let VerdictResponse::ScramblesCreated(metas) = built else {
            panic!("expected a scramble, got {}", built.kind());
        };
        let actual = metas[0].sample_rows as f64 / base_rows;
        assert!(
            (actual - ratio).abs() < ratio * 0.5 + 0.01,
            "requested ratio {ratio}, got {actual}"
        );
    }
}

// ===========================================================================
// Progressive streaming invariants (PR 5)
// ===========================================================================

/// Builds a deterministic serving stack at a given engine parallelism, with
/// a seeded random sales table and one 20% uniform scramble registered.
/// Identical inputs give bit-identical catalogs at any thread count.
fn streaming_stack(seed: u64, rows: usize, parallelism: usize) -> verdictdb::VerdictSession {
    use std::sync::Arc;
    use verdictdb::{Backend, Engine, VerdictConfig, VerdictContext};
    let engine = Engine::with_seed_and_parallelism(seed, parallelism);
    let mut rng = StdRng::seed_from_u64(seed);
    let table = TableBuilder::new()
        .int_column("k", (0..rows).map(|_| rng.gen_range(0..7i64)).collect())
        .float_column(
            "v",
            (0..rows).map(|_| rng.gen_range(-50.0..150.0)).collect(),
        )
        .opt_float_column(
            "w",
            (0..rows)
                .map(|_| (rng.gen::<f64>() > 0.05).then(|| rng.gen_range(0.0..10.0)))
                .collect(),
        )
        .build()
        .unwrap();
    engine.register_table("sales", table);
    let conn: Arc<dyn Backend> = Arc::new(engine);
    let mut config = VerdictConfig::for_testing();
    config.io_budget = 1.0;
    config.answer_cache_capacity = 0;
    let ctx = Arc::new(VerdictContext::new(conn, config));
    let mut session = verdictdb::VerdictSession::new(ctx);
    session
        .execute("CREATE SCRAMBLE scr FROM sales METHOD uniform RATIO 0.2")
        .unwrap();
    session
}

/// The statement in the printer's spelling (what a stream reports as the
/// exact SQL it fell back to).
fn printed(sql: &str) -> String {
    let stmt = verdictdb::sql::parse_statement(sql).unwrap();
    verdictdb::sql::print_statement(&stmt, &verdictdb::sql::GenericDialect)
}

/// For seeded random aggregates, the streamed final frame equals the
/// one-shot answer bit for bit at engine parallelism 1 and 4, and the
/// interval half-widths are non-increasing in expectation across frames.
#[test]
fn streamed_final_frame_is_bit_identical_to_one_shot_and_intervals_shrink() {
    let aggregates = [
        "count(*) AS c",
        "sum(v) AS s",
        "avg(v) AS a",
        "avg(w) AS aw",
        "sum(v) / count(*) AS ratio",
    ];
    let mut first_widths = 0.0f64;
    let mut last_widths = 0.0f64;
    let mut shrink_steps = 0usize;
    let mut total_steps = 0usize;
    for case in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(900 + case);
        let agg = aggregates[rng.gen_range(0..aggregates.len())];
        let grouped = rng.gen_bool(0.5);
        let query = if grouped {
            format!("SELECT k, {agg} FROM sales GROUP BY k ORDER BY k")
        } else {
            format!("SELECT {agg} FROM sales")
        };
        // The stream reports the exact SQL in printed form, so ask both
        // paths the printed spelling and `rewritten_sql` compares verbatim.
        let query = printed(&query);
        let rows = 8_000 + rng.gen_range(0..4_000usize);
        for parallelism in [1usize, 4] {
            // Twin stacks: stream on one, one-shot on the other.
            let mut streamer = streaming_stack(7_000 + case, rows, parallelism);
            let mut oneshot = streaming_stack(7_000 + case, rows, parallelism);
            streamer.execute("SET stream_block_rows = 300").unwrap();
            let frames: Vec<_> = streamer
                .stream(&query)
                .unwrap()
                .collect::<Result<Vec<_>, _>>()
                .unwrap();
            assert!(
                frames.len() >= 4,
                "seed {case}: only {} frames",
                frames.len()
            );
            let reference = oneshot.execute(&query).unwrap().into_answer().unwrap();
            assert!(
                !reference.exact,
                "seed {case}: reference must be approximate"
            );
            let last = &frames.last().unwrap().answer;
            common::assert_tables_bit_identical(
                &last.table,
                &reference.table,
                &format!("seed {case} par {parallelism}"),
            );
            for (x, y) in last.errors.iter().zip(reference.errors.iter()) {
                assert_eq!(
                    x.max_relative_error.to_bits(),
                    y.max_relative_error.to_bits(),
                    "seed {case} par {parallelism}: intervals must match"
                );
            }
            assert_eq!(last.exact, reference.exact);
            assert_eq!(last.used_samples, reference.used_samples);
            assert_eq!(last.used_samples, ["scr"]);
            assert_eq!(last.rewritten_sql, reference.rewritten_sql);
            // Interval refinement: `<col>_err` half-widths (for_testing
            // keeps error columns on) shrink in expectation as the prefix
            // grows.  Individual steps may wobble; totals must not.
            if parallelism == 1 {
                let width_of = |answer: &verdictdb::VerdictAnswer| -> f64 {
                    let mut total = 0.0;
                    for (i, f) in answer.table.schema.fields.iter().enumerate() {
                        if f.name.ends_with("_err") {
                            total += answer.table.columns[i]
                                .iter()
                                .filter_map(|v| v.as_f64())
                                .filter(|w| w.is_finite())
                                .sum::<f64>();
                        }
                    }
                    total
                };
                let widths: Vec<f64> = frames.iter().map(|f| width_of(&f.answer)).collect();
                first_widths += widths.first().unwrap();
                last_widths += widths.last().unwrap();
                for pair in widths.windows(2) {
                    total_steps += 1;
                    if pair[1] <= pair[0] + 1e-12 {
                        shrink_steps += 1;
                    }
                }
            }
        }
    }
    // The shared endgame: a completed stream falls back to the exact answer
    // under exactly the conditions a one-shot query does — thin subsample
    // cells (a float GROUP BY key: ~one row per group) and a violated
    // accuracy contract — and reports it identically: exact, no samples
    // used, the attempted sample SQL first and the exact SQL last.
    for (label, setup, query) in [
        (
            "infeasible cells",
            "SET stream_block_rows = 300",
            "SELECT v, count(*) AS c FROM sales GROUP BY v ORDER BY v",
        ),
        (
            "accuracy contract",
            "SET target_error = 0.000001",
            "SELECT k, avg(v) AS a FROM sales GROUP BY k ORDER BY k",
        ),
    ] {
        let query = printed(query);
        let mut streamer = streaming_stack(7_100, 9_000, 1);
        let mut oneshot = streaming_stack(7_100, 9_000, 1);
        streamer.execute(setup).unwrap();
        oneshot.execute(setup).unwrap();
        let frames: Vec<_> = streamer
            .stream(&query)
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        let last = &frames.last().unwrap().answer;
        let reference = oneshot.execute(&query).unwrap().into_answer().unwrap();
        assert!(reference.exact, "{label}: one-shot must fall back");
        assert!(last.exact, "{label}: final frame must fall back");
        common::assert_tables_bit_identical(&last.table, &reference.table, label);
        assert!(last.used_samples.is_empty() && reference.used_samples.is_empty());
        assert_eq!(last.rewritten_sql, reference.rewritten_sql, "{label}");
        assert_eq!(
            last.rewritten_sql.len(),
            2,
            "{label}: sample SQL, then exact"
        );
        assert!(last.rewritten_sql[0].contains("scr"), "{label}");
        assert_eq!(last.rewritten_sql[1], query, "{label}");
    }

    assert!(
        last_widths < first_widths,
        "intervals must tighten overall: first {first_widths}, last {last_widths}"
    );
    assert!(
        shrink_steps * 2 > total_steps,
        "a majority of refinement steps must tighten the interval \
         ({shrink_steps}/{total_steps})"
    );
}

// ===========================================================================
// Admission control: shed tiers and queue-watermark invariants
// ===========================================================================

#[test]
fn shed_tiers_are_monotone_and_degradation_strictly_precedes_refusal() {
    use verdictdb::core::{ShedPolicy, ShedTier};
    let mut rng = StdRng::seed_from_u64(0xAD317);
    for case in 0..200 {
        let capacity = rng.gen_range(1..=512usize);
        let policy = ShedPolicy::for_capacity(capacity);

        // Tier level is monotone non-decreasing in queue depth.
        let mut prev = ShedTier::None;
        for depth in 0..capacity {
            let tier = policy.tier_at(depth);
            assert!(
                tier.level() >= prev.level(),
                "case {case} capacity {capacity}: tier regressed at depth {depth} \
                 ({prev:?} -> {tier:?})"
            );
            prev = tier;
            assert!(
                !policy.refuses_at(depth),
                "case {case}: refusal below capacity at depth {depth}/{capacity}"
            );
        }

        // The last admissible slot always sheds at Critical — accuracy
        // degradation strictly precedes BUSY refusal at every capacity.
        assert_eq!(
            policy.tier_at(capacity - 1),
            ShedTier::Critical,
            "case {case} capacity {capacity}"
        );
        assert!(policy.refuses_at(capacity));
    }
}

#[test]
fn shed_apply_only_loosens_accuracy_and_only_shrinks_io_budget() {
    use verdictdb::core::ShedTier;
    use verdictdb::VerdictConfig;
    let mut rng = StdRng::seed_from_u64(0x5EDA);
    for case in 0..500 {
        let mut cfg = VerdictConfig::for_testing();
        cfg.max_relative_error = if rng.gen_bool(0.3) {
            None
        } else {
            Some(rng.gen_range(0.0005..0.5))
        };
        cfg.io_budget = rng.gen_range(0.001..1.0);
        let before_err = cfg.max_relative_error;
        let before_budget = cfg.io_budget;
        let tier = ShedTier::from_level(rng.gen_range(0..4usize) as u8);
        tier.apply(&mut cfg);
        match (before_err, cfg.max_relative_error) {
            // No target stays no target: a floor turned into a target would
            // make `pipeline::finish` re-run shed answers exactly.
            (None, after) => assert_eq!(
                after, None,
                "case {case} {tier:?}: shedding gave a session without a target one"
            ),
            (Some(_), None) => panic!("case {case} {tier:?}: apply cleared an error target"),
            (Some(b), Some(a)) => {
                assert!(
                    a >= b,
                    "case {case} {tier:?}: shedding tightened max_relative_error ({b} -> {a})"
                );
                assert!(
                    Some(a) >= tier.target_error_floor(),
                    "case {case} {tier:?}: target below the tier floor"
                );
            }
        }
        assert!(
            cfg.io_budget <= before_budget + 1e-12,
            "case {case} {tier:?}: shedding grew io_budget ({before_budget} -> {})",
            cfg.io_budget
        );
        // Escalating the tier never produces a tighter error target: the
        // degradation ladder is itself monotone.
        let mut at_lower = VerdictConfig::for_testing();
        at_lower.max_relative_error = before_err;
        let lower = ShedTier::from_level(tier.level().saturating_sub(1));
        lower.apply(&mut at_lower);
        assert!(
            cfg.max_relative_error.unwrap_or(0.0) >= at_lower.max_relative_error.unwrap_or(0.0),
            "case {case}: tier {tier:?} gave a tighter target than {lower:?}"
        );
    }
}

#[test]
fn admission_controller_ticketing_balances_under_random_schedules() {
    use verdictdb::core::{Admission, AdmissionController, ShedPolicy, ShedTier};
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..100 {
        let capacity = rng.gen_range(1..=64usize);
        let ctl = AdmissionController::new(ShedPolicy::for_capacity(capacity));
        let arrivals = rng.gen_range(1..=400usize);
        // Outstanding tickets: every Admit must be released exactly once —
        // the model of "every admitted query gets exactly one terminal
        // frame".  Terminals here are the releases; the balance below is
        // the exactly-one property.
        let mut outstanding = 0usize;
        let mut admitted = 0u64;
        let mut refused = 0u64;
        let mut shed = 0u64;
        let mut prev_tier_at_depth: Vec<Option<ShedTier>> = vec![None; capacity + 1];
        for step in 0..arrivals {
            // Randomly complete some in-flight statements first.
            while outstanding > 0 && rng.gen_bool(0.4) {
                ctl.release();
                outstanding -= 1;
            }
            let depth_before = ctl.depth();
            assert_eq!(depth_before, outstanding, "case {case} step {step}");
            match ctl.try_admit() {
                Admission::Admit(tier) => {
                    admitted += 1;
                    outstanding += 1;
                    if tier != ShedTier::None {
                        shed += 1;
                    }
                    // BUSY only at the watermark: an admission below
                    // capacity is never refused, and the tier a depth gets
                    // is a pure function of that depth.
                    assert!(depth_before < capacity, "case {case} step {step}");
                    if let Some(prev) = prev_tier_at_depth[depth_before] {
                        assert_eq!(prev, tier, "case {case}: tier not a function of depth");
                    }
                    prev_tier_at_depth[depth_before] = Some(tier);
                }
                Admission::Refuse => {
                    refused += 1;
                    // Refusal iff the queue is at capacity.
                    assert_eq!(depth_before, capacity, "case {case} step {step}");
                }
            }
        }
        // Drain every outstanding ticket; depth must return to exactly zero.
        while outstanding > 0 {
            ctl.release();
            outstanding -= 1;
        }
        assert_eq!(ctl.depth(), 0, "case {case}: tickets leaked");
        let stats = ctl.stats();
        assert_eq!(stats.admitted, admitted, "case {case}");
        assert_eq!(stats.refused, refused, "case {case}");
        assert_eq!(stats.shed, shed, "case {case}");
        assert_eq!(
            stats.admitted + stats.refused,
            arrivals as u64,
            "case {case}: every arrival is admitted xor refused"
        );
        assert!(
            stats.peak_depth <= capacity as u64,
            "case {case}: peak depth {} exceeded capacity {capacity}",
            stats.peak_depth
        );
    }
}

#[test]
fn admission_controller_holds_capacity_under_concurrent_arrivals() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use verdictdb::core::{Admission, AdmissionController, ShedPolicy};

    let capacity = 8usize;
    let ctl = Arc::new(AdmissionController::new(ShedPolicy::for_capacity(capacity)));
    let done = Arc::new(AtomicU64::new(0));
    let threads = 6usize;
    let per_thread = 500usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let ctl = Arc::clone(&ctl);
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xBEEF + t as u64);
                for _ in 0..per_thread {
                    match ctl.try_admit() {
                        Admission::Admit(_) => {
                            // Depth counts this ticket, so it can never
                            // exceed capacity even under races.
                            assert!(ctl.depth() <= capacity);
                            if rng.gen_bool(0.5) {
                                std::thread::yield_now();
                            }
                            ctl.release();
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                        Admission::Refuse => {
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });
    assert_eq!(ctl.depth(), 0, "tickets leaked across threads");
    let stats = ctl.stats();
    assert_eq!(stats.admitted, done.load(Ordering::Relaxed));
    assert_eq!(
        stats.admitted + stats.refused,
        (threads * per_thread) as u64
    );
    assert!(stats.peak_depth <= capacity as u64);
}

// ===========================================================================
// Compiled, columnar answer assembly vs the scalar `Value`/`HashMap` reference
// ===========================================================================

use verdict_bench::scalar_assemble::{
    scalar_assemble, synthetic_results, synthetic_rewrite, KeyKind, ResultShape,
};
use verdictdb::core::answer::{assemble, AssembledAnswer};
use verdictdb::core::rewrite::RewriteOutput;
use verdictdb::VerdictConfig;

/// Asserts the compiled path's answer equals the reference's: same column
/// names and types, bit-identical cells, identical error summaries.  Key
/// column types are compared only when the answer has rows — the reference
/// types a key column from its first group's value and an empty answer has
/// none.
fn assert_same_answer(reference: &AssembledAnswer, compiled: &AssembledAnswer, case: &str) {
    let (r, c) = (&reference.table, &compiled.table);
    let names =
        |t: &Table| -> Vec<String> { t.schema.fields.iter().map(|f| f.name.clone()).collect() };
    assert_eq!(names(r), names(c), "{case}: column names");
    if r.num_rows() > 0 {
        for (rc, cc) in r.columns.iter().zip(&c.columns) {
            assert_eq!(rc.data_type(), cc.data_type(), "{case}: column types");
        }
    }
    common::assert_tables_bit_identical(r, c, case);
    assert_eq!(
        reference.errors.len(),
        compiled.errors.len(),
        "{case}: summaries"
    );
    for (re, ce) in reference.errors.iter().zip(&compiled.errors) {
        assert_eq!(re.column, ce.column, "{case}");
        assert_eq!(
            (
                re.mean_relative_error.to_bits(),
                re.max_relative_error.to_bits()
            ),
            (
                ce.mean_relative_error.to_bits(),
                ce.max_relative_error.to_bits()
            ),
            "{case}: summary of {}: {re:?} vs {ce:?}",
            re.column
        );
    }
}

/// Runs both assembly paths over one set of results, error columns off and on.
fn assert_paths_agree(
    rewrite: &RewriteOutput,
    mean: Option<&Table>,
    distinct: Option<&Table>,
    extreme: Option<&Table>,
    case: &str,
) {
    for error_columns in [false, true] {
        let mut config = VerdictConfig::default();
        config.include_error_columns = error_columns;
        let reference = scalar_assemble(rewrite, mean, distinct, extreme, &config)
            .unwrap_or_else(|e| panic!("{case}: reference failed: {e}"));
        let compiled = assemble(rewrite, mean, distinct, extreme, &config)
            .unwrap_or_else(|e| panic!("{case}: compiled path failed: {e}"));
        assert_same_answer(
            &reference,
            &compiled,
            &format!("{case} err={error_columns}"),
        );
    }
}

#[test]
fn compiled_assembly_matches_the_scalar_reference_on_generated_results() {
    use KeyKind::{Float, Int, Str};
    // (statement, key column kinds, whether a group may lack every estimate
    // of an aggregate: a HAVING predicate over such a group is SQL NULL,
    // where the two paths differ by design)
    let statements: [(&str, &[KeyKind], bool); 10] = [
        ("SELECT count(*), sum(a), avg(a) AS m FROM t", &[], true),
        (
            "SELECT k, sum(a) / sum(b) AS ratio, 100 * sum(a) / sum(b), count(*) FROM t GROUP BY k",
            &[Int],
            true,
        ),
        (
            "SELECT k2, k, avg(a) AS m, stddev(a), variance(a), median(a) FROM t \
             GROUP BY k2, k ORDER BY m DESC LIMIT 3",
            &[Str, Int],
            true,
        ),
        (
            "SELECT f, sum(a) AS s FROM t GROUP BY f HAVING sum(a) > 70 ORDER BY s DESC LIMIT 5",
            &[Float],
            false,
        ),
        (
            "SELECT k, count(DISTINCT u) AS d, max(a) AS mx, min(b), sum(a), max(a) - min(b) \
             FROM t GROUP BY k ORDER BY k",
            &[Int],
            true,
        ),
        (
            "SELECT k2, count(DISTINCT u) FROM t GROUP BY k2",
            &[Str],
            true,
        ),
        (
            "SELECT k, sum(a) - k AS adj, -avg(a), (sum(a)), sum(a) > 75 FROM t GROUP BY k \
             HAVING count(*) > 60 AND k >= 0 ORDER BY adj",
            &[Int],
            false,
        ),
        (
            "SELECT k, round(sum(a)) AS r, sum(a) FROM t GROUP BY k",
            &[Int],
            true,
        ),
        (
            "SELECT k2, f, avg(a) FROM t GROUP BY k2, f HAVING k2 <> 'g1' AND NOT f > 4",
            &[Str, Float],
            false,
        ),
        (
            "SELECT k, sum(a) FROM t GROUP BY k HAVING round(sum(a)) > 1000 ORDER BY k DESC",
            &[Int],
            true,
        ),
    ];
    let config = VerdictConfig::default();
    for (sql, keys, all_null_groups) in statements {
        let rewrite = synthetic_rewrite(sql, &config);
        // (groups, cells, ragged, null rate, zero rate, NULL key group)
        let shapes = [
            (6, 100, false, 0.0, 0.0, None),
            (7, 12, true, 0.3, 0.2, Some(3)),
            (5, 1, false, 0.2, 0.3, None),
            (9, 3, true, 0.6, 0.5, Some(1)),
            (0, 4, false, 0.0, 0.0, None),
        ];
        for (i, (groups, cells, ragged, null_rate, zero_rate, null_key_group)) in
            shapes.into_iter().enumerate()
        {
            // A NULL key makes `HAVING k …` unknown for its group.
            let has_having = rewrite.analysis.having.is_some();
            let shape = ResultShape {
                groups,
                cells,
                ragged,
                null_rate,
                zero_rate,
                all_null_groups,
                keys: keys.to_vec(),
                null_key_group: null_key_group.filter(|_| !has_having && !keys.is_empty()),
            };
            for seed in 0..4u64 {
                let (mean, distinct, extreme) = synthetic_results(&rewrite, &shape, seed);
                assert_paths_agree(
                    &rewrite,
                    mean.as_ref(),
                    distinct.as_ref(),
                    extreme.as_ref(),
                    &format!("{sql} / shape {i} / seed {seed}"),
                );
            }
        }
    }
}

/// The two places the compiled path differs from the reference, both fixes.
#[test]
fn compiled_assembly_differs_from_the_reference_only_where_it_fixes_it() {
    let config = VerdictConfig::default();
    let shape = |null_key_group| ResultShape {
        groups: 4,
        cells: 5,
        ragged: false,
        null_rate: 0.0,
        zero_rate: 0.0,
        all_null_groups: false,
        keys: vec![KeyKind::Int],
        null_key_group,
    };

    // HAVING over a NULL key is unknown: the group goes, as it does exactly.
    let rewrite = synthetic_rewrite("SELECT k, sum(a) FROM t GROUP BY k HAVING k >= 0", &config);
    let (mean, _, _) = synthetic_results(&rewrite, &shape(Some(2)), 1);
    let reference = scalar_assemble(&rewrite, mean.as_ref(), None, None, &config).unwrap();
    let compiled = assemble(&rewrite, mean.as_ref(), None, None, &config).unwrap();
    assert_eq!(
        reference.table.num_rows(),
        4,
        "the reference keeps the NULL-key group"
    );
    assert_eq!(compiled.table.num_rows(), 3);
    assert!((0..3).all(|r| !compiled.table.value_at(r, 0).is_null()));

    // A key column keeps the result column's type even when the first group
    // seen has a NULL key; the reference falls back to strings.
    let rewrite = synthetic_rewrite("SELECT k, sum(a) FROM t GROUP BY k", &config);
    let (mean, _, _) = synthetic_results(&rewrite, &shape(Some(2)), 1);
    let mean = mean.unwrap();
    let null_first = mean.take(&{
        let mut rows: Vec<usize> = (0..mean.num_rows()).collect();
        rows.swap(0, 2);
        rows
    });
    assert!(null_first.value_at(0, 0).is_null());
    let reference = scalar_assemble(&rewrite, Some(&null_first), None, None, &config).unwrap();
    let compiled = assemble(&rewrite, Some(&null_first), None, None, &config).unwrap();
    use verdictdb::engine::DataType;
    assert_eq!(reference.table.columns[0].data_type(), DataType::Str);
    assert_eq!(compiled.table.columns[0].data_type(), DataType::Int);
    assert_eq!(compiled.table.num_rows(), 4);
}

#[test]
fn compiled_assembly_matches_the_scalar_reference_on_the_workload() {
    use std::collections::HashMap;
    use std::sync::Arc;
    use verdictdb::core::planner::{PlanningContext, SamplePlanner};
    use verdictdb::core::rewrite::{analyze_query, rewrite};
    use verdictdb::data::{instacart_queries, tpch_queries, InstacartGenerator, TpchGenerator};
    use verdictdb::sql::ast::Statement;
    use verdictdb::{Backend, Engine, VerdictContext, VerdictSession};

    let engine = Arc::new(Engine::with_seed(1234));
    InstacartGenerator::new(0.05).register(&engine);
    TpchGenerator::new(0.05).register(&engine);
    let mut config = VerdictConfig::default();
    config.min_table_rows = 1_000;
    config.io_budget = 0.5;
    config.seed = Some(7);
    let ctx = Arc::new(VerdictContext::new(
        engine as Arc<dyn Backend>,
        config.clone(),
    ));
    let mut session = VerdictSession::new(Arc::clone(&ctx));
    session
        .execute_script(
            "CREATE SCRAMBLE op_u FROM order_products RATIO 0.1;
             CREATE SCRAMBLE li_u FROM lineitem RATIO 0.1;
             CREATE SCRAMBLE to_u FROM tpch_orders RATIO 0.1;
             CREATE SCRAMBLE o_u FROM orders RATIO 0.1;
             CREATE SCRAMBLE to_h FROM tpch_orders METHOD hashed RATIO 0.1 ON o_orderkey;
             CREATE SCRAMBLE o_h FROM orders METHOD hashed RATIO 0.1 ON order_id;
             CREATE SCRAMBLE o_hu FROM orders METHOD hashed RATIO 0.1 ON user_id;
             CREATE SCRAMBLE op_h FROM order_products METHOD hashed RATIO 0.1 ON order_id;
             CREATE SCRAMBLE op_hp FROM order_products METHOD hashed RATIO 0.1 ON product_id;
             CREATE SCRAMBLE li_h FROM lineitem METHOD hashed RATIO 0.1 ON l_orderkey;
             CREATE SCRAMBLE li_hs FROM lineitem METHOD hashed RATIO 0.1 ON l_suppkey;",
        )
        .unwrap();

    let queries: Vec<_> = tpch_queries()
        .into_iter()
        .chain(instacart_queries())
        .collect();
    assert_eq!(queries.len(), 33);
    let mut compared = Vec::new();
    for q in &queries {
        let Ok(Statement::Query(query)) = parse_statement(&q.sql) else {
            panic!("{} does not parse as a query", q.id);
        };
        let Ok(analysis) = analyze_query(&query) else {
            continue; // outside the supported class: answered exactly
        };
        let rows: HashMap<String, u64> = analysis
            .tables
            .iter()
            .map(|t| {
                let n = ctx.connection().table_row_count(&t.table).unwrap();
                (t.table.to_ascii_lowercase(), n)
            })
            .collect();
        let plan = SamplePlanner::new(ctx.meta(), &config).plan(
            &analysis.table_refs(&rows),
            &PlanningContext {
                group_columns: analysis.group_column_names(),
                distinct_columns: analysis.distinct_column_names(),
                io_budget: config.io_budget,
            },
        );
        if !plan.uses_samples() {
            continue;
        }
        let Ok(rewritten) = rewrite(&analysis, &plan, &config) else {
            continue;
        };
        let run = |part: Option<&Statement>| {
            part.map(|stmt| {
                let sql = print_statement(stmt, ctx.dialect());
                ctx.connection()
                    .execute(&sql)
                    .unwrap_or_else(|e| panic!("{}: {sql}: {e}", q.id))
                    .table
            })
        };
        let mean = run(rewritten.mean_query.as_ref());
        let distinct = run(rewritten.distinct_query.as_ref().map(|(s, _)| s));
        let extreme = run(rewritten.extreme_query.as_ref());
        assert_paths_agree(
            &rewritten,
            mean.as_ref(),
            distinct.as_ref(),
            extreme.as_ref(),
            q.id,
        );
        compared.push(q.id);
    }
    assert_eq!(compared.len(), 33, "only compared {compared:?}");
}
