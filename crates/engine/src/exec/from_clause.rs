//! FROM-clause evaluation: base-table scans, derived tables, and joins.
//!
//! Joins are executed as hash joins on the equi-join keys extracted from the
//! `ON` condition; residual (non-equi) predicates are evaluated over the
//! key-matched candidate pairs, before an outer join null-extends its
//! unmatched rows.  This mirrors how the paper's underlying engines evaluate
//! the equi-joins that VerdictDB emits.
//!
//! Join keys are hashed directly from the typed columns, morsel-parallel,
//! and the build rows are linked into allocation-free hash chains
//! ([`crate::kernels::RowIndex`]) — no per-row `KeyValue` materialisation,
//! string cloning or per-key bucket on the build/probe path.  Matches come
//! out in probe-row order with build rows ascending, at any thread count,
//! and the joined table is assembled with typed column gathers.
//!
//! That pair order is what lets a WHERE conjunct naming one relation filter
//! it before the join (`Placement`): filtering keeps row order, so the
//! pairs that survive are the pairs, in the order, that filtering the joined
//! frame would keep.

use crate::column::Column;
use crate::error::EngineResult;
use crate::exec::predicate_mask_with;
use crate::expr::{eval_expr, infer_type, EvalContext};
use crate::functions::types_by_values;
use crate::kernels::{par_column_to_mask, par_hash_rows, RowIndex};
use crate::parallel::ThreadPool;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::DataType;
use verdict_sql::ast::{BinaryOp, Expr, JoinType, Query, TableWithJoins};
use verdict_sql::visitor::walk_expr;

fn resolves_in(expr: &Expr, schema: &Schema) -> bool {
    let mut ok = true;
    walk_expr(expr, &mut |e| {
        if let Expr::Column { table, name } = e {
            if schema.resolve(table.as_deref(), name).is_err() {
                ok = false;
            }
        }
    });
    ok
}

/// An extracted equi-join key pair: `left_expr = right_expr` with each side
/// resolvable against the corresponding input.
#[derive(Debug, Clone)]
pub struct EquiPair {
    /// Key expression resolvable against the left input.
    pub left: Expr,
    /// Key expression resolvable against the right input.
    pub right: Expr,
}

/// Splits a join constraint into equi pairs and residual predicates.
pub fn extract_equi_pairs(
    constraint: &Expr,
    left_schema: &Schema,
    right_schema: &Schema,
) -> (Vec<EquiPair>, Vec<Expr>) {
    let mut pairs = Vec::new();
    let mut residual = Vec::new();
    for conj in constraint.conjuncts() {
        if let Expr::BinaryOp {
            left,
            op: BinaryOp::Eq,
            right,
        } = conj.unnested()
        {
            if resolves_in(left, left_schema) && resolves_in(right, right_schema) {
                pairs.push(EquiPair {
                    left: (**left).clone(),
                    right: (**right).clone(),
                });
                continue;
            }
            if resolves_in(right, left_schema) && resolves_in(left, right_schema) {
                pairs.push(EquiPair {
                    left: (**right).clone(),
                    right: (**left).clone(),
                });
                continue;
            }
        }
        residual.push(conj.clone());
    }
    (pairs, residual)
}

/// Performs a hash join between two frames.
///
/// `join_type` may be Inner, Left, or Right; the preserved side of an outer
/// join probes, the other side is indexed.  Cross joins take the nested-loop
/// path with no keys.  Residual (non-equi) `ON` conjuncts are part of the
/// match condition: they are evaluated over the key-matched candidate pairs,
/// and a preserved row whose candidates all fail them is emitted once,
/// null-extended — filtering after null-extension would drop it.  Both
/// sides' keys are hashed and the output gathered morsel-parallel over
/// `pool`; linking the build rows and probing stay sequential, so match
/// order (probe rows in order, build rows ascending — and thus output
/// order) is identical at any thread count.
pub fn hash_join(
    left: &Table,
    right: &Table,
    pairs: &[EquiPair],
    residual: &[Expr],
    join_type: JoinType,
    rng: &mut dyn FnMut() -> f64,
    pool: &ThreadPool,
) -> EngineResult<Table> {
    let probe_is_right = join_type == JoinType::Right;
    let (probe, build) = if probe_is_right {
        (right, left)
    } else {
        (left, right)
    };
    let (mut probe_idx, mut build_idx): (Vec<usize>, Vec<usize>) = if pairs.is_empty() {
        // cross join / no equi keys: nested loop
        let mut pi = Vec::new();
        let mut bi = Vec::new();
        for p in 0..probe.num_rows() {
            for b in 0..build.num_rows() {
                pi.push(p);
                bi.push(b);
            }
        }
        (pi, bi)
    } else {
        // evaluate typed key columns on both sides
        let mut left_keys: Vec<Column> = Vec::with_capacity(pairs.len());
        let mut right_keys: Vec<Column> = Vec::with_capacity(pairs.len());
        for p in pairs {
            let mut lctx = EvalContext { table: left, rng };
            left_keys.push(eval_expr(&p.left, &mut lctx)?);
            let mut rctx = EvalContext { table: right, rng };
            right_keys.push(eval_expr(&p.right, &mut rctx)?);
        }
        let (probe_keys, build_keys) = if probe_is_right {
            (right_keys, left_keys)
        } else {
            (left_keys, right_keys)
        };
        // index the build side, probe in row order
        let index = RowIndex::build(&build_keys, build.num_rows(), pool);
        let probe_hashes = par_hash_rows(&probe_keys, probe.num_rows(), pool);
        let mut pi = Vec::new();
        let mut bi = Vec::new();
        for (p, &hash) in probe_hashes.iter().enumerate() {
            index.probe_each(&probe_keys, hash, p, |b| {
                pi.push(p);
                bi.push(b);
            });
        }
        (pi, bi)
    };

    // assemble a joined frame with per-column typed gathers, fanned out over
    // the pool (columns are independent, so order is preserved); small
    // outputs stay serial — thread spawn would dwarf the gather itself.
    // `usize::MAX` in `build_idx` marks the null row of an outer join.
    let left_width = left.num_columns();
    let total = left_width + right.num_columns();
    let joined = |probe_idx: &[usize], build_idx: &[usize]| {
        let gather = |i: usize| {
            let column = if i < left_width {
                &left.columns[i]
            } else {
                &right.columns[i - left_width]
            };
            // the left side probes unless the join is RIGHT
            if (i < left_width) != probe_is_right {
                column.take(probe_idx)
            } else {
                column.take_opt(build_idx)
            }
        };
        let columns: Vec<Column> =
            if pool.parallelism() <= 1 || probe_idx.len() <= crate::parallel::MORSEL_ROWS {
                (0..total).map(gather).collect()
            } else {
                pool.run(total, gather)
            };
        Table::new(left.schema.join(&right.schema), columns)
    };

    let outer = matches!(join_type, JoinType::Left | JoinType::Right);
    if let Some(pred) = Expr::conjoin(residual.iter().cloned()) {
        let candidates = joined(&probe_idx, &build_idx)?;
        let mask = {
            let mut ctx = EvalContext {
                table: &candidates,
                rng,
            };
            par_column_to_mask(&eval_expr(&pred, &mut ctx)?, pool)
        };
        if !outer {
            return Ok(candidates.filter_with(&mask, pool));
        }
        let keep = mask.indices();
        probe_idx = keep.iter().map(|&k| probe_idx[k]).collect();
        build_idx = keep.iter().map(|&k| build_idx[k]).collect();
    }
    if outer {
        (probe_idx, build_idx) = null_extend(probe.num_rows(), &probe_idx, &build_idx);
    }
    joined(&probe_idx, &build_idx)
}

/// Adds `(p, usize::MAX)` for every probe row `p` absent from the matched
/// pairs (ascending in `probe_idx`), keeping probe-row order.
fn null_extend(
    probe_rows: usize,
    probe_idx: &[usize],
    build_idx: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let mut pi = Vec::with_capacity(probe_idx.len().max(probe_rows));
    let mut bi = Vec::with_capacity(pi.capacity());
    let mut next = 0;
    for p in 0..probe_rows {
        if probe_idx.get(next) != Some(&p) {
            pi.push(p);
            bi.push(usize::MAX);
        }
        while probe_idx.get(next) == Some(&p) {
            pi.push(p);
            bi.push(build_idx[next]);
            next += 1;
        }
    }
    (pi, bi)
}

/// Cartesian product of two frames (used for comma-separated FROM items).
pub fn cross_join(
    left: &Table,
    right: &Table,
    rng: &mut dyn FnMut() -> f64,
    pool: &ThreadPool,
) -> EngineResult<Table> {
    hash_join(left, right, &[], &[], JoinType::Cross, rng, pool)
}

/// The WHERE conjuncts of a statement over a join, placed while its
/// relations are built: a conjunct filters the relation it belongs to before
/// that relation is joined; the rest stay in the WHERE.  A conjunct goes to
/// relation `k` (in build order) only when
///
/// 1. it names a column and holds no subquery;
/// 2. every column it names resolves in relation `k` and in no relation
///    built before it — [`Schema::resolve`] takes the first occurrence, so
///    the joined frame resolves it to the same columns;
/// 3. no outer join can null-extend relation `k`'s rows ([`preserved`]);
/// 4. every WHERE conjunct and `ON` condition of the statement is
///    [`row_local`] over the relations built so far: placing a conjunct
///    changes which rows reach each of them, which must change no value and
///    no error.
///
/// A statement that calls `rand()` places nothing (its draw order is part of
/// the answer), and a conjunct that fails over its relation is left in the
/// WHERE, where it fails as it always has.  Each rule looks only at
/// relations already built, so placement is decided relation by relation in
/// build order.
pub(crate) struct Placement<'q> {
    /// The resolved WHERE's conjuncts in order, each with whether it was
    /// placed.
    conjuncts: Vec<(Expr, bool)>,
    /// Every `ON` condition of the statement.
    on: Vec<&'q Expr>,
    /// The fields of the relations built so far, in build order, typed by
    /// their columns.  A name that any of them holds as text is text in all:
    /// an `ON` key is evaluated over its own side of the join, where an
    /// unqualified name can mean a later relation's column.
    built: Schema,
}

impl<'q> Placement<'q> {
    /// Placement of `selection`, the resolved WHERE of `query`.
    pub(crate) fn new(query: &'q Query, selection: Option<&Expr>) -> Placement<'q> {
        let conjuncts = match selection {
            Some(pred) if !super::draws(query) => pred
                .conjuncts()
                .into_iter()
                .map(|c| (c.clone(), false))
                .collect(),
            _ => Vec::new(),
        };
        let joins = query.from.iter().flat_map(|twj| &twj.joins);
        Placement {
            conjuncts,
            on: joins.filter_map(|j| j.constraint.as_ref()).collect(),
            built: Schema::default(),
        }
    }

    /// Filters `frame`, the next relation of the FROM clause in build order,
    /// by the conjuncts that belong to it; `preserved` is rule 3.
    pub(crate) fn filter(
        &mut self,
        frame: Table,
        preserved: bool,
        rng: &mut dyn FnMut() -> f64,
        pool: &ThreadPool,
    ) -> Table {
        if self.conjuncts.iter().all(|&(_, placed)| placed) {
            return frame;
        }
        let earlier = self.built.len();
        self.add(&frame);
        let exprs = self.conjuncts.iter().map(|(c, _)| c);
        if !preserved
            || !exprs
                .chain(self.on.iter().copied())
                .all(|e| row_local(e, &self.built))
        {
            return frame;
        }
        let earlier = &self.built.fields[..earlier];
        let mine: Vec<usize> = (0..self.conjuncts.len())
            .filter(|&i| {
                !self.conjuncts[i].1 && belongs(&self.conjuncts[i].0, &frame.schema, earlier)
            })
            .collect();
        let Some(pred) = Expr::conjoin(mine.iter().map(|&i| self.conjuncts[i].0.clone())) else {
            return frame;
        };
        match predicate_mask_with(&pred, &frame, rng, pool) {
            Ok(mask) => {
                for &i in &mine {
                    self.conjuncts[i].1 = true;
                }
                frame.filter_with(&mask, pool)
            }
            Err(_) => frame,
        }
    }

    /// Appends `frame`'s fields to `built`, typed by its columns.
    fn add(&mut self, frame: &Table) {
        for (field, column) in frame.schema.fields.iter().zip(&frame.columns) {
            let same = |f: &Field| f.name.eq_ignore_ascii_case(&field.name);
            let text = |f: &Field| same(f) && f.data_type == DataType::Str;
            let mut data_type = column.data_type();
            if data_type == DataType::Str || self.built.fields.iter().any(text) {
                data_type = DataType::Str;
                for f in self.built.fields.iter_mut().filter(|f| same(f)) {
                    f.data_type = DataType::Str;
                }
            }
            self.built.fields.push(Field {
                data_type,
                ..field.clone()
            });
        }
    }

    /// The WHERE left above the join: the conjuncts not placed, in order —
    /// `selection` untouched when none was.
    pub(crate) fn rest(self, selection: &mut Option<Expr>) {
        if self.conjuncts.iter().any(|&(_, placed)| placed) {
            let unplaced = self.conjuncts.into_iter().filter(|&(_, placed)| !placed);
            *selection = Expr::conjoin(unplaced.map(|(c, _)| c));
        }
    }
}

/// Rule 3: no outer join of `twj` can null-extend the rows of its relation
/// `k` — 0 is `twj.relation`, `k > 0` the relation of `twj.joins[k - 1]` —
/// so it is neither the right side of a LEFT join nor left of a later RIGHT
/// join.
pub(crate) fn preserved(twj: &TableWithJoins, k: usize) -> bool {
    (k == 0 || twj.joins[k - 1].join_type != JoinType::Left)
        && twj.joins[k..]
            .iter()
            .all(|j| j.join_type != JoinType::Right)
}

/// Rules 1 and 2: `c` names a column, holds no subquery, and every column it
/// names resolves in `relation` and in none of the `earlier` fields.
fn belongs(c: &Expr, relation: &Schema, earlier: &[Field]) -> bool {
    let (mut columns, mut ok) = (0, true);
    walk_expr(c, &mut |e| match e {
        Expr::Column { table, name } => {
            columns += 1;
            let table = table.as_deref();
            ok &= relation.resolve(table, name).is_ok()
                && !earlier.iter().any(|f| f.matches(table, name));
        }
        e => ok &= e.subquery().is_none(),
    });
    ok && columns > 0
}

/// Rule 4: whether each row's value of `e`, and whether it fails, depends on
/// that row alone, whichever other rows are evaluated with it.  Not so for a
/// CASE or a function whose result column is typed by its values
/// ([`types_by_values`]), for a subquery (not resolved yet), or for
/// arithmetic over an operand that can hold text, whose `TypeMismatch` is
/// raised by the first such row evaluated.  Operand types come from
/// `built`; a column not built yet counts as text.  (The one-shot drain's
/// `LIMIT` stop asks the same question of a scan: see
/// `ProgressiveScan::drain`.)
pub(crate) fn row_local(e: &Expr, built: &Schema) -> bool {
    let mut local = true;
    walk_expr(e, &mut |n| {
        local &= match n {
            Expr::Case { .. } => false,
            Expr::Function(f) => !types_by_values(&f.name),
            Expr::BinaryOp {
                left,
                op:
                    BinaryOp::Plus
                    | BinaryOp::Minus
                    | BinaryOp::Multiply
                    | BinaryOp::Divide
                    | BinaryOp::Modulo,
                right,
            } => [left, right]
                .iter()
                .all(|operand| infer_type(operand, built) != DataType::Str),
            n => n.subquery().is_none(),
        }
    });
    local
}

/// `frame`'s fields typed by its columns, the types evaluation sees: a
/// table's schema may name a type its column does not hold (an all-NULL
/// column takes the type of the rows appended to it).
pub(crate) fn typed_schema(frame: &Table) -> Schema {
    let fields = frame.schema.fields.iter().zip(&frame.columns);
    let typed = fields.map(|(field, column)| Field {
        data_type: column.data_type(),
        ..field.clone()
    });
    Schema::new(typed.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnData;
    use crate::functions::seeded_uniform;
    use crate::table::TableBuilder;
    use crate::value::Value;
    use verdict_sql::parse_expression;

    fn orders() -> Table {
        let t = TableBuilder::new()
            .int_column("order_id", vec![1, 2, 3])
            .str_column(
                "city",
                vec!["a", "b", "a"].into_iter().map(String::from).collect(),
            )
            .build()
            .unwrap();
        Table {
            schema: t.schema.with_qualifier("o"),
            columns: t.columns,
        }
    }

    fn items() -> Table {
        let t = TableBuilder::new()
            .int_column("order_id", vec![1, 1, 2, 4])
            .float_column("price", vec![10.0, 20.0, 30.0, 40.0])
            .build()
            .unwrap();
        Table {
            schema: t.schema.with_qualifier("i"),
            columns: t.columns,
        }
    }

    #[test]
    fn inner_hash_join_matches_expected_pairs() {
        let l = orders();
        let r = items();
        let constraint = parse_expression("o.order_id = i.order_id").unwrap();
        let (pairs, residual) = extract_equi_pairs(&constraint, &l.schema, &r.schema);
        assert_eq!(pairs.len(), 1);
        assert!(residual.is_empty());
        let mut rng = seeded_uniform(1);
        let out = hash_join(
            &l,
            &r,
            &pairs,
            &residual,
            JoinType::Inner,
            &mut rng,
            &ThreadPool::serial(),
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3); // order 1 matches twice, order 2 once
    }

    #[test]
    fn left_join_keeps_unmatched_rows_with_nulls() {
        let l = orders();
        let r = items();
        let constraint = parse_expression("o.order_id = i.order_id").unwrap();
        let (pairs, residual) = extract_equi_pairs(&constraint, &l.schema, &r.schema);
        let mut rng = seeded_uniform(1);
        let out = hash_join(
            &l,
            &r,
            &pairs,
            &residual,
            JoinType::Left,
            &mut rng,
            &ThreadPool::serial(),
        )
        .unwrap();
        assert_eq!(out.num_rows(), 4); // order 3 kept with nulls
        let price_idx = out.schema.resolve(Some("i"), "price").unwrap();
        assert!(out.columns[price_idx].null_count() > 0);
    }

    #[test]
    fn right_join_mirrors_left_join() {
        let l = orders();
        let r = items();
        let constraint = parse_expression("o.order_id = i.order_id").unwrap();
        let (pairs, residual) = extract_equi_pairs(&constraint, &l.schema, &r.schema);
        let mut rng = seeded_uniform(1);
        let out = hash_join(
            &l,
            &r,
            &pairs,
            &residual,
            JoinType::Right,
            &mut rng,
            &ThreadPool::serial(),
        )
        .unwrap();
        // orders 1 (×2), 2, and the unmatched item with order_id 4
        assert_eq!(out.num_rows(), 4);
        let city_idx = out.schema.resolve(Some("o"), "city").unwrap();
        assert!(out.columns[city_idx].null_count() > 0);
    }

    #[test]
    fn join_keys_match_across_numeric_types() {
        let l = orders();
        let t = TableBuilder::new()
            .float_column("order_id", vec![1.0, 3.0])
            .build()
            .unwrap();
        let r = Table {
            schema: t.schema.with_qualifier("f"),
            columns: t.columns,
        };
        let constraint = parse_expression("o.order_id = f.order_id").unwrap();
        let (pairs, residual) = extract_equi_pairs(&constraint, &l.schema, &r.schema);
        let mut rng = seeded_uniform(1);
        let out = hash_join(
            &l,
            &r,
            &pairs,
            &residual,
            JoinType::Inner,
            &mut rng,
            &ThreadPool::serial(),
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2, "Int 1/3 must join with Float 1.0/3.0");
    }

    #[test]
    fn null_keys_never_match() {
        let lt = TableBuilder::new()
            .opt_int_column("k", vec![Some(1), None])
            .build()
            .unwrap();
        let l = Table {
            schema: lt.schema.with_qualifier("l"),
            columns: lt.columns,
        };
        let rt = TableBuilder::new()
            .opt_int_column("k", vec![Some(1), None])
            .build()
            .unwrap();
        let r = Table {
            schema: rt.schema.with_qualifier("r"),
            columns: rt.columns,
        };
        let constraint = parse_expression("l.k = r.k").unwrap();
        let (pairs, residual) = extract_equi_pairs(&constraint, &l.schema, &r.schema);
        let mut rng = seeded_uniform(1);
        let out = hash_join(
            &l,
            &r,
            &pairs,
            &residual,
            JoinType::Inner,
            &mut rng,
            &ThreadPool::serial(),
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1, "NULL = NULL must not match in a join");
    }

    #[test]
    fn residual_predicates_filter_joined_rows() {
        let l = orders();
        let r = items();
        let constraint = parse_expression("o.order_id = i.order_id AND i.price > 15").unwrap();
        let (pairs, residual) = extract_equi_pairs(&constraint, &l.schema, &r.schema);
        assert_eq!(pairs.len(), 1);
        assert_eq!(residual.len(), 1);
        let mut rng = seeded_uniform(1);
        let out = hash_join(
            &l,
            &r,
            &pairs,
            &residual,
            JoinType::Inner,
            &mut rng,
            &ThreadPool::serial(),
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
    }

    /// `ON o.order_id = i.order_id AND i.price > 15`: the residual is part
    /// of the match condition, so order 1 keeps only its 20.0 item, order 2
    /// its 30.0 item, and a preserved row without a passing candidate is
    /// null-extended, not dropped.
    #[test]
    fn outer_join_residual_null_extends_rows_whose_candidates_all_fail() {
        let (l, r) = (orders(), items());
        let constraint = parse_expression("o.order_id = i.order_id AND i.price > 15").unwrap();
        let (pairs, residual) = extract_equi_pairs(&constraint, &l.schema, &r.schema);
        let rows = |join_type| -> Vec<Vec<Value>> {
            let mut rng = seeded_uniform(1);
            let pool = ThreadPool::serial();
            let out = hash_join(&l, &r, &pairs, &residual, join_type, &mut rng, &pool).unwrap();
            out.iter_rows().collect()
        };
        let (int, float, null) = (Value::Int, Value::Float, Value::Null);
        let s = |v: &str| Value::Str(v.into());
        assert_eq!(
            rows(JoinType::Left),
            vec![
                vec![int(1), s("a"), int(1), float(20.0)],
                vec![int(2), s("b"), int(2), float(30.0)],
                vec![int(3), s("a"), null.clone(), null.clone()],
            ]
        );
        // every item is preserved; the 10.0 item fails the residual and the
        // order-4 item has no order, so both get a NULL order side
        assert_eq!(
            rows(JoinType::Right),
            vec![
                vec![null.clone(), null.clone(), int(1), float(10.0)],
                vec![int(1), s("a"), int(1), float(20.0)],
                vec![int(2), s("b"), int(2), float(30.0)],
                vec![null.clone(), null, int(4), float(40.0)],
            ]
        );
    }

    /// Row `i` of `cols` as a scalar join key, `None` when any column is
    /// NULL: integral numbers by value whether Int or Float (`-0.0` is 0),
    /// other floats by bit pattern with every NaN alike, strings as they are.
    fn scalar_key(cols: &[Column], i: usize) -> Option<Vec<String>> {
        cols.iter()
            .map(|c| match c.value_at(i) {
                Value::Null => None,
                Value::Int(v) => Some(format!("n{v}")),
                Value::Float(f) if f.is_nan() => Some("nan".into()),
                Value::Float(f) if f.fract() == 0.0 => Some(format!("n{}", f as i64)),
                Value::Float(f) => Some(format!("f{}", f.to_bits())),
                Value::Str(s) => Some(format!("s{s}")),
                Value::Bool(b) => Some(format!("b{b}")),
            })
            .collect()
    }

    /// The nested loop "for each probe row, for each build row ascending,
    /// keep the pair when the keys are equal and `residual` holds", with
    /// the inner loop narrowed to equal keys by a std `HashMap`; an outer
    /// join adds `(p, None)` for a probe row without a kept pair.
    fn reference_pairs(
        probe_keys: &[Option<Vec<String>>],
        build_keys: &[Option<Vec<String>>],
        residual: &dyn Fn(usize, usize) -> bool,
        outer: bool,
    ) -> Vec<(usize, Option<usize>)> {
        let mut by_key: std::collections::HashMap<&[String], Vec<usize>> = Default::default();
        for (b, key) in build_keys.iter().enumerate() {
            if let Some(key) = key {
                by_key.entry(key).or_default().push(b);
            }
        }
        let mut pairs = Vec::new();
        for (p, key) in probe_keys.iter().enumerate() {
            let kept: Vec<usize> = key
                .as_ref()
                .and_then(|key| by_key.get(key.as_slice()))
                .map(|rows| rows.iter().copied().filter(|&b| residual(p, b)).collect())
                .unwrap_or_default();
            if kept.is_empty() && outer {
                pairs.push((p, None));
            }
            pairs.extend(kept.into_iter().map(|b| (p, Some(b))));
        }
        pairs
    }

    /// Same types, validity and value bits (NaN included).
    fn assert_bit_identical(a: &Table, b: &Table, label: &str) {
        assert_eq!(a.num_columns(), b.num_columns(), "{label}");
        for (x, y) in a.columns.iter().zip(&b.columns) {
            assert_eq!(x.validity(), y.validity(), "{label}: validity");
            match (x.data(), y.data()) {
                (ColumnData::Float64(p), ColumnData::Float64(q)) => assert!(
                    p.iter()
                        .map(|v| v.to_bits())
                        .eq(q.iter().map(|v| v.to_bits())),
                    "{label}: float bits"
                ),
                (p, q) => assert!(p == q, "{label}: values"),
            }
        }
    }

    /// `hash_join` against the scalar reference on inputs larger than a
    /// morsel on both sides: duplicate keys on both sides, NULL keys,
    /// `Int 5` against `Float 5.0`, NaN, strings and two-column keys whose
    /// row hashes collide — INNER / LEFT / RIGHT, with and without a
    /// residual `ON` conjunct, at pools of 1 and 4.  Pairs come out in
    /// probe-row order with build rows ascending.
    #[test]
    fn hash_join_matches_scalar_reference_in_pair_order() {
        use crate::parallel::MORSEL_ROWS;
        let (nl, nr) = (MORSEL_ROWS + 4_000, MORSEL_ROWS + 1_000);
        let ints = |n: usize, f: &dyn Fn(usize) -> Option<i64>| {
            Column::from_opt_i64((0..n).map(f).collect())
        };
        let floats = |n: usize, f: &dyn Fn(usize) -> Option<f64>| {
            Column::from_opt_f64((0..n).map(f).collect())
        };
        let strs = |n: usize, f: &dyn Fn(usize) -> Option<String>| {
            Column::from_opt_str((0..n).map(f).collect())
        };
        let (ca, cb) = crate::kernels::tests::colliding_int_keys(40);
        let colliding = |n: usize, salt: usize| -> Vec<Column> {
            let (a, b): (Vec<i64>, Vec<i64>) = (0..n)
                .map(|i| match i % 50 {
                    0 => (ca[(i / 50 + salt) % 40], cb[(i / 50 + salt) % 40]),
                    _ => ((i % 30_000) as i64, (i % 7) as i64),
                })
                .unzip();
            vec![Column::from_i64(a), Column::from_i64(b)]
        };
        // (label, left key columns, right key columns)
        let cases: Vec<(&str, Vec<Column>, Vec<Column>)> = vec![
            (
                "nullable ints, duplicates on both sides",
                vec![ints(nl, &|i| {
                    (i % 97 != 0).then_some((i * 7 % 50_000) as i64)
                })],
                vec![ints(nr, &|i| (i % 89 != 0).then_some((i % 40_000) as i64))],
            ),
            (
                "Int against Float: integral, fractional, -0.0, NaN, NULL",
                vec![ints(nl, &|i| (i % 61 != 0).then_some((i % 30_000) as i64))],
                vec![floats(nr, &|i| {
                    (i % 17 != 0).then_some(match i % 13 {
                        0 => -0.0,
                        5 => f64::NAN,
                        7 => (i % 35_000) as f64 + 0.5,
                        _ => (i % 35_000) as f64,
                    })
                })],
            ),
            (
                "floats with NaN on both sides",
                vec![floats(nl, &|i| {
                    (i % 53 != 0).then_some(if i % 1000 == 1 {
                        f64::NAN
                    } else {
                        (i % 20_000) as f64 * 0.25
                    })
                })],
                vec![floats(nr, &|i| {
                    (i % 47 != 0).then_some(if i % 900 == 2 {
                        f64::NAN
                    } else {
                        (i % 30_000) as f64 * 0.25
                    })
                })],
            ),
            (
                "nullable strings",
                vec![strs(nl, &|i| {
                    (i % 71 != 0).then(|| format!("s{}", i % 20_000))
                })],
                vec![strs(nr, &|i| {
                    (i % 67 != 0).then(|| format!("s{}", i % 25_000))
                })],
            ),
            (
                "two-column keys with colliding row hashes",
                colliding(nl, 0),
                colliding(nr, 3),
            ),
        ];
        let (x, y): (Vec<f64>, Vec<f64>) = (
            (0..nl).map(|i| (i % 10) as f64).collect(),
            (0..nr).map(|i| (i % 7) as f64).collect(),
        );
        let residual_holds = |l: usize, r: usize| x[l] < y[r];
        for (label, lkeys, rkeys) in &cases {
            let table = |q: &str, keys: &[Column], payload: &[f64]| {
                let mut b =
                    TableBuilder::new().int_column("id", (0..payload.len() as i64).collect());
                for (i, k) in keys.iter().enumerate() {
                    b = b.column(&format!("k{i}"), k.clone());
                }
                let t = b.float_column("v", payload.to_vec()).build().unwrap();
                Table {
                    schema: t.schema.with_qualifier(q),
                    columns: t.columns,
                }
            };
            let (l, r) = (table("l", lkeys, &x), table("r", rkeys, &y));
            let on_keys: Vec<String> = (0..lkeys.len())
                .map(|i| format!("l.k{i} = r.k{i}"))
                .collect();
            let scalar = |keys: &[Column]| -> Vec<_> {
                (0..keys[0].len()).map(|i| scalar_key(keys, i)).collect()
            };
            let (lscalar, rscalar) = (scalar(lkeys), scalar(rkeys));
            for with_residual in [false, true] {
                let mut on = on_keys.join(" AND ");
                if with_residual {
                    on.push_str(" AND l.v < r.v");
                }
                let (pairs, residual) =
                    extract_equi_pairs(&parse_expression(&on).unwrap(), &l.schema, &r.schema);
                for join_type in [JoinType::Inner, JoinType::Left, JoinType::Right] {
                    let outer = join_type != JoinType::Inner;
                    let expected: Vec<(usize, Option<usize>)> = if join_type == JoinType::Right {
                        reference_pairs(
                            &rscalar,
                            &lscalar,
                            &|p, b| !with_residual || residual_holds(b, p),
                            outer,
                        )
                    } else {
                        reference_pairs(
                            &lscalar,
                            &rscalar,
                            &|p, b| !with_residual || residual_holds(p, b),
                            outer,
                        )
                    };
                    let probe_idx: Vec<usize> = expected.iter().map(|&(p, _)| p).collect();
                    let build_idx: Vec<usize> = expected
                        .iter()
                        .map(|&(_, b)| b.unwrap_or(usize::MAX))
                        .collect();
                    let (left_idx, right_idx) = if join_type == JoinType::Right {
                        (build_idx, probe_idx)
                    } else {
                        (probe_idx, build_idx)
                    };
                    let want = Table {
                        schema: l.schema.join(&r.schema),
                        columns: (l.columns.iter().map(|c| c.take_opt(&left_idx)))
                            .chain(r.columns.iter().map(|c| c.take_opt(&right_idx)))
                            .collect(),
                    };
                    for threads in [1, 4] {
                        let mut rng = seeded_uniform(1);
                        let pool = ThreadPool::new(threads);
                        let got = hash_join(&l, &r, &pairs, &residual, join_type, &mut rng, &pool)
                            .unwrap();
                        let label = format!(
                            "{label}, {join_type:?}, residual {with_residual}, {threads} threads"
                        );
                        assert_bit_identical(&got, &want, &label);
                    }
                }
            }
        }
    }

    #[test]
    fn cross_join_produces_cartesian_product() {
        let l = orders();
        let r = items();
        let mut rng = seeded_uniform(1);
        let out = cross_join(&l, &r, &mut rng, &ThreadPool::serial()).unwrap();
        assert_eq!(out.num_rows(), 12);
    }

    #[test]
    fn conjunct_splitting_roundtrips() {
        let e = parse_expression("a = 1 AND b = 2 AND c > 3").unwrap();
        let conjuncts = e.conjuncts();
        assert_eq!(conjuncts.len(), 3);
        let combined = Expr::conjoin(conjuncts.into_iter().cloned()).unwrap();
        assert_eq!(combined.conjuncts().len(), 3);
        let nested = parse_expression("(a = 1 AND (b = 2)) AND c > 3").unwrap();
        let bare: Vec<&Expr> = nested.conjuncts().into_iter().map(Expr::unnested).collect();
        assert_eq!(bare, combined.conjuncts());
    }
}
