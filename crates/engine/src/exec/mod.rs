//! The query executor: turns a parsed [`Statement`] into a result [`Table`].
//!
//! There is one way a `SELECT` runs, whoever asks for it —
//! [`Executor::execute_query`] for a one-shot answer,
//! [`crate::Backend::open_block_scan`] for a stream: **open** a
//! [`progressive::ProgressiveScan`], **advance** it over the input block by
//! block, and read the answer through its one **tail**.  This module is the
//! statement level and the open:
//!
//! 1. resolve uncorrelated scalar / `IN` subqueries anywhere in an
//!    expression to literals — WHERE, HAVING, the JOIN `ON` conditions (as
//!    the FROM clause is built), then the select list, GROUP BY and ORDER BY;
//!    that order is the order their `rand()` draws are taken in,
//! 2. bind the FROM clause.  A lone plain table, or a lone *row-wise* derived
//!    table (a single base table, an optional WHERE, a select list of `*`
//!    plus scalar items: the `(SELECT *, … AS verdict_sid FROM scramble)`
//!    wrapper VerdictDB puts around every sampled relation), is bound as a
//!    [`view`] holding only the base columns whose bare name the statement
//!    spells, and is read block by block; joins (hash joins over the bound
//!    or executed relations), any other derived table and a table-less
//!    select are built here and enter the scan as a single block.  While a
//!    join is built, a WHERE conjunct that names one relation filters that
//!    relation before it is joined (`from_clause::Placement`; a statement
//!    calling `rand()` places nothing) and leaves the WHERE; pairs come out
//!    of the join in the order filtering the joined frame would keep them,
//!    so the answer is the same bit for bit,
//! 3. drain: every block takes the view's frame → WHERE → group-key /
//!    argument evaluation → the running aggregation (or, without
//!    aggregation, the filtered rows are kept),
//! 4. the tail: window functions over the (aggregated) frame → HAVING →
//!    projection → ORDER BY → DISTINCT → LIMIT.
//!
//! The drain's block size follows from the input alone (see
//! `ProgressiveScan::drain`); the answer does not depend on it.  A `LIMIT`
//! over rows no later row can change ends the drain once its rows are in,
//! and `rows_scanned` counts the rows a view's drain read.

pub mod aggregate;
pub mod from_clause;
pub mod progressive;
pub mod view;
pub mod window;

use crate::catalog::Catalog;
use crate::column::Column;
use crate::error::{EngineError, EngineResult};
use crate::expr::{eval_expr, EvalContext};
use crate::kernels::{par_column_to_mask, par_filter_mask};
use crate::parallel::ThreadPool;
use crate::persist::{ScanSource, TableSource};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::{DataType, Value};
use from_clause::{cross_join, extract_equi_pairs, hash_join, preserved, Placement};
use progressive::{Input, ProgressiveScan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use verdict_sql::ast::*;
use view::RowView;

/// How a statement reaches a base table by catalog key: one-shot execution
/// pins the materialised table (`Catalog::get`), a stream opens a block
/// reader (`Catalog::scan_source`).
pub(crate) type Pin<'p> = &'p dyn Fn(&str) -> EngineResult<Arc<dyn ScanSource>>;

/// One relation of a FROM clause, bound.
enum Bound<'q> {
    /// A plain table or a row-wise derived table: read through a view.
    View(Box<RowView>),
    /// Any other derived table: a query to execute, and its alias.
    Query(&'q Query, Option<&'q str>),
}

/// Executes statements against a [`Catalog`].
pub struct Executor<'a> {
    catalog: &'a Catalog,
    /// The uniform `[0, 1)` source behind `rand()`.
    rng: Box<dyn FnMut() -> f64>,
    /// Morsel-parallel worker pool shared with the owning engine.
    pool: Arc<ThreadPool>,
    /// Total number of base-table rows scanned while executing (used by the
    /// engine latency profiles to model per-engine cost).
    pub rows_scanned: u64,
}

impl<'a> Executor<'a> {
    /// Creates an executor sharing an existing worker pool (the engine passes
    /// its own pool here so the `parallelism` knob applies to every
    /// statement); `seed` makes `rand()` deterministic when given.
    pub fn with_pool(
        catalog: &'a Catalog,
        seed: Option<u64>,
        pool: Arc<ThreadPool>,
    ) -> Executor<'a> {
        let mut rng = match seed {
            Some(s) => StdRng::seed_from_u64(s),
            None => StdRng::from_entropy(),
        };
        Executor {
            catalog,
            rng: Box::new(move || rng.gen::<f64>()),
            pool,
            rows_scanned: 0,
        }
    }

    /// Executes any supported statement.  DDL/DML return an empty result table.
    pub fn execute_statement(&mut self, stmt: &Statement) -> EngineResult<Table> {
        match stmt {
            Statement::Query(q) => self.execute_query(q),
            Statement::CreateTableAs {
                name,
                query,
                if_not_exists,
            } => {
                if self.catalog.exists(&name.key()) {
                    if *if_not_exists {
                        return Ok(Table::default());
                    }
                    return Err(EngineError::TableAlreadyExists(name.to_string()));
                }
                let result = self.execute_query(query)?;
                let stored = Table {
                    schema: result.schema.without_qualifiers(),
                    columns: result.columns,
                };
                self.catalog.create(&name.key(), stored, false)?;
                Ok(Table::default())
            }
            Statement::DropTable { name, if_exists } => {
                self.catalog.drop_table(&name.key(), *if_exists)?;
                Ok(Table::default())
            }
            Statement::InsertIntoSelect { table, query } => {
                let rows = self.execute_query(query)?;
                let stripped = Table {
                    schema: rows.schema.without_qualifiers(),
                    columns: rows.columns,
                };
                self.catalog.append(&table.key(), &stripped)?;
                Ok(Table::default())
            }
            // VerdictDB control statements (CREATE SCRAMBLE, SET, BYPASS, …)
            // are interpreted by the middleware session layer and must never
            // reach the underlying database.
            other => Err(EngineError::Unsupported(format!(
                "control statement cannot be executed by the engine: {other:?}"
            ))),
        }
    }

    /// Executes a `SELECT` query and returns its result table: the block
    /// scan of the statement, drained to the end.
    pub fn execute_query(&mut self, statement: &Query) -> EngineResult<Table> {
        let mut query = statement.clone();
        for e in query.selection.iter_mut().chain(&mut query.having) {
            self.resolve_subqueries(e)?;
        }
        // Views prune by the names the statement as written spells,
        // subqueries still in place.
        let catalog = self.catalog;
        let pinned = |key: &str| {
            let table = TableSource::new(catalog.get(key)?);
            Ok(Arc::new(table) as Arc<dyn ScanSource>)
        };
        let input = match lone_view(statement, &pinned)? {
            Some(view) => Input::View(view),
            None => Input::Built(self.build_from(statement, &mut query.selection, &pinned)?),
        };
        // a built FROM clause counted its rows as it was built
        let scanned = matches!(input, Input::View(_));
        let items = query.projection.iter_mut().filter_map(SelectItem::expr_mut);
        let order = query.order_by.iter_mut().map(|o| &mut o.expr);
        for e in items.chain(&mut query.group_by).chain(order) {
            self.resolve_subqueries(e)?;
        }
        let scan = ProgressiveScan::open(input, &query, Arc::clone(&self.pool), &mut *self.rng)?;
        let (table, read) = scan.drain(&mut *self.rng)?;
        if scanned {
            self.rows_scanned += read as u64;
        }
        Ok(table)
    }

    /// Builds the frame of a FROM clause that is not one view.  Each relation
    /// is filtered, before it is joined, by the conjuncts of `selection` (the
    /// resolved WHERE) that belong to it ([`Placement`]); `selection` keeps
    /// the others.
    fn build_from(
        &mut self,
        query: &Query,
        selection: &mut Option<Expr>,
        pin: Pin,
    ) -> EngineResult<Table> {
        if query.from.is_empty() {
            // table-less SELECT: a single anonymous row
            return Table::new(
                Schema::new(vec![Field::new("__dummy", DataType::Int)]),
                vec![Column::from_i64(vec![0])],
            );
        }
        let mut placement = Placement::new(query, selection.as_ref());
        let mut frame: Option<Table> = None;
        for twj in &query.from {
            let first = self.build_factor(&twj.relation, query, pin)?;
            let mut current =
                placement.filter(first, preserved(twj, 0), &mut *self.rng, &self.pool);
            for (k, join) in (1..).zip(&twj.joins) {
                let right = self.build_factor(&join.relation, query, pin)?;
                let right = placement.filter(right, preserved(twj, k), &mut *self.rng, &self.pool);
                current = match (join.join_type, &join.constraint) {
                    (JoinType::Cross, _) => {
                        cross_join(&current, &right, &mut *self.rng, &self.pool)?
                    }
                    (_, None) => {
                        return Err(EngineError::Unsupported("JOIN without ON condition".into()))
                    }
                    (jt, Some(constraint)) => {
                        let mut constraint = constraint.clone();
                        self.resolve_subqueries(&mut constraint)?;
                        let (pairs, residual) =
                            extract_equi_pairs(&constraint, &current.schema, &right.schema);
                        let (rng, pool) = (&mut *self.rng, &self.pool);
                        hash_join(&current, &right, &pairs, &residual, jt, rng, pool)?
                    }
                };
            }
            frame = Some(match frame {
                None => current,
                Some(existing) => cross_join(&existing, &current, &mut *self.rng, &self.pool)?,
            });
        }
        placement.rest(selection);
        Ok(frame.expect("nonempty from"))
    }

    /// Builds the whole frame of one relation of `enclosing`'s FROM clause.
    fn build_factor(
        &mut self,
        tf: &TableFactor,
        enclosing: &Query,
        pin: Pin,
    ) -> EngineResult<Table> {
        match bind(tf, enclosing, pin)? {
            Bound::View(view) => {
                self.rows_scanned += view.num_rows() as u64;
                view.frame(0, view.num_rows(), &mut *self.rng, &self.pool)
            }
            Bound::Query(subquery, alias) => {
                let result = self.execute_query(subquery)?;
                let schema = result.schema.without_qualifiers();
                Ok(Table {
                    schema: match alias {
                        Some(a) => schema.with_qualifier(a),
                        None => schema,
                    },
                    columns: result.columns,
                })
            }
        }
    }

    /// Executes a subquery expression's query; a column it cannot resolve
    /// can only be an outer one.
    fn execute_subquery(&mut self, query: &Query) -> EngineResult<Table> {
        self.execute_query(query).map_err(|e| match e {
            EngineError::ColumnNotFound(c) => EngineError::Unsupported(format!(
                "correlated subquery referencing outer column {c}"
            )),
            other => other,
        })
    }

    /// Replaces, in place, every uncorrelated scalar subquery and
    /// IN-subquery in `expr` with a literal value / list by executing it
    /// eagerly, in the order they are written.  Correlated subqueries and
    /// `EXISTS` surface as an `Unsupported` error.
    fn resolve_subqueries(&mut self, expr: &mut Expr) -> EngineResult<()> {
        match expr {
            Expr::ScalarSubquery(q) => {
                let result = self.execute_subquery(q)?;
                let v = if result.num_rows() == 0 || result.num_columns() == 0 {
                    Value::Null
                } else {
                    result.value_at(0, 0)
                };
                *expr = Expr::Literal(value_to_literal(&v));
            }
            Expr::InSubquery {
                expr: inner,
                subquery,
                negated,
            } => {
                self.resolve_subqueries(inner)?;
                let result = self.execute_subquery(subquery)?;
                let list = match result.columns.first() {
                    Some(col) => col
                        .iter()
                        .map(|v| Expr::Literal(value_to_literal(&v)))
                        .collect(),
                    None => Vec::new(),
                };
                let inner = std::mem::replace(inner, Box::new(Expr::Wildcard));
                *expr = Expr::InList {
                    expr: inner,
                    list,
                    negated: *negated,
                };
            }
            Expr::Exists { .. } => {
                return Err(EngineError::Unsupported("EXISTS subquery".into()));
            }
            _ => expr.try_for_each_child_mut(|child| self.resolve_subqueries(child))?,
        }
        Ok(())
    }
}

/// Binds one relation of `enclosing`'s FROM clause.
fn bind<'q>(tf: &'q TableFactor, enclosing: &Query, pin: Pin) -> EngineResult<Bound<'q>> {
    let view = match tf {
        TableFactor::Table { name, alias } => {
            let binding = alias.as_deref().unwrap_or(name.base_name());
            RowView::scan(pin(&name.key())?, binding)
        }
        TableFactor::Derived { subquery, alias } => {
            match RowView::bind(subquery, alias.as_deref(), enclosing, pin)? {
                Some(view) => view,
                None => return Ok(Bound::Query(subquery, alias.as_deref())),
            }
        }
    };
    Ok(Bound::View(Box::new(view)))
}

/// The FROM clause of `query` as one view, when it is a single relation
/// that binds as one.
pub(crate) fn lone_view(query: &Query, pin: Pin) -> EngineResult<Option<Box<RowView>>> {
    match query.from.as_slice() {
        [twj] if twj.joins.is_empty() => match bind(&twj.relation, query, pin)? {
            Bound::View(view) => Ok(Some(view)),
            Bound::Query(..) => Ok(None),
        },
        _ => Ok(None),
    }
}

/// True when `query` calls `rand()` anywhere, derived tables included: the
/// order of its draws is then part of the answer.
pub(crate) fn draws(query: &Query) -> bool {
    let mut draws = false;
    verdict_sql::visitor::walk_query(query, &mut |e| draws |= e.is_rand());
    draws
}

/// Evaluates a predicate over a frame into a selection mask.  A top-level
/// comparison takes the fully morsel-parallel filter kernel (operands
/// evaluated first, then compared and masked per morsel); everything else
/// evaluates to a boolean column and folds it to a mask morsel-parallel.
/// Both paths match the serial `column_to_mask(eval_expr(pred))` bit for bit.
///
/// The expression evaluation is element-wise, so filtering a frame block by
/// block and concatenating equals filtering the whole frame at once.
pub(crate) fn predicate_mask_with(
    pred: &Expr,
    frame: &Table,
    rng: &mut dyn FnMut() -> f64,
    pool: &ThreadPool,
) -> EngineResult<crate::selvec::SelVec> {
    if let Expr::BinaryOp { left, op, right } = pred {
        if op.is_comparison() {
            let mut ctx = EvalContext { table: frame, rng };
            let l = eval_expr(left, &mut ctx)?;
            let r = eval_expr(right, &mut ctx)?;
            return Ok(par_filter_mask(&l, *op, &r, pool));
        }
    }
    let mut ctx = EvalContext { table: frame, rng };
    let col = eval_expr(pred, &mut ctx)?;
    Ok(par_column_to_mask(&col, pool))
}

pub(crate) fn default_output_name(expr: &Expr, position: usize) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function(f) => f.name.clone(),
        _ => format!("col_{position}"),
    }
}

fn value_to_literal(v: &Value) -> Literal {
    match v {
        Value::Null => Literal::Null,
        Value::Int(i) => Literal::Integer(*i),
        Value::Float(f) => Literal::Float(*f),
        Value::Str(s) => Literal::String(s.clone()),
        Value::Bool(b) => Literal::Boolean(*b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use verdict_sql::printer::print_expr;
    use verdict_sql::{parse_statement, GenericDialect};

    fn setup() -> Catalog {
        let catalog = Catalog::new();
        let orders = TableBuilder::new()
            .int_column("order_id", vec![1, 2, 3, 4, 5, 6])
            .str_column(
                "city",
                vec!["aa", "aa", "det", "det", "det", "chi"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
            )
            .float_column("price", vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
            .build()
            .unwrap();
        catalog.register("orders", orders);
        let products = TableBuilder::new()
            .int_column("order_id", vec![1, 2, 3, 4, 5, 6])
            .int_column("product_id", vec![100, 100, 200, 200, 300, 300])
            .build()
            .unwrap();
        catalog.register("order_products", products);
        catalog
    }

    fn executor(catalog: &Catalog, seed: u64) -> Executor<'_> {
        let pool = Arc::new(ThreadPool::with_default_parallelism());
        Executor::with_pool(catalog, Some(seed), pool)
    }

    fn run(catalog: &Catalog, sql: &str) -> Table {
        let stmt = parse_statement(sql).unwrap();
        executor(catalog, 7)
            .execute_statement(&stmt)
            .unwrap_or_else(|e| panic!("execution failed for {sql}: {e}"))
    }

    #[test]
    fn simple_select_star_and_filter() {
        let c = setup();
        let out = run(&c, "SELECT * FROM orders WHERE price >= 30");
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.num_columns(), 3);
    }

    #[test]
    fn group_by_with_aggregates_and_order() {
        let c = setup();
        let out = run(
            &c,
            "SELECT city, count(*) AS cnt, sum(price) AS total FROM orders GROUP BY city ORDER BY total DESC",
        );
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value_at(0, 0), Value::Str("det".into()));
        assert_eq!(out.value_at(0, 1), Value::Int(3));
        assert_eq!(out.value_at(0, 2), Value::Float(120.0));
    }

    #[test]
    fn join_and_group() {
        let c = setup();
        let out = run(
            &c,
            "SELECT p.product_id, avg(o.price) AS avg_price FROM orders o \
             INNER JOIN order_products p ON o.order_id = p.order_id \
             GROUP BY p.product_id ORDER BY p.product_id",
        );
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value_at(0, 1), Value::Float(15.0));
        assert_eq!(out.value_at(2, 1), Value::Float(55.0));
    }

    #[test]
    fn derived_table_and_nested_aggregate() {
        let c = setup();
        let out = run(
            &c,
            "SELECT avg(total) AS avg_city_total FROM \
             (SELECT city, sum(price) AS total FROM orders GROUP BY city) AS t",
        );
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value_at(0, 0), Value::Float(70.0));
    }

    #[test]
    fn having_filters_groups() {
        let c = setup();
        let out = run(
            &c,
            "SELECT city, count(*) AS cnt FROM orders GROUP BY city HAVING count(*) > 1 ORDER BY city",
        );
        assert_eq!(out.num_rows(), 2);
    }

    #[test]
    fn scalar_subquery_comparison() {
        let c = setup();
        let out = run(
            &c,
            "SELECT count(*) FROM orders WHERE price > (SELECT avg(price) FROM orders)",
        );
        assert_eq!(out.value_at(0, 0), Value::Int(3));
    }

    #[test]
    fn window_function_over_group() {
        let c = setup();
        let out = run(
            &c,
            "SELECT city, count(*) AS cnt, sum(count(*)) OVER () AS total \
             FROM orders GROUP BY city ORDER BY city",
        );
        assert_eq!(out.num_rows(), 3);
        assert!(out.columns[2]
            .iter()
            .all(|v| v.as_f64().unwrap_or(0.0) == 6.0 || v.as_i64() == Some(6)));
    }

    #[test]
    fn create_table_as_and_insert_and_drop() {
        let c = setup();
        run(
            &c,
            "CREATE TABLE expensive AS SELECT * FROM orders WHERE price > 30",
        );
        assert_eq!(c.row_count("expensive"), 3);
        run(
            &c,
            "INSERT INTO expensive SELECT * FROM orders WHERE price <= 30",
        );
        assert_eq!(c.row_count("expensive"), 6);
        run(&c, "DROP TABLE expensive");
        assert!(!c.exists("expensive"));
    }

    #[test]
    fn select_without_from() {
        let c = setup();
        let out = run(&c, "SELECT 1 AS one, 2.5 AS two");
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value_at(0, 0), Value::Int(1));
    }

    #[test]
    fn distinct_and_limit() {
        let c = setup();
        let out = run(&c, "SELECT DISTINCT city FROM orders ORDER BY city LIMIT 2");
        assert_eq!(out.num_rows(), 2);
    }

    /// `t(x, s)`: x = 0..100, s = `s{x % 10}`.
    fn hundred_rows() -> Catalog {
        let catalog = Catalog::new();
        let t = TableBuilder::new()
            .int_column("x", (0..100).collect())
            .str_column("s", (0..100).map(|i| format!("s{}", i % 10)).collect())
            .build()
            .unwrap();
        catalog.register("t", t);
        catalog
    }

    /// Asserts that `sql` answers like itself with every `{n}` / `{s}`
    /// written as the value of `(SELECT avg(x) FROM t)` /
    /// `(SELECT max(s) FROM t)` (the same text as the by-hand substitution
    /// of a subquery that returns it).
    fn assert_resolves_like_its_value(c: &Catalog, sql: &str) {
        let subquery = |q: &str| format!("(SELECT {q} FROM t)");
        let value = |q: &str| {
            let v = run(c, &format!("SELECT {q} FROM t")).value_at(0, 0);
            print_expr(&Expr::Literal(value_to_literal(&v)), &GenericDialect)
        };
        let with = sql
            .replace("{n}", &subquery("avg(x)"))
            .replace("{s}", &subquery("max(s)"));
        let by_hand = sql
            .replace("{n}", &value("avg(x)"))
            .replace("{s}", &value("max(s)"));
        assert_eq!(run(c, &with), run(c, &by_hand), "{with}");
    }

    #[test]
    fn subqueries_resolve_wherever_an_expression_holds_one() {
        let c = hundred_rows();
        for sql in [
            "SELECT count(*) FROM t WHERE abs(x - {n}) < 5",
            "SELECT sum(CASE WHEN x > {n} THEN 1 ELSE 0 END) FROM t",
            "SELECT count(*) FROM t WHERE {n} IS NOT NULL",
            "SELECT max(x) - {n} FROM t",
            "SELECT count(*) FROM t WHERE CAST({n} AS INT) < x",
            // the other slots: GROUP BY, ORDER BY, HAVING, JOIN ON
            "SELECT x > {n} AS big, count(*) FROM t GROUP BY x > {n} ORDER BY big",
            "SELECT x FROM t ORDER BY abs(x - {n}), x LIMIT 3",
            "SELECT count(*) FROM t GROUP BY s HAVING max(x) > {n} + 45",
            "SELECT count(*) FROM t a INNER JOIN t b ON a.x = b.x AND a.x > {n}",
        ] {
            assert_resolves_like_its_value(&c, sql);
        }
    }

    #[test]
    fn a_scalar_subquery_resolves_as_a_child_of_every_composite_variant() {
        let c = hundred_rows();
        for item in [
            "x + {n}",
            "-{n}",
            "abs({n})",
            "count(*) OVER (PARTITION BY {n})",
            "CASE {n} WHEN 49.5 THEN {n} ELSE 0 END",
            "{n} IS NULL",
            "x IN (1, {n})",
            "{n} IN (SELECT x FROM t)",
            "x BETWEEN {n} AND 100",
            "s LIKE {s}",
            "CAST({n} AS INT)",
            "({n})",
        ] {
            assert_resolves_like_its_value(&c, &format!("SELECT {item} AS v FROM t"));
        }
    }

    #[test]
    fn correlated_and_exists_subqueries_stay_unsupported() {
        let c = hundred_rows();
        for sql in [
            "SELECT count(*) FROM t AS o WHERE x > (SELECT avg(x) FROM t WHERE t.s = o.s)",
            "SELECT (SELECT max(x) FROM t AS i WHERE i.s = o.s) FROM t AS o",
            "SELECT count(*) FROM t WHERE EXISTS (SELECT x FROM t)",
            "SELECT abs(CASE WHEN NOT EXISTS (SELECT x FROM t) THEN 1 END) FROM t",
        ] {
            let stmt = parse_statement(sql).unwrap();
            let got = executor(&c, 1).execute_statement(&stmt);
            assert!(
                matches!(got, Err(EngineError::Unsupported(_))),
                "{sql}: {got:?}"
            );
        }
    }

    #[test]
    fn in_subquery_resolved() {
        let c = setup();
        let out = run(
            &c,
            "SELECT count(*) FROM orders WHERE order_id IN (SELECT order_id FROM order_products WHERE product_id = 100)",
        );
        assert_eq!(out.value_at(0, 0), Value::Int(2));
    }

    #[test]
    fn missing_table_is_an_error() {
        let c = setup();
        let stmt = parse_statement("SELECT * FROM nope").unwrap();
        assert!(matches!(
            executor(&c, 1).execute_statement(&stmt),
            Err(EngineError::TableNotFound(_))
        ));
    }

    /// `l(a, s, b, z)` and `r(a, b, x, z)`: `l.a` 1 and 2 join (2 twice), 3,
    /// NULL and 9 do not; `r.a` 4 and NULL do not.  `l.s` is non-NULL only
    /// in the row that does not join, `r.z` (text; `l.z` is an integer) only
    /// in a row that does.
    fn join_tables() -> Catalog {
        let catalog = Catalog::new();
        let l = TableBuilder::new()
            .opt_int_column("a", vec![Some(1), Some(2), Some(3), None, Some(9)])
            .opt_str_column("s", vec![None, None, None, None, Some("x".into())])
            .float_column("b", vec![0.5, 1.5, 2.5, 3.5, 4.5])
            .int_column("z", vec![0; 5])
            .build()
            .unwrap();
        let r = TableBuilder::new()
            .opt_int_column("a", vec![Some(1), Some(2), Some(2), Some(4), None])
            .float_column("b", vec![5.0, 0.0, 2.0, 1.0, 3.0])
            .int_column("x", vec![0, 1, 3, 0, 2])
            .opt_str_column("z", vec![None, Some("y".into()), None, None, None])
            .build()
            .unwrap();
        catalog.register("l", l);
        catalog.register("r", r);
        catalog
    }

    /// WHERE conjuncts that must not filter a relation before the join, each
    /// answered as filtering the joined frame answers it — which a rule
    /// "every conjunct naming one relation filters it" would not.
    #[test]
    fn where_conjuncts_filter_before_the_join_only_where_invisible() {
        let c = join_tables();
        let count = |sql: &str| run(&c, sql).value_at(0, 0);
        let inner = "SELECT count(*) FROM l INNER JOIN r ON l.a = r.a";
        // `'x' + 1` fails, but no joined row holds it
        assert_eq!(count(&format!("{inner} WHERE l.s + 1 > 0")), Value::Int(0));
        // anti-joins: the null-extended side is filtered above the join only
        let left = "SELECT count(*) FROM l LEFT JOIN r ON l.a = r.a";
        let right = "SELECT count(*) FROM l RIGHT JOIN r ON l.a = r.a";
        assert_eq!(count(&format!("{left} WHERE r.a IS NULL")), Value::Int(3));
        assert_eq!(count(&format!("{right} WHERE l.a IS NULL")), Value::Int(2));
        // the preserved side is still filtered: a = 2 twice, 3, NULL, 9
        assert_eq!(count(&format!("{left} WHERE l.b > 1")), Value::Int(5));
        // an unqualified name both relations hold is `l`'s: 0.5 > 0, 1.5 > 1
        // (`r.b > r.x` would keep only the first pair)
        assert_eq!(count(&format!("{inner} WHERE b > x")), Value::Int(2));
        assert_eq!(count(&format!("{inner} WHERE b > 1")), Value::Int(2));
        // a conjunct left above the join still sees every joined row: `l.b <
        // 1` filtering `l` first would hide the joined `'y' + 1`
        let fails = |sql: &str| {
            let stmt = parse_statement(sql).unwrap();
            let err = executor(&c, 7).execute_statement(&stmt).unwrap_err();
            assert_eq!(err.to_string(), "type mismatch: cannot apply + to y and 1");
        };
        fails(&format!("{inner} WHERE l.b < 1 AND r.z + 1 > 0"));
        // the `ON` key `z + 1` is evaluated over `r`, where `z` is text,
        // although the joined frame resolves `z` to `l`'s integers: `r.x <>
        // 1` filtering `r` first would hide its `'y'`
        fails("SELECT count(*) FROM l INNER JOIN r ON l.a = z + 1 WHERE r.x <> 1");
    }

    #[test]
    fn count_distinct_in_query() {
        let c = setup();
        let out = run(&c, "SELECT count(DISTINCT city) FROM orders");
        assert_eq!(out.value_at(0, 0), Value::Int(3));
    }
}
