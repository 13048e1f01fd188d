//! The query executor: turns a parsed [`Statement`] into a result [`Table`].
//!
//! Execution pipeline for a `SELECT`:
//!
//! 1. resolve uncorrelated scalar / `IN` subqueries to literals,
//! 2. build the input frame from the FROM clause: scans, hash joins, and
//!    derived tables — a *row-wise* one (a single base table, an optional
//!    WHERE, a select list of `*` plus scalar items: the `(SELECT *, … AS
//!    verdict_sid FROM scramble)` wrapper VerdictDB puts around every sampled
//!    relation) is bound as a [`view`] holding only the base columns whose
//!    bare name the statement spells, any other is executed as a query,
//! 3. apply the WHERE filter,
//! 4. hash-aggregate when the query groups or aggregates,
//! 5. evaluate window functions over the (aggregated) frame,
//! 6. apply HAVING, project, de-duplicate for DISTINCT, sort, and limit.

pub mod aggregate;
pub mod from_clause;
pub mod progressive;
pub mod view;
pub mod window;

use crate::catalog::Catalog;
use crate::column::Column;
use crate::error::{EngineError, EngineResult};
use crate::expr::{eval_expr, infer_type, EvalContext};
use crate::kernels::{group_rows_with, par_column_to_mask, par_filter_mask};
use crate::parallel::ThreadPool;
use crate::persist::{ScanSource, TableSource};
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::value::{DataType, Value};
use aggregate::{collect_aggregate_calls, execute_aggregation_with, replace_exprs};
use from_clause::{cross_join, extract_equi_pairs, hash_join};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use verdict_sql::ast::*;
use view::RowView;
use window::{collect_window_calls, eval_window};

/// Executes statements against a [`Catalog`].
pub struct Executor<'a> {
    catalog: &'a Catalog,
    rng: StdRng,
    /// Morsel-parallel worker pool shared with the owning engine.
    pool: Arc<ThreadPool>,
    /// Total number of base-table rows scanned while executing (used by the
    /// engine latency profiles to model per-engine cost).
    pub rows_scanned: u64,
}

impl<'a> Executor<'a> {
    /// Creates an executor with a default-sized pool; `seed` makes `rand()`
    /// deterministic when given.
    pub fn new(catalog: &'a Catalog, seed: Option<u64>) -> Executor<'a> {
        Self::with_pool(
            catalog,
            seed,
            Arc::new(ThreadPool::with_default_parallelism()),
        )
    }

    /// Creates an executor sharing an existing worker pool (the engine passes
    /// its own pool here so the `parallelism` knob applies to every statement).
    pub fn with_pool(
        catalog: &'a Catalog,
        seed: Option<u64>,
        pool: Arc<ThreadPool>,
    ) -> Executor<'a> {
        let rng = match seed {
            Some(s) => StdRng::seed_from_u64(s),
            None => StdRng::from_entropy(),
        };
        Executor {
            catalog,
            rng,
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

    /// Executes a `SELECT` query and returns its result table.
    pub fn execute_query(&mut self, statement: &Query) -> EngineResult<Table> {
        let mut query = statement.clone();
        // 1. Resolve uncorrelated subqueries in WHERE / HAVING.
        if let Some(sel) = query.selection.take() {
            query.selection = Some(self.resolve_subqueries(sel)?);
        }
        if let Some(h) = query.having.take() {
            query.having = Some(self.resolve_subqueries(h)?);
        }

        // 2. FROM clause (views prune by the names the statement as written
        //    spells, subqueries still in place).
        let mut frame = self.build_from(statement)?;

        // 3. WHERE.
        if let Some(pred) = &query.selection {
            let mask = self.predicate_mask(pred, &frame)?;
            frame = frame.filter_with(&mask, &self.pool);
        }

        // Gather all output-side expressions.
        let mut projection = query.projection.clone();
        let mut having = query.having.clone();
        let mut order_by = query.order_by.clone();

        let mut out_exprs: Vec<&Expr> = Vec::new();
        for item in &projection {
            if let Some(e) = item.expr() {
                out_exprs.push(e);
            }
        }
        if let Some(h) = &having {
            out_exprs.push(h);
        }
        for o in &order_by {
            out_exprs.push(&o.expr);
        }

        // 4. Aggregation.
        let agg_items = collect_aggregate_calls(&out_exprs)?;
        let needs_agg = !query.group_by.is_empty() || !agg_items.is_empty();
        if needs_agg {
            let agg_frame = {
                let rng = &mut self.rng;
                let mut rng_fn = move || rng.gen::<f64>();
                execute_aggregation_with(
                    &frame,
                    &query.group_by,
                    &agg_items,
                    &mut rng_fn,
                    &self.pool,
                )?
            };
            let replacements = agg_frame.replacements;
            frame = agg_frame.table;
            projection = replace_in_projection(projection, &replacements);
            having = having.map(|h| replace_exprs(&h, &replacements));
            order_by = order_by
                .into_iter()
                .map(|o| OrderByItem {
                    expr: replace_exprs(&o.expr, &replacements),
                    asc: o.asc,
                })
                .collect();
        }

        // 5. Window functions (evaluated over the aggregated frame).
        let mut win_exprs: Vec<&Expr> = Vec::new();
        for item in &projection {
            if let Some(e) = item.expr() {
                win_exprs.push(e);
            }
        }
        if let Some(h) = &having {
            win_exprs.push(h);
        }
        for o in &order_by {
            win_exprs.push(&o.expr);
        }
        let window_calls = collect_window_calls(&win_exprs);
        if !window_calls.is_empty() {
            let mut replacements: Vec<(Expr, Expr)> = Vec::new();
            for (i, call) in window_calls.iter().enumerate() {
                let col = {
                    let rng = &mut self.rng;
                    let mut rng_fn = move || rng.gen::<f64>();
                    eval_window(call, &frame, &mut rng_fn)?
                };
                let name = format!("__win{i}");
                let dt = if col.null_count() == col.len() {
                    DataType::Float
                } else {
                    col.data_type()
                };
                frame.schema.fields.push(Field::new(&name, dt));
                frame.columns.push(col);
                replacements.push((Expr::Function(call.clone()), Expr::col(name)));
            }
            projection = replace_in_projection(projection, &replacements);
            having = having.map(|h| replace_exprs(&h, &replacements));
            order_by = order_by
                .into_iter()
                .map(|o| OrderByItem {
                    expr: replace_exprs(&o.expr, &replacements),
                    asc: o.asc,
                })
                .collect();
        }

        // 6. HAVING.
        if let Some(h) = &having {
            let mask = self.predicate_mask(h, &frame)?;
            frame = frame.filter_with(&mask, &self.pool);
        }

        // 7. Projection.
        let mut output = self.project(&frame, &projection)?;

        // 8. ORDER BY (keys evaluated against the pre-projection frame, falling
        //    back to output aliases), then DISTINCT, then LIMIT.
        if !order_by.is_empty() && output.num_rows() > 1 {
            let mut keys: Vec<Column> = Vec::with_capacity(order_by.len());
            for o in &order_by {
                let col = self.order_key(&o.expr, &frame, &output)?;
                keys.push(col);
            }
            let mut indices: Vec<usize> = (0..output.num_rows()).collect();
            indices.sort_by(|&a, &b| {
                for (k, o) in keys.iter().zip(order_by.iter()) {
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

        if query.distinct {
            output = distinct_rows(&output, &self.pool);
        }
        if let Some(limit) = query.limit {
            output = output.limit(limit as usize);
        }
        Ok(output)
    }

    /// Evaluates a predicate over the frame into a selection mask (see
    /// [`predicate_mask_with`]).
    fn predicate_mask(
        &mut self,
        pred: &Expr,
        frame: &Table,
    ) -> EngineResult<crate::selvec::SelVec> {
        let rng = &mut self.rng;
        let mut rng_fn = move || rng.gen::<f64>();
        predicate_mask_with(pred, frame, &mut rng_fn, &self.pool)
    }

    fn order_key(&mut self, expr: &Expr, frame: &Table, output: &Table) -> EngineResult<Column> {
        // Try the output table first when the key is a bare column (an alias),
        // provided the row counts line up.
        if let Expr::Column { table: None, name } = expr {
            if output.num_rows() == frame.num_rows() {
                if let Some(idx) = output.schema.index_of(name) {
                    return Ok(output.columns[idx].clone());
                }
            }
        }
        let rng = &mut self.rng;
        let mut rng_fn = move || rng.gen::<f64>();
        let mut ctx = EvalContext {
            table: frame,
            rng: &mut rng_fn,
        };
        eval_expr(expr, &mut ctx)
    }

    fn project(&mut self, frame: &Table, projection: &[SelectItem]) -> EngineResult<Table> {
        let rng = &mut self.rng;
        let mut rng_fn = move || rng.gen::<f64>();
        project_items(frame, projection, &mut rng_fn)
    }

    fn build_from(&mut self, query: &Query) -> EngineResult<Table> {
        let from = &query.from;
        if from.is_empty() {
            // table-less SELECT: a single anonymous row
            return Table::new(
                Schema::new(vec![Field::new("__dummy", DataType::Int)]),
                vec![Column::from_i64(vec![0])],
            );
        }
        let mut frame: Option<Table> = None;
        for twj in from {
            let mut current = self.build_factor(&twj.relation, query)?;
            for join in &twj.joins {
                let right = self.build_factor(&join.relation, query)?;
                current = match join.join_type {
                    JoinType::Cross => {
                        let rng = &mut self.rng;
                        let mut rng_fn = move || rng.gen::<f64>();
                        cross_join(&current, &right, &mut rng_fn, &self.pool)?
                    }
                    jt => {
                        let constraint = join.constraint.as_ref().ok_or_else(|| {
                            EngineError::Unsupported("JOIN without ON condition".into())
                        })?;
                        let constraint = self.resolve_subqueries(constraint.clone())?;
                        let (pairs, residual) =
                            extract_equi_pairs(&constraint, &current.schema, &right.schema);
                        let rng = &mut self.rng;
                        let mut rng_fn = move || rng.gen::<f64>();
                        hash_join(
                            &current,
                            &right,
                            &pairs,
                            &residual,
                            jt,
                            &mut rng_fn,
                            &self.pool,
                        )?
                    }
                };
            }
            frame = Some(match frame {
                None => current,
                Some(existing) => {
                    let rng = &mut self.rng;
                    let mut rng_fn = move || rng.gen::<f64>();
                    cross_join(&existing, &current, &mut rng_fn, &self.pool)?
                }
            });
        }
        Ok(frame.expect("nonempty from"))
    }

    /// Builds the frame of one relation of `enclosing`'s FROM clause.
    fn build_factor(&mut self, tf: &TableFactor, enclosing: &Query) -> EngineResult<Table> {
        match tf {
            TableFactor::Table { name, alias } => {
                let table = self.catalog.get(&name.key())?;
                self.rows_scanned += table.num_rows() as u64;
                let binding = alias
                    .clone()
                    .unwrap_or_else(|| name.base_name().to_string());
                Ok(Table {
                    schema: table.schema.with_qualifier(&binding),
                    columns: table.columns.clone(),
                })
            }
            TableFactor::Derived { subquery, alias } => {
                let catalog = self.catalog;
                let pinned = |key: &str| {
                    let table = TableSource::new(catalog.get(key)?);
                    Ok(Arc::new(table) as Arc<dyn ScanSource>)
                };
                if let Some(view) = RowView::bind(subquery, alias.as_deref(), enclosing, pinned)? {
                    let rows = view.num_rows();
                    self.rows_scanned += rows as u64;
                    let rng = &mut self.rng;
                    let mut rng_fn = move || rng.gen::<f64>();
                    return view.frame(0, rows, &mut rng_fn, &self.pool);
                }
                let result = self.execute_query(subquery)?;
                let schema = match alias {
                    Some(a) => result.schema.without_qualifiers().with_qualifier(a),
                    None => result.schema.without_qualifiers(),
                };
                Ok(Table {
                    schema,
                    columns: result.columns,
                })
            }
        }
    }

    /// Replaces uncorrelated scalar subqueries and IN-subqueries with literal
    /// values/lists by executing them eagerly.  Correlated subqueries surface
    /// as an `Unsupported` error (VerdictDB flattens them before the engine
    /// ever sees them).
    fn resolve_subqueries(&mut self, expr: Expr) -> EngineResult<Expr> {
        Ok(match expr {
            Expr::ScalarSubquery(q) => {
                let result = self.execute_query(&q).map_err(|e| match e {
                    EngineError::ColumnNotFound(c) => EngineError::Unsupported(format!(
                        "correlated subquery referencing outer column {c}"
                    )),
                    other => other,
                })?;
                let v = if result.num_rows() == 0 || result.num_columns() == 0 {
                    Value::Null
                } else {
                    result.value_at(0, 0)
                };
                Expr::Literal(value_to_literal(&v))
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let inner = self.resolve_subqueries(*expr)?;
                let result = self.execute_query(&subquery).map_err(|e| match e {
                    EngineError::ColumnNotFound(c) => EngineError::Unsupported(format!(
                        "correlated subquery referencing outer column {c}"
                    )),
                    other => other,
                })?;
                let list: Vec<Expr> = if result.num_columns() == 0 {
                    Vec::new()
                } else {
                    result.columns[0]
                        .iter()
                        .map(|v| Expr::Literal(value_to_literal(&v)))
                        .collect()
                };
                Expr::InList {
                    expr: Box::new(inner),
                    list,
                    negated,
                }
            }
            Expr::Exists { .. } => {
                return Err(EngineError::Unsupported("EXISTS subquery".into()));
            }
            Expr::BinaryOp { left, op, right } => Expr::BinaryOp {
                left: Box::new(self.resolve_subqueries(*left)?),
                op,
                right: Box::new(self.resolve_subqueries(*right)?),
            },
            Expr::UnaryOp { op, expr } => Expr::UnaryOp {
                op,
                expr: Box::new(self.resolve_subqueries(*expr)?),
            },
            Expr::Nested(e) => Expr::Nested(Box::new(self.resolve_subqueries(*e)?)),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(self.resolve_subqueries(*expr)?),
                low: Box::new(self.resolve_subqueries(*low)?),
                high: Box::new(self.resolve_subqueries(*high)?),
                negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(self.resolve_subqueries(*expr)?),
                list: list
                    .into_iter()
                    .map(|e| self.resolve_subqueries(e))
                    .collect::<EngineResult<Vec<_>>>()?,
                negated,
            },
            other => other,
        })
    }
}

/// Evaluates a predicate over a frame into a selection mask.  A top-level
/// comparison takes the fully morsel-parallel filter kernel (operands
/// evaluated first, then compared and masked per morsel); everything else
/// evaluates to a boolean column and folds it to a mask morsel-parallel.
/// Both paths match the serial `column_to_mask(eval_expr(pred))` bit for bit.
///
/// Shared by the one-shot executor and the progressive block-scan executor;
/// the expression evaluation is element-wise, so filtering a frame block by
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

/// Evaluates a projection list over a frame into an output table (wildcards
/// expand to the frame's non-helper columns; expressions evaluate per row).
/// Shared by the one-shot executor and the progressive block-scan executor.
pub(crate) fn project_items(
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
                let col = {
                    let mut ctx = EvalContext { table: frame, rng };
                    eval_expr(e, &mut ctx)?
                };
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

pub(crate) fn replace_in_projection(
    projection: Vec<SelectItem>,
    replacements: &[(Expr, Expr)],
) -> Vec<SelectItem> {
    projection
        .into_iter()
        .map(|item| match item {
            SelectItem::Expr(e) => SelectItem::Expr(replace_exprs(&e, replacements)),
            SelectItem::ExprWithAlias { expr, alias } => SelectItem::ExprWithAlias {
                expr: replace_exprs(&expr, replacements),
                alias,
            },
            other => other,
        })
        .collect()
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

fn distinct_rows(table: &Table, pool: &ThreadPool) -> Table {
    // the grouper's representatives are exactly the first occurrence of each
    // distinct row, in order
    let grouping = group_rows_with(&table.columns, table.num_rows(), pool);
    table.take(&grouping.representatives)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use verdict_sql::parse_statement;

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

    fn run(catalog: &Catalog, sql: &str) -> Table {
        let stmt = parse_statement(sql).unwrap();
        let mut exec = Executor::new(catalog, Some(7));
        exec.execute_statement(&stmt)
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
        let mut exec = Executor::new(&c, Some(1));
        assert!(matches!(
            exec.execute_statement(&stmt),
            Err(EngineError::TableNotFound(_))
        ));
    }

    #[test]
    fn count_distinct_in_query() {
        let c = setup();
        let out = run(&c, "SELECT count(DISTINCT city) FROM orders");
        assert_eq!(out.value_at(0, 0), Value::Int(3));
    }
}
