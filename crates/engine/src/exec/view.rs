//! Row-wise views: derived tables that are **bound**, not executed.
//!
//! A derived table whose subquery is one base table, an optional WHERE and
//! a select list of `*` plus scalar items — the shape of the variational
//! table VerdictDB wraps every sampled relation in,
//! `(SELECT *, CAST(1 + floor(verdict_subsample_u * 100) AS BIGINT) AS
//! verdict_sid_0 FROM scramble) AS alias` — computes nothing a scan of the
//! base table plus a few per-row expressions cannot.  `RowView::bind`
//! recognises that shape (`row_wise` is the one place it is validated) and
//! resolves, once per statement, which base columns the frame has to hold;
//! `RowView::frame` then builds the frame for any row range straight from
//! a [`ScanSource`]: inner WHERE → computed items in select-list order →
//! `*` over the kept columns → alias.  The block scan
//! ([`crate::exec::progressive`]) asks for the frame of each block; a
//! relation of a join is read whole.
//!
//! **Which columns are kept** is decided by bare name, never by resolution:
//! a base column stays when its name is spelled by any column reference of
//! the enclosing statement (select list, WHERE, GROUP BY, HAVING, ORDER BY,
//! every JOIN constraint, and — because the wrapper sits in that
//! statement's FROM — the wrapper's own items and WHERE), whatever
//! qualifier the reference carries.  All base columns of one name are
//! therefore kept or dropped together, so [`Schema::resolve`]'s
//! first-occurrence rule sees the same candidates in the same order as over
//! the materialised wrapper, also for an unqualified name present on both
//! sides of a join of two views.  A `*` or `alias.*` in the enclosing
//! select list, or a subquery expression anywhere in the enclosing
//! statement, keeps every column.  Only columns are dropped: row counts,
//! `rows_scanned`, morsel grids and the order of `rand()` draws (every
//! computed item is evaluated, referenced or not) are those of executing the
//! wrapper as a query.

use crate::column::Column;
use crate::error::EngineResult;
use crate::exec::from_clause::{row_local, typed_schema};
use crate::exec::{default_output_name, predicate_mask_with};
use crate::expr::{eval_expr, infer_type, EvalContext};
use crate::parallel::ThreadPool;
use crate::persist::ScanSource;
use crate::schema::{Field, Schema};
use crate::table::Table;
use std::collections::BTreeSet;
use std::sync::Arc;
use verdict_sql::ast::{is_aggregate_function, Expr, ObjectName, Query, SelectItem, TableFactor};
use verdict_sql::visitor::{walk_expr, walk_query};

/// A row-wise derived table bound to its base table (see the [module
/// docs](self)).
pub(crate) struct RowView {
    /// The base table: an `Arc`-pinned snapshot or a block reader.
    source: Arc<dyn ScanSource>,
    /// Indices into `source`'s schema of the columns the frame holds,
    /// ascending.
    cols: Vec<usize>,
    /// The fields of `cols`, qualified with the inner scan binding.
    scan_schema: Schema,
    /// The wrapper's WHERE.
    selection: Option<Expr>,
    /// The columns `selection` reads.  When set, `frame` evaluates the
    /// predicate over these columns alone and gathers the others for the
    /// surviving rows only (late materialisation); `None` when there is no
    /// predicate, it reads no column, or a reference does not resolve — the
    /// range is then read wholesale.
    filter: Option<ScanFilter>,
    /// The wrapper's select list.
    items: Vec<SelectItem>,
    /// The alias the frame's columns are visible under.
    alias: Option<String>,
}

/// The split of a view's kept columns around its WHERE.
struct ScanFilter {
    /// Source columns the predicate reads, ascending.
    cols: Vec<usize>,
    /// Their fields, qualified with the scan binding.
    schema: Schema,
    /// The kept columns it does not read, ascending.
    rest: Vec<usize>,
}

/// Validates the row-wise shape: one base table, an optional WHERE, a select
/// list of wildcards and scalar items — no DISTINCT / GROUP BY / HAVING /
/// ORDER BY / LIMIT, no join or nested derived table, and no aggregate,
/// window function or subquery in any expression (a subquery would have to
/// be executed first, which is what running the wrapper as a query does).
/// Returns the base table and its alias inside the wrapper.
fn row_wise(subquery: &Query) -> Option<(&ObjectName, Option<&str>)> {
    if subquery.distinct
        || !subquery.group_by.is_empty()
        || subquery.having.is_some()
        || !subquery.order_by.is_empty()
        || subquery.limit.is_some()
    {
        return None;
    }
    let [twj] = subquery.from.as_slice() else {
        return None;
    };
    let TableFactor::Table { name, alias } = &twj.relation else {
        return None;
    };
    if !twj.joins.is_empty() {
        return None;
    }
    let mut scalar = true;
    // the wrapper holds no derived table, so this visits its own
    // expressions only
    walk_query(subquery, &mut |e| match e {
        Expr::Function(f) if f.over.is_some() || is_aggregate_function(&f.name) => scalar = false,
        e if e.subquery().is_some() => scalar = false,
        _ => {}
    });
    scalar.then_some((name, alias.as_deref()))
}

/// The bare (lower-cased) names of every column reference in `enclosing`,
/// derived tables in its FROM included; `None` — every column — when its
/// select list holds a wildcard or any expression holds a subquery.
fn referenced_names(enclosing: &Query) -> Option<BTreeSet<String>> {
    if enclosing.projection.iter().any(|i| i.expr().is_none()) {
        return None;
    }
    let mut names = BTreeSet::new();
    let mut all = false;
    walk_query(enclosing, &mut |e| match e {
        Expr::Column { name, .. } => {
            names.insert(name.to_ascii_lowercase());
        }
        e if e.subquery().is_some() => all = true,
        _ => {}
    });
    (!all).then_some(names)
}

impl RowView {
    /// Binds `(subquery) AS alias`, a relation in `enclosing`'s FROM, as a
    /// view over the table `open` returns for its base-table key, keeping
    /// only the base columns `enclosing` names.  `Ok(None)` when the
    /// subquery is not row-wise: it has to be executed as a query.
    pub(crate) fn bind(
        subquery: &Query,
        alias: Option<&str>,
        enclosing: &Query,
        open: impl FnOnce(&str) -> EngineResult<Arc<dyn ScanSource>>,
    ) -> EngineResult<Option<RowView>> {
        let Some((name, inner_alias)) = row_wise(subquery) else {
            return Ok(None);
        };
        Ok(Some(RowView::new(
            open(&name.key())?,
            inner_alias.unwrap_or(name.base_name()),
            subquery.selection.clone(),
            subquery.projection.clone(),
            alias,
            referenced_names(enclosing),
        )))
    }

    /// The plain scan `FROM table [AS binding]` as the view `(SELECT
    /// binding.* FROM table AS binding) AS binding` over every column, so the
    /// executor has one kind of scanned relation.  (`binding.*`, unlike `*`,
    /// also passes `__`-prefixed columns through.)
    pub(crate) fn scan(source: Arc<dyn ScanSource>, binding: &str) -> RowView {
        let items = vec![SelectItem::QualifiedWildcard(binding.to_string())];
        RowView::new(source, binding, None, items, Some(binding), None)
    }

    fn new(
        source: Arc<dyn ScanSource>,
        binding: &str,
        selection: Option<Expr>,
        items: Vec<SelectItem>,
        alias: Option<&str>,
        needed: Option<BTreeSet<String>>,
    ) -> RowView {
        let base = source.schema();
        let mut cols: Vec<usize> = (0..base.len())
            .filter(|&i| {
                needed
                    .as_ref()
                    .is_none_or(|names| names.contains(&base.fields[i].name))
            })
            .collect();
        if cols.is_empty() && !base.is_empty() {
            // a frame's row count is the length of its columns: a statement
            // that names none (`SELECT count(*) FROM (SELECT * FROM t)`)
            // still needs one to count
            cols.push(0);
        }
        let scan_schema = Schema::new(
            cols.iter()
                .map(|&i| Field::qualified(binding, &base.fields[i].name, base.fields[i].data_type))
                .collect(),
        );
        let filter = selection
            .as_ref()
            .and_then(|pred| predicate_columns(pred, &scan_schema))
            .map(|read| ScanFilter {
                cols: read.iter().map(|&k| cols[k]).collect(),
                schema: Schema::new(
                    read.iter()
                        .map(|&k| scan_schema.fields[k].clone())
                        .collect(),
                ),
                rest: (0..cols.len())
                    .filter(|k| !read.contains(k))
                    .map(|k| cols[k])
                    .collect(),
            });
        RowView {
            source,
            cols,
            scan_schema,
            selection,
            filter,
            items,
            alias: alias.map(str::to_string),
        }
    }

    /// Rows of the base table.
    pub(crate) fn num_rows(&self) -> usize {
        self.source.num_rows()
    }

    /// True when the view's own WHERE and computed items are
    /// [`row_local`] over its base columns, typed as the source holds
    /// them: building the frame of fewer rows then changes no value and no
    /// error of the rows it keeps.
    pub(crate) fn row_local(&self) -> EngineResult<bool> {
        let no_rows = Table {
            schema: self.scan_schema.clone(),
            columns: self.source.read_range(Some(&self.cols), 0, 0)?,
        };
        let base = typed_schema(&no_rows);
        let exprs = self.items.iter().filter_map(SelectItem::expr);
        Ok(exprs.chain(&self.selection).all(|e| row_local(e, &base)))
    }

    /// The view's frame over base rows `[start, start + len)`.  Every step
    /// is element-wise, so the frames of consecutive ranges concatenate to
    /// the frame of their union.
    pub(crate) fn frame(
        &self,
        start: usize,
        len: usize,
        rng: &mut dyn FnMut() -> f64,
        pool: &ThreadPool,
    ) -> EngineResult<Table> {
        let scan = self.scan_rows(start, len, rng, pool)?;
        let mut computed = Vec::new();
        for (i, item) in self.items.iter().enumerate() {
            if let Some(e) = item.expr() {
                let name = match item.alias() {
                    Some(a) => a.to_string(),
                    None => default_output_name(e, i),
                };
                let dt = infer_type(e, &scan.schema);
                let mut ctx = EvalContext { table: &scan, rng };
                computed.push((name, dt, eval_expr(e, &mut ctx)?));
            }
        }
        let mut computed = computed.into_iter();
        let mut wildcards = self.items.iter().filter(|i| i.expr().is_none()).count();
        // the last wildcard moves the scan columns out, earlier ones copy
        let mut scan_columns: Vec<Option<Column>> = scan.columns.into_iter().map(Some).collect();
        let mut fields: Vec<Field> = Vec::new();
        let mut columns: Vec<Column> = Vec::new();
        let mut push = |name: &str, dt, column| {
            fields.push(match &self.alias {
                Some(a) => Field::qualified(a, name, dt),
                None => Field::new(name, dt),
            });
            columns.push(column);
        };
        for item in &self.items {
            let qualifier = match item {
                SelectItem::Expr(_) | SelectItem::ExprWithAlias { .. } => {
                    let (name, dt, column) = computed.next().expect("one per computed item");
                    push(&name, dt, column);
                    continue;
                }
                SelectItem::Wildcard => None,
                SelectItem::QualifiedWildcard(q) => Some(q.to_ascii_lowercase()),
            };
            wildcards -= 1;
            for (f, slot) in self.scan_schema.fields.iter().zip(&mut scan_columns) {
                let shown = match &qualifier {
                    // `*` hides internal helper columns, `q.*` does not
                    None => !f.name.starts_with("__"),
                    Some(q) => f.qualifier.as_deref() == Some(q.as_str()),
                };
                if shown {
                    let column = if wildcards == 0 {
                        slot.take()
                    } else {
                        slot.clone()
                    };
                    push(
                        &f.name,
                        f.data_type,
                        column.expect("taken by the last wildcard only"),
                    );
                }
            }
        }
        Table::new(Schema::new(fields), columns)
    }

    /// The kept columns of the rows in range that pass the wrapper's WHERE.
    /// `take` and `filter` select the same rows in the same order, so the
    /// late-materialised path equals reading the range and filtering it.
    /// Each source column is read by one call per range, so a block reader
    /// sees every column in ascending row order.
    fn scan_rows(
        &self,
        start: usize,
        len: usize,
        rng: &mut dyn FnMut() -> f64,
        pool: &ThreadPool,
    ) -> EngineResult<Table> {
        let kept = || -> EngineResult<Table> {
            Ok(Table {
                schema: self.scan_schema.clone(),
                columns: self.source.read_range(Some(&self.cols), start, len)?,
            })
        };
        let Some(pred) = &self.selection else {
            return kept();
        };
        let Some(filter) = &self.filter else {
            let scan = kept()?;
            let mask = predicate_mask_with(pred, &scan, rng, pool)?;
            return Ok(scan.filter_with(&mask, pool));
        };
        let thin = Table {
            schema: filter.schema.clone(),
            columns: self.source.read_range(Some(&filter.cols), start, len)?,
        };
        let mask = predicate_mask_with(pred, &thin, rng, pool)?;
        let rows: Vec<usize> = mask.indices().iter().map(|&i| start + i).collect();
        let mut read = thin.filter_with(&mask, pool).columns.into_iter();
        let mut rest = self.source.gather(Some(&filter.rest), &rows)?.into_iter();
        let columns = self.cols.iter().map(|c| match filter.cols.contains(c) {
            true => read.next().expect("one per filter column"),
            false => rest.next().expect("one per other column"),
        });
        Ok(Table {
            schema: self.scan_schema.clone(),
            columns: columns.collect(),
        })
    }
}

/// Indices into `schema` of the columns a predicate reads; `None` when it
/// reads none or any reference fails to resolve.
fn predicate_columns(pred: &Expr, schema: &Schema) -> Option<Vec<usize>> {
    let mut cols: Vec<usize> = Vec::new();
    let mut failed = false;
    walk_expr(pred, &mut |e| {
        if let Expr::Column { table, name } = e {
            match schema.resolve(table.as_deref(), name) {
                Ok(i) => cols.push(i),
                Err(_) => failed = true,
            }
        }
    });
    if failed || cols.is_empty() {
        return None;
    }
    cols.sort_unstable();
    cols.dedup();
    Some(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::TableSource;
    use crate::table::TableBuilder;
    use verdict_sql::ast::Statement;

    fn sales() -> Arc<dyn ScanSource> {
        let rows = 10;
        let table = TableBuilder::new()
            .int_column("k", (0..rows).map(|i| i % 3).collect())
            .float_column("price", (0..rows).map(|i| i as f64).collect())
            .float_column("u", (0..rows).map(|i| i as f64 / 10.0).collect())
            .str_column("note", (0..rows).map(|i| format!("n{i}")).collect())
            .build()
            .unwrap();
        Arc::new(TableSource::new(Arc::new(table)))
    }

    /// Binds the first FROM relation of `sql` (a derived table over `sales`).
    fn bind(sql: &str) -> Option<RowView> {
        let Statement::Query(query) = verdict_sql::parse_statement(sql).unwrap() else {
            panic!("not a query")
        };
        let TableFactor::Derived { subquery, alias } = &query.from[0].relation else {
            panic!("not a derived table")
        };
        RowView::bind(subquery, alias.as_deref(), &query, |key| {
            assert_eq!(key, "sales");
            Ok(sales())
        })
        .unwrap()
    }

    fn frame_fields(view: &RowView) -> Vec<(Option<String>, String)> {
        let frame = view
            .frame(0, view.num_rows(), &mut || 0.5, &ThreadPool::serial())
            .unwrap();
        let fields = frame.schema.fields.into_iter();
        fields.map(|f| (f.qualifier, f.name)).collect()
    }

    #[test]
    fn frame_holds_only_the_base_columns_the_statement_names() {
        let named = |names: &[&str]| -> Vec<(Option<String>, String)> {
            let qualified = names
                .iter()
                .map(|n| (Some("vt".to_string()), n.to_string()));
            qualified.collect()
        };
        // `note` is never spelled; `u` only by the wrapper's own item, `k`
        // only in GROUP BY / ORDER BY, `price` only with a qualifier
        let view = bind(
            "SELECT sum(vt.price) AS s FROM (SELECT *, u * 4 AS sid FROM sales) AS vt \
             GROUP BY k ORDER BY k",
        )
        .unwrap();
        assert_eq!(view.cols, vec![0, 1, 2]);
        assert_eq!(frame_fields(&view), named(&["k", "price", "u", "sid"]));
        // a computed alias equal to a base column name keeps the base column
        // first, where `Schema::resolve` finds it
        let view =
            bind("SELECT sum(price) AS s FROM (SELECT *, u AS price FROM sales) AS vt").unwrap();
        assert_eq!(frame_fields(&view), named(&["price", "u", "price"]));
        // an outer wildcard or a subquery anywhere keeps every column
        for sql in [
            "SELECT * FROM (SELECT *, u * 4 AS sid FROM sales) AS vt",
            "SELECT vt.* FROM (SELECT *, u * 4 AS sid FROM sales) AS vt",
            "SELECT count(*) AS n FROM (SELECT *, u * 4 AS sid FROM sales) AS vt \
             WHERE k IN (SELECT k FROM sales)",
        ] {
            let view = bind(sql).unwrap();
            assert_eq!(view.cols, vec![0, 1, 2, 3], "{sql}");
        }
        // a statement that names no column keeps one, for the row count
        let view = bind("SELECT count(*) AS n FROM (SELECT *, 1 AS one FROM sales) AS vt").unwrap();
        assert_eq!(frame_fields(&view), named(&["k", "one"]));
        let frame = view.frame(2, 5, &mut || 0.5, &ThreadPool::serial());
        assert_eq!(frame.unwrap().num_rows(), 5);
        // without an alias the frame is unqualified
        let view = bind("SELECT sum(price) AS s FROM (SELECT price FROM sales)").unwrap();
        assert_eq!(frame_fields(&view), vec![(None, "price".to_string())]);
    }

    #[test]
    fn wrapper_filter_columns_are_resolved_at_bind_time() {
        let filter = |sql: &str| bind(sql).unwrap().filter.map(|f| (f.cols, f.rest));
        // the inner WHERE reads u (2): masked over that column alone, then
        // k, price and u gathered for the survivors
        let sql = "SELECT k, sum(price) AS s FROM (SELECT * FROM sales WHERE u < 0.5) AS t \
                   GROUP BY k";
        assert_eq!(filter(sql), Some((vec![2], vec![0, 1])));
        assert_eq!(bind(sql).unwrap().cols, vec![0, 1, 2]);
        // no inner WHERE, or one that reads no column → wholesale read
        assert_eq!(
            filter("SELECT count(*) AS c FROM (SELECT * FROM sales) AS t"),
            None
        );
        assert_eq!(
            filter("SELECT count(*) AS c FROM (SELECT * FROM sales WHERE 1 = 1) AS t"),
            None
        );
        // a plain scan keeps every column and has no filter of its own
        let scan = RowView::scan(sales(), "s");
        assert_eq!(scan.cols, vec![0, 1, 2, 3]);
        assert!(scan.filter.is_none());
    }

    #[test]
    fn only_row_wise_derived_tables_bind() {
        for sql in [
            "SELECT count(*) FROM (SELECT DISTINCT k FROM sales) AS t",
            "SELECT count(*) FROM (SELECT k FROM sales GROUP BY k) AS t",
            "SELECT count(*) FROM (SELECT k FROM sales ORDER BY k) AS t",
            "SELECT count(*) FROM (SELECT k FROM sales LIMIT 3) AS t",
            "SELECT count(*) FROM (SELECT count(*) AS n FROM sales) AS t",
            "SELECT count(*) FROM (SELECT k, sum(price) OVER (PARTITION BY k) AS w FROM sales) AS t",
            "SELECT count(*) FROM (SELECT a.k FROM sales a INNER JOIN sales b ON a.k = b.k) AS t",
            "SELECT count(*) FROM (SELECT k FROM (SELECT k FROM sales) AS i) AS t",
            "SELECT count(*) FROM (SELECT k FROM sales WHERE k IN (SELECT k FROM sales)) AS t",
        ] {
            assert!(bind(sql).is_none(), "{sql}");
        }
        assert!(bind(
            "SELECT count(*) FROM (SELECT s.*, rand() AS r FROM sales s WHERE k > 0) AS t"
        )
        .is_some());
    }
}
