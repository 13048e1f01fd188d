//! Canonical SQL form used as the approximate-answer cache key.
//!
//! Two query texts that differ only in whitespace, keyword case, identifier
//! case, literal spelling (`1.50` vs `1.5`, `"x"` vs `'x'`), or redundant
//! formatting should hit the same cache entry.  [`canonical_sql`] achieves
//! this by parsing the text and re-printing the AST with the generic dialect
//! after lower-casing every identifier: the printer already normalises
//! whitespace, keyword case, and literal rendering, so the printed form is a
//! stable key.
//!
//! Canonicalisation is purely syntactic — it never changes query semantics
//! for the case-insensitive catalog this workspace uses (table and column
//! lookups are `to_ascii_lowercase`d throughout, see
//! `verdict_engine::Catalog`).  String *literal* contents are preserved
//! byte-for-byte; only identifiers are folded.

use crate::ast::*;
use crate::dialect::GenericDialect;
use crate::parser::{parse_statement, ParseError};
use crate::printer::print_statement;

/// Parses `sql` and returns its canonical text form, suitable as a cache key.
///
/// Returns the parse error unchanged when the text is not valid SQL — callers
/// typically skip caching in that case and let the execution path surface the
/// error.
pub fn canonical_sql(sql: &str) -> Result<String, ParseError> {
    let stmt = parse_statement(sql)?;
    let canon = canonical_statement(&stmt);
    Ok(print_statement(&canon, &GenericDialect))
}

/// Returns a copy of the statement with every identifier folded to lower
/// case (object names, column references, table aliases, function names) —
/// except projection aliases, which name the output columns the caller sees
/// and therefore stay case-significant.
pub fn canonical_statement(stmt: &Statement) -> Statement {
    match stmt {
        Statement::Query(q) => Statement::Query(Box::new(canonical_query(q))),
        Statement::CreateTableAs {
            name,
            query,
            if_not_exists,
        } => Statement::CreateTableAs {
            name: canonical_object_name(name),
            query: Box::new(canonical_query(query)),
            if_not_exists: *if_not_exists,
        },
        Statement::DropTable { name, if_exists } => Statement::DropTable {
            name: canonical_object_name(name),
            if_exists: *if_exists,
        },
        Statement::InsertIntoSelect { table, query } => Statement::InsertIntoSelect {
            table: canonical_object_name(table),
            query: Box::new(canonical_query(query)),
        },
        Statement::CreateScramble {
            name,
            table,
            method,
            ratio,
            on,
        } => Statement::CreateScramble {
            name: canonical_object_name(name),
            table: canonical_object_name(table),
            method: *method,
            ratio: *ratio,
            on: on.iter().map(|c| lower(c)).collect(),
        },
        Statement::CreateScrambles { table } => Statement::CreateScrambles {
            table: canonical_object_name(table),
        },
        Statement::DropScramble { name, if_exists } => Statement::DropScramble {
            name: canonical_object_name(name),
            if_exists: *if_exists,
        },
        Statement::DropScrambles { table, if_exists } => Statement::DropScrambles {
            table: canonical_object_name(table),
            if_exists: *if_exists,
        },
        Statement::ShowScrambles => Statement::ShowScrambles,
        Statement::ShowStats => Statement::ShowStats,
        Statement::RefreshScrambles { table, batch } => Statement::RefreshScrambles {
            table: canonical_object_name(table),
            batch: batch.as_ref().map(canonical_object_name),
        },
        Statement::Bypass(inner) => Statement::Bypass(Box::new(canonical_statement(inner))),
        Statement::SetOption { name, value } => Statement::SetOption {
            // The parser already lower-cases both; fold again so
            // hand-constructed ASTs canonicalise identically.
            name: lower(name),
            value: match value {
                SetValue::Ident(w) => SetValue::Ident(lower(w)),
                lit => lit.clone(),
            },
        },
        Statement::Stream(q) => Statement::Stream(Box::new(canonical_query(q))),
        Statement::Explain { analyze, statement } => Statement::Explain {
            analyze: *analyze,
            statement: Box::new(canonical_statement(statement)),
        },
        Statement::ShowProfile { last } => Statement::ShowProfile { last: *last },
        Statement::ShowMetrics => Statement::ShowMetrics,
    }
}

fn lower(s: &str) -> String {
    s.to_ascii_lowercase()
}

fn canonical_object_name(name: &ObjectName) -> ObjectName {
    ObjectName(name.0.iter().map(|p| lower(p)).collect())
}

/// [`canonical_statement`] for a bare query.
pub fn canonical_query(query: &Query) -> Query {
    Query {
        distinct: query.distinct,
        projection: query.projection.iter().map(canonical_select_item).collect(),
        from: query
            .from
            .iter()
            .map(|twj| TableWithJoins {
                relation: canonical_table_factor(&twj.relation),
                joins: twj
                    .joins
                    .iter()
                    .map(|j| Join {
                        relation: canonical_table_factor(&j.relation),
                        join_type: j.join_type,
                        constraint: j.constraint.as_ref().map(canonical_expr),
                    })
                    .collect(),
            })
            .collect(),
        selection: query.selection.as_ref().map(canonical_expr),
        group_by: query.group_by.iter().map(canonical_expr).collect(),
        having: query.having.as_ref().map(canonical_expr),
        order_by: query.order_by.iter().map(canonical_order_by).collect(),
        limit: query.limit,
    }
}

fn canonical_select_item(item: &SelectItem) -> SelectItem {
    match item {
        // An unaliased bare column's original case becomes the output column
        // name (the middleware's answer assembly clones it verbatim), so like
        // an explicit alias it stays case-significant; only the table
        // qualifier folds.  Function names are parser-lowercased already and
        // other unaliased expressions get positional `col_N` names, so full
        // canonicalisation is safe for them.
        SelectItem::Expr(Expr::Column { table, name }) => SelectItem::Expr(Expr::Column {
            table: table.as_deref().map(lower),
            name: name.clone(),
        }),
        SelectItem::Expr(e) => SelectItem::Expr(canonical_expr(e)),
        // Projection aliases determine the *output column names* the caller
        // sees (the executor preserves their case), so folding them would
        // conflate queries with observably different result schemas — the
        // alias keeps its case and stays significant in the key.
        SelectItem::ExprWithAlias { expr, alias } => SelectItem::ExprWithAlias {
            expr: canonical_expr(expr),
            alias: alias.clone(),
        },
        SelectItem::Wildcard => SelectItem::Wildcard,
        // A qualified wildcard's qualifier is a table binding, not an output
        // name — safe to fold like any other identifier.
        SelectItem::QualifiedWildcard(t) => SelectItem::QualifiedWildcard(lower(t)),
    }
}

fn canonical_table_factor(tf: &TableFactor) -> TableFactor {
    match tf {
        TableFactor::Table { name, alias } => TableFactor::Table {
            name: canonical_object_name(name),
            alias: alias.as_deref().map(lower),
        },
        TableFactor::Derived { subquery, alias } => TableFactor::Derived {
            subquery: Box::new(canonical_query(subquery)),
            alias: alias.as_deref().map(lower),
        },
    }
}

fn canonical_order_by(item: &OrderByItem) -> OrderByItem {
    OrderByItem {
        expr: canonical_expr(&item.expr),
        asc: item.asc,
    }
}

fn canonical_expr(expr: &Expr) -> Expr {
    match expr {
        Expr::Column { table, name } => Expr::Column {
            table: table.as_deref().map(lower),
            name: lower(name),
        },
        Expr::Literal(l) => Expr::Literal(l.clone()),
        Expr::Wildcard => Expr::Wildcard,
        Expr::BinaryOp { left, op, right } => Expr::BinaryOp {
            left: Box::new(canonical_expr(left)),
            op: *op,
            right: Box::new(canonical_expr(right)),
        },
        Expr::UnaryOp { op, expr } => Expr::UnaryOp {
            op: *op,
            expr: Box::new(canonical_expr(expr)),
        },
        Expr::Function(f) => Expr::Function(FunctionCall {
            name: lower(&f.name),
            args: f.args.iter().map(canonical_expr).collect(),
            distinct: f.distinct,
            over: f.over.as_ref().map(|w| WindowSpec {
                partition_by: w.partition_by.iter().map(canonical_expr).collect(),
                order_by: w.order_by.iter().map(canonical_order_by).collect(),
            }),
        }),
        Expr::Case {
            operand,
            when_then,
            else_expr,
        } => Expr::Case {
            operand: operand.as_ref().map(|o| Box::new(canonical_expr(o))),
            when_then: when_then
                .iter()
                .map(|(w, t)| (canonical_expr(w), canonical_expr(t)))
                .collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(canonical_expr(e))),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(canonical_expr(expr)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(canonical_expr(expr)),
            list: list.iter().map(canonical_expr).collect(),
            negated: *negated,
        },
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => Expr::InSubquery {
            expr: Box::new(canonical_expr(expr)),
            subquery: Box::new(canonical_query(subquery)),
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(canonical_expr(expr)),
            low: Box::new(canonical_expr(low)),
            high: Box::new(canonical_expr(high)),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(canonical_expr(expr)),
            pattern: Box::new(canonical_expr(pattern)),
            negated: *negated,
        },
        Expr::ScalarSubquery(q) => Expr::ScalarSubquery(Box::new(canonical_query(q))),
        Expr::Exists { subquery, negated } => Expr::Exists {
            subquery: Box::new(canonical_query(subquery)),
            negated: *negated,
        },
        Expr::Cast { expr, data_type } => Expr::Cast {
            expr: Box::new(canonical_expr(expr)),
            data_type: *data_type,
        },
        Expr::Nested(e) => Expr::Nested(Box::new(canonical_expr(e))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whitespace_and_keyword_case_fold_together() {
        let a = canonical_sql("select   COUNT(*) from Orders\n WHERE  price>10").unwrap();
        let b = canonical_sql("SELECT count(*) FROM orders WHERE price > 10").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn identifier_case_folds_but_string_literals_do_not() {
        let a = canonical_sql("SELECT city FROM Orders WHERE city = 'NYC'").unwrap();
        let b = canonical_sql("SELECT city FROM orders WHERE City = 'NYC'").unwrap();
        assert_eq!(a, b);
        let c = canonical_sql("SELECT city FROM orders WHERE city = 'nyc'").unwrap();
        assert_ne!(a, c, "string literal contents must stay significant");
    }

    #[test]
    fn literal_spelling_normalises() {
        let a = canonical_sql("SELECT * FROM t WHERE x < 1.50").unwrap();
        let b = canonical_sql("SELECT * FROM t WHERE x < 1.5").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn aliases_joins_and_subqueries_fold() {
        let a = canonical_sql(
            "SELECT O.city AS c, avg(price) FROM Orders O JOIN Items I ON O.id = I.oid \
             WHERE price > (SELECT AVG(Price) FROM Items) GROUP BY O.city",
        )
        .unwrap();
        let b = canonical_sql(
            "select o.city as c, AVG(price) from orders o join items i on o.id = i.oid \
             where price > (select avg(price) from items) group by o.city",
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn projection_alias_case_stays_significant() {
        // `AS ap` vs `AS AP` produce observably different output column
        // names, so they must not share a cache key.
        let a = canonical_sql("SELECT avg(price) AS ap FROM orders").unwrap();
        let b = canonical_sql("SELECT avg(price) AS AP FROM orders").unwrap();
        assert_ne!(a, b);
        // Table aliases, by contrast, are invisible in the output schema.
        let c = canonical_sql("SELECT avg(price) AS ap FROM orders AS O").unwrap();
        let d = canonical_sql("SELECT avg(price) AS ap FROM orders AS o").unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn unaliased_bare_column_case_stays_significant() {
        // `SELECT Price` names its output column "Price"; `SELECT price`
        // names it "price" — different result schemas, different keys.
        let a = canonical_sql("SELECT Price FROM orders").unwrap();
        let b = canonical_sql("SELECT price FROM orders").unwrap();
        assert_ne!(a, b);
        // The same column in a WHERE clause is pure resolution — it folds.
        let c = canonical_sql("SELECT price FROM orders WHERE Price > 1").unwrap();
        let d = canonical_sql("SELECT price FROM orders WHERE price > 1").unwrap();
        assert_eq!(c, d);
        // Unaliased function calls are parser-lowercased, so they fold.
        let e = canonical_sql("SELECT AVG(Price) FROM orders").unwrap();
        let f = canonical_sql("SELECT avg(price) FROM orders").unwrap();
        assert_eq!(e, f);
    }

    #[test]
    fn different_queries_stay_different() {
        let a = canonical_sql("SELECT count(*) FROM orders WHERE price > 10").unwrap();
        let b = canonical_sql("SELECT count(*) FROM orders WHERE price > 11").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn canonical_form_is_a_fixed_point() {
        let once = canonical_sql("Select Sum(X)  From T Group By  y Order by y Desc").unwrap();
        let twice = canonical_sql(&once).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn control_statements_fold_identifier_case() {
        let a = canonical_sql("create scramble S_Orders from Orders method STRATIFIED on City")
            .unwrap();
        let b = canonical_sql("CREATE SCRAMBLE s_orders FROM orders METHOD stratified ON city")
            .unwrap();
        assert_eq!(a, b);
        let a = canonical_sql("refresh scrambles Sales from Sales_Batch").unwrap();
        let b = canonical_sql("REFRESH SCRAMBLES sales FROM sales_batch").unwrap();
        assert_eq!(a, b);
        let a = canonical_sql("SET Target_Error = 0.050").unwrap();
        let b = canonical_sql("set target_error = 0.05").unwrap();
        assert_eq!(a, b);
        let a = canonical_sql("BYPASS select Count(*) from T").unwrap();
        let b = canonical_sql("bypass SELECT count(*) FROM t").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn control_statement_canonical_form_is_a_fixed_point() {
        for sql in [
            "create scramble S from T method HASHED ratio 0.250 on A, B",
            "create scrambles from T",
            "drop scramble if exists S",
            "drop scrambles T",
            "show scrambles",
            "show stats",
            "refresh scrambles T from B",
            "refresh scramble T",
            "bypass insert into S select * from B",
            "set cache = OFF",
            "stream select avg(X) from T",
            "explain select avg(X) from T",
            "explain analyze bypass select count(*) from T",
            "show profile",
            "show profile last 5",
            "show metrics",
            "set slow_query_ms = 250",
        ] {
            let once = canonical_sql(sql).unwrap();
            let twice = canonical_sql(&once).unwrap();
            assert_eq!(once, twice, "not a fixed point for {sql}");
        }
    }
}
