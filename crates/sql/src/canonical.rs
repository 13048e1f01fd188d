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
    let mut stmt = parse_statement(sql)?;
    lower_statement(&mut stmt);
    Ok(print_statement(&stmt, &GenericDialect))
}

/// Returns a copy of the statement with every identifier folded to lower
/// case (object names, column references, table aliases, function names) —
/// except projection aliases, which name the output columns the caller sees
/// and therefore stay case-significant.
pub fn canonical_statement(stmt: &Statement) -> Statement {
    let mut stmt = stmt.clone();
    lower_statement(&mut stmt);
    stmt
}

/// [`canonical_statement`] for a bare query.
pub fn canonical_query(query: &Query) -> Query {
    let mut query = query.clone();
    lower_query(&mut query);
    query
}

fn lower_statement(stmt: &mut Statement) {
    match stmt {
        Statement::Query(q) | Statement::Stream(q) => lower_query(q),
        Statement::CreateTableAs { name, query, .. }
        | Statement::InsertIntoSelect { table: name, query } => {
            lower_name(name);
            lower_query(query);
        }
        Statement::CreateScramble {
            name, table, on, ..
        } => {
            lower_name(name);
            lower_name(table);
            on.iter_mut().for_each(|c| c.make_ascii_lowercase());
        }
        Statement::DropTable { name: table, .. }
        | Statement::CreateScrambles { table }
        | Statement::DropScramble { name: table, .. }
        | Statement::DropScrambles { table, .. } => lower_name(table),
        Statement::RefreshScrambles { table, batch } => {
            lower_name(table);
            batch.iter_mut().for_each(lower_name);
        }
        Statement::Bypass(inner)
        | Statement::Explain {
            statement: inner, ..
        } => lower_statement(inner),
        // The parser already lower-cases both; fold again so hand-constructed
        // ASTs canonicalise identically.
        Statement::SetOption { name, value } => {
            name.make_ascii_lowercase();
            if let SetValue::Ident(w) = value {
                w.make_ascii_lowercase();
            }
        }
    }
}

fn lower_name(name: &mut ObjectName) {
    name.0.iter_mut().for_each(|p| p.make_ascii_lowercase());
}

fn lower_opt(ident: &mut Option<String>) {
    if let Some(s) = ident {
        s.make_ascii_lowercase();
    }
}

fn lower_query(query: &mut Query) {
    for item in &mut query.projection {
        match item {
            // An unaliased bare column's original case becomes the output
            // column name (the middleware's answer assembly clones it
            // verbatim), so like an explicit alias it stays case-significant;
            // only the table qualifier folds.  Function names are
            // parser-lowercased already and other unaliased expressions get
            // positional `col_N` names, so full canonicalisation is safe for
            // them.
            SelectItem::Expr(Expr::Column { table, .. }) => lower_opt(table),
            // Projection aliases determine the *output column names* the
            // caller sees (the executor preserves their case), so folding them
            // would conflate queries with observably different result schemas
            // — the alias keeps its case and stays significant in the key.
            SelectItem::Expr(e) | SelectItem::ExprWithAlias { expr: e, .. } => lower_expr(e),
            SelectItem::Wildcard => {}
            // A qualified wildcard's qualifier is a table binding, not an
            // output name — safe to fold like any other identifier.
            SelectItem::QualifiedWildcard(t) => t.make_ascii_lowercase(),
        }
    }
    for twj in &mut query.from {
        lower_factor(&mut twj.relation);
        for j in &mut twj.joins {
            lower_factor(&mut j.relation);
            j.constraint.iter_mut().for_each(lower_expr);
        }
    }
    let order_by = query.order_by.iter_mut().map(|o| &mut o.expr);
    let exprs = query.selection.iter_mut().chain(&mut query.group_by);
    exprs
        .chain(&mut query.having)
        .chain(order_by)
        .for_each(lower_expr);
}

fn lower_factor(tf: &mut TableFactor) {
    match tf {
        TableFactor::Table { name, alias } => {
            lower_name(name);
            lower_opt(alias);
        }
        TableFactor::Derived { subquery, alias } => {
            lower_query(subquery);
            lower_opt(alias);
        }
    }
}

fn lower_expr(expr: &mut Expr) {
    match expr {
        Expr::Column { table, name } => {
            lower_opt(table);
            name.make_ascii_lowercase();
        }
        Expr::Function(f) => f.name.make_ascii_lowercase(),
        Expr::ScalarSubquery(q)
        | Expr::InSubquery { subquery: q, .. }
        | Expr::Exists { subquery: q, .. } => lower_query(q),
        _ => {}
    }
    expr.for_each_child_mut(lower_expr);
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
