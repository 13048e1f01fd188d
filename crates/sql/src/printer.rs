//! Dialect-aware SQL printer: renders the AST back into SQL text.
//!
//! This is the final step of the paper's Syntax Changer: after the AQP
//! Rewriter has produced a rewritten logical query, the printer emits SQL
//! that the target engine accepts.

use crate::ast::*;
use crate::dialect::Dialect;

/// Renders a statement as SQL text in the given dialect.
pub fn print_statement(stmt: &Statement, dialect: &dyn Dialect) -> String {
    match stmt {
        Statement::Query(q) => print_query(q, dialect),
        Statement::CreateTableAs {
            name,
            query,
            if_not_exists,
        } => {
            let ine = if *if_not_exists { "IF NOT EXISTS " } else { "" };
            format!(
                "CREATE TABLE {ine}{} AS {}",
                print_object_name(name, dialect),
                print_query(query, dialect)
            )
        }
        Statement::DropTable { name, if_exists } => {
            let ie = if *if_exists { "IF EXISTS " } else { "" };
            format!("DROP TABLE {ie}{}", print_object_name(name, dialect))
        }
        Statement::InsertIntoSelect { table, query } => {
            format!(
                "INSERT INTO {} {}",
                print_object_name(table, dialect),
                print_query(query, dialect)
            )
        }
        Statement::CreateScramble {
            name,
            table,
            method,
            ratio,
            on,
        } => {
            let mut s = format!(
                "CREATE SCRAMBLE {} FROM {}",
                print_object_name(name, dialect),
                print_object_name(table, dialect)
            );
            if let Some(m) = method {
                s.push_str(&format!(" METHOD {m}"));
            }
            if let Some(r) = ratio {
                s.push_str(" RATIO ");
                s.push_str(&print_literal(&Literal::Float(*r)));
            }
            if !on.is_empty() {
                let cols: Vec<String> = on.iter().map(|c| dialect.quote_ident(c)).collect();
                s.push_str(&format!(" ON {}", cols.join(", ")));
            }
            s
        }
        Statement::CreateScrambles { table } => {
            format!(
                "CREATE SCRAMBLES FROM {}",
                print_object_name(table, dialect)
            )
        }
        Statement::DropScramble { name, if_exists } => {
            let ie = if *if_exists { "IF EXISTS " } else { "" };
            format!("DROP SCRAMBLE {ie}{}", print_object_name(name, dialect))
        }
        Statement::DropScrambles { table, if_exists } => {
            let ie = if *if_exists { "IF EXISTS " } else { "" };
            format!("DROP SCRAMBLES {ie}{}", print_object_name(table, dialect))
        }
        Statement::RefreshScrambles { table, batch } => {
            let mut s = format!("REFRESH SCRAMBLES {}", print_object_name(table, dialect));
            if let Some(b) = batch {
                s.push_str(&format!(" FROM {}", print_object_name(b, dialect)));
            }
            s
        }
        Statement::Bypass(inner) => format!("BYPASS {}", print_statement(inner, dialect)),
        Statement::SetOption { name, value } => {
            let v = match value {
                SetValue::Literal(l) => print_literal(l),
                SetValue::Ident(w) => w.clone(),
            };
            format!("SET {} = {v}", dialect.quote_ident(name))
        }
        Statement::Stream(q) => format!("STREAM {}", print_query(q, dialect)),
        Statement::Explain { analyze, statement } => format!(
            "EXPLAIN {}{}",
            if *analyze { "ANALYZE " } else { "" },
            print_statement(statement, dialect)
        ),
    }
}

/// Renders a query as SQL text in the given dialect.
pub fn print_query(query: &Query, dialect: &dyn Dialect) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("SELECT ");
    if query.distinct {
        out.push_str("DISTINCT ");
    }
    let items: Vec<String> = query
        .projection
        .iter()
        .map(|item| print_select_item(item, dialect))
        .collect();
    out.push_str(&items.join(", "));

    if !query.from.is_empty() {
        out.push_str(" FROM ");
        let froms: Vec<String> = query
            .from
            .iter()
            .map(|twj| print_table_with_joins(twj, dialect))
            .collect();
        out.push_str(&froms.join(", "));
    }
    if let Some(sel) = &query.selection {
        out.push_str(" WHERE ");
        out.push_str(&print_expr(sel, dialect));
    }
    if !query.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        let gs: Vec<String> = query
            .group_by
            .iter()
            .map(|e| print_expr(e, dialect))
            .collect();
        out.push_str(&gs.join(", "));
    }
    if let Some(h) = &query.having {
        out.push_str(" HAVING ");
        out.push_str(&print_expr(h, dialect));
    }
    if !query.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        let os: Vec<String> = query
            .order_by
            .iter()
            .map(|o| print_order_by_item(o, dialect))
            .collect();
        out.push_str(&os.join(", "));
    }
    if let Some(limit) = query.limit {
        out.push_str(&format!(" LIMIT {limit}"));
    }
    out
}

fn print_order_by_item(item: &OrderByItem, dialect: &dyn Dialect) -> String {
    format!(
        "{}{}",
        print_expr(&item.expr, dialect),
        if item.asc { "" } else { " DESC" }
    )
}

fn print_object_name(name: &ObjectName, dialect: &dyn Dialect) -> String {
    name.0
        .iter()
        .map(|p| dialect.quote_ident(p))
        .collect::<Vec<_>>()
        .join(".")
}

fn print_select_item(item: &SelectItem, dialect: &dyn Dialect) -> String {
    match item {
        SelectItem::Expr(e) => print_expr(e, dialect),
        SelectItem::ExprWithAlias { expr, alias } => {
            format!(
                "{} AS {}",
                print_expr(expr, dialect),
                dialect.quote_ident(alias)
            )
        }
        SelectItem::Wildcard => "*".to_string(),
        SelectItem::QualifiedWildcard(t) => format!("{}.*", dialect.quote_ident(t)),
    }
}

fn print_table_factor(tf: &TableFactor, dialect: &dyn Dialect) -> String {
    match tf {
        TableFactor::Table { name, alias } => {
            let mut s = print_object_name(name, dialect);
            if let Some(a) = alias {
                s.push_str(" AS ");
                s.push_str(&dialect.quote_ident(a));
            }
            s
        }
        TableFactor::Derived { subquery, alias } => {
            let mut s = format!("({})", print_query(subquery, dialect));
            if let Some(a) = alias {
                s.push_str(" AS ");
                s.push_str(&dialect.quote_ident(a));
            }
            s
        }
    }
}

fn print_table_with_joins(twj: &TableWithJoins, dialect: &dyn Dialect) -> String {
    let mut s = print_table_factor(&twj.relation, dialect);
    for join in &twj.joins {
        s.push(' ');
        s.push_str(&join.join_type.to_string());
        s.push(' ');
        s.push_str(&print_table_factor(&join.relation, dialect));
        if let Some(c) = &join.constraint {
            s.push_str(" ON ");
            s.push_str(&print_expr(c, dialect));
        }
    }
    s
}

/// Renders an expression as SQL text in the given dialect.
pub fn print_expr(expr: &Expr, dialect: &dyn Dialect) -> String {
    match expr {
        Expr::Column { table, name } => match table {
            Some(t) => format!("{}.{}", dialect.quote_ident(t), dialect.quote_ident(name)),
            None => dialect.quote_ident(name),
        },
        Expr::Literal(lit) => print_literal(lit),
        Expr::Wildcard => "*".to_string(),
        Expr::BinaryOp { left, op, right } => {
            format!(
                "{} {} {}",
                print_expr(left, dialect),
                op,
                print_expr(right, dialect)
            )
        }
        Expr::UnaryOp { op, expr } => match op {
            UnaryOp::Not => format!("NOT {}", print_expr(expr, dialect)),
            UnaryOp::Minus => format!("-{}", print_expr(expr, dialect)),
            UnaryOp::Plus => format!("+{}", print_expr(expr, dialect)),
        },
        Expr::Function(f) => print_function(f, dialect),
        Expr::Case {
            operand,
            when_then,
            else_expr,
        } => {
            let mut s = String::from("CASE");
            if let Some(op) = operand {
                s.push(' ');
                s.push_str(&print_expr(op, dialect));
            }
            for (w, t) in when_then {
                s.push_str(" WHEN ");
                s.push_str(&print_expr(w, dialect));
                s.push_str(" THEN ");
                s.push_str(&print_expr(t, dialect));
            }
            if let Some(e) = else_expr {
                s.push_str(" ELSE ");
                s.push_str(&print_expr(e, dialect));
            }
            s.push_str(" END");
            s
        }
        Expr::IsNull { expr, negated } => format!(
            "{} IS {}NULL",
            print_expr(expr, dialect),
            if *negated { "NOT " } else { "" }
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let items: Vec<String> = list.iter().map(|e| print_expr(e, dialect)).collect();
            format!(
                "{} {}IN ({})",
                print_expr(expr, dialect),
                if *negated { "NOT " } else { "" },
                items.join(", ")
            )
        }
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => format!(
            "{} {}IN ({})",
            print_expr(expr, dialect),
            if *negated { "NOT " } else { "" },
            print_query(subquery, dialect)
        ),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => format!(
            "{} {}BETWEEN {} AND {}",
            print_expr(expr, dialect),
            if *negated { "NOT " } else { "" },
            print_expr(low, dialect),
            print_expr(high, dialect)
        ),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => format!(
            "{} {}LIKE {}",
            print_expr(expr, dialect),
            if *negated { "NOT " } else { "" },
            print_expr(pattern, dialect)
        ),
        Expr::ScalarSubquery(q) => format!("({})", print_query(q, dialect)),
        Expr::Exists { subquery, negated } => format!(
            "{}EXISTS ({})",
            if *negated { "NOT " } else { "" },
            print_query(subquery, dialect)
        ),
        Expr::Cast { expr, data_type } => {
            format!("CAST({} AS {})", print_expr(expr, dialect), data_type)
        }
        Expr::Nested(e) => format!("({})", print_expr(e, dialect)),
    }
}

fn print_function(f: &FunctionCall, dialect: &dyn Dialect) -> String {
    // Dialect-specific spelling of the random function.
    if f.name == "rand" && f.args.is_empty() && f.over.is_none() {
        return dialect.random_function().to_string();
    }
    let args: Vec<String> = f.args.iter().map(|a| print_expr(a, dialect)).collect();
    let mut s = format!(
        "{}({}{})",
        f.name,
        if f.distinct { "DISTINCT " } else { "" },
        args.join(", ")
    );
    if let Some(w) = &f.over {
        s.push_str(" OVER (");
        if !w.partition_by.is_empty() {
            s.push_str("PARTITION BY ");
            let ps: Vec<String> = w
                .partition_by
                .iter()
                .map(|e| print_expr(e, dialect))
                .collect();
            s.push_str(&ps.join(", "));
        }
        if !w.order_by.is_empty() {
            if !w.partition_by.is_empty() {
                s.push(' ');
            }
            s.push_str("ORDER BY ");
            let os: Vec<String> = w
                .order_by
                .iter()
                .map(|o| print_order_by_item(o, dialect))
                .collect();
            s.push_str(&os.join(", "));
        }
        s.push(')');
    }
    s
}

fn print_literal(lit: &Literal) -> String {
    match lit {
        Literal::Null => "NULL".to_string(),
        Literal::Boolean(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Literal::Integer(i) => i.to_string(),
        Literal::Float(f) => {
            if f.fract() == 0.0 && f.abs() < 1e15 {
                // keep a decimal point so the literal re-parses as a float
                format!("{f:.1}")
            } else {
                format!("{f}")
            }
        }
        Literal::String(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::{GenericDialect, ImpalaDialect, RedshiftDialect};
    use crate::parser::{parse_expression, parse_statement};

    #[test]
    fn prints_simple_query() {
        let stmt =
            parse_statement("select city, count(*) cnt from orders where price > 10 group by city")
                .unwrap();
        let sql = print_statement(&stmt, &GenericDialect);
        assert_eq!(
            sql,
            "SELECT city, count(*) AS cnt FROM orders WHERE price > 10 GROUP BY city"
        );
    }

    #[test]
    fn prints_rand_per_dialect() {
        let e = parse_expression("rand() < 0.01").unwrap();
        assert_eq!(print_expr(&e, &GenericDialect), "rand() < 0.01");
        assert_eq!(print_expr(&e, &RedshiftDialect), "random() < 0.01");
        assert_eq!(print_expr(&e, &ImpalaDialect), "rand() < 0.01");
    }

    #[test]
    fn prints_string_escaping() {
        let e = Expr::string("it's");
        assert_eq!(print_expr(&e, &GenericDialect), "'it''s'");
    }

    #[test]
    fn prints_quoted_identifiers_when_needed() {
        let e = Expr::qcol("vt1", "sub size");
        assert_eq!(print_expr(&e, &GenericDialect), "vt1.`sub size`");
        assert_eq!(print_expr(&e, &RedshiftDialect), "vt1.\"sub size\"");
    }

    #[test]
    fn float_literals_reparse_as_floats() {
        let e = Expr::float(2.0);
        let printed = print_expr(&e, &GenericDialect);
        assert_eq!(printed, "2.0");
        let back = parse_expression(&printed).unwrap();
        assert_eq!(back, Expr::Literal(Literal::Float(2.0)));
    }

    #[test]
    fn prints_window_function() {
        let e = parse_expression("sum(cc) over (partition by l_returnflag)").unwrap();
        assert_eq!(
            print_expr(&e, &GenericDialect),
            "sum(cc) OVER (PARTITION BY l_returnflag)"
        );
    }
}
