//! Comparison-subquery flattening (§2.2 of the paper).
//!
//! A correlated comparison subquery such as
//!
//! ```sql
//! WHERE price > (SELECT avg(price) FROM order_products
//!                WHERE product = t1.product)
//! ```
//!
//! is rewritten into an equi-join against a derived aggregate table grouped
//! by the correlation column, which the AQP rewriter can then approximate
//! like any other join.  Uncorrelated scalar subqueries are left alone (the
//! underlying engine evaluates them directly).

use verdict_sql::ast::*;

/// Flattens every correlated comparison subquery in the WHERE clause that
/// matches the supported pattern; returns the transformed query (other
/// queries — nothing flattened — are returned unchanged, WHERE included).
pub fn flatten_comparison_subqueries(mut query: Query) -> Query {
    let Some(selection) = &query.selection else {
        return query;
    };
    let mut conjuncts: Vec<Expr> = Vec::new();
    let mut extra_joins: Vec<Join> = Vec::new();
    for conj in selection.conjuncts() {
        match conj {
            Expr::BinaryOp { left, op, right } if op.is_comparison() => {
                if let Expr::ScalarSubquery(sub) = right.as_ref() {
                    if let Some(flat) = try_flatten(sub, extra_joins.len()) {
                        extra_joins.push(flat.join);
                        conjuncts.push(Expr::binary((**left).clone(), *op, flat.replacement));
                        continue;
                    }
                }
            }
            _ => {}
        }
        conjuncts.push(conj.clone());
    }
    if extra_joins.is_empty() {
        return query;
    }
    if let Some(first) = query.from.first_mut() {
        first.joins.extend(extra_joins);
    }
    query.selection = Expr::conjoin(conjuncts);
    query
}

struct Flattened {
    join: Join,
    replacement: Expr,
}

/// Attempts to flatten one correlated scalar subquery of the form
/// `SELECT agg(x) FROM inner_table WHERE corr_col = outer_ref [AND other…]`.
fn try_flatten(sub: &Query, counter: usize) -> Option<Flattened> {
    // Single aggregate projection.
    if sub.projection.len() != 1 || !sub.group_by.is_empty() {
        return None;
    }
    let agg_expr = sub.projection[0].expr()?.clone();
    agg_expr.as_aggregate()?;

    // Single base table.
    if sub.from.len() != 1 || !sub.from[0].joins.is_empty() {
        return None;
    }
    let (inner_name, inner_alias) = match &sub.from[0].relation {
        TableFactor::Table { name, alias } => (name.clone(), alias.clone()),
        _ => return None,
    };
    let inner_binding = inner_alias.unwrap_or_else(|| inner_name.base_name().to_string());

    // Find exactly one correlated equality `inner_col = outer_ref`.
    let mut corr: Option<(String, Expr)> = None;
    let mut residual: Vec<Expr> = Vec::new();
    for c in sub.selection.as_ref()?.conjuncts() {
        if corr.is_none() {
            if let Expr::BinaryOp {
                left,
                op: BinaryOp::Eq,
                right,
            } = c
            {
                let classify = |e: &Expr| -> Option<(bool, String, Expr)> {
                    if let Expr::Column { table, name } = e {
                        let is_inner = match table {
                            None => true,
                            Some(t) => t.eq_ignore_ascii_case(&inner_binding),
                        };
                        Some((is_inner, name.clone(), e.clone()))
                    } else {
                        None
                    }
                };
                if let (Some((li, ln, _)), Some((ri, _, re))) = (classify(left), classify(right)) {
                    if li && !ri {
                        corr = Some((ln, re));
                        continue;
                    }
                }
                if let (Some((li, _, le)), Some((ri, rn, _))) = (classify(left), classify(right)) {
                    if ri && !li {
                        corr = Some((rn, le));
                        continue;
                    }
                }
            }
        }
        residual.push(c.clone());
    }
    let (corr_col, outer_ref) = corr?;

    // Build the derived aggregate table grouped by the correlation column.
    let flat_alias = format!("verdict_flat_{counter}");
    let value_alias = format!("verdict_flat_val_{counter}");
    let derived = Query {
        distinct: false,
        projection: vec![
            SelectItem::Expr(Expr::col(corr_col.clone())),
            SelectItem::ExprWithAlias {
                expr: agg_expr,
                alias: value_alias.clone(),
            },
        ],
        from: vec![TableWithJoins {
            relation: TableFactor::Table {
                name: inner_name,
                alias: None,
            },
            joins: Vec::new(),
        }],
        selection: Expr::conjoin(residual),
        group_by: vec![Expr::col(corr_col.clone())],
        having: None,
        order_by: Vec::new(),
        limit: None,
    };

    let join = Join {
        relation: TableFactor::Derived {
            subquery: Box::new(derived),
            alias: Some(flat_alias.clone()),
        },
        join_type: JoinType::Inner,
        constraint: Some(Expr::binary(
            Expr::qcol(flat_alias.clone(), corr_col),
            BinaryOp::Eq,
            outer_ref,
        )),
    };
    Some(Flattened {
        join,
        replacement: Expr::qcol(flat_alias, value_alias),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_sql::printer::print_query;
    use verdict_sql::{parse_statement, GenericDialect};

    fn query(sql: &str) -> Query {
        match parse_statement(sql).unwrap() {
            Statement::Query(q) => *q,
            _ => panic!(),
        }
    }

    #[test]
    fn flattens_the_papers_example() {
        let q = query(
            "SELECT count(*) FROM orders t1 INNER JOIN order_products t2 ON t1.order_id = t2.order_id \
             WHERE t2.price > (SELECT avg(price) FROM order_products WHERE product = t1.product)",
        );
        let flat = flatten_comparison_subqueries(q);
        let sql = print_query(&flat, &GenericDialect);
        assert!(sql.contains("GROUP BY product"), "{sql}");
        assert!(sql.contains("verdict_flat_0"), "{sql}");
        assert!(
            sql.contains("t2.price > verdict_flat_0.verdict_flat_val_0"),
            "{sql}"
        );
        assert!(!sql.to_lowercase().contains("where product ="), "{sql}");
        // the flattened query must re-parse
        verdict_sql::parse_statement(&sql).unwrap();

        // a parenthesised OR, outside and inside the subquery, keeps its
        // parentheses next to the conjuncts flattening adds
        let q = query(
            "SELECT count(*) FROM orders o WHERE (o.city = 'a' OR o.city = 'b') \
             AND o.price > (SELECT avg(price) FROM orders \
             WHERE product = o.product AND (city = 'a' OR price > 2) AND price < 9)",
        );
        let flat = flatten_comparison_subqueries(q);
        let sql = print_query(&flat, &GenericDialect);
        assert!(
            sql.contains("WHERE (o.city = 'a' OR o.city = 'b') AND o.price > verdict_flat_0."),
            "{sql}"
        );
        assert!(
            sql.contains("WHERE (city = 'a' OR price > 2) AND price < 9"),
            "{sql}"
        );
        assert_eq!(query(&sql), flat, "{sql}");
    }

    #[test]
    fn uncorrelated_subqueries_are_left_untouched() {
        for sql in [
            "SELECT count(*) FROM orders WHERE price > (SELECT avg(price) FROM orders)",
            // parenthesised conjuncts keep their parentheses
            "SELECT count(*) FROM orders WHERE (price > 1 AND (city = 'x')) \
             AND price > (SELECT avg(price) FROM orders)",
        ] {
            let q = query(sql);
            assert_eq!(flatten_comparison_subqueries(q.clone()), q, "{sql}");
        }
    }

    #[test]
    fn queries_without_where_are_untouched() {
        let q = query("SELECT count(*) FROM orders");
        assert_eq!(flatten_comparison_subqueries(q.clone()), q);
    }
}
