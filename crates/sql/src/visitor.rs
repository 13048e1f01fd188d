//! AST visitors and mutators used by the AQP rewriter.
//!
//! [`Expr::for_each_child`] and [`Expr::try_for_each_child_mut`] are the one
//! place that knows which expressions an [`Expr`] holds; every walk over an
//! expression tree — here, in canonicalisation, in the engine's aggregate
//! replacement and subquery resolution — recurses through them.  A subquery
//! is not a child: it is a [`Query`], and a caller that needs to look inside
//! one does so explicitly.
//!
//! On top of them:
//! * read-only walkers ([`walk_expr`], [`walk_query`]) that call a closure on
//!   every sub-expression, and
//! * mutators ([`transform_expr`], [`transform_query_tables`]) that rewrite
//!   the tree in place, used to swap base tables for sample tables.

use crate::ast::*;
use std::convert::Infallible;

impl Expr {
    /// Calls `f` on each direct child expression, left to right as written.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::BinaryOp { left, right, .. }
            | Expr::Like {
                expr: left,
                pattern: right,
                ..
            } => {
                f(left);
                f(right);
            }
            Expr::UnaryOp { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::Nested(expr) => f(expr),
            Expr::Function(fc) => {
                fc.args.iter().for_each(&mut f);
                if let Some(w) = &fc.over {
                    w.partition_by.iter().for_each(&mut f);
                    w.order_by.iter().for_each(|o| f(&o.expr));
                }
            }
            Expr::Case {
                operand,
                when_then,
                else_expr,
            } => {
                operand.iter().for_each(|e| f(e));
                for (w, t) in when_then {
                    f(w);
                    f(t);
                }
                else_expr.iter().for_each(|e| f(e));
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::Column { .. }
            | Expr::Literal(_)
            | Expr::Wildcard
            | Expr::ScalarSubquery(_)
            | Expr::Exists { .. } => {}
        }
    }

    /// [`Expr::for_each_child`], mutably, stopping at the first error.
    pub fn try_for_each_child_mut<E>(
        &mut self,
        mut f: impl FnMut(&mut Expr) -> Result<(), E>,
    ) -> Result<(), E> {
        match self {
            Expr::BinaryOp { left, right, .. }
            | Expr::Like {
                expr: left,
                pattern: right,
                ..
            } => {
                f(left)?;
                f(right)
            }
            Expr::UnaryOp { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::Nested(expr) => f(expr),
            Expr::Function(fc) => {
                fc.args.iter_mut().try_for_each(&mut f)?;
                if let Some(w) = &mut fc.over {
                    w.partition_by.iter_mut().try_for_each(&mut f)?;
                    w.order_by.iter_mut().try_for_each(|o| f(&mut o.expr))?;
                }
                Ok(())
            }
            Expr::Case {
                operand,
                when_then,
                else_expr,
            } => {
                operand.iter_mut().try_for_each(|e| f(e))?;
                for (w, t) in when_then {
                    f(w)?;
                    f(t)?;
                }
                else_expr.iter_mut().try_for_each(|e| f(e))
            }
            Expr::InList { expr, list, .. } => {
                f(expr)?;
                list.iter_mut().try_for_each(f)
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr)?;
                f(low)?;
                f(high)
            }
            Expr::Column { .. }
            | Expr::Literal(_)
            | Expr::Wildcard
            | Expr::ScalarSubquery(_)
            | Expr::Exists { .. } => Ok(()),
        }
    }

    /// [`Expr::for_each_child`], mutably.
    pub fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut Expr)) {
        let done: Result<(), Infallible> = self.try_for_each_child_mut(|e| {
            f(e);
            Ok(())
        });
        let Ok(()) = done;
    }
}

/// Calls `f` on `expr` and every sub-expression (pre-order).
pub fn walk_expr(expr: &Expr, f: &mut dyn FnMut(&Expr)) {
    f(expr);
    expr.for_each_child(|child| walk_expr(child, f));
}

/// Calls `f` on every expression appearing anywhere in the query (select
/// list, predicates, group by, having, order by, join constraints), and
/// recursively in derived tables.
pub fn walk_query(query: &Query, f: &mut dyn FnMut(&Expr)) {
    for item in &query.projection {
        if let Some(e) = item.expr() {
            walk_expr(e, f);
        }
    }
    for twj in &query.from {
        walk_table_factor(&twj.relation, f);
        for j in &twj.joins {
            walk_table_factor(&j.relation, f);
            if let Some(c) = &j.constraint {
                walk_expr(c, f);
            }
        }
    }
    if let Some(s) = &query.selection {
        walk_expr(s, f);
    }
    for g in &query.group_by {
        walk_expr(g, f);
    }
    if let Some(h) = &query.having {
        walk_expr(h, f);
    }
    for o in &query.order_by {
        walk_expr(&o.expr, f);
    }
}

fn walk_table_factor(tf: &TableFactor, f: &mut dyn FnMut(&Expr)) {
    if let TableFactor::Derived { subquery, .. } = tf {
        walk_query(subquery, f);
    }
}

/// Collects every base-table name referenced anywhere in the query,
/// including inside derived tables and scalar subqueries in predicates.
pub fn collect_base_tables(query: &Query) -> Vec<ObjectName> {
    let mut out: Vec<ObjectName> = Vec::new();
    for_each_base_table(query, &mut |name| {
        if !out.contains(name) {
            out.push(name.clone());
        }
    });
    out
}

/// Calls `f` on every base-table reference of the query — FROM clauses
/// first (derived tables recursively), then subqueries inside expressions —
/// repeats included.
pub fn for_each_base_table(query: &Query, f: &mut dyn FnMut(&ObjectName)) {
    for twj in &query.from {
        for_each_in_factor(&twj.relation, f);
        for j in &twj.joins {
            for_each_in_factor(&j.relation, f);
        }
    }
    walk_query(query, &mut |e| {
        if let Some(q) = e.subquery() {
            for_each_base_table(q, f);
        }
    });
}

fn for_each_in_factor(tf: &TableFactor, f: &mut dyn FnMut(&ObjectName)) {
    match tf {
        TableFactor::Table { name, .. } => f(name),
        TableFactor::Derived { subquery, .. } => for_each_base_table(subquery, f),
    }
}

/// Rewrites an expression bottom-up, applying `f` to every node after its
/// children have been transformed.
pub fn transform_expr(mut expr: Expr, f: &mut dyn FnMut(Expr) -> Expr) -> Expr {
    transform_in_place(&mut expr, f);
    expr
}

fn transform_in_place(expr: &mut Expr, f: &mut dyn FnMut(Expr) -> Expr) {
    expr.for_each_child_mut(|child| transform_in_place(child, f));
    *expr = f(std::mem::replace(expr, Expr::Wildcard));
}

/// Rewrites every base-table reference in the query's FROM clauses (including
/// derived tables, recursively) through `f`, which maps a table name and its
/// current alias to an optional replacement table factor.
pub fn transform_query_tables(
    query: &mut Query,
    f: &mut dyn FnMut(&ObjectName, Option<&str>) -> Option<TableFactor>,
) {
    for twj in &mut query.from {
        transform_factor(&mut twj.relation, f);
        for j in &mut twj.joins {
            transform_factor(&mut j.relation, f);
        }
    }
}

fn transform_factor(
    tf: &mut TableFactor,
    f: &mut dyn FnMut(&ObjectName, Option<&str>) -> Option<TableFactor>,
) {
    match tf {
        TableFactor::Table { name, alias } => {
            if let Some(replacement) = f(name, alias.as_deref()) {
                *tf = replacement;
            }
        }
        TableFactor::Derived { subquery, .. } => transform_query_tables(subquery, f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn query_of(sql: &str) -> Query {
        match parse_statement(sql).unwrap() {
            Statement::Query(q) => *q,
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn collects_base_tables_from_joins_and_subqueries() {
        let q = query_of(
            "SELECT * FROM orders o JOIN order_products p ON o.order_id = p.order_id \
             WHERE price > (SELECT avg(price) FROM products)",
        );
        let tables = collect_base_tables(&q);
        let keys: Vec<String> = tables.iter().map(|t| t.key()).collect();
        assert_eq!(keys, vec!["orders", "order_products", "products"]);
    }

    #[test]
    fn collects_tables_inside_derived_tables() {
        let q = query_of("SELECT avg(s) FROM (SELECT sum(x) AS s FROM lineitem GROUP BY k) t");
        let tables = collect_base_tables(&q);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].key(), "lineitem");
    }

    #[test]
    fn transform_replaces_table_names() {
        let mut q =
            query_of("SELECT count(*) FROM orders AS o JOIN products ON o.pid = products.pid");
        transform_query_tables(&mut q, &mut |name, alias| {
            if name.key() == "orders" {
                Some(TableFactor::Table {
                    name: ObjectName::bare("orders_sample"),
                    alias: alias.map(|s| s.to_string()),
                })
            } else {
                None
            }
        });
        let tables = collect_base_tables(&q);
        let keys: Vec<String> = tables.iter().map(|t| t.key()).collect();
        assert!(keys.contains(&"orders_sample".to_string()));
        assert!(keys.contains(&"products".to_string()));
        assert!(!keys.contains(&"orders".to_string()));
    }

    #[test]
    fn transform_expr_rewrites_columns() {
        let e = Expr::binary(Expr::col("price"), BinaryOp::Gt, Expr::int(10));
        let out = transform_expr(e, &mut |node| match node {
            Expr::Column { table: None, name } if name == "price" => Expr::qcol("s", "price"),
            other => other,
        });
        assert_eq!(
            out,
            Expr::binary(Expr::qcol("s", "price"), BinaryOp::Gt, Expr::int(10))
        );
    }

    /// The 11 composite variants, each with `child` in every child slot,
    /// and how many slots each has — the spec the traversal is checked
    /// against.  The shapes are parsed, then filled through
    /// `for_each_child_mut`; a slot it missed keeps the placeholder `c`.
    fn composites(child: &Expr) -> Vec<Expr> {
        const SHAPES: [(&str, usize); 11] = [
            ("c + c", 2),
            ("-c", 1),
            ("f(c) OVER (PARTITION BY c ORDER BY c)", 3),
            ("CASE c WHEN c THEN c ELSE c END", 4),
            ("c IS NULL", 1),
            ("c IN (c, c)", 3),
            ("c IN (SELECT x FROM t)", 1),
            ("c BETWEEN c AND c", 3),
            ("c LIKE c", 2),
            ("CAST(c AS DOUBLE)", 1),
            ("(c)", 1),
        ];
        SHAPES
            .iter()
            .map(|(sql, slots)| {
                let mut e = crate::parser::parse_expression(sql).unwrap();
                let mut filled = 0;
                e.for_each_child_mut(|slot| {
                    *slot = child.clone();
                    filled += 1;
                });
                assert_eq!(filled, *slots, "{sql}");
                e
            })
            .collect()
    }

    /// One expression of each of the 16 `Expr` variants (the 5 childless
    /// ones, then the composites over `leaf`).
    fn every_variant(leaf: &Expr) -> Vec<Expr> {
        let sub = || Box::new(query_of("SELECT x FROM t"));
        let mut all = vec![
            leaf.clone(),
            Expr::int(1),
            Expr::Wildcard,
            Expr::ScalarSubquery(sub()),
            Expr::Exists {
                subquery: sub(),
                negated: false,
            },
        ];
        all.extend(composites(leaf));
        all
    }

    /// `all(C(V), …)` for every composite variant C and every variant V.
    fn every_variant_under_every_composite(leaf: &Expr) -> Expr {
        let args = every_variant(leaf).iter().flat_map(composites).collect();
        Expr::func("all", args)
    }

    fn count_columns(e: &Expr, name: &str) -> usize {
        let mut n = 0;
        walk_expr(e, &mut |e| {
            n += matches!(e, Expr::Column { name: c, .. } if c == name) as usize
        });
        n
    }

    #[test]
    fn one_traversal_reaches_every_variant_under_every_composite() {
        let leaf = Expr::qcol("T", "Leaf");
        let fixture = every_variant_under_every_composite(&leaf);
        // 22 child slots across the composites; a variant over `leaf` holds
        // 1 (the column itself) or its slot count of leaves, 23 in all.
        assert_eq!(count_columns(&fixture, "Leaf"), 22 * 23);

        // walk_expr visits every node once: the root, 11 × 16 composites,
        // and in their 22 slots per variant the variant's nodes (1 for the
        // childless five, 1 + slots for a composite: 5 + 11 + 22 = 38).
        let mut nodes = 0;
        walk_expr(&fixture, &mut |_| nodes += 1);
        assert_eq!(nodes, 1 + 11 * 16 + 22 * 38);

        // An identity pass through every mutable slot changes nothing.
        fn touch(e: &mut Expr) {
            e.for_each_child_mut(touch);
        }
        let mut touched = fixture.clone();
        touch(&mut touched);
        let print = |e: &Expr| crate::printer::print_expr(e, &crate::dialect::GenericDialect);
        assert_eq!(print(&touched), print(&fixture));
        assert_eq!(transform_expr(fixture.clone(), &mut |e| e), fixture);

        // Canonicalisation lowers the column wherever it is nested.
        let mut query = query_of("SELECT 1 AS v FROM t");
        query.selection = Some(fixture);
        let lowered = crate::canonical_query(&query).selection.unwrap();
        assert_eq!(count_columns(&lowered, "Leaf"), 0);
        assert_eq!(count_columns(&lowered, "leaf"), 22 * 23);
        let mut qualifiers = 0;
        walk_expr(&lowered, &mut |e| {
            if let Expr::Column { table, .. } = e {
                assert_eq!(table.as_deref(), Some("t"));
                qualifiers += 1;
            }
        });
        assert_eq!(qualifiers, 22 * 23);
    }
}
