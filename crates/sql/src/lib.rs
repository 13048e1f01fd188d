//! # verdict-sql
//!
//! SQL front-end for VerdictDB-rs: a hand-written lexer and recursive-descent
//! parser producing a typed abstract syntax tree (AST), plus a dialect-aware
//! SQL printer and AST visitors.
//!
//! VerdictDB is a *driver-level* middleware: every interaction with the
//! underlying database happens through SQL text.  The middleware therefore
//! needs to (1) parse incoming analytical queries into an AST, (2) rewrite
//! that AST into an approximate-query-processing form, and (3) render the
//! rewritten AST back into the SQL dialect understood by the target engine
//! (the paper's "Syntax Changer").  This crate provides all three pieces and
//! is shared by the engine (`verdict-engine`) and the middleware
//! (`verdict-core`).
//!
//! ## Example
//!
//! ```
//! use verdict_sql::{parse_statement, Statement, dialect::GenericDialect, print_statement};
//!
//! let stmt = parse_statement("SELECT city, count(*) AS cnt FROM orders GROUP BY city").unwrap();
//! assert!(matches!(stmt, Statement::Query(_)));
//! let sql = print_statement(&stmt, &GenericDialect);
//! assert!(sql.contains("GROUP BY"));
//! ```

pub mod ast;
pub mod canonical;
pub mod dialect;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod token;
pub mod visitor;

pub use ast::*;
pub use canonical::{canonical_query, canonical_sql, canonical_statement};
pub use dialect::{Dialect, GenericDialect, ImpalaDialect, RedshiftDialect, SparkSqlDialect};
pub use parser::{parse_expression, parse_statement, parse_statements, ParseError};
pub use printer::{print_expr, print_query, print_statement};

#[cfg(test)]
mod roundtrip_tests {
    use super::*;
    use dialect::GenericDialect;

    fn roundtrip(sql: &str) {
        let stmt = parse_statement(sql).unwrap_or_else(|e| panic!("parse failed for {sql}: {e}"));
        let printed = print_statement(&stmt, &GenericDialect);
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed for {printed}: {e}"));
        let reprinted = print_statement(&reparsed, &GenericDialect);
        assert_eq!(printed, reprinted, "printer not stable for {sql}");
    }

    #[test]
    fn roundtrip_simple_queries() {
        roundtrip("SELECT 1");
        roundtrip("SELECT * FROM t");
        roundtrip("SELECT a, b AS c FROM t WHERE a > 10 AND b < 3.5");
        roundtrip("SELECT count(*) FROM t GROUP BY a HAVING count(*) > 2 ORDER BY a DESC LIMIT 5");
        roundtrip("SELECT sum(x * 2) FROM t1 INNER JOIN t2 ON t1.id = t2.id");
        roundtrip("SELECT * FROM (SELECT a FROM t) AS sub WHERE a IN (1, 2, 3)");
        roundtrip("SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END FROM t");
        roundtrip("SELECT count(*) OVER (PARTITION BY city) FROM t");
        roundtrip("CREATE TABLE s AS SELECT * FROM t WHERE rand() < 0.01");
        roundtrip("DROP TABLE IF EXISTS s");
        roundtrip("SELECT a FROM t WHERE b LIKE '%x%' AND c BETWEEN 1 AND 2");
        roundtrip("SELECT avg(price) FROM orders WHERE price > (SELECT avg(price) FROM orders)");
    }

    #[test]
    fn roundtrip_control_statements() {
        roundtrip("CREATE SCRAMBLE s_orders FROM orders");
        roundtrip("CREATE SCRAMBLE s FROM t METHOD uniform RATIO 0.01");
        roundtrip("CREATE SCRAMBLE s FROM t METHOD stratified RATIO 0.05 ON city, dow");
        roundtrip("CREATE SCRAMBLE s FROM t METHOD hashed ON order_id");
        roundtrip("CREATE SCRAMBLES FROM orders");
        roundtrip("DROP SCRAMBLE s");
        roundtrip("DROP SCRAMBLE IF EXISTS s");
        roundtrip("DROP SCRAMBLES orders");
        roundtrip("DROP SCRAMBLES IF EXISTS orders");
        roundtrip("SHOW SCRAMBLES");
        roundtrip("SHOW STATS");
        roundtrip("REFRESH SCRAMBLES sales");
        roundtrip("REFRESH SCRAMBLES sales FROM sales_batch");
        roundtrip("BYPASS SELECT count(*) AS n FROM t WHERE x > 1");
        roundtrip("BYPASS DROP TABLE IF EXISTS t");
        roundtrip("BYPASS INSERT INTO s SELECT * FROM b");
        roundtrip("SET target_error = 0.05");
        roundtrip("SET cache = off");
        roundtrip("SET label = 'x''y'");
        roundtrip("SET confidence = default");
        roundtrip("STREAM SELECT city, avg(price) AS ap FROM orders GROUP BY city");
    }
}
