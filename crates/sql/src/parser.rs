//! Recursive-descent SQL parser.
//!
//! The parser consumes the tokens produced by [`crate::lexer`] and builds the
//! AST defined in [`crate::ast`].  Operator precedence follows standard SQL:
//! `OR` < `AND` < `NOT` < comparison / `IN` / `LIKE` / `BETWEEN` / `IS` <
//! additive < multiplicative < unary < primary.

use crate::ast::*;
use crate::lexer::{tokenize, LexError};
use crate::token::{SpannedToken, Token};
use std::fmt;

/// An error produced while parsing SQL.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            offset: e.offset,
        }
    }
}

/// Parses a single SQL statement (a trailing semicolon is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement, ParseError> {
    let mut stmts = parse_statements(sql)?;
    match stmts.len() {
        1 => Ok(stmts.remove(0)),
        0 => Err(ParseError {
            message: "empty statement".into(),
            offset: 0,
        }),
        _ => Err(ParseError {
            message: "expected a single statement".into(),
            offset: 0,
        }),
    }
}

/// Parses a semicolon-separated list of statements.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>, ParseError> {
    let tokens = tokenize(sql)?;
    let mut parser = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    loop {
        while parser.peek() == &Token::Semicolon {
            parser.advance();
        }
        if parser.peek() == &Token::Eof {
            break;
        }
        out.push(parser.parse_statement()?);
    }
    Ok(out)
}

/// Parses a standalone scalar expression (useful in tests and rewriters).
pub fn parse_expression(sql: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(sql)?;
    let mut parser = Parser { tokens, pos: 0 };
    let expr = parser.parse_expr()?;
    parser.expect_eof()?;
    Ok(expr)
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn peek_ahead(&self, n: usize) -> &Token {
        let idx = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[idx].token
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            offset: self.offset(),
        })
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.peek() == &Token::Eof || self.peek() == &Token::Semicolon {
            Ok(())
        } else {
            Err(ParseError {
                message: format!("unexpected trailing token {}", self.peek()),
                offset: self.offset(),
            })
        }
    }

    fn consume_keyword(&mut self, kw: &str) -> bool {
        if self.peek().is_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.consume_keyword(kw) {
            Ok(())
        } else {
            self.error(format!("expected keyword {kw}, found {}", self.peek()))
        }
    }

    fn consume_token(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_token(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.consume_token(t) {
            Ok(())
        } else {
            self.error(format!("expected {t}, found {}", self.peek()))
        }
    }

    fn parse_identifier(&mut self) -> Result<String, ParseError> {
        match self.advance() {
            Token::Word(w) => Ok(w),
            Token::QuotedIdent(w) => Ok(w),
            other => Err(ParseError {
                message: format!("expected identifier, found {other}"),
                offset: self.offset(),
            }),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn parse_statement(&mut self) -> Result<Statement, ParseError> {
        if self.peek().is_keyword("select") || self.peek() == &Token::LParen {
            let q = self.parse_query()?;
            self.skip_statement_end()?;
            return Ok(Statement::Query(Box::new(q)));
        }
        if self.peek().is_keyword("create") {
            if self.peek_ahead(1).is_keyword("scramble")
                || self.peek_ahead(1).is_keyword("scrambles")
            {
                return self.parse_create_scramble();
            }
            return self.parse_create_table_as();
        }
        if self.peek().is_keyword("drop") {
            if self.peek_ahead(1).is_keyword("scramble")
                || self.peek_ahead(1).is_keyword("scrambles")
            {
                return self.parse_drop_scramble();
            }
            return self.parse_drop_table();
        }
        if self.peek().is_keyword("insert") {
            return self.parse_insert();
        }
        if self.peek().is_keyword("show") {
            return self.parse_show();
        }
        if self.peek().is_keyword("refresh") {
            return self.parse_refresh_scrambles();
        }
        if self.peek().is_keyword("bypass") {
            return self.parse_bypass();
        }
        if self.peek().is_keyword("set") {
            return self.parse_set_option();
        }
        if self.peek().is_keyword("stream") {
            self.advance();
            let q = self.parse_query()?;
            self.skip_statement_end()?;
            return Ok(Statement::Stream(Box::new(q)));
        }
        if self.peek().is_keyword("explain") {
            return self.parse_explain();
        }
        self.error(format!(
            "unsupported statement starting with {}",
            self.peek()
        ))
    }

    fn skip_statement_end(&mut self) -> Result<(), ParseError> {
        if self.peek() == &Token::Semicolon || self.peek() == &Token::Eof {
            while self.peek() == &Token::Semicolon {
                self.advance();
            }
            Ok(())
        } else {
            self.error(format!("unexpected token after statement: {}", self.peek()))
        }
    }

    fn parse_object_name(&mut self) -> Result<ObjectName, ParseError> {
        let mut parts = vec![self.parse_identifier()?];
        while self.consume_token(&Token::Dot) {
            parts.push(self.parse_identifier()?);
        }
        Ok(ObjectName(parts))
    }

    fn parse_create_table_as(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("create")?;
        self.expect_keyword("table")?;
        let mut if_not_exists = false;
        if self.peek().is_keyword("if") {
            self.advance();
            self.expect_keyword("not")?;
            self.expect_keyword("exists")?;
            if_not_exists = true;
        }
        let name = self.parse_object_name()?;
        self.expect_keyword("as")?;
        let query = self.parse_query()?;
        self.skip_statement_end()?;
        Ok(Statement::CreateTableAs {
            name,
            query: Box::new(query),
            if_not_exists,
        })
    }

    fn parse_drop_table(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("drop")?;
        self.expect_keyword("table")?;
        let mut if_exists = false;
        if self.peek().is_keyword("if") {
            self.advance();
            self.expect_keyword("exists")?;
            if_exists = true;
        }
        let name = self.parse_object_name()?;
        self.skip_statement_end()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn parse_insert(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("insert")?;
        self.expect_keyword("into")?;
        let table = self.parse_object_name()?;
        // Only INSERT INTO ... SELECT is supported (sample maintenance).
        let query = self.parse_query()?;
        self.skip_statement_end()?;
        Ok(Statement::InsertIntoSelect {
            table,
            query: Box::new(query),
        })
    }

    // ------------------------------------------------------------------
    // VerdictDB control statements
    // ------------------------------------------------------------------

    /// `CREATE SCRAMBLE <name> FROM <table> [METHOD m] [RATIO r] [ON c, …]`
    /// and `CREATE SCRAMBLES FROM <table>` (recommended-policy set).  The
    /// optional clauses are accepted in any order; the printer emits them in
    /// the canonical METHOD → RATIO → ON order.
    fn parse_create_scramble(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("create")?;
        if self.consume_keyword("scrambles") {
            self.expect_keyword("from")?;
            let table = self.parse_object_name()?;
            self.skip_statement_end()?;
            return Ok(Statement::CreateScrambles { table });
        }
        self.expect_keyword("scramble")?;
        let name = self.parse_object_name()?;
        self.expect_keyword("from")?;
        let table = self.parse_object_name()?;
        let mut method = None;
        let mut ratio = None;
        let mut on = Vec::new();
        loop {
            if self.consume_keyword("method") {
                if method.is_some() {
                    return self.error("duplicate METHOD clause");
                }
                let word = self.parse_identifier()?;
                method = match ScrambleMethod::from_keyword(&word) {
                    Some(m) => Some(m),
                    None => {
                        return self.error(format!(
                            "unknown scramble method {word} (uniform|stratified|hashed)"
                        ));
                    }
                };
            } else if self.consume_keyword("ratio") {
                if ratio.is_some() {
                    return self.error("duplicate RATIO clause");
                }
                ratio = Some(self.parse_f64("RATIO")?);
            } else if self.consume_keyword("on") {
                if !on.is_empty() {
                    return self.error("duplicate ON clause");
                }
                loop {
                    on.push(self.parse_identifier()?);
                    if !self.consume_token(&Token::Comma) {
                        break;
                    }
                }
            } else {
                break;
            }
        }
        self.skip_statement_end()?;
        Ok(Statement::CreateScramble {
            name,
            table,
            method,
            ratio,
            on,
        })
    }

    /// `DROP SCRAMBLE [IF EXISTS] <name>` / `DROP SCRAMBLES [IF EXISTS] <table>`.
    fn parse_drop_scramble(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("drop")?;
        let plural = self.consume_keyword("scrambles");
        if !plural {
            self.expect_keyword("scramble")?;
        }
        let mut if_exists = false;
        if self.peek().is_keyword("if") {
            self.advance();
            self.expect_keyword("exists")?;
            if_exists = true;
        }
        let name = self.parse_object_name()?;
        self.skip_statement_end()?;
        Ok(if plural {
            Statement::DropScrambles {
                table: name,
                if_exists,
            }
        } else {
            Statement::DropScramble { name, if_exists }
        })
    }

    /// `SHOW SCRAMBLES | STATS | METRICS` reads as `SELECT * FROM
    /// verdict_<x>`; `SHOW PROFILE [LAST n]` as `SELECT * FROM verdict_traces
    /// ORDER BY seq DESC LIMIT n` (n = 10 by default).
    fn parse_show(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("show")?;
        let sql = if self.consume_keyword("profile") {
            let last = if self.consume_keyword("last") {
                self.parse_count("LAST")?
            } else {
                10
            };
            format!("SELECT * FROM verdict_traces ORDER BY seq DESC LIMIT {last}")
        } else if let Some(relation) = ["scrambles", "stats", "metrics"]
            .into_iter()
            .find(|k| self.consume_keyword(k))
        {
            format!("SELECT * FROM verdict_{relation}")
        } else {
            return self.error(format!(
                "expected SCRAMBLES, STATS, PROFILE or METRICS, found {}",
                self.peek()
            ));
        };
        self.skip_statement_end()?;
        parse_statement(&sql)
    }

    /// The non-negative integer after `LIMIT` / `LAST`.
    fn parse_count(&mut self, clause: &str) -> Result<u64, ParseError> {
        match self.advance() {
            Token::Number(n) => n.parse().map_err(|_| ParseError {
                message: format!("invalid {clause} value {n}"),
                offset: self.offset(),
            }),
            other => self.error(format!("expected number after {clause}, found {other}")),
        }
    }

    /// `EXPLAIN [ANALYZE] <statement>` — the inner statement may be any
    /// statement except another `EXPLAIN` (no nesting).
    fn parse_explain(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("explain")?;
        let analyze = self.consume_keyword("analyze");
        let offset = self.offset();
        let inner = self.parse_statement()?;
        if matches!(inner, Statement::Explain { .. }) {
            return Err(ParseError {
                message: "EXPLAIN cannot be nested".into(),
                offset,
            });
        }
        Ok(Statement::Explain {
            analyze,
            statement: Box::new(inner),
        })
    }

    /// `REFRESH SCRAMBLE[S] <table> [FROM <batch>]`.
    fn parse_refresh_scrambles(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("refresh")?;
        if !self.consume_keyword("scrambles") {
            self.expect_keyword("scramble")?;
        }
        let table = self.parse_object_name()?;
        let batch = if self.consume_keyword("from") {
            Some(self.parse_object_name()?)
        } else {
            None
        };
        self.skip_statement_end()?;
        Ok(Statement::RefreshScrambles { table, batch })
    }

    /// `BYPASS <statement>` — the inner statement must be a plain SQL
    /// statement (query, `CREATE TABLE AS`, `DROP TABLE`, `INSERT`): control
    /// statements cannot be bypassed to the underlying database.
    fn parse_bypass(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("bypass")?;
        let offset = self.offset();
        let show = self.peek().is_keyword("show");
        let inner = self.parse_statement()?;
        match inner {
            Statement::Query(_)
            | Statement::CreateTableAs { .. }
            | Statement::DropTable { .. }
            | Statement::InsertIntoSelect { .. }
                if !show =>
            {
                Ok(Statement::Bypass(Box::new(inner)))
            }
            _ => Err(ParseError {
                message: "BYPASS requires a plain SQL statement, not a control statement".into(),
                offset,
            }),
        }
    }

    /// `SET <option> = <value>` where value is a literal or a bare keyword
    /// (`on`, `off`, `default`).
    fn parse_set_option(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("set")?;
        let name = self.parse_identifier()?.to_ascii_lowercase();
        self.expect_token(&Token::Eq)?;
        let negative = self.consume_token(&Token::Minus);
        let value = match self.advance() {
            Token::Number(n) => {
                let lit = if n.contains(['.', 'e', 'E']) {
                    Literal::Float(n.parse().map_err(|_| ParseError {
                        message: format!("invalid number {n}"),
                        offset: self.offset(),
                    })?)
                } else {
                    Literal::Integer(n.parse().map_err(|_| ParseError {
                        message: format!("invalid number {n}"),
                        offset: self.offset(),
                    })?)
                };
                let lit = if negative {
                    match lit {
                        Literal::Integer(i) => Literal::Integer(-i),
                        Literal::Float(f) => Literal::Float(-f),
                        other => other,
                    }
                } else {
                    lit
                };
                SetValue::Literal(lit)
            }
            Token::StringLit(s) if !negative => SetValue::Literal(Literal::String(s)),
            Token::Word(w) if !negative => {
                if w.eq_ignore_ascii_case("true") {
                    SetValue::Literal(Literal::Boolean(true))
                } else if w.eq_ignore_ascii_case("false") {
                    SetValue::Literal(Literal::Boolean(false))
                } else if w.eq_ignore_ascii_case("null") {
                    SetValue::Literal(Literal::Null)
                } else {
                    SetValue::Ident(w.to_ascii_lowercase())
                }
            }
            other => {
                return self.error(format!("expected SET value, found {other}"));
            }
        };
        self.skip_statement_end()?;
        Ok(Statement::SetOption { name, value })
    }

    /// Parses a numeric token (int or float spelling) as an `f64`.
    fn parse_f64(&mut self, clause: &str) -> Result<f64, ParseError> {
        match self.advance() {
            Token::Number(n) => n.parse().map_err(|_| ParseError {
                message: format!("invalid {clause} value {n}"),
                offset: self.offset(),
            }),
            other => self.error(format!("expected number after {clause}, found {other}")),
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    fn parse_query(&mut self) -> Result<Query, ParseError> {
        // Allow a parenthesised query at the top level.
        if self.peek() == &Token::LParen && self.peek_ahead(1).is_keyword("select") {
            self.advance();
            let q = self.parse_query()?;
            self.expect_token(&Token::RParen)?;
            return Ok(q);
        }
        self.expect_keyword("select")?;
        let distinct = self.consume_keyword("distinct");
        let projection = self.parse_projection()?;

        let mut query = Query {
            distinct,
            projection,
            from: Vec::new(),
            selection: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        };

        if self.consume_keyword("from") {
            loop {
                query.from.push(self.parse_table_with_joins()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
        }
        if self.consume_keyword("where") {
            query.selection = Some(self.parse_expr()?);
        }
        if self.peek().is_keyword("group") {
            self.advance();
            self.expect_keyword("by")?;
            loop {
                query.group_by.push(self.parse_expr()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
        }
        if self.consume_keyword("having") {
            query.having = Some(self.parse_expr()?);
        }
        if self.peek().is_keyword("order") {
            self.advance();
            self.expect_keyword("by")?;
            loop {
                let expr = self.parse_expr()?;
                let asc = if self.consume_keyword("desc") {
                    false
                } else {
                    self.consume_keyword("asc");
                    true
                };
                query.order_by.push(OrderByItem { expr, asc });
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
        }
        if self.consume_keyword("limit") {
            query.limit = Some(self.parse_count("LIMIT")?);
        }
        Ok(query)
    }

    fn parse_projection(&mut self) -> Result<Vec<SelectItem>, ParseError> {
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.consume_token(&Token::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.peek() == &Token::Star {
            self.advance();
            return Ok(SelectItem::Wildcard);
        }
        // qualified wildcard: ident.*
        if matches!(self.peek(), Token::Word(_) | Token::QuotedIdent(_))
            && self.peek_ahead(1) == &Token::Dot
            && self.peek_ahead(2) == &Token::Star
        {
            let table = self.parse_identifier()?;
            self.advance(); // dot
            self.advance(); // star
            return Ok(SelectItem::QualifiedWildcard(table));
        }
        let expr = self.parse_expr()?;
        if self.consume_keyword("as") {
            let alias = self.parse_identifier()?;
            return Ok(SelectItem::ExprWithAlias { expr, alias });
        }
        // implicit alias: `expr ident` (but not when the next word is a clause keyword)
        if let Token::Word(w) = self.peek() {
            if !is_reserved_after_expr(w) {
                let alias = self.parse_identifier()?;
                return Ok(SelectItem::ExprWithAlias { expr, alias });
            }
        }
        if let Token::QuotedIdent(_) = self.peek() {
            let alias = self.parse_identifier()?;
            return Ok(SelectItem::ExprWithAlias { expr, alias });
        }
        Ok(SelectItem::Expr(expr))
    }

    // ------------------------------------------------------------------
    // FROM clause
    // ------------------------------------------------------------------

    fn parse_table_with_joins(&mut self) -> Result<TableWithJoins, ParseError> {
        let relation = self.parse_table_factor()?;
        let mut joins = Vec::new();
        loop {
            let join_type = if self.peek().is_keyword("inner") {
                self.advance();
                self.expect_keyword("join")?;
                JoinType::Inner
            } else if self.peek().is_keyword("join") {
                self.advance();
                JoinType::Inner
            } else if self.peek().is_keyword("left") {
                self.advance();
                self.consume_keyword("outer");
                self.expect_keyword("join")?;
                JoinType::Left
            } else if self.peek().is_keyword("right") {
                self.advance();
                self.consume_keyword("outer");
                self.expect_keyword("join")?;
                JoinType::Right
            } else if self.peek().is_keyword("cross") {
                self.advance();
                self.expect_keyword("join")?;
                JoinType::Cross
            } else {
                break;
            };
            let relation = self.parse_table_factor()?;
            let constraint = if self.consume_keyword("on") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            joins.push(Join {
                relation,
                join_type,
                constraint,
            });
        }
        Ok(TableWithJoins { relation, joins })
    }

    fn parse_table_factor(&mut self) -> Result<TableFactor, ParseError> {
        if self.peek() == &Token::LParen {
            self.advance();
            let subquery = self.parse_query()?;
            self.expect_token(&Token::RParen)?;
            let alias = self.parse_optional_table_alias()?;
            return Ok(TableFactor::Derived {
                subquery: Box::new(subquery),
                alias,
            });
        }
        let name = self.parse_object_name()?;
        let alias = self.parse_optional_table_alias()?;
        Ok(TableFactor::Table { name, alias })
    }

    fn parse_optional_table_alias(&mut self) -> Result<Option<String>, ParseError> {
        if self.consume_keyword("as") {
            return Ok(Some(self.parse_identifier()?));
        }
        if let Token::Word(w) = self.peek() {
            if !is_reserved_after_table(w) {
                return Ok(Some(self.parse_identifier()?));
            }
        }
        if let Token::QuotedIdent(_) = self.peek() {
            return Ok(Some(self.parse_identifier()?));
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.peek().is_keyword("or") {
            self.advance();
            let right = self.parse_and()?;
            left = Expr::binary(left, BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_not()?;
        while self.peek().is_keyword("and") {
            self.advance();
            let right = self.parse_not()?;
            left = Expr::binary(left, BinaryOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if self.peek().is_keyword("not") && !self.peek_ahead(1).is_keyword("exists") {
            self.advance();
            let inner = self.parse_not()?;
            return Ok(Expr::UnaryOp {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let left = self.parse_additive()?;
        // IS [NOT] NULL
        if self.peek().is_keyword("is") {
            self.advance();
            let negated = self.consume_keyword("not");
            self.expect_keyword("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] IN / LIKE / BETWEEN
        let mut negated = false;
        if self.peek().is_keyword("not")
            && (self.peek_ahead(1).is_keyword("in")
                || self.peek_ahead(1).is_keyword("like")
                || self.peek_ahead(1).is_keyword("between"))
        {
            self.advance();
            negated = true;
        }
        if self.peek().is_keyword("in") {
            self.advance();
            self.expect_token(&Token::LParen)?;
            if self.peek().is_keyword("select") {
                let subquery = self.parse_query()?;
                self.expect_token(&Token::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    subquery: Box::new(subquery),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
            self.expect_token(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.peek().is_keyword("like") {
            self.advance();
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.peek().is_keyword("between") {
            self.advance();
            let low = self.parse_additive()?;
            self.expect_keyword("and")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        // plain comparison
        let op = match self.peek() {
            Token::Eq => Some(BinaryOp::Eq),
            Token::Neq => Some(BinaryOp::NotEq),
            Token::Lt => Some(BinaryOp::Lt),
            Token::LtEq => Some(BinaryOp::LtEq),
            Token::Gt => Some(BinaryOp::Gt),
            Token::GtEq => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(Expr::binary(left, op, right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinaryOp::Plus,
                Token::Minus => BinaryOp::Minus,
                Token::Concat => BinaryOp::Concat,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinaryOp::Multiply,
                Token::Slash => BinaryOp::Divide,
                Token::Percent => BinaryOp::Modulo,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Token::Minus => {
                self.advance();
                let inner = self.parse_unary()?;
                Ok(Expr::UnaryOp {
                    op: UnaryOp::Minus,
                    expr: Box::new(inner),
                })
            }
            Token::Plus => {
                self.advance();
                let inner = self.parse_unary()?;
                Ok(Expr::UnaryOp {
                    op: UnaryOp::Plus,
                    expr: Box::new(inner),
                })
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Token::Number(n) => {
                self.advance();
                if n.contains('.') || n.contains('e') || n.contains('E') {
                    let v: f64 = n.parse().map_err(|_| ParseError {
                        message: format!("invalid number {n}"),
                        offset: self.offset(),
                    })?;
                    Ok(Expr::Literal(Literal::Float(v)))
                } else {
                    match n.parse::<i64>() {
                        Ok(v) => Ok(Expr::Literal(Literal::Integer(v))),
                        Err(_) => {
                            let v: f64 = n.parse().map_err(|_| ParseError {
                                message: format!("invalid number {n}"),
                                offset: self.offset(),
                            })?;
                            Ok(Expr::Literal(Literal::Float(v)))
                        }
                    }
                }
            }
            Token::StringLit(s) => {
                self.advance();
                Ok(Expr::Literal(Literal::String(s)))
            }
            Token::Star => {
                self.advance();
                Ok(Expr::Wildcard)
            }
            Token::LParen => {
                self.advance();
                if self.peek().is_keyword("select") {
                    let q = self.parse_query()?;
                    self.expect_token(&Token::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(q)));
                }
                let inner = self.parse_expr()?;
                self.expect_token(&Token::RParen)?;
                Ok(Expr::Nested(Box::new(inner)))
            }
            Token::Word(w) => {
                // literals and special forms
                if w.eq_ignore_ascii_case("null") {
                    self.advance();
                    return Ok(Expr::Literal(Literal::Null));
                }
                if w.eq_ignore_ascii_case("true") {
                    self.advance();
                    return Ok(Expr::Literal(Literal::Boolean(true)));
                }
                if w.eq_ignore_ascii_case("false") {
                    self.advance();
                    return Ok(Expr::Literal(Literal::Boolean(false)));
                }
                if w.eq_ignore_ascii_case("case") {
                    return self.parse_case();
                }
                if w.eq_ignore_ascii_case("cast") {
                    return self.parse_cast();
                }
                if w.eq_ignore_ascii_case("exists") {
                    self.advance();
                    self.expect_token(&Token::LParen)?;
                    let q = self.parse_query()?;
                    self.expect_token(&Token::RParen)?;
                    return Ok(Expr::Exists {
                        subquery: Box::new(q),
                        negated: false,
                    });
                }
                if w.eq_ignore_ascii_case("not") && self.peek_ahead(1).is_keyword("exists") {
                    self.advance();
                    self.advance();
                    self.expect_token(&Token::LParen)?;
                    let q = self.parse_query()?;
                    self.expect_token(&Token::RParen)?;
                    return Ok(Expr::Exists {
                        subquery: Box::new(q),
                        negated: true,
                    });
                }
                if w.eq_ignore_ascii_case("interval") {
                    return self.parse_interval();
                }
                // function call?
                if self.peek_ahead(1) == &Token::LParen {
                    return self.parse_function(w.to_ascii_lowercase());
                }
                self.parse_column_ref()
            }
            Token::QuotedIdent(_) => self.parse_column_ref(),
            other => self.error(format!("unexpected token in expression: {other}")),
        }
    }

    /// Parses `INTERVAL 'n' unit` (as in TPC-H date arithmetic) into the
    /// equivalent number of days as an integer literal; the engine stores
    /// dates as integer day numbers, so interval arithmetic stays closed
    /// over integers.
    fn parse_interval(&mut self) -> Result<Expr, ParseError> {
        self.advance(); // INTERVAL
        let amount = match self.advance() {
            Token::StringLit(s) => s,
            Token::Number(n) => n,
            other => {
                return self.error(format!("expected interval amount, found {other}"));
            }
        };
        let value: f64 = amount.trim().parse().map_err(|_| ParseError {
            message: format!("invalid interval amount {amount}"),
            offset: self.offset(),
        })?;
        let unit = self.parse_identifier()?.to_ascii_lowercase();
        let days = match unit.as_str() {
            "day" | "days" => value,
            "month" | "months" => value * 30.0,
            "year" | "years" => value * 365.0,
            other => {
                return self.error(format!("unsupported interval unit {other}"));
            }
        };
        Ok(Expr::Literal(Literal::Integer(days.round() as i64)))
    }

    fn parse_column_ref(&mut self) -> Result<Expr, ParseError> {
        let first = self.parse_identifier()?;
        if self.peek() == &Token::Dot {
            self.advance();
            let second = self.parse_identifier()?;
            Ok(Expr::Column {
                table: Some(first),
                name: second,
            })
        } else {
            Ok(Expr::Column {
                table: None,
                name: first,
            })
        }
    }

    fn parse_function(&mut self, name: String) -> Result<Expr, ParseError> {
        self.advance(); // name
        self.expect_token(&Token::LParen)?;
        let mut distinct = false;
        let mut args = Vec::new();
        if self.peek() != &Token::RParen {
            distinct = self.consume_keyword("distinct");
            loop {
                args.push(self.parse_expr()?);
                if !self.consume_token(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect_token(&Token::RParen)?;
        let over = if self.peek().is_keyword("over") {
            self.advance();
            self.expect_token(&Token::LParen)?;
            let mut partition_by = Vec::new();
            let mut order_by = Vec::new();
            if self.peek().is_keyword("partition") {
                self.advance();
                self.expect_keyword("by")?;
                loop {
                    partition_by.push(self.parse_expr()?);
                    if !self.consume_token(&Token::Comma) {
                        break;
                    }
                }
            }
            if self.peek().is_keyword("order") {
                self.advance();
                self.expect_keyword("by")?;
                loop {
                    let expr = self.parse_expr()?;
                    let asc = if self.consume_keyword("desc") {
                        false
                    } else {
                        self.consume_keyword("asc");
                        true
                    };
                    order_by.push(OrderByItem { expr, asc });
                    if !self.consume_token(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect_token(&Token::RParen)?;
            Some(WindowSpec {
                partition_by,
                order_by,
            })
        } else {
            None
        };
        Ok(Expr::Function(FunctionCall {
            name,
            args,
            distinct,
            over,
        }))
    }

    fn parse_case(&mut self) -> Result<Expr, ParseError> {
        self.advance(); // CASE
        let operand = if !self.peek().is_keyword("when") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        let mut when_then = Vec::new();
        while self.consume_keyword("when") {
            let cond = self.parse_expr()?;
            self.expect_keyword("then")?;
            let value = self.parse_expr()?;
            when_then.push((cond, value));
        }
        let else_expr = if self.consume_keyword("else") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_keyword("end")?;
        if when_then.is_empty() {
            return self.error("CASE expression requires at least one WHEN branch");
        }
        Ok(Expr::Case {
            operand,
            when_then,
            else_expr,
        })
    }

    fn parse_cast(&mut self) -> Result<Expr, ParseError> {
        self.advance(); // CAST
        self.expect_token(&Token::LParen)?;
        let expr = self.parse_expr()?;
        self.expect_keyword("as")?;
        let ty_name = self.parse_identifier()?.to_ascii_lowercase();
        // swallow optional precision like VARCHAR(20) / DECIMAL(10, 2)
        if self.consume_token(&Token::LParen) {
            while self.peek() != &Token::RParen && self.peek() != &Token::Eof {
                self.advance();
            }
            self.expect_token(&Token::RParen)?;
        }
        self.expect_token(&Token::RParen)?;
        let data_type = match ty_name.as_str() {
            "int" | "integer" | "bigint" | "smallint" | "tinyint" => CastType::Integer,
            "double" | "float" | "real" | "decimal" | "numeric" => CastType::Double,
            "varchar" | "char" | "string" | "text" => CastType::Varchar,
            "boolean" | "bool" => CastType::Boolean,
            other => {
                return self.error(format!("unsupported cast target type {other}"));
            }
        };
        Ok(Expr::Cast {
            expr: Box::new(expr),
            data_type,
        })
    }
}

/// Keywords that terminate an implicit select-item alias.
fn is_reserved_after_expr(word: &str) -> bool {
    const RESERVED: &[&str] = &[
        "from", "where", "group", "having", "order", "limit", "union", "inner", "left", "right",
        "cross", "join", "on", "as", "and", "or", "not", "when", "then", "else", "end", "asc",
        "desc", "between", "like", "in", "is", "over",
    ];
    RESERVED.iter().any(|k| word.eq_ignore_ascii_case(k))
}

/// Keywords that terminate an implicit table alias.
fn is_reserved_after_table(word: &str) -> bool {
    const RESERVED: &[&str] = &[
        "where", "group", "having", "order", "limit", "union", "inner", "left", "right", "cross",
        "join", "on", "as", "and", "or", "not",
    ];
    RESERVED.iter().any(|k| word.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_projection_aliases() {
        let stmt = parse_statement("SELECT a AS x, b y, count(*) cnt FROM t").unwrap();
        let Statement::Query(q) = stmt else { panic!() };
        assert_eq!(q.projection.len(), 3);
        assert_eq!(q.projection[0].alias(), Some("x"));
        assert_eq!(q.projection[1].alias(), Some("y"));
        assert_eq!(q.projection[2].alias(), Some("cnt"));
    }

    #[test]
    fn parses_joins_with_on() {
        let stmt = parse_statement(
            "SELECT * FROM orders o INNER JOIN order_products p ON o.order_id = p.order_id \
             LEFT JOIN products pr ON p.product_id = pr.product_id",
        )
        .unwrap();
        let Statement::Query(q) = stmt else { panic!() };
        assert_eq!(q.from.len(), 1);
        assert_eq!(q.from[0].joins.len(), 2);
        assert_eq!(q.from[0].joins[0].join_type, JoinType::Inner);
        assert_eq!(q.from[0].joins[1].join_type, JoinType::Left);
    }

    #[test]
    fn parses_group_by_having_order_limit() {
        let stmt = parse_statement(
            "SELECT city, sum(price) FROM orders GROUP BY city HAVING sum(price) > 100 \
             ORDER BY sum(price) DESC LIMIT 10",
        )
        .unwrap();
        let Statement::Query(q) = stmt else { panic!() };
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].asc);
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn parses_derived_table() {
        let stmt = parse_statement(
            "SELECT avg(sales) FROM (SELECT city, sum(price) AS sales FROM orders GROUP BY city) AS t",
        )
        .unwrap();
        let Statement::Query(q) = stmt else { panic!() };
        match &q.from[0].relation {
            TableFactor::Derived { alias, .. } => assert_eq!(alias.as_deref(), Some("t")),
            other => panic!("expected derived table, got {other:?}"),
        }
    }

    #[test]
    fn parses_scalar_subquery_comparison() {
        let stmt = parse_statement(
            "SELECT * FROM order_products WHERE price > (SELECT avg(price) FROM order_products)",
        )
        .unwrap();
        let Statement::Query(q) = stmt else { panic!() };
        match q.selection.unwrap() {
            Expr::BinaryOp { right, .. } => {
                assert!(matches!(*right, Expr::ScalarSubquery(_)));
            }
            other => panic!("unexpected selection {other:?}"),
        }
    }

    #[test]
    fn parses_window_function() {
        let e = parse_expression("sum(cnt) OVER (PARTITION BY city, sid)").unwrap();
        let Expr::Function(f) = e else { panic!() };
        assert_eq!(f.name, "sum");
        assert_eq!(f.over.unwrap().partition_by.len(), 2);
    }

    #[test]
    fn parses_case_when() {
        let e = parse_expression(
            "CASE WHEN strata_size > 2000 THEN 0.01 WHEN strata_size > 1900 THEN 0.012 ELSE 1 END",
        )
        .unwrap();
        let Expr::Case {
            when_then,
            else_expr,
            ..
        } = e
        else {
            panic!()
        };
        assert_eq!(when_then.len(), 2);
        assert!(else_expr.is_some());
    }

    #[test]
    fn parses_count_distinct() {
        let e = parse_expression("count(DISTINCT order_id)").unwrap();
        let Expr::Function(f) = e else { panic!() };
        assert!(f.distinct);
        assert_eq!(f.name, "count");
    }

    #[test]
    fn parses_ddl_statements() {
        let s = parse_statement("CREATE TABLE s AS SELECT * FROM t WHERE rand() < 0.01").unwrap();
        assert!(matches!(s, Statement::CreateTableAs { .. }));
        let s = parse_statement("DROP TABLE IF EXISTS verdict_meta.samples").unwrap();
        assert!(matches!(
            s,
            Statement::DropTable {
                if_exists: true,
                ..
            }
        ));
        let s = parse_statement("INSERT INTO s SELECT * FROM t2").unwrap();
        assert!(matches!(s, Statement::InsertIntoSelect { .. }));
    }

    #[test]
    fn parses_in_like_between() {
        let e =
            parse_expression("a IN (1, 2, 3) AND b LIKE '%x%' AND c NOT BETWEEN 1 AND 5").unwrap();
        // top-level is AND of ANDs; just ensure it parses and contains expected variants
        let printed = format!("{e:?}");
        assert!(printed.contains("InList"));
        assert!(printed.contains("Like"));
        assert!(printed.contains("Between"));
    }

    #[test]
    fn parses_exists_subquery() {
        let e = parse_expression("EXISTS (SELECT 1 FROM t WHERE t.a = 1)").unwrap();
        assert!(matches!(e, Expr::Exists { negated: false, .. }));
        let e = parse_expression("NOT EXISTS (SELECT 1 FROM t)").unwrap();
        assert!(matches!(e, Expr::Exists { negated: true, .. }));
    }

    #[test]
    fn parses_interval_literal_to_days() {
        let e = parse_expression("o_orderdate + INTERVAL '3' month").unwrap();
        let Expr::BinaryOp { right, .. } = e else {
            panic!()
        };
        assert_eq!(*right, Expr::Literal(Literal::Integer(90)));
    }

    #[test]
    fn parses_multiple_statements() {
        let stmts = parse_statements("SELECT 1; SELECT 2; DROP TABLE IF EXISTS t;").unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn parses_create_scramble_with_all_clauses() {
        let s = parse_statement(
            "CREATE SCRAMBLE s_orders FROM orders METHOD stratified RATIO 0.05 ON city, dow",
        )
        .unwrap();
        let Statement::CreateScramble {
            name,
            table,
            method,
            ratio,
            on,
        } = s
        else {
            panic!()
        };
        assert_eq!(name.base_name(), "s_orders");
        assert_eq!(table.base_name(), "orders");
        assert_eq!(method, Some(ScrambleMethod::Stratified));
        assert_eq!(ratio, Some(0.05));
        assert_eq!(on, vec!["city".to_string(), "dow".to_string()]);
    }

    #[test]
    fn parses_create_scramble_clauses_in_any_order() {
        let a = parse_statement("CREATE SCRAMBLE s FROM t ON k RATIO 0.1 METHOD hashed").unwrap();
        let b = parse_statement("CREATE SCRAMBLE s FROM t METHOD hashed RATIO 0.1 ON k").unwrap();
        assert_eq!(a, b);
        assert!(parse_statement("CREATE SCRAMBLE s FROM t METHOD bogus").is_err());
        assert!(parse_statement("CREATE SCRAMBLE s FROM t RATIO 0.1 RATIO 0.2").is_err());
    }

    #[test]
    fn parses_create_scrambles_recommended_set() {
        let s = parse_statement("CREATE SCRAMBLES FROM orders").unwrap();
        assert!(
            matches!(s, Statement::CreateScrambles { ref table } if table.base_name() == "orders")
        );
    }

    #[test]
    fn parses_drop_scramble_singular_and_plural() {
        let s = parse_statement("DROP SCRAMBLE IF EXISTS verdict_sample_orders_uniform").unwrap();
        assert!(matches!(
            s,
            Statement::DropScramble {
                if_exists: true,
                ..
            }
        ));
        let s = parse_statement("DROP SCRAMBLES orders").unwrap();
        assert!(matches!(
            s,
            Statement::DropScrambles {
                if_exists: false,
                ..
            }
        ));
    }

    #[test]
    fn parses_show_refresh_and_stream() {
        assert_eq!(
            parse_statement("SHOW SCRAMBLES").unwrap(),
            parse_statement("SELECT * FROM verdict_scrambles").unwrap()
        );
        assert_eq!(
            parse_statement("show stats;").unwrap(),
            parse_statement("SELECT * FROM verdict_stats").unwrap()
        );
        let s = parse_statement("REFRESH SCRAMBLES sales FROM sales_batch").unwrap();
        let Statement::RefreshScrambles { table, batch } = s else {
            panic!()
        };
        assert_eq!(table.base_name(), "sales");
        assert_eq!(batch.unwrap().base_name(), "sales_batch");
        // Singular spelling and full-rebuild form (no FROM).
        let s = parse_statement("REFRESH SCRAMBLE sales").unwrap();
        assert!(matches!(s, Statement::RefreshScrambles { batch: None, .. }));
        let s = parse_statement("STREAM SELECT avg(x) FROM t").unwrap();
        assert!(matches!(s, Statement::Stream(_)));
    }

    #[test]
    fn parses_explain_show_profile_and_show_metrics() {
        let s = parse_statement("EXPLAIN SELECT avg(x) FROM t").unwrap();
        let Statement::Explain { analyze, statement } = s else {
            panic!()
        };
        assert!(!analyze);
        assert!(matches!(*statement, Statement::Query(_)));
        let s = parse_statement("explain analyze bypass select 1").unwrap();
        assert!(matches!(s, Statement::Explain { analyze: true, .. }));
        // EXPLAIN wraps any statement, including STREAM, but never another
        // EXPLAIN.
        let s = parse_statement("EXPLAIN STREAM SELECT avg(x) FROM t").unwrap();
        let Statement::Explain { statement, .. } = s else {
            panic!()
        };
        assert!(matches!(*statement, Statement::Stream(_)));
        assert!(parse_statement("EXPLAIN EXPLAIN SELECT 1").is_err());
        let last_10 =
            parse_statement("SELECT * FROM verdict_traces ORDER BY seq DESC LIMIT 10").unwrap();
        assert_eq!(parse_statement("SHOW PROFILE").unwrap(), last_10);
        assert_eq!(parse_statement("show profile last 10;").unwrap(), last_10);
        assert!(parse_statement("SHOW PROFILE LAST").is_err());
        assert!(parse_statement("SHOW PROFILE LAST x").is_err());
        assert_eq!(
            parse_statement("SHOW METRICS").unwrap(),
            parse_statement("SELECT * FROM verdict_metrics").unwrap()
        );
    }

    #[test]
    fn parses_bypass_of_plain_statements_only() {
        let s = parse_statement("BYPASS SELECT count(*) FROM t").unwrap();
        let Statement::Bypass(inner) = s else {
            panic!()
        };
        assert!(matches!(*inner, Statement::Query(_)));
        let s = parse_statement("BYPASS INSERT INTO t SELECT * FROM b").unwrap();
        assert!(matches!(s, Statement::Bypass(_)));
        // Control statements cannot be bypassed.
        assert!(parse_statement("BYPASS SHOW STATS").is_err());
        assert!(parse_statement("BYPASS BYPASS SELECT 1").is_err());
    }

    #[test]
    fn parses_set_option_values() {
        let s = parse_statement("SET target_error = 0.05").unwrap();
        assert_eq!(
            s,
            Statement::SetOption {
                name: "target_error".into(),
                value: SetValue::Literal(Literal::Float(0.05)),
            }
        );
        let s = parse_statement("SET Bypass = ON").unwrap();
        assert_eq!(
            s,
            Statement::SetOption {
                name: "bypass".into(),
                value: SetValue::Ident("on".into()),
            }
        );
        let s = parse_statement("SET parallelism = 4").unwrap();
        assert!(matches!(
            s,
            Statement::SetOption {
                value: SetValue::Literal(Literal::Integer(4)),
                ..
            }
        ));
        let s = parse_statement("SET target_error = default").unwrap();
        assert!(matches!(
            s,
            Statement::SetOption {
                value: SetValue::Ident(ref w),
                ..
            } if w == "default"
        ));
        assert!(parse_statement("SET target_error 0.05").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_statement("SELEC 1").is_err());
        assert!(parse_statement("SELECT FROM WHERE").is_err());
        assert!(parse_statement("").is_err());
    }

    #[test]
    fn parses_nested_parentheses_precedence() {
        let e = parse_expression("(a + b) * c").unwrap();
        let Expr::BinaryOp { left, op, .. } = e else {
            panic!()
        };
        assert_eq!(op, BinaryOp::Multiply);
        assert!(matches!(*left, Expr::Nested(_)));
    }

    #[test]
    fn parses_cast() {
        let e = parse_expression("CAST(x AS DOUBLE) + CAST(y AS BIGINT)").unwrap();
        let printed = format!("{e:?}");
        assert!(printed.contains("Double"));
        assert!(printed.contains("Integer"));
    }
}
