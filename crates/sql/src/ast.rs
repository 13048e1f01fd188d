//! Abstract syntax tree for the SQL subset used by VerdictDB-rs.
//!
//! The AST covers the analytical query surface of Table 1 in the paper:
//! aggregates (`count`, `count distinct`, `sum`, `avg`, `min`, `max`, `var`,
//! `stddev`, quantiles), base and derived table sources joined via equi-joins,
//! selection predicates (comparisons, comparison subqueries, `IN`, `LIKE`,
//! `BETWEEN`, boolean connectives), `GROUP BY` / `HAVING` / `ORDER BY` /
//! `LIMIT`, and the window functions the AQP rewriter emits
//! (`count(*) over (partition by …)`, `sum(...) over (...)`).
//!
//! It also covers the DDL/DML VerdictDB needs for sample preparation:
//! `CREATE TABLE … AS SELECT`, `DROP TABLE`, and `INSERT INTO … SELECT`.
//!
//! Finally it covers VerdictDB's own *control statements* (§2.1: "applications
//! interact with VerdictDB exactly as they would with any SQL database"):
//! scramble DDL (`CREATE SCRAMBLE`, `DROP SCRAMBLE[S]`,
//! `REFRESH SCRAMBLE[S]`), the exact-mode escape (`BYPASS <stmt>`), session
//! options (`SET <option> = <value>`), observability
//! (`EXPLAIN [ANALYZE] <stmt>`), and `STREAM <query>`.  These are
//! interpreted by the middleware session layer and never reach the
//! underlying database.  `SHOW SCRAMBLES | STATS | PROFILE [LAST n] |
//! METRICS` is no statement of its own: the parser reads it as a `SELECT`
//! over the middleware's system relations (`verdict_scrambles`, …).

use std::fmt;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A `SELECT` query.
    Query(Box<Query>),
    /// `CREATE TABLE <name> AS <query>` — the only table-creation form the
    /// middleware needs (sample tables are always created from a select).
    CreateTableAs {
        name: ObjectName,
        query: Box<Query>,
        if_not_exists: bool,
    },
    /// `DROP TABLE [IF EXISTS] <name>`.
    DropTable { name: ObjectName, if_exists: bool },
    /// `INSERT INTO <table> <query>` — used for incremental sample maintenance
    /// (Appendix D: appending a freshly-sampled batch into an existing sample).
    InsertIntoSelect {
        table: ObjectName,
        query: Box<Query>,
    },
    /// `CREATE SCRAMBLE <name> FROM <table> [METHOD uniform|stratified|hashed]
    /// [RATIO <r>] [ON <col>, …]` — builds one named sample (scramble) table.
    CreateScramble {
        /// Name of the scramble table to create.
        name: ObjectName,
        /// The base table the scramble is drawn from.
        table: ObjectName,
        /// Sampling method; `None` lets the middleware default to uniform.
        method: Option<ScrambleMethod>,
        /// Sampling ratio τ; `None` uses the configured default.
        ratio: Option<f64>,
        /// Column set for stratified/hashed methods (empty for uniform).
        on: Vec<String>,
    },
    /// `CREATE SCRAMBLES FROM <table>` — applies the default sampling policy
    /// (Appendix F) and builds the recommended scramble set for the table.
    CreateScrambles {
        /// The base table to build recommended scrambles for.
        table: ObjectName,
    },
    /// `DROP SCRAMBLE [IF EXISTS] <name>` — drops one scramble by name.
    DropScramble {
        /// Name of the scramble table to drop.
        name: ObjectName,
        /// Succeed silently when no such scramble exists.
        if_exists: bool,
    },
    /// `DROP SCRAMBLES [IF EXISTS] <table>` — drops every scramble built for
    /// a base table.
    DropScrambles {
        /// The base table whose scrambles are dropped.
        table: ObjectName,
        /// Suppress the error when the table has no scrambles.
        if_exists: bool,
    },
    /// `REFRESH SCRAMBLES <table> [FROM <batch>]` — with `FROM`, folds an
    /// appended batch into every scramble of the base table (Appendix D);
    /// without, rebuilds every scramble from the current base data.
    RefreshScrambles {
        /// The base table whose scrambles are refreshed.
        table: ObjectName,
        /// Batch table holding the newly-appended rows, if incremental.
        batch: Option<ObjectName>,
    },
    /// `BYPASS <statement>` — runs the inner statement exactly on the base
    /// tables, skipping approximate query processing entirely (§2.4).
    Bypass(Box<Statement>),
    /// `SET <option> = <value>` — session-scoped option assignment
    /// (`target_error`, `confidence`, `cache`, `bypass`, …).
    SetOption {
        /// Option name (stored lower-cased).
        name: String,
        /// Assigned value.
        value: SetValue,
    },
    /// `STREAM <query>` — requests a progressively-refined approximate
    /// answer.  The current implementation computes a single fresh
    /// (uncached) approximate answer — the final frame of the stream.
    Stream(Box<Query>),
    /// `EXPLAIN [ANALYZE] <statement>` — without `ANALYZE`, renders the
    /// sampling plan and rewritten SQL without executing; with `ANALYZE`,
    /// executes the inner statement and renders the recorded span tree with
    /// timings and cache/shed/backend/store attribution.
    Explain {
        /// `true` for `EXPLAIN ANALYZE` (execute and report the trace).
        analyze: bool,
        /// The statement being explained.
        statement: Box<Statement>,
    },
}

/// Sampling methods nameable in `CREATE SCRAMBLE … METHOD <m>` (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrambleMethod {
    /// Independent Bernoulli sampling with probability τ.
    Uniform,
    /// Per-stratum minimum-size sampling over the `ON` column set.
    Stratified,
    /// Universe (hash) sampling over the `ON` column set.
    Hashed,
}

impl ScrambleMethod {
    /// Parses a method keyword (case-insensitive).
    pub fn from_keyword(word: &str) -> Option<ScrambleMethod> {
        if word.eq_ignore_ascii_case("uniform") {
            Some(ScrambleMethod::Uniform)
        } else if word.eq_ignore_ascii_case("stratified") {
            Some(ScrambleMethod::Stratified)
        } else if word.eq_ignore_ascii_case("hashed") {
            Some(ScrambleMethod::Hashed)
        } else {
            None
        }
    }
}

impl fmt::Display for ScrambleMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScrambleMethod::Uniform => write!(f, "uniform"),
            ScrambleMethod::Stratified => write!(f, "stratified"),
            ScrambleMethod::Hashed => write!(f, "hashed"),
        }
    }
}

/// The right-hand side of a `SET <option> = <value>` statement: either a SQL
/// literal (`0.05`, `'x'`, `TRUE`) or a bare keyword (`on`, `off`,
/// `default`).
#[derive(Debug, Clone, PartialEq)]
pub enum SetValue {
    /// A literal value.
    Literal(Literal),
    /// A bare identifier such as `on` / `off` / `default`.
    Ident(String),
}

impl fmt::Display for SetValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetValue::Literal(Literal::String(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            SetValue::Literal(Literal::Null) => write!(f, "NULL"),
            SetValue::Literal(Literal::Boolean(b)) => {
                write!(f, "{}", if *b { "TRUE" } else { "FALSE" })
            }
            SetValue::Literal(Literal::Integer(i)) => write!(f, "{i}"),
            SetValue::Literal(Literal::Float(v)) => write!(f, "{v}"),
            SetValue::Ident(w) => write!(f, "{w}"),
        }
    }
}

/// A possibly schema-qualified object (table) name, e.g. `verdict_meta.samples`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectName(pub Vec<String>);

impl ObjectName {
    /// Builds a name from dot-separated parts.
    pub fn new<S: Into<String>>(parts: Vec<S>) -> Self {
        ObjectName(parts.into_iter().map(Into::into).collect())
    }

    /// Builds an unqualified, single-part name.
    pub fn bare<S: Into<String>>(name: S) -> Self {
        ObjectName(vec![name.into()])
    }

    /// The final (table) component of the name.
    pub fn base_name(&self) -> &str {
        self.0.last().map(|s| s.as_str()).unwrap_or("")
    }

    /// Lower-cased dotted rendering used as catalog lookup key.
    pub fn key(&self) -> String {
        self.0
            .iter()
            .map(|s| s.to_ascii_lowercase())
            .collect::<Vec<_>>()
            .join(".")
    }
}

impl fmt::Display for ObjectName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.join("."))
    }
}

/// A full `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `SELECT DISTINCT` flag.
    pub distinct: bool,
    /// Select list.
    pub projection: Vec<SelectItem>,
    /// `FROM` clause; empty for table-less selects like `SELECT 1`.
    pub from: Vec<TableWithJoins>,
    /// `WHERE` predicate.
    pub selection: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderByItem>,
    /// `LIMIT` row count.
    pub limit: Option<u64>,
}

impl Query {
    /// A query with empty clauses, useful as a rewriting scaffold.
    pub fn empty() -> Self {
        Query {
            distinct: false,
            projection: Vec::new(),
            from: Vec::new(),
            selection: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        }
    }
}

/// One item of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// A bare expression, e.g. `price * qty`.
    Expr(Expr),
    /// An aliased expression, e.g. `count(*) AS cnt`.
    ExprWithAlias { expr: Expr, alias: String },
    /// `*`.
    Wildcard,
    /// `t.*`.
    QualifiedWildcard(String),
}

impl SelectItem {
    /// The expression carried by this item, if any.
    pub fn expr(&self) -> Option<&Expr> {
        match self {
            SelectItem::Expr(e) | SelectItem::ExprWithAlias { expr: e, .. } => Some(e),
            _ => None,
        }
    }

    /// [`SelectItem::expr`], mutably.
    pub fn expr_mut(&mut self) -> Option<&mut Expr> {
        match self {
            SelectItem::Expr(e) | SelectItem::ExprWithAlias { expr: e, .. } => Some(e),
            _ => None,
        }
    }

    /// The output alias, if explicitly given.
    pub fn alias(&self) -> Option<&str> {
        match self {
            SelectItem::ExprWithAlias { alias, .. } => Some(alias.as_str()),
            _ => None,
        }
    }
}

/// A relation in the `FROM` clause together with its joins.
#[derive(Debug, Clone, PartialEq)]
pub struct TableWithJoins {
    pub relation: TableFactor,
    pub joins: Vec<Join>,
}

/// A base table or a derived table (subquery).
#[derive(Debug, Clone, PartialEq)]
pub enum TableFactor {
    /// A base table reference with an optional alias.
    Table {
        name: ObjectName,
        alias: Option<String>,
    },
    /// A derived table: `(SELECT …) AS alias`.
    Derived {
        subquery: Box<Query>,
        alias: Option<String>,
    },
}

/// A join clause attached to a preceding relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub relation: TableFactor,
    pub join_type: JoinType,
    /// `ON` condition; `None` for a cross join.
    pub constraint: Option<Expr>,
}

/// The supported join types. VerdictDB only approximates equi inner joins;
/// the others are parsed so unsupported queries can be passed through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    Left,
    Right,
    Cross,
}

impl fmt::Display for JoinType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinType::Inner => write!(f, "INNER JOIN"),
            JoinType::Left => write!(f, "LEFT JOIN"),
            JoinType::Right => write!(f, "RIGHT JOIN"),
            JoinType::Cross => write!(f, "CROSS JOIN"),
        }
    }
}

/// One `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    pub expr: Expr,
    pub asc: bool,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Plus,
    Minus,
    Multiply,
    Divide,
    Modulo,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    /// String concatenation (`||`).
    Concat,
}

impl BinaryOp {
    /// True for the six comparison operators.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Multiply => "*",
            BinaryOp::Divide => "/",
            BinaryOp::Modulo => "%",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Concat => "||",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Not,
    Minus,
    Plus,
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Null,
    Boolean(bool),
    Integer(i64),
    Float(f64),
    String(String),
}

/// Window specification for window (analytic) functions.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSpec {
    pub partition_by: Vec<Expr>,
    pub order_by: Vec<OrderByItem>,
}

/// Scalar / aggregate / window function call.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionCall {
    /// Function name, stored lower-cased.
    pub name: String,
    /// Arguments; `count(*)` is represented by a single [`Expr::Wildcard`] argument.
    pub args: Vec<Expr>,
    /// `DISTINCT` flag (only meaningful for aggregates).
    pub distinct: bool,
    /// `OVER (…)` clause for window functions.
    pub over: Option<WindowSpec>,
}

/// SQL scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference, optionally qualified with a table alias.
    Column { table: Option<String>, name: String },
    /// Literal value.
    Literal(Literal),
    /// `*` (only valid inside `count(*)` and select lists).
    Wildcard,
    /// Binary operation.
    BinaryOp {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    /// Unary operation.
    UnaryOp { op: UnaryOp, expr: Box<Expr> },
    /// Function call (scalar, aggregate, or window).
    Function(FunctionCall),
    /// `CASE [operand] WHEN … THEN … [ELSE …] END`.
    Case {
        operand: Option<Box<Expr>>,
        when_then: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr [NOT] IN (e1, e2, …)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT …)`. Parsed but not approximated by VerdictDB.
    InSubquery {
        expr: Box<Expr>,
        subquery: Box<Query>,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// A scalar subquery, e.g. `price > (SELECT avg(price) FROM t)`.
    ScalarSubquery(Box<Query>),
    /// `EXISTS (SELECT …)`. Parsed so unsupported queries can be detected and passed through.
    Exists { subquery: Box<Query>, negated: bool },
    /// `CAST(expr AS type)`.
    Cast {
        expr: Box<Expr>,
        data_type: CastType,
    },
    /// Parenthesised expression (kept so the printer can reproduce grouping faithfully).
    Nested(Box<Expr>),
}

/// Target types for `CAST`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastType {
    Integer,
    Double,
    Varchar,
    Boolean,
}

impl fmt::Display for CastType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CastType::Integer => write!(f, "BIGINT"),
            CastType::Double => write!(f, "DOUBLE"),
            CastType::Varchar => write!(f, "VARCHAR"),
            CastType::Boolean => write!(f, "BOOLEAN"),
        }
    }
}

impl Expr {
    /// Convenience constructor for an unqualified column reference.
    pub fn col<S: Into<String>>(name: S) -> Expr {
        Expr::Column {
            table: None,
            name: name.into(),
        }
    }

    /// Convenience constructor for a table-qualified column reference.
    pub fn qcol<T: Into<String>, S: Into<String>>(table: T, name: S) -> Expr {
        Expr::Column {
            table: Some(table.into()),
            name: name.into(),
        }
    }

    /// Convenience constructor for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Integer(v))
    }

    /// Convenience constructor for a float literal.
    pub fn float(v: f64) -> Expr {
        Expr::Literal(Literal::Float(v))
    }

    /// Convenience constructor for a string literal.
    pub fn string<S: Into<String>>(v: S) -> Expr {
        Expr::Literal(Literal::String(v.into()))
    }

    /// Convenience constructor for a binary operation.
    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::BinaryOp {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    /// `left AND right`, treating `None` as absent.
    pub fn and_opt(left: Option<Expr>, right: Option<Expr>) -> Option<Expr> {
        match (left, right) {
            (Some(l), Some(r)) => Some(Expr::binary(l, BinaryOp::And, r)),
            (Some(l), None) => Some(l),
            (None, Some(r)) => Some(r),
            (None, None) => None,
        }
    }

    /// The AND of `conjuncts`, left-nested; `None` when there are none.
    pub fn conjoin(conjuncts: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        conjuncts
            .into_iter()
            .reduce(|a, b| Expr::binary(a, BinaryOp::And, b))
    }

    /// The AND-ed conjuncts of a predicate, looking through parentheses
    /// around an AND: `a AND (b AND c)` yields `[a, b, c]`.  Any other
    /// parenthesised conjunct keeps its parentheses, so `(a OR b)` printed
    /// next to another conjunct still reads as one.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::BinaryOp {
                left,
                op: BinaryOp::And,
                right,
            } => {
                let mut out = left.conjuncts();
                out.extend(right.conjuncts());
                out
            }
            Expr::Nested(e)
                if matches!(
                    e.unnested(),
                    Expr::BinaryOp {
                        op: BinaryOp::And,
                        ..
                    }
                ) =>
            {
                e.conjuncts()
            }
            other => vec![other],
        }
    }

    /// The expression inside any parentheses around it.
    pub fn unnested(&self) -> &Expr {
        match self {
            Expr::Nested(e) => e.unnested(),
            other => other,
        }
    }

    /// The query of a scalar, `IN` or `EXISTS` subquery.
    pub fn subquery(&self) -> Option<&Query> {
        match self {
            Expr::ScalarSubquery(q)
            | Expr::InSubquery { subquery: q, .. }
            | Expr::Exists { subquery: q, .. } => Some(q),
            _ => None,
        }
    }

    /// True for a call of the nondeterministic `rand()` / `random()`.
    pub fn is_rand(&self) -> bool {
        matches!(self, Expr::Function(f)
            if f.name.eq_ignore_ascii_case("rand") || f.name.eq_ignore_ascii_case("random"))
    }

    /// Convenience constructor for a non-distinct function call without a window.
    pub fn func<S: Into<String>>(name: S, args: Vec<Expr>) -> Expr {
        Expr::Function(FunctionCall {
            name: name.into().to_ascii_lowercase(),
            args,
            distinct: false,
            over: None,
        })
    }

    /// Returns the function call if this expression is a call to an aggregate function.
    pub fn as_aggregate(&self) -> Option<&FunctionCall> {
        match self {
            Expr::Function(f) if f.over.is_none() && is_aggregate_function(&f.name) => Some(f),
            _ => None,
        }
    }

    /// True when the expression tree contains an aggregate function call
    /// (outside of a window specification).
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        crate::visitor::walk_expr(self, &mut |e| {
            if e.as_aggregate().is_some() {
                found = true;
            }
        });
        found
    }
}

/// The aggregate functions understood by the engine and the AQP rewriter.
pub const AGGREGATE_FUNCTIONS: &[&str] = &[
    "count",
    "sum",
    "avg",
    "min",
    "max",
    "stddev",
    "stddev_samp",
    "variance",
    "var_samp",
    "median",
    "quantile",
    "percentile",
    "approx_count_distinct",
    "ndv",
    "approx_median",
];

/// True when `name` (already lower-cased or not) is an aggregate function.
pub fn is_aggregate_function(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    AGGREGATE_FUNCTIONS.iter().any(|f| *f == lower)
}

/// True for "extreme statistics" (min/max) which VerdictDB never approximates (§2.2).
pub fn is_extreme_aggregate(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower == "min" || lower == "max"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_name_key_is_lowercased() {
        let n = ObjectName::new(vec!["Verdict_Meta", "Samples"]);
        assert_eq!(n.key(), "verdict_meta.samples");
        assert_eq!(n.base_name(), "Samples");
    }

    #[test]
    fn aggregate_detection() {
        assert!(is_aggregate_function("COUNT"));
        assert!(is_aggregate_function("stddev"));
        assert!(!is_aggregate_function("floor"));
        assert!(is_extreme_aggregate("MAX"));
        assert!(!is_extreme_aggregate("sum"));
    }

    #[test]
    fn contains_aggregate_walks_nested_expressions() {
        let e = Expr::binary(
            Expr::func("sum", vec![Expr::col("x")]),
            BinaryOp::Divide,
            Expr::func("count", vec![Expr::Wildcard]),
        );
        assert!(e.contains_aggregate());
        let plain = Expr::binary(Expr::col("x"), BinaryOp::Plus, Expr::int(1));
        assert!(!plain.contains_aggregate());
    }

    #[test]
    fn and_opt_combines_predicates() {
        let a = Expr::binary(Expr::col("a"), BinaryOp::Gt, Expr::int(1));
        let b = Expr::binary(Expr::col("b"), BinaryOp::Lt, Expr::int(2));
        let combined = Expr::and_opt(Some(a.clone()), Some(b)).unwrap();
        assert!(matches!(
            combined,
            Expr::BinaryOp {
                op: BinaryOp::And,
                ..
            }
        ));
        assert_eq!(Expr::and_opt(Some(a.clone()), None), Some(a));
        assert_eq!(Expr::and_opt(None, None), None);
    }
}
