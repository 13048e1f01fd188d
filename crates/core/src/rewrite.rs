//! The AQP Rewriter: VerdictDB's core query transformation (§4 and §5).
//!
//! Given an analytical query and a sample plan, the rewriter produces new SQL
//! that — executed by any standard relational engine — returns, for every
//! (output group, subsample id) cell, an *unbiased per-subsample estimate* of
//! each mean-like aggregate plus the cell size.  The Answer Rewriter
//! ([`crate::answer`]) then combines those cells into the final approximate
//! answer and its error bounds, exactly as variational subsampling prescribes
//! (Definition 1 and Theorem 2).
//!
//! The rewrite follows the paper's Query 9 pattern:
//!
//! * each sampled relation is wrapped in a derived table that assigns every
//!   tuple a random subsample id `sid ∈ [1, b]` (the *variational table* of
//!   Definition 1; with the default `ns = n/b` no tuple is discarded);
//! * joins of two variational tables reassign `sid` with the pairing function
//!   `h(i, j)` of Theorem 4, so a single join plus a projection produces the
//!   variational table of the join;
//! * per-subsample estimates are Horvitz–Thompson style: they divide by the
//!   sampling-probability column every sample table carries, and re-scale by
//!   the group's total sample size via a window function;
//! * aggregates are split into three classes — mean-like (variational
//!   subsampling), count-distinct (scaled estimate on a hashed sample), and
//!   extreme statistics (`min`/`max`, always computed exactly on the base
//!   tables) — mirroring the decomposition described in §2.2.

use crate::answer::AnswerProgram;
use crate::config::VerdictConfig;
use crate::error::{VerdictError, VerdictResult};
use crate::planner::{JoinColumn, SamplePlan, TableRef};
use crate::sample::{SampleMeta, SampleType, SAMPLING_PROB_COLUMN, SUBSAMPLE_DRAW_COLUMN};
use std::collections::HashMap;
use verdict_sql::ast::*;
use verdict_sql::dialect::GenericDialect;
use verdict_sql::printer::print_expr;
use verdict_sql::visitor::{transform_query_tables, walk_expr};

/// How an aggregate is approximated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggClass {
    /// count / sum / avg / variance / stddev / median / quantile — estimated
    /// with variational subsampling.
    MeanLike,
    /// count(distinct …) — estimated from a hashed (universe) sample.
    Distinct,
    /// min / max — never approximated; computed exactly on base tables.
    Extreme,
}

/// One distinct aggregate call appearing in the query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSpec {
    /// Index used to name the estimate column (`verdict_est_<index>` etc.).
    pub index: usize,
    /// The original call.
    pub call: FunctionCall,
    /// Approximation class.
    pub class: AggClass,
}

/// One column of the final (user-visible) result.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputColumn {
    /// The i-th GROUP BY expression.
    GroupKey {
        /// Position in the GROUP BY list.
        index: usize,
        /// User-visible column name.
        name: String,
    },
    /// An expression over aggregate calls (possibly a bare aggregate).
    Aggregate {
        /// The output expression in terms of aggregate calls.
        expr: Expr,
        /// User-visible column name.
        name: String,
    },
}

impl OutputColumn {
    /// The user-visible column name.
    pub fn name(&self) -> &str {
        match self {
            OutputColumn::GroupKey { name, .. } | OutputColumn::Aggregate { name, .. } => name,
        }
    }
}

/// Everything the rewriter and answer rewriter need to know about a query.
#[derive(Debug, Clone)]
pub struct QueryAnalysis {
    /// The original query.
    pub query: Query,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// The distinct aggregate calls.
    pub aggregates: Vec<AggregateSpec>,
    /// The final output columns, in order.
    pub output: Vec<OutputColumn>,
    /// Base tables referenced in the FROM clause (alias → info).
    pub tables: Vec<QueryTable>,
    /// The column-to-column equalities among the top-level conjuncts of the
    /// JOIN … ON conditions and the WHERE clause.
    pub join_equalities: Vec<(JoinColumn, JoinColumn)>,
    /// HAVING predicate (applied by the answer rewriter).
    pub having: Option<Expr>,
    /// ORDER BY items (applied by the answer rewriter).
    pub order_by: Vec<OrderByItem>,
    /// LIMIT (applied by the answer rewriter).
    pub limit: Option<u64>,
}

/// One base-table reference in the FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTable {
    /// Binding name the query refers to the table by.
    pub alias: String,
    /// The underlying base-table name.
    pub table: String,
}

impl QueryAnalysis {
    /// Bare (unqualified, lower-cased) names of the grouping columns, used by
    /// the planner's advantage factors.
    pub fn group_column_names(&self) -> Vec<String> {
        self.group_by
            .iter()
            .filter_map(|g| match g {
                Expr::Column { name, .. } => Some(name.to_ascii_lowercase()),
                _ => None,
            })
            .collect()
    }

    /// Bare names of count-distinct argument columns.
    pub fn distinct_column_names(&self) -> Vec<String> {
        self.aggregates
            .iter()
            .filter(|a| a.class == AggClass::Distinct)
            .filter_map(|a| a.call.args.first())
            .filter_map(|e| match e {
                Expr::Column { name, .. } => Some(name.to_ascii_lowercase()),
                _ => None,
            })
            .collect()
    }

    /// Planner-facing table references (row counts filled in by the caller).
    pub fn table_refs(&self, row_counts: &HashMap<String, u64>) -> Vec<TableRef> {
        self.tables
            .iter()
            .map(|t| TableRef {
                alias: t.alias.clone(),
                table: t.table.clone(),
                rows: *row_counts.get(&t.table.to_ascii_lowercase()).unwrap_or(&0),
                join_equalities: self.join_equalities.clone(),
            })
            .collect()
    }

    /// True when any aggregate belongs to the given class.
    pub fn has_class(&self, class: AggClass) -> bool {
        self.aggregates.iter().any(|a| a.class == class)
    }
}

/// The rewritten statements for one incoming query, plus the metadata the
/// answer rewriter needs to assemble the final result.
#[derive(Debug, Clone)]
pub struct RewriteOutput {
    /// The analysis of the original query.
    pub analysis: QueryAnalysis,
    /// The sample plan the rewrite was produced under.
    pub plan: SamplePlan,
    /// Variational-subsampling query for the mean-like aggregates.
    pub mean_query: Option<Statement>,
    /// Scaled count-distinct query plus, per aggregate index, the scale factor
    /// to apply to the raw result (1/τ when a hashed sample was used).
    pub distinct_query: Option<(Statement, HashMap<usize, f64>)>,
    /// Exact query for extreme statistics (min/max), run on base tables.
    pub extreme_query: Option<Statement>,
    /// Number of subsamples used.
    pub subsample_count: u64,
    /// The output expressions and HAVING predicate compiled against the
    /// aggregate set, for the answer rewriter.
    pub(crate) program: AnswerProgram,
}

// ---------------------------------------------------------------------------
// Query analysis
// ---------------------------------------------------------------------------

/// Analyses a query and decides whether VerdictDB can approximate it
/// (Table 1's supported class).  Unsupported queries yield
/// [`VerdictError::Unsupported`] so the caller can pass them through.
pub fn analyze_query(query: &Query) -> VerdictResult<QueryAnalysis> {
    if query.from.is_empty() {
        return Err(VerdictError::Unsupported("query has no FROM clause".into()));
    }
    // EXISTS predicates are outside the supported class.
    let mut has_exists = false;
    let mut has_window = false;
    verdict_sql::visitor::walk_query(query, &mut |e| {
        if matches!(e, Expr::Exists { .. }) {
            has_exists = true;
        }
        if let Expr::Function(f) = e {
            if f.over.is_some() {
                has_window = true;
            }
        }
    });
    if has_exists {
        return Err(VerdictError::Unsupported(
            "EXISTS subqueries are not approximated".into(),
        ));
    }
    if has_window {
        return Err(VerdictError::Unsupported(
            "window functions in the input query are not approximated".into(),
        ));
    }
    // A subquery, correlated or not, reaches the backend only inside a
    // rewritten WHERE / ON, as written and over the base tables; anywhere
    // else answer assembly would evaluate the clause without it.
    let items = query.projection.iter().filter_map(SelectItem::expr);
    let order = query.order_by.iter().map(|o| &o.expr);
    let mut outside_where = false;
    for e in items
        .chain(&query.group_by)
        .chain(&query.having)
        .chain(order)
    {
        walk_expr(e, &mut |e| outside_where |= e.subquery().is_some());
    }
    if outside_where {
        return Err(VerdictError::Unsupported(
            "subqueries outside WHERE and ON are not approximated".into(),
        ));
    }

    // FROM must consist of base tables joined by equi-joins.
    let mut tables: Vec<QueryTable> = Vec::new();
    let mut join_equalities = Vec::new();
    for twj in &query.from {
        collect_table(&twj.relation, &mut tables)?;
        for j in &twj.joins {
            collect_table(&j.relation, &mut tables)?;
            if let Some(c) = &j.constraint {
                record_join_columns(c, &mut join_equalities);
            }
        }
    }
    // A comma join states its equalities in WHERE.
    if let Some(w) = &query.selection {
        record_join_columns(w, &mut join_equalities);
    }

    // Projection analysis.
    let group_by = query.group_by.clone();
    let mut output = Vec::new();
    let mut aggregates: Vec<AggregateSpec> = Vec::new();
    for (i, item) in query.projection.iter().enumerate() {
        let expr = match item.expr() {
            Some(e) => e.clone(),
            None => {
                return Err(VerdictError::Unsupported(
                    "SELECT * is not meaningful for aggregate approximation".into(),
                ))
            }
        };
        let name = item
            .alias()
            .map(|s| s.to_string())
            .unwrap_or_else(|| default_name(&expr, i));
        if expr.contains_aggregate() {
            register_aggregates(&expr, &mut aggregates)?;
            output.push(OutputColumn::Aggregate { expr, name });
        } else if let Some(gidx) = group_key_index(&expr, &group_by) {
            output.push(OutputColumn::GroupKey { index: gidx, name });
        } else {
            return Err(VerdictError::Unsupported(format!(
                "projection item '{}' is neither an aggregate nor a grouping expression",
                print_expr(&expr, &GenericDialect)
            )));
        }
    }
    if let Some(h) = &query.having {
        register_aggregates(h, &mut aggregates)?;
    }
    if aggregates.is_empty() {
        return Err(VerdictError::Unsupported(
            "query has no aggregate functions".into(),
        ));
    }

    Ok(QueryAnalysis {
        group_by,
        aggregates,
        output,
        tables,
        join_equalities,
        having: query.having.clone(),
        order_by: query.order_by.clone(),
        limit: query.limit,
        query: query.clone(),
    })
}

fn collect_table(tf: &TableFactor, tables: &mut Vec<QueryTable>) -> VerdictResult<()> {
    match tf {
        TableFactor::Table { name, alias } => {
            let binding = alias
                .clone()
                .unwrap_or_else(|| name.base_name().to_string());
            tables.push(QueryTable {
                alias: binding,
                table: name.key(),
            });
            Ok(())
        }
        TableFactor::Derived { .. } => Err(VerdictError::Unsupported(
            "derived tables in FROM are not approximated".into(),
        )),
    }
}

/// Records every `column = column` conjunct of an ON or WHERE predicate as
/// the query spelled it; an equality under OR or NOT holds for no row in
/// particular and is skipped.  A bare side (`ON l_orderkey = o_orderkey`)
/// keeps no alias and matches any table's column of that name; the planner
/// closes these edges transitively and decides from them which hashed
/// choices share one universe.
fn record_join_columns(predicate: &Expr, equalities: &mut Vec<(JoinColumn, JoinColumn)>) {
    let side = |e: &Expr| match e.unnested() {
        Expr::Column { table, name } => Some(JoinColumn {
            alias: table.as_deref().map(str::to_ascii_lowercase),
            column: name.to_ascii_lowercase(),
        }),
        _ => None,
    };
    for conjunct in predicate.conjuncts() {
        if let Expr::BinaryOp {
            left,
            op: BinaryOp::Eq,
            right,
        } = conjunct.unnested()
        {
            if let (Some(l), Some(r)) = (side(left), side(right)) {
                equalities.push((l, r));
            }
        }
    }
}

fn register_aggregates(expr: &Expr, aggregates: &mut Vec<AggregateSpec>) -> VerdictResult<()> {
    let mut err = None;
    walk_expr(expr, &mut |e| {
        if err.is_some() {
            return;
        }
        if let Some(call) = e.as_aggregate() {
            let key = print_expr(e, &GenericDialect);
            let already = aggregates
                .iter()
                .any(|a| print_expr(&Expr::Function(a.call.clone()), &GenericDialect) == key);
            if already {
                return;
            }
            match classify(call) {
                Ok(class) => aggregates.push(AggregateSpec {
                    index: aggregates.len(),
                    call: call.clone(),
                    class,
                }),
                Err(e) => err = Some(e),
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

fn classify(call: &FunctionCall) -> VerdictResult<AggClass> {
    let name = call.name.as_str();
    if is_extreme_aggregate(name) {
        return Ok(AggClass::Extreme);
    }
    if name == "count" && call.distinct {
        return Ok(AggClass::Distinct);
    }
    match name {
        "count" | "sum" | "avg" | "variance" | "var_samp" | "stddev" | "stddev_samp" | "median"
        | "quantile" | "percentile" => Ok(AggClass::MeanLike),
        "ndv" | "approx_count_distinct" => Ok(AggClass::Distinct),
        "approx_median" => Ok(AggClass::MeanLike),
        other => Err(VerdictError::Unsupported(format!(
            "aggregate function {other}"
        ))),
    }
}

fn group_key_index(expr: &Expr, group_by: &[Expr]) -> Option<usize> {
    for (i, g) in group_by.iter().enumerate() {
        if g == expr {
            return Some(i);
        }
        // `SELECT city ... GROUP BY t.city` and vice versa.
        if let (Expr::Column { name: a, .. }, Expr::Column { name: b, .. }) = (g, expr) {
            if a.eq_ignore_ascii_case(b) {
                return Some(i);
            }
        }
    }
    None
}

fn default_name(expr: &Expr, position: usize) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function(f) => f.name.clone(),
        _ => format!("col_{position}"),
    }
}

// ---------------------------------------------------------------------------
// Rewriting
// ---------------------------------------------------------------------------

/// Names used in rewritten SQL, shared with the answer rewriter.
pub mod columns {
    /// Group-key output column prefix (`verdict_g0`, `verdict_g1`, …).
    pub const GROUP_PREFIX: &str = "verdict_g";
    /// Mean-like estimate column prefix (`verdict_est_<agg index>`).
    pub const EST_PREFIX: &str = "verdict_est_";
    /// Count-distinct raw-estimate column prefix.
    pub const DISTINCT_PREFIX: &str = "verdict_dst_";
    /// Extreme-statistic column prefix.
    pub const EXTREME_PREFIX: &str = "verdict_ext_";
    /// Subsample id column.
    pub const SID: &str = "verdict_sid";
    /// Subsample size column.
    pub const SUB_SIZE: &str = "verdict_sub_size";
}

/// Rewrites a query into its approximate parts according to the sample plan.
pub fn rewrite(
    analysis: &QueryAnalysis,
    plan: &SamplePlan,
    config: &VerdictConfig,
) -> VerdictResult<RewriteOutput> {
    let b = config.effective_subsamples();
    let mean_query = if analysis.has_class(AggClass::MeanLike) {
        Some(Statement::Query(Box::new(rewrite_mean_like(
            analysis, plan, b,
        )?)))
    } else {
        None
    };
    let distinct_query = if analysis.has_class(AggClass::Distinct) {
        let (q, scales) = rewrite_distinct(analysis, plan)?;
        Some((Statement::Query(Box::new(q)), scales))
    } else {
        None
    };
    let extreme_query = if analysis.has_class(AggClass::Extreme) {
        Some(Statement::Query(Box::new(rewrite_extreme(analysis)?)))
    } else {
        None
    };
    Ok(RewriteOutput {
        analysis: analysis.clone(),
        plan: plan.clone(),
        mean_query,
        distinct_query,
        extreme_query,
        subsample_count: b,
        program: AnswerProgram::compile(analysis),
    })
}

/// Builds the FROM clause with sampled tables replaced by variational tables
/// (derived tables that attach a random `verdict_sid_<k>` to every tuple).
/// Returns the substituted FROM plus, per sampled alias, its sid column name,
/// probability column reference, and sample metadata.
fn substitute_from(
    query: &Query,
    plan: &SamplePlan,
    b: u64,
    with_sid: bool,
) -> (Vec<TableWithJoins>, Vec<SampledRelation>) {
    let mut from = query.from.clone();
    let mut sampled: Vec<SampledRelation> = Vec::new();
    let mut counter = 0usize;
    let mut query_like = Query::empty();
    query_like.from = std::mem::take(&mut from);
    transform_query_tables(&mut query_like, &mut |name, alias| {
        let binding = alias
            .map(|a| a.to_string())
            .unwrap_or_else(|| name.base_name().to_string());
        let choice = plan.choice_for(&binding)?;
        let sample = choice.sample.as_ref()?;
        if name.key() != choice.table_ref.table {
            return None;
        }
        let k = counter;
        counter += 1;
        let sid_column = format!("verdict_sid_{k}");
        // The subsample id comes from the uniform draw *stored in the
        // scramble* (`1 + floor(u·b)`), not from a fresh `rand()`: the
        // assignment is frozen per tuple, so the same query over unchanged
        // data always produces the same answer and interval — which is what
        // lets a progressive stream's final frame match the one-shot answer
        // bit for bit, and what makes cached answers reproducible.
        let mut subquery = Query::empty();
        subquery.projection.push(SelectItem::Wildcard);
        if with_sid {
            let draw = Expr::binary(
                Expr::col(SUBSAMPLE_DRAW_COLUMN),
                BinaryOp::Multiply,
                Expr::int(b as i64),
            );
            let sid = Expr::binary(
                Expr::int(1),
                BinaryOp::Plus,
                Expr::func("floor", vec![draw]),
            );
            subquery.projection.push(SelectItem::ExprWithAlias {
                expr: Expr::Cast {
                    expr: Box::new(sid),
                    data_type: CastType::Integer,
                },
                alias: sid_column.clone(),
            });
        }
        subquery.from.push(TableWithJoins {
            relation: TableFactor::Table {
                name: ObjectName::new(sample.sample_table.split('.').collect()),
                alias: None,
            },
            joins: Vec::new(),
        });
        sampled.push(SampledRelation {
            alias: binding.clone(),
            sid_column,
            meta: sample.clone(),
        });
        Some(TableFactor::Derived {
            subquery: Box::new(subquery),
            alias: Some(binding),
        })
    });
    (query_like.from, sampled)
}

/// A sampled relation in the rewritten FROM clause.
#[derive(Debug, Clone)]
struct SampledRelation {
    alias: String,
    sid_column: String,
    meta: SampleMeta,
}

/// The combined subsample-id expression.  The plan's universe group is one
/// sample with one sid: that of its smallest-τ member, whose key draw is
/// uniform over the keys the join keeps (a larger-τ member's draw would fill
/// only its first τ_min/τ of the subsamples).  That sid and the independent
/// relations' sids are paired with `h(i, j)` (Theorem 4); more fold left.
fn combined_sid_expr(sampled: &[SampledRelation], plan: &SamplePlan, b: u64) -> Expr {
    let sqrt_b = Expr::int((b as f64).sqrt().round() as i64);
    let sid = |s: &SampledRelation| Expr::qcol(&s.alias, &s.sid_column);
    // floor((i - 1) / √b)
    let bucket = |i: Expr| {
        let zero_based = Expr::Nested(Box::new(Expr::binary(i, BinaryOp::Minus, Expr::int(1))));
        let scaled = Expr::binary(zero_based, BinaryOp::Divide, sqrt_b.clone());
        Expr::func("floor", vec![scaled])
    };
    let group_sid = sampled
        .iter()
        .filter(|s| plan.in_universe(&s.alias))
        .min_by(|x, y| x.meta.ratio.total_cmp(&y.meta.ratio));
    let independent = sampled.iter().filter(|s| !plan.in_universe(&s.alias));
    group_sid
        .into_iter()
        .chain(independent)
        .map(sid)
        .reduce(|expr, next| {
            // h(i, j) = floor((i-1)/√b)·√b + floor((j-1)/√b) + 1
            let high = Expr::binary(bucket(expr), BinaryOp::Multiply, sqrt_b.clone());
            let paired = Expr::binary(high, BinaryOp::Plus, bucket(next));
            Expr::Nested(Box::new(Expr::binary(paired, BinaryOp::Plus, Expr::int(1))))
        })
        // no sampled relation: one subsample
        .unwrap_or_else(|| Expr::int(1))
}

/// The combined sampling-probability expression for the (possibly irregular)
/// sample produced by joining the chosen samples: the product of per-relation
/// probabilities, except that the universe group's members share one
/// inclusion event, so the group contributes the minimum of theirs (§5.1 /
/// Appendix E).
fn combined_prob_expr(sampled: &[SampledRelation], plan: &SamplePlan) -> String {
    let probs = |in_group: bool| {
        sampled
            .iter()
            .filter(move |s| plan.in_universe(&s.alias) == in_group)
            .map(|s| format!("{}.{}", s.alias, SAMPLING_PROB_COLUMN))
    };
    let group: Vec<String> = probs(true).collect();
    let least = (!group.is_empty()).then(|| format!("least({})", group.join(", ")));
    least
        .into_iter()
        .chain(probs(false))
        .collect::<Vec<_>>()
        .join(" * ")
}

/// Builds the variational-subsampling query for the mean-like aggregates.
fn rewrite_mean_like(analysis: &QueryAnalysis, plan: &SamplePlan, b: u64) -> VerdictResult<Query> {
    let (from, sampled) = substitute_from(&analysis.query, plan, b, true);
    if sampled.is_empty() {
        return Err(VerdictError::NoSampleAvailable(
            "the sample plan does not use any sample table".into(),
        ));
    }
    let sid_expr = combined_sid_expr(&sampled, plan, b);
    let prob_sql = combined_prob_expr(&sampled, plan);

    let mut projection: Vec<SelectItem> = Vec::new();
    for (i, g) in analysis.group_by.iter().enumerate() {
        projection.push(SelectItem::ExprWithAlias {
            expr: g.clone(),
            alias: format!("{}{i}", columns::GROUP_PREFIX),
        });
    }
    for spec in &analysis.aggregates {
        if spec.class != AggClass::MeanLike {
            continue;
        }
        let est_sql = mean_estimate_sql(&spec.call, &prob_sql, b)?;
        let est_expr = verdict_sql::parse_expression(&est_sql)
            .map_err(|e| VerdictError::Answer(format!("internal estimate expression: {e}")))?;
        projection.push(SelectItem::ExprWithAlias {
            expr: est_expr,
            alias: format!("{}{}", columns::EST_PREFIX, spec.index),
        });
    }
    projection.push(SelectItem::ExprWithAlias {
        expr: sid_expr.clone(),
        alias: columns::SID.to_string(),
    });
    projection.push(SelectItem::ExprWithAlias {
        expr: Expr::func("count", vec![Expr::Wildcard]),
        alias: columns::SUB_SIZE.to_string(),
    });

    let mut group_by = analysis.group_by.clone();
    group_by.push(sid_expr);

    Ok(Query {
        distinct: false,
        projection,
        from,
        selection: analysis.query.selection.clone(),
        group_by,
        having: None,
        order_by: Vec::new(),
        limit: None,
    })
}

/// Per-subsample unbiased estimate expression for one mean-like aggregate.
///
/// Count and sum use the Horvitz–Thompson total of the subsample scaled by
/// the number of subsamples `b` (a population tuple lands in one specific
/// subsample with probability `p/b`); averaged over all `b` subsamples this
/// recovers exactly the full-sample HT estimate, while its spread across
/// subsamples carries the sampling variability Theorem 2 needs.  Averages are
/// ratio estimators and need no scaling; variance-, quantile-, and
/// median-style statistics are scale-free.
fn mean_estimate_sql(call: &FunctionCall, prob_sql: &str, b: u64) -> VerdictResult<String> {
    let arg_sql = call
        .args
        .first()
        .map(|a| print_expr(a, &GenericDialect))
        .unwrap_or_else(|| "*".to_string());
    let sql = match call.name.as_str() {
        "count" => format!("{b} * sum(1.0 / ({prob_sql}))"),
        "sum" => format!("{b} * sum(({arg_sql}) / ({prob_sql}))"),
        "avg" => format!("sum(({arg_sql}) / ({prob_sql})) / sum(1.0 / ({prob_sql}))"),
        // Scale-free statistics: computed directly on the subsample.  The
        // sampling probabilities within a group are (near-)constant, so the
        // unweighted statistic is a consistent estimator.
        "variance" | "var_samp" => format!("variance({arg_sql})"),
        "stddev" | "stddev_samp" => format!("stddev({arg_sql})"),
        "median" | "approx_median" => format!("median({arg_sql})"),
        "quantile" | "percentile" => {
            let q = call
                .args
                .get(1)
                .map(|a| print_expr(a, &GenericDialect))
                .unwrap_or_else(|| "0.5".to_string());
            format!("quantile({arg_sql}, {q})")
        }
        other => {
            return Err(VerdictError::Unsupported(format!(
                "mean-like rewrite for aggregate {other}"
            )))
        }
    };
    Ok(sql)
}

/// Builds the count-distinct part: a plain grouped count(distinct …) over the
/// hashed sample (when the plan chose one on the distinct column), whose raw
/// result the answer rewriter multiplies by 1/τ.
fn rewrite_distinct(
    analysis: &QueryAnalysis,
    plan: &SamplePlan,
) -> VerdictResult<(Query, HashMap<usize, f64>)> {
    // Keep only hashed-sample substitutions whose hash columns cover the
    // distinct columns; everything else reads the base table (exact but safe).
    let distinct_cols = analysis.distinct_column_names();
    let filtered_choices: Vec<_> = plan
        .choices
        .iter()
        .cloned()
        .map(|mut c| {
            let keep = match &c.sample {
                Some(SampleMeta {
                    sample_type: SampleType::Hashed { columns },
                    ..
                }) => columns
                    .iter()
                    .all(|h| distinct_cols.iter().any(|d| d.eq_ignore_ascii_case(h))),
                _ => false,
            };
            if !keep {
                c.sample = None;
            }
            c
        })
        .collect();
    let filtered_plan = SamplePlan {
        choices: filtered_choices,
        ..plan.clone()
    };

    let (from, sampled) = substitute_from(&analysis.query, &filtered_plan, 1, false);

    let mut scales: HashMap<usize, f64> = HashMap::new();
    let scale = sampled
        .first()
        .map(|s| 1.0 / s.meta.ratio.max(f64::MIN_POSITIVE))
        .unwrap_or(1.0);

    let mut projection: Vec<SelectItem> = Vec::new();
    for (i, g) in analysis.group_by.iter().enumerate() {
        projection.push(SelectItem::ExprWithAlias {
            expr: g.clone(),
            alias: format!("{}{i}", columns::GROUP_PREFIX),
        });
    }
    for spec in &analysis.aggregates {
        if spec.class != AggClass::Distinct {
            continue;
        }
        projection.push(SelectItem::ExprWithAlias {
            expr: Expr::Function(spec.call.clone()),
            alias: format!("{}{}", columns::DISTINCT_PREFIX, spec.index),
        });
        scales.insert(spec.index, scale);
    }

    Ok((
        Query {
            distinct: false,
            projection,
            from,
            selection: analysis.query.selection.clone(),
            group_by: analysis.group_by.clone(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        },
        scales,
    ))
}

/// Builds the exact query for extreme statistics (min/max) over base tables.
fn rewrite_extreme(analysis: &QueryAnalysis) -> VerdictResult<Query> {
    let mut projection: Vec<SelectItem> = Vec::new();
    for (i, g) in analysis.group_by.iter().enumerate() {
        projection.push(SelectItem::ExprWithAlias {
            expr: g.clone(),
            alias: format!("{}{i}", columns::GROUP_PREFIX),
        });
    }
    for spec in &analysis.aggregates {
        if spec.class != AggClass::Extreme {
            continue;
        }
        projection.push(SelectItem::ExprWithAlias {
            expr: Expr::Function(spec.call.clone()),
            alias: format!("{}{}", columns::EXTREME_PREFIX, spec.index),
        });
    }
    Ok(Query {
        distinct: false,
        projection,
        from: analysis.query.from.clone(),
        selection: analysis.query.selection.clone(),
        group_by: analysis.group_by.clone(),
        having: None,
        order_by: Vec::new(),
        limit: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::MetaStore;
    use crate::planner::{PlanningContext, SamplePlanner};
    use verdict_sql::parse_statement;
    use verdict_sql::printer::print_statement;

    fn query(sql: &str) -> Query {
        match parse_statement(sql).unwrap() {
            Statement::Query(q) => *q,
            other => panic!("expected query, got {other:?}"),
        }
    }

    fn store() -> MetaStore {
        let store = MetaStore::new();
        store.register(SampleMeta {
            base_table: "orders".into(),
            sample_table: "verdict_sample_orders_uniform".into(),
            sample_type: SampleType::Uniform,
            ratio: 0.01,
            sample_rows: 10_000,
            base_rows: 1_000_000,
            appended_rows: 0,
        });
        store.register(SampleMeta {
            base_table: "order_products".into(),
            sample_table: "verdict_sample_order_products_hashed_order_id".into(),
            sample_type: SampleType::Hashed {
                columns: vec!["order_id".into()],
            },
            ratio: 0.01,
            sample_rows: 30_000,
            base_rows: 3_000_000,
            appended_rows: 0,
        });
        store.register(SampleMeta {
            base_table: "orders".into(),
            sample_table: "verdict_sample_orders_hashed_order_id".into(),
            sample_type: SampleType::Hashed {
                columns: vec!["order_id".into()],
            },
            ratio: 0.01,
            sample_rows: 10_000,
            base_rows: 1_000_000,
            appended_rows: 0,
        });
        store
    }

    fn plan_for(analysis: &QueryAnalysis) -> SamplePlan {
        let store = store();
        let cfg = VerdictConfig::default();
        let planner = SamplePlanner::new(&store, &cfg);
        let mut rows = HashMap::new();
        rows.insert("orders".to_string(), 1_000_000u64);
        rows.insert("order_products".to_string(), 3_000_000u64);
        planner.plan(
            &analysis.table_refs(&rows),
            &PlanningContext {
                group_columns: analysis.group_column_names(),
                distinct_columns: analysis.distinct_column_names(),
                io_budget: 0.02,
            },
        )
    }

    #[test]
    fn analysis_classifies_aggregates_and_groups() {
        let q = query(
            "SELECT city, count(*) AS cnt, sum(price) AS total, max(price) AS biggest \
             FROM orders WHERE price > 10 GROUP BY city",
        );
        let a = analyze_query(&q).unwrap();
        assert_eq!(a.group_by.len(), 1);
        assert_eq!(a.aggregates.len(), 3);
        assert_eq!(a.aggregates[0].class, AggClass::MeanLike);
        assert_eq!(a.aggregates[2].class, AggClass::Extreme);
        assert_eq!(a.output.len(), 4);
        assert_eq!(a.output[0].name(), "city");
        assert!(a.has_class(AggClass::Extreme));
        assert!(!a.has_class(AggClass::Distinct));
    }

    #[test]
    fn unsupported_queries_are_rejected() {
        assert!(analyze_query(&query("SELECT city FROM orders GROUP BY city")).is_err());
        assert!(analyze_query(&query("SELECT * FROM orders")).is_err());
        assert!(analyze_query(&query(
            "SELECT count(*) FROM orders WHERE EXISTS (SELECT 1 FROM order_products)"
        ))
        .is_err());
    }

    #[test]
    fn mean_rewrite_produces_expected_structure() {
        let q = query("SELECT city, count(*) AS cnt, avg(price) AS ap FROM orders GROUP BY city");
        let a = analyze_query(&q).unwrap();
        let plan = plan_for(&a);
        let out = rewrite(&a, &plan, &VerdictConfig::default()).unwrap();
        let stmt = out.mean_query.expect("mean query");
        let sql = print_statement(&stmt, &GenericDialect);
        // the rewritten SQL must parse and contain the key ingredients
        parse_statement(&sql).unwrap();
        assert!(sql.contains("verdict_sample_orders_uniform"), "{sql}");
        assert!(sql.contains("verdict_sid"), "{sql}");
        assert!(sql.contains("verdict_sub_size"), "{sql}");
        assert!(sql.contains("verdict_sampling_prob"), "{sql}");
        assert!(sql.contains("100 * sum(1.0 / "), "{sql}");
        assert!(sql.to_lowercase().contains("group by city, "), "{sql}");
    }

    fn hashed(table: &str, column: &str, ratio: f64, base_rows: u64) -> SampleMeta {
        SampleMeta {
            base_table: table.into(),
            sample_table: format!("verdict_sample_{table}_hashed_{column}"),
            sample_type: SampleType::Hashed {
                columns: vec![column.into()],
            },
            ratio,
            sample_rows: (base_rows as f64 * ratio) as u64,
            base_rows,
            appended_rows: 0,
        }
    }

    /// The plan for `sql` when only `samples` exist, and its mean query.  At
    /// τ 0.1 and an I/O budget of 0.1, sampling every large table is the only
    /// sampled plan that fits.
    fn rewrite_with(sql: &str, samples: &[SampleMeta], io_budget: f64) -> (SamplePlan, String) {
        let store = MetaStore::new();
        let mut rows = HashMap::new();
        for s in samples {
            store.register(s.clone());
            rows.insert(s.base_table.clone(), s.base_rows);
        }
        let a = analyze_query(&query(sql)).unwrap();
        let cfg = VerdictConfig::default();
        let plan = SamplePlanner::new(&store, &cfg).plan(
            &a.table_refs(&rows),
            &PlanningContext {
                io_budget,
                ..Default::default()
            },
        );
        let out = rewrite(&a, &plan, &cfg).unwrap();
        let sql = print_statement(&out.mean_query.unwrap(), &GenericDialect);
        parse_statement(&sql).unwrap();
        (plan, sql)
    }

    /// Theorem 4's `h(i, j)` at b = 100, as printed.
    fn h(i: &str, j: &str) -> String {
        format!("(floor(({i} - 1) / 10) * 10 + floor(({j} - 1) / 10) + 1)")
    }

    #[test]
    fn universe_join_rewrite_takes_one_group_sid_and_least_probability() {
        let q = query(
            "SELECT count(*) AS cnt FROM orders o \
             INNER JOIN order_products p ON o.order_id = p.order_id",
        );
        let a = analyze_query(&q).unwrap();
        let plan = plan_for(&a);
        // both tables should be sampled with hashed samples, as one universe
        assert!(plan.choices.iter().all(|c| c.sample.is_some()));
        assert_eq!(plan.universe, ["o", "p"]);
        let out = rewrite(&a, &plan, &VerdictConfig::default()).unwrap();
        let sql = print_statement(&out.mean_query.unwrap(), &GenericDialect);
        parse_statement(&sql).unwrap();
        // equal τ: the first member's sid, unpaired
        assert!(sql.contains("GROUP BY o.verdict_sid_0"), "{sql}");
        assert!(!sql.contains("floor((o.verdict_sid_0 - 1) / 10)"), "{sql}");
        assert!(
            sql.contains("least(o.verdict_sampling_prob, p.verdict_sampling_prob)"),
            "{sql}"
        );
    }

    #[test]
    fn hashed_samples_joined_off_their_hash_column_are_paired_and_multiplied() {
        let (plan, sql) = rewrite_with(
            "SELECT count(*) AS cnt FROM orders o \
             INNER JOIN order_products p ON o.user_id = p.user_id",
            &order_id_pair(),
            0.1,
        );
        assert!(plan.universe.is_empty());
        assert!(
            sql.contains("o.verdict_sampling_prob * p.verdict_sampling_prob"),
            "{sql}"
        );
        assert!(!sql.contains("least("), "{sql}");
        let sid = h("o.verdict_sid_0", "p.verdict_sid_1");
        assert!(sql.contains(&format!("GROUP BY {sid}")), "{sql}");
    }

    /// `orders` and `order_products` hashed on `order_id` at τ 0.1.
    fn order_id_pair() -> [SampleMeta; 2] {
        [
            hashed("orders", "order_id", 0.1, 1_000_000),
            hashed("order_products", "order_id", 0.1, 3_000_000),
        ]
    }

    #[test]
    fn comma_join_equated_in_where_is_a_universe_join() {
        let (plan, sql) = rewrite_with(
            "SELECT count(*) AS cnt FROM orders o, order_products p \
             WHERE o.order_id = p.order_id AND p.price > 10",
            &order_id_pair(),
            0.1,
        );
        assert_eq!(plan.universe, ["o", "p"]);
        assert!(
            sql.contains("least(o.verdict_sampling_prob, p.verdict_sampling_prob)"),
            "{sql}"
        );
        assert!(sql.contains("GROUP BY o.verdict_sid_0"), "{sql}");
        assert!(!sql.contains("floor((o.verdict_sid_0 - 1) / 10)"), "{sql}");
    }

    #[test]
    fn universe_join_through_an_unsampled_relation_is_one_group() {
        let (plan, sql) = rewrite_with(
            "SELECT count(*) AS cnt FROM orders o \
             INNER JOIN order_notes x ON o.order_id = x.order_id \
             INNER JOIN order_products p ON x.order_id = p.order_id",
            &order_id_pair(),
            0.1,
        );
        assert!(plan.choice_for("x").unwrap().sample.is_none());
        assert_eq!(plan.universe, ["o", "p"]);
        assert!(
            sql.contains("least(o.verdict_sampling_prob, p.verdict_sampling_prob)"),
            "{sql}"
        );
        assert!(sql.contains("GROUP BY o.verdict_sid_0"), "{sql}");
        assert!(!sql.contains("floor((o.verdict_sid_0 - 1) / 10)"), "{sql}");
    }

    #[test]
    fn only_top_level_column_equalities_are_recorded() {
        let a = analyze_query(&query(
            "SELECT count(*) AS cnt FROM orders o \
             INNER JOIN order_products p ON o.order_id = p.order_id OR o.user_id = p.user_id \
             WHERE (o.user_id = p.user_id) AND NOT o.order_id = p.order_id AND o.order_id = 3",
        ))
        .unwrap();
        let spelled: Vec<String> = a
            .join_equalities
            .iter()
            .map(|(l, r)| format!("{:?}.{} = {:?}.{}", l.alias, l.column, r.alias, r.column))
            .collect();
        assert_eq!(spelled, ["Some(\"o\").user_id = Some(\"p\").user_id"]);
    }

    #[test]
    fn iq15_shape_with_unrelated_hash_keys_is_not_a_universe_join() {
        let (plan, sql) = rewrite_with(
            "SELECT department_id, count(*) AS n FROM orders o \
             INNER JOIN order_products p ON o.order_id = p.order_id \
             INNER JOIN products pr ON p.product_id = pr.product_id \
             GROUP BY department_id",
            &[
                hashed("orders", "order_id", 0.1, 1_000_000),
                hashed("order_products", "product_id", 0.1, 3_000_000),
            ],
            0.1,
        );
        assert!(plan.universe.is_empty());
        assert!(!sql.contains("least("), "{sql}");
        assert!(
            sql.contains("o.verdict_sampling_prob * p.verdict_sampling_prob"),
            "{sql}"
        );
        let sid = h("o.verdict_sid_0", "p.verdict_sid_1");
        assert!(
            sql.contains(&format!("GROUP BY department_id, {sid}")),
            "{sql}"
        );
    }

    #[test]
    fn universe_pair_with_an_independent_relation_pairs_the_group_sid() {
        let mut customers = hashed("customers", "user_id", 0.1, 1_000_000);
        customers.sample_type = SampleType::Uniform;
        let (plan, sql) = rewrite_with(
            "SELECT count(*) AS cnt FROM orders o \
             INNER JOIN order_products p ON o.order_id = p.order_id \
             INNER JOIN customers c ON o.user_id = c.user_id",
            &[
                hashed("orders", "order_id", 0.1, 1_000_000),
                hashed("order_products", "order_id", 0.1, 3_000_000),
                customers,
            ],
            0.1,
        );
        assert_eq!(plan.universe, ["o", "p"]);
        assert!(
            sql.contains(
                "least(o.verdict_sampling_prob, p.verdict_sampling_prob) * c.verdict_sampling_prob"
            ),
            "{sql}"
        );
        let sid = h("o.verdict_sid_0", "c.verdict_sid_2");
        assert!(sql.contains(&format!("GROUP BY {sid}")), "{sql}");
    }

    #[test]
    fn universe_group_takes_its_smallest_tau_members_sid_and_fills_every_subsample() {
        use verdict_engine::{Engine, TableBuilder};
        let engine = Engine::with_seed(5);
        let keys = 20_000i64;
        for (table, fanout) in [("orders", 1), ("order_products", 2)] {
            let ids = (0..keys * fanout).map(|i| i % keys).collect();
            let t = TableBuilder::new()
                .int_column("order_id", ids)
                .build()
                .unwrap();
            engine.register_table(table, t);
        }
        let mut samples = Vec::new();
        for (table, ratio) in [("orders", 0.3), ("order_products", 0.1)] {
            let base_rows = engine.catalog().row_count(table) as u64;
            let sample_type = SampleType::Hashed {
                columns: vec!["order_id".into()],
            };
            let sample_table = SampleMeta::table_name_for(table, &sample_type);
            let build = crate::sample::builder::build_sample_sql(
                table,
                &sample_table,
                &sample_type,
                ratio,
                base_rows,
                0,
                &["order_id".into()],
                &GenericDialect,
            );
            for statement in &build.statements {
                engine.execute_sql(statement).unwrap();
            }
            samples.push(SampleMeta {
                sample_rows: engine.catalog().row_count(&sample_table) as u64,
                ..hashed(table, "order_id", ratio, base_rows)
            });
        }
        // Only the pair fits the budget.
        let (plan, sql) = rewrite_with(
            "SELECT count(*) AS cnt FROM orders o \
             INNER JOIN order_products p ON o.order_id = p.order_id",
            &samples,
            0.2,
        );
        assert_eq!(plan.universe, ["o", "p"]);
        // τ 0.1 is the second member: its key draw is uniform over the keys
        // the join keeps, while the τ 0.3 member's would reach only sids 1..34
        assert!(sql.contains("GROUP BY p.verdict_sid_1"), "{sql}");
        let cells = engine.execute_sql(&sql).unwrap().table;
        let sid = cells.schema.index_of("verdict_sid").unwrap();
        let mut seen: Vec<i64> = (0..cells.num_rows())
            .map(|r| cells.value(r, sid).as_i64().unwrap())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (1..=100).collect::<Vec<i64>>());
    }

    #[test]
    fn wrapper_and_sid_pairing_are_the_ast_of_their_sql_text() {
        let q = query("SELECT count(*) AS cnt FROM orders");
        let a = analyze_query(&q).unwrap();
        // a single-table plan: no universe group, so every sid below is paired
        let plan = plan_for(&a);
        let out = rewrite(&a, &plan, &VerdictConfig::default()).unwrap();
        let Some(Statement::Query(mean)) = out.mean_query else {
            panic!("mean query")
        };
        let spelled = query(
            "SELECT 1 FROM (SELECT *, CAST(1 + floor(verdict_subsample_u * 100) AS BIGINT) \
             AS verdict_sid_0 FROM verdict_sample_orders_uniform) AS orders",
        );
        assert_eq!(mean.from, spelled.from);

        let meta = store().all().remove(0);
        let sampled: Vec<SampledRelation> = ["o", "p", "q"]
            .iter()
            .enumerate()
            .map(|(k, alias)| SampledRelation {
                alias: alias.to_string(),
                sid_column: format!("verdict_sid_{k}"),
                meta: meta.clone(),
            })
            .collect();
        let h =
            |i: &str, j: &str| format!("(floor(({i} - 1) / 10) * 10 + floor(({j} - 1) / 10) + 1)");
        let two = h("o.verdict_sid_0", "p.verdict_sid_1");
        let three = h(&two, "q.verdict_sid_2");
        for (n, text) in [
            (1, "o.verdict_sid_0"),
            (2, two.as_str()),
            (3, three.as_str()),
        ] {
            let built = combined_sid_expr(&sampled[..n], &plan, 100);
            assert_eq!(
                built,
                verdict_sql::parse_expression(text).unwrap(),
                "{text}"
            );
        }
    }

    #[test]
    fn a_scramble_name_the_parser_rejects_is_still_substituted() {
        let q = query("SELECT count(*) AS cnt FROM orders");
        let a = analyze_query(&q).unwrap();
        let mut plan = plan_for(&a);
        let sample = plan.choices[0].sample.as_mut().expect("sampled");
        sample.sample_table = "my-scramble".into();
        // the relation must not silently stay on the base table: the name
        // reaches the backend, which is where a bad name fails
        let out = rewrite(&a, &plan, &VerdictConfig::default()).unwrap();
        let sql = print_statement(&out.mean_query.unwrap(), &GenericDialect);
        assert!(sql.contains("my-scramble"), "{sql}");
    }

    #[test]
    fn distinct_rewrite_scales_by_inverse_ratio() {
        let q = query("SELECT count(DISTINCT order_id) AS buyers FROM orders");
        let a = analyze_query(&q).unwrap();
        let plan = plan_for(&a);
        let out = rewrite(&a, &plan, &VerdictConfig::default()).unwrap();
        let (stmt, scales) = out.distinct_query.expect("distinct part");
        let sql = print_statement(&stmt, &GenericDialect);
        parse_statement(&sql).unwrap();
        assert!(sql.contains("count(DISTINCT order_id)"), "{sql}");
        assert!((scales[&0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn extreme_aggregates_run_on_base_tables() {
        let q = query("SELECT city, max(price) AS mx, count(*) AS cnt FROM orders GROUP BY city");
        let a = analyze_query(&q).unwrap();
        let plan = plan_for(&a);
        let out = rewrite(&a, &plan, &VerdictConfig::default()).unwrap();
        let sql = print_statement(&out.extreme_query.unwrap(), &GenericDialect);
        assert!(sql.contains("FROM orders"), "{sql}");
        assert!(!sql.contains("verdict_sample"), "{sql}");
        assert!(sql.contains("max(price) AS verdict_ext_"), "{sql}");
    }

    #[test]
    fn group_column_names_feed_the_planner() {
        let q = query("SELECT city, count(*) FROM orders GROUP BY city");
        let a = analyze_query(&q).unwrap();
        assert_eq!(a.group_column_names(), vec!["city".to_string()]);
        let q = query("SELECT count(DISTINCT user_id) FROM orders");
        let a = analyze_query(&q).unwrap();
        assert_eq!(a.distinct_column_names(), vec!["user_id".to_string()]);
    }
}
