//! SQL generation for sample construction (§3 of the paper).
//!
//! All three offline sample types are created purely with standard SQL
//! (`CREATE TABLE … AS SELECT`), which is the core constraint of a
//! middleware-only AQP engine:
//!
//! * **uniform** — one Bernoulli pass with probability τ;
//! * **hashed (universe)** — keep tuples whose hashed column value lands in
//!   the lowest τ fraction of the hash range;
//! * **stratified** — the two-pass probabilistic approach of §3.2: pass one
//!   counts strata sizes, pass two samples each tuple with a strata-size
//!   dependent probability given by the Lemma 1 staircase function.
//!
//! The generated SQL avoids `rand()` inside `WHERE` clauses when the dialect
//! disallows it (Impala), by materialising the random draw in a derived
//! table first.

use crate::sample::{
    hashed_draw, hashed_predicate, qualified_columns, SampleType, SAMPLING_PROB_COLUMN,
    STRATIFIED_DELTA, STRATIFIED_MIN_ROWS, SUBSAMPLE_DRAW_COLUMN,
};
use crate::stats::build_staircase;
use verdict_sql::Dialect;

/// A sequence of SQL statements that creates one sample table, plus the
/// temporary tables it needs (dropped by the trailing statements).
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePlanSql {
    /// Statements to execute in order.
    pub statements: Vec<String>,
    /// The name of the sample table the statements create.
    pub sample_table: String,
}

/// Generates the SQL that creates a sample of `base_table`.
///
/// `base_rows` is the current size of the base table (needed to derive the
/// per-stratum minimum row count of Equation 1) and `base_columns` is the
/// base table's column list.  The explicit list matters whenever a helper
/// `verdict_rand` column is materialised in a derived table (the Impala-safe
/// uniform form and the stratified two-pass form): projecting `SELECT *`
/// there would leak the helper column into the sample's schema, breaking the
/// arity contract that a sample is *base columns + the probability column +
/// the frozen subsample draw* (which incremental append maintenance relies
/// on).
///
/// Every form appends [`SUBSAMPLE_DRAW_COLUMN`] as the last projected
/// column, frozen at build time, from which query rewriting derives the
/// variational subsample id.  Uniform and stratified forms draw it per tuple
/// with `rand()` (safe in a projection on every dialect — only `rand()` in
/// WHERE is restricted, and that restriction is what the `verdict_rand`
/// helper works around); the hashed form derives it from the key hash
/// (`sample::hashed_draw`), so a key's tuples share one draw.
///
/// Every form also ends in `ORDER BY rand()`: the sample table is
/// **physically shuffled** at build time — the property that makes it a
/// *scramble*.  Base tables are often ordered by time or key, so a sampled
/// prefix would be a biased slice of history; after the shuffle any prefix
/// of the scramble is a uniform random subsample, which is exactly what
/// progressive execution needs for its block-by-block frames to be honest
/// estimates of the full-population answer.
#[allow(clippy::too_many_arguments)]
pub fn build_sample_sql(
    base_table: &str,
    sample_table: &str,
    sample_type: &SampleType,
    ratio: f64,
    base_rows: u64,
    strata_count: u64,
    base_columns: &[String],
    dialect: &dyn Dialect,
) -> SamplePlanSql {
    match sample_type {
        SampleType::Uniform => uniform_sql(base_table, sample_table, ratio, base_columns, dialect),
        SampleType::Hashed { columns } => {
            hashed_sql(base_table, sample_table, columns, ratio, dialect)
        }
        SampleType::Stratified { columns } => stratified_sql(
            base_table,
            sample_table,
            columns,
            ratio,
            base_rows,
            strata_count,
            base_columns,
            dialect,
        ),
    }
}

fn uniform_sql(
    base_table: &str,
    sample_table: &str,
    ratio: f64,
    base_columns: &[String],
    dialect: &dyn Dialect,
) -> SamplePlanSql {
    let rand = dialect.random_function();
    let st = dialect.quote_ident(sample_table);
    let bt = dialect.quote_ident(base_table);
    let stmt = if dialect.allows_rand_in_where() {
        // No helper column needed, so `*` is exactly the base columns.
        format!(
            "CREATE TABLE {st} AS SELECT *, {ratio} AS {SAMPLING_PROB_COLUMN}, \
             {rand} AS {SUBSAMPLE_DRAW_COLUMN} \
             FROM {bt} WHERE {rand} < {ratio} ORDER BY {rand}"
        )
    } else {
        // Impala-safe form: materialise the random draw in a derived table,
        // then project the base columns explicitly so the helper stays inside.
        let cols = qualified_columns("verdict_src", base_columns, dialect);
        format!(
            "CREATE TABLE {st} AS SELECT {cols}, {ratio} AS {SAMPLING_PROB_COLUMN}, \
             {rand} AS {SUBSAMPLE_DRAW_COLUMN} \
             FROM (SELECT *, {rand} AS verdict_rand FROM {bt}) AS verdict_src \
             WHERE verdict_src.verdict_rand < {ratio} ORDER BY {rand}"
        )
    };
    SamplePlanSql {
        statements: vec![stmt],
        sample_table: sample_table.to_string(),
    }
}

fn hashed_sql(
    base_table: &str,
    sample_table: &str,
    columns: &[String],
    ratio: f64,
    dialect: &dyn Dialect,
) -> SamplePlanSql {
    let kept = hashed_predicate(columns, ratio, dialect);
    let draw = hashed_draw(columns, ratio, dialect);
    let rand = dialect.random_function();
    let stmt = format!(
        "CREATE TABLE {} AS SELECT *, {ratio} AS {SAMPLING_PROB_COLUMN}, \
         {draw} AS {SUBSAMPLE_DRAW_COLUMN} \
         FROM {} WHERE {kept} ORDER BY {rand}",
        dialect.quote_ident(sample_table),
        dialect.quote_ident(base_table)
    );
    SamplePlanSql {
        statements: vec![stmt],
        sample_table: sample_table.to_string(),
    }
}

#[allow(clippy::too_many_arguments)]
fn stratified_sql(
    base_table: &str,
    sample_table: &str,
    columns: &[String],
    ratio: f64,
    base_rows: u64,
    strata_count: u64,
    base_columns: &[String],
    dialect: &dyn Dialect,
) -> SamplePlanSql {
    let temp_table = format!("{sample_table}_strata_tmp");
    let tt = dialect.quote_ident(&temp_table);
    let st = dialect.quote_ident(sample_table);
    let bt = dialect.quote_ident(base_table);
    let rand = dialect.random_function();
    let col_list = columns
        .iter()
        .map(|c| dialect.quote_ident(c))
        .collect::<Vec<_>>()
        .join(", ");

    // Equation 1: at least |T|·τ/d tuples per stratum, clamped below.
    let d = strata_count.max(1);
    let m = (((base_rows as f64) * ratio / d as f64).ceil() as u64).max(STRATIFIED_MIN_ROWS);

    // Pass 1: strata sizes.
    let pass1 = format!(
        "CREATE TABLE {tt} AS SELECT {col_list}, count(*) AS verdict_strata_size \
         FROM {bt} GROUP BY {col_list}"
    );

    // Staircase CASE expression over strata sizes (§3.2 / Lemma 1).
    let steps = build_staircase(m, base_rows.max(1), STRATIFIED_DELTA);
    let mut case_expr = String::from("CASE");
    for step in &steps {
        case_expr.push_str(&format!(
            " WHEN verdict_strata_size > {} THEN {:.8}",
            step.threshold, step.probability
        ));
    }
    case_expr.push_str(" ELSE 1.0 END");

    // Pass 2: Bernoulli-sample each tuple with the strata-dependent probability.
    let join_cond = columns
        .iter()
        .map(|c| {
            let qc = dialect.quote_ident(c);
            format!("verdict_src.{qc} = {tt}.{qc}")
        })
        .collect::<Vec<_>>()
        .join(" AND ");
    let cols = qualified_columns("verdict_src", base_columns, dialect);
    let pass2 = if dialect.allows_rand_in_where() {
        format!(
            "CREATE TABLE {st} AS SELECT {cols}, ({case_expr}) AS {SAMPLING_PROB_COLUMN}, \
             {rand} AS {SUBSAMPLE_DRAW_COLUMN} \
             FROM {bt} AS verdict_src \
             INNER JOIN {tt} ON {join_cond} \
             WHERE {rand} < ({case_expr}) ORDER BY {rand}"
        )
    } else {
        // Impala-safe form: the random draw lives in a derived table; the
        // explicit projection keeps the helper column out of the sample.
        format!(
            "CREATE TABLE {st} AS SELECT {cols}, ({case_expr}) AS {SAMPLING_PROB_COLUMN}, \
             {rand} AS {SUBSAMPLE_DRAW_COLUMN} \
             FROM (SELECT *, {rand} AS verdict_rand FROM {bt}) AS verdict_src \
             INNER JOIN {tt} ON {join_cond} \
             WHERE verdict_src.verdict_rand < ({case_expr}) ORDER BY {rand}"
        )
    };

    let cleanup = format!("DROP TABLE IF EXISTS {tt}");
    SamplePlanSql {
        statements: vec![pass1, pass2, cleanup],
        sample_table: sample_table.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_sql::{GenericDialect, ImpalaDialect, RedshiftDialect};

    fn base_columns() -> Vec<String> {
        vec!["order_id".into(), "city".into(), "price".into()]
    }

    #[test]
    fn uniform_sample_sql_contains_probability_column() {
        let plan = build_sample_sql(
            "orders",
            "verdict_sample_orders_uniform",
            &SampleType::Uniform,
            0.01,
            1_000_000,
            0,
            &base_columns(),
            &GenericDialect,
        );
        assert_eq!(plan.statements.len(), 1);
        assert!(plan.statements[0].contains("rand() < 0.01"));
        assert!(plan.statements[0].contains(SAMPLING_PROB_COLUMN));
        // every generated statement must parse
        verdict_sql::parse_statement(&plan.statements[0]).unwrap();
    }

    #[test]
    fn impala_uniform_sample_avoids_rand_in_where() {
        let plan = build_sample_sql(
            "orders",
            "s",
            &SampleType::Uniform,
            0.01,
            1_000_000,
            0,
            &base_columns(),
            &ImpalaDialect,
        );
        assert!(plan.statements[0].contains("verdict_rand < 0.01"));
        assert!(plan.statements[0].contains("SELECT *, rand() AS verdict_rand"));
        verdict_sql::parse_statement(&plan.statements[0]).unwrap();
    }

    #[test]
    fn hashed_sample_uses_dialect_hash() {
        let plan = build_sample_sql(
            "orders",
            "s",
            &SampleType::Hashed {
                columns: vec!["order_id".into()],
            },
            0.01,
            1_000_000,
            0,
            &base_columns(),
            &RedshiftDialect,
        );
        assert!(plan.statements[0].contains("crc32"));
        assert!(plan.statements[0].contains("< 10000"));
        // the subsample draw follows the key, not rand()
        assert!(plan.statements[0].contains(
            "(mod(strtol(crc32(order_id), 16), 1000000)) / 10000.0 AS verdict_subsample_u"
        ));
    }

    #[test]
    fn stratified_sample_generates_two_passes_and_cleanup() {
        let plan = build_sample_sql(
            "orders",
            "s",
            &SampleType::Stratified {
                columns: vec!["city".into()],
            },
            0.01,
            1_000_000,
            24,
            &base_columns(),
            &GenericDialect,
        );
        assert_eq!(plan.statements.len(), 3);
        assert!(plan.statements[0].contains("GROUP BY city"));
        assert!(plan.statements[1].contains("CASE WHEN verdict_strata_size >"));
        assert!(plan.statements[2].starts_with("DROP TABLE"));
        for s in &plan.statements {
            verdict_sql::parse_statement(s).unwrap();
        }
    }

    #[test]
    fn stratified_case_probabilities_decrease_with_size() {
        let plan = build_sample_sql(
            "orders",
            "s",
            &SampleType::Stratified {
                columns: vec!["city".into()],
            },
            0.01,
            100_000,
            10,
            &base_columns(),
            &GenericDialect,
        );
        // extract the THEN probabilities of the projection's CASE expression
        // (the text before WHERE) and check monotonicity: descending
        // thresholds => ascending probabilities as we read the CASE branches.
        let sql = plan.statements[1].split(" WHERE ").next().unwrap();
        let probs: Vec<f64> = sql
            .split("THEN ")
            .skip(1)
            .filter_map(|chunk| chunk.split_whitespace().next())
            .filter_map(|tok| tok.parse::<f64>().ok())
            .collect();
        assert!(probs.len() >= 2);
        for w in probs.windows(2) {
            assert!(
                w[0] <= w[1] + 1e-9,
                "expected ascending probabilities, got {probs:?}"
            );
        }
    }
}
