//! Incremental sample maintenance under data appends (Appendix D).
//!
//! All three offline sample types tolerate appends because tuples are sampled
//! independently:
//!
//! * **uniform** and **hashed** samples simply apply the same τ (and hash
//!   function) to the new batch and `INSERT` the survivors into the existing
//!   sample table;
//! * **stratified** samples reuse the per-stratum sampling probabilities that
//!   are already recorded in the sample's probability column; strata that did
//!   not exist before are sampled with a freshly computed probability.
//!
//! Staleness detection compares the recorded base-table cardinality against
//! the current one.

use crate::sample::{
    hashed_draw, hashed_predicate, qualified_columns, SampleMeta, SampleType, SAMPLING_PROB_COLUMN,
    SUBSAMPLE_DRAW_COLUMN,
};
use verdict_sql::Dialect;

/// How far a sample has drifted from its base table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Staleness {
    /// The base table has the same row count as when the sample was built.
    Fresh,
    /// The base table has grown since the sample was built.
    Stale {
        /// Number of rows appended since the sample was built.
        appended_rows: u64,
    },
    /// The base table shrank — the sample must be rebuilt from scratch
    /// (appends are the only supported incremental update).
    RequiresRebuild,
}

/// Classifies the freshness of a sample given the base table's current size.
pub fn staleness(meta: &SampleMeta, current_base_rows: u64) -> Staleness {
    use std::cmp::Ordering::*;
    match current_base_rows.cmp(&meta.base_rows) {
        Equal => Staleness::Fresh,
        Greater => Staleness::Stale {
            appended_rows: current_base_rows - meta.base_rows,
        },
        Less => Staleness::RequiresRebuild,
    }
}

/// Generates the SQL that folds an appended batch (available as
/// `batch_table`) into an existing sample.
///
/// `batch_columns` is the **base table's** column list, which the batch must
/// share (by name — physical order in the batch is irrelevant, because the
/// projection references columns explicitly).  Projecting it explicitly and
/// in base order keeps the positional `INSERT` aligned with the sample table
/// (base columns, the sampling-probability column, then the frozen
/// subsample-draw column) even when a helper `verdict_rand` column is
/// attached in a derived table.  Appended tuples receive their subsample
/// draws exactly as build time gave the original tuples theirs: a fresh
/// `rand()` for uniform and stratified samples, the key's own draw
/// (`sample::hashed_draw`) for hashed ones.
///
/// For uniform and hashed samples one `INSERT INTO … SELECT` suffices.  For
/// stratified samples the appended tuples join against the per-stratum
/// probabilities already present in the sample table; tuples from brand-new
/// strata are kept whole (probability 1), matching Appendix D.
pub fn append_sql(
    meta: &SampleMeta,
    batch_table: &str,
    batch_columns: &[String],
    dialect: &dyn Dialect,
) -> Vec<String> {
    let sample = dialect.quote_ident(&meta.sample_table);
    let batch = dialect.quote_ident(batch_table);
    let ratio = meta.ratio;
    let rand = dialect.random_function();
    match &meta.sample_type {
        SampleType::Uniform => {
            let cols = qualified_columns("verdict_src", batch_columns, dialect);
            vec![format!(
                "INSERT INTO {sample} SELECT {cols}, {ratio} AS {SAMPLING_PROB_COLUMN}, \
                 {rand} AS {SUBSAMPLE_DRAW_COLUMN} \
                 FROM (SELECT *, {rand} AS verdict_rand FROM {batch}) AS verdict_src \
                 WHERE verdict_src.verdict_rand < {ratio}"
            )]
        }
        SampleType::Hashed { columns } => {
            let kept = hashed_predicate(columns, ratio, dialect);
            let draw = hashed_draw(columns, ratio, dialect);
            // No helper column is attached, but the projection is still
            // explicit and in base order: the INSERT is positional, so a
            // batch staged with reordered columns must not corrupt the
            // sample.
            let cols = batch_columns
                .iter()
                .map(|c| dialect.quote_ident(c))
                .collect::<Vec<_>>()
                .join(", ");
            vec![format!(
                "INSERT INTO {sample} SELECT {cols}, {ratio} AS {SAMPLING_PROB_COLUMN}, \
                 {draw} AS {SUBSAMPLE_DRAW_COLUMN} \
                 FROM {batch} WHERE {kept}"
            )]
        }
        SampleType::Stratified { columns } => {
            let col_list = columns
                .iter()
                .map(|c| dialect.quote_ident(c))
                .collect::<Vec<_>>()
                .join(", ");
            let probs_table =
                dialect.quote_ident(&format!("{}_append_probs_tmp", meta.sample_table));
            let join_cond = columns
                .iter()
                .map(|c| {
                    let qc = dialect.quote_ident(c);
                    format!("verdict_src.{qc} = {probs_table}.{qc}")
                })
                .collect::<Vec<_>>()
                .join(" AND ");
            let cols = qualified_columns("verdict_src", batch_columns, dialect);
            vec![
                // A failed earlier refresh may have left the temp table
                // behind (its trailing DROP never ran); clear it first so
                // the retry is not wedged on TableAlreadyExists.
                format!("DROP TABLE IF EXISTS {probs_table}"),
                // existing per-stratum probabilities (min is arbitrary — the
                // probability is constant within a stratum)
                format!(
                    "CREATE TABLE {probs_table} AS SELECT {col_list}, \
                     min({SAMPLING_PROB_COLUMN}) AS verdict_stratum_prob \
                     FROM {sample} GROUP BY {col_list}"
                ),
                format!(
                    "INSERT INTO {sample} SELECT {cols}, \
                     coalesce({probs_table}.verdict_stratum_prob, 1.0) AS {SAMPLING_PROB_COLUMN}, \
                     {rand} AS {SUBSAMPLE_DRAW_COLUMN} \
                     FROM (SELECT *, {rand} AS verdict_rand FROM {batch}) AS verdict_src \
                     LEFT JOIN {probs_table} ON {join_cond} \
                     WHERE verdict_src.verdict_rand < coalesce({probs_table}.verdict_stratum_prob, 1.0)"
                ),
                format!("DROP TABLE IF EXISTS {probs_table}"),
            ]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verdict_sql::GenericDialect;

    fn meta(sample_type: SampleType) -> SampleMeta {
        SampleMeta {
            base_table: "orders".into(),
            sample_table: "verdict_sample_orders_x".into(),
            sample_type,
            ratio: 0.01,
            sample_rows: 10_000,
            base_rows: 1_000_000,
            appended_rows: 0,
        }
    }

    #[test]
    fn staleness_classification() {
        let m = meta(SampleType::Uniform);
        assert_eq!(staleness(&m, 1_000_000), Staleness::Fresh);
        assert_eq!(
            staleness(&m, 1_100_000),
            Staleness::Stale {
                appended_rows: 100_000
            }
        );
        assert_eq!(staleness(&m, 900_000), Staleness::RequiresRebuild);
    }

    fn batch_columns() -> Vec<String> {
        vec!["order_id".into(), "city".into(), "price".into()]
    }

    #[test]
    fn uniform_append_is_single_insert_with_explicit_projection() {
        let sql = append_sql(
            &meta(SampleType::Uniform),
            "orders_batch",
            &batch_columns(),
            &GenericDialect,
        );
        assert_eq!(sql.len(), 1);
        assert!(sql[0].starts_with("INSERT INTO"));
        // The helper verdict_rand column must not leak into the projection:
        // exactly the base columns plus the probability column are inserted.
        assert!(
            sql[0].contains("SELECT verdict_src.order_id, verdict_src.city, verdict_src.price,")
        );
        verdict_sql::parse_statement(&sql[0]).unwrap();
    }

    #[test]
    fn hashed_append_reuses_same_hash_threshold() {
        let m = meta(SampleType::Hashed {
            columns: vec!["order_id".into()],
        });
        let sql = append_sql(&m, "orders_batch", &batch_columns(), &GenericDialect);
        assert!(sql[0].contains("verdict_hash(order_id, 1000000) < 10000"));
        // an appended row of a key gets that key's build-time draw
        assert!(
            sql[0].contains("(verdict_hash(order_id, 1000000)) / 10000.0 AS verdict_subsample_u")
        );
        // Explicit base-order projection: a reordered batch must not feed
        // the positional INSERT column-shifted values.
        assert!(sql[0].contains("SELECT order_id, city, price,"));
        verdict_sql::parse_statement(&sql[0]).unwrap();
    }

    #[test]
    fn stratified_append_reuses_recorded_probabilities() {
        let m = meta(SampleType::Stratified {
            columns: vec!["city".into()],
        });
        let sql = append_sql(&m, "orders_batch", &batch_columns(), &GenericDialect);
        assert_eq!(sql.len(), 4);
        assert!(
            sql[0].starts_with("DROP TABLE IF EXISTS"),
            "a leftover temp table from a failed refresh must not wedge the retry"
        );
        assert!(sql[1].contains("GROUP BY city"));
        assert!(sql[2].contains("coalesce"));
        assert!(
            !sql[2].contains("verdict_src.*"),
            "no wildcard over the rand helper"
        );
        for s in &sql {
            verdict_sql::parse_statement(s).unwrap();
        }
    }
}
