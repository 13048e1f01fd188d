//! Sample preparation: the offline stage of VerdictDB (§3 of the paper).
//!
//! Three sample types are built offline (§3.1): **uniform**, **hashed**
//! (universe) and **stratified**; the paper's fourth, **irregular**, only
//! arises at query time when samples are joined.  Every sample table stores the per-tuple
//! sampling probability in an extra column named
//! [`SAMPLING_PROB_COLUMN`], exactly as the paper prescribes, so that query
//! rewriting can build Horvitz–Thompson style unbiased estimates in SQL.
//! A second extra column, [`SUBSAMPLE_DRAW_COLUMN`], freezes one uniform
//! draw per tuple (per key, for a hashed sample) at build time; the
//! rewriter derives the variational subsample id from it (`1 + floor(u·b)`),
//! mirroring the scramble *block* column of the shipped VerdictDB.  Materialising the draw makes query
//! answers a pure function of the scramble contents and the configuration —
//! which is what lets a progressive stream's final frame be bit-identical
//! to the one-shot answer, and repeated identical queries cache-coherent.

pub mod builder;
pub mod maintenance;
pub mod policy;

use std::fmt;

/// Name of the extra column holding each tuple's sampling probability.
pub const SAMPLING_PROB_COLUMN: &str = "verdict_sampling_prob";

/// Name of the extra column holding each tuple's frozen uniform draw
/// `u ∈ [0, 1)`, from which the rewriter derives the variational subsample
/// id as `1 + floor(u · b)` for any subsample count `b`.  Uniform and
/// stratified samples draw it per tuple with `rand()`.  A hashed sample keeps
/// or drops a whole key, so it is a cluster sample over the key and its draw
/// follows the key (`hashed_draw`): every tuple of a key lands in the same
/// subsample, at build time and at every `REFRESH`, and the spread across
/// subsamples then carries the between-key variance.
pub const SUBSAMPLE_DRAW_COLUMN: &str = "verdict_subsample_u";

/// Failure probability δ of the per-stratum minimum-size guarantee of
/// Lemma 1 (the paper's value).
pub const STRATIFIED_DELTA: f64 = 0.001;

/// Least number of tuples a stratified sample keeps per stratum: the `m` of
/// Equation 1 is `|T|·τ/d`, clamped below by this so tiny tables still keep
/// a usable per-group count.
pub const STRATIFIED_MIN_ROWS: u64 = 100;

/// Prefix for all tables VerdictDB creates in the underlying database.
pub const SAMPLE_TABLE_PREFIX: &str = "verdict_sample";

/// `alias.c1, alias.c2, …` — explicit projection of the base columns, shared
/// by sample construction and append maintenance so both always emit the
/// same arity (base columns + the probability column) and qualification.
/// Column names are quoted per the target dialect when they need it.
pub(crate) fn qualified_columns(
    alias: &str,
    columns: &[String],
    dialect: &dyn verdict_sql::Dialect,
) -> String {
    columns
        .iter()
        .map(|c| format!("{alias}.{}", dialect.quote_ident(c)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Resolution of the integer hash used to implement `h(t.C) < τ`.
const HASH_DOMAIN: u64 = 1_000_000;

/// The key hash `h(columns) ∈ [0, HASH_DOMAIN)` of a hashed (universe)
/// sample and its keep threshold τ·`HASH_DOMAIN`.  Multi-column universe
/// samples hash the concatenation of the columns.
fn key_hash(columns: &[String], ratio: f64, dialect: &dyn verdict_sql::Dialect) -> (String, u64) {
    let quoted: Vec<String> = columns.iter().map(|c| dialect.quote_ident(c)).collect();
    let key_expr = if quoted.len() == 1 {
        quoted[0].clone()
    } else {
        format!("concat({})", quoted.join(", "))
    };
    let threshold = (ratio * HASH_DOMAIN as f64).round() as u64;
    (dialect.hash_function(&key_expr, HASH_DOMAIN), threshold)
}

/// The predicate `h(columns) < τ` a hashed (universe) sample keeps tuples by
/// — one spelling for sample construction and append maintenance, so a
/// `REFRESH` samples the universe `CREATE SCRAMBLE … METHOD hashed` did.
pub(crate) fn hashed_predicate(
    columns: &[String],
    ratio: f64,
    dialect: &dyn verdict_sql::Dialect,
) -> String {
    let (hash, threshold) = key_hash(columns, ratio, dialect);
    format!("{hash} < {threshold}")
}

/// A hashed sample's subsample draw `h / threshold`: uniform over the kept
/// keys and the same for every tuple of a key.  The divisor is a decimal
/// literal so that no dialect divides in integers (Redshift's integer `mod`
/// would put every tuple in subsample 1).
pub(crate) fn hashed_draw(
    columns: &[String],
    ratio: f64,
    dialect: &dyn verdict_sql::Dialect,
) -> String {
    let (hash, threshold) = key_hash(columns, ratio, dialect);
    format!("({hash}) / {threshold}.0")
}

/// The sample types VerdictDB constructs offline (§3.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SampleType {
    /// Every tuple sampled independently with probability τ.
    Uniform,
    /// "Universe" sample: keep tuples whose hashed column-set value falls
    /// below τ; required for joining two samples and for count-distinct.
    Hashed {
        /// The hashed (universe) column set.
        columns: Vec<String>,
    },
    /// At least `min(|T|·τ/d, stratum size)` tuples retained per distinct
    /// value of the column set (Equation 1).
    Stratified {
        /// The stratification column set.
        columns: Vec<String>,
    },
}

impl SampleType {
    /// Short tag used when naming sample tables.
    pub fn tag(&self) -> &'static str {
        match self {
            SampleType::Uniform => "uniform",
            SampleType::Hashed { .. } => "hashed",
            SampleType::Stratified { .. } => "stratified",
        }
    }

    /// The column set this sample is built on (empty for uniform samples).
    pub fn columns(&self) -> &[String] {
        match self {
            SampleType::Hashed { columns } | SampleType::Stratified { columns } => columns,
            _ => &[],
        }
    }
}

impl fmt::Display for SampleType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleType::Uniform => write!(f, "uniform"),
            SampleType::Hashed { columns } => write!(f, "hashed({})", columns.join(",")),
            SampleType::Stratified { columns } => write!(f, "stratified({})", columns.join(",")),
        }
    }
}

/// Metadata describing one sample table, recorded at creation time.
///
/// The paper stores this in a dedicated schema inside the database catalog;
/// [`crate::meta::MetaStore`] keeps the records in memory for planning, and a
/// store-backed context persists them as one blob
/// ([`crate::meta::encode_samples`]) rewritten after every registry change.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleMeta {
    /// The original ("base") table this sample was drawn from.
    pub base_table: String,
    /// Name of the sample table inside the underlying database.
    pub sample_table: String,
    /// Sample type (and its column set, when applicable).
    pub sample_type: SampleType,
    /// The sampling parameter τ used at creation time.
    pub ratio: f64,
    /// Number of rows in the sample table (measured after creation).
    pub sample_rows: u64,
    /// Number of rows in the base table at creation time.
    pub base_rows: u64,
    /// Sample rows added by incremental append maintenance since the last
    /// full (re)build.  Appended rows land at the **end** of the sample
    /// table and are not re-shuffled, so a nonzero value means the
    /// build-time "any prefix is a uniform subsample" property no longer
    /// holds; progressive execution declines such scrambles (falling back
    /// to a correct one-shot answer) until a batchless
    /// `REFRESH SCRAMBLES <t>` rebuild restores the shuffle.
    pub appended_rows: u64,
}

impl SampleMeta {
    /// The fraction of the base table materialised in this sample.
    pub fn actual_ratio(&self) -> f64 {
        if self.base_rows == 0 {
            0.0
        } else {
            self.sample_rows as f64 / self.base_rows as f64
        }
    }

    /// The canonical name for a sample table of the given type over a base table.
    pub fn table_name_for(base_table: &str, sample_type: &SampleType) -> String {
        let base = base_table.replace('.', "_");
        let mut name = format!("{SAMPLE_TABLE_PREFIX}_{base}_{}", sample_type.tag());
        let cols = sample_type.columns();
        if !cols.is_empty() {
            name.push('_');
            name.push_str(&cols.join("_"));
        }
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_table_names_are_deterministic_and_distinct() {
        let uniform = SampleMeta::table_name_for("orders", &SampleType::Uniform);
        let hashed = SampleMeta::table_name_for(
            "orders",
            &SampleType::Hashed {
                columns: vec!["order_id".into()],
            },
        );
        let stratified = SampleMeta::table_name_for(
            "orders",
            &SampleType::Stratified {
                columns: vec!["city".into()],
            },
        );
        assert_eq!(uniform, "verdict_sample_orders_uniform");
        assert_eq!(hashed, "verdict_sample_orders_hashed_order_id");
        assert_eq!(stratified, "verdict_sample_orders_stratified_city");
        assert_ne!(uniform, hashed);
    }

    #[test]
    fn actual_ratio_handles_empty_base() {
        let m = SampleMeta {
            base_table: "t".into(),
            sample_table: "s".into(),
            sample_type: SampleType::Uniform,
            ratio: 0.01,
            sample_rows: 100,
            base_rows: 10_000,
            appended_rows: 0,
        };
        assert!((m.actual_ratio() - 0.01).abs() < 1e-12);
        let empty = SampleMeta { base_rows: 0, ..m };
        assert_eq!(empty.actual_ratio(), 0.0);
    }

    #[test]
    fn hashed_draw_parses_and_divides_in_float_on_every_dialect() {
        use verdict_sql::ast::{BinaryOp, Expr, Literal};
        use verdict_sql::{GenericDialect, ImpalaDialect, RedshiftDialect, SparkSqlDialect};
        let columns = ["order_id".to_string()];
        let dialects: [&dyn verdict_sql::Dialect; 4] = [
            &GenericDialect,
            &ImpalaDialect,
            &SparkSqlDialect,
            &RedshiftDialect,
        ];
        for dialect in dialects {
            let draw = hashed_draw(&columns, 0.01, dialect);
            let parsed = verdict_sql::parse_expression(&draw)
                .unwrap_or_else(|e| panic!("{}: {draw}: {e}", dialect.name()));
            // An integer hash over a decimal literal: Redshift's `mod(…) / n`
            // with an integer `n` would truncate every draw to 0.
            let Expr::BinaryOp {
                op: BinaryOp::Divide,
                right,
                ..
            } = parsed
            else {
                panic!("{}: {draw} is not a division", dialect.name())
            };
            assert_eq!(*right, Expr::Literal(Literal::Float(10_000.0)), "{draw}");
            // the keep predicate compares the same hash with the same threshold
            let kept = hashed_predicate(&columns, 0.01, dialect);
            assert_eq!(
                draw,
                format!("({}) / 10000.0", kept.trim_end_matches(" < 10000"))
            );
        }
    }

    #[test]
    fn sample_type_display_and_columns() {
        let s = SampleType::Stratified {
            columns: vec!["a".into(), "b".into()],
        };
        assert_eq!(s.to_string(), "stratified(a,b)");
        assert_eq!(s.columns(), &["a".to_string(), "b".to_string()]);
        assert!(SampleType::Uniform.columns().is_empty());
    }
}
