//! Sample planning (Appendix E of the paper).
//!
//! Given the base tables referenced by a query, the available samples for
//! each, and the query's characteristics (grouping attributes, join keys,
//! aggregate classes), the planner enumerates candidate plans (one sample
//! choice — or the base table itself — per referenced table), scores each
//! candidate, discards those whose I/O cost exceeds the budget, and returns
//! the highest-scoring plan.
//!
//! Scoring follows Appendix E.1: the score is the square root of the plan's
//! *effective sampling ratio* multiplied by advantage factors (a stratified
//! sample whose column set covers the grouping attributes; a pair of hashed
//! samples joined on their hash columns).  The heuristic of Appendix E.2 —
//! keeping only the `k` best sample tables per relation — bounds the
//! enumeration when many samples exist.

use crate::config::VerdictConfig;
use crate::meta::MetaStore;
use crate::sample::{SampleMeta, SampleType};

/// Information about one base-table reference in the query.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// The alias under which the table is visible in the query (or the table
    /// name itself when no alias was given).
    pub alias: String,
    /// The base table name.
    pub table: String,
    /// Number of rows in the base table.
    pub rows: u64,
    /// Columns of this table that participate in equi-join conditions.
    pub join_columns: Vec<String>,
}

/// What the query needs from the plan, used for advantage factors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanningContext {
    /// Lower-cased column names appearing in GROUP BY.
    pub group_columns: Vec<String>,
    /// Lower-cased argument columns of count-distinct aggregates.
    pub distinct_columns: Vec<String>,
    /// Maximum fraction of the referenced data the plan may read.
    pub io_budget: f64,
}

/// The sample chosen for one table reference (None = use the base table).
#[derive(Debug, Clone, PartialEq)]
pub struct TableChoice {
    /// The table reference being planned.
    pub table_ref: TableRef,
    /// The chosen sample, or `None` to scan the base table.
    pub sample: Option<SampleMeta>,
}

impl TableChoice {
    /// Rows that will be scanned for this reference under the plan.
    pub fn scanned_rows(&self) -> u64 {
        match &self.sample {
            Some(s) => s.sample_rows,
            None => self.table_ref.rows,
        }
    }

    /// The sampling ratio contributed by this choice (1.0 when unsampled).
    pub fn ratio(&self) -> f64 {
        match &self.sample {
            Some(s) => s.actual_ratio().max(f64::MIN_POSITIVE),
            None => 1.0,
        }
    }
}

/// A complete candidate plan.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePlan {
    /// One choice per table reference of the query.
    pub choices: Vec<TableChoice>,
    /// Planner score (higher is better; Appendix E scoring).
    pub score: f64,
    /// Total rows the plan will scan.
    pub io_cost: u64,
    /// Product of the per-choice sampling ratios.
    pub effective_ratio: f64,
}

impl SamplePlan {
    /// True when at least one table reference uses a sample.
    pub fn uses_samples(&self) -> bool {
        self.choices.iter().any(|c| c.sample.is_some())
    }

    /// Names of the sample tables the plan reads, in choice order.
    pub fn sample_tables(&self) -> Vec<String> {
        self.choices
            .iter()
            .filter_map(|c| c.sample.as_ref().map(|s| s.sample_table.clone()))
            .collect()
    }

    /// The choice for a given alias, if present.
    pub fn choice_for(&self, alias: &str) -> Option<&TableChoice> {
        self.choices
            .iter()
            .find(|c| c.table_ref.alias.eq_ignore_ascii_case(alias))
    }
}

/// Plans sample usage for a query.
pub struct SamplePlanner<'a> {
    meta: &'a MetaStore,
    config: &'a VerdictConfig,
}

impl<'a> SamplePlanner<'a> {
    /// Creates a planner over the given metadata registry.
    pub fn new(meta: &'a MetaStore, config: &'a VerdictConfig) -> Self {
        SamplePlanner { meta, config }
    }

    /// Chooses the best plan for the referenced tables, or an all-base-table
    /// plan when no candidate fits the I/O budget (the paper's fallback).
    pub fn plan(&self, tables: &[TableRef], ctx: &PlanningContext) -> SamplePlan {
        // The I/O budget constrains how much of the *large* tables may be
        // read (§2.4: "for every table that exceeds a certain size…"); small
        // dimension tables are always read in full and do not count.
        let total_rows: u64 = tables
            .iter()
            .filter(|t| t.rows >= self.config.min_table_rows)
            .map(|t| t.rows)
            .sum();
        let budget_rows = ((total_rows as f64) * ctx.io_budget.max(0.0)).ceil() as u64;

        // Candidate samples per table, pruned to the top-k largest (Appendix E.2:
        // very small samples score poorly, very large ones bust the budget;
        // keeping the k best by ratio is the paper's heuristic).
        let mut per_table: Vec<Vec<Option<SampleMeta>>> = Vec::with_capacity(tables.len());
        for t in tables {
            let mut options: Vec<Option<SampleMeta>> = vec![None];
            if t.rows >= self.config.min_table_rows {
                let mut samples = self.meta.samples_for(&t.table);
                samples.sort_by(|a, b| {
                    b.actual_ratio()
                        .partial_cmp(&a.actual_ratio())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                samples.truncate(self.config.planner_top_k);
                options.extend(samples.into_iter().map(Some));
            }
            per_table.push(options);
        }

        // Enumerate the cartesian product of per-table options.
        let mut best: Option<SamplePlan> = None;
        let mut indices = vec![0usize; per_table.len()];
        loop {
            let choices: Vec<TableChoice> = tables
                .iter()
                .zip(indices.iter().zip(per_table.iter()))
                .map(|(t, (&i, opts))| TableChoice {
                    table_ref: t.clone(),
                    sample: opts[i].clone(),
                })
                .collect();
            let candidate = self.evaluate(choices, ctx);
            let within_budget =
                candidate.io_cost <= budget_rows.max(1) || !candidate.uses_samples();
            if within_budget {
                let better = match &best {
                    None => true,
                    Some(b) => candidate.score > b.score,
                };
                if better {
                    best = Some(candidate);
                }
            }
            // advance odometer
            let mut k = 0;
            loop {
                if k == indices.len() {
                    break;
                }
                indices[k] += 1;
                if indices[k] < per_table[k].len() {
                    break;
                }
                indices[k] = 0;
                k += 1;
            }
            if k == indices.len() {
                break;
            }
        }

        best.unwrap_or_else(|| {
            self.evaluate(
                tables
                    .iter()
                    .map(|t| TableChoice {
                        table_ref: t.clone(),
                        sample: None,
                    })
                    .collect(),
                ctx,
            )
        })
    }

    /// Scores one candidate plan (Appendix E.1).
    fn evaluate(&self, choices: Vec<TableChoice>, ctx: &PlanningContext) -> SamplePlan {
        let io_cost: u64 = choices
            .iter()
            .filter(|c| c.table_ref.rows >= self.config.min_table_rows)
            .map(|c| c.scanned_rows())
            .sum();

        // Effective sampling ratio: product of per-table ratios, except that a
        // pair of hashed samples joined on their hash column set contributes
        // min(r1, r2) instead of r1*r2.
        let hashed_on_join: Vec<&TableChoice> = choices
            .iter()
            .filter(|c| match &c.sample {
                Some(SampleMeta {
                    sample_type: SampleType::Hashed { columns },
                    ..
                }) => columns.iter().all(|col| {
                    c.table_ref
                        .join_columns
                        .iter()
                        .any(|j| j.eq_ignore_ascii_case(col))
                }),
                _ => false,
            })
            .collect();
        let universe_join = hashed_on_join.len() >= 2;

        let mut effective_ratio = 1.0f64;
        if universe_join {
            let min_ratio = hashed_on_join
                .iter()
                .map(|c| c.ratio())
                .fold(f64::INFINITY, f64::min);
            effective_ratio *= min_ratio;
            for c in &choices {
                let is_universe_join_member = hashed_on_join
                    .iter()
                    .any(|h| h.table_ref.alias == c.table_ref.alias);
                if !is_universe_join_member {
                    effective_ratio *= c.ratio();
                }
            }
        } else {
            for c in &choices {
                effective_ratio *= c.ratio();
            }
        }

        // Base score: sqrt of the effective sampling ratio (expected error of
        // mean-like statistics shrinks with the square root of the sample size).
        let mut score = effective_ratio.max(0.0).sqrt();

        // Advantage factors.
        for c in &choices {
            match &c.sample {
                Some(SampleMeta {
                    sample_type: SampleType::Stratified { columns },
                    ..
                }) => {
                    let covers_groups = !ctx.group_columns.is_empty()
                        && ctx
                            .group_columns
                            .iter()
                            .all(|g| columns.iter().any(|s| s.eq_ignore_ascii_case(g)));
                    if covers_groups {
                        score *= 2.0;
                    }
                }
                Some(SampleMeta {
                    sample_type: SampleType::Hashed { columns },
                    ..
                }) => {
                    let covers_distinct = !ctx.distinct_columns.is_empty()
                        && ctx
                            .distinct_columns
                            .iter()
                            .all(|d| columns.iter().any(|s| s.eq_ignore_ascii_case(d)));
                    if covers_distinct {
                        score *= 2.0;
                    }
                }
                _ => {}
            }
        }
        if universe_join {
            score *= 1.5;
        }
        // Plans that sample nothing have a score of 1 (= sqrt of ratio 1), so
        // any in-budget sampled plan with a reasonable ratio will beat them
        // only through advantage factors; instead, penalise the unsampled plan
        // so AQP is preferred whenever a sampled plan fits the budget.
        if !choices.iter().any(|c| c.sample.is_some()) {
            score *= 0.01;
        }

        SamplePlan {
            choices,
            score,
            io_cost,
            effective_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta_store() -> MetaStore {
        let store = MetaStore::new();
        for (table, rows) in [("orders", 1_000_000u64), ("order_products", 3_000_000u64)] {
            store.register(SampleMeta {
                base_table: table.into(),
                sample_table: format!("verdict_sample_{table}_uniform"),
                sample_type: SampleType::Uniform,
                ratio: 0.01,
                sample_rows: rows / 100,
                base_rows: rows,
                appended_rows: 0,
            });
            store.register(SampleMeta {
                base_table: table.into(),
                sample_table: format!("verdict_sample_{table}_hashed_order_id"),
                sample_type: SampleType::Hashed {
                    columns: vec!["order_id".into()],
                },
                ratio: 0.01,
                sample_rows: rows / 100,
                base_rows: rows,
                appended_rows: 0,
            });
        }
        store.register(SampleMeta {
            base_table: "orders".into(),
            sample_table: "verdict_sample_orders_stratified_city".into(),
            sample_type: SampleType::Stratified {
                columns: vec!["city".into()],
            },
            ratio: 0.01,
            sample_rows: 15_000,
            base_rows: 1_000_000,
            appended_rows: 0,
        });
        store
    }

    fn table(alias: &str, name: &str, rows: u64, joins: &[&str]) -> TableRef {
        TableRef {
            alias: alias.into(),
            table: name.into(),
            rows,
            join_columns: joins.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn single_table_prefers_stratified_when_grouping_matches() {
        let store = meta_store();
        let cfg = VerdictConfig::default();
        let planner = SamplePlanner::new(&store, &cfg);
        let plan = planner.plan(
            &[table("o", "orders", 1_000_000, &[])],
            &PlanningContext {
                group_columns: vec!["city".into()],
                distinct_columns: vec![],
                io_budget: 0.02,
            },
        );
        let chosen = plan.choices[0].sample.as_ref().unwrap();
        assert!(matches!(chosen.sample_type, SampleType::Stratified { .. }));
        assert!(plan.uses_samples());
    }

    #[test]
    fn join_of_two_large_tables_prefers_universe_samples() {
        let store = meta_store();
        let cfg = VerdictConfig::default();
        let planner = SamplePlanner::new(&store, &cfg);
        let plan = planner.plan(
            &[
                table("o", "orders", 1_000_000, &["order_id"]),
                table("p", "order_products", 3_000_000, &["order_id"]),
            ],
            &PlanningContext {
                group_columns: vec![],
                distinct_columns: vec![],
                io_budget: 0.02,
            },
        );
        for c in &plan.choices {
            let s = c.sample.as_ref().expect("both sides should be sampled");
            assert!(
                matches!(s.sample_type, SampleType::Hashed { .. }),
                "expected hashed sample for {}, got {}",
                c.table_ref.table,
                s.sample_type
            );
        }
        assert!((plan.effective_ratio - 0.01).abs() < 0.005);
    }

    #[test]
    fn small_tables_are_never_sampled() {
        let store = meta_store();
        let cfg = VerdictConfig::default();
        let planner = SamplePlanner::new(&store, &cfg);
        let plan = planner.plan(
            &[table("d", "orders", 5_000, &[])],
            &PlanningContext {
                io_budget: 0.02,
                ..Default::default()
            },
        );
        assert!(plan.choices[0].sample.is_none());
    }

    #[test]
    fn budget_of_zero_forces_base_tables() {
        let store = meta_store();
        let cfg = VerdictConfig::default();
        let planner = SamplePlanner::new(&store, &cfg);
        let plan = planner.plan(
            &[table("o", "orders", 1_000_000, &[])],
            &PlanningContext {
                io_budget: 0.0,
                ..Default::default()
            },
        );
        assert!(!plan.uses_samples());
    }

    #[test]
    fn count_distinct_prefers_hashed_sample_on_that_column() {
        let store = meta_store();
        let cfg = VerdictConfig::default();
        let planner = SamplePlanner::new(&store, &cfg);
        let plan = planner.plan(
            &[table("o", "orders", 1_000_000, &[])],
            &PlanningContext {
                group_columns: vec![],
                distinct_columns: vec!["order_id".into()],
                io_budget: 0.02,
            },
        );
        let chosen = plan.choices[0].sample.as_ref().unwrap();
        assert!(matches!(chosen.sample_type, SampleType::Hashed { .. }));
    }
}
