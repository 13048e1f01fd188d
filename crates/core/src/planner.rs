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
//! sample whose column set covers the grouping attributes; a universe join,
//! see [`SamplePlan::universe`]).  The heuristic of Appendix E.2 —
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
    /// The query's column-to-column equalities: the top-level conjuncts of
    /// its JOIN … ON conditions and of its WHERE clause.
    pub join_equalities: Vec<(JoinColumn, JoinColumn)>,
}

/// One side of an equi-join equality, as the query spelled it, in lower case.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinColumn {
    /// The qualifying alias, or `None` for a bare column name.
    pub alias: Option<String>,
    /// The column name.
    pub column: String,
}

impl JoinColumn {
    /// True when this side can be `column` of the table bound to `alias`: it
    /// is qualified by that alias or spelled bare.
    fn names(&self, alias: &str, column: &str) -> bool {
        self.alias
            .as_ref()
            .is_none_or(|a| a.eq_ignore_ascii_case(alias))
            && self.column.eq_ignore_ascii_case(column)
    }
}

/// The query's column equalities closed under transitivity: `a.k = x.k` and
/// `x.k = b.k` put `a.k` and `b.k` in one class.  Each distinct spelling is
/// listed once, with its class.
fn equality_classes<'a>(
    equalities: impl IntoIterator<Item = &'a (JoinColumn, JoinColumn)>,
) -> Vec<(&'a JoinColumn, usize)> {
    let mut sides: Vec<(&JoinColumn, usize)> = Vec::new();
    for (l, r) in equalities {
        let mut class_of = |side| match sides.iter().find(|(s, _)| *s == side) {
            Some(&(_, class)) => class,
            None => {
                sides.push((side, sides.len()));
                sides.len() - 1
            }
        };
        let (l, r) = (class_of(l), class_of(r));
        for (_, class) in sides.iter_mut().filter(|(_, class)| *class == r) {
            *class = l;
        }
    }
    sides
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
    /// Product of the per-choice sampling ratios, the universe group
    /// counting once with its smallest ratio.
    pub effective_ratio: f64,
    /// The plan's universe group (§5.1, Appendix E): aliases of the hashed
    /// choices whose hash columns the query's equi-joins equate to each
    /// other, column for column.  A joined row survives when its shared key
    /// hashes below the smallest τ, so the group is one sample, not several
    /// independent ones.  Empty, or at least two aliases.
    pub universe: Vec<String>,
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

    /// True when `alias` belongs to the plan's universe group.
    pub fn in_universe(&self, alias: &str) -> bool {
        in_group(&self.universe, alias)
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

        // Effective sampling ratio: the universe group's smallest ratio times
        // the product of the other choices' ratios.
        let mut groups = universe_groups(&choices).into_iter();
        let universe = groups.next().unwrap_or_default();
        let (mut group_ratio, mut other_ratio) = (1.0f64, 1.0f64);
        for c in &choices {
            if in_group(&universe, &c.table_ref.alias) {
                group_ratio = group_ratio.min(c.ratio());
            } else {
                other_ratio *= c.ratio();
            }
        }
        let effective_ratio = group_ratio * other_ratio;

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
        if !universe.is_empty() {
            score *= 1.5;
        }
        // A plan holds one universe group: a second one would be rewritten
        // as independent samples, weighted 1/(τ·τ′) for rows kept with
        // probability min(τ, τ′), so such a plan is never chosen.
        if groups.next().is_some() {
            score = 0.0;
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
            universe,
        }
    }
}

fn in_group(group: &[String], alias: &str) -> bool {
    group.iter().any(|a| a.eq_ignore_ascii_case(alias))
}

/// The universe groups of a candidate plan, in choice order: the connected
/// sets of at least two hashed choices linked by equated hash columns.
fn universe_groups(choices: &[TableChoice]) -> Vec<Vec<String>> {
    let classes = equality_classes(choices.iter().flat_map(|c| &c.table_ref.join_equalities));
    let hashed: Vec<(&TableRef, &[String])> = choices
        .iter()
        .filter_map(|c| match &c.sample {
            Some(SampleMeta {
                sample_type: SampleType::Hashed { columns },
                ..
            }) => Some((&c.table_ref, columns.as_slice())),
            _ => None,
        })
        .collect();
    // Every hash column of `a` is equated to the same-position one of `b`:
    // two different spellings in one class name them.  One bare spelling is
    // one column, so alone it never equates two tables' columns.
    let equated = |(a, a_cols): (&TableRef, &[String]), (b, b_cols): (&TableRef, &[String])| {
        a_cols.len() == b_cols.len()
            && a_cols.iter().zip(b_cols).all(|(x, y)| {
                classes.iter().any(|(s, class)| {
                    s.names(&a.alias, x)
                        && classes
                            .iter()
                            .any(|(t, c)| c == class && s != t && t.names(&b.alias, y))
                })
            })
    };
    // Each hashed choice joins, and so merges, every group it is equated with.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, &choice) in hashed.iter().enumerate() {
        let (linked, apart): (Vec<_>, Vec<_>) = groups
            .into_iter()
            .partition(|g| g.iter().any(|&j| equated(hashed[j], choice)));
        groups = apart;
        let mut merged: Vec<usize> = linked.into_iter().flatten().chain([i]).collect();
        merged.sort_unstable();
        groups.push(merged);
    }
    groups.retain(|g| g.len() >= 2);
    groups.sort_unstable();
    groups
        .into_iter()
        .map(|g| g.into_iter().map(|j| hashed[j].0.alias.clone()).collect())
        .collect()
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

    /// `alias.column`, or a bare `column`.
    fn side(spec: &str) -> JoinColumn {
        match spec.split_once('.') {
            Some((alias, column)) => JoinColumn {
                alias: Some(alias.into()),
                column: column.into(),
            },
            None => JoinColumn {
                alias: None,
                column: spec.into(),
            },
        }
    }

    fn table(alias: &str, name: &str, rows: u64, on: &[(&str, &str)]) -> TableRef {
        TableRef {
            alias: alias.into(),
            table: name.into(),
            rows,
            join_equalities: on.iter().map(|(l, r)| (side(l), side(r))).collect(),
        }
    }

    fn hashed(table: &str, columns: &[&str], ratio: f64, base_rows: u64) -> SampleMeta {
        SampleMeta {
            base_table: table.into(),
            sample_table: format!("verdict_sample_{table}_hashed_{}", columns.join("_")),
            sample_type: SampleType::Hashed {
                columns: columns.iter().map(|c| c.to_string()).collect(),
            },
            ratio,
            sample_rows: (base_rows as f64 * ratio) as u64,
            base_rows,
            appended_rows: 0,
        }
    }

    /// The plan over `tables` when only `samples` exist, under an I/O budget
    /// that only a plan sampling every large table fits at τ ≤ 0.1.
    fn plan_with(samples: Vec<SampleMeta>, tables: &[TableRef]) -> SamplePlan {
        let store = MetaStore::new();
        for s in samples {
            store.register(s);
        }
        let cfg = VerdictConfig::default();
        SamplePlanner::new(&store, &cfg).plan(
            tables,
            &PlanningContext {
                io_budget: 0.1,
                ..Default::default()
            },
        )
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
        let on = [("o.order_id", "p.order_id")];
        let plan = planner.plan(
            &[
                table("o", "orders", 1_000_000, &on),
                table("p", "order_products", 3_000_000, &on),
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
        assert_eq!(plan.universe, ["o", "p"]);
    }

    #[test]
    fn hashed_choices_joined_off_their_hash_columns_are_independent() {
        // iq-15's shape: `orders` hashed on order_id, `order_products` on
        // product_id.  Each hash column is a join column of its own table,
        // but the join equates neither to the other, so the two samples keep
        // or drop unrelated keys and their ratios multiply.
        let on = [
            ("o.order_id", "p.order_id"),
            ("p.product_id", "pr.product_id"),
        ];
        let plan = plan_with(
            vec![
                hashed("orders", &["order_id"], 0.1, 1_000_000),
                hashed("order_products", &["product_id"], 0.1, 3_000_000),
            ],
            &[
                table("o", "orders", 1_000_000, &on),
                table("p", "order_products", 3_000_000, &on),
                table("pr", "products", 5_000, &on),
            ],
        );
        assert!(plan.choices[0].sample.is_some() && plan.choices[1].sample.is_some());
        assert!(plan.universe.is_empty());
        assert!((plan.effective_ratio - 0.01).abs() < 1e-9, "{plan:?}");
    }

    #[test]
    fn bare_join_columns_match_hash_columns_by_name() {
        // TPC-H spells its joins unqualified: ON l_orderkey = o_orderkey.
        let on = [("l_orderkey", "o_orderkey")];
        let plan = plan_with(
            vec![
                hashed("lineitem", &["l_orderkey"], 0.1, 3_000_000),
                hashed("tpch_orders", &["o_orderkey"], 0.1, 1_000_000),
            ],
            &[
                table("lineitem", "lineitem", 3_000_000, &on),
                table("tpch_orders", "tpch_orders", 1_000_000, &on),
            ],
        );
        assert_eq!(plan.universe, ["lineitem", "tpch_orders"]);
        assert!((plan.effective_ratio - 0.1).abs() < 1e-9);
    }

    #[test]
    fn a_plan_with_two_universe_groups_is_never_chosen() {
        // a ⋈ b on k and c ⋈ d on m: the rewrite has room for one group, and
        // the other pair read as independent samples would be biased.
        let on = [("a.k", "b.k"), ("c.m", "d.m"), ("a.x", "c.x")];
        let plan = plan_with(
            vec![
                hashed("ta", &["k"], 0.1, 1_000_000),
                hashed("tb", &["k"], 0.1, 1_000_000),
                hashed("tc", &["m"], 0.1, 1_000_000),
                hashed("td", &["m"], 0.1, 1_000_000),
            ],
            &[
                table("a", "ta", 1_000_000, &on),
                table("b", "tb", 1_000_000, &on),
                table("c", "tc", 1_000_000, &on),
                table("d", "td", 1_000_000, &on),
            ],
        );
        assert!(!plan.uses_samples(), "{plan:?}");
    }

    #[test]
    fn multi_column_hash_sets_need_every_column_equated_in_order() {
        let samples = || {
            vec![
                hashed("orders", &["a", "b"], 0.1, 1_000_000),
                hashed("order_products", &["a", "b"], 0.1, 3_000_000),
            ]
        };
        let tables = |on: &[(&str, &str)]| {
            [
                table("x", "orders", 1_000_000, on),
                table("y", "order_products", 3_000_000, on),
            ]
        };
        let in_order = plan_with(samples(), &tables(&[("x.a", "y.a"), ("y.b", "x.b")]));
        assert_eq!(in_order.universe, ["x", "y"]);
        for on in [&[("x.a", "y.b"), ("x.b", "y.a")][..], &[("x.a", "y.a")]] {
            let plan = plan_with(samples(), &tables(on));
            assert!(plan.uses_samples() && plan.universe.is_empty(), "{on:?}");
        }
    }

    #[test]
    fn hash_columns_equated_through_a_third_table_form_a_universe() {
        // a ⋈ x ⋈ b: a.k = b.k only through x.k, and x is not sampled.
        let on = [("a.k", "x.k"), ("x.k", "b.k")];
        let plan = plan_with(
            vec![
                hashed("ta", &["k"], 0.1, 1_000_000),
                hashed("tb", &["k"], 0.1, 1_000_000),
            ],
            &[
                table("a", "ta", 1_000_000, &on),
                table("x", "tx", 1_000, &on),
                table("b", "tb", 1_000_000, &on),
            ],
        );
        assert_eq!(plan.universe, ["a", "b"]);
        assert!((plan.effective_ratio - 0.1).abs() < 1e-9, "{plan:?}");
    }

    #[test]
    fn one_bare_spelling_does_not_equate_two_tables_columns() {
        // `k` bare names one column, whichever table it belongs to.
        let on = [("k", "c.m")];
        let plan = plan_with(
            vec![
                hashed("ta", &["k"], 0.1, 1_000_000),
                hashed("tb", &["k"], 0.1, 1_000_000),
            ],
            &[
                table("a", "ta", 1_000_000, &on),
                table("b", "tb", 1_000_000, &on),
                table("c", "tc", 1_000, &on),
            ],
        );
        assert!(plan.uses_samples() && plan.universe.is_empty(), "{plan:?}");
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
