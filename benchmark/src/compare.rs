//! `--compare A B`: the regression rule of the choosing-metrics guide over
//! two sets of run files.
//!
//! For every pairing of end-to-end metric and workload it reports each
//! side's median and quartiles, applies the metric's bound from
//! `BENCHMARK.json` to the medians, and says `unresolved` — not `ok` — where
//! the spread between a side's own quartiles is wider than the bound
//! (`setup_s` is exempt from the spread rule, as in the acceptance check).
//! Runs are paired in file-name order to count how often B beat A.  A side
//! on which more operations failed than on the other is a regression
//! whatever its timings say.

use crate::json::Json;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct RunFile {
    pub workload: String,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Reads the untraced run files of `dir` (or `dir/runs`), in name order.
pub fn load_runs(dir: &Path) -> Result<Vec<RunFile>, String> {
    let nested = dir.join("runs");
    let dir = if nested.is_dir() {
        nested.as_path()
    } else {
        dir
    };
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut runs = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(run) = parse_run(&doc) {
            runs.push(run);
        }
    }
    Ok(runs)
}

/// `None` for traced runs and for files that are not run files.
pub fn parse_run(doc: &Json) -> Option<RunFile> {
    if doc.get("trace")?.as_f64()? != 0.0 {
        return None;
    }
    let result = doc.get("result")?;
    let metrics = result
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Some(RunFile {
        workload: doc.get("workload")?.as_str()?.to_string(),
        seed: doc.get("seed")?.as_f64()? as u64,
        attempted: result.get("attempted")?.as_f64()? as u64,
        failed: result.get("failed")?.as_f64()? as u64,
        metrics,
    })
}

pub fn load_bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json)?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry".to_string())
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Option<Side> {
        match values {
            [] => None,
            [v] => Some(Side {
                n: 1,
                q1: *v,
                median: *v,
                q3: *v,
            }),
            _ => {
                let [q1, median, q3] = quartiles(values)?;
                Some(Side {
                    n: values.len(),
                    q1,
                    median,
                    q3,
                })
            }
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Side,
    pub b: Side,
    /// Share of A's median by which B's median is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    /// `(pairs B won, pairs compared)`, ties counting for neither.
    pub b_wins: (usize, usize),
    pub verdict: Verdict,
}

fn values<'a>(runs: &'a [RunFile], workload: &'a str, metric: &'a str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

pub fn compare(a: &[RunFile], b: &[RunFile], bounds: &[Bound]) -> Vec<Row> {
    let mut workloads: Vec<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut rows = Vec::new();
    for workload in workloads {
        for bound in bounds {
            let (va, vb) = (
                values(a, workload, &bound.name),
                values(b, workload, &bound.name),
            );
            let (Some(sa), Some(sb)) = (Side::of(&va), Side::of(&vb)) else {
                continue;
            };
            let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
            let worse_by = if sa.median == 0.0 {
                0.0
            } else {
                sign * (sb.median - sa.median) / sa.median.abs()
            };
            let pairs: Vec<(f64, f64)> = va.iter().copied().zip(vb.iter().copied()).collect();
            let wins = pairs.iter().filter(|(x, y)| sign * (y - x) < 0.0).count();
            let decided = pairs.iter().filter(|(x, y)| x != y).count();
            let noisy =
                bound.name != "setup_s" && (sa.spread() > bound.bound || sb.spread() > bound.bound);
            let verdict = if worse_by > bound.bound {
                Verdict::Regression
            } else if noisy {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: bound.name.clone(),
                a: sa,
                b: sb,
                worse_by,
                bound: bound.bound,
                b_wins: (wins, decided),
                verdict,
            });
        }
    }
    rows
}

/// Failed operations over operations attempted, pooled over a side's runs.
#[derive(Debug, Clone, PartialEq)]
pub struct FailRow {
    pub workload: String,
    pub a: (u64, u64),
    pub b: (u64, u64),
}

impl FailRow {
    fn ratio((failed, attempted): (u64, u64)) -> f64 {
        failed as f64 / attempted.max(1) as f64
    }

    /// The bound on the fail ratio is 0: any rise is a regression.
    pub fn regression(&self) -> bool {
        Self::ratio(self.b) > Self::ratio(self.a)
    }
}

pub fn fail_ratios(a: &[RunFile], b: &[RunFile]) -> Vec<FailRow> {
    let pooled = |runs: &[RunFile]| {
        let mut by_workload: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for r in runs {
            let slot = by_workload.entry(r.workload.clone()).or_default();
            slot.0 += r.failed;
            slot.1 += r.attempted;
        }
        by_workload
    };
    let (pa, pb) = (pooled(a), pooled(b));
    pa.iter()
        .filter_map(|(w, &a)| {
            Some(FailRow {
                workload: w.clone(),
                a,
                b: *pb.get(w)?,
            })
        })
        .collect()
}

/// Metrics that are pure functions of the code (the sampling seed is fixed):
/// every run of one side must report the same value.  Returns a line per
/// violation.  A difference *between* the sides is not one: that is a change
/// in accuracy, and goes through the metric's bound like any other.
pub fn repeatability(side: &str, runs: &[RunFile], metrics: &[&str]) -> Vec<String> {
    let mut seen: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for run in runs {
        for (name, value) in &run.metrics {
            if metrics.contains(&name.as_str()) {
                let slot = seen
                    .entry((run.workload.clone(), name.clone()))
                    .or_default();
                if !slot.contains(value) {
                    slot.push(*value);
                }
            }
        }
    }
    seen.into_iter()
        .filter(|(_, values)| values.len() > 1)
        .map(|((w, m), values)| format!("side {side}: {m} @ {w} does not repeat: {values:?}"))
        .collect()
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<15} {:<22} {:>3} {:>12} {:>12} {:>12} {:>3} {:>12} {:>12} {:>12} {:>8} {:>6} {:>6}  verdict",
        "workload", "metric", "nA", "A q1", "A median", "A q3", "nB", "B q1", "B median", "B q3", "worse%", "bound%", "B wins"
    );
    for r in rows {
        println!(
            "{:<15} {:<22} {:>3} {:>12.5} {:>12.5} {:>12.5} {:>3} {:>12.5} {:>12.5} {:>12.5} {:>8.2} {:>6.1} {:>3}/{:<3} {}",
            r.workload,
            r.metric,
            r.a.n,
            r.a.q1,
            r.a.median,
            r.a.q3,
            r.b.n,
            r.b.q1,
            r.b.median,
            r.b.q3,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.b_wins.0,
            r.b_wins.1,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Regression => "REGRESSION",
            }
        );
    }
}

pub fn print_fail_ratios(rows: &[FailRow]) {
    for r in rows {
        println!(
            "{:<15} {:<22} A {}/{} B {}/{} {}",
            r.workload,
            "fail_ratio",
            r.a.0,
            r.a.1,
            r.b.0,
            r.b.1,
            if r.regression() { "REGRESSION" } else { "ok" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(workload: &str, metric: &str, values: &[f64]) -> Vec<RunFile> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| RunFile {
                workload: workload.into(),
                seed: i as u64,
                attempted: 100,
                failed: 0,
                metrics: vec![(metric.into(), *v)],
            })
            .collect()
    }

    fn bounds() -> Vec<Bound> {
        load_bounds(
            r#"{"end_to_end": [
                {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "stmts_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap()
    }

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn same_numbers_are_ok() {
        let a = runs("w", "op_p50_ms", &STEADY);
        let rows = compare(&a, &a, &bounds());
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[0].b_wins, (0, 0));
        assert_eq!(rows[0].a.median, 100.0);
    }

    #[test]
    fn a_slower_median_beyond_the_bound_is_a_regression() {
        let a = runs("w", "op_p50_ms", &STEADY);
        let slower: Vec<f64> = STEADY.iter().map(|v| v * 1.2).collect();
        let rows = compare(&a, &runs("w", "op_p50_ms", &slower), &bounds());
        assert_eq!(rows[0].verdict, Verdict::Regression);
        assert!((rows[0].worse_by - 0.2).abs() < 1e-9);
        // the same change is an improvement when read the other way round
        let rows = compare(&runs("w", "op_p50_ms", &slower), &a, &bounds());
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert_eq!(rows[0].b_wins, (5, 5));
    }

    #[test]
    fn direction_follows_the_metric() {
        let a = runs("w", "stmts_per_s", &STEADY);
        let fewer: Vec<f64> = STEADY.iter().map(|v| v * 0.8).collect();
        let rows = compare(&a, &runs("w", "stmts_per_s", &fewer), &bounds());
        assert_eq!(rows[0].verdict, Verdict::Regression);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_except_for_setup() {
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        let a = runs("w", "op_p50_ms", &noisy);
        assert_eq!(compare(&a, &a, &bounds())[0].verdict, Verdict::Unresolved);
        let s = runs("w", "setup_s", &noisy);
        assert_eq!(compare(&s, &s, &bounds())[0].verdict, Verdict::Ok);
    }

    #[test]
    fn run_files_round_trip_and_traced_runs_are_skipped() {
        let doc = |trace: f64| {
            Json::obj(vec![
                ("workload", Json::str("adhoc_mix")),
                ("trace", Json::Num(trace)),
                ("seed", Json::Num(3.0)),
                (
                    "result",
                    Json::obj(vec![
                        ("attempted", Json::Num(40.0)),
                        ("failed", Json::Num(2.0)),
                        (
                            "metrics",
                            Json::obj(vec![(
                                "op_p50_ms",
                                Json::obj(vec![
                                    ("value", Json::Num(1.25)),
                                    ("unit", Json::str("ms")),
                                ]),
                            )]),
                        ),
                    ]),
                ),
            ])
        };
        let parsed = parse_run(&Json::parse(&doc(0.0).render()).unwrap()).unwrap();
        assert_eq!(parsed.seed, 3);
        assert_eq!((parsed.attempted, parsed.failed), (40, 2));
        assert_eq!(parsed.metrics, vec![("op_p50_ms".to_string(), 1.25)]);
        assert!(parse_run(&doc(1.0)).is_none());
    }

    #[test]
    fn repeatability_is_checked_within_a_side_and_accuracy_goes_through_its_bound() {
        let a = runs("w", "ci_coverage", &[0.95, 0.95]);
        let b = runs("w", "ci_coverage", &[0.90, 0.90]);
        assert!(repeatability("A", &a, &["ci_coverage"]).is_empty());
        assert!(repeatability("B", &b, &["ci_coverage"]).is_empty());
        let mut mixed = a.clone();
        mixed.extend(b.clone());
        assert_eq!(repeatability("A", &mixed, &["ci_coverage"]).len(), 1);
        // B's worse coverage is a regression under the metric's own bound.
        let bounds = load_bounds(
            r#"{"end_to_end": [
                {"name": "ci_coverage", "unit": "ratio", "better": "higher", "bound": 0.000001}]}"#,
        )
        .unwrap();
        assert_eq!(compare(&a, &b, &bounds)[0].verdict, Verdict::Regression);
        assert_eq!(compare(&b, &a, &bounds)[0].verdict, Verdict::Ok);
        assert_eq!(compare(&a, &a, &bounds)[0].verdict, Verdict::Ok);
    }

    #[test]
    fn more_failed_operations_on_b_is_a_regression() {
        let a = runs("w", "op_p50_ms", &STEADY);
        let mut b = a.clone();
        assert!(!fail_ratios(&a, &b)[0].regression());
        b[3].failed = 1;
        let rows = fail_ratios(&a, &b);
        assert_eq!((rows[0].a, rows[0].b), ((0, 500), (1, 500)));
        assert!(rows[0].regression());
        assert!(!fail_ratios(&b, &a)[0].regression());
    }
}
