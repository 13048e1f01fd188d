//! What a run reports: counted output checks, named metrics, the result line
//! the driver reads, and the stamped run file `--compare` reads.

use crate::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// Operations attempted and failed.  An operation fails when the product
/// returns an error (typed `BUSY`/`DEADLINE` included), when an output check
/// does not hold, or when a pinned query falls back to exact execution.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub examples: Vec<String>,
}

impl Checks {
    /// Counts one operation; `problem` describes why it failed, if it did.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.fail(p);
        }
    }

    /// Records a failed check on an operation that was already counted.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.examples.len() < 8 {
            self.examples.push(problem);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.examples {
            if self.examples.len() < 8 {
                self.examples.push(e);
            }
        }
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    /// `(name, value)`; units come from [`crate::spec`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts behind the medians, printed with the report.
    pub samples: Vec<(&'static str, u64)>,
    /// Free-form facts stamped into the run file (row counts, settings).
    pub facts: Vec<(String, Json)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The driver's result object.  Every metric of `spec` must be present
    /// and finite; anything else is a harness bug and is reported as such.
    pub fn result(&self, spec: &[(&str, &str)]) -> Result<Json, String> {
        let mut metrics = Vec::new();
        for (name, unit) in spec {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push((
                name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::str(*unit)),
                ]),
            ));
        }
        Ok(Json::obj(vec![
            ("correct", Json::Bool(self.checks.failed == 0)),
            ("attempted", Json::Num(self.checks.attempted.max(1) as f64)),
            ("failed", Json::Num(self.checks.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }

    pub fn print(&self, title: &str, spec: &[(&str, &str)]) {
        println!("== {title}");
        for (name, unit) in spec {
            if let Some((_, v)) = self.metrics.iter().find(|(n, _)| n == name) {
                println!("  {name:<32} {v:>16.4} {unit}");
            }
        }
        for (name, n) in &self.samples {
            println!("  samples {name:<24} {n:>16}");
        }
        println!(
            "  operations attempted {} failed {}",
            self.checks.attempted, self.checks.failed
        );
        for e in &self.checks.examples {
            println!("  FAILED: {e}");
        }
    }
}

/// The end of both binaries: prints the report, writes the run file, prints
/// the result object as the last line, and picks the exit code (0 when every
/// check held, 1 when one failed, 2 when no result could be produced).
pub fn finish(args: &crate::args::Args, outcome: &Outcome, spec: &[(&str, &str)]) -> ExitCode {
    let mode = if args.trace { "traced" } else { "spans off" };
    outcome.print(
        &format!(
            "{} seed {} ({} s, {mode})",
            args.workload, args.seed, args.seconds
        ),
        spec,
    );
    let written = outcome.result(spec).and_then(|result| {
        let mut facts = outcome.facts.clone();
        let counts = outcome.samples.iter();
        facts.push((
            "samples".into(),
            Json::Obj(
                counts
                    .map(|(name, n)| (name.to_string(), Json::Num(*n as f64)))
                    .collect(),
            ),
        ));
        write_run_file(args, crate::env::stamp(), &facts, &result)
            .map_err(|e| format!("run file: {e}"))?;
        Ok(result)
    });
    match written {
        Ok(result) => {
            println!("{}", result.render());
            ExitCode::from((outcome.checks.failed > 0) as u8)
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Writes `<out>/runs/<workload>-t<trace>-s<seed>-<k>.json` with the first
/// free `k`, so repeated runs of one seed are all kept.
fn write_run_file(
    args: &crate::args::Args,
    stamp: Json,
    facts: &[(String, Json)],
    result: &Json,
) -> std::io::Result<PathBuf> {
    let (out, workload, trace, seed) = (&args.out, &args.workload, args.trace, args.seed);
    let dir = out.join("runs");
    std::fs::create_dir_all(&dir)?;
    let mut k = 0;
    let path = loop {
        let p = dir.join(format!("{workload}-t{}-s{seed}-{k}.json", trace as u8));
        if !p.exists() {
            break p;
        }
        k += 1;
    };
    let doc = Json::obj(vec![
        ("workload", Json::str(workload)),
        ("trace", Json::Num(trace as u8 as f64)),
        ("seed", Json::Num(seed as f64)),
        ("stamp", stamp),
        ("facts", Json::Obj(facts.to_vec())),
        ("result", result.clone()),
    ]);
    std::fs::write(&path, doc.render() + "\n")?;
    Ok(path)
}
