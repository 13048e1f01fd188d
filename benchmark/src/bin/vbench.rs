//! End-to-end binary: one workload per process through the SQL surface
//! alone, spans off.  Also hosts `compare A B`.
//!
//! ```text
//! vbench --workload <name> --seed <n> --seconds <s> --trace 0 [--out <dir>]
//! vbench compare <dir A> <dir B> <BENCHMARK.json>
//! ```

use std::path::Path;
use std::process::ExitCode;
use verdict_benchmark::{adhoc, args, compare, env, report, setup, spec, stream, wire};

fn main() -> ExitCode {
    env::prepare();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match &argv[1..] {
            [a, b, benchmark_json] => {
                run_compare(Path::new(a), Path::new(b), Path::new(benchmark_json))
            }
            _ => {
                eprintln!("usage: vbench compare <dir A> <dir B> <BENCHMARK.json>");
                ExitCode::from(2)
            }
        };
    }
    let args = match args::parse(&argv) {
        Ok(a) if !a.trace => a,
        Ok(_) => {
            eprintln!("--trace 1 is served by vbench_layers");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("{}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let outcome = match args.workload.as_str() {
        "adhoc_mix" => adhoc::run(&setup::LARGE, 1, args.seed, args.seconds),
        "planner_bound" => adhoc::run(&setup::SMALL, 60, args.seed, args.seconds),
        "dashboard_wire" => wire::run(args.seed, args.seconds),
        _ => stream::run(args.seed, args.seconds, &args.out),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{} aborted: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    // `1 - fail_ratio`: a metric may never be 0, which a fail ratio should be.
    let checks = &outcome.checks;
    let ok_ratio = 1.0 - checks.failed as f64 / checks.attempted.max(1) as f64;
    outcome.metric("ok_ratio", ok_ratio);
    outcome.metric("peak_rss_mb", env::peak_rss_mb());
    report::finish(&args, &outcome, &spec::END_TO_END)
}

/// Exit code 1 on a regression or a value that should repeat and does not,
/// 3 when the only finding is an unresolved (too noisy) pairing.
fn run_compare(a: &Path, b: &Path, benchmark_json: &Path) -> ExitCode {
    let load = || -> Result<_, String> {
        let text = std::fs::read_to_string(benchmark_json)
            .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
        Ok((
            compare::load_runs(a)?,
            compare::load_runs(b)?,
            compare::load_bounds(&text)?,
        ))
    };
    let (runs_a, runs_b, bounds) = match load() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if runs_a.is_empty() || runs_b.is_empty() {
        eprintln!(
            "no untraced run files in {} or {}",
            a.display(),
            b.display()
        );
        return ExitCode::from(2);
    }
    let rows = compare::compare(&runs_a, &runs_b, &bounds);
    compare::print(&rows);
    let fail_rows = compare::fail_ratios(&runs_a, &runs_b);
    compare::print_fail_ratios(&fail_rows);
    let fixed = ["actual_rel_error_med", "ci_coverage"];
    let mut unrepeatable = compare::repeatability("A", &runs_a, &fixed);
    unrepeatable.extend(compare::repeatability("B", &runs_b, &fixed));
    for line in &unrepeatable {
        println!("NOT REPEATABLE: {line}");
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (regressions, unresolved) = (
        count(compare::Verdict::Regression) + fail_rows.iter().filter(|r| r.regression()).count(),
        count(compare::Verdict::Unresolved),
    );
    println!(
        "{} pairings: {regressions} regression(s), {unresolved} unresolved, {} value(s) not repeatable",
        rows.len() + fail_rows.len(),
        unrepeatable.len()
    );
    if regressions > 0 || !unrepeatable.is_empty() {
        ExitCode::from(1)
    } else if unresolved > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}
