//! `verdict-bench` — the kernel perf regression gate.
//!
//! ```text
//! verdict-bench --check BENCH_kernels.json [--tolerance 0.10] [--strict]
//! verdict-bench                    # informational run, no gate
//! ```
//!
//! `--check` re-runs the scalar-vs-vectorized kernel rows (the same code the
//! `micro_kernels` bench uses, via [`verdict_bench::kernel`]) and compares
//! each fresh `vectorized_secs` against the committed baseline snapshot.
//! Any kernel more than `tolerance` (default 10%) slower than its baseline
//! fails the gate with exit code 1; a baseline entry with no matching fresh
//! row also fails (stale baseline — regenerate it with `cargo bench -p
//! verdict-bench --bench micro_kernels`).  Fresh rows absent from the
//! baseline are reported as new and pass.
//!
//! The progressive stream ([`kernel::progressive_stream`]) is gated too:
//! draining a `STREAM` frame by frame may cost at most
//! [`STREAM_OVER_ONE_SHOT_BAR`] times answering the same query one-shot (a
//! ratio of two fresh timings, so it needs no baseline), and the fresh
//! time-to-first-frame is held against the snapshot's like a kernel row.
//!
//! On top of the relative tolerance, a regression must also exceed
//! [`NOISE_FLOOR_SECS`] in absolute terms: for sub-millisecond kernels a
//! 10% swing is scheduler noise, not a regression, and a gate that flakes
//! on noise gets deleted rather than fixed.  For the same reason, on a
//! machine with fewer than [`MIN_GATE_CPUS`] cores the verdicts are
//! reported but the gate exits 0 (advisory mode) — back-to-back medians
//! on an oversubscribed 1-core box swing by 30%+ with no code change at
//! all.  `--strict` forces a hard failure regardless of core count.
//!
//! The baseline is parsed with a purpose-built scanner for the snapshot's
//! own line-per-entry format (this workspace has no JSON dependency); only
//! lines carrying both a `"name"` and a `"vectorized_secs"` key are
//! consulted, which selects exactly the gated `"kernels"` section — plus the
//! one `"time_to_first_frame_secs"` line of the `"stream"` section.

use verdict_bench::kernel;

/// Absolute slack a regression must clear in addition to the relative
/// tolerance: one millisecond, i.e. one nanosecond per row at
/// [`kernel::ROWS`] rows — below the run-to-run jitter of medians on a
/// shared CI runner, so only real slowdowns can clear both bars.
const NOISE_FLOOR_SECS: f64 = 0.001;

/// Bar on fresh `full_stream_secs / one_shot_secs`: a full drain does the
/// one-shot scan's per-row work once plus one state snapshot and assembly
/// per frame, so it stays near 1 — the buffer-and-refold executor this bar
/// replaced sat at 3.15.
const STREAM_OVER_ONE_SHOT_BAR: f64 = 1.3;

/// Below this core count gate verdicts are advisory (exit 0 unless
/// `--strict`): the same threshold [`kernel::warn_if_few_cpus`] warns at.
const MIN_GATE_CPUS: usize = 4;

/// Pulls the string following `"name":` out of one snapshot line.
fn extract_name(line: &str) -> Option<String> {
    let rest = line.split("\"name\"").nth(1)?;
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Pulls the number following `"<key>":` out of one snapshot line.
fn extract_number(line: &str, key: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{key}\"")).nth(1)?;
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `(name, vectorized_secs)` pairs of the baseline's gated section.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|line| {
            Some((
                extract_name(line)?,
                extract_number(line, "vectorized_secs")?,
            ))
        })
        .collect()
}

fn usage() -> ! {
    eprintln!("usage: verdict-bench [--check BENCH_kernels.json] [--tolerance 0.10] [--strict]");
    std::process::exit(2);
}

fn main() {
    let mut check: Option<String> = None;
    let mut tolerance = 0.10f64;
    let mut strict = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = Some(args.next().unwrap_or_else(|| usage())),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|t| t.parse().ok())
                    .filter(|t: &f64| *t >= 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--strict" => strict = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    kernel::warn_if_few_cpus();
    println!(
        "# verdict-bench — {} rows, median of {}, {} cpu(s), {}",
        kernel::ROWS,
        kernel::REPS,
        kernel::cpus(),
        kernel::rustc_version()
    );
    let fresh = kernel::scalar_vs_vectorized_rows();

    let Some(baseline_path) = check else {
        println!("\n| kernel | scalar (ms) | vectorized (ms) | speedup |");
        println!("|--------|------------:|----------------:|--------:|");
        for r in &fresh {
            println!(
                "| {} | {:.2} | {:.2} | {:.2}x |",
                r.name,
                r.scalar_secs * 1e3,
                r.vectorized_secs * 1e3,
                r.speedup()
            );
        }
        println!("\n(no --check: informational run, nothing gated)");
        return;
    };

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("verdict-bench: cannot read baseline {baseline_path}: {e}");
            std::process::exit(2);
        }
    };
    let baseline = parse_baseline(&text);
    if baseline.is_empty() {
        eprintln!("verdict-bench: no gated kernel entries found in {baseline_path}");
        std::process::exit(2);
    }

    println!(
        "\ngate: fresh vectorized_secs vs {baseline_path} (fail above {:.0}%)\n",
        tolerance * 100.0
    );
    println!("| kernel | baseline (ms) | fresh (ms) | delta | verdict |");
    println!("|--------|--------------:|-----------:|------:|---------|");
    let mut failures = 0usize;
    for r in &fresh {
        match baseline.iter().find(|(name, _)| name == r.name) {
            Some((_, base_secs)) => {
                let delta = r.vectorized_secs / base_secs.max(1e-12) - 1.0;
                let regressed =
                    delta > tolerance && r.vectorized_secs - base_secs > NOISE_FLOOR_SECS;
                if regressed {
                    failures += 1;
                }
                println!(
                    "| {} | {:.3} | {:.3} | {:+.1}% | {} |",
                    r.name,
                    base_secs * 1e3,
                    r.vectorized_secs * 1e3,
                    delta * 100.0,
                    if regressed { "REGRESSED" } else { "ok" }
                );
            }
            None => println!(
                "| {} | — | {:.3} | — | new (no baseline) |",
                r.name,
                r.vectorized_secs * 1e3
            ),
        }
    }
    for (name, _) in &baseline {
        if !fresh.iter().any(|r| r.name == *name) {
            failures += 1;
            println!("| {name} | (in baseline) | — | — | MISSING — stale baseline |");
        }
    }

    let stream = kernel::progressive_stream();
    let over_one_shot = stream.full_stream_secs / stream.one_shot_secs.max(1e-12);
    if over_one_shot > STREAM_OVER_ONE_SHOT_BAR {
        failures += 1;
    }
    println!(
        "| stream: full drain / one-shot | ≤ {STREAM_OVER_ONE_SHOT_BAR:.2}x | {over_one_shot:.2}x \
         ({} frames, {:.1} / {:.1} ms) | — | {} |",
        stream.frames,
        stream.full_stream_secs * 1e3,
        stream.one_shot_secs * 1e3,
        if over_one_shot > STREAM_OVER_ONE_SHOT_BAR {
            "REGRESSED"
        } else {
            "ok"
        }
    );
    let base_first_frame = text
        .lines()
        .find_map(|line| extract_number(line, "time_to_first_frame_secs"));
    match base_first_frame {
        Some(base_secs) => {
            let delta = stream.first_frame_secs / base_secs.max(1e-12) - 1.0;
            let regressed =
                delta > tolerance && stream.first_frame_secs - base_secs > NOISE_FLOOR_SECS;
            if regressed {
                failures += 1;
            }
            println!(
                "| stream: time to first frame | {:.3} | {:.3} | {:+.1}% | {} |",
                base_secs * 1e3,
                stream.first_frame_secs * 1e3,
                delta * 100.0,
                if regressed { "REGRESSED" } else { "ok" }
            );
        }
        None => {
            failures += 1;
            println!("| stream: time to first frame | MISSING — stale baseline | — | — | — |");
        }
    }
    if failures > 0 {
        if kernel::cpus() < MIN_GATE_CPUS && !strict {
            eprintln!(
                "\nverdict-bench: {failures} row(s) over tolerance, but this machine \
                 has {} cpu(s) (< {MIN_GATE_CPUS}) so timings are not trustworthy — \
                 ADVISORY ONLY, not failing the gate (pass --strict to override)",
                kernel::cpus()
            );
            return;
        }
        eprintln!(
            "\nverdict-bench: {failures} row(s) failed the gate; if the change is \
             intentional, regenerate the baseline with `cargo bench -p verdict-bench \
             --bench micro_kernels` and commit BENCH_kernels.json"
        );
        std::process::exit(1);
    }
    println!(
        "\nall rows within tolerance ({:.0}% + {:.1} ms noise floor)",
        tolerance * 100.0,
        NOISE_FLOOR_SECS * 1e3
    );
}
