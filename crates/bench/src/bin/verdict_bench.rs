//! `verdict-bench` — writes the kernel perf snapshot and gates against it.
//!
//! ```text
//! verdict-bench --write BENCH_kernels.json   # measure everything, write the snapshot
//! verdict-bench --check BENCH_kernels.json   # re-measure the gated rows, exit 1 on a regression
//! ```
//!
//! Every gated number is a ratio of two timings from the same run, which a
//! busier or slower machine moves far less than it moves seconds:
//!
//! * each kernel row's `speedup` — its scalar reference over the kernel,
//!   the two sides timed alternately within every repetition
//!   ([`kernel::scalar_vs_vectorized_rows`]);
//! * the stream's `one_shot_over_first_frame`
//!   ([`kernel::progressive_stream`]).
//!
//! A fresh ratio below [`FLOOR`] times its committed value fails, on any
//! core count; so does a committed row the fresh run does not produce (a
//! stale snapshot).  A fresh row the snapshot lacks is reported as new and
//! passes.  The stream's full drain is held to a fixed bar instead: it may
//! cost at most [`STREAM_OVER_ONE_SHOT_BAR`] times the one-shot answer.
//!
//! `--write` also records rows nothing gates: the morsel-parallel kernels
//! against the serial pool ([`kernel::parallel_rows`]), whose ratio is the
//! core count as much as the code, and the session / backend dispatch
//! overheads ([`kernel::dispatch_rows`]), whose noise is wider than the
//! bars they serve.
//!
//! The snapshot is written one entry per line, and [`gated_ratios`] reads
//! exactly those lines back (this workspace has no JSON dependency).

use verdict_bench::kernel::{self, KernelRow, StreamBench};
use verdict_engine::ThreadPool;

/// A fresh ratio below this share of its committed value fails the gate:
/// the 0.25 bound `BENCHMARK.json` puts on the workloads' timings.
const FLOOR: f64 = 0.75;

/// Bar on fresh `full_stream_secs / one_shot_secs`: a full drain does the
/// one-shot scan's per-row work once plus one state snapshot and assembly
/// per frame, so it stays near 1 — the buffer-and-refold executor this bar
/// replaced sat at 3.15.
const STREAM_OVER_ONE_SHOT_BAR: f64 = 1.3;

/// The gated name of the stream's one-shot ÷ first-frame ratio.
const STREAM_FIRST_FRAME: &str = "stream_first_frame";

/// Everything `--write` measures.
struct Snapshot {
    parallelism: usize,
    cpus: usize,
    rustc: String,
    kernels: Vec<KernelRow>,
    stream: StreamBench,
    parallel: Vec<KernelRow>,
    dispatch: Vec<KernelRow>,
}

/// `rows` as snapshot lines, the two timings under the given keys.
fn rows_json(rows: &[KernelRow], reference_key: &str, kernel_key: &str) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"name\": \"{}\", \"{reference_key}\": {:.9}, \"{kernel_key}\": {:.9}, \
                 \"speedup\": {:.3} }}",
                r.name,
                r.reference_secs,
                r.kernel_secs,
                r.speedup()
            )
        })
        .collect();
    lines.join(",\n")
}

fn snapshot_json(s: &Snapshot) -> String {
    let st = &s.stream;
    format!(
        "{{\n  \"rows\": {rows},\n  \"reps\": {reps},\n  \"parallelism\": {},\n  \
         \"cpus\": {},\n  \"rustc\": \"{}\",\n  \"kernels\": [\n{}\n  ],\n  \
         \"stream\": {{\n    \"scramble_rows\": {stream_rows},\n    \"block_rows\": 65536,\n    \
         \"frames\": {},\n    \"one_shot_secs\": {:.6},\n    \
         \"time_to_first_frame_secs\": {:.6},\n    \"full_stream_secs\": {:.6},\n    \
         \"full_stream_over_one_shot\": {:.3},\n    \"one_shot_over_first_frame\": {:.3},\n    \
         \"early_stop_target\": 0.01,\n    \"early_stop_secs\": {:.6},\n    \
         \"early_stop_fraction\": {:.4}\n  }},\n  \"parallel_kernels\": [\n{}\n  ],\n  \
         \"dispatch\": [\n{}\n  ]\n}}\n",
        s.parallelism,
        s.cpus,
        s.rustc,
        rows_json(&s.kernels, "scalar_secs", "vectorized_secs"),
        st.frames,
        st.one_shot_secs,
        st.first_frame_secs,
        st.full_stream_secs,
        drain_over_one_shot(st),
        one_shot_over_first_frame(st),
        st.early_stop_secs,
        st.early_stop_fraction,
        rows_json(&s.parallel, "serial_secs", "parallel_secs"),
        rows_json(&s.dispatch, "direct_secs", "routed_secs"),
        rows = kernel::ROWS,
        reps = kernel::REPS,
        stream_rows = kernel::STREAM_ROWS,
    )
}

fn drain_over_one_shot(s: &StreamBench) -> f64 {
    s.full_stream_secs / s.one_shot_secs.max(1e-12)
}

fn one_shot_over_first_frame(s: &StreamBench) -> f64 {
    s.one_shot_secs / s.first_frame_secs.max(1e-12)
}

/// The gated ratios of a fresh run, by name.
fn fresh_ratios(kernels: &[KernelRow], stream: &StreamBench) -> Vec<(String, f64)> {
    kernels
        .iter()
        .map(|r| (r.name.to_string(), r.speedup()))
        .chain([(
            STREAM_FIRST_FRAME.to_string(),
            one_shot_over_first_frame(stream),
        )])
        .collect()
}

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

/// The committed gated ratios of a snapshot: the `speedup` of each row of
/// the `"kernels"` array, and the stream's `one_shot_over_first_frame`.
fn gated_ratios(text: &str) -> Vec<(String, f64)> {
    let mut in_kernels = false;
    let mut ratios = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with("\"kernels\"") {
            in_kernels = true;
        } else if trimmed.starts_with(']') {
            in_kernels = false;
        } else if in_kernels {
            if let (Some(name), Some(ratio)) = (extract_name(line), extract_number(line, "speedup"))
            {
                ratios.push((name, ratio));
            }
        } else if let Some(ratio) = extract_number(line, "one_shot_over_first_frame") {
            ratios.push((STREAM_FIRST_FRAME.to_string(), ratio));
        }
    }
    ratios
}

/// How one gated row fared.
#[derive(Debug, PartialEq)]
enum Verdict {
    Held,
    New,
    Regressed,
    Missing,
}

/// One line of the gate's report.
#[derive(Debug)]
struct Line {
    name: String,
    /// What the fresh number had to meet.
    bar: String,
    fresh: String,
    verdict: Verdict,
}

impl Line {
    fn failed(&self) -> bool {
        matches!(self.verdict, Verdict::Regressed | Verdict::Missing)
    }
}

/// Holds the fresh ratios against the committed ones and the fresh drain
/// ratio against its bar.
fn gate(committed: &[(String, f64)], fresh: &[(String, f64)], drain: f64) -> Vec<Line> {
    let mut lines: Vec<Line> = fresh
        .iter()
        .map(|(name, ratio)| {
            let (bar, verdict) = match committed.iter().find(|(n, _)| n == name) {
                Some((_, was)) => (
                    format!("≥ {:.2}x", FLOOR * was),
                    if *ratio < FLOOR * was {
                        Verdict::Regressed
                    } else {
                        Verdict::Held
                    },
                ),
                None => ("—".to_string(), Verdict::New),
            };
            Line {
                name: name.clone(),
                bar,
                fresh: format!("{ratio:.2}x"),
                verdict,
            }
        })
        .collect();
    lines.extend(
        committed
            .iter()
            .filter(|(name, _)| !fresh.iter().any(|(n, _)| n == name))
            .map(|(name, was)| Line {
                name: name.clone(),
                bar: format!("≥ {:.2}x", FLOOR * was),
                fresh: "—".to_string(),
                verdict: Verdict::Missing,
            }),
    );
    lines.push(Line {
        name: "stream_drain_over_one_shot".to_string(),
        bar: format!("≤ {STREAM_OVER_ONE_SHOT_BAR:.2}x"),
        fresh: format!("{drain:.2}x"),
        verdict: if drain > STREAM_OVER_ONE_SHOT_BAR {
            Verdict::Regressed
        } else {
            Verdict::Held
        },
    });
    lines
}

const MS: (&str, f64) = ("ms", 1e3);
const US: (&str, f64) = ("µs", 1e6);

fn print_rows(title: &str, reference: &str, kernel: &str, unit: (&str, f64), rows: &[KernelRow]) {
    let (unit, scale) = unit;
    println!("\n## {title}\n");
    println!("| row | {reference} ({unit}) | {kernel} ({unit}) | speedup |");
    println!("|-----|------:|------:|--------:|");
    for r in rows {
        println!(
            "| {} | {:.3} | {:.3} | {:.2}x |",
            r.name,
            r.reference_secs * scale,
            r.kernel_secs * scale,
            r.speedup()
        );
    }
}

fn print_stream(s: &StreamBench) {
    println!(
        "\n## progressive stream ({}-row scramble, {} frames)\n\n\
         one-shot {:.1} ms, first frame {:.1} ms, full drain {:.1} ms, \
         early stop {:.1} ms ({:.0}% of the scramble)",
        kernel::STREAM_ROWS,
        s.frames,
        s.one_shot_secs * 1e3,
        s.first_frame_secs * 1e3,
        s.full_stream_secs * 1e3,
        s.early_stop_secs * 1e3,
        100.0 * s.early_stop_fraction
    );
}

fn usage() -> ! {
    eprintln!("usage: verdict-bench (--write | --check) BENCH_kernels.json");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (write, path) = match args.as_slice() {
        [mode, path] if mode == "--write" => (true, path),
        [mode, path] if mode == "--check" => (false, path),
        _ => usage(),
    };
    // Read before measuring: a missing snapshot should not cost a full run.
    let committed = if write {
        Vec::new()
    } else {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("verdict-bench: cannot read {path}: {e}");
            std::process::exit(2);
        });
        let committed = gated_ratios(&text);
        if committed.is_empty() {
            eprintln!("verdict-bench: no gated rows in {path}");
            std::process::exit(2);
        }
        committed
    };

    println!(
        "# verdict-bench — {} rows, median of {}, {} cpu(s), {}",
        kernel::ROWS,
        kernel::REPS,
        kernel::cpus(),
        kernel::rustc_version()
    );
    let kernels = kernel::scalar_vs_vectorized_rows();
    print_rows(
        "scalar Value path vs kernels",
        "scalar",
        "kernel",
        MS,
        &kernels,
    );
    let stream = kernel::progressive_stream();
    print_stream(&stream);

    if write {
        let pool = ThreadPool::with_default_parallelism();
        let snapshot = Snapshot {
            parallelism: pool.parallelism(),
            cpus: kernel::cpus(),
            rustc: kernel::rustc_version(),
            parallel: kernel::parallel_rows(&pool),
            dispatch: kernel::dispatch_rows(),
            kernels,
            stream,
        };
        let title = format!("serial vs {} threads (recorded)", snapshot.parallelism);
        print_rows(&title, "serial", "parallel", MS, &snapshot.parallel);
        print_rows(
            "dispatch (recorded)",
            "direct",
            "routed",
            US,
            &snapshot.dispatch,
        );
        if let Err(e) = std::fs::write(path, snapshot_json(&snapshot)) {
            eprintln!("verdict-bench: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("\nwrote {path}");
        return;
    }

    let lines = gate(
        &committed,
        &fresh_ratios(&kernels, &stream),
        drain_over_one_shot(&stream),
    );
    println!("\n## gate: fresh ratios vs {path} (floor {FLOOR} × committed)\n");
    println!("| row | bar | fresh | verdict |");
    println!("|-----|----:|------:|---------|");
    for l in &lines {
        println!("| {} | {} | {} | {:?} |", l.name, l.bar, l.fresh, l.verdict);
    }
    let failures = lines.iter().filter(|l| l.failed()).count();
    if failures > 0 {
        eprintln!(
            "\nverdict-bench: {failures} row(s) failed the gate; if the change is \
             intentional, regenerate with `verdict-bench --write {path}` and commit it"
        );
        std::process::exit(1);
    }
    println!("\nall gated rows held");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratios(rows: &[(&str, f64)]) -> Vec<(String, f64)> {
        rows.iter().map(|(n, r)| (n.to_string(), *r)).collect()
    }

    fn verdict<'a>(lines: &'a [Line], name: &str) -> &'a Line {
        lines.iter().find(|l| l.name == name).expect(name)
    }

    #[test]
    fn a_ratio_below_the_floor_fails_and_one_at_it_holds() {
        let committed = ratios(&[("filter_gt", 4.0), ("sum_avg", 4.0)]);
        let fresh = ratios(&[("filter_gt", 2.99), ("sum_avg", 3.0)]);
        let lines = gate(&committed, &fresh, 0.8);
        assert_eq!(verdict(&lines, "filter_gt").verdict, Verdict::Regressed);
        assert_eq!(verdict(&lines, "sum_avg").verdict, Verdict::Held);
        assert_eq!(lines.iter().filter(|l| l.failed()).count(), 1);
    }

    #[test]
    fn a_committed_row_missing_from_the_fresh_run_fails() {
        let committed = ratios(&[("filter_gt", 4.0), ("gone", 2.0)]);
        let lines = gate(&committed, &ratios(&[("filter_gt", 4.0)]), 0.8);
        let gone = verdict(&lines, "gone");
        assert_eq!(gone.verdict, Verdict::Missing);
        assert!(gone.failed());
    }

    #[test]
    fn a_fresh_row_the_snapshot_lacks_passes() {
        let fresh = ratios(&[("filter_gt", 4.0), ("brand_new", 0.1)]);
        let lines = gate(&ratios(&[("filter_gt", 4.0)]), &fresh, 0.8);
        assert_eq!(verdict(&lines, "brand_new").verdict, Verdict::New);
        assert!(lines.iter().all(|l| !l.failed()));
    }

    #[test]
    fn a_drain_over_the_bar_fails() {
        let same = ratios(&[("filter_gt", 4.0)]);
        let drain = |ratio| {
            gate(&same, &same, ratio)
                .into_iter()
                .find(|l| l.name == "stream_drain_over_one_shot")
                .expect("drain line")
                .verdict
        };
        assert_eq!(drain(STREAM_OVER_ONE_SHOT_BAR), Verdict::Held);
        assert_eq!(drain(1.31), Verdict::Regressed);
    }

    #[test]
    fn the_reader_parses_every_gated_row_the_writer_emits() {
        let row = |name, reference_secs, kernel_secs| KernelRow {
            name,
            reference_secs,
            kernel_secs,
        };
        let snapshot = Snapshot {
            parallelism: 2,
            cpus: 2,
            rustc: "rustc 1.0.0".into(),
            kernels: vec![
                row("filter_gt", 0.012, 0.0018),
                row("sum_avg", 0.0044, 0.0011),
            ],
            stream: StreamBench {
                one_shot_secs: 0.043,
                first_frame_secs: 0.0023,
                full_stream_secs: 0.036,
                frames: 16,
                early_stop_secs: 0.0042,
                early_stop_fraction: 0.13,
            },
            // Same names as gated rows, also with a `speedup`: must not be read.
            parallel: vec![row("filter_gt", 0.0018, 0.0019)],
            dispatch: vec![row("session_dispatch", 5.6e-6, 5.3e-6)],
        };
        let fresh = fresh_ratios(&snapshot.kernels, &snapshot.stream);
        let read = gated_ratios(&snapshot_json(&snapshot));
        assert_eq!(read.len(), fresh.len());
        for ((name, ratio), (read_name, read_ratio)) in fresh.iter().zip(&read) {
            assert_eq!(name, read_name);
            assert!(
                (ratio - read_ratio).abs() < 1e-3,
                "{name}: {ratio} vs {read_ratio}"
            );
        }
    }
}
