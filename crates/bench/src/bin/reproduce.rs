//! Regenerates every table and figure of the VerdictDB evaluation at laptop
//! scale and prints them in a paper-aligned layout.
//!
//! Run with: `cargo run --release -p verdict-bench --bin reproduce`
//!
//! Pass `--quick` to use smaller datasets (used in CI smoke runs).  A
//! statement the session refuses stops the run with exit status 1, naming
//! its query.

use std::time::Duration;
use verdict_bench::*;

fn fail(message: String) -> ! {
    eprintln!("reproduce: {message}");
    std::process::exit(1)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (insta_scale, tpch_scale, ratio) = if quick {
        (0.05, 0.08, 0.05)
    } else {
        (0.3, 0.5, 0.02)
    };

    println!("# VerdictDB-rs — reproduction run (insta scale {insta_scale}, tpch scale {tpch_scale}, τ = {ratio})\n");
    println!("Latencies are medians of {TIMED_RUNS} runs per side, the two sides alternating.\n");

    // ----- Figures 4 / 9 / 10 -------------------------------------------------
    println!("## Figures 4 & 9 (speedups) and Figure 10 (actual relative errors)\n");
    let ctx = workload_context(insta_scale, tpch_scale, ratio);
    let rows = speedup_experiment(&ctx).unwrap_or_else(|e| fail(e));
    println!("| query | exact ms | approx ms | speedup | actual rel. error | claimed rel. error | missing groups | fallback |");
    println!("|-------|---------:|----------:|--------:|------------------:|-------------------:|---------------:|----------|");
    for r in &rows {
        println!(
            "| {} | {:.2} | {:.2} | {:.2}x | {:.2}% | {:.2}% | {} | {} |",
            r.query,
            ms(r.exact_elapsed),
            ms(r.approx_elapsed),
            speedup(r.exact_elapsed, r.approx_elapsed),
            100.0 * r.accuracy.worst_relative_error,
            100.0 * r.claimed_relative_error,
            r.accuracy.missing_groups,
            if r.fell_back { "exact" } else { "" }
        );
    }
    let speedups: Vec<f64> = rows
        .iter()
        .filter(|r| !r.fell_back)
        .map(|r| speedup(r.exact_elapsed, r.approx_elapsed))
        .collect();
    let geo_mean = (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp();
    println!(
        "\nspeedup over the {} approximated queries: geometric mean {geo_mean:.2}x, maximum {:.2}x",
        speedups.len(),
        speedups.iter().copied().fold(0.0, f64::max)
    );
    let worst_err = rows
        .iter()
        .map(|r| r.accuracy.worst_relative_error)
        .fold(0.0, f64::max);
    println!(
        "worst actual relative error across the workload: {:.2}%\n",
        100.0 * worst_err
    );

    // ----- Figure 5 -------------------------------------------------------------
    println!("## Figure 5 (speedup vs. data size, sample size fixed)\n");
    println!("| scale factor | exact ms | approx ms | speedup |");
    println!("|-------------:|---------:|----------:|--------:|");
    let scales: Vec<f64> = if quick {
        vec![0.05, 0.1, 0.2]
    } else {
        vec![0.1, 0.25, 0.5, 1.0]
    };
    for (scale, exact, approx) in scaling_experiment(&scales).unwrap_or_else(|e| fail(e)) {
        println!(
            "| {scale} | {:.2} | {:.2} | {:.2}x |",
            ms(exact),
            ms(approx),
            speedup(exact, approx)
        );
    }
    println!();

    // ----- Figure 6 -------------------------------------------------------------
    println!("## Figure 6 (VerdictDB vs tightly-integrated AQP)\n");
    println!("| query | verdictdb ms | integrated ms | verdict wins |");
    println!("|-------|-------------:|--------------:|--------------|");
    let comparison = integrated_comparison(&ctx).unwrap_or_else(|e| fail(e));
    let mut wins = Vec::new();
    for (id, verdict, integrated) in &comparison {
        match integrated {
            Ok(integrated) => {
                let won = verdict < integrated;
                println!(
                    "| {id} | {:.2} | {:.2} | {} |",
                    ms(*verdict),
                    ms(*integrated),
                    if won { "yes" } else { "" }
                );
                if won {
                    wins.push(id.as_str());
                }
            }
            Err(refusal) => println!("| {id} | {:.2} | refused: {refusal} | |", ms(*verdict)),
        }
    }
    println!(
        "\nVerdictDB is faster on {}/{} queries: {}.\n",
        wins.len(),
        comparison.len(),
        if wins.is_empty() {
            "none".to_string()
        } else {
            wins.join(", ")
        }
    );

    // ----- Table 2 ---------------------------------------------------------------
    println!("## Table 2 (sampling-based vs native approximate aggregates)\n");
    println!(
        "| aggregate | verdict rows scanned | native rows scanned | verdict err | native err |"
    );
    println!(
        "|-----------|---------------------:|--------------------:|------------:|-----------:|"
    );
    for (label, v_rows, n_rows, v_err, n_err) in native_approx_comparison(&ctx) {
        println!(
            "| {label} | {v_rows} | {n_rows} | {:.2}% | {:.2}% |",
            100.0 * v_err,
            100.0 * n_err
        );
    }
    println!();

    // ----- Figure 7 ---------------------------------------------------------------
    println!("## Figure 7 (error-estimation runtime: variational vs baselines)\n");
    println!("| query shape | variational | traditional subsampling | consolidated bootstrap |");
    println!("|-------------|------------:|------------------------:|-----------------------:|");
    let sample_rows = if quick { 20_000 } else { 100_000 };
    for (shape, v, t, b) in estimation_overhead(sample_rows, 100) {
        println!("| {shape} | {v:.1?} | {t:.1?} | {b:.1?} |");
    }
    println!();

    // ----- Figures 8a / 8b ----------------------------------------------------------
    println!("## Figure 8a (estimated vs groundtruth error across selectivity)\n");
    println!("| selectivity | estimated rel. error | groundtruth rel. error |");
    println!("|------------:|---------------------:|-----------------------:|");
    for (sel, est, truth) in accuracy::selectivity_sweep(&[0.1, 0.3, 0.5, 0.7, 0.9]) {
        println!("| {sel:.1} | {:.3}% | {:.3}% |", 100.0 * est, 100.0 * truth);
    }
    println!("\n## Figure 8b / Figure 12 (error-bound accuracy across sample sizes)\n");
    println!("| n | CLT | bootstrap | subsampling | variational |");
    println!("|--:|----:|----------:|------------:|------------:|");
    let sizes: Vec<usize> = if quick {
        vec![10_000, 50_000]
    } else {
        vec![10_000, 100_000, 1_000_000]
    };
    for (n, clt, boot, tsub, vsub) in accuracy::sample_size_sweep(&sizes, 100) {
        println!(
            "| {n} | {:.1}% | {:.1}% | {:.1}% | {:.1}% |",
            100.0 * clt,
            100.0 * boot,
            100.0 * tsub,
            100.0 * vsub
        );
    }
    println!();

    // ----- Figure 13 ------------------------------------------------------------------
    println!("## Figure 13 (accuracy / latency vs number of resamples b)\n");
    println!("| b | bootstrap err | subsampling err | variational err | bootstrap time | variational time |");
    println!("|--:|--------------:|----------------:|----------------:|---------------:|-----------------:|");
    let n13 = if quick { 50_000 } else { 500_000 };
    for (b, be, te, ve, bt, vt) in accuracy::resample_count_sweep(n13, &[10, 50, 100, 200]) {
        println!(
            "| {b} | {:.1}% | {:.1}% | {:.1}% | {bt:.1?} | {vt:.1?} |",
            100.0 * be,
            100.0 * te,
            100.0 * ve
        );
    }
    println!();

    // ----- Figure 14 -------------------------------------------------------------------
    println!("## Figure 14 (effect of the subsample size ns = n^x)\n");
    println!("| exponent x | relative error of the bound |");
    println!("|-----------:|----------------------------:|");
    let n14 = if quick { 100_000 } else { 500_000 };
    for (x, err) in accuracy::subsample_size_sweep(n14, &[0.25, 0.333, 0.5, 0.667, 0.75]) {
        println!("| {x:.3} | {:.1}% |", 100.0 * err);
    }
    println!();

    // ----- Figure 11 ------------------------------------------------------------------
    println!("## Figure 11 (sample preparation time vs data movement)\n");
    println!("| task | time |");
    println!("|------|-----:|");
    for (task, t) in preparation_time(if quick { 0.05 } else { 0.3 }) {
        println!("| {task} | {t:.1?} |");
    }
    println!();
}
