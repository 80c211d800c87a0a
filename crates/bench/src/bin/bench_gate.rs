//! CI bench-regression gate for the sweep engine and the streaming
//! trace-analysis subsystem.
//!
//! Re-measures the `fig1_sweep_throughput` suite — the sweep configurations
//! *and* the `tracebench` trace-ingestion configurations that
//! `run_all_experiments` commits to `BENCH_sweep.json` — and compares each
//! measurement (`perms_per_sec` / `accesses_per_sec`) against the committed
//! baseline. The gate fails — exit code 1 — when any configuration
//! regresses by more than the tolerance (default 25%), or when a baselined
//! configuration is no longer measured at all. The fresh measurements are
//! always written next to the baseline as `BENCH_sweep.fresh.json`, so CI
//! can upload them as an artifact (and a deliberate baseline refresh is one
//! `mv` away).
//!
//! ```sh
//! cargo run --release -p symloc-bench --bin bench_gate [baseline.json]
//! ```
//!
//! Environment:
//! * `BENCH_GATE_TOLERANCE` — allowed fractional slowdown (default `0.25`).
//! * `BENCH_GATE_RUNS` — timed repetitions per configuration (default `3`).

use symloc_bench::sweepbench::{
    baseline_hardware_threads, baseline_path, compare_to_baseline, measure_suite, parse_baseline,
    suite_json, GateVerdict,
};
use symloc_bench::tracebench::{
    compare_ratios_to_baseline, compare_trace_to_baseline, measure_trace_suite,
    metered_overhead_ratio, parse_ratio_baseline, parse_trace_baseline,
};
use symloc_core::obs::render_table;
use symloc_par::default_threads;

/// Floor on the metering-overhead throughput ratio
/// (`trace_exact_metered_single_thread` / `trace_exact_single_thread`):
/// wrapping the exact engine in a `MeteredSink` must cost at most ~3%.
/// The pair is single-threaded and its halves alternate run by run on the
/// same host (at least 9 timed runs each), so unlike the committed
/// speedup ratios this is gated *everywhere* — it compares the code
/// against itself, not against another machine. Override with
/// `BENCH_GATE_OVERHEAD_FLOOR`.
const METERED_OVERHEAD_FLOOR: f64 = 0.97;

/// One suite row of the closing verdict table: Pass/Info/Fail counts plus
/// the worst fresh-over-baseline delta seen in that suite.
fn summary_row(suite: &str, verdicts: &[&GateVerdict]) -> Vec<String> {
    let (mut pass, mut info, mut fail) = (0usize, 0usize, 0usize);
    let mut worst: Option<f64> = None;
    for v in verdicts {
        let ratio = match v {
            GateVerdict::Ok { ratio } => {
                pass += 1;
                Some(*ratio)
            }
            GateVerdict::Info { ratio } => {
                info += 1;
                Some(*ratio)
            }
            GateVerdict::Regressed { ratio } => {
                fail += 1;
                Some(*ratio)
            }
            GateVerdict::Missing => {
                fail += 1;
                None
            }
        };
        if let Some(r) = ratio {
            worst = Some(worst.map_or(r, |w| if r < w { r } else { w }));
        }
    }
    vec![
        suite.to_string(),
        pass.to_string(),
        info.to_string(),
        fail.to_string(),
        worst.map_or_else(
            || "-".to_string(),
            |w| format!("{:+.1}%", (w - 1.0) * 100.0),
        ),
    ]
}

fn verdict_cell(verdict: &GateVerdict, regressions: &mut usize) -> (String, &'static str) {
    match verdict {
        GateVerdict::Ok { ratio } => (format!("{ratio:.2}"), "ok"),
        GateVerdict::Regressed { ratio } => {
            *regressions += 1;
            (format!("{ratio:.2}"), "REGRESSED")
        }
        GateVerdict::Info { ratio } => (format!("{ratio:.2}"), "info (not gated on this host)"),
        GateVerdict::Missing => {
            *regressions += 1;
            ("-".to_string(), "MISSING")
        }
    }
}

fn main() {
    let baseline_file = std::env::args()
        .nth(1)
        .map_or_else(baseline_path, std::path::PathBuf::from);
    let tolerance: f64 = std::env::var("BENCH_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);
    let runs: usize = std::env::var("BENCH_GATE_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);

    let baseline_text = match std::fs::read_to_string(&baseline_file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!(
                "bench_gate: cannot read baseline {}: {e}",
                baseline_file.display()
            );
            std::process::exit(1);
        }
    };
    let baseline = match parse_baseline(&baseline_text) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!(
                "bench_gate: malformed baseline {}: {e}",
                baseline_file.display()
            );
            std::process::exit(1);
        }
    };
    let trace_baseline = match parse_trace_baseline(&baseline_text) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!(
                "bench_gate: malformed trace baseline {}: {e}",
                baseline_file.display()
            );
            std::process::exit(1);
        }
    };

    if let Some(base_hw) = baseline_hardware_threads(&baseline_text) {
        let here = default_threads() as u64;
        if base_hw != here {
            eprintln!(
                "bench_gate: WARNING — baseline was measured with {base_hw} hardware \
                 thread(s) but this machine has {here}; absolute throughput comparisons \
                 across machines lean on the tolerance. Consider refreshing the \
                 baseline on this machine (run_all_experiments --bench-only)."
            );
        }
    }
    println!(
        "bench_gate: re-measuring {} sweep + {} trace configurations (tolerance {:.0}%, {} runs)\n",
        baseline.len(),
        trace_baseline.len(),
        tolerance * 100.0,
        runs
    );
    let fresh = measure_suite(runs);
    let trace_fresh = measure_trace_suite(runs);

    // Always leave the fresh numbers on disk for the CI artifact.
    let fresh_path = baseline_file.with_file_name("BENCH_sweep.fresh.json");
    if let Err(e) = std::fs::write(&fresh_path, suite_json(&fresh, &trace_fresh)) {
        eprintln!("warning: cannot write {}: {e}", fresh_path.display());
    } else {
        println!("\nwrote {}", fresh_path.display());
    }

    let mut regressions = 0usize;
    let results = compare_to_baseline(&baseline, &fresh, tolerance);
    println!(
        "\n{:<44} {:>4} {:>14} {:>14} {:>8}  verdict",
        "name", "m", "baseline", "fresh", "ratio"
    );
    for r in &results {
        let (ratio, verdict) = verdict_cell(&r.verdict, &mut regressions);
        println!(
            "{:<44} {:>4} {:>14.0} {:>14} {:>8}  {verdict}",
            r.name,
            r.m,
            r.baseline,
            r.fresh
                .map_or_else(|| "-".to_string(), |f| format!("{f:.0}")),
            ratio,
        );
    }
    let trace_results = compare_trace_to_baseline(&trace_baseline, &trace_fresh, tolerance);
    for r in &trace_results {
        let (ratio, verdict) = verdict_cell(&r.verdict, &mut regressions);
        println!(
            "{:<44} {:>4} {:>14.0} {:>14} {:>8}  {verdict}",
            r.name,
            "-",
            r.baseline,
            r.fresh
                .map_or_else(|| "-".to_string(), |f| format!("{f:.0}")),
            ratio,
        );
    }
    // Committed speedup ratios: hard-gated only when this host's thread
    // count matches the baseline's and shards can actually run
    // concurrently; otherwise the ratio measures the machine, not the code,
    // so a drop is an informational warning.
    let ratio_baseline = parse_ratio_baseline(&baseline_text);
    let here = default_threads() as u64;
    let ratios_informational = baseline_hardware_threads(&baseline_text) != Some(here) || here == 1;
    if ratios_informational && !ratio_baseline.is_empty() {
        eprintln!(
            "bench_gate: NOTE — speedup ratios are informational on this host \
             (its hardware thread count differs from the baseline's, or it has \
             only one); drops warn instead of failing"
        );
    }
    let ratio_results = compare_ratios_to_baseline(
        &ratio_baseline,
        &trace_fresh,
        tolerance,
        ratios_informational,
    );
    for r in &ratio_results {
        let (ratio, verdict) = verdict_cell(&r.verdict, &mut regressions);
        println!(
            "{:<44} {:>4} {:>14.2} {:>14} {:>8}  {verdict}",
            r.name,
            "-",
            r.baseline,
            r.fresh
                .map_or_else(|| "-".to_string(), |f| format!("{f:.2}")),
            ratio,
        );
    }
    // The metering-overhead floor: always hard, host-independent (see
    // `METERED_OVERHEAD_FLOOR`). A missing pair is gated too — dropping
    // the overhead measurement would silently retire the guarantee.
    let overhead_floor: f64 = std::env::var("BENCH_GATE_OVERHEAD_FLOOR")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(METERED_OVERHEAD_FLOOR);
    let overhead_ok = match metered_overhead_ratio(&trace_fresh) {
        Some(ratio) if ratio < overhead_floor => {
            regressions += 1;
            eprintln!(
                "\nbench_gate: metering overhead ratio {ratio:.3} is below the \
                 {overhead_floor:.2} floor — the MeteredSink costs more than \
                 {:.0}% of exact-engine throughput",
                (1.0 - overhead_floor) * 100.0
            );
            false
        }
        Some(ratio) => {
            println!(
                "\nmetering overhead ratio {ratio:.3} (floor {overhead_floor:.2}; \
                 single-threaded pair, gated on every host)"
            );
            true
        }
        None => {
            regressions += 1;
            eprintln!(
                "\nbench_gate: the metering-overhead pair is missing from the fresh \
                 suite — cannot verify the MeteredSink stays within {:.0}% of free",
                (1.0 - overhead_floor) * 100.0
            );
            false
        }
    };
    // A measurement disappearing from the fresh run is a different failure
    // than a slowdown (usually a renamed or dropped configuration), so name
    // the missing configurations explicitly as a baseline-vs-fresh diff.
    let missing: Vec<&str> = results
        .iter()
        .map(|r| (&r.name, &r.verdict))
        .chain(trace_results.iter().map(|r| (&r.name, &r.verdict)))
        .chain(ratio_results.iter().map(|r| (&r.name, &r.verdict)))
        .filter(|(_, v)| matches!(v, GateVerdict::Missing))
        .map(|(name, _)| name.as_str())
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "\nbench_gate: {} baselined configuration(s) missing from the fresh run:",
            missing.len()
        );
        for name in &missing {
            eprintln!("  - {name}");
        }
        eprintln!(
            "  (renamed or dropped? refresh the baseline deliberately with \
             run_all_experiments --bench-only)"
        );
    }
    // The one-table verdict summary: per-suite Pass/Info/Fail counts and
    // the worst delta, rendered with the metrics registry's table helper.
    let sweep_verdicts: Vec<&GateVerdict> = results.iter().map(|r| &r.verdict).collect();
    let trace_verdicts: Vec<&GateVerdict> = trace_results.iter().map(|r| &r.verdict).collect();
    let ratio_verdicts: Vec<&GateVerdict> = ratio_results.iter().map(|r| &r.verdict).collect();
    let rows = vec![
        summary_row("sweep", &sweep_verdicts),
        summary_row("trace", &trace_verdicts),
        summary_row("ratios", &ratio_verdicts),
        vec![
            "overhead floor".to_string(),
            usize::from(overhead_ok).to_string(),
            "0".to_string(),
            usize::from(!overhead_ok).to_string(),
            "-".to_string(),
        ],
    ];
    print!(
        "\n{}",
        render_table(&["suite", "pass", "info", "fail", "worst delta"], &rows)
    );
    if regressions > 0 {
        eprintln!(
            "\nbench_gate: {regressions} configuration(s) regressed more than {:.0}% \
             (or went missing) vs {}",
            tolerance * 100.0,
            baseline_file.display()
        );
        std::process::exit(1);
    }
    println!("\nbench_gate: all configurations within tolerance");
}
