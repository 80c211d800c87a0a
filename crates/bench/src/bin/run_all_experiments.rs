//! Convenience driver: runs every experiment binary (E1–E14) in sequence by
//! shelling out to the already-built binaries next to itself, collecting exit
//! status per experiment and summarizing at the end; then measures the sweep
//! engine's throughput and writes the machine-readable `BENCH_sweep.json`
//! at the workspace root so the performance trajectory can be tracked across
//! PRs (the CI `bench_gate` binary compares against that file).
//!
//! ```sh
//! cargo run --release -p symloc-bench --bin run_all_experiments
//! ```
//!
//! Pass `--bench-only` to skip the experiment binaries and only refresh
//! `BENCH_sweep.json`.
//!
//! Pass `--sweep12 <checkpoint.json>` to run *only* the exhaustive
//! `m = 12` Figure-1 sweep — all 479 001 600 permutations, summed from
//! lexicographic blocks in milliseconds — sharded and checkpointed like
//! any long sweep: a killed run resumes from the checkpoint on the next
//! invocation instead of starting over (experiments and the bench JSON
//! are skipped in this mode). `--sweep12-max <n>` bounds the number of
//! shards processed per invocation.

use std::path::{Path, PathBuf};
use std::process::Command;

use symloc_bench::sweepbench::{measure_suite, speedup_at, suite_json};
use symloc_bench::tracebench::measure_trace_suite;
use symloc_core::engine::SweepSpec;
use symloc_core::shard::ShardedSweep;
use symloc_par::default_threads;

const EXPERIMENTS: &[&str] = &[
    "fig1_mrc_by_inversion",
    "fig2_chainfind_ties",
    "exp3_ranked_labeling_s11",
    "exp4_theorem2_sweep",
    "exp5_theorem3_covers",
    "exp6_mlp_locality",
    "exp7_worked_examples",
    "exp8_mahonian_partitions",
    "exp9_chainfind_scaling",
    "exp10_alternation",
    "exp11_graph_reorder",
    "exp12_stream_recency",
    "exp13_labeling_comparison",
    "exp14_good_labeling_census",
    "exp15_trace_pipeline",
];

/// Shards the `m = 12` checkpointed sweep is split into. On the Figure-1
/// block path each shard takes microseconds and a run saves once, after
/// its last shard (or at `--sweep12-max`); the count is kept so existing
/// checkpoints still resume.
const SWEEP12_SHARDS: usize = 64;

/// Directory containing the currently running binary (where the sibling
/// experiment binaries live after `cargo build`).
fn binary_dir() -> Option<PathBuf> {
    std::env::current_exe().ok()?.parent().map(PathBuf::from)
}

/// Measures the sweep throughput suite (batched engine vs the allocating
/// reference, generalized statistics/models, stratified sampling) plus the
/// trace-ingestion suite (exact streaming, sharded, SHARDS-sampled) and
/// writes `BENCH_sweep.json` at the workspace root.
fn emit_bench_sweep_json() {
    println!("\n================ sweep throughput ================\n");
    let measurements = measure_suite(5);
    println!("\n================ trace ingestion throughput ================\n");
    let trace_measurements = measure_trace_suite(5);
    let json = suite_json(&measurements, &trace_measurements);
    let s8 = speedup_at(&measurements, 8).unwrap_or(f64::NAN);
    let s9 = speedup_at(&measurements, 9).unwrap_or(f64::NAN);
    println!("\nengine speedup over allocating reference: {s8:.2}x (m=8), {s9:.2}x (m=9)");

    let path = symloc_bench::sweepbench::baseline_path();
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Runs (or resumes) the checkpointed exhaustive `m = 12` sweep.
fn run_sweep12(checkpoint: &Path, max_shards: Option<usize>) -> Result<(), String> {
    println!("\n================ m=12 checkpointed sweep ================\n");
    let spec = SweepSpec::figure1(12);
    let threads = default_threads();
    let (mut sweep, resumed) =
        ShardedSweep::resume_or_new(spec, SWEEP12_SHARDS, threads, checkpoint)
            .map_err(|e| format!("cannot resume {}: {e}", checkpoint.display()))?;
    if resumed {
        println!(
            "resuming from {}: {} of {} shards already done",
            checkpoint.display(),
            sweep.completed_count(),
            sweep.shard_count()
        );
    }
    sweep
        .run_with_checkpoint(checkpoint, max_shards, |done, total| {
            println!("{done} / {total} shards done (checkpoint saved)");
        })
        .map_err(|e| format!("cannot write checkpoint: {e}"))?;
    match sweep.merged_levels() {
        Some(levels) => {
            let total: u64 = levels.iter().map(|l| l.count).sum();
            println!(
                "sweep complete: {total} permutations over {} levels",
                levels.len()
            );
            let mid = levels.len() / 2;
            println!(
                "level {} mean hits(c=6) = {:.4}",
                levels[mid].level,
                levels[mid].mean_hits(6)
            );
        }
        None => println!(
            "sweep paused at {} / {} shards; re-run with --sweep12 {} to continue",
            sweep.completed_count(),
            sweep.shard_count(),
            checkpoint.display()
        ),
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let bench_only = args.iter().any(|a| a == "--bench-only");
    let flag_value = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let sweep12 = flag_value("--sweep12");
    let sweep12_max = match flag_value("--sweep12-max") {
        None => None,
        Some(v) => match v.parse::<usize>() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("--sweep12-max needs a number, got {v:?}");
                std::process::exit(1);
            }
        },
    };

    let mut failures = Vec::new();
    if !bench_only && sweep12.is_none() {
        let Some(dir) = binary_dir() else {
            eprintln!("cannot locate the build directory; run the experiments individually");
            std::process::exit(1);
        };
        for name in EXPERIMENTS {
            let path = dir.join(name);
            println!("\n================ {name} ================\n");
            let status = Command::new(&path).status();
            match status {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("{name} exited with {s}");
                    failures.push(*name);
                }
                Err(e) => {
                    eprintln!(
                        "{name} could not be started ({e}); build it first with \
                         `cargo build --release -p symloc-bench --bins`"
                    );
                    failures.push(*name);
                }
            }
        }
    }
    if let Some(checkpoint) = sweep12 {
        if let Err(e) = run_sweep12(Path::new(&checkpoint), sweep12_max) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    emit_bench_sweep_json();
    if !bench_only {
        println!("\n================ summary ================\n");
        println!(
            "{} of {} experiments completed successfully",
            EXPERIMENTS.len() - failures.len(),
            EXPERIMENTS.len()
        );
        if !failures.is_empty() {
            println!("failed or missing: {failures:?}");
            std::process::exit(1);
        }
    }
}
