//! `perfbench` — the end-to-end and per-layer benchmark of the release
//! `symloc` binary. See `perfbench/README.md` for the workloads, metrics
//! and the layer → metric map.
//!
//! ```text
//! perfbench --symloc PATH --work-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --symloc PATH --work-dir DIR --self-test
//! ```
//!
//! The last line of stdout is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod fused;
mod inputs;
mod report;
mod serve;
mod sweep;
mod sys;
mod tracer;

use std::path::{Path, PathBuf};
use std::time::Duration;

use inputs::Sizes;
use report::{median, Report};
use symloc_core::obs::MetricsRegistry;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (the traced run
/// profiles the layers of all three pipelines).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("decode.ns_per_access", "ns"),
    ("intern.ns_per_access", "ns"),
    ("exact.ns_per_access", "ns"),
    ("exact.compactions", "count"),
    ("chunk.partial_ns", "ns"),
    ("merge.absorb_ns", "ns"),
    ("shards.replay_ns", "ns"),
    ("shards.replay_share", "ratio"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.encode_ns", "ns"),
    ("checkpoint.write_ns", "ns"),
    ("setup.open_ns", "ns"),
    ("job.unit_ns", "ns"),
    ("job.absorb_ns", "ns"),
    ("job.save_ns", "ns"),
    ("par.busy_ratio", "ratio"),
    ("tracing.coverage_ratio", "ratio"),
    ("tracing.overhead_ratio", "ratio"),
    ("wire.parse_ns_per_line", "ns"),
    ("wire.batch_ns_per_access", "ns"),
    ("serve.record_ns_per_access", "ns"),
    ("serve.mrc_ns", "ns"),
    ("serve.mrcj_ns", "ns"),
    ("serve.stats_ns", "ns"),
    ("serve.partition_ns", "ns"),
    ("partition.hull_ns", "ns"),
    ("partition.solve_ns", "ns"),
    ("serve.save_ns", "ns"),
    ("serve.checkpoint_bytes", "B"),
    ("serve.saves", "count"),
    ("serve.resume_ns", "ns"),
    ("tcp.ping_rtt_idle_ms", "ms"),
    ("tcp.ping_rtt_loaded_ms", "ms"),
    ("client.query_lag_ms", "ms"),
    ("perm.ns_per_perm", "ns"),
    ("hits.ns_per_perm", "ns"),
    ("sweep.par.busy_ratio", "ratio"),
    ("sweep.job.save_ns", "ns"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TraceFused,
    ServeLoopback,
    SweepExhaustive,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::TraceFused,
        Workload::ServeLoopback,
        Workload::SweepExhaustive,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::TraceFused => "trace-fused",
            Workload::ServeLoopback => "serve-loopback",
            Workload::SweepExhaustive => "sweep-exhaustive",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a workload run needs.
pub struct Ctx {
    pub symloc: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: Duration,
    pub threads: usize,
    pub sizes: Sizes,
    /// Self-test only: corrupt the expected answers so every output check
    /// must fail.
    pub corrupt: bool,
}

/// Splits a space-separated argument string into owned arguments.
pub fn words(s: &str) -> Vec<String> {
    s.split_whitespace().map(ToString::to_string).collect()
}

/// Checks that a set-up probe (`--max-chunks 0` / `--max-shards 0`)
/// stopped before doing any work.
pub fn check_incomplete(stdout: &str) -> Result<(), String> {
    match symloc_core::jsonio::parse(stdout)?.get("complete") {
        Some(symloc_core::jsonio::JsonValue::Bool(false)) => Ok(()),
        other => Err(format!("set-up run reported complete = {other:?}")),
    }
}

/// Records a finished run and its output check as one operation; returns
/// the output when the run itself succeeded.
pub fn checked(
    report: &mut Report,
    what: &str,
    run: Result<sys::RunOutput, String>,
    check: impl FnOnce(&str) -> Result<(), String>,
) -> Option<sys::RunOutput> {
    match run {
        Ok(out) => {
            report.check(what, check(&out.stdout));
            Some(out)
        }
        Err(e) => {
            report.check(what, Err(e));
            None
        }
    }
}

/// Measures a command-shaped workload, where each command is one request
/// whose latency is its wall time. The command repeats until its summed
/// wall time reaches the run's seconds, with one set-up probe before each
/// (topped up to `setup_reps` at the end), so set-up samples spread over
/// the run. Throughput is the work of all commands over their summed
/// wall time, which averages over the host's slow and fast phases.
pub fn measure_commands(
    ctx: &Ctx,
    report: &mut Report,
    work_per_command: f64,
    mut setup: impl FnMut(&mut Report) -> Option<sys::RunOutput>,
    mut command: impl FnMut(&mut Report) -> Option<sys::RunOutput>,
) {
    let (mut walls, mut rss, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut measured_s = 0.0;
    let mut attempts = 0;
    while walls.is_empty() || measured_s < ctx.seconds.as_secs_f64() {
        attempts += 1;
        setups.extend(setup(report).map(|out| out.wall.as_secs_f64()));
        let Some(out) = command(report) else { break };
        measured_s += out.wall.as_secs_f64();
        walls.push(out.wall.as_secs_f64());
        rss.push(out.peak_rss_mb);
    }
    for _ in attempts..ctx.sizes.setup_reps {
        setups.extend(setup(report).map(|out| out.wall.as_secs_f64()));
    }
    let shown: Vec<f64> = walls
        .iter()
        .take(30)
        .map(|w| (w * 1e3).round() / 1e3)
        .collect();
    println!(
        "samples: {} measured command(s), first walls {shown:?} s, {} set-up run(s)",
        walls.len(),
        setups.len()
    );
    report.metric(
        "throughput_per_s",
        work_per_command * walls.len() as f64 / measured_s,
        "1/s",
    );
    report.metric("latency_p50_ms", median(&walls) * 1e3, "ms");
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", median(&rss), "MB");
}

/// The job-runner figures of a `--metrics` snapshot written by the
/// binary: mean ns per unit, total absorb and save ns, and the share of
/// the job's elapsed time its workers spent inside units.
pub struct JobSnapshot {
    pub unit_ns: f64,
    pub absorb_ns: f64,
    pub save_ns: f64,
    pub busy_ratio: f64,
}

pub fn read_snapshot(path: &Path) -> Result<MetricsRegistry, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read metrics snapshot {}: {e}", path.display()))?;
    MetricsRegistry::from_json(&text)
}

pub fn job_snapshot(path: &Path, threads: usize) -> Result<JobSnapshot, String> {
    let reg = read_snapshot(path)?;
    let hist = |name: &str| {
        reg.histogram(name)
            .map(|h| (h.sum() as f64, h.count() as f64))
            .ok_or_else(|| format!("snapshot has no {name} histogram"))
    };
    let (unit_sum, units) = hist("job.unit_nanos")?;
    let elapsed = reg
        .gauge("job.elapsed_secs")
        .ok_or("snapshot has no job.elapsed_secs gauge")?;
    // Units run side by side only up to the units of one pass: the trace
    // ingest runs one chunk per thread, the sweep one internally parallel
    // shard at a time.
    let units_per_pass =
        reg.counter("job.units").unwrap_or(0) / reg.counter("job.passes").unwrap_or(1).max(1);
    let workers = units_per_pass.clamp(1, threads as u64) as f64;
    Ok(JobSnapshot {
        unit_ns: unit_sum / units.max(1.0),
        absorb_ns: hist("job.absorb_nanos")?.0,
        save_ns: hist("job.save_nanos")?.0,
        busy_ratio: unit_sum / (workers * elapsed * 1e9),
    })
}

struct Args {
    symloc: PathBuf,
    work: PathBuf,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        symloc: PathBuf::new(),
        work: PathBuf::from(".perfbench-work"),
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--symloc" => args.symloc = PathBuf::from(value),
            "--work-dir" => args.work = PathBuf::from(value),
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?.max(1),
            "--trace" => args.trace = number(&value)? != 0,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !args.symloc.is_file() {
        return Err(format!(
            "--symloc {} is not a built binary",
            args.symloc.display()
        ));
    }
    Ok(args)
}

/// Runs one workload (untraced) or the traced per-layer profile, and
/// returns its report.
fn run_one(ctx: &Ctx, workload: Workload, traced: bool) -> Result<Report, String> {
    let _ = std::fs::remove_dir_all(&ctx.work);
    std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("cannot create {}: {e}", ctx.work.display()))?;
    let mut report = Report::default();
    if traced {
        // The traced run profiles every layer of all three pipelines, so
        // each traced run reports the full per-layer table.
        fused::profile(ctx, &mut report)?;
        serve::profile(ctx, &mut report)?;
        sweep::profile(ctx, &mut report)?;
    } else {
        match workload {
            Workload::TraceFused => fused::run(ctx, &mut report)?,
            Workload::ServeLoopback => serve::run(ctx, &mut report)?,
            Workload::SweepExhaustive => sweep::run(ctx, &mut report)?,
        }
    }
    Ok(report)
}

/// Checks that `report` carries exactly the metric names and units of
/// `expected`, in order.
fn names_match(report: &Report, expected: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = report.names().collect();
    if got == expected {
        Ok(())
    } else {
        Err(format!("metric names/units {got:?} != {expected:?}"))
    }
}

/// Checks that BENCHMARK.json (when present in the working directory)
/// names the same metrics and units as this harness.
fn benchmark_json_matches() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let doc = symloc_core::jsonio::parse(&text)?;
    for (key, expected) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String)> = sys::json_array(&doc, key)?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let want: Vec<(String, String)> = expected
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if listed != want {
            return Err(format!(
                "BENCHMARK.json {key} {listed:?} != harness {want:?}"
            ));
        }
    }
    Ok(())
}

/// Smoke-size run of every workload and the traced profile: all metric
/// names print with their units and every check passes; then the same
/// runs with corrupted expected answers must fail their checks.
fn self_test(args: &Args) -> Result<(), String> {
    let mut ctx = Ctx {
        symloc: args.symloc.clone(),
        work: args.work.join("self-test"),
        seed: args.seed,
        seconds: Duration::from_secs(1),
        threads: symloc_par::default_threads(),
        sizes: Sizes::smoke(),
        corrupt: false,
    };
    benchmark_json_matches()?;
    for workload in Workload::ALL {
        let report = run_one(&ctx, workload, false)?;
        report.print();
        names_match(&report, END_TO_END)?;
        if report.failed() > 0 {
            return Err(format!(
                "{}: {} failed operation(s)",
                workload.name(),
                report.failed()
            ));
        }
    }
    let traced = run_one(&ctx, Workload::TraceFused, true)?;
    traced.print();
    names_match(&traced, PER_LAYER)?;
    if traced.failed() > 0 {
        return Err(format!(
            "traced run: {} failed operation(s)",
            traced.failed()
        ));
    }
    ctx.corrupt = true;
    for workload in Workload::ALL {
        let report = run_one(&ctx, workload, false)?;
        if report.failed() == 0 {
            return Err(format!(
                "{}: a corrupted expected answer passed the output check",
                workload.name()
            ));
        }
        println!(
            "{}: corrupted expected answer detected ({} failed check(s))",
            workload.name(),
            report.failed()
        );
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    println!("self-test passed");
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.self_test {
        if let Err(e) = self_test(&args) {
            eprintln!("perfbench self-test FAILED: {e}");
            std::process::exit(1);
        }
        return;
    }
    let Some(workload) = args.workload else {
        eprintln!("perfbench: --workload is required");
        std::process::exit(2);
    };
    let ctx = Ctx {
        symloc: args.symloc.clone(),
        work: args.work.join(workload.name()),
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        threads: symloc_par::default_threads(),
        sizes: Sizes::full(),
        corrupt: false,
    };
    println!(
        "perfbench {} seed {} seconds {} trace {} threads {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.threads
    );
    match run_one(&ctx, workload, args.trace) {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name());
            std::process::exit(1);
        }
    }
}
