//! `symloc job` — kind-agnostic checkpoint tooling: `status` summarizes
//! any checkpoint file, `resume` continues it, both dispatching on the job
//! kind the checkpoint itself records (the `core::job` registry).

use super::flags::{embed_json, write_metrics, CommandSpec, FlagSpec, JSON, METRICS, THREADS};
use super::sweep::sweep_report;
use super::tracecmd::{json_document, trace_job_error, TraceReport};
use super::CliError;
use std::fmt::Write as _;
use std::path::Path;

use symloc_core::job::{checkpoint_status, recorded_kind, Heartbeat, JobError, JobKind, JobStatus};
use symloc_core::jsonio::escape;
use symloc_core::obs::MetricsRegistry;
use symloc_core::shard::{SampledSweep, ShardedSweep};
use symloc_core::tracesweep::FusedIngest;
use symloc_par::default_threads;
use symloc_trace::stream::TraceSource;

/// MRC points in the curves of a resumed trace job's report.
const REPORT_POINTS: usize = 16;

const MAX_UNITS: FlagSpec = FlagSpec::value(
    "--max-units",
    "N",
    "run at most N units (shards/levels/chunks) this invocation",
);

/// `symloc job status` command table.
pub(crate) const JOB_STATUS: CommandSpec = CommandSpec {
    name: "job status",
    summary: "summarize any symloc checkpoint file (kind, plan, progress)",
    usage: "symloc job status <checkpoint> [--json] [--metrics FILE]",
    positionals: &[(
        "checkpoint",
        "a checkpoint file written by any resumable command",
    )],
    variadic: false,
    flags: &[JSON, METRICS],
};

/// `symloc job resume` command table.
pub(crate) const JOB_RESUME: CommandSpec = CommandSpec {
    name: "job resume",
    summary: "continue any symloc checkpoint, dispatching on its recorded kind",
    usage: "symloc job resume <checkpoint> [--threads N] [--max-units N] [--json] [--metrics FILE]",
    positionals: &[(
        "checkpoint",
        "a checkpoint file written by any resumable command",
    )],
    variadic: false,
    flags: &[THREADS, MAX_UNITS, JSON, METRICS],
};

/// What `job status` found next to the checkpoint. The heartbeat sidecar
/// is advisory, so everything short of a live match degrades to a note —
/// never a hard failure of the status (or resume) command.
enum HeartbeatState {
    /// No sidecar: the job either never ran checkpointed or finished (a
    /// completed run removes its heartbeat).
    Absent,
    /// A readable heartbeat matching the checkpoint's identity and
    /// progress: the run is (or just was) in flight.
    Live(Heartbeat),
    /// A readable heartbeat that no longer matches the checkpoint — e.g.
    /// a kill landed between the checkpoint save and the sidecar write,
    /// or the sidecar survived from an older run.
    Stale(Heartbeat),
    /// The sidecar exists but cannot be parsed (corrupt or truncated).
    Unreadable(String),
}

impl HeartbeatState {
    /// Reads and classifies the heartbeat sidecar next to `checkpoint`.
    fn inspect(checkpoint: &Path, status: &JobStatus) -> HeartbeatState {
        match Heartbeat::load(checkpoint) {
            None => HeartbeatState::Absent,
            Some(Err(e)) => HeartbeatState::Unreadable(e),
            Some(Ok(hb)) if hb.matches(status) => HeartbeatState::Live(hb),
            Some(Ok(hb)) => HeartbeatState::Stale(hb),
        }
    }

    /// The machine-readable tag for the `heartbeat_status` JSON field.
    fn tag(&self) -> &'static str {
        match self {
            HeartbeatState::Absent => "absent",
            HeartbeatState::Live(_) => "live",
            HeartbeatState::Stale(_) => "stale",
            HeartbeatState::Unreadable(_) => "unreadable",
        }
    }
}

/// Renders a [`JobStatus`] as the human-readable `job status` report.
fn status_report(status: &JobStatus, heartbeat: &HeartbeatState) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "kind        : {} ({})",
        status.kind.describe(),
        status.kind
    );
    let _ = writeln!(out, "fingerprint : {}", status.fingerprint);
    let _ = writeln!(
        out,
        "progress    : {} of {} {}s complete{}",
        status.completed,
        status.total,
        status.kind.unit_name(),
        if status.is_complete() {
            ""
        } else {
            " (resumable with `symloc job resume`)"
        }
    );
    for (label, value) in &status.detail {
        let _ = writeln!(out, "{label:<12}: {value}");
    }
    match heartbeat {
        HeartbeatState::Absent => {}
        HeartbeatState::Live(hb) => {
            let _ = writeln!(
                out,
                "heartbeat   : live — batch {}, {:.2}s elapsed, {:.2} {}s/sec (last batch {:.2})",
                hb.batches,
                hb.elapsed_secs,
                hb.units_per_sec,
                status.kind.unit_name(),
                hb.instant_units_per_sec
            );
            if let Some((name, done)) = &hb.items {
                let _ = writeln!(out, "{name:<12}: {done} streamed so far");
            }
            if let Some(eta) = hb.eta_secs {
                let _ = writeln!(out, "eta         : ~{eta:.1}s at the cumulative rate");
            }
        }
        HeartbeatState::Stale(hb) => {
            let _ = writeln!(
                out,
                "heartbeat   : stale sidecar (recorded {} of {}, does not match the \
                 checkpoint) — ignored",
                hb.completed, hb.total
            );
        }
        HeartbeatState::Unreadable(e) => {
            let _ = writeln!(out, "heartbeat   : unreadable sidecar ({e}) — ignored");
        }
    }
    out
}

/// Renders a [`JobStatus`] as a JSON document.
fn status_json(
    status: &JobStatus,
    heartbeat: &HeartbeatState,
    metrics: &MetricsRegistry,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"kind\": \"{}\",", status.kind);
    let _ = writeln!(
        out,
        "  \"fingerprint\": \"{}\",",
        symloc_core::jsonio::escape(&status.fingerprint)
    );
    let _ = writeln!(out, "  \"complete\": {},", status.is_complete());
    let _ = writeln!(out, "  \"completed\": {},", status.completed);
    let _ = writeln!(out, "  \"total\": {},", status.total);
    out.push_str("  \"detail\": {");
    for (i, (label, value)) in status.detail.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": \"{}\"",
            symloc_core::jsonio::escape(label),
            symloc_core::jsonio::escape(value)
        );
    }
    out.push_str("},\n");
    let _ = writeln!(out, "  \"heartbeat_status\": \"{}\",", heartbeat.tag());
    if let HeartbeatState::Live(hb) = heartbeat {
        let _ = writeln!(out, "  \"heartbeat\": {},", embed_json(&hb.to_json()));
    }
    let _ = writeln!(out, "  \"metrics\": {}", embed_json(&metrics.to_json()));
    out.push_str("}\n");
    out
}

/// Renders a `job resume --json` completion report: the shared progress
/// fields plus per-kind `extra` pairs whose values are raw JSON fragments,
/// plus the run's metrics-registry snapshot.
fn resume_json(
    kind: JobKind,
    fingerprint: &str,
    ran: usize,
    completed: usize,
    total: usize,
    extra: Vec<(&str, String)>,
    metrics: &MetricsRegistry,
) -> String {
    let mut fields = vec![
        ("kind", format!("\"{kind}\"")),
        ("fingerprint", format!("\"{}\"", escape(fingerprint))),
        ("complete", (completed >= total).to_string()),
        ("ran", ran.to_string()),
        ("completed", completed.to_string()),
        ("total", total.to_string()),
    ];
    fields.extend(extra);
    json_document(&fields, metrics)
}

/// `symloc job status <checkpoint>` — decodes any registered checkpoint
/// and reports its kind, fingerprint and progress.
///
/// # Errors
///
/// Returns a [`CliError`] for unreadable files, unknown kinds, or
/// structurally invalid checkpoints.
pub(crate) fn status(args: &[String]) -> Result<String, CliError> {
    let Some(parsed) = JOB_STATUS.parse(args)? else {
        return Ok(JOB_STATUS.help());
    };
    let path = parsed.positional(0, "job status", "a checkpoint file")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read checkpoint {path}: {e}")))?;
    let status = checkpoint_status(&text)
        .map_err(|e| CliError(format!("cannot decode checkpoint {path}: {e}")))?;
    let heartbeat = HeartbeatState::inspect(Path::new(path), &status);
    let mut registry = MetricsRegistry::new();
    if let HeartbeatState::Live(hb) = &heartbeat {
        hb.record_gauges(&mut registry);
    }
    write_metrics(parsed.value(METRICS.name), &registry)?;
    Ok(if parsed.switch(JSON.name) {
        status_json(&status, &heartbeat, &registry)
    } else {
        status_report(&status, &heartbeat)
    })
}

/// Reconstructs the trace source a trace-job checkpoint was recorded
/// against: the fingerprint must resolve to a readable source whose access
/// count ([`TraceSource::planned_accesses`]: an indexed file's sidecar
/// count, checked by the chunks as they decode) still matches the
/// checkpoint.
fn reopen_source(fingerprint: &str, recorded_total: u64) -> Result<TraceSource, CliError> {
    let source = TraceSource::from_fingerprint(fingerprint).map_err(CliError)?;
    let total = source
        .planned_accesses()
        .map_err(|e| CliError(format!("cannot read {source}: {e}")))?;
    if total != recorded_total {
        return Err(CliError(format!(
            "checkpoint was recorded against {source} with {recorded_total} accesses, \
             but the source now has {total} — refusing to resume against changed data"
        )));
    }
    Ok(source)
}

/// Decodes a checkpoint's text with its kind's `from_json`, and frees the
/// text once the job is built, before the job runs.
fn decode<T>(
    text: String,
    path: &str,
    from_json: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, CliError> {
    from_json(&text).map_err(|e| CliError(format!("cannot decode checkpoint {path}: {e}")))
}

/// `symloc job resume <checkpoint>` — continues any registered checkpoint
/// to completion (or `--max-units`), dispatching on its recorded kind, and
/// prints the finished job's report.
///
/// # Errors
///
/// Returns a [`CliError`] for unreadable or invalid checkpoints, vanished
/// or changed trace sources, or checkpoint write failures.
pub(crate) fn resume(args: &[String]) -> Result<String, CliError> {
    let Some(parsed) = JOB_RESUME.parse(args)? else {
        return Ok(JOB_RESUME.help());
    };
    let path_str = parsed
        .positional(0, "job resume", "a checkpoint file")?
        .to_string();
    let path = Path::new(&path_str);
    let threads = parsed.usize(THREADS.name)?.unwrap_or_else(default_threads);
    let limit = parsed.usize(MAX_UNITS.name)?;
    let json = parsed.switch(JSON.name);
    let metrics_path = parsed.value(METRICS.name);
    let mut registry = MetricsRegistry::new();
    // The (possibly large) checkpoint is read once: the kind comes from
    // its header, and each arm decodes the text straight into the job,
    // frees the text before the run, and prints the banner from the job.
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read checkpoint {path_str}: {e}")))?;
    let kind = recorded_kind(&text)
        .map_err(|e| CliError(format!("cannot resume checkpoint {path_str}: {e}")))?
        .ok_or_else(|| {
            CliError(format!(
                "cannot decode checkpoint {path_str}: not a registered symloc checkpoint"
            ))
        })?;
    // Sweep units do not fail: a sweep run stops only on a failed save.
    let ckpt_err = |e: JobError| CliError(format!("cannot write checkpoint {path_str}: {e}"));
    if kind != JobKind::ServeState {
        // Resuming takes the checkpoint over, so what interrupted saves
        // left next to it goes. A serve checkpoint stays its daemon's,
        // which may be saving to it right now.
        symloc_core::jsonio::remove_stale_temps(path);
    }

    let mut out = String::new();
    let banner = |out: &mut String, fingerprint: &str, completed: usize, total: usize| {
        let _ = writeln!(
            out,
            "resuming {} — {fingerprint} ({completed} of {total} {}s already done)",
            kind.describe(),
            kind.unit_name()
        );
    };
    match kind {
        JobKind::ShardedSweep => {
            let mut sweep = decode(text, &path_str, |text| {
                ShardedSweep::from_json(text, threads)
            })?;
            banner(
                &mut out,
                &sweep.spec().fingerprint(),
                sweep.completed_count(),
                sweep.shard_count(),
            );
            let ran = sweep
                .run_with_checkpoint_metered(path, limit, Some(&mut registry), |_, _| {})
                .map_err(ckpt_err)?;
            if json {
                write_metrics(metrics_path, &registry)?;
                return Ok(resume_json(
                    kind,
                    &sweep.spec().fingerprint(),
                    ran,
                    sweep.completed_count(),
                    sweep.shard_count(),
                    Vec::new(),
                    &registry,
                ));
            }
            let _ = writeln!(
                out,
                "ran {ran} shard(s); {} of {} complete; checkpoint saved to {path_str}",
                sweep.completed_count(),
                sweep.shard_count()
            );
            match sweep.merged_levels() {
                Some(levels) => out.push_str(&sweep_report(sweep.spec(), &levels, false)),
                None => {
                    let _ = writeln!(out, "sweep incomplete — re-run to continue");
                }
            }
        }
        JobKind::SampledSweep => {
            let mut sweep = decode(text, &path_str, |text| {
                SampledSweep::from_json(text, threads)
            })?;
            banner(
                &mut out,
                &sweep.spec().fingerprint(),
                sweep.completed_count(),
                sweep.level_count(),
            );
            let ran = sweep
                .run_with_checkpoint_metered(path, limit, Some(&mut registry), |_, _| {})
                .map_err(ckpt_err)?;
            if json {
                write_metrics(metrics_path, &registry)?;
                return Ok(resume_json(
                    kind,
                    &sweep.spec().fingerprint(),
                    ran,
                    sweep.completed_count(),
                    sweep.level_count(),
                    Vec::new(),
                    &registry,
                ));
            }
            let _ = writeln!(
                out,
                "ran {ran} level(s); {} of {} complete; checkpoint saved to {path_str}",
                sweep.completed_count(),
                sweep.level_count()
            );
            match sweep.merged_levels() {
                Some(levels) => out.push_str(&sweep_report(sweep.spec(), &levels, true)),
                None => {
                    let _ = writeln!(out, "sweep incomplete — re-run to continue");
                }
            }
        }
        JobKind::FusedIngest => {
            let mut job = decode(text, &path_str, |text| {
                FusedIngest::from_json(text, threads)
            })?;
            banner(
                &mut out,
                job.fingerprint(),
                job.completed_count(),
                job.chunk_count(),
            );
            let source = reopen_source(job.fingerprint(), job.total_accesses())?;
            let ran = job
                .run_with_checkpoint_metered(&source, path, limit, Some(&mut registry), |_, _| {})
                .map_err(|e| trace_job_error(e, &source, &path_str))?;
            job.record_gauges(&mut registry);
            let report = TraceReport::of_job(&job, threads);
            if json {
                write_metrics(metrics_path, &registry)?;
                return Ok(resume_json(
                    kind,
                    job.fingerprint(),
                    ran,
                    job.completed_count(),
                    job.chunk_count(),
                    report.map_or_else(Vec::new, |r| r.json_fields(REPORT_POINTS)),
                    &registry,
                ));
            }
            let _ = writeln!(
                out,
                "ran {ran} chunk(s); {} of {} complete; checkpoint saved to {path_str}",
                job.completed_count(),
                job.chunk_count()
            );
            match report {
                Some(report) => out.push_str(&report.text(REPORT_POINTS)),
                None => {
                    let _ = writeln!(out, "ingest incomplete — re-run to continue");
                }
            }
        }
        JobKind::ServeState => {
            // A serve checkpoint is a daemon snapshot, not a batch with
            // remaining units — there is nothing for `job resume` to run.
            return Err(CliError(format!(
                "checkpoint {path_str} holds a {} — it has no pending batch work; \
                 restart the daemon with `symloc serve --checkpoint {path_str}` to \
                 resume its tenants",
                kind.describe()
            )));
        }
    }
    write_metrics(metrics_path, &registry)?;
    Ok(out)
}

/// Dispatches the `symloc job <status|resume>` subcommands.
///
/// # Errors
///
/// See the subcommand docs above: unreadable or invalid checkpoints,
/// vanished or changed trace sources, checkpoint write failures.
pub fn job(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("status") => status(&args[1..]),
        Some("resume") => resume(&args[1..]),
        Some("--help" | "-h") => Ok(format!(
            "symloc job — inspect and continue resumable checkpoints\n\nUSAGE:\n  {}\n  {}\n",
            JOB_STATUS.usage, JOB_RESUME.usage
        )),
        Some(other) => Err(CliError(format!(
            "unknown job subcommand {other:?} (expected status or resume)"
        ))),
        None => Err(CliError("job needs a subcommand (status or resume)".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{sargs, sweep, trace_mrc};
    use symloc_core::jsonio::{self, JsonValue};

    fn tmp(name: &str) -> (std::path::PathBuf, String) {
        let path =
            std::env::temp_dir().join(format!("symloc_cli_job_{}_{name}", std::process::id()));
        let s = path.to_string_lossy().to_string();
        std::fs::remove_file(&path).ok();
        (path, s)
    }

    #[test]
    fn job_dispatch_and_errors() {
        assert!(job(&sargs("")).is_err());
        assert!(job(&sargs("bogus")).is_err());
        assert!(job(&sargs("status")).is_err());
        assert!(job(&sargs("resume")).is_err());
        assert!(job(&sargs("status /no/such/checkpoint.json")).is_err());
        assert!(job(&sargs("resume /no/such/checkpoint.json")).is_err());
        // Non-checkpoint JSON is rejected with context.
        let (path, path_str) = tmp("garbage.json");
        std::fs::write(&path, "{\"kind\": \"mystery\"}").unwrap();
        let err = job(&sargs(&format!("status {path_str}"))).unwrap_err();
        assert!(err.to_string().contains("mystery"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn status_and_resume_for_sweep_checkpoints() {
        let (path, path_str) = tmp("sweep.json");
        sweep(&sargs(&format!(
            "6 --shards 4 --max-shards 2 --checkpoint {path_str}"
        )))
        .unwrap();

        let report = job(&sargs(&format!("status {path_str}"))).unwrap();
        assert!(report.contains("exhaustive sharded sweep"), "{report}");
        assert!(report.contains("2 of 4 shards complete"), "{report}");
        assert!(report.contains("m=6;stat=inversions;model=lru_stack"));
        assert!(report.contains("symloc job resume"));

        let json = job(&sargs(&format!("status {path_str} --json"))).unwrap();
        let doc = jsonio::parse(&json).unwrap();
        assert_eq!(
            doc.get("kind").and_then(JsonValue::as_str),
            Some("symloc_sweep_checkpoint")
        );
        assert_eq!(doc.get("completed").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(doc.get("complete"), Some(&JsonValue::Bool(false)));

        // Resume in two steps: bounded, then to completion.
        let bounded = job(&sargs(&format!("resume {path_str} --max-units 1"))).unwrap();
        assert!(
            bounded.contains("ran 1 shard(s); 3 of 4 complete"),
            "{bounded}"
        );
        let finished = job(&sargs(&format!("resume {path_str} --threads 2"))).unwrap();
        assert!(finished.contains("4 of 4 complete"), "{finished}");
        assert!(
            finished.contains("permutations aggregated : 720"),
            "{finished}"
        );

        // The resumed result equals the direct sweep's table.
        let direct = sweep(&sargs("6")).unwrap();
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("sweep of"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&finished), tail(&direct));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn status_and_resume_for_sampled_sweep_checkpoints() {
        let (path, path_str) = tmp("sampled_sweep.json");
        sweep(&sargs(&format!(
            "7 --samples 200 --seed 3 --max-shards 5 --checkpoint {path_str}"
        )))
        .unwrap();
        let report = job(&sargs(&format!("status {path_str}"))).unwrap();
        assert!(report.contains("sampled (level-sharded) sweep"), "{report}");
        assert!(report.contains("5 of 22 levels complete"), "{report}");
        assert!(report.contains("seed"), "{report}");

        let finished = job(&sargs(&format!("resume {path_str}"))).unwrap();
        assert!(finished.contains("22 of 22 complete"), "{finished}");
        let direct = sweep(&sargs("7 --samples 200 --seed 3")).unwrap();
        // The sweep command appends its sampling-plan line after the table;
        // the job resume report ends at the table.
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("sweep of"))
                .take_while(|l| !l.starts_with("stratified sampling"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&finished), tail(&direct));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn status_and_resume_for_trace_checkpoints() {
        // Exact ingest over a generator source: resumable from the
        // fingerprint alone.
        let (path, path_str) = tmp("ingest.json");
        trace_mrc(&sargs(&format!(
            "gen:zipf:60:2000:0.8:3 --shards 6 --threads 2 --checkpoint {path_str} --max-chunks 2"
        )))
        .unwrap();
        let report = job(&sargs(&format!("status {path_str}"))).unwrap();
        assert!(report.contains(JobKind::FusedIngest.describe()), "{report}");
        assert!(report.contains("halves      : exact\n"), "{report}");
        assert!(report.contains("2 of 6 chunks complete"), "{report}");
        assert!(report.contains("gen:zipf:60:2000:0.8:3"), "{report}");

        let finished = job(&sargs(&format!("resume {path_str} --threads 2"))).unwrap();
        assert!(finished.contains("6 of 6 complete"), "{finished}");
        assert!(
            finished.contains("accesses            : 2000"),
            "{finished}"
        );
        assert!(finished.contains("miss ratio"), "{finished}");

        // The sampled half alone round-trips the same way, and the
        // finished checkpoint matches the one the trace command writes.
        let (spath, spath_str) = tmp("sampled_ingest.json");
        trace_mrc(&sargs(&format!(
            "gen:zipf:200:4000:0.8:5 --sample 64 --shards 4 --checkpoint {spath_str} --max-chunks 2"
        )))
        .unwrap();
        let report = job(&sargs(&format!("status {spath_str}"))).unwrap();
        assert!(report.contains("halves      : sampled\n"), "{report}");
        let finished = job(&sargs(&format!("resume {spath_str}"))).unwrap();
        assert!(finished.contains("4 of 4 complete"), "{finished}");
        let via_job = std::fs::read_to_string(&spath).unwrap();
        let (rpath, rpath_str) = tmp("sampled_ingest_ref.json");
        trace_mrc(&sargs(&format!(
            "gen:zipf:200:4000:0.8:5 --sample 64 --shards 4 --checkpoint {rpath_str}"
        )))
        .unwrap();
        assert_eq!(via_job, std::fs::read_to_string(&rpath).unwrap());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&spath).ok();
        std::fs::remove_file(&rpath).ok();
    }

    #[test]
    fn status_and_resume_for_fused_checkpoints() {
        let (path, path_str) = tmp("fused_ingest.json");
        trace_mrc(&sargs(&format!(
            "gen:zipf:200:4000:0.8:5 --exact --sample 64 --shards 4 --checkpoint {path_str} \
             --max-chunks 2"
        )))
        .unwrap();
        let report = job(&sargs(&format!("status {path_str}"))).unwrap();
        assert!(report.contains(JobKind::FusedIngest.describe()), "{report}");
        assert!(report.contains("halves      : exact + sampled"), "{report}");
        assert!(report.contains("2 of 4 chunks complete"), "{report}");
        assert!(report.contains("gen:zipf:200:4000:0.8:5"), "{report}");

        let finished = job(&sargs(&format!("resume {path_str} --threads 2"))).unwrap();
        assert!(finished.contains("4 of 4 complete"), "{finished}");
        assert!(
            finished.contains("streamed            : 4000 (each access decoded once)"),
            "{finished}"
        );
        assert!(finished.contains("exact footprint"), "{finished}");
        assert!(finished.contains("sampled footprint"), "{finished}");

        // The finished checkpoint matches the one the trace command writes
        // in a single uninterrupted run.
        let via_job = std::fs::read_to_string(&path).unwrap();
        let (rpath, rpath_str) = tmp("fused_ingest_ref.json");
        trace_mrc(&sargs(&format!(
            "gen:zipf:200:4000:0.8:5 --exact --sample 64 --shards 4 --checkpoint {rpath_str}"
        )))
        .unwrap();
        assert_eq!(via_job, std::fs::read_to_string(&rpath).unwrap());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&rpath).ok();
    }

    #[test]
    fn resume_json_reports_are_machine_readable() {
        // Fused kind: the completion report carries both curves.
        let (path, path_str) = tmp("fused_json.json");
        trace_mrc(&sargs(&format!(
            "gen:zipf:200:4000:0.8:5 --exact --sample 64 --shards 4 --checkpoint {path_str} \
             --max-chunks 1"
        )))
        .unwrap();
        // An incomplete bounded resume still emits a parseable document.
        let partial = job(&sargs(&format!("resume {path_str} --max-units 1 --json"))).unwrap();
        let doc = jsonio::parse(&partial).unwrap();
        assert_eq!(doc.get("complete"), Some(&JsonValue::Bool(false)));
        assert_eq!(doc.get("ran").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(doc.get("completed").and_then(JsonValue::as_u64), Some(2));
        assert!(doc.get("exact").is_none());

        let finished = job(&sargs(&format!("resume {path_str} --json"))).unwrap();
        let doc = jsonio::parse(&finished).unwrap();
        assert_eq!(
            doc.get("kind").and_then(JsonValue::as_str),
            Some("symloc_fused_trace_checkpoint")
        );
        assert_eq!(doc.get("complete"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("total").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(doc.get("accesses").and_then(JsonValue::as_u64), Some(4000));
        assert_eq!(doc.get("streamed").and_then(JsonValue::as_u64), Some(4000));
        for engine in ["exact", "sampled"] {
            let curve = doc.get(engine).unwrap();
            assert!(
                curve.get("footprint").and_then(JsonValue::as_u64).is_some(),
                "{engine} footprint missing"
            );
            let mrc = curve.get("mrc").and_then(JsonValue::as_array).unwrap();
            assert!(!mrc.is_empty(), "{engine} curve empty");
        }
        assert!(doc
            .get("sampled")
            .unwrap()
            .get("min_rate")
            .and_then(JsonValue::as_f64)
            .is_some());
        std::fs::remove_file(&path).ok();

        // A sweep kind emits the shared progress fields too.
        let (spath, spath_str) = tmp("sweep_json.json");
        sweep(&sargs(&format!(
            "6 --shards 4 --max-shards 2 --checkpoint {spath_str}"
        )))
        .unwrap();
        let finished = job(&sargs(&format!("resume {spath_str} --json"))).unwrap();
        let doc = jsonio::parse(&finished).unwrap();
        assert_eq!(
            doc.get("kind").and_then(JsonValue::as_str),
            Some("symloc_sweep_checkpoint")
        );
        assert_eq!(doc.get("complete"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("ran").and_then(JsonValue::as_u64), Some(2));
        std::fs::remove_file(&spath).ok();
    }

    #[test]
    fn resume_refuses_changed_or_memory_sources() {
        // A text-source checkpoint whose file changed length is refused.
        let dir = std::env::temp_dir();
        let trace_path = dir.join(format!("symloc_cli_job_swap_{}.trace", std::process::id()));
        let (ckpt, ckpt_str) = tmp("swap.json");
        std::fs::write(&trace_path, "0\n1\n2\n0\n1\n2\n0\n1\n").unwrap();
        trace_mrc(&sargs(&format!(
            "{} --shards 4 --threads 1 --checkpoint {ckpt_str} --max-chunks 2",
            trace_path.to_string_lossy()
        )))
        .unwrap();
        std::fs::write(&trace_path, "7\n7\n").unwrap();
        let err = job(&sargs(&format!("resume {ckpt_str}"))).unwrap_err();
        assert!(err.to_string().contains("refusing to resume"), "{err}");
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&ckpt).ok();
    }
}
