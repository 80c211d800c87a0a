//! `symloc trace` — streaming trace analysis: `mrc` (the exact and/or
//! sampled miss-ratio curve, resumable), `convert` (format conversion +
//! sidecar chunk indexes) and `index` (build the sidecar for an existing
//! file).

use super::flags::{
    embed_json, write_metrics, CommandSpec, FlagSpec, CHECKPOINT, JSON, METRICS, THREADS,
};
use super::{help_requested, CliError};
use std::fmt::Write as _;
use std::path::Path;

use symloc_core::job::JobError;
use symloc_core::jsonio::escape;
use symloc_core::obs::{MetricsRegistry, Span};
use symloc_core::tracesweep::{
    log_spaced_sizes, FusedIngest, MrcPoint, OnlineReuseEngine, SampledSummary, ShardsEstimator,
    StreamHistogram, TracePlan,
};
use symloc_par::default_threads;
use symloc_trace::binio::{
    build_sltr_index, sltr_index_path, SltrIndex, SltrWriter, DEFAULT_INDEX_INTERVAL,
};
use symloc_trace::stream::{build_text_index, AccessSink, MeteredSink, ReadPlan, TraceSource};

const EXACT: FlagSpec = FlagSpec::switch(
    "--exact",
    "the exact curve (the default); with --sample, both curves from one pass",
);
const SAMPLE: FlagSpec = FlagSpec::value(
    "--sample",
    "S_MAX",
    "bounded-memory SHARDS sampling with this tracked-address budget",
);
const SHARDS: FlagSpec = FlagSpec::value(
    "--shards",
    "N",
    "chunk count (default 8); with --sample also the hash-shard count (default 1)",
);
const POINTS: FlagSpec = FlagSpec::value(
    "--points",
    "K",
    "MRC evaluation points, log-spaced over the footprint (default 16)",
);
const MAX_CHUNKS: FlagSpec = FlagSpec::value(
    "--max-chunks",
    "N",
    "run at most N chunks this invocation (needs --checkpoint)",
);
const INDEX: FlagSpec = FlagSpec::value(
    "--index",
    "N",
    "sidecar chunk-index interval for the output (0 = none; default 4096)",
);
const INTERVAL: FlagSpec = FlagSpec::value(
    "--interval",
    "N",
    "accesses between indexed offsets (default 4096)",
);

/// `symloc trace mrc` command table.
pub(crate) const TRACE_MRC: CommandSpec = CommandSpec {
    name: "trace mrc",
    summary: "reuse-distance profile and miss-ratio curve of a trace stream",
    usage: "symloc trace mrc <file|gen:...> [flags]",
    positionals: &[("source", "a trace file (text or .sltr) or a gen: spec")],
    variadic: false,
    flags: &[
        EXACT, SAMPLE, SHARDS, THREADS, POINTS, CHECKPOINT, MAX_CHUNKS, JSON, METRICS,
    ],
};

/// `symloc trace convert` command table.
pub(crate) const TRACE_CONVERT: CommandSpec = CommandSpec {
    name: "trace convert",
    summary: "convert a trace between text and .sltr (streaming, indexed)",
    usage: "symloc trace convert <file|gen:...> <out-file> [--index N]",
    positionals: &[
        ("source", "a trace file (text or .sltr) or a gen: spec"),
        (
            "out-file",
            ".sltr extension = binary output, anything else = text",
        ),
    ],
    variadic: false,
    flags: &[INDEX],
};

/// `symloc trace index` command table.
pub(crate) const TRACE_INDEX: CommandSpec = CommandSpec {
    name: "trace index",
    summary: "build the seekable sidecar chunk index for an existing trace",
    usage: "symloc trace index <file> [--interval N]",
    positionals: &[("file", "an existing text or .sltr trace file")],
    variadic: false,
    flags: &[INTERVAL],
};

/// Options of `symloc trace mrc`, parsed from its argument list.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMrcOptions {
    /// The trace source (file or `gen:` spec).
    pub source: TraceSource,
    /// Whether the exact curve is computed: `--exact`, or no `--sample`.
    pub exact: bool,
    /// `Some(s_max)` adds the bounded-memory sampled curve (`s_max` =
    /// total tracked-address budget, split across hash shards).
    pub sample: Option<usize>,
    /// Chunk count of the trace job.
    pub shards: usize,
    /// Hash-shard count of the sampled curve (set by the same `--shards`
    /// flag; defaults to 1 = the sequential estimator).
    pub sample_shards: usize,
    /// Worker threads.
    pub threads: usize,
    /// Number of MRC evaluation points (log-spaced over the footprint).
    pub points: usize,
    /// Checkpoint file making the run resumable.
    pub checkpoint: Option<String>,
    /// At most this many chunks this invocation (`None` = run to the end).
    pub max_chunks: Option<usize>,
    /// Emit a machine-readable JSON report instead of the table.
    pub json: bool,
    /// Write the metrics-registry snapshot (JSON) to this file.
    pub metrics: Option<String>,
}

impl TraceMrcOptions {
    /// The trace-job plan the options ask for.
    fn plan(&self) -> TracePlan {
        match self.sample {
            Some(s_max) => TracePlan {
                chunks: self.shards,
                exact: self.exact,
                shards: self.sample_shards,
                budget_per_shard: s_max / self.sample_shards,
            },
            None => TracePlan::exact(self.shards),
        }
    }

    /// True for the runs that skip the job and stream the trace once
    /// through one engine, without a checkpoint: the exact curve alone on
    /// one thread, or the sampled curve alone at one hash shard. Chunks
    /// cannot speed either up — one thread cannot split the exact work,
    /// and one estimator replays every access in order — while a source
    /// that does not seek (a random generator, an un-indexed file) would
    /// be decoded more than once.
    fn streams(&self) -> bool {
        let one_engine = match self.sample {
            None => self.threads == 1,
            Some(_) => !self.exact && self.sample_shards == 1,
        };
        one_engine && self.checkpoint.is_none()
    }
}

/// Parses the argument list of `symloc trace mrc` (everything after the
/// `mrc` subcommand).
///
/// # Errors
///
/// Returns a [`CliError`] on malformed flags or unsupported combinations.
pub fn parse_trace_mrc_options(args: &[String]) -> Result<TraceMrcOptions, CliError> {
    let parsed = TRACE_MRC
        .parse(args)?
        .expect("callers handle --help before parsing");
    let source_arg = parsed
        .positionals
        .first()
        .ok_or_else(|| CliError("trace mrc needs a trace file or gen: spec".into()))?;
    let source = TraceSource::parse(source_arg).map_err(CliError)?;
    let shards = parsed.usize(SHARDS.name)?;
    let sample = parsed.usize(SAMPLE.name)?;
    let options = TraceMrcOptions {
        source,
        exact: parsed.switch(EXACT.name) || sample.is_none(),
        sample,
        shards: shards.unwrap_or(8),
        sample_shards: shards.unwrap_or(1),
        threads: parsed.usize(THREADS.name)?.unwrap_or_else(default_threads),
        points: parsed.usize(POINTS.name)?.unwrap_or(16),
        checkpoint: parsed.value(CHECKPOINT.name).map(ToString::to_string),
        max_chunks: parsed.usize(MAX_CHUNKS.name)?,
        json: parsed.switch(JSON.name),
        metrics: parsed.value(METRICS.name).map(ToString::to_string),
    };
    if options.sample == Some(0) {
        return Err(CliError("--sample needs a positive budget".into()));
    }
    if shards == Some(0) {
        return Err(CliError("--shards must be positive".into()));
    }
    if options.points == 0 {
        return Err(CliError("--points must be positive".into()));
    }
    if let Some(s_max) = options.sample {
        if s_max < options.sample_shards {
            return Err(CliError(format!(
                "--sample {s_max} is below one tracked address per hash shard \
                 (--shards {})",
                options.sample_shards
            )));
        }
    }
    if options.max_chunks.is_some() && options.checkpoint.is_none() {
        return Err(CliError(
            "--max-chunks only makes sense with --checkpoint (a bounded \
             partial run needs somewhere to save its progress)"
                .into(),
        ));
    }
    Ok(options)
}

/// The CLI error of a trace job run that `error` stopped: `cannot read
/// <source>: …` for a chunk that could not be read or did not match the
/// source's sidecar, `cannot write checkpoint <path>: …` for a failed save.
pub(crate) fn trace_job_error(error: JobError, source: &TraceSource, checkpoint: &str) -> CliError {
    match error {
        JobError::Unit(message) => CliError(format!("cannot read {source}: {message}")),
        JobError::Save(error) => CliError(format!("cannot write checkpoint {checkpoint}: {error}")),
    }
}

/// Renders the MRC table of a finished (exact or sampled) analysis.
pub(crate) fn mrc_table(points: &[MrcPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>12} {:>12}", "cache size", "miss ratio");
    for p in points {
        let _ = writeln!(out, "{:>12} {:>12.4}", p.cache_size, p.miss_ratio);
    }
    out
}

/// Renders MRC points as a JSON `[[size, ratio], ...]` array fragment.
pub(crate) fn mrc_array(points: &[MrcPoint]) -> String {
    let mut out = String::from("[");
    for (i, p) in points.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}[{}, {}]", p.cache_size, p.miss_ratio);
    }
    out.push(']');
    out
}

/// Renders `fields` (each value a raw JSON fragment) and the run's
/// metrics-registry snapshot as one JSON document.
pub(crate) fn json_document(fields: &[(&str, String)], metrics: &MetricsRegistry) -> String {
    let mut out = String::from("{\n");
    for (key, value) in fields {
        let _ = writeln!(out, "  \"{key}\": {value},");
    }
    let _ = writeln!(out, "  \"metrics\": {}", embed_json(&metrics.to_json()));
    out.push_str("}\n");
    out
}

/// A finished trace analysis in the one shape `trace mrc` and `job
/// resume` report, human and `--json`: the access counts, and a curve for
/// each half that ran.
pub(crate) struct TraceReport {
    /// The `"engine"` tag of the JSON report.
    engine: &'static str,
    /// The human description of the engine.
    description: String,
    accesses: u64,
    streamed: u64,
    exact: Option<StreamHistogram>,
    sampled: Option<SampledSummary>,
}

impl TraceReport {
    /// The report of a complete trace job, or `None` while chunks are
    /// pending.
    pub(crate) fn of_job(job: &FusedIngest, threads: usize) -> Option<TraceReport> {
        if !job.is_complete() {
            return None;
        }
        let plan = job.plan();
        let sampled = job.sampled_summary();
        let mut description = format!(
            "trace job ({} chunks, {threads} threads): {}",
            plan.chunks,
            plan.halves()
        );
        if let Some(summary) = &sampled {
            let _ = write!(
                description,
                " ({} hash shards x {} budget, min rate {:.4}, {} sampled, {} evictions)",
                plan.shards,
                plan.budget_per_shard,
                summary.min_rate,
                summary.sampled_accesses,
                summary.evictions
            );
        }
        Some(TraceReport {
            engine: match (plan.exact, sampled.is_some()) {
                (true, true) => "fused_exact_sampled",
                (true, false) => "exact_sharded",
                (false, _) => "sampled_hash_sharded",
            },
            description,
            accesses: job.total_accesses(),
            streamed: job.streamed_accesses(),
            exact: job.exact_histogram().cloned(),
            sampled,
        })
    }

    /// The exact curve's footprint and points.
    fn exact_curve(histogram: &StreamHistogram, points: usize) -> (usize, Vec<MrcPoint>) {
        let footprint = usize::try_from(histogram.cold_count()).unwrap_or(usize::MAX);
        (
            footprint,
            histogram.mrc_points(&log_spaced_sizes(footprint, points)),
        )
    }

    /// The sampled curve's estimated footprint and points.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fn sampled_curve(summary: &SampledSummary, points: usize) -> (usize, Vec<MrcPoint>) {
        let footprint = summary.estimated_footprint().round().max(1.0) as usize;
        (
            footprint,
            summary
                .histogram
                .mrc_points(&log_spaced_sizes(footprint, points)),
        )
    }

    /// The human report: the counts, then one table per curve.
    pub(crate) fn text(&self, points: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "accesses            : {}", self.accesses);
        let _ = writeln!(out, "engine              : {}", self.description);
        let _ = writeln!(
            out,
            "streamed            : {} (each access decoded once)",
            self.streamed
        );
        if let Some(histogram) = &self.exact {
            let (footprint, curve) = Self::exact_curve(histogram, points);
            let _ = writeln!(out, "exact footprint     : {footprint}");
            out.push_str(&mrc_table(&curve));
        }
        if let Some(summary) = &self.sampled {
            let (footprint, curve) = Self::sampled_curve(summary, points);
            let _ = writeln!(out, "sampled footprint   : ~{footprint} (estimated)");
            out.push_str(&mrc_table(&curve));
        }
        out
    }

    /// The report's JSON fields: `engine`, `accesses`, `streamed`, and an
    /// `exact` and a `sampled` curve object for each half that ran.
    pub(crate) fn json_fields(&self, points: usize) -> Vec<(&'static str, String)> {
        let mut fields = vec![
            ("engine", format!("\"{}\"", self.engine)),
            ("accesses", self.accesses.to_string()),
            ("streamed", self.streamed.to_string()),
        ];
        if let Some(histogram) = &self.exact {
            let (footprint, curve) = Self::exact_curve(histogram, points);
            fields.push((
                "exact",
                format!(
                    "{{\"footprint\": {footprint}, \"mrc\": {}}}",
                    mrc_array(&curve)
                ),
            ));
        }
        if let Some(summary) = &self.sampled {
            let (footprint, curve) = Self::sampled_curve(summary, points);
            fields.push((
                "sampled",
                format!(
                    "{{\"footprint\": {footprint}, \"footprint_estimated\": true, \
                     \"min_rate\": {}, \"mrc\": {}}}",
                    summary.min_rate,
                    mrc_array(&curve)
                ),
            ));
        }
        fields
    }
}

/// `symloc trace mrc <file|gen:...>` — streams the trace once and reports
/// its miss-ratio curves: the exact curve, the SHARDS-sampled curve in
/// `O(s_max)` memory, or — with `--exact --sample S` — both from one
/// pass. Every run goes through the resumable trace job except the ones
/// that ask for one curve from one engine without a checkpoint (the exact
/// curve alone on one thread, or the sampled curve alone at one hash
/// shard), which stream the trace once through that engine.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed arguments, unreadable sources,
/// checkpoint I/O failures, or a checkpoint file of a different or
/// retired job kind.
pub fn trace_mrc(args: &[String]) -> Result<String, CliError> {
    if help_requested(args) {
        return Ok(TRACE_MRC.help());
    }
    let options = parse_trace_mrc_options(args)?;
    let source = &options.source;
    let mut registry = MetricsRegistry::new();
    let mut out = String::new();
    let _ = writeln!(out, "trace mrc — {source}");
    let report = if options.streams() {
        stream_one_pass(&options, &mut registry)?
    } else {
        let job = run_trace_job(&options, &mut out, &mut registry)?;
        match TraceReport::of_job(&job, options.threads) {
            Some(report) => report,
            None if options.json => {
                return Ok(json_document(
                    &[
                        ("source", format!("\"{}\"", escape(&source.fingerprint()))),
                        ("complete", "false".to_string()),
                        ("completed", job.completed_count().to_string()),
                        ("total", job.chunk_count().to_string()),
                    ],
                    &registry,
                ));
            }
            None => {
                let _ = writeln!(
                    out,
                    "ingest incomplete — re-run the same command to continue from the checkpoint"
                );
                return Ok(out);
            }
        }
    };
    if options.json {
        let mut fields = vec![
            ("source", format!("\"{}\"", escape(&source.fingerprint()))),
            ("complete", "true".to_string()),
        ];
        fields.extend(report.json_fields(options.points));
        return Ok(json_document(&fields, &registry));
    }
    out.push_str(&report.text(options.points));
    Ok(out)
}

/// The run of [`TraceMrcOptions::streams`]: one pass of the trace through
/// the exact engine or the sampled estimator, writing the `--metrics`
/// snapshot with the engine's gauges.
fn stream_one_pass(
    options: &TraceMrcOptions,
    registry: &mut MetricsRegistry,
) -> Result<TraceReport, CliError> {
    let report = match options.sample {
        None => {
            let engine = stream_into(OnlineReuseEngine::new(), &options.source, registry)?;
            engine.record_gauges(registry);
            TraceReport {
                engine: "exact_streaming",
                description: "exact streaming (1 thread)".to_string(),
                accesses: engine.accesses(),
                streamed: engine.accesses(),
                exact: Some(engine.into_histogram()),
                sampled: None,
            }
        }
        Some(s_max) => {
            let estimator = stream_into(ShardsEstimator::new(s_max), &options.source, registry)?;
            estimator.record_gauges(registry);
            TraceReport {
                engine: "sampled",
                description: format!(
                    "sampled streaming (s_max {s_max}, rate {:.4}, {} sampled, {} evictions)",
                    estimator.sampling_rate(),
                    estimator.sampled_accesses(),
                    estimator.evictions()
                ),
                accesses: estimator.raw_accesses(),
                streamed: estimator.raw_accesses(),
                exact: None,
                sampled: Some(estimator.summary()),
            }
        }
    };
    write_metrics(options.metrics.as_deref(), registry)?;
    Ok(report)
}

/// Streams `source` once into `engine` behind a `MeteredSink`, so decode
/// time (pulling blocks off the source) and compute time (the engine's
/// work) are split into `trace.*` counters — delivery to the engine is
/// unchanged, so its result is identical to the unmetered loop. The one
/// pass is also the validation: an indexed file is read to its sidecar's
/// access count and checked against the sidecar as it decodes
/// ([`ReadPlan::whole`]), and the reader's first error is the command's.
fn stream_into<S: AccessSink>(
    engine: S,
    source: &TraceSource,
    registry: &mut MetricsRegistry,
) -> Result<S, CliError> {
    let span = Span::start();
    let mut sink = MeteredSink::new(engine);
    let cannot_read = |e| CliError(format!("cannot read {source}: {e}"));
    let plan = ReadPlan::whole(source).map_err(cannot_read)?;
    let mut blocks = source
        .read_blocks(&plan, 0, u64::MAX)
        .map_err(cannot_read)?;
    let mut buf = Vec::new();
    loop {
        let decode = Span::start();
        let n = blocks.try_next_block(&mut buf).map_err(cannot_read)?;
        sink.add_decode_nanos(decode.elapsed_nanos());
        if n == 0 {
            break;
        }
        sink.on_block(&buf);
    }
    registry.add("trace.accesses", sink.accesses());
    registry.add("trace.blocks", sink.blocks());
    registry.add("trace.decode_nanos", sink.decode_nanos());
    registry.add("trace.compute_nanos", sink.compute_nanos());
    span.record(registry, "trace.total_nanos");
    Ok(sink.into_inner())
}

/// Runs the trace job the options describe — resumed from and saved to
/// `--checkpoint` when given — noting resumes, plan mismatches and
/// progress in `out`, and writing the `--metrics` snapshot with the
/// sampled half's estimator gauges.
fn run_trace_job(
    options: &TraceMrcOptions,
    out: &mut String,
    registry: &mut MetricsRegistry,
) -> Result<FusedIngest, CliError> {
    let job = match &options.checkpoint {
        None => {
            let source = &options.source;
            let mut job =
                FusedIngest::planned(source, options.plan(), options.threads).map_err(CliError)?;
            let span = Span::start();
            job.run_pending_metered(source, None, None)
                .map_err(|e| CliError(format!("cannot read {source}: {e}")))?;
            registry.set_gauge("job.elapsed_secs", span.elapsed_secs());
            span.record(registry, "trace.total_nanos");
            job
        }
        Some(checkpoint) => run_checkpointed_job(options, checkpoint, out, registry)?,
    };
    job.record_gauges(registry);
    write_metrics(options.metrics.as_deref(), registry)?;
    Ok(job)
}

/// [`run_trace_job`] resumed from and saved to `checkpoint`.
fn run_checkpointed_job(
    options: &TraceMrcOptions,
    checkpoint: &str,
    out: &mut String,
    registry: &mut MetricsRegistry,
) -> Result<FusedIngest, CliError> {
    let source = &options.source;
    let plan = options.plan();
    let path = Path::new(checkpoint);
    let (mut job, resumed) =
        FusedIngest::resume_or_new(source, plan, options.threads, path).map_err(CliError)?;
    if resumed {
        let _ = writeln!(
            out,
            "resumed from {checkpoint}: {} of {} chunks were already done",
            job.completed_count(),
            job.chunk_count()
        );
    } else if path.exists() {
        // A checkpoint is on disk but did not match this source, access
        // count or plan — say so before overwriting it, so a mistyped
        // flag or path does not silently discard progress. It goes to
        // stderr before any chunk runs, since the report is lost when the
        // run then fails (and a `--json` report has no place for it).
        let warning = format!(
            "warning: existing checkpoint {checkpoint} does not match this \
             source/plan (source {source}, {} accesses, {} chunks, {}, {} hash \
             shards); starting fresh and overwriting it",
            job.total_accesses(),
            job.chunk_count(),
            plan.halves(),
            plan.shards
        );
        eprintln!("{warning}");
        let _ = writeln!(out, "{warning}");
    }
    let ran = job
        .run_with_checkpoint_metered(
            source,
            path,
            options.max_chunks,
            Some(&mut *registry),
            |_, _| {},
        )
        .map_err(|e| trace_job_error(e, source, checkpoint))?;
    let _ = writeln!(
        out,
        "ran {ran} chunk(s); {} of {} complete; checkpoint saved to {checkpoint}",
        job.completed_count(),
        job.chunk_count()
    );
    Ok(job)
}

/// `symloc trace convert <in> <out> [--index N]` — streams a trace from any
/// source into a file, picking the output format by extension (`.sltr` =
/// binary varint, anything else = plain text). Never materializes the
/// trace, so converting a multi-gigabyte generator spec to `.sltr` is fine.
///
/// Both output formats also get a sidecar chunk index at `<out>.idx` (byte
/// offset every `N` accesses — default 4096) so later range reads *seek*
/// instead of decode- or parse-skipping; `--index 0` disables it.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed arguments or I/O failures.
pub fn trace_convert(args: &[String]) -> Result<String, CliError> {
    if help_requested(args) {
        return Ok(TRACE_CONVERT.help());
    }
    let parsed = TRACE_CONVERT.parse(args)?.expect("--help handled above");
    let source_arg = parsed
        .positionals
        .first()
        .ok_or_else(|| CliError("trace convert needs a source".into()))?;
    let out_path = parsed
        .positionals
        .get(1)
        .ok_or_else(|| CliError("trace convert needs an output file".into()))?
        .clone();
    let interval = parsed.u64(INDEX.name)?.unwrap_or(DEFAULT_INDEX_INTERVAL);
    let source = TraceSource::parse(source_arg).map_err(CliError)?;
    // Count first, so a damaged source fails before any output exists; the
    // copy then reads under that count and fails, instead of writing a
    // different trace, if the source changed in between.
    let cannot_read = |e| CliError(format!("cannot read {source}: {e}"));
    let total = source.total_accesses().map_err(cannot_read)?;
    let mut blocks = source
        .read_blocks(&ReadPlan::planned(&source, total), 0, total)
        .map_err(cannot_read)?;
    let mut copy = |push: &mut dyn FnMut(u64) -> Result<(), CliError>| -> Result<(), CliError> {
        let mut buf = Vec::new();
        while blocks.try_next_block(&mut buf).map_err(cannot_read)? > 0 {
            buf.iter().try_for_each(|&addr| push(addr))?;
        }
        Ok(())
    };
    let binary = Path::new(&out_path)
        .extension()
        .is_some_and(|e| e == "sltr");
    let sidecar = sltr_index_path(Path::new(&out_path));
    let mut indexed = false;
    let written = if binary {
        let io_err = |e| CliError(format!("cannot write {out_path}: {e}"));
        let file = std::fs::File::create(&out_path)
            .map_err(|e| CliError(format!("cannot create {out_path}: {e}")))?;
        if interval > 0 {
            let mut writer = SltrWriter::new_indexed(file, interval).map_err(io_err)?;
            copy(&mut |addr| writer.push(addr).map_err(io_err))?;
            let (written, index) = writer.finish_indexed().map_err(io_err)?;
            index
                .write(&sidecar)
                .map_err(|e| CliError(format!("cannot write {}: {e}", sidecar.display())))?;
            indexed = true;
            written
        } else {
            // --index 0: no sidecar, and make sure a stale one from a
            // previous conversion cannot outlive the new payload.
            std::fs::remove_file(&sidecar).ok();
            let mut writer = SltrWriter::new(file).map_err(io_err)?;
            copy(&mut |addr| writer.push(addr).map_err(io_err))?;
            writer.finish().map_err(io_err)?
        }
    } else {
        use std::io::Write as _;
        let io_err = |e| CliError(format!("cannot write {out_path}: {e}"));
        let file = std::fs::File::create(&out_path)
            .map_err(|e| CliError(format!("cannot create {out_path}: {e}")))?;
        let mut writer = std::io::BufWriter::new(file);
        let header = "# symloc trace\n";
        writer.write_all(header.as_bytes()).map_err(io_err)?;
        let mut written = 0u64;
        let mut bytes = header.len() as u64;
        let mut offsets = Vec::new();
        let mut line = String::new();
        copy(&mut |addr| {
            if interval > 0 && written > 0 && written.is_multiple_of(interval) {
                offsets.push(bytes);
            }
            line.clear();
            let _ = writeln!(line, "{addr}");
            writer.write_all(line.as_bytes()).map_err(io_err)?;
            bytes += line.len() as u64;
            written += 1;
            Ok(())
        })?;
        writer.flush().map_err(io_err)?;
        if interval > 0 {
            SltrIndex::from_parts(interval, written, bytes, offsets)
                .write(&sidecar)
                .map_err(|e| CliError(format!("cannot write {}: {e}", sidecar.display())))?;
            indexed = true;
        } else {
            std::fs::remove_file(&sidecar).ok();
        }
        written
    };
    Ok(format!(
        "converted {source} -> {out_path} ({written} accesses, {} format{})\n",
        if binary { "sltr" } else { "text" },
        if indexed {
            format!(
                ", {} index every {interval}",
                if binary { "chunk" } else { "line" }
            )
        } else {
            String::new()
        }
    ))
}

/// `symloc trace index <file> [--interval N]` — builds the seekable
/// sidecar chunk index for an *existing* trace file (text or `.sltr`), so
/// sharded ingests seek instead of decode- or parse-skipping to their
/// chunks. Overwrites any previous sidecar.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed arguments, non-file sources, or
/// read/parse failures.
pub fn trace_index(args: &[String]) -> Result<String, CliError> {
    if help_requested(args) {
        return Ok(TRACE_INDEX.help());
    }
    let parsed = TRACE_INDEX.parse(args)?.expect("--help handled above");
    let file = parsed
        .positionals
        .first()
        .ok_or_else(|| CliError("trace index needs a trace file".into()))?;
    let interval = parsed.u64(INTERVAL.name)?.unwrap_or(DEFAULT_INDEX_INTERVAL);
    if interval == 0 {
        return Err(CliError("--interval must be positive".into()));
    }
    let source = TraceSource::parse(file).map_err(CliError)?;
    let (path, index, kind) = match &source {
        TraceSource::Text(path) => (
            path.clone(),
            build_text_index(path, interval)
                .map_err(|e| CliError(format!("cannot index {file}: {e}")))?,
            "line",
        ),
        TraceSource::Binary(path) => (
            path.clone(),
            build_sltr_index(path, interval)
                .map_err(|e| CliError(format!("cannot index {file}: {e}")))?,
            "chunk",
        ),
        TraceSource::Gen(_) | TraceSource::Memory(_) => {
            return Err(CliError(
                "trace index needs a file on disk (generator specs position in O(1) already)"
                    .into(),
            ))
        }
    };
    let sidecar = sltr_index_path(&path);
    index
        .write(&sidecar)
        .map_err(|e| CliError(format!("cannot write {}: {e}", sidecar.display())))?;
    Ok(format!(
        "indexed {file}: {} accesses, {} index every {interval} -> {}\n",
        index.total_accesses(),
        kind,
        sidecar.display()
    ))
}

/// Dispatches the `symloc trace <mrc|convert|index>` subcommands.
///
/// # Errors
///
/// See [`trace_mrc`], [`trace_convert`] and [`trace_index`].
pub fn trace(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("mrc") => trace_mrc(&args[1..]),
        Some("convert") => trace_convert(&args[1..]),
        Some("index") => trace_index(&args[1..]),
        Some("--help" | "-h") => Ok(format!(
            "symloc trace — streaming trace analysis\n\nUSAGE:\n  {}\n  {}\n  {}\n",
            TRACE_MRC.usage, TRACE_CONVERT.usage, TRACE_INDEX.usage
        )),
        Some(other) => Err(CliError(format!(
            "unknown trace subcommand {other:?} (expected mrc, convert or index)"
        ))),
        None => Err(CliError(
            "trace needs a subcommand (mrc, convert or index)".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::sargs;
    use symloc_core::jsonio::{self, JsonValue};
    use symloc_trace::io::read_trace;

    #[test]
    fn trace_mrc_option_parsing() {
        let options = parse_trace_mrc_options(&sargs(
            "gen:zipf:100:1000:0.9:1 --sample 64 --threads 2 --points 8",
        ))
        .unwrap();
        assert_eq!(options.sample, Some(64));
        assert_eq!(options.threads, 2);
        assert_eq!(options.points, 8);
        assert!(!options.json);
        assert!(matches!(options.source, TraceSource::Gen(_)));
        assert!(parse_trace_mrc_options(&sargs("")).is_err());
        assert!(parse_trace_mrc_options(&sargs("gen:bogus:1")).is_err());
        assert!(parse_trace_mrc_options(&sargs("x.trace --sample 0")).is_err());
        assert!(parse_trace_mrc_options(&sargs("x.trace --shards 0")).is_err());
        assert!(parse_trace_mrc_options(&sargs("x.trace --points 0")).is_err());
        assert!(parse_trace_mrc_options(&sargs("x.trace --frobnicate 1")).is_err());
        // --exact --sample together select both halves of the job; either
        // flag alone selects one, and no flag at all the exact half.
        let both = parse_trace_mrc_options(&sargs("x.trace --exact --sample 9")).unwrap();
        assert_eq!(both.plan(), TracePlan::both(8, 1, 9));
        let sampled = parse_trace_mrc_options(&sargs("x.trace --sample 9")).unwrap();
        assert_eq!(sampled.plan(), TracePlan::sampled(8, 1, 9));
        for exact in ["x.trace --exact", "x.trace"] {
            let options = parse_trace_mrc_options(&sargs(exact)).unwrap();
            assert_eq!(options.plan(), TracePlan::exact(8));
        }
        // Only one curve from one engine without a checkpoint skips the
        // job: the exact curve on one thread, or the sampled curve at one
        // hash shard.
        for streams in [
            "x.trace --threads 1",
            "x.trace --sample 9",
            "x.trace --sample 9 --shards 1 --threads 4",
        ] {
            assert!(
                parse_trace_mrc_options(&sargs(streams)).unwrap().streams(),
                "{streams}"
            );
        }
        for job in [
            "x.trace --threads 2",
            "x.trace --threads 1 --exact --sample 9",
            "x.trace --sample 9 --shards 2",
            "x.trace --sample 9 --checkpoint c.json",
            "x.trace --threads 1 --checkpoint c.json",
        ] {
            assert!(
                !parse_trace_mrc_options(&sargs(job)).unwrap().streams(),
                "{job}"
            );
        }
        // The fused budget floor matches the sampled path's.
        assert!(parse_trace_mrc_options(&sargs("x.trace --exact --sample 3 --shards 4")).is_err());
        // Sampled runs checkpoint too, and --shards doubles as the
        // hash-shard count of the sampled half.
        assert!(parse_trace_mrc_options(&sargs("x.trace --sample 9 --checkpoint c.json")).is_ok());
        let sharded = parse_trace_mrc_options(&sargs("x.trace --sample 64 --shards 4")).unwrap();
        assert_eq!(sharded.plan(), TracePlan::sampled(4, 4, 16));
        assert_eq!(
            parse_trace_mrc_options(&sargs("x.trace --sample 64"))
                .unwrap()
                .sample_shards,
            1
        );
        // A budget below one address per shard is rejected.
        assert!(parse_trace_mrc_options(&sargs("x.trace --sample 3 --shards 4")).is_err());
        assert!(parse_trace_mrc_options(&sargs("x.trace --max-chunks 2")).is_err());
        assert!(parse_trace_mrc_options(&sargs("x.trace --exact")).is_ok());
        assert!(
            parse_trace_mrc_options(&sargs("x.trace --json"))
                .unwrap()
                .json
        );
    }

    #[test]
    fn trace_mrc_exact_sampled_and_sharded_agree() {
        // Exact streaming, the exact job and full-budget sampling must all
        // report the same curve for the same generated trace.
        let exact = trace_mrc(&sargs("gen:sawtooth:50:8 --threads 1 --points 6")).unwrap();
        assert!(exact.contains("accesses            : 400"));
        assert!(exact.contains("exact streaming"));
        assert!(exact.contains("exact footprint     : 50"));
        let sharded = trace_mrc(&sargs(
            "gen:sawtooth:50:8 --threads 3 --shards 5 --points 6",
        ))
        .unwrap();
        assert!(
            sharded.contains("trace job (5 chunks, 3 threads): exact"),
            "{sharded}"
        );
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("exact footprint"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&exact), tail(&sharded));
        // A sampling budget beyond the footprint reproduces the exact curve.
        let sampled = trace_mrc(&sargs("gen:sawtooth:50:8 --sample 100 --points 6")).unwrap();
        assert!(sampled.contains("rate 1.0000"));
        assert!(sampled.contains("~50 (estimated)"));
        assert!(!sampled.contains("exact footprint"), "{sampled}");
        for line in tail(&exact).lines().skip(1) {
            assert!(
                sampled.contains(line.trim_start_matches(' ')),
                "missing {line:?}"
            );
        }
    }

    #[test]
    fn trace_mrc_json_output_parses() {
        let report = trace_mrc(&sargs("gen:sawtooth:50:8 --threads 1 --points 6 --json")).unwrap();
        let doc = jsonio::parse(&report).unwrap();
        assert_eq!(
            doc.get("source").and_then(JsonValue::as_str),
            Some("gen:sawtooth:50:8")
        );
        assert_eq!(doc.get("complete"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("accesses").and_then(JsonValue::as_u64), Some(400));
        assert_eq!(
            doc.get("engine").and_then(JsonValue::as_str),
            Some("exact_streaming")
        );
        let exact = doc.get("exact").unwrap();
        assert_eq!(exact.get("footprint").and_then(JsonValue::as_u64), Some(50));
        assert!(doc.get("sampled").is_none());
        let mrc = exact.get("mrc").and_then(JsonValue::as_array).unwrap();
        assert!(!mrc.is_empty());
        for point in mrc {
            let pair = point.as_array().unwrap();
            assert!(pair[0].as_u64().is_some());
            assert!((0.0..=1.0).contains(&pair[1].as_f64().unwrap()));
        }
        // The sampled curve reports an estimated footprint, and no exact
        // curve rides along.
        let sampled =
            trace_mrc(&sargs("gen:sawtooth:50:8 --sample 100 --points 6 --json")).unwrap();
        let doc = jsonio::parse(&sampled).unwrap();
        assert_eq!(
            doc.get("engine").and_then(JsonValue::as_str),
            Some("sampled")
        );
        assert_eq!(
            doc.get("sampled").unwrap().get("footprint_estimated"),
            Some(&JsonValue::Bool(true))
        );
        assert!(doc.get("exact").is_none());
    }

    #[test]
    fn trace_mrc_metrics_snapshots_carry_engine_gauges() {
        let path = std::env::temp_dir().join(format!(
            "symloc_cli_trace_metrics_{}.json",
            std::process::id()
        ));
        for (flags, names) in [
            (
                "--threads 1",
                &["engine.footprint", "trace.decode_nanos"][..],
            ),
            (
                "--sample 64",
                &["estimator.threshold", "trace.decode_nanos"][..],
            ),
            (
                "--sample 64 --shards 3",
                &["estimator.tracked", "job.elapsed_secs"][..],
            ),
            (
                "--exact --sample 64 --shards 3 --threads 2",
                &["estimator.sampling_rate", "estimator.estimated_footprint"][..],
            ),
        ] {
            std::fs::remove_file(&path).ok();
            trace_mrc(&sargs(&format!(
                "gen:zipf:200:4000:0.8:5 {flags} --points 4 --metrics {}",
                path.display()
            )))
            .unwrap();
            let snapshot = std::fs::read_to_string(&path).unwrap();
            for name in names {
                assert!(snapshot.contains(&format!("\"{name}\"")), "{flags}: {name}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_mrc_checkpoint_flow_resumes_and_completes() {
        let path = std::env::temp_dir().join("symloc_cli_trace_checkpoint.json");
        let path_str = path.to_string_lossy().to_string();
        std::fs::remove_file(&path).ok();

        let spec = format!("gen:zipf:60:2000:0.8:3 --shards 6 --threads 2 --checkpoint {path_str}");
        let first = trace_mrc(&sargs(&format!("{spec} --max-chunks 2"))).unwrap();
        assert!(first.contains("2 of 6 complete"));
        assert!(first.contains("ingest incomplete"));

        // A --json probe of the incomplete state reports progress.
        let probe = trace_mrc(&sargs(&format!("{spec} --max-chunks 0 --json"))).unwrap();
        let doc = jsonio::parse(&probe).unwrap();
        assert_eq!(doc.get("complete"), Some(&JsonValue::Bool(false)));
        assert_eq!(doc.get("completed").and_then(JsonValue::as_u64), Some(2));

        let second = trace_mrc(&sargs(&spec)).unwrap();
        assert!(second.contains("resumed from"));
        assert!(second.contains("6 of 6 complete"));
        assert!(second.contains("accesses            : 2000"));

        // A mismatched chunk plan does not silently discard the checkpoint:
        // the report warns before overwriting.
        let mismatched = trace_mrc(&sargs(&format!(
            "gen:zipf:60:2000:0.8:3 --shards 9 --threads 2 --checkpoint {path_str}"
        )))
        .unwrap();
        assert!(mismatched.contains("does not match this source/plan"));
        assert!(mismatched.contains("9 of 9 complete"));

        // The checkpointed result equals the direct streaming analysis.
        let direct = trace_mrc(&sargs("gen:zipf:60:2000:0.8:3 --threads 1")).unwrap();
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("exact footprint"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&second), tail(&direct));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_mrc_hash_sharded_sampling_and_checkpoint_flow() {
        let path = std::env::temp_dir().join("symloc_cli_sampled_trace_checkpoint.json");
        let path_str = path.to_string_lossy().to_string();
        std::fs::remove_file(&path).ok();

        // Hash-sharded sampled run without a checkpoint.
        let direct = trace_mrc(&sargs(
            "gen:zipf:200:4000:0.8:5 --sample 64 --shards 4 --points 6",
        ))
        .unwrap();
        assert!(
            direct.contains("sampled (4 hash shards x 16 budget"),
            "{direct}"
        );
        assert!(direct.contains("accesses            : 4000"));

        // The same plan, checkpointed and interrupted mid-run.
        let spec = format!(
            "gen:zipf:200:4000:0.8:5 --sample 64 --shards 4 --points 6 --checkpoint {path_str}"
        );
        let first = trace_mrc(&sargs(&format!("{spec} --max-chunks 2"))).unwrap();
        assert!(first.contains("2 of 4 complete"), "{first}");
        assert!(first.contains("ingest incomplete"));

        let second = trace_mrc(&sargs(&spec)).unwrap();
        assert!(second.contains("resumed from"));
        assert!(second.contains("4 of 4 complete"));

        // Checkpointed and direct runs agree from the engine line down.
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("accesses"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&second), tail(&direct));

        // One hash shard without a checkpoint streams the trace once
        // through the sequential estimator, and reports the table of the
        // job at one hash shard, whose whole budget is on that shard.
        let single = trace_mrc(&sargs("gen:zipf:200:4000:0.8:5 --sample 64 --points 6")).unwrap();
        assert!(single.contains("sampled streaming (s_max 64"), "{single}");
        std::fs::remove_file(&path).ok();
        let job = trace_mrc(&sargs(&format!(
            "gen:zipf:200:4000:0.8:5 --sample 64 --points 6 --checkpoint {path_str}"
        )))
        .unwrap();
        assert!(job.contains("sampled (1 hash shards x 64 budget"), "{job}");
        let table = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("sampled footprint"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(table(&single), table(&job));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_mrc_fused_agrees_with_separate_exact_and_sampled_runs() {
        // One pass with both halves must reproduce the exact table of the
        // exact-only run *and* the sampled table of the sampled-only run,
        // for the same plans.
        let fused = trace_mrc(&sargs(
            "gen:zipf:200:4000:0.8:5 --exact --sample 64 --shards 4 --threads 2 --points 6",
        ))
        .unwrap();
        assert!(
            fused.contains(
                "engine              : trace job (4 chunks, 2 threads): exact + sampled \
                 (4 hash shards x 16 budget"
            ),
            "{fused}"
        );
        assert!(fused.contains("accesses            : 4000"));
        assert!(fused.contains("streamed            : 4000 (each access decoded once)"));
        let exact = trace_mrc(&sargs(
            "gen:zipf:200:4000:0.8:5 --shards 4 --threads 2 --points 6",
        ))
        .unwrap();
        let sampled = trace_mrc(&sargs(
            "gen:zipf:200:4000:0.8:5 --sample 64 --shards 4 --points 6",
        ))
        .unwrap();
        let table_after = |s: &str, marker: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with(marker))
                .skip(1)
                .take_while(|l| l.starts_with("  "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(
            table_after(&fused, "exact footprint"),
            table_after(&exact, "exact footprint"),
            "fused exact curve must match the exact-only curve"
        );
        assert_eq!(
            table_after(&fused, "sampled footprint"),
            table_after(&sampled, "sampled footprint"),
            "fused sampled curve must match the sampled-only curve"
        );
    }

    #[test]
    fn trace_mrc_fused_json_reports_both_curves() {
        let report = trace_mrc(&sargs(
            "gen:zipf:200:4000:0.8:5 --exact --sample 64 --shards 4 --points 6 --json",
        ))
        .unwrap();
        let doc = jsonio::parse(&report).unwrap();
        assert_eq!(
            doc.get("engine").and_then(JsonValue::as_str),
            Some("fused_exact_sampled")
        );
        assert_eq!(doc.get("complete"), Some(&JsonValue::Bool(true)));
        assert_eq!(doc.get("accesses").and_then(JsonValue::as_u64), Some(4000));
        // One pass: every access decoded exactly once.
        assert_eq!(doc.get("streamed").and_then(JsonValue::as_u64), Some(4000));
        let exact = doc.get("exact").unwrap();
        assert!(exact.get("footprint").and_then(JsonValue::as_u64).is_some());
        let sampled = doc.get("sampled").unwrap();
        assert_eq!(
            sampled.get("footprint_estimated"),
            Some(&JsonValue::Bool(true))
        );
        assert!(sampled
            .get("min_rate")
            .and_then(JsonValue::as_f64)
            .is_some());
        for engine in [exact, sampled] {
            let mrc = engine.get("mrc").and_then(JsonValue::as_array).unwrap();
            assert!(!mrc.is_empty());
            for point in mrc {
                let pair = point.as_array().unwrap();
                assert!(pair[0].as_u64().is_some());
                assert!((0.0..=1.0).contains(&pair[1].as_f64().unwrap()));
            }
        }
    }

    #[test]
    fn trace_mrc_fused_checkpoint_flow_resumes_and_completes() {
        let path = std::env::temp_dir().join(format!(
            "symloc_cli_fused_trace_checkpoint_{}.json",
            std::process::id()
        ));
        let path_str = path.to_string_lossy().to_string();
        std::fs::remove_file(&path).ok();

        let spec = format!(
            "gen:zipf:200:4000:0.8:5 --exact --sample 64 --shards 4 --points 6 \
             --checkpoint {path_str}"
        );
        let first = trace_mrc(&sargs(&format!("{spec} --max-chunks 2"))).unwrap();
        assert!(first.contains("2 of 4 complete"), "{first}");
        assert!(first.contains("ingest incomplete"));

        // A --json probe of the incomplete state reports progress.
        let probe = trace_mrc(&sargs(&format!("{spec} --max-chunks 0 --json"))).unwrap();
        let doc = jsonio::parse(&probe).unwrap();
        assert_eq!(doc.get("complete"), Some(&JsonValue::Bool(false)));
        assert_eq!(doc.get("completed").and_then(JsonValue::as_u64), Some(2));

        let second = trace_mrc(&sargs(&spec)).unwrap();
        assert!(second.contains("resumed from"));
        assert!(second.contains("4 of 4 complete"));

        // Checkpointed and direct fused runs agree from the accesses line.
        let direct = trace_mrc(&sargs(
            "gen:zipf:200:4000:0.8:5 --exact --sample 64 --shards 4 --points 6",
        ))
        .unwrap();
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("accesses"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&second), tail(&direct));

        // A mismatched plan warns before overwriting.
        let mismatched = trace_mrc(&sargs(&format!(
            "gen:zipf:200:4000:0.8:5 --exact --sample 64 --shards 6 --points 6 \
             --checkpoint {path_str}"
        )))
        .unwrap();
        assert!(mismatched.contains("does not match this source/plan"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_convert_round_trips_both_formats() {
        let dir = std::env::temp_dir();
        let sltr = dir.join("symloc_cli_convert_test.sltr");
        let text = dir.join("symloc_cli_convert_test.trace");
        let sidecar = sltr_index_path(&sltr);
        let text_sidecar = sltr_index_path(&text);
        let report = trace_convert(&sargs(&format!(
            "gen:sawtooth:9:4 {}",
            sltr.to_string_lossy()
        )))
        .unwrap();
        assert!(report.contains("36 accesses, sltr format, chunk index every 4096"));
        assert!(sidecar.exists(), "convert must write the sidecar index");
        let report = trace_convert(&sargs(&format!(
            "{} {}",
            sltr.to_string_lossy(),
            text.to_string_lossy()
        )))
        .unwrap();
        assert!(report.contains("36 accesses, text format, line index every 4096"));
        assert!(
            text_sidecar.exists(),
            "text output gets a line index sidecar too"
        );
        assert_eq!(
            read_trace(&text).unwrap(),
            symloc_trace::generators::sawtooth_trace(9, 4)
        );
        // A custom interval lands in the report; --index 0 removes the
        // sidecar again, for either format.
        let report = trace_convert(&sargs(&format!(
            "gen:sawtooth:9:4 {} --index 16",
            sltr.to_string_lossy()
        )))
        .unwrap();
        assert!(report.contains("chunk index every 16"));
        let report = trace_convert(&sargs(&format!(
            "gen:sawtooth:9:4 {} --index 0",
            sltr.to_string_lossy()
        )))
        .unwrap();
        assert!(!report.contains("chunk index"));
        assert!(!sidecar.exists(), "--index 0 must clear a stale sidecar");
        let report = trace_convert(&sargs(&format!(
            "gen:sawtooth:9:4 {} --index 0",
            text.to_string_lossy()
        )))
        .unwrap();
        assert!(!report.contains("line index"));
        assert!(!text_sidecar.exists(), "--index 0 clears text sidecars too");
        assert!(trace_convert(&sargs("gen:cyclic:4:2")).is_err());
        assert!(trace_convert(&sargs("")).is_err());
        assert!(trace_convert(&sargs("gen:cyclic:4:2 out.sltr extra")).is_err());
        assert!(trace_convert(&sargs("/no/such/file.trace out.sltr")).is_err());
        std::fs::remove_file(&sltr).ok();
        std::fs::remove_file(&text).ok();
        std::fs::remove_file(&sidecar).ok();
        std::fs::remove_file(&text_sidecar).ok();
    }

    /// Accesses `start..end` of `source`, read in blocks.
    fn read_range(source: &TraceSource, start: u64, end: u64) -> Vec<u64> {
        let mut blocks = source.stream_blocks_range(start, end).unwrap();
        let (mut all, mut buf) = (Vec::new(), Vec::new());
        while blocks.try_next_block(&mut buf).unwrap() > 0 {
            all.extend_from_slice(&buf);
        }
        all
    }

    #[test]
    fn converted_text_index_makes_ranges_seek_identically() {
        // The line index written by `trace convert` must validate and give
        // the same ranges as parse-skipping.
        let dir = std::env::temp_dir();
        let text = dir.join(format!(
            "symloc_cli_convert_textidx_{}.trace",
            std::process::id()
        ));
        let sidecar = sltr_index_path(&text);
        trace_convert(&sargs(&format!(
            "gen:zipf:100:3000:0.8:7 {} --index 64",
            text.to_string_lossy()
        )))
        .unwrap();
        assert!(sidecar.exists());
        let source = TraceSource::Text(text.clone());
        assert_eq!(source.total_accesses().unwrap(), 3000);
        let with_index = read_range(&source, 640, 700);
        std::fs::remove_file(&sidecar).unwrap();
        let without = read_range(&source, 640, 700);
        assert_eq!(with_index, without);
        let whole = read_trace(&text).unwrap();
        let expected: Vec<u64> = whole.accesses()[640..700]
            .iter()
            .map(|a| a.value() as u64)
            .collect();
        assert_eq!(without, expected);
        std::fs::remove_file(&text).ok();
    }

    #[test]
    fn trace_index_builds_sidecars_for_existing_files() {
        let dir = std::env::temp_dir();
        let sltr = dir.join(format!("symloc_cli_index_{}.sltr", std::process::id()));
        let text = dir.join(format!("symloc_cli_index_{}.trace", std::process::id()));
        // Write both formats *without* indexes.
        trace_convert(&sargs(&format!(
            "gen:sawtooth:30:10 {} --index 0",
            sltr.to_string_lossy()
        )))
        .unwrap();
        trace_convert(&sargs(&format!(
            "gen:sawtooth:30:10 {} --index 0",
            text.to_string_lossy()
        )))
        .unwrap();
        let report =
            trace_index(&sargs(&format!("{} --interval 32", sltr.to_string_lossy()))).unwrap();
        assert!(
            report.contains("300 accesses, chunk index every 32"),
            "{report}"
        );
        assert!(sltr_index_path(&sltr).exists());
        let report =
            trace_index(&sargs(&format!("{} --interval 32", text.to_string_lossy()))).unwrap();
        assert!(
            report.contains("300 accesses, line index every 32"),
            "{report}"
        );
        assert!(sltr_index_path(&text).exists());
        // Both sources validate and stream through their new sidecars.
        for source in [
            TraceSource::Binary(sltr.clone()),
            TraceSource::Text(text.clone()),
        ] {
            assert_eq!(source.total_accesses().unwrap(), 300);
            assert_eq!(read_range(&source, 64, 66).len(), 2);
        }
        // Rejections: generator specs, zero intervals, missing files.
        assert!(trace_index(&sargs("gen:cyclic:4:2")).is_err());
        assert!(trace_index(&sargs(&format!("{} --interval 0", text.to_string_lossy()))).is_err());
        assert!(trace_index(&sargs("/no/such/file.trace")).is_err());
        std::fs::remove_file(sltr_index_path(&sltr)).ok();
        std::fs::remove_file(sltr_index_path(&text)).ok();
        std::fs::remove_file(&sltr).ok();
        std::fs::remove_file(&text).ok();
    }

    #[test]
    fn trace_dispatch_and_errors() {
        use crate::cli::run;
        assert!(trace(&sargs("")).is_err());
        assert!(trace(&sargs("bogus")).is_err());
        assert!(run(&sargs("trace mrc gen:cyclic:10:3 --points 4"))
            .unwrap()
            .contains("trace mrc — gen:cyclic:10:3"));
        assert!(trace_mrc(&sargs("/no/such/file.trace")).is_err());
        assert!(trace_mrc(&sargs("/no/such/file.trace --sample 8")).is_err());
    }

    #[test]
    fn trace_commands_report_malformed_content_as_errors() {
        // Every trace path — exact streaming, sampled, convert, index —
        // must turn malformed file content into a CliError, not a panic
        // (regression: only the sharded path used to validate before
        // streaming).
        let path = std::env::temp_dir().join("symloc_cli_malformed_test.trace");
        let path_str = path.to_string_lossy().to_string();
        std::fs::write(&path, "0\n1\nnot-a-number\n2\n").unwrap();
        let exact = trace_mrc(&sargs(&format!("{path_str} --threads 1"))).unwrap_err();
        assert!(exact.to_string().contains("line 3"), "{exact}");
        assert!(trace_mrc(&sargs(&format!("{path_str} --sample 8"))).is_err());
        assert!(trace_mrc(&sargs(&format!("{path_str} --threads 2"))).is_err());
        assert!(trace_index(&sargs(&path_str)).is_err());
        let out = std::env::temp_dir().join("symloc_cli_malformed_test.sltr");
        assert!(trace_convert(&sargs(&format!("{path_str} {}", out.to_string_lossy()))).is_err());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out).ok();
    }
}
