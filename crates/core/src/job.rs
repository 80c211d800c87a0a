//! The unified resumable-job API: one trait, one runner, one checkpoint
//! lifecycle for every unit-parallel pipeline in the workspace.
//!
//! Every resumable pipeline in the workspace — [`crate::shard::ShardedSweep`],
//! [`crate::shard::SampledSweep`] and the trace job
//! [`crate::tracesweep::FusedIngest`] — shares one lifecycle: partition the
//! work into deterministic units, run pending units in parallel, absorb
//! completed partials in unit order, save an atomic JSON checkpoint every
//! batch, and resume from a checkpoint that matches the plan. This module
//! is that lifecycle, written once:
//!
//! * [`Job`] — the contract a pipeline implements: deterministic unit
//!   enumeration ([`Job::unit_count`] / [`Job::pending_units`]), per-unit
//!   execution producing a mergeable partial ([`Job::run_span`]),
//!   in-order absorption ([`Job::absorb`]), a checkpoint codec built on
//!   [`crate::jsonio`] ([`Job::to_json`] + the shared
//!   [`write_checkpoint_header`] / [`parse_checkpoint`] pair), and a
//!   [`Job::fingerprint`] identity embedded in every checkpoint.
//! * [`JobRunner`] — the generic runner that owns parallel unit
//!   scheduling over [`symloc_par::parallel_reduce_chunked`]
//!   (`std::thread::scope` underneath), bounded in-flight checkpointing
//!   with atomic saves ([`crate::jsonio::save_atomic`]), progress
//!   callbacks, and the deterministic unit-order merge. Every
//!   `run_pending` / `run_with_checkpoint` across the pipelines is a thin
//!   delegation into this runner.
//! * [`JobKind`] — the closed registry of checkpoint kinds, used to
//!   dispatch `symloc job status` / `symloc job resume` on whatever kind
//!   a checkpoint file records, and to make cross-kind resumes
//!   ([`resume_or_new_with`]) a loud, descriptive error instead of a
//!   silently discarded file. Tags of retired jobs, and documents of the
//!   right kind that do not decode, fail just as loudly.
//!
//! # Execution model
//!
//! A job is a fixed, deterministically planned sequence of **units**
//! (rank shards, sample levels, trace chunks, hash shards). The runner
//! repeatedly takes a prefix of the pending units, fans a contiguous span
//! of them out to each worker ([`Job::run_span`] — so a worker can hold
//! per-span state such as a single streaming pass over a trace), then
//! absorbs the resulting `(unit, partial)` pairs strictly in unit order.
//! Two knobs let each pipeline keep its historical scheduling shape:
//!
//! * [`Job::units_per_pass`] — how many units one parallel pass may
//!   schedule. Jobs whose single unit is *internally* parallel (the
//!   exhaustive sweep shard) return 1 so the runner feeds them one unit
//!   at a time on the caller thread; jobs whose merge state advances
//!   between passes (the trace job) return the thread count.
//! * [`Job::units_per_checkpoint`] — how many units complete between
//!   checkpoint saves in [`JobRunner::run_with_checkpoint`].
//!
//! Because units are deterministic and absorption is ordered, resuming a
//! killed job from its checkpoint reproduces the uninterrupted run
//! *byte-identically* — the invariant `core/tests/job_props.rs` pins for
//! every pipeline at every unit boundary.

use crate::jsonio::{self, JsonValue};
use crate::obs::{MetricsRegistry, Span};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use symloc_par::parallel_reduce_chunked;

/// The closed set of resumable-job kinds the workspace knows, keyed by the
/// `"kind"` tag embedded in every checkpoint document.
///
/// The registry is what lets `symloc job status <ckpt>` and
/// `symloc job resume <ckpt>` dispatch on a checkpoint file alone, and
/// what turns a cross-kind resume (say, pointing an exhaustive sweep at a
/// sampled-sweep checkpoint) into a descriptive error instead of garbage
/// or silent data loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// An exhaustive rank-sharded sweep ([`crate::shard::ShardedSweep`]).
    ShardedSweep,
    /// A sampled level-sharded sweep ([`crate::shard::SampledSweep`]).
    SampledSweep,
    /// The trace job — one streaming pass feeding its exact half, its
    /// sampled half, or both ([`crate::tracesweep::FusedIngest`]).
    FusedIngest,
    /// The persisted tenant table of the `symloc serve` daemon
    /// ([`crate::serve::ServeState`]).
    ServeState,
}

impl JobKind {
    /// Every kind, in registry order.
    pub const ALL: [JobKind; 4] = [
        JobKind::ShardedSweep,
        JobKind::SampledSweep,
        JobKind::FusedIngest,
        JobKind::ServeState,
    ];

    /// The `"kind"` tag this kind writes into (and expects from) its
    /// checkpoint documents.
    #[must_use]
    pub const fn kind_str(self) -> &'static str {
        match self {
            JobKind::ShardedSweep => "symloc_sweep_checkpoint",
            JobKind::SampledSweep => "symloc_sampled_sweep_checkpoint",
            JobKind::FusedIngest => "symloc_fused_trace_checkpoint",
            JobKind::ServeState => "symloc_serve_checkpoint",
        }
    }

    /// The checkpoint schema version this kind currently writes.
    #[must_use]
    pub const fn version(self) -> u64 {
        1
    }

    /// A short human description, used in mismatch errors and status
    /// reports.
    #[must_use]
    pub const fn describe(self) -> &'static str {
        match self {
            JobKind::ShardedSweep => "exhaustive sharded sweep",
            JobKind::SampledSweep => "sampled (level-sharded) sweep",
            JobKind::FusedIngest => "trace mrc job (exact and/or sampled)",
            JobKind::ServeState => "multi-tenant serve state",
        }
    }

    /// What a unit of this kind is called in progress reports.
    #[must_use]
    pub const fn unit_name(self) -> &'static str {
        match self {
            JobKind::ShardedSweep => "shard",
            JobKind::SampledSweep => "level",
            JobKind::FusedIngest => "chunk",
            JobKind::ServeState => "tenant",
        }
    }

    /// Looks a kind tag up in the registry.
    #[must_use]
    pub fn parse(tag: &str) -> Option<JobKind> {
        JobKind::ALL.into_iter().find(|k| k.kind_str() == tag)
    }
}

/// Kind tags of checkpoint formats no job reads any more, with the job
/// that wrote them. Their documents are never parsed: resuming one fails
/// loudly and leaves the file alone.
const RETIRED_KINDS: [(&str, &str); 2] = [
    ("symloc_trace_ingest_checkpoint", "exact trace ingest"),
    (
        "symloc_sampled_trace_checkpoint",
        "sampled (hash-sharded) trace ingest",
    ),
];

/// The loud error for a checkpoint whose kind tag is retired, or `None`
/// when the tag is not one.
fn retired_kind_error(tag: &str) -> Option<String> {
    RETIRED_KINDS
        .iter()
        .find(|(retired, _)| *retired == tag)
        .map(|(retired, job)| {
            format!(
                "checkpoint kind {retired:?} ({job}) is retired and no longer read; \
                 re-run the `symloc trace mrc` command with a new checkpoint file \
                 (this one is left untouched)"
            )
        })
}

/// The error for a kind tag the registry does not know.
fn unregistered_kind_error(tag: &str) -> String {
    retired_kind_error(tag)
        .unwrap_or_else(|| format!("unknown checkpoint kind {tag:?} (not a registered job)"))
}

impl std::fmt::Display for JobKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.kind_str())
    }
}

/// One checkpointable, unit-parallel, resumable job.
///
/// Implementors own their plan and their completed state; the trait
/// exposes enough of both for [`JobRunner`] to drive the whole lifecycle.
/// See the [module docs](self) for the execution model and the two
/// scheduling knobs.
pub trait Job: Sync {
    /// The mergeable result of one completed unit.
    type Partial: Send;

    /// The kind tag of this job's checkpoints.
    fn kind(&self) -> JobKind;

    /// Stable identity of the job's plan, embedded in checkpoints so a
    /// resume can tell whether a checkpoint belongs to the job it is
    /// about to continue.
    fn fingerprint(&self) -> String;

    /// Worker threads the job was configured with.
    fn threads(&self) -> usize;

    /// Total number of planned units.
    fn unit_count(&self) -> usize;

    /// Number of completed units.
    fn completed_count(&self) -> usize;

    /// The pending unit indices, in the deterministic order they must be
    /// absorbed. The runner always takes a prefix of this list.
    fn pending_units(&self) -> Vec<usize>;

    /// Maximum units one parallel pass may schedule. Return 1 when a
    /// single unit is internally parallel (so passes stay sequential over
    /// units), the thread count when absorbed state must advance between
    /// passes, or `usize::MAX` to let one pass cover everything pending.
    fn units_per_pass(&self, threads: usize) -> usize {
        let _ = threads;
        usize::MAX
    }

    /// Units between checkpoint saves in
    /// [`JobRunner::run_with_checkpoint`].
    fn units_per_checkpoint(&self, threads: usize) -> usize {
        threads
    }

    /// Executes a contiguous span of pending `units` on one worker,
    /// appending `(unit, partial)` pairs **in unit order**. Must be
    /// deterministic in the unit indices alone (never in which worker ran
    /// the span), so results are thread- and batching-invariant.
    fn run_span(&self, units: &[usize], out: &mut Vec<(usize, Self::Partial)>);

    /// Absorbs one completed unit's partial. The runner calls this in
    /// strict unit order, once per unit.
    fn absorb(&mut self, unit: usize, partial: Self::Partial);

    /// Serializes the job — plan, progress, completed state — as a JSON
    /// checkpoint document (header via [`write_checkpoint_header`]).
    fn to_json(&self) -> String;

    /// An optional kind-specific progress counter for heartbeats — e.g.
    /// `("accesses", streamed)` for the trace job. `None` (the
    /// default) means the job only reports unit counts.
    fn progress_items(&self) -> Option<(&'static str, u64)> {
        None
    }
}

/// The generic driver of every [`Job`]: parallel unit scheduling,
/// bounded checkpointing with atomic saves, progress callbacks, and the
/// deterministic unit-order merge. Stateless — all state lives in the
/// job itself, which is what makes the checkpoints self-contained.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobRunner;

/// Accumulator shape of one metered parallel pass: the unit-ordered
/// `(unit index, partial)` results, plus each worker span's
/// `(elapsed nanos, units in span)` timing (empty when unmetered).
type PassResults<P> = (Vec<(usize, P)>, Vec<(u64, usize)>);

impl JobRunner {
    /// True when every unit of `job` has been absorbed.
    #[must_use]
    pub fn is_complete<J: Job + ?Sized>(job: &J) -> bool {
        job.completed_count() >= job.unit_count()
    }

    /// Runs up to `limit` pending units (all of them when `None`) in
    /// parallel passes of at most [`Job::units_per_pass`] units, absorbing
    /// partials in unit order after each pass. Returns how many units were
    /// processed.
    pub fn run_pending<J: Job + ?Sized>(job: &mut J, limit: Option<usize>) -> usize {
        Self::run_pending_metered(job, limit, None)
    }

    /// [`JobRunner::run_pending`] with optional instrumentation: when
    /// `metrics` is supplied, each worker span's wall time rides back with
    /// its results (shard-per-worker, merged like the partials themselves)
    /// and is folded into the registry after the pass — `job.unit_nanos`
    /// (each unit's share of its worker span), `job.absorb_nanos` (the
    /// sequential merge), and the `job.units` / `job.passes` counters.
    ///
    /// Metering is result-invariant: the scheduling, the unit order and
    /// every absorbed partial are identical with and without a registry —
    /// the registry only receives copies of timings and counts.
    pub fn run_pending_metered<J: Job + ?Sized>(
        job: &mut J,
        limit: Option<usize>,
        mut metrics: Option<&mut MetricsRegistry>,
    ) -> usize {
        let threads = job.threads().max(1);
        let mut ran = 0usize;
        loop {
            if limit.is_some_and(|l| ran >= l) {
                break;
            }
            let pending = job.pending_units();
            if pending.is_empty() {
                break;
            }
            let cap = limit.map_or(usize::MAX, |l| l - ran);
            let pass = pending
                .len()
                .min(cap)
                .min(job.units_per_pass(threads).max(1));
            let units = &pending[..pass];
            // One parallel pass: contiguous spans of the unit prefix go to
            // the workers; concatenating the per-span vectors preserves
            // unit order, so absorption below is deterministic. Worker
            // span timings (metered runs only) ride along in the same
            // accumulator.
            let shared: &J = job;
            let metered = metrics.is_some();
            let (results, span_times): PassResults<J::Partial> = parallel_reduce_chunked(
                units.len(),
                threads,
                || (Vec::new(), Vec::new()),
                |mut acc, chunk| {
                    if !chunk.is_empty() {
                        let span = metered.then(Span::start);
                        shared.run_span(&units[chunk.start..chunk.end], &mut acc.0);
                        if let Some(span) = span {
                            acc.1.push((span.elapsed_nanos(), chunk.end - chunk.start));
                        }
                    }
                    acc
                },
                |mut a, b| {
                    a.0.extend(b.0);
                    a.1.extend(b.1);
                    a
                },
            );
            debug_assert!(
                results.windows(2).all(|w| w[0].0 < w[1].0),
                "span results must arrive in unit order"
            );
            if let Some(reg) = metrics.as_deref_mut() {
                for &(nanos, units_in_span) in &span_times {
                    let share = nanos / units_in_span.max(1) as u64;
                    for _ in 0..units_in_span {
                        reg.observe("job.unit_nanos", share);
                    }
                }
                reg.add("job.passes", 1);
                reg.add("job.units", pass as u64);
                for (unit, partial) in results {
                    let span = Span::start();
                    job.absorb(unit, partial);
                    span.record(reg, "job.absorb_nanos");
                }
            } else {
                for (unit, partial) in results {
                    job.absorb(unit, partial);
                }
            }
            ran += pass;
        }
        ran
    }

    /// Runs pending units — all of them, or up to `limit` — saving the
    /// checkpoint to `path` atomically after every batch of (at most)
    /// [`Job::units_per_checkpoint`] units, so a kill loses at most one
    /// batch (and a kill mid-save leaves the previous checkpoint intact).
    /// `on_batch(completed, total)` fires after every save. The
    /// checkpoint is (re)written even when nothing was pending, so a
    /// fresh plan always lands on disk.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a checkpoint cannot be written.
    pub fn run_with_checkpoint<J: Job + ?Sized>(
        job: &mut J,
        path: &Path,
        limit: Option<usize>,
        on_batch: impl FnMut(usize, usize),
    ) -> std::io::Result<usize> {
        Self::run_with_checkpoint_metered(job, path, limit, None, on_batch)
    }

    /// [`JobRunner::run_with_checkpoint`] with optional instrumentation:
    /// units run through [`JobRunner::run_pending_metered`], every save's
    /// latency lands in the `job.save_nanos` histogram, and the heartbeat's
    /// throughput/ETA figures are mirrored as gauges. Like the plain
    /// checkpoint loop this variant writes the [`Heartbeat`] sidecar after
    /// every batch; metering never changes the checkpoint bytes.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if a checkpoint cannot be written (heartbeat
    /// sidecar writes are best-effort and never fail the run).
    pub fn run_with_checkpoint_metered<J: Job + ?Sized>(
        job: &mut J,
        path: &Path,
        limit: Option<usize>,
        mut metrics: Option<&mut MetricsRegistry>,
        mut on_batch: impl FnMut(usize, usize),
    ) -> std::io::Result<usize> {
        let threads = job.threads().max(1);
        let run_span = Span::start();
        let started_at = job.completed_count();
        let mut batches = 0u64;
        let mut ran = 0usize;
        while !Self::is_complete(job) && limit.is_none_or(|l| ran < l) {
            let batch = job
                .units_per_checkpoint(threads)
                .max(1)
                .min(limit.map_or(usize::MAX, |l| l - ran));
            let batch_span = Span::start();
            let before = job.completed_count();
            ran += Self::run_pending_metered(job, Some(batch), metrics.as_deref_mut());
            let save_span = Span::start();
            Self::save(job, path)?;
            let save_nanos = save_span.elapsed_nanos();
            batches += 1;
            let heartbeat = Heartbeat::of(job, &run_span, &batch_span, started_at, before, batches);
            heartbeat.write_sidecar(path);
            if let Some(reg) = metrics.as_deref_mut() {
                reg.observe("job.save_nanos", save_nanos);
                reg.add("job.batches", 1);
                heartbeat.record_gauges(reg);
            }
            on_batch(job.completed_count(), job.unit_count());
        }
        if ran == 0 {
            Self::save(job, path)?;
        }
        if Self::is_complete(job) {
            // The sidecar is live in-flight state; a completed run cleans
            // it up so `job status` never reads a finished job's last
            // heartbeat as live progress.
            let _ = std::fs::remove_file(Heartbeat::sidecar_path(path));
        }
        Ok(ran)
    }

    /// Writes the job's checkpoint to `path` atomically (temp file +
    /// rename, via [`crate::jsonio::save_atomic`]) — the single save path
    /// every checkpointing pipeline goes through.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn save<J: Job + ?Sized>(job: &J, path: &Path) -> std::io::Result<()> {
        jsonio::save_atomic(path, &job.to_json())
    }
}

/// The `"kind"` tag of a heartbeat sidecar document.
pub const HEARTBEAT_KIND: &str = "symloc_job_heartbeat";
/// The heartbeat sidecar schema version.
pub const HEARTBEAT_VERSION: u64 = 1;

/// The live-progress sidecar [`JobRunner::run_with_checkpoint`] writes
/// next to the checkpoint (`<ckpt>.hb`) after every batch: units done,
/// kind-specific progress items ([`Job::progress_items`]), instantaneous
/// and cumulative throughput, and an ETA. `symloc job status` reads it to
/// report live progress on an in-flight checkpoint.
///
/// The sidecar is strictly advisory: writes are best-effort, a missing or
/// corrupt file degrades status to checkpoint-only detail, and nothing
/// ever reads a heartbeat back into a computation — checkpoint bytes are
/// identical with or without one.
#[derive(Debug, Clone, PartialEq)]
pub struct Heartbeat {
    /// The kind of the job that wrote the heartbeat.
    pub job_kind: JobKind,
    /// The job's plan fingerprint (must match the checkpoint's to count
    /// as live).
    pub fingerprint: String,
    /// Completed units when the heartbeat was written.
    pub completed: usize,
    /// Total planned units.
    pub total: usize,
    /// Checkpoint batches saved by this run so far.
    pub batches: u64,
    /// Kind-specific progress counter, e.g. `("accesses", streamed)`.
    pub items: Option<(String, u64)>,
    /// Wall-clock seconds since this run started.
    pub elapsed_secs: f64,
    /// Cumulative units/sec over this run.
    pub units_per_sec: f64,
    /// Units/sec over the last batch alone.
    pub instant_units_per_sec: f64,
    /// Estimated seconds to completion at the instantaneous rate when it
    /// is positive, else the cumulative rate (see [`eta_secs_from`]).
    pub eta_secs: Option<f64>,
}

/// The ETA rule shared by every heartbeat: estimate from the
/// *instantaneous* rate of the last batch when it is positive and finite,
/// falling back to the cumulative rate otherwise. A cumulative-only ETA
/// freezes at an ever-optimistic figure when a job stalls after a fast
/// start; the instant rate tracks the stall (and `None` signals "no
/// forward progress" honestly once both rates hit zero).
#[must_use]
pub fn eta_secs_from(
    remaining: usize,
    units_per_sec: f64,
    instant_units_per_sec: f64,
) -> Option<f64> {
    let rate = if instant_units_per_sec > 0.0 && instant_units_per_sec.is_finite() {
        instant_units_per_sec
    } else {
        units_per_sec
    };
    (rate > 0.0 && rate.is_finite()).then(|| remaining as f64 / rate)
}

impl Heartbeat {
    /// The sidecar path for a checkpoint: the checkpoint path with `.hb`
    /// appended (`sweep.ckpt.json` → `sweep.ckpt.json.hb`).
    #[must_use]
    pub fn sidecar_path(checkpoint: &Path) -> PathBuf {
        let mut os = checkpoint.as_os_str().to_os_string();
        os.push(".hb");
        PathBuf::from(os)
    }

    /// Snapshots a job's live progress mid-checkpoint-loop. `run_span` /
    /// `batch_span` time the whole run and the last batch; `started_at` /
    /// `before` are the completed counts when the run and the batch began.
    fn of<J: Job + ?Sized>(
        job: &J,
        run_span: &Span,
        batch_span: &Span,
        started_at: usize,
        before: usize,
        batches: u64,
    ) -> Heartbeat {
        let completed = job.completed_count();
        let total = job.unit_count();
        let elapsed = run_span.elapsed_secs();
        let units_per_sec = if elapsed > 0.0 {
            (completed - started_at) as f64 / elapsed
        } else {
            0.0
        };
        let batch_elapsed = batch_span.elapsed_secs();
        let instant_units_per_sec = if batch_elapsed > 0.0 {
            (completed - before) as f64 / batch_elapsed
        } else {
            0.0
        };
        let eta_secs = eta_secs_from(
            total.saturating_sub(completed),
            units_per_sec,
            instant_units_per_sec,
        );
        Heartbeat {
            job_kind: job.kind(),
            fingerprint: job.fingerprint(),
            completed,
            total,
            batches,
            items: job
                .progress_items()
                .map(|(name, done)| (name.to_string(), done)),
            elapsed_secs: elapsed,
            units_per_sec,
            instant_units_per_sec,
            eta_secs,
        }
    }

    /// True when this heartbeat describes exactly the run the checkpoint
    /// summarized by `status` is in — same kind, fingerprint and progress.
    /// A mismatch means the sidecar is stale (an older run, or a kill
    /// between the checkpoint save and the heartbeat write).
    #[must_use]
    pub fn matches(&self, status: &JobStatus) -> bool {
        self.job_kind == status.kind
            && self.fingerprint == status.fingerprint
            && self.completed == status.completed
            && self.total == status.total
    }

    /// Mirrors the heartbeat's figures into `registry` as gauges.
    pub fn record_gauges(&self, registry: &mut MetricsRegistry) {
        registry.set_gauge("job.elapsed_secs", self.elapsed_secs);
        registry.set_gauge("job.units_per_sec", self.units_per_sec);
        registry.set_gauge("job.instant_units_per_sec", self.instant_units_per_sec);
        if let Some(eta) = self.eta_secs {
            registry.set_gauge("job.eta_secs", eta);
        }
        if let Some((name, done)) = &self.items {
            registry.set_gauge(&format!("job.{name}_done"), *done as f64);
            if self.elapsed_secs > 0.0 {
                registry.set_gauge(
                    &format!("job.{name}_per_sec"),
                    *done as f64 / self.elapsed_secs,
                );
            }
        }
    }

    /// Renders the heartbeat as its sidecar JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"kind\": \"{HEARTBEAT_KIND}\",");
        let _ = writeln!(out, "  \"version\": {HEARTBEAT_VERSION},");
        let _ = writeln!(out, "  \"job_kind\": \"{}\",", self.job_kind.kind_str());
        let _ = writeln!(
            out,
            "  \"fingerprint\": \"{}\",",
            jsonio::escape(&self.fingerprint)
        );
        let _ = writeln!(out, "  \"completed\": {},", self.completed);
        let _ = writeln!(out, "  \"total\": {},", self.total);
        let _ = writeln!(out, "  \"batches\": {},", self.batches);
        if let Some((name, done)) = &self.items {
            let _ = writeln!(out, "  \"items_name\": \"{}\",", jsonio::escape(name));
            let _ = writeln!(out, "  \"items_done\": {done},");
        }
        let _ = writeln!(out, "  \"elapsed_secs\": {},", self.elapsed_secs);
        let _ = writeln!(out, "  \"units_per_sec\": {},", self.units_per_sec);
        let _ = writeln!(
            out,
            "  \"instant_units_per_sec\": {},",
            self.instant_units_per_sec
        );
        let eta = self
            .eta_secs
            .map_or_else(|| "null".to_string(), |v| v.to_string());
        let _ = writeln!(out, "  \"eta_secs\": {eta}");
        out.push_str("}\n");
        out
    }

    /// Parses a sidecar document written by [`Heartbeat::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a descriptive error on malformed JSON, a wrong kind tag, an
    /// unsupported version, an unregistered job kind, or missing fields —
    /// callers treat every error as "no live heartbeat", never a failure.
    pub fn from_json(text: &str) -> Result<Heartbeat, String> {
        let doc = jsonio::parse(text)?;
        match doc.get("kind").and_then(JsonValue::as_str) {
            Some(HEARTBEAT_KIND) => {}
            other => {
                return Err(format!(
                    "not a {HEARTBEAT_KIND} document (kind = {other:?})"
                ))
            }
        }
        let version = doc.get("version").and_then(JsonValue::as_u64);
        if version != Some(HEARTBEAT_VERSION) {
            return Err(format!("unsupported heartbeat version {version:?}"));
        }
        let tag = doc
            .get("job_kind")
            .and_then(JsonValue::as_str)
            .ok_or("heartbeat missing job_kind")?;
        let job_kind =
            JobKind::parse(tag).ok_or_else(|| format!("unknown heartbeat job kind {tag:?}"))?;
        let fingerprint = doc
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .ok_or("heartbeat missing fingerprint")?
            .to_string();
        let count = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| format!("heartbeat missing {key}"))
        };
        let rate = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("heartbeat missing {key}"))
        };
        let items = match (
            doc.get("items_name").and_then(JsonValue::as_str),
            doc.get("items_done").and_then(JsonValue::as_u64),
        ) {
            (Some(name), Some(done)) => Some((name.to_string(), done)),
            (None, None) => None,
            _ => return Err("heartbeat items_name/items_done must appear together".to_string()),
        };
        let eta_secs = match doc.get("eta_secs") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(v.as_f64().ok_or("heartbeat eta_secs is not a number")?),
        };
        Ok(Heartbeat {
            job_kind,
            fingerprint,
            completed: count("completed")?,
            total: count("total")?,
            batches: doc
                .get("batches")
                .and_then(JsonValue::as_u64)
                .ok_or("heartbeat missing batches")?,
            items,
            elapsed_secs: rate("elapsed_secs")?,
            units_per_sec: rate("units_per_sec")?,
            instant_units_per_sec: rate("instant_units_per_sec")?,
            eta_secs,
        })
    }

    /// Reads the sidecar next to `checkpoint`: `None` when no sidecar
    /// exists (or it cannot be read), the parse result otherwise.
    #[must_use]
    pub fn load(checkpoint: &Path) -> Option<Result<Heartbeat, String>> {
        let text = std::fs::read_to_string(Self::sidecar_path(checkpoint)).ok()?;
        Some(Heartbeat::from_json(&text))
    }

    /// Best-effort sidecar write next to `checkpoint` — heartbeats are
    /// advisory, so failures are swallowed.
    fn write_sidecar(&self, checkpoint: &Path) {
        let _ = std::fs::write(Self::sidecar_path(checkpoint), self.to_json());
    }
}

/// Writes the shared checkpoint header — opening brace, kind, version,
/// fingerprint — in the exact byte layout every pipeline has always used,
/// so checkpoints stay byte-compatible across the port onto [`Job`].
pub fn write_checkpoint_header(out: &mut String, kind: JobKind, fingerprint: &str) {
    out.push_str("{\n");
    let _ = writeln!(out, "  \"kind\": \"{}\",", kind.kind_str());
    let _ = writeln!(out, "  \"version\": {},", kind.version());
    let _ = writeln!(
        out,
        "  \"fingerprint\": \"{}\",",
        jsonio::escape(fingerprint)
    );
}

/// Parses a checkpoint document and validates its header against the
/// expected kind and version, returning the parsed document for the
/// caller's body decoder.
///
/// # Errors
///
/// Returns a descriptive error on malformed JSON, a missing kind, an
/// unsupported version — and, crucially, a **kind mismatch**: a document
/// of another registered kind names both kinds and points at
/// `symloc job resume`, so resuming a checkpoint with the wrong command
/// can never quietly misparse it.
pub fn parse_checkpoint(text: &str, expected: JobKind) -> Result<JsonValue, String> {
    let doc = jsonio::parse(text)?;
    match doc.get("kind").and_then(JsonValue::as_str) {
        None => {
            return Err(format!(
                "not a {} checkpoint (no kind field)",
                expected.describe()
            ))
        }
        Some(tag) if tag != expected.kind_str() => {
            return Err(match JobKind::parse(tag) {
                Some(found) => format!(
                    "checkpoint kind mismatch: this file holds a {} ({:?}), not the {} \
                     ({:?}) being decoded; resume it with the matching command or \
                     `symloc job resume`",
                    found.describe(),
                    tag,
                    expected.describe(),
                    expected.kind_str(),
                ),
                None => format!(
                    "not a {} checkpoint: {}",
                    expected.describe(),
                    unregistered_kind_error(tag)
                ),
            });
        }
        Some(_) => {}
    }
    let version = doc.get("version").and_then(JsonValue::as_u64);
    if version != Some(expected.version()) {
        return Err(format!("unsupported checkpoint version {version:?}"));
    }
    Ok(doc)
}

/// The kind recorded in a checkpoint document: `Ok(Some(kind))` for a
/// registered tag, `Ok(None)` when the text is not JSON or carries no
/// registered tag.
///
/// # Errors
///
/// Returns a loud error naming the retired kind, and saying to re-run,
/// for a retired tag.
pub fn sniff_kind(text: &str) -> Result<Option<JobKind>, String> {
    let Ok(doc) = jsonio::parse(text) else {
        return Ok(None);
    };
    let Some(tag) = doc.get("kind").and_then(JsonValue::as_str) else {
        return Ok(None);
    };
    match retired_kind_error(tag) {
        Some(err) => Err(err),
        None => Ok(JobKind::parse(tag)),
    }
}

/// The shared resume policy of every pipeline: load the checkpoint at
/// `path` or plan a fresh job.
///
/// * No file (or unreadable): fresh plan.
/// * A checkpoint of a **different registered kind**: a loud error naming
///   both kinds — a sampled-sweep checkpoint must never be silently
///   discarded (or worse, misread) by an exhaustive sweep, and vice versa
///   for every cross-kind pair. A **retired** kind is just as loud an
///   error, and the file is left untouched.
/// * The right kind but a document that does not decode (a mangled or
///   hostile field): a loud error carrying the decoder's reason, and the
///   file is left untouched — overwriting it would silently discard what
///   may be hours of progress.
/// * The right kind but a plan that fails `matches` (different spec,
///   seed, source, shard count, ...): fresh plan, the stale file left
///   untouched on disk until the next save (callers warn about this).
/// * The right kind and a matching plan: resumed; the returned flag says
///   whether any completed progress actually came back.
///
/// Whatever the outcome, temp files that interrupted saves to `path` left
/// behind are removed first ([`jsonio::remove_stale_temps`]).
///
/// # Errors
///
/// Returns the cross-kind, retired-kind or undecodable-document error
/// described above.
pub fn resume_or_new_with<T>(
    path: &Path,
    expected: JobKind,
    decode: impl FnOnce(&str) -> Result<T, String>,
    matches: impl FnOnce(&T) -> bool,
    completed: impl FnOnce(&T) -> usize,
    fresh: impl FnOnce() -> T,
) -> Result<(T, bool), String> {
    jsonio::remove_stale_temps(path);
    let Ok(text) = std::fs::read_to_string(path) else {
        return Ok((fresh(), false));
    };
    let sniffed = sniff_kind(&text).map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
    if let Some(found) = sniffed {
        if found != expected {
            return Err(format!(
                "checkpoint {} holds a {} ({:?}), not the {} this command would resume; \
                 resume it with the matching command (or `symloc job resume`), or point \
                 the checkpoint flag at a different file",
                path.display(),
                found.describe(),
                found.kind_str(),
                expected.describe(),
            ));
        }
    }
    match decode(&text) {
        Ok(job) if matches(&job) => {
            let resumed = completed(&job) > 0;
            Ok((job, resumed))
        }
        Err(e) if sniffed == Some(expected) => Err(format!(
            "checkpoint {} holds a {} ({:?}) that does not decode: {e}; it was left \
             untouched — remove it to start over, or point the checkpoint flag at a \
             different file",
            path.display(),
            expected.describe(),
            expected.kind_str(),
        )),
        _ => Ok((fresh(), false)),
    }
}

/// A kind-agnostic summary of a checkpoint document, the payload of
/// `symloc job status`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// The checkpoint's kind.
    pub kind: JobKind,
    /// The job's plan fingerprint.
    pub fingerprint: String,
    /// Completed units.
    pub completed: usize,
    /// Total planned units.
    pub total: usize,
    /// Kind-specific `(label, value)` detail lines.
    pub detail: Vec<(String, String)>,
}

impl JobStatus {
    /// True when every unit has completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.completed >= self.total
    }
}

/// Decodes any registered checkpoint document into a [`JobStatus`],
/// dispatching on the kind the document itself records.
///
/// # Errors
///
/// Returns a descriptive error for unparseable documents, unknown kinds,
/// or structurally invalid bodies (via the kind's own decoder).
pub fn checkpoint_status(text: &str) -> Result<JobStatus, String> {
    let doc = jsonio::parse(text)?;
    let tag = doc
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or("not a symloc checkpoint (no kind field)")?;
    let kind = JobKind::parse(tag).ok_or_else(|| unregistered_kind_error(tag))?;
    let detail_pair = |label: &str, value: String| (label.to_string(), value);
    match kind {
        JobKind::ShardedSweep => {
            let sweep = crate::shard::ShardedSweep::from_json(text, 1)?;
            Ok(JobStatus {
                kind,
                fingerprint: sweep.spec().fingerprint(),
                completed: sweep.completed_count(),
                total: sweep.shard_count(),
                detail: vec![detail_pair("degree m", sweep.spec().m.to_string())],
            })
        }
        JobKind::SampledSweep => {
            let sweep = crate::shard::SampledSweep::from_json(text, 1)?;
            Ok(JobStatus {
                kind,
                fingerprint: sweep.spec().fingerprint(),
                completed: sweep.completed_count(),
                total: sweep.level_count(),
                detail: vec![
                    detail_pair("degree m", sweep.spec().m.to_string()),
                    detail_pair("budget", sweep.budget().to_string()),
                    detail_pair("seed", sweep.seed().to_string()),
                ],
            })
        }
        JobKind::FusedIngest => {
            let ingest = crate::tracesweep::FusedIngest::from_json(text, 1)?;
            let plan = ingest.plan();
            Ok(JobStatus {
                kind,
                fingerprint: ingest.fingerprint().to_string(),
                completed: ingest.completed_count(),
                total: ingest.chunk_count(),
                detail: vec![
                    detail_pair("accesses", ingest.total_accesses().to_string()),
                    detail_pair("halves", plan.halves().to_string()),
                    detail_pair("hash shards", plan.shards.to_string()),
                    detail_pair("budget per shard", plan.budget_per_shard.to_string()),
                ],
            })
        }
        JobKind::ServeState => {
            let state = crate::serve::ServeState::from_json(text)?;
            // A serve checkpoint is a snapshot of a daemon, not a batch with
            // a planned end: every persisted tenant counts as complete.
            Ok(JobStatus {
                kind,
                fingerprint: state.fingerprint(),
                completed: state.tenant_count(),
                total: state.tenant_count(),
                detail: vec![
                    detail_pair("accesses", state.total_accesses().to_string()),
                    detail_pair("budget per tenant", state.budget().to_string()),
                    detail_pair("max tenants", state.max_tenants().to_string()),
                    detail_pair("rejected tenants", state.rejected().to_string()),
                ],
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_registry_round_trips() {
        for kind in JobKind::ALL {
            assert_eq!(JobKind::parse(kind.kind_str()), Some(kind));
            assert_eq!(format!("{kind}"), kind.kind_str());
            assert_eq!(kind.version(), 1);
            assert!(!kind.describe().is_empty());
            assert!(!kind.unit_name().is_empty());
        }
        assert_eq!(JobKind::parse("bogus"), None);
    }

    #[test]
    fn header_writer_and_parser_agree() {
        let mut out = String::new();
        write_checkpoint_header(&mut out, JobKind::ShardedSweep, "m=5;x");
        out.push_str("  \"payload\": 1\n}\n");
        let doc = parse_checkpoint(&out, JobKind::ShardedSweep).unwrap();
        assert_eq!(
            doc.get("fingerprint").and_then(JsonValue::as_str),
            Some("m=5;x")
        );
        assert_eq!(sniff_kind(&out), Ok(Some(JobKind::ShardedSweep)));
    }

    #[test]
    fn cross_kind_parse_names_both_kinds() {
        let mut out = String::new();
        write_checkpoint_header(&mut out, JobKind::SampledSweep, "fp");
        out.push_str("  \"payload\": 1\n}\n");
        let err = parse_checkpoint(&out, JobKind::ShardedSweep).unwrap_err();
        assert!(err.contains("kind mismatch"), "{err}");
        assert!(err.contains(JobKind::SampledSweep.kind_str()), "{err}");
        assert!(err.contains(JobKind::ShardedSweep.kind_str()), "{err}");
        assert!(err.contains("symloc job resume"), "{err}");
    }

    #[test]
    fn parse_checkpoint_rejects_foreign_and_versioned_documents() {
        assert!(parse_checkpoint("not json", JobKind::FusedIngest).is_err());
        assert!(parse_checkpoint("{}", JobKind::FusedIngest).is_err());
        let err =
            parse_checkpoint("{\"kind\": \"something_else\"}", JobKind::FusedIngest).unwrap_err();
        assert!(err.contains("something_else"), "{err}");
        let mut out = String::new();
        write_checkpoint_header(&mut out, JobKind::FusedIngest, "fp");
        out.push_str("  \"x\": 1\n}\n");
        let bumped = out.replace("\"version\": 1", "\"version\": 9");
        assert!(parse_checkpoint(&bumped, JobKind::FusedIngest)
            .unwrap_err()
            .contains("version"));
    }

    #[test]
    fn sniff_kind_handles_garbage() {
        assert_eq!(sniff_kind("not json"), Ok(None));
        assert_eq!(sniff_kind("{}"), Ok(None));
        assert_eq!(sniff_kind("{\"kind\": \"mystery\"}"), Ok(None));
        // Retired tags are not garbage: they fail loudly, naming the job.
        for (tag, job) in RETIRED_KINDS {
            let doc = format!("{{\"kind\": \"{tag}\", \"version\": 1}}");
            let err = sniff_kind(&doc).unwrap_err();
            assert!(err.contains(tag) && err.contains(job), "{err}");
            assert!(err.contains("re-run"), "{err}");
            let err = checkpoint_status(&doc).unwrap_err();
            assert!(err.contains("retired"), "{err}");
            let err = parse_checkpoint(&doc, JobKind::FusedIngest).unwrap_err();
            assert!(err.contains("retired"), "{err}");
            assert!(JobKind::parse(tag).is_none());
        }
    }

    #[test]
    fn checkpoint_status_rejects_unknown_documents() {
        assert!(checkpoint_status("nope").is_err());
        assert!(checkpoint_status("{}").is_err());
        let err = checkpoint_status("{\"kind\": \"mystery_format\"}").unwrap_err();
        assert!(err.contains("mystery_format"), "{err}");
    }

    /// A miniature job: unit `i` contributes `i + 1`; state is the running
    /// sum plus the completion bitmap. Exercises the runner's scheduling,
    /// ordering and checkpoint loop without the heavyweight pipelines.
    struct ToyJob {
        done: Vec<bool>,
        sum: u64,
        threads: usize,
        per_pass: usize,
        per_checkpoint: usize,
    }

    impl ToyJob {
        fn new(units: usize, threads: usize) -> Self {
            ToyJob {
                done: vec![false; units],
                sum: 0,
                threads,
                per_pass: usize::MAX,
                per_checkpoint: threads.max(1),
            }
        }
    }

    impl Job for ToyJob {
        type Partial = u64;
        fn kind(&self) -> JobKind {
            JobKind::ShardedSweep
        }
        fn fingerprint(&self) -> String {
            format!("toy:{}", self.done.len())
        }
        fn threads(&self) -> usize {
            self.threads
        }
        fn unit_count(&self) -> usize {
            self.done.len()
        }
        fn completed_count(&self) -> usize {
            self.done.iter().filter(|&&d| d).count()
        }
        fn pending_units(&self) -> Vec<usize> {
            (0..self.done.len()).filter(|&i| !self.done[i]).collect()
        }
        fn units_per_pass(&self, _threads: usize) -> usize {
            self.per_pass
        }
        fn units_per_checkpoint(&self, _threads: usize) -> usize {
            self.per_checkpoint
        }
        fn run_span(&self, units: &[usize], out: &mut Vec<(usize, u64)>) {
            for &u in units {
                out.push((u, u as u64 + 1));
            }
        }
        fn absorb(&mut self, unit: usize, partial: u64) {
            assert!(!self.done[unit], "unit {unit} absorbed twice");
            self.done[unit] = true;
            self.sum += partial;
        }
        fn to_json(&self) -> String {
            let mut out = String::new();
            write_checkpoint_header(&mut out, self.kind(), &self.fingerprint());
            let _ = writeln!(out, "  \"sum\": {}\n}}", self.sum);
            out
        }
    }

    #[test]
    fn runner_completes_and_is_thread_invariant() {
        for threads in [1, 2, 5] {
            let mut job = ToyJob::new(17, threads);
            assert_eq!(JobRunner::run_pending(&mut job, None), 17);
            assert!(JobRunner::is_complete(&job));
            assert_eq!(job.sum, (1..=17).sum::<u64>(), "threads={threads}");
            // Nothing left: running again is a no-op.
            assert_eq!(JobRunner::run_pending(&mut job, None), 0);
        }
    }

    #[test]
    fn runner_respects_limits_and_pass_bounds() {
        let mut job = ToyJob::new(10, 3);
        job.per_pass = 2;
        assert_eq!(JobRunner::run_pending(&mut job, Some(5)), 5);
        assert_eq!(job.completed_count(), 5);
        assert_eq!(JobRunner::run_pending(&mut job, Some(0)), 0);
        assert_eq!(JobRunner::run_pending(&mut job, None), 5);
        assert!(JobRunner::is_complete(&job));
    }

    #[test]
    fn checkpoint_loop_saves_every_batch_and_reports_progress() {
        let path = std::env::temp_dir().join(format!(
            "symloc_job_toy_checkpoint_{}.json",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let mut job = ToyJob::new(6, 1);
        job.per_checkpoint = 2;
        let mut progress = Vec::new();
        let ran = JobRunner::run_with_checkpoint(&mut job, &path, None, |done, total| {
            progress.push((done, total));
        })
        .unwrap();
        assert_eq!(ran, 6);
        assert_eq!(progress, vec![(2, 6), (4, 6), (6, 6)]);
        let saved = std::fs::read_to_string(&path).unwrap();
        assert_eq!(saved, job.to_json());
        // Complete job: nothing runs, checkpoint still rewritten, no
        // progress callback.
        let ran = JobRunner::run_with_checkpoint(&mut job, &path, None, |_, _| {
            panic!("no batch should complete")
        })
        .unwrap();
        assert_eq!(ran, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metered_run_is_result_invariant_and_records() {
        let mut plain = ToyJob::new(9, 2);
        let mut metered = ToyJob::new(9, 2);
        let mut reg = MetricsRegistry::new();
        assert_eq!(JobRunner::run_pending(&mut plain, None), 9);
        assert_eq!(
            JobRunner::run_pending_metered(&mut metered, None, Some(&mut reg)),
            9
        );
        assert_eq!(plain.to_json(), metered.to_json());
        assert_eq!(reg.counter("job.units"), Some(9));
        assert!(reg.counter("job.passes").unwrap_or(0) >= 1);
        assert_eq!(reg.histogram("job.unit_nanos").unwrap().count(), 9);
        assert_eq!(reg.histogram("job.absorb_nanos").unwrap().count(), 9);
    }

    #[test]
    fn checkpoint_loop_writes_and_clears_the_heartbeat_sidecar() {
        let path = std::env::temp_dir().join(format!(
            "symloc_job_toy_heartbeat_{}.json",
            std::process::id()
        ));
        let sidecar = Heartbeat::sidecar_path(&path);
        assert_eq!(
            sidecar.file_name().unwrap().to_str().unwrap(),
            path.file_name().unwrap().to_str().unwrap().to_owned() + ".hb"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();

        // An interrupted run leaves a live heartbeat matching the
        // checkpoint it sits next to.
        let mut job = ToyJob::new(6, 1);
        job.per_checkpoint = 2;
        let mut reg = MetricsRegistry::new();
        let ran = JobRunner::run_with_checkpoint_metered(
            &mut job,
            &path,
            Some(4),
            Some(&mut reg),
            |_, _| {},
        )
        .unwrap();
        assert_eq!(ran, 4);
        let hb = Heartbeat::load(&path).expect("sidecar exists").unwrap();
        assert_eq!(hb.job_kind, JobKind::ShardedSweep);
        assert_eq!((hb.completed, hb.total, hb.batches), (4, 6, 2));
        assert!(hb.units_per_sec >= 0.0);
        let status = JobStatus {
            kind: JobKind::ShardedSweep,
            fingerprint: job.fingerprint(),
            completed: 4,
            total: 6,
            detail: Vec::new(),
        };
        assert!(hb.matches(&status));
        assert!(!hb.matches(&JobStatus {
            completed: 2,
            ..status.clone()
        }));
        assert_eq!(reg.histogram("job.save_nanos").unwrap().count(), 2);
        assert_eq!(reg.counter("job.batches"), Some(2));
        assert!(reg.gauge("job.units_per_sec").is_some());

        // Finishing the run cleans the sidecar up.
        JobRunner::run_with_checkpoint(&mut job, &path, None, |_, _| {}).unwrap();
        assert!(JobRunner::is_complete(&job));
        assert!(Heartbeat::load(&path).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heartbeat_json_round_trips_and_rejects_garbage() {
        let hb = Heartbeat {
            job_kind: JobKind::FusedIngest,
            fingerprint: "gen:zipf:20000:1000000:0.8:42".to_string(),
            completed: 3,
            total: 8,
            batches: 3,
            items: Some(("accesses".to_string(), 375_000)),
            elapsed_secs: 1.25,
            units_per_sec: 2.4,
            instant_units_per_sec: 2.125,
            eta_secs: Some(2.0833),
        };
        let json = hb.to_json();
        assert_eq!(Heartbeat::from_json(&json).unwrap(), hb);
        // No items, no ETA: the optional fields round-trip too.
        let bare = Heartbeat {
            items: None,
            eta_secs: None,
            ..hb.clone()
        };
        assert_eq!(Heartbeat::from_json(&bare.to_json()).unwrap(), bare);

        assert!(Heartbeat::from_json("not json").is_err());
        assert!(Heartbeat::from_json("{}").is_err());
        assert!(Heartbeat::from_json(&json.replace(HEARTBEAT_KIND, "other")).is_err());
        assert!(Heartbeat::from_json(&json.replace("\"version\": 1", "\"version\": 7")).is_err());
        assert!(
            Heartbeat::from_json(&json.replace(JobKind::FusedIngest.kind_str(), "mystery"))
                .is_err()
        );
        assert!(Heartbeat::from_json(&json[..json.len() / 2]).is_err());

        let mut reg = MetricsRegistry::new();
        hb.record_gauges(&mut reg);
        assert_eq!(reg.gauge("job.units_per_sec"), Some(2.4));
        assert_eq!(reg.gauge("job.eta_secs"), Some(2.0833));
        assert_eq!(reg.gauge("job.accesses_done"), Some(375_000.0));
        assert_eq!(reg.gauge("job.accesses_per_sec"), Some(375_000.0 / 1.25));
    }

    #[test]
    fn eta_tracks_a_stall_instead_of_freezing_optimistic() {
        // A job that raced through half its units and then stalled: the
        // cumulative rate still says 100/s, the last batch says 2/s. The
        // old cumulative-only ETA froze at 5s forever; the instant rate
        // reports the honest 250s.
        assert_eq!(eta_secs_from(500, 100.0, 2.0), Some(250.0));
        // Steady state: instant ≈ overall, either answer is fine.
        assert_eq!(eta_secs_from(500, 100.0, 100.0), Some(5.0));
        // A zero instant rate (batch too fast for the clock, or no
        // progress measured yet) falls back to the cumulative rate.
        assert_eq!(eta_secs_from(500, 100.0, 0.0), Some(5.0));
        // Non-finite instant rates fall back too.
        assert_eq!(eta_secs_from(500, 100.0, f64::NAN), Some(5.0));
        assert_eq!(eta_secs_from(500, 100.0, f64::INFINITY), Some(5.0));
        // No measurable progress at all: no ETA, not a division blow-up.
        assert_eq!(eta_secs_from(500, 0.0, 0.0), None);
        assert_eq!(eta_secs_from(500, -1.0, 0.0), None);
    }

    #[test]
    fn resume_or_new_with_distinguishes_the_three_outcomes() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("symloc_job_resume_{}.json", std::process::id()));
        std::fs::remove_file(&path).ok();

        // No file: fresh.
        let (value, resumed) = resume_or_new_with(
            &path,
            JobKind::ShardedSweep,
            |_| Ok(1u32),
            |_| true,
            |_| 1,
            || 0u32,
        )
        .unwrap();
        assert_eq!((value, resumed), (0, false));

        // Right kind, matching plan: resumed.
        let mut doc = String::new();
        write_checkpoint_header(&mut doc, JobKind::ShardedSweep, "fp");
        doc.push_str("  \"x\": 1\n}\n");
        std::fs::write(&path, &doc).unwrap();
        let (value, resumed) = resume_or_new_with(
            &path,
            JobKind::ShardedSweep,
            |_| Ok(1u32),
            |_| true,
            |_| 1,
            || 0u32,
        )
        .unwrap();
        assert_eq!((value, resumed), (1, true));

        // Right kind, undecodable: loud error carrying the reason, and
        // the file is left as it was.
        let err = resume_or_new_with(
            &path,
            JobKind::ShardedSweep,
            |_| Err::<u32, _>("bad field".to_string()),
            |_| true,
            |_| 1,
            || 0u32,
        )
        .unwrap_err();
        assert!(
            err.contains("bad field") && err.contains("untouched"),
            "{err}"
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), doc);

        // Right kind, plan mismatch: fresh.
        let (value, resumed) = resume_or_new_with(
            &path,
            JobKind::ShardedSweep,
            |_| Ok(1u32),
            |_| false,
            |_| 1,
            || 0u32,
        )
        .unwrap();
        assert_eq!((value, resumed), (0, false));

        // Cross-kind: loud error naming both kinds.
        let err = resume_or_new_with(
            &path,
            JobKind::FusedIngest,
            |_| Ok(1u32),
            |_| true,
            |_| 1,
            || 0u32,
        )
        .unwrap_err();
        assert!(err.contains(JobKind::ShardedSweep.kind_str()), "{err}");
        assert!(err.contains(JobKind::FusedIngest.describe()), "{err}");

        // Retired kind: loud error, and the file is left as it was.
        let retired = "{\"kind\": \"symloc_trace_ingest_checkpoint\", \"version\": 1}\n";
        std::fs::write(&path, retired).unwrap();
        let err = resume_or_new_with(
            &path,
            JobKind::FusedIngest,
            |_| Ok(1u32),
            |_| true,
            |_| 1,
            || 0u32,
        )
        .unwrap_err();
        assert!(err.contains("retired"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), retired);
        std::fs::remove_file(&path).ok();
    }
}
