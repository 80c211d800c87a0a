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
//!   enumeration ([`Job::unit_count`] / [`Job::pending_units`]), a
//!   read-only unit plan ([`Job::units`]) its workers run units from
//!   ([`Job::run_unit`]), in-order absorption ([`Job::absorb`]), a
//!   streaming checkpoint codec built on [`crate::jsonio`]
//!   ([`Job::write_json`] + the shared [`write_checkpoint_header`] /
//!   [`read_checkpoint_fields`] pair), and a [`Job::fingerprint`] identity
//!   embedded in every checkpoint.
//! * [`JobRunner`] — the generic runner that owns the windowed unit
//!   scheduling (`std::thread::scope` underneath), checkpointing with
//!   streamed atomic saves ([`crate::jsonio::save_atomic_with`]), progress
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
//! (rank shards, sample levels, trace chunks). Before a run the job hands
//! out its read-only unit plan ([`Job::units`]); worker threads claim the
//! pending units strictly in unit order and run each one from that plan
//! ([`Job::run_unit`]), while the caller thread — the only one that
//! mutates the job — absorbs each partial as soon as every earlier unit
//! has been absorbed, holding the few partials that arrive early in a
//! small reorder buffer. A unit counts against a **window** from its claim
//! until its absorb returns, so the workers fold the next units while the
//! caller absorbs and saves. Two knobs let each pipeline keep its
//! scheduling shape:
//!
//! * [`Job::units_per_pass`] — the window, clamped to `1..=threads`: at
//!   most that many units are claimed and not yet absorbed, which bounds
//!   the partials alive at once. Jobs whose single unit is *internally*
//!   parallel (the exhaustive sweep shard) return 1, and a window of 1
//!   runs every unit inline on the caller thread.
//! * [`Job::units_per_checkpoint`] — how many absorbed units, counted from
//!   the run's start, separate the checkpoint saves of
//!   [`JobRunner::run_with_checkpoint`] (which also saves after the last
//!   unit). A save streams the document to disk on the caller thread while
//!   the workers keep folding, so only then does one thread more than the
//!   job's `threads` work.
//!
//! A panicking unit halts further claims and its panic propagates out of
//! the runner. A unit that fails, and a save that fails, both halt claims,
//! join the workers and return the error ([`JobError`]) with the previous
//! checkpoint untouched: no unit at or after a failed one is absorbed.
//! Nothing waits on a window that can no longer drain.
//!
//! Because units are deterministic and absorption is ordered, resuming a
//! killed job from its checkpoint reproduces the uninterrupted run
//! *byte-identically* — the invariant `core/tests/job_props.rs` pins for
//! every pipeline at every unit boundary.

use crate::jsonio::{self, JsonValue, Reader};
use crate::obs::{MetricsRegistry, Span};
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Condvar, Mutex, PoisonError};

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
pub trait Job {
    /// The mergeable result of one completed unit.
    type Partial: Send;

    /// The read-only plan workers run units from ([`Job::run_unit`]) while
    /// the caller thread mutates the job's absorbed state.
    type Units: Sync;

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

    /// The window: most units claimed and not yet absorbed at once
    /// (clamped to `1..=threads`). Return 1 when a single unit is
    /// internally parallel (so units run one at a time, inline), or
    /// `usize::MAX` (the default) for one unit per worker.
    fn units_per_pass(&self, threads: usize) -> usize {
        let _ = threads;
        usize::MAX
    }

    /// Absorbed units between checkpoint saves in
    /// [`JobRunner::run_with_checkpoint`].
    fn units_per_checkpoint(&self, threads: usize) -> usize {
        threads
    }

    /// The read-only unit plan of the next run, handed out before any
    /// unit runs.
    fn units(&self) -> Self::Units;

    /// Runs one pending unit from the plan. Must be deterministic in the
    /// unit index alone (never in which worker ran it, or which units ran
    /// before it on that worker), so results are thread- and
    /// window-invariant.
    ///
    /// # Errors
    ///
    /// A unit that cannot run (the trace job's chunk that cannot be read,
    /// or does not match the trace's sidecar index) returns why; the
    /// runner then stops the run ([`JobError::Unit`]).
    fn run_unit(units: &Self::Units, unit: usize) -> Result<Self::Partial, String>;

    /// Absorbs one completed unit's partial. The runner calls this in
    /// strict unit order, once per unit.
    fn absorb(&mut self, unit: usize, partial: Self::Partial);

    /// Writes the job — plan, progress, completed state — as a JSON
    /// checkpoint document (header via [`write_checkpoint_header`]) to
    /// `out`, which [`JobRunner::save`] streams to disk.
    ///
    /// # Errors
    ///
    /// Returns the writer's error.
    fn write_json(&self, out: &mut dyn fmt::Write) -> fmt::Result;

    /// The checkpoint document [`Job::write_json`] writes, as a `String`.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out)
            .expect("a checkpoint document formats into a String");
        out
    }

    /// An optional kind-specific progress counter for heartbeats — e.g.
    /// `("accesses", streamed)` for the trace job. `None` (the
    /// default) means the job only reports unit counts.
    fn progress_items(&self) -> Option<(&'static str, u64)> {
        None
    }
}

/// Why a run of a [`Job`] stopped before its last unit. Either way the
/// runner claimed no unit after the failure, joined its workers, absorbed
/// nothing at or after the failed unit, and left the last checkpoint it
/// saved as it was.
#[derive(Debug)]
pub enum JobError {
    /// A unit failed, with its message ([`Job::run_unit`]).
    Unit(String),
    /// A checkpoint could not be written.
    Save(std::io::Error),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Unit(message) => f.write_str(message),
            JobError::Save(error) => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Unit(_) => None,
            JobError::Save(error) => Some(error),
        }
    }
}

/// The generic runner of every [`Job`]: windowed unit scheduling,
/// checkpointing with streamed atomic saves, progress callbacks, and the
/// deterministic unit-order merge. Stateless — all state lives in the
/// job itself, which is what makes the checkpoints self-contained.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobRunner;

impl JobRunner {
    /// True when every unit of `job` has been absorbed.
    #[must_use]
    pub fn is_complete<J: Job + ?Sized>(job: &J) -> bool {
        job.completed_count() >= job.unit_count()
    }

    /// Runs up to `limit` pending units (all of them when `None`) through
    /// the window ([`Job::units_per_pass`]), absorbing partials in unit
    /// order. Returns how many units were processed.
    ///
    /// # Panics
    ///
    /// Propagates the panic of a unit (or of an absorb), and panics with
    /// the error of a unit that fails; [`JobRunner::run_pending_metered`]
    /// returns that error instead.
    pub fn run_pending<J: Job + ?Sized>(job: &mut J, limit: Option<usize>) -> usize {
        Self::run_pending_metered(job, limit, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`JobRunner::run_pending`] with optional instrumentation: when
    /// `metrics` is supplied, each unit's wall time on its worker lands in
    /// `job.unit_nanos` and each absorb's in `job.absorb_nanos`, and the
    /// `job.units` / `job.passes` counters record the units run and the
    /// window-sized passes they fill (so `job.units / job.passes` is the
    /// window whenever the units fill whole windows).
    ///
    /// Metering is result-invariant: the scheduling, the unit order and
    /// every absorbed partial are identical with and without a registry —
    /// the registry only receives copies of timings and counts.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Unit`] when a unit fails; no unit is claimed
    /// after it, and the units before it are absorbed.
    ///
    /// # Panics
    ///
    /// Propagates the panic of a unit (or of an absorb).
    pub fn run_pending_metered<J: Job + ?Sized>(
        job: &mut J,
        limit: Option<usize>,
        metrics: Option<&mut MetricsRegistry>,
    ) -> Result<usize, JobError> {
        Self::run(job, limit, metrics, None)
    }

    /// Runs pending units — all of them, or up to `limit` — saving the
    /// checkpoint to `path` atomically after every [`Job::units_per_checkpoint`]
    /// absorbed units and after the last one, so a kill loses at most one
    /// batch (and a kill mid-save leaves the previous checkpoint intact).
    /// `on_batch(completed, total)` fires after every save. The
    /// checkpoint is (re)written even when nothing was pending, so a
    /// fresh plan always lands on disk.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Save`] if a checkpoint cannot be written and
    /// [`JobError::Unit`] if a unit fails; no unit is claimed after either,
    /// and the previous checkpoint stays as it was.
    ///
    /// # Panics
    ///
    /// Propagates the panic of a unit (or of an absorb).
    pub fn run_with_checkpoint<J: Job + ?Sized>(
        job: &mut J,
        path: &Path,
        limit: Option<usize>,
        on_batch: impl FnMut(usize, usize),
    ) -> Result<usize, JobError> {
        Self::run_with_checkpoint_metered(job, path, limit, None, on_batch)
    }

    /// [`JobRunner::run_with_checkpoint`] with optional instrumentation:
    /// units are metered as in [`JobRunner::run_pending_metered`], every
    /// save's latency lands in the `job.save_nanos` histogram, and the
    /// heartbeat's throughput/ETA figures are mirrored as gauges. Like the
    /// plain checkpoint loop this variant writes the [`Heartbeat`] sidecar
    /// after every save; metering never changes the checkpoint bytes.
    ///
    /// # Errors
    ///
    /// As [`JobRunner::run_with_checkpoint`] (heartbeat sidecar writes are
    /// best-effort and never fail the run).
    ///
    /// # Panics
    ///
    /// Propagates the panic of a unit (or of an absorb).
    pub fn run_with_checkpoint_metered<J: Job + ?Sized>(
        job: &mut J,
        path: &Path,
        limit: Option<usize>,
        metrics: Option<&mut MetricsRegistry>,
        mut on_batch: impl FnMut(usize, usize),
    ) -> Result<usize, JobError> {
        let saves = Saves {
            path,
            every: job.units_per_checkpoint(job.threads().max(1)).max(1),
            on_batch: &mut on_batch,
            run_span: Span::start(),
            batch_span: Span::start(),
            started_at: job.completed_count(),
            batch_before: job.completed_count(),
            batches: 0,
        };
        let ran = Self::run(job, limit, metrics, Some(saves))?;
        if ran == 0 {
            Self::save(job, path).map_err(JobError::Save)?;
        }
        if Self::is_complete(job) {
            // The sidecar is live in-flight state; a completed run cleans
            // it up so `job status` never reads a finished job's last
            // heartbeat as live progress.
            let _ = std::fs::remove_file(Heartbeat::sidecar_path(path));
        }
        Ok(ran)
    }

    /// Streams the job's checkpoint to `path` atomically (temp file +
    /// rename, via [`crate::jsonio::save_atomic_with`]) — the single save
    /// path every checkpointing pipeline goes through. The document is
    /// never held in memory whole.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the previous file at `path` is
    /// then left as it was.
    pub fn save<J: Job + ?Sized>(job: &J, path: &Path) -> std::io::Result<()> {
        jsonio::save_atomic_with(path, |out| job.write_json(out))
    }

    /// The one scheduling loop: runs the first `limit` pending units
    /// through the window, absorbing on the calling thread and saving
    /// when `saves` asks for it. Returns how many units ran.
    fn run<'a, J: Job + ?Sized>(
        job: &'a mut J,
        limit: Option<usize>,
        metrics: Option<&'a mut MetricsRegistry>,
        saves: Option<Saves<'a>>,
    ) -> Result<usize, JobError> {
        let threads = job.threads().max(1);
        let window = job.units_per_pass(threads).clamp(1, threads);
        let mut todo = job.pending_units();
        todo.truncate(limit.unwrap_or(usize::MAX));
        if todo.is_empty() {
            return Ok(0);
        }
        let units = job.units();
        let mut caller = Caller {
            job,
            metrics,
            saves,
            absorbed: 0,
            total: todo.len(),
        };
        if window == 1 {
            for &unit in &todo {
                let span = Span::start();
                let partial = J::run_unit(&units, unit).map_err(JobError::Unit)?;
                caller.absorb(unit, partial, span.elapsed_nanos());
                caller.save_if_due().map_err(JobError::Save)?;
            }
        } else {
            run_windowed::<J>(&mut caller, &units, &todo, window)?;
        }
        if let Some(reg) = caller.metrics {
            reg.add("job.units", todo.len() as u64);
            reg.add("job.passes", todo.len().div_ceil(window) as u64);
        }
        Ok(todo.len())
    }
}

/// The checkpoint side of a run: where and how often to save, and the
/// spans and counts its heartbeats report.
struct Saves<'a> {
    path: &'a Path,
    every: usize,
    on_batch: &'a mut dyn FnMut(usize, usize),
    run_span: Span,
    batch_span: Span,
    started_at: usize,
    batch_before: usize,
    batches: u64,
}

/// What the caller thread of a run owns: the job it absorbs into, the
/// registry, and the saves.
struct Caller<'a, J: Job + ?Sized> {
    job: &'a mut J,
    metrics: Option<&'a mut MetricsRegistry>,
    saves: Option<Saves<'a>>,
    absorbed: usize,
    total: usize,
}

impl<J: Job + ?Sized> Caller<'_, J> {
    /// Absorbs the next unit in order, metering it and the unit's worker
    /// time `unit_nanos`.
    fn absorb(&mut self, unit: usize, partial: J::Partial, unit_nanos: u64) {
        match self.metrics.as_deref_mut() {
            Some(reg) => {
                reg.observe("job.unit_nanos", unit_nanos);
                let span = Span::start();
                self.job.absorb(unit, partial);
                span.record(reg, "job.absorb_nanos");
            }
            None => self.job.absorb(unit, partial),
        }
        self.absorbed += 1;
    }

    /// Saves, writes the heartbeat and reports the batch when the units
    /// absorbed so far close one (or the run's last unit was absorbed).
    fn save_if_due(&mut self) -> std::io::Result<()> {
        let Some(saves) = self.saves.as_mut() else {
            return Ok(());
        };
        if !self.absorbed.is_multiple_of(saves.every) && self.absorbed < self.total {
            return Ok(());
        }
        let save_span = Span::start();
        JobRunner::save(&*self.job, saves.path)?;
        let save_nanos = save_span.elapsed_nanos();
        saves.batches += 1;
        let heartbeat = Heartbeat::of(
            &*self.job,
            &saves.run_span,
            &saves.batch_span,
            saves.started_at,
            saves.batch_before,
            saves.batches,
        );
        heartbeat.write_sidecar(saves.path);
        if let Some(reg) = self.metrics.as_deref_mut() {
            reg.observe("job.save_nanos", save_nanos);
            reg.add("job.batches", 1);
            heartbeat.record_gauges(reg);
        }
        (saves.on_batch)(self.job.completed_count(), self.job.unit_count());
        saves.batch_span = Span::start();
        saves.batch_before = self.job.completed_count();
        Ok(())
    }
}

/// The claim side of a windowed run: positions in the run's unit list are
/// handed out strictly in order, and only while fewer than `window` units
/// are claimed and not yet absorbed.
///
/// Its lock is taken past a poisoning: no code panics while holding it,
/// and each update is a single field write that leaves the state valid,
/// so a halt must still reach the workers after any thread panicked.
struct Claims {
    state: Mutex<ClaimState>,
    room: Condvar,
    window: usize,
    total: usize,
}

struct ClaimState {
    next: usize,
    open: usize,
    halted: bool,
}

impl Claims {
    fn new(window: usize, total: usize) -> Self {
        Claims {
            state: Mutex::new(ClaimState {
                next: 0,
                open: 0,
                halted: false,
            }),
            room: Condvar::new(),
            window,
            total,
        }
    }

    /// The next position to run once the window has room, or `None` when
    /// every unit is claimed or the run halted.
    fn claim(&self) -> Option<usize> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.halted || state.next >= self.total {
                return None;
            }
            if state.open < self.window {
                state.open += 1;
                state.next += 1;
                return Some(state.next - 1);
            }
            state = self
                .room
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Frees the window slot of a unit whose absorb returned.
    fn release(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .open -= 1;
        self.room.notify_one();
    }

    /// Stops all further claims and wakes every waiting worker.
    fn halt(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .halted = true;
        self.room.notify_all();
    }
}

/// Halts the claims when dropped: on every exit of the caller's loop (a
/// finished run, a failed save, a panicking absorb) and of a worker (a
/// panicking unit among them), so no thread waits on a window that can no
/// longer drain.
struct HaltOnDrop<'a>(&'a Claims);

impl Drop for HaltOnDrop<'_> {
    fn drop(&mut self) {
        self.0.halt();
    }
}

/// Why the caller's loop of a windowed run stopped before its last unit.
enum Stopped {
    Failed(JobError),
    WorkersGone,
}

/// What a worker hands the caller: the unit's position in the run, its
/// partial or error, and its wall time.
type Done<P> = (usize, Result<P, String>, u64);

/// Runs `todo` on `window` scoped workers, absorbing (and saving) on the
/// calling thread in unit order; see the [module docs](self).
fn run_windowed<J: Job + ?Sized>(
    caller: &mut Caller<'_, J>,
    units: &J::Units,
    todo: &[usize],
    window: usize,
) -> Result<(), JobError> {
    let claims = Claims::new(window, todo.len());
    let (done_tx, done_rx) = mpsc::channel::<Done<J::Partial>>();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..window.min(todo.len()))
            .map(|_| {
                let done_tx = done_tx.clone();
                let claims = &claims;
                scope.spawn(move || {
                    // A failed unit ends its worker, which halts the claims:
                    // no unit after it starts.
                    let _halt = HaltOnDrop(claims);
                    while let Some(pos) = claims.claim() {
                        let span = Span::start();
                        let partial = J::run_unit(units, todo[pos]);
                        let failed = partial.is_err();
                        if done_tx.send((pos, partial, span.elapsed_nanos())).is_err() || failed {
                            break;
                        }
                    }
                })
            })
            .collect();
        drop(done_tx);
        let outcome = {
            let _halt = HaltOnDrop(&claims);
            absorb_in_order(caller, &claims, &done_rx, todo, window)
        };
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        match outcome {
            Ok(()) => Ok(()),
            Err(Stopped::Failed(error)) => Err(error),
            Err(Stopped::WorkersGone) => unreachable!("job workers exited with units unrun"),
        }
    })
}

/// The caller's loop of a windowed run: takes each partial in unit order
/// (parking the ones that arrive early), absorbs it, frees its window slot
/// and saves when a batch closes; stops at the first unit, in unit order,
/// that failed.
fn absorb_in_order<J: Job + ?Sized>(
    caller: &mut Caller<'_, J>,
    claims: &Claims,
    done: &mpsc::Receiver<Done<J::Partial>>,
    todo: &[usize],
    window: usize,
) -> Result<(), Stopped> {
    // Positions in the window are distinct modulo its size.
    type Ready<P> = Option<(Result<P, String>, u64)>;
    let mut early: Vec<Ready<J::Partial>> = (0..window).map(|_| None).collect();
    for (pos, &unit) in todo.iter().enumerate() {
        let (partial, nanos) = loop {
            if let Some(ready) = early[pos % window].take() {
                break ready;
            }
            let (at, partial, nanos) = done.recv().map_err(|_| Stopped::WorkersGone)?;
            early[at % window] = Some((partial, nanos));
        };
        let partial = partial.map_err(|e| Stopped::Failed(JobError::Unit(e)))?;
        caller.absorb(unit, partial, nanos);
        claims.release();
        caller
            .save_if_due()
            .map_err(|e| Stopped::Failed(JobError::Save(e)))?;
    }
    Ok(())
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
        // Times and rates are finite and non-negative as written; one that
        // is not (`1e999` reads as infinity) would render as `inf`, which
        // is not JSON, in the `job status --json` report that embeds it.
        let seconds = |value: Option<&JsonValue>, key: &str| {
            value
                .and_then(JsonValue::as_f64)
                .filter(|v| v.is_finite() && *v >= 0.0)
                .ok_or_else(|| {
                    format!("heartbeat {key} is missing or not a finite, non-negative number")
                })
        };
        let rate = |key: &str| seconds(doc.get(key), key);
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
            eta => Some(seconds(eta, "eta_secs")?),
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
///
/// # Errors
///
/// Returns the writer's error.
pub fn write_checkpoint_header(
    out: &mut dyn fmt::Write,
    kind: JobKind,
    fingerprint: &str,
) -> fmt::Result {
    out.write_str("{\n")?;
    writeln!(out, "  \"kind\": \"{}\",", kind.kind_str())?;
    writeln!(out, "  \"version\": {},", kind.version())?;
    writeln!(
        out,
        "  \"fingerprint\": \"{}\",",
        jsonio::escape(fingerprint)
    )
}

/// Reads the top-level object of a checkpoint of kind `expected` — the
/// first step of every kind's decoder. `"kind"` and `"version"` are checked
/// as soon as each is read, and every other key goes to `field` with the
/// reader at its value, which `field` must read or skip. Keys come in any
/// order; of duplicate keys the first wins, as in [`JsonValue::get`].
///
/// # Errors
///
/// Returns `field`'s error, a syntax error, or a descriptive error on a
/// missing kind, an unsupported version — and, crucially, a **kind
/// mismatch**: a document of another registered kind names both kinds and
/// points at `symloc job resume`, so resuming a checkpoint with the wrong
/// command can never quietly misread it.
pub fn read_checkpoint_fields<'a>(
    reader: &mut Reader<'a>,
    expected: JobKind,
    mut field: impl FnMut(&mut Reader<'a>, &str) -> Result<(), String>,
) -> Result<(), String> {
    let (mut kind, mut version) = (None, None);
    reader.object(|reader, key| match key {
        "kind" if kind.is_none() => {
            let tag = reader.str()?;
            check_kind(tag.as_deref(), expected)?;
            kind = tag;
            Ok(())
        }
        "version" if version.is_none() => {
            version = Some(reader.u64()?);
            check_version(version.flatten(), expected)
        }
        "kind" | "version" => reader.skip(),
        _ => field(reader, key),
    })?;
    check_kind(kind.as_deref(), expected)?;
    check_version(version.flatten(), expected)
}

/// Checks a checkpoint's `"kind"` tag against the expected kind.
fn check_kind(tag: Option<&str>, expected: JobKind) -> Result<(), String> {
    match tag {
        None => Err(format!(
            "not a {} checkpoint (no kind field)",
            expected.describe()
        )),
        Some(tag) if tag != expected.kind_str() => Err(match JobKind::parse(tag) {
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
        }),
        Some(_) => Ok(()),
    }
}

/// Checks a checkpoint's `"version"` against the expected kind's.
fn check_version(version: Option<u64>, expected: JobKind) -> Result<(), String> {
    if version == Some(expected.version()) {
        Ok(())
    } else {
        Err(format!("unsupported checkpoint version {version:?}"))
    }
}

/// The registered kind a `"kind"` tag names, `None` for any other tag.
///
/// # Errors
///
/// Returns a loud error naming the retired kind, and saying to re-run,
/// for a retired tag.
fn registered_kind(tag: &str) -> Result<Option<JobKind>, String> {
    match retired_kind_error(tag) {
        Some(err) => Err(err),
        None => Ok(JobKind::parse(tag)),
    }
}

/// The `"kind"` tag a checkpoint text records, as a parse of the whole
/// text reads it: the first `"kind"` member of the top-level object.
///
/// Every writer and every committed fixture puts `"kind"` first, so the
/// tag its first bytes name ([`header_kind`]) is the answer whenever it is
/// a registered or retired tag. Otherwise the top-level keys are scanned,
/// so a document with `"kind"` elsewhere is still recognised.
///
/// # Errors
///
/// Returns the syntax error of a text that does not parse and whose first
/// bytes name no registered or retired tag.
fn recorded_tag(text: &str) -> Result<Option<Cow<'_, str>>, String> {
    if let Some(tag) = header_kind(text.as_bytes()) {
        if JobKind::parse(tag).is_some() || retired_kind_error(tag).is_some() {
            return Ok(Some(Cow::Borrowed(tag)));
        }
    }
    jsonio::read_document(text, |reader| {
        if reader.peek()? != jsonio::Token::Object {
            reader.skip()?;
            return Ok(None);
        }
        let mut kind = None;
        reader.object(|reader, key| match key {
            "kind" => reader.first(&mut kind, Reader::str),
            _ => reader.skip(),
        })?;
        Ok(kind.flatten())
    })
}

/// The kind a checkpoint text records: `Ok(Some(kind))` for a registered
/// tag, `Ok(None)` when it carries no registered tag. Only the tag is
/// read when the document opens with it, as every checkpoint does.
///
/// # Errors
///
/// Returns a loud error naming the retired kind, and saying to re-run,
/// for a retired tag; and the syntax error of a text that does not parse
/// and opens with no registered tag.
pub fn recorded_kind(text: &str) -> Result<Option<JobKind>, String> {
    recorded_tag(text)?.map_or(Ok(None), |tag| registered_kind(&tag))
}

/// The `"kind"` tag a document opens with, read from its first bytes
/// alone: what a checkpoint that no longer parses — cut short, a byte
/// changed, no longer UTF-8 — still says it is. Every checkpoint opens
/// with its tag ([`write_checkpoint_header`]).
fn header_kind(bytes: &[u8]) -> Option<&str> {
    let rest = bytes.trim_ascii_start().strip_prefix(b"{")?;
    let rest = rest.trim_ascii_start().strip_prefix(b"\"kind\"")?;
    let rest = rest.trim_ascii_start().strip_prefix(b":")?;
    let rest = rest.trim_ascii_start().strip_prefix(b"\"")?;
    let end = rest.iter().position(|&b| b == b'"')?;
    std::str::from_utf8(&rest[..end]).ok()
}

/// The shared resume policy of every pipeline: load the checkpoint at
/// `path` or plan a fresh job. The kind is read from the text's header
/// ([`recorded_kind`]), and `decode` builds the job from a [`Reader`] at
/// the start of the text. The policy reads the document whole
/// ([`jsonio::read_document`]): a job comes back only when the text parses
/// to its end, so a decoder that stops short can never accept a damaged
/// or truncated file.
///
/// * No file (or unreadable): fresh plan.
/// * A file whose kind is not registered (not JSON, no `"kind"`, an
///   unknown tag): fresh plan.
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
/// **Damaged files.** A file that does not parse — cut short, a byte
/// changed, not UTF-8, nested past [`jsonio::MAX_DEPTH`] — is judged by
/// the `"kind"` tag its first bytes name. A registered tag makes it a
/// damaged checkpoint of that kind: the cross-kind error for another
/// kind, the undecodable-document error (carrying the parse error) for
/// the expected one, and the file is left byte for byte as it was. A
/// retired tag is the retired-kind error. Without a registered or retired
/// tag it is not a checkpoint, and a fresh plan replaces it.
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
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, String>,
    matches: impl FnOnce(&T) -> bool,
    completed: impl FnOnce(&T) -> usize,
    fresh: impl FnOnce() -> T,
) -> Result<(T, bool), String> {
    jsonio::remove_stale_temps(path);
    let Ok(bytes) = std::fs::read(path) else {
        return Ok((fresh(), false));
    };
    let text = std::str::from_utf8(&bytes).map_err(|e| format!("not UTF-8 text: {e}"));
    let tag = match text.as_deref().map(recorded_tag) {
        Ok(Ok(tag)) => tag,
        // Not text, or text that does not parse: judged by its header.
        _ => header_kind(&bytes).map(Cow::Borrowed),
    };
    let found = match tag {
        Some(tag) => {
            registered_kind(&tag).map_err(|e| format!("checkpoint {}: {e}", path.display()))?
        }
        None => None,
    };
    match found {
        None => return Ok((fresh(), false)),
        Some(found) if found != expected => {
            return Err(format!(
                "checkpoint {} holds a {} ({:?}), not the {} this command would resume; \
                 resume it with the matching command (or `symloc job resume`), or point \
                 the checkpoint flag at a different file",
                path.display(),
                found.describe(),
                found.kind_str(),
                expected.describe(),
            ))
        }
        Some(_) => {}
    }
    match text.and_then(|text| jsonio::read_document(text, decode)) {
        Ok(job) if matches(&job) => {
            let resumed = completed(&job) > 0;
            Ok((job, resumed))
        }
        Ok(_) => Ok((fresh(), false)),
        Err(e) => Err(format!(
            "checkpoint {} holds a {} ({:?}) that does not decode: {e}; it was left \
             untouched — remove it to start over, or point the checkpoint flag at a \
             different file",
            path.display(),
            expected.describe(),
            expected.kind_str(),
        )),
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
/// dispatching on the kind the document itself records
/// ([`recorded_kind`]); the kind's decoder reads the text once.
///
/// # Errors
///
/// Returns a descriptive error for unparseable documents, unknown kinds,
/// or structurally invalid bodies (via the kind's own decoder).
pub fn checkpoint_status(text: &str) -> Result<JobStatus, String> {
    let tag = recorded_tag(text)?.ok_or("not a symloc checkpoint (no kind field)")?;
    let kind = JobKind::parse(&tag).ok_or_else(|| unregistered_kind_error(&tag))?;
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

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

    /// Reads `text` as a checkpoint of kind `expected` whose body fields
    /// are all skipped.
    fn check_header(text: &str, expected: JobKind) -> Result<(), String> {
        jsonio::read_document(text, |reader| {
            read_checkpoint_fields(reader, expected, |reader, _| reader.skip())
        })
    }

    #[test]
    fn header_writer_and_parser_agree() {
        let mut out = String::new();
        write_checkpoint_header(&mut out, JobKind::ShardedSweep, "m=5;x").unwrap();
        out.push_str("  \"payload\": 1\n}\n");
        check_header(&out, JobKind::ShardedSweep).unwrap();
        let doc = jsonio::parse(&out).unwrap();
        assert_eq!(
            doc.get("fingerprint").and_then(JsonValue::as_str),
            Some("m=5;x")
        );
        assert_eq!(recorded_kind(&out), Ok(Some(JobKind::ShardedSweep)));
        assert_eq!(
            header_kind(out.as_bytes()),
            Some(JobKind::ShardedSweep.kind_str())
        );
    }

    #[test]
    fn cross_kind_parse_names_both_kinds() {
        let mut out = String::new();
        write_checkpoint_header(&mut out, JobKind::SampledSweep, "fp").unwrap();
        out.push_str("  \"payload\": 1\n}\n");
        let err = check_header(&out, JobKind::ShardedSweep).unwrap_err();
        assert!(err.contains("kind mismatch"), "{err}");
        assert!(err.contains(JobKind::SampledSweep.kind_str()), "{err}");
        assert!(err.contains(JobKind::ShardedSweep.kind_str()), "{err}");
        assert!(err.contains("symloc job resume"), "{err}");
    }

    #[test]
    fn checkpoint_header_check_rejects_foreign_and_versioned_documents() {
        let check = |text: &str| check_header(text, JobKind::FusedIngest);
        assert!(check("[1, 2]").is_err());
        assert!(check("{}").is_err());
        let err = check("{\"kind\": \"something_else\"}").unwrap_err();
        assert!(err.contains("something_else"), "{err}");
        let mut out = String::new();
        write_checkpoint_header(&mut out, JobKind::FusedIngest, "fp").unwrap();
        out.push_str("  \"x\": 1\n}\n");
        check(&out).unwrap();
        let bumped = out.replace("\"version\": 1", "\"version\": 9");
        assert!(check(&bumped).unwrap_err().contains("version"));
        // Keys in any order, the first of duplicates winning.
        let moved = "{\"x\": [1, {\"kind\": 2}], \"version\": 1, \
                     \"kind\": \"symloc_fused_trace_checkpoint\", \"version\": 9}";
        check(moved).unwrap();
        let shadowed = "{\"kind\": 5, \"kind\": \"symloc_fused_trace_checkpoint\", \
                        \"version\": 1}";
        assert!(check(shadowed).unwrap_err().contains("no kind field"));
        assert!(check(&format!("{out} {{}}"))
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn recorded_kind_handles_garbage() {
        assert_eq!(recorded_kind("[1, 2]"), Ok(None));
        assert_eq!(recorded_kind("{}"), Ok(None));
        assert_eq!(recorded_kind("{\"kind\": 7}"), Ok(None));
        assert_eq!(recorded_kind("{\"kind\": \"mystery\"}"), Ok(None));
        assert!(recorded_kind("{\"kind\": \"mystery\"").is_err());
        // A tag that is not first, or that is escaped, is found by a scan
        // of the top-level keys: nested objects do not count.
        for text in [
            "{\"version\": 1, \"x\": {\"kind\": \"mystery\"}, \"kind\": \"symloc_serve_checkpoint\"}",
            "{\"kind\": \"symloc_serve_checkpoin\\u0074\", \"version\": 1}",
        ] {
            assert_eq!(recorded_kind(text), Ok(Some(JobKind::ServeState)), "{text}");
        }
        // Retired tags are not garbage: they fail loudly, naming the job.
        for (tag, job) in RETIRED_KINDS {
            let doc = format!("{{\"kind\": \"{tag}\", \"version\": 1}}");
            let err = recorded_kind(&doc).unwrap_err();
            assert!(err.contains(tag) && err.contains(job), "{err}");
            assert!(err.contains("re-run"), "{err}");
            let err = checkpoint_status(&doc).unwrap_err();
            assert!(err.contains("retired"), "{err}");
            let err = check_header(&doc, JobKind::FusedIngest).unwrap_err();
            assert!(err.contains("retired"), "{err}");
            assert!(JobKind::parse(tag).is_none());
        }
    }

    #[test]
    fn header_kind_reads_the_opening_tag_only() {
        let tag = "symloc_serve_checkpoint";
        for text in [
            format!("{{\"kind\": \"{tag}\", \"version\": 1"),
            format!(" \n{{\n  \"kind\"  :  \"{tag}\",\n  \"vers\u{0}"),
            format!("{{\"kind\":\"{tag}\""),
        ] {
            assert_eq!(header_kind(text.as_bytes()), Some(tag), "{text:?}");
        }
        let mut not_utf8 = format!("{{\"kind\": \"{tag}\", \"x\": \"").into_bytes();
        not_utf8.extend([0xB1, b'"', b'}']);
        assert_eq!(header_kind(&not_utf8), Some(tag));
        for text in [
            "",
            "[",
            "{}",
            "{\"version\": 1, \"kind\": \"symloc_serve_checkpoint\"}",
            "{\"kind\": 5}",
            "{\"kind\": \"unterminated",
            "x{\"kind\": \"symloc_serve_checkpoint\"}",
        ] {
            assert_eq!(header_kind(text.as_bytes()), None, "{text:?}");
        }
    }

    #[test]
    fn checkpoint_status_rejects_unknown_documents() {
        assert!(checkpoint_status("nope").is_err());
        assert!(checkpoint_status("{}").is_err());
        let err = checkpoint_status("{\"kind\": \"mystery_format\"}").unwrap_err();
        assert!(err.contains("mystery_format"), "{err}");
    }

    /// What a [`ToyJob`]'s units and its absorbs share: the units started
    /// and not yet absorbed, and the most there ever were at once.
    #[derive(Debug, Default)]
    struct Probe {
        open: AtomicUsize,
        high_water: AtomicUsize,
        /// One past the highest unit started.
        furthest: AtomicUsize,
    }

    /// A miniature job: unit `i` contributes `i + 1`; state is the running
    /// sum plus the completion bitmap. Exercises the runner's scheduling,
    /// ordering and checkpoint loop without the heavyweight pipelines. Its
    /// variants sleep in every unit (so units overlap), panic or fail in
    /// one unit, or fail to write their checkpoint once enough units
    /// completed.
    struct ToyJob {
        done: Vec<bool>,
        sum: u64,
        threads: usize,
        per_pass: usize,
        per_checkpoint: usize,
        /// Units in the order they were absorbed.
        order: Vec<usize>,
        probe: Arc<Probe>,
        work: Duration,
        panic_at: Option<usize>,
        fail_at: Option<usize>,
        /// The checkpoint writer fails (after the header) from this many
        /// completed units on.
        fail_writes_from: Option<usize>,
    }

    impl ToyJob {
        fn new(units: usize, threads: usize) -> Self {
            ToyJob {
                done: vec![false; units],
                sum: 0,
                threads,
                per_pass: usize::MAX,
                per_checkpoint: threads.max(1),
                order: Vec::new(),
                probe: Arc::default(),
                work: Duration::ZERO,
                panic_at: None,
                fail_at: None,
                fail_writes_from: None,
            }
        }

        fn window(&self) -> usize {
            self.per_pass.clamp(1, self.threads.max(1))
        }
    }

    /// The read-only plan of a [`ToyJob`] run.
    struct ToyUnits {
        probe: Arc<Probe>,
        work: Duration,
        panic_at: Option<usize>,
        fail_at: Option<usize>,
    }

    impl Job for ToyJob {
        type Partial = u64;
        type Units = ToyUnits;
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
        fn units(&self) -> ToyUnits {
            ToyUnits {
                probe: Arc::clone(&self.probe),
                work: self.work,
                panic_at: self.panic_at,
                fail_at: self.fail_at,
            }
        }
        fn run_unit(units: &ToyUnits, unit: usize) -> Result<u64, String> {
            let open = units.probe.open.fetch_add(1, Ordering::SeqCst) + 1;
            units.probe.high_water.fetch_max(open, Ordering::SeqCst);
            units.probe.furthest.fetch_max(unit + 1, Ordering::SeqCst);
            assert!(units.panic_at != Some(unit), "toy unit {unit} panics");
            std::thread::sleep(units.work);
            if units.fail_at == Some(unit) {
                return Err(format!("toy unit {unit} fails"));
            }
            Ok(unit as u64 + 1)
        }
        fn absorb(&mut self, unit: usize, partial: u64) {
            assert!(!self.done[unit], "unit {unit} absorbed twice");
            self.done[unit] = true;
            self.sum += partial;
            self.order.push(unit);
            self.probe.open.fetch_sub(1, Ordering::SeqCst);
        }
        fn write_json(&self, out: &mut dyn fmt::Write) -> fmt::Result {
            write_checkpoint_header(out, self.kind(), &self.fingerprint())?;
            if self
                .fail_writes_from
                .is_some_and(|from| self.completed_count() >= from)
            {
                return Err(fmt::Error);
            }
            writeln!(out, "  \"sum\": {}\n}}", self.sum)
        }
    }

    /// Runs `run` on its own thread and returns its result, or the message
    /// of its panic; fails the test when it takes more than a minute, so a
    /// runner that hangs fails instead of stalling the suite.
    fn within_a_minute<T: Send + 'static>(
        what: &str,
        run: impl FnOnce() -> T + Send + 'static,
    ) -> Result<T, String> {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            let _ = tx.send(outcome.map_err(|panic| {
                panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(ToString::to_string))
                    .unwrap_or_default()
            }));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{what}: the job runner hung"));
        thread
            .join()
            .expect("the watchdog thread catches every panic");
        outcome
    }

    /// The I/O error of a run stopped by a failed save.
    fn save_error(error: JobError) -> std::io::Error {
        match error {
            JobError::Save(error) => error,
            JobError::Unit(message) => panic!("a unit failed: {message}"),
        }
    }

    /// The file names in `dir`, sorted.
    fn names_in(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// A fresh, empty directory under the temp dir for one test case.
    fn toy_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("symloc_job_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
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
        job.work = Duration::from_millis(1);
        assert_eq!(JobRunner::run_pending(&mut job, Some(5)), 5);
        assert_eq!(job.completed_count(), 5);
        assert_eq!(JobRunner::run_pending(&mut job, Some(0)), 0);
        assert_eq!(JobRunner::run_pending(&mut job, None), 5);
        assert!(JobRunner::is_complete(&job));
        assert_eq!(job.order, (0..10).collect::<Vec<_>>());
        assert!(job.probe.high_water.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn the_window_bounds_open_units_and_absorbs_come_in_unit_order() {
        for threads in 1..=4 {
            for per_pass in [1, 2, usize::MAX] {
                for checkpointed in [false, true] {
                    let mut job = ToyJob::new(12, threads);
                    job.per_pass = per_pass;
                    job.work = Duration::from_millis(2);
                    let window = job.window();
                    let mut reg = MetricsRegistry::new();
                    let ran = if checkpointed {
                        let dir = toy_dir(&format!("window_{threads}_{per_pass}"));
                        let ran = JobRunner::run_with_checkpoint_metered(
                            &mut job,
                            &dir.join("ck.json"),
                            None,
                            Some(&mut reg),
                            |_, _| {},
                        )
                        .unwrap();
                        std::fs::remove_dir_all(&dir).ok();
                        ran
                    } else {
                        JobRunner::run_pending_metered(&mut job, None, Some(&mut reg)).unwrap()
                    };
                    let at = format!("threads {threads} per_pass {per_pass} saves {checkpointed}");
                    assert_eq!(ran, 12, "{at}");
                    assert_eq!(job.order, (0..12).collect::<Vec<_>>(), "{at}");
                    let high_water = job.probe.high_water.load(Ordering::SeqCst);
                    assert!((1..=window).contains(&high_water), "{at}: {high_water}");
                    let units = reg.counter("job.units").unwrap();
                    let passes = reg.counter("job.passes").unwrap();
                    assert_eq!(units, 12, "{at}");
                    assert_eq!(units / passes, window as u64, "{at}");
                    assert_eq!(reg.histogram("job.unit_nanos").unwrap().count(), 12);
                }
            }
        }
    }

    #[test]
    fn a_panicking_unit_propagates_its_panic_instead_of_hanging() {
        for threads in 1..=4 {
            for panic_at in [0, 5, 11] {
                for checkpointed in [false, true] {
                    let at = format!("threads {threads} panic_at {panic_at} saves {checkpointed}");
                    let dir = toy_dir(&format!("panic_{threads}_{panic_at}"));
                    let path = dir.join("ck.json");
                    let outcome = within_a_minute(&at, move || {
                        let mut job = ToyJob::new(12, threads);
                        job.panic_at = Some(panic_at);
                        job.per_checkpoint = 2;
                        job.work = Duration::from_millis(1);
                        if checkpointed {
                            JobRunner::run_with_checkpoint(&mut job, &path, None, |_, _| {})
                                .unwrap()
                        } else {
                            JobRunner::run_pending(&mut job, None)
                        }
                    });
                    let message = outcome.expect_err(&at);
                    assert!(
                        message.contains(&format!("toy unit {panic_at} panics")),
                        "{at}: {message}"
                    );
                    std::fs::remove_dir_all(&dir).ok();
                }
            }
        }
    }

    #[test]
    fn a_failed_save_stops_claims_joins_the_workers_and_returns_the_error() {
        for threads in 1..=4 {
            // The checkpoint's directory disappears after the first save,
            // so the second one cannot be written.
            let at = format!("threads {threads}");
            let dir = toy_dir(&format!("lost_dir_{threads}"));
            let path = dir.join("ck.json");
            let (completed, error) = within_a_minute(&at, move || {
                let mut job = ToyJob::new(12, threads);
                job.per_checkpoint = 2;
                job.work = Duration::from_millis(1);
                let error = JobRunner::run_with_checkpoint(&mut job, &path, None, |_, _| {
                    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
                })
                .unwrap_err();
                (job.completed_count(), save_error(error))
            })
            .unwrap();
            assert_eq!(error.kind(), std::io::ErrorKind::NotFound, "{at}: {error}");
            assert_eq!(completed, 4, "{at}: absorbs stop at the failed save");
            assert!(!dir.exists(), "{at}");

            // A document that fails to write leaves the previous
            // checkpoint byte for byte and no temp file.
            let dir = toy_dir(&format!("bad_doc_{threads}"));
            let path = dir.join("ck.json");
            let (first, completed, error) = within_a_minute(&at, {
                let path = path.clone();
                move || {
                    let mut job = ToyJob::new(12, threads);
                    job.per_checkpoint = 2;
                    job.work = Duration::from_millis(1);
                    job.fail_writes_from = Some(4);
                    let mut first = None;
                    let error = JobRunner::run_with_checkpoint(&mut job, &path, None, |_, _| {
                        first.get_or_insert_with(|| std::fs::read(&path).unwrap());
                    })
                    .unwrap_err();
                    (first.unwrap(), job.completed_count(), save_error(error))
                }
            })
            .unwrap();
            assert!(
                error.to_string().contains("failed to format"),
                "{at}: {error}"
            );
            assert_eq!(completed, 4, "{at}");
            assert_eq!(std::fs::read(&path).unwrap(), first, "{at}");
            assert_eq!(names_in(&dir), ["ck.json", "ck.json.hb"], "{at}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_failed_unit_stops_claims_joins_the_workers_and_returns_the_error() {
        for threads in 1..=4 {
            for per_pass in [1, usize::MAX] {
                for fail_at in [0, 5, 11] {
                    let at = format!("threads {threads} per_pass {per_pass} fail_at {fail_at}");
                    let toy = move || {
                        let mut job = ToyJob::new(12, threads);
                        job.per_pass = per_pass;
                        job.per_checkpoint = 2;
                        job.work = Duration::from_millis(1);
                        job.fail_at = Some(fail_at);
                        job
                    };
                    let message = format!("toy unit {fail_at} fails");
                    let window = toy().window();
                    let stopped = |job: &ToyJob, error: JobError| {
                        assert!(
                            matches!(&error, JobError::Unit(m) if *m == message),
                            "{at}: {error}"
                        );
                        assert_eq!(
                            job.completed_count(),
                            fail_at,
                            "{at}: absorbs stop before it"
                        );
                        let furthest = job.probe.furthest.load(Ordering::SeqCst);
                        assert!(
                            furthest <= fail_at + window,
                            "{at}: unit {} started past the window",
                            furthest - 1
                        );
                    };

                    // Without a checkpoint: the run returns the error.
                    let (job, error) = within_a_minute(&at, move || {
                        let mut job = toy();
                        let error =
                            JobRunner::run_pending_metered(&mut job, None, None).unwrap_err();
                        (job, error)
                    })
                    .unwrap();
                    stopped(&job, error);

                    // With one: the last save stays byte for byte, and no
                    // temp file is left.
                    let dir = toy_dir(&format!("failed_unit_{threads}_{per_pass}_{fail_at}"));
                    let path = dir.join("ck.json");
                    let (job, error, saved) = within_a_minute(&at, {
                        let path = path.clone();
                        move || {
                            let mut job = toy();
                            let mut saved = None;
                            let error =
                                JobRunner::run_with_checkpoint(&mut job, &path, None, |_, _| {
                                    saved = Some(std::fs::read(&path).unwrap());
                                })
                                .unwrap_err();
                            (job, error, saved)
                        }
                    })
                    .unwrap();
                    stopped(&job, error);
                    match saved {
                        Some(saved) => {
                            assert_eq!(std::fs::read(&path).unwrap(), saved, "{at}");
                            assert_eq!(names_in(&dir), ["ck.json", "ck.json.hb"], "{at}");
                        }
                        None => assert!(names_in(&dir).is_empty(), "{at}"),
                    }
                    std::fs::remove_dir_all(&dir).ok();
                }
            }
        }
    }

    #[test]
    fn checkpoint_loop_saves_every_batch_and_reports_progress() {
        let path = std::env::temp_dir().join(format!(
            "symloc_job_toy_checkpoint_{}.json",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        for threads in 1..=4 {
            let mut job = ToyJob::new(6, threads);
            job.per_checkpoint = 2;
            let mut progress = Vec::new();
            let ran = JobRunner::run_with_checkpoint(&mut job, &path, None, |done, total| {
                progress.push((done, total));
            })
            .unwrap();
            assert_eq!(ran, 6);
            assert_eq!(progress, vec![(2, 6), (4, 6), (6, 6)], "threads {threads}");
            let saved = std::fs::read_to_string(&path).unwrap();
            assert_eq!(saved, job.to_json());
        }
        let mut job = ToyJob::new(6, 1);
        JobRunner::run_pending(&mut job, None);
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
            JobRunner::run_pending_metered(&mut metered, None, Some(&mut reg)).unwrap(),
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
        write_checkpoint_header(&mut doc, JobKind::ShardedSweep, "fp").unwrap();
        doc.push_str("  \"x\": 1\n}\n");
        std::fs::write(&path, &doc).unwrap();
        let read_any = |reader: &mut Reader<'_>| reader.skip().map(|()| 1u32);
        let (value, resumed) = resume_or_new_with(
            &path,
            JobKind::ShardedSweep,
            read_any,
            |_| true,
            |_| 1,
            || 0u32,
        )
        .unwrap();
        assert_eq!((value, resumed), (1, true));

        // A decoder that stops short of the document's end resumes
        // nothing: the policy reads the document whole.
        let err = resume_or_new_with(
            &path,
            JobKind::ShardedSweep,
            |_| Ok(1u32),
            |_| true,
            |_| 1,
            || 0u32,
        )
        .unwrap_err();
        assert!(
            err.contains("trailing content") && err.contains("untouched"),
            "{err}"
        );

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
            read_any,
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

    #[test]
    fn resume_or_new_with_judges_a_damaged_file_by_its_header() {
        let path =
            std::env::temp_dir().join(format!("symloc_job_damaged_{}.json", std::process::id()));
        let resume = |expected: JobKind| {
            resume_or_new_with(&path, expected, |_| Ok(1u32), |_| true, |_| 1, || 0u32)
        };
        let mut doc = String::new();
        write_checkpoint_header(&mut doc, JobKind::ServeState, "fp").unwrap();
        doc.push_str("  \"tenants\": [[1, 2], [3, 4]]\n}\n");
        let mut not_utf8 = doc.clone().into_bytes();
        let digit = doc.find('3').unwrap();
        not_utf8[digit] = 0xB1;
        let deep = doc.replace("[[1, 2]", &"[".repeat(100_000));
        for damaged in [
            doc.as_bytes()[..doc.len() / 2].to_vec(),
            doc.replacen('3', "x", 1).into_bytes(),
            not_utf8,
            deep.into_bytes(),
        ] {
            std::fs::write(&path, &damaged).unwrap();
            let err = resume(JobKind::ServeState).unwrap_err();
            assert!(err.contains("does not decode"), "{err}");
            assert!(err.contains("untouched"), "{err}");
            let err = resume(JobKind::ShardedSweep).unwrap_err();
            assert!(err.contains(JobKind::ServeState.describe()), "{err}");
            assert_eq!(std::fs::read(&path).unwrap(), damaged);
        }
        // A retired tag in a damaged file is the retired-kind error.
        std::fs::write(
            &path,
            "{\"kind\": \"symloc_trace_ingest_checkpoint\", \"ver",
        )
        .unwrap();
        assert!(resume(JobKind::FusedIngest)
            .unwrap_err()
            .contains("retired"));
        // Without a registered tag in its header a file is no checkpoint.
        for other in [
            "not json",
            "[[[[",
            "{\"kind\": \"mystery\", ",
            "{\"version\": 1, \"kind",
        ] {
            std::fs::write(&path, other).unwrap();
            assert_eq!(resume(JobKind::ServeState).unwrap(), (0, false), "{other}");
        }
        std::fs::remove_file(&path).ok();
    }
}
