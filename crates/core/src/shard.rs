//! Sharded, checkpointable execution of exhaustive and sampled sweeps.
//!
//! An exhaustive `m = 12` sweep under any spec but Figure 1's walks
//! 479 001 600 permutations — minutes of work that an interrupted run
//! (preempted CI job, killed laptop session) should not redo, so every
//! shard is saved as it completes. (The Figure-1 spec sums lexicographic
//! blocks instead and finishes a shard in microseconds; it shards the same
//! way but saves once per run, see [`ShardedSweep::run_with_checkpoint`].)
//! [`ShardedSweep`] splits the rank space `0 .. m!` into contiguous
//! shards; [`SampledSweep`] shards the *level space* of a weighted sampled
//! sweep. Both are [`crate::job::Job`] implementations: the whole
//! execution lifecycle — parallel unit scheduling, per-batch
//! atomic checkpoints, resume — lives in [`crate::job::JobRunner`], and
//! this module only contributes the unit plans, the per-unit execution and
//! the checkpoint bodies (hand-rolled JSON, as everywhere in this offline
//! workspace; parsed back by [`crate::jsonio`]).
//!
//! Because level aggregates are exact integer sums and rank shards are
//! disjoint, resuming from a checkpoint reproduces the uninterrupted
//! result *byte-identically* — a property the tests pin by interrupting a
//! sweep mid-way and comparing.
//!
//! ```
//! use symloc_core::engine::SweepSpec;
//! use symloc_core::shard::ShardedSweep;
//!
//! let mut sweep = ShardedSweep::new(SweepSpec::figure1(6), 4, 2);
//! sweep.run_pending(Some(2));               // ... process dies here ...
//! let json = sweep.to_json();               // (checkpoint on disk)
//! let mut resumed = ShardedSweep::from_json(&json, 2).unwrap();
//! resumed.run_pending(None);
//! let levels = resumed.merged_levels().expect("complete");
//! assert_eq!(levels.iter().map(|l| l.count).sum::<u64>(), 720);
//! ```

use crate::engine::{SweepEngine, SweepLevel, SweepSpec};
use crate::job::{self, Job, JobError, JobKind, JobRunner};
use crate::jsonio::{self, Reader, StagingWriter, Token};
use crate::model::CacheModel;
use std::fmt::{self, Write as _};
use std::path::Path;
use symloc_perm::rank::{factorial, RankRange};
use symloc_perm::statistics::Statistic;

/// Format tag embedded in every exhaustive-sweep checkpoint document.
#[cfg(test)]
const CHECKPOINT_KIND: &str = JobKind::ShardedSweep.kind_str();
/// Format tag embedded in every sampled-sweep checkpoint document.
#[cfg(test)]
const SAMPLED_CHECKPOINT_KIND: &str = JobKind::SampledSweep.kind_str();

/// A sharded exhaustive sweep with resumable progress.
///
/// See the [module docs](self) for the execution model. The struct owns
/// the spec, the shard plan (derived deterministically from the shard
/// count) and the completed shards' partial aggregates; the lifecycle is
/// [`crate::job::JobRunner`]'s.
#[derive(Debug, Clone)]
pub struct ShardedSweep {
    spec: SweepSpec,
    threads: usize,
    shards: Vec<RankRange>,
    partials: Vec<Option<Vec<SweepLevel>>>,
}

impl ShardedSweep {
    /// Plans a sweep of all of `S_m` split into `shard_count` contiguous
    /// rank-range shards.
    ///
    /// # Panics
    ///
    /// Panics if `spec.m > 12` or `shard_count == 0`.
    #[must_use]
    pub fn new(spec: SweepSpec, shard_count: usize, threads: usize) -> Self {
        assert!(shard_count > 0, "at least one shard is required");
        assert!(
            spec.m <= 12,
            "sharded sweep: degree {} too large for a factorial sweep",
            spec.m
        );
        let total = factorial(spec.m).expect("m <= 12");
        let count = shard_count.min(usize::try_from(total).unwrap_or(usize::MAX).max(1));
        let mut shards = Vec::with_capacity(count);
        let base = total / count as u128;
        let extra = total % count as u128;
        let mut start = 0u128;
        for i in 0..count as u128 {
            let size = base + u128::from(i < extra);
            shards.push(RankRange {
                start,
                end: start + size,
            });
            start += size;
        }
        let partials = vec![None; shards.len()];
        ShardedSweep {
            spec,
            threads: threads.max(1),
            shards,
            partials,
        }
    }

    /// The sweep's spec.
    #[must_use]
    pub fn spec(&self) -> SweepSpec {
        self.spec
    }

    /// Number of planned shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of completed shards.
    #[must_use]
    pub fn completed_count(&self) -> usize {
        self.partials.iter().filter(|p| p.is_some()).count()
    }

    /// True when every shard has been processed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.partials.iter().all(Option::is_some)
    }

    /// Runs up to `limit` pending shards (all of them when `None`),
    /// returning how many were processed. Stopping early — or being killed
    /// between shards — loses at most the shard in flight.
    pub fn run_pending(&mut self, limit: Option<usize>) -> usize {
        JobRunner::run_pending(self, limit)
    }

    /// [`Self::run_pending`] with optional instrumentation — identical
    /// execution and results; the registry only observes.
    ///
    /// # Errors
    ///
    /// None in practice: sweep units do not fail ([`JobError`]).
    pub fn run_pending_metered(
        &mut self,
        limit: Option<usize>,
        metrics: Option<&mut crate::obs::MetricsRegistry>,
    ) -> Result<usize, JobError> {
        JobRunner::run_pending_metered(self, limit, metrics)
    }

    /// Runs pending shards — all of them, or up to `limit` — saving the
    /// checkpoint to `path` after every [`Job::units_per_checkpoint`]
    /// shards and after the run's last one, so a kill mid-invocation loses
    /// at most the shards since the last save (and a kill mid-save leaves
    /// the previous checkpoint intact: saves are atomic). A spec that
    /// [sums Figure-1 blocks](SweepSpec::sums_figure1_blocks) saves once,
    /// after the run's last shard; every other spec saves after each
    /// shard. `on_shard(completed, total)` fires after every save, for
    /// progress reporting. Returns how many shards were processed; the
    /// checkpoint is (re)written even when nothing was pending, so a
    /// fresh plan always lands on disk.
    ///
    /// The whole loop is [`JobRunner::run_with_checkpoint`] — the single
    /// checkpointed-execution path every caller (CLI, experiment driver)
    /// goes through.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Save`] if a checkpoint cannot be written.
    pub fn run_with_checkpoint(
        &mut self,
        path: &Path,
        limit: Option<usize>,
        on_shard: impl FnMut(usize, usize),
    ) -> Result<usize, JobError> {
        JobRunner::run_with_checkpoint(self, path, limit, on_shard)
    }

    /// [`ShardedSweep::run_with_checkpoint`] with the runner's metrics
    /// registry attached — identical execution, checkpoint bytes and
    /// results; the registry only observes.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Save`] if a checkpoint cannot be written.
    pub fn run_with_checkpoint_metered(
        &mut self,
        path: &Path,
        limit: Option<usize>,
        metrics: Option<&mut crate::obs::MetricsRegistry>,
        on_shard: impl FnMut(usize, usize),
    ) -> Result<usize, JobError> {
        JobRunner::run_with_checkpoint_metered(self, path, limit, metrics, on_shard)
    }

    /// The merged per-level aggregates, or `None` while shards are
    /// pending.
    #[must_use]
    pub fn merged_levels(&self) -> Option<Vec<SweepLevel>> {
        if !self.is_complete() {
            return None;
        }
        let mut merged: Vec<SweepLevel> = (0..self.spec.statistic.level_count(self.spec.m))
            .map(|l| SweepLevel::empty(l, self.spec.m))
            .collect();
        for partial in self.partials.iter().flatten() {
            for (acc, level) in merged.iter_mut().zip(partial) {
                acc.merge(level);
            }
        }
        Some(merged)
    }

    /// Serializes the sweep — spec, shard plan, completed partials — as a
    /// JSON checkpoint document.
    #[must_use]
    pub fn to_json(&self) -> String {
        Job::to_json(self)
    }

    /// Rebuilds a sweep from a checkpoint document, read straight from its
    /// text; its keys may come in any order.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or structural problem
    /// (wrong kind or version — cross-kind documents name both kinds —
    /// unknown statistic/model, malformed shards), or of a completed shard
    /// no sweep can produce: level counts that do not sum to the shard's
    /// rank count, or hit sums above `m` (squared sums above `m²`) per
    /// permutation.
    pub fn from_json(text: &str, threads: usize) -> Result<ShardedSweep, String> {
        jsonio::read_document(text, |reader| Self::read(reader, threads))
    }

    /// Reads and builds a sweep from the checkpoint document at `reader`.
    fn read(reader: &mut Reader<'_>, threads: usize) -> Result<ShardedSweep, String> {
        let mut head = SpecFields::default();
        let mut declared = None;
        let mut entries: Option<Option<Vec<ShardFields>>> = None;
        job::read_checkpoint_fields(reader, JobKind::ShardedSweep, |reader, key| match key {
            "shard_count" => reader.first(&mut declared, Reader::usize),
            "shards" => reader.first(&mut entries, |reader| {
                lenient_list(reader, ShardFields::read)
            }),
            _ => head.read(reader, key),
        })?;
        let m = head.m()?;
        if m > 12 {
            return Err(format!("degree {m} too large for a factorial sweep"));
        }
        let spec = head.spec(m)?;
        let statistic = spec.statistic;
        let shard_entries = entries.flatten().ok_or("missing shards")?;
        let declared = declared.flatten().ok_or("missing shard_count")?;
        if declared != shard_entries.len() || declared == 0 {
            return Err(format!(
                "shard_count {declared} does not match {} shard entries",
                shard_entries.len()
            ));
        }
        let mut sweep = ShardedSweep::new(spec, declared, threads);
        if sweep.shards.len() != shard_entries.len() {
            return Err("shard plan mismatch (degree too small for shard count?)".to_string());
        }
        for (i, entry) in shard_entries.into_iter().enumerate() {
            let start = entry.start.flatten().ok_or("shard missing start")?;
            let end = entry.end.flatten().ok_or("shard missing end")?;
            if sweep.shards[i] != (RankRange { start, end }) {
                return Err(format!(
                    "shard {i} bounds {start}..{end} do not match the deterministic plan"
                ));
            }
            if entry.done != Some(Some(true)) {
                continue;
            }
            let level_entries = entry
                .levels
                .flatten()
                .ok_or("completed shard missing levels")?;
            if level_entries.len() != statistic.level_count(m) {
                return Err(format!(
                    "shard {i} has {} levels, expected {}",
                    level_entries.len(),
                    statistic.level_count(m)
                ));
            }
            let mut levels = Vec::with_capacity(level_entries.len());
            for (expected_level, level_entry) in level_entries.into_iter().enumerate() {
                let level = level_entry
                    .level
                    .flatten()
                    .ok_or("level entry missing level")?;
                if level != expected_level {
                    return Err(format!("level entries out of order at {expected_level}"));
                }
                let count = level_entry
                    .count
                    .flatten()
                    .ok_or("level entry missing count")?;
                let (hit_sums, hit_sq_sums) = level_entry.sums(m)?;
                let level = SweepLevel {
                    level,
                    count,
                    hit_sums,
                    hit_sq_sums,
                };
                check_level_sums(&level, m).map_err(|e| format!("shard {i}: {e}"))?;
                levels.push(level);
            }
            let aggregated: u128 = levels.iter().map(|l| u128::from(l.count)).sum();
            if aggregated != end - start {
                return Err(format!(
                    "shard {i} aggregates {aggregated} permutations, but ranks \
                     {start}..{end} hold {}",
                    end - start
                ));
            }
            sweep.partials[i] = Some(levels);
        }
        Ok(sweep)
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename) —
    /// the shared [`JobRunner::save`] path.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        JobRunner::save(self, path)
    }

    /// Loads a checkpoint from `path`, or plans a fresh sweep when the
    /// file does not exist or does not belong to `spec`/`shard_count`
    /// (a stale same-kind checkpoint for a different sweep is left
    /// untouched on disk and simply ignored). Returns the sweep and
    /// whether progress was actually resumed.
    ///
    /// # Errors
    ///
    /// Returns a loud error when the file holds a checkpoint of a
    /// *different* job kind (see [`crate::job::resume_or_new_with`]) —
    /// resuming a sampled-sweep or trace-ingest checkpoint as an
    /// exhaustive sweep must never silently discard it.
    pub fn resume_or_new(
        spec: SweepSpec,
        shard_count: usize,
        threads: usize,
        path: &Path,
    ) -> Result<(ShardedSweep, bool), String> {
        job::resume_or_new_with(
            path,
            JobKind::ShardedSweep,
            |reader| ShardedSweep::read(reader, threads),
            |sweep| sweep.spec == spec && sweep.shard_count() == shard_count,
            ShardedSweep::completed_count,
            || ShardedSweep::new(spec, shard_count, threads),
        )
    }
}

impl Job for ShardedSweep {
    type Partial = Vec<SweepLevel>;
    type Units = ShardUnits;

    fn kind(&self) -> JobKind {
        JobKind::ShardedSweep
    }

    fn fingerprint(&self) -> String {
        self.spec.fingerprint()
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn unit_count(&self) -> usize {
        self.shards.len()
    }

    fn completed_count(&self) -> usize {
        ShardedSweep::completed_count(self)
    }

    fn pending_units(&self) -> Vec<usize> {
        self.partials
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    /// One shard at a time: each unit is *internally* parallel (the
    /// engine splits its rank range across the workers), so the runner
    /// must not also fan units out.
    fn units_per_pass(&self, _threads: usize) -> usize {
        1
    }

    /// One off the Figure-1 blocks: a shard of an `m = 12` walk is minutes
    /// of work, the natural loss bound per kill. A spec that [sums
    /// Figure-1 blocks](SweepSpec::sums_figure1_blocks) returns the unit
    /// count, so the runner saves once, after the run's last shard (or at
    /// its `limit`): such a shard takes well under a millisecond, and one
    /// save of the plan more than a whole run of them.
    fn units_per_checkpoint(&self, _threads: usize) -> usize {
        if self.spec.sums_figure1_blocks() {
            self.shards.len()
        } else {
            1
        }
    }

    fn units(&self) -> ShardUnits {
        ShardUnits {
            engine: SweepEngine::with_threads(self.spec.m, self.threads),
            spec: self.spec,
            shards: self.shards.clone(),
        }
    }

    fn run_unit(units: &ShardUnits, unit: usize) -> Result<Vec<SweepLevel>, String> {
        Ok(units.engine.sweep_rank_range(
            units.spec.statistic,
            units.spec.model,
            units.shards[unit],
        ))
    }

    fn absorb(&mut self, unit: usize, partial: Vec<SweepLevel>) {
        self.partials[unit] = Some(partial);
    }

    fn write_json(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        // Staged, integers from the digit table: a done shard of `S_12`
        // holds 67 levels of 24 integers each.
        let mut w = StagingWriter::new(out);
        job::write_checkpoint_header(&mut w, JobKind::ShardedSweep, &self.spec.fingerprint())?;
        writeln!(w, "  \"m\": {},", self.spec.m)?;
        writeln!(w, "  \"statistic\": \"{}\",", self.spec.statistic)?;
        writeln!(w, "  \"model\": \"{}\",", self.spec.model)?;
        writeln!(w, "  \"shard_count\": {},", self.shards.len())?;
        w.str("  \"shards\": [\n");
        for (i, (shard, partial)) in self.shards.iter().zip(&self.partials).enumerate() {
            write!(
                w,
                "    {{\"start\": {}, \"end\": {}, \"done\": ",
                shard.start, shard.end
            )?;
            match partial {
                None => w.str("false}"),
                Some(levels) => {
                    w.str("true, \"levels\": [\n");
                    for (j, level) in levels.iter().enumerate() {
                        w.str("      {\"level\": ");
                        w.u64(level.level as u64);
                        w.str(", ");
                        write_count_and_sums(&mut w, level);
                        w.str(if j + 1 < levels.len() { "},\n" } else { "}\n" });
                    }
                    w.str("    ]}");
                }
            }
            w.str(if i + 1 < self.shards.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        w.str("  ]\n}\n");
        w.finish()
    }
}

/// The read-only unit plan of a [`ShardedSweep`] run: the spec, the engine
/// and the shards' rank ranges.
#[derive(Debug)]
pub struct ShardUnits {
    engine: SweepEngine,
    spec: SweepSpec,
    shards: Vec<RankRange>,
}

/// A per-level-sharded, checkpointable *sampled* sweep — the stratified
/// counterpart of [`ShardedSweep`].
///
/// A weighted sampled sweep ([`SweepEngine::sampled_levels_weighted`])
/// spends its budget level by level, and each level's aggregate is
/// deterministic in `(spec, level, draws, seed)` alone — levels are the
/// natural shard. [`SampledSweep`] materializes the per-level draw plan
/// ([`crate::engine::weighted_sample_counts_for`]); the runner executes
/// pending levels on its workers and checkpoints completed levels as
/// hand-rolled JSON: a killed sampled sweep resumes to aggregates
/// *byte-identical* to the uninterrupted run (the same guarantee, by the
/// same test strategy, as the exhaustive sharded sweep).
#[derive(Debug, Clone)]
pub struct SampledSweep {
    spec: SweepSpec,
    budget: usize,
    min_per_level: usize,
    seed: u64,
    threads: usize,
    draws: Vec<usize>,
    partials: Vec<Option<SweepLevel>>,
}

impl SampledSweep {
    /// Plans a weighted sampled sweep of `spec` with a global `budget`
    /// distributed by the statistic's exact level weights.
    ///
    /// # Panics
    ///
    /// Panics if `spec.m > 34` (level weights overflow `u128` beyond
    /// that).
    #[must_use]
    pub fn new(
        spec: SweepSpec,
        budget: usize,
        min_per_level: usize,
        seed: u64,
        threads: usize,
    ) -> Self {
        let draws = crate::engine::weighted_sample_counts_for(
            spec.statistic,
            spec.m,
            budget,
            min_per_level,
        );
        let partials = vec![None; draws.len()];
        SampledSweep {
            spec,
            budget,
            min_per_level,
            seed,
            threads: threads.max(1),
            draws,
            partials,
        }
    }

    /// The sweep's spec.
    #[must_use]
    pub fn spec(&self) -> SweepSpec {
        self.spec
    }

    /// The global sampling budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The per-level draw floor.
    #[must_use]
    pub fn min_per_level(&self) -> usize {
        self.min_per_level
    }

    /// The sampling seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of level shards (one per statistic level).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.partials.len()
    }

    /// Number of completed levels.
    #[must_use]
    pub fn completed_count(&self) -> usize {
        self.partials.iter().filter(|p| p.is_some()).count()
    }

    /// True when every level has been sampled.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.partials.iter().all(Option::is_some)
    }

    /// Runs up to `limit` pending levels (all of them when `None`), one
    /// level per worker, returning how many were processed.
    pub fn run_pending(&mut self, limit: Option<usize>) -> usize {
        JobRunner::run_pending(self, limit)
    }

    /// [`Self::run_pending`] with optional instrumentation — identical
    /// execution and results; the registry only observes.
    ///
    /// # Errors
    ///
    /// None in practice: sweep units do not fail ([`JobError`]).
    pub fn run_pending_metered(
        &mut self,
        limit: Option<usize>,
        metrics: Option<&mut crate::obs::MetricsRegistry>,
    ) -> Result<usize, JobError> {
        JobRunner::run_pending_metered(self, limit, metrics)
    }

    /// Runs pending levels — all of them, or up to `limit` — saving the
    /// checkpoint to `path` after each batch of (at most) the configured
    /// thread count, so a kill loses at most one batch. `on_batch`
    /// receives `(completed, total)` after every save. The checkpoint is
    /// (re)written even when nothing was pending.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Save`] if a checkpoint cannot be written.
    pub fn run_with_checkpoint(
        &mut self,
        path: &Path,
        limit: Option<usize>,
        on_batch: impl FnMut(usize, usize),
    ) -> Result<usize, JobError> {
        JobRunner::run_with_checkpoint(self, path, limit, on_batch)
    }

    /// [`SampledSweep::run_with_checkpoint`] with the runner's metrics
    /// registry attached — identical execution, checkpoint bytes and
    /// results; the registry only observes.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Save`] if a checkpoint cannot be written.
    pub fn run_with_checkpoint_metered(
        &mut self,
        path: &Path,
        limit: Option<usize>,
        metrics: Option<&mut crate::obs::MetricsRegistry>,
        on_batch: impl FnMut(usize, usize),
    ) -> Result<usize, JobError> {
        JobRunner::run_with_checkpoint_metered(self, path, limit, metrics, on_batch)
    }

    /// The sampled per-level aggregates, or `None` while levels are
    /// pending. Identical to
    /// [`SweepEngine::sampled_levels_weighted`] with the same parameters.
    #[must_use]
    pub fn merged_levels(&self) -> Option<Vec<SweepLevel>> {
        if !self.is_complete() {
            return None;
        }
        Some(self.partials.iter().flatten().cloned().collect())
    }

    /// Serializes the sweep — spec, sampling plan, completed levels — as a
    /// JSON checkpoint document.
    #[must_use]
    pub fn to_json(&self) -> String {
        Job::to_json(self)
    }

    /// Rebuilds a sampled sweep from a checkpoint document, read straight
    /// from its text; its keys may come in any order.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or structural problem
    /// (wrong kind or version — cross-kind documents name both kinds —
    /// unknown statistic/model, a draw plan that does not match the
    /// deterministic one, malformed levels), or of a completed level no
    /// sampling can produce: a count other than its planned draws, or hit
    /// sums above `m` (squared sums above `m²`) per draw.
    pub fn from_json(text: &str, threads: usize) -> Result<SampledSweep, String> {
        jsonio::read_document(text, |reader| Self::read(reader, threads))
    }

    /// Reads and builds a sampled sweep from the checkpoint document at
    /// `reader`.
    fn read(reader: &mut Reader<'_>, threads: usize) -> Result<SampledSweep, String> {
        let mut head = SpecFields::default();
        let (mut budget, mut min_per_level, mut seed, mut declared) = (None, None, None, None);
        let mut entries: Option<Option<Vec<LevelFields>>> = None;
        job::read_checkpoint_fields(reader, JobKind::SampledSweep, |reader, key| match key {
            "budget" => reader.first(&mut budget, Reader::usize),
            "min_per_level" => reader.first(&mut min_per_level, Reader::usize),
            "seed" => reader.first(&mut seed, Reader::u64),
            "level_count" => reader.first(&mut declared, Reader::usize),
            "levels" => reader.first(&mut entries, |reader| {
                lenient_list(reader, LevelFields::read)
            }),
            _ => head.read(reader, key),
        })?;
        let m = head.m()?;
        let spec = head.spec(m)?;
        let budget = budget.flatten().ok_or("missing budget")?;
        let min_per_level = min_per_level.flatten().ok_or("missing min_per_level")?;
        let seed = seed.flatten().ok_or("missing seed")?;
        if m > 34 {
            return Err(format!("degree {m} exceeds the supported maximum (34)"));
        }
        let mut sweep = SampledSweep::new(spec, budget, min_per_level, seed, threads);
        let declared = declared.flatten().ok_or("missing level_count")?;
        let entries = entries.flatten().ok_or("missing levels")?;
        if declared != entries.len() || declared != sweep.partials.len() {
            return Err(format!(
                "level_count {declared} does not match {} entries / {} planned levels",
                entries.len(),
                sweep.partials.len()
            ));
        }
        for (i, entry) in entries.into_iter().enumerate() {
            let level = entry.level.flatten().ok_or("level entry missing level")?;
            if level != i {
                return Err(format!("level entries out of order at {i}"));
            }
            let draws = entry.draws.flatten().ok_or("level entry missing draws")?;
            if draws != sweep.draws[i] {
                return Err(format!(
                    "level {i} plans {draws} draws, expected {} from the deterministic plan",
                    sweep.draws[i]
                ));
            }
            if entry.done != Some(Some(true)) {
                continue;
            }
            let count = entry.count.flatten().ok_or("level entry missing count")?;
            let (hit_sums, hit_sq_sums) = entry.sums(m)?;
            if count != draws as u64 {
                return Err(format!(
                    "level {i} aggregates {count} draws, but its plan has {draws}"
                ));
            }
            let level = SweepLevel {
                level,
                count,
                hit_sums,
                hit_sq_sums,
            };
            check_level_sums(&level, m)?;
            sweep.partials[i] = Some(level);
        }
        Ok(sweep)
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename) —
    /// the shared [`JobRunner::save`] path.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        JobRunner::save(self, path)
    }

    /// Loads a checkpoint from `path`, or plans a fresh sampled sweep when
    /// the file does not exist or does not belong to the same
    /// `(spec, budget, min_per_level, seed)`. Returns the sweep and
    /// whether progress was actually resumed.
    ///
    /// # Errors
    ///
    /// Returns a loud error when the file holds a checkpoint of a
    /// *different* job kind (see [`crate::job::resume_or_new_with`]).
    pub fn resume_or_new(
        spec: SweepSpec,
        budget: usize,
        min_per_level: usize,
        seed: u64,
        threads: usize,
        path: &Path,
    ) -> Result<(SampledSweep, bool), String> {
        job::resume_or_new_with(
            path,
            JobKind::SampledSweep,
            |reader| SampledSweep::read(reader, threads),
            |sweep| {
                sweep.spec == spec
                    && sweep.budget == budget
                    && sweep.min_per_level == min_per_level
                    && sweep.seed == seed
            },
            SampledSweep::completed_count,
            || SampledSweep::new(spec, budget, min_per_level, seed, threads),
        )
    }
}

impl Job for SampledSweep {
    type Partial = SweepLevel;
    type Units = LevelUnits;

    fn kind(&self) -> JobKind {
        JobKind::SampledSweep
    }

    fn fingerprint(&self) -> String {
        self.spec.fingerprint()
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn unit_count(&self) -> usize {
        self.partials.len()
    }

    fn completed_count(&self) -> usize {
        SampledSweep::completed_count(self)
    }

    fn pending_units(&self) -> Vec<usize> {
        self.partials
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    fn units(&self) -> LevelUnits {
        LevelUnits {
            engine: SweepEngine::with_threads(self.spec.m, self.threads),
            spec: self.spec,
            draws: self.draws.clone(),
            seed: self.seed,
        }
    }

    fn run_unit(units: &LevelUnits, unit: usize) -> Result<SweepLevel, String> {
        Ok(units.engine.sampled_level(
            units.spec.statistic,
            units.spec.model,
            unit,
            units.draws[unit],
            units.seed,
        ))
    }

    fn absorb(&mut self, unit: usize, partial: SweepLevel) {
        self.partials[unit] = Some(partial);
    }

    fn write_json(&self, out: &mut dyn fmt::Write) -> fmt::Result {
        let mut w = StagingWriter::new(out);
        job::write_checkpoint_header(&mut w, JobKind::SampledSweep, &self.spec.fingerprint())?;
        writeln!(w, "  \"m\": {},", self.spec.m)?;
        writeln!(w, "  \"statistic\": \"{}\",", self.spec.statistic)?;
        writeln!(w, "  \"model\": \"{}\",", self.spec.model)?;
        writeln!(w, "  \"budget\": {},", self.budget)?;
        writeln!(w, "  \"min_per_level\": {},", self.min_per_level)?;
        writeln!(w, "  \"seed\": {},", self.seed)?;
        writeln!(w, "  \"level_count\": {},", self.partials.len())?;
        w.str("  \"levels\": [\n");
        for (i, (&draws, partial)) in self.draws.iter().zip(&self.partials).enumerate() {
            w.str("    {\"level\": ");
            w.u64(i as u64);
            w.str(", \"draws\": ");
            w.u64(draws as u64);
            match partial {
                None => w.str(", \"done\": false}"),
                Some(level) => {
                    w.str(", \"done\": true, ");
                    write_count_and_sums(&mut w, level);
                    w.str("}");
                }
            }
            w.str(if i + 1 < self.partials.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        w.str("  ]\n}\n");
        w.finish()
    }
}

/// The read-only unit plan of a [`SampledSweep`] run: the spec, the
/// engine, the per-level draw plan and the seed.
#[derive(Debug)]
pub struct LevelUnits {
    engine: SweepEngine,
    spec: SweepSpec,
    draws: Vec<usize>,
    seed: u64,
}

/// Rejects level sums that no `count` re-traversals of `S_m` can produce:
/// the first pass is all cold misses, so each permutation scores at most
/// `m` hits at any cache size, under every model. Decoded partials that
/// pass this check (and whose counts are exact) merge without overflow.
fn check_level_sums(level: &SweepLevel, m: usize) -> Result<(), String> {
    let most = m as u128 * u128::from(level.count);
    match level
        .hit_sums
        .iter()
        .zip(&level.hit_sq_sums)
        .position(|(&h, &sq)| u128::from(h) > most || u128::from(sq) > m as u128 * most)
    {
        Some(c) => Err(format!(
            "level {} sums at cache size {} exceed what {} permutations of degree {m} can score",
            level.level,
            c + 1,
            level.count
        )),
        None => Ok(()),
    }
}

/// Writes `"count": C, "hit_sums": [...], "hit_sq_sums": [...]` of one
/// level aggregate, as both sweep checkpoints hold it.
fn write_count_and_sums(w: &mut StagingWriter<'_>, level: &SweepLevel) {
    w.str("\"count\": ");
    w.u64(level.count);
    w.str(", \"hit_sums\": ");
    write_u64_array(w, &level.hit_sums);
    w.str(", \"hit_sq_sums\": ");
    write_u64_array(w, &level.hit_sq_sums);
}

/// Writes `[a, b, ...]`, the integers through the digit table.
fn write_u64_array(w: &mut StagingWriter<'_>, values: &[u64]) {
    w.str("[");
    for (i, &value) in values.iter().enumerate() {
        if i > 0 {
            w.str(", ");
        }
        w.u64(value);
    }
    w.str("]");
}

/// The spec fields both sweep checkpoints open with, as a [`Reader`] meets
/// them; the first of duplicate keys wins.
#[derive(Debug, Default)]
struct SpecFields {
    m: Option<Option<usize>>,
    statistic: Option<Option<Statistic>>,
    model: Option<Option<CacheModel>>,
}

impl SpecFields {
    /// Reads the value of `key` when it names a spec field, and skips it
    /// otherwise.
    fn read(&mut self, reader: &mut Reader<'_>, key: &str) -> Result<(), String> {
        match key {
            "m" => reader.first(&mut self.m, Reader::usize),
            "statistic" => reader.first(&mut self.statistic, |reader| {
                Ok(reader.str()?.as_deref().and_then(Statistic::parse))
            }),
            "model" => reader.first(&mut self.model, |reader| {
                Ok(reader.str()?.as_deref().and_then(CacheModel::parse))
            }),
            _ => reader.skip(),
        }
    }

    fn m(&self) -> Result<usize, String> {
        self.m.flatten().ok_or_else(|| "missing m".to_string())
    }

    fn spec(&self, m: usize) -> Result<SweepSpec, String> {
        Ok(SweepSpec {
            m,
            statistic: self
                .statistic
                .flatten()
                .ok_or("missing or unknown statistic")?,
            model: self.model.flatten().ok_or("missing or unknown model")?,
        })
    }
}

/// One shard entry of an exhaustive-sweep checkpoint as a [`Reader`] meets
/// it. Its levels matter only when the entry says it is done, so the
/// entry is read leniently ([`lenient_object`]) and checked when built.
#[derive(Debug, Default)]
struct ShardFields {
    start: Option<Option<u128>>,
    end: Option<Option<u128>>,
    done: Option<Option<bool>>,
    levels: Option<Option<Vec<LevelFields>>>,
}

impl ShardFields {
    fn read(reader: &mut Reader<'_>) -> Result<Self, String> {
        let mut entry = ShardFields::default();
        lenient_object(reader, |reader, key| match key {
            "start" => reader.first(&mut entry.start, Reader::u128),
            "end" => reader.first(&mut entry.end, Reader::u128),
            "done" => reader.first(&mut entry.done, Reader::bool),
            "levels" => reader.first(&mut entry.levels, |reader| {
                lenient_list(reader, LevelFields::read)
            }),
            _ => reader.skip(),
        })?;
        Ok(entry)
    }
}

/// One level entry of a sweep checkpoint as a [`Reader`] meets it, read
/// leniently ([`lenient_object`]) and checked when built.
#[derive(Debug, Default)]
struct LevelFields {
    level: Option<Option<usize>>,
    draws: Option<Option<usize>>,
    done: Option<Option<bool>>,
    count: Option<Option<u64>>,
    hit_sums: Option<Option<Vec<u64>>>,
    hit_sq_sums: Option<Option<Vec<u64>>>,
}

impl LevelFields {
    fn read(reader: &mut Reader<'_>) -> Result<Self, String> {
        let mut entry = LevelFields::default();
        lenient_object(reader, |reader, key| match key {
            "level" => reader.first(&mut entry.level, Reader::usize),
            "draws" => reader.first(&mut entry.draws, Reader::usize),
            "done" => reader.first(&mut entry.done, Reader::bool),
            "count" => reader.first(&mut entry.count, Reader::u64),
            "hit_sums" => reader.first(&mut entry.hit_sums, read_u64_list),
            "hit_sq_sums" => reader.first(&mut entry.hit_sq_sums, read_u64_list),
            _ => reader.skip(),
        })?;
        Ok(entry)
    }

    /// The level's hit sums and squared hit sums, `m` of each.
    fn sums(self, m: usize) -> Result<(Vec<u64>, Vec<u64>), String> {
        let sums = |list: Option<Option<Vec<u64>>>| list.flatten().filter(|sums| sums.len() == m);
        Ok((
            sums(self.hit_sums).ok_or("level entry missing hit_sums")?,
            sums(self.hit_sq_sums).ok_or("level entry missing hit_sq_sums")?,
        ))
    }
}

/// Walks the object at the cursor like [`Reader::object`], but takes a
/// value of any other type as an object without members: what a lookup in
/// a parsed document finds in it.
fn lenient_object<'a>(
    reader: &mut Reader<'a>,
    field: impl FnMut(&mut Reader<'a>, &str) -> Result<(), String>,
) -> Result<(), String> {
    if reader.peek()? == Token::Object {
        reader.object(field)
    } else {
        reader.skip()
    }
}

/// The items of the array at the cursor, each read by `item`; `None` for
/// a value of any other type.
fn lenient_list<'a, T>(
    reader: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, String>,
) -> Result<Option<Vec<T>>, String> {
    if reader.peek()? != Token::Array {
        reader.skip()?;
        return Ok(None);
    }
    let mut items = Vec::new();
    reader.array(|reader| {
        items.push(item(reader)?);
        Ok(())
    })?;
    Ok(Some(items))
}

/// The array at the cursor when every item is a `u64`, `None` otherwise.
fn read_u64_list(reader: &mut Reader<'_>) -> Result<Option<Vec<u64>>, String> {
    Ok(lenient_list(reader, Reader::u64)?.and_then(|items| items.into_iter().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use symloc_cache::setassoc::ReplacementPolicy;

    fn figure1_sweep(m: usize, shards: usize) -> ShardedSweep {
        ShardedSweep::new(SweepSpec::figure1(m), shards, 2)
    }

    #[test]
    fn shard_plan_partitions_the_rank_space() {
        let sweep = figure1_sweep(6, 7);
        assert_eq!(sweep.shard_count(), 7);
        assert_eq!(sweep.shards[0].start, 0);
        assert_eq!(sweep.shards.last().unwrap().end, 720);
        for w in sweep.shards.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // More shards than permutations degrades gracefully.
        let tiny = figure1_sweep(1, 10);
        assert_eq!(tiny.shard_count(), 1);
    }

    #[test]
    fn interrupted_sweep_resumes_to_identical_aggregates() {
        // The uninterrupted reference.
        let mut reference = figure1_sweep(6, 5);
        assert_eq!(reference.run_pending(None), 5);
        let expected = reference.merged_levels().unwrap();

        // Run two shards, "die", serialize, resume from JSON, finish.
        let mut interrupted = figure1_sweep(6, 5);
        assert_eq!(interrupted.run_pending(Some(2)), 2);
        assert_eq!(interrupted.completed_count(), 2);
        assert!(!interrupted.is_complete());
        assert!(interrupted.merged_levels().is_none());
        let checkpoint = interrupted.to_json();
        drop(interrupted);

        let mut resumed = ShardedSweep::from_json(&checkpoint, 3).unwrap();
        assert_eq!(resumed.completed_count(), 2);
        assert_eq!(resumed.run_pending(None), 3);
        let via_resume = resumed.merged_levels().unwrap();
        assert_eq!(via_resume, expected, "resume must be exact");

        // And byte-identical once re-serialized from the same state.
        let mut direct = figure1_sweep(6, 5);
        direct.run_pending(None);
        assert_eq!(resumed.to_json(), direct.to_json());
    }

    #[test]
    fn checkpoint_round_trips_under_non_default_spec() {
        let spec = SweepSpec {
            m: 5,
            statistic: Statistic::MajorIndex,
            model: CacheModel::SetAssoc {
                ways: 2,
                policy: ReplacementPolicy::Fifo,
            },
        };
        let mut sweep = ShardedSweep::new(spec, 3, 2);
        sweep.run_pending(Some(1));
        let rebuilt = ShardedSweep::from_json(&sweep.to_json(), 2).unwrap();
        assert_eq!(rebuilt.spec(), spec);
        assert_eq!(rebuilt.completed_count(), 1);
        assert_eq!(rebuilt.to_json(), sweep.to_json());
    }

    #[test]
    fn save_load_and_resume_via_filesystem() {
        let dir = std::env::temp_dir();
        let path = dir.join("symloc_shard_test_checkpoint.json");
        std::fs::remove_file(&path).ok();

        let spec = SweepSpec::figure1(5);
        // Nothing on disk: fresh plan.
        let (mut sweep, resumed) = ShardedSweep::resume_or_new(spec, 4, 2, &path).unwrap();
        assert!(!resumed);
        sweep.run_pending(Some(2));
        sweep.save(&path).unwrap();

        // On disk with progress: resumed.
        let (resumed_sweep, resumed) = ShardedSweep::resume_or_new(spec, 4, 2, &path).unwrap();
        assert!(resumed);
        assert_eq!(resumed_sweep.completed_count(), 2);

        // A different spec ignores the stale (same-kind) checkpoint.
        let other = SweepSpec {
            m: 5,
            statistic: Statistic::Descents,
            model: CacheModel::LruStack,
        };
        let (fresh, resumed) = ShardedSweep::resume_or_new(other, 4, 2, &path).unwrap();
        assert!(!resumed);
        assert_eq!(fresh.completed_count(), 0);

        // run_with_checkpoint drives the rest, reporting progress after
        // every saved shard, and leaves a complete file.
        let (mut finishing, _) = ShardedSweep::resume_or_new(spec, 4, 2, &path).unwrap();
        let mut progress = Vec::new();
        let limited = finishing
            .run_with_checkpoint(&path, Some(1), |done, total| progress.push((done, total)))
            .unwrap();
        assert_eq!(limited, 1);
        assert_eq!(progress, vec![(3, 4)]);
        let ran = finishing
            .run_with_checkpoint(&path, None, |done, total| progress.push((done, total)))
            .unwrap();
        assert_eq!(ran, 1);
        assert_eq!(progress, vec![(3, 4), (4, 4)]);
        let levels = finishing.merged_levels().unwrap();
        assert_eq!(levels.iter().map(|l| l.count).sum::<u64>(), 120);
        let (mut done, _) = ShardedSweep::resume_or_new(spec, 4, 2, &path).unwrap();
        assert!(done.is_complete());
        // Nothing pending: still rewrites the checkpoint, runs nothing.
        assert_eq!(done.run_with_checkpoint(&path, None, |_, _| {}).unwrap(), 0);
        std::fs::remove_file(&path).ok();
    }

    /// Runs `sweep` through the checkpoint loop into a fresh file and
    /// returns the `on_batch` calls and the final file.
    fn checkpointed_run(name: &str, mut sweep: ShardedSweep) -> (Vec<(usize, usize)>, String) {
        let path = std::env::temp_dir().join(format!(
            "symloc_shard_cadence_{name}_{}.json",
            std::process::id()
        ));
        let mut batches = Vec::new();
        let ran = sweep
            .run_with_checkpoint(&path, None, |done, total| batches.push((done, total)))
            .unwrap();
        assert_eq!(ran, sweep.shard_count());
        let file = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        (batches, file)
    }

    #[test]
    fn a_block_summed_sweep_saves_once_per_run_and_a_walk_after_every_shard() {
        // The Figure-1 spec sums blocks: one save, after the last shard.
        let figure1 = figure1_sweep(8, 8);
        let mut uncheckpointed = figure1.clone();
        uncheckpointed.run_pending(None);
        let (batches, file) = checkpointed_run("figure1", figure1);
        assert_eq!(batches, vec![(8, 8)]);
        assert_eq!(file, uncheckpointed.to_json());

        // Per-permutation specs still save after every shard.
        for (name, spec) in [
            (
                "major",
                SweepSpec {
                    statistic: Statistic::MajorIndex,
                    ..SweepSpec::figure1(6)
                },
            ),
            (
                "assoc",
                SweepSpec {
                    model: CacheModel::parse("assoc:6:lru").unwrap(),
                    ..SweepSpec::figure1(6)
                },
            ),
        ] {
            let walk = ShardedSweep::new(spec, 8, 2);
            let mut uncheckpointed = walk.clone();
            uncheckpointed.run_pending(None);
            let (batches, file) = checkpointed_run(name, walk);
            assert_eq!(batches, (1..=8).map(|done| (done, 8)).collect::<Vec<_>>());
            assert_eq!(file, uncheckpointed.to_json(), "{name}");
        }
    }

    /// Checkpoints the earlier writer left, with done and undone entries:
    /// `sweep 7 --shards 5 --max-shards 3` and `sweep 7 --samples 200
    /// --seed 3 --max-shards 5`. A round trip through the current reader
    /// and writer alone would miss a format drift they share.
    const EARLIER_SWEEP_CHECKPOINT: &str =
        include_str!("../tests/data/sweep_checkpoint_s7_3_of_5.json");
    const EARLIER_SAMPLED_CHECKPOINT: &str =
        include_str!("../tests/data/sampled_sweep_checkpoint_s7_5_of_22.json");

    #[test]
    fn earlier_sweep_checkpoints_are_rewritten_byte_for_byte() {
        let sharded = ShardedSweep::from_json(EARLIER_SWEEP_CHECKPOINT, 2).unwrap();
        assert_eq!((sharded.completed_count(), sharded.shard_count()), (3, 5));
        assert_eq!(sharded.to_json(), EARLIER_SWEEP_CHECKPOINT);
        let mut resumed = sharded;
        resumed.run_pending(None);
        let mut uninterrupted = figure1_sweep(7, 5);
        uninterrupted.run_pending(None);
        assert_eq!(resumed.to_json(), uninterrupted.to_json());

        let sampled = SampledSweep::from_json(EARLIER_SAMPLED_CHECKPOINT, 2).unwrap();
        assert_eq!((sampled.completed_count(), sampled.level_count()), (5, 22));
        assert_eq!(sampled.to_json(), EARLIER_SAMPLED_CHECKPOINT);
        let mut resumed = sampled;
        resumed.run_pending(None);
        let mut uninterrupted = SampledSweep::new(SweepSpec::figure1(7), 200, 2, 3, 1);
        uninterrupted.run_pending(None);
        assert_eq!(resumed.to_json(), uninterrupted.to_json());
    }

    #[test]
    fn from_json_rejects_corrupted_documents() {
        let mut sweep = figure1_sweep(4, 2);
        sweep.run_pending(Some(1));
        let good = sweep.to_json();
        assert!(ShardedSweep::from_json("{}", 1).is_err());
        assert!(ShardedSweep::from_json("not json", 1).is_err());
        assert!(ShardedSweep::from_json(&good.replace("inversions", "bogus"), 1).is_err());
        assert!(ShardedSweep::from_json(&good.replace("lru_stack", "bogus"), 1).is_err());
        assert!(
            ShardedSweep::from_json(&good.replace("\"version\": 1", "\"version\": 9"), 1).is_err()
        );
        assert!(
            ShardedSweep::from_json(&good.replace(CHECKPOINT_KIND, "something_else"), 1).is_err()
        );
        // Tampered shard bounds are rejected (they no longer match the plan).
        assert!(
            ShardedSweep::from_json(&good.replace("\"start\": 12", "\"start\": 13"), 1).is_err()
        );
        // Partials no sweep of ranks 0..12 can produce: counts that do not
        // sum to the shard's length (one would overflow the merge), and hit
        // sums above m (or m² squared) per permutation.
        let level0 = "{\"level\": 0, \"count\": 1, \"hit_sums\": [0, 0, 0, 4], \"hit_sq_sums\": [0, 0, 0, 16]}";
        let level5 = "{\"level\": 5, \"count\": 0,";
        assert!(good.contains(level0) && good.contains(level5));
        for (bad, reason) in [
            (
                good.replace(
                    "\"level\": 0, \"count\": 1,",
                    "\"level\": 0, \"count\": 18446744073709551615,",
                ),
                "aggregates 18446744073709551626 permutations",
            ),
            (
                good.replace(level5, "{\"level\": 5, \"count\": 1,"),
                "aggregates 13 permutations, but ranks 0..12 hold 12",
            ),
            (
                good.replace("\"level\": 0, \"count\": 1,", "\"level\": 0, \"count\": 0,")
                    .replace(level5, "{\"level\": 5, \"count\": 1,"),
                "level 0 sums at cache size 4 exceed what 0 permutations",
            ),
            (
                good.replace(level0, &level0.replace("0, 4]", "0, 5]")),
                "level 0 sums at cache size 4",
            ),
            (
                good.replace(level0, &level0.replace("0, 16]", "0, 17]")),
                "level 0 sums at cache size 4",
            ),
        ] {
            assert_ne!(bad, good);
            let err = ShardedSweep::from_json(&bad, 1).unwrap_err();
            assert!(err.starts_with("shard 0"), "{err}");
            assert!(err.contains(reason), "{err}");
        }
        // The bounds are tight: one re-traversal scores at most m hits.
        assert!(ShardedSweep::from_json(&good, 1).is_ok());
    }

    #[test]
    fn cross_kind_resume_is_a_loud_error() {
        // A sampled-sweep checkpoint on disk must make an exhaustive-sweep
        // resume fail with a descriptive error, not silently start fresh.
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "symloc_shard_crosskind_{}.json",
            std::process::id()
        ));
        let mut sampled = SampledSweep::new(SweepSpec::figure1(5), 50, 2, 1, 1);
        sampled.run_pending(Some(2));
        sampled.save(&path).unwrap();
        let err = ShardedSweep::resume_or_new(SweepSpec::figure1(5), 4, 1, &path).unwrap_err();
        assert!(err.contains(SAMPLED_CHECKPOINT_KIND), "{err}");
        assert!(err.contains("exhaustive sharded sweep"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = figure1_sweep(4, 0);
    }

    #[test]
    fn sampled_sweep_equals_the_direct_weighted_sweep() {
        use crate::engine::SweepEngine;
        for statistic in Statistic::ALL {
            let spec = SweepSpec {
                m: 6,
                statistic,
                model: CacheModel::LruStack,
            };
            let mut sweep = SampledSweep::new(spec, 150, 2, 33, 2);
            assert_eq!(sweep.level_count(), statistic.level_count(6));
            sweep.run_pending(None);
            let direct = SweepEngine::with_threads(6, 2).sampled_levels_weighted(
                statistic,
                CacheModel::LruStack,
                150,
                2,
                33,
            );
            assert_eq!(sweep.merged_levels().unwrap(), direct, "{statistic}");
        }
    }

    #[test]
    fn interrupted_sampled_sweep_resumes_to_byte_identical_checkpoint() {
        let spec = SweepSpec {
            m: 8,
            statistic: Statistic::MajorIndex,
            model: CacheModel::LruStack,
        };
        let mut reference = SampledSweep::new(spec, 400, 2, 7, 2);
        reference.run_pending(None);
        let reference_json = reference.to_json();

        let mut interrupted = SampledSweep::new(spec, 400, 2, 7, 2);
        assert_eq!(interrupted.run_pending(Some(10)), 10);
        assert!(!interrupted.is_complete());
        assert!(interrupted.merged_levels().is_none());
        let checkpoint = interrupted.to_json();
        drop(interrupted);

        let mut resumed = SampledSweep::from_json(&checkpoint, 3).unwrap();
        assert_eq!(resumed.completed_count(), 10);
        resumed.run_pending(None);
        assert_eq!(resumed.to_json(), reference_json, "resume must be exact");
    }

    #[test]
    fn sampled_sweep_checkpoint_files_and_resume_or_new() {
        let dir = std::env::temp_dir();
        let path = dir.join("symloc_shard_sampled_checkpoint.json");
        std::fs::remove_file(&path).ok();
        let spec = SweepSpec {
            m: 7,
            statistic: Statistic::Inversions,
            model: CacheModel::LruStack,
        };

        let (mut sweep, resumed) = SampledSweep::resume_or_new(spec, 200, 2, 5, 2, &path).unwrap();
        assert!(!resumed);
        assert_eq!(sweep.budget(), 200);
        assert_eq!(sweep.min_per_level(), 2);
        assert_eq!(sweep.seed(), 5);
        let mut progress = Vec::new();
        sweep
            .run_with_checkpoint(&path, Some(4), |done, total| progress.push((done, total)))
            .unwrap();
        assert_eq!(progress.last(), Some(&(4, 22)));
        assert!(!sweep.is_complete());

        let (mut resumed_sweep, resumed) =
            SampledSweep::resume_or_new(spec, 200, 2, 5, 2, &path).unwrap();
        assert!(resumed);
        assert_eq!(resumed_sweep.completed_count(), 4);
        resumed_sweep
            .run_with_checkpoint(&path, None, |_, _| {})
            .unwrap();
        assert!(resumed_sweep.is_complete());

        // A different seed or budget ignores the stale checkpoint.
        let (fresh, resumed) = SampledSweep::resume_or_new(spec, 200, 2, 6, 2, &path).unwrap();
        assert!(!resumed);
        assert_eq!(fresh.completed_count(), 0);
        let (mut done, _) = SampledSweep::resume_or_new(spec, 200, 2, 5, 2, &path).unwrap();
        assert!(done.is_complete());
        assert_eq!(done.run_with_checkpoint(&path, None, |_, _| {}).unwrap(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sampled_sweep_from_json_rejects_corrupted_documents() {
        let spec = SweepSpec {
            m: 5,
            statistic: Statistic::TotalDisplacement,
            model: CacheModel::LruStack,
        };
        let mut sweep = SampledSweep::new(spec, 100, 2, 3, 1);
        sweep.run_pending(Some(3));
        let good = sweep.to_json();
        assert!(SampledSweep::from_json(&good, 1).is_ok());
        assert!(SampledSweep::from_json("{}", 1).is_err());
        assert!(SampledSweep::from_json("not json", 1).is_err());
        assert!(SampledSweep::from_json(&good.replace("total_displacement", "bogus"), 1).is_err());
        assert!(
            SampledSweep::from_json(&good.replace("\"version\": 1", "\"version\": 9"), 1).is_err()
        );
        assert!(
            SampledSweep::from_json(&good.replace(SAMPLED_CHECKPOINT_KIND, "else"), 1).is_err()
        );
        // A tampered draw plan no longer matches the deterministic one.
        assert!(SampledSweep::from_json(&good.replace("\"draws\": 2", "\"draws\": 3"), 1).is_err());
        // A done level must hold exactly its planned draws, and no more
        // than m hits (m² squared) per draw at any cache size.
        let level0 =
            "\"count\": 2, \"hit_sums\": [0, 0, 0, 0, 10], \"hit_sq_sums\": [0, 0, 0, 0, 50]";
        assert!(good.contains(level0));
        for (bad, reason) in [
            (
                good.replace(level0, &level0.replace("\"count\": 2", "\"count\": 3")),
                "level 0 aggregates 3 draws, but its plan has 2",
            ),
            (
                good.replace(
                    level0,
                    &level0.replace("\"count\": 2", "\"count\": 18446744073709551615"),
                ),
                "level 0 aggregates 18446744073709551615 draws",
            ),
            (
                good.replace(level0, &level0.replace("0, 10]", "0, 11]")),
                "level 0 sums at cache size 5 exceed what 2 permutations",
            ),
            (
                good.replace(level0, &level0.replace("0, 50]", "0, 51]")),
                "level 0 sums at cache size 5",
            ),
        ] {
            let err = SampledSweep::from_json(&bad, 1).unwrap_err();
            assert!(err.contains(reason), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn huge_degree_rejected() {
        let _ = figure1_sweep(13, 2);
    }
}
