//! `symloc sweep` — exhaustive or stratified-sampled sweeps over `S_m`,
//! resumable through the `core::job` checkpoints.

use super::flags::{
    embed_json, write_metrics, CommandSpec, FlagSpec, CHECKPOINT, JSON, METRICS, SEED, THREADS,
};
use super::{help_requested, CliError};
use std::fmt::Write as _;
use std::path::Path;

use symloc_core::engine::{SweepEngine, SweepLevel, SweepSpec};
use symloc_core::model::CacheModel;
use symloc_core::obs::{MetricsRegistry, Span};
use symloc_core::shard::{SampledSweep, ShardedSweep};
use symloc_par::default_threads;
use symloc_perm::statistics::Statistic;

const STAT: FlagSpec = FlagSpec::value(
    "--stat",
    "NAME",
    "level statistic: inversions, descents, major, displacement",
);
const MODEL: FlagSpec = FlagSpec::value(
    "--model",
    "NAME",
    "cache model: lru, or assoc:WAYS:lru|fifo|plru",
);
const SAMPLES: FlagSpec = FlagSpec::value(
    "--samples",
    "BUDGET",
    "stratified sampling budget (exhaustive sweep otherwise)",
);
const SHARDS: FlagSpec = FlagSpec::value(
    "--shards",
    "K",
    "rank shards for checkpointed exhaustive sweeps (default 8, at most 4096)",
);
/// The most rank shards `--shards` accepts. A plan holds a rank range and
/// a partial per shard and its checkpoint a line per level of every done
/// shard (~15.5 KB for a shard of `S_12`), so 4096 shards already make an
/// `m = 12` checkpoint of ~63 MB; CI and `run_all_experiments --sweep12`
/// use 7 and 64.
const SHARD_LIMIT: usize = 4096;
const MAX_SHARDS: FlagSpec = FlagSpec::value(
    "--max-shards",
    "N",
    "run at most N shards/levels this invocation (needs --checkpoint)",
);

/// `symloc sweep` command table.
pub(crate) const SWEEP: CommandSpec = CommandSpec {
    name: "sweep",
    summary: "exhaustive or stratified-sampled sweep over S_m (resumable)",
    usage: "symloc sweep <m> [flags]",
    positionals: &[("m", "degree of the symmetric group")],
    variadic: false,
    flags: &[
        STAT, MODEL, THREADS, SAMPLES, SEED, SHARDS, CHECKPOINT, MAX_SHARDS, JSON, METRICS,
    ],
};

/// Options of `symloc sweep`, parsed from its argument list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// The sweep spec (degree, statistic, cache model).
    pub spec: SweepSpec,
    /// Worker threads.
    pub threads: usize,
    /// `Some(budget)` selects stratified sampling instead of exhaustion.
    pub samples: Option<usize>,
    /// Seed for sampled sweeps.
    pub seed: u64,
    /// Shard count for checkpointed exhaustive sweeps.
    pub shards: usize,
    /// Checkpoint file enabling sharded resumable execution.
    pub checkpoint: Option<String>,
    /// At most this many shards this invocation (`None` = run to the end).
    pub max_shards: Option<usize>,
    /// Emit a machine-readable JSON report instead of the level table.
    pub json: bool,
    /// Write the metrics-registry snapshot (JSON) to this file.
    pub metrics: Option<String>,
}

/// Parses the argument list of `symloc sweep` (everything after the
/// subcommand name).
///
/// # Errors
///
/// Returns a [`CliError`] on malformed flags, unknown statistic or model
/// names, or an unsupported combination.
pub fn parse_sweep_options(args: &[String]) -> Result<SweepOptions, CliError> {
    let parsed = SWEEP
        .parse(args)?
        .expect("callers handle --help before parsing");
    let m: usize = parsed
        .positional(0, "sweep", "m")?
        .parse()
        .map_err(|_| CliError("m must be a number".into()))?;
    let mut options = SweepOptions {
        spec: SweepSpec::figure1(m),
        threads: parsed.usize(THREADS.name)?.unwrap_or_else(default_threads),
        samples: parsed.usize(SAMPLES.name)?,
        seed: parsed.u64(SEED.name)?.unwrap_or(42),
        shards: parsed.usize(SHARDS.name)?.unwrap_or(8),
        checkpoint: parsed.value(CHECKPOINT.name).map(ToString::to_string),
        max_shards: parsed.usize(MAX_SHARDS.name)?,
        json: parsed.switch(JSON.name),
        metrics: parsed.value(METRICS.name).map(ToString::to_string),
    };
    if let Some(name) = parsed.value(STAT.name) {
        options.spec.statistic = Statistic::parse(name)
            .ok_or_else(|| CliError(format!("unknown statistic {name:?}")))?;
    }
    if let Some(name) = parsed.value(MODEL.name) {
        options.spec.model = CacheModel::parse(name)
            .ok_or_else(|| CliError(format!("unknown cache model {name:?}")))?;
    }
    if options.shards == 0 {
        return Err(CliError("--shards must be positive".into()));
    }
    if options.shards > SHARD_LIMIT {
        return Err(CliError(format!(
            "--shards {} is above the limit of {SHARD_LIMIT} (every shard adds to \
             the plan and to each checkpoint)",
            options.shards
        )));
    }
    if options.max_shards.is_some() && options.checkpoint.is_none() {
        return Err(CliError(
            "--max-shards only makes sense with --checkpoint (a bounded \
             partial run needs somewhere to save its progress)"
                .into(),
        ));
    }
    if options.samples.is_none() && options.spec.m > 12 {
        return Err(CliError(format!(
            "m = {} is too large for an exhaustive sweep; pass --samples",
            options.spec.m
        )));
    }
    if options.samples.is_some() && options.spec.m > 34 {
        return Err(CliError(format!(
            "m = {} exceeds the largest supported degree (34: Mahonian \
             weights overflow beyond that)",
            options.spec.m
        )));
    }
    Ok(options)
}

/// Renders the level table of a finished sweep.
pub(crate) fn sweep_report(spec: SweepSpec, levels: &[SweepLevel], sampled: bool) -> String {
    let m = spec.m;
    let mut out = String::new();
    let _ = writeln!(out, "sweep of S_{m} — {}", spec.fingerprint());
    let total: u64 = levels.iter().map(|l| l.count).sum();
    let _ = writeln!(out, "permutations aggregated : {total}");
    let c_mid = (m / 2).max(1);
    let _ = write!(
        out,
        "{:>6} {:>12} {:>12} {:>12}",
        "level",
        "count",
        format!("hits(c={c_mid})"),
        format!("mr(c={c_mid})"),
    );
    // Exhaustive sweeps saw the whole population; only sampled sweeps
    // carry a meaningful standard-error column.
    if sampled {
        let _ = write!(out, " {:>12}", "stderr");
    }
    out.push('\n');
    for level in levels {
        let _ = write!(
            out,
            "{:>6} {:>12} {:>12.4} {:>12.4}",
            level.level,
            level.count,
            level.mean_hits(c_mid),
            level.mean_miss_ratio(c_mid),
        );
        if sampled {
            let _ = write!(out, " {:>12.4}", level.stderr_hits(c_mid));
        }
        out.push('\n');
    }
    out
}

/// Renders a finished sweep as a JSON document (exact integer sums, so the
/// output is loss-free and machine-diffable), with the run's
/// metrics-registry snapshot attached.
pub(crate) fn sweep_json(
    spec: SweepSpec,
    levels: &[SweepLevel],
    sampled: bool,
    metrics: &MetricsRegistry,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"fingerprint\": \"{}\",", spec.fingerprint());
    let _ = writeln!(out, "  \"sampled\": {sampled},");
    let _ = writeln!(out, "  \"complete\": true,");
    out.push_str("  \"levels\": [\n");
    for (i, level) in levels.iter().enumerate() {
        let sep = if i + 1 < levels.len() { "," } else { "" };
        let sums: Vec<String> = level.hit_sums.iter().map(u64::to_string).collect();
        let sq: Vec<String> = level.hit_sq_sums.iter().map(u64::to_string).collect();
        let _ = writeln!(
            out,
            "    {{\"level\": {}, \"count\": {}, \"hit_sums\": [{}], \"hit_sq_sums\": [{}]}}{sep}",
            level.level,
            level.count,
            sums.join(", "),
            sq.join(", "),
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"metrics\": {}", embed_json(&metrics.to_json()));
    out.push_str("}\n");
    out
}

/// Renders an in-progress checkpointed sweep as a JSON document.
fn sweep_progress_json(
    spec: SweepSpec,
    sampled: bool,
    completed: usize,
    total: usize,
    metrics: &MetricsRegistry,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"fingerprint\": \"{}\",", spec.fingerprint());
    let _ = writeln!(out, "  \"sampled\": {sampled},");
    let _ = writeln!(out, "  \"complete\": false,");
    let _ = writeln!(out, "  \"completed\": {completed},");
    let _ = writeln!(out, "  \"total\": {total},");
    let _ = writeln!(out, "  \"metrics\": {}", embed_json(&metrics.to_json()));
    out.push_str("}\n");
    out
}

/// `symloc sweep <m> [flags]` — generalized sweep over `S_m`: exhaustive
/// (optionally sharded + checkpointed) or Mahonian-weighted stratified
/// sampling, keyed by any statistic, under any cache model.
///
/// # Errors
///
/// Returns a [`CliError`] on malformed arguments, checkpoint I/O errors,
/// or a checkpoint file of a different job kind.
pub fn sweep(args: &[String]) -> Result<String, CliError> {
    if help_requested(args) {
        return Ok(SWEEP.help());
    }
    let options = parse_sweep_options(args)?;
    let spec = options.spec;
    let engine = SweepEngine::with_threads(spec.m, options.threads);
    let mut registry = MetricsRegistry::new();

    if let Some(budget) = options.samples {
        let weights = match spec.statistic {
            Statistic::Descents => "Eulerian",
            Statistic::TotalDisplacement => "footrule",
            _ => "Mahonian",
        };
        let sampling_line = format!(
            "stratified sampling: budget {budget} distributed by {weights} weights (seed {})",
            options.seed
        );

        // Checkpointed sampled sweeps shard the level space: each level's
        // aggregate is deterministic on its own, so completed levels are
        // exact partial progress.
        if let Some(checkpoint) = &options.checkpoint {
            let path = Path::new(checkpoint);
            let (mut sampled, resumed) =
                SampledSweep::resume_or_new(spec, budget, 2, options.seed, options.threads, path)
                    .map_err(CliError)?;
            let already = sampled.completed_count();
            let stale_on_disk = !resumed && path.exists();
            let ran = sampled
                .run_with_checkpoint_metered(
                    path,
                    options.max_shards,
                    Some(&mut registry),
                    |_, _| {},
                )
                .map_err(|e| CliError(format!("cannot write checkpoint {checkpoint}: {e}")))?;
            write_metrics(options.metrics.as_deref(), &registry)?;
            if options.json {
                return Ok(match sampled.merged_levels() {
                    Some(levels) => sweep_json(spec, &levels, true, &registry),
                    None => sweep_progress_json(
                        spec,
                        true,
                        sampled.completed_count(),
                        sampled.level_count(),
                        &registry,
                    ),
                });
            }
            let mut out = String::new();
            if resumed {
                let _ = writeln!(
                    out,
                    "resumed from {checkpoint}: {already} of {} levels were already done",
                    sampled.level_count()
                );
            } else if stale_on_disk {
                // A same-kind checkpoint was on disk but did not match this
                // plan — say so, like the trace paths, since the save above
                // already overwrote it.
                let _ = writeln!(
                    out,
                    "warning: existing checkpoint {checkpoint} did not match this sweep \
                     ({}, budget {budget}, seed {}); started fresh and overwrote it",
                    spec.fingerprint(),
                    options.seed
                );
            }
            let _ = writeln!(
                out,
                "ran {ran} level(s); {} of {} complete; checkpoint saved to {checkpoint}",
                sampled.completed_count(),
                sampled.level_count()
            );
            match sampled.merged_levels() {
                Some(levels) => {
                    out.push_str(&sweep_report(spec, &levels, true));
                    let _ = writeln!(out, "{sampling_line}");
                }
                None => {
                    let _ = writeln!(
                        out,
                        "sweep incomplete — re-run the same command to continue from the checkpoint"
                    );
                }
            }
            return Ok(out);
        }

        let span = Span::start();
        let levels =
            engine.sampled_levels_weighted(spec.statistic, spec.model, budget, 2, options.seed);
        registry.set_gauge("job.elapsed_secs", span.elapsed_secs());
        span.record(&mut registry, "sweep.total_nanos");
        write_metrics(options.metrics.as_deref(), &registry)?;
        if options.json {
            return Ok(sweep_json(spec, &levels, true, &registry));
        }
        let mut out = sweep_report(spec, &levels, true);
        let _ = writeln!(out, "{sampling_line}");
        return Ok(out);
    }

    let Some(checkpoint) = &options.checkpoint else {
        let span = Span::start();
        let levels = engine.sweep_levels(spec.statistic, spec.model);
        registry.set_gauge("job.elapsed_secs", span.elapsed_secs());
        span.record(&mut registry, "sweep.total_nanos");
        write_metrics(options.metrics.as_deref(), &registry)?;
        if options.json {
            return Ok(sweep_json(spec, &levels, false, &registry));
        }
        return Ok(sweep_report(spec, &levels, false));
    };

    let path = Path::new(checkpoint);
    let (mut sharded, resumed) =
        ShardedSweep::resume_or_new(spec, options.shards, options.threads, path)
            .map_err(CliError)?;
    let already = sharded.completed_count();
    let stale_on_disk = !resumed && path.exists();
    let ran = sharded
        .run_with_checkpoint_metered(path, options.max_shards, Some(&mut registry), |_, _| {})
        .map_err(|e| CliError(format!("cannot write checkpoint {checkpoint}: {e}")))?;
    write_metrics(options.metrics.as_deref(), &registry)?;
    if options.json {
        return Ok(match sharded.merged_levels() {
            Some(levels) => sweep_json(spec, &levels, false, &registry),
            None => sweep_progress_json(
                spec,
                false,
                sharded.completed_count(),
                sharded.shard_count(),
                &registry,
            ),
        });
    }
    let mut out = String::new();
    if resumed {
        let _ = writeln!(
            out,
            "resumed from {checkpoint}: {already} of {} shards were already done",
            sharded.shard_count()
        );
    } else if stale_on_disk {
        let _ = writeln!(
            out,
            "warning: existing checkpoint {checkpoint} did not match this sweep \
             ({}, {} shards); started fresh and overwrote it",
            spec.fingerprint(),
            options.shards
        );
    }
    let _ = writeln!(
        out,
        "ran {ran} shard(s); {} of {} complete; checkpoint saved to {checkpoint}",
        sharded.completed_count(),
        sharded.shard_count()
    );
    match sharded.merged_levels() {
        Some(levels) => out.push_str(&sweep_report(spec, &levels, false)),
        None => {
            let _ = writeln!(
                out,
                "sweep incomplete — re-run the same command to continue from the checkpoint"
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::sargs;
    use symloc_core::jsonio::{self, JsonValue};

    #[test]
    fn sweep_option_parsing() {
        let options = parse_sweep_options(&sargs(
            "6 --stat major --model assoc:2:fifo --threads 3 --shards 5",
        ))
        .unwrap();
        assert_eq!(options.spec.m, 6);
        assert_eq!(options.spec.statistic, Statistic::MajorIndex);
        assert_eq!(options.spec.model.name(), "set_assoc:2:fifo");
        assert_eq!(options.threads, 3);
        assert_eq!(options.shards, 5);
        assert!(!options.json);
        assert!(parse_sweep_options(&sargs("")).is_err());
        assert!(parse_sweep_options(&sargs("x")).is_err());
        assert!(parse_sweep_options(&sargs("5 --stat bogus")).is_err());
        assert!(parse_sweep_options(&sargs("5 --model bogus")).is_err());
        assert!(parse_sweep_options(&sargs("5 --shards 0")).is_err());
        // The shard count is capped before anything is planned.
        assert_eq!(
            parse_sweep_options(&sargs("12 --shards 4096"))
                .unwrap()
                .shards,
            SHARD_LIMIT
        );
        let err = parse_sweep_options(&sargs("12 --shards 4097")).unwrap_err();
        assert!(err.0.contains("limit of 4096"), "{err}");
        assert!(SWEEP.help().contains(&format!("at most {SHARD_LIMIT}")));
        assert!(parse_sweep_options(&sargs("5 --frobnicate 1")).is_err());
        assert!(parse_sweep_options(&sargs("5 --stat")).is_err());
        assert!(parse_sweep_options(&sargs("5 --samples 100 --stat descents")).is_ok());
        // Every statistic has a stratified sampler now.
        assert!(parse_sweep_options(&sargs("5 --samples 100 --stat major")).is_ok());
        assert!(parse_sweep_options(&sargs("5 --samples 100 --stat displacement")).is_ok());
        // Sampled sweeps checkpoint too (level shards).
        assert!(parse_sweep_options(&sargs("5 --samples 10 --checkpoint x.json")).is_ok());
        assert!(parse_sweep_options(&sargs("5 --max-shards 2")).is_err());
        assert!(parse_sweep_options(&sargs("13")).is_err());
        assert!(parse_sweep_options(&sargs("13 --samples 100")).is_ok());
        assert!(parse_sweep_options(&sargs("35 --samples 100")).is_err());
        assert!(parse_sweep_options(&sargs("5 --json")).unwrap().json);
    }

    #[test]
    fn sweep_reports_exhaustive_sampled_and_models() {
        let report = sweep(&sargs("5 --threads 2")).unwrap();
        assert!(report.contains("m=5;stat=inversions;model=lru_stack"));
        assert!(report.contains("permutations aggregated : 120"));
        let by_descents = sweep(&sargs("5 --stat descents --model assoc:2:fifo")).unwrap();
        assert!(by_descents.contains("model=set_assoc:2:fifo"));
        assert!(by_descents.contains("permutations aggregated : 120"));
        let sampled = sweep(&sargs("8 --samples 300 --seed 7")).unwrap();
        assert!(sampled.contains("budget 300 distributed by Mahonian weights"));
    }

    #[test]
    fn sweep_json_output_parses_and_is_exact() {
        let report = sweep(&sargs("5 --json")).unwrap();
        let doc = jsonio::parse(&report).unwrap();
        assert_eq!(
            doc.get("fingerprint").and_then(JsonValue::as_str),
            Some("m=5;stat=inversions;model=lru_stack")
        );
        assert_eq!(doc.get("complete"), Some(&JsonValue::Bool(true)));
        let levels = doc.get("levels").and_then(JsonValue::as_array).unwrap();
        assert_eq!(levels.len(), 11);
        let total: u64 = levels
            .iter()
            .map(|l| l.get("count").and_then(JsonValue::as_u64).unwrap())
            .sum();
        assert_eq!(total, 120);
        // Sampled runs carry the sampled marker.
        let sampled = sweep(&sargs("6 --samples 60 --json")).unwrap();
        let doc = jsonio::parse(&sampled).unwrap();
        assert_eq!(doc.get("sampled"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn sweep_json_levels_of_s11_match_the_recorded_fixture() {
        // The recorded lines came from the per-permutation walk; the
        // Figure-1 block path must print them byte for byte.
        let recorded = include_str!("../../crates/core/tests/data/fig1_s11_levels.json");
        let report = sweep(&sargs("11 --json")).unwrap();
        let levels: String = report
            .lines()
            .filter(|l| l.starts_with("    {\"level\": "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(levels == recorded, "sweep 11 --json levels changed");
    }

    #[test]
    fn sweep_checkpoint_flow_resumes_and_completes() {
        let path = std::env::temp_dir().join("symloc_cli_sweep_checkpoint.json");
        let path_str = path.to_string_lossy().to_string();
        std::fs::remove_file(&path).ok();

        // First invocation runs 2 of 4 shards and stops.
        let first = sweep(&sargs(&format!(
            "6 --shards 4 --max-shards 2 --checkpoint {path_str}"
        )))
        .unwrap();
        assert!(first.contains("2 of 4 complete"));
        assert!(first.contains("sweep incomplete"));

        // A --json probe of the incomplete state reports progress.
        let probe = sweep(&sargs(&format!(
            "6 --shards 4 --max-shards 0 --checkpoint {path_str} --json"
        )))
        .unwrap();
        let doc = jsonio::parse(&probe).unwrap();
        assert_eq!(doc.get("complete"), Some(&JsonValue::Bool(false)));
        assert_eq!(doc.get("completed").and_then(JsonValue::as_u64), Some(2));

        // Second invocation resumes and finishes.
        let second = sweep(&sargs(&format!("6 --shards 4 --checkpoint {path_str}"))).unwrap();
        assert!(second.contains("resumed from"));
        assert!(second.contains("4 of 4 complete"));
        assert!(second.contains("permutations aggregated : 720"));

        // The checkpointed result equals the direct sweep.
        let direct = sweep(&sargs("6")).unwrap();
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("sweep of"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&second), tail(&direct));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_sampled_checkpoint_flow_resumes_and_completes() {
        let path = std::env::temp_dir().join("symloc_cli_sampled_sweep_checkpoint.json");
        let path_str = path.to_string_lossy().to_string();
        std::fs::remove_file(&path).ok();

        // First invocation runs a few levels and stops.
        let first = sweep(&sargs(&format!(
            "7 --samples 200 --seed 3 --max-shards 5 --checkpoint {path_str}"
        )))
        .unwrap();
        assert!(first.contains("of 22 complete"), "{first}");
        assert!(first.contains("sweep incomplete"));

        // Second invocation resumes and finishes.
        let second = sweep(&sargs(&format!(
            "7 --samples 200 --seed 3 --checkpoint {path_str}"
        )))
        .unwrap();
        assert!(second.contains("resumed from"));
        assert!(second.contains("22 of 22 complete"));

        // The checkpointed result equals the direct sampled sweep.
        let direct = sweep(&sargs("7 --samples 200 --seed 3")).unwrap();
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("sweep of"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&second), tail(&direct));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cross_kind_checkpoints_are_loud_errors() {
        // Run a *sampled* sweep checkpoint, then point the exhaustive
        // sweep at it: the CLI must surface the kind-mismatch error.
        let path = std::env::temp_dir().join(format!(
            "symloc_cli_sweep_crosskind_{}.json",
            std::process::id()
        ));
        let path_str = path.to_string_lossy().to_string();
        std::fs::remove_file(&path).ok();
        sweep(&sargs(&format!(
            "6 --samples 50 --max-shards 2 --checkpoint {path_str}"
        )))
        .unwrap();
        let err = sweep(&sargs(&format!("6 --checkpoint {path_str}"))).unwrap_err();
        assert!(err.to_string().contains("sampled"), "{err}");
        assert!(err.to_string().contains("symloc job resume"), "{err}");
        // And the reverse direction.
        std::fs::remove_file(&path).ok();
        sweep(&sargs(&format!(
            "6 --shards 4 --max-shards 1 --checkpoint {path_str}"
        )))
        .unwrap();
        let err = sweep(&sargs(&format!("6 --samples 50 --checkpoint {path_str}"))).unwrap_err();
        assert!(err.to_string().contains("exhaustive"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
