//! `trace-fused`: `symloc trace mrc <file>.sltr --exact --sample 16384
//! --shards 4 --threads <nproc> --checkpoint F` over a scattered-address
//! Zipf trace, plus the traced replay of its layers.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use symloc_core::jsonio::{self, JsonValue};
use symloc_core::tracesweep::{
    fused_chunk_partial, log_spaced_sizes, AddrInterner, FusedIngest, MergeState, MrcPoint,
    OnlineReuseEngine, SampledIngest, ShardsEstimator, SHARDS_MODULUS,
};
use symloc_par::split_indices;
use symloc_trace::stream::{AccessBlocks, BlockRead, CountingSink, TraceSource, BLOCK_LEN};

use crate::report::{median, Report};
use crate::tracer::Tracer;
use crate::{check_incomplete, checked, inputs, job_snapshot, measure_commands, sys, Ctx};

/// Total SHARDS budget (`--sample`) and hash-shard / chunk count
/// (`--shards`) of the measured command.
const SAMPLE: usize = 16384;
const SHARDS: usize = 4;
/// MRC points requested from the binary and compared by the checks.
const POINTS: usize = 32;

/// The answers the binary must print, computed in-process.
pub struct Expected {
    accesses: u64,
    exact_footprint: u64,
    exact: Vec<MrcPoint>,
    sampled_footprint: u64,
    min_rate: f64,
    sampled: Vec<MrcPoint>,
}

/// The exact curve from a sequential `OnlineReuseEngine` over the
/// generated accesses, and the sampled curve from `SampledIngest` over
/// the file at the same shard count.
fn expected(path: &Path, accesses: &[u64], threads: usize) -> Result<Expected, String> {
    let mut engine = OnlineReuseEngine::new();
    for block in accesses.chunks(BLOCK_LEN) {
        engine.record_block(block);
    }
    let histogram = engine.histogram();
    let exact_footprint = histogram.cold_count();
    let exact = histogram.mrc_points(&log_spaced_sizes(exact_footprint as usize, POINTS));
    let source = TraceSource::Binary(path.to_path_buf());
    let mut sampled = SampledIngest::new(&source, SHARDS, SAMPLE / SHARDS, threads)?;
    sampled.run_pending(&source, None);
    let summary = sampled.merged().ok_or("sampled ingest did not complete")?;
    let sampled_footprint = summary.estimated_footprint().round().max(1.0) as usize;
    Ok(Expected {
        accesses: accesses.len() as u64,
        exact_footprint,
        exact,
        sampled_footprint: sampled_footprint as u64,
        min_rate: summary.min_rate,
        sampled: summary
            .histogram
            .mrc_points(&log_spaced_sizes(sampled_footprint, POINTS)),
    })
}

fn field<'a>(doc: &'a JsonValue, path: &[&str]) -> Result<&'a JsonValue, String> {
    path.iter().try_fold(doc, |value, key| {
        value
            .get(key)
            .ok_or_else(|| format!("output has no {}", path.join(".")))
    })
}

/// Compares a printed `[[size, ratio], ...]` curve point by point; ratios
/// must be bit-identical.
fn same_curve(printed: &JsonValue, expected: &[MrcPoint], what: &str) -> Result<(), String> {
    let points = printed
        .as_array()
        .ok_or_else(|| format!("{what} curve is not an array"))?;
    if points.len() != expected.len() {
        return Err(format!(
            "{what} curve has {} points, expected {}",
            points.len(),
            expected.len()
        ));
    }
    for (got, want) in points.iter().zip(expected) {
        let pair = got.as_array().unwrap_or_default();
        let size = pair.first().and_then(JsonValue::as_u64);
        let ratio = pair.get(1).and_then(JsonValue::as_f64);
        if size != Some(want.cache_size as u64)
            || ratio.map(f64::to_bits) != Some(want.miss_ratio.to_bits())
        {
            return Err(format!(
                "{what} curve point {got:?} != [{}, {}]",
                want.cache_size, want.miss_ratio
            ));
        }
    }
    Ok(())
}

fn check_output(stdout: &str, exp: &Expected) -> Result<(), String> {
    let doc = jsonio::parse(stdout)?;
    let number = |path: &[&str]| field(&doc, path).map(|v| v.as_u64());
    if number(&["accesses"])? != Some(exp.accesses) || number(&["streamed"])? != Some(exp.accesses)
    {
        return Err(format!("accesses/streamed differ from {}", exp.accesses));
    }
    if number(&["exact", "footprint"])? != Some(exp.exact_footprint) {
        return Err(format!(
            "exact footprint differs from {}",
            exp.exact_footprint
        ));
    }
    same_curve(field(&doc, &["exact", "mrc"])?, &exp.exact, "exact")?;
    if number(&["sampled", "footprint"])? != Some(exp.sampled_footprint) {
        return Err(format!(
            "sampled footprint differs from {}",
            exp.sampled_footprint
        ));
    }
    let min_rate = field(&doc, &["sampled", "min_rate"])?.as_f64();
    if min_rate.map(f64::to_bits) != Some(exp.min_rate.to_bits()) {
        return Err(format!("min_rate {min_rate:?} != {}", exp.min_rate));
    }
    same_curve(field(&doc, &["sampled", "mrc"])?, &exp.sampled, "sampled")
}

/// The measured command line, with `--points` and `--json` added so the
/// checks can read both curves.
fn command(trace: &Path, checkpoint: &Path, threads: usize) -> Vec<String> {
    let mut args = crate::words("trace mrc");
    args.push(trace.display().to_string());
    args.extend(crate::words(&format!(
        "--exact --sample {SAMPLE} --shards {SHARDS} --threads {threads} --points {POINTS} --json --checkpoint"
    )));
    args.push(checkpoint.display().to_string());
    args
}

/// Untraced run: the full command repeated for the run's seconds with
/// set-up probes between, every output checked.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let (trace, accesses) = inputs::build_trace(&ctx.work, &ctx.sizes, ctx.seed)?;
    let mut exp = expected(&trace, &accesses, ctx.threads)?;
    if ctx.corrupt {
        let last = exp.exact.last_mut().ok_or("empty expected curve")?;
        last.miss_ratio = f64::from_bits(last.miss_ratio.to_bits() ^ 1);
    }

    let setup = |report: &mut Report| {
        let mut args = command(
            &trace,
            &sys::fresh_path(&ctx.work, "setup.json"),
            ctx.threads,
        );
        args.extend(crate::words("--max-chunks 0"));
        checked(
            report,
            "trace mrc set-up",
            sys::run(&ctx.symloc, &args),
            check_incomplete,
        )
    };
    let measured = |report: &mut Report| {
        let args = command(
            &trace,
            &sys::fresh_path(&ctx.work, "fused.json"),
            ctx.threads,
        );
        checked(report, "trace mrc", sys::run(&ctx.symloc, &args), |out| {
            check_output(out, &exp)
        })
    };
    measure_commands(ctx, report, accesses.len() as f64, setup, measured);
    Ok(())
}

/// Times every `next_block` of a block stream as a `decode` span.
struct TimedBlocks<'a> {
    inner: AccessBlocks,
    tracer: &'a mut Tracer,
}

impl BlockRead for TimedBlocks<'_> {
    fn next_block(&mut self, buf: &mut Vec<u64>) -> usize {
        let inner = &mut self.inner;
        self.tracer.span("decode", |_| inner.next_block(buf))
    }
}

/// The binary's per-chunk path, single-threaded: decode and fold each
/// chunk (`fused_chunk_partial`), absorb it into the exact merge, and
/// replay its routed accesses through the shard estimators.
fn replay_chunks(tracer: &mut Tracer, source: &TraceSource, bounds: &[(u64, u64)]) -> MergeState {
    let mut merge = MergeState::new();
    let mut estimators: Vec<ShardsEstimator> = (0..SHARDS as u64)
        .map(|i| ShardsEstimator::for_shard(SAMPLE / SHARDS, SHARDS_MODULUS, i, SHARDS as u64))
        .collect();
    for &(start, end) in bounds {
        let partial = tracer.span("chunk.partial", |t| {
            let inner = t.span("decode", |_| source.stream_blocks_range(start, end));
            let mut blocks = TimedBlocks {
                inner: inner.expect("validated source streams"),
                tracer: t,
            };
            fused_chunk_partial(&mut blocks, SHARDS, &mut CountingSink::new())
        });
        tracer.span("merge.absorb", |_| merge.absorb(&partial.exact));
        tracer.span("shards.replay", |_| {
            for (estimator, slice) in estimators.iter_mut().zip(&partial.routed) {
                for &addr in slice {
                    estimator.record(addr);
                }
            }
        });
    }
    black_box(&estimators);
    merge
}

/// Spans of one chunk replay on the binary's path.
const REPLAY_LAYERS: [&str; 4] = ["decode", "chunk.partial", "merge.absorb", "shards.replay"];
/// Spans that run once per command on the binary's path. With
/// `REPLAY_LAYERS` their self times should add up to its single-thread
/// wall time.
const ONCE_LAYERS: [&str; 3] = ["setup.open", "checkpoint.encode", "checkpoint.write"];
/// Untraced/traced replay pairs behind the overhead and coverage figures.
const REPLAY_PAIRS: usize = 3;

/// Runs the measured command with `--metrics` on `threads` threads,
/// checks its output, and returns its wall time.
fn run_binary(
    ctx: &Ctx,
    trace: &Path,
    exp: &Expected,
    threads: usize,
    report: &mut Report,
) -> Result<f64, String> {
    let metrics = sys::fresh_path(&ctx.work, "metrics.json");
    let mut args = command(trace, &sys::fresh_path(&ctx.work, "bin.json"), threads);
    args.extend(["--metrics".to_string(), metrics.display().to_string()]);
    let out = sys::run(&ctx.symloc, &args)?;
    report.check(
        "trace mrc output (traced run)",
        check_output(&out.stdout, exp),
    );
    Ok(out.wall.as_secs_f64())
}

/// Traced run of the trace layers.
pub fn profile(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let (trace, accesses) = inputs::build_trace(&ctx.work, &ctx.sizes, ctx.seed)?;
    let exp = expected(&trace, &accesses, ctx.threads)?;
    let n = accesses.len() as f64;
    let source = TraceSource::Binary(trace.clone());
    let mut tracer = Tracer::new(true);

    // `FusedIngest::new` opens the source through `total_accesses`
    // (sidecar validation) and plans the chunks, as the binary does.
    let ingest = tracer.span("setup.open", |_| {
        FusedIngest::new(&source, SHARDS, SHARDS, SAMPLE / SHARDS, 1)
    })?;
    let bounds: Vec<(u64, u64)> = split_indices(accesses.len(), ingest.chunk_count())
        .iter()
        .map(|c| (c.start as u64, c.end as u64))
        .collect();

    // Untraced and traced replays in pairs, alternating which goes first
    // so neither always meets a cold or a warm host. The overhead is the
    // median of the pairs' ratios. A `--threads 1` run of the binary
    // follows each pair; their median wall is the coverage denominator.
    let (mut overheads, mut replay_path_ns, mut single_walls) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut replay_self: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for pair in 0..REPLAY_PAIRS {
        let mut walls = [0.0f64; 2];
        let order = if pair % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            let mark = tracer.mark();
            let clock = Instant::now();
            let merged = if traced {
                replay_chunks(&mut tracer, &source, &bounds)
            } else {
                replay_chunks(&mut Tracer::new(false), &source, &bounds)
            };
            walls[usize::from(traced)] = clock.elapsed().as_secs_f64();
            let cold = merged.histogram().cold_count();
            report.check(
                "replayed exact footprint",
                (cold == exp.exact_footprint)
                    .then_some(())
                    .ok_or_else(|| format!("replay footprint {cold} != {}", exp.exact_footprint)),
            );
            if traced {
                let layers = tracer.layers_from(mark);
                let mut path_ns = 0.0;
                for name in REPLAY_LAYERS {
                    let ns = layers.get(name).map_or(0.0, |l| l.self_ns as f64);
                    replay_self.entry(name).or_default().push(ns);
                    path_ns += ns;
                }
                replay_path_ns.push(path_ns);
            }
        }
        overheads.push((walls[1] - walls[0]) / walls[0]);
        single_walls.push(run_binary(ctx, &trace, &exp, 1, report)?);
    }
    let replay_ns = |name: &str| replay_self.get(name).map_or(0.0, |v| median(v));

    // Checkpoints as `--threads 1` writes them: after every chunk. The
    // chunks themselves run untraced; only the saves are timed.
    let mut ingest = ingest;
    let checkpoint = sys::fresh_path(&ctx.work, "replay.json");
    let mut bytes = 0usize;
    while !ingest.is_complete() {
        ingest.run_pending(&source, Some(1));
        let json = tracer.span("checkpoint.encode", |_| ingest.to_json());
        bytes = json.len();
        tracer
            .span("checkpoint.write", |_| {
                jsonio::save_atomic(&checkpoint, &json)
            })
            .map_err(|e| format!("cannot write checkpoint: {e}"))?;
    }

    // Probes below the chunk fold: interning alone, and the sequential
    // exact engine (interning + Fenwick timeline + histogram).
    let mut interner = AddrInterner::new();
    let mut engine = OnlineReuseEngine::new();
    for block in accesses.chunks(BLOCK_LEN) {
        tracer.span("intern", |_| {
            for &addr in block {
                black_box(interner.intern(addr));
            }
        });
        tracer.span("exact", |_| engine.record_block(block));
    }

    // The binary on every thread, for the job runner's own metrics.
    run_binary(ctx, &trace, &exp, ctx.threads, report)?;
    let job = job_snapshot(&ctx.work.join("metrics.json"), ctx.threads)?;

    let path_ns =
        median(&replay_path_ns) + ONCE_LAYERS.iter().map(|l| tracer.self_ns(l)).sum::<f64>();
    let single_s = median(&single_walls);
    tracer.print_layers("trace");
    println!(
        "trace replay: overhead per pair {overheads:.4?}; path self sum {:.3} s (median of {REPLAY_PAIRS} replays) vs binary --threads 1 walls {single_walls:.3?} s",
        path_ns / 1e9
    );
    report.metric("decode.ns_per_access", replay_ns("decode") / n, "ns");
    report.metric("intern.ns_per_access", tracer.self_ns("intern") / n, "ns");
    report.metric("exact.ns_per_access", tracer.self_ns("exact") / n, "ns");
    report.metric("exact.compactions", engine.compactions() as f64, "count");
    report.metric("chunk.partial_ns", replay_ns("chunk.partial"), "ns");
    report.metric("merge.absorb_ns", replay_ns("merge.absorb"), "ns");
    report.metric("shards.replay_ns", replay_ns("shards.replay"), "ns");
    report.metric(
        "shards.replay_share",
        replay_ns("shards.replay") / path_ns,
        "ratio",
    );
    report.metric("checkpoint.bytes", bytes as f64, "B");
    for (metric, layer) in [
        ("checkpoint.encode_ns", "checkpoint.encode"),
        ("checkpoint.write_ns", "checkpoint.write"),
        ("setup.open_ns", "setup.open"),
    ] {
        report.metric(metric, tracer.self_ns(layer), "ns");
    }
    report.metric("job.unit_ns", job.unit_ns, "ns");
    report.metric("job.absorb_ns", job.absorb_ns, "ns");
    report.metric("job.save_ns", job.save_ns, "ns");
    report.metric("par.busy_ratio", job.busy_ratio, "ratio");
    report.metric(
        "tracing.coverage_ratio",
        path_ns / (single_s * 1e9),
        "ratio",
    );
    report.metric("tracing.overhead_ratio", median(&overheads), "ratio");
    tracer
        .write_json(&ctx.work.join("spans-trace.json"))
        .map_err(|e| format!("cannot write spans: {e}"))
}
