//! `sweep-exhaustive`: `symloc sweep 11 --threads <nproc> --checkpoint F`
//! (inversions, LRU stack model), plus the traced run of permutation
//! unranking and the hit kernel.

use std::hint::black_box;
use std::path::Path;

use symloc_core::engine::{SweepEngine, SweepLevel};
use symloc_core::jsonio::{self, JsonValue};
use symloc_core::model::{CacheModel, ModelScratch};
use symloc_par::split_indices;
use symloc_perm::iter::RankRangeStream;
use symloc_perm::rank::{factorial, RankRange};
use symloc_perm::statistics::Statistic;

use crate::report::Report;
use crate::tracer::Tracer;
use crate::{check_incomplete, checked, job_snapshot, measure_commands, sys, Ctx};

fn command(m: usize, threads: usize, checkpoint: &Path) -> Vec<String> {
    let mut args = crate::words(&format!(
        "sweep {m} --threads {threads} --json --checkpoint"
    ));
    args.push(checkpoint.display().to_string());
    args
}

fn permutations(m: usize) -> Result<u128, String> {
    factorial(m).map_err(|e| e.to_string())
}

/// Compares the printed levels with the in-process sweep, and their counts
/// with m!.
fn check_output(stdout: &str, want: &[SweepLevel], m: usize) -> Result<(), String> {
    let doc = jsonio::parse(stdout)?;
    let levels = sys::json_array(&doc, "levels")?;
    let numbers = |v: Option<&JsonValue>| -> Vec<u64> {
        v.and_then(JsonValue::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(JsonValue::as_u64)
            .collect()
    };
    let got: Vec<SweepLevel> = levels
        .iter()
        .map(|l| SweepLevel {
            level: l
                .get("level")
                .and_then(JsonValue::as_usize)
                .unwrap_or(usize::MAX),
            count: l.get("count").and_then(JsonValue::as_u64).unwrap_or(0),
            hit_sums: numbers(l.get("hit_sums")),
            hit_sq_sums: numbers(l.get("hit_sq_sums")),
        })
        .collect();
    let total: u128 = got.iter().map(|l| u128::from(l.count)).sum();
    if total != permutations(m)? {
        return Err(format!("level counts sum to {total}, not {m}!"));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        _ if got.len() != want.len() => {
            Err(format!("{} levels, expected {}", got.len(), want.len()))
        }
        Some(i) => Err(format!("level {i}: {:?} != {:?}", got[i], want[i])),
        None => Ok(()),
    }
}

fn expected(m: usize, threads: usize) -> Vec<SweepLevel> {
    SweepEngine::with_threads(m, threads).sweep_levels(Statistic::Inversions, CacheModel::LruStack)
}

/// Untraced run: the full sweep repeated for the run's seconds with
/// set-up probes (`--max-shards 0`) between, every output checked.
pub fn run(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let m = ctx.sizes.sweep_m;
    let mut want = expected(m, ctx.threads);
    if ctx.corrupt {
        want[0].hit_sums[0] += 1;
    }
    let setup = |report: &mut Report| {
        let mut args = command(m, ctx.threads, &sys::fresh_path(&ctx.work, "setup.json"));
        args.extend(crate::words("--max-shards 0"));
        checked(
            report,
            "sweep set-up",
            sys::run(&ctx.symloc, &args),
            check_incomplete,
        )
    };
    let measured = |report: &mut Report| {
        let args = command(m, ctx.threads, &sys::fresh_path(&ctx.work, "sweep.json"));
        checked(report, "sweep", sys::run(&ctx.symloc, &args), |out| {
            check_output(out, &want, m)
        })
    };
    measure_commands(ctx, report, permutations(m)? as f64, setup, measured);
    Ok(())
}

/// Traced run: permutation unranking and stepping alone, then with the
/// hit kernel, over all of S_m in rank chunks; then the binary's own job
/// metrics.
pub fn profile(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let m = ctx.sizes.sweep_m;
    let total = permutations(m)?;
    let chunks: Vec<RankRange> =
        split_indices(usize::try_from(total).map_err(|e| e.to_string())?, 64)
            .iter()
            .map(|c| RankRange {
                start: c.start as u128,
                end: c.end as u128,
            })
            .collect();
    let mut tracer = Tracer::new(true);
    for &range in &chunks {
        tracer.span("perm.stream", |_| {
            let mut stream = RankRangeStream::new(m, range);
            while let Some(images) = stream.next_images() {
                black_box(images);
            }
        });
    }
    let mut kernel = ModelScratch::new(CacheModel::LruStack, m);
    for &range in &chunks {
        tracer.span("hits.stream_and_eval", |_| {
            let mut stream = RankRangeStream::new(m, range);
            while let Some(images) = stream.next_images() {
                black_box(kernel.hit_vector_into(images));
            }
        });
    }

    let metrics = sys::fresh_path(&ctx.work, "sweep-metrics.json");
    let mut args = command(m, ctx.threads, &sys::fresh_path(&ctx.work, "sweep.json"));
    args.extend(["--metrics".to_string(), metrics.display().to_string()]);
    let out = sys::run(&ctx.symloc, &args)?;
    report.check(
        "sweep output (traced run)",
        check_output(&out.stdout, &expected(m, ctx.threads), m),
    );
    let job = job_snapshot(&metrics, ctx.threads)?;

    let perms = total as f64;
    let stream_ns = tracer.self_ns("perm.stream");
    let both_ns = tracer.self_ns("hits.stream_and_eval");
    println!(
        "sweep layers: stream {:.3} s, stream + hit kernel {:.3} s over {perms} permutations",
        stream_ns / 1e9,
        both_ns / 1e9
    );
    report.metric("perm.ns_per_perm", stream_ns / perms, "ns");
    report.metric("hits.ns_per_perm", (both_ns - stream_ns) / perms, "ns");
    report.metric("sweep.par.busy_ratio", job.busy_ratio, "ratio");
    report.metric("sweep.job.save_ns", job.save_ns, "ns");
    tracer
        .write_json(&ctx.work.join("spans-sweep.json"))
        .map_err(|e| format!("cannot write spans: {e}"))
}
