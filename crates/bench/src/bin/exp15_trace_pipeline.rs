//! Experiment E15 — the streaming trace-analysis pipeline end to end: every
//! synthetic generator runs through the exact half of the trace job and
//! the bounded-memory SHARDS estimator, and the two miss-ratio curves
//! are compared pointwise. The finale streams a 10-million-access Zipfian
//! trace over a million-address space through the sampled estimator in one
//! pass, demonstrating the `O(s_max)` memory bound at a scale the batch
//! pipeline cannot touch.
//!
//! ```sh
//! cargo run --release -p symloc-bench --bin exp15_trace_pipeline
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use symloc_bench::{fmt_f64, ResultTable};
use symloc_core::tracesweep::{
    log_spaced_sizes, FusedIngest, OnlineReuseEngine, ShardsEstimator, StreamHistogram, TracePlan,
};
use symloc_par::default_threads;
use symloc_perm::sample::random_permutation;
use symloc_trace::generators::{
    interleaved_trace, move_to_front_trace, multi_epoch_trace, random_trace, retraversal_trace,
    sawtooth_trace, stack_discipline_trace, stream_kernel_trace, strided_trace, tiled_trace,
    zipfian_trace, EpochOrder, StreamKernel,
};
use symloc_trace::stream::{GenSpec, TraceSource};
use symloc_trace::Trace;

/// Budget of the sampled estimator in the per-generator comparison.
const S_MAX: usize = 2048;

fn exact_sharded(trace: &Trace) -> StreamHistogram {
    let source = TraceSource::Memory(trace.clone());
    let threads = default_threads();
    let plan = TracePlan::exact((threads * 2).max(4));
    let mut job = FusedIngest::planned(&source, plan, threads).expect("memory source");
    job.run_pending(&source, None);
    job.exact_histogram().expect("complete").clone()
}

fn summarize(name: &str, trace: &Trace, table: &mut ResultTable) {
    let exact = exact_sharded(trace);
    let mut shards = ShardsEstimator::new(S_MAX);
    shards.record_all(trace.iter().map(|a| a.value() as u64));
    let footprint = usize::try_from(exact.cold_count()).expect("footprint fits");
    let sizes = log_spaced_sizes(footprint, 12);
    // Max error spikes exactly at a step-function knee (cyclic, strided:
    // every reuse has one identical distance, and rate rescaling shifts
    // that knee by a fraction of a percent); the mean error shows the
    // curve-wide agreement.
    let (mut worst, mut mean) = (0.0f64, 0.0f64);
    for &c in &sizes {
        let err = (shards.histogram().miss_ratio(c) - exact.miss_ratio(c)).abs();
        worst = worst.max(err);
        mean += err / sizes.len() as f64;
    }
    let half = (footprint / 2).max(1);
    table.push_row(vec![
        name.to_string(),
        trace.len().to_string(),
        footprint.to_string(),
        fmt_f64(exact.miss_ratio(half), 4),
        fmt_f64(shards.histogram().miss_ratio(half), 4),
        fmt_f64(shards.sampling_rate(), 4),
        fmt_f64(worst, 4),
        fmt_f64(mean, 4),
    ]);
}

fn main() {
    let mut rng = StdRng::seed_from_u64(15);
    let mut table = ResultTable::new(
        "exp15_trace_pipeline",
        "Streaming MRC pipeline: exact sharded engine vs SHARDS estimator on every generator \
         (max error concentrates at single-distance knees; the mean shows curve-wide agreement)",
        &[
            "generator",
            "accesses",
            "footprint",
            "exact_mr(fp/2)",
            "sampled_mr(fp/2)",
            "sample_rate",
            "max_mrc_err",
            "mean_mrc_err",
        ],
    );

    let m = 3000;
    let sigma = random_permutation(m, &mut rng);
    summarize(
        "cyclic",
        &symloc_trace::generators::cyclic_trace(m, 6),
        &mut table,
    );
    summarize("sawtooth", &sawtooth_trace(m, 6), &mut table);
    summarize("retraversal", &retraversal_trace(&sigma), &mut table);
    summarize(
        "multi_epoch",
        &multi_epoch_trace(
            m,
            &[
                EpochOrder::Forward,
                EpochOrder::Permuted(sigma),
                EpochOrder::Reverse,
                EpochOrder::Forward,
            ],
        ),
        &mut table,
    );
    summarize("random", &random_trace(m, 40_000, &mut rng), &mut table);
    summarize(
        "zipfian",
        &zipfian_trace(2 * m, 60_000, 0.9, &mut rng),
        &mut table,
    );
    summarize("strided", &strided_trace(m, 7, 6), &mut table);
    summarize("tiled", &tiled_trace(m, 64, 6), &mut table);
    summarize(
        "stack_discipline",
        &stack_discipline_trace(200, 40_000, &mut rng),
        &mut table,
    );
    summarize(
        "move_to_front",
        &move_to_front_trace(400, 2_000, 1.0, &mut rng),
        &mut table,
    );
    summarize(
        "stream_triad",
        &stream_kernel_trace(StreamKernel::Triad, m, 4),
        &mut table,
    );
    summarize(
        "interleaved",
        &interleaved_trace(
            &sawtooth_trace(m, 4),
            &zipfian_trace(m, 4 * m, 0.8, &mut rng),
        ),
        &mut table,
    );
    table.emit();

    // The scale demonstration: 10M accesses over a 1M-address space never
    // materialize — the generator streams straight into the bounded-memory
    // estimator, whose tracked set is pinned at s_max addresses.
    println!("\n# 10M-access Zipfian stream through the SHARDS estimator");
    let spec = GenSpec::parse("gen:zipf:1000000:10000000:0.7:15").expect("valid spec");
    let s_max = 8192usize;
    let start = std::time::Instant::now();
    let mut estimator = ShardsEstimator::new(s_max);
    estimator.record_all(spec.stream());
    let elapsed = start.elapsed().as_secs_f64();
    assert!(estimator.tracked_addresses() <= s_max, "budget must bind");
    #[allow(clippy::cast_precision_loss)]
    let rate = estimator.raw_accesses() as f64 / elapsed;
    println!(
        "accesses {}  sampled {}  tracked {} (s_max {s_max})  sampling rate {:.5}",
        estimator.raw_accesses(),
        estimator.sampled_accesses(),
        estimator.tracked_addresses(),
        estimator.sampling_rate(),
    );
    println!("one pass in {elapsed:.2}s  ({rate:.0} accesses/sec)");
    let footprint = estimator.estimated_footprint().round() as usize;
    println!("estimated footprint {footprint}");
    for point in estimator.mrc_points(&log_spaced_sizes(footprint.max(1), 8)) {
        println!(
            "  c = {:>8}  est miss ratio {:.4}",
            point.cache_size, point.miss_ratio
        );
    }

    // Cross-check one mid-curve point against the exact online engine (the
    // exact engine is O(footprint) memory — still streaming, just larger).
    let mut exact = OnlineReuseEngine::new();
    exact.record_all(spec.stream());
    let c = footprint.max(2) / 2;
    let exact_mr = exact.histogram().miss_ratio(c);
    let est_mr = estimator.histogram().miss_ratio(c);
    println!(
        "cross-check at c = {c}: exact {exact_mr:.4} vs sampled {est_mr:.4} (|err| {:.4})",
        (exact_mr - est_mr).abs()
    );
}
