//! The trace-ingestion throughput suite behind the `trace_measurements`
//! section of `BENCH_sweep.json`.
//!
//! The streaming trace-analysis subsystem gets the same treatment the sweep
//! engine got in `sweepbench`: a fixed set of named configurations —
//! exact single-thread, exact sharded on all threads, the SHARDS sampled
//! estimator, and the fused single-pass vs two-pass comparison pair —
//! measured as `accesses_per_sec` over a canonical Zipfian workload,
//! committed to the baseline file and enforced by the `bench_gate` CI
//! binary with the same tolerance machinery. Derived speedup ratios
//! ([`SPEEDUP_RATIOS`]) are committed next to the raw measurements and
//! gated too — informationally on hosts whose thread count makes the
//! parallel-vs-sequential comparison meaningless.
//!
//! The workload trace is materialized once *outside* the timers so the
//! numbers measure the engines, not the generator.

use crate::json_escape;
use crate::sweepbench::{run_spread_percent, GateVerdict};
use symloc_core::jsonio::{self, JsonValue};
use symloc_core::obs::{MetricsRegistry, Span};
use symloc_core::partition::{solve, Bounds, TenantCurve};
use symloc_core::serve::ServeState;
use symloc_core::tracesweep::{
    FusedIngest, MrcPoint, OnlineReuseEngine, ShardsEstimator, TracePlan,
};
use symloc_par::default_threads;
use symloc_trace::binio::{sltr_index_path, write_sltr, write_sltr_indexed, SltrReader};
use symloc_trace::io::write_trace;
use symloc_trace::stream::{
    build_text_index, AccessSink as _, GenSpec, MeteredSink, ReadPlan, TraceSource,
};
use symloc_trace::wire::WIRE_BLOCK_LEN;
use symloc_trace::Trace;

/// The canonical tracebench workload: a skewed Zipfian trace large enough
/// that throughput is steady-state but small enough for CI.
#[must_use]
pub fn workload_spec() -> GenSpec {
    GenSpec::Zipf {
        m: 20_000,
        len: 1_000_000,
        s: 0.8,
        seed: 42,
    }
}

/// The sampled estimator's budget in the measured configuration.
pub const SAMPLE_BUDGET: usize = 1024;

/// The *total* tracked-address budget of the parallel-sampled comparison
/// pair: large enough relative to the workload footprint that timeline work
/// (not the per-access hash test) dominates, which is the regime hash-space
/// sharding parallelizes.
pub const SAMPLED_SHARDED_TOTAL_BUDGET: usize = 16_384;

/// The chunk-index interval of the indexed-ingest configuration.
pub const BENCH_INDEX_INTERVAL: u64 = 4096;

/// Tenant count of the serve fan-out configuration: the daemon's tenant
/// table fed the canonical workload round-robin across this many
/// estimators.
pub const SERVE_TENANTS: usize = 8;

/// Tenant count of the partition-solver configuration: a full shared-cache
/// fleet, larger than any serve table the other configurations use.
pub const PARTITION_TENANTS: usize = 32;

/// Points per synthetic MRC in the partition-solver configuration.
pub const PARTITION_POINTS: usize = 64;

/// Solves per timed iteration of the partition-solver configuration: one
/// solve is microseconds, so the iteration batches enough of them that the
/// timer measures the solver rather than clock quantization.
pub const PARTITION_SOLVES_PER_ITER: usize = 64;

/// The partition-solver workload: [`PARTITION_TENANTS`] synthetic tenants,
/// each a [`PARTITION_POINTS`]-point MRC with exponential decay plus an
/// LRU cliff at a tenant-dependent position, so the convex minorants are
/// non-trivial (the cliffs force hull vertices to drop) and the weights
/// are all distinct. Fully deterministic — the gate compares committed
/// numbers, so the workload must not drift.
#[must_use]
pub fn partition_bench_tenants() -> Vec<TenantCurve> {
    (0..PARTITION_TENANTS)
        .map(|t| {
            let cliff = 8 + (t * 7) % 48;
            let stride = (t % 5 + 1) * 16;
            let points: Vec<MrcPoint> = (1..=PARTITION_POINTS)
                .map(|i| {
                    #[allow(clippy::cast_precision_loss)]
                    let decay = (-(i as f64) / (12.0 + t as f64)).exp();
                    let mut ratio = 0.15 + 0.85 * decay;
                    if i >= cliff {
                        ratio *= 0.5;
                    }
                    MrcPoint {
                        cache_size: i * stride,
                        miss_ratio: ratio,
                    }
                })
                .collect();
            #[allow(clippy::cast_precision_loss)]
            let weight = 1.0 + t as f64;
            TenantCurve::from_points(&format!("tenant{t}"), weight, &points)
                .expect("the synthetic curves are monotone by construction")
        })
        .collect()
}

/// One measured trace-ingestion configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeasurement {
    /// Stable configuration name (the gate matches on it).
    pub name: String,
    /// Accesses processed per iteration.
    pub accesses: u64,
    /// Worker threads the configuration used.
    pub threads: usize,
    /// Hardware threads available when this measurement ran.
    pub hardware_threads: usize,
    /// Median throughput over the timed runs.
    pub accesses_per_sec: f64,
}

/// Runs one trace job of `plan` over `source` to completion.
fn run_job(source: &TraceSource, plan: TracePlan, threads: usize) {
    let mut job = FusedIngest::planned(source, plan, threads).expect("validated bench source");
    job.run_pending(source, None);
    assert!(job.is_complete());
}

/// Median-of-`runs` throughput of `ingest`, which processes `accesses`
/// accesses per call. One warmup call precedes the timed runs; each timed
/// run is a [`Span`] recorded into a per-configuration registry histogram,
/// whose min/max give the printed run-to-run spread.
pub fn measure_trace(
    name: &str,
    accesses: u64,
    threads: usize,
    runs: usize,
    mut ingest: impl FnMut(),
) -> TraceMeasurement {
    ingest();
    let mut registry = MetricsRegistry::new();
    let nanos: Vec<u64> = (0..runs.max(1))
        .map(|_| time_run(&mut registry, &mut ingest))
        .collect();
    summarize(name, accesses, threads, nanos, &registry)
}

/// Both halves of a comparison pair, measured alternately: one warmup call
/// of each, then `runs` (at least [`PAIR_RUNS`]) timed calls of each, the
/// two in turn, so drift of the host between runs moves both medians
/// alike instead of their ratio. Single-threaded; each half is summarized
/// as [`measure_trace`] does.
fn measure_trace_pair(
    names: [&str; 2],
    accesses: u64,
    runs: usize,
    mut first: impl FnMut(),
    mut second: impl FnMut(),
) -> [TraceMeasurement; 2] {
    first();
    second();
    let mut registries = [MetricsRegistry::new(), MetricsRegistry::new()];
    let mut nanos = [Vec::new(), Vec::new()];
    for _ in 0..runs.max(PAIR_RUNS) {
        nanos[0].push(time_run(&mut registries[0], &mut first));
        nanos[1].push(time_run(&mut registries[1], &mut second));
    }
    let [first_nanos, second_nanos] = nanos;
    [
        summarize(names[0], accesses, 1, first_nanos, &registries[0]),
        summarize(names[1], accesses, 1, second_nanos, &registries[1]),
    ]
}

/// Timed runs per half of a [`measure_trace_pair`].
const PAIR_RUNS: usize = 9;

/// One timed call of `ingest`, recorded into `registry`'s run histogram.
fn time_run(registry: &mut MetricsRegistry, ingest: &mut impl FnMut()) -> u64 {
    let span = Span::start();
    ingest();
    span.record(registry, "bench.run_nanos")
}

/// The median throughput of timed runs, printed with their spread.
fn summarize(
    name: &str,
    accesses: u64,
    threads: usize,
    mut nanos: Vec<u64>,
    registry: &MetricsRegistry,
) -> TraceMeasurement {
    nanos.sort_unstable();
    let median_nanos = nanos[nanos.len() / 2].max(1);
    #[allow(clippy::cast_precision_loss)]
    let accesses_per_sec = accesses as f64 * 1e9 / median_nanos as f64;
    let spread = run_spread_percent(registry);
    println!(
        "{name:<44} n={accesses:<9} threads={threads:<3} {accesses_per_sec:>14.0} accesses/sec \
         (spread {spread:.1}%)"
    );
    TraceMeasurement {
        name: name.to_string(),
        accesses,
        threads,
        hardware_threads: default_threads(),
        accesses_per_sec,
    }
}

/// Runs the whole trace-ingestion measurement suite over the canonical
/// workload: the exact engine sequentially, the chunk-sharded exact ingest
/// on every hardware thread, the bounded-memory sampled estimator, the
/// parallel-sampled comparison pair (sequential vs hash-sharded at the same
/// total budget), and the `.sltr` sharded-ingest pair (decode-skip vs
/// sidecar-indexed seeks).
#[must_use]
pub fn measure_trace_suite(runs: usize) -> Vec<TraceMeasurement> {
    let threads = default_threads();
    let trace: Trace = workload_spec().materialize();
    let accesses = trace.len() as u64;
    let addrs: Vec<u64> = trace.iter().map(|a| a.value() as u64).collect();

    // The .sltr ingest pair reads real files (that is the point: seeks vs
    // decode-skips); the payloads live in the temp dir for the suite's
    // lifetime.
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let plain_path = dir.join(format!("symloc_tracebench_{pid}_plain.sltr"));
    let indexed_path = dir.join(format!("symloc_tracebench_{pid}_indexed.sltr"));
    let text_path = dir.join(format!("symloc_tracebench_{pid}.trace"));
    write_sltr(&trace, &plain_path).expect("temp dir is writable");
    write_sltr_indexed(&trace, &indexed_path, BENCH_INDEX_INTERVAL).expect("temp dir is writable");
    write_trace(&trace, &text_path).expect("temp dir is writable");

    let source = TraceSource::Memory(trace);
    let chunks = (threads * 4).max(8);
    // The metering-overhead pair: the same exact engine fed the same
    // 4096-access blocks through `record_block` (the path every block
    // consumer takes), bare vs wrapped in a `MeteredSink` that splits
    // decode from compute time, so the throughput ratio isolates the
    // per-block `Instant` pair — the observability tax. `bench_gate`
    // enforces an absolute floor on it (metering must stay within a few
    // percent of free) on every host, since the pair is single-threaded
    // and host-symmetric; its halves alternate run by run, so the ratio
    // compares runs made under the same load.
    let mut measurements = Vec::from(measure_trace_pair(
        [
            "trace_exact_single_thread",
            "trace_exact_metered_single_thread",
        ],
        accesses,
        runs,
        || {
            let mut engine = OnlineReuseEngine::new();
            for block in addrs.chunks(4096) {
                engine.record_block(block);
            }
        },
        || {
            let mut sink = MeteredSink::new(OnlineReuseEngine::new());
            for block in addrs.chunks(4096) {
                sink.on_block(block);
            }
            std::hint::black_box(sink.compute_nanos());
        },
    ));
    measurements.push(measure_trace(
        "trace_exact_sharded_all_threads",
        accesses,
        threads,
        runs.min(3),
        || run_job(&source, TracePlan::exact(chunks), threads),
    ));
    measurements.push(measure_trace(
        "trace_shards_sampled_single_thread",
        accesses,
        1,
        runs,
        || {
            let mut estimator = ShardsEstimator::new(SAMPLE_BUDGET);
            estimator.record_all(addrs.iter().copied());
        },
    ));
    // The serve-daemon fan-out: the same workload demultiplexed
    // round-robin across a full tenant table of estimators, wire-protocol
    // block size, through `ServeState::record_block` — the per-access cost
    // a `symloc serve` deployment pays over a single estimator (tenant
    // lookup + smaller per-tenant working sets).
    measurements.push(measure_trace(
        "serve_tenant_fanout_single_thread",
        accesses,
        1,
        runs,
        || {
            let mut state =
                ServeState::new(SAMPLE_BUDGET, SERVE_TENANTS).expect("valid serve config");
            let indices: Vec<usize> = (0..SERVE_TENANTS)
                .map(|t| {
                    state
                        .ensure_tenant(&format!("tenant{t}"))
                        .expect("under the cap")
                })
                .collect();
            for (i, block) in addrs.chunks(WIRE_BLOCK_LEN).enumerate() {
                state.record_block(indices[i % SERVE_TENANTS], block);
            }
            std::hint::black_box(state.total_accesses());
        },
    ));
    // The partitioner: the marginal-gain solver over a full fleet of
    // synthetic curves (hull construction + heap-driven allocation per
    // solve), batched so one timed iteration is solver-bound. "Accesses"
    // here are curve points consumed — the unit a `PARTITION` wire
    // request pays per tenant.
    let partition_tenants = partition_bench_tenants();
    let partition_bounds = vec![Bounds::default(); partition_tenants.len()];
    let partition_budget: u64 = partition_tenants
        .iter()
        .map(TenantCurve::max_size)
        .sum::<u64>()
        / 2;
    measurements.push(measure_trace(
        "partition_solver_single_thread",
        (PARTITION_TENANTS * PARTITION_POINTS * PARTITION_SOLVES_PER_ITER) as u64,
        1,
        runs,
        || {
            for _ in 0..PARTITION_SOLVES_PER_ITER {
                let solution = solve(&partition_tenants, partition_budget, &partition_bounds)
                    .expect("the bench fleet is feasible");
                std::hint::black_box(solution.allocated);
            }
        },
    ));
    // The parallel-sampled pair: the same total budget run as one
    // sequential estimator and as the sampled-only trace job with
    // `max(2, threads)` hash shards across all threads. Their ratio is the
    // sampled-path parallel speedup.
    measurements.push(measure_trace(
        "trace_sampled_seq_budget16k_single_thread",
        accesses,
        1,
        runs.min(3),
        || {
            let mut estimator = ShardsEstimator::new(SAMPLED_SHARDED_TOTAL_BUDGET);
            estimator.record_all(addrs.iter().copied());
        },
    ));
    let hash_shards = threads.max(2);
    let sampled_budget = (SAMPLED_SHARDED_TOTAL_BUDGET / hash_shards).max(1);
    measurements.push(measure_trace(
        "trace_sampled_hash_sharded_all_threads",
        accesses,
        threads,
        runs.min(3),
        || {
            run_job(
                &source,
                TracePlan::sampled(chunks, hash_shards, sampled_budget),
                threads,
            )
        },
    ));
    // The same sampled-only job over the un-indexed text file, a source
    // that does not seek: its chunks share readers instead of re-parsing
    // the prefix.
    let text_source = TraceSource::Text(text_path.clone());
    measurements.push(measure_trace(
        "trace_sampled_text_unindexed_all_threads",
        accesses,
        threads,
        runs.min(3),
        || {
            run_job(
                &text_source,
                TracePlan::sampled(chunks, hash_shards, sampled_budget),
                threads,
            )
        },
    ));
    // The .sltr sharded-ingest pair: identical analysis, but the chunk
    // workers either decode their way to their range through shared
    // readers or seek via the sidecar index. Their ratio is the index's
    // ingest speedup.
    let plain_source = TraceSource::Binary(plain_path.clone());
    measurements.push(measure_trace(
        "trace_exact_sltr_decode_skip_all_threads",
        accesses,
        threads,
        runs.min(3),
        || run_job(&plain_source, TracePlan::exact(chunks), threads),
    ));
    let indexed_source = TraceSource::Binary(indexed_path.clone());
    measurements.push(measure_trace(
        "trace_exact_sltr_indexed_all_threads",
        accesses,
        threads,
        runs.min(3),
        || run_job(&indexed_source, TracePlan::exact(chunks), threads),
    ));
    // The fused-pass pair: the exact + sampled analyses over the indexed
    // *text* payload, first as two passes (an exact-only job followed by a
    // sampled-only job — two full decodes of the file), then as one job
    // with both halves that decodes every access exactly once. Both
    // iterations produce the same two curves, so their ratio is the
    // single-pass wall-time speedup. Text is the decode-expensive format,
    // which is exactly the regime the single pass exists for.
    build_text_index(&text_path, BENCH_INDEX_INTERVAL)
        .expect("written trace")
        .write(sltr_index_path(&text_path))
        .expect("temp dir is writable");
    measurements.push(measure_trace(
        "trace_two_pass_exact_plus_sampled_all_threads",
        accesses,
        threads,
        runs.min(3),
        || {
            run_job(&text_source, TracePlan::exact(chunks), threads);
            let plan = TracePlan::sampled(chunks, hash_shards, sampled_budget);
            run_job(&text_source, plan, threads);
        },
    ));
    measurements.push(measure_trace(
        "trace_fused_single_pass_all_threads",
        accesses,
        threads,
        runs.min(3),
        || {
            let plan = TracePlan::both(chunks, hash_shards, sampled_budget);
            run_job(&text_source, plan, threads);
        },
    ));
    // Decode-only microbenches: the format layer's contribution with the
    // engine excluded — the text block reader (unplanned, so the sidecar
    // written above is not read), one-varint-at-a-time `.sltr` decode, and
    // the zero-copy block decode. Each folds the decoded accesses into a
    // black-boxed sum so the decode work cannot be optimized away.
    measurements.push(measure_trace(
        "trace_decode_text_single_thread",
        accesses,
        1,
        runs.min(3),
        || {
            let mut blocks = text_source
                .read_blocks(&ReadPlan::default(), 0, u64::MAX)
                .expect("written trace");
            let mut buf = Vec::new();
            let mut sum = 0u64;
            while blocks.next_block(&mut buf) > 0 {
                for &addr in &buf {
                    sum = sum.wrapping_add(addr);
                }
            }
            std::hint::black_box(sum);
        },
    ));
    measurements.push(measure_trace(
        "trace_decode_sltr_varint_single_thread",
        accesses,
        1,
        runs,
        || {
            let file = std::fs::File::open(&plain_path).expect("written payload");
            let reader = SltrReader::new(file).expect("written payload");
            let mut sum = 0u64;
            for item in reader {
                sum = sum.wrapping_add(item.expect("written payload"));
            }
            std::hint::black_box(sum);
        },
    ));
    measurements.push(measure_trace(
        "trace_decode_sltr_block_single_thread",
        accesses,
        1,
        runs,
        || {
            let mut blocks = plain_source
                .stream_blocks_range(0, accesses)
                .expect("written payload");
            let mut buf = Vec::new();
            let mut sum = 0u64;
            while blocks.next_block(&mut buf) > 0 {
                for &addr in &buf {
                    sum = sum.wrapping_add(addr);
                }
            }
            std::hint::black_box(sum);
        },
    ));
    std::fs::remove_file(sltr_index_path(&text_path)).ok();
    std::fs::remove_file(&text_path).ok();
    std::fs::remove_file(&plain_path).ok();
    std::fs::remove_file(sltr_index_path(&indexed_path)).ok();
    std::fs::remove_file(&indexed_path).ok();
    measurements
}

/// The derived speedup ratios committed next to the raw measurements:
/// `(json_field, numerator_config, denominator_config)`, each the
/// throughput ratio of a comparison pair measured over the same workload.
/// The gate re-derives every fresh ratio from this table, so adding a pair
/// here is all it takes to commit and gate a new ratio.
pub const SPEEDUP_RATIOS: [(&str, &str, &str); 4] = [
    (
        "trace_sampled_sharded_speedup",
        "trace_sampled_hash_sharded_all_threads",
        "trace_sampled_seq_budget16k_single_thread",
    ),
    (
        "trace_indexed_ingest_speedup",
        "trace_exact_sltr_indexed_all_threads",
        "trace_exact_sltr_decode_skip_all_threads",
    ),
    (
        "trace_fused_speedup",
        "trace_fused_single_pass_all_threads",
        "trace_two_pass_exact_plus_sampled_all_threads",
    ),
    (
        "trace_metered_overhead",
        "trace_exact_metered_single_thread",
        "trace_exact_single_thread",
    ),
];

/// Derives the named [`SPEEDUP_RATIOS`] entry from a measurement set, if
/// both halves of its comparison pair are present.
#[must_use]
pub fn speedup_ratio(measurements: &[TraceMeasurement], ratio_name: &str) -> Option<f64> {
    let (_, numer, denom) = SPEEDUP_RATIOS.iter().find(|(n, _, _)| *n == ratio_name)?;
    ratio_of(measurements, numer, denom)
}

/// The sampled-path parallel speedup: hash-sharded all-threads throughput
/// over the sequential estimator at the same total budget, if both
/// measurements are present.
#[must_use]
pub fn sampled_sharded_speedup(measurements: &[TraceMeasurement]) -> Option<f64> {
    speedup_ratio(measurements, "trace_sampled_sharded_speedup")
}

/// The sidecar index's ingest speedup: indexed seeks over decode-skips on
/// the identical sharded `.sltr` ingest, if both measurements are present.
#[must_use]
pub fn indexed_ingest_speedup(measurements: &[TraceMeasurement]) -> Option<f64> {
    speedup_ratio(measurements, "trace_indexed_ingest_speedup")
}

/// The fused single-pass speedup: one broadcast pass feeding the exact and
/// sampled engines over running them as two separate passes, if both
/// measurements are present.
#[must_use]
pub fn fused_speedup(measurements: &[TraceMeasurement]) -> Option<f64> {
    speedup_ratio(measurements, "trace_fused_speedup")
}

/// The metering-overhead ratio: the exact engine fed through a
/// [`MeteredSink`] over the bare engine on the same single-threaded
/// access stream, if both measurements are present. ~1.0 means metering
/// is effectively free; `bench_gate` fails when it drops below its
/// absolute floor.
#[must_use]
pub fn metered_overhead_ratio(measurements: &[TraceMeasurement]) -> Option<f64> {
    speedup_ratio(measurements, "trace_metered_overhead")
}

fn ratio_of(measurements: &[TraceMeasurement], numer: &str, denom: &str) -> Option<f64> {
    let rate = |name: &str| {
        measurements
            .iter()
            .find(|t| t.name == name)
            .map(|t| t.accesses_per_sec)
    };
    let (n, d) = (rate(numer)?, rate(denom)?);
    (d > 0.0).then_some(n / d)
}

/// Renders the suite as the `trace_measurements` JSON array (the sweep
/// side of the document is rendered by `sweepbench::suite_json`, which
/// embeds this).
#[must_use]
pub fn trace_measurements_json(measurements: &[TraceMeasurement]) -> String {
    let mut json = String::from("  \"trace_unit\": \"accesses_per_sec\",\n");
    json.push_str("  \"trace_measurements\": [\n");
    for (i, t) in measurements.iter().enumerate() {
        let sep = if i + 1 < measurements.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"accesses_per_iteration\": {}, \"threads\": {}, \"hardware_threads\": {}, \"accesses_per_sec\": {:.0}}}{sep}\n",
            json_escape(&t.name),
            t.accesses,
            t.threads,
            t.hardware_threads,
            t.accesses_per_sec,
        ));
    }
    json.push_str("  ],\n");
    // Sub-1.0 parallel ratios on a 1-hardware-thread host are expected, not
    // regressions; the gate encodes that as a rule (ratios are informational
    // on thread-mismatched hosts — see `compare_ratios_to_baseline`) rather
    // than as a prose note in the document.
    let fmt = |s: Option<f64>| s.map_or_else(|| "null".to_string(), |v| format!("{v:.2}"));
    for (name, _, _) in &SPEEDUP_RATIOS {
        json.push_str(&format!(
            "  \"{name}\": {},\n",
            fmt(speedup_ratio(measurements, name))
        ));
    }
    json
}

/// One committed speedup ratio parsed back from a `BENCH_sweep.json`
/// document. Only the named [`SPEEDUP_RATIOS`] fields are read; a `null`
/// (the pair was not measured when the baseline was written) or absent
/// field simply gates nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioBaselineEntry {
    /// Ratio field name.
    pub name: String,
    /// Committed ratio value.
    pub value: f64,
}

/// Parses the committed speedup ratios out of a `BENCH_sweep.json`
/// document (an unparseable document yields an empty list — the
/// measurement parsers report the structural error).
#[must_use]
pub fn parse_ratio_baseline(text: &str) -> Vec<RatioBaselineEntry> {
    let Ok(doc) = jsonio::parse(text) else {
        return Vec::new();
    };
    SPEEDUP_RATIOS
        .iter()
        .filter_map(|(name, _, _)| {
            doc.get(name)
                .and_then(JsonValue::as_f64)
                .map(|value| RatioBaselineEntry {
                    name: (*name).to_string(),
                    value,
                })
        })
        .collect()
}

/// The gate's comparison for one committed speedup ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioGateResult {
    /// Ratio field name.
    pub name: String,
    /// Committed ratio.
    pub baseline: f64,
    /// Freshly derived ratio, if both halves of the pair were measured.
    pub fresh: Option<f64>,
    /// Verdict under the tolerance.
    pub verdict: GateVerdict,
}

/// Compares freshly derived speedup ratios against the committed ones with
/// the usual tolerance policy — except that a speedup ratio compares
/// parallel against sequential (or fused against two-pass) wall time, so on
/// a host whose hardware thread count differs from the baseline's, or that
/// has only one, the comparison measures the machine rather than the code.
/// Pass `informational = true` there: a regression becomes a
/// [`GateVerdict::Info`] warning instead of a failure. A ratio whose
/// comparison pair vanished from the fresh suite is still
/// [`GateVerdict::Missing`] — dropping a measurement is structural and
/// should be a deliberate baseline refresh on any host.
#[must_use]
pub fn compare_ratios_to_baseline(
    baseline: &[RatioBaselineEntry],
    fresh: &[TraceMeasurement],
    tolerance: f64,
    informational: bool,
) -> Vec<RatioGateResult> {
    baseline
        .iter()
        .map(|base| {
            let found = speedup_ratio(fresh, &base.name);
            let verdict = match found {
                None => GateVerdict::Missing,
                Some(value) => {
                    let ratio = if base.value > 0.0 {
                        value / base.value
                    } else {
                        f64::INFINITY
                    };
                    if ratio >= 1.0 - tolerance {
                        GateVerdict::Ok { ratio }
                    } else if informational {
                        GateVerdict::Info { ratio }
                    } else {
                        GateVerdict::Regressed { ratio }
                    }
                }
            };
            RatioGateResult {
                name: base.name.clone(),
                baseline: base.value,
                fresh: found,
                verdict,
            }
        })
        .collect()
}

/// One trace measurement parsed back from a `BENCH_sweep.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBaselineEntry {
    /// Configuration name.
    pub name: String,
    /// Committed throughput.
    pub accesses_per_sec: f64,
}

/// Parses the `trace_measurements` out of a `BENCH_sweep.json` document.
/// Baselines written before the trace suite existed simply have none —
/// that is not an error (an empty list gates nothing).
///
/// # Errors
///
/// Returns a description of the first structural problem in a present but
/// malformed array.
pub fn parse_trace_baseline(text: &str) -> Result<Vec<TraceBaselineEntry>, String> {
    let doc = jsonio::parse(text)?;
    let Some(measurements) = doc.get("trace_measurements").and_then(JsonValue::as_array) else {
        return Ok(Vec::new());
    };
    let mut entries = Vec::with_capacity(measurements.len());
    for entry in measurements {
        let name = entry
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("trace measurement missing name")?
            .to_string();
        let accesses_per_sec = entry
            .get("accesses_per_sec")
            .and_then(JsonValue::as_f64)
            .ok_or("trace measurement missing accesses_per_sec")?;
        entries.push(TraceBaselineEntry {
            name,
            accesses_per_sec,
        });
    }
    Ok(entries)
}

/// The gate's comparison for one trace configuration (names are unique, so
/// matching is by name alone).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGateResult {
    /// Configuration name.
    pub name: String,
    /// Committed throughput.
    pub baseline: f64,
    /// Freshly measured throughput, if the configuration still exists.
    pub fresh: Option<f64>,
    /// Verdict under the tolerance.
    pub verdict: GateVerdict,
}

/// Compares fresh trace measurements against the committed baseline with
/// the same policy as the sweep gate: regression beyond the tolerance or a
/// vanished configuration fails; configurations only present fresh are
/// ignored (newly added).
#[must_use]
pub fn compare_trace_to_baseline(
    baseline: &[TraceBaselineEntry],
    fresh: &[TraceMeasurement],
    tolerance: f64,
) -> Vec<TraceGateResult> {
    baseline
        .iter()
        .map(|base| {
            let found = fresh
                .iter()
                .find(|f| f.name == base.name)
                .map(|f| f.accesses_per_sec);
            let verdict = match found {
                None => GateVerdict::Missing,
                Some(rate) => {
                    let ratio = if base.accesses_per_sec > 0.0 {
                        rate / base.accesses_per_sec
                    } else {
                        f64::INFINITY
                    };
                    if ratio < 1.0 - tolerance {
                        GateVerdict::Regressed { ratio }
                    } else {
                        GateVerdict::Ok { ratio }
                    }
                }
            };
            TraceGateResult {
                name: base.name.clone(),
                baseline: base.accesses_per_sec,
                fresh: found,
                verdict,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(name: &str, rate: f64) -> TraceMeasurement {
        TraceMeasurement {
            name: name.to_string(),
            accesses: 100,
            threads: 1,
            hardware_threads: 1,
            accesses_per_sec: rate,
        }
    }

    #[test]
    fn trace_json_round_trips_through_parse() {
        let measurements = vec![fresh("a", 1000.0), fresh("b", 2000.0)];
        let body = trace_measurements_json(&measurements);
        let doc = format!("{{\n{body}  \"end\": 0\n}}\n");
        let parsed = parse_trace_baseline(&doc).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "a");
        assert!((parsed[1].accesses_per_sec - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_ratios_are_derived_from_the_table_and_round_trip() {
        let measurements = vec![
            fresh("trace_sampled_seq_budget16k_single_thread", 2000.0),
            fresh("trace_sampled_hash_sharded_all_threads", 1500.0),
            fresh("trace_two_pass_exact_plus_sampled_all_threads", 1000.0),
            fresh("trace_fused_single_pass_all_threads", 1400.0),
            fresh("trace_exact_single_thread", 1000.0),
            fresh("trace_exact_metered_single_thread", 980.0),
        ];
        let body = trace_measurements_json(&measurements);
        assert!(body.contains("\"trace_sampled_sharded_speedup\": 0.75"));
        assert!(body.contains("\"trace_fused_speedup\": 1.40"));
        assert!(body.contains("\"trace_metered_overhead\": 0.98"));
        // The indexed pair was not measured: committed as null, gating
        // nothing.
        assert!(body.contains("\"trace_indexed_ingest_speedup\": null"));
        // The prose caveat is gone — the gate rule replaced it.
        assert!(!body.contains("trace_sampled_sharded_speedup_note"));
        let doc = format!("{{\n{body}  \"end\": 0\n}}\n");
        let ratios = parse_ratio_baseline(&doc);
        assert_eq!(ratios.len(), 3);
        assert_eq!(ratios[0].name, "trace_sampled_sharded_speedup");
        assert!((ratios[0].value - 0.75).abs() < 1e-9);
        assert_eq!(ratios[1].name, "trace_fused_speedup");
        assert_eq!(ratios[2].name, "trace_metered_overhead");
        assert!((fused_speedup(&measurements).unwrap() - 1.4).abs() < 1e-9);
        assert!((metered_overhead_ratio(&measurements).unwrap() - 0.98).abs() < 1e-9);
        assert_eq!(speedup_ratio(&measurements, "no_such_ratio"), None);
        assert!(parse_ratio_baseline("not json").is_empty());
    }

    #[test]
    fn ratio_gate_downgrades_to_informational_on_mismatched_hosts() {
        let baseline = vec![
            RatioBaselineEntry {
                name: "trace_fused_speedup".into(),
                value: 1.5,
            },
            RatioBaselineEntry {
                name: "trace_sampled_sharded_speedup".into(),
                value: 1.2,
            },
        ];
        // Fresh fused ratio is 1.0: a 33% drop, beyond a 25% tolerance.
        // The sampled pair is not measured at all.
        let fresh_ms = vec![
            fresh("trace_fused_single_pass_all_threads", 1000.0),
            fresh("trace_two_pass_exact_plus_sampled_all_threads", 1000.0),
        ];
        let hard = compare_ratios_to_baseline(&baseline, &fresh_ms, 0.25, false);
        assert!(matches!(hard[0].verdict, GateVerdict::Regressed { .. }));
        assert_eq!(hard[1].verdict, GateVerdict::Missing);
        // On a thread-mismatched host the drop is a warning, but a vanished
        // pair is still structural.
        let soft = compare_ratios_to_baseline(&baseline, &fresh_ms, 0.25, true);
        assert!(matches!(soft[0].verdict, GateVerdict::Info { .. }));
        assert_eq!(soft[1].verdict, GateVerdict::Missing);
        // Within tolerance stays Ok either way.
        let steady = vec![RatioBaselineEntry {
            name: "trace_fused_speedup".into(),
            value: 1.05,
        }];
        let ok = compare_ratios_to_baseline(&steady, &fresh_ms, 0.25, true);
        assert!(matches!(ok[0].verdict, GateVerdict::Ok { .. }));
    }

    #[test]
    fn baselines_without_trace_measurements_parse_empty() {
        assert_eq!(parse_trace_baseline("{}").unwrap(), Vec::new());
        assert!(parse_trace_baseline("not json").is_err());
        assert!(parse_trace_baseline("{\"trace_measurements\": [{\"name\": \"x\"}]}").is_err());
    }

    #[test]
    fn trace_gate_verdicts_cover_ok_regressed_and_missing() {
        let baseline = vec![
            TraceBaselineEntry {
                name: "a".into(),
                accesses_per_sec: 1000.0,
            },
            TraceBaselineEntry {
                name: "b".into(),
                accesses_per_sec: 1000.0,
            },
            TraceBaselineEntry {
                name: "gone".into(),
                accesses_per_sec: 10.0,
            },
        ];
        let fresh = vec![fresh("a", 800.0), fresh("b", 700.0), fresh("new", 1.0)];
        let results = compare_trace_to_baseline(&baseline, &fresh, 0.25);
        assert_eq!(results.len(), 3);
        assert!(matches!(results[0].verdict, GateVerdict::Ok { .. }));
        assert!(matches!(results[1].verdict, GateVerdict::Regressed { .. }));
        assert_eq!(results[2].verdict, GateVerdict::Missing);
    }

    #[test]
    fn a_measured_pair_alternates_its_halves_after_one_warmup_each() {
        let calls = std::cell::RefCell::new(String::new());
        let [bare, metered] = measure_trace_pair(
            ["bare", "metered"],
            1000,
            3,
            || calls.borrow_mut().push('b'),
            || calls.borrow_mut().push('m'),
        );
        assert_eq!(calls.into_inner(), "bm".repeat(1 + PAIR_RUNS));
        assert_eq!((bare.name.as_str(), bare.threads), ("bare", 1));
        assert_eq!(metered.name, "metered");
        assert!(bare.accesses_per_sec > 0.0 && metered.accesses_per_sec > 0.0);
    }

    #[test]
    fn workload_spec_is_stable() {
        // The gate compares against committed numbers; the workload they
        // were measured over must not drift silently.
        assert_eq!(
            workload_spec().fingerprint(),
            "gen:zipf:20000:1000000:0.8:42"
        );
        assert_eq!(workload_spec().total_accesses(), 1_000_000);
    }
}
