//! Property tests for the streaming trace-analysis subsystem.
//!
//! Three pins, each across *every* `symloc_trace::generators` pattern:
//!
//! 1. [`OnlineReuseEngine`] against a literal `O(n²)` stack-distance
//!    definition (scan back to the previous occurrence, count distinct
//!    addresses in between) that shares no code with the Fenwick path, and
//!    its block path (`record_block`, any block split) against its
//!    per-access path.
//! 2. The chunk-sharded merge ([`chunk_partial`] + [`MergeState`]) against
//!    the sequential engine, for arbitrary chunkings, and the trace job's
//!    block-at-a-time chunk fold ([`fused_chunk_partial`]) against
//!    [`chunk_partial`]. Both pins also run every pattern with its
//!    addresses scattered above 2^21, through the interner's hash table.
//! 3. The SHARDS sampled estimator against the exact engine: *equal* when
//!    the budget covers the footprint at full rate, and within a stated
//!    error bound when the budget binds.
//! 4. The trace job ([`FusedIngest`]) against its references: the exact
//!    half byte-identical to the sequential engine, the sampled half
//!    bit-identical to the direct [`SampledIngest`] reference, with either
//!    half alone or both, across every pattern × shard count × thread
//!    count.
//! 5. The one-pass curve evaluation (`mrc_points` on
//!    [`StreamHistogram`] and [`WeightedHistogram`]) against one
//!    `hits_up_to` sum per point: bit-identical miss ratios for any size
//!    list, in any order, with duplicates and zeros.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symloc_core::tracesweep::{
    chunk_partial, fused_chunk_partial, log_spaced_sizes, FusedIngest, MergeState,
    OnlineReuseEngine, SampledIngest, ShardsEstimator, StreamHistogram, TracePlan,
    WeightedHistogram,
};
use symloc_trace::generators::{
    cyclic_trace, interleaved_trace, move_to_front_trace, multi_epoch_trace, random_trace,
    retraversal_trace, sawtooth_trace, stack_discipline_trace, stream_kernel_trace, strided_trace,
    tiled_trace, zipfian_trace, EpochOrder, StreamKernel,
};
use symloc_trace::stream::{BlockRead, CountingSink, TraceSource};
use symloc_trace::Trace;

/// The literal textbook definition, deliberately quadratic and deliberately
/// free of any shared machinery: the reuse distance of access `t` is the
/// number of distinct addresses touched since the previous access to the
/// same address, inclusive of that address itself.
fn stack_distances_naive(trace: &Trace) -> Vec<Option<usize>> {
    let accesses = trace.accesses();
    let mut out = Vec::with_capacity(accesses.len());
    for (t, &addr) in accesses.iter().enumerate() {
        let prev = (0..t).rev().find(|&s| accesses[s] == addr);
        match prev {
            None => out.push(None),
            Some(s) => {
                let mut seen: Vec<symloc_trace::Addr> = Vec::new();
                for &between in &accesses[s + 1..t] {
                    if !seen.contains(&between) {
                        seen.push(between);
                    }
                }
                out.push(Some(seen.len() + 1));
            }
        }
    }
    out
}

fn histogram_of(distances: &[Option<usize>]) -> StreamHistogram {
    let mut h = StreamHistogram::new();
    for d in distances {
        match d {
            Some(d) => h.record_finite(*d, 1),
            None => h.record_cold(1),
        }
    }
    h
}

fn online_engine(trace: &Trace) -> OnlineReuseEngine {
    let mut engine = OnlineReuseEngine::new();
    engine.record_all(trace.iter().map(|a| a.value() as u64));
    engine
}

/// Runs a trace job of `plan` over `source` to completion.
fn job_over(source: &TraceSource, plan: TracePlan, threads: usize) -> FusedIngest {
    let mut job = FusedIngest::planned(source, plan, threads).unwrap();
    job.run_pending(source, None);
    job
}

/// One instance of every generator pattern the trace crate provides,
/// parameterized by a seed so the property tests sweep many shapes.
fn all_generator_patterns(seed: u64) -> Vec<(&'static str, Trace)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = 4 + (seed as usize % 13);
    let epochs = 2 + (seed as usize % 3);
    let sigma = symloc_perm::sample::random_permutation(m, &mut rng);
    vec![
        ("cyclic", cyclic_trace(m, epochs)),
        ("sawtooth", sawtooth_trace(m, epochs)),
        ("retraversal", retraversal_trace(&sigma)),
        (
            "multi_epoch",
            multi_epoch_trace(
                m,
                &[
                    EpochOrder::Forward,
                    EpochOrder::Permuted(sigma.clone()),
                    EpochOrder::Reverse,
                ],
            ),
        ),
        ("random", random_trace(m, 40 * epochs, &mut rng)),
        ("zipfian", zipfian_trace(3 * m, 60 * epochs, 0.9, &mut rng)),
        ("strided", strided_trace(m, 1 + seed as usize % m, epochs)),
        ("tiled", tiled_trace(3 * m, 1 + m / 2, epochs)),
        (
            "stack_discipline",
            stack_discipline_trace(m, 30 * epochs, &mut rng),
        ),
        (
            "move_to_front",
            move_to_front_trace(m, 10 * epochs, 1.0, &mut rng),
        ),
        (
            "stream_kernel",
            stream_kernel_trace(StreamKernel::Triad, m, epochs),
        ),
        (
            "interleaved",
            interleaved_trace(&cyclic_trace(m, epochs), &sawtooth_trace(m, epochs)),
        ),
    ]
}

/// Maps an address below 2^32 to one at or above 2^63, injectively (the
/// low half is the address itself; the high half scatters it). Real
/// traces' addresses miss the interner's direct array, which stops at
/// 2^21, and take its hash table; these do too.
fn scatter(addr: u64) -> u64 {
    assert!(addr < 1 << 32, "address {addr} does not fit the scatter");
    1 << 63 | (addr.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF) << 32 | addr
}

/// Every pattern of [`all_generator_patterns`], then every one again with
/// its addresses scattered above 2^21 ([`scatter`]).
fn patterns_on_both_interner_paths(seed: u64) -> Vec<(String, Trace)> {
    let patterns = all_generator_patterns(seed);
    let scattered: Vec<(String, Trace)> = patterns
        .iter()
        .map(|(name, trace)| {
            let far = trace
                .iter()
                .map(|a| scatter(a.value() as u64) as usize)
                .collect();
            (format!("{name} (scattered)"), far)
        })
        .collect();
    patterns
        .into_iter()
        .map(|(name, trace)| (name.to_string(), trace))
        .chain(scattered)
        .collect()
}

/// A block reader over `addrs` whose blocks have random lengths: 1 to 97
/// accesses, so runs start and end anywhere — inside a timeline
/// compaction's interval and across it — or, one time in eight, all that
/// is left at once.
struct RandomBlocks<'a> {
    addrs: &'a [u64],
    rng: StdRng,
}

impl<'a> RandomBlocks<'a> {
    fn new(addrs: &'a [u64], seed: u64) -> Self {
        RandomBlocks {
            addrs,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl BlockRead for RandomBlocks<'_> {
    fn next_block(&mut self, buf: &mut Vec<u64>) -> usize {
        let len = if self.rng.gen_range(0..8u32) == 0 {
            self.addrs.len()
        } else {
            self.rng.gen_range(1..98usize).min(self.addrs.len())
        };
        let (block, rest) = self.addrs.split_at(len);
        buf.clear();
        buf.extend_from_slice(block);
        self.addrs = rest;
        len
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn online_engine_matches_naive_definition_on_every_pattern(
        seed in any::<u64>(),
        splits in any::<u64>(),
    ) {
        let mut compactions = 0;
        for (name, trace) in patterns_on_both_interner_paths(seed) {
            let naive = stack_distances_naive(&trace);
            // Per-access distances agree with the literal definition.
            let mut engine = OnlineReuseEngine::new();
            for (addr, expect) in trace.iter().zip(naive.iter()) {
                let got = engine.record(addr.value() as u64);
                prop_assert_eq!(got, *expect, "{} seed {}", name, seed);
            }
            // And so does the aggregated histogram.
            prop_assert_eq!(engine.histogram(), &histogram_of(&naive), "{}", name);
            prop_assert_eq!(engine.footprint(), trace.distinct_count(), "{}", name);
            // The block path, over any split of the trace into blocks, is
            // the per-access path: same histogram, same compactions.
            let addrs: Vec<u64> = trace.iter().map(|a| a.value() as u64).collect();
            let mut blocks = RandomBlocks::new(&addrs, splits);
            let mut blocked = OnlineReuseEngine::new();
            let mut buf = Vec::new();
            while blocks.next_block(&mut buf) > 0 {
                blocked.record_block(&buf);
            }
            prop_assert_eq!(blocked.histogram(), engine.histogram(), "{} splits {}", name, splits);
            prop_assert_eq!(blocked.footprint(), engine.footprint(), "{}", name);
            prop_assert_eq!(blocked.compactions(), engine.compactions(), "{}", name);
            compactions += engine.compactions();
        }
        // The random, zipfian and stack patterns outgrow the first
        // timeline, so some blocks straddle a compaction.
        prop_assert!(compactions > 0, "seed {}", seed);
    }

    #[test]
    fn sharded_merge_matches_sequential_on_every_pattern(
        seed in any::<u64>(),
        pick in any::<usize>(),
    ) {
        for (name, trace) in patterns_on_both_interner_paths(seed) {
            let expected = online_engine(&trace);
            let addrs: Vec<u64> = trace.iter().map(|a| a.value() as u64).collect();
            // Any chunk count up to the trace length, and always one access
            // per chunk too: hundreds of absorbs, so the merge state's
            // slots fill and are repacked between them.
            let len = addrs.len().max(1);
            for chunks in [1 + pick % len, len] {
                let mut state = MergeState::new();
                let mut fused_state = MergeState::new();
                for (k, span) in symloc_par::split_indices(addrs.len(), chunks).iter().enumerate() {
                    let chunk = &addrs[span.start..span.end];
                    let partial = chunk_partial(chunk.iter().copied());
                    // The trace job folds its chunks a random block at a
                    // time; the partial is the per-access fold's.
                    let mut blocks = RandomBlocks::new(chunk, seed ^ k as u64);
                    let fused = fused_chunk_partial(&mut blocks, 1 + pick % 5, &mut CountingSink::new());
                    prop_assert_eq!(&fused.exact, &partial, "{} seed {} chunk {}", name, seed, k);
                    state.absorb(&partial);
                    fused_state.absorb(&fused.exact);
                }
                prop_assert_eq!(
                    state.histogram(),
                    expected.histogram(),
                    "{} seed {} chunks {}",
                    name, seed, chunks
                );
                prop_assert_eq!(
                    fused_state.histogram(),
                    expected.histogram(),
                    "{} seed {} chunks {}",
                    name, seed, chunks
                );
                prop_assert_eq!(
                    state.footprint(),
                    expected.footprint(),
                    "{} seed {} chunks {}",
                    name, seed, chunks
                );
            }
        }
    }

    #[test]
    fn full_budget_shards_equals_exact_on_every_pattern(seed in any::<u64>()) {
        for (name, trace) in all_generator_patterns(seed) {
            let exact = online_engine(&trace);
            // Budget >= footprint: the sampler never adapts, the estimate
            // is the exact curve.
            let mut shards = ShardsEstimator::new(trace.distinct_count().max(1));
            shards.record_all(trace.iter().map(|a| a.value() as u64));
            prop_assert_eq!(shards.sampling_rate(), 1.0, "{}", name);
            let sizes = log_spaced_sizes(exact.footprint(), 10);
            for &c in &sizes {
                let exact_mr = exact.histogram().miss_ratio(c);
                let est_mr = shards.histogram().miss_ratio(c);
                prop_assert!(
                    (exact_mr - est_mr).abs() < 1e-9,
                    "{} seed {} c {}: exact {} vs sampled {}",
                    name, seed, c, exact_mr, est_mr
                );
            }
        }
    }

    #[test]
    fn parallel_hash_sharded_equals_sequential_on_every_pattern(
        seed in any::<u64>(),
        shard_count in 1usize..8,
    ) {
        // For every generator pattern and shard count, the sampled-only
        // job is byte-identical (checkpoints and all) across thread
        // counts, and equals the direct reference run one shard at a time
        // on one thread.
        for (name, trace) in all_generator_patterns(seed) {
            let source = TraceSource::Memory(trace);
            let plan = TracePlan::sampled(4, shard_count, 32);
            let sequential = job_over(&source, plan, 1);
            let expected = sequential.to_json();
            for threads in [2, 5] {
                prop_assert_eq!(
                    job_over(&source, plan, threads).to_json(),
                    expected.clone(),
                    "{} seed {} shards {} threads {}",
                    name, seed, shard_count, threads
                );
            }
            let mut reference = SampledIngest::new(&source, shard_count, 32, 1).unwrap();
            reference.run_pending(&source, None);
            prop_assert_eq!(sequential.sampled_summary(), reference.merged(), "{}", name);
            // Every access lands in exactly one hash shard.
            prop_assert_eq!(
                sequential.sampled_summary().unwrap().raw_accesses,
                source.total_accesses().unwrap(),
                "{}", name
            );
        }
    }

    #[test]
    fn fused_ingest_equals_separate_pipelines_on_every_pattern(
        seed in any::<u64>(),
        shard_count in 1usize..8,
        threads in 1usize..5,
    ) {
        // One pass with both halves must reproduce the sequential engine
        // byte-identically and the direct sampled reference bit-identically
        // at the same shard count — as must each half run alone — for
        // every generator pattern, hash-shard count and thread count, while
        // the single-pass counter proves each access streamed exactly once.
        for (name, trace) in all_generator_patterns(seed) {
            let engine = online_engine(&trace);
            let source = TraceSource::Memory(trace);
            let exact = job_over(&source, TracePlan::exact(4), threads);
            let sampled = job_over(&source, TracePlan::sampled(4, shard_count, 32), threads);
            let mut reference = SampledIngest::new(&source, shard_count, 32, threads).unwrap();
            reference.run_pending(&source, None);
            let fused = job_over(&source, TracePlan::both(4, shard_count, 32), threads);
            for job in [&fused, &exact] {
                prop_assert_eq!(
                    job.exact_histogram().unwrap(),
                    engine.histogram(),
                    "{} seed {} shards {} threads {}",
                    name, seed, shard_count, threads
                );
            }
            for job in [&fused, &sampled] {
                prop_assert_eq!(
                    job.sampled_shard_results(),
                    reference.shard_results().to_vec(),
                    "{} seed {} shards {} threads {}",
                    name, seed, shard_count, threads
                );
                prop_assert_eq!(
                    job.sampled_summary(),
                    reference.merged(),
                    "{} seed {} shards {} threads {}",
                    name, seed, shard_count, threads
                );
            }
            for job in [&fused, &exact, &sampled] {
                prop_assert_eq!(
                    job.streamed_accesses(),
                    source.total_accesses().unwrap(),
                    "{} seed {}: the pass must stream each access exactly once",
                    name, seed
                );
            }
        }
    }

    #[test]
    fn one_hash_shard_at_fixed_threshold_is_the_sequential_estimator(
        seed in any::<u64>(),
        budget_exp in 2u32..=20,
    ) {
        // With one hash shard the sampled-only job is the classic
        // sequential SHARDS estimator on every pattern: at a fixed
        // threshold (a budget the footprint never reaches) and while rate
        // adaptation moves it (a budget that binds).
        let budget = 1usize << budget_exp;
        for (name, trace) in all_generator_patterns(seed) {
            let mut sequential = ShardsEstimator::new(budget);
            sequential.record_all(trace.iter().map(|a| a.value() as u64));
            let source = TraceSource::Memory(trace);
            let job = job_over(&source, TracePlan::sampled(3, 1, budget), 3);
            let merged = job.sampled_summary().unwrap();
            prop_assert_eq!(&merged.histogram, sequential.histogram(), "{}", name);
            prop_assert_eq!(merged.sampled_accesses, sequential.sampled_accesses(), "{}", name);
            prop_assert_eq!(merged.evictions, sequential.evictions(), "{}", name);
            prop_assert!((merged.min_rate - sequential.sampling_rate()).abs() < 1e-15, "{}", name);
        }
    }

    #[test]
    fn indexed_seek_ingest_equals_decode_skip_ingest_byte_identically(
        seed in any::<u64>(),
        chunks in 1usize..9,
        interval in 1u64..40,
    ) {
        // The .sltr chunk index must change how chunk workers reach their
        // range (seek vs decode-skip), never what they read: the final
        // checkpoints must be byte-identical.
        use symloc_trace::binio::{sltr_index_path, write_sltr, write_sltr_indexed};
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "symloc_props_indexed_{}_{}.sltr",
            std::process::id(),
            seed
        ));
        let sidecar = sltr_index_path(&path);
        for (name, trace) in all_generator_patterns(seed).into_iter().take(4) {
            // Decode-skip run (no sidecar on disk).
            std::fs::remove_file(&sidecar).ok();
            write_sltr(&trace, &path).unwrap();
            let source = TraceSource::Binary(path.clone());
            let plan = TracePlan::both(chunks, 2, 16);
            let expected = job_over(&source, plan, 2).to_json();
            // Indexed run of the same payload.
            write_sltr_indexed(&trace, &path, interval).unwrap();
            prop_assert_eq!(
                job_over(&source, plan, 2).to_json(),
                expected,
                "{} seed {} chunks {} interval {}",
                name, seed, chunks, interval
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
    }

    #[test]
    fn bounded_budget_shards_stays_within_error_bound(seed in any::<u64>()) {
        // A large skewed workload with the budget at ~1/4 of the footprint:
        // memory stays at O(s_max) and the worst pointwise MRC error stays
        // inside the stated bound. (Spatial sampling keeps/drops whole
        // addresses, so the bound is dominated by hot-address hash luck;
        // the trace mixes a seeded zipf body to vary the shape.)
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = zipfian_trace(2000, 20_000, 0.6, &mut rng);
        let exact = online_engine(&trace);
        let budget = 512usize;
        let mut shards = ShardsEstimator::new(budget);
        shards.record_all(trace.iter().map(|a| a.value() as u64));
        prop_assert!(shards.tracked_addresses() <= budget);
        prop_assert!(shards.sampling_rate() < 1.0);
        let mut worst = 0.0f64;
        for &c in &log_spaced_sizes(exact.footprint(), 10) {
            worst = worst
                .max((shards.histogram().miss_ratio(c) - exact.histogram().miss_ratio(c)).abs());
        }
        prop_assert!(worst < 0.12, "worst pointwise error {} (seed {})", worst, seed);
    }
}

/// Renders the checkpoint document of an exact-only trace job that has
/// absorbed `done` of `chunks` chunks — built from the naive model alone,
/// sharing no serialization code with `FusedIngest::to_json`: the histogram
/// and cold count come from the literal quadratic distances of the absorbed
/// prefix, and the timeline is the prefix's distinct addresses ordered by
/// last access. The exact state keeps the layout the seed-era (pre-interner)
/// ingest wrote.
fn naive_exact_checkpoint_json(
    fingerprint: &str,
    total: u64,
    chunks: usize,
    done: usize,
    prefix: &[u64],
) -> String {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    let mut cold = 0u64;
    let mut finite: BTreeMap<usize, u64> = BTreeMap::new();
    for (t, &addr) in prefix.iter().enumerate() {
        match (0..t).rev().find(|&s| prefix[s] == addr) {
            None => cold += 1,
            Some(s) => {
                let mut seen: Vec<u64> = Vec::new();
                for &between in &prefix[s + 1..t] {
                    if !seen.contains(&between) {
                        seen.push(between);
                    }
                }
                *finite.entry(seen.len() + 1).or_insert(0) += 1;
            }
        }
    }
    let mut last_access: BTreeMap<u64, usize> = BTreeMap::new();
    for (t, &addr) in prefix.iter().enumerate() {
        last_access.insert(addr, t);
    }
    let mut by_last: Vec<(usize, u64)> = last_access.into_iter().map(|(a, t)| (t, a)).collect();
    by_last.sort_unstable();

    let mut out = String::new();
    out.push_str("{\n  \"kind\": \"symloc_fused_trace_checkpoint\",\n  \"version\": 1,\n");
    let _ = writeln!(out, "  \"fingerprint\": \"{fingerprint}\",");
    let _ = writeln!(out, "  \"total_accesses\": {total},");
    let _ = writeln!(out, "  \"chunk_count\": {chunks},");
    out.push_str("  \"shard_count\": 0,\n  \"budget_per_shard\": 0,\n  \"threshold\": 16777216,\n");
    let _ = writeln!(out, "  \"next_chunk\": {done},");
    let _ = writeln!(out, "  \"streamed\": {},", prefix.len());
    let _ = writeln!(out, "  \"cold\": {cold},");
    out.push_str("  \"histogram\": [");
    for (i, (d, c)) in finite.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}[{d}, {c}]");
    }
    out.push_str("],\n");
    out.push_str("  \"timeline\": [");
    for (i, (_, addr)) in by_last.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}{addr}");
    }
    out.push_str("],\n  \"shards\": [\n  ]\n}\n");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact-only checkpoints are byte-identical to the documents the
    /// naive model renders, both ways: a mid-job checkpoint written today
    /// equals the independently rendered document, and resuming that
    /// document through `core::job` finishes to exactly the JSON of an
    /// uninterrupted run.
    #[test]
    fn interned_checkpoints_stay_byte_compatible_with_seed_era_documents(
        seed in any::<u64>(),
        chunks in 1usize..7,
        quarter in 0u32..=4,
    ) {
        for (name, trace) in all_generator_patterns(seed) {
            let addrs: Vec<u64> = trace.iter().map(|a| a.value() as u64).collect();
            let source = TraceSource::Memory(trace);
            let full = job_over(&source, TracePlan::exact(chunks), 1);
            let expected = full.to_json();
            let chunk_count = full.chunk_count();
            let done = (chunk_count * quarter as usize) / 4;
            let spans = symloc_par::split_indices(addrs.len(), chunk_count);
            let prefix_end = if done == 0 { 0 } else { spans[done - 1].end };
            let doc = naive_exact_checkpoint_json(
                &source.fingerprint(),
                addrs.len() as u64,
                chunk_count,
                done,
                &addrs[..prefix_end],
            );

            // Today's job, stopped at the same chunk, serializes the exact
            // bytes the naive model renders.
            let mut mid = FusedIngest::planned(&source, TracePlan::exact(chunks), 1).unwrap();
            mid.run_pending(&source, Some(done));
            prop_assert_eq!(
                mid.to_json(),
                doc.clone(),
                "{} seed {} chunks {} done {}",
                name, seed, chunk_count, done
            );

            // And the rendered document resumes through core::job to the
            // identical final checkpoint.
            let mut resumed = FusedIngest::from_json(&doc, 2).unwrap();
            resumed.run_pending(&source, None);
            prop_assert_eq!(
                resumed.to_json(),
                expected,
                "{} seed {} chunks {} done {}",
                name, seed, chunk_count, done
            );
        }
    }
}

/// A histogram distance: small, straddling 2^16, anywhere below 70k, or
/// far past every evaluated size.
fn histogram_distance() -> impl Strategy<Value = usize> {
    (0usize..4, 1usize..=70_000).prop_map(|(band, d)| match band {
        0 => d % 64 + 1,
        1 => (1 << 16) - 32 + d % 64,
        2 => d,
        _ => 1_000_000 + d,
    })
}

/// An evaluation grid: unsorted, with zeros, sizes around 2^16, and a
/// repeated size.
fn curve_sizes() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(
        (0usize..4, 0usize..=70_000).prop_map(|(band, c)| match band {
            0 => 0,
            1 => (1 << 16) - 16 + c % 32,
            _ => c,
        }),
        0..=40,
    )
    .prop_map(|mut sizes| {
        if let Some(&first) = sizes.first() {
            sizes.push(first);
        }
        sizes
    })
}

/// The reference for one point: the `hits_up_to` sum at that size.
fn reference_miss_ratio(hits: f64, total: f64) -> f64 {
    if total <= 0.0 {
        0.0
    } else {
        (1.0 - hits / total).clamp(0.0, 1.0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_pass_weighted_curve_is_bit_identical_to_per_point_sums(
        entries in proptest::collection::vec(
            (histogram_distance(), any::<f64>(), 0i32..12),
            0..=300,
        ),
        cold in 0.0f64..1e4,
        sizes in curve_sizes(),
    ) {
        let mut h = WeightedHistogram::default();
        // Weights span twelve orders of magnitude, so the running sum
        // rounds, and only the same additions in the same order match.
        for &(d, unit, exponent) in &entries {
            h.record_finite(d, unit * 10f64.powi(exponent - 4));
        }
        h.record_cold(cold);
        let points = h.mrc_points(&sizes);
        prop_assert_eq!(points.len(), sizes.len());
        for (point, &c) in points.iter().zip(&sizes) {
            prop_assert_eq!(point.cache_size, c);
            let want = reference_miss_ratio(h.hits_up_to(c), h.total_weight());
            prop_assert_eq!(point.miss_ratio.to_bits(), want.to_bits(), "size {}", c);
        }
    }

    #[test]
    fn one_pass_exact_curve_is_bit_identical_to_per_point_sums(
        entries in proptest::collection::vec((histogram_distance(), 1u64..1000), 0..=300),
        cold in 0u64..1000,
        sizes in curve_sizes(),
    ) {
        let mut h = StreamHistogram::new();
        for &(d, count) in &entries {
            h.record_finite(d, count);
        }
        h.record_cold(cold);
        let points = h.mrc_points(&sizes);
        prop_assert_eq!(points.len(), sizes.len());
        let total = h.accesses() as f64;
        for (point, &c) in points.iter().zip(&sizes) {
            prop_assert_eq!(point.cache_size, c);
            let want = reference_miss_ratio(h.hits_up_to(c) as f64, total);
            prop_assert_eq!(point.miss_ratio.to_bits(), want.to_bits(), "size {}", c);
        }
    }
}
