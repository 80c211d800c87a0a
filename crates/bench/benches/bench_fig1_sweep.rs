//! Bench: the exhaustive Figure-1 sweep (hit vector of every permutation of
//! S_m grouped by inversion number), single-threaded vs parallel, and the
//! engine (which sums lexicographic blocks for this spec) vs the
//! per-permutation allocating baseline.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use symloc_core::engine::SweepEngine;
use symloc_core::sweep::exhaustive_levels_reference;

fn bench_exhaustive_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_exhaustive_sweep");
    group.sample_size(10);
    for &m in &[5usize, 6, 7, 8] {
        group.bench_with_input(BenchmarkId::new("single_thread", m), &m, |b, &m| {
            b.iter(|| black_box(SweepEngine::with_threads(m, 1).exhaustive_levels()));
        });
        group.bench_with_input(BenchmarkId::new("all_threads", m), &m, |b, &m| {
            b.iter(|| black_box(SweepEngine::new(m).exhaustive_levels()));
        });
    }
    group.finish();
}

/// The headline comparison: the `SweepEngine` (block sums from `S_r`
/// tables, no permutation walked) against the original per-permutation
/// allocating path, both single-threaded.
fn bench_engine_vs_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_engine_vs_reference");
    group.sample_size(10);
    for &m in &[7usize, 8, 9] {
        group.bench_with_input(BenchmarkId::new("engine_batched", m), &m, |b, &m| {
            b.iter(|| black_box(SweepEngine::with_threads(m, 1).exhaustive_levels()));
        });
        group.bench_with_input(BenchmarkId::new("reference_allocating", m), &m, |b, &m| {
            b.iter(|| black_box(exhaustive_levels_reference(m, 1)));
        });
    }
    group.finish();
}

fn bench_sampled_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_sampled_sweep");
    group.sample_size(10);
    for &m in &[16usize, 32] {
        group.bench_with_input(
            BenchmarkId::new("stratified_100_per_level", m),
            &m,
            |b, &m| {
                b.iter(|| black_box(SweepEngine::new(m).sampled_levels(100, 7)));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_exhaustive_sweep,
    bench_engine_vs_reference,
    bench_sampled_sweep
);
criterion_main!(benches);
