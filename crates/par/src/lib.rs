//! # symloc-par
//!
//! Parallel sweep utilities for the symmetric-locality experiments.
//!
//! The exhaustive experiments iterate over all `m!` permutations of `S_m`
//! (Figure 1) or large parameter grids; this crate provides small,
//! dependency-free parallel building blocks on top of [`std::thread::scope`]:
//!
//! * [`parallel_map`] — map a function over items, preserving order.
//! * [`parallel_map_chunked`] — map over contiguous index ranges so each
//!   worker can run its own streaming iterator (e.g. a lexicographic
//!   permutation iterator started by unranking).
//! * [`parallel_reduce`] — map + associative merge with per-worker
//!   accumulators (no shared mutable state, no locks on the hot path).
//! * [`parallel_reduce_chunked`] — the sweep-engine workhorse: each worker
//!   folds a whole contiguous chunk into its private accumulator (so it can
//!   own scratch buffers and streaming iterators for the chunk's lifetime),
//!   and the per-worker accumulators are merged at the end. The hot path
//!   allocates nothing and takes no locks.
//!
//! All helpers fall back to sequential execution when `threads <= 1` or the
//! input is tiny, so they are safe to use unconditionally.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::num::NonZeroUsize;

/// A half-open range of indices assigned to one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexChunk {
    /// First index of the chunk.
    pub start: usize,
    /// One past the last index of the chunk.
    pub end: usize,
}

impl IndexChunk {
    /// Number of indices in the chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// True when the chunk contains no indices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// The number of worker threads to use by default: the available parallelism
/// reported by the OS, or 1 if unknown.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `0..total` into at most `chunks` contiguous, near-equal chunks.
/// Returns fewer chunks when `total < chunks`; returns a single empty chunk
/// for `total == 0`.
#[must_use]
pub fn split_indices(total: usize, chunks: usize) -> Vec<IndexChunk> {
    let chunks = chunks.clamp(1, total.max(1));
    (0..chunks)
        .map(|i| IndexChunk {
            start: split_prefix_len(total, chunks, i),
            end: split_prefix_len(total, chunks, i + 1),
        })
        .collect()
}

/// The number of indices in the first `done` chunks of
/// [`split_indices`]`(total, chunks)`: the first `total % chunks` chunks
/// hold one index more than the rest. Computed, not listed, so a caller can
/// check a count against the split without allocating it.
#[must_use]
pub fn split_prefix_len(total: usize, chunks: usize, done: usize) -> usize {
    if total == 0 {
        return 0;
    }
    let chunks = chunks.clamp(1, total);
    let done = done.min(chunks);
    done * (total / chunks) + done.min(total % chunks)
}

/// Maps `f` over `items` using up to `threads` worker threads, returning the
/// results in input order.
///
/// Falls back to a sequential map when `threads <= 1` or there are fewer than
/// two items.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items.iter().map(&f).collect();
    }
    let chunks = split_indices(items.len(), threads);
    let mut results: Vec<Vec<U>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            let f = &f;
            let slice = &items[chunk.start..chunk.end];
            handles.push(scope.spawn(move || slice.iter().map(f).collect::<Vec<U>>()));
        }
        results = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
    });
    results.into_iter().flatten().collect()
}

/// Runs `f` once per contiguous chunk of `0..total` on up to `threads`
/// workers and returns the per-chunk results in chunk order.
///
/// Useful when each worker should drive its own streaming iterator over the
/// chunk (for example a lexicographic permutation iterator positioned by
/// unranking) instead of receiving materialized items.
pub fn parallel_map_chunked<U, F>(total: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(IndexChunk) -> U + Sync,
{
    let chunks = split_indices(total, threads.max(1));
    if threads <= 1 || chunks.len() < 2 {
        return chunks.into_iter().map(f).collect();
    }
    let mut results = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            let f = &f;
            handles.push(scope.spawn(move || f(chunk)));
        }
        results = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
    });
    results
}

/// Parallel map-reduce over `0..total`: each worker folds its chunk into an
/// accumulator created by `init`, using `fold`; the per-worker accumulators
/// are then combined left-to-right with `merge`.
///
/// `fold` and `merge` must together be order-insensitive (the usual
/// commutative-monoid requirement) for the result to be deterministic.
pub fn parallel_reduce<A, F, G, I>(total: usize, threads: usize, init: I, fold: F, merge: G) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, usize) -> A + Sync,
    G: Fn(A, A) -> A,
{
    let partials = parallel_map_chunked(total, threads, |chunk| {
        let mut acc = init();
        for i in chunk.start..chunk.end {
            acc = fold(acc, i);
        }
        acc
    });
    let mut iter = partials.into_iter();
    let first = iter.next().unwrap_or_else(&init);
    iter.fold(first, merge)
}

/// Chunk-at-a-time parallel reduction: each worker receives its whole
/// [`IndexChunk`] and folds it into a private accumulator created by `init`;
/// the accumulators are then merged left-to-right (chunk order) with `merge`.
///
/// This is the primitive the sweep engine builds on. Unlike
/// [`parallel_reduce`], which hands the fold one index at a time,
/// `fold_chunk` sees the full contiguous range, so it can:
///
/// * allocate scratch buffers (Fenwick trees, distance and histogram
///   buffers, streaming permutation iterators) **once per worker** and reuse
///   them across every index of the chunk, and
/// * position a streaming iterator at `chunk.start` by unranking and then
///   advance it in place, instead of re-deriving per-index state.
///
/// The accumulator never crosses threads mid-fold and merging happens after
/// all workers have joined, so the hot path is lock-free and allocation-free
/// by construction. `fold_chunk` + `merge` must together be
/// order-insensitive (commutative-monoid requirement) for determinism; the
/// result is then independent of `threads`.
pub fn parallel_reduce_chunked<A, I, F, G>(
    total: usize,
    threads: usize,
    init: I,
    fold_chunk: F,
    merge: G,
) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(A, IndexChunk) -> A + Sync,
    G: Fn(A, A) -> A,
{
    let partials = parallel_map_chunked(total, threads, |chunk| fold_chunk(init(), chunk));
    let mut iter = partials.into_iter();
    let first = iter.next().unwrap_or_else(&init);
    iter.fold(first, merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn split_indices_covers_range() {
        let chunks = split_indices(10, 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], IndexChunk { start: 0, end: 4 });
        assert_eq!(chunks[2].end, 10);
        assert_eq!(chunks.iter().map(IndexChunk::len).sum::<usize>(), 10);
        for w in chunks.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn split_indices_edge_cases() {
        assert_eq!(split_indices(0, 4), vec![IndexChunk { start: 0, end: 0 }]);
        assert!(split_indices(0, 4)[0].is_empty());
        assert_eq!(split_indices(3, 10).len(), 3);
        assert_eq!(split_indices(5, 0).len(), 1);
        assert_eq!(split_indices(5, 1)[0].len(), 5);
        assert_eq!(split_prefix_len(0, 4, 3), 0);
        assert_eq!(split_prefix_len(10, 3, 0), 0);
        assert_eq!(split_prefix_len(10, 3, 1), 4);
        assert_eq!(split_prefix_len(10, 3, 7), 10);
        assert_eq!(split_prefix_len(3, 10, 2), 2);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 4, 7] {
            let out = parallel_map(&items, threads, |&x| x * 3);
            assert_eq!(out.len(), 1000);
            assert!(
                out.iter().enumerate().all(|(i, &v)| v == i * 3),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<usize> = vec![];
        assert!(parallel_map(&empty, 4, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7usize], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_map_actually_runs_work() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..128).collect();
        let _ = parallel_map(&items, 4, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 128);
    }

    #[test]
    fn parallel_map_chunked_covers_all_indices() {
        for threads in [1, 3, 8] {
            let sums = parallel_map_chunked(100, threads, |chunk| {
                (chunk.start..chunk.end).sum::<usize>()
            });
            let total: usize = sums.iter().sum();
            assert_eq!(total, (0..100).sum::<usize>(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_chunked_zero_total() {
        let out = parallel_map_chunked(0, 4, |chunk| chunk.len());
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn parallel_reduce_sums() {
        for threads in [1, 2, 5] {
            let total = parallel_reduce(
                1000,
                threads,
                || 0u64,
                |acc, i| acc + i as u64,
                |a, b| a + b,
            );
            assert_eq!(total, 499_500, "threads={threads}");
        }
    }

    #[test]
    fn parallel_reduce_merges_histograms() {
        // Histogram of i % 7 over 0..700 must be exactly 100 per bucket.
        let hist = parallel_reduce(
            700,
            4,
            || vec![0usize; 7],
            |mut acc, i| {
                acc[i % 7] += 1;
                acc
            },
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            },
        );
        assert_eq!(hist, vec![100; 7]);
    }

    #[test]
    fn parallel_reduce_empty_uses_init() {
        let v = parallel_reduce(0, 4, || 42u32, |acc, _| acc + 1, |a, b| a + b);
        assert_eq!(v, 42);
    }

    #[test]
    fn parallel_reduce_chunked_matches_indexwise_reduce() {
        for threads in [1, 2, 3, 8] {
            let total = parallel_reduce_chunked(
                1000,
                threads,
                || 0u64,
                |acc, chunk| acc + (chunk.start..chunk.end).map(|i| i as u64).sum::<u64>(),
                |a, b| a + b,
            );
            assert_eq!(total, 499_500, "threads={threads}");
        }
    }

    #[test]
    fn parallel_reduce_chunked_worker_state_is_private() {
        // Each chunk fold reuses a per-worker scratch buffer; the result must
        // still be the deterministic histogram regardless of thread count.
        let run = |threads| {
            parallel_reduce_chunked(
                700,
                threads,
                || (vec![0usize; 7], Vec::<usize>::new()),
                |(mut hist, mut scratch), chunk| {
                    for i in chunk.start..chunk.end {
                        scratch.clear(); // reused buffer, no per-index allocation
                        scratch.push(i % 7);
                        hist[scratch[0]] += 1;
                    }
                    (hist, scratch)
                },
                |(mut a, s), (b, _)| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                    (a, s)
                },
            )
            .0
        };
        let sequential = run(1);
        assert_eq!(sequential, vec![100; 7]);
        for threads in [2, 4, 16] {
            assert_eq!(run(threads), sequential, "threads={threads}");
        }
    }

    #[test]
    fn parallel_reduce_chunked_empty_uses_init() {
        let v = parallel_reduce_chunked(0, 4, || 9u32, |acc, _| acc + 1, |a, b| a + b);
        // One empty chunk is folded, so the fold sees it once.
        assert_eq!(v, 10);
    }
}
