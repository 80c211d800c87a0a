//! Exhaustive and sampled sweeps over `S_m`, parallelized with `symloc-par`.
//!
//! These drive the paper's Figure 1 (average miss-ratio curve per inversion
//! number) and its extensions to larger degrees where exhaustive enumeration
//! is replaced by stratified sampling.
//!
//! The sweeps themselves run on [`crate::engine::SweepEngine`], which sums
//! the exhaustive Figure-1 sweep from lexicographic blocks and streams
//! every other sweep through reusable per-worker workspaces. This module
//! keeps the level aggregates and what is derived from them, plus the
//! original per-permutation path as [`exhaustive_levels_reference`] for
//! cross-checks and speedup measurement.

use crate::engine::SweepEngine;
use crate::hits::hit_vector;
use symloc_cache::mrc::MissRatioCurve;
use symloc_par::parallel_map_chunked;
use symloc_perm::inversions::{inversions, max_inversions};
use symloc_perm::iter::RankRangeIter;
use symloc_perm::rank::{factorial, RankRange};

pub use crate::engine::{SweepLevel, SweepSpec};
pub use crate::model::CacheModel;
pub use crate::shard::ShardedSweep;

/// Aggregated hit-vector statistics for one Bruhat level (inversion count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelAggregate {
    /// The inversion number of the level.
    pub inversions: usize,
    /// Number of permutations aggregated.
    pub count: u64,
    /// Element-wise sum of hit vectors (index 0 = cache size 1).
    pub hit_sums: Vec<u64>,
}

impl LevelAggregate {
    pub(crate) fn empty(inversions: usize, m: usize) -> Self {
        LevelAggregate {
            inversions,
            count: 0,
            hit_sums: vec![0; m],
        }
    }

    fn absorb(&mut self, hits: &[usize]) {
        self.count += 1;
        for (sum, &h) in self.hit_sums.iter_mut().zip(hits) {
            *sum += h as u64;
        }
    }

    fn merge(&mut self, other: &LevelAggregate) {
        self.count += other.count;
        for (a, b) in self.hit_sums.iter_mut().zip(&other.hit_sums) {
            *a += b;
        }
    }

    /// The average hit count at cache size `c` (1-based).
    #[must_use]
    pub fn mean_hits(&self, c: usize) -> f64 {
        if self.count == 0 || c == 0 || c > self.hit_sums.len() {
            return 0.0;
        }
        self.hit_sums[c - 1] as f64 / self.count as f64
    }

    /// The average miss-ratio curve of the level, over cache sizes
    /// `0 ..= m`, with `2m` accesses per re-traversal.
    #[must_use]
    pub fn average_mrc(&self) -> MissRatioCurve {
        let m = self.hit_sums.len();
        let accesses = 2 * m;
        let mut ratios = Vec::with_capacity(m + 1);
        if self.count == 0 || m == 0 {
            ratios.push(0.0);
            return MissRatioCurve::from_ratios(ratios, 0);
        }
        ratios.push(1.0);
        for c in 1..=m {
            let mean_hits = self.hit_sums[c - 1] as f64 / self.count as f64;
            ratios.push(1.0 - mean_hits / accesses as f64);
        }
        MissRatioCurve::from_ratios(ratios, accesses)
    }
}

/// The original per-permutation implementation of
/// [`SweepEngine::exhaustive_levels`]:
/// allocates a fresh `Permutation`, Fenwick tree, histogram and hit vector
/// for every σ.
///
/// Kept as the oracle the engine's block path is cross-checked against in
/// tests, and as the baseline the `bench_fig1_sweep` bench and
/// `BENCH_sweep.json` measure the engine's speedup over.
///
/// # Panics
///
/// Panics if `m > 12`.
#[must_use]
pub fn exhaustive_levels_reference(m: usize, threads: usize) -> Vec<LevelAggregate> {
    assert!(
        m <= 12,
        "exhaustive_levels: degree {m} too large for a factorial sweep"
    );
    let total = factorial(m).expect("m <= 12") as usize;
    let max_inv = max_inversions(m);
    let partials = parallel_map_chunked(total, threads.max(1), |chunk| {
        let mut levels: Vec<LevelAggregate> =
            (0..=max_inv).map(|l| LevelAggregate::empty(l, m)).collect();
        let range = RankRange {
            start: chunk.start as u128,
            end: chunk.end as u128,
        };
        for sigma in RankRangeIter::new(m, range) {
            let l = inversions(&sigma);
            let hv = hit_vector(&sigma);
            levels[l].absorb(hv.as_slice());
        }
        levels
    });
    let mut merged: Vec<LevelAggregate> =
        (0..=max_inv).map(|l| LevelAggregate::empty(l, m)).collect();
    for partial in &partials {
        for (acc, level) in merged.iter_mut().zip(partial) {
            acc.merge(level);
        }
    }
    merged
}

/// The average miss-ratio curve per inversion number for `S_m` — the exact
/// series plotted in Figure 1 of the paper.
#[must_use]
pub fn average_mrc_by_inversion(m: usize, threads: usize) -> Vec<MissRatioCurve> {
    SweepEngine::with_threads(m, threads)
        .exhaustive_levels()
        .iter()
        .map(LevelAggregate::average_mrc)
        .collect()
}

/// Verifies the Figure-1 monotonicity claim on aggregated levels: at every
/// cache size `c < m`, the average miss ratio is non-increasing in the
/// inversion number.
#[must_use]
pub fn levels_are_monotone(levels: &[LevelAggregate]) -> bool {
    let Some(first) = levels.first() else {
        return true;
    };
    let m = first.hit_sums.len();
    for c in 1..m {
        let mut prev = f64::INFINITY;
        for level in levels {
            let mr = level.average_mrc().miss_ratio(c);
            if mr > prev + 1e-9 {
                return false;
            }
            prev = mr;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use symloc_perm::mahonian::mahonian_row;
    use symloc_perm::statistics::Statistic;

    #[test]
    fn exhaustive_levels_counts_match_mahonian() {
        for m in 1..=6usize {
            let levels = SweepEngine::with_threads(m, 2).exhaustive_levels();
            let mahonian = mahonian_row(m);
            assert_eq!(levels.len(), mahonian.len());
            for (level, &expected) in levels.iter().zip(mahonian.iter()) {
                assert_eq!(
                    u128::from(level.count),
                    expected,
                    "m={m} l={}",
                    level.inversions
                );
            }
        }
    }

    #[test]
    fn exhaustive_levels_threads_agree() {
        let a = SweepEngine::with_threads(5, 1).exhaustive_levels();
        let b = SweepEngine::with_threads(5, 4).exhaustive_levels();
        assert_eq!(a, b);
    }

    #[test]
    fn wrapper_matches_reference_implementation() {
        for m in 0..=6usize {
            assert_eq!(
                SweepEngine::with_threads(m, 2).exhaustive_levels(),
                exhaustive_levels_reference(m, 2),
                "m={m}"
            );
        }
    }

    #[test]
    fn theorem2_holds_in_aggregate() {
        // Sum over a level of truncated hit sums = level * count.
        for level in SweepEngine::with_threads(5, 2).exhaustive_levels() {
            let truncated: u64 = level.hit_sums[..4].iter().sum();
            assert_eq!(truncated, level.inversions as u64 * level.count);
        }
    }

    #[test]
    fn figure1_average_mrcs_are_ordered_by_level() {
        // Higher inversion number => better (lower) average miss ratio at
        // every cache size below m, matching Figure 1's separation.
        let levels = SweepEngine::with_threads(5, 2).exhaustive_levels();
        assert!(levels_are_monotone(&levels));
        let curves = average_mrc_by_inversion(5, 2);
        assert_eq!(curves.len(), 11);
        // Identity level: flat at 1.0 below m.
        for c in 0..5 {
            assert!((curves[0].miss_ratio(c) - 1.0).abs() < 1e-12);
        }
        // Sawtooth level: mr(c) = 1 - c/(2m).
        for c in 1..=5 {
            assert!((curves[10].miss_ratio(c) - (1.0 - c as f64 / 10.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn mean_hits_accessor() {
        let levels = SweepEngine::with_threads(4, 1).exhaustive_levels();
        let top = levels.last().unwrap();
        assert_eq!(top.count, 1);
        assert!((top.mean_hits(1) - 1.0).abs() < 1e-12);
        assert!((top.mean_hits(4) - 4.0).abs() < 1e-12);
        assert_eq!(top.mean_hits(0), 0.0);
        assert_eq!(top.mean_hits(9), 0.0);
    }

    #[test]
    fn sampled_levels_cover_every_level() {
        let levels = SweepEngine::with_threads(8, 3).sampled_levels(10, 42);
        assert_eq!(levels.len(), max_inversions(8) + 1);
        for level in &levels {
            assert_eq!(level.count, 10);
            // Theorem 2 holds for sampled aggregates too.
            let truncated: u64 = level.hit_sums[..7].iter().sum();
            assert_eq!(truncated, level.inversions as u64 * level.count);
        }
    }

    #[test]
    fn sampled_levels_reproducible_for_fixed_seed() {
        let a = SweepEngine::with_threads(6, 2).sampled_levels(5, 7);
        let b = SweepEngine::with_threads(6, 4).sampled_levels(5, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_tiny_degrees() {
        let levels = SweepEngine::with_threads(1, 2).exhaustive_levels();
        assert_eq!(levels.len(), 1);
        assert_eq!(levels[0].count, 1);
        let curves = average_mrc_by_inversion(1, 1);
        assert_eq!(curves.len(), 1);
        assert!(levels_are_monotone(&[]));
        let l0 = SweepEngine::with_threads(0, 2).exhaustive_levels();
        assert_eq!(l0.len(), 1);
        assert_eq!(l0[0].average_mrc().max_size(), 0);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn exhaustive_levels_rejects_huge_degree() {
        let _ = SweepEngine::with_threads(13, 2).exhaustive_levels();
    }

    #[test]
    fn generalized_wrappers_delegate_to_the_engine() {
        let by_descents =
            SweepEngine::with_threads(5, 2).sweep_levels(Statistic::Descents, CacheModel::LruStack);
        assert_eq!(by_descents.len(), 5); // descent levels 0..=4 of S_5
        assert_eq!(by_descents.iter().map(|l| l.count).sum::<u64>(), 120);
        let sampled = SweepEngine::with_threads(7, 2).sampled_levels_weighted(
            Statistic::Inversions,
            CacheModel::LruStack,
            500,
            2,
            9,
        );
        assert_eq!(sampled.len(), max_inversions(7) + 1);
        assert!(sampled.iter().all(|l| l.count >= 2));
    }
}
