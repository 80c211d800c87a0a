//! The sweep engine: exact aggregation of Algorithm-1 hit vectors over
//! ranges of `S_m`, keyed by a permutation statistic.
//!
//! The Figure-1 family of experiments evaluates the hit vector of *every*
//! permutation of `S_m` (or a stratified sample at larger degrees) and
//! aggregates by a level statistic. The [`SweepEngine`] has two exhaustive
//! paths.
//!
//! **Figure-1 blocks.** For levels by inversion number under the LRU stack
//! model (the paper's own experiment, [`SweepSpec::sums_figure1_blocks`])
//! no permutation is evaluated at all.
//! Algorithm 1's distance `rd(a) = (m−1−a) + (i+1) − |{j<i : σ(j) > a}|`
//! (see [`crate::hits`]) splits along a fixed prefix `π` of length `p`:
//! let `τ ∈ S_r`, `r = m − p`, be the suffix with every value replaced by
//! its rank among the values left after `π`. Then
//!
//! * the distance at suffix position `p + t` is `p` plus `τ`'s own
//!   Algorithm-1 distance at `t`, and
//! * `ℓ(σ) = L0(π) + ℓ(τ)`, where `L0` sums `π`'s Lehmer digits.
//!
//! So the lexicographic block of a prefix — the aligned rank interval
//! `[q·r!, (q+1)·r!)` holding all `r!` completions — adds to level
//! `L0 + k` exactly `N_k` permutations with hit sums `N_k·Hp[c] + A_k[c−p]`
//! and squared hit sums `N_k·Hp[c]² + 2·Hp[c]·A_k[c−p] + B_k[c−p]`, where
//! `Hp` is the prefix's own hit vector and `(N_k, A_k, B_k)` is level `k`
//! of the Figure-1 sweep of `S_r` (`A` and `B` count as zero for `c ≤ p`).
//! Those tables come from the same identity with `p = 1`: the first value
//! `v` of a `τ ∈ S_r` has distance `r − v` and adds `v` inversions. A rank
//! range cuts greedily into `O(m²)` aligned blocks, so any range of `S_12`
//! — shard edges included — costs microseconds, serially, in exact `u64`
//! arithmetic (nothing exceeds `m²·m!` for `m ≤ 12`).
//!
//! **Per permutation.** Every other statistic and model walks the range:
//!
//! 1. the rank range is split into contiguous chunks
//!    ([`symloc_par::parallel_reduce_chunked`]),
//! 2. each worker positions one [`RankRangeStream`] by unranking the chunk
//!    start, then walks the chunk with in-place `next_permutation` steps,
//! 3. each permutation's level and hit vector come from one reusable
//!    [`ModelScratch`] (no allocation per permutation), and
//! 4. each worker aggregates into its own [`SweepLevel`]s, merged once when
//!    the workers join.
//!
//! That walk also serves as the oracle the block path is tested against.
//!
//! ```
//! use symloc_core::engine::SweepEngine;
//!
//! let levels = SweepEngine::new(5).exhaustive_levels();
//! assert_eq!(levels.len(), 11); // inversion levels 0 ..= 10 of S_5
//! assert_eq!(levels.iter().map(|l| l.count).sum::<u64>(), 120);
//! ```

use crate::hits::AnalysisScratch;
use crate::model::{CacheModel, ModelScratch};
use crate::sweep::LevelAggregate;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use symloc_par::{default_threads, parallel_map_chunked, parallel_reduce_chunked};
use symloc_perm::inversions::max_inversions;
use symloc_perm::iter::RankRangeStream;
use symloc_perm::rank::{factorial, unrank_into, RankRange};
use symloc_perm::sample::{InversionSampler, LevelSampler, LevelSamplerScratch};
use symloc_perm::statistics::Statistic;

/// What one generalized sweep computes: degree, level statistic and cache
/// model. Construction is validation-free; the engine validates degrees
/// when a sweep starts.
///
/// The spec is the unit the sharded/checkpointable runner
/// ([`crate::shard::ShardedSweep`]) fingerprints, so two processes agree on
/// whether a checkpoint belongs to the sweep they are about to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepSpec {
    /// The degree `m` swept over.
    pub m: usize,
    /// The statistic levels are keyed by.
    pub statistic: Statistic,
    /// The cache model hit vectors are evaluated under.
    pub model: CacheModel,
}

impl SweepSpec {
    /// The paper's Figure-1 sweep: levels by inversion number under the
    /// fully associative LRU stack model.
    #[must_use]
    pub fn figure1(m: usize) -> Self {
        SweepSpec {
            m,
            statistic: Statistic::Inversions,
            model: CacheModel::LruStack,
        }
    }

    /// True when sweeps of this spec sum Figure-1 lexicographic blocks
    /// instead of walking every permutation: levels by inversion number
    /// under the LRU stack model (see the [module docs](self)). Any rank
    /// range of such a spec, up to all of `S_12`, costs microseconds.
    #[must_use]
    pub fn sums_figure1_blocks(&self) -> bool {
        (self.statistic, self.model) == (Statistic::Inversions, CacheModel::LruStack)
    }

    /// A stable one-line fingerprint of the spec, embedded in checkpoints.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!("m={};stat={};model={}", self.m, self.statistic, self.model)
    }
}

impl std::fmt::Display for SweepSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.fingerprint())
    }
}

/// Aggregated hit-vector statistics of one level of a generalized sweep:
/// the permutation count, the element-wise hit sums, and the element-wise
/// sums of squared hits, from which the standard error of each mean hit
/// count follows.
///
/// The sum-of-squares makes sampled sweeps quantifiable: a stratified
/// sample reports not just the level's mean hit vector but how tight that
/// estimate is ([`SweepLevel::stderr_hits`]). For exhaustive sweeps the
/// "error" is zero-information (the whole population was seen) but the
/// moments are still exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepLevel {
    /// The statistic value of the level.
    pub level: usize,
    /// Number of permutations aggregated.
    pub count: u64,
    /// Element-wise sum of hit vectors (index 0 = cache size 1).
    pub hit_sums: Vec<u64>,
    /// Element-wise sum of squared hits (index 0 = cache size 1).
    pub hit_sq_sums: Vec<u64>,
}

impl SweepLevel {
    /// An empty aggregate for `level` over `S_m`.
    #[must_use]
    pub fn empty(level: usize, m: usize) -> Self {
        SweepLevel {
            level,
            count: 0,
            hit_sums: vec![0; m],
            hit_sq_sums: vec![0; m],
        }
    }

    /// Absorbs one permutation's hit vector.
    pub fn absorb(&mut self, hits: &[u64]) {
        self.count += 1;
        for ((sum, sq), &h) in self
            .hit_sums
            .iter_mut()
            .zip(self.hit_sq_sums.iter_mut())
            .zip(hits)
        {
            *sum += h;
            *sq += h * h;
        }
    }

    /// Merges another aggregate of the same level into this one.
    ///
    /// # Panics
    ///
    /// Panics if the levels or degrees differ.
    pub fn merge(&mut self, other: &SweepLevel) {
        assert_eq!(self.level, other.level, "cannot merge different levels");
        assert_eq!(
            self.hit_sums.len(),
            other.hit_sums.len(),
            "cannot merge different degrees"
        );
        self.count += other.count;
        for (a, b) in self.hit_sums.iter_mut().zip(&other.hit_sums) {
            *a += b;
        }
        for (a, b) in self.hit_sq_sums.iter_mut().zip(&other.hit_sq_sums) {
            *a += b;
        }
    }

    /// The mean hit count at cache size `c` (1-based), or 0 out of range.
    #[must_use]
    pub fn mean_hits(&self, c: usize) -> f64 {
        if self.count == 0 || c == 0 || c > self.hit_sums.len() {
            return 0.0;
        }
        self.hit_sums[c - 1] as f64 / self.count as f64
    }

    /// The sample standard error of [`SweepLevel::mean_hits`] at cache size
    /// `c`: `s/√n` with the Bessel-corrected sample standard deviation `s`.
    /// Returns 0 when fewer than two permutations were aggregated (or out
    /// of range).
    #[must_use]
    pub fn stderr_hits(&self, c: usize) -> f64 {
        if self.count < 2 || c == 0 || c > self.hit_sums.len() {
            return 0.0;
        }
        let n = self.count as f64;
        let sum = self.hit_sums[c - 1] as f64;
        let sq = self.hit_sq_sums[c - 1] as f64;
        let variance = ((sq - sum * sum / n) / (n - 1.0)).max(0.0);
        (variance / n).sqrt()
    }

    /// The mean miss ratio at cache size `c`, out of `2m` accesses.
    #[must_use]
    pub fn mean_miss_ratio(&self, c: usize) -> f64 {
        let m = self.hit_sums.len();
        if m == 0 {
            return 0.0;
        }
        1.0 - self.mean_hits(c) / (2 * m) as f64
    }

    /// Downgrades to the legacy Figure-1 [`LevelAggregate`] (drops the
    /// second moment).
    #[must_use]
    pub fn to_level_aggregate(&self) -> LevelAggregate {
        LevelAggregate {
            inversions: self.level,
            count: self.count,
            hit_sums: self.hit_sums.clone(),
        }
    }
}

fn empty_sweep_levels(statistic: Statistic, m: usize) -> Vec<SweepLevel> {
    (0..statistic.level_count(m))
        .map(|l| SweepLevel::empty(l, m))
        .collect()
}

fn merge_sweep_levels(mut a: Vec<SweepLevel>, b: Vec<SweepLevel>) -> Vec<SweepLevel> {
    for (x, y) in a.iter_mut().zip(&b) {
        x.merge(y);
    }
    a
}

/// One sampled level's accumulator: the permutations seen and their dense
/// reuse-distance counts. Every hit vector is the prefix sum of its
/// distance counts, so summing counts and prefix-summing once at the end
/// computes the level's hit sums with `m` fewer additions per permutation.
#[derive(Debug, Clone)]
struct LevelCounts {
    /// Permutations aggregated.
    perms: u64,
    /// `dist_counts[d]` = occurrences of reuse distance `d` (`1..=m`) across
    /// the level's permutations. Index 0 is unused.
    dist_counts: Vec<u64>,
}

impl LevelCounts {
    fn empty(m: usize) -> Self {
        LevelCounts {
            perms: 0,
            dist_counts: vec![0; m + 1],
        }
    }

    fn absorb_distances(&mut self, distances: &[usize]) {
        self.perms += 1;
        for &d in distances {
            self.dist_counts[d] += 1;
        }
    }

    /// The [`LevelAggregate`] of `level`: the hit sums are the prefix sums
    /// of the distance counts.
    fn into_level_aggregate(self, level: usize) -> LevelAggregate {
        let hit_sums = self.dist_counts[1..]
            .iter()
            .scan(0u64, |acc, &count| {
                *acc += count;
                Some(*acc)
            })
            .collect();
        LevelAggregate {
            inversions: level,
            count: self.perms,
            hit_sums,
        }
    }
}

/// A parallel sweep evaluator over `S_m` with per-worker scratch.
///
/// See the [module docs](self) for the batching strategy. The engine is
/// cheap to construct (it builds nothing up front; workers build their
/// scratch when a sweep starts, and the first block-summed sweep builds
/// the Figure-1 tables of `S_0 ..= S_m`, which every later one reuses) and
/// deterministic: results are independent of the thread count.
#[derive(Debug, Clone)]
pub struct SweepEngine {
    m: usize,
    threads: usize,
    /// The Figure-1 levels of `S_r` for `r = 0 ..= m` ([`figure1_tables`]),
    /// built once per engine: a sharded sweep sums one rank range per
    /// shard from the same tables.
    figure1_tables: OnceLock<Vec<Vec<SweepLevel>>>,
}

impl SweepEngine {
    /// An engine over `S_m` using every available hardware thread.
    #[must_use]
    pub fn new(m: usize) -> Self {
        Self::with_threads(m, default_threads())
    }

    /// An engine over `S_m` with an explicit worker count (`0` and `1` both
    /// mean sequential).
    #[must_use]
    pub fn with_threads(m: usize, threads: usize) -> Self {
        SweepEngine {
            m,
            threads: threads.max(1),
            figure1_tables: OnceLock::new(),
        }
    }

    /// The degree `m` swept over.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.m
    }

    /// The worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Exhaustively sweeps all of `S_m`, grouping hit vectors by inversion
    /// number. Returns one [`LevelAggregate`] per inversion count
    /// `0 ..= m(m-1)/2` — the data behind Figure 1 of the paper. This is
    /// [`SweepEngine::sweep_levels`] for the Figure-1 spec without the
    /// second moments, so it runs on the block path.
    ///
    /// # Panics
    ///
    /// Panics if `m > 12` (the factorial sweep would be prohibitive).
    #[must_use]
    pub fn exhaustive_levels(&self) -> Vec<LevelAggregate> {
        self.sweep_levels(Statistic::Inversions, CacheModel::LruStack)
            .iter()
            .map(SweepLevel::to_level_aggregate)
            .collect()
    }

    /// Stratified-sampling sweep for degrees where `m!` is out of reach:
    /// draws `samples_per_level` permutations uniformly at each inversion
    /// count and aggregates their hit vectors.
    ///
    /// Each level builds its [`InversionSampler`] (the Mahonian completion
    /// table) once and reuses it for every draw; each worker reuses one
    /// scratch and one set of sampling buffers across its levels. The result
    /// is deterministic in `seed` and independent of the thread count.
    #[must_use]
    pub fn sampled_levels(&self, samples_per_level: usize, seed: u64) -> Vec<LevelAggregate> {
        let m = self.m;
        let max_inv = max_inversions(m);
        parallel_map_chunked(max_inv + 1, self.threads, |chunk| {
            let mut scratch = AnalysisScratch::new(m);
            let (mut images, mut code, mut available) = (Vec::new(), Vec::new(), Vec::new());
            let mut out = Vec::with_capacity(chunk.len());
            for level in chunk.start..chunk.end {
                let sampler = InversionSampler::new(m, level)
                    .expect("level <= max_inversions by construction");
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (level as u64).wrapping_mul(0x9E37_79B9));
                let mut counts = LevelCounts::empty(m);
                for _ in 0..samples_per_level {
                    sampler.sample_images_into(&mut rng, &mut images, &mut code, &mut available);
                    let drawn_level = scratch.pass_images(&images);
                    debug_assert_eq!(drawn_level, level, "sampler must hit its level");
                    counts.absorb_distances(scratch.distances());
                }
                out.push(counts.into_level_aggregate(level));
            }
            out
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Generalized exhaustive sweep: all of `S_m`, levels keyed by any
    /// [`Statistic`], hit vectors evaluated under any [`CacheModel`].
    /// Returns one [`SweepLevel`] per statistic value `0 ..= max_value(m)`,
    /// with second moments for error estimation.
    ///
    /// For `statistic = Inversions`, `model = LruStack` (the Figure-1 spec)
    /// the levels are summed from lexicographic blocks (see the
    /// [module docs](self)); every other spec walks all `m!` permutations.
    ///
    /// # Panics
    ///
    /// Panics if `m > 12`.
    #[must_use]
    pub fn sweep_levels(&self, statistic: Statistic, model: CacheModel) -> Vec<SweepLevel> {
        let total = factorial_for_sweep(self.m);
        self.sweep_rank_range(
            statistic,
            model,
            RankRange {
                start: 0,
                end: total,
            },
        )
    }

    /// The sharded building block of [`SweepEngine::sweep_levels`]: sweeps
    /// only the permutations whose lexicographic ranks lie in `range`.
    /// A spec that [sums Figure-1 blocks](SweepSpec::sums_figure1_blocks)
    /// sums the range's aligned lexicographic blocks serially in
    /// microseconds, from tables the engine builds on its first such
    /// sweep; every other spec walks the range per permutation, parallel
    /// over the engine's workers. Aggregates from disjoint ranges
    /// [`SweepLevel::merge`] into exactly the full-space result — which is
    /// what makes rank-range checkpointing ([`crate::shard::ShardedSweep`])
    /// exact.
    ///
    /// # Panics
    ///
    /// Panics if `m > 12` or the range extends past `m!`.
    #[must_use]
    pub fn sweep_rank_range(
        &self,
        statistic: Statistic,
        model: CacheModel,
        range: RankRange,
    ) -> Vec<SweepLevel> {
        let m = self.m;
        let total = factorial_for_sweep(m);
        assert!(
            range.end <= total && range.start <= range.end,
            "sweep_rank_range: invalid rank range {}..{} for m={m}",
            range.start,
            range.end
        );
        if (SweepSpec {
            m,
            statistic,
            model,
        })
        .sums_figure1_blocks()
        {
            let tables = self.figure1_tables.get_or_init(|| figure1_tables(m));
            return figure1_rank_range(m, range, tables);
        }
        let len = range.len() as usize;
        parallel_reduce_chunked(
            len,
            self.threads,
            || empty_sweep_levels(statistic, m),
            |mut acc, chunk| {
                let mut scratch = ModelScratch::new(model, m);
                let mut stream = RankRangeStream::new(
                    m,
                    RankRange {
                        start: range.start + chunk.start as u128,
                        end: range.start + chunk.end as u128,
                    },
                );
                while let Some(images) = stream.next_images() {
                    let (level, hits) = scratch.eval(statistic, images);
                    acc[level].absorb(hits);
                }
                acc
            },
            merge_sweep_levels,
        )
    }

    /// Stratified-sampling sweep with a *global* sample budget distributed
    /// by the exact level sizes of `statistic`: level `ℓ` receives
    /// `max(min_per_level.max(2), round(budget · |level ℓ| / m!))` draws
    /// (see [`weighted_sample_counts_for`]; the floor is never below 2 so
    /// every level has a defined standard error), so heavily populated
    /// middle levels — whose means summarize the most permutations — get
    /// proportionally more samples while thin extreme levels keep a
    /// floor. The floor means the actual draw total can exceed `budget`
    /// when the budget is small relative to the level count. Hit vectors are
    /// evaluated under any [`CacheModel`].
    ///
    /// Every statistic has a stratified sampler (Mahonian, Eulerian and
    /// footrule weights all come from dynamic programs); empty levels (odd
    /// total displacements) receive zero draws and report as empty
    /// aggregates.
    ///
    /// Deterministic in `seed` and independent of the thread count. Each
    /// level's aggregate depends only on `(statistic, model, m, level,
    /// draws, seed)` — the property [`crate::shard::SampledSweep`] builds
    /// its per-level checkpoints on.
    ///
    /// # Panics
    ///
    /// Panics if `m > 34` (level weights overflow `u128` beyond that).
    #[must_use]
    pub fn sampled_levels_weighted(
        &self,
        statistic: Statistic,
        model: CacheModel,
        budget: usize,
        min_per_level: usize,
        seed: u64,
    ) -> Vec<SweepLevel> {
        let m = self.m;
        let counts = weighted_sample_counts_for(statistic, m, budget, min_per_level);
        parallel_map_chunked(counts.len(), self.threads, |chunk| {
            let mut scratch = ModelScratch::new(model, m);
            let mut sampler_scratch = LevelSamplerScratch::default();
            let mut images = Vec::new();
            let mut out = Vec::with_capacity(chunk.len());
            for (level, &draws) in counts.iter().enumerate().take(chunk.end).skip(chunk.start) {
                out.push(sample_one_level(
                    &mut scratch,
                    &mut sampler_scratch,
                    &mut images,
                    statistic,
                    m,
                    level,
                    draws,
                    seed,
                ));
            }
            out
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// One level of a weighted sampled sweep, on its own: `draws` uniform
    /// permutations at `level` of `statistic`, aggregated under `model`.
    /// Bit-for-bit the aggregate [`SweepEngine::sampled_levels_weighted`]
    /// produces for the same `(level, draws, seed)` — which is what makes
    /// per-level checkpointing of sampled sweeps exact.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the statistic's maximum for `m`.
    #[must_use]
    pub fn sampled_level(
        &self,
        statistic: Statistic,
        model: CacheModel,
        level: usize,
        draws: usize,
        seed: u64,
    ) -> SweepLevel {
        let mut scratch = ModelScratch::new(model, self.m);
        let mut sampler_scratch = LevelSamplerScratch::default();
        let mut images = Vec::new();
        sample_one_level(
            &mut scratch,
            &mut sampler_scratch,
            &mut images,
            statistic,
            self.m,
            level,
            draws,
            seed,
        )
    }
}

/// The single-level body both [`SweepEngine::sampled_levels_weighted`] and
/// [`SweepEngine::sampled_level`] run: deterministic in `(statistic, m,
/// level, draws, seed)` and independent of how the scratch buffers were
/// previously used. Zero draws never construct a sampler, so empty levels
/// (which have no sampler) are representable.
#[allow(clippy::too_many_arguments)]
fn sample_one_level(
    scratch: &mut ModelScratch,
    sampler_scratch: &mut LevelSamplerScratch,
    images: &mut Vec<usize>,
    statistic: Statistic,
    m: usize,
    level: usize,
    draws: usize,
    seed: u64,
) -> SweepLevel {
    let mut agg = SweepLevel::empty(level, m);
    if draws == 0 {
        return agg;
    }
    let sampler = LevelSampler::new(statistic, m, level).expect("non-empty level admits a sampler");
    let mut rng = StdRng::seed_from_u64(seed ^ (level as u64).wrapping_mul(0x9E37_79B9));
    for _ in 0..draws {
        sampler.sample_images_into(&mut rng, images, sampler_scratch);
        let (drawn, hits) = scratch.eval(statistic, images);
        debug_assert_eq!(drawn, level, "sampler must hit its level");
        agg.absorb(hits);
    }
    agg
}

/// The per-level draw counts [`SweepEngine::sampled_levels_weighted`] uses:
/// level `ℓ` gets `max(min_per_level.max(2), round(budget · w_ℓ / m!))`
/// draws, where `w_ℓ` is the exact level size under `statistic` (the
/// Mahonian row for inversions and major index, the Eulerian row for
/// descents, the footrule row for total displacement). Levels with
/// `w_ℓ = 0` — odd total displacements — get **zero** draws: there is
/// nothing to sample there, and the floor only applies to levels that
/// exist. Exposed so callers (CLI, benches) can report or cost a sampling
/// plan without running it.
///
/// # Panics
///
/// Panics if `m > 34` (level weights overflow `u128` beyond that).
#[must_use]
pub fn weighted_sample_counts_for(
    statistic: Statistic,
    m: usize,
    budget: usize,
    min_per_level: usize,
) -> Vec<usize> {
    // The level sizes come from the single source of truth the statistic
    // itself exposes, so the sampling weights cannot drift from it.
    let weights = statistic.level_weights(m);
    let total: u128 = weights.iter().sum();
    let floor = min_per_level.max(2);
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    weights
        .iter()
        .map(|&w| {
            if w == 0 {
                return 0;
            }
            let share = budget as f64 * (w as f64 / total as f64);
            (share.round() as usize).max(floor)
        })
        .collect()
}

/// The inversion-keyed special case of [`weighted_sample_counts_for`]
/// (Mahonian weights), kept as the stable convenience entry point.
///
/// # Panics
///
/// Panics if `m > 34`.
#[must_use]
pub fn weighted_sample_counts(m: usize, budget: usize, min_per_level: usize) -> Vec<usize> {
    weighted_sample_counts_for(Statistic::Inversions, m, budget, min_per_level)
}

/// The Figure-1 levels of the permutations of `S_m` whose ranks lie in
/// `range`, summed block by block: the range is cut greedily into the
/// largest aligned lexicographic blocks `[q·r!, (q+1)·r!)` — a fixed prefix
/// followed by every arrangement of the other `r` values — and each block
/// is added from the `S_r` table (`tables[r]`, see [`figure1_tables`]) in
/// one step.
fn figure1_rank_range(m: usize, range: RankRange, tables: &[Vec<SweepLevel>]) -> Vec<SweepLevel> {
    let sizes: Vec<u128> = (0..=m).map(factorial_for_sweep).collect();
    let mut scratch = AnalysisScratch::new(m);
    let (mut images, mut unused) = (Vec::new(), Vec::new());
    let mut levels = empty_sweep_levels(Statistic::Inversions, m);
    let mut first = range.start;
    while first < range.end {
        // r = 0 (one permutation) always fits, so the search cannot fail.
        let r = (0..=m)
            .rev()
            .find(|&r| first.is_multiple_of(sizes[r]) && first + sizes[r] <= range.end)
            .expect("a single rank is a block");
        // The prefix is the first p images of the block's first
        // permutation; its distances and inversions (pairs whose left
        // element it holds) do not depend on the rest.
        let p = m - r;
        unrank_into(m, first, &mut images, &mut unused).expect("first < m!");
        scratch.pass_images(&images);
        let mut prefix_hits = vec![0u64; m];
        for &d in &scratch.distances()[..p] {
            for h in &mut prefix_hits[d - 1..] {
                *h += 1;
            }
        }
        let prefix_inversions = (0..p)
            .map(|i| images[i + 1..].iter().filter(|&&v| v < images[i]).count())
            .sum();
        add_block(&mut levels, &prefix_hits, prefix_inversions, &tables[r]);
        first += sizes[r];
    }
    levels
}

/// The Figure-1 levels of all of `S_r` for every `r = 0 ..= m`. `S_r` is
/// the union of the blocks of its first value `v`: a prefix with distance
/// `r − v` and `v` inversions, completed by all of `S_{r−1}`.
fn figure1_tables(m: usize) -> Vec<Vec<SweepLevel>> {
    let mut tables = vec![vec![SweepLevel {
        count: 1,
        ..SweepLevel::empty(0, 0)
    }]];
    for r in 1..=m {
        let mut levels = empty_sweep_levels(Statistic::Inversions, r);
        for v in 0..r {
            let first_hits: Vec<u64> = (1..=r).map(|c| u64::from(c >= r - v)).collect();
            add_block(&mut levels, &first_hits, v, &tables[r - 1]);
        }
        tables.push(levels);
    }
    tables
}

/// Adds one lexicographic block to `levels` (of `S_m`): a prefix of length
/// `p = m − r` with hit vector `prefix_hits` and `prefix_inversions`
/// inversions, completed by every `τ ∈ S_r`, whose Figure-1 levels are
/// `suffix`. The suffix's distances are shifted by `p`, so its hit sums
/// enter at cache size `p + 1`.
fn add_block(
    levels: &mut [SweepLevel],
    prefix_hits: &[u64],
    prefix_inversions: usize,
    suffix: &[SweepLevel],
) {
    let m = prefix_hits.len();
    for k in suffix {
        let p = m - k.hit_sums.len();
        let n = k.count;
        let level = &mut levels[prefix_inversions + k.level];
        level.count += n;
        for (c, &hp) in prefix_hits.iter().enumerate() {
            let (a, b) = if c < p {
                (0, 0)
            } else {
                (k.hit_sums[c - p], k.hit_sq_sums[c - p])
            };
            level.hit_sums[c] += n * hp + a;
            level.hit_sq_sums[c] += n * hp * hp + 2 * hp * a + b;
        }
    }
}

/// `m!` for an exhaustive sweep, with the shared degree guard.
///
/// # Panics
///
/// Panics if `m > 12`.
fn factorial_for_sweep(m: usize) -> u128 {
    assert!(
        m <= 12,
        "exhaustive sweep: degree {m} too large for a factorial sweep"
    );
    factorial(m).expect("m <= 12")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::exhaustive_levels_reference;
    use rand::Rng;
    use symloc_perm::mahonian::mahonian_row;

    #[test]
    fn engine_matches_reference_implementation_exhaustively() {
        for m in 0..=6usize {
            for threads in [1, 4] {
                let engine = SweepEngine::with_threads(m, threads).exhaustive_levels();
                let reference = exhaustive_levels_reference(m, threads);
                assert_eq!(engine, reference, "m={m} threads={threads}");
            }
        }
    }

    #[test]
    fn engine_counts_match_mahonian() {
        let levels = SweepEngine::with_threads(6, 3).exhaustive_levels();
        let mahonian = mahonian_row(6);
        assert_eq!(levels.len(), mahonian.len());
        for (level, &expected) in levels.iter().zip(mahonian.iter()) {
            assert_eq!(u128::from(level.count), expected, "l={}", level.inversions);
        }
    }

    #[test]
    fn engine_is_thread_count_invariant() {
        let sequential = SweepEngine::with_threads(7, 1).exhaustive_levels();
        for threads in [2, 5, 16] {
            assert_eq!(
                SweepEngine::with_threads(7, threads).exhaustive_levels(),
                sequential,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn engine_accessors() {
        let engine = SweepEngine::with_threads(5, 0);
        assert_eq!(engine.degree(), 5);
        assert_eq!(engine.threads(), 1);
        assert!(SweepEngine::new(4).threads() >= 1);
    }

    #[test]
    fn sampled_levels_hit_their_levels_and_are_deterministic() {
        let engine = SweepEngine::with_threads(9, 3);
        let levels = engine.sampled_levels(8, 42);
        assert_eq!(levels.len(), max_inversions(9) + 1);
        for level in &levels {
            assert_eq!(level.count, 8);
            // Theorem 2 in aggregate: truncated hit sums = ℓ · count.
            let truncated: u64 = level.hit_sums[..8].iter().sum();
            assert_eq!(truncated, level.inversions as u64 * level.count);
        }
        let again = SweepEngine::with_threads(9, 7).sampled_levels(8, 42);
        assert_eq!(levels, again, "seeded sampling must not depend on threads");
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn engine_rejects_huge_exhaustive_degree() {
        let _ = SweepEngine::new(13).exhaustive_levels();
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn generalized_sweep_rejects_huge_degree() {
        let _ = SweepEngine::new(13).sweep_levels(Statistic::Inversions, CacheModel::LruStack);
    }

    /// The per-permutation oracle of the block path: one serial walk of
    /// `range` through the Algorithm-1 kernel, independent of the engine.
    fn walk_figure1(m: usize, range: RankRange) -> Vec<SweepLevel> {
        let mut levels = empty_sweep_levels(Statistic::Inversions, m);
        let mut scratch = ModelScratch::new(CacheModel::LruStack, m);
        let mut stream = RankRangeStream::new(m, range);
        while let Some(images) = stream.next_images() {
            let (level, hits) = scratch.eval(Statistic::Inversions, images);
            levels[level].absorb(hits);
        }
        levels
    }

    fn assert_blocks_match_walk(engine: &SweepEngine, start: u128, end: u128) {
        let m = engine.degree();
        let range = RankRange { start, end };
        assert_eq!(
            engine.sweep_rank_range(Statistic::Inversions, CacheModel::LruStack, range),
            walk_figure1(m, range),
            "m={m} ranks {start}..{end}"
        );
    }

    #[test]
    fn generalized_sweep_matches_fast_path_on_figure1() {
        // Every range of every small S_m, empty ranges included.
        for m in 0..=5usize {
            let engine = SweepEngine::with_threads(m, 2);
            let total = factorial(m).unwrap();
            for start in 0..=total {
                for end in start..=total {
                    assert_blocks_match_walk(&engine, start, end);
                }
            }
        }
        // All of S_m and random ranges of it.
        let mut rng = StdRng::seed_from_u64(0xF161);
        for (m, ranges) in [(6usize, 24), (7, 16), (8, 8), (9, 3)] {
            let engine = SweepEngine::with_threads(m, 3);
            let total = factorial(m).unwrap();
            assert_blocks_match_walk(&engine, 0, total);
            for _ in 0..ranges {
                let (a, b) = (rng.gen_range(0..=total), rng.gen_range(0..=total));
                assert_blocks_match_walk(&engine, a.min(b), a.max(b));
            }
        }
        // Windows of at most 2·10^5 ranks anywhere in the largest degrees.
        for m in 10..=12usize {
            let engine = SweepEngine::with_threads(m, 2);
            let total = factorial(m).unwrap();
            for _ in 0..2 {
                let len = rng.gen_range(0..=200_000u128);
                let start = rng.gen_range(0..=total - len);
                assert_blocks_match_walk(&engine, start, start + len);
            }
        }
    }

    #[test]
    fn the_block_path_builds_its_tables_once_per_engine() {
        assert!(SweepSpec::figure1(8).sums_figure1_blocks());
        let major = SweepSpec {
            statistic: Statistic::MajorIndex,
            ..SweepSpec::figure1(8)
        };
        let assoc = SweepSpec {
            model: CacheModel::parse("assoc:8:lru").unwrap(),
            ..SweepSpec::figure1(8)
        };
        assert!(!major.sums_figure1_blocks() && !assoc.sums_figure1_blocks());
        let engine = SweepEngine::with_threads(8, 2);
        let _ = engine.sweep_levels(Statistic::Descents, CacheModel::LruStack);
        assert!(
            engine.figure1_tables.get().is_none(),
            "walks need no tables"
        );
        // Every later range reuses the tables the first one built; the
        // sums themselves are pinned against the walk above.
        let mut built = None;
        for (start, end) in [(0, 20_000), (20_000, 40_320)] {
            let _ = engine.sweep_rank_range(
                Statistic::Inversions,
                CacheModel::LruStack,
                RankRange { start, end },
            );
            let tables = engine
                .figure1_tables
                .get()
                .expect("built by the first range");
            assert_eq!(tables.len(), 9, "S_0 ..= S_8");
            assert_eq!(*built.get_or_insert(tables.as_ptr()), tables.as_ptr());
        }
    }

    #[test]
    fn generalized_sweep_covers_every_statistic() {
        let m = 5;
        let engine = SweepEngine::with_threads(m, 2);
        for statistic in Statistic::ALL {
            let levels = engine.sweep_levels(statistic, CacheModel::LruStack);
            assert_eq!(levels.len(), statistic.level_count(m), "{statistic}");
            let total: u64 = levels.iter().map(|l| l.count).sum();
            assert_eq!(total, 120, "{statistic} must see all of S_5");
            // Level sizes match the statistic's exact distribution.
            let weights = statistic.level_weights(m);
            for (level, &w) in levels.iter().zip(weights.iter()) {
                assert_eq!(u128::from(level.count), w, "{statistic} l={}", level.level);
            }
            // The grand hit total is model- and statistic-independent: it
            // only regroups the same 120 hit vectors.
            let grand: u64 = levels.iter().map(|l| l.hit_sums.iter().sum::<u64>()).sum();
            let figure1: u64 = engine
                .exhaustive_levels()
                .iter()
                .map(|l| l.hit_sums.iter().sum::<u64>())
                .sum();
            assert_eq!(grand, figure1, "{statistic}");
        }
    }

    #[test]
    fn generalized_sweep_under_set_associative_models() {
        use symloc_cache::setassoc::ReplacementPolicy;
        let m = 5;
        let engine = SweepEngine::with_threads(m, 2);
        // Fully associative LRU via the simulator equals the stack model.
        let stack = engine.sweep_levels(Statistic::Inversions, CacheModel::LruStack);
        let assoc_lru = engine.sweep_levels(
            Statistic::Inversions,
            CacheModel::SetAssoc {
                ways: m,
                policy: ReplacementPolicy::Lru,
            },
        );
        assert_eq!(stack, assoc_lru);
        // A 2-way FIFO cache cannot beat the idealized stack model in total.
        let fifo = engine.sweep_levels(
            Statistic::Inversions,
            CacheModel::SetAssoc {
                ways: 2,
                policy: ReplacementPolicy::Fifo,
            },
        );
        let stack_total: u64 = stack.iter().map(|l| l.hit_sums.iter().sum::<u64>()).sum();
        let fifo_total: u64 = fifo.iter().map(|l| l.hit_sums.iter().sum::<u64>()).sum();
        assert!(
            fifo_total <= stack_total,
            "fifo={fifo_total} lru={stack_total}"
        );
        assert_eq!(fifo.iter().map(|l| l.count).sum::<u64>(), 120);
    }

    #[test]
    fn sweep_rank_range_shards_merge_to_full_space() {
        let m = 6;
        let engine = SweepEngine::with_threads(m, 2);
        let full = engine.sweep_levels(Statistic::Descents, CacheModel::LruStack);
        let total = 720u128;
        let mut merged = super::empty_sweep_levels(Statistic::Descents, m);
        for bounds in [(0u128, 100u128), (100, 399), (399, 720)] {
            let part = engine.sweep_rank_range(
                Statistic::Descents,
                CacheModel::LruStack,
                RankRange {
                    start: bounds.0,
                    end: bounds.1,
                },
            );
            merged = super::merge_sweep_levels(merged, part);
        }
        assert_eq!(merged, full);
        assert_eq!(merged.iter().map(|l| l.count).sum::<u64>(), total as u64);
    }

    #[test]
    fn sweep_level_moments_and_accessors() {
        let mut level = SweepLevel::empty(3, 2);
        assert_eq!(level.mean_hits(1), 0.0);
        assert_eq!(level.stderr_hits(1), 0.0);
        level.absorb(&[1, 4]);
        level.absorb(&[3, 4]);
        assert_eq!(level.count, 2);
        assert!((level.mean_hits(1) - 2.0).abs() < 1e-12);
        assert!((level.mean_hits(2) - 4.0).abs() < 1e-12);
        // Sample sd of {1, 3} is √2; stderr = √2/√2 = 1.
        assert!((level.stderr_hits(1) - 1.0).abs() < 1e-12);
        assert_eq!(level.stderr_hits(2), 0.0); // constant sample
        assert_eq!(level.stderr_hits(0), 0.0);
        assert_eq!(level.mean_hits(9), 0.0);
        assert!((level.mean_miss_ratio(2) - 0.0).abs() < 1e-12);
        let aggregate = level.to_level_aggregate();
        assert_eq!(aggregate.inversions, 3);
        assert_eq!(aggregate.hit_sums, vec![4, 8]);
    }

    #[test]
    #[should_panic(expected = "different levels")]
    fn sweep_level_merge_rejects_level_mismatch() {
        let mut a = SweepLevel::empty(1, 3);
        a.merge(&SweepLevel::empty(2, 3));
    }

    #[test]
    fn weighted_sampling_distributes_budget_by_mahonian_weights() {
        let m = 8;
        let engine = SweepEngine::with_threads(m, 3);
        let budget = 2_000usize;
        let levels = engine.sampled_levels_weighted(
            Statistic::Inversions,
            CacheModel::LruStack,
            budget,
            2,
            42,
        );
        assert_eq!(levels.len(), max_inversions(m) + 1);
        let weights = mahonian_row(m);
        let total: u128 = weights.iter().sum();
        // Extreme levels get the floor; the modal level gets the most.
        assert_eq!(levels[0].count, 2);
        assert_eq!(levels.last().unwrap().count, 2);
        let modal = weights
            .iter()
            .enumerate()
            .max_by_key(|(_, &w)| w)
            .map(|(i, _)| i)
            .unwrap();
        let expected_modal =
            (budget as f64 * (weights[modal] as f64 / total as f64)).round() as u64;
        assert_eq!(levels[modal].count, expected_modal);
        assert!(levels[modal].count > levels[1].count);
        // Theorem 2 in aggregate still holds per drawn level.
        for level in &levels {
            let truncated: u64 = level.hit_sums[..m - 1].iter().sum();
            assert_eq!(truncated, level.level as u64 * level.count);
        }
        // Deterministic in seed, thread-count invariant.
        let again = SweepEngine::with_threads(m, 7).sampled_levels_weighted(
            Statistic::Inversions,
            CacheModel::LruStack,
            budget,
            2,
            42,
        );
        assert_eq!(levels, again);
        // Standard errors are finite and mostly nonzero in the middle.
        assert!(levels[modal].stderr_hits(m / 2) >= 0.0);
    }

    #[test]
    fn weighted_sampling_by_descents_uses_eulerian_weights() {
        use symloc_perm::mahonian::eulerian_row;
        let m = 8;
        let engine = SweepEngine::with_threads(m, 3);
        let budget = 1_000usize;
        let levels =
            engine.sampled_levels_weighted(Statistic::Descents, CacheModel::LruStack, budget, 2, 5);
        assert_eq!(levels.len(), Statistic::Descents.level_count(m));
        let weights = eulerian_row(m);
        let total: u128 = weights.iter().sum();
        // Extreme levels (identity / reverse: 1 permutation each) get the
        // floor; the modal level gets its proportional share.
        assert_eq!(levels[0].count, 2);
        assert_eq!(levels.last().unwrap().count, 2);
        let modal = weights
            .iter()
            .enumerate()
            .max_by_key(|(_, &w)| w)
            .map(|(i, _)| i)
            .unwrap();
        let expected_modal =
            (budget as f64 * (weights[modal] as f64 / total as f64)).round() as u64;
        assert_eq!(levels[modal].count, expected_modal);
        // The plan matches the exposed helper.
        let counts = weighted_sample_counts_for(Statistic::Descents, m, budget, 2);
        for (level, &planned) in levels.iter().zip(counts.iter()) {
            assert_eq!(level.count, planned as u64, "level {}", level.level);
        }
        // Deterministic in seed, thread-count invariant.
        let again = SweepEngine::with_threads(m, 7).sampled_levels_weighted(
            Statistic::Descents,
            CacheModel::LruStack,
            budget,
            2,
            5,
        );
        assert_eq!(levels, again);
    }

    #[test]
    fn weighted_sampling_covers_every_statistic() {
        // Major index and total displacement gained samplers; every
        // statistic's weighted sweep must hit its levels, skip empty ones,
        // and stay thread-invariant.
        let m = 6;
        for statistic in Statistic::ALL {
            let levels = SweepEngine::with_threads(m, 2).sampled_levels_weighted(
                statistic,
                CacheModel::LruStack,
                200,
                2,
                9,
            );
            assert_eq!(levels.len(), statistic.level_count(m), "{statistic}");
            let weights = statistic.level_weights(m);
            for (level, &w) in levels.iter().zip(weights.iter()) {
                if w == 0 {
                    assert_eq!(level.count, 0, "{statistic} empty level {}", level.level);
                } else {
                    assert!(level.count >= 2, "{statistic} level {}", level.level);
                }
            }
            let again = SweepEngine::with_threads(m, 7).sampled_levels_weighted(
                statistic,
                CacheModel::LruStack,
                200,
                2,
                9,
            );
            assert_eq!(levels, again, "{statistic} must be thread-invariant");
        }
    }

    #[test]
    fn sampled_level_matches_the_full_weighted_sweep() {
        let m = 7;
        let engine = SweepEngine::with_threads(m, 3);
        for statistic in [Statistic::Inversions, Statistic::TotalDisplacement] {
            let counts = weighted_sample_counts_for(statistic, m, 300, 2);
            let full = engine.sampled_levels_weighted(statistic, CacheModel::LruStack, 300, 2, 21);
            for (level, &draws) in counts.iter().enumerate() {
                let alone = engine.sampled_level(statistic, CacheModel::LruStack, level, draws, 21);
                assert_eq!(alone, full[level], "{statistic} level {level}");
            }
        }
    }

    #[test]
    fn spec_fingerprint_is_stable() {
        let spec = SweepSpec::figure1(9);
        assert_eq!(spec.fingerprint(), "m=9;stat=inversions;model=lru_stack");
        assert_eq!(format!("{spec}"), spec.fingerprint());
        let assoc = SweepSpec {
            m: 12,
            statistic: Statistic::MajorIndex,
            model: CacheModel::parse("assoc:4:fifo").unwrap(),
        };
        assert_eq!(
            assoc.fingerprint(),
            "m=12;stat=major_index;model=set_assoc:4:fifo"
        );
    }
}
