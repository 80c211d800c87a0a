//! # symloc-core
//!
//! The core of the *symmetric locality* library — an implementation of the
//! paper "Symmetric Locality: Definition and Initial Results".
//!
//! A data re-traversal `T = A σ(A)` is modeled by the permutation
//! `σ ∈ S_m` that generates its second pass. This crate turns the paper's
//! results into an API:
//!
//! * [`retraversal`] — the re-traversal model and trace round-tripping.
//! * [`hits`] — Algorithm 1: reuse distances, hit vectors and miss-ratio
//!   curves computed directly from `σ`.
//! * [`theorems`] — executable checks of Theorem 2 (Bruhat–Locality),
//!   Corollary 1, Theorem 3 (cover dominance) and Theorem 4 (alternation).
//! * [`labeling`] / [`chainfind`] — Algorithm 2 (ChainFind) with the
//!   miss-ratio and ranked miss-ratio labelings and tie accounting.
//! * [`feasibility`] / [`optimize`] — the feasibility predicate `Y`,
//!   precedence constraints, and constrained locality optimization.
//! * [`schedule`] — multi-epoch alternation schedules (Theorem 4 applied to
//!   repeated traversals such as training epochs).
//! * [`analytics`] — Appendix F: hit-vector partitions, Mahonian census,
//!   normalized truncated integral.
//! * [`sweep`] — parallel exhaustive / stratified sweeps over `S_m`
//!   (Figure 1).
//! * [`engine`] — the batched sweep engine the sweeps run on, generalized
//!   over level statistics and cache models.
//! * [`model`] — the cache models ([`model::CacheModel::LruStack`] and
//!   set-associative LRU/FIFO/PLRU) a sweep evaluates hit vectors under.
//! * [`job`] — the unified resumable-job API: the [`job::Job`] trait and
//!   the generic [`job::JobRunner`] every checkpointable pipeline
//!   (exhaustive/sampled sweeps, the exact and/or sampled trace job) runs
//!   through.
//! * [`shard`] — sharded, checkpointable execution of exhaustive sweeps
//!   (JSON checkpoints, exact resume).
//! * [`jsonio`] — the minimal hand-rolled JSON reader/writer the offline
//!   workspace uses for checkpoints and bench baselines.
//! * [`serve`] — the persisted tenant table of the `symloc serve` daemon:
//!   per-tenant SHARDS estimators as one resumable checkpoint kind.
//! * [`partition`] — the MRC-driven shared-cache partitioner: convex
//!   minorants over tenant curves plus a marginal-gain greedy solver that
//!   splits a budget to minimize traffic-weighted aggregate miss ratio.
//! * [`obs`] — the structured observability layer: the
//!   [`obs::MetricsRegistry`] of counters/gauges/histograms and the
//!   [`obs::Span`] timer the job runner, the CLI and the benches all
//!   measure through.
//!
//! # Architecture: kernels, scratch, engine
//!
//! The analysis stack is layered so that the hot paths allocate nothing:
//!
//! ```text
//!   sweep / chainfind / optimize / epochs / CLI        (consumers)
//!          │
//!   engine::SweepEngine                                (batching: one scratch
//!          │                                            + one RankRangeStream
//!          │                                            per worker, merged
//!          │                                            once at join)
//!   hits::AnalysisScratch                              (workspace: Fenwick
//!          │                                            tree + distance/
//!          │                                            histogram/hit buffers,
//!          │                                            reused per iteration)
//!   symloc_perm::{Fenwick::clear, RankRangeStream}     (in-place substrate)
//! ```
//!
//! Every Algorithm-1 quantity has two entry points: the classic allocating
//! function (`hit_vector`, `second_pass_distances`, `rd_histogram`, `mrc`)
//! for one-shot convenience, and a `_with_scratch` kernel that reuses an
//! [`hits::AnalysisScratch`] for loops. The allocating functions are thin
//! wrappers over the kernels, so both compute byte-identical results (a
//! property-test invariant). One Fenwick pass yields both the reuse
//! distances and the inversion number, which is what lets the
//! [`engine::SweepEngine`] stream `m!` permutations with zero
//! per-permutation allocations:
//!
//! ```
//! use symloc_core::engine::SweepEngine;
//!
//! // Figure 1 for S_6 on all cores: 720 hit vectors, grouped by ℓ(σ).
//! let levels = SweepEngine::new(6).exhaustive_levels();
//! assert_eq!(levels.iter().map(|l| l.count).sum::<u64>(), 720);
//! // Theorem 2 in aggregate: truncated hit sums equal ℓ · count per level.
//! for level in &levels {
//!     let truncated: u64 = level.hit_sums[..5].iter().sum();
//!     assert_eq!(truncated, level.inversions as u64 * level.count);
//! }
//! ```
//!
//! # Quick example
//!
//! ```
//! use symloc_core::prelude::*;
//! use symloc_perm::Permutation;
//!
//! // The paper's worked example: T = 1 2 3 4 | 2 1 3 4.
//! let sigma = Permutation::from_one_based(vec![2, 1, 3, 4]).unwrap();
//! let hv = hit_vector(&sigma);
//! assert_eq!(hv.as_slice(), &[0, 0, 1, 4]);
//!
//! // Theorem 2: the truncated hit sum equals the inversion number.
//! assert!(theorem2_holds(&sigma));
//!
//! // ChainFind climbs from the cyclic order to the sawtooth order.
//! let chain = chain_find(
//!     &Permutation::identity(4),
//!     &MissRatioLabeling,
//!     ChainFindConfig::default(),
//! );
//! assert!(chain.last().is_reverse());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analytics;
pub mod chainfind;
pub mod engine;
pub mod epochs;
pub mod error;
pub mod feasibility;
pub mod hits;
pub mod job;
pub mod jsonio;
pub mod labeling;
pub mod labeling_props;
pub mod model;
pub mod obs;
pub mod optimize;
pub mod partition;
pub mod retraversal;
pub mod schedule;
pub mod serve;
pub mod shard;
pub mod sweep;
pub mod theorems;
pub mod tracesweep;

pub use error::{CoreError, Result};
pub use retraversal::ReTraversal;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::analytics::{
        hit_vector_partition, normalized_truncated_integral, predicted_truncated_integral,
        PartitionCensus,
    };
    pub use crate::chainfind::{
        chain_find, chain_find_constrained, Chain, ChainFindConfig, ChainStep, TieBreak,
    };
    pub use crate::engine::{SweepEngine, SweepLevel, SweepSpec};
    pub use crate::epochs::EpochChain;
    pub use crate::error::CoreError;
    pub use crate::feasibility::PrecedenceDag;
    pub use crate::hits::{
        hit_vector, hit_vector_via_simulation, hit_vector_with_scratch, hits, miss_ratio, mrc,
        mrc_with_scratch, rd_histogram, rd_histogram_with_scratch, second_pass_distances,
        second_pass_distances_naive, second_pass_distances_with_scratch, total_reuse_distance,
        AnalysisScratch,
    };
    pub use crate::job::{Heartbeat, Job, JobKind, JobRunner, JobStatus};
    pub use crate::labeling::{
        DataMovementLabeling, EdgeLabeling, GeneratorTieBreakLabeling, InversionLabeling, Label,
        MissRatioLabeling, RankedMissRatioLabeling, TimescaleLabeling,
    };
    pub use crate::labeling_props::{
        el_census, el_interval_check, good_labeling_violation, saturated_chains, ElIntervalCheck,
        GoodLabelingViolation, LabeledChain,
    };
    pub use crate::model::{CacheModel, ModelScratch};
    pub use crate::obs::{LogHistogram, Metric, MetricsRegistry, Span};
    pub use crate::optimize::{
        best_feasible_exhaustive, improve_greedy, optimize_from_identity, OptimizationResult,
    };
    pub use crate::partition::{
        exact_reference, solve, Allocation, Bounds, ConvexHull, PartitionSolution, TenantCurve,
        MAX_PARTITION_BUDGET,
    };
    pub use crate::retraversal::ReTraversal;
    pub use crate::schedule::{analytical_retraversal_cost, analytical_totals_match, Schedule};
    pub use crate::serve::{ServeState, TenantState};
    pub use crate::shard::{SampledSweep, ShardedSweep};
    pub use crate::sweep::{
        average_mrc_by_inversion, exhaustive_levels_reference, levels_are_monotone, LevelAggregate,
    };
    pub use crate::theorems::{
        corollary1_holds, locality_cmp, theorem2_holds, theorem3_check,
        theorem4_alternation_optimal, CoverLocalityCheck,
    };
    pub use crate::tracesweep::{
        chunk_partial, log_spaced_sizes, ChunkPartial, FusedIngest, MergeState, MrcPoint,
        OnlineReuseEngine, ShardsEstimator, StreamHistogram, TracePlan, WeightedHistogram,
    };
}
