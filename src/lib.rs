//! # symmetric-locality
//!
//! A Rust implementation of **"Symmetric Locality: Definition and Initial
//! Results"**: the locality theory of data re-traversals `T = A σ(A)` over
//! the symmetric group, together with the substrates needed to measure and
//! exploit it (cache simulation, trace generation, parallel sweeps) and the
//! paper's application studies (deep-learning weight schedules, graph
//! reordering).
//!
//! This facade crate re-exports the workspace members so downstream users can
//! depend on a single crate:
//!
//! * [`perm`] — the symmetric group: permutations, inversions, Bruhat order,
//!   Mahonian statistics ([`symloc_perm`]).
//! * [`trace`] — memory traces and synthetic generators ([`symloc_trace`]).
//! * [`cache`] — LRU stack / reuse-distance / miss-ratio-curve simulation
//!   ([`symloc_cache`]).
//! * [`par`] — parallel sweep utilities ([`symloc_par`]).
//! * [`core`] — the paper's contribution: Algorithm 1, Theorems 2–4,
//!   ChainFind, feasibility, scheduling, analytics ([`symloc_core`]).
//! * [`dl`] — simulated deep-learning weight-access schedules
//!   ([`symloc_dl`]).
//! * [`graphreorder`] — graph-reordering application ([`symloc_graphreorder`]).
//!
//! # Architecture: scratch workspaces and the sweep engine
//!
//! The analysis stack is layered so that hot loops allocate nothing:
//!
//! * **Kernels** ([`symloc_core::hits`]) — every Algorithm-1 quantity comes
//!   in an allocating flavor (`hit_vector`, `second_pass_distances`,
//!   `rd_histogram`, `mrc`) and a `_with_scratch` flavor that reuses an
//!   [`AnalysisScratch`](symloc_core::hits::AnalysisScratch) workspace
//!   (Fenwick tree + distance/histogram/hit buffers, cleared in place). The
//!   allocating functions are thin wrappers over the kernels, so both
//!   compute byte-identical results.
//! * **Engine** ([`symloc_core::engine::SweepEngine`]) — sweeps over `S_m`
//!   batch per worker: one scratch plus one streaming
//!   [`RankRangeStream`](symloc_perm::iter::RankRangeStream) per chunk of
//!   the rank space, merged lock-free when the workers join
//!   ([`symloc_par::parallel_reduce_chunked`]). One Fenwick pass yields both
//!   the reuse distances and the inversion number, so grouping by Bruhat
//!   level costs nothing extra.
//! * **Consumers** — `sweep`, ChainFind labelings, the constrained
//!   optimizer, epoch chains, the `dl` schedule search, the graph-reorder
//!   scorer and the `symloc` CLI all ride the same two layers.
//!
//! ```
//! use symmetric_locality::core::engine::SweepEngine;
//!
//! // The Figure-1 aggregation for S_6, summed from lexicographic blocks.
//! let levels = SweepEngine::new(6).exhaustive_levels();
//! assert_eq!(levels.iter().map(|l| l.count).sum::<u64>(), 720);
//! ```
//!
//! # Quickstart
//!
//! ```
//! use symmetric_locality::prelude::*;
//!
//! // The sawtooth re-traversal of six elements has the best locality...
//! let sawtooth = Permutation::reverse(6);
//! assert_eq!(hit_vector(&sawtooth).as_slice(), &[1, 2, 3, 4, 5, 6]);
//!
//! // ...and the cyclic one the worst.
//! let cyclic = Permutation::identity(6);
//! assert_eq!(hit_vector(&cyclic).truncated_sum(), 0);
//!
//! // Theorem 2 ties locality to the inversion number.
//! assert!(theorem2_holds(&sawtooth));
//!
//! // ChainFind walks the Bruhat covering graph toward better locality.
//! let chain = chain_find(&cyclic, &MissRatioLabeling, ChainFindConfig::default());
//! assert!(chain.last().is_reverse());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cli;

pub use symloc_cache as cache;
pub use symloc_core as core;
pub use symloc_dl as dl;
pub use symloc_graphreorder as graphreorder;
pub use symloc_par as par;
pub use symloc_perm as perm;
pub use symloc_trace as trace;

/// One-stop prelude combining the preludes of every member crate.
pub mod prelude {
    pub use symloc_cache::prelude::*;
    pub use symloc_core::prelude::*;
    pub use symloc_dl::prelude::*;
    pub use symloc_graphreorder::prelude::*;
    pub use symloc_perm::prelude::*;
    pub use symloc_trace::prelude::*;
}
