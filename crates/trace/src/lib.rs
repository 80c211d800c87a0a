//! # symloc-trace
//!
//! Memory-trace substrate for the *symmetric locality* library.
//!
//! The paper analyses traces of abstract data elements; real program traces
//! (STREAM kernels, call stacks, allocator free lists, DL weight tensors) are
//! substituted by synthetic generators that produce the same access
//! *patterns*, which is all the locality theory observes.
//!
//! Provided here:
//!
//! * [`Addr`] and [`Trace`] — the trace representation ([`trace`]).
//! * Synthetic generators: cyclic, sawtooth, permutation re-traversals,
//!   multi-epoch schedules, random/zipfian, strided, tiled, stack-discipline,
//!   move-to-front ([`generators`]).
//! * Matrix/tensor traversal patterns ([`matrix`]).
//! * Plain-text trace I/O ([`io`]); compact varint binary `.sltr` I/O
//!   ([`binio`]).
//! * Streaming trace sources — files, generator specs, in-memory — read as
//!   checked blocks of any range, for sharded ingestion ([`stream`]).
//! * Footprint / frequency / reuse-interval statistics ([`stats`]).
//! * The line-framed `symloc serve` wire protocol: request grammar and
//!   the socket-side [`stream::AccessSink`] block producer ([`wire`]).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod binio;
pub mod generators;
pub mod io;
pub mod matrix;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod wire;

pub use stream::{GenSpec, TraceSource};
pub use trace::{Addr, Trace};

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::binio::{
        read_sltr, sltr_index_path, write_sltr, write_sltr_indexed, SltrIndex, SltrReader,
        SltrWriter,
    };
    pub use crate::generators::{
        cyclic_trace, interleaved_trace, move_to_front_trace, multi_epoch_trace, random_trace,
        retraversal_trace, sawtooth_trace, stack_discipline_trace, stream_kernel_trace,
        strided_trace, tiled_trace, zipfian_trace, EpochOrder, StreamKernel,
    };
    pub use crate::io::{read_trace, read_trace_from_str, write_trace, write_trace_to_string};
    pub use crate::matrix::{matrix_traversal_trace, MatrixLayout, MatrixTraversal};
    pub use crate::stats::{footprint, frequencies, reuse_intervals, TraceStats};
    pub use crate::stream::{GenSpec, GenStream, TraceSource};
    pub use crate::trace::{Addr, Trace};
    pub use crate::wire::{parse_request, AccessBatcher, Request};
}
