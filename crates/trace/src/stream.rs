//! Streaming trace sources: traces as address *streams*, not materialized
//! vectors.
//!
//! The batch pipeline ([`crate::Trace`] + `ReuseProfile`) caps analyses at
//! whatever fits in memory. This module is the substrate of the streaming
//! trace-analysis subsystem: a [`TraceSource`] describes where accesses come
//! from — a plain-text file, a binary `.sltr` file ([`crate::binio`]), a
//! synthetic generator spec, or an in-memory trace — and yields any
//! contiguous sub-range of them as decoded blocks through
//! [`TraceSource::read_blocks`] (the hook chunk-sharded parallel ingestion
//! hangs off: each worker reads only its own chunk).
//!
//! Generator specs ([`GenSpec`]) are parsed from compact `gen:` strings so
//! the CLI can run synthetic workloads of any size without writing a file:
//!
//! ```text
//! gen:cyclic:<m>:<epochs>
//! gen:sawtooth:<m>:<epochs>
//! gen:strided:<m>:<stride>:<epochs>
//! gen:tiled:<m>:<tile>:<epochs>
//! gen:random:<m>:<len>:<seed>
//! gen:zipf:<m>:<len>:<s>:<seed>
//! ```
//!
//! Deterministic-pattern generators (cyclic, sawtooth, strided, tiled) are
//! random-access — [`GenSpec::stream_range`] starts mid-pattern in `O(1)` —
//! while the seeded random generators (random, zipf) replay and discard the
//! prefix, which costs RNG draws but no memory. Either way a generator
//! stream is `O(m)` state (the Zipfian CDF) regardless of trace length.
//!
//! Files have one reader per format, and it is checked: the block readers
//! of [`TraceSource::read_blocks`] under a [`ReadPlan`] return every read,
//! decode and sidecar-check error, never panic on the bytes they read, and
//! so their one decode pass is also the validation. A job plans an indexed
//! file at the access count its sidecar records
//! ([`TraceSource::planned_accesses`]), and each chunk checks the bytes it
//! decodes against that sidecar; [`TraceSource::total_accesses`] counts a
//! file by draining the same reader.

use crate::binio::{read_sltr_header, sltr_index_path, SltrError, SltrIndex, SltrReader};
use crate::io::{parse_text_line, TraceIoError};
use crate::trace::{Addr, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A parsed synthetic-generator spec (see the [module docs](self) for the
/// `gen:` grammar). Produces the same access *sequences* as the batch
/// generators in [`crate::generators`], but streamed.
#[derive(Debug, Clone, PartialEq)]
pub enum GenSpec {
    /// `0 1 .. m-1` repeated `epochs` times.
    Cyclic {
        /// Number of distinct addresses.
        m: u64,
        /// Number of traversals.
        epochs: u64,
    },
    /// Forward then reverse traversals, alternating.
    Sawtooth {
        /// Number of distinct addresses.
        m: u64,
        /// Number of traversals.
        epochs: u64,
    },
    /// `0, stride, 2·stride, ..` wrapping modulo `m`, `epochs` passes.
    Strided {
        /// Number of distinct addresses.
        m: u64,
        /// Stride between consecutive accesses.
        stride: u64,
        /// Number of passes.
        epochs: u64,
    },
    /// Tile-by-tile traversal, each tile repeated `epochs` times.
    Tiled {
        /// Number of distinct addresses.
        m: u64,
        /// Tile size.
        tile: u64,
        /// Repetitions per tile.
        epochs: u64,
    },
    /// `len` uniformly random addresses below `m`.
    Random {
        /// Number of distinct addresses.
        m: u64,
        /// Number of accesses.
        len: u64,
        /// RNG seed.
        seed: u64,
    },
    /// `len` Zipfian-distributed addresses below `m` with skew `s`.
    Zipf {
        /// Number of distinct addresses.
        m: u64,
        /// Number of accesses.
        len: u64,
        /// Skew exponent (0 = uniform).
        s: f64,
        /// RNG seed.
        seed: u64,
    },
}

impl GenSpec {
    /// Parses a `gen:` spec string (the leading `gen:` is optional).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn parse(spec: &str) -> Result<GenSpec, String> {
        let body = spec.strip_prefix("gen:").unwrap_or(spec);
        let parts: Vec<&str> = body.split(':').collect();
        let num = |what: &str, text: &str| -> Result<u64, String> {
            text.parse()
                .map_err(|_| format!("{what} must be a number, got {text:?}"))
        };
        let arity = |n: usize| -> Result<(), String> {
            if parts.len() == n + 1 {
                Ok(())
            } else {
                Err(format!(
                    "gen:{} takes {n} parameter(s), got {}",
                    parts[0],
                    parts.len() - 1
                ))
            }
        };
        match parts.first().copied() {
            Some("cyclic") => {
                arity(2)?;
                Ok(GenSpec::Cyclic {
                    m: num("m", parts[1])?,
                    epochs: num("epochs", parts[2])?,
                })
            }
            Some("sawtooth") => {
                arity(2)?;
                Ok(GenSpec::Sawtooth {
                    m: num("m", parts[1])?,
                    epochs: num("epochs", parts[2])?,
                })
            }
            Some("strided") => {
                arity(3)?;
                Ok(GenSpec::Strided {
                    m: num("m", parts[1])?,
                    stride: num("stride", parts[2])?,
                    epochs: num("epochs", parts[3])?,
                })
            }
            Some("tiled") => {
                arity(3)?;
                let tile = num("tile", parts[2])?;
                if tile == 0 {
                    return Err("tile must be positive".to_string());
                }
                Ok(GenSpec::Tiled {
                    m: num("m", parts[1])?,
                    tile,
                    epochs: num("epochs", parts[3])?,
                })
            }
            Some("random") => {
                arity(3)?;
                Ok(GenSpec::Random {
                    m: num("m", parts[1])?,
                    len: num("len", parts[2])?,
                    seed: num("seed", parts[3])?,
                })
            }
            Some("zipf") => {
                arity(4)?;
                let s: f64 = parts[3]
                    .parse()
                    .map_err(|_| format!("s must be a number, got {:?}", parts[3]))?;
                Ok(GenSpec::Zipf {
                    m: num("m", parts[1])?,
                    len: num("len", parts[2])?,
                    s,
                    seed: num("seed", parts[4])?,
                })
            }
            Some(other) => Err(format!(
                "unknown generator {other:?} (expected cyclic, sawtooth, strided, tiled, random or zipf)"
            )),
            None => Err("empty generator spec".to_string()),
        }
    }

    /// The canonical spec string (parses back to `self`).
    #[must_use]
    pub fn fingerprint(&self) -> String {
        match self {
            GenSpec::Cyclic { m, epochs } => format!("gen:cyclic:{m}:{epochs}"),
            GenSpec::Sawtooth { m, epochs } => format!("gen:sawtooth:{m}:{epochs}"),
            GenSpec::Strided { m, stride, epochs } => format!("gen:strided:{m}:{stride}:{epochs}"),
            GenSpec::Tiled { m, tile, epochs } => format!("gen:tiled:{m}:{tile}:{epochs}"),
            GenSpec::Random { m, len, seed } => format!("gen:random:{m}:{len}:{seed}"),
            GenSpec::Zipf { m, len, s, seed } => format!("gen:zipf:{m}:{len}:{s}:{seed}"),
        }
    }

    /// Total number of accesses the spec generates.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        match *self {
            GenSpec::Cyclic { m, epochs }
            | GenSpec::Sawtooth { m, epochs }
            | GenSpec::Strided { m, epochs, .. }
            | GenSpec::Tiled { m, epochs, .. } => m * epochs,
            GenSpec::Random { len, .. } | GenSpec::Zipf { len, .. } => len,
        }
    }

    /// The address at position `i` for the deterministic pattern kinds, or
    /// `None` for the seeded random kinds (which must replay the stream).
    #[must_use]
    fn address_at(&self, i: u64) -> Option<u64> {
        match *self {
            GenSpec::Cyclic { m, .. } => Some(i % m),
            GenSpec::Sawtooth { m, .. } => {
                let (epoch, pos) = (i / m, i % m);
                Some(if epoch % 2 == 0 { pos } else { m - 1 - pos })
            }
            GenSpec::Strided { m, stride, .. } => {
                Some((u128::from(i % m) * u128::from(stride) % u128::from(m)) as u64)
            }
            GenSpec::Tiled { m, tile, epochs } => {
                let span = tile * epochs;
                let full_tiles = m / tile;
                if i < full_tiles * span {
                    let t = i / span;
                    Some(t * tile + (i % span) % tile)
                } else {
                    let last_size = m - full_tiles * tile;
                    Some(full_tiles * tile + (i - full_tiles * span) % last_size)
                }
            }
            GenSpec::Random { .. } | GenSpec::Zipf { .. } => None,
        }
    }

    /// A stream over the whole generated trace.
    #[must_use]
    pub fn stream(&self) -> GenStream {
        self.stream_range(0, self.total_accesses())
    }

    /// A stream over positions `start..end` (clamped to the total length).
    /// Deterministic patterns start in `O(1)`; seeded random generators
    /// replay and discard the first `start` draws.
    #[must_use]
    pub fn stream_range(&self, start: u64, end: u64) -> GenStream {
        let mut end = end.min(self.total_accesses());
        let start = start.min(end);
        let sampler = match *self {
            GenSpec::Random { m, seed, .. } => {
                let mut sampler = RandomSampler::Uniform {
                    m: m.max(1),
                    rng: StdRng::seed_from_u64(seed),
                };
                for _ in 0..start {
                    let _ = sampler.draw();
                }
                Some(sampler)
            }
            GenSpec::Zipf { m, s, seed, .. } => {
                if m == 0 {
                    // A Zipfian trace over zero addresses is empty (mirrors
                    // the batch generator).
                    end = start;
                    None
                } else {
                    let mut sampler = RandomSampler::Zipf {
                        cdf: zipf_cdf(m, s),
                        rng: StdRng::seed_from_u64(seed),
                    };
                    for _ in 0..start {
                        let _ = sampler.draw();
                    }
                    Some(sampler)
                }
            }
            _ => None,
        };
        GenStream {
            spec: self.clone(),
            index: start,
            end,
            sampler,
        }
    }

    /// Materializes the spec into a [`Trace`] (intended for tests and small
    /// traces; the whole point of streams is not to call this at scale).
    ///
    /// # Panics
    ///
    /// Panics if an address exceeds `usize`.
    #[must_use]
    pub fn materialize(&self) -> Trace {
        self.stream()
            .map(|a| usize::try_from(a).expect("address fits usize"))
            .collect()
    }
}

impl std::fmt::Display for GenSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.fingerprint())
    }
}

/// The cumulative Zipfian distribution shared with the batch generator
/// (draw-for-draw equivalence requires the identical table).
fn zipf_cdf(m: u64, s: f64) -> Vec<f64> {
    crate::generators::zipfian_cdf(usize::try_from(m).expect("zipf CDF fits memory"), s)
}

#[derive(Debug)]
enum RandomSampler {
    Uniform { m: u64, rng: StdRng },
    Zipf { cdf: Vec<f64>, rng: StdRng },
}

impl RandomSampler {
    fn draw(&mut self) -> u64 {
        match self {
            RandomSampler::Uniform { m, rng } => rng.gen_range(0..*m),
            RandomSampler::Zipf { cdf, rng } => {
                let u: f64 = rng.gen();
                let idx = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
                idx as u64
            }
        }
    }
}

/// A streaming iterator over (a sub-range of) a generated trace.
#[derive(Debug)]
pub struct GenStream {
    spec: GenSpec,
    index: u64,
    end: u64,
    sampler: Option<RandomSampler>,
}

impl GenStream {
    /// Number of accesses remaining.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.end - self.index
    }
}

impl Iterator for GenStream {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.index >= self.end {
            return None;
        }
        let addr = match &mut self.sampler {
            Some(sampler) => sampler.draw(),
            None => self
                .spec
                .address_at(self.index)
                .expect("deterministic patterns are random-access"),
        };
        self.index += 1;
        Some(addr)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining()).ok();
        (n.unwrap_or(usize::MAX), n)
    }
}

/// Where a trace's accesses come from. The unit the streaming analysis
/// subsystem is parameterized by: every variant can report its total length
/// and stream any contiguous sub-range on demand, so the same source can be
/// consumed sequentially (one streaming pass) or chunk-sharded across
/// workers.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSource {
    /// A plain-text trace file ([`crate::io`] format).
    Text(PathBuf),
    /// A binary `.sltr` trace file ([`crate::binio`] format).
    Binary(PathBuf),
    /// A synthetic generator.
    Gen(GenSpec),
    /// An in-memory trace.
    Memory(Trace),
}

/// Preferred number of accesses per block of [`BlockRead::next_block`]:
/// large enough to amortize the per-block call, small enough that a block
/// of `u64`s stays cache-resident.
pub const BLOCK_LEN: usize = 4096;

/// A block-streaming source of addresses: refills a caller-provided buffer
/// with the next run of accesses instead of answering one virtual `next()`
/// call per access. The one shape every trace source is read in, produced
/// by [`TraceSource::read_blocks`] and [`TraceSource::stream_blocks_range`].
pub trait BlockRead: Send {
    /// Refills `buf` (cleared first) with up to [`BLOCK_LEN`] accesses,
    /// returning how many were produced; `0` means the range is exhausted.
    ///
    /// # Panics
    ///
    /// File readers panic on the errors [`BlockRead::try_next_block`]
    /// returns instead.
    fn next_block(&mut self, buf: &mut Vec<u64>) -> usize;

    /// [`BlockRead::next_block`], returning a read, decode or sidecar-check
    /// error instead of panicking. Readers that cannot fail keep this
    /// default, which delivers [`BlockRead::next_block`].
    ///
    /// # Errors
    ///
    /// The reader's first I/O, decode or check error. File readers keep
    /// it and return it again from every later call.
    fn try_next_block(&mut self, buf: &mut Vec<u64>) -> Result<usize, TraceIoError> {
        Ok(self.next_block(buf))
    }
}

/// A boxed block reader (see [`TraceSource::stream_blocks_range`]).
pub type AccessBlocks = Box<dyn BlockRead>;

/// A per-access consumer that can be tapped into a streaming pass. The
/// broadcast seam of the fused single-pass pipeline: one decode pass over a
/// source can feed its exact and sampled engines *and* any number of extra
/// sinks (a live daemon, a counter, a recorder) without re-streaming. Sinks
/// observe every access, in trace order, exactly once per pass.
pub trait AccessSink {
    /// Observes one access.
    fn on_access(&mut self, addr: u64);

    /// Observes one decoded block (defaults to per-access delivery; block
    /// consumers can override to stay on the hot block path).
    fn on_block(&mut self, block: &[u64]) {
        for &addr in block {
            self.on_access(addr);
        }
    }
}

/// An [`AccessSink`] that only counts — the observer used to *prove* a
/// fused pass streams each access exactly once, and the no-op-priced
/// default tap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    accesses: u64,
}

impl CountingSink {
    /// A fresh, zeroed counter.
    #[must_use]
    pub fn new() -> CountingSink {
        CountingSink::default()
    }

    /// Accesses observed so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

impl AccessSink for CountingSink {
    fn on_access(&mut self, addr: u64) {
        let _ = addr;
        self.accesses += 1;
    }

    fn on_block(&mut self, block: &[u64]) {
        self.accesses += block.len() as u64;
    }
}

/// An [`AccessSink`] that meters an inner sink: counts accesses and
/// blocks, and accumulates the wall-clock nanoseconds the inner sink
/// spends consuming them — the "compute" half of a streaming pass. The
/// "decode" half (time spent in [`BlockRead::next_block`]) is timed by the
/// streaming loop and folded in through [`MeteredSink::add_decode_nanos`],
/// so one sink carries the full decode-vs-compute split.
///
/// Generalizes [`CountingSink`] over the same tap seam: delivery to the
/// inner sink is unchanged (same blocks, same order, exactly once), so
/// metering is result-invariant by construction. The trace crate has no
/// metrics dependency; callers read the totals off the accessors and flush
/// them into whatever registry they aggregate in.
#[derive(Debug, Clone, Default)]
pub struct MeteredSink<S> {
    inner: S,
    accesses: u64,
    blocks: u64,
    compute_nanos: u64,
    decode_nanos: u64,
}

impl<S: AccessSink> MeteredSink<S> {
    /// Wraps `inner`, all meters zeroed.
    pub fn new(inner: S) -> MeteredSink<S> {
        MeteredSink {
            inner,
            accesses: 0,
            blocks: 0,
            compute_nanos: 0,
            decode_nanos: 0,
        }
    }

    /// Accesses delivered to the inner sink so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Blocks delivered to the inner sink so far (per-access deliveries
    /// count as zero blocks).
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Nanoseconds the inner sink spent consuming deliveries.
    #[must_use]
    pub fn compute_nanos(&self) -> u64 {
        self.compute_nanos
    }

    /// Nanoseconds of decode time folded in by the streaming loop.
    #[must_use]
    pub fn decode_nanos(&self) -> u64 {
        self.decode_nanos
    }

    /// Folds `nanos` of block-decode time into the decode meter
    /// (saturating).
    pub fn add_decode_nanos(&mut self, nanos: u64) {
        self.decode_nanos = self.decode_nanos.saturating_add(nanos);
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes the meter, returning the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: AccessSink> AccessSink for MeteredSink<S> {
    fn on_access(&mut self, addr: u64) {
        let started = std::time::Instant::now();
        self.inner.on_access(addr);
        self.compute_nanos = self
            .compute_nanos
            .saturating_add(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.accesses += 1;
    }

    fn on_block(&mut self, block: &[u64]) {
        let started = std::time::Instant::now();
        self.inner.on_block(block);
        self.compute_nanos = self
            .compute_nanos
            .saturating_add(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        self.accesses += block.len() as u64;
        self.blocks += 1;
    }
}

/// Blocks of a generator spec's accesses, drawn from
/// [`GenSpec::stream_range`].
struct GenBlocks(GenStream);

impl BlockRead for GenBlocks {
    fn next_block(&mut self, buf: &mut Vec<u64>) -> usize {
        buf.clear();
        buf.extend(self.0.by_ref().take(BLOCK_LEN));
        buf.len()
    }
}

/// Blocks copied from a range of an in-memory trace. The reader owns a
/// copy of its range, since an [`AccessBlocks`] may outlive the source it
/// was opened on.
struct MemoryBlocks {
    accesses: Vec<Addr>,
    next: usize,
}

impl BlockRead for MemoryBlocks {
    fn next_block(&mut self, buf: &mut Vec<u64>) -> usize {
        let end = self.accesses.len().min(self.next + BLOCK_LEN);
        buf.clear();
        buf.extend(
            self.accesses[self.next..end]
                .iter()
                .map(|a| a.value() as u64),
        );
        self.next = end;
        buf.len()
    }
}

/// How one run reads a source: the access count it planned with, and the
/// sidecar chunk index its file readers seek by and check against — read
/// and parsed once per run, so its chunk readers share one copy instead of
/// each reading the sidecar again.
///
/// A file block reader opened under a plan ([`TraceSource::read_blocks`])
/// starts decoding one index point before the point it would seek to, and
/// checks while it decodes that
///
/// * it decodes every access of its range up to the planned count (a
///   payload that ends early is an error);
/// * at every index point it passes, the access starts at the byte offset
///   the sidecar records (for text, the offset of that access's line);
/// * reaching the planned count, the payload ends (for text, no further
///   access line follows).
///
/// So a read either fails or delivers exactly the accesses a plain decode
/// of the file from its first byte yields: a sidecar can speed a read up or
/// make it fail, never change what is read.
#[derive(Debug, Clone, Default)]
pub struct ReadPlan {
    /// The planned access count; `None` reads to the end of the source.
    total: Option<u64>,
    /// The sidecar chunk index, when one applies.
    index: Option<Arc<SltrIndex>>,
    /// Whether range reads start without decoding the accesses before them.
    seeks: bool,
}

impl ReadPlan {
    /// The plan of a job planned at `total` accesses of `source`. A file's
    /// sidecar is used when it parses, describes the file's length and
    /// records `total` accesses; when it has gone, or no longer matches,
    /// since the job was planned, the readers decode-skip. Either way every
    /// reader checks its accesses against `total`.
    #[must_use]
    pub fn planned(source: &TraceSource, total: u64) -> ReadPlan {
        let index = source
            .sidecar_index()
            .ok()
            .flatten()
            .filter(|index| index.total_accesses() == total);
        ReadPlan::new(source, Some(total), index)
    }

    /// The plan of one read through the whole of `source`: planned at its
    /// sidecar's access count when it has a sidecar, to the end of the file
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns the corrupt- or stale-sidecar error of
    /// [`TraceSource::sidecar_index`].
    pub fn whole(source: &TraceSource) -> Result<ReadPlan, TraceIoError> {
        let index = source.sidecar_index()?;
        let total = index.as_ref().map(SltrIndex::total_accesses);
        Ok(ReadPlan::new(source, total, index))
    }

    fn new(source: &TraceSource, total: Option<u64>, index: Option<SltrIndex>) -> ReadPlan {
        let seeks = match source {
            TraceSource::Text(_) | TraceSource::Binary(_) => index.is_some(),
            TraceSource::Gen(spec) => {
                !matches!(spec, GenSpec::Random { .. } | GenSpec::Zipf { .. })
            }
            TraceSource::Memory(_) => true,
        };
        ReadPlan {
            total,
            index: index.map(Arc::new),
            seeks,
        }
    }

    /// The access count the plan reads to, when it has one.
    #[must_use]
    pub fn total(&self) -> Option<u64> {
        self.total
    }

    /// True when a range read under this plan starts without decoding the
    /// accesses before it: in-memory traces, the deterministic generator
    /// patterns, and files with a sidecar chunk index that applies. Seeded
    /// random generators replay their draws and other files decode every
    /// earlier access, so chunked readers of those should share a
    /// [`BlockCursor`].
    #[must_use]
    pub fn seeks(&self) -> bool {
        self.seeks
    }
}

/// The first error of a file block reader, kept so every later call
/// reports it again.
#[derive(Debug, Default)]
struct FirstError(Option<TraceIoError>);

impl FirstError {
    /// A copy of the kept error, if a call failed before.
    fn again(&self) -> Option<TraceIoError> {
        Some(match self.0.as_ref()? {
            TraceIoError::Io(e) => TraceIoError::Io(std::io::Error::new(e.kind(), e.to_string())),
            TraceIoError::Parse { line, text } => TraceIoError::Parse {
                line: *line,
                text: text.clone(),
            },
        })
    }

    /// Passes `result` through, keeping its error if it is the first.
    fn keep<T>(&mut self, result: Result<T, TraceIoError>) -> Result<T, TraceIoError> {
        result.map_err(|error| {
            self.0 = Some(error);
            self.again().expect("an error was just kept")
        })
    }
}

/// What a file block reader checks while it decodes (see [`ReadPlan`]).
struct Checks {
    /// The trace file, for messages naming its sidecar.
    path: PathBuf,
    /// The next access the reader decodes, counted from the trace start.
    position: u64,
    /// Delivery starts at this access; the ones before it are decoded and
    /// dropped.
    start: u64,
    /// Delivery stops at this access: the range end, clamped to the
    /// planned count.
    end: u64,
    /// The planned count.
    total: Option<u64>,
    index: Option<Arc<SltrIndex>>,
    /// Set once the end of the payload was checked at the planned count.
    end_checked: bool,
}

impl Checks {
    /// The checks of a read of `start..end` under `plan`, and the payload
    /// offset to seek to: one index point before the last one at or below
    /// `start`, when there is one.
    fn new(path: &Path, plan: &ReadPlan, start: u64, end: u64) -> (Checks, u64) {
        let end = plan.total.map_or(end, |total| end.min(total));
        let start = start.min(end);
        let (position, offset) = match &plan.index {
            Some(index) => {
                let seek = start / index.interval();
                let point =
                    seek.min(index.entry_count() as u64).saturating_sub(1) * index.interval();
                (point, index.offset_of(point).unwrap_or(0))
            }
            None => (0, 0),
        };
        let checks = Checks {
            path: path.to_path_buf(),
            position,
            start,
            end,
            total: plan.total,
            index: plan.index.clone(),
            end_checked: false,
        };
        (checks, offset)
    }

    /// Accesses the reader may decode next: up to `max`, and never past the
    /// next index point, so it stops on each point to check it.
    fn step(&self, max: u64) -> u64 {
        let Some(index) = &self.index else {
            return max;
        };
        let next = (self.position / index.interval() + 1) * index.interval();
        if next / index.interval() > index.entry_count() as u64 {
            max
        } else {
            max.min(next - self.position)
        }
    }

    /// Checks that access `point` starts at payload byte `actual`, when the
    /// sidecar records an offset for it.
    fn check_offset(&self, point: u64, actual: u64) -> Result<(), TraceIoError> {
        match self.index.as_ref().and_then(|index| index.offset_of(point)) {
            Some(expected) if expected != actual => Err(self.stale(&format!(
                "access {point} starts at payload byte {actual}, the index records byte {expected}"
            ))),
            _ => Ok(()),
        }
    }

    /// The error of a payload that ended at access `self.position`, before
    /// the planned count; `None` when the read has no planned count.
    fn ended_early(&self) -> Option<TraceIoError> {
        let total = self.total.filter(|&total| self.position < total)?;
        let position = self.position;
        Some(if self.index.is_some() {
            self.stale(&format!(
                "the payload ends after {position} accesses, the index records {total}"
            ))
        } else {
            invalid_data(format!(
                "the trace ends after {position} accesses, {total} were planned \
                 (it changed since the job was planned)"
            ))
        })
    }

    /// The error of a payload that goes on past the planned count.
    fn runs_past(&self) -> TraceIoError {
        let total = self.position;
        if self.index.is_some() {
            self.stale(&format!(
                "the payload holds more than the {total} accesses the index records"
            ))
        } else {
            invalid_data(format!(
                "the trace holds more than the {total} accesses planned \
                 (it changed since the job was planned)"
            ))
        }
    }

    /// True once the read reached the planned count and the end of the
    /// payload still has to be checked.
    fn end_due(&self) -> bool {
        !self.end_checked && self.total == Some(self.position)
    }

    /// A stale-sidecar error naming the sidecar.
    fn stale(&self, what: &str) -> TraceIoError {
        SltrError::IndexStale {
            reason: format!("{}: {what}", sltr_index_path(&self.path).display()),
        }
        .into()
    }
}

/// A decode error with `message`.
fn invalid_data(message: String) -> TraceIoError {
    TraceIoError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        message,
    ))
}

/// Zero-copy block decoding of a `.sltr` payload under a [`ReadPlan`]:
/// seek-positioned by the sidecar when one applies, checked as it decodes.
struct SltrBlocks {
    reader: SltrReader<File>,
    /// The payload offset the reader started at.
    base: u64,
    checks: Checks,
    failed: FirstError,
}

impl SltrBlocks {
    /// Opens a reader of `start..end` under `plan` and decode-skips to
    /// `start`.
    fn open(path: &Path, plan: &ReadPlan, start: u64, end: u64) -> Result<Self, TraceIoError> {
        use std::io::{Seek, SeekFrom};
        let (checks, base) = Checks::new(path, plan, start, end);
        let mut file = File::open(path)?;
        read_sltr_header(&mut file)?;
        if base > 0 {
            // The index applies only to a payload longer than `base`.
            file.seek(SeekFrom::Start(5 + base))?;
        }
        let mut blocks = SltrBlocks {
            reader: SltrReader::resume(file, checks.position),
            base,
            checks,
            failed: FirstError::default(),
        };
        let mut scratch = Vec::new();
        while blocks.checks.position < blocks.checks.start {
            let skip = blocks.checks.start - blocks.checks.position;
            scratch.clear();
            if blocks.decode(&mut scratch, skip.min(BLOCK_LEN as u64))? == 0 {
                break;
            }
        }
        blocks.check_end()?;
        Ok(blocks)
    }

    /// Appends up to `max` decoded accesses to `buf`, stopping on each
    /// index point on the way to check its offset, and checking the end of
    /// the payload at the planned count; `0` at the end of an unplanned
    /// read.
    fn decode(&mut self, buf: &mut Vec<u64>, max: u64) -> Result<usize, TraceIoError> {
        let first = buf.len();
        let mut left = max;
        while left > 0 {
            let step = usize::try_from(self.checks.step(left)).unwrap_or(usize::MAX);
            let n = self.reader.decode_onto(buf, step)?;
            if n == 0 {
                if let Some(error) = self.checks.ended_early() {
                    return Err(error);
                }
                break;
            }
            self.checks.position += n as u64;
            left -= n as u64;
            self.checks.check_offset(
                self.checks.position,
                self.base + self.reader.payload_bytes(),
            )?;
            self.check_end()?;
        }
        Ok(buf.len() - first)
    }

    /// At the planned count, checks that the payload ends there.
    fn check_end(&mut self) -> Result<(), TraceIoError> {
        if !self.checks.end_due() {
            return Ok(());
        }
        self.checks.end_checked = true;
        if self.reader.decode_block(&mut Vec::new(), 1)? > 0 {
            return Err(self.checks.runs_past());
        }
        Ok(())
    }
}

impl BlockRead for SltrBlocks {
    fn next_block(&mut self, buf: &mut Vec<u64>) -> usize {
        self.try_next_block(buf).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_next_block(&mut self, buf: &mut Vec<u64>) -> Result<usize, TraceIoError> {
        buf.clear();
        if let Some(error) = self.failed.again() {
            return Err(error);
        }
        let want = (self.checks.end - self.checks.position).min(BLOCK_LEN as u64);
        let decoded = self.decode(buf, want);
        self.failed.keep(decoded).inspect_err(|_| buf.clear())
    }
}

impl TraceSource {
    /// Parses a CLI argument: a `gen:` spec, or a path (`.sltr` extension or
    /// an `SLTR` magic selects the binary format, anything else is text).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the problem.
    pub fn parse(arg: &str) -> Result<TraceSource, String> {
        if arg.starts_with("gen:") {
            return Ok(TraceSource::Gen(GenSpec::parse(arg)?));
        }
        let path = PathBuf::from(arg);
        if path.extension().is_some_and(|e| e == "sltr") || file_has_sltr_magic(&path) {
            Ok(TraceSource::Binary(path))
        } else {
            Ok(TraceSource::Text(path))
        }
    }

    /// Reconstructs a source from a [`TraceSource::fingerprint`] string —
    /// the dispatch `symloc job resume` uses to reopen the trace a
    /// checkpoint was recorded against. Round-trips for every
    /// reconstructible variant: `gen:` specs, `text:` and `sltr:` paths.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description for malformed fingerprints and
    /// for `memory:` sources (which live only in the recording process).
    pub fn from_fingerprint(fingerprint: &str) -> Result<TraceSource, String> {
        if fingerprint.starts_with("gen:") {
            return Ok(TraceSource::Gen(GenSpec::parse(fingerprint)?));
        }
        if let Some(path) = fingerprint.strip_prefix("text:") {
            return Ok(TraceSource::Text(PathBuf::from(path)));
        }
        if let Some(path) = fingerprint.strip_prefix("sltr:") {
            return Ok(TraceSource::Binary(PathBuf::from(path)));
        }
        if fingerprint.starts_with("memory:") {
            return Err(
                "in-memory trace sources cannot be reconstructed from a checkpoint; \
                 re-run against the original file or generator spec"
                    .to_string(),
            );
        }
        Err(format!(
            "unrecognized trace-source fingerprint {fingerprint:?}"
        ))
    }

    /// A stable one-line identity of the source, embedded in ingest
    /// checkpoints so a resume can tell whether the checkpoint belongs to
    /// the trace it is about to process. File fingerprints are *path*-based
    /// (hashing gigabytes on every save would defeat streaming); consumers
    /// that must detect a file changing between runs additionally compare
    /// the access count ([`TraceSource::planned_accesses`]), as the trace
    /// job's resume does.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        match self {
            TraceSource::Text(path) => format!("text:{}", path.display()),
            TraceSource::Binary(path) => format!("sltr:{}", path.display()),
            TraceSource::Gen(spec) => spec.fingerprint(),
            TraceSource::Memory(trace) => {
                format!("memory:{}:{:016x}", trace.len(), fnv1a_trace(trace))
            }
        }
    }

    /// Total number of accesses. A file is counted by draining
    /// [`TraceSource::read_blocks`] under the unplanned plan
    /// ([`ReadPlan::default`]: no sidecar, no planned count), so every
    /// access is read, decoded and checked; generators and in-memory traces
    /// answer in `O(1)`. A job plans with [`TraceSource::planned_accesses`]
    /// instead, which reads an indexed file's count off its sidecar.
    ///
    /// A file with a sidecar chunk index also validates the index here: a
    /// corrupt sidecar, or one describing another access count or payload
    /// length (the trace was truncated, appended to or replaced after
    /// indexing), is a loud error rather than a silent mis-seek later.
    ///
    /// # Errors
    ///
    /// Returns the first read or parse error (a malformed text line is
    /// [`TraceIoError::Parse`] with its 1-based line number), then the
    /// sidecar's error.
    pub fn total_accesses(&self) -> Result<u64, TraceIoError> {
        let (path, header) = match self {
            TraceSource::Text(path) => (path, 0),
            TraceSource::Binary(path) => (path, 5),
            TraceSource::Gen(spec) => return Ok(spec.total_accesses()),
            TraceSource::Memory(trace) => return Ok(trace.len() as u64),
        };
        let mut blocks = self.read_blocks(&ReadPlan::default(), 0, u64::MAX)?;
        let (mut count, mut buf) = (0u64, Vec::with_capacity(BLOCK_LEN));
        while blocks.try_next_block(&mut buf)? > 0 {
            count += buf.len() as u64;
        }
        let sidecar = sltr_index_path(path);
        if sidecar.exists() {
            let index = SltrIndex::read(&sidecar)?;
            index.check_matches(count, std::fs::metadata(path)?.len().saturating_sub(header))?;
        }
        Ok(count)
    }

    /// The access count a job plans with: an indexed file's count as its
    /// sidecar records it, read without decoding the file, which the job's
    /// chunk readers then check during their one decode pass (see
    /// [`ReadPlan`]). A file without a sidecar is counted as
    /// [`TraceSource::total_accesses`] counts it, since its chunk plan needs
    /// the count; generators and in-memory traces answer in `O(1)`.
    ///
    /// # Errors
    ///
    /// Returns the corrupt- or stale-sidecar error of
    /// [`TraceSource::sidecar_index`], or the scan's first read or parse
    /// error for a file without a sidecar.
    pub fn planned_accesses(&self) -> Result<u64, TraceIoError> {
        match self.sidecar_index()? {
            Some(index) => Ok(index.total_accesses()),
            None => self.total_accesses(),
        }
    }

    /// The sidecar chunk index of a file source (at [`sltr_index_path`]):
    /// `None` for a file without one and for sources that are not files.
    ///
    /// # Errors
    ///
    /// A sidecar that does not parse ([`SltrError::IndexCorrupt`]), or one
    /// describing a payload of another length than the file's
    /// ([`SltrError::IndexStale`]: the trace was truncated, appended to or
    /// replaced after indexing), is a loud error rather than a silent
    /// mis-seek later.
    pub fn sidecar_index(&self) -> Result<Option<SltrIndex>, TraceIoError> {
        let (path, header) = match self {
            TraceSource::Text(path) => (path, 0),
            TraceSource::Binary(path) => (path, 5),
            TraceSource::Gen(_) | TraceSource::Memory(_) => return Ok(None),
        };
        let sidecar = sltr_index_path(path);
        if !sidecar.exists() {
            return Ok(None);
        }
        let index = SltrIndex::read(&sidecar)?;
        index.check_matches_payload_only(std::fs::metadata(path)?.len().saturating_sub(header))?;
        Ok(Some(index))
    }

    /// Streams accesses `start..end` as decoded blocks:
    /// [`TraceSource::read_blocks`] under the plan of a read through the
    /// whole source ([`ReadPlan::whole`]), with the sidecar read and checked
    /// on every call. A sidecar that does not apply (corrupt, or describing
    /// another payload length) means decode-skipping the prefix instead, so
    /// either way the accesses are those a plain decode of the file yields.
    ///
    /// # Errors
    ///
    /// Returns the error of opening the underlying file or of decoding the
    /// skipped prefix, if any.
    pub fn stream_blocks_range(&self, start: u64, end: u64) -> Result<AccessBlocks, TraceIoError> {
        self.read_blocks(&ReadPlan::whole(self).unwrap_or_default(), start, end)
    }

    /// Reads accesses `start..end` (clamped to the plan's count, or to the
    /// trace length) as decoded blocks under `plan`. `.sltr` sources
    /// decode LEB128 runs straight into the caller's buffer
    /// ([`SltrReader::decode_block`]); text sources parse one reused line
    /// buffer. With the plan's sidecar both seek, one index point before
    /// the range, and both check what they decode against the plan as
    /// [`ReadPlan`] describes; without one they decode-skip the prefix.
    /// Generator specs draw their blocks from [`GenSpec::stream_range`],
    /// and in-memory traces copy theirs from the trace.
    ///
    /// # Errors
    ///
    /// Returns the error of opening the underlying file or of decoding and
    /// checking the skipped prefix, if any; later errors come from
    /// [`BlockRead::try_next_block`].
    pub fn read_blocks(
        &self,
        plan: &ReadPlan,
        start: u64,
        end: u64,
    ) -> Result<AccessBlocks, TraceIoError> {
        Ok(match self {
            TraceSource::Binary(path) => Box::new(SltrBlocks::open(path, plan, start, end)?),
            TraceSource::Text(path) => Box::new(TextBlocks::open(path, plan, start, end)?),
            TraceSource::Gen(spec) => Box::new(GenBlocks(spec.stream_range(start, end))),
            TraceSource::Memory(trace) => {
                let end = usize::try_from(end).unwrap_or(usize::MAX).min(trace.len());
                let start = usize::try_from(start).unwrap_or(usize::MAX).min(end);
                Box::new(MemoryBlocks {
                    accesses: trace.accesses()[start..end].to_vec(),
                    next: 0,
                })
            }
        })
    }
}

/// A block reader over a source from some access to its end that hands out
/// consecutive bounded ranges ([`BlockCursor::take`]), so several chunks of
/// a source that does not [seek](ReadPlan::seeks) are read by continuing
/// one stream instead of decoding the prefix again for each.
pub struct BlockCursor {
    blocks: AccessBlocks,
    position: u64,
    buf: Vec<u64>,
    next: usize,
}

impl BlockCursor {
    /// A cursor over `blocks`, a block reader whose next access is access
    /// `position` of its source.
    #[must_use]
    pub fn new(blocks: AccessBlocks, position: u64) -> BlockCursor {
        BlockCursor {
            blocks,
            position,
            buf: Vec::new(),
            next: 0,
        }
    }

    /// The index of the next access the cursor hands out.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Up to `limit` decoded accesses at the cursor, advancing past them;
    /// empty at the end of the source.
    fn advance(&mut self, limit: u64) -> Result<&[u64], TraceIoError> {
        if limit == 0 {
            return Ok(&[]);
        }
        if self.next == self.buf.len() {
            self.next = 0;
            self.blocks.try_next_block(&mut self.buf)?;
        }
        let n = (self.buf.len() - self.next).min(usize::try_from(limit).unwrap_or(usize::MAX));
        let run = &self.buf[self.next..self.next + n];
        self.next += n;
        self.position += n as u64;
        Ok(run)
    }

    /// Decodes and drops accesses until the cursor is at `position` (or at
    /// the end of the source); a no-op when it is already there or past it.
    ///
    /// # Errors
    ///
    /// Returns the underlying reader's error.
    pub fn skip_to(&mut self, position: u64) -> Result<(), TraceIoError> {
        while self.position < position && !self.advance(position - self.position)?.is_empty() {}
        Ok(())
    }

    /// A block reader over the next `len` accesses; reading it advances
    /// the cursor.
    pub fn take(&mut self, len: u64) -> CursorRange<'_> {
        CursorRange {
            cursor: self,
            remaining: len,
        }
    }
}

/// The next accesses of a [`BlockCursor`], as a [`BlockRead`].
pub struct CursorRange<'a> {
    cursor: &'a mut BlockCursor,
    remaining: u64,
}

impl BlockRead for CursorRange<'_> {
    fn next_block(&mut self, buf: &mut Vec<u64>) -> usize {
        self.try_next_block(buf).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_next_block(&mut self, buf: &mut Vec<u64>) -> Result<usize, TraceIoError> {
        buf.clear();
        buf.extend_from_slice(self.cursor.advance(self.remaining)?);
        self.remaining -= buf.len() as u64;
        Ok(buf.len())
    }
}

impl std::fmt::Display for TraceSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.fingerprint())
    }
}

/// Block parsing of a text trace under a [`ReadPlan`] through one reused
/// line buffer: seek-positioned by the sidecar when one applies, checked
/// as it parses.
struct TextBlocks {
    reader: BufReader<File>,
    line: String,
    /// The byte offset of the next line.
    offset: u64,
    /// Lines read so far, when the reader started at the first line.
    lines: Option<usize>,
    checks: Checks,
    failed: FirstError,
}

impl TextBlocks {
    /// Opens a reader of `start..end` under `plan` and parse-skips to
    /// `start`.
    fn open(path: &Path, plan: &ReadPlan, start: u64, end: u64) -> Result<Self, TraceIoError> {
        use std::io::{Seek, SeekFrom};
        let (checks, offset) = Checks::new(path, plan, start, end);
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        let mut blocks = TextBlocks {
            reader: BufReader::new(file),
            line: String::new(),
            offset,
            lines: (offset == 0).then_some(0),
            checks,
            failed: FirstError::default(),
        };
        while blocks.checks.position < blocks.checks.start && blocks.next_access()?.is_some() {}
        blocks.check_end()?;
        Ok(blocks)
    }

    /// The next access, checking the offset of its line at an index point;
    /// `None` at the end of an unplanned read.
    fn next_access(&mut self) -> Result<Option<u64>, TraceIoError> {
        loop {
            self.line.clear();
            let line_start = self.offset;
            let read = self.reader.read_line(&mut self.line)?;
            if read == 0 {
                return self.checks.ended_early().map_or(Ok(None), Err);
            }
            self.offset += read as u64;
            self.lines = self.lines.map(|lines| lines + 1);
            let Some(parsed) = parse_text_line(&self.line) else {
                continue;
            };
            let position = self.checks.position;
            self.checks.check_offset(position, line_start)?;
            let addr = parsed.map_err(|text| match self.lines {
                Some(line) => TraceIoError::Parse {
                    line,
                    text: text.to_string(),
                },
                None => invalid_data(format!(
                    "trace line {text:?} at byte {line_start} (access #{position}) \
                     is not an address"
                )),
            })?;
            self.checks.position += 1;
            self.check_end()?;
            return Ok(Some(addr));
        }
    }

    /// Appends up to `max` parsed accesses to `buf`; `0` at the end of an
    /// unplanned read.
    fn parse(&mut self, buf: &mut Vec<u64>, max: u64) -> Result<usize, TraceIoError> {
        let first = buf.len();
        while ((buf.len() - first) as u64) < max {
            match self.next_access()? {
                Some(addr) => buf.push(addr),
                None => break,
            }
        }
        Ok(buf.len() - first)
    }

    /// At the planned count, checks that no further access line follows.
    fn check_end(&mut self) -> Result<(), TraceIoError> {
        if !self.checks.end_due() {
            return Ok(());
        }
        self.checks.end_checked = true;
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Ok(());
            }
            if parse_text_line(&self.line).is_some() {
                return Err(self.checks.runs_past());
            }
        }
    }
}

impl BlockRead for TextBlocks {
    fn next_block(&mut self, buf: &mut Vec<u64>) -> usize {
        self.try_next_block(buf).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_next_block(&mut self, buf: &mut Vec<u64>) -> Result<usize, TraceIoError> {
        buf.clear();
        if let Some(error) = self.failed.again() {
            return Err(error);
        }
        let want = (self.checks.end - self.checks.position).min(BLOCK_LEN as u64);
        let parsed = self.parse(buf, want);
        self.failed.keep(parsed).inspect_err(|_| buf.clear())
    }
}

/// Builds a line-offset chunk index over a text trace file: the same
/// `SLIX` sidecar shape as `.sltr` indexes ([`SltrIndex`]), with the whole
/// file as the payload and entry `k` holding the byte offset of the line
/// that starts access `k·interval` (comment and blank lines do not count
/// as accesses but do count bytes). Written to [`sltr_index_path`], it
/// makes [`TraceSource::read_blocks`] *seek* on text sources as it does on
/// indexed `.sltr` files. Lines are read by the grammar every text reader
/// shares: trimmed, blank and `#` lines skipped, the rest addresses.
///
/// # Errors
///
/// Returns the first read or parse error of the trace file
/// ([`TraceIoError::Parse`] with its 1-based line number).
///
/// # Panics
///
/// Panics if `interval == 0`.
pub fn build_text_index(path: &Path, interval: u64) -> Result<SltrIndex, TraceIoError> {
    assert!(interval > 0, "the index interval must be positive");
    let mut reader = BufReader::new(File::open(path)?);
    let mut line = String::new();
    let mut offsets = Vec::new();
    let (mut count, mut pos) = (0u64, 0u64);
    let mut lineno = 0usize;
    loop {
        line.clear();
        let bytes = reader.read_line(&mut line)?;
        if bytes == 0 {
            break;
        }
        lineno += 1;
        if let Some(parsed) = parse_text_line(&line) {
            parsed.map_err(|text| TraceIoError::Parse {
                line: lineno,
                text: text.to_string(),
            })?;
            if count > 0 && count.is_multiple_of(interval) {
                offsets.push(pos);
            }
            count += 1;
        }
        pos += bytes as u64;
    }
    Ok(SltrIndex::from_parts(interval, count, pos, offsets))
}

/// True when the file starts with the `SLTR` magic (best-effort sniff).
fn file_has_sltr_magic(path: &Path) -> bool {
    use std::io::Read;
    let Ok(mut file) = File::open(path) else {
        return false;
    };
    let mut magic = [0u8; 4];
    file.read_exact(&mut magic).is_ok() && magic == crate::binio::SLTR_MAGIC
}

/// FNV-1a over the address values, for in-memory source fingerprints.
fn fnv1a_trace(trace: &Trace) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for a in trace.iter() {
        for byte in (a.value() as u64).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binio::write_sltr;
    use crate::generators::{
        cyclic_trace, random_trace, sawtooth_trace, strided_trace, tiled_trace, zipfian_trace,
    };
    use crate::io::write_trace;

    fn collect(spec: &GenSpec) -> Vec<u64> {
        spec.stream().collect()
    }

    fn as_u64(trace: &Trace) -> Vec<u64> {
        trace.iter().map(|a| a.value() as u64).collect()
    }

    /// The whole of `source`, decoded without the block readers: the
    /// whole-file readers of [`crate::io`] and [`crate::binio`], or the
    /// generator's own stream.
    fn decoded(source: &TraceSource) -> Vec<u64> {
        match source {
            TraceSource::Text(path) => as_u64(&crate::io::read_trace(path).unwrap()),
            TraceSource::Binary(path) => as_u64(&crate::binio::read_sltr(path).unwrap()),
            TraceSource::Gen(spec) => spec.stream().collect(),
            TraceSource::Memory(trace) => as_u64(trace),
        }
    }

    /// Accesses `start..end` of `all`, clamped to its length.
    fn range_of(all: &[u64], start: u64, end: u64) -> Vec<u64> {
        let end = usize::try_from(end).unwrap_or(usize::MAX).min(all.len());
        let start = usize::try_from(start).unwrap_or(usize::MAX).min(end);
        all[start..end].to_vec()
    }

    #[test]
    fn gen_streams_match_batch_generators() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        assert_eq!(
            collect(&GenSpec::parse("gen:cyclic:5:3").unwrap()),
            as_u64(&cyclic_trace(5, 3))
        );
        assert_eq!(
            collect(&GenSpec::parse("gen:sawtooth:4:5").unwrap()),
            as_u64(&sawtooth_trace(4, 5))
        );
        assert_eq!(
            collect(&GenSpec::parse("gen:strided:8:3:2").unwrap()),
            as_u64(&strided_trace(8, 3, 2))
        );
        for (m, tile) in [(9, 4), (8, 2), (3, 7)] {
            assert_eq!(
                collect(&GenSpec::parse(&format!("gen:tiled:{m}:{tile}:3")).unwrap()),
                as_u64(&tiled_trace(m, tile, 3)),
                "m={m} tile={tile}"
            );
        }
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(
            collect(&GenSpec::parse("gen:random:10:50:11").unwrap()),
            as_u64(&random_trace(10, 50, &mut rng))
        );
        let mut rng = StdRng::seed_from_u64(12);
        assert_eq!(
            collect(&GenSpec::parse("gen:zipf:20:100:0.9:12").unwrap()),
            as_u64(&zipfian_trace(20, 100, 0.9, &mut rng))
        );
    }

    #[test]
    fn stream_range_equals_skip_take_for_every_kind() {
        for spec in [
            "gen:cyclic:7:4",
            "gen:sawtooth:6:5",
            "gen:strided:9:2:3",
            "gen:tiled:10:3:2",
            "gen:random:12:60:5",
            "gen:zipf:15:60:1.1:5",
        ] {
            let spec = GenSpec::parse(spec).unwrap();
            let full = collect(&spec);
            for (start, end) in [(0u64, 9u64), (5, 23), (17, 17), (20, 10_000)] {
                let ranged: Vec<u64> = spec.stream_range(start, end).collect();
                let expect: Vec<u64> = full
                    .iter()
                    .copied()
                    .skip(start as usize)
                    .take(end.saturating_sub(start) as usize)
                    .collect();
                assert_eq!(ranged, expect, "{spec} range {start}..{end}");
            }
        }
    }

    #[test]
    fn parse_round_trips_and_rejects_malformed() {
        for text in [
            "gen:cyclic:5:3",
            "gen:sawtooth:4:5",
            "gen:strided:8:3:2",
            "gen:tiled:9:4:3",
            "gen:random:10:50:11",
            "gen:zipf:20:100:0.9:12",
        ] {
            let spec = GenSpec::parse(text).unwrap();
            assert_eq!(spec.fingerprint(), text);
            assert_eq!(GenSpec::parse(&spec.fingerprint()).unwrap(), spec);
            assert_eq!(format!("{spec}"), text);
        }
        assert!(GenSpec::parse("gen:bogus:1:2").is_err());
        assert!(GenSpec::parse("gen:cyclic:1").is_err());
        assert!(GenSpec::parse("gen:cyclic:1:2:3").is_err());
        assert!(GenSpec::parse("gen:cyclic:x:2").is_err());
        assert!(GenSpec::parse("gen:zipf:5:5:notafloat:1").is_err());
        assert!(GenSpec::parse("gen:tiled:5:0:2").is_err());
        assert!(GenSpec::parse("").is_err());
    }

    #[test]
    fn source_parse_detects_formats() {
        assert!(matches!(
            TraceSource::parse("gen:cyclic:4:2").unwrap(),
            TraceSource::Gen(_)
        ));
        assert!(matches!(
            TraceSource::parse("/tmp/foo.sltr").unwrap(),
            TraceSource::Binary(_)
        ));
        assert!(matches!(
            TraceSource::parse("/tmp/foo.trace").unwrap(),
            TraceSource::Text(_)
        ));
        assert!(TraceSource::parse("gen:frobnicate:1").is_err());
        // Magic sniffing catches .sltr content under a foreign extension.
        let path = std::env::temp_dir().join("symloc_stream_sniff_test.bin");
        write_sltr(&cyclic_trace(3, 1), &path).unwrap();
        assert!(matches!(
            TraceSource::parse(path.to_str().unwrap()).unwrap(),
            TraceSource::Binary(_)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_sources_stream_and_count() {
        let t = sawtooth_trace(6, 3);
        let dir = std::env::temp_dir();
        let text_path = dir.join("symloc_stream_test.trace");
        let bin_path = dir.join("symloc_stream_test.sltr");
        write_trace(&t, &text_path).unwrap();
        write_sltr(&t, &bin_path).unwrap();
        for source in [
            TraceSource::Text(text_path.clone()),
            TraceSource::Binary(bin_path.clone()),
            TraceSource::Memory(t.clone()),
        ] {
            assert_eq!(source.total_accesses().unwrap(), 18, "{source}");
            let all = collect_blocks(source.stream_blocks_range(0, u64::MAX).unwrap().as_mut());
            assert_eq!(all, as_u64(&t), "{source}");
            let mid = collect_blocks(source.stream_blocks_range(4, 9).unwrap().as_mut());
            assert_eq!(mid, as_u64(&t)[4..9].to_vec(), "{source}");
        }
        std::fs::remove_file(&text_path).ok();
        std::fs::remove_file(&bin_path).ok();
    }

    #[test]
    fn fingerprints_identify_sources() {
        let a = TraceSource::Memory(cyclic_trace(4, 2));
        let b = TraceSource::Memory(sawtooth_trace(4, 2));
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.fingerprint(),
            TraceSource::Memory(cyclic_trace(4, 2)).fingerprint()
        );
        assert!(TraceSource::Text(PathBuf::from("x.trace"))
            .fingerprint()
            .starts_with("text:"));
        assert!(TraceSource::Binary(PathBuf::from("x.sltr"))
            .fingerprint()
            .starts_with("sltr:"));
    }

    #[test]
    fn indexed_sltr_ranges_equal_decode_skip_ranges() {
        use crate::binio::{sltr_index_path, write_sltr_indexed};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(77);
        let t = zipfian_trace(50_000, 2000, 0.8, &mut rng);
        let dir = std::env::temp_dir();
        let plain = dir.join("symloc_stream_unindexed_test.sltr");
        let indexed = dir.join("symloc_stream_indexed_test.sltr");
        write_sltr(&t, &plain).unwrap();
        write_sltr_indexed(&t, &indexed, 128).unwrap();
        let a = TraceSource::Binary(plain.clone());
        let b = TraceSource::Binary(indexed.clone());
        assert_eq!(a.total_accesses().unwrap(), 2000);
        assert_eq!(b.total_accesses().unwrap(), 2000);
        let all = as_u64(&t);
        for (start, end) in [
            (0u64, 2000u64),
            (0, 17),
            (127, 129),
            (128, 256),
            (1500, 1600),
            (1999, 5000),
            (2000, 2000),
        ] {
            let via_skip = collect_blocks(a.stream_blocks_range(start, end).unwrap().as_mut());
            let via_seek = collect_blocks(b.stream_blocks_range(start, end).unwrap().as_mut());
            assert_eq!(via_skip, range_of(&all, start, end), "range {start}..{end}");
            assert_eq!(via_seek, via_skip, "range {start}..{end}");
        }
        std::fs::remove_file(&plain).ok();
        std::fs::remove_file(&indexed).ok();
        std::fs::remove_file(sltr_index_path(&indexed)).ok();
    }

    /// Drains a block stream into one flat vector.
    fn collect_blocks(blocks: &mut dyn BlockRead) -> Vec<u64> {
        let mut all = Vec::new();
        let mut buf = Vec::new();
        loop {
            let n = blocks.next_block(&mut buf);
            assert_eq!(n, buf.len());
            if n == 0 {
                return all;
            }
            assert!(n <= BLOCK_LEN);
            all.extend_from_slice(&buf);
        }
    }

    /// Every source kind's block reader yields what a whole decode of the
    /// source yields, sliced to the range.
    #[test]
    fn block_streams_equal_iterator_streams_for_every_kind() {
        use crate::binio::{sltr_index_path, write_sltr_indexed};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(78);
        let t = zipfian_trace(50_000, 9500, 0.8, &mut rng);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let text = dir.join(format!("symloc_stream_blocks_{pid}.trace"));
        let plain = dir.join(format!("symloc_stream_blocks_plain_{pid}.sltr"));
        let indexed = dir.join(format!("symloc_stream_blocks_indexed_{pid}.sltr"));
        write_trace(&t, &text).unwrap();
        write_sltr(&t, &plain).unwrap();
        write_sltr_indexed(&t, &indexed, 128).unwrap();
        for source in [
            TraceSource::Gen(GenSpec::parse("gen:zipf:100:9500:0.7:3").unwrap()),
            TraceSource::Text(text.clone()),
            TraceSource::Memory(t.clone()),
            TraceSource::Binary(plain.clone()),
            TraceSource::Binary(indexed.clone()),
        ] {
            // 9500 accesses spans multiple BLOCK_LEN refills; the ranges
            // cover empty, sub-block, cross-block, and tail-clamped shapes.
            let all = decoded(&source);
            assert_eq!(all.len(), 9500, "{source}");
            for (start, end) in [
                (0u64, 9500u64),
                (0, 17),
                (127, 129),
                (4095, 4099),
                (9000, 50_000),
                (9500, 9500),
                (20_000, 30_000),
            ] {
                let via_blocks =
                    collect_blocks(source.stream_blocks_range(start, end).unwrap().as_mut());
                assert_eq!(
                    via_blocks,
                    range_of(&all, start, end),
                    "{source} range {start}..{end}"
                );
            }
        }
        std::fs::remove_file(&text).ok();
        std::fs::remove_file(&plain).ok();
        std::fs::remove_file(&indexed).ok();
        std::fs::remove_file(sltr_index_path(&indexed)).ok();
    }

    #[test]
    fn cursor_ranges_equal_stream_ranges_and_seeks_names_random_access() {
        use crate::binio::{sltr_index_path, write_sltr_indexed};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(79);
        let t = zipfian_trace(50_000, 9500, 0.8, &mut rng);
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let text = dir.join(format!("symloc_stream_cursor_{pid}.trace"));
        let plain = dir.join(format!("symloc_stream_cursor_plain_{pid}.sltr"));
        let indexed = dir.join(format!("symloc_stream_cursor_indexed_{pid}.sltr"));
        write_trace(&t, &text).unwrap();
        write_sltr(&t, &plain).unwrap();
        write_sltr_indexed(&t, &indexed, 128).unwrap();
        for (source, seeks) in [
            (
                TraceSource::Gen(GenSpec::parse("gen:zipf:100:9500:0.7:3").unwrap()),
                false,
            ),
            (
                TraceSource::Gen(GenSpec::parse("gen:random:100:9500:3").unwrap()),
                false,
            ),
            (
                TraceSource::Gen(GenSpec::parse("gen:cyclic:95:100").unwrap()),
                true,
            ),
            (TraceSource::Text(text.clone()), false),
            (TraceSource::Memory(t.clone()), true),
            (TraceSource::Binary(plain.clone()), false),
            (TraceSource::Binary(indexed.clone()), true),
        ] {
            assert_eq!(
                ReadPlan::whole(&source).is_ok_and(|plan| plan.seeks()),
                seeks,
                "{source}"
            );
            // Consecutive takes, skips inside and across blocks, and a
            // take clamped at the end of the source.
            let all = decoded(&source);
            let mut cursor = BlockCursor::new(source.stream_blocks_range(5, u64::MAX).unwrap(), 5);
            for (start, end) in [
                (5u64, 17u64),
                (17, 17),
                (127, 129),
                (4095, 4099),
                (4099, 8200),
                (9000, 50_000),
            ] {
                cursor.skip_to(start).unwrap();
                assert_eq!(cursor.position(), start, "{source} skip to {start}");
                let taken = collect_blocks(&mut cursor.take(end - start));
                assert_eq!(
                    taken,
                    range_of(&all, start, end),
                    "{source} range {start}..{end}"
                );
            }
            assert_eq!(cursor.position(), 9500, "{source}");
            assert!(collect_blocks(&mut cursor.take(10)).is_empty());
        }
        std::fs::remove_file(&text).ok();
        std::fs::remove_file(&plain).ok();
        std::fs::remove_file(&indexed).ok();
        std::fs::remove_file(sltr_index_path(&indexed)).ok();
    }

    #[test]
    fn stale_or_corrupt_indexes_fail_validation_loudly() {
        use crate::binio::{sltr_index_path, write_sltr_indexed};
        let dir = std::env::temp_dir();
        let path = dir.join("symloc_stream_stale_index_test.sltr");
        let sidecar = sltr_index_path(&path);
        write_sltr_indexed(&sawtooth_trace(30, 20), &path, 64).unwrap();
        let source = TraceSource::Binary(path.clone());
        assert_eq!(source.total_accesses().unwrap(), 600);

        // Replace the trace but keep the old index: validation must error.
        write_sltr(&sawtooth_trace(30, 10), &path).unwrap();
        let err = source.total_accesses().unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
        // Block reads fall back to decode-skip rather than mis-seeking,
        // from the first access and from inside the trace.
        let all = collect_blocks(source.stream_blocks_range(0, 10).unwrap().as_mut());
        assert_eq!(all, as_u64(&sawtooth_trace(30, 10))[..10].to_vec());
        let blocks = collect_blocks(source.stream_blocks_range(3, 10).unwrap().as_mut());
        assert_eq!(blocks, as_u64(&sawtooth_trace(30, 10))[3..10].to_vec());

        // A corrupt sidecar is also a loud validation error.
        std::fs::write(&sidecar, b"garbage").unwrap();
        assert!(source.total_accesses().is_err());

        // Removing the sidecar restores plain decode-skip behavior.
        std::fs::remove_file(&sidecar).ok();
        assert_eq!(source.total_accesses().unwrap(), 300);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_fingerprint_round_trips_reconstructible_sources() {
        for fp in ["gen:cyclic:5:3", "gen:zipf:20:100:0.9:12"] {
            let source = TraceSource::from_fingerprint(fp).unwrap();
            assert_eq!(source.fingerprint(), fp);
        }
        let text = TraceSource::from_fingerprint("text:/tmp/a.trace").unwrap();
        assert!(matches!(text, TraceSource::Text(_)));
        assert_eq!(text.fingerprint(), "text:/tmp/a.trace");
        let bin = TraceSource::from_fingerprint("sltr:/tmp/a.sltr").unwrap();
        assert!(matches!(bin, TraceSource::Binary(_)));
        assert_eq!(bin.fingerprint(), "sltr:/tmp/a.sltr");
        let err = TraceSource::from_fingerprint("memory:8:0123456789abcdef").unwrap_err();
        assert!(err.contains("in-memory"), "{err}");
        assert!(TraceSource::from_fingerprint("gen:bogus:1").is_err());
        assert!(TraceSource::from_fingerprint("???").is_err());
    }

    #[test]
    fn indexed_text_ranges_equal_parse_skip_ranges() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(91);
        let t = zipfian_trace(10_000, 1500, 0.8, &mut rng);
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "symloc_stream_text_index_{}.trace",
            std::process::id()
        ));
        let sidecar = sltr_index_path(&path);
        write_trace(&t, &path).unwrap();
        let source = TraceSource::Text(path.clone());
        let all = as_u64(&t);
        let plain: Vec<Vec<u64>> = [
            (0u64, 1500u64),
            (0, 17),
            (63, 65),
            (64, 256),
            (1100, 1200),
            (1499, 5000),
            (1500, 1500),
        ]
        .iter()
        .map(|&(a, b)| {
            let blocks = collect_blocks(source.stream_blocks_range(a, b).unwrap().as_mut());
            assert_eq!(blocks, range_of(&all, a, b), "range {a}..{b}");
            blocks
        })
        .collect();
        // Build and write the line-offset index; ranges must now seek and
        // still yield identical accesses, and validation must pass.
        let index = build_text_index(&path, 64).unwrap();
        assert_eq!(index.interval(), 64);
        assert_eq!(index.total_accesses(), 1500);
        index.write(&sidecar).unwrap();
        assert_eq!(source.total_accesses().unwrap(), 1500);
        for (i, &(a, b)) in [
            (0u64, 1500u64),
            (0, 17),
            (63, 65),
            (64, 256),
            (1100, 1200),
            (1499, 5000),
            (1500, 1500),
        ]
        .iter()
        .enumerate()
        {
            let via_seek = collect_blocks(source.stream_blocks_range(a, b).unwrap().as_mut());
            assert_eq!(via_seek, plain[i], "range {a}..{b}");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
    }

    #[test]
    fn text_index_counts_accesses_not_comment_lines() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "symloc_stream_text_comments_{}.trace",
            std::process::id()
        ));
        let sidecar = sltr_index_path(&path);
        std::fs::write(&path, "# header\n10\n11\n\n# middle\n12\n13\n14\n").unwrap();
        let index = build_text_index(&path, 2).unwrap();
        assert_eq!(index.total_accesses(), 5);
        assert_eq!(index.entry_count(), 2);
        index.write(&sidecar).unwrap();
        let source = TraceSource::Text(path.clone());
        assert_eq!(source.total_accesses().unwrap(), 5);
        let got = collect_blocks(source.stream_blocks_range(2, 5).unwrap().as_mut());
        assert_eq!(got, vec![12, 13, 14]);
        // Malformed content is a parse error with its line number.
        std::fs::write(&path, "0\nnope\n").unwrap();
        assert!(build_text_index(&path, 2).is_err());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&sidecar).ok();
    }

    #[test]
    fn stale_text_indexes_fail_validation_and_fall_back() {
        let t = sawtooth_trace(20, 10);
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "symloc_stream_text_stale_{}.trace",
            std::process::id()
        ));
        let sidecar = sltr_index_path(&path);
        write_trace(&t, &path).unwrap();
        build_text_index(&path, 32)
            .unwrap()
            .write(&sidecar)
            .unwrap();
        let source = TraceSource::Text(path.clone());
        assert_eq!(source.total_accesses().unwrap(), 200);

        // Replace the trace but keep the old index: validation must error,
        // and streaming must fall back to parse-skip of the true content.
        write_trace(&sawtooth_trace(20, 5), &path).unwrap();
        let err = source.total_accesses().unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
        let got = collect_blocks(source.stream_blocks_range(0, 5).unwrap().as_mut());
        assert_eq!(got, vec![0, 1, 2, 3, 4]);

        // A corrupt sidecar is a loud validation error too.
        std::fs::write(&sidecar, b"garbage").unwrap();
        assert!(source.total_accesses().is_err());
        std::fs::remove_file(&sidecar).ok();
        assert_eq!(source.total_accesses().unwrap(), 100);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn total_accesses_reports_file_errors() {
        let missing = TraceSource::Text(PathBuf::from("/no/such/file.trace"));
        assert!(missing.total_accesses().is_err());
        assert!(missing.stream_blocks_range(0, u64::MAX).is_err());
        let path = std::env::temp_dir().join("symloc_stream_bad_test.trace");
        std::fs::write(&path, "# header\n0\n\n  not-a-number \n1\n").unwrap();
        let bad = TraceSource::Text(path.clone());
        match bad.total_accesses() {
            Err(TraceIoError::Parse { line, text }) => {
                assert_eq!((line, text.as_str()), (4, "not-a-number"));
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_degree_generators_are_empty() {
        assert_eq!(
            GenSpec::parse("gen:zipf:0:10:1.0:1")
                .unwrap()
                .stream()
                .count(),
            0
        );
        assert_eq!(
            GenSpec::parse("gen:cyclic:0:5").unwrap().total_accesses(),
            0
        );
    }

    #[test]
    fn counting_sink_counts_blocks_and_single_accesses_identically() {
        let mut by_access = CountingSink::new();
        let mut by_block = CountingSink::new();
        let block: Vec<u64> = (0..37).collect();
        for &addr in &block {
            by_access.on_access(addr);
        }
        by_block.on_block(&block);
        assert_eq!(by_access.accesses(), 37);
        assert_eq!(by_access, by_block);
        // The default block delivery also counts once per access.
        struct Defaulted(CountingSink);
        impl AccessSink for Defaulted {
            fn on_access(&mut self, addr: u64) {
                self.0.on_access(addr);
            }
        }
        let mut defaulted = Defaulted(CountingSink::new());
        defaulted.on_block(&block);
        assert_eq!(defaulted.0.accesses(), 37);
    }

    #[test]
    fn metered_sink_delivers_unchanged_and_meters() {
        // Inner sink records the exact delivery it saw, proving the meter
        // is a transparent tap.
        #[derive(Default)]
        struct Recorder(Vec<u64>);
        impl AccessSink for Recorder {
            fn on_access(&mut self, addr: u64) {
                self.0.push(addr);
            }
        }
        let block: Vec<u64> = (0..37).collect();
        let mut metered = MeteredSink::new(Recorder::default());
        metered.on_block(&block);
        metered.on_access(99);
        assert_eq!(metered.accesses(), 38);
        assert_eq!(metered.blocks(), 1);
        assert_eq!(metered.inner().0.len(), 38);
        assert_eq!(metered.inner().0[37], 99);
        assert_eq!(metered.decode_nanos(), 0);
        metered.add_decode_nanos(250);
        metered.add_decode_nanos(u64::MAX);
        assert_eq!(metered.decode_nanos(), u64::MAX);
        let expected: Vec<u64> = block.iter().copied().chain([99]).collect();
        assert_eq!(metered.into_inner().0, expected);
    }

    #[test]
    fn materialize_matches_stream() {
        let spec = GenSpec::parse("gen:sawtooth:5:2").unwrap();
        assert_eq!(spec.materialize(), sawtooth_trace(5, 2));
        let mut s = spec.stream();
        assert_eq!(s.remaining(), 10);
        assert_eq!(s.size_hint(), (10, Some(10)));
        let _ = s.next();
        assert_eq!(s.remaining(), 9);
    }
}
