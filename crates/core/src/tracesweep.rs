//! The streaming trace-analysis subsystem: online reuse-distance histograms
//! and miss-ratio curves over traces that are never materialized.
//!
//! The batch pipeline (`symloc_cache::reuse::reuse_profile`) allocates a
//! Fenwick tree over the *whole trace length* and a distance vector of the
//! same size, which caps it at toy traces. This module re-applies the sweep
//! subsystem's engineering — streaming aggregation, sharded parallelism,
//! hand-rolled JSON checkpoints, bench gates — to arbitrary-length traces:
//!
//! * [`OnlineReuseEngine`] — the exact single-pass engine: an address
//!   interner (u64 → dense u32 ids, array-indexed last-access state) plus a
//!   [`SlotCounter`] of live markers over **compressed timestamps** (one bit
//!   per slot and a `u32` Fenwick tree over 512-slot blocks, so it stays in
//!   cache). Only live markers (one per distinct address) survive
//!   compaction, so the counter is `O(footprint)` instead of `O(trace
//!   length)`; each access costs `O(log footprint)` with no hash-map probe
//!   on the hot path. Blocks of accesses take a staged path: the whole
//!   block is interned first, with each address's table slot prefetched a
//!   few accesses ahead, because interning depends on nothing the timeline
//!   does; the ids are then observed in order with `slot_of` prefetched,
//!   and the histogram increments are added after the block, because they
//!   commute. The misses of neighbouring accesses overlap instead of
//!   forming one chain per access, and the distances are the per-access
//!   path's.
//! * [`ShardsEstimator`] — a bounded-memory sampled estimator in the style
//!   of SHARDS (hash-based spatial sampling): addresses are sampled by a
//!   fixed hash condition, the tracked set is capped at `s_max` by evicting
//!   the largest-hash address and lowering the sampling threshold, and
//!   sampled distances/counts are rescaled by the sampling rate. It runs
//!   the exact engine's timeline, whose interner forgets each evicted
//!   address (its id goes to the next first touch) and has no
//!   small-address tier, so memory is `O(s_max)` no matter how many
//!   distinct addresses the trace touches or what their values are.
//! * [`ChunkPartial`] / [`MergeState`] — chunk-sharded parallel ingestion:
//!   each worker folds a contiguous chunk of the trace into a *mergeable*
//!   partial (resolved within-chunk distances, the chunk's first accesses
//!   with their distinct-before counts, and its distinct addresses in
//!   last-access order, as indices into those first accesses); partials
//!   merge left-to-right into exactly the sequential result. This is the
//!   PARDA decomposition of the stack distance problem. The serial merge
//!   costs what each chunk adds, not the global footprint: one hash per
//!   distinct chunk address, and a [`SlotCounter`] that marks only the
//!   entries chunks have removed from the global last-access order.
//! * [`StreamHistogram`] — the exact histogram, one dense `u64` array
//!   indexed by distance (a distance never exceeds the footprint).
//! * [`FusedIngest`] — the one resumable trace job: **one** streaming pass
//!   per chunk feeds the exact chunk folder and routes every access to its
//!   hash shard, each half switchable ([`TracePlan`]). Absorbing the
//!   partials in chunk order advances the exact merge *and* replays each
//!   shard's slice through its live [`ShardsEstimator`] — hash-space
//!   sharding, so rate adaptation needs no synchronization. The exact half
//!   is byte-identical to [`OnlineReuseEngine`], the sampled half
//!   bit-identical to the direct [`SampledIngest`] reference at the same
//!   shard count, and a killed job resumes to a byte-identical final
//!   checkpoint.
//!
//! ```
//! use symloc_core::tracesweep::OnlineReuseEngine;
//!
//! let mut engine = OnlineReuseEngine::new();
//! for addr in [0u64, 1, 2, 0, 1, 2] {
//!     engine.record(addr);
//! }
//! assert_eq!(engine.footprint(), 3);
//! assert_eq!(engine.histogram().count_at(3), 3);
//! ```

use crate::job::{self, Job, JobError, JobKind, JobRunner};
use crate::jsonio::{self, Reader, StagingWriter};
use std::borrow::Cow;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use symloc_par::{split_indices, split_prefix_len};
use symloc_perm::fenwick::SlotCounter;
use symloc_trace::io::TraceIoError;
use symloc_trace::stream::{
    AccessSink, BlockCursor, BlockRead, CountingSink, ReadPlan, TraceSource, BLOCK_LEN,
};

/// Smallest slot capacity a timeline starts with (kept low so the
/// compaction path is exercised constantly, not only at scale).
const MIN_TIMELINE_CAPACITY: usize = 64;

/// How many accesses ahead of the one being processed the block paths
/// prefetch the state it will need.
const PREFETCH_AHEAD: usize = 16;

/// Asks the CPU to start loading the cache line holding `value`, so a
/// later read finds it in cache. A hint only: nothing is read or changed,
/// and it compiles to nothing off `x86_64`.
#[inline(always)]
fn prefetch<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` only hints the cache hierarchy; it never
    // faults or touches memory architecturally, and the pointer comes from
    // a live reference in any case. SSE is part of the x86_64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(value).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// A reuse-distance histogram with `u64` counts, built online.
///
/// The streaming counterpart of `symloc_cache`'s dense-trace histogram:
/// one `u64` per distance, so `record_finite` — on the exact engine's
/// per-access path — is a plain array increment at `counts[d - 1]`, grown
/// geometrically to the largest distance actually seen. A reuse distance
/// never exceeds the footprint, so the array costs at most 16 bytes per
/// distinct address, less than the timeline that produced the distances.
/// Counts are 64-bit so multi-billion-access traces aggregate without
/// overflow.
#[derive(Debug, Clone, Default)]
pub struct StreamHistogram {
    /// Count of distance `d` at index `d - 1`, for `d` up to the grown
    /// length (zeros are "no such distance").
    counts: Vec<u64>,
    cold: u64,
}

/// Logical equality: the same recorded distances and counts, regardless of
/// how far the array happened to grow.
impl PartialEq for StreamHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.cold == other.cold && self.iter().eq(other.iter())
    }
}

impl Eq for StreamHistogram {}

impl StreamHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `count` accesses at finite reuse distance `d`.
    ///
    /// # Panics
    ///
    /// Panics on `d == 0`; the smallest legal stack distance is 1.
    #[inline]
    pub fn record_finite(&mut self, d: usize, count: u64) {
        assert!(d > 0, "reuse distance 0 is not representable");
        if d > self.counts.len() {
            self.grow(d);
        }
        self.counts[d - 1] += count;
    }

    #[cold]
    fn grow(&mut self, d: usize) {
        self.counts
            .resize(d.next_power_of_two().max(MIN_TIMELINE_CAPACITY), 0);
    }

    /// A histogram of `cold` cold accesses and the `(distance, count)`
    /// bins, given in increasing distance order, grown once to the last.
    fn from_bins(cold: u64, bins: &[(usize, u64)]) -> Self {
        let mut histogram = StreamHistogram {
            counts: Vec::new(),
            cold,
        };
        if let Some(&(last, _)) = bins.last() {
            histogram.grow(last);
        }
        for &(d, count) in bins {
            histogram.record_finite(d, count);
        }
        histogram
    }

    /// Records one access at each finite distance of `distances`.
    fn record_each(&mut self, distances: &[usize]) {
        for &d in distances {
            self.record_finite(d, 1);
        }
    }

    /// Records `count` cold (infinite-distance) accesses.
    pub fn record_cold(&mut self, count: u64) {
        self.cold += count;
    }

    /// Number of accesses with exactly distance `d`.
    #[must_use]
    pub fn count_at(&self, d: usize) -> u64 {
        d.checked_sub(1)
            .and_then(|index| self.counts.get(index))
            .copied()
            .unwrap_or(0)
    }

    /// Number of cold accesses.
    #[must_use]
    pub fn cold_count(&self) -> u64 {
        self.cold
    }

    /// Number of accesses with finite distance.
    #[must_use]
    pub fn finite_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total recorded accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.cold + self.finite_count()
    }

    /// Number of accesses with distance `<= c` (hits of an LRU cache of
    /// size `c`).
    #[must_use]
    pub fn hits_up_to(&self, c: usize) -> u64 {
        self.counts[..c.min(self.counts.len())].iter().sum()
    }

    /// Miss ratio of an LRU cache of size `c`.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn miss_ratio(&self, c: usize) -> f64 {
        let total = self.accesses();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.hits_up_to(c) as f64 / total as f64
    }

    /// Largest finite distance recorded.
    #[must_use]
    pub fn max_distance(&self) -> Option<usize> {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|index| index + 1)
    }

    /// Iterates over `(distance, count)` in increasing distance order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(index, &c)| (index + 1, c))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &StreamHistogram) {
        if let Some(d) = other.max_distance() {
            if d > self.counts.len() {
                self.grow(d);
            }
            for (mine, &theirs) in self.counts.iter_mut().zip(&other.counts[..d]) {
                *mine += theirs;
            }
        }
        self.cold += other.cold;
    }

    /// The miss-ratio curve evaluated at `sizes`, all of them in one pass
    /// over the histogram (`sizes` need not be sorted). Each point equals
    /// the one [`StreamHistogram::hits_up_to`] gives.
    #[must_use]
    pub fn mrc_points(&self, sizes: &[usize]) -> Vec<MrcPoint> {
        mrc_points_from(sizes, self.accesses() as f64, self.iter(), |hits| {
            hits as f64
        })
    }
}

/// A weighted (fractional-count) reuse-distance histogram, the accumulator
/// of the sampled estimator: every sampled access contributes `1/rate`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WeightedHistogram {
    counts: BTreeMap<usize, f64>,
    cold: f64,
}

impl WeightedHistogram {
    /// Records a finite distance with the given weight.
    pub fn record_finite(&mut self, d: usize, weight: f64) {
        assert!(d > 0, "reuse distance 0 is not representable");
        *self.counts.entry(d).or_insert(0.0) += weight;
    }

    /// Records a cold access with the given weight.
    pub fn record_cold(&mut self, weight: f64) {
        self.cold += weight;
    }

    /// Estimated cold (first-touch) accesses.
    #[must_use]
    pub fn cold_weight(&self) -> f64 {
        self.cold
    }

    /// Estimated total accesses.
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.cold + self.counts.values().sum::<f64>()
    }

    /// Estimated accesses with distance `<= c`.
    #[must_use]
    pub fn hits_up_to(&self, c: usize) -> f64 {
        self.counts.range(..=c).map(|(_, &w)| w).sum()
    }

    /// Estimated miss ratio of an LRU cache of size `c`.
    #[must_use]
    pub fn miss_ratio(&self, c: usize) -> f64 {
        let total = self.total_weight();
        if total <= 0.0 {
            return 0.0;
        }
        (1.0 - self.hits_up_to(c) / total).clamp(0.0, 1.0)
    }

    /// Largest (scaled) finite distance recorded.
    #[must_use]
    pub fn max_distance(&self) -> Option<usize> {
        self.counts.keys().next_back().copied()
    }

    /// The estimated miss-ratio curve evaluated at `sizes`, all of them in
    /// one pass over the histogram. The running sum adds the weights in
    /// the key order [`WeightedHistogram::hits_up_to`] adds them, so every
    /// point is float-for-float the one it gives.
    #[must_use]
    pub fn mrc_points(&self, sizes: &[usize]) -> Vec<MrcPoint> {
        mrc_points_from(sizes, self.total_weight(), self.iter(), |hits| hits)
    }

    /// Merges another weighted histogram into this one. Weights add in key
    /// order, so merging a fixed sequence of histograms is deterministic
    /// (the float sums see the same addition order every time).
    pub fn merge(&mut self, other: &WeightedHistogram) {
        for (&d, &w) in &other.counts {
            *self.counts.entry(d).or_insert(0.0) += w;
        }
        self.cold += other.cold;
    }

    /// Iterates over `(scaled distance, weight)` in increasing distance
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.counts.iter().map(|(&d, &w)| (d, w))
    }
}

/// One point of a miss-ratio curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrcPoint {
    /// Cache size (distinct elements held).
    pub cache_size: usize,
    /// Miss ratio at that size.
    pub miss_ratio: f64,
}

/// Evaluates a curve at every size of `sizes` in one walk over `entries`
/// (`(distance, count)` in increasing distance order): the sizes are
/// visited in ascending order while a running sum of the counts advances,
/// so the whole curve costs `O(entries + sizes log sizes)` instead of one
/// histogram pass per point.
fn mrc_points_from<W: Copy + Default + std::ops::Add<Output = W>>(
    sizes: &[usize],
    total: f64,
    entries: impl Iterator<Item = (usize, W)>,
    to_f64: impl Fn(W) -> f64,
) -> Vec<MrcPoint> {
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&i| sizes[i]);
    let mut hits = vec![W::default(); sizes.len()];
    let mut entries = entries.peekable();
    let mut running = W::default();
    for i in order {
        while let Some((_, count)) = entries.next_if(|&(d, _)| d <= sizes[i]) {
            running = running + count;
        }
        hits[i] = running;
    }
    sizes
        .iter()
        .zip(hits)
        .map(|(&c, hits)| MrcPoint {
            cache_size: c,
            miss_ratio: if total <= 0.0 {
                0.0
            } else {
                (1.0 - to_f64(hits) / total).clamp(0.0, 1.0)
            },
        })
        .collect()
}

/// `count` log-spaced cache sizes covering `1 ..= max` (deduplicated,
/// ascending, always ending at `max`). The natural evaluation grid for an
/// MRC whose footprint spans orders of magnitude.
#[must_use]
pub fn log_spaced_sizes(max: usize, count: usize) -> Vec<usize> {
    if max == 0 {
        return Vec::new();
    }
    let count = count.max(2);
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation
    )]
    let mut sizes: Vec<usize> = (0..count)
        .map(|i| {
            let exponent = i as f64 / (count - 1) as f64;
            ((max as f64).powf(exponent)).round() as usize
        })
        .map(|c| c.clamp(1, max))
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

// ---------------------------------------------------------------------------
// Address interning
// ---------------------------------------------------------------------------

/// Sentinel id meaning "empty" in the interner's lookup tables. Doubles as
/// the hard ceiling on distinct addresses: the id space is `0 .. u32::MAX`,
/// and interning past it errors loudly instead of wrapping.
const NO_ID: u32 = u32::MAX;

/// Addresses below this bound intern through a direct-indexed array (one
/// load, no hashing) instead of the open-addressing table. The array grows
/// geometrically with the largest small address actually seen, so a trace
/// over `m` cache lines pays `O(m)` for it, and a sparse 64-bit address
/// space never allocates more than `4 * SMALL_ADDR_LIMIT` bytes for it.
const SMALL_ADDR_LIMIT: u64 = 1 << 21;

/// Maps arbitrary `u64` addresses to dense `u32` ids, so per-address engine
/// state lives in flat arrays instead of a `HashMap<u64, usize>`.
///
/// Two-tier lookup: addresses under `SMALL_ADDR_LIMIT` resolve through a
/// direct-indexed array (the common case for cache-line traces); larger
/// ones go through a linear-probing open-addressing table keyed by
/// `splitmix64`, and `id → addr` is a plain `Vec` lookup.
///
/// An owner in this crate may also make the interner forget an address
/// (`forget`): its table entry is removed by backward-shift deletion, so
/// no tombstone is left behind, and its id goes on a free list that the
/// next first touch takes from. An interner that never forgets hands out
/// its ids in first-touch order, which the chunk partials rely on. The
/// sampled estimator forgets every address it evicts, and its interner
/// has no small-address tier (`without_small_tier`), so its memory
/// follows the addresses it holds, never their values.
#[derive(Debug, Clone)]
pub struct AddrInterner {
    /// Addresses below this bound intern through `small`:
    /// `SMALL_ADDR_LIMIT`, or 0 for an interner without the tier.
    small_limit: u64,
    /// Direct `addr → id` array for small addresses (`NO_ID` = unseen).
    small: Vec<u32>,
    /// Open-addressing `hash slot → id` table for large addresses
    /// (`NO_ID` = empty); keys live in `addrs`. Power-of-two sized,
    /// resized at 1/2 load.
    table: Vec<u32>,
    /// `id → addr`; a forgotten id's entry is stale until the id is reused.
    addrs: Vec<u64>,
    /// Ids held by the large-address table (for the load factor).
    large: usize,
    /// Forgotten ids, the most recently forgotten handed out first.
    free: Vec<u32>,
    /// Hard ceiling on ids handed out (`NO_ID` by default; lowered only by
    /// tests exercising the exhaustion path).
    max_ids: u32,
}

impl Default for AddrInterner {
    fn default() -> Self {
        AddrInterner::new()
    }
}

/// The table position `addr` probes first. It takes the upper half of the
/// hash: the sampled estimator's sampling condition and hash-shard route
/// fix low bits of the hash of every address it holds, which would pile
/// its entries onto a few home positions.
#[inline]
fn home(addr: u64, mask: usize) -> usize {
    splitmix64(addr).rotate_left(32) as usize & mask
}

impl AddrInterner {
    /// Creates an empty interner with the full `u32` id space.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity_limit(NO_ID)
    }

    /// Creates an interner that errors after `max_ids` distinct addresses.
    ///
    /// Exists so the exhaustion behavior is testable without interning
    /// four billion addresses; production engines use [`AddrInterner::new`].
    #[must_use]
    pub fn with_capacity_limit(max_ids: u32) -> Self {
        AddrInterner {
            small_limit: SMALL_ADDR_LIMIT,
            small: Vec::new(),
            table: vec![NO_ID; 64],
            addrs: Vec::new(),
            large: 0,
            free: Vec::new(),
            max_ids,
        }
    }

    /// Creates an interner that takes `ids` addresses, `large` of them at
    /// or above the small-address bound, without growing its id list or
    /// its table: the table starts at the size interning them one by one
    /// would leave it.
    fn with_capacity(ids: usize, large: usize) -> Self {
        AddrInterner {
            table: vec![NO_ID; (2 * large + 1).next_power_of_two().max(64)],
            addrs: Vec::with_capacity(ids),
            ..Self::new()
        }
    }

    /// Creates an interner that hashes every address, so its memory is
    /// `O(addresses held)` whatever their values: the interner of an owner
    /// that forgets addresses to stay within a budget.
    pub(crate) fn without_small_tier() -> Self {
        Self::hashing_all(0)
    }

    /// [`AddrInterner::without_small_tier`] sized to take `ids` addresses
    /// without growing ([`AddrInterner::with_capacity`]).
    fn hashing_all(ids: usize) -> Self {
        AddrInterner {
            small_limit: 0,
            ..Self::with_capacity(ids, ids)
        }
    }

    /// Distinct addresses interned and not forgotten.
    #[must_use]
    pub fn len(&self) -> usize {
        self.addrs.len() - self.free.len()
    }

    /// True when no address is interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One past the largest id ever handed out: arrays indexed by id need
    /// this length.
    fn id_bound(&self) -> usize {
        self.addrs.len()
    }

    /// The address a previously handed-out id stands for.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never handed out by this interner.
    #[must_use]
    #[inline]
    pub fn address(&self, id: u32) -> u64 {
        self.addrs[id as usize]
    }

    /// Returns `addr`'s id, handing out an id on first touch: a forgotten
    /// one if there is any, else the next dense one.
    ///
    /// # Panics
    ///
    /// Panics when the id space is exhausted (more than `u32::MAX` distinct
    /// addresses — or the test-configured limit): wrapping ids would
    /// silently alias two addresses, so exhaustion must be loud.
    #[inline]
    pub fn intern(&mut self, addr: u64) -> u32 {
        if addr < self.small_limit {
            let idx = addr as usize;
            if let Some(&id) = self.small.get(idx) {
                if id != NO_ID {
                    return id;
                }
            } else {
                let want = (idx + 1).next_power_of_two().max(1024);
                self.small
                    .resize(want.min(SMALL_ADDR_LIMIT as usize), NO_ID);
            }
            let id = self.push_addr(addr);
            self.small[idx] = id;
            id
        } else {
            self.intern_large(addr)
        }
    }

    /// Interns every address of `addrs`, in order, pushing the ids to
    /// `ids`; the ids are those one [`AddrInterner::intern`] call per
    /// address gives. While it interns an address it prefetches the lookup
    /// slot of the address `PREFETCH_AHEAD` places later, so the table
    /// misses of a block overlap instead of queueing behind each other.
    #[inline]
    fn intern_all<I>(&mut self, addrs: I, ids: &mut Vec<u32>)
    where
        I: Iterator<Item = u64> + Clone,
    {
        let mut ahead = addrs.clone().skip(PREFETCH_AHEAD);
        for addr in addrs {
            if let Some(later) = ahead.next() {
                self.prefetch_slot(later);
            }
            ids.push(self.intern(addr));
        }
    }

    /// Prefetches the lookup slot `addr` probes first. A slot that moves
    /// before the lookup (the table grew) costs only the wasted hint.
    #[inline]
    fn prefetch_slot(&self, addr: u64) {
        if addr < self.small_limit {
            if let Some(slot) = self.small.get(addr as usize) {
                prefetch(slot);
            }
        } else {
            prefetch(&self.table[home(addr, self.table.len() - 1)]);
        }
    }

    /// Forgets `addr` and returns the id it had, which the next first touch
    /// of any address takes over; `None` when `addr` is not interned.
    pub(crate) fn forget(&mut self, addr: u64) -> Option<u32> {
        let id = if addr < self.small_limit {
            let entry = self
                .small
                .get_mut(addr as usize)
                .filter(|id| **id != NO_ID)?;
            std::mem::replace(entry, NO_ID)
        } else {
            let pos = self.probe(addr).ok()?;
            let id = self.table[pos];
            self.remove_at(pos);
            self.large -= 1;
            id
        };
        self.free.push(id);
        Some(id)
    }

    /// The table position holding `addr` (`Ok`), or the empty position its
    /// probe ends at (`Err`).
    #[inline]
    fn probe(&self, addr: u64) -> Result<usize, usize> {
        let mask = self.table.len() - 1;
        let mut pos = home(addr, mask);
        loop {
            let id = self.table[pos];
            if id == NO_ID {
                return Err(pos);
            }
            if self.addrs[id as usize] == addr {
                return Ok(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    fn intern_large(&mut self, addr: u64) -> u32 {
        let pos = match self.probe(addr) {
            Ok(pos) => return self.table[pos],
            Err(pos) => pos,
        };
        let id = self.push_addr(addr);
        self.table[pos] = id;
        self.large += 1;
        if self.large * 2 >= self.table.len() {
            self.grow_table();
        }
        id
    }

    /// Empties table position `hole` and moves each later entry of its
    /// probe run whose probe passes the hole back into it, so every entry
    /// stays reachable from its home position without tombstones.
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.table.len() - 1;
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let id = self.table[pos];
            if id == NO_ID {
                break;
            }
            // The probe of this entry runs from its home to `pos`; it
            // passes the hole unless its home lies after the hole.
            let from_home = pos.wrapping_sub(home(self.addrs[id as usize], mask)) & mask;
            if from_home >= pos.wrapping_sub(hole) & mask {
                self.table[hole] = id;
                hole = pos;
            }
        }
        self.table[hole] = NO_ID;
    }

    fn grow_table(&mut self) {
        let doubled = vec![NO_ID; self.table.len() * 2];
        let old = std::mem::replace(&mut self.table, doubled);
        for id in old.into_iter().filter(|&id| id != NO_ID) {
            let pos = self
                .probe(self.addrs[id as usize])
                .expect_err("the table holds each id once");
            self.table[pos] = id;
        }
    }

    fn push_addr(&mut self, addr: u64) -> u32 {
        if let Some(id) = self.free.pop() {
            self.addrs[id as usize] = addr;
            return id;
        }
        let next = self.addrs.len();
        assert!(
            next < self.max_ids as usize,
            "address interner exhausted: more than {} distinct addresses \
             (ids would wrap and alias)",
            self.max_ids
        );
        self.addrs.push(addr);
        #[allow(clippy::cast_possible_truncation)]
        {
            next as u32
        }
    }
}

// ---------------------------------------------------------------------------
// The compressed timeline
// ---------------------------------------------------------------------------

/// Olken's algorithm over compressed timestamps, shared by the exact
/// engine and the sampled estimator: a [`SlotCounter`] of live markers
/// plus per-address last-access state. Each live address owns exactly one
/// marker; timestamps are dense slot indices that are periodically
/// compacted (live markers re-packed in order), so the counter's size
/// tracks the number of live addresses, not the number of accesses. The
/// counter keeps one bit per slot and a `u32` Fenwick tree over 512-slot
/// blocks, so a distance query walks a tree 512 times smaller than a `u64`
/// node per slot and popcounts at most one cache line — it stays in cache
/// where a per-slot tree of a million-address footprint does not.
///
/// Addresses are interned to dense `u32` ids, so the per-access state is
/// two flat-array lookups (`slot_of`, `id_of_slot`) instead of a hash-map
/// probe. The exact engine's timeline never forgets an address, so its
/// memory is the `O(footprint)` of distinct addresses ever seen and its
/// ids are first-touch ranks. The sampled estimator's timeline forgets
/// each address it evicts ([`Timeline::remove`]), which frees the
/// address's id for the next first touch, and its interner has no
/// small-address tier, so its memory stays `O(s_max)`.
///
/// Over a footprint of a million addresses each access is a chain of
/// dependent cache misses: the interner's table slot, the address it
/// names, `slot_of[id]`, and the histogram count of the distance. The
/// block path ([`Timeline::observe_block`]) breaks the chain in two
/// stages. It first interns the whole block, prefetching each address's
/// table slot a few accesses ahead; interning depends on nothing the
/// timeline does, so this reorders no result. It then observes the ids in
/// order — the order distances depend on — prefetching `slot_of` a few ids
/// ahead, and hands back the finite distances instead of counting them:
/// histogram increments commute, so the owner adds them after the block,
/// where they are independent of each other. [`Timeline::observe`] is the
/// same distance code one access at a time.
#[derive(Debug, Clone)]
struct Timeline {
    /// The live markers; its length is the slot capacity. Nothing is
    /// marked at or past `next_slot`.
    marks: SlotCounter,
    /// Holds exactly the live addresses.
    interner: AddrInterner,
    /// `id → slot of its live marker` (`NO_SLOT` = the id is free).
    slot_of: Vec<u32>,
    /// `slot → id of the marker occupying it`. Valid iff the slot is
    /// marked (then `slot_of` points back at it); moves and removals leave
    /// stale entries behind rather than erasing them. Always `marks.len()`
    /// long.
    id_of_slot: Vec<u32>,
    next_slot: usize,
    /// Slot-compaction passes performed (observability only — never read
    /// back into the computation).
    compactions: u64,
    /// The block path's ids and finite distances, reused across blocks.
    ids: Vec<u32>,
    distances: Vec<usize>,
}

/// Sentinel slot meaning "this id has no live entry". Slots are stored as
/// `u32`: a [`SlotCounter`] holds at most `u32::MAX` slots and panics when
/// asked for more, so every slot is below this sentinel and none wraps.
const NO_SLOT: u32 = u32::MAX;

impl Timeline {
    fn new(interner: AddrInterner) -> Self {
        Timeline {
            marks: SlotCounter::new(MIN_TIMELINE_CAPACITY),
            interner,
            slot_of: Vec::new(),
            id_of_slot: vec![0; MIN_TIMELINE_CAPACITY],
            next_slot: 0,
            compactions: 0,
            ids: Vec::new(),
            distances: Vec::new(),
        }
    }

    /// The timeline of an interner's addresses in id order, each observed
    /// once — what observing them one by one leaves, bar the slot
    /// capacity, which is twice their number, as a compaction leaves it.
    /// The interner must never have forgotten an address.
    fn from_interned(interner: AddrInterner) -> Self {
        let live = interner.id_bound();
        let capacity = (2 * live).max(MIN_TIMELINE_CAPACITY);
        let mut marks = SlotCounter::new(0);
        marks.reset_ones_prefix(capacity, live);
        // Below the capacity, hence below `NO_SLOT`.
        let ids = 0..live as u32;
        let mut id_of_slot: Vec<u32> = Vec::with_capacity(capacity);
        id_of_slot.extend(ids.clone());
        id_of_slot.resize(capacity, 0);
        Timeline {
            marks,
            interner,
            slot_of: ids.collect(),
            id_of_slot,
            next_slot: live,
            compactions: 0,
            ids: Vec::new(),
            distances: Vec::new(),
        }
    }

    /// Number of live (tracked) addresses.
    fn live(&self) -> usize {
        self.marks.count()
    }

    /// Current slot capacity (for memory-bound assertions).
    fn capacity(&self) -> usize {
        self.marks.len()
    }

    /// Compaction passes performed so far.
    fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Re-packs the live markers into slots `0..live` (preserving order)
    /// and resizes the counter to twice the live count. Called when the
    /// slot counter reaches the capacity; amortized `O(1)` per access.
    ///
    /// Walking the slots in ascending order visits live markers in
    /// timeline order, and since `new_slot` never overtakes the read
    /// cursor, the repack is safely in place.
    fn compact(&mut self) {
        let mut new_slot = 0usize;
        for slot in 0..self.next_slot {
            if self.marks.is_set(slot) {
                let id = self.id_of_slot[slot];
                self.id_of_slot[new_slot] = id;
                self.slot_of[id as usize] = new_slot as u32;
                new_slot += 1;
            }
        }
        debug_assert_eq!(new_slot, self.live(), "live count drifted");
        let capacity = (new_slot * 2).max(MIN_TIMELINE_CAPACITY);
        // Repacked markers occupy exactly the slots 0..live, so the counter
        // is rebuilt in one pass instead of live separate marks.
        self.marks.reset_ones_prefix(capacity, new_slot);
        self.id_of_slot.resize(capacity, 0);
        self.next_slot = new_slot;
        self.compactions += 1;
    }

    /// Records one access: returns `Some(reuse distance)` when the address
    /// was live, `None` on a first touch.
    #[inline]
    fn observe(&mut self, addr: u64) -> Option<usize> {
        let id = self.interner.intern(addr);
        self.slot_of.resize(self.interner.id_bound(), NO_SLOT);
        self.observe_id(id)
    }

    /// Records every access of `block`, in order, through the two stages
    /// the type documents. Returns the number of first touches and the
    /// finite reuse distances in access order — the distances
    /// [`Timeline::observe`] would return one access at a time.
    fn observe_block(&mut self, block: &[u64]) -> (u64, &[usize]) {
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        self.interner.intern_all(block.iter().copied(), &mut ids);
        self.slot_of.resize(self.interner.id_bound(), NO_SLOT);
        self.distances.clear();
        let mut first_touches = 0u64;
        for (i, &id) in ids.iter().enumerate() {
            if let Some(&later) = ids.get(i + PREFETCH_AHEAD) {
                prefetch(&self.slot_of[later as usize]);
            }
            match self.observe_id(id) {
                Some(d) => self.distances.push(d),
                None => first_touches += 1,
            }
        }
        self.ids = ids;
        (first_touches, &self.distances)
    }

    /// Records one access of the interned address `id`; its marker ends up
    /// at the newest slot.
    ///
    /// Nothing is marked past the newest slot, so the markers at or after
    /// `prev` — the address itself and every distinct address touched since
    /// — number `live − count_below(prev)`: that is the reuse distance.
    #[inline]
    fn observe_id(&mut self, id: u32) -> Option<usize> {
        if self.next_slot >= self.marks.len() {
            self.compact();
        }
        let prev = self.slot_of[id as usize];
        let distance = (prev != NO_SLOT).then(|| {
            let prev = prev as usize;
            let distance = self.marks.count() - self.marks.count_below(prev);
            self.marks.clear(prev);
            distance
        });
        self.marks.set(self.next_slot);
        // Below the capacity, hence below `NO_SLOT`.
        self.slot_of[id as usize] = self.next_slot as u32;
        self.id_of_slot[self.next_slot] = id;
        self.next_slot += 1;
        distance
    }

    /// Forgets `addr`: clears its marker and frees its id for the next
    /// first touch. Returns whether `addr` was live.
    fn remove(&mut self, addr: u64) -> bool {
        let Some(id) = self.interner.forget(addr) else {
            return false;
        };
        let slot = std::mem::replace(&mut self.slot_of[id as usize], NO_SLOT);
        self.marks.clear(slot as usize);
        true
    }

    /// The live addresses' ids in timeline (last-access) order. In a
    /// timeline that never forgets, ids are first-touch ranks, so this is
    /// the order as indices into the list of first touches.
    fn ordered_ids(&self) -> Vec<u32> {
        (0..self.next_slot)
            .filter(|&slot| self.marks.is_set(slot))
            .map(|slot| self.id_of_slot[slot])
            .collect()
    }

    /// The live addresses in timeline (last-access) order. Observing the
    /// list into a fresh timeline reproduces the relative marker order,
    /// which is all future distances depend on: the canonical form of the
    /// timeline in mid-stream checkpoints.
    fn ordered_addresses(&self) -> Vec<u64> {
        self.ordered_ids()
            .into_iter()
            .map(|id| self.interner.address(id))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The exact online engine
// ---------------------------------------------------------------------------

/// The exact streaming reuse-distance engine: one `Timeline` pass, the
/// Olken algorithm over compressed timestamps. `O(log footprint)` per
/// access, `O(footprint)` memory, no dependence on trace length.
#[derive(Debug, Clone, Default)]
pub struct OnlineReuseEngine {
    timeline: Timeline,
    histogram: StreamHistogram,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::new(AddrInterner::new())
    }
}

impl OnlineReuseEngine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one access and returns its reuse distance (`None` = first
    /// touch).
    pub fn record(&mut self, addr: u64) -> Option<usize> {
        let distance = self.timeline.observe(addr);
        match distance {
            Some(d) => self.histogram.record_finite(d, 1),
            None => self.histogram.record_cold(1),
        }
        distance
    }

    /// Records every access of an iterator.
    pub fn record_all(&mut self, accesses: impl IntoIterator<Item = u64>) {
        for addr in accesses {
            self.record(addr);
        }
    }

    /// Records every access of a decoded block — the slice counterpart of
    /// [`OnlineReuseEngine::record_all`] used by the block-streaming ingest
    /// path. Each run of up to [`BLOCK_LEN`] accesses is interned ahead of
    /// the timeline and its histogram increments are added after it (see
    /// `Timeline`), so the cache misses of neighbouring accesses overlap;
    /// the histogram is the one per-access [`OnlineReuseEngine::record`]
    /// calls build.
    pub fn record_block(&mut self, block: &[u64]) {
        for run in block.chunks(BLOCK_LEN) {
            let (first_touches, distances) = self.timeline.observe_block(run);
            self.histogram.record_cold(first_touches);
            self.histogram.record_each(distances);
        }
    }

    /// The engine's accesses as the [`ChunkPartial`] of one chunk. The
    /// exact timeline never forgets an address, so the interner's address
    /// list is the chunk's first touches in order, and its ids index it;
    /// the first touches leave the histogram, to be resolved by
    /// [`MergeState::absorb`].
    fn into_chunk_partial(self) -> ChunkPartial {
        let mut histogram = self.histogram;
        let accesses = histogram.accesses();
        histogram.cold = 0;
        let last_order = self.timeline.ordered_ids();
        ChunkPartial {
            histogram,
            unresolved: self.timeline.interner.addrs,
            last_order,
            accesses,
        }
    }

    /// The histogram accumulated so far.
    #[must_use]
    pub fn histogram(&self) -> &StreamHistogram {
        &self.histogram
    }

    /// Consumes the engine, yielding the histogram.
    #[must_use]
    pub fn into_histogram(self) -> StreamHistogram {
        self.histogram
    }

    /// Accesses recorded so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.histogram.accesses()
    }

    /// Distinct addresses seen so far.
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.timeline.live()
    }

    /// Current timeline slot capacity — bounded by twice the footprint
    /// (plus a small constant floor), never by the trace length.
    #[must_use]
    pub fn timeline_capacity(&self) -> usize {
        self.timeline.capacity()
    }

    /// Timeline slot-compaction passes performed so far.
    #[must_use]
    pub fn compactions(&self) -> u64 {
        self.timeline.compactions()
    }

    /// Mirrors the engine's point-in-time state into `registry` as
    /// `engine.*` gauges (footprint, timeline capacity, compactions,
    /// accesses). Read-only: recording never changes results.
    pub fn record_gauges(&self, registry: &mut crate::obs::MetricsRegistry) {
        registry.set_gauge("engine.footprint", self.footprint() as f64);
        registry.set_gauge("engine.timeline_capacity", self.timeline_capacity() as f64);
        registry.set_gauge("engine.compactions", self.compactions() as f64);
        registry.set_gauge("engine.accesses", self.accesses() as f64);
    }

    /// Miss-ratio curve at the given cache sizes.
    #[must_use]
    pub fn mrc_points(&self, sizes: &[usize]) -> Vec<MrcPoint> {
        self.histogram.mrc_points(sizes)
    }
}

/// The engine consumes trace streams directly, so it can sit behind any
/// [`symloc_trace::stream::AccessSink`] adapter — e.g. a
/// [`MeteredSink`](symloc_trace::stream::MeteredSink) splitting decode
/// from compute time without touching the engine itself.
impl symloc_trace::stream::AccessSink for OnlineReuseEngine {
    fn on_access(&mut self, addr: u64) {
        self.record(addr);
    }

    fn on_block(&mut self, block: &[u64]) {
        self.record_block(block);
    }
}

// ---------------------------------------------------------------------------
// The SHARDS-style bounded-memory estimator
// ---------------------------------------------------------------------------

/// The hash-space modulus of the sampling condition (`hash(addr) mod P`).
/// Public so callers (fixed-threshold runs, tests, the CLI) can express
/// thresholds as fractions of the hash space.
pub const SHARDS_MODULUS: u64 = 1 << 24;

/// SplitMix64: the spatial-sampling hash. Statistically uniform, cheap and
/// stateless, so the sampling decision for an address is globally
/// consistent across chunks, threads and runs.
#[must_use]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The bounded-memory sampled reuse-distance estimator (SHARDS-style).
///
/// An address is *sampled* iff `splitmix64(addr) mod P < T`; the sampling
/// rate is `R = T/P`. Sampled accesses run through a private `Timeline`
/// (so a sampled distance counts only sampled addresses) and are recorded
/// with distance and weight rescaled by `1/R`. When the tracked set
/// exceeds the `s_max` budget, the largest-hash address is evicted and `T`
/// drops to its hash — rate adaptation — while the estimate keeps
/// covering the whole address space. The timeline forgets each evicted
/// address and its interner hashes every address, so the estimator holds
/// `O(s_max)` memory forever, whatever the addresses' values.
///
/// Accuracy caveat: spatial sampling keeps or drops *whole addresses*, so
/// the estimator's variance is governed by the access share of individual
/// addresses — when a single address owns several percent of the trace
/// (tiny, extremely skewed synthetic address spaces), its hash luck moves
/// the whole weighted curve. On workloads where no address dominates
/// (real cache-line traces, moderate skew, large address spaces) the
/// error behaves like `1/√s_max`; the property tests pin both regimes.
#[derive(Debug, Clone)]
pub struct ShardsEstimator {
    s_max: usize,
    threshold: u64,
    /// This estimator's slice of the hash space: it only processes
    /// addresses with `hash % shard_count == shard_index`. The default
    /// (`0` of `1`) is the whole space — the classic sequential estimator.
    shard_index: u64,
    shard_count: u64,
    /// Forgets each address it evicts, so it holds at most `s_max + 1`.
    timeline: Timeline,
    /// Max-heap of `(hash, addr)` over tracked addresses, for eviction.
    by_hash: BinaryHeap<(u64, u64)>,
    histogram: WeightedHistogram,
    /// Every access of this estimator's hash shard, sampled or not.
    raw_accesses: u64,
    /// Sampled accesses actually processed.
    sampled_accesses: u64,
    evictions: u64,
}

impl ShardsEstimator {
    /// Creates an estimator with a tracked-address budget of `s_max`.
    ///
    /// # Panics
    ///
    /// Panics if `s_max == 0`.
    #[must_use]
    pub fn new(s_max: usize) -> Self {
        Self::for_shard(s_max, SHARDS_MODULUS, 0, 1)
    }

    /// Creates an estimator whose threshold *starts* at `threshold` instead
    /// of the full modulus: the initial sampling rate is
    /// `threshold / SHARDS_MODULUS`, and rate adaptation still lowers it
    /// further if the budget binds. With a budget large enough that no
    /// eviction ever fires, the threshold is *fixed* for the whole run —
    /// the deterministic regime the parallel sampled pipeline is pinned in.
    ///
    /// # Panics
    ///
    /// Panics if `s_max == 0` or `threshold` is not in
    /// `1 ..= SHARDS_MODULUS`.
    #[must_use]
    pub fn with_threshold(s_max: usize, threshold: u64) -> Self {
        Self::for_shard(s_max, threshold, 0, 1)
    }

    /// Creates the estimator of one *hash shard*: it processes only
    /// addresses with `splitmix64(addr) % SHARDS_MODULUS ≡ shard_index
    /// (mod shard_count)` — a `1/shard_count` spatial sample of the address
    /// space — and samples within that slice under `threshold`. Sampled
    /// *distances* rescale by the full-space rate `(threshold /
    /// SHARDS_MODULUS) / shard_count`; sampled *weights* rescale by the
    /// within-slice rate `threshold / SHARDS_MODULUS`, so shard histograms
    /// sum to one estimate of the whole trace (the shards partition the
    /// accesses). `shard_count = 1` is exactly the sequential estimator.
    ///
    /// # Panics
    ///
    /// Panics if `s_max == 0`, `threshold` is not in `1 ..=
    /// SHARDS_MODULUS`, or `shard_index >= shard_count`.
    #[must_use]
    pub fn for_shard(s_max: usize, threshold: u64, shard_index: u64, shard_count: u64) -> Self {
        assert!(s_max > 0, "the sampling budget must be positive");
        assert!(
            (1..=SHARDS_MODULUS).contains(&threshold),
            "threshold {threshold} outside 1..={SHARDS_MODULUS}"
        );
        assert!(
            shard_index < shard_count,
            "shard index {shard_index} outside 0..{shard_count}"
        );
        ShardsEstimator {
            s_max,
            threshold,
            shard_index,
            shard_count,
            timeline: Timeline::new(AddrInterner::without_small_tier()),
            by_hash: BinaryHeap::new(),
            histogram: WeightedHistogram::default(),
            raw_accesses: 0,
            sampled_accesses: 0,
            evictions: 0,
        }
    }

    /// Writes the estimator's mid-stream state as the fields of one JSON
    /// object — `"threshold"`, `"raw"`, `"sampled"`, `"evictions"`,
    /// `"cold"`, `"histogram"` and `"tracked"` (the live addresses in
    /// last-access order) — the entry shape trace-job and serve
    /// checkpoints share. Weights print as shortest round-trip decimals,
    /// so restoring and re-writing is byte-identical.
    pub(crate) fn write_state(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        let mut w = StagingWriter::new(out);
        write!(
            w,
            "\"threshold\": {}, \"raw\": {}, \"sampled\": {}, \"evictions\": {}, \"cold\": {}, \"histogram\": [",
            self.threshold,
            self.raw_accesses,
            self.sampled_accesses,
            self.evictions,
            self.histogram.cold_weight(),
        )?;
        for (j, (d, weight)) in self.histogram.iter().enumerate() {
            w.str(if j == 0 { "[" } else { ", [" });
            w.u64(d as u64);
            write!(w, ", {weight}]")?;
        }
        w.str("], \"tracked\": [");
        for (j, &addr) in self.timeline.ordered_addresses().iter().enumerate() {
            if j > 0 {
                w.str(", ");
            }
            w.u64(addr);
        }
        w.str("]");
        w.finish()
    }

    /// The current sampling rate relative to the whole address space:
    /// `(T / P) / shard_count` (1.0 for an unsharded estimator until the
    /// budget first binds).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn sampling_rate(&self) -> f64 {
        self.threshold as f64 / SHARDS_MODULUS as f64 / self.shard_count as f64
    }

    /// The current threshold `T` of the sampling condition `hash < T`.
    #[must_use]
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Records one access.
    pub fn record(&mut self, addr: u64) {
        let hash = splitmix64(addr) % SHARDS_MODULUS;
        if hash % self.shard_count != self.shard_index {
            return;
        }
        self.record_hashed(addr, hash);
    }

    /// Records one access whose hash (`splitmix64(addr) % SHARDS_MODULUS`)
    /// the caller already computed and shard-matched — the dispatch path of
    /// the parallel sampled ingest, which hashes each access once and
    /// routes it to the owning shard.
    ///
    /// The two rescalings deliberately use *different* rates: a sampled
    /// **distance** counts only this shard's sampled addresses — a
    /// `(T/P)/shard_count` spatial sample of the whole address space — so
    /// it scales by the full-space rate; a sampled **access** stands in
    /// only for this shard's slice of the trace (the shards partition the
    /// accesses), so its weight scales by the within-slice rate `T/P`.
    /// Merged shard histograms therefore *sum* to an estimate of the whole
    /// trace (Σ slice estimates), instead of each shard re-estimating the
    /// full trace and the merge overcounting it `shard_count` times. For an
    /// unsharded estimator the two rates coincide.
    #[allow(clippy::cast_precision_loss)]
    fn record_hashed(&mut self, addr: u64, hash: u64) {
        debug_assert_eq!(hash % self.shard_count, self.shard_index);
        self.raw_accesses += 1;
        if hash >= self.threshold {
            return;
        }
        let slice_rate = self.threshold as f64 / SHARDS_MODULUS as f64;
        let rate = slice_rate / self.shard_count as f64;
        let weight = 1.0 / slice_rate;
        self.sampled_accesses += 1;
        match self.timeline.observe(addr) {
            Some(sampled_distance) => {
                #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                let scaled = ((sampled_distance as f64 / rate).round() as usize).max(1);
                self.histogram.record_finite(scaled, weight);
            }
            None => {
                self.histogram.record_cold(weight);
                self.by_hash.push((hash, addr));
                if self.timeline.live() > self.s_max {
                    self.evict();
                }
            }
        }
    }

    /// Records every access of an iterator.
    pub fn record_all(&mut self, accesses: impl IntoIterator<Item = u64>) {
        for addr in accesses {
            self.record(addr);
        }
    }

    /// Evicts the largest-hash tracked address and lowers the threshold so
    /// that hash (and everything above) is never sampled again.
    fn evict(&mut self) {
        let Some(&(max_hash, _)) = self.by_hash.peek() else {
            return;
        };
        self.threshold = max_hash;
        while let Some(&(hash, addr)) = self.by_hash.peek() {
            if hash < self.threshold {
                break;
            }
            self.by_hash.pop();
            if self.timeline.remove(addr) {
                self.evictions += 1;
            }
        }
    }

    /// The weighted histogram accumulated so far.
    #[must_use]
    pub fn histogram(&self) -> &WeightedHistogram {
        &self.histogram
    }

    /// Every access seen (sampled or not).
    #[must_use]
    pub fn raw_accesses(&self) -> u64 {
        self.raw_accesses
    }

    /// Sampled accesses actually processed.
    #[must_use]
    pub fn sampled_accesses(&self) -> u64 {
        self.sampled_accesses
    }

    /// Addresses currently tracked (always `<= s_max + 1` transiently,
    /// `<= s_max` between records).
    #[must_use]
    pub fn tracked_addresses(&self) -> usize {
        self.timeline.live()
    }

    /// The configured budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.s_max
    }

    /// Rate-adaptation evictions performed so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Estimated distinct addresses (weighted cold count).
    #[must_use]
    pub fn estimated_footprint(&self) -> f64 {
        self.histogram.cold_weight()
    }

    /// Timeline slot-compaction passes performed so far.
    #[must_use]
    pub fn compactions(&self) -> u64 {
        self.timeline.compactions()
    }

    /// Mirrors the estimator's point-in-time state into `registry` as
    /// `estimator.*` gauges (threshold, sampling rate, tracked set,
    /// evictions, compactions, estimated footprint). Sharded pipelines
    /// aggregate across estimators instead of calling this per shard (the
    /// gauges are last-write-wins). Read-only: recording never changes
    /// results.
    pub fn record_gauges(&self, registry: &mut crate::obs::MetricsRegistry) {
        registry.set_gauge("estimator.threshold", self.threshold() as f64);
        registry.set_gauge("estimator.sampling_rate", self.sampling_rate());
        registry.set_gauge("estimator.tracked", self.tracked_addresses() as f64);
        registry.set_gauge("estimator.evictions", self.evictions() as f64);
        registry.set_gauge("estimator.compactions", self.compactions() as f64);
        registry.set_gauge("estimator.estimated_footprint", self.estimated_footprint());
    }

    /// Estimated miss-ratio curve at the given cache sizes.
    #[must_use]
    pub fn mrc_points(&self, sizes: &[usize]) -> Vec<MrcPoint> {
        self.histogram.mrc_points(sizes)
    }

    /// The estimate as a one-shard [`SampledSummary`].
    #[must_use]
    pub fn summary(&self) -> SampledSummary {
        SampledSummary::merge(&[SampledShardResult::from_estimator(self)])
    }
}

/// The fields of one estimator entry ([`ShardsEstimator::write_state`])
/// as a [`Reader`] meets them, in any order: the accumulator serve tenants
/// and trace-job shard entries share. Each field is checked as far as it
/// can be on its own as it is read; [`EstimatorFields::build`] checks the
/// rest once the owner's budget and hash shard are known.
#[derive(Debug, Default)]
pub(crate) struct EstimatorFields {
    threshold: Option<Option<u64>>,
    raw: Option<Option<u64>>,
    sampled: Option<Option<u64>>,
    evictions: Option<Option<u64>>,
    cold: Option<Option<f64>>,
    /// The bins, each weight stored as `0.0 + w`, the sum one record into
    /// an empty bin gives, so a `-0` weight keeps that sum's bits.
    histogram: Option<Vec<(usize, f64)>>,
    /// The tracked addresses in last-access order, each as `(hash, addr)`.
    tracked: Option<Vec<(u64, u64)>>,
}

impl EstimatorFields {
    /// Reads the value of `key` when it names an estimator field, and says
    /// whether it did; the first of duplicate keys wins.
    ///
    /// # Errors
    ///
    /// Returns a syntax error, a histogram that is not a list of
    /// `[distance, weight]` pairs with positive, increasing distances and
    /// finite non-negative weights, or a tracked list that is not a list
    /// of addresses.
    pub(crate) fn read(&mut self, reader: &mut Reader<'_>, key: &str) -> Result<bool, String> {
        match key {
            "threshold" => reader.first(&mut self.threshold, Reader::u64)?,
            "raw" => reader.first(&mut self.raw, Reader::u64)?,
            "sampled" => reader.first(&mut self.sampled, Reader::u64)?,
            "evictions" => reader.first(&mut self.evictions, Reader::u64)?,
            "cold" => reader.first(&mut self.cold, Reader::f64)?,
            "histogram" => reader.first(&mut self.histogram, |reader| {
                read_bins(reader, |reader| {
                    Ok(0.0 + finite_weight(reader.f64()?, "histogram weight")?)
                })
            })?,
            "tracked" => reader.first(&mut self.tracked, |reader| {
                let mut tracked = Vec::new();
                reader.array(|reader| {
                    let addr = reader.u64()?.ok_or("bad tracked address")?;
                    tracked.push((splitmix64(addr) % SHARDS_MODULUS, addr));
                    Ok(())
                })?;
                Ok(tracked)
            })?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds the estimator of one hash shard from the fields read. The
    /// counters and weighted histogram restore verbatim. The timeline and
    /// the eviction heap are built once at their recorded size: the
    /// tracked list is in last-access order, so the `i`-th address gets id
    /// and slot `i` (relative marker order fully determines every future
    /// distance), and the heap is built from the addresses' hashes in one
    /// pass (it is a multiset with a unique maximum, so its internal
    /// layout never affects behavior). A restored estimator is therefore
    /// logically identical to the one serialized: continuing both over the
    /// same accesses produces identical results *and* identical
    /// re-serializations.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: a missing
    /// or mistyped field, a threshold outside `1 ..= max_threshold`, a
    /// negative or non-finite weight, or a tracked list with more
    /// addresses than the budget, a duplicate, one hashing outside this
    /// shard, or one hashing at or above the threshold (none of which a
    /// real checkpoint can contain).
    ///
    /// # Panics
    ///
    /// Panics if `s_max == 0` or `shard_index >= shard_count`.
    pub(crate) fn build(
        self,
        s_max: usize,
        max_threshold: u64,
        shard_index: u64,
        shard_count: u64,
    ) -> Result<ShardsEstimator, String> {
        let number = |value: Option<Option<u64>>, key: &str| {
            value
                .flatten()
                .ok_or_else(|| format!("estimator missing {key}"))
        };
        let threshold = number(self.threshold, "threshold")?;
        if threshold == 0 || threshold > max_threshold {
            return Err(format!(
                "estimator threshold {threshold} outside 1..={max_threshold}"
            ));
        }
        let cold = finite_weight(self.cold.flatten(), "cold weight")?;
        let counts: BTreeMap<usize, f64> = self
            .histogram
            .ok_or("missing histogram")?
            .into_iter()
            .collect();
        let tracked = self.tracked.ok_or("estimator missing tracked")?;
        let mut est = ShardsEstimator::for_shard(s_max, threshold, shard_index, shard_count);
        if tracked.len() > s_max {
            return Err(format!(
                "{} tracked addresses exceed the budget {s_max}",
                tracked.len()
            ));
        }
        let mut interner = AddrInterner::hashing_all(tracked.len());
        for (i, &(hash, addr)) in tracked.iter().enumerate() {
            if hash % shard_count != shard_index {
                return Err(format!(
                    "tracked address {addr} does not belong to hash shard {shard_index}"
                ));
            }
            if hash >= threshold {
                return Err(format!(
                    "tracked address {addr} hashes at or above the threshold {threshold}"
                ));
            }
            if interner.intern(addr) as usize != i {
                return Err(format!("tracked address {addr} appears twice"));
            }
        }
        est.timeline = Timeline::from_interned(interner);
        est.by_hash = BinaryHeap::from(tracked);
        est.histogram = WeightedHistogram {
            counts,
            cold: 0.0 + cold,
        };
        est.raw_accesses = number(self.raw, "raw")?;
        est.sampled_accesses = number(self.sampled, "sampled")?;
        if est.sampled_accesses > est.raw_accesses {
            return Err(format!(
                "estimator sampled count {} exceeds its raw count {}",
                est.sampled_accesses, est.raw_accesses
            ));
        }
        est.evictions = number(self.evictions, "evictions")?;
        Ok(est)
    }
}

/// A weight a checkpoint records: finite and not negative.
fn finite_weight(weight: Option<f64>, what: &str) -> Result<f64, String> {
    weight
        .filter(|w| w.is_finite() && *w >= 0.0)
        .ok_or_else(|| format!("estimator {what} is not a finite count"))
}

/// The estimator consumes trace streams directly, like the exact engine.
impl symloc_trace::stream::AccessSink for ShardsEstimator {
    fn on_access(&mut self, addr: u64) {
        self.record(addr);
    }
}

// ---------------------------------------------------------------------------
// The hash-sharded sampled reference
// ---------------------------------------------------------------------------

/// The result of one hash shard of a sampled estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledShardResult {
    /// The shard's weighted (rescaled) histogram.
    pub histogram: WeightedHistogram,
    /// The shard's final threshold (== the initial one when the budget
    /// never bound).
    pub threshold: u64,
    /// Accesses belonging to this hash shard.
    pub raw_accesses: u64,
    /// Sampled accesses the shard actually processed.
    pub sampled_accesses: u64,
    /// Rate-adaptation evictions the shard performed.
    pub evictions: u64,
    /// Addresses the shard still tracked at the end.
    pub tracked: usize,
}

impl SampledShardResult {
    fn from_estimator(est: &ShardsEstimator) -> Self {
        SampledShardResult {
            histogram: est.histogram().clone(),
            threshold: est.threshold(),
            raw_accesses: est.raw_accesses(),
            sampled_accesses: est.sampled_accesses(),
            evictions: est.evictions(),
            tracked: est.tracked_addresses(),
        }
    }
}

/// The merged outcome of a hash-sharded sampled estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledSummary {
    /// The merged weighted histogram (shards merged in index order, so the
    /// float sums are deterministic).
    pub histogram: WeightedHistogram,
    /// Total accesses of the trace (every access belongs to exactly one
    /// hash shard).
    pub raw_accesses: u64,
    /// Total sampled accesses across shards.
    pub sampled_accesses: u64,
    /// Total rate-adaptation evictions across shards.
    pub evictions: u64,
    /// The smallest per-shard sampling rate (the coarsest slice of the
    /// estimate).
    pub min_rate: f64,
}

impl SampledSummary {
    /// Merges per-shard results in shard order — the one float-addition
    /// order every sampled estimate uses, so equal shard results give
    /// bit-identical summaries.
    fn merge(shards: &[SampledShardResult]) -> Self {
        let mut histogram = WeightedHistogram::default();
        let (mut raw, mut sampled, mut evictions) = (0u64, 0u64, 0u64);
        let mut min_rate = f64::INFINITY;
        #[allow(clippy::cast_precision_loss)]
        for shard in shards {
            histogram.merge(&shard.histogram);
            raw += shard.raw_accesses;
            sampled += shard.sampled_accesses;
            evictions += shard.evictions;
            let rate = shard.threshold as f64 / SHARDS_MODULUS as f64 / shards.len() as f64;
            min_rate = min_rate.min(rate);
        }
        SampledSummary {
            histogram,
            raw_accesses: raw,
            sampled_accesses: sampled,
            evictions,
            min_rate,
        }
    }

    /// Estimated distinct addresses (merged weighted cold count).
    #[must_use]
    pub fn estimated_footprint(&self) -> f64 {
        self.histogram.cold_weight()
    }
}

/// The hash-space-sharded sampled estimate, computed the direct way: the
/// reference the sampled half of [`FusedIngest`] is pinned against. It
/// has no checkpoint and no job kind.
///
/// The address-hash space is partitioned into `shard_count` residue
/// classes (`hash % shard_count`); shard `i` runs a [`ShardsEstimator`]
/// over its class with a private budget and threshold, so rate adaptation
/// needs no synchronization. Each worker streams the whole source once
/// and routes every access to the shard that owns it among those it was
/// assigned; the per-shard histograms merge in shard order.
///
/// * **Deterministic and thread-invariant.** A shard's result depends only
///   on the access sequence and the shard parameters, never on which
///   worker ran it.
/// * **The shard count is part of the estimator's identity** (like the
///   hash function): different shard counts are different (equally
///   unbiased) estimators, not reorderings of one. `shard_count = 1` *is*
///   the sequential [`ShardsEstimator`], result for result.
#[derive(Debug, Clone)]
pub struct SampledIngest {
    shard_count: usize,
    budget_per_shard: usize,
    threads: usize,
    partials: Vec<SampledShardResult>,
}

impl SampledIngest {
    /// Plans a sampled estimate of `source` over `shard_count` hash shards
    /// with `budget_per_shard` tracked addresses each, starting at the
    /// full sampling rate. Scans the source once to validate it.
    ///
    /// # Errors
    ///
    /// Returns the source's read or parse error as a string.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count == 0` or `budget_per_shard == 0`.
    pub fn new(
        source: &TraceSource,
        shard_count: usize,
        budget_per_shard: usize,
        threads: usize,
    ) -> Result<Self, String> {
        assert!(shard_count > 0, "at least one hash shard is required");
        assert!(
            budget_per_shard > 0,
            "the per-shard budget must be positive"
        );
        source
            .total_accesses()
            .map_err(|e| format!("cannot scan {source}: {e}"))?;
        Ok(SampledIngest {
            shard_count,
            budget_per_shard,
            threads: threads.max(1),
            partials: Vec::new(),
        })
    }

    /// Runs up to `limit` pending shards (all of them when `None`): the
    /// shards are split contiguously across the workers, and each worker
    /// reads the source once ([`TraceSource::stream_blocks_range`]),
    /// feeding only the shards it owns. Returns how many shards ran.
    ///
    /// # Panics
    ///
    /// Panics with the reader's error if the source fails to read (it was
    /// scanned by [`SampledIngest::new`], so only a file that changed since
    /// fails), as [`fused_chunk_partial`] does.
    pub fn run_pending(&mut self, source: &TraceSource, limit: Option<usize>) -> usize {
        let first = self.partials.len();
        let pending = limit.map_or(self.shard_count - first, |l| {
            l.min(self.shard_count - first)
        });
        let count = self.shard_count as u64;
        let budget = self.budget_per_shard;
        let spans = symloc_par::parallel_map_chunked(pending, self.threads, |span| {
            if span.is_empty() {
                return Vec::new();
            }
            let (lo, hi) = ((first + span.start) as u64, (first + span.end) as u64);
            let mut estimators: Vec<ShardsEstimator> = (lo..hi)
                .map(|i| ShardsEstimator::for_shard(budget, SHARDS_MODULUS, i, count))
                .collect();
            // `next_block` panics with a file reader's error.
            let mut blocks = source
                .stream_blocks_range(0, u64::MAX)
                .unwrap_or_else(|e| panic!("{e}"));
            let mut buf = Vec::new();
            while blocks.next_block(&mut buf) > 0 {
                for &addr in &buf {
                    let hash = splitmix64(addr) % SHARDS_MODULUS;
                    let shard = hash % count;
                    if (lo..hi).contains(&shard) {
                        estimators[(shard - lo) as usize].record_hashed(addr, hash);
                    }
                }
            }
            estimators
                .iter()
                .map(SampledShardResult::from_estimator)
                .collect()
        });
        self.partials.extend(spans.into_iter().flatten());
        pending
    }

    /// The completed shards so far (in shard order).
    #[must_use]
    pub fn shard_results(&self) -> &[SampledShardResult] {
        &self.partials
    }

    /// The merged summary, or `None` while shards are pending.
    #[must_use]
    pub fn merged(&self) -> Option<SampledSummary> {
        (self.partials.len() >= self.shard_count).then(|| SampledSummary::merge(&self.partials))
    }
}

// ---------------------------------------------------------------------------
// Chunk-sharded parallel ingestion
// ---------------------------------------------------------------------------

/// The mergeable partial result of one contiguous trace chunk.
///
/// Within-chunk reuses are fully resolved into `histogram`; each address's
/// *first* chunk access is recorded in `unresolved`, at the index `i` that
/// counts the distinct addresses the chunk touched before it (its exact
/// within-chunk distance contribution); `last_order` lists the chunk's
/// distinct addresses by last access, which is all later chunks ever need
/// to know about this one. Merging partials left-to-right through
/// [`MergeState::absorb`] reproduces the sequential engine exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkPartial {
    /// Resolved within-chunk distances.
    pub histogram: StreamHistogram,
    /// The chunk's distinct addresses in first-access order: `i` distinct
    /// addresses precede the first access of `unresolved[i]`.
    pub unresolved: Vec<u64>,
    /// The chunk's distinct addresses ordered by their last access, each
    /// given as its index into `unresolved` (a permutation of
    /// `0..unresolved.len()`).
    pub last_order: Vec<u32>,
    /// Accesses in the chunk.
    pub accesses: u64,
}

/// Folds one contiguous chunk of accesses into a [`ChunkPartial`], one
/// access at a time ([`OnlineReuseEngine::record`]); the trace job folds
/// its chunks a block at a time instead ([`fused_chunk_partial`]), with
/// the same result. Embarrassingly parallel across chunks;
/// `O(chunk footprint)` memory.
#[must_use]
pub fn chunk_partial(accesses: impl IntoIterator<Item = u64>) -> ChunkPartial {
    let mut engine = OnlineReuseEngine::new();
    engine.record_all(accesses);
    engine.into_chunk_partial()
}

/// The left-to-right merge state of sharded ingestion: every absorbed
/// address in last-access order, plus the global histogram. Absorbing the
/// chunks of a trace in order yields exactly the sequential
/// [`OnlineReuseEngine`] result.
///
/// The order is a list of slots holding global address ids. Absorbing a
/// chunk only *removes* entries (an address the chunk touches again) and
/// *appends* them at the end, so a removal leaves a dead slot behind and
/// a [`SlotCounter`] marks dead slots alone: the live entries after a slot
/// are the later slots minus the dead ones among them. Appends touch no
/// counter. When the slots run out, the live ones are repacked to the
/// front and the counter is reset, the way the engine's timeline compacts,
/// so an absorb costs `O(k log footprint)` amortized for a chunk of `k`
/// distinct addresses, never a pass over the whole footprint — and the
/// counter's bits and block tree stay in cache where a `u64` Fenwick node
/// per slot would not.
#[derive(Debug, Clone)]
pub struct MergeState {
    interner: AddrInterner,
    /// Global ids in last-access order. A slot is live iff `dead` does
    /// not mark it (then `slot_of` points back at it).
    slots: Vec<u32>,
    /// `id → slot` of its live entry (`NO_SLOT` between its removal and
    /// its re-append within one absorb).
    slot_of: Vec<u32>,
    /// Marks the dead slots; its length is the slot capacity. Nothing is
    /// marked at or past `slots.len()`.
    dead: SlotCounter,
    histogram: StreamHistogram,
    /// [`MergeState::absorb`]'s ids of the chunk's first accesses and its
    /// finite distances, reused across absorbs.
    ids: Vec<u32>,
    distances: Vec<usize>,
}

impl Default for MergeState {
    fn default() -> Self {
        MergeState {
            interner: AddrInterner::new(),
            slots: Vec::new(),
            slot_of: Vec::new(),
            dead: SlotCounter::new(MIN_TIMELINE_CAPACITY),
            histogram: StreamHistogram::new(),
            ids: Vec::new(),
            distances: Vec::new(),
        }
    }
}

impl MergeState {
    /// Creates an empty state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs the next chunk's partial. Must be called in chunk order.
    ///
    /// Staged like the engine's block path (see `Timeline`): every first
    /// access is interned before any is resolved — they are distinct
    /// addresses, so no id depends on the order — and the finite distances
    /// reach the histogram a block at a time, after their resolution.
    pub fn absorb(&mut self, partial: &ChunkPartial) {
        debug_assert_eq!(partial.last_order.len(), partial.unresolved.len());
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        self.interner
            .intern_all(partial.unresolved.iter().copied(), &mut ids);
        self.slot_of.resize(self.interner.id_bound(), NO_SLOT);
        // Resolve the chunk's first accesses against the global order: the
        // distance of a cross-chunk reuse is (distinct addresses earlier in
        // the chunk, the access's index `i`) + (older-chunk addresses whose
        // entry still sits after the previous access) + 1. Removing each
        // resolved address's entry as we go is exactly Olken's dedup — an
        // address both in the global order and earlier in this chunk is
        // counted once, by the chunk-local term.
        let end = self.slots.len();
        let mut distances = std::mem::take(&mut self.distances);
        distances.clear();
        for (i, &id) in ids.iter().enumerate() {
            if let Some(&later) = ids.get(i + PREFETCH_AHEAD) {
                prefetch(&self.slot_of[later as usize]);
            }
            let slot = self.slot_of[id as usize];
            if slot == NO_SLOT {
                self.histogram.record_cold(1);
                continue;
            }
            let slot = slot as usize;
            let dead_after = self.dead.count() - self.dead.count_below(slot + 1);
            let live_after = end - slot - 1 - dead_after;
            distances.push(i + live_after + 1);
            self.dead.set(slot);
            self.slot_of[id as usize] = NO_SLOT;
            if distances.len() == BLOCK_LEN {
                self.histogram.record_each(&distances);
                distances.clear();
            }
        }
        self.histogram.record_each(&distances);
        self.histogram.merge(&partial.histogram);
        // Append the chunk's last accesses, in their within-chunk order.
        for &index in &partial.last_order {
            self.append(ids[index as usize]);
        }
        self.ids = ids;
        self.distances = distances;
    }

    /// Appends `id` (which must have no live slot) as the newest entry.
    fn append(&mut self, id: u32) {
        if self.slots.len() == self.dead.len() {
            self.repack();
        }
        // Below the capacity, hence below `NO_SLOT`.
        self.slot_of[id as usize] = self.slots.len() as u32;
        self.slots.push(id);
    }

    /// Moves the live slots to the front, in order, and resets the dead
    /// counter to twice their number: amortized `O(1)` per append, since at
    /// least that many appends fill the slots again.
    fn repack(&mut self) {
        let mut live = 0usize;
        for slot in 0..self.slots.len() {
            if !self.dead.is_set(slot) {
                let id = self.slots[slot];
                self.slots[live] = id;
                self.slot_of[id as usize] = live as u32;
                live += 1;
            }
        }
        self.slots.truncate(live);
        self.dead
            .reset_ones_prefix((live * 2).max(MIN_TIMELINE_CAPACITY), 0);
    }

    /// The absorbed addresses in last-access order. Gathered in one tight
    /// loop, so the random `address(id)` reads overlap each other instead
    /// of waiting behind the formatting of every address.
    fn ordered_addresses(&self) -> Vec<u64> {
        (0..self.slots.len())
            .filter(|&slot| !self.dead.is_set(slot))
            .map(|slot| self.interner.address(self.slots[slot]))
            .collect()
    }

    /// The global histogram so far.
    #[must_use]
    pub fn histogram(&self) -> &StreamHistogram {
        &self.histogram
    }

    /// Distinct addresses absorbed so far.
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.interner.len()
    }

    /// Writes the state's checkpoint fields: the cold count, the
    /// `[[distance, count], ...]` histogram and the timeline (every
    /// absorbed address, in last-access order). The integers go through
    /// [`StagingWriter`]: a timeline of a million addresses is a million
    /// of them.
    fn write_json(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        let mut w = StagingWriter::new(out);
        w.str("  \"cold\": ");
        w.u64(self.histogram.cold_count());
        w.str(",\n  \"histogram\": [");
        for (i, (d, c)) in self.histogram.iter().enumerate() {
            w.str(if i == 0 { "[" } else { ", [" });
            w.u64(d as u64);
            w.str(", ");
            w.u64(c);
            w.str("]");
        }
        w.str("],\n  \"timeline\": [");
        for (i, &addr) in self.ordered_addresses().iter().enumerate() {
            if i > 0 {
                w.str(", ");
            }
            w.u64(addr);
        }
        w.str("],\n");
        w.finish()
    }
}

/// The exact half's checkpoint fields ([`MergeState::write_json`]) as a
/// [`Reader`] meets them. They matter only while the exact half is on,
/// which the document may say after them, so the histogram and the
/// timeline are read on trial ([`Reader::attempt`]): what is wrong with
/// them is kept, to be raised by [`MergeFields::build`].
#[derive(Debug, Default)]
struct MergeFields {
    cold: Option<Option<u64>>,
    histogram: Option<Result<Vec<(usize, u64)>, String>>,
    /// The interner of the timeline's addresses, each interned once in
    /// last-access order, so the `i`-th address has id `i`.
    timeline: Option<Result<AddrInterner, String>>,
}

impl MergeFields {
    /// Reads the value of `key` when it names a field of the exact half,
    /// and says whether it did; the first of duplicate keys wins.
    ///
    /// # Errors
    ///
    /// Returns a syntax error.
    fn read(&mut self, reader: &mut Reader<'_>, key: &str) -> Result<bool, String> {
        match key {
            "cold" => reader.first(&mut self.cold, Reader::u64)?,
            "histogram" => reader.first(&mut self.histogram, |reader| {
                reader.attempt(|reader| {
                    read_bins(reader, |reader| {
                        reader
                            .u64()?
                            .ok_or_else(|| "bad histogram count".to_string())
                    })
                })
            })?,
            "timeline" => {
                let cold = self.cold.flatten();
                reader.first(&mut self.timeline, |reader| {
                    reader.attempt(|reader| read_timeline(reader, cold))
                })?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds the merge state from the fields read.
    ///
    /// # Errors
    ///
    /// Rejects a missing or malformed field, a cold count that differs
    /// from the timeline length (every distinct address is one first touch
    /// and one timeline entry), a histogram distance above the cold count
    /// (no reuse distance exceeds the footprint), and a timeline address
    /// that appears twice — each would otherwise resume to a wrong curve.
    /// The counts are checked before anything is allocated for them, so a
    /// hostile document costs memory in proportion to its own length.
    ///
    /// Everything is built once at the size the document gives: the slots
    /// and the dead counter for the timeline's length (the counter at
    /// twice it, as a repack leaves it), and the dense histogram up to its
    /// last bin. The timeline lists each address once, so the `i`-th
    /// address has id and slot `i`.
    fn build(self) -> Result<MergeState, String> {
        let cold = self.cold.flatten().ok_or("missing cold")?;
        let interner = self.timeline.ok_or("missing timeline")??;
        let len = interner.id_bound();
        if cold != len as u64 {
            return Err(format!(
                "cold count {cold} differs from the {len} timeline addresses"
            ));
        }
        let bins = self.histogram.ok_or("missing histogram")??;
        if let Some(&(d, _)) = bins.iter().find(|&&(d, _)| d as u64 > cold) {
            return Err(format!(
                "histogram distance {d} exceeds the cold count {cold}"
            ));
        }
        // Below the id space, hence below `NO_SLOT`.
        let slots: Vec<u32> = (0..len as u32).collect();
        Ok(MergeState {
            interner,
            slot_of: slots.clone(),
            slots,
            dead: SlotCounter::new((len * 2).max(MIN_TIMELINE_CAPACITY)),
            histogram: StreamHistogram::from_bins(cold, &bins),
            ids: Vec::new(),
            distances: Vec::new(),
        })
    }
}

/// Reads a timeline straight into an interner whose id list is sized for
/// the `cold` count read before it when there is one, as far as the rest
/// of the document could hold. Its large-address table grows as the
/// addresses come, as interning them one by one grows it.
fn read_timeline(reader: &mut Reader<'_>, cold: Option<u64>) -> Result<AddrInterner, String> {
    let capacity = cold.map_or(0, |cold| reader.bounded(cold, 2));
    let mut interner = AddrInterner::with_capacity(capacity, 0);
    reader.array(|reader| {
        let addr = reader.u64()?.ok_or("bad timeline address")?;
        let next = interner.id_bound();
        if interner.intern(addr) as usize != next {
            return Err(format!("timeline address {addr} appears twice"));
        }
        Ok(())
    })?;
    Ok(interner)
}

// ---------------------------------------------------------------------------
// The trace job: one streaming pass, an exact half and a sampled half
// ---------------------------------------------------------------------------

/// Reads the `[[distance, count], ...]` bins of a checkpoint histogram,
/// each count read by `count`. Distances must be positive and strictly
/// increasing, as every writer emits them.
fn read_bins<'a, C>(
    reader: &mut Reader<'a>,
    mut count: impl FnMut(&mut Reader<'a>) -> Result<C, String>,
) -> Result<Vec<(usize, C)>, String> {
    let mut bins: Vec<(usize, C)> = Vec::new();
    reader.array(|reader| {
        let (d, c) = reader.pair("histogram entry is not a pair", Reader::usize, &mut count)?;
        let d = d.ok_or("bad histogram distance")?;
        if d == 0 {
            return Err("histogram distance 0 is not representable".to_string());
        }
        if bins.last().is_some_and(|&(prev, _)| prev >= d) {
            return Err(format!("histogram distance {d} out of order"));
        }
        bins.push((d, c));
        Ok(())
    })?;
    Ok(bins)
}

/// What a [`FusedIngest`] computes: its chunk plan, and which of its two
/// halves run. At least one half must be on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePlan {
    /// Contiguous trace chunks — the job's units. More chunks than
    /// accesses degrade to one chunk per access (and one chunk for an
    /// empty trace).
    pub chunks: usize,
    /// Whether the exact half runs: PARDA chunk partials merged in chunk
    /// order.
    pub exact: bool,
    /// Hash shards of the sampled half; `0` switches the half off.
    pub shards: usize,
    /// Tracked addresses per hash shard (`0` while the sampled half is
    /// off).
    pub budget_per_shard: usize,
}

impl TracePlan {
    /// The exact half alone.
    #[must_use]
    pub const fn exact(chunks: usize) -> Self {
        TracePlan {
            chunks,
            exact: true,
            shards: 0,
            budget_per_shard: 0,
        }
    }

    /// The sampled half alone: `shards` hash shards of `budget_per_shard`
    /// tracked addresses each.
    #[must_use]
    pub const fn sampled(chunks: usize, shards: usize, budget_per_shard: usize) -> Self {
        TracePlan {
            chunks,
            exact: false,
            shards,
            budget_per_shard,
        }
    }

    /// Both halves, fed by one decode of every access.
    #[must_use]
    pub const fn both(chunks: usize, shards: usize, budget_per_shard: usize) -> Self {
        TracePlan {
            chunks,
            exact: true,
            shards,
            budget_per_shard,
        }
    }

    /// The halves that run: `"exact"`, `"sampled"` or `"exact + sampled"`.
    #[must_use]
    pub const fn halves(&self) -> &'static str {
        match (self.exact, self.shards > 0) {
            (true, true) => "exact + sampled",
            (true, false) => "exact",
            (false, _) => "sampled",
        }
    }

    /// The plan as it runs over `total` accesses — chunks capped at the
    /// trace length (one chunk for an empty trace), the budget zeroed
    /// while the sampled half is off — or why no such job exists.
    fn for_length(self, total: u64) -> Result<Self, String> {
        if self.chunks == 0 {
            return Err("at least one chunk is required".to_string());
        }
        if !self.exact && self.shards == 0 {
            return Err("a trace job needs its exact half, its sampled half, or both".to_string());
        }
        if self.shards > 0 && self.budget_per_shard == 0 {
            return Err("the per-shard budget must be positive".to_string());
        }
        Ok(TracePlan {
            chunks: self
                .chunks
                .min(usize::try_from(total.max(1)).unwrap_or(usize::MAX)),
            budget_per_shard: if self.shards > 0 {
                self.budget_per_shard
            } else {
                0
            },
            ..self
        })
    }
}

/// The mergeable partial result of one trace chunk of a [`FusedIngest`]:
/// the exact [`ChunkPartial`] plus the chunk's accesses routed to their
/// owning hash shards. Shard `i` holds the sub-sequence of the chunk with
/// `splitmix64(addr) % SHARDS_MODULUS ≡ i (mod shard_count)`, in access
/// order, so concatenating a shard's slices across chunks (which absorbing
/// in chunk order does) reproduces exactly the access sequence
/// [`SampledIngest`] feeds that shard's [`ShardsEstimator`]. A half that
/// is off leaves its side empty.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedChunkPartial {
    /// The exact mergeable partial of the chunk.
    pub exact: ChunkPartial,
    /// The chunk's accesses partitioned by owning hash shard (access order
    /// preserved within each shard; every access lands in exactly one).
    pub routed: Vec<Vec<u64>>,
    /// Accesses the decode pass delivered while folding the chunk — the
    /// single-pass proof counter ([`FusedIngest::streamed_accesses`] sums
    /// it; a complete run totals exactly the trace length, one
    /// observation per access).
    pub streamed: u64,
}

/// Folds one contiguous chunk of block-streamed accesses into a
/// [`FusedChunkPartial`] with both halves on, broadcasting every decoded
/// block to the exact engine's block path, the per-shard routing buffers *and*
/// `sink` — the single decode pass of the trace job. `sink` is the
/// extension seam for further per-access consumers; pass a
/// [`CountingSink`] to prove the pass touches each access exactly once.
///
/// # Panics
///
/// Panics if `shard_count == 0`, or with the error the block reader
/// returns ([`BlockRead::try_next_block`]); the trace job's own chunk
/// units return it instead.
#[must_use]
pub fn fused_chunk_partial(
    blocks: &mut dyn BlockRead,
    shard_count: usize,
    sink: &mut dyn AccessSink,
) -> FusedChunkPartial {
    assert!(shard_count > 0, "at least one hash shard is required");
    fold_chunk(blocks, true, shard_count, sink).unwrap_or_else(|e| panic!("{e}"))
}

/// [`fused_chunk_partial`] for any combination of halves: `exact` folds
/// the exact partial through [`OnlineReuseEngine::record_block`],
/// `shard_count > 0` routes to that many hash shards; a half that is off
/// costs nothing per access.
///
/// # Errors
///
/// Returns the block reader's error.
fn fold_chunk(
    blocks: &mut dyn BlockRead,
    exact: bool,
    shard_count: usize,
    sink: &mut dyn AccessSink,
) -> Result<FusedChunkPartial, TraceIoError> {
    let mut engine = exact.then(OnlineReuseEngine::new);
    let mut routed = vec![Vec::new(); shard_count];
    let count = shard_count as u64;
    let mut streamed = 0u64;
    let mut buf = Vec::new();
    while blocks.try_next_block(&mut buf)? > 0 {
        sink.on_block(&buf);
        streamed += buf.len() as u64;
        if let Some(engine) = engine.as_mut() {
            engine.record_block(&buf);
        }
        if count > 0 {
            for &addr in &buf {
                route(&mut routed, count, addr);
            }
        }
    }
    Ok(FusedChunkPartial {
        exact: engine.map_or_else(ChunkPartial::default, OnlineReuseEngine::into_chunk_partial),
        routed,
        streamed,
    })
}

/// Appends `addr` to the buffer of the hash shard that owns it.
#[inline]
fn route(routed: &mut [Vec<u64>], count: u64, addr: u64) {
    let shard = splitmix64(addr) % SHARDS_MODULUS % count;
    routed[usize::try_from(shard).expect("shard index fits usize")].push(addr);
}

/// The access count a job of `source` plans with
/// ([`TraceSource::planned_accesses`]).
fn planned_length(source: &TraceSource) -> Result<u64, String> {
    source
        .planned_accesses()
        .map_err(|e| format!("cannot read {source}: {e}"))
}

/// The trace job: one chunk-sharded streaming pass over a source that
/// yields the exact reuse-distance histogram, the hash-sharded sampled
/// estimate, or both (see [`TracePlan`]).
///
/// Each worker folds the chunks it claims through one block-decode pass
/// that feeds the exact [`ChunkPartial`] fold and routes every access to
/// its owning hash shard's buffer ([`fused_chunk_partial`]). The calling
/// thread absorbs the partials in chunk order — advancing the exact
/// [`MergeState`] and replaying each shard's slice through its live
/// [`ShardsEstimator`] — and saves checkpoints while the workers fold the
/// next chunks ([`JobRunner`]), so:
///
/// * the exact half is byte-identical to the sequential
///   [`OnlineReuseEngine`], whatever the chunk and thread counts;
/// * the sampled half is bit-identical to [`SampledIngest`] at the same
///   shard count — the concatenated replays are exactly the call sequence
///   it makes (thresholds, counters and weighted histograms, float for
///   float).
///
/// Checkpoints capture the exact merge state and every estimator
/// mid-stream (counters, weighted histogram, tracked addresses in
/// last-access order), so a killed job resumes to a byte-identical final
/// checkpoint like every other [`Job`]. A half that is off is recorded
/// explicitly: `"exact": false` in place of the exact state, or
/// `"shard_count": 0`.
#[derive(Debug, Clone)]
pub struct FusedIngest {
    fingerprint: String,
    total: u64,
    plan: TracePlan,
    threshold: u64,
    threads: usize,
    next_chunk: usize,
    streamed: u64,
    state: MergeState,
    estimators: Vec<ShardsEstimator>,
}

impl FusedIngest {
    /// Plans a job running both halves: `chunk_count` chunks, and
    /// `shard_count` hash shards of `budget_per_shard` tracked addresses
    /// each on the sampled half ([`TracePlan::both`]).
    ///
    /// # Errors
    ///
    /// Returns the source's read or parse error as a string.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_count == 0`, `shard_count == 0` or
    /// `budget_per_shard == 0`.
    pub fn new(
        source: &TraceSource,
        chunk_count: usize,
        shard_count: usize,
        budget_per_shard: usize,
        threads: usize,
    ) -> Result<Self, String> {
        assert!(shard_count > 0, "at least one hash shard is required");
        Self::planned(
            source,
            TracePlan::both(chunk_count, shard_count, budget_per_shard),
            threads,
        )
    }

    /// Plans a job of `source` computing what `plan` asks for, at the
    /// access count [`TraceSource::planned_accesses`] gives: an indexed
    /// file's is its sidecar's, read without decoding the file, and the
    /// job's chunks check the file against it as they decode.
    ///
    /// # Errors
    ///
    /// Returns the source's read or parse error as a string.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no chunks, no half switched on, or a sampled
    /// half with a zero budget.
    pub fn planned(source: &TraceSource, plan: TracePlan, threads: usize) -> Result<Self, String> {
        let total = planned_length(source)?;
        let plan = plan.for_length(total).unwrap_or_else(|e| panic!("{e}"));
        Ok(Self::fresh(source.fingerprint(), total, plan, threads))
    }

    /// A job with nothing absorbed yet, for a plan already fitted to the
    /// trace length.
    fn fresh(fingerprint: String, total: u64, plan: TracePlan, threads: usize) -> Self {
        let estimators = (0..plan.shards)
            .map(|i| {
                ShardsEstimator::for_shard(
                    plan.budget_per_shard,
                    SHARDS_MODULUS,
                    i as u64,
                    plan.shards as u64,
                )
            })
            .collect();
        FusedIngest {
            fingerprint,
            total,
            plan,
            threshold: SHARDS_MODULUS,
            threads: threads.max(1),
            next_chunk: 0,
            streamed: 0,
            state: MergeState::new(),
            estimators,
        }
    }

    /// The source fingerprint the job belongs to.
    #[must_use]
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Total accesses of the source.
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// What the job computes, with the chunk count fitted to the trace.
    #[must_use]
    pub fn plan(&self) -> TracePlan {
        self.plan
    }

    /// Number of planned chunks.
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        self.plan.chunks
    }

    /// Number of chunks already absorbed.
    #[must_use]
    pub fn completed_count(&self) -> usize {
        self.next_chunk
    }

    /// True when every chunk has been absorbed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.next_chunk >= self.plan.chunks
    }

    /// Accesses the decode pass has delivered so far — exactly one
    /// observation per absorbed access, which is the single-pass proof: a
    /// complete run reports exactly the trace length here, whichever
    /// halves it ran.
    #[must_use]
    pub fn streamed_accesses(&self) -> u64 {
        self.streamed
    }

    /// The exact histogram, or `None` while chunks are pending or when the
    /// exact half is off.
    #[must_use]
    pub fn exact_histogram(&self) -> Option<&StreamHistogram> {
        (self.plan.exact && self.is_complete()).then(|| self.state.histogram())
    }

    /// Distinct addresses absorbed so far (exact half; 0 when it is off).
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.state.footprint()
    }

    /// The per-shard sampled results as they stand now (mid-stream while
    /// chunks are pending; final when complete — then bit-identical to
    /// [`SampledIngest::shard_results`] at the same shard count).
    #[must_use]
    pub fn sampled_shard_results(&self) -> Vec<SampledShardResult> {
        self.estimators
            .iter()
            .map(SampledShardResult::from_estimator)
            .collect()
    }

    /// The merged sampled summary, or `None` while chunks are pending or
    /// when the sampled half is off. Bit-identical to
    /// [`SampledIngest::merged`] at the same shard count.
    #[must_use]
    pub fn sampled_summary(&self) -> Option<SampledSummary> {
        (self.plan.shards > 0 && self.is_complete())
            .then(|| SampledSummary::merge(&self.sampled_shard_results()))
    }

    /// Records the sampled half's `estimator.*` gauges as they stand: the
    /// estimator's own with one hash shard, and with several the totals of
    /// the tracked addresses, evictions, compactions and estimated
    /// footprint beside the smallest threshold and sampling rate. Records
    /// nothing while the sampled half is off.
    #[allow(clippy::cast_precision_loss)]
    pub fn record_gauges(&self, registry: &mut crate::obs::MetricsRegistry) {
        let all = match self.estimators.as_slice() {
            [] => return,
            [only] => return only.record_gauges(registry),
            all => all,
        };
        let sum = |f: fn(&ShardsEstimator) -> f64| all.iter().map(f).sum::<f64>();
        let min = |f: fn(&ShardsEstimator) -> f64| all.iter().map(f).fold(f64::INFINITY, f64::min);
        registry.set_gauge("estimator.threshold", min(|e| e.threshold() as f64));
        registry.set_gauge(
            "estimator.sampling_rate",
            min(ShardsEstimator::sampling_rate),
        );
        registry.set_gauge("estimator.tracked", sum(|e| e.tracked_addresses() as f64));
        registry.set_gauge("estimator.evictions", sum(|e| e.evictions() as f64));
        registry.set_gauge("estimator.compactions", sum(|e| e.compactions() as f64));
        registry.set_gauge(
            "estimator.estimated_footprint",
            sum(ShardsEstimator::estimated_footprint),
        );
    }

    /// The deterministic chunk plan (contiguous access ranges).
    fn chunk_bounds(&self) -> Vec<(u64, u64)> {
        split_indices(
            usize::try_from(self.total).expect("trace length fits usize"),
            self.plan.chunks,
        )
        .into_iter()
        .map(|c| (c.start as u64, c.end as u64))
        .collect()
    }

    /// Binds the job to its (fingerprint-checked) source so the generic
    /// [`JobRunner`] can drive it.
    ///
    /// # Panics
    ///
    /// Panics if the source does not match the job's fingerprint.
    fn bind<'a>(&'a mut self, source: &'a TraceSource) -> FusedIngestJob<'a> {
        assert_eq!(
            source.fingerprint(),
            self.fingerprint,
            "trace job resumed against a different trace source"
        );
        FusedIngestJob {
            ingest: self,
            source,
        }
    }

    /// Runs up to `limit` pending chunks (all of them when `None`): up to
    /// the configured thread count of workers fold chunks while the
    /// calling thread absorbs the partials in chunk order. Returns how many
    /// chunks were processed.
    ///
    /// # Panics
    ///
    /// Panics if the source no longer matches the job's fingerprint, or
    /// with the error of a chunk that cannot be read or does not match the
    /// source's sidecar; [`Self::run_pending_metered`] returns that error.
    pub fn run_pending(&mut self, source: &TraceSource, limit: Option<usize>) -> usize {
        JobRunner::run_pending(&mut self.bind(source), limit)
    }

    /// [`Self::run_pending`] with optional instrumentation — identical
    /// execution and results; the registry only observes.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Unit`] with the error of a chunk that cannot be
    /// read or does not match the source's sidecar; the chunks before it
    /// are absorbed, and none after it.
    ///
    /// # Panics
    ///
    /// Panics if the source no longer matches the job's fingerprint.
    pub fn run_pending_metered(
        &mut self,
        source: &TraceSource,
        limit: Option<usize>,
        metrics: Option<&mut crate::obs::MetricsRegistry>,
    ) -> Result<usize, JobError> {
        JobRunner::run_pending_metered(&mut self.bind(source), limit, metrics)
    }

    /// Runs pending chunks — all, or up to `limit` — saving the checkpoint
    /// after every absorbed batch, so a kill loses at most one batch; the
    /// workers fold the next chunks while a save streams to disk.
    /// `on_batch(completed, total)` fires after every save. The checkpoint
    /// is (re)written even when nothing was pending. The loop is
    /// [`JobRunner::run_with_checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Save`] if a checkpoint cannot be written, and
    /// [`JobError::Unit`] with the error of a chunk that cannot be read or
    /// does not match the source's sidecar; either way the previous
    /// checkpoint stays as it was.
    pub fn run_with_checkpoint(
        &mut self,
        source: &TraceSource,
        path: &Path,
        limit: Option<usize>,
        on_batch: impl FnMut(usize, usize),
    ) -> Result<usize, JobError> {
        JobRunner::run_with_checkpoint(&mut self.bind(source), path, limit, on_batch)
    }

    /// [`FusedIngest::run_with_checkpoint`] with the runner's metrics
    /// registry attached — identical execution, checkpoint bytes and
    /// results; the registry only observes.
    ///
    /// # Errors
    ///
    /// As [`FusedIngest::run_with_checkpoint`].
    pub fn run_with_checkpoint_metered(
        &mut self,
        source: &TraceSource,
        path: &Path,
        limit: Option<usize>,
        metrics: Option<&mut crate::obs::MetricsRegistry>,
        on_batch: impl FnMut(usize, usize),
    ) -> Result<usize, JobError> {
        JobRunner::run_with_checkpoint_metered(
            &mut self.bind(source),
            path,
            limit,
            metrics,
            on_batch,
        )
    }

    /// Serializes the job — plan, progress, exact merge state, and every
    /// estimator's mid-stream state — as a JSON checkpoint document. Both
    /// halves serialize canonically (timelines as ordered address lists,
    /// weights as shortest round-trip decimals), so two jobs in the same
    /// logical state serialize byte-identically however they got there.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out)
            .expect("a checkpoint document formats into a String");
        out
    }

    /// Writes the checkpoint document [`FusedIngest::to_json`] returns to
    /// `out` — the streaming form checkpoint saves use, so a document of
    /// tens of megabytes is never held in memory whole.
    ///
    /// # Errors
    ///
    /// Returns the writer's error.
    pub(crate) fn write_json(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        job::write_checkpoint_header(out, JobKind::FusedIngest, &self.fingerprint)?;
        writeln!(out, "  \"total_accesses\": {},", self.total)?;
        writeln!(out, "  \"chunk_count\": {},", self.plan.chunks)?;
        writeln!(out, "  \"shard_count\": {},", self.plan.shards)?;
        writeln!(
            out,
            "  \"budget_per_shard\": {},",
            self.plan.budget_per_shard
        )?;
        writeln!(out, "  \"threshold\": {},", self.threshold)?;
        writeln!(out, "  \"next_chunk\": {},", self.next_chunk)?;
        writeln!(out, "  \"streamed\": {},", self.streamed)?;
        if self.plan.exact {
            self.state.write_json(out)?;
        } else {
            out.write_str("  \"exact\": false,\n")?;
        }
        out.write_str("  \"shards\": [\n")?;
        for (i, est) in self.estimators.iter().enumerate() {
            out.write_str("    {")?;
            est.write_state(out)?;
            out.write_str(if i + 1 < self.estimators.len() {
                "},\n"
            } else {
                "}\n"
            })?;
        }
        out.write_str("  ]\n}\n")
    }

    /// Rebuilds a job from a checkpoint document, read straight from its
    /// text; its keys may come in any order.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or structural problem.
    pub fn from_json(text: &str, threads: usize) -> Result<FusedIngest, String> {
        jsonio::read_document(text, |reader| Self::read(reader, threads))
    }

    /// Reads and builds a job from the checkpoint document at `reader`.
    fn read(reader: &mut Reader<'_>, threads: usize) -> Result<FusedIngest, String> {
        let mut fingerprint = None;
        let mut numbers: [Option<Option<u64>>; 7] = Default::default();
        const NUMBERS: [&str; 7] = [
            "total_accesses",
            "chunk_count",
            "shard_count",
            "budget_per_shard",
            "threshold",
            "next_chunk",
            "streamed",
        ];
        let mut exact = None;
        let mut merge = MergeFields::default();
        let mut entries: Option<Vec<EstimatorFields>> = None;
        job::read_checkpoint_fields(reader, JobKind::FusedIngest, |reader, key| {
            if let Some(i) = NUMBERS.iter().position(|&name| name == key) {
                return reader.first(&mut numbers[i], Reader::u64);
            }
            match key {
                "fingerprint" => reader.first(&mut fingerprint, |reader| {
                    Ok(reader.str()?.map(Cow::into_owned))
                }),
                "exact" => reader.first(&mut exact, Reader::bool),
                "shards" => reader.first(&mut entries, |reader| {
                    let mut entries = Vec::new();
                    reader.array(|reader| {
                        let mut fields = EstimatorFields::default();
                        reader.object(|reader, key| {
                            if !fields.read(reader, key)? {
                                reader.skip()?;
                            }
                            Ok(())
                        })?;
                        entries.push(fields);
                        Ok(())
                    })?;
                    Ok(entries)
                }),
                _ => {
                    if !merge.read(reader, key)? {
                        reader.skip()?;
                    }
                    Ok(())
                }
            }
        })?;
        let number = |key: &str| {
            let i = NUMBERS
                .iter()
                .position(|&name| name == key)
                .expect("a known field");
            numbers[i].flatten().ok_or_else(|| format!("missing {key}"))
        };
        let count = |key: &str| {
            number(key).and_then(|n| usize::try_from(n).map_err(|_| format!("missing {key}")))
        };
        let fingerprint = fingerprint.flatten().ok_or("missing fingerprint")?;
        let total = number("total_accesses")?;
        // The exact half is on unless the document says otherwise, and
        // `false` is the only thing it ever says.
        let exact = match exact {
            None => true,
            Some(Some(false)) => false,
            Some(_) => return Err("\"exact\" may only record false (the half is off)".to_string()),
        };
        let recorded = TracePlan {
            chunks: count("chunk_count")?,
            exact,
            shards: count("shard_count")?,
            budget_per_shard: count("budget_per_shard")?,
        };
        let plan = recorded.for_length(total)?;
        if plan != recorded {
            return Err(format!(
                "plan {recorded:?} does not fit a trace of {total} accesses"
            ));
        }
        let threshold = number("threshold")?;
        if threshold == 0 || threshold > SHARDS_MODULUS {
            return Err(format!(
                "threshold {threshold} outside 1..={SHARDS_MODULUS}"
            ));
        }
        let next_chunk = count("next_chunk")?;
        if next_chunk > plan.chunks {
            return Err(format!(
                "next_chunk {next_chunk} exceeds chunk_count {}",
                plan.chunks
            ));
        }
        // Every count below is checked against the accesses the absorbed
        // chunks hold: a count no run produces would resume to a wrong
        // curve.
        let streamed = number("streamed")?;
        let absorbed = split_prefix_len(
            usize::try_from(total).map_err(|_| format!("total_accesses {total} exceeds usize"))?,
            plan.chunks,
            next_chunk,
        ) as u64;
        if streamed != absorbed {
            return Err(format!(
                "streamed {streamed} differs from the {absorbed} accesses of the first \
                 {next_chunk} chunks"
            ));
        }
        let state = if exact {
            merge.build()?
        } else {
            MergeState::new()
        };
        let recorded = u128::from(state.histogram.cold)
            + state
                .histogram
                .counts
                .iter()
                .map(|&c| u128::from(c))
                .sum::<u128>();
        if exact && recorded != u128::from(streamed) {
            return Err(format!(
                "cold plus histogram counts add up to {recorded} accesses, not the {streamed} \
                 streamed"
            ));
        }
        let entries = entries.ok_or("missing shards")?;
        if entries.len() != plan.shards {
            return Err(format!(
                "shard_count {} does not match {} shard entries",
                plan.shards,
                entries.len()
            ));
        }
        let estimators = entries
            .into_iter()
            .enumerate()
            .map(|(index, fields)| {
                fields.build(
                    plan.budget_per_shard,
                    threshold,
                    index as u64,
                    plan.shards as u64,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        let raw: u128 = estimators.iter().map(|e| u128::from(e.raw_accesses)).sum();
        if plan.shards > 0 && raw != u128::from(streamed) {
            return Err(format!(
                "the shards' raw counts add up to {raw} accesses, not the {streamed} streamed"
            ));
        }
        Ok(FusedIngest {
            fingerprint,
            total,
            plan,
            threshold,
            threads: threads.max(1),
            next_chunk,
            streamed,
            state,
            estimators,
        })
    }

    /// Loads a checkpoint from `path`, or plans a fresh job when the file
    /// does not exist or belongs to a different source or plan (the halves
    /// are part of the plan). Returns the job and whether progress was
    /// actually resumed.
    ///
    /// The source's access count is always read again
    /// ([`TraceSource::planned_accesses`]): a checkpoint only resumes when
    /// its fingerprint, its plan *and* its recorded access count all match
    /// the source as it exists now. File fingerprints are path-based, so
    /// the count is what catches a file that was truncated, appended to or
    /// replaced between runs; an indexed file's count is its sidecar's, and
    /// the chunks then check the file against the sidecar as they decode
    /// (an equal-length content swap is not detectable without hashing
    /// every resume). Before a fresh plan replaces a checkpoint of the same
    /// source that recorded another count, the source is scanned in full
    /// ([`TraceSource::total_accesses`]), so a sidecar whose count is wrong
    /// fails the run instead of discarding the progress.
    ///
    /// # Errors
    ///
    /// Returns the source's read error, or a loud error when the file holds
    /// a checkpoint of a *different* or retired job kind (see
    /// [`crate::job::resume_or_new_with`]).
    ///
    /// # Panics
    ///
    /// Panics on the same plans as [`FusedIngest::planned`].
    pub fn resume_or_new(
        source: &TraceSource,
        plan: TracePlan,
        threads: usize,
        path: &Path,
    ) -> Result<(FusedIngest, bool), String> {
        let total = planned_length(source)?;
        let plan = plan.for_length(total).unwrap_or_else(|e| panic!("{e}"));
        let fingerprint = source.fingerprint();
        let other_count = std::cell::Cell::new(false);
        let (job, resumed) = job::resume_or_new_with(
            path,
            JobKind::FusedIngest,
            |reader| FusedIngest::read(reader, threads),
            |ingest| {
                other_count.set(ingest.fingerprint == fingerprint && ingest.total != total);
                ingest.fingerprint == fingerprint
                    && ingest.total == total
                    && ingest.plan == plan
                    && ingest.threshold == SHARDS_MODULUS
            },
            FusedIngest::completed_count,
            || Self::fresh(fingerprint.clone(), total, plan, threads),
        )?;
        // A fresh plan is about to replace a checkpoint of this source that
        // recorded another count. An indexed file's count is its sidecar's
        // alone, so confirm it by a full scan first, which fails while the
        // sidecar does not describe the file, before the progress goes.
        if other_count.get() {
            source
                .total_accesses()
                .map_err(|e| format!("cannot read {source}: {e}"))?;
        }
        Ok((job, resumed))
    }
}

/// A [`FusedIngest`] bound to its trace source: the [`Job`] the generic
/// runner drives. One unit is one contiguous trace chunk, streamed
/// **once** through [`fold_chunk`] on a worker ([`ChunkUnits`]);
/// absorption advances the exact merge and replays the routed slices
/// through the live estimators, both strictly in chunk order, on the
/// calling thread.
struct FusedIngestJob<'a> {
    ingest: &'a mut FusedIngest,
    source: &'a TraceSource,
}

/// The read-only unit plan of a trace job run: the chunk bounds, the
/// halves, the source and how the run reads it, and the pool of parked
/// readers.
struct ChunkUnits<'a> {
    bounds: Vec<(u64, u64)>,
    plan: TracePlan,
    source: &'a TraceSource,
    /// The run's read plan: the job's access count and the source's
    /// sidecar, read once for the run. Every chunk reader checks what it
    /// decodes against it.
    reads: ReadPlan,
    /// For a source that does not seek ([`ReadPlan::seeks`]): open readers
    /// parked where their last chunk ended, so a chunk continues the
    /// furthest one not past its start instead of decoding the trace
    /// prefix again. Each worker then decodes the trace about once.
    readers: Option<Mutex<Vec<BlockCursor>>>,
}

impl ChunkUnits<'_> {
    /// Folds the accesses `start..end` — from a seek, or from the furthest
    /// parked reader not past `start` (a new one when none is).
    ///
    /// # Errors
    ///
    /// Returns the reader's error: the chunk could not be read, or does not
    /// match the run's read plan.
    fn fold_range(
        &self,
        start: u64,
        end: u64,
        sink: &mut dyn AccessSink,
    ) -> Result<FusedChunkPartial, TraceIoError> {
        let plan = self.plan;
        let Some(readers) = &self.readers else {
            let mut blocks = self.source.read_blocks(&self.reads, start, end)?;
            return fold_chunk(blocks.as_mut(), plan.exact, plan.shards, sink);
        };
        let parked = {
            let mut parked = readers.lock().expect("reader pool lock");
            let best = (0..parked.len())
                .filter(|&i| parked[i].position() <= start)
                .max_by_key(|&i| parked[i].position());
            best.map(|i| parked.swap_remove(i))
        };
        let mut cursor = match parked {
            Some(cursor) => cursor,
            None => {
                let to_end = self.reads.total().unwrap_or(u64::MAX);
                BlockCursor::new(self.source.read_blocks(&self.reads, start, to_end)?, start)
            }
        };
        cursor.skip_to(start)?;
        let partial = fold_chunk(&mut cursor.take(end - start), plan.exact, plan.shards, sink)?;
        readers.lock().expect("reader pool lock").push(cursor);
        Ok(partial)
    }
}

impl<'a> Job for FusedIngestJob<'a> {
    type Partial = FusedChunkPartial;
    type Units = ChunkUnits<'a>;

    fn kind(&self) -> JobKind {
        JobKind::FusedIngest
    }

    fn fingerprint(&self) -> String {
        self.ingest.fingerprint.clone()
    }

    fn threads(&self) -> usize {
        self.ingest.threads
    }

    fn unit_count(&self) -> usize {
        self.ingest.plan.chunks
    }

    fn completed_count(&self) -> usize {
        self.ingest.next_chunk
    }

    /// Completion is always a contiguous prefix (both halves advance chunk
    /// by chunk), so the pending list is the remaining suffix.
    fn pending_units(&self) -> Vec<usize> {
        (self.ingest.next_chunk..self.ingest.plan.chunks).collect()
    }

    /// One chunk per worker: at most `threads` chunk partials (each up to
    /// a chunk's routed accesses) are alive at once.
    fn units_per_pass(&self, threads: usize) -> usize {
        threads
    }

    fn units(&self) -> ChunkUnits<'a> {
        let reads = ReadPlan::planned(self.source, self.ingest.total);
        ChunkUnits {
            bounds: self.ingest.chunk_bounds(),
            plan: self.ingest.plan,
            source: self.source,
            readers: (!reads.seeks()).then(|| Mutex::new(Vec::new())),
            reads,
        }
    }

    /// Workers decode and fold chunks in parallel over the block-streaming
    /// path — indexed files seek via the SLIX sidecar, and check it — each
    /// chunk streamed exactly once (a [`CountingSink`] rides along and
    /// cross-checks the single-pass counter), while
    /// [`FusedIngestJob::absorb`] keeps both merges sequential and in
    /// chunk order. A chunk that fails its reader's checks returns the
    /// error instead of a partial, so it is never absorbed.
    fn run_unit(units: &ChunkUnits<'a>, unit: usize) -> Result<FusedChunkPartial, String> {
        let (start, end) = units.bounds[unit];
        let mut tap = CountingSink::new();
        let partial = units
            .fold_range(start, end, &mut tap)
            .map_err(|e| e.to_string())?;
        debug_assert_eq!(
            tap.accesses(),
            partial.streamed,
            "the broadcast tap observes every access exactly once"
        );
        Ok(partial)
    }

    fn absorb(&mut self, unit: usize, partial: FusedChunkPartial) {
        debug_assert_eq!(unit, self.ingest.next_chunk, "chunks absorb in order");
        if self.ingest.plan.exact {
            self.ingest.state.absorb(&partial.exact);
        }
        replay(
            &mut self.ingest.estimators,
            &partial.routed,
            self.ingest.threads,
        );
        self.ingest.streamed += partial.streamed;
        self.ingest.next_chunk += 1;
    }

    fn write_json(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        self.ingest.write_json(out)
    }

    fn progress_items(&self) -> Option<(&'static str, u64)> {
        Some(("accesses", self.ingest.streamed))
    }
}

/// Replays each hash shard's routed slice of one chunk through that
/// shard's estimator, in access order. The shards are independent, so they
/// replay in parallel — contiguous groups of shards on up to `threads`
/// workers, the first group on the calling thread — and the result is the
/// same on any thread count.
fn replay(estimators: &mut [ShardsEstimator], routed: &[Vec<u64>], threads: usize) {
    let replay_group = |group: &mut [ShardsEstimator], slices: &[Vec<u64>]| {
        for (est, slice) in group.iter_mut().zip(slices) {
            for &addr in slice {
                est.record_hashed(addr, splitmix64(addr) % SHARDS_MODULUS);
            }
        }
    };
    let per_worker = estimators.len().div_ceil(threads.max(1)).max(1);
    let (first, rest) = estimators.split_at_mut(per_worker.min(estimators.len()));
    let (first_slices, rest_slices) = routed.split_at(first.len());
    std::thread::scope(|scope| {
        for (group, slices) in rest
            .chunks_mut(per_worker)
            .zip(rest_slices.chunks(per_worker))
        {
            scope.spawn(move || replay_group(group, slices));
        }
        replay_group(first, first_slices);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use symloc_cache::reuse::reuse_distances;
    use symloc_trace::generators::{cyclic_trace, sawtooth_trace, zipfian_trace};
    use symloc_trace::stream::GenSpec;
    use symloc_trace::Trace;

    fn engine_over(trace: &Trace) -> OnlineReuseEngine {
        let mut engine = OnlineReuseEngine::new();
        engine.record_all(trace.iter().map(|a| a.value() as u64));
        engine
    }

    fn gen(spec: &str) -> TraceSource {
        TraceSource::Gen(GenSpec::parse(spec).unwrap())
    }

    fn batch_histogram(trace: &Trace) -> StreamHistogram {
        let mut h = StreamHistogram::new();
        for d in reuse_distances(trace) {
            match d {
                Some(d) => h.record_finite(d, 1),
                None => h.record_cold(1),
            }
        }
        h
    }

    /// Runs a job of `plan` over `source` to completion.
    fn job_over(source: &TraceSource, plan: TracePlan, threads: usize) -> FusedIngest {
        let mut job = FusedIngest::planned(source, plan, threads).unwrap();
        job.run_pending(source, None);
        assert!(job.is_complete());
        job
    }

    #[test]
    fn online_engine_matches_batch_olken() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        for trace in [
            Trace::new(),
            sawtooth_trace(7, 3),
            cyclic_trace(5, 4),
            zipfian_trace(40, 600, 0.9, &mut rng),
        ] {
            let engine = engine_over(&trace);
            assert_eq!(*engine.histogram(), batch_histogram(&trace));
            assert_eq!(engine.accesses(), trace.len() as u64);
            assert_eq!(engine.footprint(), trace.distinct_count());
        }
    }

    #[test]
    fn online_engine_distances_match_per_access() {
        let trace = sawtooth_trace(5, 4);
        let batch = reuse_distances(&trace);
        let mut engine = OnlineReuseEngine::new();
        for (addr, expect) in trace.iter().zip(batch) {
            assert_eq!(engine.record(addr.value() as u64), expect);
        }
    }

    #[test]
    fn timeline_capacity_is_bounded_by_footprint_not_length() {
        // 50_000 accesses over 40 addresses: the tree must stay tiny.
        let mut engine = OnlineReuseEngine::new();
        for i in 0..50_000u64 {
            engine.record(i % 40);
        }
        assert_eq!(engine.footprint(), 40);
        assert!(
            engine.timeline_capacity() <= MIN_TIMELINE_CAPACITY.max(2 * 40),
            "capacity {} grew past the footprint bound",
            engine.timeline_capacity()
        );
        assert_eq!(engine.accesses(), 50_000);
        // Every non-cold access of the cyclic pattern has distance 40.
        assert_eq!(engine.histogram().count_at(40), 50_000 - 40);
    }

    #[test]
    fn histogram_queries_and_merge() {
        let mut h = StreamHistogram::new();
        h.record_finite(2, 3);
        h.record_finite(5, 1);
        h.record_cold(2);
        assert_eq!(h.count_at(2), 3);
        assert_eq!(h.finite_count(), 4);
        assert_eq!(h.accesses(), 6);
        assert_eq!(h.hits_up_to(4), 3);
        assert!((h.miss_ratio(4) - 0.5).abs() < 1e-12);
        assert_eq!(h.max_distance(), Some(5));
        let mut other = StreamHistogram::new();
        other.record_finite(2, 1);
        other.record_cold(1);
        h.merge(&other);
        assert_eq!(h.count_at(2), 4);
        assert_eq!(h.cold_count(), 3);
        assert_eq!(StreamHistogram::new().miss_ratio(4), 0.0);
        let points = h.mrc_points(&[1, 4, 100]);
        assert_eq!(points.len(), 3);
        assert!((points[2].miss_ratio - h.miss_ratio(100)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "distance 0")]
    fn histogram_rejects_distance_zero() {
        StreamHistogram::new().record_finite(0, 1);
    }

    #[test]
    fn log_spaced_sizes_cover_the_range() {
        assert!(log_spaced_sizes(0, 8).is_empty());
        assert_eq!(log_spaced_sizes(1, 8), vec![1]);
        let sizes = log_spaced_sizes(100_000, 16);
        assert_eq!(*sizes.first().unwrap(), 1);
        assert_eq!(*sizes.last().unwrap(), 100_000);
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert!(sizes.len() <= 16);
    }

    #[test]
    fn shards_at_full_budget_equals_exact_engine() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        let trace = zipfian_trace(60, 800, 0.8, &mut rng);
        let exact = engine_over(&trace);
        // Budget above the footprint: rate stays 1, every access sampled.
        let mut shards = ShardsEstimator::new(200);
        shards.record_all(trace.iter().map(|a| a.value() as u64));
        assert_eq!(shards.sampling_rate(), 1.0);
        assert_eq!(shards.evictions(), 0);
        assert_eq!(shards.sampled_accesses(), trace.len() as u64);
        for c in [1usize, 2, 5, 10, 30, 60, 100] {
            assert!(
                (shards.histogram().miss_ratio(c) - exact.histogram().miss_ratio(c)).abs() < 1e-9,
                "c={c}"
            );
        }
        assert!((shards.estimated_footprint() - exact.footprint() as f64).abs() < 1e-9);
    }

    /// Asserts that everything `est` holds per address stays `O(s_max)`:
    /// no direct-indexed array, and the interner's table and id list, the
    /// timeline's `slot_of` and its slot capacity each within a small
    /// constant of the budget.
    fn assert_budget_bounds_memory(est: &ShardsEstimator) {
        let held = est.budget() + 1;
        let timeline = &est.timeline;
        let interner = &timeline.interner;
        assert_eq!(interner.small.capacity(), 0, "direct-indexed array");
        assert!(
            interner.table.len() <= 4 * held,
            "table {}",
            interner.table.len()
        );
        assert!(
            interner.addrs.capacity() <= 2 * held,
            "ids {}",
            interner.addrs.capacity()
        );
        assert!(
            timeline.slot_of.capacity() <= 2 * held,
            "slot_of {}",
            timeline.slot_of.capacity()
        );
        assert!(timeline.capacity() <= 2 * held + MIN_TIMELINE_CAPACITY);
    }

    #[test]
    fn shards_budget_binds_memory_and_still_estimates() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(23);
        // 4000 distinct addresses, budget 2048: eviction must kick in.
        let trace = zipfian_trace(4000, 40_000, 0.7, &mut rng);
        let exact = engine_over(&trace);
        let mut shards = ShardsEstimator::new(2048);
        shards.record_all(trace.iter().map(|a| a.value() as u64));
        assert!(shards.sampling_rate() < 1.0);
        assert!(shards.evictions() > 0);
        assert!(shards.tracked_addresses() <= shards.budget());
        assert_budget_bounds_memory(&shards);
        // A million distinct addresses below 2^21, the range an interner
        // with the small-address tier would give a direct-indexed array.
        let mut small = ShardsEstimator::new(64);
        small.record_all(0..1_000_000);
        assert!(small.evictions() > 500, "{}", small.evictions());
        assert_budget_bounds_memory(&small);
        // The estimate stays close to the exact curve. Spatial sampling
        // keeps or drops whole addresses, so on a small, highly skewed
        // synthetic address space the hash luck of the few hot addresses
        // dominates the error; a budget of ~half the footprint keeps the
        // worst pointwise gap within a few percent.
        let mut worst = 0.0f64;
        for c in log_spaced_sizes(exact.footprint(), 12) {
            worst = worst
                .max((shards.histogram().miss_ratio(c) - exact.histogram().miss_ratio(c)).abs());
        }
        assert!(worst < 0.05, "worst MRC error {worst}");
    }

    /// A seeded run of interns and forgets over addresses on both sides of
    /// `SMALL_ADDR_LIMIT`, against a `HashMap` model, with and without the
    /// small-address tier: a live address interns to its id and a dead one
    /// forgets to `None`, two live addresses never share an id, and the
    /// table and id list stay within a constant of the largest live count
    /// (forgotten ids are reused before new ones are handed out).
    #[test]
    fn interner_forgets_like_a_map() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashMap;
        let mut rng = StdRng::seed_from_u64(61);
        let pool: Vec<u64> = (0..3000u64)
            .map(|i| match i % 3 {
                0 => i,
                1 => SMALL_ADDR_LIMIT - 1500 + i,
                _ => rng.gen::<u64>() | SMALL_ADDR_LIMIT,
            })
            .collect();
        for mut interner in [AddrInterner::new(), AddrInterner::without_small_tier()] {
            let mut model: HashMap<u64, u32> = HashMap::new();
            let mut owner: HashMap<u32, u64> = HashMap::new();
            let mut peak = 0usize;
            for step in 0..120_000 {
                // Phases of mostly interning and mostly forgetting move the
                // live count up and down across the whole pool.
                let interning = if (step / 20_000) % 2 == 0 { 0.8 } else { 0.2 };
                let addr = pool[rng.gen_range(0..pool.len())];
                if rng.gen_bool(interning) {
                    let id = interner.intern(addr);
                    if let Some(&known) = model.get(&addr) {
                        assert_eq!(id, known, "step {step}");
                    } else {
                        assert!(owner.insert(id, addr).is_none(), "id {id} collides");
                        model.insert(addr, id);
                    }
                } else {
                    let forgotten = interner.forget(addr);
                    assert_eq!(forgotten, model.remove(&addr), "step {step}");
                    if let Some(id) = forgotten {
                        owner.remove(&id);
                    }
                }
                assert_eq!(interner.len(), model.len());
                peak = peak.max(model.len());
                assert_eq!(interner.id_bound(), peak, "step {step}");
                // The table starts at 64 entries and doubles at half load.
                assert!(interner.table.len() <= (4 * peak).max(64));
            }
            let live = model.len();
            assert!(peak > 2000 && live < 1000, "peak {peak}, live {live}");
            for &addr in &pool {
                match model.get(&addr) {
                    Some(&id) => {
                        assert_eq!(interner.address(id), addr);
                        assert_eq!(interner.intern(addr), id);
                    }
                    None => assert_eq!(interner.forget(addr), None),
                }
            }
            assert_eq!(interner.len(), live);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn shards_rejects_zero_budget() {
        let _ = ShardsEstimator::new(0);
    }

    #[test]
    fn fixed_threshold_starts_below_full_rate() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(29);
        let trace = zipfian_trace(500, 6000, 0.7, &mut rng);
        let threshold = SHARDS_MODULUS / 4;
        let mut est = ShardsEstimator::with_threshold(4096, threshold);
        assert!((est.sampling_rate() - 0.25).abs() < 1e-12);
        est.record_all(trace.iter().map(|a| a.value() as u64));
        // Budget way above the sampled set: the threshold never moved.
        assert_eq!(est.threshold(), threshold);
        assert_eq!(est.evictions(), 0);
        // Roughly a quarter of the accesses were sampled, and the weighted
        // total estimates the true access count.
        assert!(est.sampled_accesses() < est.raw_accesses() / 2);
        let total = est.histogram().total_weight();
        let true_len = trace.len() as f64;
        assert!(
            (total - true_len).abs() / true_len < 0.25,
            "estimated {total} accesses vs {}",
            trace.len()
        );
    }

    #[test]
    fn single_hash_shard_is_the_sequential_estimator() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(37);
        let trace = zipfian_trace(3000, 30_000, 0.8, &mut rng);
        let mut sequential = ShardsEstimator::new(1024);
        sequential.record_all(trace.iter().map(|a| a.value() as u64));
        let source = TraceSource::Memory(trace);
        let mut reference = SampledIngest::new(&source, 1, 1024, 3).unwrap();
        assert_eq!(reference.run_pending(&source, None), 1);
        // The sampled-only job at one hash shard is the same estimator.
        let job = job_over(&source, TracePlan::sampled(5, 1, 1024), 3);
        for merged in [reference.merged().unwrap(), job.sampled_summary().unwrap()] {
            assert_eq!(merged.histogram, *sequential.histogram());
            assert_eq!(merged.raw_accesses, sequential.raw_accesses());
            assert_eq!(merged.sampled_accesses, sequential.sampled_accesses());
            assert_eq!(merged.evictions, sequential.evictions());
            assert!((merged.min_rate - sequential.sampling_rate()).abs() < 1e-15);
        }
    }

    #[test]
    fn sampled_ingest_is_thread_invariant_and_deterministic() {
        let source = gen("gen:zipf:400:8000:0.9:5");
        let plan = TracePlan::sampled(4, 5, 64);
        let expected = job_over(&source, plan, 1).to_json();
        for threads in [2, 3, 8] {
            let job = job_over(&source, plan, threads);
            assert_eq!(job.to_json(), expected, "threads={threads}");
        }
        // The sampled-only job is the direct reference, shard for shard,
        // whatever the reference's own thread count.
        let job = job_over(&source, plan, 2);
        for threads in [1, 3] {
            let mut reference = SampledIngest::new(&source, 5, 64, threads).unwrap();
            reference.run_pending(&source, None);
            assert_eq!(job.sampled_shard_results(), reference.shard_results());
            assert_eq!(job.sampled_summary(), reference.merged());
        }
        // Each access lands in exactly one shard, and the exact half is off.
        assert_eq!(job.sampled_summary().unwrap().raw_accesses, 8000);
        assert!(job.exact_histogram().is_none());
        assert_eq!(job.streamed_accesses(), 8000);
    }

    #[test]
    fn sampled_ingest_resumes_to_byte_identical_checkpoint() {
        let source = gen("gen:zipf:300:5000:0.8:11");
        let plan = TracePlan::sampled(6, 3, 16);
        let reference = job_over(&source, plan, 2);
        let reference_json = reference.to_json();

        let mut interrupted = FusedIngest::planned(&source, plan, 2).unwrap();
        assert_eq!(interrupted.run_pending(&source, Some(3)), 3);
        assert!(interrupted.sampled_summary().is_none());
        let checkpoint = interrupted.to_json();
        assert!(checkpoint.contains("\"exact\": false"), "{checkpoint}");
        drop(interrupted);

        let mut resumed = FusedIngest::from_json(&checkpoint, 4).unwrap();
        assert_eq!(resumed.completed_count(), 3);
        assert_eq!(resumed.to_json(), checkpoint);
        assert_eq!(resumed.run_pending(&source, None), 3);
        assert_eq!(resumed.to_json(), reference_json, "resume must be exact");
        assert_eq!(resumed.sampled_summary(), reference.sampled_summary());
    }

    #[test]
    fn sampled_ingest_checkpoint_files_and_resume_or_new() {
        let path = std::env::temp_dir().join(format!(
            "symloc_tracesweep_sampled_checkpoint_{}.json",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let source = gen("gen:zipf:200:3000:0.7:13");
        let plan = TracePlan::sampled(4, 2, 32);

        let (mut job, resumed) = FusedIngest::resume_or_new(&source, plan, 2, &path).unwrap();
        assert!(!resumed);
        let mut progress = Vec::new();
        job.run_with_checkpoint(&source, &path, Some(2), |done, total| {
            progress.push((done, total));
        })
        .unwrap();
        assert_eq!(progress, vec![(2, 4)]);
        assert!(!job.is_complete());

        let (mut resumed_job, resumed) =
            FusedIngest::resume_or_new(&source, plan, 2, &path).unwrap();
        assert!(resumed);
        assert_eq!(resumed_job.completed_count(), 2);
        resumed_job
            .run_with_checkpoint(&source, &path, None, |_, _| {})
            .unwrap();
        assert!(resumed_job.is_complete());

        // A different sampled plan — or the same one with the exact half
        // switched on — ignores the stale checkpoint.
        for other in [
            TracePlan::sampled(4, 3, 32),
            TracePlan::sampled(4, 2, 16),
            TracePlan::both(4, 2, 32),
        ] {
            let (fresh, resumed) = FusedIngest::resume_or_new(&source, other, 2, &path).unwrap();
            assert!(!resumed, "{other:?}");
            assert_eq!(fresh.completed_count(), 0);
        }

        // Complete job: nothing pending, checkpoint still rewritten.
        let (mut done, _) = FusedIngest::resume_or_new(&source, plan, 2, &path).unwrap();
        assert!(done.is_complete());
        assert_eq!(
            done.run_with_checkpoint(&source, &path, None, |_, _| {})
                .unwrap(),
            0
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sampled_ingest_rejects_corrupted_checkpoints() {
        let source = gen("gen:cyclic:16:8");
        let mut job = FusedIngest::planned(&source, TracePlan::sampled(4, 2, 8), 1).unwrap();
        job.run_pending(&source, Some(1));
        let good = job.to_json();
        assert!(FusedIngest::from_json(&good, 1).is_ok());
        for mangled in [
            good.replace("\"exact\": false", "\"exact\": true"),
            good.replace("\"exact\": false", "\"exact\": 0"),
            // Dropping the flag switches the exact half back on, and its
            // state is missing.
            good.replace("  \"exact\": false,\n", ""),
            good.replace("\"budget_per_shard\": 8", "\"budget_per_shard\": 0"),
            good.replace("\"shard_count\": 2", "\"shard_count\": 0"),
            good.replace("\"next_chunk\": 1", "\"next_chunk\": 9"),
        ] {
            assert!(FusedIngest::from_json(&mangled, 1).is_err(), "{mangled}");
        }
        for (mangled, why) in counts_no_run_produces(&job, &good) {
            let err = FusedIngest::from_json(&mangled, 1).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }

    /// Mangled copies of `good`, the checkpoint of `job`, whose counts no
    /// run produces, each with the words of the error that must reject
    /// it: `streamed` off the chunk plan, and with the sampled half on, a
    /// shard's raw count off the sum and a sampled count above a raw one.
    fn counts_no_run_produces(job: &FusedIngest, good: &str) -> Vec<(String, &'static str)> {
        let streamed = job.streamed_accesses();
        let mut out = vec![(
            good.replace(
                &format!("\"streamed\": {streamed},"),
                &format!("\"streamed\": {},", streamed + 1),
            ),
            "differs from the",
        )];
        if let Some(shard) = job.sampled_shard_results().first() {
            let (raw, sampled) = (shard.raw_accesses, shard.sampled_accesses);
            let counts = format!("\"raw\": {raw}, \"sampled\": {sampled},");
            out.push((
                good.replacen(
                    &counts,
                    &format!("\"raw\": {}, \"sampled\": {sampled},", raw + 1),
                    1,
                ),
                "raw counts add up to",
            ));
            out.push((
                good.replacen(
                    &counts,
                    &format!("\"raw\": {raw}, \"sampled\": {},", raw + 1),
                    1,
                ),
                "exceeds its raw count",
            ));
        }
        for (mangled, _) in &out {
            assert_ne!(mangled, good);
        }
        out
    }

    #[test]
    fn merged_sampled_estimate_tracks_the_exact_curve() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(43);
        let trace = zipfian_trace(4000, 40_000, 0.7, &mut rng);
        let exact = engine_over(&trace);
        let source = TraceSource::Memory(trace);
        // 4 shards × 512 budget = the same total budget as the sequential
        // accuracy test above; the merged estimate must stay comparably
        // close to the exact curve.
        let merged = job_over(&source, TracePlan::sampled(8, 4, 512), 2)
            .sampled_summary()
            .unwrap();
        assert!(merged.min_rate < 1.0);
        let mut worst = 0.0f64;
        for c in log_spaced_sizes(exact.footprint(), 12) {
            worst =
                worst.max((merged.histogram.miss_ratio(c) - exact.histogram().miss_ratio(c)).abs());
        }
        assert!(worst < 0.08, "worst MRC error {worst}");
        // Absolute (not just ratio) quantities are unbiased too: the merged
        // total weight estimates the access count and the cold weight the
        // footprint — shard estimates sum, they do not multiply
        // (regression test: weights scale by the within-slice rate).
        let total = merged.histogram.total_weight();
        assert!(
            (total - 40_000.0).abs() / 40_000.0 < 0.2,
            "estimated {total} accesses"
        );
        let footprint = merged.estimated_footprint();
        assert!(
            (footprint - 4000.0).abs() / 4000.0 < 0.2,
            "estimated footprint {footprint}"
        );
    }

    #[test]
    fn chunked_merge_equals_sequential_for_any_chunking() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        for trace in [
            sawtooth_trace(9, 4),
            cyclic_trace(6, 5),
            zipfian_trace(50, 700, 1.0, &mut rng),
        ] {
            let expected = batch_histogram(&trace);
            let addrs: Vec<u64> = trace.iter().map(|a| a.value() as u64).collect();
            for chunks in [1usize, 2, 3, 7, 16] {
                let mut state = MergeState::new();
                for span in split_indices(addrs.len(), chunks) {
                    let partial = chunk_partial(addrs[span.start..span.end].iter().copied());
                    state.absorb(&partial);
                }
                assert_eq!(*state.histogram(), expected, "chunks={chunks}");
                assert_eq!(state.footprint(), trace.distinct_count());
            }
        }
    }

    #[test]
    fn ingest_is_thread_and_chunk_invariant() {
        let source = gen("gen:zipf:80:2000:0.9:7");
        let expected = engine_over(
            &GenSpec::parse("gen:zipf:80:2000:0.9:7")
                .unwrap()
                .materialize(),
        )
        .into_histogram();
        for (chunks, threads) in [(1, 1), (4, 1), (4, 3), (9, 2), (16, 8)] {
            let job = job_over(&source, TracePlan::exact(chunks), threads);
            assert_eq!(
                job.exact_histogram().unwrap(),
                &expected,
                "chunks={chunks} threads={threads}"
            );
            assert!(job.sampled_summary().is_none());
        }
    }

    #[test]
    fn sources_that_do_not_seek_share_readers_to_identical_results() {
        let spec = "gen:zipf:150:2500:0.9:13";
        let source = gen(spec);
        let memory = TraceSource::Memory(GenSpec::parse(spec).unwrap().materialize());
        let seeks = |source: &TraceSource| ReadPlan::whole(source).unwrap().seeks();
        assert!(!seeks(&source) && seeks(&memory));
        for plan in [
            TracePlan::exact(7),
            TracePlan::sampled(7, 3, 16),
            TracePlan::both(7, 2, 24),
        ] {
            let expected = job_over(&memory, plan, 1);
            for threads in [1, 2, 4] {
                let job = job_over(&source, plan, threads);
                let at = format!("{plan:?} threads={threads}");
                assert_eq!(job.exact_histogram(), expected.exact_histogram(), "{at}");
                assert_eq!(job.sampled_summary(), expected.sampled_summary(), "{at}");
                assert_eq!(job.streamed_accesses(), 2500, "{at}");
            }
        }
    }

    #[test]
    fn interrupted_ingest_resumes_to_byte_identical_checkpoint() {
        let source = gen("gen:zipf:60:1500:0.8:9");
        let plan = TracePlan::exact(6);
        let reference = job_over(&source, plan, 2);
        let reference_json = reference.to_json();

        // Run part of the job, "die", serialize, resume, finish.
        let mut interrupted = FusedIngest::planned(&source, plan, 2).unwrap();
        assert_eq!(interrupted.run_pending(&source, Some(3)), 3);
        assert!(!interrupted.is_complete());
        assert!(interrupted.exact_histogram().is_none());
        let checkpoint = interrupted.to_json();
        assert!(checkpoint.contains("\"shard_count\": 0"), "{checkpoint}");
        drop(interrupted);

        let mut resumed = FusedIngest::from_json(&checkpoint, 4).unwrap();
        assert_eq!(resumed.completed_count(), 3);
        assert_eq!(resumed.run_pending(&source, None), 3);
        assert_eq!(resumed.to_json(), reference_json, "resume must be exact");
        assert_eq!(resumed.exact_histogram(), reference.exact_histogram());
    }

    #[test]
    fn ingest_checkpoint_files_and_resume_or_new() {
        let path = std::env::temp_dir().join(format!(
            "symloc_tracesweep_ingest_checkpoint_{}.json",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let source = gen("gen:sawtooth:30:40");
        let plan = TracePlan::exact(5);

        let (mut job, resumed) = FusedIngest::resume_or_new(&source, plan, 2, &path).unwrap();
        assert!(!resumed);
        let mut progress = Vec::new();
        job.run_with_checkpoint(&source, &path, Some(2), |done, total| {
            progress.push((done, total))
        })
        .unwrap();
        assert_eq!(progress, vec![(2, 5)]);
        assert!(!job.is_complete());

        // Resume from disk and finish.
        let (mut resumed_job, resumed) =
            FusedIngest::resume_or_new(&source, plan, 2, &path).unwrap();
        assert!(resumed);
        assert_eq!(resumed_job.completed_count(), 2);
        resumed_job
            .run_with_checkpoint(&source, &path, None, |_, _| {})
            .unwrap();
        assert!(resumed_job.is_complete());

        // A different source ignores the stale checkpoint.
        let other = gen("gen:cyclic:30:40");
        let (fresh, resumed) = FusedIngest::resume_or_new(&other, plan, 2, &path).unwrap();
        assert!(!resumed);
        assert_eq!(fresh.completed_count(), 0);

        // Complete job: nothing pending, checkpoint still rewritten.
        let (mut done, _) = FusedIngest::resume_or_new(&source, plan, 2, &path).unwrap();
        assert!(done.is_complete());
        assert_eq!(
            done.run_with_checkpoint(&source, &path, None, |_, _| {})
                .unwrap(),
            0
        );
        // And matches the sequential engine.
        let expected = engine_over(&sawtooth_trace(30, 40));
        assert_eq!(done.exact_histogram().unwrap(), expected.histogram());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_file_that_changed_length() {
        // File fingerprints are path-based, so a checkpoint must also be
        // tied to the access count: replacing the trace file between runs
        // restarts the job instead of silently resuming against the wrong
        // data (regression test).
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let trace_path = dir.join(format!("symloc_tracesweep_swap_test_{pid}.trace"));
        let ckpt_path = dir.join(format!("symloc_tracesweep_swap_test_{pid}.ckpt.json"));
        std::fs::remove_file(&ckpt_path).ok();
        std::fs::write(&trace_path, "0\n1\n2\n0\n1\n2\n0\n1\n").unwrap();
        let source = TraceSource::Text(trace_path.clone());
        let plan = TracePlan::exact(4);

        let (mut job, _) = FusedIngest::resume_or_new(&source, plan, 1, &ckpt_path).unwrap();
        job.run_with_checkpoint(&source, &ckpt_path, Some(2), |_, _| {})
            .unwrap();
        assert!(!job.is_complete());

        // Same path, different (shorter) content: fresh plan, not a resume.
        std::fs::write(&trace_path, "7\n7\n").unwrap();
        let (fresh, resumed) = FusedIngest::resume_or_new(&source, plan, 1, &ckpt_path).unwrap();
        assert!(!resumed);
        assert_eq!(fresh.completed_count(), 0);
        assert_eq!(fresh.total_accesses(), 2);
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&ckpt_path).ok();
    }

    #[test]
    fn ingest_rejects_corrupted_checkpoints() {
        let source = gen("gen:cyclic:8:4");
        let mut job = FusedIngest::planned(&source, TracePlan::exact(2), 1).unwrap();
        job.run_pending(&source, Some(1));
        let good = job.to_json();
        assert!(FusedIngest::from_json(&good, 1).is_ok());
        for mangled in [
            "{}".to_string(),
            "not json".to_string(),
            good.replace(JobKind::FusedIngest.kind_str(), "other"),
            good.replace("\"version\": 1", "\"version\": 9"),
            good.replace("\"next_chunk\": 1", "\"next_chunk\": 99"),
            good.replace("\"chunk_count\": 2", "\"chunk_count\": 0"),
            // More chunks than accesses is not a plan any job writes.
            good.replace("\"chunk_count\": 2", "\"chunk_count\": 99"),
            // An exact-only job has no shard budget, and switching the
            // exact half off leaves a job with no half at all.
            good.replace("\"budget_per_shard\": 0", "\"budget_per_shard\": 4"),
            good.replace("  \"cold\"", "  \"exact\": false,\n  \"cold\""),
        ] {
            assert!(FusedIngest::from_json(&mangled, 1).is_err(), "{mangled}");
        }
        let mut rows = counts_no_run_produces(&job, &good);
        // 16 accesses absorbed: 8 cold and 8 at distance 8.
        assert!(good.contains("\"histogram\": [[8, 8]]"), "{good}");
        rows.push((
            good.replace("[[8, 8]]", "[[8, 9]]"),
            "cold plus histogram counts add up to 17 accesses, not the 16 streamed",
        ));
        for (mangled, why) in rows {
            let err = FusedIngest::from_json(&mangled, 1).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn restore_rejects_distances_above_the_cold_count() {
        // No reuse distance exceeds the footprint, which the cold count
        // is, so a larger one is hostile — and must fail before the dense
        // histogram grows to hold it (10^12 distances would be 8 TB).
        let source = gen("gen:cyclic:8:4");
        let mut job = FusedIngest::planned(&source, TracePlan::exact(2), 1).unwrap();
        job.run_pending(&source, Some(1));
        let good = job.to_json();
        assert!(good.contains("\"histogram\": [[8, 8]]"), "{good}");
        for (bins, distance) in [
            ("[[9, 8]]", 9u64),
            ("[[7, 7], [1000000000000, 1]]", 1_000_000_000_000),
        ] {
            let hostile = good.replace("[[8, 8]]", bins);
            let err = FusedIngest::from_json(&hostile, 1).unwrap_err();
            assert!(
                err.contains(&format!(
                    "histogram distance {distance} exceeds the cold count 8"
                )),
                "{err}"
            );
        }
        // A hostile cold count is caught by the timeline length first.
        let err =
            FusedIngest::from_json(&good.replace("\"cold\": 8", "\"cold\": 1000000000000"), 1)
                .unwrap_err();
        assert!(
            err.contains("differs from the 8 timeline addresses"),
            "{err}"
        );
    }

    #[test]
    fn merge_state_repacks_between_one_access_absorbs() {
        // One-access chunks over a cyclic trace: every absorb kills one
        // slot and appends one. 400 appends into at most 64 slots means
        // the slots filled and were repacked again and again — and the
        // result is still the sequential engine's.
        let trace = cyclic_trace(10, 40);
        let expected = engine_over(&trace);
        let mut state = MergeState::new();
        for a in trace.iter() {
            state.absorb(&chunk_partial([a.value() as u64]));
        }
        assert!(state.dead.len() <= MIN_TIMELINE_CAPACITY.max(2 * 10));
        assert!(state.slots.len() <= state.dead.len());
        assert_eq!(state.histogram(), expected.histogram());
        assert_eq!(state.footprint(), 10);
    }

    #[test]
    #[should_panic(expected = "different trace source")]
    fn ingest_refuses_a_mismatched_source() {
        let source = gen("gen:cyclic:8:4");
        let other = gen("gen:cyclic:8:5");
        let mut job = FusedIngest::planned(&source, TracePlan::exact(2), 1).unwrap();
        job.run_pending(&other, None);
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn ingest_rejects_zero_chunks() {
        let _ = FusedIngest::planned(&gen("gen:cyclic:4:2"), TracePlan::exact(0), 1);
    }

    #[test]
    fn ingest_reports_source_errors() {
        let source = TraceSource::Text(std::path::PathBuf::from("/no/such/trace.txt"));
        assert!(FusedIngest::planned(&source, TracePlan::exact(2), 1).is_err());
        assert!(SampledIngest::new(&source, 2, 8, 1).is_err());
    }

    #[test]
    fn empty_trace_ingests_cleanly() {
        let source = TraceSource::Memory(Trace::new());
        let job = job_over(&source, TracePlan::exact(3), 2);
        assert_eq!(job.exact_histogram().unwrap().accesses(), 0);
        assert_eq!(job.footprint(), 0);
        assert_eq!(job.chunk_count(), 1);
        let job = job_over(&source, TracePlan::sampled(3, 2, 8), 2);
        assert_eq!(job.sampled_summary().unwrap().raw_accesses, 0);
    }

    #[test]
    fn fused_chunk_partial_broadcasts_each_access_exactly_once() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(51);
        let trace = zipfian_trace(100, 1500, 0.8, &mut rng);
        let addrs: Vec<u64> = trace.iter().map(|a| a.value() as u64).collect();
        let source = TraceSource::Memory(trace);
        let mut blocks = source.stream_blocks_range(0, addrs.len() as u64).unwrap();
        let mut tap = CountingSink::new();
        let partial = fused_chunk_partial(blocks.as_mut(), 3, &mut tap);
        // The counting tap proves the single pass: exactly one observation
        // per access, and the fold agrees.
        assert_eq!(tap.accesses(), addrs.len() as u64);
        assert_eq!(partial.streamed, addrs.len() as u64);
        // The exact side is exactly what the plain chunk fold produces.
        assert_eq!(partial.exact, chunk_partial(addrs.iter().copied()));
        // Every access routes to exactly one shard — the right one — and
        // each shard's slice preserves access order.
        assert_eq!(
            partial.routed.iter().map(Vec::len).sum::<usize>(),
            addrs.len()
        );
        let mut replayed: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for &addr in &addrs {
            replayed[(splitmix64(addr) % SHARDS_MODULUS % 3) as usize].push(addr);
        }
        assert_eq!(partial.routed, replayed);
        // A half that is off leaves its side of the partial empty.
        let mut blocks = source.stream_blocks_range(0, addrs.len() as u64).unwrap();
        let routed_only = fold_chunk(blocks.as_mut(), false, 3, &mut CountingSink::new()).unwrap();
        assert_eq!(routed_only.exact, ChunkPartial::default());
        assert_eq!(routed_only.routed, replayed);
        let mut blocks = source.stream_blocks_range(0, addrs.len() as u64).unwrap();
        let exact_only = fold_chunk(blocks.as_mut(), true, 0, &mut CountingSink::new()).unwrap();
        assert_eq!(exact_only.exact, partial.exact);
        assert!(exact_only.routed.is_empty());
    }

    #[test]
    fn fused_ingest_equals_exact_and_sampled_pipelines() {
        // The headline invariant: one pass with both halves produces an
        // exact histogram byte-identical to the sequential engine (and to
        // the exact-only job) and sampled results bit-identical to the
        // direct reference (and to the sampled-only job) at the same
        // shard count.
        let source = gen("gen:zipf:300:5000:0.8:21");
        let engine = engine_over(
            &GenSpec::parse("gen:zipf:300:5000:0.8:21")
                .unwrap()
                .materialize(),
        );
        let exact = job_over(&source, TracePlan::exact(6), 2);
        let sampled = job_over(&source, TracePlan::sampled(6, 3, 16), 2);
        let mut reference = SampledIngest::new(&source, 3, 16, 2).unwrap();
        reference.run_pending(&source, None);

        let mut fused = FusedIngest::new(&source, 6, 3, 16, 2).unwrap();
        fused.run_pending(&source, None);
        assert!(fused.is_complete());
        assert_eq!(fused.exact_histogram().unwrap(), engine.histogram());
        assert_eq!(fused.exact_histogram(), exact.exact_histogram());
        assert_eq!(fused.footprint(), exact.footprint());
        assert_eq!(fused.sampled_shard_results(), reference.shard_results());
        assert_eq!(fused.sampled_summary(), reference.merged());
        assert_eq!(fused.sampled_summary(), sampled.sampled_summary());
        // …and the single-pass counter covers the whole trace exactly once.
        assert_eq!(fused.streamed_accesses(), fused.total_accesses());
    }

    #[test]
    fn fused_ingest_is_thread_and_chunk_invariant() {
        let source = gen("gen:zipf:200:3000:0.9:31");
        let mut reference = FusedIngest::new(&source, 5, 2, 24, 1).unwrap();
        reference.run_pending(&source, None);
        let expected = reference.to_json();
        for threads in [2, 3, 8] {
            let mut fused = FusedIngest::new(&source, 5, 2, 24, threads).unwrap();
            fused.run_pending(&source, None);
            assert_eq!(fused.to_json(), expected, "threads={threads}");
        }
        // A different chunking changes the plan but not either result.
        for chunks in [1usize, 3, 11] {
            let mut fused = FusedIngest::new(&source, chunks, 2, 24, 2).unwrap();
            fused.run_pending(&source, None);
            assert_eq!(
                fused.exact_histogram().unwrap(),
                reference.exact_histogram().unwrap(),
                "chunks={chunks}"
            );
            assert_eq!(
                fused.sampled_summary(),
                reference.sampled_summary(),
                "chunks={chunks}"
            );
        }
    }

    #[test]
    fn interrupted_fused_ingest_resumes_to_byte_identical_checkpoint() {
        // Small budgets over a large footprint so thresholds have dropped
        // and shards carry non-trivial tracked sets at the kill point.
        let source = gen("gen:zipf:300:5000:0.8:41");
        let mut reference = FusedIngest::new(&source, 6, 3, 16, 2).unwrap();
        reference.run_pending(&source, None);
        let reference_json = reference.to_json();

        let mut interrupted = FusedIngest::new(&source, 6, 3, 16, 2).unwrap();
        assert_eq!(interrupted.run_pending(&source, Some(3)), 3);
        assert!(!interrupted.is_complete());
        assert!(interrupted.exact_histogram().is_none());
        assert!(interrupted.sampled_summary().is_none());
        let checkpoint = interrupted.to_json();
        assert!(!checkpoint.contains("\"exact\""), "{checkpoint}");
        drop(interrupted);

        let mut resumed = FusedIngest::from_json(&checkpoint, 4).unwrap();
        assert_eq!(resumed.completed_count(), 3);
        // Restoring is lossless: re-serializing the restored state gives
        // the same bytes back.
        assert_eq!(resumed.to_json(), checkpoint);
        assert_eq!(resumed.run_pending(&source, None), 3);
        assert_eq!(resumed.to_json(), reference_json, "resume must be exact");
        assert_eq!(resumed.sampled_summary(), reference.sampled_summary());
    }

    /// An in-progress both-halves checkpoint as the three-job code wrote
    /// it (1 of 3 chunks of `gen:zipf:40:300:0.8:7`, 3 hash shards of
    /// budget 5). The both-halves document layout is unchanged, so it
    /// must keep resuming to the uninterrupted run.
    const EARLIER_FUSED_CHECKPOINT: &str =
        include_str!("../tests/data/fused_checkpoint_1_of_3.json");

    #[test]
    fn earlier_fused_checkpoints_resume_byte_identically() {
        let source = gen("gen:zipf:40:300:0.8:7");
        let mut resumed = FusedIngest::from_json(EARLIER_FUSED_CHECKPOINT, 2).unwrap();
        assert_eq!(resumed.to_json(), EARLIER_FUSED_CHECKPOINT);
        assert_eq!(resumed.completed_count(), 1);
        resumed.run_pending(&source, None);
        let uninterrupted = job_over(&source, TracePlan::both(3, 3, 5), 1);
        assert_eq!(resumed.to_json(), uninterrupted.to_json());
    }

    #[test]
    fn fused_ingest_checkpoint_files_and_resume_or_new() {
        let path = std::env::temp_dir().join(format!(
            "symloc_tracesweep_fused_checkpoint_{}.json",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let source = gen("gen:zipf:100:2000:0.7:51");
        let plan = TracePlan::both(5, 2, 16);

        let (mut fused, resumed) = FusedIngest::resume_or_new(&source, plan, 2, &path).unwrap();
        assert!(!resumed);
        let mut progress = Vec::new();
        fused
            .run_with_checkpoint(&source, &path, Some(2), |done, total| {
                progress.push((done, total));
            })
            .unwrap();
        assert_eq!(progress, vec![(2, 5)]);
        assert!(!fused.is_complete());

        let (mut resumed_fused, resumed) =
            FusedIngest::resume_or_new(&source, plan, 2, &path).unwrap();
        assert!(resumed);
        assert_eq!(resumed_fused.completed_count(), 2);
        resumed_fused
            .run_with_checkpoint(&source, &path, None, |_, _| {})
            .unwrap();
        assert!(resumed_fused.is_complete());

        // A different sampled plan ignores the stale checkpoint even though
        // the exact plan still matches, and so does a different mode.
        for other in [
            TracePlan::both(5, 4, 16),
            TracePlan::both(5, 2, 8),
            TracePlan::exact(5),
            TracePlan::sampled(5, 2, 16),
        ] {
            let (fresh, resumed) = FusedIngest::resume_or_new(&source, other, 2, &path).unwrap();
            assert!(!resumed, "{other:?}");
            assert_eq!(fresh.completed_count(), 0);
        }

        // Complete job: nothing pending, checkpoint still rewritten.
        let (mut done, _) = FusedIngest::resume_or_new(&source, plan, 2, &path).unwrap();
        assert!(done.is_complete());
        assert_eq!(
            done.run_with_checkpoint(&source, &path, None, |_, _| {})
                .unwrap(),
            0
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fused_ingest_rejects_corrupted_checkpoints() {
        let source = gen("gen:zipf:50:600:0.9:61");
        let mut fused = FusedIngest::new(&source, 3, 2, 8, 1).unwrap();
        fused.run_pending(&source, Some(1));
        let good = fused.to_json();
        assert!(FusedIngest::from_json(&good, 1).is_ok());
        let timeline_start = good.find("\"timeline\": [").unwrap() + "\"timeline\": [".len();
        let first_addr: String = good[timeline_start..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        let cold = fused.state.histogram().cold_count();
        for mangled in [
            "{}".to_string(),
            "not json".to_string(),
            good.replace(JobKind::FusedIngest.kind_str(), "other"),
            good.replace("\"version\": 1", "\"version\": 9"),
            good.replace("\"next_chunk\": 1", "\"next_chunk\": 99"),
            good.replace("\"shard_count\": 2", "\"shard_count\": 5"),
            good.replace("\"budget_per_shard\": 8", "\"budget_per_shard\": 0"),
            // Mangled tracked lists are rejected: a duplicated address, and
            // an address that does not belong to its shard's residue class.
            good.replace("\"tracked\": [", "\"tracked\": [1, 1, "),
            // A duplicated timeline address, and a cold count that differs
            // from the timeline length, would resume to a wrong curve.
            good.replace("\"timeline\": [", &format!("\"timeline\": [{first_addr}, ")),
            good.replace(
                &format!("\"cold\": {cold},"),
                &format!("\"cold\": {},", cold + 1),
            ),
        ] {
            assert!(FusedIngest::from_json(&mangled, 1).is_err(), "{mangled}");
        }
        let mut rows = counts_no_run_produces(&fused, &good);
        let (d, count) = fused.state.histogram().iter().next().unwrap();
        rows.push((
            good.replacen(
                &format!("[{d}, {count}]"),
                &format!("[{d}, {}]", count + 5000),
                1,
            ),
            "cold plus histogram counts add up to",
        ));
        for (mangled, why) in rows {
            let err = FusedIngest::from_json(&mangled, 1).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "different trace source")]
    fn fused_ingest_refuses_a_mismatched_source() {
        let source = gen("gen:cyclic:8:4");
        let other = gen("gen:cyclic:8:5");
        let mut fused = FusedIngest::new(&source, 2, 2, 8, 1).unwrap();
        fused.run_pending(&other, None);
    }

    #[test]
    fn empty_trace_fuses_cleanly() {
        let source = TraceSource::Memory(Trace::new());
        let mut fused = FusedIngest::new(&source, 3, 2, 8, 2).unwrap();
        fused.run_pending(&source, None);
        assert!(fused.is_complete());
        assert_eq!(fused.streamed_accesses(), 0);
        assert_eq!(fused.exact_histogram().unwrap().accesses(), 0);
        assert_eq!(fused.footprint(), 0);
        let summary = fused.sampled_summary().unwrap();
        assert_eq!(summary.raw_accesses, 0);
        // The threshold never moved, so the per-shard rate is
        // 1/shard_count.
        assert!((summary.min_rate - 0.5).abs() < 1e-15);
    }
}
