//! Fenwick trees (binary indexed trees): prefix sums with point updates.
//!
//! * [`Fenwick`] — a tree over `u64` counts, one node per index. Used for
//!   `O(log m)` prefix sums when counting inversions
//!   ([`crate::inversions::inversions_fenwick`]) and by the sampled
//!   reuse-distance timeline, whose few thousand slots fit in cache.
//! * [`SlotCounter`] — a counter of *marked slots* for timelines too large
//!   for a `u64` node per slot: one bit per slot in cache-line blocks of 512
//!   slots, plus a `u32` Fenwick tree over the blocks. For 1.6 M slots that
//!   is 200 KB of bits and a 13 KB tree in place of a 13 MB `u64` tree, so
//!   a query is a short walk over a cache-resident tree plus at most eight
//!   popcounts inside one cache line. The exact reuse-distance timelines
//!   keep their live (or dead) markers there.

/// A Fenwick tree (binary indexed tree) storing `u64` counts for indices
/// `0..len`.
///
/// Supports point updates and prefix-sum queries in `O(log len)`.
///
/// # Examples
///
/// ```
/// use symloc_perm::fenwick::Fenwick;
///
/// let mut f = Fenwick::new(8);
/// f.add(3, 2);
/// f.add(5, 1);
/// assert_eq!(f.prefix_sum(3), 0);   // sum of indices 0..3
/// assert_eq!(f.prefix_sum(4), 2);   // sum of indices 0..4
/// assert_eq!(f.total(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fenwick {
    /// 1-based internal tree array; `tree[0]` is unused.
    tree: Vec<u64>,
    /// Number of addressable indices.
    len: usize,
}

impl Fenwick {
    /// Creates a tree for indices `0..len`, all counts zero.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Fenwick {
            tree: vec![0; len + 1],
            len,
        }
    }

    /// Number of addressable indices.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true if the tree addresses no indices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `delta` to the count at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn add(&mut self, index: usize, delta: u64) {
        assert!(
            index < self.len,
            "Fenwick::add index {index} out of range {}",
            self.len
        );
        let mut i = index + 1;
        while i <= self.len {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Subtracts `delta` from the count at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len` or if the subtraction would make any internal
    /// node negative (i.e. more is removed at `index` than was ever added).
    #[inline]
    pub fn sub(&mut self, index: usize, delta: u64) {
        assert!(
            index < self.len,
            "Fenwick::sub index {index} out of range {}",
            self.len
        );
        let mut i = index + 1;
        while i <= self.len {
            self.tree[i] = self.tree[i]
                .checked_sub(delta)
                .expect("Fenwick::sub would underflow: removing more than was added");
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of counts for indices `0..end` (exclusive upper bound).
    ///
    /// `end` may equal `len`; values greater than `len` are clamped.
    #[must_use]
    #[inline]
    pub fn prefix_sum(&self, end: usize) -> u64 {
        let mut i = end.min(self.len);
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Sum of counts in the half-open range `start..end`.
    ///
    /// Walks the two bounds together and stops at their shared tree prefix,
    /// so a narrow range near the top of the tree costs a few node reads
    /// instead of two full root-to-leaf descents — the dominant query shape
    /// of the reuse-distance hot loop (`range_sum(prev + 1, next_slot)`).
    #[must_use]
    #[inline]
    pub fn range_sum(&self, start: usize, end: usize) -> u64 {
        if end <= start {
            return 0;
        }
        let mut hi = end.min(self.len);
        let mut lo = start.min(self.len);
        let mut sum = 0;
        while hi > lo {
            sum += self.tree[hi];
            hi -= hi & hi.wrapping_neg();
        }
        while lo > hi {
            sum -= self.tree[lo];
            lo -= lo & lo.wrapping_neg();
        }
        sum
    }

    /// Total of all counts.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.prefix_sum(self.len)
    }

    /// Resets every count to zero while keeping the capacity.
    ///
    /// This is the in-place alternative to reconstructing the tree: hot loops
    /// that process one permutation per iteration (Algorithm 1 sweeps,
    /// inversion counting) keep a single tree and `clear` it between
    /// iterations instead of paying an allocation each time.
    pub fn clear(&mut self) {
        self.tree.iter_mut().for_each(|v| *v = 0);
    }

    /// Resets the tree to address `len` indices with all counts zero,
    /// reusing the existing allocation whenever `len` fits its capacity.
    ///
    /// Equivalent to `*self = Fenwick::new(len)` without the allocation;
    /// scratch workspaces use it when they are re-targeted to a different
    /// degree.
    pub fn reset(&mut self, len: usize) {
        self.tree.clear();
        self.tree.resize(len + 1, 0);
        self.len = len;
    }

    /// Resets the tree to address `len` indices holding count 1 at each of
    /// the first `ones` indices and 0 elsewhere, in `O(len)` — the bulk
    /// construction [`Fenwick::reset`] + `ones` [`Fenwick::add`] calls
    /// would do in `O(ones log len)`. The reuse-distance timeline compacts
    /// into exactly this shape (live markers packed at the front), so its
    /// periodic rebuild must not dominate the per-access `O(log)` work.
    ///
    /// # Panics
    ///
    /// Panics if `ones > len`.
    pub fn reset_ones_prefix(&mut self, len: usize, ones: usize) {
        assert!(
            ones <= len,
            "Fenwick::reset_ones_prefix: {ones} ones exceed length {len}"
        );
        self.tree.clear();
        self.tree.reserve(len + 1);
        self.tree.push(0);
        // Node i (1-based) covers the half-open 0-based index range
        // (i - lowbit(i), i]; with ones at indices 0..ones its count is
        // how much of that range sits below `ones`.
        for i in 1..=len {
            let low = i - (i & i.wrapping_neg());
            self.tree.push((ones.min(i) - ones.min(low)) as u64);
        }
        self.len = len;
    }

    /// Finds the smallest index `i` such that `prefix_sum(i + 1) >= target`,
    /// assuming all counts are non-negative (they are, being `u64`).
    ///
    /// Returns `None` if `target` exceeds [`Fenwick::total`] or `target == 0`.
    #[must_use]
    pub fn lower_bound(&self, target: u64) -> Option<usize> {
        if target == 0 || target > self.total() {
            return None;
        }
        let mut remaining = target;
        let mut pos = 0usize;
        // Highest power of two <= len.
        let mut step = self.len.next_power_of_two();
        if step > self.len {
            step /= 2;
        }
        while step > 0 {
            let next = pos + step;
            if next <= self.len && self.tree[next] < remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            step /= 2;
        }
        Some(pos) // pos is 0-based index of the answer
    }
}

/// Slots per [`SlotCounter`] block: eight 64-bit words, one cache line.
const BLOCK_SLOTS: usize = 512;
/// Words per [`SlotCounter`] block.
const BLOCK_WORDS: usize = BLOCK_SLOTS / 64;

/// The bits of 512 consecutive slots, aligned to one cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(align(64))]
struct Block([u64; BLOCK_WORDS]);

/// A counter of marked slots `0..len`: one bit per slot, plus a `u32`
/// Fenwick tree over blocks of 512 slots.
///
/// [`SlotCounter::count_below`] walks the block tree (`O(log(len / 512))`
/// nodes of a tree 512 times smaller than a per-slot one) and then
/// popcounts at most eight words of one cache-line block. Marking and
/// clearing flip one bit and walk the block tree. Marking a marked slot,
/// clearing an unmarked one, or indexing past `len` panics, the checks
/// [`Fenwick::add`] and [`Fenwick::sub`] make on 0/1 counts.
///
/// # Examples
///
/// ```
/// use symloc_perm::fenwick::SlotCounter;
///
/// let mut slots = SlotCounter::new(2048);
/// slots.set(3);
/// slots.set(1500);
/// assert_eq!(slots.count_below(3), 0);
/// assert_eq!(slots.count_below(4), 1);
/// assert_eq!(slots.count_below(2048), 2);
/// slots.clear(3);
/// assert_eq!(slots.count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotCounter {
    blocks: Vec<Block>,
    /// 1-based Fenwick tree over the blocks' marked counts; `tree[0]` is
    /// unused.
    tree: Vec<u32>,
    len: usize,
    count: usize,
}

impl SlotCounter {
    /// Creates a counter of `len` unmarked slots.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds `u32::MAX` (the block tree counts in `u32`).
    #[must_use]
    pub fn new(len: usize) -> Self {
        let mut counter = SlotCounter {
            blocks: Vec::new(),
            tree: Vec::new(),
            len: 0,
            count: 0,
        };
        counter.reset_ones_prefix(len, 0);
        counter
    }

    /// Number of slots.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the counter has no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of marked slots.
    #[must_use]
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// True when `slot` is marked.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len`.
    #[must_use]
    pub fn is_set(&self, slot: usize) -> bool {
        assert!(
            slot < self.len,
            "SlotCounter slot {slot} out of range {}",
            self.len
        );
        self.blocks[slot / BLOCK_SLOTS].0[slot / 64 % BLOCK_WORDS] & (1 << (slot % 64)) != 0
    }

    /// Marks `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len` or `slot` is already marked.
    #[inline]
    pub fn set(&mut self, slot: usize) {
        assert!(
            slot < self.len,
            "SlotCounter::set slot {slot} out of range {}",
            self.len
        );
        let word = &mut self.blocks[slot / BLOCK_SLOTS].0[slot / 64 % BLOCK_WORDS];
        let bit = 1u64 << (slot % 64);
        assert!(
            *word & bit == 0,
            "SlotCounter::set slot {slot} is already marked"
        );
        *word |= bit;
        self.count += 1;
        let mut i = slot / BLOCK_SLOTS + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Unmarks `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= len` or `slot` is not marked.
    #[inline]
    pub fn clear(&mut self, slot: usize) {
        assert!(
            slot < self.len,
            "SlotCounter::clear slot {slot} out of range {}",
            self.len
        );
        let word = &mut self.blocks[slot / BLOCK_SLOTS].0[slot / 64 % BLOCK_WORDS];
        let bit = 1u64 << (slot % 64);
        assert!(
            *word & bit != 0,
            "SlotCounter::clear slot {slot} is not marked"
        );
        *word &= !bit;
        self.count -= 1;
        let mut i = slot / BLOCK_SLOTS + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Marked slots among `0..end`.
    ///
    /// # Panics
    ///
    /// Panics if `end > len`.
    #[must_use]
    #[inline]
    pub fn count_below(&self, end: usize) -> usize {
        assert!(
            end <= self.len,
            "SlotCounter::count_below end {end} out of range {}",
            self.len
        );
        let block = end / BLOCK_SLOTS;
        let mut sum = 0usize;
        let mut i = block;
        while i > 0 {
            sum += self.tree[i] as usize;
            i -= i & i.wrapping_neg();
        }
        let within = end % BLOCK_SLOTS;
        if within > 0 {
            let words = &self.blocks[block].0;
            for word in &words[..within / 64] {
                sum += word.count_ones() as usize;
            }
            let bits = within % 64;
            if bits > 0 {
                sum += (words[within / 64] & ((1u64 << bits) - 1)).count_ones() as usize;
            }
        }
        sum
    }

    /// Resets the counter to `len` slots with the first `ones` marked and
    /// the rest unmarked, in `O(len / 64)` — the shape a timeline compacts
    /// into (live markers packed at the front; `ones = 0` for a tree of
    /// dead slots). Reuses the allocations.
    ///
    /// # Panics
    ///
    /// Panics if `ones > len` or `len` exceeds `u32::MAX`.
    pub fn reset_ones_prefix(&mut self, len: usize, ones: usize) {
        assert!(
            ones <= len,
            "SlotCounter::reset_ones_prefix: {ones} ones exceed length {len}"
        );
        assert!(
            u32::try_from(len).is_ok(),
            "SlotCounter: {len} slots exceed the u32 block counts"
        );
        let blocks = len.div_ceil(BLOCK_SLOTS);
        self.blocks.clear();
        self.blocks.resize(blocks, Block::default());
        let full = ones / 64;
        for word in 0..full {
            self.blocks[word / BLOCK_WORDS].0[word % BLOCK_WORDS] = u64::MAX;
        }
        if !ones.is_multiple_of(64) {
            self.blocks[full / BLOCK_WORDS].0[full % BLOCK_WORDS] = (1u64 << (ones % 64)) - 1;
        }
        // Node i (1-based) covers blocks (i - lowbit(i), i]; with ones at
        // slots 0..ones its count is how much of that range sits below
        // `ones`.
        self.tree.clear();
        self.tree.reserve(blocks + 1);
        self.tree.push(0);
        for i in 1..=blocks {
            let low = i - (i & i.wrapping_neg());
            let covered = ones.min(i * BLOCK_SLOTS) - ones.min(low * BLOCK_SLOTS);
            self.tree
                .push(u32::try_from(covered).expect("len fits u32"));
        }
        self.len = len;
        self.count = ones;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let f = Fenwick::new(0);
        assert!(f.is_empty());
        assert_eq!(f.total(), 0);
        assert_eq!(f.prefix_sum(0), 0);
        assert_eq!(f.lower_bound(1), None);
    }

    #[test]
    fn single_element() {
        let mut f = Fenwick::new(1);
        assert_eq!(f.prefix_sum(1), 0);
        f.add(0, 5);
        assert_eq!(f.prefix_sum(0), 0);
        assert_eq!(f.prefix_sum(1), 5);
        assert_eq!(f.total(), 5);
    }

    #[test]
    fn prefix_sums_match_naive() {
        let updates = [(3usize, 2u64), (5, 1), (0, 4), (7, 3), (3, 1)];
        let mut f = Fenwick::new(8);
        let mut naive = [0u64; 8];
        for &(i, d) in &updates {
            f.add(i, d);
            naive[i] += d;
        }
        for end in 0..=8 {
            let expect: u64 = naive[..end].iter().sum();
            assert_eq!(f.prefix_sum(end), expect, "prefix {end}");
        }
    }

    #[test]
    fn range_sum() {
        let mut f = Fenwick::new(10);
        for i in 0..10 {
            f.add(i, i as u64);
        }
        assert_eq!(f.range_sum(2, 5), 2 + 3 + 4);
        assert_eq!(f.range_sum(5, 5), 0);
        assert_eq!(f.range_sum(6, 2), 0);
        assert_eq!(f.range_sum(0, 10), 45);
    }

    #[test]
    fn clear_resets_counts() {
        let mut f = Fenwick::new(4);
        f.add(1, 3);
        f.add(2, 2);
        f.clear();
        assert_eq!(f.total(), 0);
        f.add(0, 1);
        assert_eq!(f.total(), 1);
    }

    #[test]
    fn clear_matches_fresh_tree_on_every_query() {
        let mut reused = Fenwick::new(8);
        for round in 0..3u64 {
            reused.clear();
            let mut fresh = Fenwick::new(8);
            for i in 0..8 {
                let delta = (i as u64 + round) % 3;
                reused.add(i, delta);
                fresh.add(i, delta);
            }
            assert_eq!(reused, fresh, "round {round}");
            for end in 0..=8 {
                assert_eq!(reused.prefix_sum(end), fresh.prefix_sum(end));
            }
        }
    }

    #[test]
    fn reset_retargets_degree_in_place() {
        let mut f = Fenwick::new(8);
        f.add(7, 5);
        f.reset(3);
        assert_eq!(f.len(), 3);
        assert_eq!(f.total(), 0);
        f.add(2, 4);
        assert_eq!(f.prefix_sum(3), 4);
        // Growing past the original capacity also works.
        f.reset(16);
        assert_eq!(f.len(), 16);
        assert_eq!(f.total(), 0);
        f.add(15, 1);
        assert_eq!(f.total(), 1);
        let mut fresh = Fenwick::new(16);
        fresh.add(15, 1);
        assert_eq!(f, fresh);
    }

    #[test]
    fn prefix_sum_clamps() {
        let mut f = Fenwick::new(3);
        f.add(2, 7);
        assert_eq!(f.prefix_sum(100), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_out_of_range_panics() {
        let mut f = Fenwick::new(3);
        f.add(3, 1);
    }

    #[test]
    fn sub_removes_previously_added_counts() {
        let mut f = Fenwick::new(6);
        f.add(2, 3);
        f.add(4, 1);
        f.sub(2, 2);
        assert_eq!(f.prefix_sum(3), 1);
        assert_eq!(f.total(), 2);
        f.sub(2, 1);
        f.sub(4, 1);
        assert_eq!(f.total(), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_more_than_added_panics() {
        let mut f = Fenwick::new(4);
        f.add(1, 1);
        f.sub(1, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sub_out_of_range_panics() {
        let mut f = Fenwick::new(3);
        f.sub(5, 1);
    }

    #[test]
    fn reset_ones_prefix_matches_adds() {
        for len in [0usize, 1, 2, 3, 7, 8, 9, 31, 64, 100] {
            for ones in [0, 1.min(len), len / 3, len / 2, len.saturating_sub(1), len] {
                let mut bulk = Fenwick::new(1);
                bulk.reset_ones_prefix(len, ones);
                let mut added = Fenwick::new(len);
                for i in 0..ones {
                    added.add(i, 1);
                }
                assert_eq!(bulk, added, "len {len} ones {ones}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed length")]
    fn reset_ones_prefix_rejects_too_many_ones() {
        Fenwick::new(4).reset_ones_prefix(3, 4);
    }

    #[test]
    fn lower_bound_finds_index() {
        let mut f = Fenwick::new(8);
        f.add(1, 2);
        f.add(4, 3);
        f.add(6, 1);
        // cumulative: idx1 -> 2, idx4 -> 5, idx6 -> 6
        assert_eq!(f.lower_bound(1), Some(1));
        assert_eq!(f.lower_bound(2), Some(1));
        assert_eq!(f.lower_bound(3), Some(4));
        assert_eq!(f.lower_bound(5), Some(4));
        assert_eq!(f.lower_bound(6), Some(6));
        assert_eq!(f.lower_bound(7), None);
        assert_eq!(f.lower_bound(0), None);
    }

    #[test]
    fn lower_bound_non_power_of_two_len() {
        let mut f = Fenwick::new(5);
        for i in 0..5 {
            f.add(i, 1);
        }
        for t in 1..=5u64 {
            assert_eq!(f.lower_bound(t), Some((t - 1) as usize));
        }
    }

    /// SplitMix64 steps: a tiny deterministic stream for the random
    /// operation sequences below.
    fn next_random(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn slot_counter_agrees_with_a_fenwick_of_zero_one_counts() {
        let mut state = 17u64;
        for len in [1usize, 2, 63, 64, 65, 511, 512, 513, 1024, 1100, 4099] {
            let mut slots = SlotCounter::new(len);
            let mut fenwick = Fenwick::new(len);
            let mut marked = vec![false; len];
            for step in 0..(6 * len).max(64) {
                let slot = (next_random(&mut state) % len as u64) as usize;
                if marked[slot] {
                    slots.clear(slot);
                    fenwick.sub(slot, 1);
                } else {
                    slots.set(slot);
                    fenwick.add(slot, 1);
                }
                marked[slot] = !marked[slot];
                let end = (next_random(&mut state) % (len as u64 + 1)) as usize;
                assert_eq!(
                    slots.count_below(end) as u64,
                    fenwick.prefix_sum(end),
                    "len {len} step {step} end {end}"
                );
                assert_eq!(slots.is_set(slot), marked[slot]);
                if step % 97 == 0 {
                    for end in 0..=len {
                        assert_eq!(slots.count_below(end) as u64, fenwick.prefix_sum(end));
                    }
                }
            }
            assert_eq!(slots.count() as u64, fenwick.total(), "len {len}");
        }
    }

    #[test]
    fn slot_counter_reset_ones_prefix_matches_marking_each_slot() {
        let mut bulk = SlotCounter::new(3);
        bulk.set(1);
        for len in 0..=1100usize {
            let spread = [
                0,
                1,
                63,
                64,
                65,
                511,
                512,
                513,
                1023,
                1024,
                len / 3,
                len / 2,
            ];
            let ones_rows = spread
                .into_iter()
                .chain([len.saturating_sub(1), len])
                .filter(|&ones| ones <= len);
            for ones in ones_rows {
                bulk.reset_ones_prefix(len, ones);
                let mut marked = SlotCounter::new(len);
                for slot in 0..ones {
                    marked.set(slot);
                }
                assert_eq!(bulk, marked, "len {len} ones {ones}");
                for end in 0..=len {
                    assert_eq!(
                        bulk.count_below(end),
                        end.min(ones),
                        "len {len} ones {ones}"
                    );
                }
            }
        }
        // Marks after a reset land in the rebuilt tree.
        bulk.reset_ones_prefix(1100, 600);
        bulk.clear(10);
        bulk.set(1099);
        assert_eq!(bulk.count_below(600), 599);
        assert_eq!(bulk.count_below(1100), 600);
    }

    #[test]
    #[should_panic(expected = "already marked")]
    fn slot_counter_rejects_a_double_mark() {
        let mut slots = SlotCounter::new(700);
        slots.set(600);
        slots.set(600);
    }

    #[test]
    #[should_panic(expected = "is not marked")]
    fn slot_counter_rejects_clearing_an_unmarked_slot() {
        let mut slots = SlotCounter::new(700);
        slots.set(5);
        slots.clear(6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_counter_rejects_marking_past_the_end() {
        SlotCounter::new(512).set(512);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_counter_rejects_clearing_past_the_end() {
        SlotCounter::new(3).clear(64);
    }

    /// The exact engines store slots as `u32` and rely on this bound, so a
    /// longer counter must fail before it allocates, not wrap a slot.
    #[test]
    #[should_panic(expected = "exceed the u32 block counts")]
    fn slot_counter_rejects_more_slots_than_u32_numbers() {
        let _ = SlotCounter::new(u32::MAX as usize + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_counter_rejects_counting_past_the_end() {
        let _ = SlotCounter::new(100).count_below(101);
    }

    #[test]
    #[should_panic(expected = "exceed length")]
    fn slot_counter_reset_rejects_too_many_ones() {
        SlotCounter::new(4).reset_ones_prefix(3, 4);
    }
}
