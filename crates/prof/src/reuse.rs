//! Reuse-distance capture and the compact stream profile the analytic
//! backend evaluates.
//!
//! A one-time capture run (the kernel on a recording team: each logical
//! thread on a host thread of its own, no cycle engine underneath)
//! records, per logical thread, the LRU stack distance of every data
//! access at 64 B cache-line granularity and at every page granularity in
//! `PAGE_SHIFTS` — the union of all supported translation
//! architectures' ladders — plus the instruction-fetch page stream. A
//! [`ThreadRecorder`] shares no state with another thread's. Distances
//! are binned into sparse sub-logarithmic histograms and aggregated per
//! *phase* (the innermost `cg:matvec`-style region annotation), so
//! iterative kernels collapse thousands of barrier episodes into a few
//! dozen phases. The result, [`StreamProfile`], is a
//! few-MB machine-independent summary: because the runtime schedules
//! loops statically, each thread's access *sequence* is a property of the
//! program, not of the machine preset it was captured on — which is what
//! lets one profile answer any (machine × page policy × placement) point
//! analytically.
//!
//! Each [`ReuseTracker`] is an exact LRU stack that keeps every key's
//! position in dense blocks of consecutive keys. Kernels stream over and
//! gather from arrays, so the keys of one thread are dense: a capture
//! costs a few bytes per distinct key, and most lookups stay in the
//! block used last. Keys scattered thinly over a wide range (a random
//! gather over a large footprint) cost a block per few keys instead.
//!
//! Everything here is dependency-free; serialization round-trips through
//! the crate's one JSON codec, [`crate::json`].

use crate::json::{parse_json, Json, JsonWriter};
use crate::lru::{move_to_front, LruSets, Mru};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Access-mode index: demand (latency-bound) accesses.
pub const MODE_LATENCY: usize = 0;
/// Access-mode index: pipelined (overlapped-miss) accesses.
pub const MODE_PIPELINED: usize = 1;
/// Access-mode index: streamed (prefetcher-covered) accesses.
pub const MODE_STREAM: usize = 2;
/// Number of access modes tracked.
pub const MODES: usize = 3;

/// Page-granularity shifts the capture records reuse distances at: the
/// union of every supported translation architecture's ladder rungs —
/// 4 KB, 16 KB, 64 KB, 2 MB, 32 MB and 1 GB. One captured profile can
/// therefore be evaluated under any architecture's page policy; the
/// analytic backend selects the entry matching the mapping size by shift.
pub(crate) const PAGE_SHIFTS: [u8; NUM_SHIFTS] = [12, 14, 16, 21, 25, 30];
/// Number of page-granularity capture shifts.
pub(crate) const NUM_SHIFTS: usize = 6;

/// Index into [`PAGE_SHIFTS`] for a page shift, if captured.
pub(crate) fn shift_index(shift: u32) -> Option<usize> {
    PAGE_SHIFTS.iter().position(|&s| u32::from(s) == shift)
}

/// Instruction-fetch capture granularities: code maps at the base granule
/// of the translation architecture, so the fetch stream is captured at
/// every supported base-granule shift (4 KB and 16 KB).
pub(crate) const CODE_SHIFTS: [u8; NUM_CODE_SHIFTS] = [12, 14];
/// Number of code-granularity capture shifts.
pub(crate) const NUM_CODE_SHIFTS: usize = 2;

/// Index into [`CODE_SHIFTS`] for a base-granule shift, if captured.
pub(crate) fn code_shift_index(shift: u32) -> Option<usize> {
    CODE_SHIFTS.iter().position(|&s| u32::from(s) == shift)
}

/// Number of histogram buckets. Distances below 16 get exact buckets;
/// above, 8 sub-buckets per power of two — enough to resolve capacities
/// up to ~2^33 distinct keys with <12.5% bucket width.
pub(crate) const NUM_BUCKETS: usize = 256;

const SMALL: u64 = 16;

// ---------------------------------------------------------------------
// Set-associative (conflict) capture.

/// Conflict-shape key granularity: 64 B cache lines.
pub const GRAN_LINE: u8 = 0;
/// Conflict-shape key granularity: 4 KB pages.
pub const GRAN_PAGE4K: u8 = 1;

/// A set-associative geometry the capture tracks *per set*, so the
/// analytic backend can see conflict misses a fully-associative model
/// hides (power-of-two strides hammering a few sets — SP's pencil
/// walks). Keys are indexed by their low bits (`key & (sets-1)`),
/// exactly like the simulated caches and TLB arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConflictShape {
    /// Key granularity (`GRAN_LINE` or `GRAN_PAGE4K`).
    pub granularity: u8,
    /// Number of sets (power of two).
    pub sets: u32,
    /// Native associativity of the structure this shape mirrors (only
    /// informational here; queries may probe any way count up to
    /// `CONFLICT_DEPTH`).
    pub ways: u32,
}

/// The geometries of both platform presets' set-associative structures:
/// Opteron L1D (64 KB / 2-way), Opteron L2 (1 MB / 16-way), Xeon L1D
/// (16 KB / 8-way), Xeon L2 (2 MB / 8-way), and the Opteron's 4-way
/// 1024-entry L2 DTLB. Other geometries fall back to the
/// fully-associative histograms.
pub const CONFLICT_SHAPES: &[ConflictShape] = &[
    ConflictShape {
        granularity: GRAN_LINE,
        sets: 512,
        ways: 2,
    },
    ConflictShape {
        granularity: GRAN_LINE,
        sets: 1024,
        ways: 16,
    },
    ConflictShape {
        granularity: GRAN_LINE,
        sets: 32,
        ways: 8,
    },
    ConflictShape {
        granularity: GRAN_LINE,
        sets: 4096,
        ways: 8,
    },
    ConflictShape {
        granularity: GRAN_PAGE4K,
        sets: 256,
        ways: 4,
    },
];

/// Per-set LRU depth tracked exactly; deeper reuse lands in the `far`
/// bin, which misses at every realistic associativity (≤ 16 ways).
pub(crate) const CONFLICT_DEPTH: usize = 32;

/// Index into [`CONFLICT_SHAPES`] for a geometry, if captured.
pub fn conflict_shape_index(granularity: u8, sets: u32, ways: u32) -> Option<usize> {
    CONFLICT_SHAPES
        .iter()
        .position(|s| s.granularity == granularity && s.sets == sets && s.ways == ways)
}

/// Sparse per-set-distance histogram for one conflict shape: a `w`-way
/// structure of this geometry misses exactly the accesses with per-set
/// distance ≥ `w`, plus all of `far`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConflictHist {
    /// Cold accesses and reuses deeper than `CONFLICT_DEPTH`.
    pub far: u64,
    /// `(per-set distance, count)` pairs, distance < depth, sorted.
    pub d: Vec<(u32, u64)>,
}

impl ConflictHist {
    /// Misses of a `ways`-associative structure of this shape.
    pub fn misses_beyond(&self, ways: u64) -> f64 {
        let mut m = self.far as f64;
        for &(dist, n) in &self.d {
            if u64::from(dist) >= ways {
                m += n as f64;
            }
        }
        m
    }

    /// Total accesses recorded.
    pub fn total(&self) -> u64 {
        self.far + self.d.iter().map(|&(_, n)| n).sum::<u64>()
    }

    /// Add another histogram into this one.
    pub fn merge(&mut self, other: &ConflictHist) {
        self.far += other.far;
        for &(dist, n) in &other.d {
            match self.d.binary_search_by_key(&dist, |&(x, _)| x) {
                Ok(i) => self.d[i].1 += n,
                Err(i) => self.d.insert(i, (dist, n)),
            }
        }
    }
}

/// Dense capture-side counterpart of [`ConflictHist`].
#[derive(Clone, Debug)]
struct DenseConflict {
    counts: [u64; CONFLICT_DEPTH],
    far: u64,
}

impl DenseConflict {
    fn new() -> Self {
        DenseConflict {
            counts: [0; CONFLICT_DEPTH],
            far: 0,
        }
    }

    #[inline]
    fn add(&mut self, access: Mru) {
        match access {
            Mru::Hit(d) => self.counts[d] += 1,
            Mru::Miss(_) => self.far += 1,
        }
    }

    fn drain(&mut self) -> ConflictHist {
        let d = self
            .counts
            .iter_mut()
            .enumerate()
            .filter(|(_, n)| **n != 0)
            .map(|(i, n)| (i as u32, std::mem::take(n)))
            .collect();
        ConflictHist {
            far: std::mem::take(&mut self.far),
            d,
        }
    }
}

/// Histogram bucket index for a reuse distance.
#[inline]
pub(crate) fn bucket_of(d: u64) -> usize {
    if d < SMALL {
        d as usize
    } else {
        let k = 63 - u64::from(d.leading_zeros());
        let sub = (d >> (k - 3)) & 7;
        ((16 + (k - 4) * 8 + sub) as usize).min(NUM_BUCKETS - 1)
    }
}

/// Inclusive `(lo, hi)` distance range a bucket covers.
#[inline]
pub(crate) fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < 16 {
        (idx as u64, idx as u64)
    } else {
        let k = 4 + ((idx - 16) / 8) as u64;
        let sub = ((idx - 16) % 8) as u64;
        let w = 1u64 << (k - 3);
        let lo = (1u64 << k) + sub * w;
        (lo, lo + w - 1)
    }
}

// ---------------------------------------------------------------------
// Fast hashing (multiply-mix; the std SipHash would dominate capture).

#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut v = [0u8; 8];
            v[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(v));
        }
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

// ---------------------------------------------------------------------
// Exact LRU stack-distance tracking.

/// Keys the MRU front of a [`ReuseTracker`] holds.
const FRONT: usize = 32;

/// Fewest slots the rest of a [`ReuseTracker`] is sized to.
const MIN_SLOTS: usize = 256;

/// A [`SlotTable`] block covers `1 << BLOCK_BITS` consecutive keys.
const BLOCK_BITS: u32 = 10;
const BLOCK: usize = 1 << BLOCK_BITS;

/// A [`SlotTable`] entry for a key that is not in the rest. Slots stay
/// below it (`renumber` bounds them).
const NONE: u32 = u32::MAX;

/// The rest's slot of every key, held densely: one `u32` per key in
/// blocks of [`BLOCK`] consecutive keys, [`NONE`] where a key is not in
/// the rest. A block is allocated when a key in it is first looked up
/// and kept for the tracker's life. Streams and gathers reuse nearby
/// keys, so consecutive lookups mostly land in the block used last,
/// which is cached in front of the block map.
struct SlotTable {
    /// Block number (`key >> BLOCK_BITS`) → the block's offset in `slots`.
    blocks: FxMap<u64, usize>,
    slots: Vec<u32>,
    /// Block number and offset of the block used last; no key has block
    /// number `u64::MAX`.
    last: (u64, usize),
}

impl SlotTable {
    fn new() -> Self {
        SlotTable {
            blocks: FxMap::default(),
            slots: Vec::new(),
            last: (u64::MAX, 0),
        }
    }

    /// `key`'s entry, allocating its block (all [`NONE`]) if new.
    #[inline]
    fn entry(&mut self, key: u64) -> &mut u32 {
        let block = key >> BLOCK_BITS;
        if block != self.last.0 {
            let at = *self.blocks.entry(block).or_insert_with(|| {
                self.slots.resize(self.slots.len() + BLOCK, NONE);
                self.slots.len() - BLOCK
            });
            self.last = (block, at);
        }
        &mut self.slots[self.last.1 + (key as usize & (BLOCK - 1))]
    }
}

/// Exact per-thread LRU stack distances over a key stream (keys are
/// line/page numbers). `access` returns the number of *distinct other*
/// keys touched since the key's previous access (`None` on first touch),
/// so a fully-associative LRU structure of capacity `C` hits iff the
/// distance is `< C`.
///
/// Implementation: the 32 most recent keys (the *front*) sit in an
/// MRU-first array, so a reuse at distance `d < 32` costs a `d`-step
/// scan. A key pushed off the front gets the next *slot*: slots number
/// keys in the order they left the front, which is the order of their
/// last access. A dense slot table (one `u32` per key, in blocks of
/// 1 024 consecutive keys) maps each key to its slot, so the consecutive
/// keys of a stream or gather share a few host cache lines instead of
/// scattering over a hash table. Live slots are a bitset with a Fenwick
/// tree over its 64-slot words, so a deeper reuse has distance 32 + the
/// live slots newer than its own, counted in `O(log(slots / 64))`. When
/// the slots run out they are renumbered in place by rank, walking the
/// table block by block, amortizing to near-constant per access.
pub struct ReuseTracker {
    front: [u64; FRONT],
    front_len: usize,
    /// Slot of every key not in the front.
    table: SlotTable,
    /// Keys in the rest (live slots).
    rest: usize,
    /// One bit per slot, set while its key is live.
    live: Vec<u64>,
    /// Fenwick tree (1-based) over the popcounts of `live`'s words.
    tree: Vec<u32>,
    /// Next slot to hand out; `live.len() * 64` when exhausted.
    next: usize,
}

impl Default for ReuseTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl ReuseTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        ReuseTracker {
            front: [0; FRONT],
            front_len: 0,
            table: SlotTable::new(),
            rest: 0,
            live: Vec::new(),
            tree: Vec::new(),
            next: 0,
        }
    }

    /// Record an access; returns the reuse distance, `None` when cold.
    #[inline]
    pub fn access(&mut self, key: u64) -> Option<u64> {
        match move_to_front(&mut self.front, self.front_len, key) {
            Mru::Hit(d) => Some(d as u64),
            // The rest is empty while the front has room.
            Mru::Miss(None) => {
                self.front_len += 1;
                None
            }
            Mru::Miss(Some(evicted)) => self.rest_access(key, evicted),
        }
    }

    /// An access that missed the full front, which pushed `evicted` off.
    /// Kept out of line so the front path stays small where
    /// `ThreadRecorder::data` inlines seven trackers.
    #[inline(never)]
    fn rest_access(&mut self, key: u64, evicted: u64) -> Option<u64> {
        let s = std::mem::replace(self.table.entry(key), NONE);
        let dist = (s != NONE).then(|| {
            let (w, bit) = (s as usize / 64, 1u64 << (s % 64));
            self.live[w] &= !bit;
            self.add(w, -1);
            self.rest -= 1;
            let older = self.prefix(w) + (self.live[w] & (bit - 1)).count_ones();
            (FRONT + self.rest) as u64 - u64::from(older)
        });
        self.push(evicted);
        dist
    }

    /// Number of distinct keys seen so far.
    pub fn distinct(&self) -> usize {
        self.front_len + self.rest
    }

    /// Live slots in words `..w`.
    #[inline]
    fn prefix(&self, mut w: usize) -> u32 {
        let mut s = 0;
        while w > 0 {
            s += self.tree[w];
            w &= w - 1;
        }
        s
    }

    /// Add `delta` to word `w`'s live count.
    #[inline]
    fn add(&mut self, w: usize, delta: i32) {
        let mut i = w + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Give `key`, just pushed off the front, the next slot.
    #[inline]
    fn push(&mut self, key: u64) {
        if self.next == self.live.len() * 64 {
            self.renumber();
        }
        let s = self.next;
        self.next += 1;
        self.live[s / 64] |= 1 << (s % 64);
        self.add(s / 64, 1);
        self.rest += 1;
        *self.table.entry(key) = s as u32;
    }

    /// Renumber the `n` live slots to `0..n` by rank, keeping their
    /// order, in a bitset resized to `4n` slots (at least `MIN_SLOTS`).
    fn renumber(&mut self) {
        // tree[w] := live slots in words ..w, the rank of word w's
        // first slot.
        let mut below = 0;
        for (w, bits) in self.live.iter().enumerate() {
            self.tree[w] = below;
            below += bits.count_ones();
        }
        for s in self.table.slots.iter_mut().filter(|s| **s != NONE) {
            let (w, b) = (*s as usize / 64, *s % 64);
            *s = self.tree[w] + (self.live[w] & ((1 << b) - 1)).count_ones();
        }
        let n = self.rest;
        let words = (4 * n).max(MIN_SLOTS).div_ceil(64);
        // Slots are stored as `u32` and stay below `NONE`.
        assert!(
            words < 1 << 26,
            "reuse tracker needs 2^32 - 64 slots or more"
        );
        self.live.clear();
        self.live.resize(words, 0);
        self.live[..n / 64].fill(u64::MAX);
        self.live[n / 64] = (1 << (n % 64)) - 1;
        self.tree.clear();
        self.tree.push(0);
        self.tree.extend(self.live.iter().map(|w| w.count_ones()));
        for i in 1..=words {
            let j = i + (i & i.wrapping_neg());
            if j <= words {
                self.tree[j] += self.tree[i];
            }
        }
        self.next = n;
    }
}

// ---------------------------------------------------------------------
// Histograms.

/// Sparse reuse-distance histogram: cold (first-touch) count plus
/// `(bucket, count)` pairs sorted by bucket index.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReuseHistogram {
    /// First-touch accesses (always miss, at any capacity).
    pub cold: u64,
    /// `(bucket index, access count)` pairs, sorted, counts nonzero.
    pub buckets: Vec<(u32, u64)>,
}

impl ReuseHistogram {
    /// Total accesses recorded, including cold.
    pub fn total(&self) -> u64 {
        self.cold + self.buckets.iter().map(|&(_, n)| n).sum::<u64>()
    }

    /// Expected misses in a fully-associative LRU structure holding
    /// `capacity` keys (hit iff distance < capacity). Buckets straddling
    /// the capacity contribute fractionally; cold accesses always miss.
    pub fn misses_beyond(&self, capacity: u64) -> f64 {
        let mut m = self.cold as f64;
        if capacity == 0 {
            return self.total() as f64;
        }
        for &(idx, n) in &self.buckets {
            let (lo, hi) = bucket_bounds(idx as usize);
            if lo >= capacity {
                m += n as f64;
            } else if hi >= capacity {
                let width = (hi - lo + 1) as f64;
                m += n as f64 * ((hi - capacity + 1) as f64 / width);
            }
        }
        m
    }

    /// Add another histogram into this one.
    pub fn merge(&mut self, other: &ReuseHistogram) {
        self.cold += other.cold;
        if other.buckets.is_empty() {
            return;
        }
        let mut out = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0, 0);
        while i < self.buckets.len() || j < other.buckets.len() {
            match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(&(a, na)), Some(&(b, nb))) if a == b => {
                    out.push((a, na + nb));
                    i += 1;
                    j += 1;
                }
                (Some(&(a, na)), Some(&(b, _))) if a < b => {
                    out.push((a, na));
                    i += 1;
                }
                (Some(_), Some(&(b, nb))) => {
                    out.push((b, nb));
                    j += 1;
                }
                (Some(&(a, na)), None) => {
                    out.push((a, na));
                    i += 1;
                }
                (None, Some(&(b, nb))) => {
                    out.push((b, nb));
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        self.buckets = out;
    }
}

/// Dense histogram used during capture (fixed-size counts, zeroed on
/// drain); converted to the sparse form when a phase closes.
#[derive(Clone, Debug)]
struct DenseHist {
    counts: Vec<u64>,
    cold: u64,
}

impl DenseHist {
    fn new() -> Self {
        DenseHist {
            counts: vec![0; NUM_BUCKETS],
            cold: 0,
        }
    }

    #[inline]
    fn add(&mut self, dist: Option<u64>) {
        match dist {
            Some(d) => self.counts[bucket_of(d)] += 1,
            None => self.cold += 1,
        }
    }

    fn drain(&mut self) -> ReuseHistogram {
        let buckets = self
            .counts
            .iter_mut()
            .enumerate()
            .filter(|(_, n)| **n != 0)
            .map(|(i, n)| (i as u32, std::mem::take(n)))
            .collect();
        ReuseHistogram {
            cold: std::mem::take(&mut self.cold),
            buckets,
        }
    }
}

// ---------------------------------------------------------------------
// Per-thread capture state.

/// One logical thread's capture state: three global reuse trackers (the
/// distances span phase boundaries, so caches stay warm across phases)
/// plus the dense accumulators of the phase in progress.
pub struct ThreadRecorder {
    line: ReuseTracker,
    /// One page tracker per [`PAGE_SHIFTS`] entry (same order).
    pages: Vec<ReuseTracker>,
    /// One fetch-stream tracker per [`CODE_SHIFTS`] entry (same order).
    code: Vec<ReuseTracker>,
    events: u64,
    acc: [u64; MODES],
    loads: u64,
    stores: u64,
    instructions: u64,
    ifetches: u64,
    stream_pages: [u64; NUM_SHIFTS],
    line_h: [DenseHist; MODES],
    page_h: Vec<[DenseHist; MODES]>,
    code_h: Vec<DenseHist>,
    /// One per-set tracker per [`CONFLICT_SHAPES`] entry (global, like
    /// the reuse trackers: sets stay warm across phases).
    shapes: Vec<LruSets<CONFLICT_DEPTH>>,
    conflict_h: Vec<[DenseConflict; MODES]>,
}

impl Default for ThreadRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadRecorder {
    /// Fresh recorder.
    pub fn new() -> Self {
        let h3 = || [DenseHist::new(), DenseHist::new(), DenseHist::new()];
        ThreadRecorder {
            line: ReuseTracker::new(),
            pages: PAGE_SHIFTS.iter().map(|_| ReuseTracker::new()).collect(),
            code: CODE_SHIFTS.iter().map(|_| ReuseTracker::new()).collect(),
            events: 0,
            acc: [0; MODES],
            loads: 0,
            stores: 0,
            instructions: 0,
            ifetches: 0,
            stream_pages: [0; NUM_SHIFTS],
            line_h: h3(),
            page_h: PAGE_SHIFTS.iter().map(|_| h3()).collect(),
            code_h: CODE_SHIFTS.iter().map(|_| DenseHist::new()).collect(),
            shapes: CONFLICT_SHAPES
                .iter()
                .map(|s| LruSets::new(s.sets as usize, CONFLICT_DEPTH))
                .collect(),
            conflict_h: CONFLICT_SHAPES
                .iter()
                .map(|_| {
                    [
                        DenseConflict::new(),
                        DenseConflict::new(),
                        DenseConflict::new(),
                    ]
                })
                .collect(),
        }
    }

    /// Record one data access at raw virtual address `va`.
    #[inline]
    pub fn data(&mut self, va: u64, is_store: bool, mode: usize) {
        self.events += 1;
        self.acc[mode] += 1;
        if is_store {
            self.stores += 1;
        } else {
            self.loads += 1;
        }
        let d = self.line.access(va >> 6);
        self.line_h[mode].add(d);
        for (i, &shift) in PAGE_SHIFTS.iter().enumerate() {
            let d = self.pages[i].access(va >> shift);
            self.page_h[i][mode].add(d);
        }
        for (i, shape) in CONFLICT_SHAPES.iter().enumerate() {
            let key = if shape.granularity == GRAN_LINE {
                va >> 6
            } else {
                va >> 12
            };
            let a = self.shapes[i].access(key);
            self.conflict_h[i][mode].add(a);
        }
        if mode == MODE_STREAM {
            // The cycle engine restarts the prefetcher only on TLB misses
            // within the first two lines of a page: count the stream
            // accesses eligible at each mapping granularity.
            for (i, &shift) in PAGE_SHIFTS.iter().enumerate() {
                if va & ((1u64 << shift) - 1) < 128 {
                    self.stream_pages[i] += 1;
                }
            }
        }
    }

    /// Record a compute charge of `n` instructions.
    #[inline]
    pub fn compute(&mut self, n: u64) {
        self.events += 1;
        self.instructions += n;
    }

    /// Record one instruction fetch at raw virtual address `va`.
    #[inline]
    pub fn ifetch(&mut self, va: u64) {
        self.events += 1;
        self.ifetches += 1;
        for (i, &shift) in CODE_SHIFTS.iter().enumerate() {
            let d = self.code[i].access(va >> shift);
            self.code_h[i].add(d);
        }
    }

    fn drain(&mut self) -> PhaseThread {
        self.events = 0;
        PhaseThread {
            acc: std::mem::take(&mut self.acc),
            loads: std::mem::take(&mut self.loads),
            stores: std::mem::take(&mut self.stores),
            instructions: std::mem::take(&mut self.instructions),
            ifetches: std::mem::take(&mut self.ifetches),
            stream_pages: std::mem::take(&mut self.stream_pages),
            line: [
                self.line_h[0].drain(),
                self.line_h[1].drain(),
                self.line_h[2].drain(),
            ],
            pages: self
                .page_h
                .iter_mut()
                .map(|hs| [hs[0].drain(), hs[1].drain(), hs[2].drain()])
                .collect(),
            code: self.code_h.iter_mut().map(DenseHist::drain).collect(),
            conflict: self
                .conflict_h
                .iter_mut()
                .map(|ms| [ms[0].drain(), ms[1].drain(), ms[2].drain()])
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// The profile data model.

/// One thread's aggregate within a phase.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseThread {
    /// Data accesses per mode (`MODE_*` indices).
    pub acc: [u64; MODES],
    /// Data loads (any mode).
    pub loads: u64,
    /// Data stores (any mode).
    pub stores: u64,
    /// Compute instructions charged.
    pub instructions: u64,
    /// Instruction fetches issued by the code walker.
    pub ifetches: u64,
    /// Streamed accesses in the first two lines of a page at each
    /// `PAGE_SHIFTS` granularity (prefetch-restart candidates under a
    /// mapping of that size).
    pub stream_pages: [u64; NUM_SHIFTS],
    /// Per-mode reuse-distance histograms at 64 B line granularity.
    pub line: [ReuseHistogram; MODES],
    /// Per-mode histograms at each `PAGE_SHIFTS` page granularity
    /// (same order, always `NUM_SHIFTS` entries).
    pub pages: Vec<[ReuseHistogram; MODES]>,
    /// Instruction-fetch histograms at each `CODE_SHIFTS` granularity
    /// (same order, always `NUM_CODE_SHIFTS` entries).
    pub code: Vec<ReuseHistogram>,
    /// Per-mode set-conflict histograms, one entry per
    /// [`CONFLICT_SHAPES`] geometry (same order).
    pub conflict: Vec<[ConflictHist; MODES]>,
}

impl Default for PhaseThread {
    fn default() -> Self {
        PhaseThread {
            acc: [0; MODES],
            loads: 0,
            stores: 0,
            instructions: 0,
            ifetches: 0,
            stream_pages: [0; NUM_SHIFTS],
            line: Default::default(),
            pages: vec![Default::default(); NUM_SHIFTS],
            code: vec![ReuseHistogram::default(); NUM_CODE_SHIFTS],
            conflict: Vec::new(),
        }
    }
}

impl PhaseThread {
    /// Per-mode page-granularity histograms for a mapping whose page
    /// shift is `shift`; `None` when the shift is not a capture
    /// granularity.
    pub fn page_hist(&self, shift: u32) -> Option<&[ReuseHistogram; MODES]> {
        self.pages.get(shift_index(shift)?)
    }

    /// Prefetch-restart candidates for a mapping of page shift `shift`
    /// (zero when the shift is not captured).
    pub fn stream_pages_at(&self, shift: u32) -> u64 {
        shift_index(shift).map_or(0, |i| self.stream_pages[i])
    }

    /// Instruction-fetch histogram for code mapped at base-granule
    /// `shift`; `None` when the shift is not a capture granularity.
    pub fn code_hist(&self, shift: u32) -> Option<&ReuseHistogram> {
        self.code.get(code_shift_index(shift)?)
    }

    fn merge(&mut self, other: &PhaseThread) {
        for m in 0..MODES {
            self.acc[m] += other.acc[m];
            self.line[m].merge(&other.line[m]);
        }
        for (s, o) in self.pages.iter_mut().zip(&other.pages) {
            for m in 0..MODES {
                s[m].merge(&o[m]);
            }
        }
        if self.conflict.len() < other.conflict.len() {
            self.conflict
                .resize_with(other.conflict.len(), Default::default);
        }
        for (s, o) in self.conflict.iter_mut().zip(&other.conflict) {
            for m in 0..MODES {
                s[m].merge(&o[m]);
            }
        }
        self.loads += other.loads;
        self.stores += other.stores;
        self.instructions += other.instructions;
        self.ifetches += other.ifetches;
        for (s, o) in self.stream_pages.iter_mut().zip(&other.stream_pages) {
            *s += o;
        }
        for (s, o) in self.code.iter_mut().zip(&other.code) {
            s.merge(o);
        }
    }

    fn is_empty(&self) -> bool {
        self.acc == [0; MODES] && self.instructions == 0 && self.ifetches == 0
    }
}

/// One phase: everything captured under one region label, across all of
/// that label's barrier episodes.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// Innermost region annotation active when the work ran (`""` for
    /// work outside any region).
    pub label: String,
    /// Barrier synchronizations closed under this label.
    pub barriers: u64,
    /// Per-thread aggregates (index = logical thread id).
    pub threads: Vec<PhaseThread>,
}

/// A captured kernel reference stream, compacted: the machine-independent
/// input the analytic backend evaluates against any machine preset, page
/// policy and NUMA placement.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamProfile {
    /// Application name (e.g. `"cg"`).
    pub app: String,
    /// Problem class letter (e.g. `"W"`).
    pub class: String,
    /// Logical thread count the stream was captured at.
    pub threads: usize,
    /// Kernel checksum produced by the capture run.
    pub checksum: f64,
    /// Phases in first-appearance order.
    pub phases: Vec<Phase>,
}

/// Accumulates [`ThreadRecorder`] contents into phases as the capture
/// run crosses region and barrier boundaries.
pub struct PhaseAggregator {
    phases: Vec<Phase>,
    index: HashMap<String, usize>,
    stack: Vec<String>,
}

impl Default for PhaseAggregator {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseAggregator {
    /// Empty aggregator.
    pub fn new() -> Self {
        PhaseAggregator {
            phases: Vec::new(),
            index: HashMap::new(),
            stack: Vec::new(),
        }
    }

    fn label(&self) -> &str {
        self.stack.last().map(String::as_str).unwrap_or("")
    }

    fn phase_mut(&mut self, threads: usize) -> &mut Phase {
        let label = self.label().to_owned();
        let idx = *self.index.entry(label.clone()).or_insert_with(|| {
            self.phases.push(Phase {
                label,
                barriers: 0,
                threads: vec![PhaseThread::default(); threads],
            });
            self.phases.len() - 1
        });
        &mut self.phases[idx]
    }

    /// Close the open episode: drain every recorder into the current
    /// label's phase. `barrier` marks episodes ended by a barrier
    /// synchronization (counted for barrier-cost prediction).
    pub fn flush(&mut self, recorders: &mut [ThreadRecorder], barrier: bool) {
        let dirty = recorders.iter().any(|r| r.events != 0);
        if !dirty && !barrier {
            return;
        }
        let phase = self.phase_mut(recorders.len());
        if barrier {
            phase.barriers += 1;
        }
        if dirty {
            for (t, r) in recorders.iter_mut().enumerate() {
                let pt = r.drain();
                if !pt.is_empty() {
                    phase.threads[t].merge(&pt);
                }
            }
        }
    }

    /// A region annotation opened: flush pending work to the outer label.
    pub fn region_enter(&mut self, name: &str, recorders: &mut [ThreadRecorder]) {
        self.flush(recorders, false);
        self.stack.push(name.to_owned());
    }

    /// A region annotation closed.
    pub fn region_exit(&mut self, recorders: &mut [ThreadRecorder]) {
        self.flush(recorders, false);
        self.stack.pop();
    }

    /// Finish the capture into a [`StreamProfile`].
    pub fn finish(
        mut self,
        recorders: &mut [ThreadRecorder],
        app: &str,
        class: &str,
        checksum: f64,
    ) -> StreamProfile {
        self.flush(recorders, false);
        StreamProfile {
            app: app.to_owned(),
            class: class.to_owned(),
            threads: recorders.len(),
            checksum,
            phases: self.phases,
        }
    }
}

// ---------------------------------------------------------------------
// Serialization, through `crate::json`.

/// A sparse histogram object: the count outside the pairs under `rest`,
/// then the `(index, count)` pairs [`read_pairs`] reads under `pairs`.
/// Reuse and conflict histograms share this shape.
fn write_sparse(w: &mut JsonWriter, rest: (&str, u64), pairs: (&str, &[(u32, u64)])) {
    w.obj(|w| {
        w.key(rest.0).uint(rest.1);
        w.key(pairs.0).arr(|w| {
            for &(i, n) in pairs.1 {
                w.arr(|w| {
                    w.uint(i.into());
                    w.uint(n);
                });
            }
        });
    });
}

impl StreamProfile {
    /// Serialize to JSON (compact, integers exact below 2^53). The
    /// output opens with an `"engine"` stamp ([`crate::ENGINE_VERSION`]);
    /// [`from_json`](Self::from_json) rejects any other version, so a
    /// profile captured under older charge rules can never silently feed
    /// the analytic backend stale predictions.
    pub fn to_json(&self) -> String {
        let hists = |w: &mut JsonWriter, hs: &[ReuseHistogram]| {
            w.arr(|w| {
                for h in hs {
                    write_sparse(w, ("c", h.cold), ("b", &h.buckets));
                }
            });
        };
        let mut w = JsonWriter::with_capacity(1 << 16);
        w.obj(|w| {
            w.key("engine").uint(crate::ENGINE_VERSION.into());
            w.key("app").str(&self.app);
            w.key("class").str(&self.class);
            w.key("threads").uint(self.threads as u64);
            w.key("checksum").num(self.checksum);
            w.key("phases").arr(|w| {
                for p in &self.phases {
                    w.obj(|w| {
                        w.key("label").str(&p.label);
                        w.key("barriers").uint(p.barriers);
                        w.key("threads").arr(|w| {
                            for t in &p.threads {
                                w.obj(|w| {
                                    w.key("acc").arr(|w| t.acc.iter().for_each(|&n| w.uint(n)));
                                    w.key("ld").uint(t.loads);
                                    w.key("st").uint(t.stores);
                                    w.key("ins").uint(t.instructions);
                                    w.key("if").uint(t.ifetches);
                                    w.key("sp")
                                        .arr(|w| t.stream_pages.iter().for_each(|&n| w.uint(n)));
                                    hists(w.key("line"), &t.line);
                                    w.key("pg")
                                        .arr(|w| t.pages.iter().for_each(|hs| hists(w, hs)));
                                    hists(w.key("code"), &t.code);
                                    w.key("cf").arr(|w| {
                                        for modes in &t.conflict {
                                            w.arr(|w| {
                                                for c in modes {
                                                    write_sparse(w, ("f", c.far), ("d", &c.d));
                                                }
                                            });
                                        }
                                    });
                                });
                            }
                        });
                    });
                }
            });
        });
        w.finish()
    }

    /// Parse a profile serialized by [`to_json`](Self::to_json).
    ///
    /// Rejects profiles stamped with a different [`crate::ENGINE_VERSION`]
    /// (including pre-stamp profiles, which lack the key entirely): their
    /// histograms may encode semantics the current engine no longer
    /// matches, and the only safe response is recapture.
    pub fn from_json(src: &str) -> Result<StreamProfile, String> {
        let j = parse_json(src)?;
        let engine = j.uint("engine")?;
        if engine != u64::from(crate::ENGINE_VERSION) {
            return Err(format!(
                "profile engine version {engine} != current {} — recapture required",
                crate::ENGINE_VERSION
            ));
        }
        let threads = j.uint("threads")? as usize;
        let mut phases = Vec::new();
        for p in j.array("phases")? {
            phases.push(Phase {
                label: p.string("label")?.to_owned(),
                barriers: p.uint("barriers")?,
                threads: read_each(p, "threads", threads, read_phase_thread)?,
            });
        }
        Ok(StreamProfile {
            app: j.string("app")?.to_owned(),
            class: j.string("class")?.to_owned(),
            threads,
            checksum: j.num("checksum")?,
            phases,
        })
    }
}

/// Sparse `(index, count)` pairs as a capture writes them: integer
/// indices below `limit`, strictly increasing, each with a positive
/// integer count. Anything else would index past the bucket table or
/// double-count, so it is refused rather than evaluated.
fn read_pairs(j: &Json, key: &str, limit: usize) -> Result<Vec<(u32, u64)>, String> {
    let mut out: Vec<(u32, u64)> = Vec::new();
    for pair in j.array(key)? {
        let Some([idx, n]) = pair.as_arr() else {
            return Err(format!("key {key:?}: entry is not a pair"));
        };
        let idx = idx
            .as_uint()
            .filter(|&i| i < limit as u64)
            .ok_or_else(|| format!("key {key:?}: index is not an integer below {limit}"))?;
        let n = n
            .as_uint()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("key {key:?}: count is not a positive integer"))?;
        if out.last().is_some_and(|&(prev, _)| u64::from(prev) >= idx) {
            return Err(format!("key {key:?}: indices are not strictly increasing"));
        }
        out.push((idx as u32, n));
    }
    Ok(out)
}

fn read_hist(j: &Json) -> Result<ReuseHistogram, String> {
    Ok(ReuseHistogram {
        cold: j.uint("c")?,
        buckets: read_pairs(j, "b", NUM_BUCKETS)?,
    })
}

fn read_conflict(j: &Json) -> Result<ConflictHist, String> {
    Ok(ConflictHist {
        far: j.uint("f")?,
        d: read_pairs(j, "d", CONFLICT_DEPTH)?,
    })
}

/// One histogram per access mode, in `MODE_*` order.
fn read_modes<T>(j: &Json, read: fn(&Json) -> Result<T, String>) -> Result<[T; MODES], String> {
    let Some([latency, pipelined, stream]) = j.as_arr() else {
        return Err(format!("expected an array of {MODES} histograms"));
    };
    Ok([read(latency)?, read(pipelined)?, read(stream)?])
}

/// A fixed-length array of non-negative integers under `key`.
fn read_uints<const N: usize>(j: &Json, key: &str) -> Result<[u64; N], String> {
    let mut out = [0; N];
    for (slot, n) in out.iter_mut().zip(j.array_of(key, N)?) {
        *slot = n
            .as_uint()
            .ok_or_else(|| format!("key {key:?}: entry is not a non-negative integer"))?;
    }
    Ok(out)
}

/// The `len` entries of the array under `key`, each read by `read`;
/// an entry's error is prefixed with the key.
fn read_each<T>(
    j: &Json,
    key: &str,
    len: usize,
    read: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let entry = |e| read(e).map_err(|err| format!("key {key:?}: {err}"));
    j.array_of(key, len)?.iter().map(entry).collect()
}

fn read_phase_thread(j: &Json) -> Result<PhaseThread, String> {
    Ok(PhaseThread {
        acc: read_uints(j, "acc")?,
        loads: j.uint("ld")?,
        stores: j.uint("st")?,
        instructions: j.uint("ins")?,
        ifetches: j.uint("if")?,
        stream_pages: read_uints(j, "sp")?,
        line: read_modes(j.member("line")?, read_hist)?,
        pages: read_each(j, "pg", NUM_SHIFTS, |hs| read_modes(hs, read_hist))?,
        code: read_each(j, "code", NUM_CODE_SHIFTS, read_hist)?,
        conflict: read_each(j, "cf", CONFLICT_SHAPES.len(), |cs| {
            read_modes(cs, read_conflict)
        })?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference: distinct keys since previous access.
    fn naive_distances(keys: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            let prev = keys[..i].iter().rposition(|&x| x == k);
            out.push(prev.map(|p| {
                let mut seen = std::collections::HashSet::new();
                for &x in &keys[p + 1..i] {
                    seen.insert(x);
                }
                seen.len() as u64
            }));
        }
        out
    }

    /// Deterministic pseudo-random draws below `n`.
    fn draws(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |n| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        }
    }

    #[test]
    fn tracker_matches_naive_reference() {
        // Deterministic pseudo-random key stream with heavy reuse.
        let mut next = draws(0x1234_5678);
        let small: Vec<u64> = (0..2000).map(|_| next(97)).collect();
        // A hot set smaller than the front mixed with scans over a few
        // thousand line keys of a 48-bit address space: distances
        // straddle the front, and the rest is renumbered several times.
        let hot: Vec<u64> = (0..12)
            .map(|i| (0xffff_ffff_f000 - i * 4096) >> 6)
            .collect();
        let mut mixed = Vec::new();
        while mixed.len() < 10_000 {
            let (start, len) = (next(6000), 200 + next(2800));
            for j in start..start + len {
                mixed.push((0x7f3a_0000_0000 + j * 192) >> 6);
                if next(3) == 0 {
                    mixed.push(hot[next(12) as usize]);
                }
            }
        }
        assert!(mixed.iter().any(|&k| k > 1 << 41));
        // Keys the slot table holds one or two to a block: both sides of
        // the edges of far-apart blocks (k * BLOCK - 1 and k * BLOCK), a
        // key inside each, key 0 and the largest line key, drawn with a
        // hot subset so distances fall on both sides of the front.
        let top = u64::MAX >> 6;
        let mut pool = vec![0, top, top - 1, BLOCK as u64 - 1, BLOCK as u64];
        for _ in 0..150 {
            let block = (next(1 << 24) << 24 | next(1 << 24)).max(1);
            let edge = block << BLOCK_BITS;
            pool.extend([edge - 1, edge, edge + next(BLOCK as u64)]);
        }
        let sparse: Vec<u64> = (0..8000)
            .map(|_| match next(4) {
                0 => pool[next(16) as usize],
                _ => pool[next(pool.len() as u64) as usize],
            })
            .collect();
        for (name, keys) in [("small", &small), ("mixed", &mixed), ("sparse", &sparse)] {
            let want = naive_distances(keys);
            let mut tr = ReuseTracker::new();
            let mut seen = std::collections::HashSet::new();
            let (mut renumbered, mut straddled) = (0, [false; 2]);
            for (i, &k) in keys.iter().enumerate() {
                let before = tr.next;
                assert_eq!(tr.access(k), want[i], "{name}: access {i} key {k}");
                seen.insert(k);
                assert_eq!(tr.distinct(), seen.len(), "{name}: access {i}");
                renumbered += usize::from(tr.next < before);
                if let Some(d) = want[i] {
                    straddled[usize::from(d >= FRONT as u64)] = true;
                }
            }
            if name != "small" {
                assert_eq!(
                    straddled, [true; 2],
                    "{name}: distances on both sides of the front"
                );
                assert!(
                    renumbered >= 3,
                    "{name}: rest renumbered {renumbered} times"
                );
            }
            if name == "sparse" {
                assert!(seen.contains(&0) && seen.contains(&top));
                let blocks = tr.table.blocks.len();
                assert!(blocks >= 300, "sparse: keys in only {blocks} blocks");
            }
        }
    }

    #[test]
    fn tracker_survives_compaction() {
        // Force several compactions with a small working set: distances
        // stay exact across renumbering.
        let mut tr = ReuseTracker::new();
        for round in 0..3u64 {
            for k in 0..40_000u64 {
                let d = tr.access(k % 50);
                if round > 0 || k >= 50 {
                    assert_eq!(d, Some(49), "round {round} k {k}");
                }
            }
        }
    }

    #[test]
    fn bucket_bounds_partition_the_distance_axis() {
        let mut expect = 0u64;
        for idx in 0..NUM_BUCKETS - 1 {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, expect, "bucket {idx} lower bound");
            assert!(hi >= lo);
            expect = hi + 1;
        }
        for d in [0, 1, 15, 16, 17, 100, 1 << 20, (1 << 30) + 12345] {
            let idx = bucket_of(d);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= d && d <= hi, "distance {d} in bucket {idx}");
        }
    }

    #[test]
    fn misses_beyond_interpolates() {
        let mut h = ReuseHistogram {
            cold: 5,
            ..Default::default()
        };
        // 100 accesses at exact distance 8.
        h.buckets.push((bucket_of(8) as u32, 100));
        assert_eq!(h.misses_beyond(9), 5.0); // all hit
        assert_eq!(h.misses_beyond(8), 105.0); // dist 8 >= cap 8: miss
        assert_eq!(h.misses_beyond(0), 105.0);
        assert_eq!(h.total(), 105);
    }

    #[test]
    fn aggregator_merges_phases_by_label() {
        let mut recs = vec![ThreadRecorder::new(), ThreadRecorder::new()];
        let mut agg = PhaseAggregator::new();
        agg.region_enter("k:sweep", &mut recs);
        recs[0].data(0x1000, false, MODE_STREAM);
        recs[1].data(0x2000, true, MODE_LATENCY);
        agg.flush(&mut recs, true);
        agg.region_exit(&mut recs);
        agg.region_enter("k:sweep", &mut recs);
        recs[0].data(0x1000, false, MODE_STREAM);
        agg.flush(&mut recs, true);
        agg.region_exit(&mut recs);
        let p = agg.finish(&mut recs, "cg", "S", 1.25);
        assert_eq!(p.phases.len(), 1);
        let ph = &p.phases[0];
        assert_eq!(ph.label, "k:sweep");
        assert_eq!(ph.barriers, 2);
        assert_eq!(ph.threads[0].acc[MODE_STREAM], 2);
        assert_eq!(ph.threads[1].stores, 1);
        // Second access of the same line is a repeat at distance 0.
        assert_eq!(ph.threads[0].line[MODE_STREAM].cold, 1);
        assert_eq!(ph.threads[0].line[MODE_STREAM].buckets, vec![(0, 1)]);
    }

    /// A small two-phase profile with reuse and conflict histograms.
    fn sample_profile() -> StreamProfile {
        let mut recs = vec![ThreadRecorder::new()];
        let mut agg = PhaseAggregator::new();
        agg.region_enter("a:b", &mut recs);
        for i in 0..500u64 {
            recs[0].data(0x40_0000 + i * 64, i % 3 == 0, (i % 3) as usize);
        }
        recs[0].compute(1234);
        recs[0].ifetch(0x40_0000);
        agg.flush(&mut recs, true);
        agg.region_exit(&mut recs);
        recs[0].data(0x40_0000, false, MODE_LATENCY);
        agg.finish(&mut recs, "mg", "W", -3.5e-2)
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let p = sample_profile();
        let json = p.to_json();
        let back = StreamProfile::from_json(&json).expect("parses");
        assert_eq!(p, back);
        assert_eq!(back.checksum.to_bits(), p.checksum.to_bits());
    }

    #[test]
    fn histograms_no_capture_can_produce_are_rejected() {
        let json = sample_profile().to_json();
        // Rewrite the first `index,count` pair listed under `key`.
        type Pair = fn(&str, &str) -> String;
        let patch = |key: &str, pair: Pair| {
            let at = json.find(&format!("\"{key}\":[[")).unwrap() + key.len() + 5;
            let end = at + json[at..].find(']').unwrap();
            let (idx, n) = json[at..end].split_once(',').unwrap();
            format!("{}{}{}", &json[..at], pair(idx, n), &json[end..])
        };
        assert_eq!(patch("b", |i, n| format!("{i},{n}")), json);
        let cases: [(&str, Pair); 7] = [
            ("b", |_, n| format!("600,{n}")),
            ("b", |_, n| format!("-5,{n}")),
            ("b", |_, n| format!("1.5,{n}")),
            ("b", |i, n| format!("{i},{n}],[{i},{n}")),
            ("b", |i, _| format!("{i},0")),
            ("d", |_, n| format!("{CONFLICT_DEPTH},{n}")),
            ("d", |i, n| format!("{i},{n}],[{i},{n}")),
        ];
        for (case, (key, pair)) in cases.into_iter().enumerate() {
            let err = StreamProfile::from_json(&patch(key, pair))
                .expect_err(&format!("case {case} must not parse"));
            assert!(err.contains(&format!("key {key:?}")), "case {case}: {err}");
        }
    }

    #[test]
    fn engine_version_mismatch_is_rejected() {
        let p = StreamProfile {
            app: "cg".into(),
            class: "S".into(),
            threads: 1,
            checksum: 0.5,
            phases: Vec::new(),
        };
        let json = p.to_json();
        assert!(StreamProfile::from_json(&json).is_ok());
        // The same profile stamped by a past (or future) engine must be
        // refused, whatever else it contains.
        let cur = format!("\"engine\":{}", crate::ENGINE_VERSION);
        for other in [0, crate::ENGINE_VERSION - 1, crate::ENGINE_VERSION + 1] {
            let stale = json.replace(&cur, &format!("\"engine\":{other}"));
            assert_ne!(stale, json, "patch must take");
            let err = StreamProfile::from_json(&stale).unwrap_err();
            assert!(err.contains("engine version"), "{err}");
        }
        // Pre-stamp profiles (no key at all) are equally stale.
        let unstamped = json.replace(&format!("{cur},"), "");
        let err = StreamProfile::from_json(&unstamped).unwrap_err();
        assert!(err.contains("engine"), "{err}");
    }

    #[test]
    fn conflict_capture_sees_set_thrash_the_full_assoc_hists_hide() {
        // Four lines 32 KB apart map to the same set of the 512-set
        // 2-way shape (Opteron L1D) but are only 4 distinct lines to the
        // fully-associative histogram.
        let shape_2w = conflict_shape_index(GRAN_LINE, 512, 2).unwrap();
        let shape_16w = conflict_shape_index(GRAN_LINE, 1024, 16).unwrap();
        let mut recs = vec![ThreadRecorder::new()];
        let mut agg = PhaseAggregator::new();
        for _ in 0..100u32 {
            for slot in 0..4u64 {
                recs[0].data(slot * 512 * 64, false, MODE_LATENCY);
            }
        }
        agg.flush(&mut recs, true);
        let p = agg.finish(&mut recs, "t", "S", 0.0);
        let t = &p.phases[0].threads[0];

        // Full-assoc line view: working set of 4 lines, distance 3 — a
        // 2-way cache looks clean at any capacity >= 4 lines.
        assert_eq!(t.line[MODE_LATENCY].misses_beyond(4), 4.0); // cold only

        // Per-set view: all four collide in one set, so 2 ways thrash on
        // every access while 16 ways absorb the whole working set.
        let two_way = &t.conflict[shape_2w][MODE_LATENCY];
        assert_eq!(two_way.misses_beyond(2), 400.0);
        // 1024-set shape: lines 32 KB apart also alias (period 64 KB)...
        let sixteen_way = &t.conflict[shape_16w][MODE_LATENCY];
        // ...but 16 ways hold all 4 residents: only the cold misses.
        assert_eq!(sixteen_way.misses_beyond(16), 4.0);
        assert_eq!(two_way.total(), 400);
    }

    #[test]
    fn conflict_hist_merge_and_depth_cap() {
        let mut a = ConflictHist {
            far: 2,
            d: vec![(0, 10), (3, 5)],
        };
        let b = ConflictHist {
            far: 1,
            d: vec![(1, 7), (3, 5)],
        };
        a.merge(&b);
        assert_eq!(a.far, 3);
        assert_eq!(a.d, vec![(0, 10), (1, 7), (3, 10)]);
        assert_eq!(a.misses_beyond(2), 3.0 + 10.0);
        assert_eq!(a.misses_beyond(1), 3.0 + 7.0 + 10.0);

        // Reuse deeper than the tracked depth lands in `far`.
        let shape = &CONFLICT_SHAPES[0];
        let mut tr = LruSets::<CONFLICT_DEPTH>::new(shape.sets as usize, CONFLICT_DEPTH);
        let set_stride = u64::from(shape.sets); // same set every access
        for k in 0..=CONFLICT_DEPTH as u64 {
            assert!(matches!(tr.access(k * set_stride), Mru::Miss(_)));
        }
        // Key 0 was pushed out of the depth-32 window: still a miss.
        assert!(matches!(tr.access(0), Mru::Miss(_)));
        // Key at depth 1 survives and reports its exact distance.
        assert_eq!(tr.access(CONFLICT_DEPTH as u64 * set_stride), Mru::Hit(1));
    }
}
