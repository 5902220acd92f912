//! The true-LRU bodies under the simulated caches, the TLB entry arrays
//! and the capture's per-set conflict trackers.
//!
//! [`LruSets`] keeps all keys of a `sets × ways` structure in one
//! allocation: set `s` is the MRU-first row of `ways` keys from
//! `s * ways`, whose first `lens[s]` are live, and a key's set is its low
//! bits. `move_to_front` reorders a row without allocating: it shifts
//! the keys ahead of the accessed one back a slot while it scans, so a
//! reuse at depth `d` costs `d` steps and an MRU hit writes nothing.
//! That suits the caches' and the set-associative TLB arrays' rows of 2
//! to 16 ways and the trackers' fixed depth.
//!
//! [`IndexedLru`] is the fully associative body: a row of 32 or 128 TLB
//! entries, probed on every full translation, would cost a scan to the
//! hit's depth and a whole-row scan per miss. It keeps its keys in fixed
//! slots, finds a key's slot through a chained hash index and orders the
//! slots on a doubly linked recency list, so a hit, a miss and a fill
//! each cost O(1), and an empty array answers a miss from its length
//! alone. Both bodies evict the same victim, the least recently used key.

/// Outcome of `move_to_front` and [`LruSets::access`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mru {
    /// The key was live at this depth (0 = MRU) and now leads its list.
    Hit(usize),
    /// The key was absent and now leads its list; a full list pushed its
    /// LRU key, carried here, off the end.
    Miss(Option<u64>),
}

/// Move `key` to the front of the MRU-first list `list[..len]`, whose
/// capacity is `list.len()`, inserting it when absent. On a miss the
/// caller grows `len` by one unless the list was full.
#[inline]
pub(crate) fn move_to_front(list: &mut [u64], len: usize, key: u64) -> Mru {
    if len > 0 && list[0] == key {
        return Mru::Hit(0);
    }
    // Shift while scanning: each entry takes its predecessor's key until
    // the key itself turns up.
    let mut carry = key;
    for (d, slot) in list[..len].iter_mut().enumerate() {
        let k = std::mem::replace(slot, carry);
        if k == key {
            return Mru::Hit(d);
        }
        carry = k;
    }
    if len < list.len() {
        list[len] = carry;
        Mru::Miss(None)
    } else {
        Mru::Miss(Some(carry))
    }
}

/// A `sets × ways` true-LRU structure in one allocation (see the module
/// docs). A zero-way structure is legal: it holds nothing.
///
/// `WAYS` fixes the way count at compile time, so the row arithmetic of a
/// structure whose depth is a constant (the conflict trackers) folds away;
/// the default `0` takes it from [`new`](LruSets::new) at run time.
#[derive(Clone, Debug)]
pub struct LruSets<const WAYS: usize = 0> {
    ways: usize,
    mask: u64,
    keys: Vec<u64>,
    lens: Vec<u16>,
}

impl<const WAYS: usize> LruSets<WAYS> {
    /// An empty structure of `sets` sets (a power of two) of `ways` keys.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two(), "{sets} sets: not a power of two");
        assert!(WAYS == 0 || ways == WAYS, "{ways} ways, not {WAYS}");
        assert!(ways <= usize::from(u16::MAX), "{ways} ways do not fit");
        LruSets {
            ways,
            mask: (sets - 1) as u64,
            keys: vec![0; sets * ways],
            lens: vec![0; sets],
        }
    }

    #[inline]
    fn ways(&self) -> usize {
        if WAYS == 0 {
            self.ways
        } else {
            WAYS
        }
    }

    #[inline]
    fn set_of(&self, key: u64) -> usize {
        (key & self.mask) as usize
    }

    /// The live MRU-first keys of `key`'s set.
    #[inline]
    fn live(&self, key: u64) -> &[u64] {
        let set = self.set_of(key);
        &self.keys[set * self.ways()..][..usize::from(self.lens[set])]
    }

    /// Access `key`: move it to the front of its set, filling it (and
    /// evicting the set's LRU key when full) if absent.
    #[inline]
    pub fn access(&mut self, key: u64) -> Mru {
        let (set, ways) = (self.set_of(key), self.ways());
        let row = &mut self.keys[set * ways..][..ways];
        let len = &mut self.lens[set];
        let outcome = move_to_front(row, usize::from(*len), key);
        if outcome == Mru::Miss(None) {
            *len += 1;
        }
        outcome
    }

    /// Depth of `key` in its set (0 = MRU), without reordering.
    #[inline]
    pub fn find(&self, key: u64) -> Option<usize> {
        self.live(key).iter().position(|&k| k == key)
    }

    /// Move `key`, found at depth `pos` by [`find`](LruSets::find), to
    /// the front of its set. Unlike `move_to_front` it shifts without a
    /// per-step compare, which cost the benchmark's `cycle-2m` 8%.
    #[inline]
    pub fn promote(&mut self, key: u64, pos: usize) {
        let start = self.set_of(key) * self.ways();
        let mut carry = key;
        for slot in &mut self.keys[start..][..=pos] {
            carry = std::mem::replace(slot, carry);
        }
    }

    /// True when `key` is the MRU key of its set.
    #[inline]
    pub fn is_mru(&self, key: u64) -> bool {
        self.live(key).first() == Some(&key)
    }

    /// Remove `key` from its set; false when it was absent.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(pos) = self.find(key) else {
            return false;
        };
        let (set, ways) = (self.set_of(key), self.ways());
        let len = &mut self.lens[set];
        self.keys[set * ways..][pos..usize::from(*len)].rotate_left(1);
        *len -= 1;
        true
    }

    /// Empty every set.
    pub fn clear(&mut self) {
        self.lens.fill(0);
    }

    /// Keys currently live across all sets.
    pub fn occupancy(&self) -> usize {
        self.lens.iter().map(|&n| usize::from(n)).sum()
    }
}

/// One slot's neighbours on the recency list and its successor on its
/// hash bucket's chain.
#[derive(Clone, Copy, Debug, Default)]
struct Link {
    prev: u16,
    next: u16,
    chain: u16,
}

/// A fully associative true-LRU of up to `capacity` keys whose hits,
/// misses and fills cost O(1) (see the module docs). A zero-capacity
/// structure is legal: it holds nothing.
///
/// Slot `capacity` is the sentinel: its `next` is the MRU slot and its
/// `prev` the LRU slot, so the recency list is circular and linking needs
/// no end cases, and it ends every hash chain.
#[derive(Clone, Debug)]
pub struct IndexedLru {
    /// The key held by each slot; meaningful for live slots only.
    keys: Vec<u64>,
    /// Per slot plus the sentinel.
    links: Vec<Link>,
    /// First slot of each hash bucket's chain.
    buckets: Vec<u16>,
    /// Slots that hold no key; all of them when empty.
    free: Vec<u16>,
    /// `64 - log2(buckets.len())`: a key's bucket is the top bits of its
    /// Fibonacci hash.
    shift: u32,
}

impl IndexedLru {
    /// An empty structure of `capacity` keys.
    pub fn new(capacity: u16) -> Self {
        let capacity = usize::from(capacity);
        // At most one key per two buckets keeps chains short.
        let buckets = (2 * capacity).next_power_of_two().max(2);
        let mut lru = IndexedLru {
            keys: vec![0; capacity],
            links: vec![Link::default(); capacity + 1],
            buckets: vec![0; buckets],
            free: Vec::with_capacity(capacity),
            shift: 64 - buckets.trailing_zeros(),
        };
        lru.clear();
        lru
    }

    #[inline]
    fn sentinel(&self) -> u16 {
        self.keys.len() as u16
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.free.len() == self.keys.len()
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    #[inline]
    fn link(&mut self, slot: u16) -> &mut Link {
        &mut self.links[usize::from(slot)]
    }

    /// The slot holding `key`. An empty structure answers without
    /// touching its index.
    #[inline]
    fn find(&self, key: u64) -> Option<u16> {
        if self.is_empty() {
            return None;
        }
        let mut slot = self.buckets[self.bucket(key)];
        while slot != self.sentinel() {
            if self.keys[usize::from(slot)] == key {
                return Some(slot);
            }
            slot = self.links[usize::from(slot)].chain;
        }
        None
    }

    /// Take `slot` off the recency list.
    #[inline]
    fn unlink(&mut self, slot: u16) {
        let Link { prev, next, .. } = self.links[usize::from(slot)];
        self.link(prev).next = next;
        self.link(next).prev = prev;
    }

    /// Put `slot` at the MRU end of the recency list.
    #[inline]
    fn push_front(&mut self, slot: u16) {
        let sentinel = self.sentinel();
        let head = self.links[usize::from(sentinel)].next;
        let link = self.link(slot);
        link.prev = sentinel;
        link.next = head;
        self.link(head).prev = slot;
        self.link(sentinel).next = slot;
    }

    /// Take `slot`, which holds `key`, off its bucket's chain.
    fn unchain(&mut self, slot: u16, key: u64) {
        let after = self.links[usize::from(slot)].chain;
        let bucket = self.bucket(key);
        let mut at = self.buckets[bucket];
        if at == slot {
            self.buckets[bucket] = after;
            return;
        }
        while self.links[usize::from(at)].chain != slot {
            debug_assert_ne!(at, self.sentinel(), "slot {slot} is not on its chain");
            at = self.links[usize::from(at)].chain;
        }
        self.link(at).chain = after;
    }

    /// When `key` is live, make it the MRU key and return true; a miss
    /// changes nothing.
    #[inline]
    pub fn touch(&mut self, key: u64) -> bool {
        let Some(slot) = self.find(key) else {
            return false;
        };
        if self.links[usize::from(self.sentinel())].next != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
        true
    }

    /// Make `key` the MRU key, inserting it when absent. Returns the LRU
    /// key that a full structure evicted to make room (`key` itself when
    /// the capacity is zero).
    pub fn access(&mut self, key: u64) -> Option<u64> {
        if self.touch(key) {
            return None;
        }
        let (slot, evicted) = match self.free.pop() {
            Some(slot) => (slot, None),
            None if self.keys.is_empty() => return Some(key),
            None => {
                let lru = self.links[usize::from(self.sentinel())].prev;
                let old = self.keys[usize::from(lru)];
                self.unchain(lru, old);
                self.unlink(lru);
                (lru, Some(old))
            }
        };
        self.keys[usize::from(slot)] = key;
        let bucket = self.bucket(key);
        self.link(slot).chain = self.buckets[bucket];
        self.buckets[bucket] = slot;
        self.push_front(slot);
        evicted
    }

    /// True when `key` is live.
    pub fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// True when `key` is the MRU key.
    #[inline]
    pub fn is_mru(&self, key: u64) -> bool {
        !self.is_empty()
            && self.keys[usize::from(self.links[usize::from(self.sentinel())].next)] == key
    }

    /// Remove `key`; false when it was absent.
    pub fn remove(&mut self, key: u64) -> bool {
        let Some(slot) = self.find(key) else {
            return false;
        };
        self.unchain(slot, key);
        self.unlink(slot);
        self.free.push(slot);
        true
    }

    /// Remove every key.
    pub fn clear(&mut self) {
        let sentinel = self.sentinel();
        *self.link(sentinel) = Link {
            prev: sentinel,
            next: sentinel,
            chain: sentinel,
        };
        self.buckets.fill(sentinel);
        self.free.clear();
        self.free.extend((0..sentinel).rev());
    }

    /// Keys currently live.
    pub fn occupancy(&self) -> usize {
        self.keys.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-set MRU-first `Vec` body the flat structure replaced in the
    /// caches, the TLB arrays and the conflict trackers.
    struct Naive {
        ways: usize,
        sets: Vec<Vec<u64>>,
    }

    impl Naive {
        fn new(sets: usize, ways: usize) -> Self {
            Naive {
                ways,
                sets: vec![Vec::new(); sets],
            }
        }

        fn set(&mut self, key: u64) -> &mut Vec<u64> {
            let n = self.sets.len() as u64;
            &mut self.sets[(key & (n - 1)) as usize]
        }

        fn access(&mut self, key: u64) -> Mru {
            let ways = self.ways;
            let set = self.set(key);
            if let Some(pos) = set.iter().position(|&k| k == key) {
                let k = set.remove(pos);
                set.insert(0, k);
                return Mru::Hit(pos);
            }
            set.insert(0, key);
            if set.len() > ways {
                Mru::Miss(set.pop())
            } else {
                Mru::Miss(None)
            }
        }

        fn find(&mut self, key: u64) -> Option<usize> {
            self.set(key).iter().position(|&k| k == key)
        }

        fn promote(&mut self, key: u64, pos: usize) {
            let set = self.set(key);
            let k = set.remove(pos);
            set.insert(0, k);
        }

        fn is_mru(&mut self, key: u64) -> bool {
            self.set(key).first() == Some(&key)
        }

        fn remove(&mut self, key: u64) -> bool {
            match self.find(key) {
                Some(pos) => {
                    self.set(key).remove(pos);
                    true
                }
                None => false,
            }
        }

        fn occupancy(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }
    }

    /// SplitMix64 draws in `[0, n)`.
    fn draws(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |n| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// Drive both bodies through a random mix of every operation on
    /// `sets × ways`, comparing after each one. Keys crowd a few hot sets
    /// with more keys than fit, so rows fill, evict and reorder at every
    /// depth.
    fn check<const W: usize>(sets: usize, ways: usize, seed: u64) {
        let mut next = draws(seed);
        let mut flat = LruSets::<W>::new(sets, ways);
        let mut naive = Naive::new(sets, ways);
        let n = sets as u64;
        let hot = [0, n / 2, n - 1];
        let tag = format!("{sets}x{ways} seed {seed:#x}");
        let mut evictions = 0;
        for step in 0..4000 {
            let key = if next(8) == 0 {
                next(1 << 40)
            } else {
                hot[next(3) as usize] + n * next(ways as u64 + 3)
            };
            match next(16) {
                0..=8 => {
                    let got = flat.access(key);
                    assert_eq!(got, naive.access(key), "{tag} step {step}");
                    evictions += usize::from(matches!(got, Mru::Miss(Some(_))));
                }
                9..=11 => {
                    let pos = naive.find(key);
                    assert_eq!(flat.find(key), pos, "{tag} step {step}");
                    if let Some(pos) = pos {
                        flat.promote(key, pos);
                        naive.promote(key, pos);
                    }
                }
                12 | 13 => assert_eq!(flat.remove(key), naive.remove(key), "{tag} step {step}"),
                14 => assert_eq!(flat.is_mru(key), naive.is_mru(key), "{tag} step {step}"),
                _ if next(64) == 0 => {
                    flat.clear();
                    naive.sets.iter_mut().for_each(Vec::clear);
                }
                _ => {}
            }
            assert_eq!(flat.occupancy(), naive.occupancy(), "{tag} step {step}");
            for probe in [key, hot[0], hot[1], hot[2]] {
                assert_eq!(flat.find(probe), naive.find(probe), "{tag} step {step}");
                assert_eq!(flat.is_mru(probe), naive.is_mru(probe), "{tag} step {step}");
            }
        }
        for (s, set) in naive.sets.iter().enumerate() {
            assert_eq!(flat.live(s as u64), set.as_slice(), "{tag} set {s}");
        }
        assert!(evictions > 0, "{tag}: no access filled a full set");
    }

    #[test]
    fn matches_the_per_set_vec_body_on_every_preset_geometry() {
        // L1D 512×2 and 32×8, L2 1024×16 and 4096×8, TLB arrays 1×8,
        // 1×32, 1×128, 256×4 and 128×4.
        let presets = [
            (512, 2),
            (32, 8),
            (1024, 16),
            (4096, 8),
            (1, 8),
            (1, 32),
            (1, 128),
            (256, 4),
            (128, 4),
        ];
        for (i, &(sets, ways)) in presets.iter().enumerate() {
            check::<0>(sets, ways, 0x5eed + i as u64);
        }
        // The conflict trackers' compile-time depth.
        const DEPTH: usize = crate::reuse::CONFLICT_DEPTH;
        for (i, shape) in crate::reuse::CONFLICT_SHAPES.iter().enumerate() {
            check::<DEPTH>(shape.sets as usize, DEPTH, 0xc0f + i as u64);
        }
    }

    #[test]
    fn matches_the_per_set_vec_body_on_random_geometries() {
        let mut next = draws(0x1e57);
        for i in 0..48 {
            let sets = 1 << next(11);
            let ways = 1 + next(32) as usize;
            check::<0>(sets, ways, 0xa11 + i);
        }
    }

    /// The keys of `lru`, MRU first, read off its recency list.
    fn recency(lru: &IndexedLru) -> Vec<u64> {
        let sentinel = lru.sentinel();
        let mut keys = Vec::new();
        let mut at = lru.links[usize::from(sentinel)].next;
        while at != sentinel {
            keys.push(lru.keys[usize::from(at)]);
            at = lru.links[usize::from(at)].next;
        }
        keys
    }

    /// Drive [`IndexedLru`] and a one-set [`Naive`] through a random mix
    /// of every operation, comparing each outcome, evicted key, `is_mru`,
    /// the occupancy and the whole recency order after each one. Keys are
    /// dense, 2 MB-strided, ASID-tagged or random, more than fit, so the
    /// structure fills, evicts and its hash chains grow and shrink.
    fn check_indexed(capacity: u16, seed: u64) {
        let mut next = draws(seed);
        let mut lru = IndexedLru::new(capacity);
        let mut naive = Naive::new(1, usize::from(capacity));
        let span = capacity as u64 + 3;
        let tag = format!("capacity {capacity} seed {seed:#x}");
        let mut evictions = 0;
        for step in 0..4000 {
            let key = match next(8) {
                0 => next(1 << 40),
                1 => next(span) << 9,
                2 => next(span) | next(3) << 48,
                _ => next(span),
            };
            match next(16) {
                0..=7 => {
                    assert_eq!(
                        lru.contains(key),
                        naive.find(key).is_some(),
                        "{tag} step {step}"
                    );
                    let want = match naive.access(key) {
                        Mru::Hit(_) => None,
                        Mru::Miss(evicted) => evicted,
                    };
                    assert_eq!(lru.access(key), want, "{tag} step {step}");
                    evictions += usize::from(want.is_some());
                }
                8..=10 => {
                    let pos = naive.find(key);
                    assert_eq!(lru.touch(key), pos.is_some(), "{tag} step {step}");
                    if let Some(pos) = pos {
                        naive.promote(key, pos);
                    }
                }
                11..=13 => assert_eq!(lru.remove(key), naive.remove(key), "{tag} step {step}"),
                14 => assert_eq!(lru.is_mru(key), naive.is_mru(key), "{tag} step {step}"),
                _ if next(64) == 0 => {
                    lru.clear();
                    naive.sets[0].clear();
                }
                _ => {}
            }
            assert_eq!(lru.occupancy(), naive.occupancy(), "{tag} step {step}");
            assert_eq!(recency(&lru), naive.sets[0], "{tag} step {step}");
            assert!(
                naive.sets[0].iter().all(|&k| lru.contains(k)),
                "{tag} step {step}: a live key is missing from the index"
            );
            if let Some(&mru) = naive.sets[0].first() {
                assert!(lru.is_mru(mru), "{tag} step {step}");
            }
        }
        assert!(evictions > 0, "{tag}: no access filled a full structure");
    }

    #[test]
    fn indexed_lru_matches_the_naive_body() {
        // Empty, one entry, the 8- and 32-entry 2 MB and Opteron 4 KB
        // arrays and the Xeon's 128-entry 4 KB array.
        for (i, capacity) in [0, 1, 8, 32, 128].into_iter().enumerate() {
            check_indexed(capacity, 0x1d0 + i as u64);
        }
        let mut next = draws(0x1d5);
        for i in 0..24 {
            check_indexed(1 + next(300) as u16, 0x1e0 + i);
        }
    }

    #[test]
    fn zero_ways_hold_nothing() {
        let mut s: LruSets = LruSets::new(1, 0);
        assert_eq!(s.access(7), Mru::Miss(Some(7)));
        assert_eq!(s.find(7), None);
        assert!(!s.is_mru(7));
        assert!(!s.remove(7));
        assert_eq!(s.occupancy(), 0);
    }

    #[test]
    fn mru_hit_reports_depth_zero() {
        let mut s: LruSets = LruSets::new(1, 4);
        assert_eq!(s.access(3), Mru::Miss(None));
        assert_eq!(s.access(3), Mru::Hit(0));
        assert_eq!(s.access(4), Mru::Miss(None));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        LruSets::<0>::new(3, 2);
    }
}
