//! A single TLB entry array: one page size, set-associative or fully
//! associative, true LRU.
//!
//! Real TLBs keep *separate* entry arrays per page size (the paper's
//! Table 1 lists "L1DTLB (4KB) Size" and "L1DTLB (2MB) Size" as distinct
//! rows, and notes the 2 MB arrays are much smaller — 32 vs 128 on the
//! Xeon, 8 vs 32 on the Opteron L1, and *zero* 2 MB entries in the Opteron
//! L2). [`TlbArray`] models one such array.
//!
//! Entries live in one [`LruSets`]: a fully associative array is one set
//! of `capacity` ways, so a hit under high temporal locality costs
//! O(1)–O(small) and is exactly true LRU. Set-associative arrays index by
//! the low VPN bits and keep LRU per set.

use lpomp_prof::lru::{LruSets, Mru};
use lpomp_vm::PageSize;

/// Associativity of a TLB array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assoc {
    /// Every entry can hold any page (CAM-style, as in most L1 TLBs).
    Full,
    /// `n`-way set associative (as in the Opteron's large L2 DTLB).
    Ways(u16),
}

/// Hit/miss counters for one array.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArrayStats {
    /// Lookups that found the VPN.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries displaced by fills.
    pub evictions: u64,
    /// Whole-array invalidations.
    pub flushes: u64,
}

impl ArrayStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in [0, 1]; 0 when no lookups occurred.
    pub fn miss_ratio(&self) -> f64 {
        let n = self.lookups();
        if n == 0 {
            0.0
        } else {
            self.misses as f64 / n as f64
        }
    }
}

/// One TLB entry array for a single page size.
#[derive(Debug)]
pub struct TlbArray {
    page_size: PageSize,
    capacity: u16,
    /// Resident VPNs, MRU first per set (true LRU order).
    entries: LruSets,
    pub(crate) stats: ArrayStats,
}

impl TlbArray {
    /// Create an array with `capacity` entries of `page_size` pages.
    /// A zero-capacity array is legal and never hits (the Opteron L2 DTLB's
    /// 2 MB row). For `Assoc::Ways(w)`, `capacity` must divide evenly into
    /// sets of `w` ways.
    pub fn new(page_size: PageSize, capacity: u16, assoc: Assoc) -> Self {
        let ways = match assoc {
            Assoc::Full => capacity.max(1),
            Assoc::Ways(w) => {
                assert!(w > 0, "ways must be positive");
                assert!(
                    capacity.is_multiple_of(w),
                    "capacity {capacity} not divisible by ways {w}"
                );
                w
            }
        };
        // A zero-capacity array is one set of no ways.
        let sets = usize::from((capacity / ways).max(1));
        TlbArray {
            page_size,
            capacity,
            entries: LruSets::new(sets, usize::from(ways.min(capacity))),
            stats: ArrayStats::default(),
        }
    }

    /// Page size this array caches translations for.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> u16 {
        self.capacity
    }

    /// Bytes of address space this array can cover when full ("TLB reach").
    pub fn coverage_bytes(&self) -> u64 {
        self.capacity as u64 * self.page_size.bytes()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ArrayStats {
        self.stats
    }

    /// Current number of live entries across all sets.
    pub fn occupancy(&self) -> usize {
        self.entries.occupancy()
    }

    /// Look up a VPN, updating LRU order and counters.
    #[inline]
    pub fn lookup(&mut self, vpn: u64) -> bool {
        self.hit(vpn) || {
            self.stats.misses += 1;
            false
        }
    }

    /// The hit half of [`lookup`](TlbArray::lookup): when `vpn` is
    /// resident, move it to the front of its set and count a hit. A miss
    /// changes nothing, so a caller probing several arrays counts it once
    /// it knows none of them hit.
    #[inline]
    pub(crate) fn hit(&mut self, vpn: u64) -> bool {
        match self.entries.find(vpn) {
            Some(pos) => {
                self.entries.promote(vpn, pos);
                self.stats.hits += 1;
                true
            }
            None => false,
        }
    }

    /// Probe without disturbing LRU order or counters.
    pub fn probe(&self, vpn: u64) -> bool {
        self.entries.find(vpn).is_some()
    }

    /// True when `vpn` is the most-recently-used entry of its set — i.e.
    /// a [`lookup`] of it would hit *and* its move-to-front would be a
    /// no-op. The condition under which a hit may be recorded via
    /// [`record_hit_bypass`] without changing any future eviction.
    ///
    /// [`lookup`]: TlbArray::lookup
    /// [`record_hit_bypass`]: TlbArray::record_hit_bypass
    pub fn is_mru(&self, vpn: u64) -> bool {
        self.entries.is_mru(vpn)
    }

    /// Record a hit without searching or reordering the set.
    ///
    /// Correct only when the caller has proven the entry is resident and
    /// already MRU (see [`is_mru`]) — then `lookup` would bump
    /// `stats.hits` and leave the array state untouched, which is exactly
    /// what this does without the O(ways) scan.
    ///
    /// [`is_mru`]: TlbArray::is_mru
    #[inline]
    pub fn record_hit_bypass(&mut self) {
        self.stats.hits += 1;
    }

    /// Install a VPN (after a miss + walk), evicting the set's LRU entry if
    /// full. Returns the evicted VPN, if any. A VPN already present (e.g.
    /// filled by the other SMT context between our miss and our fill) only
    /// has its LRU position refreshed.
    pub fn fill(&mut self, vpn: u64) -> Option<u64> {
        if self.capacity == 0 {
            return None;
        }
        match self.entries.access(vpn) {
            Mru::Miss(Some(evicted)) => {
                self.stats.evictions += 1;
                Some(evicted)
            }
            _ => None,
        }
    }

    /// Invalidate every entry.
    pub fn flush(&mut self) {
        self.entries.clear();
        self.stats.flushes += 1;
    }

    /// Invalidate one page if present (e.g. on munmap).
    pub fn invalidate(&mut self, vpn: u64) -> bool {
        self.entries.remove(vpn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut a = TlbArray::new(PageSize::Small4K, 4, Assoc::Full);
        assert!(!a.lookup(7));
        a.fill(7);
        assert!(a.lookup(7));
        assert_eq!(a.stats().hits, 1);
        assert_eq!(a.stats().misses, 1);
    }

    #[test]
    fn true_lru_eviction_order() {
        let mut a = TlbArray::new(PageSize::Small4K, 3, Assoc::Full);
        a.fill(1);
        a.fill(2);
        a.fill(3);
        // Touch 1 so 2 becomes LRU.
        assert!(a.lookup(1));
        let evicted = a.fill(4);
        assert_eq!(evicted, Some(2));
        assert!(a.probe(1) && a.probe(3) && a.probe(4));
        assert!(!a.probe(2));
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut a = TlbArray::new(PageSize::Large2M, 0, Assoc::Full);
        assert!(!a.lookup(1));
        assert_eq!(a.fill(1), None);
        assert!(!a.lookup(1));
        assert_eq!(a.coverage_bytes(), 0);
    }

    #[test]
    fn set_associative_conflicts() {
        // 8 entries, 2-way: 4 sets. VPNs 0,4,8 all map to set 0.
        let mut a = TlbArray::new(PageSize::Small4K, 8, Assoc::Ways(2));
        a.fill(0);
        a.fill(4);
        a.fill(8); // evicts 0 (LRU of set 0)
        assert!(!a.probe(0));
        assert!(a.probe(4) && a.probe(8));
        // Other sets unaffected.
        a.fill(1);
        assert!(a.probe(1));
    }

    #[test]
    fn fill_of_present_entry_does_not_duplicate() {
        let mut a = TlbArray::new(PageSize::Small4K, 4, Assoc::Full);
        a.fill(9);
        a.fill(9);
        assert_eq!(a.occupancy(), 1);
    }

    #[test]
    fn flush_empties_and_counts() {
        let mut a = TlbArray::new(PageSize::Small4K, 4, Assoc::Full);
        a.fill(1);
        a.fill(2);
        a.flush();
        assert_eq!(a.occupancy(), 0);
        assert!(!a.probe(1));
        assert_eq!(a.stats().flushes, 1);
    }

    #[test]
    fn invalidate_single_entry() {
        let mut a = TlbArray::new(PageSize::Small4K, 4, Assoc::Full);
        a.fill(1);
        a.fill(2);
        assert!(a.invalidate(1));
        assert!(!a.invalidate(1));
        assert!(a.probe(2));
    }

    #[test]
    fn coverage_matches_table1_arithmetic() {
        // Xeon DTLB: 128 × 4 KB = 512 KB; 32 × 2 MB = 64 MB.
        let small = TlbArray::new(PageSize::Small4K, 128, Assoc::Full);
        let large = TlbArray::new(PageSize::Large2M, 32, Assoc::Full);
        assert_eq!(small.coverage_bytes(), 512 * 1024);
        assert_eq!(large.coverage_bytes(), 64 * 1024 * 1024);
    }

    #[test]
    fn miss_ratio_computation() {
        let mut a = TlbArray::new(PageSize::Small4K, 2, Assoc::Full);
        a.lookup(1); // miss
        a.fill(1);
        a.lookup(1); // hit
        assert!((a.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_ways_config_panics() {
        TlbArray::new(PageSize::Small4K, 10, Assoc::Ways(4));
    }
}
