//! Set-associative cache model (L1D and L2).
//!
//! The platforms' cache organisations matter to the paper's story in two
//! ways: page walks triggered by TLB misses are themselves memory accesses
//! that often hit in L2 (making a walk cheaper than a DRAM trip), and the
//! Xeon's two cores *share* their L2 while the Opteron's L2s are private
//! (§2.1) — part of why the two platforms scale differently.
//!
//! Caches here are indexed by address with true LRU per set, at cache-line
//! (64 B) granularity. Indexing is virtual for ordinary data (a VIPT
//! simplification: the simulated job is one shared address space, so no
//! aliasing can arise) and physical for page-walk references, which carry
//! a tag bit to keep the two keyspaces disjoint. The sets live in one
//! [`LruSets`].

use lpomp_prof::lru::{LruSets, Mru};

/// Cache line size in bytes on both evaluation platforms.
pub const LINE_BYTES: u64 = 64;
/// log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;

/// Geometry of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name ("Opteron L1D").
    pub name: &'static str,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u16,
}

impl CacheConfig {
    /// Number of sets (capacity / line / ways). Must be a power of two.
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / LINE_BYTES / self.ways as u64) as usize
    }
}

/// A set-associative cache with true LRU per set.
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Resident line addresses, MRU first per set.
    lines: LruSets,
}

impl Cache {
    /// Instantiate a cache from its geometry.
    pub fn new(config: CacheConfig) -> Self {
        Cache {
            lines: LruSets::new(config.sets(), usize::from(config.ways)),
            config,
        }
    }

    /// The geometry this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Access the line containing `addr`, filling on miss. Returns `true`
    /// on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        matches!(self.lines.access(addr >> LINE_SHIFT), Mru::Hit(_))
    }

    /// Probe without updating LRU order.
    pub fn probe(&self, addr: u64) -> bool {
        self.lines.find(addr >> LINE_SHIFT).is_some()
    }

    /// Invalidate the whole cache.
    pub fn flush(&mut self) {
        self.lines.clear();
    }

    /// Lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.lines.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: CacheConfig = CacheConfig {
        name: "tiny",
        capacity_bytes: 4 * 64, // 4 lines
        ways: 2,                // 2 sets
    };

    #[test]
    fn config_sets_arithmetic() {
        assert_eq!(TINY.sets(), 2);
        let l2 = CacheConfig {
            name: "l2",
            capacity_bytes: 1024 * 1024,
            ways: 16,
        };
        assert_eq!(l2.sets(), 1024);
    }

    #[test]
    fn miss_then_hit_within_line() {
        let mut c = Cache::new(TINY);
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x13f)); // same 64B line
        assert!(!c.access(0x140)); // next line
        assert_eq!(c.occupancy(), 2, "two lines filled, nothing evicted");
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = Cache::new(TINY);
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        c.access(0 << LINE_SHIFT);
        c.access(2 << LINE_SHIFT);
        c.access(0 << LINE_SHIFT); // 2 is now LRU
        assert!(!c.access(4 << LINE_SHIFT)); // misses and evicts 2
        assert!(c.probe(0 << LINE_SHIFT));
        assert!(!c.probe(2 << LINE_SHIFT));
        assert!(c.probe(4 << LINE_SHIFT));
        assert_eq!(c.occupancy(), 2, "one of three lines evicted");
    }

    #[test]
    fn flush_clears() {
        let mut c = Cache::new(TINY);
        c.access(0x1000);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.probe(0x1000));
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let cfg = CacheConfig {
            name: "small",
            capacity_bytes: 64 * 64, // 64 lines
            ways: 4,
        };
        let mut c = Cache::new(cfg);
        // Stream 1024 distinct lines twice: second pass still misses
        // (capacity 64 << 1024).
        for pass in 0..2 {
            for i in 0..1024u64 {
                let hit = c.access(i << LINE_SHIFT);
                if pass == 1 {
                    assert!(!hit, "line {i} unexpectedly survived");
                }
            }
        }
    }

    #[test]
    fn small_working_set_fully_hits_on_second_pass() {
        let cfg = CacheConfig {
            name: "small",
            capacity_bytes: 64 * 64,
            ways: 4,
        };
        let mut c = Cache::new(cfg);
        for i in 0..32u64 {
            c.access(i << LINE_SHIFT);
        }
        for i in 0..32u64 {
            assert!(c.access(i << LINE_SHIFT));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        Cache::new(CacheConfig {
            name: "bad",
            capacity_bytes: 3 * 64,
            ways: 1,
        });
    }
}
