//! Multi-level TLB hierarchies.
//!
//! A [`Tlb`] is one or two levels of [`TlbArray`]s — one array per rung of
//! the translation architecture's page-size ladder per level. Lookups probe
//! every size array of a level in parallel — hardware does not know the
//! page size of an address until it hits or walks — then fall through to
//! the next level; an L2 hit promotes the entry into L1. This mirrors the
//! Opteron's two-level DTLB, whose L2 notably has **no 2 MB entries**
//! (paper §3.2), so large-page translations live only in the 8-entry L1
//! array. On ladders with more rungs (modern x86-64 with 1 GB pages, ARM64
//! granule/contiguous-block ladders) the same structure simply grows more
//! arrays per level.

use crate::array::{ArrayStats, Assoc, TlbArray};
use lpomp_vm::{Arch, MMArch, PageSize, VirtAddr, MAX_LADDER};

/// Geometry of one TLB entry array: entry count and associativity for one
/// ladder rung.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeSlot {
    /// Entry count (may be zero: the rung has no array at this level).
    pub entries: u16,
    /// Associativity of the array.
    pub assoc: Assoc,
}

impl SizeSlot {
    /// No entries for this rung at this level.
    pub const NONE: SizeSlot = SizeSlot {
        entries: 0,
        assoc: Assoc::Full,
    };

    /// Fully associative array of `entries` entries.
    pub const fn full(entries: u16) -> Self {
        SizeSlot {
            entries,
            assoc: Assoc::Full,
        }
    }

    /// `ways`-way set-associative array of `entries` entries.
    pub const fn ways(entries: u16, ways: u16) -> Self {
        SizeSlot {
            entries,
            assoc: Assoc::Ways(ways),
        }
    }
}

/// Geometry of one TLB level: one [`SizeSlot`] per ladder rank. Ranks past
/// the architecture's ladder length are ignored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelConfig {
    /// Per-rank geometry, indexed by ladder rank (rank 0 = base pages).
    pub slots: [SizeSlot; MAX_LADDER],
}

impl LevelConfig {
    /// Convenience for the classic two-size shape: fully associative
    /// arrays for rank 0 (4 KB) and rank 1 (2 MB), nothing above.
    pub const fn full(small_entries: u16, large_entries: u16) -> Self {
        LevelConfig {
            slots: [
                SizeSlot::full(small_entries),
                SizeSlot::full(large_entries),
                SizeSlot::NONE,
                SizeSlot::NONE,
            ],
        }
    }

    /// A level from explicit per-rank slots.
    pub const fn per_rank(slots: [SizeSlot; MAX_LADDER]) -> Self {
        LevelConfig { slots }
    }

    /// Geometry for one ladder rank.
    pub fn slot(&self, rank: usize) -> SizeSlot {
        self.slots[rank]
    }

    /// Entry count for a ladder rank.
    pub fn entries_at(&self, rank: usize) -> u16 {
        self.slots[rank].entries
    }

    /// Reach of this level for the rung at `rank` (entries × page bytes).
    pub(crate) fn coverage_at(&self, rank: usize, size: PageSize) -> u64 {
        self.entries_at(rank) as u64 * size.bytes()
    }
}

/// Geometry of a complete (possibly multi-level) TLB, tied to the
/// translation architecture whose ladder indexes its per-rank slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Human-readable name ("Opteron DTLB").
    pub name: &'static str,
    /// Translation architecture whose ladder this geometry is indexed by.
    pub arch: Arch,
    /// L1 geometry.
    pub l1: LevelConfig,
    /// Optional L2 geometry.
    pub l2: Option<LevelConfig>,
}

impl TlbConfig {
    /// Reach of the *last* level holding entries of `size` — the "memory
    /// coverage" quantity of the paper's Table 1, generalized to any rung
    /// of the architecture's ladder. Zero for sizes outside the ladder.
    pub fn coverage_bytes(&self, size: PageSize) -> u64 {
        let Some(rank) = self.arch.rank_of(size) else {
            return 0;
        };
        match self.l2 {
            Some(l2) if l2.entries_at(rank) > 0 => l2.coverage_at(rank, size),
            _ => self.l1.coverage_at(rank, size),
        }
    }
}

/// Where a lookup was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbOutcome {
    /// Hit in the first level.
    L1Hit(PageSize),
    /// Missed L1, hit L2 (entry promoted to L1).
    L2Hit(PageSize),
    /// Missed every level; a page walk is required.
    Miss,
}

impl TlbOutcome {
    /// True unless a walk is required.
    pub fn is_hit(&self) -> bool {
        !matches!(self, TlbOutcome::Miss)
    }
}

/// Aggregate counters for a [`Tlb`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (L1 misses that L2 absorbed).
    pub l2_hits: u64,
    /// Full misses (walks).
    pub misses: u64,
    /// Fills performed after walks.
    pub fills: u64,
    /// Whole-TLB flushes.
    pub flushes: u64,
    /// Fills that evicted an entry belonging to a *different* ASID —
    /// the cross-tenant interference signal. Always zero while only one
    /// ASID is in use.
    pub cross_asid_evictions: u64,
}

impl TlbStats {
    /// All lookups.
    #[cfg(test)]
    pub(crate) fn lookups(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.misses
    }
}

/// One level's per-rung arrays, indexed by ladder rank.
#[derive(Debug)]
struct Level {
    arrays: Vec<TlbArray>,
}

impl Level {
    fn new(cfg: &LevelConfig, arch: Arch) -> Self {
        Level {
            arrays: arch
                .ladder()
                .iter()
                .enumerate()
                .map(|(rank, rung)| {
                    let s = cfg.slot(rank);
                    TlbArray::new(rung.size, s.entries, s.assoc)
                })
                .collect(),
        }
    }

    fn array(&self, size: PageSize) -> &TlbArray {
        self.arrays
            .iter()
            .find(|a| a.page_size() == size)
            .unwrap_or_else(|| panic!("page size {size} is not a rung of this TLB's ladder"))
    }

    fn array_mut(&mut self, size: PageSize) -> &mut TlbArray {
        self.arrays
            .iter_mut()
            .find(|a| a.page_size() == size)
            .unwrap_or_else(|| panic!("page size {size} is not a rung of this TLB's ladder"))
    }

    /// Non-mutating twin of [`Level::lookup`]: same probe order
    /// (ascending ladder rank), no LRU movement, no stats.
    fn peek(&self, va: VirtAddr, tag: u64) -> Option<PageSize> {
        self.arrays
            .iter()
            .find(|a| a.probe(va.vpn(a.page_size()) | tag))
            .map(|a| a.page_size())
    }

    /// Probe every size array for the address; returns the rank of the
    /// array that hit. Hardware probes all arrays concurrently; to keep
    /// the LRU state of the miss path realistic only the first array that
    /// hits (ascending rank) updates. Each array is scanned once: a miss
    /// is counted in every array once none of them hit.
    #[inline]
    fn lookup(&mut self, va: VirtAddr, tag: u64) -> Option<usize> {
        for (rank, a) in self.arrays.iter_mut().enumerate() {
            if a.hit(va.vpn(a.page_size()) | tag) {
                return Some(rank);
            }
        }
        for a in &mut self.arrays {
            a.stats.misses += 1;
        }
        None
    }

    fn flush(&mut self) {
        for a in &mut self.arrays {
            a.flush();
        }
    }
}

/// Bit position where the ASID tag joins the VPN in an entry key.
/// Simulated virtual addresses stay far below 2^48 (the mmap region
/// starts at 2^32 and heaps are megabytes), so VPNs never reach bit 48
/// for either page size and the tag cannot collide with address bits.
pub const ASID_SHIFT: u32 = 48;
const TAG_MASK: u64 = !0u64 << ASID_SHIFT;

/// A complete one- or two-level TLB.
///
/// Entries are tagged with the [ASID](Tlb::set_asid) that was current
/// when they were filled, PCID-style: lookups only match entries of the
/// current ASID, so a context switch that *changes* the ASID hides (but
/// preserves) the previous tenant's translations, while untagged
/// hardware is modelled by keeping ASID 0 and [flushing](Tlb::flush) on
/// every switch.
#[derive(Debug)]
pub struct Tlb {
    config: TlbConfig,
    l1: Level,
    l2: Option<Level>,
    stats: TlbStats,
    /// Current ASID, pre-shifted to the tag position.
    tag: u64,
    /// Bumped by every operation that removes entries ([`flush`] /
    /// [`invalidate`]). Callers caching "this translation is resident"
    /// facts outside the TLB (the machine's last-translation micro-TLB)
    /// compare generations to find out their cache is stale.
    ///
    /// [`flush`]: Tlb::flush
    /// [`invalidate`]: Tlb::invalidate
    generation: u64,
}

impl Tlb {
    /// Instantiate a TLB from its geometry (the geometry names its
    /// translation architecture, which fixes the per-level array set).
    pub fn new(config: TlbConfig) -> Self {
        Tlb {
            l1: Level::new(&config.l1, config.arch),
            l2: config.l2.as_ref().map(|l| Level::new(l, config.arch)),
            config,
            stats: TlbStats::default(),
            tag: 0,
            generation: 0,
        }
    }

    /// Set the current address-space identifier. Entries filled under
    /// other ASIDs stay resident (occupying capacity, visible to
    /// [`TlbStats::cross_asid_evictions`]) but stop matching lookups.
    #[inline]
    pub fn set_asid(&mut self, asid: u16) {
        self.tag = u64::from(asid) << ASID_SHIFT;
    }

    /// The current ASID.
    #[inline]
    pub fn asid(&self) -> u16 {
        (self.tag >> ASID_SHIFT) as u16
    }

    /// Count a fill's eviction against the interference stat when the
    /// victim belonged to a different ASID.
    #[inline]
    fn note_eviction(stats: &mut TlbStats, tag: u64, evicted: Option<u64>) {
        if let Some(key) = evicted {
            if key & TAG_MASK != tag {
                stats.cross_asid_evictions += 1;
            }
        }
    }

    /// Invalidation epoch: changes whenever [`flush`] or [`invalidate`]
    /// may have removed an entry. See the `generation` field.
    ///
    /// [`flush`]: Tlb::flush
    /// [`invalidate`]: Tlb::invalidate
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The geometry this TLB was built from.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Per-array statistics: `(level, page size, stats)` tuples, in
    /// ascending ladder-rank order within each level.
    pub fn array_stats(&self) -> Vec<(u8, PageSize, ArrayStats)> {
        let mut v: Vec<_> = self
            .l1
            .arrays
            .iter()
            .map(|a| (1, a.page_size(), a.stats()))
            .collect();
        if let Some(l2) = &self.l2 {
            v.extend(l2.arrays.iter().map(|a| (2, a.page_size(), a.stats())));
        }
        v
    }

    /// Translate-lookup for `va`. On an L2 hit the entry is promoted into
    /// L1 (possibly evicting an L1 entry).
    pub fn lookup(&mut self, va: VirtAddr) -> TlbOutcome {
        if let Some(rank) = self.l1.lookup(va, self.tag) {
            self.stats.l1_hits += 1;
            return TlbOutcome::L1Hit(self.l1.arrays[rank].page_size());
        }
        if let Some(l2) = &mut self.l2 {
            if let Some(rank) = l2.lookup(va, self.tag) {
                self.stats.l2_hits += 1;
                // Both levels hold one array per ladder rung, in rank order.
                let l1 = &mut self.l1.arrays[rank];
                let size = l1.page_size();
                let evicted = l1.fill(va.vpn(size) | self.tag);
                Self::note_eviction(&mut self.stats, self.tag, evicted);
                return TlbOutcome::L2Hit(size);
            }
        }
        self.stats.misses += 1;
        TlbOutcome::Miss
    }

    /// Non-mutating twin of [`lookup`]: what a lookup *would* return,
    /// with no LRU reordering, no L2→L1 promotion and no stats. (An
    /// `L2Hit` answer therefore describes the lookup's outcome, not its
    /// side effects.)
    ///
    /// [`lookup`]: Tlb::lookup
    pub fn peek(&self, va: VirtAddr) -> TlbOutcome {
        if let Some(size) = self.l1.peek(va, self.tag) {
            return TlbOutcome::L1Hit(size);
        }
        if let Some(l2) = &self.l2 {
            if let Some(size) = l2.peek(va, self.tag) {
                return TlbOutcome::L2Hit(size);
            }
        }
        TlbOutcome::Miss
    }

    /// True when `va`'s translation of `size` is the most-recently-used
    /// entry of its L1 set — the precondition for
    /// [`record_l1_hit_bypass`].
    ///
    /// [`record_l1_hit_bypass`]: Tlb::record_l1_hit_bypass
    #[inline]
    pub fn l1_is_mru(&self, va: VirtAddr, size: PageSize) -> bool {
        self.l1.array(size).is_mru(va.vpn(size) | self.tag)
    }

    /// Record an L1 hit of `size` without performing the lookup.
    ///
    /// The fast-path contract (enforced by the caller, checked by debug
    /// assertions against [`peek`] / [`l1_is_mru`]): the entry is
    /// resident in L1 and already MRU, and no other array would have
    /// answered first — so a real [`lookup`] would return `L1Hit(size)`
    /// and change nothing but the hit counters. This method applies
    /// exactly those counter updates ([`TlbStats::l1_hits`] and the
    /// array's [`ArrayStats::hits`]) in O(1).
    ///
    /// [`peek`]: Tlb::peek
    /// [`l1_is_mru`]: Tlb::l1_is_mru
    /// [`lookup`]: Tlb::lookup
    #[inline]
    pub fn record_l1_hit_bypass(&mut self, size: PageSize) {
        self.stats.l1_hits += 1;
        self.l1.array_mut(size).record_hit_bypass();
    }

    /// Install a translation after a page walk determined its size.
    /// Fills L1 and, when the level has entries for the size, L2.
    pub fn fill(&mut self, va: VirtAddr, size: PageSize) {
        self.stats.fills += 1;
        let key = va.vpn(size) | self.tag;
        let evicted = self.l1.array_mut(size).fill(key);
        Self::note_eviction(&mut self.stats, self.tag, evicted);
        if let Some(l2) = &mut self.l2 {
            let evicted = l2.array_mut(size).fill(key);
            Self::note_eviction(&mut self.stats, self.tag, evicted);
        }
    }

    /// Invalidate everything (context switch with address-space change).
    pub fn flush(&mut self) {
        self.l1.flush();
        if let Some(l2) = &mut self.l2 {
            l2.flush();
        }
        self.stats.flushes += 1;
        self.generation += 1;
    }

    /// Invalidate one translation of the *current* ASID (munmap /
    /// protection change; invlpg is ASID-scoped on PCID hardware).
    pub fn invalidate(&mut self, va: VirtAddr, size: PageSize) {
        let key = va.vpn(size) | self.tag;
        self.l1.array_mut(size).invalidate(key);
        if let Some(l2) = &mut self.l2 {
            l2.array_mut(size).invalidate(key);
        }
        self.generation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level() -> Tlb {
        Tlb::new(TlbConfig {
            name: "test",
            arch: Arch::X86_64_2007,
            l1: LevelConfig::full(2, 1),
            l2: Some(LevelConfig::full(8, 0)),
        })
    }

    #[test]
    fn miss_then_fill_then_l1_hit() {
        let mut t = two_level();
        let va = VirtAddr(0x1234);
        assert_eq!(t.lookup(va), TlbOutcome::Miss);
        t.fill(va, PageSize::Small4K);
        assert_eq!(t.lookup(va), TlbOutcome::L1Hit(PageSize::Small4K));
        // Same 4 KB page, different offset: still a hit.
        assert_eq!(
            t.lookup(VirtAddr(0x1ff0)),
            TlbOutcome::L1Hit(PageSize::Small4K)
        );
        // Different 4 KB page: miss.
        assert_eq!(t.lookup(VirtAddr(0x2000)), TlbOutcome::Miss);
    }

    #[test]
    fn l2_absorbs_l1_capacity_misses_and_promotes() {
        let mut t = two_level();
        // Fill three distinct small pages; L1 holds 2, L2 holds all.
        for p in 0..3u64 {
            let va = VirtAddr(p * 4096);
            t.lookup(va);
            t.fill(va, PageSize::Small4K);
        }
        // Page 0 was evicted from L1 (capacity 2) but lives in L2.
        assert_eq!(t.lookup(VirtAddr(0)), TlbOutcome::L2Hit(PageSize::Small4K));
        // And is now promoted back into L1.
        assert_eq!(t.lookup(VirtAddr(0)), TlbOutcome::L1Hit(PageSize::Small4K));
    }

    #[test]
    fn large_pages_do_not_reach_l2_when_it_has_no_large_entries() {
        // Opteron-like: L2 has zero 2 MB entries, L1 has 1.
        let mut t = two_level();
        let a = VirtAddr(0);
        let b = VirtAddr(2 * 1024 * 1024);
        t.lookup(a);
        t.fill(a, PageSize::Large2M);
        t.lookup(b);
        t.fill(b, PageSize::Large2M); // evicts `a` from the only L1 slot
                                      // `a` must be a full miss: no L2 backing for large pages.
        assert_eq!(t.lookup(a), TlbOutcome::Miss);
    }

    #[test]
    fn one_large_entry_covers_512_small_pages_worth() {
        let mut t = two_level();
        let base = VirtAddr(0x4000_0000);
        t.lookup(base);
        t.fill(base, PageSize::Large2M);
        // Every 4 KB-aligned offset within the 2 MB page hits.
        for k in [0u64, 1, 100, 511] {
            assert_eq!(
                t.lookup(base.add(k * 4096)),
                TlbOutcome::L1Hit(PageSize::Large2M),
                "offset {k}"
            );
        }
    }

    #[test]
    fn flush_forces_full_misses() {
        let mut t = two_level();
        let va = VirtAddr(0x9000);
        t.lookup(va);
        t.fill(va, PageSize::Small4K);
        t.flush();
        assert_eq!(t.lookup(va), TlbOutcome::Miss);
        assert_eq!(t.stats().flushes, 1);
    }

    #[test]
    fn invalidate_one_translation() {
        let mut t = two_level();
        let va = VirtAddr(0x9000);
        t.lookup(va);
        t.fill(va, PageSize::Small4K);
        t.invalidate(va, PageSize::Small4K);
        assert_eq!(t.lookup(va), TlbOutcome::Miss);
    }

    #[test]
    fn stats_accumulate() {
        let mut t = two_level();
        let va = VirtAddr(0x1000);
        t.lookup(va); // miss
        t.fill(va, PageSize::Small4K);
        t.lookup(va); // l1 hit
        let s = t.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.fills, 1);
        assert_eq!(s.lookups(), 2);
    }

    #[test]
    fn coverage_uses_last_level_with_entries() {
        let cfg = TlbConfig {
            name: "opteron-ish",
            arch: Arch::X86_64_2007,
            l1: LevelConfig::full(32, 8),
            l2: Some(LevelConfig::per_rank([
                SizeSlot::ways(1024, 4),
                SizeSlot::NONE,
                SizeSlot::NONE,
                SizeSlot::NONE,
            ])),
        };
        assert_eq!(cfg.coverage_bytes(PageSize::Small4K), 1024 * 4096);
        // Large pages fall back to L1 coverage: 8 × 2 MB = 16 MB (Table 1).
        assert_eq!(cfg.coverage_bytes(PageSize::Large2M), 16 * 1024 * 1024);
    }

    #[test]
    fn per_size_coverage_generalizes_to_a_three_rung_ladder() {
        // Satellite regression: a modern three-rung ladder (4 KB / 2 MB /
        // 1 GB) must report per-size coverage from the right level and
        // return zero for sizes outside the ladder.
        let cfg = TlbConfig {
            name: "modern-ish",
            arch: Arch::X86_64_MODERN,
            l1: LevelConfig::per_rank([
                SizeSlot::full(64),
                SizeSlot::full(32),
                SizeSlot::full(4),
                SizeSlot::NONE,
            ]),
            l2: Some(LevelConfig::per_rank([
                SizeSlot::ways(1024, 8),
                SizeSlot::ways(256, 8),
                SizeSlot::NONE, // 1 GB entries live only in L1
                SizeSlot::NONE,
            ])),
        };
        assert_eq!(cfg.coverage_bytes(PageSize::Small4K), 1024 * 4096);
        assert_eq!(cfg.coverage_bytes(PageSize::Large2M), 256 * 2 * 1024 * 1024);
        assert_eq!(
            cfg.coverage_bytes(PageSize::Page1G),
            4 * 1024 * 1024 * 1024u64,
            "1 GB rung falls back to its L1 array"
        );
        assert_eq!(
            cfg.coverage_bytes(PageSize::Page64K),
            0,
            "64 KB is not an x86-64 rung"
        );
    }

    #[test]
    fn three_rung_tlb_hits_on_every_rung() {
        let mut t = Tlb::new(TlbConfig {
            name: "modern",
            arch: Arch::X86_64_MODERN,
            l1: LevelConfig::per_rank([
                SizeSlot::full(2),
                SizeSlot::full(2),
                SizeSlot::full(2),
                SizeSlot::NONE,
            ]),
            l2: None,
        });
        let cases = [
            (VirtAddr(0x1000), PageSize::Small4K),
            (VirtAddr(0x20_0000), PageSize::Large2M),
            (VirtAddr(1u64 << 30), PageSize::Page1G),
        ];
        for (va, size) in cases {
            assert_eq!(t.lookup(va), TlbOutcome::Miss);
            t.fill(va, size);
            assert_eq!(t.lookup(va), TlbOutcome::L1Hit(size));
        }
        // One 1 GB entry covers any offset inside the gigabyte.
        assert_eq!(
            t.lookup(VirtAddr((1u64 << 30) + 123 * 4096)),
            TlbOutcome::L1Hit(PageSize::Page1G)
        );
    }

    #[test]
    fn peek_matches_lookup_without_side_effects() {
        let mut t = two_level();
        let va = VirtAddr(0x3000);
        assert_eq!(t.peek(va), TlbOutcome::Miss);
        t.lookup(va);
        t.fill(va, PageSize::Small4K);
        let stats_before = t.stats();
        assert_eq!(t.peek(va), TlbOutcome::L1Hit(PageSize::Small4K));
        assert_eq!(t.peek(va), TlbOutcome::L1Hit(PageSize::Small4K));
        assert_eq!(t.stats(), stats_before, "peek must not count");
        // Evict from L1 (capacity 2 small entries) but keep in L2.
        for p in 1..3u64 {
            let v = VirtAddr(0x3000 + p * 4096);
            t.lookup(v);
            t.fill(v, PageSize::Small4K);
        }
        assert_eq!(t.peek(va), TlbOutcome::L2Hit(PageSize::Small4K));
        // peek performed no promotion: still an L2 answer.
        assert_eq!(t.peek(va), TlbOutcome::L2Hit(PageSize::Small4K));
    }

    #[test]
    fn bypass_hit_recording_equals_real_lookup() {
        // Two TLBs driven identically, except one records repeat hits of
        // the MRU entry through the bypass: stats and eviction behaviour
        // must stay identical.
        let mut real = two_level();
        let mut fast = two_level();
        let va = VirtAddr(0x7000);
        for t in [&mut real, &mut fast] {
            t.lookup(va);
            t.fill(va, PageSize::Small4K);
        }
        for _ in 0..5 {
            assert_eq!(real.lookup(va), TlbOutcome::L1Hit(PageSize::Small4K));
            assert!(fast.l1_is_mru(va, PageSize::Small4K));
            fast.record_l1_hit_bypass(PageSize::Small4K);
        }
        assert_eq!(real.stats(), fast.stats());
        assert_eq!(real.array_stats(), fast.array_stats());
        // Future behaviour identical: fill pressure evicts the same way.
        for p in 1..3u64 {
            let v = VirtAddr(0x7000 + p * 4096);
            for t in [&mut real, &mut fast] {
                t.lookup(v);
                t.fill(v, PageSize::Small4K);
            }
        }
        assert_eq!(real.peek(va), fast.peek(va));
    }

    #[test]
    fn generation_changes_only_on_invalidation() {
        let mut t = two_level();
        let g0 = t.generation();
        let va = VirtAddr(0x9000);
        t.lookup(va);
        t.fill(va, PageSize::Small4K);
        t.lookup(va);
        assert_eq!(t.generation(), g0, "lookups and fills keep generation");
        t.invalidate(va, PageSize::Small4K);
        let g1 = t.generation();
        assert_ne!(g1, g0);
        t.flush();
        assert_ne!(t.generation(), g1);
    }

    #[test]
    fn asid_switch_hides_but_preserves_entries() {
        let mut t = two_level();
        let va = VirtAddr(0x5000);
        t.lookup(va);
        t.fill(va, PageSize::Small4K);
        assert_eq!(t.lookup(va), TlbOutcome::L1Hit(PageSize::Small4K));
        // Another tenant's ASID: same VA must not match.
        t.set_asid(7);
        assert_eq!(t.asid(), 7);
        assert_eq!(t.peek(va), TlbOutcome::Miss);
        assert_eq!(t.lookup(va), TlbOutcome::Miss);
        // Switching back finds the original entry still resident.
        t.set_asid(0);
        assert_eq!(t.lookup(va), TlbOutcome::L1Hit(PageSize::Small4K));
    }

    #[test]
    fn flush_clears_every_asid() {
        let mut t = two_level();
        let va = VirtAddr(0x5000);
        t.lookup(va);
        t.fill(va, PageSize::Small4K);
        t.set_asid(3);
        t.lookup(va);
        t.fill(va, PageSize::Small4K);
        t.flush(); // non-PCID global flush: both tenants' entries go
        assert_eq!(t.lookup(va), TlbOutcome::Miss);
        t.set_asid(0);
        assert_eq!(t.lookup(va), TlbOutcome::Miss);
    }

    #[test]
    fn cross_asid_evictions_are_counted() {
        // L1 small capacity is 2 and L2 has 8 entries; two tenants
        // fighting over L1 slots must trip the interference stat.
        let mut t = two_level();
        for p in 0..2u64 {
            let va = VirtAddr(p * 4096);
            t.lookup(va);
            t.fill(va, PageSize::Small4K);
        }
        assert_eq!(t.stats().cross_asid_evictions, 0);
        t.set_asid(1);
        for p in 0..2u64 {
            let va = VirtAddr(p * 4096);
            t.lookup(va);
            t.fill(va, PageSize::Small4K);
        }
        assert!(
            t.stats().cross_asid_evictions > 0,
            "tenant 1 filled over tenant 0's entries: {:?}",
            t.stats()
        );
        // Same-ASID capacity pressure never counts.
        let before = t.stats().cross_asid_evictions;
        for p in 2..6u64 {
            let va = VirtAddr(p * 4096);
            t.lookup(va);
            t.fill(va, PageSize::Small4K);
        }
        let evictions_now = t.stats().cross_asid_evictions;
        // Later same-ASID fills may still evict tenant 0 leftovers, but
        // re-filling tenant 1's own working set repeatedly must not add.
        for _ in 0..3 {
            for p in 2..6u64 {
                let va = VirtAddr(p * 4096);
                t.lookup(va);
                t.fill(va, PageSize::Small4K);
            }
        }
        assert_eq!(t.stats().cross_asid_evictions, evictions_now);
        assert!(evictions_now >= before);
    }

    /// One array of the plain model: an MRU-first list per set, a key's
    /// set its low bits.
    struct ModelArray {
        size: PageSize,
        ways: usize,
        sets: Vec<Vec<u64>>,
        stats: ArrayStats,
    }

    impl ModelArray {
        fn new(size: PageSize, slot: SizeSlot) -> Self {
            let (sets, ways) = match slot.assoc {
                Assoc::Full => (1, slot.entries),
                Assoc::Ways(w) => ((slot.entries / w).max(1), w.min(slot.entries)),
            };
            ModelArray {
                size,
                ways: usize::from(ways),
                sets: vec![Vec::new(); usize::from(sets)],
                stats: ArrayStats::default(),
            }
        }

        fn set(&mut self, key: u64) -> &mut Vec<u64> {
            let n = self.sets.len() as u64;
            &mut self.sets[(key & (n - 1)) as usize]
        }

        fn hit(&mut self, key: u64) -> bool {
            let set = self.set(key);
            let Some(pos) = set.iter().position(|&k| k == key) else {
                return false;
            };
            set.remove(pos);
            set.insert(0, key);
            self.stats.hits += 1;
            true
        }

        fn fill(&mut self, key: u64) -> Option<u64> {
            if self.ways == 0 {
                return None;
            }
            let ways = self.ways;
            let set = self.set(key);
            set.retain(|&k| k != key);
            set.insert(0, key);
            let evicted = (set.len() > ways).then(|| set.pop().unwrap());
            self.stats.evictions += u64::from(evicted.is_some());
            evicted
        }

        fn remove(&mut self, key: u64) {
            self.set(key).retain(|&k| k != key);
        }
    }

    /// The plain model of a [`Tlb`]: per level, one [`ModelArray`] per
    /// rung, probed in rank order, an L2 hit promote-filling L1.
    struct Model {
        levels: Vec<Vec<ModelArray>>,
        stats: TlbStats,
        tag: u64,
    }

    impl Model {
        fn new(cfg: &TlbConfig) -> Self {
            let level = |l: &LevelConfig| {
                let ladder = cfg.arch.ladder().iter().enumerate();
                ladder
                    .map(|(rank, rung)| ModelArray::new(rung.size, l.slot(rank)))
                    .collect()
            };
            Model {
                levels: std::iter::once(&cfg.l1).chain(&cfg.l2).map(level).collect(),
                stats: TlbStats::default(),
                tag: 0,
            }
        }

        fn note(&mut self, evicted: Option<u64>) -> Option<u64> {
            if evicted.is_some_and(|k| k & TAG_MASK != self.tag) {
                self.stats.cross_asid_evictions += 1;
            }
            evicted
        }

        /// The outcome and the L1 key a promote-fill evicted.
        fn lookup(&mut self, va: VirtAddr) -> (TlbOutcome, Option<u64>) {
            let tag = self.tag;
            for level in 0..self.levels.len() {
                let arrays = &mut self.levels[level];
                let Some(rank) = arrays.iter_mut().position(|a| a.hit(va.vpn(a.size) | tag)) else {
                    arrays.iter_mut().for_each(|a| a.stats.misses += 1);
                    continue;
                };
                let size = arrays[rank].size;
                if level == 0 {
                    self.stats.l1_hits += 1;
                    return (TlbOutcome::L1Hit(size), None);
                }
                self.stats.l2_hits += 1;
                let evicted = self.levels[0][rank].fill(va.vpn(size) | tag);
                return (TlbOutcome::L2Hit(size), self.note(evicted));
            }
            self.stats.misses += 1;
            (TlbOutcome::Miss, None)
        }

        fn array(&mut self, level: usize, size: PageSize) -> &mut ModelArray {
            self.levels[level]
                .iter_mut()
                .find(|a| a.size == size)
                .unwrap()
        }

        /// The `(level, key)` of every key the fill evicted.
        fn fill(&mut self, va: VirtAddr, size: PageSize) -> Vec<(usize, u64)> {
            self.stats.fills += 1;
            let key = va.vpn(size) | self.tag;
            (0..self.levels.len())
                .filter_map(|level| {
                    let evicted = self.array(level, size).fill(key);
                    self.note(evicted).map(|k| (level, k))
                })
                .collect()
        }

        fn array_stats(&self) -> Vec<(u8, PageSize, ArrayStats)> {
            let levels = self.levels.iter().zip(1..);
            levels
                .flat_map(|(arrays, l)| arrays.iter().map(move |a| (l, a.size, a.stats)))
                .collect()
        }
    }

    /// Every key the model holds is resident in `tlb`'s matching array,
    /// no array holds more, and each set's MRU key is the array's.
    fn assert_same_contents(tlb: &Tlb, model: &Model, at: &str) {
        let levels = std::iter::once(&tlb.l1).chain(&tlb.l2).zip(&model.levels);
        for (level, arrays) in levels {
            for (a, m) in level.arrays.iter().zip(arrays) {
                let live: usize = m.sets.iter().map(Vec::len).sum();
                assert_eq!(a.occupancy(), live, "{at}: {} occupancy", m.size);
                for set in &m.sets {
                    assert!(
                        set.iter().all(|&k| a.probe(k)),
                        "{at}: {} lost a key",
                        m.size
                    );
                    assert!(
                        set.first().is_none_or(|&k| a.is_mru(k)),
                        "{at}: {} MRU",
                        m.size
                    );
                }
            }
        }
    }

    /// Drive the Xeon DTLB (128- and 32-entry fully associative arrays)
    /// and the Opteron DTLB (32- and 8-entry fully associative L1, 4-way
    /// L2) through random lookups, walk fills, invalidations, flushes and
    /// ASID switches, checked against the plain model after every step:
    /// outcomes, evicted VPNs, [`Tlb::stats`] and [`Tlb::array_stats`].
    #[test]
    fn fully_associative_tlbs_match_a_plain_mru_list_model() {
        for (cfg, seed) in [
            (crate::presets::XEON_DTLB, 0x7e0u64),
            (crate::presets::OPTERON_DTLB, 0x7e1),
        ] {
            let mut state = seed;
            let mut next = |n: u64| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % n
            };
            let mut tlb = Tlb::new(cfg.clone());
            let mut model = Model::new(&cfg);
            let mut evictions = 0;
            for step in 0..12_000 {
                let at = format!("{} step {step}", cfg.name);
                // 4 KB pages below 1 GB, more than either level holds;
                // 2 MB pages above it, more than the 2 MB arrays hold.
                let (va, size) = if next(4) == 0 {
                    let page = (1 << 30) + next(48) * PageSize::Large2M.bytes();
                    (VirtAddr(page + next(1 << 21)), PageSize::Large2M)
                } else {
                    (VirtAddr(next(1500) * 4096 + next(4096)), PageSize::Small4K)
                };
                match next(64) {
                    0..=3 => {
                        tlb.invalidate(va, size);
                        let key = va.vpn(size) | model.tag;
                        (0..model.levels.len()).for_each(|l| model.array(l, size).remove(key));
                    }
                    4 => {
                        let asid = next(3) as u16;
                        tlb.set_asid(asid);
                        model.tag = u64::from(asid) << ASID_SHIFT;
                    }
                    5 if next(8) == 0 => {
                        tlb.flush();
                        model.levels.iter_mut().flatten().for_each(|a| {
                            a.sets.iter_mut().for_each(Vec::clear);
                            a.stats.flushes += 1;
                        });
                        model.stats.flushes += 1;
                    }
                    _ => {
                        let (want, evicted) = model.lookup(va);
                        assert_eq!(tlb.lookup(va), want, "{at}: lookup");
                        let mut gone: Vec<_> = evicted.map(|k| (0, k)).into_iter().collect();
                        if want == TlbOutcome::Miss {
                            tlb.fill(va, size);
                            gone.extend(model.fill(va, size));
                        }
                        for &(level, key) in &gone {
                            let level = if level == 0 {
                                &tlb.l1
                            } else {
                                tlb.l2.as_ref().unwrap()
                            };
                            assert!(!level.array(size).probe(key), "{at}: kept victim {key:#x}");
                        }
                        evictions += gone.len();
                    }
                }
                assert_eq!(tlb.stats(), model.stats, "{at}: stats");
                assert_eq!(tlb.array_stats(), model.array_stats(), "{at}: array stats");
                if step % 16 == 0 {
                    assert_same_contents(&tlb, &model, &at);
                }
            }
            assert!(evictions > 1000, "{}: only {evictions} evictions", cfg.name);
            assert!(
                model.stats.cross_asid_evictions > 0,
                "{}: no cross-ASID eviction",
                cfg.name
            );
        }
    }

    #[test]
    fn asid_zero_behaviour_matches_untagged() {
        // Driving a TLB without ever touching set_asid must behave as
        // before tagging existed: keys are plain VPNs (tag 0).
        let mut t = two_level();
        let va = VirtAddr(0x1234);
        assert_eq!(t.lookup(va), TlbOutcome::Miss);
        t.fill(va, PageSize::Small4K);
        assert_eq!(t.lookup(va), TlbOutcome::L1Hit(PageSize::Small4K));
        assert_eq!(t.stats().cross_asid_evictions, 0);
    }
}
