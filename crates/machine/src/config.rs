//! Machine topology: chips, cores, SMT contexts, cache scopes, and the two
//! platform presets of the paper's §4.1.

use crate::cache::CacheConfig;
use crate::cost::CostModel;
use crate::numa::NumaConfig;
use lpomp_tlb::TlbConfig;
use lpomp_vm::Arch;

/// Which cores share an L2 cache instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L2Scope {
    /// Each core has a private L2 (Opteron).
    PerCore,
    /// All cores of a chip share one L2 (Xeon, per §2.1).
    PerChip,
}

/// Full description of a simulated platform.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Platform name as used in figures ("Opteron", "Xeon").
    pub name: &'static str,
    /// Number of processor chips (sockets).
    pub chips: usize,
    /// Cores per chip.
    pub cores_per_chip: usize,
    /// SMT contexts per core (1 = no SMT; 2 = hyper-threading).
    pub smt_per_core: usize,
    /// Data-TLB geometry (instantiated per core; SMT contexts share it).
    pub dtlb: TlbConfig,
    /// Instruction-TLB geometry (per core, shared by SMT contexts).
    pub itlb: TlbConfig,
    /// L1 data cache (per core).
    pub l1d: CacheConfig,
    /// L2 cache geometry.
    pub l2: CacheConfig,
    /// Whether L2 is per-core or per-chip.
    pub l2_scope: L2Scope,
    /// Whether the core flushes its pipeline when an SMT context stalls
    /// (the Xeon implementation the paper blames in §4.4).
    pub smt_flush_on_stall: bool,
    /// Cycle costs.
    pub cost: CostModel,
    /// Bytes of simulated physical memory.
    pub ram_bytes: u64,
    /// NUMA model (extension E3). `None` models uniform memory, which is
    /// the paper's implicit assumption; the presets default to `None` so
    /// the headline reproduction is NUMA-free.
    pub numa: Option<NumaConfig>,
    /// Whether the hardware walker's page-walk caches keep the upper
    /// levels of the radix tree resident (true on both platforms; turning
    /// it off charges every level of every walk through the memory
    /// hierarchy — ablation A5).
    pub page_walk_cache: bool,
}

impl MachineConfig {
    /// The platform's translation architecture (page-size ladder and walk
    /// shape). Carried by the TLB geometries; both TLBs of a machine must
    /// agree, which [`crate::machine::Machine::new`] asserts.
    pub fn arch(&self) -> Arch {
        self.dtlb.arch
    }

    /// Total cores.
    pub fn cores(&self) -> usize {
        self.chips * self.cores_per_chip
    }

    /// Total hardware thread contexts.
    pub fn contexts(&self) -> usize {
        self.cores() * self.smt_per_core
    }

    /// Number of L2 cache instances.
    pub(crate) fn l2_instances(&self) -> usize {
        match self.l2_scope {
            L2Scope::PerCore => self.cores(),
            L2Scope::PerChip => self.chips,
        }
    }

    /// L2 instance serving a core.
    pub(crate) fn l2_of_core(&self, core: usize) -> usize {
        match self.l2_scope {
            L2Scope::PerCore => core,
            L2Scope::PerChip => core / self.cores_per_chip,
        }
    }

    /// NUMA node (chip) of a core.
    pub fn node_of_core(&self, core: usize) -> usize {
        core / self.cores_per_chip
    }

    /// Place `threads` logical threads onto cores the way the paper does
    /// (§4 caption of Fig. 4): one thread per core up to the core count,
    /// then a second SMT context per core. Returns the core index of each
    /// logical thread.
    ///
    /// # Panics
    /// If `threads` exceeds the context count.
    pub fn placement(&self, threads: usize) -> Vec<usize> {
        assert!(
            threads <= self.contexts(),
            "{threads} threads exceed {} hardware contexts",
            self.contexts()
        );
        (0..threads).map(|t| t % self.cores()).collect()
    }

    /// Number of logical threads resident on each core under
    /// [`placement`](Self::placement).
    pub fn residency(&self, threads: usize) -> Vec<usize> {
        let mut r = vec![0usize; self.cores()];
        for c in self.placement(threads) {
            r[c] += 1;
        }
        r
    }
}

/// The paper's Opteron platform: dual dual-core Opteron 270, 4 GB RAM,
/// private 1 MB L2 per core, no SMT.
pub fn opteron_2x2() -> MachineConfig {
    MachineConfig {
        name: "Opteron",
        chips: 2,
        cores_per_chip: 2,
        smt_per_core: 1,
        dtlb: lpomp_tlb::OPTERON_DTLB,
        itlb: lpomp_tlb::OPTERON_ITLB,
        l1d: CacheConfig {
            name: "Opteron L1D",
            capacity_bytes: 64 * 1024,
            ways: 2,
        },
        l2: CacheConfig {
            name: "Opteron L2",
            capacity_bytes: 1024 * 1024,
            ways: 16,
        },
        l2_scope: L2Scope::PerCore,
        smt_flush_on_stall: false,
        cost: CostModel::opteron(),
        ram_bytes: 4 * 1024 * 1024 * 1024,
        numa: None,
        page_walk_cache: true,
    }
}

/// The paper's Xeon platform: dual dual-core Xeon with hyper-threading
/// (8 contexts), 12 GB RAM, shared L2 per chip, flush-on-stall SMT.
pub fn xeon_2x2_ht() -> MachineConfig {
    MachineConfig {
        name: "Xeon",
        chips: 2,
        cores_per_chip: 2,
        smt_per_core: 2,
        dtlb: lpomp_tlb::XEON_DTLB,
        itlb: lpomp_tlb::XEON_ITLB,
        l1d: CacheConfig {
            name: "Xeon L1D",
            capacity_bytes: 16 * 1024,
            ways: 8,
        },
        l2: CacheConfig {
            name: "Xeon L2",
            capacity_bytes: 2 * 1024 * 1024,
            ways: 8,
        },
        l2_scope: L2Scope::PerChip,
        smt_flush_on_stall: true,
        cost: CostModel::xeon(),
        ram_bytes: 12 * 1024 * 1024 * 1024,
        numa: None,
        page_walk_cache: true,
    }
}

/// Extension platform: the paper's Opteron topology (2 × 2 cores, private
/// L2, no SMT) re-equipped with a modern x86-64 translation architecture —
/// 1 GB pages, split per-size L1 TLBs and a large set-associative L2 TLB.
/// Topology, caches and cycle costs are held at the Opteron baseline so
/// the only variable between this preset and [`opteron_2x2`] is the
/// translation architecture itself.
pub fn modern_x86_2x2() -> MachineConfig {
    MachineConfig {
        name: "ModernX86",
        dtlb: lpomp_tlb::MODERN_X86_DTLB,
        itlb: lpomp_tlb::MODERN_X86_ITLB,
        ram_bytes: 16 * 1024 * 1024 * 1024,
        ..opteron_2x2()
    }
}

/// Extension platform: ARM64 with 4 KB granule (4 KB / 2 MB / 64 KB
/// contiguous blocks), same topology/cache/cost baseline as
/// [`opteron_2x2`].
pub fn arm64_2x2_4k() -> MachineConfig {
    MachineConfig {
        name: "ARM64-4K",
        dtlb: lpomp_tlb::ARM64_4K_DTLB,
        itlb: lpomp_tlb::ARM64_4K_ITLB,
        ram_bytes: 8 * 1024 * 1024 * 1024,
        ..opteron_2x2()
    }
}

/// Extension platform: ARM64 with 16 KB granule (16 KB base pages, 2 MB
/// contiguous blocks, 32 MB table blocks), same baseline as
/// [`opteron_2x2`].
pub fn arm64_2x2_16k() -> MachineConfig {
    MachineConfig {
        name: "ARM64-16K",
        dtlb: lpomp_tlb::ARM64_16K_DTLB,
        itlb: lpomp_tlb::ARM64_16K_ITLB,
        ram_bytes: 8 * 1024 * 1024 * 1024,
        ..opteron_2x2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_presets_carry_their_arch() {
        assert_eq!(opteron_2x2().arch(), Arch::X86_64_2007);
        assert_eq!(xeon_2x2_ht().arch(), Arch::X86_64_2007);
        assert_eq!(modern_x86_2x2().arch(), Arch::X86_64_MODERN);
        assert_eq!(arm64_2x2_4k().arch(), Arch::ARM64_4K);
        assert_eq!(arm64_2x2_16k().arch(), Arch::ARM64_16K);
        for cfg in [modern_x86_2x2(), arm64_2x2_4k(), arm64_2x2_16k()] {
            assert_eq!(cfg.dtlb.arch, cfg.itlb.arch, "{}", cfg.name);
            assert_eq!(cfg.cores(), 4, "{}", cfg.name);
        }
    }

    #[test]
    fn topology_counts() {
        let o = opteron_2x2();
        assert_eq!(o.cores(), 4);
        assert_eq!(o.contexts(), 4);
        assert_eq!(o.l2_instances(), 4);
        let x = xeon_2x2_ht();
        assert_eq!(x.cores(), 4);
        assert_eq!(x.contexts(), 8);
        assert_eq!(x.l2_instances(), 2);
    }

    #[test]
    fn l2_of_core_mapping() {
        let x = xeon_2x2_ht();
        assert_eq!(x.l2_of_core(0), 0);
        assert_eq!(x.l2_of_core(1), 0);
        assert_eq!(x.l2_of_core(2), 1);
        assert_eq!(x.l2_of_core(3), 1);
        let o = opteron_2x2();
        assert_eq!(o.l2_of_core(3), 3);
    }

    #[test]
    fn placement_fills_cores_before_smt() {
        let x = xeon_2x2_ht();
        // 4 threads: one per core.
        assert_eq!(x.placement(4), vec![0, 1, 2, 3]);
        assert_eq!(x.residency(4), vec![1, 1, 1, 1]);
        // 8 threads: two per core.
        assert_eq!(x.placement(8), vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(x.residency(8), vec![2, 2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn placement_rejects_oversubscription() {
        opteron_2x2().placement(5);
    }

    #[test]
    fn node_of_core_maps_chips() {
        let o = opteron_2x2();
        assert_eq!(o.node_of_core(0), 0);
        assert_eq!(o.node_of_core(1), 0);
        assert_eq!(o.node_of_core(2), 1);
        assert_eq!(o.node_of_core(3), 1);
    }

    #[test]
    fn presets_match_paper_hardware() {
        let o = opteron_2x2();
        assert!(!o.smt_flush_on_stall);
        assert_eq!(o.ram_bytes, 4 << 30);
        let x = xeon_2x2_ht();
        assert!(x.smt_flush_on_stall);
        assert_eq!(x.ram_bytes, 12 << 30);
        assert_eq!(x.l2_scope, L2Scope::PerChip);
        assert_eq!(o.l2_scope, L2Scope::PerCore);
    }
}
