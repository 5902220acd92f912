//! The large-page allocation policy — the design decision of §3.3.
//!
//! The paper's argument: general-purpose OSes allocate large pages
//! on demand with reservation heuristics (Navarro et al.), but an OpenMP
//! job usually owns its node for the whole run, so the runtime can simply
//! **preallocate** all shared data in a hugetlbfs file whose large pages it
//! takes at startup — simpler, lower latency, and immune to fragmentation.
//! [`PagePolicy`] selects what backs the shared heap; [`PopulatePolicy`]
//! selects when pages are installed (eager startup population is the
//! paper's choice; demand faulting is kept for the ablation A1).

use lpomp_vm::{Arch, MMArch, PageSize, Populate};

/// What page size backs the shared data region.
///
/// `Small4K` and `Large2M` are the historical names for ladder ranks 0
/// and 1 — on the x86-64-2007 architecture exactly the paper's 4 KB and
/// 2 MB policies. [`PagePolicy::Rung`] addresses any rank of the
/// machine's translation-architecture ladder, which is how the 1 GB and
/// ARM64-granule extension sweeps select their sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PagePolicy {
    /// Base-granule pages everywhere (ladder rank 0; 4 KB on x86-64 —
    /// the baseline).
    Small4K,
    /// Rung-1 pages for the whole shared heap (2 MB on x86-64 — the
    /// paper's system).
    Large2M,
    /// An explicit ladder rank of the machine's architecture (rank 0 =
    /// base granule). `Rung(0)`/`Rung(1)` behave exactly like
    /// [`PagePolicy::Small4K`]/[`PagePolicy::Large2M`].
    Rung(u8),
    /// §6 future work: rung-1 pages for allocations of at least
    /// `threshold_bytes`, base-granule pages for smaller ones.
    Mixed {
        /// Allocations at or above this size go to large pages.
        threshold_bytes: u64,
    },
}

impl PagePolicy {
    /// Ladder rank of the primary heap region's page size.
    pub fn rank(self) -> usize {
        match self {
            PagePolicy::Small4K => 0,
            PagePolicy::Large2M | PagePolicy::Mixed { .. } => 1,
            PagePolicy::Rung(r) => r as usize,
        }
    }

    /// Page size of the *primary* heap region under this policy on the
    /// given translation architecture.
    ///
    /// # Panics
    /// Panics when the policy's rank is off `arch`'s ladder.
    pub(crate) fn heap_page_size_on(self, arch: Arch) -> PageSize {
        let rank = self.rank();
        arch.ladder()
            .get(rank)
            .unwrap_or_else(|| panic!("policy rung {rank} is off the {} ladder", arch.name()))
            .size
    }

    /// Whether the primary heap's pages lie above the base granule, so a
    /// shared heap is a hugetlbfs file (and its pages count as reserved).
    pub(crate) fn needs_huge_pool(self) -> bool {
        self.rank() > 0
    }

    /// Short label used in figure output and store fingerprints ("4KB" /
    /// "2MB" / "mixed"; explicit rungs are labelled by rank, because the
    /// byte size a rank denotes depends on the architecture).
    pub fn label(self) -> &'static str {
        match self {
            PagePolicy::Small4K => "4KB",
            PagePolicy::Large2M => "2MB",
            PagePolicy::Mixed { .. } => "mixed",
            PagePolicy::Rung(0) => "rung0",
            PagePolicy::Rung(1) => "rung1",
            PagePolicy::Rung(2) => "rung2",
            PagePolicy::Rung(_) => "rung3",
        }
    }
}

impl std::fmt::Display for PagePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// When shared-heap pages are installed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PopulatePolicy {
    /// Install every page at startup (the paper's preallocation).
    Prefault,
    /// Demand-fault on first touch (ablation A1 baseline).
    OnDemand,
}

impl PopulatePolicy {
    /// Convert to the VM layer's populate mode.
    pub fn as_vm(self) -> Populate {
        match self {
            PopulatePolicy::Prefault => Populate::Eager,
            PopulatePolicy::OnDemand => Populate::OnDemand,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_page_sizes() {
        let x86 = Arch::X86_64_2007;
        assert_eq!(
            PagePolicy::Small4K.heap_page_size_on(x86),
            PageSize::Small4K
        );
        assert_eq!(
            PagePolicy::Large2M.heap_page_size_on(x86),
            PageSize::Large2M
        );
        assert_eq!(
            PagePolicy::Mixed {
                threshold_bytes: 1 << 20
            }
            .heap_page_size_on(x86),
            PageSize::Large2M
        );
    }

    #[test]
    fn pool_requirement() {
        assert!(!PagePolicy::Small4K.needs_huge_pool());
        assert!(PagePolicy::Large2M.needs_huge_pool());
        assert!(!PagePolicy::Rung(0).needs_huge_pool());
        assert!(PagePolicy::Rung(2).needs_huge_pool());
    }

    #[test]
    fn rungs_resolve_against_the_arch_ladder() {
        // Ranks 0/1 are the classic aliases on x86-64-2007…
        assert_eq!(
            PagePolicy::Rung(0).heap_page_size_on(Arch::X86_64_2007),
            PageSize::Small4K
        );
        assert_eq!(
            PagePolicy::Rung(1).heap_page_size_on(Arch::X86_64_2007),
            PageSize::Large2M
        );
        // …while higher ranks and other architectures resolve to their
        // own ladders.
        assert_eq!(
            PagePolicy::Rung(2).heap_page_size_on(Arch::X86_64_MODERN),
            PageSize::Page1G
        );
        assert_eq!(
            PagePolicy::Small4K.heap_page_size_on(Arch::ARM64_16K),
            PageSize::Page16K
        );
        assert_eq!(
            PagePolicy::Rung(1).heap_page_size_on(Arch::ARM64_4K),
            PageSize::Page64K
        );
        assert_eq!(PagePolicy::Rung(2).label(), "rung2");
    }

    #[test]
    #[should_panic(expected = "off the")]
    fn off_ladder_rung_panics() {
        let _ = PagePolicy::Rung(2).heap_page_size_on(Arch::X86_64_2007);
    }

    #[test]
    fn labels() {
        assert_eq!(PagePolicy::Small4K.label(), "4KB");
        assert_eq!(PagePolicy::Large2M.to_string(), "2MB");
        assert_eq!(
            PagePolicy::Mixed {
                threshold_bytes: 1024
            }
            .label(),
            "mixed"
        );
    }

    #[test]
    fn populate_mapping() {
        assert_eq!(PopulatePolicy::Prefault.as_vm(), Populate::Eager);
        assert_eq!(PopulatePolicy::OnDemand.as_vm(), Populate::OnDemand);
    }
}
