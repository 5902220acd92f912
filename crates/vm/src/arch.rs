//! Translation architectures: the [`MMArch`] trait and the page-size
//! *ladder* it declares.
//!
//! The paper answers "does large-page support buy scalability?" for one
//! point in the design space: x86-64 circa 2007 with {4 KB, 2 MB}. This
//! module turns that hard-coded pair into data. An architecture declares
//!
//! * its radix **walk shape** — offset bits of a level-0 leaf, index bits
//!   per level, and level count — which fixes how many memory references
//!   a walk of each size costs (a 1 GB walk is two references, a 2 MB walk
//!   three, a 4 KB walk four);
//! * its **ladder** of translation sizes, each a [`Rung`] pinning the leaf
//!   level and, for ARM-style contiguous-bit blocks, how many consecutive
//!   leaf PTEs one TLB entry covers.
//!
//! Everything above `lpomp-vm` (TLB arrays, walk charging, promotion
//! daemons, the analytic backend) iterates a ladder by *rank* instead of
//! matching on a closed enum. [`Arch::X86_64_2007`] instantiates today's
//! behavior byte-identically; the other presets re-ask the paper's
//! question on modern x86 (1 GB pages) and ARM64 granules.

use crate::addr::{PageSize, VirtAddr, SMALL_PAGE_SHIFT};

/// Maximum rungs any architecture's ladder may declare. Sized for
/// {base, contiguous block, level-1 block, level-2 block} plus slack;
/// fixed so TLB geometries can be `const` arrays indexed by rank.
pub const MAX_LADDER: usize = 4;

/// Shape of the radix page-table walk: where the offset ends and how many
/// index bits each level consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WalkShape {
    /// In-page offset bits of a level-0 leaf (the base granule's shift).
    pub base_shift: u32,
    /// Virtual-address bits consumed per level (9 on x86-64, 11 on an
    /// ARM64 16 KB granule).
    pub index_bits: u32,
    /// Number of radix levels (root is level `levels - 1`).
    pub levels: u8,
}

impl WalkShape {
    /// Entries in one table node.
    #[inline]
    pub(crate) const fn entries_per_table(&self) -> usize {
        1 << self.index_bits
    }

    /// Bytes occupied by one table node (8-byte entries).
    #[inline]
    pub(crate) const fn table_bytes(&self) -> u64 {
        (self.entries_per_table() as u64) * 8
    }

    /// Buddy order of the frame backing one table node. A 9-bit level is
    /// one 4 KB frame (order 0); an 11-bit level needs 16 KB (order 2).
    #[inline]
    pub(crate) const fn table_order(&self) -> u8 {
        let b = self.table_bytes();
        let shift = b.trailing_zeros();
        if shift <= SMALL_PAGE_SHIFT {
            0
        } else {
            (shift - SMALL_PAGE_SHIFT) as u8
        }
    }

    /// Index into table level `level` for `va` (0 = leaf level).
    #[inline]
    pub(crate) const fn pt_index(&self, va: VirtAddr, level: u8) -> usize {
        let shift = self.base_shift + self.index_bits * level as u32;
        ((va.0 >> shift) & ((1u64 << self.index_bits) - 1)) as usize
    }

    /// Shift of a leaf entry at `level` — the bytes one PTE at that level
    /// maps (before any contiguous-bit replication).
    #[cfg(test)]
    pub(crate) const fn level_shift(&self, level: u8) -> u32 {
        self.base_shift + self.index_bits * level as u32
    }
}

/// One rung of an architecture's page-size ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rung {
    /// The translation size one TLB entry of this rung covers.
    pub size: PageSize,
    /// Page-table level of the leaf entry (0 = last-level table).
    pub leaf_level: u8,
    /// Consecutive leaf PTEs one mapping writes. 1 for a normal leaf;
    /// above 1 this models ARM's contiguous-bit blocks, where N adjacent
    /// PTEs carry a hint that lets the TLB cache them as one entry while
    /// the walker still reads exactly one PTE.
    pub replicate: u32,
}

impl Rung {
    /// Memory references a hardware walk of this rung performs under
    /// `shape` (one per level from the root down to the leaf).
    #[inline]
    pub const fn walk_levels(&self, shape: &WalkShape) -> u8 {
        shape.levels - self.leaf_level
    }
}

/// A memory-management architecture: walk shape plus page-size ladder.
///
/// Implemented by [`Arch`]'s presets; kept as a trait so experiments can
/// define bespoke geometries without touching the enum.
pub trait MMArch {
    /// Short stable identifier (store fingerprints, result headers).
    fn name(&self) -> &'static str;
    /// The radix walk geometry.
    fn walk_shape(&self) -> WalkShape;
    /// Translation sizes, ascending; rank 0 is the base granule.
    fn ladder(&self) -> &'static [Rung];

    /// Base granule (rank 0).
    fn base(&self) -> PageSize {
        self.ladder()[0].size
    }

    /// The rung at `rank`. Panics when out of range.
    fn rung(&self, rank: usize) -> Rung {
        self.ladder()[rank]
    }

    /// Rank of `size` in the ladder, if the architecture supports it.
    fn rank_of(&self, size: PageSize) -> Option<usize> {
        self.ladder().iter().position(|r| r.size == size)
    }

    /// The rung describing `size`, if supported.
    fn rung_of(&self, size: PageSize) -> Option<Rung> {
        self.ladder().iter().copied().find(|r| r.size == size)
    }

    /// The rung one step above `size` — what khugepaged/THP promotion
    /// targets. `None` at the top of the ladder.
    fn next_rung_above(&self, size: PageSize) -> Option<Rung> {
        let rank = self.rank_of(size)?;
        self.ladder().get(rank + 1).copied()
    }
}

/// x86-64 long mode, 2007: 4 levels × 9 bits; 4 KB PTE leaf + 2 MB PD
/// leaf. Rung-for-rung identical to the original two-variant model.
const X86_64_2007_LADDER: [Rung; 2] = [
    Rung {
        size: PageSize::Small4K,
        leaf_level: 0,
        replicate: 1,
    },
    Rung {
        size: PageSize::Large2M,
        leaf_level: 1,
        replicate: 1,
    },
];

/// Modern x86-64: the 2007 ladder plus a 1 GB PDPT leaf, whose walk is
/// one level shorter again.
const X86_64_MODERN_LADDER: [Rung; 3] = [
    Rung {
        size: PageSize::Small4K,
        leaf_level: 0,
        replicate: 1,
    },
    Rung {
        size: PageSize::Large2M,
        leaf_level: 1,
        replicate: 1,
    },
    Rung {
        size: PageSize::Page1G,
        leaf_level: 2,
        replicate: 1,
    },
];

/// ARM64, 4 KB granule: 4 levels × 9 bits; the middle rung is the 64 KB
/// contiguous-bit block (16 adjacent level-0 PTEs, one TLB entry).
const ARM64_4K_LADDER: [Rung; 3] = [
    Rung {
        size: PageSize::Small4K,
        leaf_level: 0,
        replicate: 1,
    },
    Rung {
        size: PageSize::Page64K,
        leaf_level: 0,
        replicate: 16,
    },
    Rung {
        size: PageSize::Large2M,
        leaf_level: 1,
        replicate: 1,
    },
];

/// ARM64, 16 KB granule: 3 levels × 11 bits; 2 MB is the contiguous-bit
/// run of 128 level-0 PTEs and 32 MB the level-1 block.
const ARM64_16K_LADDER: [Rung; 3] = [
    Rung {
        size: PageSize::Page16K,
        leaf_level: 0,
        replicate: 1,
    },
    Rung {
        size: PageSize::Large2M,
        leaf_level: 0,
        replicate: 128,
    },
    Rung {
        size: PageSize::Page32M,
        leaf_level: 1,
        replicate: 1,
    },
];

/// The translation architectures shipped as presets.
#[allow(non_camel_case_types)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Arch {
    /// x86-64 long mode as the paper's 2007 platforms implement it:
    /// {4 KB, 2 MB}. The default; byte-identical to the pre-ladder model.
    #[default]
    X86_64_2007,
    /// Modern x86-64: {4 KB, 2 MB, 1 GB}.
    X86_64_MODERN,
    /// ARM64 with the 4 KB granule: {4 KB, 64 KB contiguous, 2 MB}.
    ARM64_4K,
    /// ARM64 with the 16 KB granule: {16 KB, 2 MB contiguous, 32 MB}.
    ARM64_16K,
}

impl Arch {
    /// Every shipped preset, in presentation order.
    pub const ALL: [Arch; 4] = [
        Arch::X86_64_2007,
        Arch::X86_64_MODERN,
        Arch::ARM64_4K,
        Arch::ARM64_16K,
    ];

    /// Lowercase identifier used in store fingerprints (`;arch=…`).
    pub fn descriptor(self) -> &'static str {
        match self {
            Arch::X86_64_2007 => "x86_64_2007",
            Arch::X86_64_MODERN => "x86_64_modern",
            Arch::ARM64_4K => "arm64_4k",
            Arch::ARM64_16K => "arm64_16k",
        }
    }
}

impl MMArch for Arch {
    fn name(&self) -> &'static str {
        match self {
            Arch::X86_64_2007 => "x86-64-2007",
            Arch::X86_64_MODERN => "x86-64-modern",
            Arch::ARM64_4K => "arm64-4k",
            Arch::ARM64_16K => "arm64-16k",
        }
    }

    fn walk_shape(&self) -> WalkShape {
        match self {
            Arch::X86_64_2007 | Arch::X86_64_MODERN | Arch::ARM64_4K => WalkShape {
                base_shift: 12,
                index_bits: 9,
                levels: 4,
            },
            Arch::ARM64_16K => WalkShape {
                base_shift: 14,
                index_bits: 11,
                levels: 3,
            },
        }
    }

    fn ladder(&self) -> &'static [Rung] {
        match self {
            Arch::X86_64_2007 => &X86_64_2007_LADDER,
            Arch::X86_64_MODERN => &X86_64_MODERN_LADDER,
            Arch::ARM64_4K => &ARM64_4K_LADDER,
            Arch::ARM64_16K => &ARM64_16K_LADDER,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ladder_is_internally_consistent() {
        for arch in Arch::ALL {
            let shape = arch.walk_shape();
            let ladder = arch.ladder();
            assert!(!ladder.is_empty() && ladder.len() <= MAX_LADDER);
            assert_eq!(
                ladder[0].leaf_level, 0,
                "{arch:?}: base must be a level-0 leaf"
            );
            assert_eq!(ladder[0].replicate, 1, "{arch:?}: base is never contiguous");
            for w in ladder.windows(2) {
                assert!(w[0].size < w[1].size, "{arch:?}: ladder must ascend");
            }
            for r in ladder {
                // size = level span × replication, exactly.
                let entry_shift = shape.level_shift(r.leaf_level);
                assert!(r.replicate.is_power_of_two());
                assert_eq!(
                    r.size.shift(),
                    entry_shift + r.replicate.trailing_zeros(),
                    "{arch:?}: rung {} misdeclared",
                    r.size
                );
                // A contiguous run never crosses a table node.
                assert!(r.replicate as usize <= shape.entries_per_table());
                assert!(r.walk_levels(&shape) >= 1);
            }
        }
    }

    #[test]
    fn x86_2007_matches_the_original_model() {
        let a = Arch::X86_64_2007;
        assert_eq!(a.base(), PageSize::Small4K);
        assert_eq!(a.ladder().len(), 2);
        assert_eq!(a.rank_of(PageSize::Small4K), Some(0));
        assert_eq!(a.rank_of(PageSize::Large2M), Some(1));
        assert_eq!(a.rank_of(PageSize::Page1G), None);
        let shape = a.walk_shape();
        assert_eq!(shape.entries_per_table(), 512);
        assert_eq!(shape.table_order(), 0);
        assert_eq!(a.rung(0).walk_levels(&shape), 4);
        assert_eq!(a.rung(1).walk_levels(&shape), 3);
        assert_eq!(
            a.next_rung_above(PageSize::Small4K).unwrap().size,
            PageSize::Large2M
        );
        assert!(a.next_rung_above(PageSize::Large2M).is_none());
    }

    #[test]
    fn gigabyte_walks_are_cheaper_than_2mb_walks() {
        let a = Arch::X86_64_MODERN;
        let shape = a.walk_shape();
        assert_eq!(a.rung_of(PageSize::Page1G).unwrap().walk_levels(&shape), 2);
        assert_eq!(a.rung_of(PageSize::Large2M).unwrap().walk_levels(&shape), 3);
    }

    #[test]
    fn arm_contiguous_blocks_share_the_leaf_level() {
        let a = Arch::ARM64_4K;
        let contig = a.rung_of(PageSize::Page64K).unwrap();
        assert_eq!(contig.leaf_level, 0);
        assert_eq!(contig.replicate, 16);
        // Contiguous entries do NOT shorten the walk.
        assert_eq!(contig.walk_levels(&a.walk_shape()), 4);

        let b = Arch::ARM64_16K;
        assert_eq!(b.base(), PageSize::Page16K);
        let contig = b.rung_of(PageSize::Large2M).unwrap();
        assert_eq!(contig.replicate, 128);
        let shape = b.walk_shape();
        assert_eq!(shape.entries_per_table(), 2048);
        assert_eq!(shape.table_order(), 2, "16 KB table nodes");
        assert_eq!(b.rung_of(PageSize::Page32M).unwrap().walk_levels(&shape), 2);
    }

    #[test]
    fn walk_shape_indexing_generalizes_pt_index() {
        let x86 = Arch::X86_64_2007.walk_shape();
        let va = VirtAddr((1u64 << 12) | (2u64 << 21) | (3u64 << 30) | (4u64 << 39));
        for level in 0..4u8 {
            assert_eq!(x86.pt_index(va, level), va.pt_index(level));
        }
        let arm = Arch::ARM64_16K.walk_shape();
        let va = VirtAddr((5u64 << 14) | (6u64 << 25) | (7u64 << 36));
        assert_eq!(arm.pt_index(va, 0), 5);
        assert_eq!(arm.pt_index(va, 1), 6);
        assert_eq!(arm.pt_index(va, 2), 7);
    }

    #[test]
    fn descriptors_are_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for a in Arch::ALL {
            assert!(seen.insert(a.descriptor()));
        }
        assert_eq!(Arch::default(), Arch::X86_64_2007);
        assert_eq!(Arch::X86_64_2007.descriptor(), "x86_64_2007");
    }
}
