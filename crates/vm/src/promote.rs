//! Transparent promotion of base-granule regions to the next ladder rung
//! — the paper's §6 future work (*"transparent native kernel support for
//! large pages is still not present in the Linux kernel"*; Linux later
//! grew exactly this as THP/khugepaged).
//!
//! [`promote_region`] collapses a base-granule anonymous region into
//! next-rung mappings the way khugepaged does: allocate a block-sized
//! frame, migrate the small pages into it, replace their PTEs with the
//! block leaf, and free the old frames. On x86-64-2007 that is the
//! classic 512 × 4 KB → one 2 MB PMD leaf; on an ARM64 granule the next
//! rung is a contiguous-bit block. Promotion is *opportunistic*: it
//! needs a free block-order frame, so on a fragmented buddy heap it
//! degrades gracefully — the precise failure mode whose avoidance
//! motivates the paper's boot-time reservation.

use crate::addr::VirtAddr;
use crate::arch::MMArch;
use crate::error::{VmError, VmResult};
use crate::frame::BuddyAllocator;
use crate::vma::{AddressSpace, Backing};

/// The result of a promotion attempt over a region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PromotionReport {
    /// Next-rung chunks successfully promoted.
    pub promoted: u64,
    /// Chunks skipped because not every small page was populated.
    pub skipped_unpopulated: u64,
    /// Chunks skipped because no block-order frame was available
    /// (fragmentation).
    pub skipped_no_memory: u64,
    /// Chunks skipped because their pages carry *different* protection
    /// bits: collapsing them into one leaf would silently widen (or
    /// narrow) some pages' permissions, so they are left alone.
    pub skipped_mixed_flags: u64,
    /// Small pages migrated (freed back to the allocator).
    pub small_pages_freed: u64,
    /// Bytes of one promoted chunk — the target rung's size (zero until
    /// a region has been examined).
    pub chunk_bytes: u64,
}

impl PromotionReport {
    /// Bytes now backed by the promoted rung.
    pub fn promoted_bytes(&self) -> u64 {
        self.promoted * self.chunk_bytes
    }
}

/// Promote the anonymous base-granule region containing `start` to the
/// architecture's next ladder rung.
///
/// Every fully populated, chunk-aligned piece of the region is migrated
/// to the next rung; partially populated or unaligned edges are left at
/// the base granule (as khugepaged does). The caller is responsible for
/// shooting down stale TLB entries afterwards (the simulator flushes the
/// TLBs of every core, modelling the IPI shootdown).
///
/// # Errors
/// * [`VmError::NotMapped`] if `start` is not in any region;
/// * [`VmError::Misaligned`] if the region is already block-mapped or not
///   anonymous (shared files belong to their filesystem and are never
///   collapsed).
pub fn promote_region(
    aspace: &mut AddressSpace,
    frames: &mut BuddyAllocator,
    start: VirtAddr,
) -> VmResult<PromotionReport> {
    let arch = aspace.page_table().arch();
    let vma = aspace.find_vma(start).ok_or(VmError::NotMapped(start))?;
    if vma.page_size != arch.base() || !matches!(vma.backing, Backing::Anonymous) {
        return Err(VmError::Misaligned {
            addr: vma.start,
            size: vma.page_size,
        });
    }
    let (region_start, region_len) = (vma.start, vma.len);
    let large = arch
        .next_rung_above(vma.page_size)
        .ok_or(VmError::UnsupportedPageSize(vma.page_size))?
        .size;
    let per = large.bytes() / arch.base().bytes();

    let mut report = PromotionReport {
        chunk_bytes: large.bytes(),
        ..PromotionReport::default()
    };
    // First fully-contained chunk-aligned piece.
    let mut chunk = VirtAddr(large.round_up(region_start.0));
    while chunk.0 + large.bytes() <= region_start.0 + region_len {
        match try_collapse_chunk(aspace, frames, chunk)? {
            ChunkCollapse::Promoted => {
                report.promoted += 1;
                report.small_pages_freed += per;
            }
            ChunkCollapse::AlreadyLarge | ChunkCollapse::Unpopulated => {
                report.skipped_unpopulated += 1;
            }
            ChunkCollapse::MixedFlags => report.skipped_mixed_flags += 1,
            ChunkCollapse::NoMemory => report.skipped_no_memory += 1,
        }
        chunk = chunk.add(large.bytes());
    }
    Ok(report)
}

/// Outcome of a single-chunk collapse attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ChunkCollapse {
    /// Collapsed into one next-rung leaf; the small frames were freed.
    Promoted,
    /// The chunk is already backed by a block leaf.
    AlreadyLarge,
    /// Not all small pages are present.
    Unpopulated,
    /// The pages disagree on protection bits; collapsing would change
    /// the permissions of some of them.
    MixedFlags,
    /// No free block-order frame (fragmentation).
    NoMemory,
}

/// Attempt to collapse the one chunk-aligned piece at `chunk` to the
/// rung above the base granule (the shared engine of [`promote_region`]
/// and the incremental [`crate::khugepaged::Khugepaged`] daemon).
///
/// The chunk is inspected *before* anything is touched: if its pages are
/// incomplete or carry heterogeneous protection, the mapping is left
/// untouched. Only protection bits (writable/executable) must agree;
/// accessed/dirty bits are hardware-set status and are OR-combined into
/// the new leaf instead.
pub(crate) fn try_collapse_chunk(
    aspace: &mut AddressSpace,
    frames: &mut BuddyAllocator,
    chunk: VirtAddr,
) -> VmResult<ChunkCollapse> {
    let arch = aspace.page_table().arch();
    let small = arch.base();
    let large = arch
        .next_rung_above(small)
        .ok_or(VmError::UnsupportedPageSize(small))?
        .size;
    let per = large.bytes() / small.bytes();
    debug_assert!(chunk.is_aligned(large));

    // Every small page must be present with uniform protection.
    let mut old_frames = Vec::with_capacity(per as usize);
    let mut flags = match aspace.page_table().probe(chunk) {
        Some(t) if t.size != small => return Ok(ChunkCollapse::AlreadyLarge),
        Some(t) => {
            old_frames.push(t.pa.frame_base(small));
            t.flags
        }
        None => return Ok(ChunkCollapse::Unpopulated),
    };
    for i in 1..per {
        match aspace.page_table().probe(chunk.add(i * small.bytes())) {
            Some(t) if t.size == small => {
                if (t.flags.writable, t.flags.executable) != (flags.writable, flags.executable) {
                    return Ok(ChunkCollapse::MixedFlags);
                }
                flags.accessed |= t.flags.accessed;
                flags.dirty |= t.flags.dirty;
                old_frames.push(t.pa.frame_base(small));
            }
            _ => return Ok(ChunkCollapse::Unpopulated),
        }
    }
    // khugepaged order: reserve the target frame first; bail out without
    // touching the mapping if memory is too fragmented.
    let target = match frames.alloc(large.buddy_order()) {
        Ok(f) => f,
        Err(_) => return Ok(ChunkCollapse::NoMemory),
    };
    // Migrate: unmap the small pages, free their frames, install the
    // block leaf. (Data migration is implicit — the simulator's values
    // live host-side; the cost is charged by the caller.)
    for i in 0..per {
        aspace.unmap_page(chunk.add(i * small.bytes()), small)?;
    }
    for f in old_frames {
        frames.free(f, small.buddy_order());
    }
    aspace.map_page(frames, chunk, target, large, flags)?;
    Ok(ChunkCollapse::Promoted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PageSize;
    use crate::page_table::{AccessKind, PteFlags};
    use crate::vma::Populate;

    fn setup(len: u64, populate: Populate) -> (BuddyAllocator, AddressSpace, VirtAddr) {
        let mut frames = BuddyAllocator::new(256 * 1024 * 1024);
        let mut asp = AddressSpace::new(&mut frames).unwrap();
        let base = asp
            .mmap(
                &mut frames,
                len,
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                populate,
                "heap",
            )
            .unwrap();
        (frames, asp, base)
    }

    #[test]
    fn promotes_fully_populated_region() {
        let len = 4 * PageSize::Large2M.bytes();
        let (mut frames, mut asp, base) = setup(len, Populate::Eager);
        let r = promote_region(&mut asp, &mut frames, base).unwrap();
        assert_eq!(r.promoted, 4);
        assert_eq!(r.small_pages_freed, 4 * 512);
        assert_eq!(r.skipped_no_memory, 0);
        // Translations now come from 2 MB leaves.
        let t = asp
            .access(&mut frames, base.add(0x1234), AccessKind::Read)
            .unwrap()
            .translation();
        assert_eq!(t.size, PageSize::Large2M);
    }

    #[test]
    fn partially_populated_chunks_are_skipped() {
        let len = 2 * PageSize::Large2M.bytes();
        let (mut frames, mut asp, base) = setup(len, Populate::OnDemand);
        // Touch every page of the first chunk only.
        for i in 0..512u64 {
            asp.access(&mut frames, base.add(i * 4096), AccessKind::Write)
                .unwrap();
        }
        // And one page of the second.
        asp.access(
            &mut frames,
            base.add(PageSize::Large2M.bytes()),
            AccessKind::Write,
        )
        .unwrap();
        let r = promote_region(&mut asp, &mut frames, base).unwrap();
        assert_eq!(r.promoted, 1);
        assert_eq!(r.skipped_unpopulated, 1);
    }

    #[test]
    fn fragmentation_blocks_promotion_gracefully() {
        let len = PageSize::Large2M.bytes();
        let (mut frames, mut asp, base) = setup(len, Populate::Eager);
        // Exhaust all order-9 blocks by pinning one 4 KB page out of each.
        let mut pins = Vec::new();
        while frames.alloc(PageSize::Large2M.buddy_order()).is_ok() {
            // keep the large block, never free: simplest way to drain
        }
        while let Ok(p) = frames.alloc(0) {
            pins.push(p);
            if pins.len() > 100_000 {
                break;
            }
        }
        let r = promote_region(&mut asp, &mut frames, base).unwrap();
        assert_eq!(r.promoted, 0);
        assert_eq!(r.skipped_no_memory, 1);
        // The region still works with its 4 KB mappings.
        let t = asp
            .access(&mut frames, base, AccessKind::Read)
            .unwrap()
            .translation();
        assert_eq!(t.size, PageSize::Small4K);
    }

    #[test]
    fn mixed_protection_chunks_are_skipped_not_widened() {
        let len = 2 * PageSize::Large2M.bytes();
        let (mut frames, mut asp, base) = setup(len, Populate::Eager);
        // One page of the first chunk becomes read-only (the pattern of a
        // guard page or a COW-protected page). Collapsing that chunk with
        // the first PTE's RW flags would silently make it writable again.
        let ro_page = base.add(3 * 4096);
        asp.page_table_mut()
            .protect(ro_page, PteFlags::ro())
            .unwrap();
        let r = promote_region(&mut asp, &mut frames, base).unwrap();
        assert_eq!(r.promoted, 1, "the uniform chunk still collapses");
        assert_eq!(r.skipped_mixed_flags, 1);
        // The mixed chunk keeps its 4 KB mappings and its protection.
        let t = asp
            .access(&mut frames, base, AccessKind::Read)
            .unwrap()
            .translation();
        assert_eq!(t.size, PageSize::Small4K);
        assert_eq!(
            asp.access(&mut frames, ro_page, AccessKind::Write),
            Err(VmError::ProtectionViolation(ro_page))
        );
        assert!(asp.access(&mut frames, ro_page, AccessKind::Read).is_ok());
    }

    #[test]
    fn accessed_dirty_bits_do_not_block_collapse() {
        let len = PageSize::Large2M.bytes();
        let (mut frames, mut asp, base) = setup(len, Populate::Eager);
        // Dirty one page; the rest keep clean hardware status bits. A/D
        // heterogeneity is not a protection mismatch — the chunk must
        // still collapse, with the leaf inheriting the OR of the bits.
        asp.access(&mut frames, base.add(7 * 4096), AccessKind::Write)
            .unwrap();
        let r = promote_region(&mut asp, &mut frames, base).unwrap();
        assert_eq!(r.promoted, 1);
        assert_eq!(r.skipped_mixed_flags, 0);
        let flags = asp.page_table().probe(base).unwrap().flags;
        assert!(flags.dirty && flags.accessed);
    }

    #[test]
    fn promotion_preserves_frame_accounting() {
        let len = 2 * PageSize::Large2M.bytes();
        let (mut frames, mut asp, base) = setup(len, Populate::Eager);
        let before = frames.free_bytes();
        promote_region(&mut asp, &mut frames, base).unwrap();
        // 2 large frames allocated, 1024 small frames freed, and the two
        // now-empty leaf page-table nodes reclaimed: net +2 node frames.
        assert_eq!(frames.free_bytes(), before + 2 * 4096);
    }

    #[test]
    fn promotion_targets_the_next_rung_on_arm64() {
        // On the ARM64 4 KB granule the rung above 4 KB is the 64 KB
        // contiguous block (16 PTEs, one TLB entry) — not 2 MB.
        let mut frames = BuddyAllocator::new(64 * 1024 * 1024);
        let mut asp = AddressSpace::new_for(&mut frames, crate::arch::Arch::ARM64_4K).unwrap();
        let base = asp
            .mmap(
                &mut frames,
                2 * PageSize::Page64K.bytes(),
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::Eager,
                "heap",
            )
            .unwrap();
        let r = promote_region(&mut asp, &mut frames, base).unwrap();
        assert_eq!(r.promoted, 2);
        assert_eq!(r.small_pages_freed, 2 * 16);
        assert_eq!(r.chunk_bytes, PageSize::Page64K.bytes());
        let t = asp
            .access(&mut frames, base.add(0x5000), AccessKind::Read)
            .unwrap()
            .translation();
        assert_eq!(t.size, PageSize::Page64K);
    }

    #[test]
    fn shared_regions_are_rejected() {
        let mut frames = BuddyAllocator::new(64 * 1024 * 1024);
        let seg = crate::hugetlbfs::SharedSegment::alloc(
            &mut frames,
            "f",
            PageSize::Large2M.bytes(),
            PageSize::Large2M,
            |_| None,
        )
        .unwrap();
        let mut asp = AddressSpace::new(&mut frames).unwrap();
        let base = asp
            .mmap(
                &mut frames,
                seg.len_bytes(),
                PageSize::Large2M,
                PteFlags::rw(),
                Backing::Shared(seg),
                Populate::Eager,
                "shared",
            )
            .unwrap();
        assert!(matches!(
            promote_region(&mut asp, &mut frames, base),
            Err(VmError::Misaligned { .. })
        ));
    }

    #[test]
    fn unmapped_address_rejected() {
        let mut frames = BuddyAllocator::new(64 * 1024 * 1024);
        let mut asp = AddressSpace::new(&mut frames).unwrap();
        assert!(matches!(
            promote_region(&mut asp, &mut frames, VirtAddr(0xdead_0000)),
            Err(VmError::NotMapped(_))
        ));
    }
}
