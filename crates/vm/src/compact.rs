//! Memory compaction: coalescing free 2 MB blocks out of a fragmented
//! buddy heap by migrating the movable 4 KB frames that stand in the way.
//!
//! This is the mechanism Linux grew (`mm/compaction.c`) to make
//! transparent huge pages viable on a long-running system — the paper's §6
//! "fragmentation problem" answered with migration instead of boot-time
//! reservation. The shape follows the kernel's two-scanner design:
//!
//! * the **migration scanner** walks candidate 2 MB-aligned physical
//!   blocks from the low end, looking for blocks whose only live contents
//!   are *movable* pages (order-0 frames mapped 4 KB-small in an anonymous
//!   region — private data that can be copied without anyone noticing);
//! * the **free scanner** supplies migration targets from the *high* end
//!   of memory (`BuddyAllocator::alloc_topdown`), so vacated low blocks
//!   coalesce instead of being immediately reused as targets.
//!
//! Unmovable frames — page-table nodes, shared-segment frames, anything
//! not in the reverse map — cause their block to be abandoned, exactly as
//! in the kernel. The caller charges migration copies and page-table edits
//! to the simulated clock; TLB shootdown (remapped pages have new
//! translations) is likewise the caller's responsibility.

use crate::addr::{PageSize, PhysAddr, VirtAddr, SMALL_PAGE_SHIFT, SMALL_PER_LARGE};
use crate::error::VmResult;
use crate::frame::BuddyAllocator;
use crate::vma::{AddressSpace, Backing};
use std::collections::HashMap;

/// The result of one compaction run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// 4 KB pages migrated (copied to a fresh frame and remapped).
    pub migrated: u64,
    /// Page-table edits performed (one unmap + one map per migration).
    pub pt_edits: u64,
    /// Order-9 blocks freed (coalesced) by this run.
    pub blocks_freed: u64,
    /// Candidate blocks abandoned mid-run (no target frames left outside
    /// the candidate, or contents changed underfoot).
    pub abandoned: u64,
}

/// Build the reverse map: physical frame number → virtual page, for every
/// movable page (4 KB translation inside an anonymous small-page region).
fn build_rmap(aspace: &AddressSpace) -> HashMap<u64, VirtAddr> {
    let small = PageSize::Small4K;
    let mut rmap = HashMap::new();
    for vma in aspace.vmas() {
        if vma.page_size != small || !matches!(vma.backing, Backing::Anonymous) {
            continue;
        }
        let mut off = 0;
        while off < vma.len {
            let va = vma.start.add(off);
            if let Some(t) = aspace.page_table().probe(va) {
                if t.size == small {
                    rmap.insert(t.pa.frame_base(small).0 >> SMALL_PAGE_SHIFT, va);
                }
            }
            off += small.bytes();
        }
    }
    rmap
}

/// Migrate movable frames to coalesce up to `max_blocks` free order-9
/// blocks.
///
/// Candidate blocks are ranked by migration effort (fewest live pages
/// first), the kernel's cheapest-first heuristic. Each migrated page is
/// copied to a frame drawn from the top of memory, its PTE rewritten to
/// the new frame with identical flags, and its old frame freed; when the
/// last live frame leaves a block the buddy coalescing cascade reassembles
/// the free order-9 block.
pub fn compact(
    aspace: &mut AddressSpace,
    frames: &mut BuddyAllocator,
    max_blocks: u64,
) -> VmResult<CompactReport> {
    let small = PageSize::Small4K;
    let mut report = CompactReport::default();
    if max_blocks == 0 {
        return Ok(report);
    }
    let mut rmap = build_rmap(aspace);

    // Migration scanner: enumerate 2 MB-aligned candidate blocks whose
    // only live contents are movable order-0 frames.
    let total_pfns = frames.total_bytes() >> SMALL_PAGE_SHIFT;
    let mut candidates: Vec<(usize, u64)> = Vec::new(); // (live pages, base pfn)
    let mut base = 0u64;
    while base + SMALL_PER_LARGE <= total_pfns {
        if let Some(blocks) = frames.allocated_blocks_in(base, SMALL_PER_LARGE) {
            let movable = !blocks.is_empty()
                && blocks
                    .iter()
                    .all(|&(pfn, order)| order == 0 && rmap.contains_key(&pfn));
            if movable {
                candidates.push((blocks.len(), base));
            }
        }
        base += SMALL_PER_LARGE;
    }
    candidates.sort_unstable();

    let mut freed = 0u64;
    for (_, base) in candidates {
        if freed >= max_blocks {
            break;
        }
        // Re-validate: an earlier candidate's free scanner may have put a
        // migration target inside this block.
        let Some(blocks) = frames.allocated_blocks_in(base, SMALL_PER_LARGE) else {
            continue;
        };
        if blocks.is_empty()
            || !blocks
                .iter()
                .all(|&(pfn, order)| order == 0 && rmap.contains_key(&pfn))
        {
            report.abandoned += 1;
            continue;
        }
        let mut aborted = false;
        for (pfn, _) in blocks {
            let old = PhysAddr(pfn << SMALL_PAGE_SHIFT);
            let dest = match frames.alloc_topdown(0) {
                Ok(d) => d,
                Err(_) => {
                    aborted = true;
                    break;
                }
            };
            let dest_pfn = dest.0 >> SMALL_PAGE_SHIFT;
            if dest_pfn >= base && dest_pfn < base + SMALL_PER_LARGE {
                // The only free frames left are inside the block we are
                // vacating: memory is too full to compact further.
                frames.free(dest, 0);
                aborted = true;
                break;
            }
            let va = rmap[&pfn];
            let t = aspace.unmap_page(va, small)?;
            aspace.map_page(frames, va, dest, small, t.flags)?;
            frames.free(old, 0);
            rmap.remove(&pfn);
            rmap.insert(dest_pfn, va);
            report.migrated += 1;
            report.pt_edits += 2;
        }
        if aborted {
            report.abandoned += 1;
            continue;
        }
        debug_assert_eq!(
            frames.allocated_blocks_in(base, SMALL_PER_LARGE),
            Some(vec![]),
            "vacated block did not end up free"
        );
        report.blocks_freed += 1;
        freed += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::age_heap;
    use crate::page_table::AccessKind;

    /// First mapped page of the fragmenter region — a movable page sitting
    /// alone in an aged order-9 block.
    fn fragmenter_page(aspace: &AddressSpace) -> VirtAddr {
        let vma = aspace
            .vmas()
            .iter()
            .find(|v| v.name == "fragmenter")
            .expect("aged address space has a fragmenter region")
            .clone();
        let mut off = 0;
        while off < vma.len {
            let va = vma.start.add(off);
            if aspace.page_table().probe(va).is_some() {
                return va;
            }
            off += 4096;
        }
        panic!("no mapped fragmenter page");
    }

    #[test]
    fn compaction_reassembles_order9_blocks() {
        let mut frames = BuddyAllocator::new(64 * 1024 * 1024);
        let mut asp = AddressSpace::new(&mut frames).unwrap();
        age_heap(&mut frames, &mut asp, 1.0).unwrap();
        let o9 = PageSize::Large2M.buddy_order();
        assert!(frames.alloc(o9).is_err(), "setup must fragment the heap");
        assert!(frames.fragmentation_index(o9) > 0.9);
        let rep = compact(&mut asp, &mut frames, 2).unwrap();
        assert_eq!(rep.blocks_freed, 2);
        assert!(rep.migrated >= 2);
        assert_eq!(rep.pt_edits, 2 * rep.migrated);
        let b = frames.alloc(o9).expect("compaction must free order-9");
        frames.free(b, o9);
    }

    #[test]
    fn migrated_pages_keep_contents_addressable_and_flags() {
        let mut frames = BuddyAllocator::new(32 * 1024 * 1024);
        let mut asp = AddressSpace::new(&mut frames).unwrap();
        age_heap(&mut frames, &mut asp, 1.0).unwrap();
        let frag = fragmenter_page(&asp);
        let before = asp.page_table().probe(frag).unwrap();
        let rep = compact(&mut asp, &mut frames, 64).unwrap();
        assert!(rep.migrated > 0);
        // Still mapped 4 KB with the same protection; the frame may move.
        let after = asp.page_table().probe(frag).unwrap();
        assert_eq!(after.size, PageSize::Small4K);
        assert_eq!(
            (after.flags.writable, after.flags.executable),
            (before.flags.writable, before.flags.executable)
        );
        assert!(asp.access(&mut frames, frag, AccessKind::Write).is_ok());
    }

    #[test]
    fn pinned_frames_abandon_their_block() {
        let mut frames = BuddyAllocator::new(16 * 1024 * 1024);
        let mut asp = AddressSpace::new(&mut frames).unwrap();
        // Pin one *unmapped* frame out of every order-9 block: nothing is
        // movable, so compaction must give up without touching anything.
        let o9 = PageSize::Large2M.buddy_order();
        let mut held = Vec::new();
        while let Ok(b) = frames.alloc(o9) {
            held.push(b);
        }
        for &b in &held {
            frames.split_allocated(b, o9);
            for i in 1..512u64 {
                frames.free(PhysAddr(b.0 + i * 4096), 0);
            }
        }
        let rep = compact(&mut asp, &mut frames, 8).unwrap();
        assert_eq!(rep.blocks_freed, 0);
        assert_eq!(rep.migrated, 0);
        assert!(frames.alloc(o9).is_err());
    }

    #[test]
    fn zero_budget_is_a_noop() {
        let mut frames = BuddyAllocator::new(16 * 1024 * 1024);
        let mut asp = AddressSpace::new(&mut frames).unwrap();
        age_heap(&mut frames, &mut asp, 1.0).unwrap();
        let rep = compact(&mut asp, &mut frames, 0).unwrap();
        assert_eq!(rep, CompactReport::default());
    }
}
