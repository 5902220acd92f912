//! Shared map files: the `hugetlbfs` file the modified Omni/SCASH runtime
//! allocates its global heap from (paper §3.3: *"we preallocate a set of
//! large pages which may be used by the processes through the hugetlbfs
//! filesystem"*), and the small-page shm files of the intra-node mailbox,
//! which the paper deliberately keeps in traditional 4 KB pages.
//!
//! [`SharedSegment::alloc`] is the one constructor, for every rung. It
//! takes all of a file's frames from the buddy allocator at once, so a
//! heap created at bring-up holds its large pages before the rest of
//! physical memory fragments — the boot-time reservation guarantee. The
//! gigantic rungs above the buddy `MAX_ORDER` (1 GB, 32 MB) are carved as
//! aligned runs, which exist only while memory is largely unfragmented:
//! at boot, in practice, exactly as on Linux. Mapping a segment into
//! several address spaces shares its frames, which is how all processes
//! of the node see one memory image.

use crate::addr::{PageSize, PhysAddr};
use crate::error::{VmError, VmResult};
use crate::frame::BuddyAllocator;
use std::sync::Arc;

/// A shared, named segment of preallocated frames of a single page size.
///
/// Cloned `Arc`s of a segment are handed to [`crate::vma::Backing::Shared`]
/// so that multiple address spaces resolve faults to the same frames.
#[derive(Debug)]
pub struct SharedSegment {
    name: String,
    page_size: PageSize,
    frames: Vec<PhysAddr>,
}

impl SharedSegment {
    /// Create the file `name` of `len_bytes`, rounded up to whole pages of
    /// `size`, taking every frame now. Page `i` is allocated on node
    /// `node_for(i)` when it returns `Some` (clamped to the last node) and
    /// falls back to the other nodes in zonelist order when that node is
    /// full — how a NUMA-aware runtime places a shared heap at creation
    /// time; `None` takes the allocator's lowest free block. On failure
    /// every frame already taken goes back to the allocator.
    pub fn alloc(
        frames: &mut BuddyAllocator,
        name: &str,
        len_bytes: u64,
        size: PageSize,
        node_for: impl Fn(u64) -> Option<usize>,
    ) -> VmResult<Arc<Self>> {
        let order = size.buddy_order();
        let pages = size.pages_for(len_bytes);
        let mut taken = Vec::with_capacity(pages as usize);
        for i in 0..pages {
            let got = match node_for(i) {
                Some(node) => frames.alloc_on_node(node.min(frames.nodes() - 1), order),
                None => frames.alloc(order),
            };
            match got {
                Ok(pa) => taken.push(pa),
                Err(e) => {
                    for pa in taken {
                        frames.free(pa, order);
                    }
                    return Err(e);
                }
            }
        }
        Ok(Arc::new(SharedSegment {
            name: name.to_owned(),
            page_size: size,
            frames: taken,
        }))
    }

    /// Name the segment was created under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Page size of every frame in the segment.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Length of the segment in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.frames.len() as u64 * self.page_size.bytes()
    }

    /// Number of pages in the segment.
    pub fn page_count(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Physical frame backing page `index` of the file.
    pub fn frame(&self, index: u64) -> VmResult<PhysAddr> {
        self.frames
            .get(index as usize)
            .copied()
            .ok_or(VmError::OutOfRange {
                offset: index * self.page_size.bytes(),
                len: self.page_size.bytes(),
                object_len: self.len_bytes(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB2: u64 = PageSize::Large2M.bytes();
    const GB: u64 = PageSize::Page1G.bytes();

    /// Node of every page of `seg`, in page order.
    fn nodes_of(f: &BuddyAllocator, seg: &SharedSegment) -> Vec<usize> {
        (0..seg.page_count())
            .map(|i| f.node_of(seg.frame(i).unwrap()))
            .collect()
    }

    #[test]
    fn length_rounds_up_to_whole_aligned_pages() {
        let mut f = BuddyAllocator::new(64 * 1024 * 1024);
        let seg =
            SharedSegment::alloc(&mut f, "heap", 5 * 1024 * 1024, PageSize::Large2M, |_| None)
                .unwrap();
        assert_eq!(seg.name(), "heap");
        assert_eq!(seg.page_size(), PageSize::Large2M);
        assert_eq!(seg.page_count(), 3);
        assert_eq!(seg.len_bytes(), 3 * MB2);
        for i in 0..3 {
            assert_eq!(seg.frame(i).unwrap().0 % MB2, 0);
        }
        assert!(seg.frame(3).is_err());
        let mb =
            SharedSegment::alloc(&mut f, "mailbox", 10_000, PageSize::Small4K, |_| None).unwrap();
        assert_eq!(mb.page_count(), 3);
    }

    #[test]
    fn gigabyte_segment_is_carved_past_max_order() {
        // 2 GB extent, one 1 GB page — carved past the buddy MAX_ORDER via
        // the contiguous-run path.
        let mut f = BuddyAllocator::new(2 * GB);
        let before = f.free_bytes();
        let seg = SharedSegment::alloc(&mut f, "heap", 123, PageSize::Page1G, |_| None).unwrap();
        assert_eq!(seg.page_size(), PageSize::Page1G);
        assert_eq!(seg.page_count(), 1);
        assert_eq!(seg.frame(0).unwrap().0 % GB, 0);
        assert_eq!(f.free_bytes(), before - GB);
    }

    #[test]
    fn failed_segment_leaks_nothing() {
        // 8 MB holds four 2 MB pages; ask for more, anywhere and with a
        // node requested.
        let mut f = BuddyAllocator::new(8 * 1024 * 1024);
        let before = f.free_bytes();
        assert!(
            SharedSegment::alloc(&mut f, "heap", 100 * MB2, PageSize::Large2M, |_| None).is_err()
        );
        assert_eq!(f.free_bytes(), before);
        let mut f = BuddyAllocator::with_nodes(8 * 1024 * 1024, 2);
        let before = f.free_bytes();
        let e = SharedSegment::alloc(&mut f, "heap", 5 * MB2, PageSize::Large2M, |_| Some(1));
        assert_eq!(
            e.err(),
            Some(VmError::OutOfMemory {
                order: PageSize::Large2M.buddy_order()
            })
        );
        assert_eq!(f.free_bytes(), before);
    }

    #[test]
    fn pages_land_on_their_nodes_in_ascending_order() {
        for (size, total) in [
            (PageSize::Small4K, 16 * 1024 * 1024),
            (PageSize::Large2M, 64 * 1024 * 1024),
            (PageSize::Page1G, 4 * GB),
        ] {
            let mut f = BuddyAllocator::with_nodes(total, 2);
            // Interleaved: even pages on node 0, odd on node 1.
            let seg = SharedSegment::alloc(&mut f, "heap", 4 * size.bytes(), size, |i| {
                Some((i % 2) as usize)
            })
            .unwrap();
            assert_eq!(nodes_of(&f, &seg), [0, 1, 0, 1], "{size}");
            for i in 0..2 {
                let (lo, hi) = (seg.frame(i).unwrap(), seg.frame(i + 2).unwrap());
                assert!(lo < hi, "{size}: node {i}'s frames out of order");
                assert_eq!(lo.0 % size.bytes(), 0, "{size}");
            }
        }
    }

    #[test]
    fn a_full_node_spills_over_in_zonelist_order() {
        // Each node of a 4 GB 2-node allocator holds two 1 GB runs, so the
        // third master-node page falls back to node 1.
        let mut f = BuddyAllocator::with_nodes(4 * GB, 2);
        let seg =
            SharedSegment::alloc(&mut f, "heap", 3 * GB, PageSize::Page1G, |_| Some(0)).unwrap();
        assert_eq!(nodes_of(&f, &seg), [0, 0, 1]);
    }
}
