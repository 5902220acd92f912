//! The shared-region allocator Omni's transformed globals draw from.
//!
//! Omni/SCASH allocates all global and dynamic memory *at process startup*
//! from the node's shared mapped file (paper §3.3), which is precisely
//! what lets the large-page policy apply to every shared array at once.
//! [`BumpAllocator`] is that allocator: a monotonic carver over a virtual
//! range, with cache-line alignment so separately allocated arrays never
//! share a line (no false sharing between threads working on different
//! arrays).

use crate::shared::{ShVec, Word, ELEM_BYTES};
use lpomp_vm::VirtAddr;

/// Alignment applied to every allocation (one cache line).
pub(crate) const ALLOC_ALIGN: u64 = 64;
/// Allocations of at least a page are page-aligned, as Omni's shared-region
/// allocator does (the region itself is page-granular).
pub(crate) const PAGE_ALIGN: u64 = 4096;

#[inline]
fn align_for(bytes: u64) -> u64 {
    if bytes >= PAGE_ALIGN {
        PAGE_ALIGN
    } else {
        ALLOC_ALIGN
    }
}

/// A monotonic allocator over a virtual address range, optionally with a
/// secondary region for small allocations (the paper's §6 future-work
/// suggestion: "allocate a mix of large pages for the bigger allocations
/// and the typical 4KB pages for the smaller allocations").
#[derive(Debug)]
pub struct BumpAllocator {
    base: VirtAddr,
    next: u64,
    limit: u64,
    /// Optional (base, next, limit, threshold): allocations smaller than
    /// `threshold` bytes are served from this secondary region.
    small: Option<SmallRegion>,
}

#[derive(Debug)]
struct SmallRegion {
    base: VirtAddr,
    next: u64,
    limit: u64,
    threshold: u64,
}

impl BumpAllocator {
    /// Allocator over `[base, base + limit)`. Use `u64::MAX` as an
    /// effectively unbounded limit for native (unsimulated) runs.
    pub fn new(base: VirtAddr, limit: u64) -> Self {
        BumpAllocator {
            base,
            next: 0,
            limit,
            small: None,
        }
    }

    /// Allocator with a split: allocations below `threshold` bytes come
    /// from the `[small_base, small_base + small_limit)` region (intended
    /// to be 4 KB-backed), everything else from the primary (2 MB-backed)
    /// region.
    pub fn with_split(
        base: VirtAddr,
        limit: u64,
        small_base: VirtAddr,
        small_limit: u64,
        threshold: u64,
    ) -> Self {
        BumpAllocator {
            base,
            next: 0,
            limit,
            small: Some(SmallRegion {
                base: small_base,
                next: 0,
                limit: small_limit,
                threshold,
            }),
        }
    }

    /// Unbounded allocator at an arbitrary base — for native runs, where
    /// addresses are only labels.
    pub fn unbounded() -> Self {
        Self::new(VirtAddr(0x1_0000_0000), u64::MAX)
    }

    /// Base of the managed region.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Bytes handed out so far (including alignment padding).
    #[cfg(test)]
    pub(crate) fn used_bytes(&self) -> u64 {
        self.next
    }

    /// Reserve `bytes`, returning the virtual address of the block.
    ///
    /// # Panics
    /// When the region is exhausted — shared-region sizing is a startup
    /// decision, so running out is a configuration bug, not a runtime
    /// condition to recover from.
    pub(crate) fn alloc_bytes(&mut self, bytes: u64) -> VirtAddr {
        let align = align_for(bytes);
        if let Some(sm) = &mut self.small {
            if bytes < sm.threshold {
                let aligned = (sm.next + align - 1) & !(align - 1);
                assert!(
                    aligned + bytes <= sm.limit,
                    "small shared region exhausted: need {bytes} at offset {aligned}, limit {}",
                    sm.limit
                );
                sm.next = aligned + bytes;
                return sm.base.add(aligned);
            }
        }
        let aligned = (self.next + align - 1) & !(align - 1);
        assert!(
            aligned + bytes <= self.limit,
            "shared region exhausted: need {bytes} more bytes at offset {aligned}, limit {}",
            self.limit
        );
        self.next = aligned + bytes;
        self.base.add(aligned)
    }

    /// Bytes handed out from the secondary (small) region.
    #[cfg(test)]
    pub(crate) fn small_used_bytes(&self) -> u64 {
        self.small.as_ref().map_or(0, |s| s.next)
    }

    /// Allocate a zeroed shared array of `len` elements.
    pub fn alloc_vec<T: Word>(&mut self, len: usize) -> ShVec<T> {
        let va = self.alloc_bytes(len as u64 * ELEM_BYTES);
        ShVec::new(len, va)
    }

    /// Allocate a shared array initialised from a function.
    pub fn alloc_vec_from<T: Word>(&mut self, len: usize, f: impl FnMut(usize) -> T) -> ShVec<T> {
        let va = self.alloc_bytes(len as u64 * ELEM_BYTES);
        ShVec::from_fn(len, va, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let mut a = BumpAllocator::new(VirtAddr(0x1000), 1 << 20);
        let x = a.alloc_bytes(100);
        let y = a.alloc_bytes(8);
        assert_eq!(x.0 % ALLOC_ALIGN, 0);
        assert_eq!(y.0 % ALLOC_ALIGN, 0);
        assert!(y.0 >= x.0 + 100);
    }

    #[test]
    fn vec_allocation_tracks_addresses() {
        let mut a = BumpAllocator::new(VirtAddr(0x1000), 1 << 20);
        let v: ShVec<f64> = a.alloc_vec(16);
        assert_eq!(v.vbase().0 % ALLOC_ALIGN, 0);
        assert_eq!(v.len(), 16);
        let w: ShVec<f64> = a.alloc_vec(16);
        assert!(w.vbase().0 >= v.vbase().0 + 128);
    }

    #[test]
    fn from_fn_initialises() {
        let mut a = BumpAllocator::unbounded();
        let v: ShVec<u64> = a.alloc_vec_from(4, |i| i as u64 * 3);
        assert_eq!(v.to_vec(), vec![0, 3, 6, 9]);
    }

    #[test]
    fn used_bytes_accounts_padding() {
        let mut a = BumpAllocator::new(VirtAddr(0), 1 << 20);
        a.alloc_bytes(1);
        a.alloc_bytes(1);
        assert_eq!(a.used_bytes(), ALLOC_ALIGN + 1);
    }

    #[test]
    #[should_panic(expected = "shared region exhausted")]
    fn exhaustion_panics() {
        let mut a = BumpAllocator::new(VirtAddr(0), 128);
        a.alloc_bytes(64);
        a.alloc_bytes(65);
    }

    #[test]
    fn large_allocations_are_page_aligned() {
        let mut a = BumpAllocator::new(VirtAddr(0x1000), 1 << 22);
        a.alloc_bytes(100); // misalign the cursor
        let big = a.alloc_bytes(8192);
        assert_eq!(big.0 % PAGE_ALIGN, 0);
        let small = a.alloc_bytes(32);
        assert_eq!(small.0 % ALLOC_ALIGN, 0);
    }

    #[test]
    fn split_routes_by_size() {
        let mut a = BumpAllocator::with_split(
            VirtAddr(0x4000_0000),
            1 << 20,
            VirtAddr(0x1000),
            1 << 16,
            4096,
        );
        let big = a.alloc_bytes(8192);
        let small = a.alloc_bytes(64);
        assert_eq!(big, VirtAddr(0x4000_0000));
        assert_eq!(small, VirtAddr(0x1000));
        assert_eq!(a.used_bytes(), 8192);
        assert_eq!(a.small_used_bytes(), 64);
    }

    #[test]
    #[should_panic(expected = "small shared region exhausted")]
    fn small_region_exhaustion_panics() {
        let mut a =
            BumpAllocator::with_split(VirtAddr(0x4000_0000), 1 << 20, VirtAddr(0x1000), 128, 4096);
        a.alloc_bytes(100);
        a.alloc_bytes(100);
    }
}
