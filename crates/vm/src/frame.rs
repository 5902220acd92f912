//! Buddy allocator for physical page frames.
//!
//! The Linux kernels the paper ran on back both 4 KB pages and — through the
//! boot-time `hugetlbfs` reservation — 2 MB pages from a binary buddy
//! allocator. We reproduce that substrate: order 0 is one 4 KB frame and
//! order 9 is one 2 MB frame, so a large page is a naturally aligned block
//! of 512 base frames. This is also what makes the paper's *preallocation*
//! argument concrete: once the machine has been up for a while the buddy
//! heap fragments and order-9 blocks become scarce, which is why the shared
//! heap's file in [`crate::hugetlbfs`] takes all its large pages at "boot"
//! (system bring-up).
//!
//! One body serves every allocation, of any order, anywhere
//! ([`BuddyAllocator::alloc`]) or on a node first
//! ([`BuddyAllocator::alloc_on_node`]). Up to [`MAX_ORDER`] it splits the
//! lowest block of the smallest fitting free order. Above it (gigantic
//! pages: 1 GB, 32 MB) it carves the lowest span-aligned run of free
//! `MAX_ORDER` blocks, the moral equivalent of Linux's boot-time
//! `alloc_contig_range` path, so a gigantic block exists only while memory
//! is unfragmented. [`BuddyAllocator::free`] takes every order;
//! `BuddyAllocator::alloc_topdown` is the compaction scanner's own
//! top-down search.

use crate::addr::{PhysAddr, SMALL_PAGE_SHIFT};
use crate::error::{VmError, VmResult};
use std::collections::BTreeSet;

/// Maximum buddy order supported (order 10 = 4 MB), mirroring Linux's
/// historical `MAX_ORDER`. Larger orders are carved from runs of free
/// `MAX_ORDER` blocks.
pub const MAX_ORDER: u8 = 10;

/// Binary buddy allocator over a contiguous physical extent.
///
/// Frames are identified by their base [`PhysAddr`]; an order-`k` block is
/// `2^k` base (4 KB) frames, naturally aligned to its own size.
#[derive(Debug)]
pub struct BuddyAllocator {
    /// Free lists per order; ordered sets so behaviour is deterministic
    /// (lowest address first) and buddy membership checks are O(log n).
    free: Vec<BTreeSet<u64>>, // physical frame number (4 KB units) of block base
    /// Live allocations, one byte per base frame: `order + 1` of the
    /// block based at that frame, 0 where none is. Catches double frees
    /// and wrong-order frees. It starts zeroed, so the pages of frames
    /// never allocated stay untouched.
    live: Vec<u8>,
    /// Total managed base frames.
    total_frames: u64,
    /// Currently free base frames.
    free_frames: u64,
    /// Fault injection: fail the next `inject_count` allocations of order
    /// ≥ `inject_min_order` (adversarial-fragmentation testing).
    #[cfg(test)]
    inject_count: u64,
    #[cfg(test)]
    inject_min_order: u8,
    /// NUMA nodes the extent is divided into (1 = UMA).
    nodes: usize,
    /// Base frames per node (MAX_ORDER-aligned); the last node absorbs any
    /// remainder. Meaningless when `nodes == 1`.
    node_span: u64,
}

impl BuddyAllocator {
    /// Create an allocator managing `total_bytes` of physical memory
    /// starting at physical address 0. `total_bytes` is rounded down to a
    /// whole number of base frames.
    pub fn new(total_bytes: u64) -> Self {
        Self::with_nodes(total_bytes, 1)
    }

    /// Create an allocator whose extent is divided into `nodes` equal NUMA
    /// nodes. Node boundaries are aligned to `MAX_ORDER` blocks, so no
    /// buddy block ever straddles two nodes; the last node absorbs any
    /// remainder frames. With `nodes == 1` this is identical to
    /// [`new`](Self::new).
    pub fn with_nodes(total_bytes: u64, nodes: usize) -> Self {
        assert!(nodes >= 1, "need at least one node");
        let total_frames = total_bytes >> SMALL_PAGE_SHIFT;
        let node_span = if nodes == 1 {
            total_frames
        } else {
            let span = (total_frames / nodes as u64) & !((1u64 << MAX_ORDER) - 1);
            assert!(
                span > 0,
                "{total_bytes} bytes is too small to split across {nodes} nodes"
            );
            span
        };
        let mut a = BuddyAllocator {
            free: (0..=MAX_ORDER).map(|_| BTreeSet::new()).collect(),
            live: vec![0; usize::try_from(total_frames).expect("frame count fits usize")],
            total_frames,
            free_frames: 0,
            #[cfg(test)]
            inject_count: 0,
            #[cfg(test)]
            inject_min_order: 0,
            nodes,
            node_span,
        };
        // Seed the free lists with maximal aligned blocks.
        let mut pfn = 0u64;
        while pfn < total_frames {
            let mut order = MAX_ORDER;
            loop {
                let span = 1u64 << order;
                if pfn.is_multiple_of(span) && pfn + span <= total_frames {
                    break;
                }
                order -= 1;
            }
            a.free[order as usize].insert(pfn);
            a.free_frames += 1 << order;
            pfn += 1 << order;
        }
        a
    }

    /// Total bytes managed.
    pub fn total_bytes(&self) -> u64 {
        self.total_frames << SMALL_PAGE_SHIFT
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.free_frames << SMALL_PAGE_SHIFT
    }

    /// Number of free blocks at exactly the given order.
    #[cfg(test)]
    pub(crate) fn free_blocks_at(&self, order: u8) -> usize {
        self.free[order as usize].len()
    }

    /// Largest order with at least one free block, if any.
    #[cfg(test)]
    pub(crate) fn largest_free_order(&self) -> Option<u8> {
        (0..=MAX_ORDER)
            .rev()
            .find(|&o| !self.free[o as usize].is_empty())
    }

    /// Number of NUMA nodes the extent is divided into.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Home node of a physical address: the node whose frame range contains
    /// it. Frames past the last even node boundary belong to the last node.
    pub fn node_of(&self, pa: PhysAddr) -> usize {
        if self.nodes == 1 {
            return 0;
        }
        (((pa.0 >> SMALL_PAGE_SHIFT) / self.node_span) as usize).min(self.nodes - 1)
    }

    /// The `[start, end)` physical frame number range owned by `node`.
    fn node_pfn_range(&self, node: usize) -> (u64, u64) {
        let start = self.node_span * node as u64;
        let end = if node == self.nodes - 1 {
            self.total_frames
        } else {
            start + self.node_span
        };
        (start, end)
    }

    /// Bytes currently free on one node.
    #[cfg(test)]
    pub(crate) fn free_bytes_on(&self, node: usize) -> u64 {
        assert!(node < self.nodes);
        let (lo, hi) = self.node_pfn_range(node);
        let mut frames = 0u64;
        for o in 0..=MAX_ORDER {
            frames += (self.free[o as usize].range(lo..hi).count() as u64) << o;
        }
        frames << SMALL_PAGE_SHIFT
    }

    /// Allocate one naturally aligned block of order `order` (any order)
    /// from anywhere in the extent, returning its base physical address.
    pub fn alloc(&mut self, order: u8) -> VmResult<PhysAddr> {
        self.alloc_from(order, None)
    }

    /// Allocate one naturally aligned block of order `order` (any order)
    /// from `node`'s frame range, falling back to the other nodes in
    /// ascending wrap-around order when the preferred node is exhausted —
    /// the shape of Linux's zonelist fallback. The caller can detect an
    /// off-node fallback with [`node_of`](Self::node_of).
    pub fn alloc_on_node(&mut self, node: usize, order: u8) -> VmResult<PhysAddr> {
        assert!(node < self.nodes, "node {node} out of range");
        self.alloc_from(order, Some(node))
    }

    /// The one allocation body: search the whole extent (`node` is `None`)
    /// or `node`'s frame range and then the other nodes' in wrap order,
    /// and take the first fit. Up to [`MAX_ORDER`] that is the lowest block
    /// of the smallest fitting free order, split down with the upper
    /// halves returned. Node boundaries are `MAX_ORDER`-aligned, so such a
    /// block lies wholly in the range its base is in. Above, it is the
    /// lowest span-aligned run of free `MAX_ORDER` blocks that ends inside
    /// the range.
    fn alloc_from(&mut self, order: u8, node: Option<usize>) -> VmResult<PhysAddr> {
        #[cfg(test)]
        if self.injected_failure(order) {
            return Err(VmError::OutOfMemory { order });
        }
        let span = 1u64 << order;
        let chunk = 1u64 << MAX_ORDER;
        let ranges = if node.is_some() { self.nodes } else { 1 };
        for i in 0..ranges {
            let (lo, hi) = match node {
                Some(n) => self.node_pfn_range((n + i) % self.nodes),
                None => (0, self.total_frames),
            };
            let base = if order <= MAX_ORDER {
                let Some((mut o, pfn)) = (order..=MAX_ORDER)
                    .find_map(|o| Some((o, *self.free[o as usize].range(lo..hi).next()?)))
                else {
                    continue;
                };
                self.free[o as usize].remove(&pfn);
                while o > order {
                    o -= 1;
                    self.free[o as usize].insert(pfn + (1u64 << o));
                }
                pfn
            } else {
                let top = &mut self.free[MAX_ORDER as usize];
                let Some(base) = top.range(lo..hi).copied().find(|&b| {
                    b.is_multiple_of(span)
                        && b + span <= hi
                        && (1..span / chunk).all(|j| top.contains(&(b + j * chunk)))
                }) else {
                    continue;
                };
                for j in 0..span / chunk {
                    top.remove(&(base + j * chunk));
                }
                base
            };
            self.free_frames -= span;
            self.mark_live(base, order);
            return Ok(PhysAddr(base << SMALL_PAGE_SHIFT));
        }
        Err(VmError::OutOfMemory { order })
    }

    /// Free a block previously allocated with the same order. A block up
    /// to [`MAX_ORDER`] coalesces with free buddies as far as possible; a
    /// larger one goes back as its `MAX_ORDER` blocks, which are already
    /// maximal.
    pub fn free(&mut self, addr: PhysAddr, order: u8) {
        let base = addr.0 >> SMALL_PAGE_SHIFT;
        assert_eq!(
            base % (1 << order),
            0,
            "freed block {addr:?} not aligned to order {order}"
        );
        match self.take_live(base) {
            Some(o) => assert_eq!(o, order, "block {addr:?} freed with wrong order"),
            None => panic!("double free or foreign free of block at {addr:?}"),
        }
        let piece = order.min(MAX_ORDER);
        for j in 0..1u64 << (order - piece) {
            let mut pfn = base + (j << piece);
            let mut o = piece;
            // Merge with the free buddy, if any: the pair is based at the
            // lower of the two.
            while o < MAX_ORDER && self.free[o as usize].remove(&(pfn ^ (1u64 << o))) {
                pfn &= !(1u64 << o);
                o += 1;
            }
            let inserted = self.free[o as usize].insert(pfn);
            debug_assert!(inserted, "free-list corruption at pfn {pfn:#x}");
        }
        self.free_frames += 1 << order;
    }

    /// Allocate one naturally aligned block of order `order` from the
    /// *top* of physical memory (highest free address). This is the
    /// compaction free scanner's allocation path: migration targets are
    /// drawn from the opposite end of memory from the low-address blocks
    /// being vacated, so the two scanners converge instead of thrashing.
    pub(crate) fn alloc_topdown(&mut self, order: u8) -> VmResult<PhysAddr> {
        assert!(order <= MAX_ORDER, "order {order} exceeds MAX_ORDER");
        #[cfg(test)]
        if self.injected_failure(order) {
            return Err(VmError::OutOfMemory { order });
        }
        // Candidate per order: the block with the highest *top* address.
        let mut found: Option<(u8, u64)> = None;
        for o in order..=MAX_ORDER {
            if let Some(&pfn) = self.free[o as usize].iter().next_back() {
                let top = pfn + (1u64 << o);
                if found.is_none_or(|(fo, fp)| top > fp + (1u64 << fo)) {
                    found = Some((o, pfn));
                }
            }
        }
        let Some((mut o, mut pfn)) = found else {
            return Err(VmError::OutOfMemory { order });
        };
        self.free[o as usize].remove(&pfn);
        // Split down keeping the *upper* half each time, so the returned
        // block is the highest-addressed piece.
        while o > order {
            o -= 1;
            self.free[o as usize].insert(pfn);
            pfn += 1u64 << o;
        }
        self.free_frames -= 1 << order;
        self.mark_live(pfn, order);
        Ok(PhysAddr(pfn << SMALL_PAGE_SHIFT))
    }

    /// Split a live allocated block of `order` into `2^order` individually
    /// allocated order-0 frames, in place — no frames change state, only
    /// the bookkeeping granularity. This is how a 2 MB page is *demoted*:
    /// the backing block stays where it is, but each 4 KB piece becomes
    /// independently freeable (and migratable) afterwards.
    pub(crate) fn split_allocated(&mut self, addr: PhysAddr, order: u8) {
        assert!(order <= MAX_ORDER);
        let pfn = addr.0 >> SMALL_PAGE_SHIFT;
        match self.take_live(pfn) {
            Some(o) => assert_eq!(o, order, "block {addr:?} split with wrong order"),
            None => panic!("split of unallocated block at {addr:?}"),
        }
        for i in 0..(1u64 << order) {
            self.mark_live(pfn + i, 0);
        }
    }

    /// Enumerate the allocated blocks inside `[base_pfn, base_pfn + span)`
    /// as `(base_pfn, order)` pairs, in address order. Returns `None` when
    /// the range is covered by a block *larger* than itself (so the range
    /// cannot be reasoned about in isolation). `span` must be a power of
    /// two and `base_pfn` aligned to it — the shape of a compaction
    /// candidate.
    pub(crate) fn allocated_blocks_in(&self, base_pfn: u64, span: u64) -> Option<Vec<(u64, u8)>> {
        debug_assert!(span.is_power_of_two() && base_pfn.is_multiple_of(span));
        let end = base_pfn + span;
        let mut out = Vec::new();
        let mut pos = base_pfn;
        while pos < end {
            if let Some(ord) = self.live_order(pos) {
                out.push((pos, ord));
                pos += 1u64 << ord;
                continue;
            }
            // Not an allocated base: must be inside a free block. The free
            // block may be *larger* than the queried span (coalescing does
            // not stop at the span boundary), so check the aligned cover of
            // `pos` at every order.
            let mut advance = None;
            for o in 0..=MAX_ORDER {
                let cover = pos & !((1u64 << o) - 1);
                if self.free[o as usize].contains(&cover) {
                    advance = Some(cover + (1u64 << o) - pos);
                    break;
                }
            }
            match advance {
                Some(s) => pos += s,
                // Interior of a covering *allocated* block: opaque to this
                // range.
                None => return None,
            }
        }
        Some(out)
    }

    /// Record a live block of `order` based at `pfn`.
    fn mark_live(&mut self, pfn: u64, order: u8) {
        self.live[pfn as usize] = order + 1;
    }

    /// Order of the live block based at `pfn`, if one is.
    fn live_order(&self, pfn: u64) -> Option<u8> {
        self.live.get(pfn as usize)?.checked_sub(1)
    }

    /// Forget the live block based at `pfn`, returning its order; `None`
    /// when no block is based there (or `pfn` lies outside the extent).
    fn take_live(&mut self, pfn: u64) -> Option<u8> {
        std::mem::take(self.live.get_mut(pfn as usize)?).checked_sub(1)
    }

    /// Fault injection for adversarial tests: the next `count` allocations
    /// (by any entry) requesting order ≥ `min_order` fail with
    /// [`VmError::OutOfMemory`].
    #[cfg(test)]
    pub(crate) fn inject_alloc_failures(&mut self, count: u64, min_order: u8) {
        self.inject_count = count;
        self.inject_min_order = min_order;
    }

    #[cfg(test)]
    fn injected_failure(&mut self, order: u8) -> bool {
        if self.inject_count > 0 && order >= self.inject_min_order {
            self.inject_count -= 1;
            true
        } else {
            false
        }
    }

    /// External-fragmentation index for a target order: the fraction of free
    /// memory that is *unusable* for an allocation of that order because it
    /// sits in smaller blocks. 0.0 means any free memory could satisfy the
    /// order; 1.0 means none of it could.
    pub fn fragmentation_index(&self, order: u8) -> f64 {
        if self.free_frames == 0 {
            return 0.0;
        }
        let mut usable = 0u64;
        for o in order..=MAX_ORDER {
            usable += (self.free[o as usize].len() as u64) << o;
        }
        1.0 - usable as f64 / self.free_frames as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PageSize;

    fn mb(n: u64) -> u64 {
        n * 1024 * 1024
    }

    #[test]
    fn fresh_allocator_is_fully_free() {
        let a = BuddyAllocator::new(mb(64));
        assert_eq!(a.total_bytes(), mb(64));
        assert_eq!(a.free_bytes(), mb(64));
        assert_eq!(a.largest_free_order(), Some(MAX_ORDER));
    }

    #[test]
    fn alloc_free_roundtrip_restores_state() {
        let mut a = BuddyAllocator::new(mb(16));
        let before = a.free_bytes();
        let b = a.alloc(0).unwrap();
        assert_eq!(a.free_bytes(), before - 4096);
        a.free(b, 0);
        assert_eq!(a.free_bytes(), before);
        // After coalescing everything is back to maximal blocks.
        assert_eq!(a.largest_free_order(), Some(MAX_ORDER));
        assert_eq!(a.free_blocks_at(MAX_ORDER), 4);
    }

    #[test]
    fn large_page_order_alloc_is_aligned() {
        let mut a = BuddyAllocator::new(mb(8));
        let p = a.alloc(PageSize::Large2M.buddy_order()).unwrap();
        assert_eq!(p.0 % PageSize::Large2M.bytes(), 0);
    }

    #[test]
    fn exhaustion_returns_oom() {
        let mut a = BuddyAllocator::new(mb(4));
        // 4 MB = 2 large pages.
        let o9 = PageSize::Large2M.buddy_order();
        a.alloc(o9).unwrap();
        a.alloc(o9).unwrap();
        assert_eq!(a.alloc(o9), Err(VmError::OutOfMemory { order: o9 }));
    }

    #[test]
    fn small_allocs_fragment_large_orders() {
        let mut a = BuddyAllocator::new(mb(4));
        // Grab one 4 KB frame out of each 2 MB region: no order-9 block left.
        let mut held = Vec::new();
        let o9 = PageSize::Large2M.buddy_order();
        while a.largest_free_order().is_some_and(|o| o >= o9) {
            // allocate order-0 until the order-9 supply is gone
            held.push(a.alloc(0).unwrap());
            if held.len() > 10_000 {
                panic!("fragmentation never materialized");
            }
        }
        assert!(a.alloc(o9).is_err());
        assert!(a.fragmentation_index(o9) > 0.0);
        // Freeing everything coalesces back to clean order-10 blocks.
        for h in held {
            a.free(h, 0);
        }
        assert_eq!(a.free_bytes(), mb(4));
        assert_eq!(a.largest_free_order(), Some(MAX_ORDER));
        assert_eq!(a.fragmentation_index(o9), 0.0);
    }

    #[test]
    fn distinct_blocks_do_not_overlap() {
        let mut a = BuddyAllocator::new(mb(4));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1024 {
            let p = a.alloc(0).unwrap();
            assert!(seen.insert(p.0), "duplicate frame {p:?}");
        }
    }

    #[test]
    #[should_panic(expected = "double free or foreign free")]
    fn double_free_panics() {
        let mut a = BuddyAllocator::new(mb(4));
        let p = a.alloc(0).unwrap();
        a.free(p, 0);
        a.free(p, 0);
    }

    #[test]
    #[should_panic(expected = "freed with wrong order")]
    fn wrong_order_free_panics() {
        let mut a = BuddyAllocator::new(mb(4));
        let p = a.alloc(1).unwrap();
        a.free(p, 0);
    }

    #[test]
    fn topdown_alloc_comes_from_the_high_end() {
        let mut a = BuddyAllocator::new(mb(8));
        let low = a.alloc(0).unwrap();
        let high = a.alloc_topdown(0).unwrap();
        assert_eq!(low.0, 0);
        assert_eq!(high.0, mb(8) - 4096, "topdown must return the last frame");
        // Repeated topdown allocations descend.
        let next = a.alloc_topdown(0).unwrap();
        assert_eq!(next.0, mb(8) - 2 * 4096);
        a.free(low, 0);
        a.free(high, 0);
        a.free(next, 0);
        assert_eq!(a.free_bytes(), mb(8));
        assert_eq!(a.largest_free_order(), Some(MAX_ORDER));
    }

    #[test]
    fn split_allocated_enables_partial_free() {
        let mut a = BuddyAllocator::new(mb(8));
        let o9 = PageSize::Large2M.buddy_order();
        let block = a.alloc(o9).unwrap();
        let before = a.free_bytes();
        a.split_allocated(block, o9);
        assert_eq!(a.free_bytes(), before, "split moves no memory");
        // Each 4 KB piece is now independently freeable; freeing all of
        // them coalesces back to a clean heap.
        for i in 0..512 {
            a.free(PhysAddr(block.0 + i * 4096), 0);
        }
        assert_eq!(a.free_bytes(), mb(8));
        assert_eq!(a.largest_free_order(), Some(MAX_ORDER));
    }

    #[test]
    #[should_panic(expected = "split of unallocated block")]
    fn split_of_free_block_panics() {
        let mut a = BuddyAllocator::new(mb(4));
        a.split_allocated(PhysAddr(0), 9);
    }

    #[test]
    fn allocated_blocks_in_reports_range_contents() {
        let mut a = BuddyAllocator::new(mb(8));
        // Empty range: no allocated blocks.
        assert_eq!(a.allocated_blocks_in(0, 512), Some(vec![]));
        let p0 = a.alloc(0).unwrap();
        let p1 = a.alloc(1).unwrap();
        let got = a.allocated_blocks_in(0, 512).unwrap();
        assert_eq!(
            got,
            vec![(p0.0 >> 12, 0), (p1.0 >> 12, 1)],
            "range must list both live blocks"
        );
        // A range interior to a larger covering block is opaque.
        let big = a.alloc(MAX_ORDER).unwrap();
        let base_pfn = big.0 >> 12;
        assert_eq!(a.allocated_blocks_in(base_pfn + 512, 512), None);
        assert_eq!(
            a.allocated_blocks_in(base_pfn, 1024),
            Some(vec![(base_pfn, MAX_ORDER)])
        );
    }

    #[test]
    fn injected_failures_hit_matching_orders_only() {
        let mut a = BuddyAllocator::new(mb(8));
        let o9 = PageSize::Large2M.buddy_order();
        a.inject_alloc_failures(2, o9);
        // Small allocations are unaffected.
        let small = a.alloc(0).unwrap();
        a.free(small, 0);
        // The next two order-9 requests fail despite plenty of memory.
        assert_eq!(a.alloc(o9), Err(VmError::OutOfMemory { order: o9 }));
        assert_eq!(a.alloc_topdown(o9), Err(VmError::OutOfMemory { order: o9 }));
        // The budget is spent; allocation works again.
        let p = a.alloc(o9).unwrap();
        a.free(p, o9);
    }

    #[test]
    fn gigantic_blocks_carve_aligned_runs() {
        let mut a = BuddyAllocator::new(mb(64));
        // Order 13 = 32 MB, well above MAX_ORDER.
        let p = a.alloc(13).unwrap();
        assert_eq!(p.0 % mb(32), 0);
        assert_eq!(a.free_bytes(), mb(32));
        let q = a.alloc(13).unwrap();
        assert_ne!(p, q);
        assert_eq!(a.alloc(13), Err(VmError::OutOfMemory { order: 13 }));
        a.free(p, 13);
        a.free(q, 13);
        assert_eq!(a.free_bytes(), mb(64));
        assert_eq!(a.largest_free_order(), Some(MAX_ORDER));
    }

    #[test]
    fn gigantic_blocks_need_a_fully_free_aligned_run() {
        let mut a = BuddyAllocator::new(mb(64));
        // Pin one 4 KB frame in the first 32 MB half: only the second half
        // can still serve an order-13 request.
        let pin = a.alloc(0).unwrap();
        let p = a.alloc(13).unwrap();
        assert_eq!(p.0, mb(32), "must skip the fragmented first half");
        assert_eq!(a.alloc(13), Err(VmError::OutOfMemory { order: 13 }));
        a.free(pin, 0);
        a.free(p, 13);
        assert_eq!(a.free_bytes(), mb(64));
    }

    #[test]
    fn alloc_block_delegates_small_orders_to_the_buddy_path() {
        let mut a = BuddyAllocator::new(mb(8));
        let p = a.alloc(0).unwrap();
        let q = a.alloc(MAX_ORDER).unwrap();
        a.free(p, 0);
        a.free(q, MAX_ORDER);
        assert_eq!(a.free_bytes(), mb(8));
    }

    #[test]
    fn node_ranges_partition_the_extent() {
        let a = BuddyAllocator::with_nodes(mb(16), 2);
        assert_eq!(a.nodes(), 2);
        assert_eq!(a.free_bytes_on(0) + a.free_bytes_on(1), mb(16));
        assert_eq!(a.node_of(PhysAddr(0)), 0);
        assert_eq!(a.node_of(PhysAddr(mb(8) - 4096)), 0);
        assert_eq!(a.node_of(PhysAddr(mb(8))), 1);
        assert_eq!(a.node_of(PhysAddr(mb(16) - 4096)), 1);
    }

    #[test]
    fn single_node_allocator_matches_uma_behavior() {
        let mut uma = BuddyAllocator::new(mb(8));
        let mut one = BuddyAllocator::with_nodes(mb(8), 1);
        for _ in 0..64 {
            assert_eq!(uma.alloc(0).unwrap(), one.alloc(0).unwrap());
        }
        assert_eq!(uma.alloc(9).unwrap(), one.alloc_on_node(0, 9).unwrap());
        assert_eq!(one.node_of(PhysAddr(mb(7))), 0);
    }

    #[test]
    fn alloc_on_node_stays_on_node_until_exhausted() {
        let mut a = BuddyAllocator::with_nodes(mb(8), 2);
        let o9 = PageSize::Large2M.buddy_order();
        // Node 1 serves from its own half first.
        let p = a.alloc_on_node(1, o9).unwrap();
        assert_eq!(a.node_of(p), 1);
        let q = a.alloc_on_node(1, o9).unwrap();
        assert_eq!(a.node_of(q), 1);
        assert_eq!(a.free_bytes_on(1), 0);
        // Exhausted: falls back to node 0 rather than failing.
        let r = a.alloc_on_node(1, o9).unwrap();
        assert_eq!(a.node_of(r), 0);
        // Blocks remain properly aligned and freeable.
        a.free(p, o9);
        a.free(q, o9);
        a.free(r, o9);
        assert_eq!(a.free_bytes(), mb(8));
    }

    #[test]
    fn node_blocks_never_straddle_the_boundary() {
        let mut a = BuddyAllocator::with_nodes(mb(16), 2);
        while let Ok(p) = a.alloc(MAX_ORDER) {
            let node_first = a.node_of(p);
            let node_last = a.node_of(PhysAddr(p.0 + (4096 << MAX_ORDER) - 4096));
            assert_eq!(node_first, node_last, "block at {p:?} straddles nodes");
        }
    }

    #[test]
    fn alloc_on_node_oom_only_when_every_node_is_empty() {
        let mut a = BuddyAllocator::with_nodes(mb(8), 2);
        let o9 = PageSize::Large2M.buddy_order();
        // 2 large pages per node; node 0 then drains node 1 via fallback.
        for _ in 0..4 {
            a.alloc_on_node(0, o9).unwrap();
        }
        assert_eq!(
            a.alloc_on_node(0, o9),
            Err(VmError::OutOfMemory { order: o9 })
        );
    }

    #[test]
    fn node_targeted_gigantic_blocks_stay_on_node_until_exhausted() {
        // 4 GB over 2 nodes: each node holds two aligned 1 GB runs.
        let g = 30u8 - 12; // order of a 1 GB block in 4 KB frames
        let mut a = BuddyAllocator::with_nodes(4u64 << 30, 2);
        let p = a.alloc_on_node(1, g).unwrap();
        assert_eq!(a.node_of(p), 1);
        assert_eq!(p.0 % (1u64 << 30), 0);
        let q = a.alloc_on_node(1, g).unwrap();
        assert_eq!(a.node_of(q), 1);
        assert_eq!(a.free_bytes_on(1), 0);
        // Node 1 exhausted: the gigantic path falls back like alloc_on_node.
        let r = a.alloc_on_node(1, g).unwrap();
        assert_eq!(a.node_of(r), 0);
        // A pinned frame on node 0 kills its remaining aligned run.
        let pin = a.alloc_on_node(0, 0).unwrap();
        assert_eq!(a.node_of(pin), 0);
        assert_eq!(
            a.alloc_on_node(0, g),
            Err(VmError::OutOfMemory { order: g })
        );
        a.free(pin, 0);
        a.free(p, g);
        a.free(q, g);
        a.free(r, g);
        assert_eq!(a.free_bytes(), 4u64 << 30);
    }

    #[test]
    fn alloc_block_on_node_delegates_buddy_orders() {
        let mut a = BuddyAllocator::with_nodes(mb(16), 2);
        let p = a.alloc_on_node(1, 3).unwrap();
        assert_eq!(a.node_of(p), 1);
        a.free(p, 3);
        assert_eq!(a.free_bytes(), mb(16));
    }

    /// SplitMix64, the generator `tests/properties.rs` drives.
    struct Rng(u64);

    impl Rng {
        /// Uniform in `[0, n)`.
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// FNV-1a 64 of `bytes`, continuing from `h`.
    fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Drive `ops` seeded operations over `a`: `alloc` and `alloc_on_node`
    /// at orders 0–10 and at each of `big`, `alloc_topdown` at orders 0–3,
    /// frees of random live blocks and an occasional injected failure.
    /// Returns FNV-1a 64 of every returned address, every `OutOfMemory`
    /// order and `free_bytes()` after each step, then FNV-1a 64 of the
    /// per-node free bytes and per-order free-block counts at the end.
    fn drive(a: &mut BuddyAllocator, seed: u64, ops: usize, big: &[u8]) -> (u64, u64) {
        let mut rng = Rng(seed);
        let mut live: Vec<(PhysAddr, u8)> = Vec::new();
        let mut h = FNV_OFFSET;
        for _ in 0..ops {
            let op = rng.below(20);
            let got = match op {
                0..=8 => {
                    let order = if rng.below(4) == 0 {
                        big[rng.below(big.len() as u64) as usize]
                    } else {
                        rng.below(u64::from(MAX_ORDER) + 1) as u8
                    };
                    let got = if rng.below(2) == 0 {
                        a.alloc(order)
                    } else {
                        a.alloc_on_node(rng.below(a.nodes() as u64) as usize, order)
                    };
                    Some((got, order))
                }
                9..=10 => {
                    let order = rng.below(4) as u8;
                    Some((a.alloc_topdown(order), order))
                }
                11..=18 => {
                    if !live.is_empty() {
                        let (pa, order) = live.swap_remove(rng.below(live.len() as u64) as usize);
                        a.free(pa, order);
                    }
                    None
                }
                _ => {
                    let min_order = rng.below(u64::from(*big.last().unwrap()) + 1) as u8;
                    a.inject_alloc_failures(1 + rng.below(3), min_order);
                    None
                }
            };
            match got {
                Some((Ok(pa), order)) => {
                    h = fnv(h, &pa.0.to_le_bytes());
                    live.push((pa, order));
                }
                Some((Err(VmError::OutOfMemory { order }), _)) => h = fnv(h, &[order]),
                Some((Err(e), _)) => panic!("unexpected {e:?}"),
                None => {}
            }
            h = fnv(h, &a.free_bytes().to_le_bytes());
        }
        let mut state = FNV_OFFSET;
        for node in 0..a.nodes() {
            state = fnv(state, &a.free_bytes_on(node).to_le_bytes());
        }
        for o in 0..=MAX_ORDER {
            state = fnv(state, &(a.free_blocks_at(o) as u64).to_le_bytes());
        }
        (h, state)
    }

    #[test]
    fn seeded_allocation_sequence_is_pinned() {
        // (total bytes, nodes, gigantic orders, seed). The 3-node extent
        // has 20 MB nodes, so some span-aligned 8 and 16 MB runs straddle
        // two nodes. The literals were recorded before the buddy-order and
        // gigantic-order allocation paths became one body.
        let cases: [(u64, usize, &[u8], u64); 4] = [
            (mb(64), 1, &[11, 12, 13], 1),
            (mb(64), 2, &[11, 12, 13], 2),
            (mb(60), 3, &[11, 12, 13], 3),
            (4u64 << 30, 2, &[11, 12, 13, 18], 4),
        ];
        const PINS: [(u64, u64); 4] = [
            (0xbd63491ec493a021, 0x27e31111b859198c),
            (0x80021e380a08bc16, 0x6641dfd74b1f2973),
            (0x01d99fbb16582ec2, 0x775db31fd2252622),
            (0x67d9490ce0dfb371, 0xe1c7a56e30bd7d72),
        ];
        for ((bytes, nodes, big, seed), pin) in cases.into_iter().zip(PINS) {
            let mut a = BuddyAllocator::with_nodes(bytes, nodes);
            assert_eq!(
                drive(&mut a, seed, 50_000, big),
                pin,
                "{nodes} nodes, {bytes} bytes"
            );
        }
    }
}
