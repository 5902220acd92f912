//! A `hugetlbfs`-style reserved pool of 2 MB pages, plus the shared
//! "map files" the modified Omni/SCASH runtime allocates its global heap
//! from (paper §3.3: *"we preallocate a set of large pages which may be
//! used by the processes through the hugetlbfs filesystem"*).
//!
//! The pool is carved out of the buddy allocator at construction — the
//! boot-time reservation that guarantees order-9 blocks exist even after
//! the rest of physical memory fragments. A pool of any rung size, the
//! gigantic ones above the buddy `MAX_ORDER` included, reserves its pages
//! with [`BuddyAllocator::alloc`], or [`BuddyAllocator::alloc_on_node`]
//! per node. Files created in the pool own a fixed run of large frames;
//! mapping a file into several address spaces shares those frames, which
//! is how all processes of the node see one memory image. A file is
//! unlinked only once nothing holds it, so its pages always return to the
//! pool.
//!
//! [`ShmFs`] is the small-page sibling used for the intra-node mailbox
//! file, which the paper deliberately keeps in traditional 4 KB pages.

use crate::addr::{PageSize, PhysAddr};
use crate::error::{VmError, VmResult};
use crate::frame::BuddyAllocator;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A shared, named segment of preallocated frames of a single page size.
///
/// Cloned `Arc`s of a segment are handed to [`crate::vma::Backing::Shared`]
/// so that multiple address spaces resolve faults to the same frames. The
/// segment keeps a map count — the number of VMAs currently mapping it,
/// across all address spaces — so tenant-aware policy (migration pinning,
/// teardown accounting) can distinguish a private file from one visible
/// to several processes.
#[derive(Debug)]
pub struct SharedSegment {
    name: String,
    page_size: PageSize,
    frames: Vec<PhysAddr>,
    map_count: AtomicUsize,
}

impl SharedSegment {
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

    /// Number of VMAs (across all address spaces) currently mapping this
    /// segment. Zero for a created-but-unmapped file.
    #[cfg(test)]
    pub(crate) fn map_count(&self) -> usize {
        self.map_count.load(Ordering::Relaxed)
    }

    /// Record one more mapping. Called by the VMA layer on `mmap`.
    pub(crate) fn note_mapped(&self) {
        self.map_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one mapping gone. Called by the VMA layer on `munmap`.
    pub(crate) fn note_unmapped(&self) {
        let prev = self.map_count.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "unmapped a segment that was never mapped");
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

/// Boot-time reserved pool of huge pages (the `hugetlbfs` analogue).
/// Classically 2 MB pages; [`reserve_sized`](Self::reserve_sized) builds
/// pools of any rung size — including gigantic sizes (1 GB, 32 MB) that
/// exceed the buddy allocator's `MAX_ORDER`, which the allocator carves
/// only while whole aligned runs of memory are still free: at boot, in
/// practice, exactly as on Linux.
#[derive(Debug)]
pub struct HugePool {
    page_size: PageSize,
    free: Vec<PhysAddr>,
    /// Per-node free buckets, populated only by
    /// [`reserve_per_node_sized`](Self::reserve_per_node_sized) — the
    /// analogue of a per-node `nr_hugepages` sysctl. Empty for classic
    /// reservations.
    node_free: Vec<Vec<PhysAddr>>,
    /// Home node of every frame reserved per-node, for re-bucketing on
    /// unlink. Lookup-only, so unordered iteration never matters.
    origin: HashMap<u64, usize>,
    files: HashMap<String, Arc<SharedSegment>>,
}

impl HugePool {
    /// Reserve `pages` 2 MB pages from the buddy allocator. Fails with
    /// [`VmError::OutOfMemory`] if physical memory is too fragmented or
    /// small — exactly the condition boot-time reservation avoids.
    pub fn reserve(frames: &mut BuddyAllocator, pages: u64) -> VmResult<Self> {
        Self::reserve_sized(frames, pages, PageSize::Large2M)
    }

    /// Reserve `pages` pages of `size` from the buddy allocator. Sizes
    /// above the buddy `MAX_ORDER` (e.g. 1 GB) are carved as contiguous
    /// aligned runs, so the reservation succeeds only on a largely
    /// unfragmented machine — boot time, in practice.
    pub fn reserve_sized(
        frames: &mut BuddyAllocator,
        pages: u64,
        size: PageSize,
    ) -> VmResult<Self> {
        let order = size.buddy_order();
        let mut free = Vec::with_capacity(pages as usize);
        for _ in 0..pages {
            match frames.alloc(order) {
                Ok(pa) => free.push(pa),
                Err(e) => {
                    // Roll back the partial reservation.
                    for pa in free {
                        frames.free(pa, order);
                    }
                    return Err(e);
                }
            }
        }
        Ok(HugePool {
            page_size: size,
            free,
            node_free: Vec::new(),
            origin: HashMap::new(),
            files: HashMap::new(),
        })
    }

    /// Reserve `per_node[n]` pages of `size` on each NUMA node `n`,
    /// mirroring Linux's per-node `nr_hugepages` reservation. Each page
    /// must come from its requested node's frame range — a fallback to
    /// another node is treated as exhaustion and rolls the whole
    /// reservation back. Files are then cut from the per-node buckets
    /// with [`create_file_on`](Self::create_file_on). Gigantic sizes
    /// above the buddy `MAX_ORDER` carve aligned runs *inside* each
    /// node's frame range (see [`BuddyAllocator::alloc_on_node`]), so a
    /// per-node gigantic reservation succeeds only while every named node
    /// still holds a fully free aligned run.
    pub fn reserve_per_node_sized(
        frames: &mut BuddyAllocator,
        per_node: &[u64],
        size: PageSize,
    ) -> VmResult<Self> {
        let order = size.buddy_order();
        let mut node_free: Vec<Vec<PhysAddr>> = per_node
            .iter()
            .map(|&n| Vec::with_capacity(n as usize))
            .collect();
        let mut origin = HashMap::new();
        let rollback = |frames: &mut BuddyAllocator, buckets: &mut Vec<Vec<PhysAddr>>| {
            for bucket in buckets.iter_mut() {
                for pa in bucket.drain(..) {
                    frames.free(pa, order);
                }
            }
        };
        for (node, &pages) in per_node.iter().enumerate() {
            for _ in 0..pages {
                match frames.alloc_on_node(node, order) {
                    Ok(pa) if frames.node_of(pa) == node => {
                        origin.insert(pa.0, node);
                        node_free[node].push(pa);
                    }
                    Ok(pa) => {
                        // Landed off-node: the node itself is full.
                        frames.free(pa, order);
                        rollback(frames, &mut node_free);
                        return Err(VmError::OutOfMemory { order });
                    }
                    Err(e) => {
                        rollback(frames, &mut node_free);
                        return Err(e);
                    }
                }
            }
        }
        Ok(HugePool {
            page_size: size,
            free: Vec::new(),
            node_free,
            origin,
            files: HashMap::new(),
        })
    }

    /// Page size of every page in the pool.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Pages still available in the pool (all nodes combined).
    pub fn available(&self) -> u64 {
        self.free.len() as u64 + self.node_free.iter().map(|b| b.len() as u64).sum::<u64>()
    }

    /// Pages still available on one node of a per-node reservation.
    #[cfg(test)]
    pub(crate) fn available_on(&self, node: usize) -> u64 {
        self.node_free.get(node).map_or(0, |b| b.len() as u64)
    }

    /// Create a named file of `len_bytes` (rounded up to whole pool pages)
    /// backed by pool pages.
    pub fn create_file(&mut self, name: &str, len_bytes: u64) -> VmResult<Arc<SharedSegment>> {
        if self.files.contains_key(name) {
            return Err(VmError::FileExists(name.to_owned()));
        }
        let pages = self.page_size.pages_for(len_bytes);
        if pages > self.free.len() as u64 {
            return Err(VmError::HugePoolExhausted {
                requested: pages,
                available: self.free.len() as u64,
            });
        }
        let at = self.free.len() - pages as usize;
        let frames = self.free.split_off(at);
        let seg = Arc::new(SharedSegment {
            name: name.to_owned(),
            page_size: self.page_size,
            frames,
            map_count: AtomicUsize::new(0),
        });
        self.files.insert(name.to_owned(), seg.clone());
        Ok(seg)
    }

    /// Create a named file whose page `i` is drawn from node
    /// `node_for(i)`'s bucket of a per-node reservation — how a NUMA-aware
    /// runtime places a shared hugetlbfs heap (master-node, interleave, …)
    /// at segment-creation time. When the requested node's bucket is empty
    /// the page falls back to the lowest-numbered non-empty bucket, like
    /// the kernel's zonelist walk.
    pub fn create_file_on(
        &mut self,
        name: &str,
        len_bytes: u64,
        node_for: impl Fn(u64) -> usize,
    ) -> VmResult<Arc<SharedSegment>> {
        if self.node_free.is_empty() {
            // Classic reservation: there is only one bucket, so placement
            // degenerates to plain creation.
            return self.create_file(name, len_bytes);
        }
        if self.files.contains_key(name) {
            return Err(VmError::FileExists(name.to_owned()));
        }
        let pages = self.page_size.pages_for(len_bytes);
        if pages > self.available() {
            return Err(VmError::HugePoolExhausted {
                requested: pages,
                available: self.available(),
            });
        }
        let mut frames = Vec::with_capacity(pages as usize);
        for i in 0..pages {
            let want = node_for(i).min(self.node_free.len().saturating_sub(1));
            let bucket = if self.node_free.get(want).is_some_and(|b| !b.is_empty()) {
                want
            } else {
                self.node_free
                    .iter()
                    .position(|b| !b.is_empty())
                    .expect("available() said pages remain")
            };
            frames.push(
                self.node_free[bucket]
                    .pop()
                    .expect("bucket checked non-empty"),
            );
        }
        let seg = Arc::new(SharedSegment {
            name: name.to_owned(),
            page_size: self.page_size,
            frames,
            map_count: AtomicUsize::new(0),
        });
        self.files.insert(name.to_owned(), seg.clone());
        Ok(seg)
    }

    /// Look up an existing file by name (a second "process" opening it).
    #[cfg(test)]
    pub(crate) fn open_file(&self, name: &str) -> VmResult<Arc<SharedSegment>> {
        self.files
            .get(name)
            .cloned()
            .ok_or_else(|| VmError::NoSuchFile(name.to_owned()))
    }

    /// Remove a file and return its pages to the pool. A file that an
    /// address space still maps, or anyone else still holds, is refused
    /// with [`VmError::FileBusy`] and left in place: the pool has no way
    /// to take its pages back once the last holder lets go.
    pub fn unlink(&mut self, name: &str) -> VmResult<()> {
        let seg = self
            .files
            .get(name)
            .ok_or_else(|| VmError::NoSuchFile(name.to_owned()))?;
        if Arc::strong_count(seg) > 1 {
            return Err(VmError::FileBusy(name.to_owned()));
        }
        for &pa in &seg.frames {
            match self.origin.get(&pa.0) {
                Some(&node) => self.node_free[node].push(pa),
                None => self.free.push(pa),
            }
        }
        self.files.remove(name);
        Ok(())
    }

    /// Release the pool's unused pages back to the buddy allocator.
    #[cfg(test)]
    pub(crate) fn shrink_to_fit(&mut self, frames: &mut BuddyAllocator) {
        let order = self.page_size.buddy_order();
        for pa in self.free.drain(..) {
            frames.free(pa, order);
        }
        for bucket in self.node_free.iter_mut() {
            for pa in bucket.drain(..) {
                frames.free(pa, order);
            }
        }
    }
}

/// Small-page shared files (POSIX shm analogue) — used for the mailbox
/// region the paper keeps in 4 KB pages. Pages are the filesystem's
/// granule: 4 KB by default, or an architecture's base granule via
/// [`ShmFs::with_granule`].
#[derive(Debug)]
pub struct ShmFs {
    files: HashMap<String, Arc<SharedSegment>>,
    granule: PageSize,
}

impl Default for ShmFs {
    fn default() -> Self {
        Self::with_granule(PageSize::Small4K)
    }
}

impl ShmFs {
    /// Create an empty shm filesystem with the classic 4 KB granule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty shm filesystem whose files are built from pages of
    /// `granule` (an architecture's base page size).
    pub fn with_granule(granule: PageSize) -> Self {
        ShmFs {
            files: HashMap::new(),
            granule,
        }
    }

    /// Page size of this filesystem's files.
    pub fn granule(&self) -> PageSize {
        self.granule
    }

    /// Create a named granule-paged file of `len_bytes` (rounded up),
    /// drawing frames from the buddy allocator immediately.
    pub fn create_file(
        &mut self,
        frames: &mut BuddyAllocator,
        name: &str,
        len_bytes: u64,
    ) -> VmResult<Arc<SharedSegment>> {
        self.create_file_placed(frames, name, len_bytes, |_| None)
    }

    /// Like [`create_file`](Self::create_file), but page `i` is allocated
    /// on node `node_for(i)` when it returns `Some` — NUMA placement for
    /// shared small-page segments. `None` keeps the allocator's default
    /// (lowest address first).
    pub fn create_file_placed(
        &mut self,
        frames: &mut BuddyAllocator,
        name: &str,
        len_bytes: u64,
        node_for: impl Fn(u64) -> Option<usize>,
    ) -> VmResult<Arc<SharedSegment>> {
        if self.files.contains_key(name) {
            return Err(VmError::FileExists(name.to_owned()));
        }
        let order = self.granule.buddy_order();
        let pages = self.granule.pages_for(len_bytes);
        let mut fr = Vec::with_capacity(pages as usize);
        for i in 0..pages {
            let got = match node_for(i) {
                Some(node) => frames.alloc_on_node(node.min(frames.nodes() - 1), order),
                None => frames.alloc(order),
            };
            match got {
                Ok(pa) => fr.push(pa),
                Err(e) => {
                    for pa in fr {
                        frames.free(pa, order);
                    }
                    return Err(e);
                }
            }
        }
        let seg = Arc::new(SharedSegment {
            name: name.to_owned(),
            page_size: self.granule,
            frames: fr,
            map_count: AtomicUsize::new(0),
        });
        self.files.insert(name.to_owned(), seg.clone());
        Ok(seg)
    }

    /// Look up an existing file.
    #[cfg(test)]
    pub(crate) fn open_file(&self, name: &str) -> VmResult<Arc<SharedSegment>> {
        self.files
            .get(name)
            .cloned()
            .ok_or_else(|| VmError::NoSuchFile(name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames() -> BuddyAllocator {
        BuddyAllocator::new(64 * 1024 * 1024)
    }

    #[test]
    fn reserve_and_create() {
        let mut f = frames();
        let mut pool = HugePool::reserve(&mut f, 8).unwrap();
        assert_eq!(pool.available(), 8);
        let seg = pool.create_file("heap", 5 * 1024 * 1024).unwrap(); // 3 pages
        assert_eq!(seg.page_count(), 3);
        assert_eq!(pool.available(), 5);
        // frames are 2MB aligned
        for i in 0..3 {
            assert_eq!(seg.frame(i).unwrap().0 % PageSize::Large2M.bytes(), 0);
        }
    }

    #[test]
    fn sized_pool_serves_gigabyte_pages() {
        // 2 GB extent, pool of one 1 GB page — carved past the buddy
        // MAX_ORDER via the contiguous-run path.
        let mut f = BuddyAllocator::new(2u64 << 30);
        let before = f.free_bytes();
        let mut pool = HugePool::reserve_sized(&mut f, 1, PageSize::Page1G).unwrap();
        assert_eq!(pool.page_size(), PageSize::Page1G);
        assert_eq!(pool.available(), 1);
        let seg = pool.create_file("heap", 123).unwrap();
        assert_eq!(seg.page_size(), PageSize::Page1G);
        assert_eq!(seg.page_count(), 1);
        assert_eq!(seg.frame(0).unwrap().0 % PageSize::Page1G.bytes(), 0);
        drop(seg);
        pool.unlink("heap").unwrap();
        pool.shrink_to_fit(&mut f);
        assert_eq!(f.free_bytes(), before);
    }

    #[test]
    fn reservation_failure_rolls_back() {
        let mut f = BuddyAllocator::new(8 * 1024 * 1024); // 4 large pages
        let before = f.free_bytes();
        assert!(HugePool::reserve(&mut f, 100).is_err());
        assert_eq!(f.free_bytes(), before);
    }

    #[test]
    fn pool_exhaustion_reported() {
        let mut f = frames();
        let mut pool = HugePool::reserve(&mut f, 2).unwrap();
        let e = pool.create_file("big", 10 * 1024 * 1024);
        assert_eq!(
            e.err(),
            Some(VmError::HugePoolExhausted {
                requested: 5,
                available: 2
            })
        );
    }

    #[test]
    fn open_returns_same_segment() {
        let mut f = frames();
        let mut pool = HugePool::reserve(&mut f, 4).unwrap();
        let a = pool.create_file("heap", 1).unwrap();
        let b = pool.open_file("heap").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(pool.open_file("nope").is_err());
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut f = frames();
        let mut pool = HugePool::reserve(&mut f, 4).unwrap();
        pool.create_file("heap", 1).unwrap();
        assert_eq!(
            pool.create_file("heap", 1).err(),
            Some(VmError::FileExists("heap".into()))
        );
    }

    #[test]
    fn unlink_returns_pages_when_unreferenced() {
        let mut f = frames();
        let mut pool = HugePool::reserve(&mut f, 4).unwrap();
        let seg = pool
            .create_file("heap", 2 * PageSize::Large2M.bytes())
            .unwrap();
        drop(seg);
        pool.unlink("heap").unwrap();
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn unlink_refuses_a_file_still_referenced() {
        let mut f = frames();
        let mut pool = HugePool::reserve(&mut f, 4).unwrap();
        let seg = pool
            .create_file("heap", 2 * PageSize::Large2M.bytes())
            .unwrap();
        assert_eq!(pool.unlink("heap"), Err(VmError::FileBusy("heap".into())));
        assert_eq!(pool.available(), 2);
        assert!(Arc::ptr_eq(&pool.open_file("heap").unwrap(), &seg));
        drop(seg);
        pool.unlink("heap").unwrap();
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn shrink_returns_memory_to_buddy() {
        let mut f = frames();
        let before = f.free_bytes();
        let mut pool = HugePool::reserve(&mut f, 8).unwrap();
        assert_eq!(f.free_bytes(), before - 8 * PageSize::Large2M.bytes());
        pool.shrink_to_fit(&mut f);
        assert_eq!(f.free_bytes(), before);
    }

    #[test]
    fn per_node_reservation_places_pages() {
        let mut f = BuddyAllocator::with_nodes(64 * 1024 * 1024, 2);
        let mut pool =
            HugePool::reserve_per_node_sized(&mut f, &[4, 4], PageSize::Large2M).unwrap();
        assert_eq!(pool.available(), 8);
        assert_eq!(pool.available_on(0), 4);
        assert_eq!(pool.available_on(1), 4);
        // Interleaved file: even pages on node 0, odd on node 1.
        let seg = pool
            .create_file_on("heap", 4 * PageSize::Large2M.bytes(), |i| (i % 2) as usize)
            .unwrap();
        for i in 0..4 {
            let pa = seg.frame(i).unwrap();
            assert_eq!(f.node_of(pa), (i % 2) as usize, "page {i} misplaced");
        }
        assert_eq!(pool.available_on(0), 2);
        assert_eq!(pool.available_on(1), 2);
        // Master-node file: everything on node 0, overflowing to node 1
        // once node 0's bucket runs dry.
        let seg2 = pool
            .create_file_on("master", 3 * PageSize::Large2M.bytes(), |_| 0)
            .unwrap();
        assert_eq!(f.node_of(seg2.frame(0).unwrap()), 0);
        assert_eq!(f.node_of(seg2.frame(1).unwrap()), 0);
        assert_eq!(f.node_of(seg2.frame(2).unwrap()), 1, "fallback bucket");
        assert_eq!(pool.available(), 1);
    }

    #[test]
    fn per_node_unlink_rebuckets_and_shrink_returns_all() {
        let mut f = BuddyAllocator::with_nodes(64 * 1024 * 1024, 2);
        let before = f.free_bytes();
        let mut pool =
            HugePool::reserve_per_node_sized(&mut f, &[2, 2], PageSize::Large2M).unwrap();
        let seg = pool
            .create_file_on("heap", 2 * PageSize::Large2M.bytes(), |i| (i % 2) as usize)
            .unwrap();
        assert_eq!(pool.available_on(0), 1);
        drop(seg);
        pool.unlink("heap").unwrap();
        assert_eq!(pool.available_on(0), 2);
        assert_eq!(pool.available_on(1), 2);
        pool.shrink_to_fit(&mut f);
        assert_eq!(f.free_bytes(), before);
    }

    #[test]
    fn per_node_gigantic_reservation_places_and_round_trips() {
        // 4 GB over 2 nodes: one 1 GB page reserved on each node.
        let mut f = BuddyAllocator::with_nodes(4u64 << 30, 2);
        let before = f.free_bytes();
        let mut pool = HugePool::reserve_per_node_sized(&mut f, &[1, 1], PageSize::Page1G).unwrap();
        assert_eq!(pool.page_size(), PageSize::Page1G);
        assert_eq!(pool.available_on(0), 1);
        assert_eq!(pool.available_on(1), 1);
        let seg = pool
            .create_file_on("heap", 2 * PageSize::Page1G.bytes(), |i| (i % 2) as usize)
            .unwrap();
        for i in 0..2 {
            let pa = seg.frame(i).unwrap();
            assert_eq!(f.node_of(pa), (i % 2) as usize, "page {i} misplaced");
            assert_eq!(pa.0 % PageSize::Page1G.bytes(), 0);
        }
        drop(seg);
        pool.unlink("heap").unwrap();
        assert_eq!(pool.available_on(0), 1, "unlink re-buckets by origin");
        pool.shrink_to_fit(&mut f);
        assert_eq!(f.free_bytes(), before);
    }

    #[test]
    fn per_node_gigantic_reservation_rolls_back_when_a_node_is_full() {
        // Each node holds exactly two 1 GB runs; asking for three on node 0
        // must fail (the fallback run would land on node 1) and leak
        // nothing.
        let mut f = BuddyAllocator::with_nodes(4u64 << 30, 2);
        let before = f.free_bytes();
        assert!(HugePool::reserve_per_node_sized(&mut f, &[3, 0], PageSize::Page1G).is_err());
        assert_eq!(f.free_bytes(), before);
    }

    #[test]
    fn per_node_reservation_rolls_back_when_a_node_is_full() {
        // 8 MB split over 2 nodes = 2 large pages per node; asking for 3 on
        // node 1 must fail without leaking the partial reservation.
        let mut f = BuddyAllocator::with_nodes(8 * 1024 * 1024, 2);
        let before = f.free_bytes();
        assert!(HugePool::reserve_per_node_sized(&mut f, &[1, 3], PageSize::Large2M).is_err());
        assert_eq!(f.free_bytes(), before);
    }

    #[test]
    fn shm_placed_file_lands_on_requested_nodes() {
        let mut f = BuddyAllocator::with_nodes(16 * 1024 * 1024, 2);
        let mut shm = ShmFs::new();
        let seg = shm
            .create_file_placed(&mut f, "heap", 8 * 4096, |i| Some((i % 2) as usize))
            .unwrap();
        for i in 0..8 {
            assert_eq!(f.node_of(seg.frame(i).unwrap()), (i % 2) as usize);
        }
    }

    #[test]
    fn shm_small_pages() {
        let mut f = frames();
        let mut shm = ShmFs::new();
        let seg = shm.create_file(&mut f, "mailbox", 10_000).unwrap();
        assert_eq!(seg.page_size(), PageSize::Small4K);
        assert_eq!(seg.page_count(), 3);
        assert!(shm.open_file("mailbox").is_ok());
        assert!(shm.create_file(&mut f, "mailbox", 1).is_err());
    }
}
