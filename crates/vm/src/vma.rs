//! Virtual memory areas and per-process address spaces.
//!
//! An [`AddressSpace`] is the analogue of a Linux `mm_struct`: an ordered
//! set of [`Vma`] regions plus the radix page table. Regions can be backed
//! anonymously (private frames) or by a shared segment (the memory-mapped
//! file through which Omni/SCASH shares the global heap between the
//! processes of one node — §3.3 of the paper). Each region has a fixed page
//! size, so a single space can mix a 4 KB-backed mailbox file with a
//! 2 MB-backed shared heap exactly the way the modified runtime does.
//!
//! Population policy is the design axis the paper argues about in §3.3
//! ("Large Page Allocation"): demand faulting is what a general-purpose OS
//! does; the paper's runtime *preallocates* (pre-touches) everything at
//! startup because an OpenMP job owns the node for its whole run.

use crate::addr::{PageSize, PhysAddr, VirtAddr};
use crate::error::{VmError, VmResult};
use crate::frame::BuddyAllocator;
use crate::hugetlbfs::SharedSegment;
use crate::page_table::{AccessKind, PageTable, PteFlags, Translation, WalkTrace};
use std::sync::Arc;

/// What backs a region's pages.
#[derive(Clone, Debug)]
pub enum Backing {
    /// Private frames allocated from the buddy allocator at fault time.
    Anonymous,
    /// A shared segment whose frames were allocated when the segment was
    /// created (hugetlbfs file or small-page shm file). Mapping processes
    /// share the same physical frames.
    Shared(Arc<SharedSegment>),
}

/// NUMA placement: which node a page's frame comes from. The address
/// space applies it when an anonymous page is allocated at fault time, and
/// a shared file's creator applies it to each page of the file. This is
/// the VM half of the machine's placement policy: the machine decides
/// which node is "local" to the faulting thread, the policy decides which
/// node the fresh frame comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodePolicy {
    /// Every page on one fixed node (the paper's master-node
    /// degenerate case when the master's node is passed).
    Fixed(usize),
    /// Round-robin `chunk`-byte virtual chunks across the nodes. The chunk
    /// is clamped up to the region's page size, so 2 MB pages interleave
    /// at 2 MB even when 4 KB interleave is requested.
    Interleave {
        /// Bytes per interleave chunk.
        chunk: u64,
    },
    /// Place each page on the node of the thread that first touches it —
    /// Linux's default policy. Pages populated without a faulting thread
    /// (eager prepopulation) fall back to node 0.
    FirstTouch,
}

impl NodePolicy {
    /// The node, among `nodes`, of the `page`-sized page at byte position
    /// `at`: its virtual address at fault time, or its offset in a shared
    /// file placed at creation. `touch` is the faulting thread's node
    /// (`None` without one).
    pub fn node_at(self, nodes: usize, at: u64, page: PageSize, touch: Option<usize>) -> usize {
        let node = match self {
            NodePolicy::Fixed(n) => n,
            NodePolicy::Interleave { chunk } => {
                (at / chunk.max(page.bytes()) % nodes as u64) as usize
            }
            NodePolicy::FirstTouch => touch.unwrap_or(0),
        };
        node.min(nodes - 1)
    }
}

/// When the pages of a freshly created mapping get populated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Populate {
    /// Map every page immediately (`MAP_POPULATE` / the paper's startup
    /// preallocation). No faults are taken later.
    Eager,
    /// Pages are mapped by the fault handler on first touch.
    OnDemand,
}

/// A contiguous virtual region with uniform backing, protection and page
/// size.
#[derive(Clone, Debug)]
pub struct Vma {
    /// First virtual address of the region.
    pub start: VirtAddr,
    /// Length in bytes (a whole number of pages).
    pub len: u64,
    /// Page size used for every mapping in the region.
    pub page_size: PageSize,
    /// Protection applied to each page.
    pub flags: PteFlags,
    /// What supplies the frames.
    pub backing: Backing,
    /// Debug name ("code", "shared-heap", "mailbox", ...).
    pub name: String,
}

impl Vma {
    /// End address (exclusive).
    pub fn end(&self) -> VirtAddr {
        self.start.add(self.len)
    }

    /// Does the region contain `va`?
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.start && va < self.end()
    }

    /// Number of pages in the region.
    pub fn page_count(&self) -> u64 {
        self.len >> self.page_size.shift()
    }
}

/// Fault statistics for an address space.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults resolved by allocating a fresh anonymous frame.
    pub anon_faults: u64,
    /// Faults resolved by mapping an existing shared frame.
    pub shared_faults: u64,
    /// Pages populated eagerly at mmap time.
    pub prepopulated: u64,
    /// Accesses that faulted on a region that does not exist (SIGSEGV).
    pub segv: u64,
}

/// The outcome of [`AddressSpace::access`]: how the translation was
/// obtained, so callers can charge the right cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The page was already mapped; `trace` is the hardware walk.
    Walked(Translation, WalkTrace),
    /// A page fault was taken and resolved, then the walk repeated.
    Faulted(Translation, WalkTrace),
}

impl AccessOutcome {
    /// The translation regardless of path.
    pub fn translation(&self) -> Translation {
        match self {
            AccessOutcome::Walked(t, _) | AccessOutcome::Faulted(t, _) => *t,
        }
    }

    /// The final successful walk trace.
    pub fn trace(&self) -> &WalkTrace {
        match self {
            AccessOutcome::Walked(_, w) | AccessOutcome::Faulted(_, w) => w,
        }
    }

    /// Whether a fault was taken.
    pub fn faulted(&self) -> bool {
        matches!(self, AccessOutcome::Faulted(..))
    }
}

/// Base of the mmap arena (above the code/static segments).
const MMAP_BASE: u64 = 0x1_0000_0000;

/// A simulated process address space.
#[derive(Debug)]
pub struct AddressSpace {
    pt: PageTable,
    vmas: Vec<Vma>, // kept sorted by start
    next_mmap: u64,
    faults: FaultStats,
    /// `(nodes, policy)` governing anonymous frame placement; `None` keeps
    /// the allocator's default (lowest address first).
    node_policy: Option<(usize, NodePolicy)>,
}

impl AddressSpace {
    /// Create an empty x86-64-2007 address space; the page-table root is
    /// drawn from `frames`.
    pub fn new(frames: &mut BuddyAllocator) -> VmResult<Self> {
        Self::new_for(frames, crate::arch::Arch::X86_64_2007)
    }

    /// Create an empty address space whose page table is shaped for `arch`.
    pub fn new_for(frames: &mut BuddyAllocator, arch: crate::arch::Arch) -> VmResult<Self> {
        Ok(AddressSpace {
            pt: PageTable::new_for(frames, arch)?,
            vmas: Vec::new(),
            next_mmap: MMAP_BASE,
            faults: FaultStats::default(),
            node_policy: None,
        })
    }

    /// Set the NUMA placement policy for anonymous fault-time allocations.
    pub fn set_node_policy(&mut self, nodes: usize, policy: NodePolicy) {
        self.node_policy = Some((nodes, policy));
    }

    /// The NUMA placement policy, if one was set.
    pub fn node_policy(&self) -> Option<(usize, NodePolicy)> {
        self.node_policy
    }

    /// Fault statistics snapshot.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
    }

    /// Remove one page mapping (promotion migration path).
    pub(crate) fn unmap_page(&mut self, va: VirtAddr, size: PageSize) -> VmResult<Translation> {
        self.pt.unmap(va, size)
    }

    /// Install one page mapping (promotion migration path).
    pub(crate) fn map_page(
        &mut self,
        frames: &mut BuddyAllocator,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
        flags: PteFlags,
    ) -> VmResult<()> {
        self.pt.map(frames, va, pa, size, flags)
    }

    /// Borrow the underlying page table (for stats / direct walks).
    pub fn page_table(&self) -> &PageTable {
        &self.pt
    }

    /// Mutably borrow the page table (test scaffolding: setting up
    /// non-uniform protection without a user-visible API).
    #[cfg(test)]
    pub(crate) fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.pt
    }

    /// The regions of this space, ordered by start address.
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// Find the region containing `va`.
    pub fn find_vma(&self, va: VirtAddr) -> Option<&Vma> {
        // vmas is sorted by start; binary search for the candidate.
        let idx = self
            .vmas
            .partition_point(|v| v.start.0 <= va.0)
            .checked_sub(1)?;
        let v = &self.vmas[idx];
        v.contains(va).then_some(v)
    }

    fn find_vma_idx(&self, va: VirtAddr) -> Option<usize> {
        let idx = self
            .vmas
            .partition_point(|v| v.start.0 <= va.0)
            .checked_sub(1)?;
        self.vmas[idx].contains(va).then_some(idx)
    }

    /// Reserve a fresh virtual range of `len` bytes aligned to `size`.
    fn reserve_range(&mut self, len: u64, size: PageSize) -> VirtAddr {
        let align = size.bytes();
        let start = (self.next_mmap + align - 1) & !(align - 1);
        self.next_mmap = start + len;
        VirtAddr(start)
    }

    /// Create a mapping at a caller-chosen address (used for the fixed code
    /// segment). `start` must be size-aligned and the range must not
    /// overlap an existing region.
    #[allow(clippy::too_many_arguments)] // mirrors mmap(2)'s parameter surface
    pub fn mmap_fixed(
        &mut self,
        frames: &mut BuddyAllocator,
        start: VirtAddr,
        len: u64,
        page_size: PageSize,
        flags: PteFlags,
        backing: Backing,
        populate: Populate,
        name: &str,
    ) -> VmResult<VirtAddr> {
        if !start.is_aligned(page_size) {
            return Err(VmError::Misaligned {
                addr: start,
                size: page_size,
            });
        }
        let len = page_size.round_up(len);
        let end = start.add(len);
        if self.vmas.iter().any(|v| start < v.end() && v.start < end) {
            return Err(VmError::AlreadyMapped(start));
        }
        if let Backing::Shared(seg) = &backing {
            if seg.page_size() != page_size {
                return Err(VmError::Misaligned {
                    addr: start,
                    size: page_size,
                });
            }
            if len > seg.len_bytes() {
                return Err(VmError::OutOfRange {
                    offset: 0,
                    len,
                    object_len: seg.len_bytes(),
                });
            }
        }
        let vma = Vma {
            start,
            len,
            page_size,
            flags,
            backing,
            name: name.to_owned(),
        };
        let pos = self.vmas.partition_point(|v| v.start < vma.start);
        self.vmas.insert(pos, vma);
        if populate == Populate::Eager {
            self.populate_region(frames, start)?;
        }
        // keep next_mmap above fixed mappings too
        self.next_mmap = self.next_mmap.max(end.0);
        Ok(start)
    }

    /// Create a mapping at a kernel-chosen address (anonymous `mmap`).
    #[allow(clippy::too_many_arguments)]
    pub fn mmap(
        &mut self,
        frames: &mut BuddyAllocator,
        len: u64,
        page_size: PageSize,
        flags: PteFlags,
        backing: Backing,
        populate: Populate,
        name: &str,
    ) -> VmResult<VirtAddr> {
        let len = page_size.round_up(len);
        let start = self.reserve_range(len, page_size);
        self.mmap_fixed(
            frames, start, len, page_size, flags, backing, populate, name,
        )
    }

    /// Populate every not-yet-mapped page of the region containing `start`.
    /// Returns the number of pages populated.
    pub(crate) fn populate_region(
        &mut self,
        frames: &mut BuddyAllocator,
        start: VirtAddr,
    ) -> VmResult<u64> {
        let idx = self.find_vma_idx(start).ok_or(VmError::NotMapped(start))?;
        let (vstart, len, size) = {
            let v = &self.vmas[idx];
            (v.start, v.len, v.page_size)
        };
        let mut populated = 0;
        let mut off = 0;
        while off < len {
            let va = vstart.add(off);
            if self.pt.probe(va).is_none() {
                self.install_page(frames, idx, va, None)?;
                populated += 1;
            }
            off += size.bytes();
        }
        self.faults.prepopulated += populated;
        Ok(populated)
    }

    /// Install the page containing `va` for region index `idx`. For
    /// anonymous backing the frame's home node follows the space's
    /// [`NodePolicy`]; `touch` is the faulting thread's node, consumed by
    /// [`NodePolicy::FirstTouch`].
    fn install_page(
        &mut self,
        frames: &mut BuddyAllocator,
        idx: usize,
        va: VirtAddr,
        touch: Option<usize>,
    ) -> VmResult<PhysAddr> {
        let (vstart, size, flags, backing) = {
            let v = &self.vmas[idx];
            (v.start, v.page_size, v.flags, v.backing.clone())
        };
        let page_va = va.page_base(size);
        let pa = match backing {
            Backing::Anonymous => match self.node_policy {
                Some((nodes, policy)) => {
                    let node = policy.node_at(nodes, page_va.0, size, touch);
                    frames.alloc_on_node(node, size.buddy_order())?
                }
                None => frames.alloc(size.buddy_order())?,
            },
            Backing::Shared(seg) => {
                let page_index = (page_va.0 - vstart.0) >> size.shift();
                seg.frame(page_index)?
            }
        };
        self.pt.map(frames, page_va, pa, size, flags)?;
        Ok(pa)
    }

    /// Translate an access, taking and resolving a page fault if needed.
    ///
    /// This is the path the machine model drives: a TLB miss performs
    /// `access`, charging the returned walk trace to the memory hierarchy
    /// and an additional fault cost when [`AccessOutcome::Faulted`].
    pub fn access(
        &mut self,
        frames: &mut BuddyAllocator,
        va: VirtAddr,
        kind: AccessKind,
    ) -> VmResult<AccessOutcome> {
        self.access_from(frames, va, kind, None)
    }

    /// [`access`](Self::access) with the faulting thread's NUMA node, so a
    /// demand fault under [`NodePolicy::FirstTouch`] places the fresh frame
    /// on the toucher's node.
    pub fn access_from(
        &mut self,
        frames: &mut BuddyAllocator,
        va: VirtAddr,
        kind: AccessKind,
        touch: Option<usize>,
    ) -> VmResult<AccessOutcome> {
        match self.pt.walk(va, kind) {
            Ok((t, w)) => Ok(AccessOutcome::Walked(t, w)),
            Err(VmError::NotMapped(_)) => {
                let idx = match self.find_vma_idx(va) {
                    Some(i) => i,
                    None => {
                        self.faults.segv += 1;
                        return Err(VmError::NotMapped(va));
                    }
                };
                match &self.vmas[idx].backing {
                    Backing::Anonymous => self.faults.anon_faults += 1,
                    Backing::Shared(_) => self.faults.shared_faults += 1,
                }
                self.install_page(frames, idx, va, touch)?;
                let (t, w) = self.pt.walk(va, kind)?;
                Ok(AccessOutcome::Faulted(t, w))
            }
            Err(e) => Err(e),
        }
    }

    /// A `/proc/<pid>/smaps`-style listing of the regions: name, range,
    /// page size, protection, and how many pages are installed.
    pub fn smaps(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for v in &self.vmas {
            let mut populated = 0u64;
            let mut off = 0;
            while off < v.len {
                if self.pt.probe(v.start.add(off)).is_some() {
                    populated += 1;
                }
                off += v.page_size.bytes();
            }
            let prot = format!(
                "{}{}{}",
                if v.flags.present { 'r' } else { '-' },
                if v.flags.writable { 'w' } else { '-' },
                if v.flags.executable { 'x' } else { '-' },
            );
            let _ = writeln!(
                out,
                "{:#014x}-{:#014x} {prot} {:>4} {:>8}/{:<8} {}",
                v.start.0,
                v.end().0,
                v.page_size.to_string(),
                populated,
                v.page_count(),
                v.name,
            );
        }
        out
    }

    /// Remove the region containing `start`, unmapping all its pages and
    /// returning anonymous frames to the allocator. Shared frames stay
    /// owned by their segment.
    pub fn munmap(&mut self, frames: &mut BuddyAllocator, start: VirtAddr) -> VmResult<()> {
        let idx = self.find_vma_idx(start).ok_or(VmError::NotMapped(start))?;
        let v = self.vmas.remove(idx);
        // Promotion can leave a region with mixed page sizes; probe each
        // position and unmap at the size actually installed.
        let mut off = 0;
        while off < v.len {
            let va = v.start.add(off);
            match self.pt.probe(va) {
                Some(t) => {
                    let size = t.size;
                    self.pt.unmap(va, size)?;
                    if matches!(v.backing, Backing::Anonymous) {
                        frames.free(t.pa.frame_base(size), size.buddy_order());
                    }
                    off += size.bytes();
                }
                None => off += v.page_size.bytes(),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hugetlbfs::SharedSegment;

    fn frames() -> BuddyAllocator {
        BuddyAllocator::new(256 * 1024 * 1024)
    }

    #[test]
    fn anonymous_demand_faulting() {
        let mut f = frames();
        let mut asp = AddressSpace::new(&mut f).unwrap();
        let base = asp
            .mmap(
                &mut f,
                3 * 4096,
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::OnDemand,
                "heap",
            )
            .unwrap();
        let out = asp
            .access(&mut f, base.add(4096), AccessKind::Write)
            .unwrap();
        assert!(out.faulted());
        // second touch of the same page: no fault
        let out = asp
            .access(&mut f, base.add(4100), AccessKind::Read)
            .unwrap();
        assert!(!out.faulted());
        assert_eq!(asp.fault_stats().anon_faults, 1);
    }

    #[test]
    fn eager_population_takes_no_faults() {
        let mut f = frames();
        let mut asp = AddressSpace::new(&mut f).unwrap();
        let base = asp
            .mmap(
                &mut f,
                8 * 4096,
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::Eager,
                "heap",
            )
            .unwrap();
        assert_eq!(asp.fault_stats().prepopulated, 8);
        for i in 0..8 {
            let out = asp
                .access(&mut f, base.add(i * 4096), AccessKind::Read)
                .unwrap();
            assert!(!out.faulted());
        }
        assert_eq!(asp.fault_stats().anon_faults, 0);
    }

    #[test]
    fn shared_segment_frames_are_shared_between_spaces() {
        let mut f = frames();
        let seg = SharedSegment::alloc(
            &mut f,
            "heap",
            2 * PageSize::Large2M.bytes(),
            PageSize::Large2M,
            |_| None,
        )
        .unwrap();
        let mut a = AddressSpace::new(&mut f).unwrap();
        let mut b = AddressSpace::new(&mut f).unwrap();
        let va_a = a
            .mmap(
                &mut f,
                seg.len_bytes(),
                PageSize::Large2M,
                PteFlags::rw(),
                Backing::Shared(seg.clone()),
                Populate::Eager,
                "shared-heap",
            )
            .unwrap();
        let va_b = b
            .mmap(
                &mut f,
                seg.len_bytes(),
                PageSize::Large2M,
                PteFlags::rw(),
                Backing::Shared(seg.clone()),
                Populate::Eager,
                "shared-heap",
            )
            .unwrap();
        let pa_a = a
            .access(&mut f, va_a.add(0x1234), AccessKind::Read)
            .unwrap();
        let pa_b = b
            .access(&mut f, va_b.add(0x1234), AccessKind::Read)
            .unwrap();
        assert_eq!(pa_a.translation().pa, pa_b.translation().pa);

        // Anonymous pages at the same virtual address stay physically
        // disjoint: separate page tables over one frame pool.
        let mut anon = |asp: &mut AddressSpace| {
            let va = asp
                .mmap(
                    &mut f,
                    4096,
                    PageSize::Small4K,
                    PteFlags::rw(),
                    Backing::Anonymous,
                    Populate::Eager,
                    "private",
                )
                .unwrap();
            (va, asp.page_table().probe(va).unwrap().pa)
        };
        let (anon_va_a, anon_pa_a) = anon(&mut a);
        let (anon_va_b, anon_pa_b) = anon(&mut b);
        assert_eq!(anon_va_a, anon_va_b);
        assert_ne!(anon_pa_a, anon_pa_b);

        a.munmap(&mut f, va_a).unwrap();
        b.munmap(&mut f, va_b).unwrap();
    }

    #[test]
    fn segv_on_unmapped_access() {
        let mut f = frames();
        let mut asp = AddressSpace::new(&mut f).unwrap();
        let e = asp.access(&mut f, VirtAddr(0xdead_0000), AccessKind::Read);
        assert_eq!(e, Err(VmError::NotMapped(VirtAddr(0xdead_0000))));
        assert_eq!(asp.fault_stats().segv, 1);
    }

    #[test]
    fn munmap_returns_anonymous_frames() {
        let mut f = frames();
        let before = f.free_bytes();
        let mut asp = AddressSpace::new(&mut f).unwrap();
        let base = asp
            .mmap(
                &mut f,
                16 * 4096,
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::Eager,
                "heap",
            )
            .unwrap();
        asp.munmap(&mut f, base).unwrap();
        // Only the page-table nodes remain allocated.
        assert!(f.free_bytes() >= before - 16 * 4096);
        assert!(asp.find_vma(base).is_none());
    }

    #[test]
    fn mixed_page_sizes_in_one_space() {
        let mut f = frames();
        let seg = SharedSegment::alloc(
            &mut f,
            "big",
            PageSize::Large2M.bytes(),
            PageSize::Large2M,
            |_| None,
        )
        .unwrap();
        let mut asp = AddressSpace::new(&mut f).unwrap();
        let small = asp
            .mmap(
                &mut f,
                4096,
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::Eager,
                "mailbox",
            )
            .unwrap();
        let large = asp
            .mmap(
                &mut f,
                seg.len_bytes(),
                PageSize::Large2M,
                PteFlags::rw(),
                Backing::Shared(seg),
                Populate::Eager,
                "shared-heap",
            )
            .unwrap();
        let ts = asp
            .access(&mut f, small, AccessKind::Read)
            .unwrap()
            .translation();
        let tl = asp
            .access(&mut f, large, AccessKind::Read)
            .unwrap()
            .translation();
        assert_eq!(ts.size, PageSize::Small4K);
        assert_eq!(tl.size, PageSize::Large2M);
    }

    #[test]
    fn fixed_mapping_overlap_rejected() {
        let mut f = frames();
        let mut asp = AddressSpace::new(&mut f).unwrap();
        asp.mmap_fixed(
            &mut f,
            VirtAddr(0x40_0000),
            8192,
            PageSize::Small4K,
            PteFlags::rx(),
            Backing::Anonymous,
            Populate::Eager,
            "code",
        )
        .unwrap();
        let e = asp.mmap_fixed(
            &mut f,
            VirtAddr(0x40_1000),
            4096,
            PageSize::Small4K,
            PteFlags::rw(),
            Backing::Anonymous,
            Populate::Eager,
            "overlap",
        );
        assert!(matches!(e, Err(VmError::AlreadyMapped(_))));
    }

    #[test]
    fn smaps_reports_regions() {
        let mut f = frames();
        let mut asp = AddressSpace::new(&mut f).unwrap();
        asp.mmap(
            &mut f,
            2 * 4096,
            PageSize::Small4K,
            PteFlags::rw(),
            Backing::Anonymous,
            Populate::OnDemand,
            "lazy-heap",
        )
        .unwrap();
        let base2 = asp
            .mmap(
                &mut f,
                4096,
                PageSize::Small4K,
                PteFlags::rx(),
                Backing::Anonymous,
                Populate::Eager,
                "code",
            )
            .unwrap();
        let _ = base2;
        let report = asp.smaps();
        assert!(report.contains("lazy-heap"));
        assert!(report.contains("code"));
        assert!(report.contains("r-x"));
        // lazy region: 0 of 2 pages populated.
        assert!(report.contains("       0/2"), "report:\n{report}");
    }

    #[test]
    fn first_touch_places_frames_on_the_touching_node() {
        let mut f = BuddyAllocator::with_nodes(256 * 1024 * 1024, 2);
        let mut asp = AddressSpace::new(&mut f).unwrap();
        asp.set_node_policy(2, NodePolicy::FirstTouch);
        let base = asp
            .mmap(
                &mut f,
                4 * 4096,
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::OnDemand,
                "heap",
            )
            .unwrap();
        // Threads on node 1 touch pages 0-1, node 0 touches pages 2-3.
        for (i, node) in [(0, 1usize), (1, 1), (2, 0), (3, 0)] {
            let out = asp
                .access_from(&mut f, base.add(i * 4096), AccessKind::Write, Some(node))
                .unwrap();
            assert!(out.faulted());
            assert_eq!(f.node_of(out.translation().pa), node, "page {i}");
        }
    }

    #[test]
    fn interleave_policy_alternates_nodes_per_chunk() {
        let mut f = BuddyAllocator::with_nodes(256 * 1024 * 1024, 2);
        let mut asp = AddressSpace::new(&mut f).unwrap();
        asp.set_node_policy(2, NodePolicy::Interleave { chunk: 4096 });
        let base = asp
            .mmap(
                &mut f,
                8 * 4096,
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::Eager,
                "heap",
            )
            .unwrap();
        for i in 0..8u64 {
            let t = asp.page_table().probe(base.add(i * 4096)).unwrap();
            let expect = (((base.0 + i * 4096) / 4096) % 2) as usize;
            assert_eq!(f.node_of(t.pa), expect, "page {i}");
        }
    }

    #[test]
    fn find_vma_boundaries() {
        let mut f = frames();
        let mut asp = AddressSpace::new(&mut f).unwrap();
        let base = asp
            .mmap(
                &mut f,
                2 * 4096,
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::OnDemand,
                "r",
            )
            .unwrap();
        assert!(asp.find_vma(base).is_some());
        assert!(asp.find_vma(base.add(2 * 4096 - 1)).is_some());
        assert!(asp.find_vma(base.add(2 * 4096)).is_none());
    }
}
