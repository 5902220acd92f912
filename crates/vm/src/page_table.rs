//! Multi-level page tables with ladder-driven leaf sizes.
//!
//! The paper's Figure 2 walks through the Linux page-table organisation
//! (PGD → PMD → PTE page frames → data frame) and observes that translating
//! a virtual address costs one memory reference *per level*, which is what
//! the TLB exists to avoid. The radix geometry is no longer hard-coded:
//! a [`PageTable`] is built for a translation architecture
//! ([`crate::arch::Arch`]) whose [`WalkShape`] fixes the level count and
//! fan-out, and whose ladder fixes which sizes may terminate the walk at
//! which level. On x86-64 a 2 MB mapping ends the walk one level early and
//! a 1 GB mapping two levels early; on ARM64 a contiguous-bit block
//! (64 KB on the 4 KB granule, 2 MB on the 16 KB granule) writes N
//! replicated leaf entries that the TLB may cache as a single entry while
//! the walker still reads exactly one PTE. That "shorter or wider" walk —
//! and the far fewer leaf entries — is the entire mechanism behind the
//! paper's DTLB-miss reductions, so it is modelled structurally rather
//! than as a constant.
//!
//! Every table node is given a physical frame from the buddy allocator, so
//! a [`WalkTrace`] can report the exact physical addresses a hardware page
//! walker would touch; the machine model charges those to the cache
//! hierarchy (walks hit in L2 quite often in practice, which the paper's
//! cycle numbers implicitly include).

use crate::addr::{PageSize, PhysAddr, VirtAddr};
use crate::arch::{Arch, MMArch, Rung, WalkShape, MAX_LADDER};
use crate::error::{VmError, VmResult};
use crate::frame::BuddyAllocator;

/// Bytes of one page-table entry.
pub(crate) const PTE_BYTES: u64 = 8;
/// Most levels any supported [`WalkShape`] declares (sizes [`WalkTrace`]).
pub(crate) const MAX_WALK_LEVELS: usize = 4;

/// Protection and status bits of a mapping, modelled after x86 PTE flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PteFlags {
    /// Mapping is valid.
    pub present: bool,
    /// Writes permitted.
    pub writable: bool,
    /// Instruction fetches permitted (inverse of NX).
    pub executable: bool,
    /// Set by the walker on any access.
    pub accessed: bool,
    /// Set by the walker on a write.
    pub dirty: bool,
}

impl PteFlags {
    /// Read/write data mapping.
    pub const fn rw() -> Self {
        PteFlags {
            present: true,
            writable: true,
            executable: false,
            accessed: false,
            dirty: false,
        }
    }

    /// Read-only data mapping.
    #[cfg(test)]
    pub(crate) const fn ro() -> Self {
        PteFlags {
            present: true,
            writable: false,
            executable: false,
            accessed: false,
            dirty: false,
        }
    }

    /// Executable (code) mapping.
    pub const fn rx() -> Self {
        PteFlags {
            present: true,
            writable: false,
            executable: true,
            accessed: false,
            dirty: false,
        }
    }

    /// Does this protection allow an access of `kind`?
    pub fn permits(self, kind: AccessKind) -> bool {
        self.present
            && match kind {
                AccessKind::Read => true,
                AccessKind::Write => self.writable,
                AccessKind::Fetch => self.executable,
            }
    }
}

/// One entry of a table node.
#[derive(Debug, Default)]
enum Entry {
    /// Nothing mapped below this entry.
    #[default]
    None,
    /// Pointer to the next-level table node.
    Table(Box<Node>),
    /// Terminal mapping. `pa` is the base of the whole translated block
    /// and `size` its rung size; a contiguous-bit block stores the same
    /// (pa, size) in each of its replicated entries, so any replica
    /// resolves the full block.
    Leaf {
        pa: PhysAddr,
        flags: PteFlags,
        size: PageSize,
    },
}

/// A single table node (4 KB on 9-bit levels, 16 KB on 11-bit levels).
#[derive(Debug)]
struct Node {
    /// Physical frame backing this node (for walk-cost accounting).
    frame: PhysAddr,
    entries: Box<[Entry]>,
    /// Number of non-`None` entries, for reclamation.
    live: u32,
}

impl Node {
    fn new(frame: PhysAddr, fanout: usize) -> Self {
        Node {
            frame,
            entries: (0..fanout).map(|_| Entry::None).collect(),
            live: 0,
        }
    }
}

/// The kind of access being translated; used for permission checks and for
/// setting accessed/dirty bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Data load.
    Read,
    /// Data store.
    Write,
    /// Instruction fetch.
    Fetch,
}

/// The result of a successful page walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Translation {
    /// Translated physical address (frame base + offset).
    pub pa: PhysAddr,
    /// Page size of the terminal mapping.
    pub size: PageSize,
    /// Flags of the terminal mapping.
    pub flags: PteFlags,
}

/// Physical addresses of the page-table entries a hardware walker reads,
/// root first. A base-page walk touches every level of the shape; a block
/// mapping at level L touches `levels - L` of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkTrace {
    steps: [PhysAddr; MAX_WALK_LEVELS],
    len: u8,
}

impl WalkTrace {
    fn new() -> Self {
        WalkTrace {
            steps: [PhysAddr(0); MAX_WALK_LEVELS],
            len: 0,
        }
    }

    fn push(&mut self, pa: PhysAddr) {
        self.steps[self.len as usize] = pa;
        self.len += 1;
    }

    /// Entries touched, root first.
    pub fn steps(&self) -> &[PhysAddr] {
        &self.steps[..self.len as usize]
    }

    /// Number of memory references the walk performed.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the walk touched no memory (never the case for real walks).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Counters maintained by a page table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageTableStats {
    /// Live mappings per ladder rank (rank 0 = base pages). A contiguous
    /// block counts once, not once per replicated entry.
    pub mappings: [u64; MAX_LADDER],
    /// Table nodes currently allocated (including the root).
    pub nodes: u64,
}

impl PageTableStats {
    /// Live base-page (rank 0) mappings — 4 KB on x86-64.
    #[cfg(test)]
    pub(crate) fn small_mappings(&self) -> u64 {
        self.mappings[0]
    }

    /// Live mappings above the base rank (all block/huge sizes combined).
    #[cfg(test)]
    pub(crate) fn large_mappings(&self) -> u64 {
        self.mappings[1..].iter().sum()
    }
}

/// A per-address-space radix page table.
#[derive(Debug)]
pub struct PageTable {
    arch: Arch,
    shape: WalkShape,
    root: Node,
    stats: PageTableStats,
}

impl PageTable {
    /// Create an empty x86-64-2007 page table, drawing the root node's
    /// frame from `frames`.
    pub fn new(frames: &mut BuddyAllocator) -> VmResult<Self> {
        Self::new_for(frames, Arch::X86_64_2007)
    }

    /// Create an empty page table shaped for `arch`.
    pub fn new_for(frames: &mut BuddyAllocator, arch: Arch) -> VmResult<Self> {
        let shape = arch.walk_shape();
        let frame = frames.alloc(shape.table_order())?;
        Ok(PageTable {
            arch,
            shape,
            root: Node::new(frame, shape.entries_per_table()),
            stats: PageTableStats {
                nodes: 1,
                ..Default::default()
            },
        })
    }

    /// The translation architecture this table was built for.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> PageTableStats {
        self.stats
    }

    /// Memory consumed by table nodes themselves, in bytes. Block
    /// mappings need dramatically fewer nodes — one of the secondary
    /// benefits of large pages.
    #[cfg(test)]
    pub(crate) fn table_bytes(&self) -> u64 {
        self.stats.nodes * self.shape.table_bytes().max(crate::addr::SMALL_PAGE_BYTES)
    }

    /// The rung describing `size`, or the unsupported-size error.
    fn rung_of(&self, size: PageSize) -> VmResult<Rung> {
        self.arch
            .rung_of(size)
            .ok_or(VmError::UnsupportedPageSize(size))
    }

    /// Map the page containing `va` to the frame at `pa` with the given
    /// size and flags. Both addresses must be size-aligned, and the size
    /// must be a rung of the table's architecture.
    pub fn map(
        &mut self,
        frames: &mut BuddyAllocator,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
        flags: PteFlags,
    ) -> VmResult<()> {
        if !va.is_aligned(size) {
            return Err(VmError::Misaligned { addr: va, size });
        }
        if pa.0 & size.offset_mask() != 0 {
            return Err(VmError::Misaligned {
                addr: VirtAddr(pa.0),
                size,
            });
        }
        let rung = self.rung_of(size)?;
        let rank = self.arch.rank_of(size).expect("rung_of checked");
        let fanout = self.shape.entries_per_table();
        let table_order = self.shape.table_order();
        let mut node = &mut self.root;
        let mut level = self.shape.levels - 1;
        while level > rung.leaf_level {
            let idx = self.shape.pt_index(va, level);
            // Descend, creating intermediate nodes as needed.
            let entry = &mut node.entries[idx];
            match entry {
                Entry::None => {
                    let frame = frames.alloc(table_order)?;
                    *entry = Entry::Table(Box::new(Node::new(frame, fanout)));
                    node.live += 1;
                    self.stats.nodes += 1;
                }
                Entry::Table(_) => {}
                Entry::Leaf { .. } => return Err(VmError::AlreadyMapped(va)),
            }
            node = match &mut node.entries[idx] {
                Entry::Table(t) => t,
                _ => unreachable!("just ensured a table entry"),
            };
            level -= 1;
        }
        let idx0 = self.shape.pt_index(va, rung.leaf_level);
        // A block mapping above level 0 may land where an (empty)
        // page-table node sits — e.g. after THP promotion unmapped the
        // base pages below it. Reclaim the empty node and take its slot.
        if rung.leaf_level > 0 {
            for i in 0..rung.replicate as usize {
                if let Entry::Table(t) = &node.entries[idx0 + i] {
                    if t.live == 0 {
                        let freed = t.frame;
                        node.entries[idx0 + i] = Entry::None;
                        node.live -= 1;
                        frames.free(freed, table_order);
                        self.stats.nodes -= 1;
                    }
                }
            }
        }
        if node.entries[idx0..idx0 + rung.replicate as usize]
            .iter()
            .any(|e| !matches!(e, Entry::None))
        {
            return Err(VmError::AlreadyMapped(va));
        }
        for e in node.entries[idx0..idx0 + rung.replicate as usize].iter_mut() {
            *e = Entry::Leaf { pa, flags, size };
        }
        node.live += rung.replicate;
        self.stats.mappings[rank] += 1;
        Ok(())
    }

    /// Remove the mapping for the page containing `va`. Returns the old
    /// translation. A contiguous block's replicated entries are all
    /// removed. Empty intermediate nodes are *not* eagerly reclaimed
    /// (as in Linux, where PGD/PMD frames persist until exit).
    pub(crate) fn unmap(&mut self, va: VirtAddr, size: PageSize) -> VmResult<Translation> {
        let rung = self.rung_of(size)?;
        let rank = self.arch.rank_of(size).expect("rung_of checked");
        let mut node = &mut self.root;
        let mut level = self.shape.levels - 1;
        while level > rung.leaf_level {
            let idx = self.shape.pt_index(va, level);
            node = match &mut node.entries[idx] {
                Entry::Table(t) => t,
                _ => return Err(VmError::NotMapped(va)),
            };
            level -= 1;
        }
        let idx0 = self.shape.pt_index(va.page_base(size), rung.leaf_level);
        match &node.entries[idx0] {
            Entry::Leaf { size: s, .. } if *s == size => {}
            _ => return Err(VmError::NotMapped(va)),
        }
        let mut out = None;
        for e in node.entries[idx0..idx0 + rung.replicate as usize].iter_mut() {
            if let Entry::Leaf { pa, flags, .. } = std::mem::take(e) {
                out.get_or_insert(Translation { pa, size, flags });
                node.live -= 1;
            }
        }
        self.stats.mappings[rank] -= 1;
        Ok(out.expect("first replica checked to be a leaf"))
    }

    /// Update the flags of an existing leaf mapping. Returns the page size
    /// of the mapping. All replicated entries of a contiguous block are
    /// updated together. Nothing in the simulator changes a mapping's
    /// protection (the paper disables SCASH's trap mechanism), so only
    /// tests use this, to build chunks of mixed protection.
    #[cfg(test)]
    pub(crate) fn protect(&mut self, va: VirtAddr, new_flags: PteFlags) -> VmResult<PageSize> {
        let arch = self.arch;
        let mut node = &mut self.root;
        let mut level = self.shape.levels - 1;
        loop {
            let idx = self.shape.pt_index(va, level);
            match &node.entries[idx] {
                Entry::None => return Err(VmError::NotMapped(va)),
                Entry::Leaf { size, .. } => {
                    let size = *size;
                    let rung = arch
                        .rung_of(size)
                        .ok_or(VmError::UnsupportedPageSize(size))?;
                    // The replica group is index-aligned because the block
                    // itself is size-aligned.
                    let idx0 = idx & !(rung.replicate as usize - 1);
                    for e in node.entries[idx0..idx0 + rung.replicate as usize].iter_mut() {
                        if let Entry::Leaf { flags, .. } = e {
                            *flags = new_flags;
                        }
                    }
                    return Ok(size);
                }
                Entry::Table(_) => {
                    if level == 0 {
                        return Err(VmError::NotMapped(va));
                    }
                    node = match &mut node.entries[idx] {
                        Entry::Table(t) => t,
                        _ => unreachable!(),
                    };
                    level -= 1;
                }
            }
        }
    }

    /// Translate `va` without permission checks or A/D updates (a "probe").
    pub fn probe(&self, va: VirtAddr) -> Option<Translation> {
        let mut node = &self.root;
        let mut level = self.shape.levels - 1;
        loop {
            let idx = self.shape.pt_index(va, level);
            match &node.entries[idx] {
                Entry::None => return None,
                Entry::Leaf { pa, flags, size } => {
                    return Some(Translation {
                        pa: pa.add(va.page_offset(*size)),
                        size: *size,
                        flags: *flags,
                    });
                }
                Entry::Table(t) => {
                    if level == 0 {
                        return None;
                    }
                    node = t;
                    level -= 1;
                }
            }
        }
    }

    /// Perform a full hardware-style walk for an access of kind `kind`,
    /// recording every table entry touched, enforcing permissions, and
    /// updating accessed/dirty bits. A contiguous block's walk reads only
    /// the one replica indexed by `va` — the contiguous hint costs the
    /// walker nothing.
    pub fn walk(&mut self, va: VirtAddr, kind: AccessKind) -> VmResult<(Translation, WalkTrace)> {
        let mut trace = WalkTrace::new();
        let mut node = &mut self.root;
        let mut level = self.shape.levels - 1;
        loop {
            let idx = self.shape.pt_index(va, level);
            trace.push(node.frame.add(idx as u64 * PTE_BYTES));
            match &mut node.entries[idx] {
                Entry::None => return Err(VmError::NotMapped(va)),
                Entry::Leaf { pa, flags, size } => {
                    if !flags.permits(kind) {
                        return Err(VmError::ProtectionViolation(va));
                    }
                    flags.accessed = true;
                    if kind == AccessKind::Write {
                        flags.dirty = true;
                    }
                    let t = Translation {
                        pa: pa.add(va.page_offset(*size)),
                        size: *size,
                        flags: *flags,
                    };
                    return Ok((t, trace));
                }
                Entry::Table(t) => {
                    if level == 0 {
                        return Err(VmError::NotMapped(va));
                    }
                    node = t;
                    level -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Radix levels of the x86-64 long-mode walk (PML4, PDPT, PD, PT).
    const LEVELS: u8 = 4;

    fn fixture() -> (BuddyAllocator, PageTable) {
        let mut frames = BuddyAllocator::new(64 * 1024 * 1024);
        let pt = PageTable::new(&mut frames).unwrap();
        (frames, pt)
    }

    #[test]
    fn map_and_translate_small() {
        let (mut frames, mut pt) = fixture();
        let frame = frames.alloc(0).unwrap();
        pt.map(
            &mut frames,
            VirtAddr(0x40_0000),
            frame,
            PageSize::Small4K,
            PteFlags::rw(),
        )
        .unwrap();
        let t = pt.probe(VirtAddr(0x40_0123)).unwrap();
        assert_eq!(t.pa, frame.add(0x123));
        assert_eq!(t.size, PageSize::Small4K);
    }

    #[test]
    fn map_and_translate_large() {
        let (mut frames, mut pt) = fixture();
        let frame = frames.alloc(PageSize::Large2M.buddy_order()).unwrap();
        pt.map(
            &mut frames,
            VirtAddr(0x20_0000),
            frame,
            PageSize::Large2M,
            PteFlags::rw(),
        )
        .unwrap();
        let t = pt.probe(VirtAddr(0x20_0000 + 0x12_345)).unwrap();
        assert_eq!(t.pa, frame.add(0x12_345));
        assert_eq!(t.size, PageSize::Large2M);
    }

    #[test]
    fn walk_lengths_differ_by_page_size() {
        let (mut frames, mut pt) = fixture();
        let f4 = frames.alloc(0).unwrap();
        let f2m = frames.alloc(PageSize::Large2M.buddy_order()).unwrap();
        pt.map(
            &mut frames,
            VirtAddr(0x1000),
            f4,
            PageSize::Small4K,
            PteFlags::rw(),
        )
        .unwrap();
        pt.map(
            &mut frames,
            VirtAddr(0x4000_0000),
            f2m,
            PageSize::Large2M,
            PteFlags::rw(),
        )
        .unwrap();
        let (_, small_trace) = pt.walk(VirtAddr(0x1000), AccessKind::Read).unwrap();
        let (_, large_trace) = pt.walk(VirtAddr(0x4000_0000), AccessKind::Read).unwrap();
        assert_eq!(small_trace.len(), LEVELS as usize);
        assert_eq!(large_trace.len(), LEVELS as usize - 1);
    }

    #[test]
    fn unsupported_size_is_rejected() {
        let (mut frames, mut pt) = fixture();
        let f = frames.alloc(PageSize::Page64K.buddy_order()).unwrap();
        assert_eq!(
            pt.map(
                &mut frames,
                VirtAddr(0x100_0000),
                f,
                PageSize::Page64K,
                PteFlags::rw()
            ),
            Err(VmError::UnsupportedPageSize(PageSize::Page64K)),
            "64 KB blocks are not an x86-64-2007 rung"
        );
    }

    #[test]
    fn gigabyte_leaf_shortens_the_walk_to_two_levels() {
        let mut frames = BuddyAllocator::new(64 * 1024 * 1024);
        let mut pt = PageTable::new_for(&mut frames, Arch::X86_64_MODERN).unwrap();
        // The simulated extent is smaller than 1 GB, but the table layer
        // only stores the (va → pa) association; use a synthetic pa.
        pt.map(
            &mut frames,
            VirtAddr(1u64 << 30),
            PhysAddr(0),
            PageSize::Page1G,
            PteFlags::rw(),
        )
        .unwrap();
        let (t, trace) = pt
            .walk(VirtAddr((1u64 << 30) + 0xabc_def), AccessKind::Read)
            .unwrap();
        assert_eq!(t.size, PageSize::Page1G);
        assert_eq!(t.pa, PhysAddr(0xabc_def));
        assert_eq!(trace.len(), 2, "root + PDPT leaf only");
    }

    #[test]
    fn contiguous_block_replicates_leaves_but_walks_once() {
        let mut frames = BuddyAllocator::new(64 * 1024 * 1024);
        let mut pt = PageTable::new_for(&mut frames, Arch::ARM64_4K).unwrap();
        let f = frames.alloc(PageSize::Page64K.buddy_order()).unwrap();
        let base = VirtAddr(0x100_0000);
        pt.map(&mut frames, base, f, PageSize::Page64K, PteFlags::rw())
            .unwrap();
        assert_eq!(pt.stats().mappings[1], 1, "one block mapping");
        // Every 4 KB-aligned probe inside the block resolves the block.
        for k in [0u64, 1, 7, 15] {
            let t = pt.probe(base.add(k * 4096 + 5)).unwrap();
            assert_eq!(t.size, PageSize::Page64K);
            assert_eq!(t.pa, f.add(k * 4096 + 5));
        }
        // The walk reads one PTE per level: contiguous costs nothing.
        let (_, trace) = pt.walk(base.add(9 * 4096), AccessKind::Read).unwrap();
        assert_eq!(trace.len(), 4);
        // A second block cannot land on any of the 16 replicas.
        let g = frames.alloc(0).unwrap();
        assert_eq!(
            pt.map(
                &mut frames,
                base.add(4096),
                g,
                PageSize::Small4K,
                PteFlags::rw()
            ),
            Err(VmError::AlreadyMapped(base.add(4096)))
        );
        // Unmap removes all replicas at once.
        let t = pt.unmap(base, PageSize::Page64K).unwrap();
        assert_eq!(t.pa, f);
        for k in 0..16u64 {
            assert!(pt.probe(base.add(k * 4096)).is_none(), "replica {k}");
        }
        assert_eq!(pt.stats().mappings[1], 0);
    }

    #[test]
    fn arm16k_granule_uses_wide_nodes() {
        let mut frames = BuddyAllocator::new(64 * 1024 * 1024);
        let mut pt = PageTable::new_for(&mut frames, Arch::ARM64_16K).unwrap();
        let f = frames.alloc(PageSize::Page16K.buddy_order()).unwrap();
        pt.map(
            &mut frames,
            VirtAddr(0x100_0000),
            f,
            PageSize::Page16K,
            PteFlags::rw(),
        )
        .unwrap();
        let (t, trace) = pt.walk(VirtAddr(0x100_1234), AccessKind::Read).unwrap();
        assert_eq!(t.size, PageSize::Page16K);
        assert_eq!(trace.len(), 3, "three 11-bit levels");
        // One 16 KB node per level: 3 × 16 KB.
        assert_eq!(pt.table_bytes(), 3 * 16 * 1024);
    }

    #[test]
    fn walk_sets_accessed_and_dirty() {
        let (mut frames, mut pt) = fixture();
        let f = frames.alloc(0).unwrap();
        pt.map(
            &mut frames,
            VirtAddr(0x1000),
            f,
            PageSize::Small4K,
            PteFlags::rw(),
        )
        .unwrap();
        let (t, _) = pt.walk(VirtAddr(0x1000), AccessKind::Read).unwrap();
        assert!(t.flags.accessed);
        assert!(!t.flags.dirty);
        let (t, _) = pt.walk(VirtAddr(0x1000), AccessKind::Write).unwrap();
        assert!(t.flags.dirty);
    }

    #[test]
    fn permission_enforcement() {
        let (mut frames, mut pt) = fixture();
        let f = frames.alloc(0).unwrap();
        pt.map(
            &mut frames,
            VirtAddr(0x1000),
            f,
            PageSize::Small4K,
            PteFlags::ro(),
        )
        .unwrap();
        assert!(pt.walk(VirtAddr(0x1000), AccessKind::Read).is_ok());
        assert_eq!(
            pt.walk(VirtAddr(0x1000), AccessKind::Write),
            Err(VmError::ProtectionViolation(VirtAddr(0x1000)))
        );
        assert_eq!(
            pt.walk(VirtAddr(0x1000), AccessKind::Fetch),
            Err(VmError::ProtectionViolation(VirtAddr(0x1000)))
        );
    }

    #[test]
    fn double_map_rejected() {
        let (mut frames, mut pt) = fixture();
        let f = frames.alloc(0).unwrap();
        pt.map(
            &mut frames,
            VirtAddr(0x1000),
            f,
            PageSize::Small4K,
            PteFlags::rw(),
        )
        .unwrap();
        let f2 = frames.alloc(0).unwrap();
        assert_eq!(
            pt.map(
                &mut frames,
                VirtAddr(0x1000),
                f2,
                PageSize::Small4K,
                PteFlags::rw()
            ),
            Err(VmError::AlreadyMapped(VirtAddr(0x1000)))
        );
    }

    #[test]
    fn unmap_removes_translation() {
        let (mut frames, mut pt) = fixture();
        let f = frames.alloc(0).unwrap();
        pt.map(
            &mut frames,
            VirtAddr(0x1000),
            f,
            PageSize::Small4K,
            PteFlags::rw(),
        )
        .unwrap();
        let t = pt.unmap(VirtAddr(0x1000), PageSize::Small4K).unwrap();
        assert_eq!(t.pa, f);
        assert!(pt.probe(VirtAddr(0x1000)).is_none());
        assert_eq!(
            pt.unmap(VirtAddr(0x1000), PageSize::Small4K),
            Err(VmError::NotMapped(VirtAddr(0x1000)))
        );
    }

    #[test]
    fn misaligned_map_rejected() {
        let (mut frames, mut pt) = fixture();
        let f = frames.alloc(PageSize::Large2M.buddy_order()).unwrap();
        assert!(matches!(
            pt.map(
                &mut frames,
                VirtAddr(0x1000),
                f,
                PageSize::Large2M,
                PteFlags::rw()
            ),
            Err(VmError::Misaligned { .. })
        ));
    }

    #[test]
    fn node_count_grows_much_slower_for_large_pages() {
        // Map 64 MB with 4 KB pages vs 2 MB pages and compare table overhead.
        let mut frames = BuddyAllocator::new(512 * 1024 * 1024);
        let mut small_pt = PageTable::new(&mut frames).unwrap();
        let mut large_pt = PageTable::new(&mut frames).unwrap();
        let span = 64u64 * 1024 * 1024;
        let base = 0x1_0000_0000u64;
        let mut off = 0;
        while off < span {
            let f = frames.alloc(0).unwrap();
            small_pt
                .map(
                    &mut frames,
                    VirtAddr(base + off),
                    f,
                    PageSize::Small4K,
                    PteFlags::rw(),
                )
                .unwrap();
            off += PageSize::Small4K.bytes();
        }
        let mut off = 0;
        while off < span {
            let f = frames.alloc(PageSize::Large2M.buddy_order()).unwrap();
            large_pt
                .map(
                    &mut frames,
                    VirtAddr(base + off),
                    f,
                    PageSize::Large2M,
                    PteFlags::rw(),
                )
                .unwrap();
            off += PageSize::Large2M.bytes();
        }
        assert_eq!(small_pt.stats().small_mappings(), span / 4096);
        assert_eq!(large_pt.stats().large_mappings(), span / (2 * 1024 * 1024));
        assert!(small_pt.table_bytes() > 8 * large_pt.table_bytes());
    }

    #[test]
    fn probe_of_unmapped_returns_none() {
        let (_frames, pt) = fixture();
        assert!(pt.probe(VirtAddr(0xdead_b000)).is_none());
    }
}
