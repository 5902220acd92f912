//! Incremental huge-page promotion daemon — the simulator's `khugepaged`.
//!
//! One-shot [`crate::promote::promote_region`] models `madvise`-style
//! collapse: stop the world, walk the whole region, promote everything at
//! once. Real kernels cannot afford that; Linux runs a background thread
//! that scans a little at a time, bounded by a cycle budget, and leans on
//! memory compaction when fragmentation starves it of order-9 blocks.
//! [`Khugepaged`] is that thread. The simulated engine invokes
//! [`Khugepaged::scan`] at barrier points and charges the returned cycle
//! count to every core's clock, so daemon work is *visible in the
//! simulated timeline* instead of free.
//!
//! Three mechanisms, mirroring the kernel:
//!
//! * **incremental collapse** — scan anonymous 4 KB regions from a resume
//!   cursor, collapse each fully populated, protection-uniform 2 MB chunk
//!   (via the same `promote::try_collapse_chunk` engine as the
//!   one-shot path), and stop when the per-invocation budget is spent;
//! * **compaction fallback** — when a collapse fails for want of a free
//!   order-9 block, run [`crate::compact::compact`] for one block and
//!   retry once, the `khugepaged`/`kcompactd` handshake;
//! * **demotion pressure valve** — under a free-memory watermark, split
//!   the oldest daemon-promoted 2 MB leaf back into 4 KB PTEs so the
//!   region becomes reclaimable at page granularity again, and stop
//!   collapsing until pressure clears.
//!
//! The daemon goes **idle** after a full pass that makes no progress;
//! idle scans cost nothing, so a steady-state application pays no
//! per-barrier tax once its heap is promoted.

use std::collections::VecDeque;

use crate::addr::{PhysAddr, VirtAddr};
use crate::arch::MMArch;
use crate::compact::compact;
use crate::error::VmResult;
use crate::frame::BuddyAllocator;
use crate::promote::{try_collapse_chunk, ChunkCollapse};
use crate::vma::{AddressSpace, Backing};

/// Cycle prices for the daemon's unit operations, supplied by the
/// machine's cost model.
#[derive(Clone, Copy, Debug)]
pub struct DaemonCosts {
    /// Inspecting one small page's PTE during a scan.
    pub scan_page: u64,
    /// Copying one 4 KB page to a new frame (collapse or compaction).
    pub migrate_page: u64,
    /// Editing one page-table entry (map or unmap).
    pub pt_edit: u64,
}

/// Tunables for the daemon, the analogue of
/// `/sys/kernel/mm/transparent_hugepage/khugepaged/*`.
#[derive(Clone, Copy, Debug)]
pub struct KhugepagedConfig {
    /// Cycle budget per [`Khugepaged::scan`] invocation; the scan stops
    /// (and remembers its cursor) once the work it has charged reaches
    /// this.
    pub cycle_budget: u64,
    /// Run compaction (one block) and retry when a collapse finds no free
    /// order-9 block.
    pub compaction: bool,
    /// Free-memory watermark: below this the daemon stops collapsing and
    /// starts demoting its oldest promotions. Zero disables demotion.
    pub low_watermark_bytes: u64,
    /// Demotions allowed per scan while under the watermark.
    pub max_demotions: u64,
}

impl Default for KhugepagedConfig {
    fn default() -> Self {
        KhugepagedConfig {
            cycle_budget: 5_000_000,
            compaction: true,
            low_watermark_bytes: 0,
            max_demotions: 1,
        }
    }
}

/// What one [`Khugepaged::scan`] invocation did, and what it cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// 2 MB chunks collapsed to large pages.
    pub collapsed: u64,
    /// 4 KB pages migrated by the compaction fallback.
    pub compact_migrated: u64,
    /// 2 MB leaves split back to 4 KB under memory pressure.
    pub demoted: u64,
    /// Page-table entries edited.
    pub pt_edits: u64,
    /// Simulated cycles of daemon work (the caller charges these to the
    /// cores' clocks).
    pub cycles: u64,
    /// The share of `cycles` spent in the compaction fallback (a subset,
    /// so callers can attribute scan vs compaction separately).
    pub compact_cycles: u64,
    /// The share of `pt_edits` made by the compaction fallback (a subset
    /// of `pt_edits`, like `compact_cycles`).
    pub compact_pt_edits: u64,
    /// Whether any translation changed — the caller must broadcast a TLB
    /// shootdown (IPI + full flush on every core).
    pub shootdown: bool,
}

impl ScanOutcome {
    /// Accumulate another outcome into this one.
    pub fn merge(&mut self, o: &ScanOutcome) {
        self.collapsed += o.collapsed;
        self.compact_migrated += o.compact_migrated;
        self.demoted += o.demoted;
        self.pt_edits += o.pt_edits;
        self.cycles += o.cycles;
        self.compact_cycles += o.compact_cycles;
        self.compact_pt_edits += o.compact_pt_edits;
        self.shootdown |= o.shootdown;
    }
}

/// The incremental promotion daemon. Owns only bookkeeping (cursor, the
/// queue of chunks it promoted, an idle latch); the address space and
/// allocator it works on are passed into each [`Khugepaged::scan`].
#[derive(Debug)]
pub struct Khugepaged {
    /// Tunables; may be adjusted between scans.
    pub cfg: KhugepagedConfig,
    cursor: VirtAddr,
    /// Chunks this daemon promoted, oldest first — the demotion queue.
    promoted: VecDeque<VirtAddr>,
    idle: bool,
    invocations: u64,
    totals: ScanOutcome,
}

impl Khugepaged {
    /// A fresh daemon with the given tunables.
    pub fn new(cfg: KhugepagedConfig) -> Self {
        Khugepaged {
            cfg,
            cursor: VirtAddr(0),
            promoted: VecDeque::new(),
            idle: false,
            invocations: 0,
            totals: ScanOutcome::default(),
        }
    }

    /// True once a full pass made no progress; cleared by pressure-valve
    /// demotion.
    pub fn is_idle(&self) -> bool {
        self.idle
    }

    /// Number of scan invocations so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Lifetime totals across all scans.
    pub fn totals(&self) -> ScanOutcome {
        self.totals
    }

    /// Run one budgeted daemon step. Returns the work done and its cycle
    /// cost; the caller is responsible for charging `cycles` to the
    /// simulated clocks and, if `shootdown` is set, for the IPI broadcast
    /// and TLB flushes.
    pub fn scan(
        &mut self,
        aspace: &mut AddressSpace,
        frames: &mut BuddyAllocator,
        costs: &DaemonCosts,
    ) -> VmResult<ScanOutcome> {
        self.invocations += 1;
        let mut out = ScanOutcome::default();

        let pressured =
            self.cfg.low_watermark_bytes > 0 && frames.free_bytes() < self.cfg.low_watermark_bytes;
        if pressured {
            // Pressure valve: demote the oldest promotions and collapse
            // nothing until the watermark clears (re-collapsing what we
            // just split would thrash).
            while out.demoted < self.cfg.max_demotions {
                let Some(chunk) = self.promoted.pop_front() else {
                    break;
                };
                if self.demote(aspace, frames, chunk, costs, &mut out)? {
                    self.idle = false;
                }
            }
            self.totals.merge(&out);
            return Ok(out);
        }
        if self.idle {
            self.totals.merge(&out);
            return Ok(out);
        }

        // The collapse target is the rung above the base granule; an
        // architecture with a single-rung ladder has nothing to promote.
        let arch = aspace.page_table().arch();
        let Some(next) = arch.next_rung_above(arch.base()) else {
            self.idle = true;
            self.totals.merge(&out);
            return Ok(out);
        };
        let large = next.size;
        let per = large.bytes() / arch.base().bytes();

        // Candidate chunks: every chunk-aligned, fully-contained piece of
        // every anonymous base-granule region. Rebuilt per scan (regions
        // come and go); pure arithmetic, so not charged.
        let mut chunks: Vec<VirtAddr> = Vec::new();
        for vma in aspace.vmas() {
            if vma.page_size != arch.base() || !matches!(vma.backing, Backing::Anonymous) {
                continue;
            }
            let mut c = VirtAddr(large.round_up(vma.start.0));
            while c.0 + large.bytes() <= vma.start.0 + vma.len {
                chunks.push(c);
                c = c.add(large.bytes());
            }
        }
        if chunks.is_empty() {
            self.idle = true;
            self.totals.merge(&out);
            return Ok(out);
        }
        chunks.sort_unstable();

        // One circular pass starting at the cursor, stopping on budget
        // exhaustion.
        let start = {
            let i = chunks.partition_point(|c| *c < self.cursor);
            if i == chunks.len() {
                0
            } else {
                i
            }
        };
        let mut progress = false;
        let mut exhausted = false;
        for k in 0..chunks.len() {
            let i = (start + k) % chunks.len();
            if out.cycles >= self.cfg.cycle_budget {
                self.cursor = chunks[i];
                exhausted = true;
                break;
            }
            let chunk = chunks[i];
            match try_collapse_chunk(aspace, frames, chunk)? {
                ChunkCollapse::Promoted => {
                    self.note_collapse(chunk, per, costs, &mut out);
                    progress = true;
                }
                ChunkCollapse::AlreadyLarge => out.cycles += costs.scan_page,
                ChunkCollapse::Unpopulated | ChunkCollapse::MixedFlags => {
                    out.cycles += per * costs.scan_page;
                }
                ChunkCollapse::NoMemory => {
                    out.cycles += per * costs.scan_page;
                    if self.cfg.compaction {
                        let rep = compact(aspace, frames, 1)?;
                        let compact_cycles =
                            rep.migrated * (costs.migrate_page + 2 * costs.pt_edit);
                        out.compact_migrated += rep.migrated;
                        out.pt_edits += rep.pt_edits;
                        out.cycles += compact_cycles;
                        out.compact_cycles += compact_cycles;
                        out.compact_pt_edits += rep.pt_edits;
                        if rep.migrated > 0 {
                            out.shootdown = true;
                            progress = true;
                        }
                        if rep.blocks_freed > 0
                            && try_collapse_chunk(aspace, frames, chunk)? == ChunkCollapse::Promoted
                        {
                            self.note_collapse(chunk, per, costs, &mut out);
                            progress = true;
                        }
                    }
                }
            }
        }
        if !exhausted {
            self.cursor = chunks[start];
            if !progress {
                self.idle = true;
            }
        }
        self.totals.merge(&out);
        Ok(out)
    }

    /// Record and price one successful collapse of `per` small pages.
    fn note_collapse(
        &mut self,
        chunk: VirtAddr,
        per: u64,
        costs: &DaemonCosts,
        out: &mut ScanOutcome,
    ) {
        out.collapsed += 1;
        out.pt_edits += per + 1; // per unmaps + 1 block map
        out.cycles += per * (costs.scan_page + costs.migrate_page) + (per + 1) * costs.pt_edit;
        out.shootdown = true;
        self.promoted.push_back(chunk);
    }

    /// Split one daemon-promoted block leaf back into base-granule PTEs
    /// so the chunk is reclaimable page-by-page again. In-place: frames
    /// are not copied, the block-order buddy entry is split, the mapping
    /// keeps its flags. Returns whether a demotion actually happened.
    fn demote(
        &mut self,
        aspace: &mut AddressSpace,
        frames: &mut BuddyAllocator,
        chunk: VirtAddr,
        costs: &DaemonCosts,
        out: &mut ScanOutcome,
    ) -> VmResult<bool> {
        let arch = aspace.page_table().arch();
        let small = arch.base();
        let Some(next) = arch.next_rung_above(small) else {
            return Ok(false);
        };
        let large = next.size;
        let per = large.bytes() / small.bytes();
        // The chunk may have been unmapped or already split since we
        // promoted it; demote only a live block leaf.
        match aspace.page_table().probe(chunk) {
            Some(t) if t.size == large => {}
            _ => return Ok(false),
        }
        let t = aspace.unmap_page(chunk, large)?;
        let base = t.pa.frame_base(large);
        for i in 0..per {
            let va = chunk.add(i * small.bytes());
            let pa = PhysAddr(base.0 + i * small.bytes());
            if aspace.map_page(frames, va, pa, small, t.flags).is_err() {
                // No frame for the leaf page-table node — we are too far
                // into pressure even for the valve. Restore the block leaf
                // (its intermediate nodes still exist) and give up.
                debug_assert_eq!(i, 0, "only the first map can allocate a node");
                aspace.map_page(frames, chunk, base, large, t.flags)?;
                return Ok(false);
            }
        }
        frames.split_allocated(base, large.buddy_order());
        out.demoted += 1;
        out.pt_edits += per + 1; // 1 block unmap + per small maps
        out.cycles += (per + 1) * costs.pt_edit;
        out.shootdown = true;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PageSize;
    use crate::fragment::age_heap;
    use crate::page_table::{AccessKind, PteFlags};
    use crate::promote::promote_region;
    use crate::vma::Populate;

    const COSTS: DaemonCosts = DaemonCosts {
        scan_page: 5,
        migrate_page: 3328,
        pt_edit: 80,
    };

    fn setup(mem: u64, heap: u64) -> (BuddyAllocator, AddressSpace, VirtAddr) {
        let mut frames = BuddyAllocator::new(mem);
        let mut asp = AddressSpace::new(&mut frames).unwrap();
        let base = asp
            .mmap(
                &mut frames,
                heap,
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::Eager,
                "heap",
            )
            .unwrap();
        (frames, asp, base)
    }

    #[test]
    fn budget_spreads_promotion_across_scans_then_goes_idle() {
        let chunk_bytes = PageSize::Large2M.bytes();
        let (mut frames, mut asp, base) = setup(256 * 1024 * 1024, 4 * chunk_bytes);
        // One collapse costs 512*(5+3328) + 513*80 = 1,747,536 cycles, so
        // a 1M budget stops each scan after exactly one collapse.
        let mut k = Khugepaged::new(KhugepagedConfig {
            cycle_budget: 1_000_000,
            ..KhugepagedConfig::default()
        });
        for scan in 0..4 {
            let out = k.scan(&mut asp, &mut frames, &COSTS).unwrap();
            assert_eq!(out.collapsed, 1, "scan {scan}");
            assert!(out.shootdown);
            assert_eq!(out.pt_edits, 513);
            assert!(out.cycles > 1_000_000);
            assert!(!k.is_idle());
        }
        for c in 0..4u64 {
            let t = asp.page_table().probe(base.add(c * chunk_bytes)).unwrap();
            assert_eq!(t.size, PageSize::Large2M, "chunk {c}");
        }
        // A full no-progress pass (everything AlreadyLarge) latches idle…
        let out = k.scan(&mut asp, &mut frames, &COSTS).unwrap();
        assert_eq!(out.collapsed, 0);
        assert_eq!(out.cycles, 4 * COSTS.scan_page);
        assert!(k.is_idle());
        // …after which scans are free.
        let out = k.scan(&mut asp, &mut frames, &COSTS).unwrap();
        assert_eq!(out, ScanOutcome::default());
        assert_eq!(k.invocations(), 6);
        assert_eq!(k.totals().collapsed, 4);
    }

    #[test]
    fn compaction_rescues_promotion_on_a_fragmented_heap() {
        let chunk_bytes = PageSize::Large2M.bytes();
        let (mut frames, mut asp, base) = setup(64 * 1024 * 1024, 2 * chunk_bytes);
        age_heap(&mut frames, &mut asp, 1.0).unwrap();
        // One-shot promotion is starved: no free order-9 block anywhere.
        let r = promote_region(&mut asp, &mut frames, base).unwrap();
        assert_eq!(r.promoted, 0);
        assert_eq!(r.skipped_no_memory, 2);
        // The daemon compacts its way out.
        let mut k = Khugepaged::new(KhugepagedConfig {
            cycle_budget: u64::MAX,
            ..KhugepagedConfig::default()
        });
        let out = k.scan(&mut asp, &mut frames, &COSTS).unwrap();
        assert_eq!(out.collapsed, 2);
        assert!(out.compact_migrated > 0, "compaction had to migrate");
        assert!(out.shootdown);
        // The compaction shares are strict subsets of the totals.
        assert!(out.compact_cycles > 0 && out.compact_cycles < out.cycles);
        assert!(out.compact_pt_edits > 0 && out.compact_pt_edits < out.pt_edits);
        assert_eq!(
            out.compact_cycles,
            out.compact_migrated * (COSTS.migrate_page + 2 * COSTS.pt_edit)
        );
        assert_eq!(out.compact_pt_edits, 2 * out.compact_migrated);
        for c in 0..2u64 {
            let t = asp.page_table().probe(base.add(c * chunk_bytes)).unwrap();
            assert_eq!(t.size, PageSize::Large2M, "chunk {c}");
        }
    }

    #[test]
    fn pressure_valve_demotes_and_pauses_collapse() {
        let chunk_bytes = PageSize::Large2M.bytes();
        let (mut frames, mut asp, base) = setup(64 * 1024 * 1024, chunk_bytes);
        let mut k = Khugepaged::new(KhugepagedConfig {
            cycle_budget: u64::MAX,
            ..KhugepagedConfig::default()
        });
        let out = k.scan(&mut asp, &mut frames, &COSTS).unwrap();
        assert_eq!(out.collapsed, 1);
        // Simulate memory pressure: every scan is now under the watermark.
        k.cfg.low_watermark_bytes = u64::MAX;
        let free_before = frames.free_bytes();
        let out = k.scan(&mut asp, &mut frames, &COSTS).unwrap();
        assert_eq!(out.demoted, 1);
        assert_eq!(out.collapsed, 0, "no collapsing under pressure");
        assert_eq!(out.pt_edits, 513);
        assert!(out.shootdown);
        // In-place split: no data frames moved; one frame went to the
        // rebuilt leaf page-table node.
        assert_eq!(frames.free_bytes(), free_before - 4096);
        for i in (0..512u64).step_by(97) {
            let t = asp
                .access(&mut frames, base.add(i * 4096), AccessKind::Read)
                .unwrap()
                .translation();
            assert_eq!(t.size, PageSize::Small4K);
        }
        // The demotion queue is drained; pressure scans now do nothing.
        let out = k.scan(&mut asp, &mut frames, &COSTS).unwrap();
        assert_eq!(out, ScanOutcome::default());
    }

    #[test]
    fn injected_allocation_failure_triggers_compact_and_retry() {
        let chunk_bytes = PageSize::Large2M.bytes();
        let (mut frames, mut asp, base) = setup(64 * 1024 * 1024, 4 * chunk_bytes);
        // The heap itself is fine; fault-inject one order-9 failure so the
        // first collapse attempt sees transient fragmentation.
        frames.inject_alloc_failures(1, PageSize::Large2M.buddy_order());
        let mut k = Khugepaged::new(KhugepagedConfig {
            cycle_budget: u64::MAX,
            ..KhugepagedConfig::default()
        });
        let out = k.scan(&mut asp, &mut frames, &COSTS).unwrap();
        assert_eq!(out.collapsed, 4, "retry must recover the failed chunk");
        assert!(out.compact_migrated > 0);
        for c in 0..4u64 {
            let t = asp.page_table().probe(base.add(c * chunk_bytes)).unwrap();
            assert_eq!(t.size, PageSize::Large2M, "chunk {c}");
        }
    }
}
