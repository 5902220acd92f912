//! The assembled hardware model: per-core TLBs and L1s, scoped L2s,
//! physical memory, and the cycle-charged access paths.

use crate::cache::Cache;
use crate::config::MachineConfig;
use crate::cost::CostModel;
use crate::sched::AsidMode;
use lpomp_prof::{Counters, Event};
use lpomp_tlb::{Tlb, TlbOutcome, TlbStats, ASID_SHIFT};
use lpomp_vm::{
    AccessKind, AddressSpace, BuddyAllocator, HintSamples, PageSize, PhysAddr, VirtAddr, VmResult,
};

/// Tag bit added to physical page-walk addresses before they enter the
/// (virtually indexed) cache model, keeping the PA and VA keyspaces
/// disjoint.
const WALK_TAG: u64 = 1 << 62;

/// Whether a data access is a load or a store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

impl DataKind {
    fn as_vm(self) -> AccessKind {
        match self {
            DataKind::Read => AccessKind::Read,
            DataKind::Write => AccessKind::Write,
        }
    }
}

/// How an access interacts with the memory pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessMode {
    /// Dependent demand access (pointer chase / data-dependent gather): a
    /// miss pays full DRAM latency (and may trigger the Xeon SMT flush,
    /// since the pipeline stalls).
    Latency,
    /// Independent demand access (strided walk with precomputable
    /// addresses): out-of-order overlap amortizes the miss latency, but —
    /// unlike a stream — the pattern is not prefetchable and the TLB cost
    /// is paid in full.
    Pipelined,
    /// Part of a detected sequential stream: the prefetcher hides miss
    /// latency (per-line bandwidth cost, no stall, no SMT flush) — but it
    /// stops at page boundaries, so TLB misses are still paid in full.
    Stream,
}

/// The page of a core's immediately preceding access: the one-entry
/// "micro-TLB" in front of the modelled TLB hierarchy.
///
/// Exactness argument (why the fast path cannot change any simulated
/// counter): this entry describes the *last* translation performed on the
/// core, so it is the most-recently-used entry of its L1 array — every
/// lookup outcome leaves the touched entry MRU (an L1 hit re-fronts it, an
/// L2 hit promote-fills it to the front, a miss fills it to the front).
/// A repeat access to the same page would therefore return
/// `L1Hit(size)` and its move-to-front would be a no-op, so recording the
/// hit via [`Tlb::record_l1_hit_bypass`] is observationally identical to
/// the full lookup. Staleness is detected by comparing `generation`
/// against [`Tlb::generation`], which advances on every flush or
/// invalidation. Debug builds re-check both facts against the real TLB
/// state ([`Tlb::peek`] / [`Tlb::l1_is_mru`]) on every bypassed hit.
#[derive(Clone, Copy, Debug)]
struct MicroEntry {
    page_base: u64,
    page_end: u64,
    size: PageSize,
    generation: u64,
    /// NUMA home node of the page's frame, resolved when the entry was
    /// installed. A page's frame can only change under a TLB shootdown
    /// (collapse, demotion, migration), which bumps the generation and
    /// invalidates this entry — so the cached home can never go stale.
    home: usize,
    /// ASID the entry was installed under. A *tagged* context switch
    /// changes the current ASID without flushing (no generation bump),
    /// so the generation check alone cannot detect that the core now
    /// runs a different tenant — this field does.
    asid: u16,
}

impl MicroEntry {
    #[inline]
    fn covers(&self, tlb: &Tlb, asid: u16, va: VirtAddr) -> bool {
        self.asid == asid
            && self.generation == tlb.generation()
            && self.page_base <= va.0
            && va.0 < self.page_end
    }

    #[inline]
    fn install(
        slot: &mut Option<MicroEntry>,
        tlb: &Tlb,
        asid: u16,
        va: VirtAddr,
        size: PageSize,
        home: usize,
    ) {
        let base = va.page_base(size).0;
        *slot = Some(MicroEntry {
            page_base: base,
            page_end: base + size.bytes(),
            size,
            generation: tlb.generation(),
            home,
            asid,
        });
    }
}

/// The simulated multi-core machine.
///
/// One data and one instruction TLB per core — *shared by that core's SMT
/// contexts*, which is how the paper's §3.2 observation that
/// hyper-threading halves effective TLB capacity emerges. L1 data caches
/// are per core; L2 instances are per core (Opteron) or per chip (Xeon).
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    /// Physical memory of the node.
    pub frames: BuddyAllocator,
    dtlbs: Vec<Tlb>,
    itlbs: Vec<Tlb>,
    l1ds: Vec<Cache>,
    l2s: Vec<Cache>,
    /// Logical threads currently resident per core (set by the engine).
    residency: Vec<usize>,
    /// Per-core last-translation cache for the data side (see
    /// [`MicroEntry`]). Staleness is generation-checked, so TLB flushes
    /// need not clear these.
    micro_data: Vec<Option<MicroEntry>>,
    /// Per-core last-translation cache for the instruction side.
    micro_code: Vec<Option<MicroEntry>>,
    /// Per-core `(data, instruction)` micro-TLB bypass hits.
    bypasses: Vec<(u64, u64)>,
    /// NUMA hinting-fault samples (page base → per-node access tallies),
    /// recorded on DTLB misses when sampling is enabled and drained by the
    /// balancing daemon at barriers.
    hint_samples: Option<HintSamples>,
    /// ASID of the tenant currently holding the machine (0 when no
    /// tenancy is in play). Tags cache keys — caches are physically
    /// tagged in hardware, so two tenants at the same VA must *not*
    /// share lines — and stamps micro-TLB entries.
    current_asid: u16,
}

impl Machine {
    /// Build the machine described by `cfg`. With a NUMA configuration the
    /// physical extent is split into per-node frame ranges; otherwise the
    /// whole extent is one node.
    pub fn new(cfg: MachineConfig) -> Self {
        assert_eq!(
            cfg.dtlb.arch, cfg.itlb.arch,
            "a machine's data and instruction TLBs must share one translation architecture"
        );
        let cores = cfg.cores();
        let frames = match &cfg.numa {
            Some(n) => BuddyAllocator::with_nodes(cfg.ram_bytes, n.nodes),
            None => BuddyAllocator::new(cfg.ram_bytes),
        };
        Machine {
            frames,
            dtlbs: (0..cores).map(|_| Tlb::new(cfg.dtlb.clone())).collect(),
            itlbs: (0..cores).map(|_| Tlb::new(cfg.itlb.clone())).collect(),
            l1ds: (0..cores).map(|_| Cache::new(cfg.l1d)).collect(),
            l2s: (0..cfg.l2_instances())
                .map(|_| Cache::new(cfg.l2))
                .collect(),
            residency: vec![0; cores],
            micro_data: vec![None; cores],
            micro_code: vec![None; cores],
            bypasses: vec![(0, 0); cores],
            hint_samples: None,
            current_asid: 0,
            cfg,
        }
    }

    /// Start recording NUMA hinting-fault samples (one per DTLB miss:
    /// which node touched which page). The balancing daemon turns these
    /// into migration decisions.
    pub fn enable_hint_sampling(&mut self) {
        self.hint_samples = Some(HintSamples::new());
    }

    /// Take the hint samples accumulated since the last drain, leaving an
    /// empty batch behind. Returns an empty batch when sampling is off.
    pub fn drain_hint_samples(&mut self) -> HintSamples {
        match &mut self.hint_samples {
            Some(s) => std::mem::take(s),
            None => HintSamples::new(),
        }
    }

    /// The configuration this machine was built from.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The cycle cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cfg.cost
    }

    /// Record how many logical threads are resident on each core (the
    /// engine calls this after placement; it drives the SMT stall rule).
    pub fn set_residency(&mut self, residency: Vec<usize>) {
        assert_eq!(residency.len(), self.cfg.cores());
        self.residency = residency;
    }

    /// Scale a cycle charge for SMT resource sharing: threads co-resident
    /// on one core each run slower than a lone thread.
    #[inline]
    pub fn smt_charge_scale(&self, core: usize, cycles: u64) -> u64 {
        if self.residency[core] > 1 {
            self.cfg.cost.smt_scale(cycles)
        } else {
            cycles
        }
    }

    /// A core's data TLB (for stats inspection).
    pub fn dtlb(&self, core: usize) -> &Tlb {
        &self.dtlbs[core]
    }

    /// A core's instruction TLB.
    pub fn itlb(&self, core: usize) -> &Tlb {
        &self.itlbs[core]
    }

    /// How many of `core`'s `(data, instruction)` translations the
    /// micro-TLB answered without a TLB lookup since the machine was
    /// built. Machine-side bookkeeping, not an [`Event`]. Each bypass
    /// also counts in [`TlbStats::l1_hits`], so a side's full lookups are
    /// `l1_hits - bypasses` L1 hits, `l2_hits` L2 hits and `misses` walks
    /// of [`dtlb`](Machine::dtlb) / [`itlb`](Machine::itlb)`(core).stats()`.
    pub fn tlb_bypasses(&self, core: usize) -> (u64, u64) {
        self.bypasses[core]
    }

    /// Switch every core to the address space identified by `asid`.
    ///
    /// * [`AsidMode::Tagged`] — PCID-style hardware: the TLBs keep every
    ///   tenant's entries resident and simply stop matching the old
    ///   ASID's. Nothing is flushed; the outgoing tenant's translations
    ///   survive until capacity evicts them.
    /// * [`AsidMode::FlushOnSwitch`] — untagged hardware: every TLB is
    ///   flushed (ASIDs stay 0), so the incoming tenant starts cold.
    ///
    /// Either way the machine's *cache* tag becomes `asid`: caches are
    /// physically tagged in hardware, so distinct tenants at equal VAs
    /// occupy distinct lines regardless of TLB mode.
    pub fn context_switch(&mut self, asid: u16, mode: AsidMode) {
        self.current_asid = asid;
        match mode {
            AsidMode::Tagged => {
                for t in &mut self.dtlbs {
                    t.set_asid(asid);
                }
                for t in &mut self.itlbs {
                    t.set_asid(asid);
                }
            }
            AsidMode::FlushOnSwitch => self.flush_all_tlbs(),
        }
    }

    /// ASID of the tenant currently holding the machine.
    #[inline]
    pub fn current_asid(&self) -> u16 {
        self.current_asid
    }

    /// Element-wise sums of all per-core (data, instruction) TLB stats —
    /// the machine side of the per-tenant counter partition invariant.
    pub fn tlb_totals(&self) -> (TlbStats, TlbStats) {
        let sum = |tlbs: &[Tlb]| {
            let mut t = TlbStats::default();
            for s in tlbs.iter().map(Tlb::stats) {
                t.l1_hits += s.l1_hits;
                t.l2_hits += s.l2_hits;
                t.misses += s.misses;
                t.fills += s.fills;
                t.flushes += s.flushes;
                t.cross_asid_evictions += s.cross_asid_evictions;
            }
            t
        };
        (sum(&self.dtlbs), sum(&self.itlbs))
    }

    /// Flush every core's TLBs only (a global shootdown; caches keep
    /// their data — migration copies through them).
    pub fn flush_all_tlbs(&mut self) {
        for t in &mut self.dtlbs {
            t.flush();
        }
        for t in &mut self.itlbs {
            t.flush();
        }
    }

    /// Flush every TLB and cache (fresh-run state).
    pub fn flush_all(&mut self) {
        for t in &mut self.dtlbs {
            t.flush();
        }
        for t in &mut self.itlbs {
            t.flush();
        }
        for c in &mut self.l1ds {
            c.flush();
        }
        for c in &mut self.l2s {
            c.flush();
        }
    }

    /// Charge one reference through the data-cache hierarchy of `core`.
    /// Returns `(cycles, reached_dram, stalled)`.
    #[inline]
    fn cache_access(
        &mut self,
        core: usize,
        key: u64,
        mode: AccessMode,
        counters: &mut Counters,
    ) -> (u64, bool, bool) {
        // Physically-tagged caches: tag the (virtual) key with the owning
        // tenant so equal VAs in different address spaces are distinct
        // lines. VAs stay far below 2^48 and the walk tag is bit 62, so
        // the keyspaces remain disjoint; ASID 0 leaves keys unchanged.
        let key = key | (u64::from(self.current_asid) << ASID_SHIFT);
        let cost = &self.cfg.cost;
        if self.l1ds[core].access(key) {
            return (cost.l1_hit, false, false);
        }
        counters.bump(Event::L1dMisses);
        let l2 = self.cfg.l2_of_core(core);
        if self.l2s[l2].access(key) {
            (cost.l2_hit, false, false)
        } else {
            counters.bump(Event::L2Misses);
            // A streamed miss is covered by the prefetcher: no stall.
            let stalled = mode != AccessMode::Stream;
            (cost.dram_cycles(mode), true, stalled)
        }
    }

    /// Charge a page-walk reference. Hardware walkers fetch PTEs through
    /// the L2, not the L1D. On a NUMA machine a PTE is data like any
    /// other: when the walk misses to DRAM and the page-table frame lives
    /// on a different node than the walking core, the reference pays the
    /// remote hop — unless per-node page-table replication keeps a local
    /// copy of every table, which makes every walk node-local.
    #[inline]
    fn walk_ref(&mut self, core: usize, pa: u64, counters: &mut Counters) -> u64 {
        let cost = &self.cfg.cost;
        let l2 = self.cfg.l2_of_core(core);
        if self.l2s[l2].access(pa | WALK_TAG) {
            cost.l2_hit
        } else {
            counters.bump(Event::L2Misses);
            let mut cycles = cost.dram;
            if let Some(numa) = &self.cfg.numa {
                let remote = !numa.replicate_pt
                    && self.frames.node_of(PhysAddr(pa)) != self.cfg.node_of_core(core);
                if remote {
                    cycles += numa.remote_extra;
                    counters.add(Event::RemoteWalkCycles, numa.remote_extra);
                    counters.bump(Event::RemoteDramAccesses);
                } else {
                    counters.bump(Event::LocalDramAccesses);
                }
            }
            cycles
        }
    }

    /// The SMT flush rule: a long-latency stall on a core running more
    /// than one thread flushes the pipeline (Xeon only).
    #[inline]
    fn maybe_smt_flush(&self, core: usize, counters: &mut Counters) -> u64 {
        if self.cfg.smt_flush_on_stall && self.residency[core] > 1 {
            counters.bump(Event::SmtFlushes);
            let c = self.cfg.cost.smt_flush;
            counters.add(Event::SmtFlushCycles, c);
            c
        } else {
            0
        }
    }

    /// Charge the post-translation stage of a data access: cache
    /// hierarchy, NUMA remote penalty (DRAM only, against the page's
    /// physical `home` node), SMT stall rule.
    #[inline]
    fn memory_stage(
        &mut self,
        core: usize,
        va: VirtAddr,
        home: usize,
        mode: AccessMode,
        counters: &mut Counters,
    ) -> u64 {
        let (mem_cycles, dram, stalled) = self.cache_access(core, va.0, mode, counters);
        let mut cycles = mem_cycles;
        if dram {
            if let Some(numa) = &self.cfg.numa {
                if home != self.cfg.node_of_core(core) {
                    cycles += match mode {
                        AccessMode::Stream => numa.remote_stream_extra,
                        _ => numa.remote_extra,
                    };
                    counters.bump(Event::RemoteDramAccesses);
                } else {
                    counters.bump(Event::LocalDramAccesses);
                }
            }
        }
        if stalled {
            cycles += self.maybe_smt_flush(core, counters);
        }
        cycles
    }

    /// The NUMA home node of the mapped page containing `va`: the node
    /// owning its physical frame. Returns 0 on non-NUMA machines (where
    /// the distinction never reaches a charge) and for unmapped addresses.
    #[inline]
    fn resolve_home(&self, aspace: &AddressSpace, va: VirtAddr) -> usize {
        if self.cfg.numa.is_none() {
            return 0;
        }
        aspace
            .page_table()
            .probe(va)
            .map(|t| self.frames.node_of(t.pa))
            .unwrap_or(0)
    }

    /// Debug-build proof that a micro-TLB bypass is observationally
    /// identical to a real lookup: the entry must still be resident
    /// (an actual `L1Hit(size)` — in particular no stale other-size entry
    /// shadows it in probe order) and MRU (the move-to-front would be a
    /// no-op).
    #[inline]
    fn debug_check_bypass(tlb: &Tlb, va: VirtAddr, size: PageSize) {
        debug_assert_eq!(
            tlb.peek(va),
            TlbOutcome::L1Hit(size),
            "micro-TLB fast path diverged from the real TLB at {va}"
        );
        debug_assert!(
            tlb.l1_is_mru(va, size),
            "micro-TLB entry for {va} is resident but not MRU"
        );
    }

    /// Perform a data access of `kind` at `va` from a thread on `core`,
    /// returning the cycles it took. Drives: DTLB lookup → (page walk →
    /// fault) → cache hierarchy → SMT stall rule.
    ///
    /// A one-entry micro-TLB (the core's immediately preceding data
    /// translation, see `MicroEntry`) short-circuits the DTLB's LRU
    /// machinery for same-page repeat accesses; counters and cycle charges
    /// are identical either way.
    pub fn data_access(
        &mut self,
        aspace: &mut AddressSpace,
        core: usize,
        va: VirtAddr,
        kind: DataKind,
        mode: AccessMode,
        counters: &mut Counters,
    ) -> VmResult<u64> {
        counters.bump(match kind {
            DataKind::Read => Event::Loads,
            DataKind::Write => Event::Stores,
        });
        if let Some(e) = self.micro_data[core] {
            if e.covers(&self.dtlbs[core], self.current_asid, va) {
                counters.bump(Event::DtlbHits);
                Self::debug_check_bypass(&self.dtlbs[core], va, e.size);
                self.dtlbs[core].record_l1_hit_bypass(e.size);
                self.bypasses[core].0 += 1;
                return Ok(self.memory_stage(core, va, e.home, mode, counters));
            }
        }
        let mut cycles = 0u64;
        let page_size;
        let home;
        let cross_before = self.dtlbs[core].stats().cross_asid_evictions;
        match self.dtlbs[core].lookup(va) {
            TlbOutcome::L1Hit(s) => {
                page_size = s;
                home = self.resolve_home(aspace, va);
                counters.bump(Event::DtlbHits);
            }
            TlbOutcome::L2Hit(s) => {
                page_size = s;
                home = self.resolve_home(aspace, va);
                counters.bump(Event::DtlbHits);
                counters.bump(Event::DtlbL2Hits);
                cycles += self.cfg.cost.tlb_l2_hit;
            }
            TlbOutcome::Miss => {
                counters.bump(Event::DtlbMisses);
                // First-touch placement: a fault taken here places the
                // page on the faulting core's node.
                let touch = self.cfg.numa.as_ref().map(|_| self.cfg.node_of_core(core));
                let outcome = aspace.access_from(&mut self.frames, va, kind.as_vm(), touch)?;
                let mut walk_cycles = self.cfg.cost.walk_base;
                // Page-walk caches keep the upper levels of the radix
                // tree resident; only the leaf PTE reference goes through
                // the cache hierarchy. Without a PWC every level pays.
                if self.cfg.page_walk_cache {
                    if let Some(leaf) = outcome.trace().steps().last() {
                        walk_cycles += self.walk_ref(core, leaf.0, counters);
                    }
                } else {
                    for step in outcome.trace().steps() {
                        walk_cycles += self.walk_ref(core, step.0, counters);
                    }
                }
                if outcome.faulted() {
                    counters.bump(Event::PageFaults);
                    walk_cycles += self.cfg.cost.page_fault;
                    if let Some(numa) = &self.cfg.numa {
                        // Replicated page tables: the fault's PTE install
                        // is broadcast to every other node's replica.
                        if numa.replicate_pt {
                            walk_cycles += (numa.nodes as u64 - 1) * self.cfg.cost.pt_edit;
                        }
                    }
                }
                counters.add(Event::WalkCycles, walk_cycles);
                cycles += walk_cycles;
                if mode == AccessMode::Stream
                    && va.page_offset(outcome.translation().size) < 2 * crate::cache::LINE_BYTES
                {
                    // The stream just crossed into a new physical
                    // contiguity unit (page): the prefetcher stopped at
                    // the boundary and re-ramps with demand misses. A
                    // TLB capacity miss in the *middle* of a page being
                    // streamed does not restart the prefetcher.
                    counters.bump(Event::PrefetchRestarts);
                    counters.add(Event::PrefetchRestartCycles, self.cfg.cost.stream_restart);
                    cycles += self.cfg.cost.stream_restart;
                }
                page_size = outcome.translation().size;
                home = if self.cfg.numa.is_some() {
                    self.frames.node_of(outcome.translation().pa)
                } else {
                    0
                };
                self.dtlbs[core].fill(va, page_size);
            }
        }
        // Attribute cross-tenant evictions (promote-fills and walk fills
        // landing on another ASID's entry) to the thread that caused
        // them. Zero whenever a single ASID is in use.
        counters.add(
            Event::TlbCrossEvictions,
            self.dtlbs[core].stats().cross_asid_evictions - cross_before,
        );
        // NUMA hinting: every full DTLB lookup (the micro-TLB bypass
        // already folds same-page repeats into one episode) records which
        // node touched the page — the simulator's analogue of AutoNUMA's
        // periodic hinting faults, which fire regardless of TLB residency
        // because the kernel unmaps sampled ranges.
        if let Some(samples) = &mut self.hint_samples {
            samples.record_from(va.page_base(page_size).0, self.cfg.node_of_core(core), core);
            counters.bump(Event::NumaHintFaults);
        }
        // Every outcome above leaves `va`'s entry MRU in its L1 array
        // (re-front, promote-fill, or fill), establishing the bypass
        // precondition for the next same-page access.
        MicroEntry::install(
            &mut self.micro_data[core],
            &self.dtlbs[core],
            self.current_asid,
            va,
            page_size,
            home,
        );
        Ok(cycles + self.memory_stage(core, va, home, mode, counters))
    }

    /// Stream `len` bytes from `va` through the data path, one access per
    /// cache line, charging `clock`/`counters` exactly as the equivalent
    /// per-line [`data_access`]-and-charge loop would (the per-line charge
    /// is SMT-scaled, added to the clock, and counted as
    /// [`Event::Cycles`], in that order — mirroring the engine's charge
    /// rule).
    ///
    /// The first line of each page-run takes the full path (which may
    /// walk, fault, or restart the prefetcher, and leaves the micro-TLB
    /// pointing at that page); subsequent lines of the same page cannot
    /// miss the TLB — the entry is MRU and nothing else touches this
    /// core's TLB in between — so they are charged with one bypassed
    /// translation + one cache reference each, with the page's NUMA home
    /// resolved once.
    ///
    /// [`data_access`]: Machine::data_access
    #[allow(clippy::too_many_arguments)]
    pub fn data_access_run(
        &mut self,
        aspace: &mut AddressSpace,
        core: usize,
        va: VirtAddr,
        len: u64,
        kind: DataKind,
        mode: AccessMode,
        counters: &mut Counters,
        clock: &mut u64,
    ) -> VmResult<()> {
        const LINE: u64 = crate::cache::LINE_BYTES;
        let line_event = match kind {
            DataKind::Read => Event::Loads,
            DataKind::Write => Event::Stores,
        };
        let mut off = 0;
        while off < len {
            // First line of a page-run: full translation path.
            let cycles = self.data_access(aspace, core, va.add(off), kind, mode, counters)?;
            let scaled = self.smt_charge_scale(core, cycles);
            *clock += scaled;
            counters.add(Event::Cycles, scaled);
            off += LINE;
            let e = self.micro_data[core].expect("data_access installs a micro entry");
            // The page's NUMA home is a property of its frame alone, so
            // the remote penalty for DRAM-reaching lines is uniform
            // across the run. The micro entry cached the home when it was
            // installed; a frame change would have bumped the generation.
            let numa_on = self.cfg.numa.is_some();
            let (remote, remote_extra) = match &self.cfg.numa {
                Some(numa) if e.home != self.cfg.node_of_core(core) => (
                    true,
                    match mode {
                        AccessMode::Stream => numa.remote_stream_extra,
                        _ => numa.remote_extra,
                    },
                ),
                _ => (false, 0),
            };
            while off < len && va.add(off).0 < e.page_end {
                let line = va.add(off);
                counters.bump(line_event);
                counters.bump(Event::DtlbHits);
                Self::debug_check_bypass(&self.dtlbs[core], line, e.size);
                self.dtlbs[core].record_l1_hit_bypass(e.size);
                self.bypasses[core].0 += 1;
                let (mem_cycles, dram, stalled) = self.cache_access(core, line.0, mode, counters);
                let mut cycles = mem_cycles;
                if dram {
                    cycles += remote_extra;
                    if numa_on {
                        counters.bump(if remote {
                            Event::RemoteDramAccesses
                        } else {
                            Event::LocalDramAccesses
                        });
                    }
                }
                if stalled {
                    cycles += self.maybe_smt_flush(core, counters);
                }
                let scaled = self.smt_charge_scale(core, cycles);
                *clock += scaled;
                counters.add(Event::Cycles, scaled);
                off += LINE;
            }
        }
        Ok(())
    }

    /// Perform an instruction fetch at `va` from a thread on `core`. The
    /// L1 instruction cache is assumed to hit (loop-dominated codes); the
    /// ITLB and its walks are modelled.
    pub fn ifetch(
        &mut self,
        aspace: &mut AddressSpace,
        core: usize,
        va: VirtAddr,
        counters: &mut Counters,
    ) -> VmResult<u64> {
        counters.bump(Event::IFetches);
        if let Some(e) = self.micro_code[core] {
            if e.covers(&self.itlbs[core], self.current_asid, va) {
                Self::debug_check_bypass(&self.itlbs[core], va, e.size);
                self.itlbs[core].record_l1_hit_bypass(e.size);
                self.bypasses[core].1 += 1;
                return Ok(0);
            }
        }
        let cross_before = self.itlbs[core].stats().cross_asid_evictions;
        let (cycles, size) = match self.itlbs[core].lookup(va) {
            TlbOutcome::L1Hit(s) => (0, s),
            TlbOutcome::L2Hit(s) => (self.cfg.cost.tlb_l2_hit, s),
            TlbOutcome::Miss => {
                counters.bump(Event::ItlbMisses);
                let touch = self.cfg.numa.as_ref().map(|_| self.cfg.node_of_core(core));
                let outcome = aspace.access_from(&mut self.frames, va, AccessKind::Fetch, touch)?;
                let mut walk_cycles = self.cfg.cost.walk_base;
                if self.cfg.page_walk_cache {
                    if let Some(leaf) = outcome.trace().steps().last() {
                        walk_cycles += self.walk_ref(core, leaf.0, counters);
                    }
                } else {
                    for step in outcome.trace().steps() {
                        walk_cycles += self.walk_ref(core, step.0, counters);
                    }
                }
                if outcome.faulted() {
                    counters.bump(Event::PageFaults);
                    walk_cycles += self.cfg.cost.page_fault;
                    if let Some(numa) = &self.cfg.numa {
                        if numa.replicate_pt {
                            walk_cycles += (numa.nodes as u64 - 1) * self.cfg.cost.pt_edit;
                        }
                    }
                }
                counters.add(Event::WalkCycles, walk_cycles);
                let size = outcome.translation().size;
                self.itlbs[core].fill(va, size);
                (walk_cycles, size)
            }
        };
        counters.add(
            Event::TlbCrossEvictions,
            self.itlbs[core].stats().cross_asid_evictions - cross_before,
        );
        // The instruction side never classifies its line fetches (the L1I
        // is assumed to hit), so the cached home is unused; 0 keeps the
        // entry well-formed.
        MicroEntry::install(
            &mut self.micro_code[core],
            &self.itlbs[core],
            self.current_asid,
            va,
            size,
            0,
        );
        Ok(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{opteron_2x2, xeon_2x2_ht};
    use lpomp_vm::{Backing, NodePolicy, PageSize, Populate, PteFlags};

    fn setup(cfg: MachineConfig) -> (Machine, AddressSpace, VirtAddr) {
        let mut m = Machine::new(cfg);
        let mut asp = AddressSpace::new(&mut m.frames).unwrap();
        let base = asp
            .mmap(
                &mut m.frames,
                64 * PageSize::Small4K.bytes(),
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::Eager,
                "data",
            )
            .unwrap();
        (m, asp, base)
    }

    #[test]
    fn first_access_misses_tlb_second_hits() {
        let (mut m, mut asp, base) = setup(opteron_2x2());
        let mut c = Counters::new();
        let t1 = m
            .data_access(
                &mut asp,
                0,
                base,
                DataKind::Read,
                AccessMode::Latency,
                &mut c,
            )
            .unwrap();
        let t2 = m
            .data_access(
                &mut asp,
                0,
                base,
                DataKind::Read,
                AccessMode::Latency,
                &mut c,
            )
            .unwrap();
        assert_eq!(c.get(Event::DtlbMisses), 1);
        assert_eq!(c.get(Event::DtlbHits), 1);
        assert!(t1 > t2, "walk ({t1}) must cost more than a TLB hit ({t2})");
    }

    #[test]
    fn tlb_miss_cost_includes_walk_refs() {
        let (mut m, mut asp, base) = setup(opteron_2x2());
        let mut c = Counters::new();
        m.data_access(
            &mut asp,
            0,
            base,
            DataKind::Read,
            AccessMode::Latency,
            &mut c,
        )
        .unwrap();
        assert!(c.get(Event::WalkCycles) >= m.cost().walk_base);
    }

    #[test]
    fn eager_population_means_no_faults() {
        let (mut m, mut asp, base) = setup(opteron_2x2());
        let mut c = Counters::new();
        for i in 0..64u64 {
            m.data_access(
                &mut asp,
                0,
                base.add(i * 4096),
                DataKind::Read,
                AccessMode::Latency,
                &mut c,
            )
            .unwrap();
        }
        assert_eq!(c.get(Event::PageFaults), 0);
    }

    #[test]
    fn demand_mapping_pays_fault_once() {
        let mut m = Machine::new(opteron_2x2());
        let mut asp = AddressSpace::new(&mut m.frames).unwrap();
        let base = asp
            .mmap(
                &mut m.frames,
                2 * 4096,
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::OnDemand,
                "lazy",
            )
            .unwrap();
        let mut c = Counters::new();
        let t_fault = m
            .data_access(
                &mut asp,
                0,
                base,
                DataKind::Write,
                AccessMode::Latency,
                &mut c,
            )
            .unwrap();
        assert_eq!(c.get(Event::PageFaults), 1);
        assert!(t_fault > m.cost().page_fault);
        // Second access to the same page: TLB hit, no fault.
        m.data_access(
            &mut asp,
            0,
            base.add(8),
            DataKind::Read,
            AccessMode::Latency,
            &mut c,
        )
        .unwrap();
        assert_eq!(c.get(Event::PageFaults), 1);
    }

    #[test]
    fn cores_have_private_tlbs() {
        let (mut m, mut asp, base) = setup(opteron_2x2());
        let mut c = Counters::new();
        m.data_access(
            &mut asp,
            0,
            base,
            DataKind::Read,
            AccessMode::Latency,
            &mut c,
        )
        .unwrap();
        m.data_access(
            &mut asp,
            1,
            base,
            DataKind::Read,
            AccessMode::Latency,
            &mut c,
        )
        .unwrap();
        // Both cores missed independently.
        assert_eq!(c.get(Event::DtlbMisses), 2);
    }

    #[test]
    fn smt_flush_only_when_core_is_shared_and_stall_reaches_dram() {
        let (mut m, mut asp, base) = setup(xeon_2x2_ht());
        m.set_residency(vec![2, 2, 2, 2]);
        let mut c = Counters::new();
        // First access goes all the way to DRAM: flush charged.
        m.data_access(
            &mut asp,
            0,
            base,
            DataKind::Read,
            AccessMode::Latency,
            &mut c,
        )
        .unwrap();
        assert_eq!(c.get(Event::SmtFlushes), 1);
        // Cached access: no DRAM, no flush.
        m.data_access(
            &mut asp,
            0,
            base,
            DataKind::Read,
            AccessMode::Latency,
            &mut c,
        )
        .unwrap();
        assert_eq!(c.get(Event::SmtFlushes), 1);
        // Single-resident core: no flush even on DRAM access.
        m.set_residency(vec![1, 1, 1, 1]);
        m.data_access(
            &mut asp,
            1,
            base,
            DataKind::Read,
            AccessMode::Latency,
            &mut c,
        )
        .unwrap();
        assert_eq!(c.get(Event::SmtFlushes), 1);
    }

    #[test]
    fn opteron_never_flushes() {
        let (mut m, mut asp, base) = setup(opteron_2x2());
        m.set_residency(vec![1, 1, 1, 1]);
        let mut c = Counters::new();
        m.data_access(
            &mut asp,
            0,
            base,
            DataKind::Read,
            AccessMode::Latency,
            &mut c,
        )
        .unwrap();
        assert_eq!(c.get(Event::SmtFlushes), 0);
    }

    #[test]
    fn tlb_flush_invalidates_micro_entry() {
        let (mut m, mut asp, base) = setup(opteron_2x2());
        let mut c = Counters::new();
        for off in [0u64, 64, 128] {
            m.data_access(
                &mut asp,
                0,
                base.add(off),
                DataKind::Read,
                AccessMode::Latency,
                &mut c,
            )
            .unwrap();
        }
        assert_eq!(c.get(Event::DtlbMisses), 1);
        assert_eq!(c.get(Event::DtlbHits), 2);
        m.flush_all_tlbs();
        m.data_access(
            &mut asp,
            0,
            base,
            DataKind::Read,
            AccessMode::Latency,
            &mut c,
        )
        .unwrap();
        assert_eq!(
            c.get(Event::DtlbMisses),
            2,
            "a flushed translation must miss even if it was the core's last access"
        );
    }

    #[test]
    fn batched_run_matches_per_line_loop() {
        // The exactness contract of `data_access_run`: identical counters,
        // clock, and TLB statistics to the per-line loop it replaces.
        // Exercised on the harshest config: SMT-shared cores (charge
        // scaling + pipeline flushes) with NUMA interleaving (remote
        // penalties), unaligned start, partial tail line, multi-page span.
        use crate::numa::{NumaConfig, NumaPlacement};
        let mk = |size: PageSize| {
            let mut cfg = xeon_2x2_ht();
            cfg.numa = Some(NumaConfig::opteron(NumaPlacement::Interleave4K));
            let mut m = Machine::new(cfg);
            let mut asp = AddressSpace::new(&mut m.frames).unwrap();
            // Physically interleave the heap so the run crosses pages
            // whose frames alternate between local and remote nodes.
            asp.set_node_policy(2, NodePolicy::Interleave { chunk: 4096 });
            let base = asp
                .mmap(
                    &mut m.frames,
                    4 * PageSize::Large2M.bytes(),
                    size,
                    PteFlags::rw(),
                    Backing::Anonymous,
                    Populate::Eager,
                    "data",
                )
                .unwrap();
            m.set_residency(vec![2, 2, 2, 2]);
            (m, asp, base)
        };
        for size in [PageSize::Small4K, PageSize::Large2M] {
            for kind in [DataKind::Read, DataKind::Write] {
                let start = 96u64; // not line- or page-aligned
                let len = 3 * 4096 + 200; // crosses pages, partial tail
                let (mut m1, mut a1, b1) = mk(size);
                let (mut c1, mut clk1) = (Counters::new(), 0u64);
                m1.data_access_run(
                    &mut a1,
                    0,
                    b1.add(start),
                    len,
                    kind,
                    AccessMode::Stream,
                    &mut c1,
                    &mut clk1,
                )
                .unwrap();
                let (mut m2, mut a2, b2) = mk(size);
                let (mut c2, mut clk2) = (Counters::new(), 0u64);
                let mut off = 0;
                while off < len {
                    let cy = m2
                        .data_access(
                            &mut a2,
                            0,
                            b2.add(start + off),
                            kind,
                            AccessMode::Stream,
                            &mut c2,
                        )
                        .unwrap();
                    let scaled = m2.smt_charge_scale(0, cy);
                    clk2 += scaled;
                    c2.add(Event::Cycles, scaled);
                    off += crate::cache::LINE_BYTES;
                }
                assert_eq!(c1, c2, "counters diverged ({size:?}, {kind:?})");
                assert_eq!(clk1, clk2, "clock diverged ({size:?}, {kind:?})");
                assert_eq!(
                    m1.dtlb(0).stats(),
                    m2.dtlb(0).stats(),
                    "TLB stats diverged ({size:?}, {kind:?})"
                );
                assert_eq!(
                    m1.dtlb(0).array_stats(),
                    m2.dtlb(0).array_stats(),
                    "array stats diverged ({size:?}, {kind:?})"
                );
            }
        }
    }

    #[test]
    fn remote_page_walks_pay_the_hop_unless_replicated() {
        // Satellite regression for the walk-side NUMA charge: page-table
        // frames are allocated on node 0, so a walk from a node-1 core
        // whose leaf PTE fetch reaches DRAM pays `remote_extra` — unless
        // per-node page-table replication keeps the walk local.
        use crate::numa::{NumaConfig, NumaPlacement};
        let numa = NumaConfig::opteron(NumaPlacement::MasterNode);
        let run = |replicate: bool| {
            let mut cfg = opteron_2x2();
            cfg.numa = Some(if replicate {
                numa.with_replicated_pt()
            } else {
                numa
            });
            let (mut m, mut asp, base) = setup(cfg);
            let mut c0 = Counters::new();
            m.data_access(
                &mut asp,
                0,
                base,
                DataKind::Read,
                AccessMode::Latency,
                &mut c0,
            )
            .unwrap();
            // Page 32's leaf PTE is on a different cache line than page
            // 0's, and core 2 (chip 1 = node 1) has its own L2 anyway.
            let mut c2 = Counters::new();
            let cost2 = m
                .data_access(
                    &mut asp,
                    2,
                    base.add(32 * 4096),
                    DataKind::Read,
                    AccessMode::Latency,
                    &mut c2,
                )
                .unwrap();
            (c0, c2, cost2)
        };
        let (c0, c2, cost_shared) = run(false);
        assert_eq!(c0.get(Event::RemoteWalkCycles), 0);
        assert_eq!(c2.get(Event::RemoteWalkCycles), numa.remote_extra);
        // Every DRAM-reaching reference is classified: walk + data line.
        assert_eq!(
            c0.get(Event::LocalDramAccesses) + c0.get(Event::RemoteDramAccesses),
            c0.get(Event::L2Misses)
        );
        assert_eq!(c2.get(Event::RemoteDramAccesses), c2.get(Event::L2Misses));
        let (r0, r2, cost_replicated) = run(true);
        assert_eq!(r0.get(Event::RemoteWalkCycles), 0);
        assert_eq!(r2.get(Event::RemoteWalkCycles), 0);
        // Replication removes exactly the walk's hop; the data line (home
        // node 0, touched from node 1) still pays its own.
        assert_eq!(cost_shared - cost_replicated, numa.remote_extra);
        assert_eq!(r2.get(Event::RemoteDramAccesses), 1);
    }

    #[test]
    fn ifetch_counts_itlb_misses() {
        let mut m = Machine::new(opteron_2x2());
        let mut asp = AddressSpace::new(&mut m.frames).unwrap();
        let code = asp
            .mmap_fixed(
                &mut m.frames,
                VirtAddr(0x40_0000),
                8 * 4096,
                PageSize::Small4K,
                PteFlags::rx(),
                Backing::Anonymous,
                Populate::Eager,
                "code",
            )
            .unwrap();
        let mut c = Counters::new();
        m.ifetch(&mut asp, 0, code, &mut c).unwrap();
        m.ifetch(&mut asp, 0, code.add(16), &mut c).unwrap();
        assert_eq!(c.get(Event::ItlbMisses), 1);
        assert_eq!(c.get(Event::IFetches), 2);
    }

    #[test]
    fn disabling_the_walk_cache_makes_walks_cost_more() {
        let run = |pwc: bool| {
            let mut cfg = opteron_2x2();
            cfg.page_walk_cache = pwc;
            let (mut m, mut asp, base) = setup(cfg);
            let mut c = Counters::new();
            for i in 0..64u64 {
                m.data_access(
                    &mut asp,
                    0,
                    base.add(i * 4096),
                    DataKind::Read,
                    AccessMode::Latency,
                    &mut c,
                )
                .unwrap();
            }
            c.get(Event::WalkCycles)
        };
        assert!(run(false) > run(true));
    }

    #[test]
    fn large_pages_reduce_dtlb_misses_for_page_strided_scan() {
        // The core mechanism of the whole paper, end to end: a scan that
        // touches one cache line per 4 KB page misses the DTLB per page
        // with small pages but per 2 MB region with large pages.
        let run = |size: PageSize| -> u64 {
            let mut m = Machine::new(opteron_2x2());
            let mut asp = AddressSpace::new(&mut m.frames).unwrap();
            let span = 64 * 1024 * 1024u64;
            let base = asp
                .mmap(
                    &mut m.frames,
                    span,
                    size,
                    PteFlags::rw(),
                    Backing::Anonymous,
                    Populate::Eager,
                    "d",
                )
                .unwrap();
            let mut c = Counters::new();
            let mut off = 0;
            while off < span {
                m.data_access(
                    &mut asp,
                    0,
                    base.add(off),
                    DataKind::Read,
                    AccessMode::Latency,
                    &mut c,
                )
                .unwrap();
                off += 4096;
            }
            c.get(Event::DtlbMisses)
        };
        let small = run(PageSize::Small4K);
        let large = run(PageSize::Large2M);
        assert!(
            small > 100 * large.max(1),
            "expected ≥100x reduction, got {small} vs {large}"
        );
    }
}
