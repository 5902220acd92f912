//! Cross-node page migration and the NUMA balancing daemon.
//!
//! The paper's Opteron testbed is a two-socket NUMA machine, and its
//! central trade-off — large pages clamp placement granularity — only
//! becomes mechanical once pages physically live on nodes and can be
//! *moved*. This module supplies both halves:
//!
//! * `migrate_page_to_node` relocates one mapped anonymous page onto a
//!   chosen node: allocate on the target node, remap the VA to the new
//!   frame with the same protection, free the old frame. It is the same
//!   unmap/map/free machinery [`mod@crate::compact`] uses to defragment,
//!   pointed across node boundaries instead of across the zone. Shared
//!   (hugetlbfs/shm) pages are pinned — their frames belong to the
//!   segment, as in Linux.
//! * [`NumaDaemon`] is an AutoNUMA-style balancer. The machine layer
//!   records a [`HintSamples`] entry whenever a data-TLB miss touches a
//!   page (the simulator's analogue of NUMA hinting faults); the daemon
//!   absorbs those samples at barrier points, finds pages with a
//!   *persistently dominant* remote accessor, and migrates them to that
//!   accessor's node.
//!
//! The documented failure mode is the paper's granularity argument: a
//! 2 MB page touched from both nodes never develops a dominant accessor,
//! so it can only **stay** where it is (counted in
//! [`NumaScanOutcome::stuck_shared`]) — or, if one node briefly
//! dominates, **bounce**. A 4 KB heap gives the balancer 512× finer
//! placement freedom; that flexibility is exactly what preallocated large
//! pages trade away.

use std::collections::BTreeMap;

use crate::addr::{PageSize, PhysAddr, VirtAddr};
use crate::error::{VmError, VmResult};
use crate::frame::BuddyAllocator;
use crate::khugepaged::DaemonCosts;
use crate::vma::{AddressSpace, Backing};

/// Upper bound on modelled NUMA nodes (fixed-size tally arrays keep the
/// hot sampling path allocation-free).
pub const MAX_NUMA_NODES: usize = 8;

/// Result of one [`migrate_page_to_node`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MigrateOutcome {
    /// The page moved; the caller owes a TLB shootdown.
    Moved {
        /// Old frame base.
        from: PhysAddr,
        /// New frame base, on the requested node.
        to: PhysAddr,
        /// Page-table entries edited (one unmap + one map).
        pt_edits: u64,
        /// Size of the page that moved.
        size: PageSize,
    },
    /// The page already lives on the requested node.
    AlreadyHome,
    /// The page is backed by a shared segment whose frames cannot move.
    Pinned,
    /// The target node has no free block of the required order.
    NoMemory,
}

/// Move the mapped page containing `va` onto `node`. See
/// [`MigrateOutcome`] for the ways this can (benignly) not happen.
pub(crate) fn migrate_page_to_node(
    aspace: &mut AddressSpace,
    frames: &mut BuddyAllocator,
    va: VirtAddr,
    node: usize,
) -> VmResult<MigrateOutcome> {
    let t = aspace
        .page_table()
        .probe(va)
        .ok_or(VmError::NotMapped(va))?;
    let movable = aspace
        .find_vma(va)
        .is_some_and(|v| matches!(v.backing, Backing::Anonymous));
    if !movable {
        return Ok(MigrateOutcome::Pinned);
    }
    let old = t.pa.frame_base(t.size);
    if frames.node_of(old) == node {
        return Ok(MigrateOutcome::AlreadyHome);
    }
    let order = t.size.buddy_order();
    let dest = match frames.alloc_on_node(node, order) {
        Ok(d) => d,
        Err(_) => return Ok(MigrateOutcome::NoMemory),
    };
    if frames.node_of(dest) != node {
        // The allocator fell back off-node: moving there would be pointless.
        frames.free(dest, order);
        return Ok(MigrateOutcome::NoMemory);
    }
    let page_va = va.page_base(t.size);
    let tr = aspace.unmap_page(page_va, t.size)?;
    aspace.map_page(frames, page_va, dest, t.size, tr.flags)?;
    frames.free(old, order);
    Ok(MigrateOutcome::Moved {
        from: old,
        to: dest,
        pt_edits: 2,
        size: t.size,
    })
}

/// Ceiling on per-core sample lanes (hardware contexts, not sockets).
pub const MAX_CORES: usize = 16;

/// Per-page access tallies recorded by the machine at data-TLB-miss time —
/// the simulator's NUMA hinting faults. Keyed by page-base virtual
/// address; ordered so daemon iteration is deterministic. Tallies are
/// kept at two granularities: per node (what the balancing daemon
/// weighs) and per core (what the hierarchical scheduler's chunk
/// negotiation needs — a completing thread must attribute exactly its
/// *own* traffic, or its node-mates' concurrent chunks pollute the
/// footprint and chunks re-home to the wrong node).
#[derive(Clone, Debug, Default)]
pub struct HintSamples {
    map: BTreeMap<u64, [u64; MAX_NUMA_NODES]>,
    by_core: BTreeMap<u64, [u64; MAX_CORES]>,
}

impl HintSamples {
    /// Empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one access to the page based at `page_base` from `node`
    /// (no per-core attribution — daemon-only tallies).
    #[inline]
    pub fn record(&mut self, page_base: u64, node: usize) {
        self.map.entry(page_base).or_default()[node.min(MAX_NUMA_NODES - 1)] += 1;
    }

    /// Record one access from `core` on `node`, feeding both tallies.
    #[inline]
    pub fn record_from(&mut self, page_base: u64, node: usize, core: usize) {
        self.record(page_base, node);
        self.by_core.entry(page_base).or_default()[core.min(MAX_CORES - 1)] += 1;
    }

    /// Number of pages with at least one sample.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate `(page_base, per-node tally)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u64; MAX_NUMA_NODES])> {
        self.map.iter().map(|(&p, t)| (p, t))
    }

    /// Iterate `(page_base, per-core tally)` pairs in address order.
    /// Only populated by [`HintSamples::record_from`].
    pub fn iter_cores(&self) -> impl Iterator<Item = (u64, &[u64; MAX_CORES])> {
        self.by_core.iter().map(|(&p, t)| (p, t))
    }

    /// Fold another sample set into this one, element-wise.
    pub fn merge(&mut self, other: HintSamples) {
        for (page, tally) in other.map {
            let slot = self.map.entry(page).or_default();
            for (s, t) in slot.iter_mut().zip(tally) {
                *s += t;
            }
        }
        for (page, tally) in other.by_core {
            let slot = self.by_core.entry(page).or_default();
            for (s, t) in slot.iter_mut().zip(tally) {
                *s += t;
            }
        }
    }
}

/// Tunables for the NUMA balancing daemon.
#[derive(Clone, Copy, Debug)]
pub struct NumaDaemonConfig {
    /// Samples a page needs before the daemon will judge it.
    pub min_samples: u64,
    /// A remote node must own at least `dominance_num/dominance_den` of a
    /// page's samples to trigger migration (the persistence filter that
    /// keeps genuinely shared pages from bouncing).
    pub dominance_num: u64,
    /// Denominator of the dominance ratio.
    pub dominance_den: u64,
    /// Cycle budget per scan; migrations stop (and their samples are kept
    /// for the next scan) once the work charged reaches this.
    pub cycle_budget: u64,
    /// Weight of one scheduler work hint (see
    /// [`NumaDaemon::set_work_hints`]) in synthetic samples: when judging
    /// a hinted page, this many extra samples are credited to the node
    /// that owns the page's work. The bias is decision-only — it never
    /// enters the persisted tally history.
    pub work_hint_weight: u64,
}

impl Default for NumaDaemonConfig {
    fn default() -> Self {
        NumaDaemonConfig {
            min_samples: 4,
            dominance_num: 3,
            dominance_den: 4,
            cycle_budget: 2_000_000,
            work_hint_weight: 2,
        }
    }
}

/// What one [`NumaDaemon::scan`] invocation did, and what it cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NumaScanOutcome {
    /// Pages migrated to their dominant accessor's node.
    pub migrated: u64,
    /// Pages with a remote-majority home but no dominant accessor — the
    /// stuck-shared case; overwhelmingly 2 MB pages touched from both
    /// nodes.
    pub stuck_shared: u64,
    /// Migrations abandoned because the target node was out of memory.
    pub failed_alloc: u64,
    /// Page-table entries edited.
    pub pt_edits: u64,
    /// Simulated cycles of daemon work (the caller charges these to the
    /// cores' clocks).
    pub cycles: u64,
    /// Whether any translation changed — the caller must broadcast a TLB
    /// shootdown.
    pub shootdown: bool,
}

impl NumaScanOutcome {
    /// Accumulate another outcome into this one.
    pub fn merge(&mut self, o: &NumaScanOutcome) {
        self.migrated += o.migrated;
        self.stuck_shared += o.stuck_shared;
        self.failed_alloc += o.failed_alloc;
        self.pt_edits += o.pt_edits;
        self.cycles += o.cycles;
        self.shootdown |= o.shootdown;
    }
}

/// The NUMA balancing daemon. Owns only its sample history; the address
/// space and allocator are passed into each [`scan`](Self::scan), the
/// same ownership shape as [`crate::khugepaged::Khugepaged`].
#[derive(Debug)]
pub struct NumaDaemon {
    /// Tunables; may be adjusted between scans.
    pub cfg: NumaDaemonConfig,
    samples: BTreeMap<u64, [u64; MAX_NUMA_NODES]>,
    work_hints: BTreeMap<u64, usize>,
    invocations: u64,
    totals: NumaScanOutcome,
}

impl NumaDaemon {
    /// A fresh daemon with the given tunables.
    pub fn new(cfg: NumaDaemonConfig) -> Self {
        NumaDaemon {
            cfg,
            samples: BTreeMap::new(),
            work_hints: BTreeMap::new(),
            invocations: 0,
            totals: NumaScanOutcome::default(),
        }
    }

    /// Install the scheduler's pages-follow-work hints: `page_base →
    /// node that owns the work touching that page`. Replaces the previous
    /// hint set; hints bias judgment (by
    /// [`NumaDaemonConfig::work_hint_weight`] synthetic samples) without
    /// polluting the sample history. An empty map disables the bias.
    pub fn set_work_hints(&mut self, hints: BTreeMap<u64, usize>) {
        self.work_hints = hints;
    }

    /// Fold a batch of hinting-fault samples into the daemon's history.
    pub fn absorb(&mut self, batch: HintSamples) {
        for (page, tally) in batch.map {
            let slot = self.samples.entry(page).or_default();
            for (s, t) in slot.iter_mut().zip(tally) {
                *s += t;
            }
        }
    }

    /// Number of scan invocations so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Lifetime totals across all scans.
    pub fn totals(&self) -> NumaScanOutcome {
        self.totals
    }

    /// Run one budgeted balancing step over the absorbed samples. Each
    /// sufficiently sampled page whose dominant accessor is a remote node
    /// is migrated there; pages without a dominant accessor stay (and are
    /// counted stuck when their home is in the minority). Pages still
    /// below `min_samples` keep their tallies untouched — hinting faults
    /// arrive slowly (at most a handful per page per barrier interval),
    /// and accumulating across scans *is* the persistence filter. Pages
    /// judged and found genuinely shared have their tallies halved, so a
    /// brief one-node burst on a shared page decays instead of triggering
    /// a bounce.
    pub fn scan(
        &mut self,
        aspace: &mut AddressSpace,
        frames: &mut BuddyAllocator,
        costs: &DaemonCosts,
    ) -> VmResult<NumaScanOutcome> {
        self.invocations += 1;
        let mut out = NumaScanOutcome::default();
        let work = std::mem::take(&mut self.samples);
        let mut keep: Vec<(u64, [u64; MAX_NUMA_NODES])> = Vec::new();
        let decay_and_keep = |keep: &mut Vec<_>, page: u64, tally: [u64; MAX_NUMA_NODES]| {
            let halved = tally.map(|t| t / 2);
            if halved.iter().any(|&t| t > 0) {
                keep.push((page, halved));
            }
        };
        for (page, tally) in work {
            if out.cycles >= self.cfg.cycle_budget {
                // Budget spent: keep the rest untouched for the next scan.
                keep.push((page, tally));
                continue;
            }
            out.cycles += costs.scan_page;
            let total: u64 = tally.iter().sum();
            if total < self.cfg.min_samples {
                keep.push((page, tally));
                continue;
            }
            let va = VirtAddr(page);
            // The page may have been unmapped, collapsed or demoted since
            // sampling; judge the translation as it is now.
            let Some(t) = aspace.page_table().probe(va) else {
                continue;
            };
            let home = frames.node_of(t.pa.frame_base(t.size));
            // Judge on a copy biased by the scheduler's work hint (if
            // any); `tally` itself stays unbiased for decay/keep.
            let mut judged = tally;
            let mut jtotal = total;
            if let Some(&pref) = self.work_hints.get(&page) {
                let w = self.cfg.work_hint_weight;
                judged[pref.min(MAX_NUMA_NODES - 1)] += w;
                jtotal += w;
            }
            let dominant = (0..frames.nodes().min(MAX_NUMA_NODES))
                .max_by_key(|&n| (judged[n], std::cmp::Reverse(n)))
                .unwrap_or(0);
            if dominant == home {
                // Well placed; history has served its purpose.
                continue;
            }
            if judged[dominant] * self.cfg.dominance_den < jtotal * self.cfg.dominance_num {
                // Remote but not persistently dominated: genuinely shared.
                // A 2 MB page here is the paper's trade-off made visible —
                // it can only bounce or stay, and we make it stay.
                if tally[home] * 2 < total {
                    out.stuck_shared += 1;
                }
                decay_and_keep(&mut keep, page, tally);
                continue;
            }
            match migrate_page_to_node(aspace, frames, va, dominant)? {
                MigrateOutcome::Moved { pt_edits, size, .. } => {
                    let small_pages = size.bytes() / PageSize::Small4K.bytes();
                    out.migrated += 1;
                    out.pt_edits += pt_edits;
                    out.cycles += small_pages * costs.migrate_page + pt_edits * costs.pt_edit;
                    out.shootdown = true;
                }
                MigrateOutcome::NoMemory => {
                    out.failed_alloc += 1;
                    decay_and_keep(&mut keep, page, tally);
                }
                MigrateOutcome::AlreadyHome | MigrateOutcome::Pinned => {}
            }
        }
        self.samples.extend(keep);
        self.totals.merge(&out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_table::{AccessKind, PteFlags};
    use crate::vma::Populate;

    const COSTS: DaemonCosts = DaemonCosts {
        scan_page: 5,
        migrate_page: 3328,
        pt_edit: 80,
    };

    fn setup(size: PageSize, pages: u64) -> (BuddyAllocator, AddressSpace, VirtAddr) {
        let mut frames = BuddyAllocator::with_nodes(256 * 1024 * 1024, 2);
        let mut asp = AddressSpace::new(&mut frames).unwrap();
        let base = asp
            .mmap(
                &mut frames,
                pages * size.bytes(),
                size,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::Eager,
                "heap",
            )
            .unwrap();
        (frames, asp, base)
    }

    #[test]
    fn migrate_moves_frame_and_preserves_mapping() {
        let (mut frames, mut asp, base) = setup(PageSize::Small4K, 4);
        let before = asp.page_table().probe(base).unwrap();
        assert_eq!(frames.node_of(before.pa), 0, "eager pages start on node 0");
        let out = migrate_page_to_node(&mut asp, &mut frames, base, 1).unwrap();
        let MigrateOutcome::Moved {
            from, to, pt_edits, ..
        } = out
        else {
            panic!("expected a move, got {out:?}");
        };
        assert_eq!(from, before.pa);
        assert_eq!(frames.node_of(to), 1);
        assert_eq!(pt_edits, 2);
        let after = asp.page_table().probe(base).unwrap();
        assert_eq!(after.pa, to);
        assert_eq!(after.flags, before.flags);
        // Old frame is free again; a re-migration home reuses node 0.
        assert_eq!(
            migrate_page_to_node(&mut asp, &mut frames, base, 1).unwrap(),
            MigrateOutcome::AlreadyHome
        );
    }

    #[test]
    fn migrate_handles_large_pages_and_pinned_segments() {
        let (mut frames, mut asp, base) = setup(PageSize::Large2M, 2);
        let out = migrate_page_to_node(&mut asp, &mut frames, base.add(0x1234), 1).unwrap();
        assert!(matches!(
            out,
            MigrateOutcome::Moved {
                size: PageSize::Large2M,
                ..
            }
        ));
        let t = asp.page_table().probe(base).unwrap();
        assert_eq!(frames.node_of(t.pa), 1);
        assert_eq!(t.size, PageSize::Large2M);

        // A shared shm segment is pinned.
        let seg = crate::hugetlbfs::SharedSegment::alloc(
            &mut frames,
            "mb",
            4096,
            PageSize::Small4K,
            |_| None,
        )
        .unwrap();
        let shared = asp
            .mmap(
                &mut frames,
                4096,
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Shared(seg),
                Populate::Eager,
                "mailbox",
            )
            .unwrap();
        assert_eq!(
            migrate_page_to_node(&mut asp, &mut frames, shared, 1).unwrap(),
            MigrateOutcome::Pinned
        );
    }

    #[test]
    fn daemon_migrates_persistently_remote_pages_only() {
        let (mut frames, mut asp, base) = setup(PageSize::Small4K, 3);
        let mut d = NumaDaemon::new(NumaDaemonConfig::default());
        let mut batch = HintSamples::new();
        // Page 0: all accesses from node 1 — must migrate.
        for _ in 0..8 {
            batch.record(base.0, 1);
        }
        // Page 1: remote majority (5 of 8) but below the 3/4 dominance bar
        // — must stay, counted stuck.
        for _ in 0..3 {
            batch.record(base.0 + 4096, 0);
        }
        for _ in 0..5 {
            batch.record(base.0 + 4096, 1);
        }
        // Page 2: too few samples — undecided.
        batch.record(base.0 + 2 * 4096, 1);
        d.absorb(batch);
        let out = d.scan(&mut asp, &mut frames, &COSTS).unwrap();
        assert_eq!(out.migrated, 1);
        assert_eq!(out.stuck_shared, 1);
        assert!(out.shootdown);
        assert!(out.cycles >= COSTS.migrate_page);
        let t0 = asp.page_table().probe(base).unwrap();
        assert_eq!(frames.node_of(t0.pa), 1, "dominated page must move");
        let t1 = asp.page_table().probe(base.add(4096)).unwrap();
        assert_eq!(frames.node_of(t1.pa), 0, "shared page must stay");
        // Access after migration still works and reads the same mapping.
        assert!(asp.access(&mut frames, base, AccessKind::Read).is_ok());
    }

    #[test]
    fn daemon_accumulates_persistence_across_scans() {
        let (mut frames, mut asp, base) = setup(PageSize::Small4K, 1);
        let mut d = NumaDaemon::new(NumaDaemonConfig::default());
        // Three samples per round: below min_samples, so round 1 decides
        // nothing; the kept history plus round 2's samples crosses the bar.
        for round in 0..2 {
            let mut batch = HintSamples::new();
            for _ in 0..3 {
                batch.record(base.0, 1);
            }
            d.absorb(batch);
            let out = d.scan(&mut asp, &mut frames, &COSTS).unwrap();
            match round {
                0 => assert_eq!(out.migrated, 0, "one round must not trigger"),
                _ => assert_eq!(out.migrated, 1, "persistent remote access must"),
            }
        }
        assert_eq!(d.totals().migrated, 1);
        assert_eq!(d.invocations(), 2);
    }

    #[test]
    fn hint_samples_merge_and_iterate() {
        let mut a = HintSamples::new();
        a.record(0x1000, 0);
        a.record(0x1000, 1);
        let mut b = HintSamples::new();
        b.record(0x1000, 1);
        b.record(0x2000, 0);
        a.merge(b);
        let v: Vec<_> = a.iter().map(|(p, t)| (p, t[0], t[1])).collect();
        assert_eq!(v, vec![(0x1000, 1, 2), (0x2000, 1, 0)]);
    }

    #[test]
    fn work_hints_tip_a_borderline_page_without_polluting_history() {
        // Remote majority 5/8 is below the 3/4 dominance bar, so without
        // a hint the page stays…
        let samples = |d: &mut NumaDaemon, base: VirtAddr| {
            let mut batch = HintSamples::new();
            for _ in 0..3 {
                batch.record(base.0, 0);
            }
            for _ in 0..5 {
                batch.record(base.0, 1);
            }
            d.absorb(batch);
        };
        let (mut frames, mut asp, base) = setup(PageSize::Small4K, 1);
        let mut d = NumaDaemon::new(NumaDaemonConfig::default());
        samples(&mut d, base);
        let out = d.scan(&mut asp, &mut frames, &COSTS).unwrap();
        assert_eq!(out.migrated, 0);
        assert_eq!(out.stuck_shared, 1);

        // …while with the scheduler vouching for node 1, four synthetic
        // samples lift it to 9/12 = 3/4 — exactly the bar — so it moves.
        let (mut frames, mut asp, base) = setup(PageSize::Small4K, 1);
        let mut d = NumaDaemon::new(NumaDaemonConfig {
            work_hint_weight: 4,
            ..NumaDaemonConfig::default()
        });
        samples(&mut d, base);
        d.set_work_hints(std::iter::once((base.0, 1usize)).collect());
        let out = d.scan(&mut asp, &mut frames, &COSTS).unwrap();
        assert_eq!(out.migrated, 1, "hinted page must move");
        let t = asp.page_table().probe(base).unwrap();
        assert_eq!(frames.node_of(t.pa), 1);
    }

    #[test]
    fn daemon_without_hints_is_unchanged_by_the_hint_machinery() {
        // Twin daemons, one with an irrelevant hint map installed then
        // cleared: identical outcomes.
        let run = |hints: bool| {
            let (mut frames, mut asp, base) = setup(PageSize::Small4K, 2);
            let mut d = NumaDaemon::new(NumaDaemonConfig::default());
            if hints {
                d.set_work_hints(std::iter::once((0xdead_0000u64, 1usize)).collect());
                d.set_work_hints(BTreeMap::new());
            }
            let mut batch = HintSamples::new();
            for _ in 0..8 {
                batch.record(base.0, 1);
            }
            d.absorb(batch);
            d.scan(&mut asp, &mut frames, &COSTS).unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn daemon_budget_defers_migrations() {
        let (mut frames, mut asp, base) = setup(PageSize::Small4K, 8);
        let mut d = NumaDaemon::new(NumaDaemonConfig {
            // One 4 KB migration costs 3328 + 2*80 = 3488 plus scan, which
            // exceeds a 3000-cycle budget, so each scan admits one page.
            cycle_budget: 3_000,
            ..NumaDaemonConfig::default()
        });
        let mut batch = HintSamples::new();
        for p in 0..8u64 {
            for _ in 0..8 {
                batch.record(base.0 + p * 4096, 1);
            }
        }
        d.absorb(batch);
        let first = d.scan(&mut asp, &mut frames, &COSTS).unwrap();
        assert_eq!(first.migrated, 1, "budget must stop after one page");
        for _ in 0..7 {
            d.scan(&mut asp, &mut frames, &COSTS).unwrap();
        }
        assert_eq!(d.totals().migrated, 8, "deferred pages drain over scans");
        for p in 0..8u64 {
            let t = asp.page_table().probe(base.add(p * 4096)).unwrap();
            assert_eq!(frames.node_of(t.pa), 1, "page {p}");
        }
    }
}
