//! Hardware-event enumeration and counter sheets.

use core::fmt;

/// The hardware events the simulator counts. These mirror the OProfile
/// events the paper reads (DTLB/ITLB misses, cycles) plus the cache and
/// runtime events needed to explain where time goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum Event {
    /// Core clock cycles consumed.
    Cycles,
    /// Retired instructions (approximated as one per modelled operation).
    Instructions,
    /// Data loads issued.
    Loads,
    /// Data stores issued.
    Stores,
    /// Instruction fetches issued.
    IFetches,
    /// Data-TLB lookups that hit any level.
    DtlbHits,
    /// Data-TLB lookups that hit only in the L2 TLB.
    DtlbL2Hits,
    /// Data-TLB lookups that missed every level (page walks).
    DtlbMisses,
    /// Instruction-TLB misses.
    ItlbMisses,
    /// L1 data-cache misses.
    L1dMisses,
    /// L2 cache misses (DRAM accesses).
    L2Misses,
    /// Cycles spent in hardware page walks.
    WalkCycles,
    /// Prefetcher restarts at page boundaries of streamed sweeps.
    PrefetchRestarts,
    /// Cycles lost to prefetcher restarts.
    PrefetchRestartCycles,
    /// Page faults taken (demand population).
    PageFaults,
    /// SMT pipeline flushes (the Xeon's flush-on-stall implementation).
    SmtFlushes,
    /// Cycles lost to SMT pipeline flushes.
    SmtFlushCycles,
    /// Barrier episodes entered.
    Barriers,
    /// Cycles spent waiting at barriers.
    BarrierCycles,
    /// 2 MB chunks collapsed to large pages by the khugepaged daemon.
    PagesCollapsed,
    /// 4 KB pages migrated by memory compaction.
    PagesCompacted,
    /// 2 MB pages split back to 4 KB under memory pressure.
    PagesDemoted,
    /// Broadcast TLB shootdowns (one IPI round each).
    TlbShootdowns,
    /// Cycles of khugepaged daemon work charged to the cores.
    DaemonCycles,
    /// DRAM accesses served by the requesting core's own node (only
    /// counted on NUMA machines; zero otherwise).
    LocalDramAccesses,
    /// DRAM accesses that crossed the interconnect to a remote node
    /// (only counted on NUMA machines; zero otherwise).
    RemoteDramAccesses,
    /// Extra cycles page walks spent fetching PTEs from a remote node.
    RemoteWalkCycles,
    /// NUMA hinting-fault samples recorded for the migration daemon.
    NumaHintFaults,
    /// Pages migrated between nodes by the NUMA daemon.
    PagesMigrated,
    /// Context switches between tenants (charged on the scheduler's
    /// behalf to logical thread 0 of the incoming tenant).
    ContextSwitches,
    /// Cycles a tenant's threads sat descheduled while other tenants
    /// held the machine (wall-clock advanced, no work retired).
    DeschedCycles,
    /// TLB entries evicted by a fill whose ASID differed from the
    /// evicted entry's — cross-tenant TLB interference.
    TlbCrossEvictions,
    /// Hierarchical-scheduler steals from a core on the thief's own
    /// NUMA node.
    LocalSteals,
    /// Hierarchical-scheduler steals that crossed to a remote node
    /// (these take larger chunk batches to amortize the migration).
    RemoteSteals,
    /// Chunks re-homed to another node by the scheduler after NUMA
    /// hint-fault samples showed their pages live elsewhere.
    ChunkRehomes,
    /// Chunks that started executing on the node the scheduler had
    /// them homed to (the locality mechanism working as intended).
    AffinityHits,
}

impl Event {
    /// Number of distinct events.
    pub const COUNT: usize = 36;

    /// All events in declaration order.
    pub const ALL: [Event; Event::COUNT] = [
        Event::Cycles,
        Event::Instructions,
        Event::Loads,
        Event::Stores,
        Event::IFetches,
        Event::DtlbHits,
        Event::DtlbL2Hits,
        Event::DtlbMisses,
        Event::ItlbMisses,
        Event::L1dMisses,
        Event::L2Misses,
        Event::WalkCycles,
        Event::PrefetchRestarts,
        Event::PrefetchRestartCycles,
        Event::PageFaults,
        Event::SmtFlushes,
        Event::SmtFlushCycles,
        Event::Barriers,
        Event::BarrierCycles,
        Event::PagesCollapsed,
        Event::PagesCompacted,
        Event::PagesDemoted,
        Event::TlbShootdowns,
        Event::DaemonCycles,
        Event::LocalDramAccesses,
        Event::RemoteDramAccesses,
        Event::RemoteWalkCycles,
        Event::NumaHintFaults,
        Event::PagesMigrated,
        Event::ContextSwitches,
        Event::DeschedCycles,
        Event::TlbCrossEvictions,
        Event::LocalSteals,
        Event::RemoteSteals,
        Event::ChunkRehomes,
        Event::AffinityHits,
    ];

    /// Short mnemonic used in reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Event::Cycles => "cycles",
            Event::Instructions => "inst",
            Event::Loads => "loads",
            Event::Stores => "stores",
            Event::IFetches => "ifetch",
            Event::DtlbHits => "dtlb_hit",
            Event::DtlbL2Hits => "dtlb_l2_hit",
            Event::DtlbMisses => "dtlb_miss",
            Event::ItlbMisses => "itlb_miss",
            Event::L1dMisses => "l1d_miss",
            Event::L2Misses => "l2_miss",
            Event::WalkCycles => "walk_cyc",
            Event::PrefetchRestarts => "pf_restart",
            Event::PrefetchRestartCycles => "pf_restart_cyc",
            Event::PageFaults => "faults",
            Event::SmtFlushes => "smt_flush",
            Event::SmtFlushCycles => "smt_flush_cyc",
            Event::Barriers => "barriers",
            Event::BarrierCycles => "barrier_cyc",
            Event::PagesCollapsed => "collapsed",
            Event::PagesCompacted => "compacted",
            Event::PagesDemoted => "demoted",
            Event::TlbShootdowns => "shootdowns",
            Event::DaemonCycles => "daemon_cyc",
            Event::LocalDramAccesses => "dram_local",
            Event::RemoteDramAccesses => "dram_remote",
            Event::RemoteWalkCycles => "remote_walk_cyc",
            Event::NumaHintFaults => "hint_faults",
            Event::PagesMigrated => "migrated",
            Event::ContextSwitches => "ctx_switch",
            Event::DeschedCycles => "desched_cyc",
            Event::TlbCrossEvictions => "tlb_cross_evict",
            Event::LocalSteals => "steal_local",
            Event::RemoteSteals => "steal_remote",
            Event::ChunkRehomes => "chunk_rehome",
            Event::AffinityHits => "affinity_hit",
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A fixed-size bank of event counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counters {
    vals: [u64; Event::COUNT],
}

// Not derived: `Default` for arrays is only implemented up to 32 lanes.
impl Default for Counters {
    fn default() -> Self {
        Counters {
            vals: [0; Event::COUNT],
        }
    }
}

impl Counters {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to an event.
    #[inline]
    pub fn add(&mut self, e: Event, n: u64) {
        self.vals[e as usize] += n;
    }

    /// Increment an event by one.
    #[inline]
    pub fn bump(&mut self, e: Event) {
        self.vals[e as usize] += 1;
    }

    /// Read an event's count.
    #[inline]
    pub fn get(&self, e: Event) -> u64 {
        self.vals[e as usize]
    }

    /// Set an event's count (used for clock snapshots).
    #[inline]
    pub fn set(&mut self, e: Event, v: u64) {
        self.vals[e as usize] = v;
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &Counters) {
        for i in 0..Event::COUNT {
            self.vals[i] += other.vals[i];
        }
    }

    /// Element-wise difference against an earlier snapshot of the same
    /// counter bank: what happened *since* `baseline`.
    ///
    /// Counters are monotone within a run (they only ever `add`/`bump`;
    /// resets replace the whole bank), so a negative delta means the
    /// baseline is not actually earlier — debug-asserted.
    pub(crate) fn diff(&self, baseline: &Counters) -> Counters {
        let mut d = Counters::new();
        for i in 0..Event::COUNT {
            debug_assert!(
                self.vals[i] >= baseline.vals[i],
                "counter {} went backwards: {} -> {}",
                Event::ALL[i],
                baseline.vals[i],
                self.vals[i]
            );
            d.vals[i] = self.vals[i].wrapping_sub(baseline.vals[i]);
        }
        d
    }

    /// Iterate `(event, count)` pairs with nonzero counts.
    pub fn nonzero(&self) -> impl Iterator<Item = (Event, u64)> + '_ {
        Event::ALL
            .iter()
            .copied()
            .filter_map(move |e| (self.get(e) > 0).then_some((e, self.get(e))))
    }
}

/// Counters for one logical thread.
#[derive(Clone, Debug, Default)]
pub struct ThreadSheet {
    /// Logical thread id.
    pub thread: usize,
    /// The thread's counters.
    pub counters: Counters,
}

/// A whole run's profile: one sheet per logical thread.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    sheets: Vec<ThreadSheet>,
}

impl Profile {
    /// Profile with `threads` zeroed sheets.
    pub fn new(threads: usize) -> Self {
        Profile {
            sheets: (0..threads)
                .map(|thread| ThreadSheet {
                    thread,
                    counters: Counters::new(),
                })
                .collect(),
        }
    }

    /// Number of threads profiled.
    pub fn threads(&self) -> usize {
        self.sheets.len()
    }

    /// Mutable access to a thread's counters.
    pub fn thread_mut(&mut self, t: usize) -> &mut Counters {
        &mut self.sheets[t].counters
    }

    /// Shared access to a thread's counters.
    pub fn thread(&self, t: usize) -> &Counters {
        &self.sheets[t].counters
    }

    /// All sheets.
    pub fn sheets(&self) -> &[ThreadSheet] {
        &self.sheets
    }

    /// Sum across threads (OProfile's "aggregate" view).
    pub fn aggregate(&self) -> Counters {
        let mut total = Counters::new();
        for s in &self.sheets {
            total.merge(&s.counters);
        }
        total
    }

    /// Maximum of an event across threads — for `Cycles` this is the
    /// parallel run's critical path.
    pub fn max(&self, e: Event) -> u64 {
        self.sheets
            .iter()
            .map(|s| s.counters.get(e))
            .max()
            .unwrap_or(0)
    }

    /// Sum of an event across threads.
    pub fn sum(&self, e: Event) -> u64 {
        self.sheets.iter().map(|s| s.counters.get(e)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_get() {
        let mut c = Counters::new();
        c.add(Event::DtlbMisses, 5);
        c.bump(Event::DtlbMisses);
        assert_eq!(c.get(Event::DtlbMisses), 6);
        assert_eq!(c.get(Event::ItlbMisses), 0);
    }

    #[test]
    fn diff_is_elementwise_since_baseline() {
        let mut base = Counters::new();
        base.add(Event::Loads, 10);
        base.add(Event::Cycles, 100);
        let mut now = base.clone();
        now.add(Event::Loads, 5);
        now.add(Event::Stores, 3);
        let d = now.diff(&base);
        assert_eq!(d.get(Event::Loads), 5);
        assert_eq!(d.get(Event::Stores), 3);
        assert_eq!(d.get(Event::Cycles), 0);
        // diff against self is all-zero; merging the diff back restores.
        assert_eq!(now.diff(&now), Counters::new());
        let mut rebuilt = base.clone();
        rebuilt.merge(&d);
        assert_eq!(rebuilt, now);
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = Counters::new();
        a.add(Event::Loads, 3);
        let mut b = Counters::new();
        b.add(Event::Loads, 4);
        b.add(Event::Stores, 1);
        a.merge(&b);
        assert_eq!(a.get(Event::Loads), 7);
        assert_eq!(a.get(Event::Stores), 1);
    }

    #[test]
    fn nonzero_iterates_only_touched_events() {
        let mut c = Counters::new();
        c.add(Event::Cycles, 10);
        c.add(Event::L2Misses, 2);
        let v: Vec<_> = c.nonzero().collect();
        assert_eq!(v, vec![(Event::Cycles, 10), (Event::L2Misses, 2)]);
    }

    #[test]
    fn profile_aggregate_and_max() {
        let mut p = Profile::new(3);
        p.thread_mut(0).add(Event::Cycles, 100);
        p.thread_mut(1).add(Event::Cycles, 250);
        p.thread_mut(2).add(Event::Cycles, 200);
        assert_eq!(p.aggregate().get(Event::Cycles), 550);
        assert_eq!(p.max(Event::Cycles), 250);
        assert_eq!(p.sum(Event::Cycles), 550);
        assert_eq!(p.threads(), 3);
    }

    #[test]
    fn event_all_is_complete_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for e in Event::ALL {
            assert!(seen.insert(e as usize));
            assert!(!e.mnemonic().is_empty());
        }
        assert_eq!(seen.len(), Event::COUNT);
    }
}
