//! The cycle cost model.
//!
//! All latencies are in core cycles. Absolute values are era-appropriate
//! for the 2006/2007 platforms (the paper quotes "several hundred cycles"
//! for a memory access and assumes a ~200-cycle ITLB miss at 2.0 GHz in
//! §4.3); what the reproduction actually depends on is the *ratios* —
//! DRAM ≫ L2 ≫ L1, and a page walk costing a few cache accesses.

use lpomp_vm::DaemonCosts;

/// Cycle charges for every modelled event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Core clock frequency in Hz (used only to convert cycles → seconds).
    pub hz: f64,
    /// L1 data-cache hit latency.
    pub l1_hit: u64,
    /// L2 hit latency (total, not additional).
    pub l2_hit: u64,
    /// DRAM access latency (total) for a demand (latency-bound) miss.
    pub dram: u64,
    /// Effective cost of an *independent* demand miss: out-of-order
    /// hardware overlaps several in-flight misses when their addresses do
    /// not depend on each other (strided pencil walks), so each costs a
    /// fraction of the full latency. Dependent (pointer-chasing) misses
    /// pay `dram` in full.
    pub dram_pipelined: u64,
    /// Effective per-line cost of a *streamed* miss: sequential sweeps are
    /// covered by the hardware prefetcher, so consecutive lines cost
    /// bandwidth rather than latency. Crucially, prefetchers of this era
    /// stop at 4 KB page boundaries and cannot hide the TLB walk — which
    /// is why stream-heavy codes still gain from large pages.
    pub dram_stream: u64,
    /// Penalty paid when a *streamed* sweep crosses into a page whose
    /// translation missed the TLB: hardware prefetchers do not cross page
    /// boundaries, so the stream restarts — the first lines of the new
    /// page are demand misses while the prefetcher re-ramps. Charged once
    /// per streamed TLB miss, on top of the walk. This is the principal
    /// reason large pages speed up stream-dominated codes (MG, SP): a
    /// 2 MB page restarts the prefetcher 512x less often.
    pub stream_restart: u64,
    /// Additional latency of a DTLB lookup that is satisfied by the L2 TLB
    /// rather than L1 (the L1 TLB hit itself is folded into the pipeline).
    pub tlb_l2_hit: u64,
    /// Fixed overhead of starting a page walk (fault into the walker);
    /// each walk step additionally pays the cache-hierarchy cost of its
    /// PTE reference.
    pub walk_base: u64,
    /// Kernel cost of taking and resolving a minor page fault (allocate /
    /// look up a frame, install a PTE). Paid only on demand-populated
    /// mappings — the paper's preallocation avoids it entirely.
    pub page_fault: u64,
    /// Pipeline-flush penalty the Xeon pays when an SMT context stalls on
    /// a long-latency access and the core switches threads (§4.4 blames
    /// this for the 4→8-thread collapse). Zero on non-flushing designs.
    pub smt_flush: u64,
    /// Fixed cost of one barrier episode.
    pub barrier_base: u64,
    /// Additional barrier cost per participating thread.
    pub barrier_per_thread: u64,
    /// Cycle-charge multiplier (numerator) applied to a thread whose core
    /// hosts more than one resident SMT context: the two contexts share
    /// execution resources, so neither runs at full speed. 1/1 on
    /// non-SMT parts.
    pub smt_share_num: u64,
    /// Denominator of the SMT charge multiplier.
    pub smt_share_den: u64,
    /// Kernel cost of migrating one 4 KB page: copy 64 cache lines at
    /// streaming bandwidth (read + write), as promotion/compaction does.
    pub migrate_page: u64,
    /// Cost of editing one page-table entry under the page-table lock
    /// (locked read-modify-write plus bookkeeping).
    pub pt_edit: u64,
    /// Per-core cost of a broadcast TLB-shootdown IPI round: send the
    /// interrupt, take it on the remote core, invalidate, acknowledge.
    pub shootdown_ipi: u64,
    /// Direct cost of switching a core between tenant processes: trap
    /// into the kernel, save/restore register state, switch CR3, return.
    /// The *indirect* cost (cold TLBs and caches, or the full flush in
    /// the untagged-hardware mode) emerges from the simulation itself.
    pub context_switch: u64,
    /// Cost of one local deque operation in the hierarchical scheduler
    /// (pop a chunk from your own queue — an uncontended cached access).
    pub queue_op: u64,
    /// Cost of stealing a chunk from another core on the *same* node:
    /// a compare-and-swap on a line in the shared on-chip domain.
    pub steal_local: u64,
    /// Cost of stealing from a core on a *remote* node: the CAS line
    /// crosses the interconnect (and usually bounces back), so the
    /// scheduler amortizes it by taking a larger chunk batch.
    pub steal_remote: u64,
}

impl CostModel {
    /// Cost model of the dual dual-core Opteron 270 platform: on-chip
    /// memory controller (lower DRAM latency), private 1 MB L2s.
    pub const fn opteron() -> Self {
        CostModel {
            hz: 2.0e9,
            l1_hit: 3,
            l2_hit: 12,
            dram: 180,
            dram_pipelined: 72,
            dram_stream: 26,
            // The prefetcher re-ramps over several lines: a handful of
            // demand-latency misses before full streaming resumes.
            stream_restart: 600,
            // A K8 L2 DTLB hit costs ~10 cycles of translation latency
            // plus an AGU replay bubble; ~14 cycles end to end.
            tlb_l2_hit: 14,
            // The hardware walker serializes the pipeline for tens of
            // cycles even when PTEs are cached.
            walk_base: 50,
            page_fault: 2500,
            smt_flush: 0,
            barrier_base: 120,
            barrier_per_thread: 40,
            smt_share_num: 1,
            smt_share_den: 1,
            // 64 cache lines read + written at streaming bandwidth.
            migrate_page: 64 * 2 * 26,
            pt_edit: 80,
            shootdown_ipi: 1200,
            // ~1.3 µs at 2 GHz: the classic lmbench-style direct cost of
            // a kernel context switch on this era's hardware.
            context_switch: 2600,
            // A local deque pop stays in the owner's cache.
            queue_op: 6,
            // An intra-node steal CASes a line another core owns.
            steal_local: 40,
            // A cross-node steal bounces the line over HyperTransport
            // both ways — roughly a remote DRAM round trip.
            steal_remote: 220,
        }
    }

    /// Cost model of the dual dual-core Xeon (Netburst) platform:
    /// front-side-bus memory (higher DRAM latency), deep pipeline whose
    /// SMT implementation flushes on a thread switch.
    pub const fn xeon() -> Self {
        CostModel {
            hz: 2.0e9,
            l1_hit: 4,
            l2_hit: 18,
            dram: 280,
            dram_pipelined: 112,
            dram_stream: 38,
            stream_restart: 780,
            tlb_l2_hit: 14,
            // Netburst's hardware walker is fast when PTEs are cached.
            walk_base: 25,
            page_fault: 2500,
            // Netburst's ~31-stage pipeline refills after each flush; the
            // effective penalty per long-latency switch is tens of cycles.
            smt_flush: 48,
            barrier_base: 150,
            barrier_per_thread: 50,
            // Netburst hyper-threading shares one set of execution
            // resources between contexts; for these saturating HPC codes
            // the measured aggregate speedup from the second context was
            // near zero (paper Fig. 4), i.e. each co-resident thread runs
            // at about half speed.
            smt_share_num: 2,
            smt_share_den: 1,
            migrate_page: 64 * 2 * 38,
            pt_edit: 80,
            // Interrupt delivery over the front-side bus is slower than
            // HyperTransport's.
            shootdown_ipi: 1500,
            // Netburst's deep pipeline drains and refills around the
            // kernel round-trip, so the switch costs more than the K8's.
            context_switch: 3400,
            queue_op: 8,
            steal_local: 55,
            // Cross-socket line transfers ride the front-side bus.
            steal_remote: 320,
        }
    }

    /// Convert a cycle count to seconds at this model's frequency.
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.hz
    }

    /// Cost of one barrier episode with `threads` participants.
    pub fn barrier_cycles(&self, threads: usize) -> u64 {
        self.barrier_base + self.barrier_per_thread * threads as u64
    }

    /// Scale a cycle charge for a thread co-resident with another SMT
    /// context on its core.
    pub(crate) fn smt_scale(&self, cycles: u64) -> u64 {
        cycles * self.smt_share_num / self.smt_share_den
    }

    /// DRAM access latency by access mode — the one charging table both
    /// the cycle engine's cache hierarchy and the analytic backend read.
    pub(crate) fn dram_cycles(&self, mode: crate::machine::AccessMode) -> u64 {
        match mode {
            crate::machine::AccessMode::Latency => self.dram,
            crate::machine::AccessMode::Pipelined => self.dram_pipelined,
            crate::machine::AccessMode::Stream => self.dram_stream,
        }
    }

    /// Cycles of a DTLB/ITLB miss whose walk finds every upper level in
    /// the page-walk cache and the leaf PTE in the L2 — the common case
    /// both backends charge.
    pub(crate) fn walk_cached_cycles(&self) -> u64 {
        self.walk_base + self.l2_hit
    }

    /// Unit prices of the barrier daemons' work (khugepaged and the NUMA
    /// balancer).
    pub fn daemon_costs(&self) -> DaemonCosts {
        DaemonCosts {
            // One PTE inspection: a cached read plus loop overhead.
            scan_page: self.l1_hit + 2,
            migrate_page: self.migrate_page,
            pt_edit: self.pt_edit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_ordering_invariants() {
        for m in [CostModel::opteron(), CostModel::xeon()] {
            assert!(m.l1_hit < m.l2_hit, "L1 must be faster than L2");
            assert!(m.l2_hit < m.dram, "L2 must be faster than DRAM");
            assert!(m.page_fault > m.dram, "faults dwarf memory accesses");
        }
    }

    #[test]
    fn platform_differences_match_the_paper() {
        let o = CostModel::opteron();
        let x = CostModel::xeon();
        // Opteron's integrated memory controller beats the Xeon FSB.
        assert!(o.dram < x.dram);
        // Only the Xeon flushes its pipeline on SMT switches.
        assert_eq!(o.smt_flush, 0);
        assert!(x.smt_flush > 0);
    }

    #[test]
    fn stream_cost_is_far_below_latency_cost() {
        for m in [CostModel::opteron(), CostModel::xeon()] {
            assert!(m.dram_stream * 4 < m.dram);
            assert!(m.dram_stream >= m.l1_hit);
        }
    }

    #[test]
    fn pipelined_cost_sits_between_stream_and_latency() {
        for m in [CostModel::opteron(), CostModel::xeon()] {
            assert!(m.dram_pipelined < m.dram);
            assert!(m.dram_pipelined > m.dram_stream);
        }
    }

    #[test]
    fn stream_restart_is_a_few_demand_latencies() {
        for m in [CostModel::opteron(), CostModel::xeon()] {
            assert!(m.stream_restart >= m.dram);
            assert!(m.stream_restart <= 4 * m.dram);
        }
    }

    #[test]
    fn smt_scale_only_slows_xeon() {
        let o = CostModel::opteron();
        assert_eq!(o.smt_scale(100), 100);
        let x = CostModel::xeon();
        // Each co-resident context runs at about half speed: 8 threads do
        // no better than 4 (the paper's Fig. 4 Xeon collapse).
        assert_eq!(x.smt_scale(100), 200);
    }

    #[test]
    fn daemon_costs_are_sane() {
        for m in [CostModel::opteron(), CostModel::xeon()] {
            // A page copy is two 4 KB transfers at streaming bandwidth.
            assert_eq!(m.migrate_page, 64 * 2 * m.dram_stream);
            // A PT edit is cheaper than a fault but dearer than DRAM
            // access; a shootdown round costs several DRAM latencies.
            assert!(m.pt_edit < m.page_fault);
            assert!(m.shootdown_ipi > m.dram);
            assert!(m.shootdown_ipi < m.page_fault);
        }
    }

    #[test]
    fn context_switch_cost_is_sane() {
        let o = CostModel::opteron();
        let x = CostModel::xeon();
        for m in [o, x] {
            // A switch is kernel work: dearer than any single memory
            // access, cheaper than servicing a page fault plus its I/O.
            assert!(m.context_switch > m.dram);
            assert!(m.context_switch > m.shootdown_ipi);
            assert!(m.context_switch <= 2 * m.page_fault);
        }
        // The deep-pipeline Netburst pays more per switch.
        assert!(x.context_switch > o.context_switch);
    }

    #[test]
    fn steal_costs_follow_the_topology() {
        for m in [CostModel::opteron(), CostModel::xeon()] {
            // Own queue < same-node steal < cross-node steal; the remote
            // steal is interconnect-bound, i.e. DRAM-latency scale.
            assert!(m.queue_op < m.steal_local);
            assert!(m.steal_local < m.steal_remote);
            assert!(m.steal_remote >= m.dram / 2);
            assert!(m.steal_remote < m.page_fault);
        }
    }

    #[test]
    fn seconds_conversion() {
        let m = CostModel::opteron();
        assert!((m.seconds(2_000_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn barrier_scales_with_threads() {
        let m = CostModel::opteron();
        assert!(m.barrier_cycles(8) > m.barrier_cycles(2));
        assert_eq!(m.barrier_cycles(0), m.barrier_base);
    }
}
