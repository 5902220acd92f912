//! NUMA configuration for the Opteron platform (extension E3).
//!
//! The paper's Opteron testbed is two sockets connected by HyperTransport
//! (§2.1), i.e. a NUMA machine: each chip has its own memory controller,
//! and accesses to the other chip's memory pay the interconnect latency.
//! The paper does not isolate NUMA effects; this extension does, because
//! page size and NUMA *placement granularity* interact — a page is the
//! smallest unit of physical placement, so 2 MB pages cannot be
//! interleaved (or migrated) at 4 KB granularity. Large pages trade TLB
//! reach against placement flexibility.
//!
//! The model is physical: the buddy allocator's extent is split into
//! per-node frame ranges (`BuddyAllocator::with_nodes`), every page lives
//! on the node that owns its frame, and a reference that reaches DRAM
//! pays `remote_extra` cycles when the frame's home differs from the
//! requesting core's node (`remote_stream_extra` for prefetched streams,
//! which pay in bandwidth rather than latency). Page walks are memory
//! references too: a PTE fetched from a remote node's DRAM pays the same
//! hop, unless [`NumaConfig::replicate_pt`] keeps a replica of the page
//! tables on every node (the Mitosis design — Achermann et al., ASPLOS
//! 2020), making every walk node-local at the price of broadcasting
//! every page-table edit.
//!
//! [`NumaPlacement`] decides where pages land, through one rule
//! ([`NumaPlacement::node_policy`], applied by [`NodePolicy::node_at`]):
//! statically at segment creation for the shared heaps (master-node,
//! interleave) or dynamically at fault time for first-touch, where the
//! runtime places each page on the faulting thread's node. The optional
//! balancing daemon (`lpomp_vm::migrate::NumaDaemon`) then migrates pages
//! with persistent remote accessors.

use lpomp_vm::NodePolicy;

/// How pages are distributed across the nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NumaPlacement {
    /// Everything on node 0 — what first-touch gives a runtime that
    /// initializes all shared data on the master thread (the classic
    /// OpenMP NUMA pitfall, and what Omni's startup preallocation does).
    MasterNode,
    /// Round-robin 4 KB chunks across nodes. Only achievable when the
    /// mapping's own pages are 4 KB; 2 MB pages clamp it to 2 MB chunks.
    Interleave4K,
    /// Round-robin 2 MB chunks across nodes.
    Interleave2M,
    /// Place each page on the node of the thread that first touches it —
    /// Linux's default policy, and the only one that can put a thread's
    /// partition of the data next to the thread.
    FirstTouch,
}

impl NumaPlacement {
    /// The address-space rule that carries out this placement:
    /// [`NodePolicy::node_at`] places anonymous pages at fault time and
    /// shared-file pages when the file is created.
    pub fn node_policy(self) -> NodePolicy {
        match self {
            NumaPlacement::MasterNode => NodePolicy::Fixed(0),
            NumaPlacement::Interleave4K => NodePolicy::Interleave { chunk: 4096 },
            NumaPlacement::Interleave2M => NodePolicy::Interleave { chunk: 2 << 20 },
            NumaPlacement::FirstTouch => NodePolicy::FirstTouch,
        }
    }

    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            NumaPlacement::MasterNode => "master-node",
            NumaPlacement::Interleave4K => "interleave-4KB",
            NumaPlacement::Interleave2M => "interleave-2MB",
            NumaPlacement::FirstTouch => "first-touch",
        }
    }
}

/// NUMA configuration of a platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NumaConfig {
    /// Number of memory nodes (= chips on the Opteron).
    pub nodes: usize,
    /// Extra cycles a demand DRAM access pays when the line's home node
    /// differs from the requesting core's (one HyperTransport hop).
    pub remote_extra: u64,
    /// Extra cycles per *streamed* line from a remote node (bandwidth
    /// cost of the interconnect, far below the latency cost).
    pub remote_stream_extra: u64,
    /// Page placement policy.
    pub placement: NumaPlacement,
    /// Mitosis-style per-node page-table replication: every node's page
    /// walker reads a local replica, so walks never pay the remote hop.
    /// The price is replica maintenance — every page-table edit is
    /// applied `nodes - 1` extra times, and the same TLB shootdowns that
    /// invalidate stale translations invalidate stale replica entries.
    pub replicate_pt: bool,
}

impl NumaConfig {
    /// The Opteron 270 pair: two nodes, ~70 extra cycles per remote
    /// demand access (one coherent HyperTransport hop at 2 GHz),
    /// shared (non-replicated) page tables.
    pub fn opteron(placement: NumaPlacement) -> Self {
        NumaConfig {
            nodes: 2,
            remote_extra: 70,
            remote_stream_extra: 9,
            placement,
            replicate_pt: false,
        }
    }

    /// This configuration with per-node page-table replication enabled.
    pub fn with_replicated_pt(mut self) -> Self {
        self.replicate_pt = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_policies_and_labels() {
        assert_eq!(
            NumaPlacement::Interleave4K.node_policy(),
            NodePolicy::Interleave { chunk: 4096 }
        );
        assert_eq!(
            NumaPlacement::Interleave2M.node_policy(),
            NodePolicy::Interleave { chunk: 2 << 20 }
        );
        assert_eq!(
            NumaPlacement::MasterNode.node_policy(),
            NodePolicy::Fixed(0)
        );
        assert_eq!(
            NumaPlacement::FirstTouch.node_policy(),
            NodePolicy::FirstTouch
        );
        for p in [
            NumaPlacement::MasterNode,
            NumaPlacement::Interleave4K,
            NumaPlacement::Interleave2M,
            NumaPlacement::FirstTouch,
        ] {
            assert!(!p.label().is_empty());
        }
    }

    #[test]
    fn remote_costs_ordered() {
        let n = NumaConfig::opteron(NumaPlacement::Interleave2M);
        assert!(n.remote_stream_extra < n.remote_extra);
        assert!(n.nodes == 2);
        assert!(!n.replicate_pt);
        assert!(n.with_replicated_pt().replicate_pt);
    }
}
