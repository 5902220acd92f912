//! # `lpomp-vm` — simulated virtual-memory substrate
//!
//! A from-scratch software model of the virtual-memory machinery the paper
//! (Noronha & Panda, *Improving Scalability of OpenMP Applications on
//! Multi-core Systems Using Large Page Support*, IPDPS 2007) relies on:
//!
//! * [`addr`] — virtual/physical addresses and open-ended [`PageSize`]
//!   arithmetic (4 KB base pages through 1 GB gigantic pages);
//! * [`arch`] — translation architectures: the [`MMArch`] trait, radix
//!   walk shapes, and each architecture's page-size ladder;
//! * [`frame`] — a binary buddy allocator for physical frames, the reason
//!   large pages must be *reserved early* before memory fragments;
//! * [`page_table`] — x86-64-style 4-level radix tables where a 2 MB
//!   mapping ends the walk one level early (the paper's Figure 2);
//! * [`vma`] — address spaces, regions, demand faulting vs. eager
//!   population (the §3.3 preallocation design point);
//! * [`hugetlbfs`] — the shared map files, of any rung, through which all
//!   processes of a node share one heap image, their frames all taken when
//!   a file is created.
//!
//! Higher layers (`lpomp-tlb`, `lpomp-machine`) consume the
//! [`page_table::WalkTrace`] to charge page walks to the cache hierarchy,
//! and `lpomp-core` implements the paper's large-page allocation policy on
//! top of [`SharedSegment::alloc`].

#![warn(missing_docs)]

pub mod addr;
pub mod arch;
pub mod compact;
pub mod error;
pub mod fragment;
pub mod frame;
pub mod hugetlbfs;
pub mod khugepaged;
pub mod migrate;
pub mod page_table;
pub mod promote;
pub mod vma;

pub use addr::{PageSize, PhysAddr, VirtAddr};
pub use arch::{Arch, MMArch, Rung, WalkShape, MAX_LADDER};
pub use compact::{compact, CompactReport};
pub use error::{VmError, VmResult};
pub use fragment::{age_heap, AgeReport};
pub use frame::BuddyAllocator;
pub use hugetlbfs::SharedSegment;
pub use khugepaged::{DaemonCosts, Khugepaged, KhugepagedConfig, ScanOutcome};
pub use migrate::{
    HintSamples, NumaDaemon, NumaDaemonConfig, NumaScanOutcome, MAX_CORES, MAX_NUMA_NODES,
};
pub use page_table::{AccessKind, PageTable, PteFlags, Translation, WalkTrace};
pub use promote::{promote_region, PromotionReport};
pub use vma::{AccessOutcome, AddressSpace, Backing, NodePolicy, Populate, Vma};
