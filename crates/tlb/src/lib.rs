//! # `lpomp-tlb` — translation lookaside buffer simulator
//!
//! Structural models of the TLBs on the paper's two platforms:
//!
//! * [`mod@array`] — a single entry array (one page size), fully or
//!   set-associative, true LRU;
//! * [`hierarchy`] — one- and two-level TLBs with one entry array per rung
//!   of the translation architecture's page-size ladder, and L2→L1
//!   promotion;
//! * [`presets`] — the Xeon and Opteron 270 geometries of the paper's
//!   Table 1 (including the reach/"coverage" computation and the table
//!   regeneration used by `lpomp-bench --bin table1`), plus modern-x86 and
//!   ARM64 extension geometries.
//!
//! The machine model (`lpomp-machine`) owns one data-side and one
//! instruction-side [`Tlb`] per physical core; on the Xeon preset the
//! *same* pair serves both SMT contexts, modelling the §3.2 observation
//! that hyper-threading effectively halves the number of TLB entries
//! available to each thread.

#![warn(missing_docs)]

pub mod array;
pub mod hierarchy;
pub mod presets;

pub use array::{ArrayStats, Assoc, TlbArray};
pub use hierarchy::{LevelConfig, SizeSlot, Tlb, TlbConfig, TlbOutcome, TlbStats, ASID_SHIFT};
pub use presets::{
    default_tlbs, table1, Table1Row, ARM64_16K_DTLB, ARM64_16K_ITLB, ARM64_4K_DTLB, ARM64_4K_ITLB,
    MODERN_X86_DTLB, MODERN_X86_ITLB, OPTERON_DTLB, OPTERON_ITLB, XEON_DTLB, XEON_ITLB,
};
