//! # `lpomp-core` — large-page support for an OpenMP-style runtime
//!
//! The paper's primary contribution, assembled from the substrate crates:
//! a fork-join runtime whose **entire shared data region is preallocated
//! in 2 MB pages taken at startup** (the modified Omni/SCASH of
//! Noronha & Panda, IPDPS 2007, §3.3), together with the experiment
//! harness that reproduces the paper's evaluation.
//!
//! * [`policy`] — [`PagePolicy`] (4 KB / 2 MB / mixed) and the
//!   preallocation-vs-demand choice;
//! * [`system`] — [`System::builder`]: one fluent front door to the code
//!   segment, hugetlbfs shared map file, mailbox file, region allocator,
//!   daemons, NUMA, profiling and the simulated team;
//! * [`experiment`] — [`run_sim`] / [`run_system`]: one call per figure
//!   bar, returning run time plus the full counter sheet (and, when the
//!   builder enables profiling, the per-region attribution and trace).
//!
//! ## Quickstart
//!
//! ```
//! use lpomp_core::{run_sim, PagePolicy, RunOpts};
//! use lpomp_npb::{AppKind, Class};
//! use lpomp_machine::opteron_2x2;
//!
//! let small = run_sim(AppKind::Cg, Class::S, opteron_2x2(),
//!                     PagePolicy::Small4K, 4, RunOpts::default());
//! let large = run_sim(AppKind::Cg, Class::S, opteron_2x2(),
//!                     PagePolicy::Large2M, 4, RunOpts::default());
//! assert!(large.dtlb_misses() < small.dtlb_misses());
//! ```
//!
//! Per-region attribution (the paper's OProfile-per-loop view):
//!
//! ```
//! use lpomp_core::{run_system, PagePolicy, ProfileSpec, RunOpts, System};
//! use lpomp_npb::{AppKind, Class};
//! use lpomp_machine::opteron_2x2;
//! use lpomp_prof::Event;
//!
//! let b = System::builder(opteron_2x2())
//!     .threads(4)
//!     .policy(PagePolicy::Small4K)
//!     .profile(ProfileSpec::Regions);
//! let r = run_system(AppKind::Cg, Class::S, &b, RunOpts::default());
//! let sheet = r.regions.unwrap();
//! for (region, misses) in sheet.top_by(Event::DtlbMisses) {
//!     println!("{:>12}  {}", misses, sheet.name(region));
//! }
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod experiment;
pub mod parallel;
pub mod policy;
pub mod store;
pub mod sweep;
pub mod system;

pub use backend::{
    cached_profile, capture_profile, run_backend, xval_dtlb_err_pct, xval_seconds_err_pct,
    Analytic, Backend, BackendKind, CycleExact, XVAL_DTLB_BAND_PCT, XVAL_SECONDS_BAND_PCT,
};
pub use experiment::{figure4_thread_counts, run_sim, run_system, RunOpts, RunRecord};
pub use lpomp_prof::ProfileSpec;
pub use lpomp_vm::{Arch, MMArch};
pub use parallel::{default_workers, par_map};
pub use policy::{PagePolicy, PopulatePolicy};
pub use store::{sweep_id, GridCell, JsonlSink, RunStore, Shard, ShardManifest, StoreKey};
pub use sweep::{KeyedGrid, SweepResults, SweepSpec};
pub use system::{
    MultiRunReport, MultiSystem, SetupStats, System, SystemBuilder, SystemConfig, TenancyConfig,
    TenantReport, TenantSpec, DEFAULT_TIMESLICE,
};
