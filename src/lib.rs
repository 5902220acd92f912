//! Umbrella crate re-exporting the full `lpomp` public API.
pub use lpomp_core as core;
pub use lpomp_machine as machine;
pub use lpomp_npb as npb;
pub use lpomp_prof as prof;
pub use lpomp_runtime as runtime;
pub use lpomp_tlb as tlb;
pub use lpomp_vm as vm;

/// The types nearly every experiment binary and example needs, in one
/// import: `use lpomp::prelude::*;`.
///
/// Covers configuring a system ([`System`](prelude::System) /
/// [`SystemBuilder`](prelude::SystemBuilder),
/// [`PagePolicy`](prelude::PagePolicy),
/// [`ProfileSpec`](prelude::ProfileSpec)), running it
/// ([`run_sim`](prelude::run_sim), [`run_system`](prelude::run_system),
/// [`SweepSpec`](prelude::SweepSpec), [`par_map`](prelude::par_map)),
/// the platforms ([`opteron_2x2`](prelude::opteron_2x2),
/// [`xeon_2x2_ht`](prelude::xeon_2x2_ht)), the workloads
/// ([`AppKind`](prelude::AppKind), [`Class`](prelude::Class)) and
/// reading the results ([`Event`](prelude::Event),
/// [`Counters`](prelude::Counters),
/// [`ProfileSheet`](prelude::ProfileSheet),
/// [`TextTable`](prelude::TextTable), [`fnum`](prelude::fnum)).
pub mod prelude {
    pub use lpomp_core::{
        default_workers, figure4_thread_counts, par_map, run_backend, run_sim, run_system, Arch,
        BackendKind, GridCell, JsonlSink, KeyedGrid, MMArch, MultiRunReport, MultiSystem,
        PagePolicy, PopulatePolicy, ProfileSpec, RunOpts, RunRecord, RunStore, SetupStats, Shard,
        StoreKey, SweepResults, SweepSpec, System, SystemBuilder, SystemConfig, TenancyConfig,
        TenantReport, TenantSpec,
    };
    pub use lpomp_machine::{
        arm64_2x2_16k, arm64_2x2_4k, modern_x86_2x2, opteron_2x2, xeon_2x2_ht, AsidMode,
        MachineConfig, NumaConfig, NumaPlacement,
    };
    pub use lpomp_npb::{AppKind, Class, Kernel, Skew};
    pub use lpomp_prof::table::fnum;
    pub use lpomp_prof::{normalized, Counters, Event, ProfileSheet, TextTable};
    pub use lpomp_runtime::{Schedule, StealPolicy, Team};
}
