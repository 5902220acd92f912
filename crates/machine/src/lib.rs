//! # `lpomp-machine` — deterministic multi-core timing model
//!
//! The hardware substrate of the reproduction: the dual dual-core Opteron
//! 270 and the dual dual-core hyper-threaded Xeon of the paper's §4.1,
//! modelled as
//!
//! * [`cache`] — set-associative L1D/L2 caches (private vs chip-shared);
//! * [`cost`] — the cycle cost model (latency ratios, SMT flush penalty);
//! * [`config`] — topology presets and the paper's thread-placement rule
//!   (one thread per core up to four, then a second SMT context);
//! * [`machine`] — the assembled machine: per-core split TLBs shared by
//!   SMT contexts, cache hierarchy, page-walk charging, the Xeon
//!   flush-on-stall rule;
//! * [`ctx`] — [`MemoryCtx`], the instrumentation interface kernels are
//!   written against, with a simulating and a no-op implementation.
//!
//! The model is functional *and* timing: every access returns the cycles
//! it took, so per-thread clocks — and ultimately the Fig. 4 run times —
//! are sums of individually explainable charges, not fitted curves.

#![warn(missing_docs)]

pub mod analytic;
pub mod cache;
pub mod capture;
pub mod config;
pub mod cost;
pub mod ctx;
pub mod machine;
pub mod numa;
pub mod sched;

pub use analytic::{evaluate, AnalyticPoint, AnalyticResult};
pub use cache::{Cache, CacheConfig, LINE_BYTES};
pub use capture::{CaptureCtx, CaptureState};
pub use config::{
    arm64_2x2_16k, arm64_2x2_4k, modern_x86_2x2, opteron_2x2, xeon_2x2_ht, L2Scope, MachineConfig,
};
pub use cost::CostModel;
pub use ctx::{CodeWalker, MemoryCtx, NullCtx, SimCtx};
pub use machine::{AccessMode, DataKind, Machine};
pub use numa::{NumaConfig, NumaPlacement};
pub use sched::{AsidMode, SliceScheduler};
