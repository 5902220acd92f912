//! # `lpomp-prof` — event counters and reports (the OProfile analogue)
//!
//! The paper measures its systems with OProfile: aggregate ITLB miss rates
//! (Fig. 3) and normalized DTLB miss counts (Fig. 5). This crate provides
//! the counter substrate those measurements need — a fixed set of hardware
//! events, per-thread counter sheets, whole-run profiles with aggregation,
//! rate computation against a cycle clock, and the normalized-comparison
//! arithmetic of Fig. 5 — plus a small text-table formatter the experiment
//! binaries use to print paper-shaped tables.
//!
//! Counting is exact rather than sampled: the simulator observes every
//! event, so there is no need for OProfile's statistical sampling.
//!
//! Beyond whole-run sheets, the [`region`] module attributes every
//! counter increment to a named program phase (the paper's per-loop
//! OProfile attribution, §4), and [`trace`] exports the timeline as
//! Chrome `trace_event` JSON. The [`reuse`] module captures per-thread
//! reuse-distance histograms into the compact [`StreamProfile`] the
//! analytic backend evaluates. [`json`] is the workspace's one JSON
//! codec: the workspace's crates write and read every JSON file with it.
//! [`lru`] holds the true-LRU bodies under the simulated caches, the TLB
//! arrays and the capture's per-set conflict trackers.

#![warn(missing_docs)]

/// Version stamp of the evaluation engine and its persisted artifacts.
///
/// Bump this whenever a change alters what a cached artifact *means*:
/// charge rules or cost-model semantics, the capture pipeline behind
/// [`StreamProfile`], the serialization schemas, or the set of counted
/// [`Event`]s. Every on-disk cache in the workspace — the
/// `LPOMP_PROFILE_DIR` profile cache and the `lpomp-core` sweep result
/// store — stamps its files with this number and refuses (recaptures /
/// re-runs) anything written under a different one, so stale artifacts
/// can never silently feed predictions or figures.
pub const ENGINE_VERSION: u32 = 8;

pub mod counters;
pub mod json;
pub mod lru;
pub mod region;
pub mod report;
pub mod reuse;
pub mod table;
pub mod trace;

pub use counters::{Counters, Event, Profile, ThreadSheet};
pub use json::{parse_json, Json, JsonWriter};
pub use region::{ProfileSheet, ProfileSpec, RegionId, RegionProfiler};
pub use report::{imbalance, normalized, NormalizedSeries};
pub use reuse::{PhaseAggregator, ReuseHistogram, ReuseTracker, StreamProfile, ThreadRecorder};
pub use table::TextTable;
