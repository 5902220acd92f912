//! # `lpomp-runtime` — OpenMP-style fork-join runtime
//!
//! The programming model of the reproduction: fork-join loop parallelism
//! over shared arrays (paper §2.2 / Fig. 1), with the §3.3 runtime pieces
//! the paper built for its modified Omni/SCASH:
//!
//! * [`shared`] — [`ShVec`], the shared-array type standing in for Omni's
//!   global-array-to-shared-pointer transformation;
//! * [`schedule`] — static/chunked/dynamic/guided loop schedules;
//! * [`team`] — the [`Team`] fork-join API on two engines: native OS
//!   threads (correctness, wall-clock) and the event-driven simulated
//!   engine over `lpomp-machine` (the paper's measurements);
//! * [`barrier`] — native sense-reversing and combining-tree barriers;
//! * [`mailbox`] — the intra-node shared-memory message layer (single
//!   copy, 32 outstanding messages, ≤ 1 KB payloads, 4 KB-paged backing).

#![warn(missing_docs)]

pub mod alloc;
pub mod barrier;
pub mod critical;
pub mod mailbox;
pub mod schedule;
pub mod shared;
pub mod team;
pub mod tenancy;

pub use alloc::BumpAllocator;
pub use barrier::{NativeBarrier, SenseBarrier, TreeBarrier};
pub use critical::{Critical, OmpLock};
pub use mailbox::{allreduce_sum, Mailbox, MailboxError, MAX_MSG_BYTES, SLOTS_PER_CHANNEL};
pub use schedule::{plan, Plan, Schedule};
pub use shared::{ShVec, Word};
pub use team::{Body, ReduceBody, Reduction, SimEngine, StealPolicy, Team, DEFAULT_QUANTUM};
pub use tenancy::{run_tenants, ScheduleStats, TenantOutcome, TenantTask};
