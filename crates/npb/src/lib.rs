//! # `lpomp-npb` — the NAS Parallel Benchmark workloads
//!
//! From-scratch Rust implementations of the five OpenMP NPB applications
//! the paper evaluates (§4.2) — BT, CG, FT, SP, MG — plus EP as a
//! TLB-insensitive control. Each kernel
//!
//! * performs **real arithmetic** (block solves, conjugate gradient,
//!   radix-2 FFTs, multigrid V-cycles) on shared arrays, with a serial
//!   reference and checksum verification;
//! * **narrates its memory behaviour** through [`lpomp_machine::MemoryCtx`]:
//!   dense sweeps as prefetcher-covered streams, gathers and large-stride
//!   pencil walks as demand accesses — the distinction the large-page
//!   effect turns on;
//! * is parameterized by [`Class`]: `S` for tests, `W` scaled so that
//!   footprint ÷ TLB-reach matches the class-B-on-real-hardware regime,
//!   `B` for the paper's Table 2 footprints.
//!
//! Flop charges are the kernels' actual operation counts, so the relative
//! compute intensity of the applications — what separates the ~25%
//! CG gain from the flat BT/FT results — is measured, not asserted.

#![warn(missing_docs)]
// The solver kernels index multiple arrays with one loop variable, as the
// Fortran originals do; iterator zips would obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

pub mod bt;
pub mod cg;
pub mod common;
pub mod ep;
pub mod ft;
pub mod is;
pub mod lu;
pub mod mg;
pub mod profile_cache;
pub mod rng;
pub mod skew;
pub mod sp;

pub use common::{run_native, verify_close, AppKind, Class, CodeProfile, Footprint, Kernel};
pub use profile_cache::ProfileCache;
pub use rng::Nprng;
pub use skew::Skew;
