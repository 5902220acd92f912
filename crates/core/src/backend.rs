//! The backend selector: one configuration point, two evaluation engines.
//!
//! [`BackendKind::CycleExact`] is the access-by-access simulation behind
//! every golden figure — authoritative and slow. [`BackendKind::Analytic`]
//! replays a one-time captured reference stream ([`StreamProfile`])
//! through the closed-form model in [`lpomp_machine::analytic`]: after the
//! capture run, any (machine preset × page policy × thread count × NUMA
//! placement) point costs milliseconds instead of seconds.
//!
//! The split is sound because the runtime schedules statically: a
//! kernel's per-thread reference stream depends only on `(app, class,
//! threads)`, never on the machine it is timed against. Captures are
//! therefore taken once on a canonical configuration and cached
//! process-wide (and optionally on disk, see [`ProfileCache`]).
//!
//! ```
//! use lpomp_core::{run_backend, BackendKind, PagePolicy, RunOpts};
//! use lpomp_npb::{AppKind, Class};
//! use lpomp_machine::opteron_2x2;
//!
//! let exact = run_backend(BackendKind::CycleExact, AppKind::Cg, Class::S,
//!                         opteron_2x2(), PagePolicy::Large2M, 4,
//!                         RunOpts::default());
//! let fast = run_backend(BackendKind::Analytic, AppKind::Cg, Class::S,
//!                        opteron_2x2(), PagePolicy::Large2M, 4,
//!                        RunOpts::default());
//! let err = lpomp_core::xval_seconds_err_pct(fast.seconds, exact.seconds);
//! assert!(err <= lpomp_core::XVAL_SECONDS_BAND_PCT);
//! ```

use crate::experiment::{run_system, RunOpts, RunRecord};
use crate::policy::{PagePolicy, PopulatePolicy};
use crate::system::SystemBuilder;
use lpomp_machine::{evaluate, AnalyticPoint, MachineConfig};
use lpomp_npb::{AppKind, Class, ProfileCache};
use lpomp_prof::reuse::StreamProfile;
use lpomp_runtime::{BumpAllocator, Team};
use std::sync::{Arc, OnceLock};

/// Which engine evaluates a configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The access-by-access simulation ([`run_system`]). Authoritative.
    #[default]
    CycleExact,
    /// The reuse-profile model ([`lpomp_machine::analytic`]), fed by a
    /// cached capture. Fast; validated against `CycleExact` within the
    /// [`XVAL_SECONDS_BAND_PCT`] band.
    Analytic,
}

impl BackendKind {
    /// Stable label used in reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::CycleExact => "cycle",
            BackendKind::Analytic => "analytic",
        }
    }

    /// Parse a CLI-flag spelling of a backend.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "cycle" | "cycle-exact" | "exact" => Some(BackendKind::CycleExact),
            "analytic" | "fast" => Some(BackendKind::Analytic),
            _ => None,
        }
    }

    /// The backend implementation.
    pub fn backend(self) -> &'static dyn Backend {
        match self {
            BackendKind::CycleExact => &CycleExact,
            BackendKind::Analytic => &Analytic,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// An evaluation engine: turns a configured system into a [`RunRecord`].
///
/// Both implementations fill the same record shape from the same charge
/// tables ([`lpomp_machine::CostModel`]); they differ in *how* the
/// charges are summed — simulation vs closed form.
pub trait Backend: Sync {
    /// The backend's [`BackendKind::label`].
    fn name(&self) -> &'static str;

    /// Evaluate one configuration.
    fn run(&self, app: AppKind, class: Class, builder: &SystemBuilder, opts: RunOpts) -> RunRecord;
}

/// The cycle-exact engine — delegates to [`run_system`].
pub struct CycleExact;

impl Backend for CycleExact {
    fn name(&self) -> &'static str {
        BackendKind::CycleExact.label()
    }

    fn run(&self, app: AppKind, class: Class, builder: &SystemBuilder, opts: RunOpts) -> RunRecord {
        run_system(app, class, builder, opts)
    }
}

/// The analytic engine — evaluates the cached [`StreamProfile`].
pub struct Analytic;

impl Backend for Analytic {
    fn name(&self) -> &'static str {
        BackendKind::Analytic.label()
    }

    fn run(&self, app: AppKind, class: Class, builder: &SystemBuilder, opts: RunOpts) -> RunRecord {
        let cfg = builder.config();
        // The capture-once premise is static scheduling: a per-thread
        // reference stream valid on every machine. A schedule override
        // (the hierarchical work-stealer) makes thread↔iteration binding
        // machine-dependent, so the model would be fed streams the run
        // never executes. Fall back to the authoritative engine — the
        // record says so via its backend label — and xval stays exact.
        if cfg.schedule.is_some() {
            return run_system(app, class, builder, opts);
        }
        let profile = cached_profile(app, class, cfg.threads);
        let point = AnalyticPoint {
            profile: &profile,
            config: &cfg.machine,
            page_size: cfg.policy.heap_page_size_on(cfg.machine.arch()),
            demand_faults: cfg.populate == PopulatePolicy::OnDemand,
        };
        let res = evaluate(&point);
        // The profile's checksum is the captured run's; verifying it
        // costs one native serial execution, like the cycle backend.
        let verified = opts.verify.then(|| {
            let mut kernel = app.build(class);
            let mut alloc = BumpAllocator::unbounded();
            kernel.setup(&mut alloc);
            let mut team = Team::native(1);
            let _ = kernel.run(&mut team);
            kernel.verify(profile.checksum)
        });
        RunRecord {
            app,
            class,
            machine: cfg.machine.name,
            policy: cfg.policy,
            threads: cfg.threads,
            seconds: res.seconds,
            cycles: res.cycles,
            counters: res.counters,
            checksum: profile.checksum,
            verified,
            regions: None,
            trace: None,
            backend: BackendKind::Analytic.label(),
        }
    }
}

/// Run one configuration through a backend — the backend-generic sibling
/// of [`crate::run_sim`].
pub fn run_backend(
    kind: BackendKind,
    app: AppKind,
    class: Class,
    machine: MachineConfig,
    policy: PagePolicy,
    threads: usize,
    opts: RunOpts,
) -> RunRecord {
    let builder = SystemBuilder::new(machine).policy(policy).threads(threads);
    kind.backend().run(app, class, &builder, opts)
}

/// The process-wide profile cache the analytic backend draws from.
pub fn profiles() -> &'static ProfileCache {
    static CACHE: OnceLock<ProfileCache> = OnceLock::new();
    CACHE.get_or_init(ProfileCache::new)
}

/// Fetch — capturing on first use — the reference-stream profile for a
/// key. Capture runs once per `(app, class, threads)` per process (or
/// once ever, with `LPOMP_PROFILE_DIR` set).
pub fn cached_profile(app: AppKind, class: Class, threads: usize) -> Arc<StreamProfile> {
    profiles().get_or_capture(app, class, threads, || capture_profile(app, class, threads))
}

/// One capture run: execute the kernel once on a recording team and
/// distill each logical thread's reference stream into a
/// [`StreamProfile`].
///
/// The system is built as for a cycle run, on the canonical Opteron
/// preset under 4 KB pages (the Xeon when the thread count needs its SMT
/// contexts), for its virtual layout, code walkers and quantum. The
/// machine is then dropped, and each logical thread runs its static
/// chunks on a host thread of its own with no TLB, cache or clock work
/// ([`Team::into_recording`]). The preset is an arbitrary choice, because
/// the recorded stream (virtual addresses, access modes, region labels,
/// barrier structure) is identical on every preset; only the *charges*
/// differ, and those are what [`evaluate`] recomputes per point.
pub fn capture_profile(app: AppKind, class: Class, threads: usize) -> StreamProfile {
    let opteron = lpomp_machine::opteron_2x2();
    let machine = if threads <= opteron.contexts() {
        opteron
    } else {
        lpomp_machine::xeon_2x2_ht()
    };
    let builder = SystemBuilder::new(machine)
        .policy(PagePolicy::Small4K)
        .threads(threads);
    let mut kernel = app.build(class);
    let sys = builder
        .build(kernel.as_mut())
        .unwrap_or_else(|e| panic!("{app} {class} capture build failed: {e}"));
    let mut team = sys.team.into_recording();
    let checksum = kernel.run(&mut team);
    let Team::Capture(capture) = team else {
        unreachable!("a recording team stays one");
    };
    capture.finish(&app.to_string(), &class.to_string(), checksum)
}

/// Cross-validation band for simulated run time: on every golden
/// configuration, `|analytic − exact| / exact × 100` must stay at or
/// below this (see `tests/backend_xval.rs` and DESIGN.md for the
/// methodology; `results/xval_W.txt` records the measured errors).
pub const XVAL_SECONDS_BAND_PCT: f64 = 12.0;

/// Absolute floor for the run-time error denominator (see
/// [`xval_seconds_err_pct`]): sub-millisecond configurations (class S at
/// high thread counts) are dominated by cold-start effects and barrier
/// constants, where tens of microseconds of absolute error read as
/// double-digit relative error. No decision the sweeps inform rests on
/// a sub-millisecond delta, so error is measured against the floor.
pub(crate) const XVAL_SECONDS_FLOOR: f64 = 1e-3;

/// Relative run-time error in percent, with the `XVAL_SECONDS_FLOOR`
/// denominator clamp for sub-millisecond configurations.
pub fn xval_seconds_err_pct(predicted: f64, reference: f64) -> f64 {
    (predicted - reference).abs() / reference.abs().max(XVAL_SECONDS_FLOOR) * 100.0
}

/// Cross-validation band for aggregate DTLB misses — looser than the
/// run-time band because the per-thread capture cannot express
/// cross-thread effects: cold misses on SMT-shared TLBs dedupe between
/// siblings, and a sibling's walks refill entries the profile counts as
/// evicted. (Set conflicts themselves are captured; see
/// `CONFLICT_SHAPES` in `lpomp-prof`.)
pub const XVAL_DTLB_BAND_PCT: f64 = 40.0;

/// Absolute floor for the DTLB error denominator (see
/// [`xval_dtlb_err_pct`]): below this many misses a configuration's
/// entire TLB cost is under 0.1% of any class-W run time, so relative
/// error against the true count is noise (e.g. 8 predicted vs 4 actual
/// cold misses is "100%"). Error is measured against the floor instead.
pub(crate) const XVAL_DTLB_FLOOR: u64 = 10_000;

/// Relative DTLB-miss error in percent, with the `XVAL_DTLB_FLOOR`
/// denominator clamp for negligible counts.
pub fn xval_dtlb_err_pct(predicted: u64, reference: u64) -> f64 {
    let denom = reference.max(XVAL_DTLB_FLOOR) as f64;
    (predicted as f64 - reference as f64).abs() / denom * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_labels_round_trip() {
        for kind in [BackendKind::CycleExact, BackendKind::Analytic] {
            assert_eq!(BackendKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.backend().name(), kind.label());
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(BackendKind::parse("exact"), Some(BackendKind::CycleExact));
        assert_eq!(BackendKind::parse("fast"), Some(BackendKind::Analytic));
        assert_eq!(BackendKind::parse("quantum"), None);
        assert_eq!(BackendKind::default(), BackendKind::CycleExact);
    }

    #[test]
    fn rel_err_edge_cases() {
        // The DTLB metric clamps tiny denominators to the floor…
        let e = xval_dtlb_err_pct(8, 4);
        assert!((e - 400.0 / XVAL_DTLB_FLOOR as f64).abs() < 1e-9);
        // …and is plain relative error above it.
        let big = 10 * XVAL_DTLB_FLOOR;
        assert!((xval_dtlb_err_pct(big + big / 10, big) - 10.0).abs() < 1e-9);
        // The seconds metric clamps the same way at its 1 ms floor: the
        // 100 µs absolute gap reads against 1 ms, not the 100 µs run.
        assert!((xval_seconds_err_pct(2e-4, 1e-4) - 10.0).abs() < 1e-9);
        // …and is plain relative error above it.
        assert!((xval_seconds_err_pct(1.1, 1.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn analytic_matches_cycle_shape_and_verifies() {
        let opts = RunOpts { verify: true };
        let exact = run_backend(
            BackendKind::CycleExact,
            AppKind::Cg,
            Class::S,
            lpomp_machine::opteron_2x2(),
            PagePolicy::Small4K,
            2,
            opts,
        );
        let fast = run_backend(
            BackendKind::Analytic,
            AppKind::Cg,
            Class::S,
            lpomp_machine::opteron_2x2(),
            PagePolicy::Small4K,
            2,
            opts,
        );
        assert_eq!(exact.backend, "cycle");
        assert_eq!(fast.backend, "analytic");
        assert_eq!(fast.app, exact.app);
        assert_eq!(fast.machine, exact.machine);
        assert_eq!(fast.threads, exact.threads);
        assert_eq!(fast.verified, Some(true));
        assert!(fast.seconds > 0.0 && fast.cycles > 0);
        // The capture folds every reduction as the cycle engine does, so
        // the checksums agree exactly.
        assert_eq!(fast.checksum, exact.checksum);
    }

    #[test]
    fn capture_is_cached_per_key() {
        let before = profiles().len();
        let a = cached_profile(AppKind::Ep, Class::S, 2);
        let b = cached_profile(AppKind::Ep, Class::S, 2);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!profiles().is_empty() && profiles().len() >= before);
    }

    #[test]
    fn analytic_falls_back_to_cycle_on_a_schedule_override() {
        use lpomp_runtime::Schedule;
        let builder = SystemBuilder::new(lpomp_machine::opteron_2x2())
            .policy(PagePolicy::Small4K)
            .threads(2)
            .schedule(Schedule::Hierarchical { chunk: 128 });
        let rec = BackendKind::Analytic.backend().run(
            AppKind::Cg,
            Class::S,
            &builder,
            RunOpts::default(),
        );
        assert_eq!(rec.backend, "cycle", "override must force the exact engine");
        let exact = BackendKind::CycleExact.backend().run(
            AppKind::Cg,
            Class::S,
            &builder,
            RunOpts::default(),
        );
        assert_eq!(rec, exact, "fallback is the cycle engine, verbatim");
    }

    #[test]
    fn analytic_preserves_page_size_ordering() {
        // The figure-4 effect must survive the model: 2 MB pages cut CG's
        // DTLB misses and never slow it down.
        let small = run_backend(
            BackendKind::Analytic,
            AppKind::Cg,
            Class::S,
            lpomp_machine::opteron_2x2(),
            PagePolicy::Small4K,
            4,
            RunOpts::default(),
        );
        let large = run_backend(
            BackendKind::Analytic,
            AppKind::Cg,
            Class::S,
            lpomp_machine::opteron_2x2(),
            PagePolicy::Large2M,
            4,
            RunOpts::default(),
        );
        assert!(large.dtlb_misses() * 2 < small.dtlb_misses());
        assert!(large.seconds <= small.seconds);
    }
}
