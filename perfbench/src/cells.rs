//! The four workloads, the cells they run, and one pass over them.
//!
//! A cell is one configuration taken through the public API: bring-up
//! (`AppKind::build` / `Skew::new`, `SystemBuilder::build`, heap aging),
//! `Kernel::run`, and for the analytic workload `capture_profile`, the
//! profile codec, `Analytic` evaluations and the `RunStore`. Cells run one
//! after another on one host thread; each is wrapped in `catch_unwind`,
//! so a panicking or mismatching cell is named and counted as failed while
//! the pass goes on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use lpomp_core::backend::profiles;
use lpomp_core::{
    capture_profile, xval_dtlb_err_pct, xval_seconds_err_pct, Analytic, Backend, BackendKind,
    PagePolicy, PopulatePolicy, RunOpts, RunRecord, RunStore, StoreKey, System, SystemBuilder,
    XVAL_DTLB_BAND_PCT, XVAL_SECONDS_BAND_PCT,
};
use lpomp_machine::{
    arm64_2x2_16k, arm64_2x2_4k, modern_x86_2x2, opteron_2x2, xeon_2x2_ht, MachineConfig,
    NumaConfig, NumaPlacement,
};
use lpomp_npb::{AppKind, Class, Kernel, Skew};
use lpomp_prof::reuse::{StreamProfile, MODE_STREAM};
use lpomp_prof::{Counters, Event};
use lpomp_runtime::{Schedule, StealPolicy};
use lpomp_vm::{age_heap, MMArch, NumaDaemonConfig};

use crate::gate::{fnv1a64, sim_fields, tagged, Fields, Reference};
use crate::span::Probe;
use crate::{median, SplitMix};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's baseline: 4 KB pages, startup prefault, static loops.
    Cycle4k,
    /// The same cells under 2 MB pages.
    Cycle2m,
    /// Cold capture, profile codec, warm evaluations and the store.
    Analytic,
    /// Barrier-time daemons, demand faults, migration, work stealing.
    Daemons,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Cycle4k,
        Workload::Cycle2m,
        Workload::Analytic,
        Workload::Daemons,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cycle4k => "cycle-4k",
            Workload::Cycle2m => "cycle-2m",
            Workload::Analytic => "analytic",
            Workload::Daemons => "daemons",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Which kernel a cycle cell builds.
#[derive(Clone, Copy, Debug)]
enum Kern {
    Npb(AppKind),
    Skew,
}

/// One cycle-engine cell.
#[derive(Clone, Debug)]
pub(crate) struct CycleCell {
    pub id: String,
    kern: Kern,
    builder: SystemBuilder,
    /// Age the whole free heap (severity 1.0) after bring-up.
    aged: bool,
    /// Back-to-back `Kernel::run`s on one system (2 = collapse, then
    /// steady state).
    runs: usize,
    /// The shared heap is on 2 MB pages (selects the walk figure in the
    /// ledger).
    pub large: bool,
}

impl CycleCell {
    fn npb(
        prefix: &str,
        app: AppKind,
        machine: MachineConfig,
        policy: PagePolicy,
        t: usize,
    ) -> Self {
        CycleCell {
            id: format!("{prefix}/{}/{}/t{t}", app.name(), machine.name),
            kern: Kern::Npb(app),
            builder: SystemBuilder::new(machine).policy(policy).threads(t),
            aged: false,
            runs: 1,
            large: policy == PagePolicy::Large2M,
        }
    }
}

/// The six cells of `cycle-4k` / `cycle-2m`: CG, SP and MG on the
/// Opteron at 4 threads and the Xeon at 8.
fn paper_cells(prefix: &str, policy: PagePolicy) -> Vec<CycleCell> {
    let mut cells = Vec::new();
    for app in [AppKind::Cg, AppKind::Sp, AppKind::Mg] {
        cells.push(CycleCell::npb(prefix, app, opteron_2x2(), policy, 4));
        cells.push(CycleCell::npb(prefix, app, xeon_2x2_ht(), policy, 8));
    }
    cells
}

pub(crate) fn numa_opteron() -> MachineConfig {
    let mut m = opteron_2x2();
    m.numa = Some(NumaConfig::opteron(NumaPlacement::FirstTouch));
    m
}

/// The stealing cells' chunk size (the E8 experiment's).
const STEAL_CHUNK: usize = 256;

fn daemon_cells() -> Vec<CycleCell> {
    let numad = |m: MachineConfig| {
        SystemBuilder::new(m)
            .policy(PagePolicy::Small4K)
            .threads(4)
            .populate(PopulatePolicy::OnDemand)
            .numa_daemon(NumaDaemonConfig::default())
    };
    let skew = |id: &str, steal: StealPolicy| CycleCell {
        id: id.to_owned(),
        kern: Kern::Skew,
        builder: numad(numa_opteron())
            .schedule(Schedule::Hierarchical { chunk: STEAL_CHUNK })
            .steal_policy(steal),
        aged: false,
        runs: 1,
        large: false,
    };
    vec![
        CycleCell {
            id: "daemons/CG/thp-aged+khugepaged/t4".to_owned(),
            kern: Kern::Npb(AppKind::Cg),
            builder: SystemBuilder::new(opteron_2x2())
                .threads(4)
                .thp_daemon(true),
            aged: true,
            runs: 2,
            large: false,
        },
        CycleCell {
            id: "daemons/MG/first-touch+numad/t4".to_owned(),
            kern: Kern::Npb(AppKind::Mg),
            builder: numad(numa_opteron()),
            aged: false,
            runs: 1,
            large: false,
        },
        skew("daemons/SKEW/hier+numad/t4", StealPolicy::default()),
        skew(
            "daemons/SKEW/blind+numad/t4",
            StealPolicy {
                remote_batch: 1,
                work_follows_pages: false,
                pages_follow_work: false,
                topology_aware: false,
            },
        ),
    ]
}

/// The cycle cells of a workload (none for `analytic`).
pub(crate) fn cycle_cells(w: Workload) -> Vec<CycleCell> {
    match w {
        Workload::Cycle4k => paper_cells("cycle-4k", PagePolicy::Small4K),
        Workload::Cycle2m => paper_cells("cycle-2m", PagePolicy::Large2M),
        Workload::Daemons => daemon_cells(),
        Workload::Analytic => Vec::new(),
    }
}

/// The analytic workload's application and thread count.
pub(crate) const ANALYTIC_APP: AppKind = AppKind::Cg;
pub(crate) const ANALYTIC_THREADS: usize = 4;

/// Cycle-exact references for the analytic cross-validation: CG at 4
/// threads on the Opteron and the Xeon, 4 KB and 2 MB (the CG@4 rows of
/// `results/xval_W.txt`). Recorded only, never run by a workload.
pub(crate) fn xval_cells() -> Vec<CycleCell> {
    let mut cells = Vec::new();
    for machine in [opteron_2x2(), xeon_2x2_ht()] {
        for policy in [PagePolicy::Small4K, PagePolicy::Large2M] {
            let mut c = CycleCell::npb(
                "xval",
                ANALYTIC_APP,
                machine.clone(),
                policy,
                ANALYTIC_THREADS,
            );
            c.id = format!("{}/{}", c.id, policy.label());
            cells.push(c);
        }
    }
    cells
}

/// What a finished cycle cell reports.
#[derive(Clone, Debug, Default)]
pub(crate) struct CycleDone {
    pub fields: Fields,
    /// Median bring-up seconds, total and split (kernel, system, age).
    pub setup_s: f64,
    pub split_s: [f64; 3],
    /// Host seconds of the measured bring-up plus the runs.
    pub pass_s: f64,
    /// Host seconds inside `Kernel::run`.
    pub run_s: f64,
    /// Engine counters summed over the runs.
    pub counters: Counters,
    /// khugepaged and NUMA-daemon scan invocations.
    pub scans: [u64; 2],
    /// Checksums of the runs (verified outside the pass).
    checksums: Vec<f64>,
    /// Simulated seconds of the last run.
    pub sim_seconds: f64,
}

/// A bring-up's product and its timing split (kernel, system, age).
struct Up {
    kernel: Box<dyn Kernel>,
    sys: System,
    split: [f64; 3],
}

fn bring_up(cell: &CycleCell, class: Class, probe: &mut Probe, idx: usize) -> Result<Up, String> {
    let m = probe.begin("kernel_build", idx);
    let mut kernel: Box<dyn Kernel> = match cell.kern {
        Kern::Npb(app) => app.build(class),
        Kern::Skew => Box::new(Skew::new(class)),
    };
    let kernel_s = probe.end(m);
    let m = probe.begin("system_build", idx);
    let built = cell.builder.build(kernel.as_mut());
    let system_s = probe.end(m);
    let mut sys = built.map_err(|e| format!("{}: system build failed: {e}", cell.id))?;
    let mut age_s = 0.0;
    if cell.aged {
        let e = sys
            .team
            .engine_mut()
            .expect("SystemBuilder builds a simulated team");
        let m = probe.begin("age_heap", idx);
        let aged = age_heap(&mut e.machine.frames, &mut e.aspace, 1.0);
        age_s = probe.end(m);
        aged.map_err(|e| format!("{}: age_heap failed: {e}", cell.id))?;
    }
    Ok(Up {
        kernel,
        sys,
        split: [kernel_s, system_s, age_s],
    })
}

/// Counter deltas attached to a `Kernel::run` span.
fn run_args(c: &Counters) -> Vec<(&'static str, u64)> {
    Event::ALL
        .iter()
        .filter(|&&e| c.get(e) != 0)
        .map(|&e| (e.mnemonic(), c.get(e)))
        .collect()
}

/// Run one cycle cell: `setup_reps - 1` throw-away bring-ups (timed for
/// the set-up median, outside the pass), then the measured bring-up and
/// runs.
pub(crate) fn run_cycle_cell(
    cell: &CycleCell,
    class: Class,
    probe: &mut Probe,
    idx: usize,
    setup_reps: usize,
) -> Result<CycleDone, String> {
    let mut splits = Vec::new();
    let mut quiet = Probe::new(false);
    for _ in 1..setup_reps {
        splits.push(bring_up(cell, class, &mut quiet, idx)?.split);
    }
    let t0 = Instant::now();
    let Up {
        mut kernel,
        mut sys,
        split,
    } = bring_up(cell, class, probe, idx)?;
    splits.push(split);
    let mut done = CycleDone::default();
    for r in 0..cell.runs {
        let engine = sys
            .team
            .engine_mut()
            .expect("SystemBuilder builds a simulated team");
        if r > 0 {
            engine.reset_timing();
        }
        let m = probe.begin("run", idx);
        let checksum = kernel.run(&mut sys.team);
        let secs = probe.end(m);
        let c = sys.team.aggregate_counters();
        if probe.tracing() {
            probe.attach_last(run_args(&c));
        }
        done.run_s += secs;
        let cycles = sys.team.elapsed_cycles();
        let f = sim_fields(cycles, checksum, &c);
        done.fields.extend(match cell.runs {
            1 => f,
            _ => tagged(&format!("run{}", r + 1), f),
        });
        done.counters.merge(&c);
        done.checksums.push(checksum);
        done.sim_seconds = sys.team.elapsed_seconds();
    }
    done.pass_s = t0.elapsed().as_secs_f64();
    let engine = sys
        .team
        .engine()
        .expect("SystemBuilder builds a simulated team");
    done.scans = [
        engine.daemon().map_or(0, |d| d.invocations()),
        engine.numa_daemon().map_or(0, |d| d.invocations()),
    ];
    let totals: Vec<f64> = splits.iter().map(|s| s.iter().sum()).collect();
    done.setup_s = median(&totals);
    for (i, part) in done.split_s.iter_mut().enumerate() {
        *part = median(&splits.iter().map(|s| s[i]).collect::<Vec<_>>());
    }
    // Native serial verification, outside the timed part of the pass.
    drop(sys);
    let m = probe.begin("verify", idx);
    let bad = done.checksums.iter().find(|&&c| !kernel.verify(c)).copied();
    probe.end(m);
    match bad {
        Some(c) => Err(format!(
            "{}: checksum {c} failed native verification",
            cell.id
        )),
        None => Ok(done),
    }
}

/// The engine work of one cell: what the ledger multiplies by ns/op.
#[derive(Clone, Debug, Default)]
pub struct EngineCell {
    pub id: String,
    /// Host seconds in the engine (`Kernel::run` or `capture_profile`).
    pub run_s: f64,
    pub counters: Counters,
    pub threads: usize,
    /// The shared heap is on 2 MB pages.
    pub large: bool,
    /// khugepaged and NUMA-daemon scan invocations.
    pub scans: [u64; 2],
    /// References the capture recorded in stream mode and in the other
    /// modes (analytic only).
    pub recorded: [u64; 2],
}

/// Outcome of one cell in a pass.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    pub id: String,
    /// The simulated outputs the gate compared (empty when the cell
    /// failed before producing them).
    pub fields: Fields,
    pub error: Option<String>,
}

/// Everything a pass measured.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    pub cells: Vec<CellOutcome>,
    /// Host seconds of the pass (verification and the extra set-up
    /// repetitions excluded).
    pub wall_s: f64,
    /// Sum over cells of the median bring-up.
    pub setup_s: f64,
    /// Per-cell medians: kernel build, system build, heap aging.
    pub split_s: Vec<[f64; 3]>,
    /// Host seconds in the engine: `Kernel::run`, or `capture_profile`
    /// for the analytic workload.
    pub engine_s: f64,
    /// Engine counters summed over cells (the capture run's for
    /// `analytic`).
    pub counters: Counters,
    /// The engine work of each cell, for the ledger.
    pub engine_cells: Vec<EngineCell>,
    /// Analytic only: host microseconds per `Analytic` evaluation.
    pub evals_us: Vec<f64>,
    /// Analytic only: worst cross-validation errors (time, DTLB) in %.
    pub xval_pct: [f64; 2],
}

impl Pass {
    pub fn attempted(&self) -> usize {
        self.cells.len()
    }

    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| c.error.is_some()).count()
    }

    /// khugepaged and NUMA-daemon scan invocations over the cells.
    pub fn scans(&self) -> [u64; 2] {
        self.engine_cells
            .iter()
            .fold([0, 0], |a, c| [a[0] + c.scans[0], a[1] + c.scans[1]])
    }

    /// Data and instruction references the engine simulated.
    pub fn refs(&self) -> u64 {
        let c = &self.counters;
        c.get(Event::Loads) + c.get(Event::Stores) + c.get(Event::IFetches)
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_owned())
}

/// Run `f` as a cell: a panic is caught, closed out in the trace and
/// turned into the cell's error.
fn guarded<T>(
    probe: &mut Probe,
    f: impl FnOnce(&mut Probe) -> Result<T, String>,
) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(|| f(&mut *probe))) {
        Ok(r) => r,
        Err(p) => {
            probe.unwind();
            Err(format!("panicked: {}", panic_text(p)))
        }
    }
}

/// The shared knobs of a pass.
pub struct PassOpts<'a> {
    pub class: Class,
    pub seed: u64,
    pub setup_reps: usize,
    pub reference: &'a Reference,
    /// Directory for the scratch `RunStore` (removed afterwards).
    pub scratch: &'a Path,
}

/// One pass over a workload's cells, in an order the seed permutes.
pub fn run_pass(w: Workload, o: &PassOpts, probe: &mut Probe) -> Pass {
    match w {
        Workload::Analytic => analytic_pass(o, probe),
        _ => cycle_pass(cycle_cells(w), o, probe),
    }
}

fn cycle_pass(mut cells: Vec<CycleCell>, o: &PassOpts, probe: &mut Probe) -> Pass {
    SplitMix::new(o.seed).shuffle(&mut cells);
    let mut pass = Pass::default();
    for (idx, cell) in cells.iter().enumerate() {
        let m = probe.begin("cell", idx);
        let r = guarded(probe, |p| {
            run_cycle_cell(cell, o.class, p, idx, o.setup_reps)
        });
        probe.end(m);
        let mut fields = Fields::new();
        let error = match r {
            Ok(done) => {
                pass.wall_s += done.pass_s;
                pass.setup_s += done.setup_s;
                pass.split_s.push(done.split_s);
                pass.engine_s += done.run_s;
                pass.counters.merge(&done.counters);
                pass.engine_cells.push(EngineCell {
                    id: cell.id.clone(),
                    run_s: done.run_s,
                    counters: done.counters.clone(),
                    threads: cell.builder.config().threads,
                    large: cell.large,
                    scans: done.scans,
                    recorded: [0, 0],
                });
                fields = done.fields;
                o.reference.check(&cell.id, &fields).err()
            }
            Err(e) => Some(e),
        };
        pass.cells.push(CellOutcome {
            id: cell.id.clone(),
            fields,
            error,
        });
    }
    pass
}

/// One point of the analytic grid.
pub(crate) struct Point {
    pub(crate) id: String,
    machine: MachineConfig,
    rung: u8,
    populate: PopulatePolicy,
}

impl Point {
    pub(crate) fn builder(&self) -> SystemBuilder {
        SystemBuilder::new(self.machine.clone())
            .policy(PagePolicy::Rung(self.rung))
            .threads(ANALYTIC_THREADS)
            .populate(self.populate)
    }
}

/// Every preset with at least 4 contexts × every rung of its ladder ×
/// {prefault, on-demand}.
pub(crate) fn analytic_points() -> Vec<Point> {
    let mut pts = Vec::new();
    let presets = [
        opteron_2x2(),
        xeon_2x2_ht(),
        modern_x86_2x2(),
        arm64_2x2_4k(),
        arm64_2x2_16k(),
    ];
    for m in presets
        .into_iter()
        .filter(|m| m.contexts() >= ANALYTIC_THREADS)
    {
        let arch = m.arch();
        for (rung, r) in arch.ladder().iter().enumerate() {
            for populate in [PopulatePolicy::Prefault, PopulatePolicy::OnDemand] {
                let pop = match populate {
                    PopulatePolicy::OnDemand => "ondemand",
                    _ => "prefault",
                };
                pts.push(Point {
                    id: format!(
                        "analytic/{}/{}/{}KB/{pop}",
                        m.name,
                        arch.descriptor(),
                        r.size.bytes() >> 10
                    ),
                    machine: m.clone(),
                    rung: rung as u8,
                    populate,
                });
            }
        }
    }
    pts
}

/// The cycle reference a point cross-validates against, if any.
fn xval_id(p: &Point) -> Option<String> {
    let policy = match p.rung {
        0 => PagePolicy::Small4K,
        1 => PagePolicy::Large2M,
        _ => return None,
    };
    let canonical = [opteron_2x2(), xeon_2x2_ht()]
        .into_iter()
        .any(|m| format!("{:?}", m) == format!("{:?}", p.machine));
    (canonical && p.populate == PopulatePolicy::Prefault).then(|| {
        format!(
            "xval/{}/{}/t{ANALYTIC_THREADS}/{}",
            ANALYTIC_APP.name(),
            p.machine.name,
            policy.label()
        )
    })
}

fn record_fields(r: &RunRecord) -> Fields {
    let mut f = sim_fields(r.cycles, r.checksum, &r.counters);
    f.push(("seconds".to_owned(), r.seconds.to_bits()));
    f
}

/// Bring-up of the capture's system, as `capture_profile` does it:
/// host seconds of the kernel build and the system build.
fn capture_bring_up(class: Class, probe: &mut Probe, idx: usize) -> Result<[f64; 2], String> {
    let m = probe.begin("kernel_build", idx);
    let mut kernel = ANALYTIC_APP.build(class);
    let kernel_s = probe.end(m);
    let m = probe.begin("system_build", idx);
    let built = SystemBuilder::new(opteron_2x2())
        .policy(PagePolicy::Small4K)
        .threads(ANALYTIC_THREADS)
        .build(kernel.as_mut());
    let system_s = probe.end(m);
    built.map_err(|e| format!("capture bring-up failed: {e}"))?;
    Ok([kernel_s, system_s])
}

fn profile_fields(p: &StreamProfile) -> Fields {
    let [stream, other] = recorded_refs(p);
    vec![
        ("checksum".to_owned(), p.checksum.to_bits()),
        ("phases".to_owned(), p.phases.len() as u64),
        ("recorded_stream".to_owned(), stream),
        ("recorded_other".to_owned(), other),
    ]
}

/// Data references a profile recorded in stream mode and in the other
/// modes.
fn recorded_refs(p: &StreamProfile) -> [u64; 2] {
    let mut out = [0; 2];
    for t in p.phases.iter().flat_map(|ph| &ph.threads) {
        for (mode, n) in t.acc.iter().enumerate() {
            out[usize::from(mode != MODE_STREAM)] += n;
        }
    }
    out
}

fn analytic_pass(o: &PassOpts, probe: &mut Probe) -> Pass {
    let mut pass = Pass::default();
    let mut idx = 0;
    let cell = |pass: &mut Pass, id: String, r: Result<Fields, String>| {
        let (fields, error) = match r {
            Ok(f) => (f, None),
            Err(e) => (Fields::new(), Some(e)),
        };
        pass.cells.push(CellOutcome { id, fields, error });
    };

    // Cell 0: the cold capture. Its bring-up is repeated apart from the
    // call for the set-up median (the last repetition traced, as for a
    // cycle cell); the capture itself is one public call.
    let mut profile = None;
    let m = probe.begin("cell", idx);
    let r = guarded(probe, |p| {
        let mut quiet = Probe::new(false);
        let splits = (1..=o.setup_reps)
            .map(|rep| {
                let probe = if rep == o.setup_reps {
                    &mut *p
                } else {
                    &mut quiet
                };
                capture_bring_up(o.class, probe, idx)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let part = |i: usize| median(&splits.iter().map(|s| s[i]).collect::<Vec<_>>());
        pass.setup_s = median(&splits.iter().map(|s| s[0] + s[1]).collect::<Vec<_>>());
        pass.split_s.push([part(0), part(1), 0.0]);
        let m = p.begin("capture", idx);
        let prof = capture_profile(ANALYTIC_APP, o.class, ANALYTIC_THREADS);
        pass.engine_s = p.end(m);
        pass.wall_s += pass.engine_s;
        let fields = profile_fields(&prof);
        profile = Some(prof);
        o.reference
            .check("analytic/capture", &fields)
            .map(|()| fields)
    });
    probe.end(m);
    cell(&mut pass, "analytic/capture".to_owned(), r);
    // The capture run is the canonical Opteron 4 KB cycle run with
    // recording on; its engine counters are that run's.
    let capture_ref = format!(
        "xval/{}/{}/t{ANALYTIC_THREADS}/{}",
        ANALYTIC_APP.name(),
        opteron_2x2().name,
        PagePolicy::Small4K.label()
    );
    for e in Event::ALL {
        if let Some(v) = o.reference.field(&capture_ref, e.mnemonic()) {
            pass.counters.set(e, v);
        }
    }
    let Some(profile) = profile else {
        return pass; // nothing to evaluate without a profile
    };
    pass.engine_cells.push(EngineCell {
        id: "analytic/capture".to_owned(),
        run_s: pass.engine_s,
        counters: pass.counters.clone(),
        threads: ANALYTIC_THREADS,
        large: false,
        scans: [0, 0],
        recorded: recorded_refs(&profile),
    });

    // Cell 1: the profile codec round trip.
    idx += 1;
    let m = probe.begin("cell", idx);
    let t0 = Instant::now();
    let r = guarded(probe, |p| {
        let m = p.begin("codec", idx);
        let json = profile.to_json();
        p.end(m);
        let m = p.begin("codec", idx);
        let back = StreamProfile::from_json(&json);
        p.end(m);
        let back = back.map_err(|e| format!("profile JSON does not parse back: {e}"))?;
        if back != profile {
            return Err("profile JSON round trip changed the profile".to_owned());
        }
        // Warm evaluations draw on the process-wide profile cache; seed
        // it with the profile just captured (a no-op on a second pass).
        let cached =
            profiles().get_or_capture(ANALYTIC_APP, o.class, ANALYTIC_THREADS, || profile.clone());
        if *cached != profile {
            return Err("cached profile differs from the fresh capture".to_owned());
        }
        let fields = vec![
            ("json_bytes".to_owned(), json.len() as u64),
            ("json_fnv".to_owned(), fnv1a64(json.as_bytes())),
        ];
        o.reference
            .check("analytic/codec", &fields)
            .map(|()| fields)
    });
    pass.wall_s += t0.elapsed().as_secs_f64();
    probe.end(m);
    cell(&mut pass, "analytic/codec".to_owned(), r);

    let store = RunStore::open(o.scratch);
    let mut points = analytic_points();
    SplitMix::new(o.seed).shuffle(&mut points);
    for pt in &points {
        idx += 1;
        let m = probe.begin("cell", idx);
        let t0 = Instant::now();
        let r = guarded(probe, |p| {
            let store = store
                .as_ref()
                .map_err(|e| format!("scratch store unavailable: {e}"))?;
            analytic_point(pt, o, p, idx, store, &mut pass)
        });
        pass.wall_s += t0.elapsed().as_secs_f64();
        probe.end(m);
        cell(&mut pass, pt.id.clone(), r);
    }
    let _ = std::fs::remove_dir_all(o.scratch);
    pass
}

fn analytic_point(
    pt: &Point,
    o: &PassOpts,
    p: &mut Probe,
    idx: usize,
    store: &RunStore,
    pass: &mut Pass,
) -> Result<Fields, String> {
    let opts = RunOpts::default();
    let m = p.begin("eval", idx);
    let rec = Analytic.run(ANALYTIC_APP, o.class, &pt.builder(), opts);
    pass.evals_us.push(p.end(m) * 1e6);
    if rec.backend != BackendKind::Analytic.label() {
        return Err(format!(
            "{}: evaluated by the {} backend",
            pt.id, rec.backend
        ));
    }
    let m = p.begin("store", idx);
    let mut key = StoreKey::new(
        &pt.machine,
        ANALYTIC_APP,
        o.class,
        rec.policy,
        ANALYTIC_THREADS,
        opts,
        BackendKind::Analytic,
    );
    if pt.populate == PopulatePolicy::OnDemand {
        key = key.with_variant("populate=ondemand");
    }
    let saved = store.save(&key, &rec);
    let loaded = store.load(&key);
    p.end(m);
    match saved {
        Ok(true) => {}
        Ok(false) => return Err(format!("{}: the store declined the record", pt.id)),
        Err(e) => return Err(format!("{}: store save failed: {e}", pt.id)),
    }
    if loaded.as_ref() != Some(&rec) {
        return Err(format!(
            "{}: the store loaded back a different record",
            pt.id
        ));
    }
    if let Some(xid) = xval_id(pt) {
        let exact = |k| {
            o.reference
                .field(&xid, k)
                .ok_or_else(|| format!("{}: no cycle reference {xid}", pt.id))
        };
        let t_err = xval_seconds_err_pct(rec.seconds, f64::from_bits(exact("seconds")?));
        let d_err = xval_dtlb_err_pct(rec.dtlb_misses(), exact(Event::DtlbMisses.mnemonic())?);
        pass.xval_pct[0] = pass.xval_pct[0].max(t_err);
        pass.xval_pct[1] = pass.xval_pct[1].max(d_err);
        if t_err > XVAL_SECONDS_BAND_PCT || d_err > XVAL_DTLB_BAND_PCT {
            return Err(format!(
                "{}: outside the xval bands (time {t_err:.2}%, dtlb {d_err:.2}%)",
                pt.id
            ));
        }
    }
    let fields = record_fields(&rec);
    o.reference.check(&pt.id, &fields).map(|()| fields)
}

/// Run every cell of every workload once and collect its outputs as a
/// reference (the cycle references for cross-validation included).
pub fn record_reference(class: Class) -> Result<Reference, String> {
    let mut reference = Reference::default();
    let mut probe = Probe::new(false);
    let mut cells: Vec<CycleCell> = Workload::ALL.into_iter().flat_map(cycle_cells).collect();
    cells.extend(xval_cells());
    for cell in &cells {
        eprintln!("recording {}", cell.id);
        let mut done = run_cycle_cell(cell, class, &mut probe, 0, 1)?;
        if cell.id.starts_with("xval/") {
            done.fields
                .push(("seconds".to_owned(), done.sim_seconds.to_bits()));
        }
        reference.insert(&cell.id, done.fields);
    }
    eprintln!("recording analytic/capture");
    let profile = capture_profile(ANALYTIC_APP, class, ANALYTIC_THREADS);
    reference.insert("analytic/capture", profile_fields(&profile));
    let json = profile.to_json();
    reference.insert(
        "analytic/codec",
        vec![
            ("json_bytes".to_owned(), json.len() as u64),
            ("json_fnv".to_owned(), fnv1a64(json.as_bytes())),
        ],
    );
    profiles().get_or_capture(ANALYTIC_APP, class, ANALYTIC_THREADS, || profile.clone());
    for pt in analytic_points() {
        let rec = Analytic.run(ANALYTIC_APP, class, &pt.builder(), RunOpts::default());
        reference.insert(&pt.id, record_fields(&rec));
    }
    Ok(reference)
}
