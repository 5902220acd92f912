//! Properties of the region-attribution profiler at the system level:
//! conservation of every counter across randomized configurations and
//! worker counts, a round-trip of the Chrome trace export through the
//! in-tree JSON parser, and byte pins on the barrier daemons' traces.

use lpomp::core::store::{fnv1a64, FNV_OFFSET};
use lpomp::core::{
    run_system, PagePolicy, PopulatePolicy, ProfileSpec, RunOpts, System, SystemBuilder,
};
use lpomp::machine::{opteron_2x2, NumaConfig, NumaPlacement};
use lpomp::npb::{AppKind, Class};
use lpomp::prof::{parse_json, Event, Json};
use lpomp::vm::{age_heap, NumaDaemonConfig};

/// SplitMix64 (same idiom as `tests/properties.rs`): reproducible
/// test-input generation with no external dependencies.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

fn profiled(
    app: AppKind,
    policy: PagePolicy,
    threads: usize,
    spec: ProfileSpec,
) -> lpomp::core::RunRecord {
    let b = System::builder(opteron_2x2())
        .policy(policy)
        .threads(threads)
        .profile(spec);
    run_system(app, Class::S, &b, RunOpts::default())
}

/// The tentpole invariant, as a property: for randomized (app, policy)
/// configurations at 1, 2 and 4 workers, the per-region counters sum
/// *exactly* to the run's aggregate counters — every event, no slack.
#[test]
fn region_sums_equal_global_counters() {
    let apps = [AppKind::Cg, AppKind::Mg, AppKind::Sp, AppKind::Ep];
    let policies = [PagePolicy::Small4K, PagePolicy::Large2M];
    let mut rng = Rng::new(0x4e91_7a2f);
    for threads in [1usize, 2, 4] {
        for case in 0..3u64 {
            let app = apps[rng.below(apps.len() as u64) as usize];
            let policy = policies[rng.below(2) as usize];
            let r = profiled(app, policy, threads, ProfileSpec::Regions);
            let sheet = r.regions.as_ref().expect("profiled run returns a sheet");
            assert_eq!(
                sheet.total(),
                r.counters,
                "{app} {policy} threads={threads} case={case}: attribution leaked"
            );
            // The run actually exercised attribution: barriers always run,
            // and the annotated kernels contribute their own regions.
            assert!(sheet.by_name("rt:barrier").is_some());
            if matches!(app, AppKind::Cg | AppKind::Mg | AppKind::Sp) {
                let prefix = format!("{}:", app.to_string().to_lowercase());
                let named = (0..sheet.region_count())
                    .filter(|&r| sheet.name(r).starts_with(&prefix))
                    .count();
                assert!(named >= 4, "{app}: only {named} app regions");
            }
        }
    }
}

/// Profiling is observational: the same run with profiling off, on, and
/// tracing produces identical cycles, counters and checksum.
#[test]
fn profiling_is_free_at_every_worker_count() {
    for threads in [1usize, 2, 4] {
        let bare = profiled(AppKind::Cg, PagePolicy::Small4K, threads, ProfileSpec::Off);
        let reg = profiled(
            AppKind::Cg,
            PagePolicy::Small4K,
            threads,
            ProfileSpec::Regions,
        );
        let tr = profiled(
            AppKind::Cg,
            PagePolicy::Small4K,
            threads,
            ProfileSpec::Trace,
        );
        for r in [&reg, &tr] {
            assert_eq!(bare.cycles, r.cycles, "threads={threads}");
            assert_eq!(bare.counters, r.counters, "threads={threads}");
            assert_eq!(bare.checksum, r.checksum, "threads={threads}");
        }
        assert!(bare.regions.is_none() && bare.trace.is_none());
        assert!(reg.trace.is_none());
        assert!(tr.trace.is_some());
    }
}

/// The Chrome trace export round-trips through the in-tree parser and is
/// well-formed: B/E events balance per thread, timestamps are monotone
/// per thread, and every thread carries a `thread_name` metadata record.
#[test]
fn trace_json_round_trips_and_is_well_formed() {
    let r = profiled(AppKind::Sp, PagePolicy::Small4K, 4, ProfileSpec::Trace);
    let text = r.trace.as_ref().expect("tracing run returns JSON");
    let doc = parse_json(text).expect("trace JSON parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut depth = std::collections::HashMap::new();
    let mut last_ts = std::collections::HashMap::new();
    let mut named_threads = std::collections::HashSet::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("ph");
        let tid = ev.get("tid").and_then(Json::as_num).expect("tid") as i64;
        match ph {
            "M" => {
                assert_eq!(ev.get("name").and_then(Json::as_str), Some("thread_name"));
                named_threads.insert(tid);
            }
            "B" | "E" | "i" => {
                let ts = ev.get("ts").and_then(Json::as_num).expect("ts");
                let last = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
                assert!(ts >= *last, "tid {tid}: ts went backwards");
                *last = ts;
                let d = depth.entry(tid).or_insert(0i64);
                match ph {
                    "B" => *d += 1,
                    "E" => {
                        *d -= 1;
                        assert!(*d >= 0, "tid {tid}: E without B");
                    }
                    _ => {}
                }
                // Region names survive the escape/parse round trip.
                let name = ev.get("name").and_then(Json::as_str).expect("name");
                assert!(!name.is_empty());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    for (tid, d) in depth {
        assert_eq!(d, 0, "tid {tid}: unbalanced B/E");
        assert!(named_threads.contains(&tid), "tid {tid} has no thread_name");
    }
}

/// Run one class-S kernel once on `b` (with `ProfileSpec::Trace`),
/// optionally ageing the heap after bring-up, and return its region
/// sheet and trace JSON.
fn daemon_trace(app: AppKind, b: SystemBuilder, aged: bool) -> (lpomp::prof::ProfileSheet, String) {
    let mut kernel = app.build(Class::S);
    let mut sys = b
        .profile(ProfileSpec::Trace)
        .build(kernel.as_mut())
        .expect("system builds");
    if aged {
        let e = sys.team.engine_mut().expect("simulated team");
        age_heap(&mut e.machine.frames, &mut e.aspace, 1.0).expect("heap ages");
    }
    let cs = kernel.run(&mut sys.team);
    assert!(kernel.verify(cs), "{app}: checksum {cs}");
    let sheet = sys.team.region_sheet().expect("profiled run has a sheet");
    assert_eq!(sheet.total(), sys.team.aggregate_counters(), "{app}");
    (sheet, sys.team.trace_json().expect("traced run has JSON"))
}

/// Pins the attribution of the barrier daemons' episodes: khugepaged
/// (with its nested compaction share) on an aged heap, and the NUMA
/// balancer on a first-touch NUMA Opteron. Each region must carry cycles,
/// the timeline must carry the shootdown and migration instants, and the
/// whole trace must keep its exact bytes.
#[test]
fn daemon_episodes_keep_their_attribution() {
    let thp = System::builder(opteron_2x2()).threads(4).thp_daemon(true);
    let mut numa_machine = opteron_2x2();
    numa_machine.numa = Some(NumaConfig::opteron(NumaPlacement::FirstTouch));
    let numa = System::builder(numa_machine)
        .policy(PagePolicy::Small4K)
        .threads(4)
        .populate(PopulatePolicy::OnDemand)
        .numa_daemon(NumaDaemonConfig::default());
    let cases = [
        (
            AppKind::Cg,
            thp,
            true,
            &["os:khugepaged", "os:compaction"][..],
        ),
        (AppKind::Mg, numa, false, &["os:numa"][..]),
    ];
    let mut pins = Vec::new();
    for (app, b, aged, regions) in cases {
        let (sheet, trace) = daemon_trace(app, b, aged);
        for &name in regions {
            let id = sheet
                .by_name(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(sheet.region_total(id).get(Event::Cycles) > 0, "{name}");
        }
        let doc = parse_json(&trace).expect("trace JSON parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let instant = |n: &str| {
            events.iter().any(|e| {
                e.get("name").and_then(Json::as_str) == Some(n)
                    && e.get("ph").and_then(Json::as_str) == Some("i")
            })
        };
        assert!(instant("tlb-shootdown"), "{app}: no shootdown instant");
        if app == AppKind::Mg {
            assert!(instant("numa-migration"), "no migration instant");
        }
        pins.push((trace.len(), fnv1a64(FNV_OFFSET, trace.as_bytes())));
    }
    assert_eq!(
        pins,
        [
            (49_566, 0xa955_09e8_f911_bdde),
            (40_082, 0xa2b1_c7c0_7748_725c)
        ]
    );
}
