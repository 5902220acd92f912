//! Profile persistence round-trip: a captured reuse profile survives
//! JSON serialization losslessly — not just structurally, but in the
//! strong sense the disk cache relies on: the *analytic predictions*
//! computed from the reloaded profile are byte-identical to those from
//! the original, for every machine preset and page policy. The capture
//! itself is pinned byte for byte and checked against the cycle run it
//! stands in for.

use lpomp::core::store::{fnv1a64, FNV_OFFSET};
use lpomp::core::{capture_profile, PagePolicy, SystemBuilder};
use lpomp::machine::{evaluate, opteron_2x2, xeon_2x2_ht, AnalyticPoint};
use lpomp::npb::{AppKind, Class, ProfileCache};
use lpomp::prof::reuse::{PhaseThread, StreamProfile};
use lpomp::prof::Event;
use lpomp::vm::PageSize;

/// Every (preset × page size × fault mode) evaluation point.
fn all_points(p: &StreamProfile) -> Vec<lpomp::machine::AnalyticResult> {
    let mut out = Vec::new();
    for machine in [opteron_2x2(), xeon_2x2_ht()] {
        for page_size in [PageSize::Small4K, PageSize::Large2M] {
            for demand_faults in [false, true] {
                out.push(evaluate(&AnalyticPoint {
                    profile: p,
                    config: &machine,
                    page_size,
                    demand_faults,
                }));
            }
        }
    }
    out
}

#[test]
fn reloaded_profile_predicts_byte_identically() {
    let profile = capture_profile(AppKind::Cg, Class::S, 2);
    let json = profile.to_json();
    let reloaded = StreamProfile::from_json(&json).expect("own JSON parses");

    // Structural identity…
    assert_eq!(reloaded.app, profile.app);
    assert_eq!(reloaded.class, profile.class);
    assert_eq!(reloaded.threads, profile.threads);
    assert_eq!(reloaded.checksum.to_bits(), profile.checksum.to_bits());
    assert_eq!(reloaded.phases.len(), profile.phases.len());
    // …and serialization is a fixed point.
    assert_eq!(reloaded.to_json(), json);

    // The strong property: identical predictions everywhere. The
    // evaluator accumulates in f64, so "identical" here means bit-exact
    // seconds and equal counter sheets, via AnalyticResult's PartialEq.
    let before = all_points(&profile);
    let after = all_points(&reloaded);
    assert_eq!(before, after);
    assert!(before.iter().all(|r| r.cycles > 0));
}

/// The class-S profiles the capture produces, pinned by JSON length and
/// FNV-1a 64, so a faster capture must keep every byte: every kernel at
/// 4 threads, plus IS (the one kernel that branches on `thread_id` and
/// runs a `single`) at 2 and 8. At 8 threads the capture runs on the
/// Xeon preset (more threads than the Opteron has contexts). These
/// constants change only together with
/// [`ENGINE_VERSION`](lpomp::prof::ENGINE_VERSION).
#[test]
fn captured_profiles_are_pinned_byte_for_byte() {
    let pins = [
        (AppKind::Bt, 4, 9_846, 0xf22e_4688_4c03_ebdd_u64),
        (AppKind::Cg, 4, 37_369, 0x19ae_8449_208f_6a8d),
        (AppKind::Ft, 4, 8_434, 0xc6c1_c567_2781_3203),
        (AppKind::Sp, 4, 28_155, 0x0e75_bbac_af56_8963),
        (AppKind::Mg, 4, 35_364, 0x79a1_1501_3cd9_bb08),
        (AppKind::Ep, 4, 2_937, 0x6ea5_8ab5_5a1f_6b40),
        (AppKind::Is, 4, 8_269, 0x22b9_e357_b43c_6870),
        (AppKind::Lu, 4, 10_509, 0x1d76_3048_991e_9f2b),
        (AppKind::Is, 2, 4_476, 0x668e_0c24_759e_8ea1),
        (AppKind::Is, 8, 15_064, 0x9288_8827_9bb5_f0f3),
        (AppKind::Cg, 8, 70_786, 0xca63_6d11_b0c4_5f83),
    ];
    assert_pinned(Class::S, &pins);
}

/// The five Figure-4 kernels' class-W profiles at 4 threads, pinned like
/// the class-S ones. At class W each thread's line tracker holds 65 536
/// to 525 568 keys in 70 to 611 slot blocks and renumbers its slots many
/// times, which the class-S captures never reach. About 15 s on two
/// CPUs: `cargo test --release --test profile_roundtrip -- --ignored`.
#[test]
#[ignore = "class-W captures; run with --release -- --ignored"]
fn class_w_profiles_are_pinned_byte_for_byte() {
    let pins = [
        (AppKind::Bt, 4, 20_075, 0xa41a_c3d5_4088_6eba_u64),
        (AppKind::Cg, 4, 60_358, 0x2bef_6cd3_0e51_6c6d),
        (AppKind::Ft, 4, 21_985, 0x9876_4c68_d856_c1d2),
        (AppKind::Sp, 4, 42_611, 0xf4da_7db3_e03e_dd50),
        (AppKind::Mg, 4, 62_674, 0x09b3_d9ae_699c_3ac9),
    ];
    assert_pinned(Class::W, &pins);
}

/// Capture each `(app, threads)` at `class` and compare its JSON's
/// (length, FNV-1a 64) with the pin, reporting every drift at once.
fn assert_pinned(class: Class, pins: &[(AppKind, usize, usize, u64)]) {
    let mut drift = Vec::new();
    for &(app, threads, len, fnv) in pins {
        let json = capture_profile(app, class, threads).to_json();
        let got = (json.len(), fnv1a64(FNV_OFFSET, json.as_bytes()));
        if got != (len, fnv) {
            drift.push(format!(
                "{app} {class}@{threads}: {} bytes, FNV {:#018x}; pinned {len} bytes, FNV {fnv:#018x}",
                got.0, got.1
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "captured profiles drifted:\n{}",
        drift.join("\n")
    );
}

/// Per-thread totals a profile recorded, summed over its phases.
fn recorded(p: &StreamProfile, t: usize) -> [u64; 4] {
    let sum = |f: fn(&PhaseThread) -> u64| p.phases.iter().map(|ph| f(&ph.threads[t])).sum();
    [
        sum(|x| x.loads),
        sum(|x| x.stores),
        sum(|x| x.instructions),
        sum(|x| x.ifetches),
    ]
}

/// A capture records exactly what the cycle engine executes: for every
/// kernel at class S, on the preset each thread count captures on, the
/// profile's checksum is the simulated run's bit for bit, and each
/// thread's loads, stores, instructions and instruction fetches summed
/// over phases equal that thread's counters in the simulated run.
#[test]
fn capture_agrees_with_the_cycle_run() {
    let cases = [
        (opteron_2x2(), 1),
        (opteron_2x2(), 2),
        (opteron_2x2(), 4),
        (xeon_2x2_ht(), 8),
    ];
    let mut bad = Vec::new();
    for app in AppKind::ALL {
        for (machine, threads) in &cases {
            let profile = capture_profile(app, Class::S, *threads);
            let mut kernel = app.build(Class::S);
            let mut sys = SystemBuilder::new(machine.clone())
                .policy(PagePolicy::Small4K)
                .threads(*threads)
                .build(kernel.as_mut())
                .expect("class-S system builds");
            let checksum = kernel.run(&mut sys.team);
            let case = format!("{app} S@{threads} on {}", machine.name);
            if profile.checksum.to_bits() != checksum.to_bits() {
                bad.push(format!(
                    "{case}: checksum {} captured, {checksum} simulated",
                    profile.checksum
                ));
            }
            let sim = sys.team.profile().expect("a simulated team");
            for t in 0..*threads {
                let want = [
                    Event::Loads,
                    Event::Stores,
                    Event::Instructions,
                    Event::IFetches,
                ]
                .map(|e| sim.thread(t).get(e));
                let got = recorded(&profile, t);
                if got != want {
                    bad.push(format!(
                        "{case} thread {t}: [loads, stores, instructions, ifetches] \
                         {got:?} captured, {want:?} simulated"
                    ));
                }
            }
        }
    }
    assert!(bad.is_empty(), "capture disagrees:\n{}", bad.join("\n"));
}

#[test]
fn disk_cache_serves_the_same_predictions() {
    // The same property through the ProfileCache disk layer end to end.
    let dir = std::env::temp_dir().join(format!("lpomp-rt-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ProfileCache::with_dir(Some(dir.clone()));
    let captured = cache.get_or_capture(AppKind::Mg, Class::S, 4, || {
        capture_profile(AppKind::Mg, Class::S, 4)
    });

    let cache2 = ProfileCache::with_dir(Some(dir.clone()));
    let reloaded = cache2.get_or_capture(AppKind::Mg, Class::S, 4, || {
        panic!("second cache must load from disk")
    });
    assert_eq!(all_points(&captured), all_points(&reloaded));
    let _ = std::fs::remove_dir_all(&dir);
}
