//! Profile persistence round-trip: a captured reuse profile survives
//! JSON serialization losslessly — not just structurally, but in the
//! strong sense the disk cache relies on: the *analytic predictions*
//! computed from the reloaded profile are byte-identical to those from
//! the original, for every machine preset and page policy.

use lpomp::core::capture_profile;
use lpomp::machine::{evaluate, opteron_2x2, xeon_2x2_ht, AnalyticPoint};
use lpomp::npb::{AppKind, Class, ProfileCache};
use lpomp::prof::reuse::StreamProfile;
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

/// 64-bit FNV-1a, to pin a profile's JSON by value.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The class-S profiles the capture produces, pinned by JSON length and
/// FNV-1a 64, so a faster capture must keep every byte. CG at 8 threads
/// captures on the Xeon preset (more threads than the Opteron has
/// contexts). These constants change only together with
/// [`ENGINE_VERSION`](lpomp::prof::ENGINE_VERSION).
#[test]
fn captured_profiles_are_pinned_byte_for_byte() {
    let pins = [
        (AppKind::Cg, 4, 37_369, 0x19ae_8449_208f_6a8d_u64),
        (AppKind::Mg, 4, 35_364, 0x79a1_1501_3cd9_bb08),
        (AppKind::Sp, 4, 28_155, 0x0e75_bbac_af56_8963),
        (AppKind::Cg, 8, 70_786, 0xca63_6d11_b0c4_5f83),
    ];
    let mut drift = Vec::new();
    for (app, threads, len, fnv) in pins {
        let json = capture_profile(app, Class::S, threads).to_json();
        let got = (json.len(), fnv1a64(json.as_bytes()));
        if got != (len, fnv) {
            drift.push(format!(
                "{app} S@{threads}: {} bytes, FNV {:#018x}; pinned {len} bytes, FNV {fnv:#018x}",
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
