//! The performance trajectory (`BENCH_perf.json`) stays well-formed and
//! append-only.
//!
//! Every change that claims or risks host time appends one entry: the
//! parent and change revisions, the host's CPU count and, per benchmark
//! workload, the number of alternating parent/change pairs plus, per
//! end-to-end metric of `BENCHMARK.json`, the median change/parent ratio
//! and the number of pairs the change won. Ratios from alternating pairs
//! survive host drift; absolute seconds from different days do not.
//! Entries are never edited: every entry but the newest must hash to its
//! pin in [`PINS`], and the change that appends an entry pins the one
//! before it.

use lpomp::core::store::{fnv1a64, FNV_OFFSET};
use lpomp::prof::{parse_json, Json};

/// `(pr, FNV-1a 64 of the entry's parsed form)` for every entry but the
/// newest.
const PINS: &[(u64, u64)] = &[
    (18, 0x1b1e_e359_c4f6_bf36),
    (20, 0x5047_66cb_6e07_58df),
    (22, 0x4736_5e2f_a0a0_3936),
];

fn read(name: &str) -> Json {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn members(j: &Json) -> &[(String, Json)] {
    match j {
        Json::Obj(m) => m,
        other => panic!("expected an object, got {other:?}"),
    }
}

/// The entry's pin: a hash of its parsed form, so whitespace is free but
/// every key and value is fixed.
fn pin_of(entry: &Json) -> u64 {
    fnv1a64(FNV_OFFSET, format!("{entry:?}").as_bytes())
}

#[test]
fn bench_perf_entries_are_well_formed_and_append_only() {
    let metrics: Vec<String> = read("BENCHMARK.json")
        .array("end_to_end")
        .expect("BENCHMARK.json lists its end-to-end metrics")
        .iter()
        .map(|m| m.string("name").expect("metric name").to_string())
        .collect();
    let doc = read("BENCH_perf.json");
    let entries = doc.array("entries").expect("entries array");
    assert!(!entries.is_empty(), "trajectory is empty");

    let mut last_pr = 0;
    for entry in entries {
        let pr = entry.uint("pr").expect("pr");
        assert!(pr > last_pr, "pr {pr} does not follow {last_pr}");
        last_pr = pr;
        for rev in ["parent", "change"] {
            let r = entry.string(rev).unwrap_or_else(|e| panic!("pr {pr}: {e}"));
            assert!(
                r.len() >= 7 && r.bytes().all(|b| b.is_ascii_hexdigit()),
                "pr {pr}: {rev} {r:?} is not a git revision"
            );
        }
        assert!(entry.uint("host_cpus").expect("host_cpus") >= 1);
        let workloads = members(entry.member("workloads").expect("workloads"));
        assert!(!workloads.is_empty(), "pr {pr}: no workloads");
        for (name, w) in workloads {
            let pairs = w
                .uint("pairs")
                .unwrap_or_else(|e| panic!("pr {pr} {name}: {e}"));
            assert!(pairs >= 1, "pr {pr} {name}: no pairs");
            for metric in &metrics {
                let at = format!("pr {pr} {name} {metric}");
                let m = w.member(metric).unwrap_or_else(|e| panic!("{at}: {e}"));
                let ratio = m.num("ratio").unwrap_or_else(|e| panic!("{at}: {e}"));
                assert!(ratio.is_finite() && ratio > 0.0, "{at}: ratio {ratio}");
                let wins = m.uint("wins").unwrap_or_else(|e| panic!("{at}: {e}"));
                assert!(wins <= pairs, "{at}: {wins} wins of {pairs} pairs");
            }
        }
    }

    let (newest, older) = entries.split_last().expect("non-empty");
    for entry in older {
        let pr = entry.uint("pr").expect("pr");
        let pin = PINS.iter().find(|&&(p, _)| p == pr).unwrap_or_else(|| {
            panic!(
                "pr {pr} is no longer the newest entry: add ({pr}, {:#018x}) to PINS",
                pin_of(entry)
            )
        });
        assert_eq!(
            pin.1,
            pin_of(entry),
            "pr {pr} was edited (pin {:#018x})",
            pin_of(entry)
        );
    }
    let newest_pr = newest.uint("pr").expect("pr");
    assert!(
        PINS.iter().all(|&(p, _)| p != newest_pr),
        "the newest entry (pr {newest_pr}) is pinned before it has a successor"
    );
}
