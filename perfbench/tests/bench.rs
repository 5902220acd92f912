//! The benchmark's own tests, at class S so they run in seconds: the
//! metric names match `BENCHMARK.json`, a perturbed reference entry is
//! one failed cell and not a crash, and neither the seed nor tracing
//! changes a simulated record.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;

use lpomp_npb::Class;
use lpomp_perfbench::cells::{record_reference, run_pass, Pass, PassOpts, Workload};
use lpomp_perfbench::gate::{Fields, Reference};
use lpomp_perfbench::report::{self, END_TO_END, PER_LAYER};
use lpomp_perfbench::span::Probe;
use lpomp_perfbench::{micro, out_dir};
use lpomp_prof::{parse_json, Json};

/// A class-S reference, recorded once per test process.
fn reference_s() -> &'static Reference {
    static R: OnceLock<Reference> = OnceLock::new();
    R.get_or_init(|| record_reference(Class::S).expect("class S records"))
}

fn scratch(tag: &str) -> PathBuf {
    out_dir().join(format!("test-{tag}-{}", std::process::id()))
}

fn pass(w: Workload, seed: u64, reference: &Reference, probe: &mut Probe) -> Pass {
    let dir = scratch(&format!("{}-{seed}-{}", w.name(), probe.tracing()));
    let o = PassOpts {
        class: Class::S,
        seed,
        setup_reps: 1,
        reference,
        scratch: &dir,
    };
    run_pass(w, &o, probe)
}

fn records(p: &Pass) -> BTreeMap<String, Fields> {
    p.cells
        .iter()
        .map(|c| (c.id.clone(), c.fields.clone()))
        .collect()
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let src = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    parse_json(&src).expect("BENCHMARK.json parses")
}

fn declared(j: &Json, key: &str) -> Vec<(String, String, String)> {
    j.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a `{key}` list"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let j = benchmark_json();
    let own = |defs: &[report::MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()))
            .collect()
    };
    assert_eq!(declared(&j, "end_to_end"), own(&END_TO_END));
    assert_eq!(declared(&j, "per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = declared(&j, "workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, ours);

    // What a run prints: the end-to-end metrics of untraced passes, and
    // every per-layer metric of a traced run.
    let reference = reference_s();
    let untraced = pass(Workload::Cycle2m, 1, reference, &mut Probe::new(false));
    let e2e: Vec<&str> = report::end_to_end(std::slice::from_ref(&untraced))
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(e2e, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
    let mut probe = Probe::new(true);
    let traced = pass(Workload::Cycle2m, 1, reference, &mut probe);
    let layer = report::per_layer(&untraced, &traced, &probe, &micro::run_all(1, 0.02));
    let printed: Vec<&str> = layer.keys().copied().collect();
    let mut declared_names: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    declared_names.sort_unstable();
    assert_eq!(printed, declared_names);
    assert!(layer.values().all(|v| v.is_finite()));
}

#[test]
fn a_perturbed_reference_entry_is_one_failed_cell() {
    let good = reference_s();
    for w in [Workload::Cycle2m, Workload::Analytic] {
        let clean = pass(w, 3, good, &mut Probe::new(false));
        assert_eq!(clean.failed(), 0, "{:?}", clean.cells);
        // Perturb one field of one cell: that cell, and only it, fails,
        // and the pass still runs every other cell.
        let victim = clean.cells[clean.cells.len() / 2].id.clone();
        let line = good
            .render("")
            .lines()
            .find(|l| l.starts_with(&format!("{victim} ")))
            .expect("victim has a reference line")
            .to_owned();
        let (head, last) = line.rsplit_once('=').expect("a field");
        let bumped = format!("{head}={}", last.parse::<u64>().unwrap().wrapping_add(1));
        let bad = Reference::parse(&good.render("").replace(&line, &bumped)).unwrap();
        let p = pass(w, 3, &bad, &mut Probe::new(false));
        assert_eq!(p.attempted(), clean.attempted());
        assert_eq!(p.failed(), 1, "{:?}", p.cells);
        let failed = p.cells.iter().find(|c| c.error.is_some()).unwrap();
        assert_eq!(failed.id, victim);
        assert!(failed
            .error
            .as_ref()
            .unwrap()
            .contains("differs from its reference"));
    }
}

#[test]
fn seeds_and_tracing_leave_simulated_records_identical() {
    let reference = reference_s();
    for w in Workload::ALL {
        let a = pass(w, 1, reference, &mut Probe::new(false));
        let b = pass(w, 2, reference, &mut Probe::new(false));
        let mut probe = Probe::new(true);
        let t = pass(w, 1, reference, &mut probe);
        assert_eq!(a.failed() + b.failed() + t.failed(), 0, "{w:?}");
        assert_eq!(records(&a), records(&b), "{w:?}: seed changed a record");
        assert_eq!(records(&a), records(&t), "{w:?}: tracing changed a record");
        assert!(!probe.spans().is_empty());
        let order = |p: &Pass| p.cells.iter().map(|c| c.id.clone()).collect::<Vec<_>>();
        if a.cells.len() > 2 {
            assert_ne!(order(&a), order(&b), "{w:?}: the seed should permute cells");
        }
    }
}
