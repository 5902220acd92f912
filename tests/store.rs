//! End-to-end coverage of the content-addressed sweep store: incremental
//! runs replay byte-identically, resume after interruption re-runs only
//! the missing configs, sharded + merged sweeps equal a single-process
//! run, a warm store turns a repeat sweep into pure file reads, and a
//! record the store cannot round-trip is never served stripped.

use lpomp::core::store::Shard;
use lpomp::core::{JsonlSink, RunStore};
use lpomp::npb::{AppKind, Class};
use lpomp::prelude::*;
use lpomp::prof::parse_json;
use std::path::PathBuf;

/// One incremental pass of `spec`'s grid: `(records, hits, misses)`.
fn incremental(spec: &SweepSpec, store: &RunStore) -> (Vec<RunRecord>, usize, usize) {
    spec.grid()
        .run_incremental(store, default_workers(), None)
        .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lpomp-store-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small cycle-exact grid: 2 apps × 2 policies × 2 thread counts.
fn small_spec() -> SweepSpec {
    SweepSpec {
        apps: vec![AppKind::Cg, AppKind::Ep],
        class: Class::S,
        machines: vec![opteron_2x2()],
        policies: vec![PagePolicy::Small4K, PagePolicy::Large2M],
        threads: vec![1, 4],
        opts: RunOpts::default(),
        backend: BackendKind::CycleExact,
    }
}

#[test]
fn repeated_incremental_run_is_all_hits_with_zero_engine_runs() {
    let dir = temp_dir("rerun");
    let store = RunStore::open(&dir).unwrap();
    let spec = small_spec();
    let n = spec.len();

    let (cold, hits, misses) = incremental(&spec, &store);
    assert_eq!((hits, misses), (0, n), "cold store runs everything");

    // The tentpole guarantee: unchanged code ⇒ zero engine runs. Every
    // config is a hit, and `misses` — which counts exactly the
    // `run_backend` invocations — is zero.
    let (warm, hits, misses) = incremental(&spec, &store);
    assert_eq!((hits, misses), (n, 0), "warm store replays everything");

    // And the replay is byte-identical to both the cold incremental run
    // and a plain in-memory sweep (RunRecord's PartialEq is bit-exact on
    // the f64 fields).
    assert_eq!(warm, cold);
    assert_eq!(warm, spec.run().records());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_sweep_resumes_with_only_missing_configs_rerun() {
    let dir = temp_dir("resume");
    let store = RunStore::open(&dir).unwrap();
    let spec = small_spec();
    let n = spec.len();
    let (full, _, _) = incremental(&spec, &store);

    // Simulate an interrupted sweep: 3 of the records never made it to
    // disk. (Deleting files is exactly the state a killed process leaves,
    // since each record is written as its config completes.)
    let grid = spec.grid();
    let keys = grid.keys();
    for key in [&keys[1], &keys[4], &keys[6]] {
        std::fs::remove_file(dir.join(key.file_name())).unwrap();
    }

    let (resumed, hits, misses) = incremental(&spec, &store);
    assert_eq!((hits, misses), (n - 3, 3), "only the gap re-runs");
    assert_eq!(resumed, full);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_axes_partition_the_store() {
    // Cycle and analytic sweeps of the same grid share a directory
    // without colliding: the backend is part of every key.
    let dir = temp_dir("axes");
    let store = RunStore::open(&dir).unwrap();
    let cycle = small_spec();
    let analytic = small_spec().with_backend(BackendKind::Analytic);
    let n = cycle.len();

    assert_eq!(incremental(&cycle, &store).2, n);
    assert_eq!(incremental(&analytic, &store).2, n);
    // Both warm independently.
    assert_eq!(incremental(&cycle, &store).1, n);
    assert_eq!(incremental(&analytic, &store).1, n);
    assert_eq!(store.len(), 2 * n);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_and_merged_equals_single_process_run_byte_identically() {
    let dir = temp_dir("shards");
    let store = RunStore::open(&dir).unwrap();
    let spec = small_spec();
    let single = spec.run();
    let grid = spec.grid();

    // Run the grid as three cooperating "processes" (any order).
    for index in [2, 0, 1] {
        let shard = Shard { index, count: 3 };
        let m = grid.run_shard(shard, &store, 2, None).unwrap();
        assert_eq!(m.shard, shard);
        assert!(!m.entries.is_empty());
    }
    let merged = grid.merge_shards(&store, 3).unwrap();
    assert_eq!(merged, single.records());

    // Merging with the wrong shard count fails with a diagnostic rather
    // than returning partial results.
    let err = grid.merge_shards(&store, 4).unwrap_err();
    assert!(err.contains("no manifest"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_refuses_incomplete_coverage() {
    let dir = temp_dir("partial");
    let store = RunStore::open(&dir).unwrap();
    let grid = small_spec().grid();
    grid.run_shard(Shard { index: 0, count: 2 }, &store, 2, None)
        .unwrap();
    // Shard 2/2 never ran: its manifest is absent.
    let err = grid.merge_shards(&store, 2).unwrap_err();
    assert!(
        err.contains("shard 2/2") && err.contains("no manifest"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shards_reuse_cached_records_and_jsonl_streams_every_config() {
    let dir = temp_dir("jsonl");
    let store = RunStore::open(&dir).unwrap();
    let spec = small_spec();
    let n = spec.len();
    // Warm the whole grid first…
    incremental(&spec, &store);
    let grid = spec.grid();

    // …then a sharded pass over the warm store: all hits, so the shards
    // are pure bookkeeping, and the JSONL stream still carries one line
    // per covered config, flagged as cached.
    let jsonl = dir.join("sweep.jsonl");
    let sink = JsonlSink::create(&jsonl).unwrap();
    let mut covered = 0;
    for index in 0..2 {
        let m = grid
            .run_shard(Shard { index, count: 2 }, &store, 2, Some(&sink))
            .unwrap();
        covered += m.entries.len();
    }
    drop(sink);
    assert_eq!(covered, n);
    let text = std::fs::read_to_string(&jsonl).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), n, "one line per config");
    for line in &lines {
        let j = parse_json(line).expect("every line is a standalone object");
        assert_eq!(j.get("cached"), Some(&lpomp::prof::Json::Bool(true)));
        assert!(j
            .get("seconds")
            .and_then(lpomp::prof::Json::as_num)
            .is_some());
    }
    assert_eq!(grid.merge_shards(&store, 2).unwrap(), spec.run().records());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profiled_records_never_replay_stripped() {
    // The store drops profiler attachments, so a profiled record is never
    // written: every pass re-runs it and the warm record still carries
    // its regions, equal to the cold one.
    let dir = temp_dir("profiled");
    let store = RunStore::open(&dir).unwrap();
    let builder = System::builder(opteron_2x2())
        .threads(2)
        .profile(ProfileSpec::Regions);
    let grid = KeyedGrid::systems(
        Class::S,
        RunOpts::default(),
        BackendKind::CycleExact,
        vec![(AppKind::Ep, builder)],
    );
    let (cold, _, _) = grid.run_incremental(&store, 1, None).unwrap();
    assert!(cold[0].regions.is_some());
    let (warm, hits, misses) = grid.run_incremental(&store, 1, None).unwrap();
    assert_eq!(warm, cold, "the warm record keeps its regions");
    assert_eq!((hits, misses), (0, 1), "profiled records are never stored");
    assert!(store.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CI observability check (`--ignored`): a warm class-S Figure-4
/// sweep must be at least 10× faster than the cold one that populated
/// the store, with 100% cache hits. Run with
/// `cargo test --release --test store -- --ignored warm_`.
#[test]
#[ignore = "timing assertion; run explicitly (CI cache-warm step)"]
fn warm_store_is_10x_faster_with_full_hits() {
    let dir = temp_dir("warm");
    let store = RunStore::open(&dir).unwrap();
    let spec = SweepSpec::figure4(Class::S);
    let n = spec.len();

    let t0 = std::time::Instant::now();
    let (cold, _, cold_misses) = incremental(&spec, &store);
    let cold_s = t0.elapsed().as_secs_f64();
    assert_eq!(cold_misses, n);

    let t0 = std::time::Instant::now();
    let (warm, hits, misses) = incremental(&spec, &store);
    let warm_s = t0.elapsed().as_secs_f64();
    assert_eq!((hits, misses), (n, 0), "100% cache hits");
    assert_eq!(warm, cold);
    assert!(
        warm_s * 10.0 <= cold_s,
        "warm sweep must be >=10x faster: cold {cold_s:.3}s, warm {warm_s:.3}s"
    );
    eprintln!(
        "cold {cold_s:.3}s, warm {warm_s:.3}s ({:.0}x)",
        cold_s / warm_s
    );
    let _ = std::fs::remove_dir_all(&dir);
}
