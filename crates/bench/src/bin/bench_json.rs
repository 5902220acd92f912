//! Harness benchmark: host wall-clock of the paper's Figure 4 sweep,
//! emitted as machine-readable JSON (`BENCH_sweep.json`).
//!
//! Three timed passes over the same grid:
//!
//! 1. the cycle engine on a single worker (the serial baseline);
//! 2. the cycle engine on [`default_workers`] workers (`LPOMP_WORKERS`
//!    overrides) — byte-identical records, asserted here;
//! 3. the analytic backend, after a separately-timed one-time capture
//!    pass — each config entry records its `host_seconds` under both
//!    backends and the per-config `speedup` of analytic evaluation over
//!    cycle simulation (the ISSUE's ≥50× bar at class W).
//!
//! On hosts with a single CPU the parallel speedup is necessarily ~1.0;
//! the JSON carries `host_cpus` so readers can interpret the number. On
//! a 4-core host the class-W sweep is expected to run ≥2× faster in
//! parallel.
//!
//! Usage: `cargo run --release -p lpomp-bench --bin bench_json [S|W|A]`
//! (writes `BENCH_sweep.json` in the current directory).

use std::time::Instant;

use lpomp::prelude::*;
use lpomp_bench::class_from_args;
use lpomp_core::cached_profile;
use lpomp_prof::escape_json;

fn main() {
    let class = class_from_args();
    // The sweep's own cells, run here one by one so each can be timed on
    // the worker that runs it.
    let grid = SweepSpec::figure4(class).cells();

    let workers = default_workers();
    let mut sweeps = Vec::new();
    let mut all_records = Vec::new();
    for &w in &[1, workers] {
        let t0 = Instant::now();
        let timed = par_map(&grid, w, |_, (app, builder)| {
            let r0 = Instant::now();
            let rec = run_system(*app, class, builder, RunOpts::default());
            (rec, r0.elapsed().as_secs_f64())
        });
        let total = t0.elapsed().as_secs_f64();
        all_records.push(timed.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>());
        sweeps.push((w, total, timed));
        eprintln!("workers={w}: {total:.2}s");
    }
    assert_eq!(
        all_records[0], all_records[1],
        "parallel sweep records must be byte-identical to the serial run"
    );

    // Analytic backend: capture once per (app, threads), timed apart so
    // the per-config numbers measure steady-state evaluation.
    let t0 = Instant::now();
    let mut seen = std::collections::BTreeSet::new();
    for (app, builder) in &grid {
        let threads = builder.config().threads;
        if seen.insert((app.name(), threads)) {
            cached_profile(*app, class, threads);
        }
    }
    let capture_total = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let analytic: Vec<(RunRecord, f64)> = grid
        .iter()
        .map(|(app, builder)| {
            let r0 = Instant::now();
            let rec = BackendKind::Analytic
                .backend()
                .run(*app, class, builder, RunOpts::default());
            (rec, r0.elapsed().as_secs_f64())
        })
        .collect();
    let analytic_total = t0.elapsed().as_secs_f64();
    eprintln!("analytic: capture {capture_total:.2}s, evaluate {analytic_total:.3}s");

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (serial_total, parallel_total) = (sweeps[0].1, sweeps[1].1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"fig4_sweep\",\n");
    out.push_str(&format!("  \"class\": \"{class}\",\n"));
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!(
        "  \"serial_workers\": 1,\n  \"parallel_workers\": {workers},\n"
    ));
    out.push_str(&format!(
        "  \"serial_total_seconds\": {serial_total:.3},\n  \"parallel_total_seconds\": {parallel_total:.3},\n"
    ));
    out.push_str(&format!(
        "  \"parallel_speedup\": {:.3},\n",
        serial_total / parallel_total
    ));
    // Per-config backend speedup: serial cycle host time over analytic
    // host time, the like-for-like single-worker comparison.
    let serial_timed = &sweeps[0].2;
    let speedups: Vec<f64> = serial_timed
        .iter()
        .zip(&analytic)
        .map(|((_, cyc_s), (_, ana_s))| cyc_s / ana_s.max(1e-9))
        .collect();
    let mean_speedup = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let min_speedup = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    out.push_str(&format!(
        "  \"analytic_capture_seconds\": {capture_total:.3},\n  \
         \"analytic_total_seconds\": {analytic_total:.6},\n  \
         \"analytic_mean_config_speedup\": {mean_speedup:.1},\n  \
         \"analytic_min_config_speedup\": {min_speedup:.1},\n"
    ));
    out.push_str(&format!(
        "  \"records_identical\": true,\n  \"note\": \"each config is an independent deterministic simulation; \
         worker count changes host time only. Speedup is bounded by host_cpus ({host_cpus} here); \
         a >=2x class-W speedup is expected on >=4 cores. Analytic speedups compare one config's serial \
         cycle simulation against its analytic evaluation, after the one-time capture pass.\",\n"
    ));
    out.push_str("  \"configs\": [\n");
    let (_, _, timed) = &sweeps[1];
    for (i, ((app, builder), (rec, host_s))) in grid.iter().zip(timed.iter()).enumerate() {
        let (ana_rec, ana_s) = &analytic[i];
        let cfg = builder.config();
        let head = format!(
            "\"machine\": \"{}\", \"app\": \"{}\", \"policy\": \"{}\", \"threads\": {}",
            escape_json(cfg.machine.name),
            escape_json(app.name()),
            escape_json(cfg.policy.label()),
            cfg.threads,
        );
        out.push_str(&format!(
            "    {{{head}, \"backend\": \"cycle\", \"host_seconds\": {:.3}, \"sim_seconds\": {:.6}}},\n",
            host_s, rec.seconds,
        ));
        out.push_str(&format!(
            "    {{{head}, \"backend\": \"analytic\", \"host_seconds\": {:.6}, \"sim_seconds\": {:.6}, \
             \"speedup\": {:.1}}}{}\n",
            ana_s,
            ana_rec.seconds,
            speedups[i],
            if i + 1 == grid.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write("BENCH_sweep.json", &out) {
        eprintln!("error: could not write BENCH_sweep.json: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote BENCH_sweep.json: serial {serial_total:.2}s, {workers} workers {parallel_total:.2}s"
    );
}
