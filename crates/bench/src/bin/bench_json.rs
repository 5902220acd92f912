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
use lpomp_prof::JsonWriter;

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
    let mut w = JsonWriter::with_capacity(64 * 1024);
    w.obj(|w| {
        w.key("bench").str("fig4_sweep");
        w.key("class").str(&class.to_string());
        w.key("host_cpus").uint(host_cpus as u64);
        w.key("serial_workers").uint(1);
        w.key("parallel_workers").uint(workers as u64);
        w.key("serial_total_seconds").num(serial_total);
        w.key("parallel_total_seconds").num(parallel_total);
        w.key("parallel_speedup").num(serial_total / parallel_total);
        w.key("analytic_capture_seconds").num(capture_total);
        w.key("analytic_total_seconds").num(analytic_total);
        w.key("analytic_mean_config_speedup").num(mean_speedup);
        w.key("analytic_min_config_speedup").num(min_speedup);
        w.key("records_identical").bool(true);
        w.key("note").str(&format!(
            "each config is an independent deterministic simulation; worker count changes \
             host time only. Speedup is bounded by host_cpus ({host_cpus} here); a >=2x \
             class-W speedup is expected on >=4 cores. Analytic speedups compare one \
             config's serial cycle simulation against its analytic evaluation, after the \
             one-time capture pass."
        ));
        w.key("configs").arr(|w| {
            let (_, _, timed) = &sweeps[1];
            for (i, ((app, builder), (rec, host_s))) in grid.iter().zip(timed).enumerate() {
                let (ana_rec, ana_s) = &analytic[i];
                let cfg = builder.config();
                let head = |w: &mut JsonWriter, backend: &str, host_s: f64, sim_s: f64| {
                    w.key("machine").str(cfg.machine.name);
                    w.key("app").str(app.name());
                    w.key("policy").str(cfg.policy.label());
                    w.key("threads").uint(cfg.threads as u64);
                    w.key("backend").str(backend);
                    w.key("host_seconds").num(host_s);
                    w.key("sim_seconds").num(sim_s);
                };
                w.obj(|w| head(w, "cycle", *host_s, rec.seconds));
                w.obj(|w| {
                    head(w, "analytic", *ana_s, ana_rec.seconds);
                    w.key("speedup").num(speedups[i]);
                });
            }
        });
    });
    let out = w.finish() + "\n";
    if let Err(e) = std::fs::write("BENCH_sweep.json", &out) {
        eprintln!("error: could not write BENCH_sweep.json: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote BENCH_sweep.json: serial {serial_total:.2}s, {workers} workers {parallel_total:.2}s"
    );
}
