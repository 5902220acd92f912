//! Regenerates the paper's **Figure 4**: run time vs thread count for BT,
//! CG, FT, SP, MG on the Opteron (1, 2, 4 threads) and Xeon (1, 2, 4, 8
//! threads with hyper-threading), each with 4 KB and 2 MB pages.
//!
//! The whole grid is executed up front by the parallel sweep harness
//! (`LPOMP_WORKERS` overrides the worker count), then rendered in the
//! original order — the tables are byte-identical to the serial runner.
//!
//! Usage: `cargo run --release -p lpomp-bench --bin fig4 [S|W|A]
//! [--backend=cycle|analytic]` — the analytic backend replays cached
//! reuse profiles (one capture per app × thread count) instead of
//! simulating every cell; golden output is the cycle-exact default.
//!
//! Sweep-store flags (see [`lpomp_bench::SweepCli`]): `--store DIR`
//! runs incrementally against a content-addressed result store (a
//! repeat run on unchanged code replays every record from disk),
//! `--shard i/n` runs one slice of the grid into the shared store,
//! `--merge n` assembles the shards, and `--jsonl FILE` streams one
//! record line per configuration as it completes.

use lpomp::prelude::*;
use lpomp_bench::{backend_from_args, class_from_args, improvement_pct, sweep_cli_from_args};

fn main() {
    let class = class_from_args();
    let backend = backend_from_args();
    let cli = sweep_cli_from_args();
    let sink = cli.sink();
    let tag = match backend {
        BackendKind::CycleExact => String::new(),
        other => format!(", backend {other}"),
    };
    println!("Figure 4: scalability with 4KB vs 2MB pages (class {class}{tag})\n");
    let spec = SweepSpec::figure4(class).with_backend(backend);
    let Some(results) = cli
        .execute(&spec.grid(), sink.as_ref())
        .map(SweepResults::from)
    else {
        return; // shard mode: this slice is in the store; nothing to render
    };
    for machine in [opteron_2x2(), xeon_2x2_ht()] {
        let threads = figure4_thread_counts(&machine);
        for app in AppKind::PAPER_FIVE {
            let mut t = TextTable::new(vec![
                "machine",
                "app",
                "threads",
                "4KB (s)",
                "2MB (s)",
                "improvement",
                "speedup 4KB",
                "speedup 2MB",
            ]);
            let mut base = (0.0f64, 0.0f64);
            for &n in &threads {
                let small = results
                    .get(app, machine.name, PagePolicy::Small4K, n)
                    .expect("grid covers config");
                let large = results
                    .get(app, machine.name, PagePolicy::Large2M, n)
                    .expect("grid covers config");
                if n == 1 {
                    base = (small.seconds, large.seconds);
                }
                t.row(vec![
                    machine.name.to_string(),
                    app.to_string(),
                    n.to_string(),
                    fnum(small.seconds, 3),
                    fnum(large.seconds, 3),
                    format!("{}%", fnum(improvement_pct(small, large), 1)),
                    fnum(base.0 / small.seconds, 2),
                    fnum(base.1 / large.seconds, 2),
                ]);
            }
            println!("{}", t.render());
            lpomp_bench::maybe_write_csv(
                &format!(
                    "fig4_{}_{}",
                    machine.name.to_lowercase(),
                    app.name().to_lowercase()
                ),
                &t,
            );
        }
    }
}
