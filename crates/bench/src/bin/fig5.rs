//! Regenerates the paper's **Figure 5**: data-TLB misses at 4 threads on
//! the Opteron, with 4 KB and 2 MB pages, normalized to the 4 KB run of
//! each application.
//!
//! Paper shape: CG, SP and MG are reduced by a factor of 10 or more
//! (normalized 2 MB bars near zero); BT and FT see much smaller
//! reductions.
//!
//! Runs the 5-app × 2-policy grid through the parallel sweep harness
//! (`LPOMP_WORKERS` overrides the worker count); output is identical to
//! the serial loop.
//!
//! Usage: `cargo run --release -p lpomp-bench --bin fig5 [S|W|A]`
//!
//! Sweep-store flags (see [`lpomp_bench::SweepCli`]): `--store DIR`,
//! `--shard i/n`, `--merge n`, `--jsonl FILE`.

use lpomp::prelude::*;
use lpomp_bench::{class_from_args, sweep_cli_from_args};

fn main() {
    let class = class_from_args();
    let cli = sweep_cli_from_args();
    let sink = cli.sink();
    println!("Figure 5: Normalized DTLB misses at 4 threads, Opteron (class {class})\n");
    let spec = SweepSpec {
        apps: AppKind::PAPER_FIVE.to_vec(),
        class,
        machines: vec![opteron_2x2()],
        policies: vec![PagePolicy::Small4K, PagePolicy::Large2M],
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
        "4KB misses",
        "2MB misses",
        "normalized 4KB",
        "normalized 2MB",
        "reduction",
    ]);
    for app in AppKind::PAPER_FIVE {
        let small = results
            .get(app, "Opteron", PagePolicy::Small4K, 4)
            .expect("grid covers config");
        let large = results
            .get(app, "Opteron", PagePolicy::Large2M, 4)
            .expect("grid covers config");
        let n = normalized(small.dtlb_misses(), large.dtlb_misses());
        t.row(vec![
            app.to_string(),
            small.dtlb_misses().to_string(),
            large.dtlb_misses().to_string(),
            "1.00".to_owned(),
            fnum(n.normalized_variant(), 3),
            format!("{}x", fnum(n.reduction_factor(), 1)),
        ]);
    }
    println!("{}", t.render());
    lpomp_bench::maybe_write_csv("fig5", &t);
}
