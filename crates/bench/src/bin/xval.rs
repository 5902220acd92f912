//! Cross-validates the **analytic backend** against the cycle engine on
//! the full Figure 4 grid: every (machine × app × policy × thread count)
//! cell is evaluated by both backends and the relative errors reported
//! against the declared tolerance bands
//! ([`lpomp_core::XVAL_SECONDS_BAND_PCT`] /
//! [`lpomp_core::XVAL_DTLB_BAND_PCT`]).
//!
//! Both backends are deterministic, so this output is a golden
//! (`results/xval_W.txt`): the measured errors are part of the repo's
//! regression surface, not just a pass/fail bit. The process exits
//! nonzero if any cell leaves its band.
//!
//! Usage: `cargo run --release -p lpomp-bench --bin xval [S|W|A]`
//!
//! Sweep-store flags (see [`lpomp_bench::SweepCli`]): `--store DIR`,
//! `--shard i/n`, `--merge n`, `--jsonl FILE`. The binary runs *two*
//! sweeps (cycle-exact and analytic) with distinct sweep ids; shard and
//! merge handle both, sharing one store directory.

use lpomp::prelude::*;
use lpomp_bench::{class_from_args, sweep_cli_from_args};
use lpomp_core::{
    xval_dtlb_err_pct, xval_seconds_err_pct, XVAL_DTLB_BAND_PCT, XVAL_SECONDS_BAND_PCT,
};

fn main() {
    let class = class_from_args();
    let cli = sweep_cli_from_args();
    let sink = cli.sink();
    println!("Cross-validation: analytic backend vs cycle engine, Figure 4 grid (class {class})\n");
    let spec = SweepSpec::figure4(class);
    let exact = cli.execute(&spec.grid(), sink.as_ref());
    let fast = cli.execute(
        &spec.clone().with_backend(BackendKind::Analytic).grid(),
        sink.as_ref(),
    );
    let (Some(exact), Some(fast)) = (exact, fast) else {
        return; // shard mode: both sweeps' slices are in the store
    };

    let mut t = TextTable::new(vec![
        "machine",
        "app",
        "policy",
        "threads",
        "cycle (s)",
        "analytic (s)",
        "time err",
        "cycle dtlb",
        "analytic dtlb",
        "dtlb err",
    ]);
    let mut worst_time = (0.0f64, String::new());
    let mut worst_dtlb = (0.0f64, String::new());
    for (e, a) in exact.iter().zip(&fast) {
        assert!(
            e.app == a.app
                && e.machine == a.machine
                && e.policy == a.policy
                && e.threads == a.threads,
            "grids must align"
        );
        let te = xval_seconds_err_pct(a.seconds, e.seconds);
        let de = xval_dtlb_err_pct(a.dtlb_misses(), e.dtlb_misses());
        let tag = format!(
            "{} {} {} {}t",
            e.machine,
            e.app,
            e.policy.label(),
            e.threads
        );
        if te > worst_time.0 {
            worst_time = (te, tag.clone());
        }
        if de > worst_dtlb.0 {
            worst_dtlb = (de, tag);
        }
        t.row(vec![
            e.machine.to_string(),
            e.app.to_string(),
            e.policy.label().to_string(),
            e.threads.to_string(),
            fnum(e.seconds, 3),
            fnum(a.seconds, 3),
            format!("{}%", fnum(te, 2)),
            e.dtlb_misses().to_string(),
            a.dtlb_misses().to_string(),
            format!("{}%", fnum(de, 2)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "worst run-time error:  {}% at {} (band {}%)",
        fnum(worst_time.0, 2),
        worst_time.1,
        fnum(XVAL_SECONDS_BAND_PCT, 1)
    );
    println!(
        "worst DTLB-miss error: {}% at {} (band {}%)",
        fnum(worst_dtlb.0, 2),
        worst_dtlb.1,
        fnum(XVAL_DTLB_BAND_PCT, 1)
    );
    let pass = worst_time.0 <= XVAL_SECONDS_BAND_PCT && worst_dtlb.0 <= XVAL_DTLB_BAND_PCT;
    println!("{}", if pass { "PASS" } else { "FAIL" });
    lpomp_bench::maybe_write_csv(&format!("xval_{class}"), &t);
    if !pass {
        std::process::exit(1);
    }
}
