//! **Extension E7 — translation architectures**: the Figure-4 scalability
//! grid rerun across page-size ladders the 2007 paper's Opterons did not
//! have. Four machine presets share the Opteron 270's topology, caches
//! and cost model, so the translation architecture is the only variable:
//!
//! * `Opteron270-2x2` — the paper's x86-64 ladder (4 KB, 2 MB);
//! * `ModernX86-2x2` — adds the 1 GB third rung (`Rung(2)`);
//! * `ARM64-2x2-4K` — 4 KB granule with 64 KB contiguous-bit blocks and
//!   2 MB L2 blocks;
//! * `ARM64-2x2-16K` — 16 KB granule with 2 MB contiguous-bit blocks and
//!   32 MB L2 blocks.
//!
//! Every rung of each machine's ladder runs as its own page policy
//! (`PagePolicy::Rung(r)`), so each table has one run-time column per
//! rung plus the improvement of the ladder's *top* rung over the base
//! granule — directly comparable to Figure 4's 4 KB-vs-2 MB column
//! (whose ladder has exactly those two rungs).
//!
//! Usage: `cargo run --release -p lpomp-bench --bin ext_arch [S|W|A]
//! [--backend=cycle|analytic]`, plus the sweep-store flags of
//! [`lpomp_bench::SweepCli`] (`--store`, `--shard i/n`, `--merge n`,
//! `--jsonl FILE`).

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
    println!("Extension E7: Figure-4 scalability across translation architectures (class {class}{tag})\n");

    let machines = [
        opteron_2x2(),
        modern_x86_2x2(),
        arm64_2x2_4k(),
        arm64_2x2_16k(),
    ];
    for machine in machines {
        let arch = machine.arch();
        let ladder = arch.ladder();
        // One policy per rung of this machine's ladder — a per-machine
        // sweep, because a rank is only meaningful against its ladder.
        let policies: Vec<PagePolicy> = (0..ladder.len())
            .map(|r| PagePolicy::Rung(r as u8))
            .collect();
        let spec = SweepSpec {
            apps: AppKind::PAPER_FIVE.to_vec(),
            class,
            machines: vec![machine.clone()],
            policies: policies.clone(),
            threads: figure4_thread_counts(&machine),
            opts: RunOpts::default(),
            backend,
        };
        let Some(results) = cli
            .execute(&spec.grid(), sink.as_ref())
            .map(SweepResults::from)
        else {
            continue; // shard mode: this slice is in the store
        };
        println!(
            "== {} (arch {}: {} ladder) ==\n",
            machine.name,
            arch.descriptor(),
            ladder
                .iter()
                .map(|r| r.size.to_string())
                .collect::<Vec<_>>()
                .join("/")
        );
        for app in AppKind::PAPER_FIVE {
            let mut headers = vec!["machine".to_owned(), "app".to_owned(), "threads".to_owned()];
            for rung in ladder {
                headers.push(format!("{} (s)", rung.size));
            }
            headers.push("improvement".to_owned());
            let mut t = TextTable::new(headers);
            for &n in &spec.threads {
                let mut row = vec![machine.name.to_string(), app.to_string(), n.to_string()];
                let per_rung: Vec<&RunRecord> = policies
                    .iter()
                    .map(|&p| {
                        results
                            .get(app, machine.name, p, n)
                            .expect("grid covers config")
                    })
                    .collect();
                for rec in &per_rung {
                    row.push(fnum(rec.seconds, 3));
                }
                row.push(format!(
                    "{}%",
                    fnum(
                        improvement_pct(per_rung[0], per_rung[per_rung.len() - 1]),
                        1
                    )
                ));
                t.row(row);
            }
            println!("{}", t.render());
            lpomp_bench::maybe_write_csv(
                &format!(
                    "ext_arch_{}_{}",
                    arch.descriptor(),
                    app.name().to_lowercase()
                ),
                &t,
            );
        }
    }
}
