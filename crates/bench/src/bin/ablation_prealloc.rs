//! Ablation **A1**: startup preallocation vs demand faulting of the
//! large-page shared heap — the §3.3 design decision.
//!
//! The paper argues that because an OpenMP job owns its node, the runtime
//! should prefault the entire shared region at startup: the faults move
//! out of the timed region and the allocator stays trivial. This ablation
//! quantifies it: with `OnDemand`, every first touch during the run pays
//! a page-fault (and the walk behind it); with `Prefault` the run itself
//! takes zero faults.
//!
//! The populate policy is a [`SystemBuilder`] axis outside `SweepSpec`,
//! so the eight runs fan out with [`lpomp_core::par_map`] directly
//! (`LPOMP_WORKERS` overrides the worker count).
//!
//! Usage: `cargo run --release -p lpomp-bench --bin ablation_prealloc [S|W|A]`

use lpomp::prelude::*;
use lpomp_bench::class_from_args;

fn main() {
    let class = class_from_args();
    println!("Ablation A1: preallocation vs demand faulting (class {class}, CG + MG, 4 threads, Opteron)\n");
    let mut t = TextTable::new(vec![
        "app",
        "pages",
        "populate",
        "run time (s)",
        "faults in run",
        "fault cycles",
        "slowdown",
    ]);
    let grid: Vec<(AppKind, PagePolicy)> = [AppKind::Cg, AppKind::Mg]
        .into_iter()
        .flat_map(|app| {
            [PagePolicy::Small4K, PagePolicy::Large2M]
                .into_iter()
                .map(move |policy| (app, policy))
        })
        .collect();
    let pairs = par_map(&grid, default_workers(), |_, &(app, policy)| {
        let run = |populate| {
            let b = System::builder(opteron_2x2())
                .policy(policy)
                .threads(4)
                .populate(populate);
            run_system(app, class, &b, RunOpts::default())
        };
        (run(PopulatePolicy::Prefault), run(PopulatePolicy::OnDemand))
    });
    let fault_cost = opteron_2x2().cost.page_fault;
    for (&(app, policy), (pre, lazy)) in grid.iter().zip(&pairs) {
        for (label, r) in [("prefault", pre), ("on-demand", lazy)] {
            t.row(vec![
                app.to_string(),
                policy.to_string(),
                label.to_owned(),
                fnum(r.seconds, 4),
                r.counters.get(Event::PageFaults).to_string(),
                r.counters
                    .get(Event::PageFaults)
                    .saturating_mul(fault_cost)
                    .to_string(),
                format!("{}%", fnum((r.seconds / pre.seconds - 1.0) * 100.0, 2)),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "(The paper's choice: preallocate at startup — the faults leave the\n\
         timed region entirely, and a batch HPC node has the memory to spare.\n\
         Note how 2MB pages need 512x fewer faults even on demand: large\n\
         pages also amortize fault overhead, a secondary benefit.)"
    );
}
