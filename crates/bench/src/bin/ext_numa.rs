//! Extension **E3v2**: physical NUMA — placement × page size × page
//! tables on the (two-socket) Opteron platform.
//!
//! The paper's Opteron testbed is NUMA, but the paper treats memory as
//! uniform. With the physical NUMA subsystem (per-node frame pools,
//! first-touch faulting, the balancing daemon, replicated page walks)
//! this experiment asks how placement interacts with page size:
//!
//! * `master-node` — all pages on node 0 (what master-thread startup
//!   initialization gives): threads on chip 1 pay remote latency on
//!   every DRAM access *and* on their page walks;
//! * `interleave-4KB` — fine round-robin striping: balanced on average,
//!   ~50% remote for everyone; physically clamped to 2 MB chunks when
//!   the pages themselves are 2 MB;
//! * `first-touch` — each demand-faulted page lands on the faulting
//!   thread's node: static partitions become node-local;
//! * `first-touch+numad` — first-touch plus the AutoNUMA-style daemon
//!   migrating pages with persistently remote accessors. Here the
//!   paper's granularity trade-off is mechanical: a 2 MB page shared
//!   across nodes can only bounce or stay, while a 4 KB heap gives the
//!   balancer 512× finer placement freedom.
//!
//! The second table isolates the page-*walk* side: PTE fetches from a
//! remote node's DRAM pay the hop too, unless Mitosis-style per-node
//! page-table replication keeps every walk node-local
//! (`NumaConfig::with_replicated_pt`).
//!
//! Every row demand-faults (`OnDemand`): placement, not prefault cost,
//! is under test — and first-touch is only meaningful when the touching
//! thread takes the fault. The grid runs through a [`KeyedGrid`]
//! (`LPOMP_WORKERS` overrides the worker count), so the sweep-store
//! flags work here too: `--store DIR` replays cached cells,
//! `--shard i/n` / `--merge n` split the grid across processes,
//! `--jsonl FILE` streams cells as they complete.
//!
//! Usage: `cargo run --release -p lpomp-bench --bin ext_numa
//!         [S|W|A] [--store DIR] [--shard i/n | --merge n] [--jsonl FILE]`

use lpomp::prelude::*;
use lpomp_bench::{class_from_args, maybe_write_csv, sweep_cli_from_args};
use lpomp_vm::NumaDaemonConfig;

/// One cell of the run grid.
#[derive(Clone, Copy, PartialEq)]
struct Cfg {
    app: AppKind,
    placement: Option<NumaPlacement>,
    daemon: bool,
    replicate: bool,
    policy: PagePolicy,
}

fn label(p: Option<NumaPlacement>, daemon: bool) -> String {
    match (p, daemon) {
        (None, _) => "uniform (paper)".to_owned(),
        (Some(p), false) => p.label().to_owned(),
        (Some(p), true) => format!("{}+numad", p.label()),
    }
}

/// Remote share of all DRAM-reaching references.
fn remote_pct(r: &RunRecord) -> String {
    let local = r.counters.get(Event::LocalDramAccesses);
    let remote = r.counters.get(Event::RemoteDramAccesses);
    if local + remote == 0 {
        "-".to_owned()
    } else {
        format!(
            "{}%",
            fnum(remote as f64 / (local + remote) as f64 * 100.0, 1)
        )
    }
}

/// The system a cell runs. Placement and page-table replication land in
/// the machine via `.numa()`, the daemon and demand faulting in the
/// config, so the cell's store key covers every axis.
fn cell_builder(c: &Cfg) -> SystemBuilder {
    let mut b = System::builder(opteron_2x2())
        .policy(c.policy)
        .threads(4)
        .populate(PopulatePolicy::OnDemand);
    if let Some(p) = c.placement {
        let n = NumaConfig::opteron(p);
        b = b.numa(if c.replicate {
            n.with_replicated_pt()
        } else {
            n
        });
    }
    if c.daemon {
        b = b.numa_daemon(NumaDaemonConfig::default());
    }
    b
}

fn main() {
    let class = class_from_args();
    let cli = sweep_cli_from_args();
    println!(
        "Extension E3v2: physical NUMA -- placement x page size x page tables\n\
         (class {class}, 4 threads, Opteron, demand faulting)\n"
    );
    const APPS: [AppKind; 2] = [AppKind::Mg, AppKind::Cg];
    let placements: [(Option<NumaPlacement>, bool); 5] = [
        (None, false),
        (Some(NumaPlacement::MasterNode), false),
        (Some(NumaPlacement::Interleave4K), false),
        (Some(NumaPlacement::FirstTouch), false),
        (Some(NumaPlacement::FirstTouch), true),
    ];
    let mut grid: Vec<Cfg> = Vec::new();
    for app in APPS {
        for &(placement, daemon) in &placements {
            for replicate in [false, true] {
                if replicate && placement.is_none() {
                    continue; // no page tables to replicate across nodes
                }
                for policy in [PagePolicy::Small4K, PagePolicy::Large2M] {
                    grid.push(Cfg {
                        app,
                        placement,
                        daemon,
                        replicate,
                        policy,
                    });
                }
            }
        }
    }
    let cells = grid.iter().map(|c| (c.app, cell_builder(c))).collect();
    let kgrid = KeyedGrid::systems(class, RunOpts::default(), BackendKind::CycleExact, cells);
    let sink = cli.sink();
    let Some(records) = cli.execute(&kgrid, sink.as_ref()) else {
        return; // shard mode: the slice and its manifest are in the store
    };
    let find = |cfg: Cfg| -> &RunRecord {
        let i = grid.iter().position(|c| *c == cfg).expect("cell in grid");
        &records[i]
    };

    for app in APPS {
        let mut t = TextTable::new(vec![
            "placement",
            "4KB (s)",
            "2MB (s)",
            "2MB gain",
            "rem% 4KB",
            "rem% 2MB",
            "migr 4KB",
            "migr 2MB",
        ]);
        for &(placement, daemon) in &placements {
            let cell = |policy| Cfg {
                app,
                placement,
                daemon,
                replicate: false,
                policy,
            };
            let small = find(cell(PagePolicy::Small4K));
            let large = find(cell(PagePolicy::Large2M));
            t.row(vec![
                label(placement, daemon),
                fnum(small.seconds, 4),
                fnum(large.seconds, 4),
                format!(
                    "{}%",
                    fnum((1.0 - large.seconds / small.seconds) * 100.0, 1)
                ),
                remote_pct(small),
                remote_pct(large),
                small.counters.get(Event::PagesMigrated).to_string(),
                large.counters.get(Event::PagesMigrated).to_string(),
            ]);
        }
        println!("{app}:\n{}", t.render());
        maybe_write_csv(&format!("ext_numa_{app}").to_lowercase(), &t);
    }

    let mut t = TextTable::new(vec![
        "app",
        "placement",
        "4KB shared",
        "4KB repl",
        "2MB shared",
        "2MB repl",
    ]);
    for app in APPS {
        for &(placement, daemon) in &placements[1..] {
            let walk_rem = |replicate, policy| {
                find(Cfg {
                    app,
                    placement,
                    daemon,
                    replicate,
                    policy,
                })
                .counters
                .get(Event::RemoteWalkCycles)
                .to_string()
            };
            t.row(vec![
                app.to_string(),
                label(placement, daemon),
                walk_rem(false, PagePolicy::Small4K),
                walk_rem(true, PagePolicy::Small4K),
                walk_rem(false, PagePolicy::Large2M),
                walk_rem(true, PagePolicy::Large2M),
            ]);
        }
    }
    println!(
        "Remote page-walk cycles, shared vs replicated page tables:\n{}",
        t.render()
    );
    maybe_write_csv("ext_numa_replication", &t);
    println!(
        "(master-node placement makes chip-1 threads fully remote — the\n\
         classic OpenMP first-touch pitfall; interleaving spreads the pain\n\
         at ~50% remote; first-touch makes static partitions node-local and\n\
         beats both. Under first-touch+numad the 4KB heap lets the balancer\n\
         relocate stragglers page by page, while 2MB pages straddle thread\n\
         partitions and can only stay put — placement flexibility is what\n\
         large pages trade away. Replicated page tables zero the remote\n\
         walk cycles without touching checksums.)"
    );
}
