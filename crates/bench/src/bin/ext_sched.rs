//! Extension **E8**: topology-aware hierarchical scheduling with
//! locality-preferring work stealing, negotiated with the NUMA daemon.
//!
//! The paper schedules every loop statically, so large pages only ever
//! fight the TLB. On a workload with a *skewed* iteration profile (the
//! SKEW sawtooth mat-vec: row weight ramps 1 → nzmax within each half,
//! equal totals across halves) static scheduling leaves each node's
//! second thread with almost twice its node-mate's work; plain
//! self-scheduling fixes the imbalance but is topology-blind — rows
//! execute far from the pages they first-touched, and on a NUMA
//! Opteron every stream and gather pays the interconnect, even though
//! the imbalance could have been settled entirely on-node. The
//! hierarchical scheduler starts from the static partition (preserving
//! first-touch affinity), cuts it into per-thread deques, and lets
//! idle threads steal — own node first, remote nodes in larger batches
//! — with two negotiation channels to the memory system, each
//! separately ablatable:
//!
//! * **work-follows-pages** (`-wfp` rows disable it): chunk completion
//!   consumes NUMA hint-fault samples and re-homes chunks toward the
//!   node that actually serves their pages;
//! * **pages-follow-work** (`-pfw` rows disable it): chunk footprints
//!   are published to the NUMA daemon, which weighs them when judging
//!   page migrations, so pages drift toward the work.
//!
//! The grid crosses schedule × page size × daemon on/off at 4 threads
//! under first-touch placement with demand faulting. Watch three
//! things at 4 KB: simulated time (hierarchical beats blind stealing),
//! the steal mix (remote steals collapse to ~0 — the sawtooth balances
//! on-node), and the remote-DRAM share (blind stealing drags streams
//! across the die). At 2 MB the picture inverts instructively: one big
//! page straddles thread partitions, so work-follows-pages re-homes
//! chunks toward wherever the straddling page landed — the `-wfp`
//! ablation wins there, the scheduling cousin of E3v2's "2 MB pages
//! trade away placement flexibility". The engine orders steals by
//! simulated time, so every cell is byte-identical at any
//! `LPOMP_WORKERS`.
//!
//! Usage: `cargo run --release -p lpomp-bench --bin ext_sched
//!         [S|W|A] [--store DIR] [--shard i/n | --merge n] [--jsonl FILE]`

use lpomp::prelude::*;
use lpomp_bench::{class_from_args, maybe_write_csv, sweep_cli_from_args};
use lpomp_prof::Json;
use lpomp_vm::NumaDaemonConfig;

/// Deque chunk granularity (iterations) for dynamic and hierarchical
/// cells: 64 chunks per thread at class W — fine enough to balance the
/// triangular profile, coarse enough that queue traffic stays small.
const CHUNK: usize = 256;

/// The schedule axis.
#[derive(Clone, Copy, PartialEq)]
enum Sched {
    /// OpenMP default: the paper's (imbalanced) baseline.
    Static,
    /// Topology-blind self-scheduling off one shared queue.
    Queue,
    /// Topology-blind work stealing: same deques and chunk costs as the
    /// hierarchical scheduler, but victims in plain id order, steals one
    /// chunk at a time, no negotiation — the baseline the locality
    /// mechanism is measured against.
    Blind,
    /// Hierarchical stealing, both negotiation channels on.
    Hier,
    /// Ablation: no work-follows-pages re-homing.
    HierNoWfp,
    /// Ablation: no pages-follow-work daemon hints.
    HierNoPfw,
}

const SCHEDS: [Sched; 6] = [
    Sched::Static,
    Sched::Queue,
    Sched::Blind,
    Sched::Hier,
    Sched::HierNoWfp,
    Sched::HierNoPfw,
];

impl Sched {
    fn label(self) -> &'static str {
        match self {
            Sched::Static => "static (paper)",
            Sched::Queue => "dynamic (queue)",
            Sched::Blind => "blind stealing",
            Sched::Hier => "hierarchical",
            Sched::HierNoWfp => "hier -wfp",
            Sched::HierNoPfw => "hier -pfw",
        }
    }

    fn apply(self, b: SystemBuilder) -> SystemBuilder {
        let steal = |b: SystemBuilder, pol: StealPolicy| {
            b.schedule(Schedule::Hierarchical { chunk: CHUNK })
                .steal_policy(pol)
        };
        let hier = |b, wfp, pfw| {
            steal(
                b,
                StealPolicy {
                    work_follows_pages: wfp,
                    pages_follow_work: pfw,
                    ..StealPolicy::default()
                },
            )
        };
        match self {
            Sched::Static => b,
            Sched::Queue => b.schedule(Schedule::Dynamic(CHUNK)),
            Sched::Blind => steal(
                b,
                StealPolicy {
                    remote_batch: 1,
                    work_follows_pages: false,
                    pages_follow_work: false,
                    topology_aware: false,
                },
            ),
            Sched::Hier => hier(b, true, true),
            Sched::HierNoWfp => hier(b, false, true),
            Sched::HierNoPfw => hier(b, true, false),
        }
    }
}

/// One cell of the E8 grid.
#[derive(Clone, Copy, PartialEq)]
struct Cfg {
    sched: Sched,
    daemon: bool,
    policy: PagePolicy,
}

/// The measured cell payload (SKEW is not an [`AppKind`], so cells are
/// custom rows rather than [`RunRecord`]s).
struct Row {
    seconds: f64,
    cycles: u64,
    checksum: f64,
    verified: bool,
    steal_local: u64,
    steal_remote: u64,
    rehomes: u64,
    affinity_hits: u64,
    dram_local: u64,
    dram_remote: u64,
    migrated: u64,
}

impl GridCell for Row {
    fn to_store_json(&self) -> String {
        format!(
            "{{\"seconds\":{},\"cycles\":{},\"checksum\":{},\"verified\":{},\
             \"steal_local\":{},\"steal_remote\":{},\"rehomes\":{},\
             \"affinity_hits\":{},\"dram_local\":{},\"dram_remote\":{},\
             \"migrated\":{}}}",
            self.seconds,
            self.cycles,
            self.checksum,
            self.verified,
            self.steal_local,
            self.steal_remote,
            self.rehomes,
            self.affinity_hits,
            self.dram_local,
            self.dram_remote,
            self.migrated
        )
    }

    fn from_store_json(j: &Json, _key: &StoreKey) -> Option<Self> {
        let num = |k: &str| j.get(k).and_then(Json::as_num);
        let int = |k: &str| num(k).map(|n| n as u64);
        Some(Row {
            seconds: num("seconds")?,
            cycles: int("cycles")?,
            checksum: num("checksum")?,
            verified: match j.get("verified")? {
                Json::Bool(b) => *b,
                _ => return None,
            },
            steal_local: int("steal_local")?,
            steal_remote: int("steal_remote")?,
            rehomes: int("rehomes")?,
            affinity_hits: int("affinity_hits")?,
            dram_local: int("dram_local")?,
            dram_remote: int("dram_remote")?,
            migrated: int("migrated")?,
        })
    }
}

/// The system a cell runs: every knob — placement, page size, demand
/// faulting, the daemon, the schedule and its steal policy — is a
/// builder setting, so the cell's store key covers it.
fn cell_builder(c: &Cfg) -> SystemBuilder {
    let mut b = System::builder(opteron_2x2())
        .numa(NumaConfig::opteron(NumaPlacement::FirstTouch))
        .policy(c.policy)
        .threads(4)
        .populate(PopulatePolicy::OnDemand);
    if c.daemon {
        b = b.numa_daemon(NumaDaemonConfig::default());
    }
    c.sched.apply(b)
}

fn run_cell(b: &SystemBuilder, class: Class) -> Row {
    let mut kernel = Skew::new(class);
    let mut sys = b
        .build(&mut kernel)
        .unwrap_or_else(|e| panic!("SKEW {class} system build failed: {e}"));
    let checksum = kernel.run(&mut sys.team);
    let verified = kernel.verify(checksum);
    let cycles = sys.team.elapsed_cycles();
    let seconds = sys.team.engine().unwrap().machine.cost().seconds(cycles);
    let counters = sys.team.aggregate_counters();
    Row {
        seconds,
        cycles,
        checksum,
        verified,
        steal_local: counters.get(Event::LocalSteals),
        steal_remote: counters.get(Event::RemoteSteals),
        rehomes: counters.get(Event::ChunkRehomes),
        affinity_hits: counters.get(Event::AffinityHits),
        dram_local: counters.get(Event::LocalDramAccesses),
        dram_remote: counters.get(Event::RemoteDramAccesses),
        migrated: counters.get(Event::PagesMigrated),
    }
}

fn remote_pct(r: &Row) -> String {
    if r.dram_local + r.dram_remote == 0 {
        "-".to_owned()
    } else {
        format!(
            "{}%",
            fnum(
                r.dram_remote as f64 / (r.dram_local + r.dram_remote) as f64 * 100.0,
                1
            )
        )
    }
}

fn main() {
    let class = class_from_args();
    let cli = sweep_cli_from_args();
    println!(
        "Extension E8: topology-aware hierarchical scheduling on SKEW\n\
         (class {class}, 4 threads, Opteron, first-touch, demand faulting)\n"
    );
    let mut grid: Vec<Cfg> = Vec::new();
    for daemon in [false, true] {
        for sched in SCHEDS {
            for policy in [PagePolicy::Small4K, PagePolicy::Large2M] {
                grid.push(Cfg {
                    sched,
                    daemon,
                    policy,
                });
            }
        }
    }
    // SKEW has no AppKind slot, so the typed app axis is a placeholder
    // and the workload rides in the variant.
    let builders: Vec<SystemBuilder> = grid.iter().map(cell_builder).collect();
    let keys = builders
        .iter()
        .map(|b| {
            StoreKey::for_config(
                AppKind::Cg,
                class,
                b.config(),
                RunOpts::default(),
                BackendKind::CycleExact,
            )
            .with_variant("app=skew")
        })
        .collect();
    let kgrid = KeyedGrid::new(keys, |i, _key| run_cell(&builders[i], class));
    let sink = cli.sink();
    let Some(rows) = cli.execute(&kgrid, sink.as_ref()) else {
        return; // shard mode: the slice and its manifest are in the store
    };
    for (c, r) in grid.iter().zip(&rows) {
        assert!(
            r.verified,
            "SKEW failed verification: sched={} daemon={} policy={}",
            c.sched.label(),
            c.daemon,
            c.policy
        );
    }
    let find = |cfg: Cfg| -> &Row {
        let i = grid.iter().position(|c| *c == cfg).expect("cell in grid");
        &rows[i]
    };

    for daemon in [false, true] {
        let mut t = TextTable::new(vec![
            "schedule",
            "4KB (Mcyc)",
            "2MB (Mcyc)",
            "2MB gain",
            "rem% 4KB",
            "rem% 2MB",
            "steals l/r",
            "rehome",
            "migr",
        ]);
        for sched in SCHEDS {
            let cell = |policy| Cfg {
                sched,
                daemon,
                policy,
            };
            let small = find(cell(PagePolicy::Small4K));
            let large = find(cell(PagePolicy::Large2M));
            t.row(vec![
                sched.label().to_owned(),
                fnum(small.cycles as f64 / 1e6, 3),
                fnum(large.cycles as f64 / 1e6, 3),
                format!(
                    "{}%",
                    fnum((1.0 - large.seconds / small.seconds) * 100.0, 1)
                ),
                remote_pct(small),
                remote_pct(large),
                format!("{}/{}", small.steal_local, small.steal_remote),
                small.rehomes.to_string(),
                small.migrated.to_string(),
            ]);
        }
        let tag = if daemon { "numad on" } else { "numad off" };
        println!("{tag}:\n{}", t.render());
        maybe_write_csv(
            &format!("ext_sched_{}", if daemon { "numad" } else { "base" }),
            &t,
        );
    }

    let pick = |sched, daemon| {
        find(Cfg {
            sched,
            daemon,
            policy: PagePolicy::Small4K,
        })
    };
    let blind = pick(Sched::Blind, true);
    let hier = pick(Sched::Hier, true);
    println!(
        "headline (4KB, numad on): hierarchical {} Mcyc vs blind stealing {} \
         Mcyc ({}% faster); remote steals {} vs {}; remote DRAM {} vs {}",
        fnum(hier.cycles as f64 / 1e6, 3),
        fnum(blind.cycles as f64 / 1e6, 3),
        fnum((1.0 - hier.seconds / blind.seconds) * 100.0, 1),
        hier.steal_remote,
        blind.steal_remote,
        hier.dram_remote,
        blind.dram_remote,
    );
    println!(
        "\n(static gives each node's second thread ~2x its node-mate's work\n\
         and every barrier waits for the heavy pair; the sawtooth keeps\n\
         node totals equal, so all rebalancing could stay on-node. Blind\n\
         stealing hauls chunks across the die anyway — remote streams,\n\
         remote steals, daemon churn — while the hierarchical scheduler\n\
         settles the imbalance with local steals and keeps chunks with\n\
         their first-touch pages. The negotiation runs both ways: chunks\n\
         re-home toward their pages (-wfp ablates this) and pages migrate\n\
         toward their chunks (-pfw ablates this). At 2MB the -wfp ablation\n\
         wins instead: a straddling 2MB page pulls chunks to whichever\n\
         node holds it — large pages trade away scheduling flexibility\n\
         exactly as they trade away placement flexibility in E3v2.)"
    );
}
