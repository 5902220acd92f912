//! Extension **E5**: external fragmentation vs. promotion strategy.
//!
//! The paper's boot-time reservation exists because a long-running
//! system's buddy heap fragments: free memory abounds, free *2 MB blocks*
//! do not. This experiment ages the heap to a chosen severity (the
//! fraction of free order-9 blocks fragmented — each left holding one
//! live, movable 4 KB page) and compares, for CG on the Opteron at 4
//! threads:
//!
//! 1. **2MB preallocated** — the paper's system; reservation happens at
//!    boot, *before* fragmentation, so aging cannot touch it;
//! 2. **one-shot THP** — run on 4 KB pages, then a single stop-the-world
//!    collapse: on an aged heap it finds no order-9 blocks and reports
//!    `blocked` chunks, so the rerun stays at 4 KB speed;
//! 3. **khugepaged + compaction** — the incremental daemon scans at
//!    barriers, migrates the movable pages out of aged blocks
//!    (compaction), collapses chunk by chunk within its cycle budget, and
//!    reaches preallocated-class steady state with no reservation at all.
//!
//! The grid runs through a [`KeyedGrid`], so the sweep-store flags work
//! here too: `--store DIR` replays cached cells, `--shard i/n` /
//! `--merge n` split the grid across processes, `--jsonl FILE` streams
//! cells as they complete.
//!
//! Usage: `cargo run --release -p lpomp-bench --bin ext_frag
//!         [S|W|A] [--store DIR] [--shard i/n | --merge n] [--jsonl FILE]`

use lpomp::prelude::*;
use lpomp_bench::{class_from_args, sweep_cli_from_args};
use lpomp_prof::Json;
use lpomp_vm::{age_heap, PageSize};

const SEVERITIES: [f64; 3] = [0.0, 0.5, 1.0];

struct Aged {
    label: &'static str,
    severity: f64,
    frag_index: f64,
    run1: f64,
    run2: f64,
    misses2: u64,
    blocked: u64,
    collapsed: u64,
    compacted: u64,
    shootdowns: u64,
}

/// One cell of the E5 grid: the unaged preallocated baseline or an aged
/// scenario row. The baseline is stored as a plain record: its config is
/// a Figure-4 grid point, so the two binaries share that cell in a
/// common store.
enum Cell {
    Prealloc(Box<RunRecord>),
    Aged(Aged),
}

impl GridCell for Cell {
    fn to_store_json(&self) -> String {
        match self {
            Cell::Prealloc(r) => r.to_store_json(),
            Cell::Aged(a) => format!(
                "{{\"kind\":\"aged\",\"label\":\"{}\",\"severity\":{},\"frag_index\":{},\
                 \"run1\":{},\"run2\":{},\"misses2\":{},\"blocked\":{},\"collapsed\":{},\
                 \"compacted\":{},\"shootdowns\":{}}}",
                a.label,
                a.severity,
                a.frag_index,
                a.run1,
                a.run2,
                a.misses2,
                a.blocked,
                a.collapsed,
                a.compacted,
                a.shootdowns
            ),
        }
    }

    fn from_store_json(j: &Json, key: &StoreKey) -> Option<Self> {
        let num = |k: &str| j.get(k).and_then(Json::as_num);
        let int = |k: &str| num(k).map(|n| n as u64);
        match j.get("kind").and_then(Json::as_str) {
            None => Some(Cell::Prealloc(Box::new(RunRecord::from_store_json(
                j, key,
            )?))),
            Some("aged") => {
                let label = match j.get("label").and_then(Json::as_str)? {
                    "one-shot THP" => "one-shot THP",
                    "daemon+compaction" => "daemon+compaction",
                    _ => return None,
                };
                Some(Cell::Aged(Aged {
                    label,
                    severity: num("severity")?,
                    frag_index: num("frag_index")?,
                    run1: num("run1")?,
                    run2: num("run2")?,
                    misses2: int("misses2")?,
                    blocked: int("blocked")?,
                    collapsed: int("collapsed")?,
                    compacted: int("compacted")?,
                    shootdowns: int("shootdowns")?,
                }))
            }
            _ => None,
        }
    }
}

/// Build a THP system, age its free memory, and return the system plus
/// the post-aging fragmentation index at order 9.
fn aged_system(builder: &SystemBuilder, kernel: &mut dyn Kernel, severity: f64) -> (System, f64) {
    let mut sys = builder.build(kernel).unwrap();
    let e = sys.team.engine_mut().unwrap();
    age_heap(&mut e.machine.frames, &mut e.aspace, severity).unwrap();
    let frag_index = e
        .machine
        .frames
        .fragmentation_index(PageSize::Large2M.buddy_order());
    (sys, frag_index)
}

/// Scenario 2: one-shot stop-the-world collapse on an aged heap.
fn one_shot(b: &SystemBuilder, app: AppKind, class: Class, severity: f64) -> Aged {
    let mut kernel = app.build(class);
    let (mut sys, frag_index) = aged_system(b, kernel.as_mut(), severity);
    kernel.run(&mut sys.team);
    let run1 = sys.team.elapsed_seconds();
    let report = sys.promote_heap().unwrap();
    sys.team.engine_mut().unwrap().reset_timing();
    kernel.run(&mut sys.team);
    Aged {
        label: "one-shot THP",
        severity,
        frag_index,
        run1,
        run2: sys.team.elapsed_seconds(),
        misses2: sys.team.aggregate_counters().get(Event::DtlbMisses),
        blocked: report.skipped_no_memory,
        collapsed: report.promoted,
        compacted: 0,
        shootdowns: 0,
    }
}

/// Scenario 3: the incremental khugepaged daemon with compaction.
fn daemon(b: &SystemBuilder, app: AppKind, class: Class, severity: f64) -> Aged {
    let mut kernel = app.build(class);
    let (mut sys, frag_index) = aged_system(b, kernel.as_mut(), severity);
    kernel.run(&mut sys.team);
    let run1 = sys.team.elapsed_seconds();
    let agg1 = sys.team.aggregate_counters();
    sys.team.engine_mut().unwrap().reset_timing();
    kernel.run(&mut sys.team);
    Aged {
        label: "daemon+compaction",
        severity,
        frag_index,
        run1,
        run2: sys.team.elapsed_seconds(),
        misses2: sys.team.aggregate_counters().get(Event::DtlbMisses),
        blocked: 0,
        collapsed: agg1.get(Event::PagesCollapsed),
        compacted: agg1.get(Event::PagesCompacted),
        shootdowns: agg1.get(Event::TlbShootdowns),
    }
}

fn main() {
    let class = class_from_args();
    let cli = sweep_cli_from_args();
    let app = AppKind::Cg;
    println!(
        "Extension E5: fragmentation vs promotion strategy ({app}, class {class}, \
         4 threads, Opteron)\n"
    );
    println!(
        "severity = fraction of free 2MB blocks aged before the app starts\n\
         (each aged block keeps one live movable 4KB page; the rest is free)\n"
    );

    // Every cell is an independent system; run the grid in parallel.
    enum Job {
        Prealloc,
        OneShot(f64),
        Daemon(f64),
    }
    let mut jobs = vec![Job::Prealloc];
    for &s in &SEVERITIES {
        jobs.push(Job::OneShot(s));
        jobs.push(Job::Daemon(s));
    }
    let builders: Vec<SystemBuilder> = jobs
        .iter()
        .map(|job| {
            let b = System::builder(opteron_2x2()).threads(4);
            match job {
                Job::Prealloc => b.policy(PagePolicy::Large2M),
                Job::OneShot(_) => b.thp(),
                Job::Daemon(_) => b.thp_daemon(true),
            }
        })
        .collect();
    // Each key comes from the builder its cell runs; the aged cells add
    // the one input outside the config, the heap aged before the run.
    let keys = jobs
        .iter()
        .zip(&builders)
        .map(|(job, b)| {
            let key = StoreKey::for_config(
                app,
                class,
                b.config(),
                RunOpts::default(),
                BackendKind::CycleExact,
            );
            match job {
                Job::Prealloc => key,
                Job::OneShot(s) | Job::Daemon(s) => key.with_variant(&format!("aged:severity={s}")),
            }
        })
        .collect();
    let grid = KeyedGrid::new(keys, |i, _key| {
        let b = &builders[i];
        match jobs[i] {
            Job::Prealloc => {
                Cell::Prealloc(Box::new(run_system(app, class, b, RunOpts::default())))
            }
            Job::OneShot(s) => Cell::Aged(one_shot(b, app, class, s)),
            Job::Daemon(s) => Cell::Aged(daemon(b, app, class, s)),
        }
    });
    let sink = cli.sink();
    let Some(cells) = cli.execute(&grid, sink.as_ref()) else {
        return; // shard mode: the slice and its manifest are in the store
    };

    let mut prealloc = None;
    let mut aged: Vec<Aged> = Vec::new();
    for c in cells {
        match c {
            Cell::Prealloc(r) => prealloc = Some(r),
            Cell::Aged(a) => aged.push(a),
        }
    }
    let prealloc = prealloc.expect("prealloc job ran");

    let mut t = TextTable::new(vec![
        "scenario",
        "severity",
        "frag idx",
        "run 1 (s)",
        "run 2 (s)",
        "dtlb miss 2",
        "blocked",
        "collapsed",
        "compacted",
        "shootdowns",
    ]);
    t.row(vec![
        "2MB preallocated".to_owned(),
        "-".to_owned(),
        "-".to_owned(),
        fnum(prealloc.seconds, 4),
        fnum(prealloc.seconds, 4),
        prealloc.dtlb_misses().to_string(),
        "0".to_owned(),
        "0".to_owned(),
        "0".to_owned(),
        "0".to_owned(),
    ]);
    for a in &aged {
        t.row(vec![
            a.label.to_owned(),
            fnum(a.severity, 1),
            fnum(a.frag_index, 2),
            fnum(a.run1, 4),
            fnum(a.run2, 4),
            a.misses2.to_string(),
            a.blocked.to_string(),
            a.collapsed.to_string(),
            a.compacted.to_string(),
            a.shootdowns.to_string(),
        ]);
    }
    println!("{}", t.render());

    let worst_one_shot = aged
        .iter()
        .find(|a| a.label == "one-shot THP" && a.severity == 1.0)
        .unwrap();
    let worst_daemon = aged
        .iter()
        .find(|a| a.label == "daemon+compaction" && a.severity == 1.0)
        .unwrap();
    println!(
        "At full severity the one-shot collapse is blocked on {} chunks and its\n\
         rerun stays at 4KB speed; the daemon compacts {} pages, collapses {}\n\
         chunks at barriers, and its steady state reaches {}% of the\n\
         preallocated system's speed ({}s vs {}s) with zero boot-time reservation.",
        worst_one_shot.blocked,
        worst_daemon.compacted,
        worst_daemon.collapsed,
        fnum(100.0 * prealloc.seconds / worst_daemon.run2, 1),
        fnum(worst_daemon.run2, 4),
        fnum(prealloc.seconds, 4),
    );
}
