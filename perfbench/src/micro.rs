//! Per-layer microbenchmarks: each figure is a timed loop over one public
//! function, on inputs built here from the seed. A figure is the median
//! over [`BATCHES`] batches; state a call consumes (a fault, a collapse,
//! an aged heap) is rebuilt before each batch, outside the timing.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use lpomp_core::backend::profiles;
use lpomp_core::{
    capture_profile, Analytic, Backend, BackendKind, PagePolicy, RunOpts, RunRecord, RunStore,
    StoreKey, SystemBuilder,
};
use lpomp_machine::{opteron_2x2, AccessMode, Cache, DataKind, Machine, MachineConfig};
use lpomp_npb::{AppKind, Class};
use lpomp_prof::reuse::{ReuseTracker, StreamProfile, ThreadRecorder, MODE_LATENCY, MODE_STREAM};
use lpomp_prof::Counters;
use lpomp_runtime::Schedule;
use lpomp_tlb::{Tlb, TlbOutcome};
use lpomp_vm::{
    age_heap, AccessKind, AddressSpace, Backing, BuddyAllocator, DaemonCosts, HintSamples,
    Khugepaged, KhugepagedConfig, NodePolicy, NumaDaemon, NumaDaemonConfig, PageSize, Populate,
    PteFlags, VirtAddr,
};

use crate::cells::{analytic_points, numa_opteron, ANALYTIC_APP, ANALYTIC_THREADS};
use crate::{high_percentile, median, SplitMix};

/// Timed batches per figure.
pub const BATCHES: usize = 5;

const MB: u64 = 1 << 20;
const PAGE: u64 = 4096;

/// Median over batches of nanoseconds per operation; `run` returns the
/// operations it performed.
fn ns_per_op(mut run: impl FnMut() -> u64) -> f64 {
    let v: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let ops = run();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median(&v)
}

/// Median over `batches` batches of nanoseconds per operation, with
/// state rebuilt by `setup` before each batch; `run` times its own
/// operations and returns (seconds, operations).
fn timed_fresh<S>(
    batches: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S) -> (f64, u64),
) -> f64 {
    let v: Vec<f64> = (0..batches)
        .map(|_| {
            let mut s = setup();
            let (secs, ops) = run(&mut s);
            secs * 1e9 / ops.max(1) as f64
        })
        .collect();
    median(&v)
}

/// [`ns_per_op`] with state rebuilt by `setup` before each batch,
/// outside the timing.
fn ns_per_op_fresh<S>(setup: impl FnMut() -> S, mut run: impl FnMut(&mut S) -> u64) -> f64 {
    timed_fresh(BATCHES, setup, |s| {
        let t = Instant::now();
        let ops = run(s);
        (t.elapsed().as_secs_f64(), ops)
    })
}

fn opteron_costs() -> DaemonCosts {
    let c = opteron_2x2().cost;
    DaemonCosts {
        scan_page: c.l1_hit + 2,
        migrate_page: c.migrate_page,
        pt_edit: c.pt_edit,
    }
}

/// A fresh allocator and address space with one anonymous region.
fn mapped(
    ram: u64,
    len: u64,
    size: PageSize,
    populate: Populate,
) -> (BuddyAllocator, AddressSpace, VirtAddr) {
    let mut frames = BuddyAllocator::new(ram);
    let mut asp = AddressSpace::new(&mut frames).expect("fresh allocator has room for page tables");
    let base = asp
        .mmap(
            &mut frames,
            len,
            size,
            PteFlags::rw(),
            Backing::Anonymous,
            populate,
            "bench",
        )
        .expect("region fits the allocator");
    (frames, asp, base)
}

/// `n` seeded page-aligned offsets below `len`.
fn page_offsets(rng: &mut SplitMix, n: usize, len: u64) -> Vec<u64> {
    (0..n).map(|_| rng.below(len / PAGE) * PAGE).collect()
}

/// A machine with one eagerly mapped region of `len` bytes on `size`
/// pages.
fn machine_region(
    cfg: MachineConfig,
    len: u64,
    size: PageSize,
) -> (Machine, AddressSpace, VirtAddr) {
    let mut m = Machine::new(cfg);
    let arch = m.config().arch();
    let mut asp = AddressSpace::new_for(&mut m.frames, arch).expect("fresh machine has room");
    if let Some(n) = &m.config().numa {
        asp.set_node_policy(n.nodes, NodePolicy::Fixed(0));
    }
    let base = asp
        .mmap(
            &mut m.frames,
            len,
            size,
            PteFlags::rw(),
            Backing::Anonymous,
            Populate::Eager,
            "bench",
        )
        .expect("region fits the machine");
    (m, asp, base)
}

fn tlb(f: &mut BTreeMap<String, f64>, rng: &mut SplitMix, scale: f64) {
    let cfg = opteron_2x2().dtlb;
    let n = scaled(1 << 20, scale);
    let mut t = Tlb::new(cfg.clone());
    let resident: Vec<VirtAddr> = (0..8)
        .map(|_| VirtAddr(rng.below(1 << 18) * PAGE))
        .collect();
    for &va in &resident {
        t.fill(va, PageSize::Small4K);
    }
    f.insert(
        "tlb.lookup_hit_ns".into(),
        ns_per_op(|| {
            for i in 0..n {
                black_box(t.lookup(resident[i & 7]));
            }
            n as u64
        }),
    );
    // A stream of distinct pages far beyond the TLB's reach: every lookup
    // misses and is followed by a fill.
    let pages = scaled(1 << 16, scale) as u64;
    let base = rng.below(1 << 20) * PAGE;
    let mut t = Tlb::new(cfg);
    f.insert(
        "tlb.lookup_miss_ns".into(),
        ns_per_op(|| {
            for i in 0..pages {
                let va = VirtAddr(base + i * PAGE);
                if t.lookup(va) == TlbOutcome::Miss {
                    t.fill(va, PageSize::Small4K);
                }
            }
            pages
        }),
    );
}

fn vm(f: &mut BTreeMap<String, f64>, rng: &mut SplitMix, scale: f64) {
    let len = 64 * MB;
    for (name, size) in [
        ("vm.walk_ns", PageSize::Small4K),
        ("vm.walk_2m_ns", PageSize::Large2M),
    ] {
        let (mut frames, mut asp, base) = mapped(512 * MB, len, size, Populate::Eager);
        let offs = page_offsets(rng, scaled(1 << 16, scale), len);
        f.insert(
            name.into(),
            ns_per_op(|| {
                for &o in &offs {
                    black_box(
                        asp.access(&mut frames, base.add(o), AccessKind::Read)
                            .is_ok(),
                    );
                }
                offs.len() as u64
            }),
        );
    }
    // Demand faults: every page of a fresh on-demand region, touched once
    // in a seeded order.
    let fault_len = scaled(8192, scale) as u64 * PAGE;
    let mut order: Vec<u64> = (0..fault_len / PAGE).map(|p| p * PAGE).collect();
    rng.shuffle(&mut order);
    f.insert(
        "vm.fault_ns".into(),
        ns_per_op_fresh(
            || mapped(256 * MB, fault_len, PageSize::Small4K, Populate::OnDemand),
            |(frames, asp, base)| {
                for &o in &order {
                    black_box(
                        asp.access_from(frames, base.add(o), AccessKind::Write, None)
                            .is_ok(),
                    );
                }
                order.len() as u64
            },
        ),
    );
    f.insert(
        "vm.prefault_ns_per_page".into(),
        ns_per_op_fresh(
            || {
                let mut frames = BuddyAllocator::new(256 * MB);
                let asp = AddressSpace::new(&mut frames).expect("fresh allocator has room");
                (frames, asp)
            },
            |(frames, asp)| {
                asp.mmap(
                    frames,
                    fault_len,
                    PageSize::Small4K,
                    PteFlags::rw(),
                    Backing::Anonymous,
                    Populate::Eager,
                    "bench",
                )
                .expect("region fits");
                fault_len / PAGE
            },
        ),
    );
    let costs = opteron_costs();
    // khugepaged: budgeted scans over a fresh, fully populated 4 KB
    // region until the daemon goes idle.
    let scan_len = scaled(64, scale).max(4) as u64 * MB;
    f.insert(
        "vm.khugepaged_scan_us".into(),
        ns_per_op_fresh(
            || {
                let (frames, asp, _) =
                    mapped(512 * MB, scan_len, PageSize::Small4K, Populate::Eager);
                (frames, asp, Khugepaged::new(KhugepagedConfig::default()))
            },
            |(frames, asp, d)| {
                let mut scans = 0;
                while !d.is_idle() && scans < 10_000 {
                    black_box(d.scan(asp, frames, &costs).is_ok());
                    scans += 1;
                }
                scans
            },
        ) / 1e3,
    );
    // NUMA daemon: each scan judges a fresh batch of hint samples that
    // point every sampled page at the remote node.
    let numa_pages = scaled(4096, scale) as u64;
    let scans = 16;
    let batches: Vec<Vec<u64>> = (0..scans)
        .map(|_| page_offsets(rng, numa_pages as usize, numa_pages * PAGE))
        .collect();
    f.insert(
        "vm.numa_scan_us".into(),
        timed_fresh(
            BATCHES,
            || {
                let mut frames = BuddyAllocator::with_nodes(512 * MB, 2);
                let mut asp = AddressSpace::new(&mut frames).expect("fresh allocator has room");
                asp.set_node_policy(2, NodePolicy::Fixed(0));
                let base = asp
                    .mmap(
                        &mut frames,
                        numa_pages * PAGE,
                        PageSize::Small4K,
                        PteFlags::rw(),
                        Backing::Anonymous,
                        Populate::Eager,
                        "bench",
                    )
                    .expect("region fits");
                (
                    frames,
                    asp,
                    base,
                    NumaDaemon::new(NumaDaemonConfig::default()),
                )
            },
            |(frames, asp, base, d)| {
                let mut timed = 0.0;
                for batch in &batches {
                    let mut h = HintSamples::new();
                    for &o in batch {
                        for _ in 0..4 {
                            h.record(base.0 + o, 1);
                        }
                    }
                    d.absorb(h);
                    let t = Instant::now();
                    black_box(d.scan(asp, frames, &costs).is_ok());
                    timed += t.elapsed().as_secs_f64();
                }
                (timed, scans)
            },
        ) / 1e3,
    );
    // Aging the Opteron's whole heap, as the daemons workload does; three
    // batches, since one call takes most of a second.
    f.insert(
        "vm.age_heap_ms".into(),
        timed_fresh(
            3,
            || {
                let mut frames = BuddyAllocator::new(opteron_2x2().ram_bytes);
                let asp = AddressSpace::new(&mut frames).expect("fresh allocator has room");
                (frames, asp)
            },
            |(frames, asp)| {
                let t = Instant::now();
                black_box(age_heap(frames, asp, 1.0).is_ok());
                (t.elapsed().as_secs_f64(), 1)
            },
        ) / 1e6,
    );
}

fn machine(f: &mut BTreeMap<String, f64>, rng: &mut SplitMix, scale: f64) {
    let l1 = opteron_2x2().l1d;
    let n = scaled(1 << 20, scale);
    let mut c = Cache::new(l1);
    let hot: Vec<u64> = (0..8).map(|_| rng.below(1 << 24) * 64).collect();
    for &a in &hot {
        c.access(a);
    }
    f.insert(
        "machine.cache_hit_ns".into(),
        ns_per_op(|| {
            for i in 0..n {
                black_box(c.access(hot[i & 7]));
            }
            n as u64
        }),
    );
    // A line-stride stream over 8x the capacity: every access misses.
    let lines = 8 * l1.capacity_bytes / 64;
    let base = rng.below(1 << 20) * PAGE;
    f.insert(
        "machine.cache_miss_ns".into(),
        ns_per_op(|| {
            for i in 0..lines {
                black_box(c.access(base + i * 64));
            }
            lines
        }),
    );
    // The page-stride loop: one store per 4 KB of a region far beyond the
    // TLB reach, on 4 KB and on 2 MB pages.
    let len = scaled(64, scale).max(4) as u64 * MB;
    for (name, size) in [
        ("machine.stride_4k_ns", PageSize::Small4K),
        ("machine.stride_2m_ns", PageSize::Large2M),
    ] {
        let (mut m, mut asp, base) = machine_region(opteron_2x2(), len, size);
        let mut counters = Counters::new();
        let start = rng.below(len / PAGE);
        f.insert(
            name.into(),
            ns_per_op(|| {
                let pages = len / PAGE;
                for p in 0..pages {
                    let va = base.add(((start + p) % pages) * PAGE);
                    black_box(
                        m.data_access(
                            &mut asp,
                            0,
                            va,
                            DataKind::Write,
                            AccessMode::Pipelined,
                            &mut counters,
                        )
                        .is_ok(),
                    );
                }
                pages
            }),
        );
    }
    // Streamed lines through `data_access_run`, on a plain machine and on
    // a NUMA machine with hint sampling (the region lives on node 0, the
    // streaming core on node 1).
    let stream = scaled(8, scale).max(1) as u64 * MB;
    for (name, cfg, core) in [
        ("machine.stream_line_ns", opteron_2x2(), 0),
        ("machine.stream_line_numa_ns", numa_opteron(), 2),
    ] {
        let numa = cfg.numa.is_some();
        let (mut m, mut asp, base) = machine_region(cfg, 4 * stream, PageSize::Small4K);
        if numa {
            m.enable_hint_sampling();
        }
        let mut counters = Counters::new();
        let mut clock = 0;
        let off = rng.below(3 * stream / PAGE) * PAGE;
        f.insert(
            name.into(),
            ns_per_op(|| {
                black_box(
                    m.data_access_run(
                        &mut asp,
                        core,
                        base.add(off),
                        stream,
                        DataKind::Read,
                        AccessMode::Stream,
                        &mut counters,
                        &mut clock,
                    )
                    .is_ok(),
                );
                stream / 64
            }),
        );
        black_box(m.drain_hint_samples());
    }
}

fn runtime(f: &mut BTreeMap<String, f64>, scale: f64) {
    let mut kernel = AppKind::Ep.build(Class::S);
    let mut sys = SystemBuilder::new(numa_opteron())
        .threads(4)
        .build(kernel.as_mut())
        .expect("EP class S fits the Opteron");
    let team = &mut sys.team;
    let n = scaled(1 << 16, scale);
    f.insert(
        "runtime.barrier_ns".into(),
        ns_per_op(|| {
            for _ in 0..n {
                team.barrier();
            }
            n as u64
        }),
    );
    const ITERS: usize = 4096;
    const CHUNK: usize = 16;
    let loops = scaled(64, scale);
    for (name, sched) in [
        ("runtime.chunk_static_ns", Schedule::StaticChunk(CHUNK)),
        ("runtime.chunk_dynamic_ns", Schedule::Dynamic(CHUNK)),
        (
            "runtime.chunk_hier_ns",
            Schedule::Hierarchical { chunk: CHUNK },
        ),
    ] {
        f.insert(
            name.into(),
            ns_per_op(|| {
                for _ in 0..loops {
                    team.parallel_for(0..ITERS, sched, &|_, _| {});
                }
                (loops * ITERS / CHUNK) as u64
            }),
        );
    }
}

/// References a profile recorded: data accesses plus instruction fetches.
fn profile_refs(p: &StreamProfile) -> u64 {
    p.phases
        .iter()
        .flat_map(|ph| &ph.threads)
        .map(|t| t.loads + t.stores + t.ifetches)
        .sum()
}

fn prof(f: &mut BTreeMap<String, f64>, rng: &mut SplitMix, scale: f64) -> StreamProfile {
    let n = scaled(1 << 16, scale);
    let base = rng.below(1 << 20) * PAGE;
    let stream: Vec<u64> = (0..n as u64).map(|i| base + 8 * i).collect();
    // A random gather over a class-W-sized footprint.
    let footprint = 64 * MB;
    let gather: Vec<u64> = (0..n)
        .map(|_| base + rng.below(footprint / 8) * 8)
        .collect();
    for (name, addrs, mode) in [
        ("prof.recorder_stream_ns", &stream, MODE_STREAM),
        ("prof.recorder_gather_ns", &gather, MODE_LATENCY),
    ] {
        f.insert(
            name.into(),
            ns_per_op_fresh(ThreadRecorder::new, |r| {
                for &a in addrs {
                    r.data(a, false, mode);
                }
                addrs.len() as u64
            }),
        );
    }
    let keys: Vec<u64> = gather.iter().map(|a| a / 64).collect();
    f.insert(
        "prof.reuse_access_ns".into(),
        ns_per_op_fresh(ReuseTracker::new, |t| {
            for &k in &keys {
                black_box(t.access(k));
            }
            keys.len() as u64
        }),
    );
    // Capture and codec on the class-S profile of the analytic workload's
    // kernel (one cold capture: the profile is the input to what follows).
    let t = Instant::now();
    let profile = capture_profile(ANALYTIC_APP, Class::S, ANALYTIC_THREADS);
    let secs = t.elapsed().as_secs_f64();
    f.insert(
        "prof.capture_ns_per_ref".into(),
        secs * 1e9 / profile_refs(&profile).max(1) as f64,
    );
    let json = profile.to_json();
    f.insert("prof.profile_json_kb".into(), json.len() as f64 / 1024.0);
    f.insert(
        "prof.profile_to_json_ms".into(),
        ns_per_op(|| {
            black_box(profile.to_json());
            1
        }) / 1e6,
    );
    f.insert(
        "prof.profile_from_json_ms".into(),
        ns_per_op(|| {
            black_box(StreamProfile::from_json(&json).is_ok());
            1
        }) / 1e6,
    );
    profile
}

/// Warm `Analytic` evaluations over the analytic workload's grid (on the
/// class-S profile), and the store's key, save and load.
fn core(f: &mut BTreeMap<String, f64>, profile: StreamProfile, scale: f64) {
    profiles().get_or_capture(ANALYTIC_APP, Class::S, ANALYTIC_THREADS, || profile);
    let points = analytic_points();
    let rounds = scaled(40, scale).max(1);
    let mut us = Vec::new();
    let mut last = None;
    for _ in 0..rounds {
        for pt in &points {
            let b = pt.builder();
            let t = Instant::now();
            let rec = Analytic.run(ANALYTIC_APP, Class::S, &b, RunOpts::default());
            us.push(t.elapsed().as_secs_f64() * 1e6);
            last = Some((b, rec));
        }
    }
    f.insert("eval_p50_us".into(), median(&us));
    let p99 =
        high_percentile(&us).map_or_else(|| us.iter().cloned().fold(0.0, f64::max), |(_, v)| v);
    f.insert("eval_p99_us".into(), p99);

    let (b, rec): (SystemBuilder, RunRecord) = last.expect("the grid has points");
    let cfg = b.config();
    let key = || {
        StoreKey::new(
            &cfg.machine,
            ANALYTIC_APP,
            Class::S,
            PagePolicy::Rung(0),
            cfg.threads,
            RunOpts::default(),
            BackendKind::Analytic,
        )
    };
    let n = scaled(2000, scale);
    f.insert(
        "core.store_key_us".into(),
        ns_per_op(|| {
            for _ in 0..n {
                black_box(key());
            }
            n as u64
        }) / 1e3,
    );
    let dir = crate::out_dir().join(format!("micro-store-{}", std::process::id()));
    let store = RunStore::open(&dir).expect("scratch store directory can be created");
    let k = key();
    let n = scaled(200, scale);
    f.insert(
        "core.store_save_us".into(),
        ns_per_op(|| {
            for _ in 0..n {
                black_box(store.save(&k, &rec).is_ok());
            }
            n as u64
        }) / 1e3,
    );
    f.insert(
        "core.store_load_us".into(),
        ns_per_op(|| {
            for _ in 0..n {
                black_box(store.load(&k));
            }
            n as u64
        }) / 1e3,
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(1)
}

/// Every microbenchmark figure, by metric name. `scale` shrinks the
/// loops (1.0 for the benchmark, less in tests).
pub fn run_all(seed: u64, scale: f64) -> BTreeMap<String, f64> {
    let mut rng = SplitMix::new(seed ^ 0x6d69_6372_6f62_656e);
    let mut f = BTreeMap::new();
    tlb(&mut f, &mut rng, scale);
    vm(&mut f, &mut rng, scale);
    machine(&mut f, &mut rng, scale);
    runtime(&mut f, scale);
    let profile = prof(&mut f, &mut rng, scale);
    core(&mut f, profile, scale);
    f
}
