//! Randomized property tests on the core data structures and invariants,
//! spanning crates.
//!
//! Formerly written with `proptest`; now driven by a local SplitMix64
//! generator so the tier-1 suite builds with no external dependencies
//! (and every case is reproducible from its printed seed).

use std::collections::HashMap;

use lpomp::runtime::{plan, Mailbox, Plan, Schedule, ShVec};
use lpomp::tlb::{Assoc, TlbArray};
use lpomp::vm::{
    AccessKind, AddressSpace, Backing, BuddyAllocator, PageSize, Populate, PteFlags, VirtAddr,
};

/// SplitMix64: tiny, fast, and statistically fine for test-input
/// generation (not used by any simulated component).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform f64 in `[lo, hi)`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + u * (hi - lo)
    }
}

// ---------------------------------------------------------------- buddy

/// Random alloc/free sequences: no overlap between live blocks, free
/// bytes account exactly, and freeing everything restores the heap.
#[test]
fn buddy_allocator_invariants() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(0xb0dd * 7919 + seed);
        let total = 16 * 1024 * 1024u64;
        let mut buddy = BuddyAllocator::new(total);
        let mut live: Vec<(u64, u8)> = Vec::new();
        let n_ops = 1 + rng.below(119) as usize;
        for _ in 0..n_ops {
            let op = rng.below(2) as u8;
            let order = rng.below(6) as u8;
            if op == 0 || live.is_empty() {
                if let Ok(pa) = buddy.alloc(order) {
                    // natural alignment
                    assert_eq!(pa.0 % (4096u64 << order), 0, "seed {seed}");
                    // no overlap with any live block
                    let len = 4096u64 << order;
                    for &(base, o) in &live {
                        let blen = 4096u64 << o;
                        assert!(
                            pa.0 + len <= base || base + blen <= pa.0,
                            "seed {seed} overlap: new [{:#x},{len}) vs live [{:#x},{blen})",
                            pa.0,
                            base
                        );
                    }
                    live.push((pa.0, order));
                }
            } else {
                let idx = (order as usize) % live.len();
                let (base, o) = live.swap_remove(idx);
                buddy.free(lpomp::vm::PhysAddr(base), o);
            }
            let live_bytes: u64 = live.iter().map(|&(_, o)| 4096u64 << o).sum();
            assert_eq!(buddy.free_bytes(), total - live_bytes, "seed {seed}");
        }
        for (base, o) in live.drain(..) {
            buddy.free(lpomp::vm::PhysAddr(base), o);
        }
        assert_eq!(buddy.free_bytes(), total, "seed {seed}");
    }
}

/// Every schedule covers every iteration exactly once.
#[test]
fn schedules_cover_exactly_once() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(0x5ced * 104729 + seed);
        let start = rng.below(1000) as usize;
        let len = rng.below(2000) as usize;
        let threads = 1 + rng.below(8) as usize;
        let chunk = 1 + rng.below(63) as usize;
        let sched = match rng.below(5) {
            0 => Schedule::Static,
            1 => Schedule::StaticChunk(chunk),
            2 => Schedule::Dynamic(chunk),
            3 => Schedule::Guided(chunk),
            _ => Schedule::Hierarchical { chunk },
        };
        let p = plan(start..start + len, threads, sched);
        let mut seen = vec![0u8; start + len];
        let chunks = match &p {
            Plan::Fixed(per) | Plan::Hier(per) => per.iter().flatten().cloned().collect::<Vec<_>>(),
            Plan::Queue(q) => q.clone(),
        };
        for c in chunks {
            assert!(c.start >= start && c.end <= start + len, "seed {seed}");
            for i in c {
                seen[i] += 1;
            }
        }
        for (i, &count) in seen.iter().enumerate().take(start + len).skip(start) {
            assert_eq!(
                count, 1,
                "seed {seed}: iteration {i} covered {count} times ({sched:?})"
            );
        }
    }
}

/// The TLB array behaves exactly like a reference LRU model (MRU-first
/// vectors, one per set) under lookups, fills and invalidations: fully
/// associative arrays of 1–8 entries, then 1–8 sets of 1–4 ways.
#[test]
fn tlb_array_matches_reference_lru() {
    for seed in 0..128u64 {
        let mut rng = Rng::new(0x71b * 31337 + seed);
        let (sets, ways, assoc) = if seed < 64 {
            let capacity = 1 + rng.below(8) as u16;
            (1, capacity, Assoc::Full)
        } else {
            let ways = 1 + rng.below(4) as u16;
            (1u16 << rng.below(4), ways, Assoc::Ways(ways))
        };
        let mut tlb = TlbArray::new(PageSize::Small4K, sets * ways, assoc);
        // Reference: per-set vectors of vpns, MRU at the front.
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
        let n = 1 + rng.below(299);
        for step in 0..n {
            let vpn = rng.below(32);
            let set = &mut model[(vpn % u64::from(sets)) as usize];
            let pos = set.iter().position(|&v| v == vpn);
            let at = format!("seed {seed} step {step}: vpn {vpn}");
            assert_eq!(tlb.probe(vpn), pos.is_some(), "{at}: probe");
            assert_eq!(tlb.is_mru(vpn), pos == Some(0), "{at}: is_mru");
            if rng.below(8) == 0 {
                assert_eq!(tlb.invalidate(vpn), pos.is_some(), "{at}: invalidate");
                if let Some(p) = pos {
                    set.remove(p);
                }
            } else if let Some(p) = pos {
                assert!(tlb.lookup(vpn), "{at}: lookup should hit");
                let v = set.remove(p);
                set.insert(0, v);
            } else {
                assert!(!tlb.lookup(vpn), "{at}: lookup should miss");
                let evicted = (set.len() == usize::from(ways)).then(|| set.pop().unwrap());
                set.insert(0, vpn);
                assert_eq!(tlb.fill(vpn), evicted, "{at}: fill");
            }
            let live: usize = model.iter().map(Vec::len).sum();
            assert_eq!(tlb.occupancy(), live, "{at}: occupancy");
        }
    }
}

/// ShVec stores every written value at the right index.
#[test]
fn shvec_random_writes_read_back() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(0x5bec * 65537 + seed);
        let v: ShVec<f64> = ShVec::new(64, VirtAddr(0x1000));
        let mut model: HashMap<usize, f64> = HashMap::new();
        let writes = rng.below(200);
        for _ in 0..writes {
            let i = rng.below(64) as usize;
            // Include non-finite values: NaN payloads must round-trip too.
            let val = match rng.below(16) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => rng.f64_in(-1e300, 1e300),
            };
            v.set_raw(i, val);
            model.insert(i, val);
        }
        for (i, val) in model {
            let got = v.get_raw(i);
            assert!(
                got == val || (got.is_nan() && val.is_nan()),
                "seed {seed}: index {i}: {got} != {val}"
            );
        }
    }
}

/// Mailbox channels are FIFO for arbitrary message contents.
#[test]
fn mailbox_is_fifo() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(0x3a11 * 49999 + seed);
        let msgs: Vec<Vec<u8>> = (0..1 + rng.below(31))
            .map(|_| {
                let len = rng.below(64) as usize;
                (0..len).map(|_| rng.below(256) as u8).collect()
            })
            .collect();
        let mb = Mailbox::new(2);
        for m in &msgs {
            mb.try_send(0, 1, m).unwrap();
        }
        for m in &msgs {
            let got = mb.recv(0, 1);
            assert_eq!(&got, m, "seed {seed}");
        }
    }
}

// ---------------------------------------------------------------- vm

/// Map random pages, then every mapped address translates and every
/// unmapped address faults; unmapping restores the fault.
#[test]
fn page_table_translation_consistency() {
    for seed in 0..24u64 {
        let mut rng = Rng::new(0x9a9e * 15485863 + seed);
        let pages: std::collections::BTreeSet<u64> =
            (0..1 + rng.below(39)).map(|_| rng.below(512)).collect();
        let mut frames = BuddyAllocator::new(64 * 1024 * 1024);
        let mut asp = AddressSpace::new(&mut frames).unwrap();
        let base = 0x4000_0000u64;
        // Map one 4 KB page region per selected page number.
        for &p in &pages {
            asp.mmap_fixed(
                &mut frames,
                VirtAddr(base + p * 4096),
                4096,
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::Eager,
                "p",
            )
            .unwrap();
        }
        for p in 0u64..512 {
            let va = VirtAddr(base + p * 4096 + (p % 4096));
            let r = asp.access(&mut frames, va, AccessKind::Read);
            assert_eq!(r.is_ok(), pages.contains(&p), "seed {seed}: page {p}");
        }
        // Translations of distinct pages hit distinct frames.
        let mut seen = std::collections::HashSet::new();
        for &p in &pages {
            let va = VirtAddr(base + p * 4096);
            let t = asp
                .access(&mut frames, va, AccessKind::Read)
                .unwrap()
                .translation();
            assert!(seen.insert(t.pa.0), "seed {seed}: frame reused at page {p}");
        }
    }
}

/// THP promotion never breaks translation: after promoting a random
/// subset-populated region, every previously mapped page still
/// translates (now possibly via a 2 MB leaf) and unpopulated pages
/// still fault.
#[test]
fn promotion_preserves_translations() {
    for seed in 0..24u64 {
        use lpomp::vm::promote_region;
        let mut rng = Rng::new(0x7a9 * 32452843 + seed);
        let mut touched: std::collections::BTreeSet<u64> =
            (0..1 + rng.below(199)).map(|_| rng.below(1024)).collect();
        // Occasionally force a fully-touched chunk so the promoted case is
        // exercised (random subsets of 1024 rarely cover 512 pages).
        if seed % 3 == 0 {
            touched.extend(0..512u64);
        }
        let mut frames = BuddyAllocator::new(64 * 1024 * 1024);
        let mut asp = AddressSpace::new(&mut frames).unwrap();
        let base = asp
            .mmap(
                &mut frames,
                2 * 2 * 1024 * 1024, // two 2 MB chunks of 4 KB pages
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::OnDemand,
                "heap",
            )
            .unwrap();
        for &p in &touched {
            asp.access(&mut frames, base.add(p * 4096), AccessKind::Write)
                .unwrap();
        }
        let report = promote_region(&mut asp, &mut frames, base).unwrap();
        // A chunk is promoted iff all of its 512 pages were touched.
        let chunk_full = |c: u64| (c * 512..(c + 1) * 512).all(|p| touched.contains(&p));
        let expected = (0..2).filter(|&c| chunk_full(c)).count() as u64;
        assert_eq!(report.promoted, expected, "seed {seed}");
        for p in 0u64..1024 {
            let va = base.add(p * 4096);
            let in_promoted = chunk_full(p / 512);
            let r = asp.access(&mut frames, va, AccessKind::Read);
            if in_promoted {
                let t = r.unwrap().translation();
                assert_eq!(t.size, PageSize::Large2M, "seed {seed}: page {p}");
            } else if touched.contains(&p) {
                let t = r.unwrap().translation();
                assert_eq!(t.size, PageSize::Small4K, "seed {seed}: page {p}");
            } else {
                // Untouched page in an unpromoted chunk: demand fault
                // resolves it (OnDemand region), so access succeeds too —
                // but it must be a *fault*, not an existing mapping.
                assert!(r.unwrap().faulted(), "seed {seed}: page {p}");
            }
        }
    }
}

/// Physical NUMA properties of the node-aware buddy allocator: every
/// frame's home node is in range, node-targeted allocation lands on the
/// requested node while it has memory, and an allocated block of any
/// order never straddles a node boundary — so a page's home is a
/// property of the page alone (what the machine layer's cached
/// micro-TLB home relies on).
#[test]
fn numa_nodes_in_range_and_blocks_node_uniform() {
    use lpomp::vm::{BuddyAllocator, PhysAddr};
    for seed in 0..24u64 {
        let mut rng = Rng::new(0x17a * 49979687 + seed);
        let nodes = 2 + rng.below(3) as usize; // 2..=4
        let mb = 16 * (1 + rng.below(8)); // 16..=128 MB
        let mut frames = BuddyAllocator::with_nodes(mb * 1024 * 1024, nodes);
        assert_eq!(frames.nodes(), nodes);
        for _ in 0..64 {
            let node = rng.below(nodes as u64) as usize;
            let order = rng.below(10) as u8;
            let Ok(pa) = frames.alloc_on_node(node, order) else {
                continue;
            };
            let home = frames.node_of(pa);
            assert!(home < nodes, "seed {seed}: node out of range");
            // Every address inside the block lives on one node.
            let last = PhysAddr(pa.0 + (4096u64 << order) - 1);
            assert_eq!(
                home,
                frames.node_of(last),
                "seed {seed}: block straddles a node boundary"
            );
        }
    }
}

/// Twin-system equivalence: the same kernel on a system with the
/// khugepaged daemon and on one without it produces bit-identical
/// checksums, and afterwards every virtual page carries the same
/// presence and protection (writable / executable) bits. The daemon may
/// change page *sizes* and physical placement — never program-visible
/// semantics. (Accessed/dirty are excluded: collapse OR-combines them
/// across a chunk by design.)
#[test]
fn khugepaged_twin_systems_are_semantically_identical() {
    use lpomp::core::System;
    use lpomp::machine::opteron_2x2;
    use lpomp::npb::{AppKind, Class};

    for (app, threads) in [(AppKind::Cg, 4), (AppKind::Mg, 2)] {
        let run_twin = |daemon: bool| {
            let mut kernel = app.build(Class::S);
            let builder = System::builder(opteron_2x2()).threads(threads);
            let builder = if daemon {
                builder.thp_daemon(true)
            } else {
                builder.thp()
            };
            let mut sys = builder.build(kernel.as_mut()).unwrap();
            let checksum = kernel.run(&mut sys.team);
            (checksum, sys)
        };
        let (cs_off, sys_off) = run_twin(false);
        let (cs_on, sys_on) = run_twin(true);
        assert_eq!(
            cs_off.to_bits(),
            cs_on.to_bits(),
            "{app}: daemon changed the checksum"
        );
        let off = sys_off.team.engine().unwrap();
        let on = sys_on.team.engine().unwrap();
        // The comparison below is only meaningful if the daemon really
        // rewrote mappings while the kernel ran.
        assert!(
            on.daemon().unwrap().totals().collapsed > 0,
            "{app}: daemon never collapsed anything — twin test is vacuous"
        );
        // Identical region layout...
        let spans = |e: &lpomp::runtime::SimEngine| -> Vec<(u64, u64)> {
            e.aspace.vmas().iter().map(|v| (v.start.0, v.len)).collect()
        };
        assert_eq!(spans(off), spans(on), "{app}: VMA layout diverged");
        // ...and identical per-page permissions, page by page.
        for &(start, len) in &spans(off) {
            for off_bytes in (0..len).step_by(4096) {
                let va = VirtAddr(start + off_bytes);
                let perms = |t: Option<lpomp::vm::Translation>| {
                    t.map(|t| (t.flags.present, t.flags.writable, t.flags.executable))
                };
                assert_eq!(
                    perms(off.aspace.page_table().probe(va)),
                    perms(on.aspace.page_table().probe(va)),
                    "{app}: permissions diverged at {va:?}"
                );
            }
        }
    }
}

/// The NUMA machinery (first-touch placement, the balancing daemon,
/// replicated page tables) is a pure performance layer: a run with all
/// of it enabled computes bit-for-bit the same checksum as a plain
/// NUMA run, over the same VMA layout, with identical per-page
/// permissions. Only cycle counts may differ.
#[test]
fn numa_daemon_twin_systems_are_semantically_identical() {
    use lpomp::core::{PagePolicy, PopulatePolicy, System};
    use lpomp::machine::{opteron_2x2, NumaConfig, NumaPlacement};
    use lpomp::npb::{AppKind, Class};
    use lpomp::vm::NumaDaemonConfig;

    // MG's block-partitioned grids give the daemon node-dominated pages
    // to migrate; CG's shared sparse vectors are accessed from both
    // nodes, so the daemon judges them but (correctly) leaves them put.
    for (app, threads, placement, expect_migrate) in [
        (AppKind::Mg, 4, NumaPlacement::FirstTouch, true),
        (AppKind::Cg, 4, NumaPlacement::MasterNode, false),
    ] {
        let run_twin = |daemon: bool| {
            let mut machine = opteron_2x2();
            let numa = NumaConfig::opteron(placement);
            machine.numa = Some(if daemon {
                numa.with_replicated_pt()
            } else {
                numa
            });
            let mut builder = System::builder(machine)
                .policy(PagePolicy::Small4K)
                .threads(threads)
                .populate(PopulatePolicy::OnDemand);
            if daemon {
                builder = builder.numa_daemon(NumaDaemonConfig::default());
            }
            let mut kernel = app.build(Class::S);
            let mut sys = builder.build(kernel.as_mut()).unwrap();
            let checksum = kernel.run(&mut sys.team);
            (checksum, sys)
        };
        let (cs_off, sys_off) = run_twin(false);
        let (cs_on, sys_on) = run_twin(true);
        assert_eq!(
            cs_off.to_bits(),
            cs_on.to_bits(),
            "{app}: NUMA daemon/replication changed the checksum"
        );
        let off = sys_off.team.engine().unwrap();
        let on = sys_on.team.engine().unwrap();
        // Meaningful only if the daemon actually did something: either
        // it migrated pages, or it at least judged remote-majority pages
        // (CG's genuinely shared pages are kept put by design).
        let totals = on.numa_daemon().unwrap().totals();
        if expect_migrate {
            assert!(
                totals.migrated > 0,
                "{app}: daemon never migrated a page — twin test is vacuous"
            );
        } else {
            assert!(
                totals.migrated + totals.stuck_shared > 0,
                "{app}: daemon never judged a page — twin test is vacuous"
            );
        }
        let spans = |e: &lpomp::runtime::SimEngine| -> Vec<(u64, u64)> {
            e.aspace.vmas().iter().map(|v| (v.start.0, v.len)).collect()
        };
        assert_eq!(spans(off), spans(on), "{app}: VMA layout diverged");
        for &(start, len) in &spans(off) {
            for off_bytes in (0..len).step_by(4096) {
                let va = VirtAddr(start + off_bytes);
                let perms = |t: Option<lpomp::vm::Translation>| {
                    t.map(|t| (t.flags.present, t.flags.writable, t.flags.executable))
                };
                assert_eq!(
                    perms(off.aspace.page_table().probe(va)),
                    perms(on.aspace.page_table().probe(va)),
                    "{app}: permissions diverged at {va:?}"
                );
            }
        }
    }
}

/// Reductions over random data agree between native engine runs with
/// different schedules (within floating-point reassociation).
#[test]
fn native_reductions_schedule_independent() {
    use lpomp::runtime::{Reduction, Team};
    for seed in 0..24u64 {
        let mut rng = Rng::new(0x2ed * 86028121 + seed);
        let data: Vec<f64> = (0..1 + rng.below(499))
            .map(|_| rng.f64_in(-1000.0, 1000.0))
            .collect();
        let chunk = 1 + rng.below(31) as usize;
        let v: ShVec<f64> = ShVec::from_fn(data.len(), VirtAddr(0x1000), |i| data[i]);
        let mut results = Vec::new();
        for sched in [
            Schedule::Static,
            Schedule::Dynamic(chunk),
            Schedule::Guided(chunk),
        ] {
            let mut team = Team::native(3);
            let s = team.parallel_for_reduce(0..data.len(), sched, Reduction::Max, &|_, r| {
                r.map(|i| v.get_raw(i)).fold(f64::NEG_INFINITY, f64::max)
            });
            results.push(s);
        }
        // max is exact regardless of association.
        assert_eq!(results[0], results[1], "seed {seed}");
        assert_eq!(results[1], results[2], "seed {seed}");
        let direct = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(results[0], direct, "seed {seed}");
    }
}
