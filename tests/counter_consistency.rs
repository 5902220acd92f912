//! Cross-kernel consistency of the hardware counters: relationships that
//! must hold for *every* application and configuration if the machine
//! model is internally coherent.

use lpomp::core::{run_sim, PagePolicy, RunOpts, System};
use lpomp::machine::{opteron_2x2, xeon_2x2_ht};
use lpomp::npb::{AppKind, Class};
use lpomp::prof::Event;

fn all_records() -> Vec<lpomp::core::RunRecord> {
    let mut v = Vec::new();
    for app in AppKind::ALL {
        for policy in [PagePolicy::Small4K, PagePolicy::Large2M] {
            v.push(run_sim(
                app,
                Class::S,
                opteron_2x2(),
                policy,
                4,
                RunOpts::default(),
            ));
        }
    }
    v
}

#[test]
fn tlb_counters_partition_the_accesses() {
    for r in all_records() {
        let c = &r.counters;
        let accesses = c.get(Event::Loads) + c.get(Event::Stores);
        let hits = c.get(Event::DtlbHits);
        let misses = c.get(Event::DtlbMisses);
        assert_eq!(
            hits + misses,
            accesses,
            "{} {}: hits {hits} + misses {misses} != accesses {accesses}",
            r.app,
            r.policy
        );
        // L2-TLB hits are a subset of hits.
        assert!(c.get(Event::DtlbL2Hits) <= hits);
    }
}

#[test]
fn walk_cycles_bound_by_misses() {
    let walk_base = opteron_2x2().cost.walk_base;
    for r in all_records() {
        let c = &r.counters;
        let misses = c.get(Event::DtlbMisses) + c.get(Event::ItlbMisses);
        let walk = c.get(Event::WalkCycles);
        if misses > 0 {
            assert!(
                walk >= misses * walk_base,
                "{} {}: walk {walk} < misses {misses} x base {walk_base}",
                r.app,
                r.policy
            );
        } else {
            assert_eq!(walk, 0, "{} {}", r.app, r.policy);
        }
    }
}

#[test]
fn cache_miss_hierarchy_is_ordered() {
    for r in all_records() {
        let c = &r.counters;
        // L2 misses (including walk refs) can't exceed L1 misses plus walk
        // and ifetch references; sanity: every L2 data miss implies an L1
        // miss happened for that reference, so L2 data misses <= L1 misses
        // + walk/ifetch refs (which bypass L1).
        let l1m = c.get(Event::L1dMisses);
        let l2m = c.get(Event::L2Misses);
        let walk_refs = c.get(Event::DtlbMisses) + c.get(Event::ItlbMisses);
        assert!(
            l2m <= l1m + walk_refs,
            "{} {}: L2 misses {l2m} > L1 misses {l1m} + walk refs {walk_refs}",
            r.app,
            r.policy
        );
    }
}

#[test]
fn cycles_account_for_all_components() {
    for r in all_records() {
        let c = &r.counters;
        // Aggregate cycles must at least cover instructions + barrier
        // waits + walks (memory-access cycles come on top).
        let floor =
            c.get(Event::Instructions) + c.get(Event::BarrierCycles) + c.get(Event::WalkCycles);
        assert!(
            c.get(Event::Cycles) >= floor,
            "{} {}: cycles {} below component floor {floor}",
            r.app,
            r.policy,
            c.get(Event::Cycles)
        );
    }
}

#[test]
fn restarts_only_under_small_pages_in_reach() {
    // Prefetch restarts happen on streamed TLB misses at page entry; with
    // 2 MB pages and class-S working sets (within large-page reach) they
    // should be rare compared to the 4 KB run.
    for app in [AppKind::Mg, AppKind::Sp] {
        let small = run_sim(
            app,
            Class::S,
            opteron_2x2(),
            PagePolicy::Small4K,
            4,
            RunOpts::default(),
        );
        let large = run_sim(
            app,
            Class::S,
            opteron_2x2(),
            PagePolicy::Large2M,
            4,
            RunOpts::default(),
        );
        assert!(
            large.counters.get(Event::PrefetchRestarts)
                <= small.counters.get(Event::PrefetchRestarts),
            "{app}"
        );
    }
}

#[test]
fn xeon_has_no_l2_tlb_hits() {
    let r = run_sim(
        AppKind::Cg,
        Class::S,
        xeon_2x2_ht(),
        PagePolicy::Small4K,
        4,
        RunOpts::default(),
    );
    assert_eq!(
        r.counters.get(Event::DtlbL2Hits),
        0,
        "the Xeon DTLB is single-level"
    );
}

#[test]
fn numa_counters_partition_dram_accesses() {
    // With a NUMA config, every DRAM-reaching reference (data or page
    // walk) is classified local or remote — the two must sum exactly to
    // the L2 miss count, for every placement and page size.
    use lpomp::machine::{NumaConfig, NumaPlacement};
    for placement in [
        NumaPlacement::MasterNode,
        NumaPlacement::Interleave4K,
        NumaPlacement::FirstTouch,
    ] {
        for policy in [PagePolicy::Small4K, PagePolicy::Large2M] {
            let b = lpomp::core::System::builder(opteron_2x2())
                .numa(NumaConfig::opteron(placement))
                .policy(policy)
                .threads(4)
                .populate(lpomp::core::PopulatePolicy::OnDemand);
            let r = lpomp::core::run_system(AppKind::Mg, Class::S, &b, RunOpts::default());
            let c = &r.counters;
            let local = c.get(Event::LocalDramAccesses);
            let remote = c.get(Event::RemoteDramAccesses);
            let l2m = c.get(Event::L2Misses);
            assert_eq!(
                local + remote,
                l2m,
                "{placement:?} {policy}: local {local} + remote {remote} != L2 misses {l2m}"
            );
        }
    }
}

#[test]
fn numa_counters_zero_without_numa_config() {
    // The uniform-memory paper baseline must not be perturbed: none of
    // the NUMA-only counters may fire without a NUMA config.
    for r in all_records() {
        let c = &r.counters;
        for ev in [
            Event::LocalDramAccesses,
            Event::RemoteDramAccesses,
            Event::RemoteWalkCycles,
            Event::NumaHintFaults,
            Event::PagesMigrated,
        ] {
            assert_eq!(
                c.get(ev),
                0,
                "{} {}: {ev:?} fired without a NUMA config",
                r.app,
                r.policy
            );
        }
    }
}

#[test]
fn event_all_is_complete_ordered_and_uniquely_named() {
    // `Event::ALL` drives every counter sheet and CSV header: it must
    // list each event exactly once, in declaration order, with distinct
    // mnemonics.
    use std::collections::HashSet;
    assert_eq!(Event::ALL.len(), Event::COUNT);
    for (i, ev) in Event::ALL.iter().enumerate() {
        assert_eq!(*ev as usize, i, "{ev:?} out of declaration order");
    }
    let names: HashSet<&str> = Event::ALL.iter().map(|e| e.mnemonic()).collect();
    assert_eq!(names.len(), Event::COUNT, "duplicate mnemonic");
}

#[test]
fn smt_flush_cycles_only_on_xeon_at_eight_threads() {
    let opt = run_sim(
        AppKind::Sp,
        Class::S,
        opteron_2x2(),
        PagePolicy::Small4K,
        4,
        RunOpts::default(),
    );
    assert_eq!(opt.counters.get(Event::SmtFlushCycles), 0);
    let xeon4 = run_sim(
        AppKind::Sp,
        Class::S,
        xeon_2x2_ht(),
        PagePolicy::Small4K,
        4,
        RunOpts::default(),
    );
    assert_eq!(
        xeon4.counters.get(Event::SmtFlushCycles),
        0,
        "one thread per core: no co-residency, no flushes"
    );
}

#[test]
fn micro_tlb_bypasses_partition_the_translations() {
    let builder = System::builder(opteron_2x2())
        .policy(PagePolicy::Small4K)
        .threads(4);
    let mut kernel = AppKind::Cg.build(Class::S);
    let mut sys = builder.build(kernel.as_mut()).expect("system builds");
    kernel.run(&mut sys.team);
    let c = sys.team.aggregate_counters();
    let machine = &sys.team.engine().expect("simulated team").machine;
    // Full lookups that hit L1: the TLB's L1 hits less the bypasses
    // recorded into them, per core and side.
    let (mut bypass, mut full_l1) = ([0u64; 2], [0u64; 2]);
    for core in 0..machine.config().cores() {
        let (d, i) = machine.tlb_bypasses(core);
        let hits = [
            machine.dtlb(core).stats().l1_hits,
            machine.itlb(core).stats().l1_hits,
        ];
        for (side, b) in [d, i].into_iter().enumerate() {
            full_l1[side] += hits[side]
                .checked_sub(b)
                .expect("a bypass is one of the core's L1 hits");
            bypass[side] += b;
        }
    }
    let (data, code) = machine.tlb_totals();
    assert!(bypass[0] > 0 && full_l1[0] > 0 && data.l2_hits > 0 && data.misses > 0);
    assert_eq!(
        bypass[0] + full_l1[0] + data.l2_hits + data.misses,
        c.get(Event::Loads) + c.get(Event::Stores)
    );
    assert_eq!(data.l2_hits, c.get(Event::DtlbL2Hits));
    assert_eq!(data.misses, c.get(Event::DtlbMisses));
    assert_eq!(
        bypass[0] + full_l1[0] + data.l2_hits,
        c.get(Event::DtlbHits)
    );
    assert_eq!(
        bypass[1] + full_l1[1] + code.l2_hits + code.misses,
        c.get(Event::IFetches)
    );
    assert_eq!(code.misses, c.get(Event::ItlbMisses));
}
