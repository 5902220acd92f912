//! The tenant coordinator: round-robin gang scheduling of N simulated
//! processes over one machine.
//!
//! Each tenant is a complete [`SimEngine`] (its own address space, page
//! tables, clocks, counters and daemons) plus the kernel it runs. The
//! coordinator owns the one real [`Machine`] and hands it to exactly one
//! tenant at a time for a fixed cycle timeslice, over a strict
//! grant/yield rendezvous (see `team::SliceGrant`): the machine
//! moves *by value*, so the simulation stays fully deterministic even
//! though each tenant runs on its own OS thread.
//!
//! Per grant, the coordinator installs the tenant's residency map and
//! performs the hardware context switch ([`Machine::context_switch`]) —
//! retagging the TLBs under [`AsidMode::Tagged`] or flushing them under
//! [`AsidMode::FlushOnSwitch`] — and charges the direct switch cost. The
//! indirect cost (cold TLBs and caches, cross-tenant evictions) emerges
//! from the machine model itself.
//!
//! After every yield the coordinator asserts the *partition invariant*:
//! the per-tenant TLB counter sums must equal the machine's lifetime
//! totals exactly — no event may be lost or double-charged when the
//! machine changes hands.

use crate::team::{SimEngine, SliceGrant, SliceYield, Team};
use lpomp_machine::{AsidMode, Machine, SliceScheduler};
use lpomp_prof::{Counters, Event};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// One tenant: a prepared engine plus the work to run on it.
pub struct TenantTask {
    /// Report label ("batch", "latency-0", ...).
    pub name: String,
    /// Hardware ASID the tenant's translations are tagged with. Tenant 0
    /// should use ASID 0 so a single-tenant machine is bit-identical to
    /// the unscheduled path.
    pub asid: u16,
    /// Team size — installed as the machine's SMT residency per grant.
    pub threads: usize,
    /// The engine, built against a placeholder machine (same config as
    /// the real one); the real machine arrives with the first grant.
    pub engine: Box<SimEngine>,
    /// The kernel body; its return value is the verification checksum.
    pub work: Box<dyn FnOnce(&mut Team) -> f64 + Send>,
}

/// What one tenant produced.
pub struct TenantOutcome {
    /// The tenant's label.
    pub name: String,
    /// The kernel's verification checksum.
    pub checksum: f64,
    /// Cycle at which the tenant finished (its clocks at the final
    /// yield) — colocated runtime, including descheduled time.
    pub finish_clock: u64,
    /// The engine, returned for profile/counter inspection.
    pub engine: Box<SimEngine>,
}

/// Scheduling statistics of one multi-tenant run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Timeslices granted.
    pub slices: u64,
    /// Grants that switched between different tenants.
    pub switches: u64,
    /// The global clock when the last tenant finished.
    pub makespan: u64,
}

/// Run `tasks` to completion under round-robin `timeslice` scheduling,
/// switching ASIDs per `mode`. Blocks until every tenant finishes;
/// outcomes are returned in task order.
///
/// # Panics
/// Panics if a tenant thread panics, or if the partition invariant is
/// violated (a counter bug, never a configuration problem).
pub fn run_tenants(
    machine: Machine,
    tasks: Vec<TenantTask>,
    timeslice: u64,
    mode: AsidMode,
) -> (Vec<TenantOutcome>, ScheduleStats) {
    assert!(!tasks.is_empty(), "need at least one tenant");
    let n = tasks.len();
    let mut grants: Vec<SyncSender<SliceGrant>> = Vec::with_capacity(n);
    let mut yields: Vec<Receiver<SliceYield>> = Vec::with_capacity(n);
    let mut names = Vec::with_capacity(n);
    let mut asids = Vec::with_capacity(n);
    let mut threads = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for mut task in tasks {
        let (gtx, grx) = sync_channel::<SliceGrant>(1);
        let (ytx, yrx) = sync_channel::<SliceYield>(1);
        task.engine.attach_slice_link(grx, ytx);
        grants.push(gtx);
        yields.push(yrx);
        names.push(task.name);
        asids.push(task.asid);
        threads.push(task.threads);
        let engine = task.engine;
        let work = task.work;
        handles.push(std::thread::spawn(move || {
            let mut team = Team::Sim(engine);
            let checksum = work(&mut team);
            let Team::Sim(mut engine) = team else {
                unreachable!("tenant teams are always simulated")
            };
            engine.finish_slice();
            (checksum, engine)
        }));
    }

    let mut scheduler = SliceScheduler::new(n, timeslice);
    let mut runnable = vec![true; n];
    let mut latest = vec![Counters::new(); n];
    let mut finish = vec![0u64; n];
    let mut machine = Some(machine);
    let mut now = 0u64;
    let mut prev: Option<usize> = None;
    let mut stats = ScheduleStats::default();
    while let Some((idx, slice_end)) = scheduler.next_slice(now, &runnable) {
        let mut m = machine.take().expect("machine is home between slices");
        let switching = prev != Some(idx);
        let switch_cost = if switching && prev.is_some() {
            m.cost().context_switch
        } else {
            0
        };
        if switching {
            m.set_residency(m.config().residency(threads[idx]));
            m.context_switch(asids[idx], mode);
            if prev.is_some() {
                stats.switches += 1;
            }
        }
        stats.slices += 1;
        grants[idx]
            .send(SliceGrant {
                machine: m,
                now,
                slice_end,
                switch_cost,
            })
            .expect("tenant thread died");
        let y = yields[idx].recv().expect("tenant thread died");
        machine = Some(y.machine);
        now = now.max(y.clock);
        latest[idx] = y.counters;
        if y.finished {
            runnable[idx] = false;
            finish[idx] = y.clock;
        }
        prev = Some(idx);
        assert_partition(machine.as_ref().expect("just returned"), &latest);
    }
    stats.makespan = now;

    let outcomes = handles
        .into_iter()
        .zip(names)
        .zip(finish)
        .map(|((h, name), finish_clock)| {
            let (checksum, engine) = h.join().expect("tenant thread panicked");
            TenantOutcome {
                name,
                checksum,
                finish_clock,
                engine,
            }
        })
        .collect();
    (outcomes, stats)
}

/// The partition invariant: summed per-tenant TLB counters must equal
/// the machine's lifetime totals at every yield.
fn assert_partition(machine: &Machine, latest: &[Counters]) {
    let (d, i) = machine.tlb_totals();
    let sum = |ev: Event| latest.iter().map(|c| c.get(ev)).sum::<u64>();
    assert_eq!(
        sum(Event::DtlbHits),
        d.l1_hits + d.l2_hits,
        "DTLB hits do not partition across tenants"
    );
    assert_eq!(
        sum(Event::DtlbMisses),
        d.misses,
        "DTLB misses do not partition across tenants"
    );
    assert_eq!(
        sum(Event::DtlbL2Hits),
        d.l2_hits,
        "DTLB L2 hits do not partition across tenants"
    );
    assert_eq!(
        sum(Event::ItlbMisses),
        i.misses,
        "ITLB misses do not partition across tenants"
    );
    assert_eq!(
        sum(Event::TlbCrossEvictions),
        d.cross_asid_evictions + i.cross_asid_evictions,
        "cross-ASID evictions do not partition across tenants"
    );
}
