//! The fork-join team: OpenMP's `parallel for` on two engines.
//!
//! A [`Team`] executes parallel loops either **natively** (real OS threads
//! via `std::thread::scope`, no instrumentation — used for correctness
//! tests, examples and wall-clock benchmarks) or **simulated** (logical threads
//! interleaved over the `lpomp-machine` timing model — used to reproduce
//! the paper's figures). A third, **recording** team runs the native
//! engine's threads over a capture's contexts (see
//! [`lpomp_machine::capture`]): the reference streams the analytic backend
//! evaluates, with no timing model underneath.
//!
//! The simulated engine is event-driven: at every step the logical thread
//! with the *lowest cycle clock* runs its next quantum, so threads
//! sharing a core's TLB (SMT) or a chip's L2 genuinely interleave in
//! simulated time. Loop ends are joined by a modelled barrier that
//! advances every thread to the slowest participant plus the barrier cost
//! — the fork-join semantics of the paper's Figure 1.

use crate::schedule::{plan, Plan, Schedule};
use lpomp_machine::{CaptureState, CodeWalker, Machine, MemoryCtx, NullCtx, SimCtx};
use lpomp_prof::{Counters, Event, Profile, ProfileSheet, ProfileSpec, RegionProfiler};
use lpomp_vm::{
    AddressSpace, HintSamples, Khugepaged, KhugepagedConfig, NumaDaemon, NumaDaemonConfig,
    VirtAddr, MAX_CORES, MAX_NUMA_NODES,
};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};

/// The machine, handed to a tenant engine for one scheduling slice.
///
/// Gang scheduling moves the whole [`Machine`] *by value* between the
/// tenant coordinator and exactly one engine at a time, so there is
/// never a moment where two tenants could race on hardware state — the
/// rendezvous is the synchronization.
pub(crate) struct SliceGrant {
    /// The real machine (TLBs, caches, the one shared frame pool).
    pub machine: Machine,
    /// The global scheduler clock when the slice was granted. Tenant
    /// clocks behind it were descheduled and catch up as
    /// [`Event::DeschedCycles`].
    pub now: u64,
    /// Cycle at which the slice expires; the engine yields at the first
    /// scheduling point past it.
    pub slice_end: u64,
    /// Direct context-switch cost to charge every thread (0 when the
    /// same tenant continues).
    pub switch_cost: u64,
}

/// The machine handed back to the coordinator when a slice ends.
pub(crate) struct SliceYield {
    /// The machine, returned by value.
    pub machine: Machine,
    /// True when the tenant's kernel has run to completion.
    pub finished: bool,
    /// The tenant's minimum thread clock at yield time — the cycle up to
    /// which this tenant has simulated everything.
    pub clock: u64,
    /// Aggregate counter snapshot of the tenant so far, for the
    /// coordinator's partition check (per-tenant sums must equal the
    /// machine totals).
    pub counters: Counters,
}

/// The engine side of the grant/yield rendezvous.
struct SliceLink {
    grants: Receiver<SliceGrant>,
    yields: SyncSender<SliceYield>,
    /// The placeholder machine parked while the real one is installed.
    parked: Option<Machine>,
    slice_end: u64,
    granted: bool,
}

/// Loop body type: receives the thread's memory context and an iteration
/// chunk. Must be `Sync` because the native engine calls it from many
/// threads at once.
pub type Body<'b> = &'b (dyn Fn(&mut dyn MemoryCtx, Range<usize>) + Sync);
/// One `parallel sections` section.
pub type Section<'b> = &'b (dyn Fn(&mut dyn MemoryCtx) + Sync);
/// Reducing loop body: returns the chunk's partial value.
pub type ReduceBody<'b> = &'b (dyn Fn(&mut dyn MemoryCtx, Range<usize>) -> f64 + Sync);

/// Supported reduction operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduction {
    /// `+` reduction.
    Sum,
    /// `max` reduction.
    Max,
    /// `min` reduction.
    Min,
}

impl Reduction {
    /// Identity element.
    pub fn identity(self) -> f64 {
        match self {
            Reduction::Sum => 0.0,
            Reduction::Max => f64::NEG_INFINITY,
            Reduction::Min => f64::INFINITY,
        }
    }

    /// Combine two partial values.
    pub(crate) fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            Reduction::Sum => a + b,
            Reduction::Max => a.max(b),
            Reduction::Min => a.min(b),
        }
    }
}

/// Default iterations per simulated quantum (interleaving granularity).
pub const DEFAULT_QUANTUM: usize = 64;

/// Tunables of the hierarchical scheduler's work stealing and its
/// negotiation with the NUMA balancing daemon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StealPolicy {
    /// Chunks one cross-node steal takes at once. Remote steals pay an
    /// interconnect round trip and drag their pages' traffic across it,
    /// so the thief grabs a batch to amortize the migration.
    pub remote_batch: usize,
    /// Work-follows-pages: consume NUMA hint-fault samples at chunk
    /// completion and re-home chunks toward the node their pages live on
    /// (ablation flag).
    pub work_follows_pages: bool,
    /// Pages-follow-work: publish each chunk's page footprint to the
    /// NUMA daemon so it prefers migrating those pages toward the node
    /// that owns the chunk (ablation flag).
    pub pages_follow_work: bool,
    /// When `false`, steal victims are picked in plain thread-id order
    /// with no own-node preference — the classic topology-blind work
    /// stealer, kept as the experiment baseline. Chunk seeding, costs
    /// and counters are unchanged, so cross-node steals still show up
    /// as [`lpomp_prof::Event::RemoteSteals`].
    pub topology_aware: bool,
}

impl Default for StealPolicy {
    fn default() -> Self {
        StealPolicy {
            remote_batch: 2,
            work_follows_pages: true,
            pages_follow_work: true,
            topology_aware: true,
        }
    }
}

/// Persistent hierarchical-scheduler state for one loop shape: chunk
/// affinities survive across instances of the same loop, so re-homing
/// decisions made in iteration *k* pay off in iteration *k+1*.
struct HierState {
    /// The loop's chunk list (also the shape fingerprint).
    chunks: Vec<Range<usize>>,
    /// Preferred NUMA node per chunk.
    affinity: Vec<usize>,
    /// Thread whose deque the chunk starts on next time.
    owner: Vec<usize>,
}

/// The simulated execution engine: machine + process + per-thread state.
pub struct SimEngine {
    /// The hardware model.
    pub machine: Machine,
    /// The (single, shared) process address space.
    pub aspace: AddressSpace,
    clocks: Vec<u64>,
    profile: Profile,
    walkers: Vec<CodeWalker>,
    placement: Vec<usize>,
    threads: usize,
    quantum: usize,
    daemon: Option<Khugepaged>,
    numa_daemon: Option<NumaDaemon>,
    profiler: Option<Box<RegionProfiler>>,
    slice: Option<SliceLink>,
    sched_override: Option<Schedule>,
    steal: StealPolicy,
    hier: Vec<HierState>,
    /// Hint samples the scheduler drained mid-loop, parked for the NUMA
    /// daemon's next barrier scan.
    hint_stash: HintSamples,
    /// Pages-follow-work hints accumulated for the daemon.
    work_hints: BTreeMap<u64, usize>,
}

impl SimEngine {
    /// Build an engine for `threads` logical threads. `code` describes the
    /// instruction-fetch behaviour (cloned per thread). Placement follows
    /// the paper's rule (cores first, then SMT contexts).
    pub fn new(
        mut machine: Machine,
        aspace: AddressSpace,
        threads: usize,
        code: CodeWalker,
        quantum: usize,
    ) -> Self {
        let placement = machine.config().placement(threads);
        machine.set_residency(machine.config().residency(threads));
        SimEngine {
            machine,
            aspace,
            clocks: vec![0; threads],
            profile: Profile::new(threads),
            walkers: vec![code; threads],
            placement,
            threads,
            quantum: quantum.max(1),
            daemon: None,
            numa_daemon: None,
            profiler: None,
            slice: None,
            sched_override: None,
            steal: StealPolicy::default(),
            hier: Vec::new(),
            hint_stash: HintSamples::new(),
            work_hints: BTreeMap::new(),
        }
    }

    /// Install (or clear) a schedule override. Kernels that consult
    /// [`Team::schedule_or`] run their annotated loops under it; loops
    /// with hardcoded schedules are unaffected.
    pub fn set_schedule_override(&mut self, s: Option<Schedule>) {
        self.sched_override = s;
    }

    /// The installed schedule override, if any.
    #[cfg(test)]
    pub(crate) fn schedule_override(&self) -> Option<Schedule> {
        self.sched_override
    }

    /// Set the hierarchical scheduler's steal/negotiation policy.
    pub fn set_steal_policy(&mut self, p: StealPolicy) {
        self.steal = p;
    }

    /// The hierarchical scheduler's steal/negotiation policy.
    pub fn steal_policy(&self) -> StealPolicy {
        self.steal
    }

    /// Put the engine under timeslice scheduling: its `machine` becomes a
    /// parked placeholder, and every scheduling point (loop step, barrier)
    /// first makes sure a [`SliceGrant`] holding the real machine has
    /// arrived, yielding it back when the slice expires. Without a link
    /// attached none of the slice machinery runs.
    pub(crate) fn attach_slice_link(
        &mut self,
        grants: Receiver<SliceGrant>,
        yields: SyncSender<SliceYield>,
    ) {
        self.slice = Some(SliceLink {
            grants,
            yields,
            parked: None,
            slice_end: 0,
            granted: false,
        });
    }

    /// Block until the coordinator grants the machine (no-op when no
    /// slice link is attached or the machine is already held).
    fn ensure_granted(&mut self) {
        if self.slice.as_ref().is_some_and(|l| !l.granted) {
            self.wait_for_grant();
        }
    }

    /// Receive the next grant, install the real machine, and charge the
    /// time this tenant spent off-CPU plus the direct switch cost.
    fn wait_for_grant(&mut self) {
        let link = self.slice.as_mut().expect("no slice link attached");
        let grant = link.grants.recv().expect("tenant coordinator hung up");
        let parked = std::mem::replace(&mut self.machine, grant.machine);
        let link = self.slice.as_mut().expect("no slice link attached");
        link.parked = Some(parked);
        link.slice_end = grant.slice_end;
        link.granted = true;
        // Hint sampling is a property of the (moving) real machine; the
        // placeholder the daemon was enabled against never sees traffic.
        if self.numa_daemon.is_some() {
            self.machine.enable_hint_sampling();
        }
        let desched: Vec<u64> = self
            .clocks
            .iter()
            .map(|&c| grant.now.saturating_sub(c))
            .collect();
        let active = grant.switch_cost > 0 || desched.iter().any(|&d| d > 0);
        if active {
            self.region_enter("os:sched");
            for (t, &wait) in desched.iter().enumerate() {
                if wait > 0 {
                    self.clocks[t] += wait;
                    self.profile.thread_mut(t).add(Event::DeschedCycles, wait);
                }
            }
            if grant.switch_cost > 0 {
                self.charge_all(grant.switch_cost);
                self.profile.thread_mut(0).bump(Event::ContextSwitches);
            }
            self.region_exit();
        }
    }

    /// Hand the machine back to the coordinator. Pending NUMA hint
    /// samples are drained first — only this tenant ran since the grant,
    /// so they belong to its own balancing daemon (and are discarded when
    /// it has none, as the kernel does for an untracked process).
    fn yield_machine(&mut self, finished: bool) {
        let batch = self.pending_hints();
        if let Some(d) = &mut self.numa_daemon {
            d.absorb(batch);
        }
        let clock = self.clocks.iter().copied().min().unwrap_or(0);
        let counters = self.profile.aggregate();
        let parked = self
            .slice
            .as_mut()
            .and_then(|l| l.parked.take())
            .expect("yield without a granted machine");
        let machine = std::mem::replace(&mut self.machine, parked);
        let link = self.slice.as_mut().expect("no slice link attached");
        link.granted = false;
        link.yields
            .send(SliceYield {
                machine,
                finished,
                clock,
                counters,
            })
            .expect("tenant coordinator hung up");
    }

    /// At a scheduling point: if the slice has expired (every thread
    /// clock is past its end), yield the machine and block until the next
    /// grant.
    fn maybe_slice_yield(&mut self) {
        let Some(link) = &self.slice else { return };
        if !link.granted {
            return;
        }
        let end = link.slice_end;
        if self.clocks.iter().copied().min().unwrap_or(0) < end {
            return;
        }
        self.yield_machine(false);
        self.wait_for_grant();
    }

    /// Yield the machine one final time, marking this tenant finished.
    /// Called by the tenant thread after its kernel returns; the
    /// coordinator drops the tenant from the rotation. No-op without a
    /// slice link.
    pub(crate) fn finish_slice(&mut self) {
        if self.slice.is_none() {
            return;
        }
        self.ensure_granted();
        self.yield_machine(true);
    }

    /// Attach the region-attribution profiler (and, for
    /// [`ProfileSpec::Trace`], the timeline recorder). Profiling observes
    /// the run without perturbing it: no clock or counter changes, so
    /// profiled and unprofiled runs are cycle-identical.
    pub fn enable_profiling(&mut self, spec: ProfileSpec) {
        if spec.enabled() {
            self.profiler = Some(Box::new(RegionProfiler::new(
                self.placement.clone(),
                spec.wants_trace(),
            )));
        }
    }

    /// Enter a named profiling region (no-op without a profiler). Prefer
    /// the scoped [`Team::region`]; this is for callers that hold the
    /// engine directly (e.g. stop-the-world OS operations).
    pub fn region_enter(&mut self, name: &str) {
        if let Some(p) = &mut self.profiler {
            p.enter(name, &self.profile, &self.clocks);
        }
    }

    /// Exit the innermost profiling region (no-op without a profiler).
    pub fn region_exit(&mut self) {
        if let Some(p) = &mut self.profiler {
            p.exit(&self.profile, &self.clocks);
        }
    }

    fn prof_instant(&mut self, name: &str, thread: usize) {
        if let Some(p) = &mut self.profiler {
            p.instant(name, thread, self.clocks[thread]);
        }
    }

    /// Settle and snapshot the per-region attribution (None unless
    /// [`Self::enable_profiling`] was called).
    pub fn region_sheet(&mut self) -> Option<ProfileSheet> {
        let profile = &self.profile;
        self.profiler.as_mut().map(|p| p.sheet(profile))
    }

    /// The recorded timeline as Chrome `trace_event` JSON (None unless
    /// profiling with [`ProfileSpec::Trace`]).
    pub fn trace_json(&self) -> Option<String> {
        self.profiler.as_ref().and_then(|p| p.trace_json())
    }

    /// Attach an incremental khugepaged daemon. It runs at every barrier:
    /// a budgeted scan whose cycles are charged to all cores (the daemon
    /// holds `mmap_sem`-like locks, so application threads stall), with a
    /// broadcast TLB shootdown whenever it changed any translation.
    pub fn enable_khugepaged(&mut self, cfg: KhugepagedConfig) {
        self.daemon = Some(Khugepaged::new(cfg));
    }

    /// The attached daemon, if any (its lifetime totals and idle state).
    pub fn daemon(&self) -> Option<&Khugepaged> {
        self.daemon.as_ref()
    }

    /// Attach an AutoNUMA-style balancing daemon. The machine starts
    /// recording hinting-fault samples (which node touched which page) on
    /// every DTLB miss; at every barrier the daemon absorbs the batch and
    /// migrates pages with persistently remote accessors, charged like
    /// khugepaged: scan cycles stall all cores, migrations cost a
    /// broadcast shootdown.
    pub fn enable_numa_daemon(&mut self, cfg: NumaDaemonConfig) {
        self.machine.enable_hint_sampling();
        self.numa_daemon = Some(NumaDaemon::new(cfg));
    }

    /// The attached NUMA balancing daemon, if any.
    pub fn numa_daemon(&self) -> Option<&NumaDaemon> {
        self.numa_daemon.as_ref()
    }

    /// Core assigned to a logical thread.
    pub fn core_of(&self, thread: usize) -> usize {
        self.placement[thread]
    }

    /// The run's profile so far.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Critical-path cycles so far (max thread clock).
    pub fn elapsed_cycles(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }

    /// Charge every thread `cycles` (stop-the-world events such as THP
    /// migration or a global TLB shootdown).
    pub fn charge_all(&mut self, cycles: u64) {
        for t in 0..self.threads {
            self.clocks[t] += cycles;
            self.profile.thread_mut(t).add(Event::Cycles, cycles);
        }
    }

    /// Broadcast TLB shootdown with its cost: every core takes the IPI
    /// (charged to its clock) and flushes its TLBs.
    pub fn tlb_shootdown(&mut self) {
        self.charge_all(self.machine.cost().shootdown_ipi);
        self.machine.flush_all_tlbs();
        self.profile.thread_mut(0).bump(Event::TlbShootdowns);
        self.prof_instant("tlb-shootdown", 0);
    }

    /// Zero clocks and counters (keep TLB/cache state warm).
    pub fn reset_timing(&mut self) {
        self.clocks.iter_mut().for_each(|c| *c = 0);
        self.profile = Profile::new(self.threads);
        if let Some(p) = &mut self.profiler {
            p.reset();
        }
    }

    /// Run `body` over `plan` event-driven, returning per-thread partials.
    /// The lowest-clock thread with work left runs its next quantum (ties
    /// go to the lowest id); a thread holding no chunk claims from its own
    /// static list first, then from the shared dynamic/guided queue — the
    /// deterministic analogue of a shared iteration counter.
    fn run(&mut self, p: &Plan, body: ReduceBody<'_>, red: Reduction) -> Vec<f64> {
        self.ensure_granted();
        let mut partials = vec![red.identity(); self.threads];
        let (lists, queue): (&[Vec<Range<usize>>], &[Range<usize>]) = match p {
            Plan::Fixed(per) => (per, &[]),
            Plan::Queue(q) => (&[], q),
            Plan::Hier(per) => {
                self.run_hier(per, body, red, &mut partials);
                return partials;
            }
        };
        // Per thread: the next chunk of its own list, and what is left of
        // the chunk it holds.
        let mut own = vec![0usize; self.threads];
        let mut held = vec![0..0; self.threads];
        let mut qi = 0usize;
        loop {
            self.maybe_slice_yield();
            let mut next: Option<usize> = None;
            for t in 0..self.threads {
                let has_work = !held[t].is_empty()
                    || own[t] < lists.get(t).map_or(0, Vec::len)
                    || qi < queue.len();
                if has_work && next.is_none_or(|b| self.clocks[t] < self.clocks[b]) {
                    next = Some(t);
                }
            }
            let Some(t) = next else { break };
            if held[t].is_empty() {
                held[t] = if let Some(c) = lists.get(t).and_then(|l| l.get(own[t])) {
                    own[t] += 1;
                    c.clone()
                } else {
                    qi += 1;
                    queue[qi - 1].clone()
                };
            }
            let start = held[t].start;
            let end = (start + self.quantum).min(held[t].end);
            held[t].start = end;
            let v = self.with_ctx(t, |ctx| body(ctx, start..end));
            partials[t] = red.combine(partials[t], v);
        }
        partials
    }

    /// Charge one thread's clock (scheduler bookkeeping ops).
    fn charge_one(&mut self, t: usize, cycles: u64) {
        self.clocks[t] += cycles;
        self.profile.thread_mut(t).add(Event::Cycles, cycles);
    }

    /// The hierarchical work-stealing loop: per-thread deques seeded from
    /// the static partition (or the persistent re-homed assignment when
    /// this loop shape ran before), locality-preferring stealing, and the
    /// two-way negotiation with the NUMA daemon. Deterministic: the
    /// lowest-clock thread always acts next, and steal victim order is a
    /// pure function of the topology.
    fn run_hier(
        &mut self,
        per: &[Vec<Range<usize>>],
        body: ReduceBody<'_>,
        red: Reduction,
        partials: &mut [f64],
    ) {
        let pol = self.steal;
        let negotiate = pol.work_follows_pages || pol.pages_follow_work;
        if negotiate {
            // Enabling sampling resets the machine's pending batch, so
            // park whatever is there first (the daemon gets it later).
            let pending = self.machine.drain_hint_samples();
            self.hint_stash.merge(pending);
            self.machine.enable_hint_sampling();
        }
        let threads = self.threads;
        let my_node: Vec<usize> = (0..threads)
            .map(|t| self.machine.config().node_of_core(self.placement[t]))
            .collect();
        let max_node = my_node.iter().copied().max().unwrap_or(0);
        let mut threads_on: Vec<Vec<usize>> = vec![Vec::new(); max_node + 1];
        for (t, &n) in my_node.iter().enumerate() {
            threads_on[n].push(t);
        }
        // Victim preference per thief: own node's threads first (ascending
        // id), then remote threads (ascending id). A topology-blind
        // policy flattens this to plain id order.
        let victims: Vec<Vec<usize>> = (0..threads)
            .map(|t| {
                if !pol.topology_aware {
                    return (0..threads).filter(|&u| u != t).collect();
                }
                let mut v: Vec<usize> = (0..threads)
                    .filter(|&u| u != t && my_node[u] == my_node[t])
                    .collect();
                v.extend((0..threads).filter(|&u| my_node[u] != my_node[t]));
                v
            })
            .collect();
        // Find (or seed) the persistent state for this loop shape.
        let chunks: Vec<Range<usize>> = per.iter().flatten().cloned().collect();
        let si = match self.hier.iter().position(|s| s.chunks == chunks) {
            Some(i) => i,
            None => {
                // Chunk → plan-owner thread; affinity seeds from that
                // owner's node — under static first-touch init that is
                // where the chunk's pages physically live.
                let mut owner = Vec::with_capacity(chunks.len());
                for (t, deque) in per.iter().enumerate() {
                    owner.extend(std::iter::repeat_n(t, deque.len()));
                }
                let affinity: Vec<usize> = owner.iter().map(|&t| my_node[t]).collect();
                self.hier.push(HierState {
                    chunks: chunks.clone(),
                    affinity,
                    owner,
                });
                self.hier.len() - 1
            }
        };
        let mut deques: Vec<VecDeque<usize>> = vec![VecDeque::new(); threads];
        for (c, &o) in self.hier[si].owner.iter().enumerate() {
            deques[o].push_back(c);
        }
        let cm = *self.machine.cost();
        // (chunk index, offset within chunk) being executed per thread.
        let mut active: Vec<Option<(usize, usize)>> = vec![None; threads];
        loop {
            self.maybe_slice_yield();
            let queued = deques.iter().any(|d| !d.is_empty());
            let mut next: Option<usize> = None;
            #[allow(clippy::needless_range_loop)] // t indexes several arrays
            for t in 0..threads {
                let has_work = active[t].is_some() || queued;
                if has_work && next.is_none_or(|b| self.clocks[t] < self.clocks[b]) {
                    next = Some(t);
                }
            }
            let Some(t) = next else { break };
            if active[t].is_none() {
                let c = if let Some(c) = deques[t].pop_front() {
                    self.charge_one(t, cm.queue_op);
                    c
                } else {
                    // Own deque dry: steal. `queued` guarantees a victim.
                    let v = victims[t]
                        .iter()
                        .copied()
                        .find(|&u| !deques[u].is_empty())
                        .expect("queued work must have a victim");
                    self.region_enter("rt:steal");
                    if my_node[v] != my_node[t] {
                        // Remote: take a batch off the victim's tail,
                        // preserving chunk order.
                        let k = pol.remote_batch.max(1).min(deques[v].len());
                        let mut tail = Vec::with_capacity(k);
                        for _ in 0..k {
                            tail.push(deques[v].pop_back().expect("victim emptied"));
                        }
                        tail.reverse();
                        deques[t].extend(tail);
                        self.charge_one(t, cm.steal_remote);
                        self.profile.thread_mut(t).bump(Event::RemoteSteals);
                    } else {
                        let c = deques[v].pop_back().expect("victim emptied");
                        deques[t].push_back(c);
                        self.charge_one(t, cm.steal_local);
                        self.profile.thread_mut(t).bump(Event::LocalSteals);
                    }
                    self.region_exit();
                    deques[t].pop_front().expect("thief's deque stocked")
                };
                if my_node[t] == self.hier[si].affinity[c] {
                    self.profile.thread_mut(t).bump(Event::AffinityHits);
                }
                active[t] = Some((c, 0));
            }
            let (c, off) = active[t].expect("selected thread has a chunk");
            let chunk = self.hier[si].chunks[c].clone();
            let start = chunk.start + off;
            let end = (start + self.quantum).min(chunk.end);
            let v = self.with_ctx(t, |ctx| body(ctx, start..end));
            partials[t] = red.combine(partials[t], v);
            if end == chunk.end {
                active[t] = None;
                if negotiate {
                    self.negotiate_chunk(si, c, t, &threads_on);
                }
            } else {
                active[t] = Some((c, off + (end - start)));
            }
        }
    }

    /// Chunk-completion negotiation. Drains the machine's hint samples;
    /// pages the completing thread's *core* touched (per-core tallies, so
    /// node-mates' concurrent chunks don't pollute the attribution)
    /// approximate the chunk's footprint. Work-follows-pages re-homes the
    /// chunk when a majority of that footprint lives on another
    /// (populated) node; pages-follow-work publishes `page → chunk home`
    /// hints the daemon weighs when judging migrations. All drained
    /// samples are stashed for the daemon regardless.
    fn negotiate_chunk(&mut self, si: usize, c: usize, t: usize, threads_on: &[Vec<usize>]) {
        let batch = self.machine.drain_hint_samples();
        let core = self.placement[t].min(MAX_CORES - 1);
        let mut home_tally = [0u64; MAX_NUMA_NODES];
        let mut touched: Vec<u64> = Vec::new();
        for (page, tally) in batch.iter_cores() {
            let weight = tally[core];
            if weight == 0 {
                continue;
            }
            let Some(tr) = self.aspace.page_table().probe(VirtAddr(page)) else {
                continue;
            };
            let home = self.machine.frames.node_of(tr.pa.frame_base(tr.size));
            home_tally[home.min(MAX_NUMA_NODES - 1)] += weight;
            touched.push(page);
        }
        self.hint_stash.merge(batch);
        if self.steal.work_follows_pages {
            let total: u64 = home_tally.iter().sum();
            let dominant = home_tally
                .iter()
                .enumerate()
                .max_by_key(|&(n, &v)| (v, std::cmp::Reverse(n)))
                .map(|(n, _)| n)
                .unwrap_or(0);
            // Majority of the footprint on one node, with enough evidence.
            if total >= 4 && home_tally[dominant] * 2 > total {
                let cur = self.hier[si].affinity[c];
                let populated = threads_on.get(dominant).is_some_and(|v| !v.is_empty());
                if dominant != cur && populated {
                    self.hier[si].affinity[c] = dominant;
                    // Deterministic spread over the node's threads.
                    let slots = &threads_on[dominant];
                    self.hier[si].owner[c] = slots[c % slots.len()];
                    self.profile.thread_mut(t).bump(Event::ChunkRehomes);
                }
            }
        }
        if self.steal.pages_follow_work {
            let home = self.hier[si].affinity[c];
            for &page in &touched {
                self.work_hints.insert(page, home);
            }
        }
    }

    /// Run `f` in logical thread `t`'s memory context.
    fn with_ctx<R>(&mut self, t: usize, f: impl FnOnce(&mut dyn MemoryCtx) -> R) -> R {
        f(&mut SimCtx::new(
            &mut self.machine,
            &mut self.aspace,
            self.profile.thread_mut(t),
            &mut self.clocks[t],
            &mut self.walkers[t],
            self.placement[t],
            t,
        ))
    }

    /// Join all threads at a barrier: everyone advances to the maximum
    /// clock plus the modelled barrier cost.
    fn barrier_sync(&mut self) {
        self.ensure_granted();
        self.region_enter("rt:barrier");
        let max = self.elapsed_cycles();
        let cost = self.machine.cost().barrier_cycles(self.threads);
        for t in 0..self.threads {
            let wait = max - self.clocks[t] + cost;
            let c = self.profile.thread_mut(t);
            c.bump(Event::Barriers);
            c.add(Event::BarrierCycles, wait);
            c.add(Event::Cycles, wait);
            self.clocks[t] = max + cost;
        }
        self.region_exit();
        self.daemon_step();
        // Attribution must never lose or invent an event: every region sum
        // equals the global counter, checked at each join in debug builds.
        #[cfg(debug_assertions)]
        if let Some(p) = &mut self.profiler {
            p.check_conservation(&self.profile);
        }
        // The barrier (and the daemon work it hosts) is the natural
        // scheduling point for gang-scheduled tenants: the machine is
        // still held here, so khugepaged above operated on real frames.
        self.maybe_slice_yield();
    }

    /// Extra page-table edits per edit when per-node replication is on:
    /// every edit is re-applied to each other node's replica.
    fn replica_edit_factor(&self) -> u64 {
        match &self.machine.config().numa {
            Some(n) if n.replicate_pt => n.nodes as u64 - 1,
            _ => 0,
        }
    }

    /// The NUMA hint samples not yet handed to a daemon: the machine's
    /// pending batch plus what the scheduler drained mid-loop.
    fn pending_hints(&mut self) -> HintSamples {
        let mut batch = self.machine.drain_hint_samples();
        batch.merge(std::mem::take(&mut self.hint_stash));
        batch
    }

    /// Run the barrier-time daemons (khugepaged, then the NUMA balancer)
    /// and charge their work to the simulated timeline through
    /// [`Self::daemon_episode`]. With replicated page tables every PTE
    /// edit a daemon makes is broadcast to the other nodes' replicas, so
    /// replication taxes the daemons too.
    fn daemon_step(&mut self) {
        let replica = self.replica_edit_factor();
        let costs = self.machine.cost().daemon_costs();
        if let Some(daemon) = &mut self.daemon {
            let out = daemon
                .scan(&mut self.aspace, &mut self.machine.frames, &costs)
                .expect("khugepaged scan failed");
            // Split the charge into the scan/collapse share and the
            // compaction share so each lands in its own region; the two
            // sum exactly to the single pre-split charge.
            let compact = out.compact_cycles + out.compact_pt_edits * replica * costs.pt_edit;
            let scan = (out.cycles - out.compact_cycles)
                + (out.pt_edits - out.compact_pt_edits) * replica * costs.pt_edit;
            let tallies = [
                (Event::PagesCollapsed, out.collapsed),
                (Event::PagesCompacted, out.compact_migrated),
                (Event::PagesDemoted, out.demoted),
            ];
            self.daemon_episode(
                "os:khugepaged",
                scan,
                compact,
                false,
                out.shootdown,
                &tallies,
            );
        }
        let Some(mut daemon) = self.numa_daemon.take() else {
            // No balancer: scheduler-drained samples and published hints
            // have no consumer; drop them so they can't grow unbounded.
            self.hint_stash = HintSamples::new();
            self.work_hints.clear();
            return;
        };
        daemon.absorb(self.pending_hints());
        if self.steal.pages_follow_work && !self.work_hints.is_empty() {
            daemon.set_work_hints(std::mem::take(&mut self.work_hints));
        }
        let out = daemon
            .scan(&mut self.aspace, &mut self.machine.frames, &costs)
            .expect("numa balancing scan failed");
        self.numa_daemon = Some(daemon);
        let cycles = out.cycles + out.pt_edits * replica * costs.pt_edit;
        let tallies = [(Event::PagesMigrated, out.migrated)];
        self.daemon_episode(
            "os:numa",
            cycles,
            0,
            out.migrated > 0,
            out.shootdown,
            &tallies,
        );
    }

    /// Charge one daemon invocation, in this order: enter `region` when it
    /// did anything, stall every core for `cycles`, then for `compact`
    /// inside a nested `os:compaction` region, mark the `numa-migration`
    /// instant, take the broadcast shootdown when a translation changed,
    /// and book the cycles and `tallies` on the master thread's sheet.
    fn daemon_episode(
        &mut self,
        region: &str,
        cycles: u64,
        compact: u64,
        migrated: bool,
        shootdown: bool,
        tallies: &[(Event, u64)],
    ) {
        let active = cycles + compact > 0 || shootdown;
        if active {
            self.region_enter(region);
        }
        if cycles > 0 {
            self.charge_all(cycles);
        }
        if compact > 0 {
            self.region_enter("os:compaction");
            self.charge_all(compact);
            self.region_exit();
        }
        if migrated {
            self.prof_instant("numa-migration", 0);
        }
        if shootdown {
            self.tlb_shootdown();
        }
        let c = self.profile.thread_mut(0);
        c.add(Event::DaemonCycles, cycles + compact);
        for &(event, n) in tallies {
            c.add(event, n);
        }
        if active {
            self.region_exit();
        }
    }

    /// Run a master-only (OpenMP `single`) section on thread 0, then join.
    fn single(&mut self, body: &mut dyn FnMut(&mut dyn MemoryCtx)) {
        self.ensure_granted();
        self.with_ctx(0, |ctx| body(ctx));
        self.barrier_sync();
    }
}

/// Run one loop on one OS thread per context: thread `t` takes
/// `ctxs[t]`, runs its own static chunks from `lists`, then claims chunks
/// from the shared `queue` through one atomic counter. Each chunk goes to
/// `body` `quantum` iterations at a time (an empty chunk once), and the
/// values fold into the thread's partial in execution order, as the
/// simulated engine folds them. Returns the per-thread partials.
fn fork_join<C: MemoryCtx + Send>(
    ctxs: Vec<C>,
    lists: &[Vec<Range<usize>>],
    queue: &[Range<usize>],
    quantum: usize,
    body: ReduceBody<'_>,
    red: Reduction,
) -> Vec<f64> {
    let next = AtomicUsize::new(0);
    let next = &next;
    std::thread::scope(|s| {
        let handles: Vec<_> = ctxs
            .into_iter()
            .enumerate()
            .map(|(t, mut ctx)| {
                s.spawn(move || {
                    let own = lists.get(t).into_iter().flatten().cloned();
                    let claimed = std::iter::from_fn(|| {
                        queue.get(next.fetch_add(1, Ordering::Relaxed)).cloned()
                    });
                    own.chain(claimed).fold(red.identity(), |mut acc, c| {
                        let mut start = c.start;
                        loop {
                            let end = c.end.min(start.saturating_add(quantum));
                            acc = red.combine(acc, body(&mut ctx, start..end));
                            start = end;
                            if start >= c.end {
                                return acc;
                            }
                        }
                    })
                })
            })
            .collect();
        // A worker's panic resurfaces with its own message (a capture's
        // bad access names the thread and the address).
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// A fork-join thread team bound to one of the engines.
pub enum Team {
    /// Real OS threads, no instrumentation.
    Native {
        /// Number of worker threads.
        threads: usize,
    },
    /// Logical threads over the machine model.
    Sim(Box<SimEngine>),
    /// Logical threads recording their reference streams, one OS thread
    /// each, with no machine underneath (see [`Team::into_recording`]).
    Capture(Box<CaptureState>),
}

impl Team {
    /// A native team of `threads` OS threads.
    pub fn native(threads: usize) -> Self {
        assert!(threads > 0);
        Team::Native { threads }
    }

    /// A simulated team around a prepared engine.
    pub fn simulated(engine: SimEngine) -> Self {
        Team::Sim(Box::new(engine))
    }

    /// Turn a simulated team, before it runs, into a recording team over
    /// the same address space, code walkers and quantum; the machine and
    /// everything else the engine held are dropped. The recording team
    /// runs static loops only: each logical thread's chunks are then
    /// fixed by the plan, so its stream does not depend on the machine.
    ///
    /// # Panics
    /// On a team that is not simulated.
    pub fn into_recording(self) -> Self {
        let Team::Sim(engine) = self else {
            panic!("a recording team starts from a simulated team");
        };
        let SimEngine {
            aspace,
            walkers,
            quantum,
            ..
        } = *engine;
        Team::Capture(Box::new(CaptureState::new(aspace, walkers, quantum)))
    }

    /// Team size.
    pub fn threads(&self) -> usize {
        match self {
            Team::Native { threads } => *threads,
            Team::Sim(e) => e.threads,
            Team::Capture(c) => c.threads(),
        }
    }

    /// The schedule a kernel's *annotated* loop should use: the engine's
    /// override when one is installed (see
    /// [`SimEngine::set_schedule_override`]), else `default`. Kernels
    /// whose loops hardcode a schedule are unaffected — opting in is what
    /// lets experiments swap policies without perturbing other kernels.
    pub fn schedule_or(&self, default: Schedule) -> Schedule {
        match self {
            Team::Sim(e) => e.sched_override.unwrap_or(default),
            _ => default,
        }
    }

    /// Borrow the simulated engine, if any.
    pub fn engine(&self) -> Option<&SimEngine> {
        match self {
            Team::Sim(e) => Some(e),
            _ => None,
        }
    }

    /// Mutably borrow the simulated engine, if any.
    pub fn engine_mut(&mut self) -> Option<&mut SimEngine> {
        match self {
            Team::Sim(e) => Some(e),
            _ => None,
        }
    }

    /// Run `f` inside a named profiling region: every counter increment
    /// while `f` executes is attributed to `name` (innermost wins when
    /// regions nest). A no-op without an attached profiler — kernels stay
    /// annotated on both engines at zero cost.
    ///
    /// Regions are control-flow scoped, entered and exited between
    /// parallel loops, so `f` receives the team back for its loops:
    ///
    /// ```ignore
    /// team.region("cg:matvec", |team| Self::matvec(team, d, 2));
    /// ```
    pub fn region<R>(&mut self, name: &str, f: impl FnOnce(&mut Team) -> R) -> R {
        match self {
            Team::Sim(e) => e.region_enter(name),
            Team::Capture(c) => c.region_enter(name),
            Team::Native { .. } => {}
        }
        let out = f(self);
        match self {
            Team::Sim(e) => e.region_exit(),
            Team::Capture(c) => c.region_exit(),
            Team::Native { .. } => {}
        }
        out
    }

    /// Per-region attribution so far (simulated teams with profiling on).
    pub fn region_sheet(&mut self) -> Option<ProfileSheet> {
        self.engine_mut().and_then(SimEngine::region_sheet)
    }

    /// Chrome `trace_event` JSON of the run so far (simulated teams
    /// profiling with [`ProfileSpec::Trace`]).
    pub fn trace_json(&self) -> Option<String> {
        self.engine().and_then(SimEngine::trace_json)
    }

    /// `#pragma omp parallel for schedule(...)` with an implicit barrier.
    pub fn parallel_for(&mut self, range: Range<usize>, schedule: Schedule, body: Body<'_>) {
        self.parallel_for_reduce(range, schedule, Reduction::Sum, &|ctx, r| {
            body(ctx, r);
            0.0
        });
    }

    /// `#pragma omp parallel for reduction(op)` with an implicit barrier.
    pub fn parallel_for_reduce(
        &mut self,
        range: Range<usize>,
        schedule: Schedule,
        red: Reduction,
        body: ReduceBody<'_>,
    ) -> f64 {
        let threads = self.threads();
        let p = plan(range, threads, schedule);
        let partials = match self {
            Team::Sim(e) => {
                let partials = e.run(&p, body, red);
                e.barrier_sync();
                partials
            }
            Team::Capture(c) => {
                let Plan::Fixed(lists) = p else {
                    panic!(
                        "a capture records static schedules only: {schedule:?} binds \
                         iterations to threads at run time, so the streams would depend \
                         on the machine"
                    );
                };
                let quantum = c.quantum();
                let partials = fork_join(c.ctxs(), &lists, &[], quantum, body, red);
                c.barrier();
                partials
            }
            Team::Native { .. } => {
                // The native engine has no simulated clock to order steals
                // by, so hierarchical plans degrade to true self-scheduling
                // over the same chunks (correctness-identical). Each chunk
                // is one body call.
                let (lists, queue) = match p {
                    Plan::Fixed(per) => (per, Vec::new()),
                    Plan::Queue(q) => (Vec::new(), q),
                    Plan::Hier(per) => (Vec::new(), per.into_iter().flatten().collect()),
                };
                let ctxs = (0..threads).map(NullCtx::new).collect();
                fork_join(ctxs, &lists, &queue, usize::MAX, body, red)
            }
        };
        partials
            .into_iter()
            .fold(red.identity(), |a, b| red.combine(a, b))
    }

    /// `#pragma omp parallel sections`: each section runs exactly once,
    /// distributed across the team (dynamic claiming), with the implicit
    /// barrier at the end.
    pub fn parallel_sections(&mut self, sections: &[Section<'_>]) {
        self.parallel_for(0..sections.len(), Schedule::Dynamic(1), &|ctx, r| {
            for i in r {
                sections[i](ctx);
            }
        });
    }

    /// `#pragma omp single`: `body` runs once (on the master), then all
    /// threads join.
    pub fn single(&mut self, body: &mut dyn FnMut(&mut dyn MemoryCtx)) {
        match self {
            Team::Sim(e) => e.single(body),
            Team::Capture(c) => {
                body(&mut c.ctxs()[0]);
                c.barrier();
            }
            Team::Native { .. } => {
                let mut ctx = NullCtx::new(0);
                body(&mut ctx);
            }
        }
    }

    /// Explicit barrier (`#pragma omp barrier`). Native teams synchronize
    /// implicitly at loop ends, so this is a no-op there.
    pub fn barrier(&mut self) {
        match self {
            Team::Sim(e) => e.barrier_sync(),
            Team::Capture(c) => c.barrier(),
            Team::Native { .. } => {}
        }
    }

    /// Critical-path cycles (simulated teams; 0 otherwise).
    pub fn elapsed_cycles(&self) -> u64 {
        self.engine().map_or(0, SimEngine::elapsed_cycles)
    }

    /// Critical-path seconds at the machine's clock (simulated teams).
    pub fn elapsed_seconds(&self) -> f64 {
        self.engine()
            .map_or(0.0, |e| e.machine.cost().seconds(e.elapsed_cycles()))
    }

    /// The run profile (simulated teams).
    pub fn profile(&self) -> Option<&Profile> {
        self.engine().map(SimEngine::profile)
    }

    /// Aggregate counters (simulated teams; empty otherwise).
    pub fn aggregate_counters(&self) -> Counters {
        self.profile().map(Profile::aggregate).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::ShVec;
    use lpomp_machine::opteron_2x2;
    use lpomp_vm::{Backing, PageSize, Populate, PteFlags, VirtAddr};

    fn sim_team(threads: usize) -> (Team, VirtAddr) {
        let mut machine = Machine::new(opteron_2x2());
        let mut aspace = AddressSpace::new(&mut machine.frames).unwrap();
        let code = aspace
            .mmap_fixed(
                &mut machine.frames,
                VirtAddr(0x40_0000),
                1 << 20,
                PageSize::Small4K,
                PteFlags::rx(),
                Backing::Anonymous,
                Populate::Eager,
                "code",
            )
            .unwrap();
        let data = aspace
            .mmap(
                &mut machine.frames,
                16 << 20,
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::Eager,
                "data",
            )
            .unwrap();
        let walker = CodeWalker::new(code, 1 << 20, 64 << 10, 1000);
        let engine = SimEngine::new(machine, aspace, threads, walker, DEFAULT_QUANTUM);
        (Team::simulated(engine), data)
    }

    /// The message of the panic `f` raises.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("expected a panic");
        *err.downcast::<String>().expect("a formatted panic message")
    }

    #[test]
    fn capture_rejects_schedules_bound_at_run_time() {
        for schedule in [
            Schedule::Dynamic(16),
            Schedule::Guided(4),
            Schedule::Hierarchical { chunk: 16 },
        ] {
            let mut team = sim_team(2).0.into_recording();
            let msg = panic_message(|| team.parallel_for(0..100, schedule, &|_, _| {}));
            assert!(
                msg.contains("a capture records static schedules only"),
                "{schedule:?}: {msg}"
            );
        }
    }

    #[test]
    fn capture_access_outside_every_mapping_names_thread_and_address() {
        let mut team = sim_team(2).0.into_recording();
        let stray = VirtAddr(0x1000); // below the code mapping
        let msg = panic_message(|| {
            team.parallel_for(0..64, Schedule::Static, &|ctx, r| {
                if r.contains(&40) {
                    ctx.read(stray);
                }
            })
        });
        assert_eq!(
            msg,
            format!("thread 1 at {stray}: address {stray} not mapped")
        );
    }

    #[test]
    fn capture_store_into_code_names_thread_and_address() {
        let mut team = sim_team(2).0.into_recording();
        let code = VirtAddr(0x40_0040);
        // Loads from the code mapping are fine; the store is not.
        team.parallel_for(0..64, Schedule::Static, &|ctx, _| ctx.read(code));
        let msg = panic_message(|| {
            team.parallel_for(0..64, Schedule::Static, &|ctx, r| {
                if r.contains(&40) {
                    ctx.write_streamed(code);
                }
            })
        });
        assert_eq!(
            msg,
            format!("thread 1 at {code}: protection violation at {code}")
        );
    }

    #[test]
    fn native_parallel_for_computes_correctly() {
        let mut team = Team::native(4);
        let v: ShVec<f64> = ShVec::new(1000, VirtAddr(0x1000));
        team.parallel_for(0..1000, Schedule::Static, &|ctx, r| {
            for i in r {
                v.set(ctx, i, (i * 2) as f64);
            }
        });
        for i in 0..1000 {
            assert_eq!(v.get_raw(i), (i * 2) as f64);
        }
    }

    #[test]
    fn native_reduction_sums() {
        let mut team = Team::native(3);
        let s = team.parallel_for_reduce(1..101, Schedule::Dynamic(7), Reduction::Sum, &|_, r| {
            r.map(|i| i as f64).sum()
        });
        assert_eq!(s, 5050.0);
    }

    #[test]
    fn native_reduction_max_min() {
        let mut team = Team::native(4);
        let mx = team.parallel_for_reduce(0..100, Schedule::Static, Reduction::Max, &|_, r| {
            r.map(|i| i as f64).fold(f64::NEG_INFINITY, f64::max)
        });
        assert_eq!(mx, 99.0);
        let mn = team.parallel_for_reduce(5..100, Schedule::Guided(4), Reduction::Min, &|_, r| {
            r.map(|i| i as f64).fold(f64::INFINITY, f64::min)
        });
        assert_eq!(mn, 5.0);
    }

    #[test]
    fn sim_parallel_for_computes_and_charges_time() {
        let (mut team, data) = sim_team(4);
        let v: ShVec<f64> = ShVec::new(10_000, data);
        team.parallel_for(0..10_000, Schedule::Static, &|ctx, r| {
            for i in r {
                v.set(ctx, i, i as f64);
                ctx.compute(4);
            }
        });
        for i in 0..10_000 {
            assert_eq!(v.get_raw(i), i as f64);
        }
        assert!(team.elapsed_cycles() > 10_000);
        let agg = team.aggregate_counters();
        assert_eq!(agg.get(Event::Stores), 10_000);
        assert_eq!(agg.get(Event::Barriers), 4);
    }

    #[test]
    fn sim_reduction_matches_native() {
        let (mut team, _) = sim_team(3);
        let s = team.parallel_for_reduce(1..101, Schedule::Static, Reduction::Sum, &|_, r| {
            r.map(|i| i as f64).sum()
        });
        assert_eq!(s, 5050.0);
    }

    #[test]
    fn sim_every_schedule_runs_each_iteration_once() {
        let schedules = [
            Schedule::Static,
            Schedule::StaticChunk(7),
            Schedule::Dynamic(16),
            Schedule::Guided(3),
            Schedule::Hierarchical { chunk: 16 },
        ];
        // Empty ranges, ranges shorter than the team, and long ones.
        let ranges = [0..0, 9..9, 5..7, 3..6, 0..503, 40..301];
        for threads in 1..=4 {
            let (mut team, data) = sim_team(threads);
            let runs: ShVec<u64> = ShVec::new(512, data);
            let ran_on: ShVec<u64> = ShVec::new(512, data.add(4096));
            for schedule in schedules {
                for range in ranges.clone() {
                    runs.fill_raw(0);
                    team.parallel_for(range.clone(), schedule, &|ctx, r| {
                        let me = ctx.thread_id() as u64;
                        for i in r {
                            let cur = runs.get(ctx, i);
                            runs.set(ctx, i, cur + 1);
                            ran_on.set(ctx, i, me);
                        }
                    });
                    let case = format!("{schedule:?} {range:?} t{threads}");
                    for i in 0..512 {
                        let want = u64::from(range.contains(&i));
                        assert_eq!(runs.get_raw(i), want, "{case}: iteration {i}");
                    }
                    // Static chunks run on the thread the plan gave them.
                    if let Plan::Fixed(per) = plan(range.clone(), threads, schedule) {
                        for (t, chunks) in per.iter().enumerate() {
                            for i in chunks.iter().flat_map(Range::clone) {
                                assert_eq!(ran_on.get_raw(i), t as u64, "{case}: iteration {i}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn more_threads_less_time() {
        let run = |threads: usize| {
            let (mut team, data) = sim_team(threads);
            let v: ShVec<f64> = ShVec::new(100_000, data);
            team.parallel_for(0..100_000, Schedule::Static, &|ctx, r| {
                for i in r {
                    v.set(ctx, i, 1.0);
                    ctx.compute(8);
                }
            });
            team.elapsed_cycles()
        };
        let t1 = run(1);
        let t4 = run(4);
        assert!(
            t4 * 2 < t1,
            "4 threads ({t4}) should be at least 2x faster than 1 ({t1})"
        );
    }

    #[test]
    fn barrier_aligns_clocks() {
        let (mut team, data) = sim_team(2);
        let v: ShVec<f64> = ShVec::new(1000, data);
        // Imbalanced loop: thread 0 does nothing, thread 1 works.
        team.parallel_for(0..1000, Schedule::Static, &|ctx, r| {
            for i in r {
                if i >= 500 {
                    v.set(ctx, i, 1.0);
                    ctx.compute(100);
                }
            }
        });
        let e = team.engine().unwrap();
        assert_eq!(e.clocks[0], e.clocks[1], "barrier must align clocks");
        let p = team.profile().unwrap();
        assert!(p.thread(0).get(Event::BarrierCycles) > 0);
    }

    #[test]
    fn single_runs_once_and_joins() {
        let (mut team, data) = sim_team(4);
        let v: ShVec<u64> = ShVec::new(1, data);
        team.single(&mut |ctx| {
            let cur = v.get(ctx, 0);
            v.set(ctx, 0, cur + 1);
        });
        assert_eq!(v.get_raw(0), 1);
        let e = team.engine().unwrap();
        let c0 = e.clocks[0];
        assert!(e.clocks.iter().all(|&c| c == c0));
    }

    #[test]
    fn reset_timing_zeroes_clocks_but_keeps_warm_state() {
        let (mut team, data) = sim_team(2);
        let v: ShVec<f64> = ShVec::new(100, data);
        team.parallel_for(0..100, Schedule::Static, &|ctx, r| {
            for i in r {
                v.set(ctx, i, 1.0);
            }
        });
        assert!(team.elapsed_cycles() > 0);
        team.engine_mut().unwrap().reset_timing();
        assert_eq!(team.elapsed_cycles(), 0);
        assert_eq!(team.aggregate_counters().get(Event::Stores), 0);
    }

    #[test]
    fn parallel_sections_run_each_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let counters: Vec<AtomicU32> = (0..5).map(|_| AtomicU32::new(0)).collect();
        let mut team = Team::native(3);
        type BoxedSection<'a> = Box<dyn Fn(&mut dyn MemoryCtx) + Sync + 'a>;
        let sections: Vec<BoxedSection<'_>> = (0..5)
            .map(|i| {
                let c = &counters[i];
                Box::new(move |_: &mut dyn MemoryCtx| {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as BoxedSection<'_>
            })
            .collect();
        let refs: Vec<Section<'_>> = sections.iter().map(|b| b.as_ref()).collect();
        team.parallel_sections(&refs);
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "section {i}");
        }
    }

    #[test]
    fn sim_parallel_sections_distribute_across_threads() {
        let (mut team, data) = sim_team(4);
        let v: ShVec<u64> = ShVec::new(8, data);
        type BoxedSection<'a> = Box<dyn Fn(&mut dyn MemoryCtx) + Sync + 'a>;
        let sections: Vec<BoxedSection<'_>> = (0..8)
            .map(|i| {
                let v = &v;
                Box::new(move |ctx: &mut dyn MemoryCtx| {
                    let owner = (ctx.thread_id() + 1) as u64;
                    v.set(ctx, i, owner);
                    ctx.compute(1000);
                }) as BoxedSection<'_>
            })
            .collect();
        let refs: Vec<Section<'_>> = sections.iter().map(|b| b.as_ref()).collect();
        team.parallel_sections(&refs);
        // Every section ran (nonzero marker), and more than one thread
        // participated.
        let owners: std::collections::HashSet<u64> = (0..8).map(|i| v.get_raw(i)).collect();
        assert!(!owners.contains(&0));
        assert!(owners.len() > 1, "sections all ran on one thread");
    }

    #[test]
    fn khugepaged_runs_at_barriers_and_is_charged() {
        use lpomp_vm::{AccessKind, KhugepagedConfig, PageSize as Ps};
        let (mut team, data) = sim_team(4);
        team.engine_mut()
            .unwrap()
            .enable_khugepaged(KhugepagedConfig::default());
        let v: ShVec<f64> = ShVec::new(10_000, data);
        // Several loops → several barriers → several daemon scans.
        for _ in 0..8 {
            team.parallel_for(0..10_000, Schedule::Static, &|ctx, r| {
                for i in r {
                    v.set(ctx, i, i as f64);
                }
            });
        }
        for i in 0..10_000 {
            assert_eq!(v.get_raw(i), i as f64);
        }
        let e = team.engine_mut().unwrap();
        // The eagerly populated 16 MB data region got collapsed…
        let t = e
            .aspace
            .access(&mut e.machine.frames, data, AccessKind::Read)
            .unwrap()
            .translation();
        assert_eq!(t.size, Ps::Large2M);
        let d = e.daemon().unwrap();
        assert!(d.totals().collapsed >= 8, "16 MB = 8 chunks");
        assert!(d.is_idle(), "steady state must go idle");
        // …and the work is visible in the profile, charged to the clock.
        let p = team.profile().unwrap();
        assert!(p.thread(0).get(Event::PagesCollapsed) >= 8);
        assert!(p.thread(0).get(Event::DaemonCycles) > 0);
        assert!(p.thread(0).get(Event::TlbShootdowns) >= 1);
    }

    #[test]
    fn numa_daemon_migrates_remote_pages_at_barriers() {
        use lpomp_machine::{NumaConfig, NumaPlacement};
        use lpomp_vm::NumaDaemonConfig;
        let mut cfg = opteron_2x2();
        cfg.numa = Some(NumaConfig::opteron(NumaPlacement::MasterNode));
        let mut machine = Machine::new(cfg);
        let mut aspace = AddressSpace::new(&mut machine.frames).unwrap();
        let code = aspace
            .mmap_fixed(
                &mut machine.frames,
                VirtAddr(0x40_0000),
                1 << 20,
                PageSize::Small4K,
                PteFlags::rx(),
                Backing::Anonymous,
                Populate::Eager,
                "code",
            )
            .unwrap();
        // Eagerly populated with no placement policy: the whole 8 MB heap
        // starts on node 0, like master-thread initialization would leave it.
        let data = aspace
            .mmap(
                &mut machine.frames,
                8 << 20,
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::Eager,
                "data",
            )
            .unwrap();
        let walker = CodeWalker::new(code, 1 << 20, 64 << 10, 1000);
        let engine = SimEngine::new(machine, aspace, 4, walker, DEFAULT_QUANTUM);
        let mut team = Team::simulated(engine);
        team.engine_mut()
            .unwrap()
            .enable_numa_daemon(NumaDaemonConfig::default());
        let n = (8 << 20) / 8;
        let v: ShVec<f64> = ShVec::new(n, data);
        // Static partitioning puts the upper half of the heap under
        // threads 2 and 3, which run on chip 1 = node 1: persistently
        // remote, so the balancer must move their partitions over.
        for _ in 0..8 {
            team.parallel_for(0..n, Schedule::Static, &|ctx, r| {
                for i in r {
                    v.set(ctx, i, i as f64);
                }
            });
        }
        for i in (0..n).step_by(997) {
            assert_eq!(v.get_raw(i), i as f64);
        }
        let agg = team.aggregate_counters();
        assert!(agg.get(Event::NumaHintFaults) > 0, "sampling must be live");
        let p = team.profile().unwrap();
        assert!(p.thread(0).get(Event::PagesMigrated) > 0);
        assert!(p.thread(0).get(Event::DaemonCycles) > 0);
        assert!(p.thread(0).get(Event::TlbShootdowns) >= 1);
        let e = team.engine().unwrap();
        assert!(e.numa_daemon().unwrap().totals().migrated > 0);
        // A page deep in thread 3's partition now lives on node 1.
        let probe = data.add((8 << 20) * 7 / 8);
        let t = e.aspace.page_table().probe(probe).unwrap();
        assert_eq!(e.machine.frames.node_of(t.pa), 1);
    }

    #[test]
    fn empty_range_is_fine_on_both_engines() {
        let mut nat = Team::native(4);
        nat.parallel_for(10..10, Schedule::Static, &|_, _| panic!("no work"));
        let (mut sim, _) = sim_team(2);
        sim.parallel_for(10..10, Schedule::Dynamic(4), &|_, _| panic!("no work"));
        let (mut sim, _) = sim_team(2);
        sim.parallel_for(10..10, Schedule::Hierarchical { chunk: 4 }, &|_, _| {
            panic!("no work")
        });
    }

    #[test]
    fn hierarchical_covers_iterations_steals_and_conserves() {
        let (mut team, data) = sim_team(4);
        team.engine_mut()
            .unwrap()
            .enable_profiling(ProfileSpec::Regions);
        let v: ShVec<f64> = ShVec::new(4096, data);
        // Skewed load: late iterations are far dearer, so the static
        // seeding leaves thread 3 overloaded and the others must steal.
        team.parallel_for(0..4096, Schedule::Hierarchical { chunk: 64 }, &|ctx, r| {
            for i in r {
                v.set(ctx, i, i as f64);
                ctx.compute((i as u64) / 4);
            }
        });
        for i in 0..4096 {
            assert_eq!(v.get_raw(i), i as f64, "iteration {i}");
        }
        let agg = team.aggregate_counters();
        let steals = agg.get(Event::LocalSteals) + agg.get(Event::RemoteSteals);
        assert!(steals > 0, "the skew must trigger steals");
        assert!(agg.get(Event::AffinityHits) > 0, "owned chunks count hits");
        let sheet = team.region_sheet().unwrap();
        let steal_region = sheet.by_name("rt:steal").expect("rt:steal attributed");
        assert!(sheet.region_total(steal_region).get(Event::Cycles) > 0);
        assert_eq!(sheet.total(), agg, "conservation with rt:steal present");
    }

    #[test]
    fn hierarchical_native_and_reductions_agree() {
        let mut nat = Team::native(4);
        let s = nat.parallel_for_reduce(
            1..101,
            Schedule::Hierarchical { chunk: 8 },
            Reduction::Sum,
            &|_, r| r.map(|i| i as f64).sum(),
        );
        assert_eq!(s, 5050.0);
        let (mut sim, _) = sim_team(3);
        let m = sim.parallel_for_reduce(
            0..1000,
            Schedule::Hierarchical { chunk: 16 },
            Reduction::Max,
            &|_, r| r.map(|i| i as f64).fold(f64::NEG_INFINITY, f64::max),
        );
        assert_eq!(m, 999.0);
    }

    #[test]
    fn hierarchical_profiling_never_perturbs() {
        let run = |spec: Option<ProfileSpec>| {
            let (mut team, data) = sim_team(4);
            if let Some(s) = spec {
                team.engine_mut().unwrap().enable_profiling(s);
            }
            let v: ShVec<f64> = ShVec::new(5000, data);
            team.region("work", |team| {
                team.parallel_for(0..5000, Schedule::Hierarchical { chunk: 64 }, &|ctx, r| {
                    for i in r {
                        v.set(ctx, i, 1.0);
                        ctx.compute(i as u64 / 16);
                    }
                });
            });
            (team.elapsed_cycles(), team.aggregate_counters())
        };
        let bare = run(None);
        assert_eq!(bare, run(Some(ProfileSpec::Regions)));
        assert_eq!(bare, run(Some(ProfileSpec::Trace)));
    }

    #[test]
    fn hierarchical_runs_are_deterministic() {
        let run = || {
            let (mut team, data) = sim_team(4);
            let v: ShVec<f64> = ShVec::new(8192, data);
            for _ in 0..3 {
                team.parallel_for(0..8192, Schedule::Hierarchical { chunk: 32 }, &|ctx, r| {
                    for i in r {
                        v.set(ctx, i, i as f64);
                        ctx.compute(i as u64 / 8);
                    }
                });
            }
            (team.elapsed_cycles(), team.aggregate_counters())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn work_follows_pages_rehomes_remote_chunks() {
        use lpomp_machine::{NumaConfig, NumaPlacement};
        let mut cfg = opteron_2x2();
        cfg.numa = Some(NumaConfig::opteron(NumaPlacement::MasterNode));
        let mut machine = Machine::new(cfg);
        let mut aspace = AddressSpace::new(&mut machine.frames).unwrap();
        let code = aspace
            .mmap_fixed(
                &mut machine.frames,
                VirtAddr(0x40_0000),
                1 << 20,
                PageSize::Small4K,
                PteFlags::rx(),
                Backing::Anonymous,
                Populate::Eager,
                "code",
            )
            .unwrap();
        // The whole 4 MB heap starts on node 0 (master-node placement):
        // chunks seeded to node 1's threads find all their pages remote.
        let data = aspace
            .mmap(
                &mut machine.frames,
                4 << 20,
                PageSize::Small4K,
                PteFlags::rw(),
                Backing::Anonymous,
                Populate::Eager,
                "data",
            )
            .unwrap();
        let walker = CodeWalker::new(code, 1 << 20, 64 << 10, 1000);
        let engine = SimEngine::new(machine, aspace, 4, walker, DEFAULT_QUANTUM);
        let mut team = Team::simulated(engine);
        let n = (4 << 20) / 8;
        let v: ShVec<f64> = ShVec::new(n, data);
        for _ in 0..4 {
            team.parallel_for(0..n, Schedule::Hierarchical { chunk: 2048 }, &|ctx, r| {
                for i in r {
                    v.set(ctx, i, i as f64);
                }
            });
        }
        for i in (0..n).step_by(997) {
            assert_eq!(v.get_raw(i), i as f64);
        }
        let agg = team.aggregate_counters();
        assert!(agg.get(Event::NumaHintFaults) > 0, "sampling must be live");
        assert!(
            agg.get(Event::ChunkRehomes) > 0,
            "all-remote chunks must re-home toward their pages"
        );
    }

    #[test]
    fn steal_policy_ablation_flags_disable_negotiation() {
        let (mut team, data) = sim_team(4);
        let e = team.engine_mut().unwrap();
        e.set_steal_policy(StealPolicy {
            work_follows_pages: false,
            pages_follow_work: false,
            ..StealPolicy::default()
        });
        assert!(!e.steal_policy().work_follows_pages);
        let v: ShVec<f64> = ShVec::new(4096, data);
        team.parallel_for(0..4096, Schedule::Hierarchical { chunk: 64 }, &|ctx, r| {
            for i in r {
                v.set(ctx, i, 1.0);
                ctx.compute(i as u64 / 4);
            }
        });
        let agg = team.aggregate_counters();
        // No negotiation: no sampling turned on, no re-homes published.
        assert_eq!(agg.get(Event::ChunkRehomes), 0);
        assert_eq!(agg.get(Event::NumaHintFaults), 0);
    }

    #[test]
    fn schedule_override_is_consulted_only_via_schedule_or() {
        let (mut team, _) = sim_team(2);
        assert_eq!(team.schedule_or(Schedule::Static), Schedule::Static);
        team.engine_mut()
            .unwrap()
            .set_schedule_override(Some(Schedule::Hierarchical { chunk: 32 }));
        assert_eq!(
            team.schedule_or(Schedule::Static),
            Schedule::Hierarchical { chunk: 32 }
        );
        assert_eq!(
            team.engine().unwrap().schedule_override(),
            Some(Schedule::Hierarchical { chunk: 32 })
        );
        // Native teams never override.
        let nat = Team::native(2);
        assert_eq!(nat.schedule_or(Schedule::Static), Schedule::Static);
    }

    #[test]
    fn regions_attribute_work_and_conserve_counters() {
        let (mut team, data) = sim_team(4);
        team.engine_mut()
            .unwrap()
            .enable_profiling(ProfileSpec::Regions);
        let v: ShVec<f64> = ShVec::new(10_000, data);
        team.region("init", |team| {
            team.parallel_for(0..10_000, Schedule::Static, &|ctx, r| {
                for i in r {
                    v.set(ctx, i, i as f64);
                }
            });
        });
        team.region("sum", |team| {
            team.parallel_for_reduce(0..10_000, Schedule::Static, Reduction::Sum, &|ctx, r| {
                r.map(|i| v.get(ctx, i)).sum()
            })
        });
        let sheet = team.region_sheet().unwrap();
        let init = sheet.by_name("init").unwrap();
        let sum = sheet.by_name("sum").unwrap();
        // Stores belong to init, loads to sum; barrier waits went to the
        // automatic rt:barrier region nested inside each.
        assert_eq!(sheet.region_total(init).get(Event::Stores), 10_000);
        assert_eq!(sheet.region_total(init).get(Event::Loads), 0);
        assert_eq!(sheet.region_total(sum).get(Event::Loads), 10_000);
        let barrier = sheet.by_name("rt:barrier").unwrap();
        assert_eq!(sheet.region_total(barrier).get(Event::Barriers), 8);
        // Exact conservation against the global profile.
        assert_eq!(sheet.total(), team.aggregate_counters());
    }

    #[test]
    fn profiling_never_perturbs_the_run() {
        let run = |spec: Option<ProfileSpec>| {
            let (mut team, data) = sim_team(4);
            if let Some(s) = spec {
                team.engine_mut().unwrap().enable_profiling(s);
            }
            let v: ShVec<f64> = ShVec::new(5000, data);
            team.region("work", |team| {
                team.parallel_for(0..5000, Schedule::Dynamic(64), &|ctx, r| {
                    for i in r {
                        v.set(ctx, i, 1.0);
                        ctx.compute(3);
                    }
                });
            });
            (team.elapsed_cycles(), team.aggregate_counters())
        };
        let bare = run(None);
        assert_eq!(bare, run(Some(ProfileSpec::Regions)));
        assert_eq!(bare, run(Some(ProfileSpec::Trace)));
    }

    #[test]
    fn daemon_episodes_get_their_own_regions() {
        use lpomp_vm::KhugepagedConfig;
        let (mut team, data) = sim_team(4);
        let e = team.engine_mut().unwrap();
        e.enable_khugepaged(KhugepagedConfig::default());
        e.enable_profiling(ProfileSpec::Trace);
        let v: ShVec<f64> = ShVec::new(10_000, data);
        for _ in 0..8 {
            team.region("loop", |team| {
                team.parallel_for(0..10_000, Schedule::Static, &|ctx, r| {
                    for i in r {
                        v.set(ctx, i, i as f64);
                    }
                });
            });
        }
        let sheet = team.region_sheet().unwrap();
        let os = sheet.by_name("os:khugepaged").unwrap();
        let os_total = sheet.region_total(os);
        assert!(os_total.get(Event::Cycles) > 0, "daemon work attributed");
        assert!(os_total.get(Event::TlbShootdowns) >= 1);
        assert_eq!(sheet.total(), team.aggregate_counters());
        // The timeline saw the collapse episodes and their shootdowns.
        let json = team.trace_json().unwrap();
        let doc = lpomp_prof::parse_json(&json).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(lpomp_prof::Json::as_arr)
            .unwrap();
        let named = |n: &str, ph: &str| {
            events.iter().any(|e| {
                e.get("name").and_then(lpomp_prof::Json::as_str) == Some(n)
                    && e.get("ph").and_then(lpomp_prof::Json::as_str) == Some(ph)
            })
        };
        assert!(named("os:khugepaged", "B"));
        assert!(named("rt:barrier", "B"));
        assert!(named("loop", "B"));
        assert!(named("tlb-shootdown", "i"));
        assert!(named("core 0 thread 0", "M") || named("thread_name", "M"));
    }

    #[test]
    fn reset_timing_clears_attribution_too() {
        let (mut team, data) = sim_team(2);
        team.engine_mut()
            .unwrap()
            .enable_profiling(ProfileSpec::Regions);
        let v: ShVec<f64> = ShVec::new(100, data);
        team.region("warmup", |team| {
            team.parallel_for(0..100, Schedule::Static, &|ctx, r| {
                for i in r {
                    v.set(ctx, i, 0.0);
                }
            });
        });
        team.engine_mut().unwrap().reset_timing();
        let sheet = team.region_sheet().unwrap();
        assert_eq!(sheet.total(), Counters::new());
        assert_eq!(sheet.total(), team.aggregate_counters());
    }
}
