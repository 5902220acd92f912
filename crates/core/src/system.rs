//! System assembly: machine + OS objects + runtime = a ready-to-run team.
//!
//! This is the modified Omni/SCASH of the paper's §3.3, end to end:
//!
//! 1. build the platform model (`lpomp-machine`);
//! 2. map the application **code segment** (Table 2 binary size, 4 KB
//!    pages — §4.3 shows ITLB misses are negligible so code stays small-
//!    paged);
//! 3. create the shared map file the node's processes share, taking all
//!    its pages at "boot": **hugetlbfs** large pages for the 2 MB policy,
//!    base-granule pages for the 4 KB baseline;
//! 4. map the shared heap, **prefaulting** it per the paper's
//!    preallocation argument (or demand-faulting for the ablation);
//! 5. map the 4 KB-paged **mailbox file** for the intra-node message
//!    layer;
//! 6. hand the kernel a region allocator (the Omni global-array
//!    transformation target) and build the simulated fork-join team.

use crate::policy::{PagePolicy, PopulatePolicy};
use lpomp_machine::{AsidMode, CodeWalker, Machine, MachineConfig, NumaConfig};
use lpomp_npb::{verify_close, AppKind, Class, CodeProfile, Kernel};
use lpomp_prof::{Counters, ProfileSpec};
use lpomp_runtime::{
    run_tenants, BumpAllocator, Schedule, SimEngine, StealPolicy, Team, TenantTask, DEFAULT_QUANTUM,
};
use lpomp_vm::{
    promote_region, AddressSpace, Arch, Backing, KhugepagedConfig, MMArch, NodePolicy,
    NumaDaemonConfig, PageSize, PromotionReport, PteFlags, SharedSegment, VirtAddr, VmResult,
};

/// Fixed base of the code segment (conventional ELF text base).
pub(crate) const CODE_BASE: VirtAddr = VirtAddr(0x40_0000);
/// Shared-region slack beyond the kernel's declared footprint.
const HEAP_SLACK_NUM: u64 = 11;
const HEAP_SLACK_DEN: u64 = 10;
/// Size of the 4 KB region backing small allocations under `Mixed`.
const MIXED_SMALL_REGION: u64 = 16 * 1024 * 1024;
/// Mailbox file size (paper: 32 slots × 1 KB per channel, 8 processes).
const MAILBOX_BYTES: u64 = 8 * 8 * 32 * 1024;
/// Default tenant timeslice: 1 ms at the platforms' 2 GHz clock — the
/// order of a CFS scheduling period for a busy runqueue.
pub const DEFAULT_TIMESLICE: u64 = 2_000_000;

/// One tenant of a multi-tenant machine: which kernel it runs and with
/// how many threads.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Report label ("batch", "latency-0", ...).
    pub name: String,
    /// The NPB kernel this tenant runs.
    pub app: AppKind,
    /// Problem class.
    pub class: Class,
    /// Team size (gang-scheduled: all threads run together or not at
    /// all).
    pub threads: usize,
}

impl TenantSpec {
    /// Convenience constructor.
    pub fn new(name: &str, app: AppKind, class: Class, threads: usize) -> Self {
        TenantSpec {
            name: name.to_owned(),
            app,
            class,
            threads,
        }
    }
}

/// Multi-tenant configuration: the tenants and how they are scheduled.
#[derive(Clone, Debug)]
pub struct TenancyConfig {
    /// The colocated tenants, scheduled round-robin in spec order.
    /// Tenant `i` gets ASID `i`.
    pub tenants: Vec<TenantSpec>,
    /// Slice length in cycles.
    pub timeslice_cycles: u64,
    /// TLB handling across context switches.
    pub asid_mode: AsidMode,
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig {
            tenants: Vec::new(),
            timeslice_cycles: DEFAULT_TIMESLICE,
            asid_mode: AsidMode::Tagged,
        }
    }
}

/// Configuration of one simulated system instance.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Platform preset.
    pub machine: MachineConfig,
    /// Page size policy for the shared heap.
    pub policy: PagePolicy,
    /// Startup preallocation vs demand faulting.
    pub populate: PopulatePolicy,
    /// Logical threads.
    pub threads: usize,
    /// Back a base-granule heap with *private anonymous* memory instead
    /// of a shared map file (a heap above the base granule stays a
    /// hugetlbfs file). Required for [`System::promote_heap`] (the THP
    /// extension E2): the kernel never collapses file-backed pages.
    pub private_heap: bool,
    /// Attach an incremental khugepaged daemon to the engine: a budgeted
    /// scan runs at every barrier, collapsing chunks (and compacting when
    /// fragmented) instead of the stop-the-world
    /// [`System::promote_heap`].
    pub khugepaged: Option<KhugepagedConfig>,
    /// Attach an AutoNUMA-style balancing daemon: hinting samples are
    /// recorded during execution and pages with persistently remote
    /// accessors are migrated at barriers. Only meaningful when the
    /// machine has a NUMA configuration.
    pub numa_daemon: Option<NumaDaemonConfig>,
    /// Attach the region-attribution profiler (and, for
    /// [`ProfileSpec::Trace`], the timeline recorder). Observational
    /// only: profiled runs are cycle-identical to unprofiled ones.
    pub profile: ProfileSpec,
    /// Multi-tenant mode: colocate several processes on the one machine
    /// under a timeslice scheduler (build with
    /// [`SystemBuilder::build_tenants`]). `None` — the classic
    /// single-process system. All other axes (policy, populate, daemons,
    /// profile) apply to *every* tenant; `threads` is overridden
    /// per-tenant by each [`TenantSpec`].
    pub tenancy: Option<TenancyConfig>,
    /// Loop-schedule override consulted by kernels that schedule through
    /// [`Team::schedule_or`] (the iterative phases of the scheduler-study
    /// kernels). `None` leaves every loop on its kernel-chosen default,
    /// so classic systems are bit-identical to pre-override builds.
    pub schedule: Option<Schedule>,
    /// Work-stealing knobs for [`Schedule::Hierarchical`] loops: remote
    /// batch size and the two scheduler↔memory negotiation directions.
    pub steal: StealPolicy,
}

/// Fluent assembly of a simulated system — the one front door to every
/// configuration axis (page policy, population, daemons, NUMA,
/// profiling). Start from [`System::builder`]:
///
/// ```
/// use lpomp_core::{PagePolicy, System};
/// use lpomp_machine::opteron_2x2;
/// use lpomp_npb::{AppKind, Class};
///
/// let mut kernel = AppKind::Cg.build(Class::S);
/// let mut sys = System::builder(opteron_2x2())
///     .threads(4)
///     .policy(PagePolicy::Large2M)
///     .build(kernel.as_mut())
///     .unwrap();
/// let checksum = kernel.run(&mut sys.team);
/// assert!(kernel.verify(checksum));
/// ```
///
/// Defaults: 1 thread, 4 KB pages, startup prefaulting, no daemons, no
/// profiling — each method overrides one axis and returns the builder.
#[derive(Clone, Debug)]
pub struct SystemBuilder {
    cfg: SystemConfig,
}

impl SystemBuilder {
    /// A builder with the defaults above on the given platform.
    pub fn new(machine: MachineConfig) -> Self {
        SystemBuilder {
            cfg: SystemConfig {
                machine,
                policy: PagePolicy::Small4K,
                populate: PopulatePolicy::Prefault,
                threads: 1,
                private_heap: false,
                khugepaged: None,
                numa_daemon: None,
                profile: ProfileSpec::Off,
                tenancy: None,
                schedule: None,
                steal: StealPolicy::default(),
            },
        }
    }

    /// Number of logical threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Page-size policy for the shared heap.
    pub fn policy(mut self, policy: PagePolicy) -> Self {
        self.cfg.policy = policy;
        self
    }

    /// Re-equip the platform with a different translation architecture:
    /// the machine's data and instruction TLBs are swapped for the
    /// canonical geometry of `arch` ([`lpomp_tlb::default_tlbs`]), which
    /// also changes the page-table shape, the page-size ladder and the
    /// walk costs. A no-op when the machine already runs `arch`, so
    /// `.arch(Arch::X86_64_2007)` on a paper preset preserves its exact
    /// platform TLBs.
    pub fn arch(mut self, arch: Arch) -> Self {
        if self.cfg.machine.arch() != arch {
            let (dtlb, itlb) = lpomp_tlb::default_tlbs(arch);
            self.cfg.machine.dtlb = dtlb;
            self.cfg.machine.itlb = itlb;
        }
        self
    }

    /// Back the shared heap with ladder rank `rank` of the machine's
    /// translation architecture — the rank-addressed replacement for the
    /// implicit 4 KB/2 MB policy plumbing. `page_size(0)` is the
    /// base-granule baseline, `page_size(1)` the paper's large-page
    /// system; higher ranks select 1 GB pages or ARM64 block sizes where
    /// the architecture has them.
    pub fn page_size(self, rank: u8) -> Self {
        self.policy(PagePolicy::Rung(rank))
    }

    /// Startup preallocation vs demand faulting.
    pub fn populate(mut self, populate: PopulatePolicy) -> Self {
        self.cfg.populate = populate;
        self
    }

    /// Back the heap with private anonymous memory (required for
    /// [`System::promote_heap`]; implied by [`Self::thp`]).
    fn private_heap(mut self, private: bool) -> Self {
        self.cfg.private_heap = private;
        self
    }

    /// The THP scenario: a 4 KB private anonymous heap that
    /// [`System::promote_heap`] (or the khugepaged daemon) can collapse.
    pub fn thp(self) -> Self {
        self.policy(PagePolicy::Small4K).private_heap(true)
    }

    /// `on`: the THP scenario plus the incremental khugepaged daemon
    /// (default [`KhugepagedConfig`]). `false` detaches the daemon.
    pub fn thp_daemon(mut self, on: bool) -> Self {
        if on {
            self.cfg.khugepaged = Some(KhugepagedConfig::default());
            self.thp()
        } else {
            self.cfg.khugepaged = None;
            self
        }
    }

    /// Make the platform NUMA (placement policy, node count, PT
    /// replication — see [`NumaConfig`]).
    pub fn numa(mut self, numa: NumaConfig) -> Self {
        self.cfg.machine.numa = Some(numa);
        self
    }

    /// Attach the AutoNUMA-style balancing daemon.
    pub fn numa_daemon(mut self, cfg: NumaDaemonConfig) -> Self {
        self.cfg.numa_daemon = Some(cfg);
        self
    }

    /// Attach the region-attribution profiler ([`ProfileSpec::Regions`])
    /// or the profiler plus timeline ([`ProfileSpec::Trace`]).
    pub fn profile(mut self, spec: ProfileSpec) -> Self {
        self.cfg.profile = spec;
        self
    }

    /// Override the loop schedule of every loop that schedules through
    /// [`Team::schedule_or`] — the front door of the E8 scheduler study
    /// (`Schedule::Hierarchical` vs the topology-blind baselines).
    /// Hardcoded-schedule loops are untouched.
    pub fn schedule(mut self, sched: Schedule) -> Self {
        self.cfg.schedule = Some(sched);
        self
    }

    /// Work-stealing policy for [`Schedule::Hierarchical`] loops (remote
    /// batch size, work-follows-pages, pages-follow-work).
    pub fn steal_policy(mut self, steal: StealPolicy) -> Self {
        self.cfg.steal = steal;
        self
    }

    /// Colocate these tenants on the machine (round-robin, spec order;
    /// tenant `i` gets ASID `i`). Build with [`Self::build_tenants`].
    pub fn tenants(mut self, specs: Vec<TenantSpec>) -> Self {
        self.cfg
            .tenancy
            .get_or_insert_with(TenancyConfig::default)
            .tenants = specs;
        self
    }

    /// Tenant timeslice in cycles (default [`DEFAULT_TIMESLICE`]).
    pub fn timeslice(mut self, cycles: u64) -> Self {
        self.cfg
            .tenancy
            .get_or_insert_with(TenancyConfig::default)
            .timeslice_cycles = cycles;
        self
    }

    /// How the TLBs treat a context switch: keep entries under ASID tags
    /// ([`AsidMode::Tagged`], the default) or flush everything
    /// ([`AsidMode::FlushOnSwitch`], the ablation).
    pub fn asid_mode(mut self, mode: AsidMode) -> Self {
        self.cfg
            .tenancy
            .get_or_insert_with(TenancyConfig::default)
            .asid_mode = mode;
        self
    }

    /// Assemble the multi-tenant machine configured by [`Self::tenants`].
    pub fn build_tenants(&self) -> VmResult<MultiSystem> {
        MultiSystem::build(&self.cfg)
    }

    /// The accumulated configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Assemble the system and run the kernel's `setup` in its heap.
    pub fn build(&self, kernel: &mut dyn Kernel) -> VmResult<System> {
        System::build(&self.cfg, kernel)
    }
}

/// Statistics of system bring-up (the quantities ablation A1 compares).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupStats {
    /// Heap pages taken at bring-up when the heap's page size lies above
    /// the base granule (any rung: 2 MB, 1 GB, ...); 0 for a base-granule
    /// or anonymous heap.
    pub huge_pages_reserved: u64,
    /// Pages prefaulted at startup (any size).
    pub pages_prepopulated: u64,
    /// Shared-heap bytes mapped.
    pub heap_bytes: u64,
}

/// A fully assembled system: the simulated team plus bring-up metadata.
pub struct System {
    /// The ready-to-run simulated team.
    pub team: Team,
    /// Bring-up statistics.
    pub setup: SetupStats,
    heap_base: VirtAddr,
}

impl System {
    /// Start a [`SystemBuilder`] on the given platform — the preferred
    /// way to configure a system.
    pub fn builder(machine: MachineConfig) -> SystemBuilder {
        SystemBuilder::new(machine)
    }

    /// Assemble a system and run the kernel's `setup` inside its shared
    /// region. After this, `run` on the kernel with `self.team` executes
    /// the measured benchmark.
    pub fn build(cfg: &SystemConfig, kernel: &mut dyn Kernel) -> VmResult<System> {
        let mut machine = Machine::new(cfg.machine.clone());
        let (aspace, setup, heap_base, walker) = Self::build_parts(cfg, kernel, &mut machine)?;
        Ok(System {
            team: Team::simulated(Self::engine(cfg, machine, aspace, walker)),
            setup,
            heap_base,
        })
    }

    /// Wire the simulated engine `cfg` asks for around one process:
    /// daemons, profiler, schedule override and steal policy.
    fn engine(cfg: &SystemConfig, m: Machine, aspace: AddressSpace, code: CodeWalker) -> SimEngine {
        let mut engine = SimEngine::new(m, aspace, cfg.threads, code, DEFAULT_QUANTUM);
        if let Some(k) = cfg.khugepaged {
            engine.enable_khugepaged(k);
        }
        if let Some(nd) = cfg.numa_daemon {
            engine.enable_numa_daemon(nd);
        }
        engine.enable_profiling(cfg.profile);
        engine.set_schedule_override(cfg.schedule);
        engine.set_steal_policy(cfg.steal);
        engine
    }

    /// Steps (2)–(6) of bring-up for one process: code segment, heap,
    /// mailbox, kernel `setup`, code walker. Frames come from `machine` — for colocated
    /// tenants the *real* machine, so every process carves disjoint
    /// physical memory out of the same per-node buddy pools.
    fn build_parts(
        cfg: &SystemConfig,
        kernel: &mut dyn Kernel,
        machine: &mut Machine,
    ) -> VmResult<(AddressSpace, SetupStats, VirtAddr, CodeWalker)> {
        let arch = cfg.machine.arch();
        let base = arch.base();
        let mut aspace = AddressSpace::new_for(&mut machine.frames, arch)?;
        let mut setup = SetupStats::default();

        // (2) Code segment: base-granule pages (4 KB on the paper's
        // platforms), always prefaulted (the loader maps the binary up
        // front).
        let code_prof: CodeProfile = kernel.code_profile();
        aspace.mmap_fixed(
            &mut machine.frames,
            CODE_BASE,
            code_prof.code_bytes,
            base,
            PteFlags::rx(),
            Backing::Anonymous,
            lpomp_vm::Populate::Eager,
            "code",
        )?;

        // NUMA placement, one rule for the whole heap: `NodePolicy::node_at`
        // places anonymous pages at fault time and each page of a shared
        // file when the file is created. The code segment above was mapped
        // *before* the policy is installed, so code frames stay on node 0,
        // as does the mailbox below: both are small and shared.
        let numa = cfg
            .machine
            .numa
            .map(|n| (n.nodes, n.placement.node_policy()));
        if let Some((nodes, policy)) = numa {
            aspace.set_node_policy(nodes, policy);
        }
        // Node of each page of a `page`-sized shared file, by page index;
        // `None` without NUMA.
        let node_of = |page: PageSize| {
            move |i: u64| {
                numa.map(|(nodes, policy)| policy.node_at(nodes, i * page.bytes(), page, None))
            }
        };

        // (3)+(4) Shared heap.
        let heap_bytes = kernel.footprint().data_bytes * HEAP_SLACK_NUM / HEAP_SLACK_DEN;
        // The heap's page size is the policy's rung resolved against the
        // machine's translation architecture (2 MB on x86-64-2007 under
        // the paper's policy; 1 GB / 64 KB / 32 MB under the extension
        // presets).
        let heap_page = cfg.policy.heap_page_size_on(arch);
        // Round to whole chunks of the heap page — or, for base-granule
        // heaps, of the *next* ladder rung — so a base-granule heap can
        // later be collapsed in full by the THP extension.
        let round = heap_page.max(arch.next_rung_above(base).map_or(base, |r| r.size));
        let heap_len = round.round_up(heap_bytes.max(round.bytes()));
        setup.heap_bytes = heap_len;
        let populate = cfg.populate.as_vm();
        // One backing choice. Private anonymous memory under first-touch,
        // because a shared file's frames are placed when the file is
        // created, not by its first toucher (with startup prefaulting the
        // master thread touches everything first, the classic OpenMP
        // pitfall, so first-touch results use OnDemand); and for the THP
        // scenario's base-granule heap, because the kernel never collapses
        // file-backed pages. Otherwise a shared file of the heap's page
        // size (a hugetlbfs file above the base granule), all its frames
        // taken now, before anything ages memory.
        let anonymous = matches!(numa, Some((_, NodePolicy::FirstTouch)))
            || (cfg.private_heap && !cfg.policy.needs_huge_pool());
        let heap_backing = if anonymous {
            Backing::Anonymous
        } else {
            let seg = SharedSegment::alloc(
                &mut machine.frames,
                "omni-shared-heap",
                heap_len,
                heap_page,
                node_of(heap_page),
            )?;
            if cfg.policy.needs_huge_pool() {
                setup.huge_pages_reserved = seg.page_count();
            }
            Backing::Shared(seg)
        };
        let heap_name = if anonymous {
            "private-heap"
        } else {
            "shared-heap"
        };
        let heap_base = aspace.mmap(
            &mut machine.frames,
            heap_len,
            heap_page,
            PteFlags::rw(),
            heap_backing,
            populate,
            heap_name,
        )?;
        debug_assert!(heap_base.is_aligned(round));
        // Under Mixed, add a base-granule region for small allocations,
        // backed like the heap.
        let small_base = if matches!(cfg.policy, PagePolicy::Mixed { .. }) {
            let backing = if anonymous {
                Backing::Anonymous
            } else {
                Backing::Shared(SharedSegment::alloc(
                    &mut machine.frames,
                    "omni-small-heap",
                    MIXED_SMALL_REGION,
                    base,
                    node_of(base),
                )?)
            };
            Some(aspace.mmap(
                &mut machine.frames,
                MIXED_SMALL_REGION,
                base,
                PteFlags::rw(),
                backing,
                populate,
                "small-heap",
            )?)
        } else {
            None
        };

        // (5) Mailbox file: always base-granule pages (paper §3.3: the
        // message-passing mailboxes stay in 4 KB pages).
        let mb_seg =
            SharedSegment::alloc(&mut machine.frames, "mailbox", MAILBOX_BYTES, base, |_| {
                None
            })?;
        aspace.mmap(
            &mut machine.frames,
            MAILBOX_BYTES,
            base,
            PteFlags::rw(),
            Backing::Shared(mb_seg),
            lpomp_vm::Populate::Eager,
            "mailbox",
        )?;

        setup.pages_prepopulated = aspace.fault_stats().prepopulated;

        // (6) Region allocator + kernel setup.
        let mut alloc = match (cfg.policy, small_base) {
            (PagePolicy::Mixed { threshold_bytes }, Some(sb)) => BumpAllocator::with_split(
                heap_base,
                heap_len,
                sb,
                MIXED_SMALL_REGION,
                threshold_bytes,
            ),
            _ => BumpAllocator::new(heap_base, heap_len),
        };
        kernel.setup(&mut alloc);

        let walker = CodeWalker::new(
            CODE_BASE,
            code_prof.code_bytes,
            code_prof.hot_bytes,
            code_prof.cold_period,
        );
        Ok((aspace, setup, heap_base, walker))
    }

    /// Base virtual address of the shared heap.
    #[cfg(test)]
    pub(crate) fn heap_base(&self) -> VirtAddr {
        self.heap_base
    }

    /// Run a khugepaged-style collapse over the heap (requires a system
    /// built with [`SystemBuilder::thp`] — a private anonymous
    /// base-granule heap).
    ///
    /// Charges every thread the full stop-the-world cost: copying each
    /// collapsed chunk's base pages (512 on the x86-64 ladder), rewriting
    /// its base-page-count + 1 page-table entries, and — if anything
    /// collapsed — a broadcast shootdown IPI taken on every core before
    /// the TLBs are flushed.
    pub fn promote_heap(&mut self) -> VmResult<PromotionReport> {
        let engine = self
            .team
            .engine_mut()
            .expect("simulated systems always have an engine");
        let report = promote_region(
            &mut engine.aspace,
            &mut engine.machine.frames,
            self.heap_base,
        )?;
        // Per chunk: migrate `per` base pages (one streamed read + write
        // each) and edit `per + 1` PTEs (`per` unmaps + 1 large map)
        // under the PT lock — 512 and 513 on the paper's x86-64 ladder.
        let per = report.chunk_bytes / engine.aspace.page_table().arch().base().bytes();
        let c = engine.machine.cost();
        let cycles = report.promoted * (per * c.migrate_page + (per + 1) * c.pt_edit);
        engine.region_enter("os:promote");
        engine.charge_all(cycles);
        if report.promoted > 0 {
            // IPI shootdown: stale 4 KB translations must go everywhere,
            // and every core pays for taking the interrupt.
            engine.tlb_shootdown();
            // After the flush no core may still translate a promoted chunk
            // from a stale small-page entry.
            debug_assert!(
                (0..engine.machine.config().cores()).all(|core| !engine
                    .machine
                    .dtlb(core)
                    .peek(self.heap_base)
                    .is_hit()),
                "stale TLB entries survived the post-collapse shootdown"
            );
        }
        engine.region_exit();
        Ok(report)
    }
}

/// What one tenant of a [`MultiSystem`] run produced.
#[derive(Clone, Debug)]
pub struct TenantReport {
    /// The tenant's label.
    pub name: String,
    /// Which kernel it ran.
    pub app: AppKind,
    /// Problem class.
    pub class: Class,
    /// Team size.
    pub threads: usize,
    /// Verification checksum.
    pub checksum: f64,
    /// Whether the checksum matches the serial reference.
    pub verified: bool,
    /// Cycle at which the tenant finished — its colocated runtime,
    /// including time spent descheduled.
    pub finish_cycles: u64,
    /// The tenant's aggregate counters (these partition the machine
    /// totals exactly — asserted at every yield).
    pub counters: Counters,
}

/// Result of one [`MultiSystem::run`].
#[derive(Clone, Debug)]
pub struct MultiRunReport {
    /// Per-tenant outcomes, in spec order.
    pub tenants: Vec<TenantReport>,
    /// Timeslices granted.
    pub slices: u64,
    /// Grants that switched between different tenants.
    pub switches: u64,
    /// The cycle at which the last tenant finished.
    pub makespan: u64,
}

/// A fully assembled multi-tenant machine: N processes, each with its own
/// page tables and address space carved out of the one machine's buddy
/// pools, ready to be gang-scheduled round-robin. Build with
/// [`SystemBuilder::build_tenants`], consume with [`Self::run`].
pub struct MultiSystem {
    machine: Machine,
    tasks: Vec<TenantTask>,
    refs: Vec<f64>,
    specs: Vec<TenantSpec>,
    timeslice: u64,
    mode: AsidMode,
    /// Per-tenant bring-up statistics, in spec order.
    pub setup: Vec<SetupStats>,
}

impl MultiSystem {
    /// Assemble the machine and every tenant's process (address space,
    /// heap, kernel `setup`). Daemon cycle budgets are divided evenly
    /// across tenants so colocation does not multiply daemon throughput.
    ///
    /// # Panics
    /// Panics if `cfg.tenancy` is absent or names no tenants.
    pub fn build(cfg: &SystemConfig) -> VmResult<MultiSystem> {
        let ten = cfg
            .tenancy
            .clone()
            .expect("build_tenants requires .tenants(...)");
        assert!(!ten.tenants.is_empty(), "no tenants configured");
        let n = ten.tenants.len() as u64;
        let mut machine = Machine::new(cfg.machine.clone());
        let mut tasks = Vec::new();
        let mut refs = Vec::new();
        let mut setup = Vec::new();
        for (i, spec) in ten.tenants.iter().enumerate() {
            let mut tcfg = cfg.clone();
            tcfg.threads = spec.threads;
            tcfg.tenancy = None;
            if let Some(k) = &mut tcfg.khugepaged {
                k.cycle_budget = (k.cycle_budget / n).max(1);
            }
            if let Some(d) = &mut tcfg.numa_daemon {
                d.cycle_budget = (d.cycle_budget / n).max(1);
            }
            let mut kernel = spec.app.build(spec.class);
            let (aspace, s, _heap, walker) =
                System::build_parts(&tcfg, kernel.as_mut(), &mut machine)?;
            // The engine starts on a placeholder machine (same config);
            // the real one arrives with its first timeslice grant.
            let placeholder = Machine::new(cfg.machine.clone());
            let engine = System::engine(&tcfg, placeholder, aspace, walker);
            refs.push(kernel.reference());
            setup.push(s);
            tasks.push(TenantTask {
                name: spec.name.clone(),
                asid: i as u16,
                threads: spec.threads,
                engine: Box::new(engine),
                work: Box::new(move |team| kernel.run(team)),
            });
        }
        Ok(MultiSystem {
            machine,
            tasks,
            refs,
            specs: ten.tenants,
            timeslice: ten.timeslice_cycles,
            mode: ten.asid_mode,
            setup,
        })
    }

    /// Run every tenant to completion under the timeslice scheduler.
    pub fn run(self) -> MultiRunReport {
        let (outcomes, stats) = run_tenants(self.machine, self.tasks, self.timeslice, self.mode);
        let tenants = outcomes
            .into_iter()
            .zip(self.specs)
            .zip(self.refs)
            .map(|((o, spec), reference)| TenantReport {
                name: o.name,
                app: spec.app,
                class: spec.class,
                threads: spec.threads,
                checksum: o.checksum,
                verified: verify_close(o.checksum, reference),
                finish_cycles: o.finish_clock,
                counters: o.engine.profile().aggregate(),
            })
            .collect();
        MultiRunReport {
            tenants,
            slices: stats.slices,
            switches: stats.switches,
            makespan: stats.makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpomp_machine::{opteron_2x2, NumaPlacement};
    use lpomp_npb::{AppKind, Class};

    fn build(policy: PagePolicy, populate: PopulatePolicy) -> (System, Box<dyn Kernel>) {
        let mut kernel = AppKind::Cg.build(Class::S);
        let sys = System::builder(opteron_2x2())
            .threads(4)
            .policy(policy)
            .populate(populate)
            .build(kernel.as_mut())
            .unwrap();
        (sys, kernel)
    }

    #[test]
    fn small_page_system_runs_and_verifies() {
        let (mut sys, mut kernel) = build(PagePolicy::Small4K, PopulatePolicy::Prefault);
        let cs = kernel.run(&mut sys.team);
        assert!(kernel.verify(cs), "checksum {cs}");
        assert!(sys.team.elapsed_cycles() > 0);
        assert_eq!(sys.setup.huge_pages_reserved, 0);
    }

    #[test]
    fn large_page_system_runs_and_verifies() {
        let (mut sys, mut kernel) = build(PagePolicy::Large2M, PopulatePolicy::Prefault);
        let cs = kernel.run(&mut sys.team);
        assert!(kernel.verify(cs), "checksum {cs}");
        assert!(sys.setup.huge_pages_reserved > 0);
    }

    #[test]
    fn identical_results_across_page_policies() {
        let (mut s4, mut k4) = build(PagePolicy::Small4K, PopulatePolicy::Prefault);
        let (mut s2, mut k2) = build(PagePolicy::Large2M, PopulatePolicy::Prefault);
        let c4 = k4.run(&mut s4.team);
        let c2 = k2.run(&mut s2.team);
        assert_eq!(c4, c2, "page size must not change the computation");
    }

    #[test]
    fn prefault_takes_no_runtime_faults() {
        let (mut sys, mut kernel) = build(PagePolicy::Large2M, PopulatePolicy::Prefault);
        kernel.run(&mut sys.team);
        let agg = sys.team.aggregate_counters();
        assert_eq!(agg.get(lpomp_prof::Event::PageFaults), 0);
        assert!(sys.setup.pages_prepopulated > 0);
    }

    #[test]
    fn demand_populate_faults_at_runtime() {
        let (mut sys, mut kernel) = build(PagePolicy::Large2M, PopulatePolicy::OnDemand);
        kernel.run(&mut sys.team);
        let agg = sys.team.aggregate_counters();
        assert!(agg.get(lpomp_prof::Event::PageFaults) > 0);
    }

    #[test]
    fn thp_promotion_collapses_the_heap_and_speeds_reruns() {
        let mut kernel = AppKind::Cg.build(Class::S);
        let mut sys = System::builder(opteron_2x2())
            .threads(4)
            .thp()
            .build(kernel.as_mut())
            .unwrap();
        let cs_before = kernel.run(&mut sys.team);
        let misses_before = sys
            .team
            .aggregate_counters()
            .get(lpomp_prof::Event::DtlbMisses);
        let report = sys.promote_heap().unwrap();
        assert!(report.promoted > 0, "nothing promoted: {report:?}");
        assert_eq!(report.skipped_no_memory, 0);
        sys.team.engine_mut().unwrap().reset_timing();
        let cs_after = kernel.run(&mut sys.team);
        let misses_after = sys
            .team
            .aggregate_counters()
            .get(lpomp_prof::Event::DtlbMisses);
        assert_eq!(cs_before, cs_after, "promotion changed results");
        assert!(
            misses_after * 2 < misses_before,
            "misses {misses_before} -> {misses_after}"
        );
    }

    #[test]
    fn daemon_system_collapses_heap_incrementally() {
        let mut kernel = AppKind::Cg.build(Class::S);
        let mut sys = System::builder(opteron_2x2())
            .threads(4)
            .thp_daemon(true)
            .build(kernel.as_mut())
            .unwrap();
        let cs = kernel.run(&mut sys.team);
        assert!(kernel.verify(cs), "checksum {cs}");
        let agg = sys.team.aggregate_counters();
        assert!(
            agg.get(lpomp_prof::Event::PagesCollapsed) > 0,
            "daemon never collapsed anything"
        );
        assert!(agg.get(lpomp_prof::Event::DaemonCycles) > 0);
        // A steady-state rerun pays no further daemon tax and runs at
        // promoted (large-page) speed.
        let e = sys.team.engine_mut().unwrap();
        assert!(e.daemon().unwrap().is_idle());
        e.reset_timing();
        let cs2 = kernel.run(&mut sys.team);
        assert_eq!(cs, cs2);
        let agg2 = sys.team.aggregate_counters();
        assert_eq!(agg2.get(lpomp_prof::Event::DaemonCycles), 0);
    }

    #[test]
    fn promote_heap_rejects_shared_heaps() {
        let (mut sys, _kernel) = build(PagePolicy::Small4K, PopulatePolicy::Prefault);
        assert!(sys.promote_heap().is_err());
    }

    #[test]
    fn mixed_policy_builds_and_runs() {
        let (mut sys, mut kernel) = build(
            PagePolicy::Mixed {
                threshold_bytes: 256 * 1024,
            },
            PopulatePolicy::Prefault,
        );
        let cs = kernel.run(&mut sys.team);
        assert!(kernel.verify(cs));
    }

    #[test]
    fn builder_profiling_attributes_the_promote_pause() {
        let mut kernel = AppKind::Cg.build(Class::S);
        let mut sys = System::builder(opteron_2x2())
            .threads(4)
            .thp()
            .profile(lpomp_prof::ProfileSpec::Regions)
            .build(kernel.as_mut())
            .unwrap();
        kernel.run(&mut sys.team);
        let report = sys.promote_heap().unwrap();
        assert!(report.promoted > 0);
        let sheet = sys.team.region_sheet().unwrap();
        let os = sheet.by_name("os:promote").unwrap();
        let total = sheet.region_total(os);
        assert!(total.get(lpomp_prof::Event::Cycles) > 0);
        assert_eq!(total.get(lpomp_prof::Event::TlbShootdowns), 1);
        assert_eq!(sheet.total(), sys.team.aggregate_counters());
    }

    #[test]
    fn numa_gigantic_heap_reserves_per_node_and_verifies() {
        // A NUMA machine with a 1 GB heap rung takes each heap page on
        // the node the placement names: gigantic runs carved inside each
        // node's frame range.
        use lpomp_machine::{modern_x86_2x2, NumaConfig, NumaPlacement};
        let mut kernel = AppKind::Cg.build(Class::S);
        let mut sys = System::builder(modern_x86_2x2())
            .threads(4)
            .numa(NumaConfig::opteron(NumaPlacement::MasterNode))
            .page_size(2)
            .build(kernel.as_mut())
            .unwrap();
        assert!(sys.setup.huge_pages_reserved > 0);
        let cs = kernel.run(&mut sys.team);
        assert!(kernel.verify(cs), "checksum {cs}");
    }

    #[test]
    fn first_touch_gigantic_heap_faults_whole_rungs() {
        // First-touch backs the heap with private anonymous memory, so
        // every heap page is a fault-time allocation of the rung's order,
        // which lies above the buddy `MAX_ORDER` on these two presets.
        use lpomp_machine::{arm64_2x2_16k, modern_x86_2x2, NumaConfig};
        for (machine, rung) in [
            (modern_x86_2x2(), PageSize::Page1G),
            (arm64_2x2_16k(), PageSize::Page32M),
        ] {
            for populate in [PopulatePolicy::OnDemand, PopulatePolicy::Prefault] {
                let at = format!("{} {populate:?}", machine.name);
                let mut kernel = AppKind::Cg.build(Class::S);
                let mut sys = System::builder(machine.clone())
                    .threads(4)
                    .numa(NumaConfig::opteron(NumaPlacement::FirstTouch))
                    .page_size(2)
                    .populate(populate)
                    .build(kernel.as_mut())
                    .unwrap();
                let cs = kernel.run(&mut sys.team);
                assert!(kernel.verify(cs), "{at}: checksum {cs}");
                let asp = &sys.team.engine().unwrap().aspace;
                let heap = asp.find_vma(sys.heap_base()).expect("heap is mapped");
                assert_eq!(heap.page_size, rung, "{at}");
                let mut installed = 0;
                let mut off = 0;
                while off < heap.len {
                    if let Some(t) = asp.page_table().probe(heap.start.add(off)) {
                        assert_eq!(t.size, rung, "{at}: page at offset {off:#x}");
                        installed += 1;
                    }
                    off += rung.bytes();
                }
                assert!(installed > 0, "{at}: no heap page installed");
            }
        }
    }

    #[test]
    fn heap_bring_up_is_pinned() {
        // Every heap backing the builder can ask for, on the Opteron with
        // and without NUMA, run once so demand faults place their pages
        // too (see `bring_up_row` for what a row holds). The literals were
        // recorded before the heap bring-up became one backing choice.
        const PINS: [(u64, u64, u64, u64, u64); 60] = [
            (0xd2c0334adbcc0c9c, 0, 1366, 2097152, 0xb6355dd104d12845), // None 4KB private=false Prefault
            (0xf75b7aa77f70077e, 0, 854, 2097152, 0xfe71179acb03451d), // None 4KB private=false OnDemand
            (0x6565813ff1a094c4, 0, 1366, 2097152, 0x699304bfc2fbd725), // None 4KB private=true Prefault
            (0xe2ff8b5675af3892, 0, 854, 2097152, 0xed01d68dad0e70e6), // None 4KB private=true OnDemand
            (0xa95691aa2ce62c20, 1, 855, 2097152, 0x4ce5f5f7f482f245), // None 2MB private=false Prefault
            (0xa95691aa2ce62c20, 1, 854, 2097152, 0xfedea70c4c73d085), // None 2MB private=false OnDemand
            (0xa95691aa2ce62c20, 1, 855, 2097152, 0x4ce5f5f7f482f245), // None 2MB private=true Prefault
            (0xa95691aa2ce62c20, 1, 854, 2097152, 0xfedea70c4c73d085), // None 2MB private=true OnDemand
            (0xc432b42a807e933e, 1, 4951, 2097152, 0xd54756db6f29063e), // None mixed private=false Prefault
            (0x269658871355a126, 1, 854, 2097152, 0xa34b908c3e2def5d), // None mixed private=false OnDemand
            (0xc432b42a807e933e, 1, 4951, 2097152, 0xd54756db6f29063e), // None mixed private=true Prefault
            (0x269658871355a126, 1, 854, 2097152, 0xa34b908c3e2def5d), // None mixed private=true OnDemand
            (0xd2c0334adbcc0c9c, 0, 1366, 2097152, 0xb6355dd104d12845), // Some(MasterNode) 4KB private=false Prefault
            (0xf75b7aa77f70077e, 0, 854, 2097152, 0xfe71179acb03451d), // Some(MasterNode) 4KB private=false OnDemand
            (0x6565813ff1a094c4, 0, 1366, 2097152, 0x699304bfc2fbd725), // Some(MasterNode) 4KB private=true Prefault
            (0xe2ff8b5675af3892, 0, 854, 2097152, 0x0ac0e6e185a3dac6), // Some(MasterNode) 4KB private=true OnDemand
            (0xa95691aa2ce62c20, 1, 855, 2097152, 0x4ce5f5f7f482f245), // Some(MasterNode) 2MB private=false Prefault
            (0xa95691aa2ce62c20, 1, 854, 2097152, 0xfedea70c4c73d085), // Some(MasterNode) 2MB private=false OnDemand
            (0xa95691aa2ce62c20, 1, 855, 2097152, 0x4ce5f5f7f482f245), // Some(MasterNode) 2MB private=true Prefault
            (0xa95691aa2ce62c20, 1, 854, 2097152, 0xfedea70c4c73d085), // Some(MasterNode) 2MB private=true OnDemand
            (0xc432b42a807e933e, 1, 4951, 2097152, 0xd54756db6f29063e), // Some(MasterNode) mixed private=false Prefault
            (0x269658871355a126, 1, 854, 2097152, 0xa34b908c3e2def5d), // Some(MasterNode) mixed private=false OnDemand
            (0xc432b42a807e933e, 1, 4951, 2097152, 0xd54756db6f29063e), // Some(MasterNode) mixed private=true Prefault
            (0x269658871355a126, 1, 854, 2097152, 0xa34b908c3e2def5d), // Some(MasterNode) mixed private=true OnDemand
            (0xd2c0334adbcc0c9c, 0, 1366, 2097152, 0x6fac219f2f65de05), // Some(Interleave4K) 4KB private=false Prefault
            (0xf75b7aa77f70077e, 0, 854, 2097152, 0xb682885bf5933792), // Some(Interleave4K) 4KB private=false OnDemand
            (0x6565813ff1a094c4, 0, 1366, 2097152, 0xc9ffa9040c663e25), // Some(Interleave4K) 4KB private=true Prefault
            (0xe2ff8b5675af3892, 0, 854, 2097152, 0x6b94c11f152efc71), // Some(Interleave4K) 4KB private=true OnDemand
            (0xa95691aa2ce62c20, 1, 855, 2097152, 0x4ce5f5f7f482f245), // Some(Interleave4K) 2MB private=false Prefault
            (0xa95691aa2ce62c20, 1, 854, 2097152, 0xfedea70c4c73d085), // Some(Interleave4K) 2MB private=false OnDemand
            (0xa95691aa2ce62c20, 1, 855, 2097152, 0x4ce5f5f7f482f245), // Some(Interleave4K) 2MB private=true Prefault
            (0xa95691aa2ce62c20, 1, 854, 2097152, 0xfedea70c4c73d085), // Some(Interleave4K) 2MB private=true OnDemand
            (0xc432b42a807e933e, 1, 4951, 2097152, 0xa803d8bac729b0c5), // Some(Interleave4K) mixed private=false Prefault
            (0x269658871355a126, 1, 854, 2097152, 0x7014c695bbfe2212), // Some(Interleave4K) mixed private=false OnDemand
            (0xc432b42a807e933e, 1, 4951, 2097152, 0xa803d8bac729b0c5), // Some(Interleave4K) mixed private=true Prefault
            (0x269658871355a126, 1, 854, 2097152, 0x7014c695bbfe2212), // Some(Interleave4K) mixed private=true OnDemand
            (0xd2c0334adbcc0c9c, 0, 1366, 2097152, 0xb6355dd104d12845), // Some(Interleave2M) 4KB private=false Prefault
            (0xf75b7aa77f70077e, 0, 854, 2097152, 0xfe71179acb03451d), // Some(Interleave2M) 4KB private=false OnDemand
            (0x6565813ff1a094c4, 0, 1366, 2097152, 0x699304bfc2fbd725), // Some(Interleave2M) 4KB private=true Prefault
            (0xe2ff8b5675af3892, 0, 854, 2097152, 0x0ac0e6e185a3dac6), // Some(Interleave2M) 4KB private=true OnDemand
            (0xa95691aa2ce62c20, 1, 855, 2097152, 0x4ce5f5f7f482f245), // Some(Interleave2M) 2MB private=false Prefault
            (0xa95691aa2ce62c20, 1, 854, 2097152, 0xfedea70c4c73d085), // Some(Interleave2M) 2MB private=false OnDemand
            (0xa95691aa2ce62c20, 1, 855, 2097152, 0x4ce5f5f7f482f245), // Some(Interleave2M) 2MB private=true Prefault
            (0xa95691aa2ce62c20, 1, 854, 2097152, 0xfedea70c4c73d085), // Some(Interleave2M) 2MB private=true OnDemand
            (0xc432b42a807e933e, 1, 4951, 2097152, 0x13b9c0c485fc41c5), // Some(Interleave2M) mixed private=false Prefault
            (0x269658871355a126, 1, 854, 2097152, 0xde21654832217a1d), // Some(Interleave2M) mixed private=false OnDemand
            (0xc432b42a807e933e, 1, 4951, 2097152, 0x13b9c0c485fc41c5), // Some(Interleave2M) mixed private=true Prefault
            (0x269658871355a126, 1, 854, 2097152, 0xde21654832217a1d), // Some(Interleave2M) mixed private=true OnDemand
            (0x6565813ff1a094c4, 0, 1366, 2097152, 0x699304bfc2fbd725), // Some(FirstTouch) 4KB private=false Prefault
            (0xe2ff8b5675af3892, 0, 854, 2097152, 0x98b2f0a853afd002), // Some(FirstTouch) 4KB private=false OnDemand
            (0x6565813ff1a094c4, 0, 1366, 2097152, 0x699304bfc2fbd725), // Some(FirstTouch) 4KB private=true Prefault
            (0xe2ff8b5675af3892, 0, 854, 2097152, 0x98b2f0a853afd002), // Some(FirstTouch) 4KB private=true OnDemand
            (0x8fb8e05efbcdb2c8, 0, 855, 2097152, 0x4ce5f5f7f482f245), // Some(FirstTouch) 2MB private=false Prefault
            (0x8fb8e05efbcdb2c8, 0, 854, 2097152, 0x31aa639c27009f25), // Some(FirstTouch) 2MB private=false OnDemand
            (0x8fb8e05efbcdb2c8, 0, 855, 2097152, 0x4ce5f5f7f482f245), // Some(FirstTouch) 2MB private=true Prefault
            (0x8fb8e05efbcdb2c8, 0, 854, 2097152, 0x31aa639c27009f25), // Some(FirstTouch) 2MB private=true OnDemand
            (0x8f46274d0f374006, 0, 4951, 2097152, 0xd4556ef8defb6e7a), // Some(FirstTouch) mixed private=false Prefault
            (0xdf11cb8c470a89d4, 0, 854, 2097152, 0x98b2f0a853afd002), // Some(FirstTouch) mixed private=false OnDemand
            (0x8f46274d0f374006, 0, 4951, 2097152, 0xd4556ef8defb6e7a), // Some(FirstTouch) mixed private=true Prefault
            (0xdf11cb8c470a89d4, 0, 854, 2097152, 0x98b2f0a853afd002), // Some(FirstTouch) mixed private=true OnDemand
        ];
        let placements = [
            None,
            Some(NumaPlacement::MasterNode),
            Some(NumaPlacement::Interleave4K),
            Some(NumaPlacement::Interleave2M),
            Some(NumaPlacement::FirstTouch),
        ];
        let policies = [
            PagePolicy::Small4K,
            PagePolicy::Large2M,
            PagePolicy::Mixed {
                threshold_bytes: 1 << 20,
            },
        ];
        let mut case = 0;
        for placement in placements {
            for policy in policies {
                for private in [false, true] {
                    for populate in [PopulatePolicy::Prefault, PopulatePolicy::OnDemand] {
                        let mut b = System::builder(opteron_2x2())
                            .threads(4)
                            .policy(policy)
                            .private_heap(private)
                            .populate(populate);
                        if let Some(p) = placement {
                            b = b.numa(NumaConfig::opteron(p));
                        }
                        let row = bring_up_row(&b, Class::S, true);
                        assert_eq!(
                            row, PINS[case],
                            "case {case}: {placement:?} {policy} private={private} {populate:?}"
                        );
                        case += 1;
                    }
                }
            }
        }
        assert_eq!(case, PINS.len());

        // A class-S heap is one 2 MB page, so the order in which a
        // multi-page heap file takes its frames shows only in a larger
        // heap: CG class W with 2 MB pages, prefaulted and not run.
        const W_PINS: [(u64, u64, u64, u64, u64); 4] = [
            (0x7d7c1bba3e07f927, 9, 863, 18874368, 0xebfa94524d07b3de), // None 2MB
            (0x3afc348413d5508d, 9, 4959, 18874368, 0x5fe60948a929ac5b), // None mixed
            (0x7d7c1bba3e07f927, 9, 863, 18874368, 0x2514bc07fac83ac5), // Some(Interleave2M) 2MB
            (0x3afc348413d5508d, 9, 4959, 18874368, 0xc712845ca382cb3e), // Some(Interleave2M) mixed
        ];
        let mut case = 0;
        for placement in [None, Some(NumaPlacement::Interleave2M)] {
            for policy in [PagePolicy::Large2M, policies[2]] {
                let mut b = System::builder(opteron_2x2()).threads(4).policy(policy);
                if let Some(p) = placement {
                    b = b.numa(NumaConfig::opteron(p));
                }
                let row = bring_up_row(&b, Class::W, false);
                assert_eq!(row, W_PINS[case], "class W: {placement:?} {policy}");
                case += 1;
            }
        }
    }

    /// Build CG at `class` on `b` (and run it when `run`), then return
    /// FNV-1a 64 of `smaps()`, the three `SetupStats` fields, and FNV-1a
    /// 64 of the physical address of every installed page of every VMA
    /// in address order.
    fn bring_up_row(b: &SystemBuilder, class: Class, run: bool) -> (u64, u64, u64, u64, u64) {
        use crate::store::{fnv1a64, FNV_OFFSET};
        let mut kernel = AppKind::Cg.build(class);
        let mut sys = b.build(kernel.as_mut()).unwrap();
        if run {
            kernel.run(&mut sys.team);
        }
        let asp = &sys.team.engine().unwrap().aspace;
        let mut pas = FNV_OFFSET;
        for v in asp.vmas() {
            let mut off = 0;
            while off < v.len {
                if let Some(t) = asp.page_table().probe(v.start.add(off)) {
                    pas = fnv1a64(pas, &t.pa.0.to_le_bytes());
                }
                off += v.page_size.bytes();
            }
        }
        let s = sys.setup;
        (
            fnv1a64(FNV_OFFSET, asp.smaps().as_bytes()),
            s.huge_pages_reserved,
            s.pages_prepopulated,
            s.heap_bytes,
            pas,
        )
    }

    #[test]
    fn single_tenant_is_identical_to_plain_system() {
        // The twin test: one tenant under the timeslice scheduler with
        // ASID tagging must reproduce the unscheduled system exactly —
        // same checksum, same counters (including zero switch charges),
        // same clock. The daemon cases cover the tenant's engine wiring
        // and the hint samples it hands off at every slice yield.
        let mut numa = opteron_2x2();
        numa.numa = Some(NumaConfig::opteron(NumaPlacement::FirstTouch));
        let cases = [
            (
                AppKind::Cg,
                2,
                System::builder(opteron_2x2()).policy(PagePolicy::Large2M),
            ),
            (
                AppKind::Cg,
                4,
                System::builder(opteron_2x2()).thp_daemon(true),
            ),
            (
                AppKind::Mg,
                4,
                System::builder(numa)
                    .populate(PopulatePolicy::OnDemand)
                    .numa_daemon(NumaDaemonConfig::default()),
            ),
        ];
        for (app, threads, b) in cases {
            let b = b.threads(threads);
            let mut kernel = app.build(Class::S);
            let mut plain = b.build(kernel.as_mut()).unwrap();
            let cs = kernel.run(&mut plain.team);
            let plain_counters = plain.team.aggregate_counters();
            let plain_cycles = plain.team.elapsed_cycles();

            let report = b
                .tenants(vec![TenantSpec::new("solo", app, Class::S, threads)])
                .timeslice(200_000)
                .build_tenants()
                .unwrap()
                .run();
            assert_eq!(report.tenants.len(), 1);
            let t = &report.tenants[0];
            assert!(t.verified, "{app} t{threads}");
            assert_eq!(t.checksum, cs, "{app} t{threads}");
            assert_eq!(t.counters, plain_counters, "{app} t{threads}");
            assert_eq!(t.finish_cycles, plain_cycles, "{app} t{threads}");
            assert_eq!(t.counters.get(lpomp_prof::Event::ContextSwitches), 0);
            assert_eq!(t.counters.get(lpomp_prof::Event::DeschedCycles), 0);
            assert_eq!(report.switches, 0);
            assert!(
                report.slices > 1,
                "{app} t{threads}: timeslicing never kicked in"
            );
        }
    }

    #[test]
    fn colocated_tenants_all_verify_and_get_charged() {
        let report = System::builder(opteron_2x2())
            .tenants(vec![
                TenantSpec::new("batch", AppKind::Cg, Class::S, 2),
                TenantSpec::new("latency", AppKind::Ep, Class::S, 1),
            ])
            .timeslice(500_000)
            .asid_mode(AsidMode::FlushOnSwitch)
            .build_tenants()
            .unwrap()
            .run();
        assert!(report.tenants.iter().all(|t| t.verified));
        assert!(report.switches > 0, "tenants never alternated");
        let max_finish = report
            .tenants
            .iter()
            .map(|t| t.finish_cycles)
            .max()
            .unwrap();
        assert!(report.makespan >= max_finish);
        let switched: u64 = report
            .tenants
            .iter()
            .map(|t| t.counters.get(lpomp_prof::Event::ContextSwitches))
            .sum();
        assert!(switched > 0, "no context-switch cost was charged");
        let desched: u64 = report
            .tenants
            .iter()
            .map(|t| t.counters.get(lpomp_prof::Event::DeschedCycles))
            .sum();
        assert!(desched > 0, "no tenant ever waited for the machine");
    }
}
