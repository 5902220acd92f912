//! The analytic backend: evaluate a captured [`StreamProfile`] against a
//! machine preset, page policy and placement — in microseconds, not
//! simulated-access-by-access.
//!
//! The model mirrors the cycle engine's charge rules exactly, replacing
//! the stateful structures (TLBs, caches) with reuse-distance queries:
//!
//! * **Caches** — when the geometry is one of the capture's
//!   [`CONFLICT_SHAPES`](lpomp_prof::reuse::CONFLICT_SHAPES), misses come from the per-set stack-distance
//!   histogram: an access hits a `w`-way set iff fewer than `w` distinct
//!   lines of the same set intervened. That is the simulated array's
//!   exact replacement rule (the engine's caches are VA-indexed, as is
//!   the capture), and it sees the conflict misses of power-of-two
//!   strides that a fully-associative model hides (SP's pencil walks).
//!   Unknown geometries fall back to the fully-associative LRU
//!   approximation — hit iff line reuse distance `d < C` effective
//!   lines, capacity divided among co-resident sharers. DRAM-bound
//!   misses charge `CostModel::dram_cycles` by access mode — the same
//!   table the cycle engine's `cache_access` reads.
//! * **TLBs** — the same query at page granularity, using the policy's
//!   mapping size (4 KB or 2 MB) against [`TlbConfig`](lpomp_tlb::TlbConfig) reach: L1 hit if
//!   `d < e1`, L2 hit if `d < e1 + e2` (4 KB only where the preset has a
//!   unified L2 TLB), else a full miss charging
//!   `CostModel::walk_cached_cycles`. A set-associative L2 TLB (the
//!   Opteron's 4-way array) additionally misses any access whose per-set
//!   distance reaches its ways, via the matching conflict shape.
//!   Streamed walks under 4 KB pages add the cold-PTE-line fraction (one
//!   DRAM leaf fetch per 8 pages).
//!
//!   Shared structures (SMT-shared L1/TLBs, chip-shared L2) use their
//!   full capacity per thread rather than a divided share: the engine
//!   interleaves threads in coarse batched quanta, so cross-context
//!   interference is second-order — cross-validation at class W confirms
//!   full capacity tracks the engine far better than a 1/share model.
//! * **Prefetch restarts** — `min(stream-mode full misses, stream
//!   accesses in a page's first two lines)`: the cycle engine restarts
//!   only when a TLB miss lands at a page boundary mid-stream.
//! * **SMT** — co-resident threads scale their whole charge by
//!   `CostModel::smt_scale` and, on flush-on-stall parts, add one
//!   flush per stalling DRAM access, exactly like `maybe_smt_flush`.
//! * **NUMA** — a per-thread remote fraction from the placement policy
//!   (all-remote off node 0 for `MasterNode`, `(n-1)/n` for interleave,
//!   local for first-touch) applied to DRAM-bound misses.
//! * **Critical path** — phases are barrier-delimited in the engine, so
//!   total cycles = Σ over phases of the slowest thread plus the phase's
//!   barrier costs, the same rule `barrier_sync` applies.
//!
//! Everything is plain `f64` arithmetic over the profile's integer
//! counts: evaluating the same profile twice — or a profile round-tripped
//! through JSON — yields bit-identical results.

use crate::config::MachineConfig;
use crate::machine::AccessMode;
use lpomp_prof::reuse::{
    conflict_shape_index, PhaseThread, StreamProfile, GRAN_LINE, GRAN_PAGE4K, MODES, MODE_LATENCY,
    MODE_PIPELINED, MODE_STREAM,
};
use lpomp_prof::{Counters, Event};
use lpomp_tlb::Assoc;
use lpomp_vm::{MMArch, PageSize};

/// One evaluation point: a profile against a machine and page policy.
pub struct AnalyticPoint<'a> {
    /// The captured reference stream.
    pub profile: &'a StreamProfile,
    /// Machine preset to evaluate against.
    pub config: &'a MachineConfig,
    /// Mapping granularity of the shared heap under the page policy.
    pub page_size: PageSize,
    /// Whether pages fault on first touch (demand population) instead of
    /// being prefaulted.
    pub demand_faults: bool,
}

/// Predicted run outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyticResult {
    /// Critical-path cycles.
    pub cycles: u64,
    /// Wall-clock seconds at the preset's frequency.
    pub seconds: f64,
    /// Predicted aggregate counter sheet.
    pub counters: Counters,
}

struct ThreadEnv {
    /// Fallback fully-associative capacities (unknown geometries only).
    l1_lines: u64,
    l2_lines: u64,
    /// Captured conflict shape `(index, ways)` per structure, if any.
    l1_shape: Option<(usize, u64)>,
    l2_shape: Option<(usize, u64)>,
    dtlb_l2_shape: Option<(usize, u64)>,
    de1: u64,
    de2: Option<u64>,
    ie1: u64,
    ie2: Option<u64>,
    smt_coresident: bool,
    remote_frac: f64,
}

/// Per-set misses of a captured conflict shape, if this profile has it.
#[inline]
fn conflict_misses(pt: &PhaseThread, shape: Option<(usize, u64)>, m: usize) -> Option<f64> {
    let (i, ways) = shape?;
    Some(pt.conflict.get(i)?[m].misses_beyond(ways))
}

/// Evaluate one point. Cost: one histogram walk per (phase, thread,
/// mode) — microseconds for real profiles.
pub fn evaluate(point: &AnalyticPoint) -> AnalyticResult {
    let cfg = point.config;
    let cost = &cfg.cost;
    let profile = point.profile;
    let threads = profile.threads;
    let placement = cfg.placement(threads);
    let residency = cfg.residency(threads);
    let size = point.page_size;

    // Geometry → captured conflict shape (shared by all threads).
    let cache_shape = |c: &crate::cache::CacheConfig| {
        conflict_shape_index(GRAN_LINE, c.sets() as u32, u32::from(c.ways))
            .map(|i| (i, u64::from(c.ways)))
    };
    let l1_shape = cache_shape(&cfg.l1d);
    let l2_shape = cache_shape(&cfg.l2);
    let arch = cfg.arch();
    let rank = arch
        .rank_of(size)
        .expect("policy page size is on the machine's ladder");
    // The per-set conflict capture keys pages at 4 KB, so the conflict
    // view of a set-associative L2 TLB applies only to 4 KB mappings.
    let dtlb_l2_shape = cfg.dtlb.l2.and_then(|l| {
        let slot = l.slot(0);
        match slot.assoc {
            Assoc::Ways(w) if size == PageSize::Small4K && w > 0 && slot.entries >= w => {
                conflict_shape_index(GRAN_PAGE4K, u32::from(slot.entries / w), u32::from(w))
                    .map(|i| (i, u64::from(w)))
            }
            _ => None,
        }
    });

    let envs: Vec<ThreadEnv> = (0..threads)
        .map(|t| {
            let core = placement[t];
            let share = residency[core] as u64;
            let l2_sharers = (0..threads)
                .filter(|&u| cfg.l2_of_core(placement[u]) == cfg.l2_of_core(core))
                .count() as u64;
            let level = |entries: u16| -> u64 { u64::from(entries) };
            let de1 = level(cfg.dtlb.l1.entries_at(rank)).max(1);
            let de2 = cfg
                .dtlb
                .l2
                .map(|l| level(l.entries_at(rank)))
                .filter(|&e| e > 0);
            // Code maps at the architecture's base granule: ladder rank 0.
            let ie1 = level(cfg.itlb.l1.entries_at(0)).max(1);
            let ie2 = cfg
                .itlb
                .l2
                .map(|l| level(l.entries_at(0)))
                .filter(|&e| e > 0);
            let remote_frac = match &cfg.numa {
                None => 0.0,
                Some(n) => match n.placement {
                    crate::numa::NumaPlacement::MasterNode => {
                        if cfg.node_of_core(core) == 0 {
                            0.0
                        } else {
                            1.0
                        }
                    }
                    crate::numa::NumaPlacement::Interleave4K
                    | crate::numa::NumaPlacement::Interleave2M => {
                        (n.nodes as f64 - 1.0) / n.nodes as f64
                    }
                    crate::numa::NumaPlacement::FirstTouch => 0.0,
                },
            };
            ThreadEnv {
                l1_lines: (cfg.l1d.capacity_bytes / crate::cache::LINE_BYTES / share).max(1),
                l2_lines: (cfg.l2.capacity_bytes / crate::cache::LINE_BYTES / l2_sharers).max(1),
                l1_shape,
                l2_shape,
                dtlb_l2_shape,
                de1,
                de2,
                ie1,
                ie2,
                smt_coresident: share > 1,
                remote_frac,
            }
        })
        .collect();

    // Accumulators (f64 until the final rounding; u64 where exact).
    let mut total = 0.0f64; // synchronized clock = critical path
    let mut work_sum = 0.0f64; // Σ per-thread charged cycles (pre-barrier-wait)
    let mut c = CounterAcc::default();
    let barrier_cost = cost.barrier_cycles(threads) as f64;

    for phase in &profile.phases {
        let mut slowest = 0.0f64;
        for (t, pt) in phase.threads.iter().enumerate() {
            let cyc = eval_thread(point, &envs[t], pt, &mut c);
            work_sum += cyc;
            if cyc > slowest {
                slowest = cyc;
            }
        }
        total += slowest + phase.barriers as f64 * barrier_cost;
        c.barriers += phase.barriers * threads as u64;
    }

    let cycles = total.round() as u64;
    let counters = c.into_counters(threads, total, work_sum);
    AnalyticResult {
        cycles,
        seconds: cost.seconds(cycles),
        counters,
    }
}

#[derive(Default)]
struct CounterAcc {
    loads: u64,
    stores: u64,
    instructions: u64,
    ifetches: u64,
    l1d_misses: f64,
    l2_misses: f64,
    dtlb_misses: f64,
    dtlb_l2_hits: f64,
    itlb_misses: f64,
    walk_cycles: f64,
    restarts: f64,
    restart_cycles: f64,
    faults: f64,
    smt_flushes: f64,
    smt_flush_cycles: f64,
    local_dram: f64,
    remote_dram: f64,
    barriers: u64,
    numa: bool,
}

impl CounterAcc {
    fn into_counters(self, threads: usize, total: f64, work_sum: f64) -> Counters {
        let mut c = Counters::new();
        let r = |x: f64| x.round() as u64;
        c.add(Event::Loads, self.loads);
        c.add(Event::Stores, self.stores);
        c.add(Event::Instructions, self.instructions);
        c.add(Event::IFetches, self.ifetches);
        let accesses = self.loads + self.stores;
        c.add(Event::DtlbMisses, r(self.dtlb_misses));
        c.add(
            Event::DtlbHits,
            accesses.saturating_sub(r(self.dtlb_misses)),
        );
        c.add(Event::DtlbL2Hits, r(self.dtlb_l2_hits));
        c.add(Event::ItlbMisses, r(self.itlb_misses));
        c.add(Event::L1dMisses, r(self.l1d_misses));
        c.add(Event::L2Misses, r(self.l2_misses));
        c.add(Event::WalkCycles, r(self.walk_cycles));
        c.add(Event::PrefetchRestarts, r(self.restarts));
        c.add(Event::PrefetchRestartCycles, r(self.restart_cycles));
        c.add(Event::PageFaults, r(self.faults));
        c.add(Event::SmtFlushes, r(self.smt_flushes));
        c.add(Event::SmtFlushCycles, r(self.smt_flush_cycles));
        c.add(Event::Barriers, self.barriers);
        if self.numa {
            c.add(Event::LocalDramAccesses, r(self.local_dram));
            c.add(Event::RemoteDramAccesses, r(self.remote_dram));
        }
        // Every thread's clock ends at the synchronized total; the Cycles
        // counter collects all charges including barrier waits.
        let all = threads as f64 * total;
        c.add(Event::Cycles, r(all));
        c.add(Event::BarrierCycles, r((all - work_sum).max(0.0)));
        c
    }
}

/// Per-(phase, thread) charge, mirroring the engine's per-access rules.
fn eval_thread(
    point: &AnalyticPoint,
    env: &ThreadEnv,
    pt: &PhaseThread,
    c: &mut CounterAcc,
) -> f64 {
    let cfg = point.config;
    let cost = &cfg.cost;
    let size = point.page_size;
    let mut cyc = 0.0f64;

    c.loads += pt.loads;
    c.stores += pt.stores;
    c.instructions += pt.instructions;
    c.ifetches += pt.ifetches;
    c.numa |= cfg.numa.is_some();

    // Compute: CPI 1.
    cyc += pt.instructions as f64;

    // Data caches, per access mode.
    let mut dram = [0.0f64; MODES];
    for m in 0..MODES {
        let n = pt.acc[m] as f64;
        // Latency-mode accesses are issued op-by-op, so a co-resident
        // SMT sibling interleaves finely with them and claims its share
        // of the cache ways; batched stream/pipelined runs execute as
        // single engine ops and see the full array.
        let smt_ways = |w: u64| -> u64 {
            if env.smt_coresident && m == MODE_LATENCY {
                (w / 2).max(1)
            } else {
                w
            }
        };
        let m1 = match env.l1_shape.map(|(i, w)| (i, smt_ways(w))) {
            Some(s) => match conflict_misses(pt, Some(s), m) {
                Some(cm) => cm.min(n),
                None => pt.line[m].misses_beyond(env.l1_lines).min(n),
            },
            None => pt.line[m].misses_beyond(env.l1_lines).min(n),
        };
        let m2 = match env.l2_shape.map(|(i, w)| (i, smt_ways(w))) {
            Some(s) => match conflict_misses(pt, Some(s), m) {
                Some(cm) => cm.min(m1),
                None => pt.line[m].misses_beyond(env.l2_lines).min(m1),
            },
            None => pt.line[m].misses_beyond(env.l2_lines).min(m1),
        };
        let mode = [
            AccessMode::Latency,
            AccessMode::Pipelined,
            AccessMode::Stream,
        ][m];
        cyc += (n - m1) * cost.l1_hit as f64
            + (m1 - m2) * cost.l2_hit as f64
            + m2 * cost.dram_cycles(mode) as f64;
        c.l1d_misses += m1;
        c.l2_misses += m2;
        dram[m] = m2;
    }

    // DTLB at the mapping size.
    let arch = cfg.arch();
    let hist = pt
        .page_hist(size.shift())
        .expect("mapping size is a captured page granularity");
    let mut stream_full = 0.0f64;
    for (m, hm) in hist.iter().enumerate() {
        let n = pt.acc[m] as f64;
        let miss1 = hm.misses_beyond(env.de1).min(n);
        // L2 reach: capacity view (fully-associative over e1+e2), raised
        // by the set-conflict view where the L2 is set-associative — an
        // access whose per-set distance reaches the ways misses the L2
        // regardless of total footprint.
        let chain = match env.de2 {
            Some(e2) => hm.misses_beyond(env.de1 + e2).min(miss1),
            None => miss1,
        };
        let full = match conflict_misses(pt, env.dtlb_l2_shape, m) {
            Some(cm) => cm.min(miss1).max(chain),
            None => chain,
        };
        let l2_hits = miss1 - full;
        // Leaf PTE fetch: resident in the L2 except when a 4 KB stream
        // sweeps fresh PTE lines — 8 leaf entries per line, so one DRAM
        // leaf fetch per 8 page walks.
        let leaf = if size == PageSize::Small4K && m == MODE_STREAM {
            cost.l2_hit as f64 + (cost.dram as f64 - cost.l2_hit as f64) / 8.0
        } else {
            cost.l2_hit as f64
        };
        let walk_levels = if cfg.page_walk_cache {
            1.0
        } else {
            // No page-walk cache: every radix level references memory —
            // fewer for rungs whose leaf sits higher in the tree.
            let rung = arch.rung_of(size).expect("mapping size is on the ladder");
            f64::from(rung.walk_levels(&arch.walk_shape()))
        };
        let walk = cost.walk_base as f64 + leaf * walk_levels;
        let w = l2_hits * cost.tlb_l2_hit as f64 + full * walk;
        cyc += w;
        c.walk_cycles += full * walk;
        c.dtlb_misses += full;
        c.dtlb_l2_hits += l2_hits;
        if m == MODE_STREAM {
            stream_full = full;
        }
    }

    // Prefetch restarts: a stream-mode TLB miss landing in a page's
    // first two lines.
    let stream_pages = pt.stream_pages_at(size.shift()) as f64;
    let restarts = stream_full.min(stream_pages);
    cyc += restarts * cost.stream_restart as f64;
    c.restarts += restarts;
    c.restart_cycles += restarts * cost.stream_restart as f64;

    // Demand faults: each thread's first touch of a page (overlapping
    // first touches of shared pages make this an upper bound).
    if point.demand_faults {
        let cold: u64 = hist.iter().map(|h| h.cold).sum();
        cyc += cold as f64 * cost.page_fault as f64;
        c.faults += cold as f64;
    }

    // ITLB over the fetch stream (code maps at the base granule).
    {
        let code = pt
            .code_hist(arch.base().shift())
            .expect("base granule is a captured code granularity");
        let n = pt.ifetches as f64;
        let miss1 = code.misses_beyond(env.ie1).min(n);
        let full = match env.ie2 {
            Some(e2) => code.misses_beyond(env.ie1 + e2).min(miss1),
            None => miss1,
        };
        cyc += (miss1 - full) * cost.tlb_l2_hit as f64 + full * cost.walk_cached_cycles() as f64;
        c.walk_cycles += full * cost.walk_cached_cycles() as f64;
        c.itlb_misses += full;
    }

    // NUMA remote penalty on DRAM-bound misses.
    if let Some(numa) = &cfg.numa {
        let f = env.remote_frac;
        let dram_total = dram[MODE_LATENCY] + dram[MODE_PIPELINED] + dram[MODE_STREAM];
        cyc += f
            * ((dram[MODE_LATENCY] + dram[MODE_PIPELINED]) * numa.remote_extra as f64
                + dram[MODE_STREAM] * numa.remote_stream_extra as f64);
        c.remote_dram += f * dram_total;
        c.local_dram += (1.0 - f) * dram_total;
    }

    // SMT flush on stalling (latency/pipelined) DRAM accesses.
    if cfg.smt_flush_on_stall && env.smt_coresident {
        let flushes = dram[MODE_LATENCY] + dram[MODE_PIPELINED];
        cyc += flushes * cost.smt_flush as f64;
        c.smt_flushes += flushes;
        c.smt_flush_cycles += flushes * cost.smt_flush as f64;
    }

    // Co-resident SMT contexts scale every charge.
    if env.smt_coresident {
        cyc = cyc * cost.smt_share_num as f64 / cost.smt_share_den as f64;
    }
    cyc
}
