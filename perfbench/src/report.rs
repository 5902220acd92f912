//! Metric definitions, the per-layer figures of a traced run, and the
//! reconciliation ledger that explains a workload's engine time as the
//! sum of count × ns/op per layer.

use std::collections::BTreeMap;

use lpomp_prof::{Counters, Event};

use crate::cells::{EngineCell, Pass};
use crate::span::Probe;
use crate::{median, peak_rss_mb};

/// One metric as `BENCHMARK.json` declares it, plus what it feeds.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric and workload the figure should move.
    pub feeds: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    feeds: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        feeds,
    }
}

/// Printed by every untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    m("wall_s", "s", "lower", "one untraced pass over the workload's cells"),
    m(
        "setup_s",
        "s",
        "lower",
        "bring-up: kernel build, system build, heap aging (median of repetitions)",
    ),
    m(
        "sim_mrefs_per_s",
        "Mref/s",
        "higher",
        "loads+stores+ifetches simulated per host second inside Kernel::run (capture_profile on analytic)",
    ),
    m("peak_rss_mb", "MB", "lower", "VmHWM of the process at the end of the passes"),
];

/// Printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m(
        "tlb.lookup_hit_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on cycle-4k; no change on cycle-2m",
    ),
    m(
        "tlb.lookup_miss_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on cycle-4k; no change on cycle-2m",
    ),
    m(
        "tlb.dtlb_misses",
        "count",
        "lower",
        "sim_mrefs_per_s on cycle-4k",
    ),
    m(
        "tlb.itlb_misses",
        "count",
        "lower",
        "sim_mrefs_per_s on cycle-4k",
    ),
    m(
        "tlb.dtlb_miss_ratio",
        "ratio",
        "lower",
        "sim_mrefs_per_s on cycle-4k",
    ),
    m("vm.walk_ns", "ns", "lower", "sim_mrefs_per_s on cycle-4k"),
    m(
        "vm.walk_2m_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on cycle-4k",
    ),
    m("vm.fault_ns", "ns", "lower", "sim_mrefs_per_s on daemons"),
    m(
        "vm.prefault_ns_per_page",
        "ns",
        "lower",
        "setup_s on cycle-4k vs cycle-2m",
    ),
    m(
        "vm.khugepaged_scan_us",
        "us",
        "lower",
        "sim_mrefs_per_s and wall_s on daemons",
    ),
    m(
        "vm.numa_scan_us",
        "us",
        "lower",
        "sim_mrefs_per_s and wall_s on daemons",
    ),
    m(
        "vm.page_faults",
        "count",
        "lower",
        "sim_mrefs_per_s and wall_s on daemons",
    ),
    m(
        "vm.pages_collapsed",
        "count",
        "higher",
        "sim_mrefs_per_s and wall_s on daemons",
    ),
    m(
        "vm.pages_compacted",
        "count",
        "lower",
        "sim_mrefs_per_s and wall_s on daemons",
    ),
    m(
        "vm.pages_migrated",
        "count",
        "lower",
        "sim_mrefs_per_s and wall_s on daemons",
    ),
    m(
        "vm.numa_hint_faults",
        "count",
        "lower",
        "sim_mrefs_per_s and wall_s on daemons",
    ),
    m(
        "vm.tlb_shootdowns",
        "count",
        "lower",
        "sim_mrefs_per_s and wall_s on daemons",
    ),
    m(
        "vm.collapse_per_scan",
        "ratio",
        "higher",
        "sim_mrefs_per_s and wall_s on daemons",
    ),
    m(
        "vm.migrations_per_1k_hints",
        "ratio",
        "higher",
        "sim_mrefs_per_s and wall_s on daemons",
    ),
    m("vm.age_heap_ms", "ms", "lower", "setup_s on daemons"),
    m(
        "machine.cache_hit_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on cycle-2m first, then cycle-4k",
    ),
    m(
        "machine.cache_miss_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on cycle-2m first, then cycle-4k",
    ),
    m(
        "machine.stride_4k_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on cycle-4k",
    ),
    m(
        "machine.stride_2m_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on cycle-4k",
    ),
    m(
        "machine.stream_line_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on cycle-2m",
    ),
    m(
        "machine.stream_line_numa_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on daemons",
    ),
    m(
        "machine.refs",
        "count",
        "higher",
        "explains sim_mrefs_per_s on every workload",
    ),
    m(
        "machine.l1d_misses",
        "count",
        "lower",
        "explains sim_mrefs_per_s on every workload",
    ),
    m(
        "machine.l2_misses",
        "count",
        "lower",
        "explains sim_mrefs_per_s on every workload",
    ),
    m(
        "machine.dram_remote",
        "count",
        "lower",
        "explains sim_mrefs_per_s on daemons",
    ),
    m(
        "machine.l1d_miss_ratio",
        "ratio",
        "lower",
        "explains sim_mrefs_per_s on every workload",
    ),
    m(
        "runtime.barrier_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on every cycle workload",
    ),
    m(
        "runtime.chunk_static_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on daemons",
    ),
    m(
        "runtime.chunk_dynamic_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on daemons",
    ),
    m(
        "runtime.chunk_hier_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on daemons",
    ),
    m(
        "runtime.barriers",
        "count",
        "lower",
        "sim_mrefs_per_s on every cycle workload",
    ),
    m(
        "runtime.steals_local",
        "count",
        "lower",
        "sim_mrefs_per_s on daemons",
    ),
    m(
        "runtime.steals_remote",
        "count",
        "lower",
        "sim_mrefs_per_s on daemons",
    ),
    m(
        "runtime.remote_steal_share",
        "ratio",
        "lower",
        "sim_mrefs_per_s on daemons",
    ),
    m(
        "prof.recorder_stream_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on analytic; no change on cycle workloads",
    ),
    m(
        "prof.recorder_gather_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on analytic; no change on cycle workloads",
    ),
    m(
        "prof.reuse_access_ns",
        "ns",
        "lower",
        "sim_mrefs_per_s on analytic; no change on cycle workloads",
    ),
    m(
        "prof.capture_ns_per_ref",
        "ns",
        "lower",
        "sim_mrefs_per_s on analytic; no change on cycle workloads",
    ),
    m(
        "prof.profile_to_json_ms",
        "ms",
        "lower",
        "wall_s on analytic",
    ),
    m(
        "prof.profile_from_json_ms",
        "ms",
        "lower",
        "wall_s on analytic",
    ),
    m("prof.profile_json_kb", "KB", "lower", "wall_s on analytic"),
    m("npb.kernel_build_ms", "ms", "lower", "setup_s"),
    m("core.system_build_ms", "ms", "lower", "setup_s"),
    m("core.store_key_us", "us", "lower", "wall_s on analytic"),
    m("core.store_save_us", "us", "lower", "wall_s on analytic"),
    m("core.store_load_us", "us", "lower", "wall_s on analytic"),
    m("eval_p50_us", "us", "lower", "wall_s on analytic"),
    m("eval_p99_us", "us", "lower", "wall_s on analytic"),
    m(
        "xval_time_err_pct",
        "%",
        "lower",
        "accuracy of the analytic backend (analytic only)",
    ),
    m(
        "xval_dtlb_err_pct",
        "%",
        "lower",
        "accuracy of the analytic backend (analytic only)",
    ),
    m("fail_frac", "ratio", "lower", "correct on every workload"),
    m("recon.predicted_s", "s", "lower", "how wall_s breaks down"),
    m("recon.residual_pct", "%", "lower", "how wall_s breaks down"),
    m("trace.overhead_pct", "%", "lower", "how wall_s breaks down"),
    m("span.kernel_build_s", "s", "lower", "setup_s"),
    m("span.system_build_s", "s", "lower", "setup_s"),
    m(
        "span.run_s",
        "s",
        "lower",
        "wall_s and sim_mrefs_per_s on the cycle workloads",
    ),
    m(
        "span.capture_s",
        "s",
        "lower",
        "wall_s and sim_mrefs_per_s on analytic",
    ),
    m("span.eval_s", "s", "lower", "wall_s on analytic"),
    m("span.codec_s", "s", "lower", "wall_s on analytic"),
    m("span.store_s", "s", "lower", "wall_s on analytic"),
];

/// The end-to-end metrics of untraced `passes` (medians over them), in
/// [`END_TO_END`] order; `peak_rss_mb` is the process's at this point.
pub fn end_to_end(passes: &[Pass]) -> Vec<(&'static str, f64)> {
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    vec![
        ("wall_s", med(&|p| p.wall_s)),
        ("setup_s", med(&|p| p.setup_s)),
        (
            "sim_mrefs_per_s",
            med(&|p| p.refs() as f64 / p.engine_s.max(1e-12) / 1e6),
        ),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// Look up a metric's definition.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// One row of the ledger: `ops` operations of a layer at `ns_per_op`.
#[derive(Clone, Debug)]
pub struct LedgerRow {
    pub layer: &'static str,
    pub what: &'static str,
    pub ops: f64,
    pub ns_per_op: f64,
}

impl LedgerRow {
    pub fn seconds(&self) -> f64 {
        self.ops * self.ns_per_op * 1e-9
    }
}

/// Explain the engine time of `cells` with the microbenchmark figures
/// `f`: every row is an operation count from the cells' counters times
/// the ns/op of the public function that performs it. What the rows do
/// not cover (kernel loop code, dispatch, counter bookkeeping) is the
/// residual.
pub fn ledger(cells: &[EngineCell], f: &BTreeMap<String, f64>) -> Vec<LedgerRow> {
    let fig = |k: &str| f.get(k).copied().unwrap_or(0.0);
    let sum = |g: &dyn Fn(&EngineCell) -> f64| cells.iter().map(g).sum::<f64>();
    let ev = |c: &Counters, e: Event| c.get(e) as f64;
    let extra_miss = (fig("machine.cache_miss_ns") - fig("machine.cache_hit_ns")).max(0.0);
    let row = |layer, what, ops, ns_per_op| LedgerRow {
        layer,
        what,
        ops,
        ns_per_op,
    };
    vec![
        row(
            "lpomp-tlb",
            "TLB misses (lookup + fill)",
            sum(&|c| ev(&c.counters, Event::DtlbMisses) + ev(&c.counters, Event::ItlbMisses)),
            fig("tlb.lookup_miss_ns"),
        ),
        row(
            "lpomp-vm",
            "4 KB page walks",
            sum(&|c| {
                ev(&c.counters, Event::ItlbMisses)
                    + if c.large {
                        0.0
                    } else {
                        ev(&c.counters, Event::DtlbMisses)
                    }
            }),
            fig("vm.walk_ns"),
        ),
        row(
            "lpomp-vm",
            "2 MB page walks",
            sum(&|c| {
                if c.large {
                    ev(&c.counters, Event::DtlbMisses)
                } else {
                    0.0
                }
            }),
            fig("vm.walk_2m_ns"),
        ),
        row(
            "lpomp-vm",
            "demand faults",
            sum(&|c| ev(&c.counters, Event::PageFaults)),
            fig("vm.fault_ns"),
        ),
        row(
            "lpomp-vm",
            "khugepaged scans",
            sum(&|c| c.scans[0] as f64),
            fig("vm.khugepaged_scan_us") * 1e3,
        ),
        row(
            "lpomp-vm",
            "NUMA daemon scans",
            sum(&|c| c.scans[1] as f64),
            fig("vm.numa_scan_us") * 1e3,
        ),
        row(
            "lpomp-machine",
            "L1D probes (at hit cost)",
            sum(&|c| ev(&c.counters, Event::Loads) + ev(&c.counters, Event::Stores)),
            fig("machine.cache_hit_ns"),
        ),
        row(
            "lpomp-machine",
            "L2 probes (at hit cost)",
            sum(&|c| ev(&c.counters, Event::L1dMisses)),
            fig("machine.cache_hit_ns"),
        ),
        row(
            "lpomp-machine",
            "L1D + L2 misses (over a hit)",
            sum(&|c| ev(&c.counters, Event::L1dMisses) + ev(&c.counters, Event::L2Misses)),
            extra_miss,
        ),
        row(
            "lpomp-runtime",
            "barrier episodes",
            sum(&|c| ev(&c.counters, Event::Barriers) / c.threads.max(1) as f64),
            fig("runtime.barrier_ns"),
        ),
        row(
            "lpomp-prof",
            "recorded stream refs",
            sum(&|c| c.recorded[0] as f64),
            fig("prof.recorder_stream_ns"),
        ),
        row(
            "lpomp-prof",
            "recorded other refs",
            sum(&|c| c.recorded[1] as f64),
            fig("prof.recorder_gather_ns"),
        ),
    ]
}

/// The ledger's total: predicted engine seconds of `cells`.
pub fn predicted(cells: &[EngineCell], f: &BTreeMap<String, f64>) -> f64 {
    ledger(cells, f).iter().map(LedgerRow::seconds).sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Every per-layer figure of a traced run: the microbenchmarks `micro`,
/// the untraced pass's counts, the ledger, the traced pass's span self
/// times, and the tracing overhead against the untraced pass.
pub fn per_layer(
    untraced: &Pass,
    traced: &Pass,
    probe: &Probe,
    micro: &BTreeMap<String, f64>,
) -> BTreeMap<&'static str, f64> {
    let c = &untraced.counters;
    let g = |e: Event| c.get(e);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for d in PER_LAYER {
        if let Some(&v) = micro.get(d.name) {
            out.insert(d.name, v);
        }
    }
    let counts = [
        ("tlb.dtlb_misses", g(Event::DtlbMisses)),
        ("tlb.itlb_misses", g(Event::ItlbMisses)),
        ("vm.page_faults", g(Event::PageFaults)),
        ("vm.pages_collapsed", g(Event::PagesCollapsed)),
        ("vm.pages_compacted", g(Event::PagesCompacted)),
        ("vm.pages_migrated", g(Event::PagesMigrated)),
        ("vm.numa_hint_faults", g(Event::NumaHintFaults)),
        ("vm.tlb_shootdowns", g(Event::TlbShootdowns)),
        ("machine.refs", untraced.refs()),
        ("machine.l1d_misses", g(Event::L1dMisses)),
        ("machine.l2_misses", g(Event::L2Misses)),
        ("machine.dram_remote", g(Event::RemoteDramAccesses)),
        ("runtime.barriers", g(Event::Barriers)),
        ("runtime.steals_local", g(Event::LocalSteals)),
        ("runtime.steals_remote", g(Event::RemoteSteals)),
    ];
    for (k, v) in counts {
        out.insert(k, v as f64);
    }
    let scans = untraced.scans();
    out.insert(
        "tlb.dtlb_miss_ratio",
        ratio(
            g(Event::DtlbMisses),
            g(Event::DtlbMisses) + g(Event::DtlbHits),
        ),
    );
    out.insert(
        "vm.collapse_per_scan",
        ratio(g(Event::PagesCollapsed), scans[0]),
    );
    out.insert(
        "vm.migrations_per_1k_hints",
        1000.0 * ratio(g(Event::PagesMigrated), g(Event::NumaHintFaults)),
    );
    out.insert(
        "machine.l1d_miss_ratio",
        ratio(g(Event::L1dMisses), g(Event::Loads) + g(Event::Stores)),
    );
    out.insert(
        "runtime.remote_steal_share",
        ratio(
            g(Event::RemoteSteals),
            g(Event::RemoteSteals) + g(Event::LocalSteals),
        ),
    );
    let mean_ms = |i: usize| {
        let v: Vec<f64> = untraced.split_s.iter().map(|s| s[i]).collect();
        1e3 * v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    out.insert("npb.kernel_build_ms", mean_ms(0));
    out.insert("core.system_build_ms", mean_ms(1));
    out.insert("xval_time_err_pct", untraced.xval_pct[0]);
    out.insert("xval_dtlb_err_pct", untraced.xval_pct[1]);
    out.insert(
        "fail_frac",
        ratio(
            (untraced.failed() + traced.failed()) as u64,
            (untraced.attempted() + traced.attempted()) as u64,
        ),
    );
    let predicted = predicted(&untraced.engine_cells, micro);
    out.insert("recon.predicted_s", predicted);
    out.insert(
        "recon.residual_pct",
        100.0 * (untraced.engine_s - predicted) / untraced.engine_s.max(1e-12),
    );
    out.insert(
        "trace.overhead_pct",
        100.0 * (traced.wall_s - untraced.wall_s) / untraced.wall_s.max(1e-12),
    );
    let selfs = probe.self_seconds();
    for (metric, span) in [
        ("span.kernel_build_s", "kernel_build"),
        ("span.system_build_s", "system_build"),
        ("span.run_s", "run"),
        ("span.capture_s", "capture"),
        ("span.eval_s", "eval"),
        ("span.codec_s", "codec"),
        ("span.store_s", "store"),
    ] {
        out.insert(metric, selfs.get(span).copied().unwrap_or(0.0));
    }
    out
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(attempted: usize, failed: usize, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            let unit = def(name).map_or("", |d| d.unit);
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(matches!(d.better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_json_parses() {
        let line = result_json(3, 0, &[("wall_s", 1.25), ("setup_s", 0.5)]);
        let j = lpomp_prof::parse_json(&line).unwrap();
        assert_eq!(j.get("attempted").and_then(|v| v.as_num()), Some(3.0));
        let wall = j.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("unit").and_then(|u| u.as_str()), Some("s"));
    }
}
