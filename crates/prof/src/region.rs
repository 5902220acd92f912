//! Region attribution: charging every counter increment to a named phase.
//!
//! The paper's argument is made with OProfile *attribution* — DTLB misses
//! and cycles pinned to specific parallel loops of the NPB kernels (§4,
//! Figs. 3–5). This module is that attribution layer for the simulator:
//! the runtime pushes named regions ("cg:matvec", "rt:barrier",
//! "os:khugepaged", …) around the work it executes, and every event a
//! thread's counter sheet records while a region is innermost is charged
//! to that region for that thread.
//!
//! Attribution is **conservative by construction**: the profiler keeps a
//! per-thread snapshot of the thread's [`Counters`] and, on every region
//! transition, settles `current - snapshot` into the outgoing innermost
//! region's bucket. Counters only change via the thread sheets the engine
//! already owns, so for every [`Event`] the sum over regions equals the
//! global counter exactly — no sampling error, no double counting. The
//! engine debug-asserts this at barriers and the `regions` property test
//! asserts it at several thread counts.
//!
//! Region id 0 is the implicit root, `"(root)"`: whatever runs outside
//! any named region (startup faults, un-annotated loops) lands there, so
//! conservation holds even for partially annotated programs.

use std::collections::HashMap;

use crate::counters::{Counters, Event, Profile};
use crate::trace::TraceRecorder;

/// What the engine should profile. The default is [`ProfileSpec::Off`]:
/// no per-region state is kept and runs are byte-identical to a build
/// without the profiler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProfileSpec {
    /// No attribution (zero overhead; region enters/exits are no-ops).
    #[default]
    Off,
    /// Per-region × per-thread counter attribution ([`ProfileSheet`]).
    Regions,
    /// Regions plus a Chrome `trace_event` timeline (see
    /// [`crate::trace`]).
    Trace,
}

impl ProfileSpec {
    /// Whether any profiling is requested.
    pub fn enabled(self) -> bool {
        self != ProfileSpec::Off
    }

    /// Whether the timeline recorder is requested.
    pub fn wants_trace(self) -> bool {
        self == ProfileSpec::Trace
    }
}

/// Index of a region in a [`RegionProfiler`] / [`ProfileSheet`].
pub type RegionId = usize;

/// Name of the implicit root region (id 0).
pub(crate) const ROOT_REGION: &str = "(root)";

/// The live attribution state the simulated engine drives.
///
/// Region transitions are control-flow events: the runtime enters/exits
/// regions *between* parallel work (fork points, barrier episodes, daemon
/// slots), never mid-quantum, so a single region stack is shared by all
/// threads while the counter buckets stay per-thread.
#[derive(Debug)]
pub struct RegionProfiler {
    names: Vec<String>,
    index: HashMap<String, RegionId>,
    stack: Vec<RegionId>,
    /// Per-thread counter snapshot at the last transition.
    snaps: Vec<Counters>,
    /// Attributed counters: `rows[region][thread]`.
    rows: Vec<Vec<Counters>>,
    /// Thread → core placement (for the trace's track metadata).
    cores: Vec<usize>,
    trace: Option<TraceRecorder>,
}

impl RegionProfiler {
    /// A fresh profiler for `cores.len()` threads (thread `t` runs on
    /// core `cores[t]`). `trace` additionally records the timeline.
    pub fn new(cores: Vec<usize>, trace: bool) -> Self {
        let threads = cores.len();
        RegionProfiler {
            names: vec![ROOT_REGION.to_owned()],
            index: HashMap::from([(ROOT_REGION.to_owned(), 0)]),
            stack: Vec::new(),
            snaps: vec![Counters::new(); threads],
            rows: vec![vec![Counters::new(); threads]],
            cores,
            trace: trace.then(TraceRecorder::new),
        }
    }

    /// Number of threads attributed.
    pub fn threads(&self) -> usize {
        self.snaps.len()
    }

    /// The innermost active region (root when the stack is empty).
    pub fn current(&self) -> RegionId {
        self.stack.last().copied().unwrap_or(0)
    }

    fn intern(&mut self, name: &str) -> RegionId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len();
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        self.rows.push(vec![Counters::new(); self.threads()]);
        id
    }

    /// Settle every thread's counters-since-snapshot into the innermost
    /// active region.
    fn settle(&mut self, profile: &Profile) {
        let region = self.current();
        for t in 0..self.snaps.len() {
            let now = profile.thread(t);
            let delta = now.diff(&self.snaps[t]);
            self.rows[region][t].merge(&delta);
            self.snaps[t] = now.clone();
        }
    }

    /// Enter a named region: settle the outgoing region, push the new
    /// one, and (when tracing) open a duration slice on every track at
    /// each thread's current clock.
    pub fn enter(&mut self, name: &str, profile: &Profile, clocks: &[u64]) {
        self.settle(profile);
        let id = self.intern(name);
        self.stack.push(id);
        if let Some(tr) = &mut self.trace {
            for (t, &ts) in clocks.iter().enumerate() {
                tr.begin(&self.names[id], t, ts);
            }
        }
    }

    /// Exit the innermost region (settling it first). Unbalanced exits
    /// are a runtime-wiring bug and panic.
    pub fn exit(&mut self, profile: &Profile, clocks: &[u64]) {
        self.settle(profile);
        let id = self.stack.pop().expect("region exit without enter");
        if let Some(tr) = &mut self.trace {
            for (t, &ts) in clocks.iter().enumerate() {
                tr.end(&self.names[id], t, ts);
            }
        }
    }

    /// Record an instantaneous timeline event (shootdowns, migrations) on
    /// one thread's track. No counter attribution — purely a trace mark.
    pub fn instant(&mut self, name: &str, thread: usize, clock: u64) {
        if let Some(tr) = &mut self.trace {
            tr.instant(name, thread, clock);
        }
    }

    /// Settle and snapshot the attribution so far as a [`ProfileSheet`].
    pub fn sheet(&mut self, profile: &Profile) -> ProfileSheet {
        self.settle(profile);
        ProfileSheet {
            names: self.names.clone(),
            cores: self.cores.clone(),
            rows: self.rows.clone(),
        }
    }

    /// Render the timeline recorded so far as Chrome `trace_event` JSON
    /// (None unless built with `trace`).
    pub fn trace_json(&self) -> Option<String> {
        self.trace.as_ref().map(|t| t.to_json(&self.cores))
    }

    /// Assert exact conservation: for every thread and every [`Event`],
    /// the sum over regions equals the thread's global counter.
    ///
    /// Settles first, so it may be called at any transition-safe point
    /// (the engine calls it at barriers in debug builds).
    pub fn check_conservation(&mut self, profile: &Profile) {
        self.settle(profile);
        for t in 0..self.snaps.len() {
            let mut summed = Counters::new();
            for row in &self.rows {
                summed.merge(&row[t]);
            }
            for e in Event::ALL {
                assert_eq!(
                    summed.get(e),
                    profile.thread(t).get(e),
                    "region attribution lost {e} events on thread {t}"
                );
            }
        }
    }

    /// Zero the attribution and the timeline (the engine's
    /// `reset_timing` analogue). Interned names and the active stack are
    /// kept — the program's phase structure does not change on reset.
    pub fn reset(&mut self) {
        for row in &mut self.rows {
            row.iter_mut().for_each(|c| *c = Counters::new());
        }
        self.snaps.iter_mut().for_each(|c| *c = Counters::new());
        if let Some(tr) = &mut self.trace {
            tr.clear();
        }
    }
}

/// A finished attribution: every [`Event`] counter, per region × thread.
///
/// `PartialEq` compares everything exactly; determinism tests compare
/// whole sheets.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileSheet {
    names: Vec<String>,
    cores: Vec<usize>,
    rows: Vec<Vec<Counters>>,
}

impl ProfileSheet {
    /// Number of regions (including the root).
    pub fn region_count(&self) -> usize {
        self.names.len()
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.cores.len()
    }

    /// Core a thread ran on.
    pub fn core_of(&self, thread: usize) -> usize {
        self.cores[thread]
    }

    /// A region's name.
    pub fn name(&self, region: RegionId) -> &str {
        &self.names[region]
    }

    /// Look a region up by name.
    pub fn by_name(&self, name: &str) -> Option<RegionId> {
        self.names.iter().position(|n| n == name)
    }

    /// One region's counters on one thread.
    pub fn get(&self, region: RegionId, thread: usize) -> &Counters {
        &self.rows[region][thread]
    }

    /// One region's counters summed across threads.
    pub fn region_total(&self, region: RegionId) -> Counters {
        let mut total = Counters::new();
        for c in &self.rows[region] {
            total.merge(c);
        }
        total
    }

    /// Sum of every region on every thread — equals the run's aggregate
    /// counters (the conservation invariant).
    pub fn total(&self) -> Counters {
        let mut total = Counters::new();
        for r in 0..self.region_count() {
            total.merge(&self.region_total(r));
        }
        total
    }

    /// Regions ranked by an event's cross-thread total, descending;
    /// ties break by name so the order is deterministic. Zero-count
    /// regions are omitted.
    pub fn top_by(&self, e: Event) -> Vec<(RegionId, u64)> {
        let mut ranked: Vec<(RegionId, u64)> = (0..self.region_count())
            .map(|r| (r, self.region_total(r).get(e)))
            .filter(|&(_, n)| n > 0)
            .collect();
        ranked.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| self.names[a.0].cmp(&self.names[b.0]))
        });
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile2() -> Profile {
        Profile::new(2)
    }

    #[test]
    fn settles_deltas_into_the_innermost_region() {
        let mut p = profile2();
        let mut rp = RegionProfiler::new(vec![0, 1], false);
        p.thread_mut(0).add(Event::Loads, 10); // root work
        rp.enter("a", &p, &[0, 0]);
        p.thread_mut(0).add(Event::Loads, 5);
        p.thread_mut(1).add(Event::Stores, 7);
        rp.enter("a:inner", &p, &[0, 0]);
        p.thread_mut(0).add(Event::Loads, 1);
        rp.exit(&p, &[0, 0]); // a:inner
        rp.exit(&p, &[0, 0]); // a
        p.thread_mut(1).add(Event::Loads, 2); // root again
        let sheet = rp.sheet(&p);
        let root = sheet.by_name(ROOT_REGION).unwrap();
        let a = sheet.by_name("a").unwrap();
        let inner = sheet.by_name("a:inner").unwrap();
        assert_eq!(sheet.get(root, 0).get(Event::Loads), 10);
        assert_eq!(sheet.get(root, 1).get(Event::Loads), 2);
        assert_eq!(sheet.get(a, 0).get(Event::Loads), 5);
        assert_eq!(sheet.get(a, 1).get(Event::Stores), 7);
        assert_eq!(sheet.get(inner, 0).get(Event::Loads), 1);
        rp.check_conservation(&p);
    }

    #[test]
    fn reentered_regions_accumulate() {
        let mut p = profile2();
        let mut rp = RegionProfiler::new(vec![0, 1], false);
        for _ in 0..3 {
            rp.enter("loop", &p, &[0, 0]);
            p.thread_mut(0).add(Event::Cycles, 4);
            rp.exit(&p, &[0, 0]);
        }
        let sheet = rp.sheet(&p);
        assert_eq!(sheet.region_count(), 2, "one named region plus the root");
        let id = sheet.by_name("loop").unwrap();
        assert_eq!(sheet.region_total(id).get(Event::Cycles), 12);
    }

    #[test]
    fn conservation_holds_with_unannotated_work() {
        let mut p = profile2();
        let mut rp = RegionProfiler::new(vec![0, 1], false);
        p.thread_mut(0).add(Event::Cycles, 100);
        p.thread_mut(1).add(Event::Cycles, 50);
        rp.enter("x", &p, &[0, 0]);
        p.thread_mut(1).add(Event::DtlbMisses, 9);
        rp.exit(&p, &[0, 0]);
        rp.check_conservation(&p);
        let sheet = rp.sheet(&p);
        assert_eq!(sheet.total(), p.aggregate());
    }

    #[test]
    fn top_by_ranks_descending_with_name_ties() {
        let mut p = profile2();
        let mut rp = RegionProfiler::new(vec![0, 1], false);
        for (name, n) in [("b", 5u64), ("a", 5), ("c", 9), ("zero", 0)] {
            rp.enter(name, &p, &[0, 0]);
            p.thread_mut(0).add(Event::DtlbMisses, n);
            rp.exit(&p, &[0, 0]);
        }
        let sheet = rp.sheet(&p);
        let ranked: Vec<(&str, u64)> = sheet
            .top_by(Event::DtlbMisses)
            .into_iter()
            .map(|(r, n)| (sheet.name(r), n))
            .collect();
        assert_eq!(ranked, vec![("c", 9), ("a", 5), ("b", 5)]);
    }

    #[test]
    fn reset_zeroes_attribution_but_keeps_names() {
        let mut p = profile2();
        let mut rp = RegionProfiler::new(vec![0, 1], false);
        rp.enter("phase", &p, &[0, 0]);
        p.thread_mut(0).add(Event::Loads, 3);
        rp.exit(&p, &[0, 0]);
        p = Profile::new(2); // the engine resets its profile too
        rp.reset();
        rp.check_conservation(&p);
        let sheet = rp.sheet(&p);
        assert_eq!(sheet.by_name("phase"), Some(1));
        assert_eq!(sheet.total(), Counters::new());
    }

    #[test]
    #[should_panic(expected = "region exit without enter")]
    fn unbalanced_exit_panics() {
        let p = profile2();
        let mut rp = RegionProfiler::new(vec![0, 1], false);
        rp.exit(&p, &[0, 0]);
    }
}
