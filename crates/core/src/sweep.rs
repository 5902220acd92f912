//! Experiment grids: run a cartesian sweep of (application × machine ×
//! policy × thread count) and query the results.
//!
//! The figure binaries are thin wrappers over [`run_backend`]; downstream
//! users studying their own questions ("what does a 512-entry L2 TLB do
//! to SP?") want the sweep as a *library*: build a [`SweepSpec`], run it,
//! and slice the [`SweepResults`] by any axis.
//!
//! There is one grid engine: [`KeyedGrid`], a list of [`StoreKey`]s plus
//! a closure producing cell `i`. A [`SweepSpec`] is one producer of it
//! ([`SweepSpec::grid`]); experiment binaries with their own cell types
//! build others. Every grid gets the same store machinery — incremental
//! re-runs, interleaved shards with coverage manifests, validated
//! merges and JSON-lines streaming.
//!
//! [`run_backend`]: crate::run_backend

use crate::backend::BackendKind;
use crate::experiment::{RunOpts, RunRecord};
use crate::parallel::{default_workers, par_map};
use crate::policy::PagePolicy;
use crate::store::{sweep_id, GridCell, JsonlSink, RunStore, Shard, ShardManifest, StoreKey};
use crate::system::SystemBuilder;
use lpomp_machine::MachineConfig;
use lpomp_npb::{AppKind, Class};
use std::sync::Mutex;

/// The grid of configurations to run.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Applications to run.
    pub apps: Vec<AppKind>,
    /// Problem class (one per sweep; classes change the problem, so
    /// cross-class comparisons are rarely meaningful).
    pub class: Class,
    /// Machines to run on.
    pub machines: Vec<MachineConfig>,
    /// Page policies to compare.
    pub policies: Vec<PagePolicy>,
    /// Thread counts. Counts exceeding a machine's contexts are skipped
    /// for that machine.
    pub threads: Vec<usize>,
    /// Per-run options.
    pub opts: RunOpts,
    /// Which engine evaluates each grid point. `CycleExact` (the
    /// default) simulates; `Analytic` evaluates captured reuse profiles
    /// — one capture per `(app, threads)`, then every (machine × policy)
    /// point is closed-form. See [`crate::backend`].
    pub backend: BackendKind,
}

impl SweepSpec {
    /// The paper's Figure 4 grid for the given class.
    pub fn figure4(class: Class) -> Self {
        SweepSpec {
            apps: AppKind::PAPER_FIVE.to_vec(),
            class,
            machines: vec![lpomp_machine::opteron_2x2(), lpomp_machine::xeon_2x2_ht()],
            policies: vec![PagePolicy::Small4K, PagePolicy::Large2M],
            threads: vec![1, 2, 4, 8],
            opts: RunOpts::default(),
            backend: BackendKind::CycleExact,
        }
    }

    /// The same grid evaluated by a different backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Number of runs the sweep will execute.
    pub fn len(&self) -> usize {
        let mut n = 0;
        for m in &self.machines {
            let t = self.threads.iter().filter(|&&t| t <= m.contexts()).count();
            n += self.apps.len() * self.policies.len() * t;
        }
        n
    }

    /// True when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The grid in its canonical (serial-loop) order: machines → apps →
    /// policies → threads, skipping thread counts a machine cannot seat.
    /// Each cell is its app plus the one builder that configures its
    /// system; every `run*` method and [`Self::grid`] use exactly this
    /// list, so results are identical however they are scheduled.
    pub fn cells(&self) -> Vec<(AppKind, SystemBuilder)> {
        let mut cells = Vec::with_capacity(self.len());
        for machine in &self.machines {
            for &app in &self.apps {
                for &policy in &self.policies {
                    for &threads in &self.threads {
                        if threads > machine.contexts() {
                            continue;
                        }
                        let builder = SystemBuilder::new(machine.clone())
                            .policy(policy)
                            .threads(threads);
                        cells.push((app, builder));
                    }
                }
            }
        }
        cells
    }

    /// The sweep as a [`KeyedGrid`] over [`Self::cells`]: the route to
    /// the store machinery (`run_incremental`, `run_shard`,
    /// `merge_shards`). Cell `i` of the grid is record `i` of
    /// [`Self::run`].
    pub fn grid(&self) -> KeyedGrid<'static, RunRecord> {
        KeyedGrid::systems(self.class, self.opts, self.backend, self.cells())
    }

    /// Execute the sweep on [`default_workers`] worker threads
    /// (`LPOMP_WORKERS` overrides; see [`crate::parallel`]).
    ///
    /// Configurations are independent simulations, so the records are
    /// byte-identical to a serial run regardless of worker count.
    pub fn run(&self) -> SweepResults {
        self.run_parallel(default_workers())
    }

    /// Execute the sweep on exactly `workers` threads. `run_parallel(1)`
    /// is the serial loop; any other count produces the same records in
    /// the same (grid) order.
    pub(crate) fn run_parallel(&self, workers: usize) -> SweepResults {
        self.grid().run_all(workers).into()
    }

    /// Execute with a progress callback `(completed, total)`.
    ///
    /// Serial by construction (the callback is `FnMut`); use [`run`] when
    /// no per-run hook is needed.
    ///
    /// [`run`]: SweepSpec::run
    pub fn run_with_progress(&self, mut progress: impl FnMut(usize, usize)) -> SweepResults {
        let cells = self.cells();
        let total = cells.len();
        let backend = self.backend.backend();
        let mut records = Vec::with_capacity(total);
        for (done, (app, builder)) in cells.iter().enumerate() {
            progress(done, total);
            records.push(backend.run(*app, self.class, builder, self.opts));
        }
        records.into()
    }
}

// ---------------------------------------------------------------------
// Keyed grids.

/// An experiment grid with store machinery — incremental re-runs,
/// interleaved shards with coverage manifests, merge validation,
/// JSON-lines streaming — over *any* cell type and run closure. The
/// keys carry the full configuration identity (derive them with
/// [`StoreKey::for_config`] from the builder the cell runs, plus
/// [`StoreKey::with_variant`] for state outside the config); cell `i`
/// is produced by `run(i, &keys[i])` and must be a pure function of
/// that key.
pub struct KeyedGrid<'a, T> {
    keys: Vec<StoreKey>,
    run: CellFn<'a, T>,
}

/// The boxed cell-producing closure of a [`KeyedGrid`].
type CellFn<'a, T> = Box<dyn Fn(usize, &StoreKey) -> T + Sync + 'a>;

impl KeyedGrid<'static, RunRecord> {
    /// A grid of system runs: cell `i` runs `cells[i].0` on the system
    /// `cells[i].1` configures, through `backend`. The same builder
    /// derives the cell's key ([`StoreKey::for_config`]), so the address
    /// covers every knob the run sees.
    pub fn systems(
        class: Class,
        opts: RunOpts,
        backend: BackendKind,
        cells: Vec<(AppKind, SystemBuilder)>,
    ) -> Self {
        let keys = cells
            .iter()
            .map(|(app, b)| StoreKey::for_config(*app, class, b.config(), opts, backend))
            .collect();
        KeyedGrid::new(keys, move |i, _key| {
            let (app, builder) = &cells[i];
            backend.backend().run(*app, class, builder, opts)
        })
    }
}

impl<'a, T: GridCell> KeyedGrid<'a, T> {
    /// A grid over `keys`, with `run` producing cell `i` from key `i`.
    pub fn new(keys: Vec<StoreKey>, run: impl Fn(usize, &StoreKey) -> T + Sync + 'a) -> Self {
        KeyedGrid {
            keys,
            run: Box::new(run),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The grid's keys, in canonical order — index `i` here is "cell
    /// `i`" everywhere in the store and shard machinery.
    pub fn keys(&self) -> &[StoreKey] {
        &self.keys
    }

    /// Content identity of the grid (see [`sweep_id`]); names the shard
    /// manifests so different grids can share one store directory.
    pub fn sweep_id(&self) -> String {
        sweep_id(&self.keys)
    }

    /// Run every cell on `workers` threads, no store involved. Results
    /// are in key order regardless of worker count.
    pub fn run_all(&self, workers: usize) -> Vec<T> {
        let idx: Vec<usize> = (0..self.keys.len()).collect();
        par_map(&idx, workers, |_, &i| (self.run)(i, &self.keys[i]))
    }

    /// Run the grid *incrementally* against `store`: cells whose key
    /// resolves to a valid stored cell are replayed from disk; only the
    /// misses run (on `workers` threads), and every fresh
    /// [storable](GridCell::storable) cell is persisted for next time.
    /// The merged cells are byte-identical to [`Self::run_all`] — same
    /// cells, same key order — so a second invocation on unchanged code
    /// runs nothing. Cached cells are streamed to `sink` first (in key
    /// order, `"cached":true`), then fresh cells as they complete.
    ///
    /// Returns the cells plus `(hits, misses)`; the counts are also
    /// logged to stderr.
    pub fn run_incremental(
        &self,
        store: &RunStore,
        workers: usize,
        sink: Option<&JsonlSink>,
    ) -> std::io::Result<(Vec<T>, usize, usize)> {
        let mut slots: Vec<Option<T>> = self.keys.iter().map(|k| store.load_cell(k)).collect();
        let miss_idx: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_none()).collect();
        let hits = slots.len() - miss_idx.len();
        if let Some(sink) = sink {
            for cell in slots.iter().flatten() {
                sink.emit(cell, true);
            }
        }
        let fresh = self.run_missing(&miss_idx, store, workers, sink)?;
        for (&i, cell) in miss_idx.iter().zip(fresh) {
            slots[i] = Some(cell);
        }
        eprintln!(
            "sweep store [{}]: {hits} hits, {} misses / {} cells",
            store.dir().display(),
            miss_idx.len(),
            slots.len()
        );
        let misses = miss_idx.len();
        Ok((
            slots.into_iter().map(Option::unwrap).collect(),
            hits,
            misses,
        ))
    }

    /// Run this process's slice of a grid partitioned across
    /// `shard.count` cooperating processes sharing `store`, incrementally
    /// (cached cells are not re-run), and record a [`ShardManifest`]
    /// proving which cells this shard covered. Once every shard has run,
    /// [`Self::merge_shards`] assembles the full grid without running
    /// anything.
    pub fn run_shard(
        &self,
        shard: Shard,
        store: &RunStore,
        workers: usize,
        sink: Option<&JsonlSink>,
    ) -> std::io::Result<ShardManifest> {
        let owned: Vec<usize> = (0..self.keys.len()).filter(|&i| shard.covers(i)).collect();
        let mut miss_idx = Vec::new();
        for &i in &owned {
            match store.load_cell::<T>(&self.keys[i]) {
                Some(cell) => {
                    if let Some(sink) = sink {
                        sink.emit(&cell, true);
                    }
                }
                None => miss_idx.push(i),
            }
        }
        let hits = owned.len() - miss_idx.len();
        self.run_missing(&miss_idx, store, workers, sink)?;
        let manifest = ShardManifest {
            sweep: self.sweep_id(),
            shard,
            entries: owned.iter().map(|&i| (i, self.keys[i].address())).collect(),
        };
        manifest.write(store)?;
        eprintln!(
            "sweep store [{}] shard {shard}: {hits} hits, {} misses / {} cells",
            store.dir().display(),
            miss_idx.len(),
            owned.len()
        );
        Ok(manifest)
    }

    /// Assemble a grid previously run as `count` shards into `store` (in
    /// any order, on any mix of hosts sharing the directory). Validates
    /// before trusting: every shard's manifest must be present and belong
    /// to *this* grid, their entries must cover the grid exactly once,
    /// each entry's address must match the key this grid derives
    /// (detecting hash collisions and grid drift), and every cell must
    /// still load. Any violation is a descriptive error, never partial
    /// results. The merged cells equal [`Self::run_all`] byte-for-byte.
    pub fn merge_shards(&self, store: &RunStore, count: usize) -> Result<Vec<T>, String> {
        if count == 0 {
            return Err("merge: shard count must be >= 1".into());
        }
        let id = self.sweep_id();
        let mut covered: Vec<Option<Shard>> = vec![None; self.keys.len()];
        for index in 0..count {
            let shard = Shard { index, count };
            let path = store.dir().join(ShardManifest::file_name(&id, shard));
            if !path.exists() {
                return Err(format!(
                    "merge: shard {shard} of grid {id} has no manifest in {} — \
                     did every `--shard i/{count}` run finish?",
                    store.dir().display()
                ));
            }
            let m = ShardManifest::read(&path)?;
            if m.sweep != id {
                return Err(format!(
                    "merge: manifest {} names grid {}, expected {id}",
                    path.display(),
                    m.sweep
                ));
            }
            if m.shard != shard {
                return Err(format!(
                    "merge: manifest {} claims shard {}, expected {shard}",
                    path.display(),
                    m.shard
                ));
            }
            for &(gi, ref addr) in &m.entries {
                let key = self.keys.get(gi).ok_or_else(|| {
                    format!(
                        "merge: shard {shard} covers cell {gi}, but the grid has {} cells",
                        self.keys.len()
                    )
                })?;
                if *addr != key.address() {
                    return Err(format!(
                        "merge: cell {gi} stored as {addr} but this grid derives {} — \
                         key collision or grid drift",
                        key.address()
                    ));
                }
                if let Some(prev) = covered[gi] {
                    return Err(format!(
                        "merge: cell {gi} covered by both shard {prev} and shard {shard}"
                    ));
                }
                covered[gi] = Some(shard);
            }
        }
        if let Some(gi) = covered.iter().position(Option::is_none) {
            return Err(format!(
                "merge: cell {gi} ({}) covered by no shard",
                self.keys[gi].fingerprint()
            ));
        }
        let mut cells = Vec::with_capacity(self.keys.len());
        for (gi, key) in self.keys.iter().enumerate() {
            cells.push(store.load_cell(key).ok_or_else(|| {
                format!(
                    "merge: cell {gi} ({}) missing or invalid in {}",
                    key.fingerprint(),
                    store.dir().display()
                )
            })?);
        }
        Ok(cells)
    }

    /// Run cells `miss_idx`, saving and streaming each. The first
    /// store-write error aborts (a grid that cannot persist would
    /// silently lose its resume guarantee).
    fn run_missing(
        &self,
        miss_idx: &[usize],
        store: &RunStore,
        workers: usize,
        sink: Option<&JsonlSink>,
    ) -> std::io::Result<Vec<T>> {
        let save_errors: Mutex<Vec<std::io::Error>> = Mutex::new(Vec::new());
        let fresh = par_map(miss_idx, workers, |_, &gi| {
            let cell = (self.run)(gi, &self.keys[gi]);
            if let Err(e) = store.save_cell(&self.keys[gi], &cell) {
                save_errors
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(e);
            }
            if let Some(sink) = sink {
                sink.emit(&cell, false);
            }
            cell
        });
        let mut errors = save_errors.into_inner().unwrap_or_else(|p| p.into_inner());
        match errors.pop() {
            Some(e) => Err(e),
            None => Ok(fresh),
        }
    }
}

/// The outcome of a sweep: every [`RunRecord`], queryable by axis.
#[derive(Clone, Debug)]
pub struct SweepResults {
    records: Vec<RunRecord>,
}

impl From<Vec<RunRecord>> for SweepResults {
    /// Wrap a grid's records (e.g. from [`SweepSpec::grid`]) for
    /// querying.
    fn from(records: Vec<RunRecord>) -> Self {
        SweepResults { records }
    }
}

impl SweepResults {
    /// All records.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// The record for an exact configuration, if present.
    pub fn get(
        &self,
        app: AppKind,
        machine: &str,
        policy: PagePolicy,
        threads: usize,
    ) -> Option<&RunRecord> {
        self.records.iter().find(|r| {
            r.app == app && r.machine == machine && r.policy == policy && r.threads == threads
        })
    }

    /// Improvement (%) of `PagePolicy::Large2M` over `PagePolicy::Small4K`
    /// for a configuration, if both runs exist.
    pub fn improvement(&self, app: AppKind, machine: &str, threads: usize) -> Option<f64> {
        let small = self.get(app, machine, PagePolicy::Small4K, threads)?;
        let large = self.get(app, machine, PagePolicy::Large2M, threads)?;
        Some((1.0 - large.seconds / small.seconds) * 100.0)
    }

    /// DTLB-miss reduction factor (4 KB ÷ 2 MB) for a configuration.
    pub fn miss_reduction(&self, app: AppKind, machine: &str, threads: usize) -> Option<f64> {
        let small = self.get(app, machine, PagePolicy::Small4K, threads)?;
        let large = self.get(app, machine, PagePolicy::Large2M, threads)?;
        Some(small.dtlb_misses() as f64 / large.dtlb_misses().max(1) as f64)
    }

    /// Parallel speedup of a configuration relative to its 1-thread run.
    pub fn speedup(
        &self,
        app: AppKind,
        machine: &str,
        policy: PagePolicy,
        threads: usize,
    ) -> Option<f64> {
        let one = self.get(app, machine, policy, 1)?;
        let n = self.get(app, machine, policy, threads)?;
        Some(one.seconds / n.seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::run_backend;
    use lpomp_machine::opteron_2x2;
    use lpomp_prof::{Json, JsonWriter};

    fn small_spec() -> SweepSpec {
        SweepSpec {
            apps: vec![AppKind::Cg, AppKind::Ep],
            class: Class::S,
            machines: vec![opteron_2x2()],
            policies: vec![PagePolicy::Small4K, PagePolicy::Large2M],
            threads: vec![1, 4],
            opts: RunOpts::default(),
            backend: BackendKind::CycleExact,
        }
    }

    #[test]
    fn len_counts_the_grid() {
        let s = small_spec();
        assert_eq!(s.len(), 2 * 2 * 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn oversized_thread_counts_are_skipped() {
        let mut s = small_spec();
        s.threads = vec![1, 8]; // Opteron has 4 contexts
        assert_eq!(s.len(), 2 * 2);
        let r = s.run();
        assert_eq!(r.records().len(), 4);
        assert!(r
            .get(AppKind::Cg, "Opteron", PagePolicy::Small4K, 8)
            .is_none());
    }

    #[test]
    fn sweep_queries_work() {
        let r = small_spec().run();
        assert_eq!(r.records().len(), 8);
        let imp = r.improvement(AppKind::Cg, "Opteron", 4).unwrap();
        assert!(imp > -5.0 && imp < 60.0);
        let red = r.miss_reduction(AppKind::Cg, "Opteron", 4).unwrap();
        assert!(red > 1.0, "CG reduction {red}");
        let sp = r
            .speedup(AppKind::Cg, "Opteron", PagePolicy::Small4K, 4)
            .unwrap();
        assert!(sp > 2.0, "speedup {sp}");
        assert!(r.improvement(AppKind::Mg, "Opteron", 4).is_none());
    }

    #[test]
    fn progress_callback_fires_per_run() {
        let mut calls = 0;
        small_spec().run_with_progress(|_, total| {
            calls += 1;
            assert_eq!(total, 8);
        });
        assert_eq!(calls, 8);
    }

    #[test]
    fn parallel_sweep_is_deterministic() {
        // Each grid cell is an independent simulation, so the records must
        // be *byte-identical* (RunRecord's PartialEq compares f64 fields
        // exactly) in grid order for any worker count — including counts
        // far above the host's parallelism.
        let spec = small_spec();
        let serial = spec.run_parallel(1);
        let parallel = spec.run_parallel(8);
        assert_eq!(serial.records().len(), 8);
        assert_eq!(serial.records(), parallel.records());
    }

    #[test]
    fn analytic_sweep_is_deterministic_and_ordered() {
        let spec = small_spec().with_backend(BackendKind::Analytic);
        let serial = spec.run_parallel(1);
        let parallel = spec.run_parallel(8);
        assert_eq!(serial.records(), parallel.records());
        assert!(serial.records().iter().all(|r| r.backend == "analytic"));
        // The paper's effect survives the model at sweep level too.
        let red = serial.miss_reduction(AppKind::Cg, "Opteron", 4).unwrap();
        assert!(red > 1.0, "CG analytic reduction {red}");
    }

    #[test]
    fn figure4_spec_shape() {
        let s = SweepSpec::figure4(Class::S);
        // 5 apps x 2 policies x (3 opteron + 4 xeon thread counts).
        assert_eq!(s.len(), 5 * 2 * 7);
    }

    fn keyed_test_grid(variant: &str) -> KeyedGrid<'static, RunRecord> {
        const THREADS: [usize; 2] = [1, 2];
        let m = opteron_2x2();
        let keys: Vec<StoreKey> = THREADS
            .iter()
            .map(|&t| {
                StoreKey::new(
                    &m,
                    AppKind::Ep,
                    Class::S,
                    PagePolicy::Small4K,
                    t,
                    RunOpts::default(),
                    BackendKind::CycleExact,
                )
                .with_variant(variant)
            })
            .collect();
        KeyedGrid::new(keys, |i, _k| {
            run_backend(
                BackendKind::CycleExact,
                AppKind::Ep,
                Class::S,
                opteron_2x2(),
                PagePolicy::Small4K,
                THREADS[i],
                RunOpts::default(),
            )
        })
    }

    #[test]
    fn keyed_grid_incremental_shard_merge_round_trip() {
        let dir = std::env::temp_dir().join(format!("lpomp-keyed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::store::RunStore::open(&dir).unwrap();
        let grid = keyed_test_grid("keyed-test");
        let cold = grid.run_all(2);
        let (inc, hits, misses) = grid.run_incremental(&store, 2, None).unwrap();
        assert_eq!((hits, misses), (0, 2), "cold store misses everything");
        assert_eq!(inc, cold);
        let (warm, hits2, misses2) = grid.run_incremental(&store, 2, None).unwrap();
        assert_eq!((hits2, misses2), (2, 0), "second pass is all hits");
        assert_eq!(warm, cold, "replayed cells are byte-identical");
        // Shard + merge over the same store.
        assert!(
            grid.merge_shards(&store, 2).is_err(),
            "merge refuses before shards ran"
        );
        for index in 0..2 {
            grid.run_shard(Shard { index, count: 2 }, &store, 1, None)
                .unwrap();
        }
        let merged = grid.merge_shards(&store, 2).unwrap();
        assert_eq!(merged, cold);
        // A different variant shares the store without colliding.
        let other = keyed_test_grid("keyed-test-2");
        let (_, h, m) = other.run_incremental(&store, 2, None).unwrap();
        assert_eq!((h, m), (0, 2), "variant keys never alias");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keyed_grid_supports_custom_cells() {
        #[derive(Debug, PartialEq)]
        struct Row {
            x: u64,
            y: f64,
        }
        impl GridCell for Row {
            fn write_json(&self, w: &mut JsonWriter) {
                w.key("x").uint(self.x);
                w.key("y").num(self.y);
            }
            fn from_store_json(j: &Json, _key: &StoreKey) -> Result<Self, String> {
                Ok(Row {
                    x: j.uint("x")?,
                    y: j.num("y")?,
                })
            }
        }
        let dir = std::env::temp_dir().join(format!("lpomp-keyed-cell-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = crate::store::RunStore::open(&dir).unwrap();
        let m = opteron_2x2();
        let keys: Vec<StoreKey> = (0..3)
            .map(|i| {
                StoreKey::new(
                    &m,
                    AppKind::Ep,
                    Class::S,
                    PagePolicy::Small4K,
                    1,
                    RunOpts::default(),
                    BackendKind::CycleExact,
                )
                .with_variant(&format!("row={i}"))
            })
            .collect();
        let grid = KeyedGrid::new(keys, |i, _k| Row {
            x: i as u64,
            y: 0.1 + i as f64 / 3.0,
        });
        let cold = grid.run_all(1);
        let (_, h0, m0) = grid.run_incremental(&store, 1, None).unwrap();
        assert_eq!((h0, m0), (0, 3));
        let (warm, h1, m1) = grid.run_incremental(&store, 1, None).unwrap();
        assert_eq!((h1, m1), (3, 0));
        // f64 fields survive the round trip bit-exactly.
        assert_eq!(warm, cold);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
