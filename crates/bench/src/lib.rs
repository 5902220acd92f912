//! # `lpomp-bench` — experiment regeneration harness
//!
//! One binary per table/figure of the paper:
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table 1 — TLB sizes and coverage |
//! | `table2` | Table 2 — application memory footprints |
//! | `fig3`   | Fig. 3 — aggregate ITLB miss rates |
//! | `fig4`   | Fig. 4 — scalability, 4 KB vs 2 MB, both platforms |
//! | `fig5`   | Fig. 5 — normalized DTLB misses at 4 threads |
//! | `ablation_prealloc` | A1 — preallocation vs demand faulting |
//! | `ext_mixed` | E1 — the §6 mixed page policy |
//!
//! Wall-clock benches (`cargo bench -p lpomp-bench --features bench`)
//! cover the runtime primitives: barriers, the mailbox, loop schedules,
//! and shared-array access. They use the in-tree `harness` module, so
//! the default build carries no benchmarking dependency.
//!
//! The library half holds the sweep helpers the binaries share. Binaries
//! accept an optional class argument (`S`, `W`, `A`) — default `W`, the
//! simulated-evaluation class.

use lpomp_core::{
    default_workers, run_sim, BackendKind, GridCell, JsonlSink, KeyedGrid, PagePolicy, RunOpts,
    RunRecord, RunStore, Shard,
};
use lpomp_machine::MachineConfig;
use lpomp_npb::{AppKind, Class};
use std::path::PathBuf;

#[cfg(feature = "bench")]
pub mod harness;

/// Flags that consume the following argument when not written `--flag=value`.
const VALUE_FLAGS: [&str; 4] = ["--store", "--shard", "--merge", "--jsonl"];

/// The positional (non-flag) CLI arguments, with value-taking flags'
/// space-form values excluded (so `--shard 1/4` does not leave `1/4`
/// looking like a class argument).
fn positional_args() -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if VALUE_FLAGS.contains(&a.as_str()) {
            i += 2;
            continue;
        }
        if !a.starts_with("--") {
            out.push(a.clone());
        }
        i += 1;
    }
    out
}

/// Parse the class argument (first non-flag CLI arg), defaulting to `W`.
/// An unknown class is a usage error (exit status 2).
pub fn class_from_args() -> Class {
    let positional = positional_args().into_iter().next();
    match positional.as_deref() {
        Some("S") | Some("s") => Class::S,
        Some("A") | Some("a") => Class::A,
        Some("B") | Some("b") => Class::B,
        Some("W") | Some("w") | None => Class::W,
        Some(other) => usage_error(&format!("unknown class {other:?}: expected S, W, A or B")),
    }
}

/// Parse the `--backend=cycle|analytic` flag, defaulting to cycle-exact
/// (the golden outputs are cycle-exact; the flag is the fast path). An
/// unknown backend is a usage error (exit status 2).
pub fn backend_from_args() -> BackendKind {
    for arg in std::env::args().skip(1) {
        if let Some(name) = arg.strip_prefix("--backend=") {
            return BackendKind::parse(name).unwrap_or_else(|| {
                usage_error(&format!(
                    "unknown backend {name:?}: expected cycle or analytic"
                ))
            });
        }
    }
    BackendKind::CycleExact
}

/// The sweep-store flags shared by every grid binary (`fig3`, `fig4`,
/// `fig5`, `xval`, `ext_arch`, `ext_frag`, `ext_numa`, `ext_sched`):
///
/// * `--store DIR` — run incrementally against the content-addressed
///   [`RunStore`] at `DIR`: cached cells replay from disk, misses run
///   and are persisted (stderr reports `N hits, M misses / K cells`);
/// * `--shard i/n` — run only this process's slice of the grid into the
///   shared store and write a coverage manifest (requires `--store`);
/// * `--merge n` — assemble a previously sharded sweep from the store,
///   validating coverage and key collisions (requires `--store`);
/// * `--jsonl FILE` — stream one JSON line per cell as it completes.
///
/// Both `--flag value` and `--flag=value` spellings are accepted.
#[derive(Clone, Debug, Default)]
pub struct SweepCli {
    /// Store directory (`--store`).
    pub store: Option<PathBuf>,
    /// This process's shard (`--shard i/n`).
    pub shard: Option<Shard>,
    /// Merge a sweep previously run as this many shards (`--merge n`).
    pub merge: Option<usize>,
    /// JSON-lines output path (`--jsonl`).
    pub jsonl: Option<PathBuf>,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: [S|W|A|B] [--backend=cycle|analytic] [--store DIR] [--shard i/n | --merge n] [--jsonl FILE]");
    std::process::exit(2)
}

/// Parse (and cross-validate) the sweep-store flags. Usage errors print
/// a message plus the flag summary and exit with status 2.
pub fn sweep_cli_from_args() -> SweepCli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = SweepCli::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].clone();
        let mut value = |name: &str| -> Option<String> {
            let rest = arg.strip_prefix(name)?;
            if let Some(v) = rest.strip_prefix('=') {
                return Some(v.to_owned());
            }
            if rest.is_empty() {
                i += 1;
                return Some(
                    args.get(i)
                        .unwrap_or_else(|| usage_error(&format!("{name} needs a value")))
                        .clone(),
                );
            }
            None
        };
        if let Some(dir) = value("--store") {
            cli.store = Some(PathBuf::from(dir));
        } else if let Some(s) = value("--shard") {
            cli.shard = Some(Shard::parse(&s).unwrap_or_else(|| {
                usage_error(&format!("--shard {s:?}: expected i/n with 1 <= i <= n"))
            }));
        } else if let Some(n) = value("--merge") {
            match n.parse::<usize>() {
                Ok(n) if n >= 1 => cli.merge = Some(n),
                _ => usage_error(&format!("--merge {n:?}: expected a shard count >= 1")),
            }
        } else if let Some(path) = value("--jsonl") {
            cli.jsonl = Some(PathBuf::from(path));
        }
        i += 1;
    }
    if cli.shard.is_some() && cli.merge.is_some() {
        usage_error("--shard and --merge are mutually exclusive");
    }
    if (cli.shard.is_some() || cli.merge.is_some()) && cli.store.is_none() {
        usage_error("--shard/--merge need --store DIR (the shards share it)");
    }
    cli
}

impl SweepCli {
    /// Open the `--jsonl` sink, if requested. Call once per process (a
    /// second open would truncate the file) and pass the sink to every
    /// [`execute`](SweepCli::execute).
    pub fn sink(&self) -> Option<JsonlSink> {
        let path = self.jsonl.as_ref()?;
        match JsonlSink::create(path) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("error: could not create {}: {e}", path.display());
                std::process::exit(1)
            }
        }
    }

    /// Run `grid` the way the flags ask: merge, shard, incremental, or a
    /// plain in-memory run. A [`SweepSpec`](lpomp_core::SweepSpec) passes
    /// its [`grid`](lpomp_core::SweepSpec::grid); the extension binaries
    /// pass their own.
    /// Returns `None` in shard mode — the grid slice and its manifest are
    /// on disk, and the caller has no full results to render — and the
    /// cells in key order otherwise. Failures print an error and exit
    /// nonzero (2 for usage, 1 for store/merge errors).
    pub fn execute<T: GridCell>(
        &self,
        grid: &KeyedGrid<'_, T>,
        sink: Option<&JsonlSink>,
    ) -> Option<Vec<T>> {
        let store = self.store.as_ref().map(|dir| {
            RunStore::open(dir).unwrap_or_else(|e| {
                eprintln!("error: could not open store {}: {e}", dir.display());
                std::process::exit(1)
            })
        });
        if let Some(count) = self.merge {
            let cells = grid
                .merge_shards(store.as_ref().expect("validated at parse"), count)
                .unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1)
                });
            if let Some(sink) = sink {
                for cell in &cells {
                    sink.emit(cell, true);
                }
            }
            eprintln!(
                "merged {} cells from {count} shards of grid {}",
                cells.len(),
                grid.sweep_id()
            );
            return Some(cells);
        }
        if let Some(shard) = self.shard {
            let store = store.as_ref().expect("validated at parse");
            let manifest = grid
                .run_shard(shard, store, default_workers(), sink)
                .unwrap_or_else(|e| {
                    eprintln!("error: shard {shard} failed: {e}");
                    std::process::exit(1)
                });
            eprintln!(
                "shard {shard} of grid {} complete ({} cells); after all {} shards, \
                 rerun with `--store {} --merge {}`",
                manifest.sweep,
                manifest.entries.len(),
                shard.count,
                store.dir().display(),
                shard.count
            );
            return None;
        }
        if let Some(store) = store {
            let (cells, _, _) = grid
                .run_incremental(&store, default_workers(), sink)
                .unwrap_or_else(|e| {
                    eprintln!("error: incremental grid failed: {e}");
                    std::process::exit(1)
                });
            return Some(cells);
        }
        let cells = grid.run_all(default_workers());
        if let Some(sink) = sink {
            for cell in &cells {
                sink.emit(cell, false);
            }
        }
        Some(cells)
    }
}

/// Run one app under both page policies at a thread count.
pub fn run_pair(
    app: AppKind,
    class: Class,
    machine: MachineConfig,
    threads: usize,
) -> (RunRecord, RunRecord) {
    let small = run_sim(
        app,
        class,
        machine.clone(),
        PagePolicy::Small4K,
        threads,
        RunOpts::default(),
    );
    let large = run_sim(
        app,
        class,
        machine,
        PagePolicy::Large2M,
        threads,
        RunOpts::default(),
    );
    (small, large)
}

/// Percentage improvement of `large` over `small` run time.
pub fn improvement_pct(small: &RunRecord, large: &RunRecord) -> f64 {
    lpomp_prof::report::percent_improvement(small.seconds, large.seconds)
}

/// If `LPOMP_CSV=<dir>` is set, write the table as `<dir>/<name>.csv`
/// (for plotting); errors are reported but never fatal.
pub fn maybe_write_csv(name: &str, table: &lpomp_prof::TextTable) {
    if let Ok(dir) = std::env::var("LPOMP_CSV") {
        let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            eprintln!("could not write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpomp_machine::opteron_2x2;

    #[test]
    fn run_pair_is_consistent() {
        let (s, l) = run_pair(AppKind::Ep, Class::S, opteron_2x2(), 2);
        assert_eq!(s.policy, PagePolicy::Small4K);
        assert_eq!(l.policy, PagePolicy::Large2M);
        assert_eq!(s.checksum, l.checksum);
    }
}
