//! Content-addressed, on-disk store of grid cells — the result cache
//! behind [`KeyedGrid`]'s incremental, sharded and merged runs.
//!
//! Every cell of a sweep is a pure function of its configuration: the
//! app, class, whole [`SystemConfig`], run options, backend and engine
//! version fully determine the [`RunRecord`] the engine produces. The
//! [`RunStore`] exploits that by addressing cells with a [`StoreKey`] —
//! a stable 128-bit hash of a canonical *fingerprint* string spelling
//! out every one of those inputs ([`StoreKey::for_config`]) — so an
//! unchanged configuration is a file read instead of a simulation, and
//! *any* change (a builder knob, a TLB geometry, a cost-model constant
//! behind [`lpomp_prof::ENGINE_VERSION`], the backend, the verify flag)
//! changes the key and forces a re-run. Loads re-validate the stored
//! fingerprint against the requested one, so even a full 128-bit hash
//! collision (or a renamed file) degrades to a cache miss, never a
//! wrong record.
//!
//! Three layers of [`KeyedGrid`] build on the store:
//!
//! * **incremental runs** — [`KeyedGrid::run_incremental`] consults the
//!   store per key, re-runs only the misses, and merges cached and fresh
//!   cells into a result byte-identical to a cold run;
//! * **sharded execution** — [`KeyedGrid::run_shard`] runs the
//!   `index`-th of [`Shard::count`] interleaved slices of the grid into
//!   a shared store and writes a per-shard [manifest](ShardManifest);
//!   [`KeyedGrid::merge_shards`] validates that the manifests cover the
//!   whole grid exactly once (and that no key collided) before
//!   assembling the merged cells;
//! * **JSON-lines streaming** — a [`JsonlSink`] receives one
//!   self-describing line per cell *as it completes*, so long sweeps are
//!   observable before they finish.
//!
//! One rule holds on every write path: a cell that would not replay
//! whole ([`GridCell::storable`] is false — a [`RunRecord`] carrying
//! profiler attachments) is never written.
//!
//! [`KeyedGrid`]: crate::KeyedGrid
//! [`KeyedGrid::run_incremental`]: crate::KeyedGrid::run_incremental
//! [`KeyedGrid::run_shard`]: crate::KeyedGrid::run_shard
//! [`KeyedGrid::merge_shards`]: crate::KeyedGrid::merge_shards

use crate::backend::BackendKind;
use crate::experiment::{RunOpts, RunRecord};
use crate::policy::PagePolicy;
use crate::system::{SystemBuilder, SystemConfig};
use lpomp_machine::MachineConfig;
use lpomp_npb::{AppKind, Class};
use lpomp_prof::{parse_json, Counters, Event, Json, JsonWriter, ENGINE_VERSION};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Schema version of the store's own file layout (bumped independently
/// of [`ENGINE_VERSION`], which tracks engine *semantics*).
const STORE_FORMAT: u64 = 2;

// ---------------------------------------------------------------------
// Keys.

/// The content address of one sweep configuration: a 128-bit FNV-1a
/// hash over the canonical fingerprint, plus the typed fields needed to
/// rebuild a [`RunRecord`] without parsing free-form enums back out of
/// JSON. Two keys are interchangeable iff their fingerprints are equal.
#[derive(Clone, Debug, PartialEq)]
pub struct StoreKey {
    hash: [u64; 2],
    fingerprint: String,
    app: AppKind,
    class: Class,
    machine: &'static str,
    policy: PagePolicy,
    threads: usize,
    backend: BackendKind,
}

/// 64-bit FNV-1a over `bytes`, from an arbitrary offset basis
/// ([`FNV_OFFSET`] for the standard hash).
pub fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The standard FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Second lane's offset basis (golden-ratio perturbation) so the two
/// 64-bit lanes are independent and the combined address is 128-bit.
const FNV_OFFSET_2: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

impl StoreKey {
    /// Key for one run of `app` at `class` on the system `cfg`
    /// describes — the one key derivation every grid uses.
    ///
    /// The fingerprint embeds the config's full `Debug` rendering: every
    /// field of [`SystemConfig`] (the machine's TLB and cache geometries,
    /// cost model and NUMA layout, then policy, populate, threads,
    /// quantum, daemons, profiling, tenancy, schedule and stealing)
    /// participates, and a *new* field invalidates old keys
    /// automatically — deliberately conservative, because a silent stale
    /// hit is the failure mode this store exists to eliminate. No config
    /// type holds a hash map, so the rendering is deterministic.
    pub fn for_config(
        app: AppKind,
        class: Class,
        cfg: &SystemConfig,
        opts: RunOpts,
        backend: BackendKind,
    ) -> StoreKey {
        let mut key = StoreKey {
            hash: [0; 2],
            fingerprint: format!(
                "engine={ENGINE_VERSION};backend={};arch={};app={app};class={class};\
                 verify={};config={cfg:?}",
                backend.label(),
                cfg.machine.arch().descriptor(),
                opts.verify,
            ),
            app,
            class,
            machine: cfg.machine.name,
            policy: cfg.policy,
            threads: cfg.threads,
            backend,
        };
        key.rehash();
        key
    }

    /// Key for the paper's grid point: the default [`SystemBuilder`] on
    /// `machine` with `policy` and `threads` set, through
    /// [`Self::for_config`].
    pub fn new(
        machine: &MachineConfig,
        app: AppKind,
        class: Class,
        policy: PagePolicy,
        threads: usize,
        opts: RunOpts,
        backend: BackendKind,
    ) -> StoreKey {
        let builder = SystemBuilder::new(machine.clone())
            .policy(policy)
            .threads(threads);
        Self::for_config(app, class, builder.config(), opts, backend)
    }

    /// Key for a *variant* of this configuration whose difference lives
    /// outside the [`SystemConfig`] — a heap aged before the run, a
    /// workload without an [`AppKind`] slot. Appends `;variant={desc}`
    /// to the fingerprint and re-addresses the key. Composable: distinct
    /// descriptors give distinct addresses.
    pub fn with_variant(mut self, desc: &str) -> StoreKey {
        let _ = write!(self.fingerprint, ";variant={desc}");
        self.rehash();
        self
    }

    fn rehash(&mut self) {
        self.hash = [
            fnv1a64(FNV_OFFSET, self.fingerprint.as_bytes()),
            fnv1a64(FNV_OFFSET_2, self.fingerprint.as_bytes()),
        ];
    }

    /// The canonical fingerprint the hash addresses.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The 32-hex-digit content address (also the file stem).
    pub fn address(&self) -> String {
        format!("{:016x}{:016x}", self.hash[0], self.hash[1])
    }

    /// File name of this key's record inside a store directory.
    pub fn file_name(&self) -> String {
        format!("{}.json", self.address())
    }
}

// ---------------------------------------------------------------------
// Cells.

/// A grid-cell payload the [`RunStore`] can persist and replay.
/// [`RunRecord`] implements it with the store's native record encoding;
/// experiment binaries whose cells are *not* run records (the
/// fragmentation and scheduler tables) implement it over their own row
/// structs.
pub trait GridCell: Sized + Send {
    /// Write the cell's members into the JSON object the caller opened
    /// (the store envelope's `record`, or a JSON line).
    fn write_json(&self, w: &mut JsonWriter);

    /// Rebuild a cell from the object [`Self::write_json`] filled. Any
    /// mismatch is an error, which the grid treats as a cache miss and
    /// re-runs.
    fn from_store_json(j: &Json, key: &StoreKey) -> Result<Self, String>;

    /// Whether [`Self::write_json`] captures the whole cell. A cell that
    /// would replay with data missing returns `false`, and the store
    /// never writes it.
    fn storable(&self) -> bool {
        true
    }
}

/// The cacheable payload of a record is everything but the profiler
/// attachments, so a record carrying `regions` or `trace` is not
/// [storable](GridCell::storable). `f64` fields use Rust's
/// shortest-round-trip formatting, so parsing them back is bit-exact —
/// the property the byte-identical merge guarantee rests on.
impl GridCell for RunRecord {
    fn write_json(&self, w: &mut JsonWriter) {
        w.key("app").str(self.app.name());
        w.key("class").str(&self.class.to_string());
        w.key("machine").str(self.machine);
        w.key("policy").str(self.policy.label());
        if let PagePolicy::Mixed { threshold_bytes } = self.policy {
            w.key("mixed_threshold").uint(threshold_bytes);
        }
        w.key("threads").uint(self.threads as u64);
        w.key("backend").str(self.backend);
        w.key("seconds").num(self.seconds);
        w.key("cycles").uint(self.cycles);
        w.key("checksum").num(self.checksum);
        match self.verified {
            None => w.key("verified").null(),
            Some(b) => w.key("verified").bool(b),
        }
        w.key("counters").obj(|w| {
            for e in Event::ALL {
                w.key(e.mnemonic()).uint(self.counters.get(e));
            }
        });
    }

    /// Rebuild a record, cross-checking every identity field against
    /// the key it was loaded under. The typed fields come from the *key*
    /// (so e.g. `machine` stays the preset's `'static` string), the
    /// measured fields from the JSON.
    fn from_store_json(j: &Json, key: &StoreKey) -> Result<Self, String> {
        let check = |field: &str, want: &str| -> Result<(), String> {
            let got = j.string(field)?;
            if got != want {
                return Err(format!("{field}: stored {got:?} != requested {want:?}"));
            }
            Ok(())
        };
        check("app", key.app.name())?;
        check("class", &key.class.to_string())?;
        check("machine", key.machine)?;
        check("policy", key.policy.label())?;
        check("backend", key.backend.label())?;
        if j.uint("threads")? != key.threads as u64 {
            return Err("threads mismatch".into());
        }
        if let PagePolicy::Mixed { threshold_bytes } = key.policy {
            if j.uint("mixed_threshold")? != threshold_bytes {
                return Err("mixed_threshold mismatch".into());
            }
        }
        let verified = match j.member("verified")? {
            Json::Null => None,
            Json::Bool(b) => Some(*b),
            _ => return Err("verified is not a bool or null".into()),
        };
        let cj = j.member("counters")?;
        let mut counters = Counters::new();
        for e in Event::ALL {
            // Strict: a counter the current engine knows but the file lacks
            // means the file predates the event — reject, never default to 0.
            counters.set(e, cj.uint(e.mnemonic())?);
        }
        Ok(RunRecord {
            app: key.app,
            class: key.class,
            machine: key.machine,
            policy: key.policy,
            threads: key.threads,
            seconds: j.num("seconds")?,
            cycles: j.uint("cycles")?,
            counters,
            checksum: j.num("checksum")?,
            verified,
            regions: None,
            trace: None,
            backend: key.backend.label(),
        })
    }

    fn storable(&self) -> bool {
        self.regions.is_none() && self.trace.is_none()
    }
}

// ---------------------------------------------------------------------
// The store.

/// See the [module docs](self).
#[derive(Debug)]
pub struct RunStore {
    dir: PathBuf,
}

impl RunStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<RunStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(RunStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Load the record addressed by `key`: [`Self::load_cell`] for a
    /// [`RunRecord`].
    pub fn load(&self, key: &StoreKey) -> Option<RunRecord> {
        self.load_cell(key)
    }

    /// Persist `rec` under `key`: [`Self::save_cell`] for a
    /// [`RunRecord`], so a record carrying profiler attachments returns
    /// `Ok(false)` without writing.
    pub fn save(&self, key: &StoreKey, rec: &RunRecord) -> std::io::Result<bool> {
        self.save_cell(key, rec)
    }

    /// Load the cell addressed by `key`, or `None` on any of: absent
    /// file, unparsable or truncated JSON, store-format or engine-version
    /// mismatch, fingerprint mismatch (hash collision or renamed file),
    /// or a payload `T` rejects (identity-field drift, another cell
    /// type). A miss is always safe — the caller re-runs — so every
    /// failure maps to a miss, never a panic.
    pub fn load_cell<T: GridCell>(&self, key: &StoreKey) -> Option<T> {
        let src = std::fs::read_to_string(self.dir.join(key.file_name())).ok()?;
        let j = parse_json(&src).ok()?;
        (j.uint("v").ok()? == STORE_FORMAT).then_some(())?;
        (j.uint("engine").ok()? == u64::from(ENGINE_VERSION)).then_some(())?;
        (j.string("fp").ok()? == key.fingerprint()).then_some(())?;
        T::from_store_json(j.member("record").ok()?, key).ok()
    }

    /// Persist `cell` under `key`, inside an envelope stamped with the
    /// store format, the engine version and the key's fingerprint.
    /// Returns `Ok(false)` — without writing — when the cell is not
    /// [storable](GridCell::storable). The write goes through a temp
    /// file and a rename, so concurrent shard writers racing on one key
    /// land a complete file (both would write identical bytes).
    pub fn save_cell<T: GridCell>(&self, key: &StoreKey, cell: &T) -> std::io::Result<bool> {
        if !cell.storable() {
            return Ok(false);
        }
        let mut w = JsonWriter::with_capacity(4096);
        w.obj(|w| {
            w.key("v").uint(STORE_FORMAT);
            w.key("engine").uint(ENGINE_VERSION.into());
            w.key("fp").str(key.fingerprint());
            w.key("record").obj(|w| cell.write_json(w));
        });
        let out = w.finish() + "\n";
        self.write_atomic(&key.file_name(), out.as_bytes())?;
        Ok(true)
    }

    /// Number of record files resident in the store (manifests excluded).
    pub fn len(&self) -> usize {
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        rd.flatten()
            .filter(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.ends_with(".json") && !name.starts_with("manifest_")
            })
            .count()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        let tmp = self
            .dir
            .join(format!(".{}.tmp{}", name, std::process::id()));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, self.dir.join(name))
    }
}

// ---------------------------------------------------------------------
// Sharding.

/// One interleaved slice of a sweep grid: configuration `i` belongs to
/// shard `i % count`. Interleaving (rather than contiguous ranges)
/// balances the order-of-magnitude spread in per-config run time across
/// shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Zero-based shard index, `< count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// Parse the CLI spelling `i/n` with 1-based `i` (so `--shard 1/4 …
    /// 4/4` covers a grid). Returns `None` unless `1 <= i <= n`.
    pub fn parse(s: &str) -> Option<Shard> {
        let (i, n) = s.split_once('/')?;
        let i: usize = i.trim().parse().ok()?;
        let n: usize = n.trim().parse().ok()?;
        (i >= 1 && i <= n).then(|| Shard {
            index: i - 1,
            count: n,
        })
    }

    /// Whether this shard owns grid index `i`.
    pub fn covers(&self, i: usize) -> bool {
        i % self.count == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index + 1, self.count)
    }
}

/// The coverage proof one [`KeyedGrid::run_shard`] invocation leaves in
/// the store: which grid indices the shard ran (or found cached) and
/// the addresses of their records. [`KeyedGrid::merge_shards`] refuses
/// to assemble results until every shard's manifest is present and
/// their union covers the grid exactly once.
///
/// [`KeyedGrid::run_shard`]: crate::KeyedGrid::run_shard
/// [`KeyedGrid::merge_shards`]: crate::KeyedGrid::merge_shards
#[derive(Clone, Debug, PartialEq)]
pub struct ShardManifest {
    /// The sweep this shard belongs to ([`sweep_id`] of the grid).
    pub sweep: String,
    /// The shard.
    pub shard: Shard,
    /// `(grid index, record address)` pairs, in grid order.
    pub entries: Vec<(usize, String)>,
}

/// Identity of a whole sweep grid: a hash over every key's fingerprint
/// in canonical grid order (so it covers the engine version, backend,
/// opts, and each machine's full configuration).
pub fn sweep_id(keys: &[StoreKey]) -> String {
    let mut a = FNV_OFFSET;
    let mut b = FNV_OFFSET_2;
    for k in keys {
        a = fnv1a64(a, k.fingerprint().as_bytes());
        b = fnv1a64(b, k.fingerprint().as_bytes());
    }
    format!("{a:016x}{b:016x}")
}

impl ShardManifest {
    /// Manifest file name for a (sweep, shard) pair.
    pub fn file_name(sweep: &str, shard: Shard) -> String {
        format!("manifest_{sweep}_{}of{}.json", shard.index + 1, shard.count)
    }

    /// Write the manifest into the store (atomically, like records).
    pub fn write(&self, store: &RunStore) -> std::io::Result<PathBuf> {
        let mut w = JsonWriter::with_capacity(256 + self.entries.len() * 48);
        w.obj(|w| {
            w.key("v").uint(STORE_FORMAT);
            w.key("engine").uint(ENGINE_VERSION.into());
            w.key("sweep").str(&self.sweep);
            w.key("shard").uint(self.shard.index as u64 + 1);
            w.key("of").uint(self.shard.count as u64);
            w.key("entries").arr(|w| {
                for (idx, addr) in &self.entries {
                    w.arr(|w| {
                        w.uint(*idx as u64);
                        w.str(addr);
                    });
                }
            });
        });
        let out = w.finish() + "\n";
        let name = Self::file_name(&self.sweep, self.shard);
        store.write_atomic(&name, out.as_bytes())?;
        Ok(store.dir().join(name))
    }

    /// Read a manifest file; errors describe what failed for merge
    /// diagnostics.
    pub fn read(path: &Path) -> Result<ShardManifest, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let j = parse_json(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        if j.uint("v")? != STORE_FORMAT {
            return Err(format!("{}: unknown store format", path.display()));
        }
        let engine = j.uint("engine")?;
        if engine != u64::from(ENGINE_VERSION) {
            return Err(format!(
                "{}: engine version {engine} != current {ENGINE_VERSION}",
                path.display(),
            ));
        }
        let sweep = j.string("sweep")?.to_owned();
        let shard_1 = j.uint("shard")? as usize;
        let count = j.uint("of")? as usize;
        if shard_1 < 1 || shard_1 > count {
            return Err(format!(
                "{}: shard {shard_1}/{count} invalid",
                path.display()
            ));
        }
        let mut entries = Vec::new();
        for pair in j.array("entries")? {
            let Some([idx, addr]) = pair.as_arr() else {
                return Err("manifest entry is not a pair".into());
            };
            let idx = idx.as_uint().ok_or("manifest entry index")? as usize;
            let addr = addr.as_str().ok_or("manifest entry address")?.to_owned();
            entries.push((idx, addr));
        }
        Ok(ShardManifest {
            sweep,
            shard: Shard {
                index: shard_1 - 1,
                count,
            },
            entries,
        })
    }
}

// ---------------------------------------------------------------------
// JSON-lines streaming.

/// A line-buffered JSON-lines sink: one object per completed cell, in
/// *completion* order (workers race, so lines are not grid-ordered —
/// each line carries its full identity). Lines add
/// `"cached":true|false` to the cell's store payload so consumers can
/// separate replayed results from fresh engine runs.
pub struct JsonlSink {
    out: Mutex<Box<dyn std::io::Write + Send>>,
}

impl JsonlSink {
    /// Stream to (truncating) a file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        Ok(Self::from_writer(Box::new(std::fs::File::create(path)?)))
    }

    /// Stream to an arbitrary writer.
    pub fn from_writer(w: Box<dyn std::io::Write + Send>) -> JsonlSink {
        JsonlSink { out: Mutex::new(w) }
    }

    /// Emit one cell's line; flushes so tail-readers see it immediately.
    /// Write errors are reported to stderr, not fatal — streaming is
    /// observability, the sweep's results do not depend on it.
    pub fn emit<T: GridCell>(&self, cell: &T, cached: bool) {
        let mut w = JsonWriter::with_capacity(1024);
        w.obj(|w| {
            cell.write_json(w);
            w.key("cached").bool(cached);
        });
        let line = w.finish() + "\n";
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(e) = out.write_all(line.as_bytes()).and_then(|()| out.flush()) {
            eprintln!("jsonl sink: dropped a record line: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpomp_machine::{opteron_2x2, xeon_2x2_ht};

    fn dummy_record(key: &StoreKey) -> RunRecord {
        let mut counters = Counters::new();
        counters.add(Event::Cycles, 123_456_789);
        counters.add(Event::DtlbMisses, 42);
        RunRecord {
            app: key.app,
            class: key.class,
            machine: key.machine,
            policy: key.policy,
            threads: key.threads,
            seconds: 0.1 + 1.0 / 3.0,
            cycles: 123_456_789,
            counters,
            checksum: -2.444_260_326_430_914_5e1,
            verified: None,
            regions: None,
            trace: None,
            backend: key.backend.label(),
        }
    }

    fn key(policy: PagePolicy, threads: usize) -> StoreKey {
        StoreKey::new(
            &opteron_2x2(),
            AppKind::Cg,
            Class::S,
            policy,
            threads,
            RunOpts::default(),
            BackendKind::CycleExact,
        )
    }

    fn temp_store(tag: &str) -> RunStore {
        let dir = std::env::temp_dir().join(format!("lpomp-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        RunStore::open(dir).unwrap()
    }

    /// Length and FNV-1a 64 of a written file, to pin its bytes.
    fn pin(text: &str) -> (usize, u64) {
        (text.len(), fnv1a64(FNV_OFFSET, text.as_bytes()))
    }

    /// A machine whose name needs escaping in every JSON string.
    fn quoted_machine() -> MachineConfig {
        MachineConfig {
            name: "lab \"box\" \\ 2",
            ..opteron_2x2()
        }
    }

    #[test]
    fn key_is_stable_and_sensitive_to_every_axis() {
        let base = key(PagePolicy::Small4K, 4);
        assert_eq!(base, key(PagePolicy::Small4K, 4), "same inputs, same key");
        assert_eq!(base.address().len(), 32);
        // Each configuration axis moves the address.
        let variants = [
            key(PagePolicy::Large2M, 4),
            key(PagePolicy::Small4K, 2),
            StoreKey::new(
                &xeon_2x2_ht(),
                AppKind::Cg,
                Class::S,
                PagePolicy::Small4K,
                4,
                RunOpts::default(),
                BackendKind::CycleExact,
            ),
            StoreKey::new(
                &opteron_2x2(),
                AppKind::Mg,
                Class::S,
                PagePolicy::Small4K,
                4,
                RunOpts::default(),
                BackendKind::CycleExact,
            ),
            StoreKey::new(
                &opteron_2x2(),
                AppKind::Cg,
                Class::W,
                PagePolicy::Small4K,
                4,
                RunOpts::default(),
                BackendKind::CycleExact,
            ),
            StoreKey::new(
                &opteron_2x2(),
                AppKind::Cg,
                Class::S,
                PagePolicy::Small4K,
                4,
                RunOpts { verify: true },
                BackendKind::CycleExact,
            ),
            StoreKey::new(
                &opteron_2x2(),
                AppKind::Cg,
                Class::S,
                PagePolicy::Small4K,
                4,
                RunOpts::default(),
                BackendKind::Analytic,
            ),
        ];
        for v in &variants {
            assert_ne!(base.address(), v.address(), "{}", v.fingerprint());
        }
        // A machine-config detail (not just the name) moves the address.
        let mut tweaked = opteron_2x2();
        tweaked.ram_bytes += 1;
        let t = StoreKey::new(
            &tweaked,
            AppKind::Cg,
            Class::S,
            PagePolicy::Small4K,
            4,
            RunOpts::default(),
            BackendKind::CycleExact,
        );
        assert_ne!(base.address(), t.address());
        assert!(base
            .fingerprint()
            .contains(&format!("engine={ENGINE_VERSION}")));
    }

    #[test]
    fn variant_moves_the_address() {
        let base = key(PagePolicy::Small4K, 4);
        let v1 = base.clone().with_variant("frag=0.5");
        let v2 = base.clone().with_variant("frag=0.9");
        assert_ne!(base.address(), v1.address());
        assert_ne!(v1.address(), v2.address());
        assert_eq!(v1.address().len(), 32);
    }

    #[test]
    fn every_config_axis_moves_the_address() {
        use crate::system::{SystemBuilder, TenantSpec};
        use lpomp_prof::ProfileSpec;
        use lpomp_runtime::{Schedule, StealPolicy, DEFAULT_QUANTUM};
        use lpomp_vm::{KhugepagedConfig, NumaDaemonConfig};
        let base = || SystemBuilder::new(opteron_2x2());
        let key_of = |app, class, b: SystemBuilder, opts, backend| {
            StoreKey::for_config(app, class, b.config(), opts, backend)
        };
        let cg = |b| {
            key_of(
                AppKind::Cg,
                Class::S,
                b,
                RunOpts::default(),
                BackendKind::CycleExact,
            )
        };
        let mut tweaked = opteron_2x2();
        tweaked.ram_bytes += 1;
        let keys = [
            cg(base()),
            cg(SystemBuilder::new(tweaked)),
            cg(base().policy(PagePolicy::Large2M)),
            cg(base().populate(crate::PopulatePolicy::OnDemand)),
            cg(base().threads(2)),
            cg(base().quantum(DEFAULT_QUANTUM + 1)),
            cg(base().private_heap(true)),
            cg(base().khugepaged(KhugepagedConfig::default())),
            cg(base().numa_daemon(NumaDaemonConfig::default())),
            cg(base().profile(ProfileSpec::Regions)),
            cg(base().tenants(vec![TenantSpec::new("solo", AppKind::Cg, Class::S, 1)])),
            cg(base().schedule(Schedule::Dynamic(64))),
            cg(base().steal_policy(StealPolicy {
                remote_batch: 3,
                ..StealPolicy::default()
            })),
            key_of(
                AppKind::Mg,
                Class::S,
                base(),
                RunOpts::default(),
                BackendKind::CycleExact,
            ),
            key_of(
                AppKind::Cg,
                Class::W,
                base(),
                RunOpts::default(),
                BackendKind::CycleExact,
            ),
            key_of(
                AppKind::Cg,
                Class::S,
                base(),
                RunOpts { verify: true },
                BackendKind::CycleExact,
            ),
            key_of(
                AppKind::Cg,
                Class::S,
                base(),
                RunOpts::default(),
                BackendKind::Analytic,
            ),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a.address(), b.address(), "{}", b.fingerprint());
            }
        }
        // `new` is the default-builder case of `for_config`.
        let default = StoreKey::new(
            &opteron_2x2(),
            AppKind::Cg,
            Class::S,
            PagePolicy::Small4K,
            1,
            RunOpts::default(),
            BackendKind::CycleExact,
        );
        assert_eq!(default, keys[0]);
    }

    /// A minimal cell that is not a run record.
    #[derive(Debug, PartialEq)]
    struct Xy {
        x: f64,
        y: String,
    }

    impl GridCell for Xy {
        fn write_json(&self, w: &mut JsonWriter) {
            w.key("x").num(self.x);
            w.key("y").str(&self.y);
        }

        fn from_store_json(j: &Json, _key: &StoreKey) -> Result<Self, String> {
            Ok(Xy {
                x: j.num("x")?,
                y: j.string("y")?.to_owned(),
            })
        }
    }

    #[test]
    fn generic_cells_round_trip_and_miss_on_drift() {
        let store = temp_store("cells");
        let k = key(PagePolicy::Small4K, 1).with_variant("cell");
        assert!(store.load_cell::<Xy>(&k).is_none(), "cold store misses");
        let cell = Xy {
            x: 1.0,
            y: "z".to_owned(),
        };
        assert!(store.save_cell(&k, &cell).unwrap());
        let file = std::fs::read_to_string(store.dir().join(k.file_name())).unwrap();
        assert_eq!(
            pin(&file),
            (2054, 0x3a60_292f_f627_cffb),
            "cell file bytes drifted"
        );
        let back: Xy = store.load_cell(&k).unwrap();
        assert_eq!(back.x, 1.0);
        assert_eq!(back.y, "z");
        // A different variant misses.
        let other = key(PagePolicy::Small4K, 1).with_variant("other");
        assert!(store.load_cell::<Xy>(&other).is_none());
        // RunRecord loads reject cell files: miss, never a wrong record.
        assert!(store.load(&k).is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn save_load_round_trips_byte_identically() {
        let store = temp_store("roundtrip");
        let k = key(PagePolicy::Large2M, 2);
        let mut rec = dummy_record(&k);
        rec.verified = Some(true);
        assert!(store.load(&k).is_none(), "cold store misses");
        assert!(store.save(&k, &rec).unwrap());
        let file = std::fs::read_to_string(store.dir().join(k.file_name())).unwrap();
        assert_eq!(
            pin(&file),
            (2754, 0xf1bc_6889_2af3_624c),
            "record file bytes drifted"
        );
        let back = store.load(&k).expect("hit after save");
        // RunRecord's PartialEq compares f64 bits via ==; equality here is
        // the byte-identical guarantee the incremental sweep relies on.
        assert_eq!(back, rec);
        assert_eq!(store.len(), 1);
        // A machine name with a quote and a backslash round-trips too.
        let quoted = StoreKey::new(
            &quoted_machine(),
            AppKind::Cg,
            Class::S,
            PagePolicy::Large2M,
            2,
            RunOpts::default(),
            BackendKind::CycleExact,
        );
        let rec = dummy_record(&quoted);
        assert!(store.save(&quoted, &rec).unwrap());
        assert_eq!(store.load(&quoted), Some(rec));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn mixed_policy_round_trips_with_threshold() {
        let store = temp_store("mixed");
        let k = key(
            PagePolicy::Mixed {
                threshold_bytes: 256 * 1024,
            },
            4,
        );
        let rec = dummy_record(&k);
        assert!(store.save(&k, &rec).unwrap());
        assert_eq!(store.load(&k).unwrap(), rec);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_stale_or_colliding_files_miss_instead_of_panicking() {
        let store = temp_store("corrupt");
        let k = key(PagePolicy::Small4K, 1);
        let rec = dummy_record(&k);
        store.save(&k, &rec).unwrap();
        let path = store.dir().join(k.file_name());
        let good = std::fs::read_to_string(&path).unwrap();

        // Truncated, garbage, wrong-typed and deeply nested files: all miss.
        let deep = format!("{}{good}", "[".repeat(100_000));
        for bad in [
            &good[..good.len() / 2],
            "not json at all",
            "",
            "{\"v\":1}",
            "[1,2,3]",
            &deep,
        ] {
            std::fs::write(&path, bad).unwrap();
            assert!(
                store.load(&k).is_none(),
                "{:?} must miss",
                &bad[..bad.len().min(40)]
            );
        }

        // A stored integer outside the exact non-negative range misses
        // instead of loading clamped or truncated.
        for cycles in ["-5", "1.5", "1e300"] {
            let bad = good.replacen("\"cycles\":123456789", &format!("\"cycles\":{cycles}"), 1);
            assert_ne!(bad, good);
            std::fs::write(&path, &bad).unwrap();
            assert!(store.load(&k).is_none(), "cycles {cycles} must miss");
        }

        // Engine-version drift: stale analytic semantics must re-run.
        let stale = good.replace(
            &format!("\"engine\":{ENGINE_VERSION}"),
            &format!("\"engine\":{}", ENGINE_VERSION - 1),
        );
        assert_ne!(stale, good);
        std::fs::write(&path, &stale).unwrap();
        assert!(store.load(&k).is_none(), "stale engine must miss");

        // Fingerprint drift under the right file name (a collision or a
        // renamed file): miss, never a wrong record.
        let collided = good.replace("policy: Small4K", "policy: Large2M");
        assert_ne!(collided, good);
        std::fs::write(&path, &collided).unwrap();
        assert!(store.load(&k).is_none(), "collision must miss");

        // Restoring the good bytes restores the hit.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(store.load(&k).unwrap(), rec);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn records_with_attachments_are_not_cached() {
        let store = temp_store("attach");
        let k = key(PagePolicy::Small4K, 1);
        let mut rec = dummy_record(&k);
        rec.trace = Some("{}".to_owned());
        assert!(!store.save(&k, &rec).unwrap());
        assert!(store.load(&k).is_none());
        assert!(store.is_empty());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn shard_parse_and_coverage_partition() {
        assert_eq!(Shard::parse("1/4"), Some(Shard { index: 0, count: 4 }));
        assert_eq!(Shard::parse("4/4"), Some(Shard { index: 3, count: 4 }));
        assert_eq!(Shard::parse("0/4"), None, "1-based");
        assert_eq!(Shard::parse("5/4"), None);
        assert_eq!(Shard::parse("x/4"), None);
        assert_eq!(Shard::parse("2"), None);
        assert_eq!(Shard { index: 1, count: 3 }.to_string(), "2/3");
        // Shards partition any index range exactly once.
        for n in 1..=5 {
            for i in 0..100 {
                let owners = (0..n)
                    .filter(|&s| Shard { index: s, count: n }.covers(i))
                    .count();
                assert_eq!(owners, 1, "index {i} with {n} shards");
            }
        }
    }

    #[test]
    fn manifest_round_trips() {
        let store = temp_store("manifest");
        let m = ShardManifest {
            sweep: "deadbeef".to_owned(),
            shard: Shard { index: 1, count: 2 },
            entries: vec![(1, "aa".into()), (3, "bb".into())],
        };
        let path = m.write(&store).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"v\":2,\"engine\":8,\"sweep\":\"deadbeef\",\"shard\":2,\"of\":2,\
             \"entries\":[[1,\"aa\"],[3,\"bb\"]]}\n"
        );
        assert_eq!(ShardManifest::read(&path).unwrap(), m);
        assert_eq!(store.len(), 0, "manifests are not records");
        // Corrupt manifests produce errors, not panics.
        std::fs::write(&path, "{\"v\":1,").unwrap();
        assert!(ShardManifest::read(&path).is_err());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn jsonl_sink_emits_self_describing_lines() {
        let buf = std::sync::Arc::new(Mutex::new(Vec::<u8>::new()));
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::from_writer(Box::new(Shared(buf.clone())));
        let k = key(PagePolicy::Small4K, 2);
        sink.emit(&dummy_record(&k), true);
        sink.emit(&dummy_record(&k), false);
        let quoted = StoreKey::new(
            &quoted_machine(),
            AppKind::Cg,
            Class::S,
            PagePolicy::Small4K,
            2,
            RunOpts::default(),
            BackendKind::CycleExact,
        );
        sink.emit(&dummy_record(&quoted), false);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            pin(lines[0]),
            (742, 0xee22_f34e_8b5c_156f),
            "JSONL line bytes drifted"
        );
        let first = parse_json(lines[0]).unwrap();
        assert_eq!(first.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(first.get("app").and_then(Json::as_str), Some("CG"));
        let second = parse_json(lines[1]).unwrap();
        assert_eq!(second.get("cached"), Some(&Json::Bool(false)));
        let third = parse_json(lines[2]).unwrap();
        assert_eq!(
            third.get("machine").and_then(Json::as_str),
            Some(quoted_machine().name)
        );
    }
}
