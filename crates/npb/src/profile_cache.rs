//! Cache of captured reference-stream profiles, keyed by
//! `(application, class, thread count)`.
//!
//! The analytic backend needs one capture run per key; every
//! (machine × page policy × placement) evaluation after that is a pure
//! function of the cached [`StreamProfile`]. The cache is in-memory and
//! process-wide by default; set `LPOMP_PROFILE_DIR` to also persist
//! profiles as JSON across processes. Disk files are never trusted:
//! corrupt or truncated JSON, a key mismatch, histograms no capture can
//! produce, or an [`ENGINE_VERSION`](lpomp_prof::ENGINE_VERSION) stamp
//! from a different engine all fall back to recapture.

use crate::common::{AppKind, Class};
use lpomp_prof::reuse::StreamProfile;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Cache key.
pub(crate) type ProfileKey = (AppKind, Class, usize);

/// A key's profile, filled once by whichever caller captures it.
type Cell = Arc<OnceLock<Arc<StreamProfile>>>;

/// See the [module docs](self).
pub struct ProfileCache {
    mem: Mutex<HashMap<ProfileKey, Cell>>,
    dir: Option<PathBuf>,
}

impl Default for ProfileCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfileCache {
    /// Empty cache; the disk layer activates when `LPOMP_PROFILE_DIR`
    /// is set to a non-empty path.
    pub fn new() -> Self {
        let dir = std::env::var("LPOMP_PROFILE_DIR")
            .ok()
            .filter(|d| !d.is_empty())
            .map(PathBuf::from);
        Self::with_dir(dir)
    }

    /// Empty cache with an explicit on-disk directory (`None` = memory
    /// only).
    pub fn with_dir(dir: Option<PathBuf>) -> Self {
        ProfileCache {
            mem: Mutex::new(HashMap::new()),
            dir,
        }
    }

    /// Canonical file name of a key's profile.
    pub fn file_name(app: AppKind, class: Class, threads: usize) -> String {
        format!("{app}_{class}_t{threads}.json")
    }

    /// Lock the in-memory map, recovering from poisoning: the map only
    /// ever gains cells, so no holder can leave it half-updated, and
    /// recovering keeps one panic from cascading `PoisonError` panics
    /// across every other sweep worker.
    fn mem(&self) -> MutexGuard<'_, HashMap<ProfileKey, Cell>> {
        self.mem
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Number of profiles resident in memory.
    pub fn len(&self) -> usize {
        self.mem().values().filter(|c| c.get().is_some()).count()
    }

    /// Whether the in-memory cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch the profile for a key, running `capture` on a miss. The map
    /// lock is held only to find or insert the key's cell: captures of
    /// different keys run concurrently, while concurrent callers of one
    /// key wait for a single capture. A capture that panics leaves its
    /// cell empty, so the next caller captures again.
    pub fn get_or_capture(
        &self,
        app: AppKind,
        class: Class,
        threads: usize,
        capture: impl FnOnce() -> StreamProfile,
    ) -> Arc<StreamProfile> {
        let cell = Arc::clone(self.mem().entry((app, class, threads)).or_default());
        let profile = cell.get_or_init(|| {
            Arc::new(self.try_load(app, class, threads).unwrap_or_else(|| {
                let p = capture();
                self.try_store(app, class, threads, &p);
                p
            }))
        });
        Arc::clone(profile)
    }

    fn path(&self, app: AppKind, class: Class, threads: usize) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(Self::file_name(app, class, threads)))
    }

    fn try_load(&self, app: AppKind, class: Class, threads: usize) -> Option<StreamProfile> {
        let path = self.path(app, class, threads)?;
        let src = std::fs::read_to_string(path).ok()?;
        // `from_json` rejects profiles stamped with a different
        // `ENGINE_VERSION` (stale charge rules / capture pipeline) and
        // errors on corrupt or truncated JSON; either way `.ok()?` turns
        // the failure into a recapture, never a panic or a stale hit.
        let p = StreamProfile::from_json(&src).ok()?;
        // Never trust a renamed file.
        let matches =
            p.app == app.to_string() && p.class == class.to_string() && p.threads == threads;
        matches.then_some(p)
    }

    fn try_store(&self, app: AppKind, class: Class, threads: usize, p: &StreamProfile) {
        let Some(path) = self.path(app, class, threads) else {
            return;
        };
        // Best effort: an unwritable directory only costs recapture.
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let _ = std::fs::write(path, p.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile(app: AppKind, class: Class, threads: usize) -> StreamProfile {
        StreamProfile {
            app: app.to_string(),
            class: class.to_string(),
            threads,
            checksum: 1.5,
            phases: Vec::new(),
        }
    }

    #[test]
    fn memory_cache_captures_once() {
        let cache = ProfileCache::with_dir(None);
        let mut calls = 0;
        for _ in 0..3 {
            let p = cache.get_or_capture(AppKind::Cg, Class::S, 2, || {
                calls += 1;
                tiny_profile(AppKind::Cg, Class::S, 2)
            });
            assert_eq!(p.threads, 2);
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disk_layer_round_trips_and_rejects_mismatches() {
        let dir = std::env::temp_dir().join(format!("lpomp-pc-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ProfileCache::with_dir(Some(dir.clone()));
        cache.get_or_capture(AppKind::Mg, Class::S, 4, || {
            tiny_profile(AppKind::Mg, Class::S, 4)
        });
        assert!(dir
            .join(ProfileCache::file_name(AppKind::Mg, Class::S, 4))
            .exists());

        // A second cache instance loads from disk without capturing.
        let cache2 = ProfileCache::with_dir(Some(dir.clone()));
        let p = cache2.get_or_capture(AppKind::Mg, Class::S, 4, || panic!("should load from disk"));
        assert_eq!(p.checksum, 1.5);

        // A mismatched file (wrong thread count inside) is recaptured.
        std::fs::write(
            dir.join(ProfileCache::file_name(AppKind::Mg, Class::S, 8)),
            tiny_profile(AppKind::Mg, Class::S, 4).to_json(),
        )
        .unwrap();
        let mut recaptured = false;
        cache2.get_or_capture(AppKind::Mg, Class::S, 8, || {
            recaptured = true;
            tiny_profile(AppKind::Mg, Class::S, 8)
        });
        assert!(recaptured);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_truncated_files_fall_back_to_recapture() {
        let dir = std::env::temp_dir().join(format!("lpomp-pc-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let good = tiny_profile(AppKind::Cg, Class::S, 2).to_json();
        let path = dir.join(ProfileCache::file_name(AppKind::Cg, Class::S, 2));
        for bad in [
            "",
            "not json",
            "{\"engine\":",
            &good[..good.len() / 2], // truncated mid-write
        ] {
            std::fs::write(&path, bad).unwrap();
            let cache = ProfileCache::with_dir(Some(dir.clone()));
            let mut recaptured = false;
            cache.get_or_capture(AppKind::Cg, Class::S, 2, || {
                recaptured = true;
                tiny_profile(AppKind::Cg, Class::S, 2)
            });
            assert!(recaptured, "file {bad:?} must recapture, not panic");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_engine_version_is_recaptured() {
        let dir = std::env::temp_dir().join(format!("lpomp-pc-engine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ProfileCache::with_dir(Some(dir.clone()));
        cache.get_or_capture(AppKind::Ft, Class::S, 2, || {
            tiny_profile(AppKind::Ft, Class::S, 2)
        });

        // Simulate an engine upgrade: rewrite the stored profile as if a
        // previous engine version had captured it. The file is otherwise
        // perfectly valid — only the stamp is stale.
        let path = dir.join(ProfileCache::file_name(AppKind::Ft, Class::S, 2));
        let cur = format!("\"engine\":{}", lpomp_prof::ENGINE_VERSION);
        let old = format!("\"engine\":{}", lpomp_prof::ENGINE_VERSION - 1);
        let src = std::fs::read_to_string(&path).unwrap();
        assert!(src.contains(&cur), "profiles must carry the engine stamp");
        std::fs::write(&path, src.replace(&cur, &old)).unwrap();

        let cache2 = ProfileCache::with_dir(Some(dir.clone()));
        let mut recaptured = false;
        cache2.get_or_capture(AppKind::Ft, Class::S, 2, || {
            recaptured = true;
            tiny_profile(AppKind::Ft, Class::S, 2)
        });
        assert!(recaptured, "stale engine stamp must force recapture");
        // The recapture refreshed the file back to the current stamp.
        let refreshed = std::fs::read_to_string(&path).unwrap();
        assert!(refreshed.contains(&cur));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn captures_of_different_keys_run_concurrently() {
        use std::sync::mpsc::{channel, Receiver, Sender};
        use std::time::Duration;
        let cache = ProfileCache::with_dir(None);
        // Each capture tells the other it started, then waits to hear
        // back: both hear back only if neither blocks the other.
        let meet = |app: AppKind, tx: Sender<()>, rx: Receiver<()>| {
            cache.get_or_capture(app, Class::S, 2, || {
                let _ = tx.send(());
                let heard = rx.recv_timeout(Duration::from_secs(5));
                assert!(heard.is_ok(), "{app} capture ran alone: {heard:?}");
                tiny_profile(app, Class::S, 2)
            })
        };
        let (to_mg, from_cg) = channel();
        let (to_cg, from_mg) = channel();
        std::thread::scope(|s| {
            let cg = s.spawn(|| meet(AppKind::Cg, to_mg, from_mg));
            let mg = s.spawn(|| meet(AppKind::Mg, to_cg, from_cg));
            assert_eq!(cg.join().expect("CG capture").app, AppKind::Cg.to_string());
            assert_eq!(mg.join().expect("MG capture").app, AppKind::Mg.to_string());
        });
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_cascading() {
        let cache = std::sync::Arc::new(ProfileCache::with_dir(None));
        // A worker's capture panics mid-run, as a panicking engine run
        // would.
        let c = std::sync::Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            c.get_or_capture(AppKind::Cg, Class::S, 2, || panic!("engine run panicked"))
        })
        .join()
        .expect_err("worker must panic");
        // Other workers proceed with the original panic surfaced alone —
        // no PoisonError cascade.
        let p = cache.get_or_capture(AppKind::Cg, Class::S, 4, || {
            tiny_profile(AppKind::Cg, Class::S, 4)
        });
        assert_eq!(p.threads, 4);
        assert_eq!(cache.len(), 1);
        // The panicked key's cell stayed empty: the next caller captures.
        let p = cache.get_or_capture(AppKind::Cg, Class::S, 2, || {
            tiny_profile(AppKind::Cg, Class::S, 2)
        });
        assert_eq!(p.threads, 2);
        assert_eq!(cache.len(), 2);
    }
}
