//! Host-time benchmark of the lpomp simulator.
//!
//! The measured quantity is the simulator's host time. Simulated cycles
//! and counters are outputs: the correctness gate ([`gate`]) pins them
//! against a reference recorded from the same cells, and they are never
//! metrics. Each workload ([`cells::Workload`]) runs a fixed set of cells
//! through the public API; [`micro`] times single public functions per
//! layer, and [`report`] reconciles each workload's engine time with
//! those figures.

pub mod cells;
pub mod gate;
pub mod micro;
pub mod report;
pub mod span;

use std::path::PathBuf;

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// The `q` quantile of `v` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest percentile (in whole percent) that still has at least ten
/// samples beyond it, and its value; `None` below eleven samples.
pub fn high_percentile(v: &[f64]) -> Option<(u32, f64)> {
    let n = v.len();
    (n > 10).then(|| {
        let pct = (100 * (n - 10) / n) as u32;
        (pct, percentile(v, f64::from(pct) / 100.0))
    })
}

/// SplitMix64: the seeded generator behind cell order and the
/// microbenchmarks' address streams.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pin glibc's mmap threshold at its default (128 KB).
///
/// glibc raises the threshold whenever a large block is freed, so which
/// cell frees first decides whether later cells' arrays get fresh
/// mappings or recycled heap memory. That choice moved host time by about
/// 10 % and peak RSS by more between cell orders; with the threshold
/// pinned, every large allocation is a fresh mapping whatever the order
/// the seed picks. Call once, before any other thread exists.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::os::raw::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` only adjusts allocator tunables; it has no
        // pointer arguments, and glibc serialises it with allocation.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Where runs leave their outputs (traces, the scratch store):
/// `out/` inside the benchmark's directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The reference recorded for class W at the commit that defined the
/// benchmark.
pub fn reference_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference_W.txt")
}

/// What every output is stamped with.
#[derive(Clone, Debug)]
pub struct Stamp {
    pub rev: &'static str,
    pub rustc: &'static str,
    pub host_cpus: usize,
    pub class: String,
    pub seed: u64,
}

impl Stamp {
    pub fn new(class: &str, seed: u64) -> Stamp {
        Stamp {
            rev: env!("PERFBENCH_GIT_REV"),
            rustc: env!("PERFBENCH_RUSTC"),
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            class: class.to_owned(),
            seed,
        }
    }

    pub fn pairs(&self) -> Vec<(&'static str, String)> {
        vec![
            ("git_rev", self.rev.to_owned()),
            ("host_cpus", self.host_cpus.to_string()),
            ("class", self.class.clone()),
            ("seed", self.seed.to_string()),
            ("rustc", self.rustc.to_owned()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.25), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond() {
        assert!(high_percentile(&[1.0; 10]).is_none());
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let (pct, _) = high_percentile(&v).unwrap();
        assert_eq!(pct, 99);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(high_percentile(&v).unwrap().0, 90);
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        SplitMix::new(7).shuffle(&mut a);
        SplitMix::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        SplitMix::new(8).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
