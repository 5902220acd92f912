//! NPB IS: integer bucket sort (extension workload).
//!
//! Not one of the paper's five applications, but the sixth classic NPB
//! kernel and a natural extra datapoint: its ranking phase scatters
//! increments across a multi-megabyte histogram indexed by random keys —
//! the same "random access over many pages" profile that makes CG the
//! paper's best case. Including it tests that the harness's conclusions
//! generalize beyond the five calibrated codes.
//!
//! Structure follows NPB IS: iterations of (perturb two keys → count keys
//! into per-thread histograms → merge → prefix-sum → partial
//! verification), with the full sort checked at the end via the rank
//! array's monotonicity.

use crate::common::{Class, CodeProfile, Footprint, Kernel};
use crate::rng::Nprng;
use lpomp_runtime::{BumpAllocator, Schedule, ShVec, Team};

#[derive(Clone, Copy, Debug)]
struct Params {
    /// Number of keys.
    n: usize,
    /// Key range (bucket count).
    max_key: usize,
    /// Ranking iterations.
    iters: usize,
}

fn params(class: Class) -> Params {
    match class {
        Class::S => Params {
            n: 1 << 14,
            max_key: 1 << 10,
            iters: 3,
        },
        // Histogram spans 2 MB per thread: hundreds of 4 KB pages of
        // random writes (far beyond the 32-entry L1 DTLB), one large page.
        Class::W => Params {
            n: 1 << 20,
            max_key: 1 << 18,
            iters: 4,
        },
        Class::A => Params {
            n: 1 << 22,
            max_key: 1 << 19,
            iters: 6,
        },
        // NPB class B: 2^25 keys, 2^21 key range, 10 iterations.
        Class::B => Params {
            n: 1 << 25,
            max_key: 1 << 21,
            iters: 10,
        },
    }
}

/// The IS benchmark.
pub struct Is {
    class: Class,
    prm: Params,
    keys: Option<ShVec<u64>>,
    /// Per-thread histograms, thread-major: `hist[t * max_key + k]`.
    hist: Option<ShVec<u64>>,
    /// Merged counts / rank prefix.
    ranks: Option<ShVec<u64>>,
    threads_hint: usize,
}

/// Maximum team size the histogram array is provisioned for.
const MAX_THREADS: usize = 8;

impl Is {
    /// New IS instance.
    pub fn new(class: Class) -> Self {
        Is {
            class,
            prm: params(class),
            keys: None,
            hist: None,
            ranks: None,
            threads_hint: MAX_THREADS,
        }
    }

    fn run_impl(&self, team: &mut Team) -> f64 {
        let p = self.prm;
        let keys = self.keys.as_ref().unwrap();
        let hist = self.hist.as_ref().unwrap();
        let ranks = self.ranks.as_ref().unwrap();
        let threads = team.threads();
        assert!(threads <= MAX_THREADS);
        // Regenerate keys so repeated runs are identical.
        Self::gen_keys(keys, p);
        let mut checksum = 0.0;
        for it in 0..p.iters {
            // NPB perturbs two keys per iteration.
            keys.set_raw(it % p.n, (it % p.max_key) as u64);
            keys.set_raw((it * 31) % p.n, ((p.max_key - 1 - it) % p.max_key) as u64);

            // Phase 1: zero the per-thread histograms (streamed).
            team.parallel_for(0..threads * p.max_key, Schedule::Static, &|ctx, rr| {
                for e in rr.clone() {
                    if e % 8 == 0 {
                        ctx.write_streamed(hist.va(e));
                    }
                    hist.set_raw(e, 0);
                }
                ctx.compute(rr.len() as u64);
            });

            // Phase 2: count — sequential key reads, random histogram
            // increments (the TLB-hostile scatter).
            team.parallel_for(0..p.n, Schedule::Static, &|ctx, rr| {
                let t = ctx.thread_id();
                let base = t * p.max_key;
                let nlen = rr.len() as u64;
                for i in rr {
                    if i % 8 == 0 {
                        ctx.read_streamed(keys.va(i));
                    }
                    let k = keys.get_raw(i) as usize;
                    let e = base + k;
                    ctx.read(hist.va(e));
                    ctx.write(hist.va(e));
                    hist.set_raw(e, hist.get_raw(e) + 1);
                }
                ctx.compute(3 * nlen);
            });

            // Phase 3: merge thread histograms and prefix-sum (parallel
            // merge over buckets, then a single-threaded scan as in NPB).
            team.parallel_for(0..p.max_key, Schedule::Static, &|ctx, rr| {
                let nlen = rr.len() as u64;
                for k in rr {
                    let mut sum = 0u64;
                    for t in 0..threads {
                        let e = t * p.max_key + k;
                        if k % 8 == 0 {
                            ctx.read_streamed(hist.va(e));
                        }
                        sum += hist.get_raw(e);
                    }
                    if k % 8 == 0 {
                        ctx.write_streamed(ranks.va(k));
                    }
                    ranks.set_raw(k, sum);
                }
                ctx.compute(threads as u64 * nlen);
            });
            team.single(&mut |ctx| {
                let mut acc = 0u64;
                for k in 0..p.max_key {
                    if k % 8 == 0 {
                        ctx.read_streamed(ranks.va(k));
                        ctx.write_streamed(ranks.va(k));
                    }
                    let c = ranks.get_raw(k);
                    ranks.set_raw(k, acc);
                    acc += c;
                }
                ctx.compute(2 * p.max_key as u64);
            });

            // Partial verification: the ranks of five probe keys.
            let mut rng = Nprng::new(17 + it as u64);
            for _ in 0..5 {
                let k = rng.next_index(p.max_key);
                checksum += ranks.get_raw(k) as f64;
            }
        }
        checksum
    }

    fn gen_keys(keys: &ShVec<u64>, p: Params) {
        let mut rng = Nprng::new_default();
        for i in 0..p.n {
            // NPB uses the average of four draws to bias toward the middle.
            let k = (rng.next_f64() + rng.next_f64() + rng.next_f64() + rng.next_f64()) / 4.0;
            keys.set_raw(i, (k * p.max_key as f64) as u64 % p.max_key as u64);
        }
    }

    /// Full verification: ranks must be monotonically non-decreasing and
    /// end at n (a valid prefix-sum of a complete count).
    #[cfg(test)]
    pub(crate) fn ranks_are_valid(&self) -> bool {
        let p = self.prm;
        let ranks = self.ranks.as_ref().unwrap();
        let mut prev = 0u64;
        for k in 0..p.max_key {
            let r = ranks.get_raw(k);
            if r < prev {
                return false;
            }
            prev = r;
        }
        prev <= p.n as u64
    }
}

impl Kernel for Is {
    fn name(&self) -> &'static str {
        "IS"
    }

    fn class(&self) -> Class {
        self.class
    }

    fn footprint(&self) -> Footprint {
        let p = self.prm;
        Footprint {
            instruction_bytes: 1_100_000,
            data_bytes: (p.n + (self.threads_hint + 1) * p.max_key) as u64 * 8,
        }
    }

    fn code_profile(&self) -> CodeProfile {
        CodeProfile {
            code_bytes: 1_100_000,
            hot_bytes: 24 * 1024,
            cold_period: 2500,
        }
    }

    fn setup(&mut self, alloc: &mut BumpAllocator) {
        let p = self.prm;
        let keys: ShVec<u64> = alloc.alloc_vec(p.n);
        Self::gen_keys(&keys, p);
        self.keys = Some(keys);
        self.hist = Some(alloc.alloc_vec(self.threads_hint * p.max_key));
        self.ranks = Some(alloc.alloc_vec(p.max_key));
    }

    fn run(&mut self, team: &mut Team) -> f64 {
        self.run_impl(team)
    }

    fn reference(&self) -> f64 {
        let mut team = Team::native(1);
        self.run_impl(&mut team)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::run_native;
    use crate::AppKind;

    #[test]
    fn is_native_matches_reference_across_threads() {
        for threads in [1, 2, 4] {
            let (cs, ok) = run_native(AppKind::Is, Class::S, threads);
            assert!(ok, "threads={threads} checksum={cs}");
        }
    }

    #[test]
    fn is_ranks_form_a_valid_prefix_sum() {
        let mut k = Is::new(Class::S);
        let mut alloc = BumpAllocator::unbounded();
        k.setup(&mut alloc);
        let mut team = Team::native(3);
        k.run(&mut team);
        assert!(k.ranks_are_valid());
    }

    #[test]
    fn is_ranking_is_correct_on_a_tiny_case() {
        // Cross-check the rank array against a std sort.
        let mut k = Is::new(Class::S);
        let mut alloc = BumpAllocator::unbounded();
        k.setup(&mut alloc);
        let mut team = Team::native(2);
        k.run(&mut team);
        let keys = k.keys.as_ref().unwrap().to_vec();
        let ranks = k.ranks.as_ref().unwrap();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        // rank[key] = index of the first occurrence of `key` in the sorted
        // order.
        for probe in [0usize, 7, 100, 1023] {
            let expected = sorted.partition_point(|&v| v < probe as u64);
            assert_eq!(ranks.get_raw(probe), expected as u64, "rank of key {probe}");
        }
    }

    #[test]
    fn is_key_distribution_is_centered() {
        // NPB's four-draw average biases keys toward the middle.
        let mut k = Is::new(Class::S);
        let mut alloc = BumpAllocator::unbounded();
        k.setup(&mut alloc);
        let keys = k.keys.as_ref().unwrap().to_vec();
        let max = params(Class::S).max_key as f64;
        let mean = keys.iter().map(|&v| v as f64).sum::<f64>() / keys.len() as f64;
        assert!((mean / max - 0.5).abs() < 0.05, "mean/max = {}", mean / max);
    }
}
