//! The NAS Parallel Benchmarks pseudo-random number generator.
//!
//! NPB specifies a linear congruential generator
//! `x_{k+1} = a * x_k  (mod 2^46)` with `a = 5^13`, returning uniform
//! doubles in (0, 1). All NPB kernels (CG's `makea`, FT's initial
//! conditions, EP's Gaussian pairs) draw from it, and because it is part
//! of the benchmark *specification*, we implement it exactly rather than
//! using the `rand` crate (which we reserve for non-NPB test inputs).
//!
//! The generator also supports O(log k) jump-ahead (`randlc` with a power
//! of the multiplier), which EP uses to give each thread an independent
//! substream — reproduced here as [`Nprng::skip`].

/// Modulus 2^46.
const M46: u64 = 1 << 46;
/// Mask for mod 2^46.
const MASK46: u64 = M46 - 1;
/// The NPB multiplier a = 5^13.
pub const A: u64 = 1_220_703_125;
/// The canonical NPB seed.
pub(crate) const SEED: u64 = 314_159_265;

/// 46-bit modular multiply (exact, via u128).
#[inline]
fn mul46(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) & MASK46 as u128) as u64
}

/// The NPB LCG state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Nprng {
    x: u64,
}

impl Nprng {
    /// Generator seeded with the canonical NPB seed.
    pub fn new_default() -> Self {
        Nprng { x: SEED }
    }

    /// Generator with an explicit (46-bit) seed.
    pub fn new(seed: u64) -> Self {
        Nprng { x: seed & MASK46 }
    }

    /// Current raw state.
    pub fn state(&self) -> u64 {
        self.x
    }

    /// Next uniform double in (0, 1) — NPB's `randlc`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.x = mul46(A, self.x);
        self.x as f64 / M46 as f64
    }

    /// Fill `out` with uniform doubles — NPB's `vranlc`.
    pub fn fill(&mut self, out: &mut [f64]) {
        for o in out {
            *o = self.next_f64();
        }
    }

    /// Next integer uniform in `[0, n)` (used by `makea`-style column
    /// placement).
    #[inline]
    pub(crate) fn next_index(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }

    /// Advance the stream by `k` steps in O(log k) (NPB's power-of-a
    /// jump-ahead, used to partition EP's stream across threads).
    pub fn skip(&mut self, k: u64) {
        // Compute a^k mod 2^46 by binary exponentiation.
        let mut ak = 1u64;
        let mut base = A;
        let mut k = k;
        while k > 0 {
            if k & 1 == 1 {
                ak = mul46(ak, base);
            }
            base = mul46(base, base);
            k >>= 1;
        }
        self.x = mul46(ak, self.x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_in_unit_interval_and_deterministic() {
        let mut r = Nprng::new_default();
        let mut r2 = Nprng::new_default();
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!(v > 0.0 && v < 1.0);
            assert_eq!(v, r2.next_f64());
        }
    }

    #[test]
    fn known_first_value() {
        // x1 = 5^13 * 314159265 mod 2^46; value = x1 / 2^46.
        let mut r = Nprng::new_default();
        let v = r.next_f64();
        let expect = mul46(A, SEED) as f64 / M46 as f64;
        assert_eq!(v, expect);
    }

    #[test]
    fn skip_matches_sequential_stepping() {
        let mut a = Nprng::new_default();
        let mut b = Nprng::new_default();
        for _ in 0..1234 {
            a.next_f64();
        }
        b.skip(1234);
        assert_eq!(a.state(), b.state());
        assert_eq!(a.next_f64(), b.next_f64());
    }

    #[test]
    fn skip_zero_is_identity() {
        let mut a = Nprng::new_default();
        let before = a.state();
        a.skip(0);
        assert_eq!(a.state(), before);
    }

    #[test]
    fn fill_advances_state_per_element() {
        let mut a = Nprng::new_default();
        let mut b = Nprng::new_default();
        let mut buf = [0.0; 10];
        a.fill(&mut buf);
        for v in buf {
            assert_eq!(v, b.next_f64());
        }
    }

    #[test]
    fn next_index_in_range() {
        let mut r = Nprng::new_default();
        for _ in 0..1000 {
            let i = r.next_index(37);
            assert!(i < 37);
        }
    }

    #[test]
    fn mean_is_near_half() {
        let mut r = Nprng::new_default();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
