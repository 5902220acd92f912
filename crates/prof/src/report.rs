//! Normalization arithmetic for the paper's figures.
//!
//! Fig. 5 reports DTLB misses *normalized to the 4 KB-page run* of each
//! application, and Fig. 4's improvements are percentages of the 4 KB
//! run time. Both are small, easy-to-get-wrong divisions, so they live
//! here with tests.

/// A (baseline, variant) pair normalized to the baseline, as in Fig. 5
/// where every application's 4 KB bar is 1.0.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NormalizedSeries {
    /// Baseline count (normalizes to 1.0).
    pub baseline: u64,
    /// Variant count.
    pub variant: u64,
}

impl NormalizedSeries {
    /// The variant's normalized value (baseline = 1.0). Zero baseline with
    /// a zero variant normalizes to 0; zero baseline otherwise is reported
    /// as infinity.
    pub fn normalized_variant(&self) -> f64 {
        if self.baseline == 0 {
            if self.variant == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.variant as f64 / self.baseline as f64
        }
    }

    /// The reduction factor baseline/variant (the paper's "factor of 10 or
    /// more"). Infinite when the variant is zero.
    pub fn reduction_factor(&self) -> f64 {
        if self.variant == 0 {
            if self.baseline == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.baseline as f64 / self.variant as f64
        }
    }
}

/// Normalize a `(baseline, variant)` pair.
pub fn normalized(baseline: u64, variant: u64) -> NormalizedSeries {
    NormalizedSeries { baseline, variant }
}

/// Percentage improvement of `new` over `old` for a lower-is-better metric
/// (run time): `(old - new) / old * 100`. The paper's "improvement of
/// approximately 25%" for CG uses this form.
pub fn percent_improvement(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    (old - new) / old * 100.0
}

/// Load-imbalance summary of a per-thread cycle distribution: the ratio
/// of the slowest thread to the mean. 1.0 is perfectly balanced; the
/// fork-join run time is set by the slowest thread, so imbalance directly
/// inflates the critical path.
pub fn imbalance(per_thread_cycles: &[u64]) -> f64 {
    if per_thread_cycles.is_empty() {
        return 1.0;
    }
    let max = *per_thread_cycles.iter().max().unwrap() as f64;
    let mean = per_thread_cycles.iter().sum::<u64>() as f64 / per_thread_cycles.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// Parallel speedup of `time_n` relative to `time_1`.
pub fn speedup(time_1: f64, time_n: f64) -> f64 {
    if time_n == 0.0 {
        return 0.0;
    }
    time_1 / time_n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_basics() {
        let n = normalized(1000, 100);
        assert!((n.normalized_variant() - 0.1).abs() < 1e-12);
        assert!((n.reduction_factor() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_edge_cases() {
        assert_eq!(normalized(0, 0).normalized_variant(), 0.0);
        assert_eq!(normalized(0, 5).normalized_variant(), f64::INFINITY);
        assert_eq!(normalized(5, 0).reduction_factor(), f64::INFINITY);
        assert_eq!(normalized(0, 0).reduction_factor(), 1.0);
    }

    #[test]
    fn percent_improvement_form() {
        // 100s → 75s is a 25% improvement (the paper's CG number).
        assert!((percent_improvement(100.0, 75.0) - 25.0).abs() < 1e-12);
        assert_eq!(percent_improvement(0.0, 10.0), 0.0);
        // Regressions are negative.
        assert!(percent_improvement(100.0, 110.0) < 0.0);
    }

    #[test]
    fn imbalance_measures_skew() {
        assert!((imbalance(&[100, 100, 100, 100]) - 1.0).abs() < 1e-12);
        assert!((imbalance(&[200, 100, 100, 100]) - 1.6).abs() < 1e-12);
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
    }

    #[test]
    fn speedup_form() {
        assert!((speedup(100.0, 25.0) - 4.0).abs() < 1e-12);
        assert_eq!(speedup(100.0, 0.0), 0.0);
    }
}
