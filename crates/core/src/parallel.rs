//! Work-stealing parallel execution of independent simulation runs.
//!
//! Every configuration in a sweep builds its own [`crate::run_sim`]
//! machine and address space, so runs share no mutable state and are
//! individually deterministic. That makes config-level parallelism free
//! of ordering hazards: workers pull the next un-run grid index from a
//! shared atomic counter (cheap work stealing — run times vary by an
//! order of magnitude across apps and thread counts, so static
//! partitioning would leave workers idle), and results are reassembled
//! in grid order afterwards. The output is therefore *byte-identical*
//! to a serial loop for any worker count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the worker count used by
/// [`default_workers`] (and thus by [`crate::SweepSpec::run`] and the
/// figure binaries). Values below 1 or unparsable are ignored.
pub(crate) const WORKERS_ENV: &str = "LPOMP_WORKERS";

/// The worker count to use when the caller expresses no preference:
/// `LPOMP_WORKERS` if set to a positive integer, else the host's
/// available parallelism.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var(WORKERS_ENV) {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => eprintln!("ignoring {WORKERS_ENV}={v:?}: expected a positive integer"),
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Map `f` over `items` on `workers` scoped threads, returning results
/// in input order (index-exact, as if mapped serially).
///
/// `f` receives `(index, &item)`. Scheduling is dynamic: each worker
/// repeatedly claims the lowest unclaimed index. A panic in `f`
/// propagates to the caller after the remaining workers drain.
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n.max(1));
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("parallel worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|o| o.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [1, 2, 8, 200] {
            let out = par_map(&items, workers, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_uneven_work_still_ordered() {
        // Make low indices slow so late indices finish first.
        let items: Vec<u64> = (0..32).collect();
        let out = par_map(&items, 4, |_, &x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, items);
    }
}
