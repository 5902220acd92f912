//! Loop schedules — OpenMP's `schedule(static|dynamic|guided)` clause.
//!
//! The paper's workloads are classic `#pragma omp parallel for` loops
//! (§3.1); how iterations map to threads decides which pages each thread
//! touches and therefore its TLB behaviour. [`plan`] computes the chunk
//! sequence deterministically, which both engines consume: the native
//! engine hands chunks to real threads (using an atomic counter for true
//! dynamic self-scheduling), while the simulated engine replays the plan
//! with clock-ordered chunk claiming.

use std::ops::Range;

/// An OpenMP-style loop schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Contiguous near-equal blocks, one per thread (OpenMP default).
    Static,
    /// Round-robin chunks of the given size (`schedule(static, n)`).
    StaticChunk(usize),
    /// Self-scheduled chunks of the given size (`schedule(dynamic, n)`).
    Dynamic(usize),
    /// Exponentially shrinking chunks with the given minimum
    /// (`schedule(guided, n)`).
    Guided(usize),
    /// Topology-aware work stealing: each thread starts from the static
    /// contiguous partition it would own under [`Schedule::Static`]
    /// (preserving first-touch page affinity), cut into chunks of the
    /// given size and held in a per-thread deque. Idle threads steal —
    /// preferring victims on their own NUMA node, falling back to remote
    /// nodes with larger batches — under a deterministic simulated-time
    /// order (see the runtime engine).
    Hierarchical {
        /// Chunk granularity of the per-thread deques.
        chunk: usize,
    },
}

/// The precomputed chunk structure of one parallel loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Plan {
    /// `per_thread[t]` is the fixed chunk list of thread `t`.
    Fixed(Vec<Vec<Range<usize>>>),
    /// A shared queue of chunks claimed in order (dynamic/guided).
    Queue(Vec<Range<usize>>),
    /// `per_thread[t]` is the *initial* deque of thread `t`
    /// (hierarchical work stealing); chunks may migrate between threads
    /// at run time, unlike [`Plan::Fixed`].
    Hier(Vec<Vec<Range<usize>>>),
}

impl Plan {
    /// Total iterations covered by the plan.
    #[cfg(test)]
    pub(crate) fn total_iterations(&self) -> usize {
        match self {
            Plan::Fixed(per) | Plan::Hier(per) => per.iter().flatten().map(|r| r.len()).sum(),
            Plan::Queue(q) => q.iter().map(|r| r.len()).sum(),
        }
    }

    /// Every chunk in the plan, in an arbitrary order.
    pub fn chunks(&self) -> Vec<Range<usize>> {
        match self {
            Plan::Fixed(per) | Plan::Hier(per) => per.iter().flatten().cloned().collect(),
            Plan::Queue(q) => q.clone(),
        }
    }
}

/// Compute the chunk plan for `range` across `threads` threads.
pub fn plan(range: Range<usize>, threads: usize, schedule: Schedule) -> Plan {
    assert!(threads > 0, "a team needs at least one thread");
    let n = range.len();
    match schedule {
        Schedule::Static => {
            // First `rem` threads get one extra iteration, like libgomp.
            let base = n / threads;
            let rem = n % threads;
            let mut start = range.start;
            let per = (0..threads)
                .map(|t| {
                    let len = base + usize::from(t < rem);
                    let r = start..start + len;
                    start += len;
                    if r.is_empty() {
                        vec![]
                    } else {
                        vec![r]
                    }
                })
                .collect();
            Plan::Fixed(per)
        }
        Schedule::StaticChunk(chunk) => {
            let chunk = chunk.max(1);
            let mut per = vec![Vec::new(); threads];
            let mut start = range.start;
            let mut t = 0;
            while start < range.end {
                let end = (start + chunk).min(range.end);
                per[t].push(start..end);
                start = end;
                t = (t + 1) % threads;
            }
            Plan::Fixed(per)
        }
        Schedule::Dynamic(chunk) => {
            let chunk = chunk.max(1);
            let mut q = Vec::with_capacity(n / chunk + 1);
            let mut start = range.start;
            while start < range.end {
                let end = (start + chunk).min(range.end);
                q.push(start..end);
                start = end;
            }
            Plan::Queue(q)
        }
        Schedule::Guided(min_chunk) => {
            let min_chunk = min_chunk.max(1);
            let mut q = Vec::new();
            let mut start = range.start;
            while start < range.end {
                let remaining = range.end - start;
                // libgomp-style: remaining / threads, floored at min_chunk.
                let len = (remaining / threads).max(min_chunk).min(remaining);
                q.push(start..start + len);
                start += len;
            }
            Plan::Queue(q)
        }
        Schedule::Hierarchical { chunk } => {
            let chunk = chunk.max(1);
            // Same contiguous partition as Static (so first-touch homes
            // line up with each deque's owner), then cut into chunks.
            let base = n / threads;
            let rem = n % threads;
            let mut start = range.start;
            let per = (0..threads)
                .map(|t| {
                    let len = base + usize::from(t < rem);
                    let end = start + len;
                    let mut deque = Vec::with_capacity(len / chunk + 1);
                    while start < end {
                        let cend = (start + chunk).min(end);
                        deque.push(start..cend);
                        start = cend;
                    }
                    deque
                })
                .collect();
            Plan::Hier(per)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers_exactly(p: &Plan, range: Range<usize>) {
        let mut cover = vec![0u32; range.end];
        for c in p.chunks() {
            for i in c {
                cover[i] += 1;
            }
        }
        for i in range.clone() {
            assert_eq!(cover[i], 1, "iteration {i} covered {} times", cover[i]);
        }
        assert_eq!(p.total_iterations(), range.len());
    }

    #[test]
    fn static_split_is_contiguous_and_balanced() {
        let p = plan(0..10, 3, Schedule::Static);
        covers_exactly(&p, 0..10);
        let Plan::Fixed(per) = &p else { panic!() };
        assert_eq!(per[0], vec![0..4]);
        assert_eq!(per[1], vec![4..7]);
        assert_eq!(per[2], vec![7..10]);
    }

    #[test]
    fn static_with_more_threads_than_iterations() {
        let p = plan(0..2, 4, Schedule::Static);
        covers_exactly(&p, 0..2);
        let Plan::Fixed(per) = &p else { panic!() };
        assert!(per[2].is_empty() && per[3].is_empty());
    }

    #[test]
    fn static_chunk_round_robin() {
        let p = plan(0..10, 2, Schedule::StaticChunk(3));
        covers_exactly(&p, 0..10);
        let Plan::Fixed(per) = &p else { panic!() };
        assert_eq!(per[0], vec![0..3, 6..9]);
        assert_eq!(per[1], vec![3..6, 9..10]);
    }

    #[test]
    fn dynamic_queue_chunks() {
        let p = plan(0..10, 4, Schedule::Dynamic(4));
        covers_exactly(&p, 0..10);
        let Plan::Queue(q) = &p else { panic!() };
        assert_eq!(q, &vec![0..4, 4..8, 8..10]);
    }

    #[test]
    fn guided_chunks_shrink() {
        let p = plan(0..1000, 4, Schedule::Guided(10));
        covers_exactly(&p, 0..1000);
        let Plan::Queue(q) = &p else { panic!() };
        // First chunk is remaining/threads = 250; they shrink monotonically
        // until the floor.
        assert_eq!(q[0], 0..250);
        for w in q.windows(2) {
            assert!(w[1].len() <= w[0].len());
        }
        assert!(!q.last().unwrap().is_empty());
    }

    #[test]
    fn empty_range_everywhere() {
        for s in [
            Schedule::Static,
            Schedule::StaticChunk(4),
            Schedule::Dynamic(4),
            Schedule::Guided(4),
            Schedule::Hierarchical { chunk: 4 },
        ] {
            let p = plan(5..5, 3, s);
            assert_eq!(p.total_iterations(), 0);
        }
    }

    #[test]
    fn hierarchical_deques_mirror_the_static_partition() {
        let p = plan(0..10, 3, Schedule::Hierarchical { chunk: 2 });
        covers_exactly(&p, 0..10);
        let Plan::Hier(per) = &p else { panic!() };
        // Thread t's deque spans exactly its Static partition…
        assert_eq!(per[0], vec![0..2, 2..4]);
        assert_eq!(per[1], vec![4..6, 6..7]);
        assert_eq!(per[2], vec![7..9, 9..10]);
        // …so concatenating deques re-creates the Static split.
        let stat = plan(0..10, 3, Schedule::Static);
        let Plan::Fixed(sper) = &stat else { panic!() };
        for t in 0..3 {
            let lo = per[t].first().unwrap().start;
            let hi = per[t].last().unwrap().end;
            assert_eq!(lo..hi, sper[t][0]);
        }
    }

    #[test]
    fn hierarchical_zero_chunk_is_clamped() {
        let p = plan(0..4, 2, Schedule::Hierarchical { chunk: 0 });
        covers_exactly(&p, 0..4);
    }

    #[test]
    fn zero_chunk_is_clamped() {
        let p = plan(0..4, 2, Schedule::Dynamic(0));
        covers_exactly(&p, 0..4);
    }

    #[test]
    fn nonzero_range_start_respected() {
        let p = plan(100..110, 3, Schedule::Static);
        covers_exactly(&p, 100..110);
        for c in p.chunks() {
            assert!(c.start >= 100 && c.end <= 110);
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        plan(0..10, 0, Schedule::Static);
    }
}
