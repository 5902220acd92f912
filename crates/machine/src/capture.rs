//! Stream-only reference capture for the analytic backend.
//!
//! A capture runs the kernel on a recording team (`Team::Capture` in
//! `lpomp-runtime`) instead of the cycle engine. Each logical thread runs
//! its static chunks on a host thread of its own through a [`CaptureCtx`],
//! which records every access into the thread's own [`ThreadRecorder`]
//! and advances the thread's own [`CodeWalker`] to regenerate the
//! instruction-fetch stream the simulating context would issue. No
//! machine, TLB, cache or clock runs underneath: under static schedules a
//! thread's access sequence is a property of the program, not of the
//! machine it is timed on. Every data access is still checked against
//! the address space's mappings and protections, and a bad one panics
//! naming the thread and the address, as [`crate::SimCtx`] does.
//!
//! The team owns one [`CaptureState`] per capture run and notifies it of
//! region and barrier boundaries between loops; `finish` folds everything
//! into a [`StreamProfile`].

use crate::ctx::{CodeWalker, MemoryCtx};
use lpomp_prof::reuse::{
    PhaseAggregator, StreamProfile, ThreadRecorder, MODE_LATENCY, MODE_PIPELINED, MODE_STREAM,
};
use lpomp_vm::{AccessKind, AddressSpace, VirtAddr, VmError};

/// Capture-run state held by a recording team: the process's address
/// space (its mappings, for the access checks), one recorder and one code
/// walker per logical thread, the engine's quantum and the phase
/// aggregator.
pub struct CaptureState {
    aspace: AddressSpace,
    recorders: Vec<ThreadRecorder>,
    walkers: Vec<CodeWalker>,
    quantum: usize,
    agg: PhaseAggregator,
}

impl CaptureState {
    /// New capture over `walkers.len()` threads: `walkers` are the
    /// engine's per-thread code walkers and `quantum` its iterations per
    /// body call, so fetches and reductions come out as in a cycle run.
    pub fn new(aspace: AddressSpace, walkers: Vec<CodeWalker>, quantum: usize) -> Self {
        let recorders = walkers.iter().map(|_| ThreadRecorder::new()).collect();
        CaptureState {
            aspace,
            recorders,
            walkers,
            quantum: quantum.max(1),
            agg: PhaseAggregator::new(),
        }
    }

    /// Number of logical threads.
    pub fn threads(&self) -> usize {
        self.recorders.len()
    }

    /// Iterations per body call.
    pub fn quantum(&self) -> usize {
        self.quantum
    }

    /// One recording context per logical thread, in thread order.
    pub fn ctxs(&mut self) -> Vec<CaptureCtx<'_>> {
        let aspace = &self.aspace;
        self.recorders
            .iter_mut()
            .zip(&mut self.walkers)
            .enumerate()
            .map(|(thread, (rec, walker))| CaptureCtx {
                aspace,
                rec,
                walker,
                thread,
                buf: Vec::with_capacity(8),
            })
            .collect()
    }

    /// A barrier synchronization closed the open episode.
    pub fn barrier(&mut self) {
        self.agg.flush(&mut self.recorders, true);
    }

    /// A region annotation opened.
    pub fn region_enter(&mut self, name: &str) {
        self.agg.region_enter(name, &mut self.recorders);
    }

    /// A region annotation closed.
    pub fn region_exit(&mut self) {
        self.agg.region_exit(&mut self.recorders);
    }

    /// Fold the capture into a profile.
    pub fn finish(mut self, app: &str, class: &str, checksum: f64) -> StreamProfile {
        self.agg.finish(&mut self.recorders, app, class, checksum)
    }
}

/// A [`MemoryCtx`] that checks each access against the mappings and
/// records the stream of one logical thread.
pub struct CaptureCtx<'a> {
    aspace: &'a AddressSpace,
    rec: &'a mut ThreadRecorder,
    walker: &'a mut CodeWalker,
    thread: usize,
    buf: Vec<VirtAddr>,
}

impl CaptureCtx<'_> {
    #[inline]
    fn data(&mut self, va: VirtAddr, kind: AccessKind, mode: usize) {
        let e = match self.aspace.find_vma(va) {
            Some(v) if v.flags.permits(kind) => None,
            Some(_) => Some(VmError::ProtectionViolation(va)),
            None => Some(VmError::NotMapped(va)),
        };
        if let Some(e) = e {
            panic!("thread {} at {va}: {e}", self.thread);
        }
        self.rec.data(va.0, kind == AccessKind::Write, mode);
    }
}

impl MemoryCtx for CaptureCtx<'_> {
    fn thread_id(&self) -> usize {
        self.thread
    }

    #[inline]
    fn read(&mut self, va: VirtAddr) {
        self.data(va, AccessKind::Read, MODE_LATENCY);
    }

    #[inline]
    fn write(&mut self, va: VirtAddr) {
        self.data(va, AccessKind::Write, MODE_LATENCY);
    }

    #[inline]
    fn read_streamed(&mut self, va: VirtAddr) {
        self.data(va, AccessKind::Read, MODE_STREAM);
    }

    #[inline]
    fn write_streamed(&mut self, va: VirtAddr) {
        self.data(va, AccessKind::Write, MODE_STREAM);
    }

    #[inline]
    fn read_pipelined(&mut self, va: VirtAddr) {
        self.data(va, AccessKind::Read, MODE_PIPELINED);
    }

    #[inline]
    fn write_pipelined(&mut self, va: VirtAddr) {
        self.data(va, AccessKind::Write, MODE_PIPELINED);
    }

    fn compute(&mut self, instructions: u64) {
        self.rec.compute(instructions);
        // The same walker state and calls the simulating context would
        // use, so these are the fetch addresses it would charge.
        self.walker.fetch_addrs(instructions, &mut self.buf);
        for &va in &self.buf {
            self.rec.ifetch(va.0);
        }
    }
}
