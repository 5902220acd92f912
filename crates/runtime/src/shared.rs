//! Shared arrays — the runtime's analogue of Omni's global-array
//! transformation.
//!
//! The Omni compiler rewrites every global array of an OpenMP program into
//! a pointer into a shared region (paper §3.3), so that all threads see a
//! single memory image and the runtime controls which pages back it. Here
//! that rewrite is a type: [`ShVec<T>`] couples a real Rust buffer (the
//! values the kernels actually compute with) to a *simulated virtual base
//! address* (where those bytes live in the simulated address space), so a
//! kernel's `x.get(ctx, i)` both returns the value and narrates the access
//! at the right address.
//!
//! Storage is `AtomicU64` with `Relaxed` ordering: on x86 these compile to
//! plain loads/stores, and they make the OpenMP contract ("threads write
//! disjoint elements between barriers; racy programs are wrong") free of
//! undefined behaviour at the Rust level. Synchronization between phases
//! is provided by the team barrier, which establishes the necessary
//! happens-before edges.

use lpomp_machine::MemoryCtx;
use lpomp_vm::VirtAddr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Element types storable in a [`ShVec`]: fixed 8-byte encodings.
pub trait Word: Copy {
    /// Encode to the stored representation.
    fn to_bits(self) -> u64;
    /// Decode from the stored representation.
    fn from_bits(bits: u64) -> Self;
}

impl Word for f64 {
    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl Word for u64 {
    #[inline]
    fn to_bits(self) -> u64 {
        self
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits
    }
}

impl Word for i64 {
    #[inline]
    fn to_bits(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits as i64
    }
}

impl Word for usize {
    #[inline]
    fn to_bits(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits as usize
    }
}

/// Bytes per element (all [`Word`] encodings are 8 bytes).
pub(crate) const ELEM_BYTES: u64 = 8;

/// A shared array living at a known simulated virtual address.
pub struct ShVec<T> {
    cells: Box<[AtomicU64]>,
    vbase: VirtAddr,
    _marker: std::marker::PhantomData<T>,
}

// Safety: all access goes through atomics.
unsafe impl<T: Send> Sync for ShVec<T> {}

impl<T: Word> ShVec<T> {
    /// A zero-initialised shared array of `len` elements whose simulated
    /// image starts at `vbase`.
    pub fn new(len: usize, vbase: VirtAddr) -> Self {
        Self::from_fn(len, vbase, |_| T::from_bits(0))
    }

    /// Build from an element function.
    pub fn from_fn(len: usize, vbase: VirtAddr, f: impl FnMut(usize) -> T) -> Self {
        let mut f = f;
        ShVec {
            cells: (0..len).map(|i| AtomicU64::new(f(i).to_bits())).collect(),
            vbase,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the array is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Simulated virtual base address.
    #[cfg(test)]
    pub(crate) fn vbase(&self) -> VirtAddr {
        self.vbase
    }

    /// Size of the simulated image in bytes.
    pub(crate) fn byte_len(&self) -> u64 {
        self.cells.len() as u64 * ELEM_BYTES
    }

    /// Simulated address of element `i`.
    #[inline]
    pub fn va(&self, i: usize) -> VirtAddr {
        self.vbase.add(i as u64 * ELEM_BYTES)
    }

    /// Instrumented load of element `i`.
    #[inline]
    pub fn get(&self, ctx: &mut dyn MemoryCtx, i: usize) -> T {
        ctx.read(self.va(i));
        self.get_raw(i)
    }

    /// Instrumented store to element `i`.
    #[inline]
    pub fn set(&self, ctx: &mut dyn MemoryCtx, i: usize, v: T) {
        ctx.write(self.va(i));
        self.set_raw(i, v);
    }

    /// Uninstrumented load (setup / verification code).
    #[inline]
    pub fn get_raw(&self, i: usize) -> T {
        T::from_bits(self.cells[i].load(Ordering::Relaxed))
    }

    /// Uninstrumented store (setup / verification code).
    #[inline]
    pub fn set_raw(&self, i: usize, v: T) {
        self.cells[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Uninstrumented copy of the contents into a `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.get_raw(i)).collect()
    }

    /// Fill every element with `v` (uninstrumented).
    pub fn fill_raw(&self, v: T) {
        for c in self.cells.iter() {
            c.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

impl ShVec<u64> {
    /// Atomic fetch-add on a `u64` element (uninstrumented). Commutative,
    /// so concurrent accumulation from many threads is deterministic in
    /// its final value — the OpenMP `atomic update` construct.
    pub fn fetch_add_raw(&self, i: usize, v: u64) -> u64 {
        self.cells[i].fetch_add(v, Ordering::Relaxed)
    }
}

impl<T: Word> std::fmt::Debug for ShVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShVec {{ len: {}, vbase: {}, bytes: {} }}",
            self.len(),
            self.vbase,
            self.byte_len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpomp_machine::NullCtx;

    #[test]
    fn word_roundtrips() {
        assert_eq!(f64::from_bits(Word::to_bits(3.25f64)), 3.25);
        assert_eq!(<f64 as Word>::from_bits((-0.5f64).to_bits()), -0.5);
        assert_eq!(<i64 as Word>::from_bits(Word::to_bits(-17i64)), -17);
        assert_eq!(<u64 as Word>::from_bits(Word::to_bits(u64::MAX)), u64::MAX);
        assert_eq!(<usize as Word>::from_bits(Word::to_bits(42usize)), 42);
    }

    #[test]
    fn addresses_are_contiguous_8_byte_slots() {
        let v: ShVec<f64> = ShVec::new(10, VirtAddr(0x1000));
        assert_eq!(v.va(0), VirtAddr(0x1000));
        assert_eq!(v.va(3), VirtAddr(0x1018));
        assert_eq!(v.byte_len(), 80);
    }

    #[test]
    fn get_set_through_ctx() {
        let v: ShVec<f64> = ShVec::new(4, VirtAddr(0x1000));
        let mut ctx = NullCtx::new(0);
        v.set(&mut ctx, 2, 9.5);
        assert_eq!(v.get(&mut ctx, 2), 9.5);
        assert_eq!(v.get_raw(2), 9.5);
        assert_eq!(v.get_raw(0), 0.0);
    }

    #[test]
    fn from_fn_and_to_vec() {
        let v: ShVec<u64> = ShVec::from_fn(5, VirtAddr(0), |i| (i * i) as u64);
        assert_eq!(v.to_vec(), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn fill_raw() {
        let v: ShVec<f64> = ShVec::new(3, VirtAddr(0));
        v.fill_raw(1.5);
        assert_eq!(v.to_vec(), vec![1.5, 1.5, 1.5]);
    }

    #[test]
    fn fetch_add_accumulates_atomically() {
        let v: ShVec<u64> = ShVec::new(1, VirtAddr(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        v.fetch_add_raw(0, 1);
                    }
                });
            }
        });
        assert_eq!(v.get_raw(0), 4000);
    }

    #[test]
    fn concurrent_disjoint_writes_are_safe() {
        let v: ShVec<u64> = ShVec::new(1000, VirtAddr(0));
        std::thread::scope(|s| {
            for t in 0..4usize {
                let v = &v;
                s.spawn(move || {
                    for i in (t..1000).step_by(4) {
                        v.set_raw(i, i as u64);
                    }
                });
            }
        });
        for i in 0..1000 {
            assert_eq!(v.get_raw(i), i as u64);
        }
    }
}
