//! Atomic views over plain integer slices.
//!
//! CUDA kernels freely issue `atomicMin`/`atomicCAS` on global-memory arrays
//! that other kernels read as plain integers. Rust separates `u32` from
//! `AtomicU32`; these helpers provide the CUDA-style view: given exclusive
//! access to a `&mut [u32]`, hand out a `&[AtomicU32]` alias that many
//! threads may hammer concurrently. Exclusivity of the original borrow makes
//! the cast sound (no non-atomic access can overlap the atomic ones).
//!
//! Two layers:
//!
//! * [`as_atomic_u32`] / [`as_atomic_u64`] — the raw reinterpreting casts.
//! * [`AtomicViewU32`] / [`AtomicViewU64`] — **tracked** views obtained
//!   from [`Device::atomic_u32`] / [`Device::atomic_u64`]: with the
//!   [sanitizer](crate::sanitize) enabled every operation is
//!   bounds-checked, recorded for racecheck, and initialization-checked;
//!   [`AtomicViewU32::benign`] is the call-site whitelist for deliberate
//!   hooking/last-writer races. With the sanitizer and capture off the
//!   view is a zero-shadow wrapper over the raw cast.

use crate::device::{Device, Probe};
use crate::sanitize::AccessKind;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Reinterprets an exclusive `u32` slice as a shared slice of atomics.
///
/// Soundness: `AtomicU32` is guaranteed to have the same size and bit
/// validity as `u32`, and the `&mut` borrow guarantees no other live
/// non-atomic reference exists for the lifetime of the returned slice.
///
/// ```
/// # use gpu_sim::as_atomic_u32;
/// # use std::sync::atomic::Ordering;
/// let mut data = vec![1u32, 2, 3];
/// let view = as_atomic_u32(&mut data);
/// view[1].fetch_add(40, Ordering::Relaxed);
/// assert_eq!(data[1], 42);
/// ```
pub fn as_atomic_u32(slice: &mut [u32]) -> &[AtomicU32] {
    const _: () = assert!(std::mem::size_of::<u32>() == std::mem::size_of::<AtomicU32>());
    const _: () = assert!(std::mem::align_of::<u32>() == std::mem::align_of::<AtomicU32>());
    // SAFETY: same layout, and the &mut borrow forbids concurrent non-atomic
    // access for the lifetime of the returned shared slice.
    unsafe { &*(slice as *mut [u32] as *const [AtomicU32]) }
}

/// Reinterprets an exclusive `u64` slice as a shared slice of atomics.
///
/// See [`as_atomic_u32`] for the soundness argument.
pub fn as_atomic_u64(slice: &mut [u64]) -> &[AtomicU64] {
    const _: () = assert!(std::mem::size_of::<u64>() == std::mem::size_of::<AtomicU64>());
    const _: () = assert!(std::mem::align_of::<u64>() == std::mem::align_of::<AtomicU64>());
    // SAFETY: as above.
    unsafe { &*(slice as *mut [u64] as *const [AtomicU64]) }
}

/// `atomicMin` on a `u32` cell (relaxed ordering, CUDA-style).
#[inline]
pub fn atomic_min_u32(cell: &AtomicU32, value: u32) {
    let mut cur = cell.load(Ordering::Relaxed);
    while value < cur {
        match cell.compare_exchange_weak(cur, value, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

/// `atomicMax` on a `u32` cell (relaxed ordering, CUDA-style).
#[inline]
pub fn atomic_max_u32(cell: &AtomicU32, value: u32) {
    let mut cur = cell.load(Ordering::Relaxed);
    while value > cur {
        match cell.compare_exchange_weak(cur, value, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

macro_rules! atomic_view {
    ($name:ident, $cell:ty, $elem:ty, $ctor:ident, $cast:ident) => {
        /// A tracked CUDA-style atomic view over an exclusive integer
        /// slice, from the same-named [`Device`] constructor. All
        /// operations use relaxed ordering (the CUDA global-memory
        /// model this simulator targets).
        pub struct $name<'a> {
            cells: &'a [$cell],
            probe: Option<Probe<'a>>,
        }

        impl<'a> $name<'a> {
            /// An untracked view (no plane probe), for host-side code
            /// without a device at hand.
            pub fn untracked(slice: &'a mut [$elem]) -> Self {
                Self {
                    cells: $ctor(slice),
                    probe: None,
                }
            }

            /// Number of cells.
            pub fn len(&self) -> usize {
                self.cells.len()
            }

            /// Whether the view is empty.
            pub fn is_empty(&self) -> bool {
                self.cells.is_empty()
            }

            /// Annotates the view as a **benign race**: cross-block
            /// conflicts through it (hooking CASes, last-writer stores,
            /// slot-claiming fetch_adds) are intentional and the
            /// racecheck must not flag them. The reason documents the
            /// benignity argument at the call site.
            pub fn benign(mut self, reason: &'static str) -> Self {
                if let Some(p) = &mut self.probe {
                    p.benign(reason);
                }
                self
            }

            /// Per-operation plane hook; returns `false` when the access
            /// is out of bounds and must be skipped (non-fatal memcheck).
            #[inline]
            fn pre(&self, index: usize, kind: AccessKind) -> bool {
                self.probe
                    .as_ref()
                    .is_none_or(|p| p.access(index, self.cells.len(), size_of::<$elem>(), kind))
            }

            /// Atomic load of cell `index`.
            #[inline]
            pub fn load(&self, index: usize) -> $elem {
                if !self.pre(index, AccessKind::AtomicLoad) {
                    return 0;
                }
                self.cells[index].load(Ordering::Relaxed)
            }

            /// Atomic store to cell `index`.
            #[inline]
            pub fn store(&self, index: usize, value: $elem) {
                if !self.pre(index, AccessKind::AtomicStore) {
                    return;
                }
                self.cells[index].store(value, Ordering::Relaxed);
            }

            /// Atomic fetch-add on cell `index`, returning the prior value.
            #[inline]
            pub fn fetch_add(&self, index: usize, value: $elem) -> $elem {
                if !self.pre(index, AccessKind::AtomicRmw) {
                    return 0;
                }
                self.cells[index].fetch_add(value, Ordering::Relaxed)
            }

            /// `atomicMin` on cell `index`, returning the prior value.
            #[inline]
            pub fn fetch_min(&self, index: usize, value: $elem) -> $elem {
                if !self.pre(index, AccessKind::AtomicRmw) {
                    return 0;
                }
                self.cells[index].fetch_min(value, Ordering::Relaxed)
            }

            /// `atomicMax` on cell `index`, returning the prior value.
            #[inline]
            pub fn fetch_max(&self, index: usize, value: $elem) -> $elem {
                if !self.pre(index, AccessKind::AtomicRmw) {
                    return 0;
                }
                self.cells[index].fetch_max(value, Ordering::Relaxed)
            }

            /// `atomicCAS` on cell `index`.
            #[inline]
            pub fn compare_exchange(
                &self,
                index: usize,
                current: $elem,
                new: $elem,
            ) -> Result<$elem, $elem> {
                if !self.pre(index, AccessKind::AtomicRmw) {
                    return Err(0);
                }
                self.cells[index].compare_exchange(
                    current,
                    new,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
            }

            /// Weak `atomicCAS` on cell `index` (may fail spuriously; for
            /// retry loops).
            #[inline]
            pub fn compare_exchange_weak(
                &self,
                index: usize,
                current: $elem,
                new: $elem,
            ) -> Result<$elem, $elem> {
                if !self.pre(index, AccessKind::AtomicRmw) {
                    return Err(0);
                }
                self.cells[index].compare_exchange_weak(
                    current,
                    new,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
            }
        }

        impl Device {
            /// Wraps an exclusive slice in a tracked atomic view (see
            /// [`crate::sanitize`]); the CUDA-style replacement for
            #[doc = concat!("[`", stringify!($ctor), "`] in kernel code.")]
            pub fn $cast<'a>(&'a self, slice: &'a mut [$elem]) -> $name<'a> {
                $name {
                    probe: self.probe(&*slice),
                    cells: $ctor(slice),
                }
            }
        }
    };
}

atomic_view!(AtomicViewU32, AtomicU32, u32, as_atomic_u32, atomic_u32);
atomic_view!(AtomicViewU64, AtomicU64, u64, as_atomic_u64, atomic_u64);

/// A shareable `f64` accumulator built on `AtomicU64` bit casts.
///
/// Used by benchmark harnesses to accumulate timings from parallel regions;
/// not meant for high-contention inner loops.
#[derive(Debug, Default)]
pub struct AtomicF64Cell(AtomicU64);

impl AtomicF64Cell {
    /// Creates a cell holding `value`.
    pub fn new(value: f64) -> Self {
        Self(AtomicU64::new(value.to_bits()))
    }

    /// Reads the current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Adds `delta` with a CAS loop.
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn atomic_view_roundtrips() {
        let mut data = vec![0u32; 8];
        {
            let view = as_atomic_u32(&mut data);
            view[3].store(7, Ordering::Relaxed);
        }
        assert_eq!(data[3], 7);
    }

    #[test]
    fn atomic_view_u64_roundtrips() {
        let mut data = vec![0u64; 4];
        {
            let view = as_atomic_u64(&mut data);
            view[0].store(u64::MAX, Ordering::Relaxed);
        }
        assert_eq!(data[0], u64::MAX);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let mut data = vec![0u32; 1];
        let view = as_atomic_u32(&mut data);
        (0..10_000).into_par_iter().for_each(|_| {
            view[0].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(data[0], 10_000);
    }

    #[test]
    fn atomic_min_max_converge() {
        let mut lo = vec![u32::MAX; 1];
        let mut hi = vec![0u32; 1];
        let lo_view = as_atomic_u32(&mut lo);
        let hi_view = as_atomic_u32(&mut hi);
        (0..5_000u32).into_par_iter().for_each(|i| {
            atomic_min_u32(&lo_view[0], i);
            atomic_max_u32(&hi_view[0], i);
        });
        assert_eq!(lo[0], 0);
        assert_eq!(hi[0], 4_999);
    }

    #[test]
    fn atomic_min_no_op_when_larger() {
        let mut v = vec![5u32];
        let view = as_atomic_u32(&mut v);
        atomic_min_u32(&view[0], 9);
        assert_eq!(v[0], 5);
    }

    #[test]
    fn f64_cell_accumulates_in_parallel() {
        let cell = AtomicF64Cell::new(0.0);
        (0..1000).into_par_iter().for_each(|_| cell.add(0.5));
        assert!((cell.get() - 500.0).abs() < 1e-9);
    }
}
