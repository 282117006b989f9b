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
}
