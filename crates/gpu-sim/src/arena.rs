//! The device memory plane: a size-bucketed buffer pool with RAII handles.
//!
//! The paper's pipelines are short chains of dense array primitives (scan,
//! gather/scatter, compaction) launched over and over — list-ranking rounds,
//! CC hooking passes, inlabel construction. A real GPU runtime amortizes
//! device allocations across launches (CUB's `DeviceAllocator`, cudf's
//! pool resource); heap-allocating fresh `Vec`s per launch instead pays
//! allocator traffic and page-fault churn on exactly the hot paths the
//! reproduction wants to time. [`DeviceArena`] closes that gap: freed
//! buffers return to a per-size-class free list and the next launch of the
//! same shape reuses them, so steady-state iterations allocate nothing.
//!
//! Three layers:
//!
//! * [`DeviceArena`] — the pool itself, owned by a [`Device`]. Buffers are
//!   raw byte blocks in power-of-two size classes (min 64 B), aligned to
//!   64 B so every primitive element type fits. Thread-safe: each class is
//!   a mutex-protected free list.
//! * [`ScratchGuard`] — an RAII handle over one raw block; returns the
//!   capacity to the pool on drop.
//! * [`ArenaVec<T>`] — a typed, fixed-length view over a guard that derefs
//!   to `&[T]` / `&mut [T]`; the pooled replacement for a scratch `Vec<T>`.
//!
//! Element types implement the [`ArenaPod`] marker: plain-old-data for
//! which any sequence of initialized bytes is a valid value (`u32`, `i64`,
//! tuples of such, ...). Blocks are born zeroed (`alloc_zeroed`) and only
//! ever rewritten through such types, so a reused block always contains
//! valid — if unspecified — values and an [`ArenaVec`] can hand out `&mut
//! [T]` without an initialization pass. The one wrinkle is padding:
//! writing a padded tuple type de-initializes its padding bytes, so such
//! types declare [`ArenaPod::MAY_PAD`] and taint their block, which is
//! re-zeroed on its next acquisition to restore the every-byte-initialized
//! invariant. Callers that need defined contents use
//! [`Device::alloc_filled`] or [`Device::alloc_pooled_map`].
//!
//! Reuse is observable: [`crate::Metrics::bytes_allocated`] counts bytes
//! fetched freshly from the system allocator and
//! [`crate::Metrics::bytes_reused`] counts bytes served from the pool, so
//! tests (and the `mem_sweep` experiment) can assert that steady-state
//! iterations allocate zero scratch bytes. Setting
//! [`crate::DeviceConfig::pooling`] to `false` turns the plane off — every
//! acquire hits the system allocator and every release frees — which is
//! the A/B baseline the benchmarks compare against.

use crate::device::Device;
use parking_lot::Mutex;
use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::marker::PhantomData;
use std::ptr::NonNull;

/// Alignment of every pooled block; covers all primitive element types and
/// keeps blocks cache-line aligned.
pub const ARENA_ALIGN: usize = 64;

/// Smallest size class, `1 << MIN_CLASS_SHIFT` bytes.
const MIN_CLASS_SHIFT: u32 = 6;
/// Number of power-of-two size classes (64 B .. 32 TiB — the top classes
/// exist so the index math never overflows, not because they get used).
const NUM_CLASSES: usize = 40;

/// Marker for plain-old-data element types the arena may store.
///
/// # Safety
/// Implementors must guarantee that **any** sequence of initialized bytes
/// of `size_of::<T>()` length is a valid `T` (no niches: no `bool`, no
/// references, no enums with invalid discriminants), and that `T` needs
/// alignment at most [`ARENA_ALIGN`]. Additionally, [`ArenaPod::MAY_PAD`]
/// must be `true` whenever the layout can contain padding bytes: writing
/// such a `T` de-initializes its padding, so the arena re-zeroes blocks
/// that ever held a padded type before recycling them as another type —
/// an under-approximating `MAY_PAD` would let uninitialized bytes leak
/// into a later `&[U]` view (undefined behavior).
pub unsafe trait ArenaPod: Copy + Send + Sync + 'static {
    /// Whether the layout may contain padding bytes. `false` promises the
    /// value representation covers every byte, keeping recycled blocks
    /// fully initialized with no re-zeroing.
    const MAY_PAD: bool;
}

macro_rules! impl_pod {
    ($($t:ty),*) => { $(
        // SAFETY: primitive numeric types admit every bit pattern and
        // have no padding.
        unsafe impl ArenaPod for $t {
            const MAY_PAD: bool = false;
        }
    )* };
}
impl_pod!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64);

// SAFETY: tuples of pod types contain only pod fields; inter-field and
// trailing padding is declared via MAY_PAD, so blocks that held padded
// tuples are re-zeroed before cross-type reuse.
unsafe impl<A: ArenaPod, B: ArenaPod> ArenaPod for (A, B) {
    const MAY_PAD: bool =
        A::MAY_PAD || B::MAY_PAD || size_of::<(A, B)>() != size_of::<A>() + size_of::<B>();
}
// SAFETY: as for pairs.
unsafe impl<A: ArenaPod, B: ArenaPod, C: ArenaPod> ArenaPod for (A, B, C) {
    const MAY_PAD: bool = A::MAY_PAD
        || B::MAY_PAD
        || C::MAY_PAD
        || size_of::<(A, B, C)>() != size_of::<A>() + size_of::<B>() + size_of::<C>();
}
// SAFETY: arrays of pod types are pod; stride equals element size, so an
// array adds no padding beyond its element's.
unsafe impl<A: ArenaPod, const N: usize> ArenaPod for [A; N] {
    const MAY_PAD: bool = A::MAY_PAD;
}

/// One pooled allocation: pointer plus its size class in bytes, plus
/// whether a padded element type ever wrote through it (in which case its
/// padding bytes may be uninitialized and the block must be re-zeroed
/// before the next reuse).
struct RawBlock {
    ptr: NonNull<u8>,
    bytes: usize,
    tainted: bool,
}

// SAFETY: a RawBlock is exclusively owned wherever it sits (free list or
// guard); transferring it between threads transfers that ownership.
unsafe impl Send for RawBlock {}

impl RawBlock {
    fn layout(bytes: usize) -> Layout {
        Layout::from_size_align(bytes, ARENA_ALIGN).expect("arena block layout")
    }

    /// Allocates a zeroed block of exactly `bytes` (a class size), or
    /// `None` when the system allocator refuses.
    fn try_alloc(bytes: usize) -> Option<Self> {
        debug_assert!(bytes.is_power_of_two() && bytes >= (1 << MIN_CLASS_SHIFT));
        let layout = Self::layout(bytes);
        // SAFETY: layout has non-zero size.
        let ptr = unsafe { alloc_zeroed(layout) };
        Some(Self {
            ptr: NonNull::new(ptr)?,
            bytes,
            tainted: false,
        })
    }

    /// Restores the fully-initialized invariant after a padded element
    /// type may have de-initialized padding bytes.
    fn rezero(&mut self) {
        // SAFETY: the block owns `bytes` writable bytes.
        unsafe { std::ptr::write_bytes(self.ptr.as_ptr(), 0, self.bytes) };
        self.tainted = false;
    }

    fn free(self) {
        // SAFETY: allocated by `alloc` with the identical layout.
        unsafe { dealloc(self.ptr.as_ptr(), Self::layout(self.bytes)) };
    }
}

/// Why a fallible arena acquisition did not produce a block: either the
/// device's fault plane refused it (see [`crate::fault`]) or the system
/// allocator did. Surfaced by [`Device::try_scratch`]; the infallible
/// wrappers turn it into a panic that carries the same message, so a
/// `catch_unwind` isolation layer (the `emg serve` batcher) can contain
/// either cause without the process dying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaError {
    /// The fault plane's seeded schedule refused this acquisition.
    Injected {
        /// The refused request size.
        bytes: usize,
    },
    /// The system allocator returned null for the block.
    Exhausted {
        /// The size class that could not be allocated.
        bytes: usize,
    },
}

impl std::fmt::Display for ArenaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArenaError::Injected { bytes } => write!(
                f,
                "{} refusing {bytes} bytes",
                crate::fault::INJECTED_ALLOC_FAIL
            ),
            ArenaError::Exhausted { bytes } => {
                write!(f, "device arena exhausted: {bytes}-byte class unavailable")
            }
        }
    }
}

impl std::error::Error for ArenaError {}

/// Rounds a byte request up to its size class. Zero-byte requests share the
/// smallest class index but never allocate (see [`DeviceArena::try_acquire`]).
fn class_of(bytes: usize) -> (usize, usize) {
    let rounded = bytes.next_power_of_two().max(1 << MIN_CLASS_SHIFT);
    let idx = (rounded.trailing_zeros() - MIN_CLASS_SHIFT) as usize;
    assert!(
        idx < NUM_CLASSES,
        "arena request of {bytes} bytes too large"
    );
    (idx, rounded)
}

/// The size-bucketed, thread-safe buffer pool owned by a [`Device`].
///
/// See the [module docs](self) for the design; normal code allocates
/// through the `Device` wrappers ([`Device::alloc_pooled`],
/// [`Device::alloc_filled`], [`Device::alloc_pooled_map`],
/// [`Device::scratch`]) so that reuse is recorded in the device metrics.
pub struct DeviceArena {
    buckets: [Mutex<Vec<RawBlock>>; NUM_CLASSES],
    pooling: bool,
}

impl std::fmt::Debug for DeviceArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceArena")
            .field("pooling", &self.pooling)
            .field("pooled_bytes", &self.pooled_bytes())
            .finish()
    }
}

impl DeviceArena {
    /// Creates an empty pool. With `pooling == false` the arena degrades to
    /// a plain allocator: acquires always hit the system allocator and
    /// releases free immediately (the benchmark baseline).
    pub(crate) fn new(pooling: bool) -> Self {
        Self {
            buckets: std::array::from_fn(|_| Mutex::new(Vec::new())),
            pooling,
        }
    }

    /// Whether buffers are pooled (true unless the device was configured
    /// with [`crate::DeviceConfig::pooling`] `== false`).
    pub fn pooling(&self) -> bool {
        self.pooling
    }

    /// Acquires a block of at least `bytes`; returns the guard and whether
    /// the block was served from the pool (`true`) or freshly allocated. A
    /// refused system allocation surfaces as [`ArenaError::Exhausted`]
    /// rather than aborting; the primitives thread this path through
    /// [`Device::try_scratch`], where the fault plane can also inject
    /// failures.
    fn try_acquire(&self, bytes: usize) -> Result<(ScratchGuard<'_>, bool), ArenaError> {
        if bytes == 0 {
            return Ok((
                ScratchGuard {
                    arena: self,
                    block: None,
                    planes: None,
                },
                false,
            ));
        }
        let (idx, rounded) = class_of(bytes);
        let recycled = if self.pooling {
            self.buckets[idx].lock().pop()
        } else {
            None
        };
        let reused = recycled.is_some();
        let mut block = match recycled {
            Some(b) => b,
            None => RawBlock::try_alloc(rounded).ok_or(ArenaError::Exhausted { bytes: rounded })?,
        };
        if block.tainted {
            // A padded element type wrote through this block: its padding
            // bytes may be uninitialized. Re-zero so every byte handed out
            // is initialized again (the module invariant).
            block.rezero();
        }
        debug_assert_eq!(block.bytes, rounded);
        Ok((
            ScratchGuard {
                arena: self,
                block: Some(block),
                planes: None,
            },
            reused,
        ))
    }

    /// Returns a block to its free list (or frees it when pooling is off).
    fn release(&self, block: RawBlock) {
        if !self.pooling {
            block.free();
            return;
        }
        let (idx, rounded) = class_of(block.bytes);
        debug_assert_eq!(rounded, block.bytes);
        self.buckets[idx].lock().push(block);
    }

    /// Total bytes currently cached in free lists (not handed out).
    pub fn pooled_bytes(&self) -> usize {
        self.buckets
            .iter()
            .map(|b| b.lock().iter().map(|blk| blk.bytes).sum::<usize>())
            .sum()
    }

    /// Frees every cached block, returning the pool to empty. Outstanding
    /// guards are unaffected; their blocks re-enter the pool on drop.
    pub fn trim(&self) {
        for bucket in &self.buckets {
            let blocks = std::mem::take(&mut *bucket.lock());
            for b in blocks {
                b.free();
            }
        }
    }
}

impl Drop for DeviceArena {
    fn drop(&mut self) {
        self.trim();
    }
}

/// RAII handle over one pooled raw block; the capacity returns to the pool
/// when the guard drops. Obtained from [`Device::scratch`].
pub struct ScratchGuard<'a> {
    arena: &'a DeviceArena,
    block: Option<RawBlock>,
    /// The owning device, set when its sanitizer or capture is on:
    /// returning the block unregisters its initcheck shadow and retires
    /// the regions it backed, so a recycled block gets a fresh shadow and
    /// fresh region ids (pooling never aliases).
    planes: Option<&'a Device>,
}

// SAFETY: a guard exclusively owns its block; moving the guard moves that
// ownership, and a shared `&ScratchGuard` exposes no mutation.
unsafe impl Send for ScratchGuard<'_> {}
// SAFETY: as above — shared references only read the block metadata.
unsafe impl Sync for ScratchGuard<'_> {}

impl<'a> ScratchGuard<'a> {
    /// Usable capacity in bytes (the size class, ≥ the requested size).
    pub fn capacity(&self) -> usize {
        self.block.as_ref().map_or(0, |b| b.bytes)
    }

    /// Base pointer of the block (dangling-but-aligned for empty guards).
    fn base(&self) -> *mut u8 {
        match &self.block {
            Some(b) => b.ptr.as_ptr(),
            None => std::ptr::without_provenance_mut(ARENA_ALIGN),
        }
    }

    /// Typed view: the first `len` elements of the block.
    ///
    /// Sound for any [`ArenaPod`] `T` because blocks are born zeroed,
    /// padded element types taint their block for re-zeroing on reuse
    /// (see [`ArenaPod::MAY_PAD`]), and any initialized bit pattern is a
    /// valid `T`.
    fn typed<T: ArenaPod>(mut self, len: usize) -> ArenaVec<'a, T> {
        debug_assert!(len.checked_mul(size_of::<T>()).unwrap() <= self.capacity() || len == 0);
        const {
            assert!(align_of::<T>() <= ARENA_ALIGN, "element over-aligned");
        }
        if T::MAY_PAD {
            if let Some(block) = &mut self.block {
                block.tainted = true;
            }
        }
        ArenaVec {
            guard: self,
            len,
            _marker: PhantomData,
        }
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        if let Some(block) = self.block.take() {
            if let Some(dev) = self.planes {
                dev.planes_release(block.ptr.as_ptr() as usize);
            }
            self.arena.release(block);
        }
    }
}

/// A typed, fixed-length pooled buffer: the drop-in replacement for a
/// scratch `Vec<T>`. Derefs to `&[T]` / `&mut [T]`; contents are valid but
/// **unspecified** at birth unless allocated through [`Device::alloc_filled`]
/// or [`Device::alloc_pooled_map`]. The capacity returns to the device pool
/// on drop.
pub struct ArenaVec<'a, T: ArenaPod> {
    guard: ScratchGuard<'a>,
    len: usize,
    _marker: PhantomData<T>,
}

// SAFETY: semantically a `Vec<T>` — exclusive ownership of the buffer;
// `T: ArenaPod` implies `T: Send + Sync`.
unsafe impl<T: ArenaPod> Send for ArenaVec<'_, T> {}
// SAFETY: `&ArenaVec<T>` only permits `&[T]` access.
unsafe impl<T: ArenaPod> Sync for ArenaVec<'_, T> {}

impl<T: ArenaPod> std::ops::Deref for ArenaVec<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: the block holds ≥ len initialized pod elements (module
        // invariant: blocks are zeroed at birth, written only as pods).
        unsafe { std::slice::from_raw_parts(self.guard.base().cast::<T>(), self.len) }
    }
}

impl<T: ArenaPod> std::ops::DerefMut for ArenaVec<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: as for Deref; the guard is exclusively owned.
        unsafe { std::slice::from_raw_parts_mut(self.guard.base().cast::<T>(), self.len) }
    }
}

impl<T: ArenaPod> AsRef<[T]> for ArenaVec<'_, T> {
    fn as_ref(&self) -> &[T] {
        self
    }
}

impl<T: ArenaPod + std::fmt::Debug> std::fmt::Debug for ArenaVec<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: ArenaPod> ArenaVec<'_, T> {
    /// Number of elements.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Shortens the view to `new_len` elements (no effect on capacity).
    ///
    /// # Panics
    /// Panics if `new_len > len`.
    pub fn truncate(&mut self, new_len: usize) {
        assert!(new_len <= self.len, "ArenaVec::truncate beyond length");
        self.len = new_len;
    }

    /// Copies the contents into a plain `Vec` (for results that must
    /// outlive the device borrow).
    pub fn to_vec(&self) -> Vec<T> {
        self.as_ref().to_vec()
    }
}

impl Device {
    /// The device's buffer pool.
    pub fn arena(&self) -> &DeviceArena {
        self.arena_ref()
    }

    /// Acquires raw pooled scratch of at least `bytes`, recording the
    /// acquisition in the device metrics (`bytes_allocated` for fresh
    /// blocks, `bytes_reused` for pool hits).
    ///
    /// Under initcheck ([`crate::SanitizeMode`]) the block — fresh *or*
    /// recycled — is registered with an all-uninitialized shadow bitmap:
    /// reading stale contents of a reused block through a tracked view is
    /// exactly as much a finding as reading a fresh allocation.
    pub fn scratch(&self, bytes: usize) -> ScratchGuard<'_> {
        // An injected or genuine failure surfaces as a panic carrying the
        // ArenaError message, so an isolation layer (`catch_unwind` in the
        // serve batcher) can contain it; before the fallible path existed
        // a refused system allocation aborted the process instead.
        self.try_scratch(bytes)
            .unwrap_or_else(|e| panic!("device scratch of {bytes} bytes failed: {e}"))
    }

    /// The fallible twin of [`Device::scratch`]: every allocating
    /// primitive routes through here, so both injected allocation faults
    /// ([`crate::fault`], [`ArenaError::Injected`]) and a refusing system
    /// allocator ([`ArenaError::Exhausted`]) surface as values on this
    /// path — and as marked panics on the infallible wrappers above it.
    ///
    /// # Errors
    /// `ArenaError::Injected` when the device's fault plane refuses this
    /// acquisition, `ArenaError::Exhausted` when the allocator does.
    pub fn try_scratch(&self, bytes: usize) -> Result<ScratchGuard<'_>, ArenaError> {
        if bytes > 0 && self.fault_alloc() {
            return Err(ArenaError::Injected { bytes });
        }
        let (mut guard, reused) = self.arena_ref().try_acquire(bytes)?;
        self.metrics().record_arena(guard.capacity() as u64, reused);
        if guard.capacity() > 0 && self.planes_acquire(guard.base() as usize, guard.capacity()) {
            guard.planes = Some(self);
        }
        Ok(guard)
    }

    /// Allocates a pooled buffer of `len` elements with valid but
    /// **unspecified** contents — for outputs every slot of which the next
    /// kernel overwrites. Use [`Device::alloc_filled`] when initial values
    /// matter.
    pub fn alloc_pooled<T: ArenaPod>(&self, len: usize) -> ArenaVec<'_, T> {
        let bytes = len
            .checked_mul(size_of::<T>())
            .expect("arena allocation overflows");
        self.scratch(bytes).typed(len)
    }

    /// Allocates a pooled buffer of `len` copies of `value` (a broadcast
    /// kernel over a fresh pooled buffer).
    pub fn alloc_filled<T: ArenaPod>(&self, len: usize, value: T) -> ArenaVec<'_, T> {
        let mut v = self.alloc_pooled(len);
        self.fill(&mut v, value);
        v
    }

    /// Fused allocation + map: a pooled buffer with `out[i] = f(i)`, one
    /// kernel launch, no initialization pass.
    pub fn alloc_pooled_map<T: ArenaPod, F>(&self, len: usize, f: F) -> ArenaVec<'_, T>
    where
        F: Fn(usize) -> T + Sync,
    {
        let mut v = self.alloc_pooled(len);
        self.map(&mut v, f);
        v
    }

    /// Pooled copy of a slice (a device-to-device memcpy).
    pub fn alloc_copied<T: ArenaPod>(&self, src: &[T]) -> ArenaVec<'_, T> {
        let mut v = self.alloc_pooled(src.len());
        v.copy_from_slice(src);
        self.san_mark_written(&v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceConfig;

    #[test]
    fn injected_alloc_failures_surface_on_the_fallible_path() {
        let device = Device::with_config(DeviceConfig {
            faults: "alloc_fail:after=0".parse().unwrap(),
            ..Default::default()
        });
        // Every acquisition is refused: the fallible path returns the
        // injected error...
        assert!(matches!(
            device.try_scratch(64),
            Err(ArenaError::Injected { bytes: 64 })
        ));
        // ...and the infallible wrapper panics carrying the marker, so an
        // isolation layer can contain it.
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = device.scratch(64);
        }))
        .unwrap_err();
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(crate::fault::INJECTED_ALLOC_FAIL), "{msg:?}");
        // Zero-byte acquisitions never allocate, so they never fault.
        assert!(device.try_scratch(0).is_ok());
        // Paused, the same device allocates normally.
        let _quiet = device.pause_faults();
        assert!(device.try_scratch(64).is_ok());
        assert!(device.metrics().snapshot().faults_injected >= 2);
    }

    #[test]
    fn class_rounding() {
        assert_eq!(class_of(1), (0, 64));
        assert_eq!(class_of(64), (0, 64));
        assert_eq!(class_of(65), (1, 128));
        assert_eq!(class_of(4096), (6, 4096));
    }

    #[test]
    fn reuse_hits_the_pool() {
        let device = Device::new();
        let before = device.metrics().snapshot();
        {
            let _a = device.alloc_pooled::<u64>(10_000);
        }
        let mid = device.metrics().snapshot().since(&before);
        assert!(mid.bytes_allocated >= 80_000);
        assert_eq!(mid.bytes_reused, 0);
        {
            let _b = device.alloc_pooled::<u64>(10_000);
        }
        let after = device.metrics().snapshot().since(&before);
        assert_eq!(
            after.bytes_allocated, mid.bytes_allocated,
            "second acquisition must not allocate"
        );
        assert_eq!(after.bytes_reused, mid.bytes_allocated);
    }

    #[test]
    fn different_types_share_classes() {
        let device = Device::new();
        {
            let _a = device.alloc_pooled::<u64>(1000);
        }
        let before = device.metrics().snapshot();
        {
            // Same byte size, different element type: must reuse.
            let _b = device.alloc_pooled::<u32>(2000);
        }
        let d = device.metrics().snapshot().since(&before);
        assert_eq!(d.bytes_allocated, 0);
        assert!(d.bytes_reused > 0);
    }

    #[test]
    fn filled_and_map_contents() {
        let device = Device::new();
        let f = device.alloc_filled(5000, 7u32);
        assert!(f.iter().all(|&x| x == 7));
        drop(f);
        // The reused block held 7s; the map must fully overwrite.
        let m = device.alloc_pooled_map(5000, |i| i as u32);
        for (i, &v) in m.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
        let c = device.alloc_copied(&[3u32, 1, 4]);
        assert_eq!(&*c, &[3, 1, 4]);
    }

    #[test]
    fn padded_tuples_taint_and_rezero_on_reuse() {
        // (u32, u64) has 4 interior padding bytes: writing it may leave
        // those bytes uninitialized, so the block must come back zeroed.
        const {
            assert!(<(u32, u64)>::MAY_PAD);
            assert!(!<(u32, u32)>::MAY_PAD);
        }
        let device = Device::new();
        let n = 1000;
        {
            let mut padded = device.alloc_pooled::<(u32, u64)>(n);
            for (i, slot) in padded.iter_mut().enumerate() {
                *slot = (i as u32, u64::MAX);
            }
        }
        // Same size class, different type: the recycled block must be
        // re-zeroed, not expose the tuple bytes.
        let reused = device.alloc_pooled::<u32>(4 * n);
        assert!(
            reused.iter().all(|&b| b == 0),
            "tainted block must be re-zeroed before cross-type reuse"
        );
        // Unpadded recycling keeps contents (and skips the zeroing).
        {
            let _unpadded = device.alloc_filled(4 * n, 7u32);
        }
        let reused = device.alloc_pooled::<u32>(4 * n);
        assert!(reused.iter().all(|&b| b == 7));
    }

    #[test]
    fn zero_len_never_allocates() {
        let device = Device::new();
        let before = device.metrics().snapshot();
        let v = device.alloc_pooled::<u64>(0);
        assert_eq!(v.len(), 0);
        assert!(v.is_empty());
        let d = device.metrics().snapshot().since(&before);
        assert_eq!(d.bytes_allocated + d.bytes_reused, 0);
    }

    #[test]
    fn trim_empties_the_pool() {
        let device = Device::new();
        {
            let _a = device.alloc_pooled::<u8>(1 << 20);
        }
        assert!(device.arena().pooled_bytes() >= 1 << 20);
        device.arena().trim();
        assert_eq!(device.arena().pooled_bytes(), 0);
    }

    #[test]
    fn pooling_off_always_allocates_fresh() {
        let device = Device::with_config(DeviceConfig {
            pooling: false,
            ..Default::default()
        });
        assert!(!device.arena().pooling());
        for _ in 0..3 {
            let _a = device.alloc_pooled::<u64>(4096);
        }
        assert_eq!(device.arena().pooled_bytes(), 0);
        let s = device.metrics().snapshot();
        assert_eq!(s.bytes_reused, 0);
        assert!(s.bytes_allocated >= 3 * 4096 * 8);
    }

    #[test]
    fn truncate_shortens_view() {
        let device = Device::new();
        let mut v = device.alloc_pooled_map(100, |i| i as u32);
        v.truncate(10);
        assert_eq!(v.len(), 10);
        assert_eq!(v[9], 9);
    }

    #[test]
    #[should_panic(expected = "truncate beyond length")]
    fn truncate_rejects_growth() {
        let device = Device::new();
        let mut v = device.alloc_pooled::<u32>(4);
        v.truncate(5);
    }

    #[test]
    fn concurrent_acquires_are_safe() {
        let device = Device::new();
        // Warm the pool, then hammer it from several host threads at once.
        for _ in 0..4 {
            let _ = device.alloc_pooled::<u64>(10_000);
        }
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let device = &device;
                s.spawn(move || {
                    for round in 0..50 {
                        let v = device.alloc_filled(3_000, t * 1000 + round);
                        assert!(v.iter().all(|&x| x == t * 1000 + round));
                    }
                });
            }
        });
    }
}
