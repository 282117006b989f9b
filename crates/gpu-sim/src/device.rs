//! The simulated device: bulk-synchronous kernel launches over virtual
//! thread grids, executed on a rayon thread pool.
//!
//! A kernel launch (`for_each`, `map`, ...) corresponds to a CUDA kernel
//! followed by a device-wide synchronization: all virtual threads of one
//! launch complete before the call returns, and writes become visible to the
//! next launch. Virtual threads are grouped into *blocks* ([`DeviceConfig::
//! block_size`]) which are the unit of scheduling on the worker pool —
//! mirroring how thread blocks map onto streaming multiprocessors.
//!
//! Scheduling works like a grid draining over SMs: the grid core behind
//! `for_each` and `map` spawns one claimer task per pool worker, and each
//! claimer repeatedly grabs the next unprocessed block index from an
//! **atomic block-claim counter** until the grid is exhausted. Block
//! decomposition depends only on [`DeviceConfig::block_size`], never on the
//! worker count, so kernel output is bit-identical across pool widths (which
//! block a worker claims varies; what gets computed for each index does
//! not).
//!
//! Every launch — `for_each`, `map`, and the hand-scheduled phases of the
//! scan, compaction and reduce primitives — crosses one seam: an RAII
//! launch guard opened by `Device::launch`. Opening it counts the launch in
//! [`Metrics`], runs the [fault plane](crate::fault)'s hook before any other
//! plane opens (so an injected panic unwinds past a clean device), then
//! opens the [capture](crate::launch_graph) node and the
//! [sanitizer](crate::sanitize) launch; dropping it closes both, also when a
//! kernel panics. Tracked views ([`Device::shared`], [`Device::atomic_u32`])
//! carry one plane probe that notes each access for capture and runs the
//! sanitizer's memcheck / initcheck / racecheck hook against the virtual
//! block the grid core tagged; the launch barrier analyzes the racecheck
//! log for unannotated cross-block races.

use crate::arena::{ArenaPod, DeviceArena};
use crate::fault::{FaultConfig, FaultPause, FaultPlane};
use crate::launch_graph::{Cap, CaptureMode, LaunchGraph, Recorder, ACC_READ, ACC_WRITE};
use crate::metrics::Metrics;
use crate::sanitize::{AccessKind, Finding, SanitizeMode, Sanitizer, Track};
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicU16, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Tuning knobs for a [`Device`].
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Worker threads in the pool. `None` uses rayon's global pool
    /// (one worker per logical CPU).
    pub threads: Option<usize>,
    /// Virtual threads per block — the scheduling granularity. Large enough
    /// to amortize work-stealing overhead, small enough to load-balance.
    pub block_size: usize,
    /// Kernels with at most this many virtual threads run inline on the
    /// calling thread; models the fact that tiny grids do not fill a GPU
    /// and launch overhead dominates.
    pub seq_threshold: usize,
    /// Whether the device pools scratch buffers in its [`DeviceArena`]
    /// (the default). `false` degrades every pooled allocation to a plain
    /// malloc/free pair — the A/B baseline the `mem_sweep` experiment
    /// compares against.
    pub pooling: bool,
    /// Which sanitizer checks run (defaults to the `EMG_SANITIZE`
    /// environment variable, [`SanitizeMode::Off`] when unset). See
    /// [`crate::sanitize`].
    pub sanitize: SanitizeMode,
    /// Whether a sanitizer finding aborts with a panic (the default) or is
    /// recorded for [`Device::take_findings`] — the latter is what the
    /// seeded-violation tests use to assert detection.
    pub sanitize_fatal: bool,
    /// Whether the device records its launch graph (defaults to the
    /// `EMG_CAPTURE` environment variable, [`CaptureMode::Off`] when
    /// unset). See [`crate::launch_graph`].
    pub capture: CaptureMode,
    /// Deterministic fault-injection spec (defaults to the `EMG_FAULT`
    /// environment variable, no faults when unset). See [`crate::fault`].
    pub faults: FaultConfig,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            threads: None,
            block_size: 4096,
            seq_threshold: 2048,
            pooling: true,
            sanitize: SanitizeMode::from_env(),
            sanitize_fatal: true,
            capture: CaptureMode::from_env(),
            faults: FaultConfig::from_env(),
        }
    }
}

/// A simulated GPU device.
///
/// Cheap to share by reference; all kernel entry points take `&self`.
/// Primitives (scan, reduce, segmented reduce, compaction) are
/// implemented in sibling modules as inherent methods on `Device`.
pub struct Device {
    pool: Option<rayon::ThreadPool>,
    cfg: DeviceConfig,
    metrics: Metrics,
    arena: DeviceArena,
    san: Option<Box<Sanitizer>>,
    rec: Option<Box<Recorder>>,
    flt: Option<Box<FaultPlane>>,
}

/// A shareable, snapshot-scoped handle to a pooled [`Device`].
///
/// Long-lived services (the `emg serve` daemon) pin one device — and with
/// it one scratch arena, one metrics block, and one sanitizer/capture
/// state — to each immutable data snapshot, and share that device across
/// the snapshot's worker and bookkeeping threads. `Device` is `Send +
/// Sync` (asserted at compile time below): all kernel entry points take
/// `&self` and every piece of interior state is atomic or lock-guarded,
/// so an `Arc<Device>` is all a snapshot needs. Dropping the last handle
/// releases the arena's cached capacity with it.
pub type DeviceHandle = std::sync::Arc<Device>;

// The handle contract: a device can be owned by a snapshot and used from
// any of its threads. A field change that breaks `Send`/`Sync` must fail
// loudly here, not at a distant `Arc` call site in a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Device>();
};

impl Default for Device {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("cfg", &self.cfg)
            .field("metrics", &self.metrics.snapshot())
            .finish()
    }
}

impl Device {
    /// Creates a device using the default configuration and the global pool.
    pub fn new() -> Self {
        Self::with_config(DeviceConfig::default())
    }

    /// Moves the device into a snapshot-scoped shared handle
    /// ([`DeviceHandle`]); see the type's docs for the sharing contract.
    pub fn into_handle(self) -> DeviceHandle {
        std::sync::Arc::new(self)
    }

    /// Creates a device with an explicit configuration.
    ///
    /// # Panics
    /// Panics if a dedicated pool of `cfg.threads` workers cannot be built,
    /// or if `cfg.block_size` is zero.
    pub fn with_config(cfg: DeviceConfig) -> Self {
        assert!(cfg.block_size > 0, "block_size must be positive");
        let pool = cfg.threads.map(|t| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("failed to build device thread pool")
        });
        let arena = DeviceArena::new(cfg.pooling);
        let san = (cfg.sanitize != SanitizeMode::Off)
            .then(|| Box::new(Sanitizer::new(cfg.sanitize, cfg.sanitize_fatal)));
        let rec = (cfg.capture == CaptureMode::On).then(|| Box::new(Recorder::new()));
        let flt = (!cfg.faults.is_empty()).then(|| Box::new(FaultPlane::new(cfg.faults.clone())));
        Self {
            pool,
            cfg,
            metrics: Metrics::new(),
            arena,
            san,
            rec,
            flt,
        }
    }

    /// Internal arena access for the wrappers in [`crate::arena`].
    pub(crate) fn arena_ref(&self) -> &DeviceArena {
        &self.arena
    }

    /// Registers a freshly acquired arena block with the planes that track
    /// blocks: the sanitizer's initcheck shadow and capture's region
    /// retirement. Returns whether a plane is on, i.e. whether the block's
    /// release must be reported through [`Device::planes_release`].
    pub(crate) fn planes_acquire(&self, base: usize, bytes: usize) -> bool {
        if let Some(san) = &self.san {
            san.register_shadow(base, bytes);
        }
        if let Some(rec) = &self.rec {
            rec.arena_acquire(base, bytes);
        }
        self.san.is_some() || self.rec.is_some()
    }

    /// The release half of [`Device::planes_acquire`].
    pub(crate) fn planes_release(&self, base: usize) {
        if let Some(san) = &self.san {
            san.unregister_shadow(base);
        }
        if let Some(rec) = &self.rec {
            rec.arena_release(base);
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Instrumentation counters for this device.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The active sanitize mode ([`SanitizeMode::Off`] unless configured).
    pub fn sanitize_mode(&self) -> SanitizeMode {
        self.cfg.sanitize
    }

    /// Drains the findings a non-fatal sanitizer retained (empty when the
    /// sanitizer is off, fatal, or found nothing).
    pub fn take_findings(&self) -> Vec<Finding> {
        self.san
            .as_deref()
            .map(Sanitizer::take_findings)
            .unwrap_or_default()
    }

    /// The active capture mode ([`CaptureMode::Off`] unless configured).
    pub fn capture_mode(&self) -> CaptureMode {
        self.cfg.capture
    }

    /// The launch graph captured so far (`None` with capture off). A
    /// snapshot: the device keeps recording, so call this after the
    /// pipeline of interest ran on a fresh device.
    pub fn launch_graph(&self) -> Option<LaunchGraph> {
        self.rec.as_deref().map(Recorder::graph)
    }

    /// Annotates a read the capture cannot see (a closure-captured input
    /// of a fused primitive, a host-side consumption of a device result).
    /// The access attaches to the **next** launch, or to a trailing host
    /// node if none follows. No-op with capture off.
    pub fn capture_read<T>(&self, slice: &[T]) {
        if let Some(rec) = &self.rec {
            rec.annotate(
                slice.as_ptr() as usize,
                slice.len(),
                size_of::<T>(),
                std::any::type_name::<T>(),
                ACC_READ,
            );
        }
    }

    /// Records a host-side read of `slice` happening **now** (a result
    /// copied out or inspected between launches) as part of a host node —
    /// unlike [`Device::capture_read`], which defers to the next launch.
    /// Host reads keep live-out results from looking like dead writes.
    /// No-op with capture off.
    pub fn capture_host_read<T>(&self, slice: &[T]) {
        if let Some(rec) = &self.rec {
            rec.note(rec.region_for(slice), ACC_READ);
        }
    }

    /// Annotates a write the capture cannot see; attaches like
    /// [`Device::capture_read`]. No-op with capture off.
    pub fn capture_write<T>(&self, slice: &[T]) {
        if let Some(rec) = &self.rec {
            rec.annotate(
                slice.as_ptr() as usize,
                slice.len(),
                size_of::<T>(),
                std::any::type_name::<T>(),
                ACC_WRITE,
            );
        }
    }

    /// Declares `slice` as a **freshly allocated** buffer. The capture
    /// plane identifies plain heap buffers by base pointer, so when the
    /// allocator hands a new `Vec` the base of a freed one with the same
    /// shape, the old region would silently continue — and *which* freed
    /// base gets recycled depends on pool width and allocator state.
    /// Calling this right after allocating an output buffer retires any
    /// stale region at that base and opens a new one at a deterministic
    /// program point, keeping captured graphs byte-identical across pool
    /// widths. Arena buffers do this automatically. No-op with capture
    /// off.
    pub fn capture_fresh<T>(&self, slice: &[T]) {
        if let Some(rec) = &self.rec {
            rec.mark_fresh(
                slice.as_ptr() as usize,
                slice.len(),
                size_of::<T>(),
                std::any::type_name::<T>(),
            );
        }
    }

    /// Names the region backing `slice` so captured graphs read
    /// `tour_next` instead of `r7:u32[4998]`. No-op with capture off.
    pub fn capture_name<T>(&self, slice: &[T], name: &str) {
        if let Some(rec) = &self.rec {
            rec.name_region(
                slice.as_ptr() as usize,
                slice.len(),
                size_of::<T>(),
                std::any::type_name::<T>(),
                name,
            );
        }
    }

    /// Opens a scope whose launches are recorded **without** their launch
    /// barrier — modeling stream-ordered (async) launches. The simulated
    /// device still synchronizes; only the captured graph changes, which
    /// is how the seeded-violation tests make the hazard pass fire. Ends
    /// when the guard drops.
    pub fn capture_unordered(&self) -> CaptureScope<'_> {
        let scope = self.cap_scope("");
        if let Some(rec) = &self.rec {
            rec.scope_no_barrier();
        }
        scope
    }

    /// Opens a primitive capture scope: launches issued while it is open
    /// inherit `label` and the declared accesses.
    pub(crate) fn cap_scope(&self, label: &str) -> CaptureScope<'_> {
        let rec = self.rec.as_deref();
        if let Some(r) = rec {
            r.push_scope(label);
        }
        CaptureScope { rec }
    }

    /// Opens an unlabeled scope for a bare launch's own declarations —
    /// unless a primitive scope is already open, whose declarations the
    /// launch then inherits instead (a primitive's intermediates stay out
    /// of the graph).
    fn cap_bare_scope(&self) -> CaptureScope<'_> {
        CaptureScope {
            rec: self.rec.as_deref().filter(|r| r.push_bare_scope()),
        }
    }

    /// Re-declares the pending next-launch annotations — the closure-side
    /// inputs of a generator — on every launch of the open primitive scope.
    /// For primitives that evaluate their generator in more than one
    /// launch (the two-pass scan, the parallel compaction), whose later
    /// launches read those inputs again.
    pub(crate) fn cap_pending_to_scope(&self) {
        if let Some(rec) = &self.rec {
            rec.pending_to_scope();
        }
    }

    /// Attributes a write of `slice` to the launch that just ran — for
    /// primitives whose output buffer is allocated internally.
    pub(crate) fn cap_note_output<T>(&self, slice: &[T]) {
        if let Some(rec) = &self.rec {
            rec.attribute_last(
                slice.as_ptr() as usize,
                slice.len(),
                size_of::<T>(),
                std::any::type_name::<T>(),
                ACC_WRITE,
            );
        }
    }

    /// Pushes a kernel label for subsequent launches; the label is attached
    /// to sanitizer findings (so a violation names the algorithm phase, not
    /// just a launch sequence number) and to captured launch-graph nodes.
    /// Pops on drop; no-op with both the sanitizer and capture off.
    ///
    /// ```
    /// # let device = gpu_sim::Device::new();
    /// let _k = device.kernel_label("cc.hook");
    /// device.for_each(10, |_| {});
    /// ```
    pub fn kernel_label(&self, label: &str) -> KernelLabel<'_> {
        if let Some(san) = &self.san {
            san.push_label(label);
        }
        if let Some(rec) = &self.rec {
            rec.push_label(label);
        }
        KernelLabel { dev: self }
    }

    /// Number of physical worker threads backing the device.
    pub fn worker_threads(&self) -> usize {
        match &self.pool {
            Some(p) => p.current_num_threads(),
            None => rayon::current_num_threads(),
        }
    }

    /// Chunk length for chunk-per-block primitives (scan, reduce,
    /// compact): at least one [`DeviceConfig::block_size`], and at
    /// most ~4 chunks per pool worker, so the sequential middle phases
    /// (block-offset scans) stay negligible while every real worker has
    /// blocks to claim.
    pub(crate) fn grid_chunk_len(&self, n: usize) -> usize {
        usize::max(
            self.config().block_size,
            n.div_ceil(4 * self.worker_threads().max(1)),
        )
    }

    /// Number of blocks the chunk-per-block primitives would launch over
    /// `n` elements — the grid geometry. Exposed so downstream algorithms
    /// (e.g. Wei–JáJá sublist selection) can match their decomposition to
    /// the device's.
    pub fn grid_blocks(&self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            n.div_ceil(self.grid_chunk_len(n))
        }
    }

    /// Opens one kernel launch of `work` virtual threads — the seam every
    /// launch crosses, kernel or hand-scheduled primitive phase alike. In
    /// order: counts the launch in [`Metrics`]; runs the fault plane's
    /// hook ([`crate::fault`]), which spends any injected delay and may
    /// panic, *before* any other plane opens, so an injected panic unwinds
    /// past a clean device; then opens the capture node and the sanitizer
    /// launch. The returned guard closes both when it drops.
    pub(crate) fn launch(&self, work: usize) -> LaunchGuard<'_> {
        self.metrics.record_launch(work as u64);
        if let Some(flt) = &self.flt {
            flt.on_launch(&self.metrics);
        }
        if let Some(rec) = &self.rec {
            rec.begin_launch(work as u64);
        }
        LaunchGuard {
            dev: self,
            san: self.san.as_deref().map(|san| (san, san.begin_launch())),
        }
    }

    /// The fault plane's allocation hook: `true` when the seeded schedule
    /// refuses this arena acquisition.
    pub(crate) fn fault_alloc(&self) -> bool {
        self.flt
            .as_deref()
            .is_some_and(|flt| flt.on_alloc(&self.metrics))
    }

    /// Suspends fault injection until the returned guard drops (no-op
    /// without a fault plane). Phases that must not fail — snapshot
    /// preprocessing in the query server, test fixtures — run under this
    /// guard; paused launches and allocations do not advance the fault
    /// counters, so the post-pause schedule is independent of how much
    /// work the pause covered.
    pub fn pause_faults(&self) -> FaultPause<'_> {
        if let Some(flt) = self.flt.as_deref() {
            flt.pause();
            FaultPause { plane: Some(flt) }
        } else {
            FaultPause { plane: None }
        }
    }

    /// The active fault config (the default empty config unless set).
    pub fn fault_config(&self) -> FaultConfig {
        self.flt
            .as_deref()
            .map(|flt| flt.config().clone())
            .unwrap_or_default()
    }

    /// Runs `op` with the device's worker pool pinned as the current pool
    /// (parallel iterators inside `op` execute on it); with no dedicated
    /// pool, `op` runs directly and parallel iterators use the global pool.
    pub fn run<R: Send>(&self, op: impl FnOnce() -> R + Send) -> R {
        match &self.pool {
            Some(p) => p.install(op),
            None => op(),
        }
    }

    /// The one grid core behind [`Device::for_each`] and [`Device::map`]:
    /// opens a launch of `n` virtual threads and runs `block` over the
    /// index range of every virtual block. Grids up to
    /// [`DeviceConfig::seq_threshold`] (or of one block, or on a
    /// one-worker pool) run inline on the calling thread; larger ones
    /// drain over the pool through an atomic block-claim counter, one
    /// claimer task per worker. Either way each block first tags its
    /// thread with its *virtual* block, so sanitizer attribution is the
    /// same on every path and at every pool width. Returns once every
    /// block ran (the launch barrier).
    fn grid<F>(&self, n: usize, block: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let launch = self.launch(n);
        let bs = self.cfg.block_size;
        let blocks = n.div_ceil(bs);
        let run_block = |b: usize| {
            launch.set_block(b);
            block(b * bs..usize::min(b * bs + bs, n));
        };
        let workers = if n <= self.cfg.seq_threshold {
            1
        } else {
            self.worker_threads()
        };
        if workers <= 1 || blocks <= 1 {
            (0..blocks).for_each(run_block);
            return;
        }
        let next = AtomicUsize::new(0);
        let claim = || loop {
            let b = next.fetch_add(1, Ordering::Relaxed);
            if b >= blocks {
                return;
            }
            run_block(b);
        };
        self.run(|| {
            rayon::scope(|s| {
                for _ in 0..usize::min(workers, blocks) {
                    s.spawn(|_| claim());
                }
            })
        });
    }

    /// Launches a side-effect kernel over `n` virtual threads.
    ///
    /// `f(i)` is invoked exactly once for every `i in 0..n`, potentially in
    /// parallel; the call returns only after every virtual thread finished
    /// (bulk-synchronous semantics). Shared mutable state must go through
    /// atomics (see [`crate::atomic`]) or [`Device::shared`] views.
    pub fn for_each<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        // A plain loop: with `range.for_each(&f)` instead, the tour
        // statistics (`TreeStats::compute`) measured ~30% slower.
        self.grid(n, |range| {
            for i in range {
                f(i);
            }
        });
    }

    /// Launches a map kernel: `out[i] = f(i)` for every element of `out`.
    pub fn map<T, F>(&self, out: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        // A bare map is a data-plane write to `out`.
        let _cap = self.cap_bare_scope().write(&*out);
        let shared = SharedSlice::new(out);
        self.grid(shared.len(), |range| {
            // SAFETY: blocks own disjoint index ranges, so carving one
            // exclusive sub-slice per block upholds the SharedSlice
            // contract; assigning through `&mut` (rather than raw writes)
            // preserves drop semantics of the overwritten values.
            let chunk = unsafe {
                std::slice::from_raw_parts_mut(shared.as_ptr().add(range.start), range.len())
            };
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = f(range.start + j);
            }
        });
        self.san_mark_written(out);
    }

    /// Allocates a fresh buffer of length `n` filled by a map kernel.
    pub fn alloc_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send + Default + Clone,
        F: Fn(usize) -> T + Sync,
    {
        let mut out = vec![T::default(); n];
        // The buffer is new even if its base recycles a freed Vec's.
        self.capture_fresh(&out[..]);
        self.map(&mut out, f);
        out
    }

    /// Fills `out` with copies of `value` (a broadcast kernel).
    pub fn fill<T>(&self, out: &mut [T], value: T)
    where
        T: Send + Sync + Clone,
    {
        // Default label so bare fills (alloc_filled and friends) never show
        // up as anonymous `kernel#N` nodes in captured graphs; a caller's
        // kernel-label scope still prefixes it.
        let _cap = self.cap_scope("fill").write(&*out);
        let v = &value;
        self.map(out, move |_| v.clone());
    }

    /// Marks a buffer the device just fully (re)wrote as initialized in
    /// the initcheck shadow, if it lives in a registered arena block.
    /// Called by the whole-buffer producers: `map` (hence `fill`,
    /// `gather_pooled`, `alloc_filled`, `alloc_pooled_map`), `alloc_copied`, and
    /// the `_into` primitives.
    #[inline]
    pub(crate) fn san_mark_written<T>(&self, out: &[T]) {
        if let Some(san) = &self.san {
            san.mark_initialized(out.as_ptr() as usize, std::mem::size_of_val(out));
        }
    }

    /// Builds the sanitizer's tracking context for `slice`, when the
    /// sanitizer is on.
    fn san_track_for<T>(&self, slice: &[T]) -> Option<Track<'_>> {
        let san = self.san.as_deref()?;
        let bytes = std::mem::size_of_val(slice);
        let desc = format!(
            "{}[{}]",
            std::any::type_name::<T>()
                .rsplit("::")
                .next()
                .unwrap_or("?"),
            slice.len()
        );
        let region = san.register_region(desc);
        let shadow = san.find_shadow(slice.as_ptr() as usize, bytes);
        Some(Track {
            san,
            metrics: &self.metrics,
            region,
            shadow,
            benign: None,
        })
    }

    /// Builds the plane probe a tracked view over `slice` carries: `None`
    /// with the sanitizer and capture both off, so an access then costs
    /// one branch.
    pub(crate) fn probe<T>(&self, slice: &[T]) -> Option<Probe<'_>> {
        if self.san.is_none() && self.rec.is_none() {
            return None;
        }
        Some(Probe {
            track: self.san_track_for(slice),
            cap: self.rec.as_deref().map(|rec| Cap {
                rec,
                region: rec.region_for(slice),
                benign: false,
            }),
        })
    }

    /// Wraps an exclusive slice in a **tracked** [`SharedSlice`]: with the
    /// sanitizer on, every [`SharedSlice::read`]/[`SharedSlice::write`]
    /// through the view is bounds-checked, race-recorded, and
    /// initialization-checked; with capture on, it is noted against the
    /// running launch. With both off this is [`SharedSlice::new`] (a
    /// branch per access and nothing else).
    pub fn shared<'a, T: ArenaPod>(&'a self, slice: &'a mut [T]) -> SharedSlice<'a, T> {
        SharedSlice {
            probe: self.probe(slice),
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Gather kernel into a pooled output buffer (zero allocation at
    /// steady state): returns `out` with `out[i] = src[idx[i]]`.
    ///
    /// # Panics
    /// Panics if an index is out of bounds (a memcheck [`Finding`] with
    /// kernel label and element index when the sanitizer is on).
    pub fn gather_pooled<T>(&self, idx: &[u32], src: &[T]) -> crate::arena::ArenaVec<'_, T>
    where
        T: crate::arena::ArenaPod,
    {
        self.metrics.record_primitive();
        let n = idx.len() as u64;
        self.metrics.record_traffic(
            n * (size_of::<u32>() as u64 + size_of::<T>() as u64),
            n * size_of::<T>() as u64,
        );
        let out = {
            // The output block is only known after allocation, so the scope
            // declares the reads and the write is attributed afterwards.
            let _cap = self.cap_scope("gather").read(idx).read(src);
            if self.san_check_gather(idx, src.len()) {
                let last = src.len() - 1;
                self.alloc_pooled_map(idx.len(), |i| src[usize::min(idx[i] as usize, last)])
            } else {
                self.alloc_pooled_map(idx.len(), |i| src[idx[i] as usize])
            }
        };
        self.cap_note_output(&out[..]);
        out
    }

    /// Memcheck pre-pass over gather indices. Returns `true` when a
    /// non-fatal sanitizer found violations and the caller should clamp
    /// (fatal sanitizers panic inside; without memcheck the plain slice
    /// panic stays the backstop).
    fn san_check_gather(&self, idx: &[u32], src_len: usize) -> bool {
        let Some(san) = self.san.as_deref() else {
            return false;
        };
        if !san.mode().memcheck() {
            return false;
        }
        let mut bad = false;
        for &ix in idx {
            if ix as usize >= src_len {
                if !bad {
                    // Register the source region lazily, on first offense.
                    if let Some(t) = self.san_track_for(idx) {
                        t.san.report_oob(
                            t.metrics,
                            t.region,
                            ix as usize,
                            src_len,
                            AccessKind::Read,
                        );
                    }
                }
                bad = true;
            }
        }
        bad && src_len > 0
    }
}

/// RAII guard over a capture scope: launches issued while it is open
/// inherit its label and declared accesses. Public only as the return
/// type of [`Device::capture_unordered`]; the declaration builders are
/// crate-internal (primitives declare their own I/O).
pub struct CaptureScope<'a> {
    rec: Option<&'a Recorder>,
}

impl CaptureScope<'_> {
    /// Declares a read of `slice` on the scope.
    pub(crate) fn read<T>(self, slice: &[T]) -> Self {
        self.acc(slice, ACC_READ)
    }

    /// Declares a write of `slice` on the scope.
    pub(crate) fn write<T>(self, slice: &[T]) -> Self {
        self.acc(slice, ACC_WRITE)
    }

    /// Marks the scope's launches as produced by a fused primitive.
    pub(crate) fn fused(self) -> Self {
        if let Some(rec) = self.rec {
            rec.scope_fused();
        }
        self
    }

    fn acc<T>(self, slice: &[T], mask: u8) -> Self {
        if let Some(rec) = self.rec {
            rec.scope_access(
                slice.as_ptr() as usize,
                slice.len(),
                size_of::<T>(),
                std::any::type_name::<T>(),
                mask,
            );
        }
        self
    }
}

impl Drop for CaptureScope<'_> {
    fn drop(&mut self) {
        if let Some(rec) = self.rec {
            rec.pop_scope();
        }
    }
}

/// RAII guard for a kernel label pushed via [`Device::kernel_label`].
pub struct KernelLabel<'a> {
    dev: &'a Device,
}

impl Drop for KernelLabel<'_> {
    fn drop(&mut self) {
        if let Some(san) = &self.dev.san {
            san.pop_label();
        }
        if let Some(rec) = &self.dev.rec {
            rec.pop_label();
        }
    }
}

/// RAII guard over one open kernel launch, from `Device::launch`.
pub(crate) struct LaunchGuard<'a> {
    dev: &'a Device,
    /// The sanitizer and this launch's id in it, when the sanitizer is on.
    san: Option<(&'a Sanitizer, u64)>,
}

impl LaunchGuard<'_> {
    /// Tags the calling thread as running virtual `block` of this launch.
    #[inline]
    fn set_block(&self, block: usize) {
        if let Some((san, id)) = self.san {
            san.set_block(id, block as u32);
        }
    }
}

impl Drop for LaunchGuard<'_> {
    /// The launch barrier: closes the capture node, then the sanitizer
    /// launch. A launch unwinding from a panic inside its kernel has a
    /// partial racecheck log, so the log is discarded instead of analyzed
    /// (a fatal finding would otherwise panic again mid-unwind); either
    /// way later accesses attribute to `host`, not to the dead launch.
    fn drop(&mut self) {
        if let Some(rec) = &self.dev.rec {
            rec.end_launch();
        }
        if let Some((san, id)) = self.san {
            san.end_launch(id, &self.dev.metrics, !std::thread::panicking());
        }
    }
}

/// The plane probe a tracked view carries (see [`Device::shared`]): the
/// sanitizer's tracking context and the capture's, built together by
/// `Device::probe` when either plane is on.
pub(crate) struct Probe<'a> {
    track: Option<Track<'a>>,
    cap: Option<Cap<'a>>,
}

impl Probe<'_> {
    /// Notes one access for capture and runs the sanitizer's per-access
    /// hook. Returns `false` when a non-fatal memcheck found `index` out
    /// of bounds and the access must be skipped.
    #[inline]
    pub(crate) fn access(
        &self,
        index: usize,
        len: usize,
        elem_bytes: usize,
        kind: AccessKind,
    ) -> bool {
        if let Some(c) = &self.cap {
            c.note(kind);
        }
        self.track
            .as_ref()
            .is_none_or(|t| t.access(index, len, elem_bytes, kind))
    }

    /// Marks the view's races as benign for both planes.
    pub(crate) fn benign(&mut self, reason: &'static str) {
        if let Some(t) = &mut self.track {
            t.benign = Some(reason);
        }
        if let Some(c) = &mut self.cap {
            c.benign = true;
        }
    }
}

/// An unsynchronized shared view over a mutable slice, for permutation
/// scatters (`out[perm[i]] = v_i` with all `perm[i]` distinct) and the
/// deliberate last-writer-wins stores of the paper's algorithms.
///
/// CUDA programs do this with plain global-memory writes. Here the safe
/// [`SharedSlice::read`]/[`SharedSlice::write`] accessors are implemented
/// as relaxed per-chunk atomics, which makes the view a *sound* safe API
/// for [`ArenaPod`] element types: concurrent conflicting writes are not
/// undefined behavior, they merely leave an unspecified (but valid) value
/// — and the [sanitizer](crate::sanitize) flags exactly those conflicts
/// unless the view is [`SharedSlice::benign`]-annotated. The raw
/// `_unchecked` accessors remain for the crate-internal primitives that
/// guarantee disjointness structurally.
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    probe: Option<Probe<'a>>,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the whole point — many threads hold &SharedSlice and write
// disjoint (or atomically-accessed) cells. T: Send suffices because each
// cell value is only produced/consumed by one thread at a time; the plane
// probe's sanitizer and capture contexts are internally synchronized.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}
// SAFETY: as above; moving the view moves no data.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps an exclusive slice for disjoint parallel writes, without
    /// sanitizer tracking (use [`Device::shared`] for a tracked view).
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            probe: None,
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Raw base pointer of the underlying slice.
    ///
    /// For callers that carve the slice into *disjoint* sub-slices owned by
    /// different virtual threads (the per-block chunks of [`Device::map`]).
    /// The usual contract applies: ranges formed from this pointer must not
    /// overlap across threads within one launch.
    pub fn as_ptr(&self) -> *mut T {
        self.ptr
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Annotates the view as a **benign race**: cross-block conflicts
    /// through it are intentional (last-writer-wins hooking, any-winner
    /// elections) and the racecheck must not flag them. The reason string
    /// documents the argument at the call site.
    pub fn benign(mut self, reason: &'static str) -> Self {
        if let Some(p) = &mut self.probe {
            p.benign(reason);
        }
        self
    }

    /// Writes `value` at `index` without bounds or sanitizer checks.
    ///
    /// # Safety
    /// Within one kernel launch every index may be written by at most one
    /// virtual thread, no concurrent read of `index` may occur in the same
    /// launch, and `index < self.len()`.
    #[inline]
    pub unsafe fn write_unchecked(&self, index: usize, value: T) {
        debug_assert!(index < self.len, "SharedSlice write out of bounds");
        // SAFETY: caller guarantees `index < len` and exclusivity.
        unsafe { self.ptr.add(index).write(value) };
    }

    /// Reads the value at `index` without bounds or sanitizer checks.
    ///
    /// # Safety
    /// No concurrent write to `index` may happen during this launch, and
    /// `index < self.len()`.
    #[inline]
    pub unsafe fn read_unchecked(&self, index: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(index < self.len, "SharedSlice read out of bounds");
        // SAFETY: caller guarantees `index < len` and no concurrent write.
        unsafe { self.ptr.add(index).read() }
    }
}

impl<T: ArenaPod> SharedSlice<'_, T> {
    /// Writes `value` at `index` (always bounds-checked; relaxed per-chunk
    /// atomic store).
    ///
    /// Safe for unpadded [`ArenaPod`] types: a conflicting concurrent
    /// write leaves some interleaving of valid chunk values — an
    /// unspecified but *valid* `T`, never undefined behavior. The
    /// sanitizer's racecheck reports any such conflict that is not
    /// [`SharedSlice::benign`]-annotated.
    ///
    /// # Panics
    /// Panics on out of bounds (or records a memcheck finding under a
    /// non-fatal sanitizer, skipping the write).
    #[inline]
    pub fn write(&self, index: usize, value: T) {
        const {
            assert!(
                !T::MAY_PAD,
                "SharedSlice::write requires an unpadded element type"
            );
        }
        if let Some(p) = &self.probe {
            if !p.access(index, self.len, size_of::<T>(), AccessKind::Write) {
                return;
            }
        }
        assert!(
            index < self.len,
            "SharedSlice write out of bounds: index {index}, len {}",
            self.len
        );
        // SAFETY: `index < len` was checked above.
        unsafe { chunk_store(self.ptr.add(index), value) };
    }

    /// Reads the value at `index` (always bounds-checked; relaxed
    /// per-chunk atomic load). See [`SharedSlice::write`] for the
    /// soundness argument; a read concurrent with a conflicting write
    /// yields an unspecified valid `T` and is reported by the racecheck.
    ///
    /// # Panics
    /// Panics on out of bounds (or records a memcheck finding under a
    /// non-fatal sanitizer, returning a zeroed value).
    #[inline]
    pub fn read(&self, index: usize) -> T {
        const {
            assert!(
                !T::MAY_PAD,
                "SharedSlice::read requires an unpadded element type"
            );
        }
        if let Some(p) = &self.probe {
            if !p.access(index, self.len, size_of::<T>(), AccessKind::Read) {
                // SAFETY: ArenaPod admits every initialized bit pattern,
                // including all-zeroes.
                return unsafe { std::mem::zeroed() };
            }
        }
        assert!(
            index < self.len,
            "SharedSlice read out of bounds: index {index}, len {}",
            self.len
        );
        // SAFETY: `index < len` was checked above.
        unsafe { chunk_load(self.ptr.add(index)) }
    }
}

/// Stores `value` through `dst` as a sequence of relaxed atomic chunks
/// (the widest of 1/2/4/8 bytes that divides `T`'s size and alignment).
///
/// # Safety
/// `dst` must be valid for writes of `T` and aligned; `T` must be an
/// unpadded [`ArenaPod`] (every byte of `value` is initialized).
#[inline]
unsafe fn chunk_store<T: ArenaPod>(dst: *mut T, value: T) {
    let size = size_of::<T>();
    let src = (&raw const value).cast::<u8>();
    let d = dst.cast::<u8>();
    // SAFETY (throughout): src holds `size` initialized bytes (unpadded
    // pod), dst is valid for `size` bytes; chunk width divides both the
    // size and the alignment of T, so every chunk access is aligned; the
    // &mut provenance of the SharedSlice covers the whole range, and
    // atomic stores cannot data-race.
    unsafe {
        if align_of::<T>().is_multiple_of(8) && size.is_multiple_of(8) {
            let mut i = 0;
            while i < size {
                (*d.add(i).cast::<AtomicU64>())
                    .store(src.add(i).cast::<u64>().read(), Ordering::Relaxed);
                i += 8;
            }
        } else if align_of::<T>().is_multiple_of(4) && size.is_multiple_of(4) {
            let mut i = 0;
            while i < size {
                (*d.add(i).cast::<AtomicU32>())
                    .store(src.add(i).cast::<u32>().read(), Ordering::Relaxed);
                i += 4;
            }
        } else if align_of::<T>().is_multiple_of(2) && size.is_multiple_of(2) {
            let mut i = 0;
            while i < size {
                (*d.add(i).cast::<AtomicU16>())
                    .store(src.add(i).cast::<u16>().read(), Ordering::Relaxed);
                i += 2;
            }
        } else {
            let mut i = 0;
            while i < size {
                (*d.add(i).cast::<AtomicU8>()).store(src.add(i).read(), Ordering::Relaxed);
                i += 1;
            }
        }
    }
}

/// Loads a `T` from `src` as a sequence of relaxed atomic chunks; the
/// counterpart of [`chunk_store`].
///
/// # Safety
/// `src` must be valid for reads of `T` and aligned; every byte must be
/// initialized (the arena invariant for [`ArenaPod`] storage).
#[inline]
unsafe fn chunk_load<T: ArenaPod>(src: *const T) -> T {
    let size = size_of::<T>();
    let mut out = std::mem::MaybeUninit::<T>::uninit();
    let d = out.as_mut_ptr().cast::<u8>();
    let s = src.cast::<u8>();
    // SAFETY (throughout): mirror of `chunk_store` — aligned chunk
    // accesses covering exactly `size` bytes; atomic loads cannot
    // data-race; every byte of the destination is written before
    // `assume_init`.
    unsafe {
        if align_of::<T>().is_multiple_of(8) && size.is_multiple_of(8) {
            let mut i = 0;
            while i < size {
                d.add(i)
                    .cast::<u64>()
                    .write((*s.add(i).cast::<AtomicU64>()).load(Ordering::Relaxed));
                i += 8;
            }
        } else if align_of::<T>().is_multiple_of(4) && size.is_multiple_of(4) {
            let mut i = 0;
            while i < size {
                d.add(i)
                    .cast::<u32>()
                    .write((*s.add(i).cast::<AtomicU32>()).load(Ordering::Relaxed));
                i += 4;
            }
        } else if align_of::<T>().is_multiple_of(2) && size.is_multiple_of(2) {
            let mut i = 0;
            while i < size {
                d.add(i)
                    .cast::<u16>()
                    .write((*s.add(i).cast::<AtomicU16>()).load(Ordering::Relaxed));
                i += 2;
            }
        } else {
            let mut i = 0;
            while i < size {
                d.add(i)
                    .write((*s.add(i).cast::<AtomicU8>()).load(Ordering::Relaxed));
                i += 1;
            }
        }
        out.assume_init()
    }
}

impl Device {
    /// Permutation scatter kernel: `out[perm[i]] = src[i]`.
    ///
    /// # Panics
    /// Panics if lengths mismatch or any `perm[i]` is out of bounds.
    /// `perm` must be a permutation of `0..out.len()` restricted to the
    /// written positions (each target written at most once) — violating this
    /// is a logic error that results in an unspecified (but not undefined,
    /// values are `Copy`) final value... it *is* a data race in the abstract
    /// machine, so the method checks distinctness in debug builds and the
    /// sanitizer's racecheck reports it as a cross-block conflict.
    pub fn scatter<T>(&self, out: &mut [T], perm: &[u32], src: &[T])
    where
        T: Send + Sync + Copy,
    {
        assert_eq!(perm.len(), src.len(), "scatter: perm/src length mismatch");
        self.metrics.record_primitive();
        let n = src.len() as u64;
        self.metrics.record_traffic(
            n * (size_of::<u32>() as u64 + size_of::<T>() as u64),
            n * size_of::<T>() as u64,
        );
        let _cap = self.cap_scope("scatter").read(perm).read(src).write(&*out);
        let out_len = out.len();
        #[cfg(debug_assertions)]
        {
            let mut seen = vec![false; out_len];
            for &p in perm {
                assert!((p as usize) < out_len, "scatter: index out of bounds");
                assert!(!seen[p as usize], "scatter: duplicate target index");
                seen[p as usize] = true;
            }
        }
        let track = self.san_track_for(&*out);
        let shared = SharedSlice::new(out);
        self.for_each(src.len(), |i| {
            let p = perm[i] as usize;
            if let Some(t) = &track {
                if !t.access(p, out_len, size_of::<T>(), AccessKind::Write) {
                    return; // non-fatal memcheck: skip the bad write
                }
            } else {
                assert!(p < out_len, "scatter: index out of bounds");
            }
            // SAFETY: caller contract — perm has distinct in-bounds
            // entries, checked exhaustively in debug builds and bounds-
            // checked just above.
            unsafe { shared.write_unchecked(p, src[i]) };
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_touches_every_index() {
        let device = Device::new();
        let mut hits = vec![0u32; 10_000];
        let view = crate::as_atomic_u32(&mut hits);
        device.for_each(10_000, |i| {
            view[i].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn map_computes_every_slot() {
        let device = Device::new();
        let mut out = vec![0usize; 50_000];
        device.map(&mut out, |i| i * 2);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * 2);
        }
    }

    #[test]
    fn map_empty_is_noop() {
        let device = Device::new();
        let mut out: Vec<u32> = vec![];
        device.map(&mut out, |_| unreachable!());
    }

    #[test]
    fn small_kernels_run_inline() {
        let device = Device::new();
        let before = device.metrics().snapshot();
        let mut out = vec![0u32; 16];
        device.map(&mut out, |i| i as u32);
        let after = device.metrics().snapshot().since(&before);
        assert_eq!(after.kernel_launches, 1);
        assert_eq!(after.work_items, 16);
    }

    #[test]
    fn gather_and_scatter_invert() {
        let device = Device::new();
        let n = 20_000;
        let src: Vec<u64> = (0..n as u64).collect();
        // perm = reverse
        let perm: Vec<u32> = (0..n as u32).rev().collect();
        let mut scattered = vec![0u64; n];
        device.scatter(&mut scattered, &perm, &src);
        let gathered = device.gather_pooled(&perm, &scattered);
        assert_eq!(&gathered[..], &src[..]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn scatter_length_mismatch_panics() {
        let device = Device::new();
        let mut out = vec![0u32; 4];
        device.scatter(&mut out, &[0, 1], &[1u32, 2, 3]);
    }

    #[test]
    fn fill_broadcasts() {
        let device = Device::new();
        let mut out = vec![0u8; 9999];
        device.fill(&mut out, 7);
        assert!(out.iter().all(|&b| b == 7));
    }

    #[test]
    fn dedicated_pool_respects_thread_count() {
        let device = Device::with_config(DeviceConfig {
            threads: Some(2),
            ..Default::default()
        });
        assert_eq!(device.worker_threads(), 2);
        let mut out = vec![0usize; 100_000];
        device.map(&mut out, |i| i);
        assert_eq!(out[99_999], 99_999);
    }

    #[test]
    fn alloc_map_allocates_and_fills() {
        let device = Device::new();
        let v = device.alloc_map(1000, |i| i as u32 + 1);
        assert_eq!(v[0], 1);
        assert_eq!(v[999], 1000);
    }

    #[test]
    #[should_panic(expected = "block_size")]
    fn zero_block_size_rejected() {
        let _ = Device::with_config(DeviceConfig {
            block_size: 0,
            ..Default::default()
        });
    }

    #[test]
    fn safe_shared_write_and_read_roundtrip() {
        let device = Device::new();
        let mut data = vec![0u32; 10_000];
        {
            let shared = device.shared(&mut data);
            device.for_each(10_000, |i| shared.write(i, i as u32 * 3));
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 * 3));
        let shared = SharedSlice::new(&mut data);
        assert_eq!(shared.read(7), 21);
    }

    #[test]
    fn safe_shared_handles_wide_and_narrow_elements() {
        let mut bytes = vec![0u8; 17];
        let s = SharedSlice::new(&mut bytes);
        s.write(16, 9);
        assert_eq!(s.read(16), 9);
        drop(s);
        let mut pairs = vec![(0u32, 0u32); 5];
        let s = SharedSlice::new(&mut pairs);
        s.write(4, (1, 2));
        assert_eq!(s.read(4), (1, 2));
        drop(s);
        let mut wide = vec![0u128; 3];
        let s = SharedSlice::new(&mut wide);
        s.write(2, u128::MAX - 1);
        assert_eq!(s.read(2), u128::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn safe_shared_write_bounds_checked() {
        let mut data = vec![0u32; 4];
        let s = SharedSlice::new(&mut data);
        s.write(4, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn safe_shared_read_bounds_checked() {
        let mut data = vec![0u64; 4];
        let s = SharedSlice::new(&mut data);
        let _ = s.read(9);
    }

    #[test]
    fn sanitize_off_counts_no_accesses() {
        let device = Device::with_config(DeviceConfig {
            sanitize: SanitizeMode::Off,
            ..Default::default()
        });
        let mut data = vec![0u32; 5000];
        let shared = device.shared(&mut data);
        device.for_each(5000, |i| shared.write(i, 1));
        drop(shared);
        let mut out = vec![0u32; 5000];
        device.scatter(&mut out, &(0..5000u32).collect::<Vec<_>>(), &data);
        assert_eq!(device.metrics().snapshot().san_accesses, 0);
        assert_eq!(device.metrics().snapshot().san_findings, 0);
    }
}
