//! The device sanitizer plane: memcheck / initcheck / racecheck for
//! simulated kernels.
//!
//! Real GPU stacks gate the exact bug class this crate's raw access layer
//! admits — out-of-bounds global-memory accesses, reads of never-written
//! allocations, and cross-block write conflicts — with NVIDIA's
//! `compute-sanitizer`. This module is the simulated equivalent: an opt-in
//! checker ([`crate::DeviceConfig::sanitize`], or the `EMG_SANITIZE`
//! environment variable) backed by per-launch shadow state.
//!
//! ## What each mode checks
//!
//! * **memcheck** — out-of-bounds indices through the tracked access layer
//!   ([`crate::Device::shared`] views, [`crate::Device::atomic_u32`] /
//!   [`crate::Device::atomic_u64`] views, `scatter` targets, `gather`
//!   sources) become [`Finding`]s carrying the kernel label and element
//!   index instead of bare panics.
//! * **initcheck** — every arena acquisition ([`crate::Device::scratch`]
//!   and the typed wrappers) registers a byte-granular shadow bitmap that
//!   starts all-uninitialized — *recycled* blocks included, which is what
//!   wires this into the arena's taint machinery: stale contents of a
//!   reused block are exactly as uninitialized as a fresh allocation.
//!   Tracked writes (shared/atomic views, `scatter`, whole-buffer
//!   producers like `map` and the `_into` primitives) mark bytes written;
//!   a tracked read of unmarked bytes is a finding.
//! * **racecheck** — every tracked access during a kernel launch records
//!   `(region, element, virtual block, access kind)` into sharded shadow
//!   logs. At the launch barrier the log is analyzed: two accesses to the
//!   same element from *different virtual blocks*, at least one of them a
//!   write (plain write, atomic store, or atomic read-modify-write), are
//!   a conflict. Conflicts whose write-side accesses all came through
//!   views annotated with [`crate::SharedSlice::benign`] /
//!   [`crate::AtomicViewU32::benign`] are suppressed — that is the
//!   call-site whitelist for the deliberate last-writer-wins and hooking
//!   races the paper's algorithms rely on. Everything else is an error.
//!
//! Attribution uses the *virtual* block (`index / block_size`), not the
//! worker thread, so findings are identical at every pool width — a
//! single-worker run detects the same races as a 64-worker run.
//!
//! ## Scope (racecheck vs. ThreadSanitizer)
//!
//! This is *not* a data-race detector in the C++ memory-model sense: the
//! tracked access layer is implemented with relaxed atomics, so nothing it
//! flags is undefined behavior. It flags **scheduling-order dependence** —
//! any cross-block conflicting access pattern whose outcome could depend
//! on which block ran first, including fully atomic CAS/min hooking. That
//! is deliberately *stricter* than TSan: the repo's determinism contract
//! ("bit-identical outputs at every pool width") requires every such race
//! to be argued benign at the call site, not merely UB-free. Conversely it
//! is narrower than TSan in that only accesses through the tracked views
//! are seen, and accesses within one virtual block (sequential in the
//! simulator) are invisible.

use crate::metrics::Metrics;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which sanitizer checks a [`crate::Device`] runs (see the
/// [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizeMode {
    /// No checking; the tracked access layer adds a branch per access and
    /// nothing else (`Metrics::san_accesses` stays zero).
    #[default]
    Off,
    /// Out-of-bounds checking only.
    Memcheck,
    /// Uninitialized-read checking only.
    Initcheck,
    /// Cross-block conflict checking only.
    Racecheck,
    /// All of the above.
    Full,
}

impl SanitizeMode {
    /// Parses the `EMG_SANITIZE` environment variable (unset, empty, `off`
    /// or `0` → [`SanitizeMode::Off`]; `memcheck`/`initcheck`/`racecheck`;
    /// `full`, `on` or `1` → [`SanitizeMode::Full`]).
    ///
    /// # Panics
    /// Panics on an unrecognized value — a typo in a CI matrix must not
    /// silently disable the checks.
    pub fn from_env() -> Self {
        crate::env::parse_env(crate::env::EMG_SANITIZE)
    }

    pub(crate) fn memcheck(self) -> bool {
        matches!(self, Self::Memcheck | Self::Full)
    }

    pub(crate) fn initcheck(self) -> bool {
        matches!(self, Self::Initcheck | Self::Full)
    }

    pub(crate) fn racecheck(self) -> bool {
        matches!(self, Self::Racecheck | Self::Full)
    }
}

impl std::str::FromStr for SanitizeMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "off" | "0" => Ok(Self::Off),
            "memcheck" => Ok(Self::Memcheck),
            "initcheck" => Ok(Self::Initcheck),
            "racecheck" => Ok(Self::Racecheck),
            "full" | "on" | "1" => Ok(Self::Full),
            other => Err(format!("unknown sanitize mode {other:?}")),
        }
    }
}

/// How a tracked access touched an element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain (per-chunk relaxed) read through a shared view.
    Read,
    /// Plain (per-chunk relaxed) write through a shared view.
    Write,
    /// Atomic load through an atomic view.
    AtomicLoad,
    /// Atomic store through an atomic view.
    AtomicStore,
    /// Atomic read-modify-write (fetch_add/min/max, CAS).
    AtomicRmw,
}

impl AccessKind {
    /// Whether the access can change the element (the write side of a
    /// racecheck conflict).
    pub fn is_write(self) -> bool {
        matches!(self, Self::Write | Self::AtomicStore | Self::AtomicRmw)
    }

    fn name(self) -> &'static str {
        match self {
            Self::Read => "read",
            Self::Write => "write",
            Self::AtomicLoad => "atomic load",
            Self::AtomicStore => "atomic store",
            Self::AtomicRmw => "atomic rmw",
        }
    }
}

/// The class of a sanitizer [`Finding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// memcheck: index past the end of the accessed region.
    OutOfBounds,
    /// initcheck: read of bytes never written since their (re)allocation.
    UninitRead,
    /// racecheck: unannotated cross-block conflict on one element.
    Race,
}

impl FindingKind {
    fn name(self) -> &'static str {
        match self {
            Self::OutOfBounds => "memcheck",
            Self::UninitRead => "initcheck",
            Self::Race => "racecheck",
        }
    }
}

/// One sanitizer violation: what happened, in which kernel, at which
/// element.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Violation class.
    pub kind: FindingKind,
    /// Label of the kernel launch the access belonged to (set via
    /// [`crate::Device::kernel_label`], or `kernel#<seq>`; `host` for
    /// accesses outside any launch).
    pub kernel: String,
    /// Description of the accessed region (element type and length).
    pub region: String,
    /// Element index of the violation.
    pub index: usize,
    /// Human-readable specifics (access kinds, blocks, bounds).
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sanitizer[{}]: kernel `{}`, region {}, element {}: {}",
            self.kind.name(),
            self.kernel,
            self.region,
            self.index,
            self.detail
        )
    }
}

/// Virtual-block id used for accesses made outside any kernel launch.
pub(crate) const HOST_BLOCK: u32 = u32::MAX;

/// Number of access-log shards; records shard by element index so each
/// element's history lands in exactly one shard.
const RECORD_SHARDS: usize = 16;

/// Retained findings cap in non-fatal mode (the counter in
/// [`Metrics::san_findings`] keeps exact totals).
const MAX_FINDINGS: usize = 256;

/// One tracked access, recorded during a launch, analyzed at the barrier.
struct Access {
    launch: u64,
    region: u32,
    index: usize,
    block: u32,
    kind: AccessKind,
    benign: bool,
}

/// Byte-granular initialization bitmap shadowing one arena block.
pub(crate) struct ShadowRegion {
    base: usize,
    bytes: usize,
    bits: Box<[AtomicU64]>,
}

impl ShadowRegion {
    fn new(base: usize, bytes: usize) -> Self {
        let words = bytes.div_ceil(64);
        let bits = (0..words).map(|_| AtomicU64::new(0)).collect();
        Self { base, bytes, bits }
    }

    /// Marks `len` bytes at `off` (region-relative) as initialized.
    pub(crate) fn mark(&self, off: usize, len: usize) {
        let end = usize::min(off + len, self.bytes);
        let mut b = usize::min(off, end);
        while b < end {
            let word = b / 64;
            let lo = b % 64;
            let span = usize::min(64 - lo, end - b);
            let mask = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << lo
            };
            self.bits[word].fetch_or(mask, Ordering::Relaxed);
            b += span;
        }
    }

    /// Whether all `len` bytes at `off` are marked initialized.
    pub(crate) fn all_init(&self, off: usize, len: usize) -> bool {
        let end = usize::min(off + len, self.bytes);
        let mut b = usize::min(off, end);
        while b < end {
            let word = b / 64;
            let lo = b % 64;
            let span = usize::min(64 - lo, end - b);
            let mask = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << lo
            };
            if self.bits[word].load(Ordering::Relaxed) & mask != mask {
                return false;
            }
            b += span;
        }
        true
    }
}

thread_local! {
    /// (launch id, virtual block) the current worker thread is executing.
    /// A stale launch id (any id not currently active) means the thread is
    /// doing host-side work.
    static TL_BLOCK: std::cell::Cell<(u64, u32)> = const { std::cell::Cell::new((0, HOST_BLOCK)) };
}

/// Per-view tracking context: the sanitizer half of the plane probe a
/// tracked view ([`crate::Device::shared`], [`crate::Device::atomic_u32`])
/// carries; `scatter` tracks its targets with one directly.
pub(crate) struct Track<'a> {
    pub(crate) san: &'a Sanitizer,
    pub(crate) metrics: &'a Metrics,
    pub(crate) region: u32,
    /// Shadow bitmap covering the viewed memory, when it lives in a
    /// registered arena block: (bitmap, byte offset of the view's base
    /// within the block).
    pub(crate) shadow: Option<(Arc<ShadowRegion>, usize)>,
    /// Call-site benign-race annotation (the whitelist reason).
    pub(crate) benign: Option<&'static str>,
}

impl Track<'_> {
    /// Full per-access hook: counts the access, bounds-checks it
    /// (memcheck), records it (racecheck), and checks/marks initialization
    /// shadow (initcheck). Returns `false` when the access is out of
    /// bounds and must be skipped (non-fatal memcheck).
    #[inline]
    pub(crate) fn access(
        &self,
        index: usize,
        len: usize,
        elem_bytes: usize,
        kind: AccessKind,
    ) -> bool {
        self.metrics.record_san_access();
        if index >= len {
            self.san
                .report_oob(self.metrics, self.region, index, len, kind);
            return false;
        }
        if self.san.mode.racecheck() {
            self.san
                .record(self.region, index, kind, self.benign.is_some());
        }
        if self.san.mode.initcheck() {
            if let Some((shadow, base_off)) = &self.shadow {
                let off = base_off + index * elem_bytes;
                if kind.is_write() && kind != AccessKind::AtomicRmw {
                    shadow.mark(off, elem_bytes);
                } else if !shadow.all_init(off, elem_bytes) {
                    self.san
                        .report_uninit(self.metrics, self.region, index, kind);
                    // An RMW both reads and writes; after reporting the
                    // uninit read, the bytes are defined.
                    shadow.mark(off, elem_bytes);
                }
            }
        }
        true
    }
}

/// The checker attached to a [`crate::Device`] when
/// [`crate::DeviceConfig::sanitize`] is not [`SanitizeMode::Off`].
pub(crate) struct Sanitizer {
    mode: SanitizeMode,
    fatal: bool,
    launch_seq: AtomicU64,
    /// Launches currently between begin/end: (id, kernel label).
    active: Mutex<Vec<(u64, String)>>,
    /// Kernel label stack (pushed by [`crate::Device::kernel_label`]).
    labels: Mutex<Vec<String>>,
    /// Region descriptions, indexed by the id stored in access records.
    regions: Mutex<Vec<String>>,
    /// Access logs, sharded by element index.
    shards: [Mutex<Vec<Access>>; RECORD_SHARDS],
    /// Initialization bitmaps for live arena blocks, keyed by base address.
    shadows: Mutex<BTreeMap<usize, Arc<ShadowRegion>>>,
    findings: Mutex<Vec<Finding>>,
}

impl Sanitizer {
    pub(crate) fn new(mode: SanitizeMode, fatal: bool) -> Self {
        Self {
            mode,
            fatal,
            launch_seq: AtomicU64::new(0),
            active: Mutex::new(Vec::new()),
            labels: Mutex::new(Vec::new()),
            regions: Mutex::new(Vec::new()),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
            shadows: Mutex::new(BTreeMap::new()),
            findings: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn mode(&self) -> SanitizeMode {
        self.mode
    }

    // ---- kernel labels -------------------------------------------------

    pub(crate) fn push_label(&self, label: &str) {
        self.labels.lock().push(label.to_string());
    }

    pub(crate) fn pop_label(&self) {
        self.labels.lock().pop();
    }

    /// Kernel label for a finding raised right now on this thread: the
    /// active launch this thread is executing, else `host`.
    fn current_kernel(&self) -> String {
        let (launch, _) = TL_BLOCK.get();
        let active = self.active.lock();
        active
            .iter()
            .find(|(id, _)| *id == launch)
            .map(|(_, label)| label.clone())
            .unwrap_or_else(|| "host".to_string())
    }

    // ---- launch lifecycle ----------------------------------------------

    /// Starts a launch: assigns an id and snapshots the kernel label.
    pub(crate) fn begin_launch(&self) -> u64 {
        let id = self.launch_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let label = self
            .labels
            .lock()
            .last()
            .cloned()
            .unwrap_or_else(|| format!("kernel#{id}"));
        self.active.lock().push((id, label));
        id
    }

    /// Tags the current worker thread as executing `block` of `launch`.
    #[inline]
    pub(crate) fn set_block(&self, launch: u64, block: u32) {
        TL_BLOCK.set((launch, block));
    }

    /// The launch barrier: retires the launch, drains its access log and,
    /// when `analyze` holds, flags unannotated cross-block conflicts. A
    /// launch unwinding from a panic passes `false`: its log is partial
    /// and is discarded.
    pub(crate) fn end_launch(&self, launch: u64, metrics: &Metrics, analyze: bool) {
        let label = {
            let mut active = self.active.lock();
            let pos = active.iter().position(|(id, _)| *id == launch);
            match pos {
                Some(p) => active.swap_remove(p).1,
                None => "kernel".to_string(),
            }
        };
        if !self.mode.racecheck() {
            return;
        }
        // Group this launch's records by element; records of concurrently
        // active launches (multi host-thread use) stay in the shards.
        type ElemAccesses = Vec<(AccessKind, u32, bool)>;
        let mut by_elem: HashMap<(u32, usize), ElemAccesses> = HashMap::new();
        for shard in &self.shards {
            let mut guard = shard.lock();
            guard.retain(|a| {
                if a.launch == launch {
                    by_elem
                        .entry((a.region, a.index))
                        .or_default()
                        .push((a.kind, a.block, a.benign));
                    false
                } else {
                    true
                }
            });
        }
        if !analyze {
            return;
        }
        for ((region, index), accesses) in by_elem {
            let mut blocks_seen: Vec<u32> = Vec::new();
            for &(_, b, _) in &accesses {
                if !blocks_seen.contains(&b) {
                    blocks_seen.push(b);
                }
            }
            if blocks_seen.len() < 2 {
                continue;
            }
            let writes: Vec<&(AccessKind, u32, bool)> =
                accesses.iter().filter(|(k, _, _)| k.is_write()).collect();
            if writes.is_empty() {
                continue;
            }
            // A write conflicts unless every access sits in its block.
            let conflicting = writes
                .iter()
                .any(|(_, wb, _)| accesses.iter().any(|(_, b, _)| b != wb));
            if !conflicting {
                continue;
            }
            if writes.iter().all(|(_, _, benign)| *benign) {
                continue; // whitelisted at the call site
            }
            let mut kinds: Vec<&'static str> = accesses.iter().map(|(k, _, _)| k.name()).collect();
            kinds.sort_unstable();
            kinds.dedup();
            self.report(
                metrics,
                Finding {
                    kind: FindingKind::Race,
                    kernel: label.clone(),
                    region: self.region_name(region),
                    index,
                    detail: format!(
                        "cross-block conflict ({} from {} virtual blocks, e.g. blocks {} and {})",
                        kinds.join(" + "),
                        blocks_seen.len(),
                        blocks_seen[0],
                        blocks_seen[1],
                    ),
                },
            );
        }
    }

    // ---- regions & records ---------------------------------------------

    pub(crate) fn register_region(&self, desc: String) -> u32 {
        let mut regions = self.regions.lock();
        regions.push(desc);
        (regions.len() - 1) as u32
    }

    fn region_name(&self, region: u32) -> String {
        self.regions
            .lock()
            .get(region as usize)
            .cloned()
            .unwrap_or_else(|| format!("region#{region}"))
    }

    /// Appends one access record, attributed to the virtual block the
    /// current thread is executing (or [`HOST_BLOCK`] outside launches).
    #[inline]
    pub(crate) fn record(&self, region: u32, index: usize, kind: AccessKind, benign: bool) {
        let (launch, block) = TL_BLOCK.get();
        let is_active = self.active.lock().iter().any(|(id, _)| *id == launch);
        if !is_active {
            return; // host-side access: no scheduling to race against
        }
        self.shards[index % RECORD_SHARDS].lock().push(Access {
            launch,
            region,
            index,
            block,
            kind,
            benign,
        });
    }

    // ---- initcheck shadow registry -------------------------------------

    /// Registers an all-uninitialized shadow for an arena block. Recycled
    /// blocks get a fresh shadow too: their stale contents count as
    /// uninitialized, which is the arena-reuse check.
    pub(crate) fn register_shadow(&self, base: usize, bytes: usize) {
        if bytes == 0 || !self.mode.initcheck() {
            return;
        }
        self.shadows
            .lock()
            .insert(base, Arc::new(ShadowRegion::new(base, bytes)));
    }

    /// Drops the shadow of a released block.
    pub(crate) fn unregister_shadow(&self, base: usize) {
        self.shadows.lock().remove(&base);
    }

    /// Finds the registered shadow containing `[addr, addr + bytes)`,
    /// returning it with `addr`'s offset inside the block.
    pub(crate) fn find_shadow(
        &self,
        addr: usize,
        bytes: usize,
    ) -> Option<(Arc<ShadowRegion>, usize)> {
        if !self.mode.initcheck() {
            return None;
        }
        let shadows = self.shadows.lock();
        let (_, shadow) = shadows.range(..=addr).next_back()?;
        if addr + bytes <= shadow.base + shadow.bytes {
            Some((Arc::clone(shadow), addr - shadow.base))
        } else {
            None
        }
    }

    /// Marks `[addr, addr + bytes)` initialized if a shadow covers it —
    /// the hook whole-buffer producers (`map`, `_into` primitives,
    /// `alloc_copied`) call after defining every byte of their output.
    pub(crate) fn mark_initialized(&self, addr: usize, bytes: usize) {
        if bytes == 0 {
            return;
        }
        if let Some((shadow, off)) = self.find_shadow(addr, bytes) {
            shadow.mark(off, bytes);
        }
    }

    // ---- findings ------------------------------------------------------

    pub(crate) fn report_oob(
        &self,
        metrics: &Metrics,
        region: u32,
        index: usize,
        len: usize,
        kind: AccessKind,
    ) {
        self.report(
            metrics,
            Finding {
                kind: FindingKind::OutOfBounds,
                kernel: self.current_kernel(),
                region: self.region_name(region),
                index,
                detail: format!("{} at index {index} beyond length {len}", kind.name()),
            },
        );
    }

    pub(crate) fn report_uninit(
        &self,
        metrics: &Metrics,
        region: u32,
        index: usize,
        kind: AccessKind,
    ) {
        self.report(
            metrics,
            Finding {
                kind: FindingKind::UninitRead,
                kernel: self.current_kernel(),
                region: self.region_name(region),
                index,
                detail: format!(
                    "{} of bytes never written since allocation (possible stale reuse of a recycled arena block)",
                    kind.name()
                ),
            },
        );
    }

    /// Records a finding; panics with it when the device is configured
    /// fatal.
    pub(crate) fn report(&self, metrics: &Metrics, finding: Finding) {
        metrics.record_san_finding();
        if self.fatal {
            panic!("{finding}");
        }
        let mut findings = self.findings.lock();
        if findings.len() < MAX_FINDINGS {
            findings.push(finding);
        }
    }

    /// Removes and returns all retained findings.
    pub(crate) fn take_findings(&self) -> Vec<Finding> {
        std::mem::take(&mut *self.findings.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(SanitizeMode::Full.memcheck());
        assert!(SanitizeMode::Full.initcheck());
        assert!(SanitizeMode::Full.racecheck());
        assert!(SanitizeMode::Memcheck.memcheck());
        assert!(!SanitizeMode::Memcheck.racecheck());
        assert!(!SanitizeMode::Off.memcheck());
        assert!(!SanitizeMode::Off.initcheck());
        assert!(!SanitizeMode::Off.racecheck());
    }

    #[test]
    fn shadow_marks_and_checks_bytes() {
        let s = ShadowRegion::new(0, 200);
        assert!(!s.all_init(0, 1));
        s.mark(3, 10);
        assert!(s.all_init(3, 10));
        assert!(!s.all_init(2, 2));
        assert!(!s.all_init(12, 2));
        // Cross-word spans.
        s.mark(60, 10);
        assert!(s.all_init(60, 10));
        assert!(s.all_init(63, 2));
        // Whole region.
        s.mark(0, 200);
        assert!(s.all_init(0, 200));
    }

    #[test]
    fn shadow_clamps_past_end() {
        let s = ShadowRegion::new(0, 10);
        s.mark(0, 100);
        assert!(s.all_init(0, 10));
    }

    #[test]
    fn finding_display_carries_kernel_and_index() {
        let f = Finding {
            kind: FindingKind::Race,
            kernel: "cc.hook".into(),
            region: "u32[100]".into(),
            index: 42,
            detail: "x".into(),
        };
        let s = f.to_string();
        assert!(s.contains("cc.hook"));
        assert!(s.contains("42"));
        assert!(s.contains("racecheck"));
    }
}
