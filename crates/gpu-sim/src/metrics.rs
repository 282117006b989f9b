//! Device instrumentation: kernel-launch / work-item counters and phase timers.
//!
//! The counters let tests assert *asymptotic* properties that the paper
//! relies on (e.g. Wei–JáJá list ranking performs O(n) work while Wyllie
//! pointer jumping performs O(n log n)), and the phase timers drive the
//! running-time breakdown of Figure 11.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Cumulative counters describing everything a [`crate::Device`] executed.
///
/// All counters are monotone; take a [`MetricsSnapshot`] before and after a
/// region of interest and subtract.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Number of kernel launches (each launch is a global barrier).
    pub kernel_launches: AtomicU64,
    /// Total virtual threads executed across all launches (the *work*).
    pub work_items: AtomicU64,
    /// Number of primitive invocations (scan, reduce, compaction, ...).
    pub primitive_calls: AtomicU64,
    /// Scratch bytes fetched freshly from the system allocator by the
    /// device arena (block size classes, not raw request sizes). A hot
    /// pipeline at steady state adds **zero** here — see [`crate::arena`].
    pub bytes_allocated: AtomicU64,
    /// Scratch bytes served from the device arena's free lists instead of
    /// the system allocator — the observable reuse.
    pub bytes_reused: AtomicU64,
    /// Modeled global-memory bytes read by device primitives (the traffic
    /// plane). Only the *data plane* counts: each named primitive (scan,
    /// reduce, segreduce, compact, gather/scatter) records
    /// the O(n) arrays it streams, while O(blocks) descriptor/bookkeeping
    /// arrays and per-block "shared memory" staging are excluded so the
    /// number is pool-width-independent and CI can gate it. Fused
    /// generators/predicates are modeled as one element-sized read per
    /// evaluation.
    pub bytes_read: AtomicU64,
    /// Modeled global-memory bytes written by device primitives (same
    /// accounting rules as [`Metrics::bytes_read`]).
    pub bytes_written: AtomicU64,
    /// Accesses instrumented by the sanitizer plane (see
    /// [`crate::SanitizeMode`]). Exactly zero when sanitizing is off —
    /// the benchmark gate's proof that the disabled sanitizer costs
    /// nothing on hot paths.
    pub san_accesses: AtomicU64,
    /// Violations the sanitizer reported (out-of-bounds, uninitialized
    /// reads, unannotated cross-block races).
    pub san_findings: AtomicU64,
    /// Faults injected by the fault plane (see [`crate::fault`]): launch
    /// panics, refused allocations, and delayed launches all count one
    /// each. Exactly zero when no fault spec is configured.
    pub faults_injected: AtomicU64,
    /// Named phase durations, in insertion order.
    phases: Mutex<Vec<(String, Duration)>>,
}

impl Metrics {
    /// Creates a zeroed metrics block.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_launch(&self, work: u64) {
        self.kernel_launches.fetch_add(1, Ordering::Relaxed);
        self.work_items.fetch_add(work, Ordering::Relaxed);
    }

    pub(crate) fn record_primitive(&self) {
        self.primitive_calls.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_arena(&self, bytes: u64, reused: bool) {
        if bytes == 0 {
            return;
        }
        if reused {
            self.bytes_reused.fetch_add(bytes, Ordering::Relaxed);
        } else {
            self.bytes_allocated.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_traffic(&self, read: u64, written: u64) {
        if read > 0 {
            self.bytes_read.fetch_add(read, Ordering::Relaxed);
        }
        if written > 0 {
            self.bytes_written.fetch_add(written, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn record_san_access(&self) {
        self.san_accesses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_san_finding(&self) {
        self.san_findings.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_fault(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a named phase duration (appended; names may repeat).
    pub fn record_phase(&self, name: &str, elapsed: Duration) {
        self.phases.lock().push((name.to_string(), elapsed));
    }

    /// Returns a point-in-time copy of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            kernel_launches: self.kernel_launches.load(Ordering::Relaxed),
            work_items: self.work_items.load(Ordering::Relaxed),
            primitive_calls: self.primitive_calls.load(Ordering::Relaxed),
            bytes_allocated: self.bytes_allocated.load(Ordering::Relaxed),
            bytes_reused: self.bytes_reused.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            san_accesses: self.san_accesses.load(Ordering::Relaxed),
            san_findings: self.san_findings.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
        }
    }

    /// Drains and returns the recorded phase durations.
    pub fn take_phases(&self) -> Vec<(String, Duration)> {
        std::mem::take(&mut *self.phases.lock())
    }
}

/// A point-in-time copy of the [`Metrics`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Number of kernel launches so far.
    pub kernel_launches: u64,
    /// Total virtual threads executed so far.
    pub work_items: u64,
    /// Primitive invocations so far.
    pub primitive_calls: u64,
    /// Scratch bytes freshly allocated by the arena so far.
    pub bytes_allocated: u64,
    /// Scratch bytes served from the arena pool so far.
    pub bytes_reused: u64,
    /// Modeled data-plane bytes read by primitives so far.
    pub bytes_read: u64,
    /// Modeled data-plane bytes written by primitives so far.
    pub bytes_written: u64,
    /// Sanitizer-instrumented accesses so far (zero with sanitizing off).
    pub san_accesses: u64,
    /// Sanitizer findings so far.
    pub san_findings: u64,
    /// Faults injected by the fault plane so far (zero with faults off).
    pub faults_injected: u64,
}

impl MetricsSnapshot {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            kernel_launches: self.kernel_launches.saturating_sub(earlier.kernel_launches),
            work_items: self.work_items.saturating_sub(earlier.work_items),
            primitive_calls: self.primitive_calls.saturating_sub(earlier.primitive_calls),
            bytes_allocated: self.bytes_allocated.saturating_sub(earlier.bytes_allocated),
            bytes_reused: self.bytes_reused.saturating_sub(earlier.bytes_reused),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            san_accesses: self.san_accesses.saturating_sub(earlier.san_accesses),
            san_findings: self.san_findings.saturating_sub(earlier.san_findings),
            faults_injected: self.faults_injected.saturating_sub(earlier.faults_injected),
        }
    }
}

/// Scoped wall-clock timer that reports into a [`Metrics`] phase list on drop
/// or via [`PhaseTimer::finish`].
///
/// ```
/// use gpu_sim::{Device, PhaseTimer};
/// let device = Device::new();
/// {
///     let _t = PhaseTimer::new(device.metrics(), "warmup");
///     // ... timed region ...
/// }
/// assert_eq!(device.metrics().take_phases()[0].0, "warmup");
/// ```
pub struct PhaseTimer<'a> {
    metrics: &'a Metrics,
    name: String,
    start: Instant,
    finished: bool,
}

impl<'a> PhaseTimer<'a> {
    /// Starts timing a named phase.
    pub fn new(metrics: &'a Metrics, name: &str) -> Self {
        Self {
            metrics,
            name: name.to_string(),
            start: Instant::now(),
            finished: false,
        }
    }

    /// Stops the timer early and returns the elapsed duration.
    pub fn finish(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.metrics.record_phase(&self.name, elapsed);
        self.finished = true;
        elapsed
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        if !self.finished {
            let elapsed = self.start.elapsed();
            self.metrics.record_phase(&self.name, elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_diff_is_counterwise() {
        let m = Metrics::new();
        m.record_launch(10);
        let a = m.snapshot();
        m.record_launch(5);
        m.record_primitive();
        let b = m.snapshot();
        let d = b.since(&a);
        assert_eq!(d.kernel_launches, 1);
        assert_eq!(d.work_items, 5);
        assert_eq!(d.primitive_calls, 1);
    }

    #[test]
    fn phases_record_in_order() {
        let m = Metrics::new();
        m.record_phase("a", Duration::from_millis(1));
        m.record_phase("b", Duration::from_millis(2));
        let phases = m.take_phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, "a");
        assert_eq!(phases[1].0, "b");
        // drained
        assert!(m.take_phases().is_empty());
    }

    #[test]
    fn phase_timer_records_on_drop() {
        let m = Metrics::new();
        {
            let _t = PhaseTimer::new(&m, "scoped");
        }
        let phases = m.take_phases();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].0, "scoped");
    }

    #[test]
    fn phase_timer_finish_returns_duration() {
        let m = Metrics::new();
        let t = PhaseTimer::new(&m, "x");
        let d = t.finish();
        assert!(d < Duration::from_secs(1));
        assert_eq!(m.take_phases().len(), 1);
    }

    #[test]
    fn snapshot_since_saturates() {
        let a = MetricsSnapshot {
            kernel_launches: 1,
            work_items: 1,
            primitive_calls: 1,
            bytes_allocated: 1,
            bytes_reused: 1,
            bytes_read: 1,
            bytes_written: 1,
            san_accesses: 1,
            san_findings: 1,
            faults_injected: 1,
        };
        let b = MetricsSnapshot::default();
        let d = b.since(&a);
        assert_eq!(d.kernel_launches, 0);
    }
}
