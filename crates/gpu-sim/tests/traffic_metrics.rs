//! Pins the traffic plane: every primitive records `bytes_read` /
//! `bytes_written` (and launches) by the *same* taxonomy on its
//! sequential small-`n` fallback as on its parallel path, and the counts
//! are pool-width-independent so CI can gate them host-independently.
//!
//! The modeled numbers follow the accounting rules in DESIGN.md §10:
//! only O(n) data-plane arrays count; grid bookkeeping (per-block sums)
//! and per-block "shared memory" state do not; fused generators and
//! predicates are one element-sized (predicates: 4-byte) read per
//! evaluation.

use gpu_sim::{Device, DeviceConfig, MetricsSnapshot};

fn dev(threads: usize) -> Device {
    Device::with_config(DeviceConfig {
        threads: Some(threads),
        block_size: 64,
        seq_threshold: 16,
        ..Default::default()
    })
}

/// Runs `f` and returns the metrics delta it produced.
fn measure<F: FnOnce(&Device)>(device: &Device, f: F) -> MetricsSnapshot {
    let before = device.metrics().snapshot();
    f(device);
    device.metrics().snapshot().since(&before)
}

#[test]
fn scan_seq_path_matches_parallel_taxonomy() {
    // Both paths count one element-sized read per input evaluation per
    // launch and one write per output: n = 10 (sequential) folds once in
    // one launch, n = 2000 (parallel) reads once in each of the two-pass
    // core's two launches.
    let device = dev(4);
    for (n, launches) in [(10usize, 1u64), (2000, 2)] {
        let input: Vec<u64> = (0..n as u64).collect();
        let d = measure(&device, |d| {
            let _ = d.scan_inclusive(&input, 0u64, |a, b| a + b);
        });
        assert_eq!(d.kernel_launches, launches, "n={n}");
        assert_eq!(d.bytes_read, 8 * n as u64 * launches, "n={n}");
        assert_eq!(d.bytes_written, 8 * n as u64, "n={n}");
    }
}

#[test]
fn two_pass_scan_reads_twice_and_launches_twice() {
    // The plain scan and the exclusive scan with its total share the core.
    let device = dev(4);
    let n = 2000usize;
    let input: Vec<u64> = (0..n as u64).collect();
    let inclusive = measure(&device, |d| {
        let _ = d.scan_inclusive(&input, 0u64, |a, b| a + b);
    });
    let with_total = measure(&device, |d| {
        let _ = d.scan_exclusive_with_total(&input, 0u64, |a, b| a + b);
    });
    for (name, d) in [
        ("scan_inclusive", inclusive),
        ("scan_exclusive_with_total", with_total),
    ] {
        assert_eq!(d.kernel_launches, 2, "{name}");
        assert_eq!(d.bytes_read, 16 * n as u64, "{name}");
        assert_eq!(d.bytes_written, 8 * n as u64, "{name}");
    }
}

#[test]
fn reduce_reads_once_writes_nothing() {
    let device = dev(4);
    for n in [10usize, 2000] {
        let input: Vec<u32> = (0..n as u32).collect();
        let d = measure(&device, |d| {
            let _ = d.reduce_max_u32(&input);
        });
        assert_eq!(d.kernel_launches, 1, "n={n}");
        assert_eq!(d.bytes_read, 4 * n as u64, "n={n}");
        assert_eq!(d.bytes_written, 0, "n={n}");
    }
}

#[test]
fn compact_reads_once_per_predicate_evaluation() {
    // Half the elements survive; a predicate evaluation is a 4-byte read.
    // The sequential path evaluates once in one launch.
    let n = 10usize;
    let d = measure(&dev(4), |d| {
        let _ = d.compact_indices(n, |i| i % 2 == 0);
    });
    assert_eq!(d.kernel_launches, 1);
    assert_eq!(d.bytes_read, 4 * n as u64);
    assert_eq!(d.bytes_written, 4 * n.div_ceil(2) as u64);
    // The parallel path evaluates twice (count launch + write launch).
    let n = 2000usize;
    let d = measure(&dev(4), |d| {
        let _ = d.compact_indices(n, |i| i % 2 == 0);
    });
    assert_eq!(d.kernel_launches, 2);
    assert_eq!(d.bytes_read, 8 * n as u64);
    assert_eq!(d.bytes_written, 4 * (n / 2) as u64);
}

#[test]
fn gather_scatter_count_index_and_element() {
    let device = dev(4);
    let n = 500usize;
    let src: Vec<u64> = (0..n as u64).collect();
    let idx: Vec<u32> = (0..n as u32).rev().collect();
    let mut out = vec![0u64; n];
    let d = measure(&device, |d| {
        d.gather_pooled(&idx, &src);
    });
    assert_eq!(d.kernel_launches, 1);
    assert_eq!(d.bytes_read, (n * (4 + 8)) as u64);
    assert_eq!(d.bytes_written, (n * 8) as u64);

    let d = measure(&device, |d| d.scatter(&mut out, &idx, &src));
    assert_eq!(d.kernel_launches, 1);
    assert_eq!(d.bytes_read, (n * (4 + 8)) as u64);
    assert_eq!(d.bytes_written, (n * 8) as u64);
}

#[test]
fn segreduce_counts_slots_offsets_and_segments() {
    let device = dev(4);
    let values: Vec<u32> = (0..40).collect();
    let offsets: Vec<u32> = (0..=8u32).map(|s| s * 5).collect();
    let mut out = vec![0u32; 8];
    let d = measure(&device, |d| {
        d.map_segmented_reduce_into(&offsets, u32::MAX, |s| values[s], u32::min, &mut out);
    });
    assert_eq!(d.kernel_launches, 1);
    assert_eq!(d.bytes_read, 40 * 4 + 9 * 4);
    assert_eq!(d.bytes_written, 8 * 4);
}

#[test]
fn traffic_is_pool_width_independent() {
    // The CI gate compares launch/byte counts across hosts; they must not
    // depend on how many workers the pool happens to have.
    let n = 3000usize;
    let input: Vec<u64> = (0..n as u64).collect();
    let mut reference: Option<(MetricsSnapshot, MetricsSnapshot)> = None;
    for threads in [1usize, 2, 8] {
        let device = dev(threads);
        let scan = measure(&device, |d| {
            let _ = d.scan_exclusive(&input, 0u64, |a, b| a + b);
        });
        let compact = measure(&device, |d| {
            let _ = d.compact_indices(n, |i| i % 3 == 0);
        });
        match &reference {
            None => reference = Some((scan, compact)),
            Some((s, c)) => {
                assert_eq!(scan.kernel_launches, s.kernel_launches);
                assert_eq!(scan.bytes_read, s.bytes_read);
                assert_eq!(scan.bytes_written, s.bytes_written);
                assert_eq!(compact.kernel_launches, c.kernel_launches);
                assert_eq!(compact.bytes_read, c.bytes_read);
                assert_eq!(compact.bytes_written, c.bytes_written);
            }
        }
    }
}
