//! Arena-reuse determinism: repeated primitive runs on one device (warm
//! pool, recycled buffers) must be bit-identical to runs on a fresh device
//! (cold pool) and to a pooling-disabled device (plain malloc/free), and
//! steady-state iterations must allocate zero scratch bytes.
//!
//! CI runs this suite under `RAYON_NUM_THREADS=1` and `=4`.

use gpu_sim::{Device, DeviceConfig};

fn malloc_device() -> Device {
    Device::with_config(DeviceConfig {
        pooling: false,
        ..Default::default()
    })
}

fn keys(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// Runs the whole primitive pipeline once on `device`, returning every
/// output for comparison.
fn primitive_pipeline(device: &Device, n: usize) -> (Vec<u64>, u64, Vec<u32>, Vec<u64>) {
    let input = keys(n, 7);

    // Scan (into, pooled scratch).
    let mut scanned = vec![0u64; n];
    let total = device.scan_inclusive_into(&input, &mut scanned, 0, |a, b| a.wrapping_add(b));

    // Compact (pooled counts/offsets/output).
    let survivors = device.compact_indices_pooled(n, |i| input[i].is_multiple_of(3));

    // Segmented reduce (into).
    let offsets: Vec<u32> = (0..=(n / 100) as u32).map(|s| s * 100).collect();
    let mut seg = vec![0u64; offsets.len() - 1];
    device.map_segmented_reduce_into(
        &offsets,
        0u64,
        |s| input[s],
        |a, b| a.wrapping_add(b),
        &mut seg,
    );

    (scanned, total, survivors.to_vec(), seg)
}

#[test]
fn warm_pool_matches_fresh_device_and_malloc_mode() {
    let n = 100_000;
    let shared = Device::new();
    let baseline = primitive_pipeline(&shared, n);
    for round in 0..3 {
        // Same device, recycled buffers.
        assert_eq!(
            primitive_pipeline(&shared, n),
            baseline,
            "warm-pool round {round} diverged"
        );
        // Fresh device, cold pool.
        assert_eq!(
            primitive_pipeline(&Device::new(), n),
            baseline,
            "fresh-device round {round} diverged"
        );
        // Pooling disabled entirely.
        assert_eq!(
            primitive_pipeline(&malloc_device(), n),
            baseline,
            "malloc-mode round {round} diverged"
        );
    }
}

#[test]
fn mixed_sizes_recycle_without_corruption() {
    // Alternate buffer sizes so recycled blocks are repeatedly reinterpreted
    // at different lengths and element types.
    let device = Device::new();
    for round in 0..4 {
        for n in [10_000usize, 60_000, 33_000] {
            let input = keys(n, round as u64 * 31 + n as u64);
            let mut got = vec![0u64; n];
            device.scan_exclusive_into(&input, &mut got, 0, |a, b| a.wrapping_add(b));
            let expect = Device::new().scan_exclusive(&input, 0, |a, b| a.wrapping_add(b));
            assert_eq!(got, expect, "round {round} n {n}");

            // The u32 scan's pooled output and block sums recycle blocks
            // the u64 scans released.
            let input32: Vec<u32> = input.iter().map(|&k| k as u32).collect();
            let mut got32 = device.alloc_pooled::<u32>(n);
            device.scan_inclusive_into(&input32, &mut got32, 0, u32::wrapping_add);
            let expect32 = Device::new().scan_inclusive(&input32, 0, u32::wrapping_add);
            assert_eq!(got32[..], expect32[..], "round {round} n {n}");
        }
    }
}

#[test]
fn steady_state_pipeline_allocates_zero_scratch_bytes() {
    let n = 120_000;
    let device = Device::new();
    primitive_pipeline(&device, n); // warm every size class the pipeline uses
    let before = device.metrics().snapshot();
    for _ in 0..5 {
        primitive_pipeline(&device, n);
    }
    let d = device.metrics().snapshot().since(&before);
    assert_eq!(
        d.bytes_allocated, 0,
        "steady-state pipeline must serve all scratch from the pool"
    );
    assert!(d.bytes_reused > 0, "reuse must be observable in metrics");
}

#[test]
fn malloc_mode_never_reuses() {
    let device = malloc_device();
    for _ in 0..3 {
        primitive_pipeline(&device, 50_000);
    }
    let s = device.metrics().snapshot();
    assert_eq!(s.bytes_reused, 0);
    assert!(s.bytes_allocated > 0);
    assert_eq!(device.arena().pooled_bytes(), 0);
}

#[test]
fn fused_launches_match_unfused_composition() {
    let device = Device::new();
    let n = 90_000;
    let vals = keys(n, 99);

    // map_scan == map then scan.
    let mapped: Vec<u64> = (0..n).map(|i| vals[i] % 1000).collect();
    let unfused = device.add_scan_inclusive_u64(&mapped);
    let mut fused = vec![0u64; n];
    device.map_scan_inclusive_into(n, |i| vals[i] % 1000, &mut fused, 0, |a, b| a + b);
    assert_eq!(fused, unfused);

    // map_reduce == map then reduce.
    let r_unfused = mapped.iter().fold(0u64, |a, &b| a.wrapping_add(b));
    let r_fused = device.map_reduce(n, |i| vals[i] % 1000, 0u64, |a, b| a + b);
    assert_eq!(r_fused, r_unfused);

    // map_segmented_reduce == materialize then reduce each segment.
    let offsets: Vec<u32> = (0..=(n / 64) as u32).map(|s| s * 64).collect();
    let unfused: Vec<u32> = offsets
        .windows(2)
        .map(|w| {
            let segment = &mapped[w[0] as usize..w[1] as usize];
            segment.iter().map(|&v| v as u32).min().unwrap_or(u32::MAX)
        })
        .collect();
    let mut fused = vec![0u32; offsets.len() - 1];
    device.map_segmented_reduce_into(
        &offsets,
        u32::MAX,
        |s| mapped[s] as u32,
        |a, b| a.min(b),
        &mut fused,
    );
    assert_eq!(fused, unfused);
}
