//! Determinism across pool widths: every primitive must produce
//! bit-identical output on a 1-worker and a 4-worker device.
//!
//! This holds by construction — block decomposition depends only on
//! `block_size` (never the worker count), chunk results are always combined
//! in source order, and the integer operators used here are exactly
//! associative — but it is the contract that makes the multithreaded engine
//! a drop-in replacement for the old sequential shim, so it gets its own
//! suite. Chunk *sizing* does vary with the worker count
//! (`grid_chunk_len`), which is precisely what these tests prove harmless.

use gpu_sim::{Device, DeviceConfig};

fn device(threads: usize) -> Device {
    Device::with_config(DeviceConfig {
        threads: Some(threads),
        // Small blocks so even modest inputs span many blocks on the
        // 4-worker device.
        block_size: 1024,
        seq_threshold: 512,
        pooling: true,
        ..Default::default()
    })
}

fn devices() -> (Device, Device) {
    (device(1), device(4))
}

/// SplitMix64 — deterministic test data without external dependencies.
fn pseudo_random(n: usize, seed: u64) -> Vec<u64> {
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

#[test]
fn scan_bit_identical_across_thread_counts() {
    let (d1, d4) = devices();
    for n in [1usize << 10, (1 << 17) + 3] {
        let input: Vec<u64> = pseudo_random(n, 1).iter().map(|v| v % 1000).collect();
        assert_eq!(
            d1.add_scan_inclusive_u64(&input),
            d4.add_scan_inclusive_u64(&input),
            "inclusive scan diverges at n={n}"
        );
        assert_eq!(
            d1.add_scan_exclusive_u64(&input),
            d4.add_scan_exclusive_u64(&input),
            "exclusive scan diverges at n={n}"
        );
        let (v1, t1) = d1.scan_exclusive_with_total(&input, 0u64, |a, b| a + b);
        let (v4, t4) = d4.scan_exclusive_with_total(&input, 0u64, |a, b| a + b);
        assert_eq!((v1, t1), (v4, t4), "scan-with-total diverges at n={n}");
    }
}

#[test]
fn non_commutative_scan_bit_identical() {
    // (keep-first, take-last) is associative but not commutative, so it is
    // sensitive to any block-boundary reordering.
    let (d1, d4) = devices();
    let n = 100_000;
    let input: Vec<(u32, u32)> = (0..n).map(|i| (i as u32, (i * 7 % 11) as u32)).collect();
    let op = |a: (u32, u32), b: (u32, u32)| {
        let first = if a.0 == u32::MAX { b.0 } else { a.0 };
        (first, b.1)
    };
    assert_eq!(
        d1.scan_inclusive(&input, (u32::MAX, u32::MAX), op),
        d4.scan_inclusive(&input, (u32::MAX, u32::MAX), op),
    );
}

#[test]
fn segreduce_bit_identical() {
    let (d1, d4) = devices();
    // Irregular segments including empties and one hub.
    let sizes: Vec<u32> = (0..5_000u32)
        .map(|s| match s % 7 {
            0 => 0,
            1 => 40,
            6 => 1,
            _ => s % 13,
        })
        .chain([30_000u32])
        .collect();
    let mut offsets = vec![0u32];
    for &s in &sizes {
        offsets.push(offsets.last().unwrap() + s);
    }
    let n = *offsets.last().unwrap() as usize;
    let values: Vec<u32> = pseudo_random(n, 2).iter().map(|&v| v as u32).collect();

    let segreduce = |d: &Device, identity: u32, op: fn(u32, u32) -> u32| {
        let mut out = vec![0u32; sizes.len()];
        d.map_segmented_reduce_into(&offsets, identity, |s| values[s], op, &mut out);
        out
    };
    assert_eq!(
        segreduce(&d1, u32::MAX, u32::min),
        segreduce(&d4, u32::MAX, u32::min)
    );
    assert_eq!(segreduce(&d1, 0, u32::max), segreduce(&d4, 0, u32::max));
}

#[test]
fn reduce_and_compact_bit_identical() {
    let (d1, d4) = devices();
    let n = 200_000;
    let input: Vec<u32> = pseudo_random(n, 4)
        .iter()
        .map(|v| (v % 97) as u32)
        .collect();
    let sum = |d: &Device| d.map_reduce(n, |i| u64::from(input[i]), 0u64, |a, b| a + b);
    assert_eq!(sum(&d1), sum(&d4));
    assert_eq!(d1.reduce_max_u32(&input), d4.reduce_max_u32(&input));

    let input_ref = &input;
    let pred = move |i: usize| input_ref[i].is_multiple_of(3);
    assert_eq!(d1.compact_indices(n, pred), d4.compact_indices(n, pred));
}

#[test]
fn map_and_scatter_bit_identical() {
    let (d1, d4) = devices();
    let n = 123_457;
    let mut out1 = vec![0u64; n];
    let mut out4 = vec![0u64; n];
    d1.map(&mut out1, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
    d4.map(&mut out4, |i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
    assert_eq!(out1, out4);

    // Permutation scatter: reversal composed with a stride shuffle.
    let perm: Vec<u32> = (0..n as u32).map(|i| (n as u32 - 1) - i).collect();
    let src: Vec<u64> = pseudo_random(n, 5);
    let mut s1 = vec![0u64; n];
    let mut s4 = vec![0u64; n];
    d1.scatter(&mut s1, &perm, &src);
    d4.scatter(&mut s4, &perm, &src);
    assert_eq!(s1, s4);
}
