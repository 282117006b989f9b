//! The device scan core against a sequential reference: every primitive
//! built on the two-pass prefix-sum core (scans, fused scans, segmented
//! scans, compaction, radix-sort offsets, CSR offsets) must be
//! **bit-identical** to a plain left fold written in this file — across
//! operators, element types, adversarial lengths (block/chunk
//! boundaries), pool widths 1, 2 and 4, pooling on and off, and under the
//! full sanitizer with zero findings. The two engines compared are the
//! device core and that host-side fold; any divergence is a device bug.

use gpu_sim::{Device, DeviceConfig, SanitizeMode};
use proptest::prelude::*;

/// Small blocks + a low sequential threshold so the parallel core engages
/// on test-sized inputs.
fn dev(threads: usize, pooling: bool) -> Device {
    Device::with_config(DeviceConfig {
        threads: Some(threads),
        block_size: 64,
        seq_threshold: 16,
        pooling,
        ..Default::default()
    })
}

/// Pool widths every case runs at: the degenerate single worker, two
/// (a common host default), and four.
const WIDTHS: [usize; 3] = [1, 2, 4];

/// Runs `f` on a device of every pool width × pooling combination and
/// asserts each result equals `expected` bitwise.
fn assert_matches_reference<R, F>(expected: &R, f: F)
where
    R: PartialEq + std::fmt::Debug,
    F: Fn(&Device) -> R,
{
    for threads in WIDTHS {
        for pooling in [true, false] {
            assert_eq!(
                &f(&dev(threads, pooling)),
                expected,
                "device diverges from the reference at threads={threads} pooling={pooling}"
            );
        }
    }
}

/// Sequential inclusive scan: `out[i] = input[0] ⊕ … ⊕ input[i]`, folded
/// strictly left to right from `identity`.
fn fold_inclusive<T: Copy>(input: &[T], identity: T, op: impl Fn(T, T) -> T) -> Vec<T> {
    let mut acc = identity;
    input
        .iter()
        .map(|&v| {
            acc = op(acc, v);
            acc
        })
        .collect()
}

/// Sequential exclusive scan plus the total reduction.
fn fold_exclusive<T: Copy>(input: &[T], identity: T, op: impl Fn(T, T) -> T) -> (Vec<T>, T) {
    let mut acc = identity;
    let out = input
        .iter()
        .map(|&v| {
            let before = acc;
            acc = op(acc, v);
            before
        })
        .collect();
    (out, acc)
}

/// Lengths straddling every boundary of the simulated grid: empty, one
/// element, the sequential threshold (16) ± 1, the block/chunk size (64)
/// ± 1, a few blocks, and a long multi-block input.
const ADVERSARIAL_LENGTHS: &[usize] = &[0, 1, 2, 15, 16, 17, 63, 64, 65, 127, 128, 129, 257, 4096];

fn input_u64(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
        .collect()
}

fn input_u32(n: usize) -> Vec<u32> {
    (0..n as u64)
        .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as u32)
        .collect()
}

#[test]
fn add_scans_bit_identical_u64() {
    for &n in ADVERSARIAL_LENGTHS {
        let input = input_u64(n);
        let add = |a: u64, b: u64| a.wrapping_add(b);
        let expected = (
            fold_inclusive(&input, 0, add),
            fold_exclusive(&input, 0, add).0,
        );
        assert_matches_reference(&expected, |d| {
            (
                d.scan_inclusive(&input, 0u64, add),
                d.scan_exclusive(&input, 0u64, add),
            )
        });
    }
}

#[test]
fn min_max_scans_bit_identical_u32() {
    for &n in ADVERSARIAL_LENGTHS {
        let input = input_u32(n);
        let expected = (
            fold_inclusive(&input, u32::MAX, u32::min),
            fold_inclusive(&input, 0, u32::max),
        );
        assert_matches_reference(&expected, |d| {
            (
                d.scan_inclusive(&input, u32::MAX, |a, b| a.min(b)),
                d.scan_inclusive(&input, 0u32, |a, b| a.max(b)),
            )
        });
    }
}

#[test]
fn pair_scans_bit_identical() {
    // The segscan's flagged-pair shape: a non-commutative operator over a
    // padded (u32, u64) pair.
    let op = |a: (u32, u64), b: (u32, u64)| {
        if b.0 == 1 {
            b
        } else {
            (a.0, a.1.wrapping_add(b.1))
        }
    };
    for &n in ADVERSARIAL_LENGTHS {
        let pairs: Vec<(u32, u64)> = input_u64(n)
            .into_iter()
            .enumerate()
            .map(|(i, v)| ((i % 5 == 0) as u32, v % 1000))
            .collect();
        let expected = fold_inclusive(&pairs, (0, 0), op);
        assert_matches_reference(&expected, |d| d.scan_inclusive(&pairs, (0u32, 0u64), op));
    }
}

#[test]
fn exclusive_with_total_bit_identical() {
    for &n in ADVERSARIAL_LENGTHS {
        let input = input_u32(n);
        let add = |a: u32, b: u32| a.wrapping_add(b);
        let expected = fold_exclusive(&input, 0, add);
        assert_matches_reference(&expected, |d| {
            d.scan_exclusive_with_total(&input, 0u32, add)
        });
    }
}

#[test]
fn segscan_bit_identical() {
    for &n in ADVERSARIAL_LENGTHS {
        let values = input_u64(n).iter().map(|v| v % 1_000).collect::<Vec<_>>();
        // Irregular segment boundaries, including empties.
        let mut offsets = vec![0u32];
        let mut at = 0usize;
        let mut step = 1usize;
        while at < n {
            at = usize::min(at + step % 7, n);
            step = step.wrapping_mul(3).wrapping_add(1);
            offsets.push(at as u32);
        }
        if *offsets.last().unwrap() as usize != n {
            offsets.push(n as u32);
        }
        let expected: Vec<u64> = offsets
            .windows(2)
            .flat_map(|w| fold_inclusive(&values[w[0] as usize..w[1] as usize], 0, |a, b| a + b))
            .collect();
        assert_matches_reference(&expected, |d| d.segmented_add_scan_u64(&values, &offsets));
    }
}

#[test]
fn compact_bit_identical() {
    for &n in ADVERSARIAL_LENGTHS {
        let filter = |pred: fn(usize) -> bool| -> Vec<u32> {
            (0..n).filter(|&i| pred(i)).map(|i| i as u32).collect()
        };
        let expected = (filter(|i| i % 3 == 1), filter(|_| true), filter(|_| false));
        assert_matches_reference(&expected, |d| {
            (
                d.compact_indices(n, |i| i % 3 == 1),
                d.compact_indices(n, |_| true),
                d.compact_indices(n, |_| false),
            )
        });
    }
}

#[test]
fn radix_sort_bit_identical() {
    // The radix offsets ride the scan core; sorted output and payload
    // permutation must equal a stable sort by key.
    for &n in ADVERSARIAL_LENGTHS {
        let keys = input_u64(n);
        let vals: Vec<u32> = (0..n as u32).collect();
        let mut pairs: Vec<(u64, u32)> = keys.iter().copied().zip(vals.iter().copied()).collect();
        pairs.sort_by_key(|&(k, _)| k);
        let expected: (Vec<u64>, Vec<u32>) = pairs.into_iter().unzip();
        assert_matches_reference(&expected, |d| {
            let mut k = keys.clone();
            let mut v = vals.clone();
            d.sort_pairs_u64_u32(&mut k, &mut v);
            (k, v)
        });
    }
}

#[test]
fn csr_offsets_bit_identical() {
    // The degree-histogram → exclusive-scan shape of CSR construction.
    for &n in ADVERSARIAL_LENGTHS {
        let counts = input_u32(n).iter().map(|v| v % 9).collect::<Vec<_>>();
        let expected = fold_exclusive(&counts, 0, |a, b| a + b);
        assert_matches_reference(&expected, |d| {
            d.scan_exclusive_with_total(&counts, 0u32, |a, b| a + b)
        });
    }
}

#[test]
fn scan_core_is_clean_under_full_sanitizer() {
    let device = Device::with_config(DeviceConfig {
        threads: Some(4),
        block_size: 64,
        seq_threshold: 16,
        sanitize: SanitizeMode::Full,
        sanitize_fatal: false,
        ..Default::default()
    });
    let input = input_u64(5000);
    let _ = device.scan_inclusive(&input, 0u64, |a, b| a.wrapping_add(b));
    let _ = device.scan_exclusive(&input, 0u64, |a, b| a.wrapping_add(b));
    let _ = device.compact_indices(5000, |i| i % 7 != 0);
    let mut keys = input_u64(5000);
    device.sort_u64(&mut keys);
    let offsets: Vec<u32> = (0..=1000u32).map(|s| s * 5).collect();
    let vals = input_u64(5000).iter().map(|v| v % 100).collect::<Vec<_>>();
    let _ = device.segmented_add_scan_u64(&vals, &offsets);
    assert!(
        device.take_findings().is_empty(),
        "the scan core must be sanitizer-clean"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn prop_add_scan_engines_agree(input in proptest::collection::vec(any::<u64>(), 0..3000)) {
        let expected = fold_inclusive(&input, 0, |a: u64, b| a.wrapping_add(b));
        for threads in WIDTHS {
            let got = dev(threads, true).scan_inclusive(&input, 0u64, |a, b| a.wrapping_add(b));
            prop_assert_eq!(&got, &expected, "threads={}", threads);
        }
    }

    #[test]
    fn prop_min_scan_engines_agree(input in proptest::collection::vec(any::<u32>(), 0..3000)) {
        let expected = fold_inclusive(&input, u32::MAX, u32::min);
        let got = dev(4, true).scan_inclusive(&input, u32::MAX, |a, b| a.min(b));
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn prop_compact_engines_agree(n in 0usize..5000, modulus in 1usize..10) {
        let expected: Vec<u32> = (0..n as u32).filter(|&i| (i as usize).is_multiple_of(modulus)).collect();
        let got = dev(4, true).compact_indices(n, |i| i % modulus == 0);
        prop_assert_eq!(got, expected);
    }
}
