//! Property tests: every gpu-sim primitive against its std-library
//! reference on arbitrary inputs.

use gpu_sim::{Device, DeviceConfig};
use proptest::prelude::*;

fn small_device() -> Device {
    // Tiny blocks + low sequential threshold force the parallel code paths
    // even on proptest-sized inputs.
    Device::with_config(DeviceConfig {
        threads: None,
        block_size: 64,
        seq_threshold: 16,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scan_matches_reference(input in proptest::collection::vec(0u64..1_000_000, 0..4000)) {
        let device = small_device();
        let inc = device.add_scan_inclusive_u64(&input);
        let exc = device.add_scan_exclusive_u64(&input);
        let mut acc = 0u64;
        for i in 0..input.len() {
            prop_assert_eq!(exc[i], acc);
            acc += input[i];
            prop_assert_eq!(inc[i], acc);
        }
    }

    #[test]
    fn reduce_matches_iterator(input in proptest::collection::vec(any::<u32>(), 0..4000)) {
        let device = small_device();
        prop_assert_eq!(
            device.reduce_min_u32(&input),
            input.iter().copied().min().unwrap_or(u32::MAX)
        );
        prop_assert_eq!(
            device.reduce_max_u32(&input),
            input.iter().copied().max().unwrap_or(0)
        );
    }

    #[test]
    fn compact_matches_filter(input in proptest::collection::vec(any::<u32>(), 0..4000)) {
        let device = small_device();
        let got = device.compact(&input, |&v| v % 3 == 0);
        let expected: Vec<u32> = input.iter().copied().filter(|&v| v % 3 == 0).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn segreduce_matches_chunk_reduce(
        values in proptest::collection::vec(any::<u32>(), 0..2000),
        seg_len in 1usize..50
    ) {
        let device = small_device();
        let n = values.len();
        let mut offsets: Vec<u32> = (0..=n / seg_len).map(|s| (s * seg_len) as u32).collect();
        if *offsets.last().unwrap() as usize != n {
            offsets.push(n as u32);
        }
        let mins = device.segmented_min_u32(&values, &offsets);
        for (s, win) in offsets.windows(2).enumerate() {
            let expected = values[win[0] as usize..win[1] as usize]
                .iter()
                .copied()
                .min()
                .unwrap_or(u32::MAX);
            prop_assert_eq!(mins[s], expected);
        }
    }

    #[test]
    fn scatter_then_gather_roundtrip(n in 1usize..3000, seed in any::<u64>()) {
        let device = small_device();
        // Random permutation from the seed.
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut state = seed;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let src: Vec<u64> = (0..n as u64).map(|v| v * 7).collect();
        let mut scattered = vec![0u64; n];
        device.scatter(&mut scattered, &perm, &src);
        let mut back = vec![0u64; n];
        device.gather(&mut back, &perm, &scattered);
        prop_assert_eq!(back, src);
    }
}
