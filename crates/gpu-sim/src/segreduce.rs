//! Segmented reduction — the `moderngpu segreduce` substitute.
//!
//! The Tarjan–Vishkin implementation uses segmented reduction to compute,
//! for every node, the minimum and maximum preorder number among its
//! non-tree neighbors (§4.1). Segments are described CSR-style by an
//! `offsets` array of `num_segments + 1` boundaries into the slot range,
//! and a generator computes each slot's value, so the one entry point,
//! [`Device::map_segmented_reduce_into`], never materializes a per-slot
//! value array.
//!
//! Load balancing note: each segment is reduced by one virtual thread. For
//! power-law degree graphs a hub segment can dominate a block; the grids the
//! workspace runs keep total per-block work bounded by the block's summed
//! degrees, which matches the behaviour (not the micro-optimizations) of
//! GPU segreduce kernels.

use crate::device::Device;

impl Device {
    /// Fused gather + segmented reduce: reduces, for each segment `s`, the
    /// generated values `gen(offsets[s]) .. gen(offsets[s+1])` — without
    /// materializing the per-slot value array. This is the paper's
    /// "per-node extremes of non-tree neighbor preorders" shape: the CSR
    /// adjacency provides the segments and `gen` computes each slot's
    /// contribution on the fly.
    ///
    /// # Panics
    /// Panics if `offsets` is empty or non-monotone, or if
    /// `out.len() + 1 != offsets.len()`.
    pub fn map_segmented_reduce_into<T, G, F>(
        &self,
        offsets: &[u32],
        identity: T,
        gen: G,
        op: F,
        out: &mut [T],
    ) where
        T: Copy + Send + Sync,
        G: Fn(usize) -> T + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        assert!(
            !offsets.is_empty(),
            "segreduce: offsets must contain at least one boundary"
        );
        let segments = offsets.len() - 1;
        assert_eq!(out.len(), segments, "segreduce: output length mismatch");
        self.metrics().record_primitive();
        let slots = *offsets.last().unwrap() as u64;
        self.metrics().record_traffic(
            slots * size_of::<T>() as u64 + (offsets.len() as u64) * 4,
            (segments * size_of::<T>()) as u64,
        );
        let _cap = self
            .cap_scope("segreduce")
            .fused()
            .read(offsets)
            .write(&*out);
        self.map(out, |s| {
            let start = offsets[s] as usize;
            let end = offsets[s + 1] as usize;
            assert!(start <= end, "segreduce: offsets must be monotone");
            let mut acc = identity;
            for slot in start..end {
                acc = op(acc, gen(slot));
            }
            acc
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::Device;

    /// Reduces `values` per segment through the fused generator.
    fn segreduce(
        device: &Device,
        values: &[u32],
        offsets: &[u32],
        identity: u32,
        op: impl Fn(u32, u32) -> u32 + Sync,
    ) -> Vec<u32> {
        let mut out = vec![0u32; offsets.len() - 1];
        device.map_segmented_reduce_into(offsets, identity, |s| values[s], op, &mut out);
        out
    }

    #[test]
    fn basic_segments() {
        let device = Device::new();
        let values = [3u32, 1, 4, 1, 5, 9, 2, 6];
        let offsets = [0u32, 3, 3, 5, 8];
        let mins = segreduce(&device, &values, &offsets, u32::MAX, u32::min);
        assert_eq!(mins, vec![1, u32::MAX, 1, 2]);
        let maxs = segreduce(&device, &values, &offsets, 0, u32::max);
        assert_eq!(maxs, vec![4, 0, 5, 9]);
    }

    #[test]
    fn sum_segments_large() {
        let device = Device::new();
        // 10_000 segments of length 5 each.
        let values: Vec<u32> = (0..50_000).map(|i| (i % 7) as u32).collect();
        let offsets: Vec<u32> = (0..=10_000u32).map(|s| s * 5).collect();
        let sums = segreduce(&device, &values, &offsets, 0, |a, b| a + b);
        for (s, &sum) in sums.iter().enumerate() {
            let expect: u32 = (0..5).map(|j| ((s * 5 + j) % 7) as u32).sum();
            assert_eq!(sum, expect);
        }
    }

    #[test]
    fn single_segment_covers_all() {
        let device = Device::new();
        let values: Vec<u32> = (0..1000).collect();
        let out = segreduce(&device, &values, &[0, 1000], 0, u32::max);
        assert_eq!(out, vec![999]);
    }

    #[test]
    fn zero_segments() {
        let device = Device::new();
        let out = segreduce(&device, &[], &[0], u32::MAX, u32::min);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn mismatched_offsets_panic() {
        let device = Device::new();
        let mut out = vec![0u32; 2];
        device.map_segmented_reduce_into(&[0, 2], u32::MAX, |s| s as u32, u32::min, &mut out);
    }

    #[test]
    fn skewed_segments() {
        let device = Device::new();
        // One hub segment of 90_000 values plus many singletons.
        let mut values: Vec<u32> = (0..90_000).collect();
        values.extend(0..10_000u32);
        let mut offsets = vec![0u32, 90_000];
        offsets.extend((1..=10_000u32).map(|i| 90_000 + i));
        let mins = segreduce(&device, &values, &offsets, u32::MAX, u32::min);
        assert_eq!(mins[0], 0);
        assert_eq!(mins.len(), 10_001);
        assert_eq!(mins[1], 0);
        assert_eq!(mins[10_000], 9_999);
    }
}
