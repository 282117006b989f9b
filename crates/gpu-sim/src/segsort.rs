//! Segmented sort — the `moderngpu segsort` substitute.
//!
//! graph-core's CSR placement groups the directed arcs (the Euler tour's
//! half-edges) by tail with a counting sort, then orders each tail's run
//! of packed words here. Segments are described CSR-style by an `offsets`
//! array of `num_segments + 1` boundaries, as for
//! [`Device::map_segmented_reduce_into`].
//!
//! The launch is one virtual thread per key. It runs as node-aligned
//! pieces of about one grid chunk of keys each, spread over the pool like
//! the scan's block phases, so a pipeline's sort crosses the launch seam
//! like every other kernel. A segment never splits across pieces, so one
//! hub segment is one sequential sort (DESIGN.md §7).

use crate::device::Device;
use rayon::prelude::*;

impl Device {
    /// Sorts every segment `keys[offsets[s]..offsets[s + 1]]` in place, in
    /// one launch. The sort is unstable, so equal keys must be
    /// indistinguishable for the output to be deterministic.
    ///
    /// The launch carries no label of its own: the caller opens a
    /// [`Device::kernel_label`] that names it.
    ///
    /// # Panics
    /// Panics if `offsets` is empty or non-monotone, or does not end at
    /// `keys.len()`.
    pub fn segmented_sort<T: Ord + Send>(&self, offsets: &[u32], keys: &mut [T]) {
        assert!(
            !offsets.is_empty(),
            "segsort: offsets must contain at least one boundary"
        );
        let n = keys.len();
        assert_eq!(
            offsets[offsets.len() - 1] as usize,
            n,
            "segsort: offsets must end at the key count"
        );
        self.metrics().record_primitive();
        let bytes = size_of_val(keys) as u64;
        self.metrics()
            .record_traffic(bytes + 4 * offsets.len() as u64, bytes);
        let _cap = self
            .cap_bare_scope()
            .read(offsets)
            .read(&*keys)
            .write(&*keys);
        let _launch = self.launch(n);

        // Node-aligned pieces of about one grid chunk of keys each.
        let segments = offsets.len() - 1;
        let pieces = self.grid_blocks(n).max(1);
        let mut groups = Vec::with_capacity(pieces);
        let mut rest = &mut *keys;
        let mut lo = 0;
        for p in 1..=pieces {
            let hi = if p == pieces {
                segments
            } else {
                let target = n * p / pieces;
                offsets.partition_point(|&o| (o as usize) < target).max(lo)
            };
            let (group, tail) = rest.split_at_mut((offsets[hi] - offsets[lo]) as usize);
            groups.push((lo, hi, group));
            rest = tail;
            lo = hi;
        }
        // Non-monotone offsets give a reversed or out-of-bounds range, and
        // the slice index panics.
        let sort = |(lo, hi, group): (usize, usize, &mut [T])| {
            let base = offsets[lo] as usize;
            for s in lo..hi {
                group[offsets[s] as usize - base..offsets[s + 1] as usize - base].sort_unstable();
            }
        };
        if groups.len() <= 1 {
            groups.into_iter().for_each(sort);
        } else {
            self.run(|| groups.into_par_iter().for_each(sort));
        }
        self.san_mark_written(keys);
    }
}

#[cfg(test)]
mod tests {
    use crate::Device;

    /// Sorts each segment on the host — the reference.
    fn host_sorted(offsets: &[u32], keys: &[u64]) -> Vec<u64> {
        let mut out = keys.to_vec();
        for w in offsets.windows(2) {
            out[w[0] as usize..w[1] as usize].sort_unstable();
        }
        out
    }

    fn pseudo_random(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 20
            })
            .collect()
    }

    #[test]
    fn sorts_each_segment_and_nothing_across() {
        let device = Device::new();
        let mut keys = vec![5u64, 3, 9, 2, 2, 1, 8, 7];
        let offsets = [0u32, 3, 3, 5, 8];
        device.segmented_sort(&offsets, &mut keys);
        assert_eq!(keys, vec![3, 5, 9, 2, 2, 1, 7, 8]);
    }

    #[test]
    fn matches_host_sort_across_pieces() {
        // Segment lengths 0..40 cycling, well past one grid chunk; then
        // one hub segment of 90,000 keys followed by singletons.
        let mut cycling = vec![0u32];
        while (*cycling.last().unwrap() as usize) < 300_000 {
            let len = (cycling.len() % 40) as u32;
            cycling.push(cycling.last().unwrap() + len);
        }
        let mut hub = vec![0u32, 90_000];
        hub.extend((1..=10_000u32).map(|i| 90_000 + i));
        let device = Device::new();
        for offsets in [cycling, hub] {
            let keys = pseudo_random(*offsets.last().unwrap() as usize, 7);
            let mut got = keys.clone();
            device.segmented_sort(&offsets, &mut got);
            assert_eq!(got, host_sorted(&offsets, &keys));
        }
    }

    #[test]
    fn is_one_launch_with_one_work_item_per_key() {
        let device = Device::new();
        let offsets: Vec<u32> = (0..=20_000u32).map(|s| 5 * s).collect();
        let mut keys = pseudo_random(100_000, 11);
        let before = device.metrics().snapshot();
        device.segmented_sort(&offsets, &mut keys);
        let d = device.metrics().snapshot().since(&before);
        assert_eq!(d.kernel_launches, 1);
        assert_eq!(d.work_items, 100_000);
        assert_eq!(d.bytes_read, 8 * 100_000 + 4 * 20_001);
        assert_eq!(d.bytes_written, 8 * 100_000);
    }

    #[test]
    fn empty_inputs() {
        let device = Device::new();
        let mut none: Vec<u64> = Vec::new();
        device.segmented_sort(&[0], &mut none);
        device.segmented_sort(&[0, 0, 0], &mut none);
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "end at the key count")]
    fn offsets_must_cover_the_keys() {
        let device = Device::new();
        device.segmented_sort(&[0, 2], &mut [3u64, 2, 1]);
    }
}
