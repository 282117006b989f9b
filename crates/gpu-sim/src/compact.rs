//! Stream compaction (filter): flag → scan → scatter.
//!
//! Used to build BFS frontiers and to separate tree from non-tree edges.
//! Block counts/offsets come from the device arena;
//! [`Device::compact_indices_pooled`] also pools the output so a hot loop
//! compacts with zero allocation at steady state.
//!
//! Like the scans, the parallel path is two-pass: a count launch, a
//! host-side scan of the per-block survivor counts, and a write launch, so
//! the predicate is evaluated twice per element. Predicate evaluations are
//! modeled as one 4-byte read each in the traffic plane.

use crate::arena::ArenaVec;
use crate::device::{Device, SharedSlice};
use rayon::prelude::*;

impl Device {
    /// Returns, in ascending order, every index `i in 0..n` with `pred(i)`.
    ///
    /// Runs [`Device::compact_indices_pooled`] and copies the survivors out
    /// (the copy is a host-side transfer, not device traffic).
    pub fn compact_indices<F>(&self, n: usize, pred: F) -> Vec<u32>
    where
        F: Fn(usize) -> bool + Sync,
    {
        let out = self.compact_indices_pooled(n, pred);
        self.capture_host_read(&out[..]);
        out.to_vec()
    }

    /// [`Device::compact_indices`] with the output drawn from the device
    /// arena — the zero-allocation variant for hot loops.
    pub fn compact_indices_pooled<F>(&self, n: usize, pred: F) -> ArenaVec<'_, u32>
    where
        F: Fn(usize) -> bool + Sync,
    {
        self.metrics().record_primitive();
        if n == 0 {
            return self.alloc_pooled(0);
        }
        let out = {
            let _cap = self.cap_scope("compact");
            if n <= self.config().seq_threshold {
                let _launch = self.launch(n);
                let mut out = self.alloc_pooled::<u32>(n);
                let mut len = 0usize;
                for i in 0..n {
                    if pred(i) {
                        out[len] = i as u32;
                        len += 1;
                    }
                }
                out.truncate(len);
                self.metrics().record_traffic(4 * n as u64, 4 * len as u64);
                self.san_mark_written(&out[..]);
                out
            } else {
                // Both passes evaluate the predicate, so both declare its
                // inputs.
                self.cap_pending_to_scope();
                let (offsets, total, chunk, blocks) = self.compact_offsets(n, &pred);
                let mut out = self.alloc_pooled::<u32>(total);
                self.compact_write(n, &pred, &offsets, chunk, blocks, &mut out);
                out
            }
        };
        // The survivor region only exists (at its final truncated length)
        // after the launches ran, so the write is attributed afterwards.
        self.cap_note_output(&out[..]);
        out
    }

    /// Phases 1–2: per-block survivor counts scanned into block offsets.
    /// Returns `(offsets, total, chunk, blocks)`.
    fn compact_offsets<F>(&self, n: usize, pred: &F) -> (ArenaVec<'_, u32>, usize, usize, usize)
    where
        F: Fn(usize) -> bool + Sync,
    {
        let chunk = self.grid_chunk_len(n);
        let blocks = n.div_ceil(chunk);

        // Phase 1: count survivors per block.
        let counts = {
            let _launch = self.launch(n);
            self.metrics().record_traffic(4 * n as u64, 0);
            let mut counts = self.alloc_pooled::<u32>(blocks);
            self.run(|| {
                counts.par_iter_mut().enumerate().for_each(|(b, count)| {
                    let start = b * chunk;
                    let end = usize::min(start + chunk, n);
                    *count = (start..end).filter(|&i| pred(i)).count() as u32;
                });
            });
            counts
        };

        // Phase 2: block offsets (tiny, sequential).
        let mut offsets = self.alloc_pooled::<u32>(blocks);
        let mut acc = 0u32;
        for b in 0..blocks {
            offsets[b] = acc;
            acc += counts[b];
        }
        (offsets, acc as usize, chunk, blocks)
    }

    /// Phase 3: write survivors into `out` (sized to the survivor total).
    fn compact_write<F>(
        &self,
        n: usize,
        pred: &F,
        offsets: &[u32],
        chunk: usize,
        blocks: usize,
        out: &mut [u32],
    ) where
        F: Fn(usize) -> bool + Sync,
    {
        let _launch = self.launch(n);
        self.metrics()
            .record_traffic(4 * n as u64, 4 * out.len() as u64);
        let shared = SharedSlice::new(out);
        self.run(|| {
            (0..blocks).into_par_iter().for_each(|b| {
                let start = b * chunk;
                let end = usize::min(start + chunk, n);
                let mut pos = offsets[b] as usize;
                for i in start..end {
                    if pred(i) {
                        // SAFETY: blocks own disjoint [offset, offset+count)
                        // output ranges by construction of the offsets.
                        unsafe { shared.write_unchecked(pos, i as u32) };
                        pos += 1;
                    }
                }
            });
        });
        self.san_mark_written(out);
    }

    /// Keeps the elements of `input` whose *value* satisfies `pred`,
    /// preserving order.
    pub fn compact<T, F>(&self, input: &[T], pred: F) -> Vec<T>
    where
        T: Copy + Send + Sync,
        F: Fn(&T) -> bool + Sync,
    {
        let idx = self.compact_indices_pooled(input.len(), |i| pred(&input[i]));
        if idx.is_empty() {
            return Vec::new();
        }
        let mut out = vec![input[0]; idx.len()];
        self.gather(&mut out, &idx, input);
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::Device;

    #[test]
    fn keeps_evens_in_order() {
        let device = Device::new();
        let out = device.compact_indices(100_000, |i| i % 2 == 0);
        assert_eq!(out.len(), 50_000);
        for (j, &i) in out.iter().enumerate() {
            assert_eq!(i as usize, 2 * j);
        }
    }

    #[test]
    fn empty_input() {
        let device = Device::new();
        assert!(device.compact_indices(0, |_| true).is_empty());
    }

    #[test]
    fn nothing_survives() {
        let device = Device::new();
        assert!(device.compact_indices(50_000, |_| false).is_empty());
    }

    #[test]
    fn everything_survives() {
        let device = Device::new();
        let out = device.compact_indices(30_000, |_| true);
        assert_eq!(out.len(), 30_000);
        assert!(out.windows(2).all(|w| w[0] + 1 == w[1]));
    }

    #[test]
    fn compact_values() {
        let device = Device::new();
        let input: Vec<u32> = (0..80_000).collect();
        let out = device.compact(&input, |&v| v % 1000 == 7);
        assert_eq!(out.len(), 80);
        assert_eq!(out[0], 7);
        assert_eq!(out[79], 79_007);
    }

    #[test]
    fn small_input_sequential_path() {
        let device = Device::new();
        let out = device.compact_indices(10, |i| i >= 5);
        assert_eq!(out, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn pooled_matches_allocating() {
        let device = Device::new();
        for n in [0usize, 10, 5000, 120_000] {
            let expect = device.compact_indices(n, |i| i % 3 == 1);
            let got = device.compact_indices_pooled(n, |i| i % 3 == 1);
            assert_eq!(&*got, &expect[..], "n={n}");
        }
    }

    #[test]
    fn steady_state_pooled_compaction_allocates_nothing() {
        let device = Device::new();
        let run = || {
            let v = device.compact_indices_pooled(100_000, |i| i % 7 == 0);
            assert_eq!(v.len(), 100_000usize.div_ceil(7));
        };
        run();
        let before = device.metrics().snapshot();
        for _ in 0..4 {
            run();
        }
        let d = device.metrics().snapshot().since(&before);
        assert_eq!(d.bytes_allocated, 0);
    }
}
