//! Parallel prefix sums (the `scan` primitive).
//!
//! The paper's §2.2 optimization rests on the observation that on a GPU the
//! array scan primitive is much faster than list ranking (7–8× per \[64\]), so
//! an Euler tour should be list-ranked *once* and every subsequent statistic
//! computed by scans over the resulting array. One core backs every entry
//! point (and the compaction and CSR offsets built on it):
//! the classic three-phase blocked algorithm — per-block reduce, exclusive
//! scan of block sums, per-block downsweep — the moderngpu/CUB structure
//! the paper uses. It costs 2 launches and ~2 reads + 1 write per element;
//! DESIGN.md §10 records why it beat a single-pass decoupled-lookback core
//! on this simulator.
//!
//! All operators must be associative; they need not be commutative.
//!
//! Two families of entry points:
//!
//! * allocating (`scan_inclusive`, `scan_exclusive`, ...) — return a fresh
//!   `Vec`;
//! * zero-allocation (`scan_inclusive_into`, `scan_exclusive_into`,
//!   [`Device::map_scan_inclusive_into`], ...) — write into a caller
//!   buffer and draw the per-block scratch from the device arena, so
//!   repeated launches allocate nothing at steady state. The `map_scan`
//!   variants additionally **fuse** an elementwise transform into the scan
//!   (the generator runs inside the block passes instead of materializing
//!   an intermediate array — a launch and an n-sized buffer saved).

use crate::arena::ArenaPod;
use crate::device::Device;
use rayon::prelude::*;

impl Device {
    /// Inclusive scan: `out[i] = input[0] ⊕ … ⊕ input[i]`.
    pub fn scan_inclusive<T, F>(&self, input: &[T], identity: T, op: F) -> Vec<T>
    where
        T: ArenaPod,
        F: Fn(T, T) -> T + Sync,
    {
        let mut out = vec![identity; input.len()];
        self.capture_read(input);
        self.map_scan_into(input.len(), |i| input[i], &mut out, identity, &op, true);
        out
    }

    /// Exclusive scan: `out[i] = identity ⊕ input[0] ⊕ … ⊕ input[i-1]`.
    pub fn scan_exclusive<T, F>(&self, input: &[T], identity: T, op: F) -> Vec<T>
    where
        T: ArenaPod,
        F: Fn(T, T) -> T + Sync,
    {
        let mut out = vec![identity; input.len()];
        self.capture_read(input);
        self.map_scan_into(input.len(), |i| input[i], &mut out, identity, &op, false);
        out
    }

    /// Exclusive scan that also returns the total reduction of the input —
    /// the shape needed by stream compaction.
    pub fn scan_exclusive_with_total<T, F>(&self, input: &[T], identity: T, op: F) -> (Vec<T>, T)
    where
        T: ArenaPod,
        F: Fn(T, T) -> T + Sync,
    {
        let mut out = vec![identity; input.len()];
        self.capture_read(input);
        let total = self.map_scan_into(input.len(), |i| input[i], &mut out, identity, &op, false);
        (out, total)
    }

    /// Inclusive scan into a caller buffer; block scratch comes from the
    /// device arena (zero allocation at steady state). Returns the total.
    ///
    /// # Panics
    /// Panics if `input.len() != out.len()`.
    pub fn scan_inclusive_into<T, F>(&self, input: &[T], out: &mut [T], identity: T, op: F) -> T
    where
        T: ArenaPod,
        F: Fn(T, T) -> T + Sync,
    {
        assert_eq!(input.len(), out.len(), "scan: input/output length mismatch");
        self.capture_read(input);
        self.map_scan_into(input.len(), |i| input[i], out, identity, &op, true)
    }

    /// Exclusive scan into a caller buffer; block scratch comes from the
    /// device arena. Returns the total reduction.
    ///
    /// # Panics
    /// Panics if `input.len() != out.len()`.
    pub fn scan_exclusive_into<T, F>(&self, input: &[T], out: &mut [T], identity: T, op: F) -> T
    where
        T: ArenaPod,
        F: Fn(T, T) -> T + Sync,
    {
        assert_eq!(input.len(), out.len(), "scan: input/output length mismatch");
        self.capture_read(input);
        self.map_scan_into(input.len(), |i| input[i], out, identity, &op, false)
    }

    /// Fused transform + inclusive scan: `out[i] = gen(0) ⊕ … ⊕ gen(i)`
    /// without materializing the generated array. Returns the total.
    ///
    /// `gen` must be pure — the blocked scan evaluates it twice per index
    /// (once in the block-reduce pass, once in the downsweep).
    ///
    /// # Panics
    /// Panics if `out.len() != n`.
    pub fn map_scan_inclusive_into<T, G, F>(
        &self,
        n: usize,
        gen: G,
        out: &mut [T],
        identity: T,
        op: F,
    ) -> T
    where
        T: ArenaPod,
        G: Fn(usize) -> T + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        assert_eq!(out.len(), n, "map_scan: output length mismatch");
        let _fused = self.cap_scope("").fused();
        self.map_scan_into(n, gen, out, identity, &op, true)
    }

    /// Fused transform + exclusive scan (see
    /// [`Device::map_scan_inclusive_into`]). Returns the total.
    ///
    /// # Panics
    /// Panics if `out.len() != n`.
    pub fn map_scan_exclusive_into<T, G, F>(
        &self,
        n: usize,
        gen: G,
        out: &mut [T],
        identity: T,
        op: F,
    ) -> T
    where
        T: ArenaPod,
        G: Fn(usize) -> T + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        assert_eq!(out.len(), n, "map_scan: output length mismatch");
        let _fused = self.cap_scope("").fused();
        self.map_scan_into(n, gen, out, identity, &op, false)
    }

    /// The shared body of every scan entry point: handles the empty and
    /// sequential small-`n` cases, then runs the two-pass core over the
    /// parallel grid. Per-block scratch comes from the arena.
    fn map_scan_into<T, G, F>(
        &self,
        n: usize,
        gen: G,
        out: &mut [T],
        identity: T,
        op: &F,
        inclusive: bool,
    ) -> T
    where
        T: ArenaPod,
        G: Fn(usize) -> T + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        assert_eq!(out.len(), n, "scan: output length mismatch");
        self.metrics().record_primitive();
        if n == 0 {
            return identity;
        }
        let _cap = self.cap_scope("scan").write(&*out);
        if n <= self.config().seq_threshold {
            // The same accounting rule as the two-pass core: one read
            // per generator evaluation (once here) and one write per
            // element, in a single launch.
            let bytes = (n * size_of::<T>()) as u64;
            let _launch = self.launch(n);
            self.metrics().record_traffic(bytes, bytes);
            let mut acc = identity;
            for (i, slot) in out.iter_mut().enumerate() {
                if inclusive {
                    acc = op(acc, gen(i));
                    *slot = acc;
                } else {
                    *slot = acc;
                    acc = op(acc, gen(i));
                }
            }
            self.san_mark_written(out);
            return acc;
        }
        self.scan_two_pass(n, &gen, out, identity, op, inclusive)
    }

    /// The classic three-phase blocked scan over a generated source: block
    /// reduce, (host-side) exclusive scan of block sums, downsweep. Two
    /// kernel launches; the input is generated twice, so ~2 reads + 1
    /// write per element. The phase-2 scan runs over O(blocks) grid
    /// bookkeeping on the host between the launches — like a launch's
    /// parameter setup, it counts as neither a launch nor traffic.
    fn scan_two_pass<T, G, F>(
        &self,
        n: usize,
        gen: &G,
        out: &mut [T],
        identity: T,
        op: &F,
        inclusive: bool,
    ) -> T
    where
        T: ArenaPod,
        G: Fn(usize) -> T + Sync,
        F: Fn(T, T) -> T + Sync,
    {
        debug_assert!(n > 0);
        // Both passes evaluate the generator, so both declare its inputs.
        self.cap_pending_to_scope();
        // Shared grid sizing caps blocks at a few per pool worker, so the
        // sequential phase-2 scan of block sums stays negligible while the
        // real worker count stays saturated.
        let chunk = self.grid_chunk_len(n);
        let blocks = n.div_ceil(chunk);
        let mut block_scratch = self.alloc_pooled::<T>(2 * blocks);
        let (block_sums, block_offsets) = block_scratch.split_at_mut(blocks);
        let bytes = (n * size_of::<T>()) as u64;

        // Phase 1 (parallel): reduce each block — the first input read.
        {
            let _launch = self.launch(n);
            self.metrics().record_traffic(bytes, 0);
            self.run(|| {
                block_sums[..blocks]
                    .par_iter_mut()
                    .enumerate()
                    .for_each(|(b, sum)| {
                        let start = b * chunk;
                        let end = usize::min(start + chunk, n);
                        let mut acc = identity;
                        for i in start..end {
                            acc = op(acc, gen(i));
                        }
                        *sum = acc;
                    });
            });
        }

        // Phase 2 (host, tiny): exclusive scan of the block sums.
        let mut acc = identity;
        for b in 0..blocks {
            block_offsets[b] = acc;
            acc = op(acc, block_sums[b]);
        }
        let total = acc;

        // Phase 3 (parallel): downsweep each block from its offset — the
        // second input read and the output write.
        let _launch = self.launch(n);
        self.metrics().record_traffic(bytes, bytes);
        let block_offsets = &block_offsets[..blocks];
        self.run(|| {
            out.par_chunks_mut(chunk)
                .enumerate()
                .for_each(|(b, chunk_out)| {
                    let start = b * chunk;
                    let mut acc = block_offsets[b];
                    for (j, slot) in chunk_out.iter_mut().enumerate() {
                        let v = gen(start + j);
                        if inclusive {
                            acc = op(acc, v);
                            *slot = acc;
                        } else {
                            *slot = acc;
                            acc = op(acc, v);
                        }
                    }
                });
        });
        self.san_mark_written(out);
        total
    }

    /// Convenience additive inclusive scan on `u64` (pooled scratch).
    pub fn add_scan_inclusive_u64(&self, input: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; input.len()];
        self.scan_inclusive_into(input, &mut out, 0u64, |a, b| a + b);
        out
    }

    /// Convenience additive exclusive scan on `u64` (pooled scratch).
    pub fn add_scan_exclusive_u64(&self, input: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; input.len()];
        self.scan_exclusive_into(input, &mut out, 0u64, |a, b| a + b);
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::Device;

    fn reference_inclusive(input: &[u64]) -> Vec<u64> {
        let mut acc = 0;
        input
            .iter()
            .map(|&v| {
                acc += v;
                acc
            })
            .collect()
    }

    #[test]
    fn inclusive_matches_reference_small() {
        let device = Device::new();
        let input: Vec<u64> = (0..100).collect();
        assert_eq!(
            device.add_scan_inclusive_u64(&input),
            reference_inclusive(&input)
        );
    }

    #[test]
    fn inclusive_matches_reference_large() {
        let device = Device::new();
        let input: Vec<u64> = (0..200_000).map(|i| (i * 7 + 3) % 11).collect();
        assert_eq!(
            device.add_scan_inclusive_u64(&input),
            reference_inclusive(&input)
        );
    }

    #[test]
    fn exclusive_shifts_by_one() {
        let device = Device::new();
        let input: Vec<u64> = (1..=50_000).collect();
        let inc = device.add_scan_inclusive_u64(&input);
        let exc = device.add_scan_exclusive_u64(&input);
        assert_eq!(exc[0], 0);
        for i in 1..input.len() {
            assert_eq!(exc[i], inc[i - 1]);
        }
    }

    #[test]
    fn with_total_returns_sum() {
        let device = Device::new();
        let input: Vec<u64> = vec![5; 99_999];
        let (_, total) = device.scan_exclusive_with_total(&input, 0, |a, b| a + b);
        assert_eq!(total, 5 * 99_999);
    }

    #[test]
    fn empty_scan() {
        let device = Device::new();
        assert!(device.add_scan_inclusive_u64(&[]).is_empty());
        let (v, t) = device.scan_exclusive_with_total(&[], 0u64, |a, b| a + b);
        assert!(v.is_empty());
        assert_eq!(t, 0);
    }

    #[test]
    fn single_element() {
        let device = Device::new();
        assert_eq!(device.add_scan_inclusive_u64(&[42]), vec![42]);
        assert_eq!(device.add_scan_exclusive_u64(&[42]), vec![0]);
    }

    #[test]
    fn non_commutative_operator_max_then_concat_order() {
        // String-length-free associative but non-commutative op:
        // f((a1,b1),(a2,b2)) = (a1, b2) composed over pairs keeps first/last.
        let device = Device::new();
        let input: Vec<(u32, u32)> = (0..50_000).map(|i| (i, i)).collect();
        let scanned = device.scan_inclusive(&input, (u32::MAX, u32::MAX), |a, b| {
            let first = if a.0 == u32::MAX { b.0 } else { a.0 };
            (first, b.1)
        });
        // Inclusive scan with "keep first, take last" must yield (0, i).
        for (i, &(f, l)) in scanned.iter().enumerate() {
            assert_eq!(f, 0);
            assert_eq!(l, i as u32);
        }
    }

    #[test]
    fn signed_level_scan() {
        let device = Device::new();
        // +1/-1 pattern like Euler tour levels.
        let input: Vec<i64> = (0..10_000)
            .map(|i| if i % 2 == 0 { 1 } else { -1 })
            .collect();
        let out = device.scan_inclusive(&input, 0, |a, b| a + b);
        assert_eq!(out[0], 1);
        assert_eq!(out[1], 0);
        assert_eq!(*out.last().unwrap(), 0);
    }

    #[test]
    fn into_variants_match_allocating() {
        let device = Device::new();
        let input: Vec<u64> = (0..150_000).map(|i| (i * 13 + 5) % 97).collect();
        let mut inc = vec![0u64; input.len()];
        let t_inc = device.scan_inclusive_into(&input, &mut inc, 0, |a, b| a + b);
        assert_eq!(inc, device.scan_inclusive(&input, 0, |a, b| a + b));
        let mut exc = vec![0u64; input.len()];
        let t_exc = device.scan_exclusive_into(&input, &mut exc, 0, |a, b| a + b);
        let (exc_ref, total_ref) = device.scan_exclusive_with_total(&input, 0, |a, b| a + b);
        assert_eq!(exc, exc_ref);
        assert_eq!(t_exc, total_ref);
        assert_eq!(t_inc, total_ref);
    }

    #[test]
    fn map_scan_fuses_transform() {
        let device = Device::new();
        let n = 120_000;
        // Reference: materialize then scan.
        let materialized: Vec<u64> = (0..n as u64).map(|i| i % 7 + 1).collect();
        let expect = device.add_scan_inclusive_u64(&materialized);
        let mut fused = vec![0u64; n];
        let total =
            device.map_scan_inclusive_into(n, |i| (i as u64) % 7 + 1, &mut fused, 0, |a, b| a + b);
        assert_eq!(fused, expect);
        assert_eq!(total, *expect.last().unwrap());

        let expect_exc = device.add_scan_exclusive_u64(&materialized);
        let mut fused_exc = vec![0u64; n];
        device.map_scan_exclusive_into(n, |i| (i as u64) % 7 + 1, &mut fused_exc, 0, |a, b| a + b);
        assert_eq!(fused_exc, expect_exc);
    }

    #[test]
    fn steady_state_scans_allocate_nothing() {
        let device = Device::new();
        let input: Vec<u64> = (0..200_000).collect();
        let mut out = vec![0u64; input.len()];
        // Warm the pool.
        device.scan_inclusive_into(&input, &mut out, 0, |a, b| a + b);
        let before = device.metrics().snapshot();
        for _ in 0..5 {
            device.scan_inclusive_into(&input, &mut out, 0, |a, b| a + b);
        }
        let d = device.metrics().snapshot().since(&before);
        assert_eq!(d.bytes_allocated, 0, "steady-state scan must not allocate");
        assert!(d.bytes_reused > 0);
    }

    #[test]
    fn min_scan_with_custom_op() {
        let device = Device::new();
        let input: Vec<u32> = (0..30_000).map(|i| 30_000 - i).collect();
        let out = device.scan_inclusive(&input, u32::MAX, |a, b| a.min(b));
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 30_000 - i as u32);
        }
    }
}
