//! Stable LSD radix sort — the `moderngpu` mergesort substitute used for
//! DCEL construction (§2.1 of the paper: "the costly sorting").
//!
//! Keys are `u64` (the DCEL packs a directed half-edge `(u, v)` as
//! `u << 32 | v`) or `u32`; an optional `u32` payload rides along with
//! `u64` keys (the half-edge id, which becomes the cross-pointer between
//! the unsorted array A and its sorted copy B). The sort processes 8-bit
//! digits least-significant-first with per-chunk histograms, a column-major
//! offset scan, and a stable scatter — skipping the high-order passes that
//! the maximum key does not reach. One width-generic core serves both key
//! types, ping-ponging between the caller's buffer and a single scratch
//! allocation.

use crate::arena::ArenaPod;
use crate::device::{Device, SharedSlice};
use rayon::prelude::*;

const RADIX_BITS: u32 = 8;
const BUCKETS: usize = 1 << RADIX_BITS;

/// An unsigned key type the radix core can digit-decompose.
trait RadixKey: ArenaPod + Ord + Default {
    /// Key width in bits (bounds the pass count).
    const BITS: u32;
    /// The 8-bit digit at `shift`.
    fn digit(self, shift: u32) -> usize;
    /// Leading zero bits (for pass skipping off the maximum key).
    fn lz(self) -> u32;
}

impl RadixKey for u64 {
    const BITS: u32 = 64;
    #[inline]
    fn digit(self, shift: u32) -> usize {
        ((self >> shift) as usize) & (BUCKETS - 1)
    }
    #[inline]
    fn lz(self) -> u32 {
        self.leading_zeros()
    }
}

impl RadixKey for u32 {
    const BITS: u32 = 32;
    #[inline]
    fn digit(self, shift: u32) -> usize {
        ((self >> shift) as usize) & (BUCKETS - 1)
    }
    #[inline]
    fn lz(self) -> u32 {
        self.leading_zeros()
    }
}

impl Device {
    /// Sorts `keys` ascending in place (stable, though equal `u64`s are
    /// indistinguishable without a payload).
    pub fn sort_u64(&self, keys: &mut [u64]) {
        self.radix_sort(keys, None);
    }

    /// Sorts `keys` ascending in place, permuting `vals` identically
    /// (stable).
    ///
    /// # Panics
    /// Panics if the two slices differ in length.
    pub fn sort_pairs_u64_u32(&self, keys: &mut [u64], vals: &mut [u32]) {
        assert_eq!(keys.len(), vals.len(), "sort_pairs: length mismatch");
        self.radix_sort(keys, Some(vals));
    }

    /// Sorts a `u32` slice ascending over the native 32-bit radix path: at
    /// most four 8-bit passes ping-ponging between `keys` and one scratch
    /// buffer — no widening through a freshly allocated `Vec<u64>`, so
    /// memory traffic per pass is halved.
    pub fn sort_u32(&self, keys: &mut [u32]) {
        self.metrics().record_primitive();
        let n = keys.len();
        if n <= self.config().seq_threshold {
            if n == 0 {
                return;
            }
            // Same taxonomy as the parallel path: a launch that reads and
            // rewrites every key, even when n is too small to permute.
            let bytes = 4 * n as u64;
            let _cap = self.cap_scope("sort").read(keys).write(keys);
            let _launch = self.launch(n);
            self.metrics().record_traffic(bytes, bytes);
            keys.sort_unstable();
            self.san_mark_written(keys);
            return;
        }
        self.radix_passes(keys, None);
    }

    /// Returns the permutation that sorts `keys`: `perm[rank] = original
    /// index`. `keys` itself is left untouched.
    pub fn argsort_u64(&self, keys: &[u64]) -> Vec<u32> {
        let mut perm = vec![0u32; keys.len()];
        self.argsort_u64_into(keys, &mut perm);
        perm
    }

    /// [`Device::argsort_u64`] into a caller buffer; the working key copy
    /// comes from the device arena (zero allocation at steady state).
    ///
    /// # Panics
    /// Panics if `perm.len() != keys.len()`.
    pub fn argsort_u64_into(&self, keys: &[u64], perm: &mut [u32]) {
        assert_eq!(perm.len(), keys.len(), "argsort: perm length mismatch");
        let mut k = self.alloc_copied(keys);
        self.map(perm, |i| i as u32);
        self.sort_pairs_u64_u32(&mut k, perm);
    }

    fn radix_sort(&self, keys: &mut [u64], vals: Option<&mut [u32]>) {
        let n = keys.len();
        self.metrics().record_primitive();
        if n == 0 {
            return;
        }
        if n <= self.config().seq_threshold {
            // A payload sorts as zipped pairs, built by their own map
            // launch before the sort's launch opens.
            let zipped = match &vals {
                Some(v) if n > 1 => Some(self.alloc_pooled_map(n, |i| (keys[i], v[i]))),
                _ => None,
            };
            let elem = 8 + if vals.is_some() { 4 } else { 0 };
            let bytes = (elem * n) as u64;
            let cap = self.cap_scope("sort").read(keys).write(keys);
            let _cap = match &vals {
                Some(v) => cap.read(v).write(v),
                None => cap,
            };
            let _launch = self.launch(n);
            self.metrics().record_traffic(bytes, bytes);
            match (zipped, vals) {
                (Some(mut zipped), Some(vals)) => {
                    zipped.sort_by_key(|p| p.0); // stable
                    for (i, &(k, v)) in zipped.iter().enumerate() {
                        keys[i] = k;
                        vals[i] = v;
                    }
                    self.san_mark_written(vals);
                }
                (_, vals) => {
                    keys.sort_unstable();
                    if let Some(v) = vals {
                        self.san_mark_written(v);
                    }
                }
            }
            self.san_mark_written(keys);
            return;
        }
        self.radix_passes(keys, vals);
    }

    /// The width-generic radix core: per-chunk histograms, a column-major
    /// exclusive offset scan, and a stable scatter per 8-bit pass,
    /// ping-ponging `keys` (and the optional payload) against one scratch
    /// buffer each. Passes above the maximum key's top digit are skipped.
    /// All scratch (ping-pong buffers, histograms, offsets) comes from the
    /// device arena, so repeated sorts allocate nothing at steady state.
    fn radix_passes<K: RadixKey>(&self, keys: &mut [K], mut vals: Option<&mut [u32]>) {
        let n = keys.len();
        let max_key = self.reduce(keys, K::default(), |a, b| a.max(b));
        let significant_bits = K::BITS - max_key.lz();
        let passes = usize::max(1, (significant_bits as usize).div_ceil(RADIX_BITS as usize));

        let chunk = self.grid_chunk_len(n);
        let nchunks = n.div_ceil(chunk);
        let key_bytes = std::mem::size_of_val(keys) as u64;
        let val_bytes = if vals.is_some() { 4 * n as u64 } else { 0 };

        let mut scratch_k = self.alloc_pooled::<K>(n);
        let mut scratch_v = self.alloc_pooled::<u32>(if vals.is_some() { n } else { 0 });
        let mut hist = self.alloc_pooled::<u32>(nchunks * BUCKETS);
        let mut offsets = self.alloc_pooled::<u32>(nchunks * BUCKETS);
        let mut in_keys = true; // where the current source lives

        for pass in 0..passes {
            let shift = pass as u32 * RADIX_BITS;
            let (src_k, dst_k): (&[K], &mut [K]) = if in_keys {
                (&*keys, &mut scratch_k)
            } else {
                (&scratch_k, &mut *keys)
            };
            let (src_v, dst_v): (&[u32], &mut [u32]) = match &mut vals {
                Some(v) if in_keys => (&**v, &mut scratch_v),
                Some(v) => (&scratch_v, &mut **v),
                None => (&[], &mut []),
            };
            let has_vals = !src_v.is_empty();

            // Per-chunk digit histograms (the histograms themselves are
            // per-block privatized state — not data-plane traffic).
            {
                let _cap = self.cap_scope("sort.hist").read(src_k);
                let _launch = self.launch(n);
                self.metrics().record_traffic(key_bytes, 0);
                self.run(|| {
                    hist.par_chunks_mut(BUCKETS).enumerate().for_each(|(c, h)| {
                        h.fill(0);
                        let start = c * chunk;
                        let end = usize::min(start + chunk, n);
                        for &k in &src_k[start..end] {
                            h[k.digit(shift)] += 1;
                        }
                    });
                });
            }

            // Exclusive offset scan for (digit, chunk) pairs, through the
            // configured scan engine; the fused generator walks the
            // row-major histogram in column-major (digit-major) order, so
            // `offsets[d * nchunks + c]` is where chunk `c` starts writing
            // digit `d` — the transpose costs nothing extra.
            let hist_ref = &hist;
            self.map_scan_exclusive_into(
                nchunks * BUCKETS,
                |i| hist_ref[(i % nchunks) * BUCKETS + i / nchunks],
                &mut offsets,
                0u32,
                |a, b| a + b,
            );

            // Stable scatter: chunks write their elements in order, each
            // digit region partitioned among chunks by the offset matrix.
            {
                let cap = self
                    .cap_scope("sort.scatter")
                    .read(src_k)
                    .read(&offsets[..])
                    .write(&*dst_k);
                let _cap = if has_vals {
                    cap.read(src_v).write(&*dst_v)
                } else {
                    cap
                };
                let _launch = self.launch(n);
                self.metrics()
                    .record_traffic(key_bytes + val_bytes, key_bytes + val_bytes);
                let dst_k_shared = SharedSlice::new(dst_k);
                let dst_v_shared = SharedSlice::new(dst_v);
                let offsets_ref = &offsets;
                self.run(|| {
                    (0..nchunks).into_par_iter().for_each(|c| {
                        let mut local = [0u32; BUCKETS];
                        for (d, slot) in local.iter_mut().enumerate() {
                            *slot = offsets_ref[d * nchunks + c];
                        }
                        let start = c * chunk;
                        let end = usize::min(start + chunk, n);
                        for i in start..end {
                            let k = src_k[i];
                            let d = k.digit(shift);
                            let pos = local[d] as usize;
                            local[d] += 1;
                            // SAFETY: the offset matrix partitions 0..n into
                            // disjoint (digit, chunk) regions; each position
                            // is written exactly once per pass.
                            unsafe {
                                dst_k_shared.write_unchecked(pos, k);
                                if has_vals {
                                    dst_v_shared.write_unchecked(pos, src_v[i]);
                                }
                            }
                        }
                    });
                });
            }

            in_keys = !in_keys;
        }

        if !in_keys {
            // Odd pass count: one copy-back launch returns the data to the
            // caller's buffers.
            let cap = self
                .cap_scope("sort.copyback")
                .read(&scratch_k[..])
                .write(&*keys);
            let _cap = match &vals {
                Some(v) => cap.read(&scratch_v[..]).write(v),
                None => cap,
            };
            let _launch = self.launch(n);
            self.metrics()
                .record_traffic(key_bytes + val_bytes, key_bytes + val_bytes);
            keys.copy_from_slice(&scratch_k);
            if let Some(v) = &mut vals {
                v.copy_from_slice(&scratch_v);
            }
        }
        self.san_mark_written(keys);
        if let Some(v) = &vals {
            self.san_mark_written(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Device;

    fn pseudo_random(n: usize, seed: u64) -> Vec<u64> {
        // SplitMix64 stream — deterministic, no external dependency.
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
    fn sorts_random_u64() {
        let device = Device::new();
        let mut keys = pseudo_random(100_000, 1);
        let mut expected = keys.clone();
        expected.sort_unstable();
        device.sort_u64(&mut keys);
        assert_eq!(keys, expected);
    }

    #[test]
    fn sorts_small_inputs_via_fallback() {
        let device = Device::new();
        let mut keys = vec![5u64, 3, 9, 1, 1, 0];
        device.sort_u64(&mut keys);
        assert_eq!(keys, vec![0, 1, 1, 3, 5, 9]);
    }

    #[test]
    fn empty_and_singleton() {
        let device = Device::new();
        let mut keys: Vec<u64> = vec![];
        device.sort_u64(&mut keys);
        assert!(keys.is_empty());
        let mut keys = vec![7u64];
        device.sort_u64(&mut keys);
        assert_eq!(keys, vec![7]);
    }

    #[test]
    fn pass_skipping_small_keys() {
        let device = Device::new();
        // Max key fits one byte — one pass suffices; result must still be sorted.
        let mut keys: Vec<u64> = pseudo_random(50_000, 2).iter().map(|k| k % 256).collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        device.sort_u64(&mut keys);
        assert_eq!(keys, expected);
    }

    #[test]
    fn all_equal_keys() {
        let device = Device::new();
        let mut keys = vec![42u64; 30_000];
        let mut vals: Vec<u32> = (0..30_000).collect();
        device.sort_pairs_u64_u32(&mut keys, &mut vals);
        // Stability: payload order preserved for equal keys.
        assert!(vals.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn pairs_follow_keys() {
        let device = Device::new();
        let keys = pseudo_random(80_000, 3);
        let mut k = keys.clone();
        let mut v: Vec<u32> = (0..80_000).collect();
        device.sort_pairs_u64_u32(&mut k, &mut v);
        for i in 0..k.len() {
            assert_eq!(keys[v[i] as usize], k[i], "payload must track its key");
        }
        assert!(k.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn stability_on_duplicate_keys() {
        let device = Device::new();
        let n = 60_000;
        let mut keys: Vec<u64> = (0..n as u64).map(|i| i % 16).collect();
        let mut vals: Vec<u32> = (0..n as u32).collect();
        device.sort_pairs_u64_u32(&mut keys, &mut vals);
        // Within each equal-key run the payloads must stay ascending.
        for w in keys.windows(2).zip(vals.windows(2)) {
            let (kw, vw) = w;
            if kw[0] == kw[1] {
                assert!(vw[0] < vw[1], "stable sort violated");
            }
        }
    }

    #[test]
    fn argsort_returns_sorting_permutation() {
        let device = Device::new();
        let keys = pseudo_random(40_000, 4);
        let perm = device.argsort_u64(&keys);
        for w in perm.windows(2) {
            assert!(keys[w[0] as usize] <= keys[w[1] as usize]);
        }
        // perm is a permutation
        let mut seen = vec![false; keys.len()];
        for &p in &perm {
            assert!(!seen[p as usize]);
            seen[p as usize] = true;
        }
    }

    #[test]
    fn sort_u32_round_trips() {
        let device = Device::new();
        let mut keys: Vec<u32> = pseudo_random(70_000, 5).iter().map(|&k| k as u32).collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        device.sort_u32(&mut keys);
        assert_eq!(keys, expected);
    }

    #[test]
    fn sort_u32_edge_shapes() {
        let device = Device::new();
        // Full-width keys exercise all four passes.
        let mut keys: Vec<u32> = pseudo_random(60_000, 8)
            .iter()
            .map(|&k| k as u32 | (1 << 31))
            .collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        device.sort_u32(&mut keys);
        assert_eq!(keys, expected);

        // One-byte keys take the single-pass shortcut and must end back in
        // the caller's buffer despite the odd pass count.
        let mut keys: Vec<u32> = pseudo_random(60_000, 9)
            .iter()
            .map(|&k| (k % 256) as u32)
            .collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        device.sort_u32(&mut keys);
        assert_eq!(keys, expected);

        // Degenerate shapes.
        let mut keys: Vec<u32> = vec![];
        device.sort_u32(&mut keys);
        let mut keys = vec![3u32];
        device.sort_u32(&mut keys);
        assert_eq!(keys, vec![3]);
        let mut keys = vec![7u32; 30_000];
        device.sort_u32(&mut keys);
        assert!(keys.iter().all(|&k| k == 7));
    }

    #[test]
    fn sort_u32_matches_widened_u64_sort() {
        let device = Device::new();
        let base: Vec<u32> = pseudo_random(50_000, 10)
            .iter()
            .map(|&k| k as u32)
            .collect();
        let mut native = base.clone();
        device.sort_u32(&mut native);
        let mut wide: Vec<u64> = base.iter().map(|&k| k as u64).collect();
        device.sort_u64(&mut wide);
        let narrowed: Vec<u32> = wide.iter().map(|&k| k as u32).collect();
        assert_eq!(native, narrowed);
    }

    #[test]
    fn already_sorted_and_reverse_sorted() {
        let device = Device::new();
        let mut asc: Vec<u64> = (0..50_000).collect();
        let expected = asc.clone();
        device.sort_u64(&mut asc);
        assert_eq!(asc, expected);

        let mut desc: Vec<u64> = (0..50_000).rev().collect();
        device.sort_u64(&mut desc);
        assert_eq!(desc, expected);
    }

    #[test]
    fn full_width_keys() {
        let device = Device::new();
        let mut keys: Vec<u64> = pseudo_random(30_000, 6)
            .iter()
            .map(|&k| k | (1 << 63))
            .collect();
        let mut expected = keys.clone();
        expected.sort_unstable();
        device.sort_u64(&mut keys);
        assert_eq!(keys, expected);
    }
}
