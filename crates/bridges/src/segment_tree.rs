//! Segment tree for range (minimum, maximum) queries.
//!
//! Tarjan–Vishkin needs, per node `v`, the min and max of per-node values
//! over the preorder interval of `v`'s subtree ("that task boils down to
//! solving the range minimum query problem, which we do using the segment
//! tree data structure" — §4.1). One tree holds both as `(min, max)`
//! pairs, so a query walks one array for both answers. The caller's own
//! launch writes the leaves in place, the internal nodes are built level by
//! level with one kernel per level, and any number of threads may query
//! the tree concurrently.

use gpu_sim::Device;

/// The `(min, max)` of an empty range: the identity of [`combine`].
pub const EMPTY: (u32, u32) = (u32::MAX, 0);

/// Merges two ranges' `(min, max)` pairs.
#[inline]
pub fn combine(a: (u32, u32), b: (u32, u32)) -> (u32, u32) {
    (a.0.min(b.0), a.1.max(b.1))
}

/// A static segment tree over `(min, max)` pairs (1-indexed flat layout).
#[derive(Debug, Clone)]
pub struct SegmentTree {
    data: Vec<(u32, u32)>,
    len: usize,
}

impl SegmentTree {
    /// Builds the tree over `len` leaves on the device: `fill_leaves`
    /// writes the leaf half, one launch of the caller's, then one kernel
    /// per level computes the internal nodes.
    ///
    /// The `2 * len` pairs are allocated zeroed, with no host fill: the
    /// caller must write every leaf, the level kernels write every
    /// internal node `1..len`, and slot 0 is never read, so no query
    /// reads a slot the build did not write.
    pub fn build(device: &Device, len: usize, fill_leaves: impl FnOnce(&mut [(u32, u32)])) -> Self {
        Self::build_over(device, vec![(0, 0); 2 * len], fill_leaves)
    }

    /// [`SegmentTree::build`] over caller-allocated storage of `2 * len`
    /// pairs, whatever they hold.
    fn build_over(
        device: &Device,
        mut data: Vec<(u32, u32)>,
        fill_leaves: impl FnOnce(&mut [(u32, u32)]),
    ) -> Self {
        let len = data.len() / 2;
        device.capture_fresh(&data[..]);
        device.capture_fresh(&data[len..]);
        // The filler's launch writes the leaf half, a region of its own;
        // declare the write on the whole array the levels read too.
        device.capture_write(&data[..]);
        fill_leaves(&mut data[len..]);
        // Internal nodes level by level: node i covers children 2i, 2i+1.
        // Process ranges [len/2, len), [len/4, len/2) ... each as a kernel.
        let mut hi = len; // exclusive
        while hi > 1 {
            let lo = hi.div_ceil(2);
            let _k = device.kernel_label("segtree_level");
            // Levels chain through the flat tree array: declare the
            // whole-array dataflow (the per-level target sub-slice is
            // declared by the map itself).
            device.capture_read(&data[..]);
            device.capture_write(&data[..]);
            // Nodes [lo, hi) have their children in [2lo, 2hi), which lies
            // at or past `hi`: in the lower half of the split.
            let (upper, lower) = data.split_at_mut(hi);
            device.map(&mut upper[lo..], |j| {
                let l = 2 * (lo + j) - hi;
                combine(lower[l], lower[l + 1])
            });
            hi = lo;
        }
        Self { data, len }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Declares the tree's backing array as a capture-plane read attached
    /// to the **next** launch — call before a kernel whose closure runs
    /// [`SegmentTree::query`]. No-op with capture off.
    pub fn declare_query_reads(&self, device: &Device) {
        device.capture_read(&self.data);
    }

    /// `(min, max)` over the inclusive range `[l, r]`. Returns [`EMPTY`]
    /// for inverted ranges.
    #[inline]
    pub fn query(&self, l: usize, r: usize) -> (u32, u32) {
        if l > r || self.len == 0 {
            return EMPTY;
        }
        debug_assert!(r < self.len);
        let mut acc = EMPTY;
        let mut lo = l + self.len;
        let mut hi = r + self.len + 1;
        while lo < hi {
            if lo & 1 == 1 {
                acc = combine(acc, self.data[lo]);
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                acc = combine(acc, self.data[hi]);
            }
            lo /= 2;
            hi /= 2;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pair no build writes: any query that reads an unwritten slot
    /// folds in a minimum of 0 or a maximum of `u32::MAX`.
    const UNWRITTEN: (u32, u32) = (0, u32::MAX);

    /// The tree over `values`, its leaves filled by one launch, on storage
    /// that starts as [`UNWRITTEN`] so the naive folds catch any read of a
    /// slot the build skipped.
    fn tree_of(device: &Device, values: &[(u32, u32)]) -> SegmentTree {
        let storage = vec![UNWRITTEN; 2 * values.len()];
        SegmentTree::build_over(device, storage, |leaves| {
            let _k = device.kernel_label("segtree_test_leaves");
            device.capture_read(values);
            device.map(leaves, |i| values[i]);
        })
    }

    /// Each half of the pair folded on its own over `values[l..=r]`.
    fn naive(values: &[(u32, u32)], l: usize, r: usize) -> (u32, u32) {
        let range = &values[l..=r];
        (
            range.iter().map(|v| v.0).fold(u32::MAX, u32::min),
            range.iter().map(|v| v.1).fold(0, u32::max),
        )
    }

    #[test]
    fn matches_naive_on_random_data() {
        let device = Device::new();
        let mut state = 77u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        for n in [1usize, 2, 3, 7, 64, 1000, 30_000] {
            let values: Vec<(u32, u32)> = (0..n)
                .map(|_| (step() % 1_000_000, step() % 1_000_000))
                .collect();
            let tree = tree_of(&device, &values);
            for trial in 0..200 {
                let a = step() as usize % n;
                let b = step() as usize % n;
                let (l, r) = (a.min(b), a.max(b));
                let (min, max) = tree.query(l, r);
                let (naive_min, naive_max) = naive(&values, l, r);
                assert_eq!(min, naive_min, "min n={n} trial={trial} [{l},{r}]");
                assert_eq!(max, naive_max, "max n={n} trial={trial} [{l},{r}]");
            }
        }
    }

    #[test]
    fn single_element_ranges() {
        let device = Device::new();
        let values: Vec<(u32, u32)> = (0..100).map(|i| (99 - i, 3 * i)).collect();
        let t = tree_of(&device, &values);
        for (i, &expected) in values.iter().enumerate() {
            assert_eq!(t.query(i, i), expected);
        }
    }

    #[test]
    fn full_range() {
        let device = Device::new();
        let values = [(5, 1), (2, 8), (9, 3), (7, 6)];
        let t = tree_of(&device, &values);
        assert_eq!(t.query(0, 3), (2, 8));
    }

    #[test]
    fn inverted_range_yields_identity() {
        let device = Device::new();
        let t = tree_of(&device, &[(1, 1), (2, 2), (3, 3)]);
        assert_eq!(t.query(2, 1), EMPTY);
    }

    #[test]
    fn empty_tree() {
        let device = Device::new();
        let t = tree_of(&device, &[]);
        assert!(t.is_empty());
        assert_eq!(t.query(0, 0), EMPTY);
    }

    #[test]
    fn identities_survive_in_leaves() {
        // EMPTY leaves (nodes with no non-tree neighbor) must not break
        // queries on either half.
        let device = Device::new();
        let values = [EMPTY, (4, 4), EMPTY];
        let t = tree_of(&device, &values);
        assert_eq!(t.query(0, 2), (4, 4));
        assert_eq!(t.query(0, 0), EMPTY);
    }
}
