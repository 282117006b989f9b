//! Tree statistics as scans over the Euler tour array.
//!
//! With the tour ranked (one list ranking, §2.2), all statistics come
//! from one flag kernel, one scan and one scatter kernel. Edge `j`'s two
//! half-edges `2j` and `2j + 1` sit side by side in `rank`, and the one
//! ranked first goes down (paper, footnote 4), so both kernels run one
//! virtual thread per tree edge and read the ranks in id order; no array
//! in tour order is built but the 1-byte down flags the scan runs over:
//!
//! * **preorder** — down-edges weigh 1, up-edges 0; the inclusive prefix
//!   sum `D(p)` at the down-edge into `v` (tour position `p`) is
//!   `preorder(v) - 1` (we use 1-based preorder, as Schieber–Vishkin
//!   require);
//! * **level** — the ±1 prefix sum at the same edge: of the `p + 1` edges
//!   up to `p`, `D(p)` go down and the rest up, so
//!   `level(v) = 2·D(p) − p − 1` (root = 0) with no second scan;
//! * **subtree size** — no scan needed: the tour enters `v` at position `p`
//!   and leaves at `q = rank(twin)`, and `size(v) = (q − p + 1) / 2`;
//! * **parent** — the tail of the down-edge into `v`, the head of its twin.

use crate::list::twin;
use crate::tour::EulerTour;
use gpu_sim::Device;
use graph_core::ids::{NodeId, INVALID_NODE};

/// Per-node tree statistics produced by the Euler tour technique (or by the
/// sequential oracle in [`crate::cpu`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeStats {
    /// 1-based preorder number of each node (root = 1).
    pub preorder: Vec<u32>,
    /// Subtree size of each node (root = n).
    pub subtree_size: Vec<u32>,
    /// Distance from the root (root = 0).
    pub level: Vec<u32>,
    /// Parent of each node; `INVALID_NODE` for the root.
    pub parent: Vec<NodeId>,
}

impl TreeStats {
    /// Computes all statistics from a built tour with one flag kernel, one
    /// scan and one scatter kernel; both kernels run one virtual thread per
    /// tree edge.
    pub fn compute(device: &Device, tour: &EulerTour) -> TreeStats {
        let n = tour.num_nodes();
        if n == 1 {
            return TreeStats {
                preorder: vec![1],
                subtree_size: vec![1],
                level: vec![0],
                parent: vec![INVALID_NODE],
            };
        }
        let h = tour.len();
        let rank = tour.rank();
        let heads = tour.heads();
        // Edge j's down half-edge, its tour position and its twin's: the
        // half-edge ranked first goes down.
        let down_edge = |j: usize| {
            let (a, b) = (rank[2 * j], rank[2 * j + 1]);
            if a < b {
                (2 * j, a, b)
            } else {
                (2 * j + 1, b, a)
            }
        };

        // Down flags by tour position (pooled, no fill): `rank` is a
        // permutation (the ranker's verdict proved the list one path), so
        // edge j's two writes, 1 at the down position and 0 at the up one,
        // cover every position once.
        let mut down = device.alloc_pooled::<u8>(h);
        {
            let _k = device.kernel_label("stats_down_flags");
            device.capture_read(rank);
            let down_shared = device.shared(&mut down);
            device.for_each(n - 1, |j| {
                let (_, p, q) = down_edge(j);
                down_shared.write(p as usize, 1);
                down_shared.write(q as usize, 0);
            });
        }

        // D: fused transform + inclusive scan of down flags — no
        // materialized weight array, scratch from the arena. The flags feed
        // the generator closure, so the scan declares the read. It reads
        // them as a plain slice: the verdict proves every position written,
        // and through the tracked view (which would let initcheck see each
        // read) the scan measured 2–3 ms slower on a 2^19-node tree (pool
        // width 2, 2-vCPU host). D counts down-edges, at most n − 1, so
        // u32 holds it.
        let down = &down;
        let mut pre_scan = device.alloc_pooled::<u32>(h);
        device.capture_read(&down[..]);
        device.map_scan_inclusive_into(h, |p| down[p] as u32, &mut pre_scan, 0u32, |a, b| a + b);

        let mut preorder = vec![0u32; n];
        let mut subtree_size = vec![0u32; n];
        let mut level = vec![0u32; n];
        let mut parent = vec![INVALID_NODE; n];
        device.capture_fresh(&preorder[..]);
        device.capture_fresh(&subtree_size[..]);
        device.capture_fresh(&level[..]);
        device.capture_fresh(&parent[..]);
        preorder[tour.root() as usize] = 1;
        subtree_size[tour.root() as usize] = n as u32;
        level[tour.root() as usize] = 0;

        {
            let _k = device.kernel_label("tree_stats_scatter");
            // Closure-side inputs: the ranks, the scan and the heads.
            device.capture_read(rank);
            device.capture_read(&pre_scan[..]);
            device.capture_read(heads);
            // Each non-root node has exactly one down-edge, so targets are
            // distinct across virtual threads.
            let pre_shared = device.shared(&mut preorder);
            let size_shared = device.shared(&mut subtree_size);
            let level_shared = device.shared(&mut level);
            let parent_shared = device.shared(&mut parent);
            let pre_scan = &pre_scan;
            device.for_each(n - 1, |j| {
                let (e, p, q) = down_edge(j);
                let v = heads[e] as usize;
                let d = pre_scan[p as usize];
                pre_shared.write(v, d + 1);
                size_shared.write(v, (q - p).div_ceil(2));
                // 2·D(p) can pass u32::MAX on a tree of over 2^31
                // nodes; the level itself cannot.
                level_shared.write(v, (2 * u64::from(d) - u64::from(p) - 1) as u32);
                parent_shared.write(v, heads[twin(e as u32) as usize]);
            });
        }

        TreeStats {
            preorder,
            subtree_size,
            level,
            parent,
        }
    }

    /// Number of nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.preorder.len()
    }

    /// Whether `u` lies in the subtree rooted at `v` (every node lies in
    /// its own subtree). O(1): preorder-interval containment —
    /// `pre(v) ≤ pre(u) < pre(v) + size(v)`.
    ///
    /// # Panics
    /// Panics if `u` or `v` is out of range.
    #[inline]
    pub fn in_subtree(&self, u: NodeId, v: NodeId) -> bool {
        let pu = self.preorder[u as usize];
        let pv = self.preorder[v as usize];
        pu >= pv && pu - pv < self.subtree_size[v as usize]
    }

    /// Answers a batch of subtree-membership queries in one device
    /// launch: `out[i] = 1` iff `queries[i].0` lies in the subtree rooted
    /// at `queries[i].1`. One virtual thread per pair, each running the
    /// O(1) [`in_subtree`] kernel — the batch entry point the `emg serve`
    /// daemon's request coalescer dispatches.
    ///
    /// [`in_subtree`]: TreeStats::in_subtree
    ///
    /// # Panics
    /// Panics if `out.len() != queries.len()` or a node id is out of
    /// range.
    pub fn in_subtree_batch_on(&self, device: &Device, queries: &[(u32, u32)], out: &mut [u8]) {
        assert_eq!(queries.len(), out.len(), "query/output length mismatch");
        let _k = device.kernel_label("stats_subtree_batch");
        // The pairs and both stats arrays feed the closure.
        device.capture_read(queries);
        device.capture_read(&self.preorder);
        device.capture_read(&self.subtree_size);
        device.map(out, |q| {
            let (u, v) = queries[q];
            u8::from(self.in_subtree(u, v))
        });
    }

    /// Validates internal consistency (preorder is a permutation of `1..=n`,
    /// subtree intervals nest, levels agree with parents). O(n).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        let mut seen = vec![false; n + 1];
        for &p in &self.preorder {
            if p == 0 || p as usize > n {
                return Err(format!("preorder {p} out of 1..={n}"));
            }
            if seen[p as usize] {
                return Err(format!("duplicate preorder {p}"));
            }
            seen[p as usize] = true;
        }
        for v in 0..n {
            match self.parent[v] {
                INVALID_NODE => {
                    if self.level[v] != 0 {
                        return Err(format!("root {v} has level {}", self.level[v]));
                    }
                    if self.subtree_size[v] as usize != n {
                        return Err(format!("root subtree size {}", self.subtree_size[v]));
                    }
                }
                p => {
                    let p = p as usize;
                    if self.level[v] != self.level[p] + 1 {
                        return Err(format!("level of {v} inconsistent with parent {p}"));
                    }
                    // Child interval nests within the parent interval.
                    let (cs, ce) = (self.preorder[v], self.preorder[v] + self.subtree_size[v]);
                    let (ps, pe) = (self.preorder[p], self.preorder[p] + self.subtree_size[p]);
                    if !(ps < cs && ce <= pe) {
                        return Err(format!(
                            "subtree interval of {v} [{cs},{ce}) escapes parent [{ps},{pe})"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tour::EulerTour;

    fn paper_stats(device: &Device) -> TreeStats {
        let tour =
            EulerTour::build_from_edges(device, 6, &[(0, 2), (0, 3), (0, 4), (2, 1), (2, 5)], 0)
                .unwrap();
        TreeStats::compute(device, &tour)
    }

    #[test]
    fn paper_tree_preorder() {
        let device = Device::new();
        let s = paper_stats(&device);
        // Tour order: 0, 2, 1, 5, 3, 4 (children in ascending order).
        assert_eq!(s.preorder, vec![1, 3, 2, 5, 6, 4]);
    }

    #[test]
    fn paper_tree_sizes_levels_parents() {
        let device = Device::new();
        let s = paper_stats(&device);
        assert_eq!(s.subtree_size, vec![6, 1, 3, 1, 1, 1]);
        assert_eq!(s.level, vec![0, 2, 1, 1, 1, 2]);
        assert_eq!(s.parent, vec![INVALID_NODE, 2, 0, 0, 0, 2]);
    }

    #[test]
    fn stats_validate_on_random_trees() {
        let device = Device::new();
        let mut state = 99u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for n in [2usize, 3, 10, 257, 5000] {
            let edges: Vec<(u32, u32)> = (1..n as u64)
                .map(|v| ((step() % v) as u32, v as u32))
                .collect();
            let tour = EulerTour::build_from_edges(&device, n, &edges, 0).unwrap();
            let stats = TreeStats::compute(&device, &tour);
            stats.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn single_node_stats() {
        let device = Device::new();
        let tour = EulerTour::build_from_edges(&device, 1, &[], 0).unwrap();
        let s = TreeStats::compute(&device, &tour);
        assert_eq!(s.preorder, vec![1]);
        assert_eq!(s.subtree_size, vec![1]);
        assert_eq!(s.level, vec![0]);
        assert_eq!(s.parent, vec![INVALID_NODE]);
        s.validate().unwrap();
    }

    #[test]
    fn path_tree_stats() {
        let device = Device::new();
        let n = 1000;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
        let tour = EulerTour::build_from_edges(&device, n, &edges, 0).unwrap();
        let s = TreeStats::compute(&device, &tour);
        for v in 0..n {
            assert_eq!(s.preorder[v], v as u32 + 1);
            assert_eq!(s.level[v], v as u32);
            assert_eq!(s.subtree_size[v], (n - v) as u32);
        }
    }

    #[test]
    fn star_tree_stats() {
        let device = Device::new();
        let n = 1000;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
        let tour = EulerTour::build_from_edges(&device, n, &edges, 0).unwrap();
        let s = TreeStats::compute(&device, &tour);
        assert_eq!(s.subtree_size[0], n as u32);
        for v in 1..n {
            assert_eq!(s.level[v], 1);
            assert_eq!(s.subtree_size[v], 1);
            assert_eq!(s.parent[v], 0);
        }
        s.validate().unwrap();
    }

    #[test]
    fn validate_catches_corruption() {
        let device = Device::new();
        let mut s = paper_stats(&device);
        s.level[1] = 7;
        assert!(s.validate().is_err());
    }
}
