//! GPU RMQ LCA — Euler-tour preprocessing plus a device-built sparse table
//! with O(1) per-thread queries.
//!
//! The paper's related work singles out Soman et al. \[55\] as the only GPU
//! alternative to the naïve walker: an RMQ-based LCA whose preprocessing is
//! "assumed already done". This module supplies the missing piece with the
//! same substrate the Inlabel implementation uses — the Euler tour
//! technique — making the comparison fair end-to-end:
//!
//! 1. the edge-level tour (one list ranking) yields the node-level Euler
//!    walk (`2n − 1` node visits) and each node's first occurrence, all as
//!    array kernels;
//! 2. a sparse table over walk depths is built level by level — O(n log n)
//!    work, O(log n) launches — trading the Inlabel preprocessing's strict
//!    O(n) work for a simpler, branch-free query;
//! 3. each query is two table probes in one kernel thread, exactly like the
//!    Inlabel query kernel.

use crate::LcaAlgorithm;
use euler_tour::{twin, EulerTour, TourError, TreeStats};
use gpu_sim::Device;
use graph_core::ids::NodeId;
use graph_core::Tree;

/// Device-parallel sparse-table RMQ LCA.
pub struct GpuRmqLca<'d> {
    device: &'d Device,
    /// Node at each walk position (length `2n − 1`).
    euler: Vec<NodeId>,
    /// Depth at each walk position.
    depth: Vec<u32>,
    /// First walk position of each node.
    first: Vec<u32>,
    /// `table[k][i]` = position of the min depth in `[i, i + 2^k)`.
    table: Vec<Vec<u32>>,
}

impl<'d> GpuRmqLca<'d> {
    /// Preprocesses `tree` on the device.
    ///
    /// # Errors
    /// Propagates [`TourError`] from the Euler tour construction.
    pub fn preprocess(device: &'d Device, tree: &Tree) -> Result<Self, TourError> {
        let n = tree.num_nodes();
        let tour = EulerTour::build(device, tree)?;
        let stats = TreeStats::compute(device, &tour);
        let level = &stats.level;

        // Node-level walk from the edge-level tour: the walk starts at the
        // root and then visits the head of every tour edge in order.
        let walk_len = 2 * n - 1;
        let heads = tour.heads();
        let order = tour.order(device);
        let root = tour.root();
        let euler = {
            let _k = device.kernel_label("rmq_euler_walk");
            device.capture_read(heads);
            device.capture_read(&order);
            device.alloc_map(walk_len, |p| {
                if p == 0 {
                    root
                } else {
                    heads[order[p - 1] as usize]
                }
            })
        };
        let depth = {
            let _k = device.kernel_label("rmq_walk_depth");
            device.capture_read(&euler);
            device.capture_read(level);
            device.alloc_map(walk_len, |p| level[euler[p] as usize])
        };

        // First occurrence: the root sits at position 0; every other node is
        // first entered through its unique down edge, one write per node.
        let mut first = vec![0u32; n];
        device.capture_fresh(&first[..]);
        {
            let _k = device.kernel_label("rmq_first_occurrence");
            let rank = tour.rank();
            // The ranks and heads feed the closure.
            device.capture_read(rank);
            device.capture_read(heads);
            // Each non-root node has exactly one down edge.
            let shared = device.shared(&mut first);
            device.for_each(tour.len(), |e| {
                let e = e as u32;
                if rank[e as usize] < rank[twin(e) as usize] {
                    shared.write(heads[e as usize] as usize, rank[e as usize] + 1);
                }
            });
        }

        // Sparse table, one kernel launch per level.
        let levels = usize::BITS as usize - walk_len.leading_zeros() as usize;
        let mut table: Vec<Vec<u32>> = Vec::with_capacity(levels);
        {
            let _k = device.kernel_label("rmq_table_base");
            table.push(device.alloc_map(walk_len, |i| i as u32));
        }
        let mut width = 1usize;
        while 2 * width <= walk_len {
            let prev = table.last().unwrap();
            let depth_ref = &depth;
            let _k = device.kernel_label("rmq_table_level");
            device.capture_read(prev);
            device.capture_read(depth_ref);
            let row = device.alloc_map(walk_len - 2 * width + 1, |i| {
                let (a, b) = (prev[i], prev[i + width]);
                if depth_ref[b as usize] < depth_ref[a as usize] {
                    b
                } else {
                    a
                }
            });
            table.push(row);
            width *= 2;
        }

        Ok(Self {
            device,
            euler,
            depth,
            first,
            table,
        })
    }

    /// O(1) single-query resolution (two probes), callable from any thread.
    #[inline]
    fn resolve(&self, x: u32, y: u32) -> u32 {
        let (mut l, mut r) = (self.first[x as usize], self.first[y as usize]);
        if l > r {
            std::mem::swap(&mut l, &mut r);
        }
        let (l, r) = (l as usize, r as usize);
        let k = (usize::BITS - 1 - (r - l + 1).leading_zeros()) as usize;
        let (a, b) = (self.table[k][l], self.table[k][r + 1 - (1 << k)]);
        let pos = if self.depth[b as usize] < self.depth[a as usize] {
            b
        } else {
            a
        };
        self.euler[pos as usize]
    }
}

impl LcaAlgorithm for GpuRmqLca<'_> {
    fn name(&self) -> &'static str {
        "GPU RMQ"
    }

    fn query_batch(&self, queries: &[(u32, u32)], out: &mut [u32]) {
        assert_eq!(queries.len(), out.len(), "query/output length mismatch");
        let _k = self.device.kernel_label("rmq_query_batch");
        self.device.capture_read(queries);
        self.device.map(out, |i| {
            let (x, y) = queries[i];
            self.resolve(x, y)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SequentialInlabelLca;
    use graph_core::ids::INVALID_NODE;

    fn random_tree(n: usize, seed: u64) -> Tree {
        let mut state = seed;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut parents = vec![INVALID_NODE; n];
        for (v, p) in parents.iter_mut().enumerate().skip(1) {
            *p = (step() % v as u64) as u32;
        }
        Tree::from_parent_array(parents, 0).unwrap()
    }

    #[test]
    fn matches_inlabel_on_random_trees() {
        let device = Device::new();
        for (n, seed) in [(2usize, 8u64), (50, 9), (2000, 10), (20_000, 11)] {
            let tree = random_tree(n, seed);
            let gpu = GpuRmqLca::preprocess(&device, &tree).unwrap();
            let oracle = SequentialInlabelLca::preprocess(&tree);
            let mut state = seed + 5;
            let mut step = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 33
            };
            let queries: Vec<(u32, u32)> = (0..5000)
                .map(|_| ((step() % n as u64) as u32, (step() % n as u64) as u32))
                .collect();
            let mut got = vec![0u32; queries.len()];
            gpu.query_batch(&queries, &mut got);
            let mut expect = vec![0u32; queries.len()];
            oracle.query_batch(&queries, &mut expect);
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    fn walk_first_positions_are_consistent() {
        let device = Device::new();
        let tree = random_tree(500, 77);
        let gpu = GpuRmqLca::preprocess(&device, &tree).unwrap();
        // first[v] is indeed the earliest occurrence of v on the walk.
        for (p, &v) in gpu.euler.iter().enumerate() {
            assert!(gpu.first[v as usize] as usize <= p);
        }
        for v in 0..500 {
            assert_eq!(gpu.euler[gpu.first[v] as usize], v as u32);
        }
    }

    #[test]
    fn first_occurrence_declares_its_closure_reads() {
        // The kernel reads the ranks and the heads inside its closure, so
        // its captured node must read the region `tour_order` reads (the
        // ranks) and the one `tour_heads` writes, and write `first`.
        use gpu_sim::launch_graph::{mask_reads, mask_writes};
        let device = Device::with_config(gpu_sim::DeviceConfig {
            capture: gpu_sim::CaptureMode::On,
            ..Default::default()
        });
        let n = 5000;
        GpuRmqLca::preprocess(&device, &random_tree(n, 12)).unwrap();
        let graph = device.launch_graph().expect("capture is on");
        let regions = |label: &str, side: fn(u8) -> bool| -> Vec<u32> {
            let node = graph.nodes.iter().find(|node| node.label == label);
            let node = node.unwrap_or_else(|| panic!("no {label} launch"));
            node.accesses
                .iter()
                .filter(|&(_, &mask)| side(mask))
                .map(|(&region, _)| region)
                .collect()
        };
        let reads = regions("rmq_first_occurrence", mask_reads);
        let rank = regions("tour_order", mask_reads);
        let heads = regions("tour_heads", mask_writes);
        assert_eq!((rank.len(), heads.len()), (1, 1));
        assert!(
            reads.contains(&rank[0]),
            "the ranks are not read: {reads:?}"
        );
        assert!(
            reads.contains(&heads[0]),
            "the heads are not read: {reads:?}"
        );
        let writes = regions("rmq_first_occurrence", mask_writes);
        let first = graph.regions.iter().find(|r| r.id == writes[0]).unwrap();
        assert_eq!((writes.len(), first.len), (1, n));
    }

    #[test]
    fn single_node_tree() {
        let device = Device::new();
        let tree = Tree::from_parent_array(vec![INVALID_NODE], 0).unwrap();
        let gpu = GpuRmqLca::preprocess(&device, &tree).unwrap();
        assert_eq!(gpu.query(0, 0), 0);
    }

    #[test]
    fn path_tree() {
        let device = Device::new();
        let n = 1024;
        let mut parents = vec![INVALID_NODE; n];
        for (v, p) in parents.iter_mut().enumerate().skip(1) {
            *p = v as u32 - 1;
        }
        let tree = Tree::from_parent_array(parents, 0).unwrap();
        let gpu = GpuRmqLca::preprocess(&device, &tree).unwrap();
        for (x, y, e) in [(0u32, 1023u32, 0u32), (512, 700, 512), (5, 5, 5)] {
            assert_eq!(gpu.query(x, y), e);
        }
    }
}
