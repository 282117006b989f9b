//! GPU Inlabel — the paper's theoretically optimal algorithm on the
//! simulated device.
//!
//! Preprocessing: Euler tour (tour list → one list ranking → scans) yields
//! preorder, subtree size, level and parent; O(1)-per-node kernels build the
//! inlabel/ascendant/head tables. Queries: one virtual thread per query,
//! O(1) each.

use crate::inlabel::InlabelTables;
use crate::LcaAlgorithm;
use euler_tour::{EulerTour, TourError, TreeStats};
use gpu_sim::{Device, PhaseTimer};
use graph_core::Tree;

/// GPU-sim Schieber–Vishkin LCA.
pub struct GpuInlabelLca<'d> {
    device: &'d Device,
    tables: InlabelTables,
}

impl<'d> GpuInlabelLca<'d> {
    /// Preprocesses `tree` on the device. Records `lca.euler_tour`,
    /// `lca.stats` and `lca.tables` phases in the device metrics.
    pub fn preprocess(device: &'d Device, tree: &Tree) -> Result<Self, TourError> {
        let tour = {
            let _t = PhaseTimer::new(device.metrics(), "lca.euler_tour");
            EulerTour::build(device, tree)?
        };
        let stats = {
            let _t = PhaseTimer::new(device.metrics(), "lca.stats");
            TreeStats::compute(device, &tour)
        };
        let tables = {
            let _t = PhaseTimer::new(device.metrics(), "lca.tables");
            InlabelTables::from_stats_device(device, &stats)
        };
        Ok(Self { device, tables })
    }

    /// The underlying tables.
    pub fn tables(&self) -> &InlabelTables {
        &self.tables
    }
}

impl LcaAlgorithm for GpuInlabelLca<'_> {
    fn name(&self) -> &'static str {
        "GPU Inlabel"
    }

    fn query_batch(&self, queries: &[(u32, u32)], out: &mut [u32]) {
        self.tables.query_batch_on(self.device, queries, out);
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
    fn paper_tree_queries() {
        let device = Device::new();
        let tree = Tree::from_parent_array(vec![INVALID_NODE, 2, 0, 0, 0, 2], 0).unwrap();
        let lca = GpuInlabelLca::preprocess(&device, &tree).unwrap();
        assert_eq!(lca.query(1, 5), 2);
        assert_eq!(lca.query(3, 4), 0);
        assert_eq!(lca.query(2, 2), 2);
    }

    #[test]
    fn matches_sequential_on_random_trees() {
        let device = Device::new();
        for (n, seed) in [(1000usize, 1u64), (10_000, 2), (50_000, 3)] {
            let tree = random_tree(n, seed);
            let gpu = GpuInlabelLca::preprocess(&device, &tree).unwrap();
            let seq = SequentialInlabelLca::preprocess(&tree);

            let mut state = seed ^ 0xABCD;
            let mut step = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 33
            };
            let queries: Vec<(u32, u32)> = (0..20_000)
                .map(|_| ((step() % n as u64) as u32, (step() % n as u64) as u32))
                .collect();
            let mut out_gpu = vec![0u32; queries.len()];
            let mut out_seq = vec![0u32; queries.len()];
            gpu.query_batch(&queries, &mut out_gpu);
            seq.query_batch(&queries, &mut out_seq);
            assert_eq!(out_gpu, out_seq, "n={n}");
        }
    }

    #[test]
    fn deep_tree_queries_are_exact() {
        // A path — worst case for the naive algorithm, routine for Inlabel.
        let device = Device::new();
        let n = 30_000;
        let mut parents = vec![INVALID_NODE; n];
        for (v, p) in parents.iter_mut().enumerate().skip(1) {
            *p = v as u32 - 1;
        }
        let tree = Tree::from_parent_array(parents, 0).unwrap();
        let lca = GpuInlabelLca::preprocess(&device, &tree).unwrap();
        assert_eq!(lca.query(29_999, 15_000), 15_000);
        assert_eq!(lca.query(100, 29_000), 100);
    }

    #[test]
    fn phase_timers_recorded() {
        let device = Device::new();
        let tree = random_tree(5000, 11);
        let _ = device.metrics().take_phases();
        let _lca = GpuInlabelLca::preprocess(&device, &tree).unwrap();
        let phases = device.metrics().take_phases();
        let names: Vec<&str> = phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["lca.euler_tour", "lca.stats", "lca.tables"]);
    }
}
