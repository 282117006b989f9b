//! # lca — lowest common ancestor algorithms (paper §3)
//!
//! Four algorithms, mirroring the paper's experimental lineup:
//!
//! | Paper name            | Type                                   | Here |
//! |-----------------------|----------------------------------------|------|
//! | Single-core CPU Inlabel | sequential Schieber–Vishkin          | [`SequentialInlabelLca`] |
//! | Multi-core CPU Inlabel  | rayon (OpenMP substitute)            | [`MulticoreInlabelLca`] |
//! | GPU Inlabel             | Euler tour + O(1) query kernels      | [`GpuInlabelLca`] |
//! | GPU Naïve               | pointer-jumped levels + O(depth) walk| [`NaiveGpuLca`] |
//!
//! plus the RMQ/segment-tree baseline of the paper's §3.1 preliminary
//! experiment ([`RmqLca`]), a brute-force oracle ([`BruteLca`]), and the
//! extensions beyond the paper's lineup: the full Bender–Farach design
//! space ([`SparseRmqLca`], [`BlockRmqLca`]) and a device-parallel
//! sparse-table RMQ ([`GpuRmqLca`]).
//!
//! ```
//! use graph_core::Tree;
//! use gpu_sim::Device;
//! use lca::{GpuInlabelLca, LcaAlgorithm};
//!
//! let device = Device::new();
//! let tree = Tree::from_edges(6, &[(0, 2), (0, 3), (0, 4), (2, 1), (2, 5)], 0).unwrap();
//! let lca = GpuInlabelLca::preprocess(&device, &tree).unwrap();
//! assert_eq!(lca.query(1, 5), 2);
//! assert_eq!(lca.query(3, 5), 0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod brute;
pub mod gpu;
pub mod gpu_rmq;
pub mod inlabel;
pub mod naive;
pub mod offline;
pub mod par;
pub mod rmq;
pub mod seq;
pub mod sparse;

pub use batch::BatchRunner;
pub use brute::BruteLca;
pub use gpu::GpuInlabelLca;
pub use gpu_rmq::GpuRmqLca;
pub use inlabel::InlabelTables;
pub use naive::NaiveGpuLca;
pub use offline::offline_tarjan_lca;
pub use par::MulticoreInlabelLca;
pub use rmq::RmqLca;
pub use seq::SequentialInlabelLca;
pub use sparse::{BlockRmqLca, SparseRmqLca};

/// A preprocessed LCA structure answering batched queries.
pub trait LcaAlgorithm: Send + Sync {
    /// Human-readable algorithm name (matches the paper's legends).
    fn name(&self) -> &'static str;

    /// Answers `queries[i] = (x, y)` into `out[i]`.
    ///
    /// # Panics
    /// Panics if `out.len() != queries.len()` or a node id is out of range.
    fn query_batch(&self, queries: &[(u32, u32)], out: &mut [u32]);

    /// Answers a single query.
    fn query(&self, x: u32, y: u32) -> u32 {
        let mut out = [0u32];
        self.query_batch(&[(x, y)], &mut out);
        out[0]
    }
}
