//! # euler-meets-gpu
//!
//! A Rust reproduction of *“Euler Meets GPU: Practical Graph Algorithms
//! with Theoretical Guarantees”* (Polak, Siwiec, Stobierski — IPDPS 2021,
//! arXiv:2103.15217): the Euler tour technique on a simulated
//! bulk-synchronous GPU, applied to batched LCA queries and bridge finding.
//!
//! This facade crate re-exports the workspace members under one roof:
//!
//! * [`gpu_sim`] — the simulated device and its moderngpu-style primitives;
//! * [`graph_core`] — CSR graphs, edge lists, rooted trees, bitsets;
//! * [`euler_tour`] — DCEL construction, list ranking, tour arrays and tree
//!   statistics (the paper's §2);
//! * [`lca`] — Schieber–Vishkin Inlabel on three substrates plus the naïve
//!   GPU walker and the RMQ baseline (§3);
//! * [`bridges`] — Tarjan–Vishkin, Chaitanya–Kothapalli, the hybrid and the
//!   sequential DFS baseline (§4);
//! * [`graphgen`] — every synthetic workload the evaluation uses;
//! * [`graph_io`] — DIMACS/SNAP/METIS readers for the real datasets of
//!   Table 1.
//!
//! ```
//! use euler_meets_gpu::prelude::*;
//!
//! let device = Device::new();
//! let tree = random_tree(10_000, None, 42);
//! let lca = GpuInlabelLca::preprocess(&device, &tree).unwrap();
//! let queries = random_queries(10_000, 1000, 43);
//! let mut out = vec![0u32; queries.len()];
//! lca.query_batch(&queries, &mut out);
//! ```

#![warn(missing_docs)]

pub use bridges;
pub use euler_tour;
pub use gpu_sim;
pub use graph_core;
pub use graph_io;
pub use graphgen;
pub use lca;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use bridges::{
        bcc_tv, bridges_ck_device, bridges_ck_rayon, bridges_dfs, bridges_hybrid, bridges_tv,
        BccResult, BridgesResult,
    };
    pub use euler_tour::{EulerTour, TreeStats};
    pub use gpu_sim::{Device, DeviceConfig};
    pub use graph_core::{Csr, EdgeList, Tree};
    pub use graph_io::read_edge_list;
    pub use graphgen::{
        ba_tree, kronecker_graph, largest_connected_component, random_queries, random_tree,
        road_grid, web_graph,
    };
    pub use lca::{
        BlockRmqLca, BruteLca, GpuInlabelLca, GpuRmqLca, LcaAlgorithm, MulticoreInlabelLca,
        NaiveGpuLca, RmqLca, SequentialInlabelLca, SparseRmqLca,
    };
}
