//! # bridges — finding bridges in undirected graphs (paper §4)
//!
//! An edge is a **bridge** when deleting it disconnects its component.
//! Four algorithms, mirroring the paper's lineup:
//!
//! | Paper name          | Here |
//! |---------------------|------|
//! | Single-core CPU DFS | [`bridges_dfs`] — Hopcroft–Tarjan low-link |
//! | Multi-core CPU CK   | [`bridges_ck_rayon`] |
//! | GPU CK              | [`bridges_ck_device`] — BFS tree + marking walks |
//! | GPU TV              | [`bridges_tv`] — Tarjan–Vishkin via Euler tours |
//! | GPU Hybrid (§4.3)   | [`bridges_hybrid`] — CC tree + Euler levels + CK marking |
//!
//! Substrates built for them: the union-find spanning forest
//! ([`UnrootedForest`]: lock-free connected components with the forest as
//! a byproduct, [`cc`]), level-synchronous parallel BFS ([`bfs`]), and a
//! parallel-buildable segment tree of (min, max) pairs for the low/high
//! range queries ([`segment_tree`]). TV, the hybrid, biconnectivity and the `emg serve`
//! snapshot share one front end over the forest ([`forest`]): tree-edge
//! flags, then one Euler tour rooting the tree. TV and biconnectivity also
//! share TV's low/high step, and CK and the hybrid one marking kernel.
//!
//! Beyond the paper's scope, [`bcc`] completes Tarjan–Vishkin's original
//! algorithm — auxiliary-graph biconnected-component labeling and
//! articulation points.
//!
//! ```
//! use bridges::{bridges_dfs, bridges_tv};
//! use graph_core::{Csr, EdgeList};
//! use gpu_sim::Device;
//!
//! // A triangle with a tail: only the tail edge is a bridge.
//! let graph = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)]);
//! let csr = Csr::from_edge_list(&graph);
//! let device = Device::new();
//!
//! let dfs = bridges_dfs(&graph, &csr);
//! let tv = bridges_tv(&device, &graph, &csr).unwrap();
//! assert_eq!(dfs.bridge_ids(), vec![3]);
//! assert_eq!(tv.bridge_ids(), vec![3]);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod articulation;
pub mod bcc;
pub mod bfs;
pub mod cc;
pub mod ck;
pub mod dfs;
pub mod forest;
pub mod hybrid;
pub mod result;
pub mod segment_tree;
pub mod tv;

pub use articulation::articulation_points_dfs;
pub use bcc::{articulation_points_device, bcc_sequential, bcc_tv, BccResult};
pub use bfs::{bfs_device, bfs_rayon, bfs_sequential, BfsTree};
pub use ck::{bridges_ck_device, bridges_ck_rayon};
pub use dfs::bridges_dfs;
pub use forest::{SpanningForest, UnrootedForest};
pub use hybrid::bridges_hybrid;
pub use result::{BridgesError, BridgesResult};
pub use segment_tree::SegmentTree;
pub use tv::{bridges_tv, bridges_tv_on_forest};
