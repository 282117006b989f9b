//! 2-edge-connected components — the decomposition the paper's §4 reduces
//! to bridge finding: "A simple method to decompose a graph into
//! 2-edge-connected components is to find all bridges, remove them, and
//! find connected components in the resulting graph."
//!
//! This module implements exactly that method on the device: any of the
//! bridge algorithms supplies the bridge bitmap, the lock-free
//! connected-components pass runs on the bridge-free edge set, and nodes
//! receive 2ECC labels.

use crate::cc::connected_components;
use crate::result::{BridgesError, BridgesResult};
use crate::tv::bridges_tv;
use gpu_sim::Device;
use graph_core::bitset::BitSet;
use graph_core::ids::NodeId;
use graph_core::{Csr, EdgeList};

/// A 2-edge-connected-components decomposition.
#[derive(Debug, Clone)]
pub struct TwoEccDecomposition {
    /// Per-node component label (the smallest node id in the component).
    pub component: Vec<NodeId>,
    /// Number of 2-edge-connected components.
    pub num_components: usize,
    /// The bridge bitmap used for the decomposition.
    pub is_bridge: BitSet,
}

impl TwoEccDecomposition {
    /// Whether nodes `u` and `v` lie in the same 2-edge-connected
    /// component (i.e. two edge-disjoint paths connect them).
    #[inline]
    pub fn same_component(&self, u: NodeId, v: NodeId) -> bool {
        self.component[u as usize] == self.component[v as usize]
    }
}

/// Decomposes a connected graph into 2-edge-connected components using the
/// Tarjan–Vishkin bridge finder.
///
/// # Errors
/// Propagates [`BridgesError`] from the bridge phase.
pub fn two_edge_connected_components(
    device: &Device,
    graph: &EdgeList,
    csr: &Csr,
) -> Result<TwoEccDecomposition, BridgesError> {
    let bridges = bridges_tv(device, graph, csr)?;
    Ok(decompose_with_bridges(device, graph, &bridges))
}

/// Decomposes using an already-computed bridge result (from any of the
/// four algorithms — they agree).
pub fn decompose_with_bridges(
    device: &Device,
    graph: &EdgeList,
    bridges: &BridgesResult,
) -> TwoEccDecomposition {
    // Remove bridges, then find connected components of what remains.
    let surviving: Vec<(NodeId, NodeId)> = graph
        .edges()
        .iter()
        .enumerate()
        .filter(|&(e, _)| !bridges.is_bridge.get(e))
        .map(|(_, &pair)| pair)
        .collect();
    let residual = EdgeList::new(graph.num_nodes(), surviving);
    let cc = connected_components(device, &residual);
    TwoEccDecomposition {
        component: cc.representative,
        num_components: cc.num_components,
        is_bridge: bridges.is_bridge.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::bridges_dfs;

    fn decompose(edges: Vec<(u32, u32)>, n: usize) -> TwoEccDecomposition {
        let device = Device::new();
        let graph = EdgeList::new(n, edges);
        let csr = Csr::from_edge_list(&graph);
        two_edge_connected_components(&device, &graph, &csr).unwrap()
    }

    #[test]
    fn barbell_has_two_big_components() {
        // Two triangles joined by a bridge: components {0,1,2} and {3,4,5}.
        let d = decompose(
            vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
            6,
        );
        assert_eq!(d.num_components, 2);
        assert!(d.same_component(0, 2));
        assert!(d.same_component(3, 5));
        assert!(!d.same_component(2, 3));
    }

    #[test]
    fn tree_decomposes_into_singletons() {
        let d = decompose(vec![(0, 1), (1, 2), (1, 3)], 4);
        assert_eq!(d.num_components, 4);
        assert!(!d.same_component(0, 1));
    }

    #[test]
    fn cycle_is_one_component() {
        let d = decompose(vec![(0, 1), (1, 2), (2, 3), (3, 0)], 4);
        assert_eq!(d.num_components, 1);
        assert!(d.same_component(0, 2));
    }

    #[test]
    fn same_component_iff_two_edge_disjoint_paths() {
        // Random graph; verify the decomposition against a brute-force
        // definition: u ~ v iff removing any single edge leaves them
        // connected.
        let n = 24usize;
        let mut state = 99u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut edges: Vec<(u32, u32)> = (1..n as u64)
            .map(|v| ((step() % v) as u32, v as u32))
            .collect();
        for _ in 0..10 {
            let u = (step() % n as u64) as u32;
            let v = (step() % n as u64) as u32;
            if u != v {
                edges.push((u, v));
            }
        }
        let d = decompose(edges.clone(), n);

        // Brute force: connectivity with each edge removed in turn.
        let connected_without = |skip: usize, a: u32, b: u32| -> bool {
            let mut adj = vec![Vec::new(); n];
            for (e, &(u, v)) in edges.iter().enumerate() {
                if e != skip {
                    adj[u as usize].push(v);
                    adj[v as usize].push(u);
                }
            }
            let mut seen = vec![false; n];
            let mut stack = vec![a];
            seen[a as usize] = true;
            while let Some(x) = stack.pop() {
                if x == b {
                    return true;
                }
                for &w in &adj[x as usize] {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
            false
        };
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                let robust = (0..edges.len()).all(|e| connected_without(e, u, v));
                assert_eq!(
                    d.same_component(u, v),
                    robust,
                    "nodes {u},{v}: 2ecc={} robust={}",
                    d.same_component(u, v),
                    robust
                );
            }
        }
    }

    #[test]
    fn works_with_any_bridge_algorithm() {
        let device = Device::new();
        let graph = EdgeList::new(
            6,
            vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
        );
        let csr = Csr::from_edge_list(&graph);
        let via_dfs = decompose_with_bridges(&device, &graph, &bridges_dfs(&graph, &csr));
        let via_tv = two_edge_connected_components(&device, &graph, &csr).unwrap();
        assert_eq!(via_dfs.num_components, via_tv.num_components);
        assert_eq!(via_dfs.component, via_tv.component);
    }

    #[test]
    fn component_count_formula() {
        // #2ecc = #nodes - #non-bridge-spanning edges... simplest check:
        // every bridge separates; removing b bridges from a connected graph
        // yields b+1 residual components *of the bridge forest structure*
        // collapsed; here just verify counts on a chain of triangles.
        let mut edges = Vec::new();
        let k = 5; // triangles
        for t in 0..k as u32 {
            let base = 3 * t;
            edges.push((base, base + 1));
            edges.push((base + 1, base + 2));
            edges.push((base + 2, base));
            if t + 1 < k as u32 {
                edges.push((base + 2, base + 3));
            }
        }
        let d = decompose(edges, 3 * k);
        assert_eq!(d.num_components, k);
        assert_eq!(d.is_bridge.count_ones(), k - 1);
    }
}
