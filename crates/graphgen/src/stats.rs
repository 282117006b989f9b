//! Dataset statistics for regenerating Table 1: largest-connected-component
//! extraction and diameter estimation.
//!
//! The paper preprocesses every graph "to keep only its largest connected
//! component" and reports nodes/edges/bridges/diameter of the result.
//! Bridges come from `bridges::bridges_dfs` at the bench level (this crate
//! stays below the algorithm crates in the dependency order); diameter uses
//! the standard double-sweep BFS lower bound, which is exact on trees and
//! tight in practice on road networks.

use graph_core::ids::NodeId;
use graph_core::{Csr, EdgeList};

/// Basic statistics of a (connected) graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Node count.
    pub nodes: usize,
    /// Undirected edge count.
    pub edges: usize,
    /// Double-sweep BFS diameter estimate (lower bound).
    pub diameter: u32,
}

/// Extracts the largest connected component, relabeling its nodes to
/// `0..k` (order-preserving). Self-loops and duplicate edges are removed
/// first, as in the paper's preprocessing. Returns the component and the
/// old→new node mapping (`u32::MAX` for dropped nodes).
pub fn largest_connected_component(graph: &EdgeList) -> (EdgeList, Vec<u32>) {
    let simple = graph.simplified();
    let n = simple.num_nodes();
    let csr = Csr::from_edge_list(&simple);

    // Sequential BFS labeling of components.
    let mut comp = vec![u32::MAX; n];
    let mut comp_size: Vec<usize> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n as u32 {
        if comp[s as usize] != u32::MAX {
            continue;
        }
        let c = comp_size.len() as u32;
        comp[s as usize] = c;
        let mut size = 1usize;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &w in csr.neighbors(u) {
                if comp[w as usize] == u32::MAX {
                    comp[w as usize] = c;
                    size += 1;
                    queue.push_back(w);
                }
            }
        }
        comp_size.push(size);
    }

    let largest = comp_size
        .iter()
        .enumerate()
        .max_by_key(|&(_, s)| *s)
        .map(|(c, _)| c as u32)
        .unwrap_or(0);

    // Order-preserving relabeling.
    let mut mapping = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n {
        if comp[v] == largest {
            mapping[v] = next;
            next += 1;
        }
    }
    let edges: Vec<(NodeId, NodeId)> = simple
        .edges()
        .iter()
        .filter(|&&(u, _)| comp[u as usize] == largest)
        .map(|&(u, v)| (mapping[u as usize], mapping[v as usize]))
        .collect();
    (EdgeList::new(next as usize, edges), mapping)
}

/// BFS eccentricity search: returns `(farthest node, distance)`.
fn bfs_farthest(csr: &Csr, start: NodeId) -> (NodeId, u32) {
    let n = csr.num_nodes();
    let mut level = vec![u32::MAX; n];
    level[start as usize] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    let mut far = (start, 0);
    while let Some(u) = queue.pop_front() {
        let l = level[u as usize];
        if l > far.1 {
            far = (u, l);
        }
        for &w in csr.neighbors(u) {
            if level[w as usize] == u32::MAX {
                level[w as usize] = l + 1;
                queue.push_back(w);
            }
        }
    }
    far
}

/// Double-sweep diameter estimate with `sweeps` refinement rounds.
/// Exact on trees; a lower bound in general.
pub fn diameter_estimate(csr: &Csr, sweeps: usize) -> u32 {
    if csr.num_nodes() == 0 {
        return 0;
    }
    let mut best = 0;
    let mut start = 0 as NodeId;
    for _ in 0..sweeps.max(1) {
        let (u, _) = bfs_farthest(csr, start);
        let (v, d) = bfs_farthest(csr, u);
        best = best.max(d);
        start = v;
    }
    best
}

/// Computes [`GraphStats`] for a (typically LCC) graph.
pub fn graph_stats(graph: &EdgeList) -> GraphStats {
    let csr = Csr::from_edge_list(graph);
    GraphStats {
        nodes: graph.num_nodes(),
        edges: graph.num_edges(),
        diameter: diameter_estimate(&csr, 2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcc_of_two_components() {
        let g = EdgeList::new(7, vec![(0, 1), (1, 2), (3, 4), (4, 5), (5, 3), (5, 6)]);
        let (lcc, mapping) = largest_connected_component(&g);
        assert_eq!(lcc.num_nodes(), 4); // {3,4,5,6}
        assert_eq!(lcc.num_edges(), 4);
        assert_eq!(mapping[0], u32::MAX);
        assert_ne!(mapping[3], u32::MAX);
    }

    #[test]
    fn lcc_removes_loops_and_duplicates() {
        let g = EdgeList::new(3, vec![(0, 1), (1, 0), (1, 1), (1, 2)]);
        let (lcc, _) = largest_connected_component(&g);
        assert_eq!(lcc.num_nodes(), 3);
        assert_eq!(lcc.num_edges(), 2);
    }

    #[test]
    fn lcc_of_connected_graph_is_identity_shape() {
        let g = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 3)]);
        let (lcc, mapping) = largest_connected_component(&g);
        assert_eq!(lcc.num_nodes(), 4);
        assert_eq!(mapping, vec![0, 1, 2, 3]);
    }

    #[test]
    fn diameter_of_path_is_exact() {
        let n = 500;
        let g = EdgeList::new(n, (1..n as u32).map(|v| (v - 1, v)).collect());
        let csr = Csr::from_edge_list(&g);
        assert_eq!(diameter_estimate(&csr, 1), n as u32 - 1);
    }

    #[test]
    fn diameter_of_cycle_close_to_half() {
        let n = 100;
        let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
        edges.push((n as u32 - 1, 0));
        let csr = Csr::from_edge_list(&EdgeList::new(n, edges));
        assert_eq!(diameter_estimate(&csr, 2), 50);
    }

    #[test]
    fn grid_diameter_is_manhattan() {
        let g = crate::road::road_grid(20, 30, 1.0, 1);
        let csr = Csr::from_edge_list(&g);
        assert_eq!(diameter_estimate(&csr, 2), 19 + 29);
    }

    #[test]
    fn stats_bundle() {
        let g = EdgeList::new(3, vec![(0, 1), (1, 2)]);
        let s = graph_stats(&g);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 2);
        assert_eq!(s.diameter, 2);
    }

    #[test]
    fn road_lcc_has_large_diameter() {
        let g = crate::road::road_grid(150, 150, crate::road::DEFAULT_KEEP_PROB, 4);
        let (lcc, _) = largest_connected_component(&g);
        let stats = graph_stats(&lcc);
        // Percolated grid diameters exceed the full grid's Manhattan
        // diameter because paths detour around missing edges.
        assert!(
            stats.diameter > 150,
            "diameter {} too small",
            stats.diameter
        );
        assert!(stats.nodes > 10_000, "LCC unexpectedly small");
    }

    #[test]
    fn kronecker_lcc_has_small_diameter() {
        let g = crate::kronecker::kronecker_graph(12, 16, 7);
        let (lcc, _) = largest_connected_component(&g);
        let stats = graph_stats(&lcc);
        assert!(stats.diameter < 15, "diameter {} too large", stats.diameter);
    }
}
