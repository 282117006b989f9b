//! Chaitanya–Kothapalli bridge finding (paper §4.1, \[11, 61\]) — the
//! state-of-the-art heuristic the paper compares against.
//!
//! Phase 1 builds a rooted BFS spanning tree; phase 2 walks, for every
//! non-tree edge in parallel, from its endpoints up to their LCA, marking
//! tree edges on the way. A tree edge is a bridge iff no walk ever marks
//! it. Work is O(m·d) in the worst case — the reason the algorithm
//! collapses on road networks (Figures 9–11).

use crate::bfs::{bfs_device, bfs_rayon, BfsTree};
use crate::forest::flag_tree_edges;
use crate::result::{BridgesError, BridgesResult, PhaseClock};
use gpu_sim::Device;
use graph_core::bitset::{AtomicBitSet, BitSet};
use graph_core::ids::NodeId;
use graph_core::{Csr, EdgeList};
use rayon::prelude::*;

/// Walks one non-tree edge's endpoints to their LCA, marking tree edges.
/// `marked[v]` stands for the tree edge `{v, parent(v)}`. The walk reads
/// only parents and levels, so the hybrid algorithm can supply an
/// Euler-tour-derived tree instead of a BFS tree (the marking phase "does
/// not depend on specific properties of breadth-first search trees").
#[inline]
fn mark_walk(parent: &[NodeId], level: &[u32], marked: &AtomicBitSet, u: NodeId, v: NodeId) {
    let (mut x, mut y) = (u, v);
    while level[x as usize] > level[y as usize] {
        marked.set(x as usize);
        x = parent[x as usize];
    }
    while level[y as usize] > level[x as usize] {
        marked.set(y as usize);
        y = parent[y as usize];
    }
    while x != y {
        marked.set(x as usize);
        marked.set(y as usize);
        x = parent[x as usize];
        y = parent[y as usize];
    }
}

/// CK's marking phase on the device, shared by [`bridges_ck_device`] and
/// the hybrid: one virtual thread per edge walks every non-tree,
/// non-loop edge up to its endpoints' LCA. Returns the marks by child
/// node.
pub(crate) fn mark_device(
    device: &Device,
    graph: &EdgeList,
    is_tree: &[u8],
    parent: &[NodeId],
    level: &[u32],
) -> AtomicBitSet {
    let marked = AtomicBitSet::new(graph.num_nodes());
    let _k = device.kernel_label("ck_mark_walk");
    // Tree flags, edge list and the rooted tree feed the closure; the mark
    // bitset is internally atomic (first-marker-wins races are the
    // algorithm's early exit, not a hazard).
    device.capture_read(is_tree);
    device.capture_read(graph.edges());
    device.capture_read(parent);
    device.capture_read(level);
    let edges = graph.edges();
    let marked_ref = &marked;
    device.for_each(edges.len(), |e| {
        let (u, v) = edges[e];
        if is_tree[e] == 0 && u != v {
            mark_walk(parent, level, marked_ref, u, v);
        }
    });
    marked
}

/// Assembles the per-edge bridge bitmap from the marking results.
fn collect_bridges(graph: &EdgeList, tree: &BfsTree, marked: &AtomicBitSet) -> BitSet {
    let n = graph.num_nodes();
    let mut is_bridge = BitSet::new(graph.num_edges());
    for v in 0..n as NodeId {
        if v != tree.root && !marked.get(v as usize) {
            is_bridge.set(tree.parent_edge[v as usize] as usize, true);
        }
    }
    is_bridge
}

/// CK on the simulated GPU device.
///
/// # Errors
/// [`BridgesError::Empty`] / [`BridgesError::Disconnected`] as for TV.
pub fn bridges_ck_device(
    device: &Device,
    graph: &EdgeList,
    csr: &Csr,
) -> Result<BridgesResult, BridgesError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(BridgesError::Empty);
    }
    let mut clock = PhaseClock::start();
    let tree = bfs_device(device, csr, 0);
    if !tree.spans() {
        return Err(BridgesError::Disconnected);
    }
    clock.lap("bfs");

    let is_tree = flag_tree_edges(device, graph.num_edges(), &tree.parent_edge);
    let marked = mark_device(device, graph, &is_tree, &tree.parent, &tree.level);
    let is_bridge = collect_bridges(graph, &tree, &marked);
    clock.lap("mark");

    Ok(BridgesResult {
        is_bridge,
        phases: clock.into_phases(),
    })
}

/// CK with rayon (the multi-core CPU implementation, after \[11, 52\]).
///
/// # Errors
/// [`BridgesError::Empty`] / [`BridgesError::Disconnected`] as for TV.
pub fn bridges_ck_rayon(graph: &EdgeList, csr: &Csr) -> Result<BridgesResult, BridgesError> {
    let n = graph.num_nodes();
    if n == 0 {
        return Err(BridgesError::Empty);
    }
    let mut clock = PhaseClock::start();
    let tree = bfs_rayon(csr, 0);
    if !tree.spans() {
        return Err(BridgesError::Disconnected);
    }
    clock.lap("bfs");

    let mut is_tree = vec![false; graph.num_edges()];
    for v in 0..n {
        let e = tree.parent_edge[v];
        if e != u32::MAX {
            is_tree[e as usize] = true;
        }
    }
    let marked = AtomicBitSet::new(n);
    let edges = graph.edges();
    (0..edges.len()).into_par_iter().for_each(|e| {
        let (u, v) = edges[e];
        if !is_tree[e] && u != v {
            mark_walk(&tree.parent, &tree.level, &marked, u, v);
        }
    });
    let is_bridge = collect_bridges(graph, &tree, &marked);
    clock.lap("mark");

    Ok(BridgesResult {
        is_bridge,
        phases: clock.into_phases(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::bridges_dfs;

    fn check_all(edges: Vec<(u32, u32)>, n: usize) {
        let device = Device::new();
        let graph = EdgeList::new(n, edges);
        let csr = Csr::from_edge_list(&graph);
        let expected = bridges_dfs(&graph, &csr).bridge_ids();
        let dev = bridges_ck_device(&device, &graph, &csr).unwrap();
        let ray = bridges_ck_rayon(&graph, &csr).unwrap();
        assert_eq!(dev.bridge_ids(), expected, "device CK");
        assert_eq!(ray.bridge_ids(), expected, "rayon CK");
    }

    #[test]
    fn tree_all_bridges() {
        check_all(vec![(0, 1), (1, 2), (1, 3), (3, 4)], 5);
    }

    #[test]
    fn cycle_no_bridges() {
        check_all(vec![(0, 1), (1, 2), (2, 3), (3, 0)], 4);
    }

    #[test]
    fn barbell() {
        check_all(
            vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
            6,
        );
    }

    #[test]
    fn parallel_and_loop_edges() {
        check_all(vec![(0, 1), (0, 1), (1, 1), (1, 2)], 3);
    }

    #[test]
    fn random_connected_graphs_match_dfs() {
        let mut state = 777u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..20 {
            let n = 30 + (step() % 300) as usize;
            let mut edges: Vec<(u32, u32)> = (1..n as u64)
                .map(|v| ((step() % v) as u32, v as u32))
                .collect();
            for _ in 0..(step() % (n as u64)) {
                let u = (step() % n as u64) as u32;
                let v = (step() % n as u64) as u32;
                if u != v {
                    edges.push((u, v));
                }
            }
            check_all(edges, n);
        }
    }

    #[test]
    fn long_cycle_stresses_deep_walks() {
        // A single 2000-cycle: every walk is ~d/2 long, no bridges.
        let n = 2000;
        let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
        edges.push((n as u32 - 1, 0));
        check_all(edges, n);
    }

    #[test]
    fn disconnected_rejected() {
        let device = Device::new();
        let graph = EdgeList::new(3, vec![(0, 1)]);
        let csr = Csr::from_edge_list(&graph);
        assert_eq!(
            bridges_ck_device(&device, &graph, &csr).unwrap_err(),
            BridgesError::Disconnected
        );
        assert_eq!(
            bridges_ck_rayon(&graph, &csr).unwrap_err(),
            BridgesError::Disconnected
        );
    }

    #[test]
    fn phases_recorded() {
        let device = Device::new();
        let graph = EdgeList::new(3, vec![(0, 1), (1, 2), (2, 0)]);
        let csr = Csr::from_edge_list(&graph);
        let r = bridges_ck_device(&device, &graph, &csr).unwrap();
        let names: Vec<&str> = r.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["bfs", "mark"]);
    }
}
