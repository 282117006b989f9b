//! Tarjan–Vishkin bridge finding (paper §4.1) — the theoretically optimal
//! GPU algorithm built on the Euler tour technique.
//!
//! Three phases, each timed for the Figure 11 breakdown:
//!
//! 1. **`spanning_tree`** — lock-free connected components ([`crate::cc`])
//!    emit a spanning tree as a byproduct;
//! 2. **`euler_tour`** — root the tree, compute preorder numbers and
//!    subtree sizes ([`euler_tour`] crate), and per-node min/max non-tree
//!    neighbor preorders (segmented reduce);
//! 3. **`detect_bridges`** — aggregate min/max over subtree intervals with
//!    segment-tree RMQ: tree edge `{u, parent(u)}` is a bridge iff both
//!    `low(u)` and `high(u)` stay inside `[pre(u), pre(u) + size(u))`.

use crate::forest::UnrootedForest;
use crate::result::{BridgesError, BridgesResult};
use crate::segment_tree::{SegOp, SegmentTree};
use euler_tour::{EulerTour, TreeStats};
use gpu_sim::Device;
use graph_core::bitset::BitSet;
use graph_core::{Csr, EdgeList};
use std::time::Instant;

/// Finds all bridges of a connected graph with the Tarjan–Vishkin
/// algorithm on the simulated device, over the union-find spanning forest.
///
/// # Errors
/// [`BridgesError::Empty`] for zero nodes, [`BridgesError::Disconnected`]
/// when the input is not connected.
pub fn bridges_tv(
    device: &Device,
    graph: &EdgeList,
    csr: &Csr,
) -> Result<BridgesResult, BridgesError> {
    let n = graph.num_nodes();
    let m = graph.num_edges();
    if n == 0 {
        return Err(BridgesError::Empty);
    }
    let mut phases = Vec::new();

    // Phase 1: the union-find spanning tree. The unrooted stage suffices
    // — TV roots through the Euler tour itself.
    let t0 = Instant::now();
    let forest = UnrootedForest::build(device, graph);
    if !forest.is_connected() {
        return Err(BridgesError::Disconnected);
    }
    let tree_edge_ids = forest.tree_edges;
    let mut is_tree = device.alloc_filled(m, 0u8);
    {
        let _k = device.kernel_label("tv_flag_tree_edges");
        device.capture_read(&tree_edge_ids);
        // Tree edge ids are distinct, so each slot has one writer.
        let tree_shared = device.shared(&mut is_tree);
        let ids = &tree_edge_ids;
        device.for_each(ids.len(), |i| {
            tree_shared.write(ids[i] as usize, 1u8);
        });
    }
    let is_tree = &is_tree;
    phases.push(("spanning_tree".to_string(), t0.elapsed()));

    // Phase 2: Euler tour statistics + per-node non-tree neighbor extremes.
    let t1 = Instant::now();
    let ids = &tree_edge_ids;
    let tree_pairs = {
        let _k = device.kernel_label("tv_gather_tree_edges");
        device.capture_read(ids);
        device.capture_read(graph.edges());
        device.alloc_pooled_map(ids.len(), |i| graph.edges()[ids[i] as usize])
    };
    let tour = EulerTour::build_from_edges(device, n, &tree_pairs, 0)
        .map_err(|_| BridgesError::Disconnected)?;
    drop(tree_pairs);
    let stats = TreeStats::compute(device, &tour);
    let pre = &stats.preorder;

    // Per-node extremes of non-tree neighbor preorders: the gather of each
    // adjacency slot's contribution is fused into the segmented reduce (the
    // paper's `segreduce`) — no materialized per-slot value arrays.
    let neighbors = csr.raw_neighbors();
    let edge_ids = csr.raw_edge_ids();
    let mut node_min = device.alloc_pooled::<u32>(n);
    // The per-slot contributions read the CSR arrays, tree flags, and
    // preorders through the fused generator closure — declare them.
    device.capture_read(&is_tree[..]);
    device.capture_read(edge_ids);
    device.capture_read(neighbors);
    device.capture_read(pre);
    device.map_segmented_reduce_into(
        csr.offsets(),
        u32::MAX,
        |s| {
            if is_tree[edge_ids[s] as usize] == 1 {
                u32::MAX
            } else {
                pre[neighbors[s] as usize]
            }
        },
        |a, b| a.min(b),
        &mut node_min,
    );
    let mut node_max = device.alloc_pooled::<u32>(n);
    device.capture_read(&is_tree[..]);
    device.capture_read(edge_ids);
    device.capture_read(neighbors);
    device.capture_read(pre);
    device.map_segmented_reduce_into(
        csr.offsets(),
        0u32,
        |s| {
            if is_tree[edge_ids[s] as usize] == 1 {
                0
            } else {
                pre[neighbors[s] as usize]
            }
        },
        |a, b| a.max(b),
        &mut node_max,
    );
    phases.push(("euler_tour".to_string(), t1.elapsed()));

    // Phase 3: low/high via RMQ over preorder-indexed arrays, then the
    // bridge predicate per tree edge.
    let t2 = Instant::now();
    let mut by_pre_min = device.alloc_filled(n, u32::MAX);
    let mut by_pre_max = device.alloc_filled(n, 0u32);
    {
        let _k = device.kernel_label("tv_permute_by_preorder");
        device.capture_read(pre);
        device.capture_read(&node_min[..]);
        device.capture_read(&node_max[..]);
        // Preorder is a permutation of 1..=n, so each slot has one writer.
        let min_shared = device.shared(&mut by_pre_min);
        let max_shared = device.shared(&mut by_pre_max);
        let node_min_ref = &node_min;
        let node_max_ref = &node_max;
        device.for_each(n, |v| {
            let slot = (pre[v] - 1) as usize;
            min_shared.write(slot, node_min_ref[v]);
            max_shared.write(slot, node_max_ref[v]);
        });
    }
    let min_tree = SegmentTree::build(device, &by_pre_min, SegOp::Min);
    let max_tree = SegmentTree::build(device, &by_pre_max, SegOp::Max);

    let mut bridge_flags = device.alloc_filled(m, 0u8);
    {
        let _k = device.kernel_label("tv_detect_bridges");
        // Closure-side inputs: tree edge ids, tour statistics, the edge
        // endpoints, and both segment trees' backing arrays.
        device.capture_read(&tree_edge_ids);
        device.capture_read(pre);
        device.capture_read(&stats.parent);
        device.capture_read(&stats.subtree_size);
        device.capture_read(graph.edges());
        min_tree.declare_query_reads(device);
        max_tree.declare_query_reads(device);
        // Tree edge ids are distinct, so each slot has one writer.
        let flags_shared = device.shared(&mut bridge_flags);
        let ids = &tree_edge_ids;
        let parent = &stats.parent;
        let size = &stats.subtree_size;
        let edges = graph.edges();
        let min_tree_ref = &min_tree;
        let max_tree_ref = &max_tree;
        device.for_each(ids.len(), |i| {
            let e = ids[i];
            let (x, y) = edges[e as usize];
            // The child endpoint is the one whose parent is the other.
            let c = if parent[x as usize] == y { x } else { y };
            let lo = (pre[c as usize] - 1) as usize;
            let hi = lo + size[c as usize] as usize - 1;
            let low = min_tree_ref.query(lo, hi);
            let high = max_tree_ref.query(lo, hi);
            // Bridge iff no non-tree edge escapes the subtree interval
            // [pre(c), pre(c) + size(c)): low/high are preorder numbers
            // (1-based), the interval in 1-based terms is [lo+1, hi+1].
            let inside_low = low == u32::MAX || low > lo as u32;
            let inside_high = high == 0 || high <= hi as u32 + 1;
            flags_shared.write(e as usize, u8::from(inside_low && inside_high));
        });
    }
    device.capture_host_read(&bridge_flags[..]);
    let is_bridge: BitSet = bridge_flags.iter().map(|&b| b == 1).collect();
    phases.push(("detect_bridges".to_string(), t2.elapsed()));

    Ok(BridgesResult { is_bridge, phases })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::bridges_dfs;

    fn check_against_dfs(edges: Vec<(u32, u32)>, n: usize) {
        let device = Device::new();
        let graph = EdgeList::new(n, edges);
        let csr = Csr::from_edge_list(&graph);
        let expected = bridges_dfs(&graph, &csr);
        let got = bridges_tv(&device, &graph, &csr).unwrap();
        assert_eq!(
            got.bridge_ids(),
            expected.bridge_ids(),
            "edges={:?}",
            graph.edges()
        );
    }

    #[test]
    fn tree_all_bridges() {
        check_against_dfs(vec![(0, 1), (1, 2), (1, 3), (3, 4)], 5);
    }

    #[test]
    fn cycle_no_bridges() {
        check_against_dfs(vec![(0, 1), (1, 2), (2, 3), (3, 0)], 4);
    }

    #[test]
    fn barbell() {
        check_against_dfs(
            vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
            6,
        );
    }

    #[test]
    fn parallel_edges() {
        check_against_dfs(vec![(0, 1), (0, 1), (1, 2)], 3);
    }

    #[test]
    fn self_loops() {
        check_against_dfs(vec![(0, 0), (0, 1), (1, 1), (1, 2), (2, 0)], 3);
    }

    #[test]
    fn random_connected_graphs_match_dfs() {
        let mut state = 1234u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for trial in 0..20 {
            let n = 50 + (step() % 200) as usize;
            // Random spanning tree + extra random edges.
            let mut edges: Vec<(u32, u32)> = (1..n as u64)
                .map(|v| ((step() % v) as u32, v as u32))
                .collect();
            let extra = step() % (2 * n as u64);
            for _ in 0..extra {
                edges.push(((step() % n as u64) as u32, (step() % n as u64) as u32));
            }
            // Drop self loops introduced above with probability; keep some.
            let edges: Vec<(u32, u32)> = edges
                .into_iter()
                .filter(|&(u, v)| u != v || trial % 3 == 0)
                .collect();
            check_against_dfs(edges, n);
        }
    }

    #[test]
    fn disconnected_rejected() {
        let device = Device::new();
        let graph = EdgeList::new(4, vec![(0, 1), (2, 3)]);
        let csr = Csr::from_edge_list(&graph);
        assert_eq!(
            bridges_tv(&device, &graph, &csr).unwrap_err(),
            BridgesError::Disconnected
        );
    }

    #[test]
    fn empty_rejected() {
        let device = Device::new();
        let graph = EdgeList::empty(0);
        let csr = Csr::from_edge_list(&graph);
        assert_eq!(
            bridges_tv(&device, &graph, &csr).unwrap_err(),
            BridgesError::Empty
        );
    }

    #[test]
    fn single_node_no_bridges() {
        let device = Device::new();
        let graph = EdgeList::empty(1);
        let csr = Csr::from_edge_list(&graph);
        let r = bridges_tv(&device, &graph, &csr).unwrap();
        assert_eq!(r.num_bridges(), 0);
    }

    #[test]
    fn phases_recorded_in_order() {
        let device = Device::new();
        let graph = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)]);
        let csr = Csr::from_edge_list(&graph);
        let r = bridges_tv(&device, &graph, &csr).unwrap();
        let names: Vec<&str> = r.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["spanning_tree", "euler_tour", "detect_bridges"]);
    }
}
