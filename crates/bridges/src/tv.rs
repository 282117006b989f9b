//! Tarjan–Vishkin bridge finding (paper §4.1) — the theoretically optimal
//! GPU algorithm built on the Euler tour technique.
//!
//! Three phases, each timed for the Figure 11 breakdown:
//!
//! 1. **`spanning_tree`** — lock-free connected components ([`crate::cc`])
//!    emit a spanning tree as a byproduct;
//! 2. **`euler_tour`** — root the tree, compute preorder numbers and
//!    subtree sizes ([`euler_tour`] crate), and per-node (min, max)
//!    non-tree neighbor preorders as pairs, in one segmented reduce;
//! 3. **`detect_bridges`** — aggregate the pairs over subtree intervals
//!    with one segment tree of (min, max) pairs: tree edge
//!    `{u, parent(u)}` is a bridge iff both `low(u)` and `high(u)` stay
//!    inside `[pre(u), pre(u) + size(u))`.
//!
//! Biconnectivity ([`crate::bcc`]) reuses the low/high steps of phases 2
//! and 3: `node_extremes` and `LowHigh`.

use crate::forest::UnrootedForest;
use crate::result::{BridgesError, BridgesResult, PhaseClock};
use crate::segment_tree::{combine, SegmentTree, EMPTY};
use euler_tour::TreeStats;
use gpu_sim::{ArenaVec, Device};
use graph_core::bitset::BitSet;
use graph_core::{Csr, EdgeList};

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
    if graph.num_nodes() == 0 {
        return Err(BridgesError::Empty);
    }
    let clock = PhaseClock::start();
    let forest = UnrootedForest::build(device, graph);
    tv(device, graph, csr, &forest, clock).map(|(result, _)| result)
}

/// [`bridges_tv`] over a forest of `graph` already built with
/// [`UnrootedForest::build`], so a caller that keeps the forest builds it
/// once. Also returns the statistics of the spanning tree rooted at node
/// 0; on a tree input they are the tree's own.
///
/// # Errors
/// As [`bridges_tv`].
pub fn bridges_tv_on_forest(
    device: &Device,
    graph: &EdgeList,
    csr: &Csr,
    forest: &UnrootedForest,
) -> Result<(BridgesResult, TreeStats), BridgesError> {
    if graph.num_nodes() == 0 {
        return Err(BridgesError::Empty);
    }
    tv(device, graph, csr, forest, PhaseClock::start())
}

/// The three phases; `clock` started with phase 1.
fn tv(
    device: &Device,
    graph: &EdgeList,
    csr: &Csr,
    forest: &UnrootedForest,
    mut clock: PhaseClock,
) -> Result<(BridgesResult, TreeStats), BridgesError> {
    // Phase 1 (closed by the front end): tree-edge flags. Phase 2: the
    // Euler tour statistics and per-node non-tree neighbor extremes.
    let (is_tree, tour) = forest.tour(device, graph, &mut clock)?;
    let stats = TreeStats::compute(device, &tour);
    let pre = &stats.preorder;
    let extremes = node_extremes(device, csr, &is_tree, pre);
    clock.lap("euler_tour");

    // Phase 3: low/high via RMQ over the preorder-indexed pairs, then the
    // bridge predicate per tree edge.
    let low_high = LowHigh::build(device, pre, &extremes);
    let mut bridge_flags = device.alloc_filled(graph.num_edges(), 0u8);
    {
        let _k = device.kernel_label("tv_detect_bridges");
        // Closure-side inputs: tree edge ids, tour statistics, the edge
        // endpoints, and the segment tree's backing array.
        device.capture_read(&forest.tree_edges);
        device.capture_read(pre);
        device.capture_read(&stats.parent);
        device.capture_read(&stats.subtree_size);
        device.capture_read(graph.edges());
        low_high.declare_query_reads(device);
        // Tree edge ids are distinct, so each slot has one writer.
        let flags_shared = device.shared(&mut bridge_flags);
        let ids = &forest.tree_edges;
        let parent = &stats.parent;
        let size = &stats.subtree_size;
        let edges = graph.edges();
        device.for_each(ids.len(), |i| {
            let e = ids[i];
            let (x, y) = edges[e as usize];
            // The child endpoint is the one whose parent is the other.
            let c = if parent[x as usize] == y { x } else { y };
            let (p, s) = (pre[c as usize], size[c as usize]);
            let (low, high) = low_high.subtree(p, s);
            // Bridge iff no non-tree edge escapes the subtree's preorder
            // interval [p, p + s); a node with no non-tree neighbor
            // contributes the identities u32::MAX and 0, which stay inside.
            flags_shared.write(e as usize, u8::from(low >= p && high < p + s));
        });
    }
    device.capture_host_read(&bridge_flags[..]);
    let is_bridge: BitSet = bridge_flags.iter().map(|&b| b == 1).collect();
    clock.lap("detect_bridges");

    let phases = clock.into_phases();
    Ok((BridgesResult { is_bridge, phases }, stats))
}

/// Per-node `(min, max)` of the preorder numbers `pre` of non-tree
/// neighbors ([`EMPTY`], `(u32::MAX, 0)`, for a node with none). One
/// segmented reduce of pairs over the adjacency (the paper's `segreduce`),
/// with each slot's contribution gathered inside it — no materialized
/// per-slot value array.
pub(crate) fn node_extremes<'d>(
    device: &'d Device,
    csr: &Csr,
    is_tree: &[u8],
    pre: &[u32],
) -> ArenaVec<'d, (u32, u32)> {
    let neighbors = csr.raw_neighbors();
    let edge_ids = csr.raw_edge_ids();
    let mut out = device.alloc_pooled::<(u32, u32)>(pre.len());
    // The per-slot contributions read the CSR arrays, tree flags, and
    // preorders through the fused generator closure — declare them.
    device.capture_read(is_tree);
    device.capture_read(edge_ids);
    device.capture_read(neighbors);
    device.capture_read(pre);
    device.map_segmented_reduce_into(
        csr.offsets(),
        EMPTY,
        |s| {
            if is_tree[edge_ids[s] as usize] == 1 {
                EMPTY
            } else {
                let p = pre[neighbors[s] as usize];
                (p, p)
            }
        },
        combine,
        &mut out,
    );
    out
}

/// Subtree low/high by range queries: the [`node_extremes`] laid out by
/// preorder under one segment tree of `(min, max)` pairs.
pub(crate) struct LowHigh {
    tree: SegmentTree,
}

impl LowHigh {
    /// Builds the segment tree with the per-node extremes permuted
    /// straight into its preorder-ordered leaves.
    pub(crate) fn build(device: &Device, pre: &[u32], extremes: &[(u32, u32)]) -> Self {
        let n = pre.len();
        let tree = SegmentTree::build(device, n, |leaves| {
            let _k = device.kernel_label("tv_permute_by_preorder");
            device.capture_read(pre);
            device.capture_read(extremes);
            // Preorder is a permutation of 1..=n, so each leaf has one
            // writer and every leaf is written.
            let leaves = device.shared(leaves);
            device.for_each(n, |v| {
                leaves.write((pre[v] - 1) as usize, extremes[v]);
            });
        });
        Self { tree }
    }

    /// `(low, high)` of the subtree whose 1-based preorder interval is
    /// `[pre, pre + size)`: the least and greatest preorder a non-tree edge
    /// leaving any of its nodes reaches (`u32::MAX` and `0` if none does).
    #[inline]
    pub(crate) fn subtree(&self, pre: u32, size: u32) -> (u32, u32) {
        let lo = (pre - 1) as usize;
        self.tree.query(lo, lo + size as usize - 1)
    }

    /// Declares the tree's backing array as a read of the next launch —
    /// call before a kernel whose closure runs [`LowHigh::subtree`].
    pub(crate) fn declare_query_reads(&self, device: &Device) {
        self.tree.declare_query_reads(device);
    }
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
