//! The hybrid bridge-finding algorithm the paper proposes in §4.3:
//! replace CK's BFS with the (faster, diameter-insensitive) connected-
//! components spanning tree, then recover the parents and levels that the
//! marking phase needs **via the Euler tour technique**.
//!
//! Phases match Figure 11's hybrid row: `spanning_tree`, `euler_tour`,
//! `levels_parents`, `mark`.

use crate::ck;
use crate::forest::UnrootedForest;
use crate::result::{BridgesError, BridgesResult, PhaseClock};
use euler_tour::TreeStats;
use gpu_sim::Device;
use graph_core::bitset::BitSet;
use graph_core::{Csr, EdgeList};

/// Finds bridges with the hybrid algorithm (CC tree + Euler-tour
/// levels/parents + CK marking).
///
/// The CSR parameter keeps the signature interchangeable with
/// [`crate::bridges_tv`] / [`crate::bridges_ck_device`]; the algorithm
/// never consults the adjacency — the union-find forest hooks over the
/// edge list and the marking walk follows parent pointers.
///
/// # Errors
/// [`BridgesError::Empty`] / [`BridgesError::Disconnected`] as for TV.
pub fn bridges_hybrid(
    device: &Device,
    graph: &EdgeList,
    _csr: &Csr,
) -> Result<BridgesResult, BridgesError> {
    if graph.num_nodes() == 0 {
        return Err(BridgesError::Empty);
    }
    // Phases 1 and 2: the union-find spanning tree and its Euler tour.
    let mut clock = PhaseClock::start();
    let forest = UnrootedForest::build(device, graph);
    let (is_tree, tour) = forest.tour(device, graph, &mut clock)?;
    clock.lap("euler_tour");

    // Phase 3: levels and parents from the tour ("it is important to note
    // that this algorithm outputs an unrooted spanning tree, but the marking
    // phase requires a rooted tree ... we compute both parents and levels
    // using the Euler tour technique").
    let stats = TreeStats::compute(device, &tour);
    clock.lap("levels_parents");

    // Phase 4: CK marking on the CC tree. Tree edge {x, y} with child c is
    // a bridge iff c's upward edge was never marked.
    let marked = ck::mark_device(device, graph, &is_tree, &stats.parent, &stats.level);
    let mut bridge_flags = device.alloc_filled(graph.num_edges(), 0u8);
    {
        let _k = device.kernel_label("hybrid_collect_bridges");
        // Tree edge ids are distinct, so each slot has one writer.
        device.capture_read(&forest.tree_edges);
        device.capture_read(&stats.parent);
        device.capture_read(graph.edges());
        let flags_shared = device.shared(&mut bridge_flags);
        let ids = &forest.tree_edges;
        let parent = &stats.parent;
        let edges = graph.edges();
        let marked_ref = &marked;
        device.for_each(ids.len(), |i| {
            let e = ids[i];
            let (x, y) = edges[e as usize];
            let c = if parent[x as usize] == y { x } else { y };
            flags_shared.write(e as usize, u8::from(!marked_ref.get(c as usize)));
        });
    }
    // The host folds the flags into the result bitset.
    device.capture_host_read(&bridge_flags[..]);
    let is_bridge: BitSet = bridge_flags.iter().map(|&b| b == 1).collect();
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

    fn check(edges: Vec<(u32, u32)>, n: usize) {
        let device = Device::new();
        let graph = EdgeList::new(n, edges);
        let csr = Csr::from_edge_list(&graph);
        let expected = bridges_dfs(&graph, &csr).bridge_ids();
        let got = bridges_hybrid(&device, &graph, &csr).unwrap();
        assert_eq!(got.bridge_ids(), expected);
    }

    #[test]
    fn tree_all_bridges() {
        check(vec![(0, 1), (1, 2), (1, 3), (3, 4)], 5);
    }

    #[test]
    fn cycle_no_bridges() {
        check(vec![(0, 1), (1, 2), (2, 3), (3, 0)], 4);
    }

    #[test]
    fn barbell() {
        check(
            vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)],
            6,
        );
    }

    #[test]
    fn multi_edges_and_loops() {
        check(vec![(0, 1), (0, 1), (1, 1), (1, 2), (2, 3), (3, 1)], 4);
    }

    #[test]
    fn random_graphs_match_dfs() {
        let mut state = 4242u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..15 {
            let n = 40 + (step() % 250) as usize;
            let mut edges: Vec<(u32, u32)> = (1..n as u64)
                .map(|v| ((step() % v) as u32, v as u32))
                .collect();
            for _ in 0..(step() % (n as u64 * 2)) {
                let u = (step() % n as u64) as u32;
                let v = (step() % n as u64) as u32;
                if u != v {
                    edges.push((u, v));
                }
            }
            check(edges, n);
        }
    }

    #[test]
    fn phases_match_figure_11_hybrid_row() {
        let device = Device::new();
        let graph = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)]);
        let csr = Csr::from_edge_list(&graph);
        let r = bridges_hybrid(&device, &graph, &csr).unwrap();
        let names: Vec<&str> = r.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["spanning_tree", "euler_tour", "levels_parents", "mark"]
        );
    }

    #[test]
    fn disconnected_rejected() {
        let device = Device::new();
        let graph = EdgeList::new(4, vec![(0, 1), (2, 3)]);
        let csr = Csr::from_edge_list(&graph);
        assert_eq!(
            bridges_hybrid(&device, &graph, &csr).unwrap_err(),
            BridgesError::Disconnected
        );
    }
}
