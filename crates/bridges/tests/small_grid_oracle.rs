//! The TV and hybrid pipelines on a small grid — 64-thread blocks and a
//! 16-element sequential threshold, so their compactions and prefix sums
//! take the multi-block parallel paths — must report the DFS oracle's
//! bridges, and TV's biconnectivity the sequential oracle's components.

use bridges::{bcc_sequential, bcc_tv, bridges_dfs, bridges_hybrid, bridges_tv};
use gpu_sim::{Device, DeviceConfig};
use graph_core::{Csr, EdgeList};

/// Connected graph with bridges at known cut points: chained cliques.
fn chained_cliques(cliques: u32, size: u32) -> EdgeList {
    let mut edges = Vec::new();
    for c in 0..cliques {
        let base = c * size;
        for i in 0..size {
            for j in (i + 1)..size {
                edges.push((base + i, base + j));
            }
        }
        if c > 0 {
            edges.push((base - 1, base)); // the bridge between cliques
        }
    }
    EdgeList::new((cliques * size) as usize, edges)
}

#[test]
fn tv_and_hybrid_bridges_match_dfs_on_a_small_grid() {
    let graph = chained_cliques(12, 7);
    let csr = Csr::from_edge_list(&graph);
    let oracle = bridges_dfs(&graph, &csr);
    let device = Device::with_config(DeviceConfig {
        threads: Some(4),
        block_size: 64,
        seq_threshold: 16,
        ..Default::default()
    });

    for run in [bridges_tv, bridges_hybrid] {
        let r = run(&device, &graph, &csr).unwrap();
        assert_eq!(r.bridge_ids(), oracle.bridge_ids());
        assert_eq!(r.num_bridges(), 11);
    }

    // 12 cliques and the 11 bridges between them.
    let bcc = bcc_tv(&device, &graph, &csr).unwrap();
    assert_eq!(
        bcc.canonical_partition(),
        bcc_sequential(&graph, &csr).canonical_partition()
    );
    assert_eq!(bcc.num_components, 23);
}
