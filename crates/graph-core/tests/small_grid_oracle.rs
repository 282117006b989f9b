//! Device CSR construction on a small grid — 64-thread blocks and a
//! 16-element sequential threshold, so every launch takes its multi-block
//! parallel path — must equal the host build at pool widths 1, 2 and 4,
//! down to the edge-id order among parallel edges.

use gpu_sim::{Device, DeviceConfig};
use graph_core::{Csr, EdgeList};
use graphgen::kronecker_graph;

/// Edges per virtual thread of the device placement launch (the private
/// `PLACE_TILE` of `graph_core::csr`).
const TILE: usize = 16;

fn small_grid(threads: usize) -> Device {
    Device::with_config(DeviceConfig {
        threads: Some(threads),
        block_size: 64,
        seq_threshold: 16,
        ..Default::default()
    })
}

fn ladder(n: u32) -> EdgeList {
    let mut edges = Vec::new();
    for v in 1..n {
        edges.push((v - 1, v));
        if v >= 2 {
            edges.push((v - 2, v));
        }
    }
    EdgeList::new(n as usize, edges)
}

/// A star on `leaves + 1` nodes whose hub 0 also has a parallel edge to
/// every third leaf and a self-loop after every fifth leaf, so the hub's
/// run spans many tiles and blocks and holds equal neighbors.
fn star_with_multi_edges(leaves: u32) -> EdgeList {
    let mut edges = Vec::new();
    for v in 1..=leaves {
        edges.push((0, v));
        if v % 3 == 0 {
            edges.push((v, 0));
        }
        if v % 5 == 0 {
            edges.push((0, 0));
        }
    }
    EdgeList::new(leaves as usize + 1, edges)
}

fn has_duplicate_edges(graph: &EdgeList) -> bool {
    let mut keys: Vec<(u32, u32)> = graph
        .edges()
        .iter()
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .collect();
    keys.sort_unstable();
    keys.windows(2).any(|w| w[0] == w[1])
}

#[test]
fn device_csr_matches_host_build_on_a_small_grid() {
    let mut inputs: Vec<(String, EdgeList)> = [2u32, 65, 300, 2000]
        .into_iter()
        .map(|n| (format!("ladder n={n}"), ladder(n)))
        .collect();
    let kron = kronecker_graph(8, 8, 0x5CA7);
    assert!(
        has_duplicate_edges(&kron),
        "the Kronecker input must be a multigraph"
    );
    // Edge counts around one tile, and one past 64 tiles (a full block of
    // the placement grid) that leaves a partial last tile.
    for m in [0, 1, TILE - 1, TILE, TILE + 1, 64 * TILE + 7] {
        let prefix = EdgeList::new(kron.num_nodes(), kron.edges()[..m].to_vec());
        inputs.push((format!("kron prefix m={m}"), prefix));
    }
    inputs.push(("kron".to_string(), kron));
    inputs.push(("star".to_string(), star_with_multi_edges(700)));

    let hosts: Vec<Csr> = inputs
        .iter()
        .map(|(_, graph)| Csr::from_edge_list(graph))
        .collect();
    for threads in [1, 2, 4] {
        let device = small_grid(threads);
        for ((name, graph), host) in inputs.iter().zip(&hosts) {
            assert_eq!(
                &Csr::from_edge_list_on(&device, graph),
                host,
                "{name} at pool width {threads}"
            );
        }
    }
}
