//! Device CSR construction on a small grid — 64-thread blocks and a
//! 16-element sequential threshold, so every offset scan and sort takes
//! its multi-block parallel path — must equal the host build.

use gpu_sim::{Device, DeviceConfig};
use graph_core::{Csr, EdgeList};

fn small_grid() -> Device {
    Device::with_config(DeviceConfig {
        threads: Some(4),
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

#[test]
fn device_csr_matches_host_build_on_a_small_grid() {
    let device = small_grid();
    for n in [2u32, 65, 300, 2000] {
        let graph = ladder(n);
        let host = Csr::from_edge_list(&graph);
        assert_eq!(Csr::from_edge_list_on(&device, &graph), host, "n={n}");
    }
}
