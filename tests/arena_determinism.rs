//! Arena-reuse determinism across whole pipelines: repeated runs on one
//! `Device` (warm, recycled pool) must be bit-identical to fresh-device
//! runs for the bridges and Euler-tour pipelines — the guarantee that lets
//! a long-lived service hold one device and stream work through it.
//!
//! CI runs this suite under `RAYON_NUM_THREADS=1` and `=4`.

use bridges::{bridges_hybrid, bridges_tv};
use euler_meets_gpu as _;
use euler_tour::{EulerTour, Ranker, TreeStats};
use gpu_sim::{Device, DeviceConfig};
use graph_core::{Csr, EdgeList};
use lca::inlabel::InlabelTables;

fn test_graph(n: usize, seed: u64) -> EdgeList {
    let mut state = seed;
    let mut step = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 33
    };
    // Random spanning tree + extra edges: connected, bridges guaranteed.
    let mut edges: Vec<(u32, u32)> = (1..n as u64)
        .map(|v| ((step() % v) as u32, v as u32))
        .collect();
    for _ in 0..n / 2 {
        let u = (step() % n as u64) as u32;
        let v = (step() % n as u64) as u32;
        edges.push((u, v));
    }
    EdgeList::new(n, edges)
}

fn malloc_device() -> Device {
    Device::with_config(DeviceConfig {
        pooling: false,
        ..Default::default()
    })
}

#[test]
fn bridges_pipelines_bit_identical_on_warm_pool() {
    let n = 4000;
    let graph = test_graph(n, 0xB51D);
    let csr = Csr::from_edge_list(&graph);

    let shared = Device::new();
    let tv_base = bridges_tv(&shared, &graph, &csr).unwrap().bridge_ids();
    let hy_base = bridges_hybrid(&shared, &graph, &csr).unwrap().bridge_ids();
    assert_eq!(tv_base, hy_base, "TV and hybrid must agree");

    for round in 0..3 {
        // Warm pool (same device), cold pool (fresh device), pooling off.
        for (label, device) in [
            ("warm", None),
            ("fresh", Some(Device::new())),
            ("malloc", Some(malloc_device())),
        ] {
            let device = device.as_ref().unwrap_or(&shared);
            assert_eq!(
                bridges_tv(device, &graph, &csr).unwrap().bridge_ids(),
                tv_base,
                "tv/{label} round {round}"
            );
            assert_eq!(
                bridges_hybrid(device, &graph, &csr).unwrap().bridge_ids(),
                hy_base,
                "hybrid/{label} round {round}"
            );
        }
    }
}

#[test]
fn euler_tour_pipeline_bit_identical_on_warm_pool() {
    let n = 6000;
    let mut state = 0xE71Au64;
    let mut step = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 33
    };
    let edges: Vec<(u32, u32)> = (1..n as u64)
        .map(|v| ((step() % v) as u32, v as u32))
        .collect();

    let shared = Device::new();
    let base = EulerTour::build_from_edges(&shared, n, &edges, 0).unwrap();
    let base_stats = TreeStats::compute(&shared, &base);
    base_stats.validate().unwrap();

    for ranker in [Ranker::Sequential, Ranker::Wyllie, Ranker::WeiJaJa] {
        for round in 0..2 {
            let warm =
                EulerTour::build_from_edges_with_ranker(&shared, n, &edges, 0, ranker).unwrap();
            assert_eq!(warm.rank(), base.rank(), "{ranker:?} warm round {round}");
            assert_eq!(warm.order(&shared), base.order(&shared));
            let fresh_dev = Device::new();
            let fresh =
                EulerTour::build_from_edges_with_ranker(&fresh_dev, n, &edges, 0, ranker).unwrap();
            assert_eq!(fresh.rank(), base.rank(), "{ranker:?} fresh round {round}");
            let stats = TreeStats::compute(&shared, &warm);
            assert_eq!(stats, base_stats);
        }
    }
}

#[test]
fn inlabel_pipeline_bit_identical_on_warm_pool() {
    let n = 5000;
    let mut parents = vec![graph_core::ids::INVALID_NODE; n];
    for (v, p) in parents.iter_mut().enumerate().skip(1) {
        *p = (v / 3) as u32;
    }
    let tree = graph_core::Tree::from_parent_array(parents, 0).unwrap();
    let stats = euler_tour::cpu::sequential_stats(&tree);

    let shared = Device::new();
    let base = InlabelTables::from_stats_device(&shared, &stats);
    for round in 0..3 {
        let warm = InlabelTables::from_stats_device(&shared, &stats);
        assert_eq!(warm.inlabel, base.inlabel, "warm round {round}");
        assert_eq!(warm.ascendant, base.ascendant);
        assert_eq!(warm.head, base.head);
        let fresh = InlabelTables::from_stats_device(&Device::new(), &stats);
        assert_eq!(fresh.ascendant, base.ascendant, "fresh round {round}");
    }
    // Ground truth: the sequential construction.
    let seq = InlabelTables::from_stats_seq(&stats);
    assert_eq!(base.inlabel, seq.inlabel);
    assert_eq!(base.ascendant, seq.ascendant);
    assert_eq!(base.head, seq.head);
}

#[test]
fn warm_pipelines_allocate_zero_scratch_at_steady_state() {
    let graph = test_graph(3000, 0x57E4);
    let csr = Csr::from_edge_list(&graph);
    let device = Device::new();
    let base = bridges_tv(&device, &graph, &csr).unwrap().bridge_ids();
    let before = device.metrics().snapshot();
    for _ in 0..3 {
        assert_eq!(
            bridges_tv(&device, &graph, &csr).unwrap().bridge_ids(),
            base
        );
    }
    let d = device.metrics().snapshot().since(&before);
    assert_eq!(
        d.bytes_allocated, 0,
        "steady-state bridges_tv must serve all scratch from the pool"
    );
    assert!(d.bytes_reused > 0);
}
