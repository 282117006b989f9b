//! Full-pipeline sanitizer gate: every production algorithm, run end to
//! end under `SanitizeMode::Full`, must produce **zero** findings. This is
//! the flip side of the seeded-violation suite in
//! `crates/gpu-sim/tests/sanitizer.rs`: there we prove the sanitizer sees
//! planted bugs; here we prove the shipped kernels are clean (every
//! intentional race carries its `benign` annotation, every pooled buffer
//! is initialized before it is read, no index ever leaves its region).

use euler_meets_gpu::gpu_sim::SanitizeMode;
use euler_meets_gpu::prelude::*;
use euler_tour::ranking::Ranker;

/// A sanitizing configuration with small blocks so even these small
/// inputs fan out across many virtual blocks (racecheck needs cross-block
/// traffic) and a low inline threshold so the parallel paths actually run.
fn sanitizing_config() -> DeviceConfig {
    DeviceConfig {
        threads: Some(4),
        block_size: 256,
        seq_threshold: 64,
        sanitize: SanitizeMode::Full,
        sanitize_fatal: false,
        ..DeviceConfig::default()
    }
}

fn sanitizing_device() -> Device {
    Device::with_config(sanitizing_config())
}

/// Asserts the device accumulated no findings, printing them all if it did.
fn assert_clean(device: &Device, stage: &str) {
    let findings = device.take_findings();
    assert!(
        findings.is_empty(),
        "sanitizer findings in `{stage}`:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f:?}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn bridges_all_backends_are_sanitizer_clean() {
    let device = sanitizing_device();
    let graph = graphgen::ba_graph(600, 3, 11);
    let csr = Csr::from_edge_list(&graph);
    assert_clean(&device, "csr construction");

    let tv = bridges_tv(&device, &graph, &csr).expect("tv");
    assert_clean(&device, "bridges_tv");
    let hy = bridges_hybrid(&device, &graph, &csr).expect("hybrid");
    assert_clean(&device, "bridges_hybrid");
    assert_eq!(tv.is_bridge, hy.is_bridge);

    bridges_ck_device(&device, &graph, &csr).expect("ck");
    assert_clean(&device, "bridges_ck_device");

    bcc_tv(&device, &graph, &csr).expect("bcc");
    assert_clean(&device, "bcc_tv");

    let snap = device.metrics().snapshot();
    assert_eq!(snap.san_findings, 0);
    assert!(snap.san_accesses > 0, "Full mode must actually track");
}

/// `emg serve`'s snapshot build drives the bridges stage over its own
/// forest and, on a tree, the inlabel tables from that stage's tour.
#[test]
fn snapshot_construction_is_sanitizer_clean() {
    let dir = std::env::temp_dir().join(format!("emg-sanitize-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tree = random_tree(800, None, 41);
    let (road, _) = largest_connected_component(&road_grid(25, 25, 0.8, 42));
    let graphs = [
        ("tree", EdgeList::new(tree.num_nodes(), tree.edges())),
        ("road", road),
    ];
    for (name, graph) in graphs {
        let path = dir.join(format!("{name}.emgbin"));
        graph_io::binary::write_file(&path, &graph_io::ParsedGraph::dense(graph), None).unwrap();
        let snapshot = emg_server::Snapshot::load_with(name, &path, 1, &sanitizing_config())
            .expect("snapshot load");
        assert_eq!(snapshot.tree.is_some(), name == "tree", "{name}");
        assert_clean(&snapshot.device, &format!("Snapshot::load_with[{name}]"));
        let counters = snapshot.device.metrics().snapshot();
        assert!(counters.san_accesses > 0, "{name}: Full mode must track");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn euler_tour_and_stats_are_sanitizer_clean_for_every_ranker() {
    let device = sanitizing_device();
    let tree = random_tree(800, None, 21);
    for ranker in [Ranker::Sequential, Ranker::Wyllie, Ranker::WeiJaJa] {
        let tour = EulerTour::build_with_ranker(&device, &tree, ranker).expect("tour");
        assert_clean(&device, &format!("euler_tour[{ranker:?}]"));
        let stats = TreeStats::compute(&device, &tour);
        assert_clean(&device, &format!("tree_stats[{ranker:?}]"));
        assert_eq!(
            stats.subtree_size[tree.root() as usize] as usize,
            tree.num_nodes()
        );
    }
    assert_eq!(device.metrics().snapshot().san_findings, 0);
}

#[test]
fn lca_algorithms_are_sanitizer_clean() {
    let device = sanitizing_device();
    let tree = random_tree(700, Some(8), 31);
    let queries = random_queries(700, 1_000, 32);
    let mut out = vec![0u32; queries.len()];

    let inlabel = GpuInlabelLca::preprocess(&device, &tree).expect("inlabel");
    inlabel.query_batch(&queries, &mut out);
    assert_clean(&device, "gpu_inlabel_lca");

    let rmq = GpuRmqLca::preprocess(&device, &tree).expect("rmq");
    rmq.query_batch(&queries, &mut out);
    assert_clean(&device, "gpu_rmq_lca");

    let naive = NaiveGpuLca::preprocess(&device, &tree);
    naive.query_batch(&queries, &mut out);
    assert_clean(&device, "naive_gpu_lca");

    assert_eq!(device.metrics().snapshot().san_findings, 0);
}
