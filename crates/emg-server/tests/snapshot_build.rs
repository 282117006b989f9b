//! Snapshot construction runs the bridge family's front end once: one
//! union-find forest and at most one Euler tour per load, and a tree
//! snapshot's statistics and LCA tables come from the bridges stage's tour
//! — bit-identical to the standalone construction the one-shot `emg lca`
//! path runs, whatever the order and orientation of the edge list.

use emg_server::Snapshot;
use euler_tour::{EulerTour, TreeStats};
use gpu_sim::{Device, DeviceConfig};
use graph_core::{EdgeList, Tree};
use graph_io::ParsedGraph;
use lca::InlabelTables;
use std::path::{Path, PathBuf};

/// A fresh per-process temporary directory for one test.
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emg-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `graph` as `<dir>/<name>.emgbin` (dense ids, no CSR sidecar).
fn write_emgbin(dir: &Path, name: &str, graph: &EdgeList) -> PathBuf {
    let path = dir.join(format!("{name}.emgbin"));
    graph_io::binary::write_file(&path, &ParsedGraph::dense(graph.clone()), None).unwrap();
    path
}

fn tree_graph(nodes: usize) -> EdgeList {
    let tree = graphgen::random_tree(nodes, None, 17);
    EdgeList::new(tree.num_nodes(), tree.edges())
}

#[test]
fn a_load_builds_one_forest_and_one_tour() {
    let (road, _) = graphgen::largest_connected_component(&graphgen::road_grid(30, 30, 0.8, 5));
    let cfg = DeviceConfig {
        capture: true,
        ..DeviceConfig::default()
    };
    let dir = temp_dir("load-once");
    for (name, graph) in [("tree", tree_graph(3_000)), ("road", road)] {
        let path = write_emgbin(&dir, name, &graph);
        let snapshot = Snapshot::load_with(name, &path, 1, &cfg).unwrap();
        assert_eq!(snapshot.tree.is_some(), name == "tree", "{name}");
        let captured = snapshot.device.launch_graph().expect("capture is on");
        let count = |label: &str| captured.nodes.iter().filter(|n| n.label == label).count();
        assert_eq!(count("cc_hook"), 1, "{name}: union-find forests built");
        assert_eq!(count("tour_heads"), 1, "{name}: Euler tours built");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tree_tables_match_the_standalone_construction() {
    let generated = tree_graph(5_000);
    let n = generated.num_nodes();
    let mut reversed = generated.edges().to_vec();
    reversed.reverse();
    let mut reoriented: Vec<(u32, u32)> = generated.edges().iter().map(|&(u, v)| (v, u)).collect();
    reoriented.rotate_left(n / 3);

    let device = Device::new();
    let dir = temp_dir("tree-tables");
    for (name, edges) in [("reversed", reversed), ("reoriented", reoriented)] {
        let graph = EdgeList::new(n, edges);
        let tree = Tree::from_edges(n, graph.edges(), 0).unwrap();
        let tour = EulerTour::build(&device, &tree).unwrap();
        let stats = TreeStats::compute(&device, &tour);
        let tables = InlabelTables::from_stats_device(&device, &stats);

        let path = write_emgbin(&dir, name, &graph);
        let snapshot = Snapshot::load(name, &path, 1).unwrap();
        let served = snapshot.tree.as_ref().expect("a tree snapshot");
        assert_eq!(served.stats, stats, "{name}: stats");
        assert_eq!(served.tables.inlabel, tables.inlabel, "{name}: inlabel");
        assert_eq!(
            served.tables.ascendant, tables.ascendant,
            "{name}: ascendant"
        );
        assert_eq!(served.tables.level, tables.level, "{name}: level");
        assert_eq!(served.tables.parent, tables.parent, "{name}: parent");
        assert_eq!(served.tables.head, tables.head, "{name}: head");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
