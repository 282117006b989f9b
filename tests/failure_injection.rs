//! Failure injection: every documented error path of the public API, fed
//! the malformed input that triggers it. A library a downstream user would
//! adopt must fail loudly and precisely, not corrupt or hang.

use euler_meets_gpu::bridges::{self, BridgesError};
use euler_meets_gpu::euler_tour::{EulerTour, TourError};
use euler_meets_gpu::graph_io;
use euler_meets_gpu::prelude::*;
use graph_core::ids::INVALID_NODE;
use graph_core::tree::TreeError;

// ----- graph-core::Tree ------------------------------------------------

#[test]
fn tree_rejects_empty_parent_array() {
    assert_eq!(
        Tree::from_parent_array(vec![], 0).unwrap_err(),
        TreeError::Empty
    );
}

#[test]
fn tree_rejects_root_with_parent() {
    // Root must carry INVALID_NODE.
    let err = Tree::from_parent_array(vec![1, INVALID_NODE], 0).unwrap_err();
    assert_eq!(err, TreeError::BadRoot(0));
}

#[test]
fn tree_rejects_multiple_roots() {
    let err = Tree::from_parent_array(vec![INVALID_NODE, INVALID_NODE], 0).unwrap_err();
    assert!(matches!(err, TreeError::BadRoot(_)), "{err:?}");
}

#[test]
fn tree_rejects_out_of_range_parent() {
    let err = Tree::from_parent_array(vec![INVALID_NODE, 99], 0).unwrap_err();
    assert_eq!(
        err,
        TreeError::ParentOutOfRange {
            node: 1,
            parent: 99
        }
    );
}

#[test]
fn tree_rejects_parent_cycle() {
    // 1 → 2 → 1 never reaches the root.
    let err = Tree::from_parent_array(vec![INVALID_NODE, 2, 1], 0).unwrap_err();
    assert!(matches!(err, TreeError::Cycle(_)), "{err:?}");
}

#[test]
fn tree_from_edges_rejects_disconnection_and_cycles() {
    // 4 nodes, 3 edges, but node 3 is in a self-contained pair.
    assert!(Tree::from_edges(4, &[(0, 1), (1, 2), (2, 1)], 0).is_err());
    assert!(Tree::from_edges(4, &[(0, 1), (2, 3)], 0).is_err());
}

// ----- euler-tour -------------------------------------------------------

#[test]
fn tour_rejects_empty_and_bad_root() {
    let device = Device::new();
    assert_eq!(
        EulerTour::build_from_edges(&device, 0, &[], 0).unwrap_err(),
        TourError::Empty
    );
    assert_eq!(
        EulerTour::build_from_edges(&device, 3, &[(0, 1), (1, 2)], 7).unwrap_err(),
        TourError::RootOutOfRange(7)
    );
}

#[test]
fn tour_rejects_wrong_edge_count() {
    let device = Device::new();
    let err = EulerTour::build_from_edges(&device, 4, &[(0, 1)], 0).unwrap_err();
    assert_eq!(
        err,
        TourError::WrongEdgeCount {
            got: 1,
            expected: 3
        }
    );
}

#[test]
fn tour_rejects_cycle_disguised_as_tree() {
    // Right edge count, wrong structure: a triangle plus an isolated node.
    let device = Device::new();
    let err = EulerTour::build_from_edges(&device, 4, &[(0, 1), (1, 2), (2, 0)], 0).unwrap_err();
    assert_eq!(err, TourError::NotASpanningTree);
}

// ----- bridges -----------------------------------------------------------

#[test]
fn every_bridge_algorithm_rejects_empty_and_disconnected() {
    let device = Device::new();
    let empty = EdgeList::empty(0);
    let empty_csr = Csr::from_edge_list(&empty);
    let disc = EdgeList::new(4, vec![(0, 1), (2, 3)]);
    let disc_csr = Csr::from_edge_list(&disc);

    type Runner<'a> = Box<dyn Fn(&EdgeList, &Csr) -> Result<BridgesResult, BridgesError> + 'a>;
    let algs: Vec<(&str, Runner)> = vec![
        (
            "tv",
            Box::new(|g: &EdgeList, c: &Csr| bridges_tv(&device, g, c)),
        ),
        (
            "ck",
            Box::new(|g: &EdgeList, c: &Csr| bridges_ck_device(&device, g, c)),
        ),
        ("ck-cpu", Box::new(bridges_ck_rayon)),
        (
            "hybrid",
            Box::new(|g: &EdgeList, c: &Csr| bridges_hybrid(&device, g, c)),
        ),
    ];
    for (name, run) in &algs {
        assert_eq!(
            run(&empty, &empty_csr).unwrap_err(),
            BridgesError::Empty,
            "{name} on empty"
        );
        assert_eq!(
            run(&disc, &disc_csr).unwrap_err(),
            BridgesError::Disconnected,
            "{name} on disconnected"
        );
    }
    // BCC shares the error surface.
    assert_eq!(
        bridges::bcc_tv(&device, &empty, &empty_csr).unwrap_err(),
        BridgesError::Empty
    );
    assert_eq!(
        bridges::bcc_tv(&device, &disc, &disc_csr).unwrap_err(),
        BridgesError::Disconnected
    );
}

#[test]
fn isolated_node_makes_graph_disconnected() {
    // A triangle plus node 3 with no edges: still "disconnected".
    let device = Device::new();
    let g = EdgeList::new(4, vec![(0, 1), (1, 2), (2, 0)]);
    let csr = Csr::from_edge_list(&g);
    assert_eq!(
        bridges_tv(&device, &g, &csr).unwrap_err(),
        BridgesError::Disconnected
    );
}

// ----- graph-io ----------------------------------------------------------

#[test]
fn readers_report_line_numbers() {
    let err = graph_io::snap::parse("1 2\n1 2 3 4 5\n").unwrap_err();
    assert_eq!(err.line, 2);
    let err = graph_io::dimacs::parse("p sp 2 1\na 1 3 9\n").unwrap_err();
    assert_eq!(err.line, 2);
    let err = graph_io::metis::parse("2 1\nbogus\n1\n").unwrap_err();
    assert_eq!(err.line, 2);
}

#[test]
fn read_edge_list_propagates_io_and_detect_failures() {
    use graph_io::IoError;
    assert!(matches!(
        graph_io::read_edge_list("/nonexistent/x.txt").unwrap_err(),
        IoError::Io(_)
    ));
    let dir = std::env::temp_dir().join("emg_failure_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.txt");
    std::fs::write(&path, "hello world, not a graph\n").unwrap();
    let err = graph_io::read_edge_list(&path).unwrap_err();
    assert!(matches!(&err, IoError::Parse(p) if p.message.contains("cannot detect")));
    // The structured line number survives the unified error (the property
    // the IoError enum exists for).
    let path = dir.join("badline.gr");
    std::fs::write(&path, "p sp 2 1\na 1 5 1\n").unwrap();
    let err = graph_io::read_edge_list(&path).unwrap_err();
    assert!(matches!(&err, IoError::Parse(p) if p.line == 2), "{err}");
    assert!(err.to_string().starts_with("line 2:"), "{err}");
}

#[test]
fn corrupt_emgbin_is_rejected_not_misread() {
    let dir = std::env::temp_dir().join("emg_failure_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.emgbin");
    let parsed = graph_io::snap::parse("0 1\n1 2\n").unwrap();
    let mut bytes = graph_io::binary::to_bytes(&parsed, None);
    *bytes.last_mut().unwrap() ^= 1;
    std::fs::write(&path, &bytes).unwrap();
    let err = graph_io::read_edge_list(&path).unwrap_err();
    assert!(err.to_string().contains("checksum"), "{err}");
}

// ----- lca ---------------------------------------------------------------

#[test]
#[should_panic(expected = "length mismatch")]
fn query_batch_rejects_mismatched_output() {
    let tree = Tree::from_parent_array(vec![INVALID_NODE, 0], 0).unwrap();
    let alg = SequentialInlabelLca::preprocess(&tree);
    let mut out = vec![0u32; 1];
    alg.query_batch(&[(0, 1), (1, 1)], &mut out);
}

#[test]
fn self_and_root_queries_are_identities() {
    // Not failures, but the degenerate queries mis-implementations break.
    let device = Device::new();
    let tree = random_tree(500, None, 3);
    let algs: Vec<Box<dyn LcaAlgorithm>> = vec![
        Box::new(SequentialInlabelLca::preprocess(&tree)),
        Box::new(GpuInlabelLca::preprocess(&device, &tree).unwrap()),
        Box::new(NaiveGpuLca::preprocess(&device, &tree)),
        Box::new(BlockRmqLca::preprocess(&tree)),
    ];
    let root = tree.root();
    for alg in &algs {
        for v in [0u32, 1, 255, 499] {
            assert_eq!(alg.query(v, v), v, "{}: lca(v,v)=v", alg.name());
            assert_eq!(alg.query(root, v), root, "{}: lca(root,v)=root", alg.name());
        }
    }
}
