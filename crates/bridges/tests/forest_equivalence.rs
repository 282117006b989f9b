//! Equivalence suite for the spanning-forest substrate and the bridge
//! backends built on it: the union-find forest of [`bridges::forest`]
//! must be a *valid* spanning forest (`n - #components` tree edges,
//! acyclic parent chains, representatives consistent with the sequential
//! union-find oracle) on arbitrary multigraphs — and on connected inputs
//! the TV, hybrid and CK backends must find the DFS oracle's bridge set
//! bit for bit, and TV's biconnectivity the sequential oracle's
//! components.
//!
//! CI runs this suite under `RAYON_NUM_THREADS=1` and `=4`; the assertions
//! only reference schedule-independent outputs (representatives, counts,
//! bridge bitmaps, component partitions), so both widths must agree.

use bridges::forest::{components_sequential, SpanningForest};
use bridges::{
    bcc_sequential, bcc_tv, bridges_ck_device, bridges_dfs, bridges_hybrid, bridges_tv,
    BridgesResult,
};
use gpu_sim::Device;
use graph_core::{Csr, EdgeList};
use proptest::prelude::*;

/// Strategy: an arbitrary multigraph — possibly disconnected, with
/// self-loops and duplicate edges.
fn arb_multigraph(max_n: usize) -> impl Strategy<Value = EdgeList> {
    (1..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n)
            .prop_map(move |edges| EdgeList::new(n, edges))
    })
}

/// Strategy: a connected multigraph = random increasing tree + extra edges.
fn arb_connected_graph(max_n: usize) -> impl Strategy<Value = EdgeList> {
    (2..max_n).prop_flat_map(|n| {
        let spine: Vec<BoxedStrategy<u32>> = (1..n)
            .map(|v| (0..v as u32).prop_map(|p| p).boxed())
            .collect();
        (
            spine,
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..2 * n),
        )
            .prop_map(move |(parents, extra)| {
                let mut edges: Vec<(u32, u32)> = parents
                    .into_iter()
                    .enumerate()
                    .map(|(v, p)| (p, v as u32 + 1))
                    .collect();
                edges.extend(extra);
                EdgeList::new(n, edges)
            })
    })
}

/// Every device bridge backend, by name.
const BACKENDS: [(&str, BackendFn); 3] = [
    ("tv", bridges_tv),
    ("hybrid", bridges_hybrid),
    ("ck", bridges_ck_device),
];

type BackendFn = fn(&Device, &EdgeList, &Csr) -> Result<BridgesResult, bridges::BridgesError>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn union_find_builds_a_valid_forest(graph in arb_multigraph(200)) {
        let device = Device::new();
        let (oracle_rep, oracle_comps) = components_sequential(&graph);
        let f = SpanningForest::build(&device, &graph);
        prop_assert!(f.validate(&graph).is_ok(), "{:?}", f.validate(&graph));
        prop_assert_eq!(&f.representative, &oracle_rep, "representatives");
        prop_assert_eq!(f.num_components, oracle_comps, "components");
        prop_assert_eq!(f.tree_edges.len(), f.num_tree_edges(), "tree edge count");
    }

    #[test]
    fn bridges_bit_identical_across_backends(graph in arb_connected_graph(150)) {
        let device = Device::new();
        let csr = Csr::from_edge_list(&graph);
        let expected = bridges_dfs(&graph, &csr).bridge_ids();
        for (name, run) in BACKENDS {
            let r = run(&device, &graph, &csr).unwrap();
            prop_assert_eq!(r.bridge_ids(), expected.clone(), "{}", name);
        }
    }
}

/// The forest, every bridge backend and biconnectivity on every `graphgen`
/// family — the deterministic sweep companion to the random-shape
/// proptests above.
#[test]
fn backends_agree_on_every_graphgen_family() {
    let device = Device::new();
    let tree = graphgen::random_tree(400, Some(4), 31);
    let families: Vec<(&str, EdgeList)> = vec![
        ("kron", graphgen::kronecker_graph(8, 8, 7)),
        ("road", graphgen::road_grid(20, 20, 0.8, 9)),
        ("web", graphgen::web_graph(500, 3, 0.5, 11)),
        ("ba", graphgen::ba_graph(400, 4, 13)),
        ("tree", EdgeList::new(tree.num_nodes(), tree.edges())),
    ];
    for (family, graph) in families {
        let (oracle_rep, oracle_comps) = components_sequential(&graph);
        let f = SpanningForest::build(&device, &graph);
        f.validate(&graph)
            .unwrap_or_else(|e| panic!("{family}: {e}"));
        assert_eq!(f.representative, oracle_rep, "{family} representatives");
        assert_eq!(f.num_components, oracle_comps, "{family} components");
        // On the largest connected component, every bridge backend agrees
        // with the DFS oracle bit for bit.
        let (lcc, _) = graphgen::largest_connected_component(&graph);
        let lcc_csr = Csr::from_edge_list(&lcc);
        let expected = bridges_dfs(&lcc, &lcc_csr).bridge_ids();
        for (name, run) in BACKENDS {
            let r = run(&device, &lcc, &lcc_csr).unwrap();
            assert_eq!(r.bridge_ids(), expected, "{family}: {name}");
        }
        // TV's biconnectivity, on the same front end, against the
        // sequential Hopcroft–Tarjan oracle.
        assert_eq!(
            bcc_tv(&device, &lcc, &lcc_csr)
                .unwrap()
                .canonical_partition(),
            bcc_sequential(&lcc, &lcc_csr).canonical_partition(),
            "{family}: bcc"
        );
    }
}
