//! End-to-end server tests: batched answers over the real socket protocol
//! are bit-identical to the sequential oracles, under concurrent clients,
//! across every graphgen family.
//!
//! Catalog fixtures are written as `emgbin`, which preserves dense node
//! ids exactly — so the oracle (computed from the same `EdgeList`) and
//! the server agree on the id space by construction.

use bridges::bridges_dfs;
use bridges::forest::components_sequential;
use emg_server::batcher::BatchConfig;
use emg_server::protocol::{ErrorCode, QueryKind, BRIDGE_NO_SUCH_EDGE};
use emg_server::{Client, ClientError, Server};
use graph_core::{Csr, EdgeList, Tree};
use graph_io::ParsedGraph;
use lca::{LcaAlgorithm, SequentialInlabelLca};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Everything the sequential oracle needs to answer any query kind.
struct Oracle {
    n: u32,
    csr: Csr,
    representative: Vec<u32>,
    is_bridge: Vec<bool>,
    num_components: usize,
    tree: Option<(Tree, SequentialInlabelLca)>,
}

impl Oracle {
    fn build(graph: &EdgeList) -> Oracle {
        let csr = Csr::from_edge_list(graph);
        let (representative, num_components) = components_sequential(graph);
        let result = bridges_dfs(graph, &csr);
        let is_bridge = (0..graph.num_edges())
            .map(|e| result.is_bridge.get(e))
            .collect();
        let n = graph.num_nodes();
        let tree = if n >= 1 && graph.num_edges() == n - 1 && num_components == 1 {
            Tree::from_edges(n, graph.edges(), 0).ok().map(|t| {
                let lca = SequentialInlabelLca::preprocess(&t);
                (t, lca)
            })
        } else {
            None
        };
        Oracle {
            n: n as u32,
            csr,
            representative,
            is_bridge,
            num_components,
            tree,
        }
    }

    fn in_subtree(&self, u: u32, v: u32) -> bool {
        let (tree, _) = self.tree.as_ref().expect("tree oracle");
        let mut cur = u;
        loop {
            if cur == v {
                return true;
            }
            match tree.parent(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    fn answer(&self, kind: QueryKind, pairs: &[(u32, u32)]) -> Vec<u32> {
        match kind {
            QueryKind::Lca => {
                let (_, lca) = self.tree.as_ref().expect("tree oracle");
                let mut out = vec![0u32; pairs.len()];
                lca.query_batch(pairs, &mut out);
                out
            }
            QueryKind::Subtree => pairs
                .iter()
                .map(|&(u, v)| u32::from(self.in_subtree(u, v)))
                .collect(),
            QueryKind::Connectivity => pairs
                .iter()
                .map(|&(u, v)| {
                    u32::from(self.representative[u as usize] == self.representative[v as usize])
                })
                .collect(),
            QueryKind::BridgeEdge => pairs
                .iter()
                .map(|&(u, v)| {
                    let mut found = false;
                    let mut bridge = 0u32;
                    for (w, eid) in self.csr.incident(u) {
                        if w == v {
                            found = true;
                            bridge |= u32::from(self.is_bridge[eid as usize]);
                        }
                    }
                    if found {
                        bridge
                    } else {
                        BRIDGE_NO_SUCH_EDGE
                    }
                })
                .collect(),
        }
    }
}

/// Every graphgen family, small enough to keep the suite fast.
fn families() -> Vec<(&'static str, EdgeList)> {
    let tree_edges = |t: &Tree| EdgeList::new(t.num_nodes(), t.edges());
    vec![
        (
            "tree_rand",
            tree_edges(&graphgen::random_tree(400, None, 7)),
        ),
        (
            "tree_grasp",
            tree_edges(&graphgen::random_tree(300, Some(8), 9)),
        ),
        ("tree_ba", tree_edges(&graphgen::ba_tree(300, 3))),
        ("road", graphgen::road_grid(15, 15, 0.85, 1)),
        ("kron", graphgen::kronecker_graph(7, 6, 2)),
        ("ba", graphgen::ba_graph(300, 3, 4)),
        ("web", graphgen::web_graph(300, 3, 0.2, 5)),
    ]
}

fn write_catalog(tag: &str, graphs: &[(&'static str, EdgeList)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emg-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (name, graph) in graphs {
        graph_io::binary::write_file(
            dir.join(format!("{name}.emgbin")),
            &ParsedGraph::dense(graph.clone()),
            None,
        )
        .unwrap();
    }
    dir
}

/// Binds an ephemeral server over `dir` and runs it on its own thread.
fn spawn_server(dir: &Path, config: BatchConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", dir, config).unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().unwrap());
    (addr, handle)
}

/// Mixed query pairs: random node pairs plus real edges (so BridgeEdge
/// exercises all three answers).
fn query_pairs(graph: &EdgeList, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut pairs = graphgen::random_queries(graph.num_nodes(), count, seed);
    for &(u, v) in graph.edges().iter().take(count / 2) {
        pairs.push((u, v));
    }
    pairs
}

fn applicable_kinds(oracle: &Oracle) -> Vec<QueryKind> {
    let mut kinds = vec![QueryKind::Connectivity, QueryKind::BridgeEdge];
    if oracle.tree.is_some() {
        kinds.push(QueryKind::Lca);
        kinds.push(QueryKind::Subtree);
    }
    kinds
}

#[test]
fn batched_answers_match_oracle_on_all_families() {
    let graphs = families();
    let oracles: HashMap<&str, Oracle> = graphs
        .iter()
        .map(|(name, g)| (*name, Oracle::build(g)))
        .collect();
    let dir = write_catalog("families", &graphs);
    let (addr, server) = spawn_server(&dir, BatchConfig::default());

    let mut client = Client::connect(&addr).unwrap();
    // The catalog metadata agrees with the oracle.
    let listed = client.list().unwrap();
    assert_eq!(listed.len(), graphs.len());
    for info in &listed {
        let oracle = &oracles[info.name.as_str()];
        assert_eq!(info.nodes, oracle.n, "{}", info.name);
        assert_eq!(info.epoch, 1, "{}", info.name);
        assert_eq!(info.is_tree, oracle.tree.is_some(), "{}", info.name);
        assert_eq!(
            info.num_components as usize, oracle.num_components,
            "{}",
            info.name
        );
        let bridges = oracle.is_bridge.iter().filter(|&&b| b).count();
        assert_eq!(info.num_bridges as usize, bridges, "{}", info.name);
    }

    for (name, graph) in &graphs {
        let oracle = &oracles[name];
        let pairs = query_pairs(graph, 200, 0xC0FFEE ^ graph.num_nodes() as u64);
        for kind in applicable_kinds(oracle) {
            let (epoch, answers) = client.query(name, 0, kind, &pairs).unwrap();
            assert_eq!(epoch, 1);
            assert_eq!(answers, oracle.answer(kind, &pairs), "{name} {kind:?}");
        }
    }

    client.shutdown().unwrap();
    server.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_clients_coalesce_and_stay_exact() {
    let graphs = families();
    let oracles: Arc<HashMap<&str, Oracle>> = Arc::new(
        graphs
            .iter()
            .map(|(name, g)| (*name, Oracle::build(g)))
            .collect(),
    );
    let dir = write_catalog("concurrent", &graphs);
    // A cap above all four clients' queued pairs (4 × 64), so requests
    // that queue behind a running flush leave in one flush.
    let (addr, server) = spawn_server(
        &dir,
        BatchConfig {
            max_batch: 4096,
            ..BatchConfig::default()
        },
    );

    let graphs = Arc::new(graphs);
    let mut workers = Vec::new();
    for worker_id in 0..4u64 {
        let addr = addr.clone();
        let graphs = Arc::clone(&graphs);
        let oracles = Arc::clone(&oracles);
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            for round in 0..3u64 {
                for (name, graph) in graphs.iter() {
                    let oracle = &oracles[name];
                    let pairs = query_pairs(graph, 64, worker_id * 1000 + round);
                    for kind in applicable_kinds(oracle) {
                        let (_, answers) = client.query(name, 0, kind, &pairs).unwrap();
                        assert_eq!(
                            answers,
                            oracle.answer(kind, &pairs),
                            "worker {worker_id} round {round} {name} {kind:?}"
                        );
                    }
                }
            }
        }));
    }
    for worker in workers {
        worker.join().unwrap();
    }

    let mut client = Client::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.queries > 0);
    assert!(stats.batches > 0);
    assert_eq!(
        stats.batch_hist.iter().sum::<u64>(),
        stats.batches,
        "histogram covers every batch"
    );
    assert!(stats.size_flushes + stats.deadline_flushes > 0);
    client.shutdown().unwrap();
    server.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn error_paths_and_epoch_lifecycle() {
    let tree = graphgen::random_tree(50, None, 3);
    let graph = EdgeList::new(tree.num_nodes(), tree.edges());
    let cyclic = graphgen::road_grid(6, 6, 1.0, 0);
    let dir = write_catalog("errors", &[("t", graph), ("grid", cyclic)]);
    let (addr, server) = spawn_server(&dir, BatchConfig::default());
    let mut client = Client::connect(&addr).unwrap();

    // Unknown graph.
    match client.query("missing", 0, QueryKind::Lca, &[(0, 1)]) {
        Err(ClientError::Server(ErrorCode::UnknownGraph, _)) => {}
        other => panic!("expected UnknownGraph, got {other:?}"),
    }
    // LCA against a non-tree.
    match client.query("grid", 0, QueryKind::Lca, &[(0, 1)]) {
        Err(ClientError::Server(ErrorCode::NotATree, _)) => {}
        other => panic!("expected NotATree, got {other:?}"),
    }
    // Node out of range.
    match client.query("t", 0, QueryKind::Connectivity, &[(0, 5000)]) {
        Err(ClientError::Server(ErrorCode::NodeOutOfRange, _)) => {}
        other => panic!("expected NodeOutOfRange, got {other:?}"),
    }
    // Epoch pinning: epoch 1 works, epoch 99 does not.
    let (epoch, _) = client.query("t", 1, QueryKind::Lca, &[(1, 2)]).unwrap();
    assert_eq!(epoch, 1);
    match client.query("t", 99, QueryKind::Lca, &[(1, 2)]) {
        Err(ClientError::Server(ErrorCode::WrongEpoch, _)) => {}
        other => panic!("expected WrongEpoch, got {other:?}"),
    }

    // Reload bumps the epoch; the old pin now fails, the new one works,
    // and the answers are unchanged (same bytes on disk).
    let (_, before) = client.query("t", 1, QueryKind::Lca, &[(3, 4)]).unwrap();
    assert_eq!(client.reload("t").unwrap(), 2);
    assert_eq!(client.info("t").unwrap().epoch, 2);
    match client.query("t", 1, QueryKind::Lca, &[(3, 4)]) {
        Err(ClientError::Server(ErrorCode::WrongEpoch, _)) => {}
        other => panic!("expected WrongEpoch, got {other:?}"),
    }
    let (epoch, after) = client.query("t", 2, QueryKind::Lca, &[(3, 4)]).unwrap();
    assert_eq!(epoch, 2);
    assert_eq!(before, after);

    // The connection survives every error above; shutdown ends the run
    // loop.
    client.shutdown().unwrap();
    server.join().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[cfg(unix)]
#[test]
fn unix_socket_round_trip() {
    let tree = graphgen::random_tree(30, None, 11);
    let graph = EdgeList::new(tree.num_nodes(), tree.edges());
    let dir = write_catalog("unix", &[("t", graph)]);
    let sock = std::env::temp_dir().join(format!("emg-e2e-unix-{}.sock", std::process::id()));
    let addr = format!("unix:{}", sock.display());
    let server = Server::bind(&addr, &dir, BatchConfig::default()).unwrap();
    assert_eq!(server.local_addr(), addr);
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.version(), emg_server::protocol::PROTOCOL_VERSION);
    let infos = client.list().unwrap();
    assert_eq!(infos.len(), 1);
    assert!(infos[0].is_tree);
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_file(&sock);
    std::fs::remove_dir_all(&dir).unwrap();
}
