//! The graph catalog: immutable, epoch-versioned snapshots.
//!
//! Each served graph lives in a [`Snapshot`] — the parsed graph plus
//! everything precomputed at load time so that query handling is pure
//! batched launches: the CSR adjacency, the spanning forest (connectivity
//! representatives), the bridge flags, and — when the graph is a rooted
//! tree — the Euler-tour statistics and Schieber–Vishkin inlabel tables.
//! A load builds the forest once and the Euler tour at most once: the TV
//! bridge pipeline runs over the snapshot's forest, and a tree's
//! statistics are the ones its tour already computed.
//! Snapshots are immutable after construction and shared as
//! `Arc<Snapshot>`; a reload builds a **fresh** snapshot on a fresh pooled
//! device and swaps the `Arc` under the catalog lock (DESIGN.md §12.5), so
//! in-flight batches keep answering against the epoch they started with.

use crate::protocol::{ErrorCode, GraphInfo, QueryKind, BRIDGE_NO_SUCH_EDGE};
use bridges::{bridges_dfs, bridges_tv_on_forest, UnrootedForest};
use euler_tour::TreeStats;
use gpu_sim::{Device, DeviceConfig, DeviceHandle};
use graph_core::{Csr, EdgeList};
use lca::InlabelTables;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

/// A server-side failure: the wire error code plus a human-readable cause.
pub type ServeError = (ErrorCode, String);

/// Tree-only precomputation: present iff the snapshot graph is a rooted
/// tree (connected, `m = n - 1`), which is what makes LCA and subtree
/// queries answerable.
#[derive(Debug)]
pub struct TreeData {
    /// Euler-tour statistics (preorder / subtree size / level / parent).
    pub stats: TreeStats,
    /// Schieber–Vishkin inlabel tables for O(1) LCA queries.
    pub tables: InlabelTables,
}

/// One immutable, epoch-versioned serving unit: the graph and every table
/// needed to answer batched queries with single device launches.
#[derive(Debug)]
pub struct Snapshot {
    /// Catalog name (the file stem the graph was loaded from).
    pub name: String,
    /// Epoch: 1 on first load, +1 per reload.
    pub epoch: u64,
    /// The snapshot-scoped pooled device every batch for this snapshot
    /// launches on.
    pub device: DeviceHandle,
    /// The parsed graph.
    pub graph: EdgeList,
    /// CSR adjacency (from the emgbin sidecar when present, else built on
    /// the device).
    pub csr: Csr,
    /// Spanning forest: component representatives drive connectivity
    /// queries.
    pub forest: UnrootedForest,
    /// Per-edge bridge flags (`1` = bridge), host-resident so the bridge
    /// kernel can read them directly.
    pub bridge_flag: Vec<u8>,
    /// Number of bridges.
    pub num_bridges: u32,
    /// Tree-only tables; `None` when the graph is not a rooted tree.
    pub tree: Option<TreeData>,
}

impl Snapshot {
    /// Loads `path` and precomputes every serving table on a fresh pooled
    /// device configured from the environment
    /// ([`Snapshot::load_with`] with [`DeviceConfig::default`]).
    ///
    /// # Errors
    /// `Internal` on I/O or parse failures.
    pub fn load(name: &str, path: &Path, epoch: u64) -> Result<Snapshot, ServeError> {
        Self::load_with(name, path, epoch, &DeviceConfig::default())
    }

    /// Loads `path` and precomputes every serving table on a fresh pooled
    /// device built from `device_cfg`. The whole build runs with fault
    /// injection **paused** ([`Device::pause_faults`]): a fault plane on
    /// the serving device is meant to poison individual query batches, not
    /// to make every catalog load a coin flip — and skipping the build
    /// keeps the serving-path fault schedule independent of build length
    /// (DESIGN.md §13.2).
    ///
    /// # Errors
    /// `Internal` on I/O or parse failures.
    pub fn load_with(
        name: &str,
        path: &Path,
        epoch: u64,
        device_cfg: &DeviceConfig,
    ) -> Result<Snapshot, ServeError> {
        let (parsed, maybe_csr) = graph_io::read_edge_list_with_csr(path)
            .map_err(|e| (ErrorCode::Internal, format!("loading {name}: {e}")))?;
        let graph = parsed.graph;
        let device = Device::with_config(device_cfg.clone()).into_handle();
        let (csr, forest, bridge_flag, num_bridges, tree) = {
            let _build_quietly = device.pause_faults();
            let csr = maybe_csr.unwrap_or_else(|| Csr::from_edge_list_on(&device, &graph));
            let forest = UnrootedForest::build(&device, &graph);

            // Bridges: the TV pipeline over the snapshot's forest when
            // connected, the DFS oracle otherwise (TV requires a connected
            // input).
            let n = graph.num_nodes();
            let m = graph.num_edges();
            let (result, stats) = if n > 0 && forest.is_connected() {
                let (result, stats) = bridges_tv_on_forest(&device, &graph, &csr, &forest)
                    .map_err(|e| (ErrorCode::Internal, format!("bridges on {name}: {e:?}")))?;
                (result, Some(stats))
            } else {
                (bridges_dfs(&graph, &csr), None)
            };
            let bridge_flag: Vec<u8> = (0..m).map(|e| u8::from(result.is_bridge.get(e))).collect();
            let num_bridges = result.num_bridges() as u32;

            // Tree tables iff the graph is a rooted tree (connected, m =
            // n - 1, root 0). TV's spanning tree is then the whole graph,
            // and its tour's statistics equal the one-shot `emg lca`
            // path's (`Tree::from_edges`, then `EulerTour::build`): the
            // placement orders each node's half-edges by head, whatever
            // the edge list's order and orientation. So server answers are
            // bit-identical to the CLI oracle.
            let tree = stats.filter(|_| m + 1 == n).map(|stats| {
                let tables = InlabelTables::from_stats_device(&device, &stats);
                TreeData { stats, tables }
            });
            (csr, forest, bridge_flag, num_bridges, tree)
        };

        Ok(Snapshot {
            name: name.to_string(),
            epoch,
            device,
            graph,
            csr,
            forest,
            bridge_flag,
            num_bridges,
            tree,
        })
    }

    /// The snapshot's catalog metadata.
    pub fn info(&self) -> GraphInfo {
        GraphInfo {
            name: self.name.clone(),
            epoch: self.epoch,
            nodes: self.graph.num_nodes() as u32,
            edges: self.graph.num_edges() as u32,
            is_tree: self.tree.is_some(),
            num_components: self.forest.num_components as u32,
            num_bridges: self.num_bridges,
        }
    }

    /// Validates that `kind` is answerable and every pair is in range —
    /// run once per request *before* it joins a batch, so batched kernels
    /// never see invalid ids.
    ///
    /// # Errors
    /// `NotATree` for LCA/subtree against a non-tree snapshot,
    /// `NodeOutOfRange` for an id `>= n`.
    pub fn validate_request(
        &self,
        kind: QueryKind,
        pairs: &[(u32, u32)],
    ) -> Result<(), ServeError> {
        if matches!(kind, QueryKind::Lca | QueryKind::Subtree) && self.tree.is_none() {
            return Err((
                ErrorCode::NotATree,
                format!("graph {:?} is not a rooted tree", self.name),
            ));
        }
        let n = self.graph.num_nodes() as u32;
        for &(u, v) in pairs {
            if u >= n || v >= n {
                return Err((
                    ErrorCode::NodeOutOfRange,
                    format!("pair ({u},{v}) out of range for {n} nodes"),
                ));
            }
        }
        Ok(())
    }

    /// Answers one coalesced batch with a single device launch for `kind`.
    /// Pairs must already be validated by [`Snapshot::validate_request`].
    ///
    /// # Panics
    /// Panics if `out.len() != pairs.len()` or validation was skipped.
    pub fn answer_batch(&self, kind: QueryKind, pairs: &[(u32, u32)], out: &mut [u32]) {
        assert_eq!(pairs.len(), out.len(), "query/output length mismatch");
        match kind {
            QueryKind::Lca => {
                let tree = self.tree.as_ref().expect("validated: tree snapshot");
                tree.tables.query_batch_on(&self.device, pairs, out);
            }
            QueryKind::Subtree => {
                let tree = self.tree.as_ref().expect("validated: tree snapshot");
                let mut bytes = vec![0u8; pairs.len()];
                tree.stats
                    .in_subtree_batch_on(&self.device, pairs, &mut bytes);
                for (o, b) in out.iter_mut().zip(&bytes) {
                    *o = u32::from(*b);
                }
            }
            QueryKind::Connectivity => {
                let mut bytes = vec![0u8; pairs.len()];
                self.forest
                    .connected_batch_on(&self.device, pairs, &mut bytes);
                for (o, b) in out.iter_mut().zip(&bytes) {
                    *o = u32::from(*b);
                }
            }
            QueryKind::BridgeEdge => self.bridge_batch(pairs, out),
        }
    }

    /// Batched bridge-membership: one virtual thread per pair scans the
    /// smaller endpoint's CSR row for the edge. Answers: `1` = bridge,
    /// `0` = edge exists but is not a bridge, [`BRIDGE_NO_SUCH_EDGE`] =
    /// no such edge. Parallel copies of an edge are never bridges, so
    /// OR-ing the flags over every matching edge id is exact.
    fn bridge_batch(&self, pairs: &[(u32, u32)], out: &mut [u32]) {
        let device = &self.device;
        let csr = &self.csr;
        let flag = &self.bridge_flag;
        let _k = device.kernel_label("serve_bridge_batch");
        // The pairs, the CSR adjacency, and the bridge flags feed the
        // closure.
        device.capture_read(pairs);
        device.capture_read(csr.offsets());
        device.capture_read(csr.raw_neighbors());
        device.capture_read(csr.raw_edge_ids());
        device.capture_read(flag);
        device.map(out, |q| {
            let (u, v) = pairs[q];
            // Scan the sparser endpoint's row.
            let (a, b) = if csr.degree(u) <= csr.degree(v) {
                (u, v)
            } else {
                (v, u)
            };
            let mut found = false;
            let mut bridge = 0u32;
            for (w, eid) in csr.incident(a) {
                if w == b {
                    found = true;
                    bridge |= u32::from(flag[eid as usize]);
                }
            }
            if found {
                bridge
            } else {
                BRIDGE_NO_SUCH_EDGE
            }
        });
    }
}

/// One catalog entry: the on-disk source plus the current snapshot.
struct Entry {
    path: PathBuf,
    current: Arc<Snapshot>,
}

/// The serving catalog: every graph found in the catalog directory, each
/// with its current snapshot. Lookup is lock-then-clone (`Arc`), so
/// readers never block a reload for longer than the pointer swap.
pub struct Catalog {
    entries: RwLock<BTreeMap<String, Entry>>,
    /// Template used for every snapshot device this catalog builds —
    /// initial loads and reloads alike, so a reload can never silently
    /// drop a fault plane or pooling mode the server was started with.
    device_cfg: DeviceConfig,
}

impl Catalog {
    /// Loads every regular file in `dir` as a graph (catalog name = file
    /// stem), building each initial snapshot at epoch 1 on a device
    /// configured from the environment.
    ///
    /// # Errors
    /// `Internal` when the directory is unreadable, empty, or a graph
    /// fails to load — a server with nothing to serve is a configuration
    /// error.
    pub fn open(dir: &Path) -> Result<Catalog, ServeError> {
        Self::open_with(dir, DeviceConfig::default())
    }

    /// [`Catalog::open`] with an explicit device template for every
    /// snapshot this catalog will ever build.
    ///
    /// # Errors
    /// `Internal` when the directory is unreadable, empty, or a graph
    /// fails to load.
    pub fn open_with(dir: &Path, device_cfg: DeviceConfig) -> Result<Catalog, ServeError> {
        let mut entries = BTreeMap::new();
        let listing = std::fs::read_dir(dir)
            .map_err(|e| (ErrorCode::Internal, format!("catalog dir {dir:?}: {e}")))?;
        let mut paths: Vec<PathBuf> = listing
            .filter_map(|r| r.ok().map(|d| d.path()))
            .filter(|p| p.is_file())
            .collect();
        paths.sort();
        for path in paths {
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| (ErrorCode::Internal, format!("unusable file name {path:?}")))?
                .to_string();
            let snapshot = Arc::new(Snapshot::load_with(&name, &path, 1, &device_cfg)?);
            entries.insert(
                name,
                Entry {
                    path,
                    current: snapshot,
                },
            );
        }
        if entries.is_empty() {
            return Err((
                ErrorCode::Internal,
                format!("catalog dir {dir:?} holds no graph files"),
            ));
        }
        Ok(Catalog {
            entries: RwLock::new(entries),
            device_cfg,
        })
    }

    /// The current snapshot of `graph`.
    ///
    /// # Errors
    /// `UnknownGraph` when the name is not in the catalog.
    pub fn get(&self, graph: &str) -> Result<Arc<Snapshot>, ServeError> {
        self.entries
            .read()
            .expect("catalog lock poisoned")
            .get(graph)
            .map(|e| Arc::clone(&e.current))
            .ok_or_else(|| {
                (
                    ErrorCode::UnknownGraph,
                    format!("no graph named {graph:?} in the catalog"),
                )
            })
    }

    /// Metadata for every graph, in name order.
    pub fn list(&self) -> Vec<GraphInfo> {
        self.entries
            .read()
            .expect("catalog lock poisoned")
            .values()
            .map(|e| e.current.info())
            .collect()
    }

    /// Re-reads `graph` from its source file into a fresh snapshot at
    /// `epoch + 1` and swaps it in. The old snapshot stays alive for any
    /// in-flight batch still holding its `Arc`.
    ///
    /// # Errors
    /// `UnknownGraph` for an unknown name, `Internal` when the reload
    /// itself fails — including a *panic* mid-build, which is caught and
    /// isolated. In every failure case the old snapshot stays current and
    /// its epoch is unchanged, so a bad file on disk can never take a
    /// graph out of service (DESIGN.md §13.4).
    pub fn reload(&self, graph: &str) -> Result<Arc<Snapshot>, ServeError> {
        // Build outside the lock: snapshot construction is the expensive
        // part and readers should keep answering from the old epoch.
        let (path, next_epoch) = {
            let entries = self.entries.read().expect("catalog lock poisoned");
            let entry = entries.get(graph).ok_or_else(|| {
                (
                    ErrorCode::UnknownGraph,
                    format!("no graph named {graph:?} in the catalog"),
                )
            })?;
            (entry.path.clone(), entry.current.epoch + 1)
        };
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Snapshot::load_with(graph, &path, next_epoch, &self.device_cfg)
        }))
        .unwrap_or_else(|panic| {
            let reason = crate::batcher::panic_message(panic.as_ref());
            Err((
                ErrorCode::Internal,
                format!("reload of {graph} panicked (isolated): {reason}"),
            ))
        });
        let fresh = Arc::new(built?);
        let mut entries = self.entries.write().expect("catalog lock poisoned");
        let entry = entries.get_mut(graph).ok_or_else(|| {
            (
                ErrorCode::UnknownGraph,
                format!("graph {graph:?} vanished during reload"),
            )
        })?;
        entry.current = Arc::clone(&fresh);
        Ok(fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_graph(dir: &Path, name: &str, edges: &[(u32, u32)]) -> PathBuf {
        let path = dir.join(format!("{name}.txt"));
        let mut text = String::new();
        for (u, v) in edges {
            text.push_str(&format!("{u}\t{v}\n"));
        }
        std::fs::write(&path, text).unwrap();
        path
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("emg-catalog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn tree_snapshot_answers_all_kinds() {
        let dir = temp_dir("tree");
        // A 6-node tree: 0 parents {1,2,3}, 1 parents {4,5}. The edges
        // list nodes in ascending first-appearance order, so the SNAP
        // compaction maps file ids to dense ids identically.
        write_graph(&dir, "tree6", &[(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]);
        let catalog = Catalog::open(&dir).unwrap();
        let snap = catalog.get("tree6").unwrap();
        assert!(snap.tree.is_some());
        assert_eq!(snap.epoch, 1);

        let pairs = [(4u32, 5u32), (2, 3), (1, 1)];
        let mut out = vec![0u32; 3];
        snap.answer_batch(QueryKind::Lca, &pairs, &mut out);
        assert_eq!(out, vec![1, 0, 1]);

        snap.answer_batch(QueryKind::Connectivity, &pairs, &mut out);
        assert_eq!(out, vec![1, 1, 1]);

        // Every tree edge is a bridge; (4,5) is not an edge.
        let epairs = [(0u32, 1u32), (1, 5), (4, 5)];
        snap.answer_batch(QueryKind::BridgeEdge, &epairs, &mut out);
        assert_eq!(out, vec![1, 1, BRIDGE_NO_SUCH_EDGE]);

        // 4 and 5 sit in 1's subtree; 2 does not.
        let spairs = [(4u32, 1u32), (5, 1), (2, 1)];
        snap.answer_batch(QueryKind::Subtree, &spairs, &mut out);
        assert_eq!(out, vec![1, 1, 0]);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_tree_rejects_lca_and_answers_connectivity() {
        let dir = temp_dir("cyclic");
        // A triangle plus a pendant and an isolated pair.
        write_graph(&dir, "g", &[(0, 1), (1, 2), (2, 0), (2, 3), (4, 5)]);
        let catalog = Catalog::open(&dir).unwrap();
        let snap = catalog.get("g").unwrap();
        assert!(snap.tree.is_none());
        assert_eq!(snap.forest.num_components, 2);

        let err = snap
            .validate_request(QueryKind::Lca, &[(0, 1)])
            .unwrap_err();
        assert_eq!(err.0, ErrorCode::NotATree);
        let err = snap
            .validate_request(QueryKind::Connectivity, &[(0, 99)])
            .unwrap_err();
        assert_eq!(err.0, ErrorCode::NodeOutOfRange);

        let pairs = [(0u32, 3u32), (0, 4), (4, 5)];
        let mut out = vec![0u32; 3];
        snap.answer_batch(QueryKind::Connectivity, &pairs, &mut out);
        assert_eq!(out, vec![1, 0, 1]);

        // Triangle edges are not bridges; the pendant and the pair are.
        let epairs = [(0u32, 1u32), (2, 3), (4, 5), (0, 3)];
        let mut out = vec![0u32; 4];
        snap.answer_batch(QueryKind::BridgeEdge, &epairs, &mut out);
        assert_eq!(out, vec![0, 1, 1, BRIDGE_NO_SUCH_EDGE]);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reload_bumps_epoch_and_swaps_content() {
        let dir = temp_dir("reload");
        let path = write_graph(&dir, "g", &[(0, 1), (1, 2)]);
        let catalog = Catalog::open(&dir).unwrap();
        let before = catalog.get("g").unwrap();
        assert_eq!(before.epoch, 1);
        assert_eq!(before.graph.num_nodes(), 3);

        // Grow the graph on disk, then reload.
        std::fs::write(&path, "0\t1\n1\t2\n2\t3\n").unwrap();
        let after = catalog.reload("g").unwrap();
        assert_eq!(after.epoch, 2);
        assert_eq!(after.graph.num_nodes(), 4);
        // The old Arc still answers at its epoch.
        assert_eq!(before.epoch, 1);
        assert_eq!(catalog.get("g").unwrap().epoch, 2);

        assert_eq!(
            catalog.reload("missing").unwrap_err().0,
            ErrorCode::UnknownGraph
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_catalog_is_an_error() {
        let dir = temp_dir("empty");
        let err = Catalog::open(&dir).map(|_| ()).unwrap_err();
        assert_eq!(err.0, ErrorCode::Internal);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_reload_keeps_the_old_snapshot_serving() {
        let dir = temp_dir("reload-fail");
        let path = write_graph(&dir, "g", &[(0, 1), (1, 2)]);
        let catalog = Catalog::open(&dir).unwrap();
        assert_eq!(catalog.get("g").unwrap().epoch, 1);

        // Corrupt the file on disk: reload must fail with Internal and the
        // old snapshot must keep serving at its old epoch.
        std::fs::write(&path, "this is not\tan edge list\n\u{0}\u{0}").unwrap();
        let err = catalog.reload("g").map(|_| ()).unwrap_err();
        assert_eq!(err.0, ErrorCode::Internal);
        let snap = catalog.get("g").unwrap();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.graph.num_nodes(), 3);

        // Repair the file: the next reload succeeds and lands on epoch 2,
        // not 3 — the failed attempt consumed no epoch.
        std::fs::write(&path, "0\t1\n1\t2\n2\t3\n").unwrap();
        assert_eq!(catalog.reload("g").unwrap().epoch, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_builds_are_immune_to_fault_injection() {
        let dir = temp_dir("faulted");
        write_graph(&dir, "tree", &[(0, 1), (0, 2), (1, 3)]);
        // p=1.0: every unpaused launch panics. The catalog must still open
        // (builds run under pause_faults) and the fault plane must still be
        // armed on the serving device afterwards.
        let cfg = DeviceConfig {
            faults: "launch_panic:p=1.0:seed=7".parse().unwrap(),
            ..DeviceConfig::default()
        };
        let catalog = Catalog::open_with(&dir, cfg).unwrap();
        let snap = catalog.get("tree").unwrap();
        assert_eq!(snap.epoch, 1);

        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = vec![0u32; 1];
            snap.answer_batch(QueryKind::Connectivity, &[(0, 3)], &mut out);
        }))
        .unwrap_err();
        let reason = crate::batcher::panic_message(panic.as_ref());
        assert!(
            reason.contains(gpu_sim::fault::INJECTED_PANIC),
            "expected an injected panic, got: {reason}"
        );

        // Reload inherits the template; its build pauses faults too, so it
        // succeeds even at p=1.0.
        let after = catalog.reload("tree").unwrap();
        assert_eq!(after.epoch, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
