//! Compressed sparse row adjacency with stable undirected edge identifiers.
//!
//! Every undirected edge `e = (u, v)` of the source [`EdgeList`] appears
//! twice in the adjacency — once per direction — and both copies carry the
//! same [`EdgeId`] `e`, so per-edge results (e.g. "is edge `e` a bridge")
//! can be reported against the caller's original edge order.
//!
//! On the device both copies come from one [`HalfEdgePlacement`]: the 2m
//! arcs grouped by tail, each run sorted. [`Csr::from_pairs_on`] unpacks
//! it into the adjacency arrays, and the Euler tour links its runs
//! directly into the tour successor.

use crate::edge_list::EdgeList;
use crate::ids::{EdgeId, NodeId};
use gpu_sim::device::SharedSlice;
use gpu_sim::Device;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Edges per virtual thread of the device placement launch: each thread
/// claims the slots of all its tile's arcs before it stores any of them.
/// DESIGN.md §7 records why 16 and not 1 or 128.
const PLACE_TILE: usize = 16;

/// CSR adjacency structure of an undirected graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    neighbors: Vec<NodeId>,
    edge_ids: Vec<EdgeId>,
    num_edges: usize,
}

impl Csr {
    /// Builds the CSR form of `edges`. Neighbor lists are sorted by
    /// `(neighbor, edge id)` for determinism.
    ///
    /// # Panics
    /// Panics if the graph has more than `u32::MAX / 2` edges.
    pub fn from_edge_list(edges: &EdgeList) -> Self {
        let n = edges.num_nodes();
        let m = edges.num_edges();
        assert!(m <= (u32::MAX / 2) as usize, "graph too large for u32 CSR");

        // Degree count.
        let mut degrees = vec![0u32; n];
        for &(u, v) in edges.edges() {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        // Offsets.
        let mut offsets = vec![0u32; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degrees[v];
        }
        // Parallel fill with atomic cursors.
        let mut neighbors = vec![0 as NodeId; 2 * m];
        let mut edge_ids = vec![0 as EdgeId; 2 * m];
        {
            let cursors: Vec<AtomicU32> = offsets[..n].iter().map(|&o| AtomicU32::new(o)).collect();
            // fetch_add hands out unique slots within each node's
            // [offsets[v], offsets[v+1]) range, so each slot has one writer.
            let nb_shared = SharedSlice::new(&mut neighbors);
            let ei_shared = SharedSlice::new(&mut edge_ids);
            edges
                .edges()
                .par_iter()
                .enumerate()
                .for_each(|(e, &(u, v))| {
                    let pu = cursors[u as usize].fetch_add(1, Ordering::Relaxed) as usize;
                    let pv = cursors[v as usize].fetch_add(1, Ordering::Relaxed) as usize;
                    nb_shared.write(pu, v);
                    ei_shared.write(pu, e as EdgeId);
                    nb_shared.write(pv, u);
                    ei_shared.write(pv, e as EdgeId);
                });
        }
        let mut csr = Self {
            offsets,
            neighbors,
            edge_ids,
            num_edges: m,
        };
        csr.sort_adjacency();
        csr
    }

    /// Builds the CSR form of `edges` with the device's kernel launches:
    /// the [`HalfEdgePlacement`] of its arcs, then two map launches that
    /// unpack each packed word into the neighbor and edge-id arrays.
    ///
    /// Bit-identical to [`Csr::from_edge_list`] (both order each adjacency
    /// by `(neighbor, edge id)`), but every phase runs on the device, so
    /// the construction shows up in the device metrics and scales with the
    /// pool like any other kernel. DESIGN.md §7 explains the tiling.
    ///
    /// # Panics
    /// Panics if the graph has more than `u32::MAX / 2` edges.
    pub fn from_edge_list_on(device: &Device, edges: &EdgeList) -> Self {
        Self::from_pairs_on(device, edges.num_nodes(), edges.edges())
    }

    /// [`Csr::from_edge_list_on`] over borrowed pairs: callers that hold
    /// their edges as a slice (the spanning forest's tree pairs) need no
    /// [`EdgeList`] copy.
    ///
    /// # Panics
    /// Panics if the graph has more than `u32::MAX / 2` edges or an
    /// endpoint is not below `n`.
    pub fn from_pairs_on(device: &Device, n: usize, pairs: &[(NodeId, NodeId)]) -> Self {
        let HalfEdgePlacement { offsets, words } = HalfEdgePlacement::build(device, n, pairs);

        // Unpack: neighbors from the high halves, edge ids from the
        // half-edge ids in the low halves. A self-loop's two words unpack
        // to the same (neighbor, edge id) pair.
        let arcs = words.len();
        let mut neighbors = vec![0 as NodeId; arcs];
        let mut edge_ids = vec![0 as EdgeId; arcs];
        device.capture_fresh(&neighbors[..]);
        device.capture_fresh(&edge_ids[..]);
        let words = &words[..];
        {
            let _k = device.kernel_label("csr_unpack_neighbors");
            device.capture_read(words);
            device.map(&mut neighbors, |i| (words[i] >> 32) as NodeId);
        }
        {
            let _k = device.kernel_label("csr_unpack_edge_ids");
            device.capture_read(words);
            device.map(&mut edge_ids, |i| (words[i] as u32) >> 1);
        }
        Self {
            offsets,
            neighbors,
            edge_ids,
            num_edges: pairs.len(),
        }
    }

    /// Reassembles the CSR of `edges` from its raw arrays (the shape
    /// `emgbin` caches store), validating every structural invariant — a
    /// corrupt cache must produce an error, not a CSR that panics later or
    /// describes another graph.
    ///
    /// # Errors
    /// Describes the first violated invariant: offset monotonicity/bounds,
    /// array length mismatches, out-of-range neighbor/edge ids, or a slot
    /// that disagrees with `edges` — every edge id must occupy one slot in
    /// each endpoint's run, pointing at the other endpoint (a self-loop
    /// occupies two slots in its own run).
    pub fn from_raw_parts(
        offsets: Vec<u32>,
        neighbors: Vec<NodeId>,
        edge_ids: Vec<EdgeId>,
        edges: &EdgeList,
    ) -> Result<Self, String> {
        if offsets.is_empty() {
            return Err("offsets array is empty (needs num_nodes + 1 entries)".into());
        }
        let n = offsets.len() - 1;
        if n != edges.num_nodes() {
            return Err(format!(
                "offsets describe {n} nodes but the edge list has {}",
                edges.num_nodes()
            ));
        }
        let num_edges = edges.num_edges();
        if offsets[0] != 0 {
            return Err(format!("offsets[0] = {} (expected 0)", offsets[0]));
        }
        if let Some(v) = offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!(
                "offsets not monotone at node {v}: {} > {}",
                offsets[v],
                offsets[v + 1]
            ));
        }
        let arcs = 2 * num_edges;
        if *offsets.last().unwrap() as usize != arcs {
            return Err(format!(
                "offsets end at {} but {num_edges} edges need {arcs} arc slots",
                offsets.last().unwrap()
            ));
        }
        if neighbors.len() != arcs || edge_ids.len() != arcs {
            return Err(format!(
                "array lengths {} / {} do not match {arcs} arcs",
                neighbors.len(),
                edge_ids.len()
            ));
        }
        if let Some(&bad) = neighbors.iter().find(|&&v| v as usize >= n) {
            return Err(format!("neighbor id {bad} out of range for {n} nodes"));
        }
        if let Some(&bad) = edge_ids.iter().find(|&&e| e as usize >= num_edges) {
            return Err(format!("edge id {bad} out of range for {num_edges} edges"));
        }
        // Slot (v, w, e) fills one side of edge e = (a, b): v = a, w = b or
        // v = b, w = a. The lengths check above leaves exactly 2m slots for
        // the 2m sides, so if no side is filled twice, each is filled once.
        let mut filled = vec![0u8; num_edges];
        for (v, run) in offsets.windows(2).enumerate() {
            for slot in run[0] as usize..run[1] as usize {
                let (w, e) = (neighbors[slot] as usize, edge_ids[slot] as usize);
                let (a, b) = edges.edges()[e];
                let (a, b) = (a as usize, b as usize);
                let side = &mut filled[e];
                if v == a && w == b && *side & 1 == 0 {
                    *side |= 1;
                } else if v == b && w == a && *side & 2 == 0 {
                    *side |= 2;
                } else {
                    return Err(format!(
                        "slot {slot} (node {v}, neighbor {w}) does not fill a free side \
                         of edge {e} = ({a}, {b})"
                    ));
                }
            }
        }
        Ok(Self {
            offsets,
            neighbors,
            edge_ids,
            num_edges,
        })
    }

    /// Sorts each adjacency list by `(neighbor, edge id)` in parallel —
    /// restores determinism after the atomic fill.
    fn sort_adjacency(&mut self) {
        let n = self.num_nodes();
        let offsets = &self.offsets;
        // Zip the two arrays per node; sort tiny runs.
        let mut zipped: Vec<(NodeId, EdgeId)> = self
            .neighbors
            .iter()
            .copied()
            .zip(self.edge_ids.iter().copied())
            .collect();
        // Carve the zipped array into per-node runs (offsets are monotone,
        // so successive split_at_mut calls partition it disjointly), then
        // sort every run in parallel.
        let mut runs: Vec<&mut [(NodeId, EdgeId)]> = Vec::with_capacity(n);
        let mut rest: &mut [(NodeId, EdgeId)] = &mut zipped;
        let mut prev = 0usize;
        for v in 0..n {
            let e = offsets[v + 1] as usize;
            let (run, tail) = rest.split_at_mut(e - prev);
            runs.push(run);
            rest = tail;
            prev = e;
        }
        runs.into_par_iter().for_each(|run| run.sort_unstable());
        for (i, (nb, ei)) in zipped.into_iter().enumerate() {
            self.neighbors[i] = nb;
            self.edge_ids[i] = ei;
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of `v` (counting multi-edges and both endpoints of loops).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Neighbor node ids of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        &self.neighbors[s..e]
    }

    /// Undirected edge ids incident to `v`, parallel to [`Csr::neighbors`].
    #[inline]
    pub fn edge_ids(&self, v: NodeId) -> &[EdgeId] {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        &self.edge_ids[s..e]
    }

    /// Maximum degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Average undirected degree `2m / n` (0.0 for an empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            return 0.0;
        }
        2.0 * self.num_edges as f64 / self.num_nodes() as f64
    }

    /// `(neighbor, edge id)` pairs incident to `v`.
    pub fn incident(&self, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.edge_ids(v).iter().copied())
    }

    /// The raw offsets array (`num_nodes + 1` boundaries).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw neighbor array (length `2 * num_edges`).
    pub fn raw_neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// The raw edge-id array, parallel to [`Csr::raw_neighbors`].
    pub fn raw_edge_ids(&self) -> &[EdgeId] {
        &self.edge_ids
    }
}

/// The 2m half-edges (directed arcs) of an undirected edge list, grouped
/// by tail on the device: node `x`'s run is
/// `words[offsets[x]..offsets[x + 1]]`. Each word packs
/// `(head << 32) | half-edge id`, where edge `j`'s arc in `pairs[j].0`'s
/// run is half-edge `2j` and its arc in `pairs[j].1`'s run is `2j + 1`.
/// Each run is sorted, so it orders by (head, edge id).
///
/// The one placement both adjacency builds read: [`Csr::from_pairs_on`]
/// unpacks it, and the Euler tour reads each run as a node's cyclic list
/// of outgoing half-edges (paper §2.1) and links it into the tour
/// successor.
#[derive(Debug)]
pub struct HalfEdgePlacement {
    /// Run boundaries, `n + 1` of them; `offsets[n] = 2m`.
    pub offsets: Vec<u32>,
    /// The packed half-edges, grouped by tail and sorted within each run.
    pub words: Vec<u64>,
}

impl HalfEdgePlacement {
    /// Places the half-edges of `pairs` over `n` nodes — a counting sort
    /// of the arcs by tail, then a sort of each run:
    ///
    /// 1. per-tail arc counts (an atomic histogram launch);
    /// 2. offsets via [`Device::map_scan_exclusive_into`];
    /// 3. placement: one virtual thread per tile of 16 edges claims all of
    ///    its tile's slots with atomic per-node cursors, then stores each
    ///    arc as its packed word;
    /// 4. one [`Device::segmented_sort`] launch over the runs.
    ///
    /// No two words are equal (a self-loop's two arcs differ in the low
    /// bit), so the unstable sort is deterministic and the result is the
    /// same at every pool width.
    ///
    /// # Panics
    /// Panics if there are more than `u32::MAX / 2` edges or an endpoint
    /// is not below `n`.
    pub fn build(device: &Device, n: usize, pairs: &[(NodeId, NodeId)]) -> Self {
        let m = pairs.len();
        assert!(m <= (u32::MAX / 2) as usize, "graph too large for u32 CSR");

        // Phase 1: per-tail arc counts (each undirected edge is two arcs).
        // Arena-backed so the scratch has a deterministic lifetime in the
        // captured launch graph.
        let mut counts = device.alloc_filled(n, 0u32);
        {
            let _k = device.kernel_label("csr_count_arcs");
            device.capture_read(pairs);
            let cells = device
                .atomic_u32(&mut counts)
                .benign("degree histogram: colliding fetch_add increments commute");
            device.for_each(m, |e| {
                let (u, v) = pairs[e];
                cells.fetch_add(u as usize, 1);
                cells.fetch_add(v as usize, 1);
            });
        }

        // Phase 2: offsets = exclusive scan of the counts, padded by one
        // zero so the scan writes all n + 1 slots (offsets[n] = total) in
        // place — no append, no realloc. Every output is a plain heap
        // buffer, which capture identifies by base pointer: each is
        // declared fresh where it is allocated.
        let mut offsets = vec![0u32; n + 1];
        device.capture_fresh(&offsets[..]);
        let total = {
            let counts_ref = &counts[..];
            device.capture_read(counts_ref);
            device.map_scan_exclusive_into(
                n + 1,
                |v| if v < n { counts_ref[v] } else { 0 },
                &mut offsets,
                0u32,
                |a, b| a + b,
            )
        };
        drop(counts);
        debug_assert_eq!(total as usize, 2 * m);

        // The packed words are a plain heap buffer, freed by the caller
        // once it has read them: an arena block would stay resident
        // through the caller's pipeline and raise its peak memory
        // (DESIGN.md §7).
        let mut words = vec![0u64; 2 * m];
        device.capture_fresh(&words[..]);

        // Phase 3: place each arc's packed word in its slot. On x86 every
        // fetch_add is a locked instruction that first drains the store
        // buffer; claiming all of a tile's slots before storing lets the
        // tile's scattered stores miss cache together, with one drain per
        // tile instead of one per arc (DESIGN.md §7).
        {
            let _k = device.kernel_label("csr_place_arcs");
            // The arc pairs and offsets feed the closure, invisible to the
            // tracked views — declare the reads for the capture plane.
            device.capture_read(pairs);
            device.capture_read(&offsets[..]);
            let cursors: Vec<AtomicU32> = offsets[..n].iter().map(|&o| AtomicU32::new(o)).collect();
            // fetch_add hands out unique slots within each node's
            // [offsets[v], offsets[v+1]) range, so each slot has one writer.
            let slots_out = device.shared(&mut words);
            device.for_each(m.div_ceil(PLACE_TILE), |t| {
                let first = t * PLACE_TILE;
                let tile = &pairs[first..usize::min(first + PLACE_TILE, m)];
                let mut slots = [(0u32, 0u32); PLACE_TILE];
                for (slot, &(u, v)) in slots.iter_mut().zip(tile) {
                    *slot = (
                        cursors[u as usize].fetch_add(1, Ordering::Relaxed),
                        cursors[v as usize].fetch_add(1, Ordering::Relaxed),
                    );
                }
                for (k, (&(pu, pv), &(u, v))) in slots.iter().zip(tile).enumerate() {
                    let he = 2 * (first + k) as u64;
                    slots_out.write(pu as usize, ((v as u64) << 32) | he);
                    slots_out.write(pv as usize, ((u as u64) << 32) | (he + 1));
                }
            });
        }

        // Phase 4: sort every run. (head, 2j + side) orders a run as
        // (head, edge id) does.
        {
            let _k = device.kernel_label("csr_sort_runs");
            device.segmented_sort(&offsets, &mut words);
        }
        Self { offsets, words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> EdgeList {
        // 0-1, 1-2, 2-0 triangle; 2-3 tail.
        EdgeList::new(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn degrees_and_neighbors() {
        let csr = Csr::from_edge_list(&triangle_plus_tail());
        assert_eq!(csr.num_nodes(), 4);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.degree(2), 3);
        assert_eq!(csr.neighbors(2), &[0, 1, 3]);
        assert_eq!(csr.neighbors(3), &[2]);
    }

    #[test]
    fn edge_ids_match_source_order() {
        let csr = Csr::from_edge_list(&triangle_plus_tail());
        // Edge 3 is (2,3).
        assert_eq!(csr.edge_ids(3), &[3]);
        let incident2: Vec<(u32, u32)> = csr.incident(2).collect();
        assert!(incident2.contains(&(0, 2))); // edge 2 = (2,0)
        assert!(incident2.contains(&(1, 1))); // edge 1 = (1,2)
        assert!(incident2.contains(&(3, 3))); // edge 3 = (2,3)
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_edge_list(&EdgeList::empty(3));
        assert_eq!(csr.num_nodes(), 3);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.degree(0), 0);
        assert!(csr.neighbors(1).is_empty());
    }

    #[test]
    fn multi_edges_kept_with_distinct_ids() {
        let el = EdgeList::new(2, vec![(0, 1), (0, 1)]);
        let csr = Csr::from_edge_list(&el);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.edge_ids(0), &[0, 1]);
    }

    #[test]
    fn self_loop_counts_twice_in_degree() {
        let el = EdgeList::new(2, vec![(0, 0), (0, 1)]);
        let csr = Csr::from_edge_list(&el);
        assert_eq!(csr.degree(0), 3);
        assert_eq!(csr.neighbors(1), &[0]);
    }

    #[test]
    fn larger_random_graph_is_consistent() {
        // Deterministic pseudo-random pairs.
        let n = 1000usize;
        let mut edges = Vec::new();
        let mut state = 12345u64;
        for _ in 0..5000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((state >> 33) % n as u64) as u32;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = ((state >> 33) % n as u64) as u32;
            edges.push((u, v));
        }
        let el = EdgeList::new(n, edges.clone());
        let csr = Csr::from_edge_list(&el);
        // Sum of degrees = 2m.
        let total: usize = (0..n as u32).map(|v| csr.degree(v)).sum();
        assert_eq!(total, 2 * edges.len());
        // Every edge appears in both endpoint lists with its id.
        for (e, &(u, v)) in edges.iter().enumerate() {
            assert!(csr.incident(u).any(|(nb, id)| nb == v && id == e as u32));
            assert!(csr.incident(v).any(|(nb, id)| nb == u && id == e as u32));
        }
    }

    #[test]
    fn neighbors_sorted_for_determinism() {
        let el = EdgeList::new(5, vec![(0, 4), (0, 2), (0, 3), (0, 1)]);
        let csr = Csr::from_edge_list(&el);
        assert_eq!(csr.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn device_builder_matches_rayon_builder() {
        let device = Device::new();
        // Deterministic pseudo-random multigraph with loops.
        let n = 500usize;
        let mut edges = Vec::new();
        let mut state = 99u64;
        for _ in 0..3000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((state >> 33) % n as u64) as u32;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = ((state >> 33) % n as u64) as u32;
            edges.push((u, v));
        }
        let el = EdgeList::new(n, edges);
        assert_eq!(
            Csr::from_edge_list_on(&device, &el),
            Csr::from_edge_list(&el)
        );
        // Degenerate shapes.
        let empty = EdgeList::empty(3);
        assert_eq!(
            Csr::from_edge_list_on(&device, &empty),
            Csr::from_edge_list(&empty)
        );
        let nothing = EdgeList::empty(0);
        assert_eq!(
            Csr::from_edge_list_on(&device, &nothing),
            Csr::from_edge_list(&nothing)
        );
    }

    #[test]
    fn raw_parts_round_trip_and_validation() {
        let graph = triangle_plus_tail();
        let csr = Csr::from_edge_list(&graph);
        let rebuilt = Csr::from_raw_parts(
            csr.offsets().to_vec(),
            csr.raw_neighbors().to_vec(),
            csr.raw_edge_ids().to_vec(),
            &graph,
        )
        .unwrap();
        assert_eq!(rebuilt, csr);

        // Each invariant violation is caught. `loop1` is one node with a
        // self-loop, whose two arcs both sit in node 0's run.
        let loop1 = EdgeList::new(1, vec![(0, 0)]);
        let err = |offsets: Vec<u32>, neighbors: Vec<u32>, edge_ids: Vec<u32>, g: &EdgeList| {
            Csr::from_raw_parts(offsets, neighbors, edge_ids, g).unwrap_err()
        };
        assert!(Csr::from_raw_parts(vec![0, 2], vec![0, 0], vec![0, 0], &loop1).is_ok());
        assert!(err(vec![], vec![], vec![], &EdgeList::empty(0)).contains("empty"));
        assert!(err(vec![0, 2, 2], vec![0, 0], vec![0, 0], &loop1).contains("2 nodes"));
        assert!(err(vec![1, 2], vec![0, 0], vec![0, 0], &loop1).contains("offsets[0]"));
        let loop2 = EdgeList::new(2, vec![(0, 0)]);
        assert!(err(vec![0, 2, 1], vec![0], vec![0], &loop2).contains("monotone"));
        assert!(err(vec![0, 1], vec![0, 0], vec![0, 0], &loop1).contains("arc slots"));
        assert!(err(vec![0, 2], vec![0], vec![0, 0], &loop1).contains("lengths"));
        assert!(err(vec![0, 2], vec![0, 9], vec![0, 0], &loop1).contains("neighbor id 9"));
        assert!(err(vec![0, 2], vec![0, 0], vec![0, 7], &loop1).contains("edge id 7"));
        // Parallel edges each listed twice on one side: every slot names a
        // real incidence, but edge 0 never reaches node 1's run.
        let parallel = EdgeList::new(2, vec![(0, 1), (0, 1)]);
        assert!(
            Csr::from_raw_parts(vec![0, 2, 4], vec![1, 1, 0, 0], vec![0, 1, 0, 1], &parallel)
                .is_ok()
        );
        assert!(
            err(vec![0, 2, 4], vec![1, 1, 0, 0], vec![0, 0, 1, 1], &parallel)
                .contains("does not fill")
        );
        // A self-loop fills its two sides from its own run, and no more.
        let loop_tail = EdgeList::new(2, vec![(0, 0), (0, 1)]);
        assert!(err(
            vec![0, 3, 4],
            vec![0, 0, 0, 0],
            vec![0, 0, 0, 1],
            &loop_tail
        )
        .contains("does not fill"));
    }

    #[test]
    fn degree_statistics() {
        let el = EdgeList::new(4, vec![(0, 1), (0, 2), (0, 3)]);
        let csr = Csr::from_edge_list(&el);
        assert_eq!(csr.max_degree(), 3);
        assert!((csr.avg_degree() - 1.5).abs() < 1e-9);
        let empty = Csr::from_edge_list(&EdgeList::empty(0));
        assert_eq!(empty.max_degree(), 0);
        assert_eq!(empty.avg_degree(), 0.0);
    }
}
