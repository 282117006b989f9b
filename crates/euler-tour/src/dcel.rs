//! DCEL-like intermediate representation (§2.1 of the paper).
//!
//! For each undirected tree edge `j = {u, v}` two directed half-edges are
//! materialized next to each other in array **A**: half-edge `2j = (u → v)`
//! and `2j + 1 = (v → u)`, so `twin(e) = e ^ 1` needs no storage. A
//! lexicographically sorted copy **B** of A yields the `next` pointers:
//! consecutive B entries share a tail node unless a group ends, in which
//! case `next` wraps to the group's first entry (array `first`). This is
//! exactly Figure 2 of the paper.
//!
//! The paper gets B from "the costly sorting" of all half-edges. Here B is
//! the CSR placement of the tree edges ([`Csr::from_pairs_on`]): a
//! counting sort of the half-edges by tail, then a sort of each tail's run
//! by head, with ties (parallel edges) broken by edge id. That is the
//! lexicographic order of the stably sorted A, so `next` and `first` are
//! the same bit for bit.

use gpu_sim::Device;
use graph_core::ids::{NodeId, INVALID_NODE};
use graph_core::Csr;

/// Twin of a half-edge: the opposite direction of the same undirected edge.
#[inline]
pub fn twin(e: u32) -> u32 {
    e ^ 1
}

/// The DCEL-like representation: half-edges with `next` pointers forming,
/// per node, a cyclic list of outgoing half-edges.
#[derive(Debug, Clone)]
pub struct Dcel {
    /// Number of nodes of the underlying tree.
    pub num_nodes: usize,
    /// Tail (source) node of each half-edge; `tails[2j] = u` for edge `{u,v}`.
    pub tails: Vec<NodeId>,
    /// Head (target) node of each half-edge; `heads[2j] = v` for edge `{u,v}`.
    pub heads: Vec<NodeId>,
    /// `next[e]` = the half-edge after `e` in the cyclic outgoing list of
    /// `tails[e]`.
    pub next: Vec<u32>,
    /// `first[x]` = some half-edge leaving `x` (the lexicographically first),
    /// or `INVALID_NODE` for isolated nodes.
    pub first: Vec<u32>,
}

impl Dcel {
    /// Number of half-edges (`2 ×` undirected edges).
    pub fn num_half_edges(&self) -> usize {
        self.next.len()
    }

    /// Builds the DCEL from an unordered collection of undirected edges.
    ///
    /// Follows §2.1: create A (implicitly — `twin` is `xor 1` and the
    /// endpoints live in `tails`/`heads`), place the half-edges in B's
    /// order with the CSR placement, map each B slot to its half-edge id,
    /// then derive `next` and `first` in one slot-parallel launch.
    ///
    /// # Panics
    /// Panics if an endpoint is not below `num_nodes`, or on a self-loop:
    /// both its half-edges would take one id. A forest has none, and
    /// [`crate::EulerTour`] rejects them before it builds.
    pub fn build(device: &Device, num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        assert!(
            edges.iter().all(|&(u, v)| u != v),
            "a DCEL edge set holds no self-loop"
        );
        let h = 2 * edges.len();

        // Array A: half-edge endpoints.
        let mut tails = vec![0 as NodeId; h];
        let mut heads = vec![0 as NodeId; h];
        device.capture_fresh(&tails[..]);
        device.capture_fresh(&heads[..]);
        {
            let _k = device.kernel_label("dcel_tails");
            device.capture_read(edges);
            device.map(&mut tails, |e| {
                let (u, v) = edges[e / 2];
                if e % 2 == 0 {
                    u
                } else {
                    v
                }
            });
        }
        {
            let _k = device.kernel_label("dcel_heads");
            device.capture_read(edges);
            device.map(&mut heads, |e| {
                let (u, v) = edges[e / 2];
                if e % 2 == 0 {
                    v
                } else {
                    u
                }
            });
        }

        // Array B: slot s of the placement holds the arc (tail x, neighbor)
        // of edge id j, which is half-edge 2j when the neighbor is the
        // edge's second endpoint and 2j + 1 otherwise. Each slot's word
        // packs (x, half-edge), so the link finds run boundaries by
        // comparing adjacent slots' tails instead of gathering them.
        // Scratch — pooled.
        let csr = Csr::from_pairs_on(device, num_nodes, edges);
        let offsets = csr.offsets();
        let slots = {
            let _k = device.kernel_label("dcel_slot_half_edges");
            let (neighbors, edge_ids) = (csr.raw_neighbors(), csr.raw_edge_ids());
            device.capture_read(neighbors);
            device.capture_read(edge_ids);
            device.capture_read(edges);
            device.alloc_pooled_map(h, |s| {
                let j = edge_ids[s];
                let (u, v) = edges[j as usize];
                let (x, he) = if neighbors[s] == v {
                    (u, 2 * j)
                } else {
                    (v, 2 * j + 1)
                };
                (u64::from(x) << 32) | u64::from(he)
            })
        };

        // Link: each slot writes next[] at its half-edge (the slots hold
        // every half-edge once, so each target has one writer): the next
        // slot's half-edge, or the run's first at the run's end. The run's
        // first slot also writes first[x].
        let mut next = vec![0u32; h];
        let mut first = vec![INVALID_NODE; num_nodes];
        device.capture_fresh(&next[..]);
        device.capture_fresh(&first[..]);
        {
            let _k = device.kernel_label("dcel_link");
            device.capture_read(&slots[..]);
            device.capture_read(offsets);
            let next_shared = device.shared(&mut next);
            let first_shared = device.shared(&mut first);
            let slots = &slots;
            let tail = |s: usize| (slots[s] >> 32) as usize;
            device.for_each(h, |s| {
                let (x, he) = (tail(s), slots[s] as u32);
                let after = if s + 1 < h && tail(s + 1) == x {
                    s + 1
                } else {
                    offsets[x] as usize
                };
                next_shared.write(he as usize, slots[after] as u32);
                if s == 0 || tail(s - 1) != x {
                    first_shared.write(x, he);
                }
            });
        }

        Self {
            num_nodes,
            tails,
            heads,
            next,
            first,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 1 tree, edges given in Figure 2's A-array order:
    /// A = (0,2)(2,0) (0,3)(3,0) (0,4)(4,0) (2,1)(1,2) (2,5)(5,2).
    fn paper_edges() -> Vec<(u32, u32)> {
        vec![(0, 2), (0, 3), (0, 4), (2, 1), (2, 5)]
    }

    #[test]
    fn paper_figure2_twin_pointers() {
        // twin is xor 1 by construction: (0,2) at he 0, (2,0) at he 1, ...
        assert_eq!(twin(0), 1);
        assert_eq!(twin(1), 0);
        assert_eq!(twin(6), 7);
    }

    #[test]
    fn paper_figure2_next_pointers() {
        let device = Device::new();
        let dcel = Dcel::build(&device, 6, &paper_edges());
        assert_eq!(dcel.num_half_edges(), 10);

        // Figure 2's B order: (0,2) (0,3) (0,4) (1,2) (2,0) (2,1) (2,5)
        //                     (3,0) (4,0) (5,2)
        // Half-edge ids:  (0,2)=0 (2,0)=1 (0,3)=2 (3,0)=3 (0,4)=4 (4,0)=5
        //                 (2,1)=6 (1,2)=7 (2,5)=8 (5,2)=9
        // next chains per node (cyclic):
        //   node 0: 0 -> 2 -> 4 -> 0
        assert_eq!(dcel.next[0], 2);
        assert_eq!(dcel.next[2], 4);
        assert_eq!(dcel.next[4], 0);
        //   node 1: 7 -> 7
        assert_eq!(dcel.next[7], 7);
        //   node 2: 1 -> 6 -> 8 -> 1
        assert_eq!(dcel.next[1], 6);
        assert_eq!(dcel.next[6], 8);
        assert_eq!(dcel.next[8], 1);
        //   leaves 3, 4, 5 self-cycle
        assert_eq!(dcel.next[3], 3);
        assert_eq!(dcel.next[5], 5);
        assert_eq!(dcel.next[9], 9);
    }

    #[test]
    fn paper_figure1_succ_example() {
        // The paper: succ(6) = next(twin(6)) = next(1) = 7 — using the
        // paper's 1-based edge numbering of Figure 1, which labels the tour
        // positions, not our half-edge ids. In our id space: the half-edge
        // (2,1) has id 6, twin(6) = 7 = (1,2), next[7] = 7... we instead
        // verify the defining identity on all half-edges: succ stays within
        // bounds and visits edges leaving the head of the current edge.
        let device = Device::new();
        let dcel = Dcel::build(&device, 6, &paper_edges());
        for e in 0..dcel.num_half_edges() as u32 {
            let s = dcel.next[twin(e) as usize];
            assert_eq!(
                dcel.tails[s as usize], dcel.heads[e as usize],
                "succ must leave the node the edge arrived at"
            );
        }
    }

    #[test]
    fn first_points_to_lexicographic_minimum() {
        let device = Device::new();
        let dcel = Dcel::build(&device, 6, &paper_edges());
        // Node 0's smallest outgoing edge is (0,2) = he 0.
        assert_eq!(dcel.first[0], 0);
        // Node 2's smallest outgoing is (2,0) = he 1.
        assert_eq!(dcel.first[2], 1);
        // Leaf 5's only outgoing is (5,2) = he 9.
        assert_eq!(dcel.first[5], 9);
    }

    #[test]
    fn next_is_a_permutation_partitioned_by_tail() {
        let device = Device::new();
        // A larger random-ish tree: parent of i is i/2 (binary heap shape).
        let n = 2000usize;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v / 2, v)).collect();
        let dcel = Dcel::build(&device, n, &edges);
        let h = dcel.num_half_edges();
        let mut seen = vec![false; h];
        for e in 0..h {
            let nx = dcel.next[e] as usize;
            assert!(nx < h);
            assert!(!seen[nx], "next must be injective");
            seen[nx] = true;
            assert_eq!(
                dcel.tails[e], dcel.tails[nx],
                "next stays within a node's list"
            );
        }
    }

    #[test]
    fn isolated_nodes_have_invalid_first() {
        let device = Device::new();
        let dcel = Dcel::build(&device, 3, &[(0, 1)]);
        assert_eq!(dcel.first[2], INVALID_NODE);
        assert_ne!(dcel.first[0], INVALID_NODE);
    }

    #[test]
    fn empty_edge_set() {
        let device = Device::new();
        let dcel = Dcel::build(&device, 1, &[]);
        assert_eq!(dcel.num_half_edges(), 0);
        assert_eq!(dcel.first[0], INVALID_NODE);
    }

    #[test]
    #[should_panic(expected = "no self-loop")]
    fn self_loop_is_rejected() {
        Dcel::build(&Device::new(), 2, &[(0, 1), (1, 1)]);
    }
}
