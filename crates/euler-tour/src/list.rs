//! The Euler tour as a singly linked list over half-edges (§2.1).
//!
//! Edge `j = {u, v}` has half-edges `2j = (u → v)` and `2j + 1 = (v → u)`,
//! so `twin(e) = e ^ 1` needs no storage. The paper sorts all half-edges
//! lexicographically (its array B, Figure 2): each tail's group, read
//! cyclically, is the DCEL's `next`, and the tour successor is
//! `succ(e) = next(twin(e))`. Here B is graph-core's [`HalfEdgePlacement`]:
//! the half-edges grouped by tail, each run sorted by (head, half-edge id),
//! which is the order of a stable sort of all half-edges. The words carry
//! the half-edge ids, so one per-node launch writes `succ` straight from the
//! runs and `next` is never stored. The cycle is split at the root (§2.1:
//! "we choose the root by choosing the list head").

use gpu_sim::Device;
use graph_core::ids::NodeId;
use graph_core::HalfEdgePlacement;

/// Sentinel terminating the split list.
pub const NIL: u32 = u32::MAX;

/// Twin of a half-edge: the opposite direction of the same undirected edge.
#[inline]
pub fn twin(e: u32) -> u32 {
    e ^ 1
}

/// An Euler tour as a successor list over half-edge ids, split at the root.
#[derive(Debug, Clone)]
pub struct EulerList {
    /// `succ[e]` = next half-edge of the tour, `NIL` for the last one.
    pub succ: Vec<u32>,
    /// First half-edge of the tour (leaves the root).
    pub head: u32,
    /// Last half-edge of the tour (enters the root).
    pub tail: u32,
}

impl EulerList {
    /// Builds the tour list of `edges` over `num_nodes` nodes, rooted at
    /// `root`: the [`HalfEdgePlacement`], then one `tour_link` launch in
    /// which node x's virtual thread reads its run in order and writes
    /// `succ[twin(prev)] = cur` for each pair, the last wrapping to the
    /// first. `twin` is a bijection, so each slot has one writer. The head
    /// is the root run's first half-edge and the tail, its predecessor, the
    /// twin of the run's last.
    ///
    /// Returns `None` when a node has no half-edge, which the link reports
    /// as it goes: such edges are no spanning tree, and [`crate::EulerTour`]
    /// relies on this verdict.
    ///
    /// # Panics
    /// Panics if an endpoint or `root` is not below `num_nodes`.
    pub fn build(
        device: &Device,
        num_nodes: usize,
        edges: &[(NodeId, NodeId)],
        root: NodeId,
    ) -> Option<Self> {
        let HalfEdgePlacement { offsets, words } =
            HalfEdgePlacement::build(device, num_nodes, edges);

        let mut succ = vec![0u32; words.len()];
        device.capture_fresh(&succ[..]);
        let uncovered = {
            let _k = device.kernel_label("tour_link");
            device.capture_read(&words[..]);
            device.capture_read(&offsets[..]);
            let succ_shared = device.shared(&mut succ);
            let (words, offsets) = (&words[..], &offsets[..]);
            device.map_reduce(
                num_nodes,
                |x| {
                    let run = &words[offsets[x] as usize..offsets[x + 1] as usize];
                    let Some(&last) = run.last() else {
                        return true;
                    };
                    let mut prev = last as u32;
                    for &word in run {
                        succ_shared.write(twin(prev) as usize, word as u32);
                        prev = word as u32;
                    }
                    false
                },
                false,
                |a, b| a | b,
            )
        };
        if uncovered {
            return None;
        }

        device.capture_host_read(&words[..]);
        device.capture_host_write(&succ[..]);
        let root = root as usize;
        let run = &words[offsets[root] as usize..offsets[root + 1] as usize];
        let head = run[0] as u32;
        let tail = twin(run[run.len() - 1] as u32);
        succ[tail as usize] = NIL;
        Some(Self { succ, head, tail })
    }

    /// Number of half-edges on the tour.
    pub fn len(&self) -> usize {
        self.succ.len()
    }

    /// Whether the list is empty (never true for a built list).
    pub fn is_empty(&self) -> bool {
        self.succ.is_empty()
    }

    /// Walks the list sequentially, returning half-edges in tour order.
    /// O(n) — test/oracle helper.
    pub fn iter_order(&self) -> Vec<u32> {
        let mut order = Vec::with_capacity(self.len());
        let mut e = self.head;
        while e != NIL {
            order.push(e);
            e = self.succ[e as usize];
        }
        order
    }

    /// Validates that the list visits every half-edge exactly once.
    pub fn validate(&self) -> Result<(), String> {
        let order = self.iter_order();
        if order.len() != self.len() {
            return Err(format!(
                "tour visits {} of {} half-edges",
                order.len(),
                self.len()
            ));
        }
        if *order.last().unwrap() != self.tail {
            return Err("tour does not end at the recorded tail".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 1 tree, edges given in Figure 2's A-array order:
    /// A = (0,2)(2,0) (0,3)(3,0) (0,4)(4,0) (2,1)(1,2) (2,5)(5,2).
    const PAPER_EDGES: [(u32, u32); 5] = [(0, 2), (0, 3), (0, 4), (2, 1), (2, 5)];

    fn paper_list(device: &Device, root: NodeId) -> EulerList {
        EulerList::build(device, 6, &PAPER_EDGES, root).unwrap()
    }

    /// Half-edge `e` as its (tail, head) pair.
    fn ends(edges: &[(u32, u32)], e: u32) -> (u32, u32) {
        let (u, v) = edges[e as usize / 2];
        if e.is_multiple_of(2) {
            (u, v)
        } else {
            (v, u)
        }
    }

    #[test]
    fn paper_figure2_twin_pointers() {
        // twin is xor 1 by construction: (0,2) at he 0, (2,0) at he 1, ...
        assert_eq!(twin(0), 1);
        assert_eq!(twin(1), 0);
        assert_eq!(twin(6), 7);
    }

    #[test]
    fn paper_figure2_next_pointers_as_succ() {
        // Figure 2's B order: (0,2) (0,3) (0,4) (1,2) (2,0) (2,1) (2,5)
        //                     (3,0) (4,0) (5,2)
        // Half-edge ids:  (0,2)=0 (2,0)=1 (0,3)=2 (3,0)=3 (0,4)=4 (4,0)=5
        //                 (2,1)=6 (1,2)=7 (2,5)=8 (5,2)=9
        // next chains per node (cyclic): node 0: 0 -> 2 -> 4 -> 0;
        // node 1: 7 -> 7; node 2: 1 -> 6 -> 8 -> 1; leaves 3, 5, 9 self-
        // cycle. succ(twin(e)) = next(e), so each next pointer shows at
        // succ[twin(e)], except next(4) = 0, the head, whose slot
        // succ[5] is the tail's NIL.
        let list = paper_list(&Device::new(), 0);
        assert_eq!(list.len(), 10);
        let next = [
            (0, 2),
            (2, 4),
            (7, 7),
            (1, 6),
            (6, 8),
            (8, 1),
            (3, 3),
            (5, 5),
            (9, 9),
        ];
        for (e, after) in next {
            assert_eq!(list.succ[twin(e) as usize], after, "next({e})");
        }
        assert_eq!((list.head, list.tail), (0, 5));
        assert_eq!(list.succ[5], NIL);
    }

    #[test]
    fn paper_figure1_succ_example() {
        // succ(e) = next(twin(e)) leaves the node e arrives at, on every
        // half-edge but the tail.
        let list = paper_list(&Device::new(), 0);
        for e in 0..list.len() as u32 {
            let s = list.succ[e as usize];
            if s != NIL {
                assert_eq!(ends(&PAPER_EDGES, s).0, ends(&PAPER_EDGES, e).1);
            }
        }
    }

    #[test]
    fn head_is_the_lexicographic_minimum_of_the_root() {
        let device = Device::new();
        // Node 0's smallest outgoing edge is (0,2) = he 0 and its largest
        // (0,4) = he 4; node 2's are (2,0) = he 1 and (2,5) = he 8; leaf
        // 5's only one is (5,2) = he 9. The tail is the twin of the
        // largest.
        for (root, head, tail) in [(0, 0, 5), (2, 1, 9), (5, 9, 8)] {
            let list = paper_list(&device, root);
            assert_eq!((list.head, list.tail), (head, tail), "root {root}");
        }
    }

    #[test]
    fn tour_visits_all_half_edges_once() {
        let list = paper_list(&Device::new(), 0);
        list.validate().unwrap();
        assert_eq!(list.len(), 10);
    }

    #[test]
    fn paper_tour_order_matches_figure1() {
        // succ((0,2)) = next(twin(0,2)) = next((2,0)) = (2,1): the tour
        // dives into node 2's subtree first, exactly as Figure 1:
        // 0→2→1→2→5→2→0→3→0→4→0.
        let list = paper_list(&Device::new(), 0);
        let named: Vec<(u32, u32)> = list
            .iter_order()
            .iter()
            .map(|&e| ends(&PAPER_EDGES, e))
            .collect();
        assert_eq!(
            named,
            vec![
                (0, 2),
                (2, 1),
                (1, 2),
                (2, 5),
                (5, 2),
                (2, 0),
                (0, 3),
                (3, 0),
                (0, 4),
                (4, 0),
            ]
        );
    }

    #[test]
    fn rerooting_changes_head() {
        let list = paper_list(&Device::new(), 2);
        list.validate().unwrap();
        assert_eq!(ends(&PAPER_EDGES, list.head).0, 2);
        assert_eq!(ends(&PAPER_EDGES, list.tail).1, 2);
        assert_eq!(list.iter_order().len(), 10);
    }

    #[test]
    fn two_node_tree() {
        let list = EulerList::build(&Device::new(), 2, &[(0, 1)], 0).unwrap();
        assert_eq!(list.iter_order(), vec![0, 1]);
        assert_eq!(list.tail, 1);
    }

    #[test]
    fn path_tour_is_there_and_back() {
        let n = 100u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (v - 1, v)).collect();
        let list = EulerList::build(&Device::new(), n as usize, &edges, 0).unwrap();
        let order = list.iter_order();
        assert_eq!(order.len(), 2 * (n as usize - 1));
        // First half goes down the path, second half returns.
        for (i, &e) in order.iter().enumerate() {
            let (t, h) = ends(&edges, e);
            if i < n as usize - 1 {
                assert_eq!((t, h), (i as u32, i as u32 + 1));
            } else {
                let back = 2 * (n as usize - 1) - i;
                assert_eq!((t, h), (back as u32, back as u32 - 1));
            }
        }
    }

    #[test]
    fn succ_is_a_permutation_but_for_the_split() {
        // A binary-heap-shaped tree: every half-edge but the tail has one
        // successor, no two share one, and each leaves the node its
        // predecessor enters.
        let n = 2000usize;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v / 2, v)).collect();
        let list = EulerList::build(&Device::new(), n, &edges, 0).unwrap();
        let mut seen = vec![false; list.len()];
        for e in 0..list.len() as u32 {
            let s = list.succ[e as usize];
            if e == list.tail {
                assert_eq!(s, NIL);
                continue;
            }
            assert!(!seen[s as usize], "succ must be injective");
            seen[s as usize] = true;
            assert_eq!(ends(&edges, s).0, ends(&edges, e).1);
        }
        assert!(!seen[list.head as usize], "nothing precedes the head");
    }

    #[test]
    fn isolated_nodes_are_none() {
        // Node 2 has no half-edge: the link's verdict rejects the input
        // whichever node roots it.
        let device = Device::new();
        assert!(EulerList::build(&device, 3, &[(0, 1)], 0).is_none());
        assert!(EulerList::build(&device, 3, &[(0, 1), (1, 0)], 1).is_none());
    }

    #[test]
    fn isolated_root_is_none() {
        assert!(EulerList::build(&Device::new(), 3, &[(0, 1)], 2).is_none());
    }

    #[test]
    fn empty_edge_set() {
        assert!(EulerList::build(&Device::new(), 1, &[], 0).is_none());
    }

    #[test]
    fn arena_footprint_is_below_one_word_per_half_edge() {
        // What one build takes from a warmed arena: the placement's
        // per-node counts and the offset scan's block sums. The packed
        // words and `succ` are plain buffers, so nothing of 8 bytes per
        // half-edge stays resident in the arena after the build.
        let n = 1usize << 16;
        let mut state = 0x5EED_u64;
        let edges: Vec<(u32, u32)> = (1..n as u32)
            .map(|v| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as u32 % v, v)
            })
            .collect();
        let word_per_half_edge = 8 * 2 * (n as u64 - 1);
        for threads in [1, 4] {
            let device = Device::with_config(gpu_sim::DeviceConfig {
                threads: Some(threads),
                ..Default::default()
            });
            EulerList::build(&device, n, &edges, 0).unwrap();
            let before = device.metrics().snapshot();
            EulerList::build(&device, n, &edges, 0).unwrap();
            let d = device.metrics().snapshot().since(&before);
            let taken = d.bytes_allocated + d.bytes_reused;
            assert!(
                taken < word_per_half_edge,
                "{threads} workers: the build took {taken} arena bytes, not under \
                 {word_per_half_edge}"
            );
        }
    }

    #[test]
    fn captured_build_declares_the_tail_write() {
        // The host writes the tail's NIL after `tour_link`, so the host
        // node that follows the link writes the region the link wrote.
        use gpu_sim::launch_graph::mask_writes;
        let device = Device::with_config(gpu_sim::DeviceConfig {
            capture: true,
            ..Default::default()
        });
        paper_list(&device, 0);
        let graph = device.launch_graph().expect("capture is on");
        let link = graph
            .nodes
            .iter()
            .position(|node| node.label.starts_with("tour_link"))
            .expect("a tour_link launch");
        let succ: Vec<u32> = graph.nodes[link]
            .accesses
            .iter()
            .filter(|&(_, &mask)| mask_writes(mask))
            .map(|(&region, _)| region)
            .collect();
        assert_eq!(succ.len(), 1, "tour_link writes succ alone: {succ:?}");
        let host = &graph.nodes[link + 1];
        assert!(host.host, "{host:?}");
        assert!(
            host.accesses.get(&succ[0]).is_some_and(|&m| mask_writes(m)),
            "the host's NIL write to succ is undeclared: {host:?}"
        );
    }

    #[test]
    fn self_loop_takes_two_half_edges() {
        // Half-edges 0 = (0,1), 1 = (1,0), 2 and 3 = the loop (1,1): node
        // 1's run orders them (1,0) (1,1)#2 (1,1)#3, so next is 1 -> 2 ->
        // 3 -> 1 and node 0's is 0 -> 0. succ[twin(e)] = next(e) puts 2
        // at succ[0], 3 at succ[3] and 1 at succ[2]; succ[1] = next(0) is
        // the head's slot, split off as the tail.
        let list = EulerList::build(&Device::new(), 2, &[(0, 1), (1, 1)], 0).unwrap();
        assert_eq!(list.succ, vec![2, NIL, 1, 3]);
        assert_eq!((list.head, list.tail), (0, 1));
    }
}
