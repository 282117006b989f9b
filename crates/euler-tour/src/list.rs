//! The Euler tour as a singly linked list: `succ(e) = next(twin(e))`.
//!
//! The list produced from a DCEL is cyclic; to run prefix computations it is
//! split at an arbitrary half-edge leaving the root (§2.1: "we choose the
//! root by choosing the list head").

use crate::dcel::{twin, Dcel};
use gpu_sim::Device;
use graph_core::ids::{NodeId, INVALID_NODE};

/// Sentinel terminating the split list.
pub const NIL: u32 = u32::MAX;

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
    /// Builds the tour list from a DCEL, rooted at `root`.
    ///
    /// # Panics
    /// Panics if `root` has no outgoing half-edge (isolated node) — callers
    /// handle the single-node tree before reaching this point.
    pub fn build(device: &Device, dcel: &Dcel, root: NodeId) -> Self {
        let h = dcel.num_half_edges();
        assert!(h > 0, "cannot build a tour over zero half-edges");
        let head = dcel.first[root as usize];
        assert!(
            head != INVALID_NODE,
            "root {root} has no outgoing half-edge"
        );

        // succ(e) = next(twin(e)), computed in one kernel; the predecessor
        // of the head is found on the fly and its succ set to NIL afterwards.
        let mut succ = vec![0u32; h];
        device.capture_fresh(&succ[..]);
        {
            let _k = device.kernel_label("tour_succ");
            device.capture_read(&dcel.next);
            device.map(&mut succ, |e| dcel.next[twin(e as u32) as usize]);
        }

        // Locate the tour's last edge: the unique e with succ[e] == head.
        let pred_of_head = {
            let mut found = device.alloc_filled(1, NIL);
            {
                let _k = device.kernel_label("tour_find_head_pred");
                // succ is a permutation — exactly one predecessor of head
                // exists, so slot 0 has one writer.
                let found_shared = device.shared(&mut found);
                let succ_ref = &succ;
                device.capture_read(&succ[..]);
                device.for_each(h, |e| {
                    if succ_ref[e] == head {
                        found_shared.write(0, e as u32);
                    }
                });
            }
            device.capture_host_read(&found[..]);
            found[0]
        };
        debug_assert_ne!(pred_of_head, NIL, "cyclic tour must contain the head");
        succ[pred_of_head as usize] = NIL;

        Self {
            succ,
            head,
            tail: pred_of_head,
        }
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
    use crate::dcel::Dcel;

    fn paper_dcel(device: &Device) -> Dcel {
        Dcel::build(device, 6, &[(0, 2), (0, 3), (0, 4), (2, 1), (2, 5)])
    }

    #[test]
    fn tour_visits_all_half_edges_once() {
        let device = Device::new();
        let dcel = paper_dcel(&device);
        let list = EulerList::build(&device, &dcel, 0);
        list.validate().unwrap();
        assert_eq!(list.len(), 10);
    }

    #[test]
    fn paper_tour_order_matches_figure1() {
        let device = Device::new();
        let dcel = paper_dcel(&device);
        let list = EulerList::build(&device, &dcel, 0);
        let order = list.iter_order();
        // Expected DFS traversal from root 0 starting at first[0] = (0,2):
        // (0,2) (2,0)?? — no: succ((0,2)) = next(twin(0,2)) = next((2,0)) =
        // (2,1); the tour dives into node 2's subtree first, exactly as
        // Figure 1: 0→2→1→2→5→2→0→3→0→4→0.
        let named: Vec<(u32, u32)> = order
            .iter()
            .map(|&e| (dcel.tails[e as usize], dcel.heads[e as usize]))
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
        let device = Device::new();
        let dcel = paper_dcel(&device);
        let list = EulerList::build(&device, &dcel, 2);
        list.validate().unwrap();
        assert_eq!(dcel.tails[list.head as usize], 2);
        // Still a complete tour.
        assert_eq!(list.iter_order().len(), 10);
    }

    #[test]
    fn two_node_tree() {
        let device = Device::new();
        let dcel = Dcel::build(&device, 2, &[(0, 1)]);
        let list = EulerList::build(&device, &dcel, 0);
        assert_eq!(list.iter_order(), vec![0, 1]);
        assert_eq!(list.tail, 1);
    }

    #[test]
    fn path_tour_is_there_and_back() {
        let device = Device::new();
        let n = 100u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (v - 1, v)).collect();
        let dcel = Dcel::build(&device, n as usize, &edges);
        let list = EulerList::build(&device, &dcel, 0);
        let order = list.iter_order();
        assert_eq!(order.len(), 2 * (n as usize - 1));
        // First half goes down the path, second half returns.
        for (i, &e) in order.iter().enumerate() {
            let (t, h) = (dcel.tails[e as usize], dcel.heads[e as usize]);
            if i < n as usize - 1 {
                assert_eq!((t, h), (i as u32, i as u32 + 1));
            } else {
                let back = 2 * (n as usize - 1) - i;
                assert_eq!((t, h), (back as u32, back as u32 - 1));
            }
        }
    }

    #[test]
    #[should_panic(expected = "no outgoing half-edge")]
    fn isolated_root_panics() {
        let device = Device::new();
        let dcel = Dcel::build(&device, 3, &[(0, 1)]);
        let _ = EulerList::build(&device, &dcel, 2);
    }
}
