//! Lock-free connected components with a spanning forest byproduct —
//! the Jaiganesh–Burtscher \[31\] substitute used by TV and the hybrid
//! algorithm ("a GPU-optimized connected components algorithm which
//! constructs a spanning tree as a byproduct").
//!
//! The structure is a concurrent union-find: roots always link toward
//! smaller ids (which makes the parent forest acyclic and the CAS loop
//! wait-free in aggregate), and finds apply intermediate pointer jumping
//! (halving), the same compression ECL-CC uses. Every successful hook
//! corresponds to one edge that joined two components — those edges form
//! the spanning forest, returned as an [`UnrootedForest`].

use crate::forest::UnrootedForest;
use gpu_sim::{AtomicViewU32, Device};
use graph_core::ids::{EdgeId, NodeId};
use graph_core::EdgeList;

/// Find with path halving over a tracked atomic parent view.
#[inline]
fn find(parent: &AtomicViewU32<'_>, mut v: u32) -> u32 {
    loop {
        let p = parent.load(v as usize);
        if p == v {
            return v;
        }
        let gp = parent.load(p as usize);
        if gp == p {
            return p;
        }
        // Intermediate pointer jumping: shortcut v toward its grandparent.
        let _ = parent.compare_exchange_weak(v as usize, p, gp);
        v = gp;
    }
}

/// One hooking attempt for edge `e = {u, v}`: links the larger root under
/// the smaller and flags `e` as a tree edge when the link wins the CAS.
#[inline]
fn hook_min(parent: &AtomicViewU32<'_>, tree_flag: &AtomicViewU32<'_>, e: usize, u: u32, v: u32) {
    if u == v {
        return;
    }
    loop {
        let ru = find(parent, u);
        let rv = find(parent, v);
        if ru == rv {
            return;
        }
        let (hi, lo) = if ru > rv { (ru, rv) } else { (rv, ru) };
        if parent.compare_exchange(hi as usize, hi, lo).is_ok() {
            tree_flag.store(e, 1);
            return;
        }
        // Lost the race; re-find and retry.
    }
}

impl UnrootedForest {
    /// Computes connected components and a spanning forest on the device
    /// with lock-free union-find hooking: diameter-insensitive, and
    /// wait-free in aggregate. Which edges win the benign hooking races
    /// varies run to run; the representatives and the component count do
    /// not. The parent array and tree flags — the hooking phase's working
    /// state — come from the device arena, so repeated runs allocate only
    /// the outputs.
    pub fn build(device: &Device, graph: &EdgeList) -> Self {
        let n = graph.num_nodes();
        let m = graph.num_edges();

        let mut parent_buf = {
            let _k = device.kernel_label("cc_init_parent");
            device.alloc_pooled_map(n, |v| v as u32)
        };
        let mut tree_flag_buf = device.alloc_filled(m, 0u32);
        let parent = device
            .atomic_u32(&mut parent_buf)
            .benign("union-find hooking: any CAS winner yields a valid forest, losers re-find");
        let tree_flag = device.atomic_u32(&mut tree_flag_buf);

        // Hooking phase: one virtual thread per edge.
        {
            let _k = device.kernel_label("cc_hook");
            let edges = graph.edges();
            // The edge list feeds the closure, invisible to the tracked views.
            device.capture_read(edges);
            device.for_each(m, |e| {
                let (u, v) = edges[e];
                hook_min(&parent, &tree_flag, e, u, v);
            });
        }

        // Flatten: every node points at its root.
        let mut representative = vec![0 as NodeId; n];
        {
            let _k = device.kernel_label("cc_flatten");
            device.map(&mut representative, |v| find(&parent, v as u32));
        }

        // Collect spanning forest edges in id order.
        let _k = device.kernel_label("cc_collect_tree");
        let tree_edges: Vec<EdgeId> = device.compact_indices(m, |e| tree_flag.load(e) == 1);

        let num_components = n - tree_edges.len();

        Self {
            tree_edges,
            representative,
            num_components,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc(edges: Vec<(u32, u32)>, n: usize) -> UnrootedForest {
        let device = Device::new();
        let graph = EdgeList::new(n, edges);
        UnrootedForest::build(&device, &graph)
    }

    #[test]
    fn single_component_path() {
        let c = cc(vec![(0, 1), (1, 2), (2, 3)], 4);
        assert!(c.is_connected());
        assert_eq!(c.num_components, 1);
        assert_eq!(c.tree_edges.len(), 3);
        assert!(c.representative.iter().all(|&r| r == 0));
    }

    #[test]
    fn two_components() {
        let c = cc(vec![(0, 1), (2, 3)], 4);
        assert_eq!(c.num_components, 2);
        assert_eq!(c.representative[0], c.representative[1]);
        assert_eq!(c.representative[2], c.representative[3]);
        assert_ne!(c.representative[0], c.representative[2]);
    }

    #[test]
    fn isolated_nodes_are_components() {
        let c = cc(vec![(0, 1)], 4);
        assert_eq!(c.num_components, 3);
    }

    #[test]
    fn cycle_spans_with_n_minus_1_edges() {
        let c = cc(vec![(0, 1), (1, 2), (2, 0)], 3);
        assert_eq!(c.num_components, 1);
        assert_eq!(c.tree_edges.len(), 2);
    }

    #[test]
    fn self_loops_ignored() {
        let c = cc(vec![(0, 0), (0, 1)], 2);
        assert_eq!(c.num_components, 1);
        assert_eq!(c.tree_edges, vec![1]);
    }

    #[test]
    fn parallel_edges_use_only_one() {
        let c = cc(vec![(0, 1), (0, 1), (1, 0)], 2);
        assert_eq!(c.tree_edges.len(), 1);
    }

    #[test]
    fn spanning_forest_is_acyclic_and_spanning() {
        // Deterministic random graph; verify the forest with a sequential
        // union-find.
        let n = 5000usize;
        let mut state = 11u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let edges: Vec<(u32, u32)> = (0..20_000)
            .map(|_| ((step() % n as u64) as u32, (step() % n as u64) as u32))
            .collect();
        let device = Device::new();
        let graph = EdgeList::new(n, edges.clone());
        let c = UnrootedForest::build(&device, &graph);

        // Sequential union-find over the claimed tree edges: no edge may
        // close a cycle.
        let mut uf: Vec<u32> = (0..n as u32).collect();
        fn sfind(uf: &mut [u32], mut v: u32) -> u32 {
            while uf[v as usize] != v {
                uf[v as usize] = uf[uf[v as usize] as usize];
                v = uf[v as usize];
            }
            v
        }
        for &e in &c.tree_edges {
            let (u, v) = edges[e as usize];
            let (ru, rv) = (sfind(&mut uf, u), sfind(&mut uf, v));
            assert_ne!(ru, rv, "tree edge {e} closes a cycle");
            uf[ru as usize] = rv;
        }
        // Same connectivity as the full graph.
        for &(u, v) in &edges {
            let (ru, rv) = (sfind(&mut uf, u), sfind(&mut uf, v));
            assert_eq!(ru, rv, "forest misses connectivity of ({u},{v})");
        }
        // Representatives agree with the forest's components.
        for v in 0..n as u32 {
            let rep_forest = sfind(&mut uf, v);
            for w in 0..n as u32 {
                if c.representative[w as usize] == c.representative[v as usize] {
                    assert_eq!(sfind(&mut uf, w), rep_forest);
                }
            }
            if v > 200 {
                break; // spot-check a slice; full quadratic check is wasteful
            }
        }
    }

    #[test]
    fn empty_graph_components() {
        let c = cc(vec![], 5);
        assert_eq!(c.num_components, 5);
        assert!(c.tree_edges.is_empty());
    }
}
