//! The Schieber–Vishkin *Inlabel* machinery (paper §3.1, \[50\]).
//!
//! Every node `v` receives an **inlabel** — the number with the most
//! trailing zeros inside `v`'s preorder interval
//! `[pre(v), pre(v) + size(v) − 1]`. Inlabels satisfy two properties the
//! query procedure exploits (both checked by property tests):
//!
//! * **path partition** — equal-inlabel nodes form top-down paths;
//! * **inorder embedding** — viewing inlabels as inorder numbers of a full
//!   binary tree *B*, descendants map to descendants.
//!
//! Together with the **ascendant** bitsets (which bits of *B* appear on the
//! root path) and a **head** table (topmost node of each inlabel path),
//! a query resolves with O(1) word operations.
//!
//! Construction is O(1) per node given the Euler-tour statistics, so the
//! whole preprocessing is dominated by the tour itself — the paper's point.
//! Inlabels and heads are one kernel each. The ascendants follow the
//! *inlabel tree* (each path's head hangs below its parent's path) top
//! down: a head's parent path has an inlabel with strictly more trailing
//! zeros, because it is a proper *B*-ancestor. One launch per
//! trailing-zero level, from ⌊log₂ n⌋ down to 0, therefore only reads
//! finished entries, and since each value in `1..=n` has exactly one
//! trailing-zero count the sweep costs `n` work items in total
//! (see [`InlabelTables::from_stats_device`]).

use euler_tour::TreeStats;
use gpu_sim::device::SharedSlice;
use gpu_sim::Device;
use graph_core::ids::{NodeId, INVALID_NODE};
use rayon::prelude::*;

/// The preprocessed Schieber–Vishkin tables; [`InlabelTables::query`]
/// answers an LCA query in constant time.
#[derive(Debug, Clone)]
pub struct InlabelTables {
    /// Inlabel number of each node.
    pub inlabel: Vec<u32>,
    /// Ascendant bitset of each node.
    pub ascendant: Vec<u32>,
    /// Level (distance from root) of each node.
    pub level: Vec<u32>,
    /// Parent array (`INVALID_NODE` at the root).
    pub parent: Vec<NodeId>,
    /// `head[l]` = topmost node of the inlabel-`l` path (`INVALID_NODE` for
    /// absent inlabel values). Indexed `0..=n`.
    pub head: Vec<NodeId>,
}

/// `inlabel(v)` from the preorder number and subtree size (1-based preorder).
#[inline]
pub fn inlabel_of(pre: u32, size: u32) -> u32 {
    let i = pre;
    let j = pre + size - 1;
    // Highest bit where (i-1) and j differ marks the largest power of two
    // with a multiple inside [i, j]; clear everything below it.
    let k = 31 - ((i - 1) ^ j).leading_zeros();
    (j >> k) << k
}

/// Number of inlabel values `l = (2k+1)·2^t ≤ n`, the level-`t` work of
/// the ascendant sweep.
#[inline]
fn level_len(n: usize, t: u32) -> usize {
    (n >> t).div_ceil(2)
}

/// Level-`t` work item `k` of the ascendant sweep: sets `asc[l]` for
/// `l = (2k+1)·2^t` from the finished entry of its head's parent path,
/// and leaves it unwritten when no node carries inlabel `l`.
#[inline]
fn sweep_ascendant(
    k: usize,
    t: u32,
    head: &[NodeId],
    inlabel: &[u32],
    stats: &TreeStats,
    asc: &SharedSlice<'_, u32>,
) {
    let l = (2 * k + 1) << t;
    let h = head[l];
    if h == INVALID_NODE {
        return;
    }
    let above = match stats.parent[h as usize] {
        INVALID_NODE => 0,
        p => asc.read(inlabel[p as usize] as usize),
    };
    asc.write(l, (1 << t) | above);
}

impl InlabelTables {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.inlabel.len()
    }

    /// Sequential construction (single-core CPU baseline). Its preorder
    /// walk over the nodes shares no code with the level sweep of the
    /// parallel builders, so the tests use it as their oracle.
    pub fn from_stats_seq(stats: &TreeStats) -> Self {
        let n = stats.num_nodes();
        let inlabel: Vec<u32> = (0..n)
            .map(|v| inlabel_of(stats.preorder[v], stats.subtree_size[v]))
            .collect();

        // Heads of inlabel paths.
        let mut head = vec![INVALID_NODE; n + 1];
        for v in 0..n {
            let is_head = match stats.parent[v] {
                INVALID_NODE => true,
                p => inlabel[p as usize] != inlabel[v],
            };
            if is_head {
                head[inlabel[v] as usize] = v as NodeId;
            }
        }

        // Ascendants, walking nodes in preorder so parents come first.
        let mut by_preorder: Vec<u32> = vec![0; n];
        for v in 0..n {
            by_preorder[stats.preorder[v] as usize - 1] = v as u32;
        }
        let mut ascendant = vec![0u32; n];
        for &v in &by_preorder {
            let bit = 1u32 << inlabel[v as usize].trailing_zeros();
            ascendant[v as usize] = match stats.parent[v as usize] {
                INVALID_NODE => bit,
                p => ascendant[p as usize] | bit,
            };
        }

        Self {
            inlabel,
            ascendant,
            level: stats.level.clone(),
            parent: stats.parent.clone(),
            head,
        }
    }

    /// Multicore construction with plain rayon loops (OpenMP substitute):
    /// the same top-down level sweep as [`InlabelTables::from_stats_device`].
    pub fn from_stats_rayon(stats: &TreeStats) -> Self {
        let n = stats.num_nodes();
        let inlabel: Vec<u32> = (0..n)
            .into_par_iter()
            .map(|v| inlabel_of(stats.preorder[v], stats.subtree_size[v]))
            .collect();

        let mut head = vec![INVALID_NODE; n + 1];
        {
            // One head per inlabel value, so each slot has one writer.
            let head_shared = SharedSlice::new(&mut head);
            (0..n).into_par_iter().for_each(|v| {
                let is_head = match stats.parent[v] {
                    INVALID_NODE => true,
                    p => inlabel[p as usize] != inlabel[v],
                };
                if is_head {
                    head_shared.write(inlabel[v] as usize, v as NodeId);
                }
            });
        }

        let mut asc = vec![0u32; n + 1];
        {
            let asc_shared = SharedSlice::new(&mut asc);
            for t in (0..=n.ilog2()).rev() {
                (0..level_len(n, t)).into_par_iter().for_each(|k| {
                    sweep_ascendant(k, t, &head, &inlabel, stats, &asc_shared);
                });
            }
        }

        let ascendant: Vec<u32> = (0..n)
            .into_par_iter()
            .map(|v| asc[inlabel[v] as usize])
            .collect();

        Self {
            inlabel,
            ascendant,
            level: stats.level.clone(),
            parent: stats.parent.clone(),
            head,
        }
    }

    /// Device (GPU-sim) construction: the same O(1)-per-node kernels the
    /// paper runs as CUDA kernels.
    ///
    /// The ascendant bitsets come from one top-down sweep over the inlabel
    /// tree, one launch per trailing-zero level `t = ⌊log₂ n⌋ … 0`. Level
    /// `t` covers the values `l = (2k+1)·2^t ≤ n` and sets
    /// `asc[l] = 2^t | asc[inlabel(parent(head[l]))]` (just `2^t` at the
    /// root's path). The head's parent lies on a path whose inlabel is a
    /// proper ancestor of `l` in *B*, so its trailing-zero count is larger
    /// and its entry was finished by an earlier level. Every value in
    /// `1..=n` belongs to exactly one level, so the sweep is `n` work items
    /// in `⌊log₂ n⌋ + 1` launches. Only head-bearing entries are ever read
    /// (every inlabel value that occurs has a head), so the pooled `asc`
    /// buffer needs no fill; `EMG_SANITIZE=full` checks that claim.
    pub fn from_stats_device(device: &Device, stats: &TreeStats) -> Self {
        let n = stats.num_nodes();
        let mut inlabel = vec![0u32; n];
        {
            let _k = device.kernel_label("inlabel_compute");
            // Preorder and subtree sizes feed the closure.
            device.capture_read(&stats.preorder);
            device.capture_read(&stats.subtree_size);
            device.map(&mut inlabel, |v| {
                inlabel_of(stats.preorder[v], stats.subtree_size[v])
            });
        }

        let mut head = vec![INVALID_NODE; n + 1];
        {
            let _k = device.kernel_label("inlabel_heads");
            // One head per inlabel value, so each slot has one writer.
            device.capture_read(&inlabel);
            device.capture_read(&stats.parent);
            let head_shared = device.shared(&mut head);
            let inlabel_ref = &inlabel;
            device.for_each(n, |v| {
                let is_head = match stats.parent[v] {
                    INVALID_NODE => true,
                    p => inlabel_ref[p as usize] != inlabel_ref[v],
                };
                if is_head {
                    head_shared.write(inlabel_ref[v] as usize, v as NodeId);
                }
            });
        }

        // Ascendant bits per inlabel value, level by level from the top.
        let mut asc = device.alloc_pooled::<u32>(n + 1);
        {
            let _k = device.kernel_label("inlabel_ascendant_level");
            let asc_shared = device.shared(&mut asc);
            for t in (0..=n.ilog2()).rev() {
                // The head, inlabel and parent tables feed the closure.
                device.capture_read(&head);
                device.capture_read(&inlabel);
                device.capture_read(&stats.parent);
                device.for_each(level_len(n, t), |k| {
                    sweep_ascendant(k, t, &head, &inlabel, stats, &asc_shared);
                });
            }
        }

        let mut ascendant = vec![0u32; n];
        {
            let _k = device.kernel_label("inlabel_ascendant");
            device.capture_read(&inlabel);
            // Through the tracked view, so initcheck sees every read.
            let asc_shared = device.shared(&mut asc);
            device.map(&mut ascendant, |v| asc_shared.read(inlabel[v] as usize));
        }

        Self {
            inlabel,
            ascendant,
            level: stats.level.clone(),
            parent: stats.parent.clone(),
            head,
        }
    }

    /// The O(1) Schieber–Vishkin query.
    #[inline]
    pub fn query(&self, x: NodeId, y: NodeId) -> NodeId {
        let ix = self.inlabel[x as usize];
        let iy = self.inlabel[y as usize];
        if ix == iy {
            // Same inlabel path: the shallower node is the ancestor.
            return if self.level[x as usize] <= self.level[y as usize] {
                x
            } else {
                y
            };
        }
        // Highest bit where the inlabels differ.
        let i = 31 - (ix ^ iy).leading_zeros();
        // Lowest common ascendant bit at position >= i gives the inlabel of
        // the LCA's path.
        let common = (self.ascendant[x as usize] & self.ascendant[y as usize]) >> i << i;
        let j = common.trailing_zeros();
        let inlabel_z = ((((ix as u64) >> (j + 1)) << (j + 1)) | (1u64 << j)) as u32;

        let zx = self.lowest_ancestor_on_path(x, inlabel_z, j);
        let zy = self.lowest_ancestor_on_path(y, inlabel_z, j);
        if self.level[zx as usize] <= self.level[zy as usize] {
            zx
        } else {
            zy
        }
    }

    /// Answers a batch of LCA queries in one device launch: one virtual
    /// thread per `(x, y)` pair, each running the O(1) [`query`] kernel.
    ///
    /// This is the batch entry point shared by [`crate::GpuInlabelLca`]
    /// and the `emg serve` daemon's request coalescer — both dispatch a
    /// whole queue of queries as a single `lca_query_batch` launch, which
    /// is what makes the inlabel scheme embarrassingly batchable.
    ///
    /// [`query`]: InlabelTables::query
    ///
    /// # Panics
    /// Panics if `out.len() != queries.len()` or a node id is out of
    /// range.
    pub fn query_batch_on(&self, device: &Device, queries: &[(u32, u32)], out: &mut [u32]) {
        assert_eq!(queries.len(), out.len(), "query/output length mismatch");
        let _k = device.kernel_label("lca_query_batch");
        // Queries and every Schieber–Vishkin table feed the closure.
        device.capture_read(queries);
        device.capture_read(&self.inlabel);
        device.capture_read(&self.ascendant);
        device.capture_read(&self.level);
        device.capture_read(&self.parent);
        device.capture_read(&self.head);
        device.map(out, |q| {
            let (x, y) = queries[q];
            self.query(x, y)
        });
    }

    /// Lowest ancestor of `x` lying on the inlabel path `inlabel_z`
    /// (whose trailing-zero count is `j`).
    #[inline]
    fn lowest_ancestor_on_path(&self, x: NodeId, inlabel_z: u32, j: u32) -> NodeId {
        let ix = self.inlabel[x as usize];
        if ix == inlabel_z {
            return x;
        }
        // Highest ascendant bit of x strictly below j identifies the
        // inlabel path of x's ancestry just below the z-path.
        let below = self.ascendant[x as usize] & ((1u64 << j) - 1) as u32;
        let k = 31 - below.leading_zeros();
        let inlabel_w = ((((ix as u64) >> (k + 1)) << (k + 1)) | (1u64 << k)) as u32;
        let w = self.head[inlabel_w as usize];
        self.parent[w as usize]
    }

    /// Checks the two structural properties of inlabel numbers (test
    /// support; O(n) plus O(n) ancestor hops).
    pub fn check_structural_properties(&self, stats: &TreeStats) -> Result<(), String> {
        let n = self.num_nodes();
        // Path partition: the nodes with inlabel l must form a path; i.e.
        // each non-head node's parent shares its inlabel, and per inlabel
        // value levels are consecutive starting at the head.
        let mut count = vec![0u32; n + 1];
        for v in 0..n {
            count[self.inlabel[v] as usize] += 1;
        }
        for v in 0..n {
            let l = self.inlabel[v] as usize;
            let h = self.head[l];
            if h == INVALID_NODE {
                return Err(format!("inlabel {l} has nodes but no head"));
            }
            let offset = self.level[v] as i64 - self.level[h as usize] as i64;
            if offset < 0 || offset >= count[l] as i64 {
                return Err(format!(
                    "node {v} level offset {offset} outside path of {} nodes",
                    count[l]
                ));
            }
        }
        // Inorder embedding: inlabel(child) must be a B-descendant of
        // inlabel(parent): with t = tz(inlabel(parent)), the child's inlabel
        // must share all bits above t and lie in the parent's B-interval.
        for v in 0..n {
            if stats.parent[v] == INVALID_NODE {
                continue;
            }
            let p = stats.parent[v] as usize;
            let iv = self.inlabel[v] as u64;
            let ip = self.inlabel[p] as u64;
            let t = ip.trailing_zeros();
            let lo = ip - (1 << t) + 1;
            let hi = ip + (1 << t) - 1;
            if !(lo..=hi).contains(&iv) {
                return Err(format!(
                    "inlabel({v}) = {iv} escapes B-subtree [{lo},{hi}] of parent inlabel {ip}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euler_tour::cpu::sequential_stats;
    use graph_core::Tree;

    fn tables_for(parents: Vec<u32>) -> (InlabelTables, TreeStats) {
        let tree = Tree::from_parent_array(parents, 0).unwrap();
        let stats = sequential_stats(&tree);
        (InlabelTables::from_stats_seq(&stats), stats)
    }

    #[test]
    fn inlabel_formula_basics() {
        // Root of an n=6 tree: interval [1,6] → inlabel 4.
        assert_eq!(inlabel_of(1, 6), 4);
        // Leaf at preorder 5: interval [5,5] → 5.
        assert_eq!(inlabel_of(5, 1), 5);
        // Interval [3,4] contains 4 (tz=2 beats tz=0).
        assert_eq!(inlabel_of(3, 2), 4);
        // Interval [5,7]: 6 has tz=1.
        assert_eq!(inlabel_of(5, 3), 6);
        // Full tree of 7: [1,7] → 4.
        assert_eq!(inlabel_of(1, 7), 4);
    }

    #[test]
    fn paper_tree_structural_properties() {
        let (tables, stats) = tables_for(vec![INVALID_NODE, 2, 0, 0, 0, 2]);
        tables.check_structural_properties(&stats).unwrap();
    }

    #[test]
    fn path_tree_queries() {
        let n = 64;
        let mut parents = vec![0u32; n];
        parents[0] = INVALID_NODE;
        for (v, p) in parents.iter_mut().enumerate().skip(1) {
            *p = v as u32 - 1;
        }
        let (tables, _) = tables_for(parents);
        for x in 0..n as u32 {
            for y in 0..n as u32 {
                assert_eq!(tables.query(x, y), x.min(y), "query({x},{y})");
            }
        }
    }

    #[test]
    fn star_tree_queries() {
        let n = 50;
        let mut parents = vec![0u32; n];
        parents[0] = INVALID_NODE;
        let (tables, _) = tables_for(parents);
        for x in 1..n as u32 {
            for y in 1..n as u32 {
                let expected = if x == y { x } else { 0 };
                assert_eq!(tables.query(x, y), expected);
            }
        }
        assert_eq!(tables.query(0, 7), 0);
    }

    /// Brute-force LCA by walking parents.
    fn brute(stats: &TreeStats, mut x: u32, mut y: u32) -> u32 {
        while stats.level[x as usize] > stats.level[y as usize] {
            x = stats.parent[x as usize];
        }
        while stats.level[y as usize] > stats.level[x as usize] {
            y = stats.parent[y as usize];
        }
        while x != y {
            x = stats.parent[x as usize];
            y = stats.parent[y as usize];
        }
        x
    }

    #[test]
    fn exhaustive_small_increasing_trees() {
        // All increasing-parent trees on 7 nodes: parent[v] ∈ [0, v).
        // 6! = 720 trees, all 49 query pairs each.
        fn rec(parents: &mut Vec<u32>, v: usize, n: usize, tested: &mut u64) {
            if v == n {
                let tree = Tree::from_parent_array(parents.clone(), 0).unwrap();
                let stats = sequential_stats(&tree);
                let tables = InlabelTables::from_stats_seq(&stats);
                tables.check_structural_properties(&stats).unwrap();
                for x in 0..n as u32 {
                    for y in 0..n as u32 {
                        assert_eq!(
                            tables.query(x, y),
                            brute(&stats, x, y),
                            "tree {parents:?} query ({x},{y})"
                        );
                    }
                }
                *tested += 1;
                return;
            }
            for p in 0..v {
                parents.push(p as u32);
                rec(parents, v + 1, n, tested);
                parents.pop();
            }
        }
        let mut parents = vec![INVALID_NODE];
        let mut tested = 0;
        rec(&mut parents, 1, 7, &mut tested);
        assert_eq!(tested, 720);
    }

    #[test]
    fn random_trees_match_brute_force() {
        let mut state = 2024u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for n in [100usize, 1000, 5000] {
            let mut parents = vec![INVALID_NODE; n];
            for (v, p) in parents.iter_mut().enumerate().skip(1) {
                *p = (step() % v as u64) as u32;
            }
            let tree = Tree::from_parent_array(parents, 0).unwrap();
            let stats = sequential_stats(&tree);
            let tables = InlabelTables::from_stats_seq(&stats);
            for _ in 0..500 {
                let x = (step() % n as u64) as u32;
                let y = (step() % n as u64) as u32;
                assert_eq!(tables.query(x, y), brute(&stats, x, y));
            }
        }
    }

    /// Parent array of one of the table test's shapes on `n` nodes, rooted
    /// at 0 (`random_tree` is built apart: its labels are permuted).
    fn shape_parents(shape: &str, n: usize) -> Vec<u32> {
        let mut state = 0x1234_5678u64 ^ n as u64;
        let mut step = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let spine = n.div_ceil(2);
        let mut parents = vec![INVALID_NODE; n];
        for (v, p) in parents.iter_mut().enumerate().skip(1) {
            *p = match shape {
                "path" => v - 1,
                "star" => 0,
                // A path of ⌈n/2⌉ nodes, each carrying one leg.
                "caterpillar" if v < spine => v - 1,
                "caterpillar" => v - spine,
                "complete_binary" => (v - 1) / 2,
                "random_recursive" => (step() % v as u64) as usize,
                other => unreachable!("unknown shape {other}"),
            } as u32;
        }
        parents
    }

    /// The device and rayon builders match the sequential oracle bit for
    /// bit at the level sweep's boundaries: sizes around 2^11
    /// (`seq_threshold`), 2^12 (the block size) and 2^13, where the top
    /// level gains a launch, on shapes from a path (one inlabel path per
    /// power of two) to a star (every leaf its own path).
    #[test]
    fn all_backends_build_identical_tables() {
        let device = Device::new();
        let mut sizes = vec![1usize, 2, 3];
        for k in [11, 12, 13] {
            sizes.extend([(1usize << k) - 1, 1 << k, (1 << k) + 1]);
        }
        let shapes = [
            "path",
            "star",
            "caterpillar",
            "complete_binary",
            "random_recursive",
            "random_tree_grasp_1000",
        ];
        for &n in &sizes {
            for shape in shapes {
                let tree = if shape == "random_tree_grasp_1000" {
                    graphgen::random_tree(n, Some(1000), n as u64)
                } else {
                    Tree::from_parent_array(shape_parents(shape, n), 0).unwrap()
                };
                let stats = sequential_stats(&tree);
                let seq = InlabelTables::from_stats_seq(&stats);
                let rayon = InlabelTables::from_stats_rayon(&stats);
                let dev = InlabelTables::from_stats_device(&device, &stats);
                for (name, t) in [("rayon", &rayon), ("device", &dev)] {
                    let case = format!("{name}, {shape}, n = {n}");
                    assert_eq!(t.inlabel, seq.inlabel, "inlabel: {case}");
                    assert_eq!(t.ascendant, seq.ascendant, "ascendant: {case}");
                    assert_eq!(t.head, seq.head, "head: {case}");
                    assert_eq!(t.level, seq.level, "level: {case}");
                    assert_eq!(t.parent, seq.parent, "parent: {case}");
                }
            }
        }
    }

    #[test]
    fn single_node_tree_query() {
        let (tables, _) = tables_for(vec![INVALID_NODE]);
        assert_eq!(tables.query(0, 0), 0);
    }

    #[test]
    fn self_queries_return_self() {
        let (tables, _) = tables_for(vec![INVALID_NODE, 0, 0, 1, 1, 2]);
        for v in 0..6u32 {
            assert_eq!(tables.query(v, v), v);
        }
    }
}
