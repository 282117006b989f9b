//! List ranking: computing, for every element of a linked list, its distance
//! from the head.
//!
//! This is the one genuinely list-shaped computation the Euler tour
//! technique cannot avoid (§2.2). Three implementations:
//!
//! * [`rank_sequential`] — the obvious walk; oracle and single-core baseline.
//! * [`rank_wyllie`] — classical pointer jumping: O(log n) rounds but
//!   O(n log n) total work.
//! * [`rank_wei_jaja`] — the GPU-optimized algorithm of Wei and JáJá \[64\]
//!   (a Helman–JáJá descendant): split the list into many sublists at
//!   splitter elements, walk each sublist sequentially in parallel, rank the
//!   tiny list-of-sublists, broadcast. O(n) work, O(n/s + s) depth.
//!
//! The paper reports that on GPUs array scans are 7–8× faster than list
//! ranking, which motivates ranking **once** and scanning arrays thereafter;
//! the `ablations` experiment (`crates/bench`) times that comparison, with
//! all three rankers on the same tour list.
//!
//! Every ranker also reports whether the list was **one path over every
//! element**, from work it does anyway: the sequential walk counts what it
//! visits, Wyllie watches every pointer reach the end, and Wei–JáJá's
//! phase 2 checks that its chain of sublists terminates after exactly `n`
//! elements. A list whose edges touch every node but are not a spanning
//! tree fails that test, so [`crate::EulerTour`] rejects such inputs from the
//! verdict without a pass of its own. On `false` the output is unspecified.

use crate::list::{EulerList, NIL};
use gpu_sim::Device;

/// Which list-ranking algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ranker {
    /// Sequential walk (single-core baseline).
    Sequential,
    /// Wyllie pointer jumping — O(n log n) work.
    Wyllie,
    /// Wei–JáJá sublist ranking — O(n) work (the paper's choice).
    #[default]
    WeiJaJa,
}

/// Ranks `list` with the chosen algorithm: `rank[e]` = position of
/// half-edge `e` on the tour, `0` for the head. `None` when the list is
/// not one path over every half-edge.
pub fn rank(device: &Device, list: &EulerList, ranker: Ranker) -> Option<Vec<u32>> {
    let mut out = vec![0u32; list.len()];
    device.capture_fresh(&out[..]);
    rank_into(device, list, ranker, &mut out).then_some(out)
}

/// [`rank`] into a caller buffer — with the round/scratch buffers drawn
/// from the device arena, repeated rankings allocate nothing at steady
/// state. Returns whether the list was one path over every element.
///
/// # Panics
/// Panics if `out.len() != list.len()`.
#[must_use]
pub fn rank_into(device: &Device, list: &EulerList, ranker: Ranker, out: &mut [u32]) -> bool {
    assert_eq!(out.len(), list.len(), "rank: output length mismatch");
    match ranker {
        Ranker::Sequential => {
            // The walk runs on the host: a host node that reads `succ`
            // and writes the ranks.
            device.capture_host_read(&list.succ);
            device.capture_host_write(out);
            rank_sequential_into(list, out)
        }
        Ranker::Wyllie => rank_wyllie_into(device, list, out),
        Ranker::WeiJaJa => rank_wei_jaja_into(device, list, out),
    }
}

/// Weighted prefix sums *directly on the successor list* — the naive PRAM
/// approach the paper's §2.2 optimization replaces.
///
/// Computes, for every half-edge `e`, the inclusive prefix sum of
/// `weights` from the list head to `e`, by weighted pointer jumping
/// (Wyllie scheme): O(n log n) work per statistic. The paper's pipeline
/// instead pays one list ranking and then uses O(n)-work array scans for
/// every statistic; the `ablations` experiment (`crates/bench`) times the
/// gap with exactly this function as the strawman.
///
/// # Panics
/// Panics if `weights.len() != list.len()`.
pub fn list_prefix_sum(device: &Device, list: &EulerList, weights: &[i64]) -> Vec<i64> {
    let n = list.len();
    assert_eq!(weights.len(), n, "list_prefix_sum: weight length mismatch");
    if n == 0 {
        return Vec::new();
    }
    // sum[e] = total weight of the path e..tail (inclusive suffix sum),
    // computed by pointer jumping; prefix[e] = total − sum[e] + w[e].
    // Round buffers come from the device arena.
    let mut sum = device.alloc_copied(weights);
    let mut next = device.alloc_copied(&list.succ);
    let mut sum_new = device.alloc_pooled::<i64>(n);
    let mut next_new = device.alloc_pooled::<u32>(n);
    let max_rounds = (usize::BITS - (n - 1).leading_zeros()) as usize + 1;
    for _ in 0..max_rounds {
        {
            let _k = device.kernel_label("list_prefix_jump_sum");
            device.capture_read(&next[..]);
            device.capture_read(&sum[..]);
            device.map(&mut sum_new, |e| {
                let nx = next[e];
                if nx == NIL {
                    sum[e]
                } else {
                    sum[e] + sum[nx as usize]
                }
            });
        }
        {
            let _k = device.kernel_label("list_prefix_jump_next");
            device.capture_read(&next[..]);
            device.map(&mut next_new, |e| {
                let nx = next[e];
                if nx == NIL {
                    NIL
                } else {
                    next[nx as usize]
                }
            });
        }
        std::mem::swap(&mut sum, &mut sum_new);
        std::mem::swap(&mut next, &mut next_new);
        if device.reduce_min_u32(&next) == NIL {
            break;
        }
    }
    device.capture_host_read(&sum[..]);
    let total = sum[list.head as usize];
    let mut prefix = vec![0i64; n];
    {
        let _k = device.kernel_label("list_prefix_combine");
        device.capture_read(&sum[..]);
        device.capture_read(weights);
        device.map(&mut prefix, |e| total - sum[e] + weights[e]);
    }
    prefix
}

/// Sequential list ranking by walking the successor pointers; `None` when
/// the list is not one path over every element.
pub fn rank_sequential(list: &EulerList) -> Option<Vec<u32>> {
    let mut rank = vec![0u32; list.len()];
    rank_sequential_into(list, &mut rank).then_some(rank)
}

/// [`rank_sequential`] into a caller buffer. Returns whether the walk
/// from the head reached the end after visiting exactly `n` elements.
///
/// # Panics
/// Panics if `out.len() != list.len()`.
#[must_use]
pub fn rank_sequential_into(list: &EulerList, out: &mut [u32]) -> bool {
    assert_eq!(out.len(), list.len(), "rank: output length mismatch");
    let n = list.len();
    let mut e = list.head;
    let mut r = 0usize;
    // A broken list (non-spanning edge set) reaches the end early; the
    // bound keeps a walk that never reaches it finite.
    while e != NIL && r < n {
        out[e as usize] = r as u32;
        r += 1;
        e = list.succ[e as usize];
    }
    e == NIL && r == n
}

/// Wyllie's pointer-jumping list ranking; `None` when the list is not one
/// path over every element.
///
/// Each element tracks its distance to the list end; every round doubles the
/// jump length. Double-buffered so rounds are bulk-synchronous kernels.
pub fn rank_wyllie(device: &Device, list: &EulerList) -> Option<Vec<u32>> {
    let mut rank = vec![0u32; list.len()];
    rank_wyllie_into(device, list, &mut rank).then_some(rank)
}

/// [`rank_wyllie`] into a caller buffer; the four round buffers come from
/// the device arena, so repeated rankings allocate nothing at steady state.
///
/// Returns whether every pointer reached the end within the round bound.
/// An Euler list's successors are a permutation with one link cut, so
/// that holds exactly when no cycle is left beside the one path.
///
/// # Panics
/// Panics if `out.len() != list.len()`.
#[must_use]
pub fn rank_wyllie_into(device: &Device, list: &EulerList, out: &mut [u32]) -> bool {
    assert_eq!(out.len(), list.len(), "rank: output length mismatch");
    let n = list.len();
    if n == 0 {
        return true;
    }
    // dist[e] = number of hops from e to the end of the list (tail = 0).
    let mut dist = {
        let _k = device.kernel_label("wyllie_init_dist");
        device.capture_read(&list.succ);
        device.alloc_pooled_map(n, |e| u32::from(list.succ[e] != NIL))
    };
    let mut next = device.alloc_copied(&list.succ);

    let mut dist_new = device.alloc_pooled::<u32>(n);
    let mut next_new = device.alloc_pooled::<u32>(n);
    // ⌈log₂ n⌉ + 1 rounds suffice for a valid list; the hard bound keeps the
    // loop finite on broken (non-spanning) inputs, whose cycles never
    // reach the end.
    let max_rounds = (usize::BITS - (n - 1).leading_zeros()) as usize + 1;
    let mut converged = false;
    for _round in 0..max_rounds {
        // One jump round: rank/next double-buffered to keep the kernel pure.
        {
            let _k = device.kernel_label("wyllie_jump_dist");
            device.capture_read(&next[..]);
            device.capture_read(&dist[..]);
            device.map(&mut dist_new, |e| {
                let nx = next[e];
                if nx == NIL {
                    dist[e]
                } else {
                    dist[e] + dist[nx as usize]
                }
            });
        }
        {
            let _k = device.kernel_label("wyllie_jump_next");
            device.capture_read(&next[..]);
            device.map(&mut next_new, |e| {
                let nx = next[e];
                if nx == NIL {
                    NIL
                } else {
                    next[nx as usize]
                }
            });
        }
        std::mem::swap(&mut dist, &mut dist_new);
        std::mem::swap(&mut next, &mut next_new);
        // Converged when every pointer reached the end; NIL == u32::MAX, so
        // the minimum equals NIL exactly when all entries are NIL.
        if device.reduce_min_u32(&next) == NIL {
            converged = true;
            break;
        }
    }
    if !converged {
        return false;
    }
    // rank from head = (n - 1) - dist_to_tail.
    let dist = &dist;
    {
        let _k = device.kernel_label("wyllie_final_rank");
        device.capture_read(&dist[..]);
        device.map(out, |e| (n as u32 - 1) - dist[e]);
    }
    true
}

/// Default Wei–JáJá sublist-count target for a list of `n` elements.
///
/// Scales with the device rather than a fixed constant: the floor keeps
/// every pool worker (and every claimable grid block) supplied with
/// several sublists for load balance; the ceiling caps the sequential
/// phase-2 walk at a few thousand entries *per worker*, so narrow devices
/// are not charged the sequential cost sized for wide ones. The `n / 64`
/// sweet spot between the bounds matches the \[64\] guidance of keeping
/// sublists tens of elements long.
pub fn default_sublist_target(device: &Device, n: usize) -> usize {
    if n == 0 {
        return 1;
    }
    let workers = device.worker_threads().max(1);
    let blocks = device.grid_blocks(n).max(1);
    let floor = usize::max(workers * 8, blocks * 4);
    let ceil = usize::max(floor, (workers * 4096).min(1 << 16));
    (n / 64).clamp(floor, ceil).min(n)
}

/// Wei–JáJá GPU-optimized list ranking (Helman–JáJá sublist scheme);
/// `None` when the list is not one path over every element.
pub fn rank_wei_jaja(device: &Device, list: &EulerList) -> Option<Vec<u32>> {
    let mut rank = vec![0u32; list.len()];
    rank_wei_jaja_into(device, list, &mut rank).then_some(rank)
}

/// [`rank_wei_jaja`] into a caller buffer; all phase buffers come from the
/// device arena (zero allocation at steady state). Returns whether the
/// list was one path over every element.
///
/// # Panics
/// Panics if `out.len() != list.len()`.
#[must_use]
pub fn rank_wei_jaja_into(device: &Device, list: &EulerList, out: &mut [u32]) -> bool {
    assert_eq!(out.len(), list.len(), "rank: output length mismatch");
    let n = list.len();
    if n == 0 {
        return true;
    }
    // Small lists gain nothing from the machinery.
    if n <= device.config().seq_threshold {
        return rank_sequential_into(list, out);
    }
    let s_target = default_sublist_target(device, n);
    rank_wei_jaja_with_sublists_into(device, list, s_target, out)
}

/// [`rank_wei_jaja_into`] with an explicit sublist-count target — the
/// tuning knob of \[64\] (too few sublists starve workers, too many
/// inflate the sequential phase 2). Returns phase 2's verdict: whether the
/// chain of sublists from the head terminated after exactly `n` elements.
///
/// # Panics
/// Panics if `out.len() != list.len()`.
#[must_use]
pub fn rank_wei_jaja_with_sublists_into(
    device: &Device,
    list: &EulerList,
    s_target: usize,
    out: &mut [u32],
) -> bool {
    assert_eq!(out.len(), list.len(), "rank: output length mismatch");
    let n = list.len();
    if n == 0 {
        return true;
    }
    let s_target = s_target.clamp(1, n);

    // Splitters: the head plus elements spread over the id space with a
    // multiplicative-hash stride (id order is uncorrelated with tour order,
    // which is what the randomized selection in [64] needs).
    let stride = (n / s_target).max(1);
    let mut is_splitter = device.alloc_filled(n, 0u8);
    is_splitter[list.head as usize] = 1;
    let mut splitters = device.alloc_pooled::<u32>(n.div_ceil(stride) + 1);
    splitters[0] = list.head;
    let mut s = 1usize;
    for k in (0..n).step_by(stride) {
        let e = ((k as u64).wrapping_mul(0x9E3779B97F4A7C15) % n as u64) as u32;
        if is_splitter[e as usize] == 0 {
            is_splitter[e as usize] = 1;
            splitters[s] = e;
            s += 1;
        }
    }
    splitters.truncate(s);

    // Phase 1 (parallel over sublists): walk from each splitter to the next
    // splitter (or the list end), recording local ranks and the sublist id.
    // On a valid list the walks partition 0..n, overwriting every entry —
    // the n-sized buffers need no initialization pass. Broken inputs are
    // detected after phase 2, before phase 3 would read them, so the
    // unwritten (pool-recycled) entries are never exposed.
    let mut local_rank = device.alloc_pooled::<u32>(n);
    let mut sublist_of = device.alloc_pooled::<u32>(n);
    let mut sublist_next = device.alloc_filled(s, NIL); // following sublist's splitter
    let mut sublist_len = device.alloc_filled(s, 0u32);
    {
        let _k = device.kernel_label("rank_sublist_walk");
        // Closure-side inputs: splitter ids/flags and the successor list.
        device.capture_read(&splitters[..]);
        device.capture_read(&is_splitter[..]);
        device.capture_read(&list.succ);
        // Sublists partition the list; each element belongs to exactly one
        // walking thread, and slot k of next/len belongs to thread k.
        let local_shared = device.shared(&mut local_rank);
        let sub_shared = device.shared(&mut sublist_of);
        let next_shared = device.shared(&mut sublist_next);
        let len_shared = device.shared(&mut sublist_len);
        let splitters_ref = &splitters;
        let is_splitter_ref = &is_splitter;
        device.for_each(s, |k| {
            let mut e = splitters_ref[k];
            let mut r = 0u32;
            loop {
                local_shared.write(e as usize, r);
                sub_shared.write(e as usize, k as u32);
                r += 1;
                let nx = list.succ[e as usize];
                if nx == NIL {
                    next_shared.write(k, NIL);
                    len_shared.write(k, r);
                    return;
                }
                if is_splitter_ref[nx as usize] == 1 {
                    next_shared.write(k, nx);
                    len_shared.write(k, r);
                    return;
                }
                e = nx;
            }
        });
    }

    // Phase 2 (sequential, s elements): accumulate sublist offsets in tour
    // order by hopping from the head's sublist through `sublist_next`.
    // Only splitter slots are ever read, and the loop below writes all of
    // them — the pooled buffer needs no initialization pass.
    device.capture_host_read(&sublist_next[..]);
    device.capture_host_read(&sublist_len[..]);
    let mut splitter_to_sublist = device.alloc_pooled::<u32>(n);
    for (k, &sp) in splitters.iter().enumerate() {
        splitter_to_sublist[sp as usize] = k as u32;
    }
    let mut offset = device.alloc_filled(s, 0u32);
    let mut cur = 0usize; // sublist of the head (splitters[0] == head)
    let mut acc = 0u32;
    let mut terminated = false;
    // The chain visits each sublist at most once on any input whose walk
    // structure is sound: `sublist_next` is a function, so a revisit
    // would cycle forever. Bounding the hops at `s` turns that malformed
    // case into deterministic rejection instead of a hang.
    for _ in 0..s {
        offset[cur] = acc;
        acc += sublist_len[cur];
        let nxt = sublist_next[cur];
        if nxt == NIL {
            terminated = true;
            break;
        }
        cur = splitter_to_sublist[nxt as usize] as usize;
    }
    // Validity check. On a valid list the chain terminates and the walks
    // it strings together are pairwise disjoint with total length n —
    // i.e. they covered every element exactly once (a terminating chain
    // visits distinct sublists; two chain walks sharing an element would
    // give two chain sublists the same successor, forcing a revisit and
    // hence non-termination; and full disjoint coverage leaves no
    // splitter outside the chain). Anything else means the successor
    // structure is broken (non-spanning input): report it, leaving `out`
    // untouched rather than combining what the pooled phase buffers held.
    if !terminated || acc as usize != n {
        return false;
    }

    // Phase 3 (parallel): final rank = sublist offset + local rank.
    let offset = &offset;
    let sublist_of = &sublist_of;
    let local_rank = &local_rank;
    {
        let _k = device.kernel_label("rank_combine");
        device.capture_read(&offset[..]);
        device.capture_read(&sublist_of[..]);
        device.capture_read(&local_rank[..]);
        device.map(out, |e| offset[sublist_of[e] as usize] + local_rank[e]);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::EulerList;

    /// Builds an Euler list for a deterministic pseudo-random tree.
    fn random_tree_list(device: &Device, n: usize, seed: u64) -> EulerList {
        let mut state = seed;
        let mut step = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let edges: Vec<(u32, u32)> = (1..n as u64)
            .map(|v| ((step() % v) as u32, v as u32))
            .collect();
        EulerList::build(device, n, &edges, 0).unwrap()
    }

    fn assert_ranks_match(list: &EulerList, rank: &[u32]) {
        let reference = rank_sequential(list).unwrap();
        assert_eq!(rank, &reference[..]);
    }

    #[test]
    fn sequential_ranks_are_positions() {
        let device = Device::new();
        let list = random_tree_list(&device, 100, 7);
        let rank = rank_sequential(&list).unwrap();
        let order = list.iter_order();
        for (pos, &e) in order.iter().enumerate() {
            assert_eq!(rank[e as usize] as usize, pos);
        }
    }

    #[test]
    fn wyllie_matches_sequential() {
        let device = Device::new();
        for n in [2usize, 3, 17, 1000, 20_000] {
            let list = random_tree_list(&device, n, n as u64);
            let rank = rank_wyllie(&device, &list).unwrap();
            assert_ranks_match(&list, &rank);
        }
    }

    #[test]
    fn wei_jaja_matches_sequential() {
        let device = Device::new();
        for n in [2usize, 3, 17, 1000, 20_000, 100_000] {
            let list = random_tree_list(&device, n, 3 * n as u64 + 1);
            let rank = rank_wei_jaja(&device, &list).unwrap();
            assert_ranks_match(&list, &rank);
        }
    }

    #[test]
    fn wei_jaja_on_path_tree() {
        // Path trees produce the most skewed tour structure.
        let device = Device::new();
        let n = 30_000usize;
        let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (v - 1, v)).collect();
        let list = EulerList::build(&device, n, &edges, 0).unwrap();
        let rank = rank_wei_jaja(&device, &list).unwrap();
        assert_ranks_match(&list, &rank);
    }

    #[test]
    fn wei_jaja_work_is_linear_wyllie_is_not() {
        // Compare device work counters: Wyllie performs Θ(n log n) work,
        // Wei–JáJá Θ(n). At n = 2^17 the gap must exceed 4×.
        let device = Device::new();
        let list = random_tree_list(&device, 1 << 16, 42);

        let before = device.metrics().snapshot();
        let _ = rank_wei_jaja(&device, &list);
        let wj = device.metrics().snapshot().since(&before);

        let before = device.metrics().snapshot();
        let _ = rank_wyllie(&device, &list);
        let wy = device.metrics().snapshot().since(&before);

        assert!(
            wy.work_items > 4 * wj.work_items,
            "Wyllie work {} should exceed 4x Wei-JaJa work {}",
            wy.work_items,
            wj.work_items
        );
    }

    #[test]
    fn wei_jaja_correct_for_extreme_sublist_counts() {
        let device = Device::new();
        let list = random_tree_list(&device, 4000, 5);
        let expected = rank_sequential(&list);
        for s in [1usize, 2, 17, 4000, usize::MAX] {
            let mut got = vec![0u32; list.len()];
            let one_path = rank_wei_jaja_with_sublists_into(&device, &list, s, &mut got);
            assert_eq!(one_path.then_some(got), expected, "s={s}");
        }
    }

    #[test]
    fn default_sublist_target_scales_with_workers() {
        use gpu_sim::DeviceConfig;
        let n = 1 << 20;
        let mut last_target = 0usize;
        for workers in [1usize, 2, 4, 8] {
            let device = Device::with_config(DeviceConfig {
                threads: Some(workers),
                ..Default::default()
            });
            let target = default_sublist_target(&device, n);
            // Floor: several sublists per worker and per grid block.
            assert!(
                target >= workers * 8,
                "workers={workers}: target {target} starves the pool"
            );
            assert!(target >= device.grid_blocks(n) * 4);
            // Ceiling: the sequential phase 2 stays proportional to the
            // device width (≤ 4096 entries per worker, ≤ 2^16 overall).
            assert!(
                target <= (workers * 4096).min(1 << 16).max(workers * 8),
                "workers={workers}: target {target} overloads phase 2"
            );
            assert!(target <= n);
            // Monotone: wider devices never get fewer sublists.
            assert!(
                target >= last_target,
                "target must not shrink as workers grow ({last_target} -> {target})"
            );
            last_target = target;

            // And the choice must still rank correctly at every width.
            let list = random_tree_list(&device, 50_000, 77);
            let got = rank_wei_jaja(&device, &list);
            assert_eq!(got, rank_sequential(&list), "workers={workers}");
        }
        // Degenerate sizes stay in range.
        let device = Device::new();
        assert_eq!(default_sublist_target(&device, 0), 1);
        for n in [1usize, 5, 100] {
            let t = default_sublist_target(&device, n);
            assert!((1..=n).contains(&t), "n={n} target {t}");
        }
    }

    #[test]
    fn into_variants_match_allocating() {
        let device = Device::new();
        let list = random_tree_list(&device, 30_000, 21);
        let expect = rank_sequential(&list).unwrap();
        let mut out = vec![0u32; list.len()];
        assert!(rank_wyllie_into(&device, &list, &mut out));
        assert_eq!(out, expect);
        out.fill(0);
        assert!(rank_wei_jaja_into(&device, &list, &mut out));
        assert_eq!(out, expect);
        out.fill(0);
        assert!(rank_into(&device, &list, Ranker::WeiJaJa, &mut out));
        assert_eq!(out, expect);
    }

    #[test]
    fn steady_state_ranking_allocates_nothing() {
        let device = Device::new();
        let list = random_tree_list(&device, 60_000, 33);
        let mut out = vec![0u32; list.len()];
        assert!(rank_wyllie_into(&device, &list, &mut out));
        assert!(rank_wei_jaja_into(&device, &list, &mut out));
        let before = device.metrics().snapshot();
        for _ in 0..3 {
            assert!(rank_wyllie_into(&device, &list, &mut out));
            assert!(rank_wei_jaja_into(&device, &list, &mut out));
        }
        let d = device.metrics().snapshot().since(&before);
        assert_eq!(
            d.bytes_allocated, 0,
            "steady-state list ranking must draw all scratch from the pool"
        );
        assert!(d.bytes_reused > 0);
    }

    #[test]
    fn list_prefix_sum_matches_sequential_walk() {
        let device = Device::new();
        for (n, seed) in [(2usize, 1u64), (50, 2), (3000, 3)] {
            let list = random_tree_list(&device, n, seed);
            // Arbitrary signed weights keyed on the half-edge id.
            let weights: Vec<i64> = (0..list.len() as i64).map(|e| (e % 7) - 3).collect();
            let got = list_prefix_sum(&device, &list, &weights);
            // Oracle: walk the list accumulating.
            let mut acc = 0i64;
            let mut e = list.head;
            while e != NIL {
                acc += weights[e as usize];
                assert_eq!(got[e as usize], acc, "n={n} edge={e}");
                e = list.succ[e as usize];
            }
        }
    }

    #[test]
    fn list_prefix_sum_with_unit_weights_is_rank_plus_one() {
        let device = Device::new();
        let list = random_tree_list(&device, 500, 9);
        let ones = vec![1i64; list.len()];
        let prefix = list_prefix_sum(&device, &list, &ones);
        let rank = rank_sequential(&list).unwrap();
        for e in 0..list.len() {
            assert_eq!(prefix[e], rank[e] as i64 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "weight length mismatch")]
    fn list_prefix_sum_rejects_bad_weights() {
        let device = Device::new();
        let list = random_tree_list(&device, 10, 4);
        list_prefix_sum(&device, &list, &[1i64; 3]);
    }

    #[test]
    fn ranker_enum_dispatches() {
        let device = Device::new();
        let list = random_tree_list(&device, 5000, 9);
        let reference = rank_sequential(&list);
        for ranker in [Ranker::Sequential, Ranker::Wyllie, Ranker::WeiJaJa] {
            assert_eq!(rank(&device, &list, ranker), reference);
        }
    }

    #[test]
    fn default_ranker_is_wei_jaja() {
        assert_eq!(Ranker::default(), Ranker::WeiJaJa);
    }
}
