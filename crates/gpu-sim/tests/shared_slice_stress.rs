//! Concurrency stress for the `SharedSlice` disjoint-write contract on a
//! real multi-worker pool.
//!
//! The old sequential rayon shim made these launches trivially safe; with
//! the work-sharing pool the block-claim counter hands blocks to racing OS
//! threads, so lost or torn writes would surface here. Small blocks and a
//! zero inline threshold maximize scheduling churn.

use gpu_sim::device::SharedSlice;
use gpu_sim::{Device, DeviceConfig};
use std::sync::atomic::Ordering;
use std::sync::Barrier;

fn stress_device(threads: usize) -> Device {
    Device::with_config(DeviceConfig {
        threads: Some(threads),
        block_size: 128, // many small blocks → many claim races
        seq_threshold: 0,
        pooling: true,
        ..Default::default()
    })
}

#[test]
fn many_blocks_disjoint_writes_lose_nothing() {
    let device = stress_device(4);
    let n = 1 << 17;
    let mut out = vec![0u64; n];
    for round in 1..=8u64 {
        let shared = SharedSlice::new(&mut out);
        device.for_each(n, |i| {
            // Index i is written by exactly one virtual thread.
            shared.write(i, i as u64 * round);
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u64 * round, "lost write at {i} in round {round}");
        }
    }
}

#[test]
fn map_under_contention_writes_every_slot() {
    let device = stress_device(4);
    let n = 100_003; // odd length → ragged final block
    let mut out = vec![u64::MAX; n];
    device.map(&mut out, |i| (i as u64) << 1);
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, (i as u64) << 1);
    }
}

#[test]
fn scatter_permutation_on_multithread_pool() {
    let device = stress_device(4);
    let n = 1 << 16;
    // An involution-free permutation: rotate by a large coprime stride.
    let stride = 40_507u32; // coprime with 65536
    let perm: Vec<u32> = (0..n as u32).map(|i| (i + stride) % n as u32).collect();
    let src: Vec<u64> = (0..n as u64).collect();
    let mut out = vec![0u64; n];
    device.scatter(&mut out, &perm, &src);
    for i in 0..n {
        assert_eq!(out[(i + stride as usize) % n], i as u64);
    }
}

#[test]
fn atomic_counters_see_every_virtual_thread() {
    let device = stress_device(4);
    let n = 1 << 16;
    let mut hits = vec![0u32; n];
    let view = gpu_sim::as_atomic_u32(&mut hits);
    device.for_each(n, |i| {
        view[i % n].fetch_add(1, Ordering::Relaxed);
        view[(i * 7 + 1) % n].fetch_add(1, Ordering::Relaxed);
    });
    let total: u64 = hits.iter().map(|&h| h as u64).sum();
    assert_eq!(total, 2 * n as u64, "every increment must land");
}

#[test]
fn four_workers_run_blocks_concurrently() {
    // A Barrier(4) inside four single-thread blocks only resolves if four
    // OS threads are executing blocks at the same time — the smoking-gun
    // test that `threads: Some(4)` buys real concurrency, not a counter.
    let device = Device::with_config(DeviceConfig {
        threads: Some(4),
        block_size: 1,
        seq_threshold: 0,
        pooling: true,
        ..Default::default()
    });
    assert_eq!(device.worker_threads(), 4);
    let barrier = Barrier::new(4);
    device.for_each(4, |_| {
        barrier.wait();
    });
}

#[test]
fn dedicated_pool_width_is_honored_under_load() {
    // Companion to device.rs's `dedicated_pool_respects_thread_count`: the
    // configured width must hold while real work is in flight.
    for threads in [1usize, 2, 4] {
        let device = stress_device(threads);
        assert_eq!(device.worker_threads(), threads);
        let mut out = vec![0usize; 50_000];
        device.map(&mut out, |i| i * 3);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
    }
}
