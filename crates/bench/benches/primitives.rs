//! Criterion microbenchmarks for the gpu-sim primitives (the moderngpu
//! substitutes): scan, segmented reduce and compaction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpu_sim::Device;

fn pseudo_random(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        })
        .collect()
}

fn bench_scan(c: &mut Criterion) {
    let device = Device::new();
    let mut group = c.benchmark_group("scan");
    group.sample_size(10);
    for n in [1usize << 16, 1 << 20] {
        let data = pseudo_random(n, 1);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("inclusive_u64", n), &n, |b, _| {
            b.iter(|| device.add_scan_inclusive_u64(&data));
        });
    }
    group.finish();
}

fn bench_segreduce(c: &mut Criterion) {
    let device = Device::new();
    let mut group = c.benchmark_group("segreduce");
    group.sample_size(10);
    let n = 1usize << 20;
    let values: Vec<u32> = pseudo_random(n, 3).iter().map(|&v| v as u32).collect();
    let seg = 64;
    let offsets: Vec<u32> = (0..=(n / seg) as u32).map(|s| s * seg as u32).collect();
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("min_u32_1M_seg64", |b| {
        b.iter(|| device.segmented_min_u32(&values, &offsets));
    });
    group.finish();
}

fn bench_compact(c: &mut Criterion) {
    let device = Device::new();
    let mut group = c.benchmark_group("compact");
    group.sample_size(10);
    let n = 1usize << 20;
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("half_survive_1M", |b| {
        b.iter(|| device.compact_indices(n, |i| i % 2 == 0));
    });
    group.finish();
}

criterion_group!(benches, bench_scan, bench_segreduce, bench_compact);
criterion_main!(benches);
