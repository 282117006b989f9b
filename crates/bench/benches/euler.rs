//! Criterion benchmarks of Euler tour construction and tree statistics,
//! including the §2.2 ablation: rank once + array scans (the paper's
//! optimization) versus one weighted list ranking per statistic (the naive
//! PRAM transcription).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use euler_tour::dcel::Dcel;
use euler_tour::list::EulerList;
use euler_tour::{list_prefix_sum, EulerTour, Ranker, TreeStats};
use gpu_sim::Device;
use graphgen::random_tree;

fn bench_tour_build(c: &mut Criterion) {
    let device = Device::new();
    let mut group = c.benchmark_group("euler_tour");
    group.sample_size(10);
    for n in [1usize << 16, 1 << 19] {
        let tree = random_tree(n, None, 7);
        let edges = tree.edges();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("build", n), &n, |b, _| {
            b.iter(|| EulerTour::build_from_edges(&device, n, &edges, tree.root()).unwrap());
        });
        let tour = EulerTour::build(&device, &tree).unwrap();
        group.bench_with_input(BenchmarkId::new("stats", n), &n, |b, _| {
            b.iter(|| TreeStats::compute(&device, &tour));
        });
        group.bench_with_input(BenchmarkId::new("sequential_oracle", n), &n, |b, _| {
            b.iter(|| euler_tour::cpu::sequential_stats(&tree));
        });
    }
    group.finish();
}

fn bench_scan_vs_list_ranking(c: &mut Criterion) {
    // The paper's core §2.2 claim: since GPU scans beat list ranking
    // (7–8× in [64]), pay ONE list ranking to materialize the tour as an
    // array, then compute every statistic with scans — instead of running
    // a (weighted) list ranking per statistic. Both sides below compute
    // the same three prefix-sum statistics (preorder, level, rank) from
    // the same DCEL.
    let device = Device::new();
    let mut group = c.benchmark_group("scan_vs_list_ranking");
    group.sample_size(10);
    let n = 1usize << 18;
    let tree = random_tree(n, None, 11);
    let edges = tree.edges();
    let dcel = Dcel::build(&device, n, &edges);
    let list = EulerList::build(&device, &dcel, tree.root());
    let h = 2 * (n - 1);
    // Per-half-edge weights: +1 on down edges for preorder, ±1 for levels.
    let tour = EulerTour::build_from_edges(&device, n, &edges, tree.root()).unwrap();
    let down: Vec<i64> = (0..h as u32).map(|e| i64::from(tour.is_down(e))).collect();
    let updown: Vec<i64> = (0..h as u32)
        .map(|e| if tour.is_down(e) { 1 } else { -1 })
        .collect();
    let ones = vec![1i64; h];
    group.throughput(Throughput::Elements(3 * h as u64));

    group.bench_function("rank_once_then_scans", |b| {
        b.iter(|| {
            // One Wei–JáJá ranking, then three array scans in tour order.
            let rank = euler_tour::ranking::rank(&device, &list, Ranker::WeiJaJa)
                .expect("a tree's tour is one path");
            let mut order = vec![0u32; h];
            let src: Vec<u32> = (0..h as u32).collect();
            device.scatter(&mut order, &rank, &src);
            let gather = |w: &[i64]| -> Vec<i64> {
                let arr = device.alloc_map(h, |p| w[order[p] as usize]);
                device.add_scan_inclusive_i64(&arr)
            };
            (gather(&down), gather(&updown), gather(&ones))
        });
    });
    group.bench_function("list_ranking_per_statistic", |b| {
        b.iter(|| {
            (
                list_prefix_sum(&device, &list, &down),
                list_prefix_sum(&device, &list, &updown),
                list_prefix_sum(&device, &list, &ones),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_tour_build, bench_scan_vs_list_ranking);
criterion_main!(benches);
