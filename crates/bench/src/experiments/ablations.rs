//! Ablations: the paper's three design claims that no figure measures,
//! each timed in wall-clock and given a verdict.
//!
//! * **§2.2, scans against list ranking.** The pipeline ranks the tour
//!   list once because array scans beat list ranking 7–8× (Wei–JáJá
//!   \[64\]). One Wei–JáJá ranking of a tour list runs against one fused
//!   scan of an array of the same length: `map_scan_inclusive_into` over
//!   the down flags, the scan `TreeStats::compute` runs. Wyllie and the
//!   sequential walk rank the same list beside them.
//! * **§2.2, rank once against rank per statistic.** One ranking plus
//!   three fused gather-scans runs against three `list_prefix_sum` calls,
//!   the naïve transcription that pointer-jumps once per statistic. Both
//!   compute preorder, level and tour position weights over the same list.
//! * **§3.1, jumps per synchronization.** The naïve walker's level
//!   preprocessing runs at 1, 5 (the paper's choice) and 16 pointer jumps
//!   per launch, on Figure 3's deep trees, where the walk needs the most
//!   rounds.
//!
//! Each claim has a base row, and every row prints its time over the
//! base's. The claim's own row is the design the paper rejects, so the
//! claim holds when that ratio exceeds 1. The paper's figure is printed
//! beside it, but only the direction is judged: CPU ratios are not GPU
//! ratios (DESIGN.md §3). Wall-clock verdicts are reported, not gated.

use crate::config::Config;
use crate::harness::{emit_bench_json_fields, fmt_secs, mean_std, time, Table};
use euler_tour::{list_prefix_sum, rank_into, EulerList, EulerTour, Ranker};
use gpu_sim::Device;
use graphgen::random_tree;
use lca::NaiveGpuLca;
use std::time::Duration;

/// `repeats` timed runs of `f`, after one untimed run that fills the
/// device arena.
fn sample<R>(repeats: usize, mut f: impl FnMut() -> R) -> Vec<Duration> {
    let _ = f();
    (0..repeats).map(|_| time(&mut f).1).collect()
}

/// Records one claim's variants as table rows and JSONL records. The first
/// variant is the base whose mean divides every row's; a variant with the
/// paper's figure is the claim's own row, and its verdict is whether that
/// ratio exceeds 1.
fn report(
    table: &mut Table,
    claim: &str,
    elements: usize,
    variants: &[(&str, Vec<Duration>, Option<&str>)],
) {
    let base_s = mean_std(&variants[0].1).0;
    for (variant, samples, paper) in variants {
        let (mean, std) = mean_std(samples);
        let ratio = mean / base_s;
        let holds = ratio > 1.0;
        let verdict = match paper {
            None => "-",
            Some(_) if holds => "holds",
            Some(_) => "does not hold",
        };
        table.row(vec![
            claim.to_string(),
            variant.to_string(),
            elements.to_string(),
            fmt_secs(mean),
            format!("{ratio:.2}x"),
            paper.unwrap_or("-").to_string(),
            verdict.to_string(),
        ]);
        let mut extra = vec![("ratio", ratio)];
        if paper.is_some() {
            extra.push(("holds", f64::from(u8::from(holds))));
        }
        emit_bench_json_fields(
            "ablations",
            &format!("{claim}/{variant}"),
            mean,
            std,
            samples.len() as u64,
            Some(elements as u64),
            &extra,
        );
    }
}

/// Runs the three ablations.
pub fn run(cfg: &Config) {
    let device = Device::new();
    let repeats = cfg.repeats;
    let n = cfg.nodes(8_000_000);
    let mut table = Table::new(
        &format!(
            "Ablations: the paper's design claims (n = {n}, pool width {})",
            device.worker_threads()
        ),
        &[
            "claim", "variant", "elements", "mean", "ratio", "paper", "verdict",
        ],
    );

    let tree = random_tree(n, None, 0xAB1A);
    let tour = EulerTour::build(&device, &tree).expect("a generated tree has a tour");
    let list = EulerList::build(&device, tree.num_nodes(), &tree.edges(), tree.root())
        .expect("a generated tree has a tour list");
    let h = list.len();
    let rank_with = |ranker, out: &mut [u32]| {
        assert!(rank_into(&device, &list, ranker, out), "a tour is one path");
    };

    // §2.2: one ranking against one scan of the same length.
    let order = tour.order(&device);
    let down: Vec<u32> = order.iter().map(|&e| u32::from(tour.is_down(e))).collect();
    let mut scanned = vec![0u32; h];
    let scan = sample(repeats, || {
        device.map_scan_inclusive_into(h, |p| down[p], &mut scanned, 0, |a, b| a + b)
    });
    let mut variants = vec![("scan", scan, None)];
    for (ranker, variant, paper) in [
        (Ranker::WeiJaJa, "wei_jaja", Some("7-8x")),
        (Ranker::Wyllie, "wyllie", None),
        (Ranker::Sequential, "sequential", None),
    ] {
        let mut rank = vec![0u32; h];
        let samples = sample(repeats, || rank_with(ranker, &mut rank));
        assert_eq!(rank, tour.rank(), "{variant} ranks the tour");
        variants.push((variant, samples, paper));
    }
    report(&mut table, "scan_vs_rank", h, &variants);

    // §2.2: one ranking and three scans against one list ranking per
    // statistic. Weights per half-edge: preorder counts down edges, level
    // sums ±1, tour position counts every edge.
    let weights: [Vec<i64>; 3] = [
        (0..h as u32).map(|e| i64::from(tour.is_down(e))).collect(),
        (0..h as u32)
            .map(|e| if tour.is_down(e) { 1 } else { -1 })
            .collect(),
        vec![1; h],
    ];
    let iota: Vec<u32> = (0..h as u32).collect();
    let rank_once = || {
        let mut rank = vec![0u32; h];
        rank_with(Ranker::WeiJaJa, &mut rank);
        let mut order = vec![0u32; h];
        device.scatter(&mut order, &rank, &iota);
        weights.each_ref().map(|w| {
            let mut prefix = vec![0i64; h];
            device.map_scan_inclusive_into(
                h,
                |p| w[order[p] as usize],
                &mut prefix,
                0,
                |a, b| a + b,
            );
            prefix
        })
    };
    let per_statistic = || {
        weights
            .each_ref()
            .map(|w| list_prefix_sum(&device, &list, w))
    };
    for (by_position, by_edge) in rank_once().iter().zip(&per_statistic()) {
        assert!(
            (0..h).all(|p| by_position[p] == by_edge[order[p] as usize]),
            "both sides compute the same statistics"
        );
    }
    let variants = [
        ("rank_once_3_scans", sample(repeats, rank_once), None),
        (
            "3_list_prefix_sums",
            sample(repeats, per_statistic),
            Some(">1x"),
        ),
    ];
    report(&mut table, "rank_once", 3 * h, &variants);

    // §3.1: jumps per synchronization of the naïve walker's levels.
    let deep = random_tree(n, Some(1000), 0xAB1B);
    let jumps = |j| {
        sample(repeats, || {
            NaiveGpuLca::preprocess_with_jumps(&device, &deep, j)
        })
    };
    let variants = [
        ("5_jumps", jumps(5), None),
        ("1_jump", jumps(1), Some(">1x")),
        ("16_jumps", jumps(16), None),
    ];
    report(&mut table, "jumps_per_sync", n, &variants);

    table.print();
    let _ = table.write_csv(&cfg.out_dir, "ablations");
    println!(
        "verdicts: a claim holds when the row the paper rejects (Wei-JaJa\n\
         ranking, three list prefix sums, one jump per sync) takes longer\n\
         than its base row. The paper's figure is printed beside it; only\n\
         the direction is judged.\n"
    );
}
