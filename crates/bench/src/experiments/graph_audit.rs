//! Graph audit: what the launch-capture plane costs.
//!
//! The same pipeline entry point the golden gate uses
//! (`emg_cli::analyze::run_pipeline`) raced on a capture-off vs a
//! capture-on device. Capture's per-launch work is a mutex-guarded
//! region/label bookkeeping pass, so the gap prices the plane for anyone
//! tempted to leave `EMG_CAPTURE=1` on in production runs. What capture
//! sees — each pipeline's launch graph and modeled traffic — is pinned by
//! the `analyze_pipelines` test against `ci/golden_graphs/`.

use crate::config::Config;
use crate::harness::{emit_bench_json_fields, fmt_secs, mean_std, time, Table};
use emg_cli::analyze::run_pipeline;
use gpu_sim::{CaptureMode, Device, DeviceConfig};
use std::time::Duration;

/// The pipeline the audit races. The TV bridge pipeline is the longest
/// shipped launch sequence, so it gives capture the most bookkeeping work
/// per wall-clock second.
const OVERHEAD_PIPELINE: &str = "tv_bridges_uf";

/// A pinned 4-worker device with capture on or off.
fn dev(capture: CaptureMode) -> Device {
    Device::with_config(DeviceConfig {
        threads: Some(4),
        capture,
        ..Default::default()
    })
}

/// Times `repeats` steady-state runs of one pipeline on `device`.
fn drive(device: &Device, repeats: usize) -> Vec<Duration> {
    run_pipeline(device, OVERHEAD_PIPELINE).expect("pipeline failed"); // warmup
    let mut samples = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let (res, d) = time(|| run_pipeline(device, OVERHEAD_PIPELINE));
        res.expect("pipeline failed");
        samples.push(d);
    }
    samples
}

/// Runs the audit: the pipeline with capture off, then on.
pub fn run(cfg: &Config) {
    let repeats = cfg.repeats.max(3);
    let mut table = Table::new("Graph audit: capture-plane overhead", &["pipeline", "mean"]);

    let mut means = [0.0f64; 2];
    for (slot, (mode, mode_name)) in [(CaptureMode::Off, "off"), (CaptureMode::On, "on")]
        .into_iter()
        .enumerate()
    {
        let samples = drive(&dev(mode), repeats);
        let (mean, std) = mean_std(&samples);
        means[slot] = mean;
        table.row(vec![
            format!("{OVERHEAD_PIPELINE}/capture_{mode_name}"),
            fmt_secs(mean),
        ]);
        emit_bench_json_fields(
            "graph_audit",
            &format!("overhead/{OVERHEAD_PIPELINE}/capture_{mode_name}"),
            mean,
            std,
            samples.len() as u64,
            None,
            &[],
        );
    }
    let overhead = if means[0] > 0.0 {
        means[1] / means[0]
    } else {
        1.0
    };

    table.print();
    let _ = table.write_csv(&cfg.out_dir, "graph_audit");
    println!(
        "capture-on / capture-off ratio on {OVERHEAD_PIPELINE}: {overhead:.2}x\n\
         expected shape: capture pays per launch (region/label bookkeeping\n\
         behind a mutex), not per element, so the ratio is a few x at this\n\
         tiny audit workload and amortizes toward 1 as inputs grow — which\n\
         is why capture is opt-in, not default.\n"
    );
}
