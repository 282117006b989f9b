//! The structural gate over every shipped pipeline. At pool widths 1 and
//! 4, each pipeline's captured launch graph and modeled traffic must equal
//! `ci/golden_graphs/<pipeline>.json` byte for byte (capture records
//! logical dataflow, not scheduling, and traffic is a per-primitive
//! contract), and the analyzer must report zero unwhitelisted hazards,
//! zero dead-write bytes and no anonymous launches. An intentional change
//! regenerates the goldens with
//! `cargo run --release -p emg-cli -- analyze --all --write-golden ci/golden_graphs`.

use emg_cli::analyze::{capture_pipeline, run_pipeline, PIPELINES};
use gpu_sim::{CaptureMode, Device, DeviceConfig};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../ci/golden_graphs")
}

fn golden(pipeline: &str) -> String {
    let path = golden_dir().join(format!("{pipeline}.json"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A top-level counter of a golden file, e.g. `"launches": 8,`.
fn golden_count(golden: &str, key: &str) -> u64 {
    let prefix = format!("  \"{key}\": ");
    golden
        .lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
        .unwrap_or_else(|| panic!("golden has no {key:?} counter"))
}

#[test]
fn all_pipelines_clean_and_width_invariant() {
    for &pipeline in PIPELINES {
        let want = golden(pipeline);
        for threads in [1, 4] {
            let graph = capture_pipeline(pipeline, threads)
                .unwrap_or_else(|e| panic!("{pipeline} at width {threads}: {e}"));
            let got = graph.to_json(pipeline);
            if got != want {
                let (line, (g, w)) = got
                    .lines()
                    .zip(want.lines())
                    .enumerate()
                    .find(|(_, (g, w))| g != w)
                    .unwrap_or((got.lines().count().min(want.lines().count()), ("", "")));
                panic!(
                    "{pipeline} at width {threads} differs from its golden at line {}:\n  \
                     captured: {g}\n  golden:   {w}\nregenerate with `cargo run --release \
                     -p emg-cli -- analyze --all --write-golden ci/golden_graphs` if intended",
                    line + 1
                );
            }

            let analysis = graph.analyze();
            assert!(
                analysis.hazards.is_empty(),
                "{pipeline}: unwhitelisted hazards: {:?}",
                analysis.hazards
            );
            assert_eq!(
                analysis.dead_bytes, 0,
                "{pipeline}: dead writes: {:?}",
                analysis.dead_writes
            );
            let anonymous: Vec<_> = graph
                .nodes
                .iter()
                .filter(|n| n.label.starts_with("kernel#"))
                .map(|n| &n.label)
                .collect();
            assert!(
                anonymous.is_empty(),
                "{pipeline}: anonymous launches: {anonymous:?}"
            );
        }
    }
}

#[test]
fn golden_directory_holds_one_file_per_pipeline() {
    let files: BTreeSet<String> = std::fs::read_dir(golden_dir())
        .expect("ci/golden_graphs exists")
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let expected: BTreeSet<String> = PIPELINES.iter().map(|p| format!("{p}.json")).collect();
    assert_eq!(files, expected);
}

/// The pinned counts are what an uncaptured run counts: capture changes
/// neither the launches nor the modeled traffic.
#[test]
fn uncaptured_runs_count_the_golden_traffic() {
    for &pipeline in PIPELINES {
        let device = Device::with_config(DeviceConfig {
            threads: Some(4),
            capture: CaptureMode::Off,
            ..Default::default()
        });
        run_pipeline(&device, pipeline).unwrap_or_else(|e| panic!("{pipeline}: {e}"));
        let m = device.metrics().snapshot();
        let want = golden(pipeline);
        for (key, got) in [
            ("launches", m.kernel_launches),
            ("bytes_read", m.bytes_read),
            ("bytes_written", m.bytes_written),
        ] {
            assert_eq!(got, golden_count(&want, key), "{pipeline}: {key}");
        }
    }
}
