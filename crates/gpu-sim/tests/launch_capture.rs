//! Seeded-violation tests for the launch-graph analyzer: each detector —
//! dead-write, fusion-candidate — is fed a pipeline constructed to trip
//! it, and must report the exact offending kernel labels; a two-launch
//! pipeline checks the dependence count. The inverse (all shipped
//! pipelines analyze clean) lives in the CLI integration suite, which
//! drives the real pipelines at several pool widths.

use gpu_sim::launch_graph::mask_reads;
use gpu_sim::{Device, DeviceConfig, FaultConfig, FindingKind, SanitizeMode};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn capture_device() -> Device {
    Device::with_config(DeviceConfig {
        threads: Some(2),
        capture: true,
        ..DeviceConfig::default()
    })
}

#[test]
fn ordered_version_of_the_same_pipeline_is_clean() {
    let device = capture_device();
    let mut a = vec![0u32; 1000];
    {
        let _k = device.kernel_label("seed_produce");
        device.capture_write(&a[..]);
        device.map(&mut a, |i| i as u32);
    }
    let mut b = vec![0u32; 1000];
    {
        let _k = device.kernel_label("seed_consume");
        device.capture_read(&a[..]);
        let a_ref = &a;
        device.map(&mut b, |i| a_ref[i] + 1);
    }

    let analysis = device.launch_graph().expect("capture is on").analyze();
    assert_eq!(analysis.deps.raw, 1);
}

#[test]
fn seeded_dead_write_is_detected() {
    let device = capture_device();
    let scratch = {
        let _k = device.kernel_label("seed_dead_write");
        device.alloc_pooled_map(1000, |i| i as u32)
    };
    // Released without any launch or host read ever touching it.
    drop(scratch);

    let analysis = device.launch_graph().expect("capture is on").analyze();
    assert_eq!(analysis.dead_writes.len(), 1, "{:?}", analysis.dead_writes);
    assert_eq!(analysis.dead_writes[0].label, "seed_dead_write");
    assert_eq!(analysis.dead_bytes, 4000);
}

#[test]
fn host_read_clears_seeded_dead_write() {
    let device = capture_device();
    let scratch = {
        let _k = device.kernel_label("seed_dead_write");
        device.alloc_pooled_map(1000, |i| i as u32)
    };
    device.capture_host_read(&scratch[..]);
    assert_eq!(scratch[7], 7);
    drop(scratch);

    let analysis = device.launch_graph().expect("capture is on").analyze();
    assert!(
        analysis.dead_writes.is_empty(),
        "{:?}",
        analysis.dead_writes
    );
    assert_eq!(analysis.dead_bytes, 0);
}

#[test]
fn seeded_missed_fusion_is_detected() {
    let device = capture_device();
    let n = 1000usize;
    let mid = {
        let _k = device.kernel_label("seed_fuse_producer");
        device.alloc_pooled_map(n, |i| i as u32 * 2)
    };
    let mut out = vec![0u32; n];
    {
        let _k = device.kernel_label("seed_fuse_consumer");
        device.capture_read(&mid[..]);
        let mid_ref = &mid;
        device.map(&mut out, |i| mid_ref[i] + 1);
    }
    device.capture_host_read(&out[..]);

    let analysis = device.launch_graph().expect("capture is on").analyze();
    let pair = analysis
        .fusion_candidates
        .iter()
        .find(|c| c.producer_label == "seed_fuse_producer")
        .unwrap_or_else(|| panic!("no candidate: {:?}", analysis.fusion_candidates));
    assert_eq!(pair.consumer_label, "seed_fuse_consumer");
    assert_eq!(pair.consumer, pair.producer + 1);
}

#[test]
fn second_reader_disqualifies_fusion() {
    let device = capture_device();
    let n = 1000usize;
    let mid = {
        let _k = device.kernel_label("seed_fuse_producer");
        device.alloc_pooled_map(n, |i| i as u32 * 2)
    };
    let mut out = vec![0u32; n];
    {
        let _k = device.kernel_label("seed_fuse_consumer");
        device.capture_read(&mid[..]);
        let mid_ref = &mid;
        device.map(&mut out, |i| mid_ref[i] + 1);
    }
    let mut out2 = vec![0u32; n];
    {
        let _k = device.kernel_label("seed_second_reader");
        device.capture_read(&mid[..]);
        let mid_ref = &mid;
        device.map(&mut out2, |i| mid_ref[i] + 2);
    }
    device.capture_host_read(&out[..]);
    device.capture_host_read(&out2[..]);

    let analysis = device.launch_graph().expect("capture is on").analyze();
    assert!(
        !analysis
            .fusion_candidates
            .iter()
            .any(|c| c.producer_label == "seed_fuse_producer"),
        "{:?}",
        analysis.fusion_candidates
    );
}

/// A primitive that evaluates its generator in two launches declares the
/// generator's inputs on both: the two-pass scan's downsweep and the
/// parallel compaction's write pass read them again.
#[test]
fn two_pass_primitives_declare_generator_reads_on_both_launches() {
    let device = capture_device();
    // Past `seq_threshold`, so both primitives take their two-pass paths.
    let n = 10_000usize;
    let input: Vec<u64> = (0..n as u64).collect();
    let mut out = vec![0u64; n];
    device.capture_read(&input[..]);
    device.map_scan_inclusive_into(n, |i| input[i], &mut out, 0, |a, b| a + b);
    let flags: Vec<u8> = (0..n).map(|i| u8::from(i % 3 == 0)).collect();
    device.capture_read(&flags[..]);
    let kept = device.compact_indices(n, |i| flags[i] == 1);
    assert_eq!(kept.len(), n.div_ceil(3));

    let graph = device.launch_graph().expect("capture is on");
    // Each input is the first region of its type to register: the scan's
    // output registers after its u64 input, and nothing else is u8.
    for (label, ty) in [("scan", "u64"), ("compact", "u8")] {
        let shape = format!(":{ty}[{n}]");
        let id = graph
            .regions
            .iter()
            .find(|r| r.name.ends_with(&shape))
            .unwrap_or_else(|| panic!("no {ty} region"))
            .id;
        let launches: Vec<_> = graph.nodes.iter().filter(|n| n.label == label).collect();
        assert_eq!(launches.len(), 2, "{label}: {launches:?}");
        for node in launches {
            assert!(
                node.accesses.get(&id).is_some_and(|&m| mask_reads(m)),
                "a {label} launch does not declare its generator's read: {node:?}"
            );
        }
    }
}

#[test]
fn capture_off_records_nothing() {
    let device = Device::with_config(DeviceConfig {
        threads: Some(2),
        capture: false,
        ..DeviceConfig::default()
    });
    let mut a = vec![0u32; 100];
    device.map(&mut a, |i| i as u32);
    assert!(device.launch_graph().is_none());
}

/// A genuine panic inside a kernel unwinds through the launch guard, which
/// closes the capture node and the sanitizer launch: later host-side
/// accesses are charged to `host`, not to the dead launch.
#[test]
fn genuine_mid_kernel_panic_leaves_the_device_clean() {
    let device = Device::with_config(DeviceConfig {
        threads: Some(4),
        block_size: 64,
        seq_threshold: 16,
        sanitize: SanitizeMode::Full,
        sanitize_fatal: false,
        capture: true,
        faults: FaultConfig::default(),
        ..DeviceConfig::default()
    });
    let doomed = |label: &str, n: usize, bad: usize| {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let _k = device.kernel_label(label);
            device.for_each(n, |i| assert_ne!(i, bad, "genuine bug in {label}"));
        }));
        assert!(run.is_err(), "{label} must panic");
    };

    // (a) A 16-block grid on 4 workers fails in block 7.
    doomed("doomed_grid", 1024, 7 * 64 + 3);
    let mut data = vec![0u32; 8];
    assert_eq!(device.shared(&mut data).read(3), 0);
    let graph = device.launch_graph().expect("capture is on");
    let at = graph
        .nodes
        .iter()
        .position(|n| n.label == "doomed_grid")
        .expect("the failed launch is recorded");
    assert!(graph.nodes[at].accesses.is_empty(), "{:?}", graph.nodes);
    assert_eq!(graph.nodes.len(), at + 2, "{:?}", graph.nodes);
    assert!(graph.nodes[at + 1].host, "{:?}", graph.nodes[at + 1]);

    // (b) An inline launch fails; a later host-side out-of-bounds read is
    // reported under `host`.
    doomed("doomed_inline", 8, 5);
    let mut small = vec![0u32; 4];
    assert_eq!(device.shared(&mut small).read(99), 0);
    let findings = device.take_findings();
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].kind, FindingKind::OutOfBounds);
    assert_eq!(findings[0].kernel, "host", "{}", findings[0]);
}
