//! Seeded-violation tests for the device sanitizer plane: each test
//! plants one specific bug class and asserts the sanitizer reports it —
//! with the right kind, kernel label, and element index — and that the
//! other modes stay quiet about it.

use gpu_sim::{Device, DeviceConfig, FindingKind, SanitizeMode};

/// Small blocks + a low inline threshold so even tiny launches decompose
/// into many virtual blocks (racecheck needs cross-block attribution).
fn dev(mode: SanitizeMode) -> Device {
    Device::with_config(DeviceConfig {
        threads: Some(4),
        block_size: 64,
        seq_threshold: 16,
        pooling: true,
        sanitize: mode,
        sanitize_fatal: false,
        capture: gpu_sim::CaptureMode::Off,
        faults: gpu_sim::FaultConfig::default(),
    })
}

// ---- memcheck ----------------------------------------------------------

#[test]
fn oob_write_is_reported_with_kernel_and_index() {
    let device = dev(SanitizeMode::Memcheck);
    let mut buf = vec![0u32; 100];
    {
        let _k = device.kernel_label("seeded_oob_write");
        let shared = device.shared(&mut buf);
        device.for_each(256, |i| {
            // Thread 777's slot does not exist; the write is skipped.
            shared.write(if i == 200 { 777 } else { i % 100 }, i as u32);
        });
    }
    let findings = device.take_findings();
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.kind, FindingKind::OutOfBounds);
    assert_eq!(f.kernel, "seeded_oob_write");
    assert_eq!(f.index, 777);
    assert!(f.detail.contains("beyond length 100"), "{}", f.detail);
}

#[test]
fn oob_read_returns_zero_and_reports() {
    let device = dev(SanitizeMode::Memcheck);
    let mut buf = vec![7u32; 10];
    let shared = device.shared(&mut buf);
    assert_eq!(shared.read(3), 7);
    assert_eq!(shared.read(10), 0, "non-fatal OOB read yields zero");
    let findings = device.take_findings();
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].kind, FindingKind::OutOfBounds);
    assert_eq!(findings[0].index, 10);
    assert_eq!(findings[0].kernel, "host");
}

#[test]
fn gather_with_bad_index_is_reported_and_clamped() {
    let device = dev(SanitizeMode::Memcheck);
    let src = vec![10u32, 20, 30];
    let idx = vec![0u32, 9, 2];
    let out = device.gather_pooled(&idx, &src);
    // Clamped to the last element so the launch completes.
    assert_eq!(&out[..], &[10, 30, 30]);
    let findings = device.take_findings();
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].kind, FindingKind::OutOfBounds);
    assert_eq!(findings[0].index, 9);
}

#[test]
fn atomic_view_oob_is_reported() {
    let device = dev(SanitizeMode::Memcheck);
    let mut buf = device.alloc_filled(8, 0u32);
    let view = device.atomic_u32(&mut buf);
    view.store(20, 1); // skipped
    assert_eq!(view.load(20), 0, "non-fatal OOB load yields zero");
    let findings = device.take_findings();
    assert_eq!(findings.len(), 2);
    assert!(findings.iter().all(|f| f.kind == FindingKind::OutOfBounds));
    assert!(findings.iter().all(|f| f.index == 20));
}

// ---- initcheck ---------------------------------------------------------

#[test]
fn uninit_read_of_pooled_buffer_is_reported() {
    let device = dev(SanitizeMode::Initcheck);
    let mut buf = device.alloc_pooled::<u32>(64);
    let shared = device.shared(&mut buf);
    shared.write(3, 9);
    assert_eq!(shared.read(3), 9, "written element reads back clean");
    let _ = shared.read(4); // never written
    let findings = device.take_findings();
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].kind, FindingKind::UninitRead);
    assert_eq!(findings[0].index, 4);
}

#[test]
fn stale_contents_of_recycled_arena_block_are_uninitialized() {
    let device = dev(SanitizeMode::Initcheck);
    {
        let mut a = device.alloc_pooled::<u32>(64);
        device.map(&mut a, |_| 7); // fully initialized, then released
    }
    // Same pool, recycled block: the stale 7s must NOT count as written.
    let mut b = device.alloc_pooled::<u32>(64);
    let shared = device.shared(&mut b);
    let _ = shared.read(0);
    let findings = device.take_findings();
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].kind, FindingKind::UninitRead);
    assert!(
        findings[0].detail.contains("recycled"),
        "{}",
        findings[0].detail
    );
}

#[test]
fn whole_buffer_producers_mark_their_output_initialized() {
    let device = dev(SanitizeMode::Initcheck);
    // map, scan, and fill all define every byte of their outputs; tracked
    // reads afterwards must be clean.
    let mut a = device.alloc_pooled::<u32>(128);
    device.map(&mut a, |i| i as u32);
    let mut scanned = device.alloc_pooled::<u32>(128);
    device.scan_inclusive_into(&a, &mut scanned, 0u32, |x, y| x + y);
    let shared = device.shared(&mut scanned);
    for i in 0..128 {
        let _ = shared.read(i);
    }
    assert!(device.take_findings().is_empty());
}

// ---- racecheck ---------------------------------------------------------

#[test]
fn unannotated_cross_block_write_conflict_is_reported() {
    let device = dev(SanitizeMode::Racecheck);
    let mut buf = vec![0u32; 4];
    {
        let _k = device.kernel_label("seeded_race");
        let shared = device.shared(&mut buf);
        // 256 threads over 4 blocks of 64 all write element 0.
        device.for_each(256, |i| shared.write(0, i as u32));
    }
    let findings = device.take_findings();
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.kind, FindingKind::Race);
    assert_eq!(f.kernel, "seeded_race");
    assert_eq!(f.index, 0);
    assert!(f.detail.contains("4 virtual blocks"), "{}", f.detail);
}

#[test]
fn benign_annotation_suppresses_the_conflict() {
    let device = dev(SanitizeMode::Racecheck);
    let mut buf = vec![0u32; 4];
    {
        let shared = device
            .shared(&mut buf)
            .benign("any-winner election: every candidate value is valid");
        device.for_each(256, |i| shared.write(0, i as u32));
    }
    assert!(device.take_findings().is_empty());
}

#[test]
fn atomic_rmw_conflict_requires_benign_too() {
    let device = dev(SanitizeMode::Racecheck);
    // Unannotated: cross-block fetch_add on one element is flagged —
    // atomicity does not make the outcome schedule-independent.
    let mut buf = device.alloc_filled(1, 0u32);
    {
        let _k = device.kernel_label("seeded_atomic_race");
        let view = device.atomic_u32(&mut buf);
        device.for_each(256, |_| {
            view.fetch_add(0, 1);
        });
    }
    let findings = device.take_findings();
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].kind, FindingKind::Race);
    assert_eq!(findings[0].kernel, "seeded_atomic_race");

    // Annotated: the same kernel is accepted.
    let mut buf2 = device.alloc_filled(1, 0u32);
    {
        let view = device
            .atomic_u32(&mut buf2)
            .benign("counter: fetch_add commutes, the total is schedule-independent");
        device.for_each(256, |_| {
            view.fetch_add(0, 1);
        });
    }
    assert!(device.take_findings().is_empty());
    assert_eq!(buf2[0], 256);
}

#[test]
fn atomic_loads_alone_never_conflict() {
    let device = dev(SanitizeMode::Racecheck);
    let mut buf = device.alloc_filled(1, 42u32);
    {
        let view = device.atomic_u32(&mut buf);
        device.for_each(256, |_| {
            let _ = view.load(0);
        });
    }
    assert!(device.take_findings().is_empty());
}

#[test]
fn disjoint_writes_never_conflict() {
    let device = dev(SanitizeMode::Racecheck);
    let mut buf = vec![0u32; 256];
    {
        let shared = device.shared(&mut buf);
        device.for_each(256, |i| shared.write(i, i as u32));
    }
    assert!(device.take_findings().is_empty());
    assert_eq!(buf[200], 200);
}

// ---- mode selectivity --------------------------------------------------

#[test]
fn initcheck_does_not_flag_races() {
    let device = dev(SanitizeMode::Initcheck);
    let mut buf = vec![0u32; 4];
    {
        let shared = device.shared(&mut buf);
        device.for_each(256, |i| shared.write(0, i as u32));
    }
    assert!(device.take_findings().is_empty());
}

#[test]
fn racecheck_does_not_flag_uninit_reads() {
    let device = dev(SanitizeMode::Racecheck);
    let mut buf = device.alloc_pooled::<u32>(64);
    let shared = device.shared(&mut buf);
    let _ = shared.read(0);
    assert!(device.take_findings().is_empty());
}

// ---- metrics -----------------------------------------------------------

#[test]
fn counters_track_accesses_and_findings() {
    let device = dev(SanitizeMode::Full);
    let mut buf = vec![0u32; 8];
    let shared = device.shared(&mut buf);
    shared.write(1, 5);
    shared.write(99, 5); // OOB
    let snap = device.metrics().snapshot();
    assert_eq!(snap.san_accesses, 2);
    assert_eq!(snap.san_findings, 1);
}

#[test]
fn sanitize_off_has_zero_tracking() {
    let device = Device::with_config(DeviceConfig {
        threads: Some(2),
        block_size: 64,
        seq_threshold: 16,
        pooling: true,
        sanitize: SanitizeMode::Off,
        sanitize_fatal: false,
        capture: gpu_sim::CaptureMode::Off,
        faults: gpu_sim::FaultConfig::default(),
    });
    let mut buf = vec![0u32; 64];
    let shared = device.shared(&mut buf);
    device.for_each(64, |i| shared.write(i, i as u32));
    let snap = device.metrics().snapshot();
    assert_eq!(snap.san_accesses, 0, "off-mode tracked views count nothing");
    assert_eq!(snap.san_findings, 0);
    assert!(device.take_findings().is_empty());
}

// ---- fatal mode --------------------------------------------------------

#[test]
#[should_panic(expected = "memcheck")]
fn fatal_sanitizer_panics_with_the_finding() {
    let device = Device::with_config(DeviceConfig {
        threads: Some(1),
        block_size: 64,
        seq_threshold: 16,
        pooling: true,
        sanitize: SanitizeMode::Memcheck,
        sanitize_fatal: true,
        capture: gpu_sim::CaptureMode::Off,
        faults: gpu_sim::FaultConfig::default(),
    });
    let mut buf = vec![0u32; 4];
    let shared = device.shared(&mut buf);
    shared.write(100, 1);
}
