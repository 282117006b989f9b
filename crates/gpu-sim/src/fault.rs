//! Deterministic fault injection: seeded failures on the launch and
//! allocation paths.
//!
//! Chaos testing is only a regression test if the chaos replays. This
//! plane injects three failure families — kernel-launch panics, arena
//! allocation failures, and artificial per-launch latency — and every
//! decision is a **pure function of a counter and the configured seed**,
//! never of thread timing. Launches increment a per-device launch
//! counter; allocations increment an allocation counter; whether event
//! `i` faults is `mix(seed, i) < threshold`. Two runs with the same
//! config and the same launch sequence inject the identical fault
//! schedule, bit for bit, at any pool width — the property the
//! `fault_schedule_is_seeded_and_pool_width_independent` test and the CI
//! chaos job pin. (The counters themselves are schedule-independent as
//! long as launches are issued from one thread at a time, which is how
//! both the algorithm pipelines and the `emg serve` batcher drive a
//! device.)
//!
//! The spec grammar (`EMG_FAULT` or [`crate::DeviceConfig::faults`]) is a
//! comma-separated list of clauses, each a fault name followed by
//! `key=value` options:
//!
//! ```text
//! EMG_FAULT=launch_panic:p=0.01:seed=42,alloc_fail:after=100:every=37,delay:us=500
//! ```
//!
//! * `launch_panic:p=<prob>[:seed=<u64>]` — each kernel launch panics
//!   with probability `p`, decided by hashing the launch index with the
//!   seed (default seed 0);
//! * `alloc_fail:after=<n>[:every=<m>]` — arena acquisition `n` (0-based)
//!   fails, and every `m`-th acquisition after it (`m` defaults to 1:
//!   every acquisition from `n` on fails);
//! * `delay:us=<u>` — every launch busy-waits `u` microseconds before
//!   running, modeling a degraded device.
//!
//! Injected panics carry the [`INJECTED_PANIC`] marker so panic-isolation
//! layers (the serve batcher's `catch_unwind`) and tests can tell an
//! injected fault from a real bug. Faults can be [paused]
//! (`Device::pause_faults`) around phases that must not fail — snapshot
//! preprocessing in `emg-server` builds under a pause guard so a fault
//! plane brings down individual *queries*, never the catalog load.
//! Paused events do not advance the counters, so the serving-path
//! schedule is independent of how much build work preceded it.
//!
//! [paused]: crate::device::Device::pause_faults

use std::str::FromStr;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Marker substring carried by every injected launch panic, so isolation
/// layers can distinguish injected faults from genuine bugs.
pub const INJECTED_PANIC: &str = "injected fault: launch_panic";

/// Marker substring carried by injected allocation failures (both the
/// [`crate::arena::ArenaError`] message and the panic message of the
/// infallible allocation wrappers).
pub const INJECTED_ALLOC_FAIL: &str = "injected fault: alloc_fail";

/// The `launch_panic` clause: panic on each launch with probability `p`,
/// decided from `seed` and the launch index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchPanic {
    /// Per-launch panic probability in `[0, 1]`.
    pub p: f64,
    /// Seed mixed into every decision.
    pub seed: u64,
}

impl LaunchPanic {
    /// Whether launch `index` panics — a pure function of the clause and
    /// the index, so schedules replay exactly.
    pub fn fires(&self, index: u64) -> bool {
        if self.p <= 0.0 {
            return false;
        }
        if self.p >= 1.0 {
            return true;
        }
        let threshold = (self.p * u64::MAX as f64) as u64;
        mix(self.seed, index) < threshold
    }
}

/// The `alloc_fail` clause: acquisition `after` fails, then every
/// `every`-th one after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocFail {
    /// First failing acquisition (0-based).
    pub after: u64,
    /// Period between failures from `after` on (1 = all of them).
    pub every: u64,
}

impl AllocFail {
    /// Whether acquisition `index` fails.
    pub fn fires(&self, index: u64) -> bool {
        index >= self.after && (index - self.after).is_multiple_of(self.every.max(1))
    }
}

/// Parsed fault configuration (the `EMG_FAULT` spec). The default is no
/// faults; [`FaultConfig::is_empty`] devices skip the plane entirely.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultConfig {
    /// Seeded per-launch panics.
    pub launch_panic: Option<LaunchPanic>,
    /// Counted arena-acquisition failures.
    pub alloc_fail: Option<AllocFail>,
    /// Fixed artificial latency added to every launch.
    pub delay: Option<Duration>,
}

impl FaultConfig {
    /// Reads `EMG_FAULT` from the environment (unset means no faults; a
    /// malformed spec panics, per the registry contract).
    pub fn from_env() -> Self {
        crate::env::parse_env(crate::env::EMG_FAULT)
    }

    /// Whether the config injects nothing (the default).
    pub fn is_empty(&self) -> bool {
        self.launch_panic.is_none() && self.alloc_fail.is_none() && self.delay.is_none()
    }
}

impl std::fmt::Display for FaultConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        if let Some(lp) = &self.launch_panic {
            parts.push(format!("launch_panic:p={}:seed={}", lp.p, lp.seed));
        }
        if let Some(af) = &self.alloc_fail {
            parts.push(format!("alloc_fail:after={}:every={}", af.after, af.every));
        }
        if let Some(d) = &self.delay {
            parts.push(format!("delay:us={}", d.as_micros()));
        }
        if parts.is_empty() {
            write!(f, "off")
        } else {
            write!(f, "{}", parts.join(","))
        }
    }
}

impl FromStr for FaultConfig {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s.is_empty() || s.eq_ignore_ascii_case("off") || s == "0" || s == "none" {
            return Ok(FaultConfig::default());
        }
        let mut cfg = FaultConfig::default();
        for clause in s.split(',') {
            let mut fields = clause.trim().split(':');
            let name = fields.next().unwrap_or("").trim();
            let mut opts = Vec::new();
            for field in fields {
                let (key, value) = field
                    .split_once('=')
                    .ok_or_else(|| format!("fault option {field:?} is not key=value"))?;
                opts.push((key.trim(), value.trim()));
            }
            match name {
                "launch_panic" => {
                    let mut lp = LaunchPanic { p: 0.0, seed: 0 };
                    let mut saw_p = false;
                    for (key, value) in opts {
                        match key {
                            "p" => {
                                lp.p = value
                                    .parse::<f64>()
                                    .ok()
                                    .filter(|p| (0.0..=1.0).contains(p))
                                    .ok_or_else(|| {
                                        format!("launch_panic p={value:?}: want 0..=1")
                                    })?;
                                saw_p = true;
                            }
                            "seed" => {
                                lp.seed = value
                                    .parse()
                                    .map_err(|_| format!("launch_panic seed={value:?}"))?;
                            }
                            other => return Err(format!("launch_panic option {other:?}")),
                        }
                    }
                    if !saw_p {
                        return Err("launch_panic requires p=<prob>".to_string());
                    }
                    cfg.launch_panic = Some(lp);
                }
                "alloc_fail" => {
                    let mut af = AllocFail { after: 0, every: 1 };
                    let mut saw_after = false;
                    for (key, value) in opts {
                        match key {
                            "after" => {
                                af.after = value
                                    .parse()
                                    .map_err(|_| format!("alloc_fail after={value:?}"))?;
                                saw_after = true;
                            }
                            "every" => {
                                af.every =
                                    value.parse::<u64>().ok().filter(|&e| e > 0).ok_or_else(
                                        || format!("alloc_fail every={value:?}: want >0"),
                                    )?;
                            }
                            other => return Err(format!("alloc_fail option {other:?}")),
                        }
                    }
                    if !saw_after {
                        return Err("alloc_fail requires after=<n>".to_string());
                    }
                    cfg.alloc_fail = Some(af);
                }
                "delay" => {
                    let mut us = None;
                    for (key, value) in opts {
                        match key {
                            "us" => {
                                us = Some(
                                    value
                                        .parse::<u64>()
                                        .map_err(|_| format!("delay us={value:?}"))?,
                                );
                            }
                            other => return Err(format!("delay option {other:?}")),
                        }
                    }
                    let us = us.ok_or_else(|| "delay requires us=<micros>".to_string())?;
                    cfg.delay = Some(Duration::from_micros(us));
                }
                other => {
                    return Err(format!(
                        "unknown fault {other:?} (want launch_panic, alloc_fail, delay)"
                    ))
                }
            }
        }
        Ok(cfg)
    }
}

/// SplitMix64 finalizer over `seed ^ index` — the decision hash. Strong
/// enough that per-launch decisions look independent, cheap enough to sit
/// on the launch path, and stable (the schedule is part of the test
/// contract).
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-device fault state: the config plus the event counters the
/// decisions hash. Owned by [`crate::Device`] when
/// [`crate::DeviceConfig::faults`] is non-empty.
#[derive(Debug)]
pub struct FaultPlane {
    cfg: FaultConfig,
    launches: AtomicU64,
    allocs: AtomicU64,
    paused: AtomicU32,
}

impl FaultPlane {
    pub(crate) fn new(cfg: FaultConfig) -> Self {
        Self {
            cfg,
            launches: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            paused: AtomicU32::new(0),
        }
    }

    /// The configured spec.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    fn active(&self) -> bool {
        self.paused.load(Ordering::Relaxed) == 0
    }

    /// The launch-path hook: spends the configured delay, then panics if
    /// the seeded schedule says this launch index faults. No-op (and no
    /// counter advance) while paused, so pausing a build phase does not
    /// shift the serving-path schedule.
    pub(crate) fn on_launch(&self, metrics: &crate::metrics::Metrics) {
        if !self.active() {
            return;
        }
        let index = self.launches.fetch_add(1, Ordering::Relaxed);
        if let Some(delay) = self.cfg.delay {
            metrics.record_fault();
            let start = std::time::Instant::now();
            while start.elapsed() < delay {
                std::hint::spin_loop();
            }
        }
        if let Some(lp) = &self.cfg.launch_panic {
            if lp.fires(index) {
                metrics.record_fault();
                panic!(
                    "{INJECTED_PANIC} at launch {index} (p={}, seed={})",
                    lp.p, lp.seed
                );
            }
        }
    }

    /// The allocation-path hook: `true` when this acquisition must fail.
    pub(crate) fn on_alloc(&self, metrics: &crate::metrics::Metrics) -> bool {
        if !self.active() || self.cfg.alloc_fail.is_none() {
            return false;
        }
        let index = self.allocs.fetch_add(1, Ordering::Relaxed);
        let fires = self
            .cfg
            .alloc_fail
            .as_ref()
            .is_some_and(|af| af.fires(index));
        if fires {
            metrics.record_fault();
        }
        fires
    }

    pub(crate) fn pause(&self) {
        self.paused.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn unpause(&self) {
        self.paused.fetch_sub(1, Ordering::Relaxed);
    }
}

/// RAII guard from [`crate::Device::pause_faults`]: fault injection is
/// suspended (and the event counters frozen) until the guard drops.
pub struct FaultPause<'a> {
    pub(crate) plane: Option<&'a FaultPlane>,
}

impl Drop for FaultPause<'_> {
    fn drop(&mut self) {
        if let Some(plane) = self.plane {
            plane.unpause();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Device, DeviceConfig};

    #[test]
    fn spec_round_trips_and_rejects_typos() {
        let cfg: FaultConfig = "launch_panic:p=0.01:seed=42,alloc_fail:after=100,delay:us=500"
            .parse()
            .unwrap();
        assert_eq!(cfg.launch_panic, Some(LaunchPanic { p: 0.01, seed: 42 }));
        assert_eq!(
            cfg.alloc_fail,
            Some(AllocFail {
                after: 100,
                every: 1
            })
        );
        assert_eq!(cfg.delay, Some(Duration::from_micros(500)));
        // Display output re-parses to the same config.
        assert_eq!(cfg.to_string().parse::<FaultConfig>().unwrap(), cfg);

        for empty in ["", "off", "0", "none", "  "] {
            assert!(
                empty.parse::<FaultConfig>().unwrap().is_empty(),
                "{empty:?}"
            );
        }
        for bad in [
            "launch_panic",               // missing p
            "launch_panic:p=2.0",         // out of range
            "alloc_fail:every=3",         // missing after
            "alloc_fail:after=1:every=0", // zero period
            "delay:ms=5",                 // wrong unit key
            "meteor_strike:p=1",          // unknown fault
            "launch_panic:p",             // not key=value
        ] {
            assert!(
                bad.parse::<FaultConfig>().is_err(),
                "{bad:?} must not parse"
            );
        }
    }

    #[test]
    fn decision_is_pure_and_matches_probability_roughly() {
        let lp = LaunchPanic { p: 0.01, seed: 42 };
        let first: Vec<bool> = (0..100_000).map(|i| lp.fires(i)).collect();
        let second: Vec<bool> = (0..100_000).map(|i| lp.fires(i)).collect();
        assert_eq!(first, second, "decisions are a pure function of the index");
        let hits = first.iter().filter(|&&b| b).count();
        assert!(
            (500..1500).contains(&hits),
            "~1% of 100k launches should fire, got {hits}"
        );
        // Distinct seeds give distinct schedules.
        let other = LaunchPanic { p: 0.01, seed: 43 };
        assert_ne!(
            first,
            (0..100_000).map(|i| other.fires(i)).collect::<Vec<_>>()
        );
        assert!(!LaunchPanic { p: 0.0, seed: 1 }.fires(7));
        assert!(LaunchPanic { p: 1.0, seed: 1 }.fires(7));
    }

    #[test]
    fn alloc_fail_counts_from_after_with_period() {
        let af = AllocFail {
            after: 10,
            every: 3,
        };
        let fired: Vec<u64> = (0..20).filter(|&i| af.fires(i)).collect();
        assert_eq!(fired, vec![10, 13, 16, 19]);
    }

    /// The acceptance property: one seed, one schedule — across repeated
    /// runs and across pool widths. The launch *index* drives every
    /// decision, and indices do not depend on how many workers drain the
    /// grid.
    #[test]
    fn fault_schedule_is_seeded_and_pool_width_independent() {
        let spec: FaultConfig = "launch_panic:p=0.05:seed=42".parse().unwrap();
        let schedule_at = |threads: usize| -> Vec<bool> {
            let device = Device::with_config(DeviceConfig {
                threads: Some(threads),
                faults: spec.clone(),
                ..Default::default()
            });
            (0..400)
                .map(|_| {
                    let mut out = vec![0u32; 64];
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        device.map(&mut out, |i| i as u32)
                    }))
                    .is_err()
                })
                .collect()
        };
        let one_a = schedule_at(1);
        let one_b = schedule_at(1);
        let four = schedule_at(4);
        assert_eq!(one_a, one_b, "same seed, same schedule across runs");
        assert_eq!(one_a, four, "same schedule at pool widths 1 and 4");
        assert!(one_a.iter().any(|&p| p), "5% of 400 launches should fire");
        assert!(!one_a.iter().all(|&p| p));
    }

    #[test]
    fn injected_panics_carry_the_marker_and_spare_paused_phases() {
        let device = Device::with_config(DeviceConfig {
            faults: "launch_panic:p=1.0".parse().unwrap(),
            ..Default::default()
        });
        {
            let _quiet = device.pause_faults();
            device.for_each(8, |_| {}); // must not panic while paused
        }
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| device.for_each(8, |_| {})))
                .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(INJECTED_PANIC), "got {msg:?}");
        assert!(device.metrics().snapshot().faults_injected >= 1);
    }

    #[test]
    fn delay_slows_every_launch() {
        let device = Device::with_config(DeviceConfig {
            faults: "delay:us=300".parse().unwrap(),
            ..Default::default()
        });
        let start = std::time::Instant::now();
        for _ in 0..20 {
            device.for_each(4, |_| {});
        }
        assert!(
            start.elapsed() >= Duration::from_millis(6),
            "20 launches at 300us injected delay must cost at least 6ms"
        );
        // Every counted launch is delayed: kernels and the hand-scheduled
        // phases of the primitives alike.
        let n = 200_000;
        let keys: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let mut out = vec![0u32; n];
        let check = |what: &str, op: &mut dyn FnMut()| {
            let before = device.metrics().snapshot();
            op();
            let d = device.metrics().snapshot().since(&before);
            assert!(d.kernel_launches > 0, "{what} launched nothing");
            assert_eq!(d.faults_injected, d.kernel_launches, "{what}");
        };
        check("for_each", &mut || device.for_each(n, |_| {}));
        check("map", &mut || device.map(&mut out, |i| i as u32));
        check("inline scan", &mut || {
            device.scan_exclusive(&keys[..16], 0, u32::wrapping_add);
        });
        check("two-pass scan", &mut || {
            device.scan_exclusive(&keys, 0, u32::wrapping_add);
        });
        check("reduce", &mut || {
            device.reduce(&keys, 0, u32::max);
        });
        check("compaction", &mut || {
            device.compact_indices(n, |i| keys[i].is_multiple_of(3));
        });
    }
}
