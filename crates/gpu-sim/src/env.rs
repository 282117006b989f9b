//! Central registry for the `EMG_*` environment knobs.
//!
//! Every opt-in plane of the simulated device — and every other `EMG_*`
//! knob the workspace reads, such as the query server's batching knobs —
//! is switched by one environment variable; this module is the single
//! place that knows which variables exist and how their values parse.
//! The README's consolidated env-var table is generated from [`KNOBS`]
//! and `xtask lint` rule 9 fails if the two drift apart. The shared
//! contract:
//!
//! * **unset ⇒ default** — an absent variable always selects the knob's
//!   documented default (off / no recording / no faults);
//! * **panic on typo** — a *present but unparsable* value panics instead
//!   of silently selecting a default. A misspelled mode in a CI matrix or
//!   benchmark wrapper must never quietly disable the checks it meant to
//!   enable.
//!
//! New planes must register here (name in [`KNOBS`], parse behavior in
//! [`parse_knob`]) — the `knob_registry_is_closed` unit test enumerates
//! the registry so a knob added elsewhere fails the build's test run.

use crate::launch_graph::CaptureMode;
use crate::sanitize::SanitizeMode;
use std::str::FromStr;

/// Sanitizer plane selector; see [`crate::sanitize`].
pub const EMG_SANITIZE: &str = "EMG_SANITIZE";
/// JSONL sink path for the experiment binaries' perf records (a
/// free-form path, so any non-empty value "parses").
pub const EMG_BENCH_JSON: &str = "EMG_BENCH_JSON";
/// Launch-graph capture plane selector; see [`crate::launch_graph`].
pub const EMG_CAPTURE: &str = "EMG_CAPTURE";
/// Query-server batch-size cap: one flush of the batching queue takes
/// queued queries until it holds this many pairs (a positive integer;
/// read by the `emg-server` crate, registered here so every `EMG_*` knob
/// shares one contract and one documentation table).
pub const EMG_SERVE_BATCH: &str = "EMG_SERVE_BATCH";
/// Deterministic fault-injection spec; see [`crate::fault`]. A
/// comma-separated clause list such as
/// `launch_panic:p=0.01:seed=42,alloc_fail:after=100:every=37,delay:us=500`;
/// unset, empty, or `off` injects nothing.
pub const EMG_FAULT: &str = "EMG_FAULT";
/// Query-server idle-session reaper: a connected session that sends no
/// frame for this many milliseconds is closed (a positive integer; read
/// by the `emg-server` crate — the slow-loris / abandoned-connection
/// defense).
pub const EMG_SERVE_IDLE_MS: &str = "EMG_SERVE_IDLE_MS";
/// Query-server per-frame I/O deadline in milliseconds: once a frame has
/// started arriving, the whole frame (and every response write) must
/// complete within this budget or the session is closed (a positive
/// integer; read by the `emg-server` crate).
pub const EMG_SERVE_IO_TIMEOUT_MS: &str = "EMG_SERVE_IO_TIMEOUT_MS";
/// Query-server admission-control bound: the batcher accepts at most this
/// many pending query pairs; past it, new requests are refused with
/// `Overloaded` and a retry hint instead of growing the queue without
/// bound (a positive integer; read by the `emg-server` crate).
pub const EMG_SERVE_QUEUE: &str = "EMG_SERVE_QUEUE";

/// Every `EMG_*` knob the device stack reads, with a one-line summary.
/// Keep in sync with [`parse_knob`] (enforced by the unit test below).
pub const KNOBS: &[(&str, &str)] = &[
    (
        EMG_SANITIZE,
        "sanitizer checks: off|memcheck|initcheck|racecheck|full",
    ),
    (EMG_BENCH_JSON, "path receiving benchmark JSONL records"),
    (EMG_CAPTURE, "launch-graph capture: off|on"),
    (
        EMG_SERVE_BATCH,
        "emg serve: cap one flush of queued queries at this many pairs",
    ),
    (
        EMG_FAULT,
        "fault injection: launch_panic:p=..:seed=..,alloc_fail:after=..:every=..,delay:us=..",
    ),
    (
        EMG_SERVE_IDLE_MS,
        "emg serve: close a session idle for this many milliseconds",
    ),
    (
        EMG_SERVE_IO_TIMEOUT_MS,
        "emg serve: per-frame read/write deadline in milliseconds",
    ),
    (
        EMG_SERVE_QUEUE,
        "emg serve: refuse (Overloaded) past this many pending query pairs",
    ),
];

/// Reads knob `var` as a `T`, applying the shared contract: unset (or,
/// for the enum knobs, empty) yields `T::default()`, an unparsable value
/// panics naming the variable.
///
/// # Panics
/// Panics when the variable is set to a value `T::from_str` rejects.
pub(crate) fn parse_env<T>(var: &str) -> T
where
    T: FromStr<Err = String> + Default,
{
    match std::env::var(var) {
        Err(_) => T::default(),
        Ok(v) => v.parse().unwrap_or_else(|e: String| panic!("{var}: {e}")),
    }
}

/// Validates `value` as a setting for knob `var` (the panic-on-typo core,
/// exposed without touching the process environment so tests can probe
/// every knob without races on `std::env`). Returns a normalized
/// description of what the value selects.
pub fn parse_knob(var: &str, value: &str) -> Result<String, String> {
    match var {
        EMG_SANITIZE => SanitizeMode::from_str(value).map(|m| format!("{m:?}")),
        EMG_CAPTURE => CaptureMode::from_str(value).map(|m| format!("{m:?}")),
        EMG_BENCH_JSON => {
            if value.is_empty() {
                Err("empty path".to_string())
            } else {
                Ok(format!("jsonl sink {value:?}"))
            }
        }
        EMG_SERVE_BATCH | EMG_SERVE_IDLE_MS | EMG_SERVE_IO_TIMEOUT_MS | EMG_SERVE_QUEUE => {
            match value.trim().parse::<u64>() {
                Ok(v) if v > 0 => Ok(format!("{var}={v}")),
                _ => Err(format!("expected a positive integer, got {value:?}")),
            }
        }
        EMG_FAULT => crate::fault::FaultConfig::from_str(value).map(|c| format!("faults {c}")),
        other => Err(format!("unknown EMG knob {other:?}")),
    }
}

/// Reads a positive-integer knob (the `EMG_SERVE_*` family): unset or
/// empty yields `default`, anything else must parse as a positive
/// integer.
///
/// # Panics
/// Panics when the variable is set to anything but a positive integer —
/// the registry's panic-on-typo contract.
pub fn parse_positive_knob(var: &str, default: u64) -> u64 {
    match std::env::var(var) {
        Err(_) => default,
        Ok(v) if v.is_empty() => default,
        Ok(v) => match v.trim().parse::<u64>() {
            Ok(parsed) if parsed > 0 => parsed,
            _ => panic!("{var}: expected a positive integer, got {v:?}"),
        },
    }
}

/// The benchmark JSONL sink path (`EMG_BENCH_JSON`), if recording is
/// enabled (unset or empty means off). The experiment harness
/// (`euler_bench::harness`) reads the knob only through here.
pub fn bench_json_path() -> Option<std::path::PathBuf> {
    std::env::var_os(EMG_BENCH_JSON)
        .filter(|v| !v.is_empty())
        .map(std::path::PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is closed: every knob in [`KNOBS`] parses through
    /// [`parse_knob`], accepts its documented defaults, and rejects typos.
    #[test]
    fn knob_registry_is_closed() {
        assert_eq!(KNOBS.len(), 8, "new knob? register it in env.rs");
        for (var, _help) in KNOBS {
            // A typo must be a hard error for every enum knob; the one
            // free-form knob (a path) instead rejects the empty string.
            let probe = if *var == EMG_BENCH_JSON {
                ""
            } else {
                "definitely-a-typo{}"
            };
            assert!(
                parse_knob(var, probe).is_err(),
                "{var}: bad values must not parse"
            );
        }
        // And an unregistered knob name is itself rejected.
        assert!(parse_knob("EMG_NOT_A_KNOB", "on").is_err());
    }

    #[test]
    fn documented_values_parse() {
        for v in [
            "off",
            "memcheck",
            "initcheck",
            "racecheck",
            "full",
            "1",
            "0",
        ] {
            parse_knob(EMG_SANITIZE, v).unwrap();
        }
        for v in ["off", "on", "capture", "0", "1", ""] {
            parse_knob(EMG_CAPTURE, v).unwrap();
        }
        parse_knob(EMG_BENCH_JSON, "/tmp/bench.jsonl").unwrap();
        assert!(parse_knob(EMG_BENCH_JSON, "").is_err());
        for v in ["1", "64", "4096"] {
            parse_knob(EMG_SERVE_BATCH, v).unwrap();
            parse_knob(EMG_SERVE_IDLE_MS, v).unwrap();
            parse_knob(EMG_SERVE_IO_TIMEOUT_MS, v).unwrap();
            parse_knob(EMG_SERVE_QUEUE, v).unwrap();
        }
        for v in ["0", "-3", "lots", "1.5"] {
            assert!(parse_knob(EMG_SERVE_BATCH, v).is_err(), "{v:?}");
            assert!(parse_knob(EMG_SERVE_QUEUE, v).is_err(), "{v:?}");
        }
        for v in [
            "",
            "off",
            "launch_panic:p=0.01:seed=42,alloc_fail:after=100,delay:us=500",
        ] {
            parse_knob(EMG_FAULT, v).unwrap();
        }
        assert!(parse_knob(EMG_FAULT, "definitely-a-typo{}").is_err());
    }

    #[test]
    fn case_and_whitespace_insensitive_enums() {
        parse_knob(EMG_SANITIZE, " Full ").unwrap();
        parse_knob(EMG_CAPTURE, "ON").unwrap();
    }
}
