//! # gpu-sim — a simulated bulk-synchronous GPU device
//!
//! The paper *Euler Meets GPU* (IPDPS 2021) runs CUDA kernels on an NVIDIA
//! GTX 980 and leans on the [moderngpu] library for sort, scan and
//! segmented-reduce primitives. This crate substitutes that stack with a
//! software device: kernels are expressed over a grid of *virtual threads*
//! and executed bulk-synchronously on a [rayon] thread pool. Every kernel
//! launch is a synchronization barrier, exactly like a CUDA kernel followed
//! by `cudaDeviceSynchronize()`.
//!
//! The substitution preserves what the paper's experiments measure — work,
//! depth, and memory-access structure of the algorithms — while running on
//! commodity CPUs. See `DESIGN.md` at the workspace root for the full
//! substitution argument.
//!
//! ## Quick tour
//!
//! ```
//! use gpu_sim::Device;
//!
//! let device = Device::new();
//! // A map kernel: out[i] = i * i  (one virtual thread per element)
//! let mut out = vec![0u64; 1024];
//! device.map(&mut out, |i| (i * i) as u64);
//! // A scan primitive (moderngpu substitute)
//! let prefix = device.scan_exclusive(&out, 0u64, |a, b| a + b);
//! assert_eq!(prefix[3], 0 + 1 + 4);
//! ```
//!
//! The primitive suite covers the part of moderngpu the pipelines call:
//! generic [`scan`] and [`reduce`], one fused segmented reduce
//! ([`segreduce`]) and stream compaction ([`compact`]) of indices, with
//! kernel and work-item accounting in [`metrics`]. The paper's one sort,
//! of the Euler tour's half-edges, is the CSR placement's counting sort in
//! `graph-core`.
//!
//! Multi-launch pipelines draw their scratch buffers from the device
//! memory plane ([`arena`]): a size-bucketed pool with RAII handles
//! ([`ArenaVec`]/[`ScratchGuard`]) so that steady-state iterations
//! allocate nothing, plus `_into` and fused variants of the allocating
//! primitives (`scan_*_into`, `map_scan_*`, `map_reduce`,
//! `map_segmented_reduce_into`, `compact_indices_pooled`, ...).
//!
//! An opt-in sanitizer plane ([`sanitize`], `EMG_SANITIZE` or
//! [`DeviceConfig::sanitize`]) is the `compute-sanitizer` analogue:
//! memcheck / initcheck / racecheck over the tracked access layer
//! ([`Device::shared`] views and the checked atomic views), with
//! pool-width-independent virtual-block attribution and a
//! [`SharedSlice::benign`] whitelist for the algorithms' deliberate
//! commuting races.
//!
//! An opt-in launch-graph plane ([`launch_graph`], `EMG_CAPTURE` or
//! [`DeviceConfig::capture`]) records every launch's kernel label and
//! per-region access set through the same tracked views, and statically
//! analyzes the captured pipeline for inter-launch hazards, dead writes,
//! and fusion candidates. An opt-in fault plane ([`mod@fault`],
//! `EMG_FAULT` or [`DeviceConfig::faults`]) injects seeded,
//! schedule-independent failures — launch panics, refused allocations,
//! artificial latency — so the serving stack's failure handling is
//! testable and every chaos run replays from its seed. All `EMG_*` knobs
//! share one parsing contract, registered in [`mod@env`].
//!
//! The three planes meet the device at one seam ([`device`]): every
//! launch — [`Device::for_each`], [`Device::map`], and the hand-scheduled
//! phases of the scan, compaction and reduce primitives — opens one
//! RAII launch guard, which counts it in [`metrics`], runs the fault hook
//! first, opens the capture node and the sanitizer launch, and closes both
//! when it drops, also when a kernel panics. On the access side, each
//! tracked view carries one probe for the capture and sanitizer planes.
//!
//! [moderngpu]: https://github.com/moderngpu/moderngpu
//! [`SharedSlice::benign`]: device::SharedSlice::benign

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod arena;
pub mod atomic;
pub mod compact;
pub mod device;
pub mod env;
pub mod fault;
pub mod launch_graph;
pub mod metrics;
pub mod reduce;
pub mod sanitize;
pub mod scan;
pub mod segreduce;

pub use arena::ArenaError;
pub use arena::{ArenaPod, ArenaVec, DeviceArena, ScratchGuard};
pub use atomic::{as_atomic_u32, as_atomic_u64, AtomicViewU32, AtomicViewU64};
pub use device::{CaptureScope, Device, DeviceConfig, DeviceHandle, KernelLabel, SharedSlice};
pub use fault::{FaultConfig, FaultPause, FaultPlane};
pub use launch_graph::{
    Analysis, CaptureMode, DeadWrite, DepCounts, FusionCandidate, Hazard, HazardKind, LaunchGraph,
    Node, Region,
};
pub use metrics::{Metrics, MetricsSnapshot, PhaseTimer};
pub use sanitize::{AccessKind, Finding, FindingKind, SanitizeMode};
