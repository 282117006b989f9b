//! # emg-server — the always-on batched query daemon
//!
//! The one-shot `emg` CLI pays the full preprocessing bill — parse, CSR,
//! spanning forest, Euler tour, inlabel tables — on every invocation,
//! then answers its queries and exits. For the query kinds this workspace
//! accelerates that is exactly backwards: Schieber–Vishkin LCA is O(1)
//! *per query* after an O(n) build, so the economics only make sense when
//! one build amortizes over many queries. `emg serve` is that
//! amortization: a long-lived daemon that loads graphs once into
//! immutable, epoch-versioned [`Snapshot`]s (graph + forest + bridge
//! flags + inlabel tables, one pooled device per snapshot) and answers
//! batched queries over a length-prefixed socket protocol.
//!
//! The moving parts, one module each:
//!
//! * [`protocol`] — the wire format (framing, tags, error codes,
//!   versioning), normatively specified in DESIGN.md §12;
//! * [`catalog`] — snapshot construction and the epoch/reload lifecycle;
//! * [`batcher`] — the request coalescer: concurrent sessions' queries
//!   merge into single device launches, flushed as soon as the worker is
//!   free and capped in size;
//! * [`server`] — the listener and per-connection sessions;
//! * [`client`] — the blocking client the CLI's `emg client` and the
//!   qps sweep drive, plus the retrying wrapper the chaos sweep drives.
//!
//! Robustness (DESIGN.md §13): sessions run under read/write deadlines,
//! the batcher bounds its queue (`Overloaded` + retry hint) and isolates
//! per-batch panics, reload failures never unseat a serving snapshot,
//! shutdown drains admitted work, and the whole plane is exercised by
//! deterministic fault injection (`EMG_FAULT`) from the gpu-sim device.
//!
//! The correctness contract throughout: a batched answer is
//! **bit-identical** to what the one-shot CLI path computes for the same
//! pair, whatever batch it rides in — the integration suite pins this
//! against the sequential oracles at pool widths 1 and 4.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod batcher;
pub mod catalog;
pub mod client;
pub mod protocol;
pub mod server;

pub use batcher::{BatchConfig, Batcher, DEFAULT_MAX_PENDING};
pub use catalog::{Catalog, Snapshot};
pub use client::{Client, ClientError, RetryPolicy, RetryingClient};
pub use protocol::{
    retry_after_ms, ErrorCode, GraphInfo, QueryKind, Request, Response, ServerStats,
};
pub use server::{Server, SessionLimits};
