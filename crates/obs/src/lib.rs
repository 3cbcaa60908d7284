//! # nrc-obs
//!
//! The unified observability layer of the NRC⁺ IVM stack: a process-wide
//! lock-free metrics [`Registry`] plus a per-batch flight recorder
//! ([`trace`]), hand-rolled on `std` per the workspace's no-registry
//! constraint.
//!
//! Every layer (engine, data/arena, serve, durable) continuously reports
//! into the global registry under hierarchical dotted names, so **one**
//! [`snapshot()`] call observes the whole stack:
//!
//! ```
//! use nrc_obs as obs;
//!
//! obs::counter("demo.events").inc();
//! obs::histogram("demo.latency_ns").record(1_234);
//! let snap = obs::snapshot();
//! assert_eq!(snap.counters["demo.events"], 1);
//! println!("{}", snap.to_text());       // stable text exposition
//! println!("{}", snap.to_json_string()); // JSON export
//! ```
//!
//! Instrumented call sites follow one pattern — cache the handle, branch on
//! the global switch, pay a relaxed `fetch_add` when on:
//!
//! ```
//! use nrc_obs as obs;
//! use std::sync::LazyLock;
//!
//! static APPLIES: LazyLock<std::sync::Arc<obs::Counter>> =
//!     LazyLock::new(|| obs::counter("engine.batch.applies"));
//! if obs::enabled() {
//!     APPLIES.inc();
//! }
//! ```
//!
//! The [`trace`] module adds the time dimension: a fixed-capacity ring of
//! per-batch stage timelines (coalesce → refresh → GC → publish → WAL
//! append → fsync → checkpoint) for post-mortem of the slowest batches.
//! Overhead is priced by the ledger (`benchmark/`, `obs.overhead_share`).
//! [`json`] is the workspace's one JSON writer, behind every JSON export.

pub mod json;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{enabled, global, set_enabled, MetricsSnapshot, Registry};
pub use trace::{BatchTrace, FlightRecorder, StageSpan, TraceBuilder};

use std::sync::Arc;

/// Shared handle to the counter `name` in the [global] registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Shared handle to the gauge `name` in the [global] registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Shared handle to the default shard of histogram `name` in the [global]
/// registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// A fresh private shard of histogram `name` in the [global] registry —
/// one per recording thread; all shards merge at snapshot.
pub fn histogram_shard(name: &str) -> Arc<Histogram> {
    global().histogram_shard(name)
}

/// Point-in-time export of the [global] registry.
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}
