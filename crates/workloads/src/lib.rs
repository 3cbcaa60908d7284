//! # nrc-workloads
//!
//! Seeded, deterministic workload generators for the experiments
//! (`docs/PERFORMANCE.md`), the property suites and the ledger
//! (`benchmark/`). The paper is a theory paper without a released testbed,
//! so these generators produce synthetic instances shaped to make its
//! asymptotic claims visible:
//!
//! * [`movies`] — the §2 motivating schema `M(name, gen, dir)` at scale,
//!   with bounded genre/director domains so `related` has non-trivial inner
//!   bags, plus insert/delete update streams;
//! * [`orders`] — a nested customer→orders→items schema for the deep-update
//!   experiments (E5);
//! * [`skew`] — nested bags with *per-level cardinality control*, exercising
//!   the level-indexed cost domains of §4.2 (E4);
//! * [`stream`] — a high-volume streaming workload emitting update
//!   *batches* of configurable size and hot-key skew, feeding the batched
//!   maintenance path (E8);
//! * [`serve_mix`] — deterministic read-op streams (skewed point lookups,
//!   misses, bounded scans) to run against snapshots while the [`stream`]
//!   writer ingests — the mixed read/write shape of the ledger's
//!   `read_mostly` workload;
//! * [`recovery`] — prebuilt (fully materialized) streams plus seeded
//!   crash-offset sampling for the kill-point differential harness
//!   (`tests/prop_recovery.rs`).

pub mod movies;
pub mod orders;
pub mod recovery;
pub mod serve_mix;
pub mod skew;
pub mod stream;

pub use movies::MovieGen;
pub use orders::OrdersGen;
pub use recovery::{kill_offsets, RecoveryPlan};
pub use serve_mix::{reader_ops, ReadMixConfig, ReadOp};
pub use skew::SkewGen;
pub use stream::{StreamConfig, StreamGen};
