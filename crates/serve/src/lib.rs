//! # nrc-serve
//!
//! Concurrent snapshot serving over the IVM engine: one writer ingests
//! update batches while many reader threads serve point lookups, scans and
//! label lookups from immutable, internally consistent snapshots — with
//! zero reader/writer contention and bounded GC that provably never frees
//! a slot a live snapshot can resolve.
//!
//! ## The MVCC assembly
//!
//! The pieces were already on the shelf; this crate assembles them:
//!
//! * **Cheap snapshots, cheap writes under them** — large bags and
//!   dictionaries are persistent (path-copying) B+trees of `Arc`-shared
//!   nodes. The cost model has two halves. *Freezing* every registered
//!   view is O(views) root-pointer bumps
//!   ([`nrc_engine::IvmSystem::view_state`]). The writer's *next write*
//!   into a frozen `n`-key view copies the root-to-leaf paths it touches —
//!   O(|Δ| log n) entries copied and re-retained in the arena, never
//!   O(n) — and leaves every other node shared with the snapshot, which is
//!   never written through. A reader that moves to a newer snapshot
//!   releases only the nodes the two do not share.
//! * **Pinned reclamation** — each [`Snapshot`] holds an
//!   [`nrc_data::EpochPin`], so the collector's horizon (the *pin
//!   horizon*, [`nrc_data::intern::pin_horizon`]) never passes the oldest
//!   outstanding snapshot; together with the retains its maps hold, every
//!   value reachable through a live snapshot stays resolvable no matter
//!   how much bounded collection runs under live ingest.
//! * **Atomic publication** — a hand-rolled, versioned `Arc` swap: readers
//!   poll a [`SnapshotReader`] whose steady state is one atomic load and
//!   no lock (see [`snapshot`] module docs for the protocol).
//! * **Change feeds** — [`ServingSystem::subscribe`] delivers each batch's
//!   coalesced per-view delta (captured by the engine's refresh itself)
//!   over a bounded drop-oldest queue, so consumers tail views without
//!   polling ([`feed`] module docs).
//!
//! ## Quickstart
//!
//! ```
//! use nrc_core::builder::{cmp_lit, filter_query};
//! use nrc_core::expr::CmpOp;
//! use nrc_data::database::{example_movies, example_movies_update};
//! use nrc_engine::{IvmSystem, Strategy, UpdateBatch};
//! use nrc_serve::ServingSystem;
//!
//! let mut serve = ServingSystem::new(IvmSystem::new(example_movies())).unwrap();
//! let dramas = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Drama"));
//! serve.register("dramas", dramas, Strategy::FirstOrder).unwrap();
//!
//! // Reader side: a handle per thread; snapshots outlive later batches.
//! let mut reader = serve.reader();
//! let before = reader.snapshot();
//!
//! // Writer side: ingest and publish.
//! let mut batch = UpdateBatch::new();
//! batch.push("M", example_movies_update());
//! serve.apply_batch(&batch).unwrap();
//!
//! let after = reader.snapshot();
//! assert_eq!(before.cardinality("dramas").unwrap(), 1);
//! assert_eq!(after.cardinality("dramas").unwrap(), 2);
//! assert!(after.batch_index() > before.batch_index());
//! ```

pub mod error;
pub mod feed;
pub mod snapshot;
pub mod system;

pub use error::{serve_to_engine, ServeError};
pub use feed::{FeedDelta, Subscription};
pub use snapshot::{Snapshot, SnapshotReader};
pub use system::{ServeStats, ServingSystem};
