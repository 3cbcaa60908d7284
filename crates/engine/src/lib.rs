//! # nrc-engine
//!
//! The incremental view maintenance runtime built on the delta and shredding
//! transformations of `nrc-core`. It owns a [`nrc_data::Database`] plus the
//! shredded representations of its relations, and maintains registered views
//! under one of four strategies:
//!
//! * [`Strategy::Reevaluate`] — the baseline: recompute on every update,
//! * [`Strategy::FirstOrder`] — classical IVM: materialize `h[R]`, refresh
//!   with `δ(h)[R, ΔR]` (Prop. 4.1); this is recursive IVM that hoists
//!   nothing,
//! * [`Strategy::Recursive`] — recursive IVM (§4.1): additionally
//!   materialize the input-dependent, update-independent subexpressions of
//!   each delta (the paper's partial evaluation, e.g. `flatten(R)` in
//!   Ex. 4), each maintained by its own delta; termination by Thm. 2,
//! * [`Strategy::Shredded`] — full-NRC⁺ maintenance via shredding (§5):
//!   maintain the flat view and the label dictionaries, with the
//!   domain-maintenance step of §2.2 (initialize definitions for labels the
//!   flat delta introduces), and support *deep updates* to inner bags.
//!
//! Updates arrive either one at a time ([`IvmSystem::apply_update`]) or as
//! an [`UpdateBatch`] ([`IvmSystem::apply_batch`]): many raw updates
//! coalesced per relation by `⊎` before any view work — sound because
//! deltas are additive (Prop. 4.1) — and every registered view refreshed
//! once per segment. Batch-path counters are exposed as [`BatchStats`],
//! including the intern-arena occupancy ([`ArenaStats`]) that the
//! configured [`CollectPolicy`] bounds by collecting the value arena (and
//! orphaned shredded-store dictionary definitions) between batches.
//!
//! Entry point: [`IvmSystem`]. The full data-flow walkthrough lives in the
//! repository's `docs/ARCHITECTURE.md`.

pub mod error;
pub mod recursive;
pub mod register;
pub mod shredded;
pub mod stats;
pub mod system;
pub mod view;

pub use error::{EngineError, NrcError};
pub use nrc_core::plan::{Candidate, PlannedStrategy, QueryPlan};
pub use nrc_data::ArenaStats;
pub use register::{parse_and_plan, query_source, DEFAULT_UPDATE_CARD};
pub use shredded::ShreddedUpdate;
pub use stats::{BatchStats, ViewStats};
pub use system::{CollectPolicy, IvmSystem, Parallelism, Strategy, UpdateBatch, ViewStateSnapshot};
