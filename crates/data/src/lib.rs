//! # nrc-data
//!
//! Data substrate for the NRC⁺ incremental view maintenance system of
//! Koch, Lupei and Tannen, *Incremental View Maintenance for Collection
//! Programming* (PODS 2016).
//!
//! This crate provides the value universe the calculus computes over:
//!
//! * [`BaseValue`]/[`BaseType`] — primitive database domain values,
//! * [`Value`]/[`Type`] — nested tuple/bag values and their types,
//! * [`Bag`] — *generalized bags* whose elements carry (possibly negative)
//!   integer multiplicities, with bag addition `⊎` summing multiplicities.
//!   Semantically bags form a commutative group (§3 of the paper), which is
//!   exactly the structure delta processing requires: for any two bag values
//!   `old` and `new` there is a `Δ` with `new = old ⊎ Δ`,
//! * [`Label`]/[`Dictionary`] — the label and label-dictionary machinery of
//!   the shredding transformation (§5), including the crucial distinction
//!   between dictionary *addition* `⊎` (pointwise, can modify definitions)
//!   and *label union* `∪` (support union, definitions must agree —
//!   Appendix C.2),
//! * [`Database`] — a named collection of top-level bags with schemas.
//!
//! Everything is totally ordered ([`Ord`]) so bags of bags, dictionary keys,
//! and deterministic pretty-printing work without hashing nested structures.
//!
//! Underneath the value-level API sits the hash-consing layer of
//! [`intern`]: every distinct nested value is interned once into a global
//! arena and addressed by a `Copy` id ([`Vid`]) with cached hash, canonical
//! rank and depth. [`Bag`] contents and [`Dictionary`] supports key on ids,
//! so equality is `O(1)`, ordering is an integer compare in the common case,
//! and the algebraic combinators never deep-clone value trees. The
//! value-level API is preserved by resolving ids on read; `*_id` methods
//! expose the id-native fast path.
//!
//! The arena is *collectible*: bag/dictionary maps maintain per-slot live
//! counts, and [`intern::collect`] reclaims values no map references
//! anymore, reusing their slots under fresh generation tags (stale ids fail
//! deterministically). See the reclamation section of [`intern`] and the
//! epoch-pin API ([`intern::pin`], [`ArenaStats`]).
//!
//! [`Bag`] has one representation at every size: a persistent
//! (path-copying) B+tree whose clones are `O(1)` and whose writes, under a
//! clone or not, cost `O(|Δ| log n)` — see the [`bag`] module docs.
//! [`Dictionary`] supports use the same tree.

pub mod bag;
pub mod base;
pub mod codec;
pub mod database;
pub mod dict;
pub mod error;
pub mod intern;
mod livemap;
pub mod types;
pub mod value;

pub use bag::Bag;
pub use base::{BaseType, BaseValue};
pub use codec::CodecError;
pub use database::Database;
pub use dict::{Dictionary, Label};
pub use error::DataError;
pub use intern::{ArenaStats, CollectStats, Epoch, EpochPin, Vid};
pub use types::Type;
pub use value::Value;
