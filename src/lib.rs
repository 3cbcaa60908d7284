//! # nrc-ivm — facade crate
//!
//! Re-exports the full public API of the NRC⁺ incremental view maintenance
//! system (Koch, Lupei, Tannen, PODS 2016 reproduction). See the individual
//! crates for details:
//!
//! * [`data`] — values, generalized bags, labels, dictionaries
//! * [`core`] — calculus, deltas, degrees, costs, shredding
//! * [`engine`] — materialized views and maintenance strategies
//! * [`parser`] — NRC⁺ surface syntax
//! * [`circuit`] — boolean circuit substrate with hand-built refresh and
//!   re-evaluation circuits (no query's delta is lowered to it)
//! * [`serve`] — concurrent snapshot serving (single writer, many readers)
//! * [`durable`] — write-ahead log, checkpoints, crash recovery
//! * [`obs`] — metrics registry and per-batch flight recorder
//! * [`workloads`] — seeded data and update generators
//!
//! The end-to-end design — parser → typecheck → delta/shredding → engine
//! strategies → views, including the batched maintenance path — is
//! documented in `docs/ARCHITECTURE.md` at the repository root.
//!
//! ## Example: maintaining the paper's motivating query
//!
//! ```
//! use nrc_ivm::data::database::{example_movies, example_movies_update};
//! use nrc_ivm::engine::{IvmSystem, Strategy};
//! use nrc_ivm::parser::{parse_expr, NameTree, RelationDecl};
//!
//! let db = example_movies();
//! let decl = RelationDecl {
//!     name: "M".into(),
//!     elem_ty: db.schema("M").unwrap().clone(),
//!     names: NameTree::Fields(vec![
//!         ("name".into(), NameTree::None),
//!         ("gen".into(), NameTree::None),
//!         ("dir".into(), NameTree::None),
//!     ]),
//! };
//! let related = parse_expr(
//!     "for m in M union
//!        <m.name,
//!         for m2 in M
//!           where m.name != m2.name && (m.gen == m2.gen || m.dir == m2.dir)
//!           union sng(m2.name)>",
//!     &[decl],
//! ).unwrap();
//!
//! // `related` has database-dependent inner bags: maintained via shredding.
//! let mut sys = IvmSystem::new(db);
//! sys.register("related", related, Strategy::Shredded).unwrap();
//! sys.apply_update("M", &example_movies_update()).unwrap();
//! assert_eq!(sys.view("related").unwrap().distinct_count(), 4);
//! ```

pub use nrc_circuit as circuit;
pub use nrc_core as core;
pub use nrc_data as data;
pub use nrc_durable as durable;
pub use nrc_engine as engine;
pub use nrc_obs as obs;
pub use nrc_parser as parser;
pub use nrc_serve as serve;
pub use nrc_workloads as workloads;
