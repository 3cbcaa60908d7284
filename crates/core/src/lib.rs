//! # nrc-core
//!
//! The primary contribution of Koch, Lupei & Tannen, *Incremental View
//! Maintenance for Collection Programming* (PODS 2016), as a Rust library:
//!
//! * [`expr`] — the NRC⁺ / IncNRC⁺ / IncNRC⁺ₗ abstract syntax,
//! * [`builder`] — ergonomic embedded-query constructors,
//! * [`typecheck`](mod@typecheck) — the typing rules of Fig. 3 (+ §5.2 label rules),
//! * [`eval`] — the evaluation semantics, including intensional dictionaries,
//! * [`eval_lazy`] — the lazy evaluation strategy of Lemma 3,
//! * [`delta`] — the delta transformation of Fig. 4 (Prop. 4.1),
//! * [`degree`] — the degree interpretation of §4.1 (Thm. 2),
//! * [`cost`] — cost domains, the cost transformation and `tcost`
//!   (§4.2, Thm. 4),
//! * [`optimize`] — the algebraic simplifier used to normalize deltas,
//! * [`shred`] — the shredding transformation of §5 (Fig. 6, Fig. 9,
//!   Thm. 8) with the shredded executor, which materializes contexts and
//!   maintains them in place,
//! * [`generator`] — random well-typed query/instance generation for
//!   property-based testing of the paper's theorems.

pub mod builder;
pub mod cost;
pub mod degree;
pub mod delta;
pub mod eval;
pub mod eval_lazy;
pub mod expr;
pub mod generator;
pub mod optimize;
pub mod plan;
pub mod shred;
pub mod typecheck;

pub use expr::{BoolExpr, CmpOp, Expr, Operand, ScalarRef};
pub use plan::{plan_query, Candidate, PlanError, PlannedStrategy, QueryPlan};
pub use typecheck::{typecheck, TypeEnv, TypeError};
