//! The shredding transformation (§5 of the paper).
//!
//! Shredding replaces every inner bag by a **label** and separately maintains
//! **label dictionaries** mapping labels to (flat) definitions. It is what
//! makes full NRC⁺ efficiently incrementalizable: the problematic construct
//! `sngι(e)` (whose delta would need *deep updates*, §2) is translated into
//! the label constructor `inL` — whose delta is `∅` — plus a dictionary
//! `[(ι,Π) ↦ e^F]` whose delta is a dictionary of deltas. Deep updates then
//! become plain `⊎` on dictionary definitions.
//!
//! * [`types`] — type shredding `A ↦ (A^F, A^Γ)`,
//! * [`transform`] — expression shredding `h ↦ (sh^F(h), sh^Γ(h))` (Fig. 6),
//! * [`values`] — value shredding `s^F / s^Γ` and the nesting function `u`
//!   (Fig. 9),
//! * [`exec`] — the shredded executor: materializes dictionary definitions
//!   only for labels reachable from the flat output and keeps that domain
//!   exact under updates, in place (the paper's domain-maintenance
//!   discipline),
//! * [`consistency`] — the consistency checks of Appendix C.3.

pub mod consistency;
pub mod exec;
pub mod transform;
pub mod types;
pub mod values;

pub use consistency::{check_consistent, ConsistencyError};
pub use exec::{
    bind_shredded_database, eval_shredded, eval_shredded_nested, maintain_ctx, materialize,
    CtxWork, LabelRefs,
};
pub use transform::{shred_query, Shredded, Shredder};
pub use types::{shred_type_ctx, shred_type_flat};
pub use values::{nest_bag, nest_value, shred_bag, shred_value, LabelGen, INPUT_LABEL_BASE};

use crate::eval::EvalError;
use crate::typecheck::TypeError;
use nrc_data::DataError;
use std::fmt;

/// Errors raised by shredding, nesting or shredded execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShredError {
    /// A typing error in the source query.
    Type(TypeError),
    /// An evaluation error during shredded execution.
    Eval(EvalError),
    /// A data-layer error (undefined labels, dictionary conflicts).
    Data(DataError),
    /// The construct cannot appear in the *input* of the shredding
    /// transformation (labels/dictionaries/update relations — shredding is
    /// defined on plain NRC⁺; deltas are derived *after* shredding).
    Unsupported(String),
    /// A structural mismatch between a value and its claimed type.
    Shape(String),
}

impl From<TypeError> for ShredError {
    fn from(e: TypeError) -> Self {
        ShredError::Type(e)
    }
}

impl From<EvalError> for ShredError {
    fn from(e: EvalError) -> Self {
        ShredError::Eval(e)
    }
}

impl From<DataError> for ShredError {
    fn from(e: DataError) -> Self {
        ShredError::Data(e)
    }
}

impl fmt::Display for ShredError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShredError::Type(e) => write!(f, "{e}"),
            ShredError::Eval(e) => write!(f, "{e}"),
            ShredError::Data(e) => write!(f, "{e}"),
            ShredError::Unsupported(s) => write!(f, "unsupported construct in shredding: {s}"),
            ShredError::Shape(s) => write!(f, "shape error: {s}"),
        }
    }
}

impl std::error::Error for ShredError {}

/// The canonical flat-input variable name for relation `R` (`R^F`).
pub fn flat_name(rel: &str) -> String {
    format!("{rel}__F")
}

/// The canonical context-input variable name for relation `R` (`R^Γ`).
pub fn ctx_name(rel: &str) -> String {
    format!("{rel}__G")
}

/// The context variable paired with element variable `x` (`x^Γ`).
pub fn elem_ctx_name(var: &str) -> String {
    format!("{var}__G")
}
