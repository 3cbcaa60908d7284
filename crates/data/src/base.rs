//! Primitive (`Base`) values and types of the database domain.
//!
//! The paper treats `Base` as an abstract domain of atomic values over which
//! predicates may compare (§3: predicates act only on tuples of basic values —
//! the "positivity" restriction). We instantiate it with booleans, 64-bit
//! integers and strings, which is enough for every example and workload in
//! the paper while keeping values totally ordered.

use std::fmt;

/// The type of a primitive database value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BaseType {
    /// Booleans (used by workloads; predicates themselves live outside bags).
    Bool,
    /// 64-bit signed integers.
    Int,
    /// UTF-8 strings.
    Str,
}

impl fmt::Display for BaseType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseType::Bool => write!(f, "Bool"),
            BaseType::Int => write!(f, "Int"),
            BaseType::Str => write!(f, "Str"),
        }
    }
}

/// A primitive database value.
///
/// The derived [`Ord`] gives the canonical total order used to keep bag
/// contents sorted and deterministic.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BaseValue {
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A string.
    Str(String),
}

impl BaseValue {
    /// The [`BaseType`] of this value.
    pub fn base_type(&self) -> BaseType {
        match self {
            BaseValue::Bool(_) => BaseType::Bool,
            BaseValue::Int(_) => BaseType::Int,
            BaseValue::Str(_) => BaseType::Str,
        }
    }

    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        BaseValue::Str(s.into())
    }
}

impl From<i64> for BaseValue {
    fn from(v: i64) -> Self {
        BaseValue::Int(v)
    }
}

impl From<bool> for BaseValue {
    fn from(v: bool) -> Self {
        BaseValue::Bool(v)
    }
}

impl From<&str> for BaseValue {
    fn from(v: &str) -> Self {
        BaseValue::Str(v.to_owned())
    }
}

impl From<String> for BaseValue {
    fn from(v: String) -> Self {
        BaseValue::Str(v)
    }
}

impl fmt::Display for BaseValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseValue::Bool(b) => write!(f, "{b}"),
            BaseValue::Int(i) => write!(f, "{i}"),
            BaseValue::Str(s) => write!(f, "{s:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_type_of_values() {
        assert_eq!(BaseValue::Bool(true).base_type(), BaseType::Bool);
        assert_eq!(BaseValue::Int(3).base_type(), BaseType::Int);
        assert_eq!(BaseValue::str("x").base_type(), BaseType::Str);
    }

    #[test]
    fn ordering_is_total_within_and_across_variants() {
        // Variant order: Bool < Int < Str, then payload order.
        assert!(BaseValue::Bool(false) < BaseValue::Bool(true));
        assert!(BaseValue::Bool(true) < BaseValue::Int(i64::MIN));
        assert!(BaseValue::Int(1) < BaseValue::Int(2));
        assert!(BaseValue::Int(i64::MAX) < BaseValue::str(""));
        assert!(BaseValue::str("a") < BaseValue::str("b"));
    }

    #[test]
    fn from_impls() {
        assert_eq!(BaseValue::from(7), BaseValue::Int(7));
        assert_eq!(BaseValue::from(true), BaseValue::Bool(true));
        assert_eq!(BaseValue::from("hi"), BaseValue::Str("hi".into()));
    }

    #[test]
    fn display_formats() {
        assert_eq!(BaseValue::Int(-4).to_string(), "-4");
        assert_eq!(BaseValue::Bool(true).to_string(), "true");
        assert_eq!(BaseValue::str("a b").to_string(), "\"a b\"");
        assert_eq!(BaseType::Str.to_string(), "Str");
    }
}
