//! Nested relational types.
//!
//! The paper's type grammar (§3) is
//!
//! ```text
//! A, B, C ::= 1 | Base | A × B | Bag(C)
//! ```
//!
//! extended in §5 with the label type `L` and label dictionaries
//! `L ↦ Bag(B)` for the shredding transformation. We generalize binary
//! products to n-ary tuples (`1` is the 0-ary tuple type, binary `×` is the
//! 2-ary case); this is definable in the paper's calculus by nesting pairs
//! and keeps example schemas flat and readable.

use crate::base::BaseType;
use std::fmt;

/// A type of the (label-extended) nested relational calculus.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Type {
    /// Primitive type from the database domain.
    Base(BaseType),
    /// n-ary tuple type; `Tuple(vec![])` is the unit type `1`.
    Tuple(Vec<Type>),
    /// `Bag(C)` — generalized bags with integer multiplicities.
    Bag(Box<Type>),
    /// The label type `L` introduced by shredding (§5.1).
    Label,
    /// A label dictionary `L ↦ Bag(B)`; the payload is the *element* type `B`.
    Dict(Box<Type>),
}

impl Type {
    /// The unit type `1` (the type of the 0-ary tuple `⟨⟩`).
    pub fn unit() -> Type {
        Type::Tuple(vec![])
    }

    /// `Bag(1)` — the type of predicate results (booleans are simulated by
    /// `sng(⟨⟩)` = true and `∅` = false, §3).
    pub fn bool_bag() -> Type {
        Type::bag(Type::unit())
    }

    /// Convenience constructor for `Bag(t)`.
    pub fn bag(t: Type) -> Type {
        Type::Bag(Box::new(t))
    }

    /// Convenience constructor for `L ↦ Bag(t)`.
    pub fn dict(elem: Type) -> Type {
        Type::Dict(Box::new(elem))
    }

    /// Convenience constructor for a pair type `a × b`.
    pub fn pair(a: Type, b: Type) -> Type {
        Type::Tuple(vec![a, b])
    }

    /// Is this the unit type `1`?
    pub fn is_unit(&self) -> bool {
        matches!(self, Type::Tuple(ts) if ts.is_empty())
    }

    /// Is this a `TBase` type — a (nested) tuple type with components of only
    /// `Base` type (§3)? Predicates may only inspect such values.
    pub fn is_tbase(&self) -> bool {
        match self {
            Type::Base(_) => true,
            Type::Tuple(ts) => ts.iter().all(Type::is_tbase),
            Type::Bag(_) | Type::Label | Type::Dict(_) => false,
        }
    }

    /// The element type of a bag type, if this is one.
    pub fn bag_elem(&self) -> Option<&Type> {
        match self {
            Type::Bag(t) => Some(t),
            _ => None,
        }
    }

    /// The nesting depth of the type: the maximum number of `Bag`
    /// constructors along any path. `Base` and `1` have depth 0.
    ///
    /// The cost domains of §4.2 attach one cardinality per nesting level;
    /// this is the number of such levels.
    pub fn nesting_depth(&self) -> usize {
        match self {
            Type::Base(_) | Type::Label => 0,
            Type::Tuple(ts) => ts.iter().map(Type::nesting_depth).max().unwrap_or(0),
            Type::Bag(t) => 1 + t.nesting_depth(),
            Type::Dict(t) => 1 + t.nesting_depth(),
        }
    }

    /// Does this type mention a bag anywhere (so values of it may need
    /// shredding)?
    pub fn contains_bag(&self) -> bool {
        match self {
            Type::Base(_) | Type::Label => false,
            Type::Tuple(ts) => ts.iter().any(Type::contains_bag),
            Type::Bag(_) | Type::Dict(_) => true,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Base(b) => write!(f, "{b}"),
            Type::Tuple(ts) if ts.is_empty() => write!(f, "1"),
            Type::Tuple(ts) => {
                write!(f, "⟨")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " × ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "⟩")
            }
            Type::Bag(t) => write!(f, "Bag({t})"),
            Type::Label => write!(f, "L"),
            Type::Dict(t) => write!(f, "(L ↦ Bag({t}))"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn movie_type() -> Type {
        // Movie(name, gen, dir) from the motivating example (§2).
        Type::Tuple(vec![
            Type::Base(BaseType::Str),
            Type::Base(BaseType::Str),
            Type::Base(BaseType::Str),
        ])
    }

    #[test]
    fn unit_is_empty_tuple() {
        assert!(Type::unit().is_unit());
        assert!(!Type::Base(BaseType::Int).is_unit());
        assert_eq!(Type::unit().to_string(), "1");
    }

    #[test]
    fn tbase_accepts_nested_base_tuples_only() {
        assert!(movie_type().is_tbase());
        assert!(Type::Tuple(vec![movie_type(), Type::unit()]).is_tbase());
        assert!(!Type::bag(movie_type()).is_tbase());
        assert!(!Type::Tuple(vec![Type::Label]).is_tbase());
        assert!(!Type::Tuple(vec![Type::bag(Type::unit())]).is_tbase());
    }

    #[test]
    fn nesting_depth_counts_bag_levels() {
        assert_eq!(movie_type().nesting_depth(), 0);
        assert_eq!(Type::bag(movie_type()).nesting_depth(), 1);
        // related : Bag(name × Bag(name)) has depth 2.
        let related = Type::bag(Type::pair(
            Type::Base(BaseType::Str),
            Type::bag(Type::Base(BaseType::Str)),
        ));
        assert_eq!(related.nesting_depth(), 2);
    }

    #[test]
    fn contains_bag_detects_nested_bags() {
        assert!(!movie_type().contains_bag());
        assert!(Type::bag(movie_type()).contains_bag());
        assert!(
            Type::Tuple(vec![Type::Base(BaseType::Int), Type::bag(Type::unit())]).contains_bag()
        );
        assert!(Type::dict(Type::unit()).contains_bag());
    }

    #[test]
    fn display_round_trips_shapes() {
        let t = Type::bag(Type::pair(
            Type::Base(BaseType::Str),
            Type::bag(Type::Base(BaseType::Int)),
        ));
        assert_eq!(t.to_string(), "Bag(⟨Str × Bag(Int)⟩)");
        assert_eq!(Type::dict(Type::unit()).to_string(), "(L ↦ Bag(1))");
        assert_eq!(Type::bool_bag().to_string(), "Bag(1)");
    }

    #[test]
    fn bag_elem_projects() {
        let t = Type::bag(Type::unit());
        assert_eq!(t.bag_elem(), Some(&Type::unit()));
        assert_eq!(Type::Label.bag_elem(), None);
    }
}
