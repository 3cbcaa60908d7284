//! Nested values.
//!
//! A [`Value`] is an element of the semantic domain of the calculus: nested
//! tuples over base values, generalized bags, and — after shredding (§5) —
//! labels and label dictionaries.

use crate::bag::Bag;
use crate::base::BaseValue;
use crate::dict::{Dictionary, Label};
use crate::error::DataError;
use crate::types::Type;
use std::fmt;

/// A value of the (label-extended) nested relational calculus.
///
/// Values are totally ordered; this order is what keeps [`Bag`] contents and
/// dictionary supports canonical, making structural equality of query results
/// a simple `==`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A primitive value.
    Base(BaseValue),
    /// An n-ary tuple; `Tuple(vec![])` is the unit value `⟨⟩`.
    Tuple(Vec<Value>),
    /// A bag value.
    Bag(Bag),
    /// A label standing for an inner bag (shredded representation, §5.1).
    Label(Label),
    /// A label dictionary (shredding context component, §5.1).
    Dict(Dictionary),
}

impl Value {
    /// The unit value `⟨⟩`.
    pub fn unit() -> Value {
        Value::Tuple(vec![])
    }

    /// Convenience constructor for integer base values.
    pub fn int(i: i64) -> Value {
        Value::Base(BaseValue::Int(i))
    }

    /// Convenience constructor for string base values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Base(BaseValue::Str(s.into()))
    }

    /// Convenience constructor for boolean base values.
    pub fn bool(b: bool) -> Value {
        Value::Base(BaseValue::Bool(b))
    }

    /// Convenience constructor for a pair.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Tuple(vec![a, b])
    }

    /// Is this the unit value?
    pub fn is_unit(&self) -> bool {
        matches!(self, Value::Tuple(vs) if vs.is_empty())
    }

    /// Project component `i` (0-based) of a tuple value.
    pub fn project(&self, i: usize) -> Result<&Value, DataError> {
        match self {
            Value::Tuple(vs) => vs.get(i).ok_or_else(|| DataError::Shape {
                expected: format!("tuple with at least {} components", i + 1),
                got: self.to_string(),
            }),
            _ => Err(DataError::Shape {
                expected: "tuple".to_owned(),
                got: self.to_string(),
            }),
        }
    }

    /// Project along a path of component indices.
    pub fn project_path(&self, path: &[usize]) -> Result<&Value, DataError> {
        let mut cur = self;
        for &i in path {
            cur = cur.project(i)?;
        }
        Ok(cur)
    }

    /// View this value as a bag, if it is one.
    pub fn as_bag(&self) -> Result<&Bag, DataError> {
        match self {
            Value::Bag(b) => Ok(b),
            _ => Err(DataError::Shape {
                expected: "bag".to_owned(),
                got: self.to_string(),
            }),
        }
    }

    /// Consume this value as a bag, if it is one.
    pub fn into_bag(self) -> Result<Bag, DataError> {
        match self {
            Value::Bag(b) => Ok(b),
            other => Err(DataError::Shape {
                expected: "bag".to_owned(),
                got: other.to_string(),
            }),
        }
    }

    /// View this value as a base value, if it is one.
    pub fn as_base(&self) -> Result<&BaseValue, DataError> {
        match self {
            Value::Base(b) => Ok(b),
            _ => Err(DataError::Shape {
                expected: "base value".to_owned(),
                got: self.to_string(),
            }),
        }
    }

    /// View this value as a label, if it is one.
    pub fn as_label(&self) -> Result<&Label, DataError> {
        match self {
            Value::Label(l) => Ok(l),
            _ => Err(DataError::Shape {
                expected: "label".to_owned(),
                got: self.to_string(),
            }),
        }
    }

    /// View this value as a dictionary, if it is one.
    pub fn as_dict(&self) -> Result<&Dictionary, DataError> {
        match self {
            Value::Dict(d) => Ok(d),
            _ => Err(DataError::Shape {
                expected: "dictionary".to_owned(),
                got: self.to_string(),
            }),
        }
    }

    /// Infer the type of this value.
    ///
    /// Empty bags and dictionaries carry no element information; they are
    /// typed as `Bag(1)` / `L ↦ Bag(1)` and rely on the checker's structural
    /// compatibility (see [`Value::conforms_to`]) rather than exact equality.
    pub fn infer_type(&self) -> Type {
        match self {
            Value::Base(b) => Type::Base(b.base_type()),
            Value::Tuple(vs) => Type::Tuple(vs.iter().map(Value::infer_type).collect()),
            Value::Bag(b) => match b.iter().next() {
                Some((v, _)) => Type::bag(v.infer_type()),
                None => Type::bag(Type::unit()),
            },
            Value::Label(_) => Type::Label,
            Value::Dict(d) => match d.iter().find_map(|(_, bag)| bag.iter().next()) {
                Some((v, _)) => Type::dict(v.infer_type()),
                None => Type::dict(Type::unit()),
            },
        }
    }

    /// Does this value conform to `ty`? Empty bags conform to any bag type
    /// and empty dictionaries to any dictionary type.
    pub fn conforms_to(&self, ty: &Type) -> bool {
        match (self, ty) {
            (Value::Base(b), Type::Base(t)) => b.base_type() == *t,
            (Value::Tuple(vs), Type::Tuple(ts)) => {
                vs.len() == ts.len() && vs.iter().zip(ts).all(|(v, t)| v.conforms_to(t))
            }
            (Value::Bag(b), Type::Bag(elem)) => b.iter().all(|(v, _)| v.conforms_to(elem)),
            (Value::Label(_), Type::Label) => true,
            (Value::Dict(d), Type::Dict(elem)) => d
                .iter()
                .all(|(_, bag)| bag.iter().all(|(v, _)| v.conforms_to(elem))),
            _ => false,
        }
    }

    /// The "size" of the value in the step-counting sense used informally in
    /// §2.2: number of atomic constructors (base values, tuple nodes, bag
    /// entries weighted by |multiplicity|, labels, dictionary entries).
    pub fn atom_count(&self) -> u64 {
        match self {
            Value::Base(_) | Value::Label(_) => 1,
            Value::Tuple(vs) => 1 + vs.iter().map(Value::atom_count).sum::<u64>(),
            Value::Bag(b) => {
                1 + b
                    .iter()
                    .map(|(v, m)| v.atom_count() * m.unsigned_abs())
                    .sum::<u64>()
            }
            Value::Dict(d) => {
                1 + d
                    .iter()
                    .map(|(l, bag)| {
                        1 + l.args.iter().map(Value::atom_count).sum::<u64>()
                            + Value::Bag(bag.clone()).atom_count()
                    })
                    .sum::<u64>()
            }
        }
    }
}

impl From<BaseValue> for Value {
    fn from(b: BaseValue) -> Self {
        Value::Base(b)
    }
}

impl From<Bag> for Value {
    fn from(b: Bag) -> Self {
        Value::Bag(b)
    }
}

impl From<Dictionary> for Value {
    fn from(d: Dictionary) -> Self {
        Value::Dict(d)
    }
}

impl From<Label> for Value {
    fn from(l: Label) -> Self {
        Value::Label(l)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Base(b) => write!(f, "{b}"),
            Value::Tuple(vs) => {
                write!(f, "⟨")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "⟩")
            }
            Value::Bag(b) => write!(f, "{b}"),
            Value::Label(l) => write!(f, "{l}"),
            Value::Dict(d) => write!(f, "{d}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bag::Bag;
    use crate::base::BaseType;

    fn movie(name: &str, gen: &str, dir: &str) -> Value {
        Value::Tuple(vec![Value::str(name), Value::str(gen), Value::str(dir)])
    }

    #[test]
    fn project_and_paths() {
        let m = movie("Drive", "Drama", "Refn");
        assert_eq!(m.project(0).unwrap(), &Value::str("Drive"));
        assert_eq!(m.project(2).unwrap(), &Value::str("Refn"));
        assert!(m.project(3).is_err());
        let nested = Value::pair(m.clone(), Value::int(1));
        assert_eq!(nested.project_path(&[0, 1]).unwrap(), &Value::str("Drama"));
        assert!(Value::int(1).project(0).is_err());
    }

    #[test]
    fn infer_type_of_nested_values() {
        let m = movie("Drive", "Drama", "Refn");
        assert_eq!(
            m.infer_type(),
            Type::Tuple(vec![
                Type::Base(BaseType::Str),
                Type::Base(BaseType::Str),
                Type::Base(BaseType::Str)
            ])
        );
        let bag = Bag::from_values([m.clone()]);
        assert_eq!(Value::Bag(bag).infer_type(), Type::bag(m.infer_type()));
        assert_eq!(
            Value::Bag(Bag::empty()).infer_type(),
            Type::bag(Type::unit())
        );
    }

    #[test]
    fn conforms_to_allows_empty_bags_anywhere() {
        let ty = Type::bag(Type::pair(
            Type::Base(BaseType::Str),
            Type::bag(Type::Base(BaseType::Int)),
        ));
        let v = Value::Bag(Bag::from_values([Value::pair(
            Value::str("a"),
            Value::Bag(Bag::empty()),
        )]));
        assert!(v.conforms_to(&ty));
        assert!(Value::Bag(Bag::empty()).conforms_to(&ty));
        assert!(!Value::int(3).conforms_to(&ty));
    }

    #[test]
    fn unit_value_is_empty_tuple() {
        assert!(Value::unit().is_unit());
        assert_eq!(Value::unit().to_string(), "⟨⟩");
        assert!(Value::unit().conforms_to(&Type::unit()));
    }

    #[test]
    fn atom_count_weights_multiplicities() {
        let mut b = Bag::empty();
        b.insert(Value::int(1), 3);
        b.insert(Value::int(2), -2);
        // bag node (1) + 3×1 + 2×1 = 6
        assert_eq!(Value::Bag(b).atom_count(), 6);
    }

    #[test]
    fn display_nested() {
        let v = Value::pair(
            Value::str("a"),
            Value::Bag(Bag::from_values([Value::int(1)])),
        );
        assert_eq!(v.to_string(), "⟨\"a\", {1}⟩");
    }
}

#[cfg(test)]
mod error_display_tests {
    use crate::dict::Label;
    use crate::error::DataError;

    #[test]
    fn errors_render_usefully() {
        let e1 = DataError::UndefinedLabel {
            label: Label::atomic(7),
        };
        assert!(e1.to_string().contains("⟨ι7⟩"));
        let e2 = DataError::DictUnionConflict {
            label: Label::atomic(3),
        };
        assert!(e2.to_string().contains("conflict"));
        let e3 = DataError::Shape {
            expected: "bag".into(),
            got: "3".into(),
        };
        assert!(e3.to_string().contains("expected bag"));
    }
}
