//! A named collection of top-level bags ("relations") with schemas.

use crate::bag::Bag;
use crate::error::DataError;
use crate::types::Type;
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// A database: relation names mapped to bag instances, with declared element
/// types (`Sch(R) = B`, Fig. 3's relation typing rule).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Database {
    relations: BTreeMap<String, Bag>,
    schemas: BTreeMap<String, Type>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Declare relation `name` with element type `elem_ty` and contents
    /// `bag`. Replaces any existing relation of that name.
    pub fn insert_relation(&mut self, name: impl Into<String>, elem_ty: Type, bag: Bag) {
        let name = name.into();
        debug_assert!(
            bag.iter().all(|(v, _)| v.conforms_to(&elem_ty)),
            "relation {name} contains values not conforming to its schema"
        );
        self.schemas.insert(name.clone(), elem_ty);
        self.relations.insert(name, bag);
    }

    /// Declare an empty relation with the given element type.
    pub fn declare(&mut self, name: impl Into<String>, elem_ty: Type) {
        self.insert_relation(name, elem_ty, Bag::empty());
    }

    /// The contents of relation `name`.
    pub fn get(&self, name: &str) -> Option<&Bag> {
        self.relations.get(name)
    }

    /// The element type of relation `name`.
    pub fn schema(&self, name: &str) -> Option<&Type> {
        self.schemas.get(name)
    }

    /// Apply an update `ΔR` to relation `name` via `⊎` (insertions carry
    /// positive, deletions negative multiplicities).
    pub fn apply_update(&mut self, name: &str, delta: &Bag) -> Result<(), DataError> {
        match self.relations.get_mut(name) {
            Some(r) => {
                r.union_assign(delta);
                Ok(())
            }
            None => Err(DataError::Shape {
                expected: format!("relation {name}"),
                got: "no such relation".to_owned(),
            }),
        }
    }

    /// Apply a sequence of coalesced per-relation deltas, each via `⊎`.
    ///
    /// Equivalent to calling [`Database::apply_update`] once per pair, but
    /// validates every relation name up front so the database is left
    /// untouched when any name is unknown (no partial application).
    pub fn apply_updates<'a, I>(&mut self, updates: I) -> Result<(), DataError>
    where
        I: IntoIterator<Item = (&'a str, &'a Bag)>,
        I::IntoIter: Clone,
    {
        let updates = updates.into_iter();
        if let Some(missing) = updates
            .clone()
            .find(|(n, _)| !self.relations.contains_key(*n))
        {
            return Err(DataError::Shape {
                expected: format!("relation {}", missing.0),
                got: "no such relation".to_owned(),
            });
        }
        for (name, delta) in updates {
            self.relations
                .get_mut(name)
                .expect("validated above")
                .union_assign(delta);
        }
        Ok(())
    }

    /// Iterate over `(name, bag)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Bag)> {
        self.relations.iter()
    }

    /// Relation names in order.
    pub fn relation_names(&self) -> impl Iterator<Item = &String> {
        self.relations.keys()
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Is the database empty (no relations declared)?
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total cardinality across all relations (absolute multiplicities).
    pub fn total_cardinality(&self) -> u64 {
        self.relations.values().map(Bag::cardinality).sum()
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, bag) in self.iter() {
            writeln!(f, "{name} = {bag}")?;
        }
        Ok(())
    }
}

/// Build the movie relation of the paper's motivating example (§2).
///
/// `M(name, gen, dir)` containing Drive, Skyfall and Rush. Exposed here so
/// every crate's tests and docs can reuse the exact running example.
pub fn example_movies() -> Database {
    let movie = |name: &str, gen: &str, dir: &str| {
        Value::Tuple(vec![Value::str(name), Value::str(gen), Value::str(dir)])
    };
    let ty = Type::Tuple(vec![
        Type::Base(crate::base::BaseType::Str),
        Type::Base(crate::base::BaseType::Str),
        Type::Base(crate::base::BaseType::Str),
    ]);
    let bag = Bag::from_values([
        movie("Drive", "Drama", "Refn"),
        movie("Skyfall", "Action", "Mendes"),
        movie("Rush", "Action", "Howard"),
    ]);
    let mut db = Database::new();
    db.insert_relation("M", ty, bag);
    db
}

/// The update `ΔM` of §2: a single tuple ⟨Jarhead, Drama, Mendes⟩.
pub fn example_movies_update() -> Bag {
    Bag::singleton(Value::Tuple(vec![
        Value::str("Jarhead"),
        Value::str("Drama"),
        Value::str("Mendes"),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::BaseType;

    #[test]
    fn insert_and_get() {
        let db = example_movies();
        assert_eq!(db.len(), 1);
        assert_eq!(db.get("M").unwrap().cardinality(), 3);
        assert!(db.get("N").is_none());
        assert!(db.schema("M").unwrap().is_tbase());
    }

    #[test]
    fn apply_update_unions() {
        let mut db = example_movies();
        db.apply_update("M", &example_movies_update()).unwrap();
        assert_eq!(db.get("M").unwrap().cardinality(), 4);
        // Deleting Jarhead again restores the original instance.
        db.apply_update("M", &example_movies_update().negate())
            .unwrap();
        assert_eq!(db.get("M").unwrap(), example_movies().get("M").unwrap());
    }

    #[test]
    fn apply_update_to_missing_relation_errors() {
        let mut db = Database::new();
        assert!(db.apply_update("M", &Bag::empty()).is_err());
    }

    #[test]
    fn apply_updates_applies_all_or_nothing() {
        let mut db = example_movies();
        let delta = example_movies_update();
        db.apply_updates([("M", &delta), ("M", &delta)]).unwrap();
        assert_eq!(db.get("M").unwrap().cardinality(), 5);
        // Unknown relation: rejected before anything is applied.
        let before = db.clone();
        assert!(db.apply_updates([("M", &delta), ("Zzz", &delta)]).is_err());
        assert_eq!(db, before);
    }

    #[test]
    fn declare_creates_empty() {
        let mut db = Database::new();
        db.declare("R", Type::Base(BaseType::Int));
        assert!(db.get("R").unwrap().is_empty());
        assert_eq!(db.schema("R"), Some(&Type::Base(BaseType::Int)));
        assert_eq!(db.total_cardinality(), 0);
    }

    #[test]
    fn display_lists_relations() {
        let mut db = Database::new();
        db.insert_relation(
            "R",
            Type::Base(BaseType::Int),
            Bag::from_values([Value::int(1)]),
        );
        assert_eq!(db.to_string(), "R = {1}\n");
    }
}
