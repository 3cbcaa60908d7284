//! The §2 movies workload at scale.
//!
//! `M(name, gen, dir)` with `n` movies over bounded genre and director
//! domains. With `g` genres and `d` directors, `related`'s inner bags have
//! expected size `n/g + n/d`, so both the O(n²) re-evaluation and the
//! O(nd + d²) incremental cost of §2.2 are visible at laptop scales.

use nrc_data::{Bag, BaseType, Database, Type, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator for the movies relation and its update streams.
pub struct MovieGen {
    rng: StdRng,
    /// Number of distinct genres.
    pub genres: usize,
    /// Number of distinct directors.
    pub directors: usize,
    next_id: usize,
}

impl MovieGen {
    /// A deterministic generator. `genres`/`directors` bound the join
    /// fan-out of `isRelated`.
    pub fn new(seed: u64, genres: usize, directors: usize) -> MovieGen {
        MovieGen {
            rng: StdRng::seed_from_u64(seed),
            genres,
            directors,
            next_id: 0,
        }
    }

    /// The `Movie` element type: `⟨name, gen, dir⟩`, all strings.
    pub fn movie_type() -> Type {
        Type::Tuple(vec![
            Type::Base(BaseType::Str),
            Type::Base(BaseType::Str),
            Type::Base(BaseType::Str),
        ])
    }

    /// One fresh movie tuple (names are unique, genre/director drawn from
    /// the bounded domains).
    pub fn movie(&mut self) -> Value {
        let id = self.next_id;
        self.next_id += 1;
        let g = self.rng.gen_range(0..self.genres);
        let d = self.rng.gen_range(0..self.directors);
        Value::Tuple(vec![
            Value::str(format!("movie{id:06}")),
            Value::str(format!("genre{g}")),
            Value::str(format!("dir{d}")),
        ])
    }

    /// A bag of `n` fresh movies.
    pub fn bag(&mut self, n: usize) -> Bag {
        Bag::from_values((0..n).map(|_| self.movie()))
    }

    /// A database with relation `M` of `n` movies.
    pub fn database(&mut self, n: usize) -> Database {
        let mut db = Database::new();
        db.insert_relation("M", Self::movie_type(), self.bag(n));
        db
    }

    /// An update batch: `inserts` fresh movies plus `deletes` random
    /// deletions drawn from `current`.
    pub fn update(&mut self, current: &Bag, inserts: usize, deletes: usize) -> Bag {
        let mut delta = self.bag(inserts);
        if deletes > 0 {
            let existing: Vec<&Value> = current
                .iter()
                .filter(|(_, m)| *m > 0)
                .map(|(v, _)| v)
                .collect();
            for _ in 0..deletes.min(existing.len()) {
                let v = existing[self.rng.gen_range(0..existing.len())];
                delta.insert(v.clone(), -1);
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_has_requested_cardinality() {
        let mut g = MovieGen::new(7, 4, 8);
        let db = g.database(100);
        assert_eq!(db.get("M").unwrap().cardinality(), 100);
        assert!(db
            .get("M")
            .unwrap()
            .iter()
            .all(|(v, _)| v.conforms_to(&MovieGen::movie_type())));
    }

    #[test]
    fn names_are_unique() {
        let mut g = MovieGen::new(7, 2, 2);
        let bag = g.bag(50);
        assert_eq!(bag.distinct_count(), 50);
    }

    #[test]
    fn genres_and_directors_are_bounded() {
        let mut g = MovieGen::new(1, 3, 2);
        let bag = g.bag(200);
        let genres: std::collections::BTreeSet<_> = bag
            .iter()
            .map(|(v, _)| v.project(1).unwrap().clone())
            .collect();
        let dirs: std::collections::BTreeSet<_> = bag
            .iter()
            .map(|(v, _)| v.project(2).unwrap().clone())
            .collect();
        assert!(genres.len() <= 3);
        assert!(dirs.len() <= 2);
    }

    #[test]
    fn updates_mix_inserts_and_deletes() {
        let mut g = MovieGen::new(3, 4, 4);
        let base = g.bag(20);
        let delta = g.update(&base, 2, 3);
        let pos: i64 = delta.iter().map(|(_, m)| m.max(0)).sum();
        let neg: i64 = delta.iter().map(|(_, m)| m.min(0)).sum();
        assert_eq!(pos, 2);
        assert_eq!(neg, -3);
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || MovieGen::new(42, 4, 4).bag(10);
        assert_eq!(mk(), mk());
    }
}
