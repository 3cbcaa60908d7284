//! Generalized bags with integer multiplicities.
//!
//! §3 of the paper: *"we use a generalized notion of bag where elements have
//! (possibly negative) integer multiplicities and bag addition ⊎ sums
//! multiplicities as integers"*. Bags with `∅`, `⊎` and `⊖` form a
//! commutative group; this is the algebraic structure in which deltas live —
//! for any `old`, `new` there is `Δ` with `new = old ⊎ Δ`.
//!
//! The invariant maintained throughout is that **no element is stored with
//! multiplicity zero**, so structural equality coincides with semantic bag
//! equality.
//!
//! Since the hash-consing refactor the element keys are interned
//! [`Vid`]s rather than materialized [`Value`] trees: equality and hashing
//! of elements are `O(1)`, ordering is an integer rank compare in the common
//! case, and the algebraic combinators (`⊎`, `⊖`, scaling, flatten) never
//! clone a value tree. The value-level API (`iter`, `insert`,
//! `multiplicity`, …) is preserved by resolving ids on read; the `*_id`
//! methods expose the id-native fast path for hot call sites.
//!
//! # Representation
//!
//! Every bag, whatever its size, is a `VidMap<i64>`: the crate's persistent
//! (path-copying) B+tree. A clone shares every node (`O(1)`, one `Arc`
//! bump), and a write into a bag that a clone still shares copies only the
//! root-to-leaf paths it touches — `O(|Δ| log n)` entries, never the bag.
//! So `⊎` of a `k`-entry delta costs `O(k log n)` at every bag size, and a
//! bag of a few entries is one leaf sized to its contents. The map's leaves
//! keep one arena retain per key, released when the key leaves the bag or
//! the last leaf holding it drops (see `livemap`).

use crate::error::DataError;
use crate::intern::{self, Vid};
use crate::livemap::VidMap;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// A generalized bag of [`Value`]s.
///
/// Internally a persistent B+tree of interned element ids with non-zero
/// multiplicities (see the module docs). It gives canonical representation
/// and deterministic iteration (identical to the seed's value-keyed order —
/// `Ord` on [`Vid`] refines the canonical `Ord` on [`Value`]); equality,
/// ordering and hashing are those of the sorted `(id, multiplicity)`
/// sequence, as for a `BTreeMap<Vid, i64>`. Cloning a bag (e.g. binding
/// relations into evaluation environments, or snapshotting the database
/// before an update) is an `O(1)` `Arc` bump of the tree's root, and the
/// next write into either copy unshares only the nodes on its path.
///
/// The element keys participate in arena reclamation: the tree retains each
/// key's arena slot while present and releases it on removal/drop, which is
/// what lets `intern::collect` reclaim values no bag references anymore.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bag {
    map: VidMap<i64>,
}

/// Iterator over a bag's `(id, multiplicity)` pairs in canonical order,
/// returned by [`Bag::ids`]. Items are `Copy`.
pub struct Ids<'a> {
    inner: crate::livemap::Iter<'a, i64>,
}

impl Iterator for Ids<'_> {
    type Item = (Vid, i64);

    #[inline]
    fn next(&mut self) -> Option<(Vid, i64)> {
        self.inner.next().map(|(id, &m)| (id, m))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Ids<'_> {}

/// Sort raw `(id, multiplicity)` pairs and coalesce them into canonical
/// form: duplicates summed (overflow panics, like [`Bag::insert_id`]),
/// zeros dropped, keys strictly ascending.
fn coalesce_pairs<I: IntoIterator<Item = (Vid, i64)>>(pairs: I) -> Vec<(Vid, i64)> {
    let mut pairs: Vec<(Vid, i64)> = pairs.into_iter().filter(|&(_, m)| m != 0).collect();
    pairs.sort_unstable_by_key(|&(id, _)| id);
    let mut out: Vec<(Vid, i64)> = Vec::with_capacity(pairs.len());
    for (id, m) in pairs {
        match out.last_mut() {
            Some((last, acc)) if *last == id => {
                *acc = acc.checked_add(m).expect("bag multiplicity overflow in ⊎");
            }
            _ => {
                if let Some(&(_, 0)) = out.last() {
                    out.pop();
                }
                out.push((id, m));
            }
        }
    }
    if let Some(&(_, 0)) = out.last() {
        out.pop();
    }
    out
}

/// Linear merge of two canonical runs into one (`a ⊎ b`): sums collisions
/// (overflow-checked), drops zeros, stays strictly sorted. Pure pair
/// arithmetic — no arena traffic; liveness is settled when the final run is
/// turned into a bag.
fn merge_runs(a: Vec<(Vid, i64)>, b: Vec<(Vid, i64)>) -> Result<Vec<(Vid, i64)>, DataError> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut a = a.into_iter().peekable();
    let mut b = b.into_iter().peekable();
    loop {
        let step = match (a.peek(), b.peek()) {
            (Some(&(ka, _)), Some(&(kb, _))) => ka.cmp(&kb),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => break,
        };
        match step {
            Ordering::Less => out.push(a.next().expect("peeked")),
            Ordering::Greater => out.push(b.next().expect("peeked")),
            Ordering::Equal => {
                let (id, ma) = a.next().expect("peeked");
                let (_, mb) = b.next().expect("peeked");
                let sum = ma.checked_add(mb).ok_or(DataError::Overflow { op: "⊎" })?;
                if sum != 0 {
                    out.push((id, sum));
                }
            }
        }
    }
    Ok(out)
}

impl Bag {
    /// The empty bag `∅`.
    #[must_use]
    pub fn empty() -> Bag {
        Bag::default()
    }

    /// Build from a canonical run, retaining every key in one dense pass
    /// and packing the tree bottom-up — the single construction funnel of
    /// every bulk operation.
    fn from_canonical_pairs(pairs: Vec<(Vid, i64)>) -> Bag {
        for &(id, _) in &pairs {
            intern::retain(id);
        }
        Bag {
            map: VidMap::from_retained_sorted(pairs),
        }
    }

    /// The singleton bag `{v}` (multiplicity 1).
    pub fn singleton(v: Value) -> Bag {
        Bag::singleton_id(intern::intern(v))
    }

    /// The singleton bag over an already-interned element.
    pub fn singleton_id(id: Vid) -> Bag {
        let mut b = Bag::empty();
        b.insert_id(id, 1);
        b
    }

    /// Build a bag from values, each with multiplicity 1 (duplicates sum).
    pub fn from_values<I: IntoIterator<Item = Value>>(values: I) -> Bag {
        Bag::from_pairs(values.into_iter().map(|v| (v, 1)))
    }

    /// Build a bag from `(value, multiplicity)` pairs (duplicates sum, zeros
    /// dropped).
    pub fn from_pairs<I: IntoIterator<Item = (Value, i64)>>(pairs: I) -> Bag {
        Bag::from_id_pairs(pairs.into_iter().map(|(v, m)| (intern::intern(v), m)))
    }

    /// Build a bag from `(id, multiplicity)` pairs (duplicates sum, zeros
    /// dropped) — the id-native sibling of [`Bag::from_pairs`]. One sort +
    /// coalesce pass, one batched retain pass.
    pub fn from_id_pairs<I: IntoIterator<Item = (Vid, i64)>>(pairs: I) -> Bag {
        Bag::from_canonical_pairs(coalesce_pairs(pairs))
    }

    /// Add `mult` copies of `v` (negative removes). Zero-multiplicity
    /// entries are dropped to preserve the canonical-form invariant.
    pub fn insert(&mut self, v: Value, mult: i64) {
        if mult == 0 {
            return;
        }
        self.insert_id(intern::intern(v), mult);
    }

    /// Id-native [`Bag::insert`]: add `mult` copies of an interned element.
    /// Multiplicity addition is overflow-checked — silent wrap-around would
    /// corrupt the group structure undetectably.
    pub fn insert_id(&mut self, id: Vid, mult: i64) {
        self.try_insert_id(id, mult)
            .expect("bag multiplicity overflow in ⊎");
    }

    /// [`Bag::insert_id`] that surfaces multiplicity-addition overflow as
    /// [`DataError::Overflow`] instead of panicking — the building block of
    /// the fallible accumulation paths ([`Bag::union_assign_scaled`],
    /// [`Bag::flatten`]).
    pub fn try_insert_id(&mut self, id: Vid, mult: i64) -> Result<(), DataError> {
        if mult == 0 {
            return Ok(());
        }
        self.map.upsert_with(id, |current| match current {
            None => Ok(Some(mult)),
            Some(&m) => {
                let new = m.checked_add(mult).ok_or(DataError::Overflow { op: "⊎" })?;
                Ok((new != 0).then_some(new))
            }
        })
    }

    /// The multiplicity of `v` (0 when absent). Probing for a value that was
    /// never interned does not intern it.
    pub fn multiplicity(&self, v: &Value) -> i64 {
        intern::lookup(v).map_or(0, |id| self.multiplicity_id(id))
    }

    /// Id-native [`Bag::multiplicity`].
    pub fn multiplicity_id(&self, id: Vid) -> i64 {
        self.map.get(id).copied().unwrap_or(0)
    }

    /// Is this the empty bag?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of *distinct* elements.
    pub fn distinct_count(&self) -> usize {
        self.map.len()
    }

    /// Cardinality "including repetitions" (§2.2, Ex. 5): the sum of the
    /// absolute multiplicities. Deletions weigh as much as insertions — a
    /// delta of 5 deletions has cardinality 5.
    pub fn cardinality(&self) -> u64 {
        self.ids().map(|(_, m)| m.unsigned_abs()).sum()
    }

    /// Sum of signed multiplicities (the "net" size; can be negative for
    /// delta bags).
    pub fn net_cardinality(&self) -> i64 {
        self.ids().map(|(_, m)| m).sum()
    }

    /// Are all multiplicities non-negative (i.e. is this a *proper* bag
    /// rather than a signed delta)?
    pub fn is_proper(&self) -> bool {
        self.ids().all(|(_, m)| m >= 0)
    }

    /// Iterate over `(element, multiplicity)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, i64)> {
        self.ids().map(|(id, m)| (id.value(), m))
    }

    /// Iterate over `(id, multiplicity)` pairs in canonical order — the
    /// id-native sibling of [`Bag::iter`] (no resolution, `Copy` items).
    #[inline]
    pub fn ids(&self) -> Ids<'_> {
        Ids {
            inner: self.map.iter(),
        }
    }

    /// The smallest element's id, if any (also the interner's rank seed for
    /// bags-as-values).
    pub(crate) fn first_id(&self) -> Option<Vid> {
        self.ids().next().map(|(id, _)| id)
    }

    /// Iterate over elements, repeated `multiplicity` times. Panics in debug
    /// builds if any multiplicity is negative; intended for proper bags.
    pub fn iter_expanded(&self) -> impl Iterator<Item = &Value> {
        self.ids().flat_map(|(id, m)| {
            debug_assert!(m >= 0, "iter_expanded over a signed delta bag");
            std::iter::repeat_n(id.value(), m.max(0) as usize)
        })
    }

    /// Bag addition `⊎`: sums multiplicities, dropping zeros.
    #[must_use = "`union` returns a new bag and leaves `self` unchanged"]
    pub fn union(&self, other: &Bag) -> Bag {
        // Merge the smaller into a clone of the larger (union of two
        // materialized bags costs time proportional to the smaller one, the
        // assumption made in the §2.2 cost analysis).
        let (big, small) = if self.distinct_count() >= other.distinct_count() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = big.clone();
        out.union_assign(small);
        out
    }

    /// In-place bag addition `self ⊎= other`.
    pub fn union_assign(&mut self, other: &Bag) {
        self.union_assign_scaled(other, 1)
            .expect("bag multiplicity overflow in ⊎");
    }

    /// In-place scaled addition `self ⊎= k · other` without materializing
    /// the scaled intermediate — the inner step of `for`-loop accumulation
    /// (`acc ⊎= m · body`) and of flatten. On overflow the error surfaces
    /// and the keys before the overflowing one stay merged.
    pub fn union_assign_scaled(&mut self, other: &Bag, k: i64) -> Result<(), DataError> {
        if k == 0 || other.is_empty() {
            return Ok(());
        }
        if self.is_empty() && k == 1 {
            // `∅ ⊎ b = b`: the clone shares b's tree.
            *self = other.clone();
            return Ok(());
        }
        for (id, m) in other.ids() {
            let scaled = m
                .checked_mul(k)
                .ok_or(DataError::Overflow { op: "scaled ⊎" })?;
            self.try_insert_id(id, scaled)?;
        }
        Ok(())
    }

    /// Extend-style `⊎`: add every `(value, multiplicity)` pair from an
    /// iterator, summing collisions and dropping zeros. The batch-oriented
    /// sibling of [`Bag::union_assign`], used when coalescing many deltas
    /// without materializing each as a separate bag first.
    pub fn extend_pairs<I: IntoIterator<Item = (Value, i64)>>(&mut self, pairs: I) {
        self.extend_id_pairs(pairs.into_iter().map(|(v, m)| (intern::intern(v), m)));
    }

    /// Id-native [`Bag::extend_pairs`]: the incoming pairs are sorted and
    /// coalesced once, then upserted in key order.
    pub fn extend_id_pairs<I: IntoIterator<Item = (Vid, i64)>>(&mut self, pairs: I) {
        for (id, m) in coalesce_pairs(pairs) {
            self.insert_id(id, m);
        }
    }

    /// Coalesce many bags into one by `⊎` with a k-way merge.
    ///
    /// Each input contributes its canonical sorted run; the runs are merged
    /// in a pairwise tournament (every pair participates in `O(log k)`
    /// linear merges), collisions summed and zeros dropped along the way,
    /// and the winning run is packed into the result's tree with a single
    /// batched retain pass — `O(N log k)` pair moves for `N` total entries,
    /// with none of the per-key tree walks a fold of [`Bag::union`]s
    /// performs. This is the primitive behind batched update coalescing
    /// (`δ(u₁ ⊎ u₂ ⊎ …)` preprocessing).
    ///
    /// ```
    /// use nrc_data::{Bag, Value};
    /// let a = Bag::from_pairs([(Value::int(1), 2)]);
    /// let b = Bag::from_pairs([(Value::int(1), -2), (Value::int(2), 1)]);
    /// let c = Bag::from_pairs([(Value::int(3), 4)]);
    /// let merged = Bag::union_many([&a, &b, &c]);
    /// assert_eq!(merged, a.union(&b).union(&c));
    /// ```
    #[must_use = "`union_many` returns the coalesced bag"]
    pub fn union_many<'a, I: IntoIterator<Item = &'a Bag>>(bags: I) -> Bag {
        let bags: Vec<&Bag> = bags.into_iter().filter(|b| !b.is_empty()).collect();
        match bags.len() {
            0 => return Bag::empty(),
            1 => return bags[0].clone(),
            _ => {}
        }
        // Seed the tournament with every bag's canonical run, then merge
        // pairs of runs until one remains.
        let mut runs: Vec<Vec<(Vid, i64)>> = bags.iter().map(|b| b.ids().collect()).collect();
        while runs.len() > 1 {
            let mut next = Vec::with_capacity(runs.len().div_ceil(2));
            let mut it = runs.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => next.push(merge_runs(a, b).expect("bag multiplicity overflow in ⊎")),
                    None => next.push(a),
                }
            }
            runs = next;
        }
        Bag::from_canonical_pairs(runs.pop().unwrap_or_default())
    }

    /// Bag negation `⊖`: negates every multiplicity.
    #[must_use = "`negate` returns a new bag and leaves `self` unchanged"]
    pub fn negate(&self) -> Bag {
        let pairs = self
            .ids()
            .map(|(id, m)| (id, m.checked_neg().expect("bag multiplicity overflow in ⊖")))
            .collect();
        Bag::from_canonical_pairs(pairs)
    }

    /// Group difference `self ⊎ ⊖(other)` — *not* the truncating bag minus
    /// (which is non-incrementalizable, Appendix A.2); multiplicities may go
    /// negative.
    #[must_use = "`difference` returns a new bag and leaves `self` unchanged"]
    pub fn difference(&self, other: &Bag) -> Bag {
        let mut out = self.clone();
        out.union_assign_scaled(other, -1)
            .expect("bag multiplicity overflow in ⊖");
        out
    }

    /// Multiply every multiplicity by `k` (`k = 0` yields `∅`), failing with
    /// [`DataError::Overflow`] instead of silently wrapping. One linear pass
    /// over the canonical run, one batched retain pass.
    pub fn scale(&self, k: i64) -> Result<Bag, DataError> {
        match k {
            0 => return Ok(Bag::empty()),
            1 => return Ok(self.clone()),
            _ => {}
        }
        let pairs = self
            .ids()
            .map(|(id, m)| {
                m.checked_mul(k)
                    .map(|scaled| (id, scaled))
                    .ok_or(DataError::Overflow { op: "scale" })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Bag::from_canonical_pairs(pairs))
    }

    /// Map every element through `f`, summing multiplicities of collisions.
    #[must_use = "`map` returns a new bag and leaves `self` unchanged"]
    pub fn map<F: FnMut(&Value) -> Value>(&self, mut f: F) -> Bag {
        Bag::from_pairs(self.iter().map(|(v, m)| (f(v), m)))
    }

    /// The delta taking `self` to `target`: `target ⊎ ⊖(self)`.
    ///
    /// This realizes the group property quoted in §3: such a delta always
    /// exists.
    #[must_use = "`delta_to` returns the delta bag without applying it"]
    pub fn delta_to(&self, target: &Bag) -> Bag {
        target.difference(self)
    }

    /// Cartesian product: `{⟨v, w⟩ ↦ m·n | v ↦ m ∈ self, w ↦ n ∈ other}`,
    /// failing with [`DataError::Overflow`] when a multiplicity product
    /// exceeds `i64`.
    pub fn product(&self, other: &Bag) -> Result<Bag, DataError> {
        let mut out = Bag::empty();
        for (v, m) in self.iter() {
            for (w, n) in other.iter() {
                let mult = m
                    .checked_mul(n)
                    .ok_or(DataError::Overflow { op: "product" })?;
                out.insert(Value::pair(v.clone(), w.clone()), mult);
            }
        }
        Ok(out)
    }

    /// Flatten a bag of bags: `⊎_{v ∈ self} v`, weighting each inner bag by
    /// the multiplicity of its occurrence (linear in the input, matching the
    /// `flatten` cost rule of Fig. 5). Id-native: inner elements flow into
    /// the result as interned ids, no value tree is rebuilt.
    pub fn flatten(&self) -> Result<Bag, crate::error::DataError> {
        let mut out = Bag::empty();
        for (id, m) in self.ids() {
            let inner = id.value().as_bag()?;
            out.union_assign_scaled(inner, m)
                .map_err(|_| DataError::Overflow { op: "flatten" })?;
        }
        Ok(out)
    }
}

impl FromIterator<Value> for Bag {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Bag::from_values(iter)
    }
}

impl fmt::Debug for Bag {
    /// Debug renders resolved elements (not raw ids) so test failures stay
    /// readable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl fmt::Display for Bag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, m)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if m == 1 {
                write!(f, "{v}")?;
            } else {
                write!(f, "{v}^{m}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(items: &[(i64, i64)]) -> Bag {
        Bag::from_pairs(items.iter().map(|&(v, m)| (Value::int(v), m)))
    }

    #[test]
    fn empty_and_singleton() {
        assert!(Bag::empty().is_empty());
        let s = Bag::singleton(Value::int(7));
        assert_eq!(s.multiplicity(&Value::int(7)), 1);
        assert_eq!(s.cardinality(), 1);
    }

    #[test]
    fn insert_cancels_to_zero() {
        let mut bag = Bag::empty();
        bag.insert(Value::int(1), 3);
        bag.insert(Value::int(1), -3);
        assert!(bag.is_empty());
        assert_eq!(bag, Bag::empty()); // canonical form ⇒ structural equality
    }

    #[test]
    fn union_sums_multiplicities() {
        let x = b(&[(1, 2), (2, 1)]);
        let y = b(&[(1, -2), (3, 4)]);
        let u = x.union(&y);
        assert_eq!(u, b(&[(2, 1), (3, 4)]));
        // ⊎ is commutative.
        assert_eq!(u, y.union(&x));
    }

    #[test]
    fn group_laws_hold() {
        let x = b(&[(1, 2), (2, -5)]);
        let y = b(&[(2, 5), (9, 1)]);
        let z = b(&[(1, 1)]);
        // associativity, identity, inverse
        assert_eq!(x.union(&y).union(&z), x.union(&y.union(&z)));
        assert_eq!(x.union(&Bag::empty()), x);
        assert_eq!(x.union(&x.negate()), Bag::empty());
    }

    #[test]
    fn delta_to_recovers_target() {
        let old = b(&[(1, 3), (2, 1)]);
        let new = b(&[(1, 1), (5, 2)]);
        let delta = old.delta_to(&new);
        assert_eq!(old.union(&delta), new);
    }

    #[test]
    fn cardinality_counts_absolute_multiplicities() {
        let d = b(&[(1, 3), (2, -2)]);
        assert_eq!(d.cardinality(), 5);
        assert_eq!(d.net_cardinality(), 1);
        assert!(!d.is_proper());
        assert!(b(&[(1, 1)]).is_proper());
    }

    #[test]
    fn product_multiplies_multiplicities() {
        let x = b(&[(1, 2)]);
        let y = b(&[(10, 3)]);
        let p = x.product(&y).unwrap();
        assert_eq!(
            p.multiplicity(&Value::pair(Value::int(1), Value::int(10))),
            6
        );
        assert_eq!(p.distinct_count(), 1);
    }

    #[test]
    fn product_distributes_over_union() {
        let x = b(&[(1, 2), (2, 1)]);
        let y = b(&[(3, 1)]);
        let z = b(&[(3, 2), (4, -1)]);
        assert_eq!(
            x.product(&y.union(&z)).unwrap(),
            x.product(&y).unwrap().union(&x.product(&z).unwrap())
        );
    }

    #[test]
    fn flatten_unions_inner_bags_weighted() {
        let inner1 = b(&[(1, 1), (2, 1)]);
        let inner2 = b(&[(2, 3)]);
        let mut outer = Bag::empty();
        outer.insert(Value::Bag(inner1), 2); // two copies of {1,2}
        outer.insert(Value::Bag(inner2), 1);
        let flat = outer.flatten().unwrap();
        assert_eq!(flat, b(&[(1, 2), (2, 5)]));
    }

    #[test]
    fn flatten_of_non_bag_errors() {
        let outer = Bag::from_values([Value::int(3)]);
        assert!(outer.flatten().is_err());
    }

    #[test]
    fn scale_and_negate() {
        let x = b(&[(1, 2), (2, -1)]);
        assert_eq!(x.scale(3).unwrap(), b(&[(1, 6), (2, -3)]));
        assert_eq!(x.scale(0).unwrap(), Bag::empty());
        assert_eq!(x.negate().negate(), x);
    }

    #[test]
    fn scale_and_product_detect_overflow() {
        let x = b(&[(1, i64::MAX / 2 + 1)]);
        assert_eq!(x.scale(2), Err(DataError::Overflow { op: "scale" }));
        let y = b(&[(2, 2)]);
        assert_eq!(x.product(&y), Err(DataError::Overflow { op: "product" }));
        let mut outer = Bag::empty();
        outer.insert(Value::Bag(x), 2);
        assert_eq!(outer.flatten(), Err(DataError::Overflow { op: "flatten" }));
        let mut acc = Bag::empty();
        assert!(acc.union_assign_scaled(&b(&[(1, i64::MAX)]), 2).is_err());
        // Accumulator-side addition overflow surfaces as an error too (not
        // a panic): MAX + 1.
        let mut acc = b(&[(1, i64::MAX)]);
        assert_eq!(
            acc.union_assign_scaled(&b(&[(1, 1)]), 1),
            Err(DataError::Overflow { op: "⊎" })
        );
        assert_eq!(
            acc.try_insert_id(crate::intern::intern(Value::int(1)), 1),
            Err(DataError::Overflow { op: "⊎" })
        );
    }

    #[test]
    fn iter_expanded_repeats() {
        let x = b(&[(4, 2), (7, 1)]);
        let vs: Vec<i64> = x
            .iter_expanded()
            .map(|v| match v {
                Value::Base(crate::base::BaseValue::Int(i)) => *i,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(vs, vec![4, 4, 7]);
    }

    #[test]
    fn map_merges_collisions() {
        let x = b(&[(1, 2), (-1, 3)]);
        let squared = x.map(|v| match v {
            Value::Base(crate::base::BaseValue::Int(i)) => Value::int(i * i),
            _ => unreachable!(),
        });
        assert_eq!(squared, b(&[(1, 5)]));
    }

    #[test]
    fn union_many_matches_folded_union() {
        let bags = [
            b(&[(1, 2), (2, -1)]),
            b(&[(1, -2), (3, 4)]),
            b(&[(2, 1), (3, -4), (5, 1)]),
            Bag::empty(),
        ];
        let folded = bags.iter().fold(Bag::empty(), |acc, x| acc.union(x));
        assert_eq!(Bag::union_many(bags.iter()), folded);
        assert_eq!(Bag::union_many([]), Bag::empty());
        assert_eq!(Bag::union_many([&bags[0]]), bags[0]);
    }

    #[test]
    fn union_many_cancels_to_canonical_form() {
        let x = b(&[(1, 3), (2, 1)]);
        let nx = x.negate();
        let merged = Bag::union_many([&x, &nx]);
        assert!(merged.is_empty());
        assert_eq!(merged, Bag::empty());
    }

    #[test]
    fn union_many_tournament_matches_fold_for_many_runs() {
        // Seven bags of staggered overlap: the pairwise tournament must
        // agree with a left fold of binary unions, including interior
        // cancellations.
        let bags: Vec<Bag> = (0..7i64)
            .map(|i| {
                b(&[
                    (i, i + 1),
                    (i + 1, -(i + 1)),
                    (100 + (i % 3), 2),
                    (50, if i % 2 == 0 { 1 } else { -1 }),
                ])
            })
            .collect();
        let folded = bags.iter().fold(Bag::empty(), |acc, x| acc.union(x));
        assert_eq!(Bag::union_many(bags.iter()), folded);
    }

    #[test]
    fn extend_pairs_sums_collisions() {
        let mut bag = b(&[(1, 1)]);
        bag.extend_pairs([(Value::int(1), 2), (Value::int(2), 1), (Value::int(2), -1)]);
        assert_eq!(bag, b(&[(1, 3)]));
    }

    #[test]
    fn id_native_api_matches_value_api() {
        let mut by_value = Bag::empty();
        let mut by_id = Bag::empty();
        for (v, m) in [
            (Value::int(3), 2),
            (Value::str("x"), -1),
            (Value::int(3), 1),
        ] {
            by_value.insert(v.clone(), m);
            by_id.insert_id(crate::intern::intern(v), m);
        }
        assert_eq!(by_value, by_id);
        assert_eq!(
            by_value.multiplicity_id(crate::intern::intern(Value::int(3))),
            3
        );
        let ids: Vec<_> = by_value.ids().collect();
        let values: Vec<_> = by_value.iter().collect();
        assert_eq!(ids.len(), values.len());
        for ((id, im), (v, vm)) in ids.iter().zip(&values) {
            assert_eq!(id.value(), *v);
            assert_eq!(im, vm);
        }
        assert_eq!(Bag::from_id_pairs(ids), by_value);
    }

    #[test]
    fn union_assign_scaled_matches_scale_then_union() {
        let mut acc = b(&[(1, 1), (2, 2)]);
        let rhs = b(&[(1, 2), (3, -1)]);
        let mut expected = acc.clone();
        expected.union_assign(&rhs.scale(-3).unwrap());
        acc.union_assign_scaled(&rhs, -3).unwrap();
        assert_eq!(acc, expected);
    }

    #[test]
    fn display_shows_multiplicities() {
        let x = b(&[(1, 1), (2, 3)]);
        assert_eq!(x.to_string(), "{1, 2^3}");
    }

    #[test]
    fn bags_nest_and_order() {
        let inner_a = Value::Bag(b(&[(1, 1)]));
        let inner_b = Value::Bag(b(&[(2, 1)]));
        let outer = Bag::from_values([inner_a.clone(), inner_b.clone()]);
        assert_eq!(outer.multiplicity(&inner_a), 1);
        assert!(inner_a < inner_b);
    }

    #[test]
    fn equal_contents_in_different_tree_shapes_are_interchangeable() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let n = 2_000i64;
        // `big` grows key by key into a multi-level tree; `shrunk` is the
        // same content reached by cancelling `big` down, so its tree has a
        // different history (and shape) from the freshly packed `small`.
        let mut big = Bag::empty();
        for i in 0..n {
            big.insert(Value::int(i), 2);
        }
        let mut shrunk = big.clone();
        for i in 3..n {
            shrunk.insert(Value::int(i), -2);
        }
        let small = b(&[(0, 2), (1, 2), (2, 2)]);
        assert_eq!(small, shrunk);
        assert_eq!(small.cmp(&shrunk), std::cmp::Ordering::Equal);
        let hash_of = |bag: &Bag| {
            let mut h = DefaultHasher::new();
            bag.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash_of(&small), hash_of(&shrunk));
        assert_eq!(
            small.ids().collect::<Vec<_>>(),
            shrunk.ids().collect::<Vec<_>>()
        );
        // The cancellations left the clone taken before them untouched.
        assert_eq!(big.distinct_count(), n as usize);
        let mut mixed = shrunk.union(&small);
        assert_eq!(mixed, small.scale(2).unwrap());
        mixed.union_assign_scaled(&small, -2).unwrap();
        assert!(mixed.is_empty());
        // Ord is the lexicographic pair order.
        let smaller = b(&[(0, 1)]);
        assert!(smaller < small);
        assert_eq!(small.partial_cmp(&shrunk), Some(std::cmp::Ordering::Equal));
    }

    #[test]
    fn overflow_mid_union_surfaces_and_orphans_no_retain() {
        let _serial = intern::gc_test_serial();
        let vals: Vec<Value> = (0..4)
            .map(|i| Value::str(format!("gc-bag-overflow-{i}")))
            .collect();
        let ids: Vec<Vid> = vals.iter().map(|v| intern::intern(v.clone())).collect();
        let mut bag = Bag::from_id_pairs([(ids[0], 1), (ids[1], i64::MAX)]);
        let delta = Bag::from_id_pairs([(ids[1], 1), (ids[2], 5)]);
        let scaled = Bag::from_id_pairs([(ids[3], i64::MAX)]);
        let before = bag.clone();
        // Whichever of ids[1] / ids[2] comes first in key order, ids[1]
        // overflows and the bag keeps its old multiplicity there.
        assert_eq!(
            bag.union_assign_scaled(&delta, 1),
            Err(DataError::Overflow { op: "⊎" })
        );
        assert_eq!(bag.multiplicity_id(ids[0]), 1);
        assert_eq!(bag.multiplicity_id(ids[1]), i64::MAX);
        assert_eq!(
            bag.union_assign_scaled(&scaled, 2),
            Err(DataError::Overflow { op: "scaled ⊎" })
        );
        assert_eq!(bag.multiplicity_id(ids[3]), 0);
        // Every retain is owned by a live bag: dropping them all leaves
        // every slot collectible.
        drop((bag, before, delta, scaled));
        intern::collect_now();
        for v in &vals {
            assert!(
                intern::lookup(v).is_none(),
                "a failed ⊎ must leave no retain behind"
            );
        }
    }

    #[test]
    fn cancelled_keys_are_released() {
        let _serial = intern::gc_test_serial();
        let gone = Value::str("gc-bag-cancelled-gone");
        let kept = Value::str("gc-bag-cancelled-kept");
        let mut bag = Bag::from_pairs([(gone.clone(), 2), (kept.clone(), 1)]);
        // Cancel under a clone too: the clone's copy of the leaf keeps the
        // key until the clone drops.
        let held = bag.clone();
        bag.union_assign_scaled(&Bag::from_pairs([(gone.clone(), 1)]), -2)
            .unwrap();
        assert_eq!(bag.distinct_count(), 1);
        drop(held);
        intern::collect_now();
        assert!(
            intern::lookup(&gone).is_none(),
            "cancelled key stays retained"
        );
        assert!(intern::lookup(&kept).is_some());
        assert_eq!(bag.multiplicity(&kept), 1);
    }
}
