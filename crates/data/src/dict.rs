//! Labels and label dictionaries (§5.1–5.2, Appendix C.2–C.3).
//!
//! Shredding replaces every inner bag by a **label** and separately maintains
//! a **dictionary** mapping labels to (flat) bag definitions. Two ways of
//! combining dictionaries exist and must not be conflated:
//!
//! * **addition `⊎`** — pointwise bag addition; this is how *updates* reach
//!   inner bags ("deep updates" become plain bag union on a definition);
//! * **label union `∪`** — support union; definitions of labels present on
//!   both sides must *agree*, otherwise the operation errors. `∪` is what the
//!   shredded form of `e₁ ⊎ e₂` uses on contexts and can never modify a
//!   definition.
//!
//! The support set is explicit: a label defined to be the empty bag
//! (`[l ↦ ∅]`) is different from an undefined label (`[]`).
//!
//! Since the hash-consing refactor the support is keyed by interned label
//! ids ([`Vid`]s resolving to [`Value::Label`]): membership tests and entry
//! merges compare a `u32`, and the definition-agreement check of `∪` is a
//! shallow id-keyed bag comparison. Label-level accessors resolve on read.

use crate::bag::Bag;
use crate::error::DataError;
use crate::intern::{self, Vid};
use crate::livemap::VidMap;
use crate::value::Value;
use std::fmt;

/// A label `⟨ι, ε⟩`: a static index `ι` identifying the `sng` occurrence (or
/// input inner bag family) that created it, paired with the value assignment
/// `ε` of the free comprehension variables at creation time (§5.1).
///
/// Incorporating `ε` in the label lets labels be created independently of
/// their defining dictionary and guarantees one definition per distinct
/// assignment.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label {
    /// The static index `ι`.
    pub index: u32,
    /// The value assignment `ε` — a vector of *flat* values (base values or
    /// labels) for the free variables of the defining expression.
    pub args: Vec<Value>,
}

impl Label {
    /// Create a label `⟨ι, ε⟩`.
    pub fn new(index: u32, args: Vec<Value>) -> Label {
        Label { index, args }
    }

    /// A label with no arguments (used for input inner bags, whose index is
    /// allocated freshly per bag value — Fig. 9's `D_C`).
    pub fn atomic(index: u32) -> Label {
        Label {
            index,
            args: vec![],
        }
    }

    /// Are all argument values flat (base values or labels)? Tuple arguments
    /// of flat components are also allowed, mirroring `ε : Π` being a tuple
    /// assignment.
    pub fn args_are_flat(&self) -> bool {
        fn flat(v: &Value) -> bool {
            match v {
                Value::Base(_) | Value::Label(_) => true,
                Value::Tuple(vs) => vs.iter().all(flat),
                Value::Bag(_) | Value::Dict(_) => false,
            }
        }
        self.args.iter().all(flat)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨ι{}", self.index)?;
        for a in &self.args {
            write!(f, ", {a}")?;
        }
        write!(f, "⟩")
    }
}

/// A label dictionary `L ↦ Bag(B)` with an explicit support set.
///
/// Entries map interned label ids to bag definitions; presence in the map
/// *is* membership in the support (`supp`), so `[l ↦ ∅]` is representable
/// and distinct from `[]`. Iteration stays in canonical label order (`Ord`
/// on [`Vid`] refines `Ord` on `Label`).
/// Like a [`Bag`], the entry map is the crate's persistent
/// (path-copying) `VidMap`: a clone shares every node, so snapshotting
/// shredded stores is `O(1)`, and the next write into a shared dictionary
/// copies only the path to the label it touches. Like `Bag`'s, the key set
/// participates in arena reclamation (label slots are retained while in a
/// support, released when dropped).
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dictionary {
    entries: VidMap<Bag>,
}

impl Dictionary {
    /// The empty dictionary `[]` (empty support).
    pub fn empty() -> Dictionary {
        Dictionary::default()
    }

    /// The one-entry dictionary `[l ↦ bag]`.
    pub fn singleton(l: Label, bag: Bag) -> Dictionary {
        let mut d = Dictionary::empty();
        d.define(l, bag);
        d
    }

    /// Build from `(label, bag)` pairs; later pairs for the same label are
    /// *added* (`⊎`) into the earlier definition.
    pub fn from_pairs<I: IntoIterator<Item = (Label, Bag)>>(pairs: I) -> Dictionary {
        let mut d = Dictionary::empty();
        for (l, b) in pairs {
            d.add_entry(l, &b);
        }
        d
    }

    /// Define (or overwrite) the entry for `l`.
    pub fn define(&mut self, l: Label, bag: Bag) {
        self.define_id(intern::intern_label(l), bag);
    }

    /// Id-native [`Dictionary::define`]. Panics if `l` does not resolve to
    /// a label — catching the misuse at the call site instead of corrupting
    /// the support and failing later during iteration.
    pub fn define_id(&mut self, l: Vid, bag: Bag) {
        assert!(
            matches!(l.value(), Value::Label(_)),
            "dictionary key {l:?} does not resolve to a label"
        );
        self.entries.insert(l, bag);
    }

    /// Add `bag` into the definition of `l` via `⊎`, defining it if absent.
    pub fn add_entry(&mut self, l: Label, bag: &Bag) {
        self.add_entry_id(intern::intern_label(l), bag);
    }

    /// Id-native [`Dictionary::add_entry`]. Panics if `l` does not resolve
    /// to a label (see [`Dictionary::define_id`]).
    pub fn add_entry_id(&mut self, l: Vid, bag: &Bag) {
        assert!(
            matches!(l.value(), Value::Label(_)),
            "dictionary key {l:?} does not resolve to a label"
        );
        self.entries
            .update_or_default(l, |definition| definition.union_assign(bag));
    }

    /// The interned id of `l`, if its support could ever contain it (labels
    /// never interned are in no dictionary).
    fn label_id(l: &Label) -> Option<Vid> {
        intern::lookup_label(l)
    }

    /// Is `l` in the support?
    pub fn defines(&self, l: &Label) -> bool {
        Self::label_id(l).is_some_and(|id| self.entries.contains_key(id))
    }

    /// Look up the definition of `l`; `None` when `l ∉ supp`.
    pub fn get(&self, l: &Label) -> Option<&Bag> {
        self.entries.get(Self::label_id(l)?)
    }

    /// Id-native [`Dictionary::get`].
    pub fn get_id(&self, l: Vid) -> Option<&Bag> {
        self.entries.get(l)
    }

    /// Look up the definition of `l`, erroring on undefined labels (a
    /// consistency violation, Appendix C.3).
    pub fn lookup(&self, l: &Label) -> Result<&Bag, DataError> {
        self.get(l)
            .ok_or_else(|| DataError::UndefinedLabel { label: l.clone() })
    }

    /// As a total function: `∅` outside the support (the semantics of
    /// dictionary expressions `[(ι,Π) ↦ e]` in §5.2 return `{}` for
    /// non-matching indices).
    pub fn lookup_total(&self, l: &Label) -> Bag {
        self.get(l).cloned().unwrap_or_default()
    }

    /// Number of labels in the support.
    pub fn support_size(&self) -> usize {
        self.entries.len()
    }

    /// Is the support empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over the support in canonical order.
    pub fn support(&self) -> impl Iterator<Item = &Label> {
        self.entries.iter().map(|(id, _)| id.as_label())
    }

    /// Iterate over `(label, definition)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&Label, &Bag)> {
        self.entries.iter().map(|(id, b)| (id.as_label(), b))
    }

    /// Iterate over `(label id, definition)` pairs in canonical order — the
    /// id-native sibling of [`Dictionary::iter`].
    pub fn entry_ids(&self) -> impl Iterator<Item = (Vid, &Bag)> {
        self.entries.iter()
    }

    /// The smallest label id in the support, if any (the interner's rank
    /// seed for dictionaries-as-values).
    pub(crate) fn first_label_id(&self) -> Option<Vid> {
        self.entries.iter().next().map(|(id, _)| id)
    }

    /// Dictionary addition `⊎`: pointwise bag addition, support union.
    ///
    /// This is the operation that can *modify* definitions and therefore
    /// implements deep updates. Entries whose bags cancel to `∅` remain in
    /// the support (the label is still defined, just empty).
    #[must_use = "`add` returns a new dictionary and leaves `self` unchanged"]
    pub fn add(&self, other: &Dictionary) -> Dictionary {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// In-place dictionary addition.
    pub fn add_assign(&mut self, other: &Dictionary) {
        if other.is_empty() {
            return;
        }
        for (id, b) in other.entry_ids() {
            self.entries
                .update_or_default(id, |definition| definition.union_assign(b));
        }
    }

    /// Batched in-place addition: `self ⊎= d₁ ⊎ d₂ ⊎ …` with the map
    /// unshared once for the whole batch. All per-label contributions are
    /// collected into one flat sorted run (no per-label `Vec` allocation)
    /// and each touched definition is merged through the k-way kernel of
    /// [`Bag::union_many`] in a single pass over its group.
    pub fn add_assign_many<'a, I: IntoIterator<Item = &'a Dictionary>>(&mut self, others: I) {
        let mut contribs: Vec<(Vid, &Bag)> =
            others.into_iter().flat_map(|d| d.entry_ids()).collect();
        if contribs.is_empty() {
            return;
        }
        // Stable sort keeps each label's deltas in arrival order; equal
        // labels become one contiguous group.
        contribs.sort_by_key(|&(id, _)| id);
        let mut at = 0;
        while at < contribs.len() {
            let (id, first) = contribs[at];
            let mut end = at + 1;
            while end < contribs.len() && contribs[end].0 == id {
                end += 1;
            }
            let group = &contribs[at..end];
            self.entries.update_or_default(id, |entry| {
                if group.len() == 1 {
                    entry.union_assign(first);
                } else {
                    *entry = Bag::union_many(
                        std::iter::once(&*entry).chain(group.iter().map(|&(_, b)| b)),
                    );
                }
            });
            at = end;
        }
    }

    /// Pointwise negation `⊖` (negates every definition, keeps support).
    #[must_use = "`negate` returns a new dictionary and leaves `self` unchanged"]
    pub fn negate(&self) -> Dictionary {
        Dictionary {
            entries: self
                .entries
                .iter()
                .map(|(id, b)| (id, b.negate()))
                .collect(),
        }
    }

    /// Label union `∪` (§5.2): support union; a label defined on both sides
    /// must have *equal* definitions, otherwise
    /// [`DataError::DictUnionConflict`] is returned.
    pub fn label_union(&self, other: &Dictionary) -> Result<Dictionary, DataError> {
        if other.is_empty() {
            return Ok(self.clone());
        }
        let mut out = self.clone();
        for (id, b) in other.entry_ids() {
            match out.entries.get(id) {
                None => out.entries.insert(id, b.clone()),
                // Id-keyed bags compare shallowly (`Vid` equality per
                // entry), so the §5.2 agreement check is cheap.
                Some(existing) if existing == b => {}
                Some(_) => {
                    return Err(DataError::DictUnionConflict {
                        label: id.as_label().clone(),
                    });
                }
            }
        }
        Ok(out)
    }

    /// Restrict to labels satisfying `keep` (used by domain maintenance to
    /// garbage-collect definitions whose labels no longer occur in any flat
    /// view).
    pub fn retain<F: FnMut(&Label) -> bool>(&mut self, mut keep: F) {
        self.entries.retain_entries(|id, _| keep(id.as_label()));
    }

    /// Take `l` out of the support, returning its definition (`None` when
    /// it was not defined; nothing is copied then). Domain maintenance drops
    /// a label this way the moment its last reference goes.
    pub fn remove(&mut self, l: &Label) -> Option<Bag> {
        let id = Self::label_id(l)?;
        let definition = self.entries.get(id)?.clone();
        self.entries
            .upsert_with::<std::convert::Infallible>(id, |_| Ok(None))
            .unwrap_or_else(|never| match never {});
        Some(definition)
    }

    /// Total cardinality of all definitions (sum of absolute multiplicities).
    pub fn total_cardinality(&self) -> u64 {
        self.entries.iter().map(|(_, b)| b.cardinality()).sum()
    }
}

impl fmt::Debug for Dictionary {
    /// Debug renders resolved labels (not raw ids) so test failures stay
    /// readable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl fmt::Display for Dictionary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (l, b)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l} ↦ {b}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(items: &[&str]) -> Bag {
        Bag::from_values(items.iter().map(|s| Value::str(*s)))
    }

    fn l(i: u32) -> Label {
        Label::atomic(i)
    }

    // The worked examples of Appendix C.2.
    #[test]
    fn appendix_c2_label_union_agreeing() {
        let d1 = Dictionary::from_pairs([(l(1), bag(&["b1"])), (l(2), bag(&["b2", "b3"]))]);
        let d2 = Dictionary::from_pairs([(l(2), bag(&["b2", "b3"])), (l(3), bag(&["b4"]))]);
        let u = d1.label_union(&d2).unwrap();
        assert_eq!(u.support_size(), 3);
        assert_eq!(u.get(&l(2)), Some(&bag(&["b2", "b3"])));
    }

    #[test]
    fn appendix_c2_addition_doubles_shared_definitions() {
        let d1 = Dictionary::from_pairs([(l(1), bag(&["b1"])), (l(2), bag(&["b2", "b3"]))]);
        let d2 = Dictionary::from_pairs([(l(2), bag(&["b2", "b3"])), (l(3), bag(&["b4"]))]);
        let s = d1.add(&d2);
        // l2 ↦ {b2², b3²}
        assert_eq!(s.get(&l(2)).unwrap().multiplicity(&Value::str("b2")), 2);
        assert_eq!(s.get(&l(2)).unwrap().multiplicity(&Value::str("b3")), 2);
    }

    #[test]
    fn appendix_c2_label_union_conflict_errors() {
        let d1 = Dictionary::from_pairs([(l(2), bag(&["b2", "b3"]))]);
        let d2 = Dictionary::from_pairs([(l(2), bag(&["b5"]))]);
        let err = d1.label_union(&d2).unwrap_err();
        assert_eq!(err, DataError::DictUnionConflict { label: l(2) });
    }

    #[test]
    fn appendix_c2_addition_merges_conflicting_definitions() {
        let d1 = Dictionary::from_pairs([(l(2), bag(&["b2", "b3"]))]);
        let d2 = Dictionary::from_pairs([(l(2), bag(&["b5"]))]);
        let s = d1.add(&d2);
        assert_eq!(s.get(&l(2)), Some(&bag(&["b2", "b3", "b5"])));
    }

    #[test]
    fn empty_definition_differs_from_undefined() {
        let defined_empty = Dictionary::singleton(l(1), Bag::empty());
        let undefined = Dictionary::empty();
        assert_ne!(defined_empty, undefined);
        assert!(defined_empty.defines(&l(1)));
        assert!(!undefined.defines(&l(1)));
        assert_eq!(defined_empty.lookup_total(&l(1)), Bag::empty());
        assert!(undefined.lookup(&l(1)).is_err());
    }

    #[test]
    fn addition_keeps_cancelled_entries_in_support() {
        let d = Dictionary::singleton(l(1), bag(&["x"]));
        let neg = d.negate();
        let sum = d.add(&neg);
        assert!(sum.defines(&l(1)));
        assert_eq!(sum.get(&l(1)), Some(&Bag::empty()));
    }

    #[test]
    fn add_is_commutative_and_associative() {
        let a = Dictionary::singleton(l(1), bag(&["x"]));
        let b = Dictionary::from_pairs([(l(1), bag(&["y"])), (l(2), bag(&["z"]))]);
        let c = Dictionary::singleton(l(2), bag(&["w"]));
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn add_assign_many_matches_folded_addition() {
        let base = Dictionary::from_pairs([(l(1), bag(&["a"])), (l(2), bag(&["b"]))]);
        let d1 = Dictionary::from_pairs([(l(1), bag(&["x"])), (l(3), bag(&["c"]))]);
        let d2 = Dictionary::from_pairs([(l(1), bag(&["y"])), (l(2), bag(&["b"]))]);
        let folded = base.add(&d1).add(&d2);
        let mut batched = base.clone();
        batched.add_assign_many([&d1, &d2]);
        assert_eq!(batched, folded);
        // Empty batch is a no-op.
        let mut same = base.clone();
        same.add_assign_many([]);
        assert_eq!(same, base);
    }

    #[test]
    fn labels_order_and_display() {
        let la = Label::new(1, vec![Value::str("Drive")]);
        let lb = Label::new(1, vec![Value::str("Rush")]);
        assert!(la < lb);
        assert_eq!(la.to_string(), "⟨ι1, \"Drive\"⟩");
        assert!(la.args_are_flat());
        let bad = Label::new(2, vec![Value::Bag(Bag::empty())]);
        assert!(!bad.args_are_flat());
    }

    #[test]
    fn retain_filters_support() {
        let mut d = Dictionary::from_pairs([(l(1), bag(&["a"])), (l(2), bag(&["b"]))]);
        d.retain(|lab| lab.index == 2);
        assert!(!d.defines(&l(1)));
        assert!(d.defines(&l(2)));
    }

    #[test]
    fn total_cardinality_sums_definitions() {
        let d = Dictionary::from_pairs([(l(1), bag(&["a", "b"])), (l(2), bag(&["c"]))]);
        assert_eq!(d.total_cardinality(), 3);
    }

    #[test]
    fn id_native_entries_match_label_entries() {
        let d = Dictionary::from_pairs([(l(3), bag(&["a"])), (l(1), bag(&["b"]))]);
        // Canonical order: ι1 before ι3.
        let labels: Vec<&Label> = d.support().collect();
        assert_eq!(labels, vec![&l(1), &l(3)]);
        for (id, b) in d.entry_ids() {
            assert_eq!(d.get_id(id), Some(b));
            assert_eq!(d.get(id.as_label()), Some(b));
        }
        let probe = Label::new(99, vec![Value::str("never-interned-label-arg-z9")]);
        assert!(!d.defines(&probe));
        assert!(d.get(&probe).is_none());
    }
}
