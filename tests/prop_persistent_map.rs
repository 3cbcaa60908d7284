//! Model-based properties of the persistent (path-copying) tree tier
//! behind `Bag` and `Dictionary` (`nrc_data`'s crate-private `VidMap`).
//!
//! Random interleavings of point inserts, upserts to zero, `⊎`, scaled
//! `⊎`, group difference, dictionary definition/addition/`retain`, bulk
//! growth across the small→tree promotion and mass deletion run against a
//! plain `BTreeMap` model, with clones taken and dropped along the way:
//!
//! * the live map equals the model after every step, in content and in
//!   iteration order;
//! * every held clone equals the model *as it was when the clone was
//!   taken*, however much the original was written to since — a clone is
//!   a snapshot, and path copying must never write through a shared node;
//! * the arena balances: once everything is dropped and swept, the live
//!   slot count is back at its pre-case baseline — no retain leaked by a
//!   copied, split or merged node, none released twice;
//! * with bounded GC running between steps, no search ever meets a
//!   reclaimed separator (`Vid`'s `Ord` panics on a stale id).
//!
//! The arena is process-global, so cases serialize and use per-case
//! payloads (see `tests/common`).

mod common;

use common::{drain, fresh_case, payload, serial};
use nrc_data::{intern, Bag, Dictionary, Label, Value, Vid};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Elements are drawn from `0..ELEMS`: wide enough for a three-level tree.
const ELEMS: u16 = 1500;
/// Labels are drawn from `0..LABELS`: wide enough for the support to split.
const LABELS: u16 = 150;

type Pairs = Vec<(u16, i64)>;
type BagModel = BTreeMap<Vid, i64>;

fn arb_pairs() -> impl Strategy<Value = Pairs> {
    prop::collection::vec((0..ELEMS, -3i64..4), 0..10)
}

/// A step shared by both suites: hold a clone, drop one, or collect.
#[derive(Clone, Debug)]
enum Hold {
    Take,
    Drop(usize),
    /// One bounded collection increment of at most this many slots.
    Collect(u64),
}

fn arb_hold() -> impl Strategy<Value = Hold> {
    prop_oneof![
        Just(Hold::Take),
        (0usize..8).prop_map(Hold::Drop),
        (1u64..64).prop_map(Hold::Collect),
    ]
}

#[derive(Clone, Debug)]
enum BagOp {
    Insert(u16, i64),
    /// Upsert to zero: cancel the element's whole multiplicity.
    Cancel(u16),
    Union(Pairs),
    UnionScaled(Pairs, i64),
    Diff(Pairs),
    /// `⊎` a run of 600 consecutive elements from here: crosses the
    /// promotion threshold and splits leaves and branches.
    Widen(u16),
    /// Group difference with everything but every `n`-th element: mass
    /// deletion, merging sparse siblings and collapsing the root.
    Thin(usize),
    Hold(Hold),
}

fn arb_bag_op() -> impl Strategy<Value = BagOp> {
    prop_oneof![
        (0..ELEMS, -3i64..4).prop_map(|(e, m)| BagOp::Insert(e, m)),
        (0..ELEMS).prop_map(BagOp::Cancel),
        (0..ELEMS).prop_map(BagOp::Cancel),
        arb_pairs().prop_map(BagOp::Union),
        (arb_pairs(), -2i64..3).prop_map(|(p, k)| BagOp::UnionScaled(p, k)),
        arb_pairs().prop_map(BagOp::Diff),
        (0..ELEMS - 600).prop_map(BagOp::Widen),
        (2usize..40).prop_map(BagOp::Thin),
        arb_hold().prop_map(BagOp::Hold),
        arb_hold().prop_map(BagOp::Hold),
    ]
}

fn model_add(model: &mut BagModel, id: Vid, m: i64) {
    let v = model.entry(id).or_insert(0);
    *v += m;
    if *v == 0 {
        model.remove(&id);
    }
}

fn bag_pairs(bag: &Bag) -> Vec<(Vid, i64)> {
    bag.ids().collect()
}

fn model_pairs(model: &BagModel) -> Vec<(Vid, i64)> {
    model.iter().map(|(&id, &m)| (id, m)).collect()
}

/// Retain and release every slot the case may have interned without ever
/// storing it (a zero-multiplicity insert, a label only looked up), so
/// that the final sweep can reclaim all of them.
fn cycle_universe(ids: impl Iterator<Item = Vid>) {
    drop(Bag::from_id_pairs(ids.map(|id| (id, 1))));
}

#[derive(Clone, Debug)]
enum DictOp {
    Define(u16, Pairs),
    AddEntry(u16, Pairs),
    AddAssign(Vec<(u16, Pairs)>),
    AddMany(Vec<Vec<(u16, Pairs)>>),
    /// Define 60 consecutive labels from here.
    Widen(u16),
    /// `retain` the labels whose number is not `residue` modulo `modulus`.
    Retain(u16, u16),
    /// `retain` only every `n`-th label: mass deletion.
    Thin(u16),
    Hold(Hold),
}

fn arb_entries() -> impl Strategy<Value = Vec<(u16, Pairs)>> {
    prop::collection::vec((0..LABELS, arb_pairs()), 0..5)
}

fn arb_dict_op() -> impl Strategy<Value = DictOp> {
    prop_oneof![
        (0..LABELS, arb_pairs()).prop_map(|(l, p)| DictOp::Define(l, p)),
        (0..LABELS, arb_pairs()).prop_map(|(l, p)| DictOp::AddEntry(l, p)),
        arb_entries().prop_map(DictOp::AddAssign),
        prop::collection::vec(arb_entries(), 0..3).prop_map(DictOp::AddMany),
        (0..LABELS - 60).prop_map(DictOp::Widen),
        (2u16..7, 0u16..7).prop_map(|(m, r)| DictOp::Retain(m, r % m)),
        (2u16..30).prop_map(DictOp::Thin),
        arb_hold().prop_map(DictOp::Hold),
        arb_hold().prop_map(DictOp::Hold),
    ]
}

type DictModel = BTreeMap<Vid, BagModel>;

fn dict_pairs(d: &Dictionary) -> Vec<(Vid, Vec<(Vid, i64)>)> {
    d.entry_ids().map(|(l, b)| (l, bag_pairs(b))).collect()
}

fn dict_model_pairs(model: &DictModel) -> Vec<(Vid, Vec<(Vid, i64)>)> {
    model.iter().map(|(&l, b)| (l, model_pairs(b))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(24))]

    #[test]
    fn bag_and_its_clones_follow_the_model(ops in prop::collection::vec(arb_bag_op(), 1..48)) {
        let _serial = serial();
        drain();
        let baseline = intern::arena_stats().live;
        let case = fresh_case();
        let vid = |e: u16| intern::intern(payload("prop-pmap", case, e));
        let as_bag = |pairs: &[(u16, i64)]| {
            Bag::from_id_pairs(pairs.iter().map(|&(e, m)| (vid(e), m)))
        };
        let mut bag = Bag::empty();
        let mut model = BagModel::new();
        let mut held: Vec<(Bag, BagModel)> = Vec::new();
        for op in &ops {
            match op {
                BagOp::Insert(e, m) => {
                    let id = vid(*e);
                    bag.insert_id(id, *m);
                    model_add(&mut model, id, *m);
                }
                BagOp::Cancel(e) => {
                    let id = vid(*e);
                    let m = bag.multiplicity_id(id);
                    prop_assert_eq!(m, model.get(&id).copied().unwrap_or(0));
                    bag.insert_id(id, -m);
                    model.remove(&id);
                }
                BagOp::Union(pairs) => {
                    bag.union_assign(&as_bag(pairs));
                    for &(e, m) in pairs {
                        model_add(&mut model, vid(e), m);
                    }
                }
                BagOp::UnionScaled(pairs, k) => {
                    bag.union_assign_scaled(&as_bag(pairs), *k).expect("small multiplicities");
                    for &(e, m) in pairs {
                        model_add(&mut model, vid(e), m * k);
                    }
                }
                BagOp::Diff(pairs) => {
                    bag = bag.difference(&as_bag(pairs));
                    for &(e, m) in pairs {
                        model_add(&mut model, vid(e), -m);
                    }
                }
                BagOp::Widen(from) => {
                    let run: Pairs = (*from..from + 600).map(|e| (e, 1)).collect();
                    bag.union_assign(&as_bag(&run));
                    for &(e, m) in &run {
                        model_add(&mut model, vid(e), m);
                    }
                }
                BagOp::Thin(n) => {
                    let doomed: Vec<(Vid, i64)> = bag
                        .ids()
                        .enumerate()
                        .filter(|(i, _)| i % n != 0)
                        .map(|(_, pair)| pair)
                        .collect();
                    bag = bag.difference(&Bag::from_id_pairs(doomed.iter().copied()));
                    for (id, m) in doomed {
                        model_add(&mut model, id, -m);
                    }
                }
                BagOp::Hold(Hold::Take) => held.push((bag.clone(), model.clone())),
                BagOp::Hold(Hold::Drop(i)) => {
                    if !held.is_empty() {
                        held.swap_remove(i % held.len());
                    }
                }
                BagOp::Hold(Hold::Collect(max_slots)) => {
                    intern::collect_bounded_now(*max_slots);
                }
            }
            prop_assert_eq!(bag_pairs(&bag), model_pairs(&model), "live bag diverged after {:?}", op);
            prop_assert_eq!(bag.distinct_count(), model.len());
            for (i, (clone, at_clone_time)) in held.iter().enumerate() {
                prop_assert_eq!(
                    bag_pairs(clone),
                    model_pairs(at_clone_time),
                    "held clone {} changed after {:?}", i, op
                );
            }
        }
        // Point reads agree with the model on hits and on misses.
        for e in (0..ELEMS).step_by(7) {
            let id = vid(e);
            prop_assert_eq!(bag.multiplicity_id(id), model.get(&id).copied().unwrap_or(0));
        }
        drop((bag, model, held));
        cycle_universe((0..ELEMS).map(vid));
        drain();
        prop_assert_eq!(intern::arena_stats().live, baseline, "arena out of balance");
    }

    #[test]
    fn dictionary_and_its_clones_follow_the_model(ops in prop::collection::vec(arb_dict_op(), 1..40)) {
        let _serial = serial();
        drain();
        let baseline = intern::arena_stats().live;
        let case = fresh_case();
        let vid = |e: u16| intern::intern(payload("prop-pmap-d", case, e));
        let label = |l: u16| Label::new(7, vec![Value::str(format!("prop-pmap-{case}")), Value::int(l as i64)]);
        let lid = |l: u16| intern::intern_label(label(l));
        let as_bag = |pairs: &[(u16, i64)]| {
            Bag::from_id_pairs(pairs.iter().map(|&(e, m)| (vid(e), m)))
        };
        let as_dict = |entries: &[(u16, Pairs)]| {
            Dictionary::from_pairs(entries.iter().map(|(l, pairs)| (label(*l), as_bag(pairs))))
        };
        let add = |model: &mut DictModel, entries: &[(u16, Pairs)]| {
            for (l, pairs) in entries {
                let def = model.entry(lid(*l)).or_default();
                for &(e, m) in pairs {
                    model_add(def, vid(e), m);
                }
            }
        };
        let mut dict = Dictionary::empty();
        let mut model = DictModel::new();
        let mut held: Vec<(Dictionary, DictModel)> = Vec::new();
        for op in &ops {
            match op {
                DictOp::Define(l, pairs) => {
                    dict.define(label(*l), as_bag(pairs));
                    model.remove(&lid(*l));
                    add(&mut model, &[(*l, pairs.clone())]);
                }
                DictOp::AddEntry(l, pairs) => {
                    dict.add_entry(label(*l), &as_bag(pairs));
                    add(&mut model, &[(*l, pairs.clone())]);
                }
                DictOp::AddAssign(entries) => {
                    dict.add_assign(&as_dict(entries));
                    add(&mut model, entries);
                }
                DictOp::AddMany(dicts) => {
                    let others: Vec<Dictionary> = dicts.iter().map(|d| as_dict(d)).collect();
                    dict.add_assign_many(others.iter());
                    for entries in dicts {
                        add(&mut model, entries);
                    }
                }
                DictOp::Widen(from) => {
                    for l in *from..from + 60 {
                        dict.define(label(l), as_bag(&[(l, 1)]));
                        model.insert(lid(l), BagModel::from([(vid(l), 1)]));
                    }
                }
                DictOp::Retain(modulus, residue) => {
                    let keep = |l: &Label| match l.args[1] {
                        Value::Base(nrc_data::BaseValue::Int(n)) => n as u16 % modulus != *residue,
                        _ => unreachable!("labels carry their number"),
                    };
                    dict.retain(keep);
                    model.retain(|l, _| keep(match l.value() {
                        Value::Label(l) => l,
                        _ => unreachable!("dictionary keys are labels"),
                    }));
                }
                DictOp::Thin(n) => {
                    let mut nth = 0u16;
                    dict.retain(|_| {
                        nth += 1;
                        nth % n == 0
                    });
                    let mut nth = 0u16;
                    model.retain(|_, _| {
                        nth += 1;
                        nth % n == 0
                    });
                }
                DictOp::Hold(Hold::Take) => held.push((dict.clone(), model.clone())),
                DictOp::Hold(Hold::Drop(i)) => {
                    if !held.is_empty() {
                        held.swap_remove(i % held.len());
                    }
                }
                DictOp::Hold(Hold::Collect(max_slots)) => {
                    intern::collect_bounded_now(*max_slots);
                }
            }
            prop_assert_eq!(dict_pairs(&dict), dict_model_pairs(&model), "live dictionary diverged after {:?}", op);
            prop_assert_eq!(dict.support_size(), model.len());
            for (i, (clone, at_clone_time)) in held.iter().enumerate() {
                prop_assert_eq!(
                    dict_pairs(clone),
                    dict_model_pairs(at_clone_time),
                    "held clone {} changed after {:?}", i, op
                );
            }
        }
        for l in 0..LABELS {
            prop_assert_eq!(
                dict.get_id(lid(l)).map(bag_pairs),
                model.get(&lid(l)).map(model_pairs)
            );
        }
        drop((dict, model, held));
        cycle_universe((0..ELEMS).map(vid).chain((0..LABELS).map(lid)));
        drain();
        prop_assert_eq!(intern::arena_stats().live, baseline, "arena out of balance");
    }
}
