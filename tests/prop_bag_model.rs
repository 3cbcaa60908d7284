//! `proptest`-driven invariants of `Bag` (`nrc_data::bag`, one persistent
//! B+tree at every size):
//!
//! * **Differential vs. a plain map**: random
//!   insert/union/difference/scale/bulk-extend/wide-bulk sequences agree
//!   with a `BTreeMap<Vid, i64>` replica in content, canonical form
//!   (no zero weights, strictly ascending keys), iteration order, `Ord`
//!   and `Hash` — from the empty bag through one-leaf bags to multi-level
//!   trees and back.
//! * **Engine differential**: four-strategy `apply_batch` over coalesced
//!   batches whose deltas mix sizes (the stream's few-entry deltas and
//!   multi-level wide bags) equals a sequential one-update-at-a-time
//!   replay, under `CollectPolicy::Bounded` — and every view read
//!   resolves (no `StaleVid` escapes through a bag's retain bookkeeping).
//!
//! The arena is process-global, so cases serialize and use per-case
//! payloads (see `tests/common`).

mod common;

use common::{drain, fresh_case, payload, serial};
use nrc_core::builder::{cmp_lit, filter_query, rel};
use nrc_core::expr::CmpOp;
use nrc_data::{intern, Bag, Value, Vid};
use nrc_engine::{CollectPolicy, IvmSystem, Strategy as Maintain, UpdateBatch};
use nrc_workloads::{StreamConfig, StreamGen};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Entries of a wide bulk op: more than one leaf holds, so the bag becomes
/// a multi-level tree.
const WIDE: usize = 520;

/// One step of a random bag-algebra sequence.
#[derive(Clone, Debug)]
enum Op {
    /// Point insert (multiplicity may be zero or negative).
    Insert(u16, i64),
    /// `⊎=` a bag built from these raw pairs.
    Union(Vec<(u16, i64)>),
    /// Group difference with a bag built from these raw pairs.
    Diff(Vec<(u16, i64)>),
    /// Multiply every multiplicity (`0` empties the bag).
    Scale(i64),
    /// `extend_id_pairs` with raw (duplicate/zero-carrying) pairs.
    Bulk(Vec<(u16, i64)>),
    /// A bulk run of [`WIDE`] entries: it builds (or widens) a multi-level
    /// tree, and later cancellations shrink it back.
    Wide,
}

fn arb_pairs() -> impl Strategy<Value = Vec<(u16, i64)>> {
    prop::collection::vec((0u16..700, -4i64..5), 0..12)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..700, -4i64..5).prop_map(|(e, m)| Op::Insert(e, m)),
        arb_pairs().prop_map(Op::Union),
        arb_pairs().prop_map(Op::Diff),
        (-2i64..3).prop_map(Op::Scale),
        arb_pairs().prop_map(Op::Bulk),
        Just(Op::Wide),
    ]
}

/// Apply a raw pair to the replica map (sum, drop zeros).
fn replica_add(replica: &mut BTreeMap<Vid, i64>, id: Vid, m: i64) {
    let v = replica.entry(id).or_insert(0);
    *v += m;
    if *v == 0 {
        replica.remove(&id);
    }
}

fn hash_of<T: Hash>(x: &T) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(24))]

    /// Random op sequences: the bag stays equal to a plain
    /// `BTreeMap<Vid, i64>` replica in content, canonical form, iteration
    /// order, `Ord` and `Hash`, as its tree grows and shrinks.
    #[test]
    fn random_sequences_agree_with_a_map_replica(ops in prop::collection::vec(arb_op(), 0..24)) {
        let _serial = serial();
        let case = fresh_case();
        let vid = |e: u16| intern::intern(payload("prop-tier", case, e));
        let as_bag = |pairs: &[(u16, i64)]| {
            Bag::from_id_pairs(pairs.iter().map(|&(e, m)| (vid(e), m)))
        };
        let mut bag = Bag::empty();
        let mut replica: BTreeMap<Vid, i64> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Insert(e, m) => {
                    let id = vid(*e);
                    bag.insert_id(id, *m);
                    replica_add(&mut replica, id, *m);
                }
                Op::Union(pairs) => {
                    bag.union_assign(&as_bag(pairs));
                    for &(e, m) in pairs {
                        replica_add(&mut replica, vid(e), m);
                    }
                }
                Op::Diff(pairs) => {
                    bag = bag.difference(&as_bag(pairs));
                    for &(e, m) in pairs {
                        replica_add(&mut replica, vid(e), -m);
                    }
                }
                Op::Scale(k) => {
                    bag = bag.scale(*k).expect("small multiplicities");
                    if *k == 0 {
                        replica.clear();
                    } else {
                        replica.values_mut().for_each(|m| *m *= k);
                    }
                }
                Op::Bulk(pairs) => {
                    bag.extend_id_pairs(pairs.iter().map(|&(e, m)| (vid(e), m)));
                    for &(e, m) in pairs {
                        replica_add(&mut replica, vid(e), m);
                    }
                }
                Op::Wide => {
                    let wide: Vec<(u16, i64)> = (0..WIDE as u16).map(|e| (e, 1)).collect();
                    bag.extend_id_pairs(wide.iter().map(|&(e, m)| (vid(e), m)));
                    for &(e, m) in &wide {
                        replica_add(&mut replica, vid(e), m);
                    }
                }
            }
            // Content + canonical form + iteration order, after every op:
            // both sides iterate strictly Vid-ascending with no zeros.
            let got: Vec<(Vid, i64)> = bag.ids().collect();
            let want: Vec<(Vid, i64)> = replica.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(&got, &want, "content/order diverged after {:?}", op);
            prop_assert!(got.iter().all(|&(_, m)| m != 0), "zero weight stored");
            prop_assert!(
                got.windows(2).all(|w| w[0].0 < w[1].0),
                "keys not strictly sorted"
            );
            prop_assert_eq!(bag.distinct_count(), replica.len());
        }
        // Trait identity across tree shapes: a bag freshly packed from the
        // replica is indistinguishable from the sequence-built bag, whose
        // tree grew and shrank by point edits.
        let rebuilt = Bag::from_id_pairs(replica.iter().map(|(&k, &v)| (k, v)));
        prop_assert_eq!(&bag, &rebuilt);
        prop_assert_eq!(bag.cmp(&rebuilt), std::cmp::Ordering::Equal);
        prop_assert_eq!(hash_of(&bag), hash_of(&rebuilt));
        // Ord is the lexicographic pair order, shape-independent: perturb
        // the smallest entry and both orders must agree.
        if let Some((id, m)) = bag.ids().next() {
            let mut perturbed = bag.clone();
            perturbed.insert_id(id, if m == -1 { -2 } else { -1 });
            let a: Vec<(Vid, i64)> = bag.ids().collect();
            let b: Vec<(Vid, i64)> = perturbed.ids().collect();
            prop_assert_eq!(bag.cmp(&perturbed), a.cmp(&b));
        }
        drop(bag);
        drop(rebuilt);
        drain();
    }

    /// Coalesced `apply_batch` over mixed-size deltas under bounded GC
    /// equals a sequential one-update-per-batch replay, for all four
    /// maintenance strategies, with every read resolving (no `StaleVid`).
    #[test]
    fn apply_batch_equals_sequential_replay_with_mixed_size_deltas(
        seed in 0u64..10_000,
        nbatches in 1usize..4,
        batch_size in 1usize..6,
        big_at in prop::collection::vec(any::<bool>(), 4..5),
        max_slots in 1u64..48,
        every in 1u64..3,
        query_idx in 0usize..2,
    ) {
        let _serial = serial();
        let case = fresh_case();
        let mut gen = StreamGen::new(seed, StreamConfig {
            batch_size,
            genres: 3,
            directors: 3,
            payload_prefix: format!("prop-tier-eng-{case}-"),
            ..StreamConfig::default()
        });
        let db = gen.database(16);
        let mut batches: Vec<Vec<(String, Bag)>> = gen.batches(nbatches);
        // Inject a wide (multi-level) delta into flagged batches; its
        // negation rides the *next* batch, so coalescing must merge a big
        // bag against the stream's few-entry deltas both ways.
        let big = |tag: usize| -> Bag {
            Bag::from_values((0..WIDE as i64).map(|i| {
                Value::Tuple(vec![
                    Value::str(format!("tier-big-{case}-{tag}-{i}")),
                    Value::str("genre0"),
                    Value::str("d0"),
                ])
            }))
        };
        for (i, flagged) in big_at.iter().enumerate().take(batches.len()) {
            if *flagged {
                let b = big(i);
                batches[i].push(("M".to_string(), b.clone()));
                if i + 1 < batches.len() {
                    batches[i + 1].push(("M".to_string(), b.negate()));
                }
            }
        }
        let q = if query_idx == 0 {
            rel("M")
        } else {
            filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "genre0"))
        };
        let views = ["re", "fo", "rc", "sh"];
        // System under test: coalesced batches + bounded reclamation.
        let mut sys = IvmSystem::new(db.clone());
        sys.set_collect_policy(CollectPolicy::Bounded { max_slots, every });
        // Sequential replica: one update per batch, no reclamation.
        let mut replica = IvmSystem::new(db);
        for (name, strategy) in [
            ("re", Maintain::Reevaluate),
            ("fo", Maintain::FirstOrder),
            ("rc", Maintain::Recursive),
            ("sh", Maintain::Shredded),
        ] {
            sys.register(name, q.clone(), strategy).expect("register");
            replica.register(name, q.clone(), strategy).expect("register replica");
        }
        for batch in &batches {
            let coalesced = UpdateBatch::from_updates(batch.iter().cloned());
            sys.apply_batch(&coalesced).expect("coalesced batch");
            for upd in batch {
                let single = UpdateBatch::from_updates([upd.clone()]);
                replica.apply_batch(&single).expect("sequential update");
            }
            for view in views {
                // `view` re-resolves every element: a liveness bug in a
                // bag's retains would surface as StaleVid.
                let got = sys.view(view).expect("view resolves under bounded GC");
                let want = replica.view(view).expect("replica view");
                prop_assert_eq!(
                    got, want,
                    "coalesced apply_batch diverged from sequential replay on {}",
                    view
                );
            }
        }
        drop(sys);
        drop(replica);
        drain();
    }
}
