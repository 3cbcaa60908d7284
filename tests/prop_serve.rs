//! `proptest`-driven invariants of concurrent snapshot serving
//! (`nrc-serve`) under random interleavings of ingest, bounded collection,
//! snapshot-take, snapshot-read and snapshot-drop across threads:
//!
//! * **Replay agreement**: every read — from reader threads polling the
//!   published snapshot and from snapshots held across arbitrary amounts
//!   of later churn — equals a sequential replay of the same stream at
//!   that snapshot's batch index.
//! * **No stale reads**: fully iterating a live snapshot's views resolves
//!   every interned element; a slot reclaimed out from under a snapshot
//!   would panic deterministically (`StaleVid`), failing the test — so
//!   passing proves bounded GC never frees a slot a live snapshot can
//!   resolve, wherever collections land in the interleaving.
//! * **Horizon advance**: the pin horizon equals the oldest outstanding
//!   snapshot's epoch, and dropping oldest snapshots advances it.
//!
//! The arena is process-global, so cases serialize and use case-unique
//! payload prefixes (same discipline as `tests/prop_bounded_gc.rs`).

mod common;

use common::{fresh_case, serial};
use nrc_core::builder::{cmp_lit, filter_query, rel};
use nrc_core::expr::CmpOp;
use nrc_data::{intern, Bag};
use nrc_engine::{CollectPolicy, IvmSystem, Strategy, UpdateBatch};
use nrc_serve::{ServingSystem, Snapshot};
use nrc_workloads::{StreamConfig, StreamGen};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The sampled reclamation policies: no collection, tight bounded pacing,
/// self-sized bounded pacing, periodic full sweeps.
fn policy_pool(idx: usize) -> CollectPolicy {
    match idx {
        0 => CollectPolicy::Never,
        1 => CollectPolicy::Bounded {
            max_slots: 3,
            every: 1,
        },
        2 => CollectPolicy::bounded_auto(),
        _ => CollectPolicy::Bounded {
            max_slots: u64::MAX,
            every: 2,
        },
    }
}

/// Fully read one snapshot: iterating both views resolves every element id
/// (a reclaimed slot would panic), and the contents are recorded for the
/// replay check.
fn observe(snap: &Snapshot) -> (u64, Bag, Bag) {
    let hot = snap.view("hot").expect("hot view").clone();
    let all = snap.view("all").expect("all view").clone();
    assert_eq!(hot.iter().count(), hot.distinct_count());
    assert_eq!(all.iter().count(), all.distinct_count());
    (snap.batch_index(), hot, all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(16))]

    /// Random (stream, policy, interleaving) triples with reader threads
    /// polling concurrently: all observations agree with sequential
    /// replay, and the snapshot-pin horizon tracks the oldest outstanding
    /// snapshot.
    #[test]
    fn serving_reads_agree_under_random_interleavings(
        seed in 0u64..10_000,
        nbatches in 1usize..6,
        batch_size in 1usize..8,
        delete_tenths in 0usize..6,
        policy_idx in 0usize..4,
        // (kind, sweep budget, batch index to act before): kind 0 =
        // explicit bounded collect, 1 = take-and-hold a snapshot, 2 =
        // drop the oldest held snapshot.
        actions in prop::collection::vec((0u8..3, 1u64..32, 0usize..6), 0..10),
    ) {
        let _serial = serial();
        let case = fresh_case();
        let cfg = StreamConfig {
            batch_size,
            delete_fraction: delete_tenths as f64 / 10.0,
            genres: 4,
            directors: 4,
            payload_prefix: format!("prop-serve-{case}-"),
            ..StreamConfig::default()
        };
        let mut gen = StreamGen::new(seed, cfg.clone());
        let db = gen.database(20);
        let engine = IvmSystem::new(db);
        let mut serve = ServingSystem::new(engine).expect("serving system");
        serve.set_collect_policy(policy_pool(policy_idx));
        let hot = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "genre0"));
        serve.register("hot", hot.clone(), Strategy::FirstOrder).expect("hot");
        serve.register("all", rel("M"), Strategy::FirstOrder).expect("all");

        let mut held: Vec<Arc<Snapshot>> = Vec::new();
        let stop = AtomicBool::new(false);
        let observations: Mutex<Vec<(u64, Bag, Bag)>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let mut reader = serve.reader();
                let stop = &stop;
                let observations = &observations;
                scope.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let obs = observe(reader.current());
                        observations.lock().unwrap().push(obs);
                        std::thread::yield_now();
                    }
                });
            }
            for step in 0..nbatches {
                for (kind, budget, at) in &actions {
                    if *at != step {
                        continue;
                    }
                    match kind {
                        0 => {
                            intern::collect_bounded_now(*budget);
                        }
                        1 => held.push(serve.snapshot()),
                        _ => {
                            if !held.is_empty() {
                                held.remove(0);
                            }
                        }
                    }
                }
                let batch = UpdateBatch::from_updates(gen.next_batch());
                serve.apply_batch(&batch).expect("batch");
                // Held snapshots must stay fully readable across every
                // later batch and collection.
                for snap in &held {
                    observations.lock().unwrap().push(observe(snap));
                }
            }
            stop.store(true, Ordering::Release);
        });

        // Sequential replay of the identical stream, one state per batch
        // index.
        let states = common::stream_states(
            seed,
            &cfg,
            20,
            nbatches,
            &[
                ("hot", hot, Strategy::FirstOrder),
                ("all", rel("M"), Strategy::FirstOrder),
            ],
        );
        for (batch_index, hot_obs, all_obs) in observations.into_inner().unwrap() {
            let state = &states[batch_index as usize];
            prop_assert_eq!(
                &hot_obs, &state["hot"],
                "hot view read diverged from replay at batch {}", batch_index
            );
            prop_assert_eq!(
                &all_obs, &state["all"],
                "all view read diverged from replay at batch {}", batch_index
            );
        }

        // Horizon accounting: with readers joined, the outstanding pins
        // are exactly the held snapshots plus the published one, and the
        // horizon is the minimum of their epochs. Dropping oldest held
        // snapshots advances it accordingly.
        loop {
            let mut epochs: Vec<u64> = held.iter().map(|s| s.epoch().0).collect();
            epochs.push(serve.snapshot().epoch().0);
            let oldest = epochs.iter().copied().min().expect("published snapshot");
            let horizon = intern::pin_horizon().expect("serving pins").0;
            prop_assert_eq!(
                horizon, oldest,
                "pin horizon must equal the oldest outstanding snapshot's epoch"
            );
            if held.is_empty() {
                break;
            }
            held.remove(0);
        }
    }
}
