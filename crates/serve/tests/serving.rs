//! End-to-end tests of the serving layer: publication/read protocol,
//! snapshot isolation under concurrent ingest with live bounded GC,
//! subscription semantics, and the snapshot-pin/GC-horizon contract.
//!
//! The intern arena is process-global, so tests serialize among themselves
//! (pin-horizon and backlog assertions only hold while no sibling test
//! pins or publishes concurrently) and use test-unique payloads.

use nrc_core::builder::{cmp_lit, filter_query, related_query};
use nrc_core::expr::CmpOp;
use nrc_data::database::{example_movies, example_movies_update};
use nrc_data::{Bag, Value};
use nrc_engine::{CollectPolicy, IvmSystem, Strategy, UpdateBatch};
use nrc_serve::{ServeError, ServingSystem};
use nrc_workloads::{StreamConfig, StreamGen};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn movie(name: &str, genre: &str, dir: &str) -> Value {
    Value::Tuple(vec![Value::str(name), Value::str(genre), Value::str(dir)])
}

/// A serving system over the movies schema with one view per strategy.
fn serving_movies() -> ServingSystem {
    let mut serve = ServingSystem::new(IvmSystem::new(example_movies())).unwrap();
    let action = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Action"));
    serve
        .register("fo", action.clone(), Strategy::FirstOrder)
        .unwrap();
    serve
        .register("re", action.clone(), Strategy::Reevaluate)
        .unwrap();
    serve.register("rc", action, Strategy::Recursive).unwrap();
    serve
        .register("sh", related_query(), Strategy::Shredded)
        .unwrap();
    serve
}

#[test]
fn publication_is_versioned_and_snapshots_are_isolated() {
    let _serial = serial();
    let mut serve = serving_movies();
    let mut reader = serve.reader();
    let s0 = reader.snapshot();
    let names: Vec<String> = s0.view_names().map(str::to_owned).collect();
    assert_eq!(names, vec!["fo", "rc", "re", "sh"], "sorted view names");
    // No publication: repeat polls return the very same Arc (the lock-free
    // steady state).
    assert!(Arc::ptr_eq(&s0, reader.current()));
    let fo_before = s0.view("fo").unwrap().clone();

    let mut batch = UpdateBatch::new();
    batch.push("M", Bag::from_values([movie("Heat-iso", "Action", "Mann")]));
    serve.apply_batch(&batch).unwrap();

    let s1 = reader.snapshot();
    assert!(!Arc::ptr_eq(&s0, &s1), "publication must swap the snapshot");
    assert_eq!(s1.batch_index(), s0.batch_index() + 1);
    // The old snapshot is frozen; the new one sees the insert.
    assert_eq!(s0.view("fo").unwrap(), &fo_before);
    assert_eq!(
        s1.get("fo", &movie("Heat-iso", "Action", "Mann")).unwrap(),
        1
    );
    assert_eq!(
        s0.get("fo", &movie("Heat-iso", "Action", "Mann")).unwrap(),
        0
    );
    // Scans are ordered and bounded.
    let scan = s1.scan("fo", 2).unwrap();
    assert_eq!(scan.len(), 2);
    assert!(scan[0].0 < scan[1].0, "scan follows the canonical order");
    // Unknown views are reported.
    assert!(matches!(
        s1.get("zzz", &Value::int(0)),
        Err(ServeError::UnknownView(_))
    ));
}

#[test]
fn concurrent_readers_agree_with_sequential_replay_under_bounded_gc() {
    let _serial = serial();
    const NBATCHES: usize = 24;
    let cfg = StreamConfig::ever_fresh(16, "serve-test-conc");
    let mut gen = StreamGen::new(7, cfg.clone());
    let db = gen.database(48);
    let sys = IvmSystem::new(db);
    let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "genre0"));
    let mut serve = ServingSystem::new(sys).unwrap();
    serve
        .register("hot", q.clone(), Strategy::FirstOrder)
        .unwrap();
    serve.set_collect_policy(CollectPolicy::Bounded {
        max_slots: 24,
        every: 1,
    });

    let stop = AtomicBool::new(false);
    let observations: Mutex<Vec<(u64, Bag)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let mut reader = serve.reader();
            let stop = &stop;
            let observations = &observations;
            scope.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let snap = reader.current();
                    // Full iteration resolves every element id — a stale
                    // slot would panic deterministically here.
                    let bag = snap.view("hot").expect("view").clone();
                    let count = bag.iter().count();
                    assert_eq!(count, bag.distinct_count());
                    observations.lock().unwrap().push((snap.batch_index(), bag));
                    std::thread::yield_now();
                }
            });
        }
        for _ in 0..NBATCHES {
            let batch = UpdateBatch::from_updates(gen.next_batch());
            serve.apply_batch(&batch).expect("batch");
        }
        stop.store(true, Ordering::Release);
    });

    // Sequential replay of the identical stream, recording the view after
    // every batch; each observed (batch_index, contents) pair must match.
    let mut replay_gen = StreamGen::new(7, cfg);
    let replay_db = replay_gen.database(48);
    let mut replay = IvmSystem::new(replay_db);
    replay.register("hot", q, Strategy::FirstOrder).unwrap();
    let mut states: Vec<Bag> = vec![replay.view("hot").unwrap()];
    for _ in 0..NBATCHES {
        let batch = UpdateBatch::from_updates(replay_gen.next_batch());
        replay.apply_batch(&batch).expect("replay batch");
        states.push(replay.view("hot").unwrap());
    }
    let observations = observations.into_inner().unwrap();
    assert!(!observations.is_empty(), "readers observed nothing");
    for (batch_index, bag) in observations {
        assert_eq!(
            &bag, &states[batch_index as usize],
            "a read diverged from sequential replay at batch {batch_index}"
        );
    }
}

#[test]
fn feed_deltas_sum_to_the_published_snapshot_state() {
    let _serial = serial();
    let mut serve = serving_movies();
    let sub_fo = serve.subscribe("fo", 64).unwrap();
    let sub_sh = serve.subscribe("sh", 64).unwrap();
    assert!(matches!(
        serve.subscribe("zzz", 4),
        Err(ServeError::UnknownView(_))
    ));
    let base_fo = serve.snapshot().view("fo").unwrap().clone();
    let base_sh = serve.snapshot().view("sh").unwrap().clone();

    let churn = [
        Bag::from_values([movie("Feed-A", "Action", "Mann")]),
        example_movies_update(),
        Bag::from_values([movie("Feed-A", "Action", "Mann")]).negate(),
        example_movies_update().negate(),
        Bag::from_values([movie("Feed-B", "Action", "Scott")]),
    ];
    for delta in churn {
        serve.apply_update("M", delta).unwrap();
    }

    for (sub, base, view) in [(&sub_fo, base_fo, "fo"), (&sub_sh, base_sh, "sh")] {
        let deltas = sub.drain();
        assert_eq!(deltas.len(), 5, "one delta per batch, empty ones included");
        let mut acc = base;
        let mut expect_index = sub.from_batch();
        for d in &deltas {
            expect_index += 1;
            assert_eq!(d.batch_index, expect_index, "{view}: contiguous feed");
            acc.union_assign(&d.delta);
        }
        assert_eq!(
            &acc,
            serve.snapshot().view(view).unwrap(),
            "{view}: base ⊎ Σ feed deltas must equal the published state"
        );
        assert_eq!(sub.dropped(), 0);
    }

    // Dropping the handle unsubscribes and releases the slot.
    assert_eq!(serve.subscriber_count(), 2);
    drop(sub_fo);
    assert_eq!(serve.subscriber_count(), 1);
    serve
        .apply_update("M", Bag::from_values([movie("Feed-C", "Action", "Mann")]))
        .unwrap();
    let stats = serve.serve_stats();
    assert_eq!(stats.subscribers, 1);
    drop(sub_sh);
    assert_eq!(serve.subscriber_count(), 0);
    // With nobody listening, capture shuts off again.
    serve
        .apply_update("M", Bag::from_values([movie("Feed-D", "Action", "Mann")]))
        .unwrap();
    assert!(!serve.engine().delta_capture());
}

#[test]
fn slow_consumers_lap_deterministically() {
    let _serial = serial();
    let mut serve = serving_movies();
    let sub = serve.subscribe("fo", 2).unwrap();
    for i in 0..5 {
        serve
            .apply_update(
                "M",
                Bag::from_values([movie(&format!("Lap-{i}"), "Action", "Mann")]),
            )
            .unwrap();
    }
    // Capacity 2, five pushes: the three oldest were lapped away.
    assert_eq!(sub.dropped(), 3);
    assert_eq!(sub.pushed(), 5);
    let got: Vec<u64> = sub.drain().iter().map(|d| d.batch_index).collect();
    let last = serve.batch_stats().batches_applied;
    assert_eq!(got, vec![last - 1, last], "survivors are the newest two");
    let stats = serve.serve_stats();
    assert_eq!(stats.feed_deltas_pushed, 5);
    assert_eq!(stats.feed_deltas_dropped, 3);
}

#[test]
fn failed_batches_count_as_feed_losses() {
    let _serial = serial();
    let mut serve = serving_movies();
    let sub = serve.subscribe("fo", 8).unwrap();
    // First segment applies, second hits an unknown relation: the engine
    // partially applied the batch, so no trustworthy delta exists.
    let mut batch = UpdateBatch::new();
    batch.push("M", Bag::from_values([movie("Fail-A", "Action", "Mann")]));
    batch.push("Zzz", Bag::from_values([Value::int(1)]));
    assert!(serve.apply_batch(&batch).is_err());
    assert!(
        sub.is_empty(),
        "no delta may be delivered for a failed batch"
    );
    assert_eq!(
        sub.dropped(),
        1,
        "the loss must be counted so the consumer knows to resync"
    );
    assert_eq!(serve.serve_stats().feed_deltas_dropped, 1);
    // A later successful batch delivers normally again.
    serve
        .apply_update("M", Bag::from_values([movie("Fail-B", "Action", "Mann")]))
        .unwrap();
    assert_eq!(sub.drain().len(), 1);
}

#[test]
fn capture_is_scoped_to_subscribed_views() {
    let _serial = serial();
    let mut serve = serving_movies();
    let sub = serve.subscribe("fo", 8).unwrap();
    serve
        .apply_update("M", Bag::from_values([movie("Scope-A", "Action", "Mann")]))
        .unwrap();
    // Only the subscribed view's delta is captured and delivered; the
    // expensive shredded diff never runs for the unsubscribed "sh".
    let deltas = sub.drain();
    assert_eq!(deltas.len(), 1);
    assert_eq!(
        deltas[0]
            .delta
            .multiplicity(&movie("Scope-A", "Action", "Mann")),
        1
    );
    drop(sub);
}

#[test]
fn snapshot_pins_hold_the_gc_horizon_and_drops_advance_it() {
    let _serial = serial();
    let mut serve = serving_movies();
    serve.set_collect_policy(CollectPolicy::Bounded {
        max_slots: 64,
        every: 1,
    });
    let oldest = serve.snapshot();
    let held = oldest.view("fo").unwrap().clone();
    let epoch0 = oldest.epoch();
    // Churn ever-fresh payloads: every batch creates garbage, collects a
    // bounded increment, and publishes a newer snapshot at a later epoch.
    for i in 0..6 {
        let name = format!("Pin-{i:03}");
        serve
            .apply_update("M", Bag::from_values([movie(&name, "Action", "Mann")]))
            .unwrap();
        serve
            .apply_update(
                "M",
                Bag::from_values([movie(&name, "Action", "Mann")]).negate(),
            )
            .unwrap();
    }
    let stats = serve.serve_stats();
    assert!(
        stats.outstanding_snapshots >= 2,
        "held + published snapshots must both count: {stats:?}"
    );
    assert_eq!(
        stats.pin_horizon_epoch, epoch0.0,
        "the oldest outstanding snapshot is the pin horizon"
    );
    // Everything in the held snapshot still resolves after all that GC.
    assert_eq!(oldest.view("fo").unwrap(), &held);
    drop(oldest);
    let stats = serve.serve_stats();
    assert!(
        stats.pin_horizon_epoch > epoch0.0,
        "dropping the oldest snapshot must advance the collectable horizon: {stats:?}"
    );
    assert!(stats.snapshots_published >= 13);
}

#[test]
fn oldest_snapshot_age_tracks_the_laggard_and_drops_advance_it() {
    let _serial = serial();
    let mut serve = serving_movies();
    let oldest = serve.snapshot(); // batch 0
    assert_eq!(serve.serve_stats().oldest_snapshot_age_batches, 0);
    for i in 0..4 {
        let name = format!("Age-{i:03}");
        serve
            .apply_update("M", Bag::from_values([movie(&name, "Action", "Mann")]))
            .unwrap();
    }
    let middle = serve.snapshot(); // batch 4
    serve
        .apply_update("M", Bag::from_values([movie("Age-mid", "Action", "Mann")]))
        .unwrap(); // published index now 5
    let stats = serve.serve_stats();
    assert_eq!(stats.published_batch_index, 5);
    assert_eq!(
        stats.oldest_snapshot_age_batches, 5,
        "a leaked pre-ingest snapshot ages one batch per publish: {stats:?}"
    );
    // Dropping the oldest snapshot advances the age to the next laggard…
    drop(oldest);
    assert_eq!(serve.serve_stats().oldest_snapshot_age_batches, 1);
    // …and with no held snapshots left, the published one is the oldest.
    drop(middle);
    assert_eq!(serve.serve_stats().oldest_snapshot_age_batches, 0);
}

#[test]
fn label_lookups_resolve_against_shredded_context_dictionaries() {
    let _serial = serial();
    let mut serve = serving_movies();
    serve.apply_update("M", example_movies_update()).unwrap();
    // The related view's flat tuples are <name, label>: pull one label out
    // of the frozen flat result and resolve it through the snapshot.
    let label = match serve.engine().view_state("sh").unwrap() {
        nrc_engine::ViewStateSnapshot::Shredded { flat, .. } => flat
            .iter()
            .next()
            .map(|(v, _)| v.project(1).unwrap().as_label().unwrap().clone())
            .expect("related has flat tuples"),
        other => panic!("sh must snapshot shredded, got {other:?}"),
    };
    let snap = serve.snapshot();
    let inner = snap
        .lookup_label("sh", &label)
        .unwrap()
        .expect("label must define a bag");
    assert!(inner.cardinality() > 0);
    assert!(matches!(
        snap.lookup_label("fo", &label),
        Err(ServeError::NotShredded(_))
    ));
    assert!(matches!(
        snap.lookup_label("zzz", &label),
        Err(ServeError::UnknownView(_))
    ));
}
