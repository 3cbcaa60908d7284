//! Count-based guard for the arena's sweep queue under a held epoch pin:
//! it holds one entry per dying slot, not one per death.
//!
//! A published snapshot pins an epoch, so every slot that dies while it is
//! held must stay queued. A slot that is revived by a lookup hit and dies
//! again queues a second entry; the sweep keeps one of them and drops the
//! rest, or the queue grows by one entry per revival for as long as the
//! pin is held.
//!
//! 1. Under a held `intern::pin()`, one value is revived and killed 1 000
//!    times. After one sweep the queue holds at most a handful of entries.
//! 2. A `ServingSystem` publishes a snapshot after every batch of an
//!    ever-fresh flat stream under `CollectPolicy::bounded_auto()`. The
//!    sweep backlog after the last of 400 batches stays within 64 entries
//!    of its value after batch 100.
//!
//! The arena is process-wide, so this file holds exactly one test: nothing
//! else interns or collects while it counts. No wall-clock assertion.

use nrc_data::intern;
use nrc_data::{Bag, Value};
use nrc_engine::{CollectPolicy, IvmSystem, Strategy, UpdateBatch};
use nrc_serve::ServingSystem;
use nrc_workloads::{StreamConfig, StreamGen};

const REVIVALS: usize = 1_000;
const MOVIES: usize = 200;
const BATCHES: usize = 400;
const BATCH_SIZE: usize = 64;
/// Slack on the backlog between batch `BATCHES / 4` and the last batch.
const BACKLOG_SLACK: u64 = 64;

const VIEWS: [(&str, &str); 3] = [
    ("genre0", "for m in M where m.2 == \"genre0\" union sng(m)"),
    ("dir0", "for m in M where m.3 == \"dir0\" union sng(m)"),
    ("names", "for m in M union sng(m.1)"),
];

/// Phase 1: revive one value `REVIVALS` times under a pin, then sweep.
/// Returns the sweep queue's length after the sweep.
fn revive_under_a_pin() -> u64 {
    let v = Value::str("sweep-queue-guard-revived");
    let _pin = intern::pin();
    // The first death queues the slot.
    drop(Bag::from_values([v.clone()]));
    for _ in 0..REVIVALS {
        // A lookup hit revives the dying slot; the bag's drop kills it
        // again, which queues another entry.
        assert!(intern::lookup(&v).is_some(), "the value is still interned");
        drop(Bag::from_values([v.clone()]));
    }
    let swept = intern::collect_bounded_now(u64::MAX);
    assert_eq!(swept.freed, 0, "the pin shields every death: {swept:?}");
    intern::pending_reclaim()
}

/// Phase 2: stream `BATCHES` ever-fresh batches through a serving system
/// that publishes after each one. Returns the engine's sweep backlog after
/// batch `BATCHES / 4` and after the last batch.
fn publish_every_batch() -> (u64, u64) {
    let mut gen = StreamGen::new(7, StreamConfig::ever_fresh(BATCH_SIZE, "sweep-guard"));
    let mut engine = IvmSystem::new(gen.database(MOVIES));
    engine.set_collect_policy(CollectPolicy::bounded_auto());
    let mut sys = ServingSystem::new(engine).expect("serve");
    for (name, src) in VIEWS {
        sys.register_query_with(name, src, Strategy::FirstOrder)
            .expect("register");
    }
    let mut backlog_quarter = 0;
    for i in 1..=BATCHES {
        let batch = UpdateBatch::from_updates(gen.next_batch());
        sys.apply_batch(&batch).expect("batch");
        if i == BATCHES / 4 {
            backlog_quarter = sys.batch_stats().collect_backlog;
        }
    }
    (backlog_quarter, sys.batch_stats().collect_backlog)
}

#[test]
fn the_sweep_queue_holds_one_entry_per_dying_slot_under_a_pin() {
    let queued = revive_under_a_pin();
    assert!(
        queued <= 4,
        "{REVIVALS} revivals of one value under a pin left {queued} sweep-queue entries"
    );
    // Drain what phase 1 left (the pin is gone now).
    intern::collect_now();

    let (quarter, end) = publish_every_batch();
    println!(
        "sweep queue: {queued} entries after {REVIVALS} revivals; \
         collect_backlog batch {} → {BATCHES}: {quarter} → {end}",
        BATCHES / 4
    );
    assert!(
        end <= quarter + BACKLOG_SLACK,
        "collect_backlog grew {quarter} → {end} over batches {} → {BATCHES} \
         of a stream publishing every batch",
        BATCHES / 4
    );
}
