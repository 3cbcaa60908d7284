//! Per-view change feeds: bounded subscription channels carrying the
//! coalesced per-batch deltas the engine's capture hook records.
//!
//! Semantics:
//!
//! * every successfully applied batch delivers exactly one [`FeedDelta`]
//!   per subscription — including batches that left the view unchanged
//!   (an empty delta), so consumers can detect gaps purely from
//!   `batch_index` continuity;
//! * the queue is **bounded**: when a slow consumer lets it fill, the
//!   *oldest* undelivered delta is dropped to admit the new one
//!   (drop-oldest, "lapping"), deterministically — there is exactly one
//!   writer, so which delta is lost is a pure function of the
//!   publish/consume interleaving. [`Subscription::dropped`] counts the
//!   losses and the `batch_index` gap shows the consumer *where* — the
//!   standard resync is to take a fresh snapshot and continue from its
//!   batch index;
//! * a batch that **fails mid-application** delivers no delta (the
//!   engine's partial segment state has no trustworthy per-view change),
//!   but it still counts against [`Subscription::dropped`], so the
//!   Σ-of-deltas invariant below is guaranteed exactly when `dropped()`
//!   is 0 — any loss, lap or failure alike, tells the consumer to
//!   resync;
//! * dropping the [`Subscription`] unsubscribes: the writer prunes the
//!   slot at the next batch boundary and stops capturing deltas when no
//!   subscriber remains.

use nrc_data::Bag;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One batch's coalesced change to a subscribed view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FeedDelta {
    /// The engine batch index this delta belongs to: applying it on top of
    /// the view state at `batch_index - 1` yields the state at
    /// `batch_index`.
    pub batch_index: u64,
    /// The coalesced change (`∅` when the batch left the view unchanged).
    /// Cloning one for fan-out is an `O(1)` root bump, and a consumer's
    /// `union_assign` replay costs `O(|delta| log n)`.
    pub delta: Bag,
}

/// The writer/consumer-shared half of one subscription.
pub(crate) struct FeedShared {
    queue: Mutex<VecDeque<FeedDelta>>,
    capacity: usize,
    dropped: AtomicU64,
    delivered: AtomicU64,
}

impl FeedShared {
    /// Enqueue one delta, dropping the oldest entry when full. Returns
    /// whether an entry was dropped (the consumer got lapped).
    pub(crate) fn push(&self, item: FeedDelta) -> bool {
        let mut queue = self.queue.lock().expect("feed queue");
        let lapped = queue.len() >= self.capacity;
        if lapped {
            queue.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        queue.push_back(item);
        self.delivered.fetch_add(1, Ordering::Relaxed);
        lapped
    }

    /// Record a batch whose delta was lost before delivery (the engine
    /// failed mid-application, so no trustworthy per-view delta exists).
    /// Counts toward [`Subscription::dropped`] exactly like a lap: the
    /// consumer's Σ-of-deltas invariant is broken until it resyncs from a
    /// fresh snapshot.
    pub(crate) fn note_lost(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// A consumer's handle onto one view's change feed (see the module docs
/// for delivery and backpressure semantics). Dropping it unsubscribes.
#[must_use = "an unpolled subscription only accumulates (and eventually drops) deltas"]
pub struct Subscription {
    shared: Arc<FeedShared>,
    view: String,
    from_batch: u64,
}

impl Subscription {
    /// Create the subscription plus the writer's shared handle.
    pub(crate) fn new(
        view: &str,
        capacity: usize,
        from_batch: u64,
    ) -> (Subscription, Arc<FeedShared>) {
        let shared = Arc::new(FeedShared {
            queue: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            dropped: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
        });
        (
            Subscription {
                shared: Arc::clone(&shared),
                view: view.to_owned(),
                from_batch,
            },
            shared,
        )
    }

    /// The subscribed view.
    #[must_use]
    pub fn view(&self) -> &str {
        &self.view
    }

    /// The engine batch index at subscription time: the feed carries the
    /// deltas of every batch *after* this index, so `state(from_batch) ⊎
    /// Σ deltas = state(latest delivered batch)`.
    #[must_use]
    pub fn from_batch(&self) -> u64 {
        self.from_batch
    }

    /// Maximum undelivered deltas held before the oldest is dropped.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Pop the oldest undelivered delta, if any.
    pub fn try_recv(&self) -> Option<FeedDelta> {
        self.shared.queue.lock().expect("feed queue").pop_front()
    }

    /// Pop everything currently queued, oldest first.
    pub fn drain(&self) -> Vec<FeedDelta> {
        self.shared
            .queue
            .lock()
            .expect("feed queue")
            .drain(..)
            .collect()
    }

    /// Undelivered deltas currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.queue.lock().expect("feed queue").len()
    }

    /// Is the queue currently empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deltas lost to backpressure over this subscription's lifetime.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Deltas the writer pushed over this subscription's lifetime
    /// (delivered or later dropped).
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.shared.delivered.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrc_data::Value;

    fn delta(i: u64) -> FeedDelta {
        FeedDelta {
            batch_index: i,
            delta: Bag::from_values([Value::int(i as i64)]),
        }
    }

    #[test]
    fn bounded_queue_drops_oldest_deterministically() {
        let (sub, shared) = Subscription::new("v", 3, 0);
        assert_eq!(sub.capacity(), 3);
        for i in 1..=3 {
            assert!(!shared.push(delta(i)), "queue not full yet");
        }
        // Two more: 1 and 2 are lapped away, deterministically the oldest.
        assert!(shared.push(delta(4)));
        assert!(shared.push(delta(5)));
        assert_eq!(sub.dropped(), 2);
        assert_eq!(sub.pushed(), 5);
        let got: Vec<u64> = sub.drain().into_iter().map(|d| d.batch_index).collect();
        assert_eq!(got, vec![3, 4, 5], "survivors are the newest, in order");
        // The batch_index gap (from_batch 0 → first delivered 3) is the
        // consumer's lap signal.
        assert!(sub.is_empty());
        assert_eq!(sub.try_recv(), None);
    }

    #[test]
    fn drain_and_try_recv_agree() {
        let (sub, shared) = Subscription::new("v", 8, 7);
        assert_eq!(sub.view(), "v");
        assert_eq!(sub.from_batch(), 7);
        shared.push(delta(8));
        shared.push(delta(9));
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.try_recv().unwrap().batch_index, 8);
        assert_eq!(sub.drain().len(), 1);
        assert_eq!(sub.dropped(), 0);
    }
}
