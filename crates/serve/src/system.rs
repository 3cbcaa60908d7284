//! [`ServingSystem`] — the single-writer / many-reader serving runtime.
//!
//! Wraps an [`IvmSystem`] behind a publication protocol: the owning thread
//! ingests updates ([`ServingSystem::apply_batch`]) exactly as before, and
//! at every *successful* quiescent batch boundary an immutable
//! [`Snapshot`] of all registered views is atomically published. Reader
//! threads hold [`SnapshotReader`]s and do point lookups, scans and label
//! lookups against frozen, internally consistent state with zero writer
//! contention — see `crate` docs for the full protocol and safety
//! argument.

use crate::error::serve_to_engine;
use crate::error::ServeError;
use crate::feed::{FeedDelta, FeedShared, Subscription};
use crate::snapshot::{PublishCell, Snapshot, SnapshotLedger, SnapshotReader};
use nrc_core::Expr;
use nrc_data::{intern, Bag};
use nrc_engine::{
    BatchStats, CollectPolicy, EngineError, IvmSystem, NrcError, Parallelism, QueryPlan, Strategy,
    UpdateBatch,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

/// Counters describing the serving layer, in the spirit of
/// [`BatchStats`] for the batch path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Snapshots published: one at construction, then one per successful
    /// batch or registration.
    pub snapshots_published: u64,
    /// Batch index of the currently published snapshot.
    pub published_batch_index: u64,
    /// Snapshots currently alive anywhere in the process — the *snapshot
    /// backlog*. Always ≥ 1: the publication cell itself holds the newest.
    /// Every outstanding snapshot pins its epoch, so a growing backlog of
    /// old snapshots is what holds the GC horizon back.
    pub outstanding_snapshots: u64,
    /// The process-wide pin horizon ([`intern::pin_horizon`]) at the time
    /// the stats were taken: the oldest epoch any pin (snapshots included)
    /// still shields from collection. `0` when nothing is pinned.
    pub pin_horizon_epoch: u64,
    /// How many batches behind the published snapshot the *oldest* live
    /// snapshot is (`published_batch_index − its batch index`; 0 when no
    /// snapshot is alive). A leaked [`SnapshotReader`] holding an ancient
    /// snapshot pins the GC horizon forever — a monotonically growing age
    /// under steady ingest is exactly that leak made observable.
    pub oldest_snapshot_age_batches: u64,
    /// Live subscriptions (slots whose consumer handle is still alive).
    pub subscribers: u64,
    /// Feed deltas pushed to subscribers over the system's lifetime.
    pub feed_deltas_pushed: u64,
    /// Feed deltas lost to bounded-queue backpressure (drop-oldest laps).
    pub feed_deltas_dropped: u64,
}

/// Cached handles to the serving layer's registry metrics (one lookup per
/// process, relaxed atomics afterwards).
struct ServeMetrics {
    published: std::sync::Arc<nrc_obs::Counter>,
    publish_ns: std::sync::Arc<nrc_obs::Histogram>,
    outstanding: std::sync::Arc<nrc_obs::Gauge>,
    oldest_age: std::sync::Arc<nrc_obs::Gauge>,
    feed_pushed: std::sync::Arc<nrc_obs::Counter>,
    feed_dropped: std::sync::Arc<nrc_obs::Counter>,
}

fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: std::sync::LazyLock<ServeMetrics> = std::sync::LazyLock::new(|| ServeMetrics {
        published: nrc_obs::counter("serve.snapshots.published"),
        publish_ns: nrc_obs::histogram("serve.snapshots.publish_ns"),
        outstanding: nrc_obs::gauge("serve.snapshots.outstanding"),
        oldest_age: nrc_obs::gauge("serve.snapshots.oldest_age_batches"),
        feed_pushed: nrc_obs::counter("serve.feed.pushed"),
        feed_dropped: nrc_obs::counter("serve.feed.dropped"),
    });
    &METRICS
}

/// A writer-side subscription slot. Weak on purpose: dropping the
/// [`Subscription`] is the unsubscribe — the writer prunes dead slots at
/// the next batch boundary.
struct SubSlot {
    view: String,
    feed: Weak<FeedShared>,
}

/// The single-writer / many-reader serving runtime (see module docs).
pub struct ServingSystem {
    engine: IvmSystem,
    cell: Arc<PublishCell>,
    ledger: Arc<SnapshotLedger>,
    subs: Vec<SubSlot>,
    /// Did the subscriber set change since the engine's capture-view set
    /// was last synced? (Avoids rebuilding the set on every batch.)
    subs_dirty: bool,
    /// Offset added to the engine's in-memory batch counter wherever a
    /// batch index is exposed to feeds. The durable layer recovers its
    /// engine *from a checkpoint*, so the engine counts from the
    /// checkpoint while the stream's indices are absolute; setting the
    /// base to the checkpoint index keeps feed indices stream-absolute
    /// across recovery (and lets backfilled history splice in seamlessly).
    batch_index_base: u64,
    snapshots_published: u64,
    feed_pushed: u64,
    feed_dropped: u64,
}

impl ServingSystem {
    /// Wrap an engine (with or without views registered yet) and publish
    /// the initial snapshot.
    pub fn new(engine: IvmSystem) -> Result<ServingSystem, ServeError> {
        let ledger = Arc::new(SnapshotLedger::new());
        let initial = Self::build_snapshot(&engine, &ledger)?;
        Ok(ServingSystem {
            engine,
            cell: Arc::new(PublishCell::new(Arc::new(initial))),
            ledger,
            subs: Vec::new(),
            subs_dirty: false,
            batch_index_base: 0,
            snapshots_published: 1,
            feed_pushed: 0,
            feed_dropped: 0,
        })
    }

    /// Register a view under a maintenance strategy and publish, so
    /// readers immediately see the new view's initial materialization.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        query: Expr,
        strategy: Strategy,
    ) -> Result<(), ServeError> {
        self.engine.register(name, query, strategy)?;
        self.publish()
    }

    /// Register a view from NRC⁺ query text with an auto-picked strategy
    /// (see [`IvmSystem::register_query`]) and publish, so readers
    /// immediately see the new view's initial materialization.
    pub fn register_query(&mut self, name: &str, src: &str) -> Result<QueryPlan, NrcError> {
        let plan = self.engine.register_query(name, src)?;
        self.publish()
            .map_err(|e| NrcError::engine(serve_to_engine(e), src))?;
        Ok(plan)
    }

    /// Register a view from NRC⁺ query text under a forced strategy (see
    /// [`IvmSystem::register_query_with`]) and publish.
    pub fn register_query_with(
        &mut self,
        name: &str,
        src: &str,
        strategy: Strategy,
    ) -> Result<QueryPlan, NrcError> {
        let plan = self.engine.register_query_with(name, src, strategy)?;
        self.publish()
            .map_err(|e| NrcError::engine(serve_to_engine(e), src))?;
        Ok(plan)
    }

    /// Apply a coalesced batch of updates, publish the post-batch
    /// snapshot, and fan the per-view deltas out to subscribers.
    ///
    /// On an engine error nothing is published — the previously published
    /// snapshot stays current (the engine may have partially applied
    /// earlier segments; see [`IvmSystem::apply_batch`]; the next
    /// successful batch or registration publishes that state) — and no
    /// feed delta is delivered for the failed batch. The loss is
    /// *counted*: every live subscription's [`Subscription::dropped`] is
    /// bumped, so a consumer's Σ-of-deltas invariant is guaranteed exactly
    /// while `dropped()` stays 0 and any failure tells it to resync from a
    /// fresh snapshot.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<(), ServeError> {
        // Own the flight-recorder trace when serving is the outermost layer
        // (so the publish span below lands in it); under `DurableSystem`
        // the durable scope is already open and this only nests.
        let _trace = nrc_obs::trace::guard(self.feed_batch_index() + 1);
        self.prune_subscribers();
        // Capture costs nothing for views nobody is listening to; the
        // engine's capture set is re-synced only when subscriptions
        // changed, not per batch.
        if self.subs_dirty {
            let subscribed: std::collections::BTreeSet<String> =
                self.subs.iter().map(|s| s.view.clone()).collect();
            self.engine.set_delta_capture_views(subscribed);
            self.subs_dirty = false;
        }
        let capturing = self.engine.delta_capture();
        if let Err(e) = self.engine.apply_batch(batch) {
            if capturing {
                self.mark_feed_loss();
            }
            return Err(e.into());
        }
        self.publish()?;
        if capturing {
            let deltas = self.engine.take_view_deltas();
            self.fan_out(&deltas);
        }
        Ok(())
    }

    /// A captured batch failed mid-application: no trustworthy per-view
    /// delta exists, so count the loss on every live subscription.
    fn mark_feed_loss(&mut self) {
        for slot in &self.subs {
            if let Some(feed) = slot.feed.upgrade() {
                feed.note_lost();
                self.feed_dropped += 1;
                if nrc_obs::enabled() {
                    serve_metrics().feed_dropped.inc();
                }
            }
        }
    }

    /// Convenience single-update ingestion: a one-update batch, so
    /// publication and feeds behave exactly as for
    /// [`ServingSystem::apply_batch`].
    pub fn apply_update(&mut self, rel: impl Into<String>, delta: Bag) -> Result<(), ServeError> {
        let mut batch = UpdateBatch::new();
        batch.push(rel, delta);
        self.apply_batch(&batch)
    }

    /// Set the feed batch-index base (see the field docs). Recovery-time
    /// plumbing: call before any batch is applied through this instance.
    pub fn set_batch_index_base(&mut self, base: u64) {
        self.batch_index_base = base;
    }

    /// The batch index feeds stamp next: base + the engine's counter.
    fn feed_batch_index(&self) -> u64 {
        self.batch_index_base + self.engine.batch_stats().batches_applied
    }

    /// Push one batch's captured deltas to every live subscriber of the
    /// matching view.
    fn fan_out(&mut self, deltas: &BTreeMap<String, Bag>) {
        let batch_index = self.feed_batch_index();
        let obs_on = nrc_obs::enabled();
        for slot in &self.subs {
            let Some(feed) = slot.feed.upgrade() else {
                continue;
            };
            let delta = deltas.get(&slot.view).cloned().unwrap_or_default();
            let lapped = feed.push(FeedDelta { batch_index, delta });
            self.feed_pushed += 1;
            if lapped {
                self.feed_dropped += 1;
            }
            if obs_on {
                serve_metrics().feed_pushed.inc();
                if lapped {
                    serve_metrics().feed_dropped.inc();
                }
            }
        }
    }

    /// Take and publish a fresh snapshot of the current engine state (after
    /// every successful batch / registration).
    fn publish(&mut self) -> Result<(), ServeError> {
        let t = nrc_obs::enabled().then(std::time::Instant::now);
        let snap = Self::build_snapshot(&self.engine, &self.ledger)?;
        let batch_index = snap.batch_index();
        self.cell.publish(Arc::new(snap));
        self.snapshots_published += 1;
        if let Some(t) = t {
            let ns = t.elapsed().as_nanos() as u64;
            serve_metrics().published.inc();
            serve_metrics().publish_ns.record(ns);
            nrc_obs::trace::span("publish", format!("batch={batch_index}"), ns);
            self.export_snapshot_gauges(batch_index);
        }
        Ok(())
    }

    /// Mirror the snapshot-backlog state to the registry so one metrics
    /// snapshot sees it without polling [`ServingSystem::serve_stats`].
    fn export_snapshot_gauges(&self, published_batch_index: u64) {
        let m = serve_metrics();
        m.outstanding.set_u64(self.ledger.outstanding());
        m.oldest_age
            .set_u64(self.oldest_snapshot_age(published_batch_index));
    }

    /// How many batches the oldest live snapshot is behind
    /// `published_batch_index` (0 when none is alive).
    fn oldest_snapshot_age(&self, published_batch_index: u64) -> u64 {
        self.ledger
            .oldest_batch()
            .map_or(0, |oldest| published_batch_index.saturating_sub(oldest))
    }

    /// Freeze every registered view (O(views) `Arc` bumps) under a fresh
    /// epoch pin.
    fn build_snapshot(
        engine: &IvmSystem,
        ledger: &Arc<SnapshotLedger>,
    ) -> Result<Snapshot, ServeError> {
        // Pin first: anything that dies from here on stays resolvable for
        // the snapshot's lifetime, on top of the retains its maps hold.
        let pin = intern::pin();
        let names: Vec<String> = engine.view_names().cloned().collect();
        let mut views = BTreeMap::new();
        for name in names {
            let state = engine.view_state(&name)?;
            views.insert(name, state);
        }
        Ok(Snapshot::new(
            engine.batch_stats().batches_applied,
            views,
            pin,
            ledger,
        ))
    }

    /// An owned handle to the currently published snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.load().1
    }

    /// A reader handle for another thread: lock-free repeat reads of the
    /// current snapshot, refreshed on publication (see [`SnapshotReader`]).
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader::new(Arc::clone(&self.cell))
    }

    /// Subscribe to a view's per-batch change feed over a bounded queue of
    /// `capacity` deltas (clamped to ≥ 1; see [`Subscription`] for the
    /// delivery and drop-oldest backpressure semantics). Dropping the
    /// returned subscription unsubscribes.
    pub fn subscribe(&mut self, view: &str, capacity: usize) -> Result<Subscription, ServeError> {
        self.subscribe_with_history(view, capacity, Vec::new())
    }

    /// Subscribe to a view's change feed with a preloaded **history**: the
    /// given deltas are queued (oldest first) before any live delta, and
    /// the capacity is clamped so none of them is dropped at creation.
    /// This is the feed replay hook durable backfill uses — the history it
    /// synthesizes starts with a batch-index-0 delta carrying the view's
    /// full state at stream origin (its change *from nothing*), so folding
    /// the feed from the empty bag reproduces every historical state and
    /// `from_batch` is the index just before the first queued delta.
    pub fn subscribe_with_history(
        &mut self,
        view: &str,
        capacity: usize,
        history: Vec<FeedDelta>,
    ) -> Result<Subscription, ServeError> {
        if !self.engine.view_names().any(|n| n == view) {
            return Err(ServeError::UnknownView(view.to_owned()));
        }
        let from_batch = match history.first() {
            Some(first) => first.batch_index.saturating_sub(1),
            None => self.feed_batch_index(),
        };
        let capacity = capacity.max(history.len()).max(1);
        let (sub, shared) = Subscription::new(view, capacity, from_batch);
        self.feed_pushed += history.len() as u64;
        if nrc_obs::enabled() {
            serve_metrics().feed_pushed.add(history.len() as u64);
        }
        for delta in history {
            shared.push(delta);
        }
        self.subs.push(SubSlot {
            view: view.to_owned(),
            feed: Arc::downgrade(&shared),
        });
        self.subs_dirty = true;
        Ok(sub)
    }

    /// Drop subscription slots whose consumer handle is gone.
    fn prune_subscribers(&mut self) {
        let before = self.subs.len();
        self.subs.retain(|s| s.feed.strong_count() > 0);
        if self.subs.len() != before {
            self.subs_dirty = true;
        }
    }

    /// Live subscriptions (pruning dead slots first).
    pub fn subscriber_count(&mut self) -> usize {
        self.prune_subscribers();
        self.subs.len()
    }

    /// Serving-layer counters (snapshot backlog, pin horizon, feed
    /// delivery/drop totals).
    #[must_use]
    pub fn serve_stats(&self) -> ServeStats {
        let published_batch_index = self.snapshot().batch_index();
        if nrc_obs::enabled() {
            // Stats polling doubles as a gauge refresh: readers may have
            // dropped (or leaked further) since the last publication.
            self.export_snapshot_gauges(published_batch_index);
        }
        ServeStats {
            snapshots_published: self.snapshots_published,
            published_batch_index,
            outstanding_snapshots: self.ledger.outstanding(),
            pin_horizon_epoch: intern::pin_horizon().map_or(0, |e| e.0),
            oldest_snapshot_age_batches: self.oldest_snapshot_age(published_batch_index),
            subscribers: self
                .subs
                .iter()
                .filter(|s| s.feed.strong_count() > 0)
                .count() as u64,
            feed_deltas_pushed: self.feed_pushed,
            feed_deltas_dropped: self.feed_dropped,
        }
    }

    /// Read access to the wrapped engine (views, stats, database).
    #[must_use]
    pub fn engine(&self) -> &IvmSystem {
        &self.engine
    }

    /// Counters for the engine's batched maintenance path.
    #[must_use]
    pub fn batch_stats(&self) -> &BatchStats {
        self.engine.batch_stats()
    }

    /// Does nothing: views always refresh sequentially. Kept only until
    /// the benchmark package drops its calls (ROADMAP item 1).
    pub fn set_parallelism(&mut self, _mode: Parallelism) {}

    /// Select when memory is reclaimed (see [`IvmSystem::set_collect_policy`]).
    /// Outstanding snapshots bound every policy: a slot resolvable through
    /// a live snapshot is never freed.
    pub fn set_collect_policy(&mut self, policy: CollectPolicy) {
        self.engine.set_collect_policy(policy);
    }

    /// The current contents of a view *through the engine* (readers should
    /// prefer [`ServingSystem::snapshot`] /
    /// [`ServingSystem::reader`] — this accessor exists for
    /// writer-side checks and tests).
    pub fn view(&self, name: &str) -> Result<Bag, EngineError> {
        self.engine.view(name)
    }
}
