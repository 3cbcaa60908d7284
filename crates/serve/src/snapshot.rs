//! Immutable, internally consistent snapshots and their publication cell.
//!
//! A [`Snapshot`] freezes the state of every registered view at one
//! quiescent batch boundary. It is cheap to take — per view an `Arc`
//! bump of the materialized bag's root node (plus, for shredded views, of
//! the context dictionaries') — and safe to read from any thread while the
//! writer keeps ingesting.
//!
//! What a snapshot costs the writer *afterwards* is the other half of the
//! cost model. A bag or dictionary is a persistent B+tree
//! (`nrc_data`'s `livemap`): leaves hold sorted `(id, value)` runs and own
//! one arena retain per key; branches hold `(separator, child)` pairs,
//! each separator a copy of the largest key in its child's subtree, kept
//! live by that subtree's leaf. The first write into a frozen `n`-key view
//! copies only the nodes on the root-to-leaf paths it touches — `O(|Δ|
//! log n)` entries copied and re-retained, never `O(n)` — and shared nodes
//! are never mutated, so the snapshot keeps reading exactly what it froze.
//! Dropping a snapshot releases the nodes no newer state shares, which is
//! also all a reader pays to move from one snapshot to the next.
//!
//! Two mechanisms keep a snapshot's contents *resolvable* (never
//! [`nrc_data::DataError::StaleVid`]) for its whole lifetime, however much
//! bounded GC runs concurrently:
//!
//! 1. the leaves reachable from the snapshot's roots retain every interned
//!    element they key on — a retained slot's live count can never reach
//!    zero, so no sweep frees it;
//! 2. the snapshot holds an [`EpochPin`] taken at publication, so the
//!    collector's horizon can never pass the snapshot's epoch — the *pin
//!    horizon* ([`nrc_data::intern::pin_horizon`]) equals the oldest
//!    outstanding snapshot's epoch, and dropping that snapshot advances it.
//!
//! Publication is a hand-rolled `Arc` swap (the crate-private
//! `PublishCell`): the writer
//! installs a new `Arc<Snapshot>` under a briefly held write lock and then
//! bumps a version counter. Readers go through a [`SnapshotReader`], which
//! caches the last snapshot it fetched: while the version is unchanged a
//! read costs one atomic load and no lock at all; when it changed, one
//! shared read lock clones the new `Arc` out. Readers therefore never
//! contend with the writer's view refreshes — only with the pointer swap
//! itself, which is O(1).

use crate::error::ServeError;
use nrc_core::shred::nest_bag;
use nrc_data::{Bag, Epoch, EpochPin, Label, Value};
use nrc_engine::{EngineError, ViewStateSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// The writer-shared record of every snapshot still alive anywhere in the
/// process: a total count (the *snapshot backlog*,
/// [`crate::ServeStats::outstanding_snapshots`]) plus a per-batch-index
/// census so the *oldest* outstanding snapshot is observable
/// ([`crate::ServeStats::oldest_snapshot_age_batches`]) — a leaked
/// [`SnapshotReader`] holding an ancient snapshot pins the GC horizon, and
/// its age is how that leak shows up in telemetry.
pub(crate) struct SnapshotLedger {
    outstanding: AtomicU64,
    /// `batch_index → live snapshots published at that index`.
    by_batch: Mutex<BTreeMap<u64, u64>>,
}

impl SnapshotLedger {
    pub(crate) fn new() -> SnapshotLedger {
        SnapshotLedger {
            outstanding: AtomicU64::new(0),
            by_batch: Mutex::new(BTreeMap::new()),
        }
    }

    /// Snapshots currently alive (backlog count).
    pub(crate) fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// The smallest batch index any live snapshot was published at
    /// (`None` when no snapshot is alive). Dropping the oldest snapshot
    /// advances this.
    pub(crate) fn oldest_batch(&self) -> Option<u64> {
        self.by_batch
            .lock()
            .expect("snapshot ledger")
            .keys()
            .next()
            .copied()
    }
}

/// Registers one live snapshot in the shared [`SnapshotLedger`] on
/// creation and deregisters it on drop, so the backlog count and the
/// oldest-snapshot census track exactly the snapshots still alive anywhere
/// in the process.
struct BacklogToken {
    ledger: Arc<SnapshotLedger>,
    batch_index: u64,
}

impl BacklogToken {
    fn new(ledger: &Arc<SnapshotLedger>, batch_index: u64) -> BacklogToken {
        ledger.outstanding.fetch_add(1, Ordering::Relaxed);
        *ledger
            .by_batch
            .lock()
            .expect("snapshot ledger")
            .entry(batch_index)
            .or_insert(0) += 1;
        BacklogToken {
            ledger: Arc::clone(ledger),
            batch_index,
        }
    }
}

impl Drop for BacklogToken {
    fn drop(&mut self) {
        self.ledger.outstanding.fetch_sub(1, Ordering::Relaxed);
        let mut by_batch = self.ledger.by_batch.lock().expect("snapshot ledger");
        if let Some(count) = by_batch.get_mut(&self.batch_index) {
            *count -= 1;
            if *count == 0 {
                by_batch.remove(&self.batch_index);
            }
        }
    }
}

/// One view's frozen state plus the lazily materialized nested form of a
/// shredded view (the first reader to need it pays the nesting once; every
/// later reader of the same snapshot shares the cached result).
struct ViewSnap {
    state: ViewStateSnapshot,
    nested: OnceLock<Result<Bag, ServeError>>,
}

impl ViewSnap {
    fn new(state: ViewStateSnapshot) -> ViewSnap {
        ViewSnap {
            state,
            nested: OnceLock::new(),
        }
    }

    /// The nested result bag this view serves reads from.
    fn bag(&self) -> Result<&Bag, ServeError> {
        match &self.state {
            ViewStateSnapshot::Nested(b) => Ok(b),
            ViewStateSnapshot::Shredded { flat, ctx, elem_ty } => self
                .nested
                .get_or_init(|| {
                    nest_bag(flat, elem_ty, ctx)
                        .map_err(|e| ServeError::Engine(EngineError::from(e)))
                })
                .as_ref()
                .map_err(Clone::clone),
        }
    }
}

/// An immutable view of the whole system at one quiescent batch boundary.
///
/// All read methods are `&self` and safe to call from many threads at
/// once; none of them can observe a torn or mid-batch state, because every
/// component was frozen together after the batch's refreshes completed.
#[must_use = "a snapshot pins arena slots while it is alive; drop it when done reading"]
pub struct Snapshot {
    batch_index: u64,
    epoch: Epoch,
    views: BTreeMap<String, ViewSnap>,
    /// Shields everything resolvable through this snapshot from collection
    /// horizons (rule 2 of the module-level safety argument).
    _pin: EpochPin,
    _token: BacklogToken,
}

impl Snapshot {
    pub(crate) fn new(
        batch_index: u64,
        views: BTreeMap<String, ViewStateSnapshot>,
        pin: EpochPin,
        ledger: &Arc<SnapshotLedger>,
    ) -> Snapshot {
        Snapshot {
            batch_index,
            epoch: pin.epoch(),
            views: views
                .into_iter()
                .map(|(n, s)| (n, ViewSnap::new(s)))
                .collect(),
            _pin: pin,
            _token: BacklogToken::new(ledger, batch_index),
        }
    }

    /// Number of engine batches applied when this snapshot was published
    /// (the replay point its contents are consistent with).
    #[must_use]
    pub fn batch_index(&self) -> u64 {
        self.batch_index
    }

    /// The reclamation epoch pinned by this snapshot.
    #[must_use]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Names of the views frozen in this snapshot.
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.views.keys().map(String::as_str)
    }

    /// Does the snapshot contain a view of this name?
    #[must_use]
    pub fn contains(&self, view: &str) -> bool {
        self.views.contains_key(view)
    }

    /// The frozen nested result bag of a view. For shredded views the
    /// nesting is materialized on the first access and shared by every
    /// later reader of this snapshot.
    pub fn view(&self, view: &str) -> Result<&Bag, ServeError> {
        self.views
            .get(view)
            .ok_or_else(|| ServeError::UnknownView(view.to_owned()))?
            .bag()
    }

    /// Point lookup: the multiplicity of `v` in the view (0 when absent).
    /// Probing for a never-interned value does not touch the arena.
    pub fn get(&self, view: &str, v: &Value) -> Result<i64, ServeError> {
        Ok(self.view(view)?.multiplicity(v))
    }

    /// Ordered scan of up to `limit` `(value, multiplicity)` pairs in the
    /// canonical element order.
    pub fn scan(&self, view: &str, limit: usize) -> Result<Vec<(Value, i64)>, ServeError> {
        Ok(self
            .view(view)?
            .iter()
            .take(limit)
            .map(|(v, m)| (v.clone(), m))
            .collect())
    }

    /// Total cardinality of a view.
    pub fn cardinality(&self, view: &str) -> Result<u64, ServeError> {
        Ok(self.view(view)?.cardinality())
    }

    /// Every view's frozen state as fully materialized *nested* bags, in
    /// name order — the checkpoint export seam. Durability persists views
    /// in nested form regardless of maintenance strategy: nesting resolves
    /// every label through the snapshot's frozen context dictionaries while
    /// the snapshot's pin still shields the slots involved, so nothing
    /// arena-dependent (and no possible `StaleVid`) reaches the encoder.
    /// Shredded views pay their one-time nesting here if no reader
    /// materialized them earlier.
    pub fn resolved_views(&self) -> Result<Vec<(String, Bag)>, ServeError> {
        self.views
            .iter()
            .map(|(name, snap)| Ok((name.clone(), snap.bag()?.clone())))
            .collect()
    }

    /// Look up the inner bag a label denotes in a *shredded* view's frozen
    /// context dictionaries (`None` when the label defines nothing there).
    /// Errors with [`ServeError::NotShredded`] for views maintained in
    /// nested form — they have no label indirection to resolve.
    pub fn lookup_label(&self, view: &str, label: &Label) -> Result<Option<Bag>, ServeError> {
        let snap = self
            .views
            .get(view)
            .ok_or_else(|| ServeError::UnknownView(view.to_owned()))?;
        match &snap.state {
            ViewStateSnapshot::Nested(_) => Err(ServeError::NotShredded(view.to_owned())),
            ViewStateSnapshot::Shredded { ctx, .. } => Ok(label_in_ctx(ctx, label)),
        }
    }
}

/// Find a label's definition in a context value (a tuple tree of
/// dictionaries).
fn label_in_ctx(ctx: &Value, label: &Label) -> Option<Bag> {
    match ctx {
        Value::Tuple(cs) => cs.iter().find_map(|c| label_in_ctx(c, label)),
        Value::Dict(d) => d.get(label).cloned(),
        _ => None,
    }
}

/// The single-writer publication point: an `Arc` swap guarded by a briefly
/// held lock, versioned so readers can skip the lock entirely while
/// nothing new was published (see the module docs for the protocol).
pub(crate) struct PublishCell {
    /// Bumped (Release) *after* the swap: a reader observing version `n`
    /// is guaranteed to find at least the `n`-th snapshot in `current`.
    version: AtomicU64,
    current: RwLock<Arc<Snapshot>>,
}

impl PublishCell {
    pub(crate) fn new(initial: Arc<Snapshot>) -> PublishCell {
        PublishCell {
            version: AtomicU64::new(1),
            current: RwLock::new(initial),
        }
    }

    /// Install a new snapshot (writer side; O(1) under the write lock).
    pub(crate) fn publish(&self, snap: Arc<Snapshot>) {
        *self.current.write().expect("publish cell") = snap;
        self.version.fetch_add(1, Ordering::Release);
    }

    /// The current version and snapshot.
    pub(crate) fn load(&self) -> (u64, Arc<Snapshot>) {
        let version = self.version.load(Ordering::Acquire);
        let snap = self.current.read().expect("publish cell").clone();
        (version, snap)
    }
}

/// A reader's handle onto the published snapshot sequence.
///
/// Cheap to clone (one per reader thread); [`SnapshotReader::current`]
/// costs a single atomic load while the published snapshot is unchanged —
/// the lock-free steady state — and one shared read-lock `Arc` clone when a
/// new snapshot was published. Holding the returned `Arc<Snapshot>` keeps
/// that state readable for as long as the reader needs it, no matter how
/// far the writer advances.
#[must_use = "a reader only serves reads while it is polled"]
pub struct SnapshotReader {
    cell: Arc<PublishCell>,
    seen: u64,
    cached: Arc<Snapshot>,
    /// This reader's private shard of the `serve.read.ns` histogram,
    /// created on the first timed read: recording never contends with other
    /// readers' cache lines, and the registry merges all shards at
    /// snapshot time.
    read_ns: Option<Arc<nrc_obs::Histogram>>,
}

impl Clone for SnapshotReader {
    fn clone(&self) -> SnapshotReader {
        SnapshotReader {
            cell: Arc::clone(&self.cell),
            seen: self.seen,
            cached: Arc::clone(&self.cached),
            // The clone serves a different thread: it gets its own shard.
            read_ns: None,
        }
    }
}

impl SnapshotReader {
    pub(crate) fn new(cell: Arc<PublishCell>) -> SnapshotReader {
        let (seen, cached) = cell.load();
        SnapshotReader {
            cell,
            seen,
            cached,
            read_ns: None,
        }
    }

    /// The most recently published snapshot. One atomic load when nothing
    /// new was published since the last call; otherwise refreshes the
    /// cached `Arc` under the shared read lock.
    pub fn current(&mut self) -> &Arc<Snapshot> {
        let version = self.cell.version.load(Ordering::Acquire);
        if version != self.seen {
            let (seen, snap) = self.cell.load();
            self.seen = seen;
            self.cached = snap;
        }
        &self.cached
    }

    /// An owned handle to the most recently published snapshot.
    pub fn snapshot(&mut self) -> Arc<Snapshot> {
        Arc::clone(self.current())
    }

    /// This reader's `serve.read.ns` shard, created on first use.
    fn read_hist(&mut self) -> &nrc_obs::Histogram {
        self.read_ns
            .get_or_insert_with(|| nrc_obs::histogram_shard("serve.read.ns"))
    }

    /// Timed point lookup against the current snapshot: the multiplicity of
    /// `v` in the view. The latency (snapshot refresh included — that *is*
    /// part of what a reader waits for) lands in this reader's private
    /// `serve.read.ns` histogram shard.
    pub fn get(&mut self, view: &str, v: &Value) -> Result<i64, ServeError> {
        let t = nrc_obs::enabled().then(std::time::Instant::now);
        let result = self.current().get(view, v);
        if let Some(t) = t {
            let ns = t.elapsed().as_nanos() as u64;
            self.read_hist().record(ns);
        }
        result
    }

    /// Timed ordered scan of up to `limit` pairs (see [`Snapshot::scan`]);
    /// latency recorded like [`SnapshotReader::get`].
    pub fn scan(&mut self, view: &str, limit: usize) -> Result<Vec<(Value, i64)>, ServeError> {
        let t = nrc_obs::enabled().then(std::time::Instant::now);
        let result = self.current().scan(view, limit);
        if let Some(t) = t {
            let ns = t.elapsed().as_nanos() as u64;
            self.read_hist().record(ns);
        }
        result
    }

    /// Timed view cardinality (see [`Snapshot::cardinality`]); latency
    /// recorded like [`SnapshotReader::get`].
    pub fn cardinality(&mut self, view: &str) -> Result<u64, ServeError> {
        let t = nrc_obs::enabled().then(std::time::Instant::now);
        let result = self.current().cardinality(view);
        if let Some(t) = t {
            let ns = t.elapsed().as_nanos() as u64;
            self.read_hist().record(ns);
        }
        result
    }
}
