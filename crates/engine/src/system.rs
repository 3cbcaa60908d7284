//! [`IvmSystem`] — the user-facing maintenance runtime.
//!
//! Owns the database (and, lazily, its shredded representation), registers
//! views under a chosen [`Strategy`], and routes updates: every registered
//! view is refreshed against the pre-update state (deltas reference the old
//! database, Prop. 4.1), then the base data is updated.
//!
//! Two ingestion paths exist:
//!
//! * [`IvmSystem::apply_update`] — one update at a time;
//! * [`IvmSystem::apply_batch`] — an [`UpdateBatch`] of many updates,
//!   coalesced per relation by `⊎` *before* any view work (sound by the
//!   additivity of deltas, Prop. 4.1), refreshing every registered view
//!   once per segment.

use crate::error::EngineError;
use crate::recursive::RecursiveView;
use crate::shredded::{ShreddedStore, ShreddedUpdate, ShreddedView};
use crate::stats::{BatchStats, ViewStats};
use crate::view::ReevalView;
use nrc_core::delta::coalesce_updates;
use nrc_core::shred::nest_value;
use nrc_core::typecheck::is_flat_type;
use nrc_core::Expr;
use nrc_data::{intern, Bag, Database, Label, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// How a view is maintained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Recompute from scratch on every update (baseline).
    Reevaluate,
    /// Classical first-order IVM (Prop. 4.1): recursive IVM that hoists
    /// nothing. IncNRC⁺ only.
    FirstOrder,
    /// Recursive IVM (§4.1): materialize the input-dependent parts of each
    /// delta. IncNRC⁺ only.
    Recursive,
    /// Shredded IVM (§5): full NRC⁺, deep updates supported.
    Shredded,
}

enum ViewKind {
    Reeval(Box<ReevalView>),
    /// First-order and recursive views: one refresh, with or without
    /// hoisted auxiliary views.
    Incremental(Box<RecursiveView>),
    Shredded(Box<ShreddedView>),
}

/// A cheap, copy-on-write snapshot of one view's materialized state (see
/// [`IvmSystem::view_state`]). Every component is `Arc`-backed, so the
/// snapshot stays internally consistent — frozen at the quiescent point it
/// was taken — no matter how the engine mutates afterwards.
#[derive(Clone, Debug)]
pub enum ViewStateSnapshot {
    /// The nested result bag (re-evaluation / first-order / recursive
    /// views hold their result in nested form directly).
    Nested(Bag),
    /// A shredded view's state: the flat result, the context dictionaries,
    /// and the element type `nrc_core::shred::nest_bag` needs to nest them
    /// on demand.
    Shredded {
        /// Materialized flat result (`Arc`-backed).
        flat: Bag,
        /// Context dictionaries restricted to reachable labels.
        ctx: Value,
        /// Element type of the nested result.
        elem_ty: nrc_data::Type,
    },
}

/// When [`IvmSystem::apply_batch`] reclaims memory: the intern arena
/// (`nrc_data::intern::collect`) and the shredded store's orphaned
/// dictionary definitions ([`ShreddedStore::gc`]) are collected on the same
/// cadence, at the quiescent point after a batch's refreshes complete.
///
/// Steady-state memory of an unbounded stream of ever-fresh values is
/// bounded under [`CollectPolicy::Bounded`] (`tests/arena_reclaim_guard.rs`
/// pins it by slot counts; the ledger's `engine.gc.*` and
/// `data.arena.peak_live` rows price it): each increment has a hard
/// per-pause sweep budget, so no stop-the-world sweep ever sits on the
/// `apply_batch` hot path. A budget of `u64::MAX` is a full sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CollectPolicy {
    /// Never collect (the PR-2 behavior: the arena only grows).
    #[default]
    Never,
    /// Incremental collection: after every `every`-th batch, run one
    /// *bounded* sweep increment (`nrc_data::intern::collect_bounded_now`)
    /// that frees at most `max_slots` arena slots and leaves the rest of
    /// the backlog on the persistent sweep cursor for the next increment.
    /// Size `max_slots × (batch rate ÷ every)` at or above the garbage
    /// rate and steady-state memory stays bounded while no single pause
    /// ever sweeps more than `max_slots` slots
    /// ([`BatchStats::max_collect_nanos`] is the measured ceiling).
    Bounded {
        /// Per-pause sweep budget: at most this many slots freed per
        /// increment. `0` selects **auto-sizing** (see
        /// [`CollectPolicy::bounded_auto`]): the budget tracks an EWMA of
        /// the observed garbage rate instead of a hand-picked constant.
        max_slots: u64,
        /// Run an increment after every `every`-th batch (`1` = every
        /// batch, the tightest pacing).
        every: u64,
    },
}

impl CollectPolicy {
    /// Self-tuning bounded pacing: one increment per batch whose per-pause
    /// sweep budget is sized from the *observed garbage rate* — an EWMA
    /// (α = ¼) of dying-slot production between increments, with 1.5×
    /// headroom and a small floor — re-armed after every collection.
    /// Reclamation keeps up with whatever the workload's churn turns out to
    /// be while each pause stays proportional to that churn instead of a
    /// hand-picked `max_slots`.
    pub fn bounded_auto() -> CollectPolicy {
        CollectPolicy::Bounded {
            max_slots: 0,
            every: 1,
        }
    }
}

/// How view refreshes are executed. Views always refresh one after
/// another on the calling thread; this one-variant type and the
/// `set_parallelism` methods that take it are kept only until the
/// benchmark package stops calling them (ROADMAP item 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Refresh views one after another on the calling thread.
    #[default]
    Sequential,
}

/// A batch of updates, coalesced per relation by `⊎` before any view work.
///
/// Deltas are additive (Prop. 4.1): refreshing a view once with
/// `u₁ ⊎ u₂ ⊎ …` produces exactly the state that refreshing per update
/// would, while evaluating every delta query once instead of once per
/// update. Updates to different relations are kept as separate segments in
/// first-appearance order, since refreshes across relations compose
/// sequentially.
///
/// ```
/// use nrc_data::{Bag, Value};
/// use nrc_engine::UpdateBatch;
///
/// let mut batch = UpdateBatch::new();
/// batch.push("M", Bag::from_values([Value::int(1)]));
/// batch.push("N", Bag::from_values([Value::int(9)]));
/// batch.push("M", Bag::from_pairs([(Value::int(1), -1), (Value::int(2), 1)]));
///
/// assert_eq!(batch.raw_updates(), 3);
/// // M's two updates coalesced: the insert/delete of 1 cancelled away.
/// let segments: Vec<_> = batch.segments().collect();
/// assert_eq!(segments.len(), 2);
/// assert_eq!(segments[0].0, "M");
/// assert_eq!(segments[0].1.multiplicity(&Value::int(2)), 1);
/// assert_eq!(segments[0].1.multiplicity(&Value::int(1)), 0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    /// Coalesced `(relation, Δ)` segments in first-appearance order.
    segments: Vec<(String, Bag)>,
    /// Raw updates pushed (before coalescing).
    raw_updates: u64,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> UpdateBatch {
        UpdateBatch::default()
    }

    /// Coalesce a sequence of `(relation, Δ)` updates into a batch in one
    /// bulk pass (preferred over repeated [`UpdateBatch::push`] for large
    /// streams).
    pub fn from_updates<I>(updates: I) -> UpdateBatch
    where
        I: IntoIterator<Item = (String, Bag)>,
    {
        let obs_start = nrc_obs::enabled().then(Instant::now);
        let mut raw = 0u64;
        let segments = coalesce_updates(updates.into_iter().inspect(|_| raw += 1));
        if let Some(t) = obs_start {
            static COALESCE_NS: std::sync::LazyLock<std::sync::Arc<nrc_obs::Histogram>> =
                std::sync::LazyLock::new(|| nrc_obs::histogram("engine.batch.coalesce_ns"));
            let ns = t.elapsed().as_nanos() as u64;
            COALESCE_NS.record(ns);
            // Lands in this thread's open trace if the caller coalesces
            // inside a batch scope; a plain no-op otherwise (coalescing
            // usually happens before the batch is handed to a system).
            nrc_obs::trace::span(
                "coalesce",
                format!("raw={raw} segments={}", segments.len()),
                ns,
            );
        }
        UpdateBatch {
            segments,
            raw_updates: raw,
        }
    }

    /// Reconstruct a batch from already-coalesced segments — the durability
    /// export/import seam. A write-ahead log persists a batch as its
    /// coalesced [`UpdateBatch::segments`] plus the raw-update count;
    /// rebuilding from that pair must reproduce the original batch exactly
    /// (coalescing is idempotent, so re-coalescing here is a safe no-op for
    /// well-formed input and repairs duplicate-relation segments in
    /// hand-built input).
    pub fn from_coalesced<I>(segments: I, raw_updates: u64) -> UpdateBatch
    where
        I: IntoIterator<Item = (String, Bag)>,
    {
        let segments = coalesce_updates(segments);
        UpdateBatch {
            segments,
            raw_updates,
        }
    }

    /// Add one update to the batch, `⊎`-merging it into the relation's
    /// existing segment if there is one: `O(|delta| log |segment|)` per
    /// merge.
    pub fn push(&mut self, rel: impl Into<String>, delta: Bag) {
        let rel = rel.into();
        self.raw_updates += 1;
        match self.segments.iter_mut().find(|(r, _)| *r == rel) {
            Some((_, seg)) => seg.union_assign(&delta),
            None => self.segments.push((rel, delta)),
        }
    }

    /// The coalesced `(relation, Δ)` segments, in first-appearance order.
    pub fn segments(&self) -> impl Iterator<Item = (&str, &Bag)> {
        self.segments.iter().map(|(r, b)| (r.as_str(), b))
    }

    /// Number of coalesced per-relation segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Does the batch contain no updates?
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Number of raw updates pushed into the batch (before coalescing).
    pub fn raw_updates(&self) -> u64 {
        self.raw_updates
    }

    /// Total cardinality of the coalesced deltas.
    pub fn total_cardinality(&self) -> u64 {
        self.segments.iter().map(|(_, b)| b.cardinality()).sum()
    }
}

/// Which views the batch path records per-view deltas for.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
enum DeltaCapture {
    /// Capture off (the default — zero cost).
    #[default]
    Off,
    /// Every registered view, *including* views registered after capture
    /// was enabled (membership is decided per batch, not frozen).
    All,
    /// Exactly this (non-empty) set of view names.
    Views(std::collections::BTreeSet<String>),
}

impl DeltaCapture {
    fn enabled(&self) -> bool {
        !matches!(self, DeltaCapture::Off)
    }

    fn armed(&self, name: &str) -> bool {
        match self {
            DeltaCapture::Off => false,
            DeltaCapture::All => true,
            DeltaCapture::Views(set) => set.contains(name),
        }
    }
}

/// Pre-batch state recorded by delta capture for the view kinds whose
/// refresh does not hand the engine an explicit change bag: the per-batch
/// delta is then the (copy-on-write cheap to take, O(view) to diff)
/// before/after difference.
enum CaptureBase {
    /// Pre-batch nested result (re-evaluation baseline views).
    Nested(Bag),
    /// Pre-batch flat result + context dictionaries (shredded views).
    Shredded { flat: Bag, ctx: Value },
}

/// The maintenance runtime.
pub struct IvmSystem {
    db: Database,
    store: Option<ShreddedStore>,
    views: BTreeMap<String, ViewKind>,
    /// Relations whose nested mirror in `db` is stale (shredded updates are
    /// applied to the store; the nested form is reconstructed lazily).
    stale: std::collections::BTreeSet<String>,
    /// Memory-reclamation cadence for the batch path.
    collect_policy: CollectPolicy,
    /// EWMA of dying-slot production between bounded increments, for
    /// [`CollectPolicy::bounded_auto`]. `None` until the first increment.
    auto_bounded_ewma: Option<u64>,
    /// `intern::pending_reclaim()` right after the previous auto-bounded
    /// increment — the baseline the next increment's production is
    /// measured against.
    bounded_pending_baseline: u64,
    /// Which views [`IvmSystem::apply_batch`] records per-batch deltas
    /// for (see [`IvmSystem::set_delta_capture`] /
    /// [`IvmSystem::set_delta_capture_views`]).
    capture: DeltaCapture,
    /// Per-view pre-batch state for the diff-captured view kinds.
    capture_pre: BTreeMap<String, CaptureBase>,
    /// The per-view coalesced deltas of the most recent captured batch.
    last_view_deltas: BTreeMap<String, Bag>,
    /// Counters for the batched maintenance path.
    batch_stats: BatchStats,
}

impl IvmSystem {
    /// Create a system over an initial database.
    pub fn new(db: Database) -> IvmSystem {
        IvmSystem {
            db,
            store: None,
            views: BTreeMap::new(),
            stale: Default::default(),
            collect_policy: CollectPolicy::default(),
            auto_bounded_ewma: None,
            bounded_pending_baseline: 0,
            capture: DeltaCapture::Off,
            capture_pre: BTreeMap::new(),
            last_view_deltas: BTreeMap::new(),
            batch_stats: BatchStats::default(),
        }
    }

    /// Does nothing: views always refresh sequentially. Kept only until
    /// the benchmark package drops its calls (ROADMAP item 1).
    pub fn set_parallelism(&mut self, _mode: Parallelism) {}

    /// Select when [`IvmSystem::apply_batch`] reclaims memory. Switching
    /// policies re-seeds the auto-sized budget (if the new policy uses one)
    /// from the next batch.
    pub fn set_collect_policy(&mut self, policy: CollectPolicy) {
        self.collect_policy = policy;
        self.auto_bounded_ewma = None;
        // Auto-bounded production is measured from the policy switch, not
        // from whatever backlog predates it.
        self.bounded_pending_baseline = intern::pending_reclaim();
    }

    /// The currently selected reclamation cadence.
    pub fn collect_policy(&self) -> CollectPolicy {
        self.collect_policy
    }

    /// Counters for the batched maintenance path.
    pub fn batch_stats(&self) -> &BatchStats {
        &self.batch_stats
    }

    /// Enable or disable per-view delta capture on the batch path for
    /// **all** registered views — membership is decided per batch, so
    /// views registered later are captured too. While enabled, every
    /// [`IvmSystem::apply_batch`] records, per captured view, the
    /// coalesced change the batch applied to it — retrievable (and
    /// cleared) with [`IvmSystem::take_view_deltas`]. This is the engine
    /// half of a change feed: a serving layer fans the captured deltas out
    /// to subscribers. Use [`IvmSystem::set_delta_capture_views`] to pay
    /// the capture cost only for the views that actually have listeners.
    ///
    /// Cost, per captured view: first-order and recursive views capture
    /// the change bag their refresh already evaluates (O(|Δview|) extra
    /// `⊎` work); re-evaluation and shredded views have no incremental
    /// change bag, so their delta is the before/after difference of the
    /// materialized result — O(view) per batch, only while captured.
    /// Disabling clears all capture state.
    pub fn set_delta_capture(&mut self, enabled: bool) {
        if enabled {
            self.capture = DeltaCapture::All;
        } else {
            self.set_delta_capture_views(std::collections::BTreeSet::new());
        }
    }

    /// Capture per-batch deltas for exactly `views` (an empty set turns
    /// capture off). Unregistered names are ignored. Views outside the set
    /// pay nothing — neither the pre-batch state cloning nor the O(view)
    /// diff of the re-evaluation/shredded capture path.
    pub fn set_delta_capture_views(&mut self, views: std::collections::BTreeSet<String>) {
        if views.is_empty() {
            self.capture = DeltaCapture::Off;
            self.clear_delta_capture();
            self.last_view_deltas.clear();
        } else {
            self.capture = DeltaCapture::Views(views);
        }
    }

    /// Is per-view delta capture enabled (for at least one view)?
    pub fn delta_capture(&self) -> bool {
        self.capture.enabled()
    }

    /// The per-view coalesced deltas recorded by the most recent
    /// successfully captured batch (empty when capture is off, no batch has
    /// run yet, or the deltas were already taken). Views untouched by the
    /// batch map to the empty bag.
    #[must_use]
    pub fn take_view_deltas(&mut self) -> BTreeMap<String, Bag> {
        std::mem::take(&mut self.last_view_deltas)
    }

    /// A cheap, copy-on-write snapshot of one view's materialized state,
    /// taken at a quiescent point (between updates/batches): the nested
    /// result bag for re-evaluation / first-order / recursive views, or the
    /// flat result plus context dictionaries (and the element type needed
    /// to nest them) for shredded views. All components are `Arc`-backed —
    /// taking one is O(1) pointer bumps per component, and later engine
    /// mutations copy-on-write without disturbing it. This is the
    /// publication hook concurrent snapshot serving (`nrc-serve`) builds
    /// immutable [`Snapshot`]s from.
    ///
    /// [`Snapshot`]: https://docs.rs/nrc-serve
    pub fn view_state(&self, name: &str) -> Result<ViewStateSnapshot, EngineError> {
        match self.views.get(name) {
            None => Err(EngineError::UnknownView(name.to_owned())),
            Some(ViewKind::Reeval(v)) => Ok(ViewStateSnapshot::Nested(v.result.clone())),
            Some(ViewKind::Incremental(v)) => Ok(ViewStateSnapshot::Nested(v.result.clone())),
            Some(ViewKind::Shredded(v)) => Ok(ViewStateSnapshot::Shredded {
                flat: v.flat_result.clone(),
                ctx: v.ctx_result.clone(),
                elem_ty: v.shredded.elem_ty.clone(),
            }),
        }
    }

    /// Arm per-view capture for the coming batch (captured views only;
    /// the rest are explicitly disarmed so stale state never accumulates).
    fn begin_delta_capture(&mut self) {
        self.capture_pre.clear();
        // Take/restore instead of cloning: the set may be large and this
        // runs on every captured batch.
        let capture = std::mem::take(&mut self.capture);
        for (name, kind) in self.views.iter_mut() {
            let armed = capture.armed(name);
            match kind {
                ViewKind::Reeval(v) => {
                    if armed {
                        self.capture_pre
                            .insert(name.clone(), CaptureBase::Nested(v.result.clone()));
                    }
                }
                ViewKind::Incremental(v) => {
                    v.captured_delta = armed.then(Bag::empty);
                }
                ViewKind::Shredded(v) => {
                    if armed {
                        self.capture_pre.insert(
                            name.clone(),
                            CaptureBase::Shredded {
                                flat: v.flat_result.clone(),
                                ctx: v.ctx_result.clone(),
                            },
                        );
                    }
                }
            }
        }
        self.capture = capture;
    }

    /// Collect the per-view deltas armed by [`IvmSystem::begin_delta_capture`]
    /// into `last_view_deltas`.
    fn finish_delta_capture(&mut self) -> Result<(), EngineError> {
        let pre = std::mem::take(&mut self.capture_pre);
        // Take/restore instead of cloning (the restore below runs on the
        // error path too, so the capture mode survives a failed diff).
        let capture = std::mem::take(&mut self.capture);
        let mut deltas = BTreeMap::new();
        let mut outcome = Ok(());
        for (name, kind) in self.views.iter_mut() {
            if !capture.armed(name) {
                continue;
            }
            let delta = match kind {
                ViewKind::Reeval(v) => match pre.get(name) {
                    Some(CaptureBase::Nested(before)) => before.delta_to(&v.result),
                    _ => Bag::empty(),
                },
                ViewKind::Incremental(v) => v.captured_delta.take().unwrap_or_default(),
                ViewKind::Shredded(v) => {
                    let diffed = match pre.get(name) {
                        Some(CaptureBase::Shredded { flat, ctx }) => {
                            nrc_core::shred::nest_bag(flat, &v.shredded.elem_ty, ctx)
                                .map_err(EngineError::from)
                                .and_then(|before| Ok(before.delta_to(&v.nested()?)))
                        }
                        _ => Ok(Bag::empty()),
                    };
                    match diffed {
                        Ok(d) => d,
                        Err(e) => {
                            outcome = Err(e);
                            break;
                        }
                    }
                }
            };
            deltas.insert(name.clone(), delta);
        }
        self.capture = capture;
        self.last_view_deltas = deltas;
        outcome
    }

    /// Drop any armed capture state (error paths; capture disabling).
    fn clear_delta_capture(&mut self) {
        self.capture_pre.clear();
        for kind in self.views.values_mut() {
            if let ViewKind::Incremental(v) = kind {
                v.captured_delta = None;
            }
        }
    }

    /// The current database.
    ///
    /// Relations updated through [`IvmSystem::apply_shredded_update`] are
    /// mirrored lazily — call [`IvmSystem::sync_database`] first if you need
    /// their nested contents here.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Reconstruct the nested mirror of every shredded-updated relation
    /// (O(size) per stale relation; updates themselves stay incremental).
    pub fn sync_database(&mut self) -> Result<(), EngineError> {
        let stale: Vec<String> = self.stale.iter().cloned().collect();
        for rel in stale {
            let store = self.store.as_ref().expect("stale implies store");
            let nested = store.nested(&rel)?;
            let current = self.db.get(&rel).expect("relation exists").clone();
            let delta = current.delta_to(&nested);
            self.db.apply_update(&rel, &delta)?;
        }
        self.stale.clear();
        Ok(())
    }

    /// The shredded store (present once a shredded view is registered or a
    /// shredded update has been applied).
    pub fn store(&self) -> Option<&ShreddedStore> {
        self.store.as_ref()
    }

    fn ensure_store(&mut self) -> Result<&mut ShreddedStore, EngineError> {
        if self.store.is_none() {
            self.store = Some(ShreddedStore::from_database(&self.db)?);
        }
        Ok(self.store.as_mut().expect("just initialized"))
    }

    /// Register a view under a maintenance strategy.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        query: Expr,
        strategy: Strategy,
    ) -> Result<(), EngineError> {
        let name = name.into();
        if self.views.contains_key(&name) {
            return Err(EngineError::DuplicateView(name));
        }
        let kind = match strategy {
            Strategy::Reevaluate => ViewKind::Reeval(Box::new(ReevalView::new(query, &self.db)?)),
            Strategy::FirstOrder => {
                ViewKind::Incremental(Box::new(RecursiveView::first_order(query, &self.db)?))
            }
            Strategy::Recursive => {
                ViewKind::Incremental(Box::new(RecursiveView::new(query, &self.db)?))
            }
            Strategy::Shredded => {
                self.ensure_store()?;
                let store = self.store.as_ref().expect("ensured");
                ViewKind::Shredded(Box::new(ShreddedView::new(query, &self.db, store)?))
            }
        };
        self.views.insert(name, kind);
        Ok(())
    }

    /// Apply a (nested) update `ΔR` to relation `rel`: refresh every view,
    /// then the base data.
    ///
    /// For shredded state, insertions shred with fresh labels; deletions are
    /// resolved against existing flat tuples (labels must match for
    /// cancellation) — see [`EngineError::UnmatchedDeletion`].
    pub fn apply_update(&mut self, rel: &str, delta: &Bag) -> Result<(), EngineError> {
        // Pin the reclamation epoch for the whole refresh cycle: another
        // system collecting on a sibling thread can then never reclaim a
        // transient id this refresh still resolves.
        let _pin = intern::pin();
        if self.db.get(rel).is_none() {
            return Err(EngineError::UnknownRelation(rel.to_owned()));
        }
        if self.stale.contains(rel) {
            self.sync_database()?;
        }
        // Build the shredded form of the update first (if shredded state
        // exists), since it needs the *old* store.
        let shredded_update = match &mut self.store {
            Some(_) => Some(self.shred_update(rel, delta)?),
            None => None,
        };
        // Incremental views refresh against the *old* state (Prop. 4.1), so
        // run them before mutating anything. Avoiding database snapshots
        // here keeps the subsequent in-place `⊎` at O(|Δ| log n) thanks to
        // the copy-on-write data structures. Per-view refresh timing costs
        // two clock reads per view when instrumentation is on, nothing when
        // off.
        let obs_on = nrc_obs::enabled();
        for kind in self.views.values_mut() {
            let t = obs_on.then(Instant::now);
            let result = match kind {
                ViewKind::Reeval(_) => continue,
                ViewKind::Incremental(v) => v.apply(&self.db, rel, delta),
                ViewKind::Shredded(v) => {
                    let upd = shredded_update.as_ref().expect("store exists");
                    let store = self.store.as_ref().expect("store exists");
                    v.apply(&self.db, store, rel, upd)
                }
            };
            if let Some(t) = t {
                record_view_refresh(kind, t.elapsed().as_nanos() as u64);
            }
            result?;
        }
        if let (Some(store), Some(upd)) = (&mut self.store, &shredded_update) {
            store.apply(rel, upd)?;
        }
        self.db.apply_update(rel, delta)?;
        // Re-evaluation baselines read the *new* state.
        for kind in self.views.values_mut() {
            let ViewKind::Reeval(v) = kind else { continue };
            let t = obs_on.then(Instant::now);
            let result = v.refresh(&self.db);
            if let Some(t) = t {
                record_view_refresh(kind, t.elapsed().as_nanos() as u64);
            }
            result?;
        }
        Ok(())
    }

    /// Apply a coalesced batch of updates: each per-relation segment is
    /// applied in order, refreshing every registered view once per segment
    /// (instead of once per raw update); results are bit-identical to
    /// sequential per-update application.
    ///
    /// On error, segments already applied stay applied (the batch is not
    /// transactional); the returned error identifies the failing segment's
    /// cause exactly as [`IvmSystem::apply_update`] would.
    ///
    /// ```
    /// use nrc_core::builder::{cmp_lit, filter_query};
    /// use nrc_core::expr::CmpOp;
    /// use nrc_data::database::{example_movies, example_movies_update};
    /// use nrc_engine::{IvmSystem, Strategy, UpdateBatch};
    ///
    /// let mut sys = IvmSystem::new(example_movies());
    /// let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Drama"));
    /// sys.register("dramas", q, Strategy::FirstOrder).unwrap();
    ///
    /// let mut batch = UpdateBatch::new();
    /// batch.push("M", example_movies_update());        // insert Jarhead
    /// batch.push("M", example_movies_update().negate()); // …and delete it
    /// batch.push("M", example_movies_update());        // …and re-insert it
    /// sys.apply_batch(&batch).unwrap();
    ///
    /// // One coalesced refresh, same result as three sequential updates.
    /// assert_eq!(sys.view("dramas").unwrap().cardinality(), 2);
    /// assert_eq!(sys.batch_stats().updates_coalesced, 3);
    /// ```
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<(), EngineError> {
        let start = Instant::now();
        // Opens a flight-recorder trace scope when this system is the
        // outermost layer; under serve/durable the outer scope already owns
        // the trace and this only deepens it.
        let _trace = nrc_obs::trace::guard(self.batch_stats.batches_applied);
        let obs_on = nrc_obs::enabled();
        if self.capture.enabled() {
            self.begin_delta_capture();
        }
        let mut segments = 0u64;
        let mut delta_card = 0u64;
        let mut outcome = Ok(());
        for (rel, delta) in batch.segments.iter() {
            if delta.is_empty() {
                // Fully cancelled by coalescing — view contents are already
                // exactly the sequential outcome.
                continue;
            }
            let seg_start = obs_on.then(Instant::now);
            if let Err(e) = self.apply_update(rel, delta) {
                // Earlier segments stay applied (documented); fall through so
                // the stats below still account for the work performed.
                outcome = Err(e);
                break;
            }
            segments += 1;
            let card = delta.cardinality();
            delta_card += card;
            if let Some(t) = seg_start {
                nrc_obs::trace::span(
                    "segment_refresh",
                    format!("{rel} card={card}"),
                    t.elapsed().as_nanos() as u64,
                );
            }
        }
        self.batch_stats.batches_applied += 1;
        self.batch_stats.updates_coalesced += batch.raw_updates;
        self.batch_stats.relation_segments += segments;
        self.batch_stats.delta_cardinality += delta_card;
        self.batch_stats.last_batch_updates = batch.raw_updates;
        if self.capture.enabled() {
            if outcome.is_ok() {
                outcome = self.finish_delta_capture();
            } else {
                // Partial captures of a failed batch would be misleading.
                self.clear_delta_capture();
                self.last_view_deltas.clear();
            }
        }
        self.maybe_collect();
        // Batch timing *includes* any policy-triggered collection pause:
        // that pause is what the batch's caller actually waits out
        // (`collect_nanos`/`max_collect_nanos` break out the share).
        let nanos = start.elapsed().as_nanos() as u64;
        self.batch_stats.batch_nanos += nanos;
        self.batch_stats.last_batch_nanos = nanos;
        self.batch_stats.arena = intern::arena_stats();
        if obs_on {
            self.export_batch_metrics(batch, segments, delta_card, nanos);
        }
        outcome
    }

    /// Re-export the batch outcome through the global metrics registry:
    /// counters accumulate per-batch increments (additive across concurrent
    /// systems), the apply time feeds the `engine.batch.apply_ns`
    /// histogram, and the arena occupancy just snapshotted into
    /// `BatchStats::arena` is mirrored to `data.arena.*` gauges (the arena
    /// is process-global, so last-writer-wins is the truth).
    fn export_batch_metrics(
        &self,
        batch: &UpdateBatch,
        segments: u64,
        delta_card: u64,
        nanos: u64,
    ) {
        use std::sync::{Arc, LazyLock};
        struct Handles {
            applies: Arc<nrc_obs::Counter>,
            updates: Arc<nrc_obs::Counter>,
            segments: Arc<nrc_obs::Counter>,
            delta_card: Arc<nrc_obs::Counter>,
            apply_ns: Arc<nrc_obs::Histogram>,
            arena_live: Arc<nrc_obs::Gauge>,
            arena_bytes: Arc<nrc_obs::Gauge>,
            arena_dead: Arc<nrc_obs::Gauge>,
            arena_reused: Arc<nrc_obs::Gauge>,
            gc_backlog: Arc<nrc_obs::Gauge>,
        }
        static HANDLES: LazyLock<Handles> = LazyLock::new(|| Handles {
            applies: nrc_obs::counter("engine.batch.applies"),
            updates: nrc_obs::counter("engine.batch.updates_coalesced"),
            segments: nrc_obs::counter("engine.batch.segments"),
            delta_card: nrc_obs::counter("engine.batch.delta_cardinality"),
            apply_ns: nrc_obs::histogram("engine.batch.apply_ns"),
            arena_live: nrc_obs::gauge("data.arena.live_values"),
            arena_bytes: nrc_obs::gauge("data.arena.live_bytes"),
            arena_dead: nrc_obs::gauge("data.arena.dead_total"),
            arena_reused: nrc_obs::gauge("data.arena.reused_total"),
            gc_backlog: nrc_obs::gauge("engine.gc.backlog_slots"),
        });
        let h = &*HANDLES;
        h.applies.inc();
        h.updates.add(batch.raw_updates);
        h.segments.add(segments);
        h.delta_card.add(delta_card);
        h.apply_ns.record(nanos);
        let arena = &self.batch_stats.arena;
        h.arena_live.set_u64(arena.live);
        h.arena_bytes.set_u64(arena.bytes);
        h.arena_dead.set_u64(arena.dead);
        h.arena_reused.set_u64(arena.reused);
        h.gc_backlog.set_u64(self.batch_stats.collect_backlog);
    }

    /// Run the configured [`CollectPolicy`] at the batch boundary (all
    /// refreshes complete, no evaluation in flight on this system).
    fn maybe_collect(&mut self) {
        // `Some(budget)` = run one bounded increment now.
        let due: Option<u64> = match self.collect_policy {
            CollectPolicy::Never => None,
            CollectPolicy::Bounded { max_slots, every }
                if every > 0 && self.batch_stats.batches_applied % every == 0 =>
            {
                if max_slots == 0 {
                    Some(self.auto_bounded_budget())
                } else {
                    Some(max_slots.max(1))
                }
            }
            CollectPolicy::Bounded { .. } => None,
        };
        if let Some(budget) = due {
            self.run_collection(budget);
            if matches!(
                self.collect_policy,
                CollectPolicy::Bounded { max_slots: 0, .. }
            ) {
                // Re-arm: the next increment's production is measured from
                // the post-collection backlog.
                self.bounded_pending_baseline = intern::pending_reclaim();
            }
        }
    }

    /// The auto-sized per-pause budget of [`CollectPolicy::bounded_auto`]:
    /// an EWMA (α = ¼) of dying-slot production between increments, with
    /// 1.5× headroom (so reclamation outpaces the garbage rate and the
    /// backlog stays non-accumulating) and a small floor (so a
    /// near-quiescent stream still drains its backlog).
    fn auto_bounded_budget(&mut self) -> u64 {
        const HEADROOM_NUM: u64 = 3;
        const HEADROOM_DEN: u64 = 2;
        const FLOOR_SLOTS: u64 = 16;
        let produced = intern::pending_reclaim().saturating_sub(self.bounded_pending_baseline);
        let ewma = match self.auto_bounded_ewma {
            None => produced,
            Some(prev) => (prev * 3 + produced) / 4,
        };
        self.auto_bounded_ewma = Some(ewma);
        (ewma * HEADROOM_NUM / HEADROOM_DEN).max(FLOOR_SLOTS)
    }

    /// One collection increment: drop orphaned shredded-store dictionary
    /// definitions (so their labels lose their last references; this runs
    /// in full — it is per-relation bookkeeping, not a sweep), then free at
    /// most `max_slots` arena slots, leaving the rest of the backlog on the
    /// persistent sweep cursor ([`BatchStats::collect_backlog`]), with
    /// pause accounting.
    fn run_collection(&mut self, max_slots: u64) {
        let start = Instant::now();
        if let Some(store) = &mut self.store {
            let rels: Vec<String> = store.inputs.keys().cloned().collect();
            for rel in rels {
                // Best-effort: a malformed context would have failed the
                // refresh itself long before GC ran.
                if let Ok(removed) = store.gc(&rel) {
                    self.batch_stats.store_defs_freed += removed as u64;
                }
            }
        }
        let swept = intern::collect_bounded_now(max_slots);
        let nanos = start.elapsed().as_nanos() as u64;
        self.batch_stats.collections_run += 1;
        self.batch_stats.arena_slots_freed += swept.freed;
        self.batch_stats.collect_nanos += nanos;
        self.batch_stats.last_collect_nanos = nanos;
        self.batch_stats.max_collect_nanos = self.batch_stats.max_collect_nanos.max(nanos);
        self.batch_stats.collect_backlog = swept.pending;
        if nrc_obs::enabled() {
            static GC_NS: std::sync::LazyLock<std::sync::Arc<nrc_obs::Histogram>> =
                std::sync::LazyLock::new(|| nrc_obs::histogram("engine.gc.pause_ns"));
            GC_NS.record(nanos);
            nrc_obs::trace::span(
                "gc",
                format!("freed={} backlog={}", swept.freed, swept.pending),
                nanos,
            );
        }
    }

    /// Apply an already-shredded update (insertions, deletions by label,
    /// deep updates). Only affects shredded views and the shredded store;
    /// flat-world views of the same relation are refreshed from the nested
    /// equivalent when it is expressible — deep updates have no flat-world
    /// equivalent and require all views on `rel` to be shredded.
    pub fn apply_shredded_update(
        &mut self,
        rel: &str,
        upd: &ShreddedUpdate,
    ) -> Result<(), EngineError> {
        let _pin = intern::pin();
        if self.store.is_none() {
            return Err(EngineError::WrongStrategy(
                "no shredded store: register a shredded view first".into(),
            ));
        }
        // Guard: non-shredded views over this relation would silently
        // diverge.
        for (name, kind) in &self.views {
            let depends = match kind {
                ViewKind::Reeval(v) => v.query.depends_on_rel(rel),
                ViewKind::Incremental(v) => v.query.depends_on_rel(rel),
                ViewKind::Shredded(_) => false,
            };
            if depends {
                return Err(EngineError::WrongStrategy(format!(
                    "view {name} maintains {rel} un-shredded; shredded updates would diverge"
                )));
            }
        }
        // Disjoint field borrows: views are refreshed against the (shared)
        // pre-update store; copy-on-write data makes any internal snapshots
        // cheap.
        let store_ref = self.store.as_ref().expect("checked above");
        for kind in self.views.values_mut() {
            if let ViewKind::Shredded(v) = kind {
                v.apply(&self.db, store_ref, rel, upd)?;
            }
        }
        let store = self.store.as_mut().expect("checked above");
        store.apply(rel, upd)?;
        // The nested mirror is reconstructed lazily (sync_database); eager
        // re-nesting would make deep updates O(relation) instead of
        // O(update).
        self.stale.insert(rel.to_owned());
        Ok(())
    }

    /// Shred a nested update against the existing store: positive parts get
    /// fresh labels; negative parts are matched against existing flat
    /// tuples so their labels cancel.
    fn shred_update(&mut self, rel: &str, delta: &Bag) -> Result<ShreddedUpdate, EngineError> {
        let store = self.ensure_store()?;
        let elem_ty = store.schemas[rel].clone();
        // Without inner bags a flat tuple *is* its nested tuple: a deleted
        // tuple is looked up, not searched for.
        let nests_to_itself = is_flat_type(&elem_ty);
        let mut insertions = Bag::empty();
        let mut flat_deletions = Bag::empty();
        for (v, m) in delta.iter() {
            if m > 0 {
                insertions.insert(v.clone(), m);
            } else {
                // Locate an existing flat tuple whose nesting equals v.
                let (flat, ctx) = &store.inputs[rel];
                let found = if nests_to_itself {
                    (flat.multiplicity(v) > 0).then(|| v.clone())
                } else {
                    flat.iter().find_map(|(fv, fm)| {
                        if fm <= 0 {
                            return None;
                        }
                        match nest_value(fv, &elem_ty, ctx) {
                            Ok(nested) if &nested == v => Some(fv.clone()),
                            _ => None,
                        }
                    })
                };
                match found {
                    Some(fv) => flat_deletions.insert(fv, m),
                    None => {
                        return Err(EngineError::UnmatchedDeletion(format!(
                            "{v} (×{m}) not present in {rel}"
                        )))
                    }
                }
            }
        }
        let mut upd = ShreddedUpdate::insertion(&insertions, &elem_ty, &mut store.gen)?;
        upd.flat.union_assign(&flat_deletions);
        Ok(upd)
    }

    /// The current contents of a view, as a (nested) bag.
    pub fn view(&self, name: &str) -> Result<Bag, EngineError> {
        match self.views.get(name) {
            None => Err(EngineError::UnknownView(name.to_owned())),
            Some(ViewKind::Reeval(v)) => Ok(v.result.clone()),
            Some(ViewKind::Incremental(v)) => Ok(v.result.clone()),
            Some(ViewKind::Shredded(v)) => v.nested(),
        }
    }

    /// Maintenance statistics for a view.
    pub fn stats(&self, name: &str) -> Result<&ViewStats, EngineError> {
        match self.views.get(name) {
            None => Err(EngineError::UnknownView(name.to_owned())),
            Some(ViewKind::Reeval(v)) => Ok(&v.stats),
            Some(ViewKind::Incremental(v)) => Ok(&v.stats),
            Some(ViewKind::Shredded(v)) => Ok(&v.stats),
        }
    }

    /// Find the label of an inner bag inside relation `rel`: the first flat
    /// tuple matching `pred` is inspected at tuple-component `path`
    /// (which must hold a label). Convenience for addressing deep updates.
    pub fn find_label(
        &self,
        rel: &str,
        path: &[usize],
        pred: impl Fn(&Value) -> bool,
    ) -> Result<Option<Label>, EngineError> {
        let Some(store) = self.store.as_ref() else {
            return Err(EngineError::WrongStrategy(
                "no shredded store: register a shredded view first".into(),
            ));
        };
        let (flat, _) = store
            .inputs
            .get(rel)
            .ok_or_else(|| EngineError::UnknownRelation(rel.to_owned()))?;
        for (v, _) in flat.iter() {
            if pred(v) {
                let l = v.project_path(path)?.as_label()?.clone();
                return Ok(Some(l));
            }
        }
        Ok(None)
    }

    /// Registered view names.
    pub fn view_names(&self) -> impl Iterator<Item = &String> {
        self.views.keys()
    }
}

/// The shared `engine.view.refresh_ns` histogram every view refresh
/// reports into (all strategies, all systems).
fn view_refresh_hist() -> &'static nrc_obs::Histogram {
    static HIST: std::sync::LazyLock<std::sync::Arc<nrc_obs::Histogram>> =
        std::sync::LazyLock::new(|| nrc_obs::histogram("engine.view.refresh_ns"));
    &HIST
}

/// Account one timed view refresh: cumulative per-view nanos in its
/// [`ViewStats`] plus a sample in `engine.view.refresh_ns`.
fn record_view_refresh(kind: &mut ViewKind, nanos: u64) {
    match kind {
        ViewKind::Reeval(v) => v.stats.refresh_nanos += nanos,
        ViewKind::Incremental(v) => v.stats.refresh_nanos += nanos,
        ViewKind::Shredded(v) => v.stats.refresh_nanos += nanos,
    }
    view_refresh_hist().record(nanos);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shredded::DeepPath;
    use nrc_core::builder::*;
    use nrc_core::expr::CmpOp;
    use nrc_data::database::{example_movies, example_movies_update};
    use nrc_data::{BaseType, Type};

    #[test]
    fn strategies_agree_on_flat_queries() {
        let db = example_movies();
        let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Action"));
        let mut sys = IvmSystem::new(db);
        sys.register("re", q.clone(), Strategy::Reevaluate).unwrap();
        sys.register("fo", q.clone(), Strategy::FirstOrder).unwrap();
        sys.register("rc", q.clone(), Strategy::Recursive).unwrap();
        sys.register("sh", q, Strategy::Shredded).unwrap();
        for step in 0..3 {
            let delta = if step == 1 {
                example_movies_update().negate()
            } else {
                example_movies_update()
            };
            sys.apply_update("M", &delta).unwrap();
            let expected = sys.view("re").unwrap();
            assert_eq!(sys.view("fo").unwrap(), expected, "first-order diverged");
            assert_eq!(sys.view("rc").unwrap(), expected, "recursive diverged");
            assert_eq!(sys.view("sh").unwrap(), expected, "shredded diverged");
        }
    }

    #[test]
    fn related_maintained_shredded_in_system() {
        let db = example_movies();
        let mut sys = IvmSystem::new(db);
        sys.register("rel", related_query(), Strategy::Reevaluate)
            .unwrap();
        sys.register("rel_sh", related_query(), Strategy::Shredded)
            .unwrap();
        sys.apply_update("M", &example_movies_update()).unwrap();
        assert_eq!(sys.view("rel_sh").unwrap(), sys.view("rel").unwrap());
        // Deletions resolve labels against the store.
        sys.apply_update("M", &example_movies_update().negate())
            .unwrap();
        assert_eq!(sys.view("rel_sh").unwrap(), sys.view("rel").unwrap());
    }

    #[test]
    fn first_order_rejects_related() {
        let mut sys = IvmSystem::new(example_movies());
        assert!(matches!(
            sys.register("v", related_query(), Strategy::FirstOrder),
            Err(EngineError::Delta(_))
        ));
    }

    #[test]
    fn duplicate_and_unknown_views() {
        let mut sys = IvmSystem::new(example_movies());
        sys.register("v", rel("M"), Strategy::FirstOrder).unwrap();
        assert!(matches!(
            sys.register("v", rel("M"), Strategy::FirstOrder),
            Err(EngineError::DuplicateView(_))
        ));
        assert!(matches!(sys.view("w"), Err(EngineError::UnknownView(_))));
        assert!(matches!(sys.stats("w"), Err(EngineError::UnknownView(_))));
    }

    #[test]
    fn unmatched_deletion_is_reported() {
        let mut db = Database::new();
        let elem = Type::pair(
            Type::Base(BaseType::Int),
            Type::bag(Type::Base(BaseType::Int)),
        );
        db.insert_relation(
            "R",
            elem,
            Bag::from_values([Value::pair(Value::int(1), Value::Bag(Bag::empty()))]),
        );
        let mut sys = IvmSystem::new(db);
        sys.register("v", for_("x", rel("R"), elem_sng("x")), Strategy::Shredded)
            .unwrap();
        let bogus = Bag::from_pairs([(Value::pair(Value::int(9), Value::Bag(Bag::empty())), -1)]);
        assert!(matches!(
            sys.apply_update("R", &bogus),
            Err(EngineError::UnmatchedDeletion(_))
        ));
    }

    #[test]
    fn flat_relations_match_deletions_by_lookup() {
        // No inner bag in M: a deleted tuple is its own flat form. A
        // present tuple cancels; an absent one is reported exactly like a
        // failed scan.
        let mut sys = IvmSystem::new(example_movies());
        sys.register("sh", related_query(), Strategy::Shredded)
            .unwrap();
        assert!(matches!(
            sys.apply_update("M", &example_movies_update().negate()),
            Err(EngineError::UnmatchedDeletion(_))
        ));
        let present = sys
            .database()
            .get("M")
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .0
            .clone();
        sys.apply_update("M", &Bag::from_pairs([(present.clone(), -1)]))
            .unwrap();
        assert_eq!(sys.store().unwrap().inputs["M"].0.multiplicity(&present), 0);
        let mut expected = nrc_core::eval::Env::new(sys.database());
        assert_eq!(
            sys.view("sh").unwrap(),
            nrc_core::eval::eval_query(&related_query(), &mut expected).unwrap()
        );
    }

    #[test]
    fn deep_updates_flow_through_the_system() {
        let mut db = Database::new();
        let elem = Type::pair(
            Type::Base(BaseType::Int),
            Type::bag(Type::Base(BaseType::Int)),
        );
        db.insert_relation(
            "R",
            elem.clone(),
            Bag::from_values([Value::pair(
                Value::int(1),
                Value::Bag(Bag::from_values([Value::int(10)])),
            )]),
        );
        let mut sys = IvmSystem::new(db);
        sys.register("v", for_("x", rel("R"), elem_sng("x")), Strategy::Shredded)
            .unwrap();
        let label = sys
            .find_label("R", &[1], |v| v.project(0).unwrap() == &Value::int(1))
            .unwrap()
            .unwrap();
        let upd = ShreddedUpdate::deep(
            &elem,
            &DeepPath::root().field(1),
            label,
            Bag::from_values([Value::int(11)]),
        )
        .unwrap();
        sys.apply_shredded_update("R", &upd).unwrap();
        let nested = sys.view("v").unwrap();
        let items = nested
            .iter()
            .next()
            .map(|(v, _)| v.project(1).unwrap().as_bag().unwrap().clone())
            .unwrap();
        assert_eq!(items.cardinality(), 2);
        // The base database syncs lazily with the shredded store.
        sys.sync_database().unwrap();
        assert_eq!(sys.database().get("R").unwrap(), &nested);
    }

    #[test]
    fn shredded_updates_blocked_when_flat_views_exist() {
        let mut db = Database::new();
        let elem = Type::pair(
            Type::Base(BaseType::Int),
            Type::bag(Type::Base(BaseType::Int)),
        );
        db.insert_relation(
            "R",
            elem.clone(),
            Bag::from_values([Value::pair(Value::int(1), Value::Bag(Bag::empty()))]),
        );
        let mut sys = IvmSystem::new(db);
        sys.register("sh", for_("x", rel("R"), elem_sng("x")), Strategy::Shredded)
            .unwrap();
        sys.register(
            "re",
            for_("x", rel("R"), elem_sng("x")),
            Strategy::Reevaluate,
        )
        .unwrap();
        let upd = ShreddedUpdate::flat_only(Bag::empty(), &elem).unwrap();
        assert!(matches!(
            sys.apply_shredded_update("R", &upd),
            Err(EngineError::WrongStrategy(_))
        ));
    }

    #[test]
    fn stats_accumulate() {
        let db = example_movies();
        let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Drama"));
        let mut sys = IvmSystem::new(db);
        sys.register("v", q, Strategy::FirstOrder).unwrap();
        sys.apply_update("M", &example_movies_update()).unwrap();
        sys.apply_update("M", &example_movies_update()).unwrap();
        let s = sys.stats("v").unwrap();
        assert_eq!(s.updates_applied, 2);
        assert_eq!(s.reevaluations, 1);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use nrc_core::builder::*;
    use nrc_core::expr::CmpOp;
    use nrc_data::database::{example_movies, example_movies_update};
    use nrc_data::{BaseType, Type};

    fn movie(name: &str, gen: &str, dir: &str) -> Value {
        Value::Tuple(vec![Value::str(name), Value::str(gen), Value::str(dir)])
    }

    /// An unbudgeted increment after every batch: a full sweep.
    const FULL_SWEEP: CollectPolicy = CollectPolicy::Bounded {
        max_slots: u64::MAX,
        every: 1,
    };

    /// A system with all four strategies registered over the movies schema.
    fn four_strategy_system() -> IvmSystem {
        let mut sys = IvmSystem::new(example_movies());
        let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Action"));
        sys.register("re", q.clone(), Strategy::Reevaluate).unwrap();
        sys.register("fo", q.clone(), Strategy::FirstOrder).unwrap();
        sys.register("rc", q, Strategy::Recursive).unwrap();
        sys.register("sh", related_query(), Strategy::Shredded)
            .unwrap();
        sys.register("sh_re", related_query(), Strategy::Reevaluate)
            .unwrap();
        sys
    }

    fn updates() -> Vec<Bag> {
        vec![
            example_movies_update(),
            Bag::from_values([movie("Heat", "Action", "Mann")]),
            example_movies_update().negate(),
            Bag::from_pairs([
                (movie("Gladiator", "Action", "Scott"), 1),
                (movie("Heat", "Action", "Mann"), -1),
            ]),
        ]
    }

    #[test]
    fn batch_matches_sequential_across_strategies() {
        let mut batched = four_strategy_system();
        let mut sequential = four_strategy_system();

        let mut batch = UpdateBatch::new();
        for u in updates() {
            batch.push("M", u);
        }
        batched.apply_batch(&batch).unwrap();
        for u in updates() {
            sequential.apply_update("M", &u).unwrap();
        }
        for view in ["re", "fo", "rc", "sh", "sh_re"] {
            assert_eq!(
                batched.view(view).unwrap(),
                sequential.view(view).unwrap(),
                "{view} diverged"
            );
        }
        assert_eq!(batched.database(), sequential.database());
    }

    #[test]
    fn batch_coalesces_across_relations_in_order() {
        let mut db = example_movies();
        db.declare("N", Type::Base(BaseType::Int));
        let mut sys = IvmSystem::new(db);
        sys.register("pairs", pair(rel("M"), rel("N")), Strategy::FirstOrder)
            .unwrap();

        let batch = UpdateBatch::from_updates([
            ("M".to_string(), example_movies_update()),
            ("N".to_string(), Bag::from_values([Value::int(1)])),
            ("M".to_string(), example_movies_update()),
            ("N".to_string(), Bag::from_values([Value::int(2)])),
        ]);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.raw_updates(), 4);
        sys.apply_batch(&batch).unwrap();

        let mut expected = IvmSystem::new({
            let mut db = example_movies();
            db.declare("N", Type::Base(BaseType::Int));
            db
        });
        expected
            .register("pairs", pair(rel("M"), rel("N")), Strategy::FirstOrder)
            .unwrap();
        expected
            .apply_update("M", &example_movies_update())
            .unwrap();
        expected
            .apply_update("N", &Bag::from_values([Value::int(1)]))
            .unwrap();
        expected
            .apply_update("M", &example_movies_update())
            .unwrap();
        expected
            .apply_update("N", &Bag::from_values([Value::int(2)]))
            .unwrap();

        assert_eq!(sys.view("pairs").unwrap(), expected.view("pairs").unwrap());
    }

    #[test]
    fn batch_stats_accumulate() {
        let mut sys = four_strategy_system();
        let mut batch = UpdateBatch::new();
        batch.push("M", example_movies_update());
        batch.push("M", Bag::from_values([movie("Heat", "Action", "Mann")]));
        sys.apply_batch(&batch).unwrap();
        sys.apply_batch(&batch).unwrap();
        let stats = sys.batch_stats();
        assert_eq!(stats.batches_applied, 2);
        assert_eq!(stats.updates_coalesced, 4);
        assert_eq!(stats.relation_segments, 2);
        assert!(stats.batch_nanos > 0);
        assert!(stats.throughput_updates_per_sec() > 0.0);
    }

    #[test]
    fn fully_cancelled_batches_are_noops() {
        let mut sys = four_strategy_system();
        let before = sys.view("sh").unwrap();
        let mut batch = UpdateBatch::new();
        batch.push("M", example_movies_update());
        batch.push("M", example_movies_update().negate());
        sys.apply_batch(&batch).unwrap();
        assert_eq!(sys.view("sh").unwrap(), before);
        assert_eq!(sys.batch_stats().relation_segments, 0);
        assert_eq!(sys.batch_stats().batches_applied, 1);
    }

    #[test]
    fn batch_errors_identify_unknown_relations_and_still_record_stats() {
        let mut sys = four_strategy_system();
        let mut batch = UpdateBatch::new();
        batch.push("M", example_movies_update());
        batch.push("Zzz", Bag::from_values([Value::int(1)]));
        assert!(matches!(
            sys.apply_batch(&batch),
            Err(EngineError::UnknownRelation(_))
        ));
        // The M segment was applied before the failure (the batch is not
        // transactional) and the stats account for that work.
        assert_eq!(sys.view("fo").unwrap().cardinality(), 2);
        let stats = sys.batch_stats();
        assert_eq!(stats.batches_applied, 1);
        assert_eq!(stats.relation_segments, 1);
        assert_eq!(stats.updates_coalesced, 2);
    }

    #[test]
    fn collect_policy_preserves_view_contents() {
        // Same stream of batches under Never vs a full sweep every batch:
        // identical view contents, and the collecting system actually runs
        // collections.
        let mut plain = four_strategy_system();
        let mut collected = four_strategy_system();
        collected.set_collect_policy(FULL_SWEEP);
        let mut every_other = four_strategy_system();
        every_other.set_collect_policy(CollectPolicy::Bounded {
            max_slots: u64::MAX,
            every: 2,
        });
        assert_eq!(plain.collect_policy(), CollectPolicy::Never);
        for round in 0..3 {
            let mut batch = UpdateBatch::new();
            for u in updates() {
                batch.push("M", u);
            }
            plain.apply_batch(&batch).unwrap();
            collected.apply_batch(&batch).unwrap();
            every_other.apply_batch(&batch).unwrap();
            for view in ["re", "fo", "rc", "sh", "sh_re"] {
                assert_eq!(
                    plain.view(view).unwrap(),
                    collected.view(view).unwrap(),
                    "{view} diverged after round {round} under a full sweep"
                );
            }
        }
        assert_eq!(collected.batch_stats().collections_run, 3);
        assert_eq!(every_other.batch_stats().collections_run, 3 / 2);
        assert_eq!(plain.batch_stats().collections_run, 0);
        // The snapshot is taken every batch regardless of policy.
        assert!(plain.batch_stats().arena.live > 0);
        assert!(collected.batch_stats().arena.live > 0);
    }

    #[test]
    fn bounded_policy_paces_reclamation_and_preserves_views() {
        // Same stream under full and budgeted Bounded sweeps: identical
        // view contents, and the bounded system records backlog/pause
        // accounting while never freeing more than its budget per pause.
        let mut full = four_strategy_system();
        full.set_collect_policy(FULL_SWEEP);
        let mut bounded = four_strategy_system();
        bounded.set_collect_policy(CollectPolicy::Bounded {
            max_slots: 3,
            every: 1,
        });
        let mut freed_before = 0;
        for round in 0..4 {
            let mut batch = UpdateBatch::new();
            for u in updates() {
                batch.push("M", u);
            }
            full.apply_batch(&batch).unwrap();
            bounded.apply_batch(&batch).unwrap();
            let freed_now = bounded.batch_stats().arena_slots_freed;
            assert!(
                freed_now - freed_before <= 3,
                "bounded pause freed more than its budget in round {round}"
            );
            freed_before = freed_now;
            for view in ["re", "fo", "rc", "sh", "sh_re"] {
                assert_eq!(
                    full.view(view).unwrap(),
                    bounded.view(view).unwrap(),
                    "{view} diverged after round {round} under Bounded pacing"
                );
            }
        }
        assert_eq!(bounded.batch_stats().collections_run, 4);
        assert!(bounded.batch_stats().collect_nanos > 0);
        assert!(bounded.batch_stats().max_collect_nanos > 0);
    }

    #[test]
    fn delta_capture_records_per_view_batch_deltas() {
        let mut sys = four_strategy_system();
        sys.set_delta_capture(true);
        assert!(sys.delta_capture());
        let views = ["re", "fo", "rc", "sh", "sh_re"];
        let before: Vec<(String, Bag)> = views
            .iter()
            .map(|v| (v.to_string(), sys.view(v).unwrap()))
            .collect();
        let mut batch = UpdateBatch::new();
        for u in updates() {
            batch.push("M", u);
        }
        sys.apply_batch(&batch).unwrap();
        let deltas = sys.take_view_deltas();
        assert_eq!(deltas.len(), views.len());
        for (name, pre) in before {
            let expected = pre.delta_to(&sys.view(&name).unwrap());
            assert_eq!(
                deltas[&name], expected,
                "{name}: captured delta diverged from the before/after diff"
            );
        }
        // Taking drains; a batch with capture disabled records nothing.
        assert!(sys.take_view_deltas().is_empty());
        sys.set_delta_capture(false);
        sys.apply_batch(&batch).unwrap();
        assert!(sys.take_view_deltas().is_empty());
    }

    #[test]
    fn delta_capture_can_be_scoped_to_a_view_subset() {
        let mut sys = four_strategy_system();
        sys.set_delta_capture_views(["fo".to_string()].into_iter().collect());
        assert!(sys.delta_capture());
        let mut batch = UpdateBatch::new();
        batch.push("M", Bag::from_values([movie("Subset", "Action", "Mann")]));
        sys.apply_batch(&batch).unwrap();
        let deltas = sys.take_view_deltas();
        assert_eq!(
            deltas.keys().collect::<Vec<_>>(),
            vec!["fo"],
            "only the scoped view is captured"
        );
        assert_eq!(
            deltas["fo"].multiplicity(&movie("Subset", "Action", "Mann")),
            1
        );
        // An empty set turns capture off entirely.
        sys.set_delta_capture_views(Default::default());
        assert!(!sys.delta_capture());
        sys.apply_batch(&batch).unwrap();
        assert!(sys.take_view_deltas().is_empty());
    }

    #[test]
    fn all_views_capture_includes_later_registrations() {
        let mut sys = four_strategy_system();
        sys.set_delta_capture(true);
        sys.register(
            "late",
            filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Action")),
            Strategy::FirstOrder,
        )
        .unwrap();
        let mut batch = UpdateBatch::new();
        batch.push("M", Bag::from_values([movie("Late", "Action", "Mann")]));
        sys.apply_batch(&batch).unwrap();
        let deltas = sys.take_view_deltas();
        assert!(
            deltas.contains_key("late"),
            "all-views capture must include views registered after enabling: {:?}",
            deltas.keys().collect::<Vec<_>>()
        );
        assert_eq!(
            deltas["late"].multiplicity(&movie("Late", "Action", "Mann")),
            1
        );
    }

    #[test]
    fn view_state_snapshots_are_frozen_at_the_quiescent_point() {
        let mut sys = four_strategy_system();
        let fo_before = match sys.view_state("fo").unwrap() {
            ViewStateSnapshot::Nested(b) => b,
            other => panic!("first-order views snapshot nested, got {other:?}"),
        };
        assert!(matches!(
            sys.view_state("sh").unwrap(),
            ViewStateSnapshot::Shredded { .. }
        ));
        assert!(matches!(
            sys.view_state("zzz"),
            Err(EngineError::UnknownView(_))
        ));
        let cardinality_before = fo_before.cardinality();
        let mut batch = UpdateBatch::new();
        batch.push("M", Bag::from_values([movie("Heat", "Action", "Mann")]));
        sys.apply_batch(&batch).unwrap();
        // The snapshot taken before the batch is untouched by it.
        assert_ne!(fo_before, sys.view("fo").unwrap());
        assert_eq!(fo_before.cardinality(), cardinality_before);
    }

    #[test]
    fn bounded_auto_policy_collects_and_preserves_views() {
        let mut plain = four_strategy_system();
        let mut auto_sys = four_strategy_system();
        auto_sys.set_collect_policy(CollectPolicy::bounded_auto());
        assert_eq!(
            auto_sys.collect_policy(),
            CollectPolicy::Bounded {
                max_slots: 0,
                every: 1
            }
        );
        for round in 0..4 {
            // Churn: a batch of fresh unique payloads, then its undo —
            // every round turns its insertions into garbage.
            let mut fresh = UpdateBatch::new();
            for i in 0..24 {
                fresh.push(
                    "M",
                    Bag::from_values([movie(
                        &format!("bounded-auto-{round:02}-{i:04}"),
                        "Action",
                        "Mann",
                    )]),
                );
            }
            let undo = UpdateBatch::from_updates(
                fresh
                    .segments()
                    .map(|(r, b)| (r.to_string(), b.clone().negate())),
            );
            for b in [&fresh, &undo] {
                plain.apply_batch(b).unwrap();
                auto_sys.apply_batch(b).unwrap();
            }
            for view in ["re", "fo", "rc", "sh", "sh_re"] {
                assert_eq!(
                    plain.view(view).unwrap(),
                    auto_sys.view(view).unwrap(),
                    "{view} diverged in round {round} under bounded_auto"
                );
            }
        }
        let stats = auto_sys.batch_stats();
        assert_eq!(stats.collections_run, 8, "one increment per batch");
        assert!(
            stats.arena_slots_freed > 0,
            "auto-sized increments must reclaim: {stats:?}"
        );
        assert_eq!(plain.batch_stats().collections_run, 0);
    }

    #[test]
    fn empty_batch_is_accepted() {
        let mut sys = four_strategy_system();
        assert!(UpdateBatch::new().is_empty());
        sys.apply_batch(&UpdateBatch::new()).unwrap();
        assert_eq!(sys.batch_stats().batches_applied, 1);
        assert_eq!(sys.batch_stats().updates_coalesced, 0);
    }
}

#[cfg(test)]
mod api_tests {
    use super::*;
    use nrc_core::builder::*;
    use nrc_data::database::example_movies;

    #[test]
    fn view_names_lists_registrations() {
        let mut sys = IvmSystem::new(example_movies());
        sys.register("a", rel("M"), Strategy::FirstOrder).unwrap();
        sys.register("b", rel("M"), Strategy::Reevaluate).unwrap();
        let names: Vec<&String> = sys.view_names().collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn find_label_requires_store_and_handles_misses() {
        let mut sys = IvmSystem::new(example_movies());
        // No shredded store yet.
        assert!(matches!(
            sys.find_label("M", &[0], |_| true),
            Err(EngineError::WrongStrategy(_))
        ));
        sys.register("sh", related_query(), Strategy::Shredded)
            .unwrap();
        // Movie rows are flat — there is no label at position 0.
        assert!(sys.find_label("M", &[0], |_| true).is_err());
        // Predicate matching nothing yields None.
        let none = sys.find_label("M", &[0], |_| false).unwrap();
        assert!(none.is_none());
        // Unknown relation errors.
        assert!(matches!(
            sys.find_label("Zzz", &[0], |_| true),
            Err(EngineError::UnknownRelation(_))
        ));
    }

    #[test]
    fn sync_database_is_idempotent_without_staleness() {
        let mut sys = IvmSystem::new(example_movies());
        sys.sync_database().unwrap();
        sys.register("sh", related_query(), Strategy::Shredded)
            .unwrap();
        sys.sync_database().unwrap();
        assert_eq!(sys.database().get("M").unwrap().cardinality(), 3);
    }
}

/// Exact-count parity for first-order maintenance: a fixed update sequence
/// through E2's `filter_p` over the movies and Ex. 4's
/// `flatten(R) × flatten(R)`, with every view checked against the
/// re-evaluation view `re` after every step. The literals pin what
/// first-order IVM evaluates (no auxiliary materializations, one delta per
/// relation); recursive IVM on Ex. 4 materializes exactly one auxiliary,
/// `flatten(R)`.
#[cfg(test)]
mod first_order_parity {
    use super::*;
    use nrc_core::builder::*;
    use nrc_core::expr::CmpOp;
    use nrc_data::database::{example_movies, example_movies_update};
    use nrc_data::{BaseType, Type};

    /// `(eval_steps, refresh_steps, last_delta_card, materialized_aux)` of
    /// the first-order view `fo`.
    fn counts(sys: &IvmSystem) -> (u64, u64, u64, u64) {
        let s = sys.stats("fo").unwrap();
        (
            s.eval_steps,
            s.refresh_steps,
            s.last_delta_card,
            s.materialized_aux,
        )
    }

    fn assert_all_equal_reevaluation(sys: &IvmSystem) {
        let expected = sys.view("re").unwrap();
        for name in sys.view_names() {
            assert_eq!(sys.view(name).unwrap(), expected, "{name}");
        }
    }

    /// Apply `updates` to `rel`, the last two as one batch, and return the
    /// counts of `fo` after registration and after every step.
    fn drive(sys: &mut IvmSystem, rel: &str, updates: &[Bag]) -> Vec<(u64, u64, u64, u64)> {
        let mut steps = vec![counts(sys)];
        let (single, batched) = updates.split_at(updates.len() - 2);
        for u in single {
            sys.apply_update(rel, u).unwrap();
            steps.push(counts(sys));
            assert_all_equal_reevaluation(sys);
        }
        let mut batch = UpdateBatch::new();
        for u in batched {
            batch.push(rel, u.clone());
        }
        sys.apply_batch(&batch).unwrap();
        steps.push(counts(sys));
        assert_all_equal_reevaluation(sys);
        steps
    }

    #[test]
    fn first_order_counts_match_the_pinned_literals() {
        // E2's filter_p.
        let movie = |n: &str, g: &str, d: &str| {
            Value::Tuple(vec![Value::str(n), Value::str(g), Value::str(d)])
        };
        let filter_updates = vec![
            example_movies_update(),
            Bag::from_values([
                movie("Heat", "Drama", "Mann"),
                movie("Up", "Comedy", "Docter"),
            ]),
            example_movies_update().negate(),
            Bag::from_pairs([
                (movie("Heat", "Drama", "Mann"), -1),
                (movie("Gladiator", "Drama", "Scott"), 2),
            ]),
            Bag::from_values([movie("Heat", "Drama", "Mann")]),
        ];
        let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "Drama"));
        let mut sys = IvmSystem::new(example_movies());
        sys.register("re", q.clone(), Strategy::Reevaluate).unwrap();
        sys.register("fo", q, Strategy::FirstOrder).unwrap();
        assert_eq!(
            drive(&mut sys, "M", &filter_updates),
            vec![
                (11, 0, 0, 0),
                (11, 5, 1, 0),
                (11, 13, 1, 0),
                (11, 18, 1, 0),
                (11, 23, 2, 0)
            ]
        );

        // Ex. 4's flatten(R) × flatten(R) over R : Bag(Bag(Int)).
        let inner = |xs: &[i64]| Value::Bag(Bag::from_values(xs.iter().map(|&x| Value::int(x))));
        let mut db = Database::new();
        db.insert_relation(
            "R",
            Type::bag(Type::Base(BaseType::Int)),
            Bag::from_values([inner(&[1, 2]), inner(&[3])]),
        );
        let nested_updates = vec![
            Bag::from_pairs([(inner(&[9, 1]), 1), (inner(&[3]), -1)]),
            Bag::from_values([inner(&[4, 4, 5])]),
            Bag::from_pairs([(inner(&[1, 2]), -1)]),
            Bag::from_pairs([(inner(&[9, 1]), -1), (inner(&[7]), 2)]),
            Bag::from_values([inner(&[]), inner(&[2])]),
        ];
        let q = self_product_of_flatten("R");
        let mut sys = IvmSystem::new(db);
        sys.register("re", q.clone(), Strategy::Reevaluate).unwrap();
        sys.register("fo", q.clone(), Strategy::FirstOrder).unwrap();
        sys.register("rc", q, Strategy::Recursive).unwrap();
        assert_eq!(
            drive(&mut sys, "R", &nested_updates),
            vec![
                (17, 0, 0, 0),
                (17, 69, 17, 0),
                (17, 111, 33, 0),
                (17, 169, 24, 0),
                (17, 289, 43, 0)
            ]
        );
        assert_eq!(sys.stats("rc").unwrap().materialized_aux, 1);
    }
}
