//! [`DurableSystem`]: a [`ServingSystem`] whose applied batches — and
//! registered queries — survive process death.
//!
//! ## Protocol
//!
//! * **Log before apply.** Every [`UpdateBatch`] is appended to the WAL
//!   (and the fsync policy applied) *before* the engine sees it. The
//!   durable prefix of the update stream is therefore decided entirely by
//!   the log: a crash between append and apply loses nothing (recovery
//!   replays the record); a crash mid-append truncates the torn record and
//!   the batch was simply never accepted. A batch that names a relation
//!   the database does not have is rejected *before* the append, so it
//!   never reaches the log and the instance stays alive.
//! * **Log before register.** Post-creation registrations follow the same
//!   discipline: [`DurableSystem::register_query`] appends a WAL
//!   *registration record* carrying the view's [`CatalogEntry`] (name,
//!   NRC⁺ source, strategy) and syncs it before acking. Registrations are
//!   recovered from the log exactly like batches — there is no forced
//!   checkpoint on registration, so [`DurableStats::checkpoints_written`]
//!   now advances only on the `checkpoint_every` cadence (and explicit
//!   [`DurableSystem::checkpoint_now`] calls), not per registration.
//! * **Periodic checkpoints.** Every `checkpoint_every` batches (and once
//!   at creation, so batch index 0 is always recoverable) the full state —
//!   base relations, every published view in nested, value-resolved form,
//!   and the query catalog — is written atomically beside the log, and the
//!   WAL rolls over to a fresh segment based at the checkpoint index.
//!   Checkpoints bound recovery *time*; they never extend the durable
//!   prefix, which the WAL alone defines.
//! * **Recovery** = newest valid checkpoint + log suffix. The catalog is
//!   total — every view is registered from NRC⁺ text — so the embedded
//!   catalog re-registers every view (recomputing its state at the
//!   checkpoint index) with **no caller-supplied specs**; the recomputed
//!   states are verified against the checkpoint's persisted view bags;
//!   the segment chain is replayed in stream order, applying batches and
//!   late registrations alike. Recovery is idempotent — it mutates
//!   nothing but the torn tail truncation — so crashing during or right
//!   after recovery and recovering again yields the same state.
//! * **One replay path.** [`DurableSystem::recover`],
//!   [`DurableSystem::recover_at`] and [`DurableSystem::backfill_query`]
//!   are the same operation: load a checkpoint into a bare engine,
//!   register views, replay the log up to a stop index. Only the finished
//!   engine is wrapped for serving, so a recovered system has published
//!   exactly one snapshot however much it replayed.
//! * **Time travel.** Because the catalog makes the directory
//!   self-describing and `LogRetention::KeepAll` keeps every segment and
//!   checkpoint, [`DurableSystem::recover_at`] can rebuild the state *as
//!   of any durable batch index*, and [`DurableSystem::backfill_query`]
//!   can register a view late and synthesize the per-batch delta feed it
//!   *would* have produced had it been registered from stream origin.
//!   Both lean on the IVM guarantee the differential tests enforce: a
//!   view's state is a pure function of the database, so re-registration
//!   at index `k` reproduces exactly the state incremental maintenance
//!   would have carried there.
//!
//! The durable batch index is persistent and 1-based; the inner engine
//! restarts from the checkpoint, so its in-memory `batches_applied` counts
//! from the checkpoint, not from stream origin. [`DurableSystem::batch_index`]
//! always reports the durable index, and recovered systems re-base their
//! feed indices (see [`ServingSystem::set_batch_index_base`]) so
//! subscription deltas stay stream-absolute across crashes.

use crate::catalog::CatalogEntry;
use crate::checkpoint::{self, CheckpointData};
use crate::error::DurableError;
use crate::kill::KillPoint;
use crate::wal::{self, FsyncPolicy, Wal, WalEntry, WalScan};
use nrc_core::Expr;
use nrc_data::{Bag, Database};
use nrc_engine::{
    query_source, CollectPolicy, EngineError, IvmSystem, Parallelism, QueryPlan, Strategy,
    UpdateBatch,
};
use nrc_serve::{
    FeedDelta, ServeError, ServeStats, ServingSystem, Snapshot, SnapshotReader, Subscription,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A creation-time view registration for [`DurableSystem::create`]. The
/// catalog stores views as NRC⁺ text, so the query must have a surface
/// form: a raw [`Expr`] using `Δ^k R` or shredding-internal constructs is
/// rejected with [`DurableError::Uncataloged`].
#[derive(Clone, Debug)]
pub struct ViewSpec {
    /// View name.
    pub name: String,
    /// The registered query.
    pub query: Expr,
    /// Maintenance strategy.
    pub strategy: Strategy,
}

impl ViewSpec {
    /// A view registration.
    pub fn new(name: impl Into<String>, query: Expr, strategy: Strategy) -> ViewSpec {
        ViewSpec {
            name: name.into(),
            query,
            strategy,
        }
    }
}

/// What happens to history the newest checkpoint has superseded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LogRetention {
    /// Keep every WAL segment and checkpoint ever written. The directory
    /// stays navigable to any point in its life —
    /// [`DurableSystem::recover_at`] and [`DurableSystem::backfill_query`]
    /// both need the log back to the index they target. Recovery cost is
    /// unaffected (replay starts at the newest segment at or below the
    /// checkpoint, never at origin); disk is the only price.
    #[default]
    KeepAll,
    /// After each checkpoint, delete WAL segments and checkpoints strictly
    /// below it. Bounds disk to one checkpoint interval of log, at the
    /// cost of history: `recover_at` targets below the newest checkpoint
    /// and `backfill_query` (which replays from origin) fail with
    /// [`DurableError::HistoryTruncated`].
    TruncateAtCheckpoint,
}

/// Tunables of a [`DurableSystem`].
#[derive(Clone, Debug)]
pub struct DurableOptions {
    /// When WAL appends reach the disk.
    pub fsync: FsyncPolicy,
    /// Write a checkpoint every this many batches; `0` keeps only the
    /// creation-time checkpoint (recovery then replays the whole log).
    pub checkpoint_every: u64,
    /// What happens to superseded history at each checkpoint.
    pub retention: LogRetention,
    /// Crash-injection byte budget for the kill-point harness; `None` in
    /// production.
    pub kill: Option<Arc<KillPoint>>,
}

impl Default for DurableOptions {
    /// Safe-by-default: sync every batch, checkpoint every 1024, keep all
    /// history.
    fn default() -> DurableOptions {
        DurableOptions {
            fsync: FsyncPolicy::EveryBatch,
            checkpoint_every: 1024,
            retention: LogRetention::KeepAll,
            kill: None,
        }
    }
}

/// Counters of durable work.
///
/// `checkpoints_written` counts work done *by this instance* (zero right
/// after recovery); `last_checkpoint_index` describes *the directory* (the
/// newest checkpoint's durable batch index, whoever wrote it). The old
/// single `checkpoints` counter conflated the two — a recovered system
/// reported a nonzero index with zero work done, and callers could not
/// tell cadence from inheritance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// Durable batch index of the last applied batch (the durable prefix
    /// length, including batches applied by previous instances).
    pub batches: u64,
    /// WAL bytes appended by this instance (across segment rolls).
    pub wal_bytes: u64,
    /// Explicit WAL syncs issued by this instance.
    pub wal_syncs: u64,
    /// Checkpoints written by this instance (including the creation-time
    /// one for [`DurableSystem::create`]; `0` right after recovery).
    /// Advances on the `checkpoint_every` cadence and explicit
    /// [`DurableSystem::checkpoint_now`] calls only — registrations no
    /// longer force a checkpoint (they are WAL records now).
    pub checkpoints_written: u64,
    /// Durable batch index of the directory's newest checkpoint — a
    /// property of the directory, not of this instance's work.
    pub last_checkpoint_index: u64,
}

/// What recovery found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Durable batch index of the checkpoint recovery started from.
    pub checkpoint_index: u64,
    /// Finished checkpoint files present in the directory.
    pub checkpoints_scanned: usize,
    /// Checkpoint files that failed validation and were skipped.
    pub checkpoints_rejected: usize,
    /// WAL segments scanned (the chain from the checkpoint to the tip).
    pub segments_scanned: usize,
    /// Valid WAL records found in the scanned segments (both kinds).
    pub wal_records: u64,
    /// Batch records actually replayed (index > checkpoint).
    pub batches_replayed: u64,
    /// Registration records actually replayed (views not already in the
    /// checkpoint's catalog).
    pub registrations_replayed: u64,
    /// Torn/garbage bytes truncated from the live tail. Always `0` for
    /// [`DurableSystem::recover_at`] — a historical snapshot mutates
    /// nothing, not even the torn tail.
    pub torn_bytes_truncated: u64,
}

/// What [`DurableSystem::backfill_query`] did: the registered plan, the
/// synthesized history feed, and how much log it replayed.
pub struct Backfill {
    /// The live registration's plan (chosen strategy, estimates).
    pub plan: QueryPlan,
    /// A subscription preloaded with the view's full per-batch delta
    /// history: a batch-index-0 delta carrying the state at stream origin
    /// (the change *from nothing*), then one delta per durable batch
    /// through the present. Folding it from the empty bag reproduces every
    /// historical state; live deltas continue seamlessly after it.
    pub feed: Subscription,
    /// Batches replayed from the retained log to synthesize the history.
    pub batches_replayed: u64,
}

/// A serving system with a write-ahead log, periodic checkpoints and a
/// durable query catalog.
pub struct DurableSystem {
    serve: ServingSystem,
    /// `None` for read-only historical snapshots ([`DurableSystem::recover_at`]).
    wal: Option<Wal>,
    dir: PathBuf,
    opts: DurableOptions,
    /// Durable (persistent, 1-based) batch index of the last applied batch.
    applied: u64,
    /// The in-memory catalog, in registration order; embedded in every
    /// checkpoint this instance writes.
    catalog: Vec<CatalogEntry>,
    checkpoints_written: u64,
    last_checkpoint_index: u64,
    /// WAL bytes/syncs retired with rolled-over segment handles.
    rolled_wal_bytes: u64,
    rolled_wal_syncs: u64,
    read_only: bool,
    /// Set on any durable-path error: the in-memory state may be ahead of
    /// or behind the log in ways this instance can no longer reconcile.
    dead: bool,
}

/// The replayable log suffix: the scanned segment chain from the segment
/// covering `from_index` to the tip, with per-segment scans chained by
/// batch index.
struct LogSuffix {
    /// `(base, path, scan)` per segment, in base order.
    segments: Vec<(u64, PathBuf, WalScan)>,
}

impl LogSuffix {
    /// Scan the chain of WAL segments covering batch indices
    /// `(from_index, ..]`: the newest segment based at or below
    /// `from_index`, then every later segment, each validated to chain
    /// exactly from its predecessor's last batch index. Only the tip may
    /// have a torn tail — an interior gap is damage recovery cannot
    /// attribute to a crash.
    fn scan(dir: &Path, from_index: u64) -> Result<LogSuffix, DurableError> {
        let all = wal::list_segments(dir)?;
        if all.is_empty() {
            return Ok(LogSuffix {
                segments: Vec::new(),
            });
        }
        let start = match all.iter().rposition(|(base, _)| *base <= from_index) {
            Some(i) => i,
            None => {
                return Err(DurableError::HistoryTruncated {
                    dir: dir.to_path_buf(),
                    detail: format!(
                        "no WAL segment based at or below batch {from_index} \
                         (oldest retained base is {})",
                        all[0].0
                    ),
                })
            }
        };
        let mut segments = Vec::with_capacity(all.len() - start);
        let mut prev_last: Option<u64> = None;
        for (base, path) in all.into_iter().skip(start) {
            let scan = wal::scan(&path, base)?;
            if let Some(last) = prev_last {
                if base != last {
                    return Err(DurableError::Corrupt {
                        path,
                        detail: format!(
                            "segment base {base} does not chain from the previous \
                             segment's last batch {last}"
                        ),
                    });
                }
            }
            prev_last = Some(scan.last_batch_index());
            segments.push((base, path, scan));
        }
        Ok(LogSuffix { segments })
    }

    fn records(&self) -> u64 {
        self.segments
            .iter()
            .map(|(_, _, s)| s.entries.len() as u64)
            .sum()
    }

    fn entries(&self) -> impl Iterator<Item = &WalEntry> {
        self.segments.iter().flat_map(|(_, _, s)| s.entries.iter())
    }

    /// The tip segment's `(path, scan)`, if any segment exists.
    fn tip(&self) -> Option<(&PathBuf, &WalScan)> {
        self.segments.last().map(|(_, p, s)| (p, s))
    }
}

/// A finished [`replay`]: the engine at the stop index, and what it took.
struct Replayed {
    engine: IvmSystem,
    /// The views the engine carries, in registration order.
    catalog: Vec<CatalogEntry>,
    /// Durable batch index the engine is at.
    applied: u64,
    batches_replayed: u64,
    registrations_replayed: u64,
    /// The scanned log, for the caller's WAL handle and stats.
    suffix: LogSuffix,
}

/// The one log-replay path behind [`DurableSystem::recover`],
/// [`DurableSystem::recover_at`] and [`DurableSystem::backfill_query`]:
/// load the checkpoint's relations into a bare engine, register views,
/// then replay the log from the checkpoint in stream order through
/// durable batch index `stop`. `reached` runs once at the checkpoint's
/// index and again after every replayed batch, with the index the engine
/// is now at.
///
/// With `only: None` (recovery) the views are the checkpoint's catalog,
/// verified against its persisted view bags, then every registration
/// record of the log. With `only: Some(entry)` (backfill) the engine
/// carries that one view, and registration records are skipped.
///
/// Replay equals live maintenance because a view's state is a pure
/// function of the database and deltas are additive: registering at the
/// checkpoint and applying the same batches reaches the state incremental
/// maintenance carried, whichever caller asks.
fn replay(
    dir: &Path,
    ckpt: &CheckpointData,
    ckpt_path: &Path,
    only: Option<&CatalogEntry>,
    stop: u64,
    mut reached: impl FnMut(&mut IvmSystem, u64) -> Result<(), DurableError>,
) -> Result<Replayed, DurableError> {
    let mut db = Database::new();
    for (name, ty, bag) in &ckpt.relations {
        db.insert_relation(name.clone(), ty.clone(), bag.clone());
    }
    let mut engine = IvmSystem::new(db);
    let mut catalog = match only {
        Some(entry) => vec![entry.clone()],
        None => ckpt.catalog.clone(),
    };
    for entry in &catalog {
        register_entry(&mut engine, entry)?;
    }
    // Integrity gate (recovery): recomputation must reproduce the persisted
    // view bags exactly — for the checkpoint's own views only, so a view
    // registered after the checkpoint can never be mistaken for corruption.
    let gated = if only.is_none() { &ckpt.views[..] } else { &[] };
    for (name, bag) in gated {
        if engine.view(name).ok().as_ref() != Some(bag) {
            return Err(DurableError::Corrupt {
                path: ckpt_path.to_path_buf(),
                detail: format!(
                    "checkpoint view {name} disagrees with recomputation from its relations"
                ),
            });
        }
    }
    reached(&mut engine, ckpt.batch_index)?;

    let suffix = LogSuffix::scan(dir, ckpt.batch_index)?;
    let mut applied = ckpt.batch_index;
    let mut batches_replayed = 0u64;
    let mut registrations_replayed = 0u64;
    for entry in suffix.entries() {
        match entry {
            WalEntry::Batch(r) => {
                if r.batch_index <= applied {
                    continue; // covered by the checkpoint
                }
                if r.batch_index > stop {
                    break;
                }
                if r.batch_index != applied + 1 {
                    return Err(DurableError::Corrupt {
                        path: dir.to_path_buf(),
                        detail: format!("log skips from batch {applied} to {}", r.batch_index),
                    });
                }
                // The replayed batch's trace is keyed by its durable index,
                // as the live batch's was.
                let _trace = nrc_obs::trace::guard(r.batch_index);
                engine.apply_batch(&r.batch).map_err(ServeError::from)?;
                applied = r.batch_index;
                batches_replayed += 1;
                reached(&mut engine, applied)?;
            }
            WalEntry::Registration(r) => {
                if r.at_index > stop {
                    break;
                }
                // Registration replay is idempotent by name: a record whose
                // view the checkpoint's catalog already carries was
                // registered above.
                if only.is_some() || engine.view_names().any(|n| *n == r.entry.name) {
                    continue;
                }
                register_entry(&mut engine, &r.entry)?;
                catalog.push(r.entry.clone());
                registrations_replayed += 1;
            }
        }
    }
    Ok(Replayed {
        engine,
        catalog,
        applied,
        batches_replayed,
        registrations_replayed,
        suffix,
    })
}

/// Register one cataloged view on `engine` from its stored NRC⁺ source.
/// An entry without one (`has_src = 0`, written by older versions) fails
/// with [`DurableError::Uncataloged`].
fn register_entry(engine: &mut IvmSystem, entry: &CatalogEntry) -> Result<(), DurableError> {
    let Some(src) = &entry.source else {
        return Err(DurableError::Uncataloged {
            view: entry.name.clone(),
        });
    };
    engine.register_query_with(&entry.name, src, entry.strategy)?;
    Ok(())
}

impl DurableSystem {
    /// Create a durable system in `dir` (created if missing): build the
    /// engine over `db`, register `views`, publish once, start the WAL at
    /// segment base 0, and write the initial checkpoint — catalog
    /// included, so the directory is self-describing from birth. Creation
    /// is provisioning and is not kill-guarded; the byte budget (if armed)
    /// meters subsequent ingest.
    ///
    /// Fails with [`DurableError::Uncataloged`], before anything is
    /// written, if some view's query has no NRC⁺ surface form.
    pub fn create(
        dir: &Path,
        db: Database,
        views: &[ViewSpec],
        opts: DurableOptions,
    ) -> Result<DurableSystem, DurableError> {
        let mut engine = IvmSystem::new(db);
        let mut catalog = Vec::with_capacity(views.len());
        for v in views {
            let source = query_source(&v.query).ok_or_else(|| DurableError::Uncataloged {
                view: v.name.clone(),
            })?;
            engine
                .register(v.name.clone(), v.query.clone(), v.strategy)
                .map_err(ServeError::from)?;
            catalog.push(CatalogEntry {
                name: v.name.clone(),
                source: Some(source),
                strategy: v.strategy,
            });
        }
        std::fs::create_dir_all(dir).map_err(|e| crate::error::io_err(dir, e))?;
        let serve = ServingSystem::new(engine)?;
        let wal_path = dir.join(wal::segment_file_name(0));
        let wal = Wal::create(&wal_path, 0, opts.fsync, opts.kill.clone())?;
        let mut sys = DurableSystem {
            serve,
            wal: Some(wal),
            dir: dir.to_path_buf(),
            opts,
            applied: 0,
            catalog,
            checkpoints_written: 0,
            last_checkpoint_index: 0,
            rolled_wal_bytes: 0,
            rolled_wal_syncs: 0,
            read_only: false,
            dead: false,
        };
        // The initial checkpoint is unguarded too: without it a torn
        // creation would leave nothing to recover toward.
        sys.write_checkpoint(false)?;
        Ok(sys)
    }

    /// Recover the durable system persisted in `dir` from its own catalog:
    /// newest valid checkpoint, every cataloged view re-registered from
    /// its stored NRC⁺ source and verified against the checkpoint's
    /// persisted bags, log suffix replayed (batches and late registrations
    /// in stream order), torn tail truncated. The recovered system has
    /// published exactly one snapshot.
    ///
    /// Fails with [`DurableError::Uncataloged`] on a catalog entry that
    /// carries no source (`has_src = 0`, which only older versions wrote).
    pub fn recover(
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<(DurableSystem, RecoveryStats), DurableError> {
        Self::recover_impl(dir, u64::MAX, opts, false)
    }

    /// Point-in-time recovery: rebuild the state **as of durable batch
    /// index `batch_index`** — newest valid checkpoint at or below it,
    /// plus log replay up to and including it (registrations made at that
    /// index included). The result is a read-only historical snapshot:
    /// every mutating call fails with [`DurableError::ReadOnly`], and the
    /// directory is untouched (not even torn tails are truncated), so the
    /// live log can keep growing elsewhere.
    ///
    /// Under [`LogRetention::TruncateAtCheckpoint`], targets older than
    /// the newest checkpoint fail with [`DurableError::HistoryTruncated`].
    pub fn recover_at(
        dir: &Path,
        batch_index: u64,
        opts: DurableOptions,
    ) -> Result<(DurableSystem, RecoveryStats), DurableError> {
        Self::recover_impl(dir, batch_index, opts, true)
    }

    fn recover_impl(
        dir: &Path,
        max_index: u64,
        opts: DurableOptions,
        read_only: bool,
    ) -> Result<(DurableSystem, RecoveryStats), DurableError> {
        let obs_start = nrc_obs::enabled().then(std::time::Instant::now);
        let ckpt_scan = checkpoint::load_newest_at(dir, max_index)?;
        let Some((ckpt, ckpt_path)) = ckpt_scan.newest else {
            // Distinguish "nothing here at all" from "history this old is
            // gone" — the latter is what retention pruning leaves behind.
            if max_index < u64::MAX && checkpoint::load_newest(dir)?.newest.is_some() {
                return Err(DurableError::HistoryTruncated {
                    dir: dir.to_path_buf(),
                    detail: format!("no checkpoint at or below batch {max_index} survives"),
                });
            }
            return Err(DurableError::NoCheckpoint {
                dir: dir.to_path_buf(),
            });
        };

        let Replayed {
            engine,
            catalog,
            applied,
            batches_replayed,
            registrations_replayed,
            suffix,
        } = replay(dir, &ckpt, &ckpt_path, None, max_index, |_, _| Ok(()))?;
        // Publish once, over the finished engine. Feed indices must stay
        // stream-absolute: the engine counts batches from the checkpoint.
        let mut serve = ServingSystem::new(engine)?;
        serve.set_batch_index_base(ckpt.batch_index);

        let (torn, wal_handle) = match (read_only, suffix.tip()) {
            // A historical snapshot must not mutate the directory: no
            // truncation, no open append handle.
            (true, _) => (0, None),
            (false, Some((path, scan))) => (
                scan.torn_bytes(),
                Some(Wal::resume(path, opts.fsync, opts.kill.clone(), scan)?),
            ),
            (false, None) => {
                // No segment survives (possible only on hand-pruned
                // directories): start a fresh one at the recovered index.
                let path = dir.join(wal::segment_file_name(applied));
                (
                    0,
                    Some(Wal::create(&path, applied, opts.fsync, opts.kill.clone())?),
                )
            }
        };

        let stats = RecoveryStats {
            checkpoint_index: ckpt.batch_index,
            checkpoints_scanned: ckpt_scan.scanned,
            checkpoints_rejected: ckpt_scan.rejected,
            segments_scanned: suffix.segments.len(),
            wal_records: suffix.records(),
            batches_replayed,
            registrations_replayed,
            torn_bytes_truncated: torn,
        };
        if let Some(t) = obs_start {
            Self::export_recovery_metrics(&stats, t.elapsed().as_nanos() as u64);
        }
        Ok((
            DurableSystem {
                serve,
                wal: wal_handle,
                dir: dir.to_path_buf(),
                opts,
                applied,
                catalog,
                checkpoints_written: 0,
                last_checkpoint_index: ckpt.batch_index,
                rolled_wal_bytes: 0,
                rolled_wal_syncs: 0,
                read_only,
                dead: false,
            },
            stats,
        ))
    }

    /// Export one recovery run into the metrics registry: a wall-clock
    /// histogram plus cumulative counters mirroring [`RecoveryStats`]
    /// (recovery is rare, so counters accumulate across runs — a process
    /// that recovers twice reports the sum; per-run detail lives in the
    /// returned stats struct).
    fn export_recovery_metrics(stats: &RecoveryStats, nanos: u64) {
        use std::sync::{Arc, LazyLock};
        struct Handles {
            total_ns: Arc<nrc_obs::Histogram>,
            runs: Arc<nrc_obs::Counter>,
            batches_replayed: Arc<nrc_obs::Counter>,
            registrations_replayed: Arc<nrc_obs::Counter>,
            torn_bytes: Arc<nrc_obs::Counter>,
            checkpoint_index: Arc<nrc_obs::Gauge>,
        }
        static HANDLES: LazyLock<Handles> = LazyLock::new(|| Handles {
            total_ns: nrc_obs::histogram("durable.recovery.total_ns"),
            runs: nrc_obs::counter("durable.recovery.runs"),
            batches_replayed: nrc_obs::counter("durable.recovery.batches_replayed"),
            registrations_replayed: nrc_obs::counter("durable.recovery.registrations_replayed"),
            torn_bytes: nrc_obs::counter("durable.recovery.torn_bytes_truncated"),
            checkpoint_index: nrc_obs::gauge("durable.recovery.checkpoint_index"),
        });
        HANDLES.total_ns.record(nanos);
        HANDLES.runs.inc();
        HANDLES.batches_replayed.add(stats.batches_replayed);
        HANDLES
            .registrations_replayed
            .add(stats.registrations_replayed);
        HANDLES.torn_bytes.add(stats.torn_bytes_truncated);
        HANDLES.checkpoint_index.set_u64(stats.checkpoint_index);
    }

    /// Durably apply one batch: WAL append (+ policy fsync) first, engine
    /// apply + snapshot publication second, periodic checkpoint third.
    ///
    /// A batch with a non-empty segment for a relation the database does
    /// not have fails with [`EngineError::UnknownRelation`] before the
    /// append: nothing is logged and the instance stays alive. Any later
    /// failure — including the injected [`DurableError::Killed`] —
    /// poisons this instance; the directory stays recoverable.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<(), DurableError> {
        self.check_writable()?;
        let db = self.serve.engine().database();
        if let Some((rel, _)) = batch
            .segments()
            .find(|(rel, delta)| !delta.is_empty() && db.get(rel).is_none())
        {
            return Err(ServeError::from(EngineError::UnknownRelation(rel.to_owned())).into());
        }
        let index = self.applied + 1;
        if let Err(e) = self.try_apply(index, batch) {
            self.dead = true;
            return Err(e);
        }
        Ok(())
    }

    fn check_writable(&self) -> Result<(), DurableError> {
        if self.dead {
            return Err(DurableError::Dead);
        }
        if self.read_only {
            return Err(DurableError::ReadOnly);
        }
        Ok(())
    }

    fn wal_mut(&mut self) -> &mut Wal {
        self.wal.as_mut().expect("writable system has a WAL")
    }

    fn try_apply(&mut self, index: u64, batch: &UpdateBatch) -> Result<(), DurableError> {
        // The durable layer opens the batch's flight-recorder trace: it is
        // the outermost scope, so the serve/engine guards below nest into
        // it and every stage span lands in one trace keyed by the durable
        // (stream-absolute) batch index.
        let _trace = nrc_obs::trace::guard(index);
        let t = nrc_obs::enabled().then(std::time::Instant::now);
        let bytes = self.wal_mut().append(index, batch)?;
        if let Some(t) = t {
            use std::sync::{Arc, LazyLock};
            static APPEND_NS: LazyLock<Arc<nrc_obs::Histogram>> =
                LazyLock::new(|| nrc_obs::histogram("durable.wal.append_ns"));
            static BYTES: LazyLock<Arc<nrc_obs::Counter>> =
                LazyLock::new(|| nrc_obs::counter("durable.wal.bytes"));
            let ns = t.elapsed().as_nanos() as u64;
            APPEND_NS.record(ns);
            BYTES.add(bytes);
            nrc_obs::trace::span("wal_append", format!("bytes={bytes}"), ns);
        }
        self.serve.apply_batch(batch)?;
        self.applied = index;
        if self.opts.checkpoint_every > 0 && index % self.opts.checkpoint_every == 0 {
            self.write_checkpoint(true)?;
        }
        Ok(())
    }

    /// Register a view from NRC⁺ query text with an auto-picked strategy
    /// (see [`nrc_engine::IvmSystem::register_query`]), appending a synced
    /// WAL registration record so the view is durable the moment this
    /// acks — recovery re-registers it from the catalog with **no**
    /// caller-supplied spec.
    ///
    /// Registration no longer forces a checkpoint: durability comes from
    /// the log record, so `checkpoints_written` advances only on the
    /// `checkpoint_every` batch cadence (and explicit
    /// [`DurableSystem::checkpoint_now`] calls).
    ///
    /// Parse/typecheck/plan/registration failures leave the durable state
    /// unchanged (no poisoning); a failure while logging the record —
    /// including an injected kill — poisons the instance, and the unacked
    /// registration is torn from the log at the next recovery exactly
    /// like an unacked batch.
    pub fn register_query(&mut self, name: &str, src: &str) -> Result<QueryPlan, DurableError> {
        self.check_writable()?;
        let plan = self.serve.register_query(name, src)?;
        let entry = CatalogEntry {
            name: name.to_owned(),
            source: query_source(&plan.query),
            strategy: plan.chosen.into(),
        };
        self.log_registration(entry)?;
        Ok(plan)
    }

    /// Like [`DurableSystem::register_query`], but force `strategy` (see
    /// [`nrc_engine::IvmSystem::register_query_with`]). The forced
    /// strategy is cataloged, so recovery re-registers under it too.
    pub fn register_query_with(
        &mut self,
        name: &str,
        src: &str,
        strategy: Strategy,
    ) -> Result<QueryPlan, DurableError> {
        self.check_writable()?;
        let plan = self.serve.register_query_with(name, src, strategy)?;
        let entry = CatalogEntry {
            name: name.to_owned(),
            source: query_source(&plan.query),
            strategy,
        };
        self.log_registration(entry)?;
        Ok(plan)
    }

    /// Append + sync one registration record, poisoning on failure, and
    /// admit the entry to the in-memory catalog on success. The sync is
    /// unconditional (policy-independent): registrations are rare and an
    /// acked one must never be lost to a lazy fsync policy.
    fn log_registration(&mut self, entry: CatalogEntry) -> Result<(), DurableError> {
        let at_index = self.applied;
        let logged = self
            .wal_mut()
            .append_registration(at_index, &entry)
            .and_then(|_| self.wal_mut().sync());
        if let Err(e) = logged {
            self.dead = true;
            return Err(e);
        }
        self.catalog.push(entry);
        Ok(())
    }

    /// Register a view **after the fact** and recover the history it
    /// missed: parse and register `src` (auto-picked strategy) on the live
    /// system, then replay the retained log from stream origin against a
    /// scratch engine to synthesize the per-batch delta feed the view
    /// would have produced had it existed from batch 0.
    ///
    /// The returned [`Backfill::feed`] is a live subscription preloaded
    /// with that history (a batch-0 delta carrying the origin state, then
    /// one delta per durable batch); deltas of future batches follow
    /// seamlessly. Soundness leans on the IVM purity guarantee the
    /// differential tests enforce — a view's state is a pure function of
    /// the database, so replaying the same update stream through a fresh
    /// registration yields exactly the deltas incremental maintenance
    /// would have emitted — and the replay's final state is verified
    /// against the live registration before the feed is handed out.
    ///
    /// Needs the full log: under [`LogRetention::TruncateAtCheckpoint`]
    /// this fails with [`DurableError::HistoryTruncated`].
    pub fn backfill_query(&mut self, name: &str, src: &str) -> Result<Backfill, DurableError> {
        self.check_writable()?;
        let plan = nrc_engine::parse_and_plan(
            name,
            src,
            self.serve.engine().database(),
            nrc_engine::DEFAULT_UPDATE_CARD,
        )?;
        self.backfill_inner(name, src, plan.chosen.into())
    }

    /// Like [`DurableSystem::backfill_query`], but force `strategy` for
    /// both the historical replay and the live registration.
    pub fn backfill_query_with(
        &mut self,
        name: &str,
        src: &str,
        strategy: Strategy,
    ) -> Result<Backfill, DurableError> {
        self.check_writable()?;
        self.backfill_inner(name, src, strategy)
    }

    fn backfill_inner(
        &mut self,
        name: &str,
        src: &str,
        strategy: Strategy,
    ) -> Result<Backfill, DurableError> {
        // History starts at the origin checkpoint (batch 0, written at
        // creation); retention may have pruned it.
        let scan0 = checkpoint::load_newest_at(&self.dir, 0)?;
        let Some((ckpt0, ckpt0_path)) = scan0.newest else {
            return Err(DurableError::HistoryTruncated {
                dir: self.dir.clone(),
                detail: "no origin checkpoint (batch 0) survives; backfill needs \
                         LogRetention::KeepAll"
                    .to_string(),
            });
        };

        // Scratch replay: a throwaway engine carrying only the new view,
        // fed the retained stream up to the live index with delta capture
        // on. The origin state is the change from nothing at index 0.
        let entry = CatalogEntry {
            name: name.to_owned(),
            source: Some(src.to_owned()),
            strategy,
        };
        let mut history = Vec::new();
        let scratch = replay(
            &self.dir,
            &ckpt0,
            &ckpt0_path,
            Some(&entry),
            self.applied,
            |engine, batch_index| {
                let delta = if batch_index == ckpt0.batch_index {
                    engine.set_delta_capture_views(std::iter::once(name.to_owned()).collect());
                    engine.view(name).map_err(ServeError::from)?
                } else {
                    engine.take_view_deltas().remove(name).unwrap_or_default()
                };
                history.push(FeedDelta { batch_index, delta });
                Ok(())
            },
        )?;
        if scratch.applied != self.applied {
            return Err(DurableError::HistoryTruncated {
                dir: self.dir.clone(),
                detail: format!(
                    "retained log replays to batch {}, but the live system is at batch {}",
                    scratch.applied, self.applied
                ),
            });
        }

        // Register live, then verify the replay converged on the live
        // state — a mismatch means the log and the directory disagree
        // about history, which poisons this instance like any other
        // durable-path inconsistency.
        let plan = self.serve.register_query_with(name, src, strategy)?;
        let live = self.serve.view(name).map_err(ServeError::from)?;
        let replayed_state = scratch.engine.view(name).map_err(ServeError::from)?;
        if live != replayed_state {
            self.dead = true;
            return Err(DurableError::Corrupt {
                path: self.dir.clone(),
                detail: format!(
                    "backfill replay of {name} disagrees with registration over \
                     the live database"
                ),
            });
        }
        let batches_replayed = scratch.batches_replayed;
        drop(scratch);

        self.log_registration(CatalogEntry {
            name: name.to_owned(),
            source: query_source(&plan.query),
            strategy,
        })?;
        let feed = self
            .serve
            .subscribe_with_history(name, history.len() + 16, history)?;
        Ok(Backfill {
            plan,
            feed,
            batches_replayed,
        })
    }

    /// Write a checkpoint of the current state now.
    pub fn checkpoint_now(&mut self) -> Result<(), DurableError> {
        self.check_writable()?;
        if let Err(e) = self.write_checkpoint(true) {
            self.dead = true;
            return Err(e);
        }
        Ok(())
    }

    fn write_checkpoint(&mut self, guarded: bool) -> Result<(), DurableError> {
        let obs_start = nrc_obs::enabled().then(std::time::Instant::now);
        // The WAL must not lag the checkpoint on disk: recovery trusts a
        // checkpoint unconditionally, so everything up to its index must
        // be at least as durable as the checkpoint itself.
        self.wal_mut().sync()?;
        let db = self.serve.engine().database();
        let mut relations = Vec::new();
        for (name, bag) in db.iter() {
            let ty = db
                .schema(name)
                .cloned()
                .ok_or_else(|| DurableError::Corrupt {
                    path: self.dir.clone(),
                    detail: format!("relation {name} has no schema"),
                })?;
            relations.push((name.clone(), ty, bag.clone()));
        }
        let views = self.serve.snapshot().resolved_views()?;
        let data = CheckpointData {
            batch_index: self.applied,
            relations,
            views,
            catalog: self.catalog.clone(),
        };
        let kill = if guarded {
            self.opts.kill.as_deref()
        } else {
            None
        };
        checkpoint::write(&self.dir, &data, kill)?;
        self.checkpoints_written += 1;
        self.last_checkpoint_index = self.applied;

        // Roll the log: later records land in a fresh segment based at
        // the checkpoint, so recovery opens exactly one segment chain and
        // retention can drop whole superseded files.
        if self.applied > self.wal.as_ref().expect("writable").base() {
            let path = self.dir.join(wal::segment_file_name(self.applied));
            let next = Wal::create(&path, self.applied, self.opts.fsync, self.opts.kill.clone())?;
            let old = self.wal.replace(next).expect("writable");
            self.rolled_wal_bytes += old.bytes_appended();
            self.rolled_wal_syncs += old.syncs();
        }
        if self.opts.retention == LogRetention::TruncateAtCheckpoint {
            // Superseded history: checkpoints below the new one, and
            // segments below the one that covers it. Pruning is advisory
            // (failures ignored) — leftovers are inert.
            checkpoint::prune_below(&self.dir, self.applied)?;
            wal::prune_segments_below(&self.dir, self.wal.as_ref().expect("writable").base())?;
        }
        if let Some(t) = obs_start {
            use std::sync::{Arc, LazyLock};
            static WRITE_NS: LazyLock<Arc<nrc_obs::Histogram>> =
                LazyLock::new(|| nrc_obs::histogram("durable.checkpoint.write_ns"));
            let ns = t.elapsed().as_nanos() as u64;
            WRITE_NS.record(ns);
            nrc_obs::trace::span("checkpoint", format!("at={}", self.applied), ns);
        }
        Ok(())
    }

    // ---------------------------------------------------------- reads

    /// Durable batch index of the last applied batch (1-based; 0 = none).
    pub fn batch_index(&self) -> u64 {
        self.applied
    }

    /// The current published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.serve.snapshot()
    }

    /// A lock-free reader handle.
    pub fn reader(&self) -> SnapshotReader {
        self.serve.reader()
    }

    /// A view's current nested result.
    pub fn view(&self, name: &str) -> Result<Bag, DurableError> {
        self.serve
            .view(name)
            .map_err(|e| DurableError::Serve(e.into()))
    }

    /// The wrapped serving system (read-only: mutating ingest must go
    /// through [`DurableSystem::apply_batch`] or it would bypass the log).
    pub fn serving(&self) -> &ServingSystem {
        &self.serve
    }

    /// Subscribe to a view's per-batch change feed (see
    /// [`ServingSystem::subscribe`]). Feed indices are durable batch
    /// indices — stream-absolute even on recovered instances.
    pub fn subscribe(&mut self, view: &str, capacity: usize) -> Result<Subscription, DurableError> {
        Ok(self.serve.subscribe(view, capacity)?)
    }

    /// The query catalog as this instance knows it, in registration order.
    pub fn catalog(&self) -> &[CatalogEntry] {
        &self.catalog
    }

    /// Serving-layer counters.
    pub fn serve_stats(&self) -> ServeStats {
        self.serve.serve_stats()
    }

    /// Durability counters.
    pub fn durable_stats(&self) -> DurableStats {
        let (live_bytes, live_syncs) = self
            .wal
            .as_ref()
            .map(|w| (w.bytes_appended(), w.syncs()))
            .unwrap_or((0, 0));
        DurableStats {
            batches: self.applied,
            wal_bytes: self.rolled_wal_bytes + live_bytes,
            wal_syncs: self.rolled_wal_syncs + live_syncs,
            checkpoints_written: self.checkpoints_written,
            last_checkpoint_index: self.last_checkpoint_index,
        }
    }

    /// Does nothing: views always refresh sequentially. Kept only until
    /// the benchmark package drops its calls (ROADMAP item 1).
    pub fn set_parallelism(&mut self, _mode: Parallelism) {}

    /// Pass-through: engine reclamation pacing.
    pub fn set_collect_policy(&mut self, policy: CollectPolicy) {
        self.serve.set_collect_policy(policy);
    }

    /// Is this instance a read-only historical snapshot
    /// ([`DurableSystem::recover_at`])?
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Is this instance poisoned by an earlier failure?
    pub fn is_dead(&self) -> bool {
        self.dead
    }
}
