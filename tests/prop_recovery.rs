//! Kill-point differential crash-recovery harness — the durability PR's
//! headline property: an injected-failpoint workload killed at a random
//! byte offset of its durable output (mid-record, mid-checkpoint, between
//! fsyncs — wherever the byte lands), then recovered, must equal a
//! never-crashed sequential replay of the same stream, for all four
//! maintenance strategies. Plus the satellite properties:
//!
//! * **WAL replay is idempotent and prefix-closed**: scanning is
//!   side-effect-free, every byte-truncation of the log scans to a record
//!   prefix, and replaying that prefix reproduces exactly the sequential
//!   state at its batch index — a torn or garbage tail is truncated, never
//!   mis-applied.
//! * **Checkpoint round-trip across GC**: state persisted under
//!   `CollectPolicy::Bounded` and recovered after arena slot reuse answers
//!   `scan`/`get`/`lookup_label` identically — nothing arena-dependent (no
//!   possible `StaleVid`) lives in the on-disk format.
//! * **Double crash**: crashing again during post-recovery ingest and
//!   recovering a second (and third) time stays on the reference replay —
//!   recovery is idempotent.
//! * **Point-in-time differential**: `recover_at(k)` equals the uncrashed
//!   sequential replay at batch `k` — at, below and above checkpoint
//!   indices — is read-only, idempotent, and leaves the live directory
//!   recoverable to its tip; `TruncateAtCheckpoint` turns pruned targets
//!   into `HistoryTruncated`, never silently-wrong state.
//! * **Catalog recovery**: text-registered views come back from the
//!   directory alone (no caller `ViewSpec`s), a kill inside
//!   `register_query`'s durable write never leaves the directory
//!   unrecoverable (the old whole-set integrity gate did), and a view the
//!   directory never saw registers fresh over the recovered database. The
//!   catalog is total: `create` refuses a query with no surface form, and
//!   a source-less entry an older version wrote fails recovery with
//!   `Uncataloged`.
//! * **One publication per recovery**: `recover` and `recover_at` replay
//!   into a bare engine and publish once, however many batches and
//!   registrations they replayed.
//! * **Validate before logging**: a batch naming an unknown relation is
//!   refused before the WAL append, so ingest continues and the directory
//!   still recovers to the last acked index.
//! * **Backfill differential**: a view backfilled after the full stream
//!   equals the same view registered from batch 0 — final state *and*
//!   per-batch delta feed — for all four strategies; `KeepAll` retention
//!   makes it possible, `TruncateAtCheckpoint` makes it fail loudly.
//!
//! The arena is process-global, so cases serialize and use case-unique
//! payload prefixes (the shared discipline in `tests/common`).

mod common;

use common::{fresh_case, serial};
use nrc_core::builder::{cmp_lit, filter_query, rel, related_query};
use nrc_core::expr::CmpOp;
use nrc_core::Expr;
use nrc_data::{Bag, Value};
use nrc_durable::{
    checkpoint, wal, CatalogEntry, DurableError, DurableOptions, DurableSystem, FsyncPolicy,
    KillPoint, LogRetention, ViewSpec, Wal,
};
use nrc_engine::{CollectPolicy, EngineError, Strategy, UpdateBatch, ViewStateSnapshot};
use nrc_serve::ServeError;
use nrc_workloads::{kill_offsets, RecoveryPlan, StreamConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A self-cleaning scratch directory under the system temp dir, unique per
/// (process, case, tag) so parallel test binaries never collide.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str, case: u64) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "nrc-prop-recovery-{}-{case}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Queries every strategy accepts (IncNRC⁺, flat) over the streaming
/// movies schema — the kill-point differential runs all four strategies
/// over the same query.
fn query_pool(idx: usize) -> Expr {
    match idx {
        0 => rel("M"),
        1 => filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "genre0")),
        _ => filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "genre1")),
    }
}

/// The text twin of `query_pool(1)`, for the text-registration paths.
const FILTER_SRC: &str = "for x in M where x.1 == \"genre0\" union sng(x)";

/// The sampled WAL fsync policies: every one of the three variants, with
/// two `EveryN` cadences.
fn fsync_pool(idx: usize) -> FsyncPolicy {
    match idx {
        0 => FsyncPolicy::EveryBatch,
        1 => FsyncPolicy::EveryN(2),
        2 => FsyncPolicy::EveryN(3),
        _ => FsyncPolicy::Never,
    }
}

fn opts(fsync: FsyncPolicy, checkpoint_every: u64, kill: Option<Arc<KillPoint>>) -> DurableOptions {
    DurableOptions {
        fsync,
        checkpoint_every,
        retention: LogRetention::KeepAll,
        kill,
    }
}

/// Assert every view of `sys` equals the reference replay state.
fn check_views(
    sys: &DurableSystem,
    expected: &BTreeMap<String, Bag>,
    at: &str,
) -> Result<(), TestCaseError> {
    for (name, want) in expected {
        prop_assert_eq!(
            &sys.view(name).expect("recovered view"),
            want,
            "view {} diverged from the uncrashed replay {}",
            name,
            at
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(12))]

    /// The headline differential: ingest the plan once uncrashed (metering
    /// the guarded byte volume), re-run it with a kill budget at a random
    /// byte of that volume, recover, and require the recovered state to
    /// equal the sequential replay at the recovered batch index — then
    /// crash *again* mid-continuation and recover twice more.
    ///
    /// Recovery here is catalog-only (`recover`, no specs): every builder
    /// query in the pool has a surface form, so the directory describes
    /// itself.
    #[test]
    fn recovered_state_equals_uncrashed_replay(
        seed in 0u64..10_000,
        nbatches in 1usize..7,
        batch_size in 1usize..6,
        delete_tenths in 0usize..5,
        query_idx in 0usize..3,
        fsync_idx in 0usize..4,
        checkpoint_every in 0u64..4,
        kill_salt in 0u64..10_000,
    ) {
        let _serial = serial();
        let case = fresh_case();
        let cfg = StreamConfig {
            batch_size,
            delete_fraction: delete_tenths as f64 / 10.0,
            genres: 3,
            directors: 3,
            payload_prefix: format!("prop-rec-{case}-"),
            ..StreamConfig::default()
        };
        let plan = RecoveryPlan::generate(seed, cfg, 12, nbatches);
        let q = query_pool(query_idx);
        let view_list = [
            ("re", q.clone(), Strategy::Reevaluate),
            ("fo", q.clone(), Strategy::FirstOrder),
            ("rc", q.clone(), Strategy::Recursive),
            ("sh", q.clone(), Strategy::Shredded),
        ];
        let states = common::recovery_plan_states(&plan, &view_list);
        let specs: Vec<ViewSpec> = view_list
            .iter()
            .map(|(n, q, s)| ViewSpec::new(*n, q.clone(), *s))
            .collect();
        let fsync = fsync_pool(fsync_idx);

        // --- Uncrashed run: the reference, metered for its byte volume ---
        let meter = KillPoint::arm(u64::MAX);
        let dir_ok = TempDir::new("uncrashed", case);
        let mut ok_sys = DurableSystem::create(
            dir_ok.path(),
            plan.db.clone(),
            &specs,
            opts(fsync, checkpoint_every, Some(Arc::clone(&meter))),
        ).expect("create uncrashed");
        for batch in &plan.batches {
            ok_sys
                .apply_batch(&UpdateBatch::from_updates(batch.iter().cloned()))
                .expect("uncrashed apply");
        }
        check_views(&ok_sys, &states[nbatches], "with no crash at all")?;
        if checkpoint_every == 0 {
            // One log segment: the fsync cadence is the policy's, plus the
            // one sync of the creation checkpoint (the WAL never lags a
            // checkpoint on disk, whatever the policy).
            let nb = nbatches as u64;
            let policy_syncs = match fsync {
                FsyncPolicy::EveryBatch => nb,
                FsyncPolicy::EveryN(n) => nb / n,
                FsyncPolicy::Never => 0,
            };
            prop_assert_eq!(ok_sys.durable_stats().wal_syncs, 1 + policy_syncs);
        }
        let total = u64::MAX - meter.remaining();
        prop_assert!(total > 0, "ingest must write guarded bytes");
        drop(ok_sys);

        // --- Crashed run: identical stream, kill at a random byte ---
        let budget = kill_offsets(seed ^ kill_salt, total, 1)[0];
        let dir = TempDir::new("crashed", case);
        let mut crashed = DurableSystem::create(
            dir.path(),
            plan.db.clone(),
            &specs,
            opts(fsync, checkpoint_every, Some(KillPoint::arm(budget))),
        ).expect("create crashed");
        let mut acked = 0u64;
        let mut died = false;
        for batch in &plan.batches {
            match crashed.apply_batch(&UpdateBatch::from_updates(batch.iter().cloned())) {
                Ok(()) => acked += 1,
                Err(e) => {
                    prop_assert!(e.is_kill(), "only the injected kill may fail: {}", e);
                    died = true;
                    break;
                }
            }
        }
        if died {
            // The instance is poisoned: nothing further may reach the log.
            prop_assert!(crashed.is_dead());
            let refused = crashed
                .apply_batch(&UpdateBatch::from_updates(plan.batches[0].iter().cloned()));
            prop_assert!(matches!(refused, Err(DurableError::Dead)));
        }
        drop(crashed); // process death: completed write()s survive

        // --- First recovery: on the reference replay, near the ack line ---
        let (rec, rstats) = DurableSystem::recover(
            dir.path(),
            opts(fsync, checkpoint_every, None),
        ).expect("first recovery");
        let idx = rec.batch_index();
        // Log-before-apply: every acked batch is durable, and at most the
        // one in-flight batch beyond the ack line can have reached the log.
        prop_assert!(
            idx >= acked && idx <= acked + 1,
            "recovered to batch {} but {} were acked",
            idx,
            acked
        );
        prop_assert_eq!(
            rstats.batches_replayed,
            idx - rstats.checkpoint_index,
            "replay must cover exactly the gap from checkpoint to tip"
        );
        // The stats split: a recovered instance has written no checkpoint
        // of its own, yet knows the directory's newest checkpoint index.
        let dstats = rec.durable_stats();
        prop_assert_eq!(dstats.checkpoints_written, 0, "recovery writes no checkpoint");
        prop_assert_eq!(dstats.last_checkpoint_index, rstats.checkpoint_index);
        check_views(&rec, &states[idx as usize], "after the first crash")?;
        drop(rec);

        // --- Double crash: continue ingest, killed again at a new byte ---
        let budget2 = kill_offsets(kill_salt.wrapping_add(seed).wrapping_add(1), total, 1)[0];
        let (mut cont, _) = DurableSystem::recover(
            dir.path(),
            opts(fsync, checkpoint_every, Some(KillPoint::arm(budget2))),
        ).expect("recovery for continuation");
        prop_assert_eq!(cont.batch_index(), idx, "re-recovery must land on the same index");
        let mut acked2 = idx;
        for batch in &plan.batches[idx as usize..] {
            match cont.apply_batch(&UpdateBatch::from_updates(batch.iter().cloned())) {
                Ok(()) => acked2 += 1,
                Err(e) => {
                    prop_assert!(e.is_kill(), "only the injected kill may fail: {}", e);
                    break;
                }
            }
        }
        drop(cont);

        // --- Second recovery, then recovery-after-recovery ---
        let (rec2, _) = DurableSystem::recover(
            dir.path(),
            opts(fsync, checkpoint_every, None),
        ).expect("second recovery");
        let idx2 = rec2.batch_index();
        prop_assert!(
            idx2 >= acked2 && idx2 <= acked2 + 1,
            "second recovery reached batch {} but {} were acked",
            idx2,
            acked2
        );
        check_views(&rec2, &states[idx2 as usize], "after the second crash")?;
        drop(rec2);

        let (rec3, rstats3) = DurableSystem::recover(
            dir.path(),
            opts(fsync, checkpoint_every, None),
        ).expect("recovery after recovery");
        prop_assert_eq!(rec3.batch_index(), idx2, "recovery must be idempotent");
        prop_assert_eq!(
            rstats3.torn_bytes_truncated, 0,
            "the earlier recovery already truncated the torn tail"
        );
        check_views(&rec3, &states[idx2 as usize], "after recovering twice in a row")?;
    }

    /// WAL replay is idempotent and prefix-closed: scanning is read-only,
    /// any byte-truncation scans to a record prefix, and replaying that
    /// prefix reproduces the sequential state at its index exactly.
    #[test]
    fn wal_replay_is_idempotent_and_prefix_closed(
        seed in 0u64..10_000,
        nbatches in 1usize..6,
        batch_size in 1usize..5,
        delete_tenths in 0usize..5,
        cut_salt in 0u64..10_000,
    ) {
        let _serial = serial();
        let case = fresh_case();
        let cfg = StreamConfig {
            batch_size,
            delete_fraction: delete_tenths as f64 / 10.0,
            genres: 3,
            directors: 3,
            payload_prefix: format!("prop-wal-{case}-"),
            ..StreamConfig::default()
        };
        let plan = RecoveryPlan::generate(seed, cfg, 12, nbatches);
        let view_list = [("all", rel("M"), Strategy::FirstOrder)];
        let states = common::recovery_plan_states(&plan, &view_list);

        let dir = TempDir::new("wal", case);
        std::fs::create_dir_all(dir.path()).expect("mkdir");
        let path = dir.path().join(wal::segment_file_name(0));
        let mut log = Wal::create(&path, 0, FsyncPolicy::Never, None).expect("create wal");
        for (i, batch) in plan.batches.iter().enumerate() {
            log.append(i as u64 + 1, &UpdateBatch::from_updates(batch.iter().cloned()))
                .expect("append");
        }
        drop(log);

        // Scanning twice observes the identical record sequence and leaves
        // the file untouched.
        let full = wal::scan(&path, 0).expect("scan");
        let again = wal::scan(&path, 0).expect("rescan");
        let indices: Vec<u64> = full.batch_records().map(|r| r.batch_index).collect();
        prop_assert_eq!(
            &indices,
            &again.batch_records().map(|r| r.batch_index).collect::<Vec<_>>()
        );
        prop_assert_eq!(indices, (1..=nbatches as u64).collect::<Vec<_>>());
        prop_assert_eq!(full.torn_bytes(), 0);

        // Truncate at a random byte: the scan must yield a record prefix,
        // and replaying it lands exactly on the sequential state.
        let cut = kill_offsets(seed ^ cut_salt, full.file_len, 1)[0];
        let bytes = std::fs::read(&path).expect("read wal");
        let cut_path = dir.path().join(wal::segment_file_name(0)).with_extension("cut");
        std::fs::write(&cut_path, &bytes[..cut as usize]).expect("write cut");
        let prefix = wal::scan(&cut_path, 0).expect("scan cut");
        let k = prefix.batch_records().count();
        prop_assert!(k <= nbatches);
        prop_assert_eq!(
            prefix.batch_records().map(|r| r.batch_index).collect::<Vec<_>>(),
            (1..=k as u64).collect::<Vec<_>>(),
            "a truncated log must scan to a contiguous record prefix"
        );

        // Replay determinism/idempotence: folding the scanned prefix into
        // the replay helper twice gives the same state both times, equal
        // to the reference at batch index k.
        let replayed: Vec<Vec<(String, Bag)>> = plan.batches[..k].to_vec();
        for _ in 0..2 {
            let got = common::plan_states(plan.db.clone(), &replayed, &view_list);
            prop_assert_eq!(
                &got[k]["all"],
                &states[k]["all"],
                "prefix replay diverged at batch {}",
                k
            );
        }
    }

    /// Checkpoint round-trip across GC: persist under
    /// `CollectPolicy::Bounded`, drive arena slot reuse after the writer
    /// dies, recover, and require `scan`/`get`/`lookup_label` agreement —
    /// the on-disk format holds no arena-dependent state.
    ///
    /// Also the integrity-gate fix: a view the directory has never seen
    /// registers fresh over the recovered database instead of being
    /// misdiagnosed as checkpoint corruption (the old whole-set gate failed
    /// `Corrupt` here).
    #[test]
    fn checkpoint_round_trip_survives_slot_reuse(
        seed in 0u64..10_000,
        nbatches in 1usize..5,
        batch_size in 1usize..6,
        churn in 8usize..48,
    ) {
        let _serial = serial();
        let case = fresh_case();
        let cfg = StreamConfig {
            batch_size,
            delete_fraction: 0.4,
            genres: 3,
            directors: 3,
            payload_prefix: format!("prop-ckpt-{case}-"),
            ..StreamConfig::default()
        };
        let plan = RecoveryPlan::generate(seed, cfg, 10, nbatches);
        let specs = [
            ViewSpec::new("all", rel("M"), Strategy::FirstOrder),
            ViewSpec::new("sh", related_query(), Strategy::Shredded),
        ];

        let dir = TempDir::new("ckpt", case);
        let mut sys = DurableSystem::create(
            dir.path(),
            plan.db.clone(),
            &specs,
            opts(FsyncPolicy::Never, 1, None),
        ).expect("create");
        sys.set_collect_policy(CollectPolicy::Bounded { max_slots: 4, every: 1 });
        for batch in &plan.batches {
            sys.apply_batch(&UpdateBatch::from_updates(batch.iter().cloned()))
                .expect("apply");
        }
        sys.checkpoint_now().expect("checkpoint");
        let all_before = scan_pairs(&sys);
        let related_before = related_pairs(&sys);
        drop(sys);

        // Drive slot reuse: drain the dropped system's garbage, then churn
        // fresh payloads into the freed slots. If a Vid (rather than its
        // value) had leaked into the checkpoint, recovery below would now
        // resolve it against a reused slot.
        common::drain();
        let churn_case = fresh_case();
        let churn_bag = Bag::from_values(
            (0..churn as u16).map(|i| common::payload("prop-ckpt-churn", churn_case, i)),
        );

        let (mut rec, rstats) = DurableSystem::recover(
            dir.path(),
            opts(FsyncPolicy::Never, 1, None),
        ).expect("recover across GC");
        prop_assert_eq!(
            rstats.batches_replayed, 0,
            "the tip checkpoint leaves nothing to replay"
        );
        prop_assert_eq!(rec.batch_index(), nbatches as u64);
        // A view the directory has never seen: the old integrity gate
        // called this corruption; it must register fresh.
        rec.register_query_with("all2", "M", Strategy::Recursive)
            .expect("register a view the directory never saw");
        prop_assert_eq!(
            rec.view("all2").expect("fresh extra view"),
            rec.view("all").expect("recovered view"),
            "a view the directory never saw must register fresh over the recovered db"
        );

        // scan: identical ordered pairs; get: identical multiplicities.
        let all_after = scan_pairs(&rec);
        prop_assert_eq!(&all_before, &all_after, "scan diverged across the round-trip");
        let snap = rec.snapshot();
        for (v, m) in &all_before {
            prop_assert_eq!(snap.get("all", v).expect("get"), *m);
        }
        drop(snap);

        // lookup_label: the recovered shredded view's label indirection
        // resolves every flat tuple to the same (name, inner-bag) multiset
        // the original served — label *identity* may differ across runs,
        // label *meaning* may not.
        prop_assert_eq!(
            related_before,
            related_pairs(&rec),
            "label resolution diverged across the round-trip"
        );
        drop(churn_bag);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(8))]

    /// Point-in-time differential: `recover_at(k)` must equal the
    /// uncrashed sequential replay at batch `k` for every retained `k` —
    /// at, below and above checkpoint indices — must be read-only and
    /// idempotent, and must leave the directory recoverable to its tip.
    /// Under `TruncateAtCheckpoint`, pruned targets fail `HistoryTruncated`
    /// and surviving ones still match the replay.
    #[test]
    fn point_in_time_recovery_matches_replay(
        seed in 0u64..10_000,
        nbatches in 1usize..7,
        batch_size in 1usize..5,
        delete_tenths in 0usize..5,
        checkpoint_every in 0u64..4,
        k_salt in 0u64..10_000,
    ) {
        let _serial = serial();
        let case = fresh_case();
        let cfg = StreamConfig {
            batch_size,
            delete_fraction: delete_tenths as f64 / 10.0,
            genres: 3,
            directors: 3,
            payload_prefix: format!("prop-pit-{case}-"),
            ..StreamConfig::default()
        };
        let plan = RecoveryPlan::generate(seed, cfg, 12, nbatches);
        let view_list = [
            ("all", rel("M"), Strategy::FirstOrder),
            ("flt", query_pool(1), Strategy::Reevaluate),
        ];
        let states = common::recovery_plan_states(&plan, &view_list);
        let specs: Vec<ViewSpec> = view_list
            .iter()
            .map(|(n, q, s)| ViewSpec::new(*n, q.clone(), *s))
            .collect();
        let n = nbatches as u64;

        let dir = TempDir::new("pit", case);
        let mut sys = DurableSystem::create(
            dir.path(),
            plan.db.clone(),
            &specs,
            opts(FsyncPolicy::Never, checkpoint_every, None),
        ).expect("create");
        for batch in &plan.batches {
            sys.apply_batch(&UpdateBatch::from_updates(batch.iter().cloned()))
                .expect("apply");
        }
        drop(sys);

        // Targets: origin, tip, a random interior k, and (when periodic
        // checkpoints ran) the newest checkpoint boundary itself plus the
        // index just below it — the seams where off-by-ones live.
        let mut ks = vec![0, n, k_salt % (n + 1)];
        if checkpoint_every > 0 && n >= checkpoint_every {
            let boundary = (n / checkpoint_every) * checkpoint_every;
            ks.push(boundary);
            ks.push(boundary.saturating_sub(1));
        }
        for &k in &ks {
            let (hist, hstats) = DurableSystem::recover_at(
                dir.path(),
                k,
                opts(FsyncPolicy::Never, checkpoint_every, None),
            ).expect("recover_at");
            prop_assert_eq!(hist.batch_index(), k, "recover_at must land exactly on k");
            prop_assert!(hstats.checkpoint_index <= k);
            // It starts from the newest checkpoint at or below k: the
            // replayed gap never reaches one checkpoint interval.
            prop_assert_eq!(hstats.batches_replayed, k - hstats.checkpoint_index);
            if checkpoint_every > 0 {
                prop_assert!(
                    hstats.batches_replayed < checkpoint_every,
                    "recover_at({}) replayed {} batches past checkpoint {}",
                    k, hstats.batches_replayed, hstats.checkpoint_index
                );
            }
            check_views(&hist, &states[k as usize], "in the historical snapshot")?;

            // Read-only: no writes, registrations or checkpoints, and the
            // directory is untouched (not even torn-tail truncation).
            prop_assert!(hist.is_read_only());
            prop_assert_eq!(hstats.torn_bytes_truncated, 0);
            let mut hist = hist;
            prop_assert!(matches!(
                hist.apply_batch(&UpdateBatch::from_updates(plan.batches[0].iter().cloned())),
                Err(DurableError::ReadOnly)
            ));
            prop_assert!(matches!(
                hist.register_query("nope", FILTER_SRC),
                Err(DurableError::ReadOnly)
            ));
            prop_assert!(matches!(hist.checkpoint_now(), Err(DurableError::ReadOnly)));
            drop(hist);

            // Idempotence: the same point twice is the same state.
            let (hist2, _) = DurableSystem::recover_at(
                dir.path(),
                k,
                opts(FsyncPolicy::Never, checkpoint_every, None),
            ).expect("recover_at twice");
            check_views(&hist2, &states[k as usize], "recovering at k a second time")?;
        }

        // Beyond the tip clamps to the tip.
        let (past, _) = DurableSystem::recover_at(
            dir.path(),
            n + 5,
            opts(FsyncPolicy::Never, checkpoint_every, None),
        ).expect("recover_at past the tip");
        prop_assert_eq!(past.batch_index(), n);
        drop(past);

        // The historical reads mutated nothing: full recovery still lands
        // on the tip state.
        let (tip, _) = DurableSystem::recover(
            dir.path(),
            opts(FsyncPolicy::Never, checkpoint_every, None),
        ).expect("tip recovery after time travel");
        prop_assert_eq!(tip.batch_index(), n);
        check_views(&tip, &states[nbatches], "at the tip after historical reads")?;
        drop(tip);

        // --- Retention: TruncateAtCheckpoint prunes history loudly ---
        let dir_tr = TempDir::new("pit-trunc", case);
        let tr_opts = DurableOptions {
            fsync: FsyncPolicy::Never,
            checkpoint_every: 2,
            retention: LogRetention::TruncateAtCheckpoint,
            kill: None,
        };
        let mut sys = DurableSystem::create(dir_tr.path(), plan.db.clone(), &specs, tr_opts.clone())
            .expect("create truncating");
        for batch in &plan.batches {
            sys.apply_batch(&UpdateBatch::from_updates(batch.iter().cloned()))
                .expect("apply");
        }
        let newest_ckpt = sys.durable_stats().last_checkpoint_index;
        drop(sys);
        for k in 0..=n {
            let res = DurableSystem::recover_at(dir_tr.path(), k, tr_opts.clone());
            if k < newest_ckpt {
                prop_assert!(
                    matches!(res, Err(DurableError::HistoryTruncated { .. })),
                    "pruned target {} must fail HistoryTruncated, not answer wrong",
                    k
                );
            } else {
                let (hist, _) = res.expect("retained point-in-time");
                check_views(&hist, &states[k as usize], "under TruncateAtCheckpoint")?;
            }
        }
    }

    /// Catalog recovery: a view registered from query text mid-stream
    /// comes back from the directory alone — no caller `ViewSpec`s — with
    /// the registration replayed from its WAL record in stream order, and
    /// a kill inside `register_query`'s durable write never leaves the
    /// directory unrecoverable (the regression the old forced-checkpoint
    /// design hit: its whole-set integrity gate failed `Corrupt` on any
    /// checkpoint written mid-registration).
    #[test]
    fn catalog_recovers_text_registrations(
        seed in 0u64..10_000,
        nbatches in 2usize..7,
        batch_size in 1usize..5,
        reg_after in 0usize..6,
        kill_salt in 0u64..10_000,
    ) {
        let _serial = serial();
        let case = fresh_case();
        let reg_after = reg_after.min(nbatches - 1);
        let cfg = StreamConfig {
            batch_size,
            delete_fraction: 0.2,
            genres: 3,
            directors: 3,
            payload_prefix: format!("prop-cat-{case}-"),
            ..StreamConfig::default()
        };
        let plan = RecoveryPlan::generate(seed, cfg, 12, nbatches);
        let specs = [ViewSpec::new("all", rel("M"), Strategy::FirstOrder)];

        // --- Reference run: register "late" mid-stream, meter the bytes ---
        let meter = KillPoint::arm(u64::MAX);
        let dir = TempDir::new("cat", case);
        let mut sys = DurableSystem::create(
            dir.path(),
            plan.db.clone(),
            &specs,
            opts(FsyncPolicy::Never, 0, Some(Arc::clone(&meter))),
        ).expect("create");
        for batch in &plan.batches[..reg_after] {
            sys.apply_batch(&UpdateBatch::from_updates(batch.iter().cloned()))
                .expect("apply");
        }
        let before_reg = u64::MAX - meter.remaining();
        sys.register_query("late", FILTER_SRC).expect("register late");
        let after_reg = u64::MAX - meter.remaining();
        prop_assert!(after_reg > before_reg, "registration must write log bytes");
        for batch in &plan.batches[reg_after..] {
            sys.apply_batch(&UpdateBatch::from_updates(batch.iter().cloned()))
                .expect("apply");
        }
        // Cadence: with checkpoint_every = 0, registration must NOT have
        // forced a checkpoint — only the creation-time one exists.
        prop_assert_eq!(
            sys.durable_stats().checkpoints_written, 1,
            "register_query must respect checkpoint_every (no forced checkpoint)"
        );
        let late_before = sys.view("late").expect("live late view");
        let all_before = sys.view("all").expect("live all view");
        drop(sys);

        // --- Catalog-only recovery: no specs at all ---
        let (rec, rstats) = DurableSystem::recover(
            dir.path(),
            opts(FsyncPolicy::Never, 0, None),
        ).expect("catalog recovery");
        prop_assert_eq!(rec.batch_index(), nbatches as u64);
        prop_assert_eq!(
            rstats.registrations_replayed, 1,
            "the late registration lives in the log, not the origin checkpoint"
        );
        prop_assert_eq!(&rec.view("late").expect("recovered late"), &late_before);
        prop_assert_eq!(&rec.view("all").expect("recovered all"), &all_before);
        prop_assert_eq!(rec.catalog().len(), 2, "create view + late view");
        // Checkpoint the recovered state: the catalog moves into the
        // checkpoint, so the next recovery replays no registrations.
        let mut rec = rec;
        rec.checkpoint_now().expect("checkpoint recovered state");
        drop(rec);
        let (rec2, rstats2) = DurableSystem::recover(
            dir.path(),
            opts(FsyncPolicy::Never, 0, None),
        ).expect("recovery after checkpoint");
        prop_assert_eq!(rstats2.registrations_replayed, 0);
        prop_assert_eq!(&rec2.view("late").expect("late from checkpoint catalog"), &late_before);
        drop(rec2);

        // --- Kill inside register_query's durable write ---
        let reg_bytes = after_reg - before_reg;
        let budget = before_reg + 1 + (kill_salt % reg_bytes);
        let dir_k = TempDir::new("cat-kill", case);
        let mut sys = DurableSystem::create(
            dir_k.path(),
            plan.db.clone(),
            &specs,
            opts(FsyncPolicy::Never, 0, Some(KillPoint::arm(budget))),
        ).expect("create killed");
        for batch in &plan.batches[..reg_after] {
            sys.apply_batch(&UpdateBatch::from_updates(batch.iter().cloned()))
                .expect("apply before register");
        }
        let reg = sys.register_query("late", FILTER_SRC);
        let reg_acked = match reg {
            Ok(_) => true,
            Err(e) => {
                prop_assert!(e.is_kill(), "only the injected kill may fail: {}", e);
                prop_assert!(sys.is_dead(), "a torn registration poisons the instance");
                false
            }
        };
        drop(sys);
        // The regression: whatever byte the kill landed on, the directory
        // recovers — with the view iff its record was acked.
        let (rec_k, _) = DurableSystem::recover(
            dir_k.path(),
            opts(FsyncPolicy::Never, 0, None),
        ).expect("recovery after mid-registration kill");
        prop_assert_eq!(rec_k.batch_index(), reg_after as u64);
        prop_assert!(rec_k.view("all").is_ok(), "creation views always recover");
        if reg_acked {
            prop_assert!(rec_k.view("late").is_ok(), "acked registration must survive");
        } else {
            prop_assert!(rec_k.view("late").is_err(), "unacked registration is torn away");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(6))]

    /// Backfill differential: for every maintenance strategy, a view
    /// backfilled after the whole stream must equal the same view
    /// registered from batch 0 — the final state, the synthesized
    /// per-batch delta history, and the live deltas that follow — and its
    /// history must fold from ∅ to the live state (the Σ-of-deltas
    /// invariant). `TruncateAtCheckpoint` fails it loudly instead.
    #[test]
    fn backfill_equals_registered_from_start(
        seed in 0u64..10_000,
        nbatches in 1usize..6,
        batch_size in 1usize..5,
        delete_tenths in 0usize..5,
        checkpoint_every in 0u64..3,
        strat_idx in 0usize..4,
    ) {
        let _serial = serial();
        let case = fresh_case();
        let cfg = StreamConfig {
            batch_size,
            delete_fraction: delete_tenths as f64 / 10.0,
            genres: 3,
            directors: 3,
            payload_prefix: format!("prop-bf-{case}-"),
            ..StreamConfig::default()
        };
        // One batch beyond the stream is held back as the live
        // continuation: it is valid at index n, where re-applying an
        // earlier batch would repeat deletions already applied.
        let plan = RecoveryPlan::generate(seed, cfg, 12, nbatches + 1);
        let (stream, continuation) = plan.batches.split_at(nbatches);
        let n = nbatches as u64;
        let strategy = [
            Strategy::Reevaluate,
            Strategy::FirstOrder,
            Strategy::Recursive,
            Strategy::Shredded,
        ][strat_idx];

        // --- Reference: registered from batch 0, feed drained live ---
        let dir_ref = TempDir::new("bf-ref", case);
        let mut sys_ref = DurableSystem::create(
            dir_ref.path(),
            plan.db.clone(),
            &[],
            opts(FsyncPolicy::Never, checkpoint_every, None),
        ).expect("create reference");
        sys_ref.register_query_with("v", FILTER_SRC, strategy).expect("register from start");
        let origin_state = sys_ref.view("v").expect("origin state");
        let sub_ref = sys_ref.subscribe("v", nbatches + 4).expect("subscribe");
        for batch in stream {
            sys_ref
                .apply_batch(&UpdateBatch::from_updates(batch.iter().cloned()))
                .expect("reference apply");
        }
        let ref_deltas = sub_ref.drain();
        prop_assert_eq!(sub_ref.dropped(), 0);
        prop_assert_eq!(ref_deltas.len(), nbatches);

        // --- Backfilled: same stream, view registered only at the end ---
        let dir_bf = TempDir::new("bf", case);
        let mut sys_bf = DurableSystem::create(
            dir_bf.path(),
            plan.db.clone(),
            &[],
            opts(FsyncPolicy::Never, checkpoint_every, None),
        ).expect("create backfill");
        for batch in stream {
            sys_bf
                .apply_batch(&UpdateBatch::from_updates(batch.iter().cloned()))
                .expect("backfill apply");
        }
        let bf = sys_bf.backfill_query_with("v", FILTER_SRC, strategy).expect("backfill");
        prop_assert_eq!(bf.batches_replayed, n);
        prop_assert_eq!(
            &sys_bf.view("v").expect("backfilled view"),
            &sys_ref.view("v").expect("reference view"),
            "backfilled final state diverged from registered-from-start"
        );

        // History: a batch-0 delta carrying the origin state, then exactly
        // the deltas the from-start feed delivered, index for index.
        let hist = bf.feed.drain();
        prop_assert_eq!(bf.feed.dropped(), 0);
        prop_assert_eq!(hist.len(), nbatches + 1);
        prop_assert_eq!(hist[0].batch_index, 0);
        prop_assert_eq!(&hist[0].delta, &origin_state);
        for (i, (got, want)) in hist[1..].iter().zip(&ref_deltas).enumerate() {
            prop_assert_eq!(got.batch_index, i as u64 + 1);
            prop_assert_eq!(want.batch_index, i as u64 + 1);
            prop_assert_eq!(
                &got.delta,
                &want.delta,
                "synthesized delta {} diverged from the live feed",
                i + 1
            );
        }

        // Σ-of-deltas: the history folds from ∅ to the live state.
        let mut folded = Bag::default();
        for d in &hist {
            folded.union_assign(&d.delta);
        }
        prop_assert_eq!(&folded, &sys_bf.view("v").expect("live state"));

        // Live continuation: one more batch lands in both feeds at the
        // same stream-absolute index with the same delta.
        let extra = UpdateBatch::from_updates(continuation[0].iter().cloned());
        sys_ref.apply_batch(&extra).expect("reference continuation");
        sys_bf.apply_batch(&extra).expect("backfill continuation");
        let cont_ref = sub_ref.drain();
        let cont_bf = bf.feed.drain();
        prop_assert_eq!(cont_ref.len(), 1);
        prop_assert_eq!(cont_bf.len(), 1);
        prop_assert_eq!(cont_bf[0].batch_index, n + 1);
        prop_assert_eq!(cont_ref[0].batch_index, n + 1);
        prop_assert_eq!(&cont_bf[0].delta, &cont_ref[0].delta);
        drop(sys_ref);
        drop(sys_bf);

        // --- Retention: truncated history refuses to backfill ---
        if nbatches >= 2 {
            let dir_tr = TempDir::new("bf-trunc", case);
            let tr_opts = DurableOptions {
                fsync: FsyncPolicy::Never,
                checkpoint_every: 2,
                retention: LogRetention::TruncateAtCheckpoint,
                kill: None,
            };
            let mut sys_tr = DurableSystem::create(dir_tr.path(), plan.db.clone(), &[], tr_opts)
                .expect("create truncating");
            for batch in stream {
                sys_tr
                    .apply_batch(&UpdateBatch::from_updates(batch.iter().cloned()))
                    .expect("apply");
            }
            prop_assert!(
                matches!(
                    sys_tr.backfill_query_with("v", FILTER_SRC, strategy),
                    Err(DurableError::HistoryTruncated { .. })
                ),
                "backfill over a truncated log must fail loudly"
            );
        }
    }
}

/// A small movies stream for the example-based tests below, tagged with
/// `case` so its payloads are ever-fresh.
fn small_plan(case: u64, tag: &str, nbatches: usize) -> RecoveryPlan {
    let cfg = StreamConfig {
        batch_size: 4,
        delete_fraction: 0.2,
        genres: 3,
        directors: 3,
        payload_prefix: format!("prop-{tag}-{case}-"),
        ..StreamConfig::default()
    };
    RecoveryPlan::generate(case, cfg, 12, nbatches)
}

fn apply_all(sys: &mut DurableSystem, batches: &[Vec<(String, Bag)>]) {
    for batch in batches {
        sys.apply_batch(&UpdateBatch::from_updates(batch.iter().cloned()))
            .expect("apply");
    }
}

/// `recover` and `recover_at` replay into a bare engine and publish once:
/// each replays batches and a registration record, and the recovered
/// system has published exactly one snapshot, holding the final state.
#[test]
fn recovery_publishes_exactly_once() {
    let _serial = serial();
    let case = fresh_case();
    let plan = small_plan(case, "pub", 3);
    let dir = TempDir::new("publish-once", case);
    let o = opts(FsyncPolicy::Never, 0, None);
    let specs = [ViewSpec::new("all", rel("M"), Strategy::FirstOrder)];
    let mut sys =
        DurableSystem::create(dir.path(), plan.db.clone(), &specs, o.clone()).expect("create");
    apply_all(&mut sys, &plan.batches[..1]);
    sys.register_query("late", FILTER_SRC)
        .expect("register late");
    apply_all(&mut sys, &plan.batches[1..]);
    let live: Vec<(&str, Bag)> = ["all", "late"]
        .into_iter()
        .map(|name| (name, sys.view(name).expect("live view")))
        .collect();
    drop(sys);

    let (rec, stats) = DurableSystem::recover(dir.path(), o.clone()).expect("recover");
    assert_eq!(stats.batches_replayed, 3);
    assert_eq!(stats.registrations_replayed, 1);
    assert_eq!(rec.serve_stats().snapshots_published, 1);
    let snap = rec.snapshot();
    for (name, want) in &live {
        assert_eq!(snap.view(name).expect("published view"), want);
    }
    drop(snap);
    drop(rec);

    let (hist, hstats) = DurableSystem::recover_at(dir.path(), 2, o).expect("recover_at");
    assert_eq!(hstats.batches_replayed, 2);
    assert_eq!(hstats.registrations_replayed, 1);
    assert_eq!(hist.serve_stats().snapshots_published, 1);
}

/// The catalog is total: `create` refuses a view whose query has no NRC⁺
/// surface form (here one over the delta relation `ΔM`) before it writes
/// anything.
#[test]
fn create_refuses_a_view_with_no_surface_form() {
    let _serial = serial();
    let case = fresh_case();
    let plan = small_plan(case, "uncat", 0);
    let dir = TempDir::new("uncataloged-create", case);
    let specs = [ViewSpec::new(
        "delta",
        Expr::DeltaRel("M".into(), 1),
        Strategy::FirstOrder,
    )];
    let created = DurableSystem::create(
        dir.path(),
        plan.db.clone(),
        &specs,
        opts(FsyncPolicy::Never, 0, None),
    );
    assert!(matches!(
        created,
        Err(DurableError::Uncataloged { ref view }) if view == "delta"
    ));
    assert!(!dir.path().exists(), "a refused create writes nothing");
}

/// A checkpoint catalog entry without a source (`has_src = 0`, which only
/// older versions wrote) still decodes, and recovery fails on it with
/// `Uncataloged` rather than falling back to anything.
#[test]
fn a_source_less_catalog_entry_fails_recovery() {
    let _serial = serial();
    let case = fresh_case();
    let plan = small_plan(case, "srcless", 0);
    let dir = TempDir::new("source-less", case);
    let o = opts(FsyncPolicy::Never, 0, None);
    drop(DurableSystem::create(dir.path(), plan.db.clone(), &[], o.clone()).expect("create"));
    let (mut data, _) = checkpoint::load_newest(dir.path())
        .expect("scan checkpoints")
        .newest
        .expect("origin checkpoint");
    data.catalog.push(CatalogEntry {
        name: "opaque".to_string(),
        source: None,
        strategy: Strategy::Shredded,
    });
    checkpoint::write(dir.path(), &data, None).expect("rewrite the origin checkpoint");

    let recovered = DurableSystem::recover(dir.path(), o.clone());
    assert!(matches!(
        recovered,
        Err(DurableError::Uncataloged { ref view }) if view == "opaque"
    ));
    let historical = DurableSystem::recover_at(dir.path(), 0, o);
    assert!(matches!(
        historical,
        Err(DurableError::Uncataloged { ref view }) if view == "opaque"
    ));
}

/// Validate before logging: a batch with a segment for a relation the
/// database does not have is refused before the WAL append — state
/// unchanged, instance alive — so ingest continues and recovery still
/// reaches the last acked index.
#[test]
fn a_batch_for_an_unknown_relation_is_refused_before_the_log() {
    let _serial = serial();
    let case = fresh_case();
    let plan = small_plan(case, "unknown-rel", 2);
    let dir = TempDir::new("unknown-rel", case);
    let o = opts(FsyncPolicy::EveryBatch, 0, None);
    let specs = [ViewSpec::new("all", rel("M"), Strategy::FirstOrder)];
    let mut sys =
        DurableSystem::create(dir.path(), plan.db.clone(), &specs, o.clone()).expect("create");
    apply_all(&mut sys, &plan.batches[..1]);
    let before = sys.view("all").expect("view");

    let mut bad = plan.batches[1].clone();
    bad.push((
        "Nope".to_string(),
        Bag::from_values([common::payload("prop-unknown-rel", case, 0)]),
    ));
    let refused = sys.apply_batch(&UpdateBatch::from_updates(bad));
    assert!(matches!(
        refused,
        Err(DurableError::Serve(ServeError::Engine(EngineError::UnknownRelation(ref r)))) if r == "Nope"
    ));
    assert!(
        !sys.is_dead(),
        "a refused batch must not poison the instance"
    );
    assert_eq!(sys.batch_index(), 1);
    assert_eq!(
        sys.view("all").expect("view"),
        before,
        "a refused batch changes nothing"
    );

    apply_all(&mut sys, &plan.batches[1..]);
    let live = sys.view("all").expect("view");
    drop(sys);
    let (rec, _) = DurableSystem::recover(dir.path(), o).expect("the directory still recovers");
    assert_eq!(rec.batch_index(), 2);
    assert_eq!(rec.view("all").expect("recovered view"), live);
}

/// Ordered `(value, multiplicity)` scan of the `all` view via the
/// published snapshot.
fn scan_pairs(sys: &DurableSystem) -> Vec<(Value, i64)> {
    sys.snapshot().scan("all", usize::MAX).expect("scan")
}

/// The shredded `related` view decoded through its label indirection: each
/// flat tuple `<name, label>` resolved to `(name, inner pairs, mult)` via
/// `Snapshot::lookup_label`, sorted — a label-allocation-independent
/// fingerprint of the view's meaning.
#[allow(clippy::type_complexity)]
fn related_pairs(sys: &DurableSystem) -> Vec<(Value, Vec<(Value, i64)>, i64)> {
    let flat = match sys.serving().engine().view_state("sh").expect("view state") {
        ViewStateSnapshot::Shredded { flat, .. } => flat.clone(),
        other => panic!("sh must snapshot shredded, got {other:?}"),
    };
    let snap = sys.snapshot();
    let mut out: Vec<(Value, Vec<(Value, i64)>, i64)> = flat
        .iter()
        .map(|(v, m)| {
            let name = v.project(0).expect("name field").clone();
            let label = v
                .project(1)
                .expect("label field")
                .as_label()
                .expect("label")
                .clone();
            let inner = snap
                .lookup_label("sh", &label)
                .expect("lookup")
                .expect("label must define a bag");
            (name, inner.iter().map(|(x, k)| (x.clone(), k)).collect(), m)
        })
        .collect();
    out.sort();
    out
}
