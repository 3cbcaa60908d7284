//! Shared infrastructure of the property suites that exercise the
//! process-global intern arena (`prop_gc`, `prop_bounded_gc`, `prop_serve`,
//! `prop_recovery`).
//!
//! Two disciplines every arena-touching suite must follow live here once
//! instead of per-file:
//!
//! * **Serialization + ever-fresh payloads.** The arena is process-global,
//!   so cases serialize on one mutex and tag every interned payload with a
//!   process-unique case number — a sweep can never confuse one case's
//!   values with another's, and exact `ArenaStats` assertions hold.
//! * **Sequential-replica replay.** The differential checks compare
//!   observed states against a fresh engine replaying the *identical*
//!   stream one batch at a time; [`stream_states`]/[`plan_states`] build
//!   the per-batch-index state tables those comparisons index into.
//!
//! Each test binary compiles its own copy (`mod common;`), so items unused
//! by one binary are expected: hence the module-wide `dead_code` allow.

#![allow(dead_code)]

use nrc_core::Expr;
use nrc_data::{intern, Bag, Database, Value};
use nrc_engine::{IvmSystem, Strategy, UpdateBatch};
use nrc_workloads::{RecoveryPlan, StreamConfig, StreamGen};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());
static CASE: AtomicU64 = AtomicU64::new(0);

/// Serialize cases in this binary against each other (poison-tolerant:
/// a failing case must not wedge the rest of the suite).
pub fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

/// A process-unique case number for ever-fresh payload tagging.
pub fn fresh_case() -> u64 {
    CASE.fetch_add(1, Ordering::Relaxed)
}

/// A payload unique to `(prefix, case, elem)`: ever-fresh with respect to
/// every other case that ever ran in this process.
pub fn payload(prefix: &str, case: u64, elem: u16) -> Value {
    Value::Tuple(vec![
        Value::str(format!("{prefix}-{case}")),
        Value::int(elem as i64),
    ])
}

/// `k` flat payloads in a bag plus one nested bag value of `nested`
/// children (so reclamation must ride the release cascade).
pub fn build_garbage(prefix: &str, case: u64, k: usize, nested: usize) -> (Bag, Value) {
    let bag = Bag::from_values((0..k as u16).map(|i| payload(prefix, case, i)));
    let inner: Vec<Value> = (1000..1000 + nested as u16)
        .map(|i| payload(prefix, case, i))
        .collect();
    let nested_val = Value::Bag(Bag::from_values(inner));
    let holder = Bag::from_values([nested_val.clone()]);
    // Fold the holder into the returned bag so dropping it releases both.
    let mut all = bag;
    all.union_assign(&holder);
    (all, nested_val)
}

/// Unbounded sweeps until quiescent; returns the total slots freed.
pub fn drain() -> u64 {
    let mut freed = 0;
    for _ in 0..64 {
        let s = intern::collect_now();
        freed += s.freed;
        if s.freed == 0 && s.pending == 0 {
            return freed;
        }
    }
    panic!("arena backlog failed to drain");
}

/// The number of cases/seeds a deterministic sweep loop should run:
/// `default`, unless `PROPTEST_CASES` dials it (the same environment knob
/// the proptest configs respect, so CI controls *all* property depth with
/// one variable).
pub fn case_count(default: u64) -> u64 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Sequentially replay `batches` over a fresh engine with `views`
/// registered, recording every view's state per batch index:
/// `states[i][view]` is the view after `i` batches. `states[0]` is the
/// post-registration (pre-stream) state.
pub fn plan_states(
    db: Database,
    batches: &[Vec<(String, Bag)>],
    views: &[(&str, Expr, Strategy)],
) -> Vec<BTreeMap<String, Bag>> {
    let mut sys = IvmSystem::new(db);
    for (name, query, strategy) in views {
        sys.register(*name, query.clone(), *strategy)
            .expect("replica registration");
    }
    let state_of = |sys: &IvmSystem| -> BTreeMap<String, Bag> {
        views
            .iter()
            .map(|(name, _, _)| ((*name).to_string(), sys.view(name).expect("replica view")))
            .collect()
    };
    let mut states = vec![state_of(&sys)];
    for batch in batches {
        let batch = UpdateBatch::from_updates(batch.iter().cloned());
        sys.apply_batch(&batch).expect("replica batch");
        states.push(state_of(&sys));
    }
    states
}

/// [`plan_states`] over a [`RecoveryPlan`]'s database and batches.
pub fn recovery_plan_states(
    plan: &RecoveryPlan,
    views: &[(&str, Expr, Strategy)],
) -> Vec<BTreeMap<String, Bag>> {
    plan_states(plan.db.clone(), &plan.batches, views)
}

/// [`plan_states`] for a seeded stream: regenerates the identical stream
/// (`StreamGen` is deterministic per seed) and replays `nbatches` of it.
pub fn stream_states(
    seed: u64,
    cfg: &StreamConfig,
    initial: usize,
    nbatches: usize,
    views: &[(&str, Expr, Strategy)],
) -> Vec<BTreeMap<String, Bag>> {
    let mut gen = StreamGen::new(seed, cfg.clone());
    let db = gen.database(initial);
    let batches = gen.batches(nbatches);
    plan_states(db, &batches, views)
}
