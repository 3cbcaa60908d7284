//! `proptest`-driven invariants of *bounded* (incremental) arena
//! collection — `intern::collect_bounded` and the engine's pacing policies:
//!
//! * **Differential**: for random (query, update stream, `CollectPolicy`)
//!   triples, all four maintenance strategies agree with a full
//!   recomputation over the final database, no matter where bounded
//!   `collect_bounded` calls (budgets K ∈ {1, 3, 17, ∞}) are interleaved
//!   between batches — the paper's strategy-equivalence guarantees (Thm. 8)
//!   must be insensitive to partial collections.
//! * **Convergence**: repeated `collect_bounded_now(K)` with no new garbage
//!   reaches exactly the live set and `ArenaStats` a full `collect_now`
//!   sweep reaches, for any K ≥ 1 — and ids whose slots are freed keep
//!   erroring deterministically even when slot reuse happens *mid-sweep*,
//!   while earlier queue entries are still pending.
//!
//! The arena is process-global, so the tests in this binary serialize among
//! themselves and use per-case-unique payloads; exact `ArenaStats` parity
//! is assertable here (unlike in the data crate's unit-test binary) because
//! every test touching the arena in this process holds the same lock.

mod common;

use common::{drain, fresh_case, serial};
use nrc_core::builder::{cmp_lit, filter_query, rel};
use nrc_core::expr::CmpOp;
use nrc_data::{intern, Bag, DataError, Value, Vid};
use nrc_engine::{CollectPolicy, IvmSystem, Strategy as Maintain, UpdateBatch};
use nrc_workloads::{StreamConfig, StreamGen};
use proptest::prelude::*;

/// The sampled sweep budgets of the issue: minimal, small, odd, unbounded.
fn arb_budget() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(3), Just(17), Just(u64::MAX)]
}

/// A random engine-side reclamation policy covering every mode: never,
/// a full sweep every `n`-th batch, an explicit budget, the auto-sized one.
fn arb_policy() -> impl Strategy<Value = CollectPolicy> {
    prop_oneof![
        Just(CollectPolicy::Never),
        (1u64..4).prop_map(|every| CollectPolicy::Bounded {
            max_slots: u64::MAX,
            every
        }),
        (1u64..48, 1u64..3)
            .prop_map(|(max_slots, every)| CollectPolicy::Bounded { max_slots, every }),
        Just(CollectPolicy::bounded_auto()),
    ]
}

/// Queries every strategy accepts (IncNRC⁺, flat): identity and genre
/// filters over the streaming movies schema.
fn query_pool(idx: usize) -> nrc_core::Expr {
    match idx {
        0 => rel("M"),
        1 => filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "genre0")),
        _ => filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "genre1")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(24))]

    /// Random (query, update stream, policy) triples with bounded collects
    /// interleaved at random points between batches: the four strategies
    /// stay equal to a from-scratch recomputation of the final database.
    #[test]
    fn strategies_agree_under_interleaved_bounded_collection(
        seed in 0u64..10_000,
        query_idx in 0usize..3,
        nbatches in 1usize..5,
        batch_size in 1usize..8,
        delete_tenths in 0usize..6,
        policy in arb_policy(),
        // Explicit bounded sweeps injected before random batch indices.
        interleavings in prop::collection::vec((arb_budget(), 0usize..5), 0..6),
    ) {
        let _serial = serial();
        let case = fresh_case();
        let mut gen = StreamGen::new(seed, StreamConfig {
            batch_size,
            delete_fraction: delete_tenths as f64 / 10.0,
            genres: 4,
            directors: 4,
            payload_prefix: format!("prop-bgc-{case}-"),
            ..StreamConfig::default()
        });
        let db = gen.database(20);
        let q = query_pool(query_idx);
        let mut sys = IvmSystem::new(db);
        sys.set_collect_policy(policy);
        sys.register("re", q.clone(), Maintain::Reevaluate).expect("re");
        sys.register("fo", q.clone(), Maintain::FirstOrder).expect("fo");
        sys.register("rc", q.clone(), Maintain::Recursive).expect("rc");
        sys.register("sh", q.clone(), Maintain::Shredded).expect("sh");
        for step in 0..nbatches {
            for (budget, at) in &interleavings {
                if *at == step {
                    intern::collect_bounded_now(*budget);
                }
            }
            let batch = UpdateBatch::from_updates(gen.next_batch());
            sys.apply_batch(&batch).expect("batch");
        }
        for (budget, _) in &interleavings {
            // Trailing sweeps after the last batch exercise collection of
            // the stream's final garbage while the views are still read.
            intern::collect_bounded_now(*budget);
        }
        // Full recomputation: a fresh system over the final database
        // evaluates the query from scratch at registration.
        let mut scratch = IvmSystem::new(sys.database().clone());
        scratch.register("base", q, Maintain::Reevaluate).expect("scratch");
        let expected = scratch.view("base").expect("scratch view");
        for view in ["re", "fo", "rc", "sh"] {
            prop_assert_eq!(
                sys.view(view).expect("strategy view"),
                expected.clone(),
                "strategy {} diverged from full recomputation under {:?} \
                 with interleaved bounded collects",
                view,
                policy
            );
        }
        // Let the dropped systems' garbage drain before the next case.
        drop(sys);
        drop(scratch);
        drain();
    }

    /// Repeated bounded sweeps with no new garbage converge to exactly the
    /// state one full sweep reaches — same live set, same `ArenaStats` —
    /// and stale ids fail deterministically across slot reuse mid-sweep.
    #[test]
    fn bounded_collection_converges_to_a_full_sweep(
        k in 1usize..32,
        nested in 1usize..8,
        budget in arb_budget(),
        churn in 1usize..24,
    ) {
        let _serial = serial();
        drain();
        let before = intern::arena_stats();

        // ---- Phase 1: bounded sweeps, with churn interning mid-sweep ----
        let case = fresh_case();
        let (ids, bounded_freed) = {
            let (bag, nested_val) = build_garbage(case, k, nested);
            let ids: Vec<Vid> = bag.ids().map(|(id, _)| id).collect();
            let originals: Vec<Value> = ids.iter().map(|id| id.value().clone()).collect();
            drop(bag);
            drop(nested_val);
            // One bounded increment, then churn: fresh interns may reuse
            // freed slots while later queue entries are still pending.
            let mut freed = intern::collect_bounded_now(budget).freed;
            let churn_case = fresh_case();
            let churn_bag = Bag::from_values(
                (0..churn as u16).map(|i| payload(churn_case, i)),
            );
            for (id, original) in ids.iter().zip(&originals) {
                match id.try_value() {
                    Err(DataError::StaleVid { .. }) => {}
                    Ok(got) => prop_assert_eq!(
                        got, original,
                        "mid-sweep resolution changed value"
                    ),
                    Err(other) => {
                        return Err(TestCaseError::fail(format!("unexpected error {other}")));
                    }
                }
            }
            drop(churn_bag);
            // The snapshot clones share the nested value's inner map
            // (copy-on-write Arc): drop them before convergence, or they
            // would keep the cascade's children alive past the loop.
            drop(originals);
            let mut rounds = 0;
            loop {
                let s = intern::collect_bounded_now(budget);
                prop_assert!(s.freed <= budget, "budget violated: {:?}", s);
                freed += s.freed;
                if s.freed == 0 && s.pending == 0 {
                    break;
                }
                rounds += 1;
                prop_assert!(rounds < 512, "bounded sweeps failed to converge");
            }
            (ids, freed)
        };
        let after_bounded = intern::arena_stats();
        prop_assert_eq!(after_bounded.live, before.live, "live set must return to baseline");
        prop_assert_eq!(after_bounded.bytes, before.bytes, "byte account must balance");
        for id in &ids {
            prop_assert!(
                matches!(id.try_value(), Err(DataError::StaleVid { .. })),
                "id of a reclaimed slot must stay deterministically stale"
            );
        }

        // ---- Phase 2: the same garbage shape, one full sweep path ----
        let case2 = fresh_case();
        let full_freed = {
            let (bag, nested_val) = build_garbage(case2, k, nested);
            drop(bag);
            drop(nested_val);
            let mut freed = intern::collect_now().freed;
            let churn_case = fresh_case();
            let churn_bag = Bag::from_values(
                (0..churn as u16).map(|i| payload(churn_case, i)),
            );
            drop(churn_bag);
            freed += drain();
            freed
        };
        let after_full = intern::arena_stats();
        // Same live set (the shared baseline) and the same total
        // reclamation for the same garbage shape, whatever the budget.
        prop_assert_eq!(after_full.live, before.live);
        prop_assert_eq!(after_full.bytes, before.bytes);
        prop_assert_eq!(
            bounded_freed, full_freed,
            "bounded convergence must reclaim exactly what a full sweep does"
        );
    }
}

/// A payload unique to (test case, element index).
fn payload(case: u64, elem: u16) -> Value {
    common::payload("prop-bgc-case", case, elem)
}

/// `k` flat payloads in a bag plus one nested bag value of `nested`
/// children (so reclamation must ride the release cascade).
fn build_garbage(case: u64, k: usize, nested: usize) -> (Bag, Value) {
    common::build_garbage("prop-bgc-case", case, k, nested)
}
