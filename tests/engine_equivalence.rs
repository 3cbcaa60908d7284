//! End-to-end engine property: every maintenance strategy computes the same
//! views as re-evaluation across random update sequences — first-order and
//! recursive for IncNRC⁺ queries, shredded for full NRC⁺ — and the batched
//! maintenance path (`apply_batch`) produces view states identical to
//! applying every update sequentially.

mod common;

use nrc_core::generator::{GenConfig, QueryGen};
use nrc_engine::{IvmSystem, Strategy};
use proptest::prelude::*;

#[test]
fn inc_strategies_agree_over_random_update_sequences() {
    for seed in 0..common::case_count(80) {
        let mut g = QueryGen::new(seed, GenConfig::default());
        let db = g.gen_database();
        let q = g.gen_inc_query(&db);
        let mut sys = IvmSystem::new(db.clone());
        sys.register("re", q.clone(), Strategy::Reevaluate)
            .expect("register re");
        sys.register("fo", q.clone(), Strategy::FirstOrder)
            .expect("register fo");
        sys.register("rc", q.clone(), Strategy::Recursive)
            .expect("register rc");
        let rels: Vec<String> = db.relation_names().cloned().collect();
        for step in 0..4 {
            let rel = &rels[step % rels.len()];
            let update = g.gen_update(sys.database(), rel);
            sys.apply_update(rel, &update)
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: update failed: {e}"));
            let expected = sys.view("re").expect("re view");
            assert_eq!(
                sys.view("fo").expect("fo view"),
                expected,
                "seed {seed} step {step}: first-order diverged for {q}"
            );
            assert_eq!(
                sys.view("rc").expect("rc view"),
                expected,
                "seed {seed} step {step}: recursive diverged for {q}"
            );
        }
    }
}

#[test]
fn shredded_strategy_agrees_on_full_nrc_queries() {
    let mut exercised = 0;
    for seed in 0..common::case_count(80) {
        let mut g = QueryGen::new(seed, GenConfig::default());
        let db = g.gen_database();
        let q = g.gen_query(&db);
        let mut sys = IvmSystem::new(db.clone());
        sys.register("re", q.clone(), Strategy::Reevaluate)
            .expect("register re");
        sys.register("sh", q.clone(), Strategy::Shredded)
            .expect("register sh");
        let rels: Vec<String> = db.relation_names().cloned().collect();
        for step in 0..3 {
            let rel = &rels[step % rels.len()];
            let update = g.gen_update(sys.database(), rel);
            match sys.apply_update(rel, &update) {
                Ok(()) => {}
                Err(nrc_engine::EngineError::UnmatchedDeletion(_)) => {
                    // A generated deletion can target a tuple that an
                    // earlier random deletion already removed; skip the step
                    // (the guard exists precisely to catch this).
                    continue;
                }
                Err(e) => panic!("seed {seed} step {step}: update failed: {e}"),
            }
            assert_eq!(
                sys.view("sh").expect("sh view"),
                sys.view("re").expect("re view"),
                "seed {seed} step {step}: shredded diverged for {q}"
            );
            exercised += 1;
        }
    }
    // Scale the coverage floor with the dialed case count (~3 steps/seed,
    // minus the skipped unmatched deletions).
    assert!(
        exercised as u64 > common::case_count(80),
        "only {exercised} shredded steps exercised"
    );
}

#[test]
fn stats_expose_incremental_behaviour() {
    // The re-evaluation baseline re-evaluates; IVM does not.
    let mut g = QueryGen::new(5, GenConfig::default());
    let db = g.gen_database();
    let q = g.gen_inc_query(&db);
    let mut sys = IvmSystem::new(db.clone());
    sys.register("re", q.clone(), Strategy::Reevaluate)
        .expect("re");
    sys.register("fo", q, Strategy::FirstOrder).expect("fo");
    for _ in 0..3 {
        let update = g.gen_update(sys.database(), "R0");
        sys.apply_update("R0", &update).expect("update");
    }
    assert_eq!(sys.stats("re").expect("stats").reevaluations, 4); // 1 + 3
    assert_eq!(sys.stats("fo").expect("stats").reevaluations, 1);
    assert_eq!(sys.stats("fo").expect("stats").updates_applied, 3);
}

#[test]
fn related_survives_a_long_mixed_update_stream() {
    // The §2 query maintained through 40 batches of mixed insertions and
    // deletions, checked against re-evaluation at every step, with
    // dictionary domain maintenance (new labels initialized, dead labels
    // collected) along the way.
    use nrc_core::builder::related_query;
    use nrc_workloads::MovieGen;

    let mut gen = MovieGen::new(99, 5, 7);
    let db = gen.database(60);
    let mut sys = IvmSystem::new(db);
    sys.register("re", related_query(), Strategy::Reevaluate)
        .expect("re");
    sys.register("sh", related_query(), Strategy::Shredded)
        .expect("sh");
    for step in 0..40 {
        let current = sys.database().get("M").expect("M").clone();
        let delta = gen.update(&current, 2, if step % 3 == 0 { 2 } else { 0 });
        sys.apply_update("M", &delta)
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        assert_eq!(
            sys.view("sh").expect("sh"),
            sys.view("re").expect("re"),
            "diverged at step {step}"
        );
    }
    let stats = sys.stats("sh").expect("stats");
    assert_eq!(stats.updates_applied, 40);
    // The dictionary domain tracks the live movie count.
    assert_eq!(
        stats.materialized_aux,
        sys.database().get("M").expect("M").distinct_count() as u64
    );
}

/// A system over the streaming movies schema with all four strategies
/// registered: a genre filter under re-evaluation, first-order and
/// recursive IVM, plus `related` under shredding (checked against its own
/// re-evaluation baseline).
fn batchable_system(db: nrc_data::Database) -> IvmSystem {
    use nrc_core::builder::{cmp_lit, filter_query, related_query};
    use nrc_core::expr::CmpOp;

    let q = filter_query("M", cmp_lit("x", vec![1], CmpOp::Eq, "genre0"));
    let mut sys = IvmSystem::new(db);
    sys.register("re", q.clone(), Strategy::Reevaluate)
        .expect("re");
    sys.register("fo", q.clone(), Strategy::FirstOrder)
        .expect("fo");
    sys.register("rc", q, Strategy::Recursive).expect("rc");
    sys.register("sh", related_query(), Strategy::Shredded)
        .expect("sh");
    sys.register("sh_re", related_query(), Strategy::Reevaluate)
        .expect("sh_re");
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases_env(10))]

    /// `apply_batch(us)` yields view states identical to sequentially
    /// applying each `u ∈ us`, across all four maintenance strategies.
    #[test]
    fn apply_batch_equals_sequential_updates(
        seed in 0u64..10_000,
        batch_sizes in prop::collection::vec(1usize..8, 1..4),
        delete_tenths in 0usize..6,
    ) {
        use nrc_engine::UpdateBatch;
        use nrc_workloads::{StreamConfig, StreamGen};

        let mut gen = StreamGen::new(
            seed,
            StreamConfig {
                batch_size: 1, // sized per batch below
                delete_fraction: delete_tenths as f64 / 10.0,
                genres: 4,
                directors: 4,
                ..StreamConfig::default()
            },
        );
        let db = gen.database(25);
        let mut batched = batchable_system(db.clone());
        let mut sequential = batchable_system(db);

        for size in batch_sizes {
            // One stream of `size` single-tuple updates, fed to both systems.
            let updates: Vec<(String, nrc_data::Bag)> =
                (0..size).flat_map(|_| gen.next_batch()).collect();
            for (rel, delta) in &updates {
                sequential.apply_update(rel, delta).expect("sequential update");
            }
            batched
                .apply_batch(&UpdateBatch::from_updates(updates))
                .expect("batched update");

            for view in ["re", "fo", "rc", "sh", "sh_re"] {
                prop_assert_eq!(
                    batched.view(view).expect("batched view"),
                    sequential.view(view).expect("sequential view"),
                    "view {} diverged", view
                );
            }
            // All four strategies agree with each other through the batched
            // path: re/fo/rc maintain the same filter query, sh its own
            // re-evaluation baseline.
            let baseline = batched.view("re").expect("re view");
            for view in ["fo", "rc"] {
                prop_assert_eq!(
                    batched.view(view).expect("strategy view"),
                    baseline.clone(),
                    "strategy {} diverged from re-evaluation under apply_batch", view
                );
            }
            prop_assert_eq!(
                batched.view("sh").expect("sh view"),
                batched.view("sh_re").expect("sh_re view"),
                "shredded diverged from re-evaluation under apply_batch"
            );
            prop_assert_eq!(batched.database(), sequential.database());
        }
    }
}

#[test]
fn nested_inputs_with_mixed_insert_delete_streams() {
    // Relations whose *elements* contain bags: deletions must resolve the
    // stored labels (fresh labels would not cancel) — exercised across a
    // stream.
    use nrc_core::builder::{elem_sng, flatten, for_, proj_sng, rel};
    use nrc_workloads::OrdersGen;

    let mut gen = OrdersGen::new(4, 500);
    let db = gen.database(12, 3, 4);
    let mut sys = IvmSystem::new(db);
    let items_q = flatten(for_("c", rel("Customers"), proj_sng("c", vec![2])));
    let all_orders = flatten(items_q.clone());
    sys.register(
        "re",
        for_("c", rel("Customers"), elem_sng("c")),
        Strategy::Reevaluate,
    )
    .expect("re");
    sys.register(
        "sh",
        for_("c", rel("Customers"), elem_sng("c")),
        Strategy::Shredded,
    )
    .expect("sh");
    sys.register("orders_re", items_q.clone(), Strategy::Reevaluate)
        .expect("orders re");
    sys.register("orders_sh", items_q, Strategy::Shredded)
        .expect("orders sh");
    drop(all_orders);
    for step in 0..10 {
        // Alternate: insert a customer / delete an existing one.
        let delta = if step % 2 == 0 {
            gen.customer_batch(1, 2, 3)
        } else {
            let current = sys.database().get("Customers").expect("C");
            let (v, _) = current.iter().next().expect("non-empty");
            nrc_data::Bag::from_pairs([(v.clone(), -1)])
        };
        sys.apply_update("Customers", &delta)
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        assert_eq!(
            sys.view("sh").unwrap(),
            sys.view("re").unwrap(),
            "step {step}"
        );
        assert_eq!(
            sys.view("orders_sh").unwrap(),
            sys.view("orders_re").unwrap(),
            "orders diverged at step {step}"
        );
    }
}
