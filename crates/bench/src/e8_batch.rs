//! E8 — batched maintenance: per-update refresh vs. coalesced batches.
//!
//! The deltas of the paper are *additive* (Prop. 4.1): refreshing a view
//! once with `u₁ ⊎ … ⊎ uₖ` yields the same state as `k` per-update
//! refreshes while evaluating every delta query once. This experiment
//! measures that effect on the high-volume streaming workload
//! (`nrc_workloads::stream`) for all four maintenance strategies.

use crate::report::{fmt_us, Table};
use nrc_core::builder::{cmp_lit, filter_query, related_query};
use nrc_core::expr::CmpOp;
use nrc_engine::{IvmSystem, Strategy, UpdateBatch};
use nrc_workloads::{StreamConfig, StreamGen};

/// How a stream of update batches is ingested.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// One `apply_update` per raw update.
    Single,
    /// One `apply_batch` per batch.
    Batched,
}

/// Sweep parameters: `(initial cardinality, batches, batch size)`.
pub fn sizes(quick: bool) -> (usize, usize, usize) {
    if quick {
        (128, 3, 48)
    } else {
        (512, 5, 192)
    }
}

/// Number of views registered per strategy.
pub const VIEWS_PER_STRATEGY: usize = 4;

/// Build a system over `n` movies with [`VIEWS_PER_STRATEGY`] views of
/// `strategy`: genre filters, plus — for the shredded strategy — the §2
/// `related` query with its context dictionaries.
pub fn setup(n: usize, strategy: Strategy, seed: u64) -> (IvmSystem, StreamGen) {
    setup_with(n, strategy, seed, StreamConfig::default())
}

/// [`setup`] with an explicit stream configuration.
pub fn setup_with(
    n: usize,
    strategy: Strategy,
    seed: u64,
    cfg: StreamConfig,
) -> (IvmSystem, StreamGen) {
    let mut gen = StreamGen::new(seed, cfg);
    let db = gen.database(n);
    let mut sys = IvmSystem::new(db);
    for i in 0..VIEWS_PER_STRATEGY {
        if strategy == Strategy::Shredded && i == 0 {
            sys.register("related", related_query(), strategy)
                .expect("register related");
        } else {
            let q = filter_query(
                "M",
                cmp_lit("x", vec![1], CmpOp::Eq, format!("genre{i}").as_str()),
            );
            sys.register(format!("v{i}"), q, strategy)
                .expect("register filter view");
        }
    }
    (sys, gen)
}

/// Ingest `batches` under `mode`, returning mean µs per *raw update*.
pub fn ingest(sys: &mut IvmSystem, batches: &[Vec<(String, nrc_data::Bag)>], mode: Mode) -> f64 {
    let raw: usize = batches.iter().map(Vec::len).sum();
    let (_, us) = crate::time_us(|| {
        for batch in batches {
            match mode {
                Mode::Single => {
                    for (rel, delta) in batch {
                        sys.apply_update(rel, delta).expect("update");
                    }
                }
                Mode::Batched => {
                    let b = UpdateBatch::from_updates(batch.iter().cloned());
                    sys.apply_batch(&b).expect("batch");
                }
            }
        }
    });
    us / raw.max(1) as f64
}

/// Run the experiment.
pub fn run(quick: bool) -> Table {
    let (n, nbatches, batch_size) = sizes(quick);
    let mut t = Table::new(
        "E8",
        format!(
            "batched maintenance: {VIEWS_PER_STRATEGY} views, \
             {nbatches} batches × {batch_size} updates over n={n}"
        ),
        &[
            "strategy",
            "single / upd",
            "batched / upd",
            "speed-up (batched vs single)",
        ],
    );
    let strategies = [
        ("reevaluate", Strategy::Reevaluate),
        ("first-order", Strategy::FirstOrder),
        ("recursive", Strategy::Recursive),
        ("shredded", Strategy::Shredded),
    ];
    let mut best: Option<f64> = None;
    for (name, strategy) in strategies {
        // Identical streams per mode: same seed, fresh generator each.
        let mut per_mode = [0f64; 2];
        for (slot, mode) in [Mode::Single, Mode::Batched].into_iter().enumerate() {
            let cfg = StreamConfig {
                batch_size,
                ..StreamConfig::default()
            };
            let (mut sys, mut gen) = setup_with(n, strategy, 42, cfg);
            let batches = gen.batches(nbatches);
            per_mode[slot] = ingest(&mut sys, &batches, mode);
        }
        let speedup = per_mode[0] / per_mode[1].max(1e-9);
        best = Some(best.map_or(speedup, |b: f64| b.max(speedup)));
        t.row(vec![
            name.to_string(),
            fmt_us(per_mode[0]),
            fmt_us(per_mode[1]),
            format!("{speedup:.1}×"),
        ]);
    }
    if let Some(b) = best {
        t.note(format!(
            "coalescing evaluates each delta query once per batch instead of once per \
             update (best speed-up {b:.1}×)"
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_agree_on_final_view_state() {
        for strategy in [
            Strategy::Reevaluate,
            Strategy::FirstOrder,
            Strategy::Recursive,
            Strategy::Shredded,
        ] {
            let make_batches = || {
                let (_, mut gen) = setup(40, strategy, 9);
                gen.batches(2)
            };
            let (mut single, _) = setup(40, strategy, 9);
            ingest(&mut single, &make_batches(), Mode::Single);
            let (mut batched, _) = setup(40, strategy, 9);
            ingest(&mut batched, &make_batches(), Mode::Batched);
            let names: Vec<String> = single.view_names().cloned().collect();
            for name in &names {
                let expected = single.view(name).unwrap();
                assert_eq!(
                    batched.view(name).unwrap(),
                    expected,
                    "{strategy:?}/{name} batched"
                );
            }
            assert!(batched.batch_stats().batches_applied > 0);
        }
    }

    #[test]
    fn quick_run_produces_full_grid() {
        let t = run(true);
        assert_eq!(t.rows.len(), 4);
    }
}
