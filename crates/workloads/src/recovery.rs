//! Kill-point recovery driver: prebuilt deterministic streams and crash
//! offsets for the kill-point differential harness
//! (`tests/prop_recovery.rs`).
//!
//! Crash testing needs the *same* update stream on three paths — the
//! uncrashed reference replay, the run that gets killed, and the
//! post-recovery continuation — so this module materializes the stream up
//! front instead of re-generating it behind mutable generator state: a
//! [`RecoveryPlan`] is one initial database plus the full batch list, and
//! every consumer indexes into it. Batches stay engine-agnostic
//! `(relation, Δ)` pairs (this crate does not depend on `nrc-engine`); the
//! durable/bench layers fold them into `UpdateBatch`es.
//!
//! Crash *points* are byte offsets into the durable output; sampling them
//! here keeps the harness's kill placement seeded and reproducible. The
//! sampler is deliberately biased toward record interiors (every offset in
//! `1..total` is eligible, drawn uniformly), which covers mid-record,
//! mid-checkpoint, and between-fsync tears as the offset lands.

use crate::stream::{StreamConfig, StreamGen};
use nrc_data::{Bag, Database};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A materialized recovery workload: one initial database and the full,
/// deterministic batch sequence every consumer shares.
#[derive(Clone, Debug)]
pub struct RecoveryPlan {
    /// The initial database (relation `M` seeded with live tuples).
    pub db: Database,
    /// The batches, in stream order; `batches[i]` is durable batch `i + 1`.
    pub batches: Vec<Vec<(String, Bag)>>,
}

impl RecoveryPlan {
    /// Materialize a plan: `initial` seed tuples, then `nbatches` batches
    /// of the configured stream. Identical `(seed, cfg, initial,
    /// nbatches)` always yields an identical plan.
    pub fn generate(seed: u64, cfg: StreamConfig, initial: usize, nbatches: usize) -> RecoveryPlan {
        let mut gen = StreamGen::new(seed, cfg);
        let db = gen.database(initial);
        let batches = gen.batches(nbatches);
        RecoveryPlan { db, batches }
    }

    /// Number of batches in the plan.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Is the plan empty?
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }
}

/// Draw `k` crash offsets (durable-output byte budgets) in `1..=total`,
/// deterministically per seed. Offsets are unsorted and may repeat; each
/// is a byte at which the kill-point harness tears the durable stream.
pub fn kill_offsets(seed: u64, total: u64, k: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| {
            if total == 0 {
                0
            } else {
                rng.gen_range(1..=total)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_shared() {
        let cfg = StreamConfig::ever_fresh(8, "recovery-test");
        let a = RecoveryPlan::generate(42, cfg.clone(), 10, 5);
        let b = RecoveryPlan::generate(42, cfg, 10, 5);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
        assert_eq!(a.batches[0].len(), 8);
        // The database seeds the live population deletions draw from.
        assert_eq!(a.db.get("M").unwrap().cardinality(), 10);
    }

    #[test]
    fn kill_offsets_are_seeded_and_bounded() {
        let a = kill_offsets(7, 1000, 16);
        let b = kill_offsets(7, 1000, 16);
        assert_eq!(a, b);
        assert!(a.iter().all(|&o| (1..=1000).contains(&o)));
        assert_ne!(a, kill_offsets(8, 1000, 16));
        assert_eq!(kill_offsets(7, 0, 3), vec![0, 0, 0]);
    }
}
