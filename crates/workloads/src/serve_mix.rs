//! Mixed read/write serving workload: deterministic *read-op* streams to
//! run against snapshots while a [`crate::StreamGen`] write stream ingests.
//!
//! The crate stays engine-agnostic (it does not depend on `nrc-engine` or
//! the serving layer): a read workload here is a seeded sequence of
//! [`ReadOp`] *descriptions* — skewed point lookups over the write
//! stream's live population, deliberate misses, and bounded ordered scans
//! — which the bench/serving layer executes against whatever snapshot
//! implementation it drives. Determinism per `(seed, config, population)`
//! makes reader traces replayable for consistency checking: the same ops
//! re-executed against a sequential replay at the same batch index must
//! observe the same results.

use nrc_data::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One read operation against a view snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadOp {
    /// Point lookup of this value's multiplicity (the value may have been
    /// deleted — or never inserted — by the time the op runs; multiplicity
    /// 0 is then the correct answer).
    Point(Value),
    /// Ordered scan of up to `limit` elements from the start of the view.
    Scan {
        /// Maximum number of `(value, multiplicity)` pairs to visit.
        limit: usize,
    },
}

/// Shape of a reader's op mix.
#[derive(Clone, Debug)]
pub struct ReadMixConfig {
    /// Read ops generated per reader.
    pub ops: usize,
    /// Fraction of ops that are point lookups (the rest are scans).
    /// Clamped to `[0, 1]`.
    pub point_fraction: f64,
    /// Fraction of *point lookups* that deliberately probe a value the
    /// write stream never emits (cache-miss traffic). Clamped to `[0, 1]`.
    pub miss_fraction: f64,
    /// Skew exponent for picking point targets from the population: `1.0`
    /// uniform, larger concentrates on the population's head — the same
    /// convention as [`crate::StreamConfig::skew`].
    pub skew: f64,
    /// `limit` of generated scans.
    pub scan_limit: usize,
}

impl Default for ReadMixConfig {
    fn default() -> ReadMixConfig {
        ReadMixConfig {
            ops: 256,
            point_fraction: 0.8,
            miss_fraction: 0.1,
            skew: 2.0,
            scan_limit: 32,
        }
    }
}

/// Generate one reader's deterministic op sequence over a fixed
/// `population` of candidate point targets (typically
/// [`crate::StreamGen::live_tuples`] at workload setup). Each reader gets its own
/// `seed` so concurrent readers exercise different footprints.
pub fn reader_ops(seed: u64, cfg: &ReadMixConfig, population: &[Value]) -> Vec<ReadOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let point_fraction = cfg.point_fraction.clamp(0.0, 1.0);
    let miss_fraction = cfg.miss_fraction.clamp(0.0, 1.0);
    let mut ops = Vec::with_capacity(cfg.ops);
    for i in 0..cfg.ops {
        if population.is_empty() || !rng.gen_bool(point_fraction) {
            ops.push(ReadOp::Scan {
                limit: cfg.scan_limit.max(1),
            });
        } else if rng.gen_bool(miss_fraction) {
            // A tuple shaped like the stream's but from a disjoint
            // namespace: guaranteed absent, and probing for it must not
            // perturb anything (lookups never intern).
            ops.push(ReadOp::Point(Value::Tuple(vec![
                Value::str(format!("read-miss-{seed:08x}-{i:06}")),
                Value::str("genre-miss"),
                Value::str("dir-miss"),
            ])));
        } else {
            let u: f64 = rng.gen::<f64>();
            let idx = ((population.len() as f64) * u.powf(cfg.skew.max(1.0))) as usize;
            let idx = idx.min(population.len() - 1);
            ops.push(ReadOp::Point(population[idx].clone()));
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{StreamConfig, StreamGen};

    #[test]
    fn reader_ops_are_deterministic_and_respect_the_mix() {
        let mut gen = StreamGen::new(3, StreamConfig::default());
        gen.database(64);
        let cfg = ReadMixConfig {
            ops: 400,
            point_fraction: 0.75,
            miss_fraction: 0.2,
            ..ReadMixConfig::default()
        };
        let a = reader_ops(9, &cfg, gen.live_tuples());
        let b = reader_ops(9, &cfg, gen.live_tuples());
        assert_eq!(a, b, "same seed, same ops");
        let c = reader_ops(10, &cfg, gen.live_tuples());
        assert_ne!(a, c, "different seeds diverge");
        let points = a.iter().filter(|op| matches!(op, ReadOp::Point(_))).count();
        assert!(points > 200 && points < 390, "≈75% points, got {points}");
        let miss_marker = Value::str("genre-miss");
        let misses = a
            .iter()
            .filter(|op| matches!(op, ReadOp::Point(Value::Tuple(t)) if t[1] == miss_marker))
            .count();
        assert!(misses > 0, "some misses must be generated");
    }

    #[test]
    fn empty_population_degenerates_to_scans() {
        let cfg = ReadMixConfig::default();
        let ops = reader_ops(1, &cfg, &[]);
        assert!(ops.iter().all(|op| matches!(op, ReadOp::Scan { .. })));
    }
}
