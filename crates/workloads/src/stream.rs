//! High-volume streaming workload: update *batches* of configurable size
//! and skew over the §2 movies schema.
//!
//! Models the ingestion shape the batched maintenance path
//! (`IvmSystem::apply_batch`) is built for: a firehose of small single-tuple
//! updates arriving faster than per-update refresh can absorb, grouped into
//! batches by the transport. Two knobs shape the stream:
//!
//! * **batch size** — raw updates per emitted batch;
//! * **skew** — how concentrated genre/director choices are. `1.0` is
//!   uniform; larger values push the mass toward the low indices
//!   (`index ≈ domain · u^skew` for uniform `u`), producing the hot-key
//!   distributions under which coalescing pays off most (repeated touches
//!   of the same tuples cancel or merge).
//!
//! Batches are emitted as engine-agnostic `(relation, Δ)` pairs so the
//! crate stays independent of `nrc-engine`; the bench layer folds them into
//! `UpdateBatch`es.

use nrc_data::{Bag, Database, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a [`StreamGen`].
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Raw updates per batch.
    pub batch_size: usize,
    /// Fraction of updates that are deletions of live tuples (the rest are
    /// insertions). Clamped to `[0, 1]`.
    pub delete_fraction: f64,
    /// Skew exponent for genre/director selection; `1.0` = uniform, larger
    /// = hotter head.
    pub skew: f64,
    /// Number of distinct genres.
    pub genres: usize,
    /// Number of distinct directors.
    pub directors: usize,
    /// Prefix of generated movie names. Names are `{prefix}{counter:06}`,
    /// so two generators with different prefixes emit *disjoint* tuple
    /// payloads — what memory experiments need to guarantee every run
    /// interns genuinely fresh values instead of hitting the arena entries
    /// of a previous run.
    pub payload_prefix: String,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            batch_size: 64,
            delete_fraction: 0.2,
            skew: 2.0,
            genres: 16,
            directors: 32,
            payload_prefix: "movie".to_string(),
        }
    }
}

impl StreamConfig {
    /// The *ever-fresh churn* shape reclamation is measured under (the
    /// ledger's flat workloads, `tests/arena_reclaim_guard.rs`): a
    /// balanced 50% insert/delete mix — so the live tuple population stays
    /// roughly flat while every insertion interns genuinely fresh payloads
    /// — under a caller-unique prefix, so no two streams share arena
    /// entries.
    pub fn ever_fresh(batch_size: usize, prefix: &str) -> StreamConfig {
        StreamConfig {
            batch_size,
            delete_fraction: 0.5,
            payload_prefix: format!("{prefix}-"),
            ..StreamConfig::default()
        }
    }
}

/// Generator of batched update streams over `M(name, gen, dir)`.
///
/// Deterministic per seed. The generator tracks the live tuple population
/// itself so emitted deletions always target tuples that exist at that
/// point of the stream — batches are valid whether applied one update at a
/// time or coalesced.
pub struct StreamGen {
    rng: StdRng,
    cfg: StreamConfig,
    next_id: usize,
    /// Tuples currently live (insertions minus deletions), kept in emission
    /// order for O(1) random victim selection.
    live: Vec<Value>,
}

impl StreamGen {
    /// A deterministic stream generator.
    pub fn new(seed: u64, cfg: StreamConfig) -> StreamGen {
        StreamGen {
            rng: StdRng::seed_from_u64(seed),
            cfg,
            next_id: 0,
            live: Vec::new(),
        }
    }

    /// Draw a skewed index in `0..domain`.
    fn skewed_index(&mut self, domain: usize) -> usize {
        let u: f64 = self.rng.gen::<f64>();
        let idx = (domain as f64 * u.powf(self.cfg.skew.max(1.0))) as usize;
        idx.min(domain.saturating_sub(1))
    }

    fn fresh_movie(&mut self) -> Value {
        let id = self.next_id;
        self.next_id += 1;
        let g = self.skewed_index(self.cfg.genres.max(1));
        let d = self.skewed_index(self.cfg.directors.max(1));
        Value::Tuple(vec![
            Value::str(format!("{}{id:06}", self.cfg.payload_prefix)),
            Value::str(format!("genre{g}")),
            Value::str(format!("dir{d}")),
        ])
    }

    /// A database with `n` initial movies in relation `M` (these seed the
    /// live population for later deletions).
    pub fn database(&mut self, n: usize) -> Database {
        let mut bag = Bag::empty();
        for _ in 0..n {
            let m = self.fresh_movie();
            self.live.push(m.clone());
            bag.insert(m, 1);
        }
        let mut db = Database::new();
        db.insert_relation("M", crate::MovieGen::movie_type(), bag);
        db
    }

    /// The next batch: `batch_size` single-tuple updates against `M`, mixing
    /// insertions with deletions of live tuples per
    /// [`StreamConfig::delete_fraction`].
    pub fn next_batch(&mut self) -> Vec<(String, Bag)> {
        let mut out = Vec::with_capacity(self.cfg.batch_size);
        for _ in 0..self.cfg.batch_size {
            let delete = !self.live.is_empty()
                && self.rng.gen_bool(self.cfg.delete_fraction.clamp(0.0, 1.0));
            let delta = if delete {
                let i = self.rng.gen_range(0..self.live.len());
                let victim = self.live.swap_remove(i);
                Bag::from_pairs([(victim, -1)])
            } else {
                let m = self.fresh_movie();
                self.live.push(m.clone());
                Bag::singleton(m)
            };
            out.push(("M".to_string(), delta));
        }
        out
    }

    /// Emit `n` consecutive batches.
    pub fn batches(&mut self, n: usize) -> Vec<Vec<(String, Bag)>> {
        (0..n).map(|_| self.next_batch()).collect()
    }

    /// Number of currently live tuples.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The currently live tuples, in emission order. Read workloads sample
    /// their point-lookup targets from this population (see
    /// `crate::serve_mix`).
    pub fn live_tuples(&self) -> &[Value] {
        &self.live
    }
}

#[cfg(test)]
mod prefix_tests {
    use super::*;

    #[test]
    fn payload_prefix_disjoins_streams() {
        let mk = |prefix: &str| {
            let cfg = StreamConfig {
                payload_prefix: prefix.to_string(),
                delete_fraction: 0.0,
                ..StreamConfig::default()
            };
            let mut g = StreamGen::new(5, cfg);
            g.next_batch()
        };
        let a = mk("streamA-");
        let b = mk("streamB-");
        for ((_, da), (_, db)) in a.iter().zip(&b) {
            let (va, _) = da.iter().next().unwrap();
            let (vb, _) = db.iter().next().unwrap();
            assert_ne!(va, vb, "prefixed streams must not share payloads");
        }
        // Default prefix preserves the historical names.
        let mut g = StreamGen::new(5, StreamConfig::default());
        let batch = g.next_batch();
        let (v, _) = batch[0].1.iter().next().unwrap();
        let name = format!("{}", v.project(0).unwrap());
        assert!(name.contains("movie00000"), "got {name}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ever_fresh_preset_balances_churn_under_a_unique_prefix() {
        let cfg = StreamConfig::ever_fresh(24, "cell-a");
        assert_eq!(cfg.batch_size, 24);
        assert_eq!(cfg.delete_fraction, 0.5);
        assert_eq!(cfg.payload_prefix, "cell-a-");
        let mut g = StreamGen::new(11, cfg);
        g.database(10);
        let batch = g.next_batch();
        assert_eq!(batch.len(), 24);
        for (_, d) in &batch {
            let (v, _) = d.iter().next().unwrap();
            let name = format!("{}", v.project(0).unwrap());
            assert!(name.contains("cell-a-"), "got {name}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || {
            let mut g = StreamGen::new(42, StreamConfig::default());
            g.database(50);
            g.batches(3)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a, b);
    }

    #[test]
    fn batches_have_configured_size() {
        let cfg = StreamConfig {
            batch_size: 17,
            ..StreamConfig::default()
        };
        let mut g = StreamGen::new(1, cfg);
        g.database(10);
        let batch = g.next_batch();
        assert_eq!(batch.len(), 17);
        assert!(batch
            .iter()
            .all(|(rel, d)| rel == "M" && d.cardinality() == 1));
    }

    #[test]
    fn deletions_target_live_tuples() {
        let cfg = StreamConfig {
            batch_size: 200,
            delete_fraction: 0.5,
            ..StreamConfig::default()
        };
        let mut g = StreamGen::new(7, cfg);
        let mut db = g.database(100);
        for batch in g.batches(5) {
            for (rel, delta) in &batch {
                // Applying one at a time never drives a multiplicity
                // negative: deletions always hit live tuples.
                db.apply_update(rel, delta).unwrap();
                assert!(
                    db.get("M").unwrap().is_proper(),
                    "deletion of a non-live tuple"
                );
            }
        }
        assert_eq!(db.get("M").unwrap().cardinality() as usize, g.live_count());
    }

    #[test]
    fn skew_concentrates_the_head() {
        let uniform = StreamConfig {
            skew: 1.0,
            batch_size: 500,
            delete_fraction: 0.0,
            ..Default::default()
        };
        let skewed = StreamConfig {
            skew: 4.0,
            batch_size: 500,
            delete_fraction: 0.0,
            ..Default::default()
        };
        let head_share = |cfg: StreamConfig| {
            let mut g = StreamGen::new(3, cfg);
            let batch = g.next_batch();
            let hot = batch
                .iter()
                .filter(|(_, d)| {
                    let (v, _) = d.iter().next().unwrap();
                    v.project(1).unwrap() == &Value::str("genre0")
                })
                .count();
            hot as f64 / batch.len() as f64
        };
        assert!(head_share(skewed) > head_share(uniform) * 2.0);
    }
}
