//! The four workloads: sizes, views, durability settings and the seeded
//! input stream. The program under test receives only what is generated
//! here; nothing in it knows which workload it is serving.

use nrc_data::{Bag, Database, Value};
use nrc_durable::FsyncPolicy;
use nrc_workloads::{reader_ops, MovieGen, ReadMixConfig, ReadOp, StreamConfig, StreamGen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A view registered from NRC⁺ text: `(name, source)`.
pub type ViewText = (&'static str, &'static str);

/// The flat views of `flat_durable`, `read_mostly` and `restart`. The
/// movie tuple is `⟨name, gen, dir⟩` and projections are 1-based, so `m.2`
/// is the genre. The planner picks first-order maintenance for all four.
const FLAT_VIEWS: [ViewText; 4] = [
    ("genre0", "for m in M where m.2 == \"genre0\" union sng(m)"),
    ("dir0", "for m in M where m.3 == \"dir0\" union sng(m)"),
    ("names", "for m in M union sng(m.1)"),
    (
        "twogenres",
        "(for m in M where m.2 == \"genre1\" union sng(m)) ++ \
         (for m in M where m.2 == \"genre2\" union sng(m))",
    ),
];

/// The nested views of `nested_shredded` (§2 of the paper). Their output
/// holds inner bags, so the planner picks shredded maintenance.
const NESTED_VIEWS: [ViewText; 2] = [
    (
        "related",
        "for m in M union <m.1, for m2 in M \
         where m.1 != m2.1 && (m.2 == m2.2 || m.3 == m2.3) union sng(m2.1)>",
    ),
    (
        "bygenre",
        "for m in M union <m.2, for m2 in M where m2.2 == m.2 union sng(m2.1)>",
    ),
];

/// The view every workload registers late, through `backfill_query`.
pub const LATE_VIEW: ViewText = ("late", "for m in M where m.2 == \"genre3\" union sng(m)");

/// Sizes and settings of one workload at a given run length.
#[derive(Clone, Debug)]
pub struct Params {
    pub name: &'static str,
    /// Movies in `M` before the stream starts.
    pub movies: usize,
    /// Raw updates per batch.
    pub batch_size: usize,
    /// Batches in the measured stream.
    pub batches: u64,
    pub views: &'static [ViewText],
    /// The view the reader's lookups and scans go to.
    pub read_view: &'static str,
    pub fsync: FsyncPolicy,
    /// `false`: the `ever_fresh` stream of `nrc-workloads`, which deletes
    /// by coin flip. `true`: inserts and deletes alternate, so the number
    /// of movies is the same at every batch boundary.
    pub balanced: bool,
    /// Batch indices after which the driver calls `checkpoint_now()`.
    pub checkpoints: Vec<u64>,
    /// `Some(period)`: open loop, one batch due every `period`, latency
    /// timed from the due time. `None`: closed loop, the next batch is
    /// sent when the previous one is done.
    pub period: Option<Duration>,
    /// `None`: the closed-loop reader runs alongside the writer.
    /// `Some(phase)`: no reader during ingest; it runs against the
    /// quiescent system for half of `phase` before the stream and half
    /// after.
    pub read_phase: Option<Duration>,
    /// The batch index `recover_at` targets; the views' state is recorded
    /// at that index during ingest and compared.
    pub recover_at: u64,
    /// Rounds of `recover` → `recover_at` after the stream, sized so that
    /// the phase spans four to five seconds; each metric is the mean.
    pub restart_rounds: u64,
    /// Also run the `durable_obs_off` pass in the traced run.
    pub obs_off_pass: bool,
}

/// Scale a count chosen for the default run length to `seconds`.
fn scaled(at_default: u64, seconds: u64) -> u64 {
    (at_default * seconds / crate::spec::RUN_SECONDS).max(8)
}

/// Restart rounds chosen for the default run length, scaled to `seconds`.
fn rounds(at_default: u64, seconds: u64) -> u64 {
    (at_default * seconds / crate::spec::RUN_SECONDS).max(1)
}

/// The parameters of `workload` for a run of `seconds`; `None` for an
/// unknown name. Operation counts are fixed per run length, so that the
/// same seed gives the same work and exact counts repeat.
pub fn params(workload: &str, seconds: u64) -> Option<Params> {
    let base = Params {
        name: "",
        movies: 20_000,
        batch_size: 64,
        batches: 0,
        views: &FLAT_VIEWS,
        read_view: "genre0",
        fsync: FsyncPolicy::EveryN(16),
        balanced: false,
        checkpoints: Vec::new(),
        period: None,
        read_phase: None,
        recover_at: 0,
        restart_rounds: rounds(5, seconds),
        obs_off_pass: false,
    };
    let p = match workload {
        "flat_durable" => {
            let batches = scaled(1_000, seconds);
            Params {
                name: "flat_durable",
                batches,
                checkpoints: (1..batches).filter(|b| b % 256 == 0).collect(),
                recover_at: batches * 7 / 24,
                obs_off_pass: true,
                ..base
            }
        }
        "nested_shredded" => {
            let batches = scaled(220, seconds);
            Params {
                name: "nested_shredded",
                movies: 300,
                batch_size: 24,
                batches,
                views: &NESTED_VIEWS,
                read_view: "bygenre",
                fsync: FsyncPolicy::Never,
                // A coin-flip delete makes the movie count a random walk:
                // ±88 of 300 over this stream, and `related` grows with its
                // square, so the seed decided the work (exact disk bytes
                // spread 43 % over ten seeds). Of 20 000 movies the same
                // walk is 1.5 %, which is why only this workload balances.
                balanced: true,
                // A reader alongside the writer would make publication,
                // not maintenance, the larger part of a batch.
                read_phase: Some(Duration::from_millis(200 * seconds)),
                // No cadence checkpoints; two late ones keep the replay
                // tails of recover and recover_at a few batches long.
                checkpoints: vec![batches / 2, batches - 8],
                recover_at: batches / 2 + 4,
                restart_rounds: rounds(10, seconds),
                ..base
            }
        }
        "read_mostly" => {
            let batches = scaled(500, seconds);
            Params {
                name: "read_mostly",
                batch_size: 16,
                batches,
                checkpoints: vec![batches / 2],
                period: Some(Duration::from_millis(10)),
                recover_at: batches / 2 + batches / 4,
                ..base
            }
        }
        "restart" => {
            let batches = scaled(800, seconds);
            Params {
                name: "restart",
                batches,
                checkpoints: vec![batches / 3, 2 * batches / 3],
                recover_at: batches * 700 / 1536,
                ..base
            }
        }
        _ => return None,
    };
    Some(p)
}

/// Where a run's batches come from.
enum Stream {
    EverFresh(StreamGen),
    Balanced(BalancedGen),
}

/// Inserts of fresh movies and deletes of live ones in strict alternation,
/// over the genre and director domains `StreamConfig::default()` uses.
/// Genre and director go round-robin with the movie's number: drawn at
/// random, 300 movies make genres of 19 ± 4, `related` goes with the
/// squares, and the seed again decided the work. The seed picks victims.
struct BalancedGen {
    rng: StdRng,
    batch_size: usize,
    next_id: usize,
    live: Vec<Value>,
}

impl BalancedGen {
    fn fresh_movie(&mut self) -> Value {
        let cfg = StreamConfig::default();
        let id = self.next_id;
        self.next_id += 1;
        let g = id % cfg.genres;
        let d = (id / cfg.genres) % cfg.directors;
        Value::Tuple(vec![
            Value::str(format!("m-{id:06}")),
            Value::str(format!("genre{g}")),
            Value::str(format!("dir{d}")),
        ])
    }

    fn database(&mut self, n: usize) -> Database {
        let mut bag = Bag::empty();
        for _ in 0..n {
            let m = self.fresh_movie();
            self.live.push(m.clone());
            bag.insert(m, 1);
        }
        let mut db = Database::new();
        db.insert_relation("M", MovieGen::movie_type(), bag);
        db
    }

    fn next_batch(&mut self) -> Vec<(String, Bag)> {
        (0..self.batch_size)
            .map(|i| {
                let delta = if i % 2 == 1 && !self.live.is_empty() {
                    let victim = self.rng.gen_range(0..self.live.len());
                    Bag::from_pairs([(self.live.swap_remove(victim), -1)])
                } else {
                    let m = self.fresh_movie();
                    self.live.push(m.clone());
                    Bag::singleton(m)
                };
                ("M".to_string(), delta)
            })
            .collect()
    }
}

/// The seeded inputs of one run: the initial database and the update
/// stream, generated batch by batch so that fresh values reach the arena
/// when a real feed would deliver them.
pub struct Inputs {
    pub db: Database,
    stream: Stream,
}

impl Inputs {
    /// Same `(params, seed)`, same inputs.
    pub fn new(p: &Params, seed: u64) -> Inputs {
        if p.balanced {
            let mut gen = BalancedGen {
                rng: StdRng::seed_from_u64(seed),
                batch_size: p.batch_size,
                next_id: 0,
                live: Vec::new(),
            };
            let db = gen.database(p.movies);
            return Inputs {
                db,
                stream: Stream::Balanced(gen),
            };
        }
        let mut gen = StreamGen::new(seed, StreamConfig::ever_fresh(p.batch_size, "m"));
        let db = gen.database(p.movies);
        Inputs {
            db,
            stream: Stream::EverFresh(gen),
        }
    }

    /// The next batch of raw single-tuple updates against `M`.
    pub fn next_batch(&mut self) -> Vec<(String, Bag)> {
        match &mut self.stream {
            Stream::EverFresh(gen) => gen.next_batch(),
            Stream::Balanced(gen) => gen.next_batch(),
        }
    }
}

/// Operations per timed read block.
pub const READ_BLOCK: usize = 32;

/// The reader's op list: 80 % point lookups skewed to the head of the
/// read view's initial contents, a tenth of them deliberate misses, and
/// scans of 24 — the E12 mix. The list is cycled for the whole run. It is
/// long on purpose: a scan costs 25 lookups, and in a list of 512 the
/// seed moved the number of scans by ±9 %, and `read_p50_us` with it.
pub fn read_ops(seed: u64, initial_view: &Bag) -> Vec<ReadOp> {
    let population: Vec<Value> = initial_view.iter().map(|(v, _)| v.clone()).collect();
    let mix = ReadMixConfig {
        ops: 128 * READ_BLOCK,
        point_fraction: 0.8,
        miss_fraction: 0.1,
        skew: 2.0,
        scan_limit: 24,
    };
    reader_ops(seed ^ 0x5eed_0ead, &mix, &population)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_has_parameters() {
        for w in &crate::spec::WORKLOADS {
            let p = params(w.name, crate::spec::RUN_SECONDS).expect(w.name);
            assert_eq!(p.name, w.name);
            assert!(p.batches >= 200, "{}: p95 needs 200 batches", w.name);
            assert!(p.checkpoints.iter().all(|c| *c >= 1 && *c <= p.batches));
            let newest = p.checkpoints.iter().max().copied().unwrap_or(0);
            assert!(p.recover_at >= 1 && p.recover_at <= p.batches);
            assert!(newest < p.batches, "{}: recover replays a tail", w.name);
        }
        assert!(params("nope", 10).is_none());
    }

    #[test]
    fn counts_scale_with_run_length_and_keep_a_floor() {
        let long = params("flat_durable", 20).unwrap();
        let short = params("flat_durable", 1).unwrap();
        assert_eq!(long.batches, 2_000);
        assert_eq!(short.batches, 100);
        assert_eq!(params("nested_shredded", 1).unwrap().batches, 22);
        let tiny = params("nested_shredded", 1).unwrap();
        assert!(tiny
            .checkpoints
            .iter()
            .all(|c| *c >= 1 && *c < tiny.batches));
    }

    #[test]
    fn balanced_stream_keeps_the_movie_count() {
        let p = params("nested_shredded", 10).unwrap();
        assert!(p.balanced && p.batch_size % 2 == 0);
        let mut inputs = Inputs::new(&p, 11);
        let mut db = std::mem::take(&mut inputs.db);
        for _ in 0..40 {
            for (rel, delta) in inputs.next_batch() {
                db.apply_update(&rel, &delta).unwrap();
            }
            let m = db.get("M").unwrap();
            assert!(m.is_proper(), "deletes only ever hit live movies");
            assert_eq!(m.cardinality(), p.movies as u64);
        }
    }

    #[test]
    fn inputs_repeat_per_seed() {
        let p = params("read_mostly", 1).unwrap();
        let (mut a, mut b, mut c) = (Inputs::new(&p, 3), Inputs::new(&p, 3), Inputs::new(&p, 4));
        assert_eq!(a.db, b.db);
        let (ba, bb, bc) = (a.next_batch(), b.next_batch(), c.next_batch());
        assert_eq!(ba, bb);
        assert_ne!(ba, bc);
        assert_eq!(ba.len(), p.batch_size);
    }
}
