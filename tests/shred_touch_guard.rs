//! Count-based complexity guard for in-place shredded maintenance: a batch
//! costs the labels it touches, not the labels the view has.
//!
//! On the ledger's two nested view texts, over the ledger's balanced stream
//! (12 inserts + 12 deletes a batch, 16 genres, 64 directors), at 300 and
//! 1 200 movies:
//!
//! * `bygenre`'s label is `⟨ι, m.2⟩`, so it materializes one definition per
//!   genre and a batch touches at most the genres it mentions;
//! * `related`'s dictionary bodies run once per (label, update tuple) pair
//!   that shares a genre or a director — a join — not once per pair;
//! * a batch under a held snapshot copies the tree paths to what it
//!   touches, not the context.
//!
//! The `engine.shred.*` and `data.tree.*` registry counters are
//! process-wide, so this file holds exactly one test: nothing else in the
//! process maintains a view while it counts, and the counts repeat exactly.
//! No wall-clock assertion.

use nrc_data::{Bag, Database, Value};
use nrc_engine::{IvmSystem, UpdateBatch};
use nrc_workloads::MovieGen;

const RELATED: &str = "for m in M union <m.1, for m2 in M \
     where m.1 != m2.1 && (m.2 == m2.2 || m.3 == m2.3) union sng(m2.1)>";
const BYGENRE: &str = "for m in M union <m.2, for m2 in M where m2.2 == m.2 union sng(m2.1)>";

const GENRES: usize = 16;
const DIRECTORS: usize = 64;
/// Updates a batch.
const D: usize = 24;
const BATCHES: usize = 6;
/// The ceiling `nrc_data` documents for its tree's fan-out, and a height
/// no tree of these sizes reaches (32³ > 4 800).
const MAX_FANOUT: u64 = 64;
const MAX_HEIGHT: u64 = 3;

fn genre(id: usize) -> usize {
    id % GENRES
}

fn director(id: usize) -> usize {
    (id / GENRES) % DIRECTORS
}

/// Genre and director go round-robin with the movie's number, as in the
/// ledger's balanced stream.
fn movie(id: usize) -> Value {
    Value::Tuple(vec![
        Value::str(format!("m-{id:06}")),
        Value::str(format!("genre{}", genre(id))),
        Value::str(format!("dir{}", director(id))),
    ])
}

/// What one batch moved: `engine.shred.*` and `data.tree.keys_copied`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Moved {
    touched: u64,
    initialized: u64,
    removed: u64,
    body_evals: u64,
    keys_copied: u64,
}

fn counters() -> Moved {
    let shred = |k: &str| nrc_obs::counter(&format!("engine.shred.{k}")).get();
    Moved {
        touched: shred("labels_touched"),
        initialized: shred("labels_initialized"),
        removed: shred("labels_removed"),
        body_evals: shred("body_evals"),
        keys_copied: nrc_obs::counter("data.tree.keys_copied").get(),
    }
}

/// One view over `n` movies and the stream that updates it.
struct Run {
    sys: IvmSystem,
    view: &'static str,
    /// Ids of the movies in `M`.
    live: Vec<usize>,
    next_id: usize,
    rng: u64,
}

impl Run {
    fn new(view: &'static str, src: &str, n: usize) -> Run {
        let mut db = Database::new();
        db.insert_relation(
            "M",
            MovieGen::movie_type(),
            Bag::from_values((0..n).map(movie)),
        );
        let mut sys = IvmSystem::new(db);
        sys.register_query(view, src).expect("register");
        Run {
            sys,
            view,
            live: (0..n).collect(),
            next_id: n,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// The next fresh id for which `keep` holds.
    fn fresh(&mut self, keep: impl Fn(usize) -> bool) -> usize {
        while !keep(self.next_id) {
            self.next_id += 1;
        }
        self.next_id += 1;
        self.next_id - 1
    }

    /// A live victim for which `keep` holds, picked by xorshift.
    fn victim(&mut self, keep: impl Fn(usize) -> bool) -> usize {
        loop {
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let at = (self.rng % self.live.len() as u64) as usize;
            if keep(self.live[at]) {
                return self.live.swap_remove(at);
            }
        }
    }

    /// Apply `d` updates — inserts and deletes alternating, every movie
    /// satisfying `keep` — as one batch. Returns the inserted ids, the
    /// deleted ids, and what the batch moved.
    fn batch(&mut self, d: usize, keep: impl Fn(usize) -> bool) -> (Vec<usize>, Vec<usize>, Moved) {
        let (mut inserted, mut deleted) = (Vec::new(), Vec::new());
        let updates: Vec<(String, Bag)> = (0..d)
            .map(|i| {
                let (id, m) = if i % 2 == 1 {
                    let id = self.victim(&keep);
                    deleted.push(id);
                    (id, -1)
                } else {
                    let id = self.fresh(&keep);
                    inserted.push(id);
                    (id, 1)
                };
                ("M".to_owned(), Bag::from_pairs([(movie(id), m)]))
            })
            .collect();
        let batch = UpdateBatch::from_updates(updates);
        let before = counters();
        self.sys.apply_batch(&batch).expect("apply");
        let after = counters();
        self.live.extend(&inserted);
        let moved = Moved {
            touched: after.touched - before.touched,
            initialized: after.initialized - before.initialized,
            removed: after.removed - before.removed,
            body_evals: after.body_evals - before.body_evals,
            keys_copied: after.keys_copied - before.keys_copied,
        };
        (inserted, deleted, moved)
    }

    fn definitions(&self) -> u64 {
        self.sys.stats(self.view).expect("stats").materialized_aux
    }
}

/// Everything counted at one size, for the exact-repeat comparison.
fn scenario(n: usize) -> Vec<Moved> {
    let mut counted = Vec::new();

    // bygenre: one definition per genre, whatever n is.
    let mut run = Run::new("bygenre", BYGENRE, n);
    assert_eq!(run.definitions(), GENRES as u64, "bygenre at {n}");
    for _ in 0..BATCHES {
        let (inserted, deleted, moved) = run.batch(D, |_| true);
        let mut genres: Vec<usize> = inserted
            .iter()
            .chain(&deleted)
            .map(|&id| genre(id))
            .collect();
        genres.sort_unstable();
        genres.dedup();
        assert!(
            moved.touched <= genres.len() as u64,
            "bygenre at {n}: {moved:?} for {} genres",
            genres.len()
        );
        // No genre empties or appears: the domain does not move.
        assert_eq!((moved.initialized, moved.removed), (0, 0), "bygenre at {n}");
        // Every update tuple is a candidate of exactly its genre's label.
        assert!(moved.body_evals <= D as u64, "bygenre at {n}: {moved:?}");
        assert_eq!(run.definitions(), GENRES as u64);
        counted.push(moved);
    }
    // One genre updated under a held snapshot: the one path to its label.
    let held = run.sys.view_state("bygenre").expect("state");
    let (.., moved) = run.batch(4, |id| genre(id) == 0);
    drop(held);
    assert_eq!(moved.touched, 1, "bygenre at {n}");
    assert!(
        moved.keys_copied <= 4 * MAX_HEIGHT * MAX_FANOUT,
        "bygenre at {n}: {moved:?}"
    );
    counted.push(moved);

    // related: one definition per movie; bodies run on the join.
    let mut run = Run::new("related", RELATED, n);
    assert_eq!(run.definitions(), n as u64, "related at {n}");
    for _ in 0..BATCHES {
        // Group sizes before the batch.
        let (mut by_genre, mut by_director) = ([0u64; GENRES], [0u64; DIRECTORS]);
        for &id in &run.live {
            by_genre[genre(id)] += 1;
            by_director[director(id)] += 1;
        }
        let group = |id: &usize| by_genre[genre(*id)] + by_director[director(*id)];
        let (inserted, deleted, moved) = run.batch(D, |_| true);
        // Every update tuple changes the labels of its two groups; an
        // inserted one also initializes its own label from its two groups,
        // which the batch's other inserts (≤ d a group) may have joined.
        let bound = inserted.iter().chain(&deleted).map(group).sum::<u64>()
            + inserted.iter().map(group).sum::<u64>()
            + (D * D) as u64;
        assert!(
            moved.body_evals <= bound,
            "related at {n}: {moved:?} against {bound}"
        );
        // Not n · d.
        assert!(
            moved.body_evals * 4 < (n * D) as u64,
            "related at {n}: {moved:?}"
        );
        assert_eq!(
            (moved.initialized, moved.removed),
            (inserted.len() as u64, deleted.len() as u64),
            "related at {n}"
        );
        assert_eq!(run.definitions(), n as u64);
        counted.push(moved);
    }
    // One genre updated under a held snapshot: the paths to the labels of
    // that genre and of the four directors, not the dictionary.
    let held = run.sys.view_state("related").expect("state");
    let (.., moved) = run.batch(4, |id| genre(id) == 0);
    drop(held);
    let writes = moved.touched + moved.initialized + moved.removed + 4;
    assert!(
        moved.touched <= (n / GENRES + 4 * n / DIRECTORS + 8) as u64,
        "related at {n}: {moved:?}"
    );
    assert!(
        moved.keys_copied <= writes * MAX_HEIGHT * MAX_FANOUT,
        "related at {n}: {moved:?}"
    );
    counted.push(moved);
    counted
}

#[test]
fn a_batch_costs_the_labels_it_touches() {
    for n in [300, 1_200] {
        let counted = scenario(n);
        println!("n = {n}: {counted:#?}");
        // Counts, not times: a second run gives the same numbers.
        assert_eq!(scenario(n), counted, "counts at {n} do not repeat");
    }
}
