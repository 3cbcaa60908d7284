//! Count-based guard for arena reclamation on the full write path: an
//! ever-fresh stream under `CollectPolicy::bounded_auto()` holds the intern
//! arena at O(working set), not O(batches).
//!
//! One durable system (WAL → engine → snapshot publication) maintains one
//! view per strategy over the streaming movies schema while a balanced
//! 50 %-delete stream replaces the population with ever-fresh tuples. The
//! live population stays flat, so the arena must too: collections free
//! slots, and `arena.live` after the last batch is at most twice its value
//! a quarter of the way in. The same stream under `CollectPolicy::Never`
//! ends above that bound, so the bound is not vacuous.
//!
//! The ingest also carries two checks on what the stack reports about
//! itself: one registry snapshot exports metrics from every layer
//! (`engine.`, `data.`, `serve.`, `durable.`), and the slowest trace in the
//! flight recorder tells the batch's story from `wal_append` to
//! `segment_refresh`.
//!
//! The arena, the registry and the recorder are process-wide, so this file
//! holds exactly one test: nothing else interns, records or collects while
//! it counts. No wall-clock assertion.

use nrc_durable::{DurableOptions, DurableSystem, FsyncPolicy};
use nrc_engine::{CollectPolicy, Strategy, UpdateBatch};
use nrc_workloads::{StreamConfig, StreamGen};

const MOVIES: usize = 96;
const BATCHES: usize = 80;
const BATCH_SIZE: usize = 48;

const FILTER: &str = "for x in M where x.2 == \"genre0\" union sng(x)";
const RELATED: &str = "for m in M union <m.1, for m2 in M \
     where m.1 != m2.1 && (m.2 == m2.2 || m.3 == m2.3) union sng(m2.1)>";

/// What one stream left behind.
struct Outcome {
    /// `arena.live` after batch `BATCHES / 4`.
    live_quarter: u64,
    /// `arena.live` after the last batch.
    live_end: u64,
    collections: u64,
    slots_freed: u64,
}

/// Stream `BATCHES` ever-fresh batches through a durable system under
/// `policy`. Each batch is generated, applied and dropped: a retained
/// stream would pin every payload and mask reclamation.
fn ingest(policy: CollectPolicy, tag: &str) -> Outcome {
    let dir = std::env::temp_dir().join(format!(
        "nrc-arena-reclaim-guard-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut gen = StreamGen::new(42, StreamConfig::ever_fresh(BATCH_SIZE, tag));
    let options = DurableOptions {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 0,
        ..DurableOptions::default()
    };
    let mut sys = DurableSystem::create(&dir, gen.database(MOVIES), &[], options).expect("create");
    sys.set_collect_policy(policy);
    for (name, src, strategy) in [
        ("re", FILTER, Strategy::Reevaluate),
        ("fo", FILTER, Strategy::FirstOrder),
        ("rc", FILTER, Strategy::Recursive),
        ("sh", RELATED, Strategy::Shredded),
    ] {
        sys.register_query_with(name, src, strategy)
            .expect("register");
    }
    let mut live_quarter = 0;
    for i in 1..=BATCHES {
        let batch = UpdateBatch::from_updates(gen.next_batch());
        sys.apply_batch(&batch).expect("batch");
        if i == BATCHES / 4 {
            live_quarter = sys.serving().batch_stats().arena.live;
        }
    }
    let stats = sys.serving().batch_stats().clone();
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
    Outcome {
        live_quarter,
        live_end: stats.arena.live,
        collections: stats.collections_run,
        slots_freed: stats.arena_slots_freed,
    }
}

#[test]
fn an_ever_fresh_stream_holds_the_arena_at_its_working_set() {
    let bounded = ingest(CollectPolicy::bounded_auto(), "bounded");

    // The stack explains itself: every layer exported something…
    let snap = nrc_obs::snapshot();
    for layer in ["engine.", "data.", "serve.", "durable."] {
        let exported = snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
            .filter(|name| name.starts_with(layer))
            .count();
        assert!(exported >= 1, "no `{layer}*` metric in the snapshot");
    }
    // …and the slowest batch's trace runs from the log to the refresh.
    let slowest = nrc_obs::trace::recorder().slowest(1);
    let slowest = slowest.first().expect("the recorder kept a trace");
    for stage in ["wal_append", "segment_refresh"] {
        assert!(
            slowest.spans.iter().any(|s| s.stage == stage),
            "slowest trace (batch {}) has no `{stage}` span: {:?}",
            slowest.batch_index,
            slowest.spans
        );
    }

    // One increment a batch, and they reclaim.
    assert_eq!(bounded.collections, BATCHES as u64);
    assert!(bounded.slots_freed > 0, "bounded_auto freed nothing");
    assert!(bounded.live_quarter > 0);
    // O(working set): sixty more batches of fresh tuples, no more arena.
    assert!(
        bounded.live_end <= 2 * bounded.live_quarter,
        "arena.live grew {} → {} over the last three quarters of the stream \
         ({} slots freed)",
        bounded.live_quarter,
        bounded.live_end,
        bounded.slots_freed
    );

    // Without collection the same stream is O(batches). (Two sweeps drain
    // what the dropped system left dying; value trees cascade.)
    nrc_data::intern::collect_now();
    nrc_data::intern::collect_now();
    let never = ingest(CollectPolicy::Never, "never");
    assert_eq!((never.collections, never.slots_freed), (0, 0));
    assert!(
        never.live_end > 2 * never.live_quarter,
        "uncollected arena.live {} → {}: the bound above is vacuous",
        never.live_quarter,
        never.live_end
    );
    println!(
        "arena.live, batch {} → {BATCHES}: bounded_auto {} → {} ({} slots freed), never {} → {}",
        BATCHES / 4,
        bounded.live_quarter,
        bounded.live_end,
        bounded.slots_freed,
        never.live_quarter,
        never.live_end
    );
}
