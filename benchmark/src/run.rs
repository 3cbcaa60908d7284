//! The jobs a child process runs. Every job generates its inputs from the
//! seed, drives the program through its public functions only, times the
//! calls from outside, and reports a [`Report`]. One job per process: the
//! intern arena is process-global, and a job must not inherit another's.

use crate::report::Report;
use crate::stats;
use crate::workload::{self, Inputs, Params, LATE_VIEW, READ_BLOCK};
use nrc_data::{Bag, Database};
use nrc_durable::{checkpoint, wal, DurableOptions, DurableSystem, FsyncPolicy, LogRetention};
use nrc_engine::{CollectPolicy, IvmSystem, Parallelism, UpdateBatch};
use nrc_serve::{ServingSystem, Snapshot, SnapshotReader};
use nrc_workloads::ReadOp;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How much of the stack a job drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `IvmSystem`, `CollectPolicy::Never`.
    EngineNoGc,
    /// `IvmSystem`, `CollectPolicy::bounded_auto()` as every layer above.
    Engine,
    /// `ServingSystem` with the closed-loop reader.
    Serve,
    /// `DurableSystem` with the reader: the system as the end-to-end run
    /// drives it.
    Durable,
    /// `Durable` with `nrc_obs` metrics and flight recorder switched off.
    DurableObsOff,
}

/// What one child process does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Job {
    /// Set up once and report the time: one more sample for `setup_s`.
    Setup,
    /// The untraced end-to-end run: set-up, ingest under the reader,
    /// restart operations, correctness checks.
    EndToEnd,
    /// One traced stack pass over the same stream.
    Pass(Layer),
    /// Component probes: parser, planner, codec, a scratch WAL, quiescent
    /// reads.
    Probes,
}

impl Job {
    pub const ALL: [(&'static str, Job); 8] = [
        ("setup", Job::Setup),
        ("e2e", Job::EndToEnd),
        ("engine_nogc", Job::Pass(Layer::EngineNoGc)),
        ("engine", Job::Pass(Layer::Engine)),
        ("serve", Job::Pass(Layer::Serve)),
        ("durable", Job::Pass(Layer::Durable)),
        ("durable_obs_off", Job::Pass(Layer::DurableObsOff)),
        ("probes", Job::Probes),
    ];

    pub fn name(self) -> &'static str {
        Job::ALL
            .iter()
            .find(|(_, j)| *j == self)
            .map(|(n, _)| *n)
            .expect("every job is listed")
    }

    pub fn parse(name: &str) -> Option<Job> {
        Job::ALL.iter().find(|(n, _)| *n == name).map(|(_, j)| *j)
    }
}

/// At most this many consistency samples per reader.
const MAX_SAMPLES: usize = 512;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn durable_opts(p: &Params) -> DurableOptions {
    DurableOptions {
        fsync: p.fsync,
        // The driver calls `checkpoint_now()` on the workload's cadence, so
        // that each checkpoint can be timed from outside.
        checkpoint_every: 0,
        // Every workload reports `recover_at_s` and backfills a late view,
        // and both need the history a truncating retention would delete.
        retention: LogRetention::KeepAll,
        kill: None,
    }
}

/// The system under test at one of its three heights.
enum Stack {
    Engine(Box<IvmSystem>),
    Serve(Box<ServingSystem>),
    Durable(Box<DurableSystem>),
}

/// Wall time of set-up, and of the view registrations inside it.
struct SetupTime {
    total: Duration,
    register: Duration,
}

impl Stack {
    /// Set the system up over `db`: create it, fix sequential refresh and
    /// the GC policy, and register the workload's views from text.
    fn build(
        layer: Layer,
        p: &Params,
        db: Database,
        dir: &Path,
    ) -> Result<(Stack, SetupTime), String> {
        let gc = match layer {
            Layer::EngineNoGc => CollectPolicy::Never,
            _ => CollectPolicy::bounded_auto(),
        };
        let start = Instant::now();
        let mut stack = match layer {
            Layer::EngineNoGc | Layer::Engine => Stack::Engine(Box::new(IvmSystem::new(db))),
            Layer::Serve => Stack::Serve(Box::new(
                ServingSystem::new(IvmSystem::new(db)).map_err(err("serving system"))?,
            )),
            Layer::Durable | Layer::DurableObsOff => Stack::Durable(Box::new(
                DurableSystem::create(dir, db, &[], durable_opts(p))
                    .map_err(err("create durable system"))?,
            )),
        };
        match &mut stack {
            Stack::Engine(s) => {
                s.set_parallelism(Parallelism::Sequential);
                s.set_collect_policy(gc);
            }
            Stack::Serve(s) => {
                s.set_parallelism(Parallelism::Sequential);
                s.set_collect_policy(gc);
            }
            Stack::Durable(s) => {
                s.set_parallelism(Parallelism::Sequential);
                s.set_collect_policy(gc);
            }
        }
        let registering = Instant::now();
        let mut chosen = Vec::new();
        for (name, src) in p.views {
            let plan = match &mut stack {
                Stack::Engine(s) => s.register_query(name, src).map_err(err("register view"))?,
                Stack::Serve(s) => s.register_query(name, src).map_err(err("register view"))?,
                Stack::Durable(s) => s.register_query(name, src).map_err(err("register view"))?,
            };
            chosen.push(format!("{name}={:?}", plan.chosen));
        }
        let time = SetupTime {
            total: start.elapsed(),
            register: registering.elapsed(),
        };
        eprintln!("[{}] planner picked {}", p.name, chosen.join(" "));
        Ok((stack, time))
    }

    fn apply(&mut self, batch: &UpdateBatch) -> Result<(), String> {
        match self {
            Stack::Engine(s) => s.apply_batch(batch).map_err(err("engine apply_batch")),
            Stack::Serve(s) => s.apply_batch(batch).map_err(err("serve apply_batch")),
            Stack::Durable(s) => s.apply_batch(batch).map_err(err("durable apply_batch")),
        }
    }

    /// `checkpoint_now()` where there is a durable layer; the batch index
    /// the checkpoint was written at.
    fn checkpoint(&mut self) -> Result<Option<u64>, String> {
        let Stack::Durable(s) = self else {
            return Ok(None);
        };
        s.checkpoint_now().map_err(err("checkpoint_now"))?;
        Ok(Some(s.batch_index()))
    }

    fn reader(&self) -> Option<SnapshotReader> {
        match self {
            Stack::Engine(_) => None,
            Stack::Serve(s) => Some(s.reader()),
            Stack::Durable(s) => Some(s.reader()),
        }
    }

    fn engine(&self) -> &IvmSystem {
        match self {
            Stack::Engine(s) => s,
            Stack::Serve(s) => s.engine(),
            Stack::Durable(s) => s.serving().engine(),
        }
    }

    fn views(&self, p: &Params) -> Result<Vec<(String, Bag)>, String> {
        read_views(p, |name| self.engine().view(name).map_err(err("read view")))
    }

    /// The program's own counts: the engine's GC and arena figures, and
    /// the exact counts of the layers above it.
    fn report_counts(&self, r: &mut Report) {
        let engine = self.engine().batch_stats();
        r.set("collections", engine.collections_run as f64);
        r.set("slots_freed", engine.arena_slots_freed as f64);
        r.set("collect_s", engine.collect_nanos as f64 / 1e9);
        r.set("delta_card", engine.delta_cardinality as f64);
        r.set("arena_live_end", engine.arena.live as f64);
        r.set("arena_bytes_end", engine.arena.bytes as f64);
        let serve_stats = match self {
            Stack::Engine(_) => return,
            Stack::Serve(s) => s.serve_stats(),
            Stack::Durable(s) => {
                let durable = s.durable_stats();
                r.set("wal_bytes", durable.wal_bytes as f64);
                r.set("fsync_count", durable.wal_syncs as f64);
                s.serve_stats()
            }
        };
        r.set(
            "snapshots_published",
            serve_stats.snapshots_published as f64,
        );
    }
}

/// The contents of every view of the workload, by name, through `view`.
fn read_views(
    p: &Params,
    view: impl Fn(&str) -> Result<Bag, String>,
) -> Result<Vec<(String, Bag)>, String> {
    p.views
        .iter()
        .map(|(name, _)| Ok((name.to_string(), view(name)?)))
        .collect()
}

/// The common start of every job that drives a stream: inputs from the
/// seed, the system set up at `layer`, and the reader's op list drawn from
/// the read view's initial contents.
fn start(
    layer: Layer,
    p: &Params,
    seed: u64,
    db_dir: &Path,
) -> Result<(Stack, SetupTime, Inputs, Vec<ReadOp>), String> {
    let mut inputs = Inputs::new(p, seed);
    let db = std::mem::take(&mut inputs.db);
    let (stack, setup) = Stack::build(layer, p, db, db_dir)?;
    let initial = stack.engine().view(p.read_view).map_err(err("read view"))?;
    let ops = workload::read_ops(seed, &initial);
    Ok((stack, setup, inputs, ops))
}

/// One sampled read: enough to run it again against a sequential replay.
struct Sample {
    batch_index: u64,
    op_idx: usize,
    observed: u64,
}

/// What the reader thread brings home.
#[derive(Default)]
struct ReaderOutcome {
    /// Wall time of each block of [`READ_BLOCK`] reads.
    block_ns: Vec<u64>,
    reads: u64,
    failed: u64,
    samples: Vec<Sample>,
    wall: Duration,
}

/// Order-sensitive digest of a bag's first `limit` entries.
fn scan_digest(bag: &Bag, limit: usize) -> u64 {
    let mut h = DefaultHasher::new();
    for (v, m) in bag.iter().take(limit) {
        v.to_string().hash(&mut h);
        m.hash(&mut h);
    }
    h.finish()
}

/// A read reduced to one comparable number: the multiplicity of a point
/// lookup, a digest of the visited prefix of a scan.
fn read_on_bag(bag: &Bag, op: &ReadOp) -> u64 {
    match op {
        ReadOp::Point(v) => bag.multiplicity(v) as u64,
        ReadOp::Scan { limit } => scan_digest(bag, *limit),
    }
}

fn read_on_snapshot(snap: &Snapshot, view: &str, op: &ReadOp) -> Result<u64, String> {
    snap.view(view)
        .map(|bag| read_on_bag(bag, op))
        .map_err(err("sampled read"))
}

/// When the closed-loop reader ends and how it spaces its samples.
enum ReadUntil<'a> {
    /// Alongside the writer, until it raises the flag; a consistency
    /// sample whenever the published batch index has advanced by `stride`.
    Stopped { stop: &'a AtomicBool, stride: u64 },
    /// On a quiescent system, until the deadline; a sample every
    /// `QUIESCENT_SAMPLE_BLOCKS` blocks.
    Deadline(Instant),
}

/// Blocks between consistency samples when nothing is being published.
const QUIESCENT_SAMPLE_BLOCKS: usize = 128;

/// The closed-loop reader: cycles its op list through the reader handle's
/// public `get`/`scan`, timing blocks of [`READ_BLOCK`] ops. Consistency
/// samples are taken between blocks, outside the timed spans. Adds to what
/// an earlier loop brought home in `out`.
fn reader_loop(
    mut reader: SnapshotReader,
    view: &str,
    ops: &[ReadOp],
    until: ReadUntil<'_>,
    mut out: ReaderOutcome,
) -> ReaderOutcome {
    let mut cursor = 0usize;
    let mut next_sample_at = 0u64;
    let start = Instant::now();
    let running = || match &until {
        ReadUntil::Stopped { stop, .. } => !stop.load(Ordering::Acquire),
        ReadUntil::Deadline(deadline) => Instant::now() < *deadline,
    };
    while running() {
        let t = Instant::now();
        for k in 0..READ_BLOCK {
            let ok = match &ops[(cursor + k) % ops.len()] {
                ReadOp::Point(v) => reader.get(view, v).map(|m| m as usize),
                ReadOp::Scan { limit } => reader.scan(view, *limit).map(|rows| rows.len()),
            };
            match ok {
                Ok(x) => {
                    black_box(x);
                }
                Err(_) => out.failed += 1,
            }
        }
        out.block_ns.push(nanos(t.elapsed()));
        out.reads += READ_BLOCK as u64;
        cursor = (cursor + READ_BLOCK) % ops.len();

        let sample_due = match &until {
            ReadUntil::Stopped { .. } => reader.current().batch_index() >= next_sample_at,
            ReadUntil::Deadline(_) => out.block_ns.len() % QUIESCENT_SAMPLE_BLOCKS == 1,
        };
        if out.samples.len() < MAX_SAMPLES && sample_due {
            let snap = reader.snapshot();
            let op_idx = (cursor + 7 * out.samples.len()) % ops.len();
            out.reads += 1;
            match read_on_snapshot(&snap, view, &ops[op_idx]) {
                Ok(observed) => out.samples.push(Sample {
                    batch_index: snap.batch_index(),
                    op_idx,
                    observed,
                }),
                Err(_) => out.failed += 1,
            }
            if let ReadUntil::Stopped { stride, .. } = &until {
                next_sample_at = snap.batch_index() + stride;
            }
        }
    }
    out.wall += start.elapsed();
    out
}

/// Spans and counts of the ingest phase, per batch.
#[derive(Default)]
struct Ingest {
    coalesce_ns: Vec<u64>,
    apply_ns: Vec<u64>,
    /// One entry per driver-called checkpoint.
    checkpoint_ns: Vec<u64>,
    checkpoint_bytes: u64,
    /// What a client waits per batch: coalesce + apply + cadence
    /// checkpoint in a closed loop, completion minus due time in an open
    /// loop.
    latency_ns: Vec<u64>,
    /// Open loop only: how late the generator itself started a batch.
    lag_ns: Vec<u64>,
    raw_updates: u64,
    rejected: u64,
    /// Every view's contents at `Params::recover_at`.
    state_at: Vec<(String, Bag)>,
    peak_live: u64,
    reader: ReaderOutcome,
}

impl Ingest {
    /// Σ wall of coalesce + apply + cadence checkpoint.
    fn busy_ns(&self) -> u64 {
        self.coalesce_ns.iter().sum::<u64>()
            + self.apply_ns.iter().sum::<u64>()
            + self.checkpoint_ns.iter().sum::<u64>()
    }
}

fn wait_until(due: Instant) {
    // Sleep most of the gap, then spin: a sleeping writer leaves its core
    // to the reader, and the spin keeps the start within microseconds.
    const SPIN: Duration = Duration::from_micros(300);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let gap = due - now;
        if gap > SPIN {
            std::thread::sleep(gap - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Drive the whole stream through `stack`. Where the stack publishes
/// snapshots, the closed-loop reader runs alongside the writer — or, for a
/// workload with a read phase, before and after it.
fn ingest(
    stack: &mut Stack,
    p: &Params,
    inputs: &mut Inputs,
    dir: &Path,
    ops: &[ReadOp],
) -> Result<Ingest, String> {
    if let Some(phase) = p.read_phase {
        // Half of the phase on either side of the stream: the sandbox
        // switches between two speeds every few seconds, and two spells
        // some seconds apart see more of the mixture than one. Each half
        // takes a handle of its own and drops it: a handle caches a
        // snapshot whose epoch pin holds the GC horizon, so one left idle
        // over the stream would keep GC from freeing anything during it.
        let half = |stack: &Stack, read: ReaderOutcome| match stack.reader() {
            Some(r) => {
                let until = ReadUntil::Deadline(Instant::now() + phase / 2);
                reader_loop(r, p.read_view, ops, until, read)
            }
            None => read,
        };
        let read = half(stack, ReaderOutcome::default());
        let mut ing = write_stream(stack, p, inputs, dir)?;
        ing.reader = half(stack, read);
        return Ok(ing);
    }
    let reader = stack.reader();
    let stop = AtomicBool::new(false);
    let stride = (p.batches / MAX_SAMPLES as u64).max(1);
    std::thread::scope(|scope| {
        let reader_thread = reader.map(|r| {
            let until = ReadUntil::Stopped {
                stop: &stop,
                stride,
            };
            scope.spawn(move || reader_loop(r, p.read_view, ops, until, ReaderOutcome::default()))
        });
        let written = write_stream(stack, p, inputs, dir);
        stop.store(true, Ordering::Release);
        let outcome = match reader_thread {
            Some(t) => t.join().map_err(|_| "reader thread panicked".to_string())?,
            None => ReaderOutcome::default(),
        };
        let mut ing = written?;
        ing.reader = outcome;
        Ok(ing)
    })
}

fn write_stream(
    stack: &mut Stack,
    p: &Params,
    inputs: &mut Inputs,
    dir: &Path,
) -> Result<Ingest, String> {
    let mut ing = Ingest::default();
    let start = Instant::now() + Duration::from_millis(2);
    let mut prev_end = start;
    for i in 1..=p.batches {
        let raw = inputs.next_batch();
        ing.raw_updates += raw.len() as u64;
        let due = p.period.map(|period| start + period * (i - 1) as u32);
        if let Some(due) = due {
            wait_until(due);
        }
        let t0 = Instant::now();
        if let Some(due) = due {
            ing.lag_ns.push(nanos(t0 - due.max(prev_end).min(t0)));
        }
        let batch = UpdateBatch::from_updates(raw);
        let t1 = Instant::now();
        if stack.apply(black_box(&batch)).is_err() {
            // A rejected batch poisons a durable system; nothing after it
            // can be applied, so the stream ends here and the run fails.
            ing.rejected += 1;
            break;
        }
        let t2 = Instant::now();
        let mut end = t2;
        let mut checkpointed = None;
        if p.checkpoints.contains(&i) {
            checkpointed = stack.checkpoint()?;
            if checkpointed.is_some() {
                end = Instant::now();
                ing.checkpoint_ns.push(nanos(end - t2));
            }
        }
        ing.coalesce_ns.push(nanos(t1 - t0));
        ing.apply_ns.push(nanos(t2 - t1));
        ing.latency_ns.push(nanos(end - due.unwrap_or(t0)));
        prev_end = end;

        // Untimed bookkeeping.
        if let Some(index) = checkpointed {
            let path = dir.join(checkpoint::file_name(index));
            ing.checkpoint_bytes += std::fs::metadata(&path)
                .map_err(err("stat checkpoint"))?
                .len();
        }
        ing.peak_live = ing.peak_live.max(stack.engine().batch_stats().arena.live);
        if i == p.recover_at {
            ing.state_at = stack.views(p)?;
        }
    }
    Ok(ing)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latency scalars shared by the end-to-end run and the traced passes.
fn report_ingest(r: &mut Report, ing: &Ingest) {
    let busy_s = ing.busy_ns() as f64 / 1e9;
    let p50 = stats::pick(&ing.latency_ns, 50.0);
    let p95 = stats::pick(&ing.latency_ns, 95.0);
    r.set("batches", ing.apply_ns.len() as f64);
    r.set("raw_updates", ing.raw_updates as f64);
    r.set("batch_wall_s", busy_s);
    r.set(
        "ingest_updates_per_s",
        ing.raw_updates as f64 / busy_s.max(1e-12),
    );
    r.set("batch_p50_ms", p50.value / 1e6);
    r.set("batch_p95_ms", p95.value / 1e6);
    r.set("batch_tail_percentile", p95.percentile);
    r.set("batch_samples", p95.n as f64);
    let per_op: Vec<u64> = ing
        .reader
        .block_ns
        .iter()
        .map(|b| stats::per_op(*b as f64, READ_BLOCK).round() as u64)
        .collect();
    let r50 = stats::pick(&per_op, 50.0);
    let r99 = stats::pick(&per_op, 99.0);
    let read_wall = ing.reader.wall.as_secs_f64();
    r.set("reads", ing.reader.reads as f64);
    r.set(
        "reads_per_s",
        ing.reader.reads as f64 / read_wall.max(1e-12),
    );
    r.set("read_p50_us", r50.value / 1e3);
    r.set("read_p99_us", r99.value / 1e3);
    r.set("read_tail_percentile", r99.percentile);
    r.set("read_blocks", r99.n as f64);
    r.set("read_failed", ing.reader.failed as f64);
    r.set("rejected_batches", ing.rejected as f64);
    r.set("checkpoint_count", ing.checkpoint_ns.len() as f64);
    r.set("checkpoint_bytes", ing.checkpoint_bytes as f64);
    r.set(
        "sched_lag_p99_ms",
        stats::pick(&ing.lag_ns, 99.0).value / 1e6,
    );
}

/// Compare two sets of named view contents; the number that differ.
fn mismatches(what: &str, got: &[(String, Bag)], want: &[(String, Bag)]) -> u64 {
    let mut bad = 0;
    for (name, bag) in want {
        let same = got.iter().any(|(n, b)| n == name && b == bag);
        if !same {
            eprintln!("MISMATCH {what}: view {name} differs");
            bad += 1;
        }
    }
    bad
}

/// Re-run every sampled read against one sequential replay of the same
/// stream, evaluated at the batch index the sample was taken at.
fn check_samples(
    p: &Params,
    seed: u64,
    ops: &[ReadOp],
    samples: &mut [Sample],
) -> Result<u64, String> {
    samples.sort_by_key(|s| s.batch_index);
    let mut inputs = Inputs::new(p, seed);
    let db = std::mem::take(&mut inputs.db);
    let mut replay = IvmSystem::new(db);
    replay.set_parallelism(Parallelism::Sequential);
    let (_, src) = p
        .views
        .iter()
        .find(|(n, _)| *n == p.read_view)
        .expect("the read view is one of the workload's views");
    replay
        .register_query(p.read_view, src)
        .map_err(err("replay register"))?;
    let mut bad = 0;
    let mut at = 0u64;
    let mut pending = samples.iter().peekable();
    while let Some(next) = pending.peek() {
        while at < next.batch_index {
            let batch = UpdateBatch::from_updates(inputs.next_batch());
            replay.apply_batch(&batch).map_err(err("replay batch"))?;
            at += 1;
        }
        let state = replay.view(p.read_view).map_err(err("replay view"))?;
        while let Some(s) = pending.next_if(|s| s.batch_index == at) {
            if read_on_bag(&state, &ops[s.op_idx]) != s.observed {
                eprintln!(
                    "MISMATCH sampled read: op {} at batch {}",
                    s.op_idx, s.batch_index
                );
                bad += 1;
            }
        }
    }
    Ok(bad)
}

/// Time one `backfill_query` of the late view on `sys` and check what it
/// built: the backfilled history, folded from nothing, must end at the late
/// view evaluated afresh over the final database. Returns the wall time of
/// the call in seconds and `(checks attempted, checks failed)`.
fn backfill_checked(sys: &mut DurableSystem, batches: u64) -> Result<(f64, (u64, u64)), String> {
    let (late_name, late_src) = LATE_VIEW;
    let t = Instant::now();
    let backfill = sys
        .backfill_query(late_name, late_src)
        .map_err(err("backfill_query"))?;
    let backfill_s = t.elapsed().as_secs_f64();
    let late_live = sys.view(late_name).map_err(err("late view"))?;
    let history = backfill.feed.drain();

    let mut fresh = IvmSystem::new(sys.serving().engine().database().clone());
    fresh
        .register_query(late_name, late_src)
        .map_err(err("fresh late view"))?;
    let late_fresh = fresh.view(late_name).map_err(err("fresh late view"))?;
    let mut folded = Bag::empty();
    for d in &history {
        folded.union_assign(&d.delta);
    }
    let checks = [
        (
            "backfilled view ≡ fresh evaluation",
            late_live == late_fresh,
        ),
        (
            "Σ backfilled deltas ≡ fresh evaluation",
            folded == late_fresh,
        ),
        (
            "backfill replayed the whole stream",
            history.len() as u64 == batches + 1,
        ),
    ];
    let mut failed = 0;
    for (what, ok) in checks {
        if !ok {
            eprintln!("MISMATCH {what}");
            failed += 1;
        }
    }
    Ok((backfill_s, (checks.len() as u64, failed)))
}

/// The restart operations of the end-to-end run and their checks. Returns
/// `(operations attempted, operations failed)`.
///
/// `recover` and `recover_at` alternate for `Params::restart_rounds` rounds
/// and each metric is the mean over the rounds: the sandbox switches
/// between two speeds every few seconds, so calls bunched into one second
/// see one speed, and calls spread over the phase see the mixture.
fn restart_phase(
    r: &mut Report,
    p: &Params,
    dir: &Path,
    live_views: &[(String, Bag)],
    state_at: &[(String, Bag)],
) -> Result<(u64, u64), String> {
    let opts = durable_opts(p);
    let views_of =
        |sys: &DurableSystem| read_views(p, |name| sys.view(name).map_err(err("recovered view")));
    let (mut recover_s, mut recover_at_s) = (Vec::new(), Vec::new());
    let mut failed = 0;
    for round in 0..p.restart_rounds {
        let t = Instant::now();
        let (sys, stats) = DurableSystem::recover(dir, opts.clone()).map_err(err("recover"))?;
        recover_s.push(t.elapsed().as_secs_f64());
        if round == 0 {
            r.set("recover_batches_replayed", stats.batches_replayed as f64);
            failed += mismatches("recovered ≡ live", &views_of(&sys)?, live_views);
        }
        drop(sys);

        let t = Instant::now();
        let (sys, stats) = DurableSystem::recover_at(dir, p.recover_at, opts.clone())
            .map_err(err("recover_at"))?;
        recover_at_s.push(t.elapsed().as_secs_f64());
        if round == 0 {
            r.set("recover_at_batches_replayed", stats.batches_replayed as f64);
            failed += mismatches(
                "recover_at ≡ state at that batch",
                &views_of(&sys)?,
                state_at,
            );
        }
    }
    r.set("restart_rounds", p.restart_rounds as f64);
    r.set("recover_s", stats::mean(&recover_s));
    r.set("recover_at_s", stats::mean(&recover_at_s));
    // `peak_rss_mb` covers set-up, ingest and the restart rounds, and none
    // of the checks below.
    r.set("peak_rss_mb", peak_rss_mb());

    // Backfill registers its view durably, so it runs once, after every
    // timed recover. The traced run times it (`durable.backfill.busy_s`).
    let (mut sys, _) = DurableSystem::recover(dir, opts).map_err(err("recover"))?;
    let (_, (backfill_checks, backfill_failed)) = backfill_checked(&mut sys, p.batches)?;
    let views = p.views.len() as u64;
    let attempted = 2 * p.restart_rounds + 2 * views + backfill_checks;
    Ok((attempted, failed + backfill_failed))
}

/// Run `job` for `(p, seed)` with durable files under `dir`.
pub fn run(job: Job, p: &Params, seed: u64, dir: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(dir).map_err(err("create scratch dir"))?;
    match job {
        Job::Setup => {
            let inputs = Inputs::new(p, seed);
            let (_stack, time) = Stack::build(Layer::Durable, p, inputs.db, &dir.join("db"))?;
            let mut r = Report::default();
            r.set("setup_s", time.total.as_secs_f64());
            Ok(r)
        }
        Job::EndToEnd => end_to_end(p, seed, dir),
        Job::Pass(layer) => pass(layer, p, seed, dir),
        Job::Probes => probes(p, seed, dir),
    }
}

fn end_to_end(p: &Params, seed: u64, dir: &Path) -> Result<Report, String> {
    let db_dir = dir.join("db");
    let (mut stack, setup, mut inputs, ops) = start(Layer::Durable, p, seed, &db_dir)?;
    let mut ing = ingest(&mut stack, p, &mut inputs, &db_dir, &ops)?;
    let mut r = Report::default();
    r.set("setup_s", setup.total.as_secs_f64());
    report_ingest(&mut r, &ing);
    stack.report_counts(&mut r);
    r.set(
        "disk_bytes_per_update",
        (r.get("wal_bytes") + ing.checkpoint_bytes as f64) / (ing.raw_updates as f64).max(1.0),
    );

    let live_views = stack.views(p)?;
    let final_db = stack.engine().database().clone();
    drop(stack); // the "crash": nothing is flushed beyond what the policy did
    let mut attempted = p.batches + ing.reader.reads;
    let mut failed = ing.rejected + ing.reader.failed;
    let (ops_attempted, ops_failed) =
        restart_phase(&mut r, p, &db_dir, &live_views, &ing.state_at)?;
    attempted += ops_attempted;
    failed += ops_failed;

    // Final views ≡ a fresh engine registered over the final database.
    let mut fresh = IvmSystem::new(final_db);
    for (name, src) in p.views {
        fresh
            .register_query(name, src)
            .map_err(err("fresh register"))?;
    }
    let fresh_views = read_views(p, |name| fresh.view(name).map_err(err("fresh view")))?;
    failed += mismatches("final views ≡ fresh evaluation", &live_views, &fresh_views);
    attempted += p.views.len() as u64;
    drop(fresh);

    r.set("samples_checked", ing.reader.samples.len() as f64);
    failed += check_samples(p, seed, &ops, &mut ing.reader.samples)?;
    r.set("attempted", attempted as f64);
    r.set("failed", failed as f64);
    Ok(r)
}

/// One traced stack pass: the same stream through `layer`, with a span
/// around every call into it.
fn pass(layer: Layer, p: &Params, seed: u64, dir: &Path) -> Result<Report, String> {
    if layer == Layer::DurableObsOff {
        nrc_obs::set_enabled(false);
        nrc_obs::trace::set_active(false);
    }
    let db_dir = dir.join("db");
    let (mut stack, setup, mut inputs, ops) = start(layer, p, seed, &db_dir)?;

    let ing = ingest(&mut stack, p, &mut inputs, &db_dir, &ops)?;
    let mut r = Report::default();
    r.set("setup_s", setup.total.as_secs_f64());
    r.set("register_s", setup.register.as_secs_f64());
    report_ingest(&mut r, &ing);
    stack.report_counts(&mut r);
    r.set("peak_live", ing.peak_live as f64);
    if layer == Layer::Durable {
        recorder_cross_check(&mut r, &ing);
        drop(stack);
        recover_probes(&mut r, p, &db_dir)?;
    }
    r.set_series("coalesce_ns", ing.coalesce_ns);
    r.set_series("apply_ns", ing.apply_ns);
    r.set_series("checkpoint_ns", ing.checkpoint_ns);
    Ok(r)
}

/// Read-only cross-check of the program's own flight recorder: over the
/// batches its ring still holds, the share of the outside `apply_batch`
/// wall time that the recorder's stage spans do not account for.
fn recorder_cross_check(r: &mut Report, ing: &Ingest) {
    // `fsync` nests inside `wal_append`, so it is not added again.
    const STAGES: [&str; 4] = ["wal_append", "segment_refresh", "gc", "publish"];
    let (mut outside, mut inside) = (0u64, 0u64);
    for trace in nrc_obs::trace::recorder().dump() {
        let Some(wall) = (trace.batch_index as usize)
            .checked_sub(1)
            .and_then(|i| ing.apply_ns.get(i))
        else {
            continue;
        };
        outside += wall;
        inside += trace
            .spans
            .iter()
            .filter(|s| STAGES.contains(&s.stage.as_str()))
            .map(|s| s.nanos)
            .sum::<u64>();
    }
    let residual = if outside == 0 {
        0.0
    } else {
        (outside as f64 - inside as f64) / outside as f64
    };
    r.set("recorder_residual_share", residual);
}

/// Time the parts of recovery through their own public functions: newest
/// checkpoint load, log-suffix scan, and the whole `recover`; replay is
/// the remainder. Then one `backfill_query` on the recovered instance.
fn recover_probes(r: &mut Report, p: &Params, dir: &Path) -> Result<(), String> {
    let t = Instant::now();
    let scan = checkpoint::load_newest(dir).map_err(err("load_newest"))?;
    let load_s = t.elapsed().as_secs_f64();
    let from = scan.newest.as_ref().map_or(0, |(c, _)| c.batch_index);
    drop(scan);

    let segments = wal::list_segments(dir).map_err(err("list_segments"))?;
    let start = segments
        .iter()
        .rposition(|(base, _)| *base <= from)
        .unwrap_or(0);
    let t = Instant::now();
    for (base, path) in &segments[start..] {
        black_box(wal::scan(path, *base).map_err(err("wal scan"))?);
    }
    let scan_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (mut sys, stats) = DurableSystem::recover(dir, durable_opts(p)).map_err(err("recover"))?;
    let total_s = t.elapsed().as_secs_f64();
    let (backfill_s, _) = backfill_checked(&mut sys, p.batches)?;
    drop(sys);
    r.set("recover_checkpoint_load_s", load_s);
    r.set("recover_wal_scan_s", scan_s);
    r.set("recover_replay_s", (total_s - load_s - scan_s).max(0.0));
    r.set("recover_batches_replayed", stats.batches_replayed as f64);
    r.set("backfill_s", backfill_s);
    Ok(())
}

/// Median wall time of `f`, in nanoseconds, over `n` calls.
fn median_ns(n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<u64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            nanos(t.elapsed())
        })
        .collect();
    stats::percentile(&samples, 50.0)
}

/// Component probes: public functions of single layers, timed directly on
/// the same seeded batches.
fn probes(p: &Params, seed: u64, dir: &Path) -> Result<Report, String> {
    let mut r = Report::default();
    let mut inputs = Inputs::new(p, seed);
    let db = std::mem::take(&mut inputs.db);

    // Parser and planner, per registered view text.
    let decls: Vec<nrc_parser::RelationDecl> = db
        .relation_names()
        .map(|rel| nrc_parser::RelationDecl {
            name: rel.clone(),
            elem_ty: db.schema(rel).expect("listed relation").clone(),
            names: nrc_parser::NameTree::None,
        })
        .collect();
    let (mut parse_ns, mut plan_ns) = (0.0, 0.0);
    for (name, src) in p.views {
        nrc_parser::parse_expr(src, &decls).map_err(err("parse view"))?;
        let parse = median_ns(9, || {
            black_box(nrc_parser::parse_expr(black_box(src), &decls).is_ok());
        });
        let both = median_ns(9, || {
            let plan = nrc_engine::parse_and_plan(name, src, &db, nrc_engine::DEFAULT_UPDATE_CARD);
            black_box(plan.is_ok());
        });
        parse_ns += parse;
        plan_ns += (both - parse).max(0.0);
    }
    r.set("parse_ms", parse_ns / 1e6);
    r.set("plan_ms", plan_ns / 1e6);

    // The stream through a serving system with no reader attached, so the
    // snapshot refresh a reader pays after each publish is timed alone.
    let (mut stack, _) = Stack::build(Layer::Serve, p, db, dir)?;
    let initial = stack.engine().view(p.read_view).map_err(err("read view"))?;
    let ops = workload::read_ops(seed, &initial);
    drop(initial);
    let mut reader = stack.reader().expect("a serving system has readers");
    let wal_path: PathBuf = dir.join("probe.nrcwal");
    let mut scratch_wal =
        wal::Wal::create(&wal_path, 0, FsyncPolicy::Never, None).map_err(err("scratch wal"))?;
    let (mut encode_ns, mut decode_ns, mut append_ns, mut fsync_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut codec_bytes, mut raw_updates) = (0u64, 0u64);
    let mut refresh_ns = Vec::with_capacity(p.batches as usize);
    let mut buf = Vec::new();
    for i in 1..=p.batches {
        let raw = inputs.next_batch();
        raw_updates += raw.len() as u64;
        let batch = UpdateBatch::from_updates(raw);
        for (_, delta) in batch.segments() {
            buf.clear();
            let t = Instant::now();
            nrc_data::codec::encode_bag(delta, &mut buf);
            encode_ns += nanos(t.elapsed());
            codec_bytes += buf.len() as u64;
            let t = Instant::now();
            let mut rd = nrc_data::codec::Reader::new(&buf);
            let decoded = nrc_data::codec::decode_bag(&mut rd).map_err(err("decode delta"))?;
            decode_ns += nanos(t.elapsed());
            if decoded != *delta {
                return Err("codec round trip changed a delta".to_string());
            }
        }
        let t = Instant::now();
        scratch_wal
            .append(i, &batch)
            .map_err(err("scratch append"))?;
        append_ns += nanos(t.elapsed());
        let sync_due = match p.fsync {
            FsyncPolicy::EveryBatch => true,
            FsyncPolicy::EveryN(n) => n > 0 && i % n == 0,
            FsyncPolicy::Never => false,
        };
        if sync_due {
            let t = Instant::now();
            scratch_wal.sync().map_err(err("scratch sync"))?;
            fsync_ns += nanos(t.elapsed());
        }
        stack.apply(&batch)?;
        let t = Instant::now();
        black_box(reader.current().batch_index());
        refresh_ns.push(nanos(t.elapsed()));
    }
    r.set("codec_encode_s", encode_ns as f64 / 1e9);
    r.set("codec_decode_s", decode_ns as f64 / 1e9);
    r.set(
        "codec_bytes_per_update",
        codec_bytes as f64 / (raw_updates as f64).max(1.0),
    );
    r.set("wal_append_s", append_ns as f64 / 1e9);
    r.set("fsync_s", fsync_ns as f64 / 1e9);
    r.set("read_refresh_ns_p50", stats::percentile(&refresh_ns, 50.0));

    // Quiescent reads: one thread, the final snapshot, nothing publishing.
    let snap = reader.snapshot();
    let time_ops = |want_point: bool| -> f64 {
        let chosen: Vec<&ReadOp> = ops
            .iter()
            .filter(|op| matches!(op, ReadOp::Point(_)) == want_point)
            .collect();
        if chosen.is_empty() {
            return 0.0;
        }
        let per_round = median_ns(101, || {
            for op in &chosen {
                match op {
                    ReadOp::Point(v) => {
                        black_box(snap.get(p.read_view, v).is_ok());
                    }
                    ReadOp::Scan { limit } => {
                        black_box(snap.scan(p.read_view, *limit).is_ok());
                    }
                }
            }
        });
        per_round / chosen.len() as f64
    };
    r.set("read_point_ns_p50", time_ops(true));
    r.set("read_scan_ns_p50", time_ops(false));
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts that must repeat exactly for one `(workload, seed)`.
    const EXACT: [&str; 6] = [
        "raw_updates",
        "wal_bytes",
        "fsync_count",
        "snapshots_published",
        "checkpoint_count",
        "checkpoint_bytes",
    ];

    fn end_to_end_at_one_second(workload: &str, seed: u64, tag: &str) -> Report {
        let p = workload::params(workload, 1).expect("known workload");
        let dir = std::env::temp_dir().join(format!(
            "nrc-benchmark-test-{}-{workload}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let report = run(Job::EndToEnd, &p, seed, &dir).expect("end-to-end job");
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
        report
    }

    #[test]
    fn same_seed_same_exact_counts_and_another_seed_still_passes() {
        for workload in ["restart", "nested_shredded"] {
            let a = end_to_end_at_one_second(workload, 5, "a");
            let b = end_to_end_at_one_second(workload, 5, "b");
            let c = end_to_end_at_one_second(workload, 6, "c");
            for key in EXACT {
                assert!(a.get(key) > 0.0, "{workload}: {key} is counted");
                assert_eq!(a.get(key), b.get(key), "{workload}: {key} repeats per seed");
            }
            assert_ne!(
                a.get("wal_bytes"),
                c.get("wal_bytes"),
                "{workload}: another seed gives another stream"
            );
            for r in [&a, &b, &c] {
                // No idle reader pins the GC horizon during ingest, on the
                // workload with a read phase either.
                assert!(r.get("slots_freed") > 0.0, "{workload}: GC frees slots");
                assert_eq!(r.get("failed"), 0.0, "{workload}: every check passes");
                assert!(r.get("attempted") >= r.get("reads") + r.get("batches"));
                assert!(r.get("samples_checked") > 0.0);
            }
        }
    }

    #[test]
    fn a_wrong_read_is_caught_by_the_replay() {
        let p = workload::params("restart", 1).unwrap();
        let mut inputs = Inputs::new(&p, 9);
        let db = std::mem::take(&mut inputs.db);
        let mut sys = IvmSystem::new(db);
        let (_, src) = p.views.iter().find(|(n, _)| *n == p.read_view).unwrap();
        sys.register_query(p.read_view, src).unwrap();
        let ops = workload::read_ops(9, &sys.view(p.read_view).unwrap());
        let batch = UpdateBatch::from_updates(inputs.next_batch());
        sys.apply_batch(&batch).unwrap();
        let state = sys.view(p.read_view).unwrap();
        let mut samples: Vec<Sample> = (0..8)
            .map(|op_idx| Sample {
                batch_index: 1,
                op_idx,
                observed: read_on_bag(&state, &ops[op_idx]),
            })
            .collect();
        assert_eq!(check_samples(&p, 9, &ops, &mut samples).unwrap(), 0);
        samples[3].observed ^= 1;
        assert_eq!(check_samples(&p, 9, &ops, &mut samples).unwrap(), 1);
    }

    #[test]
    fn job_names_round_trip() {
        for (name, job) in Job::ALL {
            assert_eq!(Job::parse(name), Some(job));
            assert_eq!(job.name(), name);
        }
        assert_eq!(Job::parse("nope"), None);
    }
}
