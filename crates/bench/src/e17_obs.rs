//! E17 — instrumentation overhead and the flight recorder: what does the
//! unified observability layer (`nrc-obs`) cost on the hot ingest path,
//! and can its per-batch stage timelines isolate a pathological batch?
//!
//! Two measurements:
//!
//! 1. **Overhead.** The identical durable ingest workload (WAL under
//!    `EveryN(16)`, one text-registered filter view — the E12/E13 serve
//!    regime without reader noise) is replayed twice per rep: once with
//!    the registry and flight recorder disabled (`nrc_obs::set_enabled`
//!    and `trace::set_active` both off — every site reduces to one
//!    branch) and once fully instrumented. Min-of-reps on both sides
//!    (noise only ever inflates a run), then
//!    `instrumentation_overhead_pct = ⌈100·min_on/min_off⌉ − 100`,
//!    floored at 0. CI's `obs-smoke` job gates this scalar at ≤ 5 via
//!    `results/obs_budget.json`.
//!
//! 2. **Flight recorder demo.** A fresh instrumented ingest with one
//!    deliberately oversized batch ([`SLOW_FACTOR`] normal batches
//!    merged) at a known durable index. The recorder's slowest trace must
//!    be exactly that batch, and its span list is the per-stage story
//!    (`wal_append` → `segment_refresh`* → `publish`) the report carries
//!    verbatim. After the demo, one [`nrc_obs::snapshot`] on the live
//!    [`DurableSystem`] must export metrics from every layer — `engine.*`,
//!    `data.*`, `serve.*`, `durable.*` — which [`layer_coverage`] checks
//!    by prefix.
//!
//! The harness writes `results/e17_obs.json` (the gated report) and
//! `results/e17_metrics.json` (the full metrics snapshot, the
//! all-layers-in-one-export artifact).

use crate::report::{fmt_us, Table};
use nrc_durable::{DurableOptions, DurableSystem, FsyncPolicy};
use nrc_engine::UpdateBatch;
use nrc_workloads::{RecoveryPlan, StreamConfig};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// Sweep parameters: `(initial cardinality, batches, batch size)` — the
/// E12 serve-mix sizing.
pub fn sizes(quick: bool) -> (usize, usize, usize) {
    if quick {
        (96, 16, 48)
    } else {
        (256, 48, 128)
    }
}

/// Timed replays per side; the report keeps the min (noise is one-sided).
pub const REPS: usize = 3;

/// Normal batches merged into the demo's deliberately slow batch.
pub const SLOW_FACTOR: usize = 8;

/// The view both passes maintain (text registration, so the planner and
/// EWMA paths are on the measured path too). The movie tuple is
/// `⟨name, gen, dir⟩` and projections are 1-based: `x.2` is the genre.
const VIEW_NAME: &str = "hot";
const VIEW_SRC: &str = "for x in M where x.2 == \"genre0\" union sng(x)";

/// Post-ingest timed reads of the demo (populates `serve.read.ns`).
const DEMO_READS: usize = 256;

/// One timed ingest replay.
#[derive(Clone, Debug, Serialize)]
pub struct ObsPass {
    /// Instrumentation on?
    pub instrumented: bool,
    /// Rep number (0-based).
    pub rep: usize,
    /// Total ingest wall time, µs.
    pub ingest_total_us: f64,
}

/// One stage of the slowest trace's timeline.
#[derive(Clone, Debug, Serialize)]
pub struct StageRow {
    /// Stage name (`wal_append` / `coalesce` / `segment_refresh` / `gc` /
    /// `publish` / `fsync` / `checkpoint`).
    pub stage: String,
    /// Site-specific detail (`bytes=…`, `rel card=…`, …).
    pub tag: String,
    /// Stage wall time, µs.
    pub us: f64,
}

/// The full E17 outcome: the gated overhead scalar, the per-pass timings,
/// the snapshot coverage summary and the slowest trace's timeline.
#[derive(Clone, Debug, Serialize)]
pub struct ObsReport {
    /// Ran at quick sizes?
    pub quick: bool,
    /// Initial relation cardinality.
    pub n: usize,
    /// Durable batches per replay.
    pub batches: usize,
    /// Raw updates per batch.
    pub batch_size: usize,
    /// Timed replays per side.
    pub reps: usize,
    /// `⌈100·min_on/min_off⌉ − 100`, floored at 0 — the scalar
    /// `results/obs_budget.json` gates at ≤ 5 in CI.
    pub instrumentation_overhead_pct: u64,
    /// Fastest obs-disabled replay, µs.
    pub ingest_min_us_disabled: f64,
    /// Fastest instrumented replay, µs.
    pub ingest_min_us_enabled: f64,
    /// Metrics the post-demo registry snapshot exported.
    pub metrics_exported: usize,
    /// Layer prefixes present in the snapshot (acceptance: all of
    /// `engine`, `data`, `serve`, `durable`).
    pub layers_covered: Vec<String>,
    /// Durable index of the deliberately oversized demo batch.
    pub slow_batch_index: u64,
    /// Durable index of the recorder's slowest trace (must equal
    /// `slow_batch_index`).
    pub slowest_trace_index: u64,
    /// The slowest trace's total wall time, µs.
    pub slowest_trace_total_us: f64,
    /// The slowest trace's per-stage timeline.
    pub slowest_stages: Vec<StageRow>,
    /// Cardinality of the maintained view after the demo ingest (0 would
    /// mean instrumentation was priced on a view that never changes).
    pub view_cardinality: u64,
    /// Every timed replay.
    pub passes: Vec<ObsPass>,
}

/// A scratch durable directory unique to (process, tag), removed when the
/// pass is done.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nrc-e17-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn drain_garbage() {
    nrc_data::intern::collect_now();
    nrc_data::intern::collect_now();
}

/// One timed replay of the shared plan with instrumentation `on` or off.
/// Measures the durable ingest loop only (creation, registration and
/// directory teardown are outside the clock).
fn ingest_pass(plan: &RecoveryPlan, on: bool, tag: &str) -> f64 {
    nrc_obs::set_enabled(on);
    nrc_obs::trace::set_active(on);
    let dir = scratch_dir(tag);
    let mut sys = DurableSystem::create(
        &dir,
        plan.db.clone(),
        &[],
        DurableOptions {
            fsync: FsyncPolicy::EveryN(16),
            checkpoint_every: 0,
            ..DurableOptions::default()
        },
    )
    .expect("create durable system");
    sys.register_query(VIEW_NAME, VIEW_SRC)
        .expect("register view");
    let start = Instant::now();
    for batch in &plan.batches {
        sys.apply_batch(&UpdateBatch::from_updates(batch.iter().cloned()))
            .expect("durable batch");
    }
    let total_us = start.elapsed().as_nanos() as f64 / 1e3;
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
    total_us
}

/// The layer prefixes (`engine` / `data` / `serve` / `durable`) present
/// among a snapshot's metric names.
pub fn layer_coverage(snap: &nrc_obs::MetricsSnapshot) -> Vec<String> {
    let mut layers = Vec::new();
    for layer in ["engine", "data", "serve", "durable"] {
        let prefix = format!("{layer}.");
        let hit = snap.counters.keys().any(|k| k.starts_with(&prefix))
            || snap.gauges.keys().any(|k| k.starts_with(&prefix))
            || snap.histograms.keys().any(|k| k.starts_with(&prefix));
        if hit {
            layers.push(layer.to_string());
        }
    }
    layers
}

/// What the flight-recorder demo brought home.
struct DemoOutcome {
    slow_batch_index: u64,
    slowest_trace_index: u64,
    slowest_trace_total_us: f64,
    slowest_stages: Vec<StageRow>,
    view_cardinality: u64,
    metrics_exported: usize,
    layers_covered: Vec<String>,
}

/// Fully instrumented demo ingest: merge [`SLOW_FACTOR`] consecutive
/// batches into one at a known durable index, then ask the recorder for
/// its slowest trace and the registry for an all-layer snapshot.
fn demo(plan: &RecoveryPlan, nbatches: usize) -> DemoOutcome {
    nrc_obs::set_enabled(true);
    nrc_obs::trace::set_active(true);
    nrc_obs::trace::recorder().clear();
    let dir = scratch_dir("demo");
    let mut sys = DurableSystem::create(
        &dir,
        plan.db.clone(),
        &[],
        DurableOptions {
            fsync: FsyncPolicy::EveryN(16),
            checkpoint_every: 0,
            ..DurableOptions::default()
        },
    )
    .expect("create durable system");
    sys.register_query(VIEW_NAME, VIEW_SRC)
        .expect("register view");

    // The slow batch sits mid-stream: `SLOW_FACTOR` generated batches
    // merged into one durable batch (the surrounding ones stay normal).
    let slow_at = (nbatches / 2).max(1);
    let mut slow_batch_index = 0u64;
    let mut i = 0usize;
    while i < plan.batches.len() {
        let mut updates: Vec<_> = plan.batches[i].clone();
        if i + 1 == slow_at {
            let end = (i + SLOW_FACTOR).min(plan.batches.len());
            for extra in &plan.batches[i + 1..end] {
                updates.extend(extra.iter().cloned());
            }
            i = end;
            slow_batch_index = sys.batch_index() + 1;
        } else {
            i += 1;
        }
        sys.apply_batch(&UpdateBatch::from_updates(updates))
            .expect("durable batch");
    }
    // Slowest trace: dump right after ingest (the ring is global and
    // bounded — waiting invites concurrent eviction) and scan it
    // ourselves — among the demo's own index range, keep the slowest
    // WAL-bearing trace.
    let traces = nrc_obs::trace::recorder().dump();
    // Exercise the remaining instrumented surfaces so the snapshot
    // covers them: an explicit checkpoint and a burst of timed reads.
    sys.checkpoint_now().expect("checkpoint");
    let mut reader = sys.reader();
    let mut view_cardinality = 0;
    for _ in 0..DEMO_READS {
        view_cardinality = reader.cardinality(VIEW_NAME).expect("timed read");
        let _ = reader.scan(VIEW_NAME, 16).expect("timed read");
    }
    let slowest = traces
        .iter()
        .filter(|t| t.batch_index >= 1 && t.batch_index <= sys.batch_index())
        .filter(|t| t.spans.iter().any(|s| s.stage == "wal_append"))
        .max_by_key(|t| t.total_nanos);
    let (slowest_trace_index, slowest_trace_total_us, slowest_stages) = match slowest {
        Some(t) => (
            t.batch_index,
            t.total_nanos as f64 / 1e3,
            t.spans
                .iter()
                .map(|s| StageRow {
                    stage: s.stage.clone(),
                    tag: s.tag.clone(),
                    us: s.nanos as f64 / 1e3,
                })
                .collect(),
        ),
        None => (0, 0.0, Vec::new()),
    };

    // The acceptance snapshot: one registry export while the durable
    // system is still live must cover every layer.
    let snap = nrc_obs::snapshot();
    let metrics_exported = snap.counters.len() + snap.gauges.len() + snap.histograms.len();
    let layers_covered = layer_coverage(&snap);

    drop(reader);
    drop(sys);
    let _ = std::fs::remove_dir_all(&dir);
    DemoOutcome {
        slow_batch_index,
        slowest_trace_index,
        slowest_trace_total_us,
        slowest_stages,
        view_cardinality,
        metrics_exported,
        layers_covered,
    }
}

/// Run the measurements (the harness writes the report to
/// `results/e17_obs.json`; [`run`] renders it as a table).
pub fn measure(quick: bool) -> ObsReport {
    let (n, nbatches, batch_size) = sizes(quick);
    let cfg = StreamConfig::ever_fresh(batch_size, "e17-obs");
    let plan = RecoveryPlan::generate(42, cfg, n, nbatches);

    // Overhead: alternate sides per rep so drift hits both equally. The
    // registry is zeroed (handles stay wired — `reset`, not `clear`)
    // before the instrumented side so its exported numbers describe the
    // measured replays alone.
    nrc_obs::global().reset();
    let mut passes = Vec::with_capacity(2 * REPS);
    for rep in 0..REPS {
        for on in [false, true] {
            drain_garbage();
            let tag = format!("{}-{rep}", if on { "on" } else { "off" });
            passes.push(ObsPass {
                instrumented: on,
                rep,
                ingest_total_us: ingest_pass(&plan, on, &tag),
            });
        }
    }
    let min_of = |on: bool| {
        passes
            .iter()
            .filter(|p| p.instrumented == on)
            .map(|p| p.ingest_total_us)
            .fold(f64::INFINITY, f64::min)
    };
    let (min_off, min_on) = (min_of(false), min_of(true));
    let overhead_pct = ((min_on / min_off.max(1e-9) * 100.0).ceil() as i64 - 100).max(0) as u64;

    // Flight recorder demo on a fresh, fully instrumented ingest.
    drain_garbage();
    let d = demo(&plan, nbatches);
    drain_garbage();

    // Leave the process-wide defaults on for whoever runs next.
    nrc_obs::set_enabled(true);
    nrc_obs::trace::set_active(true);

    ObsReport {
        quick,
        n,
        batches: nbatches,
        batch_size,
        reps: REPS,
        instrumentation_overhead_pct: overhead_pct,
        ingest_min_us_disabled: min_off,
        ingest_min_us_enabled: min_on,
        metrics_exported: d.metrics_exported,
        layers_covered: d.layers_covered,
        slow_batch_index: d.slow_batch_index,
        slowest_trace_index: d.slowest_trace_index,
        slowest_trace_total_us: d.slowest_trace_total_us,
        slowest_stages: d.slowest_stages,
        view_cardinality: d.view_cardinality,
        passes,
    }
}

/// Render an [`ObsReport`] as the experiment table.
pub fn report_table(r: &ObsReport) -> Table {
    let mut t = Table::new(
        "E17",
        format!(
            "instrumentation overhead: durable ingest of {} batches × {} \
             updates over n={}, obs-disabled vs fully instrumented, min of \
             {} reps each; flight recorder isolates a {}×-merged batch",
            r.batches, r.batch_size, r.n, r.reps, SLOW_FACTOR
        ),
        &["side", "rep", "ingest total"],
    );
    for p in &r.passes {
        t.row(vec![
            if p.instrumented {
                "instrumented"
            } else {
                "disabled"
            }
            .to_string(),
            p.rep.to_string(),
            fmt_us(p.ingest_total_us),
        ]);
    }
    let stages: Vec<String> = r
        .slowest_stages
        .iter()
        .map(|s| format!("{} {}", s.stage, fmt_us(s.us)))
        .collect();
    t.note(format!(
        "gated: instrumentation_overhead_pct={} (≤ 5); snapshot exported {} \
         metrics covering [{}]; slowest trace = batch {} (injected slow \
         batch {}), {} over stages: {}",
        r.instrumentation_overhead_pct,
        r.metrics_exported,
        r.layers_covered.join(", "),
        r.slowest_trace_index,
        r.slow_batch_index,
        fmt_us(r.slowest_trace_total_us),
        stages.join(" → "),
    ));
    t
}

/// Run the experiment (table only; the harness uses [`measure`] +
/// [`report_table`] so it can also persist the machine-readable report).
pub fn run(quick: bool) -> Table {
    report_table(&measure(quick))
}

/// Serialize a report to `path` as JSON (the `obs-smoke` artifact).
pub fn write_obs_report(r: &ObsReport, path: &str) -> std::io::Result<()> {
    crate::write_json_report(r, path)
}

/// Write the current global metrics snapshot to `path` as JSON — the
/// one-export-covers-every-layer artifact (call right after [`measure`],
/// while the demo's numbers are still in the registry).
pub fn write_metrics_snapshot(path: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, nrc_obs::snapshot().to_json_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `measure` owns process-wide state (the obs switch, the flight
    /// recorder, scratch directories named by pid): one at a time.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn overhead_passes_cover_both_sides_and_snapshot_covers_all_layers() {
        let _serial = serial();
        let report = measure(true);
        assert_eq!(report.passes.len(), 2 * REPS);
        assert!(report.ingest_min_us_disabled > 0.0);
        assert!(report.ingest_min_us_enabled > 0.0);
        // Sanity, not the CI gate (debug builds + parallel tests are
        // noisy; the release-mode gate is `obs-smoke`'s job): the
        // instrumented side must not cost a multiple of the bare one.
        assert!(
            report.instrumentation_overhead_pct < 100,
            "instrumentation more than doubled ingest: {report:?}"
        );
        for layer in ["engine", "data", "serve", "durable"] {
            assert!(
                report.layers_covered.iter().any(|l| l == layer),
                "snapshot missing layer {layer}: {report:?}"
            );
        }
        assert!(report.metrics_exported >= 20, "{report:?}");
        assert!(
            report.view_cardinality > 0,
            "the measured view is empty after ingest: {report:?}"
        );
    }

    #[test]
    fn flight_recorder_isolates_the_injected_slow_batch() {
        let _serial = serial();
        let report = measure(true);
        assert!(report.slow_batch_index > 0);
        assert_eq!(
            report.slowest_trace_index, report.slow_batch_index,
            "slowest trace is not the injected slow batch: {report:?}"
        );
        assert!(
            report
                .slowest_stages
                .iter()
                .any(|s| s.stage == "wal_append"),
            "{report:?}"
        );
        assert!(
            report
                .slowest_stages
                .iter()
                .any(|s| s.stage == "segment_refresh"),
            "{report:?}"
        );
        assert!(report.slowest_trace_total_us > 0.0);
    }
}
