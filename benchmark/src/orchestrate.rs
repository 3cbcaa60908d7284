//! The parent process of a run: starts one child per job, waits for each,
//! and turns their reports into the named metrics of the ledger.

use crate::report::Report;
use crate::run::Job;
use crate::spec::{Measured, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workload::Params;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median. Each runs in its own child.
pub const SETUP_SAMPLES: usize = 5;

/// End-to-end children per run, same seed, same work; every metric but
/// `setup_s` is their mean. The sandbox switches between two speeds in
/// spells of seconds: two takes some seconds apart see more of the mixture
/// than one take of twice the length.
pub const TAKES: usize = 2;

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct RunSpec {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Directory under which every child gets a directory of its own.
    pub scratch: PathBuf,
}

/// The outcome of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    /// Sample counts, reported percentiles, flags: printed, not scored.
    pub notes: Vec<String>,
}

/// Start `job` as a child of this executable and wait for its report.
fn child(spec: &RunSpec, job: Job, tag: &str) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = spec
        .scratch
        .join(format!("{}-{tag}-{}", std::process::id(), job.name()));
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(exe)
        .args(["--job", job.name()])
        .args(["--workload", &spec.workload])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .arg("--scratch")
        .arg(&dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", job.name()));
    // `output()` has waited for the child; its files go whatever it said.
    let _ = std::fs::remove_dir_all(&dir);
    let output = output?;
    if !output.status.success() {
        return Err(format!("job {} failed: {}", job.name(), output.status));
    }
    Report::parse(&String::from_utf8_lossy(&output.stdout))
}

/// Run one workload once, untraced or traced.
pub fn run_once(spec: &RunSpec, p: &Params) -> Result<RunResult, String> {
    std::fs::create_dir_all(&spec.scratch).map_err(|e| format!("scratch dir: {e}"))?;
    if spec.traced {
        traced(spec, p)
    } else {
        untraced(spec)
    }
}

fn untraced(spec: &RunSpec) -> Result<RunResult, String> {
    // First take, the set-up children, second take: the takes lie as far
    // apart in time as the run allows.
    let mut takes = vec![child(spec, Job::EndToEnd, "take0")?];
    let mut setups = vec![takes[0].get("setup_s")];
    for i in TAKES..SETUP_SAMPLES {
        setups.push(child(spec, Job::Setup, &format!("s{i}"))?.get("setup_s"));
    }
    for i in 1..TAKES {
        let take = child(spec, Job::EndToEnd, &format!("take{i}"))?;
        setups.push(take.get("setup_s"));
        takes.push(take);
    }
    let each = |name: &str| -> Vec<f64> { takes.iter().map(|t| t.get(name)).collect() };

    let metrics = END_TO_END
        .iter()
        .map(|m| Measured {
            name: m.name,
            value: match m.name {
                "setup_s" => stats::median(&setups),
                name => stats::mean(&each(name)),
            },
        })
        .collect();
    let attempted = each("attempted").iter().sum::<f64>() as u64;
    let failed = each("failed").iter().sum::<f64>() as u64;
    let first = &takes[0];
    let mut notes = vec![
        format!("setup_s: median of {SETUP_SAMPLES} set-ups, each in its own process: {setups:?}"),
        format!("every other metric: mean of {TAKES} takes of the run, each in its own process"),
    ];
    for m in END_TO_END.iter().filter(|m| m.name != "setup_s") {
        notes.push(format!("{} by take: {:?}", m.name, each(m.name)));
    }
    notes.extend([
        format!(
            "batch latency: {} samples a take, tail reported at p{}",
            first.get("batch_samples"),
            first.get("batch_tail_percentile")
        ),
        format!(
            "read latency: {} blocks of {} ops in the first take; concurrent reads/s {},              p{} {} us (per-layer metrics, not gated)",
            first.get("read_blocks"),
            crate::workload::READ_BLOCK,
            first.get("reads_per_s"),
            first.get("read_tail_percentile"),
            first.get("read_p99_us"),
        ),
        format!(
            "a take: recover replayed {} batches, recover_at {}, each the mean of {} calls; \
             {} sampled reads replayed; \
             GC freed {} slots in {} collections; \
             {} raw updates, {} WAL bytes, {} fsyncs, {} checkpoints ({} bytes)",
            first.get("recover_batches_replayed"),
            first.get("recover_at_batches_replayed"),
            first.get("restart_rounds"),
            first.get("samples_checked"),
            first.get("slots_freed"),
            first.get("collections"),
            first.get("raw_updates"),
            first.get("wal_bytes"),
            first.get("fsync_count"),
            first.get("checkpoint_count"),
            first.get("checkpoint_bytes"),
        ),
        format!("failed_ops_share: {failed} of {attempted} operations"),
    ]);
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// The reports of the traced run's children.
pub struct Passes {
    pub engine_nogc: Report,
    pub engine: Report,
    pub serve: Report,
    pub durable: Report,
    pub durable_obs_off: Option<Report>,
    pub probes: Report,
}

fn traced(spec: &RunSpec, p: &Params) -> Result<RunResult, String> {
    use crate::run::Layer;
    let start = Instant::now();
    let passes = Passes {
        engine_nogc: child(spec, Job::Pass(Layer::EngineNoGc), "t")?,
        engine: child(spec, Job::Pass(Layer::Engine), "t")?,
        serve: child(spec, Job::Pass(Layer::Serve), "t")?,
        durable: child(spec, Job::Pass(Layer::Durable), "t")?,
        durable_obs_off: if p.obs_off_pass {
            Some(child(spec, Job::Pass(Layer::DurableObsOff), "t")?)
        } else {
            None
        },
        probes: child(spec, Job::Probes, "t")?,
    };
    let (mut values, notes) = attribute(&passes);
    values.push(("bench.traced_wall_s", start.elapsed().as_secs_f64()));
    let metrics = PER_LAYER
        .iter()
        .map(|m| Measured {
            name: m.name,
            value: values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, v)| *v),
        })
        .collect();
    let rejected: f64 = [
        &passes.engine_nogc,
        &passes.engine,
        &passes.serve,
        &passes.durable,
    ]
    .iter()
    .map(|r| r.get("rejected_batches") + r.get("read_failed"))
    .sum();
    let attempted = passes.durable.get("batches") + passes.durable.get("reads");
    Ok(RunResult {
        correct: rejected == 0.0,
        attempted: attempted as u64,
        failed: rejected as u64,
        metrics,
        notes,
    })
}

fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Per-layer attribution from the traced passes: a layer's self time is
/// the difference between the pass that includes it and the pass below.
pub fn attribute(passes: &Passes) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let Passes {
        engine_nogc: nogc,
        engine,
        serve,
        durable,
        durable_obs_off,
        probes,
    } = passes;
    let secs = |ns: f64| ns / 1e9;
    let apply = |r: &Report| secs(r.sum("apply_ns"));
    let mut flags = Vec::new();
    let mut diff = |name: &str, upper: f64, lower: f64| {
        let d = stats::self_time(upper, lower);
        if d.negative_beyond_noise {
            flags.push(format!(
                "NEGATIVE SELF TIME {name}: upper pass {upper:.4} s < lower pass {lower:.4} s"
            ));
        }
        d.busy
    };

    let refresh = apply(nogc);
    let gc = diff("engine.gc", apply(engine), apply(nogc));
    let publish = diff("serve.publish", apply(serve), apply(engine));
    let log = diff("durable.log", apply(durable), apply(serve));
    let coalesce = secs(durable.sum("coalesce_ns"));
    let checkpoint = secs(durable.sum("checkpoint_ns"));
    // The drift: GC's self time over the first and the last fifth of the
    // stream, each a difference of the two passes' sums like the total.
    let (engine_first, engine_last) = stats::fifths(engine.series("apply_ns"));
    let (nogc_first, nogc_last) = stats::fifths(nogc.series("apply_ns"));
    let gc_first = diff(
        "engine.gc first fifth",
        secs(engine_first as f64),
        secs(nogc_first as f64),
    );
    let gc_last = diff(
        "engine.gc last fifth",
        secs(engine_last as f64),
        secs(nogc_last as f64),
    );
    let publish_per_batch =
        stats::per_batch_self(serve.series("apply_ns"), engine.series("apply_ns"));
    let updates = durable.get("raw_updates");
    let wal_append = probes.get("wal_append_s");
    let fsync = probes.get("fsync_s");
    let batch_wall = durable.get("batch_wall_s");
    let layer_sum = coalesce + refresh + gc + publish + log + checkpoint;
    let obs_overhead = durable_obs_off.as_ref().map_or(0.0, |off| {
        share(
            durable.get("batch_wall_s") - off.get("batch_wall_s"),
            off.get("batch_wall_s"),
        )
    });

    let values = vec![
        ("parser.parse.busy_ms", probes.get("parse_ms")),
        ("core.plan.busy_ms", probes.get("plan_ms")),
        ("engine.register.busy_s", engine.get("register_s")),
        ("engine.coalesce.busy_s", coalesce),
        ("engine.refresh.busy_s", refresh),
        (
            "engine.refresh.us_per_update",
            share(refresh * 1e6, updates),
        ),
        (
            "engine.batch.p50_us",
            stats::pick(nogc.series("apply_ns"), 50.0).value / 1e3,
        ),
        (
            "engine.batch.p95_us",
            stats::pick(nogc.series("apply_ns"), 95.0).value / 1e3,
        ),
        ("engine.delta_card", engine.get("delta_card")),
        ("engine.gc.busy_s", gc),
        ("engine.gc.collections", engine.get("collections")),
        ("engine.gc.slots_freed", engine.get("slots_freed")),
        ("engine.gc.busy_first_fifth_s", gc_first),
        ("engine.gc.busy_last_fifth_s", gc_last),
        (
            "engine.gc.collect_nanos_residual_share",
            share(gc - engine.get("collect_s"), gc),
        ),
        ("data.codec.encode_busy_s", probes.get("codec_encode_s")),
        ("data.codec.decode_busy_s", probes.get("codec_decode_s")),
        (
            "data.codec.bytes_per_update",
            probes.get("codec_bytes_per_update"),
        ),
        ("data.arena.peak_live", durable.get("peak_live")),
        ("data.arena.live_end", durable.get("arena_live_end")),
        ("data.arena.bytes_end", durable.get("arena_bytes_end")),
        ("serve.publish.busy_s", publish),
        (
            "serve.publish.p50_us",
            stats::percentile(&publish_per_batch, 50.0) / 1e3,
        ),
        (
            "serve.snapshots_published",
            durable.get("snapshots_published"),
        ),
        ("serve.read.concurrent_per_s", durable.get("reads_per_s")),
        ("serve.read.concurrent_p99_us", durable.get("read_p99_us")),
        ("serve.read.point_ns_p50", probes.get("read_point_ns_p50")),
        ("serve.read.scan_ns_p50", probes.get("read_scan_ns_p50")),
        (
            "serve.read.refresh_ns_p50",
            probes.get("read_refresh_ns_p50"),
        ),
        ("durable.log.busy_s", log),
        ("durable.wal_append.busy_s", wal_append),
        ("durable.fsync.busy_s", fsync),
        ("durable.fsync.count", durable.get("fsync_count")),
        ("durable.wal.bytes", durable.get("wal_bytes")),
        ("durable.checkpoint.busy_s", checkpoint),
        (
            "durable.checkpoint.p50_ms",
            stats::percentile(durable.series("checkpoint_ns"), 50.0) / 1e6,
        ),
        ("durable.checkpoint.count", durable.get("checkpoint_count")),
        ("durable.checkpoint.bytes", durable.get("checkpoint_bytes")),
        (
            "durable.unattributed_share",
            share((log - wal_append - fsync).max(0.0), log),
        ),
        (
            "durable.recover.checkpoint_load_s",
            durable.get("recover_checkpoint_load_s"),
        ),
        (
            "durable.recover.wal_scan_s",
            durable.get("recover_wal_scan_s"),
        ),
        ("durable.recover.replay_s", durable.get("recover_replay_s")),
        (
            "durable.recover.batches_replayed",
            durable.get("recover_batches_replayed"),
        ),
        ("durable.backfill.busy_s", durable.get("backfill_s")),
        ("obs.overhead_share", obs_overhead),
        (
            "obs.recorder_residual_share",
            durable.get("recorder_residual_share"),
        ),
        ("bench.batch_wall_s", batch_wall),
        ("bench.layer_sum_share", share(layer_sum, batch_wall)),
        ("bench.sched_lag_p99_ms", durable.get("sched_lag_p99_ms")),
        ("bench.negative_self_times", flags.len() as f64),
        ("bench.raw_updates", updates),
    ];

    // A clamped difference means two passes are out of order, so the
    // shares of the row overlap: say so next to them.
    let overlap = if flags.is_empty() {
        ""
    } else {
        " — passes out of order (see NEGATIVE SELF TIME): these overlap and do not sum to 100%"
    };
    let mut notes = flags;
    notes.push(format!(
        "shares of the traced durable pass's Σ batch wall ({batch_wall:.3} s): \
         coalesce {:.1}% refresh {:.1}% gc {:.1}% publish {:.1}% log {:.1}% checkpoint {:.1}%{overlap}",
        100.0 * share(coalesce, batch_wall),
        100.0 * share(refresh, batch_wall),
        100.0 * share(gc, batch_wall),
        100.0 * share(publish, batch_wall),
        100.0 * share(log, batch_wall),
        100.0 * share(checkpoint, batch_wall),
    ));
    notes.push(format!(
        "engine.gc.busy_s from outside {gc:.4} s vs batch_stats().collect_nanos {:.4} s",
        engine.get("collect_s")
    ));
    (values, notes)
}

/// What `run.sh` exported about the build (`NRC_BENCH_COMMIT`,
/// `NRC_BENCH_RUSTC`); "unknown" when run without it.
pub fn provenance(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".to_string())
}

/// Cores this process may use; 0 when that cannot be told.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// The filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo` (the longest mount point that is a prefix).
pub fn filesystem_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass_report(apply: &[u64], extra: &[(&str, f64)]) -> Report {
        let mut r = Report::default();
        r.set_series("apply_ns", apply.to_vec());
        r.set_series("coalesce_ns", vec![0; apply.len()]);
        for (k, v) in extra {
            r.set(k, *v);
        }
        r
    }

    #[test]
    fn self_times_are_differences_of_adjacent_passes() {
        let passes = Passes {
            engine_nogc: pass_report(&[1, 1, 1, 1, 1], &[]),
            engine: pass_report(&[2, 1, 1, 1, 3], &[("collect_s", 3e-9)]),
            serve: pass_report(&[3, 2, 2, 2, 4], &[]),
            // The durable pass came out *cheaper* than the serve pass:
            // clamped to zero and flagged.
            durable: pass_report(
                &[1, 1, 1, 1, 1],
                &[("raw_updates", 5.0), ("batch_wall_s", 5e-9)],
            ),
            durable_obs_off: None,
            probes: Report::default(),
        };
        let (values, notes) = attribute(&passes);
        let get = |name: &str| values.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("engine.refresh.busy_s"), 5e-9);
        assert!((get("engine.gc.busy_s") - 3e-9).abs() < 1e-18);
        assert!((get("serve.publish.busy_s") - 5e-9).abs() < 1e-18);
        assert_eq!(get("durable.log.busy_s"), 0.0);
        assert_eq!(get("bench.negative_self_times"), 1.0);
        assert!(notes[0].starts_with("NEGATIVE SELF TIME durable.log"));
        assert!((get("engine.gc.busy_first_fifth_s") - 1e-9).abs() < 1e-18);
        assert!((get("engine.gc.busy_last_fifth_s") - 2e-9).abs() < 1e-18);
        assert_eq!(get("obs.overhead_share"), 0.0);
        // The clamped durable.log leaves the layer sum above the wall.
        assert!((get("bench.layer_sum_share") - 13.0 / 5.0).abs() < 1e-9);
        // Every per-layer metric the spec lists is produced, or defaults to 0.
        for (name, _) in &values {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not in the spec"
            );
        }
    }

    #[test]
    fn gc_fifths_are_differences_of_sums_and_stay_within_the_total() {
        // Ordered passes, batch by batch: the fifths are disjoint parts of
        // the total.
        let nogc = [10, 10, 10, 10, 10, 10, 10, 10, 10, 10];
        let with_gc = [12, 10, 11, 10, 10, 10, 13, 10, 10, 15];
        let mut passes = Passes {
            engine_nogc: pass_report(&nogc, &[]),
            engine: pass_report(&with_gc, &[]),
            serve: pass_report(&with_gc, &[]),
            durable: pass_report(&with_gc, &[]),
            durable_obs_off: None,
            probes: Report::default(),
        };
        let fifths = |passes: &Passes| {
            let (values, notes) = attribute(passes);
            let get = |name: &str| values.iter().find(|(n, _)| *n == name).unwrap().1;
            (
                get("engine.gc.busy_first_fifth_s"),
                get("engine.gc.busy_last_fifth_s"),
                get("engine.gc.busy_s"),
                notes,
            )
        };
        let (first, last, total, _) = fifths(&passes);
        assert!((first - 2e-9).abs() < 1e-18 && (last - 5e-9).abs() < 1e-18);
        assert!(first + last <= total + 1e-18);
        // Two-sided per-batch noise cancels inside a fifth: clamping each
        // batch would have read 3 ns of GC here, the sums read 0.
        passes.engine = pass_report(&[13, 7, 10, 10, 10, 10, 10, 10, 10, 10], &[]);
        let (first, _, _, notes) = fifths(&passes);
        assert_eq!(first, 0.0);
        assert!(!notes.iter().any(|n| n.contains("first fifth")));
        // A first fifth that is clearly negative is clamped once and flagged.
        passes.engine = pass_report(&[5, 5, 10, 10, 10, 10, 10, 10, 10, 10], &[]);
        let (first, _, _, notes) = fifths(&passes);
        assert_eq!(first, 0.0);
        assert!(notes
            .iter()
            .any(|n| n.starts_with("NEGATIVE SELF TIME engine.gc first fifth")));
    }

    #[test]
    fn filesystem_type_of_root_is_known() {
        assert_ne!(filesystem_type(Path::new("/")), "unknown");
    }
}
