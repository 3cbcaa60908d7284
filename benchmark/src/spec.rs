//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is generated from these tables (`--print-spec`) and a unit test
//! holds the checked-in file to them.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric of the ledger.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; per-layer metrics
    /// carry none.
    pub bound: Option<f64>,
}

/// One named workload and the reason it exists.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// Seconds one run measures at the default size.
pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "flat_durable",
        why: "20k movies, four first-order flat views, 64-update batches: publish, GC, WAL and checkpoints do most of the work and engine refresh little",
    },
    WorkloadSpec {
        name: "nested_shredded",
        why: "nested related/bygenre views maintained shredded, no fsync: engine, core and data do nearly all of the work, so a WAL or publish win must not show here",
    },
    WorkloadSpec {
        name: "read_mostly",
        why: "open-loop 16-update batches every 10 ms under a closed-loop reader: a write-path gain bought by slower or staler reads shows here",
    },
    WorkloadSpec {
        name: "restart",
        why: "short ingest, then repeated recover, recover_at and a backfill over a long retained log tail: the durable layer's read side",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
///
/// Every timing metric carries the contract's cap, 0.25. A tighter bound
/// could not be defended: the sandbox runs at two speeds 1.3× apart in
/// spells of seconds, so the run-to-run spread (distance between the
/// quartiles of ten seeds, as a share of their median) of a timing is 5 %
/// in one set of runs and 15 % in the next; in `results/baseline.json` the
/// widest is 21.7 %. The two exact metrics spread under 2 % and are bounded
/// at three times that or more. See the README's Repeatability section.
pub const END_TO_END: [MetricSpec; 9] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ingest_updates_per_s", "1/s", Higher, 0.25),
    e2e("batch_p50_ms", "ms", Lower, 0.25),
    e2e("batch_p95_ms", "ms", Lower, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("recover_s", "s", Lower, 0.25),
    e2e("recover_at_s", "s", Lower, 0.25),
    e2e("disk_bytes_per_update", "B/update", Lower, 0.05),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Single layers, measured from outside in the traced run.
pub const PER_LAYER: [MetricSpec; 52] = [
    layer("parser.parse.busy_ms", "ms", Lower),
    layer("core.plan.busy_ms", "ms", Lower),
    layer("engine.register.busy_s", "s", Lower),
    layer("engine.coalesce.busy_s", "s", Lower),
    layer("engine.refresh.busy_s", "s", Lower),
    layer("engine.refresh.us_per_update", "us", Lower),
    layer("engine.batch.p50_us", "us", Lower),
    layer("engine.batch.p95_us", "us", Lower),
    layer("engine.delta_card", "count", Lower),
    layer("engine.gc.busy_s", "s", Lower),
    layer("engine.gc.collections", "count", Lower),
    layer("engine.gc.slots_freed", "count", Higher),
    layer("engine.gc.busy_first_fifth_s", "s", Lower),
    layer("engine.gc.busy_last_fifth_s", "s", Lower),
    layer("engine.gc.collect_nanos_residual_share", "share", Lower),
    layer("data.codec.encode_busy_s", "s", Lower),
    layer("data.codec.decode_busy_s", "s", Lower),
    layer("data.codec.bytes_per_update", "B/update", Lower),
    layer("data.arena.peak_live", "count", Lower),
    layer("data.arena.live_end", "count", Lower),
    layer("data.arena.bytes_end", "B", Lower),
    layer("serve.publish.busy_s", "s", Lower),
    layer("serve.publish.p50_us", "us", Lower),
    layer("serve.snapshots_published", "count", Lower),
    layer("serve.read.concurrent_per_s", "1/s", Higher),
    layer("serve.read.concurrent_p99_us", "us", Lower),
    layer("serve.read.point_ns_p50", "ns", Lower),
    layer("serve.read.scan_ns_p50", "ns", Lower),
    layer("serve.read.refresh_ns_p50", "ns", Lower),
    layer("durable.log.busy_s", "s", Lower),
    layer("durable.wal_append.busy_s", "s", Lower),
    layer("durable.fsync.busy_s", "s", Lower),
    layer("durable.fsync.count", "count", Lower),
    layer("durable.wal.bytes", "B", Lower),
    layer("durable.checkpoint.busy_s", "s", Lower),
    layer("durable.checkpoint.p50_ms", "ms", Lower),
    layer("durable.checkpoint.count", "count", Lower),
    layer("durable.checkpoint.bytes", "B", Lower),
    layer("durable.unattributed_share", "share", Lower),
    layer("durable.recover.checkpoint_load_s", "s", Lower),
    layer("durable.recover.wal_scan_s", "s", Lower),
    layer("durable.recover.replay_s", "s", Lower),
    layer("durable.recover.batches_replayed", "count", Lower),
    layer("durable.backfill.busy_s", "s", Lower),
    layer("obs.overhead_share", "share", Lower),
    layer("obs.recorder_residual_share", "share", Lower),
    layer("bench.batch_wall_s", "s", Lower),
    layer("bench.layer_sum_share", "share", Lower),
    layer("bench.sched_lag_p99_ms", "ms", Lower),
    layer("bench.negative_self_times", "count", Lower),
    layer("bench.raw_updates", "count", Higher),
    layer("bench.traced_wall_s", "s", Lower),
];

/// The spec of an end-to-end or per-layer metric by name.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            json_str(w.name),
            json_str(w.why)
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            m.bound.expect("end-to-end metrics carry a bound")
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str())
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// One measured metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
}

/// The last line of a run: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Measured]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let unit = metric(m.name).map_or("", |s| s.unit);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A float as JSON, with all its digits; non-finite values become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
        first_ok
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_counts_stay_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "workload name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "metric name {}", m.name);
            assert!(unit_ok(m.unit), "unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s gets the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn checked_in_benchmark_json_is_the_generated_one() {
        let checked_in = include_str!("../../BENCHMARK.json");
        assert_eq!(
            checked_in,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --print-spec > BENCHMARK.json`"
        );
        assert!(checked_in.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[Measured {
                name: "setup_s",
                value: 0.8127,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "0");
    }
}
