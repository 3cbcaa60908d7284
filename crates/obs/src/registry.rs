//! The process-wide metric [`Registry`]: hierarchical dotted names mapped to
//! shared [`Counter`]/[`Gauge`]/[`Histogram`] handles, with one
//! [`Registry::snapshot`] exporting every metric as JSON and a stable text
//! exposition format.
//!
//! # Naming convention
//!
//! Names are lowercase dotted paths, `<layer>.<subsystem>.<quantity>[_unit]`:
//! `engine.batch.apply_ns`, `data.arena.live_values`,
//! `serve.snapshots.oldest_age_batches`, `durable.wal.fsync_ns`. The registry
//! does not parse names — the hierarchy exists for humans and for
//! prefix-grepping the text exposition.
//!
//! # Locking discipline
//!
//! The registry map is only locked to *look up or create a handle*, never to
//! record. Call sites cache their `Arc<Counter>`/`Arc<Histogram>` handles
//! (typically in a `LazyLock` static) and afterwards touch only relaxed
//! atomics. Histograms support per-thread sharding via
//! [`Registry::histogram_shard`]: each shard records contention-free and the
//! shards are merged at snapshot time.

use crate::json::Json;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, LazyLock, RwLock};

/// Global instrumentation switch. When `false`, instrumented call sites skip
/// clock reads and metric updates entirely (one relaxed load + one branch).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is instrumentation globally enabled? One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Flip the global instrumentation switch (on by default; the ledger's
/// `obs.overhead_share` prices the instrumented vs. bare ingest paths with
/// it).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// One named metric slot in a registry.
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    /// Histograms are a group of shards merged at snapshot time; shard 0 is
    /// the default handle, later shards come from per-reader
    /// [`Registry::histogram_shard`] calls.
    Histogram(RwLock<Vec<Arc<Histogram>>>),
}

/// A namespace of metrics. Use [`global()`] for the process-wide instance
/// every layer reports into; isolated instances ([`Registry::new`]) serve
/// tests that need exact counts unpolluted by concurrent test threads.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty, isolated registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Shared handle to the counter `name`, created on first use.
    ///
    /// Panics if `name` is already registered as a different metric kind —
    /// a naming bug worth failing loudly on.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(m) = self.metrics.read().expect("registry lock").get(name) {
            return match m {
                Metric::Counter(c) => Arc::clone(c),
                _ => panic!("metric {name:?} is not a counter"),
            };
        }
        let mut map = self.metrics.write().expect("registry lock");
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Shared handle to the gauge `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(m) = self.metrics.read().expect("registry lock").get(name) {
            return match m {
                Metric::Gauge(g) => Arc::clone(g),
                _ => panic!("metric {name:?} is not a gauge"),
            };
        }
        let mut map = self.metrics.write().expect("registry lock");
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Shared handle to the default shard of histogram `name`, created on
    /// first use. All shards of a name merge into one series at snapshot.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(m) = self.metrics.read().expect("registry lock").get(name) {
            return match m {
                Metric::Histogram(shards) => Arc::clone(&shards.read().expect("shard lock")[0]),
                _ => panic!("metric {name:?} is not a histogram"),
            };
        }
        let mut map = self.metrics.write().expect("registry lock");
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(RwLock::new(vec![Arc::new(Histogram::new())])))
        {
            Metric::Histogram(shards) => Arc::clone(&shards.read().expect("shard lock")[0]),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// A **fresh private shard** of histogram `name` for one recording
    /// thread (e.g. one `SnapshotReader`). Recording into a private shard
    /// never contends with other threads' cache lines; the registry merges
    /// all shards of a name when snapshotting.
    pub fn histogram_shard(&self, name: &str) -> Arc<Histogram> {
        // Ensure the group exists, then append.
        self.histogram(name);
        let map = self.metrics.read().expect("registry lock");
        match map.get(name).expect("group just created") {
            Metric::Histogram(shards) => {
                let shard = Arc::new(Histogram::new());
                shards.write().expect("shard lock").push(Arc::clone(&shard));
                shard
            }
            _ => unreachable!("histogram() verified the kind"),
        }
    }

    /// Point-in-time export of every metric: counters and gauges by value,
    /// histograms with shards merged.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.read().expect("registry lock");
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(shards) => {
                    let mut merged = HistogramSnapshot::empty();
                    for shard in shards.read().expect("shard lock").iter() {
                        merged.merge(&shard.snapshot());
                    }
                    snap.histograms.insert(name.clone(), merged);
                }
            }
        }
        snap
    }

    /// Zero every metric **in place**. Handles cached by call sites (the
    /// usual `LazyLock` pattern) stay wired to the same atomics and keep
    /// recording, so a reset separates measurement phases without
    /// invalidating anything. Histogram
    /// shards are kept, merely zeroed.
    pub fn reset(&self) {
        let map = self.metrics.read().expect("registry lock");
        for metric in map.values() {
            match metric {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(shards) => {
                    for shard in shards.read().expect("shard lock").iter() {
                        shard.reset();
                    }
                }
            }
        }
    }

    /// Drop every metric *and its handles' registration* (names disappear
    /// from snapshots; previously cached handles keep recording into
    /// detached atomics). Only for tests that need an empty namespace —
    /// production code wants [`Registry::reset`].
    pub fn clear(&self) {
        self.metrics.write().expect("registry lock").clear();
    }

    /// Number of registered metric names.
    pub fn len(&self) -> usize {
        self.metrics.read().expect("registry lock").len()
    }

    /// True when no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide registry every layer reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: LazyLock<Registry> = LazyLock::new(Registry::new);
    &GLOBAL
}

/// A point-in-time export of a [`Registry`]: one call observes the whole
/// stack (engine, data, serve, durable). Serializes to a JSON object with
/// `counters` / `gauges` / `histograms` sections keyed by metric name, and
/// renders to a stable line-oriented text format via
/// [`MetricsSnapshot::to_text`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Merged histogram state by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The stable text exposition format: one line per metric, sorted by
    /// name within each kind, `<kind> <name> <value…>`.
    ///
    /// ```text
    /// counter durable.wal.syncs 12
    /// gauge data.arena.live_values 4096
    /// histogram engine.batch.apply_ns count=256 sum=... p50=... p90=... p99=... max=...
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter {name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge {name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("histogram {name} {}\n", h.to_text()));
        }
        out
    }

    /// Render the snapshot as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }

    /// The JSON object with `counters` / `gauges` / `histograms` sections,
    /// each an object keyed by metric name.
    pub fn to_json(&self) -> Json {
        let counters = Json::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                .collect(),
        );
        let gauges = Json::Object(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Int(*v)))
                .collect(),
        );
        let histograms = Json::Object(
            self.histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        Json::Object(vec![
            ("counters".to_owned(), counters),
            ("gauges".to_owned(), gauges),
            ("histograms".to_owned(), histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_on_demand_returns_shared_handles() {
        let r = Registry::new();
        let a = r.counter("x.events");
        let b = r.counter("x.events");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x.events").get(), 3);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x.events");
        r.gauge("x.events");
    }

    #[test]
    fn shards_merge_in_snapshot() {
        let r = Registry::new();
        let s1 = r.histogram_shard("read.ns");
        let s2 = r.histogram_shard("read.ns");
        s1.record(10);
        s2.record(1000);
        let snap = r.snapshot();
        let h = &snap.histograms["read.ns"];
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 1000);
    }

    #[test]
    fn snapshot_exports_text() {
        let r = Registry::new();
        r.counter("a.total").add(7);
        r.gauge("b.level").set(-2);
        r.histogram("c.ns").record(100);
        let snap = r.snapshot();
        let text = snap.to_text();
        assert!(text.contains("counter a.total 7"));
        assert!(text.contains("gauge b.level -2"));
        assert!(text.contains("histogram c.ns count=1"));
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counters["a.total"], 0, "reset zeroes in place");
        assert_eq!(snap.histograms["c.ns"].count, 0);
        r.clear();
        assert!(r.is_empty());
    }

    /// The JSON exports, byte for byte: escaped names, a negative gauge, a
    /// recorded and an unrecorded histogram, empty sections, and traces
    /// with and without spans.
    #[test]
    fn json_exports_are_golden() {
        use crate::trace::{to_json_string, BatchTrace, StageSpan};

        let r = Registry::new();
        r.counter("a.total").add(7);
        r.counter("q\"uote\nnew\u{1}ctl µs").add(3);
        r.gauge("b.level").set(-2);
        r.histogram("c.ns").record(100);
        r.histogram("c.ns").record(5000);
        r.histogram("d.ns");
        assert_eq!(
            r.snapshot().to_json_string(),
            r#"{
  "counters": {
    "a.total": 7,
    "q\"uote\nnew\u0001ctl µs": 3
  },
  "gauges": {
    "b.level": -2
  },
  "histograms": {
    "c.ns": {
      "count": 2,
      "sum": 5100,
      "p50": 103,
      "p90": 5119,
      "p99": 5119,
      "max": 5000
    },
    "d.ns": {
      "count": 0,
      "sum": 0,
      "p50": 0,
      "p90": 0,
      "p99": 0,
      "max": 0
    }
  }
}"#
        );
        assert_eq!(
            MetricsSnapshot::default().to_json_string(),
            r#"{
  "counters": {},
  "gauges": {},
  "histograms": {}
}"#
        );

        let traces = [
            BatchTrace {
                seq: 3,
                batch_index: 7,
                total_nanos: 1_500,
                spans: vec![StageSpan {
                    stage: "refresh".into(),
                    tag: "v\"1\\".into(),
                    nanos: 900,
                }],
            },
            BatchTrace {
                seq: 4,
                batch_index: 8,
                total_nanos: 20,
                spans: vec![],
            },
        ];
        assert_eq!(
            to_json_string(&traces),
            r#"[
  {
    "seq": 3,
    "batch_index": 7,
    "total_nanos": 1500,
    "spans": [
      {
        "stage": "refresh",
        "tag": "v\"1\\",
        "nanos": 900
      }
    ]
  },
  {
    "seq": 4,
    "batch_index": 8,
    "total_nanos": 20,
    "spans": []
  }
]"#
        );
        assert_eq!(to_json_string(&[]), "[]");
    }
}
