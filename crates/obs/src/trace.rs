//! The flight recorder: a fixed-capacity ring of per-batch [`BatchTrace`]
//! timelines for slowest-batch post-mortems.
//!
//! # Cost model
//!
//! When tracing is disabled, every instrumented stage costs **one relaxed
//! atomic load and one branch** ([`active`] returning `false`). When
//! enabled, a stage costs **two `Instant::now()` reads** (start and end)
//! plus one thread-local push of a [`StageSpan`] into a `Vec` that is
//! amortized-allocation-free after the first few batches (the builder's
//! span vector is recycled through the ring). Completed traces are moved
//! whole, under one short mutex acquisition per batch, into the global
//! ring — a trace is therefore never observable half-built ("torn"), which
//! `tests/prop_obs.rs` exercises from many threads.
//!
//! # Nesting
//!
//! A durable batch flows durable → serve → engine, and each layer opens a
//! trace scope for the same batch. The thread-local builder counts depth:
//! the **outermost** [`begin`] (the durable layer, when present) owns the
//! trace and carries its batch index; inner `begin`/`end` pairs only move
//! the depth. Stage spans recorded anywhere in between land in the one
//! open trace. Spans are only recorded from the thread that opened the
//! trace, keeping the recorder single-writer per trace.

use crate::json::Json;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{LazyLock, Mutex};
use std::time::Instant;

/// One timed stage inside a batch: name, free-form tag, duration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSpan {
    /// Stage name (`"coalesce"`, `"wal_append"`, `"fsync"`, …).
    pub stage: String,
    /// Free-form context: a view name, a byte count, an update count.
    pub tag: String,
    /// Stage duration in nanoseconds.
    pub nanos: u64,
}

/// The complete timeline of one applied batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchTrace {
    /// Monotone sequence number assigned by the recorder on submit.
    pub seq: u64,
    /// The batch index the outermost layer passed to [`begin`].
    pub batch_index: u64,
    /// Wall nanoseconds from the outermost `begin` to its `end`.
    pub total_nanos: u64,
    /// Stage spans in recording order.
    pub spans: Vec<StageSpan>,
}

/// Incrementally builds one [`BatchTrace`]. Used directly by tests; the
/// global [`begin`]/[`span`]/[`end`] path drives one per thread.
#[derive(Debug)]
pub struct TraceBuilder {
    batch_index: u64,
    start: Instant,
    spans: Vec<StageSpan>,
}

impl TraceBuilder {
    /// Start a trace for `batch_index` now.
    pub fn start(batch_index: u64) -> TraceBuilder {
        TraceBuilder {
            batch_index,
            start: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Append a finished stage span.
    pub fn span(&mut self, stage: &str, tag: impl Into<String>, nanos: u64) {
        self.spans.push(StageSpan {
            stage: stage.to_owned(),
            tag: tag.into(),
            nanos,
        });
    }

    /// Close the trace; `seq` is assigned by the recorder on submit.
    pub fn finish(self) -> BatchTrace {
        BatchTrace {
            seq: 0,
            batch_index: self.batch_index,
            total_nanos: self.start.elapsed().as_nanos() as u64,
            spans: self.spans,
        }
    }
}

/// A fixed-capacity ring of completed [`BatchTrace`]s. The global recorder
/// is one of these behind [`recorder()`]; tests build private instances.
#[derive(Debug)]
pub struct FlightRecorder {
    inner: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    cap: usize,
    next_seq: u64,
    traces: VecDeque<BatchTrace>,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `cap` traces (`cap ≥ 1`).
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Mutex::new(Ring {
                cap: cap.max(1),
                next_seq: 0,
                traces: VecDeque::new(),
            }),
        }
    }

    /// Submit a completed trace, stamping its sequence number. Whole traces
    /// move under the lock — a reader can never observe a torn one.
    pub fn submit(&self, mut trace: BatchTrace) {
        let mut ring = self.inner.lock().expect("recorder lock");
        trace.seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.traces.len() == ring.cap {
            ring.traces.pop_front();
        }
        ring.traces.push_back(trace);
    }

    /// Clone out every retained trace, oldest first.
    pub fn dump(&self) -> Vec<BatchTrace> {
        self.inner
            .lock()
            .expect("recorder lock")
            .traces
            .iter()
            .cloned()
            .collect()
    }

    /// The `n` slowest retained traces, slowest first.
    pub fn slowest(&self, n: usize) -> Vec<BatchTrace> {
        let mut all = self.dump();
        all.sort_by_key(|t| std::cmp::Reverse(t.total_nanos));
        all.truncate(n);
        all
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder lock").traces.len()
    }

    /// True when no trace is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total traces ever submitted (not just retained).
    pub fn submitted(&self) -> u64 {
        self.inner.lock().expect("recorder lock").next_seq
    }

    /// Discard every retained trace (sequence numbers keep climbing).
    pub fn clear(&self) {
        self.inner.lock().expect("recorder lock").traces.clear();
    }

    /// Change the retention capacity, evicting oldest traces if shrinking.
    pub fn set_capacity(&self, cap: usize) {
        let mut ring = self.inner.lock().expect("recorder lock");
        ring.cap = cap.max(1);
        while ring.traces.len() > ring.cap {
            ring.traces.pop_front();
        }
    }
}

/// Default retention of the global recorder.
const DEFAULT_CAPACITY: usize = 64;

/// The process-wide flight recorder the instrumented layers submit to.
pub fn recorder() -> &'static FlightRecorder {
    static GLOBAL: LazyLock<FlightRecorder> =
        LazyLock::new(|| FlightRecorder::new(DEFAULT_CAPACITY));
    &GLOBAL
}

/// Tracing switch, independent of the metrics switch: metrics are cheap
/// enough to keep on in production, traces cost two clock reads per stage.
/// On by default (the ring bounds memory).
static TRACING: AtomicBool = AtomicBool::new(true);

/// Is the flight recorder active? One relaxed load — this is the single
/// branch a disabled stage costs.
#[inline]
pub fn active() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Flip the flight recorder on or off.
pub fn set_active(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

thread_local! {
    /// The open trace of this thread plus the `begin` nesting depth.
    static CURRENT: RefCell<Option<(TraceBuilder, u32)>> = const { RefCell::new(None) };
}

/// Open a trace scope for `batch_index` on this thread. The outermost
/// `begin` owns the trace; nested calls (serve inside durable, engine
/// inside serve) only deepen it. Must be paired with [`end`] — use
/// [`guard`] for panic safety.
pub fn begin(batch_index: u64) {
    if !active() {
        return;
    }
    CURRENT.with(|cur| {
        let mut cur = cur.borrow_mut();
        match cur.as_mut() {
            Some((_, depth)) => *depth += 1,
            None => *cur = Some((TraceBuilder::start(batch_index), 1)),
        }
    });
}

/// Record a stage span into this thread's open trace, if any.
pub fn span(stage: &str, tag: impl Into<String>, nanos: u64) {
    CURRENT.with(|cur| {
        if let Some((builder, _)) = cur.borrow_mut().as_mut() {
            builder.span(stage, tag, nanos);
        }
    });
}

/// Close one trace scope. When the outermost scope closes, the finished
/// trace is submitted to the global [`recorder()`].
pub fn end() {
    let finished = CURRENT.with(|cur| {
        let mut cur = cur.borrow_mut();
        match cur.as_mut() {
            Some((_, depth)) if *depth > 1 => {
                *depth -= 1;
                None
            }
            Some(_) => cur.take().map(|(builder, _)| builder.finish()),
            None => None,
        }
    });
    if let Some(trace) = finished {
        recorder().submit(trace);
    }
}

/// An RAII scope around [`begin`]/[`end`]: the trace closes even if the
/// batch application panics mid-stage, so the ring never wedges a
/// half-open builder on the thread.
pub struct TraceGuard {
    armed: bool,
}

/// Open a panic-safe trace scope for `batch_index`.
pub fn guard(batch_index: u64) -> TraceGuard {
    if active() {
        begin(batch_index);
        TraceGuard { armed: true }
    } else {
        TraceGuard { armed: false }
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.armed {
            end();
        }
    }
}

/// Render traces as pretty-printed JSON: an array of `BatchTrace` objects,
/// fields in declaration order.
pub fn to_json_string(traces: &[BatchTrace]) -> String {
    let span = |s: &StageSpan| {
        Json::Object(vec![
            ("stage".to_owned(), Json::Str(s.stage.clone())),
            ("tag".to_owned(), Json::Str(s.tag.clone())),
            ("nanos".to_owned(), Json::UInt(s.nanos)),
        ])
    };
    let trace = |t: &BatchTrace| {
        Json::Object(vec![
            ("seq".to_owned(), Json::UInt(t.seq)),
            ("batch_index".to_owned(), Json::UInt(t.batch_index)),
            ("total_nanos".to_owned(), Json::UInt(t.total_nanos)),
            (
                "spans".to_owned(),
                Json::Array(t.spans.iter().map(span).collect()),
            ),
        ])
    };
    Json::Array(traces.iter().map(trace).collect()).to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global switch + recorder are process-wide; tests that flip or
    /// count them must not interleave.
    static GLOBAL_STATE: Mutex<()> = Mutex::new(());

    #[test]
    fn ring_keeps_the_newest_cap_traces() {
        let rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            let mut b = TraceBuilder::start(i);
            b.span("s", format!("t{i}"), i);
            rec.submit(b.finish());
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 3);
        assert_eq!(rec.submitted(), 5);
        assert_eq!(
            dump.iter().map(|t| t.batch_index).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(
            dump.iter().map(|t| t.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn nested_scopes_produce_one_trace() {
        let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
        set_active(true);
        recorder().clear();
        let before = recorder().submitted();
        {
            let _outer = guard(7);
            span("outer_stage", "", 5);
            {
                let _inner = guard(999); // ignored: outer owns the trace
                span("inner_stage", "v1", 6);
            }
            span("outer_again", "", 7);
        }
        assert_eq!(recorder().submitted(), before + 1);
        let t = recorder().dump().pop().expect("one trace");
        assert_eq!(t.batch_index, 7);
        assert_eq!(
            t.spans.iter().map(|s| s.stage.as_str()).collect::<Vec<_>>(),
            vec!["outer_stage", "inner_stage", "outer_again"]
        );
        recorder().clear();
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _lock = GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner());
        set_active(false);
        let before = recorder().submitted();
        {
            let _g = guard(1);
            span("s", "", 1);
        }
        assert_eq!(recorder().submitted(), before);
        set_active(true);
    }

    #[test]
    fn slowest_sorts_by_total() {
        let rec = FlightRecorder::new(8);
        for (i, ns) in [(0u64, 30u64), (1, 10), (2, 50)] {
            let mut t = TraceBuilder::start(i).finish();
            t.total_nanos = ns;
            rec.submit(t);
        }
        let top = rec.slowest(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].batch_index, 2);
        assert_eq!(top[1].batch_index, 0);
    }
}
