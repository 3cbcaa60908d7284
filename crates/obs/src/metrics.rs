//! Lock-free metric primitives: [`Counter`], [`Gauge`], and a mergeable
//! log2-bucketed [`Histogram`].
//!
//! All three record with relaxed atomic read-modify-writes — no locks, no
//! allocation — so they are safe to touch from the ingest hot path and from
//! concurrent reader threads. Consistency across *different* atomics is not
//! guaranteed within one snapshot (a snapshot taken mid-record may see the
//! bucket increment but not yet the sum increment); every exported quantity
//! is monotone per thread, which is what trend dashboards and budget gates
//! need.
//!
//! # Histogram bucket scheme and error bound
//!
//! [`Histogram`] buckets the full `u64` range with a log2 layout subdivided
//! linearly, HDR-histogram style, with `SUB_BITS = 3`:
//!
//! - values `0..8` get one exact bucket each;
//! - every octave `[2^e, 2^(e+1))` for `e ≥ 3` is split into 8 equal-width
//!   sub-buckets keyed by the 3 bits after the leading one.
//!
//! That is [`Histogram::NUM_BUCKETS`] = 496 buckets total (8 + 61 octaves × 8)
//! of 8 bytes each — ~4 KiB per histogram. A bucket starting at
//! `lower = (8 + sub) << (e - 3)` has width `2^(e - 3)`, so
//! `width / lower = 1 / (8 + sub) ≤ 1/8`: any value reported from its bucket
//! upper bound overestimates the true value by **at most 12.5%** (and never
//! underestimates). Quantiles are rank-selected over the bucket counts, so
//! for the rank-`⌈qn⌉` definition used by [`HistogramSnapshot::quantile`],
//! `exact ≤ reported ≤ exact × 1.125` — the bound `tests/prop_obs.rs`
//! verifies against exact sorted-sample quantiles.

use crate::json::Json;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotone event counter. `inc`/`add` are single relaxed `fetch_add`s.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Count one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zero the counter in place (handles stay valid).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins signed level (arena bytes live, snapshots outstanding,
/// an EWMA…). `set`/`add` are single relaxed atomics.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Overwrite with a `u64`, saturating at `i64::MAX`.
    #[inline]
    pub fn set_u64(&self, v: u64) {
        self.set(v.min(i64::MAX as u64) as i64);
    }

    /// Move the level by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zero the gauge in place (handles stay valid).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of linear sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 3;
/// Sub-buckets per octave (8).
const SUB: u64 = 1 << SUB_BITS;

/// A lock-free log2-bucketed histogram of `u64` samples (typically
/// nanoseconds or bytes).
///
/// [`Histogram::record`] is a handful of relaxed `fetch_add`s — wait-free,
/// allocation-free, safe from any thread. See the [module docs](self) for
/// the bucket scheme and the ≤12.5% relative error bound on reported
/// quantiles. [`Histogram::merge`] adds another histogram's buckets into
/// this one, so per-thread shards can be combined at snapshot time with no
/// coordination during recording.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; Histogram::NUM_BUCKETS]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Total bucket count: 8 exact unit buckets + 61 octaves (e = 3..=63)
    /// × 8 sub-buckets = 496.
    pub const NUM_BUCKETS: usize = (8 + (64 - SUB_BITS) * SUB as u32) as usize;

    /// A fresh empty histogram.
    pub fn new() -> Histogram {
        // `AtomicU64` is not `Copy`; build the boxed array from a zeroed vec.
        let v: Vec<AtomicU64> = (0..Histogram::NUM_BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect();
        let buckets: Box<[AtomicU64; Histogram::NUM_BUCKETS]> =
            v.into_boxed_slice().try_into().expect("exact length");
        Histogram {
            buckets,
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: exact below 8, then octave × 8 + the 3 bits
    /// after the leading one.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v < SUB {
            v as usize
        } else {
            let e = 63 - v.leading_zeros();
            let sub = (v >> (e - SUB_BITS)) - SUB;
            (((e - 2) as u64 * SUB) + sub) as usize
        }
    }

    /// Inclusive value range `[lower, upper]` covered by bucket `idx`.
    pub fn bucket_bounds(idx: usize) -> (u64, u64) {
        if idx < SUB as usize {
            (idx as u64, idx as u64)
        } else {
            let e = (idx as u32 / SUB as u32) + 2;
            let sub = idx as u64 & (SUB - 1);
            let lower = (SUB + sub) << (e - SUB_BITS);
            let width = 1u64 << (e - SUB_BITS);
            (lower, lower + (width - 1))
        }
    }

    /// Record one sample. A few relaxed atomic RMWs; wait-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Histogram::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Add every sample of `other` into `self` (bucket-wise atomic adds).
    /// Equivalent to having recorded the concatenation of both streams.
    pub fn merge(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n != 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time plain copy for quantile math and export.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; Histogram::NUM_BUCKETS];
        let mut count = 0u64;
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
            count += *dst;
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Zero the histogram in place (handles stay valid). Not atomic with
    /// respect to concurrent `record`s — callers quiesce recording threads
    /// first, as a reset mid-traffic has no meaningful semantics anyway.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A plain (non-atomic) copy of a [`Histogram`]'s state, supporting
/// quantile queries and off-thread merging.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wraps on overflow; ~584 years of nanoseconds).
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Per-bucket counts, `Histogram::NUM_BUCKETS` entries.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot (identity for [`HistogramSnapshot::merge`]).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; Histogram::NUM_BUCKETS],
        }
    }

    /// Fold another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += *src;
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the rank-`⌈q·count⌉` sample. Guaranteed `exact ≤ reported ≤
    /// exact × 1.125` against the same-rank exact sorted-sample quantile;
    /// `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Histogram::bucket_bounds(idx).1;
            }
        }
        self.max
    }

    /// Arithmetic mean of the samples (`0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The exported fields, in export order: count, sum, the p50/p90/p99
    /// quantiles (bucket upper bounds; ≤12.5% relative error) and the
    /// exact maximum.
    fn exported(&self) -> [(&'static str, u64); 6] {
        [
            ("count", self.count),
            ("sum", self.sum),
            ("p50", self.quantile(0.50)),
            ("p90", self.quantile(0.90)),
            ("p99", self.quantile(0.99)),
            ("max", self.max),
        ]
    }

    /// Render as the stable `key=value` run used by the text exposition.
    pub fn to_text(&self) -> String {
        self.exported().map(|(k, v)| format!("{k}={v}")).join(" ")
    }

    /// The JSON object `{count, sum, p50, p90, p99, max}`.
    pub fn to_json(&self) -> Json {
        Json::Object(
            self.exported()
                .into_iter()
                .map(|(k, v)| (k.to_owned(), Json::UInt(v)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_are_consistent() {
        let mut prev = None;
        for &v in &[
            0u64,
            1,
            7,
            8,
            9,
            15,
            16,
            100,
            1 << 20,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = Histogram::bucket_index(v);
            assert!(idx < Histogram::NUM_BUCKETS, "idx {idx} for {v}");
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert!(
                lo <= v && v <= hi,
                "{v} outside [{lo}, {hi}] of bucket {idx}"
            );
            if let Some(p) = prev {
                assert!(idx >= p);
            }
            prev = Some(idx);
        }
        // Exhaustive containment + monotonicity over the small range.
        for v in 0u64..100_000 {
            let idx = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_bounds(idx);
            assert!(lo <= v && v <= hi);
        }
    }

    #[test]
    fn quantiles_respect_the_error_bound() {
        let h = Histogram::new();
        let samples: Vec<u64> = (0..10_000).map(|i| (i * i) % 1_000_003).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let snap = h.snapshot();
        assert_eq!(snap.count, samples.len() as u64);
        assert_eq!(snap.max, *sorted.last().unwrap());
        for &q in &[0.0, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let est = snap.quantile(q);
            assert!(est >= exact, "q={q}: est {est} < exact {exact}");
            assert!(
                est as f64 <= exact as f64 * 1.125 + 1.0,
                "q={q}: est {est} > 1.125 × exact {exact}"
            );
        }
    }

    #[test]
    fn merge_equals_concatenation() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for i in 0..1000u64 {
            let v = i * 37 % 4096;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.snapshot(), both.snapshot());
    }

    #[test]
    fn gauge_and_counter_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let g = Gauge::new();
        g.set(5);
        g.add(-8);
        assert_eq!(g.get(), -3);
        g.set_u64(u64::MAX);
        assert_eq!(g.get(), i64::MAX);
    }
}
