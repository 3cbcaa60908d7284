//! Sample statistics the ledger reports: percentiles that obey the "ten
//! samples beyond" rule, block-to-per-op latency, quartile spreads for the
//! repeatability tool, and the pass differencing behind the per-layer self
//! times.

/// The percentiles a latency may be reported at, lowest first, in
/// thousandths: p50, p90, p95, p99, p99.9.
const LADDER_PER_MILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// The highest percentile of the ladder, at most `wanted`, that still has
/// at least ten samples beyond it in a sample of `n`. The median is the
/// floor: it is reported for any non-empty sample.
///
/// "Beyond" counts the samples above the nearest-rank one [`percentile`]
/// reports, in whole numbers: in floating point `1 − 90/100` falls just
/// short of a tenth, and the hundredth sample's ten would count as nine.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    let mut best = LADDER_PER_MILLE[0];
    for pm in LADDER_PER_MILLE {
        let rank = (n * pm).div_ceil(1000);
        if pm as f64 / 10.0 <= wanted && n - rank >= 10 {
            best = pm;
        }
    }
    best as f64 / 10.0
}

/// Nearest-rank percentile `p` (0–100) of a sample; 0 for an empty sample.
pub fn percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// A latency percentile picked under the "ten samples beyond" rule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Picked {
    /// The value at `percentile`, in the samples' own unit.
    pub value: f64,
    /// The percentile actually reported (`wanted`, or the highest one the
    /// sample supports when it is too small for `wanted`).
    pub percentile: f64,
    /// Sample count.
    pub n: usize,
}

/// `wanted` percentile of `samples`, lowered to what the sample supports.
pub fn pick(samples: &[u64], wanted: f64) -> Picked {
    let p = supported_percentile(samples.len(), wanted);
    Picked {
        value: percentile(samples, p),
        percentile: p,
        n: samples.len(),
    }
}

/// Reads are timed in blocks of `ops_per_block` operations; a block's wall
/// time divided by the block size is one per-op latency sample.
pub fn per_op(block_nanos: f64, ops_per_block: usize) -> f64 {
    block_nanos / ops_per_block.max(1) as f64
}

/// Median of a sample of floats (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of a sample of floats; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default "exclusive" method). Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// A layer's self time: the difference between two adjacent stack passes
/// over the same stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelfTime {
    /// `upper − lower`, clamped at 0, in the passes' own unit.
    pub busy: f64,
    /// The raw difference was negative by more than the noise allowance:
    /// the passes are not ordered as the stack says they should be.
    pub negative_beyond_noise: bool,
}

/// Share of the lower pass a negative difference may reach before it is
/// flagged; below it the two passes are taken to cost the same.
pub const NOISE_SHARE: f64 = 0.05;

/// Difference `upper − lower` of two pass totals (see [`SelfTime`]).
pub fn self_time(upper: f64, lower: f64) -> SelfTime {
    let raw = upper - lower;
    SelfTime {
        busy: raw.max(0.0),
        negative_beyond_noise: raw < -NOISE_SHARE * lower.abs(),
    }
}

/// Per-batch differences `upper[i] − lower[i]` clamped at 0, over the
/// batches both passes ran.
pub fn per_batch_self(upper: &[u64], lower: &[u64]) -> Vec<u64> {
    upper
        .iter()
        .zip(lower)
        .map(|(u, l)| u.saturating_sub(*l))
        .collect()
}

/// Sum of the first and of the last fifth of a per-batch series.
pub fn fifths(series: &[u64]) -> (u64, u64) {
    let k = (series.len() / 5).max(1).min(series.len());
    let first = series[..k].iter().sum();
    let last = series[series.len() - k..].iter().sum();
    (first, last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_needs_ten_samples_beyond() {
        // p95 leaves 5 % beyond: 200 samples are the least that support it.
        assert_eq!(supported_percentile(199, 95.0), 90.0);
        assert_eq!(supported_percentile(200, 95.0), 95.0);
        // p99 needs 1 000, and is never exceeded even when more is supported.
        assert_eq!(supported_percentile(999, 99.0), 95.0);
        assert_eq!(supported_percentile(1_000, 99.0), 99.0);
        assert_eq!(supported_percentile(1_000_000, 99.0), 99.0);
        // Exactly ten beyond counts as ten: 1 − 0.9 is not a tenth in floats.
        assert_eq!(supported_percentile(100, 99.0), 90.0);
        assert_eq!(supported_percentile(99, 99.0), 50.0);
        // Tiny samples fall back to the median.
        assert_eq!(supported_percentile(5, 95.0), 50.0);
        assert_eq!(supported_percentile(0, 95.0), 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[7], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let picked = pick(&s, 99.0);
        assert_eq!(
            (picked.percentile, picked.value, picked.n),
            (90.0, 90.0, 100)
        );
    }

    #[test]
    fn block_time_is_spread_over_its_ops() {
        assert_eq!(per_op(3_200.0, 32), 100.0);
        assert_eq!(per_op(10.0, 0), 10.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn pass_differencing_clamps_and_flags() {
        let s = self_time(12.0, 10.0);
        assert_eq!((s.busy, s.negative_beyond_noise), (2.0, false));
        // Slightly negative: noise, clamped, not flagged.
        let s = self_time(9.8, 10.0);
        assert_eq!((s.busy, s.negative_beyond_noise), (0.0, false));
        // Clearly negative: clamped and flagged.
        let s = self_time(8.0, 10.0);
        assert_eq!((s.busy, s.negative_beyond_noise), (0.0, true));
        assert_eq!(per_batch_self(&[5, 3, 9], &[2, 4, 9]), vec![3, 0, 0]);
        assert_eq!(fifths(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), (3, 19));
        assert_eq!(fifths(&[4]), (4, 4));
    }
}
