//! Sample statistics for gated numbers: exact nearest-rank percentiles
//! over raw nanosecond samples and median/quartile summaries. The log₂
//! `Histogram` the serving crate uses reports quantiles only as 2ⁿ−1, so
//! it is never used for a number this benchmark gates.

use std::time::Instant;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Raw per-request latencies in nanoseconds, kept in a `Vec`.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
    sorted: bool,
}

impl LatencyRecorder {
    pub fn with_capacity(cap: usize) -> Self {
        LatencyRecorder {
            samples: Vec::with_capacity(cap),
            sorted: true,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.samples.push(ns);
        self.sorted = false;
    }

    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Exact nearest-rank percentile (`p` in `(0, 100]`) in nanoseconds.
    /// Refuses a percentile with fewer than [`MIN_BEYOND`] samples beyond
    /// it: such a value is set by a handful of requests and cannot repeat.
    pub fn percentile(&mut self, p: f64) -> Result<u64, String> {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        percentile_nearest_rank(&self.samples, p)
    }
}

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(p/100 · n)`.
pub fn percentile_nearest_rank(sorted: &[u64], p: f64) -> Result<u64, String> {
    if !(p > 0.0 && p <= 100.0) {
        return Err(format!("percentile {p} outside (0, 100]"));
    }
    let n = sorted.len();
    if n == 0 {
        return Err(format!("p{p}: no samples"));
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p}: only {beyond} of {n} samples beyond it (need {MIN_BEYOND})"
        ));
    }
    Ok(sorted[rank - 1])
}

/// Min, quartiles and max of a set of repetitions; printed beside every
/// median so a reader sees the spread the median hides.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Quartiles follow Python's `statistics.quantiles(values, n=4)`
    /// (exclusive method), the rule the acceptance check applies, so the
    /// spread printed here is the spread that is judged. One sample is
    /// its own summary.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        let n = v.len();
        let cut = |i: usize| -> f64 {
            if n == 1 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            n,
            min: v[0],
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
            max: v[n - 1],
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// Wall seconds of one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Median seconds per call of `f` over `batches` batches of `per_batch`
/// calls each (one untimed warm-up batch first).
pub fn per_call_s(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..per_batch {
        f();
    }
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_nearest_rank(&v, 50.0), Ok(50));
        assert_eq!(percentile_nearest_rank(&v, 90.0), Ok(90));
        // 0.5 % of 100 rounds up to rank 1.
        assert_eq!(percentile_nearest_rank(&v, 0.5), Ok(1));
        let v: Vec<u64> = (1..=1000).map(|x| x * 3).collect();
        assert_eq!(percentile_nearest_rank(&v, 99.0), Ok(990 * 3));
    }

    #[test]
    fn a_percentile_without_ten_samples_beyond_it_is_refused() {
        let v: Vec<u64> = (1..=100).collect();
        // p99 of 100 samples has one sample beyond it.
        assert!(percentile_nearest_rank(&v, 99.0)
            .unwrap_err()
            .contains("only 1 of 100"));
        // p90 has exactly ten.
        assert_eq!(percentile_nearest_rank(&v, 90.0), Ok(90));
        assert!(percentile_nearest_rank(&v, 91.0).is_err());
        assert!(percentile_nearest_rank(&[], 50.0).is_err());
        assert!(percentile_nearest_rank(&v, 0.0).is_err());
        assert!(percentile_nearest_rank(&v, 100.5).is_err());
    }

    #[test]
    fn recorder_sorts_lazily_and_merges() {
        let mut a = LatencyRecorder::with_capacity(4);
        for ns in [50u64, 10, 40] {
            a.record(ns);
        }
        let mut b = LatencyRecorder::default();
        for ns in 0..40u64 {
            b.record(100 + ns);
        }
        a.merge(&b);
        assert_eq!(a.len(), 43);
        // rank ceil(0.5 * 43) = 22 → third of the originals plus 19 of b.
        assert_eq!(a.percentile(50.0), Ok(118));
        a.record(1);
        assert_eq!(a.percentile(50.0), Ok(117));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
    }
}
