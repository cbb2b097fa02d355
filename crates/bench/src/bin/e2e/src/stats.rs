//! Exact sample statistics: sorted-sample percentiles within one rep, and
//! the median / min / max over reps that every reported value goes through.

/// Summary of one rep's per-call times, from the sorted samples themselves
/// (not a bucketed histogram).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStats {
    pub n: usize,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
}

/// The `p`-th percentile (0..=100) of an ascending slice, by the
/// nearest-rank rule: the smallest sample with at least `p` percent of the
/// samples at or below it. Empty input gives 0.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Folds per-call nanosecond samples into [`CallStats`].
pub fn call_stats(samples_ns: &[u32]) -> CallStats {
    if samples_ns.is_empty() {
        return CallStats::default();
    }
    let mut us: Vec<f64> = samples_ns.iter().map(|&ns| f64::from(ns) / 1e3).collect();
    us.sort_by(f64::total_cmp);
    CallStats {
        n: us.len(),
        mean_us: us.iter().sum::<f64>() / us.len() as f64,
        p50_us: percentile_sorted(&us, 50.0),
        p99_us: percentile_sorted(&us, 99.0),
        max_us: us[us.len() - 1],
    }
}

/// A value measured once per rep, reduced over the reps.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverReps {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// First and third quartile (equal to the median below two reps).
    pub q1: f64,
    pub q3: f64,
    pub reps: usize,
}

impl OverReps {
    /// A single reading.
    pub fn once(value: f64) -> Self {
        OverReps {
            median: value,
            min: value,
            max: value,
            q1: value,
            q3: value,
            reps: 1,
        }
    }

    /// `(max - min) / median`: how far apart the reps of one run landed.
    pub fn spread_frac(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

/// The quartiles of Python's `statistics.quantiles(values, n=4)` (the
/// exclusive method) over an ascending slice of at least two values.
fn quartiles_sorted(v: &[f64]) -> [f64; 3] {
    let m = v.len() + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Median (mean of the two middle values for an even count), quartiles,
/// min and max.
pub fn over_reps(values: &[f64]) -> OverReps {
    if values.is_empty() {
        return OverReps::default();
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return OverReps::once(v[0]);
    }
    let [q1, median, q3] = quartiles_sorted(&v);
    OverReps {
        median,
        min: v[0],
        max: v[v.len() - 1],
        q1,
        q3,
        reps: v.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    over_reps(values).median
}

/// Interquartile range over the median — the spread the benchmark contract
/// is judged by.
pub fn iqr_frac(values: &[f64]) -> f64 {
    let r = over_reps(values);
    if r.median == 0.0 {
        0.0
    } else {
        (r.q3 - r.q1) / r.median.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn call_stats_from_unsorted_nanos() {
        let st = call_stats(&[4000, 1000, 3000, 2000]);
        assert_eq!(st.n, 4);
        assert_eq!(st.p50_us, 2.0);
        assert_eq!(st.p99_us, 4.0);
        assert_eq!(st.max_us, 4.0);
        assert_eq!(st.mean_us, 2.5);
    }

    #[test]
    fn median_of_reps_odd_and_even() {
        let odd = over_reps(&[5.0, 1.0, 3.0]);
        assert_eq!((odd.median, odd.min, odd.max, odd.reps), (3.0, 1.0, 5.0, 3));
        assert_eq!((odd.q1, odd.q3), (1.0, 5.0));
        assert_eq!(over_reps(&[7.0]), OverReps::once(7.0));
        let even = over_reps(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.median, 2.5);
        assert!((even.spread_frac() - 1.2).abs() < 1e-12);
        assert_eq!(over_reps(&[]).reps, 0);
    }

    #[test]
    fn iqr_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_frac(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((iqr_frac(&[4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
    }
}
