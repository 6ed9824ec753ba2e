//! Summary arithmetic: medians, quartiles, the reported tail
//! percentile, and failure counting.

/// Percentiles a timing may be reported at, highest first, in tenths
/// of a percent (integers, so the ten-sample rule is exact).
const TAIL_LADDER: [u64; 4] = [999, 990, 900, 500];

/// Value at percentile `p` (0–100) of `xs`, by linear interpolation
/// between closest ranks (the same rule as `numpy.percentile`'s
/// default). `None` for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Median of `xs` (`0.0` for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0).unwrap_or(0.0)
}

/// A run's figure for a timing sampled over several seeds: the mean,
/// over the seeds, of each seed's median. Cells of different seeds do
/// different amounts of work, so this weighs every seed the same
/// however many samples each has. `0.0` for an empty sample.
pub fn seed_balanced(xs: &[(u64, f64)]) -> f64 {
    let mut by_seed: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(s, x) in xs {
        by_seed.entry(s).or_default().push(x);
    }
    if by_seed.is_empty() {
        return 0.0;
    }
    by_seed.values().map(|v| median(v)).sum::<f64>() / by_seed.len() as f64
}

/// First and third quartiles, by the method of Python's
/// `statistics.quantiles(xs, n=4)` (its default, "exclusive"), which
/// is how run-to-run spread is judged. A single sample is its own
/// quartiles; an empty one gives zeros.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// of `n` samples beyond it; `None` below 20 samples, where even the
/// median has fewer than ten above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n as u64 * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// A timing summarized as median, the supported tail, and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// Value at [`Summary::tail_p`].
    pub tail: f64,
    /// The percentile `tail` was taken at (0 when there were too few
    /// samples for any).
    pub tail_p: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarize `xs`.
    pub fn of(xs: &[f64]) -> Self {
        let tail_p = tail_percentile(xs.len()).unwrap_or(0.0);
        Self {
            p50: median(xs),
            tail: if tail_p > 0.0 {
                percentile(xs, tail_p).unwrap_or(0.0)
            } else {
                0.0
            },
            tail_p,
            n: xs.len(),
        }
    }
}

/// Attempts and failures of one benchmark run.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Units of work attempted (passes, or ops for `control`).
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Why each failure was counted, in order.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one attempt that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Count one attempt that failed, and why.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.reasons.push(why.into());
    }

    /// Count `attempts`, of which one per entry of `failures` failed.
    pub fn add(&mut self, attempts: u64, failures: &[String]) {
        self.attempted += attempts;
        self.failed += failures.len() as u64;
        self.reasons.extend_from_slice(failures);
    }

    /// Count one attempt; it fails with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(why());
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn seed_balanced_weighs_each_seed_once() {
        // Seed 1: median 2; seed 2: median 10 from one sample.
        let xs = [(1, 1.0), (1, 2.0), (1, 9.0), (2, 10.0)];
        assert_eq!(seed_balanced(&xs), 6.0);
        assert_eq!(seed_balanced(&[(7, 3.5)]), 3.5);
        assert_eq!(seed_balanced(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[5.0, 1.0]), (0.0, 6.0));
        // statistics.quantiles([4, 1, 3, 2, 9], n=4) == [1.5, 3.0, 6.5]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 9.0]), (1.5, 6.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 100, 1000, 10_000, 123_456] {
            let p = tail_percentile(n).unwrap();
            assert!(n as f64 * (100.0 - p) >= 1000.0 - 1e-6);
        }
    }

    #[test]
    fn summary_reports_p99_with_a_thousand_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 1000);
        assert_eq!(s.tail_p, 99.0);
        assert!((s.tail - 990.01).abs() < 1e-9);
        assert_eq!(s.p50, 500.5);
        let few = Summary::of(&[1.0, 2.0]);
        assert_eq!((few.tail_p, few.tail), (0.0, 0.0));
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        t.ok();
        t.check(true, || unreachable!());
        t.check(false, || "digest differs".into());
        t.fail("panic");
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.fail_ratio(), 0.5);
        t.add(4, &["op 7: tenant 3 unknown".into()]);
        assert_eq!((t.attempted, t.failed), (8, 3));
        assert_eq!(
            t.reasons,
            ["digest differs", "panic", "op 7: tenant 3 unknown"]
        );
    }
}
