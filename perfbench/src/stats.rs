//! The benchmark's own statistics: tail percentiles and the rule for
//! when one is supported, quartiles and run-to-run spread, the
//! agreement check between two sets of runs, span self time, and how
//! failed epochs are counted.

use std::collections::BTreeSet;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` (in `[0, 1]`) of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// True when `n` samples hold at least [`MIN_BEYOND`] beyond
/// percentile `p`, so the percentile is not set by a handful of
/// outliers.
pub fn tail_supported(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Blocks a run's windows are cut into for its tail percentile.
pub const TAIL_BLOCKS: usize = 5;

/// The median, over `blocks` consecutive blocks of equal count of
/// `samples` (in the order they arrived), of each block's nearest-rank
/// percentile `p`. A stall confined to fewer than half of the blocks
/// leaves it unmoved, while a tail present in most of the run shows in
/// full. With fewer samples than blocks it is the plain percentile.
pub fn block_percentile(samples: &[f64], p: f64, blocks: usize) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let n = samples.len();
    let blocks = blocks.clamp(1, n);
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| {
            let mut block = samples[b * n / blocks..(b + 1) * n / blocks].to_vec();
            block.sort_by(f64::total_cmp);
            percentile(&block, p)
        })
        .collect();
    median(&per_block)
}

/// Median of unsorted values (mean of the middle pair for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the "exclusive" method, the
/// default of Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Run-to-run spread: the distance between the first and third
/// quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// The verdict of comparing two sets of runs of the same code on one
/// metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agreement {
    /// Spread of the first set.
    pub first_spread: f64,
    /// Spread of the second set.
    pub second_spread: f64,
    /// How much worse the second median is than the first, as a share
    /// of the first (negative when it is better).
    pub drift: f64,
    /// True when both spreads and the drift stay within the bound.
    pub ok: bool,
}

/// Checks two sets of runs of the same code against a metric's bound:
/// each set's spread must stay within `bound`, and the second median
/// may be worse than the first by at most `bound`.
pub fn agree(first: &[f64], second: &[f64], bound: f64, higher_is_better: bool) -> Agreement {
    let first_spread = spread(first);
    let second_spread = spread(second);
    let (m1, m2) = (median(first), median(second));
    let drift = if higher_is_better {
        (m1 - m2) / m1.abs()
    } else {
        (m2 - m1) / m1.abs()
    };
    Agreement {
        first_spread,
        second_spread,
        drift,
        ok: first_spread <= bound && second_spread <= bound && drift <= bound,
    }
}

/// A span's self time: its duration minus the part of its interval
/// that its children cover. Overlapping children count once; the
/// parts of a child outside the parent do not count.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut parts: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    parts.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in parts {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    end.saturating_sub(start) - covered
}

/// Counts failed epochs. An epoch fails once however many of its
/// checks fail; faults the runtime reports without naming an epoch
/// (panics, respawns, retries, ...) each count as one more failed
/// epoch. The count never exceeds the epochs attempted.
#[derive(Debug, Default, Clone)]
pub struct FailureTally {
    attempted: u64,
    failed_epochs: BTreeSet<u64>,
    unattributed: u64,
    reasons: Vec<String>,
}

impl FailureTally {
    /// Records one more attempted epoch.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Marks epoch `epoch` failed, keeping the first few reasons.
    pub fn fail(&mut self, epoch: u64, reason: impl Into<String>) {
        self.failed_epochs.insert(epoch);
        self.note(reason.into());
    }

    /// Counts `n` faults that name no epoch.
    pub fn fail_unattributed(&mut self, n: u64, reason: impl Into<String>) {
        if n > 0 {
            self.unattributed += n;
            self.note(reason.into());
        }
    }

    fn note(&mut self, reason: String) {
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }

    /// Epochs attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Failed epochs, capped at the number attempted.
    pub fn failed(&self) -> u64 {
        (self.failed_epochs.len() as u64 + self.unattributed).min(self.attempted)
    }

    /// Failed epochs over epochs attempted (zero when none were).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// The first recorded failure reasons.
    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(600, 0.99), 6);
        assert!(!tail_supported(19, 0.5));
        assert!(tail_supported(20, 0.5));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.0), 1.0);
    }

    #[test]
    fn block_percentile_ignores_a_tail_in_a_minority_of_blocks() {
        let steady: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        let mut sorted = steady.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(block_percentile(&steady, 0.99, 5), percentile(&sorted, 0.99));
        // A stall lifting 5% of two blocks' samples leaves it unmoved ...
        let mut stalled = steady.clone();
        for i in (0..400).step_by(20) {
            stalled[i] = 1e3;
        }
        assert_eq!(block_percentile(&stalled, 0.99, 5), 98.0);
        // ... while the same stall in three blocks shows.
        for i in (400..600).step_by(20) {
            stalled[i] = 1e3;
        }
        assert_eq!(block_percentile(&stalled, 0.99, 5), 1e3);
        assert_eq!(block_percentile(&[3.0, 1.0], 0.99, 5), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // clamped index extrapolates past the ends.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0; 10]), 0.0);
    }

    #[test]
    fn agreement_checks_spread_and_drift() {
        let steady = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let slower: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        let ok = agree(&steady, &steady, 0.1, true);
        assert!(ok.ok && ok.drift == 0.0);
        // 20% lower throughput breaks a 10% bound ...
        let worse = agree(&steady, &slower, 0.1, true);
        assert!(!worse.ok && (worse.drift - 0.2).abs() < 1e-12);
        // ... but the same move on a lower-is-better metric is a gain.
        assert!(agree(&steady, &slower, 0.1, false).ok);
        // A wide spread fails even with equal medians, in either set.
        let noisy = [
            50.0, 150.0, 100.0, 60.0, 140.0, 100.0, 70.0, 130.0, 100.0, 100.0,
        ];
        assert!(!agree(&noisy, &noisy, 0.1, true).ok);
        assert!(!agree(&steady, &noisy, 0.1, true).ok);
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50)]), 60);
        // Child time outside the parent does not count.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        // Fully covered.
        assert_eq!(self_time(0, 10, &[(0, 10), (2, 3)]), 0);
    }

    #[test]
    fn failed_frac_counts_each_epoch_once() {
        let mut t = FailureTally::default();
        for _ in 0..10 {
            t.attempt();
        }
        assert_eq!(t.failed_frac(), 0.0);
        t.fail(3, "coverage");
        t.fail(3, "sample size");
        assert_eq!(t.failed(), 1);
        t.fail(7, "missing window");
        t.fail_unattributed(2, "retries");
        t.fail_unattributed(0, "nothing");
        assert_eq!(t.failed(), 4);
        assert!((t.failed_frac() - 0.4).abs() < 1e-12);
        t.fail_unattributed(100, "respawns");
        assert_eq!(t.failed(), 10, "capped at attempted");
        assert_eq!(t.reasons().len(), 5);
    }
}
