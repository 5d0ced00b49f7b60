//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark prints is a nearest-rank value: the
//! smallest sample such that at least `p` percent of all samples are at or
//! below it. Nothing is bucketed or interpolated, so a printed value is
//! always one that was observed.

/// A sorted set of raw samples.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<u64>,
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

impl Dist {
    /// Takes ownership of `samples` and sorts them.
    pub fn new(mut samples: Vec<u64>) -> Dist {
        samples.sort_unstable();
        Dist { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
    /// samples: `ceil(p/100 · n)`, at least 1.
    pub fn rank(n: usize, p: u32) -> usize {
        (n * p as usize).div_ceil(100).max(1)
    }

    /// The nearest-rank `p`-th percentile, `None` when empty.
    pub fn pct(&self, p: u32) -> Option<u64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[Dist::rank(self.sorted.len(), p) - 1])
    }

    /// Samples strictly after the percentile's rank.
    pub fn beyond(&self, p: u32) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        self.sorted.len() - Dist::rank(self.sorted.len(), p)
    }

    /// The percentile, only when at least [`MIN_BEYOND`] samples lie
    /// beyond it (a median needs the same support).
    pub fn supported(&self, p: u32) -> Option<u64> {
        if self.beyond(p) >= MIN_BEYOND {
            self.pct(p)
        } else {
            None
        }
    }
}

/// Median of host-time measurements (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        // 1..=100: the p-th percentile is exactly p.
        let d = Dist::new((1..=100).rev().collect());
        assert_eq!(d.pct(50), Some(50));
        assert_eq!(d.pct(99), Some(99));
        assert_eq!(d.pct(100), Some(100));
        assert_eq!(d.pct(1), Some(1));
    }

    #[test]
    fn ranks_round_up() {
        assert_eq!(Dist::rank(10, 50), 5);
        assert_eq!(Dist::rank(11, 50), 6);
        assert_eq!(Dist::rank(1, 99), 1);
        assert_eq!(Dist::rank(1000, 99), 990);
        assert_eq!(Dist::rank(1001, 99), 991);
        let d = Dist::new(vec![7, 3, 9]);
        assert_eq!(d.pct(50), Some(7));
        assert_eq!(d.pct(1), Some(3));
    }

    #[test]
    fn values_are_observed_samples() {
        let d = Dist::new(vec![1000, 10, 10, 10]);
        // No interpolation between 10 and 1000.
        assert_eq!(d.pct(75), Some(10));
        assert_eq!(d.pct(76), Some(1000));
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let small = Dist::new((0..1009).collect());
        assert_eq!(small.beyond(99), 1009 - 999);
        assert!(small.supported(99).is_some());
        let smaller = Dist::new((0..1000).collect());
        assert_eq!(smaller.beyond(99), 10);
        assert!(smaller.supported(99).is_some());
        let tiny = Dist::new((0..999).collect());
        assert_eq!(tiny.beyond(99), 9);
        assert_eq!(tiny.supported(99), None);
        assert_eq!(Dist::default().pct(50), None);
    }

    #[test]
    fn median_of_host_times() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
