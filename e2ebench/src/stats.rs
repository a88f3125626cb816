//! Order statistics and the seeded generator the workloads draw from.

/// Samples that must lie strictly beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Requests a run keeps issuing past its deadline until p90 has
/// [`TAIL_SAMPLES`] samples beyond it.
pub const MIN_REQUESTS: usize = 100;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`: the smallest sample
/// with at least `p`% of the samples at or below it.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest whole percentile in 50..=99 that keeps at least
/// [`TAIL_SAMPLES`] samples beyond it, or `None` when even the median
/// does not.
pub fn highest_reportable_percentile(n: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| n > 0 && samples_beyond(n, f64::from(p)) >= TAIL_SAMPLES)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// SplitMix64: the benchmark's own seeded generator, so inputs depend
/// only on `--seed`.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 finaliser: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(MIN_REQUESTS, 90.0), TAIL_SAMPLES);
    }

    #[test]
    fn highest_percentile_keeps_ten_beyond() {
        assert_eq!(highest_reportable_percentile(0), None);
        assert_eq!(highest_reportable_percentile(19), None);
        assert_eq!(highest_reportable_percentile(20), Some(50));
        assert_eq!(highest_reportable_percentile(100), Some(90));
        assert_eq!(highest_reportable_percentile(200), Some(95));
        assert_eq!(highest_reportable_percentile(1000), Some(99));
        for n in 20..2000 {
            let p = highest_reportable_percentile(n).expect("n ≥ 20");
            assert!(samples_beyond(n, f64::from(p)) >= TAIL_SAMPLES);
            if p < 99 {
                assert!(samples_beyond(n, f64::from(p + 1)) < TAIL_SAMPLES, "n={n}");
            }
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..54).collect();
        let mut b = a.clone();
        SplitMix(7).shuffle(&mut a);
        SplitMix(7).shuffle(&mut b);
        assert_eq!(a, b);
        a.sort_unstable();
        assert_eq!(a, (0..54).collect::<Vec<_>>());
    }
}
