//! Exact percentiles of the benchmark's own raw samples.

/// The `q`-quantile of ascending `sorted` samples, interpolating
/// linearly between the two closest ranks (the "R-7" definition,
/// numpy's default). Every percentile the benchmark prints comes from
/// here, never from a bucketed histogram.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q));
    let h = (sorted.len() - 1) as f64 * q;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// A latency distribution: its size, median, p90, mean, and how many
/// samples lie strictly beyond p90.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub mean: f64,
    pub beyond_p90: usize,
}

/// Samples beyond p90 a reported p90 must rest on.
pub const MIN_BEYOND_P90: usize = 10;

/// Summarize raw samples (any order). `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let p90 = quantile(&s, 0.9);
    Some(Summary {
        n: s.len(),
        p50: quantile(&s, 0.5),
        p90,
        mean: s.iter().sum::<f64>() / s.len() as f64,
        beyond_p90: s.iter().filter(|&&x| x > p90).count(),
    })
}

/// The median of raw samples, 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_inputs() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&ten, 0.0), 1.0);
        assert_eq!(quantile(&ten, 0.5), 5.5);
        assert!((quantile(&ten, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(quantile(&ten, 1.0), 10.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(quantile(&[1.0, 3.0, 5.0], 0.5), 3.0);
    }

    #[test]
    fn summary_sorts_and_counts_the_tail() {
        // 100 down to 1: p50 50.5, p90 90.1, and 91..=100 lie beyond it.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        assert!((s.p90 - 90.1).abs() < 1e-9);
        assert_eq!(s.beyond_p90, 10);
        assert_eq!(s.mean, 50.5);
    }

    #[test]
    fn quantiles_are_not_powers_of_two() {
        // The log2 histogram would report 65 535 ns for all of these.
        let xs = [66_000.0, 66_100.0, 66_200.0];
        assert_eq!(summarize(&xs).unwrap().p50, 66_100.0);
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[]), 0.0);
    }
}
