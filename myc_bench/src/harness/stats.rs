//! Order statistics over small sample sets.

/// Median, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median (mean of the two middle samples for an even count).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Summarises `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Some(Summary {
        median,
        min: v[0],
        max: v[n - 1],
        n,
    })
}

/// The median of `samples` (0 when empty, so an absent layer reads 0).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// Nearest-rank percentile (`p` in 0..=100) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_and_even_counts() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert_eq!(summarize(&[]), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Fewer samples than the percentile resolves: the maximum.
        assert_eq!(percentile(&[5.0, 9.0, 1.0], 99.0), 9.0);
        assert_eq!(percentile(&[5.0, 9.0, 1.0], 50.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
