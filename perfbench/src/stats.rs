//! Order statistics the benchmark reports: medians, the tail rule, and
//! ratios that carry their base.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Samples that must lie strictly above a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency under the benchmark's rule: the highest percentile that
/// still has [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value stands for, `100 · (n − 10) / n`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
}

/// The tail of `values`: the order statistic with exactly
/// [`TAIL_BEYOND`] samples above it. `None` when there are too few samples
/// for any percentile to have ten beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: sorted[n - TAIL_BEYOND - 1],
        samples: n,
    })
}

/// A ratio printed beside its base, so a reader can tell "0 of 0" from
/// "0 of 1000".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// `num / base`, or `0.0` when the base is zero.
    pub value: f64,
    /// The numerator.
    pub num: f64,
    /// The denominator.
    pub base: f64,
}

/// `num / base`, defined as `0.0` for a zero base (nothing happened, so
/// nothing happened at any rate).
pub fn ratio(num: f64, base: f64) -> Ratio {
    let value = if base == 0.0 { 0.0 } else { num / base };
    Ratio { value, num, base }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).expect("100 samples have a tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        let beyond = values.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert!(tail(&ten).is_none());
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&eleven).expect("11 samples leave one below ten");
        assert_eq!(t.value, 0.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut values: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40)).collect();
        let a = tail(&values).expect("tail");
        values.reverse();
        assert_eq!(tail(&values), Some(a));
        assert_eq!(a.value, 29.0);
    }

    #[test]
    fn ratio_with_zero_base_is_zero_and_keeps_the_base() {
        let r = ratio(0.0, 0.0);
        assert_eq!(r.value, 0.0);
        assert_eq!(r.base, 0.0);
        let r = ratio(5.0, 0.0);
        assert_eq!(r.value, 0.0);
        assert_eq!(r.num, 5.0);
        let r = ratio(3.0, 4.0);
        assert_eq!(r.value, 0.75);
    }
}
