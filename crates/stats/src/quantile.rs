//! Exact quantiles for in-memory samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of the samples using linear interpolation
/// between order statistics (type-7, the numpy/R default). Returns `None`
/// for an empty slice; NaNs are rejected by assertion.
#[expect(
    clippy::cast_possible_truncation,
    reason = "q in [0, 1] scales an index of the sorted samples"
)]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
    if samples.is_empty() {
        return None;
    }
    let mut xs: Vec<f64> = samples.to_vec();
    assert!(
        xs.iter().all(|x| !x.is_nan()),
        "quantile of NaN is undefined"
    );
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let h = q * (xs.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        Some(xs[lo])
    } else {
        Some(xs[lo] + (h - lo as f64) * (xs[hi] - xs[lo]))
    }
}

/// Median convenience wrapper.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&xs, 0.5), Some(3.0));
        assert_eq!(quantile(&xs, 0.25), Some(2.0));
    }

    #[test]
    fn interpolation() {
        let xs = [0.0, 10.0];
        assert_eq!(quantile(&xs, 0.5), Some(5.0));
        assert_eq!(quantile(&xs, 0.75), Some(7.5));
    }

    #[test]
    fn unsorted_input() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), Some(3.0));
    }

    #[test]
    fn empty_none() {
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[7.0], 0.0), Some(7.0));
        assert_eq!(quantile(&[7.0], 0.5), Some(7.0));
        assert_eq!(quantile(&[7.0], 1.0), Some(7.0));
    }

    #[test]
    #[should_panic]
    fn out_of_range_q() {
        quantile(&[1.0], 1.5);
    }
}
