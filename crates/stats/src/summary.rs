//! Descriptive statistics for batches of measurements.

use std::fmt;

/// An order statistic was requested of an empty sample (or an empty
/// [`QuantileSketch`](crate::QuantileSketch)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptySample;

impl fmt::Display for EmptySample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot take a quantile of an empty sample")
    }
}

impl std::error::Error for EmptySample {}

/// Descriptive statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample variance (0 for `n < 2`).
    pub variance: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Median (midpoint of the two central order statistics for even `n`).
    pub median: f64,
}

impl Summary {
    /// Summarises a nonempty sample.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or contains NaN.
    pub fn from_slice(data: &[f64]) -> Summary {
        assert!(!data.is_empty(), "cannot summarise an empty sample");
        assert!(data.iter().all(|x| !x.is_nan()), "sample contains NaN");
        let n = data.len();
        let mean = data.iter().sum::<f64>() / n as f64;
        let variance = if n >= 2 {
            data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Summary {
            n,
            mean,
            variance,
            std_dev: variance.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: interpolate_sorted(&sorted, 0.5),
        }
    }

    /// Summarises integer measurements (cover times are `u64`).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn from_u64(data: &[u64]) -> Summary {
        let floats: Vec<f64> = data.iter().map(|&x| x as f64).collect();
        Summary::from_slice(&floats)
    }
}

/// Linear interpolation of order statistics over an already-sorted
/// nonempty slice: position `q·(n-1)`, interpolated between the
/// bracketing items. This is the one interpolation rule shared by
/// [`quantile`], `Summary::median` (`q = 0.5`) and the weighted variant
/// in [`crate::sketch`].
fn interpolate_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) by linear interpolation of order
/// statistics.
///
/// # Errors
///
/// [`EmptySample`] if `data` is empty.
///
/// # Panics
///
/// Panics if `data` contains NaN or `q` is outside `[0, 1]`.
pub fn quantile(data: &[f64], q: f64) -> Result<f64, EmptySample> {
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1], got {q}");
    if data.is_empty() {
        return Err(EmptySample);
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    Ok(interpolate_sorted(&sorted, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_summary() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.variance - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn even_sample_median() {
        let s = Summary::from_slice(&[4.0, 1.0, 3.0, 2.0]);
        assert!((s.median - 2.5).abs() < 1e-12);
    }

    #[test]
    fn median_is_the_half_quantile() {
        for data in [
            vec![7.0],
            vec![4.0, 1.0, 3.0, 2.0],
            vec![9.0, 2.0, 5.0, 1.0, 8.0],
            vec![1.5, 1.5, 2.5, 100.0, -3.0, 0.0],
        ] {
            let s = Summary::from_slice(&data);
            assert_eq!(s.median, quantile(&data, 0.5).unwrap());
        }
    }

    #[test]
    fn singleton_sample() {
        let s = Summary::from_slice(&[7.0]);
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn from_u64_converts() {
        let s = Summary::from_u64(&[10, 20, 30]);
        assert!((s.mean - 20.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0), Ok(1.0));
        assert_eq!(quantile(&data, 1.0), Ok(4.0));
        assert!((quantile(&data, 0.5).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_quantile_is_an_error_not_a_panic() {
        assert_eq!(quantile(&[], 0.5), Err(EmptySample));
        assert!(EmptySample.to_string().contains("empty"));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        let _ = Summary::from_slice(&[]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Summary::from_slice(&[1.0, f64::NAN]);
    }
}
