//! Least-squares fits for cover-time growth models.
//!
//! Figure 1 of the paper overlays `c · n ln n` curves on the odd-degree
//! E-process series ("The constant c used to draw the curve was determined
//! by inspection"); we determine it by least squares instead, plus a plain
//! proportional fit `y = c·x` for the flat even-degree series.
//!
//! Every fit is fallible: `try_fit_*` returns [`Result<Fit, FitError>`],
//! so a degenerate sweep (identical sizes, an empty series, `n < 2` under
//! the `n ln n` model) surfaces as a CLI error instead of a worker panic.
//! A call site that has already validated its input says so with
//! `.expect(…)`.

use std::fmt;

/// Why a least-squares fit could not be computed from the given data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// `x` and `y` have different lengths.
    LengthMismatch {
        /// Number of `x` values.
        x: usize,
        /// Number of `y` values.
        y: usize,
    },
    /// Fewer points than the model can be identified from.
    TooFewPoints {
        /// Minimum points the model needs.
        needed: usize,
        /// Points actually supplied.
        got: usize,
    },
    /// The predictor carries no information: all `x` values are identical
    /// (ordinary least squares) or identically zero (through-origin fit).
    DegenerateX,
    /// The `c·n ln n` model is undefined for `n < 2` (`ln 1 = 0`,
    /// `ln 0` diverges).
    SmallN {
        /// The offending size.
        n: usize,
    },
    /// A non-finite (`NaN`/`±∞`) value appeared in the input.
    NonFinite,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FitError::LengthMismatch { x, y } => {
                write!(f, "x/y length mismatch ({x} x values, {y} y values)")
            }
            FitError::TooFewPoints { needed, got } => {
                write!(f, "need at least {needed} point(s), got {got}")
            }
            FitError::DegenerateX => {
                write!(f, "all x values are identical or zero: slope is undefined")
            }
            FitError::SmallN { n } => write!(f, "n ln n model needs n >= 2, got n = {n}"),
            FitError::NonFinite => write!(f, "non-finite value in fit input"),
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted model with its coefficient of determination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// Intercept (`0` for through-origin models).
    pub intercept: f64,
    /// Slope / proportionality constant.
    pub slope: f64,
    /// Coefficient of determination `R²` relative to the mean model.
    pub r_squared: f64,
}

fn r_squared(y: &[f64], predicted: impl Fn(usize) -> f64) -> f64 {
    let mean = y.iter().sum::<f64>() / y.len() as f64;
    let ss_tot: f64 = y.iter().map(|v| (v - mean) * (v - mean)).sum();
    let ss_res: f64 = y
        .iter()
        .enumerate()
        .map(|(i, v)| (v - predicted(i)).powi(2))
        .sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

fn check_finite(x: &[f64], y: &[f64]) -> Result<(), FitError> {
    if x.iter().chain(y).all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(FitError::NonFinite)
    }
}

/// Ordinary least squares `y = a + b x`.
///
/// # Errors
///
/// [`FitError`] on mismatched lengths, fewer than 2 points, non-finite
/// input, or all `x` identical.
pub fn try_fit_linear(x: &[f64], y: &[f64]) -> Result<Fit, FitError> {
    if x.len() != y.len() {
        return Err(FitError::LengthMismatch {
            x: x.len(),
            y: y.len(),
        });
    }
    if x.len() < 2 {
        return Err(FitError::TooFewPoints {
            needed: 2,
            got: x.len(),
        });
    }
    check_finite(x, y)?;
    let n = x.len() as f64;
    let sx: f64 = x.iter().sum();
    let sy: f64 = y.iter().sum();
    let sxx: f64 = x.iter().map(|v| v * v).sum();
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() <= 1e-300 {
        return Err(FitError::DegenerateX);
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    let rsq = r_squared(y, |i| intercept + slope * x[i]);
    Ok(Fit {
        intercept,
        slope,
        r_squared: rsq,
    })
}

/// Through-origin fit `y = c x` (used for the flat `C_V/n` series: fit
/// cover time proportional to `n`).
///
/// # Errors
///
/// [`FitError`] on mismatched lengths, empty input, non-finite values, or
/// all-zero `x`.
pub fn try_fit_proportional(x: &[f64], y: &[f64]) -> Result<Fit, FitError> {
    if x.len() != y.len() {
        return Err(FitError::LengthMismatch {
            x: x.len(),
            y: y.len(),
        });
    }
    if x.is_empty() {
        return Err(FitError::TooFewPoints { needed: 1, got: 0 });
    }
    check_finite(x, y)?;
    let sxx: f64 = x.iter().map(|v| v * v).sum();
    if sxx <= 0.0 {
        return Err(FitError::DegenerateX);
    }
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
    let c = sxy / sxx;
    let rsq = r_squared(y, |i| c * x[i]);
    Ok(Fit {
        intercept: 0.0,
        slope: c,
        r_squared: rsq,
    })
}

/// Fits `y = c · n ln n` to `(n, y)` pairs — the model the paper draws over
/// Figure 1's odd-degree series.
///
/// # Errors
///
/// [`FitError`] on mismatched lengths, empty input, non-finite `y`, or any
/// `n < 2`.
pub fn try_fit_c_nlogn(ns: &[usize], y: &[f64]) -> Result<Fit, FitError> {
    if ns.len() != y.len() {
        return Err(FitError::LengthMismatch {
            x: ns.len(),
            y: y.len(),
        });
    }
    if ns.is_empty() {
        return Err(FitError::TooFewPoints { needed: 1, got: 0 });
    }
    if let Some(&n) = ns.iter().find(|&&n| n < 2) {
        return Err(FitError::SmallN { n });
    }
    let x: Vec<f64> = ns.iter().map(|&n| n as f64 * (n as f64).ln()).collect();
    try_fit_proportional(&x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_linear_fit() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        let fit = try_fit_linear(&x, &y).unwrap();
        assert!((fit.intercept - 1.0).abs() < 1e-10);
        assert!((fit.slope - 2.0).abs() < 1e-10);
        assert!((fit.r_squared - 1.0).abs() < 1e-10);
    }

    #[test]
    fn noisy_linear_fit_r2_below_one() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.1, 3.9, 6.2, 7.8, 10.1];
        let fit = try_fit_linear(&x, &y).unwrap();
        assert!(fit.r_squared > 0.99);
        assert!(fit.r_squared < 1.0);
        assert!((fit.slope - 2.0).abs() < 0.1);
    }

    #[test]
    fn proportional_fit_recovers_constant() {
        let x = [10.0, 20.0, 40.0];
        let y: Vec<f64> = x.iter().map(|v| 3.5 * v).collect();
        let fit = try_fit_proportional(&x, &y).unwrap();
        assert!((fit.slope - 3.5).abs() < 1e-10);
        assert_eq!(fit.intercept, 0.0);
    }

    #[test]
    fn nlogn_fit_recovers_constant() {
        let ns = [1000usize, 2000, 4000, 8000, 16000];
        let y: Vec<f64> = ns
            .iter()
            .map(|&n| 0.93 * n as f64 * (n as f64).ln())
            .collect();
        let fit = try_fit_c_nlogn(&ns, &y).unwrap();
        assert!((fit.slope - 0.93).abs() < 1e-9, "c = {}", fit.slope);
        assert!(fit.r_squared > 1.0 - 1e-9);
    }

    #[test]
    fn nlogn_fit_rejects_linear_data() {
        // y = 5n is poorly explained by c·n ln n over a wide range: the
        // best c underfits small n and overfits large n.
        let ns = [100usize, 1000, 10_000, 100_000];
        let y: Vec<f64> = ns.iter().map(|&n| 5.0 * n as f64).collect();
        let fit = try_fit_c_nlogn(&ns, &y).unwrap();
        let linear_fit = {
            let x: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
            try_fit_proportional(&x, &y).unwrap()
        };
        assert!(
            linear_fit.r_squared > fit.r_squared,
            "linear model must win on linear data"
        );
    }

    #[test]
    fn try_fits_return_typed_errors() {
        assert_eq!(
            try_fit_linear(&[2.0, 2.0], &[1.0, 5.0]),
            Err(FitError::DegenerateX)
        );
        assert_eq!(
            try_fit_linear(&[1.0], &[1.0]),
            Err(FitError::TooFewPoints { needed: 2, got: 1 })
        );
        assert_eq!(
            try_fit_proportional(&[1.0], &[1.0, 2.0]),
            Err(FitError::LengthMismatch { x: 1, y: 2 })
        );
        assert_eq!(
            try_fit_proportional(&[], &[]),
            Err(FitError::TooFewPoints { needed: 1, got: 0 })
        );
        assert_eq!(
            try_fit_proportional(&[0.0, 0.0], &[1.0, 2.0]),
            Err(FitError::DegenerateX)
        );
        assert_eq!(
            try_fit_c_nlogn(&[1, 100], &[1.0, 2.0]),
            Err(FitError::SmallN { n: 1 })
        );
        assert_eq!(
            try_fit_c_nlogn(&[], &[]),
            Err(FitError::TooFewPoints { needed: 1, got: 0 })
        );
        assert_eq!(
            try_fit_linear(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(FitError::NonFinite)
        );
        assert_eq!(
            try_fit_proportional(&[1.0, 2.0], &[f64::INFINITY, 2.0]),
            Err(FitError::NonFinite)
        );
    }

    #[test]
    fn fit_error_messages_name_the_problem() {
        assert!(FitError::DegenerateX.to_string().contains("identical"));
        assert!(FitError::LengthMismatch { x: 1, y: 2 }
            .to_string()
            .contains("length mismatch"));
        assert!(FitError::SmallN { n: 1 }.to_string().contains("n >= 2"));
        assert!(FitError::NonFinite.to_string().contains("non-finite"));
    }
}
