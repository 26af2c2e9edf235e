//! Property tests for the fallible fit APIs: every degenerate input
//! class must map to its typed [`FitError`] (never a panic), and valid
//! inputs must recover the law they were drawn from.

use eproc_stats::regression::{try_fit_c_nlogn, try_fit_linear, try_fit_proportional, FitError};
use eproc_stats::scaling::{fit_growth_models, GrowthModel, ScalingPoint};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn identical_x_yields_degenerate_error(x in -1000i64..1000, len in 2usize..20, seed in 0u64..1000) {
        let xs = vec![x as f64; len];
        let ys: Vec<f64> = (0..len).map(|i| (seed + i as u64) as f64).collect();
        prop_assert_eq!(try_fit_linear(&xs, &ys), Err(FitError::DegenerateX));
        if x == 0 {
            prop_assert_eq!(try_fit_proportional(&xs, &ys), Err(FitError::DegenerateX));
        }
    }

    #[test]
    fn length_mismatch_is_typed(a in 0usize..10, b in 0usize..10) {
        prop_assume!(a != b);
        let xs = vec![1.0; a];
        let ys = vec![1.0; b];
        prop_assert_eq!(
            try_fit_linear(&xs, &ys),
            Err(FitError::LengthMismatch { x: a, y: b })
        );
        prop_assert_eq!(
            try_fit_proportional(&xs, &ys),
            Err(FitError::LengthMismatch { x: a, y: b })
        );
    }

    #[test]
    fn small_n_is_typed(small in 0usize..2, len in 1usize..10, pos in 0usize..10) {
        let pos = pos % len;
        let mut ns: Vec<usize> = (0..len).map(|i| 100 + i).collect();
        ns[pos] = small;
        let ys = vec![1.0; len];
        prop_assert_eq!(try_fit_c_nlogn(&ns, &ys), Err(FitError::SmallN { n: small }));
    }

    #[test]
    fn non_finite_input_is_typed(len in 2usize..10, pos in 0usize..10, kind in 0usize..3) {
        let pos = pos % len;
        let xs: Vec<f64> = (0..len).map(|i| (i + 1) as f64).collect();
        let mut ys: Vec<f64> = (0..len).map(|i| 2.0 * (i + 1) as f64).collect();
        ys[pos] = match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        prop_assert_eq!(try_fit_linear(&xs, &ys), Err(FitError::NonFinite));
        prop_assert_eq!(try_fit_proportional(&xs, &ys), Err(FitError::NonFinite));
    }

    #[test]
    fn valid_input_recovers_the_planted_slope(
        slope in -50i64..50,
        intercept in -1000i64..1000,
        len in 2usize..20,
    ) {
        let xs: Vec<f64> = (0..len).map(|i| (i * i + i + 1) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| intercept as f64 + slope as f64 * x).collect();
        let fit = try_fit_linear(&xs, &ys).unwrap();
        prop_assert!((fit.slope - slope as f64).abs() < 1e-6);
    }

    #[test]
    fn growth_model_selection_never_panics_on_few_points(len in 0usize..3) {
        let points: Vec<ScalingPoint> = (0..len)
            .map(|i| ScalingPoint { n: 100 << i, m: 200 << i, y: (i + 1) as f64 })
            .collect();
        prop_assert_eq!(
            fit_growth_models(&points),
            Err(FitError::TooFewPoints { needed: 3, got: len })
        );
    }

    #[test]
    fn growth_model_selection_recovers_planted_linear_law(c in 1u32..50, len in 3usize..8) {
        let points: Vec<ScalingPoint> = (0..len)
            .map(|i| {
                let n = 500usize << i;
                ScalingPoint { n, m: 2 * n, y: c as f64 * (2 * n) as f64 }
            })
            .collect();
        let sel = fit_growth_models(&points).unwrap();
        prop_assert_eq!(sel.preferred, GrowthModel::ProportionalEdges);
        let fit = sel.preferred_fit();
        prop_assert!((fit.fit.slope - c as f64).abs() < 1e-9);
    }

    #[test]
    fn growth_model_selection_recovers_planted_nlogn_law(tenths in 5u32..40, len in 3usize..8) {
        let c = tenths as f64 / 10.0;
        let points: Vec<ScalingPoint> = (0..len)
            .map(|i| {
                let n = 500usize << i;
                ScalingPoint { n, m: 2 * n, y: c * n as f64 * (n as f64).ln() }
            })
            .collect();
        let sel = fit_growth_models(&points).unwrap();
        prop_assert_eq!(sel.preferred, GrowthModel::NLogN);
        prop_assert!((sel.preferred_fit().fit.slope - c).abs() < 1e-9);
    }
}
