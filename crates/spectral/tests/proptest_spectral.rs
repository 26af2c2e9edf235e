//! Property tests for the spectral toolkit: random small graphs, exact
//! identities, and cross-method agreement.

use eproc_graphs::properties::{bipartite, connectivity};
use eproc_graphs::Graph;
use eproc_spectral::conductance::{cheeger_slack, conductance_exact};
use eproc_spectral::dense::SymMatrix;
use eproc_spectral::hitting::{commute_time, expected_return_time, hitting_times_to};
use eproc_spectral::lanczos::lanczos;
use eproc_spectral::resistance::{effective_resistance, foster_sum};
use eproc_spectral::transition::{apply_transition, stationary_distribution};
use proptest::prelude::*;

/// Strategy: a *connected* random simple graph on `3..=12` vertices (built
/// by adding a random spanning-tree skeleton first).
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (
        3usize..12,
        proptest::collection::vec(0usize..1000, 11),
        proptest::collection::vec((0usize..12, 0usize..12), 0..24),
    )
        .prop_map(|(n, parents, extra)| {
            let mut edges = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for v in 1..n {
                let p = parents[v - 1] % v;
                seen.insert((p, v));
                edges.push((p, v));
            }
            for (a, b) in extra {
                let (u, v) = (a % n, b % n);
                if u != v {
                    let key = (u.min(v), u.max(v));
                    if seen.insert(key) {
                        edges.push(key);
                    }
                }
            }
            Graph::from_edges(n, &edges).expect("valid by construction")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn walk_spectrum_in_unit_interval(g in arb_connected_graph()) {
        let eigs = SymMatrix::from_graph(&g, false).eigenvalues();
        prop_assert!((eigs[0] - 1.0).abs() < 1e-8, "top eigenvalue must be 1");
        for &e in &eigs {
            prop_assert!((-1.0 - 1e-8..=1.0 + 1e-8).contains(&e), "eig {e} outside [-1,1]");
        }
        // Trace of S is 0 (no self-loops).
        let sum: f64 = eigs.iter().sum();
        prop_assert!(sum.abs() < 1e-7, "trace {sum} should vanish");
    }

    #[test]
    fn lambda_n_is_minus_one_iff_bipartite(g in arb_connected_graph()) {
        let eigs = SymMatrix::from_graph(&g, false).eigenvalues();
        let lambda_n = eigs[g.n() - 1];
        if bipartite::is_bipartite(&g) {
            prop_assert!((lambda_n + 1.0).abs() < 1e-8);
        } else {
            prop_assert!(lambda_n > -1.0 + 1e-8);
        }
    }

    #[test]
    fn lanczos_matches_jacobi(g in arb_connected_graph()) {
        let exact = SymMatrix::from_graph(&g, false).eigenvalues();
        let res = lanczos(&g, g.n() - 1);
        prop_assert!((res.lambda_2() - exact[1]).abs() < 1e-6);
        prop_assert!((res.lambda_n() - exact[g.n() - 1]).abs() < 1e-6);
    }

    #[test]
    fn stationary_is_invariant(g in arb_connected_graph()) {
        let pi = stationary_distribution(&g);
        let next = apply_transition(&g, &pi, false);
        for (a, b) in pi.iter().zip(&next) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn return_time_identity(g in arb_connected_graph()) {
        let pi = stationary_distribution(&g);
        for v in [0, g.n() / 2] {
            let rt = expected_return_time(&g, v).unwrap();
            prop_assert!((rt - 1.0 / pi[v]).abs() < 1e-6,
                "E_v T_v+ = {rt} vs 1/pi = {}", 1.0 / pi[v]);
        }
    }

    #[test]
    fn hitting_recurrence_holds(g in arb_connected_graph()) {
        let target = g.n() - 1;
        let h = hitting_times_to(&g, target).unwrap();
        prop_assert_eq!(h[target], 0.0);
        for u in g.vertices().filter(|&u| u != target) {
            let mean: f64 = g.neighbors(u).map(|w| h[w]).sum::<f64>() / g.degree(u) as f64;
            prop_assert!((h[u] - 1.0 - mean).abs() < 1e-7, "recurrence at {u}");
        }
    }

    #[test]
    fn commute_equals_2m_resistance(g in arb_connected_graph()) {
        let (u, v) = (0, g.n() - 1);
        let k = commute_time(&g, u, v).unwrap();
        let r = effective_resistance(&g, u, v).unwrap();
        prop_assert!((k - 2.0 * g.m() as f64 * r).abs() < 1e-5,
            "K = {k}, 2mR = {}", 2.0 * g.m() as f64 * r);
    }

    #[test]
    fn foster_theorem_holds(g in arb_connected_graph()) {
        let sum = foster_sum(&g).unwrap();
        prop_assert!((sum - (g.n() as f64 - 1.0)).abs() < 1e-6,
            "Foster sum {sum} vs n-1 = {}", g.n() - 1);
    }

    #[test]
    fn cheeger_sandwich(g in arb_connected_graph()) {
        prop_assume!(connectivity::is_connected(&g));
        let phi = conductance_exact(&g).unwrap();
        let lambda_2 = SymMatrix::from_graph(&g, false).eigenvalues()[1];
        let (lo, hi) = cheeger_slack(phi, lambda_2);
        prop_assert!(lo >= -1e-8, "lower Cheeger violated: lambda2={lambda_2}, phi={phi}");
        prop_assert!(hi >= -1e-8, "upper Cheeger violated: lambda2={lambda_2}, phi={phi}");
    }

    #[test]
    fn lazy_gap_halves(g in arb_connected_graph()) {
        let eager = SymMatrix::from_graph(&g, false).eigenvalues();
        let lazy = SymMatrix::from_graph(&g, true).eigenvalues();
        for (e, l) in eager.iter().zip(&lazy) {
            prop_assert!((l - (e + 1.0) / 2.0).abs() < 1e-8);
        }
    }
}
