//! **T-hit**: Lemma 6 and Corollary 9 — stationary hitting times against
//! their spectral bounds, exactly (linear solves) on mid-size graphs,
//! next to *measured* hitting times from the engine ensemble.
//!
//! `E_π(H_v) ≤ 1/((1−λ_max) π_v)` and `E_π(H_S) ≤ 2m/(d(S)(1−λ_max))`.
//! The ratio column shows how much slack the bound leaves on each family.
//!
//! Thin engine wrapper: the built-in `hitting` spec runs the SRW ensemble
//! with a hitting observer (first visit of vertex `n-1` from start `0`)
//! on the same graphs the exact columns are computed on — the engine owns
//! the walking; this binary adds the linear solves and bounds.

use eproc_bench::{metric_mean, out, run_engine_spec, save_artifacts, Config};
use eproc_engine::builtin;
use eproc_spectral::dense::SymMatrix;
use eproc_spectral::hitting::{hitting_from_stationary, set_hitting_from_stationary};
use eproc_spectral::stationary_distribution;
use eproc_stats::TextTable;
use eproc_theory::{corollary9_set_hitting_bound, lemma6_hitting_bound};

fn main() {
    let config = Config::from_args();
    out!("Lemma 6 / Corollary 9: worst-vertex stationary hitting times vs bounds\n");
    let spec = builtin::spec("hitting", config.scale).expect("builtin exists");
    let (graphs, report) = run_engine_spec(&spec, &config);
    let mut table = TextTable::new(vec![
        "graph",
        "n",
        "gap",
        "max E_pi(H_v)",
        "Lemma 6 bound",
        "ratio",
        "E_pi(H_S) |S|=4",
        "Cor. 9 bound",
        "mean H(0,n-1)",
    ]);
    for (gi, (gspec, g)) in spec.graphs.iter().zip(&graphs).enumerate() {
        let lambda = SymMatrix::from_graph(g, false).lambda_max_walk();
        if lambda >= 1.0 - 1e-9 {
            // Bipartite: Lemma 6 applies to the lazy chain; skip here
            // (all listed graphs are non-bipartite by construction).
            continue;
        }
        let gap = 1.0 - lambda;
        let pi = stationary_distribution(g);
        let mut worst = (0.0f64, 0.0f64);
        for v in g.vertices() {
            let h = hitting_from_stationary(g, v).expect("connected");
            let b = lemma6_hitting_bound(pi[v], gap);
            assert!(h <= b + 1e-6, "{}: Lemma 6 violated at {v}", gspec.label());
            if h > worst.0 {
                worst = (h, b);
            }
        }
        let set: Vec<usize> = (0..4).map(|i| i * (g.n() / 4)).collect();
        let d_s: usize = set.iter().map(|&v| g.degree(v)).sum();
        let h_s = set_hitting_from_stationary(g, &set).expect("connected");
        let b_s = corollary9_set_hitting_bound(g.m(), d_s, gap);
        assert!(h_s <= b_s + 1e-6, "{}: Corollary 9 violated", gspec.label());
        let cell = &report.cells[gi];
        let measured = metric_mean(cell, "hitting(last)");
        table.push_row(vec![
            gspec.label(),
            g.n().to_string(),
            format!("{gap:.4}"),
            format!("{:.1}", worst.0),
            format!("{:.1}", worst.1),
            format!("{:.3}", worst.0 / worst.1),
            format!("{h_s:.1}"),
            format!("{b_s:.1}"),
            format!("{measured:.1}"),
        ]);
    }
    out!("{table}");
    save_artifacts(&[("table_hitting", &table)], Some(&report));
}
