//! **T-spec**: eigenvalue gaps of the workload graphs.
//!
//! Property (P1) of §4: random `r`-regular graphs have second adjacency
//! eigenvalue `≤ 2√(r−1) + ε` whp (Friedman); LPS graphs meet the
//! Ramanujan bound `2√p`. We measure `λ_2` with Lanczos, cross-check
//! against the predictions, and report the gap that enters every cover
//! bound.

use eproc_bench::{save_artifacts, Config};
use eproc_engine::Scale;
use eproc_graphs::properties::bipartite;
use eproc_graphs::{generators, Graph};
use eproc_spectral::lanczos::lanczos;
use eproc_stats::{SeedSequence, TextTable};
use eproc_theory::{friedman_lambda_bound, hypercube_lambda2, ramanujan_lambda_bound};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let config = Config::from_args();
    let seeds = SeedSequence::new(config.seed);
    println!("Spectra: measured lambda_2 vs Friedman/Ramanujan predictions\n");
    let mut table = TextTable::new(vec![
        "graph",
        "n",
        "lambda_2",
        "prediction",
        "within",
        "gap",
        "lazy gap",
        "bipartite",
    ]);

    let reg_n = match config.scale {
        Scale::Quick => 2_000,
        Scale::Paper => 20_000,
    };
    let mut row = |name: String, g: &Graph, prediction: Option<f64>| {
        let res = lanczos(g, 140.min(g.n() - 1));
        let l2 = res.lambda_2();
        let bip = bipartite::is_bipartite(g);
        let within = prediction.map_or("-".into(), |p| {
            if l2 <= p + 1e-6 {
                "yes".to_string()
            } else {
                format!("no ({l2:.4} > {p:.4})")
            }
        });
        table.push_row(vec![
            name,
            g.n().to_string(),
            format!("{l2:.4}"),
            prediction.map_or("-".into(), |p| format!("{p:.4}")),
            within,
            format!("{:.4}", 1.0 - res.lambda_max()),
            format!("{:.4}", (1.0 - l2) / 2.0),
            if bip { "yes".into() } else { "no".into() },
        ]);
    };

    for r in [3usize, 4, 5, 6, 7] {
        let mut graph_rng = SmallRng::seed_from_u64(seeds.derive(&[r as u64]));
        let g = generators::connected_random_regular(reg_n, r, &mut graph_rng).unwrap();
        // Friedman with a finite-size allowance ε.
        row(
            format!("random {r}-regular"),
            &g,
            Some(friedman_lambda_bound(r, 0.35)),
        );
    }
    for (p, q) in [(5u64, 13u64), (5, 17), (13, 17)] {
        let g = generators::lps_ramanujan(p, q).unwrap();
        row(
            format!("LPS({p},{q})"),
            &g,
            Some(ramanujan_lambda_bound(p as usize)),
        );
    }
    let h = generators::hypercube(9);
    row("hypercube(9)".into(), &h, Some(hypercube_lambda2(9) + 1e-9));
    let t = generators::torus2d(32, 32);
    // λ2 of the 2-D torus: (cos(2π/32) + 1)/2.
    let torus_l2 = ((2.0 * std::f64::consts::PI / 32.0).cos() + 1.0) / 2.0;
    row("torus 32x32".into(), &t, Some(torus_l2 + 1e-9));

    println!("{table}");
    save_artifacts(&[("table_spectral", &table)], None);
}
