//! **T-mix**: Lemma 7's spectral mixing time against measured
//! total-variation mixing.
//!
//! `T = 6 log n / (1 − λ_max)` must push the worst pointwise deviation
//! below `n^{-3}`; we evolve the lazy walk's distribution exactly on small
//! graphs and report the measured worst TV at `T`, plus the honest
//! `ε = 1/4` mixing time for scale.

use eproc_bench::{save_artifacts, Config};
use eproc_graphs::{generators, Graph};
use eproc_spectral::dense::SymMatrix;
use eproc_spectral::mixing::{mixing_time, worst_tv_at};
use eproc_stats::TextTable;
use eproc_theory::lemma7_mixing_time;

fn main() {
    let _config = Config::from_args();
    println!("Lemma 7: T = 6 ln n / gap (lazy walk) vs measured TV mixing\n");
    let mut table = TextTable::new(vec![
        "graph",
        "n",
        "lazy gap",
        "T (Lemma 7)",
        "TV at T",
        "n^-3",
        "t_mix(1/4)",
    ]);
    let graphs: Vec<(String, Graph)> = vec![
        ("petersen".into(), generators::petersen()),
        ("torus 4x4".into(), generators::torus2d(4, 4)),
        ("hypercube(5)".into(), generators::hypercube(5)),
        ("lollipop(8,4)".into(), generators::lollipop(8, 4)),
        ("complete(16)".into(), generators::complete(16)),
        ("cycle(24)".into(), generators::cycle(24)),
        ("barbell(6,2)".into(), generators::barbell(6, 2)),
    ];
    for (name, g) in &graphs {
        let n = g.n();
        let lazy_lambda = SymMatrix::from_graph(g, true).lambda_max_walk();
        let gap = 1.0 - lazy_lambda;
        let t = lemma7_mixing_time(n, gap, 6.0).ceil() as usize;
        let tv = worst_tv_at(g, t, true);
        let threshold = (n as f64).powi(-3);
        let tmix = mixing_time(g, 0.25, true, 200_000).map_or("-".into(), |x| x.to_string());
        assert!(
            tv <= (n as f64).powi(-2),
            "{name}: TV {tv} at T = {t} too large (pointwise bound implies TV <= n * n^-3)"
        );
        table.push_row(vec![
            name.clone(),
            n.to_string(),
            format!("{gap:.4}"),
            t.to_string(),
            format!("{tv:.2e}"),
            format!("{threshold:.2e}"),
            tmix,
        ]);
    }
    println!("{table}");
    save_artifacts(&[("table_mixing", &table)], None);
}
