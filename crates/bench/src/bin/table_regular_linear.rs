//! **T-cor2**: Corollaries 2 and 4 — linear vertex cover and near-linear
//! edge cover on random even-regular graphs.
//!
//! `CV(E)/n` should be flat across `n` for `r ∈ {4, 6}` (Corollary 2);
//! `CE(E)/n` may grow, but slower than any fixed power of `log n`
//! (Corollary 4: `O(ωn)` for any `ω → ∞`).
//!
//! Engine wrapper: one shared-graph spec; the `cover` metric yields `CV`
//! and `CE` from the same walk.

use eproc_bench::{metric_mean, run_engine_spec, save_artifacts, Config};
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, RuleSpec, Scale, Target,
};
use eproc_stats::TextTable;

fn main() {
    let config = Config::from_args();
    println!("Corollary 2/4: CV(E)/n flat and CE(E)/n sub-logarithmic for r = 4, 6\n");
    let sizes: Vec<usize> = match config.scale {
        Scale::Quick => vec![1_000, 2_000, 4_000, 8_000, 16_000, 32_000],
        Scale::Paper => vec![16_000, 32_000, 64_000, 128_000, 256_000],
    };
    let spec = ExperimentSpec {
        name: "table_regular_linear".into(),
        description: "Corollaries 2 and 4: E-process CV and CE on random even-regular graphs"
            .into(),
        graphs: [4usize, 6]
            .iter()
            .flat_map(|&d| sizes.iter().map(move |&n| GraphSpec::Regular { n, d }))
            .collect(),
        processes: vec![ProcessSpec::EProcess {
            rule: RuleSpec::Uniform,
        }],
        trials: 5,
        target: Target::EdgeCover,
        metrics: vec![MetricSpec::Cover],
        start: 0,
        cap: CapSpec::NLogN(1_000.0),
        resample: None,
    };
    let (_, report) = run_engine_spec(&spec, &config);
    let mut table = TextTable::new(vec!["r", "n", "CV/n", "CE/n", "CE/(n ln n)"]);
    for (gspec, cell) in spec.graphs.iter().zip(&report.cells) {
        let GraphSpec::Regular { n, d: r } = *gspec else {
            panic!("the grid contains only regular graphs")
        };
        let nf = n as f64;
        let cv = metric_mean(cell, "cover.c_v");
        let ce = metric_mean(cell, "cover.c_e");
        table.push_row(vec![
            r.to_string(),
            n.to_string(),
            format!("{:.3}", cv / nf),
            format!("{:.3}", ce / nf),
            format!("{:.4}", ce / (nf * nf.ln())),
        ]);
    }
    println!("{table}");
    save_artifacts(&[("table_regular_linear", &table)], Some(&report));
}
