//! **T-stars**: §5's isolated-blue-star census on odd-degree regular
//! graphs.
//!
//! For random 3-regular graphs the paper's heuristic predicts that a
//! `(1/2)³ = 1/8` fraction of vertices is stranded as isolated blue stars,
//! forcing coupon-collector behaviour (`Θ(n log n)` cover). We track star
//! formation over full runs for `r ∈ {3, 5, 7}` and contrast with the
//! even degrees, which strand none.
//!
//! Engine wrapper: one shared-graph spec with the `bluecensus` metric on
//! each vertex-cover walk; this binary reshapes the star counts.

use eproc_bench::{out, run_engine_spec, save_artifacts, Config};
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, RuleSpec, Scale, Target,
};
use eproc_stats::TextTable;
use eproc_theory::star_fraction_heuristic_r3;

fn main() {
    let config = Config::from_args();
    out!("Isolated blue stars (Section 5): fraction of vertices stranded as stars\n");
    let sizes: Vec<usize> = match config.scale {
        Scale::Quick => vec![2_000, 8_000],
        Scale::Paper => vec![8_000, 32_000, 128_000],
    };
    let spec = ExperimentSpec {
        name: "table_stars".into(),
        description: "Section 5 isolated blue star census of the E-process".into(),
        graphs: [3usize, 4, 5, 6, 7]
            .iter()
            .flat_map(|&d| sizes.iter().map(move |&n| GraphSpec::Regular { n, d }))
            .collect(),
        processes: vec![ProcessSpec::EProcess {
            rule: RuleSpec::Uniform,
        }],
        trials: 5,
        target: Target::VertexCover,
        metrics: vec![MetricSpec::BlueCensus],
        start: 0,
        cap: CapSpec::NLogN(2_000.0),
        resample: None,
    };
    let (_, report) = run_engine_spec(&spec, &config);
    let mut table = TextTable::new(vec!["r", "n", "stars/n", "sd", "CV/(n ln n)", "heuristic"]);
    for (gspec, cell) in spec.graphs.iter().zip(&report.cells) {
        let GraphSpec::Regular { n, d: r } = *gspec else {
            panic!("the grid contains only regular graphs")
        };
        let nf = n as f64;
        let stars = &cell.metrics[0].stats;
        let heuristic = if r == 3 {
            format!("{:.3}", star_fraction_heuristic_r3())
        } else if r % 2 == 0 {
            "0 (even)".into()
        } else {
            "-".into()
        };
        table.push_row(vec![
            r.to_string(),
            n.to_string(),
            format!("{:.4}", stars.mean() / nf),
            format!("{:.4}", stars.std_dev() / nf),
            format!("{:.3}", cell.steps.mean() / (nf * nf.ln())),
            heuristic,
        ]);
    }
    out!("{table}");
    save_artifacts(&[("table_stars", &table)], Some(&report));
}
