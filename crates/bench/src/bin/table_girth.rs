//! **T-girth**: Theorem 3 on the title's *high girth even degree
//! expanders*.
//!
//! LPS graphs `X^{5,q}` are 6-regular with girth `Ω(log n)`; Theorem 3
//! then gives `CE(E) = O(m + m log n / g)` ≈ linear. Random 6-regular
//! graphs (constant girth, but few short cycles) are shown for contrast.
//!
//! Engine wrapper: one shared-graph spec walks each graph to edge cover,
//! with the `cover` metric giving `CV` from the same walk; this binary
//! adds the girth, spectral gap and Theorem 3 columns.

use eproc_bench::{metric_mean, out, run_engine_spec, save_artifacts, Config};
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, RuleSpec, Scale, Target,
};
use eproc_graphs::properties::{bipartite, girth};
use eproc_spectral::lanczos::lanczos;
use eproc_stats::TextTable;
use eproc_theory::theorem3_edge_cover_bound;

fn main() {
    let config = Config::from_args();
    out!("Theorem 3 on high girth even degree expanders (LPS) vs random regular\n");
    let lps: Vec<GraphSpec> = match config.scale {
        Scale::Quick => vec![13, 17],
        Scale::Paper => vec![13, 17, 29],
    }
    .into_iter()
    .map(|q| GraphSpec::Lps { p: 5, q })
    .collect();
    // Contrast: random 6-regular graphs of comparable sizes.
    let random: Vec<GraphSpec> = lps
        .iter()
        .map(|l| GraphSpec::Regular {
            n: l.vertex_count().expect("valid LPS parameters"),
            d: 6,
        })
        .collect();
    let spec = ExperimentSpec {
        name: "table_girth".into(),
        description: "Theorem 3: E-process edge cover on LPS and random 6-regular graphs".into(),
        graphs: lps.into_iter().chain(random).collect(),
        processes: vec![ProcessSpec::EProcess {
            rule: RuleSpec::Uniform,
        }],
        trials: 3,
        target: Target::EdgeCover,
        metrics: vec![MetricSpec::Cover],
        start: 0,
        cap: CapSpec::NLogN(10_000.0),
        resample: None,
    };
    let (graphs, report) = run_engine_spec(&spec, &config);
    let mut table = TextTable::new(vec![
        "graph",
        "n",
        "m",
        "girth",
        "gap",
        "CV/n",
        "CE/m",
        "CE",
        "thm3 bound",
        "CE/bound",
    ]);
    for ((gspec, g), cell) in spec.graphs.iter().zip(&graphs).zip(&report.cells) {
        let n = g.n();
        let m = g.m();
        let girth_val = girth::girth_at_most(g, 24).unwrap_or(25);
        let res = lanczos(g, 140.min(n - 1));
        let gap = if bipartite::is_bipartite(g) {
            (1.0 - res.lambda_2()) / 2.0
        } else {
            1.0 - res.lambda_max()
        };
        let cv = metric_mean(cell, "cover.c_v");
        let ce = cell.steps.mean();
        let bound = theorem3_edge_cover_bound(m, n, girth_val, g.max_degree(), gap);
        table.push_row(vec![
            gspec.label(),
            n.to_string(),
            m.to_string(),
            if girth_val == 25 {
                ">24".into()
            } else {
                girth_val.to_string()
            },
            format!("{gap:.3}"),
            format!("{:.2}", cv / n as f64),
            format!("{:.2}", ce / m as f64),
            format!("{ce:.0}"),
            format!("{bound:.0}"),
            format!("{:.3}", ce / bound),
        ]);
    }
    out!("{table}");
    save_artifacts(&[("table_girth", &table)], Some(&report));
}
