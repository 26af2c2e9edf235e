//! **T-thm1**: Theorem 1 on even-degree expanders.
//!
//! `CV(E-process) = O(n + n log n / (ℓ(1−λmax)))`. For each graph we
//! measure `λmax` (Lanczos; lazy gap on bipartite graphs, per §2.1),
//! take the paper's `ℓ` estimate (P2 bound for random regular graphs,
//! girth for LPS), and report the measured-cover / bound ratio, which
//! should stay bounded by a modest constant across the sweep.
//!
//! The ensemble (the cover-time measurements) runs on the parallel
//! `eproc-engine`; this wrapper only adds the per-graph spectral-gap and
//! theory-bound columns the engine deliberately does not know about.

use eproc_bench::{run_engine_spec, save_artifacts, Config};
use eproc_engine::builtin;
use eproc_engine::spec::GraphSpec;
use eproc_graphs::properties::{bipartite, girth};
use eproc_graphs::Graph;
use eproc_spectral::lanczos::lanczos;
use eproc_stats::TextTable;
use eproc_theory::{p2_l_good_bound, theorem1_vertex_cover_bound};

fn effective_gap(g: &Graph) -> f64 {
    let res = lanczos(g, 120.min(g.n() - 1));
    if bipartite::is_bipartite(g) {
        (1.0 - res.lambda_2()) / 2.0 // lazy walk gap
    } else {
        1.0 - res.lambda_max()
    }
}

/// The paper's `ℓ` estimate for a graph family: the P2 bound for random
/// regular graphs, the girth for LPS Ramanujan graphs.
fn l_estimate(spec: &GraphSpec, g: &Graph) -> f64 {
    match *spec {
        GraphSpec::Regular { n, d } => p2_l_good_bound(n, d),
        _ => girth::girth_at_most(g, 24).unwrap_or(24) as f64,
    }
}

fn main() {
    let config = Config::from_args();
    println!("Theorem 1: CV(E) vs n + n*ln(n)/(l*(1-lambda_max)) on even-degree expanders\n");
    let spec = builtin::spec("theorem1", config.scale).expect("builtin exists");
    let (graphs, report) = run_engine_spec(&spec, &config);

    let mut table = TextTable::new(vec![
        "graph", "n", "gap", "l est", "CV mean", "bound", "CV/bound", "CV/n",
    ]);
    for (gi, (gspec, g)) in spec.graphs.iter().zip(&graphs).enumerate() {
        let cell = &report.cells[gi * spec.processes.len()];
        let gap = effective_gap(g);
        let l = l_estimate(gspec, g);
        let bound = theorem1_vertex_cover_bound(g.n(), l, gap);
        let mean = cell.steps.mean();
        table.push_row(vec![
            gspec.label(),
            g.n().to_string(),
            format!("{gap:.3}"),
            format!("{l:.2}"),
            format!("{mean:.0}"),
            format!("{bound:.0}"),
            format!("{:.3}", mean / bound),
            format!("{:.2}", mean / g.n() as f64),
        ]);
    }
    println!("{table}");
    save_artifacts(&[("table_theorem1", &table)], None);
}
