//! **T-lgood**: the `ℓ`-goodness landscape.
//!
//! Exact minimal even-degree subgraphs on small named graphs (the oracle),
//! greedy upper bounds on random even-regular graphs, and §4.1's (P2)
//! prediction `ℓ ≥ log n / (4 log(re))` — now computed on the **same**
//! graphs whose E-process cover times the engine measures, so the table
//! ties the `ℓ` estimates to the observed `Θ(n)` behaviour directly.
//!
//! Thin engine wrapper: the built-in `lgood` spec owns the cover-time
//! ensemble (trial loops, seeding, parallelism, JSON artifact); this
//! binary adds the exact small-graph oracle and the per-graph greedy /
//! (P2) bound columns.

use eproc_bench::{out, run_engine_spec, save_artifacts, Config};
use eproc_engine::builtin;
use eproc_engine::spec::GraphSpec;
use eproc_graphs::generators;
use eproc_graphs::properties::lgood::{even_subgraph_upper_bound, lgood_exact, lgood_upper_bound};
use eproc_stats::TextTable;
use eproc_theory::p2_l_good_bound;

fn main() {
    let config = Config::from_args();
    out!("l-goodness: exact small-graph values and greedy upper bounds\n");

    let mut exact_table = TextTable::new(vec!["graph", "n", "m", "exact l"]);
    let named = vec![
        ("K5".to_string(), generators::complete(5)),
        ("cycle(9)".into(), generators::cycle(9)),
        ("figure-eight(3)".into(), generators::figure_eight(3)),
        ("torus 3x3".into(), generators::torus2d(3, 3)),
        ("torus 3x4".into(), generators::torus2d(3, 4)),
    ];
    for (name, g) in &named {
        let l = lgood_exact(g).expect("small instance").expect("even graph");
        exact_table.push_row(vec![
            name.clone(),
            g.n().to_string(),
            g.m().to_string(),
            l.to_string(),
        ]);
    }
    out!("{exact_table}");

    let spec = builtin::spec("lgood", config.scale).expect("builtin exists");
    let (graphs, report) = run_engine_spec(&spec, &config);
    let mut ub_table = TextTable::new(vec![
        "graph",
        "n",
        "greedy l ub (min/median over probes)",
        "P2 bound",
        "ln n",
        "CV mean",
        "CV/n",
    ]);
    let probes = 40;
    for (gi, (gspec, g)) in spec.graphs.iter().zip(&graphs).enumerate() {
        let GraphSpec::Regular { n, d: r } = *gspec else {
            panic!("lgood spec contains only regular graphs")
        };
        let cell = &report.cells[gi];
        let probe_vertices: Vec<usize> = (0..probes).map(|i| i * (n / probes)).collect();
        let min_ub = lgood_upper_bound(g, &probe_vertices).expect("greedy bound");
        let mut ubs: Vec<f64> = probe_vertices
            .iter()
            .filter_map(|&v| even_subgraph_upper_bound(g, v))
            .map(|x| x as f64)
            .collect();
        ubs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ubs[ubs.len() / 2];
        let cv = cell.steps.mean();
        ub_table.push_row(vec![
            format!("random {r}-regular"),
            n.to_string(),
            format!("{min_ub}/{median:.0}"),
            format!("{:.2}", p2_l_good_bound(n, r)),
            format!("{:.2}", (n as f64).ln()),
            format!("{cv:.0}"),
            format!("{:.2}", cv / n as f64),
        ]);
    }
    out!("{ub_table}");
    save_artifacts(
        &[
            ("table_lgood_exact", &exact_table),
            ("table_lgood_bounds", &ub_table),
        ],
        Some(&report),
    );
}
