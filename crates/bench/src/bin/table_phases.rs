//! **T-phase**: the blue/red phase structure behind the proofs.
//!
//! On even-degree graphs blue phases are long (the first one consumes a
//! constant fraction of the edges, Observation 10 lets it run until it
//! closes at the start); on odd-degree graphs the first blue phase dies at
//! the first revisit of an exhausted vertex — a birthday-paradox `Θ(√n)`
//! — which is why the E-process loses its linear-time behaviour there
//! (§5). This table makes that mechanism visible, together with the §5
//! isolated-star census (`stars/n → ≈ 1/8`-ish for `r = 3`).
//!
//! Thin engine wrapper: the built-in `phases` spec runs the ensemble with
//! phase and blue-census observers on one walk per trial; this binary
//! reshapes the metric columns into the paper's presentation.

use eproc_bench::{metric_mean, out, run_engine_spec, save_artifacts, Config};
use eproc_engine::builtin;
use eproc_engine::spec::GraphSpec;
use eproc_stats::TextTable;

fn main() {
    let config = Config::from_args();
    out!("Blue/red phase structure of the E-process on random r-regular graphs\n");
    let spec = builtin::spec("phases", config.scale).expect("builtin exists");
    let (graphs, report) = run_engine_spec(&spec, &config);
    let mut table = TextTable::new(vec![
        "r",
        "n",
        "first blue len",
        "first/sqrt(n)",
        "first/m",
        "#blue phases",
        "total blue/m",
        "stars/n",
        "closed (Obs 10)",
    ]);
    for (gi, (gspec, g)) in spec.graphs.iter().zip(&graphs).enumerate() {
        let GraphSpec::Regular { n, d: r } = *gspec else {
            panic!("phases spec contains only regular graphs")
        };
        let cell = &report.cells[gi];
        let first = metric_mean(cell, "phases.first_blue");
        let blue_count = metric_mean(cell, "phases.blue_count");
        let total_blue = metric_mean(cell, "phases.total_blue");
        let closed = metric_mean(cell, "phases.closed");
        let stars = metric_mean(cell, "stars");
        if r % 2 == 0 {
            assert_eq!(closed, 1.0, "Observation 10 violated for even r = {r}");
        }
        let m = g.m() as f64;
        table.push_row(vec![
            r.to_string(),
            n.to_string(),
            format!("{first:.0}"),
            format!("{:.2}", first / (n as f64).sqrt()),
            format!("{:.3}", first / m),
            format!("{blue_count:.0}"),
            format!("{:.3}", total_blue / m),
            format!("{:.3}", stars / n as f64),
            if r % 2 == 0 {
                "yes".into()
            } else {
                "n/a (odd)".into()
            },
        ]);
    }
    out!("{table}");
    save_artifacts(&[("table_phases", &table)], Some(&report));
}
