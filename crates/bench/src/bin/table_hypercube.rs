//! **T-hyp**: the hypercube edge-cover example of §1.
//!
//! On `H_r` (`n = 2^r`, `m = n r / 2`): the E-process has
//! `CE = Θ(n log n)` — the sandwich (3) is tight — while the SRW needs
//! `CE = Θ(n log² n)`; the Orenshtein–Shinkar bound (2) only gives
//! `O(n log² n)` here. The two normalised columns should be flat.
//!
//! Thin engine wrapper: the built-in `hypercube` spec measures both edge
//! cover times; this binary adds the normalised columns and bound (2).

use eproc_bench::{out, run_engine_spec, save_artifacts, Config};
use eproc_engine::builtin;
use eproc_engine::spec::GraphSpec;
use eproc_stats::TextTable;
use eproc_theory::eq2_greedy_edge_cover_bound;

fn main() {
    let config = Config::from_args();
    out!("Hypercube edge cover: CE(E) = Theta(n log n) vs CE(SRW) = Theta(n log^2 n)\n");
    let spec = builtin::spec("hypercube", config.scale).expect("builtin exists");
    let (_, report) = run_engine_spec(&spec, &config);
    let mut table = TextTable::new(vec![
        "r",
        "n",
        "m",
        "CE(E)",
        "CE(E)/(n ln n)",
        "CE(SRW)",
        "CE(SRW)/(n ln^2 n)",
        "eq(2) bound",
    ]);
    // Cell grid order: (graph, process) with processes = [e-process, srw].
    let cells = report.cells.chunks(spec.processes.len());
    for (gspec, cells) in spec.graphs.iter().zip(cells) {
        let GraphSpec::Hypercube { dim: r } = *gspec else {
            panic!("hypercube spec contains only hypercubes")
        };
        let [e_mean, s_mean] = [0, 1].map(|pi| cells[pi].steps.mean());
        let (n, m) = (cells[0].n, cells[0].m);
        // λ2(H_r) = 1 - 2/r: eq (2)'s bound with that gap.
        let eq2 = eq2_greedy_edge_cover_bound(m, n, 2.0 / r as f64);
        let nf = n as f64;
        table.push_row(vec![
            r.to_string(),
            n.to_string(),
            m.to_string(),
            format!("{e_mean:.0}"),
            format!("{:.3}", e_mean / (nf * nf.ln())),
            format!("{s_mean:.0}"),
            format!("{:.3}", s_mean / (nf * nf.ln() * nf.ln())),
            format!("{eq2:.0}"),
        ]);
    }
    out!("{table}");
    save_artifacts(&[("table_hypercube", &table)], Some(&report));
}
