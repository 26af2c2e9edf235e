//! **T-blanket**: equation (4) — the blanket-time route to edge cover.
//!
//! §1: once every vertex `v` is visited `d(v)` times by the embedded
//! random walk, all edges are explored, and Ding–Lee–Peres gives
//! `t_bl(δ) = O(CV(SRW))`; hence `CE(E) = O(m + CV(SRW))`.
//!
//! Thin engine wrapper: the built-in `blanket` spec stops each trial at
//! the blanket time while a `cover` metric on the **same walk** records
//! `CV` and `CE` — one ensemble, one pass per trial, three columns. This
//! binary only reshapes the engine cells into the paper's presentation.

use eproc_bench::{metric_mean, run_engine_spec, save_artifacts, Config};
use eproc_engine::builtin;
use eproc_stats::TextTable;

fn main() {
    let config = Config::from_args();
    println!("Equation (4): blanket time t_bl(1/2) = O(CV(SRW)) and CE(E) = O(m + CV(SRW))\n");
    let spec = builtin::spec("blanket", config.scale).expect("builtin exists");
    let (graphs, report) = run_engine_spec(&spec, &config);
    let mut table = TextTable::new(vec![
        "graph",
        "n",
        "m",
        "t_bl(1/2)",
        "CV(SRW)",
        "t_bl/CV",
        "CE(E)",
        "(CE-m)/CV",
    ]);
    // Cell grid order: (graph, process) with processes = [e-process, srw].
    for (gi, (gspec, g)) in spec.graphs.iter().zip(&graphs).enumerate() {
        let eproc_cell = &report.cells[gi * spec.processes.len()];
        let srw_cell = &report.cells[gi * spec.processes.len() + 1];
        let bl = srw_cell.steps.mean();
        let cv = metric_mean(srw_cell, "cover.c_v");
        let ce = metric_mean(eproc_cell, "cover.c_e");
        let m = g.m() as f64;
        table.push_row(vec![
            gspec.label(),
            g.n().to_string(),
            g.m().to_string(),
            format!("{bl:.0}"),
            format!("{cv:.0}"),
            format!("{:.2}", bl / cv),
            format!("{ce:.0}"),
            format!("{:.3}", (ce - m) / cv),
        ]);
    }
    println!("{table}");
    save_artifacts(&[("table_blanket", &table)], Some(&report));
}
