//! **T-lb**: lower bounds on random-walk cover times (Theorem 5, Feige)
//! versus the E-process.
//!
//! Any reversible/weighted random walk needs `≥ (n/4) log(n/2)` (Radzik,
//! Theorem 5) and in fact `(1−o(1)) n ln n` (Feige). The E-process beats
//! both on even-degree expanders — the "speed up of Ω(min(log n, ℓ))"
//! claimed after eq. (1).
//!
//! Engine wrapper: the built-in `lowerbound` spec covers the random
//! 4-regular rows and a shared-graph spec with the same processes covers
//! the torus and hypercube rows; this binary adds the bounds and checks
//! Theorem 5 against both the simple and the weighted random walk.

use eproc_bench::{out, run_engine_spec, save_artifacts, Config};
use eproc_engine::builtin;
use eproc_engine::spec::{CapSpec, ExperimentSpec, GraphSpec, Scale};
use eproc_stats::TextTable;
use eproc_theory::{feige_lower_bound, radzik_lower_bound};

fn main() {
    let config = Config::from_args();
    out!("Lower bounds: SRW cover time vs Radzik (n/4)ln(n/2) and Feige n*ln(n);");
    out!("the E-process undercuts both on even-degree expanders.\n");
    let mut table = TextTable::new(vec![
        "graph",
        "n",
        "SRW CV",
        "weighted SRW CV",
        "Radzik lb",
        "Feige n*ln n",
        "SRW/(n ln n)",
        "E CV",
        "E CV/n",
    ]);

    let regular = builtin::spec("lowerbound", config.scale).expect("builtin exists");
    // Structured graphs for contrast, under the same processes.
    let (torus_side, dim) = match config.scale {
        Scale::Quick => (32, 10),
        Scale::Paper => (64, 13),
    };
    let structured = ExperimentSpec {
        name: "lowerbound_structured".into(),
        description: "Theorem 5 flavour on a torus and a hypercube".into(),
        graphs: vec![
            GraphSpec::Torus {
                w: torus_side,
                h: torus_side,
            },
            GraphSpec::Hypercube { dim },
        ],
        cap: CapSpec::NLogN(20_000.0),
        ..regular.clone()
    };
    for spec in [regular, structured] {
        let (_, report) = run_engine_spec(&spec, &config);
        // Cell grid order: (graph, process) with processes =
        // [e-process, srw, weighted srw].
        let cells = report.cells.chunks(spec.processes.len());
        for (gspec, cells) in spec.graphs.iter().zip(cells) {
            let [e_mean, srw_mean, weighted_mean] = [0, 1, 2].map(|pi| cells[pi].steps.mean());
            let n = cells[0].n;
            let radzik = radzik_lower_bound(n);
            let feige = feige_lower_bound(n);
            for (walk, mean) in [("SRW", srw_mean), ("weighted SRW", weighted_mean)] {
                assert!(
                    mean > radzik,
                    "Theorem 5 violated: {walk} covered {} in {mean} < {radzik}",
                    gspec.label()
                );
            }
            table.push_row(vec![
                gspec.label(),
                n.to_string(),
                format!("{srw_mean:.0}"),
                format!("{weighted_mean:.0}"),
                format!("{radzik:.0}"),
                format!("{feige:.0}"),
                format!("{:.3}", srw_mean / feige),
                format!("{e_mean:.0}"),
                format!("{:.2}", e_mean / n as f64),
            ]);
        }
    }
    out!("{table}");
    save_artifacts(&[("table_lower_bound", &table)], None);
}
