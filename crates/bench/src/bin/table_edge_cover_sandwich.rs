//! **T-eq3**: the edge-cover sandwich `m ≤ CE(E) ≤ m + CV(SRW)`
//! (equation (3) / Observation 12) on even-degree graphs.
//!
//! Engine wrapper: one shared-graph spec walks the E-process and the SRW
//! to edge cover, with the `cover` metric giving the SRW's `CV` from the
//! same walk; this binary checks the sandwich.

use eproc_bench::{metric_mean, run_engine_spec, save_artifacts, Config};
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, RuleSpec, Scale, Target,
};
use eproc_stats::TextTable;
use eproc_theory::eq3_edge_cover_sandwich;

fn main() {
    let config = Config::from_args();
    println!("Equation (3): m <= CE(E-process) <= m + CV(SRW) on even-degree graphs\n");
    let (cyc, tor, reg_n) = match config.scale {
        Scale::Quick => (2_000, 24, 2_000),
        Scale::Paper => (20_000, 64, 20_000),
    };
    let spec = ExperimentSpec {
        name: "table_edge_cover_sandwich".into(),
        description: "Equation (3): E-process edge cover against m + CV(SRW)".into(),
        graphs: vec![
            GraphSpec::Cycle { n: cyc },
            GraphSpec::Torus { w: tor, h: tor },
            GraphSpec::Complete { n: 63 },
            GraphSpec::Regular { n: reg_n, d: 4 },
            GraphSpec::Regular { n: reg_n, d: 6 },
            GraphSpec::Hypercube { dim: 10 },
        ],
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::Srw,
        ],
        trials: 5,
        target: Target::EdgeCover,
        metrics: vec![MetricSpec::Cover],
        start: 0,
        cap: CapSpec::Absolute(100_000_000),
        resample: None,
    };
    let (_, report) = run_engine_spec(&spec, &config);
    let mut table = TextTable::new(vec![
        "graph",
        "n",
        "m",
        "CE(E) mean",
        "CV(SRW) mean",
        "m + CV(SRW)",
        "CE in sandwich",
    ]);
    // Cell grid order: (graph, process) with processes = [e-process, srw].
    let cells = report.cells.chunks(spec.processes.len());
    for (gspec, cells) in spec.graphs.iter().zip(cells) {
        let name = gspec.label();
        let ce = cells[0].steps.mean();
        let cv_srw = metric_mean(&cells[1], "cover.c_v");
        let (m, upper) = eq3_edge_cover_sandwich(cells[0].m, cv_srw);
        let lower_ok = ce >= m;
        // The upper bound holds in expectation; per-run noise allowed.
        let upper_ok = ce <= m + cv_srw * 1.5;
        assert!(lower_ok, "{name}: CE {ce} below m {m}");
        table.push_row(vec![
            name,
            cells[0].n.to_string(),
            cells[0].m.to_string(),
            format!("{ce:.0}"),
            format!("{cv_srw:.0}"),
            format!("{upper:.0}"),
            if lower_ok && upper_ok {
                "yes".into()
            } else {
                "check".into()
            },
        ]);
    }
    println!("{table}");
    save_artifacts(&[("table_edge_cover_sandwich", &table)], Some(&report));
}
