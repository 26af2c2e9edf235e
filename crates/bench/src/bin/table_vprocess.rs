//! **T-vproc**: unvisited-edge vs unvisited-vertex preference.
//!
//! §1 of the paper motivates the E-process with "the idea that the vertex
//! cover time of a random walk could be reduced by choosing unvisited
//! neighbour vertices whenever possible"; the companion report \[4\]
//! studies both variants experimentally. This table races the E-process
//! against the V-process and the SRW across degrees, reporting `CV/n`
//! (flat = linear).
//!
//! Engine wrapper: one shared-graph spec races the three processes; this
//! binary reshapes the cells into the normalised columns.

use eproc_bench::{out, run_engine_spec, save_artifacts, Config};
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, ProcessSpec, RuleSpec, Scale, Target,
};
use eproc_stats::TextTable;

fn main() {
    let config = Config::from_args();
    out!("E-process vs V-process vs SRW on random r-regular graphs (CV/n)\n");
    let sizes: Vec<usize> = match config.scale {
        Scale::Quick => vec![2_000, 8_000, 32_000],
        Scale::Paper => vec![8_000, 32_000, 128_000],
    };
    let spec = ExperimentSpec {
        name: "table_vprocess".into(),
        description: "E-process vs V-process vs SRW vertex cover on random regular graphs".into(),
        graphs: [3usize, 4, 5, 6]
            .iter()
            .flat_map(|&d| sizes.iter().map(move |&n| GraphSpec::Regular { n, d }))
            .collect(),
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::VProcess,
            ProcessSpec::Srw,
        ],
        trials: 5,
        target: Target::VertexCover,
        metrics: vec![],
        start: 0,
        cap: CapSpec::NLogN(5_000.0),
        resample: None,
    };
    let (_, report) = run_engine_spec(&spec, &config);
    let mut table = TextTable::new(vec![
        "r",
        "n",
        "E CV/n",
        "V CV/n",
        "SRW CV/n",
        "E CV/(n ln n)",
        "V CV/(n ln n)",
    ]);
    // Cell grid order: (graph, process) with processes = [e, v, srw].
    let cells = report.cells.chunks(spec.processes.len());
    for (gspec, cells) in spec.graphs.iter().zip(cells) {
        let GraphSpec::Regular { n, d: r } = *gspec else {
            panic!("the grid contains only regular graphs")
        };
        let nf = n as f64;
        let [e_cv, v_cv, s_cv] = [0, 1, 2].map(|pi| cells[pi].steps.mean());
        table.push_row(vec![
            r.to_string(),
            n.to_string(),
            format!("{:.2}", e_cv / nf),
            format!("{:.2}", v_cv / nf),
            format!("{:.2}", s_cv / nf),
            format!("{:.3}", e_cv / (nf * nf.ln())),
            format!("{:.3}", v_cv / (nf * nf.ln())),
        ]);
    }
    out!("{table}");
    save_artifacts(&[("table_vprocess", &table)], Some(&report));
}
