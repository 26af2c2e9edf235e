//! The engine's streamed means against closed forms. The determinism
//! suites prove the bytes never change; this proves the numbers are
//! right. Each case runs through `run()` at a fixed seed — 400 trials
//! folded through the same blocks, sketches and cell accumulators as
//! every report — and checks the exact answer:
//!
//! - E-process vertex cover on the cycle `C_n`: the blue walk sweeps the
//!   cycle without a red step, so every trial takes exactly `n − 1`;
//! - SRW vertex cover on `C_n`: `n(n − 1)/2`;
//! - SRW vertex cover on `K_n`: the coupon collector over the `n − 1`
//!   other vertices, `(n − 1)·H(n − 1)`.
//!
//! The random-walk means must lie within 4 standard errors of the exact
//! value; the seeds are fixed, so the test cannot flake.

use eproc_engine::executor::{run, CellSummary, RunOptions};
use eproc_engine::spec::{CapSpec, ExperimentSpec, GraphSpec, ProcessSpec, RuleSpec, Target};

const TRIALS: usize = 400;

/// The vertex-cover cell of `process` on `graph`, over [`TRIALS`] trials.
fn vertex_cover(graph: GraphSpec, process: ProcessSpec, base_seed: u64) -> CellSummary {
    let spec = ExperimentSpec {
        name: "closed-forms".into(),
        description: "engine means against closed forms".into(),
        graphs: vec![graph],
        processes: vec![process],
        trials: TRIALS,
        target: Target::VertexCover,
        metrics: vec![],
        start: 0,
        cap: CapSpec::Auto,
        resample: None,
    };
    let report = run(
        &spec,
        &RunOptions {
            threads: 2,
            base_seed,
        },
    )
    .expect("closed-form spec runs");
    let cell = report.cells.into_iter().next().expect("one cell");
    assert_eq!(cell.completed, TRIALS, "{} / {}", cell.graph, cell.process);
    cell
}

/// Asserts the cell's mean lies within 4 standard errors of `exact`.
fn assert_mean_near(cell: &CellSummary, exact: f64) {
    let se = cell.steps.std_dev() / (cell.steps.count() as f64).sqrt();
    let mean = cell.steps.mean();
    assert!(
        (mean - exact).abs() <= 4.0 * se,
        "{} / {}: mean {mean:.3} is {:.2} standard errors ({se:.3}) from the exact {exact:.3}",
        cell.graph,
        cell.process,
        (mean - exact).abs() / se
    );
}

#[test]
fn engine_means_match_closed_forms() {
    let n = 20;
    let eprocess = vertex_cover(
        GraphSpec::Cycle { n },
        ProcessSpec::EProcess {
            rule: RuleSpec::Uniform,
        },
        1,
    );
    let sweep = (n - 1) as f64;
    assert_eq!(eprocess.steps.min(), Some(sweep));
    assert_eq!(eprocess.steps.max(), Some(sweep));

    let srw_cycle = vertex_cover(GraphSpec::Cycle { n }, ProcessSpec::Srw, 2);
    assert_mean_near(&srw_cycle, (n * (n - 1)) as f64 / 2.0);

    let k = 10;
    let srw_complete = vertex_cover(GraphSpec::Complete { n: k }, ProcessSpec::Srw, 3);
    let harmonic: f64 = (1..k).map(|i| 1.0 / i as f64).sum();
    assert_mean_near(&srw_complete, (k - 1) as f64 * harmonic);
}
