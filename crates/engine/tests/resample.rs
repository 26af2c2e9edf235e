//! The ensemble-over-graphs subsystem: per-trial graph resampling must be
//! thread-count deterministic, actually vary the graph across trials,
//! report coherent variance splits, and fail fast (not hang) when a
//! family cannot produce a connected sample.

use eproc_engine::executor::{
    build_graphs, resample_graph_seed, run, run_on_graphs, BlockError, EngineError, RunOptions,
};
use eproc_engine::report::to_json;
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, ResamplePlan, RuleSpec, Scale,
    Target,
};

fn ensemble_spec(walks_per_graph: usize) -> ExperimentSpec {
    ExperimentSpec {
        name: "resample-test".into(),
        description: "per-trial graph resampling".into(),
        graphs: vec![
            GraphSpec::Regular { n: 48, d: 3 },
            GraphSpec::Regular { n: 64, d: 4 },
        ],
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::Srw,
        ],
        trials: 6,
        target: Target::VertexCover,
        metrics: vec![MetricSpec::Cover, MetricSpec::Hitting { vertex: None }],
        start: 0,
        cap: CapSpec::Auto,
        resample: Some(ResamplePlan { walks_per_graph }),
    }
}

#[test]
fn resampled_artifacts_are_bit_identical_across_thread_counts() {
    for walks in [1, 2] {
        let spec = ensemble_spec(walks);
        let sequential = run(
            &spec,
            &RunOptions {
                threads: 1,
                base_seed: 99,
            },
        )
        .unwrap();
        for threads in [2, 4, 8] {
            let parallel = run(
                &spec,
                &RunOptions {
                    threads,
                    base_seed: 99,
                },
            )
            .unwrap();
            assert_eq!(
                to_json(&sequential),
                to_json(&parallel),
                "resampled artifact diverged at {threads} threads (walks_per_graph = {walks})"
            );
        }
    }
}

#[test]
fn resampling_changes_the_ensemble() {
    // The same seed with and without resampling must disagree: shared
    // mode walks one graph six times, resample mode walks six graphs.
    let resampled = run(
        &ensemble_spec(1),
        &RunOptions {
            threads: 2,
            base_seed: 7,
        },
    )
    .unwrap();
    let mut shared_spec = ensemble_spec(1);
    shared_spec.resample = None;
    let shared = run(
        &shared_spec,
        &RunOptions {
            threads: 2,
            base_seed: 7,
        },
    )
    .unwrap();
    assert_ne!(
        resampled.cells[1].steps.mean(),
        shared.cells[1].steps.mean(),
        "six distinct cubic samples matching one shared sample exactly is vanishingly unlikely"
    );
}

#[test]
fn variance_split_is_coherent() {
    let report = run(
        &ensemble_spec(2),
        &RunOptions {
            threads: 3,
            base_seed: 11,
        },
    )
    .unwrap();
    assert_eq!(report.resample, Some(ResamplePlan { walks_per_graph: 2 }));
    for cell in &report.cells {
        assert_eq!(cell.completed, 6, "{}/{}", cell.graph, cell.process);
        let split = cell.steps_split.as_ref().expect("resampled cells split");
        // 6 trials, 2 walks per graph: 3 graph samples.
        assert_eq!(split.graph_samples, 3);
        assert_eq!(split.across.count(), 3);
        let within = split.within_variance.expect("replicates exist");
        assert!(within >= 0.0);
        // The mean of per-graph means equals the pooled mean when every
        // group has the same size.
        assert!(
            (split.across.mean() - cell.steps.mean()).abs() < 1e-9,
            "balanced design: mean of group means must equal pooled mean"
        );
        for metric in &cell.metrics {
            let msplit = metric.split.as_ref().expect("metric split present");
            assert_eq!(msplit.graph_samples, 3);
        }
    }
    // JSON carries the components.
    let json = to_json(&report);
    assert!(json.contains("\"resample\": {\"walks_per_graph\": 2}"));
    assert!(json.contains("\"variance_components\""));
    assert!(json.contains("\"across_graph_variance\""));
    assert!(json.contains("\"within_graph_variance\""));
}

/// `across` summarises per-graph means, so its extremes are per-graph
/// means too: with one walk per graph they are the extreme trials, and
/// with more they lie between them. (An `across` that started from a
/// zeroed accumulator reported a minimum of 0.)
#[test]
fn across_graph_extremes_are_per_graph_means() {
    for walks_per_graph in [1, 2] {
        let spec = ExperimentSpec {
            name: "across-extremes".into(),
            description: "SRW on resampled cubic graphs".into(),
            graphs: vec![GraphSpec::Regular { n: 64, d: 3 }],
            processes: vec![ProcessSpec::Srw],
            trials: 6,
            target: Target::VertexCover,
            metrics: vec![],
            start: 0,
            cap: CapSpec::Auto,
            resample: Some(ResamplePlan { walks_per_graph }),
        };
        let report = run(
            &spec,
            &RunOptions {
                threads: 2,
                base_seed: 5,
            },
        )
        .unwrap();
        let cell = &report.cells[0];
        let across = &cell.steps_split.as_ref().unwrap().across;
        let (lo, hi) = (cell.steps.min().unwrap(), cell.steps.max().unwrap());
        if walks_per_graph == 1 {
            assert_eq!(across.min(), Some(lo));
            assert_eq!(across.max(), Some(hi));
        } else {
            let (min, max) = (across.min().unwrap(), across.max().unwrap());
            assert!(
                lo <= min && min <= max && max <= hi,
                "{min}..{max} outside {lo}..{hi}"
            );
        }
    }
}

#[test]
fn per_trial_resampling_has_no_within_component() {
    let report = run(
        &ensemble_spec(1),
        &RunOptions {
            threads: 2,
            base_seed: 13,
        },
    )
    .unwrap();
    for cell in &report.cells {
        let split = cell.steps_split.as_ref().unwrap();
        assert_eq!(split.graph_samples, 6, "one graph per trial");
        assert!(
            split.within_variance.is_none(),
            "no replicate walks: within-graph variance is inestimable"
        );
    }
    let json = to_json(&report);
    assert!(json.contains("\"within_graph_variance\": null"));
}

#[test]
fn shared_mode_reports_no_split() {
    let mut spec = ensemble_spec(1);
    spec.resample = None;
    let report = run(
        &spec,
        &RunOptions {
            threads: 2,
            base_seed: 3,
        },
    )
    .unwrap();
    assert!(report.resample.is_none());
    for cell in &report.cells {
        assert!(cell.steps_split.is_none());
        assert!(cell.metrics.iter().all(|m| m.split.is_none()));
    }
    let json = to_json(&report);
    assert!(!json.contains("variance_components"));
    assert!(!json.contains("\"resample\""));
}

#[test]
fn run_on_graphs_refuses_resample_specs() {
    // Prebuilt graphs would never be walked under resampling — a wrapper
    // computing per-graph enrichment from them would describe graphs the
    // report's statistics never touched. The API refuses instead.
    let spec = ensemble_spec(1);
    let mut shared = spec.clone();
    shared.resample = None;
    let graphs = build_graphs(&shared, 1).unwrap();
    let err = run_on_graphs(
        &spec,
        &RunOptions {
            threads: 1,
            base_seed: 1,
        },
        &graphs,
    )
    .unwrap_err();
    assert!(matches!(err, EngineError::Spec(_)), "{err}");
    assert!(err.to_string().contains("resampling"), "{err}");
}

#[test]
fn resample_seeds_are_distinct_and_process_free() {
    // Graph samples are keyed by (family, group) only — every process in
    // a cell walks the same ensemble member.
    let a = resample_graph_seed(5, 0, 0);
    let b = resample_graph_seed(5, 0, 1);
    let c = resample_graph_seed(5, 1, 0);
    assert_ne!(a, b);
    assert_ne!(a, c);
    assert_ne!(b, c);
    assert_ne!(a, resample_graph_seed(6, 0, 0), "base seed must matter");
}

#[test]
fn geometric_retry_exhaustion_fails_fast_through_engine_error() {
    // A radius factor far below the connectivity threshold: no sample is
    // ever connected. Pre-fix this spun forever inside the executor; now
    // it must return GraphError::RetriesExhausted via EngineError::Graph.
    let spec = ExperimentSpec {
        graphs: vec![GraphSpec::Geometric {
            n: 60,
            radius_factor: 0.05,
        }],
        processes: vec![ProcessSpec::Srw],
        trials: 1,
        metrics: vec![],
        ..ensemble_spec(1)
    };
    // Shared mode: the failure surfaces from build_graphs.
    let mut shared = spec.clone();
    shared.resample = None;
    let err = run(
        &shared,
        &RunOptions {
            threads: 1,
            base_seed: 1,
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("exhausted"), "{err}");
    match err {
        EngineError::Graph { graph, source } => {
            assert!(graph.contains("geometric"), "{graph}");
            assert!(
                matches!(source, eproc_graphs::GraphError::RetriesExhausted { .. }),
                "{source}"
            );
        }
        other => panic!("expected EngineError::Graph, got {other}"),
    }
    // Resample mode hits the same failure inside a worker thread; it must
    // propagate as an error, not a panic, and the error names the block
    // that died — family, trial group and claiming worker.
    let err = run(
        &spec,
        &RunOptions {
            threads: 2,
            base_seed: 1,
        },
    )
    .unwrap_err();
    match err {
        EngineError::Block {
            ref graph,
            group,
            worker,
            ref source,
        } => {
            assert!(graph.contains("geometric"), "{graph}");
            assert_eq!(group, 0, "the first block claimed must be group 0");
            assert!(worker < 2, "worker id {worker} out of pool range");
            assert!(
                matches!(
                    source,
                    BlockError::Graph(eproc_graphs::GraphError::RetriesExhausted { .. })
                ),
                "{source}"
            );
        }
        ref other => panic!("expected EngineError::Block, got {other}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("worker"), "{msg}");
    assert!(msg.contains("family"), "{msg}");
    assert!(msg.contains(", group 0)"), "{msg}");
}

#[test]
fn resampled_builtins_run_scaled_down() {
    for name in ["cubicensemble", "odddegree"] {
        let mut spec = eproc_engine::builtin::spec(name, Scale::Quick).unwrap();
        spec.graphs.truncate(1);
        spec.graphs = vec![GraphSpec::Regular { n: 32, d: 3 }];
        spec.trials = 4;
        let a = run(
            &spec,
            &RunOptions {
                threads: 1,
                base_seed: 21,
            },
        )
        .unwrap();
        let b = run(
            &spec,
            &RunOptions {
                threads: 4,
                base_seed: 21,
            },
        )
        .unwrap();
        assert_eq!(
            to_json(&a),
            to_json(&b),
            "builtin {name} not thread-invariant"
        );
        assert!(a.cells.iter().all(|c| c.completed == 4));
        assert!(a.cells[0].steps_split.is_some());
    }
}
