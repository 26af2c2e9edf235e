//! The `eproc scale` subsystem end to end: sweep artifacts must be
//! bit-identical across thread counts and match a committed golden, the
//! growth-law verdicts must reproduce the paper's linear-vs-`n log n`
//! dichotomy, degenerate sweeps must surface errors (not panics), and
//! every emitted JSON artifact must parse as strict JSON — no bare
//! `inf`/`NaN` literals, ever.

use eproc_engine::builtin;
use eproc_engine::executor::{run, RunOptions};
use eproc_engine::report::{scaling_table, to_json, to_json_with_scaling};
use eproc_engine::scaling::{analyze, ScalingError, STEPS_SERIES};
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, ResamplePlan, RuleSpec, Scale,
    Target,
};
use eproc_stats::scaling::GrowthModel;

mod common;
use common::json;

/// The exact spec the committed scaling golden (and the CI scale smoke)
/// was built from — the ad-hoc CLI equivalent:
///
/// ```text
/// eproc scale --graph "regular:~{64..256,x2},4" --process eprocess,srw \
///   --trials 4 --resample 2 --metrics cover --threads 4 \
///   --json golden/scaling_small.json
/// ```
fn golden_spec() -> ExperimentSpec {
    let (graphs, resample) = GraphSpec::parse_with_sweep("regular:~{64..256,x2},4").unwrap();
    assert!(resample);
    assert_eq!(
        graphs,
        [64, 128, 256].map(|n| GraphSpec::Regular { n, d: 4 })
    );
    ExperimentSpec {
        name: "scale".into(),
        description: "ad-hoc size sweep built from CLI flags".into(),
        graphs,
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::Srw,
        ],
        trials: 4,
        target: Target::VertexCover,
        metrics: vec![MetricSpec::Cover],
        start: 0,
        cap: CapSpec::Auto,
        resample: Some(ResamplePlan { walks_per_graph: 2 }),
    }
}

#[test]
fn scaling_artifact_matches_committed_golden_for_any_thread_count() {
    let golden = include_str!("golden/scaling_small.json");
    for threads in [1, 4] {
        let report = run(
            &golden_spec(),
            &RunOptions {
                threads,
                base_seed: 12345,
            },
        )
        .unwrap();
        let scaling = analyze(&report).unwrap();
        let json = to_json_with_scaling(&report, Some(&scaling));
        assert_eq!(
            json, golden,
            "scaling artifact diverged from the committed golden ({threads} threads)"
        );
    }
}

#[test]
fn scaling_even_builtin_prefers_the_linear_model() {
    // The acceptance gate: `eproc scale scaling-even` must report the
    // linear model for the even-degree E-process series, with R².
    let spec = builtin::spec("scaling-even", Scale::Quick).unwrap();
    let report = run(
        &spec,
        &RunOptions {
            threads: 4,
            base_seed: 12345,
        },
    )
    .unwrap();
    let scaling = analyze(&report).unwrap();
    let steps = scaling
        .series
        .iter()
        .find(|s| s.series == STEPS_SERIES)
        .unwrap();
    assert_eq!(
        steps.selection.preferred,
        GrowthModel::ProportionalEdges,
        "even-degree E-process cover time must fit c*m"
    );
    let fit = steps.selection.preferred_fit();
    assert!(fit.fit.r_squared > 0.999, "R^2 = {}", fit.fit.r_squared);
    // C_V ~ m on random 4-regular graphs: the constant lands near 1.
    assert!((fit.fit.slope - 1.0).abs() < 0.1, "c = {}", fit.fit.slope);
    // Every metric series of the sweep is linear too (C_V and C_E).
    for series in &scaling.series {
        assert!(
            series.selection.preferred.is_linear(),
            "{} preferred {:?}",
            series.series,
            series.selection.preferred
        );
    }
    // The rendered table carries the growth-law verdict.
    let table = scaling_table(&scaling).to_string();
    assert!(table.contains("c*m"), "{table}");
    assert!(table.contains("<-"), "{table}");
}

#[test]
fn scaling_srw_builtin_shows_the_nlogn_contrast() {
    let spec = builtin::spec("scaling-srw", Scale::Quick).unwrap();
    let report = run(
        &spec,
        &RunOptions {
            threads: 4,
            base_seed: 12345,
        },
    )
    .unwrap();
    let scaling = analyze(&report).unwrap();
    let by_process = |p: &str| {
        scaling
            .series
            .iter()
            .find(|s| s.process.starts_with(p) && s.series == STEPS_SERIES)
            .unwrap()
    };
    assert!(
        by_process("e-process").selection.preferred.is_linear(),
        "E-process must stay linear"
    );
    assert_eq!(
        by_process("srw").selection.preferred,
        GrowthModel::NLogN,
        "SRW must grow as c*n ln n"
    );
    // The SRW constant lands near the theoretical (d-1)/(d-2) = 1.5.
    let c = by_process("srw").selection.preferred_fit().fit.slope;
    assert!((1.2..2.0).contains(&c), "SRW nlogn constant {c}");
}

#[test]
fn multi_family_sweeps_fit_one_law_per_family() {
    // A sweep over two families must yield separate series per family —
    // never one mixed curve. The 4-regular family and the cycle family
    // share the same sizes here; mixing them would fit garbage silently.
    let (mut graphs, _) = GraphSpec::parse_with_sweep("regular:~{64..256,x2},4").unwrap();
    let (cycles, _) = GraphSpec::parse_with_sweep("cycle:{64..256,x2}").unwrap();
    graphs.extend(cycles);
    let spec = ExperimentSpec {
        graphs,
        processes: vec![ProcessSpec::EProcess {
            rule: RuleSpec::Uniform,
        }],
        metrics: vec![],
        ..golden_spec()
    };
    let report = run(
        &spec,
        &RunOptions {
            threads: 2,
            base_seed: 8,
        },
    )
    .unwrap();
    let scaling = analyze(&report).unwrap();
    let families: Vec<&str> = scaling.series.iter().map(|s| s.family.as_str()).collect();
    assert_eq!(families, vec!["random 4-regular", "cycle"]);
    for series in &scaling.series {
        assert_eq!(series.points.len(), 3, "3 sizes per family series");
        assert!(series.selection.preferred.is_linear());
    }
    // The deterministic cycle sweep fits y = m - 1 exactly.
    let cycle = &scaling.series[1];
    let fit = cycle.selection.preferred_fit();
    assert_eq!(cycle.selection.preferred, GrowthModel::AffineEdges);
    assert!((fit.fit.slope - 1.0).abs() < 1e-9);
}

#[test]
fn degenerate_sweep_surfaces_a_scaling_error() {
    // A sweep where nothing completes: analyze must error, not panic —
    // this is the path the CLI turns into `error: growth-law fit …`.
    let mut spec = golden_spec();
    spec.cap = CapSpec::Absolute(1);
    let report = run(
        &spec,
        &RunOptions {
            threads: 2,
            base_seed: 1,
        },
    )
    .unwrap();
    match analyze(&report) {
        Err(ScalingError::Series {
            process, series, ..
        }) => {
            assert_eq!(series, STEPS_SERIES);
            assert!(!process.is_empty());
        }
        other => panic!("expected a series error, got {other:?}"),
    }
}

#[test]
fn every_emitted_artifact_parses_as_strict_json() {
    // Scaling artifact (growth_laws section included).
    let report = run(
        &golden_spec(),
        &RunOptions {
            threads: 2,
            base_seed: 12345,
        },
    )
    .unwrap();
    let scaling = analyze(&report).unwrap();
    json::validate(&to_json_with_scaling(&report, Some(&scaling))).unwrap();
    json::validate(&to_json(&report)).unwrap();

    // Zero-completed resampled cells: OnlineStats min/max are ±∞
    // internally; none of that may leak into the artifact.
    let mut capped = golden_spec();
    capped.cap = CapSpec::Absolute(1);
    let report = run(
        &capped,
        &RunOptions {
            threads: 2,
            base_seed: 3,
        },
    )
    .unwrap();
    let json_text = to_json(&report);
    json::validate(&json_text).unwrap();
    assert!(json_text.contains("\"mean_steps\": null"));

    // Tiny-n cells (complete:2): mean/(n ln n) must serialise as null,
    // not a division artefact.
    let tiny = ExperimentSpec {
        graphs: vec![GraphSpec::Complete { n: 2 }],
        processes: vec![ProcessSpec::Srw],
        resample: None,
        metrics: vec![],
        ..golden_spec()
    };
    let report = run(
        &tiny,
        &RunOptions {
            threads: 1,
            base_seed: 5,
        },
    )
    .unwrap();
    let json_text = to_json(&report);
    json::validate(&json_text).unwrap();
    assert!(
        json_text.contains("\"mean_over_n_log_n\": null"),
        "{json_text}"
    );

    // The committed goldens themselves.
    json::validate(include_str!("golden/comparison_quick.json")).unwrap();
    json::validate(include_str!("golden/multi_metric.json")).unwrap();
    json::validate(include_str!("golden/scaling_small.json")).unwrap();
}

#[test]
fn tiny_n_cells_render_dashes_in_the_text_table() {
    let spec = ExperimentSpec {
        graphs: vec![GraphSpec::Complete { n: 2 }],
        processes: vec![ProcessSpec::Srw],
        resample: None,
        metrics: vec![],
        ..golden_spec()
    };
    let report = run(
        &spec,
        &RunOptions {
            threads: 1,
            base_seed: 5,
        },
    )
    .unwrap();
    let table = eproc_engine::report::to_text_table(&report).to_string();
    let row = table.lines().last().unwrap();
    assert!(row.contains('-'), "n=2 row must dash out n ln n: {row}");
    assert!(
        !row.contains("inf") && !row.contains("NaN"),
        "non-finite leaked into the table: {row}"
    );
}
