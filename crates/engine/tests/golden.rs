//! Pins the engine's JSON artifact byte-for-byte against a committed
//! golden file.
//!
//! The monomorphized walk kernel promises "same RNG draw order" as the
//! pre-kernel dyn path: trial outcomes — and hence every aggregate in the
//! artifact — must be bit-identical across the refactor, any thread
//! count, and any future change that claims to be a pure optimisation.
//! The golden was generated by the dyn implementation via
//!
//! ```text
//! eproc compare --graph torus:16,16 --process eprocess,srw \
//!   --metrics cover,blanket:0.4,phases,bluecensus,hitting \
//!   --trials 3 --threads 4 --json golden/multi_metric.json
//! ```
//!
//! If this test fails, either the RNG draw order changed (a silent
//! semantic regression: every published table shifts) or a deliberate
//! change to sampling/observers requires regenerating the golden with the
//! command above — do that consciously, in its own commit.

use eproc_engine::checkpoint::RunCheckpoint;
use eproc_engine::executor::{run, EngineError, RunOptions};
use eproc_engine::fault::FaultPlan;
use eproc_engine::recovery::{
    run_recoverable, CheckpointPlan, RecoveryError, RecoveryOptions, RunOutcome,
};
use eproc_engine::report::to_json;
use eproc_engine::shard::{merge_shards, run_shard, ShardSpec};
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, RuleSpec, Target,
};

/// The exact spec the CI smoke (and the golden) was built from.
fn golden_spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "compare".into(),
        description: "ad-hoc comparison built from CLI flags".into(),
        graphs: vec![GraphSpec::Torus { w: 16, h: 16 }],
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::Srw,
        ],
        trials: 3,
        target: Target::VertexCover,
        metrics: vec![
            MetricSpec::Cover,
            MetricSpec::Blanket { delta: 0.4 },
            MetricSpec::Phases,
            MetricSpec::BlueCensus,
            MetricSpec::Hitting { vertex: None },
        ],
        start: 0,
        cap: CapSpec::Auto,
        resample: None,
    }
}

#[test]
fn comparison_builtin_artifact_matches_committed_golden() {
    let golden = include_str!("golden/comparison_quick.json");
    let spec = eproc_engine::builtin::spec("comparison", eproc_engine::Scale::Quick)
        .expect("comparison is a builtin");
    let report = run(
        &spec,
        &RunOptions {
            threads: 2,
            base_seed: 12345,
        },
    )
    .expect("builtin spec runs");
    assert_eq!(
        to_json(&report),
        golden,
        "comparison builtin artifact diverged from the committed golden"
    );
}

/// The shared-graph `comparison` builtin reproduces its golden through a
/// 2-shard merge and through a fault-interrupted checkpoint resumed at
/// another thread count — the same blocks, folded in the same order.
#[test]
fn comparison_golden_survives_sharding_and_a_fault_interrupted_resume() {
    let golden = include_str!("golden/comparison_quick.json");
    let spec = eproc_engine::builtin::spec("comparison", eproc_engine::Scale::Quick)
        .expect("comparison is a builtin");
    let opts = |threads| RunOptions {
        threads,
        base_seed: 12345,
    };
    let shards = [(0, 3), (1, 1)].map(|(index, threads)| {
        let shard =
            run_shard(&spec, &opts(threads), ShardSpec { index, count: 2 }).expect("shard runs");
        RunCheckpoint::from_json(&shard.to_json()).expect("shard checkpoint round-trips")
    });
    let merged = merge_shards(&shards).expect("complete shard set merges");
    assert_eq!(to_json(&merged), golden, "2-shard merge diverged");

    let path = std::env::temp_dir().join(format!("eproc-golden-{}.ckpt.json", std::process::id()));
    let faulted = RecoveryOptions {
        checkpoint: Some(CheckpointPlan {
            path: path.clone(),
            every: 1,
        }),
        faults: FaultPlan::parse("graphfail@1.0").unwrap(),
        ..RecoveryOptions::default()
    };
    let err = run_recoverable(&spec, &opts(3), &faulted).unwrap_err();
    assert!(
        matches!(err, RecoveryError::Engine(EngineError::Block { .. })),
        "{err}"
    );
    let checkpoint = RunCheckpoint::load(&path).expect("the failed run checkpointed");
    let _ = std::fs::remove_file(&path);
    assert!(checkpoint.completed_blocks() < checkpoint.total_blocks());
    let resume = RecoveryOptions {
        resume: Some(checkpoint),
        ..RecoveryOptions::default()
    };
    match run_recoverable(&spec, &opts(1), &resume).expect("resume runs") {
        RunOutcome::Completed(report) => {
            assert_eq!(to_json(&report), golden, "resumed run diverged")
        }
        RunOutcome::Interrupted { .. } => unreachable!("nothing interrupts the resume"),
    }
}

#[test]
fn multi_metric_artifact_matches_committed_golden() {
    let golden = include_str!("golden/multi_metric.json");
    for threads in [1, 2, 3, 4] {
        let report = run(
            &golden_spec(),
            &RunOptions {
                threads,
                base_seed: 12345,
            },
        )
        .expect("golden spec runs");
        let json = to_json(&report);
        assert_eq!(
            json, golden,
            "JSON artifact diverged from the committed golden ({threads} threads): \
             the RNG draw order or aggregation changed"
        );
    }
}
