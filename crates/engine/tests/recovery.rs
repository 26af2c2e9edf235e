//! Crash-safety contracts: a run killed at *any* block, and a run whose
//! blocks panic or lose their graphs, resumed from its checkpoint, must
//! reproduce the uninterrupted artifact **byte-for-byte**, at any thread
//! count — `cmp` would pass on the files. This is the recovery analogue
//! of `shard_merge.rs`.

mod common;

use eproc_engine::checkpoint::RunCheckpoint;
use eproc_engine::executor::ExperimentReport;
use eproc_engine::executor::{run, BlockError, EngineError, RunOptions};
use eproc_engine::fault::FaultPlan;
use eproc_engine::recovery::{
    run_recoverable, run_recoverable_with_sink, CheckpointPlan, RecoveryError, RecoveryOptions,
    RunOutcome,
};
use eproc_engine::report::{to_json, to_json_with};
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, ResamplePlan, RuleSpec, Target,
};
use eproc_telemetry::{Event, EventKind, TelemetrySink};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Once;

/// Injected panics unwind through `catch_unwind` by design; the default
/// hook would spray their backtraces over the test output. Installed
/// once, and only filters the harness's own marker string — real panics
/// still print.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("injected fault:"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// A small but varied resampled spec: optionally two graph families, a
/// ragged last group when `trials` is odd — 2 or 4 blocks total.
fn spec_for(trials: usize, both_families: bool) -> ExperimentSpec {
    spec_with(
        trials,
        both_families,
        Some(ResamplePlan { walks_per_graph: 2 }),
    )
}

/// [`spec_for`] under an explicit resample plan; `None` runs the same
/// grid on one shared graph per family.
fn spec_with(trials: usize, both_families: bool, resample: Option<ResamplePlan>) -> ExperimentSpec {
    let mut graphs = vec![GraphSpec::Regular { n: 20, d: 3 }];
    if both_families {
        graphs.push(GraphSpec::Torus { w: 4, h: 5 });
    }
    ExperimentSpec {
        name: "recovery-prop".into(),
        description: "crash-safety property-test spec".into(),
        graphs,
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::Srw,
        ],
        trials,
        target: Target::VertexCover,
        metrics: vec![MetricSpec::Cover],
        start: 0,
        cap: CapSpec::Auto,
        resample,
    }
}

/// A unique temp path per test invocation (tests in this binary run
/// concurrently).
fn temp_checkpoint(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "eproc-recovery-{}-{tag}-{n}.json",
        std::process::id()
    ))
}

/// A sink that flips a cancellation flag after the `k`-th completed
/// block — the deterministic stand-in for SIGINT arriving mid-run.
struct CancelAfter<'a> {
    cancel: &'a AtomicBool,
    completed: AtomicUsize,
    k: usize,
}

impl TelemetrySink for CancelAfter<'_> {
    fn emit(&self, event: &Event) {
        if matches!(event.kind, EventKind::BlockCompleted { .. })
            && self.completed.fetch_add(1, Ordering::Relaxed) + 1 >= self.k
        {
            self.cancel.store(true, Ordering::Relaxed);
        }
    }
}

/// Interrupts a run after `kill_after` blocks (checkpointing every
/// completion), then resumes from the written checkpoint, and returns
/// the final report. Either phase may also complete outright —
/// in-flight blocks drain past the cancellation point by design.
fn killed_and_resumed(
    spec: &ExperimentSpec,
    seed: u64,
    kill_after: usize,
    threads_a: usize,
    threads_b: usize,
) -> ExperimentReport {
    let path = temp_checkpoint("kill");
    let cancel = AtomicBool::new(false);
    let sink = CancelAfter {
        cancel: &cancel,
        completed: AtomicUsize::new(0),
        k: kill_after,
    };
    let rec = RecoveryOptions {
        checkpoint: Some(CheckpointPlan {
            path: path.clone(),
            every: 1,
        }),
        cancel: Some(&cancel),
        ..RecoveryOptions::default()
    };
    let opts_a = RunOptions {
        threads: threads_a,
        base_seed: seed,
    };
    let first = run_recoverable_with_sink(spec, &opts_a, &rec, &sink).expect("first phase runs");
    let report = match first {
        RunOutcome::Completed(report) => report,
        RunOutcome::Interrupted {
            reason,
            completed,
            total,
            checkpoint,
        } => {
            assert_eq!(reason, "signal");
            assert!(completed < total);
            let ckpt_path = checkpoint.expect("checkpointing was configured");
            let ckpt = RunCheckpoint::load(&ckpt_path).expect("final checkpoint is readable");
            // The final checkpoint must hold exactly the completed prefix.
            assert_eq!(ckpt.completed_blocks(), completed);
            common::json::validate(&ckpt.to_json()).expect("checkpoint is strict JSON");
            let rec = RecoveryOptions {
                resume: Some(ckpt),
                ..RecoveryOptions::default()
            };
            let opts_b = RunOptions {
                threads: threads_b,
                base_seed: seed,
            };
            match run_recoverable(spec, &opts_b, &rec).expect("resume runs") {
                RunOutcome::Completed(report) => report,
                RunOutcome::Interrupted { .. } => unreachable!("nothing interrupts the resume"),
            }
        }
    };
    let _ = std::fs::remove_file(&path);
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline contract: kill at any block, resume on a different
    /// thread count, and the artifact matches an uninterrupted run's
    /// byte-for-byte — for a shared-graph spec too, whose 64-trial
    /// blocks the larger trial count splits into 2 to 4 per family.
    #[test]
    fn killed_and_resumed_runs_reproduce_the_artifact(
        seed in 0u64..1_000_000,
        trials in 3usize..8,
        kill_after in 0usize..4,
        threads_draw in 0usize..4,
        shared in 0usize..2,
    ) {
        // Exercise the {1, 4}-thread grid across both phases.
        let threads_a = if threads_draw % 2 == 0 { 1 } else { 4 };
        let threads_b = if threads_draw / 2 == 0 { 1 } else { 4 };
        let spec = if shared == 1 {
            spec_with(trials * 30, true, None)
        } else {
            spec_for(trials, true)
        };
        let golden = to_json(&run(&spec, &RunOptions { threads: 2, base_seed: seed }).unwrap());
        let resumed = killed_and_resumed(&spec, seed, kill_after, threads_a, threads_b);
        prop_assert_eq!(&to_json(&resumed), &golden);
    }

    /// Injected faults — a panic and a lost graph, on different blocks —
    /// fail the run after its completed blocks are checkpointed, and
    /// resuming that checkpoint with the faults disarmed, at another
    /// thread count, leaves no trace of them in the artifact, on
    /// resampled and shared graphs alike.
    #[test]
    fn faulted_runs_resume_to_the_uninterrupted_artifact(
        seed in 0u64..1_000_000,
        trials in 3usize..8,
        shared in 0usize..2,
    ) {
        quiet_injected_panics();
        let spec = if shared == 1 {
            spec_with(trials * 30, true, None)
        } else {
            spec_for(trials, true)
        };
        let golden = to_json(&run(&spec, &RunOptions { threads: 2, base_seed: seed }).unwrap());
        let path = temp_checkpoint("fault");
        let rec = RecoveryOptions {
            checkpoint: Some(CheckpointPlan { path: path.clone(), every: 1 }),
            faults: FaultPlan::parse("panic@0.1,graphfail@1.0").unwrap(),
            ..RecoveryOptions::default()
        };
        let opts = RunOptions { threads: 4, base_seed: seed };
        let err = run_recoverable(&spec, &opts, &rec).unwrap_err();
        prop_assert!(
            matches!(err, RecoveryError::Engine(EngineError::Block { .. })),
            "{}",
            err
        );
        let ckpt = RunCheckpoint::load(&path).expect("failure still checkpoints completed blocks");
        let _ = std::fs::remove_file(&path);
        prop_assert!(ckpt.completed_blocks() < ckpt.total_blocks());
        let rec = RecoveryOptions { resume: Some(ckpt), ..RecoveryOptions::default() };
        let opts = RunOptions { threads: 1, base_seed: seed };
        let report = match run_recoverable(&spec, &opts, &rec).expect("resume runs") {
            RunOutcome::Completed(report) => report,
            RunOutcome::Interrupted { .. } => unreachable!("nothing interrupts the resume"),
        };
        prop_assert_eq!(&to_json(&report), &golden);
    }
}

/// A killed-and-resumed run carries the same sketch bits as an
/// uninterrupted one — the checkpoint persists raw sketch state — so any
/// `--quantiles` selection renders byte-identically, not just the
/// default p50/p90/p99 that `to_json` prints.
#[test]
fn custom_quantile_render_survives_kill_and_resume() {
    let spec = spec_for(5, true);
    let seed = 90210;
    let full = run(
        &spec,
        &RunOptions {
            threads: 2,
            base_seed: seed,
        },
    )
    .unwrap();
    let resumed = killed_and_resumed(&spec, seed, 2, 1, 4);
    let quantiles = [0.25, 0.5, 0.999];
    assert_eq!(
        to_json_with(&resumed, None, &quantiles),
        to_json_with(&full, None, &quantiles)
    );
}

/// The checkpoint of `spec` at seed 7, interrupted after its first
/// block.
fn interrupted_checkpoint(spec: &ExperimentSpec, tag: &str) -> RunCheckpoint {
    let path = temp_checkpoint(tag);
    let cancel = AtomicBool::new(false);
    let sink = CancelAfter {
        cancel: &cancel,
        completed: AtomicUsize::new(0),
        k: 1,
    };
    let rec = RecoveryOptions {
        checkpoint: Some(CheckpointPlan {
            path: path.clone(),
            every: 1,
        }),
        cancel: Some(&cancel),
        ..RecoveryOptions::default()
    };
    let opts = RunOptions {
        threads: 1,
        base_seed: 7,
    };
    // threads=1 with k=1: the run reliably interrupts before finishing.
    let outcome = run_recoverable_with_sink(spec, &opts, &rec, &sink).expect("first phase runs");
    assert!(matches!(outcome, RunOutcome::Interrupted { .. }));
    let ckpt = RunCheckpoint::load(&path).expect("checkpoint written");
    let _ = std::fs::remove_file(&path);
    ckpt
}

/// Resumes `ckpt` as a run of `(spec, base_seed)`, which must reject it
/// as a checkpoint of another run; returns the error message.
fn rejected_resume(spec: &ExperimentSpec, base_seed: u64, ckpt: RunCheckpoint) -> String {
    let rec = RecoveryOptions {
        resume: Some(ckpt),
        ..RecoveryOptions::default()
    };
    let opts = RunOptions {
        threads: 1,
        base_seed,
    };
    let err = run_recoverable(spec, &opts, &rec).unwrap_err();
    assert!(
        matches!(err, RecoveryError::Checkpoint(_)),
        "wrong error kind: {err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("different run"), "{msg}");
    msg
}

#[test]
fn resume_rejects_a_checkpoint_from_a_different_run() {
    let spec = spec_for(4, true);
    // Same spec, different seed: a different run.
    let msg = rejected_resume(&spec, 8, interrupted_checkpoint(&spec, "mismatch"));
    assert!(msg.contains("base_seed"), "{msg}");
}

/// Every trial walks from the start vertex, so a resume under another
/// `--start` would fold two experiments into one report.
#[test]
fn resume_rejects_a_checkpoint_written_with_another_start() {
    let spec = spec_for(4, true);
    let ckpt = interrupted_checkpoint(&spec, "start");
    let moved = ExperimentSpec { start: 5, ..spec };
    let msg = rejected_resume(&moved, 7, ckpt);
    assert!(msg.contains("start differs"), "{msg}");
}

/// The cap decides which trials complete, so a resume under another
/// `--cap` would fold two experiments into one report.
#[test]
fn resume_rejects_a_checkpoint_written_with_another_cap() {
    let spec = ExperimentSpec {
        cap: CapSpec::Absolute(30),
        ..spec_for(4, true)
    };
    let ckpt = interrupted_checkpoint(&spec, "cap");
    let uncapped = ExperimentSpec {
        cap: CapSpec::Auto,
        ..spec
    };
    let msg = rejected_resume(&uncapped, 7, ckpt);
    assert!(msg.contains("cap differs"), "{msg}");
}

#[test]
fn a_failed_block_names_the_block_and_keeps_the_checkpoint() {
    quiet_injected_panics();
    let spec = spec_for(4, true);
    let path = temp_checkpoint("failed");
    let rec = RecoveryOptions {
        checkpoint: Some(CheckpointPlan {
            path: path.clone(),
            every: 1,
        }),
        faults: FaultPlan::parse("panic@1.1").unwrap(),
        ..RecoveryOptions::default()
    };
    let opts = RunOptions {
        threads: 2,
        base_seed: 3,
    };
    let err = run_recoverable(&spec, &opts, &rec).unwrap_err();
    let msg = err.to_string();
    assert!(matches!(
        &err,
        RecoveryError::Engine(EngineError::Block {
            source: BlockError::Panic(_),
            ..
        })
    ));
    // The message names the family by label, the group, and the worker.
    assert!(msg.contains("family torus 4x5"), "{msg}");
    assert!(msg.contains(", group 1)"), "{msg}");
    assert!(msg.contains("worker"), "{msg}");
    assert!(msg.contains("injected fault"), "{msg}");

    // The completed blocks were still checkpointed, and resuming with
    // the faults disarmed finishes the run to the golden artifact.
    let ckpt = RunCheckpoint::load(&path).expect("failure still checkpoints completed blocks");
    let rec = RecoveryOptions {
        resume: Some(ckpt),
        ..RecoveryOptions::default()
    };
    let golden = to_json(&run(&spec, &opts).unwrap());
    match run_recoverable(&spec, &opts, &rec).expect("resume runs") {
        RunOutcome::Completed(report) => assert_eq!(to_json(&report), golden),
        RunOutcome::Interrupted { .. } => unreachable!("nothing interrupts the resume"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shared_graph_block_errors_name_the_group_without_resampling() {
    quiet_injected_panics();
    // A shared-graph spec never resamples: its group is a trial chunk.
    let spec = spec_with(4, true, None);
    let rec = RecoveryOptions {
        faults: FaultPlan::parse("panic@1.0").unwrap(),
        ..RecoveryOptions::default()
    };
    let opts = RunOptions {
        threads: 2,
        base_seed: 3,
    };
    let msg = run_recoverable(&spec, &opts, &rec).unwrap_err().to_string();
    assert!(msg.contains("family torus 4x5, group 0)"), "{msg}");
    assert!(!msg.contains("resample"), "{msg}");
}

#[test]
fn max_wall_deadline_interrupts_gracefully() {
    let spec = spec_for(6, true);
    let rec = RecoveryOptions {
        max_wall: Some(std::time::Duration::ZERO),
        ..RecoveryOptions::default()
    };
    let opts = RunOptions {
        threads: 2,
        base_seed: 5,
    };
    match run_recoverable(&spec, &opts, &rec).expect("deadline is not an error") {
        RunOutcome::Interrupted {
            reason,
            completed,
            total,
            checkpoint,
        } => {
            assert_eq!(reason, "deadline");
            assert_eq!(completed, 0, "an already-expired deadline claims nothing");
            // 2 families x ceil(6 trials / 2 walks) = 6 blocks.
            assert_eq!(total, 6);
            assert!(checkpoint.is_none(), "no checkpoint was configured");
        }
        RunOutcome::Completed(_) => panic!("a zero deadline cannot complete"),
    }
}

#[test]
fn a_deadline_past_what_the_clock_represents_is_no_deadline() {
    let spec = spec_for(4, true);
    let opts = RunOptions {
        threads: 2,
        base_seed: 5,
    };
    let clean = to_json(&run(&spec, &opts).unwrap());
    let rec = RecoveryOptions {
        max_wall: Some(std::time::Duration::MAX),
        ..RecoveryOptions::default()
    };
    match run_recoverable(&spec, &opts, &rec).expect("a far deadline is not an error") {
        RunOutcome::Completed(report) => assert_eq!(to_json(&report), clean),
        RunOutcome::Interrupted { reason, .. } => panic!("interrupted ({reason})"),
    }
}
