//! Crash-safe execution: checkpointing, graceful interruption and
//! resumption — the `--checkpoint` / `--resume` / `--max-wall` engine
//! entry point.
//!
//! # The cancellation path
//!
//! [`run_recoverable`] runs any spec — shared-graph or resampled — through
//! the executor's one driver and worker pool: scoped worker threads
//! claiming tasks (a *(family, group)* block's processes) in canonical
//! order off a shared atomic, back-pressured a bounded window of blocks
//! ahead of the fold. Before claiming each task, a worker polls a stop
//! latch. The latch trips when (a) an armed
//! cancellation flag (SIGINT/SIGTERM via `eproc-sys`, or any
//! caller-owned [`AtomicBool`]) is set, (b) the `max_wall` deadline
//! passes, or (c) another worker's task failed. Tripping is
//! *graceful*: tasks already running drain to completion (a block is
//! all-or-nothing — a block whose tasks did not all run is never
//! persisted, and reruns on resume), workers then
//! exit, the main thread writes a final checkpoint, and the caller gets
//! [`RunOutcome::Interrupted`] naming what stopped the run and how much
//! of it completed.
//!
//! # Streaming fold and constant-size checkpoints
//!
//! Completed blocks stream back to the main thread, which folds each one
//! into the executor's per-cell accumulators the moment the canonical
//! order allows — the same fold, in the same order, as
//! [`crate::executor::run`]. Nothing is kept per block: the run's state
//! is the folded prefix plus at most a claim window of out-of-order
//! blocks. A checkpoint ([`RunCheckpoint`], format version 6, the same
//! file a `--shard` run writes) persists exactly that state, so its size
//! is `O(cells × columns × sketch + window)` however many blocks the run
//! has. Periodic checkpoints
//! ([`CheckpointPlan::every`]) are written on the main thread, off the
//! workers' critical path, atomically; before each write the main
//! thread takes every completion already queued, so one write covers
//! them all.
//!
//! A resumed run — from an interrupted run's checkpoint or from a
//! shard's — rebuilds the fold from the checkpoint and schedules only
//! the blocks that are neither folded nor pending. Folding
//! continues with identical floating-point operations and sketch
//! compactions in identical order, so the final report is
//! **byte-identical to an uninterrupted run at any thread count**
//! (pinned by the `recovery` proptests and the CI `cmp` smokes).
//!
//! Failures are isolated per task by `catch_unwind` (see
//! [`crate::executor::BlockError`]) and reported, not retried: a block
//! re-derives the same [`eproc_stats::SeedSequence`] seeds on every
//! run, so a re-run would fail the same way. A failed block stops the
//! run like an interruption does — in-flight tasks drain and, under a
//! [`CheckpointPlan`], the completed blocks are checkpointed — and the
//! run returns the block's error; `--resume` finishes it once the cause
//! is fixed. No I/O can
//! fail a task: checkpoints are written on the main thread (a failed
//! write ends the run with [`RecoveryError::Io`]) and telemetry sinks
//! must not panic. The [`FaultPlan`] harness injects panics and
//! graph-generation failures at exact *(family, group)* coordinates to
//! prove all of the above under test.

use crate::checkpoint::{CheckpointError, RunCheckpoint};
use crate::executor::{drive, Blocks, EngineError, ExperimentReport, RunOptions};
use crate::fault::FaultPlan;
use crate::spec::{ExperimentSpec, SpecError};
use eproc_telemetry::{NullSink, TelemetrySink};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

/// Where and how often to checkpoint a run.
#[derive(Debug, Clone)]
pub struct CheckpointPlan {
    /// Checkpoint file path (written atomically on every update).
    pub path: PathBuf,
    /// Write a checkpoint once at least `every` blocks (clamped to at
    /// least 1) have completed since the last one. Writes coalesce: the
    /// main thread first takes every completion already queued, so when
    /// blocks finish faster than checkpoints are written, one write
    /// covers several blocks and fewer writes happen than `blocks /
    /// every`. A final checkpoint is always written on interruption or
    /// failure regardless of the cadence.
    pub every: usize,
}

/// Crash-safety options for [`run_recoverable`]. The default disables
/// every feature, making `run_recoverable` equivalent to
/// [`crate::executor::run`].
#[derive(Default)]
pub struct RecoveryOptions<'a> {
    /// Periodic checkpointing, if any.
    pub checkpoint: Option<CheckpointPlan>,
    /// A previously written checkpoint to resume from: validated
    /// against the spec, its folded state is restored and its pending
    /// blocks are not re-run.
    pub resume: Option<RunCheckpoint>,
    /// Wall-clock budget: the run interrupts itself gracefully once this
    /// much time has passed (checked between tasks). A budget past what
    /// the clock can represent is no budget.
    pub max_wall: Option<Duration>,
    /// Deterministic fault injection (testing); empty = disabled.
    pub faults: FaultPlan,
    /// External cancellation flag, polled between tasks — wire
    /// `eproc_sys::install()` here for SIGINT/SIGTERM handling.
    pub cancel: Option<&'a AtomicBool>,
}

/// How a recoverable run ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// Every block ran; the report is byte-identical to
    /// [`crate::executor::run`]'s for the same `(spec, base_seed)`.
    Completed(ExperimentReport),
    /// The run was interrupted (signal, cancellation flag, or deadline)
    /// before every block completed, and drained gracefully.
    Interrupted {
        /// What stopped the run: `"signal"` (cancellation flag) or
        /// `"deadline"` (`max_wall`).
        reason: String,
        /// Blocks completed across this run *and* any resumed prefix.
        completed: usize,
        /// Total blocks in the run.
        total: usize,
        /// Where the final checkpoint was written, when checkpointing
        /// was configured — resume from here.
        checkpoint: Option<PathBuf>,
    },
}

/// A recoverable-run failure.
#[derive(Debug)]
pub enum RecoveryError {
    /// The underlying engine failed: bad spec, or a failed block.
    Engine(EngineError),
    /// The resume checkpoint was rejected (wrong run, malformed).
    Checkpoint(CheckpointError),
    /// A checkpoint could not be written. The run stops: silently
    /// dropping durability the user asked for would defeat the point.
    Io(std::io::Error),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Engine(e) => write!(f, "{e}"),
            RecoveryError::Checkpoint(e) => write!(f, "{e}"),
            RecoveryError::Io(e) => write!(f, "writing checkpoint: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Engine(e) => Some(e),
            RecoveryError::Checkpoint(e) => Some(e),
            RecoveryError::Io(e) => Some(e),
        }
    }
}

impl From<EngineError> for RecoveryError {
    fn from(e: EngineError) -> RecoveryError {
        RecoveryError::Engine(e)
    }
}

impl From<SpecError> for RecoveryError {
    fn from(e: SpecError) -> RecoveryError {
        RecoveryError::Engine(EngineError::Spec(e))
    }
}

impl From<CheckpointError> for RecoveryError {
    fn from(e: CheckpointError) -> RecoveryError {
        RecoveryError::Checkpoint(e)
    }
}

/// [`run_recoverable_with_sink`] without telemetry.
///
/// # Errors
///
/// As [`run_recoverable_with_sink`].
pub fn run_recoverable(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    rec: &RecoveryOptions<'_>,
) -> Result<RunOutcome, RecoveryError> {
    run_recoverable_with_sink(spec, opts, rec, &NullSink)
}

/// Executes a spec crash-safely: periodic atomic checkpoints, graceful
/// interruption on a cancellation flag or deadline, per-block panic
/// isolation, and resumption from a prior checkpoint. Shared-graph and
/// resampled specs alike. See the module docs for the full semantics.
///
/// # Errors
///
/// [`RecoveryError::Engine`] for invalid specs and for block failures.
/// [`RecoveryError::Checkpoint`] when the resume checkpoint does not
/// match the spec.
/// [`RecoveryError::Io`] when a checkpoint cannot be written. On block
/// failure, a final checkpoint of the completed blocks is still written
/// before the error returns.
///
/// # Panics
///
/// Panics if `opts.threads == 0`.
pub fn run_recoverable_with_sink(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    rec: &RecoveryOptions<'_>,
    sink: &dyn TelemetrySink,
) -> Result<RunOutcome, RecoveryError> {
    let blocks = rec.resume.as_ref().map_or(Blocks::All, Blocks::Missing);
    let driven = drive(spec, opts, None, blocks, rec, sink)?;
    let state = driven.state;
    Ok(match driven.interrupted {
        None => RunOutcome::Completed(state.into_report()),
        Some(reason) => RunOutcome::Interrupted {
            reason: reason.to_string(),
            completed: state.completed_blocks(),
            total: state.total_blocks(),
            checkpoint: rec.checkpoint.as_ref().map(|cp| cp.path.clone()),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{claim_window, SHARED_BLOCK_WALKS};
    use crate::spec::{CapSpec, GraphSpec, ProcessSpec, ResamplePlan, RuleSpec, Target};
    use eproc_telemetry::{Event, EventKind};
    use std::sync::Mutex;

    /// Reads every checkpoint back the moment it is written and records
    /// how many pending blocks it carries.
    struct PendingProbe {
        path: PathBuf,
        pending: Mutex<Vec<usize>>,
    }

    impl TelemetrySink for PendingProbe {
        fn emit(&self, event: &Event) {
            if let EventKind::CheckpointWritten { .. } = event.kind {
                let ckpt = RunCheckpoint::load(&self.path).expect("checkpoint reads back");
                self.pending.lock().unwrap().push(ckpt.pending.len());
            }
        }
    }

    /// Runs `spec` on `threads` workers, checkpointing after every
    /// block, and returns the most pending blocks any checkpoint held.
    fn most_pending(spec: &ExperimentSpec, threads: usize, tag: &str) -> usize {
        let path = std::env::temp_dir().join(format!(
            "eproc-window-{}-{tag}.ckpt.json",
            std::process::id()
        ));
        let probe = PendingProbe {
            path: path.clone(),
            pending: Mutex::new(Vec::new()),
        };
        let rec = RecoveryOptions {
            checkpoint: Some(CheckpointPlan { path, every: 1 }),
            ..RecoveryOptions::default()
        };
        let opts = RunOptions {
            threads,
            base_seed: 9,
        };
        let outcome = run_recoverable_with_sink(spec, &opts, &rec, &probe).unwrap();
        assert!(matches!(outcome, RunOutcome::Completed(_)));
        let _ = std::fs::remove_file(&probe.path);
        let pending = probe.pending.into_inner().unwrap();
        assert!(!pending.is_empty(), "{tag}: nothing checkpointed");
        pending.into_iter().max().unwrap()
    }

    fn window_spec(trials: usize, resample: Option<ResamplePlan>) -> ExperimentSpec {
        ExperimentSpec {
            name: "window".into(),
            description: "checkpoint size bound".into(),
            graphs: vec![
                GraphSpec::Regular { n: 16, d: 3 },
                GraphSpec::Torus { w: 4, h: 4 },
            ],
            processes: vec![ProcessSpec::Srw],
            trials,
            target: Target::VertexCover,
            metrics: vec![],
            start: 0,
            cap: CapSpec::Auto,
            resample,
        }
    }

    #[test]
    fn checkpoints_never_hold_more_than_a_window_of_pending_blocks() {
        let threads = 4;
        for groups in [40, 400] {
            let spec = window_spec(groups, Some(ResamplePlan { walks_per_graph: 1 }));
            let most = most_pending(&spec, threads, &format!("resampled-{groups}"));
            assert!(
                most <= claim_window(threads),
                "{groups} groups: a checkpoint carried {most} pending blocks, over the window of {}",
                claim_window(threads)
            );
        }
    }

    #[test]
    fn shared_graph_checkpoints_never_hold_more_than_a_window_of_pending_blocks() {
        // 40 shared-graph blocks per family, each split into one task per
        // process: tasks land out of order, but only whole blocks are
        // checkpointed, and never more than the window of them.
        let threads = 4;
        let spec = ExperimentSpec {
            processes: vec![
                ProcessSpec::Srw,
                ProcessSpec::EProcess {
                    rule: RuleSpec::Uniform,
                },
            ],
            ..window_spec(40 * SHARED_BLOCK_WALKS, None)
        };
        let most = most_pending(&spec, threads, "shared");
        assert!(
            most <= claim_window(threads),
            "a checkpoint carried {most} pending blocks, over the window of {}",
            claim_window(threads)
        );
    }
}
