//! Crash-safe execution: checkpointing, graceful interruption, and
//! deterministic block retry — the `--checkpoint` / `--resume` /
//! `--max-wall` / `--retry-blocks` engine entry point.
//!
//! # The cancellation path
//!
//! [`run_recoverable`] runs a resampled spec on the executor's own block
//! pool — scoped worker threads claiming *(family, group)* blocks in
//! canonical order off a shared atomic, back-pressured a bounded window
//! ahead of the fold — with one addition: before claiming each block, a
//! worker polls a stop latch. The latch trips when (a) an armed
//! cancellation flag (SIGINT/SIGTERM via `eproc-signal`, or any
//! caller-owned [`AtomicBool`]) is set, (b) the `max_wall` deadline
//! passes, or (c) another worker's block failed permanently. Tripping is
//! *graceful*: blocks already running drain to completion (a block is
//! all-or-nothing — partial blocks are never persisted), workers then
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
//! blocks. A checkpoint ([`RunCheckpoint`], format version 3) persists
//! exactly that state, so its size is `O(cells × columns × sketch +
//! window)` however many blocks the run has. Periodic checkpoints
//! ([`CheckpointPlan::every`]) are written on the main thread, off the
//! workers' critical path, atomically; before each write the main
//! thread takes every completion already queued, so one write covers
//! them all.
//!
//! A resumed run rebuilds the fold from the checkpoint and schedules
//! only the blocks that are neither folded nor pending. Folding
//! continues with identical floating-point operations and sketch
//! compactions in identical order, so the final report is
//! **byte-identical to an uninterrupted run at any thread count**
//! (pinned by the `recovery` proptests and the CI `cmp` smokes).
//!
//! Block failures are isolated by `catch_unwind` (see
//! [`crate::executor::BlockError`]) and retried deterministically:
//! attempt `k` re-runs the same [`eproc_stats::SeedSequence`]-derived
//! seeds, so a retry that succeeds contributes bit-identical
//! accumulators. The [`FaultPlan`] harness injects panics and
//! graph-generation failures at exact *(family, group, attempt)*
//! coordinates to prove all of the above under test.

use crate::checkpoint::{checkpoint_json, CheckpointError, RunCheckpoint};
use crate::executor::{
    panic_message, run_block, run_block_isolated, run_pool, validate_vertices, BlockError,
    BlockRange, BlockResult, CellFolder, EngineError, ExperimentReport, FoldState, RunOptions,
    Telemetry,
};
use crate::fault::{FaultKind, FaultPlan};
use crate::persist::RunHeader;
use crate::spec::{ExperimentSpec, SpecError};
use eproc_graphs::GraphError;
use eproc_telemetry::{EventKind, NullSink, Stopwatch, TelemetrySink};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

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

/// Crash-safety options for [`run_recoverable`]. The default
/// ([`RecoveryOptions::none`]) disables every feature, making
/// `run_recoverable` equivalent to [`crate::executor::run`].
#[derive(Default)]
pub struct RecoveryOptions<'a> {
    /// Periodic checkpointing, if any.
    pub checkpoint: Option<CheckpointPlan>,
    /// A previously written checkpoint to resume from: validated
    /// against the spec, its folded state is restored and its pending
    /// blocks are not re-run.
    pub resume: Option<RunCheckpoint>,
    /// Wall-clock budget: the run interrupts itself gracefully once this
    /// much time has passed (checked between blocks).
    pub max_wall: Option<Duration>,
    /// How many times a failed block is deterministically re-run before
    /// its error becomes the run's error. `0` = fail on first error.
    pub retry_blocks: usize,
    /// Deterministic fault injection (testing); empty = disabled.
    pub faults: FaultPlan,
    /// External cancellation flag, polled between blocks — wire
    /// `eproc_signal::install()` here for SIGINT/SIGTERM handling.
    pub cancel: Option<&'a AtomicBool>,
}

impl RecoveryOptions<'_> {
    /// All features off.
    pub fn none() -> RecoveryOptions<'static> {
        RecoveryOptions::default()
    }
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
    /// The underlying engine failed: bad spec, or a block error that
    /// survived every retry.
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

/// Executes a resampled spec crash-safely: periodic atomic checkpoints,
/// graceful interruption on a cancellation flag or deadline, per-block
/// panic isolation with deterministic retries, and resumption from a
/// prior checkpoint. See the module docs for the full semantics.
///
/// # Errors
///
/// [`RecoveryError::Engine`] for invalid specs — including any spec
/// **without** a resample plan: shared-graph runs have no per-block
/// streaming to checkpoint (the same restriction as `--shard`) — and
/// for block failures that survive `retry_blocks` retries.
/// [`RecoveryError::Checkpoint`] when the resume checkpoint does not
/// match the spec. [`RecoveryError::Io`] when a checkpoint cannot be
/// written. On block failure, a final checkpoint of the completed
/// blocks is still written before the error returns.
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
    assert!(opts.threads > 0, "need at least one worker thread");
    spec.validate().map_err(EngineError::Spec)?;
    let Some(plan) = spec.resample else {
        return Err(RecoveryError::Engine(EngineError::Spec(SpecError::new(
            "crash-safe execution (--checkpoint / --resume / --max-wall / --retry-blocks) \
             requires a resampled run (--resample / a `~` family marker): shared-graph runs \
             have no independent per-block streams to checkpoint",
        ))));
    };
    validate_vertices(spec, None)?;
    let tel = Telemetry::new(sink);
    let header = RunHeader::from_spec(spec, opts.base_seed, plan);
    let total_blocks = header.total_blocks();
    let n_cols = header.metric_columns.len();
    let inputs = header.cell_inputs();

    // Rebuild the fold from the resume checkpoint, if any: its prefix is
    // folded already and its pending blocks wait in the window.
    let mut state = match &rec.resume {
        Some(resume) => {
            resume.validate_against(&header)?;
            resume.restore(&inputs)
        }
        None => FoldState::new(CellFolder::new(&inputs), vec![None; spec.graphs.len()]),
    };
    let held: Vec<usize> = state.pending.keys().copied().collect();
    let range = BlockRange {
        start: state.folder.fed(),
        end: total_blocks,
        skip: &held,
    };
    let remaining = total_blocks - state.completed();
    let workers = opts.threads.min(remaining.max(1));

    if tel.live {
        let remaining_trials: u64 = (range.start..range.end)
            .filter(|b| range.skip.binary_search(b).is_err())
            .map(|b| (header.block_trials(b) * spec.processes.len()) as u64)
            .sum();
        tel.emit(EventKind::RunStarted {
            name: spec.name.clone(),
            graphs: spec.graphs.len(),
            processes: spec.processes.len(),
            trials: spec.trials,
            blocks: remaining,
            total_trials: remaining_trials,
            workers,
            resampled: true,
            shard: None,
        });
    }

    let deadline = rec.max_wall.map(|d| Instant::now() + d);
    let interrupted = || {
        rec.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
            || deadline.is_some_and(|d| Instant::now() >= d)
    };
    let run = |block: usize, worker: usize| {
        run_block_with_retries(
            spec,
            opts.base_seed,
            block,
            worker,
            n_cols,
            &tel,
            &rec.faults,
            rec.retry_blocks,
        )
    };
    // Checkpoint once `every` blocks completed since the last write; the
    // pool hands over every completion already queued first, so one
    // write covers them all.
    let mut io_error: Option<std::io::Error> = None;
    let mut last_written = state.completed();
    let after_batch = |state: &FoldState<'_>| {
        let Some(cp) = rec.checkpoint.as_ref() else {
            return true;
        };
        if io_error.is_some() {
            return false;
        }
        if state.completed() - last_written < cp.every.max(1) {
            return true;
        }
        last_written = state.completed();
        match write_checkpoint(&header, state, cp, &tel) {
            Ok(()) => true,
            Err(e) => {
                // Durability is gone; stop the run rather than pretend
                // it is not.
                io_error = Some(e);
                false
            }
        }
    };
    let block_error = run_pool(
        range,
        workers,
        &mut state,
        tel.live,
        interrupted,
        run,
        after_batch,
    );

    // Final checkpoint: on interruption or failure the completed blocks
    // must be on disk; on completion the report itself is the artifact.
    let completed = state.completed();
    let all_done = completed == total_blocks;
    if !all_done && io_error.is_none() {
        if let Some(cp) = rec.checkpoint.as_ref() {
            if let Err(e) = write_checkpoint(&header, &state, cp, &tel) {
                io_error = Some(e);
            }
        }
    }

    if let Some(e) = io_error {
        return Err(RecoveryError::Io(e));
    }
    if let Some(e) = block_error {
        return Err(RecoveryError::Engine(e));
    }

    if !all_done {
        let reason = if rec.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            "signal"
        } else {
            "deadline"
        };
        if tel.live {
            tel.emit(EventKind::RunInterrupted {
                reason: reason.to_string(),
                completed,
                total: total_blocks,
            });
            tel.emit(EventKind::RunFinished {
                wall_ns: tel.clock.elapsed_ns(),
                total_trials: state.trials_run,
                total_steps: state.steps_run,
            });
        }
        return Ok(RunOutcome::Interrupted {
            reason: reason.to_string(),
            completed,
            total: total_blocks,
            checkpoint: rec.checkpoint.as_ref().map(|c| c.path.clone()),
        });
    }

    let (agg_ns, trials_run, steps_run) = (state.agg_ns, state.trials_run, state.steps_run);
    let cells = state.finish();
    if tel.live {
        tel.emit(EventKind::AggregationMerged {
            blocks: total_blocks,
            cells: cells.len(),
            agg_ns,
        });
        tel.emit(EventKind::RunFinished {
            wall_ns: tel.clock.elapsed_ns(),
            total_trials: trials_run,
            total_steps: steps_run,
        });
    }
    Ok(RunOutcome::Completed(ExperimentReport {
        name: spec.name.clone(),
        description: spec.description.clone(),
        target: spec.target,
        trials: spec.trials,
        base_seed: opts.base_seed,
        resample: spec.resample,
        cells,
    }))
}

/// Atomically writes a checkpoint of the run's fold state, emitting one
/// `checkpoint_written` event when telemetry is live.
fn write_checkpoint(
    header: &RunHeader,
    state: &FoldState<'_>,
    cp: &CheckpointPlan,
    tel: &Telemetry<'_>,
) -> std::io::Result<()> {
    let clock = tel.live.then(Stopwatch::start);
    let rep_dims: Vec<(usize, usize, usize)> = state
        .dims
        .iter()
        .enumerate()
        .filter_map(|(gi, d)| d.map(|(n, m)| (gi, n, m)))
        .collect();
    let text = checkpoint_json(
        header,
        &rep_dims,
        state.folder.fed(),
        state.folder.cells(),
        state.pending.values(),
    );
    eproc_telemetry::write_atomic(&cp.path, &text)?;
    if let Some(clock) = clock {
        tel.emit(EventKind::CheckpointWritten {
            blocks: state.completed(),
            total: header.total_blocks(),
            bytes: text.len() as u64,
            checkpoint_ns: clock.elapsed_ns(),
        });
    }
    Ok(())
}

/// Runs one block with fault injection and deterministic retries:
/// attempt `k` derives the exact same seeds as attempt 0, so a
/// successful retry contributes bit-identical accumulators. Emits one
/// `block_retried` event per failed attempt that will be retried.
#[allow(clippy::too_many_arguments)]
fn run_block_with_retries(
    spec: &ExperimentSpec,
    base_seed: u64,
    block: usize,
    worker: usize,
    n_cols: usize,
    tel: &Telemetry<'_>,
    faults: &FaultPlan,
    retry_blocks: usize,
) -> Result<BlockResult, EngineError> {
    let mut attempt = 0;
    loop {
        let result =
            run_block_attempt(spec, base_seed, block, worker, n_cols, tel, faults, attempt);
        match result {
            Ok(r) => return Ok(r),
            Err(e) if attempt < retry_blocks => {
                if tel.live {
                    let plan = spec.resample.expect("resample block requires a plan");
                    let groups = plan.groups(spec.trials);
                    tel.emit(EventKind::BlockRetried {
                        block,
                        family: spec.graphs[block / groups].label(),
                        group: block % groups,
                        worker,
                        attempt,
                        error: e.to_string(),
                    });
                }
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One block attempt: the plain isolated runner when no faults are
/// armed (the zero-cost default), otherwise the same run wrapped so the
/// scheduled fault fires inside the `catch_unwind` boundary — injected
/// panics exercise the exact isolation path real panics take.
#[allow(clippy::too_many_arguments)]
fn run_block_attempt(
    spec: &ExperimentSpec,
    base_seed: u64,
    block: usize,
    worker: usize,
    n_cols: usize,
    tel: &Telemetry<'_>,
    faults: &FaultPlan,
    attempt: usize,
) -> Result<BlockResult, EngineError> {
    if faults.is_empty() {
        return run_block_isolated(spec, base_seed, block, worker, n_cols, None, tel);
    }
    let plan = spec.resample.expect("resample block requires a plan");
    let groups = plan.groups(spec.trials);
    let gi = block / groups;
    let group = block % groups;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match faults.at(gi, group, attempt) {
            Some(FaultKind::Panic) => {
                panic!("injected fault: panic at (family {gi}, group {group}, attempt {attempt})")
            }
            Some(FaultKind::GraphFail) => Err(EngineError::Block {
                graph: spec.graphs[gi].label(),
                group,
                worker,
                source: BlockError::Graph(GraphError::RetriesExhausted {
                    generator: "fault-injection",
                    attempts: 1,
                    what: format!(
                        "an injected failure at (family {gi}, group {group}, attempt {attempt})"
                    ),
                }),
            }),
            None => run_block(spec, base_seed, block, worker, n_cols, None, tel),
        }
    }))
    .unwrap_or_else(|payload| {
        Err(EngineError::Block {
            graph: spec.graphs[gi].label(),
            group,
            worker,
            source: BlockError::Panic(panic_message(payload)),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::claim_window;
    use crate::spec::{CapSpec, GraphSpec, ProcessSpec, ResamplePlan, Target};
    use eproc_telemetry::Event;
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

    #[test]
    fn checkpoints_never_hold_more_than_a_window_of_pending_blocks() {
        let threads = 4;
        for groups in [40, 400] {
            let spec = ExperimentSpec {
                name: "window".into(),
                description: "checkpoint size bound".into(),
                graphs: vec![
                    GraphSpec::Regular { n: 16, d: 3 },
                    GraphSpec::Torus { w: 4, h: 4 },
                ],
                processes: vec![ProcessSpec::Srw],
                trials: groups,
                target: Target::VertexCover,
                metrics: vec![],
                start: 0,
                cap: CapSpec::Auto,
                resample: Some(ResamplePlan { walks_per_graph: 1 }),
            };
            let path = std::env::temp_dir().join(format!(
                "eproc-window-{}-{groups}.ckpt.json",
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
            let outcome = run_recoverable_with_sink(&spec, &opts, &rec, &probe).unwrap();
            assert!(matches!(outcome, RunOutcome::Completed(_)));
            let _ = std::fs::remove_file(&probe.path);
            let pending = probe.pending.into_inner().unwrap();
            assert!(!pending.is_empty(), "{groups} groups: nothing checkpointed");
            let most = pending.iter().copied().max().unwrap();
            assert!(
                most <= claim_window(threads),
                "{groups} groups: a checkpoint carried {most} pending blocks, over the window of {}",
                claim_window(threads)
            );
        }
    }
}
