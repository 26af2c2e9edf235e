//! Run checkpoints: the crash-safe persistence behind `--checkpoint` /
//! `--resume` (checkpoint format `eproc-checkpoint`, version 4).
//!
//! A checkpoint is the recoverable runner's aggregation state, not a
//! list of blocks. It holds:
//!
//! - the canonical run header identifying the `(spec, base_seed)` run —
//!   including whether it resampled, so shared-graph and resampled runs
//!   checkpoint alike — and each family's representative `(n, m)` seen
//!   so far;
//! - the length of the canonical block prefix already folded;
//! - every cell's raw accumulator state after that fold — Welford
//!   moments, quantile sketches with their coin-stream state, and the
//!   variance-split builders — floats as IEEE-754 bit patterns;
//! - the completed blocks past the prefix that wait for it, at most the
//!   claim window of the run that wrote it.
//!
//! Its size is therefore `O(cells × columns × sketch + window)`, the same
//! whether the run has sixty blocks or six million. Resuming rebuilds
//! the fold from that state and runs only the blocks that are neither
//! folded nor pending. Each block is a pure function of `(spec,
//! base_seed, block)` and the fold consumes blocks in canonical order
//! either way, so the final artifact is **byte-identical to an
//! uninterrupted run**, at any thread count, no matter where the
//! original run died.
//!
//! Earlier versions are rejected with an error naming the version:
//! version 2 listed every completed block instead, and version 3 had no
//! `resampled` header field because only resampled runs could
//! checkpoint.
//!
//! Checkpoints are written atomically ([`eproc_telemetry::write_atomic`]):
//! a crash mid-checkpoint leaves the previous complete checkpoint in
//! place, never a truncated document. Loading treats the file as
//! hostile: every count, index and sketch is checked against the header
//! (see [`RunCheckpoint::from_json`]), so a damaged checkpoint is a
//! [`CheckpointError`], never a panic or a silently wrong resume.

use crate::executor::{BlockAgg, CellAcc, CellFolder, CellInputs, Fold, FoldState, Telemetry};
use crate::persist::{
    check_proc, json, parse_blocks, parse_cells, parse_rep_dims, write_blocks, write_cells,
    write_rep_dims, PersistError, RunHeader,
};
use eproc_telemetry::{EventKind, Stopwatch};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// The checkpoint format version this build writes and reads.
const VERSION: u64 = 4;

/// A checkpoint failure: an unreadable or malformed checkpoint file, or
/// a resume attempt against a spec that does not match the checkpoint's
/// run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError {
    message: String,
}

impl CheckpointError {
    pub(crate) fn new(message: impl Into<String>) -> CheckpointError {
        CheckpointError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CheckpointError {}

impl From<PersistError> for CheckpointError {
    fn from(e: PersistError) -> CheckpointError {
        CheckpointError::new(e.to_string())
    }
}

/// A persisted prefix of a run: the run's identity, the folded
/// cell state and the pending blocks, bit-exact. Produced periodically
/// by [`crate::recovery::run_recoverable`] and consumed by `--resume`.
#[derive(Debug, Clone)]
pub struct RunCheckpoint {
    /// The run this checkpoint belongs to.
    pub(crate) header: RunHeader,
    /// `(family, n, m)` of the group-0 samples completed so far.
    pub(crate) rep_dims: Vec<(usize, usize, usize)>,
    /// Length of the canonical block prefix folded into `cells`.
    pub(crate) folded: usize,
    /// Every cell's accumulators after folding the prefix, grid order.
    pub(crate) cells: Vec<CellAcc>,
    /// Completed blocks past the prefix, ascending.
    pub(crate) pending: Vec<BlockAgg>,
}

impl RunCheckpoint {
    /// How many blocks the checkpoint holds: the folded prefix plus the
    /// pending blocks.
    pub fn completed_blocks(&self) -> usize {
        self.folded + self.pending.len()
    }

    /// Total canonical block count of the checkpointed run.
    pub fn total_blocks(&self) -> usize {
        self.header.total_blocks()
    }

    /// Checks that this checkpoint belongs to the run described by
    /// `expected` (the spec + base seed about to be resumed), naming the
    /// first disagreeing field otherwise.
    pub(crate) fn validate_against(&self, expected: &RunHeader) -> Result<(), CheckpointError> {
        match self.header.first_mismatch(expected) {
            Some(field) => Err(CheckpointError::new(format!(
                "checkpoint does not match the spec being resumed: {field} differs \
                 (the checkpoint comes from a different run)"
            ))),
            None => Ok(()),
        }
    }

    /// The aggregation state to resume from. `inputs` must describe
    /// this checkpoint's run (see [`RunCheckpoint::validate_against`]).
    pub(crate) fn restore<'a>(&self, inputs: &'a CellInputs<'a>) -> FoldState<'a> {
        let folder = CellFolder::resume(inputs, self.folded, self.cells.clone());
        let (families, processes) = (self.header.graphs.len(), self.header.processes.len());
        let mut state = FoldState::new(Fold::Cells(folder), self.folded, 1, families, processes);
        for &(gi, n, m) in &self.rep_dims {
            state.dims[gi] = Some((n, m));
        }
        state.pending = self.pending.iter().map(|b| (b.block, b.clone())).collect();
        state
    }

    /// Serialises the checkpoint as deterministic strict JSON, floats as
    /// IEEE-754 bit patterns — `from_json(to_json())` is the identity
    /// down to the last bit.
    pub fn to_json(&self) -> String {
        checkpoint_json(
            &self.header,
            &self.rep_dims,
            self.folded,
            &self.cells,
            &self.pending,
        )
    }

    /// Writes the checkpoint to `path` atomically (temp sibling +
    /// rename), creating parent directories; returns the byte size
    /// written (reported in `checkpoint_written` telemetry).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on failure `path` still holds the
    /// previous complete checkpoint, if any.
    pub fn save(&self, path: &Path) -> std::io::Result<u64> {
        let text = self.to_json();
        eproc_telemetry::write_atomic(path, &text)?;
        Ok(text.len() as u64)
    }

    /// Reads and parses a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] for unreadable files or malformed checkpoints.
    pub fn load(path: &Path) -> Result<RunCheckpoint, CheckpointError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CheckpointError::new(format!("reading {}: {e}", path.display())))?;
        RunCheckpoint::from_json(&text)
            .map_err(|e| CheckpointError::new(format!("{}: {e}", path.display())))
    }

    /// Parses a [`RunCheckpoint::to_json`] document, bit-exactly, and
    /// checks it is one the engine could have written: the block count
    /// and cell grid follow from the header, the folded prefix fits the
    /// run, pending blocks are unique and past the block that would
    /// extend the prefix (which the writer folds at once), no block or
    /// cell holds more values than it has trials, and every family whose
    /// group-0 block is held has its dimensions.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] describing the first structural problem,
    /// including any version other than 4.
    pub fn from_json(text: &str) -> Result<RunCheckpoint, CheckpointError> {
        let value = json::parse(text)?;
        let root = value.as_obj("checkpoint")?;
        let format = root.str_field("format")?;
        if format != "eproc-checkpoint" {
            return Err(CheckpointError::new(format!(
                "not a run checkpoint (format {format:?})"
            )));
        }
        let version = root.u64_field("version")?;
        if version != VERSION {
            return Err(CheckpointError::new(format!(
                "unsupported checkpoint version {version}: this build reads version {VERSION}; \
                 rerun without --resume"
            )));
        }
        let mut pending = parse_blocks(&root, "pending")?;
        pending.sort_by_key(|b| b.block);
        let checkpoint = RunCheckpoint {
            header: RunHeader::parse(&root)?,
            rep_dims: parse_rep_dims(&root)?,
            folded: root.usize_field("folded")?,
            cells: parse_cells(&root)?,
            pending,
        };
        checkpoint.check()?;
        Ok(checkpoint)
    }

    /// The structural checks [`RunCheckpoint::from_json`] documents.
    fn check(&self) -> Result<(), CheckpointError> {
        let h = &self.header;
        let total = h.total_blocks();
        let n_cols = h.metric_columns.len();
        if self.folded > total {
            return Err(CheckpointError::new(format!(
                "checkpoint folds {} blocks of a {total}-block run",
                self.folded
            )));
        }
        if h.graphs.len().checked_mul(h.processes.len()) != Some(self.cells.len()) {
            return Err(CheckpointError::new(format!(
                "checkpoint carries {} cells for {} families x {} processes",
                self.cells.len(),
                h.graphs.len(),
                h.processes.len()
            )));
        }
        for (ci, cell) in self.cells.iter().enumerate() {
            check_proc(&cell.totals, h.trials, n_cols)
                .map_err(|e| CheckpointError::new(format!("cell {ci}: {e}")))?;
            if cell.metric_splits.len() != n_cols {
                return Err(CheckpointError::new(format!(
                    "cell {ci}: {} metric splits for {n_cols} columns",
                    cell.metric_splits.len()
                )));
            }
            let splits = std::iter::once(&cell.steps_split).chain(&cell.metric_splits);
            for split in splits {
                if split.graph_samples > h.group_count
                    || split.across.count() != split.graph_samples as u64
                    || split.within_dof > h.trials as u64
                {
                    return Err(CheckpointError::new(format!(
                        "cell {ci}: a variance split counts more samples than the run has"
                    )));
                }
            }
        }
        h.check_blocks(&self.pending)?;
        if let Some(b) = self.pending.iter().find(|b| b.block <= self.folded) {
            return Err(CheckpointError::new(format!(
                "pending block {} does not lie past the folded prefix of {} blocks",
                b.block, self.folded
            )));
        }
        if let Some(w) = self.pending.windows(2).find(|w| w[0].block == w[1].block) {
            return Err(CheckpointError::new(format!(
                "block {} appears more than once",
                w[0].block
            )));
        }
        let mut has_dims = vec![false; h.graphs.len()];
        for &(gi, _, _) in &self.rep_dims {
            if gi >= has_dims.len() || std::mem::replace(&mut has_dims[gi], true) {
                return Err(CheckpointError::new(format!(
                    "checkpoint reports dimensions for family {gi} twice or outside the grid"
                )));
            }
        }
        // A resumed run does not sample a held group-0 graph again, so
        // its dimensions must come from the checkpoint.
        for (gi, has) in has_dims.into_iter().enumerate() {
            let first = gi * h.group_count;
            let held = first < self.folded
                || self
                    .pending
                    .binary_search_by_key(&first, |b| b.block)
                    .is_ok();
            if held && !has {
                return Err(CheckpointError::new(format!(
                    "checkpoint holds family {gi}'s group-0 block but not its dimensions"
                )));
            }
        }
        Ok(())
    }
}

/// Renders a checkpoint document from borrowed run state — the one
/// writer behind [`RunCheckpoint::to_json`] and [`write_checkpoint`].
pub(crate) fn checkpoint_json<'b>(
    header: &RunHeader,
    rep_dims: &[(usize, usize, usize)],
    folded: usize,
    cells: &[CellAcc],
    pending: impl IntoIterator<Item = &'b BlockAgg>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"format\": \"eproc-checkpoint\",");
    let _ = writeln!(out, "  \"version\": {VERSION},");
    header.write_fields(&mut out);
    write_rep_dims(&mut out, rep_dims);
    let _ = writeln!(out, "  \"folded\": {folded},");
    write_cells(&mut out, cells);
    write_blocks(&mut out, "pending", pending);
    out
}

/// Atomically writes a checkpoint of a report run's fold state to `path`,
/// emitting one `checkpoint_written` event when telemetry is live.
pub(crate) fn write_checkpoint(
    header: &RunHeader,
    state: &FoldState<'_>,
    path: &Path,
    tel: &Telemetry<'_>,
) -> std::io::Result<()> {
    let Fold::Cells(folder) = &state.into else {
        unreachable!("only report runs checkpoint");
    };
    let clock = tel.live.then(Stopwatch::start);
    let text = checkpoint_json(
        header,
        &state.rep_dims(),
        folder.fed(),
        folder.cells(),
        state.pending.values(),
    );
    eproc_telemetry::write_atomic(path, &text)?;
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
