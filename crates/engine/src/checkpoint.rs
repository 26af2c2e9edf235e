//! Run checkpoints: the engine's one persisted partial run (format
//! `eproc-checkpoint`, version 6), behind `--checkpoint` / `--resume`
//! and `--shard` / `eproc merge` alike.
//!
//! A checkpoint is a driven run's aggregation state, not a list of
//! blocks. It holds:
//!
//! - the canonical run header identifying the `(spec, base_seed)` run —
//!   including its start vertex, its step cap and whether it resampled —
//!   and the representative `(n, m)` of each family whose group-0 block
//!   it holds;
//! - the length of the canonical block prefix already folded;
//! - every cell's raw accumulator state after that fold — Welford
//!   moments, quantile sketches with their coin-stream state, and the
//!   variance-split builders — floats as IEEE-754 bit patterns;
//! - the completed blocks past the prefix that wait for it.
//!
//! An interrupted run holds at most its claim window of pending blocks,
//! so its checkpoint's size is `O(cells × columns × sketch + window)`
//! whether the run has sixty blocks or six million. A shard run
//! ([`crate::shard`]) folds from block 0 as well: shard `0/k` folds
//! block 0 and holds its other blocks pending, and every other shard
//! folds nothing and holds all of its blocks pending. Resuming rebuilds
//! the fold from the checkpoint and runs only the blocks that are
//! neither folded nor pending, so a shard's checkpoint resumes into the
//! whole run; `eproc merge` folds checkpoints that together hold every
//! block exactly once. Each block is a pure function of `(spec,
//! base_seed, block)` and the fold consumes blocks in canonical order
//! either way, so the final artifact is **byte-identical to an
//! uninterrupted run**, at any thread count, however the run was split
//! and wherever it died.
//!
//! Earlier versions are rejected with an error naming the version:
//! version 2 listed every completed block instead, version 3 had no
//! `resampled` header field because only resampled runs could
//! checkpoint, version 4 recorded neither the start vertex nor the
//! step cap, so resuming under another `--start` or `--cap` mixed two
//! experiments, and version 5 persisted variance splits whose
//! across-graph minimum and maximum started at 0 instead of `±∞`. Files
//! of the retired shard-artifact format are rejected naming that format.
//!
//! Checkpoints are written atomically ([`eproc_telemetry::write_atomic`]):
//! a crash mid-checkpoint leaves the previous complete checkpoint in
//! place, never a truncated document. Loading treats the file as
//! hostile: every count, index and sketch is checked against the header
//! (see [`RunCheckpoint::from_json`]), so a damaged checkpoint is a
//! [`CheckpointError`], never a panic or a silently wrong resume or
//! merge.

use crate::executor::{
    BlockAgg, CellAcc, CellFolder, CellInputs, ExperimentReport, FoldState, Telemetry,
};
use crate::persist::{
    check_proc, json, parse_blocks, parse_cells, parse_rep_dims, same_cell_bits, write_blocks,
    write_cells, write_rep_dims, PersistError, RunHeader,
};
use crate::spec::ResamplePlan;
use eproc_telemetry::{EventKind, Stopwatch};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// The checkpoint format version this build writes and reads.
const VERSION: u64 = 6;

/// A checkpoint failure: an unreadable or malformed checkpoint file, a
/// resume attempt against a spec that does not match the checkpoint's
/// run, or a set of checkpoints that does not merge into one run.
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

/// A persisted partial run: the run's identity, the folded cell state
/// and the pending blocks, bit-exact. Written periodically by
/// [`crate::recovery::run_recoverable`] and returned by
/// [`crate::shard::run_shard`]; read by `--resume` and
/// [`crate::shard::merge_shards`].
#[derive(Debug, Clone)]
pub struct RunCheckpoint {
    /// The run this checkpoint belongs to.
    pub(crate) header: RunHeader,
    /// `(family, n, m)` of every family whose group-0 block it holds.
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
        let mut state = FoldState::new(folder, families, processes);
        for &(gi, n, m) in &self.rep_dims {
            state.dims[gi] = Some((n, m));
        }
        state.pending = self.pending.iter().map(|b| (b.block, b.clone())).collect();
        state
    }

    /// The report of a run whose every block this checkpoint has folded:
    /// the engine's one report tail, behind plain runs, resumed runs and
    /// merges alike.
    ///
    /// # Panics
    ///
    /// Panics unless every block is folded — which, on a checkpoint that
    /// passes the load-time checks, also gives every family its
    /// dimensions.
    pub(crate) fn into_report(self) -> ExperimentReport {
        let h = &self.header;
        assert_eq!(self.folded, h.total_blocks(), "a report folds every block");
        let mut dims = vec![None; h.graphs.len()];
        for (gi, n, m) in self.rep_dims {
            dims[gi] = Some((n, m));
        }
        let dims: Vec<(usize, usize)> = dims
            .into_iter()
            .map(|dim| dim.expect("every family ran its group-0 block"))
            .collect();
        let inputs = h.cell_inputs();
        let cells = CellFolder::resume(&inputs, self.folded, self.cells).finish(&dims);
        ExperimentReport {
            name: h.name.clone(),
            description: h.description.clone(),
            target: h.target,
            trials: h.trials,
            base_seed: h.base_seed,
            resample: h.resampled.then_some(ResamplePlan {
                walks_per_graph: h.walks_per_graph,
            }),
            cells,
        }
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
    /// and cell grid follow from the header; the folded prefix fits the
    /// run; each cell holds no more than its family's folded blocks ran —
    /// no more values than their trials, no more graph samples than
    /// their groups — and a family with no folded block has the empty
    /// cell a fresh fold starts from; pending blocks are unique, past the
    /// block that would extend the prefix (which the writer folds at
    /// once), and hold no more values than their trials; and a family
    /// has its dimensions exactly when its group-0 block is held, at most
    /// once — so a resume never samples that block again and no file can
    /// rewrite another's family size.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] describing the first structural problem,
    /// including any version other than 6 and the retired shard-artifact
    /// format.
    pub fn from_json(text: &str) -> Result<RunCheckpoint, CheckpointError> {
        let value = json::parse(text)?;
        let root = value.as_obj("checkpoint")?;
        match root.str_field("format")?.as_str() {
            "eproc-checkpoint" => {}
            "eproc-shard" => {
                return Err(CheckpointError::new(
                    "an eproc-shard artifact: this build reads shard runs as eproc-checkpoint \
                     files; re-run the shard",
                ))
            }
            format => {
                return Err(CheckpointError::new(format!(
                    "not a run checkpoint (format {format:?})"
                )))
            }
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

    /// The checks [`RunCheckpoint::from_json`] documents. `from_json`
    /// runs them on every file it reads; `eproc merge` runs them on every
    /// input, in-memory ones too.
    pub(crate) fn check(&self) -> Result<(), CheckpointError> {
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
        let inputs = h.cell_inputs();
        for (ci, cell) in self.cells.iter().enumerate() {
            let (gi, pi) = (ci / h.processes.len(), ci % h.processes.len());
            // The family's folded groups, and the trials they ran.
            let groups = self
                .folded
                .saturating_sub(gi * h.group_count)
                .min(h.group_count);
            let trials = groups.saturating_mul(h.walks_per_graph).min(h.trials);
            check_proc(&cell.totals, trials, n_cols)
                .map_err(|e| CheckpointError::new(format!("cell {ci}: {e}")))?;
            if cell.metric_splits.len() != n_cols {
                return Err(CheckpointError::new(format!(
                    "cell {ci}: {} metric splits for {n_cols} columns",
                    cell.metric_splits.len()
                )));
            }
            let splits = std::iter::once(&cell.steps_split).chain(&cell.metric_splits);
            for split in splits {
                if split.graph_samples > groups
                    || split.across.count() != split.graph_samples as u64
                    || split.within_dof > trials as u64
                {
                    return Err(CheckpointError::new(format!(
                        "cell {ci}: a variance split counts more samples than family {gi}'s \
                         {groups} folded blocks hold"
                    )));
                }
            }
            if groups == 0 && !same_cell_bits(cell, &CellAcc::empty(&inputs, gi, pi)) {
                return Err(CheckpointError::new(format!(
                    "cell {ci}: family {gi} has no folded block, but its cell is not empty"
                )));
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
            if has && !held {
                return Err(CheckpointError::new(format!(
                    "checkpoint reports dimensions for family {gi}, whose group-0 block \
                     {first} it does not hold"
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

/// Atomically writes a checkpoint of a run's fold state to `path`,
/// emitting one `checkpoint_written` event when telemetry is live.
pub(crate) fn write_checkpoint(
    header: &RunHeader,
    state: &FoldState<'_>,
    path: &Path,
    tel: &Telemetry<'_>,
) -> std::io::Result<()> {
    let clock = tel.live.then(Stopwatch::start);
    let text = checkpoint_json(
        header,
        &state.rep_dims(),
        state.folder.fed(),
        state.folder.cells(),
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
