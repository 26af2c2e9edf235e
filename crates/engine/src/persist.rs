//! Bit-exact persistence for run checkpoints.
//!
//! Every partial run the engine persists — a `--checkpoint` written
//! mid-run, or the blocks a `--shard` run executed — is one
//! [`crate::checkpoint::RunCheckpoint`]: the canonical experiment header
//! that identifies a `(spec, base_seed)` run, the folded cells'
//! [`OnlineStats`] and [`QuantileSketch`] accumulators, and the
//! completed blocks past the folded prefix. All of it must round-trip
//! **bit-exactly** — the `m2` sum of squares is not recoverable from a
//! rounded variance, the `±∞` sentinels of an empty accumulator have no
//! decimal form, and a sketch's retained items and coin-stream state
//! decide every future compaction — so floats are written as IEEE-754
//! bit patterns ([`OnlineStats::to_raw`], [`QuantileSketch::to_raw`])
//! and read back through a strict JSON parser that keeps numbers as raw
//! text (no lossy trip through `f64`).
//!
//! This module is that substrate: the strict reader ([`json`]), the
//! accumulator codecs ([`write_stats`] / [`stats_from_json`],
//! [`write_sketch`] / [`sketch_from_json`]), the block-list and cell
//! codecs, the load-time checks ([`check_proc`],
//! [`RunHeader::check_blocks`]) that turn a damaged file into an error
//! instead of a later panic, and [`RunHeader`] — the header a
//! checkpoint embeds, with field-by-field compatibility checking so
//! "these files come from different runs" errors name the first
//! disagreeing field.

use crate::executor::{
    block_group_count, block_width, BlockAgg, CellAcc, CellInputs, ProcAgg, SplitAcc,
    SHARED_BLOCK_WALKS,
};
use crate::spec::{ExperimentSpec, Target};
use eproc_stats::sketch::DEFAULT_K;
use eproc_stats::{OnlineStats, QuantileSketch, SketchRaw};
use eproc_telemetry::json_escape;
use std::fmt;
use std::fmt::Write as _;

/// A persistence-layer failure: malformed JSON, a missing or mistyped
/// field, or a value outside its domain.
/// [`crate::checkpoint::CheckpointError`] converts from this via `From`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PersistError {
    message: String,
}

impl PersistError {
    pub(crate) fn new(message: impl Into<String>) -> PersistError {
        PersistError {
            message: message.into(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for PersistError {}

/// The canonical experiment header embedded in every checkpoint:
/// everything needed to (a) check that two checkpoints, or a checkpoint
/// and a spec, describe the same `(spec, base_seed)` run and (b)
/// aggregate blocks without the original spec in hand.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RunHeader {
    /// Spec name.
    pub(crate) name: String,
    /// Spec description.
    pub(crate) description: String,
    /// Target measured.
    pub(crate) target: Target,
    /// Trials per cell.
    pub(crate) trials: usize,
    /// Start vertex of every trial.
    pub(crate) start: usize,
    /// Per-trial step cap, in its CLI form (`auto`, `abs:N`, ...).
    pub(crate) cap: String,
    /// Base seed the blocks derived their streams from.
    pub(crate) base_seed: u64,
    /// Whether every group walks its own graph sample (a resampled run)
    /// or one chunk of the family's shared graph.
    pub(crate) resampled: bool,
    /// Trials per block: the resample plan's `walks_per_graph`, or
    /// [`SHARED_BLOCK_WALKS`] on a shared graph.
    pub(crate) walks_per_graph: usize,
    /// Blocks per family.
    pub(crate) group_count: usize,
    /// `(label, family_label)` per graph family, in grid order.
    pub(crate) graphs: Vec<(String, String)>,
    /// Process labels, in grid order.
    pub(crate) processes: Vec<String>,
    /// Flattened metric column names.
    pub(crate) metric_columns: Vec<String>,
}

impl RunHeader {
    /// Builds the header a run of `(spec, base_seed)` would persist.
    pub(crate) fn from_spec(spec: &ExperimentSpec, base_seed: u64) -> RunHeader {
        RunHeader {
            name: spec.name.clone(),
            description: spec.description.clone(),
            target: spec.target,
            trials: spec.trials,
            start: spec.start,
            cap: spec.cap.to_cli(),
            base_seed,
            resampled: spec.resample.is_some(),
            walks_per_graph: block_width(spec),
            group_count: block_group_count(spec),
            graphs: spec
                .graphs
                .iter()
                .map(|gs| (gs.label(), gs.family_label()))
                .collect(),
            processes: spec.processes.iter().map(|ps| ps.label()).collect(),
            metric_columns: spec.metric_columns(),
        }
    }

    /// Total canonical block count: `families × groups`.
    pub(crate) fn total_blocks(&self) -> usize {
        self.graphs.len() * self.group_count
    }

    /// Trials in canonical block `block`: `walks_per_graph`, or fewer in
    /// a family's ragged last group.
    pub(crate) fn block_trials(&self, block: usize) -> usize {
        let first = (block % self.group_count) * self.walks_per_graph;
        self.walks_per_graph.min(self.trials - first)
    }

    /// The aggregation context of this run's cells.
    pub(crate) fn cell_inputs(&self) -> CellInputs<'_> {
        CellInputs {
            graphs: &self.graphs,
            processes: &self.processes,
            metric_columns: &self.metric_columns,
            trials: self.trials,
            group_count: self.group_count,
            base_seed: self.base_seed,
            resampled: self.resampled,
        }
    }

    /// Checks persisted blocks against this run: each lies inside the
    /// grid, carries one aggregate per process, and passes
    /// [`check_proc`] at its group's width.
    pub(crate) fn check_blocks<'b>(
        &self,
        blocks: impl IntoIterator<Item = &'b BlockAgg>,
    ) -> Result<(), PersistError> {
        for b in blocks {
            if b.block >= self.total_blocks() {
                return Err(PersistError::new(format!(
                    "block {} is outside the run's {} blocks",
                    b.block,
                    self.total_blocks()
                )));
            }
            if b.procs.len() != self.processes.len() {
                return Err(PersistError::new(format!(
                    "block {} has {} process aggregates for {} processes",
                    b.block,
                    b.procs.len(),
                    self.processes.len()
                )));
            }
            let width = self.block_trials(b.block);
            for (pi, proc) in b.procs.iter().enumerate() {
                check_proc(proc, width, self.metric_columns.len()).map_err(|e| {
                    PersistError::new(format!("block {}, process {pi}: {e}", b.block))
                })?;
            }
        }
        Ok(())
    }

    /// Names the first field on which `self` and `other` disagree, or
    /// `None` when the headers describe the same run.
    pub(crate) fn first_mismatch(&self, other: &RunHeader) -> Option<&'static str> {
        if self.name != other.name {
            return Some("experiment name");
        }
        if self.description != other.description {
            return Some("description");
        }
        if self.target != other.target {
            return Some("target");
        }
        if self.trials != other.trials {
            return Some("trials");
        }
        if self.start != other.start {
            return Some("start");
        }
        if self.cap != other.cap {
            return Some("cap");
        }
        if self.base_seed != other.base_seed {
            return Some("base_seed");
        }
        if self.resampled != other.resampled {
            return Some("resampled");
        }
        if self.walks_per_graph != other.walks_per_graph {
            return Some("walks_per_graph");
        }
        if self.group_count != other.group_count {
            return Some("group count");
        }
        if self.graphs != other.graphs {
            return Some("graph grid");
        }
        if self.processes != other.processes {
            return Some("process grid");
        }
        if self.metric_columns != other.metric_columns {
            return Some("metric columns");
        }
        None
    }

    /// Appends the header's JSON fields (two-space indent, trailing
    /// commas) in the canonical checkpoint order.
    pub(crate) fn write_fields(&self, out: &mut String) {
        let _ = writeln!(out, "  \"experiment\": \"{}\",", json_escape(&self.name));
        let _ = writeln!(
            out,
            "  \"description\": \"{}\",",
            json_escape(&self.description)
        );
        let _ = writeln!(
            out,
            "  \"target\": \"{}\",",
            json_escape(&self.target.to_cli())
        );
        let _ = writeln!(out, "  \"trials\": {},", self.trials);
        let _ = writeln!(out, "  \"start\": {},", self.start);
        let _ = writeln!(out, "  \"cap\": \"{}\",", json_escape(&self.cap));
        let _ = writeln!(out, "  \"base_seed\": {},", self.base_seed);
        let _ = writeln!(out, "  \"resampled\": {},", self.resampled);
        let _ = writeln!(out, "  \"walks_per_graph\": {},", self.walks_per_graph);
        let _ = writeln!(out, "  \"groups\": {},", self.group_count);
        out.push_str("  \"graphs\": [");
        for (i, (label, family)) in self.graphs.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"label\": \"{}\", \"family\": \"{}\"}}",
                json_escape(label),
                json_escape(family)
            );
        }
        out.push_str(if self.graphs.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"processes\": [");
        for (i, p) in self.processes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", json_escape(p));
        }
        out.push_str("],\n");
        out.push_str("  \"metric_columns\": [");
        for (i, c) in self.metric_columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", json_escape(c));
        }
        out.push_str("],\n");
    }

    /// Parses the header fields back out of a parsed artifact object.
    pub(crate) fn parse(root: &json::Obj<'_>) -> Result<RunHeader, PersistError> {
        let target_str = root.str_field("target")?;
        let target = Target::parse(&target_str)
            .map_err(|e| PersistError::new(format!("target field: {e}")))?;
        let graphs = root
            .arr_field("graphs")?
            .iter()
            .map(|v| {
                let obj = v.as_obj("graphs entry")?;
                Ok((obj.str_field("label")?, obj.str_field("family")?))
            })
            .collect::<Result<Vec<_>, PersistError>>()?;
        let processes = root
            .arr_field("processes")?
            .iter()
            .map(|v| v.as_str("processes entry"))
            .collect::<Result<Vec<_>, _>>()?;
        let metric_columns = root
            .arr_field("metric_columns")?
            .iter()
            .map(|v| v.as_str("metric_columns entry"))
            .collect::<Result<Vec<_>, _>>()?;
        let header = RunHeader {
            name: root.str_field("experiment")?,
            description: root.str_field("description")?,
            target,
            trials: root.usize_field("trials")?,
            start: root.usize_field("start")?,
            cap: root.str_field("cap")?,
            base_seed: root.u64_field("base_seed")?,
            resampled: root.bool_field("resampled")?,
            walks_per_graph: root.usize_field("walks_per_graph")?,
            group_count: root.usize_field("groups")?,
            graphs,
            processes,
            metric_columns,
        };
        let (trials, w) = (header.trials, header.walks_per_graph);
        if trials == 0 {
            return Err(PersistError::new("a run has at least one trial"));
        }
        if w == 0 || header.group_count != trials.div_ceil(w) {
            return Err(PersistError::new(format!(
                "groups {} does not split {trials} trials into groups of {w}",
                header.group_count
            )));
        }
        if !header.resampled && w != SHARED_BLOCK_WALKS {
            return Err(PersistError::new(format!(
                "a shared-graph run's blocks are {SHARED_BLOCK_WALKS} trials wide, not {w}"
            )));
        }
        if header
            .graphs
            .len()
            .checked_mul(header.group_count)
            .is_none()
        {
            return Err(PersistError::new("the block count overflows usize"));
        }
        Ok(header)
    }
}

// --- accumulator / block codecs -------------------------------------------

/// Most levels a persisted sketch may carry: level `h` items weigh
/// `2^h`, so a 65th level's weight would not fit the `u64` count.
const MAX_SKETCH_LEVELS: usize = 64;

/// Appends one accumulator as its bit-exact raw form: `[count, mean_bits,
/// m2_bits, min_bits, max_bits]` with the floats as decimal `u64` bit
/// patterns.
pub(crate) fn write_stats(out: &mut String, stats: &OnlineStats) {
    let (count, bits) = stats.to_raw();
    let _ = write!(
        out,
        "[{count}, {}, {}, {}, {}]",
        bits[0], bits[1], bits[2], bits[3]
    );
}

/// Parses one [`write_stats`] array back into a bit-identical
/// accumulator. No accumulator the engine builds holds a NaN (pushing
/// one panics), so an array that does is rejected.
pub(crate) fn stats_from_json(v: &json::Value) -> Result<OnlineStats, PersistError> {
    let arr = v.as_arr("stats accumulator")?;
    if arr.len() != 5 {
        return Err(PersistError::new(
            "stats accumulator is not a [count, mean, m2, min, max] bit array",
        ));
    }
    let count = arr[0].as_u64("stats count")?;
    let mut bits = [0u64; 4];
    for (i, slot) in bits.iter_mut().enumerate() {
        *slot = arr[i + 1].as_u64("stats bit pattern")?;
    }
    if bits.iter().any(|&b| f64::from_bits(b).is_nan()) {
        return Err(PersistError::new("stats accumulator holds a NaN"));
    }
    Ok(OnlineStats::from_raw(count, bits))
}

/// Appends one quantile sketch as its bit-exact raw form:
/// `[k, count, state, [level0_bits...], [level1_bits...], ...]` with the
/// retained items as decimal `u64` bit patterns in verbatim stored
/// order — the state that decides every future compaction, so a merged
/// or resumed run replays the identical coin stream.
pub(crate) fn write_sketch(out: &mut String, sketch: &QuantileSketch) {
    let raw = sketch.to_raw();
    let _ = write!(out, "[{}, {}, {}", raw.k, raw.count, raw.state);
    for level in &raw.levels {
        out.push_str(", ");
        write_list(out, level, |out, bits| {
            let _ = write!(out, "{bits}");
        });
    }
    out.push(']');
}

/// Parses one [`write_sketch`] array back into a bit-identical sketch.
/// The sketch must be one the engine could have built: capacity at
/// least 2, at most [`MAX_SKETCH_LEVELS`] levels, no NaN item, and a
/// `count` equal to its retained items' total weight `Σ_h |level_h|·2^h`
/// — a sketch whose count disagrees would answer quantiles from ranks
/// it does not hold.
pub(crate) fn sketch_from_json(v: &json::Value) -> Result<QuantileSketch, PersistError> {
    let arr = v.as_arr("quantile sketch")?;
    if arr.len() < 3 {
        return Err(PersistError::new(
            "quantile sketch is not a [k, count, state, levels...] array",
        ));
    }
    let k = arr[0].as_u64("sketch k")?;
    if k < 2 {
        return Err(PersistError::new(format!(
            "sketch capacity must be at least 2, got {k}"
        )));
    }
    let count = arr[1].as_u64("sketch count")?;
    let state = arr[2].as_u64("sketch state")?;
    let levels = parse_list(&arr[3..], |level| {
        parse_list(level.as_arr("sketch level")?, |bits| {
            bits.as_u64("sketch item bit pattern")
        })
    })?;
    if levels.len() > MAX_SKETCH_LEVELS {
        return Err(PersistError::new(format!(
            "quantile sketch has {} levels, more than {MAX_SKETCH_LEVELS}",
            levels.len()
        )));
    }
    let weight = levels.iter().enumerate().try_fold(0u64, |sum, (h, level)| {
        (level.len() as u64).checked_mul(1 << h)?.checked_add(sum)
    });
    if weight != Some(count) {
        return Err(PersistError::new(format!(
            "quantile sketch count {count} disagrees with its retained items' weight ({})",
            weight.map_or("overflows u64".to_string(), |w| w.to_string())
        )));
    }
    if levels.iter().flatten().any(|&b| f64::from_bits(b).is_nan()) {
        return Err(PersistError::new("quantile sketch holds a NaN item"));
    }
    Ok(QuantileSketch::from_raw(SketchRaw {
        k,
        count,
        state,
        levels,
    }))
}

/// Appends `[item, item, ...]`, rendering each item with `write_item`.
fn write_list<T>(out: &mut String, items: &[T], write_item: impl Fn(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_item(out, item);
    }
    out.push(']');
}

/// Parses every element of a JSON array with `parse_item`.
fn parse_list<T>(
    items: &[json::Value],
    parse_item: impl Fn(&json::Value) -> Result<T, PersistError>,
) -> Result<Vec<T>, PersistError> {
    items.iter().map(parse_item).collect()
}

/// Appends one aggregate's fields, without braces — the shape blocks
/// and checkpoint cells share.
fn write_proc_fields(out: &mut String, proc: &ProcAgg) {
    let _ = write!(out, "\"completed\": {}, \"steps\": ", proc.completed);
    write_stats(out, &proc.steps);
    out.push_str(", \"steps_sketch\": ");
    write_sketch(out, &proc.steps_sketch);
    out.push_str(", \"blue\": ");
    write_stats(out, &proc.blue_fraction);
    out.push_str(", \"metrics\": ");
    write_list(out, &proc.metrics, write_stats);
    out.push_str(", \"metric_sketches\": ");
    write_list(out, &proc.metric_sketches, write_sketch);
}

/// Parses the fields [`write_proc_fields`] wrote, bit-exactly.
fn parse_proc(proc: &json::Obj<'_>) -> Result<ProcAgg, PersistError> {
    Ok(ProcAgg {
        completed: proc.usize_field("completed")?,
        steps: stats_from_json(proc.field("steps")?)?,
        steps_sketch: sketch_from_json(proc.field("steps_sketch")?)?,
        blue_fraction: stats_from_json(proc.field("blue")?)?,
        metrics: parse_list(proc.arr_field("metrics")?, stats_from_json)?,
        metric_sketches: parse_list(proc.arr_field("metric_sketches")?, sketch_from_json)?,
    })
}

/// Checks an aggregate of at most `limit` trials against the invariants
/// every aggregate the engine builds keeps: one accumulator and one
/// sketch per metric column, `completed` equal to the steps count and
/// each sketch's count equal to its accumulator's, no count above
/// `limit`, and every sketch at the engine's capacity. What passes can
/// be merged, folded and rendered without overflow or panic.
pub(crate) fn check_proc(proc: &ProcAgg, limit: usize, n_cols: usize) -> Result<(), PersistError> {
    if proc.metrics.len() != n_cols || proc.metric_sketches.len() != n_cols {
        return Err(PersistError::new(format!(
            "{} metric accumulators and {} metric sketches for {n_cols} columns",
            proc.metrics.len(),
            proc.metric_sketches.len()
        )));
    }
    let steps = proc.steps.count();
    if proc.completed as u64 != steps || proc.steps_sketch.count() != steps {
        return Err(PersistError::new(format!(
            "completed {} disagrees with {steps} steps values and {} sketched",
            proc.completed,
            proc.steps_sketch.count()
        )));
    }
    if let Some((stats, sketch)) = proc
        .metrics
        .iter()
        .zip(&proc.metric_sketches)
        .find(|(stats, sketch)| stats.count() != sketch.count())
    {
        return Err(PersistError::new(format!(
            "a metric column holds {} values but sketches {}",
            stats.count(),
            sketch.count()
        )));
    }
    let counts = [steps, proc.blue_fraction.count()]
        .into_iter()
        .chain(proc.metrics.iter().map(OnlineStats::count));
    if let Some(count) = counts.into_iter().find(|&c| c > limit as u64) {
        return Err(PersistError::new(format!(
            "{count} values for at most {limit} trials"
        )));
    }
    let mut sketches = std::iter::once(&proc.steps_sketch).chain(&proc.metric_sketches);
    if let Some(sketch) = sketches.find(|sk| sk.k() != DEFAULT_K) {
        return Err(PersistError::new(format!(
            "sketch capacity {} is not the engine's {DEFAULT_K}",
            sketch.k()
        )));
    }
    Ok(())
}

/// Appends a variance-split builder as `[graph_samples, across,
/// within_ss_bits, within_dof]`.
fn write_split(out: &mut String, split: &SplitAcc) {
    let _ = write!(out, "[{}, ", split.graph_samples);
    write_stats(out, &split.across);
    let _ = write!(
        out,
        ", {}, {}]",
        split.within_ss.to_bits(),
        split.within_dof
    );
}

/// Parses one [`write_split`] array back, bit-exactly.
fn split_from_json(v: &json::Value) -> Result<SplitAcc, PersistError> {
    let arr = v.as_arr("variance split")?;
    if arr.len() != 4 {
        return Err(PersistError::new(
            "variance split is not a [samples, across, within_ss, within_dof] array",
        ));
    }
    let within_ss = f64::from_bits(arr[2].as_u64("split within_ss bit pattern")?);
    if within_ss.is_nan() {
        return Err(PersistError::new("variance split holds a NaN"));
    }
    Ok(SplitAcc {
        graph_samples: arr[0].as_usize("split graph samples")?,
        across: stats_from_json(&arr[1])?,
        within_ss,
        within_dof: arr[3].as_u64("split within_dof")?,
    })
}

/// Appends the `"cells"` field: every cell's folded accumulators plus
/// its variance-split builders, in grid order.
pub(crate) fn write_cells(out: &mut String, cells: &[CellAcc]) {
    out.push_str("  \"cells\": [");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(if i == 0 { "\n    {" } else { ",\n    {" });
        write_proc_fields(out, &cell.totals);
        out.push_str(", \"steps_split\": ");
        write_split(out, &cell.steps_split);
        out.push_str(", \"metric_splits\": ");
        write_list(out, &cell.metric_splits, write_split);
        out.push('}');
    }
    out.push_str(if cells.is_empty() { "],\n" } else { "\n  ],\n" });
}

/// Whether two cells hold the same accumulator state, bit for bit.
pub(crate) fn same_cell_bits(a: &CellAcc, b: &CellAcc) -> bool {
    let render = |cell: &CellAcc| {
        let mut out = String::new();
        write_cells(&mut out, std::slice::from_ref(cell));
        out
    };
    render(a) == render(b)
}

/// Parses a [`write_cells`] field back, bit-exactly.
pub(crate) fn parse_cells(root: &json::Obj<'_>) -> Result<Vec<CellAcc>, PersistError> {
    parse_list(root.arr_field("cells")?, |v| {
        let cell = v.as_obj("cells entry")?;
        Ok(CellAcc {
            totals: parse_proc(&cell)?,
            steps_split: split_from_json(cell.field("steps_split")?)?,
            metric_splits: parse_list(cell.arr_field("metric_splits")?, split_from_json)?,
        })
    })
}

/// Appends the `"rep_dims"` field: `(family, n, m)` triples of group-0
/// samples, in canonical (sorted) order.
pub(crate) fn write_rep_dims(out: &mut String, rep_dims: &[(usize, usize, usize)]) {
    out.push_str("  \"rep_dims\": ");
    write_list(out, rep_dims, |out, (gi, n, m)| {
        let _ = write!(out, "[{gi}, {n}, {m}]");
    });
    out.push_str(",\n");
}

/// Parses a [`write_rep_dims`] field back.
pub(crate) fn parse_rep_dims(
    root: &json::Obj<'_>,
) -> Result<Vec<(usize, usize, usize)>, PersistError> {
    parse_list(root.arr_field("rep_dims")?, |v| {
        let triple = v.as_arr("rep_dims entry")?;
        if triple.len() != 3 {
            return Err(PersistError::new(
                "rep_dims entry is not a [gi, n, m] triple",
            ));
        }
        Ok((
            triple[0].as_usize("rep_dims gi")?,
            triple[1].as_usize("rep_dims n")?,
            triple[2].as_usize("rep_dims m")?,
        ))
    })
}

/// Appends the `key` field holding `blocks`' per-process streamed
/// accumulators, bit-exact, and closes the JSON document (`]` + `}`).
pub(crate) fn write_blocks<'b>(
    out: &mut String,
    key: &str,
    blocks: impl IntoIterator<Item = &'b BlockAgg>,
) {
    let _ = write!(out, "  \"{key}\": [");
    let mut empty = true;
    for block in blocks {
        out.push_str(if empty { "\n" } else { ",\n" });
        empty = false;
        let _ = write!(out, "    {{\"block\": {}, \"procs\": [", block.block);
        for (pi, proc) in block.procs.iter().enumerate() {
            out.push_str(if pi == 0 { "\n      {" } else { ",\n      {" });
            write_proc_fields(out, proc);
            out.push('}');
        }
        out.push_str("\n    ]}");
    }
    out.push_str(if empty { "]\n" } else { "\n  ]\n" });
    out.push_str("}\n");
}

/// Parses a [`write_blocks`] field back, bit-exactly.
pub(crate) fn parse_blocks(root: &json::Obj<'_>, key: &str) -> Result<Vec<BlockAgg>, PersistError> {
    parse_list(root.arr_field(key)?, |v| {
        let obj = v.as_obj("blocks entry")?;
        Ok(BlockAgg {
            block: obj.usize_field("block")?,
            procs: parse_list(obj.arr_field("procs")?, |p| {
                parse_proc(&p.as_obj("procs entry")?)
            })?,
        })
    })
}

/// A minimal strict-JSON reader for run artifacts: recursive descent,
/// numbers kept as raw text so `u64` bit patterns round-trip without a
/// lossy trip through `f64`.
pub(crate) mod json {
    use super::PersistError;

    /// One parsed JSON value. Numbers stay as their raw source text.
    /// Run artifacts never carry nulls, so those parse to a payload-less
    /// variant the accessors simply mistype.
    #[derive(Debug, Clone)]
    pub(crate) enum Value {
        Null,
        Bool(bool),
        Num(String),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    /// An object's fields, with typed accessors that name the missing or
    /// mistyped field in their error.
    pub(crate) struct Obj<'a>(&'a [(String, Value)]);

    impl Value {
        pub(crate) fn as_obj(&self, what: &str) -> Result<Obj<'_>, PersistError> {
            match self {
                Value::Obj(fields) => Ok(Obj(fields)),
                _ => Err(PersistError::new(format!("{what}: expected an object"))),
            }
        }

        pub(crate) fn as_arr(&self, what: &str) -> Result<&[Value], PersistError> {
            match self {
                Value::Arr(items) => Ok(items),
                _ => Err(PersistError::new(format!("{what}: expected an array"))),
            }
        }

        pub(crate) fn as_str(&self, what: &str) -> Result<String, PersistError> {
            match self {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(PersistError::new(format!("{what}: expected a string"))),
            }
        }

        pub(crate) fn as_u64(&self, what: &str) -> Result<u64, PersistError> {
            match self {
                Value::Num(raw) => raw
                    .parse()
                    .map_err(|_| PersistError::new(format!("{what}: {raw:?} is not a u64"))),
                _ => Err(PersistError::new(format!("{what}: expected a number"))),
            }
        }

        pub(crate) fn as_usize(&self, what: &str) -> Result<usize, PersistError> {
            self.as_u64(what).and_then(|v| {
                usize::try_from(v)
                    .map_err(|_| PersistError::new(format!("{what}: {v} overflows usize")))
            })
        }
    }

    impl<'a> Obj<'a> {
        pub(crate) fn field(&self, key: &str) -> Result<&'a Value, PersistError> {
            self.0
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| PersistError::new(format!("missing field {key:?}")))
        }

        pub(crate) fn str_field(&self, key: &str) -> Result<String, PersistError> {
            self.field(key)?.as_str(key)
        }

        pub(crate) fn u64_field(&self, key: &str) -> Result<u64, PersistError> {
            self.field(key)?.as_u64(key)
        }

        pub(crate) fn usize_field(&self, key: &str) -> Result<usize, PersistError> {
            self.field(key)?.as_usize(key)
        }

        pub(crate) fn bool_field(&self, key: &str) -> Result<bool, PersistError> {
            match self.field(key)? {
                Value::Bool(b) => Ok(*b),
                _ => Err(PersistError::new(format!("{key}: expected a boolean"))),
            }
        }

        pub(crate) fn arr_field(&self, key: &str) -> Result<&'a [Value], PersistError> {
            self.field(key)?.as_arr(key)
        }
    }

    /// Deepest array/object nesting a document may have. Artifacts nest
    /// six levels at most; the cap keeps a hostile document from
    /// exhausting the stack of this recursive-descent reader.
    const MAX_DEPTH: usize = 32;

    /// Parses `text` as one JSON document (trailing whitespace only).
    pub(crate) fn parse(text: &str) -> Result<Value, PersistError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.fail("trailing content after the document"));
        }
        Ok(value)
    }

    struct Parser<'a> {
        text: &'a str,
        bytes: &'a [u8],
        pos: usize,
        depth: usize,
    }

    impl Parser<'_> {
        fn fail(&self, message: &str) -> PersistError {
            PersistError::new(format!("invalid JSON at byte {}: {message}", self.pos))
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), PersistError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.fail(&format!("expected {:?}", b as char)))
            }
        }

        fn literal(&mut self, lit: &str, value: Value) -> Result<Value, PersistError> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(value)
            } else {
                Err(self.fail(&format!("expected {lit}")))
            }
        }

        fn value(&mut self) -> Result<Value, PersistError> {
            match self.peek() {
                Some(b'{' | b'[') => {
                    if self.depth == MAX_DEPTH {
                        return Err(self.fail("nesting too deep"));
                    }
                    self.depth += 1;
                    let value = if self.peek() == Some(b'{') {
                        self.object()
                    } else {
                        self.array()
                    };
                    self.depth -= 1;
                    value
                }
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.literal("true", Value::Bool(true)),
                Some(b'f') => self.literal("false", Value::Bool(false)),
                Some(b'n') => self.literal("null", Value::Null),
                Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
                _ => Err(self.fail("expected a value")),
            }
        }

        fn object(&mut self) -> Result<Value, PersistError> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(self.fail("expected ',' or '}'")),
                }
            }
        }

        fn array(&mut self) -> Result<Value, PersistError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(self.fail("expected ',' or ']'")),
                }
            }
        }

        fn string(&mut self) -> Result<String, PersistError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.fail("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| self.fail("truncated \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.fail("bad \\u escape"))?;
                                // Artifact strings never contain surrogate
                                // pairs (the writer escapes only control
                                // characters below 0x20); reject rather
                                // than decode them wrongly.
                                let c = char::from_u32(code)
                                    .ok_or_else(|| self.fail("\\u escape is not a scalar"))?;
                                out.push(c);
                                self.pos += 4;
                            }
                            _ => return Err(self.fail("bad escape")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // A run of plain characters up to the next quote or
                        // backslash, pushed as one slice. Both delimiters
                        // (and every control character) are ASCII, and no
                        // byte of a multi-byte UTF-8 sequence is, so the
                        // run starts and ends on char boundaries of `text`.
                        let start = self.pos;
                        while let Some(b) = self.peek() {
                            match b {
                                b'"' | b'\\' => break,
                                0x00..=0x1f => {
                                    return Err(self.fail("raw control character in string"))
                                }
                                _ => self.pos += 1,
                            }
                        }
                        out.push_str(&self.text[start..self.pos]);
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, PersistError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                self.pos += 1;
            }
            if self.pos == start {
                return Err(self.fail("expected a number"));
            }
            let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                .expect("ASCII digits are UTF-8")
                .to_string();
            Ok(Value::Num(raw))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::RunCheckpoint;
    use crate::executor::RunOptions;
    use crate::shard::{run_shard, ShardSpec};
    use crate::spec::{CapSpec, GraphSpec, ProcessSpec, ResamplePlan};

    /// Header strings mixing 2-, 3- and 4-byte UTF-8 scalars with every
    /// escape the writer emits.
    const NAME: &str = "café ∑ 🦀";
    const DESCRIPTION: &str = "é\u{1}∑\t\"q\"\\ 🦀 end";

    fn unicode_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: NAME.into(),
            description: DESCRIPTION.into(),
            graphs: vec![GraphSpec::Regular { n: 12, d: 3 }],
            processes: vec![ProcessSpec::Srw],
            trials: 3,
            target: Target::VertexCover,
            metrics: vec![],
            start: 0,
            cap: CapSpec::Auto,
            resample: Some(ResamplePlan { walks_per_graph: 1 }),
        }
    }

    /// Both shapes a checkpoint takes round-trip: shard `1/2`'s, which
    /// folds nothing, and shard `0/2`'s, which has folded block 0 and
    /// holds block 2 pending — as a run interrupted while block 1 was
    /// still running would.
    #[test]
    fn multibyte_header_strings_round_trip_through_both_codecs() {
        let opts = RunOptions {
            threads: 1,
            base_seed: 3,
        };
        for index in [1, 0] {
            let checkpoint =
                run_shard(&unicode_spec(), &opts, ShardSpec { index, count: 2 }).unwrap();
            assert_eq!(checkpoint.folded, 1 - index);
            let json = checkpoint.to_json();
            let back = RunCheckpoint::from_json(&json).unwrap();
            assert_eq!(
                (back.header.name.as_str(), back.header.description.as_str()),
                (NAME, DESCRIPTION)
            );
            assert_eq!(back.header, checkpoint.header);
            assert_eq!(back.to_json(), json);
        }
    }

    #[test]
    fn strings_reject_raw_control_characters_and_bad_escapes() {
        assert_eq!(
            json::parse("\"a é\\u00e9\\n∑\"")
                .unwrap()
                .as_str("s")
                .unwrap(),
            "a éé\n∑"
        );
        for bad in [
            "\"a\u{1}b\"",
            "\"tab\there\"",
            "\"x\\q\"",
            "\"open",
            "\"\\u12\"",
        ] {
            assert!(json::parse(bad).is_err(), "{bad:?}");
        }
    }
}
