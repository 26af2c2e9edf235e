//! Work-stealing parallel execution of [`ExperimentSpec`]s.
//!
//! Tasks — pieces of the *(family, group)* blocks — are claimed from a
//! shared atomic index by scoped worker threads, so load-balancing needs
//! no queues and no extra dependencies. Every trial derives its own RNG
//! stream from [`SeedSequence`] keyed by the trial's grid coordinates, and
//! aggregation folds trials in coordinate order, which makes the
//! aggregate report **bit-identical for any thread count**.
//!
//! Each trial walks the graph **once**: the spec's target and every
//! requested [`MetricSpec`] attach [`Observer`]s to the same trajectory,
//! which runs until all of them resolve (or the cap); a cover target and
//! a `cover` metric share one observer. A process's consecutive trials
//! run in lockstep lanes of [`eproc_core::interleave`] — two for the
//! E-process, whose step prefetches its next lines, one for every other
//! walk — each lane with its own walk, RNG stream and observer set, and
//! their outcomes fold in trial order. A lane set is dispatched through
//! the (process × metric-set) enum pair [`crate::spec::WalkKernel`] ×
//! [`AnyObserver`], so the per-step loop is monomorphized — no boxed
//! walk, no dyn-observer fan-out. Workers keep each lane's observer set
//! between consecutive trials of a task, so the word-packed
//! [`eproc_core::bitset::BitSet`] scratch bitmaps are re-armed (`m / 64`
//! word writes) rather than reallocated.
//!
//! The unit of folding, checkpointing and sharding is one *(family,
//! group)* block. Under a [`ResamplePlan`] a group is `walks_per_graph`
//! consecutive trials and the worker claiming the block samples the
//! group's graph from its [`resample_graph_seed`] — blocks partition the
//! samples, so graph generation parallelises across the pool exactly
//! like the walks. In shared-graph mode a group is a
//! `SHARED_BLOCK_WALKS`-trial chunk of the family's graph, built once
//! per run, so both modes run the **same** block runner and the same
//! aggregation tail — there is exactly one aggregation path and no
//! per-trial vector anywhere. In both modes a family's reported `(n, m)`
//! comes from its group-0 block.
//!
//! The unit the pool *claims* is a task: a block's range of processes.
//! A shared-graph block splits into one task per process, so one family
//! whose processes are slow no longer holds a single worker while the
//! others idle. A resampled block stays one task covering every process,
//! because its graph is generated inside it. Each process's trials fold,
//! in order, into that process's `ProcAgg` whichever task runs them,
//! and the main thread holds a block's aggregates until its last task
//! lands, so splitting a block cannot change a byte.
//!
//! One private driver runs every run. It takes which blocks run (all of
//! them, a shard's residue class `i mod k`, or the blocks a checkpoint
//! lacks), schedules them on the engine's one worker pool, folds them in
//! canonical order, and returns the final fold state as a
//! [`RunCheckpoint`]. A complete one becomes the report; a shard's is
//! its artifact; an interrupted run's is what `--resume` reads. [`run`],
//! [`run_on_graphs`], [`crate::recovery::run_recoverable`] and
//! [`crate::shard::run_shard`] are that driver with its parameters set,
//! so sharding, checkpoints, resume and deadlines work for every spec.
//!
//! Aggregation is **streamed twice over**. Inside a task the claiming
//! worker folds each trial straight into per-(block, process)
//! [`OnlineStats`] + [`QuantileSketch`] accumulators and drops the
//! trial, so a block contributes `O(processes × columns)` memory no
//! matter how many trials it runs or how large its graph is. Completed
//! tasks stream back to the main thread over a channel; once a block's
//! last task lands, the block folds into the per-cell `CellFolder` in
//! canonical *(family, group)* order — workers are back-pressured a
//! bounded window of blocks ahead of the fold — so
//! the run's aggregation state is `O(cells × columns)` independent of
//! the trial count: the property that unlocks billion-trial runs.
//! Checkpoints ([`crate::checkpoint`]) persist exactly this state. The
//! per-block accumulators double as the groups of the pooled /
//! across-graph / within-graph [`VarianceSplit`]s, and every sketch's
//! compaction coins derive from [`SeedSequence`] streams keyed by grid
//! coordinates — all of it bit-identical for any thread count.

use crate::checkpoint::{write_checkpoint, RunCheckpoint};
use crate::fault::{FaultKind, FaultPlan};
use crate::persist::RunHeader;
use crate::recovery::{RecoveryError, RecoveryOptions};
use crate::shard::ShardSpec;
use crate::spec::{AnyObserver, ExperimentSpec, MetricSpec, ResamplePlan, SpecError, Target};
use crate::with_kernel_lanes;
use eproc_core::interleave::{run_observed_interleaved, Lane};
use eproc_core::observe::{Metrics, Observer, StopWhen};
use eproc_graphs::{Graph, GraphError};
use eproc_stats::{OnlineStats, QuantileSketch, SeedSequence};
use eproc_telemetry::{Event, EventKind, NullSink, ShardId, Stopwatch, TelemetrySink};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Instant;

/// Seed-stream tag for graph construction.
const GRAPH_STREAM: u64 = 0;
/// Seed-stream tag for trial RNGs.
const TRIAL_STREAM: u64 = 1;
/// Seed-stream tag for resampled per-group graphs.
const RESAMPLE_STREAM: u64 = 2;
/// Seed-stream tag for per-block quantile-sketch compaction coins.
const SKETCH_STREAM: u64 = 3;
/// Seed-stream tag for per-cell quantile-sketch compaction coins (the
/// accumulators block sketches merge into).
const CELL_SKETCH_STREAM: u64 = 4;

/// Trials per *(family, group)* block in shared-graph mode. Shared runs
/// have no resample plan to set a group width, so the executor chunks
/// each family's trials into blocks of this many — large enough that
/// per-block costs (observer banks, channel sends) amortise away, small
/// enough that huge-trial runs still stream block by block.
pub(crate) const SHARED_BLOCK_WALKS: usize = 64;

/// Execution options independent of the experiment itself.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Worker threads (`0` is rejected; see [`RunOptions::auto`]).
    pub threads: usize,
    /// Base seed: all graph and trial seeds derive from it.
    pub base_seed: u64,
}

impl RunOptions {
    /// Default options: all available cores, base seed `12345`.
    pub fn auto() -> RunOptions {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        RunOptions {
            threads,
            base_seed: 12345,
        }
    }
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions::auto()
    }
}

/// Execution failure.
#[derive(Debug)]
pub enum EngineError {
    /// The spec failed validation.
    Spec(SpecError),
    /// A graph family could not be constructed (shared-graph mode builds
    /// every family up front, before the worker pool starts).
    Graph {
        /// Label of the failing family.
        graph: String,
        /// Underlying generator error.
        source: eproc_graphs::GraphError,
    },
    /// A *(family, group)* block failed inside the worker pool: the
    /// worker that claimed one of its tasks could not generate the
    /// group's graph sample (resample mode, or an injected fault), or its
    /// trial loop panicked (caught at the task isolation boundary,
    /// leaving the pool unpoisoned). Carries the full block context so a
    /// failure deep in a long sweep names exactly which work unit died
    /// and where.
    Block {
        /// Label of the failing family.
        graph: String,
        /// Group whose block failed: a resample group, or a shared
        /// graph's trial chunk.
        group: usize,
        /// Index of the worker that claimed the failing task.
        worker: usize,
        /// What killed the block.
        source: BlockError,
    },
}

/// What killed a single block: the group's graph sample could not be
/// generated (resample mode), or one of the block's task loops panicked.
/// Panics are caught per task (`catch_unwind` in the worker loop), so
/// one bad block surfaces as an error value instead of tearing down the
/// pool. A block is a pure function of its seeds, so re-running it would
/// fail the same way: the error fails the run, after a final checkpoint
/// of the completed blocks that `--resume` finishes from.
#[derive(Debug)]
pub enum BlockError {
    /// Graph generation for the block's group failed.
    Graph(eproc_graphs::GraphError),
    /// The block panicked; carries the panic payload rendered as text.
    Panic(String),
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::Graph(e) => write!(f, "{e}"),
            BlockError::Panic(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for BlockError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BlockError::Graph(e) => Some(e),
            BlockError::Panic(_) => None,
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Spec(e) => write!(f, "invalid spec: {e}"),
            EngineError::Graph { graph, source } => {
                write!(f, "building graph {graph}: {source}")
            }
            EngineError::Block {
                graph,
                group,
                worker,
                source,
            } => {
                write!(
                    f,
                    "block (family {graph}, group {group}) failed on worker {worker}: {source}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Spec(e) => Some(e),
            EngineError::Graph { source, .. } => Some(source),
            EngineError::Block { source, .. } => Some(source),
        }
    }
}

impl From<SpecError> for EngineError {
    fn from(e: SpecError) -> EngineError {
        EngineError::Spec(e)
    }
}

/// Everything measured in one trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// Steps to reach the target, if reached within the cap.
    pub steps_to_target: Option<u64>,
    /// Steps actually taken (may exceed the target step when extra
    /// metrics keep the walk going).
    pub steps: u64,
    /// Blue (unvisited-edge-preferring) transitions; `0` for blanket runs,
    /// whose target observer does not classify steps.
    pub blue_steps: u64,
    /// Red transitions; `0` for blanket runs.
    pub red_steps: u64,
    /// One scalar per metric column (spec order; `None` = unresolved
    /// within the cap).
    pub metric_values: Vec<Option<f64>>,
}

/// Across/within decomposition of one column's trial values under graph
/// resampling — the one-way random-effects layout with graph samples as
/// groups. `pooled` lives on the owning summary; this struct carries the
/// two components it splits into.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceSplit {
    /// Graph samples that contributed at least one resolved value.
    pub graph_samples: usize,
    /// Statistics over per-graph means — their variance is the
    /// across-graph component the whp-over-the-graph theorems speak to.
    pub across: OnlineStats,
    /// Pooled within-graph sample variance — walk-to-walk noise on a
    /// fixed graph. `None` when no graph sample had two resolved values
    /// (e.g. `walks_per_graph = 1`).
    pub within_variance: Option<f64>,
}

/// Streaming builder of a [`VarianceSplit`]: feeds per-group statistics
/// one group at a time (canonical group order), so the split needs no
/// retained group list. The floating-point operation order is exactly
/// the old collect-then-fold order — `across` pushes and the within-SS
/// additions happen once per group, in group order. Checkpoints persist
/// the fields verbatim (floats as bit patterns).
#[derive(Debug, Clone, Default)]
pub(crate) struct SplitAcc {
    pub(crate) graph_samples: usize,
    pub(crate) across: OnlineStats,
    pub(crate) within_ss: f64,
    pub(crate) within_dof: u64,
}

impl SplitAcc {
    /// Folds one group's statistics (skipping empty groups).
    fn feed(&mut self, g: &OnlineStats) {
        if g.count() == 0 {
            return;
        }
        self.graph_samples += 1;
        self.across.push(g.mean());
        if g.count() >= 2 {
            self.within_ss += g.variance() * (g.count() - 1) as f64;
            self.within_dof += g.count() - 1;
        }
    }

    fn finish(self) -> VarianceSplit {
        VarianceSplit {
            graph_samples: self.graph_samples,
            across: self.across,
            within_variance: (self.within_dof > 0).then(|| self.within_ss / self.within_dof as f64),
        }
    }
}

/// Aggregate of one metric column over a cell's trials.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Column name (see [`MetricSpec::columns`]).
    pub name: String,
    /// Streaming statistics over trials whose value resolved.
    pub stats: OnlineStats,
    /// Mergeable quantile sketch over the same resolved values.
    pub sketch: QuantileSketch,
    /// Variance decomposition under resampling (`None` in shared-graph
    /// mode).
    pub split: Option<VarianceSplit>,
}

/// Aggregated statistics for one (graph, process) cell.
#[derive(Debug, Clone)]
pub struct CellSummary {
    /// Graph family label.
    pub graph: String,
    /// Size-free family key (see [`crate::spec::GraphSpec::family_label`])
    /// — what the scaling subsystem groups sweep series by. Not
    /// serialised into artifacts.
    pub family: String,
    /// Vertex count of the built graph.
    pub n: usize,
    /// Edge count of the built graph.
    pub m: usize,
    /// Process label.
    pub process: String,
    /// Trials attempted.
    pub trials: usize,
    /// Trials that reached the target within the cap.
    pub completed: usize,
    /// Streaming statistics over steps-to-target of completed trials.
    pub steps: OnlineStats,
    /// Mergeable quantile sketch over the same steps-to-target values —
    /// what the report's `p50`/`p90`/`p99` columns read.
    pub steps_sketch: QuantileSketch,
    /// Streaming statistics over the per-trial blue-step fraction
    /// (`blue / (blue + red)`); empty for blanket targets.
    pub blue_fraction: OnlineStats,
    /// Variance decomposition of steps-to-target under resampling
    /// (`None` in shared-graph mode).
    pub steps_split: Option<VarianceSplit>,
    /// One aggregate per metric column, in spec order.
    pub metrics: Vec<MetricSummary>,
}

/// The full result of running one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Spec name.
    pub name: String,
    /// Spec description.
    pub description: String,
    /// Target measured.
    pub target: Target,
    /// Trials per cell.
    pub trials: usize,
    /// Base seed used.
    pub base_seed: u64,
    /// The resample plan the trials ran under (`None` = shared graphs).
    pub resample: Option<ResamplePlan>,
    /// One summary per (graph, process) pair, in grid order. Under
    /// resampling, `n`/`m` describe the family's **group-0 sample** as a
    /// representative (the per-trial samples of a geometric family vary
    /// in `m`; `n` is identical across samples).
    pub cells: Vec<CellSummary>,
}

/// The seed a graph at grid index `gi` is built from. Exposed so thin
/// wrappers (e.g. `table_theorem1`) can rebuild the *identical* graph for
/// per-graph enrichment columns.
pub fn graph_seed(base_seed: u64, graph_index: usize) -> u64 {
    SeedSequence::new(base_seed).derive(&[GRAPH_STREAM, graph_index as u64])
}

/// The seed for trial `t` of cell `(gi, pi)`.
pub fn trial_seed(base_seed: u64, graph_index: usize, process_index: usize, trial: usize) -> u64 {
    SeedSequence::new(base_seed).derive(&[
        TRIAL_STREAM,
        graph_index as u64,
        process_index as u64,
        trial as u64,
    ])
}

/// The seed the `group`-th resampled graph of family `gi` is built from
/// (see [`ResamplePlan`]). Deliberately **not** keyed by process index:
/// every process in a cell walks the same ensemble member, so process
/// comparisons stay paired sample by sample.
pub fn resample_graph_seed(base_seed: u64, graph_index: usize, group: usize) -> u64 {
    SeedSequence::new(base_seed).derive(&[RESAMPLE_STREAM, graph_index as u64, group as u64])
}

/// The coin-stream seed for the block-level [`QuantileSketch`] of column
/// `col` (0 = steps-to-target, `i + 1` = metric column `i`) in block
/// *(family `gi`, group, process `pi`)*. Keyed by the full grid
/// coordinate — never wall clock or thread schedule — so every block
/// sketch is a pure function of `(base_seed, block)` and artifacts stay
/// byte-identical across thread counts, shards and resume.
pub(crate) fn block_sketch_seed(
    base_seed: u64,
    gi: usize,
    group: usize,
    pi: usize,
    col: usize,
) -> u64 {
    SeedSequence::new(base_seed).derive(&[
        SKETCH_STREAM,
        gi as u64,
        group as u64,
        pi as u64,
        col as u64,
    ])
}

/// The coin-stream seed for the *cell-level* sketch accumulator of
/// column `col` in cell `(gi, pi)` — the sketch block sketches merge
/// into, in canonical group order. A separate stream from
/// [`block_sketch_seed`] so the accumulator never collides with the
/// group-0 block sketch it first absorbs.
pub(crate) fn cell_sketch_seed(base_seed: u64, gi: usize, pi: usize, col: usize) -> u64 {
    SeedSequence::new(base_seed).derive(&[CELL_SKETCH_STREAM, gi as u64, pi as u64, col as u64])
}

/// Trials per *(family, group)* block: the plan's `walks_per_graph`
/// under resampling, [`SHARED_BLOCK_WALKS`] on a shared graph.
pub(crate) fn block_width(spec: &ExperimentSpec) -> usize {
    match spec.resample {
        Some(plan) => plan.walks_per_graph.max(1),
        None => SHARED_BLOCK_WALKS,
    }
}

/// Blocks per family — `ceil(trials / block_width)` in both modes (and
/// exactly [`ResamplePlan::groups`] under resampling).
pub(crate) fn block_group_count(spec: &ExperimentSpec) -> usize {
    spec.trials.div_ceil(block_width(spec))
}

/// Builds every graph in the spec deterministically from `base_seed`.
pub fn build_graphs(spec: &ExperimentSpec, base_seed: u64) -> Result<Vec<Graph>, EngineError> {
    build_graphs_observed(spec, base_seed, &Telemetry::new(&NullSink))
}

/// The executor's telemetry context: the sink, the run clock every event
/// is stamped with, and the `enabled()` answer latched once — workers
/// test one boolean and skip event construction (and all clock reads)
/// entirely when nobody is listening, so an uninstrumented run pays
/// nothing on the hot path.
pub(crate) struct Telemetry<'a> {
    pub(crate) sink: &'a dyn TelemetrySink,
    pub(crate) clock: Stopwatch,
    pub(crate) live: bool,
}

impl<'a> Telemetry<'a> {
    pub(crate) fn new(sink: &'a dyn TelemetrySink) -> Telemetry<'a> {
        Telemetry {
            sink,
            clock: Stopwatch::start(),
            live: sink.enabled(),
        }
    }

    /// Stamps `kind` with the run clock and emits it. Callers guard with
    /// `self.live` so disabled runs never construct an [`EventKind`].
    pub(crate) fn emit(&self, kind: EventKind) {
        self.sink.emit(&Event {
            t_ns: self.clock.elapsed_ns(),
            kind,
        });
    }
}

/// [`build_graphs`] with telemetry: emits one `graph_built` event per
/// family when the sink is live. The builds (and their RNG draws) are
/// identical either way.
fn build_graphs_observed(
    spec: &ExperimentSpec,
    base_seed: u64,
    tel: &Telemetry<'_>,
) -> Result<Vec<Graph>, EngineError> {
    spec.graphs
        .iter()
        .enumerate()
        .map(|(gi, gs)| {
            let gen = tel.live.then(Stopwatch::start);
            let (g, attempts) = gs
                .build_counted(graph_seed(base_seed, gi))
                .map_err(|source| EngineError::Graph {
                    graph: gs.label(),
                    source,
                })?;
            if let Some(gen) = gen {
                tel.emit(EventKind::GraphBuilt {
                    graph: gs.label(),
                    n: g.n(),
                    m: g.m(),
                    gen_ns: gen.elapsed_ns(),
                    gen_attempts: attempts as u64,
                });
            }
            Ok(g)
        })
        .collect()
}

/// Streamed aggregates of one process's trials within one *(family,
/// group)* block — the executor's unit of aggregation in **both**
/// modes. Folding happens inside the worker that ran the process's
/// task, so no per-trial vector outlives the task. `pub(crate)` because
/// checkpoints persist these accumulators (moments *and* sketches)
/// verbatim.
#[derive(Debug, Clone)]
pub(crate) struct ProcAgg {
    /// Trials that reached the target within the cap.
    pub(crate) completed: usize,
    /// Steps-to-target of completed trials.
    pub(crate) steps: OnlineStats,
    /// Quantile sketch over the same steps-to-target values.
    pub(crate) steps_sketch: QuantileSketch,
    /// Per-trial blue fraction (trials with classified steps). No
    /// sketch: the fraction is a bounded diagnostic, not a tail
    /// statistic the report quantiles.
    pub(crate) blue_fraction: OnlineStats,
    /// One accumulator per metric column (resolved values only).
    pub(crate) metrics: Vec<OnlineStats>,
    /// One quantile sketch per metric column, same resolved values.
    pub(crate) metric_sketches: Vec<QuantileSketch>,
}

impl ProcAgg {
    /// An empty aggregate whose column-`col` sketch (0 = steps, `i + 1`
    /// = metric column `i`) draws its coins from `sketch_seed(col)`.
    fn empty(metric_columns: usize, sketch_seed: impl Fn(usize) -> u64) -> ProcAgg {
        ProcAgg {
            completed: 0,
            steps: OnlineStats::new(),
            steps_sketch: QuantileSketch::new(sketch_seed(0)),
            blue_fraction: OnlineStats::new(),
            metrics: vec![OnlineStats::new(); metric_columns],
            metric_sketches: (0..metric_columns)
                .map(|ci| QuantileSketch::new(sketch_seed(ci + 1)))
                .collect(),
        }
    }

    /// An empty aggregate for block *(family `gi`, `group`, process
    /// `pi`)*, its sketches seeded from the block's grid coordinate (see
    /// [`block_sketch_seed`]).
    pub(crate) fn seeded(
        base_seed: u64,
        gi: usize,
        group: usize,
        pi: usize,
        metric_columns: usize,
    ) -> ProcAgg {
        ProcAgg::empty(metric_columns, |col| {
            block_sketch_seed(base_seed, gi, group, pi, col)
        })
    }

    /// Merges another aggregate into this one: one Welford merge and one
    /// sketch merge per column.
    fn merge(&mut self, other: &ProcAgg) {
        self.completed += other.completed;
        self.steps.merge(&other.steps);
        self.steps_sketch.merge(&other.steps_sketch);
        self.blue_fraction.merge(&other.blue_fraction);
        for (acc, part) in self.metrics.iter_mut().zip(&other.metrics) {
            acc.merge(part);
        }
        for (sk, part) in self.metric_sketches.iter_mut().zip(&other.metric_sketches) {
            sk.merge(part);
        }
    }

    /// Folds one trial, consuming it — the streaming step.
    fn fold(&mut self, outcome: TrialOutcome) {
        if let Some(s) = outcome.steps_to_target {
            self.steps.push(s as f64);
            self.steps_sketch.push(s as f64);
            self.completed += 1;
        }
        let classified = outcome.blue_steps + outcome.red_steps;
        if classified > 0 {
            self.blue_fraction
                .push(outcome.blue_steps as f64 / classified as f64);
        }
        for (acc, value) in self.metrics.iter_mut().zip(&outcome.metric_values) {
            if let Some(v) = value {
                acc.push(*v);
            }
        }
        for (sk, value) in self.metric_sketches.iter_mut().zip(&outcome.metric_values) {
            if let Some(v) = value {
                sk.push(*v);
            }
        }
    }
}

/// All processes' streamed aggregates for one *(family, group)* block.
#[derive(Debug, Clone)]
pub(crate) struct BlockAgg {
    /// Canonical block index `family * groups + group`.
    pub(crate) block: usize,
    /// One aggregate per process, in grid order.
    pub(crate) procs: Vec<ProcAgg>,
}

/// A lane's reusable observer set for one graph: slot 0 is the target
/// observer, slots 1.. are the metric observers, all stored as
/// [`AnyObserver`] enum variants (static dispatch, no boxing). When the
/// target is a cover target and a metric is `cover`, one
/// `CoverObserver(Both)` in slot 0 answers both, rather than two
/// observers keeping the same bitsets. Built once per task and lane, and
/// re-armed (`begin`) for every trial of it.
struct ObserverBank<'g> {
    /// `[target, metrics…]` — a homogeneous `Vec` so the whole bank
    /// feeds the lane driver through the slice `ObserverSet`.
    observers: Vec<AnyObserver<'g>>,
    /// For each of the spec's metrics, the slot of the observer that
    /// measures it.
    metric_slots: Vec<usize>,
}

impl<'g> ObserverBank<'g> {
    fn new(spec: &ExperimentSpec, g: &'g Graph) -> ObserverBank<'g> {
        let shared_cover =
            spec.target.cover_target().is_some() && spec.metrics.contains(&MetricSpec::Cover);
        let mut observers = Vec::with_capacity(1 + spec.metrics.len());
        observers.push(if shared_cover {
            MetricSpec::Cover.build_observer(g)
        } else {
            spec.target.build_observer(g)
        });
        let metric_slots = spec
            .metrics
            .iter()
            .map(|m| {
                if shared_cover && *m == MetricSpec::Cover {
                    0
                } else {
                    observers.push(m.build_observer(g));
                    observers.len() - 1
                }
            })
            .collect();
        ObserverBank {
            observers,
            metric_slots,
        }
    }

    /// The outcome of the trial that just fed this bank and took `steps`
    /// steps.
    fn outcome(&mut self, spec: &ExperimentSpec, steps: u64) -> TrialOutcome {
        let (steps_to_target, blue_steps, red_steps) =
            match (spec.target, self.observers[0].finish()) {
                (Target::Blanket { .. }, Metrics::Blanket(b)) => (b.steps_to_blanket, 0, 0),
                (target, Metrics::Cover(c)) => {
                    let steps_to_target = match target {
                        Target::VertexCover => c.steps_to_vertex_cover,
                        Target::EdgeCover => c.steps_to_edge_cover,
                        Target::BothCover => c
                            .steps_to_vertex_cover
                            .and(c.steps_to_edge_cover)
                            .map(|_| c.steps_to_vertex_cover.max(c.steps_to_edge_cover).unwrap()),
                        Target::Blanket { .. } => unreachable!(),
                    };
                    (steps_to_target, c.blue_steps, c.red_steps)
                }
                (target, metrics) => panic!("target {target:?} produced mismatched {metrics:?}"),
            };
        // A shared cover observer is finished twice; `finish` on it only
        // snapshots.
        let mut metric_values = Vec::new();
        for (ms, &slot) in spec.metrics.iter().zip(&self.metric_slots) {
            metric_values.extend(ms.values(&self.observers[slot].finish()));
        }
        TrialOutcome {
            steps_to_target,
            steps,
            blue_steps,
            red_steps,
            metric_values,
        }
    }
}

/// Runs one set of lanes: the trials seeded by `seeds`, each **one**
/// walk of process `process_index` feeding its own bank's target and
/// metric observers until all of them resolve or the cap, stepped in
/// lockstep through [`run_observed_interleaved`]. Returns the outcomes in
/// seed order. `banks` holds at least one bank per seed.
///
/// This is the engine's (process × metric-set) monomorphization point:
/// the [`with_kernel_lanes!`] match binds the concrete process type once
/// per lane set, so each arm instantiates the lane driver with a
/// concrete walk and the enum-dispatched observer banks — no per-step
/// virtual calls. Each lane draws exactly the RNG sequence its trial
/// would draw alone, so outcomes do not depend on the lane count.
fn run_lanes(
    spec: &ExperimentSpec,
    g: &Graph,
    process_index: usize,
    seeds: &[u64],
    banks: &mut [ObserverBank<'_>],
) -> Vec<TrialOutcome> {
    let process = &spec.processes[process_index];
    let kernels = seeds
        .iter()
        .map(|_| process.build_kernel(g, spec.start))
        .collect();
    let cap = spec.cap.resolve(g);
    let runs = with_kernel_lanes!(kernels, walks => {
        let mut lanes: Vec<Lane<'_, _, _, SmallRng>> = walks
            .into_iter()
            .zip(banks.iter_mut())
            .zip(seeds)
            .map(|((walk, bank), &seed)| {
                Lane::new(walk, &mut bank.observers, SmallRng::seed_from_u64(seed))
            })
            .collect();
        run_observed_interleaved(&mut lanes, StopWhen::AllSatisfied, cap)
    });
    runs.iter()
        .zip(banks)
        .map(|(run, bank)| bank.outcome(spec, run.steps))
        .collect()
}

/// Runs the experiment on `opts.threads` worker threads.
///
/// # Determinism
///
/// The report is a pure function of `(spec, opts.base_seed)`: graphs are
/// built from per-graph derived seeds, each trial owns an RNG derived from
/// its grid coordinates, and aggregation folds outcomes in coordinate
/// order. Thread count affects wall-clock time only.
///
/// # Errors
///
/// Returns [`EngineError`] if the spec is invalid or a graph cannot be
/// built.
///
/// # Panics
///
/// Panics if `opts.threads == 0` or a worker thread panics.
pub fn run(spec: &ExperimentSpec, opts: &RunOptions) -> Result<ExperimentReport, EngineError> {
    run_with_sink(spec, opts, &NullSink)
}

/// [`run`] with telemetry: emits structured [`Event`]s to `sink` as the
/// run progresses — `run_started`, per-family `graph_built` (shared
/// mode), per-block `block_claimed` / `block_completed`,
/// `aggregation_merged` and `run_finished`.
///
/// # Determinism
///
/// The report is **byte-identical** to [`run`]'s for the same `(spec,
/// opts.base_seed)` whatever the sink does: events carry labels and
/// integers measured *around* the deterministic work, never feed back
/// into it, and no RNG draw depends on the sink. A disabled sink (one
/// whose [`TelemetrySink::enabled`] is `false`, like [`NullSink`]) skips
/// event construction and clock reads entirely.
///
/// # Errors
///
/// As [`run`]; a graph failing *inside* the resample pool additionally
/// carries its block context as [`EngineError::Block`].
///
/// # Panics
///
/// As [`run`].
pub fn run_with_sink(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    sink: &dyn TelemetrySink,
) -> Result<ExperimentReport, EngineError> {
    drive_plain(spec, opts, None, Blocks::All, sink).map(RunCheckpoint::into_report)
}

/// Like [`run`], but on graphs already built with [`build_graphs`] for the
/// same `(spec, opts.base_seed)` — for wrappers that also need the graphs
/// themselves (e.g. per-graph enrichment columns) without building every
/// family twice.
///
/// # Errors
///
/// Returns [`EngineError`] if the spec is invalid, including any spec
/// with a [`ResamplePlan`]: resampled trials generate their own samples
/// in the worker pool, so prebuilt graphs cannot be honoured.
///
/// # Panics
///
/// Panics if `opts.threads == 0`, `graphs.len() != spec.graphs.len()`, or
/// a worker thread panics.
pub fn run_on_graphs(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    graphs: &[Graph],
) -> Result<ExperimentReport, EngineError> {
    run_on_graphs_with_sink(spec, opts, graphs, &NullSink)
}

/// [`run_on_graphs`] with telemetry — see [`run_with_sink`] for the event
/// contract. No `graph_built` events are emitted: the caller built the
/// graphs.
///
/// # Errors
///
/// As [`run_on_graphs`].
///
/// # Panics
///
/// As [`run_on_graphs`].
pub fn run_on_graphs_with_sink(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    graphs: &[Graph],
    sink: &dyn TelemetrySink,
) -> Result<ExperimentReport, EngineError> {
    assert_eq!(
        graphs.len(),
        spec.graphs.len(),
        "graphs do not match the spec grid"
    );
    // A resample spec would not walk the supplied graphs at all — the
    // workers generate their own samples — so per-graph enrichment
    // columns computed from `graphs` would describe graphs the report
    // never touched. Refuse rather than mislead; resampled runs go
    // through [`run`].
    if spec.resample.is_some() {
        return Err(EngineError::Spec(SpecError::new(
            "run_on_graphs cannot honour prebuilt graphs under resampling; use run()",
        )));
    }
    drive_plain(spec, opts, Some(graphs), Blocks::All, sink).map(RunCheckpoint::into_report)
}

/// Drives `blocks` without crash-safety options: the run neither
/// resumes, checkpoints nor stops early, so every scheduled block lands
/// or the run fails in the engine.
pub(crate) fn drive_plain(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    graphs: Option<&[Graph]>,
    blocks: Blocks<'_>,
    sink: &dyn TelemetrySink,
) -> Result<RunCheckpoint, EngineError> {
    let rec = RecoveryOptions::default();
    match drive(spec, opts, graphs, blocks, &rec, sink) {
        Ok(driven) => Ok(driven.state),
        Err(RecoveryError::Engine(e)) => Err(e),
        Err(e) => unreachable!(
            "a run that neither resumes nor checkpoints failed outside the engine: {e}"
        ),
    }
}

/// Range checks every start and hitting vertex against every family.
/// Every sample of a family has the vertex count its spec promises
/// ([`crate::spec::GraphSpec::vertex_count`]), so the checks need no
/// built graph and fail identically in every mode, before any block
/// runs.
fn validate_vertices(spec: &ExperimentSpec) -> Result<(), EngineError> {
    for gs in &spec.graphs {
        let n = gs.vertex_count()?;
        if spec.start >= n {
            return Err(EngineError::Spec(SpecError::new(format!(
                "start vertex {} out of range for {} (n = {})",
                spec.start,
                gs.label(),
                n
            ))));
        }
        for metric in &spec.metrics {
            if let MetricSpec::Hitting { vertex: Some(v) } = metric {
                if *v >= n {
                    return Err(EngineError::Spec(SpecError::new(format!(
                        "hitting vertex {} out of range for {} (n = {})",
                        v,
                        gs.label(),
                        n
                    ))));
                }
            }
        }
    }
    Ok(())
}

/// One unit of pool work: the processes `procs` of canonical block
/// `block`. A shared-graph block splits into one task per process; a
/// resampled block is one task covering every process, because its
/// graph is generated inside it.
struct Task {
    block: usize,
    procs: Range<usize>,
}

/// Everything one task produced.
struct TaskResult {
    /// The task's block.
    block: usize,
    /// The first process the task ran; `procs` continues from it.
    first: usize,
    /// The streamed aggregates of the task's processes, in grid order.
    procs: Vec<ProcAgg>,
    /// `(family, n, m)` when this was a task of the family's group-0
    /// block — the dimensions the report describes the family with.
    rep: Option<(usize, usize, usize)>,
    /// Trials the task ran.
    trials: u64,
    /// Walk steps the task simulated.
    steps: u64,
}

/// Everything a worker needs to run any task of one driven run.
struct BlockRunner<'a> {
    spec: &'a ExperimentSpec,
    base_seed: u64,
    n_cols: usize,
    /// Blocks per family.
    groups: usize,
    /// Each family's graph in shared-graph mode; `None` under resampling.
    shared: Option<&'a [Graph]>,
    tel: &'a Telemetry<'a>,
    faults: &'a FaultPlan,
}

impl BlockRunner<'_> {
    /// Runs `task` behind a per-task `catch_unwind` isolation boundary:
    /// a panic anywhere in the task — graph sampling, the walk kernel, an
    /// observer, an injected fault — is caught and surfaced as
    /// [`EngineError::Block`] with a [`BlockError::Panic`] source, instead
    /// of unwinding through the worker and poisoning the pool. A fault
    /// the [`FaultPlan`] schedules at *(family, group)* fires inside the
    /// boundary of the block's first task only, so injected panics take
    /// the exact path real ones do and each fault fails one block.
    fn run(&self, task: &Task, worker: usize) -> Result<TaskResult, EngineError> {
        let (gi, group) = (task.block / self.groups, task.block % self.groups);
        // AssertUnwindSafe: on Err every captured reference is dropped
        // without further use — the worker reports the error and stops —
        // so no closure state is observed in a broken intermediate state.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let fault = self.faults.at(gi, group);
            match fault.filter(|_| task.procs.start == 0) {
                Some(FaultKind::Panic) => {
                    panic!("injected fault: panic at (family {gi}, group {group})")
                }
                Some(FaultKind::GraphFail) => {
                    return Err(BlockError::Graph(GraphError::RetriesExhausted {
                        generator: "fault-injection",
                        attempts: 1,
                        what: format!("an injected failure at (family {gi}, group {group})"),
                    }))
                }
                None => {}
            }
            self.task(gi, group, task, worker)
        }))
        .unwrap_or_else(|payload| Err(BlockError::Panic(panic_message(payload))))
        .map_err(|source| EngineError::Block {
            graph: self.spec.graphs[gi].label(),
            group,
            worker,
            source,
        })
    }

    /// Runs `task` of block *(family `gi`, `group`)* once: obtains the
    /// block's graph — the family's shared graph, or a freshly sampled
    /// group graph under resampling — runs the group's trials of each of
    /// the task's processes on it in lane sets of
    /// [`ProcessSpec::lanes`](crate::spec::ProcessSpec) consecutive trials
    /// through [`run_lanes`], and streams every outcome, in trial order,
    /// into that process's [`ProcAgg`]. Emits `block_claimed` /
    /// `block_completed` when telemetry is live; on a shared graph
    /// `block_completed` names the task's process. Deterministic: the
    /// result is a pure function of `(spec, base_seed, task)` — worker id
    /// and telemetry only label events — which is what lets sharded and
    /// resumed runs reassemble blocks byte-identically.
    fn task(
        &self,
        gi: usize,
        group: usize,
        task: &Task,
        worker: usize,
    ) -> Result<TaskResult, BlockError> {
        let (spec, base_seed, tel) = (self.spec, self.base_seed, self.tel);
        let w = block_width(spec);
        let live = tel.live;
        if live {
            tel.emit(EventKind::BlockClaimed {
                block: task.block,
                family: spec.graphs[gi].label(),
                group,
                worker,
            });
        }
        let mut owned: Option<Graph> = None;
        let (g, attempts, gen_ns): (&Graph, u64, u64) = match self.shared {
            Some(graphs) => (&graphs[gi], 0, 0),
            None => {
                let seed = resample_graph_seed(base_seed, gi, group);
                let gen = live.then(Stopwatch::start);
                let (g, attempts) = spec.graphs[gi]
                    .build_counted(seed)
                    .map_err(BlockError::Graph)?;
                let gen_ns = gen.map_or(0, |gen| gen.elapsed_ns());
                (owned.insert(g), attempts as u64, gen_ns)
            }
        };
        let rep = (group == 0).then(|| (gi, g.n(), g.m()));
        let lo = group * w;
        let hi = ((group + 1) * w).min(spec.trials);
        // One observer bank per lane, built once per task and re-armed
        // across processes and trials (`begin` re-arms completely —
        // pinned by `observer_bank_reuse_matches_fresh_observers`).
        let mut banks: Vec<ObserverBank<'_>> = Vec::new();
        let walk = live.then(Stopwatch::start);
        let mut trials = 0u64;
        let mut steps = 0u64;
        let procs = task
            .procs
            .clone()
            .map(|pi| {
                let mut agg = ProcAgg::seeded(base_seed, gi, group, pi, self.n_cols);
                let width = spec.processes[pi].lanes();
                while banks.len() < width {
                    banks.push(ObserverBank::new(spec, g));
                }
                for first in (lo..hi).step_by(width) {
                    let seeds: Vec<u64> = (first..(first + width).min(hi))
                        .map(|t| trial_seed(base_seed, gi, pi, t))
                        .collect();
                    for outcome in run_lanes(spec, g, pi, &seeds, &mut banks) {
                        trials += 1;
                        steps += outcome.steps;
                        agg.fold(outcome);
                    }
                }
                agg
            })
            .collect();
        if let Some(walk) = walk {
            tel.emit(EventKind::BlockCompleted {
                block: task.block,
                family: spec.graphs[gi].label(),
                group,
                process: self
                    .shared
                    .map(|_| spec.processes[task.procs.start].label()),
                worker,
                trials,
                steps,
                gen_ns,
                gen_attempts: attempts,
                walk_ns: walk.elapsed_ns(),
            });
        }
        Ok(TaskResult {
            block: task.block,
            first: task.procs.start,
            procs,
            rep,
            trials,
            steps,
        })
    }
}

/// Renders a caught panic payload as text: `&str` and `String` payloads
/// (everything `panic!` produces) verbatim, anything else a placeholder.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The spec-shaped context cell aggregation needs — split from
/// [`ExperimentSpec`] so `eproc merge` can aggregate from checkpoint
/// headers alone, through the **same** code path (and hence the same
/// floating-point operation order) as an unsharded run.
pub(crate) struct CellInputs<'a> {
    /// `(label, family_label)` per graph family, in grid order.
    pub(crate) graphs: &'a [(String, String)],
    /// Process labels, in grid order.
    pub(crate) processes: &'a [String],
    /// Flattened metric column names.
    pub(crate) metric_columns: &'a [String],
    /// Trials per cell.
    pub(crate) trials: usize,
    /// Blocks per family (see [`block_group_count`]).
    pub(crate) group_count: usize,
    /// The run's base seed — cell sketch accumulators derive their coin
    /// streams from it (see [`cell_sketch_seed`]).
    pub(crate) base_seed: u64,
    /// Whether the blocks are resampled graph groups. Drives the
    /// variance splits: shared-mode chunks all walk one graph, so an
    /// across/within decomposition over them would be meaningless.
    pub(crate) resampled: bool,
}

/// One cell's streaming accumulators inside a [`CellFolder`] — the raw
/// state a checkpoint persists for the folded prefix.
#[derive(Debug, Clone)]
pub(crate) struct CellAcc {
    /// Every folded block's aggregate for this cell, merged.
    pub(crate) totals: ProcAgg,
    pub(crate) steps_split: SplitAcc,
    pub(crate) metric_splits: Vec<SplitAcc>,
}

impl CellAcc {
    /// Cell `(gi, pi)` before any block folds into it, its sketch coin
    /// streams seeded from the cell's grid coordinate.
    pub(crate) fn empty(inputs: &CellInputs<'_>, gi: usize, pi: usize) -> CellAcc {
        let n_cols = inputs.metric_columns.len();
        CellAcc {
            totals: ProcAgg::empty(n_cols, |col| {
                cell_sketch_seed(inputs.base_seed, gi, pi, col)
            }),
            steps_split: SplitAcc::default(),
            metric_splits: vec![SplitAcc::default(); n_cols],
        }
    }
}

/// The engine's **single** aggregation tail: folds streamed block
/// aggregates into grid-ordered cell accumulators, one block at a time,
/// strictly in canonical *(family, group)* order. Both execution modes,
/// `eproc merge` and `--resume` all feed it the same way, so every
/// recombination performs the identical Welford merges, sketch merges
/// and split feeds in the identical order — the whole byte-identity
/// story reduces to this one type. Memory is `O(cells × columns)`,
/// independent of both the trial count and the block count.
pub(crate) struct CellFolder<'a> {
    inputs: &'a CellInputs<'a>,
    cells: Vec<CellAcc>,
    fed: usize,
}

impl<'a> CellFolder<'a> {
    /// Empty accumulators for every `(family, process)` cell, sketch
    /// coin streams seeded from the cell's grid coordinate.
    pub(crate) fn new(inputs: &'a CellInputs<'a>) -> CellFolder<'a> {
        let mut cells = Vec::with_capacity(inputs.graphs.len() * inputs.processes.len());
        for gi in 0..inputs.graphs.len() {
            for pi in 0..inputs.processes.len() {
                cells.push(CellAcc::empty(inputs, gi, pi));
            }
        }
        CellFolder {
            inputs,
            cells,
            fed: 0,
        }
    }

    /// A folder that has already folded blocks `0..fed` into `cells` —
    /// the state a checkpoint persisted. The caller has checked that
    /// `cells` has one accumulator per cell with one entry per metric
    /// column.
    pub(crate) fn resume(
        inputs: &'a CellInputs<'a>,
        fed: usize,
        cells: Vec<CellAcc>,
    ) -> CellFolder<'a> {
        CellFolder { inputs, cells, fed }
    }

    /// The next canonical block index this folder expects.
    pub(crate) fn fed(&self) -> usize {
        self.fed
    }

    /// Every cell's accumulators, in grid order.
    pub(crate) fn cells(&self) -> &[CellAcc] {
        &self.cells
    }

    /// Every cell's accumulators, in grid order, by value.
    pub(crate) fn into_cells(self) -> Vec<CellAcc> {
        self.cells
    }

    /// Folds the next block. The per-block accumulators double as the
    /// groups of the variance splits: one Welford merge and one split
    /// feed per (block, process, column), no per-trial state.
    ///
    /// # Panics
    ///
    /// Panics if `agg` is not the block the canonical order expects —
    /// out-of-order folding would silently change sketch coin streams
    /// and Welford float bits.
    pub(crate) fn feed(&mut self, agg: &BlockAgg) {
        assert_eq!(agg.block, self.fed, "blocks must fold in canonical order");
        let gi = agg.block / self.inputs.group_count;
        let n_proc = self.inputs.processes.len();
        for (pi, proc_agg) in agg.procs.iter().enumerate() {
            let cell = &mut self.cells[gi * n_proc + pi];
            cell.totals.merge(proc_agg);
            if self.inputs.resampled {
                cell.steps_split.feed(&proc_agg.steps);
                for (split, part) in cell.metric_splits.iter_mut().zip(&proc_agg.metrics) {
                    split.feed(part);
                }
            }
        }
        self.fed += 1;
    }

    /// Renders the folded accumulators as grid-ordered [`CellSummary`]s.
    /// `dims` holds each family's representative `(n, m)`.
    pub(crate) fn finish(self, dims: &[(usize, usize)]) -> Vec<CellSummary> {
        let inputs = self.inputs;
        let mut out = Vec::with_capacity(self.cells.len());
        let mut accs = self.cells.into_iter();
        for (gi, (label, family)) in inputs.graphs.iter().enumerate() {
            let (rep_n, rep_m) = dims[gi];
            for process in inputs.processes {
                let acc = accs.next().expect("one accumulator per cell");
                let totals = acc.totals;
                let metrics = inputs
                    .metric_columns
                    .iter()
                    .zip(totals.metrics)
                    .zip(totals.metric_sketches)
                    .zip(acc.metric_splits)
                    .map(|(((name, stats), sketch), split)| MetricSummary {
                        name: name.clone(),
                        stats,
                        sketch,
                        split: inputs.resampled.then(|| split.finish()),
                    })
                    .collect();
                out.push(CellSummary {
                    graph: label.clone(),
                    family: family.clone(),
                    n: rep_n,
                    m: rep_m,
                    process: process.clone(),
                    trials: inputs.trials,
                    completed: totals.completed,
                    steps: totals.steps,
                    steps_sketch: totals.steps_sketch,
                    blue_fraction: totals.blue_fraction,
                    steps_split: inputs.resampled.then(|| acc.steps_split.finish()),
                    metrics,
                });
            }
        }
        out
    }
}

/// How far past the canonical fold floor a worker may claim, in
/// scheduled blocks: the pool bounds its out-of-order buffer — and hence
/// a run's aggregation state and every checkpoint — to this many blocks.
pub(crate) fn claim_window(workers: usize) -> usize {
    (workers * 2).max(8)
}

/// The canonical work a [`run_pool`] call schedules: every `stride`-th
/// block from `start` below `end`, in ascending order, minus `skip`
/// (sorted) — the blocks a resumed run already holds past its folded
/// prefix — each cut into tasks.
struct Schedule {
    start: usize,
    stride: usize,
    end: usize,
    skip: Vec<usize>,
    /// Processes per block.
    processes: usize,
    /// Whether each process of a block is a task of its own (shared
    /// graphs) rather than one task running them all (resampled graphs,
    /// generated inside the task).
    split: bool,
}

impl Schedule {
    /// The scheduled blocks, ascending.
    fn blocks(&self) -> impl Iterator<Item = usize> + '_ {
        (self.start..self.end)
            .step_by(self.stride)
            .filter(|b| self.skip.binary_search(b).is_err())
    }

    /// How many blocks are scheduled.
    fn len(&self) -> usize {
        self.end.saturating_sub(self.start).div_ceil(self.stride) - self.skip.len()
    }

    /// Tasks per block.
    fn tasks_per_block(&self) -> usize {
        if self.split {
            self.processes
        } else {
            1
        }
    }

    /// How many tasks are scheduled.
    fn tasks(&self) -> usize {
        self.len() * self.tasks_per_block()
    }

    /// The `i`-th task in canonical *(block, process)* order, counting
    /// the tasks of skipped blocks too; `None` once `i` runs past `end`.
    fn task(&self, i: usize) -> Option<Task> {
        let per_block = self.tasks_per_block();
        let block = self.start + i / per_block * self.stride;
        let procs = if self.split {
            i % per_block..i % per_block + 1
        } else {
            0..self.processes
        };
        (block < self.end).then_some(Task { block, procs })
    }
}

/// A block some of whose tasks have landed.
struct PartialBlock {
    /// One slot per process, filled as the block's tasks land.
    procs: Vec<Option<ProcAgg>>,
    /// `(family, n, m)` when this is a group-0 block.
    rep: Option<(usize, usize, usize)>,
}

/// The main thread's side of a block pool: the cell fold, the blocks
/// whose tasks are still landing, the completed blocks waiting for the
/// canonical order to reach them, and the run's tallies.
pub(crate) struct FoldState<'a> {
    /// Folds blocks `0, 1, 2, …` in canonical order.
    pub(crate) folder: CellFolder<'a>,
    /// Processes per block: a block is complete once each has landed.
    processes: usize,
    /// Blocks with some but not all tasks landed, by canonical index.
    /// Never checkpointed: a block cut off part-way reruns on resume.
    partial: BTreeMap<usize, PartialBlock>,
    /// Completed blocks past the fold, by canonical index.
    pub(crate) pending: BTreeMap<usize, BlockAgg>,
    /// Each family's representative `(n, m)`, once its group-0 block ran.
    pub(crate) dims: Vec<Option<(usize, usize)>>,
    trials_run: u64,
    steps_run: u64,
    /// Nanoseconds spent folding (measured only when telemetry is live).
    agg_ns: u64,
}

impl<'a> FoldState<'a> {
    /// The state of `families` families of `processes`-process blocks
    /// whose fold starts at `folder`.
    pub(crate) fn new(folder: CellFolder<'a>, families: usize, processes: usize) -> FoldState<'a> {
        FoldState {
            folder,
            processes,
            partial: BTreeMap::new(),
            pending: BTreeMap::new(),
            dims: vec![None; families],
            trials_run: 0,
            steps_run: 0,
            agg_ns: 0,
        }
    }

    /// Blocks done: those folded plus the pending ones.
    pub(crate) fn completed(&self) -> usize {
        self.folder.fed() + self.pending.len()
    }

    /// `(family, n, m)` of every family whose group-0 block ran.
    pub(crate) fn rep_dims(&self) -> Vec<(usize, usize, usize)> {
        self.dims
            .iter()
            .enumerate()
            .filter_map(|(gi, d)| d.map(|(n, m)| (gi, n, m)))
            .collect()
    }

    /// Takes one completed task. Once its block's last task has landed,
    /// the block joins the pending blocks and every pending block the
    /// canonical order now allows is folded; returns whether the fold
    /// moved.
    fn accept(&mut self, task: TaskResult, live: bool) -> bool {
        self.trials_run += task.trials;
        self.steps_run += task.steps;
        let processes = self.processes;
        let part = self
            .partial
            .entry(task.block)
            .or_insert_with(|| PartialBlock {
                procs: vec![None; processes],
                rep: None,
            });
        for (slot, agg) in part.procs[task.first..].iter_mut().zip(task.procs) {
            *slot = Some(agg);
        }
        part.rep = part.rep.or(task.rep);
        if part.procs.iter().any(Option::is_none) {
            return false;
        }
        let part = self.partial.remove(&task.block).expect("the block is held");
        if let Some((gi, n, m)) = part.rep {
            self.dims[gi] = Some((n, m));
        }
        let procs = part.procs.into_iter().flatten().collect();
        self.pending.insert(
            task.block,
            BlockAgg {
                block: task.block,
                procs,
            },
        );
        let before = self.folder.fed();
        while let Some(agg) = self.pending.remove(&self.folder.fed()) {
            let fold = live.then(Stopwatch::start);
            self.folder.feed(&agg);
            if let Some(fold) = fold {
                self.agg_ns += fold.elapsed_ns();
            }
        }
        self.folder.fed() > before
    }
}

/// The engine's one worker pool: scoped workers claim the tasks of
/// `schedule` in canonical *(block, process)* order off one shared
/// atomic, run each through `run(task, worker)`, and stream the results
/// to this thread, which assembles each block from its tasks and folds
/// it into `state` the moment the canonical order allows. On an
/// unsharded schedule a claim whose block lies [`claim_window`] or more
/// blocks past the fold waits for the fold to move, so neither the
/// pending nor the partly landed blocks ever exceed the window — never
/// `O(blocks)`, never `O(trials)`. A shard's fold cannot pass its first
/// missing block, and the shard holds every block it runs until it is
/// written anyway, so a strided schedule claims without a window.
///
/// Workers stop claiming once `halt()` is true or a task fails; claimed
/// tasks that already started drain. After each batch of results — every
/// completion already queued — `after_batch` sees the state; returning
/// `false` stops the pool the same way. Returns the first block error.
fn run_pool<R, H, B>(
    schedule: &Schedule,
    workers: usize,
    state: &mut FoldState<'_>,
    live: bool,
    halt: H,
    run: R,
    mut after_batch: B,
) -> Option<EngineError>
where
    R: Fn(&Task, usize) -> Result<TaskResult, EngineError> + Sync,
    H: Fn() -> bool + Sync,
    B: FnMut(&FoldState<'_>) -> bool,
{
    enum WorkerMsg {
        Done(Box<TaskResult>),
        Failed(Box<EngineError>),
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let fed_floor = Mutex::new(state.folder.fed());
    let may_run = Condvar::new();
    let window = if schedule.stride == 1 {
        claim_window(workers)
    } else {
        usize::MAX
    };
    // Setting the latch under the floor lock means a worker between its
    // window check and its wait cannot miss the wake-up.
    let stop_pool = || {
        let _floor = fed_floor.lock().expect("fold floor lock");
        stop.store(true, Ordering::Relaxed);
        may_run.notify_all();
    };
    let (send, recv) = mpsc::channel::<WorkerMsg>();
    let mut first_error: Option<EngineError> = None;

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let send = send.clone();
            let (next, stop, fed_floor, may_run) = (&next, &stop, &fed_floor, &may_run);
            let (halt, run, stop_pool) = (&halt, &run, &stop_pool);
            scope.spawn(move || loop {
                if stop.load(Ordering::Relaxed) || halt() {
                    stop_pool();
                    break;
                }
                let Some(task) = schedule.task(next.fetch_add(1, Ordering::Relaxed)) else {
                    break;
                };
                if schedule.skip.binary_search(&task.block).is_ok() {
                    continue;
                }
                // Back-pressure: tasks are handed out in canonical
                // order, so waiting until the fold floor is within
                // `window` of this task's block cannot deadlock — every
                // task of the floor block holds an earlier claim, and a
                // claim on the floor block never waits.
                {
                    let mut fed = fed_floor.lock().expect("fold floor lock");
                    while task.block >= fed.saturating_add(window) && !stop.load(Ordering::Relaxed)
                    {
                        fed = may_run.wait(fed).expect("fold floor lock");
                    }
                }
                if stop.load(Ordering::Relaxed) || halt() {
                    stop_pool();
                    break;
                }
                let msg = match run(&task, worker) {
                    Ok(result) => WorkerMsg::Done(Box::new(result)),
                    Err(e) => {
                        stop_pool();
                        WorkerMsg::Failed(Box::new(e))
                    }
                };
                let failed = matches!(msg, WorkerMsg::Failed(_));
                if send.send(msg).is_err() || failed {
                    break;
                }
            });
        }
        // The workers hold the only remaining senders: the receive loop
        // ends exactly when the last worker exits.
        drop(send);
        while let Ok(first) = recv.recv() {
            let mut msg = Some(first);
            while let Some(m) = msg {
                match m {
                    WorkerMsg::Done(result) => {
                        if state.accept(*result, live) {
                            *fed_floor.lock().expect("fold floor lock") = state.folder.fed();
                            may_run.notify_all();
                        }
                    }
                    WorkerMsg::Failed(e) => {
                        // First failure wins.
                        first_error.get_or_insert(*e);
                        stop_pool();
                    }
                }
                msg = recv.try_recv().ok();
            }
            if !after_batch(state) {
                stop_pool();
            }
        }
    });
    first_error
}

/// Which canonical blocks a [`drive`] call runs.
#[derive(Clone, Copy)]
pub(crate) enum Blocks<'c> {
    /// Every block of the run.
    All,
    /// Shard `index` of `count`: the blocks `≡ index (mod count)`.
    Residue(ShardSpec),
    /// The blocks a checkpoint neither folded nor holds pending.
    Missing(&'c RunCheckpoint),
}

/// How a [`drive`] call ended.
pub(crate) struct Driven {
    /// The run's final fold state: every block folded, a shard's share
    /// of them, or as far as an interrupted run got.
    pub(crate) state: RunCheckpoint,
    /// What stopped the run before every scheduled block landed:
    /// `"signal"` (the cancellation flag) or `"deadline"` (`max_wall`).
    pub(crate) interrupted: Option<&'static str>,
}

/// The engine's one driver. It validates the spec, announces the run,
/// builds a shared-graph run's family graphs once, schedules the tasks
/// of `blocks` on [`run_pool`] — one per process on shared graphs, one
/// per block under resampling, with at most one worker per task — and
/// folds the finished blocks in canonical order, from block 0 or from
/// where a resumed checkpoint stopped. It returns the final fold state
/// as a [`RunCheckpoint`]: complete for a run, a shard's share of the
/// blocks for [`Blocks::Residue`] (block 0 folded by shard `0/k`, the
/// rest pending), or as far as an interrupted run got. [`run`],
/// [`run_on_graphs`], [`crate::recovery::run_recoverable`] and
/// [`crate::shard::run_shard`] (and their `_with_sink` forms) are this
/// function with its parameters set. `graphs` supplies a shared-graph
/// run's prebuilt family graphs ([`run_on_graphs`]); `None` builds them
/// here, emitting `graph_built`. Every family's `(n, m)` comes from its
/// group-0 block in both modes.
///
/// `rec` supplies checkpointing, interruption and fault injection; its
/// resume checkpoint arrives as [`Blocks::Missing`]. A run checkpoints
/// its fold state once `every` blocks completed since the last write,
/// and once more when it stops short — interrupted by the cancellation
/// flag or the deadline, or failed — so the completed blocks are on
/// disk. A checkpoint holds whole blocks only; a deadline
/// too far off to represent counts as none.
pub(crate) fn drive(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    graphs: Option<&[Graph]>,
    blocks: Blocks<'_>,
    rec: &RecoveryOptions<'_>,
    sink: &dyn TelemetrySink,
) -> Result<Driven, RecoveryError> {
    assert!(opts.threads > 0, "need at least one worker thread");
    spec.validate()?;
    validate_vertices(spec)?;
    let header = RunHeader::from_spec(spec, opts.base_seed);
    let inputs = header.cell_inputs();
    let total = header.total_blocks();
    let families = spec.graphs.len();
    let processes = spec.processes.len();
    let (start, stride, skip) = match blocks {
        Blocks::All => (0, 1, Vec::new()),
        Blocks::Residue(shard) if shard.index < shard.count => {
            (shard.index, shard.count, Vec::new())
        }
        Blocks::Residue(shard) => {
            let what = format!("shard {shard}: expected <i>/<k> with i < k");
            return Err(SpecError::new(what).into());
        }
        Blocks::Missing(checkpoint) => {
            checkpoint.validate_against(&header)?;
            let held = checkpoint.pending.iter().map(|b| b.block).collect();
            (checkpoint.folded, 1, held)
        }
    };
    let schedule = Schedule {
        start,
        stride,
        end: total,
        skip,
        processes,
        split: spec.resample.is_none(),
    };
    let mut state = match blocks {
        Blocks::Missing(checkpoint) => checkpoint.restore(&inputs),
        _ => FoldState::new(CellFolder::new(&inputs), families, processes),
    };
    // What the state holds once every scheduled block has landed.
    let scheduled_total = state.completed() + schedule.len();

    let scheduled = schedule.tasks();
    let workers = opts.threads.min(scheduled.max(1));
    let tel = Telemetry::new(sink);
    if tel.live {
        tel.emit(EventKind::RunStarted {
            name: spec.name.clone(),
            graphs: families,
            processes,
            trials: spec.trials,
            blocks: scheduled,
            total_trials: schedule
                .blocks()
                .map(|b| (header.block_trials(b) * processes) as u64)
                .sum(),
            workers,
            resampled: header.resampled,
            shard: match blocks {
                Blocks::Residue(shard) => Some(ShardId {
                    index: shard.index,
                    count: shard.count,
                }),
                _ => None,
            },
        });
    }
    // Resampled runs never touch a shared graph: every sample —
    // including the group-0 representative the report describes — is
    // generated inside the worker pool.
    let built;
    let shared = match (spec.resample, graphs) {
        (Some(_), _) => None,
        (None, Some(graphs)) => Some(graphs),
        (None, None) => {
            built = build_graphs_observed(spec, opts.base_seed, &tel)?;
            Some(built.as_slice())
        }
    };
    let runner = BlockRunner {
        spec,
        base_seed: opts.base_seed,
        n_cols: header.metric_columns.len(),
        groups: header.group_count,
        shared,
        tel: &tel,
        faults: &rec.faults,
    };
    // A deadline too far off to represent is no deadline.
    let deadline = rec.max_wall.and_then(|d| Instant::now().checked_add(d));
    let cancelled = || rec.cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    let halt = || cancelled() || deadline.is_some_and(|d| Instant::now() >= d);
    // The pool hands over every completion already queued before calling
    // back, so one write covers them all.
    let checkpoint = rec.checkpoint.as_ref();
    let mut io_error: Option<std::io::Error> = None;
    let mut last_written = state.completed();
    let after_batch = |state: &FoldState<'_>| {
        let Some(cp) = checkpoint else {
            return true;
        };
        if io_error.is_some() {
            return false;
        }
        if state.completed() - last_written < cp.every.max(1) {
            return true;
        }
        last_written = state.completed();
        match write_checkpoint(&header, state, &cp.path, &tel) {
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
        &schedule,
        workers,
        &mut state,
        tel.live,
        halt,
        |task, worker| runner.run(task, worker),
        after_batch,
    );

    // Final checkpoint: on interruption or failure the completed blocks
    // must be on disk; once every scheduled block has landed, the state
    // this returns is the artifact.
    let landed = state.completed() == scheduled_total;
    if !landed && io_error.is_none() {
        if let Some(cp) = checkpoint {
            if let Err(e) = write_checkpoint(&header, &state, &cp.path, &tel) {
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

    let interrupted = (!landed).then(|| if cancelled() { "signal" } else { "deadline" });
    if tel.live {
        if let Some(reason) = interrupted {
            tel.emit(EventKind::RunInterrupted {
                reason: reason.to_string(),
                completed: state.completed(),
                total,
            });
        } else if state.folder.fed() == total {
            tel.emit(EventKind::AggregationMerged {
                blocks: total,
                cells: state.folder.cells().len(),
                agg_ns: state.agg_ns,
            });
        }
        tel.emit(EventKind::RunFinished {
            wall_ns: tel.clock.elapsed_ns(),
            total_trials: state.trials_run,
            total_steps: state.steps_run,
        });
    }
    let rep_dims = state.rep_dims();
    let FoldState {
        folder, pending, ..
    } = state;
    let (folded, cells) = (folder.fed(), folder.into_cells());
    let pending = pending.into_values().collect();
    Ok(Driven {
        state: RunCheckpoint {
            header,
            rep_dims,
            folded,
            cells,
            pending,
        },
        interrupted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CapSpec, GraphSpec, MetricSpec, ProcessSpec, RuleSpec};
    use crate::with_kernel;
    use eproc_core::observe::run_observed;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "tiny".into(),
            description: "unit-test spec".into(),
            graphs: vec![GraphSpec::Cycle { n: 24 }, GraphSpec::Torus { w: 5, h: 5 }],
            processes: vec![
                ProcessSpec::EProcess {
                    rule: RuleSpec::Uniform,
                },
                ProcessSpec::Srw,
            ],
            trials: 3,
            target: Target::VertexCover,
            metrics: vec![],
            start: 0,
            cap: CapSpec::Auto,
            resample: None,
        }
    }

    #[test]
    fn run_produces_grid_ordered_cells() {
        let report = run(
            &tiny_spec(),
            &RunOptions {
                threads: 2,
                base_seed: 1,
            },
        )
        .unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.cells[0].graph, "cycle n=24");
        assert_eq!(report.cells[0].process, "e-process(uniform)");
        assert_eq!(report.cells[1].process, "srw");
        assert_eq!(report.cells[2].graph, "torus 5x5");
        for cell in &report.cells {
            assert_eq!(cell.trials, 3);
            assert_eq!(
                cell.completed, 3,
                "{}/{} failed to cover",
                cell.graph, cell.process
            );
            assert!(cell.steps.mean() >= (cell.n - 1) as f64);
        }
    }

    #[test]
    fn eprocess_on_cycle_covers_in_exactly_n_minus_1() {
        let spec = ExperimentSpec {
            graphs: vec![GraphSpec::Cycle { n: 24 }],
            processes: vec![ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            }],
            ..tiny_spec()
        };
        let report = run(
            &spec,
            &RunOptions {
                threads: 1,
                base_seed: 5,
            },
        )
        .unwrap();
        let cell = &report.cells[0];
        assert_eq!(cell.steps.mean(), 23.0);
        assert_eq!(cell.steps.min(), Some(23.0));
        assert_eq!(cell.steps.max(), Some(23.0));
        assert_eq!(cell.steps_sketch.count(), 3);
        assert_eq!(cell.steps_sketch.quantile(0.5), Ok(23.0));
        // The blue walk never takes a red step before covering a cycle.
        assert_eq!(cell.blue_fraction.mean(), 1.0);
    }

    #[test]
    fn capped_runs_report_incomplete() {
        let spec = ExperimentSpec {
            cap: CapSpec::Absolute(3),
            ..tiny_spec()
        };
        let report = run(
            &spec,
            &RunOptions {
                threads: 2,
                base_seed: 2,
            },
        )
        .unwrap();
        for cell in &report.cells {
            assert_eq!(cell.completed, 0);
            assert_eq!(cell.steps.count(), 0);
        }
    }

    #[test]
    fn blanket_target_runs() {
        let spec = ExperimentSpec {
            graphs: vec![GraphSpec::Complete { n: 8 }],
            processes: vec![ProcessSpec::Srw],
            target: Target::Blanket { delta: 0.3 },
            cap: CapSpec::Absolute(1_000_000),
            trials: 2,
            ..tiny_spec()
        };
        let report = run(
            &spec,
            &RunOptions {
                threads: 2,
                base_seed: 3,
            },
        )
        .unwrap();
        assert_eq!(report.cells[0].completed, 2);
        // Blanket runs do not classify steps.
        assert_eq!(report.cells[0].blue_fraction.count(), 0);
    }

    #[test]
    fn seeds_differ_across_grid_coordinates() {
        let a = trial_seed(1, 0, 0, 0);
        let b = trial_seed(1, 0, 0, 1);
        let c = trial_seed(1, 0, 1, 0);
        let d = trial_seed(1, 1, 0, 0);
        let e = graph_seed(1, 0);
        let all = [a, b, c, d, e];
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j], "seed collision between {i} and {j}");
            }
        }
    }

    #[test]
    fn invalid_spec_is_rejected() {
        let mut spec = tiny_spec();
        spec.processes.clear();
        assert!(matches!(
            run(
                &spec,
                &RunOptions {
                    threads: 1,
                    base_seed: 1
                }
            ),
            Err(EngineError::Spec(_))
        ));
    }

    #[test]
    fn multi_metric_trial_walks_the_graph_exactly_once() {
        // On a cycle the E-process is deterministic: it walks straight
        // around, so vertex cover lands at n-1 and edge cover at n. A
        // trial measuring the target plus cover AND phase metrics must
        // take exactly n steps total — not a multiple of it, which is
        // what re-walking per metric would produce. Two seeds fill both
        // of the E-process's lanes.
        let n = 16usize;
        let spec = ExperimentSpec {
            graphs: vec![GraphSpec::Cycle { n }],
            processes: vec![ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            }],
            metrics: vec![MetricSpec::Cover, MetricSpec::Phases],
            trials: 2,
            ..tiny_spec()
        };
        let g = spec.graphs[0].build(1).unwrap();
        let mut banks = [ObserverBank::new(&spec, &g), ObserverBank::new(&spec, &g)];
        let outcomes = run_lanes(&spec, &g, 0, &[42, 43], &mut banks);
        assert_eq!(outcomes.len(), 2);
        for outcome in outcomes {
            assert_eq!(outcome.steps_to_target, Some((n - 1) as u64));
            assert_eq!(
                outcome.steps, n as u64,
                "one walk must feed every observer: {} steps taken for target + 2 metrics",
                outcome.steps
            );
            // Metric columns resolved from the same single pass.
            assert_eq!(
                outcome.metric_values,
                vec![
                    Some((n - 1) as f64), // cover.c_v
                    Some(n as f64),       // cover.c_e
                    Some(n as f64),       // phases.first_blue
                    Some(1.0),            // phases.blue_count
                    Some(n as f64),       // phases.total_blue
                    Some(1.0),            // phases.closed
                ]
            );
        }
    }

    #[test]
    fn observer_bank_reuse_matches_fresh_observers() {
        // Consecutive lane sets through reused banks must equal lane sets
        // through fresh banks: begin() re-arms completely. SRW runs one
        // lane, the E-process two.
        let spec = ExperimentSpec {
            graphs: vec![GraphSpec::Torus { w: 5, h: 5 }],
            processes: vec![
                ProcessSpec::Srw,
                ProcessSpec::EProcess {
                    rule: RuleSpec::Uniform,
                },
            ],
            metrics: vec![
                MetricSpec::Cover,
                MetricSpec::Blanket { delta: 0.3 },
                MetricSpec::Hitting { vertex: None },
            ],
            ..tiny_spec()
        };
        let g = spec.graphs[0].build(2).unwrap();
        let mut reused = [ObserverBank::new(&spec, &g), ObserverBank::new(&spec, &g)];
        for pi in 0..spec.processes.len() {
            let width = spec.processes[pi].lanes();
            for seeds in [7u64, 8, 9, 10, 11].chunks(width) {
                let a = run_lanes(&spec, &g, pi, seeds, &mut reused);
                let mut fresh = [ObserverBank::new(&spec, &g), ObserverBank::new(&spec, &g)];
                let b = run_lanes(&spec, &g, pi, seeds, &mut fresh);
                assert_eq!(a, b, "process {pi}, seeds {seeds:?}");
            }
        }
    }

    #[test]
    fn lanes_fold_in_trial_order() {
        // The E-process runs its trials two lanes at a time. Under a cap
        // that trial 0 and 1's cover times straddle, one lane of the
        // first pair stops at the cap while the other covers; each cell
        // must still equal the fold of one-walk `run_observed` runs of
        // the same trial seeds, in trial order.
        let base_seed = 5;
        let base = ExperimentSpec {
            graphs: vec![GraphSpec::Torus { w: 6, h: 6 }],
            processes: vec![ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            }],
            metrics: vec![MetricSpec::Cover, MetricSpec::Phases],
            ..tiny_spec()
        };
        let graphs = build_graphs(&base, base_seed).unwrap();
        let g = &graphs[0];
        let solo = |spec: &ExperimentSpec, t: usize| {
            let mut bank = ObserverBank::new(spec, g);
            let kernel = spec.processes[0].build_kernel(g, spec.start);
            let mut rng = SmallRng::seed_from_u64(trial_seed(base_seed, 0, 0, t));
            let cap = spec.cap.resolve(g);
            let run = with_kernel!(kernel, walk => run_observed(
                &mut walk,
                &mut bank.observers,
                StopWhen::AllSatisfied,
                cap,
                &mut rng,
            ));
            bank.outcome(spec, run.steps)
        };
        let (c0, c1) = (solo(&base, 0).steps, solo(&base, 1).steps);
        assert!(c0.abs_diff(c1) > 1, "cover times {c0} and {c1}");
        let cap = c0.min(c1) + 1;
        let n_cols = 6;
        for trials in [1, 2, 3, 5] {
            let spec = ExperimentSpec {
                trials,
                cap: CapSpec::Absolute(cap),
                ..base.clone()
            };
            let outcomes: Vec<TrialOutcome> = (0..trials).map(|t| solo(&spec, t)).collect();
            if trials >= 2 {
                let capped: Vec<bool> = outcomes[..2]
                    .iter()
                    .map(|o| o.steps == cap && o.metric_values[1].is_none())
                    .collect();
                assert_eq!(capped, [c0 > c1, c1 > c0], "one lane of the pair is capped");
            }
            let mut block = ProcAgg::seeded(base_seed, 0, 0, 0, n_cols);
            for outcome in outcomes {
                block.fold(outcome);
            }
            let mut cell = ProcAgg::empty(n_cols, |col| cell_sketch_seed(base_seed, 0, 0, col));
            cell.merge(&block);
            let opts = RunOptions {
                threads: 2,
                base_seed,
            };
            let report = run_on_graphs(&spec, &opts, &graphs).unwrap();
            let got = &report.cells[0];
            assert_eq!(got.completed, cell.completed, "{trials} trials");
            assert_eq!(got.steps, cell.steps, "{trials} trials");
            assert_eq!(got.steps_sketch.to_raw(), cell.steps_sketch.to_raw());
            assert_eq!(got.blue_fraction, cell.blue_fraction, "{trials} trials");
            assert_eq!(got.metrics.len(), n_cols);
            for ((metric, stats), sketch) in got
                .metrics
                .iter()
                .zip(&cell.metrics)
                .zip(&cell.metric_sketches)
            {
                assert_eq!(metric.stats, *stats, "{} at {trials} trials", metric.name);
                assert_eq!(metric.sketch.to_raw(), sketch.to_raw());
            }
        }
    }

    #[test]
    fn cover_target_and_cover_metric_share_one_observer() {
        let covers = |bank: &ObserverBank<'_>| {
            bank.observers
                .iter()
                .filter(|o| matches!(o, AnyObserver::Cover(_)))
                .count()
        };
        let g = GraphSpec::Cycle { n: 8 }.build(1).unwrap();
        // A vertex-cover target and a `cover` metric: one observer
        // answers both, beside the phases observer.
        let spec = ExperimentSpec {
            target: Target::VertexCover,
            metrics: vec![MetricSpec::Cover, MetricSpec::Phases],
            ..tiny_spec()
        };
        let bank = ObserverBank::new(&spec, &g);
        assert_eq!((covers(&bank), bank.observers.len()), (1, 2));
        assert_eq!(bank.metric_slots, [0, 1]);
        // A blanket target cannot answer `cover`: two observers.
        let spec = ExperimentSpec {
            target: Target::Blanket { delta: 0.4 },
            metrics: vec![MetricSpec::Cover],
            ..tiny_spec()
        };
        let bank = ObserverBank::new(&spec, &g);
        assert_eq!((covers(&bank), bank.observers.len()), (1, 2));
        assert_eq!(bank.metric_slots, [1]);
    }

    #[test]
    fn degree_above_the_eprocess_limit_fails_its_block() {
        // Complete, lollipop and LPS graphs cannot pass the E-process's
        // degree limit within `u32` arc ids, but a caller's own graph
        // can: the refusal is that block's error, caught by the per-task
        // isolation boundary.
        let spec = ExperimentSpec {
            graphs: vec![GraphSpec::Cycle { n: 8 }],
            processes: vec![ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            }],
            trials: 1,
            ..tiny_spec()
        };
        let star = eproc_graphs::generators::star(eproc_core::eprocess::MAX_DEGREE + 2);
        let opts = RunOptions {
            threads: 1,
            base_seed: 1,
        };
        match run_on_graphs(&spec, &opts, std::slice::from_ref(&star)) {
            Err(EngineError::Block {
                source: BlockError::Panic(message),
                ..
            }) => assert!(message.contains("limit of 65536"), "{message}"),
            other => panic!("expected a block error, got {other:?}"),
        }
    }

    #[test]
    fn metrics_aggregate_into_cells() {
        let spec = ExperimentSpec {
            graphs: vec![GraphSpec::Cycle { n: 12 }],
            processes: vec![ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            }],
            metrics: vec![MetricSpec::Cover, MetricSpec::Hitting { vertex: Some(6) }],
            ..tiny_spec()
        };
        let report = run(
            &spec,
            &RunOptions {
                threads: 2,
                base_seed: 3,
            },
        )
        .unwrap();
        let cell = &report.cells[0];
        assert_eq!(cell.metrics.len(), 3);
        assert_eq!(cell.metrics[0].name, "cover.c_v");
        assert_eq!(cell.metrics[0].stats.mean(), 11.0);
        assert_eq!(cell.metrics[1].name, "cover.c_e");
        assert_eq!(cell.metrics[1].stats.mean(), 12.0);
        assert_eq!(cell.metrics[2].name, "hitting(6)");
        // Deterministic blue sweep reaches the antipode in 6 steps.
        assert_eq!(cell.metrics[2].stats.mean(), 6.0);
    }

    #[test]
    fn bad_start_and_hitting_vertices_are_rejected() {
        let mut spec = tiny_spec();
        spec.start = 1_000;
        assert!(matches!(
            run(
                &spec,
                &RunOptions {
                    threads: 1,
                    base_seed: 1
                }
            ),
            Err(EngineError::Spec(_))
        ));
        let mut spec = tiny_spec();
        spec.metrics = vec![MetricSpec::Hitting {
            vertex: Some(10_000),
        }];
        assert!(matches!(
            run(
                &spec,
                &RunOptions {
                    threads: 1,
                    base_seed: 1
                }
            ),
            Err(EngineError::Spec(_))
        ));
    }

    #[test]
    fn nonzero_start_runs() {
        let spec = ExperimentSpec {
            start: 5,
            graphs: vec![GraphSpec::Cycle { n: 10 }],
            processes: vec![ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            }],
            ..tiny_spec()
        };
        let report = run(
            &spec,
            &RunOptions {
                threads: 1,
                base_seed: 4,
            },
        )
        .unwrap();
        assert_eq!(report.cells[0].steps.mean(), 9.0);
    }

    #[test]
    fn resampled_report_is_identical_across_thread_counts() {
        // Resample blocks sample their graphs inside the pool; the
        // report must stay a pure function of (spec, base_seed).
        let spec = ExperimentSpec {
            graphs: vec![GraphSpec::Regular { n: 24, d: 3 }],
            processes: vec![
                ProcessSpec::EProcess {
                    rule: RuleSpec::Uniform,
                },
                ProcessSpec::Srw,
            ],
            trials: 6,
            resample: Some(ResamplePlan { walks_per_graph: 4 }),
            ..tiny_spec()
        };
        let run_with = |threads: usize| {
            run(
                &spec,
                &RunOptions {
                    threads,
                    base_seed: 21,
                },
            )
            .unwrap()
        };
        let a = run_with(1);
        let b = run_with(4);
        assert_eq!(a.cells.len(), b.cells.len());
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.completed, cb.completed);
            assert_eq!(ca.steps, cb.steps);
            assert_eq!(ca.blue_fraction, cb.blue_fraction);
            assert_eq!(ca.steps_split, cb.steps_split);
            // The sketches' full state — retained items, levels and coin
            // stream — is thread-count invariant, not just the answers.
            assert_eq!(ca.steps_sketch.to_raw(), cb.steps_sketch.to_raw());
        }
    }

    #[test]
    fn tasks_are_handed_out_in_block_process_order() {
        let schedule = |split| Schedule {
            start: 1,
            stride: 2,
            end: 6,
            skip: vec![3],
            processes: 3,
            split,
        };
        let shared = schedule(true);
        assert_eq!(shared.tasks(), 6);
        let order: Vec<(usize, Range<usize>)> = (0..)
            .map_while(|i| shared.task(i))
            .map(|t| (t.block, t.procs))
            .collect();
        // Block 3's tasks are counted; the pool skips them on claim.
        let expected: Vec<(usize, Range<usize>)> = [1, 3, 5]
            .into_iter()
            .flat_map(|b| (0..3).map(move |p| (b, p..p + 1)))
            .collect();
        assert_eq!(order, expected);
        let resampled = schedule(false);
        assert_eq!(resampled.tasks(), 2);
        assert_eq!(
            resampled.task(1).map(|t| (t.block, t.procs)),
            Some((3, 0..3))
        );
        assert!(resampled.task(3).is_none());
    }

    #[test]
    fn oversubscribed_threads_are_fine() {
        let spec = ExperimentSpec {
            trials: 2,
            ..tiny_spec()
        };
        let report = run(
            &spec,
            &RunOptions {
                threads: 64,
                base_seed: 4,
            },
        )
        .unwrap();
        assert_eq!(report.cells.len(), 4);
        assert!(report.cells.iter().all(|c| c.completed == 2));
    }
}
