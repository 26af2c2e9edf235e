//! Sharded execution of resampled experiments, and the `eproc merge`
//! recombination path.
//!
//! A resampled run's *(family, group)* blocks are independent work units:
//! each one samples its own graph from `(family, group)`-keyed seed
//! coordinates and streams its trials into per-process Welford
//! accumulators, with no cross-block state. [`run_shard`] exploits that
//! to partition a run across machines: shard `i` of `k` executes exactly
//! the blocks whose canonical index `family * groups + group` is
//! `≡ i (mod k)` — a deterministic residue-class partition, so the union
//! of the `k` shards is exactly the unsharded block set, with no
//! coordination and no overlap.
//!
//! The shard artifact ([`ShardReport`]) persists each block's streamed
//! [`OnlineStats`](eproc_stats::OnlineStats) accumulators and
//! [`QuantileSketch`](eproc_stats::QuantileSketch)es **bit-exactly**
//! (via the crate-internal `persist` codec): the floats are written as IEEE-754 bit
//! patterns ([`OnlineStats::to_raw`](eproc_stats::OnlineStats::to_raw)),
//! because the `m2`
//! sum of squares is not recoverable from a rounded variance and the
//! `±∞` sentinels of an empty accumulator have no decimal form.
//! [`merge_shards`] then validates the shards form one complete run
//! (same header, every residue class present, every block accounted
//! for), reassembles the blocks in canonical order and hands them to the
//! executor's own `aggregate_cells` — the identical
//! floating-point operations (and sketch compactions) in the identical
//! order an unsharded run performs — so the merged [`ExperimentReport`]
//! serialises **byte-identically** to running the whole experiment on
//! one machine (pinned by the `shard_merge` proptests).

use crate::executor::{
    aggregate_cells, run_block_isolated, validate_vertices, BlockAgg, CellInputs, EngineError,
    ExperimentReport, RunOptions, Telemetry,
};
use crate::persist::{
    json, parse_blocks, parse_rep_dims, write_blocks, write_rep_dims, PersistError, RunHeader,
};
use crate::spec::{ExperimentSpec, ResamplePlan, SpecError, Target};
use eproc_telemetry::{EventKind, NullSink, ShardId, Stopwatch, TelemetrySink};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which slice of the block space a sharded run executes: shard `index`
/// of `count` owns the blocks `≡ index (mod count)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's residue class (`0..count`).
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl ShardSpec {
    /// Parses the CLI form `i/k` (e.g. `0/4`), requiring `i < k` and
    /// `k >= 1`.
    pub fn parse(s: &str) -> Result<ShardSpec, SpecError> {
        let bad = || SpecError::new(format!("shard spec {s:?}: expected <i>/<k> with i < k"));
        let (i, k) = s.split_once('/').ok_or_else(bad)?;
        let index: usize = i.parse().map_err(|_| bad())?;
        let count: usize = k.parse().map_err(|_| bad())?;
        if count == 0 || index >= count {
            return Err(bad());
        }
        Ok(ShardSpec { index, count })
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// A merge-time failure: incompatible, incomplete or malformed shard
/// artifacts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    message: String,
}

impl ShardError {
    fn new(message: impl Into<String>) -> ShardError {
        ShardError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ShardError {}

impl From<PersistError> for ShardError {
    fn from(e: PersistError) -> ShardError {
        ShardError::new(e.to_string())
    }
}

/// One shard's persisted share of a resampled run: the experiment header
/// (everything [`merge_shards`] needs to validate compatibility and
/// aggregate without the original spec) plus the owned blocks' streamed
/// accumulators, bit-exact.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Which residue class this artifact holds.
    pub shard: ShardSpec,
    /// Spec name.
    pub name: String,
    /// Spec description.
    pub description: String,
    /// Target measured.
    pub target: Target,
    /// Trials per cell.
    pub trials: usize,
    /// Base seed the blocks derived their streams from.
    pub base_seed: u64,
    /// Trials per resampled graph.
    pub walks_per_graph: usize,
    /// Resample groups per family.
    pub group_count: usize,
    /// `(label, family_label)` per graph family, in grid order.
    pub graphs: Vec<(String, String)>,
    /// Process labels, in grid order.
    pub processes: Vec<String>,
    /// Flattened metric column names.
    pub metric_columns: Vec<String>,
    /// `(family, n, m)` of the group-0 samples this shard built — only
    /// the families whose group-0 block this shard owns.
    pub rep_dims: Vec<(usize, usize, usize)>,
    /// The owned blocks' aggregates, sorted by canonical block index.
    pub(crate) blocks: Vec<BlockAgg>,
}

impl ShardReport {
    /// The canonical [`RunHeader`] this artifact embeds — the shared
    /// identity checked at merge and resume time.
    pub(crate) fn header(&self) -> RunHeader {
        RunHeader {
            name: self.name.clone(),
            description: self.description.clone(),
            target: self.target,
            trials: self.trials,
            base_seed: self.base_seed,
            walks_per_graph: self.walks_per_graph,
            group_count: self.group_count,
            graphs: self.graphs.clone(),
            processes: self.processes.clone(),
            metric_columns: self.metric_columns.clone(),
        }
    }
}

/// [`run_shard_with_sink`] without telemetry.
///
/// # Errors
///
/// As [`run_shard_with_sink`].
///
/// # Panics
///
/// As [`run_shard_with_sink`].
pub fn run_shard(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    shard: ShardSpec,
) -> Result<ShardReport, EngineError> {
    run_shard_with_sink(spec, opts, shard, &NullSink)
}

/// Executes shard `shard.index` of `shard.count`: the *(family, group)*
/// blocks with canonical index `≡ index (mod count)`, on `opts.threads`
/// worker threads, through the executor's own block runner. Emits
/// `run_started` (carrying the shard id), per-block
/// `block_claimed`/`block_completed` and `run_finished`; no
/// `aggregation_merged` — aggregation happens at [`merge_shards`] time.
///
/// Each block's accumulators are bit-identical to the ones the unsharded
/// [`crate::executor::run`] computes for the same `(spec, base_seed)`,
/// for any thread count.
///
/// # Errors
///
/// [`EngineError::Spec`] for invalid specs — including any spec
/// **without** a [`ResamplePlan`]: shared-graph runs have per-trial jobs,
/// not independent blocks, so there is nothing meaningful to partition.
/// [`EngineError::Block`] if a graph sample fails inside the pool.
///
/// # Panics
///
/// Panics if `opts.threads == 0` or a worker thread panics.
pub fn run_shard_with_sink(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    shard: ShardSpec,
    sink: &dyn TelemetrySink,
) -> Result<ShardReport, EngineError> {
    assert!(opts.threads > 0, "need at least one worker thread");
    spec.validate()?;
    let Some(plan) = spec.resample else {
        return Err(EngineError::Spec(SpecError::new(
            "sharded execution requires a resampled run (--resample / a `~` family marker): \
             shared-graph runs have no independent blocks to partition",
        )));
    };
    validate_vertices(spec, None)?;
    let tel = Telemetry::new(sink);
    let trials = spec.trials;
    let w = plan.walks_per_graph;
    let group_count = plan.groups(trials);
    let total_blocks = spec.graphs.len() * group_count;
    let owned: Vec<usize> = (0..total_blocks)
        .filter(|b| b % shard.count == shard.index)
        .collect();
    let n_proc = spec.processes.len();
    let metric_columns = spec.metric_columns();
    let n_cols = metric_columns.len();
    if tel.live {
        let owned_trials: u64 = owned
            .iter()
            .map(|b| {
                let group = b % group_count;
                let chunk = ((group + 1) * w).min(trials) - group * w;
                (chunk * n_proc) as u64
            })
            .sum();
        tel.emit(EventKind::RunStarted {
            name: spec.name.clone(),
            graphs: spec.graphs.len(),
            processes: n_proc,
            trials,
            blocks: owned.len(),
            total_trials: owned_trials,
            workers: opts.threads.min(owned.len().max(1)),
            resampled: true,
            shard: Some(ShardId {
                index: shard.index,
                count: shard.count,
            }),
        });
    }
    let next = AtomicUsize::new(0);
    let workers = opts.threads.min(owned.len().max(1));
    struct WorkerOutput {
        blocks: Vec<BlockAgg>,
        rep_dims: Vec<(usize, usize, usize)>,
        trials_run: u64,
        steps_run: u64,
    }
    type WorkerResult = Result<WorkerOutput, EngineError>;
    let collected: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let next = &next;
                let owned = &owned;
                let tel = &tel;
                scope.spawn(move || -> WorkerResult {
                    let mut blocks = Vec::new();
                    let mut rep_dims = Vec::new();
                    let mut trials_run = 0u64;
                    let mut steps_run = 0u64;
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= owned.len() {
                            break;
                        }
                        let result = run_block_isolated(
                            spec,
                            opts.base_seed,
                            owned[idx],
                            worker,
                            n_cols,
                            None,
                            tel,
                        )?;
                        trials_run += result.trials;
                        steps_run += result.steps;
                        if let Some(rep) = result.rep {
                            rep_dims.push(rep);
                        }
                        blocks.push(result.agg);
                    }
                    Ok(WorkerOutput {
                        blocks,
                        rep_dims,
                        trials_run,
                        steps_run,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let mut blocks = Vec::with_capacity(owned.len());
    let mut rep_dims = Vec::new();
    let mut trials_run = 0u64;
    let mut steps_run = 0u64;
    for worker in collected {
        let output = worker?;
        trials_run += output.trials_run;
        steps_run += output.steps_run;
        blocks.extend(output.blocks);
        rep_dims.extend(output.rep_dims);
    }
    // Canonical artifact order regardless of which worker claimed what.
    blocks.sort_by_key(|b| b.block);
    rep_dims.sort_unstable();
    if tel.live {
        tel.emit(EventKind::RunFinished {
            wall_ns: tel.clock.elapsed_ns(),
            total_trials: trials_run,
            total_steps: steps_run,
        });
    }
    Ok(ShardReport {
        shard,
        name: spec.name.clone(),
        description: spec.description.clone(),
        target: spec.target,
        trials,
        base_seed: opts.base_seed,
        walks_per_graph: w,
        group_count,
        graphs: spec
            .graphs
            .iter()
            .map(|gs| (gs.label(), gs.family_label()))
            .collect(),
        processes: spec.processes.iter().map(|ps| ps.label()).collect(),
        metric_columns,
        rep_dims,
        blocks,
    })
}

/// [`merge_shards_with_sink`] without telemetry.
///
/// # Errors
///
/// As [`merge_shards_with_sink`].
pub fn merge_shards(shards: &[ShardReport]) -> Result<ExperimentReport, ShardError> {
    merge_shards_with_sink(shards, &NullSink)
}

/// Recombines a complete set of shard artifacts into the unsharded run's
/// [`ExperimentReport`], byte-identical under [`crate::report::to_json`].
///
/// Validation is strict: every shard must carry the same experiment
/// header (name, target, trials, seed, grids, columns), the residue
/// classes `0..count` must each appear exactly once, and every canonical
/// block index must be accounted for. Aggregation then runs through the
/// executor's own `aggregate_cells`, so the merged cells are the
/// product of the identical Welford merges and sketch compactions in
/// the identical order.
/// Emits one `merge_completed` event when `sink` is enabled.
///
/// # Errors
///
/// [`ShardError`] naming the first incompatibility or gap.
pub fn merge_shards_with_sink(
    shards: &[ShardReport],
    sink: &dyn TelemetrySink,
) -> Result<ExperimentReport, ShardError> {
    let clock = Stopwatch::start();
    let first = shards
        .first()
        .ok_or_else(|| ShardError::new("no shard artifacts to merge"))?;
    let count = first.shard.count;
    if shards.len() != count {
        return Err(ShardError::new(format!(
            "expected {count} shards (shard count declared by {:?}), got {}",
            first.name,
            shards.len()
        )));
    }
    let first_header = first.header();
    let mut seen = vec![false; count];
    for s in shards {
        if s.shard.count != count {
            return Err(ShardError::new(format!(
                "shard {} declares {} total shards, but shard {} declares {}",
                s.shard.index, s.shard.count, first.shard.index, count
            )));
        }
        if std::mem::replace(&mut seen[s.shard.index], true) {
            return Err(ShardError::new(format!(
                "shard index {} appears more than once",
                s.shard.index
            )));
        }
        if let Some(field) = s.header().first_mismatch(&first_header) {
            return Err(ShardError::new(format!(
                "shard {} disagrees with shard {} on {field}: the artifacts come from \
                 different runs",
                s.shard.index, first.shard.index
            )));
        }
    }
    let total_blocks = first.graphs.len() * first.group_count;
    let mut blocks: Vec<Option<BlockAgg>> = vec![None; total_blocks];
    let mut dims: Vec<Option<(usize, usize)>> = vec![None; first.graphs.len()];
    for s in shards {
        for b in &s.blocks {
            if b.block >= total_blocks || b.block % count != s.shard.index {
                return Err(ShardError::new(format!(
                    "shard {} carries block {}, which is outside its residue class",
                    s.shard.index, b.block
                )));
            }
            if blocks[b.block].replace(b.clone()).is_some() {
                return Err(ShardError::new(format!(
                    "block {} appears more than once",
                    b.block
                )));
            }
            for proc in &b.procs {
                if proc.metrics.len() != first.metric_columns.len() {
                    return Err(ShardError::new(format!(
                        "block {} has {} metric accumulators for {} columns",
                        b.block,
                        proc.metrics.len(),
                        first.metric_columns.len()
                    )));
                }
            }
            if b.procs.len() != first.processes.len() {
                return Err(ShardError::new(format!(
                    "block {} has {} process aggregates for {} processes",
                    b.block,
                    b.procs.len(),
                    first.processes.len()
                )));
            }
        }
        for &(gi, n, m) in &s.rep_dims {
            if gi >= dims.len() {
                return Err(ShardError::new(format!(
                    "shard {} reports dimensions for family {gi}, outside the grid",
                    s.shard.index
                )));
            }
            dims[gi] = Some((n, m));
        }
    }
    let blocks: Vec<BlockAgg> = blocks
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            b.ok_or_else(|| {
                ShardError::new(format!(
                    "block {i} is missing (shard {} is incomplete)",
                    i % count
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    let dims: Vec<(usize, usize)> = dims
        .into_iter()
        .enumerate()
        .map(|(gi, d)| {
            d.ok_or_else(|| {
                ShardError::new(format!(
                    "family {gi} has no representative dimensions (its group-0 shard is \
                     incomplete)"
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    let cells = aggregate_cells(
        &CellInputs {
            graphs: &first.graphs,
            processes: &first.processes,
            metric_columns: &first.metric_columns,
            trials: first.trials,
            group_count: first.group_count,
            base_seed: first.base_seed,
            resampled: true,
        },
        &dims,
        &blocks,
    );
    if sink.enabled() {
        sink.emit(&eproc_telemetry::Event {
            t_ns: clock.elapsed_ns(),
            kind: EventKind::MergeCompleted {
                shards: count,
                blocks: total_blocks,
                cells: cells.len(),
                merge_ns: clock.elapsed_ns(),
            },
        });
    }
    Ok(ExperimentReport {
        name: first.name.clone(),
        description: first.description.clone(),
        target: first.target,
        trials: first.trials,
        base_seed: first.base_seed,
        resample: Some(ResamplePlan {
            walks_per_graph: first.walks_per_graph,
        }),
        cells,
    })
}

// --- shard artifact serialisation ----------------------------------------

impl ShardReport {
    /// Serialises the shard artifact as deterministic strict JSON.
    /// Accumulator floats are written as IEEE-754 bit patterns (see the
    /// module docs), so `from_json(to_json())` is the identity down to
    /// the last bit.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"format\": \"eproc-shard\",");
        let _ = writeln!(out, "  \"version\": 2,");
        let _ = writeln!(out, "  \"shard_index\": {},", self.shard.index);
        let _ = writeln!(out, "  \"shard_count\": {},", self.shard.count);
        self.header().write_fields(&mut out);
        write_rep_dims(&mut out, &self.rep_dims);
        write_blocks(&mut out, &self.blocks);
        out
    }

    /// Writes the artifact to `path`, creating parent directories. The
    /// write is atomic (temp sibling + rename): a crash mid-write never
    /// leaves a truncated artifact for `eproc merge` to choke on.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        eproc_telemetry::write_atomic(path, &self.to_json())
    }

    /// Reads and parses a shard artifact.
    ///
    /// # Errors
    ///
    /// [`ShardError`] for unreadable files or malformed artifacts.
    pub fn load(path: &Path) -> Result<ShardReport, ShardError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ShardError::new(format!("reading {}: {e}", path.display())))?;
        ShardReport::from_json(&text)
            .map_err(|e| ShardError::new(format!("{}: {e}", path.display())))
    }

    /// Parses a [`ShardReport::to_json`] artifact, bit-exactly.
    ///
    /// # Errors
    ///
    /// [`ShardError`] describing the first structural problem.
    pub fn from_json(text: &str) -> Result<ShardReport, ShardError> {
        let value = json::parse(text)?;
        let root = value.as_obj("artifact")?;
        let format = root.str_field("format")?;
        if format != "eproc-shard" {
            return Err(ShardError::new(format!(
                "not a shard artifact (format {format:?})"
            )));
        }
        let version = root.u64_field("version")?;
        if version != 2 {
            return Err(ShardError::new(format!(
                "unsupported shard artifact version {version}"
            )));
        }
        let shard = ShardSpec {
            index: root.usize_field("shard_index")?,
            count: root.usize_field("shard_count")?,
        };
        if shard.count == 0 || shard.index >= shard.count {
            return Err(ShardError::new(format!(
                "invalid shard coordinates {}/{}",
                shard.index, shard.count
            )));
        }
        let header = RunHeader::parse(&root)?;
        let rep_dims = parse_rep_dims(&root)?;
        let blocks = parse_blocks(&root)?;
        Ok(ShardReport {
            shard,
            name: header.name,
            description: header.description,
            target: header.target,
            trials: header.trials,
            base_seed: header.base_seed,
            walks_per_graph: header.walks_per_graph,
            group_count: header.group_count,
            graphs: header.graphs,
            processes: header.processes,
            metric_columns: header.metric_columns,
            rep_dims,
            blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run;
    use crate::report::to_json;
    use crate::spec::{CapSpec, GraphSpec, MetricSpec, ProcessSpec, RuleSpec};

    fn resampled_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "shard-unit".into(),
            description: "sharding unit-test spec".into(),
            graphs: vec![
                GraphSpec::Regular { n: 24, d: 3 },
                GraphSpec::Regular { n: 16, d: 4 },
            ],
            processes: vec![
                ProcessSpec::EProcess {
                    rule: RuleSpec::Uniform,
                },
                ProcessSpec::Srw,
            ],
            trials: 5,
            target: Target::BothCover,
            metrics: vec![MetricSpec::Cover],
            start: 0,
            cap: CapSpec::Auto,
            resample: Some(ResamplePlan { walks_per_graph: 2 }),
        }
    }

    #[test]
    fn shard_spec_parse() {
        assert_eq!(
            ShardSpec::parse("0/4").unwrap(),
            ShardSpec { index: 0, count: 4 }
        );
        assert_eq!(
            ShardSpec::parse("3/4").unwrap(),
            ShardSpec { index: 3, count: 4 }
        );
        for bad in ["", "4/4", "1/0", "2", "a/b", "1/2/3", "-1/2"] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn sharding_rejects_shared_graph_runs() {
        let spec = ExperimentSpec {
            resample: None,
            graphs: vec![GraphSpec::Regular { n: 16, d: 4 }],
            ..resampled_spec()
        };
        let err = run_shard(
            &spec,
            &RunOptions {
                threads: 1,
                base_seed: 1,
            },
            ShardSpec { index: 0, count: 2 },
        )
        .unwrap_err();
        assert!(err.to_string().contains("resampled"), "{err}");
    }

    #[test]
    fn merged_shards_reproduce_unsharded_artifact() {
        let spec = resampled_spec();
        let opts = RunOptions {
            threads: 3,
            base_seed: 77,
        };
        let full = run(&spec, &opts).unwrap();
        for k in [1usize, 2, 3] {
            let shards: Vec<ShardReport> = (0..k)
                .map(|i| {
                    // Deliberately varied thread counts: byte-identity
                    // must hold for any scheduling.
                    let opts = RunOptions {
                        threads: i + 1,
                        base_seed: 77,
                    };
                    run_shard(&spec, &opts, ShardSpec { index: i, count: k }).unwrap()
                })
                .collect();
            let merged = merge_shards(&shards).unwrap();
            assert_eq!(to_json(&merged), to_json(&full), "k = {k}");
        }
    }

    #[test]
    fn shard_artifact_round_trips_bit_exactly() {
        let spec = resampled_spec();
        let opts = RunOptions {
            threads: 2,
            base_seed: 9,
        };
        let shard = run_shard(&spec, &opts, ShardSpec { index: 1, count: 2 }).unwrap();
        let json = shard.to_json();
        let back = ShardReport::from_json(&json).unwrap();
        assert_eq!(back.to_json(), json);
        // The parsed artifact must merge exactly like the in-memory one.
        let other = run_shard(&spec, &opts, ShardSpec { index: 0, count: 2 }).unwrap();
        let merged_mem = merge_shards(&[other.clone(), shard]).unwrap();
        let merged_parsed = merge_shards(&[other, back]).unwrap();
        assert_eq!(to_json(&merged_mem), to_json(&merged_parsed));
    }

    #[test]
    fn merge_rejects_incompatible_and_incomplete_sets() {
        let spec = resampled_spec();
        let opts = RunOptions {
            threads: 1,
            base_seed: 4,
        };
        let s0 = run_shard(&spec, &opts, ShardSpec { index: 0, count: 2 }).unwrap();
        let s1 = run_shard(&spec, &opts, ShardSpec { index: 1, count: 2 }).unwrap();
        assert!(merge_shards(&[]).is_err());
        assert!(
            merge_shards(std::slice::from_ref(&s0)).is_err(),
            "missing shard 1"
        );
        assert!(
            merge_shards(&[s0.clone(), s0.clone()]).is_err(),
            "duplicate shard index"
        );
        let mut wrong_seed = s1.clone();
        wrong_seed.base_seed = 5;
        assert!(merge_shards(&[s0.clone(), wrong_seed]).is_err());
        let mut wrong_trials = s1.clone();
        wrong_trials.trials = 99;
        assert!(merge_shards(&[s0.clone(), wrong_trials]).is_err());
        let mut gutted = s1.clone();
        gutted.blocks.pop();
        assert!(merge_shards(&[s0, gutted]).is_err(), "missing block");
    }

    #[test]
    fn malformed_artifacts_are_rejected_with_context() {
        assert!(ShardReport::from_json("").is_err());
        assert!(ShardReport::from_json("{}").is_err());
        assert!(ShardReport::from_json("{\"format\": \"something-else\"}").is_err());
        let err =
            ShardReport::from_json("{\"format\": \"eproc-shard\", \"version\": 3}").unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }
}
