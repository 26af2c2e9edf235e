//! Sharded execution, and the `eproc merge` recombination path.
//!
//! A run's *(family, group)* blocks are independent work units: each one
//! runs its trials from `(family, group)`-keyed seed coordinates — on a
//! freshly sampled graph under resampling, on the family's shared graph
//! otherwise — and streams them into per-process Welford accumulators,
//! with no cross-block state. [`run_shard`] exploits that to partition a
//! run across machines: shard `i` of `k` executes exactly the blocks
//! whose canonical index `family * groups + group` is `≡ i (mod k)` — a
//! deterministic residue-class partition, so the union of the `k` shards
//! is exactly the unsharded block set, with no coordination and no
//! overlap. A shared-graph shard builds each family's graph once, as an
//! unsharded run does.
//!
//! The shard artifact ([`ShardReport`], format `eproc-shard` version 3)
//! persists each block's streamed
//! [`OnlineStats`](eproc_stats::OnlineStats) accumulators and
//! [`QuantileSketch`](eproc_stats::QuantileSketch)es **bit-exactly**
//! (via the crate-internal `persist` codec): the floats are written as IEEE-754 bit
//! patterns ([`OnlineStats::to_raw`](eproc_stats::OnlineStats::to_raw)),
//! because the `m2`
//! sum of squares is not recoverable from a rounded variance and the
//! `±∞` sentinels of an empty accumulator have no decimal form. Its
//! header records whether the run resampled; version 2 artifacts, which
//! predate that field, are rejected with an error naming the version.
//! [`merge_shards`] then validates the shards form one complete run
//! (same header, every residue class present, every block accounted
//! for), reassembles the blocks in canonical order and folds them through
//! the executor's own `CellFolder` — the identical
//! floating-point operations (and sketch compactions) in the identical
//! order an unsharded run performs — so the merged [`ExperimentReport`]
//! serialises **byte-identically** to running the whole experiment on
//! one machine (pinned by the `shard_merge` proptests).

use crate::executor::{
    drive, BlockAgg, Blocks, CellFolder, Driven, EngineError, ExperimentReport, Output, RunOptions,
};
use crate::persist::{
    json, parse_blocks, parse_rep_dims, write_blocks, write_rep_dims, PersistError, RunHeader,
};
use crate::recovery::RecoveryError;
use crate::spec::{ExperimentSpec, ResamplePlan, SpecError, Target};
use eproc_telemetry::{EventKind, NullSink, Stopwatch, TelemetrySink};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// The shard artifact format version this build writes and reads.
const VERSION: u64 = 3;

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

    /// Whether canonical block `block` belongs to this shard.
    fn owns(&self, block: usize) -> bool {
        block % self.count == self.index
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

/// One shard's persisted share of a run: the experiment header
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
    /// Whether each group walked its own graph sample (a resampled run)
    /// or a chunk of the family's shared graph.
    pub resampled: bool,
    /// Trials per block: the resample plan's walks per graph, or 64 on a
    /// shared graph.
    pub walks_per_graph: usize,
    /// Blocks per family.
    pub group_count: usize,
    /// `(label, family_label)` per graph family, in grid order.
    pub graphs: Vec<(String, String)>,
    /// Process labels, in grid order.
    pub processes: Vec<String>,
    /// Flattened metric column names.
    pub metric_columns: Vec<String>,
    /// `(family, n, m)` of the group-0 blocks this shard ran — only the
    /// families whose group-0 block this shard owns.
    pub rep_dims: Vec<(usize, usize, usize)>,
    /// The owned blocks' aggregates, sorted by canonical block index.
    pub(crate) blocks: Vec<BlockAgg>,
}

impl ShardReport {
    /// Shard `shard`'s artifact for the run `header` describes.
    fn new(
        shard: ShardSpec,
        header: RunHeader,
        rep_dims: Vec<(usize, usize, usize)>,
        blocks: Vec<BlockAgg>,
    ) -> ShardReport {
        ShardReport {
            shard,
            name: header.name,
            description: header.description,
            target: header.target,
            trials: header.trials,
            base_seed: header.base_seed,
            resampled: header.resampled,
            walks_per_graph: header.walks_per_graph,
            group_count: header.group_count,
            graphs: header.graphs,
            processes: header.processes,
            metric_columns: header.metric_columns,
            rep_dims,
            blocks,
        }
    }

    /// The canonical [`RunHeader`] this artifact embeds — the shared
    /// identity checked at merge and resume time.
    pub(crate) fn header(&self) -> RunHeader {
        RunHeader {
            name: self.name.clone(),
            description: self.description.clone(),
            target: self.target,
            trials: self.trials,
            base_seed: self.base_seed,
            resampled: self.resampled,
            walks_per_graph: self.walks_per_graph,
            group_count: self.group_count,
            graphs: self.graphs.clone(),
            processes: self.processes.clone(),
            metric_columns: self.metric_columns.clone(),
        }
    }

    /// Checks the artifact is one shard `i/k` of its run could have
    /// written: `i < k`, every block lies in the grid and in the shard's residue
    /// class, in ascending order without repeats, and passes
    /// [`RunHeader::check_blocks`]; each family has at most one
    /// `rep_dims` entry, and only when the shard owns the family's
    /// group-0 block — so no shard can rewrite another's family size.
    fn check(&self) -> Result<(), ShardError> {
        let shard = self.shard;
        if shard.count == 0 || shard.index >= shard.count {
            return Err(ShardError::new(format!(
                "invalid shard coordinates {}/{}",
                shard.index, shard.count
            )));
        }
        self.header().check_blocks(&self.blocks)?;
        if let Some(b) = self.blocks.iter().find(|b| !shard.owns(b.block)) {
            return Err(ShardError::new(format!(
                "shard {shard} carries block {}, which is outside its residue class",
                b.block
            )));
        }
        if let Some(w) = self.blocks.windows(2).find(|w| w[0].block >= w[1].block) {
            return Err(ShardError::new(format!(
                "shard {shard} lists block {} after block {}: blocks must ascend without repeats",
                w[1].block, w[0].block
            )));
        }
        let mut seen = vec![false; self.graphs.len()];
        for &(gi, _, _) in &self.rep_dims {
            if gi >= seen.len() {
                return Err(ShardError::new(format!(
                    "shard {shard} reports dimensions for family {gi}, outside the grid"
                )));
            }
            let first = gi * self.group_count;
            if !shard.owns(first) {
                return Err(ShardError::new(format!(
                    "shard {shard} reports dimensions for family {gi}, whose group-0 block \
                     {first} belongs to shard {}",
                    first % shard.count
                )));
            }
            if std::mem::replace(&mut seen[gi], true) {
                return Err(ShardError::new(format!(
                    "shard {shard} reports dimensions for family {gi} twice"
                )));
            }
        }
        Ok(())
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
/// worker threads, through the executor's own driver and block runner —
/// for shared-graph and resampled specs alike. Emits `run_started`
/// (carrying the shard id), `graph_built` per family of a shared-graph
/// run, per-block `block_claimed`/`block_completed` and `run_finished`;
/// no `aggregation_merged` — aggregation happens at [`merge_shards`]
/// time.
///
/// Each block's accumulators are bit-identical to the ones the unsharded
/// [`crate::executor::run`] computes for the same `(spec, base_seed)`,
/// for any thread count.
///
/// # Errors
///
/// [`EngineError::Spec`] for invalid specs, [`EngineError::Graph`] when
/// a shared family graph cannot be built, and [`EngineError::Block`] if
/// a block fails inside the pool; the failing worker stops every other
/// worker from claiming further blocks.
///
/// # Panics
///
/// Panics if `opts.threads == 0`.
pub fn run_shard_with_sink(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    shard: ShardSpec,
    sink: &dyn TelemetrySink,
) -> Result<ShardReport, EngineError> {
    let (rep_dims, blocks) = match drive(
        spec,
        opts,
        None,
        Blocks::Residue(shard),
        Output::Shard,
        sink,
    ) {
        Ok(Driven::Blocks { rep_dims, blocks }) => (rep_dims, blocks),
        Err(RecoveryError::Engine(e)) => return Err(e),
        _ => unreachable!("a shard run appends its blocks or fails in the engine"),
    };
    let header = RunHeader::from_spec(spec, opts.base_seed);
    Ok(ShardReport::new(shard, header, rep_dims, blocks))
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
/// header (name, target, trials, seed, resampling, grids, columns), the
/// residue classes `0..count` must each appear exactly once, each shard
/// must pass the load-time checks of [`ShardReport::from_json`], and
/// every canonical block index must be accounted for. Aggregation then
/// runs through the executor's own `CellFolder`, so the merged cells are
/// the product of the identical Welford merges and sketch compactions in
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
    let mut by_index: Vec<Option<&ShardReport>> = vec![None; count];
    for s in shards {
        if s.shard.count != count {
            return Err(ShardError::new(format!(
                "shard {} declares {} total shards, but shard {} declares {}",
                s.shard.index, s.shard.count, first.shard.index, count
            )));
        }
        s.check()?;
        if by_index[s.shard.index].replace(s).is_some() {
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
    let mut dims: Vec<Option<(usize, usize)>> = vec![None; first.graphs.len()];
    for s in shards {
        for &(gi, n, m) in &s.rep_dims {
            dims[gi] = Some((n, m));
        }
    }
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
    // Each shard's blocks ascend through its residue class without
    // repeats, so block `b` is the `b / count`-th block of shard
    // `b % count`, or that shard is missing it.
    let total_blocks = first_header.total_blocks();
    let inputs = first_header.cell_inputs();
    let mut folder = CellFolder::new(&inputs);
    for b in 0..total_blocks {
        let shard = by_index[b % count].expect("every residue class is present");
        match shard.blocks.get(b / count) {
            Some(block) if block.block == b => folder.feed(block),
            _ => {
                return Err(ShardError::new(format!(
                    "block {b} is missing (shard {} is incomplete)",
                    b % count
                )))
            }
        }
    }
    let cells = folder.finish(&dims);
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
        resample: first.resampled.then_some(ResamplePlan {
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
        let _ = writeln!(out, "  \"version\": {VERSION},");
        let _ = writeln!(out, "  \"shard_index\": {},", self.shard.index);
        let _ = writeln!(out, "  \"shard_count\": {},", self.shard.count);
        self.header().write_fields(&mut out);
        write_rep_dims(&mut out, &self.rep_dims);
        write_blocks(&mut out, "blocks", &self.blocks);
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

    /// Parses a [`ShardReport::to_json`] artifact, bit-exactly, and
    /// checks it is one its shard could have written: shard coordinates
    /// `i < k`, blocks inside the grid and the shard's residue class,
    /// ascending without repeats,
    /// with plausible counts and sketches, and representative
    /// dimensions only for the families whose group-0 block the shard
    /// owns, at most once each.
    ///
    /// # Errors
    ///
    /// [`ShardError`] describing the first structural problem,
    /// including any version other than 3.
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
        if version != VERSION {
            return Err(ShardError::new(format!(
                "unsupported shard artifact version {version}: this build reads version \
                 {VERSION}; re-run the shards"
            )));
        }
        let shard = ShardSpec {
            index: root.usize_field("shard_index")?,
            count: root.usize_field("shard_count")?,
        };
        let header = RunHeader::parse(&root)?;
        let rep_dims = parse_rep_dims(&root)?;
        let report = ShardReport::new(shard, header, rep_dims, parse_blocks(&root, "blocks")?);
        report.check()?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run;
    use crate::report::to_json;
    use crate::spec::{CapSpec, GraphSpec, MetricSpec, ProcessSpec, RuleSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn run_shard_rejects_invalid_coordinates() {
        let opts = RunOptions {
            threads: 1,
            base_seed: 1,
        };
        for (index, count) in [(0, 0), (2, 2), (3, 2)] {
            let err = run_shard(&resampled_spec(), &opts, ShardSpec { index, count }).unwrap_err();
            assert!(
                matches!(err, EngineError::Spec(_)),
                "{index}/{count}: {err}"
            );
        }
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

    const SINK_FAULT: &str = "sink fault on the first claimed block";

    /// Panics on the first `block_claimed` — inside that block's
    /// isolation boundary, so the block fails — and counts every claim.
    struct FailFirstClaim {
        claims: AtomicUsize,
    }

    impl TelemetrySink for FailFirstClaim {
        fn emit(&self, event: &eproc_telemetry::Event) {
            if matches!(event.kind, EventKind::BlockClaimed { .. })
                && self.claims.fetch_add(1, Ordering::Relaxed) == 0
            {
                panic!("{SINK_FAULT}");
            }
        }
    }

    /// Keeps the default panic hook away from [`SINK_FAULT`]: with
    /// `RUST_BACKTRACE` set it would capture a backtrace before the
    /// failing worker unwinds and trips the latch, letting the other
    /// worker claim on. Other panics still reach the default hook.
    fn quiet_sink_faults() {
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let ours = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|m| m == SINK_FAULT);
                if !ours {
                    default(info);
                }
            }));
        });
    }

    #[test]
    fn a_failed_block_stops_the_other_workers() {
        // 48 owned blocks, each sampling and covering a 5000-vertex
        // cubic graph: the surviving worker is still inside its first
        // block when the failure lands.
        let spec = ExperimentSpec {
            graphs: vec![GraphSpec::Regular { n: 5_000, d: 3 }],
            processes: vec![ProcessSpec::Srw],
            trials: 48,
            resample: Some(ResamplePlan { walks_per_graph: 1 }),
            ..resampled_spec()
        };
        quiet_sink_faults();
        let sink = FailFirstClaim {
            claims: AtomicUsize::new(0),
        };
        let opts = RunOptions {
            threads: 2,
            base_seed: 5,
        };
        let err =
            run_shard_with_sink(&spec, &opts, ShardSpec { index: 0, count: 1 }, &sink).unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::Block {
                    source: crate::executor::BlockError::Panic(_),
                    ..
                }
            ),
            "{err}"
        );
        let claims = sink.claims.load(Ordering::Relaxed);
        assert!(
            claims <= 4,
            "{claims} blocks claimed after the first one failed"
        );
    }

    #[test]
    fn malformed_artifacts_are_rejected_with_context() {
        assert!(ShardReport::from_json("").is_err());
        assert!(ShardReport::from_json("{}").is_err());
        assert!(ShardReport::from_json("{\"format\": \"something-else\"}").is_err());
        let err =
            ShardReport::from_json("{\"format\": \"eproc-shard\", \"version\": 2}").unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }
}
