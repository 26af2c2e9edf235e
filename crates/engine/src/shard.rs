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
//! A shard run is a driven run over its residue class, and its artifact
//! is that run's final fold state: a [`RunCheckpoint`], the one format
//! every partial run persists (see [`crate::checkpoint`]). The fold
//! starts at block 0, so shard `0/k` folds block 0 and holds its other
//! blocks pending, every other shard holds all of its blocks pending,
//! and a `0/1` shard ends fully folded. [`merge_shards`] checks that
//! its checkpoints come from one run and hold every block exactly once,
//! resumes the fold of the one that folded a prefix, and feeds it the
//! remaining blocks in canonical order through the executor's own
//! `CellFolder` — the identical floating-point operations (and sketch
//! compactions) in the identical order an unsharded run performs — so
//! the merged [`ExperimentReport`] serialises **byte-identically** to
//! running the whole experiment on one machine (pinned by the
//! `shard_merge` proptests). Any disjoint cover of the blocks merges —
//! `0/2` + `1/4` + `3/4`, say — and a shard's checkpoint is also a
//! `--resume` file: resuming it runs exactly the blocks it lacks.

use crate::checkpoint::{CheckpointError, RunCheckpoint};
use crate::executor::{
    drive_plain, BlockAgg, Blocks, CellFolder, EngineError, ExperimentReport, RunOptions,
};
use crate::spec::{ExperimentSpec, SpecError};
use eproc_telemetry::{EventKind, NullSink, Stopwatch, TelemetrySink};
use std::fmt;

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
) -> Result<RunCheckpoint, EngineError> {
    run_shard_with_sink(spec, opts, shard, &NullSink)
}

/// Executes shard `shard.index` of `shard.count`: the *(family, group)*
/// blocks with canonical index `≡ index (mod count)`, on `opts.threads`
/// worker threads, through the executor's own driver and block runner —
/// for shared-graph and resampled specs alike — and returns the final
/// fold state as a checkpoint (see the module docs). Emits `run_started`
/// (carrying the shard id), `graph_built` per family of a shared-graph
/// run, per-block `block_claimed`/`block_completed` and `run_finished`;
/// `aggregation_merged` only for a `0/1` shard, the one whose fold
/// completes.
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
) -> Result<RunCheckpoint, EngineError> {
    drive_plain(spec, opts, None, Blocks::Residue(shard), sink)
}

/// [`merge_shards_with_sink`] without telemetry.
///
/// # Errors
///
/// As [`merge_shards_with_sink`].
pub fn merge_shards(shards: &[RunCheckpoint]) -> Result<ExperimentReport, CheckpointError> {
    merge_shards_with_sink(shards, &NullSink)
}

/// Folds checkpoints that together hold every block of one run exactly
/// once into that run's [`ExperimentReport`], byte-identical under
/// [`crate::report::to_json`] to the run's own.
///
/// Validation is strict: every input, in-memory ones too, must pass the
/// load-time checks of [`RunCheckpoint::from_json`] and carry the same
/// run header (name, target, trials, start, cap, seed, resampling,
/// grids, columns), and the inputs' folded prefixes and pending blocks
/// must hold each canonical block exactly once. At most one input has
/// then folded a prefix; its fold resumes, and the pending blocks fold
/// after it in canonical order through the executor's own `CellFolder`,
/// so the merged cells are the product of the identical Welford merges
/// and sketch compactions in the identical order. Emits one
/// `merge_completed` event when `sink` is enabled.
///
/// # Errors
///
/// [`CheckpointError`] naming the first incompatible input, or the first
/// block that no input holds or two inputs hold.
pub fn merge_shards_with_sink(
    shards: &[RunCheckpoint],
    sink: &dyn TelemetrySink,
) -> Result<ExperimentReport, CheckpointError> {
    let clock = Stopwatch::start();
    let first = shards
        .first()
        .ok_or_else(|| CheckpointError::new("no checkpoints to merge"))?;
    for (i, shard) in shards.iter().enumerate() {
        shard
            .check()
            .map_err(|e| CheckpointError::new(format!("input {i}: {e}")))?;
        if let Some(field) = shard.header.first_mismatch(&first.header) {
            return Err(CheckpointError::new(format!(
                "input {i} disagrees with input 0 on {field}: the checkpoints come from \
                 different runs"
            )));
        }
    }
    let header = &first.header;
    let total = header.total_blocks();
    // The folded prefixes and pending blocks, as block ranges in
    // canonical order, must tile `0..total`. The header's block count
    // is outside input, so nothing here is sized by it.
    let mut held: Vec<(usize, usize)> = shards
        .iter()
        .flat_map(|s| {
            let pending = s.pending.iter().map(|b| (b.block, b.block + 1));
            std::iter::once((0, s.folded)).chain(pending)
        })
        .filter(|(lo, hi)| lo < hi)
        .collect();
    held.sort_unstable();
    let mut next = 0;
    for (lo, hi) in held {
        if lo < next {
            return Err(CheckpointError::new(format!(
                "block {lo} is held twice: the checkpoints overlap"
            )));
        }
        if lo > next {
            break;
        }
        next = hi;
    }
    if next < total {
        return Err(CheckpointError::new(format!(
            "block {next} is missing: no checkpoint holds it"
        )));
    }
    let inputs = header.cell_inputs();
    let mut folder = match shards.iter().find(|s| s.folded > 0) {
        Some(s) => CellFolder::resume(&inputs, s.folded, s.cells.clone()),
        None => CellFolder::new(&inputs),
    };
    let mut pending: Vec<&BlockAgg> = shards.iter().flat_map(|s| &s.pending).collect();
    pending.sort_unstable_by_key(|b| b.block);
    for block in pending {
        folder.feed(block);
    }
    let report = RunCheckpoint {
        header: header.clone(),
        rep_dims: shards.iter().flat_map(|s| s.rep_dims.clone()).collect(),
        folded: folder.fed(),
        cells: folder.into_cells(),
        pending: Vec::new(),
    }
    .into_report();
    if sink.enabled() {
        sink.emit(&eproc_telemetry::Event {
            t_ns: clock.elapsed_ns(),
            kind: EventKind::MergeCompleted {
                shards: shards.len(),
                blocks: total,
                cells: report.cells.len(),
                merge_ns: clock.elapsed_ns(),
            },
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run;
    use crate::report::to_json;
    use crate::spec::{
        CapSpec, GraphSpec, MetricSpec, ProcessSpec, ResamplePlan, RuleSpec, Target,
    };
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
            let shards: Vec<RunCheckpoint> = (0..k)
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
        let back = RunCheckpoint::from_json(&json).unwrap();
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
        wrong_seed.header.base_seed = 5;
        assert!(merge_shards(&[s0.clone(), wrong_seed]).is_err());
        let mut wrong_trials = s1.clone();
        wrong_trials.header.trials = 99;
        assert!(merge_shards(&[s0.clone(), wrong_trials]).is_err());
        let mut gutted = s1.clone();
        gutted.pending.pop();
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
        assert!(RunCheckpoint::from_json("").is_err());
        assert!(RunCheckpoint::from_json("{}").is_err());
        assert!(RunCheckpoint::from_json("{\"format\": \"something-else\"}").is_err());
        let err =
            RunCheckpoint::from_json("{\"format\": \"eproc-shard\", \"version\": 3}").unwrap_err();
        assert!(err.to_string().contains("eproc-shard"), "{err}");
    }
}
