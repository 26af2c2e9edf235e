//! Property tests for sharded execution: splitting a run — resampled or
//! on shared graphs — into `k` shards, through the JSON artifact round
//! trip, and merging them back must reproduce the unsharded report
//! **byte-for-byte**, for any shard count, any thread counts, and any
//! spec shape.
//!
//! This is the sharding analogue of `determinism.rs`: the contract is
//! not "statistically equivalent", it is the same artifact, so `cmp`
//! would pass on the files. A shard's artifact is a checkpoint, so the
//! same holds for any disjoint cover of the blocks and for resuming a
//! shard's checkpoint.

mod common;

use eproc_engine::checkpoint::RunCheckpoint;
use eproc_engine::executor::{run, RunOptions};
use eproc_engine::recovery::{run_recoverable, RecoveryOptions, RunOutcome};
use eproc_engine::report::{to_json, to_json_with};
use eproc_engine::shard::{merge_shards, run_shard, ShardSpec};
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, ResamplePlan, RuleSpec, Target,
};
use proptest::prelude::*;

/// A small but varied spec: two graph families, three process kinds,
/// with the trials/walks_per_graph draw controlling whether groups are
/// full, ragged (last group short) or single-trial — every block shape
/// the executor can run. `walks_per_graph == 0` runs one shared graph
/// per family instead, on `trials × 30` trials, so the family's 64-trial
/// blocks number 1 to 4 with a ragged last one.
fn spec_for(trials: usize, walks_per_graph: usize, both_families: bool) -> ExperimentSpec {
    let mut graphs = vec![GraphSpec::Regular { n: 20, d: 3 }];
    if both_families {
        graphs.push(GraphSpec::Torus { w: 4, h: 5 });
    }
    ExperimentSpec {
        name: "shard-prop".into(),
        description: "sharding property-test spec".into(),
        graphs,
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::Srw,
            ProcessSpec::RotorRouter,
        ],
        trials: if walks_per_graph == 0 {
            trials * 30
        } else {
            trials
        },
        target: Target::VertexCover,
        metrics: vec![MetricSpec::Cover],
        start: 0,
        cap: CapSpec::Auto,
        resample: (walks_per_graph > 0).then_some(ResamplePlan { walks_per_graph }),
    }
}

/// Runs every shard of a `k`-way split (each on its own thread count),
/// round-trips each artifact through its JSON form, merges, and returns
/// the merged report's JSON.
fn sharded_json(spec: &ExperimentSpec, base_seed: u64, k: usize) -> String {
    let shards: Vec<RunCheckpoint> = (0..k)
        .map(|i| {
            let opts = RunOptions {
                threads: (i % 3) + 1,
                base_seed,
            };
            let shard = run_shard(spec, &opts, ShardSpec { index: i, count: k })
                .expect("shard run succeeds");
            let artifact = shard.to_json();
            common::json::validate(&artifact).expect("shard checkpoint is strict JSON");
            RunCheckpoint::from_json(&artifact).expect("shard checkpoint round-trips")
        })
        .collect();
    to_json(&merge_shards(&shards).expect("complete shard set merges"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline contract: 2-way and 3-way splits both reproduce the
    /// unsharded artifact exactly, whatever the trial/group shape and
    /// whichever thread counts each shard happened to use.
    #[test]
    fn sharded_runs_merge_to_the_unsharded_artifact(
        seed in 0u64..1_000_000,
        trials in 1usize..8,
        walks_per_graph in 0usize..4,
        family_draw in 0usize..2,
        threads in 1usize..4,
    ) {
        let spec = spec_for(trials, walks_per_graph, family_draw == 1);
        let full = to_json(&run(&spec, &RunOptions { threads, base_seed: seed }).unwrap());
        for k in [2usize, 3] {
            prop_assert_eq!(&sharded_json(&spec, seed, k), &full);
        }
    }

    /// Degenerate split: one shard owning everything is just the run
    /// with a detour through the artifact format.
    #[test]
    fn single_shard_split_is_the_identity(
        seed in 0u64..1_000_000,
        trials in 1usize..6,
        walks_per_graph in 0usize..4,
    ) {
        let spec = spec_for(trials, walks_per_graph, true);
        let full = to_json(&run(&spec, &RunOptions { threads: 2, base_seed: seed }).unwrap());
        prop_assert_eq!(&sharded_json(&spec, seed, 1), &full);
    }
}

/// Any `--quantiles` selection renders byte-identically from the merged
/// report and the unsharded one: the shard artifacts carry the sketches'
/// raw bits, and the canonical merge fold reconstructs the exact sketch
/// state an uninterrupted run would hold — not just the default
/// p50/p90/p99 columns that `to_json` happens to print.
#[test]
fn custom_quantile_render_is_byte_identical_after_merge() {
    let spec = spec_for(5, 2, true);
    let seed = 4711;
    let full = run(
        &spec,
        &RunOptions {
            threads: 4,
            base_seed: seed,
        },
    )
    .unwrap();
    let k = 3;
    let shards: Vec<RunCheckpoint> = (0..k)
        .map(|i| {
            let opts = RunOptions {
                threads: (i % 3) + 1,
                base_seed: seed,
            };
            let shard = run_shard(&spec, &opts, ShardSpec { index: i, count: k })
                .expect("shard run succeeds");
            RunCheckpoint::from_json(&shard.to_json()).expect("shard checkpoint round-trips")
        })
        .collect();
    let merged = merge_shards(&shards).expect("complete shard set merges");
    let quantiles = [0.25, 0.5, 0.999];
    assert_eq!(
        to_json_with(&merged, None, &quantiles),
        to_json_with(&full, None, &quantiles)
    );
}

/// Runs shard `index` of `count` of `spec` at `threads` threads.
fn shard_of(
    spec: &ExperimentSpec,
    base_seed: u64,
    index: usize,
    count: usize,
    threads: usize,
) -> RunCheckpoint {
    let opts = RunOptions { threads, base_seed };
    run_shard(spec, &opts, ShardSpec { index, count }).expect("shard run succeeds")
}

/// The unsharded artifact of `spec`.
fn full_json(spec: &ExperimentSpec, base_seed: u64) -> String {
    to_json(
        &run(
            spec,
            &RunOptions {
                threads: 2,
                base_seed,
            },
        )
        .unwrap(),
    )
}

/// A shard cannot fold past its first missing block, so its workers
/// must not wait for the fold: 200 blocks per shard, far more than the
/// claim window of 4 workers, still run to completion and merge.
#[test]
fn shards_with_more_blocks_than_the_claim_window_merge() {
    let spec = ExperimentSpec {
        graphs: vec![GraphSpec::Regular { n: 16, d: 3 }],
        processes: vec![ProcessSpec::Srw],
        trials: 400,
        metrics: vec![],
        resample: Some(ResamplePlan { walks_per_graph: 1 }),
        ..spec_for(1, 1, false)
    };
    let seed = 17;
    let shards = [0, 1].map(|index| shard_of(&spec, seed, index, 2, 4));
    assert_eq!(shards[1].completed_blocks(), 200);
    assert_eq!(
        to_json(&merge_shards(&shards).unwrap()),
        full_json(&spec, seed)
    );
}

/// Any disjoint cover of the blocks merges, not only the `k` residue
/// classes of one split: `0/2` + `1/4` + `3/4`, on resampled and on
/// shared graphs.
#[test]
fn an_uneven_disjoint_cover_merges_to_the_unsharded_artifact() {
    let seed = 23;
    for walks_per_graph in [2, 0] {
        let spec = spec_for(5, walks_per_graph, true);
        let cover = [(0, 2), (1, 4), (3, 4)].map(|(i, k)| shard_of(&spec, seed, i, k, 2));
        assert_eq!(cover.iter().map(|s| s.completed_blocks()).sum::<usize>(), 6);
        assert_eq!(
            to_json(&merge_shards(&cover).unwrap()),
            full_json(&spec, seed),
            "walks_per_graph {walks_per_graph}"
        );
    }
}

/// A block two inputs hold, or none does, is an error naming it.
#[test]
fn merging_an_overlap_or_a_gap_names_the_block() {
    let spec = spec_for(5, 2, true);
    let seed = 29;
    let [even, odd, three, one] =
        [(0, 2), (1, 2), (3, 4), (1, 4)].map(|(i, k)| shard_of(&spec, seed, i, k, 1));
    let err = merge_shards(&[even.clone(), odd, three]).unwrap_err();
    assert!(err.to_string().contains("block 3 is held twice"), "{err}");
    let err = merge_shards(&[even, one]).unwrap_err();
    assert!(err.to_string().contains("block 3 is missing"), "{err}");
}

/// A shard's checkpoint is a `--resume` file: resuming it runs the
/// blocks the shard lacks, and the report is the unsharded run's.
#[test]
fn a_shards_checkpoint_resumes_to_the_unsharded_artifact() {
    let seed = 31;
    for walks_per_graph in [2, 0] {
        let spec = spec_for(5, walks_per_graph, true);
        for index in [1, 0] {
            let rec = RecoveryOptions {
                resume: Some(shard_of(&spec, seed, index, 2, 2)),
                ..RecoveryOptions::default()
            };
            let opts = RunOptions {
                threads: 3,
                base_seed: seed,
            };
            let RunOutcome::Completed(report) = run_recoverable(&spec, &opts, &rec).unwrap() else {
                unreachable!("nothing interrupts the resume");
            };
            assert_eq!(
                to_json(&report),
                full_json(&spec, seed),
                "shard {index}/2, walks_per_graph {walks_per_graph}"
            );
        }
    }
}

/// The cap decides which trials complete: shards run under different
/// caps are two experiments and do not merge.
#[test]
fn shards_written_with_different_caps_do_not_merge() {
    let spec = spec_for(5, 2, true);
    let capped = ExperimentSpec {
        cap: CapSpec::Absolute(1_000),
        ..spec.clone()
    };
    let seed = 37;
    let shards = [
        shard_of(&spec, seed, 0, 2, 1),
        shard_of(&capped, seed, 1, 2, 1),
    ];
    let err = merge_shards(&shards).unwrap_err();
    assert!(err.to_string().contains("on cap"), "{err}");
}
