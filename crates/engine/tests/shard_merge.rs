//! Property tests for sharded execution: splitting a resampled run into
//! `k` shards — through the JSON artifact round trip — and merging them
//! back must reproduce the unsharded report **byte-for-byte**, for any
//! shard count, any thread counts, and any spec shape.
//!
//! This is the sharding analogue of `determinism.rs`: the contract is
//! not "statistically equivalent", it is the same artifact, so `cmp`
//! would pass on the files.

mod common;

use eproc_engine::executor::{run, RunOptions};
use eproc_engine::report::{to_json, to_json_with};
use eproc_engine::shard::{merge_shards, run_shard, ShardReport, ShardSpec};
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, ResamplePlan, RuleSpec, Target,
};
use proptest::prelude::*;

/// A small but varied resampled spec: two graph families, three process
/// kinds, with the trials/walks_per_graph draw controlling whether
/// groups are full, ragged (last group short) or single-trial — every
/// block shape the executor can run.
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
        trials,
        target: Target::VertexCover,
        metrics: vec![MetricSpec::Cover],
        start: 0,
        cap: CapSpec::Auto,
        resample: Some(ResamplePlan { walks_per_graph }),
    }
}

/// Runs every shard of a `k`-way split (each on its own thread count),
/// round-trips each artifact through its JSON form, merges, and returns
/// the merged report's JSON.
fn sharded_json(spec: &ExperimentSpec, base_seed: u64, k: usize) -> String {
    let shards: Vec<ShardReport> = (0..k)
        .map(|i| {
            let opts = RunOptions {
                threads: (i % 3) + 1,
                base_seed,
            };
            let shard = run_shard(spec, &opts, ShardSpec { index: i, count: k })
                .expect("shard run succeeds");
            let artifact = shard.to_json();
            common::json::validate(&artifact).expect("shard artifact is strict JSON");
            ShardReport::from_json(&artifact).expect("shard artifact round-trips")
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
        walks_per_graph in 1usize..4,
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
        walks_per_graph in 1usize..4,
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
    let shards: Vec<ShardReport> = (0..k)
        .map(|i| {
            let opts = RunOptions {
                threads: (i % 3) + 1,
                base_seed: seed,
            };
            let shard = run_shard(&spec, &opts, ShardSpec { index: i, count: k })
                .expect("shard run succeeds");
            ShardReport::from_json(&shard.to_json()).expect("shard artifact round-trips")
        })
        .collect();
    let merged = merge_shards(&shards).expect("complete shard set merges");
    let quantiles = [0.25, 0.5, 0.999];
    assert_eq!(
        to_json_with(&merged, None, &quantiles),
        to_json_with(&full, None, &quantiles)
    );
}
