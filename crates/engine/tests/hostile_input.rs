//! Everything the engine reads back is hostile: a damaged checkpoint —
//! written mid-run or by a shard — must come back as a typed error:
//! never a panic, never a resume or merge that panics later while the
//! report renders, never a silently wrong report. Truncations, byte
//! flips and digit rewrites of a real mid-run checkpoint are fuzzed
//! through `RunCheckpoint::from_json` and `--resume`, and of a real
//! shard's checkpoint through `RunCheckpoint::from_json` and
//! `merge_shards`, all under `catch_unwind` (the debug test build, so
//! arithmetic overflow panics too). Crafted sketches, forged dimensions
//! and an edited-down folded prefix that once slipped through are pinned
//! as regressions.

mod common;

use eproc_engine::checkpoint::RunCheckpoint;
use eproc_engine::executor::RunOptions;
use eproc_engine::recovery::{
    run_recoverable, run_recoverable_with_sink, CheckpointPlan, RecoveryOptions, RunOutcome,
};
use eproc_engine::report::{to_json, to_text_table};
use eproc_engine::shard::{merge_shards, run_shard, ShardSpec};
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, ResamplePlan, RuleSpec, Target,
};
use eproc_telemetry::{Event, EventKind, TelemetrySink};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

const SEED: u64 = 41;

/// Two families, two processes, two metric columns and a ragged last
/// group: 8 blocks, every accumulator kind in play.
fn spec() -> ExperimentSpec {
    ExperimentSpec {
        name: "hostile".into(),
        description: "hostile-input test spec".into(),
        graphs: vec![
            GraphSpec::Regular { n: 20, d: 3 },
            GraphSpec::Torus { w: 4, h: 5 },
        ],
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::Srw,
        ],
        trials: 7,
        target: Target::VertexCover,
        metrics: vec![MetricSpec::Cover],
        start: 0,
        cap: CapSpec::Auto,
        resample: Some(ResamplePlan { walks_per_graph: 2 }),
    }
}

fn opts(threads: usize) -> RunOptions {
    RunOptions {
        threads,
        base_seed: SEED,
    }
}

/// Flips the cancellation flag after the `k`-th completed block.
struct CancelAfter<'a> {
    cancel: &'a AtomicBool,
    completed: AtomicUsize,
    k: usize,
}

impl TelemetrySink for CancelAfter<'_> {
    fn emit(&self, event: &Event) {
        if matches!(event.kind, EventKind::BlockCompleted { .. })
            && self.completed.fetch_add(1, Ordering::Relaxed) + 1 >= self.k
        {
            self.cancel.store(true, Ordering::Relaxed);
        }
    }
}

/// The text of a real version-6 checkpoint of [`spec`], interrupted
/// part-way: a folded prefix, cell state, and whatever blocks were
/// pending when the run stopped.
fn checkpoint_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let path =
            std::env::temp_dir().join(format!("eproc-hostile-{}.ckpt.json", std::process::id()));
        let cancel = AtomicBool::new(false);
        let sink = CancelAfter {
            cancel: &cancel,
            completed: AtomicUsize::new(0),
            k: 4,
        };
        let rec = RecoveryOptions {
            checkpoint: Some(CheckpointPlan {
                path: path.clone(),
                every: 1,
            }),
            cancel: Some(&cancel),
            ..RecoveryOptions::default()
        };
        let outcome = run_recoverable_with_sink(&spec(), &opts(1), &rec, &sink).unwrap();
        assert!(matches!(outcome, RunOutcome::Interrupted { .. }));
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        text
    })
}

/// The uninterrupted run's artifact.
fn golden() -> &'static str {
    static GOLDEN: OnceLock<String> = OnceLock::new();
    GOLDEN.get_or_init(|| to_json(&eproc_engine::run(&spec(), &opts(2)).unwrap()))
}

/// Rewrites every `"<key>": [k, count, state, levels...]` sketch in
/// `text` to `[k, count, state]`: the same count, but no retained items.
fn strip_sketch_levels(text: &str, key: &str) -> String {
    let needle = format!("\"{key}\": [");
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find(&needle) {
        let open = at + needle.len() - 1;
        out.push_str(&rest[..open]);
        let mut depth = 0usize;
        let mut close = open;
        for (i, b) in rest.bytes().enumerate().skip(open) {
            match b {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                close = i;
                break;
            }
        }
        let head: Vec<&str> = rest[open + 1..close].splitn(4, ", ").take(3).collect();
        out.push_str(&format!("[{}]", head.join(", ")));
        rest = &rest[close + 1..];
    }
    out.push_str(rest);
    out
}

/// Shard `index` of a 2-way split of [`spec`].
fn shard(index: usize) -> &'static RunCheckpoint {
    static SHARDS: OnceLock<[RunCheckpoint; 2]> = OnceLock::new();
    &SHARDS.get_or_init(|| {
        [0, 1].map(|index| run_shard(&spec(), &opts(2), ShardSpec { index, count: 2 }).unwrap())
    })[index]
}

#[test]
fn the_base_checkpoint_is_version_6_and_resumes_to_the_golden_artifact() {
    let text = checkpoint_text();
    common::json::validate(text).expect("checkpoint is strict JSON");
    assert!(text.contains("\"version\": 6"), "{text}");
    let ckpt = RunCheckpoint::from_json(text).unwrap();
    assert!(ckpt.completed_blocks() >= 4 && ckpt.completed_blocks() < ckpt.total_blocks());
    let rec = RecoveryOptions {
        resume: Some(ckpt),
        ..RecoveryOptions::default()
    };
    match run_recoverable(&spec(), &opts(4), &rec).unwrap() {
        RunOutcome::Completed(report) => assert_eq!(to_json(&report), golden()),
        RunOutcome::Interrupted { .. } => unreachable!("nothing interrupts the resume"),
    }
}

#[test]
fn a_version_2_checkpoint_is_rejected_naming_the_version() {
    let v2 = checkpoint_text().replace("\"version\": 6,", "\"version\": 2,");
    let err = RunCheckpoint::from_json(&v2).unwrap_err().to_string();
    assert!(err.contains("version 2"), "{err}");
}

#[test]
fn a_version_3_checkpoint_and_an_eproc_shard_artifact_are_rejected_by_name() {
    let v3 = checkpoint_text().replace("\"version\": 6,", "\"version\": 3,");
    let err = RunCheckpoint::from_json(&v3).unwrap_err().to_string();
    assert!(err.contains("version 3"), "{err}");
    // The retired shard format: its header fields, under its own name.
    let text = shard(1).to_json();
    let old_shard = text
        .replace("\"eproc-checkpoint\"", "\"eproc-shard\"")
        .replace("\"version\": 6,", "\"version\": 3,");
    let err = RunCheckpoint::from_json(&old_shard)
        .unwrap_err()
        .to_string();
    assert!(err.contains("eproc-shard"), "{err}");
}

/// Version 4 recorded neither the start vertex nor the step cap, so a
/// resume could not tell a run under another `--start` or `--cap` from
/// its own.
#[test]
fn a_version_4_checkpoint_is_rejected_naming_the_version() {
    let v4 = checkpoint_text().replace("\"version\": 6,", "\"version\": 4,");
    let err = RunCheckpoint::from_json(&v4).unwrap_err().to_string();
    assert!(err.contains("version 4"), "{err}");
}

/// Version 5 started every variance split's across-graph minimum and
/// maximum at 0 instead of `±∞`, so its persisted splits fold to a wrong
/// `across.min()`.
#[test]
fn a_version_5_checkpoint_is_rejected_naming_the_version() {
    let v5 = checkpoint_text().replace("\"version\": 6,", "\"version\": 5,");
    let err = RunCheckpoint::from_json(&v5).unwrap_err().to_string();
    assert!(err.contains("version 5"), "{err}");
}

/// A checkpoint whose folded prefix was edited down would resume those
/// blocks a second time on top of cells that already hold them, and
/// report more completed trials than trials.
#[test]
fn a_checkpoint_whose_folded_prefix_was_edited_down_is_rejected() {
    let text = checkpoint_text();
    let at = text.find("\"folded\": ").unwrap() + "\"folded\": ".len();
    let digits = text[at..].find(',').unwrap();
    let folded: usize = text[at..at + digits].parse().unwrap();
    assert!(folded >= 2, "{folded} blocks folded");
    for edited in [folded - 1, 0] {
        let forged = format!("{}{edited}{}", &text[..at], &text[at + digits..]);
        let err = RunCheckpoint::from_json(&forged).unwrap_err().to_string();
        assert!(err.contains("cell 0"), "folded {edited}: {err}");
    }
}

/// A family the prefix has not reached must hold the empty cell a fresh
/// fold starts from, down to its sketches' coin streams: a resume folds
/// on top of it, so a forged coin state would silently move every
/// quantile of the resumed report.
#[test]
fn an_unfolded_familys_cell_must_be_the_empty_cell() {
    let text = checkpoint_text();
    // Family 1's first cell: the third line of the cell list.
    let cells = text.find("\"cells\": [").unwrap();
    let line = cells + text[cells..].match_indices("\n    {").nth(2).unwrap().0;
    let key = "\"steps_sketch\": [200, 0, ";
    let at = line + text[line..].find(key).unwrap() + key.len();
    let digits = text[at..].find(',').unwrap();
    let state: u64 = text[at..at + digits].parse().unwrap();
    let forged = format!("{}{}{}", &text[..at], state ^ 1, &text[at + digits..]);
    let err = RunCheckpoint::from_json(&forged).unwrap_err().to_string();
    assert!(err.contains("cell 2") && err.contains("not empty"), "{err}");
}

#[test]
fn a_shard_cannot_rewrite_another_shards_family_size() {
    // One family of two groups: shard 0 owns block 0, the family's
    // group-0 block, and with it the family's (n, m); shard 1 owns block 1.
    let spec = ExperimentSpec {
        graphs: vec![GraphSpec::Regular { n: 64, d: 3 }],
        processes: vec![ProcessSpec::Srw],
        trials: 4,
        metrics: vec![],
        ..spec()
    };
    let [s0, s1] = [0, 1].map(|index| {
        run_shard(&spec, &opts(1), ShardSpec { index, count: 2 })
            .unwrap()
            .to_json()
    });
    assert!(s0.contains("\"rep_dims\": [[0, 64, 96]],"), "{s0}");
    assert!(s1.contains("\"rep_dims\": [],"), "{s1}");
    let forged = s1.replace("\"rep_dims\": [],", "\"rep_dims\": [[0, 999, 999]],");
    let err = RunCheckpoint::from_json(&forged).unwrap_err().to_string();
    assert!(
        err.contains("family 0") && err.contains("does not hold"),
        "{err}"
    );
    let repeated = s0.replace(
        "\"rep_dims\": [[0, 64, 96]],",
        "\"rep_dims\": [[0, 64, 96], [0, 999, 999]],",
    );
    let err = RunCheckpoint::from_json(&repeated).unwrap_err().to_string();
    assert!(err.contains("family 0 twice"), "{err}");
    // The honest pair still merges to the family's real size.
    let merged = merge_shards(&[
        RunCheckpoint::from_json(&s0).unwrap(),
        RunCheckpoint::from_json(&s1).unwrap(),
    ])
    .unwrap();
    assert_eq!((merged.cells[0].n, merged.cells[0].m), (64, 96));
}

#[test]
fn a_checkpoint_sketch_whose_count_exceeds_its_items_is_rejected() {
    // The crafted file that once loaded, resumed, and then panicked in
    // `QuantileSketch::quantile` while the report rendered.
    let text = checkpoint_text();
    let crafted = strip_sketch_levels(text, "steps_sketch");
    assert_ne!(crafted, text);
    let err = RunCheckpoint::from_json(&crafted).unwrap_err().to_string();
    assert!(err.contains("disagrees"), "{err}");
}

#[test]
fn a_shard_sketch_whose_count_exceeds_its_items_is_rejected() {
    let shard = run_shard(&spec(), &opts(2), ShardSpec { index: 1, count: 2 }).unwrap();
    let text = shard.to_json();
    assert!(RunCheckpoint::from_json(&text).is_ok());
    let crafted = strip_sketch_levels(&text, "steps_sketch");
    assert!(crafted.contains("\"steps_sketch\": [200, 2, "), "{crafted}");
    let err = RunCheckpoint::from_json(&crafted).unwrap_err().to_string();
    assert!(err.contains("disagrees"), "{err}");
}

/// Applies mutation `kind` at relative position `at` of `bytes`:
/// truncate there, flip that byte with `mask`, or swap a digit there for
/// another digit (the mutation most likely to survive parsing).
fn mutate(bytes: &[u8], kind: usize, at: f64, mask: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
    match kind {
        0 => out.truncate(i),
        1 => out[i] ^= mask.max(1),
        _ => {
            if let Some(j) = (i..out.len()).find(|&j| out[j].is_ascii_digit()) {
                out[j] = b'0' + (out[j] - b'0' + 1 + mask % 9) % 10;
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A damaged checkpoint either fails to load with a
    /// `CheckpointError`, or loads and then resumes to a report (that
    /// renders) or a `RecoveryError` — never a panic anywhere.
    #[test]
    fn damaged_checkpoints_give_typed_errors_never_panics(
        kind in 0usize..3,
        at in 0.0f64..1.0,
        mask in 0u8..255,
    ) {
        let damaged = mutate(checkpoint_text().as_bytes(), kind, at, mask);
        let Ok(text) = std::str::from_utf8(&damaged) else {
            // `RunCheckpoint::load` reports invalid UTF-8 as a
            // `CheckpointError` before parsing.
            return Ok(());
        };
        let parsed = catch_unwind(|| RunCheckpoint::from_json(text));
        prop_assert!(parsed.is_ok(), "from_json panicked");
        let Ok(ckpt) = parsed.unwrap() else {
            return Ok(());
        };
        let resumed = catch_unwind(AssertUnwindSafe(|| {
            let rec = RecoveryOptions {
                resume: Some(ckpt),
                ..RecoveryOptions::default()
            };
            match run_recoverable(&spec(), &opts(2), &rec) {
                Ok(RunOutcome::Completed(report)) => {
                    let _ = to_text_table(&report).to_string();
                    Some(to_json(&report))
                }
                Ok(RunOutcome::Interrupted { .. }) | Err(_) => None,
            }
        }));
        prop_assert!(resumed.is_ok(), "resume or render panicked");
        if let Some(artifact) = resumed.unwrap() {
            prop_assert!(common::json::validate(&artifact).is_ok());
        }
    }

    /// A damaged shard checkpoint either fails to load with a
    /// `CheckpointError`, or loads and then merges with its sibling to a
    /// report (that renders) or a `CheckpointError` — never a panic
    /// anywhere.
    #[test]
    fn damaged_shard_artifacts_give_typed_errors_never_panics(
        kind in 0usize..3,
        at in 0.0f64..1.0,
        mask in 0u8..255,
    ) {
        let damaged = mutate(shard(1).to_json().as_bytes(), kind, at, mask);
        let Ok(text) = std::str::from_utf8(&damaged) else {
            // `RunCheckpoint::load` reports invalid UTF-8 as a
            // `CheckpointError` before parsing.
            return Ok(());
        };
        let parsed = catch_unwind(|| RunCheckpoint::from_json(text));
        prop_assert!(parsed.is_ok(), "from_json panicked");
        let Ok(damaged) = parsed.unwrap() else {
            return Ok(());
        };
        let merged = catch_unwind(AssertUnwindSafe(|| {
            match merge_shards(&[shard(0).clone(), damaged]) {
                Ok(report) => {
                    let _ = to_text_table(&report).to_string();
                    Some(to_json(&report))
                }
                Err(_) => None,
            }
        }));
        prop_assert!(merged.is_ok(), "merge or render panicked");
        if let Some(artifact) = merged.unwrap() {
            prop_assert!(common::json::validate(&artifact).is_ok());
        }
    }
}
