//! Post-run roll-up: stage wall-time breakdown and per-worker
//! utilization, serialised as the `<artifact>.telemetry.json` sidecar.

use crate::counters::Counters;
use crate::event::{json_escape, json_num, Event, EventKind};
use crate::sink::TelemetrySink;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A [`TelemetrySink`] that folds the event stream into a
/// [`TelemetrySummary`]: total trials/steps/blocks, cumulative stage
/// times (generation, walking, aggregation) and a per-worker breakdown.
/// Take the roll-up with [`SummarySink::summary`] once the run finished.
#[derive(Debug, Default)]
pub struct SummarySink {
    totals: Counters,
    meta: Mutex<Meta>,
    per_worker: Mutex<BTreeMap<usize, WorkerTally>>,
    agg_ns: AtomicU64,
    merge_ns: AtomicU64,
    checkpoint_ns: AtomicU64,
    wall_ns: AtomicU64,
}

#[derive(Debug, Default)]
struct Meta {
    run: String,
    workers: usize,
    resampled: bool,
    blocks_total: usize,
    cells: usize,
}

#[derive(Debug, Default, Clone, Copy)]
struct WorkerTally {
    blocks: u64,
    trials: u64,
    steps: u64,
    busy_ns: u64,
}

impl SummarySink {
    /// A fresh collector.
    pub fn new() -> SummarySink {
        SummarySink::default()
    }

    /// The roll-up of everything seen so far (complete once
    /// `run_finished` has been emitted).
    pub fn summary(&self) -> TelemetrySummary {
        let totals = self.totals.snapshot();
        let meta = self.meta.lock().expect("summary mutex poisoned");
        let per_worker = self
            .per_worker
            .lock()
            .expect("summary mutex poisoned")
            .iter()
            .map(|(&worker, t)| WorkerSummary {
                worker,
                blocks: t.blocks,
                trials: t.trials,
                steps: t.steps,
                busy_ns: t.busy_ns,
            })
            .collect();
        TelemetrySummary {
            run: meta.run.clone(),
            workers: meta.workers,
            resampled: meta.resampled,
            blocks_total: meta.blocks_total,
            blocks_completed: totals.blocks,
            cells: meta.cells,
            total_trials: totals.trials,
            total_steps: totals.steps,
            gen_attempts: totals.gen_attempts,
            wall_ns: self.wall_ns.load(Ordering::Relaxed),
            generation_ns: totals.gen_ns,
            walking_ns: totals.walk_ns,
            aggregation_ns: self.agg_ns.load(Ordering::Relaxed),
            merge_ns: self.merge_ns.load(Ordering::Relaxed),
            checkpoint_ns: self.checkpoint_ns.load(Ordering::Relaxed),
            per_worker,
        }
    }
}

impl TelemetrySink for SummarySink {
    fn emit(&self, event: &Event) {
        match &event.kind {
            EventKind::RunStarted {
                name,
                blocks,
                workers,
                resampled,
                ..
            } => {
                let mut meta = self.meta.lock().expect("summary mutex poisoned");
                meta.run = name.clone();
                meta.workers = *workers;
                meta.resampled = *resampled;
                meta.blocks_total = *blocks;
            }
            EventKind::GraphBuilt {
                gen_ns,
                gen_attempts,
                ..
            } => {
                // Up-front shared-mode builds: stage time without a
                // worker (they happen before the pool starts).
                self.totals.gen_ns.fetch_add(*gen_ns, Ordering::Relaxed);
                self.totals
                    .gen_attempts
                    .fetch_add(*gen_attempts, Ordering::Relaxed);
            }
            EventKind::BlockCompleted {
                worker,
                trials,
                steps,
                gen_ns,
                gen_attempts,
                walk_ns,
                ..
            } => {
                self.totals
                    .record_block(*trials, *steps, *gen_ns, *walk_ns, *gen_attempts);
                let mut map = self.per_worker.lock().expect("summary mutex poisoned");
                let t = map.entry(*worker).or_default();
                t.blocks += 1;
                t.trials += *trials;
                t.steps += *steps;
                t.busy_ns += *gen_ns + *walk_ns;
            }
            EventKind::AggregationMerged { cells, agg_ns, .. } => {
                self.agg_ns.store(*agg_ns, Ordering::Relaxed);
                self.meta.lock().expect("summary mutex poisoned").cells = *cells;
            }
            EventKind::MergeCompleted {
                cells, merge_ns, ..
            } => {
                self.merge_ns.store(*merge_ns, Ordering::Relaxed);
                self.meta.lock().expect("summary mutex poisoned").cells = *cells;
            }
            EventKind::RunFinished { wall_ns, .. } => {
                self.wall_ns.store(*wall_ns, Ordering::Relaxed);
            }
            EventKind::CheckpointWritten { checkpoint_ns, .. } => {
                // Cumulative: a run may checkpoint many times.
                self.checkpoint_ns
                    .fetch_add(*checkpoint_ns, Ordering::Relaxed);
            }
            EventKind::BlockClaimed { .. } | EventKind::RunInterrupted { .. } => {}
        }
    }
}

/// One worker's share of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Worker id (the executor's spawn index).
    pub worker: usize,
    /// Work units (`block_completed` tasks) this worker completed.
    pub blocks: u64,
    /// Trials this worker ran.
    pub trials: u64,
    /// Walk steps this worker simulated.
    pub steps: u64,
    /// Nanoseconds spent generating + walking (its measured busy time).
    pub busy_ns: u64,
}

/// The post-run roll-up serialised into the `.telemetry.json` sidecar.
///
/// Stage times are **cumulative across workers** (CPU time, not wall
/// slices), so `generation_ns + walking_ns` can legitimately exceed
/// `wall_ns` on a multi-threaded run; per-worker utilization is
/// `busy_ns / wall_ns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Experiment name.
    pub run: String,
    /// Worker threads the pool ran.
    pub workers: usize,
    /// Whether graphs were resampled per trial group.
    pub resampled: bool,
    /// Work units announced at run start.
    pub blocks_total: usize,
    /// Work units actually completed.
    pub blocks_completed: u64,
    /// Report cells produced by aggregation.
    pub cells: usize,
    /// Total trials executed.
    pub total_trials: u64,
    /// Total walk steps simulated.
    pub total_steps: u64,
    /// Generator attempts consumed across all graph builds.
    pub gen_attempts: u64,
    /// Total wall time.
    pub wall_ns: u64,
    /// Cumulative nanoseconds generating graphs (all workers).
    pub generation_ns: u64,
    /// Cumulative nanoseconds walking (all workers).
    pub walking_ns: u64,
    /// Nanoseconds merging blocks into cells (main thread).
    pub aggregation_ns: u64,
    /// Nanoseconds combining shard artifacts (`eproc merge`; 0 unless
    /// the run was a merge).
    pub merge_ns: u64,
    /// Cumulative nanoseconds serialising and writing run checkpoints
    /// (`--checkpoint`; 0 for uncheckpointed runs).
    pub checkpoint_ns: u64,
    /// Per-worker breakdown, sorted by worker id.
    pub per_worker: Vec<WorkerSummary>,
}

impl TelemetrySummary {
    /// Serialises the summary as strict JSON (stable key order; ratios
    /// that cannot be computed — e.g. a zero-length run — serialise as
    /// `null`, never `inf`/`NaN`).
    pub fn to_json(&self) -> String {
        let wall_secs = self.wall_ns as f64 / 1e9;
        let rate = |count: u64| -> String {
            if wall_secs > 0.0 {
                json_num(count as f64 / wall_secs)
            } else {
                "null".into()
            }
        };
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"run\": \"{}\",", json_escape(&self.run));
        let _ = writeln!(out, "  \"workers\": {},", self.workers);
        let _ = writeln!(out, "  \"resampled\": {},", self.resampled);
        let _ = writeln!(out, "  \"blocks_total\": {},", self.blocks_total);
        let _ = writeln!(out, "  \"blocks_completed\": {},", self.blocks_completed);
        let _ = writeln!(out, "  \"cells\": {},", self.cells);
        let _ = writeln!(out, "  \"total_trials\": {},", self.total_trials);
        let _ = writeln!(out, "  \"total_steps\": {},", self.total_steps);
        let _ = writeln!(out, "  \"graph_gen_attempts\": {},", self.gen_attempts);
        let _ = writeln!(out, "  \"wall_ns\": {},", self.wall_ns);
        let _ = writeln!(
            out,
            "  \"stages\": {{\"generation_ns\": {}, \"walking_ns\": {}, \"aggregation_ns\": {}, \
             \"merge_ns\": {}, \"checkpoint_ns\": {}}},",
            self.generation_ns,
            self.walking_ns,
            self.aggregation_ns,
            self.merge_ns,
            self.checkpoint_ns
        );
        let _ = writeln!(
            out,
            "  \"throughput\": {{\"trials_per_sec\": {}, \"steps_per_sec\": {}}},",
            rate(self.total_trials),
            rate(self.total_steps)
        );
        out.push_str("  \"per_worker\": [");
        for (i, w) in self.per_worker.iter().enumerate() {
            let utilization = if self.wall_ns > 0 {
                json_num(w.busy_ns as f64 / self.wall_ns as f64)
            } else {
                "null".into()
            };
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"worker\": {}, \"blocks\": {}, \"trials\": {}, \"steps\": {}, \
                 \"busy_ns\": {}, \"utilization\": {}}}",
                w.worker, w.blocks, w.trials, w.steps, w.busy_ns, utilization
            );
        }
        out.push_str(if self.per_worker.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        out
    }

    /// Writes the sidecar JSON to `path`, creating parent directories.
    /// The write is atomic (temp sibling + rename, [`crate::write_atomic`]):
    /// a crash mid-write never leaves a truncated sidecar.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        crate::write_atomic(path, &self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(sink: &SummarySink) {
        let events = [
            Event {
                t_ns: 0,
                kind: EventKind::RunStarted {
                    name: "demo".into(),
                    graphs: 1,
                    processes: 2,
                    trials: 3,
                    blocks: 2,
                    total_trials: 6,
                    workers: 2,
                    resampled: true,
                    shard: None,
                },
            },
            Event {
                t_ns: 10,
                kind: EventKind::BlockCompleted {
                    block: 0,
                    family: "f".into(),
                    group: 0,
                    process: None,
                    worker: 0,
                    trials: 3,
                    steps: 300,
                    gen_ns: 40,
                    gen_attempts: 2,
                    walk_ns: 60,
                },
            },
            Event {
                t_ns: 20,
                kind: EventKind::BlockCompleted {
                    block: 1,
                    family: "f".into(),
                    group: 1,
                    process: None,
                    worker: 1,
                    trials: 3,
                    steps: 500,
                    gen_ns: 10,
                    gen_attempts: 1,
                    walk_ns: 80,
                },
            },
            Event {
                t_ns: 30,
                kind: EventKind::AggregationMerged {
                    blocks: 2,
                    cells: 2,
                    agg_ns: 5,
                },
            },
            Event {
                t_ns: 40,
                kind: EventKind::RunFinished {
                    wall_ns: 200,
                    total_trials: 6,
                    total_steps: 800,
                },
            },
        ];
        for e in &events {
            sink.emit(e);
        }
    }

    #[test]
    fn summary_rolls_up_totals_stages_and_workers() {
        let sink = SummarySink::new();
        feed(&sink);
        let s = sink.summary();
        assert_eq!(s.run, "demo");
        assert_eq!(s.blocks_total, 2);
        assert_eq!(s.blocks_completed, 2);
        assert_eq!(s.total_trials, 6);
        assert_eq!(s.total_steps, 800);
        assert_eq!(s.gen_attempts, 3);
        assert_eq!(s.generation_ns, 50);
        assert_eq!(s.walking_ns, 140);
        assert_eq!(s.aggregation_ns, 5);
        assert_eq!(s.wall_ns, 200);
        assert_eq!(s.per_worker.len(), 2);
        assert_eq!(s.per_worker[0].worker, 0);
        assert_eq!(s.per_worker[0].busy_ns, 100);
        assert_eq!(s.per_worker[1].steps, 500);
    }

    #[test]
    fn sidecar_json_is_balanced_and_finite() {
        let sink = SummarySink::new();
        feed(&sink);
        let json = sink.summary().to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
        assert!(json.contains("\"total_steps\": 800"), "{json}");
        assert!(json.contains("\"utilization\": 0.5"), "{json}");
    }

    #[test]
    fn empty_summary_serialises_nulls_not_nan() {
        let json = SummarySink::new().summary().to_json();
        assert!(json.contains("\"trials_per_sec\": null"), "{json}");
        assert!(json.contains("\"per_worker\": []"), "{json}");
        assert!(!json.contains("NaN"), "{json}");
    }
}
