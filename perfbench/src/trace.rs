//! The traced run's span recorder.
//!
//! Spans are `{name, start, end, parent}` records kept in memory and
//! written once when the run ends. The harness opens a span around every
//! call it makes into a layer; [`SpanSink`] adds one span per executor
//! block (from the engine's `block_claimed` / `block_completed` events)
//! and per checkpoint write, parented on the engine call that ran them.

use eproc_telemetry::{Event, EventKind, SummarySink, Tee, TelemetrySink};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Executor worker that ran the span (block spans only).
    pub worker: Option<usize>,
}

/// In-memory span store shared by the harness and the engine's worker
/// threads (through [`SpanSink`]).
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        worker: Option<usize>,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            worker,
        });
        spans.len() - 1
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(&self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.record(name, now, now, parent, None)
    }

    /// Ends span `id` now and returns its duration in seconds.
    pub fn close(&self, id: usize) -> f64 {
        let now = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        let span = &mut spans[id];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 * 1e-9
    }

    pub fn start_of(&self, id: usize) -> u64 {
        self.spans.lock().expect("span store poisoned")[id].start_ns
    }

    /// Writes every span as one JSON document: `{"env": ..., "spans": [...]}`.
    pub fn write_json(&self, path: &Path, env_json: &str) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = String::new();
        let _ = write!(out, "{{\"env\": {env_json},\n\"spans\": [\n");
        for (id, s) in spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"worker\": {}}}{}",
                crate::sys::json_str(&s.name),
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.worker),
                if id + 1 < spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Turns one engine call's block and checkpoint events into spans.
pub struct SpanSink<'t> {
    tracer: &'t Tracer,
    parent: usize,
    claimed: Mutex<HashMap<usize, u64>>,
    /// `(worker, start_ns, end_ns)` of every completed block.
    blocks: Mutex<Vec<(usize, u64, u64)>>,
    /// `(writes, bytes, ns)` summed over `checkpoint_written` events.
    checkpoints: Mutex<(u64, u64, u64)>,
}

impl TelemetrySink for SpanSink<'_> {
    fn emit(&self, event: &Event) {
        let now = self.tracer.now_ns();
        match &event.kind {
            EventKind::BlockClaimed { block, .. } => {
                self.claimed
                    .lock()
                    .expect("block table poisoned")
                    .insert(*block, now);
            }
            EventKind::BlockCompleted { block, worker, .. } => {
                let start = self
                    .claimed
                    .lock()
                    .expect("block table poisoned")
                    .remove(block)
                    .unwrap_or(now);
                self.tracer.record(
                    "executor.block",
                    start,
                    now,
                    Some(self.parent),
                    Some(*worker),
                );
                self.blocks
                    .lock()
                    .expect("block list poisoned")
                    .push((*worker, start, now));
            }
            EventKind::CheckpointWritten {
                bytes,
                checkpoint_ns,
                ..
            } => {
                let start = now.saturating_sub(*checkpoint_ns);
                self.tracer
                    .record("checkpoint.write", start, now, Some(self.parent), None);
                let mut c = self.checkpoints.lock().expect("checkpoint tally poisoned");
                c.0 += 1;
                c.1 += bytes;
                c.2 += checkpoint_ns;
            }
            _ => {}
        }
    }
}

/// The telemetry attached to one traced engine call: the engine's own
/// [`SummarySink`] tee'd with a [`SpanSink`].
pub struct EngineTrace<'t> {
    summary: SummarySink,
    spans: SpanSink<'t>,
}

/// What one traced engine call's telemetry adds up to.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    pub generation_s: f64,
    pub walking_s: f64,
    pub aggregation_s: f64,
    pub blocks: u64,
    pub block_ms: Vec<f64>,
    pub worker_util_min: f64,
    pub worker_util_mean: f64,
    pub idle_tail_s: f64,
    pub total_steps: u64,
    pub checkpoint_writes: u64,
    pub checkpoint_bytes: u64,
    pub checkpoint_s: f64,
}

impl<'t> EngineTrace<'t> {
    /// Telemetry for an engine call running inside span `parent`.
    pub fn new(tracer: &'t Tracer, parent: usize) -> EngineTrace<'t> {
        EngineTrace {
            summary: SummarySink::new(),
            spans: SpanSink {
                tracer,
                parent,
                claimed: Mutex::new(HashMap::new()),
                blocks: Mutex::new(Vec::new()),
                checkpoints: Mutex::new((0, 0, 0)),
            },
        }
    }

    pub fn sink(&self) -> Tee<'_> {
        Tee::new(vec![&self.summary, &self.spans])
    }

    pub fn finish(self) -> ExecStats {
        let s = self.summary.summary();
        let blocks = self.spans.blocks.into_inner().expect("block list poisoned");
        let (writes, bytes, ckpt_ns) = self
            .spans
            .checkpoints
            .into_inner()
            .expect("checkpoint tally poisoned");
        let wall = s.wall_ns.max(1) as f64;
        let util: Vec<f64> = (0..s.workers.max(1))
            .map(|w| {
                let busy = s
                    .per_worker
                    .iter()
                    .find(|p| p.worker == w)
                    .map_or(0, |p| p.busy_ns);
                busy as f64 / wall
            })
            .collect();
        // A worker goes idle for good after its last block; the tail is
        // how long the first idle worker waits for the last busy one.
        let call_start = self.spans.tracer.start_of(self.spans.parent);
        let last_end: Vec<u64> = (0..s.workers.max(1))
            .map(|w| {
                blocks
                    .iter()
                    .filter(|b| b.0 == w)
                    .map(|b| b.2)
                    .max()
                    .unwrap_or(call_start)
            })
            .collect();
        let idle_tail_ns =
            last_end.iter().max().unwrap_or(&0) - last_end.iter().min().unwrap_or(&0);
        ExecStats {
            generation_s: s.generation_ns as f64 * 1e-9,
            walking_s: s.walking_ns as f64 * 1e-9,
            aggregation_s: s.aggregation_ns as f64 * 1e-9,
            blocks: s.blocks_completed,
            block_ms: blocks.iter().map(|b| (b.2 - b.1) as f64 * 1e-6).collect(),
            worker_util_min: util.iter().cloned().fold(f64::INFINITY, f64::min),
            worker_util_mean: util.iter().sum::<f64>() / util.len() as f64,
            idle_tail_s: idle_tail_ns as f64 * 1e-9,
            total_steps: s.total_steps,
            checkpoint_writes: writes,
            checkpoint_bytes: bytes,
            checkpoint_s: ckpt_ns as f64 * 1e-9,
        }
    }
}
