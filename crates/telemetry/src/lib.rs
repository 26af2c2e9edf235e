//! Structured run telemetry for the `eproc` engine.
//!
//! The executor runs million-trial ensembles as pure functions of their
//! spec — which makes the *artifacts* perfectly reproducible but the
//! *runs* opaque: without instrumentation there is no way to see where
//! wall time goes (graph generation vs walking vs aggregation), whether
//! the work-stealing pool is balanced, or how far a long sweep has
//! progressed. This crate is the event-emission spine that fixes that,
//! designed so observation can never perturb the deterministic artifact
//! path:
//!
//! * [`Event`] / [`EventKind`] — the structured run events an executor
//!   emits: run started, per-graph builds, block claimed/completed
//!   (family, group, worker, trial count, walk steps, generation time
//!   and generator attempts), aggregation merged, shards merged,
//!   checkpoint written, run interrupted, run finished. Every event
//!   serialises to one strict RFC-8259 JSON line ([`Event::to_jsonl`]).
//! * [`TelemetrySink`] — the consumer trait. The default [`NullSink`]
//!   reports itself disabled, so an instrumented hot loop checks one
//!   boolean and skips event construction entirely; uninstrumented runs
//!   pay nothing. [`Tee`] fans one event stream out to several sinks.
//! * [`Stopwatch`] — the monotonic span/stage timer events are stamped
//!   with.
//! * [`Counters`] — per-worker/global atomic tallies shared by the
//!   built-in sinks.
//! * [`ProgressSink`] — a live terminal renderer (blocks done/total,
//!   trials/sec, steps/sec, ETA) writing to stderr.
//! * [`JsonlSink`] — an append-only JSONL event-log writer.
//! * [`SummarySink`] / [`TelemetrySummary`] — a post-run roll-up:
//!   wall-time breakdown by stage (including checkpoint I/O), per-worker
//!   utilization and block counts, and total trials and steps — written
//!   as the `<artifact>.telemetry.json` sidecar.
//! * [`write_atomic`] — the crash-safe write-temp-then-rename helper
//!   every persisted artifact in the workspace goes through, so an
//!   interrupted process never leaves a truncated file behind.
//! * [`json_escape`] / [`json_num`] — the string and number encoders
//!   every hand-written JSON emitter in the workspace shares.
//!
//! The crate is intentionally dependency-free (std only) and knows
//! nothing about graphs or walks: events carry plain labels and
//! integers, so any executor-shaped producer can emit them and any
//! future consumer (the planned `eproc serve` progress stream) can
//! subscribe by implementing [`TelemetrySink`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod event;
mod fsio;
mod jsonl;
mod progress;
mod sink;
mod summary;
mod timer;

pub use counters::{Counters, CountersSnapshot};
pub use event::{json_escape, json_num, Event, EventKind, ShardId};
pub use fsio::write_atomic;
pub use jsonl::JsonlSink;
pub use progress::ProgressSink;
pub use sink::{NullSink, Tee, TelemetrySink};
pub use summary::{SummarySink, TelemetrySummary, WorkerSummary};
pub use timer::Stopwatch;
