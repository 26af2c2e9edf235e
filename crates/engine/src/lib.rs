//! Parallel ensemble-simulation engine for the `eproc` workspace.
//!
//! The paper's claims — Theorem 1's `Θ(n)` cover time, the §5 star census,
//! the Theorem 5 lower bound — are statements about **ensembles** of runs
//! over (graph × process × seed) grids. This crate provides one shared
//! execution subsystem for all of them; every experiment binary in
//! `eproc-bench` that walks a graph does so through it, except two whose
//! quantity has no spec (`table_cages`, `table_lemma13`):
//!
//! * [`spec`] — declarative experiment descriptions: a [`spec::GraphSpec`]
//!   grid (random regular, LPS Ramanujan, geometric, hypercube, torus, …),
//!   a [`spec::ProcessSpec`] grid (E-process rules, SRW variants,
//!   rotor-router, RWC(d), locally fair walks), trial counts, a
//!   [`spec::Target`] (vertex/edge cover or blanket time), and any number
//!   of extra [`spec::MetricSpec`]s;
//! * [`executor`] — one driver and one work-stealing worker pool (scoped
//!   threads claiming tasks — a *(family, group)* block's processes —
//!   off a shared atomic) behind
//!   every run — plain, sharded, checkpointed or resumed — with
//!   deterministic per-trial seeding derived from
//!   [`eproc_stats::SeedSequence`], so aggregate results are
//!   **bit-identical regardless of thread count**;
//! * [`report`] — streaming aggregation into [`eproc_stats::OnlineStats`]
//!   summaries and mergeable [`eproc_stats::QuantileSketch`]es (p50/p90/p99
//!   columns by default, `--quantiles` to choose others) with plain-text
//!   table, CSV and JSON emitters, including dynamic per-metric columns;
//! * [`builtin`] — named specs reproducing the paper's headline tables
//!   (`comparison`, `theorem1`, `rules`, `phases`, …), consumed by both
//!   the `eproc` CLI binary (`eproc run <name> --csv P` prints and saves
//!   a builtin's table) and the `table_*` binaries in `eproc-bench` that
//!   add their own columns to it.
//!
//! # Metrics & observers
//!
//! Every quantity the paper reports is a function of the same step
//! stream, so a trial wanting several metrics should not re-walk the
//! graph once per metric. A spec's `metrics` field attaches extra
//! [`eproc_core::observe::Observer`]s — cover times, blanket time, phase
//! structure, the §5 blue star census, hitting times — to the **same**
//! walk as the stopping target; the executor runs each
//! (graph × process × seed) trial exactly once and the trial continues
//! until the target *and* every metric have resolved (or the cap). On
//! the CLI this is `eproc run blanket --metrics cover,blanket:0.5,phases`.
//!
//! # Ensembles over graphs
//!
//! A [`spec::ResamplePlan`] (CLI `--resample [W]`, or a `~` marker in
//! the graph syntax: `regular:~1000,4`) switches a randomized family
//! from one shared sample to a fresh graph per group of `W` trials,
//! generated inside the worker pool from `(family, group)`-keyed seeds.
//! The report then decomposes every column's variance into pooled,
//! across-graph and within-graph components
//! ([`executor::VarianceSplit`]) — the shape of the paper's
//! whp-over-the-random-graph statements. The `cubicensemble` and
//! `odddegree` builtins replicate the related-work ensemble scenarios.
//!
//! # Scaling laws
//!
//! The paper's headline claim is a *growth rate* — `Θ(m)` cover time on
//! even-degree high-girth expanders versus `Θ(n log n)` for the SRW. The
//! [`scaling`] module turns a size-sweep report (one cell per size,
//! expanded from the `{start..end,step}` sweep grammar) into
//! per-(process × series) growth-law fits:
//! [`eproc_stats::scaling`] fits `c·m`, `a+b·m` and `c·n ln n` and
//! selects by residual score, and [`report::scaling_table`] /
//! [`report::to_json_with_scaling`] render the verdict. Sweep cells run
//! through the resample executor's *(family, group)* blocks with
//! streamed per-block statistics, so large sweep points never
//! materialise per-trial vectors. On the CLI this is `eproc scale
//! scaling-even` (the paper's linear claim) and `eproc scale
//! scaling-srw` (the `n log n` contrast).
//!
//! # Observability
//!
//! [`executor::run_with_sink`] is [`executor::run`] plus telemetry: it
//! emits structured [`eproc_telemetry::Event`]s (`run_started`,
//! `graph_built`, `block_claimed`/`block_completed`,
//! `aggregation_merged`, `run_finished`) to any
//! [`eproc_telemetry::TelemetrySink`] as the run progresses. Telemetry
//! is a **pure observer**: events carry labels and integers measured
//! around the deterministic work, never feed back into it, so the
//! report stays byte-identical with any sink — or none
//! ([`eproc_telemetry::NullSink`], the disabled default `run` uses,
//! skips event construction and clock reads entirely). The `eproc` CLI
//! wires the stock sinks: `--progress` (live stderr status),
//! `--telemetry PATH` (strict-JSONL event log) and the
//! `<artifact>.telemetry.json` sidecar
//! ([`eproc_telemetry::SummarySink`]'s per-stage wall-time and
//! per-worker utilization roll-up).
//!
//! # Sharded execution
//!
//! A run's *(family, group)* blocks are independent — shared-graph and
//! resampled alike — so the [`shard`] module can partition them across
//! machines: `eproc run … --shard i/k` ([`shard::run_shard`]) executes
//! only the blocks whose canonical index is `≡ i (mod k)` and writes
//! its final fold state as a [`checkpoint::RunCheckpoint`] — the same
//! bit-exact format `--checkpoint` writes; `eproc merge`
//! ([`shard::merge_shards`]) folds checkpoints that hold every block
//! exactly once — parallel Welford merges in canonical block order,
//! through the executor's own aggregation code — into a report
//! **byte-identical** to the unsharded run's. Inside each block the
//! trials run one after another through
//! [`eproc_core::observe::run_observed`]: with the E-process step state
//! compacted to one dependent miss per step, the sequential loop beats
//! the lockstep [`eproc_core::interleave::run_observed_interleaved`]
//! driver — the benchmark in `perfbench/` times two lanes against one
//! as `core.eprocess_w2.ns_per_step.n256k` — so the executor does not
//! interleave.
//!
//! # Canonical specs and the artifact cache
//!
//! Every spelling of an experiment — a builtin name, expanded
//! `--graph`/`--process` flags, a shuffled grid — reduces to one
//! normal form: [`spec::ExperimentSpec::canonicalize`] sorts the
//! grids, materializes defaults, and derives the spec's name from its
//! content, so `parse(to_cli(canonicalize(s)))` is a fixed point
//! (property-tested). A [`digest::SpecDigest`] hashes the canonical
//! `to_cli()` line together with the base seed, quantile selection,
//! artifact kind and a format version — everything the artifact bytes
//! depend on and nothing they don't (thread count, sharding and
//! telemetry are all byte-invariant by construction). The [`cache`]
//! module keys a content-addressed artifact store by that digest; the
//! CLI's `--cache DIR` / `EPROC_CACHE` serves cache hits byte-identical
//! to the run that populated them. The [`cli`] module is the shared
//! flag-table parser behind the `eproc` binary's subcommands, the
//! canonical spec-line grammar and the `eproc-bench` experiment
//! binaries' flags.
//!
//! # Fault tolerance
//!
//! [`recovery::run_recoverable`] makes any run crash-safe, on shared
//! graphs or resampled.
//! Completed *(family, group)* blocks fold into the run's cell
//! accumulators as they arrive, and an atomically-written checkpoint
//! ([`checkpoint::RunCheckpoint`], format `eproc-checkpoint` v6, the
//! engine's one persisted partial run) holds that folded state plus the
//! few blocks waiting for it — its size does not grow with the block
//! count; SIGINT/SIGTERM
//! (via the `eproc-signal` latch), a caller-owned cancellation flag, or
//! a `--max-wall` deadline interrupt the run *gracefully* — in-flight
//! blocks drain, a final checkpoint lands, and the CLI exits with the
//! distinct "interrupted, resumable" code 75. `--resume` validates the
//! checkpoint — a shard's included — against the spec, runs only the
//! missing blocks, and produces a report **byte-identical to an
//! uninterrupted run at any thread count**. Each block runs under
//! `catch_unwind` ([`executor::BlockError`]): a panicking worker is
//! reported — naming family, group and worker — without poisoning the
//! pool, and the failed run checkpoints its completed blocks so
//! `--resume` can finish it. A deterministic [`fault::FaultPlan`]
//! harness (`--inject-faults`; off by default at zero cost) drives the
//! proptests that pin all of these guarantees.
//!
//! # Example
//!
//! ```
//! use eproc_engine::executor::{run, RunOptions};
//! use eproc_engine::spec::{
//!     CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, RuleSpec, Target,
//! };
//!
//! let spec = ExperimentSpec {
//!     name: "demo".into(),
//!     description: "E-process vs SRW on a small torus".into(),
//!     graphs: vec![GraphSpec::Torus { w: 8, h: 8 }],
//!     processes: vec![
//!         ProcessSpec::EProcess { rule: RuleSpec::Uniform },
//!         ProcessSpec::Srw,
//!     ],
//!     trials: 4,
//!     target: Target::VertexCover,
//!     // One walk per trial also measures edge cover and phase structure.
//!     metrics: vec![MetricSpec::Cover, MetricSpec::Phases],
//!     start: 0,
//!     cap: CapSpec::Auto,
//!     resample: None,
//! };
//! let report = run(&spec, &RunOptions { threads: 2, base_seed: 7 }).unwrap();
//! assert_eq!(report.cells.len(), 2);
//! assert!(report.cells.iter().all(|c| c.completed == 4));
//! assert_eq!(report.cells[0].metrics.len(), 6); // c_v, c_e + 4 phase columns
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builtin;
pub mod cache;
pub mod checkpoint;
pub mod cli;
pub mod digest;
pub mod executor;
pub mod fault;
mod persist;
pub mod recovery;
pub mod report;
pub mod scaling;
pub mod shard;
pub mod spec;

pub use cache::{CacheEntry, CacheStore, CACHE_ENV};
pub use checkpoint::{CheckpointError, RunCheckpoint};
pub use digest::{spec_digest, ArtifactKind, SpecDigest};
pub use executor::{run, run_with_sink, BlockError, ExperimentReport, RunOptions};
pub use fault::{FaultKind, FaultPlan};
pub use recovery::{
    run_recoverable, run_recoverable_with_sink, CheckpointPlan, RecoveryError, RecoveryOptions,
    RunOutcome,
};
pub use scaling::{analyze, ScalingError, ScalingReport, SeriesFit};
pub use shard::{merge_shards, run_shard, run_shard_with_sink, ShardSpec};
pub use spec::{
    CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, ResamplePlan, RuleSpec, Scale,
    SweepRange, SweepStep, Target,
};
