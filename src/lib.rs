//! # eproc — random walks which prefer unvisited edges
//!
//! Facade crate re-exporting the whole workspace: the E-process simulator
//! and baselines ([`core`]), the graph substrate ([`graphs`]), the spectral
//! toolkit ([`spectral`]), the paper's closed-form bounds ([`theory`]),
//! statistics helpers ([`stats`]) and the parallel ensemble-simulation
//! engine ([`engine`]).
//!
//! This reproduces Berenbrink, Cooper, Friedetzky, *"Random walks which
//! prefer unvisited edges: exploring high girth even degree expanders in
//! linear time"* (PODC 2012 / RSA 46(1), 2015).
//!
//! ## Quickstart
//!
//! ```
//! use eproc::graphs::generators;
//! use eproc::core::{EProcess, rule::UniformRule, cover::run_to_vertex_cover};
//! use rand::SeedableRng;
//!
//! // A connected even-degree expander: random 4-regular graph.
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let g = generators::connected_random_regular(500, 4, &mut rng)?;
//!
//! // The E-process covers it in O(n) steps (Corollary 2).
//! let mut walk = EProcess::new(&g, 0, UniformRule::new());
//! let result = run_to_vertex_cover(&mut walk, &g, &mut rng).expect("connected graph is covered");
//! assert!(result.steps < 20 * g.n() as u64);
//! # Ok::<(), eproc::graphs::GraphError>(())
//! ```
//!
//! ## Ensembles
//!
//! For grids of (graph × process × seed) runs — the shape of every claim
//! in the paper — use the [`engine`]: declare an
//! [`engine::ExperimentSpec`] and execute it on all cores with
//! [`engine::run`]. Results are bit-identical for any thread count.
//!
//! Extra per-trial metrics (cover, blanket, phases, blue census,
//! hitting) attach [`core::observe`] observers to the **same** walk as
//! the target, so a multi-metric trial still walks the graph once.
//!
//! ```
//! use eproc::engine::{
//!     self, CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, RuleSpec, Target,
//! };
//!
//! let spec = ExperimentSpec {
//!     name: "doc".into(),
//!     description: "E-process vs SRW".into(),
//!     graphs: vec![GraphSpec::Torus { w: 6, h: 6 }],
//!     processes: vec![ProcessSpec::EProcess { rule: RuleSpec::Uniform }, ProcessSpec::Srw],
//!     trials: 3,
//!     target: Target::VertexCover,
//!     metrics: vec![MetricSpec::Cover, MetricSpec::Hitting { vertex: None }],
//!     start: 0,
//!     cap: CapSpec::Auto,
//!     resample: None,
//! };
//! let report = engine::run(&spec, &engine::RunOptions { threads: 2, base_seed: 1 }).unwrap();
//! assert_eq!(report.cells.len(), 2);
//! assert_eq!(report.cells[0].metrics.len(), 3); // cover.c_v, cover.c_e, hitting(last)
//! ```
//!
//! The same engine backs the `eproc` CLI binary
//! (`cargo run --release --bin eproc -- run comparison --scale quick`).
//!
//! ## Observability
//!
//! [`engine::run_with_sink`] is [`engine::run`] plus telemetry: it
//! streams structured [`telemetry::Event`]s to any
//! [`telemetry::TelemetrySink`] — live progress, a strict-JSONL event
//! log, a per-stage wall-time summary — without perturbing the
//! deterministic artifacts. On the CLI: `--progress`,
//! `--telemetry PATH`, `--quiet`.
//!
//! ## Crash safety
//!
//! [`engine::run_recoverable`] executes any run with atomic
//! checkpointing, graceful SIGINT/SIGTERM interruption (the [`sys`] signal
//! latch) and deadline budgets; a failed block fails the run after its
//! completed blocks are checkpointed, and a resumed run reproduces the
//! uninterrupted artifact byte-for-byte. On the CLI: `--checkpoint`,
//! `--resume`, `--max-wall`.

#![forbid(unsafe_code)]

pub use eproc_core as core;
pub use eproc_engine as engine;
pub use eproc_graphs as graphs;
pub use eproc_spectral as spectral;
pub use eproc_stats as stats;
pub use eproc_sys as sys;
pub use eproc_telemetry as telemetry;
pub use eproc_theory as theory;
