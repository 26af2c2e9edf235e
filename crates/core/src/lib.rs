//! The E-process and companion walk processes.
//!
//! This crate implements the paper's primary contribution — the
//! **edge-process** (E-process): a walk that, whenever the current vertex
//! has unvisited incident edges, traverses one of them (chosen by an
//! arbitrary, possibly adversarial, rule **A**) and takes a simple random
//! walk step otherwise — together with every baseline the paper discusses:
//!
//! * [`EProcess`] with pluggable [`rule::EdgeRule`]s (uniform = the greedy
//!   random walk of Orenshtein–Shinkar, first/last port, round-robin,
//!   adversarial callback);
//! * [`srw::SimpleRandomWalk`], [`srw::LazyRandomWalk`],
//!   [`srw::WeightedRandomWalk`] (Theorem 5's lower bound applies to the
//!   last);
//! * [`rotor::RotorRouter`] (the Propp machine; related work §1);
//! * [`choice::RandomWalkWithChoice`] (Avin–Krishnamachari RWC(d));
//! * [`fair::OldestFirst`] and [`fair::LeastUsedFirst`] (locally fair
//!   exploration, Cooper–Ilcinkas–Klasing–Kosowski);
//! * the [`observe`] single-pass pipeline: composable [`observe::Observer`]s
//!   (cover, blanket, phases, blue census, hitting) fed by one generic
//!   driver [`observe::run_observed`], so one trajectory yields every
//!   requested metric; the [`cover`] and [`segments`] entry points are
//!   thin wrappers over it. The driver is a fully **monomorphized
//!   kernel** — generic over walk ([`WalkProcess::advance`]), RNG and
//!   observer set ([`observe::ObserverSet`] tuples) — with
//!   [`interleave::run_observed_interleaved`] as the lockstep multi-trial
//!   variant that overlaps independent trials' CSR row fetches on one
//!   shared graph (bit-identical per-trial streams);
//! * [`bitset`] — the word-packed visited bitmap shared by the E-process
//!   and the observers.
//!
//! # Example: Corollary 2 in action
//!
//! ```
//! use eproc_core::{EProcess, rule::UniformRule, cover::run_to_vertex_cover};
//! use eproc_graphs::generators;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
//! let g = generators::connected_random_regular(400, 4, &mut rng)?;
//! let mut walk = EProcess::new(&g, 0, UniformRule::new());
//! let cover = run_to_vertex_cover(&mut walk, &g, &mut rng).expect("connected");
//! // Θ(n) cover time on even-degree random regular graphs.
//! assert!(cover.steps < 20 * g.n() as u64);
//! # Ok::<(), eproc_graphs::GraphError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod choice;
pub mod cover;
pub mod eprocess;
pub mod fair;
pub mod interleave;
pub mod observe;
pub mod process;
pub mod rotor;
pub mod segments;
pub mod srw;
pub mod vprocess;

pub use eprocess::rule;
pub use eprocess::{EProcess, GreedyRandomWalk};
pub use process::{Step, StepKind, WalkProcess};
