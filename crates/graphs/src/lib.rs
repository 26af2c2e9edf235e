//! Graph substrate for the `eproc` workspace.
//!
//! This crate provides everything the E-process simulator (`eproc-core`)
//! needs from a graph library, implemented from scratch:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) representation of an
//!   undirected multigraph with stable *edge* and *arc* identifiers. The two
//!   directed copies of an undirected edge are its arcs; the E-process marks
//!   edges visited while walking arcs, so both views are first-class;
//!   [`Graph::from_edges`] is its one validating constructor.
//! * [`generators`] — the graph families used by the paper's analysis and
//!   experiments: random regular graphs (the Steger–Wormald algorithm used
//!   by the paper's own simulations), LPS
//!   Ramanujan graphs (the canonical *high girth even degree expanders* of
//!   the title), hypercubes, toroidal grids, random geometric graphs, and a
//!   zoo of deterministic families for tests and baselines.
//! * [`properties`] — structural predicates and measurements: connectivity,
//!   degrees, bipartiteness, girth, diameter, cycle counting, and
//!   `ℓ`-goodness (minimal even-degree subgraphs through a vertex,
//!   Definition in §1 of the paper).
//!
//! # Example
//!
//! ```
//! use eproc_graphs::generators;
//! use eproc_graphs::properties::{connectivity, degrees, girth};
//!
//! let g = generators::hypercube(4);
//! assert_eq!(g.n(), 16);
//! assert_eq!(g.m(), 32);
//! assert!(connectivity::is_connected(&g));
//! assert!(degrees::is_even_degree(&g));
//! assert_eq!(girth::girth(&g), Some(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod error;
pub mod generators;
pub mod properties;
pub mod traversal;

pub use csr::{ArcId, EdgeId, Graph, Vertex};
pub use error::GraphError;
