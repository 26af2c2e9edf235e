//! Structural graph properties used by the paper's analysis.
//!
//! * [`connectivity`] — connectedness (every theorem assumes a connected
//!   graph).
//! * [`degrees`] — even-degree and regularity checks (the paper's standing
//!   assumption is "connected even degree graphs of constant maximum
//!   degree").
//! * [`bipartite`] — bipartiteness (`λ_n = -1` forces the lazy-walk trick,
//!   §2.1 of the paper).
//! * [`girth`] — girth and bounded-girth detection (Theorem 3).
//! * [`diameter`] — eccentricities and diameter (rotor-router comparison).
//! * [`euler`] — Eulerian circuits and cycle decompositions of even-degree
//!   (sub)graphs (the structure behind Observations 10 and 11).
//! * [`cycles`] — exact short-cycle counts `N_k` (Corollary 4's proof).
//! * [`lgood`] — `ℓ`-goodness: minimal even-degree subgraphs through a
//!   vertex (the paper's local expansion property).

pub mod bipartite;
pub mod connectivity;
pub mod cycles;
pub mod degrees;
pub mod diameter;
pub mod euler;
pub mod girth;
pub mod lgood;
