//! Spectral toolkit for the `eproc` workspace.
//!
//! The paper's cover-time bounds are parameterised by the eigenvalue gap
//! `1 − λ_max` of the simple-random-walk transition matrix `P`, where
//! `λ_max = max(λ_2, |λ_n|)` (§2.1). This crate computes those quantities:
//!
//! * [`transition`] — stationary distribution, sparse application of `P`
//!   and of the symmetrised operator `S = D^{-1/2} A D^{-1/2}` (same
//!   spectrum as `P`), with optional laziness (the paper's trick for
//!   bipartite graphs);
//! * [`dense`] — dense symmetric matrices, cyclic Jacobi eigensolver and a
//!   Gaussian-elimination linear solver: exact oracles for small graphs;
//! * [`lanczos`] — Lanczos tridiagonalisation with full reorthogonalisation
//!   for `λ_2`, `λ_n`, `λ_max` on large sparse graphs;
//! * [`hitting`] — exact hitting times `E_u(H_v)`, commute times,
//!   stationary hitting times `E_π(H_v)` and the return-time identity
//!   `E_v T_v^+ = 1/π_v` (used by Theorem 5's proof);
//! * [`conductance`] — exact conductance `Φ(G)` on small graphs and the
//!   Cheeger sandwich `1 − 2Φ ≤ λ_2 ≤ 1 − Φ²/2` (eq. 19 of the paper);
//! * [`mixing`] — total-variation mixing by explicit evolution, compared
//!   with the spectral mixing time `T = K log n / (1 − λ_max)` (Lemma 7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conductance;
pub mod dense;
pub mod hitting;
pub mod lanczos;
pub mod mixing;
pub mod resistance;
pub mod transition;

pub use transition::stationary_distribution;
