//! Phase segmentation of E-process trajectories.
//!
//! The paper's whole analysis is phase-based: maximal runs of blue
//! transitions (walks on unvisited edges) alternate with red runs (the
//! embedded simple random walk). This module defines the [`Phase`] and
//! [`PhaseTrace`] data types and the statistics the proofs reason about —
//! phase counts, lengths, and the Observation-10 closure property. The
//! segmentation itself is performed by
//! [`crate::observe::PhaseObserver`] on the shared single-pass driver;
//! [`trace_phases`] is a thin wrapper over it.

use crate::eprocess::rule::EdgeRule;
use crate::eprocess::EProcess;
use crate::observe::{run_observed, PhaseObserver, StopWhen};
use crate::process::{StepKind, WalkProcess};
use eproc_graphs::Vertex;
use rand::RngCore;

/// One maximal run of same-coloured transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// Blue (unvisited-edge walk) or red (embedded SRW).
    pub kind: StepKind,
    /// Vertex occupied when the phase began.
    pub start_vertex: Vertex,
    /// Vertex occupied when the phase ended.
    pub end_vertex: Vertex,
    /// Number of transitions in the phase.
    pub length: u64,
}

/// Trajectory-level phase statistics of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTrace {
    /// All phases in order.
    pub phases: Vec<Phase>,
    /// Total steps taken.
    pub steps: u64,
}

impl PhaseTrace {
    /// Number of blue phases.
    pub fn blue_phase_count(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| p.kind == StepKind::Blue)
            .count()
    }

    /// Number of red phases.
    pub fn red_phase_count(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| p.kind == StepKind::Red)
            .count()
    }

    /// Length of the first blue phase (0 if none — cannot happen on a
    /// graph with edges, since all edges start unvisited).
    pub fn first_blue_length(&self) -> u64 {
        self.phases
            .iter()
            .find(|p| p.kind == StepKind::Blue)
            .map_or(0, |p| p.length)
    }

    /// Lengths of all blue phases.
    pub fn blue_lengths(&self) -> Vec<u64> {
        self.phases
            .iter()
            .filter(|p| p.kind == StepKind::Blue)
            .map(|p| p.length)
            .collect()
    }

    /// Total blue steps (`t_B` of Observation 12).
    pub fn total_blue(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.kind == StepKind::Blue)
            .map(|p| p.length)
            .sum()
    }

    /// `true` if every *closed* blue phase ended at its start vertex
    /// (Observation 10; the final phase is exempt if the run was truncated
    /// mid-phase).
    pub fn blue_phases_closed(&self) -> bool {
        let last = self.phases.len().saturating_sub(1);
        self.phases
            .iter()
            .enumerate()
            .filter(|&(i, p)| p.kind == StepKind::Blue && i != last)
            .all(|(_, p)| p.start_vertex == p.end_vertex)
    }
}

/// Runs a fresh E-process until every edge is visited (or `max_steps`),
/// recording the phase structure.
///
/// Thin wrapper: attaches a [`PhaseObserver`] to the shared
/// [`run_observed`] driver (the observer's edge bitmap reproduces the
/// legacy `unvisited_edge_count() > 0` stop condition exactly, since the
/// E-process marks edges visited precisely when they are traversed).
///
/// # Panics
///
/// Panics if the walk has already taken steps.
pub fn trace_phases<A: EdgeRule, R: RngCore + ?Sized>(
    walk: &mut EProcess<'_, A>,
    max_steps: u64,
    rng: &mut R,
) -> PhaseTrace {
    assert_eq!(walk.steps(), 0, "phase tracing requires a fresh walk");
    let mut observer = PhaseObserver::new();
    run_observed(
        walk,
        &mut (&mut observer,),
        StopWhen::AllSatisfied,
        max_steps,
        rng,
    );
    observer.trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eprocess::rule::UniformRule;
    use eproc_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn cycle_is_one_blue_phase() {
        let g = generators::cycle(9);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        let trace = trace_phases(&mut walk, 10_000, &mut rng);
        assert_eq!(trace.phases.len(), 1);
        assert_eq!(trace.blue_phase_count(), 1);
        assert_eq!(trace.first_blue_length(), 9);
        assert!(trace.blue_phases_closed());
        assert_eq!(trace.total_blue(), 9);
    }

    #[test]
    fn phases_alternate_colours() {
        let g = generators::torus2d(5, 5);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        let trace = trace_phases(&mut walk, 1_000_000, &mut rng);
        for pair in trace.phases.windows(2) {
            assert_ne!(pair[0].kind, pair[1].kind, "phases must alternate");
        }
        assert_eq!(trace.phases[0].kind, StepKind::Blue, "all edges start blue");
    }

    #[test]
    fn observation10_via_trace() {
        for seed in 0..10 {
            let g = generators::hypercube(4);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut walk = EProcess::new(&g, 3, UniformRule::new());
            let trace = trace_phases(&mut walk, 1_000_000, &mut rng);
            assert!(trace.blue_phases_closed(), "seed {seed}");
            assert!(trace.total_blue() <= g.m() as u64);
        }
    }

    #[test]
    fn phase_lengths_sum_to_steps() {
        let g = generators::figure_eight(5);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        let trace = trace_phases(&mut walk, 1_000_000, &mut rng);
        let sum: u64 = trace.phases.iter().map(|p| p.length).sum();
        assert_eq!(sum, trace.steps);
        assert_eq!(sum, walk.steps());
    }

    #[test]
    fn truncation_respected() {
        let g = generators::torus2d(6, 6);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        let trace = trace_phases(&mut walk, 5, &mut rng);
        assert_eq!(trace.steps, 5);
        assert_eq!(
            trace.total_blue(),
            5,
            "first 5 steps are blue on a fresh even graph"
        );
    }

    #[test]
    fn phase_boundaries_are_consistent() {
        let g = generators::complete(7);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut walk = EProcess::new(&g, 2, UniformRule::new());
        let trace = trace_phases(&mut walk, 1_000_000, &mut rng);
        // Consecutive phases share a boundary vertex.
        for pair in trace.phases.windows(2) {
            assert_eq!(pair[0].end_vertex, pair[1].start_vertex);
        }
        assert_eq!(trace.phases[0].start_vertex, 2);
    }
}
