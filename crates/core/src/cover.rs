//! Cover-time measurement for any [`WalkProcess`].
//!
//! These entry points are thin wrappers over the [`crate::observe`]
//! pipeline: [`run_cover`] attaches a [`CoverObserver`] and
//! [`blanket_time`] a [`crate::observe::BlanketObserver`] to the shared
//! [`run_observed`] driver, so vertex cover time `C_V`, edge cover time
//! `C_E` and blanket time are all measured uniformly — and composably —
//! for the E-process, SRW, rotor-router, RWC(d) and the locally fair
//! explorers. Callers wanting several metrics from one trajectory should
//! use [`run_observed`] directly. Ensembles (many trials, every start
//! vertex for `max_v C_v`) run through the engine's experiment specs.

use crate::observe::{run_observed, BlanketObserver, CoverObserver, StopWhen};
use crate::process::WalkProcess;
use eproc_graphs::{Graph, Vertex};
use rand::RngCore;
use std::fmt;

/// Error from a cover/blanket measurement entry point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoverError {
    /// Blanket parameter `δ` outside `(0, 1)`.
    InvalidDelta(f64),
}

impl fmt::Display for CoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverError::InvalidDelta(delta) => {
                write!(f, "blanket delta must be in (0,1), got {delta}")
            }
        }
    }
}

impl std::error::Error for CoverError {}

/// What to wait for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverTarget {
    /// Stop when every vertex has been visited.
    Vertices,
    /// Stop when every edge has been traversed.
    Edges,
    /// Stop when both vertices and edges are covered.
    Both,
}

/// Everything measured during a capped cover run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverRun {
    /// Steps actually taken (= the cap if the target was not reached).
    pub steps: u64,
    /// Step at which the last vertex was first visited, if vertex cover
    /// completed within the cap.
    pub steps_to_vertex_cover: Option<u64>,
    /// Step at which the last edge was first traversed, if edge cover
    /// completed within the cap.
    pub steps_to_edge_cover: Option<u64>,
    /// Blue (unvisited-edge) transitions observed.
    pub blue_steps: u64,
    /// Red transitions observed.
    pub red_steps: u64,
    /// Distinct vertices visited (including the start).
    pub vertices_visited: usize,
    /// Distinct edges traversed.
    pub edges_visited: usize,
    /// Where the walk stopped.
    pub final_vertex: Vertex,
}

/// Runs `walk` until `target` is covered or `max_steps` elapse.
///
/// The walk may have already taken steps; counters here are relative to
/// this call (fresh bitmaps, step counts starting at the walk's current
/// position, which counts as visited).
pub fn run_cover<W: WalkProcess, R: RngCore + ?Sized>(
    walk: &mut W,
    target: CoverTarget,
    max_steps: u64,
    rng: &mut R,
) -> CoverRun {
    let mut observer = CoverObserver::new(target);
    let run = run_observed(
        walk,
        &mut (&mut observer,),
        StopWhen::AllSatisfied,
        max_steps,
        rng,
    );
    let m = observer.cover_metrics();
    CoverRun {
        steps: run.steps,
        steps_to_vertex_cover: m.steps_to_vertex_cover,
        steps_to_edge_cover: m.steps_to_edge_cover,
        blue_steps: m.blue_steps,
        red_steps: m.red_steps,
        vertices_visited: m.vertices_visited,
        edges_visited: m.edges_visited,
        final_vertex: run.final_vertex,
    }
}

/// Result of a completed vertex cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexCover {
    /// Steps until every vertex had been visited.
    pub steps: u64,
    /// The vertex visited last.
    pub last_vertex: Vertex,
}

/// A generous default step cap: `4 n³ + 10⁶`, above the `(4/27)n³(1+o(1))`
/// worst-case expected cover time of any connected graph, so a capped-out
/// run on a connected graph signals a bug rather than bad luck.
pub fn default_step_cap(g: &Graph) -> u64 {
    let n = g.n() as u64;
    4 * n * n * n + 1_000_000
}

/// Runs `walk` to vertex cover with the [`default_step_cap`]; `None` if the
/// cap was hit (disconnected graph, or a deterministic walk trapped in a
/// cycle).
pub fn run_to_vertex_cover<W: WalkProcess, R: RngCore + ?Sized>(
    walk: &mut W,
    g: &Graph,
    rng: &mut R,
) -> Option<VertexCover> {
    let run = run_cover(walk, CoverTarget::Vertices, default_step_cap(g), rng);
    run.steps_to_vertex_cover.map(|steps| VertexCover {
        steps,
        last_vertex: run.final_vertex,
    })
}

/// Measures the blanket time `τ_bl(δ)`: the first step `t` at which every
/// vertex `v` has been visited at least `δ π_v t` times (Ding–Lee–Peres,
/// §1 of the paper). The condition is checked every `g.n()` steps, so the
/// result has additive granularity `n`. `Ok(None)` if not reached within
/// `max_steps`.
///
/// Thin wrapper over a [`BlanketObserver`] on the [`run_observed`]
/// driver.
///
/// # Errors
///
/// Returns [`CoverError::InvalidDelta`] if `delta` is not in `(0, 1)`.
pub fn blanket_time<W: WalkProcess, R: RngCore + ?Sized>(
    walk: &mut W,
    delta: f64,
    max_steps: u64,
    rng: &mut R,
) -> Result<Option<u64>, CoverError> {
    let mut observer = BlanketObserver::new(delta)?;
    run_observed(
        walk,
        &mut (&mut observer,),
        StopWhen::AllSatisfied,
        max_steps,
        rng,
    );
    Ok(observer.steps_to_blanket())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eprocess::rule::UniformRule;
    use crate::eprocess::EProcess;
    use crate::rotor::RotorRouter;
    use crate::srw::SimpleRandomWalk;
    use eproc_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn eprocess_covers_cycle_in_exactly_n_minus_1_vertices() {
        let g = generators::cycle(20);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut w = EProcess::new(&g, 0, UniformRule::new());
        let cover = run_to_vertex_cover(&mut w, &g, &mut rng).unwrap();
        // The blue walk goes straight around: n - 1 steps to see all.
        assert_eq!(cover.steps, 19);
    }

    #[test]
    fn eprocess_edge_cover_on_cycle_is_m() {
        let g = generators::cycle(15);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut w = EProcess::new(&g, 0, UniformRule::new());
        let run = run_cover(&mut w, CoverTarget::Edges, default_step_cap(&g), &mut rng);
        assert_eq!(run.steps_to_edge_cover, Some(15));
    }

    #[test]
    fn edge_cover_sandwich_eq3() {
        // m <= CE(E-process) <= m + CV(SRW): check the lower half per-run
        // (the upper half holds in expectation; see table_edge_cover).
        let g = generators::torus2d(5, 4);
        let mut rng = SmallRng::seed_from_u64(3);
        for start in [0, 7] {
            let mut w = EProcess::new(&g, start, UniformRule::new());
            let run = run_cover(&mut w, CoverTarget::Edges, default_step_cap(&g), &mut rng);
            let ce = run.steps_to_edge_cover.unwrap();
            assert!(ce >= g.m() as u64);
        }
    }

    #[test]
    fn cover_run_counts_are_consistent() {
        let g = generators::torus2d(4, 4);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut w = EProcess::new(&g, 0, UniformRule::new());
        let run = run_cover(&mut w, CoverTarget::Both, 1_000_000, &mut rng);
        assert_eq!(run.blue_steps + run.red_steps, run.steps);
        assert_eq!(run.vertices_visited, g.n());
        assert_eq!(run.edges_visited, g.m());
        assert!(run.steps_to_vertex_cover.unwrap() <= run.steps_to_edge_cover.unwrap());
        assert_eq!(run.final_vertex, w.current());
    }

    #[test]
    fn cap_is_respected() {
        let g = generators::torus2d(10, 10);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut w = SimpleRandomWalk::new(&g, 0);
        let run = run_cover(&mut w, CoverTarget::Vertices, 10, &mut rng);
        assert_eq!(run.steps, 10);
        assert!(run.steps_to_vertex_cover.is_none());
        assert!(run.vertices_visited <= 11);
    }

    #[test]
    fn disconnected_graph_returns_none() {
        let g =
            eproc_graphs::Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
                .unwrap();
        let mut rng = SmallRng::seed_from_u64(6);
        let mut w = SimpleRandomWalk::new(&g, 0);
        let run = run_cover(&mut w, CoverTarget::Vertices, 50_000, &mut rng);
        assert!(run.steps_to_vertex_cover.is_none());
        assert_eq!(run.vertices_visited, 3);
    }

    #[test]
    fn rotor_cover_via_harness() {
        let g = generators::complete(5);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut w = RotorRouter::new(&g, 0);
        let cover = run_to_vertex_cover(&mut w, &g, &mut rng).unwrap();
        assert!(cover.steps >= (g.n() - 1) as u64);
        // Rotor-router covers within O(mD) = O(m) here.
        assert!(cover.steps <= (2 * g.m() * 2) as u64);
    }

    #[test]
    fn blanket_time_on_complete_graph() {
        let g = generators::complete(8);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut w = SimpleRandomWalk::new(&g, 0);
        let t = blanket_time(&mut w, 0.3, 1_000_000, &mut rng)
            .expect("valid delta")
            .expect("blanket reached");
        // K8 blanket time is a small multiple of n log n.
        assert!(t < 10_000, "blanket time {t} too large for K8");
    }

    #[test]
    fn blanket_rejects_bad_delta() {
        let g = generators::complete(4);
        let mut rng = SmallRng::seed_from_u64(10);
        let mut w = SimpleRandomWalk::new(&g, 0);
        for delta in [1.5, 0.0, 1.0, -0.2] {
            assert_eq!(
                blanket_time(&mut w, delta, 100, &mut rng),
                Err(CoverError::InvalidDelta(delta)),
            );
        }
        let msg = CoverError::InvalidDelta(1.5).to_string();
        assert!(msg.contains("delta") && msg.contains("1.5"));
    }

    #[test]
    fn vertex_cover_beats_lower_bound_n_minus_1() {
        // No walk-based process covers n vertices in fewer than n-1 steps.
        let g = generators::torus2d(4, 4);
        for seed in 0..5 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut w = EProcess::new(&g, 0, UniformRule::new());
            let c = run_to_vertex_cover(&mut w, &g, &mut rng).unwrap();
            assert!(c.steps >= (g.n() - 1) as u64);
        }
    }
}
