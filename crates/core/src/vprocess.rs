//! The V-process: a walk preferring unvisited *vertices*.
//!
//! §1 of the paper: "The idea that the vertex cover time of a random walk
//! could be reduced by choosing unvisited neighbour vertices whenever
//! possible seems attractive and often arises in discussion", studied
//! experimentally alongside the E-process in the companion report \[4\]
//! (*Speeding up random walks by choosing unvisited edges or vertices*).
//! At each step: if the current vertex has unvisited neighbours, move to
//! one chosen uniformly at random; otherwise take a simple-random-walk
//! step.
//!
//! Unlike the E-process there is no parity structure to exploit (a vertex
//! is consumed on first touch), so no analogue of Observation 10 holds;
//! the `table_vprocess` binary races the two, and the SRW, through the
//! engine's `vprocess` and `eprocess` processes.

use crate::process::{Step, StepKind, WalkProcess};
use eproc_graphs::{Graph, Vertex};
use rand::{Rng, RngCore};

/// The unvisited-vertex-preferring walk.
#[derive(Debug, Clone)]
pub struct VProcess<'g> {
    g: &'g Graph,
    current: Vertex,
    steps: u64,
    visited: Vec<bool>,
    unvisited: usize,
    scratch: Vec<usize>,
}

impl<'g> VProcess<'g> {
    /// Creates a V-process at `start` (which counts as visited).
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()`.
    pub fn new(g: &'g Graph, start: Vertex) -> VProcess<'g> {
        assert!(start < g.n(), "start vertex {start} out of range");
        let mut visited = vec![false; g.n()];
        visited[start] = true;
        VProcess {
            g,
            current: start,
            steps: 0,
            visited,
            unvisited: g.n() - 1,
            scratch: Vec::new(),
        }
    }

    /// Number of vertices not yet visited.
    pub fn unvisited_vertex_count(&self) -> usize {
        self.unvisited
    }
}

impl<'g> WalkProcess for VProcess<'g> {
    fn graph(&self) -> &Graph {
        self.g
    }

    fn current(&self) -> Vertex {
        self.current
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn advance<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> Step {
        let v = self.current;
        let d = self.g.degree(v);
        assert!(d > 0, "V-process stuck at isolated vertex {v}");
        self.scratch.clear();
        for a in self.g.arc_range(v) {
            if !self.visited[self.g.arc_target(a)] {
                self.scratch.push(a);
            }
        }
        let (arc, kind) = if self.scratch.is_empty() {
            (
                self.g.arc_range(v).start + rng.gen_range(0..d),
                StepKind::Red,
            )
        } else {
            (
                self.scratch[rng.gen_range(0..self.scratch.len())],
                StepKind::Blue,
            )
        };
        let to = self.g.arc_target(arc);
        if !self.visited[to] {
            self.visited[to] = true;
            self.unvisited -= 1;
        }
        self.current = to;
        self.steps += 1;
        Step {
            from: v,
            to,
            edge: Some(self.g.arc_edge(arc)),
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::run_to_vertex_cover;
    use eproc_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn prefers_unvisited_neighbors() {
        let g = generators::complete(10);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut w = VProcess::new(&g, 0);
        // On K_n every step reaches a fresh vertex until all are seen:
        // exactly n - 1 blue steps.
        for _ in 0..9 {
            let s = w.advance(&mut rng);
            assert_eq!(s.kind, StepKind::Blue);
        }
        assert_eq!(w.unvisited_vertex_count(), 0);
        assert_eq!(w.advance(&mut rng).kind, StepKind::Red);
    }

    #[test]
    fn covers_cycle_in_n_minus_1() {
        let g = generators::cycle(30);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut w = VProcess::new(&g, 0);
        let cover = run_to_vertex_cover(&mut w, &g, &mut rng).unwrap();
        assert_eq!(cover.steps, 29, "V-process never backtracks on a cycle");
    }

    #[test]
    fn visit_bookkeeping_consistent() {
        let g = generators::torus2d(4, 4);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut w = VProcess::new(&g, 5);
        assert!(w.visited[5]);
        assert_eq!(w.unvisited_vertex_count(), 15);
        for _ in 0..500 {
            w.advance(&mut rng);
        }
        let count = w.visited.iter().filter(|&&seen| !seen).count();
        assert_eq!(count, w.unvisited_vertex_count());
        assert_eq!(count, 0, "500 steps cover a 16-vertex torus");
    }

    #[test]
    fn linearish_on_even_regular() {
        let mut seed_rng = SmallRng::seed_from_u64(4);
        let g = generators::connected_random_regular(1000, 4, &mut seed_rng).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut w = VProcess::new(&g, 0);
        let cover = run_to_vertex_cover(&mut w, &g, &mut rng).unwrap();
        // [4] reports near-linear behaviour for the V-process on regular
        // graphs as well; sanity-bound it loosely.
        assert!(cover.steps < 30 * g.n() as u64, "CV = {}", cover.steps);
    }
}
