//! The random walk with choice, RWC(d) (Avin & Krishnamachari).
//!
//! Related work in §1 of the paper: at each step the walk samples `d`
//! neighbours uniformly at random (with replacement) and moves to the
//! least-visited among them, breaking ties uniformly. `RWC(1)` degenerates
//! to the SRW.

use crate::process::{Step, StepKind, WalkProcess};
use eproc_graphs::{Graph, Vertex};
use rand::{Rng, RngCore};

/// The RWC(d) process, tracking per-vertex visit counts.
#[derive(Debug, Clone)]
pub struct RandomWalkWithChoice<'g> {
    g: &'g Graph,
    current: Vertex,
    steps: u64,
    d: usize,
    visits: Vec<u64>,
}

impl<'g> RandomWalkWithChoice<'g> {
    /// Creates an RWC(`d`) walk at `start` (`d >= 1`). The start vertex
    /// counts as visited once.
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()` or `d == 0`.
    pub fn new(g: &'g Graph, start: Vertex, d: usize) -> RandomWalkWithChoice<'g> {
        assert!(start < g.n(), "start vertex {start} out of range");
        assert!(d >= 1, "RWC requires d >= 1");
        let mut visits = vec![0u64; g.n()];
        visits[start] = 1;
        RandomWalkWithChoice {
            g,
            current: start,
            steps: 0,
            d,
            visits,
        }
    }

    /// Number of choices sampled per step.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Visit count of `v` (arrivals, including the initial placement).
    ///
    /// # Panics
    ///
    /// Panics if `v >= g.n()`.
    pub fn visit_count(&self, v: Vertex) -> u64 {
        self.visits[v]
    }
}

impl<'g> WalkProcess for RandomWalkWithChoice<'g> {
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
        let deg = self.g.degree(v);
        assert!(deg > 0, "RWC stuck at isolated vertex {v}");
        let base = self.g.arc_range(v).start;
        // Sample d candidate arcs with replacement; keep the least-visited
        // target; ties resolved in favour of the later sample with
        // probability 1/(ties so far + 1), i.e. uniformly among tied.
        let mut best_arc = base + rng.gen_range(0..deg);
        let mut best_visits = self.visits[self.g.arc_target(best_arc)];
        let mut ties = 1u64;
        for _ in 1..self.d {
            let arc = base + rng.gen_range(0..deg);
            let visits = self.visits[self.g.arc_target(arc)];
            if visits < best_visits {
                best_arc = arc;
                best_visits = visits;
                ties = 1;
            } else if visits == best_visits {
                ties += 1;
                if rng.gen_range(0..ties) == 0 {
                    best_arc = arc;
                }
            }
        }
        let to = self.g.arc_target(best_arc);
        self.visits[to] += 1;
        self.current = to;
        self.steps += 1;
        Step {
            from: v,
            to,
            edge: Some(self.g.arc_edge(best_arc)),
            kind: StepKind::Red,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eproc_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn moves_along_edges_and_counts_visits() {
        let g = generators::torus2d(4, 4);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut w = RandomWalkWithChoice::new(&g, 0, 2);
        assert_eq!(w.d(), 2);
        assert_eq!(w.visit_count(0), 1);
        let mut arrivals = 0u64;
        for _ in 0..500 {
            let s = w.advance(&mut rng);
            assert!(g.has_edge(s.from, s.to));
            arrivals += 1;
        }
        let total: u64 = (0..g.n()).map(|v| w.visit_count(v)).sum();
        assert_eq!(total, arrivals + 1);
    }

    #[test]
    fn rwc1_is_simple_random_walk_distribution() {
        // With d = 1 the candidate is a single uniform neighbor.
        let g = generators::star(4);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut w = RandomWalkWithChoice::new(&g, 0, 1);
        let mut counts = vec![0u64; g.n()];
        for _ in 0..30_000 {
            let s = w.advance(&mut rng);
            if s.from == 0 {
                counts[s.to] += 1;
            }
        }
        let total: u64 = counts.iter().sum();
        for (leaf, &count) in counts.iter().enumerate().skip(1) {
            let f = count as f64 / total as f64;
            assert!((f - 1.0 / 3.0).abs() < 0.02, "leaf {leaf} freq {f}");
        }
    }

    #[test]
    fn choice_prefers_unvisited_neighbor() {
        // From the center of a star with one heavily visited leaf, RWC(3)
        // should rarely choose that leaf.
        let g = generators::star(5);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut w = RandomWalkWithChoice::new(&g, 0, 3);
        w.visits[1] = 1_000_000; // leaf 1 pre-poisoned far beyond reach
        let mut to_poisoned = 0u64;
        let mut from_center = 0u64;
        for _ in 0..2_000 {
            let s = w.advance(&mut rng);
            if s.from == 0 {
                from_center += 1;
                if s.to == 1 {
                    to_poisoned += 1;
                }
            }
        }
        let f = to_poisoned as f64 / from_center as f64;
        // The poisoned leaf is chosen only if all 3 samples hit it:
        // (1/4)³ ≈ 0.016.
        assert!(f < 0.05, "poisoned leaf frequency {f}");
    }

    #[test]
    fn reduces_cover_variance_on_cycle() {
        // Sanity: RWC(2) covers the cycle; no assertion on speed, just
        // that the harnessed walk terminates reasonably.
        let g = generators::cycle(30);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut w = RandomWalkWithChoice::new(&g, 0, 2);
        let mut seen = vec![false; g.n()];
        seen[0] = true;
        let mut remaining = g.n() - 1;
        let mut t = 0u64;
        while remaining > 0 {
            let s = w.advance(&mut rng);
            if !seen[s.to] {
                seen[s.to] = true;
                remaining -= 1;
            }
            t += 1;
            assert!(t < 1_000_000);
        }
    }

    #[test]
    #[should_panic(expected = "d >= 1")]
    fn zero_choices_rejected() {
        let g = generators::cycle(3);
        let _ = RandomWalkWithChoice::new(&g, 0, 0);
    }
}
