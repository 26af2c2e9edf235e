//! Simple, lazy and weighted random walks.

use crate::process::{Step, StepKind, WalkProcess};
use eproc_graphs::{Graph, Vertex};
use rand::{Rng, RngCore};

/// The simple random walk: moves to a uniformly random neighbour each step.
#[derive(Debug, Clone)]
pub struct SimpleRandomWalk<'g> {
    g: &'g Graph,
    current: Vertex,
    steps: u64,
}

impl<'g> SimpleRandomWalk<'g> {
    /// Creates a walk at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()`.
    pub fn new(g: &'g Graph, start: Vertex) -> SimpleRandomWalk<'g> {
        assert!(start < g.n(), "start vertex {start} out of range");
        SimpleRandomWalk {
            g,
            current: start,
            steps: 0,
        }
    }
}

impl<'g> WalkProcess for SimpleRandomWalk<'g> {
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
        assert!(d > 0, "random walk stuck at isolated vertex {v}");
        let arc = self.g.arc_range(v).start + rng.gen_range(0..d);
        let to = self.g.arc_target(arc);
        self.current = to;
        self.steps += 1;
        Step {
            from: v,
            to,
            edge: Some(self.g.arc_edge(arc)),
            kind: StepKind::Red,
        }
    }
}

/// The lazy random walk: stays put with probability 1/2, else moves like
/// the SRW. The paper's standard fix for periodicity on bipartite graphs
/// (§2.1): the lazy spectrum is `(1 + λ_i)/2 ≥ 0`.
#[derive(Debug, Clone)]
pub struct LazyRandomWalk<'g> {
    g: &'g Graph,
    current: Vertex,
    steps: u64,
}

impl<'g> LazyRandomWalk<'g> {
    /// Creates a lazy walk at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()`.
    pub fn new(g: &'g Graph, start: Vertex) -> LazyRandomWalk<'g> {
        assert!(start < g.n(), "start vertex {start} out of range");
        LazyRandomWalk {
            g,
            current: start,
            steps: 0,
        }
    }
}

impl<'g> WalkProcess for LazyRandomWalk<'g> {
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
        self.steps += 1;
        if rng.gen_bool(0.5) {
            return Step {
                from: v,
                to: v,
                edge: None,
                kind: StepKind::Red,
            };
        }
        let d = self.g.degree(v);
        assert!(d > 0, "random walk stuck at isolated vertex {v}");
        let arc = self.g.arc_range(v).start + rng.gen_range(0..d);
        let to = self.g.arc_target(arc);
        self.current = to;
        Step {
            from: v,
            to,
            edge: Some(self.g.arc_edge(arc)),
            kind: StepKind::Red,
        }
    }
}

/// A reversible weighted random walk: transition probability from `x` to a
/// neighbour along edge `e` is `w(e) / Σ_{e' ∋ x} w(e')` (§2.2 of the
/// paper). Theorem 5's `Ω(n log n)` cover-time lower bound applies to any
/// such walk.
#[derive(Debug, Clone)]
pub struct WeightedRandomWalk<'g> {
    g: &'g Graph,
    current: Vertex,
    steps: u64,
    /// Per-vertex cumulative weights over the ports of the vertex.
    cumulative: Vec<f64>,
}

impl<'g> WeightedRandomWalk<'g> {
    /// Creates a weighted walk with per-edge weights `w` (`w.len() == m`,
    /// all weights `> 0`).
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()`, `w.len() != g.m()`, or any weight is
    /// not finite and positive.
    pub fn new(g: &'g Graph, start: Vertex, w: &[f64]) -> WeightedRandomWalk<'g> {
        assert!(start < g.n(), "start vertex {start} out of range");
        assert_eq!(w.len(), g.m(), "need one weight per edge");
        assert!(
            w.iter().all(|&x| x.is_finite() && x > 0.0),
            "edge weights must be positive and finite"
        );
        let mut cumulative = vec![0.0f64; 2 * g.m()];
        for v in g.vertices() {
            let mut acc = 0.0;
            for a in g.arc_range(v) {
                acc += w[g.arc_edge(a)];
                cumulative[a] = acc;
            }
        }
        WeightedRandomWalk {
            g,
            current: start,
            steps: 0,
            cumulative,
        }
    }
}

impl<'g> WalkProcess for WeightedRandomWalk<'g> {
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
        let range = self.g.arc_range(v);
        assert!(
            !range.is_empty(),
            "random walk stuck at isolated vertex {v}"
        );
        let total = self.cumulative[range.end - 1];
        let target = rng.gen_range(0.0..total);
        // Binary search the cumulative weights within the vertex range.
        let slice = &self.cumulative[range.clone()];
        let offset = slice.partition_point(|&c| c <= target);
        let arc = (range.start + offset).min(range.end - 1);
        let to = self.g.arc_target(arc);
        self.current = to;
        self.steps += 1;
        Step {
            from: v,
            to,
            edge: Some(self.g.arc_edge(arc)),
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
    fn srw_moves_to_neighbors() {
        let g = generators::petersen();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut w = SimpleRandomWalk::new(&g, 0);
        for _ in 0..100 {
            let s = w.advance(&mut rng);
            assert!(g.has_edge(s.from, s.to));
            assert_eq!(s.kind, StepKind::Red);
            assert_eq!(w.current(), s.to);
        }
        assert_eq!(w.steps(), 100);
    }

    #[test]
    fn srw_visits_uniformly_on_regular_graph() {
        // Empirical occupation on a cycle is near uniform.
        let g = generators::cycle(8);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut w = SimpleRandomWalk::new(&g, 0);
        let mut counts = vec![0u64; g.n()];
        let t = 80_000;
        for _ in 0..t {
            counts[w.advance(&mut rng).to as usize] += 1;
        }
        for &c in &counts {
            let freq = c as f64 / t as f64;
            assert!((freq - 0.125).abs() < 0.02, "freq {freq}");
        }
    }

    #[test]
    fn lazy_walk_holds_half_the_time() {
        let g = generators::cycle(5);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut w = LazyRandomWalk::new(&g, 0);
        let t = 20_000;
        let holds = (0..t)
            .filter(|_| {
                let s = w.advance(&mut rng);
                s.from == s.to
            })
            .count();
        let frac = holds as f64 / t as f64;
        assert!((frac - 0.5).abs() < 0.02, "hold fraction {frac}");
    }

    #[test]
    fn lazy_hold_has_no_edge() {
        let g = generators::cycle(4);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut w = LazyRandomWalk::new(&g, 0);
        for _ in 0..50 {
            let s = w.advance(&mut rng);
            assert_eq!(s.edge.is_none(), s.from == s.to);
        }
    }

    #[test]
    fn weighted_walk_with_uniform_weights_matches_srw_distribution() {
        let g = generators::complete(4);
        let mut rng = SmallRng::seed_from_u64(5);
        let w = vec![1.0; g.m()];
        let mut walk = WeightedRandomWalk::new(&g, 0, &w);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..30_000 {
            let s = walk.advance(&mut rng);
            if s.from == 0 {
                *counts.entry(s.to).or_insert(0u64) += 1;
            }
        }
        let total: u64 = counts.values().sum();
        for (_, &c) in counts.iter() {
            let f = c as f64 / total as f64;
            assert!((f - 1.0 / 3.0).abs() < 0.03, "freq {f}");
        }
    }

    #[test]
    fn weighted_walk_biases_toward_heavy_edge() {
        // Triangle with one heavy edge from vertex 0.
        let g = generators::cycle(3);
        let mut weights = vec![1.0; 3];
        // Edge 0 joins (0,1) by construction of cycle().
        weights[0] = 9.0;
        let mut rng = SmallRng::seed_from_u64(6);
        let mut walk = WeightedRandomWalk::new(&g, 0, &weights);
        let mut to1 = 0u64;
        let mut total = 0u64;
        for _ in 0..60_000 {
            let s = walk.advance(&mut rng);
            if s.from == 0 {
                total += 1;
                if s.to == 1 {
                    to1 += 1;
                }
            }
        }
        let f = to1 as f64 / total as f64;
        // Edge (0,1) weight 9 vs edge (2,0) weight 1: expect 0.9.
        assert!((f - 0.9).abs() < 0.02, "freq {f}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_rejects_bad_weights() {
        let g = generators::cycle(3);
        let _ = WeightedRandomWalk::new(&g, 0, &[1.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "one weight per edge")]
    fn weighted_rejects_wrong_length() {
        let g = generators::cycle(3);
        let _ = WeightedRandomWalk::new(&g, 0, &[1.0, 1.0]);
    }
}
