//! Locally fair exploration: Oldest-First and Least-Used-First.
//!
//! Cooper–Ilcinkas–Klasing–Kosowski (reference \[5\] of the paper): at each
//! vertex the explorer picks either the incident edge that has waited
//! longest since its last traversal (**Oldest-First**, which can be
//! exponentially slow on some graphs) or the incident edge traversed the
//! fewest times (**Least-Used-First**, which covers in `O(mD)`). Both are
//! deterministic given a tie-breaking order; ties are broken by port
//! order here.

use crate::process::{Step, StepKind, WalkProcess};
use eproc_graphs::{EdgeId, Graph, Vertex};
use rand::RngCore;

/// Shared state machine for the two locally fair strategies.
#[derive(Debug, Clone)]
struct FairState<'g> {
    g: &'g Graph,
    current: Vertex,
    steps: u64,
    last_used: Vec<u64>, // per edge; 0 = never, else step index + 1
    use_count: Vec<u64>, // per edge
}

impl<'g> FairState<'g> {
    fn new(g: &'g Graph, start: Vertex) -> FairState<'g> {
        assert!(start < g.n(), "start vertex {start} out of range");
        FairState {
            g,
            current: start,
            steps: 0,
            last_used: vec![0; g.m()],
            use_count: vec![0; g.m()],
        }
    }

    fn step_along(&mut self, arc: usize) -> Step {
        let v = self.current;
        let e = self.g.arc_edge(arc);
        let to = self.g.arc_target(arc);
        let kind = if self.use_count[e] == 0 {
            StepKind::Blue
        } else {
            StepKind::Red
        };
        self.use_count[e] += 1;
        self.last_used[e] = self.steps + 1;
        self.current = to;
        self.steps += 1;
        Step {
            from: v,
            to,
            edge: Some(e),
            kind,
        }
    }
}

/// Oldest-First: traverse the incident edge least recently used.
#[derive(Debug, Clone)]
pub struct OldestFirst<'g> {
    state: FairState<'g>,
}

impl<'g> OldestFirst<'g> {
    /// Creates the explorer at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()`.
    pub fn new(g: &'g Graph, start: Vertex) -> OldestFirst<'g> {
        OldestFirst {
            state: FairState::new(g, start),
        }
    }

    /// Times edge `e` has been traversed.
    ///
    /// # Panics
    ///
    /// Panics if `e >= g.m()`.
    pub fn use_count(&self, e: EdgeId) -> u64 {
        self.state.use_count[e]
    }
}

impl<'g> WalkProcess for OldestFirst<'g> {
    fn graph(&self) -> &Graph {
        self.state.g
    }

    fn current(&self) -> Vertex {
        self.state.current
    }

    fn steps(&self) -> u64 {
        self.state.steps
    }

    fn advance<R: RngCore + ?Sized>(&mut self, _rng: &mut R) -> Step {
        let v = self.state.current;
        let range = self.state.g.arc_range(v);
        assert!(!range.is_empty(), "explorer stuck at isolated vertex {v}");
        // The lowest port among the smallest keys, by a plain loop: a
        // `min_by_key` fold is a generic instance of its own, inlined or
        // not depending on how a build splits codegen units, and out of
        // line it made this walk about a fifth slower.
        let s = &self.state;
        let key = |a: usize| s.last_used[s.g.arc_edge(a)];
        let (mut arc, mut best) = (range.start, key(range.start));
        for a in range.start + 1..range.end {
            let k = key(a);
            if k < best {
                (arc, best) = (a, k);
            }
        }
        self.state.step_along(arc)
    }
}

/// Least-Used-First: traverse the incident edge with the fewest traversals.
/// Covers all edges in `O(m|D|)` and equalises traversal frequencies in the
/// long run (\[5\]).
#[derive(Debug, Clone)]
pub struct LeastUsedFirst<'g> {
    state: FairState<'g>,
}

impl<'g> LeastUsedFirst<'g> {
    /// Creates the explorer at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()`.
    pub fn new(g: &'g Graph, start: Vertex) -> LeastUsedFirst<'g> {
        LeastUsedFirst {
            state: FairState::new(g, start),
        }
    }

    /// Times edge `e` has been traversed.
    ///
    /// # Panics
    ///
    /// Panics if `e >= g.m()`.
    pub fn use_count(&self, e: EdgeId) -> u64 {
        self.state.use_count[e]
    }
}

impl<'g> WalkProcess for LeastUsedFirst<'g> {
    fn graph(&self) -> &Graph {
        self.state.g
    }

    fn current(&self) -> Vertex {
        self.state.current
    }

    fn steps(&self) -> u64 {
        self.state.steps
    }

    fn advance<R: RngCore + ?Sized>(&mut self, _rng: &mut R) -> Step {
        let v = self.state.current;
        let range = self.state.g.arc_range(v);
        assert!(!range.is_empty(), "explorer stuck at isolated vertex {v}");
        // The lowest port among the smallest keys, by a plain loop (see
        // `OldestFirst::advance`).
        let s = &self.state;
        let key = |a: usize| {
            let e = s.g.arc_edge(a);
            (s.use_count[e], s.last_used[e])
        };
        let (mut arc, mut best) = (range.start, key(range.start));
        for a in range.start + 1..range.end {
            let k = key(a);
            if k < best {
                (arc, best) = (a, k);
            }
        }
        self.state.step_along(arc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eproc_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn both_are_deterministic() {
        let g = generators::torus2d(3, 3);
        let mut rng_a = SmallRng::seed_from_u64(1);
        let mut rng_b = SmallRng::seed_from_u64(2);
        let mut a = LeastUsedFirst::new(&g, 0);
        let mut b = LeastUsedFirst::new(&g, 0);
        for _ in 0..300 {
            assert_eq!(a.advance(&mut rng_a), b.advance(&mut rng_b));
        }
        let mut a = OldestFirst::new(&g, 0);
        let mut b = OldestFirst::new(&g, 0);
        for _ in 0..300 {
            assert_eq!(a.advance(&mut rng_a), b.advance(&mut rng_b));
        }
    }

    #[test]
    fn first_traversals_are_blue() {
        let g = generators::cycle(6);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut w = LeastUsedFirst::new(&g, 0);
        for _ in 0..g.m() {
            assert_eq!(w.advance(&mut rng).kind, StepKind::Blue);
        }
        assert_eq!(w.advance(&mut rng).kind, StepKind::Red);
    }

    #[test]
    fn least_used_covers_edges_in_m_diameter_steps() {
        // [5]: LUF covers all edges in O(m·D).
        for g in [
            generators::torus2d(4, 4),
            generators::complete(6),
            generators::petersen(),
        ] {
            let d = eproc_graphs::properties::diameter::diameter_exact(&g).unwrap() as u64;
            let bound = 10 * g.m() as u64 * (d + 1);
            let mut rng = SmallRng::seed_from_u64(4);
            let mut w = LeastUsedFirst::new(&g, 0);
            let mut covered = 0;
            let mut t = 0u64;
            let mut seen = vec![false; g.m()];
            while covered < g.m() {
                let s = w.advance(&mut rng);
                let e = s.edge.unwrap();
                if !seen[e] {
                    seen[e] = true;
                    covered += 1;
                }
                t += 1;
                assert!(t <= bound, "LUF exceeded O(mD) bound on {g:?}");
            }
        }
    }

    #[test]
    fn least_used_equalises_frequencies() {
        let g = generators::cycle(5);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut w = LeastUsedFirst::new(&g, 0);
        for _ in 0..5_000 {
            w.advance(&mut rng);
        }
        let counts: Vec<u64> = (0..g.m()).map(|e| w.use_count(e)).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max - min <= max / 2,
            "LUF frequencies should be balanced: {counts:?}"
        );
    }

    #[test]
    fn oldest_first_covers_small_graphs() {
        // OF can be exponential in general but is fine on a small torus.
        let g = generators::torus2d(3, 3);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut w = OldestFirst::new(&g, 0);
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
}
