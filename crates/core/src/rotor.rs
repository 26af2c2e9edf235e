//! The rotor-router (Propp machine) — a fully deterministic explorer.
//!
//! Related work in §1 of the paper: each vertex cycles through its ports in
//! a fixed order; cover time is `O(mD)` (Yanovski–Wagner–Bruckstein). The
//! E-process "can be seen as a hybrid between a rotor-router and a random
//! walk", so this is the deterministic endpoint of the comparison table.

use crate::process::{Step, StepKind, WalkProcess};
use eproc_graphs::{Graph, Vertex};
use rand::RngCore;

/// The rotor-router walk. Deterministic: `advance` ignores the RNG.
#[derive(Debug, Clone)]
pub struct RotorRouter<'g> {
    g: &'g Graph,
    current: Vertex,
    steps: u64,
    rotor: Vec<u32>,
}

impl<'g> RotorRouter<'g> {
    /// Creates a rotor-router at `start` with all rotors at port 0.
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()`.
    pub fn new(g: &'g Graph, start: Vertex) -> RotorRouter<'g> {
        assert!(start < g.n(), "start vertex {start} out of range");
        RotorRouter {
            g,
            current: start,
            steps: 0,
            rotor: vec![0; g.n()],
        }
    }

    /// Current rotor position (next port index) of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= g.n()`.
    pub fn rotor_position(&self, v: Vertex) -> usize {
        self.rotor[v] as usize
    }
}

impl<'g> WalkProcess for RotorRouter<'g> {
    fn graph(&self) -> &Graph {
        self.g
    }

    fn current(&self) -> Vertex {
        self.current
    }

    fn steps(&self) -> u64 {
        self.steps
    }

    fn advance<R: RngCore + ?Sized>(&mut self, _rng: &mut R) -> Step {
        let v = self.current;
        let d = self.g.degree(v);
        assert!(d > 0, "rotor-router stuck at isolated vertex {v}");
        let port = self.rotor[v] as usize;
        self.rotor[v] = ((port + 1) % d) as u32;
        let arc = self.g.arc_range(v).start + port;
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
    fn deterministic_regardless_of_rng() {
        let g = generators::torus2d(3, 3);
        let mut r1 = RotorRouter::new(&g, 0);
        let mut r2 = RotorRouter::new(&g, 0);
        let mut rng1 = SmallRng::seed_from_u64(1);
        let mut rng2 = SmallRng::seed_from_u64(999);
        for _ in 0..500 {
            assert_eq!(r1.advance(&mut rng1), r2.advance(&mut rng2));
        }
    }

    #[test]
    fn rotor_cycles_ports() {
        let g = generators::star(4); // center 0 has 3 ports
        let mut r = RotorRouter::new(&g, 0);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut targets = Vec::new();
        for _ in 0..6 {
            let s = r.advance(&mut rng); // from center to a leaf
            targets.push(s.to);
            let back = r.advance(&mut rng); // leaf always returns
            assert_eq!(back.to, 0);
        }
        assert_eq!(targets, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn covers_cycle_in_n_steps() {
        let g = generators::cycle(12);
        let mut r = RotorRouter::new(&g, 0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = vec![false; g.n()];
        seen[0] = true;
        let mut t = 0u64;
        while seen.iter().any(|&s| !s) {
            let s = r.advance(&mut rng);
            seen[s.to] = true;
            t += 1;
            assert!(t < 10_000, "rotor must cover the cycle quickly");
        }
        // Port 0 everywhere walks around the cycle one way: exactly n-1.
        assert!(t <= 2 * g.n() as u64);
    }

    #[test]
    fn eventually_traverses_every_edge_in_both_directions() {
        // Classic rotor-router property: after stabilisation the walk is an
        // Eulerian circulation of the doubled digraph.
        let g = generators::complete(4);
        let mut r = RotorRouter::new(&g, 0);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut arc_used = vec![false; 2 * g.m()];
        for _ in 0..10 * 2 * g.m() {
            let before = r.current();
            let s = r.advance(&mut rng);
            // Locate the arc that was taken.
            let arc = g
                .arc_range(before)
                .find(|&a| g.arc_edge(a) == s.edge.unwrap() && g.arc_target(a) == s.to)
                .unwrap();
            arc_used[arc] = true;
        }
        assert!(
            arc_used.iter().all(|&u| u),
            "every arc is used in O(mD) steps"
        );
    }
}
