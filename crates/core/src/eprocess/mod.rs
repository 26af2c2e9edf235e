//! The E-process (edge-process) engine.
//!
//! §1 of the paper: *"Initially all edges of `G` are marked as unvisited. At
//! each step the edge-process makes a transition to a neighbour of the
//! currently occupied vertex as follows: If there are unvisited edges
//! incident with the current vertex pick one, make a transition along this
//! edge and mark the edge as visited. If there are no unvisited edges
//! incident with the current vertex, move to a u.a.r. neighbour using a
//! simple random walk. We assume there is a rule `A`, which tells the walk
//! how to choose among unvisited edges."*
//!
//! # Step state
//!
//! The engine keeps, per vertex, a compacted "live prefix" of the unvisited
//! incident arcs with positional back-pointers, so that marking an edge
//! visited (which removes it at *both* endpoints) and choosing uniformly
//! among unvisited edges are both `O(1)`. The state is laid out so that a
//! step's only *dependent* cache miss is the next vertex's rows:
//!
//! * `rows[v] = [base, live]`, side by side as `[u32; 2]`: where `v`'s
//!   arcs start and how many of them are still unvisited (its blue
//!   degree). A final sentinel row `[2m, 0]` makes the degree
//!   `rows[v + 1][0] - base`, so one row pair replaces the graph's
//!   `offsets` array on the hot path.
//! * `slots: Vec<u32>`: arc ids grouped by source vertex, the first `live`
//!   of each row unvisited; `pos: Vec<u32>` is its inverse.
//! * The graph's per-arc `arc_targets`, `arc_edges` and `arc_twins`: a
//!   blue step unlinks the chosen arc at the slot it was chosen from and
//!   its twin in the row of the vertex it moves to — no edge-indexed
//!   lookup.
//!
//! Every step ends by loading the first entries of the new vertex's arc
//! row through [`std::hint::black_box`] (the safe-code prefetch of
//! [`Graph::prefetch_arcs`]), so those lines are in flight while the next
//! step's rule draws its choice. The unvisited-edge count is derived as
//! `m − blue_steps`, not maintained. Each step is `O(1)` (plus whatever the
//! rule itself costs), which is what makes the paper-scale Figure 1 runs
//! (`n` up to 5·10⁵) practical.

pub mod rule;

use crate::bitset::BitSet;
use crate::process::{Step, StepKind, WalkProcess};
use eproc_graphs::{EdgeId, Graph, Vertex};
use rand::{Rng, RngCore};
use rule::{EdgeRule, RuleContext, UniformRule};

/// The E-process: a walk preferring unvisited edges, with pluggable rule
/// `A` for choosing among them.
///
/// See the [module documentation](self) for the definition and the step
/// state's layout. With [`UniformRule`] this is exactly the *greedy random
/// walk* of Orenshtein–Shinkar (reference \[13\] of the paper) — the alias
/// [`GreedyRandomWalk`] is provided for that reading.
#[derive(Debug, Clone)]
pub struct EProcess<'g, A> {
    g: &'g Graph,
    rule: A,
    current: Vertex,
    start: Vertex,
    steps: u64,
    blue_steps: u64,
    red_steps: u64,
    visited_edge: BitSet,
    /// `rows[v] = [base, live]`: `v`'s arcs occupy `slots[base..]` up to
    /// the next row's base, and the first `live` of them are unvisited.
    /// `rows[n] = [2m, 0]` is the end sentinel.
    rows: Vec<[u32; 2]>,
    /// Arc ids grouped by source vertex, live prefix first.
    slots: Vec<u32>,
    /// `pos[a]` = current index of arc `a` inside `slots`.
    pos: Vec<u32>,
}

/// The greedy random walk of Orenshtein–Shinkar: the E-process whose rule
/// `A` picks an unvisited edge uniformly at random.
pub type GreedyRandomWalk<'g> = EProcess<'g, UniformRule>;

impl<'g, A: EdgeRule> EProcess<'g, A> {
    /// Creates an E-process at `start` with all edges unvisited.
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()`.
    pub fn new(g: &'g Graph, start: Vertex, rule: A) -> EProcess<'g, A> {
        assert!(start < g.n(), "start vertex {start} out of range");
        let mut walk = EProcess {
            g,
            rule,
            current: start,
            start,
            steps: 0,
            blue_steps: 0,
            red_steps: 0,
            visited_edge: BitSet::with_len(g.m()),
            rows: vec![[0, 0]; g.n() + 1],
            slots: vec![0; g.total_degree()],
            pos: vec![0; g.total_degree()],
        };
        walk.rearm();
        walk
    }

    /// The start vertex.
    pub fn start(&self) -> Vertex {
        self.start
    }

    /// Number of blue (unvisited-edge) transitions so far — `t_B` in
    /// Observation 12, which guarantees `t_B <= m`.
    pub fn blue_steps(&self) -> u64 {
        self.blue_steps
    }

    /// Number of red (random-walk) transitions so far — `t_R`.
    pub fn red_steps(&self) -> u64 {
        self.red_steps
    }

    /// `true` if edge `e` has been traversed.
    ///
    /// # Panics
    ///
    /// Panics if `e >= g.m()`.
    pub fn edge_visited(&self, e: EdgeId) -> bool {
        self.visited_edge.get(e)
    }

    /// The per-edge visited bitmap (red edges are `true`), word-packed so
    /// that per-trial resets touch `m / 64` words.
    pub fn visited_edges(&self) -> &BitSet {
        &self.visited_edge
    }

    /// Number of still-unvisited (blue) edges: every blue step visits
    /// exactly one new edge, so this is `m − blue_steps`.
    pub fn unvisited_edge_count(&self) -> usize {
        self.g.m() - self.blue_steps as usize
    }

    /// Blue degree of `v`: the number of unvisited edges incident with it.
    ///
    /// # Panics
    ///
    /// Panics if `v >= g.n()`.
    pub fn blue_degree(&self, v: Vertex) -> usize {
        assert!(v < self.g.n(), "vertex {v} out of range");
        self.rows[v][1] as usize
    }

    /// `true` if the next transition will be blue (the current vertex has
    /// unvisited incident edges).
    pub fn in_blue_phase(&self) -> bool {
        self.rows[self.current][1] > 0
    }

    /// The unvisited arcs at the current vertex (what rule `A` sees).
    pub fn live_arcs(&self) -> &[u32] {
        let [base, live] = self.rows[self.current];
        &self.slots[base as usize..(base + live) as usize]
    }

    /// Access to the rule, e.g. to inspect adversary state.
    pub fn rule(&self) -> &A {
        &self.rule
    }

    /// Resets the process to a fresh state at `start` — all edges
    /// unvisited, counters zeroed, rule state re-armed via
    /// [`EdgeRule::reset`] — reusing the existing allocations. The edge
    /// bitmap is word-packed, so the per-reset cost is `m / 64` word
    /// writes plus the `O(n + m)` row/slot/pos rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()`.
    pub fn reset(&mut self, start: Vertex) {
        assert!(start < self.g.n(), "start vertex {start} out of range");
        self.current = start;
        self.start = start;
        self.steps = 0;
        self.blue_steps = 0;
        self.red_steps = 0;
        self.visited_edge.clear();
        self.rule.reset();
        self.rearm();
    }

    /// Marks every arc live: identity `slots`/`pos`, full-degree rows.
    fn rearm(&mut self) {
        // `Graph` guarantees n and 2m fit in u32, so these casts are exact.
        for (i, (slot, p)) in self.slots.iter_mut().zip(&mut self.pos).enumerate() {
            *slot = i as u32;
            *p = i as u32;
        }
        for (v, row) in self.rows.iter_mut().enumerate().take(self.g.n()) {
            let r = self.g.arc_range(v);
            *row = [r.start as u32, r.len() as u32];
        }
        self.rows[self.g.n()] = [self.g.total_degree() as u32, 0];
    }

    /// Unlinks the live arc at slot index `p` of `v`'s row, swapping it
    /// with the row's last live arc, in `O(1)`.
    #[inline]
    fn unlink_at(&mut self, p: usize, v: Vertex) {
        let [base, live] = self.rows[v];
        let last = (base + live - 1) as usize;
        debug_assert!(
            p >= base as usize && p <= last,
            "slot {p} not in the live prefix of vertex {v}"
        );
        let arc = self.slots[p];
        let moved = self.slots[last];
        self.slots[p] = moved;
        self.slots[last] = arc;
        self.pos[moved as usize] = p as u32;
        self.pos[arc as usize] = last as u32;
        self.rows[v][1] = live - 1;
    }
}

impl<'g, A: EdgeRule> WalkProcess for EProcess<'g, A> {
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
        // One row pair serves the arc base, the blue degree and the degree.
        let [base, live] = self.rows[v];
        let (base, live) = (base as usize, live as usize);
        let degree = self.rows[v + 1][0] as usize - base;
        assert!(degree > 0, "E-process stuck at isolated vertex {v}");
        let (p, kind) = if live > 0 {
            let ctx = RuleContext {
                graph: self.g,
                vertex: v,
                live_arcs: &self.slots[base..base + live],
                step: self.steps,
            };
            let idx = self.rule.choose(&ctx, rng);
            assert!(
                idx < live,
                "rule chose index {idx} among {live} unvisited edges"
            );
            (base + idx, StepKind::Blue)
        } else {
            (base + rng.gen_range(0..degree), StepKind::Red)
        };
        let arc = self.slots[p] as usize;
        let e = self.g.arc_edge(arc);
        let to = self.g.arc_target(arc);
        if kind == StepKind::Blue {
            debug_assert!(!self.visited_edge.get(e));
            self.visited_edge.set(e);
            // The chosen arc sits at slot `p` of `v`'s row; its twin leaves
            // `to`, whose row the next step reads anyway.
            self.unlink_at(p, v);
            let twin = self.g.arc_twin(arc);
            self.unlink_at(self.pos[twin] as usize, to);
            self.blue_steps += 1;
        } else {
            self.red_steps += 1;
        }
        self.current = to;
        self.steps += 1;
        // Request `to`'s arc row now, so its lines are in flight while the
        // next step's rule draws.
        let next = self.rows[to][0] as usize;
        if let Some(&s) = self.slots.get(next) {
            std::hint::black_box(s);
        }
        self.g.prefetch_arcs(next);
        Step {
            from: v,
            to,
            edge: Some(e),
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rule::{AdversarialRule, FirstPortRule, RoundRobinRule, UniformRule};
    use super::*;
    use eproc_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run_steps<A: EdgeRule>(
        walk: &mut EProcess<'_, A>,
        k: usize,
        rng: &mut SmallRng,
    ) -> Vec<Step> {
        (0..k).map(|_| walk.advance(rng)).collect()
    }

    #[test]
    fn initial_state() {
        let g = generators::cycle(5);
        let walk = EProcess::new(&g, 2, UniformRule::new());
        assert_eq!(walk.current(), 2);
        assert_eq!(walk.start(), 2);
        assert_eq!(walk.steps(), 0);
        assert_eq!(walk.unvisited_edge_count(), 5);
        assert_eq!(walk.blue_degree(2), 2);
        assert!(walk.in_blue_phase());
        assert_eq!(walk.live_arcs().len(), 2);
    }

    #[test]
    fn first_steps_are_blue_until_exhaustion() {
        let g = generators::cycle(6);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        // On a cycle the blue walk traverses the whole cycle: 6 blue steps.
        let steps = run_steps(&mut walk, 6, &mut rng);
        assert!(steps.iter().all(|s| s.kind == StepKind::Blue));
        assert_eq!(walk.unvisited_edge_count(), 0);
        assert_eq!(
            walk.current(),
            0,
            "Observation 10: blue phase returns to start"
        );
        // Everything after is red.
        let steps = run_steps(&mut walk, 10, &mut rng);
        assert!(steps.iter().all(|s| s.kind == StepKind::Red));
        assert_eq!(walk.blue_steps(), 6);
        assert_eq!(walk.red_steps(), 10);
    }

    #[test]
    fn marking_is_consistent_at_both_endpoints() {
        let g = generators::figure_eight(4);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        for _ in 0..g.m() {
            let s = walk.advance(&mut rng);
            let e = s.edge.unwrap();
            assert!(walk.edge_visited(e));
            // Blue degrees always equal the count of unvisited incident edges.
            for v in g.vertices() {
                let expect = g
                    .ports(v)
                    .filter(|&(_, _, e)| !walk.edge_visited(e))
                    .count();
                assert_eq!(walk.blue_degree(v), expect, "vertex {v} after step {:?}", s);
            }
        }
        assert_eq!(walk.unvisited_edge_count(), 0);
    }

    #[test]
    fn blue_steps_bounded_by_m() {
        // Observation 12: t_B <= m, always.
        let g = generators::torus2d(4, 4);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut walk = EProcess::new(&g, 3, UniformRule::new());
        for _ in 0..10_000 {
            walk.advance(&mut rng);
        }
        assert!(walk.blue_steps() <= g.m() as u64);
        assert_eq!(walk.blue_steps() + walk.red_steps(), walk.steps());
    }

    #[test]
    fn first_port_rule_is_deterministic() {
        let g = generators::torus2d(3, 3);
        let mut rng1 = SmallRng::seed_from_u64(3);
        let mut rng2 = SmallRng::seed_from_u64(4); // different RNG!
        let mut w1 = EProcess::new(&g, 0, FirstPortRule);
        let mut w2 = EProcess::new(&g, 0, FirstPortRule);
        // Blue phases use no randomness under FirstPortRule: identical
        // trajectories until the first red step.
        for _ in 0..g.m() {
            if !w1.in_blue_phase() || !w2.in_blue_phase() {
                break;
            }
            let s1 = w1.advance(&mut rng1);
            let s2 = w2.advance(&mut rng2);
            assert_eq!(s1, s2);
        }
    }

    #[test]
    fn adversarial_rule_sees_true_state() {
        let g = generators::complete(5);
        let mut rng = SmallRng::seed_from_u64(5);
        // Adversary always picks the last live arc.
        let rule = AdversarialRule::new(|ctx: &RuleContext<'_>| ctx.live_arcs.len() - 1);
        let mut walk = EProcess::new(&g, 0, rule);
        for _ in 0..g.m() {
            assert!(
                walk.in_blue_phase(),
                "K5 is Eulerian: one blue phase covers all edges"
            );
            walk.advance(&mut rng);
        }
        assert_eq!(walk.unvisited_edge_count(), 0);
        assert_eq!(walk.current(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_start_panics() {
        let g = generators::cycle(4);
        let _ = EProcess::new(&g, 9, UniformRule::new());
    }

    #[test]
    fn reset_restores_fresh_state() {
        let g = generators::torus2d(4, 4);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut walk = EProcess::new(&g, 3, UniformRule::new());
        for _ in 0..100 {
            walk.advance(&mut rng);
        }
        walk.reset(7);
        assert_eq!(walk.current(), 7);
        assert_eq!(walk.start(), 7);
        assert_eq!(walk.steps(), 0);
        assert_eq!(walk.unvisited_edge_count(), g.m());
        for v in g.vertices() {
            assert_eq!(walk.blue_degree(v), g.degree(v));
        }
        // A reset walk with the same RNG stream behaves like a fresh one.
        let mut fresh = EProcess::new(&g, 7, UniformRule::new());
        let mut rng_a = SmallRng::seed_from_u64(17);
        let mut rng_b = SmallRng::seed_from_u64(17);
        for _ in 0..200 {
            assert_eq!(walk.advance(&mut rng_a), fresh.advance(&mut rng_b));
        }
    }

    #[test]
    fn reset_rearms_rule_state() {
        let g = generators::torus2d(4, 4);
        let mut rng = SmallRng::seed_from_u64(11);
        // Round-robin carries per-vertex counters: a reset walk must
        // replay the exact trajectory of a freshly built process.
        let mut walk = EProcess::new(&g, 0, RoundRobinRule::new(g.n()));
        for _ in 0..50 {
            walk.advance(&mut rng);
        }
        walk.reset(0);
        let mut fresh = EProcess::new(&g, 0, RoundRobinRule::new(g.n()));
        let mut rng_a = SmallRng::seed_from_u64(21);
        let mut rng_b = SmallRng::seed_from_u64(21);
        for _ in 0..100 {
            assert_eq!(walk.advance(&mut rng_a), fresh.advance(&mut rng_b));
        }
        // Adversarial rule: the decision counter re-zeroes on reset.
        let mut adv = EProcess::new(&g, 0, AdversarialRule::new(|_: &RuleContext<'_>| 0));
        for _ in 0..10 {
            adv.advance(&mut rng);
        }
        assert!(adv.rule().decisions() > 0);
        adv.reset(0);
        assert_eq!(adv.rule().decisions(), 0);
    }

    #[test]
    fn odd_degree_graph_still_runs() {
        // The E-process is defined on any graph; only the theorems need
        // even degree. On Petersen the blue phase may strand edges.
        let g = generators::petersen();
        let mut rng = SmallRng::seed_from_u64(6);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        for _ in 0..5000 {
            walk.advance(&mut rng);
        }
        assert_eq!(
            walk.unvisited_edge_count(),
            0,
            "SRW fallback eventually finds all edges"
        );
    }
}
