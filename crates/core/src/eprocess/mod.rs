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
//! incident arcs, so that choosing uniformly among unvisited edges and
//! marking an edge visited (which removes it at *both* endpoints) are a
//! draw and two swaps:
//!
//! * `rows[v] = [base, live]`, side by side as `[u32; 2]`: where `v`'s
//!   arcs start and how many of them are still unvisited. A final
//!   sentinel row `[2m, 0]` makes the degree `rows[v + 1][0] - base`, so
//!   one row pair replaces the graph's `offsets` array on the hot path.
//! * `slots: Vec<u16>`: *ports*, the offsets of arcs within their source's
//!   row, grouped by source vertex; the first `live` of each row are
//!   unvisited, and port `p` of the row at `base` is arc `base + p`. Port
//!   order is arc-id order. Sixteen bits hold every port of a vertex of
//!   degree at most [`MAX_DEGREE`] = 65,536, which [`EProcess::new`]
//!   checks. Within the graph's `u32` arc ids, a complete graph has
//!   degree at most 65,535, a lollipop's junction at most 65,536, and an
//!   LPS graph far less, so none of them can pass the limit.
//! * The graph's per-arc `arc_targets`, `arc_edges` and `arc_twins`.
//!
//! `slots` keeps no inverse: a live arc starts at its own index and moves
//! only when a swap fills a hole with it, so the twin of a crossed arc is
//! at its own index if `base + slots[twin] == twin`, and otherwise found by
//! scanning the live prefix of the vertex the walk moved to. A step is
//! `O(1)`, plus whatever the rule costs, except in that scan, which is
//! `O(blue degree)` of the new vertex.
//!
//! # The pending twin
//!
//! A blue step unlinks the crossed arc from the current row at once, but
//! leaves its twin, in the row of the vertex it moves to, *pending*: the
//! next step unlinks it first thing, before its rule reads that row. In
//! between, the step only requests the lines that unlink reads — the
//! twin's slot, its arc entries ([`Graph::prefetch_arcs`]) and the new
//! vertex's row pair — through [`eproc_sys::prefetch`], and returns
//! without waiting on any of them, so independent walks stepped in
//! lockstep ([`crate::interleave`]) overlap their misses. The rule sees
//! the same live prefix, in the same order, as if the twin had been
//! unlinked in the step that crossed it, and no RNG draw moves.
//!
//! The live prefixes are the only visited-edge record: an edge is
//! *visited* once its arcs have left their rows' live prefixes or one of
//! them is the pending twin, which [`EProcess::edge_visited`] tests; the
//! other accessors count the pending twin as unlinked too. The step count
//! and the unvisited-edge count `m − blue_steps` are derived.

pub mod rule;

use crate::process::{Step, StepKind, WalkProcess};
use eproc_graphs::{EdgeId, Graph, Vertex};
use rand::{Rng, RngCore};
use rule::{EdgeRule, RuleContext, UniformRule};

/// The largest vertex degree the E-process accepts: `slots` stores ports
/// in 16 bits (see the [module documentation](self)).
pub const MAX_DEGREE: usize = 1 << 16;

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
    blue_steps: u64,
    red_steps: u64,
    /// `rows[v] = [base, live]`: `v`'s ports occupy `slots[base..]` up to
    /// the next row's base, and the first `live` of them are unvisited,
    /// the pending twin included. `rows[n] = [2m, 0]` is the end sentinel.
    rows: Vec<[u32; 2]>,
    /// Ports grouped by source vertex, live prefix first.
    slots: Vec<u16>,
    /// The twin of the last blue step's arc: visited, but still in the
    /// current vertex's live prefix until the next step unlinks it.
    pending: Option<usize>,
}

/// The greedy random walk of Orenshtein–Shinkar: the E-process whose rule
/// `A` picks an unvisited edge uniformly at random.
pub type GreedyRandomWalk<'g> = EProcess<'g, UniformRule>;

impl<'g, A: EdgeRule> EProcess<'g, A> {
    /// Creates an E-process at `start` with all edges unvisited.
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()`, or if a vertex of `g` has degree above
    /// [`MAX_DEGREE`].
    pub fn new(g: &'g Graph, start: Vertex, rule: A) -> EProcess<'g, A> {
        assert!(start < g.n(), "start vertex {start} out of range");
        let degree = g.max_degree();
        assert!(
            degree <= MAX_DEGREE,
            "max degree {degree} is above the E-process's limit of {MAX_DEGREE} (16-bit ports)"
        );
        let mut walk = EProcess {
            g,
            rule,
            current: start,
            blue_steps: 0,
            red_steps: 0,
            rows: vec![[0, 0]; g.n() + 1],
            slots: vec![0; g.total_degree()],
            pending: None,
        };
        walk.rearm();
        walk
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

    /// `true` if edge `e` has been traversed: its first arc has left the
    /// live prefix of its source's row, or one of its arcs is the pending
    /// twin.
    ///
    /// # Panics
    ///
    /// Panics if `e >= g.m()`.
    pub fn edge_visited(&self, e: EdgeId) -> bool {
        let (a, b) = self.g.edge_arcs(e);
        let [base, live] = self.rows[self.g.arc_target(b)];
        self.pending == Some(a) || self.live_slot(a, base as usize, live as usize).is_none()
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
        let pending_here = self.pending.is_some() && v == self.current;
        self.rows[v][1] as usize - usize::from(pending_here)
    }

    /// `true` if the next transition will be blue (the current vertex has
    /// unvisited incident edges).
    pub fn in_blue_phase(&self) -> bool {
        self.blue_degree(self.current) > 0
    }

    /// The unvisited arcs at the current vertex, as arc ids, in the order
    /// rule `A` sees their ports at the next step.
    pub fn live_arcs(&self) -> Vec<usize> {
        let [base, live] = self.rows[self.current];
        let (base, live) = (base as usize, live as usize);
        let mut ports = self.slots[base..base + live].to_vec();
        if let Some(twin) = self.pending {
            let q = self
                .live_slot(twin, base, live)
                .expect("the pending twin is live");
            ports.swap_remove(q - base);
        }
        ports.into_iter().map(|p| base + p as usize).collect()
    }

    /// Access to the rule, e.g. to inspect adversary state.
    pub fn rule(&self) -> &A {
        &self.rule
    }

    /// Resets the process to a fresh state at `start` — all edges
    /// unvisited, counters zeroed, rule state re-armed via
    /// [`EdgeRule::reset`] — reusing the existing allocations. The cost
    /// is the `O(n + m)` row and slot rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `start >= g.n()`.
    pub fn reset(&mut self, start: Vertex) {
        assert!(start < self.g.n(), "start vertex {start} out of range");
        self.current = start;
        self.blue_steps = 0;
        self.red_steps = 0;
        self.pending = None;
        self.rule.reset();
        self.rearm();
    }

    /// Marks every arc live: identity ports, full-degree rows.
    fn rearm(&mut self) {
        // `Graph` guarantees n and 2m fit in u32, and `new` that every
        // port fits in u16, so these casts are exact.
        for (v, row) in self.rows.iter_mut().enumerate().take(self.g.n()) {
            let r = self.g.arc_range(v);
            *row = [r.start as u32, r.len() as u32];
            for (port, slot) in self.slots[r].iter_mut().enumerate() {
                *slot = port as u16;
            }
        }
        self.rows[self.g.n()] = [self.g.total_degree() as u32, 0];
    }

    /// The slot of arc `a` in the live prefix `slots[base..base + live]`
    /// of its source's row, or `None` once `a` has left it: `a` itself if
    /// no swap has moved the arc, else found by scanning the prefix.
    #[inline]
    fn live_slot(&self, a: usize, base: usize, live: usize) -> Option<usize> {
        let end = base + live;
        if base + self.slots[a] as usize == a {
            return (a < end).then_some(a);
        }
        let port = (a - base) as u16;
        let i = self.slots[base..end].iter().position(|&s| s == port)?;
        Some(base + i)
    }

    /// Unlinks the live arc at slot index `p` of `v`'s row, whose live
    /// prefix is `slots[base..base + live]`, swapping it with the row's
    /// last live arc, in `O(1)`.
    #[inline]
    fn unlink_at(&mut self, p: usize, v: Vertex, base: usize, live: usize) {
        let last = base + live - 1;
        debug_assert!(
            p >= base && p <= last,
            "slot {p} not in the live prefix of vertex {v}"
        );
        self.slots.swap(p, last);
        self.rows[v][1] = (live - 1) as u32;
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
        self.blue_steps + self.red_steps
    }

    fn advance<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> Step {
        let v = self.current;
        // One row pair serves the arc base, the blue degree and the degree.
        let [base, live] = self.rows[v];
        let (base, mut live) = (base as usize, live as usize);
        // The last step requested these lines and left its twin here.
        if let Some(twin) = self.pending.take() {
            let q = self
                .live_slot(twin, base, live)
                .expect("a blue arc's twin is live");
            self.unlink_at(q, v, base, live);
            live -= 1;
        }
        let degree = self.rows[v + 1][0] as usize - base;
        assert!(degree > 0, "E-process stuck at isolated vertex {v}");
        let (p, kind) = if live > 0 {
            let ctx = RuleContext {
                graph: self.g,
                vertex: v,
                live_ports: &self.slots[base..base + live],
                first_arc: base,
                step: self.steps(),
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
        let arc = base + self.slots[p] as usize;
        let e = self.g.arc_edge(arc);
        let to = self.g.arc_target(arc);
        // The next step starts at `to` from the twin: request the twin's
        // slot, its arc entries and `to`'s row pair, and wait on none.
        let twin = self.g.arc_twin(arc);
        eproc_sys::prefetch(&self.slots[twin]);
        eproc_sys::prefetch(&self.rows[to]);
        self.g.prefetch_arcs(twin);
        if kind == StepKind::Blue {
            self.unlink_at(p, v, base, live);
            self.pending = Some(twin);
            self.blue_steps += 1;
        } else {
            self.red_steps += 1;
        }
        self.current = to;
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
    fn displaced_twin_is_found_by_scanning_the_live_prefix() {
        // Vertex 0 holds arcs 0..4 (edges 0, 1 and 2 to vertex 1, then edge
        // 4 to vertex 2), vertex 1 arcs 4..8 (edges 0, 1 and 2, then edge 3
        // to vertex 2). Lowest arc first, the walk crosses edges 0 and 1;
        // unlinking arc 5 fills its slot with arc 6, so when the walk then
        // crosses edge 2, that edge's twin arc 6 is off its own index.
        let g = Graph::from_edges(3, &[(0, 1), (0, 1), (0, 1), (1, 2), (2, 0)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut walk = EProcess::new(&g, 0, FirstPortRule);
        run_steps(&mut walk, 2, &mut rng);
        assert_eq!(walk.current(), 0);
        assert_eq!(walk.live_arcs(), [3, 2]);
        assert_eq!(g.arc_twin(2), 6);
        // Vertex 1's row starts at arc 4, so these ports are arcs 7, 6, 5, 4.
        assert_eq!(walk.slots[4..8], [3, 2, 1, 0], "arc 6 sits in slot 5");
        let step = walk.advance(&mut rng);
        assert_eq!(
            (step.to, step.edge, step.kind),
            (1, Some(2), StepKind::Blue)
        );
        assert_eq!(walk.live_arcs(), [7]);
        let visited: Vec<bool> = (0..g.m()).map(|e| walk.edge_visited(e)).collect();
        assert_eq!(visited, [true, true, true, false, false]);
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
        let rule = AdversarialRule::new(|ctx: &RuleContext<'_>| ctx.live_ports.len() - 1);
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
    fn degree_limit_is_the_largest_sixteen_bit_port() {
        // star(65_537)'s centre has degree 65,536: ports 0..=65,535.
        let g = generators::star(MAX_DEGREE + 1);
        assert_eq!(g.max_degree(), MAX_DEGREE);
        let mut rng = SmallRng::seed_from_u64(12);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        // Out along an unvisited edge, back along it (red): edge cover
        // at step 2m - 1.
        while walk.unvisited_edge_count() > 0 {
            walk.advance(&mut rng);
        }
        assert_eq!(walk.steps(), 2 * g.m() as u64 - 1);
        assert_eq!(walk.blue_steps(), g.m() as u64);
    }

    #[test]
    #[should_panic(expected = "above the E-process's limit of 65536")]
    fn degree_above_the_limit_panics() {
        let g = generators::star(MAX_DEGREE + 2);
        let _ = EProcess::new(&g, 1, UniformRule::new());
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
