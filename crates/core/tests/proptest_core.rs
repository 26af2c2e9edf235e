//! Property tests for the walk processes and the cover harness.

use eproc_core::choice::RandomWalkWithChoice;
use eproc_core::cover::{run_cover, CoverTarget};
use eproc_core::fair::{LeastUsedFirst, OldestFirst};
use eproc_core::rotor::RotorRouter;
use eproc_core::rule::{
    AdversarialRule, EdgeRule, FirstPortRule, GreedyAdversary, LastPortRule, RoundRobinRule,
    RuleContext, UniformRule,
};
use eproc_core::srw::{LazyRandomWalk, SimpleRandomWalk};
use eproc_core::vprocess::VProcess;
use eproc_core::{EProcess, Step, StepKind, WalkProcess};
use eproc_graphs::generators::{self, connected_random_geometric};
use eproc_graphs::{Graph, Vertex};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Strategy: a connected random simple graph on `3..=14` vertices.
fn arb_connected_graph() -> impl Strategy<Value = Graph> {
    (
        3usize..14,
        proptest::collection::vec(0usize..1000, 13),
        proptest::collection::vec((0usize..14, 0usize..14), 0..28),
    )
        .prop_map(|(n, parents, extra)| {
            let mut edges = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for v in 1..n {
                let p = parents[v - 1] % v;
                seen.insert((p, v));
                edges.push((p, v));
            }
            for (a, b) in extra {
                let (u, v) = (a % n, b % n);
                if u != v {
                    let key = (u.min(v), u.max(v));
                    if seen.insert(key) {
                        edges.push(key);
                    }
                }
            }
            Graph::from_edges(n, &edges).expect("valid by construction")
        })
}

/// Strategy: a connected random multigraph on `3..=14` vertices — a
/// random spanning tree whose edges appear one to three times each, plus
/// random extra edges, parallel edges kept.
fn arb_connected_multigraph() -> impl Strategy<Value = Graph> {
    (
        3usize..14,
        proptest::collection::vec(0usize..1000, 13),
        proptest::collection::vec((0usize..14, 0usize..14), 0..28),
        proptest::collection::vec(0u8..3, 13),
    )
        .prop_map(|(n, parents, extra, copies)| {
            let mut edges = Vec::new();
            for v in 1..n {
                let p = parents[v - 1] % v;
                for _ in 0..=copies[v - 1] {
                    edges.push((p, v));
                }
            }
            for (a, b) in extra {
                let (u, v) = (a % n, b % n);
                if u != v {
                    edges.push((u, v));
                }
            }
            Graph::from_edges(n, &edges).expect("valid by construction")
        })
}

/// Walks `walk` until well past its last blue step, keeping the set of
/// visited edges from the emitted steps alone (a step visits the edge it
/// crosses), and checks after every step that the compacted step state
/// agrees with it: [`EProcess::edge_visited`] for every edge, each
/// vertex's blue degree, the current vertex's live arcs as a set, and
/// the unvisited-edge count `m − blue_steps`. Parallel edges are where a
/// wrong twin pairing would hide: the counts would still agree, the live
/// arc *set* at the vertex just entered would not.
fn check_eprocess_state<A: EdgeRule>(
    g: &Graph,
    mut walk: EProcess<'_, A>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut visited = vec![false; g.m()];
    for _ in 0..4 * g.m() + 16 {
        let step = walk.advance(&mut rng);
        let crossed = step.edge.expect("every E-process step crosses an edge");
        prop_assert_eq!(step.kind == StepKind::Blue, !visited[crossed]);
        visited[crossed] = true;
        for (e, &seen) in visited.iter().enumerate() {
            prop_assert!(walk.edge_visited(e) == seen, "edge {} visited: {}", e, seen);
        }
        for v in g.vertices() {
            let expect = g.ports(v).filter(|&(_, _, e)| !visited[e]).count();
            prop_assert_eq!(walk.blue_degree(v), expect);
        }
        let mut live = walk.live_arcs();
        live.sort_unstable();
        let unvisited_here: Vec<usize> = g
            .ports(walk.current())
            .filter(|&(_, _, e)| !visited[e])
            .map(|(a, _, _)| a)
            .collect();
        prop_assert_eq!(live, unvisited_here);
        let unvisited = visited.iter().filter(|&&seen| !seen).count();
        prop_assert_eq!(walk.unvisited_edge_count(), unvisited);
        prop_assert_eq!(
            walk.unvisited_edge_count() as u64,
            g.m() as u64 - walk.blue_steps()
        );
    }
    Ok(())
}

/// A plain reference E-process, kept as the trajectory oracle for the
/// kernel's step state: a `Vec<bool>` visited array, and per-vertex live
/// prefixes of `slots` (with `pos` the inverse permutation) out of which a
/// blue step swaps both arcs of the edge it crosses at once. It hands its
/// rule the live prefix as ports and draws `gen_range` over every port on
/// a red step — the kernel's draws, so the two walk the same trajectory.
struct ReferenceEProcess<'g, A> {
    g: &'g Graph,
    rule: A,
    current: Vertex,
    steps: u64,
    visited: Vec<bool>,
    slots: Vec<usize>,
    pos: Vec<usize>,
    live: Vec<usize>,
}

impl<'g, A: EdgeRule> ReferenceEProcess<'g, A> {
    fn new(g: &'g Graph, start: Vertex, rule: A) -> ReferenceEProcess<'g, A> {
        ReferenceEProcess {
            g,
            rule,
            current: start,
            steps: 0,
            visited: vec![false; g.m()],
            slots: (0..2 * g.m()).collect(),
            pos: (0..2 * g.m()).collect(),
            live: g.vertices().map(|v| g.degree(v)).collect(),
        }
    }

    /// Swaps `arc` to the end of `src`'s live prefix and shrinks it.
    fn unlink(&mut self, arc: usize, src: Vertex) {
        let p = self.pos[arc];
        let last = self.g.arc_range(src).start + self.live[src] - 1;
        let moved = self.slots[last];
        self.slots[p] = moved;
        self.slots[last] = arc;
        self.pos[moved] = p;
        self.pos[arc] = last;
        self.live[src] -= 1;
    }

    /// The arcs of the current vertex's live prefix, in slot order.
    fn live_arcs(&self) -> &[usize] {
        let base = self.g.arc_range(self.current).start;
        &self.slots[base..base + self.live[self.current]]
    }

    fn step(&mut self, rng: &mut SmallRng) -> Step {
        let v = self.current;
        let base = self.g.arc_range(v).start;
        let (arc, kind) = if self.live[v] > 0 {
            let ports: Vec<u16> = self
                .live_arcs()
                .iter()
                .map(|&a| (a - base) as u16)
                .collect();
            let ctx = RuleContext {
                graph: self.g,
                vertex: v,
                live_ports: &ports,
                first_arc: base,
                step: self.steps,
            };
            let idx = self.rule.choose(&ctx, rng);
            (self.slots[base + idx], StepKind::Blue)
        } else {
            let idx = rng.gen_range(0..self.g.degree(v));
            (self.slots[base + idx], StepKind::Red)
        };
        let e = self.g.arc_edge(arc);
        let to = self.g.arc_target(arc);
        if kind == StepKind::Blue {
            self.visited[e] = true;
            let (a0, a1) = self.g.edge_arcs(e);
            let (x, y) = self.g.endpoints(e);
            self.unlink(a0, x);
            self.unlink(a1, y);
        }
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

/// Steps the uniform-rule kernel and [`ReferenceEProcess`] side by side
/// from `start` for `4m + 16` steps on equally seeded RNGs: every step,
/// the next RNG draw afterwards and the visited edges must agree.
fn check_reference_trajectory(g: &Graph, start: Vertex, seed: u64) -> Result<(), TestCaseError> {
    let mut rng_a = SmallRng::seed_from_u64(seed);
    let mut rng_b = SmallRng::seed_from_u64(seed);
    let mut reference = ReferenceEProcess::new(g, start, UniformRule::new());
    let mut kernel = EProcess::new(g, start, UniformRule::new());
    for _ in 0..4 * g.m() + 16 {
        prop_assert_eq!(reference.step(&mut rng_a), kernel.advance(&mut rng_b));
    }
    prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    for (e, &seen) in reference.visited.iter().enumerate() {
        prop_assert_eq!(seen, kernel.edge_visited(e));
    }
    Ok(())
}

/// Steps the kernel and [`ReferenceEProcess`] under the same `rule` side
/// by side from `start` for `4m + 16` steps. The kernel leaves a blue
/// step's twin unlink pending until its next step; the reference unlinks
/// both arcs at once. After every step the kernel's accessors must still
/// equal the reference's state: every vertex's blue degree, the live arcs
/// at the current vertex as a set, `in_blue_phase` and every edge's
/// visited flag.
fn check_pending_accessors<A: EdgeRule + Clone>(
    g: &Graph,
    start: Vertex,
    rule: A,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng_a = SmallRng::seed_from_u64(seed);
    let mut rng_b = SmallRng::seed_from_u64(seed);
    let mut reference = ReferenceEProcess::new(g, start, rule.clone());
    let mut kernel = EProcess::new(g, start, rule);
    for _ in 0..4 * g.m() + 16 {
        prop_assert_eq!(reference.step(&mut rng_a), kernel.advance(&mut rng_b));
        for v in g.vertices() {
            prop_assert!(kernel.blue_degree(v) == reference.live[v], "vertex {}", v);
        }
        let mut expect = reference.live_arcs().to_vec();
        expect.sort_unstable();
        let mut live = kernel.live_arcs();
        live.sort_unstable();
        prop_assert_eq!(live, expect);
        prop_assert_eq!(
            kernel.in_blue_phase(),
            reference.live[reference.current] > 0
        );
        for (e, &seen) in reference.visited.iter().enumerate() {
            prop_assert!(kernel.edge_visited(e) == seen, "edge {}", e);
        }
    }
    Ok(())
}

/// The kernel keeps no inverse of `slots`: it finds a blue step's twin at
/// the twin's own index or, once a swap has displaced it, by scanning the
/// live prefix of the vertex it moves to. The proptest graphs have at most
/// 13 vertices, so this walks the reference on long rows too, from three
/// starts each: `complete(40)`, the `worststart` builtin's lollipop and a
/// geometric graph of mean degree about 22.
#[test]
fn eprocess_matches_reference_trajectory_on_long_rows() {
    let mut rng = SmallRng::seed_from_u64(7);
    let geometric = connected_random_geometric(2000, 0.06, &mut rng).expect("above the threshold");
    for g in [
        generators::complete(40),
        generators::lollipop(24, 24),
        geometric.graph,
    ] {
        for (seed, start) in [0, g.n() / 2, g.n() - 1].into_iter().enumerate() {
            check_reference_trajectory(&g, start, seed as u64).unwrap();
        }
    }
}

/// The locally fair walks as first written, kept as the trajectory oracle
/// of [`OldestFirst`] and [`LeastUsedFirst`]'s arc rings: every step scans
/// all of the current vertex's arcs for the smallest key, the lowest port
/// winning a tie, reading per-edge times of last use and use counts.
struct ReferenceFair<'g> {
    g: &'g Graph,
    current: Vertex,
    steps: u64,
    last_used: Vec<u64>, // per edge; 0 = never, else step index + 1
    use_count: Vec<u64>, // per edge
}

impl<'g> ReferenceFair<'g> {
    fn new(g: &'g Graph, start: Vertex) -> ReferenceFair<'g> {
        ReferenceFair {
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

    /// Oldest-First: the incident edge least recently used.
    fn oldest_first(&mut self) -> Step {
        let range = self.g.arc_range(self.current);
        let key = |a: usize| self.last_used[self.g.arc_edge(a)];
        let (mut arc, mut best) = (range.start, key(range.start));
        for a in range.start + 1..range.end {
            let k = key(a);
            if k < best {
                (arc, best) = (a, k);
            }
        }
        self.step_along(arc)
    }

    /// Least-Used-First: the incident edge with the fewest traversals, the
    /// least recently used among those.
    fn least_used_first(&mut self) -> Step {
        let range = self.g.arc_range(self.current);
        let key = |a: usize| {
            let e = self.g.arc_edge(a);
            (self.use_count[e], self.last_used[e])
        };
        let (mut arc, mut best) = (range.start, key(range.start));
        for a in range.start + 1..range.end {
            let k = key(a);
            if k < best {
                (arc, best) = (a, k);
            }
        }
        self.step_along(arc)
    }
}

/// Steps both locally fair walks beside [`ReferenceFair`] from `start` for
/// `20m + 16` steps, so that use counts climb through many values: every
/// step and position must agree, and so must Least-Used-First's use counts
/// at the end.
fn check_fair_trajectories(g: &Graph, start: Vertex) -> Result<(), TestCaseError> {
    let steps = 20 * g.m() + 16;
    let mut rng = SmallRng::seed_from_u64(0);
    let mut reference = ReferenceFair::new(g, start);
    let mut walk = OldestFirst::new(g, start);
    for _ in 0..steps {
        prop_assert_eq!(walk.advance(&mut rng), reference.oldest_first());
        prop_assert_eq!(walk.current(), reference.current);
    }
    let mut reference = ReferenceFair::new(g, start);
    let mut walk = LeastUsedFirst::new(g, start);
    for _ in 0..steps {
        prop_assert_eq!(walk.advance(&mut rng), reference.least_used_first());
        prop_assert_eq!(walk.current(), reference.current);
    }
    for (e, &uses) in reference.use_count.iter().enumerate() {
        prop_assert_eq!(walk.use_count(e), uses);
    }
    Ok(())
}

/// Every step of every process must move along an actual edge (or hold,
/// for the lazy walk), and the harness invariants must hold.
fn check_step_validity<W: WalkProcess>(g: &Graph, mut walk: W, seed: u64, allow_hold: bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..200 {
        let before = walk.current();
        let steps_before = walk.steps();
        let s = walk.advance(&mut rng);
        assert_eq!(s.from, before);
        assert_eq!(walk.current(), s.to);
        assert_eq!(walk.steps(), steps_before + 1);
        match s.edge {
            Some(e) => {
                let (u, v) = g.endpoints(e);
                assert!(
                    (s.from == u && s.to == v) || (s.from == v && s.to == u),
                    "step {s:?} does not match edge {e} = ({u},{v})"
                );
            }
            None => {
                assert!(allow_hold, "only lazy holds may omit the edge");
                assert_eq!(s.from, s.to);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_processes_take_valid_steps(g in arb_connected_graph(), seed in 0u64..1000) {
        check_step_validity(&g, EProcess::new(&g, 0, UniformRule::new()), seed, false);
        check_step_validity(&g, EProcess::new(&g, 0, FirstPortRule), seed, false);
        check_step_validity(&g, SimpleRandomWalk::new(&g, 0), seed, false);
        check_step_validity(&g, LazyRandomWalk::new(&g, 0), seed, true);
        check_step_validity(&g, RotorRouter::new(&g, 0), seed, false);
        check_step_validity(&g, RandomWalkWithChoice::new(&g, 0, 2), seed, false);
        check_step_validity(&g, OldestFirst::new(&g, 0), seed, false);
        check_step_validity(&g, LeastUsedFirst::new(&g, 0), seed, false);
        check_step_validity(&g, VProcess::new(&g, 0), seed, false);
    }

    #[test]
    fn cover_lower_bounds(g in arb_connected_graph(), seed in 0u64..1000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        let run = run_cover(&mut walk, CoverTarget::Both, 10_000_000, &mut rng);
        let cv = run.steps_to_vertex_cover.expect("connected graph covers");
        let ce = run.steps_to_edge_cover.expect("connected graph covers");
        // No walk-based process covers n vertices in < n-1 steps, nor m
        // edges in < m steps.
        prop_assert!(cv >= (g.n() - 1) as u64);
        prop_assert!(ce >= g.m() as u64);
        prop_assert!(cv <= ce);
        prop_assert_eq!(run.vertices_visited, g.n());
        prop_assert_eq!(run.edges_visited, g.m());
        prop_assert_eq!(run.blue_steps + run.red_steps, run.steps);
        // Observation 12: blue steps bounded by m.
        prop_assert!(run.blue_steps <= g.m() as u64);
    }

    #[test]
    fn eprocess_blue_degree_equals_bitmap(
        g in arb_connected_multigraph(),
        start in 0usize..14,
        seed in 0u64..500,
    ) {
        let s = start % g.n();
        check_eprocess_state(&g, EProcess::new(&g, s, UniformRule::new()), seed)?;
        check_eprocess_state(&g, EProcess::new(&g, s, FirstPortRule), seed)?;
        check_eprocess_state(&g, EProcess::new(&g, s, LastPortRule), seed)?;
        check_eprocess_state(&g, EProcess::new(&g, s, RoundRobinRule::new(g.n())), seed)?;
        check_eprocess_state(&g, EProcess::new(&g, s, GreedyAdversary), seed)?;
        let middle = AdversarialRule::new(|ctx: &RuleContext<'_>| ctx.live_ports.len() / 2);
        check_eprocess_state(&g, EProcess::new(&g, s, middle), seed)?;
    }

    #[test]
    fn eprocess_matches_reference_trajectory(
        g in arb_connected_graph(),
        multi in arb_connected_multigraph(),
        start in 0usize..14,
        seed in 0u64..1000,
    ) {
        check_reference_trajectory(&g, start % g.n(), seed)?;
        check_reference_trajectory(&multi, start % multi.n(), seed)?;
    }

    #[test]
    fn eprocess_pending_twin_accessors_match_reference(
        g in arb_connected_graph(),
        multi in arb_connected_multigraph(),
        start in 0usize..14,
        seed in 0u64..1000,
    ) {
        for g in [&g, &multi] {
            let s = start % g.n();
            check_pending_accessors(g, s, UniformRule::new(), seed)?;
            check_pending_accessors(g, s, FirstPortRule, seed)?;
            check_pending_accessors(g, s, RoundRobinRule::new(g.n()), seed)?;
            check_pending_accessors(g, s, GreedyAdversary, seed)?;
        }
    }

    #[test]
    fn rotor_trajectory_is_rng_independent(g in arb_connected_graph(), s1 in 0u64..100, s2 in 0u64..100) {
        let mut rng1 = SmallRng::seed_from_u64(s1);
        let mut rng2 = SmallRng::seed_from_u64(s2 ^ 0xdead);
        let mut a = RotorRouter::new(&g, 0);
        let mut b = RotorRouter::new(&g, 0);
        for _ in 0..100 {
            prop_assert_eq!(a.advance(&mut rng1), b.advance(&mut rng2));
        }
    }

    #[test]
    fn vprocess_blue_steps_bounded_by_n(g in arb_connected_graph(), seed in 0u64..500) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut walk = VProcess::new(&g, 0);
        let mut blue = 0u64;
        for _ in 0..2000 {
            if walk.advance(&mut rng).kind == StepKind::Blue {
                blue += 1;
            }
        }
        // Each blue step consumes a fresh vertex: at most n - 1 of them.
        prop_assert!(blue <= (g.n() - 1) as u64);
        prop_assert_eq!(walk.unvisited_vertex_count(), 0);
    }

    #[test]
    fn deterministic_explorers_cover(g in arb_connected_graph()) {
        // Rotor-router and Least-Used-First both cover within O(m * D)
        // on these tiny graphs; generous cap 100 * m * n.
        let cap = 100 * (g.m() as u64 + 1) * (g.n() as u64);
        let mut rng = SmallRng::seed_from_u64(0);
        let mut rr = RotorRouter::new(&g, 0);
        let run = run_cover(&mut rr, CoverTarget::Vertices, cap, &mut rng);
        prop_assert!(run.steps_to_vertex_cover.is_some(), "rotor failed to cover");
        let mut luf = LeastUsedFirst::new(&g, 0);
        let run = run_cover(&mut luf, CoverTarget::Edges, cap, &mut rng);
        prop_assert!(run.steps_to_edge_cover.is_some(), "LUF failed to cover edges");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fair_walks_match_reference_scans(
        g in arb_connected_graph(),
        multi in arb_connected_multigraph(),
        start in 0usize..14,
    ) {
        check_fair_trajectories(&g, start % g.n())?;
        check_fair_trajectories(&multi, start % multi.n())?;
    }
}
