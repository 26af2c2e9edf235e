//! Rule `A`: how the E-process chooses among unvisited edges.
//!
//! §1 of the paper: *"In the simplest case, `A` chooses u.a.r. among
//! unvisited edges incident with the current vertex … However we do not
//! exclude arbitrary choices of rule `A`. For example, the rule could be
//! deterministic, or decided on-line by an adversary, or could vary from
//! vertex to vertex."* Theorem 1 is independent of the rule; the engine's
//! `rules` experiment exercises every implementation here to verify that.

use eproc_graphs::{Graph, Vertex};
use rand::{Rng, RngCore};

/// What a rule sees when invoked: the current vertex, the unvisited arcs
/// at it, the graph, and the global step count.
#[derive(Debug)]
pub struct RuleContext<'a> {
    /// The graph being explored.
    pub graph: &'a Graph,
    /// The currently occupied vertex.
    pub vertex: Vertex,
    /// The unvisited (blue) arcs at `vertex`, as ports: port `p` is arc
    /// `first_arc + p` (see [`RuleContext::arc`]), so port order is
    /// arc-id order. Always nonempty when the rule is consulted. Order
    /// is an implementation detail (the engine compacts in place) —
    /// rules needing stability should sort by port.
    pub live_ports: &'a [u16],
    /// The arc id of `vertex`'s port 0, `graph.arc_range(vertex).start`.
    pub first_arc: usize,
    /// Steps taken by the process so far.
    pub step: u64,
}

impl RuleContext<'_> {
    /// The arc id of live entry `i`: `first_arc + live_ports[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= live_ports.len()`.
    #[inline]
    pub fn arc(&self, i: usize) -> usize {
        self.first_arc + self.live_ports[i] as usize
    }
}

/// A rule for choosing among unvisited edges (rule `A` of the paper).
///
/// Implementations return an **index** into `ctx.live_ports`. The engine
/// panics if the index is out of range — a rule bug, not a recoverable
/// condition.
pub trait EdgeRule {
    /// Chooses the index of the arc to traverse. Generic over the RNG so
    /// randomized rules inline into the
    /// [`advance`](crate::process::WalkProcess::advance) kernel.
    fn choose<R: RngCore + ?Sized>(&mut self, ctx: &RuleContext<'_>, rng: &mut R) -> usize;

    /// Resets per-run rule state (decision counters, rotor positions, …)
    /// so a process [`reset`](crate::EProcess::reset) behaves like a
    /// freshly constructed one. Default: no-op, for stateless rules.
    fn reset(&mut self) {}
}

/// Chooses uniformly at random — the paper's "simplest case", and exactly
/// the greedy random walk of Orenshtein–Shinkar when plugged into the
/// E-process.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformRule;

impl UniformRule {
    /// Creates the uniform rule.
    pub fn new() -> UniformRule {
        UniformRule
    }
}

impl EdgeRule for UniformRule {
    #[inline]
    fn choose<R: RngCore + ?Sized>(&mut self, ctx: &RuleContext<'_>, rng: &mut R) -> usize {
        rng.gen_range(0..ctx.live_ports.len())
    }
}

/// Deterministically chooses the unvisited arc with the smallest arc id
/// (i.e. the lowest-numbered port of the current vertex).
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstPortRule;

impl EdgeRule for FirstPortRule {
    fn choose<R: RngCore + ?Sized>(&mut self, ctx: &RuleContext<'_>, _rng: &mut R) -> usize {
        ctx.live_ports
            .iter()
            .enumerate()
            .min_by_key(|&(_, &p)| p)
            .map(|(i, _)| i)
            .expect("live_ports is nonempty")
    }
}

/// Deterministically chooses the unvisited arc with the largest arc id.
#[derive(Debug, Clone, Copy, Default)]
pub struct LastPortRule;

impl EdgeRule for LastPortRule {
    fn choose<R: RngCore + ?Sized>(&mut self, ctx: &RuleContext<'_>, _rng: &mut R) -> usize {
        ctx.live_ports
            .iter()
            .enumerate()
            .max_by_key(|&(_, &p)| p)
            .map(|(i, _)| i)
            .expect("live_ports is nonempty")
    }
}

/// A rotor-flavoured deterministic rule: each vertex cycles through its
/// unvisited edges in increasing port order, remembering where it left
/// off ("could vary from vertex to vertex").
#[derive(Debug, Clone)]
pub struct RoundRobinRule {
    next: Vec<u64>,
    /// Indices into the live ports, ranked by port; reused across steps.
    order: Vec<usize>,
}

impl RoundRobinRule {
    /// Creates the rule for a graph with `n` vertices.
    pub fn new(n: usize) -> RoundRobinRule {
        RoundRobinRule {
            next: vec![0; n],
            order: Vec::new(),
        }
    }
}

impl EdgeRule for RoundRobinRule {
    fn reset(&mut self) {
        self.next.iter_mut().for_each(|c| *c = 0);
    }

    fn choose<R: RngCore + ?Sized>(&mut self, ctx: &RuleContext<'_>, _rng: &mut R) -> usize {
        let counter = &mut self.next[ctx.vertex];
        let k = (*counter as usize) % ctx.live_ports.len();
        *counter += 1;
        // Stabilise against the engine's in-place compaction by ranking
        // live ports, which are distinct.
        self.order.clear();
        self.order.extend(0..ctx.live_ports.len());
        self.order.sort_unstable_by_key(|&i| ctx.live_ports[i]);
        self.order[k]
    }
}

/// An adversarial rule: an arbitrary on-line callback chooses the index.
/// Theorem 1's bound must hold for *any* such adversary on even-degree
/// `ℓ`-good graphs.
pub struct AdversarialRule<F> {
    strategy: F,
    decisions: u64,
}

impl<F> std::fmt::Debug for AdversarialRule<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AdversarialRule {{ decisions: {} }}", self.decisions)
    }
}

impl<F: FnMut(&RuleContext<'_>) -> usize> AdversarialRule<F> {
    /// Wraps an adversary callback.
    pub fn new(strategy: F) -> AdversarialRule<F> {
        AdversarialRule {
            strategy,
            decisions: 0,
        }
    }

    /// Number of blue choices the adversary has made.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }
}

impl<F: FnMut(&RuleContext<'_>) -> usize> EdgeRule for AdversarialRule<F> {
    fn reset(&mut self) {
        self.decisions = 0;
    }

    fn choose<R: RngCore + ?Sized>(&mut self, ctx: &RuleContext<'_>, _rng: &mut R) -> usize {
        self.decisions += 1;
        (self.strategy)(ctx)
    }
}

/// An adversary that always steers toward the neighbour of **highest
/// remaining blue degree** — a natural attempt to keep the walk inside
/// already-explored territory and delay discovery. The `rules`
/// experiment runs it as a concrete malicious strategy.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyAdversary;

impl EdgeRule for GreedyAdversary {
    fn choose<R: RngCore + ?Sized>(&mut self, ctx: &RuleContext<'_>, _rng: &mut R) -> usize {
        // The blue degree of the target is not directly visible, so use the
        // next best thing the adversary can compute on-line: prefer the
        // target with the largest port count minus distance-1 heuristic,
        // i.e. highest degree (static proxy), tie-broken by arc id.
        (0..ctx.live_ports.len())
            .max_by_key(|&i| {
                (
                    ctx.graph.degree(ctx.graph.arc_target(ctx.arc(i))),
                    std::cmp::Reverse(ctx.live_ports[i]),
                )
            })
            .expect("live_ports is nonempty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eproc_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ctx_on<'a>(g: &'a Graph, v: Vertex, live: &'a [u16]) -> RuleContext<'a> {
        RuleContext {
            graph: g,
            vertex: v,
            live_ports: live,
            first_arc: g.arc_range(v).start,
            step: 0,
        }
    }

    #[test]
    fn uniform_rule_in_range_and_varies() {
        let g = generators::complete(6);
        let live: Vec<u16> = (0..g.degree(0) as u16).collect();
        let mut rule = UniformRule::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let i = rule.choose(&ctx_on(&g, 0, &live), &mut rng);
            assert!(i < live.len());
            seen.insert(i);
        }
        assert_eq!(
            seen.len(),
            live.len(),
            "uniform rule should hit every index"
        );
    }

    #[test]
    fn first_and_last_port_rules() {
        let g = generators::complete(4);
        let live = [7u16, 2, 5];
        let mut rng = SmallRng::seed_from_u64(2);
        assert_eq!(FirstPortRule.choose(&ctx_on(&g, 0, &live), &mut rng), 1);
        assert_eq!(LastPortRule.choose(&ctx_on(&g, 0, &live), &mut rng), 0);
    }

    #[test]
    fn round_robin_cycles_in_port_order() {
        let g = generators::complete(4);
        let live = [9u16, 3, 6];
        let mut rule = RoundRobinRule::new(g.n());
        let mut rng = SmallRng::seed_from_u64(3);
        // Port order is 3 < 6 < 9 → indices 1, 2, 0, then wraps.
        assert_eq!(rule.choose(&ctx_on(&g, 0, &live), &mut rng), 1);
        assert_eq!(rule.choose(&ctx_on(&g, 0, &live), &mut rng), 2);
        assert_eq!(rule.choose(&ctx_on(&g, 0, &live), &mut rng), 0);
        assert_eq!(rule.choose(&ctx_on(&g, 0, &live), &mut rng), 1);
        // Independent counter per vertex.
        assert_eq!(rule.choose(&ctx_on(&g, 2, &live), &mut rng), 1);
    }

    #[test]
    fn adversarial_counts_decisions() {
        let g = generators::complete(4);
        let live = [0u16, 1];
        let mut rule = AdversarialRule::new(|_ctx: &RuleContext<'_>| 0);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..5 {
            assert_eq!(rule.choose(&ctx_on(&g, 0, &live), &mut rng), 0);
        }
        assert_eq!(rule.decisions(), 5);
        assert!(format!("{rule:?}").contains("decisions: 5"));
    }

    #[test]
    fn greedy_adversary_prefers_high_degree_target() {
        // Star + pendant: center has degree 4; from a leaf the adversary
        // must pick the arc toward the center.
        let g = eproc_graphs::Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]).unwrap();
        let live = [0u16, 1]; // vertex 3: edges to 0 and 4
        let mut rng = SmallRng::seed_from_u64(5);
        let ctx = ctx_on(&g, 3, &live);
        let i = GreedyAdversary.choose(&ctx, &mut rng);
        assert_eq!(g.arc_target(ctx.arc(i)), 0);
    }
}
