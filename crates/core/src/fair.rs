//! Locally fair exploration: Oldest-First and Least-Used-First.
//!
//! Cooper–Ilcinkas–Klasing–Kosowski (reference \[5\] of the paper): at each
//! vertex the explorer picks either the incident edge that has waited
//! longest since its last traversal (**Oldest-First**, which can be
//! exponentially slow on some graphs) or the incident edge traversed the
//! fewest times (**Least-Used-First**, which covers in `O(mD)`). Both are
//! deterministic given a tie-breaking order; ties are broken by port
//! order here.
//!
//! # Arc rings
//!
//! At the current vertex `v`, both walks take the incident arc with the
//! smallest key, the lowest port winning a tie:
//!
//! * Oldest-First's key is the time of the edge's last use, 0 for never;
//! * Least-Used-First's key is (uses, time of last use).
//!
//! A traversal raises its edge's key above every key so far. So in key
//! order a vertex's arcs are its never-used arcs in port order, then its
//! used arcs by key, and a traversal changes that order only by moving the
//! edge's two arcs toward their vertices' tails; the arcs they pass keep
//! their order. Each walk therefore keeps every vertex's arcs on a circular
//! doubly linked ring in key order and takes the head, without reading any
//! other arc's key. Graphs are loop-free, so an arc and its twin are never
//! on the same ring; parallel edges are distinct arcs and need no special
//! case.
//!
//! * **Oldest-First.** A step rotates `v`'s ring, which turns the oldest
//!   arc into the newest, and moves the twin to the tail of the target's
//!   ring: O(1). A per-vertex count of never-used arcs, which are exactly
//!   a prefix of the ring, tells a blue step from a red one. State: the
//!   ring head and the count per vertex, two links per arc — 8 bytes per
//!   vertex plus 16 per edge.
//! * **Least-Used-First.** A step re-places each of the edge's arcs right
//!   after the last arc of its ring used at most as often, found by
//!   walking back from the tail past the arcs used more often, this step
//!   included. The tail usually qualifies, so the common step is a
//!   rotation at `v` and a move to the tail at the target. State: the ring
//!   head per vertex, two links per arc and a 32-bit use count per edge,
//!   rebased before it overflows — 4 bytes per vertex plus 20 per edge.

use crate::process::{Step, StepKind, WalkProcess};
use eproc_graphs::{ArcId, EdgeId, Graph, Vertex};
use rand::RngCore;

/// The ring head of a vertex without arcs.
const NO_ARC: u32 = u32::MAX;

/// An arc's neighbours on its vertex's ring. Arc ids fit in `u32` (the
/// graph checks `2m <= u32::MAX`), and one record keeps both links of an
/// arc in one cache line.
#[derive(Debug, Clone, Copy)]
struct Link {
    next: u32,
    prev: u32,
}

/// Every vertex's arcs on a circular doubly linked ring, in key order
/// (see the module docs): the head has the smallest key, and the tail, the
/// head's `prev`, the largest.
#[derive(Debug, Clone)]
struct ArcRing {
    head: Vec<u32>,   // per vertex; NO_ARC for an isolated vertex
    links: Vec<Link>, // per arc
}

impl ArcRing {
    /// Links each vertex's arcs in port order, in one pass.
    fn new(g: &Graph) -> ArcRing {
        let mut head = Vec::with_capacity(g.n());
        let mut links = Vec::with_capacity(2 * g.m());
        // Every arc id is below 2m, which the graph checked fits in u32.
        for v in g.vertices() {
            let ports = g.arc_range(v);
            if ports.is_empty() {
                head.push(NO_ARC);
                continue;
            }
            let (first, last) = (ports.start as u32, ports.end as u32 - 1);
            head.push(first);
            links.extend(ports.map(|a| {
                let a = a as u32;
                Link {
                    next: if a == last { first } else { a + 1 },
                    prev: if a == first { last } else { a - 1 },
                }
            }));
        }
        ArcRing { head, links }
    }

    /// The head of `v`'s ring: the arc the walk takes at `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` has no arcs.
    #[inline]
    fn head(&self, v: Vertex) -> ArcId {
        let a = self.head[v];
        assert!(a != NO_ARC, "explorer stuck at isolated vertex {v}");
        a as ArcId
    }

    /// The tail of `v`'s ring, for a `v` with arcs.
    #[inline]
    fn tail(&self, v: Vertex) -> ArcId {
        self.links[self.head[v] as usize].prev as ArcId
    }

    /// Moves arc `a` of `v`'s ring to just after arc `x` of the same ring,
    /// `x != a`. When `a` already follows `x` it moves only if it is the
    /// head, and then `x` is the tail: the ring rotates.
    #[inline]
    fn move_after(&mut self, v: Vertex, a: ArcId, x: ArcId) {
        let Link { next, prev } = self.links[a];
        if self.head[v] as usize == a {
            self.head[v] = next;
        }
        if prev as usize == x {
            return;
        }
        self.links[prev as usize].next = next;
        self.links[next as usize].prev = prev;
        let after = self.links[x].next;
        self.links[x].next = a as u32;
        self.links[after as usize].prev = a as u32;
        self.links[a] = Link {
            next: after,
            prev: x as u32,
        };
    }

    /// Moves arc `a` of `v`'s ring to its tail.
    #[inline]
    fn move_to_tail(&mut self, v: Vertex, a: ArcId) {
        let tail = self.tail(v);
        if tail != a {
            self.move_after(v, a, tail);
        }
    }
}

/// The state both locally fair walks share: the position, the step count
/// and the arc rings.
#[derive(Debug, Clone)]
struct FairState<'g> {
    g: &'g Graph,
    current: Vertex,
    steps: u64,
    ring: ArcRing,
}

impl<'g> FairState<'g> {
    fn new(g: &'g Graph, start: Vertex) -> FairState<'g> {
        assert!(start < g.n(), "start vertex {start} out of range");
        FairState {
            g,
            current: start,
            steps: 0,
            ring: ArcRing::new(g),
        }
    }

    /// Moves the walk from the current vertex to `to` over edge `e`.
    #[inline]
    fn step_along(&mut self, to: Vertex, e: EdgeId, kind: StepKind) -> Step {
        let from = self.current;
        self.current = to;
        self.steps += 1;
        Step {
            from,
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
    /// Per vertex: how many of its arcs were never used. They lead its
    /// ring, so a step is blue exactly when this is positive.
    fresh: Vec<u32>,
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
            // A degree is at most 2m, which fits in u32.
            fresh: g.vertices().map(|v| g.degree(v) as u32).collect(),
        }
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
        let s = &mut self.state;
        let v = s.current;
        let a = s.ring.head(v);
        let (to, e) = (s.g.arc_target(a), s.g.arc_edge(a));
        s.ring.move_to_tail(v, a);
        s.ring.move_to_tail(to, s.g.arc_twin(a));
        let kind = if self.fresh[v] > 0 {
            self.fresh[v] -= 1;
            self.fresh[to] -= 1;
            StepKind::Blue
        } else {
            StepKind::Red
        };
        s.step_along(to, e, kind)
    }
}

/// Least-Used-First: traverse the incident edge with the fewest traversals.
/// Covers all edges in `O(m|D|)` and equalises traversal frequencies in the
/// long run (\[5\]).
#[derive(Debug, Clone)]
pub struct LeastUsedFirst<'g> {
    state: FairState<'g>,
    /// Per edge: its uses beyond `floor`, in 32 bits (see
    /// [`LeastUsedFirst::rebase`]).
    uses: Vec<u32>,
    /// Uses every edge had when the counts were last rebased; 0 until then.
    floor: u64,
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
            uses: vec![0; g.m()],
            floor: 0,
        }
    }

    /// Times edge `e` has been traversed.
    ///
    /// # Panics
    ///
    /// Panics if `e >= g.m()`.
    pub fn use_count(&self, e: EdgeId) -> u64 {
        self.floor + u64::from(self.uses[e])
    }

    /// Subtracts the fewest uses of any edge from every edge's count, once
    /// a count is about to pass `u32::MAX`. The walk only compares counts
    /// with each other, so its trajectory does not change; 32-bit counts
    /// keep it at 20 bytes per edge, where 64-bit ones took 24.
    ///
    /// # Panics
    ///
    /// Panics if some edge was never used. On a connected graph every edge
    /// is used within `O(mD)` steps (\[5\]), long before any edge nears
    /// `u32::MAX` uses; only a walk confined to one component of a
    /// disconnected graph can get here.
    #[cold]
    fn rebase(&mut self) {
        let least = self.uses.iter().copied().min().unwrap_or(0);
        assert!(
            least > 0,
            "least-used-first: an edge passed u32::MAX uses while another was never used"
        );
        self.uses.iter_mut().for_each(|u| *u -= least);
        self.floor += u64::from(least);
    }

    /// Re-places arc `a` of `v`'s ring, whose edge's count has just risen
    /// to `uses`, right after the last arc whose count is at most `uses`.
    /// Walking back from the tail stops at `a` at the latest.
    #[inline]
    fn place(&mut self, v: Vertex, a: ArcId, uses: u32) {
        let (g, ring) = (self.state.g, &mut self.state.ring);
        let mut x = ring.tail(v);
        while self.uses[g.arc_edge(x)] > uses {
            x = ring.links[x].prev as ArcId;
        }
        if x != a {
            ring.move_after(v, a, x);
        }
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
        let g = self.state.g;
        let v = self.state.current;
        let a = self.state.ring.head(v);
        let (to, e) = (g.arc_target(a), g.arc_edge(a));
        if self.uses[e] == u32::MAX {
            self.rebase();
        }
        let uses = self.uses[e] + 1;
        self.uses[e] = uses;
        self.place(v, a, uses);
        self.place(to, g.arc_twin(a), uses);
        // After a rebase every edge has been used, so no step is blue.
        let kind = if uses == 1 && self.floor == 0 {
            StepKind::Blue
        } else {
            StepKind::Red
        };
        self.state.step_along(to, e, kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eproc_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A triangle on vertices 1–3 beside an isolated vertex 0, whose empty
    /// port row is the graph's first.
    fn triangle_beside_isolated_vertex() -> Graph {
        Graph::from_edges(4, &[(1, 2), (2, 3), (3, 1)]).unwrap()
    }

    #[test]
    fn isolated_vertices_get_empty_rings() {
        let g = triangle_beside_isolated_vertex();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut of = OldestFirst::new(&g, 1);
        let mut lu = LeastUsedFirst::new(&g, 1);
        for _ in 0..30 {
            assert_ne!(of.advance(&mut rng).to, 0);
            assert_ne!(lu.advance(&mut rng).to, 0);
        }
    }

    #[test]
    #[should_panic(expected = "explorer stuck at isolated vertex 0")]
    fn starting_on_an_isolated_vertex_panics() {
        let g = triangle_beside_isolated_vertex();
        let mut rng = SmallRng::seed_from_u64(8);
        OldestFirst::new(&g, 0).advance(&mut rng);
    }

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
    fn rebasing_the_counts_keeps_the_trajectory() {
        // Once every edge is used, one walk's counts are pushed up to
        // `u32::MAX`, as if it had gone some four billion more rounds, so
        // that it rebases: both walks must keep taking the same steps.
        let g = generators::petersen();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut a = LeastUsedFirst::new(&g, 0);
        let mut b = LeastUsedFirst::new(&g, 0);
        while (0..g.m()).any(|e| a.use_count(e) == 0) {
            assert_eq!(a.advance(&mut rng), b.advance(&mut rng));
        }
        let push = u32::MAX - b.uses.iter().max().unwrap();
        b.uses.iter_mut().for_each(|u| *u += push);
        for _ in 0..10 * g.m() {
            assert_eq!(a.advance(&mut rng), b.advance(&mut rng));
        }
        assert!(b.floor > 0, "the pushed walk never rebased");
        for e in 0..g.m() {
            assert_eq!(b.use_count(e), a.use_count(e) + u64::from(push));
        }
    }

    #[test]
    #[should_panic(expected = "while another was never used")]
    fn rebasing_past_a_never_used_edge_panics() {
        // The walk is confined to edge 0; edge 1 lies in another component.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut rng = SmallRng::seed_from_u64(10);
        let mut w = LeastUsedFirst::new(&g, 0);
        w.uses[0] = u32::MAX;
        w.advance(&mut rng);
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
