//! Compressed-sparse-row representation of an undirected multigraph.
//!
//! Terminology used throughout the workspace:
//!
//! * A **vertex** is a `usize` in `0..n`.
//! * An **edge** is an undirected pair `{u, v}`, `u != v`, identified by a
//!   stable [`EdgeId`] in `0..m`. Parallel edges are allowed (the
//!   configuration model produces them) and get distinct ids; self-loops are
//!   rejected at construction.
//! * An **arc** is one of the two directed copies of an edge, identified by
//!   an [`ArcId`] in `0..2m`. Arcs are grouped contiguously by source vertex
//!   (CSR layout), so "the ports of `v`" are the slice
//!   `arc_range(v)`. The other arc of the same edge is the arc's *twin*
//!   ([`Graph::arc_twin`]). The E-process, rotor-router and the locally
//!   fair explorers all operate on ports/arcs while marking *edges*.
//! * Vertex, edge and arc ids are stored as `u32`, so `n` and `2m` are
//!   each at most `u32::MAX` ([`GraphError::TooLarge`] otherwise). An
//!   edge keeps one arc (the other is its twin) and no endpoints.

use crate::error::GraphError;
use std::fmt;
use std::ops::Range;

/// Index of a vertex, `0..n`.
pub type Vertex = usize;
/// Index of an undirected edge, `0..m`.
pub type EdgeId = usize;
/// Index of a directed arc (half-edge), `0..2m`; arcs are grouped by source.
pub type ArcId = usize;

/// A finite undirected multigraph in CSR form with stable edge and arc ids.
///
/// Five `u32` arrays: `offsets`, the per-arc `arc_targets`, `arc_edges`
/// and `arc_twins`, and the per-edge `first_arcs`, one arc per edge (its
/// other is that arc's twin), from which [`edge_arcs`](Graph::edge_arcs),
/// [`endpoints`](Graph::endpoints), [`m`](Graph::m) and
/// [`edges`](Graph::edges) derive.
///
/// Construction is via [`Graph::from_edges`], which every one of the
/// [`crate::generators`] calls except the random regular one,
/// [`steger_wormald`](crate::generators::steger_wormald): that pairs its
/// stubs straight into the arrays `from_edges` would build for its edge
/// list and hands them to the crate-private `Graph::from_regular_arcs`.
/// The representation is immutable after construction: walk processes
/// keep their own mutable bookkeeping (visited bitmaps, rotor positions,
/// ...) *outside* the graph, so a single graph can back many concurrent
/// simulations.
///
/// # Example
///
/// ```
/// use eproc_graphs::Graph;
///
/// // A triangle with a pendant vertex.
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])?;
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert_eq!(g.degree(2), 3);
/// assert_eq!(g.neighbors(3).collect::<Vec<_>>(), vec![2]);
/// # Ok::<(), eproc_graphs::GraphError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// CSR offsets: arcs of vertex `v` are `arc_targets[offsets[v]..offsets[v+1]]`.
    offsets: Vec<u32>,
    /// Target vertex of each arc.
    arc_targets: Vec<u32>,
    /// Edge id of each arc.
    arc_edges: Vec<u32>,
    /// The opposite arc of the same edge, per arc. Kept beside (not packed
    /// with) `arc_targets` and `arc_edges`, so the V-process, which scans
    /// a whole port row of targets every step, streams only that array.
    arc_twins: Vec<u32>,
    /// The first arc of each edge `(u, v)` as supplied at construction:
    /// `first_arcs[e]` leaves `u` (so it targets `v`); its twin leaves `v`.
    first_arcs: Vec<u32>,
}

/// Checks that `n` vertices and `arcs` arcs fit the 32-bit index width the
/// CSR arrays store ids in. The bound is `u32::MAX` for both, so that the
/// arc count itself — which walk state keeps as the end sentinel of the
/// last port row — is representable too.
pub(crate) fn check_index_widths(n: usize, arcs: usize) -> Result<(), GraphError> {
    let limit = u32::MAX as usize;
    if n > limit || arcs > limit {
        return Err(GraphError::TooLarge { n, arcs });
    }
    Ok(())
}

impl Graph {
    /// Builds a graph on `n` vertices from an edge list.
    ///
    /// Edge ids are assigned in list order. Parallel edges are allowed and
    /// kept (multigraph semantics).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooLarge`] if `n` or the arc count `2m`
    /// exceeds `u32::MAX`, [`GraphError::VertexOutOfRange`] if an endpoint
    /// is `>= n` and [`GraphError::SelfLoop`] if `u == v` for some edge.
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Result<Graph, GraphError> {
        check_index_widths(n, edges.len().saturating_mul(2))?;
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::VertexOutOfRange { vertex: u, n });
            }
            if v >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u });
            }
        }
        let m = edges.len();
        // Every id and count below is at most n or 2m: checked to fit u32.
        // Count `v`'s arcs into `offsets[v + 1]`, then prefix-sum to row starts.
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in edges {
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        let mut acc = 0;
        for o in &mut offsets {
            acc += *o;
            *o = acc;
        }
        debug_assert_eq!(acc as usize, 2 * m);
        let mut cursor = offsets[..n].to_vec();
        let mut arc_targets = vec![0u32; 2 * m];
        let mut arc_edges = vec![0u32; 2 * m];
        let mut arc_twins = vec![0u32; 2 * m];
        let mut first_arcs = vec![0u32; m];
        for (e, &(u, v)) in edges.iter().enumerate() {
            let au = cursor[u];
            cursor[u] += 1;
            arc_targets[au as usize] = v as u32;
            arc_edges[au as usize] = e as u32;
            let av = cursor[v];
            cursor[v] += 1;
            arc_targets[av as usize] = u as u32;
            arc_edges[av as usize] = e as u32;
            arc_twins[au as usize] = av;
            arc_twins[av as usize] = au;
            first_arcs[e] = au;
        }
        Ok(Graph {
            offsets,
            arc_targets,
            arc_edges,
            arc_twins,
            first_arcs,
        })
    }

    /// Assembles an `r`-regular graph on `n` vertices from arrays already
    /// in [`from_edges`](Graph::from_edges)'s layout for some edge list:
    /// vertex `v`'s ports are arcs `v·r..(v+1)·r`, in the id order of
    /// their edges, and `first_arcs[e]` is the arc of edge `e` that leaves
    /// its first listed endpoint. The caller has checked the index widths.
    pub(crate) fn from_regular_arcs(
        n: usize,
        r: usize,
        arc_targets: Vec<u32>,
        arc_edges: Vec<u32>,
        arc_twins: Vec<u32>,
        first_arcs: Vec<u32>,
    ) -> Graph {
        debug_assert_eq!(arc_targets.len(), n * r);
        debug_assert_eq!(arc_edges.len(), n * r);
        debug_assert_eq!(arc_twins.len(), n * r);
        debug_assert_eq!(2 * first_arcs.len(), n * r);
        Graph {
            offsets: (0..=n).map(|v| (v * r) as u32).collect(),
            arc_targets,
            arc_edges,
            arc_twins,
            first_arcs,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (counting parallel edges separately).
    #[inline]
    pub fn m(&self) -> usize {
        self.first_arcs.len()
    }

    /// Degree of `v` (parallel edges counted with multiplicity).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The contiguous range of arc ids leaving `v` (its *ports*).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn arc_range(&self, v: Vertex) -> Range<ArcId> {
        self.offsets[v] as ArcId..self.offsets[v + 1] as ArcId
    }

    /// Target vertex of arc `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a >= 2m`.
    #[inline]
    pub fn arc_target(&self, a: ArcId) -> Vertex {
        self.arc_targets[a] as Vertex
    }

    /// Edge id of arc `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a >= 2m`.
    #[inline]
    pub fn arc_edge(&self, a: ArcId) -> EdgeId {
        self.arc_edges[a] as EdgeId
    }

    /// The twin of arc `a`: the other arc of the same edge, leaving
    /// `arc_target(a)` toward `a`'s source.
    ///
    /// # Panics
    ///
    /// Panics if `a >= 2m`.
    #[inline]
    pub fn arc_twin(&self, a: ArcId) -> ArcId {
        self.arc_twins[a] as ArcId
    }

    /// The two arc ids of edge `e`, `(a, arc_twin(a))`: the first leaves
    /// `endpoints(e).0`, the second leaves `endpoints(e).1`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    #[inline]
    pub fn edge_arcs(&self, e: EdgeId) -> (ArcId, ArcId) {
        let a = self.first_arcs[e] as ArcId;
        (a, self.arc_twin(a))
    }

    /// Endpoints `(u, v)` of edge `e` in construction order: `u` is the
    /// target of the edge's second arc, `v` of its first.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (Vertex, Vertex) {
        let (a, b) = self.edge_arcs(e);
        (self.arc_target(b), self.arc_target(a))
    }

    /// Iterator over the neighbors of `v`, with multiplicity for parallel
    /// edges, in port order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: Vertex) -> impl Iterator<Item = Vertex> + '_ {
        self.arc_targets[self.arc_range(v)]
            .iter()
            .map(|&t| t as Vertex)
    }

    /// Requests the cache lines of arc `a`'s `arc_targets`, `arc_edges`
    /// and `arc_twins` entries through [`eproc_sys::prefetch`] and returns
    /// without waiting for them. A walk calls this on an arc of the row
    /// its next step reads, so that row's misses overlap the rest of the
    /// current step. An `a` at or past `2m` (the start of an empty last
    /// row) requests nothing.
    #[inline]
    pub fn prefetch_arcs(&self, a: ArcId) {
        if let (Some(t), Some(e), Some(w)) = (
            self.arc_targets.get(a),
            self.arc_edges.get(a),
            self.arc_twins.get(a),
        ) {
            eproc_sys::prefetch(t);
            eproc_sys::prefetch(e);
            eproc_sys::prefetch(w);
        }
    }

    /// Iterator over `(arc, target, edge)` triples of the ports of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn ports(&self, v: Vertex) -> impl Iterator<Item = (ArcId, Vertex, EdgeId)> + '_ {
        self.arc_range(v)
            .map(move |a| (a, self.arc_target(a), self.arc_edge(a)))
    }

    /// Iterator over all edges as `(edge, u, v)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Vertex, Vertex)> + '_ {
        (0..self.m()).map(|e| {
            let (u, v) = self.endpoints(e);
            (e, u, v)
        })
    }

    /// Iterator over all vertices, `0..n`.
    pub fn vertices(&self) -> Range<Vertex> {
        0..self.n()
    }

    /// Sum of all degrees, `2m`.
    #[inline]
    pub fn total_degree(&self) -> usize {
        2 * self.m()
    }

    /// Maximum degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// `true` if some edge `{u, v}` exists (linear in `min(deg u, deg v)`).
    ///
    /// # Panics
    ///
    /// Panics if `u >= n` or `v >= n`.
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        let (small, other) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(small).any(|w| w == other)
    }

    /// `true` if the graph contains at least one pair of parallel edges.
    pub fn has_parallel_edges(&self) -> bool {
        let mut seen: Vec<(Vertex, Vertex)> =
            self.edges().map(|(_, u, v)| (u.min(v), u.max(v))).collect();
        seen.sort_unstable();
        seen.windows(2).any(|w| w[0] == w[1])
    }

    /// The edge list `(u, v)` in edge-id order; useful for round-tripping,
    /// serialization, and building modified copies.
    pub fn edge_list(&self) -> Vec<(Vertex, Vertex)> {
        self.edges().map(|(_, u, v)| (u, v)).collect()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph {{ n: {}, m: {} }}", self.n(), self.m())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_pendant();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.total_degree(), 8);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle_plus_pendant();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        let mut n2: Vec<_> = g.neighbors(2).collect();
        n2.sort_unstable();
        assert_eq!(n2, vec![0, 1, 3]);
    }

    #[test]
    fn arcs_and_edges_are_consistent() {
        let g = triangle_plus_pendant();
        for e in 0..g.m() {
            let (u, v) = g.endpoints(e);
            let (au, av) = g.edge_arcs(e);
            assert_eq!(g.arc_edge(au), e);
            assert_eq!(g.arc_edge(av), e);
            assert_eq!(g.arc_twin(au), av);
            assert_eq!(g.arc_twin(av), au);
            assert!(g.arc_range(u).contains(&au));
            assert!(g.arc_range(v).contains(&av));
        }
    }

    #[test]
    fn twins_pair_parallel_edges_arc_by_arc() {
        // Three parallel edges: each arc's twin is the arc of the *same*
        // edge, not just any arc between the same endpoints.
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (1, 2)]).unwrap();
        for a in 0..g.total_degree() {
            let t = g.arc_twin(a);
            assert_ne!(t, a);
            assert_eq!(g.arc_twin(t), a);
            assert_eq!(g.arc_edge(t), g.arc_edge(a));
            assert!(g.arc_range(g.arc_target(a)).contains(&t));
        }
    }

    #[test]
    fn index_widths_are_checked_at_the_u32_limit() {
        let max = u32::MAX as usize;
        assert_eq!(check_index_widths(max, max), Ok(()));
        assert_eq!(check_index_widths(0, 0), Ok(()));
        assert_eq!(
            check_index_widths(max + 1, 8),
            Err(GraphError::TooLarge {
                n: max + 1,
                arcs: 8
            })
        );
        assert_eq!(
            check_index_widths(4, max + 1),
            Err(GraphError::TooLarge {
                n: 4,
                arcs: max + 1
            })
        );
    }

    #[test]
    fn ports_cover_all_arcs_exactly_once() {
        let g = triangle_plus_pendant();
        let mut seen = vec![false; 2 * g.m()];
        for v in g.vertices() {
            for (a, target, e) in g.ports(v) {
                assert!(!seen[a], "arc {a} appears twice");
                seen[a] = true;
                assert_eq!(g.arc_target(a), target);
                assert_eq!(g.arc_edge(a), e);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rejects_self_loop() {
        let err = Graph::from_edges(3, &[(0, 0)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { vertex: 0 });
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Graph::from_edges(3, &[(0, 3)]).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 3, n: 3 });
    }

    #[test]
    fn parallel_edges_are_kept() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1)]).unwrap();
        assert_eq!(g.m(), 2);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_parallel_edges());
    }

    #[test]
    fn simple_graph_has_no_parallel_edges() {
        assert!(!triangle_plus_pendant().has_parallel_edges());
    }

    #[test]
    fn has_edge_works_both_directions() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        let g = Graph::from_edges(5, &[]).unwrap();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn edge_list_round_trips() {
        let g = triangle_plus_pendant();
        let h = Graph::from_edges(g.n(), &g.edge_list()).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn debug_is_nonempty() {
        let g = triangle_plus_pendant();
        assert_eq!(format!("{g:?}"), "Graph { n: 4, m: 4 }");
    }

    #[test]
    fn graph_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Graph>();
    }
}
