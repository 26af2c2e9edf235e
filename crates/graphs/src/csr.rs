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
//!   each at most `u32::MAX` ([`GraphError::TooLarge`] otherwise).

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
/// Construction is via [`Graph::from_edges`], which every one of the
/// [`crate::generators`] calls. The representation is immutable after
/// construction: walk processes keep their own mutable bookkeeping (visited
/// bitmaps, rotor positions, ...) *outside* the graph, so a single graph can
/// back many concurrent simulations.
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
    offsets: Vec<usize>,
    /// Target vertex of each arc.
    arc_targets: Vec<u32>,
    /// Edge id of each arc.
    arc_edges: Vec<u32>,
    /// The opposite arc of the same edge, per arc. Kept beside (not packed
    /// with) `arc_targets` and `arc_edges`, so kernels that scan a whole
    /// port row of edge ids stream only the array they read.
    arc_twins: Vec<u32>,
    /// Endpoints `(u, v)` of each edge, in the order supplied at construction.
    edge_endpoints: Vec<(u32, u32)>,
    /// The two arc ids of each edge: `edge_arcs[e].0` leaves `endpoints.0`,
    /// `edge_arcs[e].1` leaves `endpoints.1`.
    edge_arcs: Vec<(u32, u32)>,
}

/// Checks that `n` vertices and `arcs` arcs fit the 32-bit index width the
/// CSR arrays store ids in. The bound is `u32::MAX` for both, so that the
/// arc count itself — which walk state keeps as the end sentinel of the
/// last port row — is representable too.
fn check_index_widths(n: usize, arcs: usize) -> Result<(), GraphError> {
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
        let mut degree = vec![0usize; n];
        for &(u, v) in edges {
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &d in degree.iter().take(n) {
            acc += d;
            offsets.push(acc);
        }
        debug_assert_eq!(acc, 2 * m);
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        let mut arc_targets = vec![0u32; 2 * m];
        let mut arc_edges = vec![0u32; 2 * m];
        let mut arc_twins = vec![0u32; 2 * m];
        let mut edge_arcs = vec![(0u32, 0u32); m];
        let mut edge_endpoints = Vec::with_capacity(m);
        // Every id below is < n or < 2m, both checked to fit in u32 above.
        for (e, &(u, v)) in edges.iter().enumerate() {
            let au = cursor[u];
            cursor[u] += 1;
            arc_targets[au] = v as u32;
            arc_edges[au] = e as u32;
            let av = cursor[v];
            cursor[v] += 1;
            arc_targets[av] = u as u32;
            arc_edges[av] = e as u32;
            arc_twins[au] = av as u32;
            arc_twins[av] = au as u32;
            edge_arcs[e] = (au as u32, av as u32);
            edge_endpoints.push((u as u32, v as u32));
        }
        Ok(Graph {
            offsets,
            arc_targets,
            arc_edges,
            arc_twins,
            edge_endpoints,
            edge_arcs,
        })
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges (counting parallel edges separately).
    #[inline]
    pub fn m(&self) -> usize {
        self.edge_endpoints.len()
    }

    /// Degree of `v` (parallel edges counted with multiplicity).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The contiguous range of arc ids leaving `v` (its *ports*).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn arc_range(&self, v: Vertex) -> Range<ArcId> {
        self.offsets[v]..self.offsets[v + 1]
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

    /// The two arc ids of edge `e`: the first leaves `endpoints(e).0`, the
    /// second leaves `endpoints(e).1`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    #[inline]
    pub fn edge_arcs(&self, e: EdgeId) -> (ArcId, ArcId) {
        let (a, b) = self.edge_arcs[e];
        (a as ArcId, b as ArcId)
    }

    /// Endpoints `(u, v)` of edge `e` in construction order.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (Vertex, Vertex) {
        let (u, v) = self.edge_endpoints[e];
        (u as Vertex, v as Vertex)
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

    /// Issues an early load of `v`'s CSR port row — the offset word and
    /// the leading `arc_targets` / `arc_edges` / `arc_twins` entries —
    /// discarding the values through [`std::hint::black_box`].
    ///
    /// This is the crate's safe-code stand-in for a prefetch hint
    /// (`#![forbid(unsafe_code)]` rules out the intrinsic): the loads
    /// cannot be optimised away, so the row's cache lines are requested
    /// *now* and their memory latency overlaps whatever the caller does
    /// next. The interleaved multi-trial driver calls this for the lane it
    /// will advance next while the current lane's step executes.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn prefetch_ports(&self, v: Vertex) {
        self.prefetch_arcs(self.offsets[v]);
    }

    /// [`prefetch_ports`](Graph::prefetch_ports) for a caller that already
    /// knows where the row starts: loads the `arc_targets`, `arc_edges`
    /// and `arc_twins` entries of arc `a` through
    /// [`std::hint::black_box`], skipping the `offsets` word. An `a` at or
    /// past `2m` (the start of an empty last row) loads nothing.
    #[inline]
    pub fn prefetch_arcs(&self, a: ArcId) {
        if let (Some(&t), Some(&e), Some(&w)) = (
            self.arc_targets.get(a),
            self.arc_edges.get(a),
            self.arc_twins.get(a),
        ) {
            std::hint::black_box(t);
            std::hint::black_box(e);
            std::hint::black_box(w);
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
        self.edge_endpoints
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| (e, u as Vertex, v as Vertex))
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

    /// Minimum degree, or 0 for the empty graph.
    pub fn min_degree(&self) -> usize {
        (0..self.n()).map(|v| self.degree(v)).min().unwrap_or(0)
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
        let mut seen: Vec<(u32, u32)> = self
            .edge_endpoints
            .iter()
            .map(|&(u, v)| if u <= v { (u, v) } else { (v, u) })
            .collect();
        seen.sort_unstable();
        seen.windows(2).any(|w| w[0] == w[1])
    }

    /// The edge list `(u, v)` in edge-id order; useful for round-tripping,
    /// serialization, and building modified copies.
    pub fn edge_list(&self) -> Vec<(Vertex, Vertex)> {
        self.edge_endpoints
            .iter()
            .map(|&(u, v)| (u as Vertex, v as Vertex))
            .collect()
    }

    /// Returns a copy of the graph with an extra vertex-disjoint validation
    /// pass; used by property tests.
    ///
    /// # Errors
    ///
    /// Propagates any [`GraphError`] from reconstruction (none are expected
    /// for a well-formed graph).
    pub fn rebuilt(&self) -> Result<Graph, GraphError> {
        Graph::from_edges(self.n(), &self.edge_list())
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
        assert_eq!(g.min_degree(), 1);
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
            assert_eq!(g.arc_target(au), v);
            assert_eq!(g.arc_target(av), u);
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
        let h = g.rebuilt().unwrap();
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
