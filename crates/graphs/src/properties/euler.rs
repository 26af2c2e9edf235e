//! Eulerian circuits and cycle decompositions of even-degree (sub)graphs.
//!
//! Observation 11 of the paper: while a vertex is unvisited, the blue
//! (unvisited) edges form even-degree edge-induced subgraphs; "in the
//! simplest case S*_v consists of d(v)/2 blue cycles with common root v".
//! Even-degree subgraphs decompose into edge-disjoint cycles; this module
//! provides that decomposition, plus full Eulerian circuits (the
//! rotor-router analysis in the related work rests on the same structure).

use crate::csr::{ArcId, EdgeId, Graph, Vertex};

/// An Eulerian circuit as the sequence of arcs traversed (start vertex is
/// the source of the first arc). `None` if the graph has a vertex of odd
/// degree, or its edges span more than one component. A graph with no edges
/// yields `Some(vec![])`.
///
/// Uses Hierholzer's algorithm: `O(n + m)`.
pub fn eulerian_circuit(g: &Graph) -> Option<Vec<ArcId>> {
    if g.m() == 0 {
        return Some(Vec::new());
    }
    if g.vertices().any(|v| !g.degree(v).is_multiple_of(2)) {
        return None;
    }
    let start = g.vertices().find(|&v| g.degree(v) > 0)?;
    let mut edge_used = vec![false; g.m()];
    // Per-vertex cursor into its port range so each arc is scanned once.
    let mut cursor: Vec<ArcId> = g.vertices().map(|v| g.arc_range(v).start).collect();
    let mut stack: Vec<(Vertex, Option<ArcId>)> = vec![(start, None)];
    let mut circuit: Vec<ArcId> = Vec::with_capacity(g.m());
    while let Some(&(v, via)) = stack.last() {
        let end = g.arc_range(v).end;
        let mut advanced = false;
        while cursor[v] < end {
            let a = cursor[v];
            cursor[v] += 1;
            let e = g.arc_edge(a);
            if !edge_used[e] {
                edge_used[e] = true;
                stack.push((g.arc_target(a), Some(a)));
                advanced = true;
                break;
            }
        }
        if !advanced {
            stack.pop();
            if let Some(a) = via {
                circuit.push(a);
            }
        }
    }
    if circuit.len() != g.m() {
        return None; // edges span multiple components
    }
    circuit.reverse();
    Some(circuit)
}

/// Decomposes the even-degree subgraph selected by `alive` (an edge mask,
/// `alive.len() == g.m()`) into edge-disjoint simple cycles, each returned
/// as its list of edge ids in traversal order.
///
/// Returns `None` if some vertex has odd degree within the mask — the
/// certificate that the mask is *not* a legal blue subgraph in the sense of
/// Observation 11.
///
/// # Panics
///
/// Panics if `alive.len() != g.m()`.
pub fn cycle_decomposition(g: &Graph, alive: &[bool]) -> Option<Vec<Vec<EdgeId>>> {
    assert_eq!(alive.len(), g.m(), "edge mask length mismatch");
    // Masked degrees must all be even.
    let mut deg = vec![0usize; g.n()];
    for (e, u, v) in g.edges() {
        if alive[e] {
            deg[u] += 1;
            deg[v] += 1;
        }
    }
    if deg.iter().any(|&d| d % 2 != 0) {
        return None;
    }
    let mut used = vec![false; g.m()];
    let mut cursor: Vec<ArcId> = g.vertices().map(|v| g.arc_range(v).start).collect();
    let mut cycles: Vec<Vec<EdgeId>> = Vec::new();
    // `on_path[v]` = position of v in the current walk, or usize::MAX.
    let mut on_path = vec![usize::MAX; g.n()];

    for root in g.vertices() {
        loop {
            // Find an unused alive arc at root.
            advance_cursor(g, root, &mut cursor, &used, alive);
            if cursor[root] >= g.arc_range(root).end {
                break;
            }
            // Walk greedily until a vertex repeats; peel cycles as found.
            let mut path_vertices: Vec<Vertex> = vec![root];
            let mut path_edges: Vec<EdgeId> = Vec::new();
            on_path[root] = 0;
            let mut cur = root;
            loop {
                advance_cursor(g, cur, &mut cursor, &used, alive);
                let a = cursor[cur];
                debug_assert!(
                    a < g.arc_range(cur).end,
                    "even masked degree guarantees an exit edge"
                );
                let e = g.arc_edge(a);
                used[e] = true;
                let next = g.arc_target(a);
                path_edges.push(e);
                if on_path[next] != usize::MAX {
                    // Closed a cycle: pop it off the walk.
                    let pos = on_path[next];
                    let cycle_edges: Vec<EdgeId> = path_edges.drain(pos..).collect();
                    for v in path_vertices.drain(pos + 1..) {
                        on_path[v] = usize::MAX;
                    }
                    cycles.push(cycle_edges);
                    cur = next;
                    if cur == root && path_edges.is_empty() {
                        on_path[root] = usize::MAX;
                        break;
                    }
                } else {
                    on_path[next] = path_vertices.len();
                    path_vertices.push(next);
                    cur = next;
                }
            }
        }
    }
    Some(cycles)
}

fn advance_cursor(g: &Graph, v: Vertex, cursor: &mut [ArcId], used: &[bool], alive: &[bool]) {
    let end = g.arc_range(v).end;
    while cursor[v] < end {
        let e = g.arc_edge(cursor[v]);
        if alive[e] && !used[e] {
            return;
        }
        cursor[v] += 1;
    }
}

/// Convenience: decomposes the *entire* graph into edge-disjoint cycles
/// (`None` if any vertex has odd degree).
pub fn cycle_decomposition_full(g: &Graph) -> Option<Vec<Vec<EdgeId>>> {
    cycle_decomposition(g, &vec![true; g.m()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::Graph;

    fn verify_circuit(g: &Graph, circuit: &[ArcId]) {
        assert_eq!(circuit.len(), g.m());
        let mut seen = vec![false; g.m()];
        for w in circuit.windows(2) {
            assert_eq!(
                g.arc_target(w[0]),
                arc_source(g, w[1]),
                "circuit must be contiguous"
            );
        }
        if let (Some(&first), Some(&last)) = (circuit.first(), circuit.last()) {
            assert_eq!(
                g.arc_target(last),
                arc_source(g, first),
                "circuit must close"
            );
        }
        for &a in circuit {
            let e = g.arc_edge(a);
            assert!(!seen[e], "edge {e} repeated");
            seen[e] = true;
        }
    }

    fn arc_source(g: &Graph, a: ArcId) -> Vertex {
        let (u, v) = g.endpoints(g.arc_edge(a));
        if g.arc_target(a) == u {
            v
        } else {
            u
        }
    }

    #[test]
    fn cycle_has_eulerian_circuit() {
        let g = generators::cycle(7);
        verify_circuit(&g, &eulerian_circuit(&g).unwrap());
    }

    #[test]
    fn figure_eight_has_eulerian_circuit() {
        let g = generators::figure_eight(5);
        verify_circuit(&g, &eulerian_circuit(&g).unwrap());
    }

    #[test]
    fn even_torus_has_eulerian_circuit() {
        let g = generators::torus2d(4, 3);
        verify_circuit(&g, &eulerian_circuit(&g).unwrap());
    }

    #[test]
    fn odd_degree_has_none() {
        assert!(eulerian_circuit(&generators::petersen()).is_none());
        assert!(eulerian_circuit(&generators::path(4)).is_none());
    }

    #[test]
    fn disconnected_even_graph_has_none() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        assert!(eulerian_circuit(&g).is_none());
    }

    #[test]
    fn empty_graph_trivial_circuit() {
        let g = Graph::from_edges(3, &[]).unwrap();
        assert_eq!(eulerian_circuit(&g), Some(vec![]));
    }

    fn verify_decomposition(g: &Graph, alive: &[bool], cycles: &[Vec<EdgeId>]) {
        let mut used = vec![false; g.m()];
        let mut covered = 0usize;
        for cycle in cycles {
            assert!(
                cycle.len() >= 2,
                "cycles have length >= 2 (parallel pair) in multigraphs"
            );
            // Each cycle is a closed walk with distinct edges and distinct
            // vertices: every vertex it touches has exactly 2 cycle-edges.
            let mut deg = std::collections::HashMap::new();
            for &e in cycle {
                assert!(alive[e]);
                assert!(!used[e], "edge {e} reused across cycles");
                used[e] = true;
                covered += 1;
                let (u, v) = g.endpoints(e);
                *deg.entry(u).or_insert(0) += 1;
                *deg.entry(v).or_insert(0) += 1;
            }
            assert!(
                deg.values().all(|&d| d == 2),
                "not a simple cycle: {cycle:?}"
            );
        }
        let alive_count = alive.iter().filter(|&&a| a).count();
        assert_eq!(
            covered, alive_count,
            "decomposition must cover all alive edges"
        );
    }

    #[test]
    fn decompose_figure_eight_into_two_cycles() {
        let g = generators::figure_eight(4);
        let cycles = cycle_decomposition_full(&g).unwrap();
        assert_eq!(cycles.len(), 2);
        verify_decomposition(&g, &vec![true; g.m()], &cycles);
    }

    #[test]
    fn decompose_even_families() {
        for g in [
            generators::torus2d(3, 3),
            generators::hypercube(4),
            generators::complete(5),
        ] {
            let cycles = cycle_decomposition_full(&g).unwrap();
            verify_decomposition(&g, &vec![true; g.m()], &cycles);
        }
    }

    #[test]
    fn decompose_respects_mask() {
        let g = generators::figure_eight(3);
        // Keep only the first triangle (edges 0, 1, 2 by construction).
        let mut alive = vec![false; g.m()];
        alive[..3].fill(true);
        let cycles = cycle_decomposition(&g, &alive).unwrap();
        assert_eq!(cycles.len(), 1);
        verify_decomposition(&g, &alive, &cycles);
    }

    #[test]
    fn odd_mask_rejected() {
        let g = generators::cycle(5);
        let mut alive = vec![true; g.m()];
        alive[0] = false; // breaks parity at two vertices
        assert!(cycle_decomposition(&g, &alive).is_none());
    }

    #[test]
    fn decompose_parallel_pair() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1)]).unwrap();
        let cycles = cycle_decomposition_full(&g).unwrap();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
    }

    #[test]
    fn empty_mask_gives_empty_decomposition() {
        let g = generators::cycle(4);
        let cycles = cycle_decomposition(&g, &vec![false; g.m()]).unwrap();
        assert!(cycles.is_empty());
    }
}
