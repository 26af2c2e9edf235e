//! Breadth-first traversal primitives.
//!
//! These are deliberately small and allocation-explicit: the property
//! algorithms (connectivity, girth, diameter, ℓ-goodness) each drive their
//! own traversal with extra per-vertex state, so the building blocks here
//! return plain `Vec`s rather than hiding state in iterators.

use crate::csr::{Graph, Vertex};

/// Distance label for vertices not reached by a truncated BFS.
pub const UNREACHED: u32 = u32::MAX;

/// BFS distances from `start`; unreachable vertices get [`UNREACHED`].
///
/// # Panics
///
/// Panics if `start >= g.n()`.
///
/// # Example
///
/// ```
/// use eproc_graphs::{Graph, traversal};
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2)])?;
/// let d = traversal::bfs_distances(&g, 0);
/// assert_eq!(d[2], 2);
/// assert_eq!(d[3], traversal::UNREACHED);
/// # Ok::<(), eproc_graphs::GraphError>(())
/// ```
pub fn bfs_distances(g: &Graph, start: Vertex) -> Vec<u32> {
    bfs_distances_bounded(g, start, u32::MAX)
}

/// BFS distances from `start`, exploring only vertices at distance
/// `<= radius`; all others get [`UNREACHED`].
///
/// # Panics
///
/// Panics if `start >= g.n()`.
pub fn bfs_distances_bounded(g: &Graph, start: Vertex, radius: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHED; g.n()];
    dist[start] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        let du = dist[u];
        if du >= radius {
            continue;
        }
        for w in g.neighbors(u) {
            if dist[w] == UNREACHED {
                dist[w] = du + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Vertices visited by a BFS from `start`, in visit order.
///
/// # Panics
///
/// Panics if `start >= g.n()`.
pub fn bfs_order(g: &Graph, start: Vertex) -> Vec<Vertex> {
    let mut seen = vec![false; g.n()];
    seen[start] = true;
    let mut order = vec![start];
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for w in g.neighbors(u) {
            if !seen[w] {
                seen[w] = true;
                order.push(w);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn two_triangles_bridge() -> Graph {
        // 0-1-2 triangle, 3-4-5 triangle, bridge 2-3.
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn distances_on_path() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bounded_bfs_stops() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let d = bfs_distances_bounded(&g, 0, 2);
        assert_eq!(d[2], 2);
        assert_eq!(d[3], UNREACHED);
        assert_eq!(d[4], UNREACHED);
    }

    #[test]
    fn bfs_order_visits_component() {
        let g = two_triangles_bridge();
        let order = bfs_order(&g, 0);
        assert_eq!(order.len(), 6);
        assert_eq!(order[0], 0);
    }

    #[test]
    fn bfs_order_stays_in_component() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(bfs_order(&g, 0), vec![0, 1]);
        assert_eq!(bfs_order(&g, 3), vec![3, 2]);
    }
}
