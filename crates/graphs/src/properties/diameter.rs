//! Eccentricities and diameter.

use crate::csr::{Graph, Vertex};
use crate::traversal::{self, UNREACHED};

/// Eccentricity of `v`: the largest BFS distance from `v`, or `None` if the
/// graph is disconnected (some vertex is unreachable).
///
/// # Panics
///
/// Panics if `v >= g.n()`.
pub fn eccentricity(g: &Graph, v: Vertex) -> Option<u32> {
    let dist = traversal::bfs_distances(g, v);
    let mut ecc = 0;
    for &d in &dist {
        if d == UNREACHED {
            return None;
        }
        ecc = ecc.max(d);
    }
    Some(ecc)
}

/// Exact diameter via all-pairs BFS (`O(n·m)`); `None` if disconnected.
/// Suitable for the small/medium graphs used in tables.
pub fn diameter_exact(g: &Graph) -> Option<u32> {
    if g.n() == 0 {
        return Some(0);
    }
    let mut best = 0;
    for v in g.vertices() {
        best = best.max(eccentricity(g, v)?);
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_diameter() {
        let g = generators::path(10);
        assert_eq!(diameter_exact(&g), Some(9));
        assert_eq!(eccentricity(&g, 5), Some(5));
    }

    #[test]
    fn cycle_diameter() {
        assert_eq!(diameter_exact(&generators::cycle(10)), Some(5));
        assert_eq!(diameter_exact(&generators::cycle(11)), Some(5));
    }

    #[test]
    fn hypercube_diameter_is_dimension() {
        assert_eq!(diameter_exact(&generators::hypercube(5)), Some(5));
    }

    #[test]
    fn complete_graph_diameter_one() {
        assert_eq!(diameter_exact(&generators::complete(7)), Some(1));
    }

    #[test]
    fn disconnected_is_none() {
        let g = crate::Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(diameter_exact(&g), None);
        assert_eq!(eccentricity(&g, 0), None);
    }
}
