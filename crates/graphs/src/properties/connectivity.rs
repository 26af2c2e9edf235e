//! Connectivity.

use crate::csr::Graph;
use crate::traversal;

/// `true` if the graph is connected (the empty graph and a single vertex
/// count as connected).
pub fn is_connected(g: &Graph) -> bool {
    if g.n() <= 1 {
        return true;
    }
    traversal::bfs_order(g, 0).len() == g.n()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::Graph;

    #[test]
    fn connected_families() {
        assert!(is_connected(&generators::cycle(5)));
        assert!(is_connected(&generators::hypercube(3)));
        assert!(is_connected(&generators::complete(4)));
    }

    #[test]
    fn trivial_graphs_connected() {
        assert!(is_connected(&Graph::from_edges(0, &[]).unwrap()));
        assert!(is_connected(&Graph::from_edges(1, &[]).unwrap()));
        assert!(!is_connected(&Graph::from_edges(2, &[]).unwrap()));
    }

    #[test]
    fn components_of_disjoint_triangles() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]).unwrap();
        assert!(!is_connected(&g));
    }

    #[test]
    fn isolated_vertices_are_components() {
        let g = Graph::from_edges(4, &[(0, 1)]).unwrap();
        assert!(!is_connected(&g));
    }
}
