//! Degree predicates and statistics.

use crate::csr::Graph;

/// `true` if every vertex has the exact degree `r`.
pub fn is_regular(g: &Graph, r: usize) -> bool {
    g.vertices().all(|v| g.degree(v) == r)
}

/// `true` if every vertex has even degree — the paper's standing
/// assumption ("we will henceforth always assume this is the case").
pub fn is_even_degree(g: &Graph) -> bool {
    g.vertices().all(|v| g.degree(v).is_multiple_of(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::Graph;

    #[test]
    fn regular_families() {
        assert!(is_regular(&generators::cycle(6), 2));
        assert!(is_regular(&generators::hypercube(3), 3));
        assert!(is_regular(&generators::torus2d(4, 5), 4));
        assert!(is_regular(&generators::petersen(), 3));
    }

    #[test]
    fn irregular_graph() {
        let g = generators::star(4);
        assert!((0..=g.max_degree()).all(|r| !is_regular(&g, r)));
    }

    #[test]
    fn even_degree_families() {
        assert!(is_even_degree(&generators::cycle(9)));
        assert!(is_even_degree(&generators::torus2d(3, 3)));
        assert!(is_even_degree(&generators::hypercube(4)));
        assert!(!is_even_degree(&generators::hypercube(3)));
        assert!(!is_even_degree(&generators::petersen()));
    }

    #[test]
    fn empty_graph_conventions() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert!(is_regular(&g, 0));
        assert!(is_even_degree(&g));
    }
}
