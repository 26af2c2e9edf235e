//! Erdős–Rényi random graphs `G(n, m)`.

use crate::csr::Graph;
use crate::error::GraphError;
use rand::Rng;
use std::collections::HashSet;

/// `G(n, m)`: a uniformly random simple graph with exactly `m` edges.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `m > n(n-1)/2`.
pub fn erdos_renyi_gnm<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    let total = n.saturating_mul(n.saturating_sub(1)) / 2;
    if m > total {
        return Err(GraphError::InvalidParameter {
            reason: format!("m = {m} exceeds the {total} possible edges on {n} vertices"),
        });
    }
    let mut chosen = HashSet::with_capacity(m);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let idx = rng.gen_range(0..total);
        if chosen.insert(idx) {
            edges.push(unrank_pair(idx, n));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Maps a pair index in `0..n(n-1)/2` to the pair `(u, v)`, `u < v`,
/// in row-major order: (0,1), (0,2), …, (0,n-1), (1,2), ….
fn unrank_pair(idx: usize, n: usize) -> (usize, usize) {
    // Row u starts at offset u*n - u*(u+3)/2 ... solve incrementally is
    // O(n); use the closed form via floating sqrt then fix up.
    let idxf = idx as f64;
    let nf = n as f64;
    // Row u starts at offset u(n-1) - u(u-1)/2; invert approximately and
    // fix up by stepping.
    let disc = ((2.0 * nf - 1.0) * (2.0 * nf - 1.0) - 8.0 * idxf).max(0.0);
    let mut u =
        (((2.0 * nf - 1.0 - disc.sqrt()) / 2.0).floor().max(0.0) as usize).min(n.saturating_sub(2));
    loop {
        let row_start = u * (n - 1) - u * (u.saturating_sub(1)) / 2;
        let row_len = n - 1 - u;
        if idx < row_start {
            debug_assert!(u > 0);
            u -= 1;
        } else if idx >= row_start + row_len {
            u += 1;
        } else {
            let v = u + 1 + (idx - row_start);
            return (u, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn unrank_is_bijective() {
        let n = 9;
        let mut seen = HashSet::new();
        for idx in 0..n * (n - 1) / 2 {
            let (u, v) = unrank_pair(idx, n);
            assert!(u < v && v < n, "idx {idx} gave ({u},{v})");
            assert!(seen.insert((u, v)));
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
    }

    #[test]
    fn unrank_order_is_row_major() {
        assert_eq!(unrank_pair(0, 5), (0, 1));
        assert_eq!(unrank_pair(3, 5), (0, 4));
        assert_eq!(unrank_pair(4, 5), (1, 2));
        assert_eq!(unrank_pair(9, 5), (3, 4));
    }

    #[test]
    fn gnm_exact_count_and_simple() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = erdos_renyi_gnm(30, 100, &mut rng).unwrap();
        assert_eq!(g.m(), 100);
        assert!(!g.has_parallel_edges());
    }

    #[test]
    fn gnm_rejects_too_many_edges() {
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(erdos_renyi_gnm(5, 11, &mut rng).is_err());
        assert!(erdos_renyi_gnm(5, 10, &mut rng).is_ok());
    }
}
