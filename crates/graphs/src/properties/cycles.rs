//! Exact counting of short cycles.
//!
//! Corollary 4's proof controls the number `N_k` of `k`-cycles in a random
//! regular graph (`E N_k = θ_k r^k / k`); the `table_cycles` experiment
//! compares these predictions with exact counts produced here.

use crate::csr::{Graph, Vertex};

/// Exact number of simple cycles of each length `2..=k_max`.
///
/// Returns `counts` with `counts[k]` = number of cycles of length `k`
/// (`counts[0]` and `counts[1]` are always 0). Length-2 cycles are pairs of
/// parallel edges.
///
/// Cost is `O(n · Δ^{k_max - 1})` — exponential in `k_max`, intended for
/// `k_max ≲ 8` on sparse graphs. Each cycle is enumerated from its minimal
/// vertex in both directions and the total halved.
///
/// # Panics
///
/// Panics if `k_max < 2`.
pub fn count_cycles_up_to(g: &Graph, k_max: usize) -> Vec<u64> {
    assert!(k_max >= 2, "k_max must be at least 2");
    let mut counts = vec![0u64; k_max + 1];

    // Length-2 cycles: C(multiplicity, 2) per vertex pair.
    let mut pair_mult = std::collections::HashMap::new();
    for (_, u, v) in g.edges() {
        let key = if u < v { (u, v) } else { (v, u) };
        *pair_mult.entry(key).or_insert(0u64) += 1;
    }
    counts[2] = pair_mult.values().map(|&c| c * (c - 1) / 2).sum();

    if k_max < 3 {
        return counts;
    }
    // DFS paths root -> ... -> cur with interior vertices > root; close by
    // an edge back to root. Each k-cycle (k >= 3) is found exactly twice.
    let mut on_path = vec![false; g.n()];
    let mut doubled = vec![0u64; k_max + 1];
    for root in g.vertices() {
        on_path[root] = true;
        dfs_count(g, root, root, 1, k_max, &mut on_path, &mut doubled);
        on_path[root] = false;
    }
    for k in 3..=k_max {
        debug_assert!(doubled[k].is_multiple_of(2));
        counts[k] = doubled[k] / 2;
    }
    counts
}

fn dfs_count(
    g: &Graph,
    root: Vertex,
    cur: Vertex,
    path_len: usize, // vertices on path so far
    k_max: usize,
    on_path: &mut [bool],
    doubled: &mut [u64],
) {
    for w in g.neighbors(cur) {
        if w == root {
            // Closing edge: cycle length == path_len (edges) requires
            // path_len >= 3 to be a simple cycle (2-cycles counted apart).
            if path_len >= 3 {
                doubled[path_len] += 1;
            }
            continue;
        }
        if w < root || on_path[w] || path_len >= k_max {
            continue;
        }
        on_path[w] = true;
        dfs_count(g, root, w, path_len + 1, k_max, on_path, doubled);
        on_path[w] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::Graph;

    #[test]
    fn k4_cycle_counts() {
        let counts = count_cycles_up_to(&generators::complete(4), 4);
        assert_eq!(counts[3], 4);
        assert_eq!(counts[4], 3);
    }

    #[test]
    fn k5_cycle_counts() {
        // K_n: C(n,k) * (k-1)!/2 cycles of length k.
        let counts = count_cycles_up_to(&generators::complete(5), 5);
        assert_eq!(counts[3], 10);
        assert_eq!(counts[4], 15);
        assert_eq!(counts[5], 12);
    }

    #[test]
    fn petersen_pentagons() {
        let counts = count_cycles_up_to(&generators::petersen(), 6);
        assert_eq!(counts[3], 0);
        assert_eq!(counts[4], 0);
        assert_eq!(counts[5], 12);
        assert_eq!(counts[6], 10);
    }

    #[test]
    fn hypercube_faces() {
        // Every 4-cycle of Q_d alternates between exactly 2 dimensions:
        // C(d,2) · 2^{d-2} of them; for Q3 that is the 6 faces.
        let counts = count_cycles_up_to(&generators::hypercube(3), 4);
        assert_eq!(counts[3], 0);
        assert_eq!(counts[4], 6);
    }

    #[test]
    fn single_cycle_graph() {
        let counts = count_cycles_up_to(&generators::cycle(7), 7);
        assert_eq!(counts.iter().sum::<u64>(), 1);
        assert_eq!(counts[7], 1);
    }

    #[test]
    fn trees_have_no_cycles() {
        let counts = count_cycles_up_to(&generators::binary_tree(3), 8);
        assert_eq!(counts.iter().sum::<u64>(), 0);
    }

    #[test]
    fn parallel_edges_counted_as_2_cycles() {
        let g = Graph::from_edges(2, &[(0, 1), (0, 1), (0, 1)]).unwrap();
        let counts = count_cycles_up_to(&g, 3);
        assert_eq!(counts[2], 3); // C(3,2)
    }

    #[test]
    fn truncation_ignores_longer_cycles() {
        let counts = count_cycles_up_to(&generators::cycle(9), 5);
        assert_eq!(counts.iter().sum::<u64>(), 0);
    }

    #[test]
    #[should_panic(expected = "k_max")]
    fn kmax_too_small_panics() {
        let _ = count_cycles_up_to(&generators::cycle(3), 1);
    }
}
