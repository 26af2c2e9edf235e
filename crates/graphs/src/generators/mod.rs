//! Graph generators.
//!
//! Deterministic families live in this module; randomized generators are in
//! the submodules [`regular`] (Steger–Wormald, fixed degree sequences),
//! [`lps`] (Lubotzky–Phillips–Sarnak Ramanujan graphs, reference \[11\] of the
//! paper), [`geometric`] (random geometric graphs as used by
//! Avin–Krishnamachari) and [`random`] (Erdős–Rényi `G(n, m)`).
//!
//! All randomized generators take an explicit `&mut impl Rng` so experiments
//! are reproducible from a seed.

pub mod geometric;
pub mod incidence;
pub mod lps;
pub mod random;
pub mod regular;

/// Maximum restarts before a randomized generator reports
/// [`GraphError::RetriesExhausted`](crate::error::GraphError::RetriesExhausted).
/// Shared by every rejection-sampling generator so "give up" means the
/// same thing across the crate.
pub const MAX_RESTARTS: usize = 1000;

pub use geometric::{
    connected_random_geometric, connected_random_geometric_counted, random_geometric,
};
pub use incidence::projective_plane_incidence;
pub use lps::{lps_ramanujan, LpsParams};
pub use random::erdos_renyi_gnm;
pub use regular::{
    connected_random_regular, connected_random_regular_counted, random_with_degree_sequence,
    steger_wormald, steger_wormald_counted,
};

use crate::csr::{Graph, Vertex};

/// The cycle `C_n` (`n >= 3`): the simplest 2-regular even-degree graph.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle requires n >= 3, got {n}");
    let edges: Vec<_> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Graph::from_edges(n, &edges).expect("cycle edges are valid")
}

/// The path `P_n` on `n` vertices (`n - 1` edges).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize) -> Graph {
    assert!(n >= 1, "path requires n >= 1");
    let edges: Vec<_> = (1..n).map(|i| (i - 1, i)).collect();
    Graph::from_edges(n, &edges).expect("path edges are valid")
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut edges = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges).expect("complete graph edges are valid")
}

/// The star `K_{1,n-1}` with center `0`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1, "star requires n >= 1");
    let edges: Vec<_> = (1..n).map(|v| (0, v)).collect();
    Graph::from_edges(n, &edges).expect("star edges are valid")
}

/// The complete bipartite graph `K_{a,b}` (side A is `0..a`).
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut edges = Vec::with_capacity(a * b);
    for u in 0..a {
        for v in 0..b {
            edges.push((u, a + v));
        }
    }
    Graph::from_edges(a + b, &edges).expect("complete bipartite edges are valid")
}

/// The `r`-dimensional hypercube `H_r` on `2^r` vertices.
///
/// `H_r` is `r`-regular with `m = r 2^{r-1}`; the paper uses it as the
/// example where the edge-cover sandwich (3) is tight while the
/// Orenshtein–Shinkar bound (2) is not (§1, *Edge cover time*).
///
/// # Panics
///
/// Panics if `r >= usize::BITS as usize` (overflow) — practical sizes are
/// far below that.
pub fn hypercube(r: usize) -> Graph {
    assert!(r < usize::BITS as usize, "hypercube dimension too large");
    let n = 1usize << r;
    let mut edges = Vec::with_capacity(r * n / 2);
    for v in 0..n {
        for bit in 0..r {
            let w = v ^ (1 << bit);
            if v < w {
                edges.push((v, w));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("hypercube edges are valid")
}

/// The 2-dimensional toroidal grid (`w x h` torus), 4-regular when
/// `w, h >= 3`. Used by Avin–Krishnamachari's RWC experiments.
///
/// Parallel edges appear when `w == 2` or `h == 2` (wrap coincides with the
/// grid edge); callers wanting a simple graph should use `w, h >= 3`.
///
/// # Panics
///
/// Panics if `w < 2` or `h < 2`.
pub fn torus2d(w: usize, h: usize) -> Graph {
    assert!(w >= 2 && h >= 2, "torus2d requires w, h >= 2");
    let idx = |x: usize, y: usize| -> Vertex { y * w + x };
    let mut edges = Vec::with_capacity(2 * w * h);
    for y in 0..h {
        for x in 0..w {
            edges.push((idx(x, y), idx((x + 1) % w, y)));
            edges.push((idx(x, y), idx(x, (y + 1) % h)));
        }
    }
    Graph::from_edges(w * h, &edges).expect("torus edges are valid")
}

/// The lollipop graph: a clique on `clique` vertices with a path of
/// `path_len` extra vertices attached to vertex `0`.
///
/// A classical worst case for random-walk hitting times.
///
/// # Panics
///
/// Panics if `clique < 1`.
pub fn lollipop(clique: usize, path_len: usize) -> Graph {
    assert!(clique >= 1, "lollipop requires a nonempty clique");
    let mut edges = Vec::new();
    for u in 0..clique {
        for v in (u + 1)..clique {
            edges.push((u, v));
        }
    }
    for i in 0..path_len {
        let a = if i == 0 { 0 } else { clique + i - 1 };
        edges.push((a, clique + i));
    }
    Graph::from_edges(clique + path_len, &edges).expect("lollipop edges are valid")
}

/// The barbell graph: two cliques of size `k` joined by a path of
/// `path_len` intermediate vertices.
///
/// # Panics
///
/// Panics if `k < 1`.
pub fn barbell(k: usize, path_len: usize) -> Graph {
    assert!(k >= 1, "barbell requires nonempty cliques");
    let n = 2 * k + path_len;
    let mut edges = Vec::new();
    for u in 0..k {
        for v in (u + 1)..k {
            edges.push((u, v));
            edges.push((k + path_len + u, k + path_len + v));
        }
    }
    // Chain: clique A vertex 0 -> path -> clique B vertex 0.
    let mut prev = 0;
    for i in 0..path_len {
        edges.push((prev, k + i));
        prev = k + i;
    }
    edges.push((prev, k + path_len));
    Graph::from_edges(n, &edges).expect("barbell edges are valid")
}

/// The complete binary tree of the given `depth` (`2^{depth+1} - 1`
/// vertices); root is vertex `0`.
pub fn binary_tree(depth: usize) -> Graph {
    let n = (1usize << (depth + 1)) - 1;
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for v in 1..n {
        edges.push(((v - 1) / 2, v));
    }
    Graph::from_edges(n, &edges).expect("tree edges are valid")
}

/// The Petersen graph (3-regular, girth 5, 10 vertices) — a small
/// odd-degree benchmark graph.
pub fn petersen() -> Graph {
    let mut edges = Vec::with_capacity(15);
    for i in 0..5 {
        edges.push((i, (i + 1) % 5)); // outer pentagon
        edges.push((5 + i, 5 + (i + 2) % 5)); // inner pentagram
        edges.push((i, 5 + i)); // spokes
    }
    Graph::from_edges(10, &edges).expect("petersen edges are valid")
}

/// Two vertex-disjoint cycles of length `len` sharing exactly one vertex
/// (vertex `0`): the minimal 4-regular-at-a-vertex even subgraph shape
/// `S*_v` described in Observation 11 ("d(v)/2 blue cycles with common root
/// vertex v").
///
/// # Panics
///
/// Panics if `len < 3`.
pub fn figure_eight(len: usize) -> Graph {
    assert!(len >= 3, "figure_eight requires cycle length >= 3");
    let n = 2 * len - 1;
    let mut edges = Vec::new();
    // First cycle on 0..len.
    for i in 0..len {
        edges.push((i, (i + 1) % len));
    }
    // Second cycle on 0, len..2len-1.
    let second: Vec<Vertex> = std::iter::once(0).chain(len..n).collect();
    for i in 0..second.len() {
        edges.push((second[i], second[(i + 1) % second.len()]));
    }
    Graph::from_edges(n, &edges).expect("figure eight edges are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::{connectivity, degrees};

    #[test]
    fn cycle_is_2_regular() {
        let g = cycle(7);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 7);
        assert!(degrees::is_regular(&g, 2));
        assert!(connectivity::is_connected(&g));
    }

    #[test]
    #[should_panic(expected = "n >= 3")]
    fn cycle_too_small_panics() {
        let _ = cycle(2);
    }

    #[test]
    fn path_counts() {
        let g = path(6);
        assert_eq!(g.m(), 5);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(3), 2);
    }

    #[test]
    fn complete_counts() {
        let g = complete(6);
        assert_eq!(g.m(), 15);
        assert!(degrees::is_regular(&g, 5));
    }

    #[test]
    fn complete_k1_and_k2() {
        assert_eq!(complete(1).m(), 0);
        assert_eq!(complete(2).m(), 1);
    }

    #[test]
    fn star_counts() {
        let g = star(5);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn complete_bipartite_counts() {
        let g = complete_bipartite(2, 3);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 6);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4);
        assert_eq!(g.n(), 16);
        assert_eq!(g.m(), 32);
        assert!(degrees::is_regular(&g, 4));
        assert!(connectivity::is_connected(&g));
        assert!(!g.has_parallel_edges());
    }

    #[test]
    fn hypercube_h0_is_single_vertex() {
        let g = hypercube(0);
        assert_eq!(g.n(), 1);
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus2d(5, 4);
        assert_eq!(g.n(), 20);
        assert_eq!(g.m(), 40);
        assert!(degrees::is_regular(&g, 4));
        assert!(degrees::is_even_degree(&g));
        assert!(connectivity::is_connected(&g));
        assert!(!g.has_parallel_edges());
    }

    #[test]
    fn torus_2xk_has_parallel_edges() {
        let g = torus2d(2, 4);
        assert!(g.has_parallel_edges());
        assert!(degrees::is_regular(&g, 4));
    }

    #[test]
    fn lollipop_structure() {
        let g = lollipop(4, 3);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 6 + 3);
        assert_eq!(g.degree(6), 1);
        assert!(connectivity::is_connected(&g));
    }

    #[test]
    fn barbell_structure() {
        let g = barbell(3, 2);
        assert_eq!(g.n(), 8);
        assert!(connectivity::is_connected(&g));
        // Path interior vertices have degree 2.
        assert_eq!(g.degree(3), 2);
        assert_eq!(g.degree(4), 2);
    }

    #[test]
    fn barbell_no_path() {
        let g = barbell(3, 0);
        assert!(connectivity::is_connected(&g));
        assert_eq!(g.n(), 6);
    }

    #[test]
    fn binary_tree_structure() {
        let g = binary_tree(3);
        assert_eq!(g.n(), 15);
        assert_eq!(g.m(), 14);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(14), 1);
    }

    #[test]
    fn petersen_structure() {
        let g = petersen();
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 15);
        assert!(degrees::is_regular(&g, 3));
        assert!(connectivity::is_connected(&g));
        assert!(!g.has_parallel_edges());
    }

    #[test]
    fn figure_eight_structure() {
        let g = figure_eight(4);
        assert_eq!(g.n(), 7);
        assert_eq!(g.m(), 8);
        assert_eq!(g.degree(0), 4);
        assert!(degrees::is_even_degree(&g));
        assert!(connectivity::is_connected(&g));
    }
}
