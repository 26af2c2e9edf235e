//! Random regular graphs and fixed degree sequence random graphs.
//!
//! The paper's experiments (§5, Figure 1) were generated "using the random
//! regular graph generator from the NetworkX package … This package
//! implements the Steger/Wormald approach" (\[15\]). [`steger_wormald`] is
//! that algorithm and the only random regular generator here;
//! [`random_with_degree_sequence`] (configuration model with whole-pairing
//! rejection) draws simple graphs with an arbitrary degree sequence.

use super::MAX_RESTARTS;
use crate::csr::{Graph, Vertex};
use crate::error::GraphError;
use crate::properties::connectivity;
use rand::seq::SliceRandom;
use rand::Rng;

fn check_degree_sequence(degrees: &[usize]) -> Result<(), GraphError> {
    let n = degrees.len();
    let total: usize = degrees.iter().sum();
    if !total.is_multiple_of(2) {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!("degree sum {total} is odd"),
        });
    }
    if let Some((v, &d)) = degrees.iter().enumerate().find(|&(_, &d)| d >= n) {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!("vertex {v} has degree {d} >= n = {n} (simple graph impossible)"),
        });
    }
    Ok(())
}

/// One pass of the configuration model: pair up stubs uniformly at random.
/// May contain self-loop pairings (dropped as `None`) — callers retry.
fn pair_stubs<R: Rng + ?Sized>(degrees: &[usize], rng: &mut R) -> Option<Vec<(Vertex, Vertex)>> {
    let mut stubs: Vec<Vertex> = Vec::with_capacity(degrees.iter().sum());
    for (v, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(v, d));
    }
    stubs.shuffle(rng);
    let mut edges = Vec::with_capacity(stubs.len() / 2);
    for pair in stubs.chunks_exact(2) {
        if pair[0] == pair[1] {
            return None; // self-loop: reject the whole pairing
        }
        edges.push((pair[0], pair[1]));
    }
    Some(edges)
}

/// Uniform random simple graph with the given degree sequence
/// (configuration model + whole-pairing rejection).
///
/// # Errors
///
/// [`GraphError::InfeasibleDegrees`] on an odd sum or a degree `>= n`;
/// [`GraphError::RetriesExhausted`] after too many non-simple pairings.
pub fn random_with_degree_sequence<R: Rng + ?Sized>(
    degrees: &[usize],
    rng: &mut R,
) -> Result<Graph, GraphError> {
    let n = degrees.len();
    check_degree_sequence(degrees)?;
    for _ in 0..MAX_RESTARTS {
        let Some(edges) = pair_stubs(degrees, rng) else {
            continue;
        };
        // Whole-pairing rejection is all-or-nothing and draws no RNG, so
        // a sort-based duplicate scan is interchangeable with (and much
        // cheaper than) hashing every key.
        let mut keys: Vec<(Vertex, Vertex)> = edges
            .iter()
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        keys.sort_unstable();
        if keys.windows(2).any(|w| w[0] == w[1]) {
            continue; // parallel edge: reject
        }
        return Graph::from_edges(n, &edges);
    }
    Err(GraphError::RetriesExhausted {
        generator: "random_with_degree_sequence",
        attempts: MAX_RESTARTS,
        what: format!("a simple graph on {n} vertices with the given degree sequence"),
    })
}

/// Random `r`-regular simple graph via the Steger–Wormald algorithm \[15\]
/// — the generator behind the paper's Figure 1 (via NetworkX).
///
/// Repeatedly joins two uniformly random *suitable* stubs (no loop, no
/// repeated edge); restarts the phase when no suitable pair remains. The
/// output distribution is asymptotically uniform for `r = O(n^{1/3})` and
/// the algorithm runs in `O(n r²)` expected time — unlike whole-pairing
/// rejection it does not degrade exponentially in `r`.
///
/// # Errors
///
/// [`GraphError::InfeasibleDegrees`] if `n·r` is odd or `r >= n`;
/// [`GraphError::RetriesExhausted`] after the internal restart budget.
pub fn steger_wormald<R: Rng + ?Sized>(
    n: usize,
    r: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    steger_wormald_counted(n, r, rng).map(|(g, _)| g)
}

/// [`steger_wormald`], additionally reporting how many phase attempts the
/// draw consumed (`1` = the first phase succeeded). The RNG sequence and
/// the output graph are identical to the uncounted variant — callers
/// wanting generation telemetry get it for free.
///
/// # Errors
///
/// As [`steger_wormald`].
pub fn steger_wormald_counted<R: Rng + ?Sized>(
    n: usize,
    r: usize,
    rng: &mut R,
) -> Result<(Graph, usize), GraphError> {
    let degrees = vec![r; n];
    check_degree_sequence(&degrees)?;
    if r == 0 {
        return Graph::from_edges(n, &[]).map(|g| (g, 1));
    }
    'restart: for attempt in 1..=MAX_RESTARTS {
        let mut stubs: Vec<Vertex> = Vec::with_capacity(n * r);
        for v in 0..n {
            stubs.extend(std::iter::repeat_n(v, r));
        }
        let mut edges: Vec<(Vertex, Vertex)> = Vec::with_capacity(n * r / 2);
        // Adjacency as per-vertex neighbour lists: each holds at most `r`
        // entries, so the suitability probe is a short linear scan —
        // several times faster than hashing an edge key, and the
        // generator's cost is pure adjacency probes. The accept/reject
        // decisions (and hence the RNG draw sequence and the output
        // graph) are identical to the hash-set formulation.
        let mut adj: Vec<Vec<Vertex>> = vec![Vec::new(); n];
        while !stubs.is_empty() {
            // If only unsuitable pairs remain we must restart; detect by
            // bounding consecutive failures (suitable pairs are abundant
            // except pathologically near the end).
            let mut failures = 0usize;
            loop {
                let i = rng.gen_range(0..stubs.len());
                let mut j = rng.gen_range(0..stubs.len());
                while j == i {
                    j = rng.gen_range(0..stubs.len());
                }
                let (u, v) = (stubs[i], stubs[j]);
                let key = if u < v { (u, v) } else { (v, u) };
                if u != v && !adj[u].contains(&v) {
                    adj[u].push(v);
                    adj[v].push(u);
                    edges.push(key);
                    // Remove the two stubs (higher index first).
                    let (hi, lo) = if i > j { (i, j) } else { (j, i) };
                    stubs.swap_remove(hi);
                    stubs.swap_remove(lo);
                    break;
                }
                failures += 1;
                if failures > 100 * (stubs.len() + 1) {
                    continue 'restart;
                }
            }
        }
        return Graph::from_edges(n, &edges).map(|g| (g, attempt));
    }
    Err(GraphError::RetriesExhausted {
        generator: "steger_wormald",
        attempts: MAX_RESTARTS,
        what: format!("an {r}-regular simple graph on {n} vertices"),
    })
}

/// A *connected* random `r`-regular simple graph: draws with
/// [`steger_wormald`] until connected.
///
/// Random `r`-regular graphs with `r >= 3` are connected whp, so the
/// expected number of draws is `1 + o(1)`; the paper's cover-time
/// experiments implicitly condition on connectivity.
///
/// # Errors
///
/// Propagates generator errors and reports
/// [`GraphError::RetriesExhausted`] if no connected sample was found.
pub fn connected_random_regular<R: Rng + ?Sized>(
    n: usize,
    r: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    connected_random_regular_counted(n, r, rng).map(|(g, _)| g)
}

/// [`connected_random_regular`], additionally reporting how many
/// Steger–Wormald phase attempts the draw consumed across connectivity
/// rejections (`1` = the first phase produced a connected graph). The
/// RNG sequence and the output graph are identical to the uncounted
/// variant.
///
/// # Errors
///
/// As [`connected_random_regular`].
pub fn connected_random_regular_counted<R: Rng + ?Sized>(
    n: usize,
    r: usize,
    rng: &mut R,
) -> Result<(Graph, usize), GraphError> {
    if r < 3 && !(r == 2 && n >= 3) {
        return Err(GraphError::InvalidParameter {
            reason: format!(
                "connected_random_regular requires r >= 3 (or r = 2, n >= 3), got r = {r}"
            ),
        });
    }
    let mut attempts = 0usize;
    for _ in 0..MAX_RESTARTS {
        let (g, a) = steger_wormald_counted(n, r, rng)?;
        attempts += a;
        if connectivity::is_connected(&g) {
            return Ok((g, attempts));
        }
    }
    Err(GraphError::RetriesExhausted {
        generator: "connected_random_regular",
        attempts: MAX_RESTARTS,
        what: format!("a connected {r}-regular simple graph on {n} vertices"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::degrees;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn odd_degree_sum_rejected() {
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(matches!(
            random_with_degree_sequence(&[3; 5], &mut rng),
            Err(GraphError::InfeasibleDegrees { .. })
        ));
        assert!(matches!(
            steger_wormald(5, 3, &mut rng),
            Err(GraphError::InfeasibleDegrees { .. })
        ));
    }

    #[test]
    fn degree_too_large_rejected() {
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(matches!(
            random_with_degree_sequence(&[4; 4], &mut rng),
            Err(GraphError::InfeasibleDegrees { .. })
        ));
        assert!(matches!(
            steger_wormald(4, 4, &mut rng),
            Err(GraphError::InfeasibleDegrees { .. })
        ));
    }

    #[test]
    fn degree_sequence_respected() {
        let mut rng = SmallRng::seed_from_u64(5);
        let seq = [4, 4, 4, 4, 2, 2, 2, 2, 4, 4];
        let g = random_with_degree_sequence(&seq, &mut rng).unwrap();
        for (v, &d) in seq.iter().enumerate() {
            assert_eq!(g.degree(v), d, "vertex {v}");
        }
        assert!(!g.has_parallel_edges());
    }

    #[test]
    fn degree_sequence_length_mismatch() {
        let mut rng = SmallRng::seed_from_u64(6);
        // A sequence whose sum is even but that contains d >= n.
        let seq = [3, 1];
        assert!(random_with_degree_sequence(&seq, &mut rng).is_err());
    }

    #[test]
    fn steger_wormald_regular_and_simple() {
        let mut rng = SmallRng::seed_from_u64(7);
        for r in [3, 4, 5, 6, 7] {
            let g = steger_wormald(60, r, &mut rng).unwrap();
            assert!(degrees::is_regular(&g, r), "r = {r}");
            assert!(!g.has_parallel_edges(), "r = {r}");
        }
    }

    #[test]
    fn steger_wormald_r0() {
        let mut rng = SmallRng::seed_from_u64(8);
        let g = steger_wormald(5, 0, &mut rng).unwrap();
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn steger_wormald_complete_graph_edge_case() {
        // n = 4, r = 3 forces K4 — only one simple graph exists; the
        // algorithm must still find it.
        let mut rng = SmallRng::seed_from_u64(9);
        let g = steger_wormald(4, 3, &mut rng).unwrap();
        assert_eq!(g.m(), 6);
        assert!(!g.has_parallel_edges());
    }

    #[test]
    fn connected_random_regular_is_connected() {
        let mut rng = SmallRng::seed_from_u64(10);
        let g = connected_random_regular(100, 4, &mut rng).unwrap();
        assert!(connectivity::is_connected(&g));
        assert!(degrees::is_regular(&g, 4));
    }

    #[test]
    fn connected_random_regular_rejects_r1() {
        let mut rng = SmallRng::seed_from_u64(11);
        assert!(connected_random_regular(10, 1, &mut rng).is_err());
    }

    #[test]
    fn connected_r2_is_hamiltonian_cycle() {
        let mut rng = SmallRng::seed_from_u64(12);
        let g = connected_random_regular(12, 2, &mut rng).unwrap();
        assert!(degrees::is_regular(&g, 2));
        assert!(connectivity::is_connected(&g));
        assert_eq!(g.m(), 12);
    }

    #[test]
    fn counted_variants_match_uncounted_draws() {
        // Same seed → same graph: counting attempts must not perturb the
        // RNG sequence. A successful connected draw uses >= 1 attempt.
        let a = steger_wormald(40, 4, &mut SmallRng::seed_from_u64(21)).unwrap();
        let (b, attempts) =
            steger_wormald_counted(40, 4, &mut SmallRng::seed_from_u64(21)).unwrap();
        assert_eq!(a.edge_list(), b.edge_list());
        assert!(attempts >= 1);
        let a = connected_random_regular(40, 3, &mut SmallRng::seed_from_u64(22)).unwrap();
        let (b, attempts) =
            connected_random_regular_counted(40, 3, &mut SmallRng::seed_from_u64(22)).unwrap();
        assert_eq!(a.edge_list(), b.edge_list());
        assert!(attempts >= 1);
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let g1 = steger_wormald(30, 4, &mut SmallRng::seed_from_u64(42)).unwrap();
        let g2 = steger_wormald(30, 4, &mut SmallRng::seed_from_u64(42)).unwrap();
        assert_eq!(g1.edge_list(), g2.edge_list());
        let g3 = steger_wormald(30, 4, &mut SmallRng::seed_from_u64(43)).unwrap();
        assert_ne!(g1.edge_list(), g3.edge_list());
    }
}
