//! Random regular graphs and fixed degree sequence random graphs.
//!
//! The paper's experiments (§5, Figure 1) were generated "using the random
//! regular graph generator from the NetworkX package … This package
//! implements the Steger/Wormald approach" (\[15\]). [`steger_wormald`] is
//! that algorithm and the only random regular generator here;
//! [`random_with_degree_sequence`] (configuration model with whole-pairing
//! rejection) draws simple graphs with an arbitrary degree sequence.

use super::MAX_RESTARTS;
use crate::csr::{check_index_widths, Graph, Vertex};
use crate::error::GraphError;
use crate::properties::connectivity;
use rand::seq::SliceRandom;
use rand::Rng;

fn check_degree_sequence(degrees: &[usize]) -> Result<(), GraphError> {
    let n = degrees.len();
    let too_large = degrees.iter().enumerate().find(|&(_, &d)| d >= n);
    check_degrees(
        n,
        degrees.iter().try_fold(0usize, |s, &d| s.checked_add(d)),
        too_large.map(|(v, &d)| (v, d)),
    )
}

/// The checks every degree-sequence generator makes before it allocates:
/// the degree sum `total` (`None` if it overflows `usize`) is even, no
/// vertex's degree reaches `n` (`too_large` names the first that does),
/// and `n` and the arc count `total` fit the CSR's 32-bit index width —
/// [`GraphError::TooLarge`] is what [`Graph::from_edges`] would return.
fn check_degrees(
    n: usize,
    total: Option<usize>,
    too_large: Option<(Vertex, usize)>,
) -> Result<(), GraphError> {
    let Some(total) = total else {
        return Err(GraphError::TooLarge {
            n,
            arcs: usize::MAX,
        });
    };
    if !total.is_multiple_of(2) {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!("degree sum {total} is odd"),
        });
    }
    if let Some((v, d)) = too_large {
        return Err(GraphError::InfeasibleDegrees {
            reason: format!("vertex {v} has degree {d} >= n = {n} (simple graph impossible)"),
        });
    }
    check_index_widths(n, total)
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
/// [`GraphError::TooLarge`], before anything is allocated, if `n` or the
/// degree sum exceeds `u32::MAX`;
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

/// An adjacency slot [`steger_wormald_counted`] has not filled yet. No
/// vertex has this id, since `n <= u32::MAX` keeps every id below it.
const UNFILLED: u32 = u32::MAX;

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
/// [`GraphError::TooLarge`], before anything is allocated, if `n` or the
/// arc count `n·r` exceeds `u32::MAX`;
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
    check_degrees(n, n.checked_mul(r), (r >= n && n > 0).then_some((0, r)))?;
    // Every id below is < n or < n·r, both checked to fit in u32 above.
    let arcs = n * r;
    // One flat adjacency of n·r slots: row `v` is `arc_targets[v·r..(v+1)·r]`,
    // whose first `fill[v]` slots hold `v`'s neighbours in the order their
    // edges were accepted, the rest `UNFILLED`. That is already the CSR:
    // `from_edges` numbers the edges in list order (here, acceptance order,
    // each listed as `(min, max)`) and gives edge `e` the next free arc in
    // each endpoint's row, and in an `r`-regular graph row `v` starts at
    // `offsets[v] = v·r`. So the slot an accepted edge takes in each row
    // is the arc `from_edges` would give it; recording the edge id, the
    // twins and the edge's first arc on acceptance leaves no second pass.
    // The suitability probe scans one row (unfilled slots never match), so
    // the accept/reject decisions, and hence the RNG draw sequence and the
    // output graph, are those of the hash-set formulation.
    let mut fill: Vec<u32> = Vec::with_capacity(n);
    let mut stubs: Vec<u32> = Vec::with_capacity(arcs);
    let mut arc_targets: Vec<u32> = Vec::with_capacity(arcs);
    let mut arc_edges = vec![0u32; arcs];
    let mut arc_twins = vec![0u32; arcs];
    let mut first_arcs: Vec<u32> = Vec::with_capacity(arcs / 2);
    'restart: for attempt in 1..=MAX_RESTARTS {
        fill.clear();
        fill.resize(n, 0);
        arc_targets.clear();
        arc_targets.resize(arcs, UNFILLED);
        stubs.clear();
        stubs.extend((0..n as u32).flat_map(|v| std::iter::repeat_n(v, r)));
        first_arcs.clear();
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
                let (u, v) = (stubs[i].min(stubs[j]), stubs[i].max(stubs[j]));
                let u_row = u as usize * r;
                if u != v && !arc_targets[u_row..u_row + r].contains(&v) {
                    let e = first_arcs.len() as u32;
                    let u_fill = fill[u as usize];
                    let v_fill = fill[v as usize];
                    let (au, av) = (u_row + u_fill as usize, v as usize * r + v_fill as usize);
                    fill[u as usize] = u_fill + 1;
                    fill[v as usize] = v_fill + 1;
                    arc_targets[au] = v;
                    arc_targets[av] = u;
                    arc_edges[au] = e;
                    arc_edges[av] = e;
                    arc_twins[au] = av as u32;
                    arc_twins[av] = au as u32;
                    first_arcs.push(au as u32);
                    // Remove the two stubs (higher index first).
                    stubs.swap_remove(i.max(j));
                    stubs.swap_remove(i.min(j));
                    break;
                }
                failures += 1;
                if failures > 100 * (stubs.len() + 1) {
                    continue 'restart;
                }
            }
        }
        let g = Graph::from_regular_arcs(n, r, arc_targets, arc_edges, arc_twins, first_arcs);
        return Ok((g, attempt));
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
    fn index_width_is_checked_before_allocating() {
        // Each of these would ask for tens of gigabytes if it allocated
        // first, so a regression aborts at once instead of paging.
        let mut rng = SmallRng::seed_from_u64(13);
        let n = u32::MAX as usize;
        assert_eq!(
            steger_wormald(n, 2, &mut rng).unwrap_err(),
            GraphError::TooLarge { n, arcs: 2 * n }
        );
        assert_eq!(
            steger_wormald(1 << 40, 4, &mut rng).unwrap_err(),
            GraphError::TooLarge {
                n: 1 << 40,
                arcs: 1 << 42
            }
        );
        assert_eq!(
            random_with_degree_sequence(&vec![70_000; 70_001], &mut rng).unwrap_err(),
            GraphError::TooLarge {
                n: 70_001,
                arcs: 70_000 * 70_001
            }
        );
        assert_eq!(
            random_with_degree_sequence(&[usize::MAX, 1], &mut rng).unwrap_err(),
            GraphError::TooLarge {
                n: 2,
                arcs: usize::MAX
            }
        );
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
