//! Blue-subgraph analytics: Observations 10–11 and the §5 star census.
//!
//! While the E-process is in a red phase, the unvisited (blue) edges form
//! edge-induced components in which every vertex has even blue degree
//! (Observation 11); every unvisited vertex sits inside such a component.
//! For odd-degree regular graphs §5 argues a constant fraction of vertices
//! (`≈ 1/8` for `r = 3`) is left behind as *isolated blue stars* by the
//! first blue phase, which is why the cover time jumps to `Θ(n log n)`.

use crate::bitset::BitSet;
use crate::eprocess::rule::EdgeRule;
use crate::eprocess::EProcess;
use crate::process::WalkProcess;
use eproc_graphs::{EdgeId, Graph, Vertex};
use rand::RngCore;

/// One connected component of the blue (unvisited) edge-induced subgraph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlueComponent {
    /// Vertices touched by at least one blue edge, sorted.
    pub vertices: Vec<Vertex>,
    /// The blue edges of the component, sorted.
    pub edges: Vec<EdgeId>,
}

/// Blue degree of every vertex: incident edges not yet visited.
///
/// # Panics
///
/// Panics if `edge_visited.len() != g.m()`.
pub fn blue_degrees(g: &Graph, edge_visited: &BitSet) -> Vec<usize> {
    assert_eq!(edge_visited.len(), g.m(), "edge bitmap length mismatch");
    let mut deg = vec![0usize; g.n()];
    for (e, u, v) in g.edges() {
        if !edge_visited.get(e) {
            deg[u] += 1;
            deg[v] += 1;
        }
    }
    deg
}

/// Connected components of the blue edge-induced subgraph.
///
/// # Panics
///
/// Panics if `edge_visited.len() != g.m()`.
pub fn blue_components(g: &Graph, edge_visited: &BitSet) -> Vec<BlueComponent> {
    assert_eq!(edge_visited.len(), g.m(), "edge bitmap length mismatch");
    let deg = blue_degrees(g, edge_visited);
    let mut assigned = vec![false; g.n()];
    let mut components = Vec::new();
    for root in g.vertices() {
        if assigned[root] || deg[root] == 0 {
            continue;
        }
        let mut vertices = vec![root];
        let mut edges = Vec::new();
        assigned[root] = true;
        let mut head = 0;
        while head < vertices.len() {
            let u = vertices[head];
            head += 1;
            for (_, w, e) in g.ports(u) {
                if edge_visited.get(e) {
                    continue;
                }
                // Record each blue edge once, from its smaller endpoint
                // position in BFS; dedupe via edge ownership below.
                if !assigned[w] {
                    assigned[w] = true;
                    vertices.push(w);
                }
                edges.push(e);
            }
        }
        edges.sort_unstable();
        edges.dedup();
        vertices.sort_unstable();
        components.push(BlueComponent { vertices, edges });
    }
    components
}

/// Checks Observation 11(2): every vertex has even blue degree, except the
/// optional `odd_pair` (the blue-phase start and current vertices, which
/// carry odd blue degree mid-phase; pass `None` during red phases).
///
/// # Panics
///
/// Panics if `edge_visited.len() != g.m()`.
pub fn blue_degrees_even(
    g: &Graph,
    edge_visited: &BitSet,
    odd_pair: Option<(Vertex, Vertex)>,
) -> bool {
    let deg = blue_degrees(g, edge_visited);
    g.vertices().all(|v| {
        let expect_odd = match odd_pair {
            Some((a, b)) if a != b => v == a || v == b,
            _ => false,
        };
        (deg[v] % 2 == 1) == expect_odd
    })
}

/// Vertices that are centers of *isolated blue stars*: `v` is unvisited
/// (hence all `d(v)` incident edges are blue, Observation 11(1)) and every
/// blue neighbour's blue edges all lead back to `v` — the component is
/// exactly the star around `v`. §5 predicts `|I| ≈ n/8` of these for the
/// first blue phase on random 3-regular graphs.
///
/// # Panics
///
/// Panics if the bitmap lengths do not match the graph.
pub fn isolated_star_centers(
    g: &Graph,
    edge_visited: &BitSet,
    vertex_visited: &[bool],
) -> Vec<Vertex> {
    assert_eq!(edge_visited.len(), g.m(), "edge bitmap length mismatch");
    assert_eq!(vertex_visited.len(), g.n(), "vertex bitmap length mismatch");
    let deg = blue_degrees(g, edge_visited);
    let mut centers = Vec::new();
    'vertex: for v in g.vertices() {
        if vertex_visited[v] || g.degree(v) == 0 {
            continue;
        }
        debug_assert_eq!(
            deg[v],
            g.degree(v),
            "unvisited vertex must have all edges blue"
        );
        for (_, w, e) in g.ports(v) {
            if edge_visited.get(e) {
                continue 'vertex; // not actually all blue: inconsistent input
            }
            // Every blue edge at w must lead back to v.
            let w_blue_to_v = g
                .ports(w)
                .filter(|&(_, t, f)| !edge_visited.get(f) && t == v)
                .count();
            if deg[w] != w_blue_to_v {
                continue 'vertex;
            }
        }
        centers.push(v);
    }
    centers
}

/// Outcome of running the first blue phase to completion.
#[derive(Debug, Clone)]
pub struct FirstBluePhase {
    /// Length of the phase in steps (edges traversed).
    pub length: u64,
    /// Vertex where the phase ended (equals the start on even-degree
    /// graphs, Observation 10).
    pub end_vertex: Vertex,
    /// Vertices visited during the phase (start included).
    pub vertex_visited: Vec<bool>,
}

/// Runs an E-process until its first blue phase ends (the next step would
/// be red, or every edge is visited).
///
/// The walk must be fresh (no steps taken) so that the phase is the *first*
/// one.
///
/// # Panics
///
/// Panics if the walk has already taken steps.
pub fn run_first_blue_phase<A: EdgeRule, R: RngCore + ?Sized>(
    walk: &mut EProcess<'_, A>,
    rng: &mut R,
) -> FirstBluePhase {
    assert_eq!(walk.steps(), 0, "first blue phase requires a fresh walk");
    let g = walk.graph();
    let mut vertex_visited = vec![false; g.n()];
    vertex_visited[walk.current()] = true;
    let mut length = 0u64;
    while walk.in_blue_phase() {
        let step = walk.advance(rng);
        vertex_visited[step.to] = true;
        length += 1;
    }
    FirstBluePhase {
        length,
        end_vertex: walk.current(),
        vertex_visited,
    }
}

/// Extracts a blue component as a standalone graph (vertices relabelled),
/// ready for the full property machinery — e.g. verifying that it
/// decomposes into cycles (Observation 11) via
/// [`eproc_graphs::properties::euler::cycle_decomposition_full`].
pub fn component_as_graph(
    g: &Graph,
    component: &BlueComponent,
) -> eproc_graphs::subgraph::Subgraph {
    eproc_graphs::subgraph::edge_subgraph(g, &component.edges)
}

/// Outcome of a star-tracking run (see [`track_isolated_stars`]).
#[derive(Debug, Clone)]
pub struct StarCensus {
    /// Vertices that at some point became isolated blue star centers.
    pub ever_star_centers: Vec<Vertex>,
    /// Steps until vertex cover (`None` if the cap was hit first).
    pub steps_to_vertex_cover: Option<u64>,
    /// Total steps taken.
    pub steps: u64,
}

/// Runs a fresh E-process to vertex cover, recording every vertex that at
/// any point becomes the center of an isolated blue star.
///
/// This is the experimental quantity behind §5's argument: for random
/// 3-regular graphs, the blue walk strands `≈ n/8` isolated stars, and the
/// embedded random walk must then collect them coupon-collector style —
/// hence `Θ(n log n)` cover time for odd degrees.
///
/// Star formation is detected event-driven: consuming a blue edge `{w, x}`
/// can only complete stars centred at unvisited blue-neighbours of `w` or
/// `x`, so the check is `O(Δ²)` per step.
///
/// # Panics
///
/// Panics if the walk has already taken steps.
pub fn track_isolated_stars<A: EdgeRule, R: RngCore + ?Sized>(
    walk: &mut EProcess<'_, A>,
    max_steps: u64,
    rng: &mut R,
) -> StarCensus {
    assert_eq!(walk.steps(), 0, "star tracking requires a fresh walk");
    let g = walk.graph();
    let n = g.n();
    let mut vertex_visited = vec![false; n];
    vertex_visited[walk.current()] = true;
    let mut remaining = n - 1;
    let mut is_star = vec![false; n];
    let mut ever: Vec<Vertex> = Vec::new();
    let mut t = 0u64;
    let mut steps_to_vertex_cover = if remaining == 0 { Some(0) } else { None };
    while remaining > 0 && t < max_steps {
        let step = walk.advance(rng);
        t += 1;
        if !vertex_visited[step.to] {
            vertex_visited[step.to] = true;
            remaining -= 1;
            if remaining == 0 {
                steps_to_vertex_cover = Some(t);
            }
        }
        if step.kind != crate::process::StepKind::Blue {
            continue;
        }
        // Candidates: unvisited blue-neighbours of the consumed edge's
        // endpoints.
        let g = walk.graph();
        let (a, b) = g.endpoints(step.edge.expect("blue steps traverse an edge"));
        for end in [a, b] {
            for (_, cand, e) in g.ports(end) {
                if walk.edge_visited(e) || vertex_visited[cand] || is_star[cand] {
                    continue;
                }
                if is_isolated_star_at(walk, cand) {
                    is_star[cand] = true;
                    ever.push(cand);
                }
            }
        }
    }
    ever.sort_unstable();
    StarCensus {
        ever_star_centers: ever,
        steps_to_vertex_cover,
        steps: t,
    }
}

/// `true` if the blue component around the (unvisited) vertex `v` is
/// exactly its star: every blue edge of every neighbour leads back to `v`.
fn is_isolated_star_at<A: EdgeRule>(walk: &EProcess<'_, A>, v: Vertex) -> bool {
    let g = walk.graph();
    for (_, w, e) in g.ports(v) {
        if walk.edge_visited(e) {
            return false; // v is not fully blue: cannot be a stranded center
        }
        let w_blue_to_v = g
            .ports(w)
            .filter(|&(_, t, f)| !walk.edge_visited(f) && t == v)
            .count();
        if walk.blue_degree(w) != w_blue_to_v {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eprocess::rule::UniformRule;
    use eproc_graphs::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn all_blue_initially_one_component() {
        let g = generators::torus2d(4, 4);
        let visited = BitSet::with_len(g.m());
        let comps = blue_components(&g, &visited);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].vertices.len(), g.n());
        assert_eq!(comps[0].edges.len(), g.m());
    }

    #[test]
    fn all_red_no_components() {
        let g = generators::torus2d(4, 4);
        let visited: BitSet = (0..g.m()).map(|_| true).collect();
        assert!(blue_components(&g, &visited).is_empty());
    }

    #[test]
    fn components_split_correctly() {
        // figure_eight: removing one triangle's edges leaves the other.
        let g = generators::figure_eight(3);
        let mut visited = BitSet::with_len(g.m());
        (0..3).for_each(|e| visited.set(e));
        let comps = blue_components(&g, &visited);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].edges.len(), 3);
    }

    #[test]
    fn observation10_blue_phase_returns_to_start_on_even_graphs() {
        for (g, start) in [
            (generators::torus2d(4, 4), 5),
            (generators::hypercube(4), 0),
            (generators::figure_eight(5), 3),
            (generators::complete(7), 2),
        ] {
            for seed in 0..5 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut walk = EProcess::new(&g, start, UniformRule::new());
                let phase = run_first_blue_phase(&mut walk, &mut rng);
                assert_eq!(
                    phase.end_vertex, start,
                    "Observation 10 violated (seed {seed})"
                );
                assert!(phase.length >= 3);
            }
        }
    }

    #[test]
    fn observation11_blue_degrees_even_after_phase() {
        let g = generators::torus2d(5, 4);
        for seed in 0..5 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut walk = EProcess::new(&g, 0, UniformRule::new());
            let _ = run_first_blue_phase(&mut walk, &mut rng);
            assert!(blue_degrees_even(&g, walk.visited_edges(), None));
            // And the blue components all have even positive degrees.
            let deg = blue_degrees(&g, walk.visited_edges());
            for comp in blue_components(&g, walk.visited_edges()) {
                for &v in &comp.vertices {
                    assert!(deg[v] >= 2 && deg[v].is_multiple_of(2));
                }
            }
        }
    }

    #[test]
    fn observation11_parity_mid_phase() {
        let g = generators::hypercube(4);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        let start = walk.start();
        for _ in 0..10 {
            if !walk.in_blue_phase() {
                break;
            }
            walk.advance(&mut rng);
            let cur = walk.current();
            let odd_pair = if cur == start {
                None
            } else {
                Some((start, cur))
            };
            assert!(blue_degrees_even(&g, walk.visited_edges(), odd_pair));
        }
    }

    #[test]
    fn blue_components_are_even_eulerian_graphs() {
        // Observation 11 end-to-end: every blue component, extracted as a
        // standalone graph, has all-even degrees and decomposes into
        // edge-disjoint cycles.
        use eproc_graphs::properties::{degrees, euler};
        let g = generators::torus2d(5, 5);
        for seed in 0..5 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut walk = EProcess::new(&g, 0, UniformRule::new());
            let _ = run_first_blue_phase(&mut walk, &mut rng);
            for comp in blue_components(&g, walk.visited_edges()) {
                let sub = component_as_graph(&g, &comp);
                assert!(
                    degrees::is_even_degree(&sub.graph),
                    "Observation 11 violated"
                );
                let cycles = euler::cycle_decomposition_full(&sub.graph)
                    .expect("even graphs decompose into cycles");
                let covered: usize = cycles.iter().map(|c| c.len()).sum();
                assert_eq!(covered, sub.graph.m());
            }
        }
    }

    #[test]
    fn star_census_detects_planted_star() {
        // Star K_{1,3} inside a larger graph: plant by marking everything
        // else visited.
        let g = generators::petersen();
        let star_edges: Vec<_> = g.ports(0).map(|(_, _, e)| e).collect();
        // Vertex 0's edges become blue, 0 unvisited.
        let edge_visited: BitSet = (0..g.m()).map(|e| !star_edges.contains(&e)).collect();
        let mut vertex_visited = vec![true; g.n()];
        vertex_visited[0] = false;
        let centers = isolated_star_centers(&g, &edge_visited, &vertex_visited);
        assert_eq!(centers, vec![0]);
    }

    #[test]
    fn star_census_rejects_connected_blue_structure() {
        // All edges blue: no isolated stars (blue components are big).
        let g = generators::petersen();
        let edge_visited = BitSet::with_len(g.m());
        let vertex_visited = vec![false; g.n()];
        let centers = isolated_star_centers(&g, &edge_visited, &vertex_visited);
        assert!(centers.is_empty());
    }

    #[test]
    fn three_regular_run_strands_about_n_over_8_stars() {
        // §5: over a full E-process run on a random 3-regular graph,
        // roughly n/8 vertices become isolated blue stars.
        let mut seed_rng = SmallRng::seed_from_u64(77);
        let n = 600;
        let g = generators::connected_random_regular(n, 3, &mut seed_rng).unwrap();
        let mut total = 0usize;
        let reps = 5;
        for seed in 0..reps {
            let mut rng = SmallRng::seed_from_u64(1000 + seed);
            let mut walk = EProcess::new(&g, 0, UniformRule::new());
            let census = track_isolated_stars(&mut walk, 10_000_000, &mut rng);
            assert!(census.steps_to_vertex_cover.is_some());
            total += census.ever_star_centers.len();
        }
        let mean = total as f64 / reps as f64;
        // §5's (1/2)³ = n/8 heuristic ignores that the embedded red walk
        // often visits a would-be center before its third neighbour turns
        // away; the measured fraction is a constant a few times smaller.
        // Assert a positive constant fraction bounded by the heuristic.
        let frac = mean / n as f64;
        assert!(
            (0.02..=0.125 * 1.2).contains(&frac),
            "star fraction {frac} outside the expected constant band (mean {mean})"
        );
    }

    #[test]
    fn even_degree_run_strands_no_stars() {
        // On even-degree graphs blue phases return to their start and
        // consume whole components; stranded full-degree stars require the
        // component to be exactly the star, which the parity structure
        // makes impossible to reach without visiting the center first.
        let mut seed_rng = SmallRng::seed_from_u64(42);
        let g = generators::connected_random_regular(300, 4, &mut seed_rng).unwrap();
        let mut rng = SmallRng::seed_from_u64(43);
        let mut walk = EProcess::new(&g, 0, UniformRule::new());
        let census = track_isolated_stars(&mut walk, 10_000_000, &mut rng);
        assert!(census.steps_to_vertex_cover.is_some());
        assert!(
            census.ever_star_centers.is_empty(),
            "unexpected stars on 4-regular: {:?}",
            census.ever_star_centers
        );
    }
}
