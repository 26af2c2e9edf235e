//! Property tests for the graph substrate.

use eproc_graphs::properties::{bipartite, connectivity, cycles, degrees, euler, girth};
use eproc_graphs::{generators, Graph};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Strategy: a random simple edge list on `n <= 24` vertices.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        2usize..24,
        proptest::collection::vec((0usize..24, 0usize..24), 0..60),
    )
        .prop_map(|(n, pairs)| {
            let mut edges = Vec::new();
            let mut seen = std::collections::HashSet::new();
            for (a, b) in pairs {
                let (u, v) = (a % n, b % n);
                if u != v {
                    let key = (u.min(v), u.max(v));
                    if seen.insert(key) {
                        edges.push(key);
                    }
                }
            }
            Graph::from_edges(n, &edges).expect("valid by construction")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_invariants(g in arb_graph()) {
        // Degree sum is 2m; arc/edge tables agree.
        let total: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, 2 * g.m());
        for e in 0..g.m() {
            let (u, v) = g.endpoints(e);
            let (au, av) = g.edge_arcs(e);
            prop_assert_eq!(g.arc_target(au), v);
            prop_assert_eq!(g.arc_target(av), u);
            prop_assert_eq!(g.arc_edge(au), e);
        }
    }

    #[test]
    fn rebuild_round_trips(g in arb_graph()) {
        prop_assert_eq!(&g.rebuilt().unwrap(), &g);
    }

    #[test]
    fn components_partition_vertices(g in arb_graph()) {
        // Union-find over the edge list partitions the vertices into
        // components; is_connected (a BFS) agrees with the part count.
        let mut parent: Vec<usize> = (0..g.n()).collect();
        fn root(parent: &mut [usize], mut v: usize) -> usize {
            while parent[v] != v {
                parent[v] = parent[parent[v]];
                v = parent[v];
            }
            v
        }
        for (_, u, v) in g.edges() {
            let (ru, rv) = (root(&mut parent, u), root(&mut parent, v));
            parent[ru] = rv;
        }
        let parts = (0..g.n()).filter(|&v| root(&mut parent, v) == v).count();
        prop_assert_eq!(connectivity::is_connected(&g), parts <= 1);
    }

    #[test]
    fn bipartite_iff_no_odd_cycle(g in arb_graph()) {
        // Check against exhaustive short-cycle counting (n <= 24 keeps
        // girth <= n, and count_cycles_up_to(n) counts everything).
        let counts = cycles::count_cycles_up_to(&g, g.n().max(3));
        let has_odd = counts.iter().enumerate().any(|(k, &c)| k % 2 == 1 && c > 0);
        prop_assert_eq!(bipartite::is_bipartite(&g), !has_odd);
    }

    #[test]
    fn girth_agrees_with_cycle_counts(g in arb_graph()) {
        let counts = cycles::count_cycles_up_to(&g, g.n().max(3));
        let smallest = counts.iter().enumerate().find(|&(_, &c)| c > 0).map(|(k, _)| k);
        prop_assert_eq!(girth::girth(&g), smallest);
    }

    #[test]
    fn eulerian_iff_even_and_one_edge_component(g in arb_graph()) {
        let circuit = euler::eulerian_circuit(&g);
        if let Some(c) = &circuit {
            prop_assert_eq!(c.len(), g.m());
        }
        let even = degrees::is_even_degree(&g);
        if !even && g.m() > 0 {
            prop_assert!(circuit.is_none());
        }
    }

    #[test]
    fn cycle_decomposition_covers_even_graphs(g in arb_graph()) {
        if !degrees::is_even_degree(&g) {
            return Ok(());
        }
        let cycles = euler::cycle_decomposition_full(&g).expect("even graph decomposes");
        let covered: usize = cycles.iter().map(|c| c.len()).sum();
        prop_assert_eq!(covered, g.m());
    }

    #[test]
    fn steger_wormald_always_simple_regular(n4 in 2usize..12, r in 3usize..6, seed in 0u64..500) {
        let n = n4 * r.max(4) + r % 2 * r; // ensure n*r even and n > r
        let n = if (n * r) % 2 == 1 { n + 1 } else { n };
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::steger_wormald(n, r, &mut rng).unwrap();
        prop_assert!(degrees::is_regular(&g, r));
        prop_assert!(!g.has_parallel_edges());
    }

    #[test]
    fn gnm_has_exact_edges(n in 2usize..30, seed in 0u64..100) {
        let total = n * (n - 1) / 2;
        let m = total / 2;
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::erdos_renyi_gnm(n, m, &mut rng).unwrap();
        prop_assert_eq!(g.m(), m);
        prop_assert!(!g.has_parallel_edges());
    }
}
