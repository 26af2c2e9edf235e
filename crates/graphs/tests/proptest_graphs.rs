//! Property tests for the graph substrate.

use eproc_graphs::properties::{bipartite, connectivity, cycles, degrees, girth};
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
        // Degree sum is 2m; each edge's arcs leave its endpoints, carry
        // its id and are each other's twins.
        let total: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(total, 2 * g.m());
        for (e, u, v) in g.edges() {
            let (au, av) = g.edge_arcs(e);
            prop_assert!(g.arc_range(u).contains(&au) && g.arc_range(v).contains(&av));
            prop_assert_eq!((g.arc_edge(au), g.arc_edge(av)), (e, e));
            prop_assert_eq!((g.arc_twin(au), g.arc_twin(av)), (av, au));
        }
    }

    #[test]
    fn rebuild_round_trips(g in arb_graph()) {
        prop_assert_eq!(&Graph::from_edges(g.n(), &g.edge_list()).unwrap(), &g);
    }

    #[test]
    fn edges_are_the_input_list_in_order(
        n in 2usize..12,
        pairs in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
    ) {
        // Endpoints derive from the arcs: check them against the list they
        // were built from, parallel edges and both orientations included.
        let edges: Vec<(usize, usize)> = pairs
            .into_iter()
            .map(|(a, b)| (a % n, b % n))
            .filter(|&(u, v)| u != v)
            .collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        prop_assert_eq!(g.m(), edges.len());
        let expected: Vec<(usize, usize, usize)> =
            edges.iter().enumerate().map(|(e, &(u, v))| (e, u, v)).collect();
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), expected);
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
    fn steger_wormald_always_simple_regular(n4 in 2usize..12, r in 3usize..6, seed in 0u64..500) {
        let n = n4 * r.max(4) + r % 2 * r; // ensure n*r even and n > r
        let n = if (n * r) % 2 == 1 { n + 1 } else { n };
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = generators::steger_wormald(n, r, &mut rng).unwrap();
        prop_assert!(degrees::is_regular(&g, r));
        prop_assert!(!g.has_parallel_edges());
    }

    #[test]
    fn steger_wormald_equals_from_edges_of_its_edge_list(
        r in 0usize..8,
        extra in 1usize..40,
        seed in 0u64..1000,
    ) {
        // The generator writes the CSR arrays itself; `Graph: PartialEq`
        // compares every one of them with what the general constructor
        // builds from the same edge list. Small `extra` (n near r + 1)
        // makes restarts likely.
        let n = r + extra + (r * (r + extra)) % 2;
        let g = generators::steger_wormald(n, r, &mut SmallRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(&g, &Graph::from_edges(n, &g.edge_list()).unwrap());
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
