//! The random-walk transition operator and its symmetrisation.

use eproc_graphs::Graph;

/// Stationary distribution of the simple random walk: `π_v = d(v) / 2m`.
///
/// Vertices of degree 0 get mass 0 (the walk never reaches them); the
/// paper's graphs are connected so every entry is positive there.
///
/// # Panics
///
/// Panics if the graph has no edges (the stationary distribution is
/// undefined).
pub fn stationary_distribution(g: &Graph) -> Vec<f64> {
    assert!(
        g.m() > 0,
        "stationary distribution undefined for an edgeless graph"
    );
    let total = g.total_degree() as f64;
    g.vertices().map(|v| g.degree(v) as f64 / total).collect()
}

/// Applies one step of the walk to a *distribution* (row vector):
/// `out[v] = Σ_{u ~ v} x[u] / d(u)`, i.e. `out = x P`.
///
/// With `lazy = true` computes `out = x (I + P)/2`.
///
/// # Panics
///
/// Panics if `x.len() != g.n()`.
pub fn apply_transition(g: &Graph, x: &[f64], lazy: bool) -> Vec<f64> {
    assert_eq!(x.len(), g.n(), "vector length mismatch");
    let mut out = vec![0.0; g.n()];
    for u in g.vertices() {
        let d = g.degree(u);
        if d == 0 {
            out[u] += x[u]; // isolated vertex: walk stays put
            continue;
        }
        let share = x[u] / d as f64;
        for w in g.neighbors(u) {
            out[w] += share;
        }
    }
    if lazy {
        for v in g.vertices() {
            out[v] = 0.5 * (out[v] + x[v]);
        }
    }
    out
}

/// Applies the symmetrised operator `S = D^{-1/2} A D^{-1/2}` (or its lazy
/// variant `(I + S)/2`): `out[v] = Σ_{u ~ v} x[u] / √(d(u) d(v))`.
///
/// `S` is similar to `P` (`S = D^{1/2} P D^{-1/2}`), so it has the same
/// eigenvalues; being symmetric it is what the Lanczos method iterates
/// on.
///
/// # Panics
///
/// Panics if `x.len() != g.n()`.
pub fn apply_symmetric(g: &Graph, x: &[f64], lazy: bool) -> Vec<f64> {
    assert_eq!(x.len(), g.n(), "vector length mismatch");
    let inv_sqrt_d: Vec<f64> = g
        .vertices()
        .map(|v| {
            if g.degree(v) == 0 {
                0.0
            } else {
                1.0 / (g.degree(v) as f64).sqrt()
            }
        })
        .collect();
    let mut out = vec![0.0; g.n()];
    for u in g.vertices() {
        if g.degree(u) == 0 {
            out[u] += x[u];
            continue;
        }
        let scaled = x[u] * inv_sqrt_d[u];
        for w in g.neighbors(u) {
            out[w] += scaled * inv_sqrt_d[w];
        }
    }
    if lazy {
        for v in g.vertices() {
            out[v] = 0.5 * (out[v] + x[v]);
        }
    }
    out
}

/// The principal eigenvector of `S` (eigenvalue 1) for a connected graph:
/// `φ_1(v) ∝ √d(v)`, normalised to unit Euclidean length.
///
/// # Panics
///
/// Panics if the graph has no edges.
pub fn principal_eigenvector(g: &Graph) -> Vec<f64> {
    assert!(
        g.m() > 0,
        "principal eigenvector undefined for an edgeless graph"
    );
    let mut phi: Vec<f64> = g.vertices().map(|v| (g.degree(v) as f64).sqrt()).collect();
    let norm = phi.iter().map(|x| x * x).sum::<f64>().sqrt();
    for x in &mut phi {
        *x /= norm;
    }
    phi
}

#[cfg(test)]
mod tests {
    use super::*;
    use eproc_graphs::generators;

    #[test]
    fn stationary_sums_to_one() {
        let g = generators::lollipop(5, 4);
        let pi = stationary_distribution(&g);
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stationary_uniform_on_regular() {
        let g = generators::cycle(8);
        let pi = stationary_distribution(&g);
        for &p in &pi {
            assert!((p - 1.0 / 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn stationary_is_fixed_point() {
        let g = generators::lollipop(4, 3);
        let pi = stationary_distribution(&g);
        let next = apply_transition(&g, &pi, false);
        for (a, b) in pi.iter().zip(&next) {
            assert!((a - b).abs() < 1e-12);
        }
        let next_lazy = apply_transition(&g, &pi, true);
        for (a, b) in pi.iter().zip(&next_lazy) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn transition_preserves_mass() {
        let g = generators::petersen();
        let mut x = vec![0.0; g.n()];
        x[3] = 1.0;
        let y = apply_transition(&g, &x, false);
        assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // One step from vertex 3 spreads uniformly over its 3 neighbors.
        let mass: Vec<_> = y.iter().filter(|&&v| v > 0.0).collect();
        assert_eq!(mass.len(), 3);
        for &&v in &mass {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetric_operator_fixes_principal_vector() {
        let g = generators::lollipop(5, 3);
        let phi = principal_eigenvector(&g);
        let sphi = apply_symmetric(&g, &phi, false);
        for (a, b) in phi.iter().zip(&sphi) {
            assert!((a - b).abs() < 1e-12, "S φ1 must equal φ1");
        }
    }

    #[test]
    fn symmetric_operator_is_symmetric() {
        // <Sx, y> == <x, Sy> on random-ish vectors.
        let g = generators::torus2d(3, 4);
        let x: Vec<f64> = (0..g.n())
            .map(|i| ((i * 7 + 3) % 11) as f64 - 5.0)
            .collect();
        let y: Vec<f64> = (0..g.n())
            .map(|i| ((i * 5 + 1) % 13) as f64 - 6.0)
            .collect();
        let sx = apply_symmetric(&g, &x, false);
        let sy = apply_symmetric(&g, &y, false);
        let lhs: f64 = sx.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&sy).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn isolated_vertices_hold_mass() {
        let g = eproc_graphs::Graph::from_edges(3, &[(0, 1)]).unwrap();
        let x = vec![0.2, 0.3, 0.5];
        let y = apply_transition(&g, &x, false);
        assert!((y[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "edgeless")]
    fn stationary_requires_edges() {
        let g = eproc_graphs::Graph::from_edges(3, &[]).unwrap();
        let _ = stationary_distribution(&g);
    }
}
