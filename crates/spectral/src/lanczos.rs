//! Lanczos iteration for the walk spectrum of large sparse graphs.
//!
//! Tridiagonalises the symmetrised walk operator `S` on the orthogonal
//! complement of the principal eigenvector (full reorthogonalisation — the
//! Krylov dimensions used here are small, ≤ 200, so the `O(k²n)` cost is
//! acceptable and numerical drift is not). Extremal Ritz values converge to
//! `λ_2` and `λ_n` long before the subspace is exhausted, making this the
//! preferred method for the `table_spectral` experiment on graphs with
//! `10^4`–`10^5` vertices.

use crate::dense::SymMatrix;
use crate::transition::{apply_symmetric, principal_eigenvector};
use eproc_graphs::Graph;

/// Result of a Lanczos run.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Ritz values (approximate eigenvalues of the deflated operator),
    /// sorted descending. The first entry approximates `λ_2`, the last
    /// `λ_n`.
    pub ritz_values: Vec<f64>,
    /// Krylov dimension actually reached (early breakdown means the
    /// invariant subspace was exhausted — the values are then exact).
    pub dimension: usize,
}

impl LanczosResult {
    /// Estimate of `λ_2` (largest non-principal eigenvalue).
    pub fn lambda_2(&self) -> f64 {
        *self.ritz_values.first().expect("at least one Ritz value")
    }

    /// Estimate of `λ_n` (smallest eigenvalue).
    pub fn lambda_n(&self) -> f64 {
        *self.ritz_values.last().expect("at least one Ritz value")
    }

    /// Estimate of `λ_max = max(λ_2, |λ_n|)`.
    pub fn lambda_max(&self) -> f64 {
        self.lambda_2().max(self.lambda_n().abs())
    }
}

/// Runs `steps` Lanczos iterations on the deflated walk operator of a
/// connected graph.
///
/// `steps` is clamped to `n - 1`. Typical use: `steps = 100` gives
/// extremal eigenvalues to ~1e-8 on expanders.
///
/// # Panics
///
/// Panics if the graph has no edges or fewer than 2 vertices.
pub fn lanczos(g: &Graph, steps: usize) -> LanczosResult {
    assert!(
        g.m() > 0 && g.n() >= 2,
        "lanczos requires a graph with edges"
    );
    let n = g.n();
    let k = steps.clamp(1, n - 1);
    let phi = principal_eigenvector(g);
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut alphas: Vec<f64> = Vec::with_capacity(k);
    let mut betas: Vec<f64> = Vec::with_capacity(k);

    let mut v = seed_vector(n, &phi);
    let mut beta_prev = 0.0f64;
    let mut v_prev: Vec<f64> = vec![0.0; n];
    for _ in 0..k {
        let mut w = apply_symmetric(g, &v, false);
        // Deflate the principal direction and reorthogonalise.
        project_out(&mut w, &phi);
        let alpha = dot(&w, &v);
        for i in 0..n {
            w[i] -= alpha * v[i] + beta_prev * v_prev[i];
        }
        for b in &basis {
            let c = dot(&w, b);
            for i in 0..n {
                w[i] -= c * b[i];
            }
        }
        alphas.push(alpha);
        basis.push(v.clone());
        let beta = norm2(&w);
        if beta < 1e-12 {
            break; // invariant subspace exhausted: Ritz values exact
        }
        betas.push(beta);
        for x in &mut w {
            *x /= beta;
        }
        v_prev = std::mem::replace(&mut v, w);
        beta_prev = beta;
    }
    // Eigenvalues of the tridiagonal (alphas, betas) matrix.
    let dim = alphas.len();
    let mut t = SymMatrix::zeros(dim);
    for (i, &a) in alphas.iter().enumerate() {
        t.set(i, i, a);
    }
    for (i, &b) in betas.iter().take(dim.saturating_sub(1)).enumerate() {
        t.set(i, i + 1, b);
    }
    LanczosResult {
        ritz_values: t.eigenvalues(),
        dimension: dim,
    }
}

fn seed_vector(n: usize, phi: &[f64]) -> Vec<f64> {
    let mut state = 0x853c49e6748fea9bu64;
    let mut x: Vec<f64> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    project_out(&mut x, phi);
    let norm = norm2(&x);
    for v in &mut x {
        *v /= norm;
    }
    x
}

fn project_out(x: &mut [f64], phi: &[f64]) {
    let c = dot(x, phi);
    for (xi, pi) in x.iter_mut().zip(phi) {
        *xi -= c * pi;
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::SymMatrix;
    use eproc_graphs::generators;

    #[test]
    fn exact_on_small_cycle() {
        let g = generators::cycle(10);
        let res = lanczos(&g, 9);
        let exact = SymMatrix::from_graph(&g, false).eigenvalues();
        assert!(
            (res.lambda_2() - exact[1]).abs() < 1e-8,
            "{} vs {}",
            res.lambda_2(),
            exact[1]
        );
        assert!((res.lambda_n() - exact[9]).abs() < 1e-8);
    }

    #[test]
    fn agrees_with_jacobi_on_named_graphs() {
        for g in [
            generators::petersen(),
            generators::lollipop(5, 4),
            generators::torus2d(3, 4),
        ] {
            let res = lanczos(&g, g.n() - 1);
            let exact = SymMatrix::from_graph(&g, false).eigenvalues();
            assert!((res.lambda_2() - exact[1]).abs() < 1e-7);
            assert!((res.lambda_n() - exact[g.n() - 1]).abs() < 1e-7);
        }
    }

    #[test]
    fn truncated_run_agrees_with_jacobi_on_random_regular() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
        let g = generators::connected_random_regular(120, 6, &mut rng).unwrap();
        let lz = lanczos(&g, 40);
        let exact = SymMatrix::from_graph(&g, false).eigenvalues();
        assert!(
            (lz.lambda_2() - exact[1]).abs() < 1e-5,
            "{} vs {}",
            lz.lambda_2(),
            exact[1]
        );
        assert!(
            (lz.lambda_n() - exact[g.n() - 1]).abs() < 1e-5,
            "{} vs {}",
            lz.lambda_n(),
            exact[g.n() - 1]
        );
    }

    #[test]
    fn truncated_run_brackets_spectrum() {
        let g = generators::hypercube(6);
        let res = lanczos(&g, 30);
        // Ritz values interlace: λ2 estimate from below, λn from above.
        let exact_l2 = 1.0 - 2.0 / 6.0;
        assert!(res.lambda_2() <= exact_l2 + 1e-9);
        assert!(
            res.lambda_2() > exact_l2 - 0.05,
            "30 steps should nearly converge"
        );
        assert!(res.lambda_n() >= -1.0 - 1e-9);
    }

    #[test]
    fn breakdown_on_tiny_graph_is_exact() {
        let g = generators::complete(3);
        let res = lanczos(&g, 50);
        assert!(res.dimension <= 2);
        // K3: eigenvalues 1, -1/2, -1/2; deflated spectrum is {-1/2}.
        for &rv in &res.ritz_values {
            assert!((rv + 0.5).abs() < 1e-9, "ritz {rv}");
        }
    }
}
