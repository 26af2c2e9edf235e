//! Dense linear algebra: symmetric eigensolver and linear solver.
//!
//! These are the exact oracles against which the scalable sparse method
//! ([`crate::lanczos`]) is cross-validated in tests.

use eproc_graphs::Graph;

/// A dense symmetric matrix stored in full row-major form.
#[derive(Debug, Clone, PartialEq)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// Creates the zero matrix of size `n × n`.
    pub fn zeros(n: usize) -> SymMatrix {
        SymMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `j >= n`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n);
        self.data[i * self.n + j]
    }

    /// Sets entries `(i, j)` **and** `(j, i)` (symmetry is maintained).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `j >= n`.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n);
        self.data[i * self.n + j] = value;
        self.data[j * self.n + i] = value;
    }

    /// The symmetrised random-walk operator `S = D^{-1/2} A D^{-1/2}` of a
    /// graph (optionally lazy: `(I + S)/2`). `S` has the same eigenvalues
    /// as the transition matrix `P`.
    pub fn from_graph(g: &Graph, lazy: bool) -> SymMatrix {
        let n = g.n();
        let mut m = SymMatrix::zeros(n);
        for (_, u, v) in g.edges() {
            let w = 1.0 / ((g.degree(u) * g.degree(v)) as f64).sqrt();
            let cur = m.get(u, v);
            m.set(u, v, cur + w); // accumulate parallel edges
        }
        for v in 0..n {
            if g.degree(v) == 0 {
                m.set(v, v, 1.0); // isolated vertex: walk stays put
            }
        }
        if lazy {
            for i in 0..n {
                for j in 0..n {
                    let val = 0.5 * m.get(i, j) + if i == j { 0.5 } else { 0.0 };
                    m.data[i * n + j] = val;
                }
            }
        }
        m
    }

    /// All eigenvalues, sorted in descending order, via the cyclic Jacobi
    /// method (`O(n³)` per sweep; converges quadratically).
    ///
    /// Intended for `n` up to a few hundred — exact enough (`~1e-12`) to
    /// serve as a test oracle.
    pub fn eigenvalues(&self) -> Vec<f64> {
        let n = self.n;
        let mut a = self.data.clone();
        let idx = |i: usize, j: usize| i * n + j;
        let off_diag_norm = |a: &[f64]| -> f64 {
            let mut s = 0.0;
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        s += a[idx(i, j)] * a[idx(i, j)];
                    }
                }
            }
            s.sqrt()
        };
        let tol = 1e-13 * (1.0 + self.data.iter().map(|x| x.abs()).fold(0.0, f64::max));
        for _sweep in 0..100 {
            if off_diag_norm(&a) < tol {
                break;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[idx(p, q)];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = a[idx(p, p)];
                    let aqq = a[idx(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;
                    // Rotate rows/columns p and q.
                    for k in 0..n {
                        let akp = a[idx(k, p)];
                        let akq = a[idx(k, q)];
                        a[idx(k, p)] = c * akp - s * akq;
                        a[idx(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[idx(p, k)];
                        let aqk = a[idx(q, k)];
                        a[idx(p, k)] = c * apk - s * aqk;
                        a[idx(q, k)] = s * apk + c * aqk;
                    }
                }
            }
        }
        let mut eigs: Vec<f64> = (0..n).map(|i| a[idx(i, i)]).collect();
        eigs.sort_by(|x, y| y.partial_cmp(x).expect("eigenvalues are finite"));
        eigs
    }

    /// `λ_max = max(λ_2, |λ_n|)` of the matrix, treating it as a walk
    /// operator (drops the top eigenvalue). Returns 0 for `n <= 1`.
    pub fn lambda_max_walk(&self) -> f64 {
        if self.n <= 1 {
            return 0.0;
        }
        let eigs = self.eigenvalues();
        let lambda2 = eigs[1];
        let lambda_n = eigs[self.n - 1];
        lambda2.max(lambda_n.abs())
    }
}

/// Solves `A x = b` by Gaussian elimination with partial pivoting;
/// returns `None` if `A` is (numerically) singular.
///
/// `a` is row-major `n × n`, consumed along with `b`.
///
/// # Panics
///
/// Panics if `a.len() != b.len()²`.
pub fn solve_linear_system(mut a: Vec<f64>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    assert_eq!(a.len(), n * n, "matrix/vector dimension mismatch");
    for col in 0..n {
        // Pivot.
        let pivot_row = (col..n).max_by(|&i, &j| {
            a[i * n + col]
                .abs()
                .partial_cmp(&a[j * n + col].abs())
                .expect("finite")
        })?;
        if a[pivot_row * n + col].abs() < 1e-12 {
            return None;
        }
        if pivot_row != col {
            for k in 0..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            b.swap(col, pivot_row);
        }
        let pivot = a[col * n + col];
        for row in (col + 1)..n {
            let factor = a[row * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row * n + k] * x[k];
        }
        x[row] = acc / a[row * n + row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eproc_graphs::generators;

    #[test]
    fn eigenvalues_of_k2() {
        // S of K2 is [[0,1],[1,0]]: eigenvalues 1, -1.
        let m = SymMatrix::from_graph(&generators::complete(2), false);
        let eigs = m.eigenvalues();
        assert!((eigs[0] - 1.0).abs() < 1e-10);
        assert!((eigs[1] + 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigenvalues_of_complete_graph() {
        // P of K_n has eigenvalues 1 and -1/(n-1) (n-1 times).
        let n = 6;
        let m = SymMatrix::from_graph(&generators::complete(n), false);
        let eigs = m.eigenvalues();
        assert!((eigs[0] - 1.0).abs() < 1e-10);
        for &e in &eigs[1..] {
            assert!((e + 1.0 / (n as f64 - 1.0)).abs() < 1e-10, "eig {e}");
        }
    }

    #[test]
    fn eigenvalues_of_cycle() {
        // P of C_n has eigenvalues cos(2πk/n).
        let n = 8;
        let m = SymMatrix::from_graph(&generators::cycle(n), false);
        let eigs = m.eigenvalues();
        let mut expected: Vec<f64> = (0..n)
            .map(|k| (2.0 * std::f64::consts::PI * k as f64 / n as f64).cos())
            .collect();
        expected.sort_by(|x, y| y.partial_cmp(x).unwrap());
        for (a, b) in eigs.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-9, "got {a}, want {b}");
        }
    }

    #[test]
    fn lazy_shifts_spectrum() {
        let g = generators::cycle(6);
        let eager = SymMatrix::from_graph(&g, false).eigenvalues();
        let lazy = SymMatrix::from_graph(&g, true).eigenvalues();
        for (e, l) in eager.iter().zip(&lazy) {
            assert!((l - (e + 1.0) / 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lambda_max_bipartite_is_one() {
        let m = SymMatrix::from_graph(&generators::cycle(4), false);
        assert!((m.lambda_max_walk() - 1.0).abs() < 1e-10);
        // Lazy walk fixes it.
        let lazy = SymMatrix::from_graph(&generators::cycle(4), true);
        assert!(lazy.lambda_max_walk() < 1.0 - 1e-6);
    }

    #[test]
    fn hypercube_lambda2() {
        // P of H_r has eigenvalues 1 - 2k/r; λ2 = 1 - 2/r.
        let r = 4;
        let m = SymMatrix::from_graph(&generators::hypercube(r), false);
        let eigs = m.eigenvalues();
        assert!((eigs[1] - (1.0 - 2.0 / r as f64)).abs() < 1e-9);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let g = eproc_graphs::Graph::from_edges(2, &[(0, 1), (0, 1)]).unwrap();
        let m = SymMatrix::from_graph(&g, false);
        // Each vertex has degree 2; two parallel edges weight 2 * 1/2 = 1.
        assert!((m.get(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_identity() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let x = solve_linear_system(a, vec![3.0, 4.0]).unwrap();
        assert_eq!(x, vec![3.0, 4.0]);
    }

    #[test]
    fn solve_2x2() {
        // [2 1; 1 3] x = [5; 10] -> x = [1; 3].
        let x = solve_linear_system(vec![2.0, 1.0, 1.0, 3.0], vec![5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let x = solve_linear_system(vec![0.0, 1.0, 1.0, 0.0], vec![7.0, 9.0]).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-10);
        assert!((x[1] - 7.0).abs() < 1e-10);
    }

    #[test]
    fn singular_system_is_none() {
        assert!(solve_linear_system(vec![1.0, 2.0, 2.0, 4.0], vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn set_maintains_symmetry() {
        let mut m = SymMatrix::zeros(3);
        m.set(0, 2, 5.0);
        assert_eq!(m.get(2, 0), 5.0);
    }
}
