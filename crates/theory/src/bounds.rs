//! Cover-time and hitting-time bounds (Theorems 1, 3, 5; Lemmas 6, 7, 13,
//! 15; Corollary 9; equations (2) and (3)).
//!
//! All bounds are stated by the paper up to multiplicative constants; the
//! functions here return the *expression inside the O(·)/Ω(·)* so callers
//! can report measured/bound ratios, which should be bounded by a constant
//! across a parameter sweep when the theorem holds.

/// Theorem 1: vertex cover time of any E-process on a connected,
/// even-degree, `ℓ`-good graph of bounded maximum degree is
/// `O(n + n log n / (ℓ (1 − λ_max)))`.
///
/// # Panics
///
/// Panics if `l == 0` or `gap <= 0`.
pub fn theorem1_vertex_cover_bound(n: usize, l: f64, gap: f64) -> f64 {
    assert!(l > 0.0, "l must be positive");
    assert!(gap > 0.0, "eigenvalue gap must be positive");
    let nf = n as f64;
    nf + nf * nf.ln() / (l * gap)
}

/// Theorem 3: edge cover time of any E-process on a connected even-degree
/// graph with girth `g`, maximum degree `Δ`:
/// `O(m + m/(1−λ_max)² (log n / g + log Δ))`.
///
/// # Panics
///
/// Panics if `girth == 0`, `max_degree < 2` or `gap <= 0`.
pub fn theorem3_edge_cover_bound(
    m: usize,
    n: usize,
    girth: usize,
    max_degree: usize,
    gap: f64,
) -> f64 {
    assert!(girth > 0, "girth must be positive");
    assert!(max_degree >= 2, "max degree must be at least 2");
    assert!(gap > 0.0, "eigenvalue gap must be positive");
    let mf = m as f64;
    mf + mf / (gap * gap) * ((n as f64).ln() / girth as f64 + (max_degree as f64).ln())
}

/// Theorem 5 (Radzik): any weighted random walk on an `n`-vertex graph has
/// vertex cover time at least `(n/4) log(n/2)` — an explicit-constant
/// lower bound.
///
/// Returns 0 for `n <= 2`.
pub fn radzik_lower_bound(n: usize) -> f64 {
    if n <= 2 {
        return 0.0;
    }
    (n as f64 / 4.0) * (n as f64 / 2.0).ln()
}

/// Feige's lower bound: `C_V(G) ≥ (1 − o(1)) n log n` for any connected
/// graph. Returns the leading term `n ln n`.
pub fn feige_lower_bound(n: usize) -> f64 {
    let nf = n as f64;
    if n <= 1 {
        return 0.0;
    }
    nf * nf.ln()
}

/// Equation (2) (Orenshtein–Shinkar): greedy-random-walk edge cover time of
/// an `r`-regular graph is `m + O(n log n / (1 − λ_max))`; returns
/// `m + n log n / gap`.
///
/// # Panics
///
/// Panics if `gap <= 0`.
pub fn eq2_greedy_edge_cover_bound(m: usize, n: usize, gap: f64) -> f64 {
    assert!(gap > 0.0, "eigenvalue gap must be positive");
    let nf = n as f64;
    m as f64 + nf * nf.ln() / gap
}

/// Equation (3): `m ≤ C_E(E-process) ≤ m + C_V(SRW)`; returns the pair of
/// bounds given the measured (or bounded) SRW vertex cover time.
pub fn eq3_edge_cover_sandwich(m: usize, cv_srw: f64) -> (f64, f64) {
    (m as f64, m as f64 + cv_srw)
}

/// Lemma 6: `E_π(H_v) ≤ 1 / ((1 − λ_max) π_v)`.
///
/// # Panics
///
/// Panics if `pi_v <= 0` or `gap <= 0`.
pub fn lemma6_hitting_bound(pi_v: f64, gap: f64) -> f64 {
    assert!(pi_v > 0.0, "stationary probability must be positive");
    assert!(gap > 0.0, "eigenvalue gap must be positive");
    1.0 / (gap * pi_v)
}

/// Corollary 9: `E_π(H_S) ≤ 2m / (d(S)(1 − λ_max))`.
///
/// # Panics
///
/// Panics if `d_s == 0` or `gap <= 0`.
pub fn corollary9_set_hitting_bound(m: usize, d_s: usize, gap: f64) -> f64 {
    assert!(d_s > 0, "set degree must be positive");
    assert!(gap > 0.0, "eigenvalue gap must be positive");
    2.0 * m as f64 / (d_s as f64 * gap)
}

/// Lemma 7: the mixing time `T = K log n / (1 − λ_max)` with `K ≥ 6`
/// guarantees `max_{u,x} |P_u^t(x) − π_x| ≤ n^{-3}` for `t ≥ T`.
///
/// # Panics
///
/// Panics if `k < 6.0` or `gap <= 0`.
pub fn lemma7_mixing_time(n: usize, gap: f64, k: f64) -> f64 {
    assert!(k >= 6.0, "Lemma 7 requires K >= 6");
    assert!(gap > 0.0, "eigenvalue gap must be positive");
    k * (n as f64).ln() / gap
}

/// Lemma 13: for `d(S) ≤ m / (6 log n)` and
/// `t ≥ 7m / (d(S)(1 − λ_max))`, the probability that `S` is unvisited by
/// the walk at step `t` is at most `exp(−t d(S)(1 − λ_max) / 14m)`.
/// Returns that tail bound.
///
/// # Panics
///
/// Panics if `m == 0`, `d_s == 0` or `gap <= 0`.
pub fn lemma13_unvisited_tail(t: f64, d_s: usize, m: usize, gap: f64) -> f64 {
    assert!(m > 0, "m must be positive");
    assert!(d_s > 0, "set degree must be positive");
    assert!(gap > 0.0, "eigenvalue gap must be positive");
    (-t * d_s as f64 * gap / (14.0 * m as f64)).exp()
}

/// Lemma 13's precondition on `t`: `t ≥ 7m / (d(S)(1 − λ_max))`.
pub fn lemma13_min_t(d_s: usize, m: usize, gap: f64) -> f64 {
    assert!(d_s > 0 && gap > 0.0);
    7.0 * m as f64 / (d_s as f64 * gap)
}

/// The Kahn–Kim–Lovász–Vu bound used in Theorem 5's proof:
/// `C_V(W, G) ≥ (max_A K_A log |A|) / 2` where `K_A` is the minimum
/// commute time within `A`.
///
/// # Panics
///
/// Panics if `set_size < 2`.
pub fn kklv_lower_bound(min_commute: f64, set_size: usize) -> f64 {
    assert!(set_size >= 2, "need at least two vertices");
    min_commute * (set_size as f64).ln() / 2.0
}

/// Lemma 15's explicit waiting time:
/// `τ* = m (1 + 14(Δ+4) log n / (δ min(ℓ, log n)(1 − λ_max)))` after which
/// no vertex of an `ℓ`-good even-degree graph remains unvisited whp.
///
/// # Panics
///
/// Panics if any of `min_degree`, `l`, `gap` is nonpositive.
pub fn lemma15_tau_star(
    m: usize,
    n: usize,
    max_degree: usize,
    min_degree: usize,
    l: f64,
    gap: f64,
) -> f64 {
    assert!(min_degree > 0, "min degree must be positive");
    assert!(l > 0.0, "l must be positive");
    assert!(gap > 0.0, "eigenvalue gap must be positive");
    let logn = (n as f64).ln();
    m as f64
        * (1.0 + 14.0 * (max_degree as f64 + 4.0) * logn / (min_degree as f64 * l.min(logn) * gap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_reduces_to_linear_when_l_large() {
        // ℓ = log n, gap = 1/2: bound = n + 2n = 3n exactly.
        let n = 1_000_000;
        let bound = theorem1_vertex_cover_bound(n, (n as f64).ln(), 0.5);
        assert!(
            (bound - 3.0 * n as f64).abs() < 1e-3,
            "Θ(n) when ℓ = log n: {bound}"
        );
    }

    #[test]
    fn theorem1_matches_eq1_for_unit_gap() {
        // Equation (1): for expanders (constant gap) Theorem 1 reads
        // `O(n + n log n / ℓ)`.
        let n = 1000;
        let b1 = theorem1_vertex_cover_bound(n, 5.0, 1.0);
        let eq1 = n as f64 + n as f64 * (n as f64).ln() / 5.0;
        assert!((b1 - eq1).abs() < 1e-9);
    }

    #[test]
    fn theorem3_girth_improves_bound() {
        let loose = theorem3_edge_cover_bound(2000, 1000, 3, 4, 0.5);
        let tight = theorem3_edge_cover_bound(2000, 1000, 20, 4, 0.5);
        assert!(tight < loose);
    }

    #[test]
    fn radzik_explicit_values() {
        assert_eq!(radzik_lower_bound(2), 0.0);
        let b = radzik_lower_bound(1000);
        assert!((b - 250.0 * 500f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn lower_bounds_ordered() {
        // Feige's n ln n dominates Radzik's (n/4) ln(n/2) for large n.
        for n in [100, 10_000, 1_000_000] {
            assert!(feige_lower_bound(n) > radzik_lower_bound(n));
        }
    }

    #[test]
    fn eq3_sandwich_brackets() {
        let (lo, hi) = eq3_edge_cover_sandwich(500, 1234.5);
        assert_eq!(lo, 500.0);
        assert_eq!(hi, 1734.5);
    }

    #[test]
    fn eq2_scales_with_gap() {
        let tight = eq2_greedy_edge_cover_bound(1000, 500, 0.5);
        let loose = eq2_greedy_edge_cover_bound(1000, 500, 0.1);
        assert!(loose > tight);
    }

    #[test]
    fn lemma6_and_corollary9_consistent() {
        // For S = {v}, Corollary 9 with d(S) = d(v) equals Lemma 6 with
        // π_v = d(v)/2m.
        let m = 300;
        let d_v = 4;
        let pi_v = d_v as f64 / (2 * m) as f64;
        let gap = 0.3;
        let l6 = lemma6_hitting_bound(pi_v, gap);
        let c9 = corollary9_set_hitting_bound(m, d_v, gap);
        assert!((l6 - c9).abs() < 1e-9);
    }

    #[test]
    fn lemma7_requires_k_at_least_6() {
        let t = lemma7_mixing_time(100, 0.5, 6.0);
        assert!(t > 0.0);
    }

    #[test]
    #[should_panic(expected = "K >= 6")]
    fn lemma7_rejects_small_k() {
        let _ = lemma7_mixing_time(100, 0.5, 2.0);
    }

    #[test]
    fn lemma13_tail_decays() {
        let m = 2000;
        let d_s = 8;
        let gap = 0.4;
        let t0 = lemma13_min_t(d_s, m, gap);
        let p1 = lemma13_unvisited_tail(t0, d_s, m, gap);
        let p2 = lemma13_unvisited_tail(4.0 * t0, d_s, m, gap);
        assert!(p2 < p1);
        assert!(p1 < 1.0);
        assert!((lemma13_unvisited_tail(0.0, d_s, m, gap) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kklv_grows_with_set() {
        assert!(kklv_lower_bound(100.0, 64) > kklv_lower_bound(100.0, 4));
    }

    #[test]
    fn lemma15_tau_star_linear_for_good_expanders() {
        // m = 2n, Δ = δ = 4, ℓ = log n, gap = 1/2:
        // τ* = 2n (1 + 14·8/(4·0.5)) = 2n·57 = 114n — linear in n with an
        // explicit constant.
        let n = 100_000;
        let m = 2 * n;
        let tau = lemma15_tau_star(m, n, 4, 4, (n as f64).ln(), 0.5);
        assert!(
            (tau - 114.0 * n as f64).abs() < 1.0,
            "τ* should be 114n: {tau}"
        );
    }

    #[test]
    #[should_panic(expected = "gap")]
    fn nonpositive_gap_rejected() {
        let _ = theorem1_vertex_cover_bound(10, 1.0, 0.0);
    }
}
