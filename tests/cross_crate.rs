//! Wiring tests for the `eproc` facade: every subsystem reachable through
//! the re-exports, composed end-to-end.

use eproc::core::cover::run_to_vertex_cover;
use eproc::core::rule::UniformRule;
use eproc::core::{EProcess, WalkProcess};
use eproc::graphs::generators;
use eproc::graphs::properties::girth;
use eproc::spectral::lanczos::lanczos;
use eproc::stats::{fit_c_nlogn, SeedSequence, Summary, TextTable};
use eproc::theory;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The paper's own pipeline, end to end: Steger–Wormald graph, E-process
/// cover.
#[test]
fn paper_faithful_pipeline() {
    let mut rng = SmallRng::seed_from_u64(20120716); // PODC 2012 vintage seed
    let g = generators::steger_wormald(500, 4, &mut rng).unwrap();
    assert!(eproc::graphs::properties::degrees::is_regular(&g, 4));
    if !eproc::graphs::properties::connectivity::is_connected(&g) {
        return; // astronomically unlikely; regenerate manually if ever hit
    }
    let mut walk = EProcess::new(&g, 0, UniformRule::new());
    let cover = run_to_vertex_cover(&mut walk, &g, &mut rng).expect("connected");
    assert!(cover.steps >= (g.n() - 1) as u64);
    assert!(cover.steps < 50 * g.n() as u64);
}

/// LPS graph + Lanczos + theory, composed through the facade.
#[test]
fn lps_spectral_pipeline() {
    let g = generators::lps_ramanujan(5, 13).unwrap();
    let spec = lanczos(&g, 100);
    assert!(spec.lambda_2() <= theory::ramanujan_lambda_bound(5) + 1e-6);
    assert!(girth::girth_at_most(&g, 5).is_none(), "girth must exceed 5");
    let mut rng = SmallRng::seed_from_u64(1);
    let mut walk = EProcess::new(&g, 0, UniformRule::new());
    let cover = run_to_vertex_cover(&mut walk, &g, &mut rng).unwrap();
    assert!(
        cover.steps < 10 * g.n() as u64,
        "linear-time exploration of the title graph"
    );
}

/// Stats crate consumes measurements produced by the core crate.
#[test]
fn measurement_to_fit_pipeline() {
    let seeds = SeedSequence::new(7);
    let mut ns = Vec::new();
    let mut ys = Vec::new();
    for (i, n) in [200usize, 400, 800].into_iter().enumerate() {
        let mut graph_rng = SmallRng::seed_from_u64(seeds.derive(&[i as u64]));
        let g = generators::connected_random_regular(n, 3, &mut graph_rng).unwrap();
        let mut covers = Vec::new();
        for rep in 0..3 {
            let mut rng = SmallRng::seed_from_u64(seeds.derive(&[i as u64, rep]));
            let mut w = EProcess::new(&g, 0, UniformRule::new());
            covers.push(run_to_vertex_cover(&mut w, &g, &mut rng).unwrap().steps);
        }
        ns.push(n);
        ys.push(Summary::from_u64(&covers).mean);
    }
    let fit = fit_c_nlogn(&ns, &ys);
    // Odd degree: the n ln n model fits with a constant near Figure 1's
    // 0.93 (generous small-n band).
    assert!(fit.slope > 0.3 && fit.slope < 2.5, "c = {}", fit.slope);

    let mut table = TextTable::new(vec!["n", "CV"]);
    for (n, y) in ns.iter().zip(&ys) {
        table.push_row(vec![n.to_string(), format!("{y:.0}")]);
    }
    assert_eq!(table.len(), 3);
    assert!(table.to_string().contains("CV"));
}

/// The WalkProcess trait is object-safe: processes can be driven through
/// `dyn` (the comparison binary relies on uniform treatment).
#[test]
fn walk_process_is_object_safe() {
    let g = generators::torus2d(4, 4);
    let mut rng = SmallRng::seed_from_u64(2);
    let mut walks: Vec<Box<dyn WalkProcess>> = vec![
        Box::new(EProcess::new(&g, 0, UniformRule::new())),
        Box::new(eproc::core::srw::SimpleRandomWalk::new(&g, 0)),
        Box::new(eproc::core::rotor::RotorRouter::new(&g, 0)),
    ];
    for w in &mut walks {
        for _ in 0..50 {
            let s = w.advance(&mut rng);
            assert!(s.to < g.n());
        }
        assert_eq!(w.steps(), 50);
    }
}

/// Facade re-exports resolve and agree with the underlying crates.
#[test]
fn facade_reexports() {
    let b1 = eproc::theory::radzik_lower_bound(100);
    let b2 = eproc_theory::radzik_lower_bound(100);
    assert_eq!(b1, b2);
    let g = eproc::graphs::generators::cycle(5);
    assert_eq!(g.n(), 5);
}
