//! **T-cage**: a second high-girth even-degree family — projective-plane
//! incidence graphs.
//!
//! `PG(2, q)` incidence graphs are `(q+1)`-regular with girth exactly 6;
//! for odd `q` the degree is even, so Theorems 1 and 3 apply with `g = 6`
//! and `ℓ ≥ 6`. Together with the LPS family (`table_girth`) this covers
//! both deterministic high-girth constructions the literature offers.
//!
//! This binary walks its graphs itself rather than through the engine:
//! projective-plane incidence graphs have no `GraphSpec`, and one table
//! does not justify a graph family on the CLI.

use eproc_bench::{out, save_artifacts, Config};
use eproc_core::cover::{run_cover, CoverTarget};
use eproc_core::rule::UniformRule;
use eproc_core::EProcess;
use eproc_graphs::generators;
use eproc_graphs::properties::girth;
use eproc_spectral::lanczos::lanczos;
use eproc_stats::{SeedSequence, TextTable};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const REPS: usize = 5;

fn main() {
    let config = Config::from_args();
    let seeds = SeedSequence::new(config.seed);
    out!("Projective-plane incidence graphs: even degree, girth 6, explored linearly\n");
    let mut table = TextTable::new(vec![
        "q", "n", "m", "degree", "girth", "lazy gap", "CV/n", "CE/m",
    ]);
    for &q in &[3u64, 5, 7, 11, 13] {
        let g = generators::projective_plane_incidence(q).unwrap();
        let measured_girth = girth::girth(&g).unwrap();
        assert_eq!(measured_girth, 6);
        let spec = lanczos(&g, 120.min(g.n() - 1));
        let lazy_gap = (1.0 - spec.lambda_2()) / 2.0; // incidence graphs are bipartite
        let cap = (50_000.0 * g.n() as f64 * (g.n() as f64).ln()) as u64;
        let mut rng = SmallRng::seed_from_u64(seeds.derive(&[q]));
        let (mut cv, mut ce) = (0u64, 0u64);
        for _ in 0..REPS {
            let mut walk = EProcess::new(&g, 0, UniformRule::new());
            let run = run_cover(&mut walk, CoverTarget::Both, cap, &mut rng);
            cv += run
                .steps_to_vertex_cover
                .expect("vertex cover within the cap");
            ce += run.steps_to_edge_cover.expect("edge cover within the cap");
        }
        let (cv, ce) = (cv as f64 / REPS as f64, ce as f64 / REPS as f64);
        table.push_row(vec![
            q.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            (q + 1).to_string(),
            measured_girth.to_string(),
            format!("{lazy_gap:.3}"),
            format!("{:.2}", cv / g.n() as f64),
            format!("{:.2}", ce / g.m() as f64),
        ]);
    }
    out!("{table}");
    out!("note: even q (degree odd) excluded — the theorems need even degree;");
    out!("q = 3, 5, 7, 11, 13 give degrees 4, 6, 8, 12, 14.");
    save_artifacts(&[("table_cages", &table)], None);
}
