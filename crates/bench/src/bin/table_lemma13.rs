//! **T-l13**: Lemma 13's exponential tail, measured.
//!
//! For `d(S) ≤ m/(6 log n)` and `t ≥ 7m/(d(S)(1−λmax))`,
//! `Pr(S unvisited at t) ≤ exp(−t·d(S)·(1−λmax)/14m)`. We sample many
//! independent SRW runs on a random 4-regular expander and compare the
//! empirical survival probability with the bound at several multiples of
//! the threshold time.
//!
//! This binary walks its graph itself rather than through the engine:
//! `P(S unvisited at t)` is not a per-trial metric the engine aggregates.

use eproc_bench::{out, save_artifacts, Config};
use eproc_core::srw::SimpleRandomWalk;
use eproc_core::WalkProcess;
use eproc_engine::Scale;
use eproc_graphs::{generators, Graph, Vertex};
use eproc_spectral::lanczos::lanczos;
use eproc_stats::{SeedSequence, TextTable};
use eproc_theory::{lemma13_min_t, lemma13_unvisited_tail};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn survival_probability(g: &Graph, set: &[Vertex], t: u64, runs: usize, rng: &mut SmallRng) -> f64 {
    let mut in_set = vec![false; g.n()];
    for &v in set {
        in_set[v] = true;
    }
    let mut survived = 0usize;
    'run: for _ in 0..runs {
        // Start away from the set (vertex 0 is excluded from sets below).
        let mut walk = SimpleRandomWalk::new(g, 0);
        for _ in 0..t {
            let s = walk.advance(rng);
            if in_set[s.to] {
                continue 'run;
            }
        }
        survived += 1;
    }
    survived as f64 / runs as f64
}

fn main() {
    let config = Config::from_args();
    let seeds = SeedSequence::new(config.seed);
    let (n, runs) = match config.scale {
        Scale::Quick => (2_000usize, 400usize),
        Scale::Paper => (16_000, 1_000),
    };
    let mut graph_rng = SmallRng::seed_from_u64(seeds.derive(&[0]));
    let g = generators::connected_random_regular(n, 4, &mut graph_rng).unwrap();
    let gap = 1.0 - lanczos(&g, 120).lambda_max();
    out!(
        "Lemma 13 tail on a random 4-regular graph (n = {n}, gap = {gap:.3}, {runs} runs/point)\n"
    );
    let mut table = TextTable::new(vec![
        "|S|",
        "d(S)",
        "t/t_min",
        "t",
        "empirical P(unvisited)",
        "Lemma 13 bound",
        "within",
    ]);
    for set_size in [1usize, 2, 4] {
        // Spread the set across the vertex range, away from the start 0.
        let set: Vec<Vertex> = (1..=set_size).map(|i| i * (n / (set_size + 1))).collect();
        let d_s: usize = set.iter().map(|&v| g.degree(v)).sum();
        let t_min = lemma13_min_t(d_s, g.m(), gap);
        // Sub-threshold multiples (bound not claimed there) show where the
        // true survival probability lives; the lemma's regime follows.
        for mult in [0.01f64, 0.05, 0.25, 1.0, 2.0, 4.0] {
            let t = (t_min * mult).ceil() as u64;
            let mut rng =
                SmallRng::seed_from_u64(seeds.derive(&[set_size as u64, (mult * 100.0) as u64]));
            let empirical = survival_probability(&g, &set, t, runs, &mut rng);
            let bound = lemma13_unvisited_tail(t as f64, d_s, g.m(), gap);
            let claimed = mult >= 1.0;
            if claimed {
                assert!(
                    empirical <= bound + 3.0 * (bound / runs as f64).sqrt() + 0.02,
                    "Lemma 13 violated beyond sampling noise: {empirical} > {bound}"
                );
            }
            table.push_row(vec![
                set_size.to_string(),
                d_s.to_string(),
                format!("{mult}"),
                t.to_string(),
                format!("{empirical:.4}"),
                format!("{bound:.4}"),
                if !claimed {
                    "(below threshold)".into()
                } else if empirical <= bound {
                    "yes".into()
                } else {
                    "within noise".into()
                },
            ]);
        }
    }
    out!("{table}");
    save_artifacts(&[("table_lemma13", &table)], None);
}
