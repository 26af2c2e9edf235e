//! **Figure 1**: normalised vertex cover time of the E-process on random
//! `d`-regular graphs, `d ∈ {3,…,7}`, as a function of `n`.
//!
//! Reproduces the paper's §5 experiment: graphs from the Steger–Wormald
//! generator, unvisited edges chosen uniformly at random, each data point
//! the average of 5 runs, cover time normalised by `n`. The paper finds the
//! even-degree series flat (`Θ(n)`) and the odd-degree series growing like
//! `c·n ln n` with `c ≈ 0.93 (d=3)`, `0.41 (d=5)`, `0.38 (d=7)`; the final
//! block prints our least-squares `c` for comparison.
//!
//! Engine wrapper: a resampled spec samples a fresh graph for every one of
//! a point's 5 walks, as the paper does; this binary adds the growth-model
//! fits.

use eproc_bench::{out, run_engine_spec, save_artifacts, Config};
use eproc_engine::spec::{
    CapSpec, ExperimentSpec, GraphSpec, ProcessSpec, ResamplePlan, RuleSpec, Scale, Target,
};
use eproc_stats::{try_fit_c_nlogn, try_fit_proportional, TextTable};

const DEGREES: [usize; 5] = [3, 4, 5, 6, 7];
const REPS: usize = 5;

fn sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1_000, 2_000, 4_000, 8_000, 16_000, 32_000],
        Scale::Paper => vec![16_000, 32_000, 64_000, 128_000, 256_000, 500_000],
    }
}

fn main() {
    let config = Config::from_args();
    let ns = sizes(config.scale);
    out!("Figure 1: normalised vertex cover time CV/n of the E-process");
    out!(
        "(uniform rule, Steger-Wormald random d-regular graphs, {REPS} runs per point, one graph per run)\n"
    );
    let spec = ExperimentSpec {
        name: "fig1_cover_regular".into(),
        description: "Figure 1: E-process vertex cover time on random d-regular graphs".into(),
        graphs: DEGREES
            .iter()
            .flat_map(|&d| ns.iter().map(move |&n| GraphSpec::Regular { n, d }))
            .collect(),
        processes: vec![ProcessSpec::EProcess {
            rule: RuleSpec::Uniform,
        }],
        trials: REPS,
        target: Target::VertexCover,
        metrics: vec![],
        start: 0,
        // Far above the expected Θ(n log n).
        cap: CapSpec::NLogN(200.0),
        resample: Some(ResamplePlan { walks_per_graph: 1 }),
    };
    let (_, report) = run_engine_spec(&spec, &config);

    let mut table = TextTable::new(vec!["d", "n", "CV/n mean", "CV/n sd", "runs"]);
    let mut fits = TextTable::new(vec![
        "d",
        "c in c*n*ln(n)",
        "R2(nlogn)",
        "c in c*n",
        "R2(linear)",
        "paper c",
    ]);
    // Cells run degree-major, one per (d, n).
    for (&d, cells) in DEGREES.iter().zip(report.cells.chunks(ns.len())) {
        let mut ys = Vec::with_capacity(ns.len());
        for (&n, cell) in ns.iter().zip(cells) {
            table.push_row(vec![
                d.to_string(),
                n.to_string(),
                format!("{:.3}", cell.steps.mean() / n as f64),
                format!("{:.3}", cell.steps.std_dev() / n as f64),
                cell.trials.to_string(),
            ]);
            ys.push(cell.steps.mean());
        }
        let xs_lin: Vec<f64> = ns.iter().map(|&n| n as f64).collect();
        let log_fit = try_fit_c_nlogn(&ns, &ys).expect("Figure 1's sizes are at least 2");
        let lin_fit = try_fit_proportional(&xs_lin, &ys).expect("Figure 1's sizes are positive");
        let paper =
            eproc_theory::fig1_fitted_constant(d).map_or("-".to_string(), |c| format!("{c:.2}"));
        fits.push_row(vec![
            d.to_string(),
            format!("{:.3}", log_fit.slope),
            format!("{:.4}", log_fit.r_squared),
            format!("{:.3}", lin_fit.slope),
            format!("{:.4}", lin_fit.r_squared),
            paper,
        ]);
    }
    out!("{table}");
    out!("growth-model fits per degree (paper: even flat, odd c*n*ln(n)):\n");
    out!("{fits}");
    save_artifacts(
        &[("fig1_cover_regular", &table), ("fig1_fits", &fits)],
        Some(&report),
    );
}
