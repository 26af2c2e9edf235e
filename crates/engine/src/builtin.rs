//! Built-in experiment specs reproducing the paper's headline tables.
//!
//! These are consumed by the `eproc` CLI (`eproc run <name>`) and by the
//! thin `table_*` wrapper binaries in `eproc-bench`. Every spec is a pure
//! function of the [`Scale`], so `quick` and `paper` runs of the same name
//! are distinct but individually reproducible.
//!
//! A builtin name is just a spelling: under the artifact cache it
//! reduces to the same normal form as the equivalent expanded
//! `--graph`/`--process` flags ([`ExperimentSpec::canonicalize`]), so
//! both spellings share one [`SpecDigest`](crate::digest::SpecDigest)
//! cache entry. `eproc list --canonical` prints each builtin's
//! canonical line and digest. The line reads back through
//! [`SpecFlags`](crate::spec::SpecFlags), the one reader of the spec
//! flags, whether [`ExperimentSpec::parse_cli`] or `eproc compare` reads
//! it; CI's cache smoke pins the shared entry through the CLI for
//! `phases`, whose line repeats `--metrics`.

use crate::spec::{
    CapSpec, ExperimentSpec, GraphSpec, MetricSpec, ProcessSpec, ResamplePlan, RuleSpec, Scale,
    SweepRange, SweepStep, Target,
};

/// Names of all built-in specs, in display order.
pub fn names() -> Vec<&'static str> {
    vec![
        "comparison",
        "theorem1",
        "rules",
        "lowerbound",
        "hypercube",
        "blanket",
        "phases",
        "hitting",
        "worststart",
        "lgood",
        "cubicensemble",
        "odddegree",
        "scaling-even",
        "scaling-srw",
    ]
}

/// Names of the size-sweep builtins — the specs `eproc scale` fits
/// growth laws to. They also run under `eproc run` (as plain ensembles,
/// without the fits).
pub fn scaling_names() -> Vec<&'static str> {
    vec!["scaling-even", "scaling-srw"]
}

/// Resolves a built-in spec by name at the given scale.
pub fn spec(name: &str, scale: Scale) -> Option<ExperimentSpec> {
    match name {
        "comparison" => Some(comparison(scale)),
        "theorem1" => Some(theorem1(scale)),
        "rules" => Some(rules(scale)),
        "lowerbound" => Some(lowerbound(scale)),
        "hypercube" => Some(hypercube(scale)),
        "blanket" => Some(blanket(scale)),
        "phases" => Some(phases(scale)),
        "hitting" => Some(hitting(scale)),
        "worststart" => Some(worststart(scale)),
        "lgood" => Some(lgood(scale)),
        "cubicensemble" => Some(cubicensemble(scale)),
        "odddegree" => Some(odddegree(scale)),
        "scaling-even" => Some(scaling_even(scale)),
        "scaling-srw" => Some(scaling_srw(scale)),
        _ => None,
    }
}

/// **T-cmp** — the E-process against every related process from §1 (SRW,
/// rotor-router, RWC(2), Oldest-First, Least-Used-First) on an even-degree
/// expander, a torus and a random geometric graph.
pub fn comparison(scale: Scale) -> ExperimentSpec {
    let (reg_n, side, geo_n) = match scale {
        Scale::Quick => (4_096, 32, 2_000),
        Scale::Paper => (65_536, 128, 20_000),
    };
    ExperimentSpec {
        name: "comparison".into(),
        description: "E-process vs related processes from §1: mean vertex cover time".into(),
        graphs: vec![
            GraphSpec::Regular { n: reg_n, d: 4 },
            GraphSpec::Torus { w: side, h: side },
            GraphSpec::Geometric {
                n: geo_n,
                radius_factor: 1.5,
            },
        ],
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::Srw,
            ProcessSpec::RotorRouter,
            ProcessSpec::Rwc { d: 2 },
            ProcessSpec::OldestFirst,
            ProcessSpec::LeastUsedFirst,
        ],
        trials: 5,
        target: Target::VertexCover,
        metrics: vec![],
        start: 0,
        cap: CapSpec::NLogN(50_000.0),
        resample: None,
    }
}

/// **T-thm1** — Theorem 1's `CV = O(n + n log n / (ℓ(1−λmax)))` sweep over
/// even-degree random regular graphs and LPS Ramanujan graphs. The engine
/// measures the cover times; the `table_theorem1` wrapper adds the
/// spectral-gap and bound columns.
pub fn theorem1(scale: Scale) -> ExperimentSpec {
    let regular_sizes: Vec<usize> = match scale {
        Scale::Quick => vec![1_000, 4_000, 16_000],
        Scale::Paper => vec![4_000, 16_000, 64_000, 256_000],
    };
    let lps_params: Vec<(u64, u64)> = match scale {
        Scale::Quick => vec![(5, 13), (5, 17)],
        Scale::Paper => vec![(5, 13), (5, 17), (5, 29)],
    };
    let mut graphs = Vec::new();
    for &d in &[4usize, 6] {
        for &n in &regular_sizes {
            graphs.push(GraphSpec::Regular { n, d });
        }
    }
    for &(p, q) in &lps_params {
        graphs.push(GraphSpec::Lps { p, q });
    }
    ExperimentSpec {
        name: "theorem1".into(),
        description: "Theorem 1: E-process cover time on even-degree expanders".into(),
        graphs,
        processes: vec![ProcessSpec::EProcess {
            rule: RuleSpec::Uniform,
        }],
        trials: 5,
        target: Target::VertexCover,
        metrics: vec![],
        start: 0,
        cap: CapSpec::NLogN(500.0),
        resample: None,
    }
}

/// **T-rules** — rule independence: the E-process under every rule `A`
/// (uniform, first/last port, round-robin, a greedy adversary) covers in
/// `Θ(n)` on even-degree expanders.
pub fn rules(scale: Scale) -> ExperimentSpec {
    let reg_n = match scale {
        Scale::Quick => 4_000,
        Scale::Paper => 64_000,
    };
    ExperimentSpec {
        name: "rules".into(),
        description: "Theorem 1 rule independence: every rule A covers in Θ(n)".into(),
        graphs: vec![
            GraphSpec::Regular { n: reg_n, d: 4 },
            GraphSpec::Lps { p: 5, q: 13 },
        ],
        processes: RuleSpec::all()
            .into_iter()
            .map(|rule| ProcessSpec::EProcess { rule })
            .collect(),
        trials: 5,
        target: Target::VertexCover,
        metrics: vec![],
        start: 0,
        cap: CapSpec::NLogN(2_000.0),
        resample: None,
    }
}

/// **T-lb** — Theorem 5 flavour: the weighted random walk (whose cover
/// time is `Ω(n log n)`) against the E-process and SRW on even-degree
/// random regular graphs.
pub fn lowerbound(scale: Scale) -> ExperimentSpec {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![1_000, 2_000, 4_000],
        Scale::Paper => vec![4_000, 16_000, 64_000],
    };
    ExperimentSpec {
        name: "lowerbound".into(),
        description: "Theorem 5 flavour: weighted SRW Ω(n log n) vs E-process Θ(n)".into(),
        graphs: sizes
            .into_iter()
            .map(|n| GraphSpec::Regular { n, d: 4 })
            .collect(),
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::Srw,
            ProcessSpec::WeightedSrw,
        ],
        trials: 5,
        target: Target::VertexCover,
        metrics: vec![],
        start: 0,
        cap: CapSpec::NLogN(5_000.0),
        resample: None,
    }
}

/// **T-hyp** — edge cover on hypercubes, where the paper's edge-cover
/// sandwich (3) is tight while the Orenshtein–Shinkar bound (2) is not.
pub fn hypercube(scale: Scale) -> ExperimentSpec {
    let dims: Vec<usize> = match scale {
        Scale::Quick => vec![6, 8, 10],
        Scale::Paper => vec![10, 12, 14],
    };
    ExperimentSpec {
        name: "hypercube".into(),
        description: "Edge cover time of the E-process and SRW on hypercubes".into(),
        graphs: dims
            .into_iter()
            .map(|dim| GraphSpec::Hypercube { dim })
            .collect(),
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::Srw,
        ],
        trials: 5,
        target: Target::EdgeCover,
        metrics: vec![],
        start: 0,
        cap: CapSpec::NLogN(50_000.0),
        resample: None,
    }
}

/// **T-bl** — equation (4): the blanket-time route to edge cover. The
/// blanket target stops each trial; a `cover` metric on the **same walk**
/// also yields `CV` and `CE`, so the `table_blanket` wrapper can print
/// `τ_bl(1/2)`, `CV(SRW)` and `CE(E)` from one ensemble.
pub fn blanket(scale: Scale) -> ExperimentSpec {
    let (reg_n, torus_side, hyp) = match scale {
        Scale::Quick => (2_000, 24, 9),
        Scale::Paper => (16_000, 64, 12),
    };
    ExperimentSpec {
        name: "blanket".into(),
        description: "Eq. (4): blanket time τ_bl(1/2), CV and CE from one walk per trial".into(),
        graphs: vec![
            GraphSpec::Regular { n: reg_n, d: 4 },
            GraphSpec::Torus {
                w: torus_side,
                h: torus_side,
            },
            GraphSpec::Hypercube { dim: hyp },
        ],
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::Srw,
        ],
        trials: 3,
        target: Target::Blanket { delta: 0.5 },
        metrics: vec![MetricSpec::Cover],
        start: 0,
        cap: CapSpec::Absolute(500_000_000),
        resample: None,
    }
}

/// **T-phase** — the blue/red phase structure behind the proofs, plus the
/// §5 isolated-star census, measured in one pass per trial on random
/// `r`-regular graphs for `r ∈ {3,4,5,6}`.
pub fn phases(scale: Scale) -> ExperimentSpec {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![4_000, 16_000, 64_000],
        Scale::Paper => vec![16_000, 64_000, 256_000],
    };
    let mut graphs = Vec::new();
    for &r in &[3usize, 4, 5, 6] {
        for &n in &sizes {
            graphs.push(GraphSpec::Regular { n, d: r });
        }
    }
    ExperimentSpec {
        name: "phases".into(),
        description: "Blue/red phase structure and §5 star census of the E-process".into(),
        graphs,
        processes: vec![ProcessSpec::EProcess {
            rule: RuleSpec::Uniform,
        }],
        trials: 5,
        target: Target::EdgeCover,
        metrics: vec![MetricSpec::Phases, MetricSpec::BlueCensus],
        start: 0,
        cap: CapSpec::NLogN(2_000.0),
        resample: None,
    }
}

/// **T-hit** — empirical first-visit (hitting) times of the canonical far
/// vertex `n-1` for the SRW on the Lemma 6 / Corollary 9 graph zoo; the
/// `table_hitting` wrapper adds the exact linear-solve values and the
/// spectral bounds.
pub fn hitting(scale: Scale) -> ExperimentSpec {
    let trials = match scale {
        Scale::Quick => 10,
        Scale::Paper => 50,
    };
    ExperimentSpec {
        name: "hitting".into(),
        description: "Empirical hitting times H(0 → n-1) on the spectral-bound graph zoo".into(),
        graphs: vec![
            GraphSpec::Regular { n: 200, d: 4 },
            GraphSpec::Regular { n: 200, d: 6 },
            GraphSpec::Torus { w: 10, h: 9 },
            GraphSpec::Lollipop {
                clique: 16,
                path: 8,
            },
            GraphSpec::Petersen,
            GraphSpec::FigureEight { len: 7 },
        ],
        processes: vec![ProcessSpec::Srw],
        trials,
        target: Target::VertexCover,
        metrics: vec![MetricSpec::Hitting { vertex: None }],
        start: 0,
        cap: CapSpec::Auto,
        resample: None,
    }
}

/// **T-wstart** — one cell of the start-vertex sensitivity sweep: the
/// E-process and SRW from a fixed start. The `table_worst_start` wrapper
/// re-runs this spec once per start vertex (setting
/// [`ExperimentSpec::start`]) and takes the max over starts — the paper's
/// `C_V = max_v C_v`.
pub fn worststart(scale: Scale) -> ExperimentSpec {
    let trials = match scale {
        Scale::Quick => 8,
        Scale::Paper => 24,
    };
    ExperimentSpec {
        name: "worststart".into(),
        description: "Start-vertex sensitivity: CV = max_v C_v building block".into(),
        graphs: vec![
            GraphSpec::Regular { n: 128, d: 4 },
            GraphSpec::Torus { w: 12, h: 12 },
            GraphSpec::Lollipop {
                clique: 24,
                path: 24,
            },
        ],
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::Srw,
        ],
        trials,
        target: Target::VertexCover,
        metrics: vec![],
        start: 0,
        cap: CapSpec::Auto,
        resample: None,
    }
}

/// **T-lgood** — the ensemble half of the `ℓ`-goodness landscape: the
/// E-process cover time on the random even-regular sweep whose greedy
/// `ℓ` upper bounds and §4.1 (P2) predictions the `table_lgood` wrapper
/// computes per graph.
pub fn lgood(scale: Scale) -> ExperimentSpec {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![1_000, 4_000, 16_000],
        Scale::Paper => vec![4_000, 16_000, 64_000, 256_000],
    };
    let mut graphs = Vec::new();
    for &r in &[4usize, 6] {
        for &n in &sizes {
            graphs.push(GraphSpec::Regular { n, d: r });
        }
    }
    ExperimentSpec {
        name: "lgood".into(),
        description: "l-goodness sweep: E-process cover time on even-regular graphs".into(),
        graphs,
        processes: vec![ProcessSpec::EProcess {
            rule: RuleSpec::Uniform,
        }],
        trials: 3,
        target: Target::VertexCover,
        metrics: vec![],
        start: 0,
        cap: CapSpec::NLogN(500.0),
        resample: None,
    }
}

/// **T-cubic** — the Cooper–Frieze–Johansson scenario: cover time of
/// walk processes on the **ensemble** of random cubic (3-regular)
/// graphs, with a fresh graph sampled per trial group so the cell
/// statistics estimate the whp-over-the-graph claim rather than
/// conditioning on one sample. Two walks per graph split the variance
/// into its across-graph and within-graph components.
pub fn cubicensemble(scale: Scale) -> ExperimentSpec {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![500, 1_000, 2_000],
        Scale::Paper => vec![4_000, 16_000, 64_000],
    };
    ExperimentSpec {
        name: "cubicensemble".into(),
        description: "Random cubic graph ensemble: cover time whp over the graph (CFJ scenario)"
            .into(),
        graphs: sizes
            .into_iter()
            .map(|n| GraphSpec::Regular { n, d: 3 })
            .collect(),
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::Srw,
        ],
        trials: 6,
        target: Target::VertexCover,
        metrics: vec![],
        start: 0,
        cap: CapSpec::NLogN(5_000.0),
        resample: Some(ResamplePlan { walks_per_graph: 2 }),
    }
}

/// **T-odd** — the Johansson scenario: the E-process on random regular
/// graphs of **odd** degree `r ∈ {3, 5, 7}`, outside the paper's
/// even-degree assumption, resampled per trial group. Odd degree breaks
/// the Eulerian local structure behind Theorem 1, so the interesting
/// quantity is exactly the across-graph ensemble behaviour.
pub fn odddegree(scale: Scale) -> ExperimentSpec {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![1_000, 4_000],
        Scale::Paper => vec![16_000, 64_000],
    };
    let mut graphs = Vec::new();
    for &r in &[3usize, 5, 7] {
        for &n in &sizes {
            graphs.push(GraphSpec::Regular { n, d: r });
        }
    }
    ExperimentSpec {
        name: "odddegree".into(),
        description: "Odd-degree random regular ensemble: E-process cover time for r in {3,5,7}"
            .into(),
        graphs,
        processes: vec![ProcessSpec::EProcess {
            rule: RuleSpec::Uniform,
        }],
        trials: 6,
        target: Target::VertexCover,
        metrics: vec![],
        start: 0,
        cap: CapSpec::NLogN(2_000.0),
        resample: Some(ResamplePlan { walks_per_graph: 2 }),
    }
}

fn regular_sweep(range: SweepRange, d: usize) -> Vec<GraphSpec> {
    range
        .points()
        .expect("builtin sweep ranges are well-formed")
        .into_iter()
        .map(|n| GraphSpec::Regular { n, d })
        .collect()
}

/// **T-scale-even** — the paper's headline growth law, end to end: the
/// E-process on random 4-regular graphs swept across decades of `n`,
/// each size resampled per trial group. `eproc scale scaling-even` fits
/// the steps/`C_V`/`C_E` series against `c·m`, `a+b·m` and `c·n ln n` —
/// the linear models must win (Theorem 1: `Θ(m)` cover on even-degree
/// expanders).
pub fn scaling_even(scale: Scale) -> ExperimentSpec {
    let range = match scale {
        Scale::Quick => SweepRange {
            start: 500,
            end: 8_000,
            step: SweepStep::Factor(2),
        },
        Scale::Paper => SweepRange {
            start: 4_000,
            end: 256_000,
            step: SweepStep::Factor(2),
        },
    };
    ExperimentSpec {
        name: "scaling-even".into(),
        description: "Scaling law: E-process on random 4-regular graphs covers in Θ(m)".into(),
        graphs: regular_sweep(range, 4),
        processes: vec![ProcessSpec::EProcess {
            rule: RuleSpec::Uniform,
        }],
        trials: 4,
        target: Target::VertexCover,
        metrics: vec![MetricSpec::Cover],
        start: 0,
        cap: CapSpec::NLogN(500.0),
        resample: Some(ResamplePlan { walks_per_graph: 2 }),
    }
}

/// **T-scale-srw** — the `n log n` contrast on the same even-degree
/// family: SRW next to the E-process across the sweep, so one
/// `eproc scale scaling-srw` artifact shows the linear law for the
/// E-process and `c·n ln n` winning for the SRW (cf. the
/// Cooper–Frieze–Johansson / Johansson asymptotics for odd degree).
pub fn scaling_srw(scale: Scale) -> ExperimentSpec {
    let range = match scale {
        Scale::Quick => SweepRange {
            start: 250,
            end: 8_000,
            step: SweepStep::Factor(2),
        },
        Scale::Paper => SweepRange {
            start: 4_000,
            end: 256_000,
            step: SweepStep::Factor(2),
        },
    };
    ExperimentSpec {
        name: "scaling-srw".into(),
        description: "Scaling contrast: SRW grows as c·n ln n where the E-process stays linear"
            .into(),
        graphs: regular_sweep(range, 4),
        processes: vec![
            ProcessSpec::EProcess {
                rule: RuleSpec::Uniform,
            },
            ProcessSpec::Srw,
        ],
        trials: 6,
        target: Target::VertexCover,
        metrics: vec![],
        start: 0,
        cap: CapSpec::NLogN(50.0),
        resample: Some(ResamplePlan { walks_per_graph: 2 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_validates() {
        for name in names() {
            for scale in [Scale::Quick, Scale::Paper] {
                let s = spec(name, scale).unwrap_or_else(|| panic!("missing spec {name}"));
                assert_eq!(s.name, name);
                s.validate()
                    .unwrap_or_else(|e| panic!("spec {name} invalid: {e}"));
                assert!(!s.description.is_empty());
            }
        }
        assert!(spec("nonsense", Scale::Quick).is_none());
    }

    #[test]
    fn comparison_matches_legacy_table_grid() {
        let s = comparison(Scale::Quick);
        assert_eq!(s.graphs.len(), 3);
        assert_eq!(s.processes.len(), 6);
        assert_eq!(s.trials, 5);
        assert_eq!(s.total_jobs(), 90);
    }

    #[test]
    fn rules_covers_all_rules() {
        let s = rules(Scale::Quick);
        assert_eq!(s.processes.len(), RuleSpec::all().len());
    }

    #[test]
    fn ensemble_specs_resample_random_families() {
        let resampled = ["cubicensemble", "odddegree", "scaling-even", "scaling-srw"];
        for name in resampled {
            let s = spec(name, Scale::Quick).unwrap();
            let plan = s.resample.expect("ensemble specs resample");
            assert!(plan.walks_per_graph >= 2, "{name} must split variance");
            assert!(
                s.graphs.iter().all(|g| g.is_randomized()),
                "{name} must sweep randomized families"
            );
        }
        // Every legacy spec stays in shared-graph mode: goldens are pinned.
        for name in names() {
            if !resampled.contains(&name) {
                assert!(spec(name, Scale::Quick).unwrap().resample.is_none());
            }
        }
        let odd = odddegree(Scale::Quick);
        assert!(odd
            .graphs
            .iter()
            .all(|g| matches!(g, GraphSpec::Regular { d, .. } if d % 2 == 1)));
    }

    #[test]
    fn scaling_builtins_sweep_enough_sizes_for_model_selection() {
        for name in scaling_names() {
            assert!(names().contains(&name), "{name} must be listed");
            for scale in [Scale::Quick, Scale::Paper] {
                let s = spec(name, scale).unwrap();
                let sizes: Vec<usize> =
                    s.graphs.iter().map(|g| g.vertex_count().unwrap()).collect();
                assert!(
                    sizes.len() >= eproc_stats::scaling::MIN_SWEEP_POINTS,
                    "{name} at {scale:?} has only {} sizes",
                    sizes.len()
                );
                assert!(
                    sizes.windows(2).all(|w| w[0] * 2 == w[1]),
                    "{name} must sweep geometrically: {sizes:?}"
                );
                assert!(
                    s.graphs
                        .iter()
                        .all(|g| matches!(g, GraphSpec::Regular { d: 4, .. })),
                    "{name} sweeps the even-degree d=4 family"
                );
            }
        }
    }

    #[test]
    fn every_builtin_canonicalizes_to_a_reparsable_line() {
        // The cache executes the canonical form of whatever it keys, so
        // every builtin's normal form must survive the CLI-line round
        // trip and stay stable under repeated canonicalization.
        for scale in [Scale::Quick, Scale::Paper] {
            for name in names() {
                let canonical = spec(name, scale).unwrap().canonicalize();
                let reparsed = ExperimentSpec::parse_cli(&canonical.to_cli())
                    .unwrap_or_else(|e| panic!("{name} ({scale:?}): {e}"));
                assert_eq!(reparsed, canonical, "{name} ({scale:?})");
                assert_eq!(canonical.canonicalize(), canonical, "{name} ({scale:?})");
                assert!(canonical.name.starts_with("spec-"), "{}", canonical.name);
            }
        }
    }

    #[test]
    fn paper_scale_is_strictly_larger() {
        let q = comparison(Scale::Quick);
        let p = comparison(Scale::Paper);
        let size = |g: &GraphSpec| match *g {
            GraphSpec::Regular { n, .. } => n,
            GraphSpec::Torus { w, h } => w * h,
            GraphSpec::Geometric { n, .. } => n,
            _ => 0,
        };
        for (a, b) in q.graphs.iter().zip(&p.graphs) {
            assert!(size(a) < size(b));
        }
    }
}
